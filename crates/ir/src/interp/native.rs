//! Native closures: the compiled kernel executor, and the second stage of
//! the pipeline (lowering to typed bytecode in [`super::bytecode`], closures
//! here).
//!
//! The typed stream becomes a tree of boxed, monomorphized Rust closures
//! that execute a warp directly. Instruction dispatch, register-file
//! offsets, pool lookups and operator selection are all resolved once, when
//! the closures are built:
//!
//! * every SoA register row is addressed through a **fixed offset** captured
//!   in the closure (`reg * warp`), so the hot loop performs no multiplies
//!   and no pool indirections;
//! * element ops on a **fully active warp** run tight ascending-lane loops
//!   over directly borrowed rows the compiler can unroll and vectorize;
//!   partially masked warps walk the active lanes in ascending bit order;
//! * **fast-path loads/stores** (the sites the affine-row analysis already
//!   proved uniformly priced) specialize on index arity, hoist the extent
//!   checks to a whole-row test, and only drop to the per-lane path when a
//!   lane would trap — preserving partial-write state and the exact panic;
//! * **inner `For` loops** whose bounds are warp-uniform, unwritten by the
//!   body, and overflow-safe run as a counted loop with the trip count
//!   computed once and the per-iteration check/increment charges bulk-added
//!   (the per-lane charge total is unchanged).
//!
//! **Cost transparency.** This executor changes no observable number: op
//! charges land on the same lanes in the same totals as under the tree
//! walker, site traces record the same addresses in the same order, and
//! divergence records and panic messages are identical. The `engine_equiv`
//! suites assert buffer, trace and figure byte-identity against the tree
//! walker.
//!
//! **When it runs.** Under the default engine a launch runs here whenever
//! its plan compiled. The closures are built once per plan, on the first
//! launch that executes (a launch replayed from the launch cache builds
//! nothing), and cached in `EngineCache`. Every other launch — a plan the
//! compiler found ineligible, or a warp width other than the one the cached
//! closures were built for — runs on the tree walker and counts as a tree
//! fallback.

use std::sync::Arc;

use acceval_sim::Buffer;

use crate::expr::{BinOp, Intrin};
use crate::kernel::Expansion;
use crate::types::{ArrayId, Value};

use super::bytecode::{Bank, ExecCtx, KernelBytecode, TOp, WarpScratch};
use super::gpu::PRIV_BASE;
use super::launch_cache::{DevTarget, DeviceBufs};

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

/// Widest warp the stack operand buffers cover (masks are `u64`, so this is
/// also the executor-wide ceiling).
const MAX_W: usize = 64;

/// All-lanes-active mask for a `w`-lane warp.
#[inline]
pub(crate) fn full_mask(w: usize) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Iterate the active lanes of `mask`. The all-active case (the common one
/// on interior warps) runs as a plain `0..w` loop — no per-lane bit
/// scanning, and the compiler can hoist the register-file bounds checks.
macro_rules! lanes {
    ($w:expr, $mask:expr, $l:ident, $body:block) => {
        let w_ = $w;
        let m_: u64 = $mask;
        if m_ == full_mask(w_) {
            for $l in 0..w_ {
                $body
            }
        } else {
            let mut m = m_;
            while m != 0 {
                let $l = m.trailing_zeros() as usize;
                m &= m - 1;
                $body
            }
        }
    };
}

/// Mutable warp state the compiled closures execute against: the typed
/// register banks and evidence arrays of the [`WarpScratch`] arena, and the
/// launch's device buffers with its capture journal.
pub(crate) struct NState<'a, 'b> {
    w: usize,
    f: &'a mut [f64],
    i: &'a mut [i64],
    b: &'a mut [bool],
    lane_ops: &'a mut [u64],
    traces: &'a mut [acceval_sim::SiteWarpTrace],
    touched: &'a mut [bool],
    fast_rows: &'a mut [u64],
    priv_bufs: &'a mut [Buffer],
    dev: DeviceBufs<'a>,
    ctx: &'a ExecCtx<'b>,
    tid_base: u64,
    in_critical: bool,
    atomic: u64,
}

impl NState<'_, '_> {
    /// Slow-path flat index: the tree walker's checks and panic message.
    /// `offs` holds the pre-resolved register-row offsets of the index
    /// registers (pool lookups were done at compile time).
    fn flat_index(&self, a: usize, offs: &[usize], l: usize) -> usize {
        let mut flat = 0usize;
        for (d, &ro) in offs.iter().enumerate() {
            let i = self.i[ro + l];
            let ext = self.ctx.extents[a][d];
            assert!(
                i >= 0 && (i as usize) < ext,
                "index {} out of bounds (dim {} extent {}) on array {}",
                i,
                d,
                ext,
                self.ctx.prog.array_name(ArrayId(a as u32))
            );
            flat += i as usize * self.ctx.strides[a][d];
        }
        flat
    }

    /// Slow-path accounting: the address the tree walker's `WarpMachine`
    /// records for this access, routed to the site trace or, for a fast
    /// site, to its address row.
    fn account(&mut self, a: usize, flat: usize, site: u32, fast: i32, l: usize) {
        let eb = self.ctx.elem_bytes[a] as u64;
        if let Some(exp) = self.ctx.expansion[a] {
            match exp {
                Expansion::Register => {}
                Expansion::RowWise => {
                    let slot = self.ctx.priv_slot[a] as usize;
                    let len = self.priv_bufs[slot * self.w + l].len() as u64;
                    let tid = self.tid_base + l as u64;
                    self.touched[site as usize] = true;
                    self.traces[site as usize].record(l as u32, PRIV_BASE + (tid * len + flat as u64) * eb);
                }
                Expansion::ColumnWise => {
                    let tid = self.tid_base + l as u64;
                    self.touched[site as usize] = true;
                    self.traces[site as usize]
                        .record(l as u32, PRIV_BASE + (flat as u64 * self.ctx.total_threads + tid) * eb);
                }
            }
            return;
        }
        let addr = self.ctx.base[a] + flat as u64 * eb;
        if fast >= 0 {
            self.fast_rows[fast as usize * self.w + l] = addr;
        } else {
            self.touched[site as usize] = true;
            self.traces[site as usize].record(l as u32, addr);
        }
        if self.in_critical {
            self.atomic += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled kernel
// ---------------------------------------------------------------------------

/// One compiled step of the warp body. Sub-blocks (branch arms, loop bodies)
/// are owned by the closure of their header step.
type Thunk = Box<dyn Fn(&mut NState<'_, '_>, u64) + Send + Sync>;

#[inline]
fn run_seq(seq: &[Thunk], st: &mut NState<'_, '_>, mask: u64) {
    for t in seq {
        t(st, mask);
    }
}

/// A kernel body compiled to composed closures, specialized for one warp
/// width (the register-file offsets are baked in). Cached per plan in
/// `EngineCache`; a launch with a different warp width runs on the tree
/// walker.
///
/// Two sequences are compiled from the same stream:
///
/// * `thunks` — the exact executor: functional effects *plus* all pricing
///   evidence (op charges, site traces, fast-site address rows, atomic
///   counts);
/// * `fast_thunks` — the functional-only variant for warps whose block
///   pricing replays from the representative-block cache. Those warps'
///   evidence is provably never read (the pricing pass is skipped
///   wholesale), so this variant elides producing it: op-charge thunks
///   vanish, loads/stores keep their bounds checks, panics, and data
///   movement but skip address-row and trace writes. Every observable
///   number still comes out bit-identical — the evidence it skips was
///   already priced by the cached block's representative.
pub struct NativeKernel {
    /// The typed bytecode the closures were built from: launches read its
    /// register layout, fast-site table and pricing flags.
    pub(crate) bc: Arc<KernelBytecode>,
    thunks: Vec<Thunk>,
    fast_thunks: Vec<Thunk>,
    /// The warp width the closure offsets were specialized for.
    pub(crate) warp: usize,
}

impl std::fmt::Debug for NativeKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeKernel")
            .field("thunks", &self.thunks.len())
            .field("fast_thunks", &self.fast_thunks.len())
            .field("warp", &self.warp)
            .finish()
    }
}

/// Build the typed stream into a [`NativeKernel`] specialized for `warp`
/// lanes. `None` when `warp` exceeds the mask width (the launch runs on the
/// tree walker).
pub(crate) fn compile_native(bc: &Arc<KernelBytecode>, warp: usize) -> Option<NativeKernel> {
    if warp == 0 || warp > MAX_W {
        return None;
    }
    let thunks = NCompiler { pool: &bc.pool, w: warp, ev: true }.seq(&bc.code);
    let fast_thunks = NCompiler { pool: &bc.pool, w: warp, ev: false }.seq(&bc.code);
    Some(NativeKernel { bc: Arc::clone(bc), thunks, fast_thunks, warp })
}

/// Write `v` into every lane of register `r` in bank `b`, converted as
/// `Value::as_f`/`as_i`/`as_b` convert it.
fn splat(s: &mut WarpScratch, r: u16, b: Bank, v: Value) {
    let row = r as usize * s.warp..(r as usize + 1) * s.warp;
    match b {
        Bank::F => s.fregs[row].fill(v.as_f()),
        Bank::I => s.iregs[row].fill(v.as_i()),
        Bank::B => s.bregs[row].fill(v.as_b()),
    }
}

/// Prepare the scratch arena for one launch: `WarpScratch::begin_launch`,
/// the typed banks sized, and the launch-uniform registers (constants, and
/// scalars the body never writes) loaded.
pub(crate) fn begin_launch(
    nk: &NativeKernel,
    s: &mut WarpScratch,
    site_count: usize,
    priv_shapes: &[(acceval_sim::ElemType, usize)],
    base_env: &[Value],
    segment_bytes: u32,
) {
    let bc = &nk.bc;
    s.begin_launch(bc, nk.warp, site_count, priv_shapes, segment_bytes);
    let n = bc.nregs as usize * nk.warp;
    s.fregs.clear();
    s.fregs.resize(n, 0.0);
    s.iregs.clear();
    s.iregs.resize(n, 0);
    s.bregs.clear();
    s.bregs.resize(n, false);
    for &(r, v) in &bc.const_init {
        splat(s, r, Bank::of(v), v);
    }
    for &(slot, r, b) in &bc.scal_init_launch {
        splat(s, r, b, base_env[slot as usize]);
    }
}

/// Reload the registers the body may write before the next warp: every
/// warp-mutable scalar from the base environment, then each scalar-reduction
/// accumulator from its identity (`red_init`, in reduction order, tagged by
/// the accumulator's declared type).
pub(crate) fn begin_warp(nk: &NativeKernel, s: &mut WarpScratch, base_env: &[Value], red_init: &[Value]) {
    let bc = &nk.bc;
    for &(slot, r, b) in &bc.scal_init_warp {
        splat(s, r, b, base_env[slot as usize]);
    }
    for (&(r, _), &v) in bc.red_scalar_regs.iter().zip(red_init) {
        splat(s, r, Bank::of(v), v);
    }
}

/// Lane `l`'s value of the `k`-th scalar-reduction accumulator after the
/// warp ran, tagged by the bank the body left it in.
pub(crate) fn red_value(nk: &NativeKernel, s: &WarpScratch, k: usize, l: usize) -> Value {
    let (r, bank) = nk.bc.red_scalar_regs[k];
    let at = r as usize * s.warp + l;
    match bank {
        Bank::F => Value::F(s.fregs[at]),
        Bank::I => Value::I(s.iregs[at]),
        Bank::B => Value::B(s.bregs[at]),
    }
}

/// Execute one warp through the compiled closures. Hazardous bodies run
/// lane-serial (each active lane to completion, ascending), the tree
/// walker's schedule. Returns the critical-section atomic count.
///
/// `evidence: false` selects the functional-only sequence — legal exactly
/// when the caller will discard this warp's pricing evidence (its block's
/// pricing replays from the representative-block cache).
pub(crate) fn exec_warp_native(
    nk: &NativeKernel,
    s: &mut WarpScratch,
    ctx: &ExecCtx<'_>,
    dev: DeviceBufs<'_>,
    mask: u64,
    tid_base: u64,
    evidence: bool,
) -> u64 {
    debug_assert_eq!(nk.warp, s.warp, "native kernel compiled for a different warp width");
    let mut st = NState {
        w: s.warp,
        f: &mut s.fregs,
        i: &mut s.iregs,
        b: &mut s.bregs,
        lane_ops: &mut s.lane_ops,
        traces: &mut s.traces,
        touched: &mut s.site_touched,
        fast_rows: &mut s.fast_rows,
        priv_bufs: &mut s.priv_bufs,
        dev,
        ctx,
        tid_base,
        in_critical: false,
        atomic: 0,
    };
    let seq = if evidence { &nk.thunks } else { &nk.fast_thunks };
    if nk.bc.serial_lanes {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros();
            m &= m - 1;
            run_seq(seq, &mut st, 1u64 << l);
        }
    } else {
        run_seq(seq, &mut st, mask);
    }
    st.atomic
}

/// Device array `a` for a read, checked as the tree walker checks it: after
/// the index (so an out-of-range index reports first), with its panic when
/// the array was never allocated.
#[inline]
fn dev_read<'s>(dev: &'s DeviceBufs<'_>, a: usize, is_f: bool) -> &'s Buffer {
    let b = dev.read(a);
    debug_assert_eq!(b.elem.is_float(), is_f);
    b
}

/// Device array `a` for stores, through the launch's journal; see
/// [`dev_read`].
#[inline]
fn dev_write<'s>(dev: &'s mut DeviceBufs<'_>, a: usize, is_f: bool) -> DevTarget<'s> {
    let t = dev.write(a);
    debug_assert_eq!(t.buf().elem.is_float(), is_f);
    t
}

// ---------------------------------------------------------------------------
// Closure compiler
// ---------------------------------------------------------------------------

/// Splat a constant into a register row.
macro_rules! const_op {
    ($w:expr, $dst:expr, $db:ident, $v:expr) => {{
        let w = $w;
        let dof = $dst as usize * w;
        let v = $v;
        Box::new(move |st: &mut NState<'_, '_>, mask: u64| {
            if mask == full_mask(w) {
                st.$db[dof..dof + w].fill(v);
            } else {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    st.$db[dof + l] = v;
                }
            }
        }) as Thunk
    }};
}

/// Same-bank register-row copy.
macro_rules! copy_op {
    ($w:expr, $dst:expr, $src:expr, $db:ident) => {{
        let w = $w;
        let dof = $dst as usize * w;
        let so = $src as usize * w;
        Box::new(move |st: &mut NState<'_, '_>, mask: u64| {
            if mask == full_mask(w) {
                st.$db.copy_within(so..so + w, dof);
            } else {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    st.$db[dof + l] = st.$db[so + l];
                }
            }
        }) as Thunk
    }};
}

/// One mutable row and one shared row of the same bank. Register rows are
/// `w` elements at `w`-aligned offsets, so distinct offsets never overlap
/// and `split_at_mut` can hand both out at once.
#[inline]
fn row2<T>(bank: &mut [T], d: usize, s: usize, w: usize) -> (&mut [T], &[T]) {
    if d < s {
        let (lo, hi) = bank.split_at_mut(s);
        (&mut lo[d..d + w], &hi[..w])
    } else {
        let (lo, hi) = bank.split_at_mut(d);
        (&mut hi[..w], &lo[s..s + w])
    }
}

/// The destination row mutably plus both source rows shared, out of one
/// bank. Register rows are `w` elements at `w`-aligned offsets, so `d != a`
/// and `d != b` make the mutable row disjoint from both shared ones
/// (`a == b` is fine — those two borrows are both shared).
#[inline]
fn row3<T>(bank: &mut [T], d: usize, a: usize, b: usize, w: usize) -> (&mut [T], &[T], &[T]) {
    let (lo, rest) = bank.split_at_mut(d);
    let (dst, hi) = rest.split_at_mut(w);
    let (lo, hi) = (&*lo, &*hi);
    let src = |s: usize| if s < d { &lo[s..s + w] } else { &hi[s - d - w..s - d] };
    (dst, src(a), src(b))
}

/// Unary element op across banks (`$db != $ab`), monomorphized on `$f`.
/// The banks are disjoint struct fields, so both rows borrow directly — no
/// staging copies. Masked warps use the exact bit-scan schedule.
macro_rules! un_x {
    ($w:expr, $dst:expr, $a:expr, $db:ident, $ab:ident, $f:expr) => {{
        let w = $w;
        let dof = $dst as usize * w;
        let ao = $a as usize * w;
        let f = $f;
        Box::new(move |st: &mut NState<'_, '_>, mask: u64| {
            if mask == full_mask(w) {
                for (d, &a) in st.$db[dof..dof + w].iter_mut().zip(&st.$ab[ao..ao + w]) {
                    *d = f(a);
                }
            } else {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    st.$db[dof + l] = f(st.$ab[ao + l]);
                }
            }
        }) as Thunk
    }};
}

/// Unary element op within one bank: in-place when the destination is the
/// operand, otherwise two disjoint rows via [`row2`] — the row offsets are
/// known at closure-build time, so the alias case is picked once, not per
/// warp.
macro_rules! un_same {
    ($w:expr, $dst:expr, $a:expr, $db:ident, $f:expr) => {{
        let w = $w;
        let dof = $dst as usize * w;
        let ao = $a as usize * w;
        let f = $f;
        if dof == ao {
            Box::new(move |st: &mut NState<'_, '_>, mask: u64| {
                if mask == full_mask(w) {
                    for x in st.$db[dof..dof + w].iter_mut() {
                        *x = f(*x);
                    }
                } else {
                    let mut m = mask;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        st.$db[dof + l] = f(st.$db[dof + l]);
                    }
                }
            }) as Thunk
        } else {
            Box::new(move |st: &mut NState<'_, '_>, mask: u64| {
                if mask == full_mask(w) {
                    let (d, s) = row2(st.$db, dof, ao, w);
                    for (x, &a) in d.iter_mut().zip(s) {
                        *x = f(a);
                    }
                } else {
                    let mut m = mask;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        st.$db[dof + l] = f(st.$db[ao + l]);
                    }
                }
            }) as Thunk
        }
    }};
}

/// Binary element op across banks (`$db != $sb`): disjoint struct fields,
/// direct borrows, no staging. Lane order is ascending in both paths, so a
/// trapping lane (e.g. integer division by zero) panics after exactly the
/// same partial writes on either path.
macro_rules! bin_x {
    ($w:expr, $dst:expr, $a:expr, $b:expr, $db:ident, $sb:ident, $f:expr) => {{
        let w = $w;
        let dof = $dst as usize * w;
        let ao = $a as usize * w;
        let bo = $b as usize * w;
        let f = $f;
        Box::new(move |st: &mut NState<'_, '_>, mask: u64| {
            if mask == full_mask(w) {
                let sa = &st.$sb[ao..ao + w];
                let sb = &st.$sb[bo..bo + w];
                for ((d, &a), &b) in st.$db[dof..dof + w].iter_mut().zip(sa).zip(sb) {
                    *d = f(a, b);
                }
            } else {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    st.$db[dof + l] = f(st.$sb[ao + l], st.$sb[bo + l]);
                }
            }
        }) as Thunk
    }};
}

/// Binary element op within one bank, dispatched once at closure-build time
/// on how the destination row aliases the operand rows: in-place
/// accumulation forms borrow the destination row once, the disjoint form
/// borrows all three rows via [`row3`]. Every form runs a tight
/// ascending-lane loop over directly borrowed rows — no staging copies.
macro_rules! bin_same {
    ($w:expr, $dst:expr, $a:expr, $b:expr, $db:ident, $f:expr) => {{
        let w = $w;
        let dof = $dst as usize * w;
        let ao = $a as usize * w;
        let bo = $b as usize * w;
        let f = $f;
        let full: Thunk = if dof == ao && dof == bo {
            Box::new(move |st: &mut NState<'_, '_>, mask: u64| {
                if mask == full_mask(w) {
                    for x in st.$db[dof..dof + w].iter_mut() {
                        *x = f(*x, *x);
                    }
                } else {
                    let mut m = mask;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        st.$db[dof + l] = f(st.$db[dof + l], st.$db[dof + l]);
                    }
                }
            })
        } else if dof == ao {
            Box::new(move |st: &mut NState<'_, '_>, mask: u64| {
                if mask == full_mask(w) {
                    let (d, s) = row2(st.$db, dof, bo, w);
                    for (x, &b) in d.iter_mut().zip(s) {
                        *x = f(*x, b);
                    }
                } else {
                    let mut m = mask;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        st.$db[dof + l] = f(st.$db[dof + l], st.$db[bo + l]);
                    }
                }
            })
        } else if dof == bo {
            Box::new(move |st: &mut NState<'_, '_>, mask: u64| {
                if mask == full_mask(w) {
                    let (d, s) = row2(st.$db, dof, ao, w);
                    for (x, &a) in d.iter_mut().zip(s) {
                        *x = f(a, *x);
                    }
                } else {
                    let mut m = mask;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        st.$db[dof + l] = f(st.$db[ao + l], st.$db[dof + l]);
                    }
                }
            })
        } else {
            Box::new(move |st: &mut NState<'_, '_>, mask: u64| {
                if mask == full_mask(w) {
                    let (d, sa, sb) = row3(st.$db, dof, ao, bo, w);
                    for ((x, &a), &b) in d.iter_mut().zip(sa).zip(sb) {
                        *x = f(a, b);
                    }
                } else {
                    let mut m = mask;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        st.$db[dof + l] = f(st.$db[ao + l], st.$db[bo + l]);
                    }
                }
            })
        };
        full
    }};
}

/// Does any instruction of the (flat, sub-blocks inline) slice write one of
/// `regs`? The comparison ignores banks, so a write to another bank of the
/// same register number (a conversion, which the compiler makes in place)
/// counts too: conservative, never unsound.
fn writes_any(code: &[TOp], regs: [u16; 3]) -> bool {
    code.iter().any(|op| {
        let d = match *op {
            TOp::ConstF { dst, .. }
            | TOp::ConstI { dst, .. }
            | TOp::ConstB { dst, .. }
            | TOp::CopyF { dst, .. }
            | TOp::CopyI { dst, .. }
            | TOp::CopyB { dst, .. }
            | TOp::FtoI { dst, .. }
            | TOp::ItoF { dst, .. }
            | TOp::BtoI { dst, .. }
            | TOp::BtoF { dst, .. }
            | TOp::FtoB { dst, .. }
            | TOp::ItoB { dst, .. }
            | TOp::NegF { dst, .. }
            | TOp::NegI { dst, .. }
            | TOp::NotB { dst, .. }
            | TOp::AbsI { dst, .. }
            | TOp::ArithF { dst, .. }
            | TOp::ArithI { dst, .. }
            | TOp::CmpF { dst, .. }
            | TOp::CmpI { dst, .. }
            | TOp::AndB { dst, .. }
            | TOp::OrB { dst, .. }
            | TOp::IntrinF { dst, .. }
            | TOp::Load { dst, .. }
            | TOp::Select { dst, .. } => Some(dst),
            TOp::For { var, .. } => Some(var),
            TOp::Store { .. }
            | TOp::Ops { .. }
            | TOp::If { .. }
            | TOp::While { .. }
            | TOp::CritEnter
            | TOp::CritExit => None,
        };
        d.is_some_and(|d| regs.contains(&d))
    })
}

/// Does any instruction of the slice read register `r`?
fn reads_reg(code: &[TOp], pool: &[u16], r: u16) -> bool {
    let pool_has = |off: u32, len: usize| pool[off as usize..off as usize + len].contains(&r);
    code.iter().any(|op| match *op {
        TOp::ConstF { .. }
        | TOp::ConstI { .. }
        | TOp::ConstB { .. }
        | TOp::Ops { .. }
        | TOp::CritEnter
        | TOp::CritExit => false,
        TOp::CopyF { src, .. } | TOp::CopyI { src, .. } | TOp::CopyB { src, .. } => src == r,
        TOp::FtoI { a, .. }
        | TOp::ItoF { a, .. }
        | TOp::BtoI { a, .. }
        | TOp::BtoF { a, .. }
        | TOp::FtoB { a, .. }
        | TOp::ItoB { a, .. }
        | TOp::NegF { a, .. }
        | TOp::NegI { a, .. }
        | TOp::NotB { a, .. }
        | TOp::AbsI { a, .. } => a == r,
        TOp::ArithF { a, b, .. }
        | TOp::ArithI { a, b, .. }
        | TOp::CmpF { a, b, .. }
        | TOp::CmpI { a, b, .. }
        | TOp::AndB { a, b, .. }
        | TOp::OrB { a, b, .. } => a == r || b == r,
        TOp::IntrinF { args_off, args_len, .. } => pool_has(args_off, args_len as usize),
        TOp::Load { idx_off, idx_len, .. } => pool_has(idx_off, idx_len as usize),
        TOp::Store { src, idx_off, idx_len, .. } => src == r || pool_has(idx_off, idx_len as usize),
        TOp::If { cond, .. } => cond == r,
        TOp::Select { cond, t_reg, f_reg, .. } => cond == r || t_reg == r || f_reg == r,
        TOp::For { var, hi_reg, step_reg, .. } => var == r || hi_reg == r || step_reg == r,
        TOp::While { cond, .. } => cond == r,
    })
}

struct NCompiler<'a> {
    pool: &'a [u16],
    w: usize,
    /// Compile evidence production (op charges, traces, address rows,
    /// atomic counts). `false` builds the functional-only sequence.
    ev: bool,
}

impl NCompiler<'_> {
    fn seq(&self, code: &[TOp]) -> Vec<Thunk> {
        let mut out = Vec::new();
        let mut pc = 0;
        while pc < code.len() {
            let (t, next) = self.emit(code, pc);
            out.extend(t);
            pc = next;
        }
        out
    }

    /// One step: `None` when the op exists only to produce evidence the
    /// functional-only variant elides (op charges, critical-section
    /// bracketing around the atomic counter).
    fn emit(&self, code: &[TOp], pc: usize) -> (Option<Thunk>, usize) {
        if !self.ev {
            if let TOp::Ops { .. } | TOp::CritEnter | TOp::CritExit = code[pc] {
                return (None, pc + 1);
            }
        }
        let (t, next) = self.emit_thunk(code, pc);
        (Some(t), next)
    }

    #[allow(clippy::too_many_lines)]
    fn emit_thunk(&self, code: &[TOp], pc: usize) -> (Thunk, usize) {
        let w = self.w;
        match code[pc] {
            TOp::ConstF { dst, v } => (const_op!(w, dst, f, v), pc + 1),
            TOp::ConstI { dst, v } => (const_op!(w, dst, i, v), pc + 1),
            TOp::ConstB { dst, v } => (const_op!(w, dst, b, v), pc + 1),
            TOp::CopyF { dst, src } => (copy_op!(w, dst, src, f), pc + 1),
            TOp::CopyI { dst, src } => (copy_op!(w, dst, src, i), pc + 1),
            TOp::CopyB { dst, src } => (copy_op!(w, dst, src, b), pc + 1),
            TOp::FtoI { dst, a } => (un_x!(w, dst, a, i, f, |x: f64| x as i64), pc + 1),
            TOp::ItoF { dst, a } => (un_x!(w, dst, a, f, i, |x: i64| x as f64), pc + 1),
            TOp::BtoI { dst, a } => (un_x!(w, dst, a, i, b, |x: bool| x as i64), pc + 1),
            TOp::BtoF { dst, a } => (un_x!(w, dst, a, f, b, |x: bool| x as i64 as f64), pc + 1),
            TOp::FtoB { dst, a } => (un_x!(w, dst, a, b, f, |x: f64| x != 0.0), pc + 1),
            TOp::ItoB { dst, a } => (un_x!(w, dst, a, b, i, |x: i64| x != 0), pc + 1),
            TOp::NegF { dst, a } => (un_same!(w, dst, a, f, |x: f64| -x), pc + 1),
            TOp::NegI { dst, a } => (un_same!(w, dst, a, i, |x: i64| -x), pc + 1),
            TOp::NotB { dst, a } => (un_same!(w, dst, a, b, |x: bool| !x), pc + 1),
            TOp::AbsI { dst, a } => (un_same!(w, dst, a, i, |x: i64| x.abs()), pc + 1),
            TOp::ArithF { dst, op, a, b } => {
                let t = match op {
                    BinOp::Add => bin_same!(w, dst, a, b, f, |x: f64, y: f64| x + y),
                    BinOp::Sub => bin_same!(w, dst, a, b, f, |x: f64, y: f64| x - y),
                    BinOp::Mul => bin_same!(w, dst, a, b, f, |x: f64, y: f64| x * y),
                    BinOp::Div => bin_same!(w, dst, a, b, f, |x: f64, y: f64| x / y),
                    BinOp::Rem => bin_same!(w, dst, a, b, f, |x: f64, y: f64| x % y),
                    BinOp::Min => bin_same!(w, dst, a, b, f, |x: f64, y: f64| x.min(y)),
                    BinOp::Max => bin_same!(w, dst, a, b, f, |x: f64, y: f64| x.max(y)),
                    _ => unreachable!("non-arith op in ArithF"),
                };
                (t, pc + 1)
            }
            TOp::ArithI { dst, op, a, b } => {
                let t = match op {
                    BinOp::Add => bin_same!(w, dst, a, b, i, |x: i64, y: i64| x.wrapping_add(y)),
                    BinOp::Sub => bin_same!(w, dst, a, b, i, |x: i64, y: i64| x.wrapping_sub(y)),
                    BinOp::Mul => bin_same!(w, dst, a, b, i, |x: i64, y: i64| x.wrapping_mul(y)),
                    BinOp::Div => bin_same!(w, dst, a, b, i, |x: i64, y: i64| x / y),
                    BinOp::Rem => bin_same!(w, dst, a, b, i, |x: i64, y: i64| x % y),
                    BinOp::Min => bin_same!(w, dst, a, b, i, |x: i64, y: i64| x.min(y)),
                    BinOp::Max => bin_same!(w, dst, a, b, i, |x: i64, y: i64| x.max(y)),
                    BinOp::Shl => bin_same!(w, dst, a, b, i, |x: i64, y: i64| x << y),
                    BinOp::Shr => bin_same!(w, dst, a, b, i, |x: i64, y: i64| x >> y),
                    BinOp::BitAnd => bin_same!(w, dst, a, b, i, |x: i64, y: i64| x & y),
                    BinOp::BitOr => bin_same!(w, dst, a, b, i, |x: i64, y: i64| x | y),
                    BinOp::BitXor => bin_same!(w, dst, a, b, i, |x: i64, y: i64| x ^ y),
                    _ => unreachable!("non-arith op in ArithI"),
                };
                (t, pc + 1)
            }
            TOp::CmpF { dst, op, a, b } => {
                let t = match op {
                    BinOp::Lt => bin_x!(w, dst, a, b, b, f, |x: f64, y: f64| x < y),
                    BinOp::Le => bin_x!(w, dst, a, b, b, f, |x: f64, y: f64| x <= y),
                    BinOp::Gt => bin_x!(w, dst, a, b, b, f, |x: f64, y: f64| x > y),
                    BinOp::Ge => bin_x!(w, dst, a, b, b, f, |x: f64, y: f64| x >= y),
                    BinOp::Eq => bin_x!(w, dst, a, b, b, f, |x: f64, y: f64| x == y),
                    BinOp::Ne => bin_x!(w, dst, a, b, b, f, |x: f64, y: f64| x != y),
                    _ => unreachable!("non-cmp op in CmpF"),
                };
                (t, pc + 1)
            }
            TOp::CmpI { dst, op, a, b } => {
                let t = match op {
                    BinOp::Lt => bin_x!(w, dst, a, b, b, i, |x: i64, y: i64| x < y),
                    BinOp::Le => bin_x!(w, dst, a, b, b, i, |x: i64, y: i64| x <= y),
                    BinOp::Gt => bin_x!(w, dst, a, b, b, i, |x: i64, y: i64| x > y),
                    BinOp::Ge => bin_x!(w, dst, a, b, b, i, |x: i64, y: i64| x >= y),
                    BinOp::Eq => bin_x!(w, dst, a, b, b, i, |x: i64, y: i64| x == y),
                    BinOp::Ne => bin_x!(w, dst, a, b, b, i, |x: i64, y: i64| x != y),
                    _ => unreachable!("non-cmp op in CmpI"),
                };
                (t, pc + 1)
            }
            TOp::AndB { dst, a, b } => (bin_same!(w, dst, a, b, b, |x: bool, y: bool| x & y), pc + 1),
            TOp::OrB { dst, a, b } => (bin_same!(w, dst, a, b, b, |x: bool, y: bool| x | y), pc + 1),
            TOp::Ops { n } => {
                let t: Thunk = Box::new(move |st, mask| {
                    if mask == full_mask(w) {
                        for x in st.lane_ops.iter_mut() {
                            *x += n;
                        }
                    } else {
                        let mut m = mask;
                        while m != 0 {
                            let l = m.trailing_zeros() as usize;
                            m &= m - 1;
                            st.lane_ops[l] += n;
                        }
                    }
                });
                (t, pc + 1)
            }
            TOp::IntrinF { dst, f, args_off, args_len } => {
                let a0 = self.pool[args_off as usize];
                let t: Thunk = match f {
                    Intrin::Pow => {
                        debug_assert!(args_len >= 2);
                        let dof = dst as usize * w;
                        let ao = a0 as usize * w;
                        let bo = self.pool[args_off as usize + 1] as usize * w;
                        Box::new(move |st, mask| {
                            lanes!(w, mask, l, {
                                st.f[dof + l] = st.f[ao + l].powf(st.f[bo + l]);
                            });
                        })
                    }
                    _ => {
                        let g: fn(f64) -> f64 = match f {
                            Intrin::Sqrt => f64::sqrt,
                            Intrin::Exp => f64::exp,
                            Intrin::Log => f64::ln,
                            Intrin::Sin => f64::sin,
                            Intrin::Cos => f64::cos,
                            Intrin::Floor => f64::floor,
                            Intrin::Abs => f64::abs,
                            Intrin::Pow => unreachable!(),
                        };
                        un_same!(w, dst, a0, f, move |x: f64| g(x))
                    }
                };
                (t, pc + 1)
            }
            TOp::Load { dst, dst_f, arr, site, idx_off, idx_len, fast } => {
                (self.emit_load(dst, dst_f, arr, site, idx_off, idx_len, fast), pc + 1)
            }
            TOp::Store { src, src_f, arr, site, idx_off, idx_len, fast } => {
                (self.emit_store(src, src_f, arr, site, idx_off, idx_len, fast), pc + 1)
            }
            TOp::If { cond, site, then_len, else_len } => {
                let t_start = pc + 1;
                let e_start = t_start + then_len as usize;
                let end_if = e_start + else_len as usize;
                let then_seq = self.seq(&code[t_start..e_start]);
                let else_seq = self.seq(&code[e_start..end_if]);
                let co = cond as usize * w;
                let site = site as usize;
                let ev = self.ev;
                let t: Thunk = Box::new(move |st, mask| {
                    let mut m_t = 0u64;
                    if ev {
                        st.touched[site] = true;
                        lanes!(w, mask, l, {
                            let c = st.b[co + l];
                            st.traces[site].record(l as u32, c as u64);
                            if c {
                                m_t |= 1 << l;
                            }
                        });
                    } else {
                        lanes!(w, mask, l, {
                            if st.b[co + l] {
                                m_t |= 1 << l;
                            }
                        });
                    }
                    let m_f = mask & !m_t;
                    if m_t != 0 {
                        run_seq(&then_seq, st, m_t);
                    }
                    if m_f != 0 {
                        run_seq(&else_seq, st, m_f);
                    }
                });
                (t, end_if)
            }
            TOp::Select { cond, dst, t_reg, f_reg, bank, t_len, f_len } => {
                let t_start = pc + 1;
                let f_start = t_start + t_len as usize;
                let end_sel = f_start + f_len as usize;
                let t_seq = self.seq(&code[t_start..f_start]);
                let f_seq = self.seq(&code[f_start..end_sel]);
                let co = cond as usize * w;
                let dof = dst as usize * w;
                let to = t_reg as usize * w;
                let fo2 = f_reg as usize * w;
                macro_rules! sel {
                    ($bank:ident) => {
                        Box::new(move |st: &mut NState<'_, '_>, mask: u64| {
                            let mut m_t = 0u64;
                            lanes!(w, mask, l, {
                                if st.b[co + l] {
                                    m_t |= 1 << l;
                                }
                            });
                            let m_f = mask & !m_t;
                            if m_t != 0 {
                                run_seq(&t_seq, st, m_t);
                            }
                            if m_f != 0 {
                                run_seq(&f_seq, st, m_f);
                            }
                            lanes!(w, mask, l, {
                                st.$bank[dof + l] =
                                    if m_t >> l & 1 == 1 { st.$bank[to + l] } else { st.$bank[fo2 + l] };
                            });
                        }) as Thunk
                    };
                }
                let t: Thunk = match bank {
                    Bank::F => sel!(f),
                    Bank::I => sel!(i),
                    Bank::B => sel!(b),
                };
                (t, end_sel)
            }
            TOp::For { var, hi_reg, step_reg, hi_len, step_len, body_len } => {
                let hi_start = pc + 1;
                let step_start = hi_start + hi_len as usize;
                let body_start = step_start + step_len as usize;
                let end_for = body_start + body_len as usize;
                let hi_seq = self.seq(&code[hi_start..step_start]);
                let step_seq = self.seq(&code[step_start..body_start]);
                let body_seq = self.seq(&code[body_start..end_for]);
                let vo = var as usize * w;
                let ho = hi_reg as usize * w;
                let so = step_reg as usize * w;
                // Counted-loop specialization: legal when the bounds cannot
                // change under the loop (no hi/step sub-blocks, body never
                // writes var/hi/step). Runtime still requires warp-uniform,
                // positive, overflow-safe bounds before taking the bulk
                // path; anything else runs the exact generic schedule.
                let bulk_ok =
                    hi_len == 0 && step_len == 0 && !writes_any(&code[body_start..end_for], [var, hi_reg, step_reg]);
                let body_reads_var = reads_reg(&code[body_start..end_for], self.pool, var);
                let ev = self.ev;
                let t: Thunk = Box::new(move |st, mask| {
                    if bulk_ok && mask != 0 {
                        let l0 = mask.trailing_zeros() as usize;
                        let (v0, h0, s0) = (st.i[vo + l0], st.i[ho + l0], st.i[so + l0]);
                        let mut uni = true;
                        lanes!(w, mask, l, {
                            uni &= st.i[vo + l] == v0 && st.i[ho + l] == h0 && st.i[so + l] == s0;
                        });
                        // Magnitude bound keeps every intermediate (trip
                        // count, final var) inside i64 with room to spare,
                        // so debug-overflow behaviour cannot diverge.
                        const LIM: i64 = 1 << 31;
                        if uni && s0 > 0 && v0.abs() < LIM && h0.abs() < LIM && s0 < LIM {
                            let trips = if v0 >= h0 { 0 } else { (h0 - v0 + s0 - 1) / s0 };
                            // The generic schedule below charges one op per
                            // loop test (trips + 1 of them) and one per
                            // increment (trips): the same per-lane total,
                            // added in one step.
                            if ev {
                                let charges = 2 * trips as u64 + 1;
                                lanes!(w, mask, l, {
                                    st.lane_ops[l] += charges;
                                });
                            }
                            if body_reads_var {
                                for _ in 0..trips {
                                    run_seq(&body_seq, st, mask);
                                    lanes!(w, mask, l, {
                                        st.i[vo + l] += s0;
                                    });
                                }
                            } else {
                                for _ in 0..trips {
                                    run_seq(&body_seq, st, mask);
                                }
                                let fin = v0 + trips * s0;
                                lanes!(w, mask, l, {
                                    st.i[vo + l] = fin;
                                });
                            }
                            return;
                        }
                    }
                    let mut lm = mask;
                    loop {
                        if !hi_seq.is_empty() {
                            run_seq(&hi_seq, st, lm);
                        }
                        let mut next = 0u64;
                        lanes!(w, lm, l, {
                            if ev {
                                st.lane_ops[l] += 1;
                            }
                            if st.i[vo + l] < st.i[ho + l] {
                                next |= 1 << l;
                            }
                        });
                        lm = next;
                        if lm == 0 {
                            break;
                        }
                        run_seq(&body_seq, st, lm);
                        if !step_seq.is_empty() {
                            run_seq(&step_seq, st, lm);
                        }
                        lanes!(w, lm, l, {
                            let cur = st.i[vo + l];
                            let stp = st.i[so + l];
                            st.i[vo + l] = cur + stp;
                            if ev {
                                st.lane_ops[l] += 1;
                            }
                        });
                    }
                });
                (t, end_for)
            }
            TOp::While { cond, cond_len, body_len } => {
                let c_start = pc + 1;
                let b_start = c_start + cond_len as usize;
                let end_wh = b_start + body_len as usize;
                let cond_seq = self.seq(&code[c_start..b_start]);
                let body_seq = self.seq(&code[b_start..end_wh]);
                let co = cond as usize * w;
                let ev = self.ev;
                let t: Thunk = Box::new(move |st, mask| {
                    let mut lm = mask;
                    loop {
                        if !cond_seq.is_empty() {
                            run_seq(&cond_seq, st, lm);
                        }
                        let mut take = 0u64;
                        lanes!(w, lm, l, {
                            if st.b[co + l] {
                                take |= 1 << l;
                            }
                        });
                        if take == 0 {
                            break;
                        }
                        if ev {
                            lanes!(w, take, l, {
                                st.lane_ops[l] += 1;
                            });
                        }
                        run_seq(&body_seq, st, take);
                        lm = take;
                    }
                });
                (t, end_wh)
            }
            TOp::CritEnter => {
                let t: Thunk = Box::new(|st, _| st.in_critical = true);
                (t, pc + 1)
            }
            TOp::CritExit => {
                let t: Thunk = Box::new(|st, _| st.in_critical = false);
                (t, pc + 1)
            }
        }
    }

    /// Fast-path (`fast >= 0`) loads specialize on index arity and check the
    /// whole row's extents up front: the all-in-range full-mask case runs
    /// ascending-lane copy loops; any out-of-range lane re-runs the exact
    /// per-lane schedule so partial writes and the panic match it.
    #[allow(clippy::too_many_arguments)]
    fn emit_load(&self, dst: u16, dst_f: bool, arr: u16, site: u32, idx_off: u32, idx_len: u8, fast: i32) -> Thunk {
        let w = self.w;
        let ev = self.ev;
        let a = arr as usize;
        let dof = dst as usize * w;
        if fast < 0 {
            let offs: Vec<usize> =
                (0..idx_len as usize).map(|k| self.pool[idx_off as usize + k] as usize * w).collect();
            return Box::new(move |st, mask| {
                lanes!(w, mask, l, {
                    let flat = st.flat_index(a, &offs, l);
                    if ev {
                        st.account(a, flat, site, fast, l);
                    }
                    if st.ctx.priv_slot[a] >= 0 {
                        let b = &st.priv_bufs[st.ctx.priv_slot[a] as usize * w + l];
                        debug_assert_eq!(b.elem.is_float(), dst_f);
                        if dst_f {
                            st.f[dof + l] = b.get_f(flat);
                        } else {
                            st.i[dof + l] = b.get_i(flat);
                        }
                    } else {
                        let b = dev_read(&st.dev, a, dst_f);
                        if dst_f {
                            st.f[dof + l] = b.get_f(flat);
                        } else {
                            st.i[dof + l] = b.get_i(flat);
                        }
                    }
                });
            });
        }
        let fo = fast as usize * w;
        let po = idx_off as usize;
        match idx_len {
            1 => {
                let ro0 = self.pool[po] as usize * w;
                Box::new(move |st, mask| {
                    let eb = st.ctx.elem_bytes[a] as u64;
                    let base = st.ctx.base[a];
                    let (e0, s0) = (st.ctx.extents[a][0], st.ctx.strides[a][0]);
                    if mask == full_mask(w) {
                        // `(i as u64) < e0` is the signed range test in one
                        // compare: a negative index wraps past any extent.
                        let iv = &st.i[ro0..ro0 + w];
                        let mut ok = true;
                        let mut flats = [0usize; MAX_W];
                        for l in 0..w {
                            let i = iv[l];
                            ok &= (i as u64) < e0 as u64;
                            flats[l] = (i as usize).wrapping_mul(s0);
                        }
                        if ok {
                            if ev {
                                for (r, &fl) in st.fast_rows[fo..fo + w].iter_mut().zip(&flats[..w]) {
                                    *r = base + fl as u64 * eb;
                                }
                            }
                            let buf = dev_read(&st.dev, a, dst_f);
                            if dst_f {
                                for (d, &fl) in st.f[dof..dof + w].iter_mut().zip(&flats[..w]) {
                                    *d = buf.get_f(fl);
                                }
                            } else {
                                for (d, &fl) in st.i[dof..dof + w].iter_mut().zip(&flats[..w]) {
                                    *d = buf.get_i(fl);
                                }
                            }
                            if ev && st.in_critical {
                                st.atomic += mask.count_ones() as u64;
                            }
                            return;
                        }
                    }
                    lanes!(w, mask, l, {
                        let i = st.i[ro0 + l];
                        if i < 0 || i as usize >= e0 {
                            panic!(
                                "index {} out of bounds (dim 0 extent {}) on array {}",
                                i,
                                e0,
                                st.ctx.prog.array_name(ArrayId(a as u32))
                            );
                        }
                        let flat = i as usize * s0;
                        if ev {
                            st.fast_rows[fo + l] = base + flat as u64 * eb;
                        }
                        let buf = dev_read(&st.dev, a, dst_f);
                        if dst_f {
                            st.f[dof + l] = buf.get_f(flat);
                        } else {
                            st.i[dof + l] = buf.get_i(flat);
                        }
                    });
                    if ev && st.in_critical {
                        st.atomic += mask.count_ones() as u64;
                    }
                })
            }
            2 => {
                let ro0 = self.pool[po] as usize * w;
                let ro1 = self.pool[po + 1] as usize * w;
                Box::new(move |st, mask| {
                    let eb = st.ctx.elem_bytes[a] as u64;
                    let base = st.ctx.base[a];
                    let (e0, s0) = (st.ctx.extents[a][0], st.ctx.strides[a][0]);
                    let (e1, s1) = (st.ctx.extents[a][1], st.ctx.strides[a][1]);
                    if mask == full_mask(w) {
                        let iv = &st.i[ro0..ro0 + w];
                        let jv = &st.i[ro1..ro1 + w];
                        let mut ok = true;
                        let mut flats = [0usize; MAX_W];
                        for l in 0..w {
                            let (i, j) = (iv[l], jv[l]);
                            ok &= (i as u64) < e0 as u64 && (j as u64) < e1 as u64;
                            flats[l] = (i as usize).wrapping_mul(s0).wrapping_add((j as usize).wrapping_mul(s1));
                        }
                        if ok {
                            if ev {
                                for (r, &fl) in st.fast_rows[fo..fo + w].iter_mut().zip(&flats[..w]) {
                                    *r = base + fl as u64 * eb;
                                }
                            }
                            let buf = dev_read(&st.dev, a, dst_f);
                            if dst_f {
                                for (d, &fl) in st.f[dof..dof + w].iter_mut().zip(&flats[..w]) {
                                    *d = buf.get_f(fl);
                                }
                            } else {
                                for (d, &fl) in st.i[dof..dof + w].iter_mut().zip(&flats[..w]) {
                                    *d = buf.get_i(fl);
                                }
                            }
                            if ev && st.in_critical {
                                st.atomic += mask.count_ones() as u64;
                            }
                            return;
                        }
                    }
                    lanes!(w, mask, l, {
                        let i = st.i[ro0 + l];
                        let j = st.i[ro1 + l];
                        let oob = |i: i64, d: usize, e: usize| -> usize {
                            panic!(
                                "index {} out of bounds (dim {} extent {}) on array {}",
                                i,
                                d,
                                e,
                                st.ctx.prog.array_name(ArrayId(a as u32))
                            )
                        };
                        let flat = if i < 0 || i as usize >= e0 {
                            oob(i, 0, e0)
                        } else if j < 0 || j as usize >= e1 {
                            oob(j, 1, e1)
                        } else {
                            i as usize * s0 + j as usize * s1
                        };
                        if ev {
                            st.fast_rows[fo + l] = base + flat as u64 * eb;
                        }
                        let buf = dev_read(&st.dev, a, dst_f);
                        if dst_f {
                            st.f[dof + l] = buf.get_f(flat);
                        } else {
                            st.i[dof + l] = buf.get_i(flat);
                        }
                    });
                    if ev && st.in_critical {
                        st.atomic += mask.count_ones() as u64;
                    }
                })
            }
            _ => {
                let offs: Vec<usize> = (0..idx_len as usize).map(|k| self.pool[po + k] as usize * w).collect();
                Box::new(move |st, mask| {
                    let eb = st.ctx.elem_bytes[a] as u64;
                    let base = st.ctx.base[a];
                    lanes!(w, mask, l, {
                        let mut flat = 0usize;
                        for (d, &ro) in offs.iter().enumerate() {
                            let i = st.i[ro + l];
                            let ext = st.ctx.extents[a][d];
                            if i < 0 || i as usize >= ext {
                                panic!(
                                    "index {} out of bounds (dim {} extent {}) on array {}",
                                    i,
                                    d,
                                    ext,
                                    st.ctx.prog.array_name(ArrayId(a as u32))
                                );
                            }
                            flat += i as usize * st.ctx.strides[a][d];
                        }
                        if ev {
                            st.fast_rows[fo + l] = base + flat as u64 * eb;
                        }
                        let buf = dev_read(&st.dev, a, dst_f);
                        if dst_f {
                            st.f[dof + l] = buf.get_f(flat);
                        } else {
                            st.i[dof + l] = buf.get_i(flat);
                        }
                    });
                    if ev && st.in_critical {
                        st.atomic += mask.count_ones() as u64;
                    }
                })
            }
        }
    }

    /// Fast-path stores mirror [`Self::emit_load`]; lane order is ascending
    /// in both paths, so intra-warp write collisions resolve to the same
    /// last writer on either.
    #[allow(clippy::too_many_arguments)]
    fn emit_store(&self, src: u16, src_f: bool, arr: u16, site: u32, idx_off: u32, idx_len: u8, fast: i32) -> Thunk {
        let w = self.w;
        let ev = self.ev;
        let a = arr as usize;
        let so = src as usize * w;
        if fast < 0 {
            let offs: Vec<usize> =
                (0..idx_len as usize).map(|k| self.pool[idx_off as usize + k] as usize * w).collect();
            return Box::new(move |st, mask| {
                lanes!(w, mask, l, {
                    let flat = st.flat_index(a, &offs, l);
                    if ev {
                        st.account(a, flat, site, fast, l);
                    }
                    if st.ctx.priv_slot[a] >= 0 {
                        let slot = st.ctx.priv_slot[a] as usize;
                        let v_f = st.f[so + l];
                        let v_i = st.i[so + l];
                        let b = &mut st.priv_bufs[slot * w + l];
                        debug_assert_eq!(b.elem.is_float(), src_f);
                        if src_f {
                            b.set_f(flat, v_f);
                        } else {
                            b.set_i(flat, v_i);
                        }
                    } else {
                        let mut b = dev_write(&mut st.dev, a, src_f);
                        if src_f {
                            b.set_f(flat, st.f[so + l]);
                        } else {
                            b.set_i(flat, st.i[so + l]);
                        }
                    }
                });
            });
        }
        let fo = fast as usize * w;
        let po = idx_off as usize;
        match idx_len {
            1 => {
                let ro0 = self.pool[po] as usize * w;
                Box::new(move |st, mask| {
                    let eb = st.ctx.elem_bytes[a] as u64;
                    let base = st.ctx.base[a];
                    let (e0, s0) = (st.ctx.extents[a][0], st.ctx.strides[a][0]);
                    if mask == full_mask(w) {
                        let iv = &st.i[ro0..ro0 + w];
                        let mut ok = true;
                        let mut flats = [0usize; MAX_W];
                        for l in 0..w {
                            let i = iv[l];
                            ok &= (i as u64) < e0 as u64;
                            flats[l] = (i as usize).wrapping_mul(s0);
                        }
                        if ok {
                            if ev {
                                for (r, &fl) in st.fast_rows[fo..fo + w].iter_mut().zip(&flats[..w]) {
                                    *r = base + fl as u64 * eb;
                                }
                            }
                            let mut buf = dev_write(&mut st.dev, a, src_f);
                            if src_f {
                                for (&v, &fl) in st.f[so..so + w].iter().zip(&flats[..w]) {
                                    buf.set_f(fl, v);
                                }
                            } else {
                                for (&v, &fl) in st.i[so..so + w].iter().zip(&flats[..w]) {
                                    buf.set_i(fl, v);
                                }
                            }
                            if ev && st.in_critical {
                                st.atomic += mask.count_ones() as u64;
                            }
                            return;
                        }
                    }
                    lanes!(w, mask, l, {
                        let i = st.i[ro0 + l];
                        if i < 0 || i as usize >= e0 {
                            panic!(
                                "index {} out of bounds (dim 0 extent {}) on array {}",
                                i,
                                e0,
                                st.ctx.prog.array_name(ArrayId(a as u32))
                            );
                        }
                        let flat = i as usize * s0;
                        if ev {
                            st.fast_rows[fo + l] = base + flat as u64 * eb;
                        }
                        let mut buf = dev_write(&mut st.dev, a, src_f);
                        if src_f {
                            buf.set_f(flat, st.f[so + l]);
                        } else {
                            buf.set_i(flat, st.i[so + l]);
                        }
                    });
                    if ev && st.in_critical {
                        st.atomic += mask.count_ones() as u64;
                    }
                })
            }
            2 => {
                let ro0 = self.pool[po] as usize * w;
                let ro1 = self.pool[po + 1] as usize * w;
                Box::new(move |st, mask| {
                    let eb = st.ctx.elem_bytes[a] as u64;
                    let base = st.ctx.base[a];
                    let (e0, s0) = (st.ctx.extents[a][0], st.ctx.strides[a][0]);
                    let (e1, s1) = (st.ctx.extents[a][1], st.ctx.strides[a][1]);
                    if mask == full_mask(w) {
                        let iv = &st.i[ro0..ro0 + w];
                        let jv = &st.i[ro1..ro1 + w];
                        let mut ok = true;
                        let mut flats = [0usize; MAX_W];
                        for l in 0..w {
                            let (i, j) = (iv[l], jv[l]);
                            ok &= (i as u64) < e0 as u64 && (j as u64) < e1 as u64;
                            flats[l] = (i as usize).wrapping_mul(s0).wrapping_add((j as usize).wrapping_mul(s1));
                        }
                        if ok {
                            if ev {
                                for (r, &fl) in st.fast_rows[fo..fo + w].iter_mut().zip(&flats[..w]) {
                                    *r = base + fl as u64 * eb;
                                }
                            }
                            let mut buf = dev_write(&mut st.dev, a, src_f);
                            if src_f {
                                for (&v, &fl) in st.f[so..so + w].iter().zip(&flats[..w]) {
                                    buf.set_f(fl, v);
                                }
                            } else {
                                for (&v, &fl) in st.i[so..so + w].iter().zip(&flats[..w]) {
                                    buf.set_i(fl, v);
                                }
                            }
                            if ev && st.in_critical {
                                st.atomic += mask.count_ones() as u64;
                            }
                            return;
                        }
                    }
                    lanes!(w, mask, l, {
                        let i = st.i[ro0 + l];
                        let j = st.i[ro1 + l];
                        let oob = |i: i64, d: usize, e: usize| -> usize {
                            panic!(
                                "index {} out of bounds (dim {} extent {}) on array {}",
                                i,
                                d,
                                e,
                                st.ctx.prog.array_name(ArrayId(a as u32))
                            )
                        };
                        let flat = if i < 0 || i as usize >= e0 {
                            oob(i, 0, e0)
                        } else if j < 0 || j as usize >= e1 {
                            oob(j, 1, e1)
                        } else {
                            i as usize * s0 + j as usize * s1
                        };
                        if ev {
                            st.fast_rows[fo + l] = base + flat as u64 * eb;
                        }
                        let mut buf = dev_write(&mut st.dev, a, src_f);
                        if src_f {
                            buf.set_f(flat, st.f[so + l]);
                        } else {
                            buf.set_i(flat, st.i[so + l]);
                        }
                    });
                    if ev && st.in_critical {
                        st.atomic += mask.count_ones() as u64;
                    }
                })
            }
            _ => {
                let offs: Vec<usize> = (0..idx_len as usize).map(|k| self.pool[po + k] as usize * w).collect();
                Box::new(move |st, mask| {
                    let eb = st.ctx.elem_bytes[a] as u64;
                    let base = st.ctx.base[a];
                    lanes!(w, mask, l, {
                        let mut flat = 0usize;
                        for (d, &ro) in offs.iter().enumerate() {
                            let i = st.i[ro + l];
                            let ext = st.ctx.extents[a][d];
                            if i < 0 || i as usize >= ext {
                                panic!(
                                    "index {} out of bounds (dim {} extent {}) on array {}",
                                    i,
                                    d,
                                    ext,
                                    st.ctx.prog.array_name(ArrayId(a as u32))
                                );
                            }
                            flat += i as usize * st.ctx.strides[a][d];
                        }
                        if ev {
                            st.fast_rows[fo + l] = base + flat as u64 * eb;
                        }
                        let mut buf = dev_write(&mut st.dev, a, src_f);
                        if src_f {
                            buf.set_f(flat, st.f[so + l]);
                        } else {
                            buf.set_i(flat, st.i[so + l]);
                        }
                    });
                    if ev && st.in_critical {
                        st.atomic += mask.count_ones() as u64;
                    }
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_and_read_scans_cover_headers_and_pool() {
        let pool = vec![7u16, 9u16];
        let body = vec![
            TOp::ConstI { dst: 4, v: 1 },
            TOp::Load { dst: 5, dst_f: false, arr: 0, site: 0, idx_off: 0, idx_len: 2, fast: -1 },
            TOp::If { cond: 6, site: 1, then_len: 1, else_len: 0 },
            TOp::ArithI { dst: 8, op: BinOp::Add, a: 4, b: 5 },
        ];
        assert!(writes_any(&body, [4, 100, 101]));
        assert!(writes_any(&body, [8, 100, 101]), "nested block writes must be seen (flat scan)");
        assert!(!writes_any(&body, [7, 9, 6]), "reads are not writes");
        assert!(reads_reg(&body, &pool, 9), "pool-indirect index registers are reads");
        assert!(reads_reg(&body, &pool, 6), "branch conditions are reads");
        assert!(!reads_reg(&body, &pool, 8));
    }
}
