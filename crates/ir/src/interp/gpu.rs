//! The GPU executor: runs a [`KernelPlan`] functionally while collecting
//! per-warp address traces that the simulator prices.
//!
//! Correctness: under [`Engine::Tree`] every thread executes the kernel body
//! through the same evaluator as the CPU oracle, against device buffers;
//! under the default engine whole warps run the plan's native closures
//! ([`crate::interp::native`]), which reproduce that evaluator bit for bit.
//! Reductions are combined deterministically in (block, lane) order.
//! Timing: per-warp traces are reduced to coalescing transactions,
//! shared-memory slots, texture-cache misses, constant serialization and
//! divergence penalties, then fed to [`acceval_sim::estimate_kernel`].

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use acceval_sim::{
    estimate_kernel, warp_issue_cycles, AccessSummary, BufGen, Buffer, Cache, DeviceConfig, Digest128, ElemType,
    KernelCost, KernelFootprint, KernelTotals, NullSink, Payload, SharedSummary, SimError, SiteWarpTrace, TraceEvent,
    TraceSink,
};

use crate::expr::{Expr, Intrin};
use crate::interp::bytecode::{self, intrin_cost, WarpScratch};
use crate::interp::launch_cache::{self, ArrayOut, DevTarget, DeviceBufs, Journal, LaunchEffect, LaunchKey};
use crate::interp::native;
use crate::interp::{eval_pure, row_major_strides, Interp, Machine};
use crate::kernel::{Expansion, KernelPlan, MemSpace, ReduceStrategy};
use crate::metrics::{self, Counter};
use crate::program::{eval_const, Program};
use crate::stmt::{visit_exprs, visit_stmts, Stmt};
use crate::types::{ArrayId, ReduceOp, ScalarId, SiteId, Value, VarRef};

/// Which executor runs kernel bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The reference tree-walking interpreter: one simulated thread at a
    /// time through [`Interp`]. Always available.
    Tree,
    /// The default: the plan's compiled native closures
    /// ([`crate::interp::native`]), built from its typed bytecode
    /// ([`crate::interp::bytecode`]), executing whole warps in lockstep. A
    /// launch without closures (a plan the compiler found ineligible, or a
    /// warp width other than the one the closures were built for) runs on
    /// the tree walker. All scores and statistics are bit-identical to
    /// [`Engine::Tree`].
    Bytecode,
}

/// Process-wide override: 0 = unset (use env), 1 = tree, 2 = bytecode.
static ENGINE_OVERRIDE: AtomicU8 = AtomicU8::new(0);
static ENGINE_FROM_ENV: OnceLock<Engine> = OnceLock::new();

/// The engine for kernel execution: an override installed by
/// [`set_engine_override`] wins, else the `ACCEVAL_ENGINE` environment
/// variable (`tree` | `bytecode`), else [`Engine::Bytecode`].
pub fn engine() -> Engine {
    match ENGINE_OVERRIDE.load(Ordering::Relaxed) {
        1 => return Engine::Tree,
        2 => return Engine::Bytecode,
        _ => {}
    }
    *ENGINE_FROM_ENV.get_or_init(|| match std::env::var("ACCEVAL_ENGINE") {
        // Fail soft to the default engine on a malformed value: both engines
        // are bit-identical by contract, so the worst outcome of a typo is
        // the default's performance profile. Front-end binaries catch the
        // typo up front via `crate::env::validate_env`.
        Ok(s) if crate::env::parse_engine_name(&s) == Ok("tree") => Engine::Tree,
        _ => Engine::Bytecode,
    })
}

/// Force an engine for this process (tests/benches), overriding the
/// environment. `None` returns control to `ACCEVAL_ENGINE`.
pub fn set_engine_override(e: Option<Engine>) {
    let v = match e {
        None => 0,
        Some(Engine::Tree) => 1,
        Some(Engine::Bytecode) => 2,
    };
    ENGINE_OVERRIDE.store(v, Ordering::Relaxed);
}

/// Short name of the active engine, for reports and manifests.
pub fn engine_name() -> &'static str {
    match engine() {
        Engine::Tree => "tree",
        Engine::Bytecode => "bytecode",
    }
}

/// Retired intra-launch block-parallelism policy, kept only so callers
/// written against it still compile: every launch now takes the one serial
/// block walk, so [`launch_par`] always answers [`LaunchPar::Off`] and
/// [`set_launch_par_hint`] does nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchPar {
    Auto,
    On,
    Off,
}

/// Always [`LaunchPar::Off`]; see [`LaunchPar`].
pub fn launch_par() -> LaunchPar {
    LaunchPar::Off
}

/// No-op; see [`LaunchPar`].
pub fn set_launch_par_hint(_hint: Option<bool>) {}

/// Device memory image: one optional buffer per program array, plus the
/// simulated texture cache.
///
/// Every buffer carries a monotonic generation tag ([`BufGen`]) bumped on
/// each mutation; the launch cache memoizes content digests per
/// (buffer, generation), so probes over unchanged buffers hash nothing.
/// All mutation goes through the methods here or through [`launch`]; code
/// that writes `bufs` directly must bump the matching tag itself.
pub struct DeviceState {
    pub bufs: Vec<Option<Buffer>>,
    pub tex_cache: Cache,
    /// Generation tags, parallel to `bufs`.
    pub tags: Vec<BufGen>,
}

impl DeviceState {
    /// Fresh device with nothing allocated.
    pub fn new(prog: &Program, cfg: &DeviceConfig) -> Self {
        DeviceState {
            bufs: vec![None; prog.arrays.len()],
            tex_cache: Cache::new(cfg.tex_cache_bytes * cfg.num_sms, 8, cfg.tex_line_bytes),
            tags: vec![BufGen::new(); prog.arrays.len()],
        }
    }

    /// Upload a host buffer (allocate + copy contents). Reuses an existing
    /// same-shape allocation in place instead of cloning a fresh buffer, and
    /// skips the copy entirely when the device copy's memoized content
    /// digest already matches the incoming host contents (the content-level
    /// extension of the redundant-copy skip; the transfer is still charged
    /// by the caller — this is purely a host-side memory optimization).
    pub fn upload(&mut self, id: ArrayId, host: &Buffer) {
        let i = id.0 as usize;
        match &mut self.bufs[i] {
            Some(b) if b.elem == host.elem && b.len() == host.len() => {
                if let Some(d) = self.tags[i].memoized() {
                    let hd = metrics::timed(Counter::LaunchCacheDigestNs, || host.content_digest());
                    if hd == d {
                        return;
                    }
                    b.copy_from(host);
                    self.tags[i].bump();
                    self.tags[i].prime(hd);
                } else {
                    b.copy_from(host);
                    self.tags[i].bump();
                }
            }
            slot => {
                *slot = Some(host.clone());
                self.tags[i].bump();
            }
        }
    }

    /// Allocate zeroed device storage without a transfer. Skips the clear
    /// when the device copy's memoized digest proves it already holds zeros
    /// of the right shape.
    pub fn alloc(&mut self, id: ArrayId, host: &Buffer) {
        let i = id.0 as usize;
        match &mut self.bufs[i] {
            Some(b) if b.elem == host.elem && b.len() == host.len() => {
                if self.tags[i].memoized().is_some() {
                    let zd = metrics::timed(Counter::LaunchCacheDigestNs, || {
                        acceval_sim::zero_digest(host.elem, host.len())
                    });
                    if self.tags[i].memoized() == Some(zd) {
                        return;
                    }
                    *b = Buffer::zeroed(host.elem, host.len());
                    self.tags[i].bump();
                    self.tags[i].prime(zd);
                } else {
                    *b = Buffer::zeroed(host.elem, host.len());
                    self.tags[i].bump();
                }
            }
            slot => {
                *slot = Some(Buffer::zeroed(host.elem, host.len()));
                self.tags[i].bump();
            }
        }
    }

    /// Download device contents into a host buffer, copying in place when
    /// the host allocation already has the right shape.
    ///
    /// Downloading an array that was never allocated on the device is a
    /// runtime protocol error (a real driver returns a status code), so it
    /// is reported as [`SimError::DownloadUnallocated`] rather than a panic;
    /// the caller owns mapping the array index to a source-level name.
    pub fn download(&self, id: ArrayId, host: &mut Buffer) -> Result<(), SimError> {
        let src = self.bufs[id.0 as usize]
            .as_ref()
            .ok_or_else(|| SimError::DownloadUnallocated { array: id.0.to_string() })?;
        if host.elem == src.elem && host.len() == src.len() {
            host.copy_from(src);
        } else {
            *host = src.clone();
        }
        Ok(())
    }

    /// Whether the array is allocated on the device.
    pub fn is_allocated(&self, id: ArrayId) -> bool {
        self.bufs[id.0 as usize].is_some()
    }
}

/// What a site refers to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SiteKind {
    Mem(ArrayId),
    Branch,
    Unused,
}

fn classify_sites(plan: &KernelPlan) -> Vec<SiteKind> {
    let mut kinds = vec![SiteKind::Unused; plan.site_count as usize];
    visit_stmts(&plan.body, &mut |s| match s {
        Stmt::Store { array, site, .. } => kinds[site.0 as usize] = SiteKind::Mem(*array),
        Stmt::If { site, .. } => kinds[site.0 as usize] = SiteKind::Branch,
        _ => {}
    });
    visit_exprs(&plan.body, &mut |e| {
        if let Expr::Load { array, site, .. } = e {
            kinds[site.0 as usize] = SiteKind::Mem(*array);
        }
    });
    kinds
}

/// Everything a launch derives before it runs, resolved once from the plan,
/// the device's allocation state and the host scalars at launch. Every stage
/// of the launch path reads it: the probe, either engine, pricing, `finish`
/// and the emitted events.
struct LaunchLayout<'a> {
    prog: &'a Program,
    plan: &'a KernelPlan,
    cfg: &'a DeviceConfig,
    site_kinds: Vec<SiteKind>,
    /// Grid: `n0 × n1` threads in blocks of `bx × by`, `gx` blocks per grid
    /// row, `warps_per_block` warps of `warp` lanes per block.
    n0: u64,
    n1: u64,
    bx: u64,
    by: u64,
    gx: u64,
    tpb: u32,
    total_blocks: u64,
    total_threads: u64,
    warp: u32,
    warps_per_block: u64,
    /// Byte base address per array in the simulated device address space.
    base: Vec<u64>,
    elem_bytes: Vec<u32>,
    /// The host scalars at launch. Extents, strides and private shapes are
    /// evaluated against them, exactly what `Interp::with_env` computes per
    /// warp on the tree path.
    base_env: Vec<Value>,
    extents: Vec<Vec<usize>>,
    strides: Vec<Vec<usize>>,
    /// Each private array's length, and the reduction it accumulates if any.
    priv_shapes: Vec<(ArrayId, usize, Option<ReduceOp>)>,
    /// Scalar reductions: (scalar slot, operator).
    red_scalar: Vec<(usize, ReduceOp)>,
    /// Each scalar reduction's identity, typed like its target: every
    /// thread's accumulator starts from it, and so does the launch's fold.
    red_init: Vec<Value>,
    /// Array reductions: (target, operator, length of its private copy).
    red_arrays: Vec<(ArrayId, ReduceOp, usize)>,
    arrays: BodyArrays,
    /// The body reads a `Texture`-placed array.
    has_tex: bool,
    partials_in_shared: bool,
    atomic_serial: bool,
}

impl<'a> LaunchLayout<'a> {
    fn resolve(
        prog: &'a Program,
        plan: &'a KernelPlan,
        cfg: &'a DeviceConfig,
        dev: &DeviceState,
        scal: &[Value],
    ) -> LaunchLayout<'a> {
        assert!(
            plan.site_count > 0 || plan.body.iter().all(|s| !matches!(s, Stmt::Store { .. })),
            "plan must be finalized"
        );
        let site_kinds = classify_sites(plan);
        let n0 = eval_pure(&plan.axes[0].count, scal).as_i().max(0) as u64;
        let n1 = if plan.axes.len() > 1 { eval_pure(&plan.axes[1].count, scal).as_i().max(0) as u64 } else { 1 };
        let (bx, by) = (plan.block.0 as u64, plan.block.1 as u64);
        let gx = n0.div_ceil(bx).max(1);
        let total_blocks = gx * n1.div_ceil(by).max(1);
        let tpb = (bx * by) as u32;

        // Each allocated array is padded to 512 bytes, with a 512-byte gap.
        let mut base = Vec::with_capacity(prog.arrays.len());
        let mut cur = 0u64;
        for b in &dev.bufs {
            base.push(cur);
            if let Some(b) = b {
                cur += (b.size_bytes() + 511) & !511;
                cur += 512;
            }
        }

        let extents: Vec<Vec<usize>> =
            prog.arrays.iter().map(|a| a.dims.iter().map(|d| eval_const(d, scal)).collect()).collect();
        let red_op = |a: ArrayId| plan.reductions.iter().find(|r| r.target == VarRef::Array(a)).map(|r| r.op);
        let priv_shapes: Vec<(ArrayId, usize, Option<ReduceOp>)> = plan
            .private_arrays
            .iter()
            .map(|p| (p.array, extents[p.array.0 as usize].iter().product(), red_op(p.array)))
            .collect();
        let (mut red_scalar, mut red_init, mut red_arrays) = (Vec::new(), Vec::new(), Vec::new());
        for r in &plan.reductions {
            match r.target {
                VarRef::Scalar(s) => {
                    red_scalar.push((s.0 as usize, r.op));
                    let isf = prog.scalars[s.0 as usize].is_float;
                    red_init.push(if isf { Value::F(r.op.identity_f()) } else { Value::I(r.op.identity_i()) });
                }
                VarRef::Array(a) => {
                    let len = priv_shapes.iter().find(|p| p.0 == a).map(|p| p.1);
                    red_arrays.push((a, r.op, len.expect("array reduction target must be a private array")));
                }
            }
        }
        let has_tex = site_kinds.iter().any(|k| {
            matches!(k, SiteKind::Mem(a)
                if plan.expansion_of(*a).is_none() && matches!(plan.space_of(*a), MemSpace::Texture))
        });
        LaunchLayout {
            prog,
            plan,
            cfg,
            n0,
            n1,
            bx,
            by,
            gx,
            tpb,
            total_blocks,
            total_threads: total_blocks * tpb as u64,
            warp: cfg.warp_size,
            warps_per_block: (tpb as u64).div_ceil(cfg.warp_size as u64),
            base,
            elem_bytes: prog.arrays.iter().map(|a| a.elem.size_bytes()).collect(),
            base_env: scal.to_vec(),
            strides: extents.iter().map(|e| row_major_strides(e)).collect(),
            extents,
            arrays: body_arrays(plan, &red_arrays),
            site_kinds,
            priv_shapes,
            red_scalar,
            red_init,
            red_arrays,
            has_tex,
            partials_in_shared: matches!(
                plan.reduce_strategy,
                ReduceStrategy::TwoLevelTree { partials_in_shared: true }
            ),
            atomic_serial: matches!(plan.reduce_strategy, ReduceStrategy::AtomicSerial),
        }
    }

    /// The memory space accesses to `arr` are priced in: a private array's
    /// expansion lives in global memory, except reduction partials staged in
    /// shared memory.
    fn access_space(&self, arr: ArrayId) -> MemSpace {
        if self.plan.expansion_of(arr).is_none() {
            self.plan.space_of(arr)
        } else if self.partials_in_shared && self.red_arrays.iter().any(|r| r.0 == arr) {
            MemSpace::SharedTiled { reuse: 1.0 }
        } else {
            MemSpace::Global
        }
    }
}

/// Per-warp machine: executes one lane at a time, recording traces.
struct WarpMachine<'a> {
    /// The launch's device buffers, stored to through its journal.
    mem: DeviceBufs<'a>,
    tex_cache: &'a mut Cache,
    lay: &'a LaunchLayout<'a>,
    traces: Vec<SiteWarpTrace>,
    lane: u32,
    lane_ops: Vec<u64>,
    in_critical: bool,
    atomic_accesses: u64,
    /// Current lane's private array storage.
    priv_bufs: HashMap<ArrayId, Buffer>,
    tid_linear: u64,
}

impl<'a> WarpMachine<'a> {
    fn trace(&mut self, site: SiteId, addr: u64) {
        self.traces[site.0 as usize].record(self.lane, addr);
    }

    fn account(&mut self, array: ArrayId, flat: usize, site: SiteId) {
        let eb = self.lay.elem_bytes[array.0 as usize] as u64;
        // Private arrays are priced by their expansion layout.
        if let Some(exp) = self.lay.plan.expansion_of(array) {
            let len = || self.priv_bufs[&array].len();
            if let Some(addr) = priv_addr(exp, flat, eb, self.tid_linear, self.lay.total_threads, len) {
                self.trace(site, addr);
            }
            return;
        }
        self.trace(site, self.lay.base[array.0 as usize] + flat as u64 * eb);
        if self.in_critical {
            self.atomic_accesses += 1;
        }
    }
}

/// Base address for the expanded private-array segment (kept clear of real
/// arrays so traces never alias).
const PRIV_BASE: u64 = 1 << 40;

/// The trace address of element `flat` (of `eb` bytes) of thread `tid`'s
/// copy of a private array expanded by `exp`, out of `total_threads`
/// copies: row-wise copies sit one after another (`len` elements each),
/// column-wise ones interleave element by element. `None` for a
/// register-resident copy, which is no memory access. `len` is asked for
/// only by a row-wise copy. Both engines trace through this, so their
/// private-array traffic agrees bit for bit.
pub(crate) fn priv_addr(
    exp: Expansion,
    flat: usize,
    eb: u64,
    tid: u64,
    total_threads: u64,
    len: impl FnOnce() -> usize,
) -> Option<u64> {
    match exp {
        Expansion::Register => None,
        Expansion::RowWise => Some(PRIV_BASE + (tid * len() as u64 + flat as u64) * eb),
        Expansion::ColumnWise => Some(PRIV_BASE + (flat as u64 * total_threads + tid) * eb),
    }
}

impl Machine for WarpMachine<'_> {
    fn load(&mut self, array: ArrayId, flat: usize, site: SiteId) -> Value {
        self.account(array, flat, site);
        if self.lay.plan.expansion_of(array).is_some() {
            elem_value(&self.priv_bufs[&array], flat)
        } else {
            elem_value(self.mem.read(array.0 as usize), flat)
        }
    }

    fn store(&mut self, array: ArrayId, flat: usize, v: Value, site: SiteId) {
        self.account(array, flat, site);
        if self.lay.plan.expansion_of(array).is_some() {
            let b = self.priv_bufs.get_mut(&array).expect("private buffer");
            if b.elem.is_float() {
                b.set_f(flat, v.as_f());
            } else {
                b.set_i(flat, v.as_i());
            }
        } else {
            let mut t = self.mem.write(array.0 as usize);
            if t.buf().elem.is_float() {
                t.set_f(flat, v.as_f());
            } else {
                t.set_i(flat, v.as_i());
            }
        }
    }

    fn ops(&mut self, n: u64) {
        self.lane_ops[self.lane as usize] += n;
    }

    fn intrin(&mut self, f: Intrin) {
        // GPUs have SFUs: transcendental ops are cheap relative to CPUs.
        // (Cost table shared with the bytecode compiler.)
        self.lane_ops[self.lane as usize] += intrin_cost(f);
    }

    fn branch(&mut self, site: SiteId, taken: bool) {
        self.traces[site.0 as usize].record(self.lane, taken as u64);
    }

    fn barrier(&mut self) {
        self.lane_ops[self.lane as usize] += 4;
    }

    fn critical(&mut self, entering: bool) {
        self.in_critical = entering;
    }
}

/// Element `i` of `b`, tagged by its element type.
fn elem_value(b: &Buffer, i: usize) -> Value {
    if b.elem.is_float() {
        Value::F(b.get_f(i))
    } else {
        Value::I(b.get_i(i))
    }
}

/// Set every element of `b` to `op`'s identity, or to zero without a
/// reduction: how each private array starts on every thread, and each
/// array-reduction accumulator on every launch.
fn fill_identity(b: &mut Buffer, op: Option<ReduceOp>) {
    match &mut b.data {
        Payload::F(v) => v.fill(op.map_or(0.0, ReduceOp::identity_f)),
        Payload::I(v) => v.fill(op.map_or(0, ReduceOp::identity_i)),
    }
}

/// `dst[i] = op(dst[i], src[i])` for every element, in index order: the one
/// array-reduction fold, from each lane's private copy into the launch's
/// accumulator, and from the accumulator into the device copy.
fn fold_array(op: ReduceOp, mut dst: DevTarget<'_>, src: &Buffer) {
    let dst_f = dst.buf().elem.is_float();
    for i in 0..src.len() {
        let c = op.combine(elem_value(dst.buf(), i), elem_value(src, i));
        if dst_f {
            dst.set_f(i, c.as_f());
        } else {
            dst.set_i(i, c.as_i());
        }
    }
}

/// Result of one simulated kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchResult {
    pub cost: KernelCost,
    pub totals: KernelTotals,
    pub footprint: KernelFootprint,
    /// Threads that actually executed.
    pub active_threads: u64,
}

/// Execute a kernel plan on the device.
///
/// `scal` is the host scalar environment at launch; axis bounds are
/// evaluated against it and scalar reduction results are written back into
/// it. Device buffers are read/written in place.
pub fn launch(
    prog: &Program,
    plan: &KernelPlan,
    dev: &mut DeviceState,
    scal: &mut [Value],
    cfg: &DeviceConfig,
) -> LaunchResult {
    launch_traced(prog, plan, dev, scal, cfg, &mut NullSink)
}

/// [`launch`] with an explicit engine choice, bypassing the process-wide
/// selection — lets equivalence tests and benches compare engines without
/// touching global state.
pub fn launch_with_engine(
    prog: &Program,
    plan: &KernelPlan,
    dev: &mut DeviceState,
    scal: &mut [Value],
    cfg: &DeviceConfig,
    eng: Engine,
) -> LaunchResult {
    launch_impl(prog, plan, dev, scal, cfg, &mut NullSink, eng)
}

/// [`launch_traced`] with an explicit engine choice.
pub fn launch_traced_with_engine(
    prog: &Program,
    plan: &KernelPlan,
    dev: &mut DeviceState,
    scal: &mut [Value],
    cfg: &DeviceConfig,
    sink: &mut dyn TraceSink,
    eng: Engine,
) -> LaunchResult {
    launch_impl(prog, plan, dev, scal, cfg, sink, eng)
}

/// [`launch`], emitting structured trace events into `sink`: one
/// [`TraceEvent::CoalesceSite`] per active memory site (in site order, so
/// traces are deterministic), texture-cache counters when the kernel used
/// texture memory, and a final [`TraceEvent::KernelLaunch`] with the full
/// cost attribution. The events are rendered from the launch's result and
/// per-site evidence after a missed launch's effect is captured, and from
/// the captured evidence on a hit. With a disabled sink this is exactly
/// [`launch`]: the same cache entries, and no event is constructed.
pub fn launch_traced(
    prog: &Program,
    plan: &KernelPlan,
    dev: &mut DeviceState,
    scal: &mut [Value],
    cfg: &DeviceConfig,
    sink: &mut dyn TraceSink,
) -> LaunchResult {
    launch_impl(prog, plan, dev, scal, cfg, sink, engine())
}

/// One launch, in stages: resolve its layout, probe the launch cache (a hit
/// replays and returns), execute on the chosen engine, finish (reductions,
/// pricing, generation tags), capture a miss, then emit its events.
fn launch_impl(
    prog: &Program,
    plan: &KernelPlan,
    dev: &mut DeviceState,
    scal: &mut [Value],
    cfg: &DeviceConfig,
    sink: &mut dyn TraceSink,
    eng: Engine,
) -> LaunchResult {
    let lay = LaunchLayout::resolve(prog, plan, cfg, dev, scal);
    let mut capture = match probe(&lay, dev, scal, sink) {
        ControlFlow::Break(hit) => return hit,
        ControlFlow::Continue(capture) => capture,
    };
    let ex = execute(&lay, dev, capture.as_mut().map(|c| &mut c.journal), eng);
    let (result, sites) = finish(&lay, &ex, dev, scal, capture.as_mut().map(|c| &mut c.journal));
    if let Some(capture) = capture {
        capture.insert(&lay, dev, scal, &result, &sites);
    }
    // Events go out after the capture, so a sink that times launches by
    // their events counts capture in the launch. Texture launches are never
    // captured, so only an executed launch reports texture counters.
    emit_launch(sink, &lay, &result, &sites, ex.tex_used.then_some(&dev.tex_cache));
    result
}

/// The probe stage. A launch's effects are a pure function of (plan,
/// geometry, config, scalars, readable array contents), so it probes the
/// content-addressed cache, memory first, then disk. A hit is counted,
/// replayed and emitted, and its result breaks out of the launch. A miss is
/// counted and continues with the `Capture` it must fill. A launch the key
/// cannot cover continues with none: with the cache off, an opaque body
/// (calls into program functions have an unbounded effect set), or a
/// texture read (it mutates the cross-launch texture cache). The engine is
/// not part of the key: both engines produce bit-identical effects, so a
/// replay is valid whichever engine captured it.
fn probe(
    lay: &LaunchLayout,
    dev: &mut DeviceState,
    scal: &mut [Value],
    sink: &mut dyn TraceSink,
) -> ControlFlow<LaunchResult, Option<Capture>> {
    if !launch_cache::launch_cache_enabled() || lay.arrays.opaque || lay.has_tex {
        return ControlFlow::Continue(None);
    }
    let key = build_launch_key(lay, dev);
    if let Some((effect, tier)) = launch_cache::probe_two_tier(&key) {
        let counter = match tier {
            launch_cache::ProbeTier::Memory => Counter::LaunchCacheHits,
            launch_cache::ProbeTier::Disk => Counter::LaunchCacheDiskHits,
        };
        metrics::add(counter, 1);
        replay_effect(&effect, dev, scal);
        emit_launch(sink, lay, &effect.result, &effect.sites, None);
        return ControlFlow::Break(effect.result.clone());
    }
    metrics::add(Counter::LaunchCacheMisses, 1);
    // The launch journals the first write to each element of its write
    // set; capture reads its delta off the journal.
    let mut journal = Journal::take();
    journal.open(&lay.arrays.writes, dev);
    ControlFlow::Continue(Some(Capture { key, journal }))
}

/// A missed launch's cache key, and the first-write journal its execution
/// fills.
struct Capture {
    key: LaunchKey,
    journal: Journal,
}

impl Capture {
    /// Capture the finished launch's complete effect under its key: output
    /// deltas and digests (which also prime the freshly bumped generation
    /// memos), scalar writebacks, the result, and the per-site evidence.
    fn insert(
        self,
        lay: &LaunchLayout,
        dev: &mut DeviceState,
        scal: &[Value],
        result: &LaunchResult,
        sites: &[SiteEvidence],
    ) {
        let Capture { key, mut journal } = self;
        let outputs = metrics::timed(Counter::LaunchCacheDigestNs, || journal.capture(&lay.arrays.writes, &dev.bufs));
        journal.recycle();
        for &(i, _, d) in &outputs {
            dev.tags[i as usize].prime(d);
        }
        let scalar_writes = lay.red_scalar.iter().map(|&(slot, _)| (slot, scal[slot])).collect();
        launch_cache::insert(
            key,
            LaunchEffect { outputs, scalar_writes, result: result.clone(), sites: sites.to_vec() },
        );
    }
}

/// What executing a launch produced, on either engine.
struct Executed {
    tally: Tally,
    /// Scalar-reduction accumulators, in reduction order.
    scal_acc: Vec<Value>,
    /// Array-reduction accumulators, in reduction order.
    arr_acc: Vec<Buffer>,
    /// Threads that executed, counted over every block whether its pricing
    /// was computed or merged.
    active_threads: u64,
    /// The launch touched the texture cache.
    tex_used: bool,
}

impl Executed {
    /// Nothing executed yet: every reduction accumulator at its identity.
    fn new(lay: &LaunchLayout) -> Executed {
        let arr_acc = lay.red_arrays.iter().map(|&(a, op, len)| {
            let mut b = Buffer::zeroed(lay.prog.array_elem(a), len);
            fill_identity(&mut b, Some(op));
            b
        });
        Executed {
            tally: Tally::new(lay.plan.site_count as usize),
            scal_acc: lay.red_init.clone(),
            arr_acc: arr_acc.collect(),
            active_threads: 0,
            tex_used: false,
        }
    }

    /// Fold one lane's reduction values into the accumulators in reduction
    /// order: `scalar(k)` is its `k`-th scalar reduction's value, and
    /// `private(a)` its private copy of array `a`. Returns the atomic slots
    /// an `AtomicSerial` launch charges for them. Both engines fold lanes in
    /// ascending (block, warp, lane) order, so their combine sequences match.
    fn fold_lane<'b>(
        &mut self,
        lay: &LaunchLayout,
        scalar: impl Fn(usize) -> Value,
        private: impl Fn(ArrayId) -> &'b Buffer,
    ) -> u64 {
        for (k, &(_, op)) in lay.red_scalar.iter().enumerate() {
            self.scal_acc[k] = op.combine(self.scal_acc[k], scalar(k));
        }
        let mut atomic = lay.red_scalar.len() as u64;
        for (acc, &(a, op, len)) in self.arr_acc.iter_mut().zip(&lay.red_arrays) {
            fold_array(op, DevTarget::plain(acc), private(a));
            atomic += len as u64;
        }
        if lay.atomic_serial {
            atomic
        } else {
            0
        }
    }
}

/// The execute stage: the default engine runs the plan's native closures,
/// built here on the first launch that executes (never on a replay);
/// `Engine::Tree` and launches without closures run on the tree walker.
fn execute(lay: &LaunchLayout, dev: &mut DeviceState, journal: Option<&mut Journal>, eng: Engine) -> Executed {
    let native_k = match eng {
        Engine::Bytecode => {
            let nk = lay.plan.engine_cache.get_or_native(lay.prog, lay.plan, lay.warp as usize);
            let counter = if nk.is_some() { Counter::EngineNativeLaunches } else { Counter::EngineTreeFallbacks };
            metrics::add(counter, 1);
            nk
        }
        Engine::Tree => None,
    };
    let tex0 = (dev.tex_cache.hits, dev.tex_cache.misses);
    let mut ex = match &native_k {
        Some(nk) => run_native(lay, nk, dev, journal),
        None => run_tree(lay, dev, journal),
    };
    ex.tex_used = (dev.tex_cache.hits, dev.tex_cache.misses) != tex0;
    ex
}

/// The reference engine: one `Interp` per warp, one pass per lane, each
/// lane's axis values evaluated in its own environment.
fn run_tree(lay: &LaunchLayout, dev: &mut DeviceState, mut journal: Option<&mut Journal>) -> Executed {
    let (prog, plan) = (lay.prog, lay.plan);
    let mut ex = Executed::new(lay);
    for blk in 0..lay.total_blocks {
        let (bxi, byi) = (blk % lay.gx, blk / lay.gx);
        for w in 0..lay.warps_per_block {
            let wm = WarpMachine {
                mem: DeviceBufs { bufs: &mut dev.bufs, journal: journal.as_deref_mut() },
                tex_cache: &mut dev.tex_cache,
                lay,
                traces: (0..plan.site_count).map(|_| SiteWarpTrace::new(lay.warp)).collect(),
                lane: 0,
                lane_ops: vec![0; lay.warp as usize],
                in_critical: false,
                atomic_accesses: 0,
                priv_bufs: HashMap::new(),
                tid_linear: 0,
            };
            let mut it = Interp::with_env(prog, wm, lay.base_env.clone());
            let mut any_active = false;
            for lane in 0..lay.warp as u64 {
                let t = w * lay.warp as u64 + lane;
                if t >= lay.tpb as u64 {
                    break;
                }
                let (ix, iy) = (bxi * lay.bx + t % lay.bx, byi * lay.by + t / lay.bx);
                if ix >= lay.n0 || iy >= lay.n1 {
                    continue;
                }
                any_active = true;
                ex.active_threads += 1;
                it.m.lane = lane as u32;
                it.m.tid_linear = blk * lay.tpb as u64 + t;
                it.m.in_critical = false;
                // Fresh private arrays for this thread.
                for &(a, len, op) in &lay.priv_shapes {
                    let b = it.m.priv_bufs.entry(a).or_insert_with(|| Buffer::zeroed(prog.array_elem(a), len));
                    fill_identity(b, op);
                }
                // Thread environment.
                it.scal.clone_from(&lay.base_env);
                let v0 = eval_pure(&plan.axes[0].lo, &it.scal).as_i()
                    + ix as i64 * eval_pure(&plan.axes[0].step, &it.scal).as_i();
                it.scal[plan.axes[0].var.0 as usize] = Value::I(v0);
                if plan.axes.len() > 1 {
                    let v1 = eval_pure(&plan.axes[1].lo, &it.scal).as_i()
                        + iy as i64 * eval_pure(&plan.axes[1].step, &it.scal).as_i();
                    it.scal[plan.axes[1].var.0 as usize] = Value::I(v1);
                }
                for (&(slot, _), &v) in lay.red_scalar.iter().zip(&lay.red_init) {
                    it.scal[slot] = v;
                }
                for s in &plan.body {
                    it.exec_plain(s);
                }
                let atomic = ex.fold_lane(lay, |k| it.scal[lay.red_scalar[k].0], |a| &it.m.priv_bufs[&a]);
                it.m.atomic_accesses += atomic;
            }
            let wm = it.m;
            if any_active {
                price_warp(lay, &wm.traces, None, &wm.lane_ops, wm.atomic_accesses, wm.tex_cache, &mut ex.tally);
            }
        }
    }
    ex
}

/// The lanes set in `mask`, ascending.
fn lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// The default engine: every block in block order, a warp at a time,
/// through the plan's native closures on this thread's scratch arena,
/// folding reductions in (block, warp, lane) order exactly as the tree
/// engine does.
///
/// Representative-block pricing: under `uniform_pricing` a block's entire
/// pricing (its `Tally`: totals, issue cycles, per-site evidence) is a pure
/// function of its active-lane shape and each fast site's block-base address
/// modulo the site's translation modulus — the coalescing segment for global
/// sites, the bank cycle for shared-tiled ones. Addresses are affine in the
/// block indices and both summaries are translation-invariant, so
/// `site_affine_probe` extracts the per-block address steps once; the walk
/// then prices one representative per equivalence class and merges its
/// block tally for the rest, while still executing every block's functional
/// effects.
fn run_native(
    lay: &LaunchLayout,
    nk: &native::NativeKernel,
    dev: &mut DeviceState,
    journal: Option<&mut Journal>,
) -> Executed {
    let (prog, plan, cfg, bc) = (lay.prog, lay.plan, lay.cfg, &*nk.bc);
    let wu = lay.warp as usize;
    let mut expansion: Vec<Option<Expansion>> = vec![None; prog.arrays.len()];
    let mut priv_slot: Vec<i32> = vec![-1; prog.arrays.len()];
    for (k, &(a, _, _)) in lay.priv_shapes.iter().enumerate() {
        priv_slot[a.0 as usize] = k as i32;
        expansion[a.0 as usize] = plan.expansion_of(a);
    }
    let ctx = bytecode::ExecCtx {
        prog,
        base: &lay.base,
        elem_bytes: &lay.elem_bytes,
        extents: &lay.extents,
        strides: &lay.strides,
        expansion: &expansion,
        priv_slot: &priv_slot,
        total_threads: lay.total_threads,
    };
    // Axis origins and steps, (lo, step) per axis, are launch constants
    // here: the compiler bails when a second axis depends on the first axis
    // variable, so evaluating against the base env matches the tree path's
    // per-lane evaluation.
    let axis = |k: usize| {
        plan.axes
            .get(k)
            .map_or((0, 0), |ax| (eval_pure(&ax.lo, &lay.base_env).as_i(), eval_pure(&ax.step, &lay.base_env).as_i()))
    };
    let axes = [axis(0), axis(1)];
    // Pricing recipe per fast site: global sites reduce through the segment
    // memo; shared-tiled sites through the bank-conflict memo plus the
    // reuse-discounted fill charge (`Tally::add_shared`, as `price_warp`
    // prices a shared site).
    let fast_pricing: Vec<(u64, Option<f64>)> = bc
        .fast_sites
        .iter()
        .map(|&site| {
            let SiteKind::Mem(arr) = lay.site_kinds[site as usize] else {
                unreachable!("fast site must be a memory site")
            };
            let reuse = match plan.space_of(arr) {
                MemSpace::SharedTiled { reuse } => Some(reuse),
                _ => None,
            };
            (lay.elem_bytes[arr.0 as usize] as u64, reuse)
        })
        .collect();
    let dedup = (bc.uniform_pricing && lay.total_blocks > 1).then(|| site_affine_probe(lay, bc, axes));
    let priv_elems: Vec<(ElemType, usize)> =
        lay.priv_shapes.iter().map(|&(a, len, _)| (prog.array_elem(a), len)).collect();
    let mut scratch = WarpScratch::take();
    native::begin_launch(nk, &mut scratch, plan.site_count as usize, &priv_elems, &lay.base_env, cfg.segment_bytes);
    let DeviceState { bufs, tex_cache, .. } = dev;
    let mut mem = DeviceBufs { bufs, journal };
    let mut ex = Executed::new(lay);
    let a0 = bc.axis_regs[0] as usize;
    let a1 = (plan.axes.len() > 1).then(|| bc.axis_regs[1] as usize);
    let mut ax = vec![(0i64, 0i64); wu];
    let mut row: Vec<(u32, u64)> = Vec::with_capacity(wu);
    let mut classes: HashMap<Vec<u64>, Tally> = HashMap::new();
    let mut key: Vec<u64> = Vec::new();
    for blk in 0..lay.total_blocks {
        let (bxi, byi) = (blk % lay.gx, blk / lay.gx);
        // A block's pricing class is its active-lane shape plus each fast
        // site's base address residue. A class's first block prices into its
        // own tally; later members merge that tally, and execution of their
        // functional effects still runs below — only the pricing work is
        // skipped.
        let mut cached = false;
        let mut class = None;
        if let Some(aff) = &dedup {
            key.clear();
            key.push(lay.n0.saturating_sub(bxi * lay.bx).min(lay.bx));
            key.push(lay.n1.saturating_sub(byi * lay.by).min(lay.by));
            for s in aff {
                let addr = s.addr0 + s.dx * bxi as i128 + s.dy * byi as i128;
                key.push(addr.rem_euclid(s.modulus as i128) as u64);
            }
            match classes.get(&key) {
                Some(t) => {
                    ex.tally.merge(t);
                    cached = true;
                }
                None => class = Some(Tally::new(plan.site_count as usize)),
            }
        }
        for w in 0..lay.warps_per_block {
            let mut mask = 0u64;
            for (lane, lane_ax) in ax.iter_mut().enumerate() {
                let t = w * lay.warp as u64 + lane as u64;
                if t >= lay.tpb as u64 {
                    break;
                }
                let (ix, iy) = (bxi * lay.bx + t % lay.bx, byi * lay.by + t / lay.bx);
                if ix >= lay.n0 || iy >= lay.n1 {
                    continue;
                }
                mask |= 1u64 << lane;
                *lane_ax = (axes[0].0 + ix as i64 * axes[0].1, axes[1].0 + iy as i64 * axes[1].1);
            }
            if mask == 0 {
                continue;
            }
            ex.active_threads += mask.count_ones() as u64;
            // A pricing-cached block discards its warps' evidence; the
            // functional-only closures neither read nor write it, so the
            // evidence resets can be skipped with it.
            if !cached {
                scratch.begin_warp();
            }
            native::begin_warp(nk, &mut scratch, &lay.base_env, &lay.red_init);
            // Per-lane prologue: axis variables (straight into the typed I
            // bank) and private-array scratch reset.
            for l in lanes(mask) {
                scratch.iregs[a0 * wu + l] = ax[l].0;
                if let Some(a1) = a1 {
                    scratch.iregs[a1 * wu + l] = ax[l].1;
                }
                for (slot, &(_, _, op)) in lay.priv_shapes.iter().enumerate() {
                    fill_identity(&mut scratch.priv_bufs[slot * wu + l], op);
                }
            }
            let tid_base = blk * lay.tpb as u64 + w * lay.warp as u64;
            let mut atomic = native::exec_warp_native(nk, &mut scratch, &ctx, mem.reborrow(), mask, tid_base, !cached);
            // With no reductions the lane scan is a no-op; skip it.
            if !plan.reductions.is_empty() {
                for l in lanes(mask) {
                    atomic += ex.fold_lane(
                        lay,
                        |k| native::red_value(nk, &scratch, k, l),
                        |a| &scratch.priv_bufs[priv_slot[a.0 as usize] as usize * wu + l],
                    );
                }
            }
            if cached {
                continue;
            }
            // Price the warp's evidence, into its class's tally when the
            // block is a class representative.
            let t = class.as_mut().unwrap_or(&mut ex.tally);
            price_warp(lay, &scratch.traces, Some(&scratch.site_touched), &scratch.lane_ops, atomic, tex_cache, t);
            // Affine fast-path sites: one address row per site, summarised
            // through the memo instead of a trace.
            for (fidx, (&site, &(eb, shared_reuse))) in bc.fast_sites.iter().zip(&fast_pricing).enumerate() {
                row.clear();
                row.extend(lanes(mask).map(|l| (l as u32, scratch.fast_rows[fidx * wu + l])));
                match shared_reuse {
                    None => t.add_global(site as usize, &scratch.memo.reduce_row(site, &row), eb),
                    Some(reuse) => {
                        let sh = scratch.memo.reduce_row_shared(site, &row, cfg.shared_banks, 4);
                        t.add_shared(site as usize, &sh, row.len() as u64, eb, reuse, cfg.segment_bytes);
                    }
                }
            }
        }
        if let Some(t) = class {
            ex.tally.merge(&t);
            classes.insert(key.clone(), t);
        }
    }
    scratch.recycle();
    ex
}

/// The finish stage: apply the reductions (scalars into `scal`, arrays into
/// their device copies through the journal), charge the reduction
/// strategy's costs, price the launch, and bump the generation tag of
/// everything it may have written. Returns the result and the per-site
/// evidence.
fn finish(
    lay: &LaunchLayout,
    ex: &Executed,
    dev: &mut DeviceState,
    scal: &mut [Value],
    mut journal: Option<&mut Journal>,
) -> (LaunchResult, Vec<SiteEvidence>) {
    let (plan, cfg) = (lay.plan, lay.cfg);
    for (&(slot, op), &acc) in lay.red_scalar.iter().zip(&ex.scal_acc) {
        scal[slot] = op.combine(scal[slot], acc);
    }
    for (acc, &(a, op, _)) in ex.arr_acc.iter().zip(&lay.red_arrays) {
        // Combine into the device copy (allocating if necessary; a target
        // allocated here is not journaled, and capture copies it whole).
        dev.bufs[a.0 as usize].get_or_insert_with(|| Buffer::zeroed(acc.elem, acc.len()));
        let mut mem = DeviceBufs { bufs: &mut dev.bufs, journal: journal.as_deref_mut() };
        fold_array(op, mem.write(a.0 as usize), acc);
    }

    let mut totals = ex.tally.totals;
    if !plan.reductions.is_empty() {
        if let ReduceStrategy::TwoLevelTree { .. } = plan.reduce_strategy {
            // Tree-reduction overhead.
            let rounds = (lay.tpb.max(2) as f64).log2().ceil() as u64;
            totals.shared_slots += lay.total_blocks * rounds * lay.warps_per_block;
            totals.issue_cycles += (lay.total_blocks * rounds * 2) as f64;
            // Partial writes + second-stage reads.
            let partial_bytes = lay.total_blocks * 8 * plan.reductions.len() as u64;
            totals.global_transactions += 2 * partial_bytes.div_ceil(cfg.segment_bytes as u64).max(1);
            totals.global_requests += 2 * lay.total_blocks.div_ceil(cfg.warp_size as u64).max(1);
        }
    }
    let mut shared_bytes = plan.shared_bytes_per_block;
    if lay.partials_in_shared {
        let red_bytes: u32 = lay
            .red_arrays
            .iter()
            .map(|&(a, _, len)| len as u32 * lay.prog.array_elem(a).size_bytes())
            .sum::<u32>()
            .saturating_mul(lay.tpb / 32);
        shared_bytes = shared_bytes.max(red_bytes.min(cfg.shared_per_sm / 2));
    }
    let footprint = KernelFootprint {
        threads_per_block: lay.tpb,
        shared_bytes_per_block: shared_bytes,
        regs_per_thread: plan.regs_per_thread,
        grid_blocks: lay.total_blocks,
    };
    let mut cost = estimate_kernel(cfg, &footprint, &totals);
    if !plan.reductions.is_empty() {
        // Second-stage kernel launch.
        cost.time_secs += cfg.launch_overhead_us * 1e-6;
    }

    // Generation bookkeeping: the launch mutated its write set, so those
    // digest memos are stale (opaque bodies invalidate every allocated
    // array — the write set cannot be bounded statically).
    if lay.arrays.opaque {
        for (i, b) in dev.bufs.iter().enumerate() {
            if b.is_some() {
                dev.tags[i].bump();
            }
        }
    } else {
        for &i in &lay.arrays.writes {
            dev.tags[i].bump();
        }
    }
    (LaunchResult { cost, totals, footprint, active_threads: ex.active_threads }, ex.tally.sites())
}

/// Readable/writable device arrays of a kernel body, for launch memoization.
struct BodyArrays {
    /// Non-private arrays the body can observe — loads and (partial-write)
    /// store targets — plus reduction targets: the content read set.
    reads: Vec<usize>,
    /// Non-private store targets plus reduction targets: everything the
    /// launch may mutate on the device.
    writes: Vec<usize>,
    /// The body contains constructs whose effect set this walk cannot bound
    /// (calls into program functions and other non-kernel constructs).
    opaque: bool,
}

fn body_arrays(plan: &KernelPlan, red_arrays: &[(ArrayId, ReduceOp, usize)]) -> BodyArrays {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut opaque = false;
    visit_stmts(&plan.body, &mut |s| match s {
        Stmt::Store { array, .. } if plan.expansion_of(*array).is_none() => {
            writes.push(array.0 as usize);
            reads.push(array.0 as usize);
        }
        Stmt::Call { .. } | Stmt::DataRegion { .. } | Stmt::Update { .. } | Stmt::Parallel(_) => opaque = true,
        _ => {}
    });
    visit_exprs(&plan.body, &mut |e| {
        if let Expr::Load { array, .. } = e {
            if plan.expansion_of(*array).is_none() {
                reads.push(array.0 as usize);
            }
        }
    });
    for &(a, _, _) in red_arrays {
        reads.push(a.0 as usize);
        writes.push(a.0 as usize);
    }
    reads.sort_unstable();
    reads.dedup();
    writes.sort_unstable();
    writes.dedup();
    BodyArrays { reads, writes, opaque }
}

/// Assemble the content-addressed key of this launch. Buffer digests go
/// through the generation memos, so a steady-state probe hashes nothing but
/// the (small) config/layout/scalar material.
fn build_launch_key(lay: &LaunchLayout, dev: &mut DeviceState) -> LaunchKey {
    let plan = lay.plan;
    metrics::timed(Counter::LaunchCacheDigestNs, || {
        let plan_fp = plan.engine_cache.fingerprint(plan);
        // Address layout: the device base of every array depends on the
        // allocation state, length, and element size of all the arrays
        // before it; extents additionally pin index linearisation.
        let mut d = Digest128::new();
        for (b, extents) in dev.bufs.iter().zip(&lay.extents) {
            match b {
                Some(b) => {
                    d.push(1);
                    d.push(b.len() as u64);
                    d.push(b.elem.size_bytes() as u64);
                    d.push(b.elem.is_float() as u64);
                }
                None => d.push(0),
            }
            for &e in extents {
                d.push(e as u64);
            }
            d.push(u64::MAX); // extent-list terminator
        }
        let scalars: Vec<(u8, u64)> = lay
            .base_env
            .iter()
            .map(|v| match v {
                Value::F(x) => (1u8, x.to_bits()),
                Value::I(x) => (2u8, *x as u64),
                Value::B(x) => (3u8, *x as u64),
            })
            .collect();
        let inputs: Vec<(u32, Option<u128>)> = lay
            .arrays
            .reads
            .iter()
            .map(|&i| {
                let d = match dev.bufs[i].as_ref() {
                    Some(b) => Some(dev.tags[i].digest(b).0),
                    None => None,
                };
                (i as u32, d)
            })
            .collect();
        LaunchKey {
            plan_fp,
            block: plan.block,
            shared_bytes: plan.shared_bytes_per_block,
            regs: plan.regs_per_thread,
            cfg_digest: lay.cfg.config_digest(),
            layout_digest: (d.finish() >> 64) as u64 ^ d.finish() as u64,
            scalars,
            inputs,
        }
    })
}

/// Apply a cached launch effect to the device and scalar environment:
/// bit-identical to executing the launch.
fn replay_effect(effect: &LaunchEffect, dev: &mut DeviceState, scal: &mut [Value]) {
    for (ai, out, digest) in &effect.outputs {
        let i = *ai as usize;
        match out {
            ArrayOut::Full(src) => match &mut dev.bufs[i] {
                Some(b) if b.elem == src.elem && b.len() == src.len() => b.copy_from(src),
                slot => *slot = Some((**src).clone()),
            },
            ArrayOut::Sparse(writes) => {
                let b = dev.bufs[i].as_mut().expect("sparse replay target is allocated (keyed by layout)");
                match &mut b.data {
                    Payload::F(v) => {
                        for &(idx, bits) in writes {
                            v[idx as usize] = f64::from_bits(bits);
                        }
                    }
                    Payload::I(v) => {
                        for &(idx, bits) in writes {
                            v[idx as usize] = bits as i64;
                        }
                    }
                }
            }
        }
        dev.tags[i].bump();
        dev.tags[i].prime(*digest);
    }
    for &(slot, v) in &effect.scalar_writes {
        scal[slot] = v;
    }
}

/// Emit one launch's trace events into `sink`: a
/// [`TraceEvent::CoalesceSite`] per site of `sites` (the launch's non-empty
/// memory-site evidence, in site order), the texture cache's cumulative
/// counters when `tex` is given, then the [`TraceEvent::KernelLaunch`]
/// with the full cost attribution. Executed and replayed launches both
/// emit here, so a replay renders exactly what its capture would have.
fn emit_launch(
    sink: &mut dyn TraceSink,
    lay: &LaunchLayout,
    result: &LaunchResult,
    sites: &[SiteEvidence],
    tex: Option<&Cache>,
) {
    if !sink.enabled() {
        return;
    }
    let plan = lay.plan;
    for &(site, g, sh) in sites {
        let Some(&SiteKind::Mem(arr)) = lay.site_kinds.get(site as usize) else { continue };
        let space = match lay.access_space(arr) {
            MemSpace::Global => "global",
            MemSpace::SharedTiled { .. } => "shared",
            MemSpace::Constant => "constant",
            MemSpace::Texture => "texture",
        };
        sink.emit(TraceEvent::CoalesceSite {
            kernel: plan.name.clone(),
            site,
            array: lay.prog.array_name(arr).to_string(),
            space: space.to_string(),
            requests: g.requests + sh.requests,
            transactions: g.transactions,
            lane_accesses: g.lane_accesses,
            shared_slots: sh.slots,
        });
    }
    if let Some(tex) = tex {
        sink.emit(tex.trace_event(&format!("{}/texture", plan.name)));
    }
    sink.emit(result.cost.trace_event(&plan.name, &result.footprint, &result.totals, lay.cfg));
}

/// One memory site's evidence over a whole launch: (site id, its global or
/// fill traffic, its shared-memory slots).
pub type SiteEvidence = (u32, AccessSummary, SharedSummary);

/// The one pricing record: a launch's totals plus each site's evidence,
/// filled warp by warp in (block, warp) order by either engine. Every
/// launch accumulates the per-site summaries its pricing computes (trace
/// events are built from them only for an enabled sink). A representative
/// block's class pricing is a block `Tally`, merged into the launch's once
/// per class member.
struct Tally {
    /// Every warp's issue-cycle increment is a whole number, so the f64
    /// issue sum is exact (below 2^53) in any order: the same bits whichever
    /// engine priced the warps and however many block tallies were merged.
    totals: KernelTotals,
    /// Per-site global (or shared-fill) traffic, indexed by site id.
    site_global: Vec<AccessSummary>,
    /// Per-site shared-memory slots, indexed by site id.
    site_shared: Vec<SharedSummary>,
}

impl Tally {
    fn new(site_count: usize) -> Tally {
        Tally {
            totals: KernelTotals::default(),
            site_global: vec![AccessSummary::default(); site_count],
            site_shared: vec![SharedSummary::default(); site_count],
        }
    }

    fn merge(&mut self, o: &Tally) {
        self.totals.merge(&o.totals);
        for (a, b) in self.site_global.iter_mut().zip(&o.site_global) {
            a.merge(b);
        }
        for (a, b) in self.site_shared.iter_mut().zip(&o.site_shared) {
            a.merge(b);
        }
    }

    /// Add one warp's row summary of a global site with `eb`-byte elements.
    fn add_global(&mut self, site: usize, s: &AccessSummary, eb: u64) {
        self.totals.global_requests += s.requests;
        self.totals.global_transactions += s.transactions;
        self.totals.useful_bytes += s.lane_accesses * eb;
        self.site_global[site].merge(s);
    }

    /// Add one warp's row of a shared-tiled site: its bank slots `sh`, plus
    /// the global fill of its `lane_accesses` (`eb`-byte elements)
    /// discounted by the tile's `reuse`.
    fn add_shared(&mut self, site: usize, sh: &SharedSummary, lane_accesses: u64, eb: u64, reuse: f64, segment: u32) {
        self.totals.shared_slots += sh.slots;
        let fill_bytes = (lane_accesses * eb) as f64 / reuse.max(1.0);
        let fill_tx = (fill_bytes / segment as f64).ceil() as u64;
        self.totals.global_transactions += fill_tx;
        self.totals.global_requests += fill_tx;
        self.totals.useful_bytes += fill_bytes as u64;
        self.site_shared[site].merge(sh);
        self.site_global[site].merge(&AccessSummary { requests: fill_tx, transactions: fill_tx, lane_accesses });
    }

    /// The non-empty sites' evidence, in site order.
    fn sites(&self) -> Vec<SiteEvidence> {
        (self.site_global.iter().zip(&self.site_shared).enumerate())
            .filter(|(_, (g, sh))| g.requests != 0 || g.transactions != 0 || sh.requests != 0)
            .map(|(i, (g, sh))| (i as u32, *g, *sh))
            .collect()
    }
}

/// Affine address behaviour of one fast site across the grid: the whole
/// block's address set translates by `dx`/`dy` per block-index step, and
/// its pricing is invariant under translation by multiples of `modulus`
/// (the coalescing segment for global sites, the bank cycle for
/// shared-tiled ones).
struct SiteAffine {
    addr0: i128,
    dx: i128,
    dy: i128,
    modulus: u64,
}

/// Probe each fast site's index expressions at (ix, iy) in
/// {(0,0), (1,0), (0,1)}, with each axis at `lo + step * index` from
/// `axes`, to extract its affine address coefficients. `uniform_pricing`
/// guarantees every such index is affine in the axis variables with
/// launch-uniform remaining terms, so three pure evaluations determine the
/// whole map exactly.
fn site_affine_probe(lay: &LaunchLayout, bc: &bytecode::KernelBytecode, axes: [(i64, i64); 2]) -> Vec<SiteAffine> {
    let plan = lay.plan;
    let mut site_idx: HashMap<u32, &Vec<Expr>> = HashMap::new();
    visit_stmts(&plan.body, &mut |s| {
        if let Stmt::Store { index, site, .. } = s {
            site_idx.insert(site.0, index);
        }
    });
    visit_exprs(&plan.body, &mut |e| {
        if let Expr::Load { index, site, .. } = e {
            site_idx.insert(site.0, index);
        }
    });
    let ax0 = plan.axes[0].var.0 as usize;
    let ax1 = plan.axes.get(1).map(|ax| ax.var.0 as usize);
    let mut env = lay.base_env.clone();
    bc.fast_sites
        .iter()
        .map(|&site| {
            let SiteKind::Mem(arr) = lay.site_kinds[site as usize] else {
                unreachable!("fast site must be a memory site")
            };
            let a = arr.0 as usize;
            let idx = site_idx[&site];
            let mut flat_at = |ixv: i64, iyv: i64| -> i128 {
                env[ax0] = Value::I(axes[0].0 + axes[0].1 * ixv);
                if let Some(a1) = ax1 {
                    env[a1] = Value::I(axes[1].0 + axes[1].1 * iyv);
                }
                idx.iter().zip(&lay.strides[a]).map(|(e, st)| eval_pure(e, &env).as_i() as i128 * *st as i128).sum()
            };
            let f00 = flat_at(0, 0);
            let fx = flat_at(1, 0) - f00;
            let fy = if ax1.is_some() { flat_at(0, 1) - f00 } else { 0 };
            let eb = lay.elem_bytes[a] as i128;
            let modulus = match plan.space_of(arr) {
                MemSpace::SharedTiled { .. } => (lay.cfg.shared_banks * 4) as u64,
                _ => lay.cfg.segment_bytes as u64,
            };
            SiteAffine {
                addr0: lay.base[a] as i128 + f00 * eb,
                dx: fx * lay.bx as i128 * eb,
                dy: fy * lay.by as i128 * eb,
                modulus,
            }
        })
        .collect()
}

/// Price one warp's worth of execution evidence into `out`: its per-site
/// `traces` (only the sites flagged in `touched`, when given), per-lane op
/// counts and critical-section atomics.
///
/// Shared by both engines: the tree walker feeds it from `WarpMachine`
/// state, the native executor from its `WarpScratch` arena. Keeping a
/// single pricing routine is what makes the two engines bit-identical on
/// everything downstream of the traces.
fn price_warp(
    lay: &LaunchLayout,
    traces: &[SiteWarpTrace],
    touched: Option<&[bool]>,
    lane_ops: &[u64],
    atomic_accesses: u64,
    tex_cache: &mut Cache,
    out: &mut Tally,
) {
    let cfg = lay.cfg;
    out.totals.warps += 1;
    let mut divergent_rows = 0u64;
    let mut extra_issue = 0.0f64;
    for (i, tr) in traces.iter().enumerate() {
        // The native executor tracks which sites recorded anything this
        // warp; skipping the rest changes nothing (empty traces price to
        // zero) but avoids scanning every lane stream of every site.
        if touched.is_some_and(|t| !t[i]) {
            continue;
        }
        if tr.is_empty() {
            continue;
        }
        match lay.site_kinds[i] {
            SiteKind::Branch => divergent_rows += tr.reduce_divergent_rows(),
            SiteKind::Mem(arr) => {
                let eb = lay.elem_bytes[arr.0 as usize] as u64;
                match lay.access_space(arr) {
                    MemSpace::Global => out.add_global(i, &tr.reduce_global(cfg.segment_bytes), eb),
                    MemSpace::SharedTiled { reuse } => {
                        let sh = tr.reduce_shared(cfg.shared_banks, 4);
                        let lanes = tr.reduce_global(cfg.segment_bytes).lane_accesses;
                        out.add_shared(i, &sh, lanes, eb, reuse, cfg.segment_bytes);
                    }
                    MemSpace::Constant => {
                        // Distinct words per row serialize.
                        let s = tr.reduce_global(eb.max(4) as u32);
                        extra_issue += (s.transactions - s.requests) as f64;
                        out.site_global[i].merge(&s);
                    }
                    MemSpace::Texture => {
                        // One walk through the texture cache; the two device
                        // families differ only in which totals a row and a
                        // missed line charge.
                        let line = cfg.tex_line_bytes as u64;
                        let (mut rows, mut lanes, mut missed) = (0u64, 0u64, 0u64);
                        tr.for_each_row(|row| {
                            rows += 1;
                            lanes += row.len() as u64;
                            let mut lines: Vec<u64> = row.iter().map(|a| a / line).collect();
                            lines.sort_unstable();
                            lines.dedup();
                            for l in lines {
                                if !tex_cache.access(l * line) {
                                    missed += 1;
                                }
                            }
                        });
                        let t = &mut out.totals;
                        let site = if cfg.has_texture_path {
                            t.tex_requests += rows;
                            t.tex_miss_lines += missed;
                            AccessSummary { requests: rows, transactions: missed, lane_accesses: 0 }
                        } else {
                            // No dedicated texture pipeline on this generation:
                            // read-only data flows through the unified L1 (the
                            // same cache simulator, sized per preset) and misses
                            // move ordinary global segments, so the cost lands
                            // on the global-memory roofline terms instead of
                            // the texture ones.
                            let transactions = missed * (line / cfg.segment_bytes as u64).max(1);
                            t.global_requests += rows;
                            t.global_transactions += transactions;
                            t.useful_bytes += lanes * eb;
                            AccessSummary { requests: rows, transactions, lane_accesses: lanes }
                        };
                        out.site_global[i].merge(&site);
                    }
                }
            }
            SiteKind::Unused => {}
        }
    }
    out.totals.atomic_slots += atomic_accesses;
    // A whole number (max lane ops, 8 per divergent row, whole extra
    // transactions), which is what lets `Tally` add increments and merged
    // class tallies in any order.
    let issue = warp_issue_cycles(lane_ops, divergent_rows) + extra_issue;
    debug_assert_eq!(issue.fract(), 0.0, "warp issue increment {issue} is not a whole number");
    out.totals.issue_cycles += issue;
}

/// Convenience for tests: allocate+upload every array the kernel touches.
pub fn upload_all(prog: &Program, dev: &mut DeviceState, host: &crate::program::HostData) {
    for i in 0..prog.arrays.len() {
        dev.upload(ArrayId(i as u32), &host.bufs[i]);
    }
}

/// Convenience for tests: make a scalar environment from a dataset.
pub fn env_from_dataset(prog: &Program, ds: &crate::program::DataSet) -> Vec<Value> {
    let mut scal: Vec<Value> =
        prog.scalars.iter().map(|d| if d.is_float { Value::F(0.0) } else { Value::I(0) }).collect();
    for (id, v) in &ds.scalars {
        scal[id.0 as usize] = *v;
    }
    scal
}

/// Convenience: bind a kernel axis variable id (for assertions in tests).
pub fn axis_var(plan: &KernelPlan, i: usize) -> ScalarId {
    plan.axes[i].var
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::expr::{ld, v};
    use crate::kernel::axis;
    use crate::program::{DataSet, HostData};
    use crate::types::ReduceOp;
    use acceval_sim::ElemType;

    fn setup(n: i64) -> (Program, DataSet) {
        let mut pb = ProgramBuilder::new("t");
        let nn = pb.iscalar("n");
        let _i = pb.iscalar("i");
        let _s = pb.fscalar("s");
        let _x = pb.farray("x", vec![v(nn)]);
        let _y = pb.farray("y", vec![v(nn)]);
        pb.main(vec![]);
        let p = pb.build();
        let ds = DataSet {
            scalars: vec![(nn, Value::I(n))],
            arrays: vec![(ArrayId(0), Buffer::from_f64(ElemType::F64, (0..n).map(|i| i as f64).collect()))],
            label: "t".into(),
        };
        (p, ds)
    }

    #[test]
    fn elementwise_kernel_computes_and_prices() {
        let (p, ds) = setup(1000);
        let n = p.scalar_named("n");
        let i = p.scalar_named("i");
        let x = p.array_named("x");
        let y = p.array_named("y");
        let mut k = crate::kernel::KernelPlan::new(
            "add1",
            vec![axis(i, v(n))],
            vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * 2.0)],
        );
        k.finalize();

        let cfg = DeviceConfig::tesla_m2090();
        let mut dev = DeviceState::new(&p, &cfg);
        let host = HostData::materialize(&p, &ds);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        let r = launch(&p, &k, &mut dev, &mut scal, &cfg);

        assert_eq!(r.active_threads, 1000);
        let yb = dev.bufs[y.0 as usize].as_ref().unwrap();
        assert_eq!(yb.get_f(7), 14.0);
        // 1000 threads reading f64 unit-stride: 2 tx per full warp per site.
        assert!(r.totals.global_transactions >= 2 * 31 * 2);
        assert!(r.totals.global_transactions <= 2 * 32 * 2 + 8);
        assert!(r.cost.time_secs > 0.0);
    }

    #[test]
    fn strided_kernel_needs_more_transactions() {
        let (p, ds) = setup(4096);
        let n = p.scalar_named("n");
        let i = p.scalar_named("i");
        let x = p.array_named("x");
        let y = p.array_named("y");
        // y[i] = x[(i*64) % n] — uncoalesced gather.
        let mut k = crate::kernel::KernelPlan::new(
            "gather",
            vec![axis(i, v(n))],
            vec![store(y, vec![v(i)], ld(x, vec![(v(i) * 64i64) % v(n)]))],
        );
        k.finalize();
        let mut k2 =
            crate::kernel::KernelPlan::new("unit", vec![axis(i, v(n))], vec![store(y, vec![v(i)], ld(x, vec![v(i)]))]);
        k2.finalize();

        let cfg = DeviceConfig::tesla_m2090();
        let host = HostData::materialize(&p, &ds);
        let mut dev = DeviceState::new(&p, &cfg);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        let bad = launch(&p, &k, &mut dev, &mut scal, &cfg);
        let good = launch(&p, &k2, &mut dev, &mut scal, &cfg);
        assert!(
            bad.totals.global_transactions > 5 * good.totals.global_transactions,
            "gather {} vs unit {}",
            bad.totals.global_transactions,
            good.totals.global_transactions
        );
    }

    #[test]
    fn scalar_reduction_matches_serial() {
        let (p, ds) = setup(10_000);
        let n = p.scalar_named("n");
        let i = p.scalar_named("i");
        let s = p.scalar_named("s");
        let x = p.array_named("x");
        let mut k =
            crate::kernel::KernelPlan::new("sum", vec![axis(i, v(n))], vec![assign(s, v(s) + ld(x, vec![v(i)]))])
                .with_reduction(ReduceOp::Add, VarRef::Scalar(s));
        k.finalize();

        let cfg = DeviceConfig::tesla_m2090();
        let host = HostData::materialize(&p, &ds);
        let mut dev = DeviceState::new(&p, &cfg);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        scal[s.0 as usize] = Value::F(5.0); // initial value participates
        launch(&p, &k, &mut dev, &mut scal, &cfg);
        let expect = 5.0 + (0..10_000).map(|i| i as f64).sum::<f64>();
        assert!((scal[s.0 as usize].as_f() - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn private_array_expansion_changes_traffic_not_values() {
        // Each thread fills a private array then writes its sum to y[i].
        let mut pb = ProgramBuilder::new("pr");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let j = pb.iscalar("j");
        let s = pb.fscalar("s");
        let y = pb.farray("y", vec![v(n)]);
        let q = pb.farray("q", vec![16i64.into()]);
        pb.main(vec![]);
        let p = pb.build();
        let ds = DataSet { scalars: vec![(n, Value::I(2048))], arrays: vec![], label: "t".into() };

        let body = vec![
            sfor(j, 0i64, 16i64, vec![store(q, vec![v(j)], (v(i) + v(j)).to_f())]),
            assign(s, 0.0),
            sfor(j, 0i64, 16i64, vec![assign(s, v(s) + ld(q, vec![v(j)]))]),
            store(y, vec![v(i)], v(s)),
        ];
        let mk = |exp: Expansion| {
            let mut k = crate::kernel::KernelPlan::new("priv", vec![axis(i, v(n))], body.clone()).with_private(q, exp);
            k.finalize();
            k
        };
        let cfg = DeviceConfig::tesla_m2090();
        let host = HostData::materialize(&p, &ds);

        let run = |k: &crate::kernel::KernelPlan| {
            let mut dev = DeviceState::new(&p, &cfg);
            upload_all(&p, &mut dev, &host);
            let mut scal = env_from_dataset(&p, &ds);
            let r = launch(&p, k, &mut dev, &mut scal, &cfg);
            let yv = dev.bufs[y.0 as usize].as_ref().unwrap().get_f(5);
            (r, yv)
        };
        let (row, yr) = run(&mk(Expansion::RowWise));
        let (col, yc) = run(&mk(Expansion::ColumnWise));
        assert_eq!(yr, yc);
        let expect: f64 = (0..16).map(|j| (5 + j) as f64).sum();
        assert_eq!(yr, expect);
        assert!(
            row.totals.global_transactions > 4 * col.totals.global_transactions,
            "row-wise {} should be far less coalesced than column-wise {}",
            row.totals.global_transactions,
            col.totals.global_transactions
        );
        assert!(row.cost.time_secs > col.cost.time_secs);
    }

    #[test]
    fn two_d_kernel_covers_grid() {
        let mut pb = ProgramBuilder::new("t2");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let j = pb.iscalar("j");
        let a = pb.farray("a", vec![v(n), v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        let ds = DataSet { scalars: vec![(n, Value::I(70))], arrays: vec![], label: "t".into() };
        let mut k = crate::kernel::KernelPlan::new(
            "fill2d",
            vec![axis(i, v(n)), axis(j, v(n))],
            vec![store(a, vec![v(i), v(j)], (v(i) * 1000i64 + v(j)).to_f())],
        )
        .with_block(16, 16);
        k.finalize();
        let cfg = DeviceConfig::tesla_m2090();
        let host = HostData::materialize(&p, &ds);
        let mut dev = DeviceState::new(&p, &cfg);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        let r = launch(&p, &k, &mut dev, &mut scal, &cfg);
        assert_eq!(r.active_threads, 70 * 70);
        let ab = dev.bufs[a.0 as usize].as_ref().unwrap();
        assert_eq!(ab.get_f(69 * 70 + 69), 69069.0);
        assert_eq!(r.footprint.grid_blocks, 5 * 5);
    }

    #[test]
    fn divergent_branches_cost_issue_cycles() {
        let (p, ds) = setup(4096);
        let n = p.scalar_named("n");
        let i = p.scalar_named("i");
        let y = p.array_named("y");
        // Divergent: every other lane takes a different path.
        let body_div =
            vec![if_else((v(i) % 2i64).eq_(0i64), vec![store(y, vec![v(i)], 1.0)], vec![store(y, vec![v(i)], 2.0)])];
        // Uniform: whole warps take the same path.
        let body_uni = vec![if_else(
            ((v(i) / 32i64) % 2i64).eq_(0i64),
            vec![store(y, vec![v(i)], 1.0)],
            vec![store(y, vec![v(i)], 2.0)],
        )];
        let mk = |body: Vec<Stmt>, name: &str| {
            let mut k = crate::kernel::KernelPlan::new(name, vec![axis(i, v(n))], body);
            k.finalize();
            k
        };
        let cfg = DeviceConfig::tesla_m2090();
        let host = HostData::materialize(&p, &ds);
        let mut dev = DeviceState::new(&p, &cfg);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        let div = launch(&p, &mk(body_div, "div"), &mut dev, &mut scal, &cfg);
        let uni = launch(&p, &mk(body_uni, "uni"), &mut dev, &mut scal, &cfg);
        assert!(div.totals.issue_cycles > uni.totals.issue_cycles);
    }

    #[test]
    fn texture_placement_reduces_transactions_for_reuse() {
        let (p, ds) = setup(4096);
        let n = p.scalar_named("n");
        let i = p.scalar_named("i");
        let x = p.array_named("x");
        let y = p.array_named("y");
        // Gather with heavy reuse: x[i % 64].
        let body = vec![store(y, vec![v(i)], ld(x, vec![v(i) % 64i64]))];
        let mk = |tex: bool| {
            let mut k = crate::kernel::KernelPlan::new("g", vec![axis(i, v(n))], body.clone());
            if tex {
                k = k.with_placement(x, MemSpace::Texture);
            }
            k.finalize();
            k
        };
        let cfg = DeviceConfig::tesla_m2090();
        let host = HostData::materialize(&p, &ds);
        let mut dev = DeviceState::new(&p, &cfg);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        let plain = launch(&p, &mk(false), &mut dev, &mut scal, &cfg);
        let tex = launch(&p, &mk(true), &mut dev, &mut scal, &cfg);
        let plain_traffic = plain.totals.traffic_bytes(&cfg);
        let tex_traffic = tex.totals.traffic_bytes(&cfg);
        // The y-store traffic (32 KiB) is common to both; the gather's own
        // traffic drops from ~32 KiB to under 1 KiB with the texture cache.
        assert!(
            (tex_traffic as f64) < 0.6 * plain_traffic as f64,
            "texture-cached gather should move far less DRAM traffic ({tex_traffic} vs {plain_traffic})"
        );
        assert!(tex.totals.tex_miss_lines < 100);
    }
}
