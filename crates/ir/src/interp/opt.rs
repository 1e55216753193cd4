//! Bytecode optimizer: a pipeline between [`super::bytecode::compile`] and
//! warp execution that rewrites the compiled instruction stream for host
//! speed without changing any observable number.
//!
//! Passes (run as CSE and folding, strength reduction, hoisting,
//! dead-register elimination, typed lowering):
//!
//! 1. **Uniformity-driven hoisting.** Top-level instructions whose operands
//!    are launch-uniform (pooled constants, launch-broadcast scalars, and
//!    previously hoisted values) move into a *scalar prelude* executed once
//!    per launch on a single representative lane and splatted across the
//!    warp, instead of re-running on all 32 lanes of every warp.
//! 2. **CSE + constant folding.** A value-numbering pass folds constant
//!    subexpressions and replaces redundant recomputations with register
//!    copies. Folding is gated so it can never introduce a panic the
//!    original stream would not have raised (integer division, shifts,
//!    `i64::MIN` negation), and no algebraic identities are applied (so
//!    `-0.0` and NaN payloads survive bit-exactly).
//! 3. **Affine strength reduction.** Loop-body chains that are affine in
//!    the loop variable (`dst = c1*var + base`, recognised through the
//!    [`crate::analysis::affine::Aff`] combinator) are rewritten into an
//!    incremental add carried around the loop.
//! 4. **Dead-register elimination.** Pure instructions whose destinations
//!    are never observed (transitively from the reduction accumulators and
//!    every memory/trace side effect) are deleted, back-to-front, to a
//!    fixpoint.
//! 5. **Typed-bank specialization.** A flow-sensitive bank inference
//!    proves every register's `Value` tag stable and lowers the stream to a
//!    typed instruction set ([`TOp`]) over split `f64`/`i64`/`bool`
//!    register banks. [`super::native`] compiles that typed stream into
//!    closures; a plan whose tags cannot be proven stable has no typed
//!    lowering and its launches run on the tree walker.
//!
//! **Cost transparency.** All simulated charges live in `Op::Ops`
//! instructions, site traces, and divergence records, and the optimizer
//! treats every one of them as an immovable side effect: `Ops` charges are
//! never moved, scaled or deleted; loads/stores are never reordered,
//! deduplicated or hoisted; branch/loop structure is preserved exactly. A
//! hoisted or deleted pure instruction still *charges* what it always
//! charged (its cost was folded into an `Ops` at compile time) — only the
//! host-side work disappears. Every figure, trace and manifest is therefore
//! byte-identical to the tree walker's, which the `engine_equiv` suites
//! assert.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::analysis::affine::{Aff, AffBase};
use crate::expr::{BinOp, Intrin, UnOp};
use crate::interp::{eval_bin, eval_intrin};
use crate::program::Program;
use crate::types::{ArrayId, Value};

use super::bytecode::{KernelBytecode, Op, WarpScratch};

// ---------------------------------------------------------------------------
// Stats and counters
// ---------------------------------------------------------------------------

/// Per-kernel optimization summary, cached alongside the optimized stream
/// and aggregated into sweep manifests.
#[derive(Debug, Clone, Default)]
pub struct OptStats {
    /// Instructions in the unoptimized stream.
    pub ops_pre: u64,
    /// Instructions in the optimized per-warp stream (prelude excluded).
    pub ops_post: u64,
    /// Instructions moved into the once-per-launch scalar prelude.
    pub prelude_ops: u64,
    /// Redundant computations replaced by a copy or dropped outright.
    pub cse_hits: u64,
    /// Constant subexpressions folded to literals.
    pub folded: u64,
    /// Affine loop chains rewritten into incremental adds.
    pub strength_reduced: u64,
    /// Dead pure instructions deleted.
    pub dce_removed: u64,
    /// The stream lowered onto split typed register banks.
    pub typed: bool,
}

static OPT_KERNELS: AtomicU64 = AtomicU64::new(0);
static OPT_OPS_PRE: AtomicU64 = AtomicU64::new(0);
static OPT_OPS_POST: AtomicU64 = AtomicU64::new(0);
static OPT_CSE_HITS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_KERNELS: Cell<u64> = const { Cell::new(0) };
    static TL_OPS_PRE: Cell<u64> = const { Cell::new(0) };
    static TL_OPS_POST: Cell<u64> = const { Cell::new(0) };
    static TL_CSE_HITS: Cell<u64> = const { Cell::new(0) };
}

/// Record one kernel's optimization outcome in the process-wide and
/// per-thread counters (the sweep reads the per-thread ones to attribute
/// work to its own runs, mirroring the launch-cache counter discipline).
pub(crate) fn note_opt(st: &OptStats) {
    OPT_KERNELS.fetch_add(1, Ordering::Relaxed);
    OPT_OPS_PRE.fetch_add(st.ops_pre, Ordering::Relaxed);
    OPT_OPS_POST.fetch_add(st.ops_post, Ordering::Relaxed);
    OPT_CSE_HITS.fetch_add(st.cse_hits, Ordering::Relaxed);
    TL_KERNELS.with(|c| c.set(c.get() + 1));
    TL_OPS_PRE.with(|c| c.set(c.get() + st.ops_pre));
    TL_OPS_POST.with(|c| c.set(c.get() + st.ops_post));
    TL_CSE_HITS.with(|c| c.set(c.get() + st.cse_hits));
}

/// This thread's `(kernels optimized, ops pre, ops post, cse hits)`.
pub fn thread_opt_counters() -> (u64, u64, u64, u64) {
    (TL_KERNELS.with(Cell::get), TL_OPS_PRE.with(Cell::get), TL_OPS_POST.with(Cell::get), TL_CSE_HITS.with(Cell::get))
}

/// Process-wide `(kernels optimized, ops pre, ops post, cse hits)`.
pub fn opt_totals() -> (u64, u64, u64, u64) {
    (
        OPT_KERNELS.load(Ordering::Relaxed),
        OPT_OPS_PRE.load(Ordering::Relaxed),
        OPT_OPS_POST.load(Ordering::Relaxed),
        OPT_CSE_HITS.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------------
// Optimized kernel representation
// ---------------------------------------------------------------------------

/// Register bank of a typed register in the specialized stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bank {
    /// `f64`.
    F,
    /// `i64`.
    I,
    /// `bool`.
    B,
}

/// One instruction of the typed specialized stream. Mirrors [`Op`] exactly
/// — same control structure, same charge placement, same trap behaviour —
/// but with every register resolved to a concrete bank so execution never
/// dispatches on `Value` tags.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TOp {
    ConstF {
        dst: u16,
        v: f64,
    },
    ConstI {
        dst: u16,
        v: i64,
    },
    ConstB {
        dst: u16,
        v: bool,
    },
    CopyF {
        dst: u16,
        src: u16,
    },
    CopyI {
        dst: u16,
        src: u16,
    },
    CopyB {
        dst: u16,
        src: u16,
    },
    /// `i = f as i64` (the saturating cast `Value::as_i` performs).
    FtoI {
        dst: u16,
        a: u16,
    },
    /// `f = i as f64`.
    ItoF {
        dst: u16,
        a: u16,
    },
    /// `i = b as i64`.
    BtoI {
        dst: u16,
        a: u16,
    },
    /// `f = b as i64 as f64`.
    BtoF {
        dst: u16,
        a: u16,
    },
    /// `b = f != 0.0`.
    FtoB {
        dst: u16,
        a: u16,
    },
    /// `b = i != 0`.
    ItoB {
        dst: u16,
        a: u16,
    },
    NegF {
        dst: u16,
        a: u16,
    },
    /// `-i`, with the same debug-overflow behaviour as the tree walker.
    NegI {
        dst: u16,
        a: u16,
    },
    NotB {
        dst: u16,
        a: u16,
    },
    /// `i.abs()`, same trap on `i64::MIN` as `eval_intrin`.
    AbsI {
        dst: u16,
        a: u16,
    },
    /// Float arithmetic (`Add..Max` subset of [`BinOp`]).
    ArithF {
        dst: u16,
        op: BinOp,
        a: u16,
        b: u16,
    },
    /// Integer arithmetic/shift/bit ops, wrapping and raw exactly as
    /// [`eval_bin`]'s integer lane.
    ArithI {
        dst: u16,
        op: BinOp,
        a: u16,
        b: u16,
    },
    CmpF {
        dst: u16,
        op: BinOp,
        a: u16,
        b: u16,
    },
    CmpI {
        dst: u16,
        op: BinOp,
        a: u16,
        b: u16,
    },
    AndB {
        dst: u16,
        a: u16,
        b: u16,
    },
    OrB {
        dst: u16,
        a: u16,
        b: u16,
    },
    Ops {
        n: u64,
    },
    /// All-float intrinsic call; argument registers live in the typed pool.
    IntrinF {
        dst: u16,
        f: Intrin,
        args_off: u32,
        args_len: u8,
    },
    Load {
        dst: u16,
        dst_f: bool,
        arr: u16,
        site: u32,
        idx_off: u32,
        idx_len: u8,
        fast: i32,
    },
    Store {
        src: u16,
        src_f: bool,
        arr: u16,
        site: u32,
        idx_off: u32,
        idx_len: u8,
        fast: i32,
    },
    If {
        cond: u16,
        site: u32,
        then_len: u32,
        else_len: u32,
    },
    Select {
        cond: u16,
        dst: u16,
        t_reg: u16,
        f_reg: u16,
        bank: Bank,
        t_len: u32,
        f_len: u32,
    },
    For {
        var: u16,
        hi_reg: u16,
        step_reg: u16,
        hi_len: u32,
        step_len: u32,
        body_len: u32,
    },
    While {
        cond: u16,
        cond_len: u32,
        body_len: u32,
    },
    CritEnter,
    CritExit,
}

/// The typed lowering of an optimized stream: same register numbering as
/// the untyped stream (plus minted conversion temporaries above), with
/// imports/exports bridging the `Value` register file the launch machinery
/// writes (axis variables, reduction identities) and reads (reduction
/// folds).
#[derive(Debug)]
pub(crate) struct TypedKernel {
    pub(crate) code: Vec<TOp>,
    /// Typed register pool for Load/Store indices and IntrinF arguments.
    pub(crate) pool: Vec<u16>,
    /// Bank sizes (each bank allocates `nregs` registers per lane).
    pub(crate) nregs: u16,
    /// Registers imported from the `Value` file once per launch (constants,
    /// launch-broadcast scalars, prelude results).
    pub(crate) launch_imports: Vec<(u16, Bank)>,
    /// Registers imported from the `Value` file at each warp: the mutable
    /// scalars `begin_warp` re-broadcasts, reduction accumulators (whose
    /// identities the launch prologue writes) included. Axis registers are
    /// `i64` and the prologue writes them straight into the I bank.
    pub(crate) warp_imports: Vec<(u16, Bank)>,
    /// Registers exported back to the `Value` file after each warp so the
    /// reduction fold observes exactly the tags the tree walker leaves.
    pub(crate) red_exports: Vec<(u16, Bank)>,
}

/// An optimized kernel: the rewritten untyped stream, its once-per-launch
/// scalar prelude, and (when bank inference succeeded) the typed
/// specialization the native closures compile from.
#[derive(Debug)]
pub struct OptKernel {
    /// The optimized untyped stream. Launches read the pricing machinery
    /// (fast-site table, flags) and the register layout from it; the flags
    /// and fast-site table are identical to the unoptimized compile's.
    pub(crate) bc: KernelBytecode,
    /// Launch-uniform instructions hoisted out of the per-warp stream; run
    /// once per launch on lane-0 values and splatted across the warp.
    pub(crate) prelude: Vec<Op>,
    /// Typed specialization, or `None` when bank inference found a register
    /// whose `Value` tag is not provably stable.
    pub(crate) typed: Option<TypedKernel>,
    /// What the pipeline did, for profiling and manifests.
    pub stats: OptStats,
}

// ---------------------------------------------------------------------------
// Pipeline driver
// ---------------------------------------------------------------------------

/// Run the full optimization pipeline over a compiled stream.
///
/// The returned kernel's typed stream, compiled to closures, executes
/// bit-identically to the tree walker: same values, same charges, same
/// traces, same panics.
pub fn optimize(prog: &Program, bc: &KernelBytecode) -> OptKernel {
    let mut stats = OptStats { ops_pre: bc.code.len() as u64, ..OptStats::default() };

    // Flat stream -> block tree (pool offsets keep referencing bc's pool).
    let mut pos = 0usize;
    let mut root = parse_block(&bc.code, &mut pos, bc.code.len());
    debug_assert_eq!(pos, bc.code.len());

    // Registers holding launch-time constants, for folding / SR / hoisting.
    let mut minter = ConstMinter::new(bc);

    // CSE + constant folding.
    let mut cse = Cse::new(bc, &minter);
    root = cse.block(root);
    stats.cse_hits = cse.hits;
    stats.folded = cse.folded;

    // Affine strength reduction over counted loops.
    let ia = int_always(prog, bc, &root);
    stats.strength_reduced = strength_reduce(bc, &mut root, &ia, &mut minter);

    // Uniformity-driven hoisting into the launch prelude.
    let (prelude, _) = hoist(bc, &mut root);
    stats.prelude_ops = prelude.len() as u64;

    // Dead-register elimination to a fixpoint.
    let live_out: HashSet<u16> = bc.red_scalar_regs.iter().copied().collect();
    loop {
        let removed = dce_block(&mut root, &bc.pool, live_out.clone());
        stats.dce_removed += removed;
        if removed == 0 {
            break;
        }
    }

    // Flatten back and rebuild the kernel around the rewritten stream.
    let mut code = Vec::new();
    flatten(&root, &mut code);
    stats.ops_post = code.len() as u64;
    let new_bc = KernelBytecode {
        code,
        pool: bc.pool.clone(),
        nregs: minter.nregs,
        temp_base: bc.temp_base,
        scal_init_launch: bc.scal_init_launch.clone(),
        scal_init_warp: bc.scal_init_warp.clone(),
        const_init: minter.const_init,
        axis_regs: bc.axis_regs,
        red_scalar_regs: bc.red_scalar_regs.clone(),
        fast_sites: bc.fast_sites.clone(),
        serial_lanes: bc.serial_lanes,
        par_blocks_ok: bc.par_blocks_ok,
        uniform_pricing: bc.uniform_pricing,
    };

    // Typed-bank specialization (any ambiguity leaves the plan to the tree
    // walker).
    let typed = lower_typed(prog, &new_bc, &prelude, &root);
    stats.typed = typed.is_some();

    OptKernel { bc: new_bc, prelude, typed, stats }
}

// ---------------------------------------------------------------------------
// Block tree
// ---------------------------------------------------------------------------

/// Structured view of the flat stream: header ops with their sub-blocks
/// recovered, so passes can reason about scopes without offset arithmetic.
#[derive(Debug, Clone)]
enum Node {
    Op(Op),
    If { cond: u16, site: u32, t: Vec<Node>, e: Vec<Node> },
    Select { cond: u16, dst: u16, t_reg: u16, f_reg: u16, t: Vec<Node>, f: Vec<Node> },
    For { var: u16, hi_reg: u16, step_reg: u16, hi: Vec<Node>, step: Vec<Node>, body: Vec<Node> },
    While { cond: u16, c: Vec<Node>, body: Vec<Node> },
}

fn parse_block(code: &[Op], pos: &mut usize, end: usize) -> Vec<Node> {
    let mut out = Vec::new();
    while *pos < end {
        let op = code[*pos];
        *pos += 1;
        match op {
            Op::If { cond, site, then_len, else_len } => {
                let t = parse_block(code, pos, *pos + then_len as usize);
                let e = parse_block(code, pos, *pos + else_len as usize);
                out.push(Node::If { cond, site, t, e });
            }
            Op::Select { cond, dst, t_reg, f_reg, t_len, f_len } => {
                let t = parse_block(code, pos, *pos + t_len as usize);
                let f = parse_block(code, pos, *pos + f_len as usize);
                out.push(Node::Select { cond, dst, t_reg, f_reg, t, f });
            }
            Op::For { var, hi_reg, step_reg, hi_len, step_len, body_len } => {
                let hi = parse_block(code, pos, *pos + hi_len as usize);
                let step = parse_block(code, pos, *pos + step_len as usize);
                let body = parse_block(code, pos, *pos + body_len as usize);
                out.push(Node::For { var, hi_reg, step_reg, hi, step, body });
            }
            Op::While { cond, cond_len, body_len } => {
                let c = parse_block(code, pos, *pos + cond_len as usize);
                let body = parse_block(code, pos, *pos + body_len as usize);
                out.push(Node::While { cond, c, body });
            }
            other => out.push(Node::Op(other)),
        }
    }
    out
}

fn flatten(nodes: &[Node], out: &mut Vec<Op>) {
    for n in nodes {
        match n {
            Node::Op(op) => out.push(*op),
            Node::If { cond, site, t, e } => {
                let at = out.len();
                out.push(Op::If { cond: *cond, site: *site, then_len: 0, else_len: 0 });
                let t0 = out.len();
                flatten(t, out);
                let tl = (out.len() - t0) as u32;
                let e0 = out.len();
                flatten(e, out);
                let el = (out.len() - e0) as u32;
                if let Op::If { then_len, else_len, .. } = &mut out[at] {
                    *then_len = tl;
                    *else_len = el;
                }
            }
            Node::Select { cond, dst, t_reg, f_reg, t, f } => {
                let at = out.len();
                out.push(Op::Select { cond: *cond, dst: *dst, t_reg: *t_reg, f_reg: *f_reg, t_len: 0, f_len: 0 });
                let t0 = out.len();
                flatten(t, out);
                let tl = (out.len() - t0) as u32;
                let f0 = out.len();
                flatten(f, out);
                let fl = (out.len() - f0) as u32;
                if let Op::Select { t_len, f_len, .. } = &mut out[at] {
                    *t_len = tl;
                    *f_len = fl;
                }
            }
            Node::For { var, hi_reg, step_reg, hi, step, body } => {
                let at = out.len();
                out.push(Op::For {
                    var: *var,
                    hi_reg: *hi_reg,
                    step_reg: *step_reg,
                    hi_len: 0,
                    step_len: 0,
                    body_len: 0,
                });
                let h0 = out.len();
                flatten(hi, out);
                let hl = (out.len() - h0) as u32;
                let s0 = out.len();
                flatten(step, out);
                let sl = (out.len() - s0) as u32;
                let b0 = out.len();
                flatten(body, out);
                let bl = (out.len() - b0) as u32;
                if let Op::For { hi_len, step_len, body_len, .. } = &mut out[at] {
                    *hi_len = hl;
                    *step_len = sl;
                    *body_len = bl;
                }
            }
            Node::While { cond, c, body } => {
                let at = out.len();
                out.push(Op::While { cond: *cond, cond_len: 0, body_len: 0 });
                let c0 = out.len();
                flatten(c, out);
                let cl = (out.len() - c0) as u32;
                let b0 = out.len();
                flatten(body, out);
                let bl = (out.len() - b0) as u32;
                if let Op::While { cond_len, body_len, .. } = &mut out[at] {
                    *cond_len = cl;
                    *body_len = bl;
                }
            }
        }
    }
}

/// Registers written anywhere in a subtree (a `For` writes its loop
/// variable; a `Select` writes its destination; `Load` writes its
/// destination).
fn writes_of(nodes: &[Node], set: &mut HashSet<u16>) {
    for n in nodes {
        match n {
            Node::Op(op) => {
                if let Some(d) = op_dst(op) {
                    set.insert(d);
                }
            }
            Node::If { t, e, .. } => {
                writes_of(t, set);
                writes_of(e, set);
            }
            Node::Select { dst, t, f, .. } => {
                set.insert(*dst);
                writes_of(t, set);
                writes_of(f, set);
            }
            Node::For { var, hi, step, body, .. } => {
                set.insert(*var);
                writes_of(hi, set);
                writes_of(step, set);
                writes_of(body, set);
            }
            Node::While { c, body, .. } => {
                writes_of(c, set);
                writes_of(body, set);
            }
        }
    }
}

/// Destination register of a plain op, if it writes one.
fn op_dst(op: &Op) -> Option<u16> {
    match *op {
        Op::ConstF { dst, .. }
        | Op::ConstI { dst, .. }
        | Op::ConstB { dst, .. }
        | Op::Copy { dst, .. }
        | Op::AsInt { dst, .. }
        | Op::Un { dst, .. }
        | Op::Bin { dst, .. }
        | Op::CastI { dst, .. }
        | Op::CastF { dst, .. }
        | Op::Intrin { dst, .. }
        | Op::Load { dst, .. } => Some(dst),
        Op::Ops { .. } | Op::Store { .. } | Op::CritEnter | Op::CritExit => None,
        // Headers never reach op_dst: parse_block turns them into Nodes.
        Op::If { .. } | Op::Select { .. } | Op::For { .. } | Op::While { .. } => None,
    }
}

/// Count reads of register `r` across a subtree, including header reads
/// (`For` reads its variable, bound and step; `If`/`While`/`Select` read
/// their condition; `Select`'s mux reads both arm registers).
fn count_reads(nodes: &[Node], pool: &[u16], r: u16) -> u64 {
    let mut n = 0u64;
    for node in nodes {
        match node {
            Node::Op(op) => n += op_reads(op, pool, r),
            Node::If { cond, t, e, .. } => {
                n += u64::from(*cond == r);
                n += count_reads(t, pool, r) + count_reads(e, pool, r);
            }
            Node::Select { cond, t_reg, f_reg, t, f, .. } => {
                n += u64::from(*cond == r) + u64::from(*t_reg == r) + u64::from(*f_reg == r);
                n += count_reads(t, pool, r) + count_reads(f, pool, r);
            }
            Node::For { var, hi_reg, step_reg, hi, step, body } => {
                n += u64::from(*var == r) + u64::from(*hi_reg == r) + u64::from(*step_reg == r);
                n += count_reads(hi, pool, r) + count_reads(step, pool, r) + count_reads(body, pool, r);
            }
            Node::While { cond, c, body } => {
                n += u64::from(*cond == r);
                n += count_reads(c, pool, r) + count_reads(body, pool, r);
            }
        }
    }
    n
}

fn op_reads(op: &Op, pool: &[u16], r: u16) -> u64 {
    let pool_hits =
        |off: u32, len: u8| pool[off as usize..off as usize + len as usize].iter().filter(|&&x| x == r).count() as u64;
    match *op {
        Op::ConstF { .. } | Op::ConstI { .. } | Op::ConstB { .. } | Op::Ops { .. } => 0,
        Op::CritEnter | Op::CritExit => 0,
        Op::Copy { src, .. } => u64::from(src == r),
        Op::AsInt { a, .. } | Op::Un { a, .. } | Op::CastI { a, .. } | Op::CastF { a, .. } => u64::from(a == r),
        Op::Bin { a, b, .. } => u64::from(a == r) + u64::from(b == r),
        Op::Intrin { args_off, args_len, .. } => pool_hits(args_off, args_len),
        Op::Load { idx_off, idx_len, .. } => pool_hits(idx_off, idx_len),
        Op::Store { src, idx_off, idx_len, .. } => u64::from(src == r) + pool_hits(idx_off, idx_len),
        Op::If { .. } | Op::Select { .. } | Op::For { .. } | Op::While { .. } => 0,
    }
}

/// Count writes of register `r` across a subtree.
fn count_writes(nodes: &[Node], r: u16) -> u64 {
    let mut n = 0u64;
    for node in nodes {
        match node {
            Node::Op(op) => n += u64::from(op_dst(op) == Some(r)),
            Node::If { t, e, .. } => n += count_writes(t, r) + count_writes(e, r),
            Node::Select { dst, t, f, .. } => {
                n += u64::from(*dst == r) + count_writes(t, r) + count_writes(f, r);
            }
            Node::For { var, hi, step, body, .. } => {
                n += u64::from(*var == r) + count_writes(hi, r) + count_writes(step, r) + count_writes(body, r);
            }
            Node::While { c, body, .. } => n += count_writes(c, r) + count_writes(body, r),
        }
    }
    n
}

// ---------------------------------------------------------------------------
// Constant registers
// ---------------------------------------------------------------------------

/// Hashable identity of a pooled constant (floats keyed by bit pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KV {
    F(u64),
    I(i64),
    B(bool),
}

impl KV {
    fn of(v: Value) -> KV {
        match v {
            Value::F(x) => KV::F(x.to_bits()),
            Value::I(x) => KV::I(x),
            Value::B(x) => KV::B(x),
        }
    }
}

/// Tracks the launch-constant registers (seeded from `const_init`) and
/// mints new ones for values the optimizer materializes (folded constants,
/// strength-reduction coefficients).
struct ConstMinter {
    by_val: HashMap<KV, u16>,
    val_of: HashMap<u16, Value>,
    const_init: Vec<(u16, Value)>,
    nregs: u16,
}

impl ConstMinter {
    fn new(bc: &KernelBytecode) -> ConstMinter {
        let mut by_val = HashMap::new();
        let mut val_of = HashMap::new();
        for &(r, v) in &bc.const_init {
            by_val.entry(KV::of(v)).or_insert(r);
            val_of.insert(r, v);
        }
        ConstMinter { by_val, val_of, const_init: bc.const_init.clone(), nregs: bc.nregs }
    }

    /// Constant value held by register `r`, if it is a pooled constant.
    fn value_of(&self, r: u16) -> Option<Value> {
        self.val_of.get(&r).copied()
    }

    /// Register holding `v`, minting a fresh launch constant if needed.
    /// `None` when the register file is full (the caller skips the rewrite).
    fn reg_for(&mut self, v: Value) -> Option<u16> {
        if let Some(&r) = self.by_val.get(&KV::of(v)) {
            return Some(r);
        }
        if self.nregs > u16::MAX - 8 {
            return None;
        }
        let r = self.nregs;
        self.nregs += 1;
        self.by_val.insert(KV::of(v), r);
        self.val_of.insert(r, v);
        self.const_init.push((r, v));
        Some(r)
    }
}

// ---------------------------------------------------------------------------
// CSE + constant folding
// ---------------------------------------------------------------------------

/// Value-numbering key of a pure computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CseKey {
    /// Shared by `AsInt` and `CastI` — both compute `Value::I(a.as_i())`.
    AsI(u32),
    AsF(u32),
    Un(UnOp, u32),
    /// No commutative canonicalization: float `Add`/`Mul` on NaN payloads
    /// must keep the original operand order bit-exactly.
    Bin(BinOp, u32, u32),
    Intr(Intrin, [u32; 4], u8),
}

struct Cse<'a> {
    pool: &'a [u16],
    /// Current value number of each register.
    vn: Vec<u32>,
    next_vn: u32,
    /// Computation -> (register, value number at recording time); stale
    /// entries are detected lazily by `vn[reg] != recorded`.
    table: HashMap<CseKey, (u16, u32)>,
    /// Value number -> known constant value (monotone: a value number's
    /// constant never changes, so this map is never invalidated).
    konst: HashMap<u32, Value>,
    kvn: HashMap<KV, u32>,
    hits: u64,
    folded: u64,
}

impl<'a> Cse<'a> {
    fn new(bc: &'a KernelBytecode, minter: &ConstMinter) -> Cse<'a> {
        let mut s = Cse {
            pool: &bc.pool,
            vn: Vec::new(),
            next_vn: 0,
            table: HashMap::new(),
            konst: HashMap::new(),
            kvn: HashMap::new(),
            hits: 0,
            folded: 0,
        };
        s.vn = (0..bc.nregs as u32).collect();
        s.next_vn = bc.nregs as u32;
        // Seed constant registers with value numbers tied to their values,
        // so equal literals in different registers already share a number.
        for (&r, &v) in &minter.val_of {
            let n = s.vn_of_value(v);
            s.vn[r as usize] = n;
        }
        s
    }

    fn fresh(&mut self) -> u32 {
        let n = self.next_vn;
        self.next_vn += 1;
        n
    }

    /// Value number of a known constant (allocating and recording it).
    fn vn_of_value(&mut self, v: Value) -> u32 {
        let key = KV::of(v);
        if let Some(&n) = self.kvn.get(&key) {
            return n;
        }
        let n = self.fresh();
        self.kvn.insert(key, n);
        self.konst.insert(n, v);
        n
    }

    /// Fold a pure op whose operands are all known constants, refusing any
    /// fold that could trap differently from runtime evaluation (integer
    /// div/rem edge cases, out-of-range shifts, `i64::MIN` negation/abs).
    fn try_fold(&self, op: &Op, operand_vns: &[u32]) -> Option<Value> {
        let val = |i: usize| self.konst.get(&operand_vns[i]).copied();
        match *op {
            Op::AsInt { .. } | Op::CastI { .. } => Some(Value::I(val(0)?.as_i())),
            Op::CastF { .. } => Some(Value::F(val(0)?.as_f())),
            Op::Un { op: u, .. } => {
                let x = val(0)?;
                match u {
                    UnOp::Neg => match x {
                        Value::I(i) if i == i64::MIN => None,
                        Value::I(i) => Some(Value::I(-i)),
                        v => Some(Value::F(-v.as_f())),
                    },
                    UnOp::Not => Some(Value::B(!x.as_b())),
                }
            }
            Op::Bin { op: b, .. } => {
                let (x, y) = (val(0)?, val(1)?);
                let both_int = matches!(x, Value::I(_) | Value::B(_)) && matches!(y, Value::I(_) | Value::B(_));
                match b {
                    BinOp::Div | BinOp::Rem if both_int => {
                        let (a, d) = (x.as_i(), y.as_i());
                        if d == 0 || (a == i64::MIN && d == -1) {
                            return None;
                        }
                        Some(eval_bin(b, x, y))
                    }
                    BinOp::Shl | BinOp::Shr => {
                        let sh = y.as_i();
                        if !(0..64).contains(&sh) {
                            return None;
                        }
                        Some(eval_bin(b, x, y))
                    }
                    _ => Some(eval_bin(b, x, y)),
                }
            }
            Op::Intrin { f, args_len, .. } => {
                let mut vals = [Value::I(0); 4];
                for (k, slot) in vals.iter_mut().enumerate().take(args_len as usize) {
                    *slot = val(k)?;
                }
                if f == Intrin::Abs {
                    if let Value::I(i) = vals[0] {
                        if i == i64::MIN {
                            return None;
                        }
                    }
                }
                Some(eval_intrin(f, &vals[..args_len as usize]))
            }
            _ => None,
        }
    }

    /// Process a constant assignment to `dst`: drop it when the register
    /// already holds that value, else emit and record.
    fn put_const(&mut self, out: &mut Vec<Node>, emit: Op, dst: u16, v: Value, from_fold: bool) {
        let n = self.vn_of_value(v);
        if self.vn[dst as usize] == n {
            // Register already holds this value on every active lane.
            if from_fold {
                self.folded += 1;
            } else {
                self.hits += 1;
            }
            return;
        }
        if from_fold {
            self.folded += 1;
        }
        self.vn[dst as usize] = n;
        out.push(Node::Op(emit));
    }

    fn block(&mut self, nodes: Vec<Node>) -> Vec<Node> {
        let mut out = Vec::new();
        for node in nodes {
            match node {
                Node::Op(op) => self.op(&mut out, op),
                Node::If { cond, site, t, e } => {
                    let pre = self.vn.clone();
                    let t2 = self.block(t);
                    let vn_t = std::mem::replace(&mut self.vn, pre);
                    let e2 = self.block(e);
                    for (r, &vt) in vn_t.iter().enumerate() {
                        if self.vn[r] != vt {
                            self.vn[r] = self.fresh();
                        }
                    }
                    out.push(Node::If { cond, site, t: t2, e: e2 });
                }
                Node::Select { cond, dst, t_reg, f_reg, t, f } => {
                    let pre = self.vn.clone();
                    let t2 = self.block(t);
                    let vn_t = std::mem::replace(&mut self.vn, pre);
                    let f2 = self.block(f);
                    for (r, &vt) in vn_t.iter().enumerate() {
                        if self.vn[r] != vt {
                            self.vn[r] = self.fresh();
                        }
                    }
                    // The mux writes dst per lane from whichever arm ran.
                    self.vn[dst as usize] = self.fresh();
                    out.push(Node::Select { cond, dst, t_reg, f_reg, t: t2, f: f2 });
                }
                Node::For { var, hi_reg, step_reg, hi, step, body } => {
                    let mut ws = HashSet::new();
                    ws.insert(var);
                    writes_of(&hi, &mut ws);
                    writes_of(&step, &mut ws);
                    writes_of(&body, &mut ws);
                    // Fresh numbers before: loop-carried registers must not
                    // match pre-loop computations inside the body.
                    for &r in &ws {
                        self.vn[r as usize] = self.fresh();
                    }
                    // Process in per-iteration execution order (hi block,
                    // body, step block) so within-iteration reuse is exact.
                    let hi2 = self.block(hi);
                    let body2 = self.block(body);
                    let step2 = self.block(step);
                    // Fresh numbers after: a zero-trip loop leaves body
                    // writes unexecuted, so nothing the body computed may be
                    // reused past the loop.
                    for &r in &ws {
                        self.vn[r as usize] = self.fresh();
                    }
                    out.push(Node::For { var, hi_reg, step_reg, hi: hi2, step: step2, body: body2 });
                }
                Node::While { cond, c, body } => {
                    let mut ws = HashSet::new();
                    writes_of(&c, &mut ws);
                    writes_of(&body, &mut ws);
                    for &r in &ws {
                        self.vn[r as usize] = self.fresh();
                    }
                    let c2 = self.block(c);
                    let body2 = self.block(body);
                    for &r in &ws {
                        self.vn[r as usize] = self.fresh();
                    }
                    out.push(Node::While { cond, c: c2, body: body2 });
                }
            }
        }
        out
    }

    fn op(&mut self, out: &mut Vec<Node>, op: Op) {
        match op {
            Op::ConstF { dst, v } => self.put_const(out, op, dst, Value::F(v), false),
            Op::ConstI { dst, v } => self.put_const(out, op, dst, Value::I(v), false),
            Op::ConstB { dst, v } => self.put_const(out, op, dst, Value::B(v), false),
            Op::Copy { dst, src } => {
                if self.vn[dst as usize] == self.vn[src as usize] {
                    self.hits += 1;
                    return;
                }
                self.vn[dst as usize] = self.vn[src as usize];
                out.push(Node::Op(op));
            }
            Op::AsInt { dst, a } | Op::CastI { dst, a } => {
                let key = CseKey::AsI(self.vn[a as usize]);
                self.pure(out, op, dst, key, &[self.vn[a as usize]]);
            }
            Op::CastF { dst, a } => {
                let key = CseKey::AsF(self.vn[a as usize]);
                self.pure(out, op, dst, key, &[self.vn[a as usize]]);
            }
            Op::Un { dst, op: u, a } => {
                let key = CseKey::Un(u, self.vn[a as usize]);
                self.pure(out, op, dst, key, &[self.vn[a as usize]]);
            }
            Op::Bin { dst, op: b, a, b: rb } => {
                let (va, vb) = (self.vn[a as usize], self.vn[rb as usize]);
                let key = CseKey::Bin(b, va, vb);
                self.pure(out, op, dst, key, &[va, vb]);
            }
            Op::Intrin { dst, f, args_off, args_len } => {
                let mut avns = [u32::MAX; 4];
                let mut ops = [0u32; 4];
                for k in 0..args_len as usize {
                    let r = self.pool[args_off as usize + k];
                    avns[k] = self.vn[r as usize];
                    ops[k] = avns[k];
                }
                let key = CseKey::Intr(f, avns, args_len);
                self.pure(out, op, dst, key, &ops[..args_len as usize]);
            }
            Op::Load { dst, .. } => {
                // Loads are never CSE'd or folded: every execution records a
                // trace/fast-row entry and may observe earlier stores.
                self.vn[dst as usize] = self.fresh();
                out.push(Node::Op(op));
            }
            Op::Ops { .. } | Op::Store { .. } | Op::CritEnter | Op::CritExit => out.push(Node::Op(op)),
            Op::If { .. } | Op::Select { .. } | Op::For { .. } | Op::While { .. } => {
                unreachable!("headers arrive as structured nodes")
            }
        }
    }

    /// Handle a pure computation into `dst`: fold, reuse, or emit+record.
    fn pure(&mut self, out: &mut Vec<Node>, op: Op, dst: u16, key: CseKey, operand_vns: &[u32]) {
        if operand_vns.iter().all(|n| self.konst.contains_key(n)) {
            if let Some(v) = self.try_fold(&op, operand_vns) {
                let emit = match v {
                    Value::F(x) => Op::ConstF { dst, v: x },
                    Value::I(x) => Op::ConstI { dst, v: x },
                    Value::B(x) => Op::ConstB { dst, v: x },
                };
                self.put_const(out, emit, dst, v, true);
                return;
            }
        }
        if let Some(&(reg, n)) = self.table.get(&key) {
            if self.vn[reg as usize] == n {
                self.hits += 1;
                if self.vn[dst as usize] != n {
                    self.vn[dst as usize] = n;
                    out.push(Node::Op(Op::Copy { dst, src: reg }));
                }
                return;
            }
        }
        let n = self.fresh();
        self.vn[dst as usize] = n;
        self.table.insert(key, (dst, n));
        out.push(Node::Op(op));
    }
}

// ---------------------------------------------------------------------------
// Affine strength reduction
// ---------------------------------------------------------------------------

/// Fixpoint analysis: which registers hold an `I`-tagged `Value` at every
/// write (and at launch/warp initialization). Only strict `I` counts —
/// `B` demotes, because `eval_bin`'s integer lane accepts it but the affine
/// rewrite must produce the exact tags the original ops produced.
fn int_always(prog: &Program, bc: &KernelBytecode, root: &[Node]) -> Vec<bool> {
    let n = bc.nregs as usize;
    let mut ia = vec![true; n];
    // Seeds outside the instruction stream.
    for &(r, v) in &bc.const_init {
        if !matches!(v, Value::I(_)) {
            ia[r as usize] = false;
        }
    }
    for list in [&bc.scal_init_launch, &bc.scal_init_warp] {
        for &(slot, r) in list {
            if prog.scalars[slot as usize].is_float {
                ia[r as usize] = false;
            }
        }
    }
    // Axis registers are written `Value::I` by the launch prologue.
    loop {
        let mut changed = false;
        int_always_walk(prog, bc, root, &mut ia, &mut changed);
        if !changed {
            break;
        }
    }
    ia
}

fn int_always_walk(prog: &Program, bc: &KernelBytecode, nodes: &[Node], ia: &mut [bool], changed: &mut bool) {
    fn demote(ia: &mut [bool], changed: &mut bool, r: u16, ok: bool) {
        if !ok && ia[r as usize] {
            ia[r as usize] = false;
            *changed = true;
        }
    }
    for node in nodes {
        match node {
            Node::Op(op) => match *op {
                Op::ConstI { .. } => {}
                Op::ConstF { dst, .. } | Op::ConstB { dst, .. } => demote(ia, changed, dst, false),
                Op::Copy { dst, src } => {
                    let ok = ia[src as usize];
                    demote(ia, changed, dst, ok);
                }
                Op::AsInt { .. } | Op::CastI { .. } => {}
                Op::CastF { dst, .. } => demote(ia, changed, dst, false),
                Op::Un { dst, op: u, a } => {
                    let ok = matches!(u, UnOp::Neg) && ia[a as usize];
                    demote(ia, changed, dst, ok);
                }
                Op::Bin { dst, op: b, a, b: rb } => {
                    let ok = match b {
                        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem | BinOp::Min | BinOp::Max => {
                            ia[a as usize] && ia[rb as usize]
                        }
                        BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => true,
                        _ => false,
                    };
                    demote(ia, changed, dst, ok);
                }
                Op::Intrin { dst, f, args_off, .. } => {
                    let a0 = bc.pool[args_off as usize];
                    let ok = f == Intrin::Abs && ia[a0 as usize];
                    demote(ia, changed, dst, ok);
                }
                Op::Load { dst, arr, .. } => {
                    let ok = !prog.array_elem(ArrayId(arr as u32)).is_float();
                    demote(ia, changed, dst, ok);
                }
                _ => {}
            },
            Node::If { t, e, .. } => {
                int_always_walk(prog, bc, t, ia, changed);
                int_always_walk(prog, bc, e, ia, changed);
            }
            Node::Select { dst, t_reg, f_reg, t, f, .. } => {
                int_always_walk(prog, bc, t, ia, changed);
                int_always_walk(prog, bc, f, ia, changed);
                let ok = ia[*t_reg as usize] && ia[*f_reg as usize];
                demote(ia, changed, *dst, ok);
            }
            Node::For { hi, step, body, .. } => {
                // The loop variable is written `Value::I` by the increment
                // and the `AsInt` init: stays int.
                int_always_walk(prog, bc, hi, ia, changed);
                int_always_walk(prog, bc, step, ia, changed);
                int_always_walk(prog, bc, body, ia, changed);
            }
            Node::While { c, body, .. } => {
                int_always_walk(prog, bc, c, ia, changed);
                int_always_walk(prog, bc, body, ia, changed);
            }
        }
    }
}

/// Rewrite affine loop-body chains (`dst = c1*var + base` with everything
/// in `base` loop-invariant) into an init before the loop plus one
/// incremental add at the end of the body. Sound per lane under divergent
/// trip counts: the init and increment run under exactly the masks the
/// original chain ran under (loop entry and body), and all reads of `dst`
/// occur after its original definition point in the body.
fn strength_reduce(bc: &KernelBytecode, root: &mut Vec<Node>, ia: &[bool], minter: &mut ConstMinter) -> u64 {
    let mut n = 0;
    sr_block(bc, root, ia, minter, &mut n);
    n
}

fn sr_block(bc: &KernelBytecode, nodes: &mut Vec<Node>, ia: &[bool], minter: &mut ConstMinter, n: &mut u64) {
    let mut i = 0;
    while i < nodes.len() {
        // Recurse first so inner loops are reduced before outer ones scan.
        match &mut nodes[i] {
            Node::If { t, e, .. } => {
                sr_block(bc, t, ia, minter, n);
                sr_block(bc, e, ia, minter, n);
            }
            Node::Select { t, f, .. } => {
                sr_block(bc, t, ia, minter, n);
                sr_block(bc, f, ia, minter, n);
            }
            Node::While { c, body, .. } => {
                sr_block(bc, c, ia, minter, n);
                sr_block(bc, body, ia, minter, n);
            }
            Node::For { hi, step, body, .. } => {
                sr_block(bc, hi, ia, minter, n);
                sr_block(bc, step, ia, minter, n);
                sr_block(bc, body, ia, minter, n);
            }
            Node::Op(_) => {}
        }
        if let Node::For { .. } = nodes[i] {
            let inits = sr_for(bc, nodes, i, ia, minter, n);
            // Splice the init ops in front of the loop header.
            let at = i;
            i += inits.len();
            for (k, op) in inits.into_iter().enumerate() {
                nodes.insert(at + k, Node::Op(op));
            }
        }
        i += 1;
    }
}

/// Try to strength-reduce candidates inside the `For` at `nodes[at]`;
/// returns the init ops to insert before it.
fn sr_for(
    bc: &KernelBytecode,
    nodes: &mut [Node],
    at: usize,
    ia: &[bool],
    minter: &mut ConstMinter,
    n: &mut u64,
) -> Vec<Op> {
    let Node::For { var, hi_reg, step_reg, step, .. } = &nodes[at] else {
        return Vec::new();
    };
    let (var, hi_reg, step_reg) = (*var, *hi_reg, *step_reg);
    // Only constant-step loops with no per-iteration step block: the
    // increment delta must be a launch-time constant.
    if !step.is_empty() {
        return Vec::new();
    }
    let Some(Value::I(st)) = minter.value_of(step_reg) else {
        return Vec::new();
    };
    let mut ws = HashSet::new();
    ws.insert(var);
    if let Node::For { hi, step, body, .. } = &nodes[at] {
        writes_of(hi, &mut ws);
        writes_of(step, &mut ws);
        writes_of(body, &mut ws);
    }

    // Scan top-level body ops for affine forms in `var`.
    let mut forms: HashMap<u16, Aff> = HashMap::new();
    let mut sinks: Vec<(usize, u16, Aff)> = Vec::new();
    {
        let Node::For { body, .. } = &nodes[at] else { unreachable!() };
        for (idx, node) in body.iter().enumerate() {
            match node {
                Node::Op(Op::Bin { dst, op, a, b }) if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) => {
                    let fa = aff_of(*a, var, &forms, &ws, ia, minter);
                    let fb = aff_of(*b, var, &forms, &ws, ia, minter);
                    let combined = match (fa, fb) {
                        (Some(x), Some(y)) => match op {
                            BinOp::Add => x.add(y),
                            BinOp::Sub => x.sub(y),
                            BinOp::Mul => x.mul(y),
                            _ => unreachable!(),
                        },
                        _ => None,
                    };
                    match combined {
                        Some(f) => {
                            forms.insert(*dst, f);
                            sinks.push((idx, *dst, f));
                        }
                        None => {
                            forms.remove(dst);
                        }
                    }
                }
                Node::Op(op) => {
                    if let Some(d) = op_dst(op) {
                        forms.remove(&d);
                    }
                }
                other => {
                    let mut sub = HashSet::new();
                    writes_of(std::slice::from_ref(other), &mut sub);
                    for d in sub {
                        forms.remove(&d);
                    }
                }
            }
        }
    }

    // Filter to applicable candidates and apply, last sink first so body
    // indices stay valid while removing.
    let mut inits: Vec<Op> = Vec::new();
    sinks.retain(|&(idx, dst, f)| {
        if f.c1 == 0 || dst < bc.temp_base || dst == var || dst == hi_reg || dst == step_reg {
            return false;
        }
        // The last recorded form for dst must be this sink (an earlier
        // tentative form may have been overwritten by a later one).
        if forms.get(&dst) != Some(&f) {
            return false;
        }
        let Node::For { body, .. } = &nodes[at] else { unreachable!() };
        // Exactly one write anywhere in the function, and every read of dst
        // happens strictly after the sink within the body: then replacing
        // the sink with init+increment is observationally equivalent.
        if count_writes(std::slice::from_ref(&nodes[at]), dst) != 1 {
            return false;
        }
        let total = count_reads(nodes, &bc.pool, dst);
        let after = count_reads(&body[idx + 1..], &bc.pool, dst);
        total == after
    });
    // Keep only the last surviving sink per dst (forms check above already
    // enforces uniqueness, but be explicit about duplicates).
    let mut seen_dst = HashSet::new();
    sinks.retain(|&(_, dst, _)| seen_dst.insert(dst));

    sinks.sort_by_key(|x| std::cmp::Reverse(x.0));
    for (idx, dst, f) in sinks {
        let delta = f.c1.wrapping_mul(st);
        // Mint constant registers up front; skip the candidate if full.
        let c1_reg = if f.c1 == 1 { None } else { Some(minter.reg_for(Value::I(f.c1))) };
        if matches!(c1_reg, Some(None)) {
            continue;
        }
        let delta_reg = if delta == 0 { None } else { Some(minter.reg_for(Value::I(delta))) };
        if matches!(delta_reg, Some(None)) {
            continue;
        }
        let base_regs = match f.base {
            AffBase::Const(0) => Ok(Vec::new()),
            AffBase::Const(k) => match minter.reg_for(Value::I(k)) {
                Some(r) => Ok(vec![r]),
                None => Err(()),
            },
            AffBase::RegConst(r, 0) => Ok(vec![r]),
            AffBase::RegConst(r, k) => match minter.reg_for(Value::I(k)) {
                Some(kr) => Ok(vec![r, kr]),
                None => Err(()),
            },
        };
        let Ok(base_regs) = base_regs else { continue };

        let Node::For { body, .. } = &mut nodes[at] else { unreachable!() };
        body.remove(idx);
        match c1_reg {
            None => inits.push(Op::Copy { dst, src: var }),
            Some(Some(cr)) => inits.push(Op::Bin { dst, op: BinOp::Mul, a: var, b: cr }),
            Some(None) => unreachable!(),
        }
        for r in base_regs {
            inits.push(Op::Bin { dst, op: BinOp::Add, a: dst, b: r });
        }
        if let Some(Some(dr)) = delta_reg {
            body.push(Node::Op(Op::Bin { dst, op: BinOp::Add, a: dst, b: dr }));
        }
        *n += 1;
    }
    inits
}

/// Affine view of an operand register inside a loop on `var`.
fn aff_of(
    r: u16,
    var: u16,
    forms: &HashMap<u16, Aff>,
    ws: &HashSet<u16>,
    ia: &[bool],
    minter: &ConstMinter,
) -> Option<Aff> {
    if r == var {
        return Some(Aff::var());
    }
    if let Some(f) = forms.get(&r) {
        return Some(*f);
    }
    if ws.contains(&r) {
        return None;
    }
    if let Some(Value::I(k)) = minter.value_of(r) {
        return Some(Aff::konst(k));
    }
    if ia[r as usize] {
        return Some(Aff::reg(r));
    }
    None
}

// ---------------------------------------------------------------------------
// Uniformity-driven hoisting
// ---------------------------------------------------------------------------

/// Move launch-uniform top-level instructions into the prelude. Returns the
/// prelude ops (in execution order) and their destination registers.
///
/// Eligibility is strict: a whitelisted non-trapping op (the prelude runs
/// unconditionally, even for launches whose grid masks out every lane), all
/// operands uniform (constants, launch-broadcast scalars, earlier hoisted
/// values), a temporary destination written exactly once in the whole
/// stream, and that write is the layout-first access to the register — so
/// no pre-hoist reader could have observed the unwritten register.
fn hoist(bc: &KernelBytecode, root: &mut Vec<Node>) -> (Vec<Op>, Vec<u16>) {
    let mut uniform: HashSet<u16> = HashSet::new();
    for &(r, _) in &bc.const_init {
        uniform.insert(r);
    }
    for &(_, r) in &bc.scal_init_launch {
        uniform.insert(r);
    }

    // Layout-order first access of each register (reads precede the write
    // within one op).
    let mut first: HashMap<u16, (usize, bool)> = HashMap::new();
    let mut ctr = 0usize;
    first_access(root, &bc.pool, &mut first, &mut ctr);

    // Census writes once over the tree, then peel eligible ops off the top
    // level in order (hoisted destinations join the uniform set as we go).
    let mut write_count: HashMap<u16, u64> = HashMap::new();
    write_census(root, &mut write_count);

    let mut prelude = Vec::new();
    let mut dsts = Vec::new();
    let mut kept = Vec::new();
    let mut pos = 0usize;
    for node in std::mem::take(root) {
        let node_pos = pos;
        advance_pos(&node, &mut pos);
        if let Node::Op(op) = &node {
            if hoist_whitelisted(op) && op_operands_uniform(op, &bc.pool, &uniform) {
                if let Some(d) = op_dst(op) {
                    if d >= bc.temp_base
                        && write_count.get(&d).copied().unwrap_or(0) == 1
                        && first.get(&d) == Some(&(node_pos, true))
                    {
                        uniform.insert(d);
                        dsts.push(d);
                        prelude.push(*op);
                        continue;
                    }
                }
            }
        }
        kept.push(node);
    }
    *root = kept;
    (prelude, dsts)
}

/// Structural position advance used by the hoist pass; must mirror
/// `first_access`'s counter exactly.
fn advance_pos(node: &Node, pos: &mut usize) {
    *pos += 1;
    match node {
        Node::Op(_) => {}
        Node::If { t, e, .. } => {
            for sub in t.iter().chain(e) {
                advance_pos(sub, pos);
            }
        }
        Node::Select { t, f, .. } => {
            for sub in t.iter().chain(f) {
                advance_pos(sub, pos);
            }
        }
        Node::For { hi, step, body, .. } => {
            for sub in hi.iter().chain(step).chain(body) {
                advance_pos(sub, pos);
            }
        }
        Node::While { c, body, .. } => {
            for sub in c.iter().chain(body) {
                advance_pos(sub, pos);
            }
        }
    }
}

fn write_census(nodes: &[Node], out: &mut HashMap<u16, u64>) {
    for node in nodes {
        match node {
            Node::Op(op) => {
                if let Some(d) = op_dst(op) {
                    *out.entry(d).or_insert(0) += 1;
                }
            }
            Node::If { t, e, .. } => {
                write_census(t, out);
                write_census(e, out);
            }
            Node::Select { dst, t, f, .. } => {
                *out.entry(*dst).or_insert(0) += 1;
                write_census(t, out);
                write_census(f, out);
            }
            Node::For { var, hi, step, body, .. } => {
                *out.entry(*var).or_insert(0) += 1;
                write_census(hi, out);
                write_census(step, out);
                write_census(body, out);
            }
            Node::While { c, body, .. } => {
                write_census(c, out);
                write_census(body, out);
            }
        }
    }
}

/// Record the layout-order first access (position, was-it-a-write) of every
/// register. Within one op, reads come before the write.
fn first_access(nodes: &[Node], pool: &[u16], first: &mut HashMap<u16, (usize, bool)>, ctr: &mut usize) {
    let read = |r: u16, at: usize, first: &mut HashMap<u16, (usize, bool)>| {
        first.entry(r).or_insert((at, false));
    };
    let write = |r: u16, at: usize, first: &mut HashMap<u16, (usize, bool)>| {
        first.entry(r).or_insert((at, true));
    };
    for node in nodes {
        let at = *ctr;
        *ctr += 1;
        match node {
            Node::Op(op) => {
                for r in op_read_regs(op, pool) {
                    read(r, at, first);
                }
                if let Some(d) = op_dst(op) {
                    write(d, at, first);
                }
            }
            Node::If { cond, t, e, .. } => {
                read(*cond, at, first);
                first_access(t, pool, first, ctr);
                first_access(e, pool, first, ctr);
            }
            Node::Select { cond, dst, t_reg, f_reg, t, f } => {
                read(*cond, at, first);
                first_access(t, pool, first, ctr);
                first_access(f, pool, first, ctr);
                read(*t_reg, at, first);
                read(*f_reg, at, first);
                write(*dst, at, first);
            }
            Node::For { var, hi_reg, step_reg, hi, step, body } => {
                read(*var, at, first);
                read(*hi_reg, at, first);
                read(*step_reg, at, first);
                write(*var, at, first);
                first_access(hi, pool, first, ctr);
                first_access(step, pool, first, ctr);
                first_access(body, pool, first, ctr);
            }
            Node::While { cond, c, body } => {
                read(*cond, at, first);
                first_access(c, pool, first, ctr);
                first_access(body, pool, first, ctr);
            }
        }
    }
}

fn op_read_regs(op: &Op, pool: &[u16]) -> Vec<u16> {
    match *op {
        Op::ConstF { .. } | Op::ConstI { .. } | Op::ConstB { .. } | Op::Ops { .. } => Vec::new(),
        Op::CritEnter | Op::CritExit => Vec::new(),
        Op::Copy { src, .. } => vec![src],
        Op::AsInt { a, .. } | Op::Un { a, .. } | Op::CastI { a, .. } | Op::CastF { a, .. } => vec![a],
        Op::Bin { a, b, .. } => vec![a, b],
        Op::Intrin { args_off, args_len, .. } => {
            pool[args_off as usize..args_off as usize + args_len as usize].to_vec()
        }
        Op::Load { idx_off, idx_len, .. } => pool[idx_off as usize..idx_off as usize + idx_len as usize].to_vec(),
        Op::Store { src, idx_off, idx_len, .. } => {
            let mut v = vec![src];
            v.extend_from_slice(&pool[idx_off as usize..idx_off as usize + idx_len as usize]);
            v
        }
        Op::If { .. } | Op::Select { .. } | Op::For { .. } | Op::While { .. } => Vec::new(),
    }
}

/// Ops safe to run unconditionally in the prelude: no division (by-zero),
/// no shifts (out-of-range), no `Neg`/`Abs` (`i64::MIN`), no loads/stores,
/// no charges.
fn hoist_whitelisted(op: &Op) -> bool {
    match *op {
        Op::ConstF { .. } | Op::ConstI { .. } | Op::ConstB { .. } | Op::Copy { .. } => true,
        Op::AsInt { .. } | Op::CastI { .. } | Op::CastF { .. } => true,
        Op::Un { op: u, .. } => matches!(u, UnOp::Not),
        Op::Bin { op: b, .. } => !matches!(b, BinOp::Div | BinOp::Rem | BinOp::Shl | BinOp::Shr),
        Op::Intrin { f, .. } => f != Intrin::Abs,
        _ => false,
    }
}

fn op_operands_uniform(op: &Op, pool: &[u16], uniform: &HashSet<u16>) -> bool {
    op_read_regs(op, pool).iter().all(|r| uniform.contains(r))
}

// ---------------------------------------------------------------------------
// Dead-register elimination
// ---------------------------------------------------------------------------

/// Remove pure instructions whose destinations are dead, walking each block
/// backward. `live` is the live-out set; returns the number of removals.
fn dce_block(nodes: &mut Vec<Node>, pool: &[u16], mut live: HashSet<u16>) -> u64 {
    let mut removed = 0u64;
    let mut i = nodes.len();
    while i > 0 {
        i -= 1;
        let mut drop_node = false;
        match &mut nodes[i] {
            Node::Op(op) => match *op {
                Op::ConstF { dst, .. }
                | Op::ConstI { dst, .. }
                | Op::ConstB { dst, .. }
                | Op::Copy { dst, .. }
                | Op::AsInt { dst, .. }
                | Op::Un { dst, .. }
                | Op::Bin { dst, .. }
                | Op::CastI { dst, .. }
                | Op::CastF { dst, .. }
                | Op::Intrin { dst, .. } => {
                    if live.contains(&dst) {
                        live.remove(&dst);
                        for r in op_read_regs(op, pool) {
                            live.insert(r);
                        }
                    } else {
                        drop_node = true;
                    }
                }
                Op::Load { dst, .. } => {
                    // Loads always execute (trace side effects); the loaded
                    // register may still be dead afterwards.
                    live.remove(&dst);
                    for r in op_read_regs(op, pool) {
                        live.insert(r);
                    }
                }
                Op::Store { .. } => {
                    for r in op_read_regs(op, pool) {
                        live.insert(r);
                    }
                }
                Op::Ops { .. } | Op::CritEnter | Op::CritExit => {}
                Op::If { .. } | Op::Select { .. } | Op::For { .. } | Op::While { .. } => unreachable!(),
            },
            Node::If { cond, t, e, .. } => {
                let lt = live.clone();
                let le = live.clone();
                removed += dce_block(t, pool, lt);
                removed += dce_block(e, pool, le);
                let mut merged = HashSet::new();
                block_live_in(t, pool, &live, &mut merged);
                block_live_in(e, pool, &live, &mut merged);
                merged.insert(*cond);
                live = merged;
            }
            Node::Select { cond, dst, t_reg, f_reg, t, f } => {
                let mut l2 = live.clone();
                l2.remove(dst);
                l2.insert(*t_reg);
                l2.insert(*f_reg);
                removed += dce_block(t, pool, l2.clone());
                removed += dce_block(f, pool, l2.clone());
                let mut merged = HashSet::new();
                block_live_in(t, pool, &l2, &mut merged);
                block_live_in(f, pool, &l2, &mut merged);
                merged.insert(*cond);
                live = merged;
            }
            Node::For { var, hi_reg, step_reg, hi, step, body } => {
                // Conservative: anything read anywhere in the loop is live
                // throughout (iterations feed each other).
                let mut inner = live.clone();
                subtree_reads(hi, pool, &mut inner);
                subtree_reads(step, pool, &mut inner);
                subtree_reads(body, pool, &mut inner);
                inner.insert(*var);
                inner.insert(*hi_reg);
                inner.insert(*step_reg);
                removed += dce_block(hi, pool, inner.clone());
                removed += dce_block(step, pool, inner.clone());
                removed += dce_block(body, pool, inner.clone());
                live = inner;
            }
            Node::While { cond, c, body } => {
                let mut inner = live.clone();
                subtree_reads(c, pool, &mut inner);
                subtree_reads(body, pool, &mut inner);
                inner.insert(*cond);
                removed += dce_block(c, pool, inner.clone());
                removed += dce_block(body, pool, inner.clone());
                live = inner;
            }
        }
        if drop_node {
            nodes.remove(i);
            removed += 1;
        }
    }
    removed
}

/// Live-in of a straight-line block given its live-out, ignoring removals
/// (used to merge branch arms after their own DCE ran).
fn block_live_in(nodes: &[Node], pool: &[u16], live_out: &HashSet<u16>, out: &mut HashSet<u16>) {
    let mut live = live_out.clone();
    let mut i = nodes.len();
    while i > 0 {
        i -= 1;
        match &nodes[i] {
            Node::Op(op) => {
                if let Some(d) = op_dst(op) {
                    live.remove(&d);
                }
                for r in op_read_regs(op, pool) {
                    live.insert(r);
                }
            }
            other => {
                // Nested structure: fold in everything it reads, drop
                // nothing (conservative).
                let mut sub = HashSet::new();
                subtree_reads(std::slice::from_ref(other), pool, &mut sub);
                live.extend(sub);
                match other {
                    Node::If { cond, .. } | Node::While { cond, .. } | Node::Select { cond, .. } => {
                        live.insert(*cond);
                    }
                    Node::For { var, hi_reg, step_reg, .. } => {
                        live.insert(*var);
                        live.insert(*hi_reg);
                        live.insert(*step_reg);
                    }
                    Node::Op(_) => {}
                }
            }
        }
    }
    out.extend(live);
}

/// Every register read anywhere in a subtree (headers included).
fn subtree_reads(nodes: &[Node], pool: &[u16], out: &mut HashSet<u16>) {
    for node in nodes {
        match node {
            Node::Op(op) => out.extend(op_read_regs(op, pool)),
            Node::If { cond, t, e, .. } => {
                out.insert(*cond);
                subtree_reads(t, pool, out);
                subtree_reads(e, pool, out);
            }
            Node::Select { cond, t_reg, f_reg, t, f, .. } => {
                out.insert(*cond);
                out.insert(*t_reg);
                out.insert(*f_reg);
                subtree_reads(t, pool, out);
                subtree_reads(f, pool, out);
            }
            Node::For { var, hi_reg, step_reg, hi, step, body } => {
                out.insert(*var);
                out.insert(*hi_reg);
                out.insert(*step_reg);
                subtree_reads(hi, pool, out);
                subtree_reads(step, pool, out);
                subtree_reads(body, pool, out);
            }
            Node::While { cond, c, body } => {
                out.insert(*cond);
                subtree_reads(c, pool, out);
                subtree_reads(body, pool, out);
            }
        }
    }
}

/// Record `r` as a loop live-in unless every path already wrote it.
fn livein_rd(r: u16, written: &HashSet<u16>, livein: &mut HashSet<u16>) {
    if !written.contains(&r) {
        livein.insert(r);
    }
}

/// Walk a subtree in execution order, recording registers read before any
/// guaranteed write. `written` holds registers written on every path since
/// the scan began; writes under a zero-or-more-trip construct (a nested loop
/// body) are not guaranteed to happen and stay out of it.
fn livein_scan(nodes: &[Node], pool: &[u16], written: &mut HashSet<u16>, livein: &mut HashSet<u16>) {
    for node in nodes {
        match node {
            Node::Op(op) => {
                for r in op_read_regs(op, pool) {
                    livein_rd(r, written, livein);
                }
                if let Some(d) = op_dst(op) {
                    written.insert(d);
                }
            }
            Node::If { cond, t, e, .. } => {
                livein_rd(*cond, written, livein);
                let mut wt = written.clone();
                livein_scan(t, pool, &mut wt, livein);
                let mut we = written.clone();
                livein_scan(e, pool, &mut we, livein);
                *written = wt.intersection(&we).copied().collect();
            }
            Node::Select { cond, dst, t_reg, f_reg, t, f } => {
                livein_rd(*cond, written, livein);
                let mut wt = written.clone();
                livein_scan(t, pool, &mut wt, livein);
                livein_rd(*t_reg, &wt, livein);
                let mut wf = written.clone();
                livein_scan(f, pool, &mut wf, livein);
                livein_rd(*f_reg, &wf, livein);
                *written = wt.intersection(&wf).copied().collect();
                written.insert(*dst);
            }
            Node::For { var, hi_reg, step_reg, hi, step, body } => {
                // The bound block runs whenever the header is reached.
                livein_scan(hi, pool, written, livein);
                livein_rd(*var, written, livein);
                livein_rd(*hi_reg, written, livein);
                // Body, step block and increment run zero or more times:
                // collect their reads but discard their writes.
                let mut wb = written.clone();
                livein_scan(body, pool, &mut wb, livein);
                livein_scan(step, pool, &mut wb, livein);
                livein_rd(*var, &wb, livein);
                livein_rd(*step_reg, &wb, livein);
            }
            Node::While { cond, c, body } => {
                livein_scan(c, pool, written, livein);
                livein_rd(*cond, written, livein);
                let mut wb = written.clone();
                livein_scan(body, pool, &mut wb, livein);
            }
        }
    }
}

/// Registers one `For` iteration reads before writing, in execution order: bound
/// block, bound check, body, step block, increment. These are the loop's
/// carried dependencies; everything else written inside is rebound fresh
/// each iteration and may change bank freely.
fn for_livein(
    var: u16,
    hi_reg: u16,
    step_reg: u16,
    hi: &[Node],
    step: &[Node],
    body: &[Node],
    pool: &[u16],
) -> HashSet<u16> {
    let mut written = HashSet::new();
    let mut livein = HashSet::new();
    livein_scan(hi, pool, &mut written, &mut livein);
    livein_rd(var, &written, &mut livein);
    livein_rd(hi_reg, &written, &mut livein);
    livein_scan(body, pool, &mut written, &mut livein);
    livein_scan(step, pool, &mut written, &mut livein);
    livein_rd(var, &written, &mut livein);
    livein_rd(step_reg, &written, &mut livein);
    livein
}

/// Registers one `While` iteration reads before writing (condition block,
/// condition check, then body).
fn while_livein(cond: u16, c: &[Node], body: &[Node], pool: &[u16]) -> HashSet<u16> {
    let mut written = HashSet::new();
    let mut livein = HashSet::new();
    livein_scan(c, pool, &mut written, &mut livein);
    livein_rd(cond, &written, &mut livein);
    livein_scan(body, pool, &mut written, &mut livein);
    livein
}

// ---------------------------------------------------------------------------
// Typed-bank lowering
// ---------------------------------------------------------------------------

/// Flow-sensitive bank state of one register during lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    /// Never written on this path (and not seeded).
    Unset,
    /// Written with different banks on merging paths, or unknowable after a
    /// loop; any read fails the lowering.
    Conflict,
    Known(Bank),
}

struct Lower<'a> {
    prog: &'a Program,
    bc: &'a KernelBytecode,
    ty: Vec<Ty>,
    code: Vec<TOp>,
    pool: Vec<u16>,
    nregs: u16,
}

/// Lower the optimized stream onto typed banks. `None` when any register's
/// tag cannot be proven stable — the plan's launches run on the tree walker.
fn lower_typed(prog: &Program, bc: &KernelBytecode, prelude: &[Op], root: &[Node]) -> Option<TypedKernel> {
    let mut lw =
        Lower { prog, bc, ty: vec![Ty::Unset; bc.nregs as usize], code: Vec::new(), pool: Vec::new(), nregs: bc.nregs };
    // Seeds: constants by tag, scalars by declared type, axis registers
    // (written into the I bank by the launch prologue each warp) as integers.
    for &(r, v) in &bc.const_init {
        lw.ty[r as usize] = Ty::Known(match v {
            Value::F(_) => Bank::F,
            Value::I(_) => Bank::I,
            Value::B(_) => Bank::B,
        });
    }
    let mut warp_imports: Vec<(u16, Bank)> = Vec::new();
    let mut launch_imports: Vec<(u16, Bank)> = Vec::new();
    for &(slot, r) in &bc.scal_init_launch {
        let b = if prog.scalars[slot as usize].is_float { Bank::F } else { Bank::I };
        lw.ty[r as usize] = Ty::Known(b);
        launch_imports.push((r, b));
    }
    for &(slot, r) in &bc.scal_init_warp {
        let b = if prog.scalars[slot as usize].is_float { Bank::F } else { Bank::I };
        lw.ty[r as usize] = Ty::Known(b);
        warp_imports.push((r, b));
    }
    // Axis registers are exactly the scalar registers not covered above;
    // `axis_regs[1]` aliases register 0 on 1-D kernels, so only seed slots
    // still unset (a genuine second axis is always unseeded).
    for &r in &bc.axis_regs {
        if lw.ty[r as usize] == Ty::Unset {
            lw.ty[r as usize] = Ty::Known(Bank::I);
        }
    }
    // The prelude computes on `Value`s once per launch; only its bank
    // effects matter here — results enter the typed file as imports.
    for op in prelude {
        let (dst, b) = prelude_bank(&lw.ty, bc, op)?;
        lw.ty[dst as usize] = Ty::Known(b);
        launch_imports.push((dst, b));
    }
    for &(r, _) in &bc.const_init {
        launch_imports.push((
            r,
            match lw.ty[r as usize] {
                Ty::Known(b) => b,
                _ => return None,
            },
        ));
    }
    launch_imports.sort_by_key(|&(r, _)| r);
    launch_imports.dedup_by_key(|&mut (r, _)| r);
    warp_imports.sort_by_key(|&(r, _)| r);
    warp_imports.dedup_by_key(|&mut (r, _)| r);

    lw.block(root)?;

    let mut red_exports = Vec::new();
    for &r in &bc.red_scalar_regs {
        match lw.ty[r as usize] {
            Ty::Known(b) => red_exports.push((r, b)),
            _ => return None,
        }
    }
    Some(TypedKernel { code: lw.code, pool: lw.pool, nregs: lw.nregs, launch_imports, warp_imports, red_exports })
}

/// Result bank of a prelude op from its operand banks (no code emission —
/// the prelude itself stays untyped). Mirrors the lowering rules exactly.
fn prelude_bank(ty: &[Ty], bc: &KernelBytecode, op: &Op) -> Option<(u16, Bank)> {
    let known = |r: u16| match ty[r as usize] {
        Ty::Known(b) => Some(b),
        _ => None,
    };
    match *op {
        Op::ConstF { dst, .. } => Some((dst, Bank::F)),
        Op::ConstI { dst, .. } => Some((dst, Bank::I)),
        Op::ConstB { dst, .. } => Some((dst, Bank::B)),
        Op::Copy { dst, src } => Some((dst, known(src)?)),
        Op::AsInt { dst, a } | Op::CastI { dst, a } => {
            known(a)?;
            Some((dst, Bank::I))
        }
        Op::CastF { dst, a } => {
            known(a)?;
            Some((dst, Bank::F))
        }
        Op::Un { dst, op: u, a } => {
            let ab = known(a)?;
            Some((
                dst,
                match u {
                    UnOp::Neg => {
                        if ab == Bank::I {
                            Bank::I
                        } else {
                            Bank::F
                        }
                    }
                    UnOp::Not => Bank::B,
                },
            ))
        }
        Op::Bin { dst, op: b, a, b: rb } => {
            let (ab, bb) = (known(a)?, known(rb)?);
            let both_int = ab != Bank::F && bb != Bank::F;
            Some((
                dst,
                match b {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem | BinOp::Min | BinOp::Max => {
                        if both_int {
                            Bank::I
                        } else {
                            Bank::F
                        }
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => Bank::B,
                    BinOp::And | BinOp::Or => Bank::B,
                    BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => Bank::I,
                },
            ))
        }
        Op::Intrin { dst, f, args_off, args_len } => {
            let mut abs_int = false;
            for k in 0..args_len as usize {
                let ab = known(bc.pool[args_off as usize + k])?;
                if k == 0 && f == Intrin::Abs && ab == Bank::I {
                    abs_int = true;
                }
            }
            Some((dst, if abs_int { Bank::I } else { Bank::F }))
        }
        _ => None,
    }
}

impl Lower<'_> {
    fn known(&self, r: u16) -> Option<Bank> {
        match self.ty[r as usize] {
            Ty::Known(b) => Some(b),
            _ => None,
        }
    }

    /// Mint a fresh typed register of bank `b`.
    fn mint(&mut self, b: Bank) -> Option<u16> {
        if self.nregs == u16::MAX {
            return None;
        }
        let r = self.nregs;
        self.nregs += 1;
        self.ty.push(Ty::Known(b));
        Some(r)
    }

    /// Read register `r` as bank `want`, emitting a conversion into a fresh
    /// register when the banks differ. The conversions replicate
    /// `Value::as_f`/`as_i`/`as_b` bit-exactly.
    fn read_as(&mut self, r: u16, want: Bank, out: &mut Vec<TOp>) -> Option<u16> {
        let have = self.known(r)?;
        if have == want {
            return Some(r);
        }
        let m = self.mint(want)?;
        out.push(match (have, want) {
            (Bank::F, Bank::I) => TOp::FtoI { dst: m, a: r },
            (Bank::I, Bank::F) => TOp::ItoF { dst: m, a: r },
            (Bank::B, Bank::I) => TOp::BtoI { dst: m, a: r },
            (Bank::B, Bank::F) => TOp::BtoF { dst: m, a: r },
            (Bank::F, Bank::B) => TOp::FtoB { dst: m, a: r },
            (Bank::I, Bank::B) => TOp::ItoB { dst: m, a: r },
            _ => unreachable!(),
        });
        Some(m)
    }

    fn set_ty(&mut self, r: u16, b: Bank) {
        self.ty[r as usize] = Ty::Known(b);
    }

    fn block(&mut self, nodes: &[Node]) -> Option<()> {
        for node in nodes {
            match node {
                Node::Op(op) => self.op(op)?,
                Node::If { cond, site, t, e } => {
                    let mut pre_ops = Vec::new();
                    let cb = self.read_as(*cond, Bank::B, &mut pre_ops)?;
                    self.code.extend(pre_ops);
                    let at = self.code.len();
                    self.code.push(TOp::If { cond: cb, site: *site, then_len: 0, else_len: 0 });
                    let snap = self.ty.clone();
                    let t0 = self.code.len();
                    self.block(t)?;
                    let tl = (self.code.len() - t0) as u32;
                    let ty_t = std::mem::replace(&mut self.ty, {
                        let mut s = snap.clone();
                        s.resize(self.nregs as usize, Ty::Conflict);
                        s
                    });
                    let e0 = self.code.len();
                    self.block(e)?;
                    let el = (self.code.len() - e0) as u32;
                    self.merge_arms(&ty_t);
                    if let TOp::If { then_len, else_len, .. } = &mut self.code[at] {
                        *then_len = tl;
                        *else_len = el;
                    }
                }
                Node::Select { cond, dst, t_reg, f_reg, t, f } => {
                    let mut pre_ops = Vec::new();
                    let cb = self.read_as(*cond, Bank::B, &mut pre_ops)?;
                    self.code.extend(pre_ops);
                    let at = self.code.len();
                    self.code.push(TOp::Select {
                        cond: cb,
                        dst: *dst,
                        t_reg: *t_reg,
                        f_reg: *f_reg,
                        bank: Bank::I,
                        t_len: 0,
                        f_len: 0,
                    });
                    let snap = self.ty.clone();
                    let t0 = self.code.len();
                    self.block(t)?;
                    let tl = (self.code.len() - t0) as u32;
                    let tb = self.known(*t_reg)?;
                    let ty_t = std::mem::replace(&mut self.ty, {
                        let mut s = snap.clone();
                        s.resize(self.nregs as usize, Ty::Conflict);
                        s
                    });
                    let f0 = self.code.len();
                    self.block(f)?;
                    let fl = (self.code.len() - f0) as u32;
                    let fb = self.known(*f_reg)?;
                    if tb != fb {
                        return None;
                    }
                    self.merge_arms(&ty_t);
                    self.set_ty(*dst, tb);
                    if let TOp::Select { bank, t_len, f_len, .. } = &mut self.code[at] {
                        *bank = tb;
                        *t_len = tl;
                        *f_len = fl;
                    }
                }
                Node::For { var, hi_reg, step_reg, hi, step, body } => {
                    if self.known(*var)? != Bank::I {
                        return None;
                    }
                    let livein = for_livein(*var, *hi_reg, *step_reg, hi, step, body, &self.bc.pool);
                    let at = self.code.len();
                    self.code.push(TOp::For {
                        var: *var,
                        hi_reg: *hi_reg,
                        step_reg: *step_reg,
                        hi_len: 0,
                        step_len: 0,
                        body_len: 0,
                    });
                    let snap = self.ty.clone();
                    // Bound blocks re-run per iteration; a non-integer bound
                    // register gets a conversion appended to its block (the
                    // tree walker re-converts via `as_i` per check too).
                    let h0 = self.code.len();
                    self.block(hi)?;
                    let mut conv = Vec::new();
                    let hr = self.read_as(*hi_reg, Bank::I, &mut conv)?;
                    self.code.extend(conv);
                    let hl = (self.code.len() - h0) as u32;
                    let s0 = self.code.len();
                    self.block(step)?;
                    let mut conv = Vec::new();
                    let sr = self.read_as(*step_reg, Bank::I, &mut conv)?;
                    self.code.extend(conv);
                    let sl = (self.code.len() - s0) as u32;
                    let b0 = self.code.len();
                    self.block(body)?;
                    let bl = (self.code.len() - b0) as u32;
                    self.loop_stabilize(&snap, &livein)?;
                    // The implicit increment writes the integer bank each
                    // iteration; the check reads it back. The variable must
                    // not have been rebound to another bank inside.
                    if self.ty[*var as usize] != snap[*var as usize] {
                        return None;
                    }
                    if let TOp::For { hi_reg, step_reg, hi_len, step_len, body_len, .. } = &mut self.code[at] {
                        *hi_reg = hr;
                        *step_reg = sr;
                        *hi_len = hl;
                        *step_len = sl;
                        *body_len = bl;
                    }
                }
                Node::While { cond, c, body } => {
                    let livein = while_livein(*cond, c, body, &self.bc.pool);
                    let at = self.code.len();
                    self.code.push(TOp::While { cond: 0, cond_len: 0, body_len: 0 });
                    let snap = self.ty.clone();
                    let c0 = self.code.len();
                    self.block(c)?;
                    let mut conv = Vec::new();
                    let cb = self.read_as(*cond, Bank::B, &mut conv)?;
                    self.code.extend(conv);
                    let cl = (self.code.len() - c0) as u32;
                    let b0 = self.code.len();
                    self.block(body)?;
                    let bl = (self.code.len() - b0) as u32;
                    self.loop_stabilize(&snap, &livein)?;
                    if let TOp::While { cond, cond_len, body_len } = &mut self.code[at] {
                        *cond = cb;
                        *cond_len = cl;
                        *body_len = bl;
                    }
                }
            }
        }
        Some(())
    }

    /// Merge branch-arm bank states: equal stays, anything else conflicts.
    /// (`self.ty` currently holds the else/false arm's out-state.)
    fn merge_arms(&mut self, ty_t: &[Ty]) {
        for r in 0..self.ty.len() {
            let a = ty_t.get(r).copied().unwrap_or(Ty::Conflict);
            if self.ty[r] != a {
                self.ty[r] = Ty::Conflict;
            }
        }
    }

    /// After lowering a loop: a loop-carried register (read before written
    /// in one iteration) must have kept its bank — iteration 2 re-enters
    /// with iteration 1's out-state, so a bank change there is fatal. A
    /// register rebound fresh each iteration (temps the compiler reuses
    /// across statements, possibly with a different bank than it held
    /// before the loop) is fine while the loop runs, but becomes
    /// unknowable after it: a zero-trip loop leaves the pre-loop value.
    fn loop_stabilize(&mut self, snap: &[Ty], livein: &HashSet<u16>) -> Option<()> {
        for (r, &pre) in snap.iter().enumerate() {
            if self.ty[r] == pre {
                continue;
            }
            if livein.contains(&(r as u16)) {
                return None;
            }
            self.ty[r] = Ty::Conflict;
        }
        // Conversion registers minted inside the loop body re-run each
        // iteration before use; nothing to do for them.
        Some(())
    }

    fn op(&mut self, op: &Op) -> Option<()> {
        let mut pre = Vec::new();
        let emit = match *op {
            Op::ConstF { dst, v } => {
                self.set_ty(dst, Bank::F);
                TOp::ConstF { dst, v }
            }
            Op::ConstI { dst, v } => {
                self.set_ty(dst, Bank::I);
                TOp::ConstI { dst, v }
            }
            Op::ConstB { dst, v } => {
                self.set_ty(dst, Bank::B);
                TOp::ConstB { dst, v }
            }
            Op::Copy { dst, src } => {
                let b = self.known(src)?;
                self.set_ty(dst, b);
                match b {
                    Bank::F => TOp::CopyF { dst, src },
                    Bank::I => TOp::CopyI { dst, src },
                    Bank::B => TOp::CopyB { dst, src },
                }
            }
            Op::AsInt { dst, a } | Op::CastI { dst, a } => {
                let b = self.known(a)?;
                self.set_ty(dst, Bank::I);
                match b {
                    Bank::F => TOp::FtoI { dst, a },
                    Bank::I => TOp::CopyI { dst, src: a },
                    Bank::B => TOp::BtoI { dst, a },
                }
            }
            Op::CastF { dst, a } => {
                let b = self.known(a)?;
                self.set_ty(dst, Bank::F);
                match b {
                    Bank::F => TOp::CopyF { dst, src: a },
                    Bank::I => TOp::ItoF { dst, a },
                    Bank::B => TOp::BtoF { dst, a },
                }
            }
            Op::Un { dst, op: u, a } => match u {
                UnOp::Neg => match self.known(a)? {
                    Bank::I => {
                        self.set_ty(dst, Bank::I);
                        TOp::NegI { dst, a }
                    }
                    Bank::F => {
                        self.set_ty(dst, Bank::F);
                        TOp::NegF { dst, a }
                    }
                    Bank::B => {
                        let m = self.read_as(a, Bank::F, &mut pre)?;
                        self.set_ty(dst, Bank::F);
                        TOp::NegF { dst, a: m }
                    }
                },
                UnOp::Not => {
                    let m = self.read_as(a, Bank::B, &mut pre)?;
                    self.set_ty(dst, Bank::B);
                    TOp::NotB { dst, a: m }
                }
            },
            Op::Bin { dst, op: b, a, b: rb } => {
                let (ab, bb) = (self.known(a)?, self.known(rb)?);
                let both_int = ab != Bank::F && bb != Bank::F;
                match b {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem | BinOp::Min | BinOp::Max => {
                        if both_int {
                            let ra = self.read_as(a, Bank::I, &mut pre)?;
                            let rbb = self.read_as(rb, Bank::I, &mut pre)?;
                            self.set_ty(dst, Bank::I);
                            TOp::ArithI { dst, op: b, a: ra, b: rbb }
                        } else {
                            let ra = self.read_as(a, Bank::F, &mut pre)?;
                            let rbb = self.read_as(rb, Bank::F, &mut pre)?;
                            self.set_ty(dst, Bank::F);
                            TOp::ArithF { dst, op: b, a: ra, b: rbb }
                        }
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                        if both_int {
                            let ra = self.read_as(a, Bank::I, &mut pre)?;
                            let rbb = self.read_as(rb, Bank::I, &mut pre)?;
                            self.set_ty(dst, Bank::B);
                            TOp::CmpI { dst, op: b, a: ra, b: rbb }
                        } else {
                            let ra = self.read_as(a, Bank::F, &mut pre)?;
                            let rbb = self.read_as(rb, Bank::F, &mut pre)?;
                            self.set_ty(dst, Bank::B);
                            TOp::CmpF { dst, op: b, a: ra, b: rbb }
                        }
                    }
                    BinOp::And | BinOp::Or => {
                        let ra = self.read_as(a, Bank::B, &mut pre)?;
                        let rbb = self.read_as(rb, Bank::B, &mut pre)?;
                        self.set_ty(dst, Bank::B);
                        if b == BinOp::And {
                            TOp::AndB { dst, a: ra, b: rbb }
                        } else {
                            TOp::OrB { dst, a: ra, b: rbb }
                        }
                    }
                    BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => {
                        let ra = self.read_as(a, Bank::I, &mut pre)?;
                        let rbb = self.read_as(rb, Bank::I, &mut pre)?;
                        self.set_ty(dst, Bank::I);
                        TOp::ArithI { dst, op: b, a: ra, b: rbb }
                    }
                }
            }
            Op::Intrin { dst, f, args_off, args_len } => {
                if f == Intrin::Abs && self.known(self.bc.pool[args_off as usize])? == Bank::I {
                    let a = self.bc.pool[args_off as usize];
                    self.set_ty(dst, Bank::I);
                    TOp::AbsI { dst, a }
                } else {
                    let off = self.pool.len() as u32;
                    for k in 0..args_len as usize {
                        let r = self.bc.pool[args_off as usize + k];
                        let m = self.read_as(r, Bank::F, &mut pre)?;
                        self.pool.push(m);
                    }
                    self.set_ty(dst, Bank::F);
                    TOp::IntrinF { dst, f, args_off: off, args_len }
                }
            }
            Op::Ops { n } => TOp::Ops { n },
            Op::Load { dst, arr, site, idx_off, idx_len, fast } => {
                let off = self.pool.len() as u32;
                for k in 0..idx_len as usize {
                    let r = self.bc.pool[idx_off as usize + k];
                    let m = self.read_as(r, Bank::I, &mut pre)?;
                    self.pool.push(m);
                }
                let dst_f = self.prog.array_elem(ArrayId(arr as u32)).is_float();
                self.set_ty(dst, if dst_f { Bank::F } else { Bank::I });
                TOp::Load { dst, dst_f, arr, site, idx_off: off, idx_len, fast }
            }
            Op::Store { src, arr, site, idx_off, idx_len, fast } => {
                let src_f = self.prog.array_elem(ArrayId(arr as u32)).is_float();
                let rs = self.read_as(src, if src_f { Bank::F } else { Bank::I }, &mut pre)?;
                let off = self.pool.len() as u32;
                for k in 0..idx_len as usize {
                    let r = self.bc.pool[idx_off as usize + k];
                    let m = self.read_as(r, Bank::I, &mut pre)?;
                    self.pool.push(m);
                }
                TOp::Store { src: rs, src_f, arr, site, idx_off: off, idx_len, fast }
            }
            Op::CritEnter => TOp::CritEnter,
            Op::CritExit => TOp::CritExit,
            Op::If { .. } | Op::Select { .. } | Op::For { .. } | Op::While { .. } => {
                unreachable!("headers arrive as structured nodes")
            }
        };
        self.code.extend(pre);
        self.code.push(emit);
        Some(())
    }
}

// ---------------------------------------------------------------------------
// Prelude execution
// ---------------------------------------------------------------------------

/// Run the scalar prelude once for this scratch: every op reads uniform
/// registers, so lane 0 is evaluated and the result broadcast. Pure register
/// ops charge nothing at execution time (their cost lives in the stream's
/// `Ops` instructions, which stay in the body), so this is accounting-free.
pub(crate) fn run_prelude(ok: &OptKernel, s: &mut WarpScratch) {
    let w = s.warp;
    fn get(s: &WarpScratch, w: usize, r: u16) -> Value {
        s.regs[r as usize * w]
    }
    for op in &ok.prelude {
        let (dst, v) = match *op {
            Op::ConstF { dst, v } => (dst, Value::F(v)),
            Op::ConstI { dst, v } => (dst, Value::I(v)),
            Op::ConstB { dst, v } => (dst, Value::B(v)),
            Op::Copy { dst, src } => (dst, get(s, w, src)),
            Op::AsInt { dst, a } | Op::CastI { dst, a } => (dst, Value::I(get(s, w, a).as_i())),
            Op::CastF { dst, a } => (dst, Value::F(get(s, w, a).as_f())),
            Op::Un { dst, op: u, a } => {
                let x = get(s, w, a);
                (
                    dst,
                    match u {
                        UnOp::Neg => match x {
                            Value::I(i) => Value::I(-i),
                            v => Value::F(-v.as_f()),
                        },
                        UnOp::Not => Value::B(!x.as_b()),
                    },
                )
            }
            Op::Bin { dst, op: b, a, b: rb } => (dst, eval_bin(b, get(s, w, a), get(s, w, rb))),
            Op::Intrin { dst, f, args_off, args_len } => {
                let mut vals = [Value::I(0); 4];
                for (k, v) in vals.iter_mut().enumerate().take(args_len as usize) {
                    *v = get(s, w, ok.bc.pool[args_off as usize + k]);
                }
                (dst, eval_intrin(f, &vals[..args_len as usize]))
            }
            _ => unreachable!("prelude holds only whitelisted pure register ops"),
        };
        let dof = dst as usize * w;
        for l in 0..w {
            s.regs[dof + l] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::expr::{fc, ld, v};
    use crate::interp::bytecode::compile;
    use crate::kernel::{axis, KernelPlan};

    fn opt_of(p: &Program, k: &KernelPlan) -> OptKernel {
        let bc = compile(p, k).expect("compiles");
        optimize(p, &bc)
    }

    #[test]
    fn cse_dedupes_and_dce_cleans() {
        let mut pb = ProgramBuilder::new("cse");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let x = pb.farray("x", vec![v(n)]);
        let y = pb.farray("y", vec![v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        // (i+1)*(i+1): the second i+1 recomputation is a CSE hit, and the
        // orphaned add goes dead.
        let mut k =
            KernelPlan::new("k", vec![axis(i, v(n))], vec![store(y, vec![v(i)], ld(x, vec![(v(i) + 1) * (v(i) + 1)]))]);
        k.finalize();
        let ok = opt_of(&p, &k);
        // The recomputation becomes a register copy (the downstream multiply
        // still reads the original destination slot, so the copy stays).
        assert!(ok.stats.cse_hits >= 1, "{:?}", ok.stats);
        assert!(ok.stats.ops_post <= ok.stats.ops_pre, "{:?}", ok.stats);
    }

    #[test]
    fn unobserved_scalar_writes_die() {
        let mut pb = ProgramBuilder::new("dce");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let s = pb.iscalar("s");
        let x = pb.farray("x", vec![v(n)]);
        let y = pb.farray("y", vec![v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        // s is written and never observed (not a reduction accumulator): the
        // pure write chain is dead.
        let mut k = KernelPlan::new(
            "k",
            vec![axis(i, v(n))],
            vec![assign(s, v(n) + 1), store(y, vec![v(i)], ld(x, vec![v(i)]))],
        );
        k.finalize();
        let ok = opt_of(&p, &k);
        assert!(ok.stats.dce_removed >= 1, "{:?}", ok.stats);
        assert!(ok.stats.ops_post < ok.stats.ops_pre, "{:?}", ok.stats);
    }

    #[test]
    fn constant_subexpressions_fold() {
        let mut pb = ProgramBuilder::new("fold");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let x = pb.farray("x", vec![v(n)]);
        let y = pb.farray("y", vec![v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        let mut k = KernelPlan::new(
            "k",
            vec![axis(i, v(n))],
            vec![store(y, vec![v(i)], ld(x, vec![v(i)]) + fc(2.0) * fc(3.0))],
        );
        k.finalize();
        let ok = opt_of(&p, &k);
        assert!(ok.stats.folded >= 1, "{:?}", ok.stats);
    }

    #[test]
    fn uniform_index_math_hoists_into_prelude() {
        let mut pb = ProgramBuilder::new("hoist");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let x = pb.farray("x", vec![v(n)]);
        let y = pb.farray("y", vec![v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        // n-1 depends only on a launch-broadcast scalar: one launch-wide
        // evaluation replaces a per-warp, per-lane one. (As the right
        // operand of the add it gets its own register slot, written once —
        // chained into further arithmetic it would share the result slot
        // and lose single-write eligibility.)
        let mut k =
            KernelPlan::new("k", vec![axis(i, v(n))], vec![store(y, vec![v(i)], ld(x, vec![v(i)]) + (v(n) - 1))]);
        k.finalize();
        let ok = opt_of(&p, &k);
        assert!(ok.stats.prelude_ops >= 1, "{:?}", ok.stats);
    }

    #[test]
    fn affine_loop_chains_strength_reduce() {
        let mut pb = ProgramBuilder::new("sr");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let j = pb.iscalar("j");
        let y = pb.farray("y", vec![v(n) * 3]);
        pb.main(vec![]);
        let p = pb.build();
        // y[3*j] inside a unit-step loop: the multiply becomes an init plus
        // an incremental add carried around the loop.
        let mut k =
            KernelPlan::new("k", vec![axis(i, v(n))], vec![sfor(j, 0i64, v(n), vec![store(y, vec![v(j) * 3], 1.0)])]);
        k.finalize();
        let ok = opt_of(&p, &k);
        assert!(ok.stats.strength_reduced >= 1, "{:?}", ok.stats);
    }

    #[test]
    fn straight_line_float_kernel_lowers_typed() {
        let mut pb = ProgramBuilder::new("typed");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let x = pb.farray("x", vec![v(n)]);
        let y = pb.farray("y", vec![v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        let mut k =
            KernelPlan::new("k", vec![axis(i, v(n))], vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * 0.5 + 1.0)]);
        k.finalize();
        let ok = opt_of(&p, &k);
        assert!(ok.stats.typed, "{:?}", ok.stats);
        assert!(ok.typed.is_some());
    }

    #[test]
    fn loop_temp_bank_rebinding_still_lowers_typed() {
        // The spmv shape: integer index temps and float product temps share
        // compiler registers across the loop body. They are rebound fresh
        // each iteration, so only the genuinely loop-carried accumulator
        // needs a stable bank.
        let mut pb = ProgramBuilder::new("spmv");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let kk = pb.iscalar("kk");
        let s = pb.fscalar("s");
        let ptr = pb.iarray("ptr", vec![v(n) + 1]);
        let val = pb.farray("val", vec![v(n)]);
        let col = pb.iarray("col", vec![v(n)]);
        let x = pb.farray("x", vec![v(n)]);
        let y = pb.farray("y", vec![v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        let body = vec![
            assign(s, 0.0),
            sfor(
                kk,
                ld(ptr, vec![v(i)]),
                ld(ptr, vec![v(i) + 1]),
                vec![assign(s, v(s) + ld(val, vec![v(kk)]) * ld(x, vec![ld(col, vec![v(kk)])]))],
            ),
            store(y, vec![v(i)], v(s)),
        ];
        let mut k = KernelPlan::new("k", vec![axis(i, v(n))], body);
        k.finalize();
        let ok = opt_of(&p, &k);
        assert!(ok.stats.typed, "{:?}", ok.stats);
    }

    #[test]
    fn loop_carried_liveins_are_identified() {
        let mut pb = ProgramBuilder::new("livein");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let j = pb.iscalar("j");
        let s = pb.fscalar("s");
        let x = pb.farray("x", vec![v(n)]);
        let y = pb.farray("y", vec![v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        let body = vec![
            assign(s, 0.0),
            sfor(j, 0i64, v(n), vec![assign(s, v(s) + ld(x, vec![v(j)]))]),
            store(y, vec![v(i)], v(s)),
        ];
        let mut k = KernelPlan::new("k", vec![axis(i, v(n))], body);
        k.finalize();
        let bc = compile(&p, &k).expect("compiles");
        let mut pos = 0usize;
        let root = parse_block(&bc.code, &mut pos, bc.code.len());
        let fors: Vec<&Node> = root.iter().filter(|nd| matches!(nd, Node::For { .. })).collect();
        assert_eq!(fors.len(), 1);
        let Node::For { var, hi_reg, step_reg, hi, step, body } = fors[0] else { unreachable!() };
        let li = for_livein(*var, *hi_reg, *step_reg, hi, step, body, &bc.pool);
        // The accumulator is read before written each iteration; the loop
        // variable is read by the bound check.
        assert!(li.contains(var), "{li:?}");
        let s_reg = (0..bc.temp_base).find(|&r| count_reads(&root, &bc.pool, r) > 0 && count_writes(&root, r) > 1);
        assert!(s_reg.is_some_and(|r| li.contains(&r)), "{li:?}");
    }
}
