//! Typed lowering: the pipeline stage between [`super::bytecode::compile`]
//! and the native closures ([`super::native`]).
//!
//! A flow-sensitive bank inference proves every register's `Value` tag
//! stable and lowers the compiled stream to a typed instruction set
//! ([`TOp`]) over split `f64`/`i64`/`bool` register banks. [`super::native`]
//! compiles that typed stream into closures; a plan whose tags cannot be
//! proven stable has no typed lowering and its launches run on the tree
//! walker. The module and [`optimize`] keep their names from the rewrite
//! passes that once ran ahead of the lowering; DESIGN.md ("Execution
//! engines") records why they were removed.
//!
//! **Cost transparency.** The typed stream is the compiled stream
//! instruction for instruction, plus bank conversions: every `Op::Ops`
//! charge, load/store site, and branch/loop header keeps its place and its
//! order, and each conversion replicates `Value::as_f`/`as_i`/`as_b`
//! bit-exactly. Every figure, trace and manifest is therefore byte-identical
//! to the tree walker's, which the `engine_equiv` suites assert.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

use crate::expr::{BinOp, Intrin, UnOp};
use crate::program::Program;
use crate::types::{ArrayId, Value};

use super::bytecode::{KernelBytecode, Op};

// ---------------------------------------------------------------------------
// Stats and counters
// ---------------------------------------------------------------------------

/// Per-kernel lowering summary, cached alongside the typed stream and
/// aggregated into sweep manifests.
#[derive(Debug, Clone, Default)]
pub struct OptStats {
    /// Instructions in the compiled stream.
    pub ops_pre: u64,
    /// Instructions in the stream the launches read: the compiled stream
    /// itself, so always equal to `ops_pre`.
    pub ops_post: u64,
    /// The stream lowered onto split typed register banks.
    pub typed: bool,
}

thread_local! {
    static TL_KERNELS: Cell<u64> = const { Cell::new(0) };
    static TL_OPS: Cell<u64> = const { Cell::new(0) };
}

/// Record one kernel's lowering in the per-thread counters (the sweep reads
/// them to attribute work to its own runs, mirroring the launch-cache
/// counter discipline).
pub(crate) fn note_opt(st: &OptStats) {
    TL_KERNELS.with(|c| c.set(c.get() + 1));
    TL_OPS.with(|c| c.set(c.get() + st.ops_pre));
}

/// This thread's `(kernels lowered, instructions in their streams)`.
pub fn thread_opt_counters() -> (u64, u64) {
    (TL_KERNELS.with(Cell::get), TL_OPS.with(Cell::get))
}

// ---------------------------------------------------------------------------
// Typed kernel representation
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

impl Bank {
    /// The bank a value's tag selects.
    pub(crate) fn of(v: Value) -> Bank {
        match v {
            Value::F(_) => Bank::F,
            Value::I(_) => Bank::I,
            Value::B(_) => Bank::B,
        }
    }
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

/// The typed lowering of a compiled stream: same register numbering as
/// the untyped stream (plus minted conversion temporaries above), and the
/// banks the launch writes its scalars into and reads reduction results
/// out of.
#[derive(Debug)]
pub(crate) struct TypedKernel {
    pub(crate) code: Vec<TOp>,
    /// Typed register pool for Load/Store indices and IntrinF arguments.
    pub(crate) pool: Vec<u16>,
    /// Bank sizes (each bank allocates `nregs` registers per lane).
    pub(crate) nregs: u16,
    /// Bank of each `KernelBytecode::scal_init_launch` scalar (its declared
    /// type), which the launch writes once.
    pub(crate) launch_banks: Vec<Bank>,
    /// Bank of each `KernelBytecode::scal_init_warp` scalar (its declared
    /// type), which every warp rewrites; reduction accumulators are among
    /// them.
    pub(crate) warp_banks: Vec<Bank>,
    /// Bank each scalar-reduction accumulator ends the body in, in
    /// reduction order: the fold reads it there, with the tag the tree
    /// walker's fold sees.
    pub(crate) red_banks: Vec<Bank>,
}

/// A lowered kernel: the compiled stream and (when bank inference
/// succeeded) the typed specialization the native closures compile from.
#[derive(Debug)]
pub struct OptKernel {
    /// The compiled stream, shared with the compile stage. Launches read the
    /// pricing machinery (fast-site table, flags) and the register layout
    /// from it.
    pub(crate) bc: Arc<KernelBytecode>,
    /// Typed specialization, or `None` when bank inference found a register
    /// whose `Value` tag is not provably stable.
    pub(crate) typed: Option<TypedKernel>,
    /// What the lowering did, for profiling and manifests.
    pub stats: OptStats,
}

// ---------------------------------------------------------------------------
// Pipeline driver
// ---------------------------------------------------------------------------

/// Lower a compiled stream onto typed banks.
///
/// The returned kernel's typed stream, compiled to closures, executes
/// bit-identically to the tree walker: same values, same charges, same
/// traces, same panics.
pub fn optimize(prog: &Program, bc: &Arc<KernelBytecode>) -> OptKernel {
    let mut pos = 0usize;
    let root = parse_block(&bc.code, &mut pos, bc.code.len());
    debug_assert_eq!(pos, bc.code.len());
    let typed = lower_typed(prog, bc, &root);
    let ops = bc.code.len() as u64;
    let stats = OptStats { ops_pre: ops, ops_post: ops, typed: typed.is_some() };
    OptKernel { bc: Arc::clone(bc), typed, stats }
}

// ---------------------------------------------------------------------------
// Block tree
// ---------------------------------------------------------------------------

/// Structured view of the flat stream: header ops with their sub-blocks
/// recovered, so the lowering can reason about scopes without offset
/// arithmetic.
#[derive(Debug)]
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

/// Lower the compiled stream onto typed banks. `None` when any register's
/// tag cannot be proven stable — the plan's launches run on the tree walker.
fn lower_typed(prog: &Program, bc: &KernelBytecode, root: &[Node]) -> Option<TypedKernel> {
    let mut lw =
        Lower { prog, bc, ty: vec![Ty::Unset; bc.nregs as usize], code: Vec::new(), pool: Vec::new(), nregs: bc.nregs };
    // Seeds: constants by tag, scalars by declared type, axis registers
    // (written into the I bank by the launch prologue each warp) as integers.
    let declared = |&(slot, _): &(u32, u16)| if prog.scalars[slot as usize].is_float { Bank::F } else { Bank::I };
    let launch_banks: Vec<Bank> = bc.scal_init_launch.iter().map(declared).collect();
    let warp_banks: Vec<Bank> = bc.scal_init_warp.iter().map(declared).collect();
    for &(r, v) in &bc.const_init {
        lw.ty[r as usize] = Ty::Known(Bank::of(v));
    }
    let scalars = bc.scal_init_launch.iter().zip(&launch_banks).chain(bc.scal_init_warp.iter().zip(&warp_banks));
    for (&(_, r), &b) in scalars {
        lw.ty[r as usize] = Ty::Known(b);
    }
    // Axis registers are exactly the scalar registers not covered above;
    // `axis_regs[1]` aliases register 0 on 1-D kernels, so only seed slots
    // still unset (a genuine second axis is always unseeded).
    for &r in &bc.axis_regs {
        if lw.ty[r as usize] == Ty::Unset {
            lw.ty[r as usize] = Ty::Known(Bank::I);
        }
    }

    lw.block(root)?;

    let red_banks = bc.red_scalar_regs.iter().map(|&r| lw.known(r)).collect::<Option<Vec<Bank>>>()?;
    Some(TypedKernel { code: lw.code, pool: lw.pool, nregs: lw.nregs, launch_banks, warp_banks, red_banks })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::expr::{ld, v};
    use crate::interp::bytecode::compile;
    use crate::kernel::{axis, KernelPlan};

    fn opt_of(p: &Program, k: &KernelPlan) -> OptKernel {
        let bc = compile(p, k).expect("compiles");
        optimize(p, &Arc::new(bc))
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
        let s_reg = bc.scal_init_warp.iter().find(|&&(slot, _)| slot == s.0).map(|&(_, r)| r);
        assert!(s_reg.is_some_and(|r| li.contains(&r)), "{li:?}");
    }
}
