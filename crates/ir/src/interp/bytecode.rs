//! Kernel compiler: the first of the compiled kernel pipeline's two stages
//! (lowering to typed bytecode here, closures in [`super::native`]).
//!
//! [`compile`] walks a [`KernelPlan`] body once and emits the typed
//! instruction stream ([`TOp`]) the closures are built from. Scalar slots
//! resolve to dense registers, literals pool into launch-time constant
//! registers, and loop bounds that are plain variables or constants are read
//! from their registers instead of re-evaluated per iteration. Every register
//! lives in one of three banks (`f64`, `i64`, `bool`), so execution never
//! dispatches on `Value` tags. The result is cached on the plan (see
//! `KernelPlan::engine_cache`), so the sweep's compile memoization amortizes
//! it across tuning points, and geometry retargeting keeps it valid (nothing
//! here depends on block shape).
//!
//! **Typing.** Each operand is lowered first and reports its register and
//! bank; an operand read in another bank gets a conversion that replicates
//! `Value::as_f`/`as_i`/`as_b` bit-exactly. Scalars start in their declared
//! bank (axis variables as integers) and take the bank of each value
//! assigned to them. `if` arms that leave a scalar in different banks put it
//! in conflict, `select` arms must agree, and reading a conflicted scalar
//! rejects the plan. A `For`/`While` body, with its bound and step blocks,
//! must leave every scalar in the bank it entered with. Expression
//! temporaries die at every statement boundary, so no other register is
//! carried from one iteration to the next. A plan is ineligible, and runs on
//! the tree walker, when its body has calls, its second axis depends on the
//! first axis variable, a bank cannot be pinned, or it needs more registers,
//! arrays or instructions than the stream's fixed-width fields hold.
//!
//! Accounting contract (the closures keep it, and it must mirror
//! `Interp::exec_plain`/`eval` exactly): every unary/binary/cast/select
//! charges 1 op, an assignment charges 1, a `For` iteration check charges 1
//! and the increment charges 1, a `While` iteration charges 1 only when the
//! condition held, multi-dim index flattening charges `dims-1`, intrinsics
//! charge the SFU cost table, barriers charge 4. The statically known
//! charges of a straight-line stretch fold into one [`TOp::Ops`].
//! Loads/stores record per-lane byte addresses into the same
//! [`SiteWarpTrace`] streams the tree engine fills. Sites whose addresses are
//! affine in the axis variables additionally support an analytic fast path:
//! their single per-warp address row is captured directly and summarised
//! through [`acceval_sim::AffineRowMemo`].
//!
//! The module also holds the execution state the closures run against: the
//! per-thread [`WarpScratch`] arena (typed register banks, per-lane op counters,
//! site traces, private-array scratch; no per-warp allocation) and the
//! launch-wide `ExecCtx` (array layout and address map).

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use acceval_sim::{AffineRowMemo, Buffer, ElemType, SiteWarpTrace};

use crate::analysis::affine::expr_affine;
use crate::expr::{BinOp, Expr, Intrin, UnOp};
use crate::kernel::{Expansion, KernelPlan, MemSpace};
use crate::program::Program;
use crate::stmt::{visit_exprs, visit_stmts, Stmt};
use crate::types::{ArrayId, ScalarId, Value, VarRef};

/// SFU cost table shared with the tree engine's `WarpMachine`.
#[inline]
pub(crate) fn intrin_cost(f: Intrin) -> u64 {
    match f {
        Intrin::Sqrt => 4,
        Intrin::Exp | Intrin::Log | Intrin::Sin | Intrin::Cos => 8,
        Intrin::Pow => 16,
        Intrin::Floor | Intrin::Abs => 1,
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Per-kernel compile summary, read by profiling and the benchmark's layer
/// table (sweeps count compiles through [`crate::metrics`]).
#[derive(Debug, Clone, Default)]
pub struct OptStats {
    /// Instructions in the typed stream.
    pub ops_pre: u64,
    /// Always equal to `ops_pre`; kept because the benchmark's layer table
    /// reads both.
    pub ops_post: u64,
}

// ---------------------------------------------------------------------------
// Typed stream
// ---------------------------------------------------------------------------

/// Register bank of a typed register.
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

/// One instruction of the typed stream. Registers are dense numbers, each
/// resolved to a concrete bank; lane `l` of register `r` lives at
/// `r * warp + l` of that bank. Structured ops (`If`, `Select`, `For`,
/// `While`) are headers followed by length-delimited sub-blocks laid out
/// inline; the closure builder derives block offsets from the recorded
/// lengths.
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
    /// Charge `n` plain ALU ops to every active lane: all statically-known
    /// charges of a straight-line stretch (binary/unary/cast ops, assigns,
    /// intrinsic costs, index flattening, barriers) folded into one
    /// instruction.
    Ops {
        n: u64,
    },
    /// All-float intrinsic call; argument registers live in the pool.
    IntrinF {
        dst: u16,
        f: Intrin,
        args_off: u32,
        args_len: u8,
    },
    /// Array load. Index registers live in the pool; `fast >= 0` routes the
    /// byte address to the affine fast-path row instead of the site trace.
    Load {
        dst: u16,
        dst_f: bool,
        arr: u16,
        site: u32,
        idx_off: u32,
        idx_len: u8,
        fast: i32,
    },
    /// Array store (value register evaluated before the index registers).
    Store {
        src: u16,
        src_f: bool,
        arr: u16,
        site: u32,
        idx_off: u32,
        idx_len: u8,
        fast: i32,
    },
    /// Branch: records per-lane outcomes, then splits the mask over the
    /// then/else sub-blocks.
    If {
        cond: u16,
        site: u32,
        then_len: u32,
        else_len: u32,
    },
    /// Ternary select; evaluates only the taken side per lane (its 1-op
    /// charge is folded into the preceding `Ops`).
    Select {
        cond: u16,
        dst: u16,
        t_reg: u16,
        f_reg: u16,
        bank: Bank,
        t_len: u32,
        f_len: u32,
    },
    /// Counted loop. The loop variable was initialised by preceding
    /// instructions; `hi`/`step` are either read from their registers
    /// (`*_len == 0`) or re-evaluated per iteration by their sub-blocks.
    For {
        var: u16,
        hi_reg: u16,
        step_reg: u16,
        hi_len: u32,
        step_len: u32,
        body_len: u32,
    },
    /// Condition-controlled loop.
    While {
        cond: u16,
        cond_len: u32,
        body_len: u32,
    },
    /// Enter a critical section (subsequent global accesses count atomics).
    CritEnter,
    /// Leave a critical section.
    CritExit,
}

/// `dst = a` read as bank `want`: a copy within one bank, otherwise the
/// conversion `Value::as_f`/`as_i`/`as_b` performs.
fn conv_op(dst: u16, a: u16, have: Bank, want: Bank) -> TOp {
    match (have, want) {
        (Bank::F, Bank::F) => TOp::CopyF { dst, src: a },
        (Bank::I, Bank::I) => TOp::CopyI { dst, src: a },
        (Bank::B, Bank::B) => TOp::CopyB { dst, src: a },
        (Bank::F, Bank::I) => TOp::FtoI { dst, a },
        (Bank::I, Bank::F) => TOp::ItoF { dst, a },
        (Bank::B, Bank::I) => TOp::BtoI { dst, a },
        (Bank::B, Bank::F) => TOp::BtoF { dst, a },
        (Bank::F, Bank::B) => TOp::FtoB { dst, a },
        (Bank::I, Bank::B) => TOp::ItoB { dst, a },
    }
}

/// A kernel body compiled to typed bytecode: the one artifact launches and
/// the closure builder read. Geometry-independent: the same object serves
/// every block shape a tuning sweep tries.
#[derive(Debug)]
pub struct KernelBytecode {
    pub(crate) code: Vec<TOp>,
    /// Shared register pool for Load/Store indices and IntrinF arguments.
    pub(crate) pool: Vec<u16>,
    /// Registers per bank (scalar slots + constants + temporaries).
    pub(crate) nregs: u16,
    /// `(scalar slot, register, declared bank)` for scalars the body never
    /// writes: broadcast once per launch.
    pub(crate) scal_init_launch: Vec<(u32, u16, Bank)>,
    /// `(scalar slot, register, declared bank)` for scalars the body (or
    /// launch prologue) writes: re-broadcast from the base environment every
    /// warp. Reduction accumulators are among them.
    pub(crate) scal_init_warp: Vec<(u32, u16, Bank)>,
    /// `(register, value)` constants, loaded once per launch.
    pub(crate) const_init: Vec<(u16, Value)>,
    /// Registers of the axis variables (`axis_regs[1]` unused when 1-D).
    pub(crate) axis_regs: [u16; 2],
    /// Register of each scalar-reduction accumulator, in reduction order,
    /// with the bank the body leaves it in: the fold reads it there, with
    /// the tag the tree walker's fold sees.
    pub(crate) red_scalar_regs: Vec<(u16, Bank)>,
    /// Site ids on the analytic fast path, indexed by fast slot.
    pub(crate) fast_sites: Vec<u32>,
    /// Execute lanes one at a time instead of in lockstep. Set when the
    /// body may carry cross-lane dependencies through device memory (an
    /// array both loaded and stored, or stored from several sites): the
    /// reference tree engine runs each lane to completion before the next,
    /// so such bodies observe earlier lanes' writes — lane-serial execution
    /// reproduces that ordering exactly while keeping the compiled
    /// dispatch and the allocation-free register banks.
    pub(crate) serial_lanes: bool,
    /// Every block with the same active-lane shape prices identically up to
    /// address translation: all memory accesses ride the affine fast path,
    /// there is no data-dependent control flow (`If`/`While`/`Select`) or
    /// critical section, and every `For` bound (including the loop-variable
    /// init) is launch-uniform. Under this flag the per-block pricing is a
    /// pure function of (active width, per-site base address mod its
    /// translation modulus), which enables representative-block dedup.
    pub(crate) uniform_pricing: bool,
}

impl KernelBytecode {
    /// Number of instructions in the typed stream (diagnostics/tests).
    pub fn op_count(&self) -> usize {
        self.code.len()
    }

    /// Number of memory sites on the analytic affine fast path.
    pub fn fast_site_count(&self) -> usize {
        self.fast_sites.len()
    }

    /// The compile summary profiling and the sweep manifests read.
    pub fn stats(&self) -> OptStats {
        let ops = self.code.len() as u64;
        OptStats { ops_pre: ops, ops_post: ops }
    }
}

/// Compile a finalized kernel plan's body to typed bytecode.
///
/// Returns `None` when the plan is ineligible (see the module docs): a body
/// with calls, a second axis whose bounds depend on the first axis variable,
/// a register whose bank cannot be pinned, or a stream too large for its
/// fixed-width fields. Such kernels run on the tree walker. A compiled
/// stream, built into closures, executes bit-identically to the tree
/// walker: same values, same charges, same traces, same panics.
pub fn compile(prog: &Program, plan: &KernelPlan) -> Option<KernelBytecode> {
    if plan.axes.len() > 1 {
        let v0 = plan.axes[0].var;
        if plan.axes[1].lo.uses_var(v0) || plan.axes[1].step.uses_var(v0) {
            return None;
        }
    }

    // Pre-scan: every scalar the body mentions, every literal, and the set
    // of scalars the body writes (drives per-warp re-broadcast and the
    // fast-path eligibility test).
    let mut scal_ids: BTreeSet<u32> = BTreeSet::new();
    let mut assigned: HashSet<u32> = HashSet::new();
    let mut const_count = 0usize;
    let mut const_seen: HashSet<ConstKey> = HashSet::new();
    visit_exprs(&plan.body, &mut |e| match e {
        Expr::Var(s) => {
            scal_ids.insert(s.0);
        }
        Expr::F(x) if const_seen.insert(ConstKey::F(x.to_bits())) => {
            const_count += 1;
        }
        Expr::I(x) if const_seen.insert(ConstKey::I(*x)) => {
            const_count += 1;
        }
        Expr::B(x) if const_seen.insert(ConstKey::B(*x)) => {
            const_count += 1;
        }
        _ => {}
    });
    visit_stmts(&plan.body, &mut |s| match s {
        Stmt::Assign { var, .. } | Stmt::For { var, .. } => {
            scal_ids.insert(var.0);
            assigned.insert(var.0);
        }
        _ => {}
    });
    let mut axis_set: HashSet<ScalarId> = HashSet::new();
    for ax in &plan.axes {
        scal_ids.insert(ax.var.0);
        axis_set.insert(ax.var);
    }
    let mut red_set: HashSet<u32> = HashSet::new();
    for r in &plan.reductions {
        if let VarRef::Scalar(s) = r.target {
            scal_ids.insert(s.0);
            red_set.insert(s.0);
        }
    }

    // Cross-lane hazard scan. Lockstep execution reorders work across
    // lanes; that is only sound when lanes cannot communicate through
    // device memory. A non-private array that is both read and written
    // (or written from more than one store site) may carry such a
    // dependence — e.g. a collapsed loop nest where lane k consumes what
    // lane k-1 produced, which the lane-serial tree engine satisfies.
    // Those bodies run lane-serial (still compiled, still arena-backed).
    //
    // Exemption: an array is provably lane-disjoint — every lane only ever
    // touches its own elements — when every access indexes it with each
    // launch axis variable standing alone in some dimension and every other
    // dimension being warp-uniform (no axis variables, no body-assigned
    // scalars, no loads). Distinct lanes then address distinct elements at
    // every access, so no cross-lane dependence can exist (e.g. the KMEANS
    // delta kernel's `member[pt]` read-modify-write).
    let uniform = |e: &Expr| {
        let mut ok = true;
        e.visit(&mut |x| match x {
            Expr::Load { .. } => ok = false,
            Expr::Var(s) if assigned.contains(&s.0) || axis_set.contains(s) => ok = false,
            _ => {}
        });
        ok
    };
    let lane_disjoint = |index: &[Expr]| {
        plan.axes.iter().all(|ax| index.iter().any(|e| matches!(e, Expr::Var(s) if *s == ax.var)))
            && index.iter().all(|e| matches!(e, Expr::Var(s) if axis_set.contains(s)) || uniform(e))
    };
    let mut loaded: HashSet<u32> = HashSet::new();
    let mut store_sites: HashMap<u32, u32> = HashMap::new();
    let mut tangled: HashSet<u32> = HashSet::new();
    visit_exprs(&plan.body, &mut |e| {
        if let Expr::Load { array, index, .. } = e {
            if plan.expansion_of(*array).is_none() {
                loaded.insert(array.0);
                if !lane_disjoint(index) {
                    tangled.insert(array.0);
                }
            }
        }
    });
    visit_stmts(&plan.body, &mut |s| {
        if let Stmt::Store { array, index, .. } = s {
            if plan.expansion_of(*array).is_none() {
                *store_sites.entry(array.0).or_insert(0) += 1;
                if !lane_disjoint(index) {
                    tangled.insert(array.0);
                }
            }
        }
    });
    let serial_lanes = store_sites.iter().any(|(a, &n)| (n > 1 || loaded.contains(a)) && tangled.contains(a));

    let scal_reg = scal_ids
        .iter()
        .enumerate()
        .map(|(k, &s)| Some((s, u16::try_from(k).ok()?)))
        .collect::<Option<BTreeMap<u32, u16>>>()?;
    let temp_base = u16::try_from(scal_reg.len() + const_count).ok()?;
    let declared = |slot: u32| if prog.scalars[slot as usize].is_float { Bank::F } else { Bank::I };
    // Scalars enter the body in their declared banks; the axis variables,
    // which the launch prologue writes, as integers.
    let banks = scal_reg
        .keys()
        .map(|&slot| Some(if axis_set.contains(&ScalarId(slot)) { Bank::I } else { declared(slot) }))
        .collect();

    let mut c = Compiler {
        prog,
        plan,
        code: Vec::new(),
        pending: 0,
        pool: Vec::new(),
        next_const: u16::try_from(scal_reg.len()).ok()?,
        scal_reg,
        banks,
        const_reg: HashMap::new(),
        const_init: Vec::new(),
        temp_base,
        nregs: temp_base,
        assigned,
        axis_vars: axis_set,
        fast_sites: Vec::new(),
        depth: 0,
        price_uniform: true,
    };
    for s in &plan.body {
        c.stmt(s)?;
    }
    c.flush();
    debug_assert_eq!(c.depth, 0);

    let mut scal_init_launch = Vec::new();
    let mut scal_init_warp = Vec::new();
    for (&slot, &r) in &c.scal_reg {
        if c.axis_vars.contains(&ScalarId(slot)) {
            // Axis registers are written for every active lane by the launch
            // prologue before each warp executes; no broadcast needed.
            continue;
        }
        let init = (slot, r, declared(slot));
        if c.assigned.contains(&slot) || red_set.contains(&slot) {
            scal_init_warp.push(init);
        } else {
            scal_init_launch.push(init);
        }
    }
    let axis_regs =
        [c.scal_reg[&plan.axes[0].var.0], if plan.axes.len() > 1 { c.scal_reg[&plan.axes[1].var.0] } else { 0 }];
    let red_scalar_regs = plan
        .reductions
        .iter()
        .filter_map(|r| match r.target {
            VarRef::Scalar(s) => Some(c.scalar(s)),
            VarRef::Array(_) => None,
        })
        .collect::<Option<Vec<_>>>()?;

    // Uniform pricing: every access on the fast path, no mask-splitting or
    // data-dependent ops in the stream. `For` bounds were vetted at emission
    // (`price_uniform`): launch-uniform init/hi/step make every lane of
    // every block run the same trip counts, so per-block op charges depend
    // only on the block's active-lane shape.
    let uniform_pricing = c.price_uniform
        && c.code.iter().all(|op| match *op {
            TOp::Load { fast, .. } | TOp::Store { fast, .. } => fast >= 0,
            TOp::If { .. } | TOp::While { .. } | TOp::Select { .. } | TOp::CritEnter | TOp::CritExit => false,
            _ => true,
        });

    Some(KernelBytecode {
        code: c.code,
        pool: c.pool,
        nregs: c.nregs,
        scal_init_launch,
        scal_init_warp,
        const_init: c.const_init,
        axis_regs,
        red_scalar_regs,
        fast_sites: c.fast_sites,
        serial_lanes,
        uniform_pricing,
    })
}

/// Hashable identity of a literal (floats keyed by bit pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    F(u64),
    I(i64),
    B(bool),
}

struct Compiler<'a> {
    prog: &'a Program,
    plan: &'a KernelPlan,
    code: Vec<TOp>,
    /// Statically-known per-lane op charges accumulated since the last
    /// flush; folded into one `TOp::Ops` at every sub-block boundary so the
    /// executor never pays per-instruction counter updates for them.
    pending: u64,
    pool: Vec<u16>,
    scal_reg: BTreeMap<u32, u16>,
    /// Bank of each scalar register on the current path; `None` when merging
    /// `if` arms left it in conflict, which rejects any later read.
    banks: Vec<Option<Bank>>,
    const_reg: HashMap<ConstKey, u16>,
    const_init: Vec<(u16, Value)>,
    next_const: u16,
    temp_base: u16,
    nregs: u16,
    assigned: HashSet<u32>,
    axis_vars: HashSet<ScalarId>,
    fast_sites: Vec<u32>,
    /// Structural nesting depth; only depth-0 accesses execute exactly once
    /// per lane and qualify for the affine fast path.
    depth: u32,
    /// Cleared when a `For` bound (init/hi/step) is not launch-uniform;
    /// feeds `KernelBytecode::uniform_pricing`.
    price_uniform: bool,
}

impl Compiler<'_> {
    /// Accumulate a statically-known per-lane op charge.
    #[inline]
    fn charge(&mut self, n: u64) {
        self.pending += n;
    }

    /// Emit accumulated static charges. Must run before any instruction
    /// that splits or re-runs the lane mask (If/Select/For/While headers
    /// and at every sub-block end) so each charge lands in the region whose
    /// lanes actually execute it; within a region, charge order is
    /// irrelevant — only the per-lane totals feed `warp_issue_cycles`.
    fn flush(&mut self) {
        if self.pending > 0 {
            self.code.push(TOp::Ops { n: self.pending });
            self.pending = 0;
        }
    }

    /// Count register `r` into the bank size; `None` when it would not fit.
    #[inline]
    fn note(&mut self, r: u16) -> Option<()> {
        self.nregs = self.nregs.max(r.checked_add(1)?);
        Some(())
    }

    /// Instructions emitted since `start`, as a sub-block length.
    fn len_since(&self, start: usize) -> Option<u32> {
        u32::try_from(self.code.len() - start).ok()
    }

    /// A scalar's register and its bank on the current path.
    fn scalar(&self, s: ScalarId) -> Option<(u16, Bank)> {
        let r = self.scal_reg[&s.0];
        Some((r, self.banks[r as usize]?))
    }

    fn creg(&mut self, key: ConstKey, v: Value) -> u16 {
        if let Some(&r) = self.const_reg.get(&key) {
            return r;
        }
        let r = self.next_const;
        self.next_const += 1;
        debug_assert!(r < self.temp_base);
        self.const_reg.insert(key, r);
        self.const_init.push((r, v));
        r
    }

    /// Make register `r`, holding a `have` value, readable as `want`. The
    /// conversion writes the same register number in the `want` bank: a
    /// register number holds one live value in one bank at a time, so the
    /// other banks' rows are free.
    fn convert(&mut self, r: u16, have: Bank, want: Bank) {
        if have != want {
            self.code.push(conv_op(r, r, have, want));
        }
    }

    /// Read `regs` as `want` and park them in the pool for one instruction.
    fn park(&mut self, regs: &[(u16, Bank)], want: Bank) -> Option<(u32, u8)> {
        for &(r, b) in regs {
            self.convert(r, b, want);
        }
        let off = u32::try_from(self.pool.len()).ok()?;
        self.pool.extend(regs.iter().map(|&(r, _)| r));
        Some((off, u8::try_from(regs.len()).ok()?))
    }

    /// Compile `e` so its value lands in some register: a bare variable or
    /// literal is forwarded without emitting code, anything else compiles
    /// into `slot` (with temporaries from `sp` upward).
    fn operand(&mut self, e: &Expr, slot: u16, sp: u16) -> Option<(u16, Bank)> {
        Some(match e {
            Expr::Var(s) => self.scalar(*s)?,
            Expr::F(x) => (self.creg(ConstKey::F(x.to_bits()), Value::F(*x)), Bank::F),
            Expr::I(x) => (self.creg(ConstKey::I(*x), Value::I(*x)), Bank::I),
            Expr::B(x) => (self.creg(ConstKey::B(*x), Value::B(*x)), Bank::B),
            _ => (slot, self.expr(e, slot, sp)?),
        })
    }

    /// Compile `exprs` into consecutive registers from `sp` (forwarding bare
    /// variables and literals).
    fn operands(&mut self, exprs: &[Expr], sp: u16) -> Option<Vec<(u16, Bank)>> {
        let mut slot = sp;
        let mut regs = Vec::with_capacity(exprs.len());
        for e in exprs {
            let next = slot.checked_add(1)?;
            let (r, b) = self.operand(e, slot, next)?;
            if r == slot {
                slot = next;
            }
            regs.push((r, b));
        }
        Some(regs)
    }

    /// Compile `e` into `dst`, using temporaries from `sp` upward, and
    /// return the bank it lands in. Invariant: `sp > dst` unless `dst` is a
    /// scalar register, and expression code never writes scalar registers,
    /// so operands compiled into `dst` survive until the combining
    /// instruction.
    fn expr(&mut self, e: &Expr, dst: u16, sp: u16) -> Option<Bank> {
        self.note(dst)?;
        Some(match e {
            Expr::F(x) => {
                self.code.push(TOp::ConstF { dst, v: *x });
                Bank::F
            }
            Expr::I(x) => {
                self.code.push(TOp::ConstI { dst, v: *x });
                Bank::I
            }
            Expr::B(x) => {
                self.code.push(TOp::ConstB { dst, v: *x });
                Bank::B
            }
            Expr::Var(s) => {
                let (src, b) = self.scalar(*s)?;
                if src != dst {
                    self.code.push(conv_op(dst, src, b, b));
                }
                b
            }
            Expr::Un(op, a) => {
                let (ra, ab) = self.operand(a, dst, sp)?;
                self.charge(1);
                match (op, ab) {
                    (UnOp::Neg, Bank::I) => {
                        self.code.push(TOp::NegI { dst, a: ra });
                        Bank::I
                    }
                    (UnOp::Neg, _) => {
                        self.convert(ra, ab, Bank::F);
                        self.code.push(TOp::NegF { dst, a: ra });
                        Bank::F
                    }
                    (UnOp::Not, _) => {
                        self.convert(ra, ab, Bank::B);
                        self.code.push(TOp::NotB { dst, a: ra });
                        Bank::B
                    }
                }
            }
            Expr::Bin(op, a, b) => {
                let (ra, ab) = self.operand(a, dst, sp)?;
                let (bslot, nsp) = if ra == dst { (sp, sp.checked_add(1)?) } else { (dst, sp) };
                let (rb, bb) = self.operand(b, bslot, nsp)?;
                self.charge(1);
                // Integer arithmetic and comparisons when neither side is a
                // float, the `eval_bin` promotion rule.
                let num = if ab != Bank::F && bb != Bank::F { Bank::I } else { Bank::F };
                let (want, out) = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem | BinOp::Min | BinOp::Max => {
                        (num, num)
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => (num, Bank::B),
                    BinOp::And | BinOp::Or => (Bank::B, Bank::B),
                    BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => (Bank::I, Bank::I),
                };
                self.convert(ra, ab, want);
                self.convert(rb, bb, want);
                let (op, a, b) = (*op, ra, rb);
                self.code.push(match (op, want, out) {
                    (BinOp::And, ..) => TOp::AndB { dst, a, b },
                    (BinOp::Or, ..) => TOp::OrB { dst, a, b },
                    (_, Bank::F, Bank::B) => TOp::CmpF { dst, op, a, b },
                    (_, _, Bank::B) => TOp::CmpI { dst, op, a, b },
                    (_, Bank::F, _) => TOp::ArithF { dst, op, a, b },
                    _ => TOp::ArithI { dst, op, a, b },
                });
                out
            }
            Expr::Select { cond, t, f } => {
                let (rc, cb) = self.operand(cond, dst, sp)?;
                let (t_reg, f_reg, arm_sp) = (sp, sp.checked_add(1)?, sp.checked_add(2)?);
                self.note(t_reg)?;
                self.note(f_reg)?;
                self.charge(1);
                self.flush();
                self.convert(rc, cb, Bank::B);
                let at = self.code.len();
                self.code.push(TOp::Select { cond: rc, dst, t_reg, f_reg, bank: Bank::I, t_len: 0, f_len: 0 });
                self.depth += 1;
                let (tl, tb) = self.arm(t, t_reg, arm_sp)?;
                let (fl, fb) = self.arm(f, f_reg, arm_sp)?;
                self.depth -= 1;
                if tb != fb {
                    return None;
                }
                if let TOp::Select { bank, t_len, f_len, .. } = &mut self.code[at] {
                    *bank = tb;
                    *t_len = tl;
                    *f_len = fl;
                }
                tb
            }
            Expr::Intrin(f, args) => {
                let regs = self.operands(args, sp)?;
                self.charge(intrin_cost(*f));
                if let (Intrin::Abs, Some(&(a, Bank::I))) = (f, regs.first()) {
                    self.code.push(TOp::AbsI { dst, a });
                    Bank::I
                } else {
                    let (args_off, args_len) = self.park(&regs, Bank::F)?;
                    self.code.push(TOp::IntrinF { dst, f: *f, args_off, args_len });
                    Bank::F
                }
            }
            Expr::CastI(a) => {
                let (ra, ab) = self.operand(a, dst, sp)?;
                self.charge(1);
                self.code.push(conv_op(dst, ra, ab, Bank::I));
                Bank::I
            }
            Expr::CastF(a) => {
                let (ra, ab) = self.operand(a, dst, sp)?;
                self.charge(1);
                self.code.push(conv_op(dst, ra, ab, Bank::F));
                Bank::F
            }
            Expr::Load { array, index, site } => {
                let regs = self.operands(index, sp)?;
                self.charge(index.len().saturating_sub(1) as u64);
                let fast = self.fast_slot(*array, index, site.0)?;
                let (idx_off, idx_len) = self.park(&regs, Bank::I)?;
                let dst_f = self.prog.array_elem(*array).is_float();
                let arr = u16::try_from(array.0).ok()?;
                self.code.push(TOp::Load { dst, dst_f, arr, site: site.0, idx_off, idx_len, fast });
                if dst_f {
                    Bank::F
                } else {
                    Bank::I
                }
            }
        })
    }

    /// One `select` arm: compile `e` into `reg` as its own sub-block.
    fn arm(&mut self, e: &Expr, reg: u16, sp: u16) -> Option<(u32, Bank)> {
        let start = self.code.len();
        let b = self.expr(e, reg, sp)?;
        self.flush();
        Some((self.len_since(start)?, b))
    }

    /// Decide whether a memory site takes the analytic fast path (its slot,
    /// or -1): executed exactly once per lane (depth 0), non-private global
    /// or shared-tiled space (the two spaces whose warp pricing is
    /// translation-invariant and therefore memoizable), and every index
    /// dimension affine in the axis variables with no dependence on
    /// body-written scalars. The runtime re-verifies the arithmetic
    /// progression per row, so this is purely a profitability filter.
    fn fast_slot(&mut self, array: ArrayId, index: &[Expr], site: u32) -> Option<i32> {
        if self.depth != 0
            || self.plan.expansion_of(array).is_some()
            || !matches!(self.plan.space_of(array), MemSpace::Global | MemSpace::SharedTiled { .. })
        {
            return Some(-1);
        }
        let ok = index.iter().all(|e| {
            expr_affine(e, &self.axis_vars) && {
                let mut clean = true;
                e.visit(&mut |x| {
                    if let Expr::Var(s) = x {
                        if self.assigned.contains(&s.0) {
                            clean = false;
                        }
                    }
                });
                clean
            }
        });
        if !ok {
            return Some(-1);
        }
        let f = i32::try_from(self.fast_sites.len()).ok()?;
        self.fast_sites.push(site);
        Some(f)
    }

    /// Launch-uniform: no loads, no axis variables, no body-assigned
    /// scalars — the value is identical for every lane of every block.
    fn launch_uniform(&self, e: &Expr) -> bool {
        let mut ok = true;
        e.visit(&mut |x| match x {
            Expr::Load { .. } => ok = false,
            Expr::Var(s) if self.assigned.contains(&s.0) || self.axis_vars.contains(s) => ok = false,
            _ => {}
        });
        ok
    }

    /// Compile a statement list as a sub-block and return its length.
    fn block(&mut self, stmts: &[Stmt]) -> Option<u32> {
        let start = self.code.len();
        for s in stmts {
            self.stmt(s)?;
        }
        self.flush();
        self.len_since(start)
    }

    fn stmt(&mut self, s: &Stmt) -> Option<()> {
        let tb = self.temp_base;
        match s {
            Stmt::Assign { var, value } => {
                let vr = self.scal_reg[&var.0];
                let b = if value.uses_var(*var) {
                    let b = self.expr(value, tb, tb.checked_add(1)?)?;
                    self.code.push(conv_op(vr, tb, b, b));
                    b
                } else {
                    self.expr(value, vr, tb)?
                };
                self.charge(1);
                self.banks[vr as usize] = Some(b);
            }
            Stmt::Store { array, index, value, site } => {
                // Value first, then indices — the order the tree walk
                // evaluates (and charges) them.
                let (rv, vb) = self.operand(value, tb, tb.checked_add(1)?)?;
                let isp = if rv == tb { tb.checked_add(1)? } else { tb };
                let regs = self.operands(index, isp)?;
                self.charge(index.len().saturating_sub(1) as u64);
                let fast = self.fast_slot(*array, index, site.0)?;
                let src_f = self.prog.array_elem(*array).is_float();
                self.convert(rv, vb, if src_f { Bank::F } else { Bank::I });
                let (idx_off, idx_len) = self.park(&regs, Bank::I)?;
                let arr = u16::try_from(array.0).ok()?;
                self.code.push(TOp::Store { src: rv, src_f, arr, site: site.0, idx_off, idx_len, fast });
            }
            Stmt::If { cond, then_b, else_b, site } => {
                let (rc, cb) = self.operand(cond, tb, tb.checked_add(1)?)?;
                self.flush();
                self.convert(rc, cb, Bank::B);
                let at = self.code.len();
                self.code.push(TOp::If { cond: rc, site: site.0, then_len: 0, else_len: 0 });
                self.depth += 1;
                let entry = self.banks.clone();
                let tl = self.block(then_b)?;
                let then_banks = std::mem::replace(&mut self.banks, entry);
                let el = self.block(else_b)?;
                self.depth -= 1;
                for (b, t) in self.banks.iter_mut().zip(then_banks) {
                    if *b != t {
                        *b = None;
                    }
                }
                if let TOp::If { then_len, else_len, .. } = &mut self.code[at] {
                    *then_len = tl;
                    *else_len = el;
                }
            }
            Stmt::For { var, lo, hi, step, body, .. } => {
                if !(self.launch_uniform(lo) && self.launch_uniform(hi) && self.launch_uniform(step)) {
                    // Trip counts vary per lane or block: per-block op
                    // charges are no longer a pure function of lane shape.
                    self.price_uniform = false;
                }
                let vr = self.scal_reg[&var.0];
                // `lo` may mention the loop variable; expressions never
                // write scalar registers, so route through a temp.
                let (rlo, lb) = self.operand(lo, tb, tb.checked_add(1)?)?;
                self.code.push(conv_op(vr, rlo, lb, Bank::I));
                self.banks[vr as usize] = Some(Bank::I);
                self.flush();
                let at = self.code.len();
                self.code.push(TOp::For { var: vr, hi_reg: 0, step_reg: 0, hi_len: 0, step_len: 0, body_len: 0 });
                self.depth += 1;
                let entry = self.banks.clone();
                let (hr, hl) = self.bound(hi, tb, Bank::I)?;
                let (sr, sl) = self.bound(step, tb.checked_add(1)?, Bank::I)?;
                let bl = self.block(body)?;
                self.depth -= 1;
                // The next iteration re-enters with this one's banks, so
                // every scalar (the loop variable included) must end the
                // body where it started.
                if self.banks != entry {
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
            Stmt::While { cond, body } => {
                self.flush();
                let at = self.code.len();
                self.code.push(TOp::While { cond: 0, cond_len: 0, body_len: 0 });
                self.depth += 1;
                let entry = self.banks.clone();
                let (cr, cl) = self.bound(cond, tb, Bank::B)?;
                let bl = self.block(body)?;
                self.depth -= 1;
                if self.banks != entry {
                    return None;
                }
                if let TOp::While { cond, cond_len, body_len } = &mut self.code[at] {
                    *cond = cr;
                    *cond_len = cl;
                    *body_len = bl;
                }
            }
            Stmt::Critical { body } => {
                self.code.push(TOp::CritEnter);
                self.depth += 1;
                for st in body {
                    self.stmt(st)?;
                }
                self.depth -= 1;
                self.code.push(TOp::CritExit);
            }
            Stmt::Barrier => self.charge(4),
            Stmt::Parallel(r) => {
                for st in &r.body {
                    self.stmt(st)?;
                }
            }
            Stmt::DataRegion { body, .. } => {
                for st in body {
                    self.stmt(st)?;
                }
            }
            Stmt::Update { .. } => {}
            Stmt::Call { .. } => return None,
        }
        Some(())
    }

    /// A loop bound or condition, read as `want` once per iteration: a bare
    /// variable or literal reads its register with no per-iteration code
    /// (the tree walk charges nothing for those either); anything else
    /// becomes a per-iteration block so its op charges repeat exactly as
    /// under the tree engine. A conversion to `want` joins the block.
    fn bound(&mut self, e: &Expr, slot: u16, want: Bank) -> Option<(u16, u32)> {
        let start = self.code.len();
        let (r, b) = match e {
            Expr::Var(_) | Expr::F(_) | Expr::I(_) | Expr::B(_) => self.operand(e, slot, slot)?,
            _ => {
                let b = self.expr(e, slot, self.temp_base.checked_add(2)?)?;
                self.flush();
                (slot, b)
            }
        };
        self.convert(r, b, want);
        Some((r, self.len_since(start)?))
    }
}

/// Reusable execution arena. Each thread keeps one for its native launches
/// ([`WarpScratch::take`], [`WarpScratch::recycle`]); a launch reshapes it
/// (cheaply) for its kernel and resets its evidence between warps, so no
/// per-warp allocation survives in steady state.
pub struct WarpScratch {
    pub(crate) lane_ops: Vec<u64>,
    pub(crate) traces: Vec<SiteWarpTrace>,
    /// Per-site "this warp recorded into `traces[i]`" flags, so pricing can
    /// skip the (mostly fast-path) sites whose traces stayed empty.
    pub(crate) site_touched: Vec<bool>,
    pub(crate) fast_rows: Vec<u64>,
    pub(crate) priv_bufs: Vec<Buffer>,
    pub(crate) memo: AffineRowMemo,
    pub(crate) warp: usize,
    priv_sig: Vec<(ElemType, usize)>,
    /// Typed register banks the native closures execute against, sized and
    /// loaded per launch by `native::begin_launch`.
    pub(crate) fregs: Vec<f64>,
    pub(crate) iregs: Vec<i64>,
    pub(crate) bregs: Vec<bool>,
}

impl WarpScratch {
    fn new() -> Self {
        WarpScratch {
            lane_ops: Vec::new(),
            traces: Vec::new(),
            site_touched: Vec::new(),
            fast_rows: Vec::new(),
            priv_bufs: Vec::new(),
            memo: AffineRowMemo::new(128),
            warp: 0,
            priv_sig: Vec::new(),
            fregs: Vec::new(),
            iregs: Vec::new(),
            bregs: Vec::new(),
        }
    }

    /// Reshape for a new launch: size the per-lane counters, per-site traces
    /// and private scratch, and reset the affine-row memo (site numbering is
    /// launch-local).
    pub(crate) fn begin_launch(
        &mut self,
        bc: &KernelBytecode,
        warp: usize,
        site_count: usize,
        priv_shapes: &[(ElemType, usize)],
        segment_bytes: u32,
    ) {
        self.warp = warp;
        self.lane_ops.clear();
        self.lane_ops.resize(warp, 0);
        if self.traces.len() != site_count || self.traces.iter().any(|t| t.lanes() != warp) {
            self.traces = (0..site_count).map(|_| SiteWarpTrace::new(warp as u32)).collect();
        } else {
            for t in &mut self.traces {
                t.clear();
            }
        }
        self.site_touched.clear();
        self.site_touched.resize(site_count, false);
        self.fast_rows.clear();
        self.fast_rows.resize(bc.fast_sites.len() * warp, 0);
        if self.priv_sig != priv_shapes {
            self.priv_bufs.clear();
            for &(elem, len) in priv_shapes {
                for _ in 0..warp {
                    self.priv_bufs.push(Buffer::zeroed(elem, len));
                }
            }
            self.priv_sig = priv_shapes.to_vec();
        }
        self.memo.reset(segment_bytes);
    }

    /// Reset the per-warp pricing evidence: op counters and traces. A warp
    /// whose block replays its pricing from the representative-block cache
    /// skips this: the functional-only closures it runs neither read nor
    /// write the evidence.
    pub(crate) fn begin_warp(&mut self) {
        self.lane_ops.iter_mut().for_each(|x| *x = 0);
        for t in &mut self.traces {
            t.clear();
        }
        self.site_touched.iter_mut().for_each(|x| *x = false);
    }
}

thread_local! {
    static SCRATCH: Cell<Option<WarpScratch>> = const { Cell::new(None) };
}

impl WarpScratch {
    /// This thread's arena, reused across launches (a fresh one while
    /// another launch on this thread holds it).
    pub(crate) fn take() -> WarpScratch {
        SCRATCH.with(Cell::take).unwrap_or_else(WarpScratch::new)
    }

    /// Return the arena for the thread's next launch. A launch that panics
    /// never gets here: it drops its arena.
    pub(crate) fn recycle(self) {
        SCRATCH.with(|c| c.set(Some(self)));
    }
}

/// Launch-wide layout the closures address device and private arrays
/// through (device buffers themselves travel separately, as `&mut`).
pub(crate) struct ExecCtx<'a> {
    pub prog: &'a Program,
    pub base: &'a [u64],
    pub elem_bytes: &'a [u32],
    pub extents: &'a [Vec<usize>],
    pub strides: &'a [Vec<usize>],
    /// Per-array private expansion (None for device arrays).
    pub expansion: &'a [Option<Expansion>],
    /// Per-array index into the private scratch rows, or -1.
    pub priv_slot: &'a [i32],
    pub total_threads: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::expr::{ld, v};
    use crate::kernel::axis;

    #[test]
    fn compile_bails_on_calls() {
        let mut pb = ProgramBuilder::new("c");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let x = pb.farray("x", vec![v(n)]);
        let pa = pb.farray("pa", vec![v(n)]);
        let f = pb.func("f", vec![], vec![pa], vec![store(pa, vec![crate::expr::ic(0)], 1.0)]);
        pb.main(vec![]);
        let p = pb.build();
        let mut k = KernelPlan::new("k", vec![axis(i, v(n))], vec![call(f, vec![], vec![x])]);
        k.finalize();
        assert!(compile(&p, &k).is_none());
    }

    #[test]
    fn compile_detects_affine_fast_sites() {
        let mut pb = ProgramBuilder::new("a");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let x = pb.farray("x", vec![v(n)]);
        let y = pb.farray("y", vec![v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        // y[i] = x[i]*2 — both sites affine, depth 0.
        let mut k = KernelPlan::new("k", vec![axis(i, v(n))], vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * 2.0)]);
        k.finalize();
        let bc = compile(&p, &k).expect("compiles");
        assert_eq!(bc.fast_site_count(), 2);
        assert!(bc.op_count() > 0);
    }

    #[test]
    fn non_affine_or_nested_sites_stay_slow() {
        let mut pb = ProgramBuilder::new("a");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let j = pb.iscalar("j");
        let x = pb.farray("x", vec![v(n)]);
        let y = pb.farray("y", vec![v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        // x[(i*i) % n] is not affine; the load inside the loop is nested.
        let body = vec![
            store(y, vec![v(i)], ld(x, vec![(v(i) * v(i)) % v(n)])),
            sfor(j, 0i64, 4i64, vec![store(y, vec![v(i)], ld(x, vec![v(j)]))]),
        ];
        let mut k = KernelPlan::new("k", vec![axis(i, v(n))], body);
        k.finalize();
        let bc = compile(&p, &k).expect("compiles");
        // Only the depth-0 store to y[i] qualifies.
        assert_eq!(bc.fast_site_count(), 1);
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
        let bc = compile(&p, &k).expect("a float stream has one bank per register");
        assert!(bc.code.iter().any(|op| matches!(op, TOp::ArithF { .. })), "{:?}", bc.code);
    }

    #[test]
    fn loop_temp_bank_rebinding_still_lowers_typed() {
        // The spmv shape: integer index temps and float product temps share
        // compiler registers across the loop body. Temporaries die at each
        // statement boundary, so only the scalars need stable banks.
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
        assert!(compile(&p, &k).is_some());
    }

    #[test]
    fn loop_carried_liveins_are_identified() {
        // An accumulator carried around a loop must keep its bank: seeded
        // with a float it compiles, seeded with an integer it turns float
        // in the first iteration and the plan is ineligible.
        let mut pb = ProgramBuilder::new("livein");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let j = pb.iscalar("j");
        let s = pb.fscalar("s");
        let x = pb.farray("x", vec![v(n)]);
        let y = pb.farray("y", vec![v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        let plan = |seed: Expr| {
            let body = vec![
                assign(s, seed),
                sfor(j, 0i64, v(n), vec![assign(s, v(s) + ld(x, vec![v(j)]))]),
                store(y, vec![v(i)], v(s)),
            ];
            let mut k = KernelPlan::new("k", vec![axis(i, v(n))], body);
            k.finalize();
            k
        };
        let bc = compile(&p, &plan(Expr::F(0.0))).expect("a float-seeded accumulator keeps its bank");
        let s_reg = bc.scal_init_warp.iter().find(|&&(slot, ..)| slot == s.0).map(|&(_, r, _)| r);
        assert!(
            bc.code
                .iter()
                .any(|op| matches!(*op, TOp::ArithF { dst, .. } | TOp::CopyF { dst, .. } if Some(dst) == s_reg)),
            "{:?}",
            bc.code
        );
        assert!(compile(&p, &plan(Expr::I(0))).is_none(), "an integer-seeded float accumulator must be rejected");
    }
}
