//! Bytecode compiler: the first stage of the compiled kernel pipeline
//! (compile, optimize, typed lowering, native closures; see
//! [`super::native`]).
//!
//! [`compile`] lowers a [`KernelPlan`] body once into a flat register-based
//! instruction stream: scalar slots resolve to dense registers, literals pool
//! into launch-time constant registers, and loop bounds that are plain
//! variables or constants are hoisted out of the per-iteration stream. The
//! result is cached on the plan (see `KernelPlan::engine_cache`), so the
//! sweep's compile memoization amortizes it across tuning points, and
//! geometry retargeting keeps it valid (nothing here depends on block
//! shape). The stream is never executed as is: [`super::opt`] rewrites it
//! and lowers it onto typed register banks, and [`super::native`] turns that
//! into closures.
//!
//! Accounting contract (every later stage keeps it, and it must mirror
//! `Interp::exec_plain`/`eval` exactly): every `Bin`/`Un`/`CastI`/`CastF`/
//! `Select` charges 1 op, `Assign` charges 1, a `For` iteration check
//! charges 1 and the increment charges 1, a `While` iteration charges 1 only
//! when the condition held, multi-dim index flattening charges `dims-1`,
//! intrinsics charge the SFU cost table, barriers charge 4. Loads/stores
//! record per-lane byte addresses into the same [`SiteWarpTrace`] streams the
//! tree engine fills. Sites whose addresses are affine in the axis variables
//! additionally support an analytic fast path: their single per-warp address
//! row is captured directly and summarised through
//! [`acceval_sim::AffineRowMemo`].
//!
//! The module also holds the execution state the closures run against: the
//! per-launch [`WarpScratch`] arena (register file, per-lane op counters,
//! site traces, private-array scratch; no per-warp allocation), the shared
//! `RawBuf` buffer views, and the launch-wide `ExecCtx`.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Mutex;

use acceval_sim::{AffineRowMemo, Buffer, ElemType, Payload, SiteWarpTrace};

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

/// One bytecode instruction. Registers are indices into a lane-major SoA
/// register file (`regs[r * warp + lane]`). Structured ops (`If`, `Select`,
/// `For`, `While`) are headers followed by length-delimited sub-blocks laid
/// out inline; the executor derives block offsets from the recorded lengths.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `dst = const` (no op charge — constants are free in the tree walk).
    ConstF {
        /// Destination register.
        dst: u16,
        /// Literal value.
        v: f64,
    },
    /// Integer constant.
    ConstI {
        /// Destination register.
        dst: u16,
        /// Literal value.
        v: i64,
    },
    /// Boolean constant.
    ConstB {
        /// Destination register.
        dst: u16,
        /// Literal value.
        v: bool,
    },
    /// `dst = src` (no op charge — a bare `Var` read is free).
    Copy {
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
    },
    /// `dst = Value::I(a.as_i())` (no op charge — used for loop-var init).
    AsInt {
        /// Destination register.
        dst: u16,
        /// Source register.
        a: u16,
    },
    /// Unary op (charge folded into a static `Ops`).
    Un {
        /// Destination register.
        dst: u16,
        /// Operator.
        op: UnOp,
        /// Operand register.
        a: u16,
    },
    /// Binary op (charge folded into a static `Ops`).
    Bin {
        /// Destination register.
        dst: u16,
        /// Operator.
        op: BinOp,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `dst = Value::I(a.as_i())` (charge folded into a static `Ops`).
    CastI {
        /// Destination register.
        dst: u16,
        /// Operand register.
        a: u16,
    },
    /// `dst = Value::F(a.as_f())` (charge folded into a static `Ops`).
    CastF {
        /// Destination register.
        dst: u16,
        /// Operand register.
        a: u16,
    },
    /// Charge `n` plain ALU ops to every active lane: all statically-known
    /// charges of a straight-line stretch (binary/unary/cast ops, assigns,
    /// intrinsic costs, index flattening, barriers) folded into one
    /// instruction at compile time.
    Ops {
        /// Op count.
        n: u64,
    },
    /// Intrinsic call; argument registers live in the shared pool.
    Intrin {
        /// Destination register.
        dst: u16,
        /// Intrinsic function.
        f: Intrin,
        /// Offset of the argument registers in the pool.
        args_off: u32,
        /// Argument count.
        args_len: u8,
    },
    /// Array load. Index registers live in the pool; `fast >= 0` routes the
    /// byte address to the affine fast-path row instead of the site trace.
    Load {
        /// Destination register.
        dst: u16,
        /// Array index (`ArrayId.0`).
        arr: u16,
        /// Access site.
        site: u32,
        /// Offset of the index registers in the pool.
        idx_off: u32,
        /// Number of index dimensions.
        idx_len: u8,
        /// Fast-path slot, or -1 for normal tracing.
        fast: i32,
    },
    /// Array store (value register evaluated before the index registers).
    Store {
        /// Source (value) register.
        src: u16,
        /// Array index (`ArrayId.0`).
        arr: u16,
        /// Access site.
        site: u32,
        /// Offset of the index registers in the pool.
        idx_off: u32,
        /// Number of index dimensions.
        idx_len: u8,
        /// Fast-path slot, or -1 for normal tracing.
        fast: i32,
    },
    /// Branch: records per-lane outcomes, then splits the mask over the
    /// then/else sub-blocks.
    If {
        /// Condition register (evaluated by preceding instructions).
        cond: u16,
        /// Branch site (divergence accounting).
        site: u32,
        /// Length of the then-block.
        then_len: u32,
        /// Length of the else-block.
        else_len: u32,
    },
    /// Ternary select; evaluates only the taken side per lane (its 1-op
    /// charge is folded into the preceding static `Ops`).
    Select {
        /// Condition register.
        cond: u16,
        /// Destination register.
        dst: u16,
        /// Register the true-arm block writes.
        t_reg: u16,
        /// Register the false-arm block writes.
        f_reg: u16,
        /// Length of the true-arm block.
        t_len: u32,
        /// Length of the false-arm block.
        f_len: u32,
    },
    /// Counted loop. The loop variable was initialised by preceding
    /// instructions; `hi`/`step` are either hoisted registers (`*_len == 0`)
    /// or re-evaluated per iteration from their sub-blocks.
    For {
        /// Loop-variable register.
        var: u16,
        /// Register holding the upper bound.
        hi_reg: u16,
        /// Register holding the step.
        step_reg: u16,
        /// Length of the per-iteration upper-bound block (0 when hoisted).
        hi_len: u32,
        /// Length of the per-iteration step block (0 when hoisted).
        step_len: u32,
        /// Length of the body block.
        body_len: u32,
    },
    /// Condition-controlled loop.
    While {
        /// Condition register.
        cond: u16,
        /// Length of the per-iteration condition block (0 when hoisted).
        cond_len: u32,
        /// Length of the body block.
        body_len: u32,
    },
    /// Enter a critical section (subsequent global accesses count atomics).
    CritEnter,
    /// Leave a critical section.
    CritExit,
}

/// A kernel body compiled to bytecode. Geometry-independent: the same
/// object serves every block shape a tuning sweep tries.
#[derive(Debug)]
pub struct KernelBytecode {
    pub(crate) code: Vec<Op>,
    /// Shared register pool for Load/Store indices and Intrin arguments.
    pub(crate) pool: Vec<u16>,
    /// Total registers (scalar slots + constants + temporaries).
    pub(crate) nregs: u16,
    /// First temporary register: scalar slots and pooled constants live
    /// below, expression temporaries at and above. The optimizer uses the
    /// boundary to tell rewritable temporaries from named state.
    pub(crate) temp_base: u16,
    /// `(scalar slot, register)` for scalars the body never writes:
    /// broadcast once per launch.
    pub(crate) scal_init_launch: Vec<(u32, u16)>,
    /// `(scalar slot, register)` for scalars the body (or launch prologue)
    /// writes: re-broadcast from the base environment every warp.
    pub(crate) scal_init_warp: Vec<(u32, u16)>,
    /// `(register, value)` constants, loaded once per launch.
    pub(crate) const_init: Vec<(u16, Value)>,
    /// Registers of the axis variables (`axis_regs[1]` unused when 1-D).
    pub(crate) axis_regs: [u16; 2],
    /// Registers of scalar-reduction accumulators, in reduction order.
    pub(crate) red_scalar_regs: Vec<u16>,
    /// Site ids on the analytic fast path, indexed by fast slot.
    pub(crate) fast_sites: Vec<u32>,
    /// Execute lanes one at a time instead of in lockstep. Set when the
    /// body may carry cross-lane dependencies through device memory (an
    /// array both loaded and stored, or stored from several sites): the
    /// reference tree engine runs each lane to completion before the next,
    /// so such bodies observe earlier lanes' writes — lane-serial execution
    /// reproduces that ordering exactly while keeping the compiled
    /// dispatch and the allocation-free register file.
    pub(crate) serial_lanes: bool,
    /// Blocks of this kernel may execute concurrently: every store to a
    /// shared (non-private) array is lane-disjoint, and so is every load of
    /// a stored array, so no simulated thread can observe another thread's
    /// writes through device memory. Any block partition then produces the
    /// functional outcome of the serial block walk. One tangled access to a
    /// stored array (even when lane-serial execution would still be sound
    /// within a warp) makes the outcome depend on block execution order and
    /// disqualifies the launch.
    pub(crate) par_blocks_ok: bool,
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
    /// Number of instructions in the flat stream (diagnostics/tests).
    pub fn op_count(&self) -> usize {
        self.code.len()
    }

    /// Number of memory sites on the analytic affine fast path.
    pub fn fast_site_count(&self) -> usize {
        self.fast_sites.len()
    }
}

/// Compile a finalized kernel plan's body to bytecode.
///
/// Returns `None` when the body uses a construct the compiled pipeline does
/// not model (function calls, or a second axis whose bounds depend on the
/// first axis variable); such kernels run on the tree walker.
pub fn compile(prog: &Program, plan: &KernelPlan) -> Option<KernelBytecode> {
    if plan.body.iter().any(|s| s.contains_call()) {
        return None;
    }
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
    // Block-level parallelism needs the stronger form of the same analysis:
    // every stored array must be untangled outright (`tangled` already folds
    // in the load indexings), so each thread touches only elements owned by
    // its unique global id and block order cannot matter.
    let par_blocks_ok = store_sites.keys().all(|a| !tangled.contains(a));

    let scal_reg: BTreeMap<u32, u16> = scal_ids.iter().enumerate().map(|(k, &s)| (s, k as u16)).collect();
    let temp_base = (scal_reg.len() + const_count) as u16;

    let _ = prog;
    let mut c = Compiler {
        plan,
        code: Vec::new(),
        pool: Vec::new(),
        scal_reg,
        const_reg: HashMap::new(),
        const_init: Vec::new(),
        next_const: 0,
        temp_base,
        nregs: temp_base,
        assigned,
        axis_vars: axis_set,
        fast_sites: Vec::new(),
        depth: 0,
        pending: 0,
        price_uniform: true,
    };
    c.next_const = c.scal_reg.len() as u16;
    for s in &plan.body {
        c.stmt(s);
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
        let mutable = c.assigned.contains(&slot)
            || c.plan.reductions.iter().any(|rd| matches!(rd.target, VarRef::Scalar(s) if s.0 == slot));
        if mutable {
            scal_init_warp.push((slot, r));
        } else {
            scal_init_launch.push((slot, r));
        }
    }
    let axis_regs =
        [c.scal_reg[&plan.axes[0].var.0], if plan.axes.len() > 1 { c.scal_reg[&plan.axes[1].var.0] } else { 0 }];
    let red_scalar_regs: Vec<u16> = plan
        .reductions
        .iter()
        .filter_map(|r| match r.target {
            VarRef::Scalar(s) => Some(c.scal_reg[&s.0]),
            VarRef::Array(_) => None,
        })
        .collect();

    // Uniform pricing: every access on the fast path, no mask-splitting or
    // data-dependent ops in the stream. `For` bounds were vetted at emission
    // (`price_uniform`): launch-uniform init/hi/step make every lane of
    // every block run the same trip counts, so per-block op charges depend
    // only on the block's active-lane shape.
    let uniform_pricing = c.price_uniform
        && c.code.iter().all(|op| match *op {
            Op::Load { fast, .. } | Op::Store { fast, .. } => fast >= 0,
            Op::If { .. } | Op::While { .. } | Op::Select { .. } | Op::CritEnter | Op::CritExit => false,
            _ => true,
        });

    Some(KernelBytecode {
        code: c.code,
        pool: c.pool,
        nregs: c.nregs,
        temp_base,
        scal_init_launch,
        scal_init_warp,
        const_init: c.const_init,
        axis_regs,
        red_scalar_regs,
        fast_sites: c.fast_sites,
        serial_lanes,
        par_blocks_ok,
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
    plan: &'a KernelPlan,
    code: Vec<Op>,
    /// Statically-known per-lane op charges accumulated since the last
    /// flush; folded into one `Op::Ops` at every sub-block boundary so the
    /// executor never pays per-instruction counter updates for them.
    pending: u64,
    pool: Vec<u16>,
    scal_reg: BTreeMap<u32, u16>,
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
            self.code.push(Op::Ops { n: self.pending });
            self.pending = 0;
        }
    }

    #[inline]
    fn note(&mut self, r: u16) {
        if r >= self.nregs {
            self.nregs = r + 1;
        }
    }

    #[inline]
    fn reg(&self, s: ScalarId) -> u16 {
        self.scal_reg[&s.0]
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

    /// Compile `e` so its value lands in some register: a bare variable or
    /// literal is forwarded without emitting code, anything else compiles
    /// into `slot` (with temporaries from `sp` upward).
    fn operand(&mut self, e: &Expr, slot: u16, sp: u16) -> u16 {
        match e {
            Expr::Var(s) => self.reg(*s),
            Expr::F(x) => self.creg(ConstKey::F(x.to_bits()), Value::F(*x)),
            Expr::I(x) => self.creg(ConstKey::I(*x), Value::I(*x)),
            Expr::B(x) => self.creg(ConstKey::B(*x), Value::B(*x)),
            _ => {
                self.expr(e, slot, sp);
                slot
            }
        }
    }

    /// Compile `e` into `dst`, using temporaries from `sp` upward.
    /// Invariant: `sp > dst` unless `dst` is a scalar register, and
    /// expression code never writes scalar registers, so operands compiled
    /// into `dst` survive until the combining instruction.
    fn expr(&mut self, e: &Expr, dst: u16, sp: u16) {
        self.note(dst);
        match e {
            Expr::F(x) => self.code.push(Op::ConstF { dst, v: *x }),
            Expr::I(x) => self.code.push(Op::ConstI { dst, v: *x }),
            Expr::B(x) => self.code.push(Op::ConstB { dst, v: *x }),
            Expr::Var(s) => {
                let src = self.reg(*s);
                if src != dst {
                    self.code.push(Op::Copy { dst, src });
                }
            }
            Expr::Un(op, a) => {
                let ra = self.operand(a, dst, sp);
                self.charge(1);
                self.code.push(Op::Un { dst, op: *op, a: ra });
            }
            Expr::Bin(op, a, b) => {
                let ra = self.operand(a, dst, sp);
                let (bslot, nsp) = if ra == dst { (sp, sp + 1) } else { (dst, sp) };
                let rb = self.operand(b, bslot, nsp);
                self.charge(1);
                self.code.push(Op::Bin { dst, op: *op, a: ra, b: rb });
            }
            Expr::Select { cond, t, f } => {
                let rc = self.operand(cond, dst, sp);
                let (t_reg, f_reg) = (sp, sp + 1);
                self.note(t_reg);
                self.note(f_reg);
                self.charge(1);
                self.flush();
                let at = self.code.len();
                self.code.push(Op::Select { cond: rc, dst, t_reg, f_reg, t_len: 0, f_len: 0 });
                self.depth += 1;
                let t0 = self.code.len();
                self.expr(t, t_reg, sp + 2);
                self.flush();
                let tl = (self.code.len() - t0) as u32;
                let f0 = self.code.len();
                self.expr(f, f_reg, sp + 2);
                self.flush();
                let fl = (self.code.len() - f0) as u32;
                self.depth -= 1;
                if let Op::Select { t_len, f_len, .. } = &mut self.code[at] {
                    *t_len = tl;
                    *f_len = fl;
                }
            }
            Expr::Intrin(f, args) => {
                let mut slot = sp;
                let mut iregs = Vec::with_capacity(args.len());
                for a in args {
                    let r = self.operand(a, slot, slot + 1);
                    if r == slot {
                        slot += 1;
                    }
                    iregs.push(r);
                }
                let args_off = self.pool.len() as u32;
                self.pool.extend(iregs);
                self.charge(intrin_cost(*f));
                self.code.push(Op::Intrin { dst, f: *f, args_off, args_len: args.len() as u8 });
            }
            Expr::CastI(a) => {
                let ra = self.operand(a, dst, sp);
                self.charge(1);
                self.code.push(Op::CastI { dst, a: ra });
            }
            Expr::CastF(a) => {
                let ra = self.operand(a, dst, sp);
                self.charge(1);
                self.code.push(Op::CastF { dst, a: ra });
            }
            Expr::Load { array, index, site } => {
                let (idx_off, idx_len) = self.index_regs(index, sp);
                if index.len() > 1 {
                    self.charge(index.len() as u64 - 1);
                }
                let fast = self.fast_slot(*array, index, site.0);
                self.code.push(Op::Load { dst, arr: array.0 as u16, site: site.0, idx_off, idx_len, fast });
            }
        }
    }

    /// Compile index expressions into sequential registers and park their
    /// register numbers in the shared pool.
    fn index_regs(&mut self, index: &[Expr], sp: u16) -> (u32, u8) {
        let mut slot = sp;
        let mut iregs = Vec::with_capacity(index.len());
        for ie in index {
            let r = self.operand(ie, slot, slot + 1);
            if r == slot {
                slot += 1;
            }
            iregs.push(r);
        }
        let off = self.pool.len() as u32;
        self.pool.extend(iregs);
        (off, index.len() as u8)
    }

    /// Decide whether a memory site takes the analytic fast path: executed
    /// exactly once per lane (depth 0), non-private global or shared-tiled
    /// space (the two spaces whose warp pricing is translation-invariant and
    /// therefore memoizable), and every index dimension affine in the axis
    /// variables with no dependence on body-written scalars. The runtime
    /// re-verifies the arithmetic progression per row, so this is purely a
    /// profitability filter.
    fn fast_slot(&mut self, array: ArrayId, index: &[Expr], site: u32) -> i32 {
        if self.depth != 0
            || self.plan.expansion_of(array).is_some()
            || !matches!(self.plan.space_of(array), MemSpace::Global | MemSpace::SharedTiled { .. })
        {
            return -1;
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
            return -1;
        }
        let f = self.fast_sites.len() as i32;
        self.fast_sites.push(site);
        f
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

    fn stmt(&mut self, s: &Stmt) {
        let tb = self.temp_base;
        match s {
            Stmt::Assign { var, value } => {
                let vr = self.reg(*var);
                if value.uses_var(*var) {
                    self.expr(value, tb, tb + 1);
                    self.code.push(Op::Copy { dst: vr, src: tb });
                } else {
                    self.expr(value, vr, tb);
                }
                self.charge(1);
            }
            Stmt::Store { array, index, value, site } => {
                // Value first, then indices — the order the tree walk
                // evaluates (and charges) them.
                let rv = self.operand(value, tb, tb + 1);
                let isp = if rv == tb { tb + 1 } else { tb };
                let (idx_off, idx_len) = self.index_regs(index, isp);
                if index.len() > 1 {
                    self.charge(index.len() as u64 - 1);
                }
                let fast = self.fast_slot(*array, index, site.0);
                self.code.push(Op::Store { src: rv, arr: array.0 as u16, site: site.0, idx_off, idx_len, fast });
            }
            Stmt::If { cond, then_b, else_b, site } => {
                let rc = self.operand(cond, tb, tb + 1);
                self.flush();
                let at = self.code.len();
                self.code.push(Op::If { cond: rc, site: site.0, then_len: 0, else_len: 0 });
                self.depth += 1;
                let t0 = self.code.len();
                for st in then_b {
                    self.stmt(st);
                }
                self.flush();
                let tl = (self.code.len() - t0) as u32;
                let e0 = self.code.len();
                for st in else_b {
                    self.stmt(st);
                }
                self.flush();
                let el = (self.code.len() - e0) as u32;
                self.depth -= 1;
                if let Op::If { then_len, else_len, .. } = &mut self.code[at] {
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
                let vr = self.reg(*var);
                // `lo` may mention the loop variable; expressions never
                // write scalar registers, so route through a temp.
                let rlo = self.operand(lo, tb, tb + 1);
                self.code.push(Op::AsInt { dst: vr, a: rlo });
                self.flush();
                let at = self.code.len();
                self.code.push(Op::For { var: vr, hi_reg: 0, step_reg: 0, hi_len: 0, step_len: 0, body_len: 0 });
                self.depth += 1;
                let (hi_reg, hi_len) = self.bound(hi, tb);
                let (step_reg, step_len) = self.bound(step, tb + 1);
                let b0 = self.code.len();
                for st in body {
                    self.stmt(st);
                }
                self.flush();
                let bl = (self.code.len() - b0) as u32;
                self.depth -= 1;
                if let Op::For { hi_reg: hr, step_reg: sr, hi_len: hl, step_len: sl, body_len, .. } = &mut self.code[at]
                {
                    *hr = hi_reg;
                    *sr = step_reg;
                    *hl = hi_len;
                    *sl = step_len;
                    *body_len = bl;
                }
            }
            Stmt::While { cond, body } => {
                self.flush();
                let at = self.code.len();
                self.code.push(Op::While { cond: 0, cond_len: 0, body_len: 0 });
                self.depth += 1;
                let (cond_reg, cond_len) = self.bound(cond, tb);
                let b0 = self.code.len();
                for st in body {
                    self.stmt(st);
                }
                self.flush();
                let bl = (self.code.len() - b0) as u32;
                self.depth -= 1;
                if let Op::While { cond, cond_len: cl, body_len } = &mut self.code[at] {
                    *cond = cond_reg;
                    *cl = cond_len;
                    *body_len = bl;
                }
            }
            Stmt::Critical { body } => {
                self.code.push(Op::CritEnter);
                self.depth += 1;
                for st in body {
                    self.stmt(st);
                }
                self.depth -= 1;
                self.code.push(Op::CritExit);
            }
            Stmt::Barrier => self.charge(4),
            Stmt::Parallel(r) => {
                for st in &r.body {
                    self.stmt(st);
                }
            }
            Stmt::DataRegion { body, .. } => {
                for st in body {
                    self.stmt(st);
                }
            }
            Stmt::Update { .. } => {}
            Stmt::Call { .. } => unreachable!("compile() bails on calls"),
        }
    }

    /// A loop bound: a bare variable or literal reads its register with no
    /// per-iteration code (the tree walk charges nothing for those either);
    /// anything else becomes a per-iteration block so its op charges repeat
    /// exactly as under the tree engine.
    fn bound(&mut self, e: &Expr, slot: u16) -> (u16, u32) {
        match e {
            Expr::Var(s) => (self.reg(*s), 0),
            Expr::F(x) => (self.creg(ConstKey::F(x.to_bits()), Value::F(*x)), 0),
            Expr::I(x) => (self.creg(ConstKey::I(*x), Value::I(*x)), 0),
            Expr::B(x) => (self.creg(ConstKey::B(*x), Value::B(*x)), 0),
            _ => {
                let c0 = self.code.len();
                self.expr(e, slot, self.temp_base + 2);
                self.flush();
                (slot, (self.code.len() - c0) as u32)
            }
        }
    }
}

/// Reusable per-worker-thread execution arena. One lives in a thread-local
/// and is reshaped (cheaply) at each launch, then reset between warps — no
/// per-warp allocation survives in steady state.
pub struct WarpScratch {
    pub(crate) regs: Vec<Value>,
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
    /// Typed register banks the native closures execute against, sized per
    /// launch by `native::begin_launch`.
    pub(crate) fregs: Vec<f64>,
    pub(crate) iregs: Vec<i64>,
    pub(crate) bregs: Vec<bool>,
}

impl WarpScratch {
    fn new() -> Self {
        WarpScratch {
            regs: Vec::new(),
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

    /// Reshape for a new launch: size the register file, per-site traces and
    /// private scratch, load constant registers, broadcast launch-invariant
    /// scalars, and reset the affine-row memo (site numbering is
    /// launch-local).
    pub(crate) fn begin_launch(
        &mut self,
        bc: &KernelBytecode,
        warp: usize,
        site_count: usize,
        priv_shapes: &[(ElemType, usize)],
        base_env: &[Value],
        segment_bytes: u32,
    ) {
        self.warp = warp;
        self.regs.clear();
        self.regs.resize(bc.nregs as usize * warp, Value::I(0));
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
        for &(r, v) in &bc.const_init {
            for lane in 0..warp {
                self.regs[r as usize * warp + lane] = v;
            }
        }
        for &(slot, r) in &bc.scal_init_launch {
            let v = base_env[slot as usize];
            for lane in 0..warp {
                self.regs[r as usize * warp + lane] = v;
            }
        }
    }

    /// Per-warp reset for a warp whose pricing evidence will be discarded
    /// (its block's pricing replays from the representative-block cache):
    /// only the mutable scalar registers are re-broadcast. Legal only ahead
    /// of the native functional-only sequence, which neither reads nor
    /// writes the evidence arrays this skips resetting.
    pub(crate) fn begin_warp_functional(&mut self, bc: &KernelBytecode, base_env: &[Value]) {
        for &(slot, r) in &bc.scal_init_warp {
            let v = base_env[slot as usize];
            for lane in 0..self.warp {
                self.regs[r as usize * self.warp + lane] = v;
            }
        }
    }

    /// Reset per-warp state: op counters, traces, and mutable scalar
    /// registers re-broadcast from the base environment.
    pub(crate) fn begin_warp(&mut self, bc: &KernelBytecode, base_env: &[Value]) {
        self.lane_ops.iter_mut().for_each(|x| *x = 0);
        for t in &mut self.traces {
            t.clear();
        }
        self.site_touched.iter_mut().for_each(|x| *x = false);
        for &(slot, r) in &bc.scal_init_warp {
            let v = base_env[slot as usize];
            for lane in 0..self.warp {
                self.regs[r as usize * self.warp + lane] = v;
            }
        }
    }
}

/// Pool of warp-scratch arenas. A checkout pops an arena (or builds a fresh
/// one) and returns it when done, which — unlike the previous single
/// thread-local slot — is re-entrant: a nested launch on the same thread
/// simply checks out a second arena instead of aliasing the first, and the
/// short-lived block-chunk workers of a parallel launch share warmed arenas
/// instead of rebuilding one behind each new thread's thread-local.
static SCRATCH_POOL: Mutex<Vec<WarpScratch>> = Mutex::new(Vec::new());

/// Arenas kept warm across launches; enough for a large worker pool plus
/// nesting, while bounding steady-state memory.
const SCRATCH_POOL_CAP: usize = 64;

/// Run `f` against a warp scratch arena checked out of the process pool.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut WarpScratch) -> R) -> R {
    let mut s = {
        let mut pool = SCRATCH_POOL.lock().unwrap();
        pool.pop().unwrap_or_else(WarpScratch::new)
    };
    let r = f(&mut s);
    // Unwinds (a kernel panic inside `f`) simply drop the arena; the pool
    // lock is never held across user code, so it cannot be poisoned.
    let mut pool = SCRATCH_POOL.lock().unwrap();
    if pool.len() < SCRATCH_POOL_CAP {
        pool.push(s);
    }
    r
}

/// Raw view of one device buffer, shared by every warp executor of a
/// launch. Exactly one of `f`/`i` is non-null for an allocated buffer;
/// accessors bounds-check against `len` so out-of-range indices still panic
/// (never UB), matching the `Vec`-indexing discipline of [`Buffer`].
///
/// # Safety
/// `RawBuf` is `Send + Sync` so block chunks can execute on scoped worker
/// threads while all viewing the same buffers. That is sound only under the
/// launch eligibility rule enforced in `gpu.rs`: a launch runs
/// block-parallel only when [`KernelBytecode::par_blocks_ok`] proved every
/// access to every stored array lane-disjoint, so no element is ever
/// touched by two threads with at least one writing it. The serial path
/// uses the same views with a single executor, where aliasing is moot.
#[derive(Clone, Copy)]
pub(crate) struct RawBuf {
    f: *mut f64,
    i: *mut i64,
    len: usize,
    is_f: bool,
    alloc: bool,
}

#[allow(unsafe_code)]
unsafe impl Send for RawBuf {}
#[allow(unsafe_code)]
unsafe impl Sync for RawBuf {}

#[allow(unsafe_code)]
impl RawBuf {
    /// View an optional device buffer slot.
    pub(crate) fn of(slot: &mut Option<Buffer>) -> RawBuf {
        match slot {
            None => RawBuf { f: std::ptr::null_mut(), i: std::ptr::null_mut(), len: 0, is_f: false, alloc: false },
            Some(b) => {
                let is_f = b.elem.is_float();
                match &mut b.data {
                    Payload::F(v) => {
                        RawBuf { f: v.as_mut_ptr(), i: std::ptr::null_mut(), len: v.len(), is_f, alloc: true }
                    }
                    Payload::I(v) => {
                        RawBuf { f: std::ptr::null_mut(), i: v.as_mut_ptr(), len: v.len(), is_f, alloc: true }
                    }
                }
            }
        }
    }

    #[inline]
    pub(crate) fn is_alloc(&self) -> bool {
        self.alloc
    }

    /// Element type is float (drives `Value` wrapping, like `Buffer::elem`).
    #[inline]
    pub(crate) fn elem_is_float(&self) -> bool {
        self.is_f
    }

    #[inline]
    fn check(&self, idx: usize) {
        assert!(idx < self.len, "buffer index {idx} out of range (len {})", self.len);
    }

    /// Read as f64 (integer payloads cast, mirroring [`Buffer::get_f`]).
    #[inline]
    pub(crate) fn get_f(&self, idx: usize) -> f64 {
        self.check(idx);
        unsafe {
            if self.f.is_null() {
                *self.i.add(idx) as f64
            } else {
                *self.f.add(idx)
            }
        }
    }

    /// Read as i64 (float payloads cast, mirroring [`Buffer::get_i`]).
    #[inline]
    pub(crate) fn get_i(&self, idx: usize) -> i64 {
        self.check(idx);
        unsafe {
            if self.f.is_null() {
                *self.i.add(idx)
            } else {
                *self.f.add(idx) as i64
            }
        }
    }

    /// Write an f64 (integer payloads cast, mirroring [`Buffer::set_f`]).
    #[inline]
    pub(crate) fn set_f(&self, idx: usize, x: f64) {
        self.check(idx);
        unsafe {
            if self.f.is_null() {
                *self.i.add(idx) = x as i64;
            } else {
                *self.f.add(idx) = x;
            }
        }
    }

    /// Write an i64 (float payloads cast, mirroring [`Buffer::set_i`]).
    #[inline]
    pub(crate) fn set_i(&self, idx: usize, x: i64) {
        self.check(idx);
        unsafe {
            if self.f.is_null() {
                *self.i.add(idx) = x;
            } else {
                *self.f.add(idx) = x as f64;
            }
        }
    }

    /// Whole-row gather `row[k] = self[flats[k]]` with the range check and
    /// the payload-kind branch hoisted out of the element loop. Returns
    /// `false` (writing nothing) unless the payload is f64-backed and every
    /// index is in range — the caller then takes its per-element path.
    #[inline]
    pub(crate) fn gather_f(&self, flats: &[usize], row: &mut [f64]) -> bool {
        if self.f.is_null() {
            return false;
        }
        let mut ok = true;
        for &fl in flats {
            ok &= fl < self.len;
        }
        if !ok {
            return false;
        }
        // SAFETY: `f` points at `len` elements and every index was just
        // range-checked above.
        unsafe {
            for (d, &fl) in row.iter_mut().zip(flats) {
                *d = *self.f.add(fl);
            }
        }
        true
    }

    /// Whole-row i64 gather; see [`Self::gather_f`].
    #[inline]
    pub(crate) fn gather_i(&self, flats: &[usize], row: &mut [i64]) -> bool {
        if self.i.is_null() {
            return false;
        }
        let mut ok = true;
        for &fl in flats {
            ok &= fl < self.len;
        }
        if !ok {
            return false;
        }
        // SAFETY: `i` points at `len` elements and every index was just
        // range-checked above.
        unsafe {
            for (d, &fl) in row.iter_mut().zip(flats) {
                *d = *self.i.add(fl);
            }
        }
        true
    }

    /// Whole-row scatter `self[flats[k]] = row[k]`, ascending lane order
    /// (intra-row index collisions resolve to the last writer, like the
    /// per-element path). Returns `false` (writing nothing) unless the
    /// payload is f64-backed and every index is in range.
    #[inline]
    pub(crate) fn scatter_f(&self, flats: &[usize], row: &[f64]) -> bool {
        if self.f.is_null() {
            return false;
        }
        let mut ok = true;
        for &fl in flats {
            ok &= fl < self.len;
        }
        if !ok {
            return false;
        }
        // SAFETY: `f` points at `len` elements and every index was just
        // range-checked above; concurrent use is covered by the
        // lane-disjointness rule documented on [`RawBuf`].
        unsafe {
            for (&v, &fl) in row.iter().zip(flats) {
                *self.f.add(fl) = v;
            }
        }
        true
    }

    /// Whole-row i64 scatter; see [`Self::scatter_f`].
    #[inline]
    pub(crate) fn scatter_i(&self, flats: &[usize], row: &[i64]) -> bool {
        if self.i.is_null() {
            return false;
        }
        let mut ok = true;
        for &fl in flats {
            ok &= fl < self.len;
        }
        if !ok {
            return false;
        }
        // SAFETY: `i` points at `len` elements and every index was just
        // range-checked above; concurrent use is covered by the
        // lane-disjointness rule documented on [`RawBuf`].
        unsafe {
            for (&v, &fl) in row.iter().zip(flats) {
                *self.i.add(fl) = v;
            }
        }
        true
    }
}

/// Launch-wide immutable context the executor needs besides the scratch.
pub(crate) struct ExecCtx<'a> {
    pub prog: &'a Program,
    pub bufs: &'a [RawBuf],
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
}
