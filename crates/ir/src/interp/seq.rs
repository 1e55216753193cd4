//! Compile-once sequential executor for the CPU oracle.
//!
//! [`run_cpu`](super::cpu::run_cpu) runs the paper's sequential baseline.
//! Tree-walking it through `Interp<CpuMachine>` pays, on every node, a
//! `match` on the `Expr`/`Stmt` variant, a tag check per `Value`, and a
//! remap/extent/stride lookup per array access. This module lowers the
//! program once per run into nested closures instead:
//!
//! * a scalar slot whose tag provably never changes (its initial tag and the
//!   static type of everything assigned to it agree) lives in a typed bank
//!   (`f64`/`i64`/`bool`); every other slot keeps dynamic `Value` code;
//! * array extents, strides, element sizes and simulated base addresses are
//!   baked into each access, and constant or typed-slot operands of integer
//!   arithmetic, float arithmetic, indices and loop bounds are read inline;
//! * every call is inlined at its call site with the array remap resolved;
//!   a recursive call (which [`Function`](crate::program::Function) forbids)
//!   is rejected with a message naming the function.
//!
//! Every op charge, intrinsic charge and cache access happens at the same
//! program point and in the same order as in `Interp::exec_plain`/`eval`,
//! each with the same operand, so the `CpuRun` is bit-identical to the tree
//! walker's: cycles, seconds, op and access counts, every buffer, and every
//! scalar including its tag. The tree walker stays the reference
//! (`crates/ir/tests/cpu_equiv.rs`).

use acceval_sim::HostConfig;

use super::cpu::{CpuMachine, CpuRun};
use super::{eval_bin, eval_intrin, intrin_args, row_major_strides};
use crate::expr::{BinOp, Expr, Intrin, UnOp};
use crate::program::{eval_const, DataSet, Function, HostData, Program};
use crate::stmt::Stmt;
use crate::types::{ArrayId, FuncId, ScalarId, Value};

/// Run `prog` sequentially on the CPU model through the compiled executor.
pub(super) fn run(prog: &Program, ds: &DataSet, cfg: &HostConfig) -> CpuRun {
    let data = HostData::materialize(prog, ds);
    let m = CpuMachine::new(cfg, data);
    let init = initial_scalars(prog, ds);
    let mut c = Compiler::new(prog, &m, &init);
    c.infer_types();
    let slots = c.allocate_slots();
    let mut code = Vec::new();
    c.block(&prog.main, &mut code);
    let mut st = St { f: Vec::new(), i: Vec::new(), b: Vec::new(), v: Vec::new(), m };
    for (v, slot) in init.iter().zip(&slots) {
        match *slot {
            Slot::F(_) => st.f.push(v.as_f()),
            Slot::I(_) => st.i.push(v.as_i()),
            Slot::B(_) => st.b.push(v.as_b()),
            Slot::V(_) => st.v.push(*v),
        }
    }
    run_block(&code, &mut st);
    let scalars = slots.iter().map(|s| st.get(*s)).collect();
    let m = st.m;
    CpuRun {
        secs: cfg.cycles_to_secs(m.cycles),
        cycles: m.cycles,
        ops: m.ops,
        accesses: m.accesses,
        scalars,
        data: m.data,
    }
}

/// The initial scalar environment, built exactly as `Interp::new` builds it:
/// declaration defaults, then dataset values in order.
fn initial_scalars(prog: &Program, ds: &DataSet) -> Vec<Value> {
    let mut scal: Vec<Value> =
        prog.scalars.iter().map(|d| if d.is_float { Value::F(0.0) } else { Value::I(0) }).collect();
    for (id, v) in &ds.scalars {
        scal[id.0 as usize] = *v;
    }
    scal
}

// ---------------------------------------------------------------------------
// Runtime state.
// ---------------------------------------------------------------------------

/// Scalar banks plus the machine (memory image, caches, counters).
struct St {
    f: Vec<f64>,
    i: Vec<i64>,
    b: Vec<bool>,
    v: Vec<Value>,
    m: CpuMachine,
}

impl St {
    /// `CpuMachine::ops(n)` with `n as f64 / ipc` precomputed.
    #[inline(always)]
    fn charge(&mut self, c: Charge) {
        self.m.ops += c.n;
        self.m.cycles += c.cycles;
    }

    /// `CpuMachine::intrin` with the intrinsic's cycle cost precomputed.
    #[inline(always)]
    fn intrin(&mut self, cycles: f64) {
        self.m.ops += 1;
        self.m.cycles += cycles;
    }

    /// The cache access and accounting of `CpuMachine::load`/`store`.
    #[inline(always)]
    fn touch(&mut self, addr: u64) {
        self.m.cycles += self.m.hier.access_cycles(addr);
        self.m.accesses += 1;
    }

    fn get(&self, slot: Slot) -> Value {
        match slot {
            Slot::F(x) => Value::F(self.f[x]),
            Slot::I(x) => Value::I(self.i[x]),
            Slot::B(x) => Value::B(self.b[x]),
            Slot::V(x) => self.v[x],
        }
    }

    /// Store a value whose tag matches the slot's bank.
    fn set(&mut self, slot: Slot, v: Value) {
        match slot {
            Slot::F(x) => self.f[x] = v.as_f(),
            Slot::I(x) => self.i[x] = v.as_i(),
            Slot::B(x) => self.b[x] = v.as_b(),
            Slot::V(x) => self.v[x] = v,
        }
    }
}

/// One `CpuMachine::ops(n)` call: `n` ops costing `n as f64 / ipc` cycles.
#[derive(Clone, Copy)]
struct Charge {
    n: u64,
    cycles: f64,
}

type FnF = Box<dyn Fn(&mut St) -> f64>;
type FnI = Box<dyn Fn(&mut St) -> i64>;
type FnB = Box<dyn Fn(&mut St) -> bool>;
type FnV = Box<dyn Fn(&mut St) -> Value>;
type FnS = Box<dyn Fn(&mut St)>;

#[inline(always)]
fn run_block(code: &[FnS], s: &mut St) {
    for c in code {
        c(s);
    }
}

/// The tree walker's bounds-check panic, word for word.
#[cold]
#[inline(never)]
fn out_of_bounds(i: i64, d: usize, ext: usize, name: &str) -> ! {
    panic!("index {} out of bounds (dim {} extent {}) on array {}", i, d, ext, name)
}

// ---------------------------------------------------------------------------
// Static types.
// ---------------------------------------------------------------------------

/// The static tag of a scalar slot or expression: `Dyn` when it can vary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ty {
    F,
    I,
    B,
    Dyn,
}

impl Ty {
    fn of(v: Value) -> Ty {
        match v {
            Value::F(_) => Ty::F,
            Value::I(_) => Ty::I,
            Value::B(_) => Ty::B,
        }
    }

    fn join(self, o: Ty) -> Ty {
        if self == o {
            self
        } else {
            Ty::Dyn
        }
    }

    /// `eval_bin` treats `I` and `B` operands alike ("both_int").
    fn int_like(self) -> bool {
        matches!(self, Ty::I | Ty::B)
    }
}

/// Where a scalar slot lives at run time.
#[derive(Clone, Copy, Debug)]
enum Slot {
    F(usize),
    I(usize),
    B(usize),
    V(usize),
}

/// Compiled expression code, by static result type.
enum Code {
    F(FnF),
    I(FnI),
    B(FnB),
    V(FnV),
}

impl Code {
    fn into_f(self) -> FnF {
        match self {
            Code::F(g) => g,
            Code::I(g) => Box::new(move |s| g(s) as f64),
            Code::B(g) => Box::new(move |s| g(s) as i64 as f64),
            Code::V(g) => Box::new(move |s| g(s).as_f()),
        }
    }

    fn into_i(self) -> FnI {
        match self {
            Code::F(g) => Box::new(move |s| g(s) as i64),
            Code::I(g) => g,
            Code::B(g) => Box::new(move |s| g(s) as i64),
            Code::V(g) => Box::new(move |s| g(s).as_i()),
        }
    }

    fn into_b(self) -> FnB {
        match self {
            Code::F(g) => Box::new(move |s| g(s) != 0.0),
            Code::I(g) => Box::new(move |s| g(s) != 0),
            Code::B(g) => g,
            Code::V(g) => Box::new(move |s| g(s).as_b()),
        }
    }

    fn into_v(self) -> FnV {
        match self {
            Code::F(g) => Box::new(move |s| Value::F(g(s))),
            Code::I(g) => Box::new(move |s| Value::I(g(s))),
            Code::B(g) => Box::new(move |s| Value::B(g(s))),
            Code::V(g) => g,
        }
    }
}

/// An integer operand: a constant, a typed slot, or code.
enum IOp {
    K(i64),
    S(usize),
    X(FnI),
}

/// A float operand: a constant, a typed slot, or code.
enum FOp {
    K(f64),
    S(usize),
    X(FnF),
}

/// Bind `$g` to an inlined getter closure for an [`IOp`] and expand `$body`
/// once per operand kind, so each kind gets its own monomorphized code.
macro_rules! iget {
    ($op:expr, |$g:ident| $body:expr) => {
        match $op {
            IOp::K(k) => {
                let $g = move |_: &mut St| -> i64 { k };
                $body
            }
            IOp::S(x) => {
                let $g = move |s: &mut St| -> i64 { s.i[x] };
                $body
            }
            IOp::X(f) => {
                let $g = move |s: &mut St| -> i64 { f(s) };
                $body
            }
        }
    };
}

/// [`iget!`] for [`FOp`].
macro_rules! fget {
    ($op:expr, |$g:ident| $body:expr) => {
        match $op {
            FOp::K(k) => {
                let $g = move |_: &mut St| -> f64 { k };
                $body
            }
            FOp::S(x) => {
                let $g = move |s: &mut St| -> f64 { s.f[x] };
                $body
            }
            FOp::X(f) => {
                let $g = move |s: &mut St| -> f64 { f(s) };
                $body
            }
        }
    };
}

/// A binary integer op over two operands: evaluate both, charge, combine.
macro_rules! bin_i {
    ($x:expr, $y:expr, $c:expr, $ret:ident, |$p:ident, $q:ident| $e:expr) => {
        iget!($x, |gx| iget!($y, |gy| Code::$ret(Box::new(move |s: &mut St| {
            let $p = gx(s);
            let $q = gy(s);
            s.charge($c);
            $e
        }))))
    };
}

/// [`bin_i!`] for float operands.
macro_rules! bin_f {
    ($x:expr, $y:expr, $c:expr, $ret:ident, |$p:ident, $q:ident| $e:expr) => {
        fget!($x, |gx| fget!($y, |gy| Code::$ret(Box::new(move |s: &mut St| {
            let $p = gx(s);
            let $q = gy(s);
            s.charge($c);
            $e
        }))))
    };
}

/// Bind `$flat` to the flat-index computation of an access and expand
/// `$body` around it (`Interp::flat_index`: indices in order, each
/// bounds-checked right after it is evaluated, then one charge for the
/// `rank - 1` index multiplies). Ranks 1 and 2 are monomorphized per index
/// operand kind, so the access closure embeds its index arithmetic.
macro_rules! with_flat {
    ($c:expr, $array:expr, $index:expr, |$flat:ident| $body:expr) => {{
        let c: &Compiler = $c;
        let index: &[Expr] = $index;
        let info = c.array($array).1;
        let (ext, strides, name) = (info.extents.clone(), info.strides.clone(), info.name.clone());
        match index.len() {
            1 if ext.len() == 1 => {
                let (e0, s0) = (ext[0], strides[0]);
                iget!(c.iop(&index[0]), |g0| {
                    let $flat = move |s: &mut St| -> usize {
                        let i = g0(s);
                        if !(i >= 0 && (i as usize) < e0) {
                            out_of_bounds(i, 0, e0, &name)
                        }
                        i as usize * s0
                    };
                    $body
                })
            }
            2 if ext.len() == 2 => {
                let (e0, e1, s0, s1) = (ext[0], ext[1], strides[0], strides[1]);
                let k = c.charge(1);
                let (x0, x1) = (c.iop(&index[0]), c.iop(&index[1]));
                iget!(x0, |g0| iget!(x1, |g1| {
                    let $flat = move |s: &mut St| -> usize {
                        let i = g0(s);
                        if !(i >= 0 && (i as usize) < e0) {
                            out_of_bounds(i, 0, e0, &name)
                        }
                        let j = g1(s);
                        if !(j >= 0 && (j as usize) < e1) {
                            out_of_bounds(j, 1, e1, &name)
                        }
                        s.charge(k);
                        i as usize * s0 + j as usize * s1
                    };
                    $body
                }))
            }
            n => {
                let idx: Vec<FnI> = index.iter().map(|e| c.expr(e).into_i()).collect();
                let k = (n > 1).then(|| c.charge(n as u64 - 1));
                let $flat = move |s: &mut St| -> usize {
                    let mut flat = 0usize;
                    for (d, g) in idx.iter().enumerate() {
                        let i = g(s);
                        let e = ext[d];
                        if !(i >= 0 && (i as usize) < e) {
                            out_of_bounds(i, d, e, &name)
                        }
                        flat += i as usize * strides[d];
                    }
                    if let Some(k) = k {
                        s.charge(k);
                    }
                    flat
                };
                $body
            }
        }
    }};
}

fn bin_ty(op: BinOp, x: Ty, y: Ty) -> Ty {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Rem | Min | Max => {
            if x == Ty::F || y == Ty::F {
                Ty::F
            } else if x.int_like() && y.int_like() {
                Ty::I
            } else {
                Ty::Dyn
            }
        }
        Lt | Le | Gt | Ge | Eq | Ne | And | Or => Ty::B,
        Shl | Shr | BitAnd | BitOr | BitXor => Ty::I,
    }
}

// ---------------------------------------------------------------------------
// The compiler.
// ---------------------------------------------------------------------------

/// Everything static about one array, taken from the machine's buffers.
struct ArrayInfo {
    name: String,
    is_float: bool,
    elem_bytes: u64,
    base: u64,
    extents: Vec<usize>,
    strides: Vec<usize>,
}

struct Compiler<'p> {
    prog: &'p Program,
    arrays: Vec<ArrayInfo>,
    /// Current array remapping (identity outside inlined calls).
    remap: Vec<ArrayId>,
    /// Functions being inlined, innermost last.
    stack: Vec<FuncId>,
    /// Inferred tag of each scalar slot.
    ty: Vec<Ty>,
    slots: Vec<Slot>,
    changed: bool,
    ipc: f64,
}

impl<'p> Compiler<'p> {
    fn new(prog: &'p Program, m: &CpuMachine, init: &[Value]) -> Self {
        let arrays = prog
            .arrays
            .iter()
            .enumerate()
            .map(|(a, decl)| {
                let extents: Vec<usize> = decl.dims.iter().map(|d| eval_const(d, init)).collect();
                let elem = m.data.bufs[a].elem;
                ArrayInfo {
                    name: decl.name.clone(),
                    is_float: elem.is_float(),
                    elem_bytes: elem.size_bytes() as u64,
                    base: m.base[a],
                    strides: row_major_strides(&extents),
                    extents,
                }
            })
            .collect();
        Compiler {
            prog,
            arrays,
            remap: (0..prog.arrays.len() as u32).map(ArrayId).collect(),
            stack: Vec::new(),
            ty: init.iter().map(|v| Ty::of(*v)).collect(),
            slots: Vec::new(),
            changed: false,
            ipc: m.ipc,
        }
    }

    fn charge(&self, n: u64) -> Charge {
        Charge { n, cycles: n as f64 / self.ipc }
    }

    fn array(&self, a: ArrayId) -> (usize, &ArrayInfo) {
        let r = self.remap[a.0 as usize].0 as usize;
        (r, &self.arrays[r])
    }

    /// Install a call's array remap, resolving actuals through the current
    /// one (as `Interp::do_call` does). Returns the entries to restore.
    fn enter(&mut self, func: FuncId, f: &Function, array_args: &[ArrayId]) -> Vec<(usize, ArrayId)> {
        if self.stack.contains(&func) {
            panic!("recursive call to function `{}`: functions may not recurse", f.name);
        }
        self.stack.push(func);
        let resolved: Vec<ArrayId> = array_args.iter().map(|a| self.remap[a.0 as usize]).collect();
        let mut saved = Vec::with_capacity(resolved.len());
        for (p, actual) in f.array_params.iter().zip(resolved) {
            saved.push((p.0 as usize, self.remap[p.0 as usize]));
            self.remap[p.0 as usize] = actual;
        }
        saved
    }

    fn leave(&mut self, saved: Vec<(usize, ArrayId)>) {
        // Restore in the tree walker's order.
        for (idx, old) in saved {
            self.remap[idx] = old;
        }
        self.stack.pop();
    }

    /// Whether a call's arities match its function (the tree walker asserts
    /// this when the call executes).
    fn arity_ok(f: &Function, scalar_args: &[Expr], array_args: &[ArrayId]) -> bool {
        f.scalar_params.len() == scalar_args.len() && f.array_params.len() == array_args.len()
    }

    // ---- type inference ------------------------------------------------

    /// Widen every slot's tag until no assignment changes one. Each slot can
    /// only move from its initial tag to `Dyn`, so this terminates.
    fn infer_types(&mut self) {
        loop {
            self.changed = false;
            self.infer_block(&self.prog.main);
            if !self.changed {
                return;
            }
        }
    }

    fn widen(&mut self, var: ScalarId, t: Ty) {
        let old = self.ty[var.0 as usize];
        let new = old.join(t);
        if new != old {
            self.ty[var.0 as usize] = new;
            self.changed = true;
        }
    }

    fn infer_block(&mut self, stmts: &'p [Stmt]) {
        for s in stmts {
            match s {
                Stmt::Assign { var, value } => {
                    let t = self.ty(value);
                    self.widen(*var, t);
                }
                Stmt::For { var, body, .. } => {
                    self.widen(*var, Ty::I);
                    self.infer_block(body);
                }
                Stmt::If { then_b, else_b, .. } => {
                    self.infer_block(then_b);
                    self.infer_block(else_b);
                }
                Stmt::While { body, .. } | Stmt::Critical { body } | Stmt::DataRegion { body, .. } => {
                    self.infer_block(body)
                }
                Stmt::Parallel(r) => self.infer_block(&r.body),
                Stmt::Call { func, scalar_args, array_args } => {
                    let f = &self.prog.funcs[func.0 as usize];
                    if !Self::arity_ok(f, scalar_args, array_args) {
                        continue;
                    }
                    for (p, e) in f.scalar_params.iter().zip(scalar_args) {
                        let t = self.ty(e);
                        self.widen(*p, t);
                    }
                    let saved = self.enter(*func, f, array_args);
                    self.infer_block(&f.body);
                    self.leave(saved);
                }
                Stmt::Store { .. } | Stmt::Update { .. } | Stmt::Barrier => {}
            }
        }
    }

    /// The static tag of `e`'s value, mirroring `Interp::eval`.
    fn ty(&self, e: &Expr) -> Ty {
        match e {
            Expr::F(_) => Ty::F,
            Expr::I(_) => Ty::I,
            Expr::B(_) => Ty::B,
            Expr::Var(s) => self.ty[s.0 as usize],
            Expr::Load { array, .. } => {
                if self.array(*array).1.is_float {
                    Ty::F
                } else {
                    Ty::I
                }
            }
            Expr::Un(UnOp::Neg, a) => match self.ty(a) {
                Ty::I => Ty::I,
                Ty::Dyn => Ty::Dyn,
                Ty::F | Ty::B => Ty::F,
            },
            Expr::Un(UnOp::Not, _) => Ty::B,
            Expr::Bin(op, a, b) => bin_ty(*op, self.ty(a), self.ty(b)),
            Expr::Select { t, f, .. } => self.ty(t).join(self.ty(f)),
            Expr::Intrin(Intrin::Abs, args) => match args.first().map(|a| self.ty(a)) {
                Some(Ty::I) => Ty::I,
                Some(Ty::F | Ty::B) => Ty::F,
                _ => Ty::Dyn,
            },
            Expr::Intrin(..) | Expr::CastF(_) => Ty::F,
            Expr::CastI(_) => Ty::I,
        }
    }

    /// Give every slot a place in its tag's bank.
    fn allocate_slots(&mut self) -> Vec<Slot> {
        let mut n = [0usize; 4];
        self.slots = self
            .ty
            .iter()
            .map(|t| {
                let (k, mk): (usize, fn(usize) -> Slot) = match t {
                    Ty::F => (0, Slot::F),
                    Ty::I => (1, Slot::I),
                    Ty::B => (2, Slot::B),
                    Ty::Dyn => (3, Slot::V),
                };
                n[k] += 1;
                mk(n[k] - 1)
            })
            .collect();
        self.slots.clone()
    }

    // ---- statements ----------------------------------------------------

    fn block(&mut self, stmts: &'p [Stmt], out: &mut Vec<FnS>) {
        for s in stmts {
            self.stmt(s, out);
        }
    }

    fn body(&mut self, stmts: &'p [Stmt]) -> Box<[FnS]> {
        let mut out = Vec::new();
        self.block(stmts, &mut out);
        out.into_boxed_slice()
    }

    fn stmt(&mut self, st: &'p Stmt, out: &mut Vec<FnS>) {
        let c1 = self.charge(1);
        match st {
            Stmt::Assign { var, value } => {
                let slot = self.slots[var.0 as usize];
                debug_assert!(
                    matches!(slot, Slot::V(_)) || self.ty(value) == self.ty[var.0 as usize],
                    "typed slot assigned a value of another tag"
                );
                out.push(match slot {
                    Slot::F(x) => {
                        let g = self.expr(value).into_f();
                        Box::new(move |s| {
                            let v = g(s);
                            s.charge(c1);
                            s.f[x] = v;
                        })
                    }
                    Slot::I(x) => {
                        let g = self.expr(value).into_i();
                        Box::new(move |s| {
                            let v = g(s);
                            s.charge(c1);
                            s.i[x] = v;
                        })
                    }
                    Slot::B(x) => {
                        let g = self.expr(value).into_b();
                        Box::new(move |s| {
                            let v = g(s);
                            s.charge(c1);
                            s.b[x] = v;
                        })
                    }
                    Slot::V(x) => {
                        let g = self.expr(value).into_v();
                        Box::new(move |s| {
                            let v = g(s);
                            s.charge(c1);
                            s.v[x] = v;
                        })
                    }
                });
            }
            Stmt::Store { array, index, value, .. } => {
                let (a, info) = self.array(*array);
                let (base, eb) = (info.base, info.elem_bytes);
                if info.is_float {
                    let val = self.expr(value).into_f();
                    out.push(with_flat!(self, *array, index, |flat| {
                        let code: FnS = Box::new(move |s| {
                            let x = val(s);
                            let k = flat(s);
                            s.touch(base + k as u64 * eb);
                            s.m.data.bufs[a].set_f(k, x);
                        });
                        code
                    }));
                } else {
                    let val = self.expr(value).into_i();
                    out.push(with_flat!(self, *array, index, |flat| {
                        let code: FnS = Box::new(move |s| {
                            let x = val(s);
                            let k = flat(s);
                            s.touch(base + k as u64 * eb);
                            s.m.data.bufs[a].set_i(k, x);
                        });
                        code
                    }));
                }
            }
            Stmt::If { cond, then_b, else_b, .. } => {
                let c = self.expr(cond).into_b();
                let (t, e) = (self.body(then_b), self.body(else_b));
                out.push(Box::new(move |s| if c(s) { run_block(&t, s) } else { run_block(&e, s) }));
            }
            Stmt::For { var, lo, hi, step, body, .. } => {
                let lo = self.expr(lo).into_i();
                let (hi, step) = (self.iop(hi), self.iop(step));
                let body = self.body(body);
                out.push(match self.slots[var.0 as usize] {
                    Slot::I(x) => iget!(hi, |h| iget!(step, |p| for_typed(x, lo, h, p, body, c1))),
                    slot => {
                        let (hi, step) = (hi.into_fn(), step.into_fn());
                        Box::new(move |s| {
                            let lo = lo(s);
                            s.set(slot, Value::I(lo));
                            loop {
                                let hi_v = hi(s);
                                s.charge(c1);
                                if s.get(slot).as_i() >= hi_v {
                                    break;
                                }
                                run_block(&body, s);
                                let st = step(s);
                                let cur = s.get(slot).as_i();
                                s.set(slot, Value::I(cur + st));
                                s.charge(c1);
                            }
                        })
                    }
                });
            }
            Stmt::While { cond, body } => {
                let c = self.expr(cond).into_b();
                let body = self.body(body);
                out.push(Box::new(move |s| {
                    while c(s) {
                        s.charge(c1);
                        run_block(&body, s);
                    }
                }));
            }
            Stmt::Call { func, scalar_args, array_args } => self.call(*func, scalar_args, array_args, out),
            // Sequential semantics: regions and critical sections run their
            // bodies in place (the CPU machine charges nothing for them), and
            // data directives and barriers are no-ops.
            Stmt::Critical { body } | Stmt::DataRegion { body, .. } => self.block(body, out),
            Stmt::Parallel(r) => self.block(&r.body, out),
            Stmt::Update { .. } | Stmt::Barrier => {}
        }
    }

    /// Inline a call: bind the scalar parameters (every argument evaluated
    /// before any is stored), then compile the body under the call's remap.
    fn call(&mut self, func: FuncId, scalar_args: &'p [Expr], array_args: &[ArrayId], out: &mut Vec<FnS>) {
        let prog = self.prog;
        let f = &prog.funcs[func.0 as usize];
        if !Self::arity_ok(f, scalar_args, array_args) {
            let (np, na) = (f.scalar_params.len(), scalar_args.len());
            let (nap, naa) = (f.array_params.len(), array_args.len());
            let name = f.name.clone();
            out.push(Box::new(move |_| {
                assert_eq!(np, na, "call arity ({})", name);
                assert_eq!(nap, naa, "call array arity ({})", name);
            }));
            return;
        }
        // Calls are rare, so the binding stays generic: evaluate every
        // argument, then store each into its parameter's bank.
        let args: Vec<FnV> = scalar_args.iter().map(|e| self.expr(e).into_v()).collect();
        let slots: Vec<Slot> = f.scalar_params.iter().map(|p| self.slots[p.0 as usize]).collect();
        out.push(Box::new(move |s| {
            let vals: Vec<Value> = args.iter().map(|a| a(s)).collect();
            for (slot, v) in slots.iter().zip(vals) {
                s.set(*slot, v);
            }
        }));
        let saved = self.enter(func, f, array_args);
        self.block(&f.body, out);
        self.leave(saved);
    }

    // ---- expressions ---------------------------------------------------

    fn iop(&self, e: &Expr) -> IOp {
        match e {
            Expr::I(k) => IOp::K(*k),
            Expr::B(b) => IOp::K(*b as i64),
            Expr::F(x) => IOp::K(*x as i64),
            Expr::Var(v) => match self.slots[v.0 as usize] {
                Slot::I(x) => IOp::S(x),
                _ => IOp::X(self.expr(e).into_i()),
            },
            _ => IOp::X(self.expr(e).into_i()),
        }
    }

    fn fop(&self, e: &Expr) -> FOp {
        match e {
            Expr::F(x) => FOp::K(*x),
            Expr::I(k) => FOp::K(*k as f64),
            Expr::B(b) => FOp::K(*b as i64 as f64),
            Expr::Var(v) => match self.slots[v.0 as usize] {
                Slot::F(x) => FOp::S(x),
                _ => FOp::X(self.expr(e).into_f()),
            },
            _ => FOp::X(self.expr(e).into_f()),
        }
    }

    fn expr(&self, e: &Expr) -> Code {
        let c1 = self.charge(1);
        match e {
            Expr::F(x) => {
                let x = *x;
                Code::F(Box::new(move |_| x))
            }
            Expr::I(x) => {
                let x = *x;
                Code::I(Box::new(move |_| x))
            }
            Expr::B(x) => {
                let x = *x;
                Code::B(Box::new(move |_| x))
            }
            Expr::Var(v) => match self.slots[v.0 as usize] {
                Slot::F(x) => Code::F(Box::new(move |s| s.f[x])),
                Slot::I(x) => Code::I(Box::new(move |s| s.i[x])),
                Slot::B(x) => Code::B(Box::new(move |s| s.b[x])),
                Slot::V(x) => Code::V(Box::new(move |s| s.v[x])),
            },
            Expr::Load { array, index, .. } => {
                let (a, info) = self.array(*array);
                let (base, eb) = (info.base, info.elem_bytes);
                if info.is_float {
                    with_flat!(self, *array, index, |flat| {
                        Code::F(Box::new(move |s| {
                            let k = flat(s);
                            s.touch(base + k as u64 * eb);
                            s.m.data.bufs[a].get_f(k)
                        }))
                    })
                } else {
                    with_flat!(self, *array, index, |flat| {
                        Code::I(Box::new(move |s| {
                            let k = flat(s);
                            s.touch(base + k as u64 * eb);
                            s.m.data.bufs[a].get_i(k)
                        }))
                    })
                }
            }
            Expr::Un(op, a) => {
                let x = self.expr(a);
                match (op, x) {
                    (UnOp::Not, x) => {
                        let g = x.into_b();
                        Code::B(Box::new(move |s| {
                            let p = g(s);
                            s.charge(c1);
                            !p
                        }))
                    }
                    (UnOp::Neg, Code::I(g)) => Code::I(Box::new(move |s| {
                        let p = g(s);
                        s.charge(c1);
                        -p
                    })),
                    (UnOp::Neg, Code::V(g)) => Code::V(Box::new(move |s| {
                        let p = g(s);
                        s.charge(c1);
                        match p {
                            Value::I(i) => Value::I(-i),
                            v => Value::F(-v.as_f()),
                        }
                    })),
                    (UnOp::Neg, x) => {
                        let g = x.into_f();
                        Code::F(Box::new(move |s| {
                            let p = g(s);
                            s.charge(c1);
                            -p
                        }))
                    }
                }
            }
            Expr::Bin(op, a, b) => self.bin(*op, a, b),
            Expr::Select { cond, t, f } => {
                let c = self.expr(cond).into_b();
                macro_rules! select {
                    ($ret:ident, $conv:ident) => {{
                        let (p, q) = (self.expr(t).$conv(), self.expr(f).$conv());
                        Code::$ret(Box::new(move |s| {
                            let k = c(s);
                            s.charge(c1);
                            if k {
                                p(s)
                            } else {
                                q(s)
                            }
                        }))
                    }};
                }
                match self.ty(t).join(self.ty(f)) {
                    Ty::F => select!(F, into_f),
                    Ty::I => select!(I, into_i),
                    Ty::B => select!(B, into_b),
                    Ty::Dyn => select!(V, into_v),
                }
            }
            Expr::Intrin(f, args) => self.intrin(*f, args),
            Expr::CastI(a) => {
                let g = self.expr(a).into_i();
                Code::I(Box::new(move |s| {
                    let p = g(s);
                    s.charge(c1);
                    p
                }))
            }
            Expr::CastF(a) => {
                let g = self.expr(a).into_f();
                Code::F(Box::new(move |s| {
                    let p = g(s);
                    s.charge(c1);
                    p
                }))
            }
        }
    }

    /// `Interp::eval` of `Bin`: both operands, one charge, then `eval_bin`'s
    /// promotion — resolved statically unless an operand's tag can vary.
    fn bin(&self, op: BinOp, a: &Expr, b: &Expr) -> Code {
        use BinOp::*;
        let c = self.charge(1);
        let (ta, tb) = (self.ty(a), self.ty(b));
        let both_int = ta.int_like() && tb.int_like();
        let any_float = ta == Ty::F || tb == Ty::F;
        match op {
            Add | Sub | Mul | Div | Rem | Min | Max if both_int => {
                let (x, y) = (self.iop(a), self.iop(b));
                match op {
                    Add => bin_i!(x, y, c, I, |p, q| p.wrapping_add(q)),
                    Sub => bin_i!(x, y, c, I, |p, q| p.wrapping_sub(q)),
                    Mul => bin_i!(x, y, c, I, |p, q| p.wrapping_mul(q)),
                    Div => bin_i!(x, y, c, I, |p, q| p / q),
                    Rem => bin_i!(x, y, c, I, |p, q| p % q),
                    Min => bin_i!(x, y, c, I, |p, q| p.min(q)),
                    _ => bin_i!(x, y, c, I, |p, q| p.max(q)),
                }
            }
            Add | Sub | Mul | Div | Rem | Min | Max if any_float => {
                let (x, y) = (self.fop(a), self.fop(b));
                match op {
                    Add => bin_f!(x, y, c, F, |p, q| p + q),
                    Sub => bin_f!(x, y, c, F, |p, q| p - q),
                    Mul => bin_f!(x, y, c, F, |p, q| p * q),
                    Div => bin_f!(x, y, c, F, |p, q| p / q),
                    Rem => bin_f!(x, y, c, F, |p, q| p % q),
                    Min => bin_f!(x, y, c, F, |p, q| p.min(q)),
                    _ => bin_f!(x, y, c, F, |p, q| p.max(q)),
                }
            }
            Lt | Le | Gt | Ge | Eq | Ne if both_int => {
                let (x, y) = (self.iop(a), self.iop(b));
                match op {
                    Lt => bin_i!(x, y, c, B, |p, q| p < q),
                    Le => bin_i!(x, y, c, B, |p, q| p <= q),
                    Gt => bin_i!(x, y, c, B, |p, q| p > q),
                    Ge => bin_i!(x, y, c, B, |p, q| p >= q),
                    Eq => bin_i!(x, y, c, B, |p, q| p == q),
                    _ => bin_i!(x, y, c, B, |p, q| p != q),
                }
            }
            Lt | Le | Gt | Ge | Eq | Ne if any_float => {
                let (x, y) = (self.fop(a), self.fop(b));
                match op {
                    Lt => bin_f!(x, y, c, B, |p, q| p < q),
                    Le => bin_f!(x, y, c, B, |p, q| p <= q),
                    Gt => bin_f!(x, y, c, B, |p, q| p > q),
                    Ge => bin_f!(x, y, c, B, |p, q| p >= q),
                    Eq => bin_f!(x, y, c, B, |p, q| p == q),
                    _ => bin_f!(x, y, c, B, |p, q| p != q),
                }
            }
            And | Or => {
                let (x, y) = (self.expr(a).into_b(), self.expr(b).into_b());
                let and = op == And;
                Code::B(Box::new(move |s| {
                    let p = x(s);
                    let q = y(s);
                    s.charge(c);
                    if and {
                        p && q
                    } else {
                        p || q
                    }
                }))
            }
            Shl | Shr | BitAnd | BitOr | BitXor => {
                let (x, y) = (IOp::X(self.expr(a).into_i()), IOp::X(self.expr(b).into_i()));
                match op {
                    Shl => bin_i!(x, y, c, I, |p, q| p << q),
                    Shr => bin_i!(x, y, c, I, |p, q| p >> q),
                    BitAnd => bin_i!(x, y, c, I, |p, q| p & q),
                    BitOr => bin_i!(x, y, c, I, |p, q| p | q),
                    _ => bin_i!(x, y, c, I, |p, q| p ^ q),
                }
            }
            // An operand whose tag can vary: promote at run time.
            _ => {
                let (x, y) = (self.expr(a).into_v(), self.expr(b).into_v());
                let v = Box::new(move |s: &mut St| {
                    let p = x(s);
                    let q = y(s);
                    s.charge(c);
                    eval_bin(op, p, q)
                });
                match bin_ty(op, ta, tb) {
                    Ty::B => Code::B(Box::new(move |s| v(s).as_b())),
                    _ => Code::V(v),
                }
            }
        }
    }

    /// `Interp::eval` of `Intrin`: every argument, one intrinsic charge, then
    /// `eval_intrin`.
    fn intrin(&self, f: Intrin, args: &[Expr]) -> Code {
        let cyc = CpuMachine::intrin_cycles(f);
        macro_rules! unary_f {
            (|$p:ident| $e:expr) => {{
                let g = self.expr(&args[0]).into_f();
                Code::F(Box::new(move |s| {
                    let $p = g(s);
                    s.intrin(cyc);
                    $e
                }))
            }};
        }
        match (f, args.len()) {
            (Intrin::Sqrt, 1) => unary_f!(|x| x.sqrt()),
            (Intrin::Exp, 1) => unary_f!(|x| x.exp()),
            (Intrin::Log, 1) => unary_f!(|x| x.ln()),
            (Intrin::Sin, 1) => unary_f!(|x| x.sin()),
            (Intrin::Cos, 1) => unary_f!(|x| x.cos()),
            (Intrin::Floor, 1) => unary_f!(|x| x.floor()),
            (Intrin::Abs, 1) if self.ty(&args[0]) != Ty::I && self.ty(&args[0]) != Ty::Dyn => unary_f!(|x| x.abs()),
            (Intrin::Abs, 1) if self.ty(&args[0]) == Ty::I => {
                let g = self.expr(&args[0]).into_i();
                Code::I(Box::new(move |s| {
                    let x = g(s);
                    s.intrin(cyc);
                    x.abs()
                }))
            }
            (Intrin::Pow, 2) => {
                let (x, y) = (self.expr(&args[0]).into_f(), self.expr(&args[1]).into_f());
                Code::F(Box::new(move |s| {
                    let p = x(s);
                    let q = y(s);
                    s.intrin(cyc);
                    p.powf(q)
                }))
            }
            // A dynamically tagged `Abs` operand, or an unusual arity: the
            // tree walker's own argument handling.
            (_, n) => {
                let gs: Vec<FnV> = args.iter().map(|a| self.expr(a).into_v()).collect();
                Code::V(Box::new(move |s| {
                    let vals = intrin_args(&gs, |g| g(s));
                    s.intrin(cyc);
                    eval_intrin(f, &vals[..n.min(2)])
                }))
            }
        }
    }
}

impl IOp {
    fn into_fn(self) -> FnI {
        match self {
            IOp::K(k) => Box::new(move |_| k),
            IOp::S(x) => Box::new(move |s| s.i[x]),
            IOp::X(f) => f,
        }
    }
}

/// A counted loop over a typed integer induction slot (`Interp::exec_plain`
/// of `For`), with the bound and step read through inlined getters.
fn for_typed<H, P>(x: usize, lo: FnI, hi: H, step: P, body: Box<[FnS]>, c: Charge) -> FnS
where
    H: Fn(&mut St) -> i64 + 'static,
    P: Fn(&mut St) -> i64 + 'static,
{
    Box::new(move |s| {
        let lo = lo(s);
        s.i[x] = lo;
        loop {
            let hi_v = hi(s);
            s.charge(c);
            if s.i[x] >= hi_v {
                break;
            }
            run_block(&body, s);
            let st = step(s);
            let cur = s.i[x];
            s.i[x] = cur + st;
            s.charge(c);
        }
    })
}
