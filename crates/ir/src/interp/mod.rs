//! Tree-walking evaluator, generic over the executing machine, and the
//! executors built around it.
//!
//! One evaluator serves three roles:
//! * the **sequential CPU baseline** ([`cpu::CpuMachine`]) — the paper's
//!   "serial on the CPU" reference that speedups are measured against
//!   (executed by its compiled form, `seq`, and checked against this
//!   evaluator bit for bit);
//! * **host portions** of GPU versions (same machine, driven by the runtime
//!   in `acceval` with [`Hooks`] intercepting regions/directives);
//! * **GPU thread bodies** ([`gpu`]) — under `ACCEVAL_ENGINE=tree` each
//!   simulated thread runs the kernel body through this evaluator against a
//!   warp-level machine that records address traces. This is the reference
//!   the compiled executor must match, and its fallback.
//!
//! The default engine runs kernel bodies through one compiled pipeline of
//! two stages instead: [`bytecode`] lowers the body in one pass to typed
//! bytecode over split `f64`/`i64`/`bool` register banks, and [`native`]
//! turns that into closures that execute whole warps in lockstep. A launch
//! the pipeline does not cover (an ineligible plan, or a foreign warp
//! width) runs on this evaluator. [`launch_cache`] and [`store`] memoize
//! launch effects in memory and on disk.

pub mod bytecode;
pub mod cpu;
pub mod gpu;
pub mod launch_cache;
pub mod native;
mod seq;
pub mod store;

use crate::expr::{BinOp, Expr, Intrin, UnOp};
use crate::program::{eval_const, DataSet, Program};
use crate::stmt::{DataClauses, ParallelRegion, Stmt, UpdateDir};
use crate::types::{ArrayId, SiteId, Value};

/// The machine executing loads/stores and accounting costs.
pub trait Machine {
    /// Load element `flat` of (resolved) `array`.
    fn load(&mut self, array: ArrayId, flat: usize, site: SiteId) -> Value;
    /// Store element `flat` of (resolved) `array`.
    fn store(&mut self, array: ArrayId, flat: usize, v: Value, site: SiteId);
    /// Account `n` simple ALU operations.
    fn ops(&mut self, n: u64);
    /// Account one intrinsic evaluation.
    fn intrin(&mut self, f: Intrin);
    /// Record a branch outcome (GPU divergence accounting).
    fn branch(&mut self, _site: SiteId, _taken: bool) {}
    /// An OpenMP barrier was executed.
    fn barrier(&mut self) {}
    /// Entering / leaving a critical section.
    fn critical(&mut self, _entering: bool) {}
}

impl<M: Machine> Machine for &mut M {
    fn load(&mut self, array: ArrayId, flat: usize, site: SiteId) -> Value {
        (**self).load(array, flat, site)
    }
    fn store(&mut self, array: ArrayId, flat: usize, v: Value, site: SiteId) {
        (**self).store(array, flat, v, site)
    }
    fn ops(&mut self, n: u64) {
        (**self).ops(n)
    }
    fn intrin(&mut self, f: Intrin) {
        (**self).intrin(f)
    }
    fn branch(&mut self, site: SiteId, taken: bool) {
        (**self).branch(site, taken)
    }
    fn barrier(&mut self) {
        (**self).barrier()
    }
    fn critical(&mut self, entering: bool) {
        (**self).critical(entering)
    }
}

/// Interception points for the GPU runtime. The default implementation (and
/// [`NoHooks`]) executes everything sequentially on the current machine,
/// which is exactly OpenMP-on-one-thread semantics — the correctness oracle.
pub trait Hooks<M: Machine> {
    /// A parallel region was reached. Return `true` if the hook executed it
    /// (e.g. launched kernels); `false` to run it sequentially here.
    fn on_parallel(&mut self, _it: &mut Interp<M>, _r: &ParallelRegion) -> bool {
        false
    }
    /// A data region is being entered (`entering`) or exited.
    fn on_data_region(&mut self, _it: &mut Interp<M>, _c: &DataClauses, _entering: bool) {}
    /// An `update` directive was executed.
    fn on_update(&mut self, _it: &mut Interp<M>, _arrays: &[ArrayId], _dir: UpdateDir) {}
    /// About to execute a statement subtree containing no offload constructs.
    fn on_host_leaf(&mut self, _it: &mut Interp<M>, _s: &Stmt) {}
}

/// Hooks that do nothing: pure sequential execution.
pub struct NoHooks;
impl<M: Machine> Hooks<M> for NoHooks {}

/// The evaluator.
pub struct Interp<'p, M: Machine> {
    pub prog: &'p Program,
    pub m: M,
    /// Scalar environment (global slots).
    pub scal: Vec<Value>,
    /// Current array remapping (identity unless inside a call).
    remap: Vec<ArrayId>,
    /// Evaluated extents per array.
    pub extents: Vec<Vec<usize>>,
    /// Row-major strides per array.
    pub strides: Vec<Vec<usize>>,
}

impl<'p, M: Machine> Interp<'p, M> {
    /// Build an evaluator with a fresh environment from a dataset.
    pub fn new(prog: &'p Program, m: M, ds: &DataSet) -> Self {
        let mut scal: Vec<Value> =
            prog.scalars.iter().map(|d| if d.is_float { Value::F(0.0) } else { Value::I(0) }).collect();
        for (id, v) in &ds.scalars {
            scal[id.0 as usize] = *v;
        }
        Self::with_env(prog, m, scal)
    }

    /// Build an evaluator over an existing scalar environment (extents are
    /// recomputed from it).
    pub fn with_env(prog: &'p Program, m: M, scal: Vec<Value>) -> Self {
        let extents: Vec<Vec<usize>> =
            prog.arrays.iter().map(|a| a.dims.iter().map(|d| eval_const(d, &scal)).collect()).collect();
        let strides = extents.iter().map(|e| row_major_strides(e)).collect();
        let remap = (0..prog.arrays.len() as u32).map(ArrayId).collect();
        Interp { prog, m, scal, remap, extents, strides }
    }

    /// Resolve an array id through the current call remapping.
    #[inline]
    pub fn resolve(&self, a: ArrayId) -> ArrayId {
        self.remap[a.0 as usize]
    }

    /// Execute a statement list with no hooks (sequential semantics).
    pub fn run(&mut self, stmts: &[Stmt]) {
        self.run_with(stmts, &mut NoHooks);
    }

    /// Execute a statement list with hooks.
    pub fn run_with<H: Hooks<M>>(&mut self, stmts: &[Stmt], h: &mut H) {
        for s in stmts {
            self.exec(s, h);
        }
    }

    /// Execute one statement.
    pub fn exec<H: Hooks<M>>(&mut self, s: &Stmt, h: &mut H) {
        match s {
            Stmt::Parallel(r) => {
                if !h.on_parallel(self, r) {
                    self.run_with(&r.body, h);
                }
            }
            Stmt::DataRegion { clauses, body } => {
                h.on_data_region(self, clauses, true);
                self.run_with(body, h);
                h.on_data_region(self, clauses, false);
            }
            Stmt::Update { arrays, dir } => {
                h.on_update(self, arrays, *dir);
            }
            _ => {
                if s.contains_offload() {
                    // Compound host statement with offload inside: walk it.
                    self.exec_compound(s, h);
                } else {
                    h.on_host_leaf(self, s);
                    self.exec_plain(s);
                }
            }
        }
    }

    /// Walk a compound statement whose body contains offload constructs.
    fn exec_compound<H: Hooks<M>>(&mut self, s: &Stmt, h: &mut H) {
        match s {
            Stmt::If { cond, then_b, else_b, site } => {
                let c = self.eval(cond).as_b();
                self.m.branch(*site, c);
                if c {
                    self.run_with(then_b, h);
                } else {
                    self.run_with(else_b, h);
                }
            }
            Stmt::For { var, lo, hi, step, body, .. } => {
                let lo = self.eval(lo).as_i();
                self.scal[var.0 as usize] = Value::I(lo);
                loop {
                    let hi_v = self.eval(hi).as_i();
                    self.m.ops(1);
                    if self.scal[var.0 as usize].as_i() >= hi_v {
                        break;
                    }
                    self.run_with(body, h);
                    let st = self.eval(step).as_i();
                    let cur = self.scal[var.0 as usize].as_i();
                    self.scal[var.0 as usize] = Value::I(cur + st);
                    self.m.ops(1);
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond).as_b() {
                    self.m.ops(1);
                    self.run_with(body, h);
                }
            }
            Stmt::Call { func, scalar_args, array_args } => {
                self.do_call(*func, scalar_args, array_args, h);
            }
            Stmt::Critical { body } => {
                self.m.critical(true);
                self.run_with(body, h);
                self.m.critical(false);
            }
            // Parallel/DataRegion/Update handled by `exec`; leaves have no
            // offload inside and are handled by `exec_plain`.
            _ => self.exec_plain(s),
        }
    }

    fn do_call<H: Hooks<M>>(
        &mut self,
        func: crate::types::FuncId,
        scalar_args: &[Expr],
        array_args: &[ArrayId],
        h: &mut H,
    ) {
        // Borrow the callee through the program's own lifetime, not `self`,
        // so its body can run while `self` is mutably borrowed.
        let prog: &'p Program = self.prog;
        let f = &prog.funcs[func.0 as usize];
        assert_eq!(f.scalar_params.len(), scalar_args.len(), "call arity ({})", f.name);
        assert_eq!(f.array_params.len(), array_args.len(), "call array arity ({})", f.name);
        let vals: Vec<Value> = scalar_args.iter().map(|e| self.eval(e)).collect();
        for (p, v) in f.scalar_params.iter().zip(vals) {
            self.scal[p.0 as usize] = v;
        }
        let mut saved = Vec::with_capacity(f.array_params.len());
        // Resolve actuals through the *current* remap before installing.
        let resolved: Vec<ArrayId> = array_args.iter().map(|a| self.resolve(*a)).collect();
        for (p, actual) in f.array_params.iter().zip(resolved) {
            saved.push((p.0 as usize, self.remap[p.0 as usize]));
            self.remap[p.0 as usize] = actual;
        }
        self.run_with(&f.body, h);
        for (idx, old) in saved {
            self.remap[idx] = old;
        }
    }

    /// Execute a statement subtree with plain sequential semantics.
    pub fn exec_plain(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { var, value } => {
                let v = self.eval(value);
                self.m.ops(1);
                self.scal[var.0 as usize] = v;
            }
            Stmt::Store { array, index, value, site } => {
                let v = self.eval(value);
                let (arr, flat) = self.flat_index(*array, index);
                self.m.store(arr, flat, v, *site);
            }
            Stmt::If { cond, then_b, else_b, site } => {
                let c = self.eval(cond).as_b();
                self.m.branch(*site, c);
                let body = if c { then_b } else { else_b };
                for s in body {
                    self.exec_plain(s);
                }
            }
            Stmt::For { var, lo, hi, step, body, .. } => {
                let lo = self.eval(lo).as_i();
                self.scal[var.0 as usize] = Value::I(lo);
                loop {
                    let hi_v = self.eval(hi).as_i();
                    self.m.ops(1);
                    if self.scal[var.0 as usize].as_i() >= hi_v {
                        break;
                    }
                    for s in body {
                        self.exec_plain(s);
                    }
                    let st = self.eval(step).as_i();
                    let cur = self.scal[var.0 as usize].as_i();
                    self.scal[var.0 as usize] = Value::I(cur + st);
                    self.m.ops(1);
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond).as_b() {
                    self.m.ops(1);
                    for s in body {
                        self.exec_plain(s);
                    }
                }
            }
            Stmt::Call { func, scalar_args, array_args } => {
                self.do_call(*func, scalar_args, array_args, &mut NoHooks);
            }
            Stmt::Critical { body } => {
                self.m.critical(true);
                for s in body {
                    self.exec_plain(s);
                }
                self.m.critical(false);
            }
            Stmt::Parallel(r) => {
                for s in &r.body {
                    self.exec_plain(s);
                }
            }
            Stmt::DataRegion { body, .. } => {
                for s in body {
                    self.exec_plain(s);
                }
            }
            Stmt::Update { .. } => {}
            Stmt::Barrier => self.m.barrier(),
        }
    }

    /// Compute the resolved array and flat element index for an access.
    #[inline]
    pub fn flat_index(&mut self, array: ArrayId, index: &[Expr]) -> (ArrayId, usize) {
        let arr = self.resolve(array);
        let mut flat = 0usize;
        for (d, e) in index.iter().enumerate() {
            let i = self.eval(e).as_i();
            let ext = self.extents[arr.0 as usize][d];
            assert!(
                i >= 0 && (i as usize) < ext,
                "index {} out of bounds (dim {} extent {}) on array {}",
                i,
                d,
                ext,
                self.prog.array_name(arr)
            );
            flat += i as usize * self.strides[arr.0 as usize][d];
        }
        if index.len() > 1 {
            self.m.ops(index.len() as u64 - 1);
        }
        (arr, flat)
    }

    /// Evaluate an expression.
    pub fn eval(&mut self, e: &Expr) -> Value {
        match e {
            Expr::F(x) => Value::F(*x),
            Expr::I(x) => Value::I(*x),
            Expr::B(x) => Value::B(*x),
            Expr::Var(s) => self.scal[s.0 as usize],
            Expr::Load { array, index, site } => {
                let (arr, flat) = self.flat_index(*array, index);
                self.m.load(arr, flat, *site)
            }
            Expr::Un(op, a) => {
                let x = self.eval(a);
                self.m.ops(1);
                match op {
                    UnOp::Neg => match x {
                        Value::I(i) => Value::I(-i),
                        v => Value::F(-v.as_f()),
                    },
                    UnOp::Not => Value::B(!x.as_b()),
                }
            }
            Expr::Bin(op, a, b) => {
                let x = self.eval(a);
                let y = self.eval(b);
                self.m.ops(1);
                eval_bin(*op, x, y)
            }
            Expr::Select { cond, t, f } => {
                let c = self.eval(cond).as_b();
                self.m.ops(1);
                if c {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            Expr::Intrin(f, args) => {
                let vals = intrin_args(args, |a| self.eval(a));
                self.m.intrin(*f);
                eval_intrin(*f, &vals[..args.len().min(2)])
            }
            Expr::CastI(a) => {
                let x = self.eval(a);
                self.m.ops(1);
                Value::I(x.as_i())
            }
            Expr::CastF(a) => {
                let x = self.eval(a);
                self.m.ops(1);
                Value::F(x.as_f())
            }
        }
    }
}

/// Row-major strides for the given extents.
pub fn row_major_strides(extents: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; extents.len()];
    for d in (0..extents.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * extents[d + 1];
    }
    strides
}

/// Evaluate a binary operation with C-like promotion.
#[inline]
pub fn eval_bin(op: BinOp, x: Value, y: Value) -> Value {
    use BinOp::*;
    let both_int = matches!(x, Value::I(_) | Value::B(_)) && matches!(y, Value::I(_) | Value::B(_));
    match op {
        Add | Sub | Mul | Div | Rem | Min | Max => {
            if both_int {
                let (a, b) = (x.as_i(), y.as_i());
                Value::I(match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    Div => a / b,
                    Rem => a % b,
                    Min => a.min(b),
                    Max => a.max(b),
                    _ => unreachable!(),
                })
            } else {
                let (a, b) = (x.as_f(), y.as_f());
                Value::F(match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Rem => a % b,
                    Min => a.min(b),
                    Max => a.max(b),
                    _ => unreachable!(),
                })
            }
        }
        Lt | Le | Gt | Ge | Eq | Ne => {
            let r = if both_int {
                let (a, b) = (x.as_i(), y.as_i());
                match op {
                    Lt => a < b,
                    Le => a <= b,
                    Gt => a > b,
                    Ge => a >= b,
                    Eq => a == b,
                    Ne => a != b,
                    _ => unreachable!(),
                }
            } else {
                let (a, b) = (x.as_f(), y.as_f());
                match op {
                    Lt => a < b,
                    Le => a <= b,
                    Gt => a > b,
                    Ge => a >= b,
                    Eq => a == b,
                    Ne => a != b,
                    _ => unreachable!(),
                }
            };
            Value::B(r)
        }
        And => Value::B(x.as_b() && y.as_b()),
        Or => Value::B(x.as_b() || y.as_b()),
        Shl => Value::I(x.as_i() << y.as_i()),
        Shr => Value::I(x.as_i() >> y.as_i()),
        BitAnd => Value::I(x.as_i() & y.as_i()),
        BitOr => Value::I(x.as_i() | y.as_i()),
        BitXor => Value::I(x.as_i() ^ y.as_i()),
    }
}

/// Evaluate an intrinsic's arguments in order into a fixed two-slot array:
/// no intrinsic takes more than two, and any extra argument is still
/// evaluated (for its charges) but dropped. Pass `&vals[..args.len().min(2)]`
/// to [`eval_intrin`].
#[inline]
pub(crate) fn intrin_args<T>(args: &[T], mut eval: impl FnMut(&T) -> Value) -> [Value; 2] {
    let mut vals = [Value::I(0); 2];
    for (k, a) in args.iter().enumerate() {
        let x = eval(a);
        if let Some(v) = vals.get_mut(k) {
            *v = x;
        }
    }
    vals
}

/// Evaluate an intrinsic.
#[inline]
pub fn eval_intrin(f: Intrin, args: &[Value]) -> Value {
    match f {
        Intrin::Sqrt => Value::F(args[0].as_f().sqrt()),
        Intrin::Exp => Value::F(args[0].as_f().exp()),
        Intrin::Log => Value::F(args[0].as_f().ln()),
        Intrin::Pow => Value::F(args[0].as_f().powf(args[1].as_f())),
        Intrin::Sin => Value::F(args[0].as_f().sin()),
        Intrin::Cos => Value::F(args[0].as_f().cos()),
        Intrin::Floor => Value::F(args[0].as_f().floor()),
        Intrin::Abs => match args[0] {
            Value::I(x) => Value::I(x.abs()),
            v => Value::F(v.as_f().abs()),
        },
    }
}

/// Evaluate a load-free expression against a scalar environment, without a
/// machine (used for kernel launch bounds).
pub fn eval_pure(e: &Expr, scal: &[Value]) -> Value {
    match e {
        Expr::F(x) => Value::F(*x),
        Expr::I(x) => Value::I(*x),
        Expr::B(x) => Value::B(*x),
        Expr::Var(s) => scal[s.0 as usize],
        Expr::Load { .. } => panic!("eval_pure on expression with loads"),
        Expr::Un(op, a) => {
            let x = eval_pure(a, scal);
            match op {
                UnOp::Neg => match x {
                    Value::I(i) => Value::I(-i),
                    v => Value::F(-v.as_f()),
                },
                UnOp::Not => Value::B(!x.as_b()),
            }
        }
        Expr::Bin(op, a, b) => eval_bin(*op, eval_pure(a, scal), eval_pure(b, scal)),
        Expr::Select { cond, t, f } => {
            if eval_pure(cond, scal).as_b() {
                eval_pure(t, scal)
            } else {
                eval_pure(f, scal)
            }
        }
        Expr::Intrin(f, args) => {
            let vals = intrin_args(args, |a| eval_pure(a, scal));
            eval_intrin(*f, &vals[..args.len().min(2)])
        }
        Expr::CastI(a) => Value::I(eval_pure(a, scal).as_i()),
        Expr::CastF(a) => Value::F(eval_pure(a, scal).as_f()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::expr::{ld, v};
    use crate::types::ScalarId;
    use acceval_sim::ElemType;

    /// A machine with plain storage and op counting, for interpreter tests.
    pub struct TestMachine {
        pub bufs: Vec<acceval_sim::Buffer>,
        pub ops: u64,
        pub loads: u64,
        pub stores: u64,
    }

    impl TestMachine {
        pub fn for_prog(prog: &Program, ds: &DataSet) -> Self {
            let h = crate::program::HostData::materialize(prog, ds);
            TestMachine { bufs: h.bufs, ops: 0, loads: 0, stores: 0 }
        }
    }

    impl Machine for TestMachine {
        fn load(&mut self, array: ArrayId, flat: usize, _site: SiteId) -> Value {
            self.loads += 1;
            let b = &self.bufs[array.0 as usize];
            if b.elem.is_float() {
                Value::F(b.get_f(flat))
            } else {
                Value::I(b.get_i(flat))
            }
        }
        fn store(&mut self, array: ArrayId, flat: usize, v: Value, _site: SiteId) {
            self.stores += 1;
            let b = &mut self.bufs[array.0 as usize];
            if b.elem.is_float() {
                b.set_f(flat, v.as_f());
            } else {
                b.set_i(flat, v.as_i());
            }
        }
        fn ops(&mut self, n: u64) {
            self.ops += n;
        }
        fn intrin(&mut self, _f: Intrin) {
            self.ops += 1;
        }
    }

    fn saxpy_prog() -> Program {
        let mut pb = ProgramBuilder::new("saxpy");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let alpha = pb.fscalar("alpha");
        let x = pb.farray("x", vec![v(n)]);
        let y = pb.farray("y", vec![v(n)]);
        pb.main(vec![parallel(
            "saxpy",
            vec![pfor(i, 0i64, v(n), vec![store(y, vec![v(i)], v(alpha) * ld(x, vec![v(i)]) + ld(y, vec![v(i)]))])],
        )]);
        pb.outputs(vec![y]);
        pb.build()
    }

    fn saxpy_ds(n: usize) -> DataSet {
        DataSet {
            scalars: vec![(ScalarId(0), Value::I(n as i64)), (ScalarId(2), Value::F(2.0))],
            arrays: vec![
                (ArrayId(0), acceval_sim::Buffer::from_f64(ElemType::F64, (0..n).map(|i| i as f64).collect())),
                (ArrayId(1), acceval_sim::Buffer::from_f64(ElemType::F64, vec![1.0; n])),
            ],
            label: "test".into(),
        }
    }

    #[test]
    fn saxpy_computes_correctly() {
        let p = saxpy_prog();
        let ds = saxpy_ds(10);
        let m = TestMachine::for_prog(&p, &ds);
        let mut it = Interp::new(&p, m, &ds);
        let main = p.main.clone();
        it.run(&main);
        for i in 0..10 {
            assert_eq!(it.m.bufs[1].get_f(i), 2.0 * i as f64 + 1.0);
        }
        assert_eq!(it.m.loads, 20);
        assert_eq!(it.m.stores, 10);
        assert!(it.m.ops > 0);
    }

    #[test]
    fn call_remaps_arrays() {
        let mut pb = ProgramBuilder::new("call");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let src = pb.farray("src", vec![v(n)]);
        let dst = pb.farray("dst", vec![v(n)]);
        let pa = pb.farray("pa", vec![v(n)]); // formal
        let pb_arr = pb.farray("pb", vec![v(n)]); // formal
        let copyf = pb.func(
            "copyf",
            vec![],
            vec![pa, pb_arr],
            vec![sfor(i, 0i64, v(n), vec![store(pb_arr, vec![v(i)], ld(pa, vec![v(i)]))])],
        );
        pb.main(vec![call(copyf, vec![], vec![src, dst])]);
        let p = pb.build();
        let ds = DataSet {
            scalars: vec![(n, Value::I(4))],
            arrays: vec![(src, acceval_sim::Buffer::from_f64(ElemType::F64, vec![7.0, 8.0, 9.0, 10.0]))],
            label: "t".into(),
        };
        let m = TestMachine::for_prog(&p, &ds);
        let mut it = Interp::new(&p, m, &ds);
        let main = p.main.clone();
        it.run(&main);
        assert_eq!(it.m.bufs[dst.0 as usize].get_f(2), 9.0);
    }

    #[test]
    fn while_and_if_semantics() {
        let mut pb = ProgramBuilder::new("wh");
        let x = pb.iscalar("x");
        let y = pb.iscalar("y");
        pb.main(vec![
            assign(x, 0i64),
            assign(y, 0i64),
            wloop(
                v(x).lt(10i64),
                vec![
                    if_else((v(x) % 2i64).eq_(0i64), vec![assign(y, v(y) + 1i64)], vec![assign(y, v(y) + 10i64)]),
                    assign(x, v(x) + 1i64),
                ],
            ),
        ]);
        let p = pb.build();
        let ds = DataSet::default();
        let m = TestMachine::for_prog(&p, &ds);
        let mut it = Interp::new(&p, m, &ds);
        let main = p.main.clone();
        it.run(&main);
        assert_eq!(it.scal[y.0 as usize].as_i(), 5 + 50);
    }

    #[test]
    fn eval_pure_matches_interp() {
        let e = (ic_expr(3) + 4i64) * 2i64;
        assert_eq!(eval_pure(&e, &[]).as_i(), 14);
    }

    fn ic_expr(x: i64) -> Expr {
        Expr::I(x)
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(row_major_strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(row_major_strides(&[5]), vec![1]);
        assert_eq!(row_major_strides(&[]), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        let p = saxpy_prog();
        let mut ds = saxpy_ds(10);
        ds.scalars[0].1 = Value::I(11); // claim n=11 with 10-element buffers
        let m = TestMachine::for_prog(&p, &ds);
        // materialize used n=11 so buffers are 11 long; rebuild with short buffer
        let mut m = m;
        m.bufs[0] = acceval_sim::Buffer::from_f64(ElemType::F64, vec![0.0; 10]);
        let mut it = Interp::new(&p, m, &ds);
        it.extents[0] = vec![10]; // extent says 10, loop runs to 11
        let main = p.main.clone();
        it.run(&main);
    }

    #[test]
    fn integer_division_is_c_like() {
        assert_eq!(eval_bin(BinOp::Div, Value::I(7), Value::I(2)), Value::I(3));
        assert_eq!(eval_bin(BinOp::Rem, Value::I(7), Value::I(2)), Value::I(1));
        assert_eq!(eval_bin(BinOp::Div, Value::F(7.0), Value::I(2)), Value::F(3.5));
    }

    #[test]
    fn promotion_rules() {
        assert_eq!(eval_bin(BinOp::Add, Value::I(1), Value::I(2)), Value::I(3));
        assert_eq!(eval_bin(BinOp::Add, Value::I(1), Value::F(2.0)), Value::F(3.0));
        assert_eq!(eval_bin(BinOp::Lt, Value::I(1), Value::I(2)), Value::B(true));
        assert_eq!(eval_bin(BinOp::Max, Value::I(5), Value::I(2)), Value::I(5));
    }
}
