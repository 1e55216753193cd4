//! Statements and directive annotations of the IR.
//!
//! The statement set mirrors what the paper's benchmarks need: sequential
//! and work-shared loops, conditionals, `while` (convergence loops), calls,
//! OpenMP `parallel` regions and `critical` sections, plus the data-movement
//! directives that the PGI Accelerator / OpenACC / HMPP dialects add during
//! porting (`DataRegion`, `Update`).

use serde::{Deserialize, Serialize};

use crate::expr::Expr;
use crate::types::{ArrayId, FuncId, ReduceOp, RegionId, ScalarId, SiteId, VarRef};

/// A reduction clause entry: `reduction(op: target)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reduction {
    pub op: ReduceOp,
    pub target: VarRef,
}

/// Annotation on a `For` marking it as an OpenMP work-sharing loop
/// (`#pragma omp for`), the unit every directive model maps to the GPU.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ParInfo {
    /// OpenMP `collapse(n)`: this loop and `n-1` perfectly nested inner
    /// loops form the parallel iteration space. 0/1 both mean "just this loop".
    pub collapse: u8,
    /// Reduction clauses on the loop.
    pub reductions: Vec<Reduction>,
    /// Privatized variables (scalars or arrays).
    pub private: Vec<VarRef>,
    /// `nowait` — no barrier at loop end (affects region splitting).
    pub nowait: bool,
}

/// Data-movement clauses for `DataRegion` (PGI/OpenACC `data`,
/// HMPP `allocate`+`advancedload`/`delegatedstore` groups).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DataClauses {
    /// Host-to-device at region entry.
    pub copyin: Vec<ArrayId>,
    /// Device-to-host at region exit.
    pub copyout: Vec<ArrayId>,
    /// Both directions.
    pub copy: Vec<ArrayId>,
    /// Device allocation only, no transfer.
    pub create: Vec<ArrayId>,
}

/// Direction of an `update` directive inside a data region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateDir {
    /// Refresh the host copy from the device (`update host(...)`).
    Host,
    /// Refresh the device copy from the host (`update device(...)`).
    Device,
}

/// An OpenMP `parallel` region: the unit of the paper's coverage metric
/// (58 of them across the thirteen benchmarks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelRegion {
    /// Stable id, assigned by `Program::finalize`.
    pub id: RegionId,
    /// Human-readable label, e.g. `"cg.spmv"`.
    pub label: String,
    /// Region body; work-sharing happens at `For` statements with `par`.
    pub body: Vec<Stmt>,
    /// Region-level private variables (includes private arrays, as in EP).
    pub private: Vec<VarRef>,
}

/// An IR statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// `var = value`.
    Assign { var: ScalarId, value: Expr },
    /// `array[index...] = value`.
    Store { array: ArrayId, index: Vec<Expr>, value: Expr, site: SiteId },
    /// `if (cond) { then_b } else { else_b }`. Carries a site for warp
    /// divergence accounting.
    If { cond: Expr, then_b: Vec<Stmt>, else_b: Vec<Stmt>, site: SiteId },
    /// `for (var = lo; var < hi; var += step) body`. `par` marks an OpenMP
    /// work-sharing loop.
    For { var: ScalarId, lo: Expr, hi: Expr, step: Expr, body: Vec<Stmt>, par: Option<ParInfo> },
    /// `while (cond) body` — host-side convergence loops (never offloaded).
    While { cond: Expr, body: Vec<Stmt> },
    /// Call a program function with scalar and array arguments.
    Call { func: FuncId, scalar_args: Vec<Expr>, array_args: Vec<ArrayId> },
    /// OpenMP `critical` section.
    Critical { body: Vec<Stmt> },
    /// OpenMP `parallel` region.
    Parallel(ParallelRegion),
    /// Directive-model data region (added by porting, not present in the
    /// original OpenMP input).
    DataRegion { clauses: DataClauses, body: Vec<Stmt> },
    /// Directive-model `update` inside a data region.
    Update { arrays: Vec<ArrayId>, dir: UpdateDir },
    /// OpenMP `barrier` (inside a parallel region).
    Barrier,
}

impl Stmt {
    /// Visit this statement and all nested statements, depth-first, parents
    /// before children.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        self.each_body(|b| {
            for s in b {
                s.visit(f);
            }
        });
    }

    /// Call `f` on each nested statement list, in [`Stmt::bodies`] order,
    /// without allocating.
    fn each_body<'a>(&'a self, mut f: impl FnMut(&'a [Stmt])) {
        match self {
            Stmt::If { then_b, else_b, .. } => {
                f(then_b);
                f(else_b);
            }
            Stmt::For { body, .. }
            | Stmt::While { body, .. }
            | Stmt::Critical { body }
            | Stmt::DataRegion { body, .. } => f(body),
            Stmt::Parallel(r) => f(&r.body),
            _ => {}
        }
    }

    /// The nested statement lists of this statement.
    pub fn bodies(&self) -> Vec<&Vec<Stmt>> {
        match self {
            Stmt::If { then_b, else_b, .. } => vec![then_b, else_b],
            Stmt::For { body, .. }
            | Stmt::While { body, .. }
            | Stmt::Critical { body }
            | Stmt::DataRegion { body, .. } => vec![body],
            Stmt::Parallel(r) => vec![&r.body],
            _ => vec![],
        }
    }

    /// The nested statement lists, mutably.
    pub fn bodies_mut(&mut self) -> Vec<&mut Vec<Stmt>> {
        match self {
            Stmt::If { then_b, else_b, .. } => vec![then_b, else_b],
            Stmt::For { body, .. }
            | Stmt::While { body, .. }
            | Stmt::Critical { body }
            | Stmt::DataRegion { body, .. } => vec![body],
            Stmt::Parallel(r) => vec![&mut r.body],
            _ => vec![],
        }
    }

    /// Expressions directly owned by this statement (not nested statements).
    pub fn exprs(&self) -> Vec<&Expr> {
        match self {
            Stmt::Assign { value, .. } => vec![value],
            Stmt::Store { index, value, .. } => {
                let mut v: Vec<&Expr> = index.iter().collect();
                v.push(value);
                v
            }
            Stmt::If { cond, .. } => vec![cond],
            Stmt::For { lo, hi, step, .. } => vec![lo, hi, step],
            Stmt::While { cond, .. } => vec![cond],
            Stmt::Call { scalar_args, .. } => scalar_args.iter().collect(),
            _ => vec![],
        }
    }

    /// Expressions directly owned by this statement, mutably.
    pub fn exprs_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            Stmt::Assign { value, .. } => vec![value],
            Stmt::Store { index, value, .. } => {
                let mut v: Vec<&mut Expr> = index.iter_mut().collect();
                v.push(value);
                v
            }
            Stmt::If { cond, .. } => vec![cond],
            Stmt::For { lo, hi, step, .. } => vec![lo, hi, step],
            Stmt::While { cond, .. } => vec![cond],
            Stmt::Call { scalar_args, .. } => scalar_args.iter_mut().collect(),
            _ => vec![],
        }
    }

    /// True if this statement or any descendant is/contains a parallel
    /// region, data region, or update directive (i.e. the GPU runtime must
    /// walk into it rather than treating it as a host leaf).
    pub fn contains_offload(&self) -> bool {
        if matches!(self, Stmt::Parallel(_) | Stmt::DataRegion { .. } | Stmt::Update { .. }) {
            return true;
        }
        let mut found = false;
        self.each_body(|b| found = found || b.iter().any(Stmt::contains_offload));
        found
    }

    /// True if this statement or any descendant is a `Call`.
    pub fn contains_call(&self) -> bool {
        let mut found = false;
        self.visit(&mut |s| {
            if matches!(s, Stmt::Call { .. }) {
                found = true;
            }
        });
        found
    }
}

/// Visit each statement in a list and all descendants.
pub fn visit_stmts<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        s.visit(f);
    }
}

/// Visit each statement mutably (parents before children), including all
/// owned expressions via `g`.
pub fn visit_stmts_mut(stmts: &mut [Stmt], f: &mut impl FnMut(&mut Stmt)) {
    for s in stmts {
        f(s);
        for b in s.bodies_mut() {
            visit_stmts_mut(b, f);
        }
    }
}

/// Visit every expression in a statement list (including nested statements).
pub fn visit_exprs<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Expr)) {
    for s in stmts {
        s.visit(&mut |st| {
            for e in st.exprs() {
                e.visit(f);
            }
        });
    }
}

/// Visit every expression mutably in a statement list.
pub fn visit_exprs_mut(stmts: &mut [Stmt], f: &mut impl FnMut(&mut Expr)) {
    visit_stmts_mut(stmts, &mut |st| {
        for e in st.exprs_mut() {
            e.visit_mut(f);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ic, ld, v};
    use crate::types::ArrayId;

    fn sid() -> SiteId {
        SiteId(u32::MAX)
    }

    fn sample() -> Vec<Stmt> {
        let i = ScalarId(0);
        let a = ArrayId(0);
        vec![Stmt::For {
            var: i,
            lo: ic(0),
            hi: ic(10),
            step: ic(1),
            body: vec![
                Stmt::Store { array: a, index: vec![v(i)], value: ld(a, vec![v(i)]) + 1i64, site: sid() },
                Stmt::If {
                    cond: v(i).lt(5i64),
                    then_b: vec![Stmt::Assign { var: i, value: v(i) + 1i64 }],
                    else_b: vec![],
                    site: sid(),
                },
            ],
            par: None,
        }]
    }

    #[test]
    fn visit_counts_statements() {
        let s = sample();
        let mut n = 0;
        visit_stmts(&s, &mut |_| n += 1);
        assert_eq!(n, 4); // For, Store, If, Assign
    }

    #[test]
    fn visit_exprs_reaches_nested() {
        let s = sample();
        let mut loads = 0;
        visit_exprs(&s, &mut |e| {
            if matches!(e, Expr::Load { .. }) {
                loads += 1;
            }
        });
        assert_eq!(loads, 1);
    }

    #[test]
    fn contains_offload_detects_parallel() {
        let mut s = sample();
        assert!(!s[0].contains_offload());
        if let Stmt::For { body, .. } = &mut s[0] {
            body.push(Stmt::Parallel(ParallelRegion {
                id: RegionId(0),
                label: "r".into(),
                body: vec![],
                private: vec![],
            }));
        }
        assert!(s[0].contains_offload());
    }

    #[test]
    fn visit_exprs_mut_rewrites() {
        let mut s = sample();
        visit_exprs_mut(&mut s, &mut |e| {
            if let Expr::I(x) = e {
                *x += 100;
            }
        });
        let mut consts = vec![];
        visit_exprs(&s, &mut |e| {
            if let Expr::I(x) = e {
                consts.push(*x);
            }
        });
        assert!(consts.iter().all(|&x| x >= 100));
    }
}
