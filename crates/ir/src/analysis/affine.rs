//! Affine / static-control classification.
//!
//! R-Stream's polyhedral mapper accepts a region only if it is an *extended
//! static control program*: `for` loops with affine bounds, subscripts that
//! are affine functions of loop variables and parameters, and control flow
//! that does not depend on data. This module implements that test
//! structurally.

use std::collections::HashSet;

use crate::expr::{BinOp, Expr};
use crate::stmt::{ParallelRegion, Stmt};
use crate::types::ScalarId;

/// True if `e` mentions any of `vars`.
fn mentions(e: &Expr, vars: &HashSet<ScalarId>) -> bool {
    let mut found = false;
    e.visit(&mut |n| {
        if let Expr::Var(v) = n {
            if vars.contains(v) {
                found = true;
            }
        }
    });
    found
}

/// True if `e` contains an array load anywhere.
fn has_load(e: &Expr) -> bool {
    e.has_load()
}

/// Is `e` an affine function of `loop_vars`, treating every other scalar as
/// a symbolic parameter?
///
/// Rules: `+`/`-` of affine parts; `*` only when at most one factor mentions
/// a loop variable; division, modulo, shifts, intrinsics, selects, casts and
/// loads are allowed only in subtrees free of loop variables (they then act
/// as opaque parameters — except loads, which are never allowed because the
/// polyhedral model cannot summarize memory).
pub fn expr_affine(e: &Expr, loop_vars: &HashSet<ScalarId>) -> bool {
    if has_load(e) {
        return false;
    }
    fn go(e: &Expr, lv: &HashSet<ScalarId>) -> bool {
        match e {
            Expr::F(_) | Expr::I(_) | Expr::B(_) | Expr::Var(_) => true,
            Expr::Un(_, a) => go(a, lv),
            Expr::Bin(op, a, b) => match op {
                BinOp::Add | BinOp::Sub => go(a, lv) && go(b, lv),
                // Comparisons/logic of affine operands make affine *conditions*
                // (static control allows affine guards).
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or => {
                    go(a, lv) && go(b, lv)
                }
                BinOp::Mul => (!mentions(a, lv) || !mentions(b, lv)) && go(a, lv) && go(b, lv),
                // Anything else must be loop-variable-free.
                _ => !mentions(a, lv) && !mentions(b, lv),
            },
            Expr::CastI(a) | Expr::CastF(a) => go(a, lv),
            // min/max-free Select / intrinsics: parameters only.
            Expr::Select { .. } | Expr::Intrin(..) => !mentions(e, lv),
            Expr::Load { .. } => false,
        }
    }
    go(e, loop_vars)
}

/// Scalars assigned anywhere within `stmts` (excluding loop headers).
fn assigned_scalars(stmts: &[Stmt], out: &mut HashSet<ScalarId>) {
    crate::stmt::visit_stmts(stmts, &mut |s| {
        if let Stmt::Assign { var, .. } = s {
            out.insert(*var);
        }
    });
}

/// Is a parallel region a static-control affine program (R-Stream mappable)?
pub fn region_static_affine(r: &ParallelRegion) -> bool {
    // Scalars assigned in the region body (other than loop variables) make
    // subscripts using them non-affine.
    let mut assigned = HashSet::new();
    assigned_scalars(&r.body, &mut assigned);
    stmts_static_affine(&r.body, &mut HashSet::new(), &assigned)
}

fn stmts_static_affine(stmts: &[Stmt], loop_vars: &mut HashSet<ScalarId>, assigned: &HashSet<ScalarId>) -> bool {
    // "Dirty" vars: loop vars plus region-assigned scalars; subscripts must
    // be affine in loop vars and must not use other assigned scalars at all
    // (their values are data-dependent).
    for s in stmts {
        let ok = match s {
            Stmt::Assign { value, .. } => !has_load_in_control(value),
            Stmt::Store { index, .. } => index.iter().all(|e| {
                let mut dirty = loop_vars.clone();
                dirty.extend(assigned.iter().copied());
                expr_affine(e, loop_vars) && !uses_any(e, &non_loop_assigned(assigned, loop_vars))
            }),
            Stmt::If { cond, then_b, else_b, .. } => {
                // Control must be data-independent and affine.
                expr_affine(cond, loop_vars)
                    && !cond.has_load()
                    && !uses_any(cond, &non_loop_assigned(assigned, loop_vars))
                    && stmts_static_affine(then_b, loop_vars, assigned)
                    && stmts_static_affine(else_b, loop_vars, assigned)
            }
            Stmt::For { var, lo, hi, step, body, .. } => {
                let bounds_ok = expr_affine(lo, loop_vars)
                    && expr_affine(hi, loop_vars)
                    && matches!(step, Expr::I(_))
                    && !lo.has_load()
                    && !hi.has_load()
                    && !uses_any(lo, &non_loop_assigned(assigned, loop_vars))
                    && !uses_any(hi, &non_loop_assigned(assigned, loop_vars));
                if !bounds_ok {
                    return false;
                }
                loop_vars.insert(*var);
                let body_ok = stmts_static_affine(body, loop_vars, assigned);
                loop_vars.remove(var);
                body_ok
            }
            // Dynamic control / synchronization / calls: not static control.
            Stmt::While { .. } | Stmt::Critical { .. } | Stmt::Call { .. } | Stmt::Barrier => false,
            Stmt::Parallel(r) => stmts_static_affine(&r.body, loop_vars, assigned),
            Stmt::DataRegion { body, .. } => stmts_static_affine(body, loop_vars, assigned),
            Stmt::Update { .. } => true,
        };
        if !ok {
            return false;
        }
        // Check loads inside RHS expressions: their subscripts must be affine.
        let mut loads_ok = true;
        for e in s.exprs() {
            e.visit(&mut |n| {
                if let Expr::Load { index, .. } = n {
                    for ie in index {
                        if !expr_affine(ie, loop_vars)
                            || ie.has_load()
                            || uses_any(ie, &non_loop_assigned(assigned, loop_vars))
                        {
                            loads_ok = false;
                        }
                    }
                }
            });
        }
        if !loads_ok {
            return false;
        }
    }
    true
}

fn non_loop_assigned(assigned: &HashSet<ScalarId>, loop_vars: &HashSet<ScalarId>) -> HashSet<ScalarId> {
    assigned.difference(loop_vars).copied().collect()
}

fn uses_any(e: &Expr, vars: &HashSet<ScalarId>) -> bool {
    mentions(e, vars)
}

fn has_load_in_control(_e: &Expr) -> bool {
    // Plain assignments may load (they become statements of the SCoP body);
    // only *control* and *subscripts* must be load-free.
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::expr::{ld, v};
    use crate::types::{ArrayId, RegionId};

    fn region(body: Vec<Stmt>) -> ParallelRegion {
        ParallelRegion { id: RegionId(0), label: "r".into(), body, private: vec![] }
    }

    #[test]
    fn stencil_is_affine() {
        let i = ScalarId(0);
        let j = ScalarId(1);
        let n = ScalarId(2);
        let a = ArrayId(0);
        let b = ArrayId(1);
        let r = region(vec![pfor(
            i,
            1i64,
            v(n) - 1i64,
            vec![sfor(
                j,
                1i64,
                v(n) - 1i64,
                vec![store(b, vec![v(i), v(j)], ld(a, vec![v(i) - 1i64, v(j)]) + ld(a, vec![v(i) + 1i64, v(j)]))],
            )],
        )]);
        assert!(region_static_affine(&r));
    }

    #[test]
    fn indirect_subscript_is_not_affine() {
        let i = ScalarId(0);
        let n = ScalarId(1);
        let x = ArrayId(0);
        let idx = ArrayId(1);
        let r = region(vec![pfor(i, 0i64, v(n), vec![store(x, vec![ld(idx, vec![v(i)])], 1.0)])]);
        assert!(!region_static_affine(&r));
    }

    #[test]
    fn data_dependent_branch_is_not_affine() {
        let i = ScalarId(0);
        let n = ScalarId(1);
        let x = ArrayId(0);
        let r =
            region(vec![pfor(i, 0i64, v(n), vec![iff(ld(x, vec![v(i)]).gt(0.0), vec![store(x, vec![v(i)], 0.0)])])]);
        assert!(!region_static_affine(&r));
    }

    #[test]
    fn boundary_branch_is_affine() {
        let i = ScalarId(0);
        let n = ScalarId(1);
        let x = ArrayId(0);
        let r = region(vec![pfor(i, 0i64, v(n), vec![iff(v(i).gt(0i64), vec![store(x, vec![v(i)], 0.0)])])]);
        assert!(region_static_affine(&r));
    }

    #[test]
    fn triangular_bounds_are_affine() {
        let i = ScalarId(0);
        let j = ScalarId(1);
        let n = ScalarId(2);
        let x = ArrayId(0);
        let r =
            region(vec![pfor(i, 0i64, v(n), vec![sfor(j, v(i), v(n), vec![store(x, vec![v(i) * v(n) + v(j)], 0.0)])])]);
        // i*n + j is affine (n is a parameter).
        assert!(region_static_affine(&r));
    }

    #[test]
    fn modulo_subscript_is_not_affine() {
        let i = ScalarId(0);
        let n = ScalarId(1);
        let x = ArrayId(0);
        let r = region(vec![pfor(i, 0i64, v(n), vec![store(x, vec![v(i) % 8i64], 0.0)])]);
        assert!(!region_static_affine(&r));
    }

    #[test]
    fn while_and_critical_disqualify() {
        let i = ScalarId(0);
        let x = ArrayId(0);
        let r1 = region(vec![wloop(v(i).lt(3i64), vec![assign(i, v(i) + 1i64)])]);
        assert!(!region_static_affine(&r1));
        let r2 = region(vec![critical(vec![store(x, vec![ic_(0)], 1.0)])]);
        assert!(!region_static_affine(&r2));
    }

    fn ic_(x: i64) -> Expr {
        Expr::I(x)
    }

    #[test]
    fn expr_affine_rules() {
        let i = ScalarId(0);
        let n = ScalarId(9);
        let lv: HashSet<_> = [i].into_iter().collect();
        assert!(expr_affine(&(v(i) * v(n) + 3i64), &lv));
        assert!(!expr_affine(&(v(i) * v(i)), &lv));
        assert!(!expr_affine(&(v(i) / 2i64), &lv));
        assert!(expr_affine(&(v(n) / 2i64), &lv)); // params may divide
        assert!(!expr_affine(&v(i).shl(1i64), &lv));
    }
}
