//! Lowering equivalence: the typed lowering runs on every compiled kernel,
//! as the pipeline stage between bytecode compilation and the native
//! closures, and must never change an observable. The tree walker never
//! sees it, so it is the reference: closures compiled from the typed stream
//! must agree with it bit-for-bit on buffer bits, scalar bits, evidence
//! totals, priced cost, and the full trace-event stream, over divergent
//! masks, loops, reductions, private expansions, and
//! texture/constant/shared placements.
//!
//! Every kernel must reach the typed lowering the closures compile from,
//! including bodies with redundant, constant, launch-uniform, dead and
//! affine-chained subexpressions, which the lowering takes as compiled. A
//! property test sweeps randomized race-free bodies.

mod common;

use acceval_ir::builder::*;
use acceval_ir::expr::{fc, ld, v};
use acceval_ir::interp::gpu::Engine;
use acceval_ir::kernel::{axis, Expansion, KernelPlan, MemSpace, ReduceStrategy};
use acceval_ir::program::{DataSet, Program};
use acceval_ir::types::{ReduceOp, VarRef};
use common::{assert_runs_agree, dna_kernel, finalized, fixture, override_lock, run_uncached, GENES};
use proptest::prelude::*;

/// Launch `plan` on the tree walker and on the pipeline's closures (launch
/// cache off), assert every observable matches bit-exactly, and that the
/// kernel reached the typed lowering.
fn assert_opt_transparent(p: &Program, ds: &DataSet, plan: &KernelPlan) {
    let _guard = override_lock();
    let reference = run_uncached(p, ds, plan, Engine::Tree);
    let lowered = run_uncached(p, ds, plan, Engine::Bytecode);
    assert!(plan.engine_cache.native_kernel().is_some(), "kernel {}: must run on the compiled closures", plan.name);
    assert_runs_agree(&format!("kernel {} (typed)", plan.name), &reference, &lowered);
    let stats = plan.engine_cache.opt_stats().expect("an executing launch lowers the kernel");
    assert!(stats.typed, "kernel {}: the compiled stream must have a typed lowering: {stats:?}", plan.name);
}

#[test]
fn divergent_masks_and_selects_are_opt_transparent() {
    let (p, ds) = fixture(1777);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let e = ld(x, vec![v(i)]);
    // Nested divergence over repeated uniform subexpressions: charges and
    // If-site traces must not move.
    let body = vec![
        if_else(
            (v(i) % 3i64).eq_(0i64),
            vec![store(y, vec![v(i)], e.clone().sqrt() + (v(n) - 1i64).to_f() * 0.5)],
            vec![iff((v(i) % 5i64).lt(2i64), vec![store(y, vec![v(i)], e.clone() * 2.0 + (v(n) - 1i64).to_f() * 0.5)])],
        ),
        store(y, vec![v(i)], (v(i) % 2i64).eq_(0i64).select(ld(y, vec![v(i)]) + 1.0, ld(y, vec![v(i)]) - 1.0)),
    ];
    assert_opt_transparent(&p, &ds, &finalized(KernelPlan::new("diverge", vec![axis(i, v(n))], body)));
}

#[test]
fn loop_shapes_are_opt_transparent() {
    let (p, ds) = fixture(701);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let s = p.scalar_named("s");
    let x = p.array_named("x");
    let y = p.array_named("y");
    // An affine index chain under a divergent trip count, and a
    // data-dependent while exit.
    let body = vec![
        assign(s, 0.0),
        sfor(j, 0i64, (v(i) % 9i64) + 1i64, vec![assign(s, v(s) + ld(x, vec![(v(j) * 3i64 + v(i)) % v(n)]))]),
        wloop(v(s).lt(15.0), vec![assign(s, v(s) * 1.25 + 1.0)]),
        store(y, vec![v(i)], v(s)),
    ];
    assert_opt_transparent(&p, &ds, &finalized(KernelPlan::new("loops", vec![axis(i, v(n))], body)));
}

/// Bodies with a repeated subexpression, a dead scalar write, a constant
/// subexpression, launch-uniform index math, and an affine index chain in a
/// loop reach the typed lowering as compiled and agree with the tree walker.
#[test]
fn unsimplified_shapes_are_opt_transparent() {
    let (p, ds) = fixture(640);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let shapes = [
        ("repeated", vec![store(y, vec![v(i)], ld(x, vec![((v(i) + 1i64) * (v(i) + 1i64)) % v(n)]))]),
        ("dead", vec![assign(j, v(n) + 1i64), store(y, vec![v(i)], ld(x, vec![v(i)]))]),
        ("constant", vec![store(y, vec![v(i)], ld(x, vec![v(i)]) + fc(2.0) * fc(3.0))]),
        ("uniform", vec![store(y, vec![v(i)], ld(x, vec![v(i)]) + (v(n) - 1i64))]),
        ("affine", vec![sfor(j, 0i64, v(n) / 3i64, vec![store(y, vec![v(j) * 3i64], 1.0)])]),
    ];
    for (name, body) in shapes {
        assert_opt_transparent(&p, &ds, &finalized(KernelPlan::new(name, vec![axis(i, v(n))], body)));
    }
}

#[test]
fn reductions_are_opt_transparent() {
    let (p, ds) = fixture(2100);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let s = p.scalar_named("s");
    let x = p.array_named("x");
    let body = vec![assign(s, v(s) + ld(x, vec![v(i)]).sqrt())];
    for strat in [ReduceStrategy::TwoLevelTree { partials_in_shared: true }, ReduceStrategy::AtomicSerial] {
        let k = KernelPlan::new("red", vec![axis(i, v(n))], body.clone())
            .with_reduction(ReduceOp::Add, VarRef::Scalar(s))
            .with_reduce_strategy(strat);
        assert_opt_transparent(&p, &ds, &finalized(k));
    }
}

#[test]
fn array_reduction_and_private_expansions_are_opt_transparent() {
    let (p, ds) = fixture(1024);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let s = p.scalar_named("s");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let q = p.array_named("q");
    let hist = vec![store(q, vec![v(i) % 8i64], ld(q, vec![v(i) % 8i64]) + ld(x, vec![v(i)]))];
    let k = KernelPlan::new("hist", vec![axis(i, v(n))], hist)
        .with_private(q, Expansion::Register)
        .with_reduction(ReduceOp::Add, VarRef::Array(q));
    assert_opt_transparent(&p, &ds, &finalized(k));

    let body = vec![
        sfor(j, 0i64, 8i64, vec![store(q, vec![v(j)], (v(i) * 3i64 + v(j)).to_f())]),
        assign(s, 0.0),
        sfor(j, 0i64, 8i64, vec![assign(s, v(s) + ld(q, vec![v(j)]) * ld(q, vec![(v(j) + 1i64) % 8i64]))]),
        store(y, vec![v(i)], v(s)),
    ];
    for exp in [Expansion::RowWise, Expansion::ColumnWise, Expansion::Register] {
        let k = KernelPlan::new("priv", vec![axis(i, v(n))], body.clone()).with_private(q, exp);
        assert_opt_transparent(&p, &ds, &finalized(k));
    }
}

#[test]
fn texture_constant_and_shared_sites_are_opt_transparent() {
    let (p, ds) = fixture(1536);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![store(y, vec![v(i)], ld(x, vec![v(i) % 64i64]) + ld(x, vec![v(i)]))];
    for space in [MemSpace::Constant, MemSpace::Texture, MemSpace::SharedTiled { reuse: 8.0 }] {
        let k = KernelPlan::new("place", vec![axis(i, v(n))], body.clone()).with_placement(x, space);
        assert_opt_transparent(&p, &ds, &finalized(k));
    }
}

#[test]
fn critical_sections_and_hazard_bodies_are_opt_transparent() {
    let (p, ds) = fixture(384);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let crit = vec![
        store(y, vec![v(i)], v(i).to_f()),
        barrier(),
        critical(vec![store(y, vec![v(i)], ld(y, vec![v(i)]) + 1.0)]),
    ];
    assert_opt_transparent(&p, &ds, &finalized(KernelPlan::new("crit", vec![axis(i, v(n))], crit)));
    // In-place update tripping the lane-serial hazard schedule.
    let hazard =
        vec![sfor(j, 0i64, 4i64, vec![store(x, vec![v(i)], ld(x, vec![(v(i) + v(j) * 17i64) % v(n)]) * 0.5 + 1.0)])];
    assert_opt_transparent(&p, &ds, &finalized(KernelPlan::new("hazard", vec![axis(i, v(n))], hazard)));
}

// ---- randomized race-free kernel bodies -----------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized race-free bodies: the optimized closures and the tree
    /// walker agree bit-for-bit on buffers, scalars, totals, cost, and
    /// traces.
    #[test]
    fn random_bodies_are_opt_transparent(dna in prop::collection::vec((0u8..GENES, 0i64..100), 1..10), n in 33i64..400) {
        let (p, ds) = fixture(n);
        assert_opt_transparent(&p, &ds, &dna_kernel(&p, &dna, 256));
    }
}
