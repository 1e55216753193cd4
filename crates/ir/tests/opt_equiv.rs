//! Optimizer equivalence: the optimizer runs on every compiled kernel, as
//! the pipeline stage between bytecode compilation and typed lowering, and
//! must never change an observable. The tree walker never sees the
//! optimizer, so it is the unoptimized reference: closures compiled from
//! the optimized stream must agree with it bit-for-bit on buffer bits,
//! scalar bits, evidence totals, priced cost, and the full trace-event
//! stream, over divergent masks, loops, reductions, private expansions, and
//! texture/constant/shared placements.
//!
//! Every kernel must reach the typed lowering the closures compile from.
//! Where the passes rewrite the stream (constant folding in the loop and
//! private-expansion bodies), the test asserts that they did, so those
//! comparisons cover a rewritten stream. A property test sweeps randomized
//! race-free bodies.

mod common;

use acceval_ir::builder::*;
use acceval_ir::expr::{ld, v};
use acceval_ir::interp::gpu::Engine;
use acceval_ir::interp::opt::OptStats;
use acceval_ir::kernel::{axis, Expansion, KernelPlan, MemSpace, ReduceStrategy};
use acceval_ir::program::{DataSet, Program};
use acceval_ir::types::{ReduceOp, VarRef};
use common::{assert_runs_agree, dna_kernel, finalized, fixture, override_lock, run_uncached, GENES};
use proptest::prelude::*;

/// Launch `plan` on the tree walker and on the optimized pipeline's
/// closures (launch cache off), assert every observable matches
/// bit-exactly, and return what the optimizer did to the kernel.
fn assert_opt_transparent(p: &Program, ds: &DataSet, plan: &KernelPlan) -> OptStats {
    let _guard = override_lock();
    let reference = run_uncached(p, ds, plan, Engine::Tree);
    let optimized = run_uncached(p, ds, plan, Engine::Bytecode);
    assert!(plan.engine_cache.native_kernel().is_some(), "kernel {}: must run on the optimized closures", plan.name);
    assert_runs_agree(&format!("kernel {} (optimized)", plan.name), &reference, &optimized);
    let stats = plan.engine_cache.opt_stats().expect("an executing launch optimizes the kernel");
    assert!(stats.typed, "kernel {}: the optimized stream must have a typed lowering", plan.name);
    stats
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
    let stats = assert_opt_transparent(&p, &ds, &finalized(KernelPlan::new("loops", vec![axis(i, v(n))], body)));
    assert!(stats.folded > 0, "the loop body's constants must be folded: {stats:?}");
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
        let stats = assert_opt_transparent(&p, &ds, &finalized(k));
        assert!(stats.folded > 0, "{exp:?}: the private-array loops' constants must be folded: {stats:?}");
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
