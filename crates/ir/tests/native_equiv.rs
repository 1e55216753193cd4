//! Native-tier equivalence: the native closures, the default engine's only
//! compiled executor, must agree bit-for-bit with the reference tree walker
//! on every observable — buffer bits, scalar bits, evidence totals, priced
//! cost, and the full trace-event stream — over divergent masks, loops,
//! both reduction strategies, private expansions, placements, critical
//! sections and lane-serial hazard bodies.
//!
//! Where `engine_equiv` compares the two engines, this suite pins the tier
//! itself: every launch here executes (launch cache off), must be counted as
//! a native launch, and a second launch must reuse the closures the first
//! one built. A counter test covers the tier's attribution: closures on the
//! first executing launch, tree fallbacks for call bodies and foreign warp
//! widths, neither for replays.
//!
//! Handcrafted kernels pin the feature corners; a property test sweeps
//! randomized race-free bodies on single- and multi-block grids.

mod common;

use std::sync::Arc;

use acceval_ir::builder::*;
use acceval_ir::env::StoreMode;
use acceval_ir::expr::{ld, v};
use acceval_ir::interp::gpu::Engine;
use acceval_ir::interp::launch_cache::{clear_launch_cache, set_launch_cache_override, LaunchCache};
use acceval_ir::interp::store::set_store_override;
use acceval_ir::kernel::{axis, Expansion, KernelPlan, MemSpace, ReduceStrategy};
use acceval_ir::metrics::{Counter, Counters};
use acceval_ir::program::{DataSet, Program};
use acceval_ir::types::{ReduceOp, Value, VarRef};
use acceval_sim::DeviceConfig;
use common::{
    assert_runs_agree, dna_kernel, finalized, fixture, override_lock, run_on, run_uncached, run_uncached_on, GENES,
};
use proptest::prelude::*;

/// This thread's `(native launches, tree fallbacks)` since `before`.
fn counted_since(before: Counters) -> (u64, u64) {
    let d = Counters::thread().since(&before);
    (d.get(Counter::EngineNativeLaunches), d.get(Counter::EngineTreeFallbacks))
}

/// Launch `plan` on the tree walker and twice on the default engine, all
/// with the launch cache off, and assert: each default launch is counted as
/// one native launch and no fallback, the second reuses the first one's
/// closures, and both match the tree bit-for-bit.
fn assert_native_transparent(p: &Program, ds: &DataSet, plan: &KernelPlan) {
    let _guard = override_lock();
    let reference = run_uncached(p, ds, plan, Engine::Tree);
    for launch in ["first", "second"] {
        let before = Counters::thread();
        let built = plan.engine_cache.native_kernel();
        let native = run_uncached(p, ds, plan, Engine::Bytecode);
        assert_eq!(counted_since(before), (1, 0), "kernel {} ({launch} launch): must count as native", plan.name);
        let closures = plan.engine_cache.native_kernel().expect("an executing launch builds the closures");
        if let Some(built) = built {
            assert!(
                Arc::ptr_eq(&built, &closures),
                "kernel {}: a later launch must not rebuild the closures",
                plan.name
            );
        }
        assert_runs_agree(&format!("kernel {} ({launch} native launch)", plan.name), &reference, &native);
    }
}

#[test]
fn divergent_masks_and_selects_are_native_transparent() {
    let (p, ds) = fixture(1777);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let e = ld(x, vec![v(i)]);
    let body = vec![
        if_else(
            (v(i) % 3i64).eq_(0i64),
            vec![store(y, vec![v(i)], e.clone().sqrt() + (v(n) - 1i64).to_f() * 0.5)],
            vec![iff((v(i) % 5i64).lt(2i64), vec![store(y, vec![v(i)], e.clone() * 2.0 + (v(n) - 1i64).to_f() * 0.5)])],
        ),
        store(y, vec![v(i)], (v(i) % 2i64).eq_(0i64).select(ld(y, vec![v(i)]) + 1.0, ld(y, vec![v(i)]) - 1.0)),
    ];
    assert_native_transparent(&p, &ds, &finalized(KernelPlan::new("diverge", vec![axis(i, v(n))], body)));
}

#[test]
fn loop_shapes_are_native_transparent() {
    let (p, ds) = fixture(701);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let s = p.scalar_named("s");
    let x = p.array_named("x");
    let y = p.array_named("y");
    // A divergent trip count (the closures' generic `For` schedule), a
    // uniform inner loop (their counted bulk path), and a data-dependent
    // while exit.
    let body = vec![
        assign(s, 0.0),
        sfor(j, 0i64, (v(i) % 9i64) + 1i64, vec![assign(s, v(s) + ld(x, vec![(v(j) * 3i64 + v(i)) % v(n)]))]),
        sfor(j, 0i64, 12i64, vec![assign(s, v(s) + ld(x, vec![(v(i) + v(j)) % v(n)]) * 0.25)]),
        wloop(v(s).lt(15.0), vec![assign(s, v(s) * 1.25 + 1.0)]),
        store(y, vec![v(i)], v(s)),
    ];
    assert_native_transparent(&p, &ds, &finalized(KernelPlan::new("loops", vec![axis(i, v(n))], body)));
}

#[test]
fn reductions_are_native_transparent() {
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
        assert_native_transparent(&p, &ds, &finalized(k));
    }
}

#[test]
fn array_reduction_and_private_expansions_are_native_transparent() {
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
    assert_native_transparent(&p, &ds, &finalized(k));

    let body = vec![
        sfor(j, 0i64, 8i64, vec![store(q, vec![v(j)], (v(i) * 3i64 + v(j)).to_f())]),
        assign(s, 0.0),
        sfor(j, 0i64, 8i64, vec![assign(s, v(s) + ld(q, vec![v(j)]) * ld(q, vec![(v(j) + 1i64) % 8i64]))]),
        store(y, vec![v(i)], v(s)),
    ];
    for exp in [Expansion::RowWise, Expansion::ColumnWise, Expansion::Register] {
        let k = KernelPlan::new("priv", vec![axis(i, v(n))], body.clone()).with_private(q, exp);
        assert_native_transparent(&p, &ds, &finalized(k));
    }
}

#[test]
fn texture_constant_and_shared_sites_are_native_transparent() {
    let (p, ds) = fixture(1536);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![store(y, vec![v(i)], ld(x, vec![v(i) % 64i64]) + ld(x, vec![v(i)]))];
    for space in [MemSpace::Constant, MemSpace::Texture, MemSpace::SharedTiled { reuse: 8.0 }] {
        let k = KernelPlan::new("place", vec![axis(i, v(n))], body.clone()).with_placement(x, space);
        assert_native_transparent(&p, &ds, &finalized(k));
    }
}

#[test]
fn critical_sections_and_hazard_bodies_are_native_transparent() {
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
    assert_native_transparent(&p, &ds, &finalized(KernelPlan::new("crit", vec![axis(i, v(n))], crit)));
    // In-place update tripping the lane-serial hazard schedule.
    let hazard =
        vec![sfor(j, 0i64, 4i64, vec![store(x, vec![v(i)], ld(x, vec![(v(i) + v(j) * 17i64) % v(n)]) * 0.5 + 1.0)])];
    assert_native_transparent(&p, &ds, &finalized(KernelPlan::new("hazard", vec![axis(i, v(n))], hazard)));
}

/// How the default engine attributes launches. There is no promotion step:
/// a fresh plan has no closures, and the first launch that executes builds
/// them and runs on them. A launch at a warp width the closures were not
/// built for, and a body with calls (an ineligible plan), run on the tree
/// walker and count as tree fallbacks. A replay executes nothing and counts
/// in neither.
#[test]
fn native_counters_attribute_launches_promotions_and_fallbacks() {
    let (p, ds) = fixture(512);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * 2.0)];
    let plan = finalized(KernelPlan::new("count", vec![axis(i, v(n))], body));
    let cfg = DeviceConfig::from_env();

    let _guard = override_lock();
    assert!(plan.engine_cache.native_kernel().is_none(), "a fresh plan has no closures");
    let before = Counters::thread();
    let _ = run_uncached_on(&p, &ds, &plan, Engine::Bytecode, &cfg);
    assert_eq!(counted_since(before), (1, 0), "the first executing launch runs on closures");
    let closures = plan.engine_cache.native_kernel().expect("the first executing launch builds the closures");

    // Half the warp width the closures were built for: the tree walker runs
    // the launch, bit-identically, and the closures are kept.
    let mut narrow = cfg.clone();
    narrow.warp_size = cfg.warp_size / 2;
    let reference = run_uncached_on(&p, &ds, &plan, Engine::Tree, &narrow);
    let before = Counters::thread();
    let fallback = run_uncached_on(&p, &ds, &plan, Engine::Bytecode, &narrow);
    assert_eq!(counted_since(before), (0, 1), "a foreign warp width counts as a tree fallback");
    let kept = plan.engine_cache.native_kernel().expect("closures kept");
    assert!(Arc::ptr_eq(&closures, &kept), "a fallback must not rebuild the closures");
    assert_runs_agree("kernel count (foreign warp width)", &reference, &fallback);

    // A body with calls is ineligible.
    let mut pb = ProgramBuilder::new("fb");
    let fn_n = pb.iscalar("n");
    let fn_i = pb.iscalar("i");
    let a = pb.iscalar("a");
    let t = pb.fscalar("t");
    let fy = pb.farray("y", vec![v(fn_n)]);
    let f = pb.func("sq", vec![a], vec![], vec![assign(t, (v(a) * v(a)).to_f() + 0.5)]);
    pb.main(vec![]);
    let fp = pb.build();
    let fds = DataSet { scalars: vec![(fn_n, Value::I(100))], arrays: vec![], label: "fb".into() };
    let call_plan = finalized(KernelPlan::new(
        "call",
        vec![axis(fn_i, v(fn_n))],
        vec![call(f, vec![v(fn_i)], vec![]), store(fy, vec![v(fn_i)], v(t))],
    ));
    let before = Counters::thread();
    let _ = run_uncached_on(&fp, &fds, &call_plan, Engine::Bytecode, &cfg);
    assert_eq!(counted_since(before), (0, 1), "a body with calls counts as a tree fallback");
    assert!(call_plan.engine_cache.native_kernel().is_none(), "a body with calls has no closures");

    // Cache on, store off, empty cache: the capture executes on the
    // closures, the replay executes nothing.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            set_launch_cache_override(None);
            set_store_override(None);
            clear_launch_cache();
        }
    }
    let _reset = Reset;
    set_launch_cache_override(Some(LaunchCache::On));
    set_store_override(Some(StoreMode::Off));
    clear_launch_cache();
    let before = Counters::thread();
    let capture = run_on(&p, &ds, &plan, Engine::Bytecode, &cfg);
    assert_eq!(counted_since(before), (1, 0), "a capturing launch executes on the closures");
    let before = Counters::thread();
    let replay = run_on(&p, &ds, &plan, Engine::Bytecode, &cfg);
    assert_eq!(counted_since(before), (0, 0), "a replay counts in neither");
    assert_runs_agree("kernel count (capture vs replay)", &capture, &replay);
}

// ---- randomized race-free kernel bodies -----------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized race-free bodies on the default 256-thread blocks, so
    /// small sizes give single-block grids: both native launches match the
    /// tree bit-for-bit on buffers, scalars, totals, cost, and traces.
    #[test]
    fn random_bodies_are_native_transparent(dna in prop::collection::vec((0u8..GENES, 0i64..100), 1..10), n in 33i64..400) {
        let (p, ds) = fixture(n);
        assert_native_transparent(&p, &ds, &dna_kernel(&p, &dna, 256));
    }
}
