//! Engine equivalence: the default engine (the compiled pipeline's native
//! closures) must be observationally identical to the reference tree
//! walker — same buffer bits, same scalar bits, same execution evidence
//! (`KernelTotals`), same priced cost, and the same trace events — on every
//! kernel shape the lowering can produce.
//!
//! Handcrafted kernels pin down each feature (divergence, loops, private
//! expansions, placements, reductions, critical sections, lane-serial
//! hazard bodies, geometry retargeting) and each asserts that it really ran
//! on closures; faulting bodies must panic with the same message; a
//! property test then sweeps randomized race-free bodies over multi-block
//! grids.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use acceval_ir::builder::*;
use acceval_ir::expr::{ld, v};
use acceval_ir::interp::gpu::{env_from_dataset, launch_with_engine, DeviceState, Engine};
use acceval_ir::interp::launch_cache::{set_launch_cache_override, LaunchCache};
use acceval_ir::interp::native::thread_native_counters;
use acceval_ir::kernel::{axis, Expansion, KernelPlan, MemSpace, ReduceStrategy};
use acceval_ir::program::{DataSet, HostData, Program};
use acceval_ir::types::{ArrayId, ReduceOp, Value, VarRef};
use acceval_sim::{Buffer, DeviceConfig, ElemType};
use common::{
    assert_runs_agree, dna_kernel, finalized, fixture, override_lock, run_one, run_uncached, GENES, UNIFORM_GENES,
};
use proptest::prelude::*;

/// Launch under the tree walker and the default engine and assert every
/// observable matches bit-exactly. The default engine runs twice: once with
/// the launch cache off, which must execute on the plan's closures, and
/// once under the ambient cache and store policy.
fn assert_engines_agree(p: &Program, ds: &DataSet, plan: &KernelPlan) {
    let _guard = override_lock();
    let reference = run_uncached(p, ds, plan, Engine::Tree);
    let native = run_uncached(p, ds, plan, Engine::Bytecode);
    assert!(
        plan.engine_cache.native_kernel().is_some(),
        "kernel {}: the default engine must run on closures",
        plan.name
    );
    assert_runs_agree(&format!("kernel {} (closures)", plan.name), &reference, &native);
    let ambient = run_one(p, ds, plan, Engine::Bytecode);
    assert_runs_agree(&format!("kernel {} (ambient cache policy)", plan.name), &reference, &ambient);
}

#[test]
fn intrinsics_divergence_and_select_agree() {
    let (p, ds) = fixture(2000);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let e = ld(x, vec![v(i)]);
    let body = vec![
        if_else(
            (v(i) % 3i64).eq_(0i64),
            vec![store(y, vec![v(i)], e.clone().sqrt() + e.clone().exp().log())],
            vec![store(y, vec![v(i)], e.clone().abs().pow(1.5) - e.clone().floor())],
        ),
        store(y, vec![v(i)], (v(i) % 5i64).lt(2i64).select(ld(y, vec![v(i)]) * 2.0, ld(y, vec![v(i)]) - 1.0)),
    ];
    assert_engines_agree(&p, &ds, &finalized(KernelPlan::new("intrin", vec![axis(i, v(n))], body)));
    // Nested divergence over repeated launch-uniform subexpressions: charges
    // and branch-site traces must not move.
    let body = vec![
        if_else(
            (v(i) % 3i64).eq_(0i64),
            vec![store(y, vec![v(i)], e.clone().sqrt() + (v(n) - 1i64).to_f() * 0.5)],
            vec![iff((v(i) % 5i64).lt(2i64), vec![store(y, vec![v(i)], e.clone() * 2.0 + (v(n) - 1i64).to_f() * 0.5)])],
        ),
        store(y, vec![v(i)], (v(i) % 2i64).eq_(0i64).select(ld(y, vec![v(i)]) + 1.0, ld(y, vec![v(i)]) - 1.0)),
    ];
    assert_engines_agree(&p, &ds, &finalized(KernelPlan::new("diverge", vec![axis(i, v(n))], body)));
}

#[test]
fn sequential_and_while_loops_agree() {
    let (p, ds) = fixture(701);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let s = p.scalar_named("s");
    let x = p.array_named("x");
    let y = p.array_named("y");
    // Per-thread accumulation: a divergent trip count over an affine index
    // chain (the closures' generic `For` schedule), a uniform inner loop
    // (their counted bulk path), and a
    // data-dependent while whose lanes exit at different trip counts.
    let body = vec![
        assign(s, 0.0),
        sfor(j, 0i64, (v(i) % 9i64) + 1i64, vec![assign(s, v(s) + ld(x, vec![(v(j) * 3i64 + v(i)) % v(n)]))]),
        sfor(j, 0i64, 12i64, vec![assign(s, v(s) + ld(x, vec![(v(i) + v(j)) % v(n)]) * 0.25)]),
        wloop(v(s).lt(20.0), vec![assign(s, v(s) * 1.5 + 1.0)]),
        store(y, vec![v(i)], v(s)),
    ];
    assert_engines_agree(&p, &ds, &finalized(KernelPlan::new("loops", vec![axis(i, v(n))], body)));
}

#[test]
fn two_d_grid_and_multi_dim_index_agree() {
    let mut pb = ProgramBuilder::new("grid");
    let n = pb.iscalar("n");
    let i = pb.iscalar("i");
    let j = pb.iscalar("j");
    let a2 = pb.farray("a2", vec![v(n), v(n)]);
    pb.main(vec![]);
    let p = pb.build();
    let ds = DataSet { scalars: vec![(n, Value::I(60))], arrays: vec![], label: "grid".into() };
    let body = vec![store(a2, vec![v(i), v(j)], (v(i) * 31i64 + v(j)).to_f() * 0.25)];
    let k = KernelPlan::new("fill2d", vec![axis(i, v(n)), axis(j, v(n))], body).with_block(16, 8);
    assert_engines_agree(&p, &ds, &finalized(k));
}

#[test]
fn reductions_agree_under_both_strategies() {
    let (p, ds) = fixture(3000);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let s = p.scalar_named("s");
    let x = p.array_named("x");
    let body = vec![assign(s, v(s) + ld(x, vec![v(i)]).sqrt())];
    for strat in [ReduceStrategy::TwoLevelTree { partials_in_shared: true }, ReduceStrategy::AtomicSerial] {
        let k = KernelPlan::new("red", vec![axis(i, v(n))], body.clone())
            .with_reduction(ReduceOp::Add, VarRef::Scalar(s))
            .with_reduce_strategy(strat);
        assert_engines_agree(&p, &ds, &finalized(k));
    }
}

#[test]
fn array_reduction_agrees() {
    let (p, ds) = fixture(2048);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let q = p.array_named("q");
    // Histogram into an 8-bin reduction array (reduction arrays are
    // privatized per thread and combined by the runtime).
    let body = vec![store(q, vec![v(i) % 8i64], ld(q, vec![v(i) % 8i64]) + ld(x, vec![v(i)]))];
    let k = KernelPlan::new("hist", vec![axis(i, v(n))], body)
        .with_private(q, Expansion::Register)
        .with_reduction(ReduceOp::Add, VarRef::Array(q));
    assert_engines_agree(&p, &ds, &finalized(k));
}

#[test]
fn private_expansions_agree() {
    let (p, ds) = fixture(1024);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let s = p.scalar_named("s");
    let y = p.array_named("y");
    let q = p.array_named("q");
    let body = vec![
        sfor(j, 0i64, 8i64, vec![store(q, vec![v(j)], (v(i) * 3i64 + v(j)).to_f())]),
        assign(s, 0.0),
        sfor(j, 0i64, 8i64, vec![assign(s, v(s) + ld(q, vec![v(j)]) * ld(q, vec![(v(j) + 1i64) % 8i64]))]),
        store(y, vec![v(i)], v(s)),
    ];
    for exp in [Expansion::RowWise, Expansion::ColumnWise, Expansion::Register] {
        let k = KernelPlan::new("priv", vec![axis(i, v(n))], body.clone()).with_private(q, exp);
        assert_engines_agree(&p, &ds, &finalized(k));
    }
}

#[test]
fn placements_agree() {
    let (p, ds) = fixture(2048);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![store(y, vec![v(i)], ld(x, vec![v(i) % 128i64]) + ld(x, vec![v(i)]))];
    for space in [MemSpace::Constant, MemSpace::Texture, MemSpace::SharedTiled { reuse: 8.0 }] {
        let k = KernelPlan::new("place", vec![axis(i, v(n))], body.clone()).with_placement(x, space);
        assert_engines_agree(&p, &ds, &finalized(k));
    }
}

#[test]
fn critical_section_and_barrier_agree() {
    let (p, ds) = fixture(512);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let y = p.array_named("y");
    let body = vec![
        store(y, vec![v(i)], v(i).to_f()),
        barrier(),
        critical(vec![store(y, vec![v(i)], ld(y, vec![v(i)]) + 1.0)]),
    ];
    assert_engines_agree(&p, &ds, &finalized(KernelPlan::new("crit", vec![axis(i, v(n))], body)));
}

#[test]
fn lane_serial_hazard_body_agrees() {
    // A body that both loads and stores the same global array (a blocked
    // in-place update, like LUD's panels) must trip the compiled path's
    // lane-serial hazard mode and still match the tree schedule exactly.
    let (p, ds) = fixture(256);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let x = p.array_named("x");
    let body =
        vec![sfor(j, 0i64, 4i64, vec![store(x, vec![v(i)], ld(x, vec![(v(i) + v(j) * 17i64) % v(n)]) * 0.5 + 1.0)])];
    assert_engines_agree(&p, &ds, &finalized(KernelPlan::new("hazard", vec![axis(i, v(n))], body)));
}

#[test]
fn geometry_retarget_reuses_compiled_body() {
    // Clones share the engine cache; the retargeted plan must stay
    // bit-identical under both engines and across block shapes.
    let (p, ds) = fixture(999);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * 3.0)];
    let base = finalized(KernelPlan::new("geom", vec![axis(i, v(n))], body));
    assert_engines_agree(&p, &ds, &base);
    let closures = base.engine_cache.native_kernel().expect("closures built");
    for bx in [32u32, 64, 256] {
        // Same re-pointing the sweep's `retarget_block_geometry` performs:
        // geometry changes, the cloned plan keeps the shared engine cache.
        let mut re = base.clone();
        re.block = (bx, 1);
        assert_engines_agree(&p, &ds, &re);
        let shared = re.engine_cache.native_kernel().expect("closures shared");
        assert!(std::sync::Arc::ptr_eq(&closures, &shared), "a retarget must not rebuild the closures");
    }
}

#[test]
fn call_body_falls_back_to_tree() {
    // Bodies with calls have no compiled form; the default engine must hand
    // them to the tree walker transparently (same results, no panic) and
    // count the fallback.
    let mut pb = ProgramBuilder::new("fb");
    let n = pb.iscalar("n");
    let i = pb.iscalar("i");
    let a = pb.iscalar("a");
    let t = pb.fscalar("t");
    let y = pb.farray("y", vec![v(n)]);
    let f = pb.func("sq", vec![a], vec![], vec![assign(t, (v(a) * v(a)).to_f() + 0.5)]);
    pb.main(vec![]);
    let p = pb.build();
    let ds = DataSet { scalars: vec![(n, Value::I(100))], arrays: vec![], label: "fb".into() };
    let body = vec![call(f, vec![v(i)], vec![]), store(y, vec![v(i)], v(t))];
    let k = finalized(KernelPlan::new("call", vec![axis(i, v(n))], body));

    let _guard = override_lock();
    let reference = run_uncached(&p, &ds, &k, Engine::Tree);
    let (launches0, fallbacks0) = thread_native_counters();
    let fallback = run_uncached(&p, &ds, &k, Engine::Bytecode);
    let (launches1, fallbacks1) = thread_native_counters();
    assert!(k.engine_cache.native_kernel().is_none(), "a body with calls has no closures");
    assert_eq!((launches1 - launches0, fallbacks1 - fallbacks0), (0, 1), "the launch must count as a tree fallback");
    assert_runs_agree("kernel call (tree fallback)", &reference, &fallback);
}

/// The panic message of `plan`'s launch on `eng` under launch-cache policy
/// `cache`, from a fresh device holding every array except `absent`. With
/// the cache on the launch misses, so its capture journal is active when
/// the fault fires. The caller holds [`override_lock`].
fn launch_panic(
    p: &Program,
    ds: &DataSet,
    plan: &KernelPlan,
    eng: Engine,
    cache: LaunchCache,
    absent: Option<ArrayId>,
) -> String {
    let host = HostData::materialize(p, ds);
    let cfg = DeviceConfig::from_env();
    let mut dev = DeviceState::new(p, &cfg);
    for (k, b) in host.bufs.iter().enumerate() {
        let id = ArrayId(k as u32);
        if Some(id) != absent {
            dev.upload(id, b);
        }
    }
    let mut scal = env_from_dataset(p, ds);
    set_launch_cache_override(Some(cache));
    let run = catch_unwind(AssertUnwindSafe(|| launch_with_engine(p, plan, &mut dev, &mut scal, &cfg, eng)));
    set_launch_cache_override(None);
    let payload = run.err().unwrap_or_else(|| panic!("kernel {}: the {eng:?} launch must panic", plan.name));
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast_ref::<&str>().expect("a message payload").to_string(),
    }
}

#[test]
fn faulting_accesses_panic_alike() {
    // One body per buffer-access path of the closures: fast-site reads of
    // arity 1 and 2, a fast-site store, a read through a loaded (non-fast)
    // index, a read and a write of an array that was never uploaded, and a
    // read of one with every index out of range (the index reports first);
    // each with the launch cache off and on (journaling stores).
    // Each faults first at one (site, lane) pair — mostly the last lane of
    // a full warp, so the fast sites' whole-row range test fails and re-runs
    // the per-lane schedule — which the lane-serial tree walk and the
    // lockstep closures therefore both reach first.
    let mut pb = ProgramBuilder::new("faults");
    let n = pb.iscalar("n");
    let i = pb.iscalar("i");
    let x = pb.farray("x", vec![v(n)]);
    let y = pb.farray("y", vec![v(n)]);
    let a2 = pb.farray("a2", vec![v(n), v(n)]);
    let perm = pb.iarray("perm", vec![v(n)]);
    pb.main(vec![]);
    let p = pb.build();
    let len = 256i64;
    let ds = DataSet {
        scalars: vec![(n, Value::I(len))],
        arrays: vec![
            (x, Buffer::from_f64(ElemType::F64, (0..len).map(|k| k as f64 * 0.5).collect())),
            // The identity permutation, except its last entry points one
            // past the end of `x`.
            (perm, Buffer::from_i64(ElemType::I32, (0..len).map(|k| if k == len - 1 { len } else { k }).collect())),
        ],
        label: "faults".into(),
    };
    let cases = [
        (
            "read1d",
            vec![store(y, vec![v(i)], ld(x, vec![v(i) + 1i64]))],
            None,
            "index 256 out of bounds (dim 0 extent 256) on array x",
        ),
        (
            "read2d",
            vec![store(y, vec![v(i)], ld(a2, vec![v(i), v(i) + 1i64]))],
            None,
            "index 256 out of bounds (dim 1 extent 256) on array a2",
        ),
        (
            "write",
            vec![store(y, vec![v(i) + 1i64], ld(x, vec![v(i)]))],
            None,
            "index 256 out of bounds (dim 0 extent 256) on array y",
        ),
        (
            "indirect",
            vec![store(y, vec![v(i)], ld(x, vec![ld(perm, vec![v(i)])]))],
            None,
            "index 256 out of bounds (dim 0 extent 256) on array x",
        ),
        (
            "absent_read",
            vec![store(y, vec![v(i)], ld(x, vec![v(i)]))],
            Some(x),
            "kernel read of unallocated device array 0",
        ),
        ("absent_write", vec![store(y, vec![v(i)], 1.0)], Some(y), "kernel write of unallocated device array 1"),
        (
            "absent_oob",
            vec![store(y, vec![v(i)], ld(x, vec![v(i) + v(n)]))],
            Some(x),
            "index 256 out of bounds (dim 0 extent 256) on array x",
        ),
    ];
    let _guard = override_lock();
    for (name, body, absent, want) in cases {
        let plan = finalized(KernelPlan::new(name, vec![axis(i, v(n))], body));
        for cache in [LaunchCache::Off, LaunchCache::On] {
            let tree = launch_panic(&p, &ds, &plan, Engine::Tree, cache, absent);
            let closures = launch_panic(&p, &ds, &plan, Engine::Bytecode, cache, absent);
            assert!(
                plan.engine_cache.native_kernel().is_some(),
                "kernel {name}: the default engine must run on closures"
            );
            assert_eq!(tree, want, "kernel {name}, cache {cache:?}: tree walker panic");
            assert_eq!(
                closures, tree,
                "kernel {name}, cache {cache:?}: the closures panic differently from the tree walker"
            );
        }
    }
}

// ---- randomized race-free kernel bodies -----------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized race-free bodies on grids of at least two blocks: both
    /// engines agree bit-for-bit on buffers, scalars, evidence totals,
    /// priced time and traces. Half the cases draw only genes that keep
    /// representative-block pricing eligible, so the closures' functional-
    /// only warps run too.
    #[test]
    fn random_bodies_agree(
        dna in prop::collection::vec((0u8..GENES, 0i64..100), 1..10),
        uniform in prop::sample::select(vec![false, true]),
        block in prop::sample::select(vec![32u32, 64, 128]),
        n in 129i64..500,
    ) {
        let dna: Vec<(u8, i64)> =
            if uniform { dna.into_iter().map(|(op, c)| (op % UNIFORM_GENES, c)).collect() } else { dna };
        let (p, ds) = fixture(n);
        assert_engines_agree(&p, &ds, &dna_kernel(&p, &dna, block));
    }
}
