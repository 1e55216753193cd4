//! The launch cache is a speed knob, never a results knob: a warm replay
//! must be observationally identical to the cold execution — same buffer
//! bits, same scalar bits, same evidence totals, same priced cost — and
//! writes to an input buffer must cleanly invalidate the memoized digest so
//! iterative patterns re-execute.

mod common;

use std::sync::Mutex;

use acceval_ir::builder::*;
use acceval_ir::expr::{ld, v};
use acceval_ir::interp::gpu::{env_from_dataset, launch_with_engine, upload_all, DeviceState, Engine, LaunchResult};
use acceval_ir::interp::launch_cache::{
    clear_launch_cache, launch_cache_totals, set_launch_cache_cap_override, set_launch_cache_override, LaunchCache,
};
use acceval_ir::kernel::{axis, KernelPlan};
use acceval_ir::program::{DataSet, HostData, Program};
use acceval_ir::types::{ReduceOp, Value, VarRef};
use acceval_sim::{Buffer, DeviceConfig, ElemType};
use common::{assert_states_bit_equal, dna_kernel, finalized, fixture, GENES};
use proptest::prelude::*;

/// The cache policy, byte cap, and hit counters are process-global;
/// serialize every test that flips or reads them.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` under cache policy `policy` with an empty cache, restoring the
/// defaults (and clearing again) on exit — also on panic, so one failing
/// test can't poison the store for the others.
fn with_cache<T>(policy: LaunchCache, f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            set_launch_cache_override(None);
            set_launch_cache_cap_override(None);
            clear_launch_cache();
        }
    }
    let _guard = CACHE_LOCK.lock().unwrap();
    let _reset = Reset;
    clear_launch_cache();
    set_launch_cache_override(Some(policy));
    f()
}

/// Launch `plan` on `eng` from a fresh device/scalar state.
fn run_one(p: &Program, ds: &DataSet, plan: &KernelPlan, eng: Engine) -> (DeviceState, Vec<Value>, LaunchResult) {
    let cfg = DeviceConfig::tesla_m2090();
    let host = HostData::materialize(p, ds);
    let mut dev = DeviceState::new(p, &cfg);
    upload_all(p, &mut dev, &host);
    let mut scal = env_from_dataset(p, ds);
    let r = launch_with_engine(p, plan, &mut dev, &mut scal, &cfg, eng);
    (dev, scal, r)
}

/// Cold (cache off), capture (first run, cache on), and replay (second run,
/// cache on) must be indistinguishable bit-for-bit; the replay must score a
/// real hit, the capture a real miss.
fn assert_cache_transparent(p: &Program, ds: &DataSet, plan: &KernelPlan, eng: Engine) {
    let cold = with_cache(LaunchCache::Off, || run_one(p, ds, plan, eng));
    let (capture, replay, dh, dm) = with_cache(LaunchCache::On, || {
        let t0 = launch_cache_totals();
        let a = run_one(p, ds, plan, eng);
        let b = run_one(p, ds, plan, eng);
        let t1 = launch_cache_totals();
        (a, b, t1.hits - t0.hits, t1.misses - t0.misses)
    });
    assert_eq!(dm, 1, "kernel {}: first launch must miss and capture", plan.name);
    assert_eq!(dh, 1, "kernel {}: warm re-launch must hit", plan.name);
    assert_states_bit_equal(&format!("kernel {} capture vs cold", plan.name), &capture, &cold);
    assert_states_bit_equal(&format!("kernel {} replay vs cold", plan.name), &replay, &cold);
}

fn stream_plan(p: &Program) -> KernelPlan {
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * 2.0 + ld(x, vec![(v(i) + 7i64) % v(n)]))];
    finalized(KernelPlan::new("stream", vec![axis(i, v(n))], body))
}

/// A streaming elementwise kernel replays bit-exactly on both engines.
#[test]
fn streaming_kernel_replays_bit_exactly() {
    let (p, ds) = fixture(3000);
    let plan = stream_plan(&p);
    assert_cache_transparent(&p, &ds, &plan, Engine::Bytecode);
    assert_cache_transparent(&p, &ds, &plan, Engine::Tree);
}

/// Keys carry no engine, and closures are built only by a launch that
/// executes: a plan whose launch replays an effect the tree walker captured
/// for an identical plan builds none and sees the same state.
#[test]
fn replay_builds_no_closures() {
    let (p, ds) = fixture(1000);
    let capturer = stream_plan(&p);
    let replayer = stream_plan(&p);
    let (captured, replayed, hits) = with_cache(LaunchCache::On, || {
        let a = run_one(&p, &ds, &capturer, Engine::Tree);
        let t0 = launch_cache_totals();
        let b = run_one(&p, &ds, &replayer, Engine::Bytecode);
        (a, b, launch_cache_totals().hits - t0.hits)
    });
    assert_eq!(hits, 1, "the second plan must replay the first plan's effect");
    assert!(replayer.engine_cache.native_kernel().is_none(), "a replay must not build closures");
    assert_states_bit_equal("tree capture vs default-engine replay", &captured, &replayed);
}

/// Scalar reductions write back through the journaled fold; the replayed
/// scalar must carry the exact fold-order bits.
#[test]
fn reduction_kernel_replays_scalar_bits() {
    let (p, ds) = fixture(2111);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let s = p.scalar_named("s");
    let x = p.array_named("x");
    for op in [ReduceOp::Add, ReduceOp::Max] {
        let body = vec![assign(s, ld(x, vec![v(i)]) * 1.0009765625)];
        let k = KernelPlan::new("red", vec![axis(i, v(n))], body).with_reduction(op, VarRef::Scalar(s));
        assert_cache_transparent(&p, &ds, &finalized(k), Engine::Bytecode);
    }
}

/// A warp-divergent body (branches, select, data-dependent loop trips) has
/// nontrivial evidence totals; replay must reproduce them exactly.
#[test]
fn divergent_kernel_replays_evidence_totals() {
    let (p, ds) = fixture(1024);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let s = p.scalar_named("s");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![
        assign(s, ld(x, vec![v(i)])),
        iff((v(i) % 3i64).eq_(0i64), vec![assign(s, v(s).sqrt() + 1.0)]),
        if_else(v(s).lt(4.0), vec![assign(s, v(s) * 2.0)], vec![assign(s, v(s) - ld(x, vec![v(i) % v(n)]))]),
        sfor(j, 0i64, 5i64, vec![assign(s, v(s) + ld(x, vec![(v(i) + v(j)) % v(n)]) * 0.125)]),
        store(y, vec![v(i)], (v(i) % 2i64).lt(1i64).select(v(s), v(s).abs() + 0.5)),
    ];
    let plan = finalized(KernelPlan::new("diverge", vec![axis(i, v(n))], body));
    assert_cache_transparent(&p, &ds, &plan, Engine::Bytecode);
    assert_cache_transparent(&p, &ds, &plan, Engine::Tree);
}

/// Uploading different contents into a read buffer bumps its generation:
/// the next launch must miss and execute against the new data, while
/// re-uploading identical contents keeps the memo (and the next launch
/// hits).
#[test]
fn upload_invalidates_input_digest() {
    let (p, ds) = fixture(700);
    let plan = stream_plan(&p);
    let x = p.array_named("x");
    let cfg = DeviceConfig::tesla_m2090();
    let n = 700usize;
    let changed = Buffer::from_f64(ElemType::F64, (0..n).map(|k| (k % 31) as f64 * 1.5 - 4.0).collect());

    // Oracle for the changed input: cache off, fresh state.
    let mut ds2 = ds.clone();
    ds2.arrays[0].1 = changed.clone();
    let cold2 = with_cache(LaunchCache::Off, || run_one(&p, &ds2, &plan, Engine::Bytecode));

    with_cache(LaunchCache::On, || {
        let host = HostData::materialize(&p, &ds);
        let mut dev = DeviceState::new(&p, &cfg);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        // Two warm-up launches: the first allocates `y` (changing the layout
        // digest for everything after it), the second captures against the
        // now-stable layout.
        let _ = launch_with_engine(&p, &plan, &mut dev, &mut scal, &cfg, Engine::Bytecode);
        let _ = launch_with_engine(&p, &plan, &mut dev, &mut scal, &cfg, Engine::Bytecode);

        // Same contents re-uploaded: the memoized digest matches, nothing is
        // invalidated, and the repeat launch is a hit.
        dev.upload(x, &host.bufs[x.0 as usize]);
        let t0 = launch_cache_totals();
        let mut scal_hit = env_from_dataset(&p, &ds);
        let _ = launch_with_engine(&p, &plan, &mut dev, &mut scal_hit, &cfg, Engine::Bytecode);
        let t1 = launch_cache_totals();
        assert_eq!(t1.hits - t0.hits, 1, "identical re-upload must not invalidate");

        // New contents: the generation bumps, the key changes, and the
        // launch executes against the new data.
        dev.upload(x, &changed);
        let mut scal2 = env_from_dataset(&p, &ds2);
        let r2 = launch_with_engine(&p, &plan, &mut dev, &mut scal2, &cfg, Engine::Bytecode);
        let t2 = launch_cache_totals();
        assert_eq!(t2.misses - t1.misses, 1, "changed upload must force a miss");
        assert_states_bit_equal("post-upload relaunch vs cold", &(dev, scal2, r2), &cold2);
    });
}

/// Under a tiny byte cap the store evicts least-recently-used entries: the
/// evicted key re-misses, a recently used key still hits, and the resident
/// footprint stays bounded.
#[test]
fn tiny_cap_evicts_lru() {
    let (p, ds) = fixture(64);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let plan_k = |c: f64, name: &'static str| {
        finalized(KernelPlan::new(name, vec![axis(i, v(n))], vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * c)]))
    };
    let (evicted, resident, cap, re_hit, re_miss) = with_cache(LaunchCache::On, || {
        let a = plan_k(1.5, "a");
        let b = plan_k(2.5, "b");
        let c = plan_k(3.5, "c");
        // The three effects are shape-identical (a dense 64-element f64
        // rewrite), so measure one entry's honest resident footprint and
        // set a cap that fits two entries but not three.
        let _ = run_one(&p, &ds, &a, Engine::Bytecode);
        let per_entry = launch_cache_totals().resident_bytes;
        assert!(per_entry > 0, "one cached effect must have a nonzero footprint");
        let cap = per_entry * 5 / 2;
        clear_launch_cache();
        set_launch_cache_cap_override(Some(cap));
        let t0 = launch_cache_totals();
        let _ = run_one(&p, &ds, &a, Engine::Bytecode);
        let _ = run_one(&p, &ds, &b, Engine::Bytecode);
        // Touch `b` so `a` is the LRU victim when `c` lands.
        let _ = run_one(&p, &ds, &b, Engine::Bytecode);
        let _ = run_one(&p, &ds, &c, Engine::Bytecode);
        let t1 = launch_cache_totals();
        let _ = run_one(&p, &ds, &b, Engine::Bytecode);
        let t2 = launch_cache_totals();
        let _ = run_one(&p, &ds, &a, Engine::Bytecode);
        let t3 = launch_cache_totals();
        (t1.evictions - t0.evictions, t1.resident_bytes, cap, t2.hits - t1.hits, t3.misses - t2.misses)
    });
    assert!(evicted >= 1, "a third entry under a 2 KiB cap must evict");
    assert!(resident <= cap, "resident bytes ({resident}) must stay under the cap ({cap})");
    assert_eq!(re_hit, 1, "the recently-used entry must survive eviction");
    assert_eq!(re_miss, 1, "the evicted entry must re-miss");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized race-free bodies across block shapes: capture and replay
    /// agree with the cache-off execution bit-for-bit.
    #[test]
    fn random_bodies_replay_bit_exactly(
        dna in prop::collection::vec((0u8..GENES, 0i64..100), 1..8),
        n in 65i64..400,
        block in prop::sample::select(vec![32u32, 64, 128]),
    ) {
        let (p, ds) = fixture(n);
        let k = dna_kernel(&p, &dna, block);
        assert_cache_transparent(&p, &ds, &k, Engine::Bytecode);
    }
}
