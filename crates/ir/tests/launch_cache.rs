//! The launch cache is a speed knob, never a results knob: a warm replay
//! must be observationally identical to the cold execution — same buffer
//! bits, same scalar bits, same evidence totals, same priced cost — and
//! writes to an input buffer must cleanly invalidate the memoized digest so
//! iterative patterns re-execute. A capture reads its delta off the
//! launch's first-write journal and carries each written buffer's digest
//! forward incrementally, so every capture is also checked against a
//! from-scratch re-hash, on bodies that cover each journal path. Whether a
//! sink listens is no part of a launch's identity: a launch with a
//! recording sink replays what a launch without one captured, and records
//! the events a cache-off launch emits.

mod common;

use std::sync::Mutex;

use acceval_ir::builder::*;
use acceval_ir::expr::{ld, v};
use acceval_ir::interp::gpu::{
    env_from_dataset, launch_traced_with_engine, launch_with_engine, upload_all, DeviceState, Engine, LaunchResult,
};
use acceval_ir::interp::launch_cache::{
    clear_launch_cache, launch_cache_totals, set_launch_cache_cap_override, set_launch_cache_override, CacheTotals,
    LaunchCache,
};
use acceval_ir::kernel::{axis, axis_from, Expansion, KernelPlan, MemSpace};
use acceval_ir::program::{DataSet, HostData, Program};
use acceval_ir::types::{ArrayId, ReduceOp, Value, VarRef};
use acceval_sim::{Buffer, DeviceConfig, ElemType, RecordingSink, TraceEvent, TraceSink};
use common::{assert_states_bit_equal, buffers_bit_equal, dna_kernel, finalized, fixture, GENES};
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

type State = (DeviceState, Vec<Value>, LaunchResult);

/// Launch `plan` on `eng` from a fresh device/scalar state.
fn run_one(p: &Program, ds: &DataSet, plan: &KernelPlan, eng: Engine) -> State {
    run_without(p, ds, plan, eng, None)
}

/// [`run_one`] on a device holding every array except `absent`.
fn run_without(p: &Program, ds: &DataSet, plan: &KernelPlan, eng: Engine, absent: Option<ArrayId>) -> State {
    let cfg = DeviceConfig::tesla_m2090();
    let (mut dev, mut scal) = state_without(p, ds, &cfg, absent);
    let r = launch_with_engine(p, plan, &mut dev, &mut scal, &cfg, eng);
    (dev, scal, r)
}

/// [`run_without`] into a recording sink: the state and the events.
fn record_without(
    p: &Program,
    ds: &DataSet,
    plan: &KernelPlan,
    eng: Engine,
    absent: Option<ArrayId>,
) -> (State, Vec<TraceEvent>) {
    let cfg = DeviceConfig::tesla_m2090();
    let (mut dev, mut scal) = state_without(p, ds, &cfg, absent);
    let mut sink = RecordingSink::new();
    let r = launch_traced_with_engine(p, plan, &mut dev, &mut scal, &cfg, &mut sink, eng);
    ((dev, scal, r), sink.take())
}

/// A fresh device holding every array except `absent`, and the dataset's
/// scalar environment.
fn state_without(p: &Program, ds: &DataSet, cfg: &DeviceConfig, absent: Option<ArrayId>) -> (DeviceState, Vec<Value>) {
    let host = HostData::materialize(p, ds);
    let mut dev = DeviceState::new(p, cfg);
    for (k, b) in host.bufs.iter().enumerate() {
        if Some(ArrayId(k as u32)) != absent {
            dev.upload(ArrayId(k as u32), b);
        }
    }
    (dev, env_from_dataset(p, ds))
}

/// Cold (cache off), capture (first run, cache on), and replay (second run,
/// cache on) must be indistinguishable bit-for-bit; the replay must score a
/// real hit, the capture a real miss. A third launch into a recording sink
/// must hit the same entry and record the events of a cache-off launch
/// into a recording sink. Returns the captured entry's resident bytes.
fn assert_cache_transparent(p: &Program, ds: &DataSet, plan: &KernelPlan, eng: Engine) -> u64 {
    assert_cache_transparent_without(p, ds, plan, eng, None)
}

/// [`assert_cache_transparent`] on devices holding every array except
/// `absent`. The capture must also leave every written buffer's memoized
/// digest equal to a from-scratch re-hash.
fn assert_cache_transparent_without(
    p: &Program,
    ds: &DataSet,
    plan: &KernelPlan,
    eng: Engine,
    absent: Option<ArrayId>,
) -> u64 {
    let cold = with_cache(LaunchCache::Off, || run_without(p, ds, plan, eng, absent));
    let (_, cold_events) = with_cache(LaunchCache::Off, || record_without(p, ds, plan, eng, absent));
    let (capture, replay, dh, dm, resident, recorded, rh, rm) = with_cache(LaunchCache::On, || {
        let t0 = launch_cache_totals();
        let a = run_without(p, ds, plan, eng, absent);
        let resident = launch_cache_totals().resident_bytes;
        let b = run_without(p, ds, plan, eng, absent);
        let t1 = launch_cache_totals();
        let c = record_without(p, ds, plan, eng, absent);
        let t2 = launch_cache_totals();
        (a, b, t1.hits - t0.hits, t1.misses - t0.misses, resident, c, t2.hits - t1.hits, t2.misses - t1.misses)
    });
    assert_eq!(dm, 1, "kernel {}: first launch must miss and capture", plan.name);
    assert_eq!(dh, 1, "kernel {}: warm re-launch must hit", plan.name);
    assert_states_bit_equal(&format!("kernel {} capture vs cold", plan.name), &capture, &cold);
    assert_states_bit_equal(&format!("kernel {} replay vs cold", plan.name), &replay, &cold);
    assert_eq!((rh, rm), (1, 0), "kernel {}: a recorded launch must replay the unrecorded capture", plan.name);
    assert_states_bit_equal(&format!("kernel {} recorded replay vs cold", plan.name), &recorded.0, &cold);
    assert!(!cold_events.is_empty(), "kernel {}: a recorded launch emits events", plan.name);
    assert_eq!(recorded.1, cold_events, "kernel {}: a replay must record the cache-off launch's events", plan.name);
    let host = HostData::materialize(p, ds);
    let dev = &capture.0;
    for (i, buf) in dev.bufs.iter().enumerate() {
        let Some(buf) = buf else { continue };
        let memo = dev.tags[i].memoized();
        let uploaded = Some(ArrayId(i as u32)) != absent;
        if !uploaded || !buffers_bit_equal(buf, &host.bufs[i]) {
            assert!(memo.is_some(), "kernel {}: written buffer {i} has no memoized digest", plan.name);
        }
        if let Some(d) = memo {
            assert_eq!(d, buf.content_digest(), "kernel {}: buffer {i}'s memoized digest is stale", plan.name);
        }
    }
    resident
}

fn stream_plan(p: &Program) -> KernelPlan {
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * 2.0 + ld(x, vec![(v(i) + 7i64) % v(n)]))];
    finalized(KernelPlan::new("stream", vec![axis(i, v(n))], body))
}

/// Records the launch cache's entry count at each `KernelLaunch` event.
struct EntriesAtLaunch(Vec<u64>);

impl TraceSink for EntriesAtLaunch {
    fn enabled(&self) -> bool {
        true
    }
    fn emit(&mut self, e: TraceEvent) {
        if matches!(e, TraceEvent::KernelLaunch { .. }) {
            self.0.push(launch_cache_totals().entries);
        }
    }
}

/// A missed launch emits its `KernelLaunch` event only after it has captured
/// and inserted its effect, so a sink that times launches by their events
/// charges the capture to the launch.
#[test]
fn missed_launch_event_follows_capture() {
    let (p, ds) = fixture(200);
    let plan = stream_plan(&p);
    let cfg = DeviceConfig::tesla_m2090();
    for eng in [Engine::Tree, Engine::Bytecode] {
        let (misses, seen) = with_cache(LaunchCache::On, || {
            let host = HostData::materialize(&p, &ds);
            let mut dev = DeviceState::new(&p, &cfg);
            upload_all(&p, &mut dev, &host);
            let mut scal = env_from_dataset(&p, &ds);
            let mut sink = EntriesAtLaunch(Vec::new());
            let t0 = launch_cache_totals();
            launch_traced_with_engine(&p, &plan, &mut dev, &mut scal, &cfg, &mut sink, eng);
            (launch_cache_totals().misses - t0.misses, sink.0)
        });
        assert_eq!(misses, 1, "{eng:?}: the first launch must miss");
        assert_eq!(seen, vec![1], "{eng:?}: the capture must be in the cache when KernelLaunch arrives");
    }
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
        let k = finalized(KernelPlan::new("red", vec![axis(i, v(n))], body).with_reduction(op, VarRef::Scalar(s)));
        assert_cache_transparent(&p, &ds, &k, Engine::Bytecode);
        assert_cache_transparent(&p, &ds, &k, Engine::Tree);
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

/// Launch `plan` twice from identical fresh states under `policy`, on both
/// engines: the probe must leave memory hits, disk hits, misses and
/// resident entries untouched, and both launches must match a cache-off
/// launch bit for bit.
fn assert_never_cached(p: &Program, ds: &DataSet, plan: &KernelPlan, policy: LaunchCache) {
    let counts = |t: &CacheTotals| (t.hits, t.disk_hits, t.misses, t.entries, t.resident_bytes);
    for eng in [Engine::Bytecode, Engine::Tree] {
        let cold = with_cache(LaunchCache::Off, || run_one(p, ds, plan, eng));
        let (runs, before, after) = with_cache(policy, || {
            let t0 = launch_cache_totals();
            let runs = [run_one(p, ds, plan, eng), run_one(p, ds, plan, eng)];
            (runs, t0, launch_cache_totals())
        });
        assert_eq!(counts(&after), counts(&before), "kernel {} on {eng:?}: the cache must not be touched", plan.name);
        for (k, run) in runs.iter().enumerate() {
            assert_states_bit_equal(&format!("kernel {} on {eng:?}, launch {k} vs cache off", plan.name), run, &cold);
        }
    }
}

/// A body that reads a `Texture`-placed array always executes: the texture
/// cache carries lines from one launch to the next, which the key cannot
/// cover.
#[test]
fn texture_reads_are_never_cached() {
    let (p, ds) = fixture(900);
    let x = p.array_named("x");
    let plan = stream_plan(&p).with_placement(x, MemSpace::Texture);
    assert_never_cached(&p, &ds, &finalized(plan), LaunchCache::On);
}

/// A body with a `Call` always executes: the body walk cannot bound a
/// call's effects.
#[test]
fn call_bodies_are_never_cached() {
    let mut pb = ProgramBuilder::new("calls");
    let n = pb.iscalar("n");
    let i = pb.iscalar("i");
    let a = pb.iscalar("a");
    let t = pb.fscalar("t");
    let x = pb.farray("x", vec![v(n)]);
    let y = pb.farray("y", vec![v(n)]);
    let f = pb.func("sq", vec![a], vec![], vec![assign(t, (v(a) * v(a)).to_f() + 0.5)]);
    pb.main(vec![]);
    let p = pb.build();
    let xs = Buffer::from_f64(ElemType::F64, (0..300).map(|k| k as f64 * 0.5).collect());
    let ds = DataSet { scalars: vec![(n, Value::I(300))], arrays: vec![(x, xs)], label: "calls".into() };
    let body = vec![call(f, vec![v(i)], vec![]), store(y, vec![v(i)], v(t) + ld(x, vec![v(i)]))];
    let plan = finalized(KernelPlan::new("call", vec![axis(i, v(n))], body));
    assert_never_cached(&p, &ds, &plan, LaunchCache::On);
}

/// With the cache off, a cacheable body probes nothing and stores nothing.
#[test]
fn cache_off_launches_are_never_cached() {
    let (p, ds) = fixture(900);
    assert_never_cached(&p, &ds, &stream_plan(&p), LaunchCache::Off);
}

/// Bytes of `len` f64 elements: a dense capture of a buffer that long
/// holds at least this much, and a sparse one of fewer than half its
/// elements (16 bytes each) less.
fn dense_bytes(len: usize) -> u64 {
    (len * std::mem::size_of::<f64>()) as u64
}

/// A store to every fifth element of `y`: the journal holds exactly the
/// written elements, and they form a sparse delta.
#[test]
fn strided_store_captures_sparse() {
    let (p, ds) = fixture(3000);
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * 3.0)];
    let plan = finalized(KernelPlan::new("strided", vec![axis_from(i, 0i64.into(), 600i64.into(), 5i64.into())], body));
    for eng in [Engine::Bytecode, Engine::Tree] {
        let resident = assert_cache_transparent(&p, &ds, &plan, eng);
        assert!(resident < dense_bytes(3000), "{eng:?}: 600 changed elements of 3000 must capture sparse");
    }
}

/// Rewriting elements with the bits they already hold journals them, but
/// only the elements whose bits changed enter the delta and the digest.
#[test]
fn unchanged_rewrites_stay_out_of_the_delta() {
    let (p, ds) = fixture(2000);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    // Every element of `y` and `x` is stored; one `y` element in seven
    // changes, and `x` keeps its bits everywhere.
    let body = vec![
        store(y, vec![v(i)], (v(i) % 7i64).eq_(0i64).select(ld(x, vec![v(i)]), ld(y, vec![v(i)]))),
        store(x, vec![v(i)], ld(x, vec![v(i)])),
    ];
    let plan = finalized(KernelPlan::new("rewrite", vec![axis(i, v(n))], body));
    for eng in [Engine::Bytecode, Engine::Tree] {
        let resident = assert_cache_transparent(&p, &ds, &plan, eng);
        assert!(resident < dense_bytes(2000), "{eng:?}: 286 changed elements of 2000 must capture sparse");
    }
}

/// Many lanes store the same elements of `q` (a hazard, so the body runs
/// lane by lane), and each thread stores its `y` element twice, the second
/// time back to the value it held: the journal keeps each element's first
/// pre-launch bits only.
#[test]
fn repeated_stores_journal_the_first_write() {
    let (p, ds) = fixture(1000);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let q = p.array_named("q");
    let body = vec![
        store(q, vec![v(i) % 2i64], ld(x, vec![v(i)]) + v(i).to_f()),
        store(y, vec![v(i)], ld(x, vec![v(i)])),
        store(y, vec![v(i)], 0.0),
    ];
    let plan = finalized(KernelPlan::new("repeat", vec![axis(i, v(n))], body));
    for eng in [Engine::Bytecode, Engine::Tree] {
        let resident = assert_cache_transparent(&p, &ds, &plan, eng);
        assert!(resident < dense_bytes(1000), "{eng:?}: no changed element of y may capture dense");
    }
}

/// An 8-bin histogram reduced through a private array.
fn histogram_plan(p: &Program) -> KernelPlan {
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let q = p.array_named("q");
    let body = vec![store(q, vec![v(i) % 8i64], ld(q, vec![v(i) % 8i64]) + ld(x, vec![v(i)]))];
    finalized(
        KernelPlan::new("hist", vec![axis(i, v(n))], body)
            .with_private(q, Expansion::Register)
            .with_reduction(ReduceOp::Add, VarRef::Array(q)),
    )
}

/// An array reduction combines into the resident device copy of its
/// target through the journal.
#[test]
fn array_reduction_into_resident_target_replays() {
    let (p, ds) = fixture(1500);
    let plan = histogram_plan(&p);
    assert_cache_transparent(&p, &ds, &plan, Engine::Bytecode);
    assert_cache_transparent(&p, &ds, &plan, Engine::Tree);
}

/// A reduction target that was never uploaded is allocated by the launch
/// itself: nothing to diff against, so it is copied and hashed whole.
#[test]
fn array_reduction_into_launch_allocated_target_replays() {
    let (p, ds) = fixture(1500);
    let plan = histogram_plan(&p);
    let q = p.array_named("q");
    assert_cache_transparent_without(&p, &ds, &plan, Engine::Bytecode, Some(q));
    assert_cache_transparent_without(&p, &ds, &plan, Engine::Tree, Some(q));
}

/// Changing more than a quarter of an array's elements (plus one) captures
/// a dense copy instead of a delta (a third of them here, so the delta
/// would be smaller than the copy).
#[test]
fn dense_rewrite_captures_full_copy() {
    let (p, ds) = fixture(2400);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![iff((v(i) % 3i64).eq_(0i64), vec![store(y, vec![v(i)], ld(x, vec![v(i)]) - 0.5)])];
    let plan = finalized(KernelPlan::new("dense", vec![axis(i, v(n))], body));
    for eng in [Engine::Bytecode, Engine::Tree] {
        let resident = assert_cache_transparent(&p, &ds, &plan, eng);
        assert!(resident >= dense_bytes(2400), "{eng:?}: 800 changed elements of 2400 must capture dense");
    }
}

/// Under a tiny byte cap the store evicts least-recently-used entries, one
/// at a time in recency order: each evicted key re-misses, recently used
/// keys still hit, and the resident footprint stays bounded.
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
    with_cache(LaunchCache::On, || {
        let (a, b, c) = (&plan_k(1.5, "a"), &plan_k(2.5, "b"), &plan_k(3.5, "c"));
        let (d, e) = (&plan_k(4.5, "d"), &plan_k(5.5, "e"));
        // The effects are shape-identical (a dense 64-element f64 rewrite),
        // so measure one entry's honest resident footprint and set a cap
        // that fits three entries but not four.
        let _ = run_one(&p, &ds, a, Engine::Bytecode);
        let per_entry = launch_cache_totals().resident_bytes;
        assert!(per_entry > 0, "one cached effect must have a nonzero footprint");
        let cap = per_entry * 7 / 2;
        clear_launch_cache();
        set_launch_cache_cap_override(Some(cap));
        // Run `plan` and report (hits, misses, evictions) it scored.
        let run = |plan: &KernelPlan| {
            let t0 = launch_cache_totals();
            let _ = run_one(&p, &ds, plan, Engine::Bytecode);
            let t1 = launch_cache_totals();
            assert!(t1.resident_bytes <= cap, "resident bytes ({}) must stay under the cap ({cap})", t1.resident_bytes);
            (t1.hits - t0.hits, t1.misses - t0.misses, t1.evictions - t0.evictions)
        };
        const HIT: (u64, u64, u64) = (1, 0, 0);
        const MISS: (u64, u64, u64) = (0, 1, 0);
        const MISS_EVICT: (u64, u64, u64) = (0, 1, 1);
        // Recency order after each step, oldest first, in the comments.
        assert_eq!(run(a), MISS); // a
        assert_eq!(run(b), MISS); // a b
        assert_eq!(run(c), MISS); // a b c
        assert_eq!(run(a), HIT, "a is resident"); // b c a
        assert_eq!(run(d), MISS_EVICT, "d evicts b"); // c a d
        assert_eq!(run(c), HIT, "c survived"); // a d c
        assert_eq!(run(e), MISS_EVICT, "e evicts a"); // d c e
        assert_eq!(run(d), HIT, "d survived"); // c e d
        assert_eq!(run(b), MISS_EVICT, "b was evicted first; it evicts c"); // e d b
        assert_eq!(run(a), MISS_EVICT, "a was evicted second; it evicts e"); // d b a
        assert_eq!(run(c), MISS_EVICT, "c was evicted third; it evicts d"); // b a c
        assert_eq!(run(b), HIT, "b is resident again"); // a c b
    });
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
