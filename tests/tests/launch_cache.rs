//! Sweep-level determinism for launch memoization: with
//! `ACCEVAL_LAUNCH_CACHE=on`, every artifact — the Figure 1 CSV and the
//! Chrome trace behind `results/profile_*.json` — must be byte-identical to
//! the cache-off run, at any worker count. The cache is a speed knob, never
//! a results knob.

use std::sync::Mutex;

use acceval::benchmarks::{benchmark_named, Scale};
use acceval::figures::figure1;
use acceval::ir::interp::launch_cache::{
    clear_launch_cache, launch_cache_totals, set_launch_cache_override, LaunchCache,
};
use acceval::models::ModelKind;
use acceval::profile::chrome_trace;
use acceval::report::figure1_csv;
use acceval::sim::{MachineConfig, RecordingSink};
use acceval::sweep::{cached_compile, cached_dataset, cached_oracle};

/// The cache override, its store, and `RAYON_NUM_THREADS` are
/// process-global; serialize the tests that flip them.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the launch cache pinned to `policy` at `threads` workers
/// from a cold cache, restoring the defaults on exit (also on panic, so one
/// failing test can't poison the setting for the others).
fn with_cache<T>(policy: LaunchCache, threads: usize, f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            set_launch_cache_override(None);
            std::env::remove_var("RAYON_NUM_THREADS");
            clear_launch_cache();
        }
    }
    let _guard = CACHE_LOCK.lock().unwrap();
    let _reset = Reset;
    clear_launch_cache();
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    set_launch_cache_override(Some(policy));
    f()
}

/// The full Figure 1 sweep (tuning on) renders to a byte-identical CSV with
/// the cache off and on at 1, 2, and 8 workers — and the cache genuinely
/// engages (the tuning sweep repeats most launches).
#[test]
fn figure1_csv_is_cache_independent() {
    let cfg = MachineConfig::keeneland_node();
    let baseline = with_cache(LaunchCache::Off, 1, || figure1_csv(&figure1(&cfg, Scale::Test, true)));
    for threads in [1usize, 2, 8] {
        let (cached, hits) = with_cache(LaunchCache::On, threads, || {
            let t0 = launch_cache_totals();
            let csv = figure1_csv(&figure1(&cfg, Scale::Test, true));
            (csv, launch_cache_totals().hits - t0.hits)
        });
        assert_eq!(baseline, cached, "figure1.csv must be byte-identical with the launch cache at {threads} workers");
        assert!(hits > 0, "the tuning sweep must score launch-cache hits at {threads} workers");
    }
}

/// A profiled single run emits the same Chrome trace (every span, transfer,
/// kernel cost, and coalescing evidence event) and bit-identical scores with
/// the cache off and on — including warm replays, which render their events
/// from the captured site evidence. An unprofiled warm-up run captures every
/// launch first: whether a sink listened is no part of a launch's key, so
/// the first profiled run replays them all without a miss.
#[test]
fn run_profile_is_cache_independent() {
    let cfg = MachineConfig::keeneland_node();
    let b = benchmark_named("jacobi").expect("jacobi exists");
    // Each profiled run's (trace, seconds bits, speedup bits, hits, misses),
    // after an unprofiled warm-up run when `warm_up` is set.
    let traces_under = |policy: LaunchCache, threads: usize, warm_up: bool, repeats: usize| {
        with_cache(policy, threads, || {
            let ds = cached_dataset(b.as_ref(), Scale::Test);
            let oracle = cached_oracle(b.as_ref(), Scale::Test, &cfg);
            let compiled = cached_compile(b.as_ref(), ModelKind::ManualCuda, Scale::Test, None);
            if warm_up {
                let run = acceval::run_compiled(b.as_ref(), &compiled, &ds, &cfg, &oracle.run);
                assert!(run.valid.is_ok(), "jacobi must validate: {:?}", run.valid);
            }
            (0..repeats)
                .map(|_| {
                    let t0 = launch_cache_totals();
                    let mut sink = RecordingSink::new();
                    let run = acceval::run_compiled_traced(b.as_ref(), &compiled, &ds, &cfg, &oracle.run, &mut sink);
                    assert!(run.valid.is_ok(), "jacobi must validate: {:?}", run.valid);
                    let t1 = launch_cache_totals();
                    let trace = chrome_trace(&sink.take());
                    (trace, run.secs.to_bits(), run.speedup.to_bits(), t1.hits - t0.hits, t1.misses - t0.misses)
                })
                .collect::<Vec<_>>()
        })
    };
    let (bt, bs, bsp, _, _) = traces_under(LaunchCache::Off, 1, false, 1).remove(0);
    for threads in [1usize, 2, 8] {
        // The first profiled run replays the warm-up's captures; the second
        // replays from the same entries again.
        let runs = traces_under(LaunchCache::On, threads, true, 2);
        let (hits, misses) = (runs[0].3, runs[0].4);
        assert!(hits > 0, "the first profiled run must replay the warm-up's captures at {threads} workers");
        assert_eq!(misses, 0, "the first profiled run must not miss after the warm-up at {threads} workers");
        for (k, (ct, cs, csp, _, _)) in runs.into_iter().enumerate() {
            assert_eq!(bs, cs, "simulated seconds must be bit-identical under the cache at {threads} workers, run {k}");
            assert_eq!(bsp, csp, "speedup must be bit-identical under the cache at {threads} workers, run {k}");
            assert_eq!(bt, ct, "chrome trace must be byte-identical under the cache at {threads} workers, run {k}");
        }
    }
}
