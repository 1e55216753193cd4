//! Sweep-level determinism for intra-launch block parallelism: with
//! `ACCEVAL_LAUNCH_PAR=on`, every artifact — the Figure 1 CSV and the
//! Chrome trace behind `results/profile_*.json` — must be byte-identical
//! across worker counts, and identical to the serial (`off`) run. The
//! setting is a speed knob, never a results knob.
//!
//! Launch-cache keys carry no schedule, so every pass runs with the launch
//! cache and the persistent store off: a chunked pass must execute its
//! launches, not replay the serial pass's captures.

use std::sync::Mutex;

use acceval::benchmarks::{benchmark_named, Scale};
use acceval::figures::figure1_with_manifest;
use acceval::ir::env::StoreMode;
use acceval::ir::interp::gpu::{set_launch_par_override, LaunchPar};
use acceval::ir::interp::launch_cache::{clear_launch_cache, set_launch_cache_override, LaunchCache};
use acceval::ir::interp::store::set_store_override;
use acceval::models::ModelKind;
use acceval::profile::chrome_trace;
use acceval::report::figure1_csv;
use acceval::sim::{MachineConfig, RecordingSink};
use acceval::sweep::{cached_compile, cached_dataset, cached_oracle};

/// The parallelism override and `RAYON_NUM_THREADS` are process-global;
/// serialize the tests that flip them.
static PAR_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with intra-launch parallelism pinned to `par` at `threads`
/// workers, with the launch cache and the persistent store off and the
/// in-memory cache empty, restoring the defaults on exit (also on panic, so
/// one failing test can't poison the setting for the others).
fn with_par<T>(par: LaunchPar, threads: usize, f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            set_launch_par_override(None);
            set_launch_cache_override(None);
            set_store_override(None);
            clear_launch_cache();
            std::env::remove_var("RAYON_NUM_THREADS");
        }
    }
    let _guard = PAR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    set_launch_par_override(Some(par));
    set_launch_cache_override(Some(LaunchCache::Off));
    set_store_override(Some(StoreMode::Off));
    clear_launch_cache();
    f()
}

/// The full Figure 1 sweep (tuning on) renders to a byte-identical CSV
/// serially and chunked at 1, 2, and 8 workers, and the chunked passes
/// execute every launch (no memory or disk hits).
#[test]
fn figure1_csv_is_worker_count_independent() {
    let cfg = MachineConfig::keeneland_node();
    let sweep = || {
        let (fig, manifest) = figure1_with_manifest(&cfg, Scale::Test, true);
        (figure1_csv(&fig), manifest)
    };
    let (serial, _) = with_par(LaunchPar::Off, 1, sweep);
    for threads in [1usize, 2, 8] {
        let (par, manifest) = with_par(LaunchPar::On, threads, sweep);
        assert_eq!(serial, par, "figure1.csv must be byte-identical with launch parallelism at {threads} workers");
        assert_eq!(
            (manifest.launch_cache_hits, manifest.launch_cache_disk_hits),
            (0, 0),
            "the chunked pass at {threads} workers must execute its launches, not replay captures"
        );
    }
}

/// A profiled single run emits the same Chrome trace (the payload of
/// `results/profile_*.json`: every span, transfer, kernel cost, and
/// coalescing evidence event) and bit-identical scores serially and
/// chunked at 1, 2, and 8 workers.
#[test]
fn run_profile_is_worker_count_independent() {
    let cfg = MachineConfig::keeneland_node();
    let b = benchmark_named("jacobi").expect("jacobi exists");
    let trace_under = |par: LaunchPar, threads: usize| {
        with_par(par, threads, || {
            let ds = cached_dataset(b.as_ref(), Scale::Test);
            let oracle = cached_oracle(b.as_ref(), Scale::Test, &cfg);
            let compiled = cached_compile(b.as_ref(), ModelKind::ManualCuda, Scale::Test, None);
            let mut sink = RecordingSink::new();
            let run = acceval::run_compiled_traced(b.as_ref(), &compiled, &ds, &cfg, &oracle.run, &mut sink);
            assert!(run.valid.is_ok(), "jacobi must validate: {:?}", run.valid);
            (chrome_trace(&sink.take()), run.secs.to_bits(), run.speedup.to_bits())
        })
    };
    let (st, ss, ssp) = trace_under(LaunchPar::Off, 1);
    for threads in [1usize, 2, 8] {
        let (pt, ps, psp) = trace_under(LaunchPar::On, threads);
        assert_eq!(ss, ps, "simulated seconds must be bit-identical at {threads} workers");
        assert_eq!(ssp, psp, "speedup must be bit-identical at {threads} workers");
        assert_eq!(st, pt, "chrome trace must be byte-identical at {threads} workers");
    }
}
