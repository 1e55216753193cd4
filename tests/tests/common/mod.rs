//! Shared configuration guard and profiled run for the sweep-level
//! equivalence suites (`engine_equiv`, `native_equiv`, `opt_equiv`). Each
//! suite uses a subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use std::sync::Mutex;

use acceval::benchmarks::{benchmark_named, Scale};
use acceval::ir::env::StoreMode;
use acceval::ir::interp::gpu::{set_engine_override, Engine};
use acceval::ir::interp::launch_cache::{clear_launch_cache, set_launch_cache_override, LaunchCache};
use acceval::ir::interp::store::set_store_override;
use acceval::models::ModelKind;
use acceval::profile::chrome_trace;
use acceval::sim::{MachineConfig, RecordingSink};
use acceval::sweep::{cached_compile, cached_dataset, cached_oracle};

/// The engine, cache and store overrides and `RAYON_NUM_THREADS` are
/// process-global; serialize the tests that flip them.
static LOCK: Mutex<()> = Mutex::new(());

/// Run `f` on `eng` at `threads` workers under launch-cache policy `cache`,
/// starting from an empty in-memory cache, and restore the defaults on exit
/// (also on panic, so one failing test can't poison the others).
///
/// Launch-cache keys do not carry the engine, so the tree reference runs
/// with the persistent store off: no pass can replay an effect another
/// engine captured. Default-engine passes use whatever store the
/// environment configures.
pub fn with_config<T>(eng: Engine, threads: usize, cache: LaunchCache, f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            set_engine_override(None);
            set_launch_cache_override(None);
            set_store_override(None);
            clear_launch_cache();
            std::env::remove_var("RAYON_NUM_THREADS");
        }
    }
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reset = Reset;
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    set_engine_override(Some(eng));
    set_launch_cache_override(Some(cache));
    if eng == Engine::Tree {
        set_store_override(Some(StoreMode::Off));
    }
    clear_launch_cache();
    f()
}

/// A profiled Test-scale JACOBI run of the CUDA port: its Chrome trace and
/// the bits of its simulated seconds and speedup.
pub fn profile_jacobi(cfg: &MachineConfig) -> (String, u64, u64) {
    let b = benchmark_named("jacobi").expect("jacobi exists");
    let ds = cached_dataset(b.as_ref(), Scale::Test);
    let oracle = cached_oracle(b.as_ref(), Scale::Test, cfg);
    let compiled = cached_compile(b.as_ref(), ModelKind::ManualCuda, Scale::Test, None);
    let mut sink = RecordingSink::new();
    let run = acceval::run_compiled_traced(b.as_ref(), &compiled, &ds, cfg, &oracle.run, &mut sink);
    assert!(run.valid.is_ok(), "jacobi must validate: {:?}", run.valid);
    (chrome_trace(&sink.take()), run.secs.to_bits(), run.speedup.to_bits())
}
