//! Sweep-level determinism across worker counts: the Figure 1 sweep runs
//! its tasks in parallel, and the rendered CSV must be byte-identical
//! whether one worker or many ran them. Worker count is a speed knob,
//! never a results knob.
//!
//! The launch cache and the persistent store are off, so every pass
//! executes its launches instead of replaying an earlier pass's captures.

use acceval::benchmarks::Scale;
use acceval::figures::figure1_with_manifest;
use acceval::ir::env::StoreMode;
use acceval::ir::interp::launch_cache::{set_launch_cache_override, LaunchCache};
use acceval::ir::interp::store::set_store_override;
use acceval::ir::metrics::Counter;
use acceval::report::figure1_csv;
use acceval::sim::MachineConfig;

/// The full Figure 1 sweep (tuning on) renders to a byte-identical CSV at
/// 1, 2, and 8 sweep workers, and every pass executes its launches (no
/// memory or disk hits).
#[test]
fn figure1_csv_is_worker_count_independent() {
    set_launch_cache_override(Some(LaunchCache::Off));
    set_store_override(Some(StoreMode::Off));
    let cfg = MachineConfig::keeneland_node();
    let mut first: Option<String> = None;
    for threads in [1usize, 2, 8] {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let (fig, manifest) = figure1_with_manifest(&cfg, Scale::Test, true);
        assert_eq!(manifest.workers, threads, "the sweep must run at {threads} workers");
        assert_eq!(
            (manifest.counters.get(Counter::LaunchCacheHits), manifest.counters.get(Counter::LaunchCacheDiskHits)),
            (0, 0),
            "the pass at {threads} workers must execute its launches, not replay captures"
        );
        let csv = figure1_csv(&fig);
        match &first {
            None => first = Some(csv),
            Some(one) => assert_eq!(one, &csv, "figure1.csv must be byte-identical at {threads} sweep workers"),
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
