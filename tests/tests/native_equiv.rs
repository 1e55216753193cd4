//! Sweep-level tier attribution for the native closures: the default
//! engine must run every launch of the Test-scale Figure 1 sweep that
//! executes (every launch not replayed from the launch cache) on the
//! closures, with no tree fallbacks, and every artifact — the Figure 1 CSV
//! and the Chrome trace behind `results/profile_*.json` — must stay
//! byte-identical to the tree walker's at 1 and 8 workers. The tree walker
//! counts in neither column.

mod common;

use acceval::benchmarks::Scale;
use acceval::figures::figure1_with_manifest;
use acceval::ir::interp::gpu::Engine;
use acceval::ir::interp::launch_cache::LaunchCache;
use acceval::ir::metrics::{Counter, Counters};
use acceval::report::figure1_csv;
use acceval::sim::MachineConfig;
use acceval::sweep::SweepManifest;
use common::{profile_jacobi, with_config};

/// Assert every task of `m` attributed each launch it executed to `eng`'s
/// tier: all to the closures under the default engine, none under the tree.
/// Replays execute nothing and count in neither column.
fn assert_attributed(m: &SweepManifest, eng: Engine, at: &str) {
    for r in &m.records {
        let c = &r.counters;
        let executed =
            r.summary.kernels_launched - c.get(Counter::LaunchCacheHits) - c.get(Counter::LaunchCacheDiskHits);
        let expect = if eng == Engine::Tree { (0, 0) } else { (executed, 0) };
        assert_eq!(
            (c.get(Counter::EngineNativeLaunches), c.get(Counter::EngineTreeFallbacks)),
            expect,
            "{} / {:?}: (native launches, tree fallbacks) of {executed} executed launches under {eng:?} {at}",
            r.benchmark,
            r.model
        );
    }
    assert!(
        eng == Engine::Tree || m.counters.get(Counter::EngineNativeLaunches) > 0,
        "the default engine must launch natively {at}"
    );
}

/// The full Figure 1 sweep (tuning on) renders to a byte-identical CSV on
/// the tree walker and on the closures, and each task's launches are
/// attributed to the tier that ran them: with the launch cache off at one
/// worker (every launch executes) and on at eight.
#[test]
fn figure1_csv_is_tier_independent() {
    let cfg = MachineConfig::keeneland_node();
    let sweep = || {
        let (fig, manifest) = figure1_with_manifest(&cfg, Scale::Test, true);
        (figure1_csv(&fig), manifest)
    };
    let (tree, manifest) = with_config(Engine::Tree, 1, LaunchCache::On, sweep);
    assert_attributed(&manifest, Engine::Tree, "(1 worker, cache on)");
    for (threads, cache) in [(1usize, LaunchCache::Off), (8, LaunchCache::On)] {
        let (csv, manifest) = with_config(Engine::Bytecode, threads, cache, sweep);
        let at = format!("({threads} workers, cache {cache:?})");
        assert_attributed(&manifest, Engine::Bytecode, &at);
        assert_eq!(tree, csv, "figure1.csv must be byte-identical on both tiers {at}");
    }
}

/// A profiled single run emits the same Chrome trace (every span, transfer,
/// kernel cost, and coalescing evidence event) and bit-identical scores on
/// both tiers, and its launches run on the closures.
#[test]
fn run_profile_is_tier_independent() {
    let cfg = MachineConfig::keeneland_node();
    let counted = |eng: Engine, threads: usize| {
        with_config(eng, threads, LaunchCache::Off, || {
            let before = Counters::thread();
            let run = profile_jacobi(&cfg);
            let d = Counters::thread().since(&before);
            (run, (d.get(Counter::EngineNativeLaunches), d.get(Counter::EngineTreeFallbacks)))
        })
    };
    let ((tt, ts, tsp), tree_counts) = counted(Engine::Tree, 1);
    assert_eq!(tree_counts, (0, 0), "the tree walker counts as neither tier");
    for threads in [1usize, 8] {
        let ((nt, ns, nsp), (launches, fallbacks)) = counted(Engine::Bytecode, threads);
        let at = format!("at {threads} workers");
        assert!(launches > 0, "jacobi must launch natively {at}");
        assert_eq!(fallbacks, 0, "jacobi must not fall back to the tree walker {at}");
        assert_eq!(ts, ns, "simulated seconds must be bit-identical on both tiers {at}");
        assert_eq!(tsp, nsp, "speedup must be bit-identical on both tiers {at}");
        assert_eq!(tt, nt, "chrome trace must be byte-identical on both tiers {at}");
    }
}
