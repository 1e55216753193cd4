//! Sweep-level determinism for the optimizer: it runs on every kernel the
//! default engine executes, as the pipeline stage between bytecode
//! compilation and typed lowering, while the tree walker never sees it. So
//! every artifact — the Figure 1 CSV and the Chrome trace behind
//! `results/profile_*.json` — must be byte-identical between the two at 1
//! and 8 workers, and the comparison must cover kernels that really went
//! through the optimizer. The optimizer is a speed stage, never a results
//! stage.

mod common;

use acceval::benchmarks::{benchmark_named, Scale};
use acceval::figures::figure1_with_manifest;
use acceval::ir::interp::gpu::Engine;
use acceval::ir::interp::launch_cache::LaunchCache;
use acceval::models::ModelKind;
use acceval::report::figure1_csv;
use acceval::sim::MachineConfig;
use acceval::sweep::cached_compile;
use common::{profile_jacobi, with_config};

/// The full Figure 1 sweep (tuning on) renders to a byte-identical CSV on
/// the unoptimized reference and on the optimized pipeline. The one-worker
/// pass runs with the launch cache off, so every kernel it touches executes
/// and is optimized (once per plan per process).
#[test]
fn figure1_csv_is_opt_independent() {
    let cfg = MachineConfig::keeneland_node();
    let sweep = || {
        let (fig, manifest) = figure1_with_manifest(&cfg, Scale::Test, true);
        (figure1_csv(&fig), manifest)
    };
    let (reference, manifest) = with_config(Engine::Tree, 1, LaunchCache::On, sweep);
    assert_eq!(manifest.opt_kernels, 0, "the tree walker must not run the optimizer");
    let mut optimized_kernels = 0;
    for (threads, cache) in [(1usize, LaunchCache::Off), (8, LaunchCache::On)] {
        let (csv, manifest) = with_config(Engine::Bytecode, threads, cache, sweep);
        assert_eq!(
            reference, csv,
            "figure1.csv must be byte-identical with and without the optimizer ({threads} workers, cache {cache:?})"
        );
        optimized_kernels += manifest.opt_kernels;
    }
    assert!(optimized_kernels > 0, "the optimized passes must optimize the sweep's kernels");
}

/// A profiled single run emits the same Chrome trace (every span, transfer,
/// kernel cost, and coalescing evidence event) and bit-identical scores
/// with and without the optimizer, and the JACOBI kernels it optimized all
/// reached the typed lowering.
#[test]
fn run_profile_is_opt_independent() {
    let cfg = MachineConfig::keeneland_node();
    let profiled = || profile_jacobi(&cfg);
    let (tt, ts, tsp) = with_config(Engine::Tree, 1, LaunchCache::On, profiled);
    for threads in [1usize, 8] {
        let (ot, os, osp) = with_config(Engine::Bytecode, threads, LaunchCache::Off, profiled);
        let at = format!("at {threads} workers");
        assert_eq!(ts, os, "simulated seconds must be bit-identical with and without the optimizer {at}");
        assert_eq!(tsp, osp, "speedup must be bit-identical with and without the optimizer {at}");
        assert_eq!(tt, ot, "chrome trace must be byte-identical with and without the optimizer {at}");
    }
    let b = benchmark_named("jacobi").expect("jacobi exists");
    let compiled = cached_compile(b.as_ref(), ModelKind::ManualCuda, Scale::Test, None);
    let stats: Vec<_> = compiled.kernels.values().flatten().filter_map(|k| k.engine_cache.opt_stats()).collect();
    assert!(!stats.is_empty(), "the optimized runs must optimize jacobi's kernels");
    assert!(stats.iter().all(|s| s.typed), "every optimized jacobi kernel must reach the typed lowering: {stats:?}");
}
