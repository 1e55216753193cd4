//! Sweep-level determinism for the typed lowering: every kernel the default
//! engine executes is compiled to typed bytecode and built into closures,
//! while the tree walker never sees either. So every artifact — the Figure 1
//! CSV and the Chrome trace behind `results/profile_*.json` — must be
//! byte-identical between the two at 1 and 8 workers, and the comparison
//! must cover kernels that really went through the lowering. The lowering is
//! a speed stage, never a results stage, and it accepts every plan of the
//! paper-scale sweep.

mod common;

use std::collections::HashSet;

use acceval::benchmarks::{all_benchmarks, benchmark_named, Benchmark, Scale};
use acceval::figures::figure1_with_manifest;
use acceval::ir::interp::gpu::Engine;
use acceval::ir::interp::launch_cache::LaunchCache;
use acceval::ir::kernel::CompileOutcome;
use acceval::ir::metrics::Counter;
use acceval::models::ModelKind;
use acceval::report::figure1_csv;
use acceval::sim::MachineConfig;
use acceval::sweep::{cached_compile, enumerate_tasks};
use common::{profile_jacobi, with_config};

/// The full Figure 1 sweep (tuning on) renders to a byte-identical CSV on
/// the tree walker and on the compiled pipeline. The one-worker pass runs
/// with the launch cache off, so every kernel it touches executes and is
/// lowered (once per plan per process).
#[test]
fn figure1_csv_is_opt_independent() {
    let cfg = MachineConfig::keeneland_node();
    let sweep = || {
        let (fig, manifest) = figure1_with_manifest(&cfg, Scale::Test, true);
        (figure1_csv(&fig), manifest)
    };
    let (reference, manifest) = with_config(Engine::Tree, 1, LaunchCache::On, sweep);
    assert_eq!(manifest.counters.get(Counter::CompileKernels), 0, "the tree walker must not run the typed lowering");
    let mut lowered_kernels = 0;
    for (threads, cache) in [(1usize, LaunchCache::Off), (8, LaunchCache::On)] {
        let (csv, manifest) = with_config(Engine::Bytecode, threads, cache, sweep);
        assert_eq!(
            reference, csv,
            "figure1.csv must be byte-identical with and without the typed lowering ({threads} workers, cache {cache:?})"
        );
        lowered_kernels += manifest.counters.get(Counter::CompileKernels);
    }
    assert!(lowered_kernels > 0, "the compiled passes must lower the sweep's kernels");
}

/// A profiled single run emits the same Chrome trace (every span, transfer,
/// kernel cost, and coalescing evidence event) and bit-identical scores
/// on the tree walker and on the compiled pipeline, and the JACOBI kernels
/// it compiled all compiled to typed bytecode.
#[test]
fn run_profile_is_opt_independent() {
    let cfg = MachineConfig::keeneland_node();
    let profiled = || profile_jacobi(&cfg);
    let (tt, ts, tsp) = with_config(Engine::Tree, 1, LaunchCache::On, profiled);
    for threads in [1usize, 8] {
        let (ot, os, osp) = with_config(Engine::Bytecode, threads, LaunchCache::Off, profiled);
        let at = format!("at {threads} workers");
        assert_eq!(ts, os, "simulated seconds must be bit-identical with and without the typed lowering {at}");
        assert_eq!(tsp, osp, "speedup must be bit-identical with and without the typed lowering {at}");
        assert_eq!(tt, ot, "chrome trace must be byte-identical with and without the typed lowering {at}");
    }
    let b = benchmark_named("jacobi").expect("jacobi exists");
    let compiled = cached_compile(b.as_ref(), ModelKind::ManualCuda, Scale::Test, None);
    let outcomes: Vec<_> = compiled.kernels.values().flatten().filter_map(|k| k.engine_cache.outcome()).collect();
    assert!(!outcomes.is_empty(), "the compiled runs must lower jacobi's kernels");
    assert!(
        outcomes.iter().all(|o| matches!(o, CompileOutcome::Compiled(_))),
        "every compiled jacobi kernel must compile to typed bytecode"
    );
}

/// Every distinct plan of the paper-scale Figure 1 sweep with tuning (429
/// tasks) compiles to typed bytecode: the compiler's typing rules and
/// register limits reject none of them. Each plan is compiled explicitly,
/// so the check holds whatever engine the process selects.
#[test]
fn every_paper_sweep_plan_compiles() {
    let benches = all_benchmarks();
    let benches: Vec<&dyn Benchmark> = benches.iter().map(|b| b.as_ref()).collect();
    let tasks = enumerate_tasks(&benches, true);
    assert_eq!(tasks.len(), 429, "tasks of the Figure 1 sweep with tuning");
    let mut plans = HashSet::new();
    let mut ineligible = Vec::new();
    for task in &tasks {
        let b = benches.iter().find(|b| b.spec().name == task.benchmark).expect("tasks name known benchmarks");
        let compiled = cached_compile(*b, task.model, Scale::Paper, task.tuning.as_ref());
        for plan in compiled.kernels.values().flatten() {
            let key =
                (task.benchmark.clone(), task.model.display(), plan.name.clone(), plan.engine_cache.fingerprint(plan));
            if !plans.insert(key) {
                continue;
            }
            plan.engine_cache.get_or_compile(&compiled.program, plan);
            if !matches!(plan.engine_cache.outcome(), Some(CompileOutcome::Compiled(_))) {
                ineligible.push(format!("{}/{}/{}", task.benchmark, task.model.display(), plan.name));
            }
        }
    }
    assert!(ineligible.is_empty(), "plans of the paper sweep the compiler rejects: {ineligible:?}");
    assert_eq!(plans.len(), 394, "distinct plans of the paper-scale sweep with tuning");
}
