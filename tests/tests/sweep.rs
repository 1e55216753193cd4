//! The flat evaluation sweep: determinism under parallel scheduling, cache
//! behaviour, the sweep manifest, and exact agreement with the serial
//! single-run path.

use std::sync::Arc;

use acceval::benchmarks::{benchmark_named, BenchSpec, Benchmark, Port, Scale, Suite};
use acceval::figures::{figure1, figure1_subset};
use acceval::ir::builder::*;
use acceval::ir::expr::v;
use acceval::ir::metrics::Counters;
use acceval::ir::program::{DataSet, Program};
use acceval::ir::types::{ScalarId, Value};
use acceval::models::lower::HintMap;
use acceval::models::{model, ModelKind};
use acceval::sim::MachineConfig;
use acceval::sweep::{cached_compile, cached_oracle, run_sweep};

/// Two full parallel figure1 sweeps (tuning on) must serialize to identical
/// JSON: records are collected by task index and every cache is keyed by
/// value, so rayon's scheduling cannot leak into the output.
#[test]
fn figure1_with_tuning_is_deterministic() {
    let cfg = MachineConfig::keeneland_node();
    let first = acceval::figures_json(&figure1(&cfg, Scale::Test, true));
    let second = acceval::figures_json(&figure1(&cfg, Scale::Test, true));
    assert_eq!(first, second, "figure1 output must be bit-identical across parallel runs");
}

/// Repeated oracle requests for the same (benchmark, scale, host) must be
/// served from one memoized CpuRun.
#[test]
fn oracle_cache_serves_one_cpu_run() {
    let cfg = MachineConfig::keeneland_node();
    let bench = benchmark_named("spmul").expect("spmul exists");
    let a = cached_oracle(bench.as_ref(), Scale::Test, &cfg);
    let b = cached_oracle(bench.as_ref(), Scale::Test, &cfg);
    assert!(Arc::ptr_eq(&a, &b), "same key must return the same cached oracle");
}

/// Unknown names passed to figure1_subset are an error listing every
/// unmatched name, not a silent drop.
#[test]
fn figure1_subset_rejects_unknown_names() {
    let cfg = MachineConfig::keeneland_node();
    let err = figure1_subset(&["jacobi", "nosuch", "alsonot"], &cfg, Scale::Test, false)
        .expect_err("unknown names must not be dropped silently");
    assert!(err.contains("nosuch"), "error must name the unmatched benchmark: {err}");
    assert!(err.contains("alsonot"), "error must list every unmatched name: {err}");
    // Matching stays case-insensitive for known names.
    let fig = figure1_subset(&["JACOBI"], &cfg, Scale::Test, false).expect("known name, any case");
    assert_eq!(fig.results.len(), 1);
    assert_eq!(fig.results[0].name, "JACOBI");
}

/// The sweep (memoized oracle + geometry-retargeted compile cache) must
/// reproduce the serial run_model path bit-for-bit at every tuning point.
#[test]
fn sweep_matches_serial_run_model_bit_for_bit() {
    let cfg = MachineConfig::keeneland_node();
    for name in ["jacobi", "ep"] {
        let bench = benchmark_named(name).expect("benchmark exists");
        let b = bench.as_ref();
        let ds = b.dataset(Scale::Test);
        let oracle = acceval::run_baseline(b, &ds, &cfg);
        let manifest = run_sweep(&[b], &cfg, Scale::Test, true);
        for rec in &manifest.records {
            let serial = acceval::run_model(b, rec.model, &ds, &cfg, &oracle, rec.tuning.as_ref());
            assert_eq!(
                serial.secs.to_bits(),
                rec.secs.to_bits(),
                "{name}/{:?}/{:?}: simulated secs must match the serial path exactly",
                rec.model,
                rec.tuning
            );
            assert_eq!(serial.speedup.to_bits(), rec.speedup.to_bits(), "{name}/{:?}", rec.model);
            assert_eq!(serial.valid, rec.valid, "{name}/{:?}", rec.model);
        }
    }
}

/// Geometry-only tuning points share one lowering: the compile cache must
/// hand back the same underlying Program allocation for block-size variants.
#[test]
fn geometry_variants_share_one_lowering() {
    let bench = benchmark_named("jacobi").expect("jacobi exists");
    let b = bench.as_ref();
    let kind = ModelKind::OpenMpc;
    let space = model(kind).tuning_space();
    let default = cached_compile(b, kind, Scale::Test, None);
    let mut shared = 0;
    for pt in &space {
        let c = cached_compile(b, kind, Scale::Test, Some(pt));
        if Arc::ptr_eq(&default.program, &c.program) {
            shared += 1;
        }
    }
    // The block-size sweep (64/128/512) differs from the default only in
    // geometry, so at least those must re-use the default's lowering.
    assert!(shared >= 3, "expected block-size variants to share the cached lowering, got {shared}");
}

/// The manifest accounts for every task and carries the timing report.
#[test]
fn sweep_manifest_is_complete() {
    let cfg = MachineConfig::keeneland_node();
    let bench = benchmark_named("jacobi").expect("jacobi exists");
    let manifest = run_sweep(&[bench.as_ref()], &cfg, Scale::Test, true);
    assert_eq!(manifest.records.len(), manifest.tasks);
    assert_eq!(manifest.oracles.len(), 1);
    assert!(manifest.with_tuning);
    assert!(manifest.workers >= 1);
    // Records stay in task order regardless of scheduling.
    for (i, r) in manifest.records.iter().enumerate() {
        assert_eq!(r.task, i);
    }
    // Totals cover all tasks exactly once, both groupings.
    assert_eq!(manifest.by_benchmark.iter().map(|g| g.tasks).sum::<usize>(), manifest.tasks);
    assert_eq!(manifest.by_model.iter().map(|g| g.tasks).sum::<usize>(), manifest.tasks);
    // The manifest's counters are its records' counters summed element by
    // element, and so is either grouping's sum.
    let records: Counters = manifest.records.iter().map(|r| &r.counters).sum();
    assert_eq!(manifest.counters, records);
    assert_eq!(manifest.by_benchmark.iter().map(|g| &g.counters).sum::<Counters>(), records);
    assert_eq!(manifest.by_model.iter().map(|g| &g.counters).sum::<Counters>(), records);
    assert!(!manifest.slowest_tasks.is_empty());
    // The manifest serializes (it is the JSON artifact written by `report`).
    let json = acceval::figures_json(&manifest);
    assert!(json.contains("\"records\""));
    assert!(json.contains("\"slowest_tasks\""));
}

/// A benchmark whose sequential oracle dwarfs its GPU runs: the original
/// program spins a long host loop that feeds no output, and the ports drop
/// it. The one task that computes the oracle then dominates the sweep, so
/// counting the oracle twice shows up against the sweep's own wall time.
struct OracleHeavy;

impl OracleHeavy {
    fn program(spin: bool) -> Program {
        let mut pb = ProgramBuilder::new("oracle_heavy");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let k = pb.iscalar("k");
        let acc = pb.fscalar("acc");
        let out = pb.farray("out", vec![v(n)]);
        let mut main = Vec::new();
        if spin {
            main.push(sfor(k, 0i64, 2_000_000i64, vec![assign(acc, v(acc) * 0.5 + 1.0)]));
        }
        main.push(parallel("fill", vec![pfor(i, 0i64, v(n), vec![store(out, vec![v(i)], v(i).to_f() * 2.0)])]));
        pb.main(main);
        pb.outputs(vec![out]);
        pb.build()
    }
}

impl Benchmark for OracleHeavy {
    fn spec(&self) -> BenchSpec {
        BenchSpec { name: "ORACLE_HEAVY", suite: Suite::Kernel, domain: "test", base_loc: 10, tolerance: 1e-12 }
    }
    fn original(&self) -> Program {
        Self::program(true)
    }
    fn dataset(&self, _scale: Scale) -> DataSet {
        DataSet { scalars: vec![(ScalarId(0), Value::I(64))], arrays: vec![], label: "n=64".into() }
    }
    fn port(&self, _model: ModelKind) -> Port {
        Port { program: Self::program(false), hints: HintMap::new(), changes: vec![] }
    }
}

/// A host model only `test` uses: the oracle memo and the store are keyed by
/// the host config, so the test's first sweep computes its own oracle.
fn private_host(test: &str) -> MachineConfig {
    let mut cfg = MachineConfig::keeneland_node();
    cfg.host.name = format!("{} ({test}, pid {})", cfg.host.name, std::process::id());
    cfg
}

/// The critical path is a lower bound on the sweep's schedule, so it can
/// never exceed the wall time the sweep actually took — which it did when
/// the task that computed an oracle counted the oracle a second time.
#[test]
fn critical_path_never_exceeds_the_sweep() {
    let cfg = private_host("critical path");
    let manifest = run_sweep(&[&OracleHeavy], &cfg, Scale::Test, false);
    assert!(manifest.records.iter().all(|r| r.valid.is_ok()), "{:?}", manifest.records[0].valid);
    assert!(manifest.oracle_wall_secs > 0.0, "the sweep computed its oracle");
    assert!(
        manifest.critical_path_secs <= manifest.wall_secs,
        "critical path {:.4}s exceeds the sweep's wall time {:.4}s (oracle {:.4}s)",
        manifest.critical_path_secs,
        manifest.wall_secs,
        manifest.oracle_wall_secs
    );
}

/// A repeated sweep is served its oracle from the in-process memo and spends
/// no oracle time, so it must not report any.
#[test]
fn repeated_sweep_reports_no_oracle_time() {
    let cfg = private_host("repeated sweep");
    let first = run_sweep(&[&OracleHeavy], &cfg, Scale::Test, false);
    assert!(first.oracle_wall_secs > 0.0, "the first sweep computed its oracle");
    let second = run_sweep(&[&OracleHeavy], &cfg, Scale::Test, false);
    assert!(second.records.iter().all(|r| r.oracle_cached));
    assert_eq!(second.oracle_wall_secs, 0.0, "a memo hit costs the sweep no oracle time");
    assert!(second.oracles.iter().all(|o| o.wall_secs == 0.0));
    assert!(second.critical_path_secs <= second.wall_secs);
}
