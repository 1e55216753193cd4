//! Speedup measurement: the machinery behind Figure 1.
//!
//! Every benchmark runs once sequentially on the CPU model (the baseline and
//! correctness oracle), then once per model through its port; speedup is
//! baseline-seconds over GPU-version-seconds, and GPU outputs are validated
//! against the oracle. A run's totals ([`Summary::of`]) and its kernel
//! hotspot ([`RunProfile::hotspot`]) are folds of the run's one record,
//! `GpuRun::events`.

use acceval_benchmarks::{Benchmark, Scale};
use acceval_ir::interp::cpu::{run_cpu, CpuRun};
use acceval_ir::program::DataSet;
use acceval_models::{ModelKind, TuningPoint};
use acceval_sim::{MachineConfig, NullSink, Summary, TraceSink};
use serde::Serialize;

use crate::compile::{compile_port, CompiledProgram};
use crate::profile::RunProfile;
use crate::runtime::run_gpu_program_traced;

/// One GPU-version run.
#[derive(Debug, Clone, Serialize)]
pub struct ModelRun {
    pub model: ModelKind,
    pub secs: f64,
    pub speedup: f64,
    pub summary: Summary,
    /// `Ok` if outputs matched the oracle within tolerance.
    pub valid: Result<(), String>,
    /// Regions that stayed on the host.
    pub unsupported_regions: usize,
    /// The costliest kernel of the run (None if the run failed or launched
    /// no kernels) — the next optimization target.
    pub kernel_hotspot: Option<KernelHotspot>,
}

/// The costliest kernel of one run: simulated seconds and launch count
/// summed over every launch with the same kernel name.
#[derive(Debug, Clone, Serialize)]
pub struct KernelHotspot {
    pub kernel: String,
    /// Simulated seconds across all launches of this kernel.
    pub secs: f64,
    pub launches: u64,
}

/// All results for one benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct BenchResult {
    pub name: String,
    pub dataset: String,
    pub cpu_secs: f64,
    pub runs: Vec<ModelRun>,
    /// (model, min speedup, max speedup) over the tuning space.
    pub tuning_bands: Vec<(ModelKind, f64, f64)>,
}

impl BenchResult {
    /// The default-point speedup of a model (None if absent/invalid).
    pub fn speedup_of(&self, kind: ModelKind) -> Option<f64> {
        self.runs.iter().find(|r| r.model == kind && r.valid.is_ok()).map(|r| r.speedup)
    }
}

/// Run the sequential CPU baseline.
pub fn run_baseline(bench: &dyn Benchmark, ds: &DataSet, cfg: &MachineConfig) -> CpuRun {
    run_cpu(&bench.original(), ds, &cfg.host)
}

/// Validate a GPU run's outputs against the oracle.
fn validate(
    bench: &dyn Benchmark,
    oracle: &CpuRun,
    run: &crate::runtime::GpuRun,
    compiled: &crate::compile::CompiledProgram,
) -> Result<(), String> {
    let orig = bench.original();
    let tol = bench.spec().tolerance;
    for out in &orig.outputs {
        let name = orig.array_name(*out);
        let oid = compiled.program.array_named(name);
        let a = &oracle.data.bufs[out.0 as usize];
        let b = &run.data.bufs[oid.0 as usize];
        if a.len() != b.len() {
            return Err(format!("{name}: length mismatch"));
        }
        // scale-aware comparison
        let mut scale: f64 = 1.0;
        for i in 0..a.len() {
            scale = scale.max(a.get_f(i).abs());
        }
        let d = a.max_abs_diff(b);
        if d > tol * scale {
            return Err(format!("{name}: max diff {d:.3e} (scale {scale:.3e}, tol {tol:.1e})"));
        }
    }
    for s in &orig.output_scalars {
        let name = &orig.scalars[s.0 as usize].name;
        let sid = compiled.program.scalar_named(name);
        let a = oracle.scalars[s.0 as usize].as_f();
        let b = run.scalars[sid.0 as usize].as_f();
        if (a - b).abs() > tol * a.abs().max(1.0) {
            return Err(format!("scalar {name}: {a} vs {b}"));
        }
    }
    Ok(())
}

/// Run an already-compiled GPU version and score it against the oracle.
///
/// This is the single execution path every consumer (sweep, `run_model`,
/// benches) funnels through. A simulated time that is zero, negative, or
/// non-finite cannot yield a meaningful speedup; it is surfaced as a
/// validation error instead of an infinite/NaN ratio.
pub fn run_compiled(
    bench: &dyn Benchmark,
    compiled: &CompiledProgram,
    ds: &DataSet,
    cfg: &MachineConfig,
    oracle: &CpuRun,
) -> ModelRun {
    run_compiled_traced(bench, compiled, ds, cfg, oracle, &mut NullSink)
}

/// [`run_compiled`], streaming the run's structured trace into `sink`.
/// Scores are bit-identical to the untraced path; the sink additionally
/// receives every host span, transfer, and kernel launch in simulation
/// order.
pub fn run_compiled_traced(
    bench: &dyn Benchmark,
    compiled: &CompiledProgram,
    ds: &DataSet,
    cfg: &MachineConfig,
    oracle: &CpuRun,
    sink: &mut dyn TraceSink,
) -> ModelRun {
    let run = match run_gpu_program_traced(compiled, ds, cfg, sink) {
        Ok(run) => run,
        Err(e) => {
            return ModelRun {
                model: compiled.kind,
                secs: 0.0,
                speedup: 0.0,
                summary: Summary::default(),
                valid: Err(format!("runtime error: {e}")),
                unsupported_regions: compiled.unsupported.len(),
                kernel_hotspot: None,
            }
        }
    };
    let mut valid = validate(bench, oracle, &run, compiled);
    let speedup = if run.secs.is_finite() && run.secs > 0.0 {
        oracle.secs / run.secs
    } else {
        if valid.is_ok() {
            valid = Err(format!("non-physical simulated time: {} s", run.secs));
        }
        0.0
    };
    ModelRun {
        model: compiled.kind,
        secs: run.secs,
        speedup,
        summary: Summary::of(&run.events),
        valid,
        unsupported_regions: compiled.unsupported.len(),
        kernel_hotspot: RunProfile::from_events(bench.spec().name, compiled.kind, &run.events).hotspot(),
    }
}

/// Run one model's port at one tuning point.
pub fn run_model(
    bench: &dyn Benchmark,
    kind: ModelKind,
    ds: &DataSet,
    cfg: &MachineConfig,
    oracle: &CpuRun,
    tuning: Option<&TuningPoint>,
) -> ModelRun {
    let port = bench.port(kind);
    let compiled = compile_port(&port, kind, ds, tuning);
    run_compiled(bench, &compiled, ds, cfg, oracle)
}

/// Evaluate one benchmark across the Figure 1 models.
///
/// With `with_tuning`, every model's tuning space is swept to produce the
/// "performance variation by tuning" band. This runs a single-benchmark
/// [`crate::sweep`], so it shares the sweep's oracle and compile caches and
/// its parallel work-stealing execution.
pub fn evaluate_benchmark(bench: &dyn Benchmark, cfg: &MachineConfig, scale: Scale, with_tuning: bool) -> BenchResult {
    let manifest = crate::sweep::run_sweep(&[bench], cfg, scale, with_tuning);
    crate::sweep::bench_results(&manifest).pop().expect("one benchmark in, one result out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobi_end_to_end() {
        let cfg = MachineConfig::keeneland_node();
        let r = evaluate_benchmark(&acceval_benchmarks::jacobi::Jacobi, &cfg, Scale::Test, false);
        assert_eq!(r.runs.len(), 5);
        for run in &r.runs {
            assert!(run.valid.is_ok(), "{:?}: {:?}", run.model, run.valid);
            assert!(run.speedup > 0.0);
        }
    }

    #[test]
    fn tuning_band_brackets_default() {
        let cfg = MachineConfig::keeneland_node();
        let r = evaluate_benchmark(&acceval_benchmarks::jacobi::Jacobi, &cfg, Scale::Test, true);
        for (kind, lo, hi) in &r.tuning_bands {
            let d = r.speedup_of(*kind).unwrap();
            assert!(*lo <= d + 1e-9 && d <= *hi + 1e-9, "{kind:?}: {lo} <= {d} <= {hi}");
        }
    }
}
