//! Engine shoot-out: the default engine (compiled native closures) against
//! the reference tree-walking interpreter on the two paper-scale hot loops
//! (JACOBI's stencil sweep and KMEANS's assignment/update kernels),
//! launching each compiled kernel directly so nothing but the execution
//! engine differs.
//!
//! Beyond the criterion numbers, the bench asserts the compiled path's
//! reason to exist: at least a 4.5x speedup of the default engine over the
//! tree walker on the JACOBI hot loop (the kernels `report -- figure1`
//! spends its wall time in). Both arms use the same best-of-`BEST_OF`
//! protocol over `GATE_REPS`-launch averages, so neither gets a noise
//! advantage. A regression below the gate fails `cargo bench` (and the CI
//! bench-smoke job, which runs every bench once in test mode). CFD, NW and
//! SPMUL are measured the same way and printed, not gated.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use acceval::benchmarks::{all_benchmarks, Benchmark, Scale};
use acceval::ir::interp::gpu::{env_from_dataset, launch_with_engine, upload_all, DeviceState, Engine};
use acceval::ir::interp::launch_cache::{set_launch_cache_override, LaunchCache};
use acceval::ir::program::HostData;
use acceval::models::ModelKind;
use acceval::sim::MachineConfig;

fn benchmark_named(name: &str) -> Box<dyn Benchmark> {
    all_benchmarks().into_iter().find(|b| b.spec().name == name).unwrap_or_else(|| panic!("no benchmark {name}"))
}

/// Mean seconds per launch of every kernel of `name`'s hand-written CUDA
/// port at paper scale, under `eng`.
fn launch_all_kernels(name: &str, eng: Engine, reps: u32, cfg: &MachineConfig) -> f64 {
    let b = benchmark_named(name);
    let ds = b.dataset(Scale::Paper);
    let port = b.port(ModelKind::ManualCuda);
    let compiled = acceval::compile_port(&port, ModelKind::ManualCuda, &ds, None);
    let prog = &compiled.program;
    let host = HostData::materialize(prog, &ds);
    let scal0 = env_from_dataset(prog, &ds);
    let mut dev = DeviceState::new(prog, &cfg.device);
    upload_all(prog, &mut dev, &host);
    let mut scal = scal0.clone();
    let t0 = Instant::now();
    for _ in 0..reps {
        for plan in compiled.kernels.values().flatten() {
            black_box(launch_with_engine(prog, plan, &mut dev, &mut scal, &cfg.device, eng));
        }
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn bench(c: &mut Criterion) {
    let cfg = MachineConfig::keeneland_node();

    // This bench measures raw engine execution; with the launch cache live,
    // repeated identical launches replay from the cache on both sides and
    // the ratio collapses toward 1x. Pin it off for the whole process.
    set_launch_cache_override(Some(LaunchCache::Off));

    // The acceptance gate, measured outside criterion so it also runs (and
    // fails loudly) in `cargo bench -- --test` smoke mode. Both arms are
    // measured with the identical protocol: best of `BEST_OF` timings, each
    // the mean over `GATE_REPS` full-kernel-set launches. The default arm's
    // first launch builds the closures; that one-time cost is amortized
    // inside the reps, as a sweep amortizes it across a plan's launches.
    const BEST_OF: usize = 3;
    const GATE_REPS: u32 = 5;
    let best = |name: &str, eng: Engine| {
        (0..BEST_OF).map(|_| launch_all_kernels(name, eng, GATE_REPS, &cfg)).fold(f64::MAX, f64::min)
    };
    let tree = best("JACOBI", Engine::Tree);
    let fast = best("JACOBI", Engine::Bytecode);
    let speedup = tree / fast;
    println!("JACOBI hot loop (paper scale): tree {tree:.4}s, default {fast:.4}s");
    println!("default engine speedup over tree: {speedup:.1}x");
    assert!(
        speedup >= 4.5,
        "the default engine must be >= 4.5x the tree walker on the JACOBI hot loop, got {speedup:.2}x \
         (tree {tree:.4}s vs default {fast:.4}s)"
    );

    // Informational cross-benchmark numbers (no gate), on three differently
    // shaped hot loops — CFD's flux kernels, NW's wavefront, SPMUL's
    // irregular gather.
    for name in ["CFD", "NW", "SPMUL"] {
        let t = best(name, Engine::Tree);
        let d = best(name, Engine::Bytecode);
        println!("{name} (paper scale): tree {t:.4}s, default {d:.4}s ({:.1}x)", t / d);
    }

    let mut g = c.benchmark_group("engine_speed");
    g.sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    for name in ["JACOBI", "KMEANS"] {
        for (label, eng) in [("tree", Engine::Tree), ("default", Engine::Bytecode)] {
            g.bench_with_input(BenchmarkId::new(label, name), &eng, |b, &eng| {
                b.iter(|| black_box(launch_all_kernels(name, eng, 1, &cfg)));
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
