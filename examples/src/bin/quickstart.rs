//! Quickstart: port one OpenMP benchmark to the GPU through a directive
//! model, run it on the simulated Keeneland node, and inspect the result.
//!
//! ```text
//! cargo run -p acceval-examples --release --bin quickstart
//! ```

use acceval::benchmarks::{Benchmark, Scale};
use acceval::ir::pretty;
use acceval::models::ModelKind;
use acceval::sim::{MachineConfig, Summary, TraceEvent};
use acceval::{compile_port, run_baseline, run_gpu_program};

fn main() {
    // 1. Pick a benchmark and a problem size.
    let bench = acceval::benchmarks::jacobi::Jacobi;
    let ds = bench.dataset(Scale::Test);
    let cfg = MachineConfig::keeneland_node();
    println!("benchmark: JACOBI ({})", ds.label);
    println!("machine:   {} + {} over PCIe\n", cfg.host.name, cfg.device.name);

    // 2. The sequential CPU baseline doubles as the correctness oracle.
    let oracle = run_baseline(&bench, &ds, &cfg);
    println!("CPU baseline: {:.3} ms ({} ops, {} memory accesses)\n", oracle.secs * 1e3, oracle.ops, oracle.accesses);

    // 3. Port to OpenACC: the port carries the restructured input program
    //    plus the ledger of code changes the port needed.
    let port = bench.port(ModelKind::OpenAcc);
    println!("OpenACC port changes:");
    for c in &port.changes {
        println!("  +{:>3} lines  {:?}: {}", c.lines, c.kind, c.note);
    }

    // 4. Compile: every parallel region becomes GPU kernels.
    let compiled = compile_port(&port, ModelKind::OpenAcc, &ds, None);
    println!("\ncompiled {} regions into kernels:", compiled.kernels.len());
    for ks in compiled.kernels.values() {
        for k in ks {
            println!("--- generated kernel ---\n{}", pretty::kernel(&compiled.program, k));
        }
    }

    // 5. Run the GPU version and walk its record: one event per host span,
    //    PCIe transfer and kernel launch, in simulation order.
    let run = run_gpu_program(&compiled, &ds, &cfg).expect("gpu run");
    println!("GPU version: {:.3} ms  => speedup {:.2}x", run.secs * 1e3, oracle.secs / run.secs);
    let s = Summary::of(&run.events);
    println!(
        "  {} kernels, {} transfers ({:.1} KiB up / {:.1} KiB down), host {:.3} ms",
        s.kernels_launched,
        s.transfers,
        s.h2d_bytes as f64 / 1024.0,
        s.d2h_bytes as f64 / 1024.0,
        s.host_secs * 1e3
    );
    println!("\nfirst recorded events:");
    for e in run.events.iter().take(8) {
        match e {
            TraceEvent::Host { label, secs } => println!("  host     {label:<24} {:.1} us", secs * 1e6),
            TraceEvent::Transfer { array, dir, bytes, secs } => {
                println!("  transfer {array:<24} {:?} {bytes} B, {:.1} us", dir, secs * 1e6)
            }
            TraceEvent::KernelLaunch { name, cost, totals, .. } => println!(
                "  kernel   {name:<24} {:.1} us ({:?}-bound, {} transactions)",
                cost.time_secs * 1e6,
                cost.bound,
                totals.global_transactions
            ),
            // Per-site evidence goes to a trace sink, never to the record.
            TraceEvent::CoalesceSite { .. } | TraceEvent::CacheCounters { .. } => {}
        }
    }

    // 6. Validate against the oracle.
    let a = bench.original().array_named("a");
    let diff = oracle.data.bufs[a.0 as usize].max_abs_diff(&run.data.bufs[a.0 as usize]);
    println!("\nmax |GPU - CPU| on output: {diff:.3e}");
    assert!(diff < 1e-10);
    println!("OK");
}
