//! Renderers: ASCII tables (paper-style), CSV series, JSON dumps.

use std::fmt::Write;

use acceval_models::ModelKind;

use crate::codesize::CodeSizeRow;
use crate::coverage::CoverageRow;
use crate::figures::Figure1;
use crate::sweep::SweepManifest;

/// Render Table II (coverage + code-size increase).
pub fn render_table2(cov: &[CoverageRow], size: &[CodeSizeRow]) -> String {
    let mut out = String::new();
    out.push_str("TABLE II. PROGRAM COVERAGE AND NORMALIZED, AVERAGE CODE-SIZE INCREASE\n\n");
    let _ = writeln!(out, "{:18}| {:22}| {:22}", "GPU Models", "Program Coverage (%)", "Code-Size Increase (%)");
    out.push_str(&"-".repeat(66));
    out.push('\n');
    for c in cov {
        let s = size.iter().find(|s| s.model == c.model);
        let pct = format!("{:.1} ({}/{})", c.percent(), c.translated, c.total);
        let inc = s.map(|s| format!("{:.1}", s.average_percent)).unwrap_or_default();
        let _ = writeln!(out, "{:18}| {:22}| {:22}", c.model.display(), pct, inc);
    }
    out
}

/// Render Figure 1 as an ASCII table plus log-scale bars.
pub fn render_figure1(fig: &Figure1) -> String {
    let mut out = String::new();
    out.push_str("FIGURE 1. Speedups over serial CPU (largest evaluated inputs)\n\n");
    let models = ModelKind::figure1_models();
    let _ = write!(out, "{:10}", "Benchmark");
    for m in models {
        let _ = write!(out, "| {:>18}", m.display());
    }
    out.push_str("| tuning min..max (per model)\n");
    out.push_str(&"-".repeat(10 + 20 * models.len() + 30));
    out.push('\n');
    for r in &fig.results {
        let _ = write!(out, "{:10}", r.name);
        for m in models {
            match r.runs.iter().find(|x| x.model == m) {
                Some(run) if run.valid.is_ok() => {
                    let _ = write!(out, "| {:>18.2}", run.speedup);
                }
                Some(_) => {
                    let _ = write!(out, "| {:>18}", "INVALID");
                }
                None => {
                    let _ = write!(out, "| {:>18}", "-");
                }
            }
        }
        out.push_str("| ");
        for (m, lo, hi) in &r.tuning_bands {
            let _ = write!(out, "{}:{:.1}..{:.1} ", short(*m), lo, hi);
        }
        out.push('\n');
    }
    out.push('\n');
    out.push_str(&render_figure1_bars(fig));
    out
}

pub(crate) fn short(m: ModelKind) -> &'static str {
    match m {
        ModelKind::PgiAccelerator => "PGI",
        ModelKind::OpenAcc => "ACC",
        ModelKind::Hmpp => "HMPP",
        ModelKind::OpenMpc => "MPC",
        ModelKind::RStream => "RS",
        ModelKind::HiCuda => "HI",
        ModelKind::ManualCuda => "CUDA",
    }
}

/// Log-scale ASCII bar chart (like the paper's log-scale Figure 1).
pub fn render_figure1_bars(fig: &Figure1) -> String {
    let mut out = String::new();
    out.push_str("log-scale bars (each char = 0.25 decades; '.' = 1x, left edge = 0.1x)\n");
    for r in &fig.results {
        out.push_str(&format!("{}\n", r.name));
        for run in &r.runs {
            let s = run.speedup.max(0.1);
            let chars = ((s.log10() + 1.0) / 0.25).round().max(0.0) as usize;
            let _ = writeln!(out, "  {:5} {}| {:.2}x", short(run.model), "#".repeat(chars), run.speedup);
        }
    }
    out
}

/// Render the sweep manifest's timing report: totals, parallel efficiency,
/// the slowest tasks, and per-group wall-clock breakdowns.
pub fn render_sweep_summary(m: &SweepManifest) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep: {} tasks ({} scale, tuning {}) on {} worker(s) in {:.2}s wall",
        m.tasks,
        m.scale,
        if m.with_tuning { "on" } else { "off" },
        m.workers,
        m.wall_secs
    );
    let _ = writeln!(
        out,
        "  serial-equivalent {:.2}s (oracles {:.2}s) | critical path {:.2}s | efficiency {:.0}%",
        m.task_wall_secs,
        m.oracle_wall_secs,
        m.critical_path_secs,
        m.parallel_efficiency * 100.0
    );
    out.push_str("  slowest tasks:\n");
    for s in &m.slowest_tasks {
        let _ =
            writeln!(out, "    #{:<4} {:10} {:18} {:.3}s", s.task, s.benchmark, format!("{:?}", s.model), s.wall_secs);
    }
    // Name the dominant kernel inside the critical-path task so the next
    // optimization target is visible without a separate profile run.
    if let Some(s) = m.slowest_tasks.first() {
        if let Some(h) = m.records.iter().find(|r| r.task == s.task).and_then(|r| r.kernel_hotspot.as_ref()) {
            let _ = writeln!(
                out,
                "  slowest kernel in #{}: {} ({:.3}s simulated over {} launch(es))",
                s.task, h.kernel, h.secs, h.launches
            );
        }
    }
    out.push_str("  wall seconds by model:\n");
    for g in &m.by_model {
        let _ = writeln!(out, "    {:18} {:4} tasks  {:.3}s", g.name, g.tasks, g.wall_secs);
    }
    let probes = m.launch_cache_hits + m.launch_cache_disk_hits + m.launch_cache_misses;
    let rate = |h: u64, miss: u64| {
        let n = h + miss;
        if n > 0 {
            h as f64 / n as f64 * 100.0
        } else {
            0.0
        }
    };
    let _ = writeln!(
        out,
        "  launch cache ({}): {} memory + {} disk hits / {} misses ({:.0}% hit rate), {} eviction(s), {:.3}s hashing",
        m.launch_cache,
        m.launch_cache_hits,
        m.launch_cache_disk_hits,
        m.launch_cache_misses,
        rate(m.launch_cache_hits + m.launch_cache_disk_hits, m.launch_cache_misses),
        m.launch_cache_evictions,
        m.launch_cache_digest_secs
    );
    let _ = writeln!(
        out,
        "  store ({}): {} spill(s) ({} bytes), {} quarantined, {} evicted",
        m.store, m.store_spills, m.store_spill_bytes, m.store_quarantined, m.store_evicted
    );
    if probes > 0 {
        out.push_str("  launch cache by benchmark:\n");
        for g in &m.by_benchmark {
            let _ = writeln!(
                out,
                "    {:10} {:>6} hits / {:>6} misses ({:.0}%)",
                g.name,
                g.launch_cache_hits,
                g.launch_cache_misses,
                rate(g.launch_cache_hits, g.launch_cache_misses)
            );
        }
    }
    out
}

/// Render a [`RunProfile`] as a per-kernel cost attribution table plus a
/// transfer breakdown — the "where did the simulated time go" view behind a
/// Figure 1 bar.
pub fn render_profile(p: &crate::profile::RunProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "PROFILE {} / {} ({} trace events)", p.benchmark, p.model.display(), p.events);
    let _ = writeln!(
        out,
        "  total {:.6}s = host {:.6}s + pcie {:.6}s + kernels {:.6}s",
        p.total_secs, p.host_secs, p.transfer_secs, p.kernel_secs
    );
    let _ = writeln!(out, "  pcie bytes: {} H2D, {} D2H", p.h2d_bytes, p.d2h_bytes);
    out.push('\n');
    let _ = writeln!(
        out,
        "{:24}| {:>8}| {:>10}| {:>6}| {:12}| {:>5}| {:>8}| {:>8}| {:>6}",
        "Kernel", "launches", "time (s)", "%time", "bound", "occ%", "cmp%", "mem%", "amp"
    );
    out.push_str(&"-".repeat(100));
    out.push('\n');
    for k in &p.kernels {
        let cycles = k.compute_cycles + k.mem_bw_cycles + k.mem_lat_cycles + k.shared_cycles + k.atomic_cycles;
        let pct = |c: f64| if cycles > 0.0 { c / cycles * 100.0 } else { 0.0 };
        let mem_pct = pct(k.mem_bw_cycles + k.mem_lat_cycles + k.shared_cycles + k.atomic_cycles);
        let time_pct = if p.kernel_secs > 0.0 { k.time_secs / p.kernel_secs * 100.0 } else { 0.0 };
        let _ = writeln!(
            out,
            "{:24}| {:>8}| {:>10.6}| {:>5.1}%| {:12}| {:>4.0}%| {:>7.1}%| {:>7.1}%| {:>5.2}x",
            k.name,
            k.launches,
            k.time_secs,
            time_pct,
            format!("{:?}", k.bound),
            k.occupancy * 100.0,
            pct(k.compute_cycles),
            mem_pct,
            k.traffic_amplification()
        );
    }
    out.push('\n');
    let _ =
        writeln!(out, "{:24}| {:12}| {:>10}| {:>14}| {:>12}", "Transfer", "direction", "count", "bytes", "time (s)");
    out.push_str(&"-".repeat(80));
    out.push('\n');
    for t in &p.transfers {
        let _ = writeln!(
            out,
            "{:24}| {:12}| {:>10}| {:>14}| {:>12.6}",
            t.array,
            format!("{:?}", t.dir),
            t.transfers,
            t.bytes,
            t.secs
        );
    }
    out
}

/// Figure 1 as CSV (benchmark, model, speedup, tuning_min, tuning_max).
pub fn figure1_csv(fig: &Figure1) -> String {
    let mut out = String::from("benchmark,model,speedup,valid,tuning_min,tuning_max\n");
    for r in &fig.results {
        for run in &r.runs {
            let band = r.tuning_bands.iter().find(|(m, _, _)| *m == run.model);
            let (lo, hi) = band.map(|(_, l, h)| (*l, *h)).unwrap_or((run.speedup, run.speedup));
            let _ = writeln!(
                out,
                "{},{},{:.4},{},{:.4},{:.4}",
                r.name,
                short(run.model),
                run.speedup,
                run.valid.is_ok(),
                lo,
                hi
            );
        }
    }
    out
}

/// Machine-readable benchmark record for the whole sweep: total wall time
/// plus per-benchmark task timings, tagged with the kernel engine that
/// produced it. Schema documented in `EXPERIMENTS.md`; written to
/// `results/BENCH_sweep.json` by `report -- figure1`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchSweep {
    /// Schema tag, bumped on layout changes.
    pub schema: String,
    /// Kernel engine the sweep ran on (`tree`/`bytecode`).
    pub engine: String,
    pub scale: String,
    pub with_tuning: bool,
    /// Device generation slugs the sweep's records cover (one for a plain
    /// Figure 1 sweep, one per preset for a device-matrix sweep).
    pub devices: Vec<String>,
    pub workers: usize,
    pub tasks: usize,
    /// Wall seconds for the whole sweep (the headline number).
    pub wall_secs: f64,
    /// Sum of per-task wall seconds (serial-equivalent cost).
    pub task_wall_secs: f64,
    /// The longest oracle-then-slowest-task chain in wall seconds: the
    /// floor no task schedule can go below.
    pub critical_path_secs: f64,
    /// Per-benchmark wall/sim accounting, one entry per benchmark.
    pub benchmarks: Vec<crate::sweep::GroupTotals>,
    /// Launch-cache policy the sweep ran under (`auto`/`on`/`off`).
    pub launch_cache: String,
    /// Launch-cache memory (LRU) hits summed over the sweep's tasks.
    pub launch_cache_hits: u64,
    /// Launch-cache hits served from the persistent disk store.
    pub launch_cache_disk_hits: u64,
    /// Launch-cache misses summed over the sweep's tasks.
    pub launch_cache_misses: u64,
    /// Launch-cache evictions (process-lifetime total).
    pub launch_cache_evictions: u64,
    /// Wall seconds spent hashing buffer contents for cache keys/captures.
    pub launch_cache_digest_secs: f64,
    /// Persistent-store policy (`auto`/`auto-off`/`on`/`off`/`path`).
    pub store: String,
    /// Entries spilled to the persistent store (process lifetime).
    pub store_spills: u64,
    /// Bytes spilled to the persistent store (process lifetime).
    pub store_spill_bytes: u64,
    /// Store entries quarantined after failing verification.
    pub store_quarantined: u64,
    /// Store entries evicted under the disk byte cap.
    pub store_evicted: u64,
    /// Kernels whose compiled stream went through the typed lowering
    /// during the sweep (once per distinct plan; memoized plans don't
    /// recount).
    pub opt_kernels: u64,
    /// Instruction count of those kernels' compiled streams.
    pub opt_ops_pre: u64,
    /// Launches executed through the native closures.
    pub native_launches: u64,
    /// Launches the default engine handed to the tree walker.
    pub tree_fallbacks: u64,
}

/// Build the `results/BENCH_sweep.json` payload from a sweep manifest.
pub fn bench_sweep_json(m: &SweepManifest, engine: &str) -> String {
    let payload = BenchSweep {
        schema: "acceval-bench-sweep/9".to_string(),
        engine: engine.to_string(),
        scale: m.scale.clone(),
        with_tuning: m.with_tuning,
        devices: m.devices.clone(),
        workers: m.workers,
        tasks: m.tasks,
        wall_secs: m.wall_secs,
        task_wall_secs: m.task_wall_secs,
        critical_path_secs: m.critical_path_secs,
        benchmarks: m.by_benchmark.clone(),
        launch_cache: m.launch_cache.clone(),
        launch_cache_hits: m.launch_cache_hits,
        launch_cache_disk_hits: m.launch_cache_disk_hits,
        launch_cache_misses: m.launch_cache_misses,
        launch_cache_evictions: m.launch_cache_evictions,
        launch_cache_digest_secs: m.launch_cache_digest_secs,
        store: m.store.clone(),
        store_spills: m.store_spills,
        store_spill_bytes: m.store_spill_bytes,
        store_quarantined: m.store_quarantined,
        store_evicted: m.store_evicted,
        opt_kernels: m.opt_kernels,
        opt_ops_pre: m.opt_ops_pre,
        native_launches: m.native_launches,
        tree_fallbacks: m.tree_fallbacks,
    };
    serde_json::to_string_pretty(&payload).expect("bench sweep serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codesize::codesize_of;
    use crate::coverage::coverage_of;
    use acceval_benchmarks::Benchmark;

    #[test]
    fn table2_renders() {
        let benches: Vec<Box<dyn Benchmark>> = vec![Box::new(acceval_benchmarks::jacobi::Jacobi)];
        let cov: Vec<_> = ModelKind::coverage_models().into_iter().map(|k| coverage_of(k, &benches)).collect();
        let size: Vec<_> = ModelKind::coverage_models().into_iter().map(|k| codesize_of(k, &benches)).collect();
        let txt = render_table2(&cov, &size);
        assert!(txt.contains("PGI Accelerator"));
        assert!(txt.contains("R-Stream"));
        assert!(txt.contains("(2/2)"));
    }
}
