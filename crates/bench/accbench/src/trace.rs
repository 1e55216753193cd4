//! The traced pass's span bookkeeping: a trace sink that timestamps event
//! arrival, per-task span records, and their fold into per-layer metrics.
//!
//! Spans are recorded from outside the program, around the calls into each
//! layer; time inside `run_compiled_traced` is split by the kind of the
//! trace event that ends each gap between events.

use std::fmt::Write as _;
use std::time::Instant;

use acceval::sim::{TraceEvent, TraceSink};

use crate::layers::{Counters, PlanStats};
use crate::stats::{median, percentile, tail_quantile};

/// Every per-layer metric with its unit, in report order. `trace.overhead`
/// is added by the parent, which sees the untraced wall time too.
pub const LAYERS: &[(&str, &str)] = &[
    ("benchmarks.dataset_s", "s"),
    ("oracle.self_s", "s"),
    ("oracle.computed", "count"),
    ("compile.self_s", "s"),
    ("compile.lowerings", "count"),
    ("bytecode.plans", "count"),
    ("bytecode.ineligible", "count"),
    ("opt.ops_pre", "count"),
    ("opt.ops_post", "count"),
    ("gpu.launch_s", "s"),
    ("gpu.launches", "count"),
    ("gpu.launch_p50_us", "us"),
    ("gpu.launch_p99_us", "us"),
    ("runtime.host_s", "s"),
    ("runtime.transfer_s", "s"),
    ("eval.validate_s", "s"),
    ("launch_cache.hits", "count"),
    ("launch_cache.disk_hits", "count"),
    ("launch_cache.misses", "count"),
    ("launch_cache.hit_ratio", "ratio"),
    ("launch_cache.evictions", "count"),
    ("launch_cache.resident_mb", "MB"),
    ("launch_cache.digest_s", "s"),
    ("store.spills", "count"),
    ("store.spill_mb", "MB"),
    ("store.quarantined", "count"),
    ("store.disk_mb", "MB"),
    ("store.flush_s", "s"),
    ("sweep.task_p50_s", "s"),
    ("sweep.task_tail_s", "s"),
    ("sweep.idle_s", "s"),
    ("sim.gpu_time", "sim_s"),
    ("sim.kernel_time", "sim_s"),
    ("sim.transfer_time", "sim_s"),
    ("sim.kernels_launched", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// A sink that keeps no events, only the host time between them: the gap
/// ending in a kernel launch (with the per-site evidence events emitted just
/// before it) is launch time, one ending in a transfer is transfer time, one
/// ending in a host event is host interpretation.
pub struct StampSink {
    pub last: Instant,
    pending_launch: f64,
    pub launch_s: f64,
    pub launch_us: Vec<f64>,
    pub transfer_s: f64,
    pub host_s: f64,
}

impl StampSink {
    pub fn new() -> Self {
        StampSink {
            last: Instant::now(),
            pending_launch: 0.0,
            launch_s: 0.0,
            launch_us: Vec::new(),
            transfer_s: 0.0,
            host_s: 0.0,
        }
    }
}

impl TraceSink for StampSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, e: TraceEvent) {
        let now = Instant::now();
        let gap = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        match e {
            TraceEvent::KernelLaunch { .. } => {
                let d = self.pending_launch + gap;
                self.pending_launch = 0.0;
                self.launch_s += d;
                self.launch_us.push(d * 1e6);
            }
            TraceEvent::Transfer { .. } => self.transfer_s += gap,
            TraceEvent::Host { .. } => self.host_s += gap,
            _ => self.pending_launch += gap,
        }
    }
}

/// What one task of the traced pass did and where its time went. Times are
/// seconds since the pass started.
pub struct TaskTrace {
    /// Position in paper order (benchmark order, then the task's place
    /// among its benchmark's tasks), so sums are taken in one fixed order
    /// whatever the seed.
    pub order: (usize, usize),
    pub worker: usize,
    pub benchmark: String,
    pub start: f64,
    pub end: f64,
    pub dataset_s: f64,
    pub oracle: (f64, f64),
    /// The oracle was simulated in this process (not loaded or memoized).
    pub oracle_simulated: bool,
    /// Seconds in `cached_compile_tracked`: lowering (which also compiles
    /// and optimizes each plan) on a miss, the geometry retarget on a hit.
    pub compile_s: f64,
    pub compile_hit: bool,
    /// Verdicts of the plans this task lowered (none on a compile hit).
    pub plans: PlanStats,
    pub run: (f64, f64),
    pub launch_s: f64,
    pub launch_us: Vec<f64>,
    pub transfer_s: f64,
    pub host_s: f64,
    pub validate_s: f64,
    pub sim_secs: f64,
    pub sim_kernel_secs: f64,
    pub sim_transfer_secs: f64,
    pub sim_kernels: u64,
}

/// Split each benchmark's oracle calls into self time and waiting: the
/// first call to start computes (or loads) the oracle, and calls that start
/// before it ends block on it. Returns `(self_s, wait_s)`.
fn oracle_split(tasks: &[TaskTrace]) -> (f64, f64) {
    let (mut own, mut wait) = (0.0, 0.0);
    let mut names: Vec<&str> = tasks.iter().map(|t| t.benchmark.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let mut calls: Vec<(f64, f64)> = tasks.iter().filter(|t| t.benchmark == name).map(|t| t.oracle).collect();
        calls.sort_by(|a, b| a.0.total_cmp(&b.0));
        let owner_end = calls[0].1;
        for &(start, end) in &calls {
            let blocked = if start > calls[0].0 { (owner_end.min(end) - start).max(0.0) } else { 0.0 };
            wait += blocked;
            own += end - start - blocked;
        }
    }
    (own, wait)
}

/// Everything the fold needs besides the task records.
pub struct PassTotals {
    pub workers: usize,
    /// Wall seconds of the task phase (the flush excluded).
    pub tasks_wall_s: f64,
    pub flush_s: f64,
    /// Seconds the child spent building datasets before the pass.
    pub setup_dataset_s: f64,
    pub counters: Counters,
    pub store_disk_bytes: u64,
}

/// Fold one traced pass into the [`LAYERS`] metrics (all but
/// `trace.overhead`), in that order.
pub fn fold(tasks: &mut [TaskTrace], p: &PassTotals) -> Vec<(&'static str, f64)> {
    tasks.sort_by_key(|t| t.order);
    let sum = |f: &dyn Fn(&TaskTrace) -> f64| tasks.iter().map(f).sum::<f64>();
    let count = |f: &dyn Fn(&TaskTrace) -> bool| tasks.iter().filter(|t| f(t)).count() as f64;
    // Time blocked on another task's oracle is idle time, not oracle work.
    let (oracle_self, oracle_wait) = oracle_split(tasks);
    let mut simulated: Vec<&str> = tasks.iter().filter(|t| t.oracle_simulated).map(|t| t.benchmark.as_str()).collect();
    simulated.sort_unstable();
    simulated.dedup();
    let walls: Vec<f64> = tasks.iter().map(|t| t.end - t.start).collect();
    let task_wall: f64 = walls.iter().sum();
    let launches: Vec<f64> = tasks.iter().flat_map(|t| t.launch_us.iter().copied()).collect();
    let c = &p.counters;
    let probes = c.hits + c.disk_hits + c.misses;
    let attributed = sum(&|t| t.dataset_s + t.compile_s)
        + oracle_self
        + oracle_wait
        + sum(&|t| t.launch_s + t.transfer_s + t.host_s + t.validate_s);
    let mb = |b: u64| b as f64 / (1 << 20) as f64;
    vec![
        ("benchmarks.dataset_s", p.setup_dataset_s + sum(&|t| t.dataset_s)),
        ("oracle.self_s", oracle_self),
        ("oracle.computed", simulated.len() as f64),
        ("compile.self_s", sum(&|t| t.compile_s)),
        ("compile.lowerings", count(&|t| !t.compile_hit)),
        ("bytecode.plans", sum(&|t| t.plans.plans as f64)),
        ("bytecode.ineligible", sum(&|t| t.plans.ineligible as f64)),
        ("opt.ops_pre", sum(&|t| t.plans.ops_pre as f64)),
        ("opt.ops_post", sum(&|t| t.plans.ops_post as f64)),
        ("gpu.launch_s", sum(&|t| t.launch_s)),
        ("gpu.launches", launches.len() as f64),
        ("gpu.launch_p50_us", percentile(&launches, 0.5)),
        ("gpu.launch_p99_us", percentile(&launches, 0.99)),
        ("runtime.host_s", sum(&|t| t.host_s)),
        ("runtime.transfer_s", sum(&|t| t.transfer_s)),
        ("eval.validate_s", sum(&|t| t.validate_s)),
        ("launch_cache.hits", c.hits as f64),
        ("launch_cache.disk_hits", c.disk_hits as f64),
        ("launch_cache.misses", c.misses as f64),
        ("launch_cache.hit_ratio", if probes > 0 { (c.hits + c.disk_hits) as f64 / probes as f64 } else { 0.0 }),
        ("launch_cache.evictions", c.evictions as f64),
        ("launch_cache.resident_mb", mb(c.resident_bytes)),
        ("launch_cache.digest_s", c.digest_s),
        ("store.spills", c.spills as f64),
        ("store.spill_mb", mb(c.spill_bytes)),
        ("store.quarantined", c.quarantined as f64),
        ("store.disk_mb", mb(p.store_disk_bytes)),
        ("store.flush_s", p.flush_s),
        ("sweep.task_p50_s", median(&walls)),
        ("sweep.task_tail_s", percentile(&walls, tail_quantile(walls.len()))),
        ("sweep.idle_s", (p.workers as f64 * p.tasks_wall_s - task_wall).max(0.0) + oracle_wait),
        ("sim.gpu_time", sum(&|t| t.sim_secs)),
        ("sim.kernel_time", sum(&|t| t.sim_kernel_secs)),
        ("sim.transfer_time", sum(&|t| t.sim_transfer_secs)),
        ("sim.kernels_launched", sum(&|t| t.sim_kernels as f64)),
        ("trace.unattributed_share", if task_wall > 0.0 { (task_wall - attributed) / task_wall } else { 0.0 }),
    ]
}

/// The task-level spans of one traced pass, one line per span:
/// `task worker span start_s end_s`, children after their task.
pub fn spans_tsv(tasks: &[TaskTrace]) -> String {
    let mut out = String::from("task\tworker\tspan\tstart_s\tend_s\n");
    for (i, t) in tasks.iter().enumerate() {
        let mut line = |span: &str, a: f64, b: f64| {
            let _ = writeln!(out, "{i}\t{}\t{span}\t{a:.6}\t{b:.6}", t.worker);
        };
        line(&format!("task:{}", t.benchmark), t.start, t.end);
        line("oracle", t.oracle.0, t.oracle.1);
        line("run", t.run.0, t.run.1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(bench: &str, oracle: (f64, f64)) -> TaskTrace {
        TaskTrace {
            order: (0, 0),
            worker: 0,
            benchmark: bench.into(),
            start: oracle.0,
            end: oracle.1,
            dataset_s: 0.0,
            oracle,
            oracle_simulated: false,
            compile_s: 0.0,
            compile_hit: true,
            plans: PlanStats::default(),
            run: (oracle.1, oracle.1),
            launch_s: 0.0,
            launch_us: Vec::new(),
            transfer_s: 0.0,
            host_s: 0.0,
            validate_s: 0.0,
            sim_secs: 0.0,
            sim_kernel_secs: 0.0,
            sim_transfer_secs: 0.0,
            sim_kernels: 0,
        }
    }

    #[test]
    fn oracle_waiters_are_not_self_time() {
        // The owner computes for 2 s; a second call blocks from 0.5 s to the
        // owner's end, and a later hit costs its own (tiny) time.
        let tasks = [task("A", (0.0, 2.0)), task("A", (0.5, 2.0)), task("A", (3.0, 3.001)), task("B", (0.0, 1.0))];
        let (own, wait) = oracle_split(&tasks);
        assert!((own - 3.001).abs() < 1e-9, "{own}");
        assert!((wait - 1.5).abs() < 1e-9, "{wait}");
    }

    #[test]
    fn layers_match_benchmark_json() {
        let json = include_str!("../../../../BENCHMARK.json");
        for (name, unit) in LAYERS {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(json.contains(&entry), "{entry}");
        }
        let listed = json.matches("\"better\": ").count();
        assert_eq!(listed, LAYERS.len() + crate::stats::END_TO_END.len());
    }

    #[test]
    fn fold_reports_every_layer_but_overhead() {
        let mut tasks = vec![task("A", (0.0, 1.0))];
        let totals = PassTotals {
            workers: 1,
            tasks_wall_s: 1.0,
            flush_s: 0.0,
            setup_dataset_s: 0.0,
            counters: Counters::default(),
            store_disk_bytes: 0,
        };
        let names: Vec<&str> = fold(&mut tasks, &totals).iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = LAYERS.iter().map(|(n, _)| *n).filter(|n| *n != "trace.overhead").collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn launch_gap_includes_its_evidence_events() {
        use acceval::sim::exec::{estimate_kernel_traced, KernelFootprint, KernelTotals};
        let mut s = StampSink::new();
        s.emit(TraceEvent::Host { label: "host".into(), secs: 0.0 });
        let t0 = s.last;
        s.emit(TraceEvent::CacheCounters { cache: "t".into(), hits: 0, misses: 0 });
        std::thread::sleep(std::time::Duration::from_millis(2));
        let dev = acceval::sim::DeviceConfig::tesla_m2090();
        estimate_kernel_traced(&dev, &KernelFootprint::new(32, 1), &KernelTotals::default(), "k", &mut s);
        assert_eq!(s.launch_us.len(), 1);
        // The launch span runs from the host event to the launch event,
        // across the evidence event in between.
        let span = s.last.duration_since(t0).as_secs_f64();
        assert!((s.launch_s - span).abs() < 1e-9, "{} vs {span}", s.launch_s);
        assert!(s.launch_s >= 0.002);
    }
}
