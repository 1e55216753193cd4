//! The flat work-stealing evaluation sweep behind Figure 1.
//!
//! Every (benchmark × model × tuning-point) combination is one independent
//! task. Tasks are enumerated up front and run through rayon; the CPU
//! oracle is computed once per (benchmark, scale) behind a memoizing cache,
//! and compilation is memoized on the tuning point's *lowering basis* (the
//! point with launch geometry normalized away — see
//! [`TuningPoint::lowering_basis`]), so points that only change launch
//! geometry re-point the cached kernels instead of re-lowering the IR.
//!
//! Results are deterministic and bit-identical regardless of scheduling:
//! records are collected keyed by task index, caches are keyed by value (not
//! arrival order), and the geometry retarget is a pure function of the
//! tuning point.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use acceval_benchmarks::{Benchmark, Scale};
use acceval_ir::interp::cpu::CpuRun;
use acceval_ir::interp::launch_cache::launch_cache_name;
use acceval_ir::interp::store::{self as launch_store, Dec, Enc};
use acceval_ir::metrics::Counters;
use acceval_ir::program::DataSet;
use acceval_models::{model, ModelKind, TuningPoint};
use acceval_sim::{DeviceConfig, MachineConfig, RecordingSink, Summary};
use parking_lot::Mutex;
use rayon::prelude::*;
use serde::Serialize;

use crate::compile::{compile_port, CompiledProgram};
use crate::eval::{run_compiled, run_compiled_traced, BenchResult, ModelRun};

// ---------------------------------------------------------------------------
// Memoizing caches (process-global, shared with tests and benches).
// ---------------------------------------------------------------------------

/// A once-per-key memo table: the map lock is only held to look up or insert
/// the per-key cell, so concurrent tasks computing *different* keys never
/// serialize, while concurrent requests for the *same* key compute it once.
struct Memo<K, V> {
    map: OnceLock<Mutex<HashMap<K, Arc<OnceLock<V>>>>>,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    const fn new() -> Self {
        Memo { map: OnceLock::new() }
    }

    fn get_or_compute(&self, key: K, f: impl FnOnce() -> V) -> V {
        self.get_or_compute_tracked(key, f).0
    }

    /// [`Memo::get_or_compute`], also reporting whether the value was already
    /// present (`true` = cache hit). A racing miss — the cell was empty when
    /// we looked but another task populates it first — still reports a miss,
    /// which matches the wall-clock reality: this task waited for the compute.
    fn get_or_compute_tracked(&self, key: K, f: impl FnOnce() -> V) -> (V, bool) {
        let cell = {
            let mut m = self.map.get_or_init(|| Mutex::new(HashMap::new())).lock();
            Arc::clone(m.entry(key).or_default())
        };
        let hit = cell.get().is_some();
        (cell.get_or_init(f).clone(), hit)
    }
}

/// A memoized CPU-oracle run, with the wall-clock cost of computing it.
pub struct OracleEntry {
    pub run: CpuRun,
    /// Wall seconds spent simulating the baseline (0-cost for cache hits).
    pub wall_secs: f64,
}

type DatasetKey = (String, Scale);
/// Oracle results depend on the host model, so the key carries its
/// fingerprint alongside benchmark and scale.
type OracleKey = (String, Scale, String);
/// Compiles depend on the dataset (profitability env), the model, and the
/// tuning point's lowering basis — *not* on its launch geometry.
type CompileKey = (String, ModelKind, Scale, TuningPoint);

static DATASETS: Memo<DatasetKey, Arc<DataSet>> = Memo::new();
static ORACLES: Memo<OracleKey, Arc<OracleEntry>> = Memo::new();
static COMPILES: Memo<CompileKey, Arc<CompiledProgram>> = Memo::new();

/// The memoized dataset for a benchmark at a scale.
pub fn cached_dataset(bench: &dyn Benchmark, scale: Scale) -> Arc<DataSet> {
    DATASETS.get_or_compute((bench.spec().name.to_string(), scale), || Arc::new(bench.dataset(scale)))
}

/// The memoized sequential CPU oracle for a benchmark at a scale. Computed
/// once per (benchmark, scale, host model) no matter how many sweep tasks,
/// tests, or benches request it.
pub fn cached_oracle(bench: &dyn Benchmark, scale: Scale, cfg: &MachineConfig) -> Arc<OracleEntry> {
    cached_oracle_tracked(bench, scale, cfg).0
}

/// [`cached_oracle`], also reporting whether the oracle was served from a
/// cache — the in-process memo or the persistent store — (`true`) or
/// simulated by this call (`false`).
///
/// A freshly simulated oracle is spilled to the persistent store under a
/// digest of (benchmark, scale, host config), so the next *process* loads
/// the baseline instead of re-simulating it — the sequential CPU runs are
/// the sweep's critical path, and they are bit-stable by construction.
pub fn cached_oracle_tracked(bench: &dyn Benchmark, scale: Scale, cfg: &MachineConfig) -> (Arc<OracleEntry>, bool) {
    let key = (bench.spec().name.to_string(), scale, format!("{:?}", cfg.host));
    let disk_key = format!("oracle/{}/{:?}/{}", key.0, key.1, key.2).into_bytes();
    let (entry, mut hit) = ORACLES.get_or_compute_tracked(key, || {
        if let Some(run) = launch_store::get_blob(launch_store::KIND_ORACLE, &disk_key).and_then(|p| decode_oracle(&p))
        {
            // Warm-started from disk: the simulation cost was paid by an
            // earlier process, so this one records none.
            return Arc::new(OracleEntry { run, wall_secs: 0.0 });
        }
        let ds = cached_dataset(bench, scale);
        let t0 = Instant::now();
        let run = crate::eval::run_baseline(bench, &ds, cfg);
        launch_store::put_blob(launch_store::KIND_ORACLE, disk_key.clone(), encode_oracle(&run));
        Arc::new(OracleEntry { run, wall_secs: t0.elapsed().as_secs_f64() })
    });
    // A disk warm-start is a cache hit from the caller's point of view.
    hit = hit || entry.wall_secs == 0.0;
    (entry, hit)
}

fn encode_oracle(run: &CpuRun) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(run.data.bufs.len() as u32);
    for b in &run.data.bufs {
        e.buffer(b);
    }
    e.u32(run.scalars.len() as u32);
    for v in &run.scalars {
        e.value(v);
    }
    e.f64(run.cycles);
    e.f64(run.secs);
    e.u64(run.ops);
    e.u64(run.accesses);
    e.buf
}

fn decode_oracle(bytes: &[u8]) -> Option<CpuRun> {
    let mut d = Dec::new(bytes);
    let nb = d.u32()? as usize;
    let mut bufs = Vec::with_capacity(nb.min(1024));
    for _ in 0..nb {
        bufs.push(d.buffer()?);
    }
    let ns = d.u32()? as usize;
    let mut scalars = Vec::with_capacity(ns.min(4096));
    for _ in 0..ns {
        scalars.push(d.value()?);
    }
    let run = CpuRun {
        data: acceval_ir::program::HostData { bufs },
        scalars,
        cycles: d.f64()?,
        secs: d.f64()?,
        ops: d.u64()?,
        accesses: d.u64()?,
    };
    d.done().then_some(run)
}

/// The memoized compile of a benchmark's port, re-pointed at `tuning`'s
/// launch geometry. Tuning points sharing a lowering basis share one
/// `compile_port` invocation; the cache is keyed by value, so the compiled
/// artifact is identical no matter which task populated it.
pub fn cached_compile(
    bench: &dyn Benchmark,
    kind: ModelKind,
    scale: Scale,
    tuning: Option<&TuningPoint>,
) -> CompiledProgram {
    cached_compile_tracked(bench, kind, scale, tuning).0
}

/// [`cached_compile`], also reporting whether the lowering-basis compile was
/// served from the cache (`true`) or performed by this call (`false`). The
/// geometry retarget is pure and always runs; only the lowering is memoized.
pub fn cached_compile_tracked(
    bench: &dyn Benchmark,
    kind: ModelKind,
    scale: Scale,
    tuning: Option<&TuningPoint>,
) -> (CompiledProgram, bool) {
    let pt = tuning.copied().unwrap_or_else(|| TuningPoint::best_for(kind));
    let basis = pt.lowering_basis();
    let (base, hit) = COMPILES.get_or_compute_tracked((bench.spec().name.to_string(), kind, scale, basis), || {
        let ds = cached_dataset(bench, scale);
        Arc::new(compile_port(&bench.port(kind), kind, &ds, Some(&basis)))
    });
    (base.with_geometry(&pt), hit)
}

// ---------------------------------------------------------------------------
// Task enumeration.
// ---------------------------------------------------------------------------

/// One unit of sweep work: a benchmark run under a model at one tuning
/// point (`None` = the model's default point, the Figure 1 bar), on one
/// device of the generation family (`None` = the sweep config's device).
#[derive(Debug, Clone, Serialize)]
pub struct SweepTask {
    pub benchmark: String,
    pub model: ModelKind,
    pub tuning: Option<TuningPoint>,
    /// Device preset slug ([`DeviceConfig::presets`]) this task runs on;
    /// `None` runs on the device of the `MachineConfig` handed to the sweep.
    pub device: Option<String>,
}

/// Enumerate the full (benchmark × model × tuning-point) task list.
///
/// The default point is always present (as `tuning: None`); with
/// `with_tuning`, every *distinct* point of the model's tuning space is
/// added. Points are deduplicated by value — no assumption is made about
/// where the default sits in the space or whether the space repeats itself.
pub fn enumerate_tasks(benches: &[&dyn Benchmark], with_tuning: bool) -> Vec<SweepTask> {
    let mut tasks = Vec::new();
    for b in benches {
        let name = b.spec().name;
        for kind in ModelKind::figure1_models() {
            tasks.push(SweepTask { benchmark: name.to_string(), model: kind, tuning: None, device: None });
            if with_tuning && kind != ModelKind::ManualCuda {
                let mut seen = vec![TuningPoint::best_for(kind)];
                for pt in model(kind).tuning_space() {
                    if !seen.contains(&pt) {
                        seen.push(pt);
                        tasks.push(SweepTask {
                            benchmark: name.to_string(),
                            model: kind,
                            tuning: Some(pt),
                            device: None,
                        });
                    }
                }
            }
        }
    }
    tasks
}

/// Enumerate the device-matrix task list: the full (benchmark × model ×
/// tuning-point) grid of [`enumerate_tasks`], once per named device preset
/// (device outermost, so records group by generation).
///
/// Preset names resolve through [`DeviceConfig::preset`] — slugs, constructor
/// names, and part-number aliases all work, and aliased duplicates collapse
/// to one device. An unknown name is an `Err` naming the known presets; it is
/// never silently dropped or defaulted.
pub fn enumerate_device_tasks(
    benches: &[&dyn Benchmark],
    with_tuning: bool,
    devices: &[&str],
) -> Result<Vec<SweepTask>, String> {
    let mut slugs: Vec<&'static str> = Vec::new();
    for name in devices {
        let d = DeviceConfig::preset(name).ok_or_else(|| {
            let known: Vec<&str> = DeviceConfig::presets().iter().map(|(s, _)| *s).collect();
            format!("unknown device preset `{name}`; known presets: {}", known.join(", "))
        })?;
        let slug = d.slug().expect("every preset has a slug");
        if !slugs.contains(&slug) {
            slugs.push(slug);
        }
    }
    let mut tasks = Vec::new();
    for slug in slugs {
        for t in enumerate_tasks(benches, with_tuning) {
            tasks.push(SweepTask { device: Some(slug.to_string()), ..t });
        }
    }
    Ok(tasks)
}

// ---------------------------------------------------------------------------
// Records and the sweep manifest.
// ---------------------------------------------------------------------------

/// The structured result of one sweep task.
#[derive(Debug, Clone, Serialize)]
pub struct RunRecord {
    /// Index into the enumerated task list (records stay in this order no
    /// matter how the scheduler interleaved them).
    pub task: usize,
    pub benchmark: String,
    pub model: ModelKind,
    /// The tuning point run (`None` = the model's default point).
    pub tuning: Option<TuningPoint>,
    pub default_point: bool,
    /// Generation slug of the device this task simulated (the preset name
    /// for matrix tasks, the sweep config's device otherwise).
    pub device: String,
    /// Simulated GPU-version seconds.
    pub secs: f64,
    /// Oracle seconds over simulated seconds (0 when invalid).
    pub speedup: f64,
    /// `Ok` if outputs matched the oracle within tolerance.
    pub valid: Result<(), String>,
    /// Totals of the run's events ([`Summary::of`]).
    pub summary: Summary,
    pub unsupported_regions: usize,
    /// Whether this task's CPU oracle was served from the memo cache.
    pub oracle_cached: bool,
    /// Whether this task's lowering-basis compile was served from the cache.
    pub compile_cached: bool,
    /// The folded run profile (only when the sweep ran with profiling).
    pub profile: Option<crate::profile::RunProfile>,
    /// The costliest kernel of this task's run.
    pub kernel_hotspot: Option<crate::eval::KernelHotspot>,
    /// Wall-clock seconds this task spent simulating (harness time, not
    /// simulated time; nondeterministic and excluded from figure output).
    pub wall_secs: f64,
    /// The harness counters this task bumped: its thread's delta over the
    /// task (launches, compiles and probes run on the task's thread).
    pub counters: Counters,
}

/// The oracle cost entry of the manifest.
#[derive(Debug, Clone, Serialize)]
pub struct OracleRecord {
    pub benchmark: String,
    pub dataset: String,
    /// Simulated sequential CPU seconds (the Figure 1 denominator).
    pub cpu_secs: f64,
    /// Wall seconds this sweep spent computing it: 0 when every task was
    /// served from the in-process memo or the persistent store.
    pub wall_secs: f64,
}

/// Wall-clock totals for a group of tasks (per benchmark or per model).
#[derive(Debug, Clone, Serialize)]
pub struct GroupTotals {
    pub name: String,
    pub tasks: usize,
    pub wall_secs: f64,
    /// Simulated GPU seconds summed over the group.
    pub sim_secs: f64,
    pub kernel_secs: f64,
    pub transfer_secs: f64,
    pub kernels_launched: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    /// The group's records' counters, summed.
    pub counters: Counters,
}

/// One entry of the slowest-task report.
#[derive(Debug, Clone, Serialize)]
pub struct SlowTask {
    pub task: usize,
    pub benchmark: String,
    pub model: ModelKind,
    pub wall_secs: f64,
}

/// Everything a sweep produced: per-task records plus a timing/accounting
/// report. Written next to `results/figure1.csv` as the sweep manifest.
#[derive(Debug, Clone, Serialize)]
pub struct SweepManifest {
    pub scale: String,
    pub with_tuning: bool,
    /// Distinct device slugs the records cover, in task order (one entry
    /// for a plain sweep, one per preset for a device-matrix sweep).
    pub devices: Vec<String>,
    /// Worker threads the sweep ran on.
    pub workers: usize,
    pub tasks: usize,
    /// Wall seconds for the whole sweep.
    pub wall_secs: f64,
    /// Sum of per-task wall seconds (the serial-equivalent cost).
    pub task_wall_secs: f64,
    /// Wall seconds this sweep spent computing oracles (once per benchmark;
    /// oracles served from the memo or the store count 0).
    pub oracle_wall_secs: f64,
    /// The longest oracle-then-slowest-task chain, counting each oracle once:
    /// no schedule can finish the sweep faster than this.
    pub critical_path_secs: f64,
    /// task_wall_secs / (wall_secs * workers); 1.0 = perfect scaling.
    pub parallel_efficiency: f64,
    pub oracles: Vec<OracleRecord>,
    pub records: Vec<RunRecord>,
    pub by_benchmark: Vec<GroupTotals>,
    pub by_model: Vec<GroupTotals>,
    /// The five slowest tasks by wall clock.
    pub slowest_tasks: Vec<SlowTask>,
    /// The launch-cache policy the sweep ran under (`on`/`off`).
    pub launch_cache: String,
    /// The persistent-store policy the sweep ran under
    /// (`auto`/`auto-off`/`on`/`off`/`path`).
    pub store: String,
    /// The engine the sweep ran under (`tree`/`bytecode`).
    pub engine: String,
    /// Every record's counters, summed.
    pub counters: Counters,
    /// The process-lifetime counters when the manifest was built: the
    /// caches outlive sweeps, and the store's spiller runs on no task's
    /// thread.
    pub process: Counters,
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

/// The slug a device is attributed under in records and the matrix CSV: the
/// preset slug when the config matches one, the marketing name otherwise.
fn device_label(d: &DeviceConfig) -> String {
    d.slug().map(str::to_string).unwrap_or_else(|| d.name.clone())
}

fn run_task(
    bench: &dyn Benchmark,
    task: &SweepTask,
    index: usize,
    cfg: &MachineConfig,
    scale: Scale,
    with_profile: bool,
) -> RunRecord {
    let t0 = Instant::now();
    // Tasks never migrate threads mid-run, so the thread's counter delta is
    // this task's.
    let c0 = Counters::thread();
    let ds = cached_dataset(bench, scale);
    let (oracle, oracle_cached) = cached_oracle_tracked(bench, scale, cfg);
    let (compiled, compile_cached) = cached_compile_tracked(bench, task.model, scale, task.tuning.as_ref());
    let (r, profile) = if with_profile {
        let mut sink = RecordingSink::new();
        let r = run_compiled_traced(bench, &compiled, &ds, cfg, &oracle.run, &mut sink);
        let profile = crate::profile::RunProfile::from_events(&task.benchmark, task.model, &sink.events);
        (r, Some(profile))
    } else {
        (run_compiled(bench, &compiled, &ds, cfg, &oracle.run), None)
    };
    RunRecord {
        task: index,
        benchmark: task.benchmark.clone(),
        model: task.model,
        tuning: task.tuning,
        default_point: task.tuning.is_none(),
        device: task.device.clone().unwrap_or_else(|| device_label(&cfg.device)),
        secs: r.secs,
        speedup: r.speedup,
        valid: r.valid,
        summary: r.summary,
        unsupported_regions: r.unsupported_regions,
        oracle_cached,
        compile_cached,
        profile,
        kernel_hotspot: r.kernel_hotspot,
        wall_secs: t0.elapsed().as_secs_f64(),
        counters: Counters::thread().since(&c0),
    }
}

/// Run the flat sweep over `benches` and assemble the manifest.
///
/// Tasks execute in parallel via work stealing; the record list is ordered
/// by task index, so the figure-relevant output is bit-identical regardless
/// of scheduling.
pub fn run_sweep(benches: &[&dyn Benchmark], cfg: &MachineConfig, scale: Scale, with_tuning: bool) -> SweepManifest {
    run_sweep_profiled(benches, cfg, scale, with_tuning, false)
}

/// [`run_sweep`] with per-task profiling: each record carries the
/// [`crate::profile::RunProfile`] folded from its recorded trace.
/// Figure-relevant fields are bit-identical to the unprofiled sweep — the
/// trace is recorded off to the side, not threaded into the cost model.
pub fn run_sweep_profiled(
    benches: &[&dyn Benchmark],
    cfg: &MachineConfig,
    scale: Scale,
    with_tuning: bool,
    with_profile: bool,
) -> SweepManifest {
    run_enumerated(benches, enumerate_tasks(benches, with_tuning), cfg, scale, with_tuning, with_profile)
}

/// Run the device-matrix sweep: every (benchmark × model × tuning-point)
/// task once per named device preset, through the same work-stealing
/// executor — the oracle (host-only key) and lowering-basis compiles
/// (device-independent) are shared across the whole matrix, so only the
/// simulated GPU runs multiply.
///
/// `cfg` supplies the host and link; each task's device comes from its
/// preset. Unknown preset names are an `Err` (see
/// [`enumerate_device_tasks`]), surfaced before any work starts.
pub fn run_device_matrix(
    benches: &[&dyn Benchmark],
    cfg: &MachineConfig,
    scale: Scale,
    with_tuning: bool,
    devices: &[&str],
) -> Result<SweepManifest, String> {
    let tasks = enumerate_device_tasks(benches, with_tuning, devices)?;
    Ok(run_enumerated(benches, tasks, cfg, scale, with_tuning, false))
}

/// The shared executor behind [`run_sweep_profiled`] and
/// [`run_device_matrix`]: run an enumerated task list and assemble the
/// manifest.
fn run_enumerated(
    benches: &[&dyn Benchmark],
    tasks: Vec<SweepTask>,
    cfg: &MachineConfig,
    scale: Scale,
    with_tuning: bool,
    with_profile: bool,
) -> SweepManifest {
    let t0 = Instant::now();
    let by_name: HashMap<&str, &dyn Benchmark> = benches.iter().map(|b| (b.spec().name, *b)).collect();
    // One MachineConfig per device slug the task list names: same host and
    // link as the base config (the Figure 1 denominator is shared), device
    // swapped per preset. Tasks without a device run on the base config.
    let device_cfgs: HashMap<&str, MachineConfig> = tasks
        .iter()
        .filter_map(|t| t.device.as_deref())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|s| {
            let device = DeviceConfig::preset(s).unwrap_or_else(|| {
                panic!("unknown device preset `{s}` in task list (not from enumerate_device_tasks?)")
            });
            (s, MachineConfig { device, host: cfg.host.clone(), link: cfg.link.clone() })
        })
        .collect();

    // The worker count the pool will actually use for this task list (the
    // shim caps its pool at the task count) — computed up front so the
    // manifest records what ran, not what a later env read would claim.
    let workers = rayon::current_num_threads().min(tasks.len().max(1)).max(1);
    let indexed: Vec<(usize, &SweepTask)> = tasks.iter().enumerate().collect();
    let records: Vec<RunRecord> = indexed
        .par_iter()
        .map(|(i, t)| {
            let task_cfg = t.device.as_deref().map_or(cfg, |s| &device_cfgs[s]);
            run_task(by_name[t.benchmark.as_str()], t, *i, task_cfg, scale, with_profile)
        })
        .collect();
    let wall_secs = t0.elapsed().as_secs_f64();
    // Distinct device slugs in record (= task) order.
    let mut devices: Vec<String> = Vec::new();
    for r in &records {
        if !devices.contains(&r.device) {
            devices.push(r.device.clone());
        }
    }

    // Oracle accounting (all cache hits at this point). An oracle's compute
    // time belongs to this sweep only if one of its tasks missed the memo
    // (computed it, or waited on the task that did); otherwise an earlier
    // sweep or the store paid for it.
    let oracles: Vec<OracleRecord> = benches
        .iter()
        .map(|b| {
            let name = b.spec().name;
            let e = cached_oracle(*b, scale, cfg);
            let computed_here = records.iter().any(|r| r.benchmark == name && !r.oracle_cached);
            OracleRecord {
                benchmark: name.to_string(),
                dataset: cached_dataset(*b, scale).label.clone(),
                cpu_secs: e.run.secs,
                wall_secs: if computed_here { e.wall_secs } else { 0.0 },
            }
        })
        .collect();

    let group = |sel: &dyn Fn(&RunRecord) -> bool, name: String| {
        let mut g = GroupTotals {
            name,
            tasks: 0,
            wall_secs: 0.0,
            sim_secs: 0.0,
            kernel_secs: 0.0,
            transfer_secs: 0.0,
            kernels_launched: 0,
            h2d_bytes: 0,
            d2h_bytes: 0,
            counters: Counters::default(),
        };
        for r in records.iter().filter(|r| sel(r)) {
            g.tasks += 1;
            g.wall_secs += r.wall_secs;
            g.sim_secs += r.secs;
            g.kernel_secs += r.summary.kernel_secs;
            g.transfer_secs += r.summary.transfer_secs;
            g.kernels_launched += r.summary.kernels_launched;
            g.h2d_bytes += r.summary.h2d_bytes;
            g.d2h_bytes += r.summary.d2h_bytes;
            g.counters += &r.counters;
        }
        g
    };
    let by_benchmark: Vec<GroupTotals> =
        benches.iter().map(|b| group(&|r| r.benchmark == b.spec().name, b.spec().name.to_string())).collect();
    let by_model: Vec<GroupTotals> =
        ModelKind::figure1_models().iter().map(|k| group(&|r| r.model == *k, k.display().to_string())).collect();

    let mut slowest: Vec<&RunRecord> = records.iter().collect();
    slowest.sort_by(|a, b| b.wall_secs.partial_cmp(&a.wall_secs).unwrap_or(std::cmp::Ordering::Equal));
    let slowest_tasks: Vec<SlowTask> = slowest
        .iter()
        .take(5)
        .map(|r| SlowTask { task: r.task, benchmark: r.benchmark.clone(), model: r.model, wall_secs: r.wall_secs })
        .collect();

    let task_wall_secs: f64 = records.iter().map(|r| r.wall_secs).sum();
    let oracle_wall_secs: f64 = oracles.iter().map(|o| o.wall_secs).sum();
    // A task that missed the oracle memo already spent the oracle's compute
    // time (computing it or waiting on it) inside its own wall time, so only
    // its remainder chains after the oracle.
    let critical_path_secs = oracles
        .iter()
        .map(|o| {
            let slowest_rest = records
                .iter()
                .filter(|r| r.benchmark == o.benchmark)
                .map(|r| if r.oracle_cached { r.wall_secs } else { (r.wall_secs - o.wall_secs).max(0.0) })
                .fold(0.0f64, f64::max);
            o.wall_secs + slowest_rest
        })
        .fold(0.0f64, f64::max);
    let parallel_efficiency =
        if wall_secs > 0.0 { (task_wall_secs / (wall_secs * workers as f64)).min(1.0) } else { 1.0 };

    let counters = records.iter().map(|r| &r.counters).sum();

    SweepManifest {
        scale: format!("{scale:?}"),
        with_tuning,
        devices,
        workers,
        tasks: tasks.len(),
        wall_secs,
        task_wall_secs,
        oracle_wall_secs,
        critical_path_secs,
        parallel_efficiency,
        oracles,
        records,
        by_benchmark,
        by_model,
        slowest_tasks,
        launch_cache: launch_cache_name().to_string(),
        store: launch_store::store_policy_name().to_string(),
        engine: acceval_ir::interp::gpu::engine_name().to_string(),
        counters,
        process: Counters::process(),
    }
}

// ---------------------------------------------------------------------------
// Aggregation back into the Figure 1 shapes.
// ---------------------------------------------------------------------------

/// Fold a manifest's flat records into per-benchmark [`BenchResult`]s
/// (benchmarks in manifest/oracle order, models in Figure 1 order).
///
/// Tuning bands cover every *valid* run of a model — default point
/// included — and are omitted entirely when no run of the model validated,
/// so an invalid run can never seed (or silently widen) a band.
pub fn bench_results(manifest: &SweepManifest) -> Vec<BenchResult> {
    fold_results(&manifest.oracles, &manifest.records.iter().collect::<Vec<_>>())
}

/// [`bench_results`] restricted to one device of a matrix sweep: only
/// records attributed to `device` fold into the figure shapes, so each
/// generation gets its own Figure 1 over the shared CPU denominator.
pub fn bench_results_for_device(manifest: &SweepManifest, device: &str) -> Vec<BenchResult> {
    fold_results(&manifest.oracles, &manifest.records.iter().filter(|r| r.device == device).collect::<Vec<_>>())
}

fn fold_results(oracles: &[OracleRecord], records: &[&RunRecord]) -> Vec<BenchResult> {
    oracles
        .iter()
        .map(|o| {
            let recs: Vec<&RunRecord> = records.iter().filter(|r| r.benchmark == o.benchmark).copied().collect();
            let mut runs = Vec::new();
            let mut bands = Vec::new();
            for kind in ModelKind::figure1_models() {
                if let Some(d) = recs.iter().find(|r| r.model == kind && r.default_point) {
                    runs.push(ModelRun {
                        model: kind,
                        secs: d.secs,
                        speedup: d.speedup,
                        summary: d.summary,
                        valid: d.valid.clone(),
                        unsupported_regions: d.unsupported_regions,
                        kernel_hotspot: d.kernel_hotspot.clone(),
                    });
                }
                let of_kind: Vec<&&RunRecord> = recs.iter().filter(|r| r.model == kind).collect();
                if of_kind.iter().any(|r| !r.default_point) {
                    let valid: Vec<f64> = of_kind.iter().filter(|r| r.valid.is_ok()).map(|r| r.speedup).collect();
                    if !valid.is_empty() {
                        let lo = valid.iter().copied().fold(f64::INFINITY, f64::min);
                        let hi = valid.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                        bands.push((kind, lo, hi));
                    }
                }
            }
            BenchResult {
                name: o.benchmark.clone(),
                dataset: o.dataset.clone(),
                cpu_secs: o.cpu_secs,
                runs,
                tuning_bands: bands,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_enumeration_dedupes_and_orders() {
        let b = acceval_benchmarks::jacobi::Jacobi;
        let benches: [&dyn Benchmark; 1] = [&b];
        let tasks = enumerate_tasks(&benches, true);
        // One default task per Figure-1 model, plus distinct tuning points
        // for every model but ManualCuda.
        let defaults = tasks.iter().filter(|t| t.tuning.is_none()).count();
        assert_eq!(defaults, ModelKind::figure1_models().len());
        assert!(!tasks.iter().any(|t| t.model == ModelKind::ManualCuda && t.tuning.is_some()));
        // No tuning task duplicates the default point or another task.
        for t in tasks.iter().filter(|t| t.tuning.is_some()) {
            assert_ne!(t.tuning.unwrap(), TuningPoint::best_for(t.model));
        }
        for (i, a) in tasks.iter().enumerate() {
            for b in &tasks[i + 1..] {
                assert!(
                    a.benchmark != b.benchmark || a.model != b.model || a.tuning != b.tuning,
                    "duplicate task {a:?}"
                );
            }
        }
    }

    #[test]
    fn oracle_cache_computes_once() {
        let cfg = MachineConfig::keeneland_node();
        let b = acceval_benchmarks::jacobi::Jacobi;
        let first = cached_oracle(&b, Scale::Test, &cfg);
        let second = cached_oracle(&b, Scale::Test, &cfg);
        assert!(Arc::ptr_eq(&first, &second), "repeated requests must share one CpuRun");
        assert_eq!(first.run.secs.to_bits(), second.run.secs.to_bits());
    }

    #[test]
    fn geometry_retarget_matches_direct_compile() {
        // The memoized compile (canonical basis + retarget) must reproduce
        // the direct compile of every tuning point bit-for-bit.
        let b = acceval_benchmarks::jacobi::Jacobi;
        let ds = cached_dataset(&b, Scale::Test);
        for kind in ModelKind::figure1_models() {
            let mut points = vec![None];
            if kind != ModelKind::ManualCuda {
                points.extend(model(kind).tuning_space().into_iter().map(Some));
            }
            for pt in points {
                let direct = compile_port(&b.port(kind), kind, &ds, pt.as_ref());
                let cached = cached_compile(&b, kind, Scale::Test, pt.as_ref());
                assert_eq!(direct.kernels.len(), cached.kernels.len());
                for (region, plans) in &direct.kernels {
                    assert_eq!(plans, &cached.kernels[region], "{kind:?} {pt:?} region {region}");
                }
            }
        }
    }
}
