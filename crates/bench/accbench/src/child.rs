//! The measured process: builds the datasets, runs sweep passes, checks
//! their outputs, and reports to the parent over stdout, one line each:
//!
//! ```text
//! ready                                 datasets built (the parent times setup up to here)
//! calib <seconds>                      a calibration loop, before each measured pass and after the last
//! pass <measured> <wall_s> <attempted> <failed>
//! layer <name> <value>                  after each measured traced pass
//! rss_mb <peak>                         at exit
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use acceval::benchmarks::{all_benchmarks, Benchmark, Scale};
use acceval::figures::Figure1;
use acceval::ir::interp::store::flush_store;
use acceval::models::ModelKind;
use acceval::report::figure1_csv;
use acceval::sim::MachineConfig;
use acceval::sweep::{
    bench_results, cached_compile_tracked, cached_dataset, cached_oracle_tracked, enumerate_tasks, run_sweep,
};

use crate::host;
use crate::layers::{self, PlanStats};
use crate::trace::{fold, spans_tsv, PassTotals, StampSink, TaskTrace};

/// Which tasks a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskSet {
    /// The 65 default-point tasks of Figure 1 (13 benchmarks × 5 models).
    Fig1,
    /// Every tuning point of the three iterative benchmarks whose launch
    /// working set overflows the launch cache.
    Tuning,
}

const TUNING_BENCHES: [&str; 3] = ["BFS", "NW", "LUD"];

impl TaskSet {
    fn benches(self) -> Vec<Box<dyn Benchmark>> {
        let all = all_benchmarks();
        match self {
            TaskSet::Fig1 => all,
            TaskSet::Tuning => all.into_iter().filter(|b| TUNING_BENCHES.contains(&b.spec().name)).collect(),
        }
    }

    fn with_tuning(self) -> bool {
        self == TaskSet::Tuning
    }

    fn reference_file(self) -> &'static str {
        match self {
            TaskSet::Fig1 => "figure1.csv",
            TaskSet::Tuning => "figure1_tuning.csv",
        }
    }
}

/// How many measured passes to run: a fixed count, or as many as fit in
/// `seconds` (at least `min`), judged by the last pass's length.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub reps: Option<usize>,
    pub seconds: f64,
    pub min: usize,
}

impl Budget {
    pub fn more(&self, done: usize, spent: f64, last: f64) -> bool {
        match self.reps {
            Some(n) => done < n,
            None => done < self.min || spent + last <= self.seconds,
        }
    }
}

/// One child process's work.
#[derive(Debug, Clone)]
pub struct Job {
    pub set: TaskSet,
    pub scale: Scale,
    /// Benchmark order of the measured passes.
    pub seed: u64,
    /// Benchmark order of the unmeasured pass that fills the caches.
    pub prime_seed: u64,
    pub workers: usize,
    pub traced: bool,
    /// Run one unmeasured pass first.
    pub prime: bool,
    pub budget: Budget,
    /// Directory holding reference CSVs; `None` uses the built-in ones.
    pub reference: Option<PathBuf>,
}

impl Job {
    pub fn to_args(&self) -> Vec<String> {
        let mut a = vec![
            format!("--set={}", if self.set == TaskSet::Fig1 { "fig1" } else { "tuning" }),
            format!("--scale={}", scale_name(self.scale)),
            format!("--seed={}", self.seed),
            format!("--prime-seed={}", self.prime_seed),
            format!("--workers={}", self.workers),
            format!("--traced={}", u8::from(self.traced)),
            format!("--prime={}", u8::from(self.prime)),
            format!("--seconds={}", self.budget.seconds),
            format!("--min={}", self.budget.min),
        ];
        if let Some(n) = self.budget.reps {
            a.push(format!("--reps={n}"));
        }
        if let Some(r) = &self.reference {
            a.push(format!("--reference={}", r.display()));
        }
        a
    }

    fn from_args(args: &[String]) -> Result<Job, String> {
        let mut job = Job {
            set: TaskSet::Fig1,
            scale: Scale::Paper,
            seed: 0,
            prime_seed: 0,
            workers: 1,
            traced: false,
            prime: false,
            budget: Budget { reps: None, seconds: 0.0, min: 0 },
            reference: None,
        };
        for a in args {
            let (k, v) = a.split_once('=').ok_or_else(|| format!("child: bad argument `{a}`"))?;
            let num = || v.parse::<u64>().map_err(|_| format!("child: bad number in `{a}`"));
            match k {
                "--set" => {
                    job.set = match v {
                        "fig1" => TaskSet::Fig1,
                        "tuning" => TaskSet::Tuning,
                        _ => return Err(format!("child: unknown task set `{v}`")),
                    }
                }
                "--scale" => job.scale = parse_scale(v)?,
                "--seed" => job.seed = num()?,
                "--prime-seed" => job.prime_seed = num()?,
                "--workers" => job.workers = num()? as usize,
                "--traced" => job.traced = v == "1",
                "--prime" => job.prime = v == "1",
                "--seconds" => job.budget.seconds = v.parse().map_err(|_| format!("child: bad `{a}`"))?,
                "--min" => job.budget.min = num()? as usize,
                "--reps" => job.budget.reps = Some(num()? as usize),
                "--reference" => job.reference = Some(PathBuf::from(v)),
                _ => return Err(format!("child: unknown argument `{a}`")),
            }
        }
        Ok(job)
    }
}

pub fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Paper => "paper",
        Scale::Test => "test",
    }
}

pub fn parse_scale(v: &str) -> Result<Scale, String> {
    match v {
        "paper" => Ok(Scale::Paper),
        "test" => Ok(Scale::Test),
        _ => Err(format!("unknown scale `{v}` (paper | test)")),
    }
}

/// The benchmark order handed to the sweep: paper order for seed 0, a
/// seeded shuffle otherwise. The order changes scheduling and cache
/// interleaving, never the simulated results.
pub fn permute<T>(items: &mut [T], seed: u64) {
    let mut s = seed;
    let mut next = || {
        // splitmix64
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    if seed == 0 {
        return;
    }
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The Figure 1 CSV rows a run must reproduce.
struct Reference {
    rows: Vec<String>,
}

impl Reference {
    fn load(job: &Job) -> Result<Reference, String> {
        let text = match &job.reference {
            Some(dir) => {
                let path = dir.join(job.set.reference_file());
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?
            }
            None => builtin_reference(job.scale, job.set).to_string(),
        };
        let rows = text.lines().skip(1).filter(|l| !l.is_empty()).map(str::to_string).collect();
        Ok(Reference { rows })
    }

    fn row(&self, bench: &str, model: &str) -> Option<&str> {
        self.rows.iter().map(String::as_str).find(|r| {
            let mut f = r.split(',');
            f.next() == Some(bench) && f.next() == Some(model)
        })
    }

    /// Rows of `csv` that differ from the reference rows of `benches`,
    /// compared as sorted lists so a permuted benchmark order still matches.
    fn mismatched_rows(&self, csv: &str, benches: &[&str]) -> usize {
        let mut got: Vec<&str> = csv.lines().skip(1).filter(|l| !l.is_empty()).collect();
        let mut want: Vec<&str> = self
            .rows
            .iter()
            .map(String::as_str)
            .filter(|r| benches.contains(&r.split(',').next().unwrap_or("")))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        let missing: Vec<&&str> = want.iter().filter(|r| got.binary_search(r).is_err()).collect();
        for r in &missing {
            eprintln!("accbench: expected row missing: {r}");
        }
        let extra = got.iter().filter(|r| want.binary_search(r).is_err()).count();
        missing.len().max(extra)
    }

    /// Whether one traced task reproduces its reference row: the default
    /// point's speedup to the printed digits, a tuning point's inside the
    /// printed band.
    fn task_matches(&self, bench: &str, model: ModelKind, default_point: bool, speedup: f64) -> bool {
        let Some(row) = self.row(bench, model_short(model)) else { return false };
        let f: Vec<&str> = row.split(',').collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(f64::NAN);
        if default_point {
            f.get(2) == Some(&format!("{speedup:.4}").as_str())
        } else {
            num(4) - 5e-5 <= speedup && speedup <= num(5) + 5e-5
        }
    }
}

fn builtin_reference(scale: Scale, set: TaskSet) -> &'static str {
    match (scale, set) {
        (Scale::Paper, TaskSet::Fig1) => include_str!("../reference/paper/figure1.csv"),
        (Scale::Paper, TaskSet::Tuning) => include_str!("../reference/paper/figure1_tuning.csv"),
        (Scale::Test, TaskSet::Fig1) => include_str!("../reference/test/figure1.csv"),
        (Scale::Test, TaskSet::Tuning) => include_str!("../reference/test/figure1_tuning.csv"),
    }
}

/// The model column of the Figure 1 CSV (the report module keeps its own
/// copy of this mapping private).
fn model_short(m: ModelKind) -> &'static str {
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

struct Pass {
    wall_s: f64,
    attempted: usize,
    failed: usize,
    layers: Vec<(&'static str, f64)>,
}

struct Ctx<'a> {
    job: &'a Job,
    benches: Vec<&'a dyn Benchmark>,
    names: Vec<&'static str>,
    cfg: MachineConfig,
    reference: &'a Reference,
    setup_dataset_s: f64,
}

/// One sweep through the public entry points, timed end to end: the sweep,
/// the Figure 1 fold and CSV, and the store flush.
fn plain_pass(cx: &Ctx) -> Pass {
    let t0 = Instant::now();
    let manifest = run_sweep(&cx.benches, &cx.cfg, cx.job.scale, cx.job.set.with_tuning());
    let csv = figure1_csv(&Figure1 { results: bench_results(&manifest) });
    flush_store();
    let wall_s = t0.elapsed().as_secs_f64();
    let invalid = manifest.records.iter().filter(|r| r.valid.is_err()).count();
    let attempted = manifest.records.len();
    let failed = (invalid + cx.reference.mismatched_rows(&csv, &cx.names)).min(attempted);
    Pass { wall_s, attempted, failed, layers: Vec::new() }
}

/// The same tasks on the same number of workers, with a span around every
/// call into a layer and a timestamping trace sink inside each run.
fn traced_pass(cx: &Ctx) -> Pass {
    let tasks = enumerate_tasks(&cx.benches, cx.job.set.with_tuning());
    let by_name: HashMap<&str, &dyn Benchmark> = cx.benches.iter().map(|b| (b.spec().name, *b)).collect();
    let paper_pos: HashMap<&str, usize> =
        all_benchmarks().iter().enumerate().map(|(i, b)| (b.spec().name, i)).collect();
    // Each task's place among its benchmark's tasks (enumeration order).
    let mut seen: HashMap<&str, usize> = HashMap::new();
    let order: Vec<(usize, usize)> = tasks
        .iter()
        .map(|t| {
            let n = seen.entry(t.benchmark.as_str()).or_default();
            *n += 1;
            (paper_pos[t.benchmark.as_str()], *n)
        })
        .collect();
    let workers = cx.job.workers.clamp(1, tasks.len().max(1));
    let tail_from = tasks.len().saturating_sub(workers);
    let next = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let before = layers::counters();
    let t0 = Instant::now();
    let secs = |t: Instant| t.duration_since(t0).as_secs_f64();

    let run_one = |i: usize, worker: usize| -> TaskTrace {
        let task = &tasks[i];
        let bench = by_name[task.benchmark.as_str()];
        layers::with_launch_policy(i >= tail_from, || {
            let start = Instant::now();
            let ds = cached_dataset(bench, cx.job.scale);
            let o0 = Instant::now();
            let (oracle, oracle_hit) = cached_oracle_tracked(bench, cx.job.scale, &cx.cfg);
            let o1 = Instant::now();
            let (compiled, compile_hit) = cached_compile_tracked(bench, task.model, cx.job.scale, task.tuning.as_ref());
            let c1 = Instant::now();
            let mut sink = StampSink::new();
            let r0 = sink.last;
            let run = acceval::run_compiled_traced(bench, &compiled, &ds, &cx.cfg, &oracle.run, &mut sink);
            let end = Instant::now();
            let ok = run.valid.is_ok()
                && cx.reference.task_matches(&task.benchmark, task.model, task.tuning.is_none(), run.speedup);
            if !ok {
                eprintln!(
                    "accbench: task {} {:?} {:?} failed: {:?}",
                    task.benchmark, task.model, task.tuning, run.valid
                );
                failed.fetch_add(1, Ordering::Relaxed);
            }
            TaskTrace {
                order: order[i],
                worker,
                benchmark: task.benchmark.clone(),
                start: secs(start),
                end: secs(end),
                dataset_s: o0.duration_since(start).as_secs_f64(),
                oracle: (secs(o0), secs(o1)),
                oracle_simulated: !oracle_hit,
                compile_s: c1.duration_since(o1).as_secs_f64(),
                compile_hit,
                plans: if compile_hit { PlanStats::default() } else { layers::plan_stats(&compiled) },
                run: (secs(r0), secs(end)),
                launch_s: sink.launch_s,
                transfer_s: sink.transfer_s,
                host_s: sink.host_s,
                validate_s: end.duration_since(sink.last).as_secs_f64(),
                launch_us: sink.launch_us,
                sim_secs: run.secs,
                sim_kernel_secs: run.summary.kernel_secs,
                sim_transfer_secs: run.summary.transfer_secs,
                sim_kernels: run.summary.kernels_launched,
            }
        })
    };

    let mut traces: Vec<TaskTrace> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (next, run_one, n) = (&next, &run_one, tasks.len());
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return out;
                        }
                        out.push(run_one(i, w));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("traced sweep worker panicked")).collect()
    });
    let tasks_wall_s = t0.elapsed().as_secs_f64();
    let f0 = Instant::now();
    flush_store();
    let flush_s = f0.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let totals = PassTotals {
        workers,
        tasks_wall_s,
        flush_s,
        setup_dataset_s: cx.setup_dataset_s,
        counters: layers::counters().since(&before),
        store_disk_bytes: layers::store_disk_bytes(),
    };
    let layers = fold(&mut traces, &totals);
    if let Err(e) = std::fs::write("spans.tsv", spans_tsv(&traces)) {
        eprintln!("accbench: could not write spans.tsv: {e}");
    }
    Pass { wall_s, attempted: tasks.len(), failed: failed.into_inner(), layers }
}

pub fn main(args: &[String]) -> Result<(), String> {
    let job = Job::from_args(args)?;
    let owned = job.set.benches();
    let ordered = |seed: u64| {
        let mut benches: Vec<&dyn Benchmark> = owned.iter().map(|b| b.as_ref()).collect();
        permute(&mut benches, seed);
        benches
    };
    let t = Instant::now();
    for b in ordered(job.prime_seed) {
        cached_dataset(b, job.scale);
    }
    let setup_dataset_s = t.elapsed().as_secs_f64();
    println!("ready");
    let reference = Reference::load(&job)?;
    let ctx = |seed: u64| {
        let benches = ordered(seed);
        Ctx {
            job: &job,
            names: benches.iter().map(|b| b.spec().name).collect(),
            benches,
            cfg: MachineConfig::keeneland_node(),
            reference: &reference,
            setup_dataset_s,
        }
    };
    let run = |cx: &Ctx, measured: bool| {
        let p = if job.traced { traced_pass(cx) } else { plain_pass(cx) };
        println!("pass {} {} {} {}", u8::from(measured), p.wall_s, p.attempted, p.failed);
        if measured {
            for (name, v) in &p.layers {
                println!("layer {name} {v}");
            }
        }
        p.wall_s
    };
    if job.prime {
        run(&ctx(job.prime_seed), false);
    }
    // The machine's speed is sampled right next to the passes it rescales.
    let calibrate = || {
        for c in host::calibration_samples() {
            println!("calib {c}");
        }
    };
    let cx = ctx(job.seed);
    let (mut done, mut spent, mut last) = (0, 0.0, 0.0);
    while job.budget.more(done, spent, last) {
        calibrate();
        last = run(&cx, true);
        spent += last;
        done += 1;
    }
    if done > 0 {
        calibrate();
    }
    println!("rss_mb {}", host::peak_rss_mb());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_paper_order_and_seeds_permute() {
        let mut v: Vec<u32> = (0..13).collect();
        permute(&mut v, 0);
        assert_eq!(v, (0..13).collect::<Vec<_>>());
        let mut w = v.clone();
        permute(&mut w, 7);
        assert_ne!(w, v);
        w.sort_unstable();
        assert_eq!(w, v);
    }

    #[test]
    fn job_args_round_trip() {
        let job = Job {
            set: TaskSet::Tuning,
            scale: Scale::Test,
            seed: 7,
            prime_seed: 3,
            workers: 2,
            traced: true,
            prime: true,
            budget: Budget { reps: Some(3), seconds: 10.0, min: 3 },
            reference: Some(PathBuf::from("ref")),
        };
        let back = Job::from_args(&job.to_args()).unwrap();
        assert_eq!(back.to_args(), job.to_args());
    }

    #[test]
    fn reference_rows_match_in_any_order() {
        let job = Job::from_args(&["--scale=test".into()]).unwrap();
        let r = Reference::load(&job).unwrap();
        let text = builtin_reference(Scale::Test, TaskSet::Fig1);
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1..].reverse();
        let all: Vec<&str> = all_benchmarks().iter().map(|b| b.spec().name).collect();
        assert_eq!(r.mismatched_rows(&lines.join("\n"), &all), 0);
        let tampered = text.replacen(",true,", ",false,", 1);
        assert_eq!(r.mismatched_rows(&tampered, &all), 1);
    }
}
