//! `accbench`: the paper-scale Figure 1 sweep as the repository's benchmark.
//!
//! ```text
//! accbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!          [--workers N] [--scale paper|test] [--reps N] [--reference DIR] [--out FILE.tsv]
//! accbench --compare BASE.tsv HEAD.tsv
//! ```
//!
//! Prints every metric with its unit as a median with quartiles and the
//! sample count, then one JSON summary line. Exits 1 when a task fails or
//! an output differs from the reference. See README.md.

mod child;
mod host;
mod layers;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::Command;

use stats::{median, quartiles, Sample, SampleFile, END_TO_END};
use trace::LAYERS;
use workload::{Settings, Workload, WORKLOADS};

const USAGE: &str = "usage: accbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                [--workers N] [--scale paper|test] [--reps N] [--reference DIR] [--out FILE.tsv]
       accbench --compare BASE.tsv HEAD.tsv
workloads: fig1-cold fig1-rerun fig1-warm tuning-cold (default: all)";

/// Measured seconds per workload run when neither `--seconds` nor `--reps`
/// is given (the `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 10.0;

struct Cli {
    workloads: Vec<&'static Workload>,
    settings: Settings,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let exe = std::env::current_exe().map_err(|e| format!("locating accbench: {e}"))?;
    // `<target>/<profile>/accbench` keeps its scratch space in `<target>/accbench/`.
    let target = exe.parent().and_then(|p| p.parent()).ok_or("accbench has no target directory")?;
    let mut cli = Cli {
        workloads: Vec::new(),
        settings: Settings {
            scale: acceval::benchmarks::Scale::Paper,
            seed: 0,
            workers: nproc.min(4),
            reps: None,
            seconds: DEFAULT_SECONDS,
            reference: None,
            scratch: target.join("accbench").join(format!("run-{}", std::process::id())),
        },
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("`{flag}` needs a whole number, got `{value}`"));
        let s = &mut cli.settings;
        match flag.as_str() {
            "--workload" => cli
                .workloads
                .push(WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| format!("unknown workload `{value}`"))?),
            "--seed" => s.seed = number()?,
            "--seconds" => s.seconds = number()? as f64,
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                }
            }
            "--workers" => s.workers = (number()? as usize).max(1),
            "--scale" => s.scale = child::parse_scale(value)?,
            "--reps" => s.reps = Some((number()? as usize).max(1)),
            "--reference" => s.reference = Some(PathBuf::from(value)),
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = WORKLOADS.iter().collect();
    }
    Ok(cli)
}

/// First line of a tool's `stdout`, for the sample file's header.
fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_row(workload: &str, metric: &str, unit: &str, values: &[f64]) {
    let (q1, m, q3) = quartiles(values);
    println!("{workload:12} {metric:26} {unit:6} {m:>14.6} {q1:>14.6} {q3:>14.6} {:>4}", values.len());
}

/// The summary line: `{"correct", "attempted", "failed", "metrics"}`.
fn json_line(attempted: usize, failed: usize, metrics: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", if v.is_finite() { *v } else { 0.0 })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn run_main(cli: Cli) -> Result<i32, String> {
    let s = &cli.settings;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale = child::scale_name(s.scale);
    let mut file = SampleFile::default();
    for (k, v) in [
        ("nproc", nproc.to_string()),
        ("workers", s.workers.to_string()),
        ("seed", s.seed.to_string()),
        ("scale", scale.to_string()),
        ("seconds", s.seconds.to_string()),
        ("reps", s.reps.map_or("timed".to_string(), |n| n.to_string())),
    ] {
        file.header.push((k.to_string(), v));
    }
    println!("accbench: scale={scale} workers={} seed={} nproc={nproc}", s.workers, s.seed);
    println!("{:12} {:26} {:6} {:>14} {:>14} {:>14} {:>4}", "workload", "metric", "unit", "median", "q1", "q3", "n");
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let key = |w: &str, name: &str| if cli.workloads.len() > 1 { format!("{w}/{name}") } else { name.to_string() };
    let mut record = |w: &str, name: &str, unit: &'static str, values: &[f64], json: bool| {
        print_row(w, name, unit, values);
        for &value in values {
            file.samples.push(Sample { workload: w.into(), metric: name.into(), unit: unit.into(), value });
        }
        if json {
            metrics.push((key(w, name), unit, median(values)));
        }
    };
    for w in &cli.workloads {
        let plain = workload::run(w, s, false).map_err(|e| format!("{}: {e}", w.name))?;
        attempted += plain.attempted;
        failed += plain.failed;
        // Times are rescaled by this run's calibration loop (see host.rs);
        // the raw times and the calibration itself are kept alongside.
        let to_nominal = host::NOMINAL_CALIBRATION_S / median(&plain.calib);
        let rescaled = |v: &[f64]| v.iter().map(|x| x * to_nominal).collect::<Vec<f64>>();
        for &(name, unit, _) in END_TO_END {
            let values = match name {
                "wall_s" => rescaled(&plain.wall),
                "setup_s" => rescaled(&plain.setup),
                _ => plain.rss.clone(),
            };
            record(w.name, name, unit, &values, !cli.trace);
        }
        for (name, values) in [("wall_raw_s", &plain.wall), ("setup_raw_s", &plain.setup), ("calib_s", &plain.calib)] {
            record(w.name, name, "s", values, false);
        }
        if cli.trace {
            let traced = workload::run(w, s, true).map_err(|e| format!("{} (traced): {e}", w.name))?;
            attempted += traced.attempted;
            failed += traced.failed;
            let overhead = vec![median(&traced.wall) / median(&plain.wall)];
            for &(name, unit) in LAYERS {
                let values = match traced.layers.iter().find(|(n, _)| n == name) {
                    Some((_, v)) => v,
                    None if name == "trace.overhead" => &overhead,
                    None => return Err(format!("{}: the traced pass reported no `{name}`", w.name)),
                };
                record(w.name, name, unit, values, true);
            }
        }
    }
    if let Some(path) = &cli.out {
        file.header.push(("rustc".into(), tool_version("rustc", &["-V"])));
        file.header.push(("git_rev".into(), tool_version("git", &["rev-parse", "--short", "HEAD"])));
        std::fs::write(path, file.to_tsv()).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("samples written to {}", path.display());
    }
    if cli.trace {
        println!("spans of each traced child are under {}", s.scratch.display());
    } else {
        let _ = std::fs::remove_dir_all(&s.scratch);
    }
    println!("{}", json_line(attempted, failed, &metrics));
    Ok(if failed == 0 { 0 } else { 1 })
}

fn compare_main(args: &[String]) -> i32 {
    let [base, head] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    let load =
        |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")).and_then(|t| SampleFile::parse(&t));
    match load(base).and_then(|b| Ok((b, load(head)?))).and_then(|(b, h)| stats::compare(&b, &h)) {
        Ok((table, worse)) => {
            print!("{table}");
            i32::from(worse)
        }
        Err(e) => {
            eprintln!("accbench: {e}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("child") => child::main(&args[1..]).map_or_else(
            |e| {
                eprintln!("accbench: {e}");
                1
            },
            |()| 0,
        ),
        Some("--compare") => compare_main(&args[1..]),
        _ => match parse(&args) {
            Ok(cli) => run_main(cli).unwrap_or_else(|e| {
                eprintln!("accbench: {e}");
                1
            }),
            Err(e) => {
                eprintln!("accbench: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}
