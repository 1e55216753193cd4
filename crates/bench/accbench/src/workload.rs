//! The workloads and the parent process that drives them: which children
//! each workload spawns, in which working directories, and the samples
//! they report.
//!
//! Every child runs with a cleared environment (so no `ACCEVAL_*` knob
//! leaks in) and `RAYON_NUM_THREADS` pinned to the worker count. The disk
//! store is enabled only by creating `results/` in a child's working
//! directory, which is the store's `auto` policy.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use acceval::benchmarks::Scale;

use crate::child::{Budget, Job, TaskSet};
use crate::host;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Each measured pass in a fresh process with an empty store.
    Cold,
    /// One process: an unmeasured pass, then measured passes over the same
    /// tasks while every memo and launch is still in memory.
    Rerun,
    /// One unmeasured process fills the store; each measured pass is a
    /// fresh process served from it.
    Warm,
}

pub struct Workload {
    pub name: &'static str,
    pub set: TaskSet,
    pub kind: Kind,
}

/// The workloads, in run order. Why each exists is recorded in
/// `BENCHMARK.json` and the README.
pub const WORKLOADS: [Workload; 4] = [
    Workload { name: "fig1-cold", set: TaskSet::Fig1, kind: Kind::Cold },
    Workload { name: "fig1-rerun", set: TaskSet::Fig1, kind: Kind::Rerun },
    Workload { name: "fig1-warm", set: TaskSet::Fig1, kind: Kind::Warm },
    Workload { name: "tuning-cold", set: TaskSet::Tuning, kind: Kind::Cold },
];

/// Set-up-only children started per workload run on top of the measuring
/// ones, so that `setup_s` is a median of several set-ups.
const SETUP_PROBES: usize = 9;

pub struct Settings {
    pub scale: Scale,
    pub seed: u64,
    pub workers: usize,
    pub reps: Option<usize>,
    pub seconds: f64,
    pub reference: Option<PathBuf>,
    pub scratch: PathBuf,
}

/// Samples of one workload run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host seconds of each measured pass.
    pub wall: Vec<f64>,
    /// Seconds of each calibration loop ([`host::calibration_s`]), timed
    /// before the set-up probes and around every measured pass.
    pub calib: Vec<f64>,
    /// Seconds from each child's spawn until its datasets were ready.
    pub setup: Vec<f64>,
    /// Peak resident MiB of each child that ran a measured pass.
    pub rss: Vec<f64>,
    /// Per-layer values of each measured traced pass, in report order.
    pub layers: Vec<(String, Vec<f64>)>,
    pub attempted: usize,
    pub failed: usize,
}

/// Kills and reaps a child that is dropped before it was waited for.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn num<T: std::str::FromStr>(v: &str, line: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("unexpected child output `{line}`"))
}

/// Run one child in `cwd` and fold what it reports into `m`.
fn spawn(cwd: &Path, job: &Job, s: &Settings, m: &mut Measured) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating accbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(job.to_args())
        .current_dir(cwd)
        .env_clear()
        .env("RAYON_NUM_THREADS", s.workers.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let t0 = Instant::now();
    let mut child = Reaped(cmd.spawn().map_err(|e| format!("spawning a child: {e}"))?);
    let out = child.0.stdout.take().expect("child stdout is piped");
    let mut measured = false;
    for line in BufReader::new(out).lines() {
        let line = line.map_err(|e| format!("reading child output: {e}"))?;
        let f: Vec<&str> = line.split(' ').collect();
        match f[..] {
            ["ready"] => m.setup.push(t0.elapsed().as_secs_f64()),
            ["pass", meas, wall, attempted, failed] => {
                m.attempted += num::<usize>(attempted, &line)?;
                m.failed += num::<usize>(failed, &line)?;
                if meas == "1" {
                    measured = true;
                    m.wall.push(num(wall, &line)?);
                }
            }
            ["layer", name, v] => {
                let v = num(v, &line)?;
                match m.layers.iter_mut().find(|(n, _)| n == name) {
                    Some((_, vals)) => vals.push(v),
                    None => m.layers.push((name.to_string(), vec![v])),
                }
            }
            ["calib", v] => m.calib.push(num(v, &line)?),
            ["rss_mb", v] if measured => m.rss.push(num(v, &line)?),
            ["rss_mb", _] => {}
            _ => return Err(format!("unexpected child output `{line}`")),
        }
    }
    let status = child.0.wait().map_err(|e| format!("waiting for a child: {e}"))?;
    if !status.success() {
        return Err(format!("child in {} exited with {status}", cwd.display()));
    }
    Ok(())
}

/// A fresh working directory; `store` creates `results/` in it, which turns
/// the disk store on.
fn workdir(dir: &Path, name: &str, store: bool) -> Result<PathBuf, String> {
    let d = dir.join(name);
    let made = if store { fs::create_dir_all(d.join("results")) } else { fs::create_dir_all(&d) };
    made.map_err(|e| format!("creating {}: {e}", d.display()))?;
    Ok(d)
}

/// Run `rep` (one measured process per call) as long as `budget` allows.
fn repeat(budget: &Budget, mut rep: impl FnMut(usize) -> Result<(), String>) -> Result<(), String> {
    let (mut n, mut spent, mut last) = (0, 0.0, 0.0);
    while budget.more(n, spent, last) {
        let t = Instant::now();
        rep(n)?;
        last = t.elapsed().as_secs_f64();
        spent += last;
        n += 1;
    }
    Ok(())
}

/// Run workload `w` once, untraced or through the traced pass.
///
/// The seed orders the benchmarks of the pass that builds a process's state:
/// the measured pass of a cold workload, the unmeasured first pass of the
/// warm ones. Measured warm passes run in paper order, as `report figure1`
/// does, over caches whose history the seed chose.
pub fn run(w: &Workload, s: &Settings, traced: bool) -> Result<Measured, String> {
    let dir = s.scratch.join(w.name).join(if traced { "traced" } else { "plain" });
    let _ = fs::remove_dir_all(&dir);
    let job = |seed: u64, prime: bool, budget: Budget| Job {
        set: w.set,
        scale: s.scale,
        seed,
        prime_seed: s.seed,
        workers: s.workers,
        traced,
        prime,
        budget,
        reference: s.reference.clone(),
    };
    let fixed = |n: usize| Budget { reps: Some(n), seconds: 0.0, min: 0 };
    let timed = Budget { reps: s.reps, seconds: s.seconds, min: if w.kind == Kind::Cold { 1 } else { 5 } };
    let store = w.set == TaskSet::Fig1;
    let mut m = Measured { calib: host::calibration_samples(), ..Measured::default() };
    for i in 0..SETUP_PROBES {
        spawn(&workdir(&dir, &format!("setup-{i}"), false)?, &job(s.seed, false, fixed(0)), s, &mut m)?;
    }
    match w.kind {
        Kind::Cold => repeat(&timed, |n| {
            spawn(&workdir(&dir, &format!("rep-{n}"), store)?, &job(s.seed, false, fixed(1)), s, &mut m)
        })?,
        Kind::Rerun => spawn(&workdir(&dir, "rerun", store)?, &job(0, true, timed), s, &mut m)?,
        Kind::Warm => {
            let cwd = workdir(&dir, "warm", store)?;
            spawn(&cwd, &job(0, true, fixed(0)), s, &mut m)?;
            repeat(&timed, |_| spawn(&cwd, &job(0, false, fixed(1)), s, &mut m))?;
        }
    }
    // The stores run to hundreds of MB; the span files next to them stay.
    for entry in fs::read_dir(&dir).map_err(|e| format!("listing {}: {e}", dir.display()))? {
        let _ = fs::remove_dir_all(entry.map_err(|e| e.to_string())?.path().join("results"));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    #[test]
    fn workloads_match_benchmark_json() {
        let json = include_str!("../../../../BENCHMARK.json");
        for w in super::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)), "{}", w.name);
        }
        assert_eq!(json.matches("\"why\": ").count(), super::WORKLOADS.len());
    }
}
