//! The accbench binary end to end at test scale, and the committed reference
//! outputs against the repository's own artifacts.

use std::path::PathBuf;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");
const WORKLOADS: [&str; 4] = ["fig1-cold", "fig1-rerun", "fig1-warm", "tuning-cold"];

fn accbench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_accbench")).args(args).output().expect("accbench runs");
    (out.status.code().unwrap_or(-1), String::from_utf8(out.stdout).expect("utf-8 output"))
}

/// The metric names of one `BENCHMARK.json` list, found by string search.
fn names(section: &str) -> Vec<&'static str> {
    let start = BENCHMARK_JSON.find(&format!("\"{section}\"")).expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"").skip(1).map(|s| &s[..s.find('"').expect("name closes")]).collect()
}

/// The median of `metric` on `workload` from the printed table.
fn median(out: &str, workload: &str, metric: &str) -> f64 {
    out.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 7 && f[0] == workload && f[1] == metric)
        .map(|f| f[3].parse().expect("numeric median"))
        .unwrap_or_else(|| panic!("no `{workload} {metric}` row in:\n{out}"))
}

#[test]
fn every_workload_reports_every_metric_and_holds_its_invariants() {
    let (code, out) = accbench(&["--scale", "test", "--reps", "1", "--trace", "1"]);
    assert_eq!(code, 0, "{out}");
    let summary = out.lines().last().expect("summary line");
    assert!(summary.starts_with("{\"correct\": true, ") && summary.contains("\"failed\": 0, "), "{summary}");
    let metrics: Vec<&str> = names("end_to_end").into_iter().chain(names("per_layer")).collect();
    for w in WORKLOADS {
        for m in &metrics {
            median(&out, w, m);
        }
        assert!(median(&out, w, "trace.unattributed_share") <= 0.10, "{w}");
    }
    // Memory-warm and disk-warm passes never execute a launch, and the
    // rerun never recomputes an oracle.
    assert_eq!(median(&out, "fig1-warm", "launch_cache.misses"), 0.0);
    assert_eq!(median(&out, "fig1-rerun", "launch_cache.misses"), 0.0);
    assert_eq!(median(&out, "fig1-rerun", "oracle.computed"), 0.0);
    assert!(median(&out, "fig1-warm", "launch_cache.disk_hits") > 0.0);
    // Every pass simulates the same Figure 1.
    for m in ["sim.gpu_time", "sim.kernels_launched"] {
        let cold = median(&out, "fig1-cold", m);
        assert_eq!(median(&out, "fig1-rerun", m), cold, "{m}");
        assert_eq!(median(&out, "fig1-warm", m), cold, "{m}");
    }
}

#[test]
fn a_reference_mismatch_fails_the_run() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("accbench-tampered-reference");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let good = include_str!("../reference/test/figure1.csv");
    let tampered = good.replacen("JACOBI,PGI,", "JACOBI,PGI,1", 1);
    assert_ne!(good, tampered);
    std::fs::write(dir.join("figure1.csv"), tampered).expect("write reference");
    let dir = dir.to_str().expect("utf-8 path");
    let (code, out) = accbench(&["--scale", "test", "--workload", "fig1-cold", "--reps", "1", "--reference", dir]);
    assert_eq!(code, 1, "{out}");
    assert!(out.lines().last().expect("summary line").starts_with("{\"correct\": false, "), "{out}");
}

#[test]
fn paper_references_match_the_committed_figure() {
    assert_eq!(include_str!("../reference/paper/figure1.csv"), include_str!("../../../../results/figure1.csv"));
    // Every tuning band of the tuning reference, at one decimal, is the band
    // the committed paper-scale figure prints.
    let figure = include_str!("../../../../results/figure1_paper_scale.txt");
    let rows = include_str!("../reference/paper/figure1_tuning.csv").lines().skip(1).filter(|l| !l.is_empty());
    let mut bands = 0;
    for row in rows {
        let f: Vec<&str> = row.split(',').collect();
        if f[1] == "CUDA" {
            continue; // hand-written CUDA has no tuning space
        }
        let line = figure.lines().find(|l| l.split_whitespace().next() == Some(f[0])).expect("benchmark row");
        let lo: f64 = f[4].parse().expect("tuning_min");
        let hi: f64 = f[5].parse().expect("tuning_max");
        let band = format!("{}:{lo:.1}..{hi:.1} ", f[1]);
        assert!(line.contains(&band), "{band} not in {line}");
        bands += 1;
    }
    assert_eq!(bands, 13 * 4);
}
