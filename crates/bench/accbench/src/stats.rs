//! Sample statistics, the TSV sample file, and `accbench --compare`.

use std::fmt::Write as _;

/// The end-to-end metrics with their units and regression bounds, exactly as
/// `BENCHMARK.json` fixes them (a test keeps the two in step). Every metric
/// is lower-is-better.
pub const END_TO_END: &[(&str, &str, f64)] =
    &[("wall_s", "s", 0.25), ("setup_s", "s", 0.25), ("peak_rss_mb", "MB", 0.2)];

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) computes them, so the numbers printed here
/// match the ones a run-to-run spread check computes. One sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = (n + 1) as i64;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Linear-interpolated percentile `p` (0..=1) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail percentile reported for `n` samples: the highest one with at
/// least ten samples beyond it (p84 at 65 tasks, p89 at 99), never below the
/// median.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).max(0.5)
}

/// One measured value of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub value: f64,
}

/// A TSV sample file: `# key<TAB>value` header lines describing the run,
/// then one row per sample.
#[derive(Debug, Default)]
pub struct SampleFile {
    pub header: Vec<(String, String)>,
    pub samples: Vec<Sample>,
}

const COLUMNS: &str = "workload\tmetric\tunit\tvalue";

impl SampleFile {
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.header {
            let _ = writeln!(out, "# {k}\t{v}");
        }
        out.push_str(COLUMNS);
        out.push('\n');
        for s in &self.samples {
            let _ = writeln!(out, "{}\t{}\t{}\t{}", s.workload, s.metric, s.unit, s.value);
        }
        out
    }

    pub fn parse(text: &str) -> Result<SampleFile, String> {
        let mut f = SampleFile::default();
        for (n, line) in text.lines().enumerate() {
            if let Some(h) = line.strip_prefix("# ") {
                let (k, v) = h.split_once('\t').unwrap_or((h, ""));
                f.header.push((k.to_string(), v.to_string()));
                continue;
            }
            if line.is_empty() || line == COLUMNS {
                continue;
            }
            let cols: Vec<&str> = line.split('\t').collect();
            let [workload, metric, unit, value] = cols[..] else {
                return Err(format!("line {}: expected 4 tab-separated columns", n + 1));
            };
            let value = value.parse().map_err(|_| format!("line {}: bad value `{value}`", n + 1))?;
            f.samples.push(Sample { workload: workload.into(), metric: metric.into(), unit: unit.into(), value });
        }
        Ok(f)
    }

    pub fn header(&self, key: &str) -> Option<&str> {
        self.header.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.samples.iter().filter(|s| s.workload == workload && s.metric == metric).map(|s| s.value).collect()
    }
}

/// The outcome of comparing one (workload, metric) pair between two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The base run's own spread is wider than the bound, so a change of
    /// that size cannot be told from noise.
    Unresolved,
}

/// Judge `head` against `base` for a lower-is-better metric with regression
/// bound `bound` (a share of the base median).
pub fn verdict(base: &[f64], head: &[f64], bound: f64) -> Verdict {
    let (b1, bm, b3) = quartiles(base);
    let hm = median(head);
    let spread = if bm > 0.0 { (b3 - b1) / bm } else { 0.0 };
    let change = if bm > 0.0 { (hm - bm) / bm } else { 0.0 };
    let pairs = base.len() * head.len();
    let wins = head.iter().map(|h| base.iter().filter(|b| h < *b).count()).sum::<usize>();
    if spread > bound {
        return if wins == pairs { Verdict::Better } else { Verdict::Unresolved };
    }
    if change > bound {
        Verdict::Worse
    } else if -change > spread && wins * 10 >= pairs * 9 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Compare two sample files on every end-to-end metric of every workload
/// they share. Returns the printed table and whether any pair got worse;
/// refuses files whose workers, seed or scale differ.
pub fn compare(base: &SampleFile, head: &SampleFile) -> Result<(String, bool), String> {
    for key in ["workers", "seed", "scale"] {
        if base.header(key) != head.header(key) {
            return Err(format!(
                "refusing to compare: `{key}` differs ({} vs {})",
                base.header(key).unwrap_or("unset"),
                head.header(key).unwrap_or("unset")
            ));
        }
    }
    let mut workloads: Vec<&str> = Vec::new();
    for s in &base.samples {
        if !workloads.contains(&s.workload.as_str()) && head.samples.iter().any(|h| h.workload == s.workload) {
            workloads.push(&s.workload);
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:12} {:12} {:>26} {:>26} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "delta", "bound"
    );
    let mut any_worse = false;
    for w in workloads {
        for &(metric, unit, bound) in END_TO_END {
            let (b, h) = (base.values(w, metric), head.values(w, metric));
            if b.is_empty() || h.is_empty() {
                continue;
            }
            let v = verdict(&b, &h, bound);
            any_worse |= v == Verdict::Worse;
            let (b1, bm, b3) = quartiles(&b);
            let (h1, hm, h3) = quartiles(&h);
            let _ = writeln!(
                out,
                "{w:12} {metric:12} {:>26} {:>26} {:>+7.1}% {:>5.0}%  {}",
                format!("{bm:.4} [{b1:.4}, {b3:.4}] {unit}"),
                format!("{hm:.4} [{h1:.4}, {h3:.4}] {unit}"),
                (hm - bm) / bm * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert!((tail_quantile(65) - 0.846).abs() < 1e-3);
        assert!((tail_quantile(429) - 0.977).abs() < 1e-3);
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn verdicts_on_synthetic_samples() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&base, &[10.02, 9.98, 10.0], 0.10), Verdict::Within);
        assert_eq!(verdict(&base, &[11.5, 11.6, 11.4], 0.10), Verdict::Worse);
        assert_eq!(verdict(&base, &[8.0, 8.1, 7.9], 0.10), Verdict::Better);
        // A base spread wider than the bound leaves a small worsening
        // unresolved, but a change that beats every base sample still counts.
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(verdict(&noisy, &[10.5, 10.6], 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &[5.0, 5.5], 0.10), Verdict::Better);
    }

    fn file(seed: &str, wall: &[f64]) -> SampleFile {
        let header = [("workers", "2"), ("seed", seed), ("scale", "paper")];
        let sample = |value| Sample { workload: "fig1-cold".into(), metric: "wall_s".into(), unit: "s".into(), value };
        SampleFile {
            header: header.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            samples: wall.iter().copied().map(sample).collect(),
        }
    }

    #[test]
    fn compare_round_trips_tsv_and_flags_regressions() {
        let base = SampleFile::parse(&file("0", &[10.0, 10.1, 9.9]).to_tsv()).unwrap();
        let head = file("0", &[13.0, 13.1, 12.9]);
        let (table, worse) = compare(&base, &head).unwrap();
        assert!(worse, "{table}");
        assert!(table.contains("fig1-cold") && table.contains("worse"), "{table}");
        let (_, worse) = compare(&base, &file("0", &[10.0, 9.95, 10.05])).unwrap();
        assert!(!worse);
    }

    #[test]
    fn bounds_match_benchmark_json() {
        let json = include_str!("../../../../BENCHMARK.json");
        for (name, unit, bound) in END_TO_END {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": {bound}}}");
            assert!(json.contains(&entry), "{entry}");
        }
        assert_eq!(json.matches("\"bound\": ").count(), END_TO_END.len());
    }

    #[test]
    fn compare_refuses_mismatched_runs() {
        let err = compare(&file("0", &[1.0]), &file("7", &[1.0])).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        assert!(SampleFile::parse("a\tb\tc\n").is_err());
    }
}
