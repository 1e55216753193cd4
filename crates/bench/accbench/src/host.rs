//! Measurements of the host rather than of the program: peak memory from
//! `/proc`, and a calibration loop that gauges how fast the (possibly
//! shared) machine runs right now.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The calibration loop's time on the nominal host that rescaled times
/// refer to: `rescaled = raw × NOMINAL_CALIBRATION_S / calibration`.
pub const NOMINAL_CALIBRATION_S: f64 = 0.1;

/// Three timings of [`calibration_s`], taken together at one point of a run.
pub fn calibration_samples() -> Vec<f64> {
    (0..3).map(|_| calibration_s()).collect()
}

/// Seconds one run of a fixed loop takes: a multiply-rotate hash streamed
/// over 16 MiB, the kind of work the launch cache's content digests do. The
/// loop does not depend on the program under test, so dividing a sweep's
/// time by it cancels part of the machine slowing down or speeding up
/// between runs when other tenants load a shared host.
pub fn calibration_s() -> f64 {
    let words: Vec<u64> = (0..(1u64 << 21)).collect();
    let t = Instant::now();
    let mut h = 0u64;
    for _ in 0..24 {
        for &x in black_box(&words).iter() {
            h = (h ^ x).wrapping_mul(0x100_0000_01b3).rotate_left(17);
        }
    }
    black_box(h);
    t.elapsed().as_secs_f64()
}
