//! Run totals: the one fold of a simulated run's record.
//!
//! A run's record is its ordered [`TraceEvent`]s (host spans, transfers,
//! kernel launches). [`Summary::of`] sums them into wall time and traffic
//! totals, and the reports use those totals to explain *why* a version is
//! slow (e.g. "CG under HMPP moved 212 MB over PCIe; under OpenMPC it moved
//! 9 MB").

use serde::{Deserialize, Serialize};

use crate::trace::TraceEvent;

/// Direction of a PCIe transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dir {
    /// Upload (CPU to GPU).
    HostToDevice,
    /// Download (GPU to CPU).
    DeviceToHost,
}

/// Aggregate view of a run's events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // self-describing aggregate counters
pub struct Summary {
    pub total_secs: f64,
    pub host_secs: f64,
    pub transfer_secs: f64,
    pub kernel_secs: f64,
    pub kernels_launched: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub transfers: u64,
    pub global_transactions: u64,
    pub useful_bytes: u64,
}

impl Summary {
    /// Sum `events` in order. Evidence events (coalescing sites, cache
    /// counters) add no time and count in nothing.
    pub fn of(events: &[TraceEvent]) -> Summary {
        let mut s = Summary::default();
        for e in events {
            s.total_secs += e.secs();
            match e {
                TraceEvent::Host { secs, .. } => s.host_secs += secs,
                TraceEvent::Transfer { dir, bytes, secs, .. } => {
                    s.transfer_secs += secs;
                    s.transfers += 1;
                    match dir {
                        Dir::HostToDevice => s.h2d_bytes += bytes,
                        Dir::DeviceToHost => s.d2h_bytes += bytes,
                    }
                }
                TraceEvent::KernelLaunch { cost, totals, .. } => {
                    s.kernel_secs += cost.time_secs;
                    s.kernels_launched += 1;
                    s.global_transactions += totals.global_transactions;
                    s.useful_bytes += totals.useful_bytes;
                }
                TraceEvent::CoalesceSite { .. } | TraceEvent::CacheCounters { .. } => {}
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::exec::{estimate_kernel, KernelFootprint, KernelTotals};

    fn host(label: &str, secs: f64) -> TraceEvent {
        TraceEvent::Host { label: label.into(), secs }
    }

    fn some_kernel() -> TraceEvent {
        let cfg = DeviceConfig::tesla_m2090();
        let t = KernelTotals {
            warps: 128,
            issue_cycles: 12800.0,
            global_requests: 1000,
            global_transactions: 2000,
            useful_bytes: 128_000,
            ..Default::default()
        };
        let fp = KernelFootprint::new(256, 16);
        estimate_kernel(&cfg, &fp, &t).trace_event("k", &fp, &t, &cfg)
    }

    #[test]
    fn summary_accumulates() {
        let k = some_kernel();
        let events = [
            host("setup", 0.001),
            TraceEvent::Transfer { array: "a".into(), dir: Dir::HostToDevice, bytes: 1024, secs: 0.0001 },
            k.clone(),
            TraceEvent::CacheCounters { cache: "k/texture".into(), hits: 3, misses: 4 },
            TraceEvent::Transfer { array: "a".into(), dir: Dir::DeviceToHost, bytes: 2048, secs: 0.0002 },
        ];

        let s = Summary::of(&events);
        assert_eq!(s.kernels_launched, 1);
        assert_eq!(s.transfers, 2);
        assert_eq!(s.h2d_bytes, 1024);
        assert_eq!(s.d2h_bytes, 2048);
        assert!((s.total_secs - (0.001 + 0.0001 + 0.0002 + k.secs())).abs() < 1e-12);
        assert_eq!(s.total_secs.to_bits(), events.iter().map(TraceEvent::secs).sum::<f64>().to_bits());
        assert_eq!(s.kernel_secs.to_bits(), k.secs().to_bits());
        assert_eq!(s.global_transactions, 2000);
        assert_eq!(s.useful_bytes, 128_000);
    }

    #[test]
    fn extend_concatenates() {
        // The fold of a concatenation is the fold of its parts, in order;
        // an evidence event between them changes nothing.
        let a = [host("x", 1.0)];
        let evidence = TraceEvent::CoalesceSite {
            kernel: "k".into(),
            site: 0,
            array: "a".into(),
            space: "global".into(),
            requests: 5,
            transactions: 7,
            lane_accesses: 160,
            shared_slots: 0,
        };
        let both = [host("x", 1.0), evidence, host("y", 2.0)];
        let s = Summary::of(&both);
        assert!((s.total_secs - 3.0).abs() < 1e-12);
        assert_eq!(s.host_secs, Summary::of(&a).host_secs + 2.0);
        assert_eq!((s.kernels_launched, s.transfers, s.global_transactions), (0, 0, 0));
    }

    #[test]
    fn empty_timeline_is_zero() {
        assert_eq!(Summary::of(&[]), Summary::default());
        let evidence = TraceEvent::CacheCounters { cache: "t".into(), hits: 1, misses: 2 };
        assert_eq!(Summary::of(&[evidence]), Summary::default());
    }
}
