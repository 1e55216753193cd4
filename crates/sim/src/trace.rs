//! Structured execution tracing: a zero-cost-when-disabled event stream
//! threaded through the simulator and the evaluation sweep.
//!
//! A [`TraceEvent`] is also a simulated run's record: the runtime keeps
//! every host span, PCIe transfer and kernel launch of a run once, as a
//! `TraceEvent`, and [`crate::stats::Summary::of`] folds that record into
//! the run's totals. Every mechanism the cost model prices (kernel roofline
//! terms, PCIe transfers, per-site coalescing, cache behaviour) can also
//! emit a `TraceEvent` into a [`TraceSink`]. The sink sees a copy of each
//! recorded event at the point it is recorded, plus the per-site evidence
//! (`CoalesceSite`, `CacheCounters`) that only a sink receives.
//!
//! The default sink is [`NullSink`]: call sites guard sink-only event
//! *construction* behind [`TraceSink::enabled`], so a disabled trace never
//! formats or clones an event for the sink — the simulated numbers are
//! bit-identical with tracing on or off. The evidence events are built from
//! does not depend on the sink: every kernel launch sums its per-site
//! coalescing summaries (which pricing computes anyway) and the launch cache
//! keeps them with each captured effect, so a launch with an enabled sink
//! replays what one without a sink captured.
//!
//! Events are emitted in deterministic simulation order (warp loops reduce
//! into per-site accumulators that are emitted in site order), so a
//! recorded trace is byte-stable across thread counts and runs.

use serde::Serialize;

use crate::exec::{KernelCost, KernelFootprint, KernelTotals};
use crate::stats::Dir;

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEvent {
    /// Sequential host execution between device operations.
    Host {
        /// Phase label (e.g. `"host"`, `"region-host"`).
        label: String,
        /// Simulated seconds.
        secs: f64,
    },
    /// A PCIe transfer.
    Transfer {
        /// Array being moved.
        array: String,
        /// Transfer direction.
        dir: Dir,
        /// Payload size in bytes.
        bytes: u64,
        /// Simulated seconds on the link.
        secs: f64,
    },
    /// A kernel launch with its full cost attribution.
    KernelLaunch {
        /// Kernel name.
        name: String,
        /// Launch-time resource declaration (grid, block, shared, regs).
        footprint: KernelFootprint,
        /// Roofline cost breakdown (per-term cycles, occupancy, bound).
        cost: KernelCost,
        /// Aggregated execution evidence (requests, transactions, bytes).
        totals: KernelTotals,
        /// DRAM bytes actually moved (`totals.traffic_bytes(cfg)`).
        traffic_bytes: u64,
    },
    /// Per-static-site coalescing evidence for one kernel launch, summed
    /// over all warps. Emitted in site order.
    CoalesceSite {
        /// Kernel the site belongs to.
        kernel: String,
        /// Static site index within the kernel body.
        site: u32,
        /// Array the site accesses.
        array: String,
        /// Memory space the access was served from.
        space: String,
        /// Warp-wide memory instructions issued.
        requests: u64,
        /// Transactions (global segments, or shared-fill segments).
        transactions: u64,
        /// Lane-level accesses (for useful-bytes accounting).
        lane_accesses: u64,
        /// Serialized shared-memory slots (0 for pure global sites).
        shared_slots: u64,
    },
    /// Cumulative hit/miss counters of a simulated cache at a point in the
    /// run (e.g. the texture cache after a kernel launch).
    CacheCounters {
        /// Which cache (e.g. `"kernelname/texture"`).
        cache: String,
        /// Hits observed so far.
        hits: u64,
        /// Misses observed so far.
        misses: u64,
    },
}

impl TraceEvent {
    /// Simulated seconds this event contributes to the run (0 for
    /// instantaneous evidence events).
    pub fn secs(&self) -> f64 {
        match self {
            TraceEvent::Host { secs, .. } => *secs,
            TraceEvent::Transfer { secs, .. } => *secs,
            TraceEvent::KernelLaunch { cost, .. } => cost.time_secs,
            _ => 0.0,
        }
    }
}

/// A consumer of trace events.
///
/// Implementations advertise whether they want events via [`enabled`];
/// producers must check it *before* constructing an event, so disabled
/// tracing is free. `emit` takes `&mut self` so sinks can accumulate
/// without interior mutability.
///
/// [`enabled`]: TraceSink::enabled
pub trait TraceSink {
    /// Whether events should be constructed and emitted at all.
    fn enabled(&self) -> bool;
    /// Consume one event. Only called when [`TraceSink::enabled`] is true.
    fn emit(&mut self, e: TraceEvent);
}

/// The disabled sink: reports `enabled() == false` and drops anything
/// emitted anyway. All untraced entry points thread this through.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn emit(&mut self, _e: TraceEvent) {}
}

/// A sink that records every event in emission order.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
}

impl RecordingSink {
    /// An empty recording sink.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// Take the recorded events, leaving the sink empty.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl TraceSink for RecordingSink {
    fn enabled(&self) -> bool {
        true
    }
    fn emit(&mut self, e: TraceEvent) {
        self.events.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_drops() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.emit(TraceEvent::Host { label: "x".into(), secs: 1.0 });
    }

    #[test]
    fn recording_sink_keeps_order() {
        let mut s = RecordingSink::new();
        assert!(s.enabled());
        s.emit(TraceEvent::Host { label: "a".into(), secs: 1.0 });
        s.emit(TraceEvent::Host { label: "b".into(), secs: 2.0 });
        assert_eq!(s.events.len(), 2);
        let taken = s.take();
        assert!(s.events.is_empty());
        assert!(matches!(&taken[0], TraceEvent::Host { label, .. } if label == "a"));
    }

    #[test]
    fn event_secs_only_for_timed_events() {
        let e = TraceEvent::CacheCounters { cache: "tex".into(), hits: 1, misses: 2 };
        assert_eq!(e.secs(), 0.0);
        let t = TraceEvent::Transfer { array: "a".into(), dir: Dir::HostToDevice, bytes: 4, secs: 0.5 };
        assert_eq!(t.secs(), 0.5);
    }
}
