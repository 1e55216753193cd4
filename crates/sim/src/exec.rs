//! Kernel cost estimation.
//!
//! The functional executor (in `acceval-ir`) runs every simulated thread and
//! aggregates per-warp evidence into [`KernelTotals`]; this module turns the
//! totals into time using a first-order roofline model:
//!
//! ```text
//! kernel cycles = max(compute, dram bandwidth, dram latency, shared memory)
//!               + atomic serialization
//! ```
//!
//! * **compute** — total warp-instruction issue cycles spread over the SMs
//!   actually covered by the grid, scaled by the device's double-precision
//!   issue factor ([`DeviceConfig::dp_issue_factor`]): the evaluated codes
//!   are double-precision dominated, so generations with a weaker FP64:FP32
//!   ratio than the Fermi calibration baseline pay proportionally more
//!   issue cycles.
//! * **dram bandwidth** — 128-byte segments moved at the device's
//!   bytes-per-cycle. This is what punishes uncoalesced access: a stride-N
//!   loop moves up to 32x the useful bytes.
//! * **dram latency** — requests per SM serialized at `global_latency`,
//!   overlapped across the resident warps given by the occupancy calculation.
//!   Low-occupancy kernels (huge blocks, big shared footprints) become
//!   latency-bound here, reproducing the paper's HOTSPOT observation that
//!   outer-loop-only parallelization "does not provide enough threads to hide
//!   the global memory latency".
//! * **shared memory** — one warp-wide conflict-free access per SM per cycle;
//!   bank conflicts inflate slots.
//! * **atomics** — serialized at the memory controller; models why critical
//!   sections cannot be mapped efficiently and reductions need tree codes.

use serde::{Deserialize, Serialize};

use crate::config::{DeviceConfig, Occupancy};

/// Per-kernel resource declaration, fixed at launch time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // standard CUDA launch-resource quantities
pub struct KernelFootprint {
    pub threads_per_block: u32,
    pub shared_bytes_per_block: u32,
    pub regs_per_thread: u32,
    /// Total thread blocks in the grid.
    pub grid_blocks: u64,
}

impl KernelFootprint {
    /// Footprint with default register/shared usage.
    pub fn new(threads_per_block: u32, grid_blocks: u64) -> Self {
        KernelFootprint { threads_per_block, shared_bytes_per_block: 0, regs_per_thread: 20, grid_blocks }
    }
}

/// Aggregated execution evidence for one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelTotals {
    /// Warps that executed (with at least one active lane).
    pub warps: u64,
    /// Sum over warps of issue cycles (max-lane ops + divergence penalty).
    pub issue_cycles: f64,
    /// Warp-wide global-memory instructions.
    pub global_requests: u64,
    /// 128-byte-segment transactions those instructions required.
    pub global_transactions: u64,
    /// Useful bytes (lane accesses x element size), for reporting.
    pub useful_bytes: u64,
    /// Serialized shared-memory slots (conflict-adjusted).
    pub shared_slots: u64,
    /// Serialized atomic slots.
    pub atomic_slots: u64,
    /// Texture-cache miss transactions (priced like global segments of the
    /// texture line size).
    pub tex_miss_lines: u64,
    /// Texture requests (hits are near-free but still issue).
    pub tex_requests: u64,
}

impl KernelTotals {
    /// Merge another tally (e.g. from a different warp batch) into this one.
    pub fn merge(&mut self, o: &KernelTotals) {
        self.warps += o.warps;
        self.issue_cycles += o.issue_cycles;
        self.global_requests += o.global_requests;
        self.global_transactions += o.global_transactions;
        self.useful_bytes += o.useful_bytes;
        self.shared_slots += o.shared_slots;
        self.atomic_slots += o.atomic_slots;
        self.tex_miss_lines += o.tex_miss_lines;
        self.tex_requests += o.tex_requests;
    }

    /// DRAM traffic actually moved, in bytes.
    pub fn traffic_bytes(&self, cfg: &DeviceConfig) -> u64 {
        self.global_transactions * cfg.segment_bytes as u64 + self.tex_miss_lines * cfg.tex_line_bytes as u64
    }

    /// Ratio of moved bytes to useful bytes (1.0 = perfectly coalesced
    /// 128-byte-dense traffic; large values indicate scattered access).
    pub fn traffic_amplification(&self, cfg: &DeviceConfig) -> f64 {
        if self.useful_bytes == 0 {
            0.0
        } else {
            self.traffic_bytes(cfg) as f64 / self.useful_bytes as f64
        }
    }
}

/// Cost breakdown of one kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // per-term roofline cycles, named by their term
pub struct KernelCost {
    /// Total device cycles (excluding launch overhead).
    pub cycles: f64,
    /// Wall time in seconds including launch overhead.
    pub time_secs: f64,
    pub compute_cycles: f64,
    pub mem_bw_cycles: f64,
    pub mem_lat_cycles: f64,
    pub shared_cycles: f64,
    pub atomic_cycles: f64,
    pub occupancy: Occupancy,
    /// Which term of the roofline dominated.
    pub bound: Bound,
}

/// The dominating roofline term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Bound {
    Compute,
    MemBandwidth,
    MemLatency,
    Shared,
    Atomic,
    LaunchOverhead,
}

/// Estimate the cost of a kernel launch from its footprint and totals.
pub fn estimate_kernel(cfg: &DeviceConfig, fp: &KernelFootprint, t: &KernelTotals) -> KernelCost {
    let occ = cfg.occupancy(fp.threads_per_block, fp.shared_bytes_per_block, fp.regs_per_thread);
    // SMs that actually receive work.
    let parallel_sms = (fp.grid_blocks.min(cfg.num_sms as u64) as f64).max(1.0);

    let compute_cycles = t.issue_cycles * cfg.dp_issue_factor() / (parallel_sms * cfg.warp_insts_per_sm_cycle());

    let traffic = t.traffic_bytes(cfg) as f64;
    let mem_bw_cycles = traffic / cfg.dram_bytes_per_cycle();

    // Requests per SM, serialized at the global latency, overlapped across
    // resident warps. Texture hits avoid DRAM but still have ~100-cycle
    // latency; fold them in at a discount.
    let resident = occ.resident_warps_per_sm.max(1) as f64;
    let lat_requests = t.global_requests as f64 + 0.2 * t.tex_requests as f64;
    let mem_lat_cycles = (lat_requests / parallel_sms) * cfg.global_latency_cycles as f64 / resident;

    let shared_cycles = t.shared_slots as f64 / parallel_sms;

    let atomic_cycles = t.atomic_slots as f64 * cfg.atomic_base_cycles as f64 / parallel_sms.sqrt();

    let body = compute_cycles.max(mem_bw_cycles).max(mem_lat_cycles).max(shared_cycles);
    let cycles = body + atomic_cycles;
    let time_secs = cfg.cycles_to_secs(cycles) + cfg.launch_overhead_us * 1e-6;

    let bound = {
        let launch_cycles = cfg.launch_overhead_us * 1e-6 * cfg.clock_ghz * 1e9;
        let candidates = [
            (Bound::Compute, compute_cycles),
            (Bound::MemBandwidth, mem_bw_cycles),
            (Bound::MemLatency, mem_lat_cycles),
            (Bound::Shared, shared_cycles),
            (Bound::Atomic, atomic_cycles),
            (Bound::LaunchOverhead, launch_cycles),
        ];
        candidates.iter().max_by(|a, b| a.1.partial_cmp(&b.1).expect("cost is finite")).expect("non-empty").0
    };

    KernelCost {
        cycles,
        time_secs,
        compute_cycles,
        mem_bw_cycles,
        mem_lat_cycles,
        shared_cycles,
        atomic_cycles,
        occupancy: occ,
        bound,
    }
}

impl KernelCost {
    /// Describe this launch as a [`TraceEvent::KernelLaunch`] carrying the
    /// full cost attribution. Callers build it from a launch's final cost,
    /// after any post-estimate adjustment (e.g. a reduction's second-stage
    /// launch overhead), so the sink's copy and the run's record agree.
    ///
    /// [`TraceEvent::KernelLaunch`]: crate::trace::TraceEvent::KernelLaunch
    pub fn trace_event(
        &self,
        name: &str,
        fp: &KernelFootprint,
        t: &KernelTotals,
        cfg: &DeviceConfig,
    ) -> crate::trace::TraceEvent {
        crate::trace::TraceEvent::KernelLaunch {
            name: name.to_string(),
            footprint: *fp,
            cost: self.clone(),
            totals: *t,
            traffic_bytes: t.traffic_bytes(cfg),
        }
    }
}

/// [`estimate_kernel`], plus a [`TraceEvent::KernelLaunch`] carrying the
/// full cost attribution when the sink is enabled. The returned cost is
/// bit-identical to the untraced estimate.
///
/// [`TraceEvent::KernelLaunch`]: crate::trace::TraceEvent::KernelLaunch
pub fn estimate_kernel_traced(
    cfg: &DeviceConfig,
    fp: &KernelFootprint,
    t: &KernelTotals,
    name: &str,
    sink: &mut dyn crate::trace::TraceSink,
) -> KernelCost {
    let cost = estimate_kernel(cfg, fp, t);
    if sink.enabled() {
        sink.emit(cost.trace_event(name, fp, t, cfg));
    }
    cost
}

/// Issue cycles for one warp: the longest lane's dynamic op count plus a
/// fixed penalty per divergent branch row (a row where lanes of the warp
/// disagreed on a branch direction, forcing both paths to be issued).
pub fn warp_issue_cycles(lane_ops: &[u64], divergent_rows: u64) -> f64 {
    let max = lane_ops.iter().copied().max().unwrap_or(0) as f64;
    max + divergent_rows as f64 * DIVERGENCE_PENALTY_CYCLES
}

/// Extra issue cycles charged per divergent branch instance; approximates
/// the cost of issuing the not-taken path's instructions for masked lanes.
pub const DIVERGENCE_PENALTY_CYCLES: f64 = 8.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn m2090() -> DeviceConfig {
        DeviceConfig::tesla_m2090()
    }

    #[test]
    fn compute_bound_kernel() {
        let cfg = m2090();
        let fp = KernelFootprint::new(256, 1024);
        let t = KernelTotals { warps: 8192, issue_cycles: 8192.0 * 10_000.0, ..Default::default() };
        let c = estimate_kernel(&cfg, &fp, &t);
        assert_eq!(c.bound, Bound::Compute);
        // 81.92M issue cycles over 16 SMs at 1 warp-inst/cycle = 5.12M cycles
        assert!((c.compute_cycles - 8192.0 * 10_000.0 / 16.0).abs() < 1.0);
    }

    #[test]
    fn bandwidth_bound_kernel() {
        let cfg = m2090();
        let fp = KernelFootprint::new(256, 1024);
        let t = KernelTotals {
            warps: 8192,
            issue_cycles: 8192.0,
            global_requests: 1_000_000,
            global_transactions: 32_000_000, // heavily uncoalesced
            useful_bytes: 128_000_000,
            ..Default::default()
        };
        let c = estimate_kernel(&cfg, &fp, &t);
        assert_eq!(c.bound, Bound::MemBandwidth);
        assert!(c.mem_bw_cycles > c.mem_lat_cycles);
    }

    #[test]
    fn uncoalesced_is_slower_than_coalesced() {
        let cfg = m2090();
        let fp = KernelFootprint::new(256, 1024);
        let mk = |tx: u64| KernelTotals {
            warps: 8192,
            issue_cycles: 8192.0 * 100.0,
            global_requests: 1_000_000,
            global_transactions: tx,
            useful_bytes: 128_000_000,
            ..Default::default()
        };
        let fast = estimate_kernel(&cfg, &fp, &mk(1_000_000));
        let slow = estimate_kernel(&cfg, &fp, &mk(16_000_000));
        assert!(slow.time_secs > 8.0 * fast.time_secs, "16x transactions should be ~16x slower when BW-bound");
    }

    #[test]
    fn low_occupancy_becomes_latency_bound() {
        let cfg = m2090();
        // Huge shared footprint: one block per SM, few warps to hide latency.
        let fp = KernelFootprint {
            threads_per_block: 64,
            shared_bytes_per_block: 40 * 1024,
            regs_per_thread: 20,
            grid_blocks: 16,
        };
        let t = KernelTotals {
            warps: 32,
            issue_cycles: 3200.0,
            global_requests: 100_000,
            global_transactions: 100_000,
            useful_bytes: 12_800_000,
            ..Default::default()
        };
        let c = estimate_kernel(&cfg, &fp, &t);
        assert_eq!(c.occupancy.blocks_per_sm, 1);
        assert_eq!(c.bound, Bound::MemLatency);

        // Same work at full occupancy is faster.
        let fp2 = KernelFootprint::new(256, 1024);
        let c2 = estimate_kernel(&cfg, &fp2, &t);
        assert!(c2.time_secs < c.time_secs);
    }

    #[test]
    fn atomics_serialize() {
        let cfg = m2090();
        let fp = KernelFootprint::new(256, 64);
        let t = KernelTotals { warps: 512, issue_cycles: 512.0, atomic_slots: 100_000, ..Default::default() };
        let c = estimate_kernel(&cfg, &fp, &t);
        assert_eq!(c.bound, Bound::Atomic);
        assert!(c.atomic_cycles > 1e6);
    }

    #[test]
    fn tiny_kernel_is_launch_bound() {
        let cfg = m2090();
        let fp = KernelFootprint::new(32, 1);
        let t = KernelTotals {
            warps: 1,
            issue_cycles: 50.0,
            global_requests: 4,
            global_transactions: 4,
            useful_bytes: 512,
            ..Default::default()
        };
        let c = estimate_kernel(&cfg, &fp, &t);
        assert_eq!(c.bound, Bound::LaunchOverhead);
        assert!(c.time_secs >= cfg.launch_overhead_us * 1e-6);
    }

    #[test]
    fn warp_issue_includes_divergence() {
        assert_eq!(warp_issue_cycles(&[10, 10, 10], 0), 10.0);
        assert_eq!(warp_issue_cycles(&[10, 4, 2], 0), 10.0);
        assert_eq!(warp_issue_cycles(&[10, 4, 2], 3), 10.0 + 3.0 * DIVERGENCE_PENALTY_CYCLES);
        assert_eq!(warp_issue_cycles(&[], 0), 0.0);
    }

    #[test]
    fn dp_issue_factor_scales_compute_term() {
        // A compute-bound kernel on a half-rate-DP device (factor 1.0) is
        // priced as before; a 1:8 GT200 pays 4x the compute cycles for the
        // same issue evidence.
        let fp = KernelFootprint::new(256, 1024);
        let t = KernelTotals { warps: 8192, issue_cycles: 8192.0 * 10_000.0, ..Default::default() };
        let fermi = estimate_kernel(&DeviceConfig::tesla_m2090(), &fp, &t);
        assert!((DeviceConfig::tesla_m2090().dp_issue_factor() - 1.0).abs() < 1e-12);
        let mut slow_dp = DeviceConfig::tesla_m2090();
        slow_dp.fp64_fp32_ratio = 1.0 / 8.0;
        let gt200ish = estimate_kernel(&slow_dp, &fp, &t);
        assert!((gt200ish.compute_cycles - 4.0 * fermi.compute_cycles).abs() < 1e-6);
    }

    #[test]
    fn totals_merge_adds() {
        let mut a = KernelTotals { warps: 1, issue_cycles: 2.0, global_requests: 3, ..Default::default() };
        let b = KernelTotals { warps: 10, issue_cycles: 20.0, global_requests: 30, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.warps, 11);
        assert_eq!(a.issue_cycles, 22.0);
        assert_eq!(a.global_requests, 33);
    }

    #[test]
    fn traffic_amplification_reflects_coalescing() {
        let cfg = m2090();
        let t = KernelTotals { global_transactions: 1000, useful_bytes: 128_000, ..Default::default() };
        assert!((t.traffic_amplification(&cfg) - 1.0).abs() < 1e-12);
        let bad = KernelTotals { global_transactions: 32_000, useful_bytes: 128_000, ..Default::default() };
        assert!((bad.traffic_amplification(&cfg) - 32.0).abs() < 1e-12);
    }
}
