//! Machine descriptions for the simulated GPU device and host CPU.
//!
//! The default presets model the evaluation platform of Lee & Vetter (SC'12):
//! an NVIDIA Tesla M2090 (Fermi GF110: 16 SMs x 32 cores, 1.3 GHz, 6 GB GDDR5
//! at 177 GB/s) hosted by an Intel Xeon X5660-class CPU at 2.8 GHz, connected
//! by PCIe 2.0.
//!
//! [`DeviceConfig`] is a *device-generation family*, not one machine: the
//! [`DeviceConfig::presets`] table spans Tesla (GT200), Fermi, Kepler,
//! Pascal, and Volta-class parts, differing in SM counts and clocks, cache
//! hierarchy sizes, coalescing segment rules (128-byte Fermi segments vs
//! 32-byte post-Fermi sectors), double-precision throughput ratios, and
//! whether a dedicated texture path exists at all
//! ([`DeviceConfig::has_texture_path`]). `ACCEVAL_DEVICE` selects a preset
//! by name ([`DeviceConfig::from_env`]).

use serde::{Deserialize, Serialize};

use crate::buffer::Digest128;

/// Description of the simulated CUDA device.
///
/// All latencies and throughputs are expressed in device cycles or
/// bytes-per-cycle so the timing model is clock-independent; [`DeviceConfig::clock_ghz`]
/// converts cycles to seconds at the end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Marketing name, used in reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Scalar cores per SM (Fermi: 32).
    pub cores_per_sm: u32,
    /// SIMT width; threads per warp.
    pub warp_size: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub dram_bw_gbs: f64,
    /// Global-memory load-to-use latency in cycles.
    pub global_latency_cycles: u64,
    /// Size of a global-memory transaction segment in bytes (Fermi: 128).
    pub segment_bytes: u32,
    /// Number of shared-memory banks per SM.
    pub shared_banks: u32,
    /// Shared memory per SM in bytes.
    pub shared_per_sm: u32,
    /// Register file entries (32-bit) per SM.
    pub regs_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block accepted by the launch validator.
    pub max_threads_per_block: u32,
    /// Fixed kernel-launch overhead in microseconds (driver + dispatch).
    pub launch_overhead_us: f64,
    /// Cost in cycles of one atomic RMW that hits no contention.
    pub atomic_base_cycles: u64,
    /// Constant-cache capacity per SM in bytes (broadcast reads are ~free on hit).
    pub const_cache_bytes: u32,
    /// Read-only data cache capacity per SM in bytes: the texture cache on
    /// generations with a dedicated texture path, the unified L1/texture
    /// cache otherwise.
    pub tex_cache_bytes: u32,
    /// Read-only cache line size in bytes (texture line, or the unified-L1
    /// sector on generations without a texture path).
    pub tex_line_bytes: u32,
    /// Device-wide L2 capacity in bytes. Post-Fermi global loads miss L1 and
    /// coalesce at L2 sector granularity, which is why those presets pair a
    /// large `l2_bytes` with a small [`DeviceConfig::segment_bytes`].
    pub l2_bytes: u32,
    /// Double-precision throughput as a fraction of single-precision
    /// (FP64:FP32); 0.5 on full-rate Tesla parts, 1/3 on Kepler GK110B,
    /// 1/8 on GT200. Feeds [`DeviceConfig::dp_issue_factor`].
    pub fp64_fp32_ratio: f64,
    /// Whether the device has a dedicated texture path. When `false`
    /// (Pascal/Volta: read-only data flows through the unified L1), kernels
    /// that place arrays in texture space are priced through the generic
    /// cached global path instead: hits stay on-chip, misses move ordinary
    /// global segments, and requests pay global (not texture) latency.
    pub has_texture_path: bool,
}

/// A named device preset: the canonical generation slug paired with its
/// constructor (see [`DeviceConfig::presets`]).
pub type DevicePreset = (&'static str, fn() -> DeviceConfig);

impl DeviceConfig {
    /// NVIDIA Tesla M2090 (the paper's platform).
    pub fn tesla_m2090() -> Self {
        DeviceConfig {
            name: "Tesla M2090".into(),
            num_sms: 16,
            cores_per_sm: 32,
            warp_size: 32,
            clock_ghz: 1.3,
            dram_bw_gbs: 177.0,
            global_latency_cycles: 600,
            segment_bytes: 128,
            shared_banks: 32,
            shared_per_sm: 48 * 1024,
            regs_per_sm: 32768,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            max_threads_per_block: 1024,
            launch_overhead_us: 5.0,
            atomic_base_cycles: 120,
            const_cache_bytes: 8 * 1024,
            tex_cache_bytes: 12 * 1024,
            tex_line_bytes: 32,
            l2_bytes: 768 * 1024,
            fp64_fp32_ratio: 0.5,
            has_texture_path: true,
        }
    }

    /// Older Tesla C1060-class device (GT200), useful for sensitivity studies:
    /// fewer resident warps and no L1-era coalescing relaxations are modelled
    /// beyond a smaller segment.
    pub fn tesla_c1060() -> Self {
        DeviceConfig {
            name: "Tesla C1060".into(),
            num_sms: 30,
            cores_per_sm: 8,
            warp_size: 32,
            clock_ghz: 1.296,
            dram_bw_gbs: 102.0,
            global_latency_cycles: 550,
            segment_bytes: 64,
            shared_banks: 16,
            shared_per_sm: 16 * 1024,
            regs_per_sm: 16384,
            max_warps_per_sm: 32,
            max_blocks_per_sm: 8,
            max_threads_per_block: 512,
            launch_overhead_us: 7.0,
            atomic_base_cycles: 200,
            const_cache_bytes: 8 * 1024,
            tex_cache_bytes: 8 * 1024,
            tex_line_bytes: 32,
            l2_bytes: 0, // GT200 has no unified L2 for global loads
            fp64_fp32_ratio: 1.0 / 8.0,
            has_texture_path: true,
        }
    }

    /// NVIDIA Tesla K40 (Kepler GK110B). Post-Fermi coalescing: global loads
    /// bypass L1 and coalesce at 32-byte L2 sectors; the 48 KB read-only
    /// (texture) cache per SMX survives as a dedicated path. FP64 runs at
    /// one third of the FP32 rate.
    pub fn kepler_k40() -> Self {
        DeviceConfig {
            name: "Tesla K40".into(),
            num_sms: 15,
            cores_per_sm: 192,
            warp_size: 32,
            clock_ghz: 0.745,
            dram_bw_gbs: 288.0,
            global_latency_cycles: 500,
            segment_bytes: 32,
            shared_banks: 32,
            shared_per_sm: 48 * 1024,
            regs_per_sm: 65536,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            launch_overhead_us: 5.0,
            atomic_base_cycles: 100,
            const_cache_bytes: 8 * 1024,
            tex_cache_bytes: 48 * 1024,
            tex_line_bytes: 32,
            l2_bytes: 1536 * 1024,
            fp64_fp32_ratio: 1.0 / 3.0,
            has_texture_path: true,
        }
    }

    /// NVIDIA Tesla P100 (Pascal GP100). No dedicated texture path: read-only
    /// data flows through the 24 KB unified L1/texture cache per SM, so
    /// texture placements are priced through the generic cached path.
    /// Full-rate FP64 (1:2).
    pub fn pascal_p100() -> Self {
        DeviceConfig {
            name: "Tesla P100".into(),
            num_sms: 56,
            cores_per_sm: 64,
            warp_size: 32,
            clock_ghz: 1.328,
            dram_bw_gbs: 732.0,
            global_latency_cycles: 450,
            segment_bytes: 32,
            shared_banks: 32,
            shared_per_sm: 64 * 1024,
            regs_per_sm: 65536,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            launch_overhead_us: 4.0,
            atomic_base_cycles: 60,
            const_cache_bytes: 8 * 1024,
            tex_cache_bytes: 24 * 1024,
            tex_line_bytes: 32,
            l2_bytes: 4096 * 1024,
            fp64_fp32_ratio: 0.5,
            has_texture_path: false,
        }
    }

    /// NVIDIA Tesla V100 (Volta GV100). Unified L1/shared/texture storage
    /// (128 KB per SM, up to 96 KB usable as shared memory); like Pascal,
    /// read-only data goes through the generic cached path. Full-rate FP64.
    pub fn volta_v100() -> Self {
        DeviceConfig {
            name: "Tesla V100".into(),
            num_sms: 80,
            cores_per_sm: 64,
            warp_size: 32,
            clock_ghz: 1.38,
            dram_bw_gbs: 900.0,
            global_latency_cycles: 400,
            segment_bytes: 32,
            shared_banks: 32,
            shared_per_sm: 96 * 1024,
            regs_per_sm: 65536,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            launch_overhead_us: 3.5,
            atomic_base_cycles: 30,
            const_cache_bytes: 8 * 1024,
            tex_cache_bytes: 32 * 1024,
            tex_line_bytes: 32,
            l2_bytes: 6144 * 1024,
            fp64_fp32_ratio: 0.5,
            has_texture_path: false,
        }
    }

    /// DRAM bandwidth expressed in bytes per device cycle.
    #[inline]
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bw_gbs / self.clock_ghz
    }

    /// Total scalar cores on the device.
    #[inline]
    pub fn total_cores(&self) -> u32 {
        self.num_sms * self.cores_per_sm
    }

    /// Convert device cycles to seconds.
    #[inline]
    pub fn cycles_to_secs(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }

    /// Warp-instruction issue throughput per SM per cycle.
    ///
    /// A Fermi SM with 32 cores retires one full 32-lane warp instruction per
    /// cycle; a GT200 SM with 8 cores needs 4 cycles per warp instruction.
    #[inline]
    pub fn warp_insts_per_sm_cycle(&self) -> f64 {
        self.cores_per_sm as f64 / self.warp_size as f64
    }

    /// Number of warps a thread block of `threads` threads occupies.
    #[inline]
    pub fn warps_per_block(&self, threads: u32) -> u32 {
        threads.div_ceil(self.warp_size)
    }

    /// Issue-cycle multiplier for the double-precision-dominated codes this
    /// evaluation runs, relative to the Fermi-class calibration baseline.
    ///
    /// The cost model's per-op issue charges were calibrated on the paper's
    /// platform (M2090, half-rate FP64), so a device with ratio 1:2 issues at
    /// factor 1.0; a device with a weaker FP64:FP32 ratio pays
    /// proportionally more issue cycles per double-precision instruction
    /// (GT200 at 1:8 → 4.0, Kepler GK110B at 1:3 → 1.5).
    #[inline]
    pub fn dp_issue_factor(&self) -> f64 {
        0.5 / self.fp64_fp32_ratio
    }

    /// The named device presets of the generation family, oldest first.
    ///
    /// The slug is the canonical `ACCEVAL_DEVICE` value and the device
    /// column of `results/device_matrix.csv`; [`DeviceConfig::preset`] also
    /// accepts the part-number aliases (`m2090`, `k40`, ...).
    pub fn presets() -> [DevicePreset; 5] {
        [
            ("tesla", Self::tesla_c1060),
            ("fermi", Self::tesla_m2090),
            ("kepler", Self::kepler_k40),
            ("pascal", Self::pascal_p100),
            ("volta", Self::volta_v100),
        ]
    }

    /// Look up a device preset by name, case-insensitively. Accepts the
    /// generation slug (`fermi`, `kepler`, ...), the constructor name
    /// (`tesla_m2090`, `kepler_k40`, ...), or the bare part number
    /// (`m2090`, `k40`, ...). Returns `None` for unknown names — callers
    /// decide whether that is a hard usage error ([`crate`]-external
    /// validation) or a soft fall-back ([`DeviceConfig::from_env`]).
    pub fn preset(name: &str) -> Option<DeviceConfig> {
        let n = name.to_ascii_lowercase();
        let ctor: fn() -> DeviceConfig = match n.as_str() {
            "tesla" | "tesla_c1060" | "c1060" => Self::tesla_c1060,
            "fermi" | "tesla_m2090" | "m2090" => Self::tesla_m2090,
            "kepler" | "kepler_k40" | "k40" => Self::kepler_k40,
            "pascal" | "pascal_p100" | "p100" => Self::pascal_p100,
            "volta" | "volta_v100" | "v100" => Self::volta_v100,
            _ => return None,
        };
        Some(ctor())
    }

    /// The canonical generation slug of this configuration (`None` for a
    /// hand-built config that matches no preset field-for-field).
    pub fn slug(&self) -> Option<&'static str> {
        Self::presets().into_iter().find(|(_, ctor)| &ctor() == self).map(|(s, _)| s)
    }

    /// The device preset selected by `ACCEVAL_DEVICE`, or the paper's M2090
    /// when unset.
    ///
    /// Library getter semantics (matching the other `ACCEVAL_*` knobs): an
    /// unknown name falls back soft to the default here — front-end binaries
    /// validate strictly up front via `acceval_ir::env::validate_env` and
    /// exit 2, so a typo never silently reaches a sweep started through a
    /// binary.
    pub fn from_env() -> DeviceConfig {
        match std::env::var("ACCEVAL_DEVICE") {
            Ok(v) => Self::preset(&v).unwrap_or_else(Self::tesla_m2090),
            Err(_) => Self::tesla_m2090(),
        }
    }

    /// Digest of every field of this configuration.
    ///
    /// Two distinct presets must never digest equal: launch-cache and
    /// persistent-store keys fold this in so matrix sweeps over the device
    /// family cannot cross-contaminate. The exhaustive destructure below
    /// makes a new field a compile error here until it is hashed too.
    pub fn config_digest(&self) -> u64 {
        let DeviceConfig {
            name,
            num_sms,
            cores_per_sm,
            warp_size,
            clock_ghz,
            dram_bw_gbs,
            global_latency_cycles,
            segment_bytes,
            shared_banks,
            shared_per_sm,
            regs_per_sm,
            max_warps_per_sm,
            max_blocks_per_sm,
            max_threads_per_block,
            launch_overhead_us,
            atomic_base_cycles,
            const_cache_bytes,
            tex_cache_bytes,
            tex_line_bytes,
            l2_bytes,
            fp64_fp32_ratio,
            has_texture_path,
        } = self;
        let mut d = Digest128::new();
        d.push_bytes(name.as_bytes());
        for w in [
            *num_sms as u64,
            *cores_per_sm as u64,
            *warp_size as u64,
            clock_ghz.to_bits(),
            dram_bw_gbs.to_bits(),
            *global_latency_cycles,
            *segment_bytes as u64,
            *shared_banks as u64,
            *shared_per_sm as u64,
            *regs_per_sm as u64,
            *max_warps_per_sm as u64,
            *max_blocks_per_sm as u64,
            *max_threads_per_block as u64,
            launch_overhead_us.to_bits(),
            *atomic_base_cycles,
            *const_cache_bytes as u64,
            *tex_cache_bytes as u64,
            *tex_line_bytes as u64,
            *l2_bytes as u64,
            fp64_fp32_ratio.to_bits(),
            *has_texture_path as u64,
        ] {
            d.push(w);
        }
        let f = d.finish();
        (f >> 64) as u64 ^ f as u64
    }

    /// Resident warps per SM for a kernel with the given per-block resource
    /// footprint, i.e. the classic CUDA occupancy calculation.
    pub fn occupancy(&self, threads_per_block: u32, shared_per_block: u32, regs_per_thread: u32) -> Occupancy {
        let threads_per_block = threads_per_block.max(1);
        let warps_per_block = self.warps_per_block(threads_per_block);
        let by_warps = self.max_warps_per_sm / warps_per_block.max(1);
        let by_blocks = self.max_blocks_per_sm;
        let by_shared = self.shared_per_sm.checked_div(shared_per_block).unwrap_or(u32::MAX);
        let regs_per_block = regs_per_thread.max(1) * threads_per_block;
        let by_regs = self.regs_per_sm.checked_div(regs_per_block).unwrap_or(u32::MAX);
        let blocks = by_warps.min(by_blocks).min(by_shared).min(by_regs);
        let resident_warps = blocks * warps_per_block;
        Occupancy {
            blocks_per_sm: blocks,
            resident_warps_per_sm: resident_warps,
            fraction: resident_warps as f64 / self.max_warps_per_sm as f64,
        }
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::tesla_m2090()
    }
}

/// Result of the occupancy calculation for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Thread blocks resident per SM.
    pub blocks_per_sm: u32,
    /// Warps resident per SM.
    pub resident_warps_per_sm: u32,
    /// `resident_warps / max_warps`.
    pub fraction: f64,
}

/// Description of the host CPU used for the sequential baseline and for the
/// host portions of the GPU versions.
///
/// The cost model is a 2-wide in-order approximation of an out-of-order
/// Westmere core: ALU ops retire at `ipc` per cycle and memory operations pay
/// *effective* (overlap-discounted) latencies determined by a two-level cache
/// simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostConfig {
    /// Marketing name, used in reports.
    pub name: String,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Sustained instructions per cycle for non-memory ops.
    pub ipc: f64,
    /// L1D capacity in bytes.
    pub l1_bytes: u32,
    /// L1D associativity.
    pub l1_ways: u32,
    /// Effective L1 hit cost in cycles.
    pub l1_hit_cycles: f64,
    /// L2 capacity in bytes (per-core slice; we model a unified L2+L3 stand-in).
    pub l2_bytes: u32,
    /// L2 associativity.
    pub l2_ways: u32,
    /// Effective L2 hit cost in cycles.
    pub l2_hit_cycles: f64,
    /// Effective DRAM cost in cycles (discounted for out-of-order overlap
    /// and hardware prefetch on sequential streams).
    pub mem_cycles: f64,
    /// Cache line size in bytes.
    pub line_bytes: u32,
}

impl HostConfig {
    /// Intel Xeon X5660-class host (Keeneland node), GCC -O3 single thread.
    pub fn xeon_x5660() -> Self {
        HostConfig {
            name: "Xeon X5660".into(),
            clock_ghz: 2.8,
            ipc: 2.0,
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l1_hit_cycles: 1.0,
            l2_bytes: 2 * 1024 * 1024,
            l2_ways: 16,
            l2_hit_cycles: 11.0,
            mem_cycles: 70.0,
            line_bytes: 64,
        }
    }

    /// Convert host cycles to seconds.
    #[inline]
    pub fn cycles_to_secs(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }
}

impl Default for HostConfig {
    fn default() -> Self {
        Self::xeon_x5660()
    }
}

/// The PCIe link between host and device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Sustained bandwidth in GB/s (PCIe 2.0 x16 with pinned memory ~6 GB/s;
    /// pageable is lower — the paper's codes use ordinary allocations).
    pub bw_gbs: f64,
    /// Per-transfer fixed latency in microseconds (driver + DMA setup).
    pub latency_us: f64,
}

impl LinkConfig {
    /// PCIe 2.0 x16 with pageable host memory (the paper's era).
    pub fn pcie2_x16() -> Self {
        LinkConfig { bw_gbs: 4.0, latency_us: 10.0 }
    }

    /// Seconds to move `bytes` in one transfer.
    #[inline]
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        self.latency_us * 1e-6 + bytes as f64 / (self.bw_gbs * 1e9)
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::pcie2_x16()
    }
}

/// Complete machine: host + device + link.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// The CPU side.
    pub host: HostConfig,
    /// The GPU side.
    pub device: DeviceConfig,
    /// The PCIe link between them.
    pub link: LinkConfig,
}

impl MachineConfig {
    /// The paper's Keeneland node: X5660 host + M2090 device + PCIe 2.0.
    pub fn keeneland_node() -> Self {
        MachineConfig {
            host: HostConfig::xeon_x5660(),
            device: DeviceConfig::tesla_m2090(),
            link: LinkConfig::pcie2_x16(),
        }
    }

    /// The Keeneland node with its GPU swapped for the `ACCEVAL_DEVICE`
    /// preset (the M2090 when unset). Host and link stay fixed so the
    /// sequential baseline — Figure 1's denominator — is shared across the
    /// whole device family.
    pub fn from_env() -> Self {
        MachineConfig { device: DeviceConfig::from_env(), ..Self::keeneland_node() }
    }

    /// The Keeneland node with its GPU swapped for `device`.
    pub fn with_device(device: DeviceConfig) -> Self {
        MachineConfig { device, ..Self::keeneland_node() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m2090_has_512_cores() {
        let d = DeviceConfig::tesla_m2090();
        assert_eq!(d.total_cores(), 512);
    }

    #[test]
    fn occupancy_limited_by_warps() {
        let d = DeviceConfig::tesla_m2090();
        // 256-thread blocks = 8 warps; 48/8 = 6 blocks but block limit is 8.
        let o = d.occupancy(256, 0, 16);
        assert_eq!(o.blocks_per_sm, 6);
        assert_eq!(o.resident_warps_per_sm, 48);
        assert!((o.fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_limited_by_shared() {
        let d = DeviceConfig::tesla_m2090();
        // 24 KB shared per block -> 2 blocks per SM.
        let o = d.occupancy(128, 24 * 1024, 16);
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.resident_warps_per_sm, 8);
    }

    #[test]
    fn occupancy_limited_by_regs() {
        let d = DeviceConfig::tesla_m2090();
        // 63 regs/thread * 512 threads = 32256 regs -> 1 block.
        let o = d.occupancy(512, 0, 63);
        assert_eq!(o.blocks_per_sm, 1);
    }

    #[test]
    fn occupancy_small_blocks_hit_block_limit() {
        let d = DeviceConfig::tesla_m2090();
        // 32-thread blocks: warp limit allows 48 but block limit caps at 8.
        let o = d.occupancy(32, 0, 16);
        assert_eq!(o.blocks_per_sm, 8);
        assert_eq!(o.resident_warps_per_sm, 8);
    }

    #[test]
    fn cycle_time_roundtrip() {
        let d = DeviceConfig::tesla_m2090();
        let s = d.cycles_to_secs(1.3e9);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_cost_has_latency_floor() {
        let l = LinkConfig::pcie2_x16();
        let t0 = l.transfer_secs(0);
        assert!((t0 - 10e-6).abs() < 1e-12);
        let t1 = l.transfer_secs(4_000_000_000);
        assert!(t1 > 0.9 && t1 < 1.2);
    }

    #[test]
    fn warp_inst_throughput() {
        assert!((DeviceConfig::tesla_m2090().warp_insts_per_sm_cycle() - 1.0).abs() < 1e-12);
        assert!((DeviceConfig::tesla_c1060().warp_insts_per_sm_cycle() - 0.25).abs() < 1e-12);
    }

    /// Every preset must be internally consistent: positive resources, sane
    /// occupancy at common launch shapes, warp size 32 (the SIMT width the
    /// executors vectorize over).
    #[test]
    fn presets_are_self_consistent() {
        for (slug, ctor) in DeviceConfig::presets() {
            let d = ctor();
            assert_eq!(d.warp_size, 32, "{slug}");
            assert!(d.num_sms > 0 && d.cores_per_sm > 0 && d.clock_ghz > 0.0, "{slug}");
            assert!(d.segment_bytes.is_power_of_two() && d.tex_line_bytes.is_power_of_two(), "{slug}");
            assert!(d.max_warps_per_sm * d.warp_size <= 2048 + 1024, "{slug}: resident threads out of range");
            assert!(d.fp64_fp32_ratio > 0.0 && d.fp64_fp32_ratio <= 1.0, "{slug}");
            assert!(d.dp_issue_factor() >= 1.0, "{slug}: DP can never issue faster than the calibration baseline");
            for threads in [32u32, 128, 256, 512, 1024] {
                if threads > d.max_threads_per_block {
                    continue;
                }
                let o = d.occupancy(threads, 0, 20);
                assert!(o.blocks_per_sm >= 1, "{slug}: {threads}-thread blocks must be schedulable");
                assert!(o.resident_warps_per_sm <= d.max_warps_per_sm, "{slug}");
                assert!(o.fraction > 0.0 && o.fraction <= 1.0, "{slug}");
            }
            assert_eq!(d.slug(), Some(slug), "slug must round-trip through the preset table");
            assert_eq!(DeviceConfig::preset(slug).as_ref(), Some(&d), "preset lookup must return the table entry");
        }
        assert!(DeviceConfig::preset("FERMI").is_some(), "lookup is case-insensitive");
        assert!(DeviceConfig::preset("v100").is_some(), "part-number alias");
        assert!(DeviceConfig::preset("turing").is_none());
    }

    /// DRAM bytes-per-cycle must grow strictly across the generation family
    /// (oldest to newest) — the bandwidth trend the matrix report exists to
    /// expose. Compute throughput per SM-cycle times SM count grows too.
    #[test]
    fn preset_bandwidth_is_monotone_across_generations() {
        let family: Vec<DeviceConfig> = DeviceConfig::presets().iter().map(|(_, c)| c()).collect();
        for w in family.windows(2) {
            assert!(
                w[1].dram_bytes_per_cycle() > w[0].dram_bytes_per_cycle(),
                "{} must out-stream {}",
                w[1].name,
                w[0].name
            );
            let rate = |d: &DeviceConfig| d.total_cores() as f64 * d.clock_ghz;
            assert!(rate(&w[1]) > rate(&w[0]), "{} must out-issue {}", w[1].name, w[0].name);
        }
    }

    /// Distinct presets must digest distinct: launch-cache and store keys
    /// fold the config digest, so a collision would let one generation's
    /// cached launches replay under another.
    #[test]
    fn preset_digests_are_distinct() {
        let family: Vec<(&str, DeviceConfig)> = DeviceConfig::presets().iter().map(|(s, c)| (*s, c())).collect();
        for (i, (sa, a)) in family.iter().enumerate() {
            for (sb, b) in family.iter().skip(i + 1) {
                assert_ne!(a.config_digest(), b.config_digest(), "{sa} vs {sb}");
                assert_ne!(format!("{a:?}"), format!("{b:?}"), "{sa} vs {sb}");
            }
        }
        // The digest is sensitive to every modelled field, not just the name.
        let mut tweaked = DeviceConfig::volta_v100();
        tweaked.has_texture_path = true;
        assert_ne!(tweaked.config_digest(), DeviceConfig::volta_v100().config_digest());
    }

    /// Changing any single field of any preset changes its digest.
    #[test]
    fn every_field_moves_the_digest() {
        type Tweak = (&'static str, fn(&mut DeviceConfig));
        let tweaks: [Tweak; 22] = [
            ("name", |c| c.name.push('*')),
            ("num_sms", |c| c.num_sms += 1),
            ("cores_per_sm", |c| c.cores_per_sm += 1),
            ("warp_size", |c| c.warp_size += 1),
            ("clock_ghz", |c| c.clock_ghz += 0.001),
            ("dram_bw_gbs", |c| c.dram_bw_gbs += 0.5),
            ("global_latency_cycles", |c| c.global_latency_cycles += 1),
            ("segment_bytes", |c| c.segment_bytes *= 2),
            ("shared_banks", |c| c.shared_banks += 1),
            ("shared_per_sm", |c| c.shared_per_sm += 1),
            ("regs_per_sm", |c| c.regs_per_sm += 1),
            ("max_warps_per_sm", |c| c.max_warps_per_sm += 1),
            ("max_blocks_per_sm", |c| c.max_blocks_per_sm += 1),
            ("max_threads_per_block", |c| c.max_threads_per_block += 1),
            ("launch_overhead_us", |c| c.launch_overhead_us += 0.25),
            ("atomic_base_cycles", |c| c.atomic_base_cycles += 1),
            ("const_cache_bytes", |c| c.const_cache_bytes += 1),
            ("tex_cache_bytes", |c| c.tex_cache_bytes += 1),
            ("tex_line_bytes", |c| c.tex_line_bytes += 1),
            ("l2_bytes", |c| c.l2_bytes += 1),
            ("fp64_fp32_ratio", |c| c.fp64_fp32_ratio *= 0.5),
            ("has_texture_path", |c| c.has_texture_path = !c.has_texture_path),
        ];
        for (slug, ctor) in DeviceConfig::presets() {
            let base = ctor();
            // `Debug` prints one `field: value` pair per field (no preset
            // name contains ": "), so this fails when a field is added
            // without a tweak above.
            assert_eq!(format!("{base:?}").matches(": ").count(), tweaks.len(), "one tweak per field");
            for (field, tweak) in &tweaks {
                let mut c = base.clone();
                tweak(&mut c);
                assert_ne!(c, base, "{slug}: tweaking {field} must change the config");
                assert_ne!(c.config_digest(), base.config_digest(), "{slug}: {field} must move the digest");
            }
        }
    }
}
