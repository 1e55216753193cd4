//! Execute a compiled GPU version: host statements run on the CPU model,
//! parallel regions launch simulated kernels, and every byte over PCIe is
//! planned by the model's data policy and charged to the timeline.

use std::collections::HashMap;

use acceval_ir::analysis::{arrays_touched, Touched};
use acceval_ir::interp::cpu::CpuMachine;
use acceval_ir::interp::gpu::{launch_traced, DeviceState};
use acceval_ir::interp::{Hooks, Interp};
use acceval_ir::program::{DataSet, HostData};
use acceval_ir::stmt::{DataClauses, ParallelRegion, Stmt, UpdateDir};
use acceval_ir::types::{ArrayId, Value, VarRef};
use acceval_sim::{Dir, MachineConfig, NullSink, SimError, Timeline, TraceEvent, TraceSink};

use acceval_models::DataPolicy;

use crate::compile::CompiledProgram;

/// Per-array residency state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Resident {
    host_valid: bool,
    dev_valid: bool,
}

struct GpuHooks<'c> {
    compiled: &'c CompiledProgram,
    cfg: &'c MachineConfig,
    dev: DeviceState,
    res: Vec<Resident>,
    /// Arrays still in their pristine zero-filled state (not provided by the
    /// dataset and never written by host code): the planner may allocate
    /// them on the device without a transfer, soundly.
    pristine_zero: Vec<bool>,
    /// Arrays covered by enclosing data regions (count per array, so nested
    /// regions compose).
    scoped: Vec<u32>,
    timeline: Timeline,
    /// CPU cycles already flushed into the timeline.
    flushed_cycles: f64,
    /// Read/write sets per region id (computed lazily).
    region_touch: HashMap<u32, Touched>,
    /// Structured trace consumer (NullSink for untraced runs).
    sink: &'c mut dyn TraceSink,
    /// First runtime error (the `Hooks` trait cannot surface `Result`s, so
    /// errors latch here and short-circuit the remaining hooks; the driver
    /// reads the latch when the walk finishes).
    error: Option<SimError>,
}

impl<'c> GpuHooks<'c> {
    fn new(compiled: &'c CompiledProgram, cfg: &'c MachineConfig, ds: &DataSet, sink: &'c mut dyn TraceSink) -> Self {
        let n = compiled.program.arrays.len();
        let mut pristine_zero = vec![true; n];
        for (id, _) in &ds.arrays {
            pristine_zero[id.0 as usize] = false;
        }
        GpuHooks {
            compiled,
            cfg,
            dev: DeviceState::new(&compiled.program, &cfg.device),
            res: vec![Resident { host_valid: true, dev_valid: false }; n],
            pristine_zero,
            scoped: vec![0; n],
            timeline: Timeline::new(),
            flushed_cycles: 0.0,
            region_touch: HashMap::new(),
            sink,
            error: None,
        }
    }

    /// Move accumulated host cycles into the timeline as one event.
    fn flush_host(&mut self, it: &mut Interp<CpuMachine>, label: &str) {
        let delta = it.m.cycles - self.flushed_cycles;
        if delta > 0.0 {
            let secs = self.cfg.host.cycles_to_secs(delta);
            self.timeline.host(label, secs);
            self.flushed_cycles = it.m.cycles;
            if self.sink.enabled() {
                self.sink.emit(TraceEvent::Host { label: label.to_string(), secs });
            }
        }
    }

    fn h2d(&mut self, it: &Interp<CpuMachine>, a: ArrayId) {
        let buf = &it.m.data.bufs[a.0 as usize];
        // A forced re-transfer of an already-valid device copy moves
        // identical bytes: charge the timeline, skip the memcpy.
        if !self.res[a.0 as usize].dev_valid {
            self.dev.upload(a, buf);
        }
        let bytes = buf.size_bytes();
        let secs = self.cfg.link.transfer_secs(bytes);
        let name = self.compiled.program.array_name(a);
        self.timeline.transfer(name, Dir::HostToDevice, bytes, secs);
        if self.sink.enabled() {
            self.sink.emit(buf.transfer_event(name, Dir::HostToDevice, secs));
        }
        self.res[a.0 as usize].dev_valid = true;
    }

    fn d2h(&mut self, it: &mut Interp<CpuMachine>, a: ArrayId) -> Result<(), SimError> {
        let buf = &mut it.m.data.bufs[a.0 as usize];
        // Same elision on the way down: a valid host copy already holds the
        // bytes this transfer would move.
        if !self.res[a.0 as usize].host_valid {
            self.dev.download(a, buf).map_err(|e| match e {
                SimError::DownloadUnallocated { .. } => {
                    SimError::DownloadUnallocated { array: self.compiled.program.array_name(a).to_string() }
                }
            })?;
        }
        let bytes = buf.size_bytes();
        let secs = self.cfg.link.transfer_secs(bytes);
        let name = self.compiled.program.array_name(a);
        self.timeline.transfer(name, Dir::DeviceToHost, bytes, secs);
        if self.sink.enabled() {
            self.sink.emit(buf.transfer_event(name, Dir::DeviceToHost, secs));
        }
        self.res[a.0 as usize].host_valid = true;
        Ok(())
    }

    /// Make the device copy valid (transfer or allocate as needed).
    /// `force` re-transfers even when already valid (naive per-region plans).
    fn ensure_device(&mut self, it: &Interp<CpuMachine>, a: ArrayId, force: bool) {
        let r = self.res[a.0 as usize];
        // Pristine zero-filled arrays match a zeroed device allocation
        // exactly; every planner elides that transfer.
        if self.pristine_zero[a.0 as usize] && !r.dev_valid {
            self.dev.alloc(a, &it.m.data.bufs[a.0 as usize]);
            self.res[a.0 as usize].dev_valid = true;
            return;
        }
        if force || !r.dev_valid {
            if r.host_valid {
                self.h2d(it, a);
            } else if !r.dev_valid {
                // neither side valid: first touch; allocate zeroed
                self.dev.alloc(a, &it.m.data.bufs[a.0 as usize]);
                self.res[a.0 as usize].dev_valid = true;
            }
        } else if !self.dev.is_allocated(a) {
            self.dev.alloc(a, &it.m.data.bufs[a.0 as usize]);
        }
    }

    /// Make the host copy valid.
    fn ensure_host(&mut self, it: &mut Interp<CpuMachine>, a: ArrayId) -> Result<(), SimError> {
        if !self.res[a.0 as usize].host_valid {
            self.d2h(it, a)?;
        }
        Ok(())
    }

    /// Latch the first runtime error; later hooks short-circuit on it.
    fn latch(&mut self, r: Result<(), SimError>) {
        if let Err(e) = r {
            self.error.get_or_insert(e);
        }
    }

    fn touched_of_region(&mut self, r: &ParallelRegion) -> Touched {
        if let Some(t) = self.region_touch.get(&r.id.0) {
            return t.clone();
        }
        let t = arrays_touched(&self.compiled.program, &r.body);
        self.region_touch.insert(r.id.0, t.clone());
        t
    }
}

impl Hooks<CpuMachine> for GpuHooks<'_> {
    fn on_parallel(&mut self, it: &mut Interp<CpuMachine>, r: &ParallelRegion) -> bool {
        if self.error.is_some() {
            return true; // a latched error aborts the run; skip the region
        }
        let Some(kernels) = self.compiled.kernels.get(&r.id.0) else {
            // Untranslated region: run sequentially on the host. Host code
            // reads/writes host memory, so sync first.
            let t = self.touched_of_region(r);
            for a in t.all() {
                let r = self.ensure_host(it, a);
                self.latch(r);
            }
            for a in &t.writes {
                self.res[a.0 as usize].dev_valid = false;
            }
            return false;
        };
        self.flush_host(it, "host");

        // Plan transfers for the region's footprint.
        let t = self.touched_of_region(r);
        let naive = match self.compiled.policy {
            DataPolicy::PerRegion => true,
            DataPolicy::Automatic => false,
            DataPolicy::DataRegionScoped => false, // per-array below
        };
        // Private (expanded) arrays live entirely on the device; they are
        // neither uploaded nor downloaded.
        let private: Vec<ArrayId> = kernels
            .iter()
            .flat_map(|k| k.private_arrays.iter().map(|p| p.array))
            .chain(r.private.iter().filter_map(|v| match v {
                VarRef::Array(a) => Some(*a),
                _ => None,
            }))
            .collect();
        let red_targets: Vec<ArrayId> = kernels
            .iter()
            .flat_map(|k| k.reductions.iter())
            .filter_map(|t| match t.target {
                VarRef::Array(a) => Some(a),
                _ => None,
            })
            .collect();
        for a in t.all() {
            if private.contains(&a) {
                if red_targets.contains(&a) {
                    // reduction targets combine into prior device contents
                    self.ensure_device(it, a, false);
                } else if !self.dev.is_allocated(a) {
                    // plain privates are expanded scratch: allocate only
                    self.dev.alloc(a, &it.m.data.bufs[a.0 as usize]);
                }
                continue;
            }
            let force = match self.compiled.policy {
                DataPolicy::PerRegion => naive,
                DataPolicy::DataRegionScoped => self.scoped[a.0 as usize] == 0,
                DataPolicy::Automatic => false,
            };
            self.ensure_device(it, a, force);
        }

        // Walk the region body: work-sharing loops launch their compiled
        // kernel; anything else executes on the host (region splitting).
        let mut next_kernel = 0usize;
        for s in &r.body {
            if let Stmt::For { par: Some(_), .. } = s {
                let plan = &kernels[next_kernel];
                next_kernel += 1;
                let scalar_reds = plan.reductions.iter().filter(|t| matches!(t.target, VarRef::Scalar(_))).count();
                let mut scal = std::mem::take(&mut it.scal);
                let res =
                    launch_traced(&self.compiled.program, plan, &mut self.dev, &mut scal, &self.cfg.device, self.sink);
                it.scal = scal;
                self.timeline.kernel(&plan.name, res.cost, res.totals);
                if scalar_reds > 0 {
                    // reduction results come back over PCIe
                    let bytes = 8 * scalar_reds as u64;
                    let secs = self.cfg.link.transfer_secs(bytes);
                    let label = format!("{}(red)", plan.name);
                    if self.sink.enabled() {
                        self.sink.emit(TraceEvent::Transfer {
                            array: label.clone(),
                            dir: Dir::DeviceToHost,
                            bytes,
                            secs,
                        });
                    }
                    self.timeline.transfer(label, Dir::DeviceToHost, bytes, secs);
                }
            } else {
                it.exec_plain(s);
            }
        }
        debug_assert_eq!(next_kernel, kernels.len(), "kernel count mismatch in {}", r.label);
        self.flush_host(it, "region-host");

        // Array-reduction targets were combined into the device buffers.
        for k in kernels {
            for t in &k.reductions {
                if let VarRef::Array(a) = t.target {
                    self.pristine_zero[a.0 as usize] = false;
                    self.res[a.0 as usize].dev_valid = true;
                    self.res[a.0 as usize].host_valid = false;
                    if self.compiled.policy == DataPolicy::PerRegion {
                        let r = self.d2h(it, a);
                        self.latch(r);
                    }
                }
            }
        }

        // Written arrays are now device-fresh.
        for a in &t.writes {
            self.pristine_zero[a.0 as usize] = false;
            if private.contains(a) {
                continue;
            }
            self.res[a.0 as usize].dev_valid = true;
            self.res[a.0 as usize].host_valid = false;
            if self.compiled.policy == DataPolicy::PerRegion {
                let r = self.d2h(it, *a); // naive: copy results out immediately
                self.latch(r);
            }
        }
        true
    }

    fn on_data_region(&mut self, it: &mut Interp<CpuMachine>, c: &DataClauses, entering: bool) {
        self.flush_host(it, "host");
        if entering {
            for a in c.copyin.iter().chain(&c.copy) {
                self.ensure_device(it, *a, true);
                self.scoped[a.0 as usize] += 1;
            }
            for a in c.copyout.iter().chain(&c.create) {
                self.dev.alloc(*a, &it.m.data.bufs[a.0 as usize]);
                self.res[a.0 as usize].dev_valid = true;
                self.scoped[a.0 as usize] += 1;
            }
        } else {
            for a in c.copyout.iter().chain(&c.copy) {
                let r = self.d2h(it, *a);
                self.latch(r);
                self.scoped[a.0 as usize] = self.scoped[a.0 as usize].saturating_sub(1);
            }
            for a in c.copyin.iter().chain(&c.create) {
                self.scoped[a.0 as usize] = self.scoped[a.0 as usize].saturating_sub(1);
            }
        }
    }

    fn on_update(&mut self, it: &mut Interp<CpuMachine>, arrays: &[ArrayId], dir: UpdateDir) {
        self.flush_host(it, "host");
        for a in arrays {
            match dir {
                UpdateDir::Host => {
                    let r = self.ensure_host(it, *a);
                    self.latch(r);
                }
                UpdateDir::Device => self.ensure_device(it, *a, true),
            }
        }
    }

    fn on_host_leaf(&mut self, it: &mut Interp<CpuMachine>, s: &Stmt) {
        // Host code about to touch arrays: sync reads, invalidate writes.
        let t = arrays_touched(&self.compiled.program, std::slice::from_ref(s));
        if t.reads.is_empty() && t.writes.is_empty() {
            return;
        }
        for a in t.reads.iter() {
            let r = self.ensure_host(it, *a);
            self.latch(r);
        }
        for a in &t.writes {
            let r = self.ensure_host(it, *a); // partial writes must not lose device data
            self.latch(r);
            self.res[a.0 as usize].dev_valid = false;
            self.pristine_zero[a.0 as usize] = false;
        }
    }
}

/// Result of executing a GPU version.
pub struct GpuRun {
    /// Final host memory (outputs synced back).
    pub data: HostData,
    /// Final scalar environment.
    pub scalars: Vec<Value>,
    /// The full event timeline.
    pub timeline: Timeline,
    /// Total wall seconds.
    pub secs: f64,
}

/// Execute a compiled program on the simulated machine.
///
/// Fails (instead of panicking) when the run needs a transfer the device
/// cannot satisfy, e.g. downloading an array that was never allocated.
pub fn run_gpu_program(compiled: &CompiledProgram, ds: &DataSet, cfg: &MachineConfig) -> Result<GpuRun, SimError> {
    run_gpu_program_traced(compiled, ds, cfg, &mut NullSink)
}

/// [`run_gpu_program`], streaming structured trace events (host spans,
/// PCIe transfers, kernel launches with per-site coalescing evidence) into
/// `sink`. The simulated result is bit-identical to the untraced run.
pub fn run_gpu_program_traced(
    compiled: &CompiledProgram,
    ds: &DataSet,
    cfg: &MachineConfig,
    sink: &mut dyn TraceSink,
) -> Result<GpuRun, SimError> {
    let data = HostData::materialize(&compiled.program, ds);
    let m = CpuMachine::new(&cfg.host, data);
    let mut it = Interp::new(&compiled.program, m, ds);
    let mut hooks = GpuHooks::new(compiled, cfg, ds, sink);
    it.run_with(&compiled.program.main, &mut hooks);
    // Sync program outputs back to the host.
    for &a in &compiled.program.outputs {
        let r = hooks.ensure_host(&mut it, a);
        hooks.latch(r);
    }
    if let Some(e) = hooks.error {
        return Err(e);
    }
    hooks.flush_host(&mut it, "host-final");
    let secs = hooks.timeline.total_secs();
    Ok(GpuRun { data: it.m.data, scalars: it.scal, timeline: hooks.timeline, secs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_port;
    use acceval_benchmarks::{Benchmark, Scale};
    use acceval_ir::interp::cpu::run_cpu;
    use acceval_models::ModelKind;

    fn check_model(b: &dyn Benchmark, kind: ModelKind) -> (f64, f64) {
        let ds = b.dataset(Scale::Test);
        let cfg = MachineConfig::keeneland_node();
        let oracle = run_cpu(&b.original(), &ds, &cfg.host);
        let port = b.port(kind);
        let compiled = compile_port(&port, kind, &ds, None);
        assert!(compiled.unsupported.is_empty(), "{kind:?}: {:?}", compiled.unsupported);
        let run = run_gpu_program(&compiled, &ds, &cfg).expect("gpu run");
        // outputs must match the oracle
        let spec = b.spec();
        for out in &b.original().outputs {
            let name = b.original().array_name(*out).to_string();
            let oid = compiled.program.array_named(&name);
            let d = oracle.data.bufs[out.0 as usize].max_abs_diff(&run.data.bufs[oid.0 as usize]);
            assert!(d < spec.tolerance.max(1e-7), "{kind:?} {name}: diff {d}");
        }
        (oracle.secs, run.secs)
    }

    #[test]
    fn jacobi_all_models_correct_and_faster() {
        for kind in ModelKind::figure1_models() {
            let (cpu, gpu) = check_model(&acceval_benchmarks::jacobi::Jacobi, kind);
            assert!(gpu > 0.0);
            let speedup = cpu / gpu;
            assert!(speedup > 0.1, "{kind:?} speedup {speedup}");
        }
    }

    #[test]
    fn ep_all_models_correct() {
        for kind in ModelKind::figure1_models() {
            check_model(&acceval_benchmarks::ep::Ep, kind);
        }
    }

    #[test]
    fn spmul_all_models_correct() {
        for kind in ModelKind::figure1_models() {
            check_model(&acceval_benchmarks::spmul::Spmul, kind);
        }
    }

    #[test]
    fn data_region_reduces_transfers_vs_naive() {
        // Compare PGI (data-region policy) against a forced naive policy.
        let b = acceval_benchmarks::jacobi::Jacobi;
        let ds = b.dataset(Scale::Test);
        let cfg = MachineConfig::keeneland_node();
        let port = b.port(ModelKind::PgiAccelerator);
        let mut compiled = compile_port(&port, ModelKind::PgiAccelerator, &ds, None);
        let scoped = run_gpu_program(&compiled, &ds, &cfg).expect("gpu run");
        compiled.policy = acceval_models::DataPolicy::PerRegion;
        let naive = run_gpu_program(&compiled, &ds, &cfg).expect("gpu run");
        let s1 = scoped.timeline.summary();
        let s2 = naive.timeline.summary();
        assert!(
            s2.h2d_bytes + s2.d2h_bytes > 3 * (s1.h2d_bytes + s1.d2h_bytes),
            "naive {} vs scoped {}",
            s2.h2d_bytes + s2.d2h_bytes,
            s1.h2d_bytes + s1.d2h_bytes
        );
        assert!(naive.secs > scoped.secs);
    }

    #[test]
    fn ep_expansion_layout_decides_performance() {
        // OpenMPC (column-wise) must beat PGI (row-wise) on EP.
        let (_, mpc) = check_model(&acceval_benchmarks::ep::Ep, ModelKind::OpenMpc);
        let (_, pgi) = check_model(&acceval_benchmarks::ep::Ep, ModelKind::PgiAccelerator);
        assert!(pgi > 1.5 * mpc, "row-wise EP ({pgi:.6}s) should be much slower than column-wise ({mpc:.6}s)");
    }
}
