//! The sequential host CPU machine: functional storage + cache-simulated
//! timing. This is both the correctness oracle and the paper's "serial on
//! the CPU" baseline that Figure 1 speedups are measured against.

use acceval_sim::{Buffer, Cache, Hierarchy, HostConfig};

use crate::expr::Intrin;
use crate::interp::Machine;
use crate::program::{DataSet, HostData, Program};
use crate::types::{ArrayId, SiteId, Value};

/// Host CPU machine.
pub struct CpuMachine {
    /// Host memory image (functional state).
    pub data: HostData,
    pub(super) hier: Hierarchy,
    /// Byte base address of each array in the simulated address space.
    pub(super) base: Vec<u64>,
    /// Accumulated cycles.
    pub cycles: f64,
    /// Retired simple ops.
    pub ops: u64,
    /// Loads + stores executed.
    pub accesses: u64,
    pub(super) ipc: f64,
}

impl CpuMachine {
    /// Build a machine over materialized host data.
    pub fn new(cfg: &HostConfig, data: HostData) -> Self {
        let l1 = Cache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes);
        let l2 = Cache::new(cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes);
        let hier = Hierarchy::new(l1, l2, cfg.l1_hit_cycles, cfg.l2_hit_cycles, cfg.mem_cycles);
        // Lay arrays out back-to-back at 4 KiB alignment.
        let mut base = Vec::with_capacity(data.bufs.len());
        let mut cur = 0u64;
        for b in &data.bufs {
            base.push(cur);
            cur += (b.size_bytes() + 4095) & !4095;
            cur += 4096; // guard page, avoids accidental set aliasing
        }
        CpuMachine { data, hier, base, cycles: 0.0, ops: 0, accesses: 0, ipc: cfg.ipc }
    }

    /// Cost in cycles of an intrinsic on this CPU (libm-style).
    pub(super) fn intrin_cycles(f: Intrin) -> f64 {
        match f {
            Intrin::Sqrt => 15.0,
            Intrin::Exp | Intrin::Log => 30.0,
            Intrin::Pow => 45.0,
            Intrin::Sin | Intrin::Cos => 25.0,
            Intrin::Floor => 2.0,
            Intrin::Abs => 1.0,
        }
    }

    /// Byte address of an element, for the cache model.
    #[inline]
    fn addr(&self, array: ArrayId, flat: usize) -> u64 {
        let b = &self.data.bufs[array.0 as usize];
        self.base[array.0 as usize] + b.elem_addr(flat)
    }
}

impl Machine for CpuMachine {
    fn load(&mut self, array: ArrayId, flat: usize, _site: SiteId) -> Value {
        let addr = self.addr(array, flat);
        self.cycles += self.hier.access_cycles(addr);
        self.accesses += 1;
        let b = &self.data.bufs[array.0 as usize];
        if b.elem.is_float() {
            Value::F(b.get_f(flat))
        } else {
            Value::I(b.get_i(flat))
        }
    }

    fn store(&mut self, array: ArrayId, flat: usize, v: Value, _site: SiteId) {
        let addr = self.addr(array, flat);
        self.cycles += self.hier.access_cycles(addr);
        self.accesses += 1;
        let b = &mut self.data.bufs[array.0 as usize];
        if b.elem.is_float() {
            b.set_f(flat, v.as_f());
        } else {
            b.set_i(flat, v.as_i());
        }
    }

    fn ops(&mut self, n: u64) {
        self.ops += n;
        self.cycles += n as f64 / self.ipc;
    }

    fn intrin(&mut self, f: Intrin) {
        self.ops += 1;
        self.cycles += Self::intrin_cycles(f);
    }
}

/// Result of a sequential CPU run.
#[derive(Debug)]
pub struct CpuRun {
    /// Final host memory (program outputs live here).
    pub data: HostData,
    /// Final scalar environment.
    pub scalars: Vec<Value>,
    /// Total cycles consumed.
    pub cycles: f64,
    /// Wall time in seconds at the configured clock.
    pub secs: f64,
    /// Retired simple ops.
    pub ops: u64,
    /// Memory accesses executed.
    pub accesses: u64,
}

/// Run a whole program sequentially on the CPU model.
///
/// This executes the *original OpenMP* program with single-thread semantics
/// (parallel regions run sequentially, critical sections are no-ops), which
/// is exactly the paper's baseline: "sequential CPU versions without OpenMP".
///
/// The program is compiled once into closures (`interp::seq`); the result
/// is bit-identical to tree-walking it through `Interp<CpuMachine>`, which
/// stays the reference.
pub fn run_cpu(prog: &Program, ds: &DataSet, cfg: &HostConfig) -> CpuRun {
    super::seq::run(prog, ds, cfg)
}

/// Extract a named output buffer from a run (convenience for tests).
pub fn output<'r>(prog: &Program, run: &'r CpuRun, name: &str) -> &'r Buffer {
    let id = prog.array_named(name);
    &run.data.bufs[id.0 as usize]
}

/// Extract a named scalar value from a run.
pub fn output_scalar(prog: &Program, run: &CpuRun, name: &str) -> Value {
    run.scalars[prog.scalar_named(name).0 as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::expr::{ld, v};
    use crate::types::ScalarId;

    fn stream_prog(strided: bool) -> (Program, DataSet, ScalarId) {
        let mut pb = ProgramBuilder::new("stream");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let a = pb.farray("a", vec![v(n)]);
        let idx: crate::expr::Expr = if strided {
            // large stride: (i * 197) % n — defeats the caches
            (v(i) * 197i64) % v(n)
        } else {
            v(i)
        };
        pb.main(vec![sfor(i, 0i64, v(n), vec![store(a, vec![idx.clone()], ld(a, vec![idx]) + 1.0)])]);
        let p = pb.build();
        let ds = DataSet { scalars: vec![(n, Value::I(1 << 16))], arrays: vec![], label: "t".into() };
        (p, ds, n)
    }

    #[test]
    fn sequential_access_cheaper_than_scattered() {
        let cfg = HostConfig::xeon_x5660();
        let (p1, ds1, _) = stream_prog(false);
        let (p2, ds2, _) = stream_prog(true);
        let r1 = run_cpu(&p1, &ds1, &cfg);
        let r2 = run_cpu(&p2, &ds2, &cfg);
        assert!(
            r2.cycles > 1.5 * r1.cycles,
            "scattered ({:.0}) should cost much more than sequential ({:.0})",
            r2.cycles,
            r1.cycles
        );
    }

    #[test]
    fn run_produces_output_and_time() {
        let cfg = HostConfig::xeon_x5660();
        let (p, ds, _) = stream_prog(false);
        let r = run_cpu(&p, &ds, &cfg);
        let a = output(&p, &r, "a");
        assert_eq!(a.get_f(0), 1.0);
        assert!(r.secs > 0.0);
        assert_eq!(r.accesses, 2 * (1 << 16));
    }

    #[test]
    fn intrinsics_cost_more_than_adds() {
        let cfg = HostConfig::xeon_x5660();
        let mut pb = ProgramBuilder::new("intr");
        let i = pb.iscalar("i");
        let x = pb.fscalar("x");
        pb.main(vec![sfor(i, 0i64, 1000i64, vec![assign(x, v(x).exp())])]);
        let p1 = pb.build();

        let mut pb = ProgramBuilder::new("adds");
        let i = pb.iscalar("i");
        let x = pb.fscalar("x");
        pb.main(vec![sfor(i, 0i64, 1000i64, vec![assign(x, v(x) + 1.0)])]);
        let p2 = pb.build();

        let r1 = run_cpu(&p1, &DataSet::default(), &cfg);
        let r2 = run_cpu(&p2, &DataSet::default(), &cfg);
        assert!(r1.cycles > 2.0 * r2.cycles);
    }
}
