//! Every read of program-internal state the benchmark makes, in one place.
//!
//! The rest of `accbench` drives the sweep through its public entry points
//! and times the calls from outside. The counters below (launch cache, disk
//! store, engine caches, the launch-parallelism hint) are implementation
//! details of the program: when a change renames or deletes one, only this
//! file follows it.

use acceval::compile::CompiledProgram;
use acceval::ir::interp::{gpu, launch_cache, store};
use acceval::ir::kernel::CompileOutcome;

/// Process-lifetime counters of the launch cache and the disk store.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub hits: u64,
    pub disk_hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub digest_s: f64,
    /// Bytes resident in the launch cache (a level, not a count).
    pub resident_bytes: u64,
    pub spills: u64,
    pub spill_bytes: u64,
    pub quarantined: u64,
}

pub fn counters() -> Counters {
    let c = launch_cache::launch_cache_totals();
    let s = store::store_totals();
    Counters {
        hits: c.hits,
        disk_hits: c.disk_hits,
        misses: c.misses,
        evictions: c.evictions,
        digest_s: c.digest_secs,
        resident_bytes: c.resident_bytes,
        spills: s.spills,
        spill_bytes: s.spill_bytes,
        quarantined: s.quarantined,
    }
}

impl Counters {
    /// The counts accumulated since `earlier`; the resident level is kept.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            hits: self.hits - earlier.hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            digest_s: self.digest_s - earlier.digest_s,
            resident_bytes: self.resident_bytes,
            spills: self.spills - earlier.spills,
            spill_bytes: self.spill_bytes - earlier.spill_bytes,
            quarantined: self.quarantined - earlier.quarantined,
        }
    }
}

/// Bytes the disk store occupies (0 when the store is off).
pub fn store_disk_bytes() -> u64 {
    store::store_stats().bytes
}

/// What the bytecode compiler and optimizer made of a program's plans.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanStats {
    /// Plans with a compile verdict.
    pub plans: u64,
    /// Of those, plans outside the bytecode engine's scope.
    pub ineligible: u64,
    /// Instructions before and after optimization, over optimized plans.
    pub ops_pre: u64,
    pub ops_post: u64,
}

/// Read the compile verdicts and optimizer statistics off `compiled`'s
/// plans. Lowering compiles and optimizes each plan eagerly, so their time
/// is part of the lowering span and only these counts are separate.
pub fn plan_stats(compiled: &CompiledProgram) -> PlanStats {
    let mut p = PlanStats::default();
    for plan in compiled.kernels.values().flatten() {
        match plan.engine_cache.outcome() {
            None => continue,
            Some(CompileOutcome::Ineligible) => p.ineligible += 1,
            Some(CompileOutcome::Compiled(_)) => {}
        }
        p.plans += 1;
        if let Some(st) = plan.engine_cache.opt_stats() {
            p.ops_pre += st.ops_pre;
            p.ops_post += st.ops_post;
        }
    }
    p
}

/// Run `f` under the sweep's two-level parallelism policy: a task started
/// on the sweep's tail may split its kernel launches across block chunks.
/// The traced pass mirrors `run_sweep` here so both schedule alike.
pub fn with_launch_policy<T>(tail: bool, f: impl FnOnce() -> T) -> T {
    let chunked = match gpu::launch_par() {
        gpu::LaunchPar::On => true,
        gpu::LaunchPar::Off => false,
        gpu::LaunchPar::Auto => tail,
    };
    gpu::set_launch_par_hint(Some(chunked));
    let out = f();
    gpu::set_launch_par_hint(None);
    out
}
