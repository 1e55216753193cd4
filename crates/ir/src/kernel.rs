//! Compiled GPU kernel plans.
//!
//! A [`KernelPlan`] is what a directive-model compiler (or a hand-written
//! CUDA port) produces for one offloaded loop nest: the per-thread body, how
//! loop indices map to the thread grid, reduction handling, private-array
//! expansion layout, and memory-space placements. The GPU executor
//! ([`crate::interp::gpu`]) runs plans functionally and prices them.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::expr::Expr;
use crate::interp::bytecode::{compile, KernelBytecode, OptStats};
use crate::interp::native::{compile_native, NativeKernel};
use crate::metrics::{self, Counter};
use crate::program::Program;
use crate::stmt::Stmt;
use crate::types::{ArrayId, ReduceOp, ScalarId, VarRef};

/// One parallel axis: a loop variable bound to a thread-grid dimension.
/// Thread with coordinate `g` along this axis executes with
/// `var = lo + g * step`, guarded by `g < count`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParAxis {
    pub var: ScalarId,
    pub lo: Expr,
    /// Number of iterations along this axis (evaluated at launch).
    pub count: Expr,
    pub step: Expr,
}

/// Memory space a (device-resident) array is accessed through.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MemSpace {
    /// Ordinary global memory.
    Global,
    /// Constant memory: broadcast reads are near-free, divergent reads
    /// serialize; no DRAM traffic (assumed cache-resident).
    Constant,
    /// Texture memory: read-only, cached (simulated texture cache).
    Texture,
    /// Staged through shared-memory tiles with the given average reuse
    /// factor: global traffic is divided by `reuse`, accesses are priced as
    /// shared-memory (bank-conflict-aware) traffic instead.
    SharedTiled { reuse: f64 },
}

/// How a private array is expanded into device memory.
///
/// This is the paper's EP story: the PGI compiler expands thread-private
/// arrays **row-wise** (`tid * len + i` — good for CPU locality, uncoalesced
/// on the GPU) while OpenMPC's *Matrix Transpose* technique expands
/// **column-wise** (`i * nthreads + tid` — coalesced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Expansion {
    RowWise,
    ColumnWise,
    /// Kept in registers/local storage; no global traffic (only valid for
    /// tiny arrays — the hand-written versions use this when they eliminate
    /// redundant private arrays).
    Register,
}

/// A privatized array within a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrivateArray {
    pub array: ArrayId,
    pub expansion: Expansion,
}

/// One reduction target of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReduceTarget {
    pub op: ReduceOp,
    pub target: VarRef,
}

/// How reductions are realized on the device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReduceStrategy {
    /// Classic two-level tree: per-block partials (optionally staged in
    /// shared memory) + a small second-stage combine. This is what every
    /// model that *supports* the pattern generates.
    TwoLevelTree {
        /// Whether partials live in shared memory (the manual KMEANS
        /// optimization) rather than global scratch.
        partials_in_shared: bool,
    },
    /// Serialize through atomics (what a naive critical-section mapping
    /// would cost; none of the evaluated models actually emit this — it
    /// exists for ablations).
    AtomicSerial,
}

/// A compiled kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelPlan {
    pub name: String,
    /// 1 or 2 parallel axes (axis 0 -> x, axis 1 -> y).
    pub axes: Vec<ParAxis>,
    /// Thread-block shape (x, y). `block.0 * block.1 <= max_threads_per_block`.
    pub block: (u32, u32),
    /// Per-thread body (the loop nest minus the parallelized loops).
    pub body: Vec<Stmt>,
    /// Reduction targets (empty for ordinary kernels).
    pub reductions: Vec<ReduceTarget>,
    pub reduce_strategy: ReduceStrategy,
    /// Private arrays and their expansion layout.
    pub private_arrays: Vec<PrivateArray>,
    /// Memory-space placement overrides (default: Global).
    pub placement: Vec<(ArrayId, MemSpace)>,
    /// Estimated registers per thread (occupancy input).
    pub regs_per_thread: u32,
    /// Extra static shared memory per block (tiles, reduction scratch).
    pub shared_bytes_per_block: u32,
    /// Dense site count of `body` after [`KernelPlan::finalize`].
    pub site_count: u32,
    /// Whether `block` was derived from the tuning point's launch geometry
    /// (1-D mapping with no explicit block hint). Such plans can be
    /// re-pointed at a different geometry without re-lowering.
    pub block_from_tuning: bool,
    /// Element size (bytes) of a hint-placed shared tile whose per-block
    /// footprint was derived from the tuning block geometry; `None` when
    /// `shared_bytes_per_block` is geometry-independent.
    pub tuned_shared_elem: Option<u32>,
    /// Lazily compiled kernel pipeline for the execution engine. Not part
    /// of the plan's identity: compares equal, serializes as null, and is
    /// shared (not recompiled) across clones — geometry retargeting keeps it
    /// valid because every stage is block-shape-independent.
    pub engine_cache: EngineCache,
}

/// Outcome of the once-per-plan compile to typed bytecode.
///
/// The negative result is a first-class, explicitly memoized value — an
/// ineligible body (e.g. one with calls, or one whose banks cannot be
/// pinned) records `Ineligible` on the first compile, and every later
/// launch reads that verdict instead of re-walking the body to rediscover
/// the bail.
#[derive(Clone)]
pub enum CompileOutcome {
    /// The body compiled; the native closures are built from it.
    Compiled(Arc<KernelBytecode>),
    /// The body is ineligible; launches run on the tree walker. Memoized so
    /// the walk happens once.
    Ineligible,
}

/// Shared once-per-plan cache of the compiled pipeline (see
/// [`KernelPlan::engine_cache`]).
///
/// Holds both stages of the pipeline, memoized: the [`CompileOutcome`]
/// (positive *and* negative), the native closures built from a successful
/// compile, and the plan fingerprint.
#[derive(Clone, Default)]
pub struct EngineCache {
    slot: Arc<OnceLock<CompileOutcome>>,
    /// Memoized geometry-invariant plan fingerprint (see
    /// [`EngineCache::fingerprint`]). Shares the engine cache's lifetime
    /// contract: valid across clones because geometry retargeting never
    /// touches the fingerprinted fields.
    fp: Arc<OnceLock<u128>>,
    /// Native closures, built from the typed bytecode. `None` inside the
    /// lock when the plan is ineligible (or the first launch that built
    /// them used an unsupported warp width).
    native: Arc<OnceLock<Option<Arc<NativeKernel>>>>,
}

impl EngineCache {
    /// The typed bytecode for `plan`, compiling on first use. Returns
    /// `None` when the plan is ineligible.
    pub fn get_or_compile(&self, prog: &Program, plan: &KernelPlan) -> Option<Arc<KernelBytecode>> {
        match self.slot.get_or_init(|| match compile(prog, plan) {
            Some(bc) => {
                metrics::add(Counter::CompileKernels, 1);
                metrics::add(Counter::CompileOps, bc.stats().ops_pre);
                CompileOutcome::Compiled(Arc::new(bc))
            }
            None => CompileOutcome::Ineligible,
        }) {
            CompileOutcome::Compiled(bc) => Some(bc.clone()),
            CompileOutcome::Ineligible => None,
        }
    }

    /// The memoized compile verdict, without forcing a compilation.
    pub fn outcome(&self) -> Option<&CompileOutcome> {
        self.slot.get()
    }

    /// Compile statistics, once the plan has compiled.
    pub fn opt_stats(&self) -> Option<OptStats> {
        match self.slot.get()? {
            CompileOutcome::Compiled(bc) => Some(bc.stats()),
            CompileOutcome::Ineligible => None,
        }
    }

    /// The native closures for `plan` at warp width `warp`, running every
    /// pipeline stage still missing on first use. `None` when the plan is
    /// ineligible or `warp` doesn't match the width the closures were built
    /// for; the launch then runs on the tree walker.
    pub fn get_or_native(&self, prog: &Program, plan: &KernelPlan, warp: usize) -> Option<Arc<NativeKernel>> {
        let nk = self
            .native
            .get_or_init(|| compile_native(&self.get_or_compile(prog, plan)?, warp).map(Arc::new))
            .clone()?;
        (nk.warp == warp).then_some(nk)
    }

    /// The native closures, if a launch has built them.
    pub fn native_kernel(&self) -> Option<Arc<NativeKernel>> {
        self.native.get().and_then(Clone::clone)
    }

    /// 128-bit fingerprint of `plan`'s geometry-*invariant* identity: name,
    /// axes, body, reductions, strategy, private arrays, placements, and
    /// site numbering. Computed once per plan and shared across clones —
    /// sound because `retarget_block_geometry` mutates only `block` and
    /// `shared_bytes_per_block`, which the launch cache keys live instead.
    pub fn fingerprint(&self, plan: &KernelPlan) -> u128 {
        *self.fp.get_or_init(|| {
            let repr = format!(
                "{:?}",
                (
                    &plan.name,
                    &plan.axes,
                    &plan.body,
                    &plan.reductions,
                    &plan.reduce_strategy,
                    &plan.private_arrays,
                    &plan.placement,
                    plan.site_count,
                )
            );
            let mut d = acceval_sim::Digest128::new();
            d.push_bytes(repr.as_bytes());
            d.finish()
        })
    }
}

impl std::fmt::Debug for EngineCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.slot.get() {
            None => write!(f, "EngineCache(empty)"),
            Some(CompileOutcome::Ineligible) => write!(f, "EngineCache(tree-fallback)"),
            Some(CompileOutcome::Compiled(bc)) => write!(f, "EngineCache({} ops)", bc.op_count()),
        }
    }
}

impl PartialEq for EngineCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Serialize for EngineCache {
    fn to_json(&self) -> serde::Json {
        serde::Json::Null
    }
}

impl Deserialize for EngineCache {}

impl KernelPlan {
    /// A plan with defaults: 1-D 256-thread blocks, no reductions, global
    /// placement, 20 registers/thread.
    pub fn new(name: impl Into<String>, axes: Vec<ParAxis>, body: Vec<Stmt>) -> Self {
        KernelPlan {
            name: name.into(),
            axes,
            block: (256, 1),
            body,
            reductions: vec![],
            reduce_strategy: ReduceStrategy::TwoLevelTree { partials_in_shared: false },
            private_arrays: vec![],
            placement: vec![],
            regs_per_thread: 20,
            shared_bytes_per_block: 0,
            site_count: 0,
            block_from_tuning: false,
            tuned_shared_elem: None,
            engine_cache: EngineCache::default(),
        }
    }

    /// Renumber sites densely within the kernel body. Must be called before
    /// execution; compilers call it as their last step.
    pub fn finalize(&mut self) -> &mut Self {
        self.site_count = crate::program::renumber_sites(&mut self.body);
        assert!(!self.axes.is_empty() && self.axes.len() <= 2, "kernels have 1 or 2 parallel axes");
        assert!(self.block.0 >= 1 && self.block.1 >= 1);
        self
    }

    /// The memory space of an array in this kernel.
    pub fn space_of(&self, a: ArrayId) -> MemSpace {
        self.placement.iter().find(|(id, _)| *id == a).map(|(_, s)| *s).unwrap_or(MemSpace::Global)
    }

    /// The expansion of a private array, if `a` is private in this kernel.
    pub fn expansion_of(&self, a: ArrayId) -> Option<Expansion> {
        self.private_arrays.iter().find(|p| p.array == a).map(|p| p.expansion)
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.0 * self.block.1
    }

    // -- builder-style setters used by the model compilers --------------

    pub fn with_block(mut self, x: u32, y: u32) -> Self {
        self.block = (x, y);
        self
    }

    pub fn with_reduction(mut self, op: ReduceOp, target: VarRef) -> Self {
        self.reductions.push(ReduceTarget { op, target });
        self
    }

    pub fn with_reduce_strategy(mut self, s: ReduceStrategy) -> Self {
        self.reduce_strategy = s;
        self
    }

    pub fn with_private(mut self, array: ArrayId, expansion: Expansion) -> Self {
        self.private_arrays.push(PrivateArray { array, expansion });
        self
    }

    pub fn with_placement(mut self, array: ArrayId, space: MemSpace) -> Self {
        self.placement.retain(|(id, _)| *id != array);
        self.placement.push((array, space));
        if let MemSpace::SharedTiled { .. } = space {
            // Reserve a nominal tile footprint if the caller didn't.
            if self.shared_bytes_per_block == 0 {
                self.shared_bytes_per_block = 4 * 1024;
            }
        }
        self
    }

    pub fn with_shared_bytes(mut self, bytes: u32) -> Self {
        self.shared_bytes_per_block = bytes;
        self
    }

    pub fn with_regs(mut self, regs: u32) -> Self {
        self.regs_per_thread = regs;
        self
    }
}

/// Convenience: a 1-D axis over `0..count` with unit step.
pub fn axis(var: ScalarId, count: Expr) -> ParAxis {
    ParAxis { var, lo: Expr::I(0), count, step: Expr::I(1) }
}

/// Convenience: an axis over `lo..lo+count*step`.
pub fn axis_from(var: ScalarId, lo: Expr, count: Expr, step: Expr) -> ParAxis {
    ParAxis { var, lo, count, step }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::store;
    use crate::expr::{ld, v};
    use crate::types::ScalarId;

    #[test]
    fn finalize_numbers_sites() {
        let i = ScalarId(0);
        let a = ArrayId(0);
        let body = vec![store(a, vec![v(i)], ld(a, vec![v(i)]) + 1.0)];
        let mut k = KernelPlan::new("k", vec![axis(i, Expr::I(16))], body);
        k.finalize();
        assert_eq!(k.site_count, 2);
        assert_eq!(k.threads_per_block(), 256);
    }

    #[test]
    fn placement_override_and_default() {
        let i = ScalarId(0);
        let a = ArrayId(0);
        let b = ArrayId(1);
        let k = KernelPlan::new("k", vec![axis(i, Expr::I(4))], vec![store(a, vec![v(i)], 0.0)])
            .with_placement(b, MemSpace::Texture);
        assert_eq!(k.space_of(a), MemSpace::Global);
        assert_eq!(k.space_of(b), MemSpace::Texture);
    }

    #[test]
    fn placement_override_replaces() {
        let i = ScalarId(0);
        let a = ArrayId(0);
        let k = KernelPlan::new("k", vec![axis(i, Expr::I(4))], vec![store(a, vec![v(i)], 0.0)])
            .with_placement(a, MemSpace::Texture)
            .with_placement(a, MemSpace::Constant);
        assert_eq!(k.space_of(a), MemSpace::Constant);
        assert_eq!(k.placement.len(), 1);
    }

    #[test]
    #[should_panic(expected = "1 or 2 parallel axes")]
    fn finalize_rejects_axisless() {
        let a = ArrayId(0);
        let mut k = KernelPlan::new("k", vec![], vec![store(a, vec![Expr::I(0)], 0.0)]);
        k.finalize();
    }

    #[test]
    fn engine_cache_memoizes_both_verdicts() {
        use crate::builder::{call, ProgramBuilder};

        // A body with a call is outside the compiler's scope: the negative
        // verdict must be recorded, not rediscovered per launch.
        let mut pb = ProgramBuilder::new("neg");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let x = pb.farray("x", vec![v(n)]);
        let pa = pb.farray("pa", vec![v(n)]);
        let f = pb.func("f", vec![], vec![pa], vec![store(pa, vec![Expr::I(0)], 1.0)]);
        pb.main(vec![]);
        let p = pb.build();
        let mut k = KernelPlan::new("k", vec![axis(i, v(n))], vec![call(f, vec![], vec![x])]);
        k.finalize();
        assert!(k.engine_cache.outcome().is_none());
        assert!(k.engine_cache.get_or_compile(&p, &k).is_none());
        assert!(matches!(k.engine_cache.outcome(), Some(CompileOutcome::Ineligible)));
        // The memoized verdict answers later probes (and is shared across
        // plan clones, so a sweep's repeated launches never re-walk the
        // body).
        assert!(k.engine_cache.get_or_compile(&p, &k).is_none());
        assert!(k.clone().engine_cache.get_or_compile(&p, &k).is_none());
        assert!(k.engine_cache.opt_stats().is_none());

        // Positive verdict: compiled once, with its statistics.
        let mut pb = ProgramBuilder::new("pos");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let y = pb.farray("y", vec![v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        let mut k = KernelPlan::new("k", vec![axis(i, v(n))], vec![store(y, vec![v(i)], 1.0)]);
        k.finalize();
        assert!(k.engine_cache.get_or_compile(&p, &k).is_some());
        assert!(matches!(k.engine_cache.outcome(), Some(CompileOutcome::Compiled(_))));
        assert!(k.engine_cache.opt_stats().is_some());
    }
}
