//! The GPU executor: runs a [`KernelPlan`] functionally while collecting
//! per-warp address traces that the simulator prices.
//!
//! Correctness: under [`Engine::Tree`] every thread executes the kernel body
//! through the same evaluator as the CPU oracle, against device buffers;
//! under the default engine whole warps run the plan's native closures
//! ([`crate::interp::native`]), which reproduce that evaluator bit for bit.
//! Reductions are combined deterministically in (block, lane) order.
//! Timing: per-warp traces are reduced to coalescing transactions,
//! shared-memory slots, texture-cache misses, constant serialization and
//! divergence penalties, then fed to [`acceval_sim::estimate_kernel`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use acceval_sim::{
    estimate_kernel, warp_issue_cycles, AccessSummary, BufGen, Buffer, Cache, DeviceConfig, Digest128, ElemType,
    KernelCost, KernelFootprint, KernelTotals, NullSink, Payload, SharedSummary, SimError, SiteWarpTrace, TraceEvent,
    TraceSink,
};

use crate::expr::{Expr, Intrin};
use crate::interp::bytecode::{self, intrin_cost};
use crate::interp::launch_cache::{self, ArrayOut, DeviceBufs, Journal, LaunchEffect, LaunchKey};
use crate::interp::native;
use crate::interp::{eval_pure, row_major_strides, Interp, Machine};
use crate::kernel::{Expansion, KernelPlan, MemSpace, ReduceStrategy};
use crate::program::{eval_const, Program};
use crate::stmt::{visit_exprs, visit_stmts, Stmt};
use crate::types::{ArrayId, ScalarId, SiteId, Value, VarRef};

/// Which executor runs kernel bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The reference tree-walking interpreter: one simulated thread at a
    /// time through [`Interp`]. Always available.
    Tree,
    /// The default: the plan's compiled native closures
    /// ([`crate::interp::native`]), built from its typed bytecode
    /// ([`crate::interp::bytecode`]), executing whole warps in lockstep. A
    /// launch without closures (a plan the compiler found ineligible, or a
    /// warp width other than the one the closures were built for) runs on
    /// the tree walker. All scores and statistics are bit-identical to
    /// [`Engine::Tree`].
    Bytecode,
}

/// Process-wide override: 0 = unset (use env), 1 = tree, 2 = bytecode.
static ENGINE_OVERRIDE: AtomicU8 = AtomicU8::new(0);
static ENGINE_FROM_ENV: OnceLock<Engine> = OnceLock::new();

/// The engine for kernel execution: an override installed by
/// [`set_engine_override`] wins, else the `ACCEVAL_ENGINE` environment
/// variable (`tree` | `bytecode`), else [`Engine::Bytecode`].
pub fn engine() -> Engine {
    match ENGINE_OVERRIDE.load(Ordering::Relaxed) {
        1 => return Engine::Tree,
        2 => return Engine::Bytecode,
        _ => {}
    }
    *ENGINE_FROM_ENV.get_or_init(|| match std::env::var("ACCEVAL_ENGINE") {
        // Fail soft to the default engine on a malformed value: both engines
        // are bit-identical by contract, so the worst outcome of a typo is
        // the default's performance profile. Front-end binaries catch the
        // typo up front via `crate::env::validate_env`.
        Ok(s) if crate::env::parse_engine_name(&s) == Ok("tree") => Engine::Tree,
        _ => Engine::Bytecode,
    })
}

/// Force an engine for this process (tests/benches), overriding the
/// environment. `None` returns control to `ACCEVAL_ENGINE`.
pub fn set_engine_override(e: Option<Engine>) {
    let v = match e {
        None => 0,
        Some(Engine::Tree) => 1,
        Some(Engine::Bytecode) => 2,
    };
    ENGINE_OVERRIDE.store(v, Ordering::Relaxed);
}

/// Short name of the active engine, for reports and manifests.
pub fn engine_name() -> &'static str {
    match engine() {
        Engine::Tree => "tree",
        Engine::Bytecode => "bytecode",
    }
}

/// Retired intra-launch block-parallelism policy, kept only so callers
/// written against it still compile: every launch now takes the one serial
/// block walk, so [`launch_par`] always answers [`LaunchPar::Off`] and
/// [`set_launch_par_hint`] does nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchPar {
    Auto,
    On,
    Off,
}

/// Always [`LaunchPar::Off`]; see [`LaunchPar`].
pub fn launch_par() -> LaunchPar {
    LaunchPar::Off
}

/// No-op; see [`LaunchPar`].
pub fn set_launch_par_hint(_hint: Option<bool>) {}

/// Device memory image: one optional buffer per program array, plus the
/// simulated texture cache.
///
/// Every buffer carries a monotonic generation tag ([`BufGen`]) bumped on
/// each mutation; the launch cache memoizes content digests per
/// (buffer, generation), so probes over unchanged buffers hash nothing.
/// All mutation goes through the methods here or through [`launch`]; code
/// that writes `bufs` directly must bump the matching tag itself.
pub struct DeviceState {
    pub bufs: Vec<Option<Buffer>>,
    pub tex_cache: Cache,
    /// Generation tags, parallel to `bufs`.
    pub tags: Vec<BufGen>,
}

impl DeviceState {
    /// Fresh device with nothing allocated.
    pub fn new(prog: &Program, cfg: &DeviceConfig) -> Self {
        DeviceState {
            bufs: vec![None; prog.arrays.len()],
            tex_cache: Cache::new(cfg.tex_cache_bytes * cfg.num_sms, 8, cfg.tex_line_bytes),
            tags: vec![BufGen::new(); prog.arrays.len()],
        }
    }

    /// Upload a host buffer (allocate + copy contents). Reuses an existing
    /// same-shape allocation in place instead of cloning a fresh buffer, and
    /// skips the copy entirely when the device copy's memoized content
    /// digest already matches the incoming host contents (the content-level
    /// extension of the redundant-copy skip; the transfer is still charged
    /// by the caller — this is purely a host-side memory optimization).
    pub fn upload(&mut self, id: ArrayId, host: &Buffer) {
        let i = id.0 as usize;
        match &mut self.bufs[i] {
            Some(b) if b.elem == host.elem && b.len() == host.len() => {
                if let Some(d) = self.tags[i].memoized() {
                    let hd = launch_cache::timed_digest(|| host.content_digest());
                    if hd == d {
                        return;
                    }
                    b.copy_from(host);
                    self.tags[i].bump();
                    self.tags[i].prime(hd);
                } else {
                    b.copy_from(host);
                    self.tags[i].bump();
                }
            }
            slot => {
                *slot = Some(host.clone());
                self.tags[i].bump();
            }
        }
    }

    /// Allocate zeroed device storage without a transfer. Skips the clear
    /// when the device copy's memoized digest proves it already holds zeros
    /// of the right shape.
    pub fn alloc(&mut self, id: ArrayId, host: &Buffer) {
        let i = id.0 as usize;
        match &mut self.bufs[i] {
            Some(b) if b.elem == host.elem && b.len() == host.len() => {
                if self.tags[i].memoized().is_some() {
                    let zd = launch_cache::timed_digest(|| acceval_sim::zero_digest(host.elem, host.len()));
                    if self.tags[i].memoized() == Some(zd) {
                        return;
                    }
                    *b = Buffer::zeroed(host.elem, host.len());
                    self.tags[i].bump();
                    self.tags[i].prime(zd);
                } else {
                    *b = Buffer::zeroed(host.elem, host.len());
                    self.tags[i].bump();
                }
            }
            slot => {
                *slot = Some(Buffer::zeroed(host.elem, host.len()));
                self.tags[i].bump();
            }
        }
    }

    /// Download device contents into a host buffer, copying in place when
    /// the host allocation already has the right shape.
    ///
    /// Downloading an array that was never allocated on the device is a
    /// runtime protocol error (a real driver returns a status code), so it
    /// is reported as [`SimError::DownloadUnallocated`] rather than a panic;
    /// the caller owns mapping the array index to a source-level name.
    pub fn download(&self, id: ArrayId, host: &mut Buffer) -> Result<(), SimError> {
        let src = self.bufs[id.0 as usize]
            .as_ref()
            .ok_or_else(|| SimError::DownloadUnallocated { array: id.0.to_string() })?;
        if host.elem == src.elem && host.len() == src.len() {
            host.copy_from(src);
        } else {
            *host = src.clone();
        }
        Ok(())
    }

    /// Whether the array is allocated on the device.
    pub fn is_allocated(&self, id: ArrayId) -> bool {
        self.bufs[id.0 as usize].is_some()
    }
}

/// What a site refers to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SiteKind {
    Mem(ArrayId),
    Branch,
    Unused,
}

fn classify_sites(plan: &KernelPlan) -> Vec<SiteKind> {
    let mut kinds = vec![SiteKind::Unused; plan.site_count as usize];
    visit_stmts(&plan.body, &mut |s| match s {
        Stmt::Store { array, site, .. } => kinds[site.0 as usize] = SiteKind::Mem(*array),
        Stmt::If { site, .. } => kinds[site.0 as usize] = SiteKind::Branch,
        _ => {}
    });
    visit_exprs(&plan.body, &mut |e| {
        if let Expr::Load { array, site, .. } = e {
            kinds[site.0 as usize] = SiteKind::Mem(*array);
        }
    });
    kinds
}

/// Per-warp machine: executes one lane at a time, recording traces.
struct WarpMachine<'a> {
    /// The launch's device buffers, stored to through its journal.
    mem: DeviceBufs<'a>,
    tex_cache: &'a mut Cache,
    plan: &'a KernelPlan,
    /// Byte base address per array in the simulated device address space.
    base: &'a [u64],
    elem_bytes: &'a [u32],
    traces: Vec<SiteWarpTrace>,
    lane: u32,
    lane_ops: Vec<u64>,
    in_critical: bool,
    atomic_accesses: u64,
    /// Current lane's private array storage.
    priv_bufs: HashMap<ArrayId, Buffer>,
    tid_linear: u64,
    total_threads: u64,
}

impl<'a> WarpMachine<'a> {
    fn trace(&mut self, site: SiteId, addr: u64) {
        self.traces[site.0 as usize].record(self.lane, addr);
    }

    fn account(&mut self, array: ArrayId, flat: usize, site: SiteId) {
        // Private arrays are priced by their expansion layout.
        if let Some(exp) = self.plan.expansion_of(array) {
            let eb = self.elem_bytes[array.0 as usize] as u64;
            match exp {
                Expansion::Register => {}
                Expansion::RowWise => {
                    let len = self.priv_bufs[&array].len() as u64;
                    self.trace(site, PRIV_BASE + (self.tid_linear * len + flat as u64) * eb);
                }
                Expansion::ColumnWise => {
                    self.trace(site, PRIV_BASE + (flat as u64 * self.total_threads + self.tid_linear) * eb);
                }
            }
            return;
        }
        let eb = self.elem_bytes[array.0 as usize] as u64;
        let addr = self.base[array.0 as usize] + flat as u64 * eb;
        self.trace(site, addr);
        if self.in_critical {
            self.atomic_accesses += 1;
        }
    }

    fn value_of(&self, array: ArrayId, flat: usize) -> Value {
        let b = if self.plan.expansion_of(array).is_some() {
            &self.priv_bufs[&array]
        } else {
            self.mem.read(array.0 as usize)
        };
        if b.elem.is_float() {
            Value::F(b.get_f(flat))
        } else {
            Value::I(b.get_i(flat))
        }
    }
}

/// Base address for the expanded private-array segment (kept clear of real
/// arrays so traces never alias). Shared with the native executor.
pub(crate) const PRIV_BASE: u64 = 1 << 40;

impl Machine for WarpMachine<'_> {
    fn load(&mut self, array: ArrayId, flat: usize, site: SiteId) -> Value {
        self.account(array, flat, site);
        self.value_of(array, flat)
    }

    fn store(&mut self, array: ArrayId, flat: usize, v: Value, site: SiteId) {
        self.account(array, flat, site);
        if self.plan.expansion_of(array).is_some() {
            let b = self.priv_bufs.get_mut(&array).expect("private buffer");
            if b.elem.is_float() {
                b.set_f(flat, v.as_f());
            } else {
                b.set_i(flat, v.as_i());
            }
        } else {
            let mut t = self.mem.write(array.0 as usize);
            if t.buf().elem.is_float() {
                t.set_f(flat, v.as_f());
            } else {
                t.set_i(flat, v.as_i());
            }
        }
    }

    fn ops(&mut self, n: u64) {
        self.lane_ops[self.lane as usize] += n;
    }

    fn intrin(&mut self, f: Intrin) {
        // GPUs have SFUs: transcendental ops are cheap relative to CPUs.
        // (Cost table shared with the bytecode compiler.)
        self.lane_ops[self.lane as usize] += intrin_cost(f);
    }

    fn branch(&mut self, site: SiteId, taken: bool) {
        self.traces[site.0 as usize].record(self.lane, taken as u64);
    }

    fn barrier(&mut self) {
        self.lane_ops[self.lane as usize] += 4;
    }

    fn critical(&mut self, entering: bool) {
        self.in_critical = entering;
    }
}

/// Result of one simulated kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchResult {
    pub cost: KernelCost,
    pub totals: KernelTotals,
    pub footprint: KernelFootprint,
    /// Threads that actually executed.
    pub active_threads: u64,
}

/// Execute a kernel plan on the device.
///
/// `scal` is the host scalar environment at launch; axis bounds are
/// evaluated against it and scalar reduction results are written back into
/// it. Device buffers are read/written in place.
pub fn launch(
    prog: &Program,
    plan: &KernelPlan,
    dev: &mut DeviceState,
    scal: &mut [Value],
    cfg: &DeviceConfig,
) -> LaunchResult {
    launch_traced(prog, plan, dev, scal, cfg, &mut NullSink)
}

/// [`launch`] with an explicit engine choice, bypassing the process-wide
/// selection — lets equivalence tests and benches compare engines without
/// touching global state.
pub fn launch_with_engine(
    prog: &Program,
    plan: &KernelPlan,
    dev: &mut DeviceState,
    scal: &mut [Value],
    cfg: &DeviceConfig,
    eng: Engine,
) -> LaunchResult {
    launch_impl(prog, plan, dev, scal, cfg, &mut NullSink, eng)
}

/// [`launch_traced`] with an explicit engine choice.
pub fn launch_traced_with_engine(
    prog: &Program,
    plan: &KernelPlan,
    dev: &mut DeviceState,
    scal: &mut [Value],
    cfg: &DeviceConfig,
    sink: &mut dyn TraceSink,
    eng: Engine,
) -> LaunchResult {
    launch_impl(prog, plan, dev, scal, cfg, sink, eng)
}

/// [`launch`], emitting structured trace events into `sink`: one
/// [`TraceEvent::CoalesceSite`] per active memory site (in site order, so
/// traces are deterministic), texture-cache counters when the kernel used
/// texture memory, and a final [`TraceEvent::KernelLaunch`] with the full
/// cost attribution (emitted after a missed launch's effect is captured into
/// the launch cache). With a disabled sink this is exactly [`launch`]: no
/// event is constructed and the per-site accumulators stay empty.
pub fn launch_traced(
    prog: &Program,
    plan: &KernelPlan,
    dev: &mut DeviceState,
    scal: &mut [Value],
    cfg: &DeviceConfig,
    sink: &mut dyn TraceSink,
) -> LaunchResult {
    launch_impl(prog, plan, dev, scal, cfg, sink, engine())
}

fn launch_impl(
    prog: &Program,
    plan: &KernelPlan,
    dev: &mut DeviceState,
    scal: &mut [Value],
    cfg: &DeviceConfig,
    sink: &mut dyn TraceSink,
    eng: Engine,
) -> LaunchResult {
    assert!(
        plan.site_count > 0 || plan.body.iter().all(|s| !matches!(s, Stmt::Store { .. })),
        "plan must be finalized"
    );
    let site_kinds = classify_sites(plan);
    let traced = sink.enabled();
    let tex_hits0 = dev.tex_cache.hits;
    let tex_misses0 = dev.tex_cache.misses;

    // Geometry.
    let n0 = eval_pure(&plan.axes[0].count, scal).as_i().max(0) as u64;
    let n1 = if plan.axes.len() > 1 { eval_pure(&plan.axes[1].count, scal).as_i().max(0) as u64 } else { 1 };
    let (bx, by) = (plan.block.0 as u64, plan.block.1 as u64);
    let gx = n0.div_ceil(bx).max(1);
    let gy = n1.div_ceil(by).max(1);
    let tpb = (bx * by) as u32;
    let total_blocks = gx * gy;
    let total_threads = total_blocks * tpb as u64;

    // Device address layout.
    let mut base = Vec::with_capacity(prog.arrays.len());
    let mut elem_bytes = Vec::with_capacity(prog.arrays.len());
    let mut cur = 0u64;
    for (i, a) in prog.arrays.iter().enumerate() {
        base.push(cur);
        elem_bytes.push(a.elem.size_bytes());
        if let Some(b) = &dev.bufs[i] {
            cur += (b.size_bytes() + 511) & !511;
            cur += 512;
        }
    }

    // Array extents/strides and private shapes (evaluated against the host
    // env — exactly what `Interp::with_env` computes per warp on the tree
    // path).
    let base_env: Vec<Value> = scal.to_vec();
    let extents: Vec<Vec<usize>> =
        prog.arrays.iter().map(|a| a.dims.iter().map(|d| eval_const(d, &base_env)).collect()).collect();
    let strides: Vec<Vec<usize>> = extents.iter().map(|e| row_major_strides(e)).collect();
    let priv_shapes: Vec<(ArrayId, usize, bool)> = plan
        .private_arrays
        .iter()
        .map(|p| {
            let len: usize = extents[p.array.0 as usize].iter().product();
            (p.array, len, prog.array_elem(p.array).is_float())
        })
        .collect();

    // Reduction accumulators.
    let red_scalar: Vec<(usize, crate::types::ReduceOp, bool)> = plan
        .reductions
        .iter()
        .filter_map(|r| match r.target {
            VarRef::Scalar(s) => Some((s.0 as usize, r.op, prog.scalars[s.0 as usize].is_float)),
            VarRef::Array(_) => None,
        })
        .collect();
    let red_arrays: Vec<(ArrayId, crate::types::ReduceOp)> = plan
        .reductions
        .iter()
        .filter_map(|r| match r.target {
            VarRef::Array(a) => Some((a, r.op)),
            VarRef::Scalar(_) => None,
        })
        .collect();
    // Scalar-reduction identities: each thread's accumulator starts from
    // its operator's, and so does the launch's fold.
    let red_init: Vec<Value> = red_scalar
        .iter()
        .map(|&(_, op, isf)| if isf { Value::F(op.identity_f()) } else { Value::I(op.identity_i()) })
        .collect();
    let mut scal_acc = red_init.clone();
    let mut arr_acc: HashMap<ArrayId, Buffer> = HashMap::new();
    for &(a, op) in &red_arrays {
        let (_, len, isf) = priv_shapes
            .iter()
            .find(|(id, _, _)| *id == a)
            .copied()
            .unwrap_or_else(|| panic!("array reduction target must be a private array"));
        let elem = prog.array_elem(a);
        let mut b = Buffer::zeroed(elem, len);
        for i in 0..len {
            if isf {
                b.set_f(i, op.identity_f());
            } else {
                b.set_i(i, op.identity_i());
            }
        }
        arr_acc.insert(a, b);
    }

    // Texture sites mutate the cross-launch texture cache, which the launch
    // key cannot cover, so a launch that has one is never memoized.
    let has_tex = site_kinds.iter().any(|k| {
        matches!(k, SiteKind::Mem(a)
            if plan.expansion_of(*a).is_none() && matches!(plan.space_of(*a), MemSpace::Texture))
    });

    // ---- launch memoization ------------------------------------------------
    // A launch's effects are a pure function of (plan, geometry, config,
    // scalars, readable array contents): probe the content-addressed cache
    // and replay the captured effect on a hit. Opaque bodies (calls into
    // program functions) have an unbounded effect set and always execute.
    // The engine is not part of the key: both engines produce bit-identical
    // effects, so a replay is valid whichever engine captured it.
    let arrays = body_arrays(plan, &red_arrays);
    let cache_key = if launch_cache::launch_cache_enabled() && !arrays.opaque && !has_tex {
        Some(build_launch_key(plan, dev, cfg, scal, &extents, traced, &arrays))
    } else {
        None
    };
    if let Some(key) = &cache_key {
        if let Some((effect, tier)) = launch_cache::probe_two_tier(key) {
            match tier {
                launch_cache::ProbeTier::Memory => launch_cache::note_hit(),
                launch_cache::ProbeTier::Disk => launch_cache::note_disk_hit(),
            }
            return replay_effect(&effect, dev, scal, sink, traced);
        }
        launch_cache::note_miss();
    }
    // A launch that will be captured journals the first write to each
    // element of its write set; capture reads its delta off the journal.
    let capturing = cache_key.is_some();
    let mut journal = capturing.then(|| {
        let mut j = Journal::take();
        j.open(&arrays.writes, dev);
        j
    });
    let mut captured_events: Vec<TraceEvent> = Vec::new();

    let warp = cfg.warp_size;
    let warps_per_block = (tpb as u64).div_ceil(warp as u64);
    let mut tally = Tally::new(plan.site_count as usize, traced);
    let partials_in_shared = matches!(plan.reduce_strategy, ReduceStrategy::TwoLevelTree { partials_in_shared: true });

    // Engine dispatch: the default engine runs the plan's native closures,
    // built here on the first launch that executes (never on a replay).
    // Launches without closures run on the tree walker.
    let native_k = match eng {
        Engine::Bytecode => {
            let nk = plan.engine_cache.get_or_native(prog, plan, warp as usize);
            if nk.is_some() {
                native::note_native_launch();
            } else {
                native::note_tree_fallback();
            }
            nk
        }
        Engine::Tree => None,
    };

    if let Some(nk) = &native_k {
        let bc = &nk.bc;
        let mut expansion: Vec<Option<Expansion>> = vec![None; prog.arrays.len()];
        let mut priv_slot: Vec<i32> = vec![-1; prog.arrays.len()];
        for (k, &(a, _, _)) in priv_shapes.iter().enumerate() {
            priv_slot[a.0 as usize] = k as i32;
            expansion[a.0 as usize] = plan.expansion_of(a);
        }
        let priv_elems: Vec<(ElemType, usize)> =
            priv_shapes.iter().map(|&(a, len, _)| (prog.array_elem(a), len)).collect();
        // Axis bounds are launch constants here: the compiler bails when a
        // second axis depends on the first axis variable, so evaluating
        // against the base env matches the tree path's per-lane evaluation.
        let lo0 = eval_pure(&plan.axes[0].lo, &base_env).as_i();
        let st0 = eval_pure(&plan.axes[0].step, &base_env).as_i();
        let (lo1, st1) = if plan.axes.len() > 1 {
            (eval_pure(&plan.axes[1].lo, &base_env).as_i(), eval_pure(&plan.axes[1].step, &base_env).as_i())
        } else {
            (0, 0)
        };
        let atomic_serial = matches!(plan.reduce_strategy, ReduceStrategy::AtomicSerial);
        let DeviceState { bufs, tex_cache, .. } = dev;
        let mut mem = DeviceBufs { bufs, journal: journal.as_mut() };
        // Pricing recipe per fast site: global sites reduce through the
        // segment memo; shared-tiled sites through the bank-conflict memo
        // plus the reuse-discounted fill charge (the same arithmetic
        // `price_warp` applies to a traced shared site).
        let fast_pricing: Vec<(u64, Option<f64>)> = bc
            .fast_sites
            .iter()
            .map(|&site| {
                let SiteKind::Mem(arr) = site_kinds[site as usize] else {
                    unreachable!("fast site must be a memory site")
                };
                let eb = elem_bytes[arr.0 as usize] as u64;
                match plan.space_of(arr) {
                    MemSpace::SharedTiled { reuse } => (eb, Some(reuse)),
                    _ => (eb, None),
                }
            })
            .collect();
        // Representative-block pricing dedup: under `uniform_pricing` a
        // block's entire pricing (totals deltas, issue cycles, per-site
        // evidence) is a pure function of its active-lane shape
        // and each fast site's block-base address modulo the site's
        // translation modulus — the coalescing segment for global sites,
        // the bank cycle for shared-tiled ones. Addresses are affine in the
        // block indices and both summaries are translation-invariant, so
        // the probe extracts the per-block address steps once; the executor
        // then prices one representative per equivalence class and replays
        // the cached deltas for the rest, while still executing every
        // block's functional effects.
        let dedup = if bc.uniform_pricing && total_blocks > 1 {
            Some(site_affine_probe(
                plan,
                bc,
                &site_kinds,
                &base,
                &elem_bytes,
                &strides,
                &base_env,
                lo0,
                st0,
                lo1,
                st1,
                bx,
                by,
                cfg,
            ))
        } else {
            None
        };
        let g = GridCtx {
            plan,
            nk,
            bc,
            cfg,
            site_kinds: &site_kinds,
            ctx: bytecode::ExecCtx {
                prog,
                base: &base,
                elem_bytes: &elem_bytes,
                extents: &extents,
                strides: &strides,
                expansion: &expansion,
                priv_slot: &priv_slot,
                total_threads,
            },
            priv_elems: &priv_elems,
            priv_shapes: &priv_shapes,
            base_env: &base_env,
            red_scalar: &red_scalar,
            red_init: &red_init,
            red_arrays: &red_arrays,
            fast_pricing: &fast_pricing,
            dedup,
            atomic_serial,
            partials_in_shared,
            traced,
            n0,
            n1,
            bx,
            by,
            gx,
            tpb,
            warp,
            warps_per_block,
            total_blocks,
            lo0,
            st0,
            lo1,
            st1,
        };
        bytecode::with_scratch(|scratch| {
            run_block_range(&g, scratch, &mut mem, tex_cache, &mut tally, &mut scal_acc, &mut arr_acc);
        });
    } else {
        // Reference tree-walking engine: one `Interp` per warp, one pass per lane.
        for blk in 0..total_blocks {
            let bxi = blk % gx;
            let byi = blk / gx;
            for w in 0..warps_per_block {
                let wm = WarpMachine {
                    mem: DeviceBufs { bufs: &mut dev.bufs, journal: journal.as_mut() },
                    tex_cache: &mut dev.tex_cache,
                    plan,
                    base: &base,
                    elem_bytes: &elem_bytes,
                    traces: (0..plan.site_count).map(|_| SiteWarpTrace::new(warp)).collect(),
                    lane: 0,
                    lane_ops: vec![0; warp as usize],
                    in_critical: false,
                    atomic_accesses: 0,
                    priv_bufs: HashMap::new(),
                    tid_linear: 0,
                    total_threads,
                };
                let mut it = Interp::with_env(prog, wm, base_env.clone());
                let mut any_active = false;
                for lane in 0..warp as u64 {
                    let t = w * warp as u64 + lane;
                    if t >= tpb as u64 {
                        break;
                    }
                    let tx = t % bx;
                    let ty = t / bx;
                    let ix = bxi * bx + tx;
                    let iy = byi * by + ty;
                    if ix >= n0 || iy >= n1 {
                        continue;
                    }
                    any_active = true;
                    tally.active_threads += 1;
                    it.m.lane = lane as u32;
                    it.m.tid_linear = blk * tpb as u64 + t;
                    it.m.in_critical = false;
                    // Fresh private buffers for this thread.
                    it.m.priv_bufs.clear();
                    for &(a, len, isf) in &priv_shapes {
                        let elem = prog.array_elem(a);
                        let mut b = Buffer::zeroed(elem, len);
                        if let Some(&(_, op)) = red_arrays.iter().find(|(id, _)| *id == a) {
                            for i in 0..len {
                                if isf {
                                    b.set_f(i, op.identity_f());
                                } else {
                                    b.set_i(i, op.identity_i());
                                }
                            }
                        }
                        it.m.priv_bufs.insert(a, b);
                    }
                    // Thread environment.
                    it.scal.clone_from(&base_env);
                    let v0 = eval_pure(&plan.axes[0].lo, &it.scal).as_i()
                        + ix as i64 * eval_pure(&plan.axes[0].step, &it.scal).as_i();
                    it.scal[plan.axes[0].var.0 as usize] = Value::I(v0);
                    if plan.axes.len() > 1 {
                        let v1 = eval_pure(&plan.axes[1].lo, &it.scal).as_i()
                            + iy as i64 * eval_pure(&plan.axes[1].step, &it.scal).as_i();
                        it.scal[plan.axes[1].var.0 as usize] = Value::I(v1);
                    }
                    // Scalar reduction identities.
                    for &(slot, op, isf) in &red_scalar {
                        it.scal[slot] = if isf { Value::F(op.identity_f()) } else { Value::I(op.identity_i()) };
                    }
                    // Execute the body.
                    for s in &plan.body {
                        it.exec_plain(s);
                    }
                    // Fold reductions.
                    for (k, &(slot, op, _)) in red_scalar.iter().enumerate() {
                        scal_acc[k] = op.combine(scal_acc[k], it.scal[slot]);
                    }
                    for &(a, op) in &red_arrays {
                        let src = &it.m.priv_bufs[&a];
                        let acc = arr_acc.get_mut(&a).expect("acc");
                        for i in 0..src.len() {
                            let cur = if acc.elem.is_float() { Value::F(acc.get_f(i)) } else { Value::I(acc.get_i(i)) };
                            let nv = if src.elem.is_float() { Value::F(src.get_f(i)) } else { Value::I(src.get_i(i)) };
                            let c = op.combine(cur, nv);
                            if acc.elem.is_float() {
                                acc.set_f(i, c.as_f());
                            } else {
                                acc.set_i(i, c.as_i());
                            }
                        }
                        if matches!(plan.reduce_strategy, ReduceStrategy::AtomicSerial) {
                            it.m.atomic_accesses += src.len() as u64;
                        }
                    }
                    if matches!(plan.reduce_strategy, ReduceStrategy::AtomicSerial) && !red_scalar.is_empty() {
                        it.m.atomic_accesses += red_scalar.len() as u64;
                    }
                }
                // Reduce the warp's traces into totals.
                let wm = it.m;
                if any_active {
                    price_warp(
                        plan,
                        cfg,
                        &site_kinds,
                        &elem_bytes,
                        partials_in_shared,
                        &red_arrays,
                        &wm.traces,
                        None,
                        &wm.lane_ops,
                        wm.atomic_accesses,
                        wm.tex_cache,
                        &mut tally.totals,
                        traced,
                        &mut tally.site_global,
                        &mut tally.site_shared,
                    );
                }
            }
        }
    }

    let Tally { mut totals, active_threads, site_global, site_shared } = tally;

    // Apply reductions.
    for (k, &(slot, op, _)) in red_scalar.iter().enumerate() {
        scal[slot] = op.combine(scal[slot], scal_acc[k]);
    }
    for &(a, op) in &red_arrays {
        let acc = &arr_acc[&a];
        // Combine into the device copy (allocating if necessary; a target
        // allocated here is not journaled, and capture copies it whole).
        if dev.bufs[a.0 as usize].is_none() {
            dev.bufs[a.0 as usize] = Some(Buffer::zeroed(acc.elem, acc.len()));
        }
        let mut mem = DeviceBufs { bufs: &mut dev.bufs, journal: journal.as_mut() };
        let mut dst = mem.write(a.0 as usize);
        let dst_f = dst.buf().elem.is_float();
        for i in 0..acc.len() {
            let cur = if dst_f { Value::F(dst.buf().get_f(i)) } else { Value::I(dst.buf().get_i(i)) };
            let nv = if acc.elem.is_float() { Value::F(acc.get_f(i)) } else { Value::I(acc.get_i(i)) };
            let c = op.combine(cur, nv);
            if dst_f {
                dst.set_f(i, c.as_f());
            } else {
                dst.set_i(i, c.as_i());
            }
        }
    }

    // Tree-reduction overhead.
    if !plan.reductions.is_empty() {
        if let ReduceStrategy::TwoLevelTree { .. } = plan.reduce_strategy {
            let rounds = (tpb.max(2) as f64).log2().ceil() as u64;
            totals.shared_slots += total_blocks * rounds * warps_per_block;
            totals.issue_cycles += (total_blocks * rounds * 2) as f64;
            // Partial writes + second-stage reads.
            let partial_bytes = total_blocks * 8 * plan.reductions.len() as u64;
            totals.global_transactions += 2 * partial_bytes.div_ceil(cfg.segment_bytes as u64).max(1);
            totals.global_requests += 2 * total_blocks.div_ceil(cfg.warp_size as u64).max(1);
        }
    }

    let mut shared_bytes = plan.shared_bytes_per_block;
    if partials_in_shared {
        let red_bytes: u32 = red_arrays
            .iter()
            .map(|(a, _)| {
                let (_, len, _) = priv_shapes.iter().find(|(id, _, _)| id == a).expect("shape");
                *len as u32 * prog.array_elem(*a).size_bytes()
            })
            .sum::<u32>()
            .saturating_mul(tpb / 32);
        shared_bytes = shared_bytes.max(red_bytes.min(cfg.shared_per_sm / 2));
    }

    let footprint = KernelFootprint {
        threads_per_block: tpb,
        shared_bytes_per_block: shared_bytes,
        regs_per_thread: plan.regs_per_thread,
        grid_blocks: total_blocks,
    };
    let mut cost = estimate_kernel(cfg, &footprint, &totals);
    if !plan.reductions.is_empty() {
        // Second-stage kernel launch.
        cost.time_secs += cfg.launch_overhead_us * 1e-6;
    }

    // The launch's own event goes out last, after the capture below, so a
    // sink that times launches by their events counts capture in the launch.
    let mut launch_event = None;
    if traced {
        // Per-site coalescing evidence, in site order (deterministic).
        for (i, kind) in site_kinds.iter().enumerate() {
            let SiteKind::Mem(arr) = kind else { continue };
            let g = site_global[i];
            let sh = site_shared[i];
            if g.requests == 0 && g.transactions == 0 && sh.requests == 0 {
                continue;
            }
            let space = if plan.expansion_of(*arr).is_some() {
                if partials_in_shared && red_arrays.iter().any(|(a, _)| a == arr) {
                    "shared"
                } else {
                    "global"
                }
            } else {
                match plan.space_of(*arr) {
                    MemSpace::Global => "global",
                    MemSpace::SharedTiled { .. } => "shared",
                    MemSpace::Constant => "constant",
                    MemSpace::Texture => "texture",
                }
            };
            let ev = TraceEvent::CoalesceSite {
                kernel: plan.name.clone(),
                site: i as u32,
                array: prog.array_name(*arr).to_string(),
                space: space.to_string(),
                requests: g.requests + sh.requests,
                transactions: g.transactions,
                lane_accesses: g.lane_accesses,
                shared_slots: sh.slots,
            };
            if capturing {
                captured_events.push(ev.clone());
            }
            sink.emit(ev);
        }
        if dev.tex_cache.hits != tex_hits0 || dev.tex_cache.misses != tex_misses0 {
            // Texture launches are never memoized, so this event is not captured.
            sink.emit(dev.tex_cache.trace_event(&format!("{}/texture", plan.name)));
        }
        let ev = cost.trace_event(&plan.name, &footprint, &totals, cfg);
        if capturing {
            captured_events.push(ev.clone());
        }
        launch_event = Some(ev);
    }

    // Generation bookkeeping: the launch mutated its write set, so those
    // digest memos are stale (opaque bodies invalidate every allocated
    // array — the write set cannot be bounded statically).
    if arrays.opaque {
        for (i, b) in dev.bufs.iter().enumerate() {
            if b.is_some() {
                dev.tags[i].bump();
            }
        }
    } else {
        for &i in &arrays.writes {
            dev.tags[i].bump();
        }
    }

    let result = LaunchResult { cost, totals, footprint, active_threads };
    if let (Some(key), Some(mut journal)) = (cache_key, journal) {
        // Capture the launch's complete effect: output deltas + digests
        // (which also prime the freshly bumped generation memos), scalar
        // writebacks, the result, and the trace-event slice.
        let outputs = launch_cache::timed_digest(|| journal.capture(&arrays.writes, &dev.bufs));
        journal.recycle();
        for &(i, _, d) in &outputs {
            dev.tags[i as usize].prime(d);
        }
        let scalar_writes: Vec<(usize, Value)> = red_scalar.iter().map(|&(slot, _, _)| (slot, scal[slot])).collect();
        launch_cache::insert(
            key,
            LaunchEffect { outputs, scalar_writes, result: result.clone(), events: captured_events },
        );
    }
    if let Some(ev) = launch_event {
        sink.emit(ev);
    }
    result
}

/// Readable/writable device arrays of a kernel body, for launch memoization.
struct BodyArrays {
    /// Non-private arrays the body can observe — loads and (partial-write)
    /// store targets — plus reduction targets: the content read set.
    reads: Vec<usize>,
    /// Non-private store targets plus reduction targets: everything the
    /// launch may mutate on the device.
    writes: Vec<usize>,
    /// The body contains constructs whose effect set this walk cannot bound
    /// (calls into program functions and other non-kernel constructs).
    opaque: bool,
}

fn body_arrays(plan: &KernelPlan, red_arrays: &[(ArrayId, crate::types::ReduceOp)]) -> BodyArrays {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut opaque = false;
    visit_stmts(&plan.body, &mut |s| match s {
        Stmt::Store { array, .. } if plan.expansion_of(*array).is_none() => {
            writes.push(array.0 as usize);
            reads.push(array.0 as usize);
        }
        Stmt::Call { .. } | Stmt::DataRegion { .. } | Stmt::Update { .. } | Stmt::Parallel(_) => opaque = true,
        _ => {}
    });
    visit_exprs(&plan.body, &mut |e| {
        if let Expr::Load { array, .. } = e {
            if plan.expansion_of(*array).is_none() {
                reads.push(array.0 as usize);
            }
        }
    });
    for &(a, _) in red_arrays {
        reads.push(a.0 as usize);
        writes.push(a.0 as usize);
    }
    reads.sort_unstable();
    reads.dedup();
    writes.sort_unstable();
    writes.dedup();
    BodyArrays { reads, writes, opaque }
}

/// Assemble the content-addressed key of this launch. Buffer digests go
/// through the generation memos, so a steady-state probe hashes nothing but
/// the (small) config/layout/scalar material.
#[allow(clippy::too_many_arguments)]
fn build_launch_key(
    plan: &KernelPlan,
    dev: &mut DeviceState,
    cfg: &DeviceConfig,
    scal: &[Value],
    extents: &[Vec<usize>],
    traced: bool,
    arrays: &BodyArrays,
) -> LaunchKey {
    launch_cache::timed_digest(|| {
        let plan_fp = plan.engine_cache.fingerprint(plan);
        // Address layout: the device base of every array depends on the
        // allocation state, length, and element size of all the arrays
        // before it; extents additionally pin index linearisation.
        let mut lay = Digest128::new();
        for (i, b) in dev.bufs.iter().enumerate() {
            match b {
                Some(b) => {
                    lay.push(1);
                    lay.push(b.len() as u64);
                    lay.push(b.elem.size_bytes() as u64);
                    lay.push(b.elem.is_float() as u64);
                }
                None => lay.push(0),
            }
            for &e in &extents[i] {
                lay.push(e as u64);
            }
            lay.push(u64::MAX); // extent-list terminator
        }
        let scalars: Vec<(u8, u64)> = scal
            .iter()
            .map(|v| match v {
                Value::F(x) => (1u8, x.to_bits()),
                Value::I(x) => (2u8, *x as u64),
                Value::B(x) => (3u8, *x as u64),
            })
            .collect();
        let inputs: Vec<(u32, Option<u128>)> = arrays
            .reads
            .iter()
            .map(|&i| {
                let d = match dev.bufs[i].as_ref() {
                    Some(b) => Some(dev.tags[i].digest(b).0),
                    None => None,
                };
                (i as u32, d)
            })
            .collect();
        LaunchKey {
            plan_fp,
            block: plan.block,
            shared_bytes: plan.shared_bytes_per_block,
            regs: plan.regs_per_thread,
            traced,
            cfg_digest: cfg.config_digest(),
            layout_digest: (lay.finish() >> 64) as u64 ^ lay.finish() as u64,
            scalars,
            inputs,
        }
    })
}

/// Apply a cached launch effect to the device and scalar environment,
/// re-emitting the captured trace-event slice. Bit-identical to executing
/// the launch.
fn replay_effect(
    effect: &LaunchEffect,
    dev: &mut DeviceState,
    scal: &mut [Value],
    sink: &mut dyn TraceSink,
    traced: bool,
) -> LaunchResult {
    for (ai, out, digest) in &effect.outputs {
        let i = *ai as usize;
        match out {
            ArrayOut::Full(src) => match &mut dev.bufs[i] {
                Some(b) if b.elem == src.elem && b.len() == src.len() => b.copy_from(src),
                slot => *slot = Some((**src).clone()),
            },
            ArrayOut::Sparse(writes) => {
                let b = dev.bufs[i].as_mut().expect("sparse replay target is allocated (keyed by layout)");
                match &mut b.data {
                    Payload::F(v) => {
                        for &(idx, bits) in writes {
                            v[idx as usize] = f64::from_bits(bits);
                        }
                    }
                    Payload::I(v) => {
                        for &(idx, bits) in writes {
                            v[idx as usize] = bits as i64;
                        }
                    }
                }
            }
        }
        dev.tags[i].bump();
        dev.tags[i].prime(*digest);
    }
    for &(slot, v) in &effect.scalar_writes {
        scal[slot] = v;
    }
    if traced {
        for e in &effect.events {
            sink.emit(e.clone());
        }
    }
    effect.result.clone()
}

/// Launch-wide immutable context of one native launch's block walk: the
/// plan, the compiled closures, the array layout and the grid geometry.
struct GridCtx<'a> {
    plan: &'a KernelPlan,
    nk: &'a native::NativeKernel,
    /// The typed bytecode the closures were built from (`nk.bc`):
    /// register layout, fast-site table and pricing flags.
    bc: &'a bytecode::KernelBytecode,
    cfg: &'a DeviceConfig,
    site_kinds: &'a [SiteKind],
    /// The array layout the closures address through.
    ctx: bytecode::ExecCtx<'a>,
    priv_elems: &'a [(ElemType, usize)],
    priv_shapes: &'a [(ArrayId, usize, bool)],
    base_env: &'a [Value],
    red_scalar: &'a [(usize, crate::types::ReduceOp, bool)],
    /// Each scalar reduction's identity, in reduction order.
    red_init: &'a [Value],
    red_arrays: &'a [(ArrayId, crate::types::ReduceOp)],
    fast_pricing: &'a [(u64, Option<f64>)],
    /// Per-fast-site affine address steps for representative-block pricing
    /// dedup (`None` disables dedup).
    dedup: Option<Vec<SiteAffine>>,
    atomic_serial: bool,
    partials_in_shared: bool,
    traced: bool,
    n0: u64,
    n1: u64,
    bx: u64,
    by: u64,
    gx: u64,
    tpb: u32,
    warp: u32,
    warps_per_block: u64,
    total_blocks: u64,
    lo0: i64,
    st0: i64,
    lo1: i64,
    st1: i64,
}

/// The launch's pricing accumulators, filled warp by warp in (block, warp)
/// order by either engine.
struct Tally {
    /// Every warp's issue-cycle increment is a whole number, so the f64
    /// issue sum is exact (below 2^53) in any order: the same bits whichever
    /// engine priced the warps and however many blocks replayed a class sum.
    totals: KernelTotals,
    active_threads: u64,
    /// Per-site evidence (trace-only; empty when untraced).
    site_global: Vec<AccessSummary>,
    site_shared: Vec<SharedSummary>,
}

impl Tally {
    fn new(site_count: usize, traced: bool) -> Tally {
        Tally {
            totals: KernelTotals::default(),
            active_threads: 0,
            site_global: if traced { vec![AccessSummary::default(); site_count] } else { Vec::new() },
            site_shared: if traced { vec![SharedSummary::default(); site_count] } else { Vec::new() },
        }
    }
}

/// Affine address behaviour of one fast site across the grid: the whole
/// block's address set translates by `dx`/`dy` per block-index step, and
/// its pricing is invariant under translation by multiples of `modulus`
/// (the coalescing segment for global sites, the bank cycle for
/// shared-tiled ones).
struct SiteAffine {
    addr0: i128,
    dx: i128,
    dy: i128,
    modulus: u64,
}

/// Probe each fast site's index expressions at (ix, iy) in
/// {(0,0), (1,0), (0,1)} to extract its affine address coefficients.
/// `uniform_pricing` guarantees every such index is affine in the axis
/// variables with launch-uniform remaining terms, so three pure
/// evaluations determine the whole map exactly.
#[allow(clippy::too_many_arguments)]
fn site_affine_probe(
    plan: &KernelPlan,
    bc: &bytecode::KernelBytecode,
    site_kinds: &[SiteKind],
    base: &[u64],
    elem_bytes: &[u32],
    strides: &[Vec<usize>],
    base_env: &[Value],
    lo0: i64,
    st0: i64,
    lo1: i64,
    st1: i64,
    bx: u64,
    by: u64,
    cfg: &DeviceConfig,
) -> Vec<SiteAffine> {
    let mut site_idx: HashMap<u32, &Vec<Expr>> = HashMap::new();
    visit_stmts(&plan.body, &mut |s| {
        if let Stmt::Store { index, site, .. } = s {
            site_idx.insert(site.0, index);
        }
    });
    visit_exprs(&plan.body, &mut |e| {
        if let Expr::Load { index, site, .. } = e {
            site_idx.insert(site.0, index);
        }
    });
    let ax0 = plan.axes[0].var.0 as usize;
    let ax1 = if plan.axes.len() > 1 { Some(plan.axes[1].var.0 as usize) } else { None };
    let mut env = base_env.to_vec();
    bc.fast_sites
        .iter()
        .map(|&site| {
            let SiteKind::Mem(arr) = site_kinds[site as usize] else { unreachable!("fast site must be a memory site") };
            let a = arr.0 as usize;
            let idx = site_idx[&site];
            let mut flat_at = |ixv: i64, iyv: i64| -> i128 {
                env[ax0] = Value::I(lo0 + st0 * ixv);
                if let Some(a1) = ax1 {
                    env[a1] = Value::I(lo1 + st1 * iyv);
                }
                idx.iter().zip(&strides[a]).map(|(e, st)| eval_pure(e, &env).as_i() as i128 * *st as i128).sum()
            };
            let f00 = flat_at(0, 0);
            let fx = flat_at(1, 0) - f00;
            let fy = if ax1.is_some() { flat_at(0, 1) - f00 } else { 0 };
            let eb = elem_bytes[a] as i128;
            let modulus = match plan.space_of(arr) {
                MemSpace::SharedTiled { .. } => (cfg.shared_banks * 4) as u64,
                _ => cfg.segment_bytes as u64,
            };
            SiteAffine {
                addr0: base[a] as i128 + f00 * eb,
                dx: fx * bx as i128 * eb,
                dy: fy * by as i128 * eb,
                modulus,
            }
        })
        .collect()
}

/// Pre-block snapshot of the launch's pricing accumulators;
/// [`PriceSnap::diff`] turns it into the block's pricing delta once the
/// representative block has been priced.
struct PriceSnap {
    warps: u64,
    issue: f64,
    greq: u64,
    gtx: u64,
    ubytes: u64,
    sslots: u64,
    aslots: u64,
    treq: u64,
    tmiss: u64,
    sites: Vec<(u32, AccessSummary, SharedSummary)>,
}

impl PriceSnap {
    fn take(out: &Tally, g: &GridCtx<'_>) -> PriceSnap {
        let t = &out.totals;
        PriceSnap {
            warps: t.warps,
            issue: t.issue_cycles,
            greq: t.global_requests,
            gtx: t.global_transactions,
            ubytes: t.useful_bytes,
            sslots: t.shared_slots,
            aslots: t.atomic_slots,
            treq: t.tex_requests,
            tmiss: t.tex_miss_lines,
            sites: if g.traced {
                g.bc.fast_sites.iter().map(|&s| (s, out.site_global[s as usize], out.site_shared[s as usize])).collect()
            } else {
                Vec::new()
            },
        }
    }

    fn diff(self, out: &Tally) -> BlockPricing {
        let t = &out.totals;
        BlockPricing {
            warps: t.warps - self.warps,
            issue: t.issue_cycles - self.issue,
            greq: t.global_requests - self.greq,
            gtx: t.global_transactions - self.gtx,
            ubytes: t.useful_bytes - self.ubytes,
            sslots: t.shared_slots - self.sslots,
            aslots: t.atomic_slots - self.aslots,
            treq: t.tex_requests - self.treq,
            tmiss: t.tex_miss_lines - self.tmiss,
            sites: self
                .sites
                .into_iter()
                .map(|(s, g0, s0)| {
                    let g1 = out.site_global[s as usize];
                    let s1 = out.site_shared[s as usize];
                    (
                        s,
                        AccessSummary {
                            requests: g1.requests - g0.requests,
                            transactions: g1.transactions - g0.transactions,
                            lane_accesses: g1.lane_accesses - g0.lane_accesses,
                        },
                        SharedSummary { slots: s1.slots - s0.slots, requests: s1.requests - s0.requests },
                    )
                })
                .collect(),
        }
    }
}

/// Cached pricing delta of one block equivalence class.
struct BlockPricing {
    warps: u64,
    issue: f64,
    greq: u64,
    gtx: u64,
    ubytes: u64,
    sslots: u64,
    aslots: u64,
    treq: u64,
    tmiss: u64,
    sites: Vec<(u32, AccessSummary, SharedSummary)>,
}

impl BlockPricing {
    fn replay(&self, out: &mut Tally, traced: bool) {
        let t = &mut out.totals;
        t.warps += self.warps;
        t.issue_cycles += self.issue;
        t.global_requests += self.greq;
        t.global_transactions += self.gtx;
        t.useful_bytes += self.ubytes;
        t.shared_slots += self.sslots;
        t.atomic_slots += self.aslots;
        t.tex_requests += self.treq;
        t.tex_miss_lines += self.tmiss;
        if traced {
            for &(s, ga, sh) in &self.sites {
                out.site_global[s as usize].merge(&ga);
                out.site_shared[s as usize].merge(&sh);
            }
        }
    }
}

/// Execute every block of the grid in block order against the device
/// buffers in `mem`, accumulating pricing into `out` and reduction partials
/// into `scal_acc`/`arr_acc` in (block, warp, lane) order, exactly as the
/// tree engine does.
fn run_block_range(
    g: &GridCtx<'_>,
    scratch: &mut bytecode::WarpScratch,
    mem: &mut DeviceBufs<'_>,
    tex_cache: &mut Cache,
    out: &mut Tally,
    scal_acc: &mut [Value],
    arr_acc: &mut HashMap<ArrayId, Buffer>,
) {
    let bc = g.bc;
    let wu = g.warp as usize;
    native::begin_launch(g.nk, scratch, g.plan.site_count as usize, g.priv_elems, g.base_env, g.cfg.segment_bytes);
    let mut ax0 = vec![0i64; wu];
    let mut ax1 = vec![0i64; wu];
    let mut row: Vec<(u32, u64)> = Vec::with_capacity(wu);
    let mut price_cache: HashMap<Vec<u64>, BlockPricing> = HashMap::new();
    let mut key: Vec<u64> = Vec::new();
    for blk in 0..g.total_blocks {
        let bxi = blk % g.gx;
        let byi = blk / g.gx;
        // Representative-block dedup: a block's pricing class is its
        // active-lane shape plus each fast site's base address residue.
        // On a class hit, replay the cached deltas; execution of the
        // block's functional effects still runs below — only the pricing
        // work is skipped.
        let mut cached = false;
        if let Some(aff) = &g.dedup {
            key.clear();
            key.push(g.n0.saturating_sub(bxi * g.bx).min(g.bx));
            key.push(g.n1.saturating_sub(byi * g.by).min(g.by));
            for s in aff {
                let addr = s.addr0 + s.dx * bxi as i128 + s.dy * byi as i128;
                key.push(addr.rem_euclid(s.modulus as i128) as u64);
            }
            if let Some(bp) = price_cache.get(&key) {
                bp.replay(out, g.traced);
                cached = true;
            }
        }
        let snap = if g.dedup.is_some() && !cached { Some(PriceSnap::take(out, g)) } else { None };
        for w in 0..g.warps_per_block {
            let mut mask = 0u64;
            for lane in 0..g.warp as u64 {
                let t = w * g.warp as u64 + lane;
                if t >= g.tpb as u64 {
                    break;
                }
                let tx = t % g.bx;
                let ty = t / g.bx;
                let ix = bxi * g.bx + tx;
                let iy = byi * g.by + ty;
                if ix >= g.n0 || iy >= g.n1 {
                    continue;
                }
                mask |= 1u64 << lane;
                ax0[lane as usize] = g.lo0 + ix as i64 * g.st0;
                ax1[lane as usize] = g.lo1 + iy as i64 * g.st1;
            }
            if mask == 0 {
                continue;
            }
            out.active_threads += mask.count_ones() as u64;
            // A pricing-cached block discards its warps' evidence; the
            // functional-only closures neither read nor write it, so the
            // evidence resets can be skipped with it.
            if !cached {
                scratch.begin_warp();
            }
            native::begin_warp(g.nk, scratch, g.base_env, g.red_init);
            // Per-lane prologue: axis variables (straight into the typed I
            // bank) and private-array scratch reset.
            let a0 = bc.axis_regs[0] as usize;
            let a1 = if g.plan.axes.len() > 1 { Some(bc.axis_regs[1] as usize) } else { None };
            let mut m = mask;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                scratch.iregs[a0 * wu + l] = ax0[l];
                if let Some(a1) = a1 {
                    scratch.iregs[a1 * wu + l] = ax1[l];
                }
            }
            for &(a, len, isf) in g.priv_shapes {
                let slot = g.ctx.priv_slot[a.0 as usize] as usize;
                let ident = g.red_arrays.iter().find(|(id, _)| *id == a).map(|&(_, op)| op);
                let fill_f = ident.map_or(0.0, |op| op.identity_f());
                let fill_i = ident.map_or(0, |op| op.identity_i());
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let b = &mut scratch.priv_bufs[slot * wu + l];
                    for e in 0..len {
                        if isf {
                            b.set_f(e, fill_f);
                        } else {
                            b.set_i(e, fill_i);
                        }
                    }
                }
            }
            // Execute the warp in lockstep.
            let tid_base = blk * g.tpb as u64 + w * g.warp as u64;
            let atomic = native::exec_warp_native(g.nk, scratch, &g.ctx, mem.reborrow(), mask, tid_base, !cached);
            // Fold reductions in ascending lane order — the same combine
            // sequence the tree path produces. With no reductions the lane
            // scan is a no-op; skip it.
            let mut extra_atomic = 0u64;
            let mut m = if g.red_scalar.is_empty() && g.red_arrays.is_empty() { 0 } else { mask };
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                for (k, &(_, op, _)) in g.red_scalar.iter().enumerate() {
                    scal_acc[k] = op.combine(scal_acc[k], native::red_value(g.nk, scratch, k, l));
                }
                for &(a, op) in g.red_arrays {
                    let slot = g.ctx.priv_slot[a.0 as usize] as usize;
                    let src = &scratch.priv_bufs[slot * wu + l];
                    let acc = arr_acc.get_mut(&a).expect("acc");
                    for i in 0..src.len() {
                        let cur = if acc.elem.is_float() { Value::F(acc.get_f(i)) } else { Value::I(acc.get_i(i)) };
                        let nv = if src.elem.is_float() { Value::F(src.get_f(i)) } else { Value::I(src.get_i(i)) };
                        let c = op.combine(cur, nv);
                        if acc.elem.is_float() {
                            acc.set_f(i, c.as_f());
                        } else {
                            acc.set_i(i, c.as_i());
                        }
                    }
                    if g.atomic_serial {
                        extra_atomic += src.len() as u64;
                    }
                }
                if g.atomic_serial && !g.red_scalar.is_empty() {
                    extra_atomic += g.red_scalar.len() as u64;
                }
            }
            if cached {
                continue;
            }
            // Price the warp's evidence.
            price_warp(
                g.plan,
                g.cfg,
                g.site_kinds,
                g.ctx.elem_bytes,
                g.partials_in_shared,
                g.red_arrays,
                &scratch.traces,
                Some(&scratch.site_touched),
                &scratch.lane_ops,
                atomic + extra_atomic,
                tex_cache,
                &mut out.totals,
                g.traced,
                &mut out.site_global,
                &mut out.site_shared,
            );
            // Affine fast-path sites: one address row per site, summarised
            // through the memo instead of a trace.
            for (fidx, &site) in bc.fast_sites.iter().enumerate() {
                row.clear();
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    row.push((l as u32, scratch.fast_rows[fidx * wu + l]));
                }
                let (eb, shared_reuse) = g.fast_pricing[fidx];
                match shared_reuse {
                    None => {
                        let s = scratch.memo.reduce_row(site, &row);
                        out.totals.global_requests += s.requests;
                        out.totals.global_transactions += s.transactions;
                        out.totals.useful_bytes += s.lane_accesses * eb;
                        if g.traced {
                            out.site_global[site as usize].merge(&s);
                        }
                    }
                    Some(reuse) => {
                        let sh = scratch.memo.reduce_row_shared(site, &row, g.cfg.shared_banks, 4);
                        out.totals.shared_slots += sh.slots;
                        let lane_accesses = row.len() as u64;
                        let fill_bytes = (lane_accesses * eb) as f64 / reuse.max(1.0);
                        let fill_tx = (fill_bytes / g.cfg.segment_bytes as f64).ceil() as u64;
                        out.totals.global_transactions += fill_tx;
                        out.totals.global_requests += fill_tx;
                        out.totals.useful_bytes += fill_bytes as u64;
                        if g.traced {
                            out.site_shared[site as usize].merge(&sh);
                            out.site_global[site as usize].merge(&AccessSummary {
                                requests: fill_tx,
                                transactions: fill_tx,
                                lane_accesses,
                            });
                        }
                    }
                }
            }
        }
        if let Some(sn) = snap {
            price_cache.insert(key.clone(), sn.diff(out));
        }
    }
}

/// Price one warp's worth of execution evidence into `totals`.
///
/// Shared by both engines: the tree walker feeds it from `WarpMachine`
/// state, the native executor from its pooled `WarpScratch`. Keeping
/// a single pricing routine is what makes the two engines bit-identical on
/// everything downstream of the traces.
#[allow(clippy::too_many_arguments)]
fn price_warp(
    plan: &KernelPlan,
    cfg: &DeviceConfig,
    site_kinds: &[SiteKind],
    elem_bytes: &[u32],
    partials_in_shared: bool,
    red_arrays: &[(ArrayId, crate::types::ReduceOp)],
    traces: &[SiteWarpTrace],
    touched: Option<&[bool]>,
    lane_ops: &[u64],
    atomic_accesses: u64,
    tex_cache: &mut Cache,
    totals: &mut KernelTotals,
    traced: bool,
    site_global: &mut [AccessSummary],
    site_shared: &mut [SharedSummary],
) {
    totals.warps += 1;
    let mut divergent_rows = 0u64;
    let mut extra_issue = 0.0f64;
    for (i, tr) in traces.iter().enumerate() {
        // The native executor tracks which sites recorded anything this
        // warp; skipping the rest changes nothing (empty traces price to
        // zero) but avoids scanning every lane stream of every site.
        if touched.is_some_and(|t| !t[i]) {
            continue;
        }
        if tr.is_empty() {
            continue;
        }
        match site_kinds[i] {
            SiteKind::Branch => divergent_rows += tr.reduce_divergent_rows(),
            SiteKind::Mem(arr) => {
                let eb = elem_bytes[arr.0 as usize] as u64;
                let space = if plan.expansion_of(arr).is_some() {
                    // Reduction partials may be staged in shared.
                    if partials_in_shared && red_arrays.iter().any(|(a, _)| *a == arr) {
                        MemSpace::SharedTiled { reuse: 1.0 }
                    } else {
                        MemSpace::Global
                    }
                } else {
                    plan.space_of(arr)
                };
                match space {
                    MemSpace::Global => {
                        let s = tr.reduce_global(cfg.segment_bytes);
                        totals.global_requests += s.requests;
                        totals.global_transactions += s.transactions;
                        totals.useful_bytes += s.lane_accesses * eb;
                        if traced {
                            site_global[i].merge(&s);
                        }
                    }
                    MemSpace::SharedTiled { reuse } => {
                        let sh = tr.reduce_shared(cfg.shared_banks, 4);
                        totals.shared_slots += sh.slots;
                        let s = tr.reduce_global(cfg.segment_bytes);
                        let fill_bytes = (s.lane_accesses * eb) as f64 / reuse.max(1.0);
                        let fill_tx = (fill_bytes / cfg.segment_bytes as f64).ceil() as u64;
                        totals.global_transactions += fill_tx;
                        totals.global_requests += fill_tx;
                        totals.useful_bytes += fill_bytes as u64;
                        if traced {
                            site_shared[i].merge(&sh);
                            site_global[i].merge(&AccessSummary {
                                requests: fill_tx,
                                transactions: fill_tx,
                                lane_accesses: s.lane_accesses,
                            });
                        }
                    }
                    MemSpace::Constant => {
                        // Distinct words per row serialize.
                        let s = tr.reduce_global(eb.max(4) as u32);
                        extra_issue += (s.transactions - s.requests) as f64;
                        if traced {
                            site_global[i].merge(&s);
                        }
                    }
                    MemSpace::Texture if cfg.has_texture_path => {
                        let line = cfg.tex_line_bytes as u64;
                        let (req0, miss0) = (totals.tex_requests, totals.tex_miss_lines);
                        tr.for_each_row(|row| {
                            totals.tex_requests += 1;
                            let mut lines: Vec<u64> = row.iter().map(|a| a / line).collect();
                            lines.sort_unstable();
                            lines.dedup();
                            for l in lines {
                                if !tex_cache.access(l * line) {
                                    totals.tex_miss_lines += 1;
                                }
                            }
                        });
                        if traced {
                            site_global[i].merge(&AccessSummary {
                                requests: totals.tex_requests - req0,
                                transactions: totals.tex_miss_lines - miss0,
                                lane_accesses: 0,
                            });
                        }
                    }
                    MemSpace::Texture => {
                        // No dedicated texture pipeline on this generation:
                        // read-only data flows through the unified L1 (the
                        // same cache simulator, sized per preset) and misses
                        // move ordinary global segments, so the cost lands on
                        // the global-memory roofline terms instead of the
                        // texture ones.
                        let line = cfg.tex_line_bytes as u64;
                        let tx_per_line = (line / cfg.segment_bytes as u64).max(1);
                        let (req0, tx0) = (totals.global_requests, totals.global_transactions);
                        let mut lanes = 0u64;
                        tr.for_each_row(|row| {
                            totals.global_requests += 1;
                            lanes += row.len() as u64;
                            let mut lines: Vec<u64> = row.iter().map(|a| a / line).collect();
                            lines.sort_unstable();
                            lines.dedup();
                            for l in lines {
                                if !tex_cache.access(l * line) {
                                    totals.global_transactions += tx_per_line;
                                }
                            }
                        });
                        totals.useful_bytes += lanes * eb;
                        if traced {
                            site_global[i].merge(&AccessSummary {
                                requests: totals.global_requests - req0,
                                transactions: totals.global_transactions - tx0,
                                lane_accesses: lanes,
                            });
                        }
                    }
                }
            }
            SiteKind::Unused => {}
        }
    }
    totals.atomic_slots += atomic_accesses;
    // A whole number (max lane ops, 8 per divergent row, whole extra
    // transactions), which is what lets `Tally` add increments and replayed
    // class sums in any order.
    let issue = warp_issue_cycles(lane_ops, divergent_rows) + extra_issue;
    debug_assert_eq!(issue.fract(), 0.0, "warp issue increment {issue} is not a whole number");
    totals.issue_cycles += issue;
}

/// Convenience for tests: allocate+upload every array the kernel touches.
pub fn upload_all(prog: &Program, dev: &mut DeviceState, host: &crate::program::HostData) {
    for i in 0..prog.arrays.len() {
        dev.upload(ArrayId(i as u32), &host.bufs[i]);
    }
}

/// Convenience for tests: make a scalar environment from a dataset.
pub fn env_from_dataset(prog: &Program, ds: &crate::program::DataSet) -> Vec<Value> {
    let mut scal: Vec<Value> =
        prog.scalars.iter().map(|d| if d.is_float { Value::F(0.0) } else { Value::I(0) }).collect();
    for (id, v) in &ds.scalars {
        scal[id.0 as usize] = *v;
    }
    scal
}

/// Convenience: bind a kernel axis variable id (for assertions in tests).
pub fn axis_var(plan: &KernelPlan, i: usize) -> ScalarId {
    plan.axes[i].var
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::expr::{ld, v};
    use crate::kernel::axis;
    use crate::program::{DataSet, HostData};
    use crate::types::ReduceOp;
    use acceval_sim::ElemType;

    fn setup(n: i64) -> (Program, DataSet) {
        let mut pb = ProgramBuilder::new("t");
        let nn = pb.iscalar("n");
        let _i = pb.iscalar("i");
        let _s = pb.fscalar("s");
        let _x = pb.farray("x", vec![v(nn)]);
        let _y = pb.farray("y", vec![v(nn)]);
        pb.main(vec![]);
        let p = pb.build();
        let ds = DataSet {
            scalars: vec![(nn, Value::I(n))],
            arrays: vec![(ArrayId(0), Buffer::from_f64(ElemType::F64, (0..n).map(|i| i as f64).collect()))],
            label: "t".into(),
        };
        (p, ds)
    }

    #[test]
    fn elementwise_kernel_computes_and_prices() {
        let (p, ds) = setup(1000);
        let n = p.scalar_named("n");
        let i = p.scalar_named("i");
        let x = p.array_named("x");
        let y = p.array_named("y");
        let mut k = crate::kernel::KernelPlan::new(
            "add1",
            vec![axis(i, v(n))],
            vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * 2.0)],
        );
        k.finalize();

        let cfg = DeviceConfig::tesla_m2090();
        let mut dev = DeviceState::new(&p, &cfg);
        let host = HostData::materialize(&p, &ds);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        let r = launch(&p, &k, &mut dev, &mut scal, &cfg);

        assert_eq!(r.active_threads, 1000);
        let yb = dev.bufs[y.0 as usize].as_ref().unwrap();
        assert_eq!(yb.get_f(7), 14.0);
        // 1000 threads reading f64 unit-stride: 2 tx per full warp per site.
        assert!(r.totals.global_transactions >= 2 * 31 * 2);
        assert!(r.totals.global_transactions <= 2 * 32 * 2 + 8);
        assert!(r.cost.time_secs > 0.0);
    }

    #[test]
    fn strided_kernel_needs_more_transactions() {
        let (p, ds) = setup(4096);
        let n = p.scalar_named("n");
        let i = p.scalar_named("i");
        let x = p.array_named("x");
        let y = p.array_named("y");
        // y[i] = x[(i*64) % n] — uncoalesced gather.
        let mut k = crate::kernel::KernelPlan::new(
            "gather",
            vec![axis(i, v(n))],
            vec![store(y, vec![v(i)], ld(x, vec![(v(i) * 64i64) % v(n)]))],
        );
        k.finalize();
        let mut k2 =
            crate::kernel::KernelPlan::new("unit", vec![axis(i, v(n))], vec![store(y, vec![v(i)], ld(x, vec![v(i)]))]);
        k2.finalize();

        let cfg = DeviceConfig::tesla_m2090();
        let host = HostData::materialize(&p, &ds);
        let mut dev = DeviceState::new(&p, &cfg);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        let bad = launch(&p, &k, &mut dev, &mut scal, &cfg);
        let good = launch(&p, &k2, &mut dev, &mut scal, &cfg);
        assert!(
            bad.totals.global_transactions > 5 * good.totals.global_transactions,
            "gather {} vs unit {}",
            bad.totals.global_transactions,
            good.totals.global_transactions
        );
    }

    #[test]
    fn scalar_reduction_matches_serial() {
        let (p, ds) = setup(10_000);
        let n = p.scalar_named("n");
        let i = p.scalar_named("i");
        let s = p.scalar_named("s");
        let x = p.array_named("x");
        let mut k =
            crate::kernel::KernelPlan::new("sum", vec![axis(i, v(n))], vec![assign(s, v(s) + ld(x, vec![v(i)]))])
                .with_reduction(ReduceOp::Add, VarRef::Scalar(s));
        k.finalize();

        let cfg = DeviceConfig::tesla_m2090();
        let host = HostData::materialize(&p, &ds);
        let mut dev = DeviceState::new(&p, &cfg);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        scal[s.0 as usize] = Value::F(5.0); // initial value participates
        launch(&p, &k, &mut dev, &mut scal, &cfg);
        let expect = 5.0 + (0..10_000).map(|i| i as f64).sum::<f64>();
        assert!((scal[s.0 as usize].as_f() - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn private_array_expansion_changes_traffic_not_values() {
        // Each thread fills a private array then writes its sum to y[i].
        let mut pb = ProgramBuilder::new("pr");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let j = pb.iscalar("j");
        let s = pb.fscalar("s");
        let y = pb.farray("y", vec![v(n)]);
        let q = pb.farray("q", vec![16i64.into()]);
        pb.main(vec![]);
        let p = pb.build();
        let ds = DataSet { scalars: vec![(n, Value::I(2048))], arrays: vec![], label: "t".into() };

        let body = vec![
            sfor(j, 0i64, 16i64, vec![store(q, vec![v(j)], (v(i) + v(j)).to_f())]),
            assign(s, 0.0),
            sfor(j, 0i64, 16i64, vec![assign(s, v(s) + ld(q, vec![v(j)]))]),
            store(y, vec![v(i)], v(s)),
        ];
        let mk = |exp: Expansion| {
            let mut k = crate::kernel::KernelPlan::new("priv", vec![axis(i, v(n))], body.clone()).with_private(q, exp);
            k.finalize();
            k
        };
        let cfg = DeviceConfig::tesla_m2090();
        let host = HostData::materialize(&p, &ds);

        let run = |k: &crate::kernel::KernelPlan| {
            let mut dev = DeviceState::new(&p, &cfg);
            upload_all(&p, &mut dev, &host);
            let mut scal = env_from_dataset(&p, &ds);
            let r = launch(&p, k, &mut dev, &mut scal, &cfg);
            let yv = dev.bufs[y.0 as usize].as_ref().unwrap().get_f(5);
            (r, yv)
        };
        let (row, yr) = run(&mk(Expansion::RowWise));
        let (col, yc) = run(&mk(Expansion::ColumnWise));
        assert_eq!(yr, yc);
        let expect: f64 = (0..16).map(|j| (5 + j) as f64).sum();
        assert_eq!(yr, expect);
        assert!(
            row.totals.global_transactions > 4 * col.totals.global_transactions,
            "row-wise {} should be far less coalesced than column-wise {}",
            row.totals.global_transactions,
            col.totals.global_transactions
        );
        assert!(row.cost.time_secs > col.cost.time_secs);
    }

    #[test]
    fn two_d_kernel_covers_grid() {
        let mut pb = ProgramBuilder::new("t2");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let j = pb.iscalar("j");
        let a = pb.farray("a", vec![v(n), v(n)]);
        pb.main(vec![]);
        let p = pb.build();
        let ds = DataSet { scalars: vec![(n, Value::I(70))], arrays: vec![], label: "t".into() };
        let mut k = crate::kernel::KernelPlan::new(
            "fill2d",
            vec![axis(i, v(n)), axis(j, v(n))],
            vec![store(a, vec![v(i), v(j)], (v(i) * 1000i64 + v(j)).to_f())],
        )
        .with_block(16, 16);
        k.finalize();
        let cfg = DeviceConfig::tesla_m2090();
        let host = HostData::materialize(&p, &ds);
        let mut dev = DeviceState::new(&p, &cfg);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        let r = launch(&p, &k, &mut dev, &mut scal, &cfg);
        assert_eq!(r.active_threads, 70 * 70);
        let ab = dev.bufs[a.0 as usize].as_ref().unwrap();
        assert_eq!(ab.get_f(69 * 70 + 69), 69069.0);
        assert_eq!(r.footprint.grid_blocks, 5 * 5);
    }

    #[test]
    fn divergent_branches_cost_issue_cycles() {
        let (p, ds) = setup(4096);
        let n = p.scalar_named("n");
        let i = p.scalar_named("i");
        let y = p.array_named("y");
        // Divergent: every other lane takes a different path.
        let body_div =
            vec![if_else((v(i) % 2i64).eq_(0i64), vec![store(y, vec![v(i)], 1.0)], vec![store(y, vec![v(i)], 2.0)])];
        // Uniform: whole warps take the same path.
        let body_uni = vec![if_else(
            ((v(i) / 32i64) % 2i64).eq_(0i64),
            vec![store(y, vec![v(i)], 1.0)],
            vec![store(y, vec![v(i)], 2.0)],
        )];
        let mk = |body: Vec<Stmt>, name: &str| {
            let mut k = crate::kernel::KernelPlan::new(name, vec![axis(i, v(n))], body);
            k.finalize();
            k
        };
        let cfg = DeviceConfig::tesla_m2090();
        let host = HostData::materialize(&p, &ds);
        let mut dev = DeviceState::new(&p, &cfg);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        let div = launch(&p, &mk(body_div, "div"), &mut dev, &mut scal, &cfg);
        let uni = launch(&p, &mk(body_uni, "uni"), &mut dev, &mut scal, &cfg);
        assert!(div.totals.issue_cycles > uni.totals.issue_cycles);
    }

    #[test]
    fn texture_placement_reduces_transactions_for_reuse() {
        let (p, ds) = setup(4096);
        let n = p.scalar_named("n");
        let i = p.scalar_named("i");
        let x = p.array_named("x");
        let y = p.array_named("y");
        // Gather with heavy reuse: x[i % 64].
        let body = vec![store(y, vec![v(i)], ld(x, vec![v(i) % 64i64]))];
        let mk = |tex: bool| {
            let mut k = crate::kernel::KernelPlan::new("g", vec![axis(i, v(n))], body.clone());
            if tex {
                k = k.with_placement(x, MemSpace::Texture);
            }
            k.finalize();
            k
        };
        let cfg = DeviceConfig::tesla_m2090();
        let host = HostData::materialize(&p, &ds);
        let mut dev = DeviceState::new(&p, &cfg);
        upload_all(&p, &mut dev, &host);
        let mut scal = env_from_dataset(&p, &ds);
        let plain = launch(&p, &mk(false), &mut dev, &mut scal, &cfg);
        let tex = launch(&p, &mk(true), &mut dev, &mut scal, &cfg);
        let plain_traffic = plain.totals.traffic_bytes(&cfg);
        let tex_traffic = tex.totals.traffic_bytes(&cfg);
        // The y-store traffic (32 KiB) is common to both; the gather's own
        // traffic drops from ~32 KiB to under 1 KiB with the texture cache.
        assert!(
            (tex_traffic as f64) < 0.6 * plain_traffic as f64,
            "texture-cached gather should move far less DRAM traffic ({tex_traffic} vs {plain_traffic})"
        );
        assert!(tex.totals.tex_miss_lines < 100);
    }
}
