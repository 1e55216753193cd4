//! Shared lowering machinery: turn the work-sharing loops of a (ported)
//! parallel region into [`KernelPlan`]s according to a model's automatic
//! behaviour and a tuning point.

use std::collections::HashMap;

use acceval_ir::analysis::{coalesced_fraction, detect_scalar_reductions};
use acceval_ir::expr::Expr;
use acceval_ir::kernel::{axis_from, Expansion, KernelPlan, MemSpace, ParAxis, ReduceStrategy};
use acceval_ir::program::{eval_const, Program};
use acceval_ir::stmt::{ParallelRegion, Stmt};
use acceval_ir::transform::{collapse2, interchange};
use acceval_ir::types::{ArrayId, ReduceOp, ScalarId, Value, VarRef};

use crate::{TuningPoint, Unsupported};

/// How a model sources scalar reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarRedSource {
    /// Only implicit pattern detection (PGI Accelerator).
    Detected,
    /// Only explicit clauses (OpenACC/HMPP/hiCUDA).
    Declared,
    /// Both (OpenMPC).
    Both,
}

/// A model's automatic lowering behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoweringOptions {
    /// Private-array expansion layout the compiler generates.
    pub default_expansion: Expansion,
    /// Where scalar reductions come from.
    pub scalar_reductions: ScalarRedSource,
    /// Whether array reductions are supported (incl. critical-section
    /// conversion — OpenMPC only).
    pub array_reductions: bool,
    /// Automatically interchange so the coalescing-best loop is the thread
    /// loop (OpenMPC's parallel loop-swap).
    pub auto_loop_swap: bool,
    /// Map perfectly nested work-sharing loops onto a 2-D grid.
    pub two_d_mapping: bool,
    /// Automatically tile 2-D kernels' reused read-only arrays into shared
    /// memory (the PGI compiler's behaviour on JACOBI).
    pub auto_tile_2d: bool,
    /// Automatically place read-only irregular data in texture memory and
    /// small read-only data in constant memory (OpenMPC's fine-grained
    /// caching on CFD).
    pub auto_caching: bool,
    /// Honor explicit per-region placement/block hints from the port
    /// (HMPP's codelet-generator directives, hiCUDA, hand-written CUDA).
    pub honor_hints: bool,
}

/// Explicit per-region guidance a port can attach (what rich directive sets
/// or manual code express).
#[derive(Debug, Clone, Default)]
pub struct RegionHints {
    pub block: Option<(u32, u32)>,
    pub placements: Vec<(ArrayId, MemSpace)>,
    pub expansion: Option<Expansion>,
    /// Stage array-reduction partials in shared memory (manual KMEANS).
    pub partials_in_shared: bool,
    /// Force thread coarsening has already been applied in the input;
    /// nothing for the compiler to do (informational).
    pub coarsened: bool,
}

/// Lower every work-sharing loop of a region into kernels, in order.
///
/// `env` supplies plausible scalar values (dataset parameters) for the
/// profitability analyses. Top-level non-loop statements are left for the
/// runtime to execute on the host (OpenMPC region splitting).
pub fn lower_region(
    prog: &mut Program,
    region: &ParallelRegion,
    opts: &LoweringOptions,
    hints: &RegionHints,
    tuning: &TuningPoint,
    env: &[Value],
) -> Result<Vec<KernelPlan>, Unsupported> {
    let mut kernels = Vec::new();
    let mut idx = 0;
    for s in &region.body {
        if let Stmt::For { par: Some(_), .. } = s {
            let name = format!("{}_k{}", region.label.replace('.', "_"), idx);
            let plan = lower_loop(prog, s.clone(), &region.private, name, opts, hints, tuning, env)?;
            kernels.push(plan);
            idx += 1;
        }
    }
    if kernels.is_empty() {
        return Err(Unsupported::new(format!("region {} has no work-sharing loops", region.label)));
    }
    Ok(kernels)
}

/// Lower a single work-sharing loop.
#[allow(clippy::too_many_arguments)]
fn lower_loop(
    prog: &mut Program,
    mut loop_stmt: Stmt,
    region_private: &[VarRef],
    name: String,
    opts: &LoweringOptions,
    hints: &RegionHints,
    tuning: &TuningPoint,
    env: &[Value],
) -> Result<KernelPlan, Unsupported> {
    // 1. Collapse clause first: a collapsed nest already iterates the inner
    // loop fastest (coalesced), so the swap must not run before it.
    let has_collapse = {
        let Stmt::For { par, .. } = &loop_stmt else { unreachable!() };
        par.as_ref().map(|p| p.collapse).unwrap_or(0) >= 2
    };
    if has_collapse {
        collapse2(prog, &mut loop_stmt);
    }

    // 2. Coalescing transform (manual override, or OpenMPC's automatic
    // parallel loop-swap). When the nest is perfectly collapsible, OpenMPC
    // collapses instead of interchanging: that fixes coalescing *and* keeps
    // the full iteration space as threads (interchange alone would leave
    // only the inner trip count as parallelism).
    let is_nested_pfor = {
        let Stmt::For { body, .. } = &loop_stmt else { unreachable!() };
        body.len() == 1 && matches!(&body[0], Stmt::For { par: Some(_), .. })
    };
    if !(has_collapse || (opts.two_d_mapping && is_nested_pfor)) {
        let do_swap = match tuning.loop_swap {
            Some(b) => b,
            None => opts.auto_loop_swap && swap_profitable(prog, &loop_stmt, env),
        };
        if do_swap && !(tuning.loop_swap.is_none() && collapse2(prog, &mut loop_stmt)) {
            interchange(&mut loop_stmt);
        }
    }

    // 3. Determine axes and per-thread body.
    let Stmt::For { var, lo, hi, step, mut body, par } = loop_stmt else { unreachable!() };
    let par = par.expect("work-sharing loop");
    let outer_axis = mk_axis(var, &lo, &hi, &step);
    let mut axes = vec![outer_axis];
    let mut inner_par: Option<acceval_ir::stmt::ParInfo> = None;
    if opts.two_d_mapping && body.len() == 1 {
        if let Stmt::For { par: Some(_), .. } = &body[0] {
            let Stmt::For { var: v2, lo: lo2, hi: hi2, step: s2, body: inner, par: p2 } = body.remove(0) else {
                unreachable!()
            };
            // Inner loop becomes the x axis (fast dimension) for coalescing.
            axes = vec![mk_axis(v2, &lo2, &hi2, &s2), axes.pop().expect("outer")];
            inner_par = p2;
            body = inner;
        }
    }

    // 4. Reductions.
    let mut reductions: Vec<(ReduceOp, VarRef)> = Vec::new();
    let declared = par
        .reductions
        .iter()
        .chain(inner_par.iter().flat_map(|p| p.reductions.iter()))
        .map(|r| (r.op, r.target))
        .collect::<Vec<_>>();
    match opts.scalar_reductions {
        ScalarRedSource::Declared => {
            for (op, t) in &declared {
                if matches!(t, VarRef::Scalar(_)) {
                    reductions.push((*op, *t));
                }
            }
        }
        ScalarRedSource::Detected => {
            for (s, op) in detect_scalar_reductions(&body) {
                reductions.push((op, VarRef::Scalar(s)));
            }
        }
        ScalarRedSource::Both => {
            for (op, t) in &declared {
                if matches!(t, VarRef::Scalar(_)) {
                    reductions.push((*op, *t));
                }
            }
            for (s, op) in detect_scalar_reductions(&body) {
                if !reductions.iter().any(|(_, t)| *t == VarRef::Scalar(s)) {
                    reductions.push((op, VarRef::Scalar(s)));
                }
            }
        }
    }
    // Array reductions: declared clauses, or critical-section conversion.
    let declared_arrays: Vec<(ReduceOp, ArrayId)> = declared
        .iter()
        .filter_map(|(op, t)| match t {
            VarRef::Array(a) => Some((*op, *a)),
            _ => None,
        })
        .collect();
    let mut array_red_targets: Vec<(ReduceOp, ArrayId)> = Vec::new();
    if !declared_arrays.is_empty() {
        if !opts.array_reductions {
            return Err(Unsupported::new("array reduction clauses not supported by this model"));
        }
        array_red_targets.extend(declared_arrays);
    }
    if contains_critical(&body) {
        if !opts.array_reductions {
            return Err(Unsupported::new("critical section in offloaded loop"));
        }
        let found = acceval_ir::analysis::detect_array_reductions(&body, true);
        if found.is_empty() {
            return Err(Unsupported::new("critical section is not a reduction pattern"));
        }
        for (a, op) in found {
            if !array_red_targets.iter().any(|(_, t)| *t == a) {
                array_red_targets.push((op, a));
            }
        }
        strip_critical(&mut body);
    }
    for (op, a) in &array_red_targets {
        reductions.push((*op, VarRef::Array(*a)));
    }

    // 5. Private arrays.
    let expansion = hints
        .expansion
        .or(if tuning.transpose_expansion { Some(Expansion::ColumnWise) } else { None })
        .unwrap_or(opts.default_expansion);
    let mut private_arrays: Vec<ArrayId> = Vec::new();
    for p in region_private.iter().chain(par.private.iter()) {
        if let VarRef::Array(a) = p {
            if !private_arrays.contains(a) {
                private_arrays.push(*a);
            }
        }
    }
    for (_, a) in &array_red_targets {
        if !private_arrays.contains(a) {
            private_arrays.push(*a);
        }
    }

    // 6/7. Placement: hints, automatic caching, automatic tiling.
    let touched = acceval_ir::analysis::arrays_touched(prog, &body);
    let mut placement: Vec<(ArrayId, MemSpace)> = Vec::new();
    if opts.honor_hints {
        // Shared-memory staging hints are governed by the tiling knob,
        // texture/constant hints by the caching knob.
        placement.extend(hints.placements.iter().copied().filter(|(_, sp)| match sp {
            MemSpace::SharedTiled { .. } => tuning.tiling,
            MemSpace::Texture | MemSpace::Constant => tuning.caching,
            MemSpace::Global => true,
        }));
    }
    // Tiling first: an array worth staging in shared memory should not be
    // demoted to the texture path by the caching pass below.
    let mut shared_bytes = 0u32;
    if opts.auto_tile_2d && tuning.tiling && axes.len() == 2 {
        for a in touched.reads.iter() {
            if touched.writes.contains(a) || private_arrays.contains(a) {
                continue;
            }
            let loads = load_sites_of(&body, *a);
            if loads >= 2 && !placement.iter().any(|(id, _)| id == a) {
                placement.push((*a, MemSpace::SharedTiled { reuse: loads as f64 }));
                let (bx, by) = hints.block.unwrap_or((16, 16));
                shared_bytes += (bx + 2) * (by + 2) * prog.array_elem(*a).size_bytes();
            }
        }
    }
    if opts.auto_caching && tuning.caching {
        for a in touched.reads.iter() {
            if touched.writes.contains(a) || private_arrays.contains(a) {
                continue;
            }
            if placement.iter().any(|(id, _)| id == a) {
                continue;
            }
            let bytes: usize = prog.arrays[a.0 as usize].dims.iter().map(|d| eval_const(d, env)).product::<usize>()
                * prog.array_elem(*a).size_bytes() as usize;
            if bytes <= 8 * 1024 {
                placement.push((*a, MemSpace::Constant));
            } else if array_read_indirectly(&body, *a) {
                placement.push((*a, MemSpace::Texture));
            }
        }
    }
    // Shared tiling from explicit hints also reserves space.
    let mut tuned_shared_elem = None;
    for (a, sp) in &placement {
        if let MemSpace::SharedTiled { .. } = sp {
            if shared_bytes == 0 {
                let elem = prog.array_elem(*a).size_bytes();
                let (bx, by) = match hints.block {
                    Some(b) => b,
                    None => {
                        // Footprint depends on the tuning geometry: record
                        // provenance so a geometry retarget can recompute it.
                        tuned_shared_elem = Some(elem);
                        (tuning.block_x, tuning.block_y)
                    }
                };
                shared_bytes += (bx + 2) * (by + 2) * elem;
            }
        }
    }

    // 8. Block shape.
    let (block, block_from_tuning) = if let (true, Some(b)) = (opts.honor_hints, hints.block) {
        (b, false)
    } else if axes.len() == 2 {
        ((16, 16), false)
    } else {
        ((tuning.block_x * tuning.block_y.max(1), 1), true)
    };

    // 9. Register estimate: base + per assigned scalar.
    let mut assigned = 0u32;
    acceval_ir::stmt::visit_stmts(&body, &mut |s| {
        if matches!(s, Stmt::Assign { .. }) {
            assigned += 1;
        }
    });
    let regs = (12 + 2 * assigned).min(63);

    let mut plan = KernelPlan::new(name, axes, body);
    plan.block = block;
    plan.block_from_tuning = block_from_tuning;
    plan.tuned_shared_elem = tuned_shared_elem;
    plan.regs_per_thread = regs;
    plan.shared_bytes_per_block = plan.shared_bytes_per_block.max(shared_bytes);
    for (op, t) in reductions {
        plan = plan.with_reduction(op, t);
    }
    plan.reduce_strategy =
        ReduceStrategy::TwoLevelTree { partials_in_shared: hints.partials_in_shared && opts.honor_hints };
    for a in private_arrays {
        plan = plan.with_private(a, expansion);
    }
    for (a, sp) in placement {
        plan = plan.with_placement(a, sp);
    }
    plan.finalize();
    // Compile the body eagerly while the plan is hot: the sweep's compile
    // memoization shares lowered plans (and this cache, through its `Arc`)
    // across tuning points, and `retarget_block_geometry` re-points
    // geometry without invalidating the geometry-independent stream. The
    // native closures depend on the warp width, so the first launch that
    // executes builds them.
    if acceval_ir::interp::gpu::engine() != acceval_ir::interp::gpu::Engine::Tree {
        let _ = plan.engine_cache.get_or_compile(prog, &plan);
    }
    Ok(plan)
}

/// Re-point compiled kernels at a different launch geometry without
/// re-lowering.
///
/// Sound because the tuning point's block geometry enters lowering in
/// exactly two places, both recorded as provenance by [`lower_region`]:
/// the 1-D unhinted block shape (`block_from_tuning`) and the footprint of
/// a hint-placed shared tile (`tuned_shared_elem`). Every *other* tuning
/// knob (`loop_swap`, `transpose_expansion`, `caching`, `tiling`) changes
/// the lowering itself and therefore must be part of any compile-cache key
/// (see [`TuningPoint::lowering_basis`]).
pub fn retarget_block_geometry(kernels: &mut [KernelPlan], tuning: &TuningPoint) {
    for k in kernels {
        if k.block_from_tuning {
            k.block = (tuning.block_x * tuning.block_y.max(1), 1);
        }
        if let Some(elem) = k.tuned_shared_elem {
            // The recorded provenance guarantees the whole footprint was one
            // geometry-derived tile term; recompute it wholesale.
            k.shared_bytes_per_block = (tuning.block_x + 2) * (tuning.block_y + 2) * elem;
        }
    }
}

fn mk_axis(var: ScalarId, lo: &Expr, hi: &Expr, step: &Expr) -> ParAxis {
    // count = ceil((hi - lo)/step); for the common step=1 just (hi - lo).
    let count = if matches!(step, Expr::I(1)) {
        hi.clone() - lo.clone()
    } else {
        (hi.clone() - lo.clone() + step.clone() - Expr::I(1)) / step.clone()
    };
    axis_from(var, lo.clone(), count, step.clone())
}

/// Is interchanging the 2-deep nest profitable for coalescing?
fn swap_profitable(prog: &Program, loop_stmt: &Stmt, env: &[Value]) -> bool {
    let Stmt::For { var, body, .. } = loop_stmt else {
        return false;
    };
    if body.len() != 1 {
        return false;
    }
    let Stmt::For { var: v2, lo, hi, step, body: inner, .. } = &body[0] else {
        return false;
    };
    if lo.uses_var(*var) || hi.uses_var(*var) || step.uses_var(*var) {
        return false; // not interchangeable
    }
    let outer = coalesced_fraction(prog, inner, *var, env);
    let inner_f = coalesced_fraction(prog, inner, *v2, env);
    inner_f > outer + 0.25
}

fn contains_critical(body: &[Stmt]) -> bool {
    let mut found = false;
    acceval_ir::stmt::visit_stmts(body, &mut |s| {
        if matches!(s, Stmt::Critical { .. }) {
            found = true;
        }
    });
    found
}

/// Replace every `critical { b }` with `b` (after reduction conversion).
fn strip_critical(body: &mut Vec<Stmt>) {
    let mut i = 0;
    while i < body.len() {
        for b in body[i].bodies_mut() {
            strip_critical(b);
        }
        if let Stmt::Critical { body: inner } = &mut body[i] {
            let inner = std::mem::take(inner);
            body.splice(i..=i, inner);
        } else {
            i += 1;
        }
    }
}

fn array_read_indirectly(body: &[Stmt], a: ArrayId) -> bool {
    // `a` is used and at least one access in the loop is through an index
    // load (irregular region) — the heuristic OpenMPC uses for texture.
    let mut uses = false;
    let mut indirect_anywhere = false;
    acceval_ir::stmt::visit_exprs(body, &mut |e| {
        if let Expr::Load { array, index, .. } = e {
            if *array == a {
                uses = true;
                if index.iter().any(|i| i.has_load()) {
                    indirect_anywhere = true;
                }
            }
        }
    });
    uses && indirect_anywhere
}

fn load_sites_of(body: &[Stmt], a: ArrayId) -> usize {
    let mut n = 0;
    acceval_ir::stmt::visit_exprs(body, &mut |e| {
        if matches!(e, Expr::Load { array, .. } if *array == a) {
            n += 1;
        }
    });
    n
}

/// Lookup table of hints per region label.
pub type HintMap = HashMap<String, RegionHints>;

/// The lowering behaviour of a hand-written CUDA programmer: everything the
/// models can do, plus explicit hints (shared-memory reduction partials,
/// register-allocated private arrays, hand-picked blocks) are honored.
pub fn manual_lowering() -> LoweringOptions {
    LoweringOptions {
        default_expansion: acceval_ir::kernel::Expansion::ColumnWise,
        scalar_reductions: ScalarRedSource::Both,
        array_reductions: true,
        auto_loop_swap: true,
        two_d_mapping: true,
        auto_tile_2d: true,
        auto_caching: true,
        honor_hints: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acceval_ir::builder::*;
    use acceval_ir::expr::{ld, v};
    use acceval_ir::types::RegionId;

    fn stencil_prog() -> Program {
        let mut pb = ProgramBuilder::new("p");
        let n = pb.iscalar("n");
        let i = pb.iscalar("i");
        let j = pb.iscalar("j");
        let _s = pb.fscalar("s");
        let a = pb.farray("a", vec![v(n), v(n)]);
        let b = pb.farray("b", vec![v(n), v(n)]);
        let _ = (i, j, a, b);
        pb.main(vec![]);
        pb.build()
    }

    fn env(p: &Program, n: i64) -> Vec<Value> {
        let mut e: Vec<Value> =
            p.scalars.iter().map(|d| if d.is_float { Value::F(1.0) } else { Value::I(1) }).collect();
        e[p.scalar_named("n").0 as usize] = Value::I(n);
        e
    }

    fn region_2d(p: &Program, inner_par: bool) -> ParallelRegion {
        let (n, i, j, a, b) =
            (p.scalar_named("n"), p.scalar_named("i"), p.scalar_named("j"), p.array_named("a"), p.array_named("b"));
        let body = vec![store(
            b,
            vec![v(i), v(j)],
            ld(a, vec![v(i) - 1i64, v(j)]) + ld(a, vec![v(i) + 1i64, v(j)]) + ld(a, vec![v(i), v(j)]),
        )];
        let inner = if inner_par { pfor(j, 1i64, v(n) - 1i64, body) } else { sfor(j, 1i64, v(n) - 1i64, body) };
        ParallelRegion {
            id: RegionId(0),
            label: "stencil".into(),
            body: vec![pfor(i, 1i64, v(n) - 1i64, vec![inner])],
            private: vec![],
        }
    }

    fn opts_pgi() -> LoweringOptions {
        crate::pgi::PgiAccelerator.lowering()
    }

    fn opts_openmpc() -> LoweringOptions {
        crate::openmpc::OpenMpc.lowering()
    }

    use crate::ModelCompiler;

    #[test]
    fn two_d_mapping_puts_inner_on_x() {
        let mut p = stencil_prog();
        let e = env(&p, 128);
        let r = region_2d(&p, true);
        let ks = lower_region(&mut p, &r, &opts_pgi(), &RegionHints::default(), &TuningPoint::default(), &e).unwrap();
        assert_eq!(ks.len(), 1);
        let k = &ks[0];
        assert_eq!(k.axes.len(), 2);
        assert_eq!(k.axes[0].var, p.scalar_named("j")); // inner on x
        assert_eq!(k.block, (16, 16));
        // PGI auto-tiles the reused read array.
        assert!(matches!(k.space_of(p.array_named("a")), MemSpace::SharedTiled { .. }));
    }

    #[test]
    fn openmpc_collapses_for_coalescing() {
        let mut p = stencil_prog();
        let e = env(&p, 128);
        // outer-parallel loop with seq inner: stride-n for i, unit for j.
        // OpenMPC fixes coalescing by collapsing the perfect nest (keeping
        // the full n^2 iteration space as threads, inner index fastest).
        let r = region_2d(&p, false);
        let ks =
            lower_region(&mut p, &r, &opts_openmpc(), &RegionHints::default(), &TuningPoint::default(), &e).unwrap();
        let k = &ks[0];
        assert_eq!(k.axes.len(), 1);
        let count = acceval_ir::interp::eval_pure(&k.axes[0].count, &e).as_i();
        assert_eq!(count, 126 * 126, "collapsed iteration space");
        // forcing the swap explicitly still interchanges
        let t = TuningPoint { loop_swap: Some(true), ..Default::default() };
        let ks2 = lower_region(&mut p, &r, &opts_openmpc(), &RegionHints::default(), &t, &e).unwrap();
        assert_eq!(ks2[0].axes[0].var, p.scalar_named("j"));
    }

    #[test]
    fn swap_can_be_forced_off() {
        let mut p = stencil_prog();
        let e = env(&p, 128);
        let r = region_2d(&p, false);
        let t = TuningPoint { loop_swap: Some(false), ..Default::default() };
        let ks = lower_region(&mut p, &r, &opts_openmpc(), &RegionHints::default(), &t, &e).unwrap();
        assert_eq!(ks[0].axes[0].var, p.scalar_named("i"));
    }

    #[test]
    fn critical_rejected_without_array_reduction_support() {
        let mut p = stencil_prog();
        let e = env(&p, 64);
        let (n, i, a) = (p.scalar_named("n"), p.scalar_named("i"), p.array_named("a"));
        let r = ParallelRegion {
            id: RegionId(0),
            label: "crit".into(),
            body: vec![pfor(
                i,
                0i64,
                v(n),
                vec![critical(vec![store(
                    a,
                    vec![v(i) % 4i64, 0i64.into()],
                    ld(a, vec![v(i) % 4i64, 0i64.into()]) + 1.0,
                )])],
            )],
            private: vec![],
        };
        let err = lower_region(&mut p, &r, &opts_pgi(), &RegionHints::default(), &TuningPoint::default(), &e);
        assert!(err.is_err());
        // OpenMPC converts it.
        let ks =
            lower_region(&mut p, &r, &opts_openmpc(), &RegionHints::default(), &TuningPoint::default(), &e).unwrap();
        assert_eq!(ks[0].reductions.len(), 1);
        assert!(ks[0].private_arrays.iter().any(|pa| pa.array == a));
    }

    #[test]
    fn collapse_clause_flattens() {
        let mut p = stencil_prog();
        let e = env(&p, 64);
        let (n, i, j, b) = (p.scalar_named("n"), p.scalar_named("i"), p.scalar_named("j"), p.array_named("b"));
        let r = ParallelRegion {
            id: RegionId(0),
            label: "coll".into(),
            body: vec![pfor_with(
                i,
                0i64,
                v(n),
                vec![sfor(j, 0i64, v(n), vec![store(b, vec![v(i), v(j)], 1.0)])],
                acceval_ir::stmt::ParInfo { collapse: 2, ..Default::default() },
            )],
            private: vec![],
        };
        let ks =
            lower_region(&mut p, &r, &opts_openmpc(), &RegionHints::default(), &TuningPoint::default(), &e).unwrap();
        assert_eq!(ks[0].axes.len(), 1);
        // collapsed loop iterates n*n
        let count = acceval_ir::interp::eval_pure(&ks[0].axes[0].count, &env(&p, 64));
        assert_eq!(count.as_i(), 64 * 64);
    }
}
