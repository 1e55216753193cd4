//! Chunked block-parallel launches must be observationally identical to the
//! serial block walk: same buffer bits, same scalar bits (reduction fold
//! order included), same evidence totals, same priced cost — at any worker
//! count. `ACCEVAL_LAUNCH_PAR` is a speed knob, never a results knob.

mod common;

use std::sync::Mutex;

use acceval_ir::builder::*;
use acceval_ir::expr::{ld, v};
use acceval_ir::interp::gpu::{
    env_from_dataset, launch_with_engine, set_launch_par_override, upload_all, DeviceState, Engine, LaunchPar,
    LaunchResult,
};
use acceval_ir::interp::launch_cache::{set_launch_cache_override, LaunchCache};
use acceval_ir::kernel::{axis, KernelPlan};
use acceval_ir::program::{DataSet, HostData, Program};
use acceval_ir::types::{ReduceOp, Value, VarRef};
use acceval_sim::DeviceConfig;
use common::{assert_states_bit_equal, dna_kernel, finalized, fixture, GENES};
use proptest::prelude::*;

/// The parallelism and launch-cache overrides and `RAYON_NUM_THREADS` are
/// process-global; serialize every test that flips them.
static PAR_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with intra-launch parallelism pinned to `par` and the worker
/// count pinned to `threads`, restoring the defaults on exit (also on
/// panic, so one failing test can't poison the setting for the others).
/// The launch cache is off: the serial and chunked launches share a key,
/// and a replay would compare the serial run with itself.
fn with_par<T>(par: LaunchPar, threads: usize, f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            set_launch_par_override(None);
            set_launch_cache_override(None);
            std::env::remove_var("RAYON_NUM_THREADS");
        }
    }
    let _guard = PAR_LOCK.lock().unwrap();
    let _reset = Reset;
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    set_launch_par_override(Some(par));
    set_launch_cache_override(Some(LaunchCache::Off));
    f()
}

/// Launch `plan` on the default engine from a fresh device/scalar state.
fn run_one(p: &Program, ds: &DataSet, plan: &KernelPlan) -> (DeviceState, Vec<Value>, LaunchResult) {
    let cfg = DeviceConfig::tesla_m2090();
    let host = HostData::materialize(p, ds);
    let mut dev = DeviceState::new(p, &cfg);
    upload_all(p, &mut dev, &host);
    let mut scal = env_from_dataset(p, ds);
    let r = launch_with_engine(p, plan, &mut dev, &mut scal, &cfg, Engine::Bytecode);
    (dev, scal, r)
}

/// Launch serially and chunked at several worker counts; every observable
/// must match bit-exact.
fn assert_parallel_agrees(p: &Program, ds: &DataSet, plan: &KernelPlan) {
    let serial = with_par(LaunchPar::Off, 1, || run_one(p, ds, plan));
    for threads in [2usize, 3, 8] {
        let chunked = with_par(LaunchPar::On, threads, || run_one(p, ds, plan));
        assert_states_bit_equal(&format!("kernel {} @ {threads} workers vs serial", plan.name), &serial, &chunked);
    }
}

/// An eligible streaming kernel: the chunked path must engage (and agree).
#[test]
fn streaming_kernel_agrees_at_any_worker_count() {
    let (p, ds) = fixture(3000);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let body = vec![store(y, vec![v(i)], ld(x, vec![v(i)]) * 2.0 + ld(x, vec![(v(i) + 7i64) % v(n)]))];
    assert_parallel_agrees(&p, &ds, &finalized(KernelPlan::new("stream", vec![axis(i, v(n))], body)));
}

/// Scalar reductions journal per-lane partials and replay them at fold
/// time; the combined scalar must match the serial fold bit-for-bit.
#[test]
fn scalar_reduction_fold_is_order_exact() {
    let (p, ds) = fixture(2111);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let s = p.scalar_named("s");
    let x = p.array_named("x");
    for op in [ReduceOp::Add, ReduceOp::Max] {
        let body = vec![assign(s, ld(x, vec![v(i)]) * 1.0009765625)];
        let k = KernelPlan::new("red", vec![axis(i, v(n))], body).with_reduction(op, VarRef::Scalar(s));
        assert_parallel_agrees(&p, &ds, &finalized(k));
    }
}

/// A body that loads and stores the same array is ineligible for block
/// parallelism; the parallel setting must transparently stay serial and
/// agree anyway.
#[test]
fn hazard_body_stays_serial_and_agrees() {
    let (p, ds) = fixture(512);
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let x = p.array_named("x");
    let body =
        vec![sfor(j, 0i64, 3i64, vec![store(x, vec![v(i)], ld(x, vec![(v(i) + v(j) * 31i64) % v(n)]) * 0.5 + 1.0)])];
    assert_parallel_agrees(&p, &ds, &finalized(KernelPlan::new("hazard", vec![axis(i, v(n))], body)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized race-free bodies across block shapes: the chunked
    /// executor agrees with the serial walk warp-for-warp on stats.
    #[test]
    fn random_bodies_agree_chunked(
        dna in prop::collection::vec((0u8..GENES, 0i64..100), 1..8),
        n in 65i64..400,
        block in prop::sample::select(vec![32u32, 64, 128]),
    ) {
        let (p, ds) = fixture(n);
        let k = dna_kernel(&p, &dna, block);
        assert_parallel_agrees(&p, &ds, &k);
    }
}
