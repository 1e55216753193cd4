//! Shared fixture, random-body generator, traced launch helpers and
//! bit-equality assertions for the kernel-level suites (`engine_equiv`,
//! `native_equiv`, `opt_equiv`, `launch_cache`). Each suite uses a subset,
//! hence the `dead_code` allowance.
#![allow(dead_code)]

use std::sync::{Mutex, MutexGuard};

use acceval_ir::builder::*;
use acceval_ir::expr::{ld, v};
use acceval_ir::interp::gpu::{
    env_from_dataset, launch_traced_with_engine, upload_all, DeviceState, Engine, LaunchResult,
};
use acceval_ir::interp::launch_cache::{set_launch_cache_override, LaunchCache};
use acceval_ir::kernel::{axis, KernelPlan};
use acceval_ir::program::{DataSet, HostData, Program};
use acceval_ir::stmt::Stmt;
use acceval_ir::types::Value;
use acceval_sim::{Buffer, DeviceConfig, ElemType, Payload, RecordingSink};

/// Scalars n/i/j/s/t, `x[n]` (a ramp), `y[n]` (zeroes) and an 8-element
/// scratch array `q`.
pub fn fixture(n: i64) -> (Program, DataSet) {
    let mut pb = ProgramBuilder::new("fixture");
    let nn = pb.iscalar("n");
    let _i = pb.iscalar("i");
    let _j = pb.iscalar("j");
    let _s = pb.fscalar("s");
    let _t = pb.fscalar("t");
    let x = pb.farray("x", vec![v(nn)]);
    let _y = pb.farray("y", vec![v(nn)]);
    let _q = pb.farray("q", vec![8i64.into()]);
    pb.main(vec![]);
    let p = pb.build();
    let ds = DataSet {
        scalars: vec![(nn, Value::I(n))],
        arrays: vec![(x, Buffer::from_f64(ElemType::F64, (0..n).map(|k| (k % 89) as f64 * 0.75 + 1.0).collect()))],
        label: "fixture".into(),
    };
    (p, ds)
}

pub fn finalized(mut k: KernelPlan) -> KernelPlan {
    k.finalize();
    k
}

/// Genes `0..UNIFORM_GENES` keep a body eligible for representative-block
/// pricing (affine loads at top level, launch-uniform loop bounds, no
/// branches); the rest do not.
pub const UNIFORM_GENES: u8 = 3;

/// Distinct genes [`dna_kernel`] understands (larger values wrap).
pub const GENES: u8 = 8;

/// Build a race-free kernel body on [`fixture`]'s program from a DNA
/// vector, with `block` threads per block: each gene appends one statement
/// that reads `x` and writes only `y[i]` or thread-local scalars, so no
/// schedule (lockstep, lane-serial, replayed) can change the outcome.
pub fn dna_kernel(p: &Program, dna: &[(u8, i64)], block: u32) -> KernelPlan {
    let n = p.scalar_named("n");
    let i = p.scalar_named("i");
    let j = p.scalar_named("j");
    let s = p.scalar_named("s");
    let x = p.array_named("x");
    let y = p.array_named("y");
    let mut body: Vec<Stmt> = vec![assign(s, ld(x, vec![v(i)]))];
    for &(op, c) in dna {
        let c = c.rem_euclid(13) + 1;
        let stmt = match op % GENES {
            0 => assign(s, (v(s) * 0.75).max(v(i).to_f() / c as f64)),
            1 => assign(s, v(s) + ld(x, vec![v(n) - 1i64 - v(i)]) * 0.25),
            2 => sfor(j, 0i64, c, vec![assign(s, v(s) * 0.5 + v(j).to_f())]),
            3 => assign(s, v(s) + ld(x, vec![(v(i) * c) % v(n)])),
            4 => iff((v(i) % c).eq_(0i64), vec![assign(s, v(s).sqrt() + 1.0)]),
            5 => sfor(j, 0i64, c, vec![assign(s, v(s) + ld(x, vec![(v(i) + v(j)) % v(n)]) * 0.125)]),
            6 => if_else(
                v(s).lt(c as f64),
                vec![assign(s, v(s) + 2.0)],
                vec![assign(s, v(s) - ld(x, vec![v(i) % v(n)]))],
            ),
            _ => assign(s, (v(i) % c).lt(c / 2 + 1).select(v(s) * 1.25, v(s).abs() + 0.5)),
        };
        body.push(stmt);
    }
    body.push(store(y, vec![v(i)], v(s)));
    let mut k = KernelPlan::new("dna", vec![axis(i, v(n))], body);
    k.block = (block, 1);
    finalized(k)
}

pub fn buffers_bit_equal(a: &Buffer, b: &Buffer) -> bool {
    match (&a.data, &b.data) {
        (Payload::F(x), Payload::F(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Payload::I(x), Payload::I(y)) => x == y,
        _ => false,
    }
}

pub fn values_bit_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Assert two post-launch states are bit-identical: every device buffer,
/// every scalar, the evidence totals (issue cycles bitwise), the footprint,
/// the active-thread count, and the priced cost.
pub fn assert_states_bit_equal(
    tag: &str,
    (da, sa, ra): &(DeviceState, Vec<Value>, LaunchResult),
    (db, sb, rb): &(DeviceState, Vec<Value>, LaunchResult),
) {
    for (i, (x, y)) in da.bufs.iter().zip(db.bufs.iter()).enumerate() {
        match (x, y) {
            (None, None) => {}
            (Some(x), Some(y)) => assert!(buffers_bit_equal(x, y), "{tag}: buffer {i} diverges"),
            _ => panic!("{tag}: buffer {i} allocated on one side only"),
        }
    }
    for (i, (x, y)) in sa.iter().zip(sb.iter()).enumerate() {
        assert!(values_bit_equal(x, y), "{tag}: scalar {i} diverges: {x:?} vs {y:?}");
    }
    assert_eq!(ra.totals, rb.totals, "{tag}: totals diverge");
    assert_eq!(ra.totals.issue_cycles.to_bits(), rb.totals.issue_cycles.to_bits(), "{tag}: issue cycles diverge");
    assert_eq!(ra.footprint, rb.footprint, "{tag}: footprint diverges");
    assert_eq!(ra.active_threads, rb.active_threads, "{tag}: active threads diverge");
    assert_eq!(ra.cost.time_secs.to_bits(), rb.cost.time_secs.to_bits(), "{tag}: priced time diverges");
    assert_eq!(ra.cost, rb.cost, "{tag}: cost breakdown diverges");
}

/// A launch's post-launch state and its trace events, rendered with `{:?}`.
pub type Run = ((DeviceState, Vec<Value>, LaunchResult), String);

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// The launch-cache override is process-global; hold this guard across each
/// comparison so parallel tests can't flip it mid-run.
pub fn override_lock() -> MutexGuard<'static, ()> {
    OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `plan` on `eng` under `cfg` from a fresh device/scalar state,
/// recording the trace.
pub fn run_on(p: &Program, ds: &DataSet, plan: &KernelPlan, eng: Engine, cfg: &DeviceConfig) -> Run {
    let host = HostData::materialize(p, ds);
    let mut dev = DeviceState::new(p, cfg);
    upload_all(p, &mut dev, &host);
    let mut scal = env_from_dataset(p, ds);
    let mut sink = RecordingSink::new();
    let r = launch_traced_with_engine(p, plan, &mut dev, &mut scal, cfg, &mut sink, eng);
    ((dev, scal, r), format!("{:?}", sink.take()))
}

/// [`run_on`] the device from `ACCEVAL_DEVICE` (the paper's M2090 when
/// unset): CI's device-matrix job reruns the equivalence suites once per
/// generation preset, so the guarantees cover post-Fermi coalescing, DP
/// issue factors, and the unified-L1 read path, not just the default
/// config.
pub fn run_one(p: &Program, ds: &DataSet, plan: &KernelPlan, eng: Engine) -> Run {
    run_on(p, ds, plan, eng, &DeviceConfig::from_env())
}

/// [`run_on`] with the launch cache off, so the launch executes on the
/// chosen engine instead of replaying (or capturing) an effect. The caller
/// holds [`override_lock`].
pub fn run_uncached_on(p: &Program, ds: &DataSet, plan: &KernelPlan, eng: Engine, cfg: &DeviceConfig) -> Run {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            set_launch_cache_override(None);
        }
    }
    let _reset = Reset;
    set_launch_cache_override(Some(LaunchCache::Off));
    run_on(p, ds, plan, eng, cfg)
}

/// [`run_uncached_on`] the device from `ACCEVAL_DEVICE`.
pub fn run_uncached(p: &Program, ds: &DataSet, plan: &KernelPlan, eng: Engine) -> Run {
    run_uncached_on(p, ds, plan, eng, &DeviceConfig::from_env())
}

/// Assert two runs are bit-identical, trace events included.
pub fn assert_runs_agree(tag: &str, (state_a, trace_a): &Run, (state_b, trace_b): &Run) {
    assert_states_bit_equal(tag, state_a, state_b);
    assert_eq!(trace_a, trace_b, "{tag}: trace events diverge");
}
