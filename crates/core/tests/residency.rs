//! Focused tests of the runtime's transfer planning: residency tracking,
//! pristine-zero elision, update directives, host/device synchronization,
//! and the per-policy transfer counts.

use acceval_benchmarks::Port;
use acceval_ir::builder::*;
use acceval_ir::expr::{ld, v};
use acceval_ir::program::{DataSet, Program};
use acceval_ir::stmt::{DataClauses, UpdateDir};
use acceval_ir::types::Value;
use acceval_models::lower::HintMap;
use acceval_models::{DataPolicy, ModelKind};
use acceval_sim::{Dir, MachineConfig, TraceEvent};

use acceval::{compile_port, run_gpu_program};

/// x (dataset-provided) is read by two kernel regions in a host loop; y is
/// scratch the kernels produce and the host never touches.
fn two_region_program(host_touches_x: bool) -> Program {
    let mut pb = ProgramBuilder::new("t");
    let n = pb.iscalar("n");
    let it = pb.iscalar("it");
    let i = pb.iscalar("i");
    let x = pb.farray("x", vec![v(n)]);
    let y = pb.farray("y", vec![v(n)]);
    let mut loop_body = vec![
        parallel("t.r1", vec![pfor(i, 0i64, v(n), vec![store(y, vec![v(i)], ld(x, vec![v(i)]) + 1.0)])]),
        parallel("t.r2", vec![pfor(i, 0i64, v(n), vec![store(x, vec![v(i)], ld(y, vec![v(i)]) * 0.5)])]),
    ];
    if host_touches_x {
        // host reads and rewrites one element between regions
        loop_body.push(store(x, vec![0i64.into()], ld(x, vec![0i64.into()]) + 1.0));
    }
    pb.main(vec![sfor(it, 0i64, 4i64, loop_body)]);
    pb.outputs(vec![x]);
    pb.build()
}

fn make_port(p: Program) -> Port {
    Port { program: p, hints: HintMap::new(), changes: vec![] }
}

fn dataset(p: &Program, n: i64) -> DataSet {
    DataSet {
        scalars: vec![(p.scalar_named("n"), Value::I(n))],
        arrays: vec![(
            p.array_named("x"),
            acceval_sim::Buffer::from_f64(acceval_sim::ElemType::F64, (0..n).map(|k| k as f64).collect()),
        )],
        label: "t".into(),
    }
}

fn transfer_count(events: &[TraceEvent], array: &str, dir: Dir) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Transfer { array: a, dir: d, .. } if a == array && *d == dir))
        .count()
}

#[test]
fn automatic_policy_moves_each_array_once() {
    let p = two_region_program(false);
    let port = make_port(p);
    let ds = dataset(&port.program, 256);
    let mut c = compile_port(&port, ModelKind::OpenMpc, &ds, None);
    c.policy = DataPolicy::Automatic;
    let run = run_gpu_program(&c, &ds, &MachineConfig::keeneland_node()).expect("gpu run");
    // x: one upload, one final download for the output; y: pristine scratch,
    // no transfers at all.
    assert_eq!(transfer_count(&run.events, "x", Dir::HostToDevice), 1);
    assert_eq!(transfer_count(&run.events, "x", Dir::DeviceToHost), 1);
    assert_eq!(transfer_count(&run.events, "y", Dir::HostToDevice), 0);
    assert_eq!(transfer_count(&run.events, "y", Dir::DeviceToHost), 0);
}

#[test]
fn naive_policy_transfers_every_region() {
    let p = two_region_program(false);
    let port = make_port(p);
    let ds = dataset(&port.program, 256);
    let mut c = compile_port(&port, ModelKind::OpenMpc, &ds, None);
    c.policy = DataPolicy::PerRegion;
    let run = run_gpu_program(&c, &ds, &MachineConfig::keeneland_node()).expect("gpu run");
    // 4 iterations x 2 regions, x is read or written by both.
    assert!(transfer_count(&run.events, "x", Dir::HostToDevice) >= 4, "naive should re-upload x repeatedly");
    assert!(transfer_count(&run.events, "x", Dir::DeviceToHost) >= 4);
}

#[test]
fn host_touch_forces_resync() {
    let p = two_region_program(true);
    let port = make_port(p);
    let ds = dataset(&port.program, 256);
    let mut c = compile_port(&port, ModelKind::OpenMpc, &ds, None);
    c.policy = DataPolicy::Automatic;
    let cfg = MachineConfig::keeneland_node();
    let run = run_gpu_program(&c, &ds, &cfg).expect("gpu run");
    // the host store to x[0] each iteration forces D2H (read) + H2D (next use)
    assert!(transfer_count(&run.events, "x", Dir::HostToDevice) >= 4);
    assert!(transfer_count(&run.events, "x", Dir::DeviceToHost) >= 4);

    // ... and the results must still be right: compare with sequential run.
    let oracle = acceval_ir::interp::cpu::run_cpu(&port.program, &ds, &cfg.host);
    let xi = port.program.array_named("x").0 as usize;
    assert!(oracle.data.bufs[xi].max_abs_diff(&run.data.bufs[xi]) < 1e-12);
}

#[test]
fn update_directives_force_transfers() {
    let mut pb = ProgramBuilder::new("u");
    let n = pb.iscalar("n");
    let i = pb.iscalar("i");
    let x = pb.farray("x", vec![v(n)]);
    pb.main(vec![data_region(
        DataClauses { copyin: vec![x], copyout: vec![x], copy: vec![], create: vec![] },
        vec![
            parallel("u.r", vec![pfor(i, 0i64, v(n), vec![store(x, vec![v(i)], ld(x, vec![v(i)]) + 1.0)])]),
            update(vec![x], UpdateDir::Host),
            update(vec![x], UpdateDir::Device),
            parallel("u.r2", vec![pfor(i, 0i64, v(n), vec![store(x, vec![v(i)], ld(x, vec![v(i)]) * 2.0)])]),
        ],
    )]);
    pb.outputs(vec![x]);
    let p = pb.build();
    let port = make_port(p);
    let ds = dataset(&port.program, 128);
    let c = compile_port(&port, ModelKind::PgiAccelerator, &ds, None);
    assert_eq!(c.policy, DataPolicy::DataRegionScoped);
    let run = run_gpu_program(&c, &ds, &MachineConfig::keeneland_node()).expect("gpu run");
    // copyin + explicit update-device = 2 uploads; update-host + copyout = 2 downloads
    assert_eq!(transfer_count(&run.events, "x", Dir::HostToDevice), 2);
    assert_eq!(transfer_count(&run.events, "x", Dir::DeviceToHost), 2);
}

#[test]
fn untranslated_regions_run_on_host_with_sync() {
    // A region with a critical section that is NOT a reduction: every model
    // leaves it on the host; the runtime must keep data coherent.
    let mut pb = ProgramBuilder::new("h");
    let n = pb.iscalar("n");
    let i = pb.iscalar("i");
    let x = pb.farray("x", vec![v(n)]);
    let y = pb.farray("y", vec![v(n)]);
    pb.main(vec![
        parallel("h.gpu", vec![pfor(i, 0i64, v(n), vec![store(y, vec![v(i)], ld(x, vec![v(i)]) + 1.0)])]),
        parallel(
            "h.cpu",
            vec![pfor(i, 0i64, v(n), vec![critical(vec![store(x, vec![v(i)], ld(y, vec![v(i)]) * 3.0)])])],
        ),
        parallel("h.gpu2", vec![pfor(i, 0i64, v(n), vec![store(y, vec![v(i)], ld(x, vec![v(i)]) - 1.0)])]),
    ]);
    pb.outputs(vec![y]);
    let p = pb.build();
    let port = make_port(p);
    let ds = dataset(&port.program, 64);
    let cfg = MachineConfig::keeneland_node();
    let c = compile_port(&port, ModelKind::OpenAcc, &ds, None);
    assert_eq!(c.unsupported.len(), 1, "the critical region stays on the host");
    let run = run_gpu_program(&c, &ds, &cfg).expect("gpu run");
    let oracle = acceval_ir::interp::cpu::run_cpu(&port.program, &ds, &cfg.host);
    let yi = port.program.array_named("y").0 as usize;
    assert!(oracle.data.bufs[yi].max_abs_diff(&run.data.bufs[yi]) < 1e-12);
    // y crossed the bus: GPU wrote it, host region read it, GPU read it again
    assert!(transfer_count(&run.events, "y", Dir::DeviceToHost) >= 1);
    assert!(transfer_count(&run.events, "y", Dir::HostToDevice) >= 1);
}
