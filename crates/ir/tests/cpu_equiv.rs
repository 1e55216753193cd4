//! CPU-oracle equivalence: the compiled sequential executor behind
//! `run_cpu` must reproduce the reference tree walker (`Interp<CpuMachine>`)
//! bit for bit on every `CpuRun` field — cycles and seconds bits, op and
//! access counts, every buffer, and every scalar including its tag.
//!
//! Covered: every benchmark's original program and every model's port at
//! `Scale::Test`, plus handcrafted programs for each case the compiler's
//! slot typing must get right. The `#[ignore]`d paper-scale check runs in
//! CI's artifact-drift job: `cargo test --release -p acceval-ir --test
//! cpu_equiv -- --ignored`.

use std::time::Instant;

use acceval_benchmarks::{all_benchmarks, Scale};
use acceval_ir::builder::*;
use acceval_ir::expr::{fc, ic, ld, v, Expr, Intrin};
use acceval_ir::interp::cpu::{run_cpu, CpuMachine, CpuRun};
use acceval_ir::interp::Interp;
use acceval_ir::program::{DataSet, HostData, Program};
use acceval_ir::stmt::{DataClauses, UpdateDir};
use acceval_ir::types::{FuncId, Value};
use acceval_models::ModelKind;
use acceval_sim::{Buffer, ElemType, HostConfig, Payload};

/// The reference: tree-walk `prog` through `Interp<CpuMachine>`.
fn tree(prog: &Program, ds: &DataSet, cfg: &HostConfig) -> CpuRun {
    let m = CpuMachine::new(cfg, HostData::materialize(prog, ds));
    let mut it = Interp::new(prog, m, ds);
    it.run(&prog.main);
    let cycles = it.m.cycles;
    CpuRun {
        secs: cfg.cycles_to_secs(cycles),
        cycles,
        ops: it.m.ops,
        accesses: it.m.accesses,
        scalars: it.scal,
        data: it.m.data,
    }
}

fn same_value(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
        (Value::I(x), Value::I(y)) => x == y,
        (Value::B(x), Value::B(y)) => x == y,
        _ => false,
    }
}

fn same_buffer(a: &Buffer, b: &Buffer) -> bool {
    a.elem == b.elem
        && match (&a.data, &b.data) {
            (Payload::F(x), Payload::F(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
            }
            (Payload::I(x), Payload::I(y)) => x == y,
            _ => false,
        }
}

fn assert_identical(what: &str, prog: &Program, want: &CpuRun, got: &CpuRun) {
    assert_eq!(want.cycles.to_bits(), got.cycles.to_bits(), "{what}: cycles {} vs {}", want.cycles, got.cycles);
    assert_eq!(want.secs.to_bits(), got.secs.to_bits(), "{what}: secs");
    assert_eq!(want.ops, got.ops, "{what}: ops");
    assert_eq!(want.accesses, got.accesses, "{what}: accesses");
    assert_eq!(want.data.bufs.len(), got.data.bufs.len(), "{what}: buffer count");
    for (i, (a, b)) in want.data.bufs.iter().zip(&got.data.bufs).enumerate() {
        assert!(same_buffer(a, b), "{what}: buffer {} differs", prog.arrays[i].name);
    }
    assert_eq!(want.scalars.len(), got.scalars.len(), "{what}: scalar count");
    for (i, (a, b)) in want.scalars.iter().zip(&got.scalars).enumerate() {
        assert!(same_value(*a, *b), "{what}: scalar {} is {a:?} vs {b:?}", prog.scalars[i].name);
    }
}

/// Run both executors and compare; returns the (shared) result.
fn check(what: &str, prog: &Program, ds: &DataSet) -> CpuRun {
    let cfg = HostConfig::xeon_x5660();
    let want = tree(prog, ds, &cfg);
    let got = run_cpu(prog, ds, &cfg);
    assert_identical(what, prog, &want, &got);
    got
}

const ALL_MODELS: [ModelKind; 7] = [
    ModelKind::PgiAccelerator,
    ModelKind::OpenAcc,
    ModelKind::Hmpp,
    ModelKind::OpenMpc,
    ModelKind::RStream,
    ModelKind::HiCuda,
    ModelKind::ManualCuda,
];

#[test]
fn every_original_program_matches() {
    for b in all_benchmarks() {
        let ds = b.dataset(Scale::Test);
        check(b.spec().name, &b.original(), &ds);
    }
}

#[test]
fn every_port_program_matches() {
    for b in all_benchmarks() {
        let ds = b.dataset(Scale::Test);
        for kind in ALL_MODELS {
            let port = b.port(kind);
            check(&format!("{} {kind:?}", b.spec().name), &port.program, &ds);
        }
    }
}

/// Every benchmark at paper scale: compiled against tree-walked, with the
/// per-benchmark oracle seconds of both printed for the record.
#[test]
#[ignore = "paper scale: about 15 s tree-walked plus 7 s compiled on 2 cores; run with --ignored"]
fn paper_scale_oracles_match() {
    let cfg = HostConfig::xeon_x5660();
    let (mut tree_total, mut compiled_total) = (0.0, 0.0);
    for b in all_benchmarks() {
        let ds = b.dataset(Scale::Paper);
        let prog = b.original();
        let t0 = Instant::now();
        let want = tree(&prog, &ds, &cfg);
        let t1 = Instant::now();
        let got = run_cpu(&prog, &ds, &cfg);
        let t2 = Instant::now();
        assert_identical(b.spec().name, &prog, &want, &got);
        let (tw, cw) = ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
        tree_total += tw;
        compiled_total += cw;
        eprintln!("{:8} tree-walked {tw:7.3} s  compiled {cw:7.3} s", b.spec().name);
    }
    eprintln!("{:8} tree-walked {tree_total:7.3} s  compiled {compiled_total:7.3} s", "total");
}

// ---------------------------------------------------------------------------
// Handcrafted programs: one per typing case.
// ---------------------------------------------------------------------------

fn intrin(f: Intrin, x: Expr) -> Expr {
    Expr::Intrin(f, vec![x])
}

fn ds_with(scalars: Vec<(acceval_ir::types::ScalarId, Value)>) -> DataSet {
    DataSet { scalars, arrays: vec![], label: "t".into() }
}

#[test]
fn float_assigned_to_int_declared_scalar() {
    let mut pb = ProgramBuilder::new("f2i");
    let x = pb.iscalar("x");
    let i = pb.iscalar("i");
    let a = pb.farray("a", vec![ic(4)]);
    pb.main(vec![
        assign(x, 3i64),
        sfor(i, 0i64, 4i64, vec![store(a, vec![v(i)], v(x) * 2i64)]),
        // From here on the int-declared slot holds a float.
        assign(x, v(x) + 0.5),
        store(a, vec![ic(0)], v(x) * 2i64),
    ]);
    let r = check("f2i", &pb.build(), &DataSet::default());
    assert!(matches!(r.scalars[x.0 as usize], Value::F(f) if f == 3.5));
}

#[test]
fn bool_value_stored_in_int_slot() {
    let mut pb = ProgramBuilder::new("b2i");
    let flag = pb.iscalar("flag");
    let n = pb.iscalar("n");
    let a = pb.iarray("a", vec![ic(3)]);
    pb.main(vec![
        assign(flag, v(n).lt(5i64)),
        store(a, vec![ic(0)], v(flag) + 1i64),
        store(a, vec![ic(1)], v(flag).to_f() * 2.5),
        iff(v(flag), vec![store(a, vec![ic(2)], 7i64)]),
    ]);
    let p = pb.build();
    let r = check("b2i", &p, &ds_with(vec![(n, Value::I(2))]));
    assert!(matches!(r.scalars[flag.0 as usize], Value::B(true)));
}

#[test]
fn dataset_scalar_with_another_tag() {
    // `alpha` is declared float but the dataset supplies an integer, and
    // `n` is declared int but arrives as a float: each slot keeps the
    // dataset's tag, so arithmetic on it promotes accordingly.
    let mut pb = ProgramBuilder::new("dstag");
    let alpha = pb.fscalar("alpha");
    let n = pb.iscalar("n");
    let y = pb.fscalar("y");
    let q = pb.iscalar("q");
    // A bool from the dataset that only ever holds bools: a typed bool slot.
    let flag = pb.iscalar("flag");
    pb.main(vec![
        assign(y, v(alpha) * 3i64),
        assign(q, v(n) / 2i64),
        assign(alpha, v(alpha) + 1i64),
        assign(flag, v(flag).and(v(q).gt(1i64))),
        iff(v(flag), vec![assign(y, v(y) + 1.0)]),
    ]);
    let p = pb.build();
    let r = check("dstag", &p, &ds_with(vec![(alpha, Value::I(7)), (n, Value::F(9.0)), (flag, Value::B(true))]));
    assert!(matches!(r.scalars[flag.0 as usize], Value::B(true)));
    assert!(matches!(r.scalars[alpha.0 as usize], Value::I(8)));
    assert!(matches!(r.scalars[q.0 as usize], Value::F(f) if f == 4.5));
}

#[test]
fn call_parameters_bound_to_arguments_of_different_types() {
    let mut pb = ProgramBuilder::new("params");
    let p0 = pb.fscalar("p0");
    let p1 = pb.iscalar("p1");
    let acc = pb.fscalar("acc");
    let f = pb.func("f", vec![p0, p1], vec![], vec![assign(acc, v(acc) + v(p0) * v(p1))]);
    pb.main(vec![
        call(f, vec![fc(1.5), ic(2)], vec![]),
        // Int into the float-declared parameter, float into the int one.
        call(f, vec![ic(3), fc(0.25)], vec![]),
        // Arguments that read the parameters themselves (all evaluated
        // before any is bound).
        call(f, vec![v(p1), v(p0)], vec![]),
    ]);
    let p = pb.build();
    check("params", &p, &DataSet::default());
}

#[test]
fn formal_array_bound_to_float_then_int_actual() {
    let mut pb = ProgramBuilder::new("formals");
    let n = pb.iscalar("n");
    let i = pb.iscalar("i");
    let s = pb.iscalar("s");
    let fa = pb.farray("fa", vec![v(n)]);
    let ia = pb.iarray("ia", vec![v(n)]);
    let formal = pb.farray("formal", vec![v(n)]);
    let bump = pb.func(
        "bump",
        vec![],
        vec![formal],
        vec![sfor(
            i,
            0i64,
            v(n),
            vec![store(formal, vec![v(i)], ld(formal, vec![v(i)]) * 3i64 + 1i64), assign(s, ld(formal, vec![v(i)]))],
        )],
    );
    pb.main(vec![call(bump, vec![], vec![fa]), call(bump, vec![], vec![ia])]);
    let p = pb.build();
    let ds = DataSet {
        scalars: vec![(n, Value::I(5))],
        arrays: vec![
            (fa, Buffer::from_f64(ElemType::F64, vec![0.5, 1.5, 2.5, 3.5, 4.5])),
            (ia, Buffer::from_i64(ElemType::I32, vec![1, 2, 3, 4, 5])),
        ],
        label: "t".into(),
    };
    let r = check("formals", &p, &ds);
    // `s` last held an element of the int actual.
    assert!(matches!(r.scalars[s.0 as usize], Value::I(16)));
}

#[test]
fn select_with_branches_of_different_types() {
    let mut pb = ProgramBuilder::new("select");
    let i = pb.iscalar("i");
    let x = pb.iscalar("x");
    let y = pb.fscalar("y");
    let a = pb.farray("a", vec![ic(6)]);
    pb.main(vec![sfor(
        i,
        0i64,
        6i64,
        vec![
            assign(x, (v(i) % 2i64).eq_(0i64).select(v(i), fc(0.5))),
            assign(y, v(i).gt(2i64).select(v(i).lt(5i64), v(i) * 2i64)),
            store(a, vec![v(i)], v(x) + v(y)),
        ],
    )]);
    check("select", &pb.build(), &DataSet::default());
}

#[test]
fn neg_and_abs_of_a_bool() {
    let mut pb = ProgramBuilder::new("negabs");
    let t = pb.iscalar("t");
    // Int-declared destinations: if the compiler typed `-bool` or
    // `abs(bool)` as an integer, these slots would take the integer bank.
    let n_static = pb.iscalar("n_static");
    let m_static = pb.iscalar("m_static");
    let n_dyn = pb.iscalar("n_dyn");
    let m_dyn = pb.iscalar("m_dyn");
    let k = pb.iscalar("k");
    pb.main(vec![
        // A bool the compiler knows statically...
        assign(n_static, -(ic(1).lt(2i64))),
        assign(m_static, ic(3).gt(2i64).abs()),
        // ...and one behind a slot whose tag varies (int, then bool).
        assign(t, ic(1).lt(2i64)),
        assign(n_dyn, -v(t)),
        assign(m_dyn, v(t).abs()),
        assign(k, -(ic(4) * 2i64)),
        assign(k, v(k).abs() + (-fc(2.5)).abs().to_i()),
    ]);
    let r = check("negabs", &pb.build(), &DataSet::default());
    for s in [n_static, n_dyn] {
        assert!(matches!(r.scalars[s.0 as usize], Value::F(f) if f == -1.0));
    }
    for s in [m_static, m_dyn] {
        assert!(matches!(r.scalars[s.0 as usize], Value::F(f) if f == 1.0));
    }
}

#[test]
fn pow_while_critical_and_directives() {
    let mut pb = ProgramBuilder::new("misc");
    let it = pb.iscalar("it");
    let x = pb.fscalar("x");
    let i = pb.iscalar("i");
    let a = pb.farray("a", vec![ic(8)]);
    let b = pb.farray("b", vec![ic(8)]);
    pb.main(vec![
        assign(x, 1.0),
        wloop(
            v(it).lt(5i64),
            vec![assign(x, v(x).pow(1.5) + v(x).sqrt() + v(x).exp().log()), assign(it, v(it) + 1i64)],
        ),
        data_region(
            DataClauses { copyin: vec![a], copyout: vec![b], copy: vec![], create: vec![] },
            vec![
                parallel(
                    "r",
                    vec![
                        pfor(
                            i,
                            0i64,
                            8i64,
                            vec![
                                store(
                                    a,
                                    vec![v(i)],
                                    intrin(Intrin::Sin, v(i).to_f()) + intrin(Intrin::Cos, v(i).to_f()).floor(),
                                ),
                                critical(vec![store(b, vec![v(i)], ld(a, vec![v(i)]) + v(x))]),
                            ],
                        ),
                        barrier(),
                    ],
                ),
                update(vec![b], UpdateDir::Host),
            ],
        ),
    ]);
    check("misc", &pb.build(), &DataSet::default());
}

#[test]
fn nested_calls_resolve_through_the_callers_remap() {
    let mut pb = ProgramBuilder::new("nested");
    let n = pb.iscalar("n");
    let i = pb.iscalar("i");
    let k = pb.iscalar("k");
    let src = pb.farray("src", vec![v(n), ic(2)]);
    let dst = pb.farray("dst", vec![v(n), ic(2)]);
    let pa = pb.farray("pa", vec![v(n), ic(2)]);
    let pb_ = pb.farray("pb", vec![v(n), ic(2)]);
    let qa = pb.farray("qa", vec![v(n), ic(2)]);
    let inner = pb.func(
        "inner",
        vec![k],
        vec![qa],
        vec![sfor(
            i,
            0i64,
            v(n),
            vec![store(qa, vec![v(i), v(k)], ld(qa, vec![v(i), v(k)]) + ld(pa, vec![v(i), ic(0)]))],
        )],
    );
    let outer = pb.func(
        "outer",
        vec![],
        vec![pa, pb_],
        vec![call(inner, vec![ic(1)], vec![pb_]), call(inner, vec![ic(0)], vec![pa])],
    );
    pb.main(vec![call(outer, vec![], vec![src, dst]), call(outer, vec![], vec![dst, src])]);
    let p = pb.build();
    let ds = DataSet {
        scalars: vec![(n, Value::I(4))],
        arrays: vec![(src, Buffer::from_f64(ElemType::F64, (0..8).map(|x| x as f64 * 0.5).collect()))],
        label: "t".into(),
    };
    check("nested", &p, &ds);
}

#[test]
fn three_dimensional_and_dynamic_loop_variables() {
    // A rank-3 access takes the generic index path; a loop variable the body
    // reassigns to a float takes the dynamic loop path.
    let mut pb = ProgramBuilder::new("rank3");
    let i = pb.iscalar("i");
    let j = pb.iscalar("j");
    let a = pb.f32array("a", vec![ic(3), ic(4), ic(5)]);
    pb.main(vec![
        sfor(
            i,
            0i64,
            3i64,
            vec![sfor(j, 0i64, 4i64, vec![store(a, vec![v(i), v(j), (v(i) + v(j)) % 5i64], v(i) * v(j))])],
        ),
        sfor(i, 0i64, 10i64, vec![assign(i, v(i) + 1.5)]),
    ]);
    check("rank3", &pb.build(), &DataSet::default());
}

fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let err = std::panic::catch_unwind(f).expect_err("must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn out_of_bounds_index_panics_like_the_tree_walker() {
    let mut pb = ProgramBuilder::new("oob");
    let n = pb.iscalar("n");
    let i = pb.iscalar("i");
    let grid = pb.farray("grid", vec![v(n), v(n)]);
    pb.main(vec![sfor(i, 0i64, v(n), vec![store(grid, vec![ic(1), v(i) + 1i64], 1.0)])]);
    let p = pb.build();
    let ds = ds_with(vec![(n, Value::I(3))]);
    let cfg = HostConfig::xeon_x5660();
    let want = panic_message(|| {
        tree(&p, &ds, &cfg);
    });
    let got = panic_message(|| {
        run_cpu(&p, &ds, &cfg);
    });
    assert!(want.contains("out of bounds (dim 1 extent 3) on array grid"), "{want}");
    assert_eq!(want, got);
}

#[test]
fn recursive_call_is_rejected_by_name() {
    let mut pb = ProgramBuilder::new("rec");
    let x = pb.iscalar("x");
    let f = pb.func("countdown", vec![], vec![], vec![]);
    pb.main(vec![call(f, vec![], vec![])]);
    let mut p = pb.build();
    p.funcs[0].body = vec![iff(v(x).gt(0i64), vec![assign(x, v(x) - 1i64), call(FuncId(0), vec![], vec![])])];
    let msg = panic_message(|| {
        run_cpu(&p, &ds_with(vec![(x, Value::I(3))]), &HostConfig::xeon_x5660());
    });
    assert!(msg.contains("countdown"), "{msg}");
}

#[test]
fn arity_mismatch_panics_only_when_executed() {
    let mut pb = ProgramBuilder::new("arity");
    let x = pb.iscalar("x");
    let f = pb.func("two", vec![x], vec![], vec![]);
    pb.main(vec![iff(ic(0), vec![call(f, vec![], vec![])])]);
    // Dead call: both executors run to completion.
    check("arity", &pb.build(), &DataSet::default());
    let mut pb = ProgramBuilder::new("arity2");
    let x = pb.iscalar("x");
    let f = pb.func("two", vec![x], vec![], vec![]);
    pb.main(vec![call(f, vec![], vec![])]);
    let p = pb.build();
    let cfg = HostConfig::xeon_x5660();
    let ds = DataSet::default();
    let want = panic_message(|| {
        tree(&p, &ds, &cfg);
    });
    let got = panic_message(|| {
        run_cpu(&p, &ds, &cfg);
    });
    assert_eq!(want, got);
}

/// Dynamic operands through every binary operator family.
#[test]
fn dynamic_operands_promote_at_run_time() {
    let mut pb = ProgramBuilder::new("dyn");
    let d = pb.iscalar("d");
    let i = pb.iscalar("i");
    let r = pb.fscalar("r");
    let c = pb.iscalar("c");
    let a = pb.farray("a", vec![ic(4)]);
    let ops: Vec<Expr> =
        vec![v(d) + v(i), v(d) - 1i64, v(d) * v(d), v(d) / 2i64, v(d) % 3i64, v(d).min(v(i)), v(d).max(fc(0.5))];
    let mut body = vec![assign(d, (v(i) % 2i64).eq_(0i64).select(v(i), v(i).to_f() + 0.25))];
    for e in ops {
        body.push(assign(r, v(r) + e));
    }
    body.push(assign(c, v(c) + v(d).lt(2i64) + v(d).ge(v(i)) + v(d).and(v(i)) + v(d).or(0i64) + v(d).shl(1i64)));
    body.push(store(a, vec![v(i)], v(r)));
    pb.main(vec![sfor(i, 0i64, 4i64, body)]);
    check("dyn", &pb.build(), &DataSet::default());
}
