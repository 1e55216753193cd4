//! Per-kernel debugging of one benchmark under every Figure 1 model: each
//! run's record folded into the cost attribution table `report profile`
//! prints.
//!
//! ```text
//! cargo run -p acceval-examples --release --bin dbg -- <bench> [test]
//! ```
use acceval::benchmarks::{benchmark_named, Scale};
use acceval::models::ModelKind;
use acceval::profile::RunProfile;
use acceval::report::render_profile;
use acceval::sim::MachineConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().expect("usage: dbg <bench> [test]");
    let scale = if args.iter().any(|a| a == "test") { Scale::Test } else { Scale::Paper };
    let b = benchmark_named(name).expect("unknown benchmark");
    let ds = b.dataset(scale);
    let cfg = MachineConfig::keeneland_node();
    let oracle = acceval::run_baseline(b.as_ref(), &ds, &cfg);
    println!("CPU baseline: {:.3}ms  ({})", oracle.secs * 1e3, ds.label);
    for kind in ModelKind::figure1_models() {
        let port = b.port(kind);
        let c = acceval::compile_port(&port, kind, &ds, None);
        let run = acceval::run_gpu_program(&c, &ds, &cfg).expect("gpu run");
        println!("== {:?} {:.3}ms (speedup {:.2})", kind, run.secs * 1e3, oracle.secs / run.secs);
        println!("{}", render_profile(&RunProfile::from_events(b.spec().name, kind, &run.events)));
    }
}
