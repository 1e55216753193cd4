//! Regenerate the paper's tables and figures, and profile single runs.
//!
//! ```text
//! cargo run -p acceval-examples --release --bin report -- table1
//! cargo run -p acceval-examples --release --bin report -- table2
//! cargo run -p acceval-examples --release --bin report -- figure1 [--test-scale] [--no-tuning] [--csv] [--json] [--device-c1060] [bench...]
//! cargo run -p acceval-examples --release --bin report -- devices [--test-scale] [--with-tuning] [--csv] [--json] [device...]
//! cargo run -p acceval-examples --release --bin report -- profile <benchmark> <model> [--test-scale] [--device-c1060]
//! cargo run -p acceval-examples --release --bin report -- all
//! ```

use acceval::benchmarks::{benchmark_named, Scale};
use acceval::codesize::codesize_table;
use acceval::coverage::coverage_table;
use acceval::figures::{figure1_subset_with_manifest, figure1_with_manifest};
use acceval::models::ModelKind;
use acceval::profile::{chrome_trace, RunProfile};
use acceval::report::{figure1_csv, render_figure1, render_profile, render_sweep_summary, render_table2};
use acceval::sim::{MachineConfig, RecordingSink, TraceEvent};
use acceval::sweep::{cached_compile, cached_dataset, cached_oracle};
use acceval::tables::render_table1;

/// Where the sweep manifest lands, next to `results/figure1.csv`.
const MANIFEST_PATH: &str = "results/figure1_sweep.json";
/// Where `report -- devices` lands the device-generation matrix.
const MATRIX_PATH: &str = "results/device_matrix.csv";

const USAGE: &str = "usage: report -- <command> [flags]
commands:
  table1                         render Table I
  table2                         render Table II
  figure1 [flags] [bench...]     run the sweep and render Figure 1
  devices [flags] [device...]    run the device-generation matrix (default:
                                 every preset) and render the per-generation
                                 model ranking; writes results/device_matrix.csv
  profile <benchmark> <model>    profile one run; prints a cost attribution
                                 table and writes results/profile_<bench>_<model>.json
                                 (Chrome trace format, open in chrome://tracing)
  store [stats|clear]            inspect or wipe the persistent launch store
                                 (results/.acceval-store, see ACCEVAL_STORE)
  all                            table1 + table2 + figure1
flags:
  --test-scale                   tiny datasets (fast; not the paper's inputs)
  --no-tuning                    figure1/all: skip the tuning-variation sweep
  --with-tuning                  devices: add the tuning-variation points
  --csv | --json                 figure1/devices/all: machine-readable output
  --device-c1060                 simulate the previous-generation Tesla C1060
environment:
  ACCEVAL_DEVICE=<preset>            device generation for figure1/profile/all
                                     (tesla|fermi|kepler|pascal|volta)
  ACCEVAL_LAUNCH_CACHE=on|off        in-memory launch-result cache mode
  ACCEVAL_STORE=auto|on|off|<path>   persistent launch-result store mode
  ACCEVAL_ENGINE=tree|bytecode       kernel engine: bytecode (default) runs
                                     compiled native closures, tree the
                                     reference interpreter (results are
                                     identical)";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    // Malformed ACCEVAL_* settings are a usage error up front, not a
    // mid-sweep panic (or a silently ignored knob) half an hour in.
    if let Err(e) = acceval::ir::env::validate_env() {
        usage_error(&format!("invalid environment: {e}"));
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    if !["table1", "table2", "figure1", "devices", "profile", "store", "all"].contains(&cmd) {
        usage_error(&format!("unknown command `{cmd}`"));
    }

    // Strict flag validation: an unknown or misspelled flag is an error, not
    // a silently ignored no-op.
    let allowed: &[&str] = match cmd {
        "table1" | "table2" | "store" => &[],
        "profile" => &["--test-scale", "--device-c1060"],
        "devices" => &["--test-scale", "--with-tuning", "--csv", "--json"],
        _ => &["--test-scale", "--no-tuning", "--csv", "--json", "--device-c1060"],
    };
    for a in args.iter().skip(1).filter(|a| a.starts_with("--")) {
        if !allowed.contains(&a.as_str()) {
            usage_error(&format!("unknown flag `{a}` for `{cmd}`"));
        }
    }

    let test_scale = args.iter().any(|a| a == "--test-scale");
    let no_tuning = args.iter().any(|a| a == "--no-tuning");
    let csv = args.iter().any(|a| a == "--csv");
    let json = args.iter().any(|a| a == "--json");
    let positionals: Vec<&str> = args.iter().skip(1).filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    if ["table1", "table2", "all"].contains(&cmd) && !positionals.is_empty() {
        usage_error(&format!("`{cmd}` takes no positional arguments"));
    }

    // Device selection: ACCEVAL_DEVICE swaps the Keeneland node's GPU for
    // another preset of the generation family; --device-c1060 (the older
    // flag) wins when both are given. validate_env has already vetted the
    // name, so the lookup here cannot fail after startup.
    let mut cfg = MachineConfig::keeneland_node();
    if let Ok(v) = std::env::var("ACCEVAL_DEVICE") {
        match acceval::sim::DeviceConfig::preset(&v) {
            Some(d) => cfg.device = d,
            None => usage_error(&format!("ACCEVAL_DEVICE: unknown device preset `{v}`")),
        }
    }
    if args.iter().any(|a| a == "--device-c1060") {
        // Performance-portability study (paper SVI): same ports, previous
        // GPU generation (GT200-class: 64-byte segments, fewer resident
        // warps, slower atomics).
        cfg.device = acceval::sim::DeviceConfig::tesla_c1060();
    }
    let scale = if test_scale { Scale::Test } else { Scale::Paper };

    if cmd == "store" {
        run_store(&positionals);
        return;
    }

    if cmd == "devices" {
        run_devices(&positionals, &cfg, scale, &args);
        return;
    }

    if cmd == "profile" {
        run_profile(&positionals, &cfg, scale);
        return;
    }

    if cmd == "table1" || cmd == "all" {
        println!("{}", render_table1());
    }
    if cmd == "table2" || cmd == "all" {
        println!("{}", render_table2(&coverage_table(), &codesize_table()));
    }
    if cmd == "figure1" || cmd == "all" {
        let (fig, manifest) = if positionals.is_empty() {
            figure1_with_manifest(&cfg, scale, !no_tuning)
        } else {
            match figure1_subset_with_manifest(&positionals, &cfg, scale, !no_tuning) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        };
        if csv {
            println!("{}", figure1_csv(&fig));
        } else if json {
            println!("{}", serde_json_string(&fig));
        } else {
            println!("{}", render_figure1(&fig));
        }
        match std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(MANIFEST_PATH, acceval::figures_json(&manifest)))
        {
            Ok(()) => eprintln!("{}wrote {MANIFEST_PATH}", render_sweep_summary(&manifest)),
            Err(e) => eprintln!("warning: could not write {MANIFEST_PATH}: {e}"),
        }
        // Drain the write-behind spiller so the store is complete on disk
        // before the process exits (the next run warm-starts from it).
        acceval::ir::interp::store::flush_store();
    }
}

/// `report -- devices [device...]`: run the device-generation matrix sweep
/// (every preset when no names are given), write `results/device_matrix.csv`,
/// and print the per-generation model ranking (or the CSV/JSON with a
/// format flag). Unknown preset names are a usage error, exit 2.
fn run_devices(positionals: &[&str], cfg: &MachineConfig, scale: Scale, args: &[String]) {
    use acceval::benchmarks::all_benchmarks;
    use acceval::devices::{device_matrix_csv, device_slices, render_device_rankings};
    use acceval::sim::DeviceConfig;
    use acceval::sweep::run_device_matrix;

    let with_tuning = args.iter().any(|a| a == "--with-tuning");
    let csv = args.iter().any(|a| a == "--csv");
    let json = args.iter().any(|a| a == "--json");
    let all_slugs: Vec<&str> = DeviceConfig::presets().iter().map(|(s, _)| *s).collect();
    let devices: &[&str] = if positionals.is_empty() { &all_slugs } else { positionals };

    let benches = all_benchmarks();
    let refs: Vec<&dyn acceval::benchmarks::Benchmark> = benches.iter().map(|b| b.as_ref()).collect();
    let manifest = match run_device_matrix(&refs, cfg, scale, with_tuning, devices) {
        Ok(m) => m,
        Err(e) => usage_error(&e),
    };

    let matrix = device_matrix_csv(&manifest);
    if csv {
        println!("{matrix}");
    } else if json {
        println!("{}", acceval::figures_json(&device_slices(&manifest)));
    } else {
        println!("{}", render_device_rankings(&manifest));
    }
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(MATRIX_PATH, &matrix)) {
        Ok(()) => eprintln!("{}wrote {MATRIX_PATH}", render_sweep_summary(&manifest)),
        Err(e) => eprintln!("warning: could not write {MATRIX_PATH}: {e}"),
    }
    acceval::ir::interp::store::flush_store();
}

/// `report -- store [stats|clear]`: inspect or wipe the persistent store.
fn run_store(positionals: &[&str]) {
    use acceval::ir::interp::store::{clear_store, store_stats};
    let action = match positionals {
        [] | ["stats"] => "stats",
        ["clear"] => "clear",
        _ => usage_error("`store` takes at most one argument: stats | clear"),
    };
    let s = store_stats();
    let Some(root) = &s.root else {
        println!("store: disabled (set ACCEVAL_STORE=on or a path, or run from a dir with results/)");
        return;
    };
    if action == "clear" {
        let removed = clear_store();
        println!("store: cleared {removed} entr(ies) under {}", root.display());
        return;
    }
    println!(
        "store: {} entr(ies), {} bytes (cap {} bytes), {} quarantined, at {}",
        s.entries,
        s.bytes,
        s.cap_bytes,
        s.quarantined,
        root.display()
    );
}

/// `report -- profile <benchmark> <model>`: run one (benchmark, model) pair
/// at its default tuning point with the tracer attached, print the cost
/// attribution table, and write the Chrome-trace JSON.
///
/// The run happens on this thread — no rayon — and every event is emitted in
/// simulation order, so the trace is byte-identical at any thread count.
fn run_profile(positionals: &[&str], cfg: &MachineConfig, scale: Scale) {
    let [bench_name, model_name] = positionals else {
        usage_error("`profile` needs exactly two arguments: <benchmark> <model>");
    };
    let Some(bench) = benchmark_named(bench_name) else {
        usage_error(&format!("unknown benchmark `{bench_name}`"));
    };
    let Some(model) = ModelKind::parse(model_name) else {
        let known: Vec<&str> = ModelKind::figure1_models().iter().map(|m| m.slug()).collect();
        usage_error(&format!("unknown model `{model_name}`; known: {}", known.join(" ")));
    };

    let ds = cached_dataset(bench.as_ref(), scale);
    let oracle = cached_oracle(bench.as_ref(), scale, cfg);
    let compiled = cached_compile(bench.as_ref(), model, scale, None);

    let mut sink = RecordingSink::new();
    let run = acceval::run_compiled_traced(bench.as_ref(), &compiled, &ds, cfg, &oracle.run, &mut sink);
    let events: Vec<TraceEvent> = sink.take();

    let profile = RunProfile::from_events(bench_name, model, &events);
    println!("{}", render_profile(&profile));

    // Per-kernel compile: the run above compiled every launched plan, and
    // the plans share their engine caches with the launch path. Every plan
    // listed runs as native closures; an ineligible plan is not listed.
    println!("compiled kernels:");
    let mut region_ids: Vec<u32> = compiled.kernels.keys().copied().collect();
    region_ids.sort_unstable();
    let mut any = false;
    for rid in region_ids {
        for plan in &compiled.kernels[&rid] {
            let Some(st) = plan.engine_cache.opt_stats() else { continue };
            any = true;
            println!("  {:<28} {:>4} ops", plan.name, st.ops_pre);
        }
    }
    if !any {
        println!("  (no compiled kernels: tree engine, or no plan the compiler accepts)");
    }
    println!();
    println!(
        "speedup {:.2}x over serial CPU ({:.6}s / {:.6}s), validation {}",
        run.speedup,
        oracle.run.secs,
        run.secs,
        match &run.valid {
            Ok(()) => "OK".to_string(),
            Err(e) => format!("FAILED: {e}"),
        }
    );

    let path = format!("results/profile_{}_{}.json", bench_name, model.slug());
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, chrome_trace(&events))) {
        Ok(()) => eprintln!("wrote {path} ({} events; open in chrome://tracing or Perfetto)", events.len()),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn serde_json_string(fig: &acceval::figures::Figure1) -> String {
    acceval::figures_json(fig)
}
