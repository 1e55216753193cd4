//! The structured tracing layer's contract, end to end:
//!
//! * **determinism** — the event stream, the folded profile, and the Chrome
//!   trace are byte-identical no matter how many rayon workers ran the
//!   sweep (traces come from the deterministic simulation, not the
//!   scheduler);
//! * **zero cost when disabled** — a disabled sink sees no events at all,
//!   and the untraced path pays no measurable overhead for the hooks;
//! * **valid output** — the Chrome-trace JSON round-trips through the JSON
//!   parser unchanged;
//! * **one record** — a run's record (`GpuRun::events`) is what the sink
//!   sees minus per-site evidence, and the run's totals and hotspot are the
//!   folds of its trace.

use acceval::benchmarks::{benchmark_named, Scale};
use acceval::models::ModelKind;
use acceval::profile::{chrome_trace, RunProfile};
use acceval::sim::trace::{TraceEvent, TraceSink};
use acceval::sim::{MachineConfig, NullSink, RecordingSink, Summary};
use acceval::sweep::{cached_compile, cached_dataset, cached_oracle};

/// Run one traced (benchmark, model) evaluation and return its events.
fn traced_events(bench: &str, model: ModelKind) -> Vec<TraceEvent> {
    let cfg = MachineConfig::keeneland_node();
    let b = benchmark_named(bench).expect("benchmark exists");
    let ds = cached_dataset(b.as_ref(), Scale::Test);
    let oracle = cached_oracle(b.as_ref(), Scale::Test, &cfg);
    let compiled = cached_compile(b.as_ref(), model, Scale::Test, None);
    let mut sink = RecordingSink::new();
    acceval::run_compiled_traced(b.as_ref(), &compiled, &ds, &cfg, &oracle.run, &mut sink);
    sink.take()
}

#[test]
fn trace_is_byte_identical_across_thread_counts() {
    // The profiled sweep runs its tasks through rayon; records (and the
    // profiles they carry) must not depend on the worker count. Both pool
    // sizes run inside this one test so the env var can't race a parallel
    // test.
    let cfg = MachineConfig::keeneland_node();
    let b = benchmark_named("jacobi").expect("jacobi exists");
    let benches: [&dyn acceval::benchmarks::Benchmark; 1] = [b.as_ref()];

    let mut renders = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let manifest = acceval::run_sweep_profiled(&benches, &cfg, Scale::Test, true, true);
        // Wall-clock and cache-provenance fields are legitimately run-
        // dependent; the determinism contract is on the folded profiles.
        let profiles: Vec<acceval::RunProfile> =
            manifest.records.iter().map(|r| r.profile.clone().expect("profiled sweep attaches profiles")).collect();
        renders.push(acceval::figures_json(&profiles));
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(renders[0], renders[1], "profiles must not depend on the rayon worker count");

    // Same for a directly-recorded trace and its Chrome rendering.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let one = traced_events("jacobi", ModelKind::OpenMpc);
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let four = traced_events("jacobi", ModelKind::OpenMpc);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(one, four, "event streams must be identical");
    assert_eq!(chrome_trace(&one), chrome_trace(&four), "chrome traces must be byte-identical");
}

#[test]
fn null_sink_sees_no_events() {
    // A sink that panics on emit proves the disabled path constructs no
    // events: every hook must check `enabled()` first.
    struct PanicSink;
    impl TraceSink for PanicSink {
        fn enabled(&self) -> bool {
            false
        }
        fn emit(&mut self, e: TraceEvent) {
            panic!("disabled sink received {e:?}");
        }
    }

    let cfg = MachineConfig::keeneland_node();
    let b = benchmark_named("jacobi").expect("jacobi exists");
    let ds = cached_dataset(b.as_ref(), Scale::Test);
    let oracle = cached_oracle(b.as_ref(), Scale::Test, &cfg);
    let compiled = cached_compile(b.as_ref(), ModelKind::OpenMpc, Scale::Test, None);

    let mut probe = PanicSink;
    let traced = acceval::run_compiled_traced(b.as_ref(), &compiled, &ds, &cfg, &oracle.run, &mut probe);

    // And the disabled run scores bit-for-bit like the enabled one.
    let mut rec = RecordingSink::new();
    let recorded = acceval::run_compiled_traced(b.as_ref(), &compiled, &ds, &cfg, &oracle.run, &mut rec);
    assert!(!rec.events.is_empty(), "enabled sink must receive events");
    assert_eq!(traced.secs.to_bits(), recorded.secs.to_bits(), "tracing must not perturb the simulation");
    assert_eq!(traced.speedup.to_bits(), recorded.speedup.to_bits());

    // NullSink is the canonical disabled sink.
    assert!(!NullSink.enabled());
    let untraced = acceval::run_compiled(b.as_ref(), &compiled, &ds, &cfg, &oracle.run);
    assert_eq!(untraced.secs.to_bits(), traced.secs.to_bits());
}

#[test]
fn disabled_tracing_has_no_measurable_overhead() {
    // Timing-sensitive, so generous: best-of-5 untraced must not be more
    // than 1.5x best-of-5 traced (on a quiet machine they are equal to
    // noise; the bound only catches accidental per-event work — formatting,
    // allocation — leaking onto the disabled path).
    let cfg = MachineConfig::keeneland_node();
    let b = benchmark_named("jacobi").expect("jacobi exists");
    let ds = cached_dataset(b.as_ref(), Scale::Test);
    let oracle = cached_oracle(b.as_ref(), Scale::Test, &cfg);
    let compiled = cached_compile(b.as_ref(), ModelKind::OpenMpc, Scale::Test, None);

    let best = |f: &mut dyn FnMut()| {
        (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed()
            })
            .min()
            .expect("five samples")
    };
    // Warm caches (dataset/oracle/compile already memoized above).
    acceval::run_compiled(b.as_ref(), &compiled, &ds, &cfg, &oracle.run);

    let untraced = best(&mut || {
        std::hint::black_box(acceval::run_compiled(b.as_ref(), &compiled, &ds, &cfg, &oracle.run));
    });
    let traced = best(&mut || {
        let mut sink = RecordingSink::new();
        std::hint::black_box(acceval::run_compiled_traced(b.as_ref(), &compiled, &ds, &cfg, &oracle.run, &mut sink));
    });
    assert!(
        untraced <= traced.mul_f64(1.5) + std::time::Duration::from_millis(2),
        "disabled tracing cost too much: untraced {untraced:?} vs traced {traced:?}"
    );
}

#[test]
fn chrome_trace_round_trips_through_json_parser() {
    let events = traced_events("jacobi", ModelKind::OpenAcc);
    assert!(!events.is_empty());
    let rendered = chrome_trace(&events);
    let parsed = serde_json::from_str(&rendered).expect("chrome trace must be valid JSON");
    let re_rendered = serde_json::to_string_pretty(&parsed).expect("re-serializes");
    assert_eq!(rendered, re_rendered, "chrome trace must survive a parse/print round trip unchanged");
}

#[test]
fn profile_carries_cache_provenance() {
    let cfg = MachineConfig::keeneland_node();
    let b = benchmark_named("jacobi").expect("jacobi exists");
    let benches: [&dyn acceval::benchmarks::Benchmark; 1] = [b.as_ref()];
    let manifest = acceval::run_sweep_profiled(&benches, &cfg, Scale::Test, false, true);
    assert!(!manifest.records.is_empty());
    for r in &manifest.records {
        let p = r.profile.as_ref().expect("profiled sweep must attach profiles");
        assert_eq!(p.benchmark, r.benchmark);
        assert!(p.events > 0, "profile must fold a non-empty trace");
        assert!((p.total_secs - r.secs).abs() <= 1e-12 * r.secs.max(1.0), "profile time must match the record");
    }
    // The unprofiled sweep attaches none.
    let plain = acceval::run_sweep(&benches, &cfg, Scale::Test, false);
    assert!(plain.records.iter().all(|r| r.profile.is_none()));
}

#[test]
fn folded_profile_matches_summary() {
    let events = traced_events("spmul", ModelKind::Hmpp);
    let p = RunProfile::from_events("spmul", ModelKind::Hmpp, &events);
    let launches: u64 = p.kernels.iter().map(|k| k.launches).sum();
    let kernel_events = events.iter().filter(|e| matches!(e, TraceEvent::KernelLaunch { .. })).count() as u64;
    assert_eq!(launches, kernel_events);
    let transfer_total: u64 = p.transfers.iter().map(|t| t.bytes).sum();
    assert_eq!(transfer_total, p.h2d_bytes + p.d2h_bytes);
}

/// Every field of a summary, `f64`s as bits.
fn summary_bits(s: &Summary) -> [u64; 10] {
    [
        s.total_secs.to_bits(),
        s.host_secs.to_bits(),
        s.transfer_secs.to_bits(),
        s.kernel_secs.to_bits(),
        s.kernels_launched,
        s.h2d_bytes,
        s.d2h_bytes,
        s.transfers,
        s.global_transactions,
        s.useful_bytes,
    ]
}

#[test]
fn run_record_is_the_trace_without_evidence() {
    // SRAD's scalar reductions add `(red)` readback transfers to the record.
    for (bench, model) in [("jacobi", ModelKind::OpenMpc), ("srad", ModelKind::PgiAccelerator)] {
        let cfg = MachineConfig::keeneland_node();
        let b = benchmark_named(bench).expect("benchmark exists");
        let ds = cached_dataset(b.as_ref(), Scale::Test);
        let oracle = cached_oracle(b.as_ref(), Scale::Test, &cfg);
        let compiled = cached_compile(b.as_ref(), model, Scale::Test, None);

        let mut sink = RecordingSink::new();
        let run = acceval::run_gpu_program_traced(&compiled, &ds, &cfg, &mut sink).expect("gpu run");
        let timed: Vec<&TraceEvent> = sink
            .events
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::Host { .. } | TraceEvent::Transfer { .. } | TraceEvent::KernelLaunch { .. })
            })
            .collect();
        assert_eq!(timed.len(), run.events.len(), "{bench}");
        assert!(timed.iter().zip(&run.events).all(|(t, r)| *t == r), "{bench}: record and trace differ");
        assert!(sink.events.len() > run.events.len(), "{bench}: the sink also sees per-site evidence");
        let secs: f64 = run.events.iter().map(TraceEvent::secs).sum();
        assert_eq!(run.secs.to_bits(), secs.to_bits(), "{bench}");
        if bench == "srad" {
            let red = |e: &TraceEvent| matches!(e, TraceEvent::Transfer { array, .. } if array.ends_with("(red)"));
            assert!(run.events.iter().any(red), "SRAD/PGI reads its scalar reductions back");
        }

        let mut sink = RecordingSink::new();
        let scored = acceval::run_compiled_traced(b.as_ref(), &compiled, &ds, &cfg, &oracle.run, &mut sink);
        assert!(scored.valid.is_ok(), "{bench}: {:?}", scored.valid);
        assert_eq!(summary_bits(&scored.summary), summary_bits(&Summary::of(&sink.events)), "{bench}");
        assert_eq!(summary_bits(&scored.summary), summary_bits(&Summary::of(&run.events)), "{bench}");
        let hot = scored.kernel_hotspot.expect("the run launched kernels");
        let want = RunProfile::from_events(bench, model, &sink.events).hotspot().expect("the trace has launches");
        assert_eq!((&hot.kernel, hot.secs.to_bits(), hot.launches), (&want.kernel, want.secs.to_bits(), want.launches));
    }
}
