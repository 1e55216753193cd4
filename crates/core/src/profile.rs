//! Run profiles: fold a run's events (its record, or a sink's trace of it)
//! into per-kernel cost attribution and per-array transfer accounting, and
//! render the raw event stream as Chrome-trace-format JSON (openable in
//! `chrome://tracing` / Perfetto).
//!
//! The profile answers the question the paper's Figure 1 discussion keeps
//! asking — *why* is this port slow: which kernel dominates, whether it is
//! compute-, bandwidth-, latency-, or shared-memory-bound, how badly its
//! access pattern amplifies DRAM traffic, and how many bytes each array
//! moved over PCIe in each direction.

use acceval_models::ModelKind;
use acceval_sim::trace::TraceEvent;
use acceval_sim::{Bound, Dir, Summary};
use serde::{Json, Serialize};

use crate::eval::KernelHotspot;

/// Aggregated cost attribution for one kernel (all launches of that name).
#[derive(Debug, Clone, Serialize)]
pub struct KernelRow {
    /// Kernel name.
    pub name: String,
    /// Number of launches folded into this row.
    pub launches: u64,
    /// Total simulated seconds across launches (incl. launch overhead).
    pub time_secs: f64,
    /// Per-term roofline cycles summed over launches.
    pub compute_cycles: f64,
    pub mem_bw_cycles: f64,
    pub mem_lat_cycles: f64,
    pub shared_cycles: f64,
    pub atomic_cycles: f64,
    /// The dominating term of the summed roofline.
    pub bound: Bound,
    /// Worst (minimum) occupancy fraction seen across launches.
    pub occupancy: f64,
    /// Warp-wide global-memory requests summed over launches.
    pub global_requests: u64,
    /// Global-memory transactions summed over launches.
    pub global_transactions: u64,
    /// Useful bytes (lane accesses × element size).
    pub useful_bytes: u64,
    /// DRAM bytes actually moved.
    pub traffic_bytes: u64,
    /// Serialized shared-memory slots.
    pub shared_slots: u64,
}

impl KernelRow {
    /// Moved bytes over useful bytes (1.0 = perfectly coalesced).
    pub fn traffic_amplification(&self) -> f64 {
        if self.useful_bytes == 0 {
            0.0
        } else {
            self.traffic_bytes as f64 / self.useful_bytes as f64
        }
    }
}

/// Aggregated PCIe traffic for one (array, direction) pair.
#[derive(Debug, Clone, Serialize)]
pub struct TransferRow {
    /// Array name (reduction readbacks appear as `kernel(red)`).
    pub array: String,
    /// Transfer direction.
    pub dir: Dir,
    /// Number of transfers.
    pub transfers: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total simulated link seconds.
    pub secs: f64,
}

/// A complete run profile: what the simulated time was spent on.
#[derive(Debug, Clone, Serialize)]
pub struct RunProfile {
    /// Benchmark name.
    pub benchmark: String,
    /// Programming model of the profiled port.
    pub model: ModelKind,
    /// Total simulated seconds (host + transfers + kernels).
    pub total_secs: f64,
    /// Sequential host seconds.
    pub host_secs: f64,
    /// PCIe seconds.
    pub transfer_secs: f64,
    /// Kernel seconds.
    pub kernel_secs: f64,
    /// Upload bytes.
    pub h2d_bytes: u64,
    /// Download bytes.
    pub d2h_bytes: u64,
    /// Per-kernel attribution, in first-launch order.
    pub kernels: Vec<KernelRow>,
    /// Per-(array, direction) transfer accounting, in first-seen order.
    pub transfers: Vec<TransferRow>,
    /// Number of trace events the profile was folded from.
    pub events: usize,
}

impl RunProfile {
    /// Fold an event stream into a profile. Events must be in emission
    /// (simulation) order; the totals are [`Summary::of`] the stream, and
    /// rows keep first-seen order so the profile is as deterministic as the
    /// trace.
    pub fn from_events(benchmark: &str, model: ModelKind, events: &[TraceEvent]) -> Self {
        let s = Summary::of(events);
        let mut p = RunProfile {
            benchmark: benchmark.to_string(),
            model,
            total_secs: s.total_secs,
            host_secs: s.host_secs,
            transfer_secs: s.transfer_secs,
            kernel_secs: s.kernel_secs,
            h2d_bytes: s.h2d_bytes,
            d2h_bytes: s.d2h_bytes,
            kernels: Vec::new(),
            transfers: Vec::new(),
            events: events.len(),
        };
        for e in events {
            match e {
                TraceEvent::Transfer { array, dir, bytes, secs } => {
                    let row = match p.transfers.iter_mut().find(|r| r.array == *array && r.dir == *dir) {
                        Some(r) => r,
                        None => {
                            p.transfers.push(TransferRow {
                                array: array.clone(),
                                dir: *dir,
                                transfers: 0,
                                bytes: 0,
                                secs: 0.0,
                            });
                            p.transfers.last_mut().expect("just pushed")
                        }
                    };
                    row.transfers += 1;
                    row.bytes += bytes;
                    row.secs += secs;
                }
                TraceEvent::KernelLaunch { name, cost, totals, traffic_bytes, .. } => {
                    let row = match p.kernels.iter_mut().find(|r| r.name == *name) {
                        Some(r) => r,
                        None => {
                            p.kernels.push(KernelRow {
                                name: name.clone(),
                                launches: 0,
                                time_secs: 0.0,
                                compute_cycles: 0.0,
                                mem_bw_cycles: 0.0,
                                mem_lat_cycles: 0.0,
                                shared_cycles: 0.0,
                                atomic_cycles: 0.0,
                                bound: Bound::LaunchOverhead,
                                occupancy: f64::INFINITY,
                                global_requests: 0,
                                global_transactions: 0,
                                useful_bytes: 0,
                                traffic_bytes: 0,
                                shared_slots: 0,
                            });
                            p.kernels.last_mut().expect("just pushed")
                        }
                    };
                    row.launches += 1;
                    row.time_secs += cost.time_secs;
                    row.compute_cycles += cost.compute_cycles;
                    row.mem_bw_cycles += cost.mem_bw_cycles;
                    row.mem_lat_cycles += cost.mem_lat_cycles;
                    row.shared_cycles += cost.shared_cycles;
                    row.atomic_cycles += cost.atomic_cycles;
                    row.occupancy = row.occupancy.min(cost.occupancy.fraction);
                    row.global_requests += totals.global_requests;
                    row.global_transactions += totals.global_transactions;
                    row.useful_bytes += totals.useful_bytes;
                    row.traffic_bytes += traffic_bytes;
                    row.shared_slots += totals.shared_slots;
                }
                // Host spans are in the totals only. Evidence events
                // contribute no time; they stay in the raw trace (Chrome
                // JSON) rather than the folded table.
                TraceEvent::Host { .. } | TraceEvent::CoalesceSite { .. } | TraceEvent::CacheCounters { .. } => {}
            }
        }
        for row in &mut p.kernels {
            if !row.occupancy.is_finite() {
                row.occupancy = 0.0;
            }
            row.bound = dominant_bound(row);
        }
        p
    }

    /// The costliest kernel row by simulated seconds (ties keep the earlier
    /// kernel, so the answer is deterministic), or `None` if nothing
    /// launched.
    pub fn hotspot(&self) -> Option<KernelHotspot> {
        let k = self.kernels.iter().reduce(|best, k| if k.time_secs > best.time_secs { k } else { best })?;
        Some(KernelHotspot { kernel: k.name.clone(), secs: k.time_secs, launches: k.launches })
    }
}

/// The dominating term of a kernel row's summed roofline.
fn dominant_bound(r: &KernelRow) -> Bound {
    let candidates = [
        (Bound::Compute, r.compute_cycles),
        (Bound::MemBandwidth, r.mem_bw_cycles),
        (Bound::MemLatency, r.mem_lat_cycles),
        (Bound::Shared, r.shared_cycles),
        (Bound::Atomic, r.atomic_cycles),
    ];
    let (bound, cycles) = candidates
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .copied()
        .expect("non-empty");
    if cycles > 0.0 {
        bound
    } else {
        Bound::LaunchOverhead
    }
}

// ---------------------------------------------------------------------------
// Chrome trace format.
// ---------------------------------------------------------------------------

/// Virtual thread ids used in the Chrome trace.
const TID_HOST: u64 = 0;
const TID_PCIE: u64 = 1;
const TID_GPU: u64 = 2;

/// Render an event stream as Chrome-trace-format JSON (the
/// `{"traceEvents": [...]}` object form), with simulated time as the
/// timeline: `ts`/`dur` are simulated microseconds, lanes are `host`,
/// `pcie`, and `gpu`. Evidence events (coalescing sites, cache counters)
/// become instant/counter events at their emission time.
///
/// The output is a pure function of the event stream, so a trace recorded
/// from a deterministic run is byte-stable across thread counts.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out: Vec<Json> = Vec::with_capacity(events.len() + 3);
    for (tid, name) in [(TID_HOST, "host"), (TID_PCIE, "pcie"), (TID_GPU, "gpu")] {
        out.push(obj(vec![
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::U(0)),
            ("tid", Json::U(tid)),
            ("args", obj(vec![("name", Json::Str(name.into()))])),
        ]));
    }
    let mut ts = 0.0f64; // simulated microseconds
    for e in events {
        match e {
            TraceEvent::Host { label, secs } => {
                out.push(complete(label, "host", TID_HOST, ts, secs * 1e6, vec![]));
            }
            TraceEvent::Transfer { array, dir, bytes, secs } => {
                let dirname = match dir {
                    Dir::HostToDevice => "HostToDevice",
                    Dir::DeviceToHost => "DeviceToHost",
                };
                out.push(complete(
                    &format!("{array} {dirname}"),
                    "pcie",
                    TID_PCIE,
                    ts,
                    secs * 1e6,
                    vec![
                        ("array", Json::Str(array.clone())),
                        ("dir", Json::Str(dirname.into())),
                        ("bytes", Json::U(*bytes)),
                    ],
                ));
            }
            TraceEvent::KernelLaunch { name, footprint, cost, totals, traffic_bytes } => {
                out.push(complete(
                    name,
                    "kernel",
                    TID_GPU,
                    ts,
                    cost.time_secs * 1e6,
                    vec![
                        ("bound", Json::Str(format!("{:?}", cost.bound))),
                        ("grid_blocks", Json::U(footprint.grid_blocks)),
                        ("threads_per_block", Json::U(footprint.threads_per_block as u64)),
                        ("shared_bytes_per_block", Json::U(footprint.shared_bytes_per_block as u64)),
                        ("occupancy", Json::F(cost.occupancy.fraction)),
                        ("compute_cycles", Json::F(cost.compute_cycles)),
                        ("mem_bw_cycles", Json::F(cost.mem_bw_cycles)),
                        ("mem_lat_cycles", Json::F(cost.mem_lat_cycles)),
                        ("shared_cycles", Json::F(cost.shared_cycles)),
                        ("atomic_cycles", Json::F(cost.atomic_cycles)),
                        ("global_requests", Json::U(totals.global_requests)),
                        ("global_transactions", Json::U(totals.global_transactions)),
                        ("useful_bytes", Json::U(totals.useful_bytes)),
                        ("traffic_bytes", Json::U(*traffic_bytes)),
                    ],
                ));
            }
            TraceEvent::CoalesceSite {
                kernel,
                site,
                array,
                space,
                requests,
                transactions,
                lane_accesses,
                shared_slots,
            } => {
                out.push(instant(
                    &format!("{kernel}#site{site}"),
                    "coalesce",
                    TID_GPU,
                    ts,
                    vec![
                        ("array", Json::Str(array.clone())),
                        ("space", Json::Str(space.clone())),
                        ("requests", Json::U(*requests)),
                        ("transactions", Json::U(*transactions)),
                        ("lane_accesses", Json::U(*lane_accesses)),
                        ("shared_slots", Json::U(*shared_slots)),
                    ],
                ));
            }
            TraceEvent::CacheCounters { cache, hits, misses } => {
                out.push(obj(vec![
                    ("name", Json::Str(cache.clone())),
                    ("cat", Json::Str("cache".into())),
                    ("ph", Json::Str("C".into())),
                    ("ts", Json::F(ts)),
                    ("pid", Json::U(0)),
                    ("tid", Json::U(TID_GPU)),
                    ("args", obj(vec![("hits", Json::U(*hits)), ("misses", Json::U(*misses))])),
                ]));
            }
        }
        ts += e.secs() * 1e6;
    }
    let root = obj(vec![
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::Str("ms".into())),
        ("otherData", obj(vec![("generator", Json::Str("acceval report profile".into()))])),
    ]);
    serde_json::to_string_pretty(&root).expect("chrome trace serializes")
}

fn obj(entries: Vec<(&str, Json)>) -> Json {
    Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn complete(name: &str, cat: &str, tid: u64, ts: f64, dur: f64, args: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("name", Json::Str(name.to_string())),
        ("cat", Json::Str(cat.to_string())),
        ("ph", Json::Str("X".into())),
        ("ts", Json::F(ts)),
        ("dur", Json::F(dur)),
        ("pid", Json::U(0)),
        ("tid", Json::U(tid)),
    ];
    if !args.is_empty() {
        fields.push(("args", obj(args)));
    }
    obj(fields)
}

fn instant(name: &str, cat: &str, tid: u64, ts: f64, args: Vec<(&str, Json)>) -> Json {
    obj(vec![
        ("name", Json::Str(name.to_string())),
        ("cat", Json::Str(cat.to_string())),
        ("ph", Json::Str("i".into())),
        ("ts", Json::F(ts)),
        ("pid", Json::U(0)),
        ("tid", Json::U(tid)),
        ("s", Json::Str("t".into())),
        ("args", obj(args)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use acceval_benchmarks::{benchmark_named, Scale};
    use acceval_sim::{MachineConfig, RecordingSink};

    fn record(bench: &str, model: ModelKind) -> (Vec<TraceEvent>, crate::eval::ModelRun) {
        let cfg = MachineConfig::keeneland_node();
        let b = benchmark_named(bench).expect("benchmark exists");
        let ds = crate::sweep::cached_dataset(b.as_ref(), Scale::Test);
        let oracle = crate::sweep::cached_oracle(b.as_ref(), Scale::Test, &cfg);
        let compiled = crate::sweep::cached_compile(b.as_ref(), model, Scale::Test, None);
        let mut sink = RecordingSink::new();
        let run = crate::eval::run_compiled_traced(b.as_ref(), &compiled, &ds, &cfg, &oracle.run, &mut sink);
        (sink.events, run)
    }

    #[test]
    fn profile_accounts_for_total_time() {
        let (events, run) = record("jacobi", ModelKind::OpenMpc);
        assert!(!events.is_empty(), "traced run must emit events");
        let p = RunProfile::from_events("jacobi", ModelKind::OpenMpc, &events);
        // The profile's timed events reconstruct the run's wall time.
        assert!((p.total_secs - run.secs).abs() < 1e-12 * run.secs.max(1.0), "{} vs {}", p.total_secs, run.secs);
        assert!((p.host_secs + p.transfer_secs + p.kernel_secs - p.total_secs).abs() < 1e-9);
        assert!(!p.kernels.is_empty());
        assert!(p.kernels.iter().all(|k| k.launches > 0));
        // Transfer bytes match the run's summary.
        assert_eq!(p.h2d_bytes, run.summary.h2d_bytes);
        assert_eq!(p.d2h_bytes, run.summary.d2h_bytes);
    }

    #[test]
    fn chrome_trace_is_valid_and_ordered() {
        let (events, _) = record("jacobi", ModelKind::OpenMpc);
        let s = chrome_trace(&events);
        let v = serde_json::from_str(&s).expect("chrome trace parses");
        let Json::Obj(fields) = &v else { panic!("root must be an object") };
        let (_, Json::Arr(evs)) = fields.iter().find(|(k, _)| k == "traceEvents").expect("traceEvents") else {
            panic!("traceEvents must be an array")
        };
        assert!(evs.len() > events.len(), "metadata + one entry per event");
        // ts must be monotonically non-decreasing (simulated order).
        let mut last = -1.0;
        for e in evs {
            let Json::Obj(f) = e else { panic!("event must be an object") };
            if let Some((_, Json::F(ts))) = f.iter().find(|(k, _)| k == "ts") {
                assert!(*ts >= last, "ts went backwards: {ts} < {last}");
                last = *ts;
            }
        }
    }

    #[test]
    fn dominant_bound_prefers_largest_term() {
        let (events, _) = record("jacobi", ModelKind::OpenMpc);
        let p = RunProfile::from_events("jacobi", ModelKind::OpenMpc, &events);
        for k in &p.kernels {
            let max =
                k.compute_cycles.max(k.mem_bw_cycles).max(k.mem_lat_cycles).max(k.shared_cycles).max(k.atomic_cycles);
            if max > 0.0 {
                assert_ne!(k.bound, Bound::LaunchOverhead, "{}: non-zero roofline must not be launch-bound", k.name);
            }
        }
    }
}
