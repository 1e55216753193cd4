//! Sweep-level engine equivalence: the default engine (compiled native
//! closures) and the reference tree walker must produce byte-identical
//! artifacts — the Figure 1 CSV (tuning on) and the Chrome trace of a
//! profiled run — at 1 and 8 workers, with the launch cache on and off, so
//! that `ACCEVAL_ENGINE` is a pure speed knob, never a results knob.
//!
//! Every pass starts from an empty in-memory cache, and the tree reference
//! runs with the persistent store off (see `common::with_config`).
//! Default-engine passes use whatever store the environment configures,
//! which is how CI's store rerun covers store replays.

mod common;

use acceval::benchmarks::Scale;
use acceval::figures::figure1;
use acceval::ir::interp::gpu::Engine;
use acceval::ir::interp::launch_cache::LaunchCache;
use acceval::report::figure1_csv;
use acceval::sim::MachineConfig;
use common::{profile_jacobi, with_config};

/// The default-engine configurations every artifact is compared under.
const CONFIGS: [(usize, LaunchCache); 4] =
    [(1, LaunchCache::On), (8, LaunchCache::On), (1, LaunchCache::Off), (8, LaunchCache::Off)];

/// The full Figure 1 sweep (tuning on) renders to a byte-identical CSV
/// under both engines.
#[test]
fn figure1_csv_is_engine_independent() {
    let cfg = MachineConfig::keeneland_node();
    let sweep = || figure1_csv(&figure1(&cfg, Scale::Test, true));
    let tree = with_config(Engine::Tree, 1, LaunchCache::On, sweep);
    for (threads, cache) in CONFIGS {
        let csv = with_config(Engine::Bytecode, threads, cache, sweep);
        assert_eq!(tree, csv, "figure1.csv must be byte-identical across engines ({threads} workers, cache {cache:?})");
    }
}

/// A profiled single run emits the same Chrome trace (every span, transfer,
/// kernel cost, and coalescing evidence event) and bit-identical scores
/// under both engines.
#[test]
fn run_profile_is_engine_independent() {
    let cfg = MachineConfig::keeneland_node();
    let profiled = || profile_jacobi(&cfg);
    let (tt, ts, tsp) = with_config(Engine::Tree, 1, LaunchCache::On, profiled);
    for (threads, cache) in CONFIGS {
        let (bt, bs, bsp) = with_config(Engine::Bytecode, threads, cache, profiled);
        let at = format!("({threads} workers, cache {cache:?})");
        assert_eq!(ts, bs, "simulated seconds must be bit-identical across engines {at}");
        assert_eq!(tsp, bsp, "speedup must be bit-identical across engines {at}");
        assert_eq!(tt, bt, "chrome trace must be byte-identical across engines {at}");
    }
}
