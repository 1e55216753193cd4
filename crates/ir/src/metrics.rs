//! The one registry of harness counters.
//!
//! Every count and timer the harness keeps about itself (launch-cache
//! probes, engine choices, kernel compiles, persistent-store traffic) is a
//! [`Counter`] with a dotted `layer.name` key, and [`add`] is the one way to
//! bump it. Each bump lands twice: in a process-wide atomic, and in the
//! calling thread's cell. A sweep snapshots [`Counters::thread`] around each
//! task, whose launches never leave its thread, so the delta is that task's;
//! [`Counters::process`] holds lifetime totals, including work done on
//! threads nobody snapshots (the store's spiller).
//!
//! Timers are counters in nanoseconds ([`timed`]). Levels such as resident
//! bytes are not counters and stay with the structure they measure.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::{Json, Serialize};

/// Declares [`Counter`] from one list, so a counter's variant, key and
/// place in [`Counter::ALL`] cannot drift apart.
macro_rules! registry {
    ($($(#[$doc:meta])* $variant:ident => $key:literal,)*) => {
        /// A registry key. Adding a counter is one line in this list;
        /// every record that carries [`Counters`] picks it up.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every key, in registry (and serialization) order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)*];

            /// The dotted `layer.name` key records serialize this counter
            /// under.
            pub fn key(self) -> &'static str {
                match self {
                    $(Counter::$variant => $key,)*
                }
            }
        }
    };
}

registry! {
    /// Eligible launch probes answered from the in-memory LRU.
    LaunchCacheHits => "launch_cache.hits",
    /// Eligible launch probes answered from the persistent store.
    LaunchCacheDiskHits => "launch_cache.disk_hits",
    /// Eligible launch probes that executed (and captured where possible).
    LaunchCacheMisses => "launch_cache.misses",
    /// LRU entries evicted under the byte cap.
    LaunchCacheEvictions => "launch_cache.evictions",
    /// Nanoseconds spent hashing buffer contents and assembling keys.
    LaunchCacheDigestNs => "launch_cache.digest_ns",
    /// Launches executed through the native closures.
    EngineNativeLaunches => "engine.native_launches",
    /// Launches the default engine handed to the tree walker (an ineligible
    /// plan, or a warp width the cached closures were not built for).
    EngineTreeFallbacks => "engine.tree_fallbacks",
    /// Kernel plans compiled to typed bytecode (once per plan).
    CompileKernels => "compile.kernels",
    /// Instructions in those kernels' typed streams.
    CompileOps => "compile.ops",
    /// Store probes answered from disk (launch effects and oracle blobs).
    StoreDiskHits => "store.disk_hits",
    /// Store probes that found nothing usable.
    StoreDiskMisses => "store.disk_misses",
    /// Entries written by the spiller.
    StoreSpills => "store.spills",
    /// Bytes written by the spiller.
    StoreSpillBytes => "store.spill_bytes",
    /// Spills dropped (queue full, store disabled mid-flight, I/O error).
    StoreSpillDrops => "store.spill_drops",
    /// Entries moved to quarantine after failing verification.
    StoreQuarantined => "store.quarantined",
    /// Entries evicted under the disk byte cap.
    StoreEvicted => "store.evicted",
    /// Nanoseconds spent in disk probes.
    StoreProbeNs => "store.probe_ns",
}

/// Number of registry keys.
const N: usize = Counter::ALL.len();

static PROCESS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];

thread_local! {
    static THREAD: [Cell<u64>; N] = const { [const { Cell::new(0) }; N] };
}

/// Add `n` to counter `c`, process-wide and on the calling thread.
pub fn add(c: Counter, n: u64) {
    PROCESS[c as usize].fetch_add(n, Ordering::Relaxed);
    THREAD.with(|t| t[c as usize].set(t[c as usize].get() + n));
}

/// Run `f`, adding its wall time in nanoseconds to the timer `c`.
pub fn timed<T>(c: Counter, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    add(c, t0.elapsed().as_nanos() as u64);
    r
}

/// A snapshot of every counter, or a difference or sum of snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters([u64; N]);

impl Counters {
    /// The calling thread's cumulative counts.
    pub fn thread() -> Counters {
        THREAD.with(|t| Counters(std::array::from_fn(|i| t[i].get())))
    }

    /// The process-lifetime counts, over every thread.
    pub fn process() -> Counters {
        Counters(std::array::from_fn(|i| PROCESS[i].load(Ordering::Relaxed)))
    }

    /// The counts accumulated since `earlier`, a snapshot of the same scope.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    /// One counter's value.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }
}

impl std::ops::AddAssign<&Counters> for Counters {
    fn add_assign(&mut self, rhs: &Counters) {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a += b;
        }
    }
}

impl<'a> std::iter::Sum<&'a Counters> for Counters {
    fn sum<I: Iterator<Item = &'a Counters>>(iter: I) -> Counters {
        iter.fold(Counters::default(), |mut acc, c| {
            acc += c;
            acc
        })
    }
}

/// A JSON object with one entry per counter, keyed by [`Counter::key`] in
/// registry order.
impl Serialize for Counters {
    fn to_json(&self) -> Json {
        Json::Obj(Counter::ALL.iter().map(|&c| (c.key().to_string(), Json::U(self.get(c)))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spawned_threads_counts_reach_the_process_not_the_spawner() {
        let (t0, p0) = (Counters::thread(), Counters::process());
        std::thread::spawn(|| add(Counter::StoreSpills, 3)).join().expect("spawned thread panicked");
        assert_eq!(Counters::thread().since(&t0).get(Counter::StoreSpills), 0);
        // Other tests bump counters concurrently, so the process delta is
        // at least this thread's three.
        assert!(Counters::process().since(&p0).get(Counter::StoreSpills) >= 3);
        add(Counter::StoreSpills, 2);
        assert_eq!(Counters::thread().since(&t0).get(Counter::StoreSpills), 2);
    }

    #[test]
    fn since_subtracts_element_by_element() {
        let mut a = Counters::default();
        let mut b = Counters::default();
        for (i, c) in Counter::ALL.iter().enumerate() {
            a.0[*c as usize] = 10 * i as u64 + 7;
            b.0[*c as usize] = 3 * i as u64;
        }
        let d = a.since(&b);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(d.get(*c), 7 * i as u64 + 7, "{}", c.key());
        }
        let s: Counters = [b, d].iter().sum();
        assert_eq!(s, a, "a sum of a snapshot and a delta restores the later snapshot");
    }

    #[test]
    fn json_has_one_key_per_counter_in_registry_order() {
        let mut c = Counters::default();
        c.0[Counter::CompileOps as usize] = 42;
        let Json::Obj(fields) = c.to_json() else { panic!("counters must serialize as an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "launch_cache.hits",
                "launch_cache.disk_hits",
                "launch_cache.misses",
                "launch_cache.evictions",
                "launch_cache.digest_ns",
                "engine.native_launches",
                "engine.tree_fallbacks",
                "compile.kernels",
                "compile.ops",
                "store.disk_hits",
                "store.disk_misses",
                "store.spills",
                "store.spill_bytes",
                "store.spill_drops",
                "store.quarantined",
                "store.evicted",
                "store.probe_ns",
            ]
        );
        assert_eq!(fields[8].1, Json::U(42));
    }
}
