//! Content-addressed memoization of kernel launches.
//!
//! A launch on the simulated device is a *pure* function of its content:
//! the plan's geometry-invariant fingerprint, the live launch geometry, the
//! device configuration, the host scalar environment, and the contents of
//! every device array the body can read. The tuning sweep re-runs thousands
//! of launches that are bit-identical under that key — tuning points share
//! their lowering basis, so for most kernels only one knob differs between
//! tasks while every other kernel repeats the exact same work. This module
//! pays for each distinct launch once per process and replays its complete
//! captured effect everywhere else: per-array output deltas, scalar
//! writebacks, the [`LaunchResult`], and the launch's per-site memory
//! evidence. A hit renders its trace events from that evidence through the
//! same function an executed launch emits through, so `RecordingSink`
//! output is byte-identical on a hit, and a sink-enabled launch replays
//! what a launch without one captured.
//!
//! Keys stay cheap through the generation tags on [`super::gpu::DeviceState`]
//! buffers ([`acceval_sim::BufGen`]): content digests are memoized per
//! (buffer, generation), and replay primes the written buffers' memos from
//! the stored output digests — so steady-state probes hash nothing.
//!
//! A miss captures from a first-write `Journal`: while the launch runs,
//! every device store goes through `DevTarget`, which logs the first write
//! to each element as (flat index, pre-launch bits). Capture then walks
//! only that log: changed elements form the sparse delta, and each one
//! swaps its term in the buffer's pre-launch digest (memoized by the key
//! build; [`acceval_sim::digest_update`]), so capture costs O(writes), plus
//! a copy of any buffer it captures dense.
//!
//! The cache is bounded (512 MiB of resident effects) with LRU eviction,
//! so iterative benchmarks whose inputs change every step miss cleanly
//! without ballooning memory. Hits, misses, evictions and digest time count
//! in [`crate::metrics`].
//!
//! Below the LRU sits an optional disk tier ([`super::store`]): an in-memory
//! miss probes the persistent store before executing, a disk hit is promoted
//! into the LRU, and captured effects are spilled write-behind — so a fresh
//! process warm-starts from everything earlier processes computed.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use acceval_sim::{digest_update, Buffer};

use super::gpu::{DeviceState, LaunchResult, SiteEvidence};
use crate::metrics::{self, Counter, Counters};
use crate::types::Value;

/// Launch-memoization policy (`ACCEVAL_LAUNCH_CACHE`). The cache is a speed
/// knob, never a results knob: every artifact is bit-identical on, off, and
/// across hit/miss patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchCache {
    /// Enabled (the default).
    On,
    /// Disabled: every launch executes.
    Off,
}

/// Process-wide override: 0 = unset (use env), 1 = on, 2 = off.
static CACHE_OVERRIDE: AtomicU8 = AtomicU8::new(0);
static CACHE_FROM_ENV: OnceLock<LaunchCache> = OnceLock::new();

/// The launch-memoization policy: an override installed by
/// [`set_launch_cache_override`] wins, else the `ACCEVAL_LAUNCH_CACHE`
/// environment variable (`on` | `off`), else [`LaunchCache::On`].
pub fn launch_cache() -> LaunchCache {
    match CACHE_OVERRIDE.load(Ordering::Relaxed) {
        1 => return LaunchCache::On,
        2 => return LaunchCache::Off,
        _ => {}
    }
    *CACHE_FROM_ENV.get_or_init(|| match std::env::var("ACCEVAL_LAUNCH_CACHE") {
        // Fail soft on a malformed value: a typo must not abort a launch
        // deep inside a parallel sweep. Front-end binaries catch it up
        // front via `crate::env::validate_env` and exit with usage.
        Ok(s) if crate::env::parse_toggle("ACCEVAL_LAUNCH_CACHE", &s) == Ok(crate::env::Toggle::Off) => {
            LaunchCache::Off
        }
        _ => LaunchCache::On,
    })
}

/// Force a launch-cache policy for this process (tests/benches), overriding
/// the environment. `None` returns control to `ACCEVAL_LAUNCH_CACHE`.
pub fn set_launch_cache_override(p: Option<LaunchCache>) {
    let v = match p {
        None => 0,
        Some(LaunchCache::On) => 1,
        Some(LaunchCache::Off) => 2,
    };
    CACHE_OVERRIDE.store(v, Ordering::Relaxed);
}

/// Short name of the active launch-cache policy, for manifests.
pub fn launch_cache_name() -> &'static str {
    match launch_cache() {
        LaunchCache::On => "on",
        LaunchCache::Off => "off",
    }
}

/// Whether memoization is enabled under the active policy.
pub fn launch_cache_enabled() -> bool {
    launch_cache() != LaunchCache::Off
}

// ---- capacity --------------------------------------------------------------

/// Resident-byte cap on cached launch effects when no override is set.
const DEFAULT_CAP: u64 = 512 << 20;

/// Byte-cap override installed by tests; `u64::MAX` means unset.
static CAP_OVERRIDE: AtomicU64 = AtomicU64::new(u64::MAX);

/// Resident-byte cap on cached launch effects: the override installed by
/// [`set_launch_cache_cap_override`] wins, else 512 MiB.
pub fn launch_cache_cap_bytes() -> u64 {
    match CAP_OVERRIDE.load(Ordering::Relaxed) {
        u64::MAX => DEFAULT_CAP,
        o => o,
    }
}

/// Force a byte cap for this process (tests exercise eviction under a tiny
/// cap). `None` restores the default.
pub fn set_launch_cache_cap_override(bytes: Option<u64>) {
    CAP_OVERRIDE.store(bytes.unwrap_or(u64::MAX), Ordering::Relaxed);
}

// ---- statistics ------------------------------------------------------------

/// Process-lifetime cache counters, for manifests and the sweep report.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTotals {
    /// Eligible probes answered from the in-memory LRU.
    pub hits: u64,
    /// Eligible probes answered from the persistent store (and promoted
    /// into the LRU).
    pub disk_hits: u64,
    /// Eligible probes that executed and (where possible) captured.
    pub misses: u64,
    /// Entries evicted under the byte cap.
    pub evictions: u64,
    /// Wall time spent hashing buffer contents and assembling keys.
    pub digest_secs: f64,
    /// Bytes currently resident in cached effects.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// Snapshot of the process-lifetime cache counters ([`Counters::process`])
/// and the LRU's current level.
pub fn launch_cache_totals() -> CacheTotals {
    let (resident_bytes, entries) = match store().lock() {
        Ok(s) => (s.bytes, s.map.len() as u64),
        Err(_) => (0, 0),
    };
    let c = Counters::process();
    CacheTotals {
        hits: c.get(Counter::LaunchCacheHits),
        disk_hits: c.get(Counter::LaunchCacheDiskHits),
        misses: c.get(Counter::LaunchCacheMisses),
        evictions: c.get(Counter::LaunchCacheEvictions),
        digest_secs: c.get(Counter::LaunchCacheDigestNs) as f64 * 1e-9,
        resident_bytes,
        entries,
    }
}

// ---- keys and effects ------------------------------------------------------

/// Content-addressed identity of one launch. Two launches with equal keys
/// have bit-identical effects: the plan fingerprint covers the body and
/// lowering decisions, the live fields cover geometry retargeting, the
/// config digest covers the priced device, the layout digest covers the
/// address-space layout and array extents, and the scalar/input vectors
/// cover every value the body can observe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LaunchKey {
    /// Geometry-invariant plan fingerprint ([`crate::kernel::EngineCache::fingerprint`]).
    pub plan_fp: u128,
    /// Live block shape (mutated by geometry retargeting, hence not in `plan_fp`).
    pub block: (u32, u32),
    /// Live static shared-memory footprint.
    pub shared_bytes: u32,
    /// Registers per thread (occupancy input).
    pub regs: u32,
    /// Digest of the device configuration.
    pub cfg_digest: u64,
    /// Digest of the device address-space layout: every array's allocation
    /// state, length, element type, and launch-time extents.
    pub layout_digest: u64,
    /// Full host scalar environment as (tag, raw bits) pairs.
    pub scalars: Vec<(u8, u64)>,
    /// Content digests of the readable device arrays, in array-id order;
    /// `None` marks an unallocated array.
    pub inputs: Vec<(u32, Option<u128>)>,
}

/// One array's captured output: what the launch did to the device copy.
#[derive(Debug, Clone)]
pub enum ArrayOut {
    /// The elements whose bits the launch changed, as (flat index, raw
    /// bits) in ascending index order, against the pre-launch contents
    /// (chosen when at most a quarter of the elements, plus one, changed).
    Sparse(Vec<(u32, u64)>),
    /// Dense replacement of the whole buffer: taken when more elements
    /// changed, or when the launch itself allocated the buffer.
    Full(Arc<Buffer>),
}

/// The complete captured effect of one launch.
#[derive(Debug, Clone)]
pub struct LaunchEffect {
    /// Per-array outputs, one per allocated array of the write set: (array
    /// index, delta, post-launch content digest). Capture derives the
    /// digest from the pre-launch one and the journaled changes; replay
    /// primes the buffer's generation memo with it.
    pub outputs: Vec<(u32, ArrayOut, u128)>,
    /// Scalar reduction writebacks: post-combine values per scalar slot.
    pub scalar_writes: Vec<(usize, Value)>,
    /// The launch's result (cost, totals, footprint, active threads).
    pub result: LaunchResult,
    /// The launch's non-empty memory-site evidence, in site order: what a
    /// replay renders its trace events from.
    pub sites: Vec<SiteEvidence>,
}

impl LaunchEffect {
    /// Approximate resident bytes of this effect, for the byte cap.
    ///
    /// Element costs come from `mem::size_of`, not hand-kept constants: a
    /// `Vec<(u32, u64)>` element occupies 16 bytes (alignment padding), not
    /// the 12 bytes of its fields, and dense buffers store every element as
    /// 8 bytes (`Vec<f64>`/`Vec<i64>`) regardless of the declared element
    /// width. Scalar writebacks and site evidence are accounted too.
    pub(crate) fn resident_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut b = (size_of::<LaunchKey>() + size_of::<Slot>() + size_of::<LaunchEffect>() + 64) as u64;
        for (_, out, _) in &self.outputs {
            b += size_of::<(u32, ArrayOut, u128)>() as u64;
            b += match out {
                ArrayOut::Sparse(w) => (w.len() * size_of::<(u32, u64)>()) as u64,
                ArrayOut::Full(buf) => (buf.len() * size_of::<u64>() + size_of::<Buffer>()) as u64,
            };
        }
        b += (self.scalar_writes.len() * size_of::<(usize, Value)>()) as u64;
        b += (self.sites.len() * size_of::<SiteEvidence>()) as u64;
        b
    }
}

// ---- the store -------------------------------------------------------------

struct Slot {
    effect: Arc<LaunchEffect>,
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct StoreInner {
    map: HashMap<Arc<LaunchKey>, Slot>,
    /// Recency index: each resident key under its slot's `last_used` tick.
    /// Ticks are unique, so the first entry is the least recently used.
    lru: BTreeMap<u64, Arc<LaunchKey>>,
    bytes: u64,
    tick: u64,
}

static STORE: OnceLock<Mutex<StoreInner>> = OnceLock::new();

fn store() -> &'static Mutex<StoreInner> {
    STORE.get_or_init(|| Mutex::new(StoreInner::default()))
}

/// Look up a launch by key, refreshing its LRU stamp on a hit.
pub fn probe(key: &LaunchKey) -> Option<Arc<LaunchEffect>> {
    let mut guard = store().lock().expect("launch cache poisoned");
    let s = &mut *guard;
    s.tick += 1;
    let slot = s.map.get_mut(key)?;
    let k = s.lru.remove(&slot.last_used).expect("resident key is in the recency index");
    slot.last_used = s.tick;
    s.lru.insert(s.tick, k);
    Some(slot.effect.clone())
}

/// Which tier answered a [`probe_two_tier`] lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeTier {
    /// The in-memory LRU.
    Memory,
    /// The persistent store ([`super::store`]); the effect was promoted
    /// into the LRU on the way out.
    Disk,
}

/// Two-tier lookup: the in-memory LRU first, then the persistent store. A
/// disk hit is decoded, promoted into the LRU (without re-spilling), and
/// reported with [`ProbeTier::Disk`] so callers can attribute it.
pub fn probe_two_tier(key: &LaunchKey) -> Option<(Arc<LaunchEffect>, ProbeTier)> {
    if let Some(e) = probe(key) {
        return Some((e, ProbeTier::Memory));
    }
    let eff = Arc::new(super::store::probe_effect(key)?);
    insert_arc(key.clone(), eff.clone());
    Some((eff, ProbeTier::Disk))
}

/// Insert a captured effect, evicting least-recently-used entries to stay
/// under the byte cap, and spill it write-behind to the persistent store
/// (when enabled). An effect that alone exceeds the in-memory cap is not
/// LRU-cached but is still spilled — the disk tier has its own cap.
pub fn insert(key: LaunchKey, effect: LaunchEffect) {
    let effect = Arc::new(effect);
    super::store::spill_effect(&key, &effect);
    insert_arc(key, effect);
}

/// LRU-only insert (no disk spill): shared by [`insert`] and the disk-hit
/// promotion in [`probe_two_tier`], which must not write back what it just
/// read.
fn insert_arc(key: LaunchKey, effect: Arc<LaunchEffect>) {
    let bytes = effect.resident_bytes();
    let cap = launch_cache_cap_bytes();
    if bytes > cap {
        return;
    }
    let mut guard = store().lock().expect("launch cache poisoned");
    let s = &mut *guard;
    s.tick += 1;
    let key = Arc::new(key);
    if let Some(old) = s.map.insert(key.clone(), Slot { effect, bytes, last_used: s.tick }) {
        s.bytes -= old.bytes;
        s.lru.remove(&old.last_used);
    }
    s.lru.insert(s.tick, key);
    s.bytes += bytes;
    while s.bytes > cap {
        let Some((_, victim)) = s.lru.pop_first() else {
            break;
        };
        let slot = s.map.remove(&victim).expect("victim present");
        s.bytes -= slot.bytes;
        metrics::add(Counter::LaunchCacheEvictions, 1);
    }
}

/// Drop every cached effect (cold-start for benches and tests). Counters
/// are left running; eviction of cleared entries is not counted.
pub fn clear_launch_cache() {
    let mut s = store().lock().expect("launch cache poisoned");
    s.map.clear();
    s.lru.clear();
    s.bytes = 0;
}

// ---- capture journal -------------------------------------------------------

/// First-write journal of one captured launch, per program array. Between
/// launches every `seen` bitmap is all zero and every log empty; the
/// bitmaps (and small logs) stay allocated, per thread (see
/// [`Journal::take`]), for the next launch.
#[derive(Default)]
pub(crate) struct Journal {
    arrays: Vec<ArrayLog>,
}

#[derive(Default)]
struct ArrayLog {
    /// The buffer's pre-launch content digest while the array is journaled
    /// (an allocated array of the launch's write set); `None` otherwise.
    pre: Option<u128>,
    /// One bit per element: already logged this launch.
    seen: Vec<u64>,
    /// (flat index, pre-launch bits) of each element's first write.
    log: Vec<(usize, u64)>,
}

impl ArrayLog {
    /// The one journaling write: log element `i`'s pre-launch bits `old`
    /// unless an earlier store this launch already did.
    #[inline]
    fn note(&mut self, i: usize, old: u64) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if self.seen[w] & bit == 0 {
            self.seen[w] |= bit;
            self.log.push((i, old));
        }
    }

    /// Close the log against the post-launch buffer: the output delta and
    /// the post-launch digest, leaving the bitmap zeroed and the log empty.
    fn drain(&mut self, post: &Buffer, pre: u128) -> (ArrayOut, u128) {
        let mut digest = pre;
        let mut changes = 0usize;
        for &(i, old) in &self.log {
            // Every set bit belongs to a logged element, so zeroing whole
            // words clears the bitmap.
            self.seen[i / 64] = 0;
            let new = post.bits(i);
            if new != old {
                digest = digest_update(digest, i, old, new);
                changes += 1;
            }
        }
        let n = post.len();
        let out = if changes > n / 4 + 1 || n > u32::MAX as usize {
            ArrayOut::Full(Arc::new(post.clone()))
        } else {
            let mut delta: Vec<(u32, u64)> = Vec::with_capacity(changes);
            for &(i, old) in &self.log {
                let new = post.bits(i);
                if new != old {
                    delta.push((i as u32, new));
                }
            }
            delta.sort_unstable_by_key(|&(i, _)| i);
            ArrayOut::Sparse(delta)
        };
        self.log.clear();
        // The journal outlives the launch: keep a small log's allocation for
        // the next one, but free a large one rather than hold on to the
        // largest write set this thread ever journaled.
        self.log.shrink_to(RETAINED_LOG_ENTRIES);
        (out, digest)
    }
}

/// Log entries (16 bytes each) an array's journal keeps allocated between
/// launches.
const RETAINED_LOG_ENTRIES: usize = 4096;

impl Journal {
    /// Start journaling a launch whose write set is `writes`: each array of
    /// it that is already allocated, with its pre-launch digest (memoized by
    /// the key build, since the write set is part of the read set).
    pub(crate) fn open(&mut self, writes: &[usize], dev: &mut DeviceState) {
        if self.arrays.len() < dev.bufs.len() {
            self.arrays.resize_with(dev.bufs.len(), ArrayLog::default);
        }
        for &a in writes {
            let Some(buf) = dev.bufs[a].as_ref() else { continue };
            let log = &mut self.arrays[a];
            log.pre = Some(dev.tags[a].digest(buf).0);
            let words = buf.len().div_ceil(64);
            if log.seen.len() < words {
                log.seen.resize(words, 0);
            }
        }
    }

    /// The launch's array outputs, one per allocated array of `writes`, with
    /// their post-launch digests; closes the journal for the next launch. A
    /// journaled array yields its changed elements (or a dense copy); an
    /// array the launch itself allocated (an array-reduction target) is
    /// copied and hashed whole.
    pub(crate) fn capture(&mut self, writes: &[usize], bufs: &[Option<Buffer>]) -> Vec<(u32, ArrayOut, u128)> {
        let mut outputs = Vec::with_capacity(writes.len());
        for &a in writes {
            let log = &mut self.arrays[a];
            let pre = log.pre.take();
            let Some(post) = bufs[a].as_ref() else { continue };
            let (out, digest) = match pre {
                Some(pre) => log.drain(post, pre),
                None => (ArrayOut::Full(Arc::new(post.clone())), post.content_digest()),
            };
            outputs.push((a as u32, out, digest));
        }
        outputs
    }

    /// The store target of array `a`'s buffer: journaled while `a` is.
    #[inline]
    fn target<'a>(&'a mut self, a: usize, buf: &'a mut Buffer) -> DevTarget<'a> {
        let log = self.arrays.get_mut(a).filter(|l| l.pre.is_some());
        DevTarget { buf, log }
    }
}

thread_local! {
    static JOURNAL: Cell<Journal> = const { Cell::new(Journal { arrays: Vec::new() }) };
}

impl Journal {
    /// This thread's journal, reused across launches (an empty one while
    /// another launch on this thread holds it).
    pub(crate) fn take() -> Journal {
        JOURNAL.with(Cell::take)
    }

    /// Return a closed journal for the thread's next launch. A launch that
    /// panics never gets here: it drops its journal with whatever it
    /// logged, so no later launch sees stale bits.
    pub(crate) fn recycle(self) {
        JOURNAL.with(|c| c.set(self));
    }
}

/// A launch's device buffers (indexed by array; `None` when never
/// allocated) together with its capture journal (`None` when the launch is
/// not captured: cache off, opaque or texture body).
pub(crate) struct DeviceBufs<'a> {
    pub(crate) bufs: &'a mut [Option<Buffer>],
    pub(crate) journal: Option<&'a mut Journal>,
}

impl DeviceBufs<'_> {
    /// A shorter-lived view of the same buffers and journal.
    #[inline]
    pub(crate) fn reborrow(&mut self) -> DeviceBufs<'_> {
        DeviceBufs { bufs: &mut *self.bufs, journal: self.journal.as_deref_mut() }
    }

    /// Device array `a` for loads; a kernel read of an array that was never
    /// allocated panics (the tree walker's message).
    #[inline]
    pub(crate) fn read(&self, a: usize) -> &Buffer {
        self.bufs[a].as_ref().unwrap_or_else(|| panic!("kernel read of unallocated device array {a}"))
    }

    /// Device array `a` for stores, through the journal when the launch is
    /// captured; panics like the tree walker when `a` was never allocated.
    #[inline]
    pub(crate) fn write(&mut self, a: usize) -> DevTarget<'_> {
        let buf = self.bufs[a].as_mut().unwrap_or_else(|| panic!("kernel write of unallocated device array {a}"));
        match self.journal.as_deref_mut() {
            Some(j) => j.target(a, buf),
            None => DevTarget::plain(buf),
        }
    }
}

/// One device array opened for stores. Every device store of a launch (the
/// closures, the tree walker, the array-reduction combine) goes through
/// [`DevTarget::set_f`]/[`DevTarget::set_i`]; an unjournaled target pays
/// one branch per store.
pub(crate) struct DevTarget<'a> {
    buf: &'a mut Buffer,
    log: Option<&'a mut ArrayLog>,
}

impl<'a> DevTarget<'a> {
    /// An unjournaled target: a device array of a launch that is not
    /// captured, or a buffer outside the device image (an array
    /// reduction's launch accumulator).
    #[inline]
    pub(crate) fn plain(buf: &'a mut Buffer) -> Self {
        DevTarget { buf, log: None }
    }
}

impl DevTarget<'_> {
    /// The buffer, for reads.
    #[inline]
    pub(crate) fn buf(&self) -> &Buffer {
        self.buf
    }

    /// Store `x` into element `i` (converted as [`Buffer::set_f`] converts).
    #[inline]
    pub(crate) fn set_f(&mut self, i: usize, x: f64) {
        self.journal(i);
        self.buf.set_f(i, x);
    }

    /// Store `x` into element `i` (converted as [`Buffer::set_i`] converts).
    #[inline]
    pub(crate) fn set_i(&mut self, i: usize, x: i64) {
        self.journal(i);
        self.buf.set_i(i, x);
    }

    #[inline]
    fn journal(&mut self, i: usize) {
        if let Some(log) = self.log.as_deref_mut() {
            // Read the old bits first: an out-of-range index then panics
            // exactly as the store itself would.
            log.note(i, self.buf.bits(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_parsing_and_override() {
        set_launch_cache_cap_override(Some(1 << 16));
        assert_eq!(launch_cache_cap_bytes(), 1 << 16);
        set_launch_cache_cap_override(None);
        assert!(launch_cache_cap_bytes() >= 1 << 20, "default cap is at least a MiB");
    }

    #[test]
    fn policy_override_round_trip() {
        set_launch_cache_override(Some(LaunchCache::Off));
        assert!(!launch_cache_enabled());
        assert_eq!(launch_cache_name(), "off");
        set_launch_cache_override(Some(LaunchCache::On));
        assert!(launch_cache_enabled());
        set_launch_cache_override(None);
    }
}
