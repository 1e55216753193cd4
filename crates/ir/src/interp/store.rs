//! Disk-persisted, content-addressed backing tier for the launch-result LRU.
//!
//! The in-memory cache in [`super::launch_cache`] dies with the process, so
//! every fresh `report` invocation pays cold caches again. This module gives
//! the same content-addressed keys a durable home: on an in-memory miss the
//! executor probes the store before executing, and captured effects are
//! spilled write-behind so a later process warm-starts from disk. The CPU
//! oracle memos in `acceval-core` spill through the same blob API.
//!
//! **On-disk layout** (under the store root, default
//! `results/.acceval-store/`):
//!
//! ```text
//! v1/<2-hex-shard>/<32-hex-address>.bin   one entry per file
//! v1/tmp/                                 staging for atomic renames
//! v1/quarantine/                          entries that failed verification
//! v1/evict.lock                           advisory lock for eviction/clear
//! ```
//!
//! The address is a [`Digest128`] of (entry kind, build epoch, full key
//! bytes). The digest is weak, so every entry *stores* its key and a probe
//! compares key bytes after the checksum passes — correctness never rests on
//! hash strength, a collision is just a miss. The build epoch (executable
//! length + mtime) is folded into the address so entries captured under a
//! different cost model can never match.
//!
//! **Capacity**: the store holds at most 2 GiB (tests install a smaller cap
//! through [`set_store_cap_override`]); probes, spills, quarantines and
//! evictions count in [`crate::metrics`].
//!
//! **Fail-soft**: the store is a speed tier, never a correctness tier. Any
//! I/O error is a miss (probe) or a dropped spill (insert). A truncated,
//! corrupt, or version-mismatched entry is moved to `quarantine/` and
//! reported as a miss; nothing in this module panics on bad disk state.
//!
//! **Concurrency**: writers stage entries in `tmp/` and publish with an
//! atomic same-directory rename, so readers only ever see complete files.
//! Entry files are immutable after publish (hits re-touch only the mtime,
//! which drives LRU eviction). Eviction and `clear` serialize on an
//! advisory `evict.lock` created with `create_new`, with stale-lock
//! stealing, so parallel sweeps can share one store.

use std::collections::VecDeque;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, SystemTime};

use acceval_sim::{AccessSummary, Buffer, Digest128, ElemType, Payload, SharedSummary};

use super::gpu::{LaunchResult, SiteEvidence};
use super::launch_cache::{ArrayOut, LaunchEffect, LaunchKey};
use crate::env::{self, StoreMode};
use crate::metrics::{self, Counter, Counters};
use crate::types::Value;

/// On-disk entry kind for launch effects.
pub const KIND_LAUNCH: u8 = 1;
/// On-disk entry kind for CPU-oracle runs (spilled by `acceval-core`).
pub const KIND_ORACLE: u8 = 2;

const MAGIC: &[u8; 8] = b"ACEVSTR1";
/// Entry-format version, checked by every probe: bump it whenever the key
/// bytes or a payload codec change, so an older entry is a quarantined miss.
const VERSION: u32 = 2;

/// Subdirectory holding every entry. It stays `v1` across entry-format
/// versions, so eviction and `report store clear` still reach the files
/// older builds left.
const LAYOUT: &str = "v1";

/// Default store root when `ACCEVAL_STORE` is `on` or auto-enabled.
const DEFAULT_ROOT: &str = "results/.acceval-store";

/// Byte cap when no override is set: 2 GiB.
const DEFAULT_CAP: u64 = 2048 << 20;

/// Bytes the write-behind queue may hold before further spills are dropped
/// (the store is best-effort; a stalled disk must not balloon memory).
const QUEUE_CAP: u64 = 256 << 20;

/// Advisory locks older than this are presumed abandoned and stolen.
const LOCK_STALE: Duration = Duration::from_secs(300);

// ---- mode and capacity -----------------------------------------------------

static MODE_OVERRIDE: Mutex<Option<StoreMode>> = Mutex::new(None);
static MODE_FROM_ENV: OnceLock<StoreMode> = OnceLock::new();

/// Byte-cap override installed by tests; `u64::MAX` means unset.
static CAP_OVERRIDE: AtomicU64 = AtomicU64::new(u64::MAX);

/// The persistent-store mode: an override installed by
/// [`set_store_override`] wins, else `ACCEVAL_STORE`
/// (`auto` | `on` | `off` | a directory path), else [`StoreMode::Auto`].
/// A malformed value falls back to `Auto` (front-end binaries catch it up
/// front via [`crate::env::validate_env`]).
pub fn store_mode() -> StoreMode {
    if let Ok(o) = MODE_OVERRIDE.lock() {
        if let Some(m) = o.as_ref() {
            return m.clone();
        }
    }
    MODE_FROM_ENV
        .get_or_init(|| match std::env::var("ACCEVAL_STORE") {
            Ok(s) => env::parse_store_mode(&s).unwrap_or(StoreMode::Auto),
            Err(_) => StoreMode::Auto,
        })
        .clone()
}

/// Force a store mode for this process (tests/benches), overriding the
/// environment. `None` returns control to `ACCEVAL_STORE`.
pub fn set_store_override(m: Option<StoreMode>) {
    if let Ok(mut o) = MODE_OVERRIDE.lock() {
        *o = m;
    }
}

/// Short name of the active store policy, for manifests.
pub fn store_policy_name() -> &'static str {
    match store_mode() {
        StoreMode::Auto => {
            if store_root().is_some() {
                "auto"
            } else {
                "auto-off"
            }
        }
        StoreMode::On => "on",
        StoreMode::Off => "off",
        StoreMode::Path(_) => "path",
    }
}

/// The active store root, or `None` when the store is disabled.
///
/// `Auto` enables the store only where the evaluation harness actually runs:
/// when a `results/` directory already exists in the working directory. That
/// keeps plain `cargo test` invocations (whose working directory is a crate
/// root) from sprouting store directories all over the tree, while `report`
/// — which creates `results/` for its artifacts — warm-starts from the
/// second invocation on.
pub fn store_root() -> Option<PathBuf> {
    match store_mode() {
        StoreMode::Off => None,
        StoreMode::On => Some(PathBuf::from(DEFAULT_ROOT)),
        StoreMode::Path(p) => Some(p),
        StoreMode::Auto => {
            if Path::new("results").is_dir() {
                Some(PathBuf::from(DEFAULT_ROOT))
            } else {
                None
            }
        }
    }
}

/// Whether the store is enabled (probes and spills happen).
pub fn store_enabled() -> bool {
    store_root().is_some()
}

/// Byte cap on the on-disk store: the override installed by
/// [`set_store_cap_override`] wins, else 2 GiB.
pub fn store_cap_bytes() -> u64 {
    match CAP_OVERRIDE.load(Ordering::Relaxed) {
        u64::MAX => DEFAULT_CAP,
        o => o,
    }
}

/// Force a store byte cap for this process (tests exercise eviction under a
/// tiny cap). `None` restores the default.
pub fn set_store_cap_override(bytes: Option<u64>) {
    CAP_OVERRIDE.store(bytes.unwrap_or(u64::MAX), Ordering::Relaxed);
}

// ---- build epoch -----------------------------------------------------------

/// Epoch folded into every on-disk address. Entries record the simulator's
/// *outputs*, so an entry captured by a different build (different cost
/// model, different capture format) must be unreachable: the epoch digests
/// the current executable's length and mtime.
fn store_epoch() -> u64 {
    static EPOCH: OnceLock<u64> = OnceLock::new();
    *EPOCH.get_or_init(|| {
        let mut d = Digest128::new();
        d.push(0xb11d);
        if let Ok(meta) = std::env::current_exe().and_then(fs::metadata) {
            d.push(meta.len());
            if let Ok(mtime) = meta.modified() {
                if let Ok(age) = mtime.duration_since(SystemTime::UNIX_EPOCH) {
                    d.push(age.as_secs());
                    d.push(age.subsec_nanos() as u64);
                }
            }
        }
        let f = d.finish();
        (f >> 64) as u64 ^ f as u64
    })
}

// ---- statistics ------------------------------------------------------------

/// Approximate resident bytes across the store, maintained by this process's
/// writes and trued up by eviction scans. `u64::MAX` = not yet seeded.
static APPROX_BYTES: AtomicU64 = AtomicU64::new(u64::MAX);

/// Process-lifetime store counters, for manifests and `report -- store`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreTotals {
    /// Probes answered from disk.
    pub disk_hits: u64,
    /// Probes that went to disk and found nothing usable.
    pub disk_misses: u64,
    /// Entries written by the spiller.
    pub spills: u64,
    /// Bytes written by the spiller.
    pub spill_bytes: u64,
    /// Spills dropped (queue full, store disabled mid-flight, I/O error).
    pub spill_drops: u64,
    /// Entries moved to quarantine after failing verification.
    pub quarantined: u64,
    /// Entries evicted under the byte cap.
    pub evicted: u64,
    /// Wall time spent in disk probes.
    pub probe_secs: f64,
}

/// Snapshot of the process-lifetime store counters ([`Counters::process`]).
pub fn store_totals() -> StoreTotals {
    let c = Counters::process();
    StoreTotals {
        disk_hits: c.get(Counter::StoreDiskHits),
        disk_misses: c.get(Counter::StoreDiskMisses),
        spills: c.get(Counter::StoreSpills),
        spill_bytes: c.get(Counter::StoreSpillBytes),
        spill_drops: c.get(Counter::StoreSpillDrops),
        quarantined: c.get(Counter::StoreQuarantined),
        evicted: c.get(Counter::StoreEvicted),
        probe_secs: c.get(Counter::StoreProbeNs) as f64 * 1e-9,
    }
}

// ---- binary codec ----------------------------------------------------------

/// Append-only little-endian encoder for store payloads. Public so
/// `acceval-core` can serialize oracle runs through the same framing.
#[derive(Debug, Default)]
pub struct Enc {
    /// The encoded bytes.
    pub buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }
    /// Append a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u128.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append an f64 as raw bits (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Append a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// Append a tagged [`Value`] (bit-exact round trip).
    pub fn value(&mut self, v: &Value) {
        enc_value(self, v);
    }
    /// Append a [`Buffer`]: element type, storage kind, and raw element bits.
    pub fn buffer(&mut self, b: &Buffer) {
        enc_buffer(self, b);
    }
}

/// Cursor-based decoder over a store payload. Every read is checked: a
/// truncated payload yields `None`, never a panic.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    /// Decode from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, at: 0 }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(s)
    }
    /// Read a byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    /// Read a little-endian u128.
    pub fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }
    /// Read an f64 from raw bits.
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    /// Read a length-prefixed string.
    pub fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }
    /// Read a tagged [`Value`].
    pub fn value(&mut self) -> Option<Value> {
        dec_value(self)
    }
    /// Read a [`Buffer`].
    pub fn buffer(&mut self) -> Option<Buffer> {
        dec_buffer(self)
    }
    /// True when the whole payload has been consumed.
    pub fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

// ---- entry framing ---------------------------------------------------------

fn address(kind: u8, key: &[u8]) -> u128 {
    let mut d = Digest128::new();
    d.push(kind as u64);
    d.push(store_epoch());
    d.push_bytes(key);
    d.finish()
}

fn entry_path(root: &Path, addr: u128) -> PathBuf {
    let hex = format!("{addr:032x}");
    root.join(LAYOUT).join(&hex[..2]).join(format!("{hex}.bin"))
}

fn checksum(version: u32, kind: u8, epoch: u64, key: &[u8], payload: &[u8]) -> u128 {
    let mut d = Digest128::new();
    d.push(version as u64);
    d.push(kind as u64);
    d.push(epoch);
    d.push_bytes(key);
    d.push_bytes(payload);
    d.finish()
}

/// Serialize a complete entry file: magic, version, kind, epoch,
/// length-prefixed key and payload, trailing checksum.
fn frame(kind: u8, key: &[u8], payload: &[u8]) -> Vec<u8> {
    let epoch = store_epoch();
    let mut e = Enc::new();
    e.buf.extend_from_slice(MAGIC);
    e.u32(VERSION);
    e.u8(kind);
    e.u64(epoch);
    e.u32(key.len() as u32);
    e.buf.extend_from_slice(key);
    e.u64(payload.len() as u64);
    e.buf.extend_from_slice(payload);
    e.u128(checksum(VERSION, kind, epoch, key, payload));
    e.buf
}

/// Why a read entry could not be used.
enum Unusable {
    /// Structurally bad: truncated, wrong magic/version/checksum. Quarantine.
    Corrupt,
    /// Well-formed entry for a different key or epoch (weak-hash collision or
    /// shared store across builds). Just a miss; the entry stays.
    Mismatch,
}

/// Verify a raw entry file against the expected (kind, key); on success
/// return the payload slice.
fn verify<'a>(data: &'a [u8], kind: u8, key: &[u8]) -> Result<&'a [u8], Unusable> {
    let mut d = Dec::new(data);
    if d.take(MAGIC.len()) != Some(&MAGIC[..]) {
        return Err(Unusable::Corrupt);
    }
    let version = d.u32().ok_or(Unusable::Corrupt)?;
    if version != VERSION {
        return Err(Unusable::Corrupt);
    }
    let ekind = d.u8().ok_or(Unusable::Corrupt)?;
    let epoch = d.u64().ok_or(Unusable::Corrupt)?;
    let klen = d.u32().ok_or(Unusable::Corrupt)? as usize;
    let ekey = d.take(klen).ok_or(Unusable::Corrupt)?;
    let plen = d.u64().ok_or(Unusable::Corrupt)? as usize;
    let payload = d.take(plen).ok_or(Unusable::Corrupt)?;
    let sum = d.u128().ok_or(Unusable::Corrupt)?;
    if !d.done() || sum != checksum(version, ekind, epoch, ekey, payload) {
        return Err(Unusable::Corrupt);
    }
    if ekind != kind || epoch != store_epoch() || ekey != key {
        return Err(Unusable::Mismatch);
    }
    Ok(payload)
}

fn quarantine(root: &Path, path: &Path) {
    let qdir = root.join(LAYOUT).join("quarantine");
    if fs::create_dir_all(&qdir).is_err() {
        let _ = fs::remove_file(path);
        metrics::add(Counter::StoreQuarantined, 1);
        return;
    }
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_else(|| "entry".into());
    let dst = qdir.join(format!("{}-{name}", std::process::id()));
    if fs::rename(path, &dst).is_err() {
        // Cross-process race or odd filesystem: removing is as good as
        // quarantining for fail-soft purposes.
        let _ = fs::remove_file(path);
    }
    metrics::add(Counter::StoreQuarantined, 1);
}

// ---- probe (synchronous) ---------------------------------------------------

/// Look up a blob by (kind, key). Any failure — absent entry, I/O error,
/// corrupt file (quarantined), key/epoch mismatch — is a miss.
pub fn get_blob(kind: u8, key: &[u8]) -> Option<Vec<u8>> {
    let root = store_root()?;
    let r = metrics::timed(Counter::StoreProbeNs, || get_blob_at(&root, kind, key));
    metrics::add(if r.is_some() { Counter::StoreDiskHits } else { Counter::StoreDiskMisses }, 1);
    r
}

fn get_blob_at(root: &Path, kind: u8, key: &[u8]) -> Option<Vec<u8>> {
    let path = entry_path(root, address(kind, key));
    let data = fs::read(&path).ok()?;
    match verify(&data, kind, key) {
        Ok(payload) => {
            let payload = payload.to_vec();
            // Touch the mtime so LRU eviction sees the hit. Best-effort:
            // the entry may have been evicted by another process between
            // the read and the touch.
            if let Ok(f) = fs::OpenOptions::new().append(true).open(&path) {
                let _ = f.set_modified(SystemTime::now());
            }
            Some(payload)
        }
        Err(Unusable::Corrupt) => {
            quarantine(root, &path);
            None
        }
        Err(Unusable::Mismatch) => None,
    }
}

// ---- write-behind spiller --------------------------------------------------

struct Job {
    root: PathBuf,
    cap: u64,
    kind: u8,
    key: Vec<u8>,
    payload: Payload2,
}

/// Deferred payload: launch effects serialize on the spiller thread so the
/// executor's critical path pays only an enqueue.
enum Payload2 {
    Bytes(Vec<u8>),
    Effect { key: LaunchKey, effect: std::sync::Arc<LaunchEffect> },
}

struct Spool {
    jobs: VecDeque<Job>,
    queued_bytes: u64,
    busy: bool,
    started: bool,
}

fn spool() -> &'static (Mutex<Spool>, Condvar) {
    static SPOOL: OnceLock<(Mutex<Spool>, Condvar)> = OnceLock::new();
    SPOOL.get_or_init(|| {
        (Mutex::new(Spool { jobs: VecDeque::new(), queued_bytes: 0, busy: false, started: false }), Condvar::new())
    })
}

fn enqueue(job: Job, est_bytes: u64) {
    let (lock, cv) = spool();
    let Ok(mut s) = lock.lock() else {
        metrics::add(Counter::StoreSpillDrops, 1);
        return;
    };
    if s.queued_bytes.saturating_add(est_bytes) > QUEUE_CAP {
        metrics::add(Counter::StoreSpillDrops, 1);
        return;
    }
    if !s.started {
        s.started = true;
        std::thread::Builder::new()
            .name("acceval-store-spiller".into())
            .spawn(spiller_loop)
            .map(|_| ())
            .unwrap_or_else(|_| s.started = false);
        if !s.started {
            metrics::add(Counter::StoreSpillDrops, 1);
            return;
        }
    }
    s.queued_bytes += est_bytes;
    s.jobs.push_back(job);
    cv.notify_all();
}

fn spiller_loop() {
    let (lock, cv) = spool();
    loop {
        let job = {
            let Ok(mut s) = lock.lock() else { return };
            loop {
                if let Some(j) = s.jobs.pop_front() {
                    s.busy = true;
                    break j;
                }
                s.busy = false;
                cv.notify_all();
                s = match cv.wait(s) {
                    Ok(g) => g,
                    Err(_) => return,
                };
            }
        };
        let est = match &job.payload {
            Payload2::Bytes(b) => b.len() as u64,
            Payload2::Effect { effect, .. } => effect.resident_bytes(),
        };
        write_job(job);
        let Ok(mut s) = lock.lock() else { return };
        s.queued_bytes = s.queued_bytes.saturating_sub(est);
        s.busy = false;
        cv.notify_all();
    }
}

fn write_job(job: Job) {
    let payload = match job.payload {
        Payload2::Bytes(b) => b,
        Payload2::Effect { key, effect } => {
            debug_assert_eq!(job.key, encode_launch_key(&key));
            encode_effect(&effect)
        }
    };
    let addr = address(job.kind, &job.key);
    let path = entry_path(&job.root, addr);
    if path.exists() {
        // Another process (or an earlier spill) already published this
        // entry; entries are immutable, so there is nothing to add.
        return;
    }
    let data = frame(job.kind, &job.key, &payload);
    let len = data.len() as u64;
    if write_atomic(&job.root, &path, &data).is_none() {
        metrics::add(Counter::StoreSpillDrops, 1);
        return;
    }
    metrics::add(Counter::StoreSpills, 1);
    metrics::add(Counter::StoreSpillBytes, len);
    approx_add(&job.root, len);
    maybe_evict(&job.root, job.cap);
}

fn write_atomic(root: &Path, path: &Path, data: &[u8]) -> Option<()> {
    let tmp_dir = root.join(LAYOUT).join("tmp");
    fs::create_dir_all(&tmp_dir).ok()?;
    fs::create_dir_all(path.parent()?).ok()?;
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = tmp_dir.join(format!("{}-{}.tmp", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    fs::write(&tmp, data).ok()?;
    // Same-filesystem rename: readers see the old state or the complete new
    // file, never a partial write.
    match fs::rename(&tmp, path) {
        Ok(()) => Some(()),
        Err(_) => {
            let _ = fs::remove_file(&tmp);
            None
        }
    }
}

/// Insert a blob write-behind. Returns immediately; the entry becomes
/// visible once the spiller publishes it (see [`flush_store`]).
pub fn put_blob(kind: u8, key: Vec<u8>, payload: Vec<u8>) {
    let Some(root) = store_root() else { return };
    let est = payload.len() as u64;
    enqueue(Job { root, cap: store_cap_bytes(), kind, key, payload: Payload2::Bytes(payload) }, est);
}

/// Block until every queued spill has been published (tests, and the report
/// binary before exit, so a following process sees a complete store).
pub fn flush_store() {
    let (lock, cv) = spool();
    let Ok(mut s) = lock.lock() else { return };
    if !s.started {
        return;
    }
    while s.busy || !s.jobs.is_empty() {
        s = match cv.wait_timeout(s, Duration::from_secs(30)) {
            Ok((g, t)) => {
                if t.timed_out() {
                    return;
                }
                g
            }
            Err(_) => return,
        };
    }
}

// ---- eviction --------------------------------------------------------------

fn approx_add(root: &Path, bytes: u64) {
    let cur = APPROX_BYTES.load(Ordering::Relaxed);
    if cur == u64::MAX {
        let scanned = scan_entries(root).iter().map(|(_, len, _)| len).sum::<u64>();
        APPROX_BYTES.store(scanned, Ordering::Relaxed);
    } else {
        APPROX_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Every entry file under the shard directories: (path, length, mtime).
fn scan_entries(root: &Path) -> Vec<(PathBuf, u64, SystemTime)> {
    let mut out = Vec::new();
    let Ok(shards) = fs::read_dir(root.join(LAYOUT)) else { return out };
    for shard in shards.flatten() {
        let name = shard.file_name();
        let name = name.to_string_lossy();
        // Shard dirs are exactly two hex digits; skips tmp/, quarantine/,
        // and lock files.
        if name.len() != 2 || !name.chars().all(|c| c.is_ascii_hexdigit()) {
            continue;
        }
        let Ok(entries) = fs::read_dir(shard.path()) else { continue };
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            out.push((e.path(), meta.len(), mtime));
        }
    }
    out
}

/// Advisory lock via `create_new`, with stale-lock stealing. Returns a guard
/// that removes the lock file on drop, or `None` if another live process
/// holds it (the caller then skips the operation — eviction is cooperative).
struct LockGuard(PathBuf);

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

fn try_lock(root: &Path) -> Option<LockGuard> {
    let path = root.join(LAYOUT).join("evict.lock");
    let _ = fs::create_dir_all(root.join(LAYOUT));
    for _ in 0..2 {
        match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                let _ = write!(f, "{}", std::process::id());
                return Some(LockGuard(path));
            }
            Err(_) => {
                // Steal locks abandoned by a crashed process.
                let stale = fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| SystemTime::now().duration_since(t).ok())
                    .is_some_and(|age| age > LOCK_STALE);
                if stale {
                    let _ = fs::remove_file(&path);
                } else {
                    return None;
                }
            }
        }
    }
    None
}

fn maybe_evict(root: &Path, cap: u64) {
    if APPROX_BYTES.load(Ordering::Relaxed) <= cap {
        return;
    }
    let Some(_lock) = try_lock(root) else { return };
    let mut entries = scan_entries(root);
    let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
    // Oldest-mtime first; hits re-touch mtimes, so this is LRU.
    entries.sort_by_key(|(_, _, mtime)| *mtime);
    // Evict down to 90% of the cap so each overflow triggers one scan, not
    // one per subsequent write.
    let target = cap - cap / 10;
    for (path, len, _) in entries {
        if total <= target {
            break;
        }
        if fs::remove_file(&path).is_ok() {
            total = total.saturating_sub(len);
            metrics::add(Counter::StoreEvicted, 1);
        }
    }
    APPROX_BYTES.store(total, Ordering::Relaxed);
}

// ---- maintenance -----------------------------------------------------------

/// On-disk shape of the store, for `report -- store`.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// The active root, or `None` when disabled.
    pub root: Option<PathBuf>,
    /// Live entries under the shard directories.
    pub entries: u64,
    /// Bytes those entries occupy.
    pub bytes: u64,
    /// Files parked in `quarantine/`.
    pub quarantined: u64,
    /// The active byte cap.
    pub cap_bytes: u64,
}

/// Scan the store's on-disk shape (entry count, bytes, quarantine size).
pub fn store_stats() -> StoreStats {
    let root = store_root();
    let mut stats =
        StoreStats { root: root.clone(), entries: 0, bytes: 0, quarantined: 0, cap_bytes: store_cap_bytes() };
    let Some(root) = root else { return stats };
    for (_, len, _) in scan_entries(&root) {
        stats.entries += 1;
        stats.bytes += len;
    }
    if let Ok(q) = fs::read_dir(root.join(LAYOUT).join("quarantine")) {
        stats.quarantined = q.flatten().count() as u64;
    }
    stats
}

/// Remove every entry, the quarantine, and staged temp files.
/// Returns the number of entries removed. Concurrent writers may repopulate
/// immediately; that is fine, the store is only ever a cache.
pub fn clear_store() -> u64 {
    flush_store();
    let Some(root) = store_root() else { return 0 };
    let _lock = try_lock(&root);
    let mut removed = 0u64;
    for (path, _, _) in scan_entries(&root) {
        if fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    for aux in ["quarantine", "tmp"] {
        let _ = fs::remove_dir_all(root.join(LAYOUT).join(aux));
    }
    // The index journal older builds appended to; nothing reads it.
    let _ = fs::remove_file(root.join(LAYOUT).join("index.log"));
    APPROX_BYTES.store(0, Ordering::Relaxed);
    removed
}

// ---- launch-effect codec ---------------------------------------------------

fn elem_tag(e: ElemType) -> u8 {
    match e {
        ElemType::F32 => 1,
        ElemType::F64 => 2,
        ElemType::I32 => 3,
        ElemType::I64 => 4,
    }
}

fn elem_from_tag(t: u8) -> Option<ElemType> {
    Some(match t {
        1 => ElemType::F32,
        2 => ElemType::F64,
        3 => ElemType::I32,
        4 => ElemType::I64,
        _ => return None,
    })
}

fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::F(x) => {
            e.u8(1);
            e.u64(x.to_bits());
        }
        Value::I(x) => {
            e.u8(2);
            e.u64(*x as u64);
        }
        Value::B(x) => {
            e.u8(3);
            e.u64(*x as u64);
        }
    }
}

fn dec_value(d: &mut Dec) -> Option<Value> {
    let tag = d.u8()?;
    let bits = d.u64()?;
    Some(match tag {
        1 => Value::F(f64::from_bits(bits)),
        2 => Value::I(bits as i64),
        3 => Value::B(bits != 0),
        _ => return None,
    })
}

fn enc_buffer(e: &mut Enc, b: &Buffer) {
    e.u8(elem_tag(b.elem));
    match &b.data {
        Payload::F(v) => {
            e.u8(0);
            e.u64(v.len() as u64);
            for x in v {
                e.u64(x.to_bits());
            }
        }
        Payload::I(v) => {
            e.u8(1);
            e.u64(v.len() as u64);
            for x in v {
                e.u64(*x as u64);
            }
        }
    }
}

fn dec_buffer(d: &mut Dec) -> Option<Buffer> {
    let elem = elem_from_tag(d.u8()?)?;
    let kind = d.u8()?;
    let n = d.u64()? as usize;
    // Cap at what the payload can actually hold, so a corrupt length can't
    // trigger a huge allocation before the reads start failing.
    if n.checked_mul(8)? > d.bytes.len() {
        return None;
    }
    match (kind, elem.is_float()) {
        (0, true) => {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(f64::from_bits(d.u64()?));
            }
            Some(Buffer::from_f64(elem, v))
        }
        (1, false) => {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.u64()? as i64);
            }
            Some(Buffer::from_i64(elem, v))
        }
        _ => None,
    }
}

fn enc_footprint(e: &mut Enc, f: &acceval_sim::KernelFootprint) {
    e.u32(f.threads_per_block);
    e.u32(f.shared_bytes_per_block);
    e.u32(f.regs_per_thread);
    e.u64(f.grid_blocks);
}

fn dec_footprint(d: &mut Dec) -> Option<acceval_sim::KernelFootprint> {
    Some(acceval_sim::KernelFootprint {
        threads_per_block: d.u32()?,
        shared_bytes_per_block: d.u32()?,
        regs_per_thread: d.u32()?,
        grid_blocks: d.u64()?,
    })
}

fn enc_cost(e: &mut Enc, c: &acceval_sim::KernelCost) {
    e.f64(c.cycles);
    e.f64(c.time_secs);
    e.f64(c.compute_cycles);
    e.f64(c.mem_bw_cycles);
    e.f64(c.mem_lat_cycles);
    e.f64(c.shared_cycles);
    e.f64(c.atomic_cycles);
    e.u32(c.occupancy.blocks_per_sm);
    e.u32(c.occupancy.resident_warps_per_sm);
    e.f64(c.occupancy.fraction);
    e.u8(match c.bound {
        acceval_sim::Bound::Compute => 0,
        acceval_sim::Bound::MemBandwidth => 1,
        acceval_sim::Bound::MemLatency => 2,
        acceval_sim::Bound::Shared => 3,
        acceval_sim::Bound::Atomic => 4,
        acceval_sim::Bound::LaunchOverhead => 5,
    });
}

fn dec_cost(d: &mut Dec) -> Option<acceval_sim::KernelCost> {
    Some(acceval_sim::KernelCost {
        cycles: d.f64()?,
        time_secs: d.f64()?,
        compute_cycles: d.f64()?,
        mem_bw_cycles: d.f64()?,
        mem_lat_cycles: d.f64()?,
        shared_cycles: d.f64()?,
        atomic_cycles: d.f64()?,
        occupancy: acceval_sim::Occupancy {
            blocks_per_sm: d.u32()?,
            resident_warps_per_sm: d.u32()?,
            fraction: d.f64()?,
        },
        bound: match d.u8()? {
            0 => acceval_sim::Bound::Compute,
            1 => acceval_sim::Bound::MemBandwidth,
            2 => acceval_sim::Bound::MemLatency,
            3 => acceval_sim::Bound::Shared,
            4 => acceval_sim::Bound::Atomic,
            5 => acceval_sim::Bound::LaunchOverhead,
            _ => return None,
        },
    })
}

fn enc_totals(e: &mut Enc, t: &acceval_sim::KernelTotals) {
    e.u64(t.warps);
    e.f64(t.issue_cycles);
    e.u64(t.global_requests);
    e.u64(t.global_transactions);
    e.u64(t.useful_bytes);
    e.u64(t.shared_slots);
    e.u64(t.atomic_slots);
    e.u64(t.tex_miss_lines);
    e.u64(t.tex_requests);
}

fn dec_totals(d: &mut Dec) -> Option<acceval_sim::KernelTotals> {
    Some(acceval_sim::KernelTotals {
        warps: d.u64()?,
        issue_cycles: d.f64()?,
        global_requests: d.u64()?,
        global_transactions: d.u64()?,
        useful_bytes: d.u64()?,
        shared_slots: d.u64()?,
        atomic_slots: d.u64()?,
        tex_miss_lines: d.u64()?,
        tex_requests: d.u64()?,
    })
}

/// Canonical byte form of a [`LaunchKey`] — the store address input, and
/// what each entry stores for post-checksum equality comparison.
pub fn encode_launch_key(k: &LaunchKey) -> Vec<u8> {
    let mut e = Enc::new();
    e.u128(k.plan_fp);
    e.u32(k.block.0);
    e.u32(k.block.1);
    e.u32(k.shared_bytes);
    e.u32(k.regs);
    e.u64(k.cfg_digest);
    e.u64(k.layout_digest);
    e.u32(k.scalars.len() as u32);
    for (tag, bits) in &k.scalars {
        e.u8(*tag);
        e.u64(*bits);
    }
    e.u32(k.inputs.len() as u32);
    for (id, digest) in &k.inputs {
        e.u32(*id);
        match digest {
            Some(x) => {
                e.u8(1);
                e.u128(*x);
            }
            None => e.u8(0),
        }
    }
    e.buf
}

fn encode_effect(eff: &LaunchEffect) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(eff.outputs.len() as u32);
    for (idx, out, digest) in &eff.outputs {
        e.u32(*idx);
        e.u128(*digest);
        match out {
            ArrayOut::Sparse(w) => {
                e.u8(0);
                e.u32(w.len() as u32);
                for (i, bits) in w {
                    e.u32(*i);
                    e.u64(*bits);
                }
            }
            ArrayOut::Full(buf) => {
                e.u8(1);
                enc_buffer(&mut e, buf);
            }
        }
    }
    e.u32(eff.scalar_writes.len() as u32);
    for (slot, v) in &eff.scalar_writes {
        e.u64(*slot as u64);
        enc_value(&mut e, v);
    }
    enc_cost(&mut e, &eff.result.cost);
    enc_totals(&mut e, &eff.result.totals);
    enc_footprint(&mut e, &eff.result.footprint);
    e.u64(eff.result.active_threads);
    e.u32(eff.sites.len() as u32);
    for (site, g, sh) in &eff.sites {
        e.u32(*site);
        e.u64(g.requests);
        e.u64(g.transactions);
        e.u64(g.lane_accesses);
        e.u64(sh.slots);
        e.u64(sh.requests);
    }
    e.buf
}

fn decode_effect(bytes: &[u8]) -> Option<LaunchEffect> {
    let mut d = Dec::new(bytes);
    let n_out = d.u32()? as usize;
    let mut outputs = Vec::with_capacity(n_out.min(1024));
    for _ in 0..n_out {
        let idx = d.u32()?;
        let digest = d.u128()?;
        let out = match d.u8()? {
            0 => {
                let n = d.u32()? as usize;
                if n.checked_mul(12)? > d.bytes.len() {
                    return None;
                }
                let mut w = Vec::with_capacity(n);
                for _ in 0..n {
                    w.push((d.u32()?, d.u64()?));
                }
                ArrayOut::Sparse(w)
            }
            1 => ArrayOut::Full(std::sync::Arc::new(dec_buffer(&mut d)?)),
            _ => return None,
        };
        outputs.push((idx, out, digest));
    }
    let n_sw = d.u32()? as usize;
    let mut scalar_writes = Vec::with_capacity(n_sw.min(1024));
    for _ in 0..n_sw {
        let slot = d.u64()? as usize;
        scalar_writes.push((slot, dec_value(&mut d)?));
    }
    let result = LaunchResult {
        cost: dec_cost(&mut d)?,
        totals: dec_totals(&mut d)?,
        footprint: dec_footprint(&mut d)?,
        active_threads: d.u64()?,
    };
    let n_sites = d.u32()? as usize;
    let mut sites: Vec<SiteEvidence> = Vec::with_capacity(n_sites.min(4096));
    for _ in 0..n_sites {
        let site = d.u32()?;
        let g = AccessSummary { requests: d.u64()?, transactions: d.u64()?, lane_accesses: d.u64()? };
        sites.push((site, g, SharedSummary { slots: d.u64()?, requests: d.u64()? }));
    }
    if !d.done() {
        return None;
    }
    Some(LaunchEffect { outputs, scalar_writes, result, sites })
}

/// Probe the disk tier for a launch effect. Counts a disk hit/miss; any
/// verification or decode failure is a quarantine + miss.
pub fn probe_effect(key: &LaunchKey) -> Option<LaunchEffect> {
    let root = store_root()?;
    let key_bytes = encode_launch_key(key);
    let r = metrics::timed(Counter::StoreProbeNs, || {
        let payload = get_blob_at(&root, KIND_LAUNCH, &key_bytes)?;
        match decode_effect(&payload) {
            Some(eff) => Some(eff),
            None => {
                // Checksum passed but the payload does not decode: a codec
                // drift the version/epoch guards missed. Quarantine it like
                // any other unusable entry.
                quarantine(&root, &entry_path(&root, address(KIND_LAUNCH, &key_bytes)));
                None
            }
        }
    });
    metrics::add(if r.is_some() { Counter::StoreDiskHits } else { Counter::StoreDiskMisses }, 1);
    r
}

/// Spill a captured launch effect write-behind. The effect serializes on the
/// spiller thread; the caller pays one clone of the `Arc` and a key encode.
pub fn spill_effect(key: &LaunchKey, effect: &std::sync::Arc<LaunchEffect>) {
    let Some(root) = store_root() else { return };
    let est = effect.resident_bytes();
    enqueue(
        Job {
            root,
            cap: store_cap_bytes(),
            kind: KIND_LAUNCH,
            key: encode_launch_key(key),
            payload: Payload2::Effect { key: key.clone(), effect: effect.clone() },
        },
        est,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use acceval_sim::{Bound, KernelCost, KernelFootprint, KernelTotals, Occupancy};

    fn sample_effect() -> LaunchEffect {
        LaunchEffect {
            outputs: vec![
                (0, ArrayOut::Sparse(vec![(3, 7u64), (9, f64::to_bits(2.5))]), 0xabcdu128),
                (2, ArrayOut::Full(std::sync::Arc::new(Buffer::from_f64(ElemType::F64, vec![1.0, -2.5, 3.25]))), 7),
            ],
            scalar_writes: vec![(4, Value::F(6.5)), (1, Value::I(-3))],
            result: LaunchResult {
                cost: KernelCost {
                    cycles: 100.0,
                    time_secs: 1e-4,
                    compute_cycles: 40.0,
                    mem_bw_cycles: 60.0,
                    mem_lat_cycles: 10.0,
                    shared_cycles: 0.0,
                    atomic_cycles: 0.0,
                    occupancy: Occupancy { blocks_per_sm: 4, resident_warps_per_sm: 32, fraction: 0.667 },
                    bound: Bound::MemBandwidth,
                },
                totals: KernelTotals {
                    warps: 12,
                    issue_cycles: 34.5,
                    global_requests: 6,
                    global_transactions: 9,
                    useful_bytes: 768,
                    shared_slots: 0,
                    atomic_slots: 0,
                    tex_miss_lines: 0,
                    tex_requests: 0,
                },
                footprint: KernelFootprint {
                    threads_per_block: 128,
                    shared_bytes_per_block: 0,
                    regs_per_thread: 20,
                    grid_blocks: 3,
                },
                active_threads: 384,
            },
            sites: vec![
                (0, AccessSummary { requests: 24, transactions: 48, lane_accesses: 768 }, SharedSummary::default()),
                (
                    3,
                    AccessSummary { requests: 2, transactions: 2, lane_accesses: 64 },
                    SharedSummary { slots: 9, requests: 6 },
                ),
            ],
        }
    }

    fn sample_key() -> LaunchKey {
        LaunchKey {
            plan_fp: 0xdead_beef_cafe,
            block: (128, 1),
            shared_bytes: 0,
            regs: 20,
            cfg_digest: 11,
            layout_digest: 22,
            scalars: vec![(1, f64::to_bits(3.5)), (2, 42)],
            inputs: vec![(0, Some(0x1234)), (1, None)],
        }
    }

    #[test]
    fn effect_codec_round_trips() {
        let eff = sample_effect();
        let bytes = encode_effect(&eff);
        let back = decode_effect(&bytes).expect("decodes");
        assert_eq!(format!("{eff:?}"), format!("{back:?}"));
        // Every truncation fails cleanly instead of panicking.
        for cut in 0..bytes.len() {
            assert!(decode_effect(&bytes[..cut]).is_none(), "truncation at {cut} must not decode");
        }
    }

    #[test]
    fn key_encoding_is_injective_on_fields() {
        let a = encode_launch_key(&sample_key());
        let mut k = sample_key();
        k.inputs[1].1 = Some(0);
        assert_ne!(a, encode_launch_key(&k));
        let mut k = sample_key();
        k.shared_bytes = 1024;
        assert_ne!(a, encode_launch_key(&k));
        let mut k = sample_key();
        k.regs += 1;
        assert_ne!(a, encode_launch_key(&k));
        assert_eq!(a, encode_launch_key(&sample_key()));
    }

    #[test]
    fn frame_verifies_and_rejects_tampering() {
        let key = b"some-key".to_vec();
        let payload = b"payload-bytes".to_vec();
        let data = frame(KIND_ORACLE, &key, &payload);
        assert_eq!(verify(&data, KIND_ORACLE, &key).ok(), Some(&payload[..]));
        // Wrong kind or key: well-formed mismatch, not corruption.
        assert!(matches!(verify(&data, KIND_LAUNCH, &key), Err(Unusable::Mismatch)));
        assert!(matches!(verify(&data, KIND_ORACLE, b"other-key"), Err(Unusable::Mismatch)));
        // Any single-byte flip is caught by the checksum (or the framing).
        for i in 0..data.len() {
            let mut bad = data.clone();
            bad[i] ^= 0x40;
            assert!(verify(&bad, KIND_ORACLE, &key).is_err(), "flip at {i} must not verify");
        }
        // Truncations are corrupt.
        for cut in 0..data.len() {
            assert!(matches!(verify(&data[..cut], KIND_ORACLE, &key), Err(Unusable::Corrupt)));
        }
    }

    #[test]
    fn addresses_separate_kinds_and_keys() {
        assert_ne!(address(KIND_LAUNCH, b"k"), address(KIND_ORACLE, b"k"));
        assert_ne!(address(KIND_LAUNCH, b"k1"), address(KIND_LAUNCH, b"k2"));
        let p = entry_path(Path::new("/tmp/s"), 0xff00u128);
        assert!(p.starts_with("/tmp/s/v1/00"), "sharded by leading hex: {p:?}");
    }

    #[test]
    fn dec_is_total_on_garbage() {
        let mut d = Dec::new(&[1, 2, 3]);
        assert_eq!(d.u8(), Some(1));
        assert_eq!(d.u32(), None);
        assert!(!d.done());
        assert!(Dec::new(&[0xff; 4]).str().is_none());
    }
}
