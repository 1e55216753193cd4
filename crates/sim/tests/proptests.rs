//! Property-based tests for the simulator substrate.

use acceval_sim::{
    bank_conflict_slots, digest_update, estimate_kernel, segments_touched, zero_digest, Buffer, Cache, DeviceConfig,
    ElemType, HostConfig, KernelFootprint, KernelTotals, Payload, SiteWarpTrace,
};
use proptest::prelude::*;

proptest! {
    /// Transactions per warp instruction are bounded by [1, lanes] for any
    /// non-empty address set.
    #[test]
    fn transactions_bounded(addrs in prop::collection::vec(0u64..1_000_000, 1..=32)) {
        let n = addrs.len() as u32;
        let mut a = addrs.clone();
        let tx = segments_touched(&mut a, 128);
        prop_assert!(tx >= 1);
        prop_assert!(tx <= n);
    }

    /// Transaction count is invariant under permutation and duplication of
    /// addresses.
    #[test]
    fn transactions_set_semantics(addrs in prop::collection::vec(0u64..100_000, 1..=32)) {
        let mut a = addrs.clone();
        let mut b: Vec<u64> = addrs.iter().rev().copied().collect();
        let mut c: Vec<u64> = addrs.iter().chain(addrs.iter()).copied().collect();
        let ta = segments_touched(&mut a, 128);
        let tb = segments_touched(&mut b, 128);
        let tc = segments_touched(&mut c, 128);
        prop_assert_eq!(ta, tb);
        prop_assert_eq!(ta, tc);
    }

    /// Coarser segments never need more transactions.
    #[test]
    fn coarser_segments_fewer_transactions(addrs in prop::collection::vec(0u64..1_000_000, 1..=32)) {
        let mut a = addrs.clone();
        let mut b = addrs.clone();
        let t64 = segments_touched(&mut a, 64);
        let t128 = segments_touched(&mut b, 128);
        prop_assert!(t128 <= t64);
    }

    /// Bank conflict slots are within [1, distinct words].
    #[test]
    fn bank_slots_bounded(addrs in prop::collection::vec(0u64..65_536, 1..=32)) {
        let slots = bank_conflict_slots(&addrs, 32, 4);
        let mut words: Vec<u64> = addrs.iter().map(|a| a / 4).collect();
        words.sort_unstable();
        words.dedup();
        prop_assert!(slots >= 1);
        prop_assert!(slots as usize <= words.len());
    }

    /// A unit-stride warp access of 4-byte words never bank-conflicts.
    #[test]
    fn unit_stride_never_conflicts(base in 0u64..4096) {
        let addrs: Vec<u64> = (0..32).map(|l| base * 4 + l * 4).collect();
        prop_assert_eq!(bank_conflict_slots(&addrs, 32, 4), 1);
    }

    /// Kernel time is monotone in transaction count (all else fixed).
    #[test]
    fn kernel_time_monotone_in_transactions(tx1 in 1u64..10_000_000, tx2 in 1u64..10_000_000) {
        let cfg = DeviceConfig::tesla_m2090();
        let fp = KernelFootprint::new(256, 512);
        let mk = |tx: u64| KernelTotals {
            warps: 4096,
            issue_cycles: 4096.0,
            global_requests: 100_000,
            global_transactions: tx,
            useful_bytes: 1_000_000,
            ..Default::default()
        };
        let c1 = estimate_kernel(&cfg, &fp, &mk(tx1));
        let c2 = estimate_kernel(&cfg, &fp, &mk(tx2));
        if tx1 <= tx2 {
            prop_assert!(c1.time_secs <= c2.time_secs + 1e-15);
        } else {
            prop_assert!(c2.time_secs <= c1.time_secs + 1e-15);
        }
    }

    /// Kernel cost terms are all non-negative and finite.
    #[test]
    fn kernel_cost_sane(
        warps in 1u64..100_000,
        issue in 0f64..1e9,
        reqs in 0u64..1_000_000,
        tx in 0u64..10_000_000,
        shared in 0u64..1_000_000,
        atomics in 0u64..100_000,
        tpb in prop::sample::select(vec![32u32, 64, 128, 192, 256, 512, 1024]),
    ) {
        let cfg = DeviceConfig::tesla_m2090();
        let fp = KernelFootprint::new(tpb, (warps * 32 / tpb as u64).max(1));
        let t = KernelTotals {
            warps,
            issue_cycles: issue,
            global_requests: reqs,
            global_transactions: tx,
            useful_bytes: reqs * 128,
            shared_slots: shared,
            atomic_slots: atomics,
            ..Default::default()
        };
        let c = estimate_kernel(&cfg, &fp, &t);
        prop_assert!(c.time_secs.is_finite());
        prop_assert!(c.time_secs >= cfg.launch_overhead_us * 1e-6);
        prop_assert!(c.cycles >= 0.0);
        prop_assert!(c.occupancy.resident_warps_per_sm >= 1);
    }

    /// Cache accesses always classify as exactly hit or miss, and a
    /// repeated access to the same address is a hit.
    #[test]
    fn cache_repeat_hits(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut c = Cache::new(32 * 1024, 8, 64);
        for &a in &addrs {
            c.access(a);
            prop_assert!(c.access(a), "immediate re-access must hit");
        }
        prop_assert_eq!(c.hits + c.misses, addrs.len() as u64 * 2);
    }

    /// SiteWarpTrace totals: lane_accesses equals records made, and
    /// transactions <= lane_accesses.
    #[test]
    fn trace_accounting(rows in prop::collection::vec(prop::collection::vec(0u64..100_000, 1..=32), 1..10)) {
        let mut t = SiteWarpTrace::new(32);
        let mut n = 0u64;
        for row in &rows {
            for (lane, &a) in row.iter().enumerate() {
                t.record(lane as u32, a);
                n += 1;
            }
        }
        let s = t.reduce_global(128);
        prop_assert_eq!(s.lane_accesses, n);
        prop_assert!(s.transactions <= s.lane_accesses);
        prop_assert!(s.transactions >= s.requests);
    }
}

// ---------------------------------------------------------------------------
// `Cache` against a naive LRU.
// ---------------------------------------------------------------------------

/// The reference for [`Cache`]: per set, a plain most-recent-first list of
/// line numbers, updated by remove-and-reinsert on every access.
struct ListLru {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line: u64,
    hits: u64,
    misses: u64,
}

impl ListLru {
    /// Same geometry rule as `Cache::new`: `capacity / line / ways` sets,
    /// rounded down to a power of two, at least one.
    fn new(capacity: u32, ways: u32, line: u32) -> Self {
        let wanted = ((capacity / line).max(1) / ways).max(1);
        let mut sets = 1;
        while sets * 2 <= wanted {
            sets *= 2;
        }
        ListLru { sets: vec![Vec::new(); sets as usize], ways: ways as usize, line: line as u64, hits: 0, misses: 0 }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line;
        let n = self.sets.len() as u64;
        let list = &mut self.sets[(line % n) as usize];
        let hit = match list.iter().position(|&t| t == line) {
            Some(pos) => {
                list.remove(pos);
                true
            }
            None => {
                if list.len() == self.ways {
                    list.pop();
                }
                false
            }
        };
        list.insert(0, line);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }
}

/// An address stream for a shape: mostly lines drawn from a few sets with
/// more distinct tags than ways (so hits land at every LRU depth and sets
/// evict), mixed with arbitrary addresses.
fn lru_stream(capacity: u32, ways: u32, line: u32, picks: &[(u64, u64, u64, u64)]) -> Vec<u64> {
    let sets = ListLru::new(capacity, ways, line).sets.len() as u64;
    let line = line as u64;
    picks
        .iter()
        .map(|&(kind, set, tag, off)| if kind == 0 { off } else { (tag * sets + set % sets) * line + off % line })
        .collect()
}

/// `Cache` must report the naive model's hit/miss sequence and counters.
fn check_against_list_lru(capacity: u32, ways: u32, line: u32, picks: &[(u64, u64, u64, u64)]) {
    let mut cache = Cache::new(capacity, ways, line);
    let mut naive = ListLru::new(capacity, ways, line);
    for (i, a) in lru_stream(capacity, ways, line, picks).into_iter().enumerate() {
        prop_assert_eq!(
            cache.access(a),
            naive.access(a),
            "access {} to {:#x} ({}B/{}-way/{}B)",
            i,
            a,
            capacity,
            ways,
            line
        );
    }
    prop_assert_eq!((cache.hits, cache.misses), (naive.hits, naive.misses));
}

fn lru_picks() -> impl Strategy<Value = Vec<(u64, u64, u64, u64)>> {
    prop::collection::vec((0u64..4, 0u64..4, 0u64..40, 0u64..1 << 32), 1..3000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_matches_list_lru_one_set(picks in lru_picks()) {
        check_against_list_lru(256, 4, 64, &picks);
    }

    #[test]
    fn cache_matches_list_lru_one_way(picks in lru_picks()) {
        check_against_list_lru(4096, 1, 64, &picks);
    }

    #[test]
    fn cache_matches_list_lru_xeon_l1(picks in lru_picks()) {
        let h = HostConfig::xeon_x5660();
        check_against_list_lru(h.l1_bytes, h.l1_ways, h.line_bytes, &picks);
    }

    #[test]
    fn cache_matches_list_lru_xeon_l2(picks in lru_picks()) {
        let h = HostConfig::xeon_x5660();
        check_against_list_lru(h.l2_bytes, h.l2_ways, h.line_bytes, &picks);
    }

    #[test]
    fn cache_matches_list_lru_texture(picks in lru_picks()) {
        // The device texture cache, as `DeviceState::new` builds it.
        let d = DeviceConfig::tesla_m2090();
        check_against_list_lru(d.tex_cache_bytes * d.num_sms, 8, d.tex_line_bytes, &picks);
    }
}

// ---- order-independent content digests ---------------------------------

const ELEMS: [ElemType; 4] = [ElemType::F32, ElemType::F64, ElemType::I32, ElemType::I64];

/// An element's raw bits: zero, a small value, or any 64-bit pattern (NaN
/// payloads and negative integers included), so edits often rewrite an
/// element with the bits it already holds.
fn word((sel, raw): (u8, u64)) -> u64 {
    match sel {
        0 => 0,
        1 => raw % 4,
        _ => raw,
    }
}

fn buffer_of(elem: ElemType, words: &[(u8, u64)]) -> Buffer {
    let bits = words.iter().map(|&w| word(w));
    if elem.is_float() {
        Buffer::from_f64(elem, bits.map(f64::from_bits).collect())
    } else {
        Buffer::from_i64(elem, bits.map(|b| b as i64).collect())
    }
}

fn set_bits(b: &mut Buffer, i: usize, bits: u64) {
    match &mut b.data {
        Payload::F(v) => v[i] = f64::from_bits(bits),
        Payload::I(v) => v[i] = bits as i64,
    }
}

proptest! {
    /// Updating a digest edit by edit (repeated indices and unchanged
    /// rewrites included) lands on the digest of the edited buffer.
    #[test]
    fn incremental_digest_matches_rehash(
        elem in prop::sample::select(ELEMS.to_vec()),
        init in prop::collection::vec((0u8..3, 0u64..u64::MAX), 1..48),
        edits in prop::collection::vec((0usize..48, (0u8..3, 0u64..u64::MAX)), 0..40),
    ) {
        let mut b = buffer_of(elem, &init);
        let mut d = b.content_digest();
        for (i, w) in edits {
            let i = i % b.len();
            let bits = word(w);
            d = digest_update(d, i, b.bits(i), bits);
            set_bits(&mut b, i, bits);
        }
        prop_assert_eq!(d, b.content_digest());
    }

    /// The digest sums per-element terms, but each term is keyed by its
    /// index: swapping two unequal elements changes it.
    #[test]
    fn swapping_unequal_elements_changes_digest(
        elem in prop::sample::select(ELEMS.to_vec()),
        init in prop::collection::vec((0u8..3, 0u64..u64::MAX), 2..48),
        (a, c) in (0usize..48, 0usize..47),
    ) {
        let mut b = buffer_of(elem, &init);
        let i = a % b.len();
        let j = (i + 1 + c % (b.len() - 1)) % b.len();
        if b.bits(i) == b.bits(j) {
            let flipped = b.bits(j) ^ 1;
            set_bits(&mut b, j, flipped);
        }
        let before = b.content_digest();
        let (bi, bj) = (b.bits(i), b.bits(j));
        set_bits(&mut b, i, bj);
        set_bits(&mut b, j, bi);
        prop_assert!(b.content_digest() != before, "swapping elements {} and {} kept the digest", i, j);
    }

    /// `zero_digest` is the digest of a zeroed buffer, without building it.
    #[test]
    fn zero_digest_matches_zeroed_buffers(elem in prop::sample::select(ELEMS.to_vec()), len in 0usize..3000) {
        prop_assert_eq!(zero_digest(elem, len), Buffer::zeroed(elem, len).content_digest());
    }
}
