//! Hash-count machinery: bucket tables and reusable sparse counters.
//!
//! The paper's candidate-generation algorithms (§3.1) revolve around two
//! small data structures:
//!
//! * a **bucket table** mapping a hash value to the list of columns whose
//!   signature contains it ("buckets … store column-indices for all columns
//!   `c_i` with some element of `SIG_i` hashing into that bucket"), and
//! * **reusable counters**: "to avoid `O(m²)` counter initializations, we
//!   reuse the same `O(m)` counters … and remember and reinitialize only
//!   counters that were incremented at least once" — implemented as
//!   [`SparseCounters`].
//!
//! [`PairCounter`] packs `(i, j)` column pairs into one `u64` key over a
//! fast hash map. Every scheme's phase 2 counts through one kernel,
//! [`count_pairs`]: a bucket table is realized as the sorted runs of equal
//! `(key, column)` entries ([`count_sorted_runs`]), counted into
//! per-worker [`ShardedPairCounter`]s that can also be restricted to one
//! [`PairShard`] under a byte cap for out-of-core passes.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A minimal fast `Hasher` for integer-keyed maps (FxHash-style fold-mul).
///
/// Collision attacks are irrelevant here (keys are our own hash values), so
/// we trade SipHash's robustness for speed, as any database engine does for
/// internal integer maps.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    state: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fold whole 8-byte words instead of one mul per byte; only the
        // sub-word tail goes through the byte path.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.write_u8(b);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = (self.state.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the fast integer hasher.
pub type FastHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the fast integer hasher.
pub type FastHashSet<K> = HashSet<K, FxBuildHasher>;

/// Packs an ordered column pair into a single `u64` key (requires `i < j`).
#[inline]
#[must_use]
pub fn pack_pair(i: u32, j: u32) -> u64 {
    debug_assert!(i < j, "pairs must be ordered: {i} !< {j}");
    (u64::from(i) << 32) | u64::from(j)
}

/// Unpacks a key produced by [`pack_pair`].
#[inline]
#[must_use]
pub fn unpack_pair(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Open-addressing `u64 → u32` counter table for [`pack_pair`] keys.
///
/// The hot loop of every phase-2 generator is "bump the counter for this
/// pair"; a general `HashMap<u64, u32>` pays for SipHash-free but still
/// branchy entry logic and per-entry overhead. This table is the minimal
/// alternative: power-of-two capacity, Fibonacci multiply-shift indexing,
/// linear probing, parallel `keys`/`vals` arrays, grow at ¾ load.
///
/// The key `u64::MAX` is reserved as the empty-slot sentinel — it can
/// never be produced by `pack_pair`, which requires `i < j`.
#[derive(Debug, Default, Clone)]
pub struct CounterTable {
    keys: Vec<u64>,
    vals: Vec<u32>,
    items: usize,
}

/// Empty-slot marker; unreachable as a `pack_pair(i, j)` key since it
/// would need `i == j == u32::MAX`.
const EMPTY_SLOT: u64 = u64::MAX;

/// Fibonacci hashing constant (2^64 / φ, forced odd).
const FIB_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl CounterTable {
    /// Creates an empty table (no allocation until the first insert).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table pre-sized for roughly `n` distinct keys.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        let slots = (n.saturating_mul(4) / 3 + 1).next_power_of_two().max(16);
        Self {
            keys: vec![EMPTY_SLOT; slots],
            vals: vec![0; slots],
            items: 0,
        }
    }

    /// Number of distinct keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether no key has been counted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    #[inline]
    fn start_slot(&self, key: u64) -> usize {
        // High multiply-shift bits: with power-of-two `slots`, take the
        // top log2(slots) bits of key * FIB_MUL.
        let h = key.wrapping_mul(FIB_MUL);
        (h >> (64 - self.keys.len().trailing_zeros())) as usize
    }

    /// Adds `count` to `key`'s counter.
    #[inline]
    pub fn add(&mut self, key: u64, count: u32) {
        debug_assert_ne!(key, EMPTY_SLOT, "u64::MAX is the empty sentinel");
        if self.items * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.start_slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                self.vals[slot] += count;
                return;
            }
            if k == EMPTY_SLOT {
                self.keys[slot] = key;
                self.vals[slot] = count;
                self.items += 1;
                return;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Increments `key`'s counter.
    #[inline]
    pub fn increment(&mut self, key: u64) {
        self.add(key, 1);
    }

    /// Current counter value for `key` (0 if absent).
    #[inline]
    #[must_use]
    pub fn get(&self, key: u64) -> u32 {
        if self.keys.is_empty() {
            return 0;
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.start_slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return self.vals[slot];
            }
            if k == EMPTY_SLOT {
                return 0;
            }
            slot = (slot + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let new_slots = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_SLOT; new_slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_slots]);
        self.items = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_SLOT {
                self.add(k, v);
            }
        }
    }

    /// Heap bytes held by the key/value arrays (12 bytes per slot).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }

    /// Whether the next [`Self::add`] would trigger a grow (the ¾-load
    /// check `add` performs before probing).
    #[must_use]
    pub fn would_grow(&self) -> bool {
        self.items * 4 >= self.keys.len() * 3
    }

    /// Heap bytes the table would hold after the next grow.
    #[must_use]
    pub fn bytes_after_grow(&self) -> usize {
        (self.keys.len() * 2).max(16) * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }

    /// Iterates `(key, count)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|&(&k, _)| k != EMPTY_SLOT)
            .map(|(&k, &v)| (k, v))
    }

    /// Consumes the table, yielding `(key, count)` in arbitrary order.
    pub fn into_entries(self) -> impl Iterator<Item = (u64, u32)> {
        self.keys
            .into_iter()
            .zip(self.vals)
            .filter(|&(k, _)| k != EMPTY_SLOT)
    }
}

/// A [`PairCounter`] split into independent shards by key bits, so
/// per-thread local counters can be merged **in parallel per shard**
/// instead of through a single-threaded fold.
///
/// The shard of a key is a pure function of the key (an fmix64-style
/// finalizer's low bits), so the same pair lands in the same shard in
/// every thread-local counter and in the merged result.
///
/// A [`restricted`](Self::restricted) counter also admits only one
/// [`PairShard`] of the pair space and caps its tables' heap: an
/// increment that would grow the tables past `cap_bytes` instead sets
/// [`overflowed`](Self::overflowed) and freezes the counter (all further
/// increments are dropped), so the heap provably never exceeds the cap.
/// A frozen counter's contents are meaningless — the pass must be
/// discarded.
#[derive(Debug)]
pub struct ShardedPairCounter {
    shards: Vec<CounterTable>,
    admit: PairShard,
    cap_bytes: usize,
    overflowed: bool,
}

/// fmix64 finalizer (MurmurHash3): used for shard selection so shard
/// bits are independent of [`CounterTable`]'s Fibonacci index bits.
#[inline]
#[must_use]
fn shard_mix(key: u64) -> u64 {
    let mut h = key;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

impl ShardedPairCounter {
    /// Creates a counter with `n_shards` (rounded up to a power of two)
    /// admitting every pair, uncapped.
    #[must_use]
    pub fn new(n_shards: usize) -> Self {
        Self::restricted(n_shards, PairShard::all(), usize::MAX)
    }

    /// A counter admitting only `admit`'s pairs, with its tables' heap
    /// capped at `cap_bytes`.
    #[must_use]
    pub(crate) fn restricted(n_shards: usize, admit: PairShard, cap_bytes: usize) -> Self {
        let n = n_shards.next_power_of_two().max(1);
        Self {
            shards: (0..n).map(|_| CounterTable::new()).collect(),
            admit,
            cap_bytes,
            overflowed: false,
        }
    }

    /// Reassembles an unrestricted counter from per-shard tables (the
    /// parallel-merge path). `shards.len()` must be a power of two and
    /// every key must already be in its [`Self::shard_of`] shard.
    #[must_use]
    pub fn from_shards(shards: Vec<CounterTable>) -> Self {
        assert!(
            shards.len().is_power_of_two(),
            "shard count not a power of two"
        );
        Self {
            shards,
            admit: PairShard::all(),
            cap_bytes: usize::MAX,
            overflowed: false,
        }
    }

    /// Whether increments pay for shard admission and the byte cap.
    #[inline]
    fn is_restricted(&self) -> bool {
        self.admit.n_shards > 1 || self.cap_bytes != usize::MAX
    }

    /// Increments `key` if the admitted shard holds it and the cap allows.
    #[inline]
    fn add_restricted(&mut self, key: u64) {
        if self.overflowed || !self.admit.admits_key(key) {
            return;
        }
        let s = self.shard_of(key);
        let table = &self.shards[s];
        // `add` checks the ¾-load condition before probing, so predicting
        // the grow here guarantees the tables never allocate past the cap.
        if table.would_grow()
            && self.heap_bytes() - table.heap_bytes() + table.bytes_after_grow() > self.cap_bytes
        {
            self.overflowed = true;
            return;
        }
        self.shards[s].add(key, 1);
    }

    /// Whether a restricted counter hit its cap (the pass must be
    /// discarded).
    #[must_use]
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Heap bytes held by all shard tables.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(CounterTable::heap_bytes).sum()
    }

    /// The pass outcome to report to a sharded driver.
    #[must_use]
    pub fn outcome(&self) -> ShardPassOutcome {
        ShardPassOutcome {
            overflowed: self.overflowed,
            counter_bytes: self.heap_bytes(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` belongs to.
    #[inline]
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        (shard_mix(key) & (self.shards.len() as u64 - 1)) as usize
    }

    /// The table backing shard `s`.
    #[must_use]
    pub fn shard(&self, s: usize) -> &CounterTable {
        &self.shards[s]
    }

    /// Decomposes the counter into its per-shard tables (inverse of
    /// [`Self::from_shards`]).
    #[must_use]
    pub fn into_shards(self) -> Vec<CounterTable> {
        self.shards
    }

    /// Adds `count` to the packed pair `key`.
    #[inline]
    pub fn add_key(&mut self, key: u64, count: u32) {
        let s = self.shard_of(key);
        self.shards[s].add(key, count);
    }

    /// Increments the counter for the unordered pair `{a, b}` (subject to
    /// a restricted counter's admission and cap).
    #[inline]
    pub fn increment(&mut self, a: u32, b: u32) {
        debug_assert_ne!(a, b, "self-pair");
        let key = if a < b {
            pack_pair(a, b)
        } else {
            pack_pair(b, a)
        };
        if self.is_restricted() {
            self.add_restricted(key);
        } else {
            self.add_key(key, 1);
        }
    }

    /// Current count for the unordered pair `{a, b}`.
    #[must_use]
    pub fn get(&self, a: u32, b: u32) -> u32 {
        let key = if a < b {
            pack_pair(a, b)
        } else {
            pack_pair(b, a)
        };
        self.shards[self.shard_of(key)].get(key)
    }

    /// Number of pairs with a nonzero count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(CounterTable::len).sum()
    }

    /// Whether no pair has been counted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(CounterTable::is_empty)
    }

    /// Iterates `(i, j, count)` with `i < j`, in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.shards.iter().flat_map(|t| {
            t.iter().map(|(k, c)| {
                let (i, j) = unpack_pair(k);
                (i, j, c)
            })
        })
    }

    /// Pairs whose count is at least `threshold`, as sorted `(i, j, count)`.
    #[must_use]
    pub fn pairs_at_least(&self, threshold: u32) -> Vec<(u32, u32, u32)> {
        let mut v: Vec<(u32, u32, u32)> = self.iter().filter(|&(_, _, c)| c >= threshold).collect();
        v.sort_unstable();
        v
    }
}

/// A shard count giving each of `threads` workers several shards to
/// merge (~4× oversubscription for dynamic balance), clamped to [8, 64].
#[must_use]
pub fn default_shards(threads: usize) -> usize {
    (threads * 4).next_power_of_two().clamp(8, 64)
}

/// Merges per-worker [`ShardedPairCounter`] locals into one counter,
/// **shard-parallel**: each shard's tables (one per local) are summed by
/// a single worker, and shards are dealt out dynamically over `pool`.
/// All locals must have the same shard count.
#[must_use]
pub fn merge_sharded(
    mut locals: Vec<ShardedPairCounter>,
    pool: &sfa_par::ThreadPool,
) -> ShardedPairCounter {
    if locals.len() <= 1 {
        return locals.pop().unwrap_or_else(|| ShardedPairCounter::new(1));
    }
    let n_shards = locals[0].shards();
    assert!(
        locals.iter().all(|l| l.shards() == n_shards),
        "locals disagree on shard count"
    );
    let locals = &locals;
    let mut merged: Vec<(usize, CounterTable)> = pool
        .par_fold(
            n_shards,
            1,
            |_| Vec::new(),
            |acc, range| {
                for s in range {
                    let cap: usize = locals.iter().map(|l| l.shard(s).len()).sum();
                    let mut table = CounterTable::with_capacity(cap);
                    for local in locals {
                        for (k, c) in local.shard(s).iter() {
                            table.add(k, c);
                        }
                    }
                    acc.push((s, table));
                }
            },
        )
        .into_iter()
        .flatten()
        .collect();
    merged.sort_unstable_by_key(|&(s, _)| s);
    ShardedPairCounter::from_shards(merged.into_iter().map(|(_, t)| t).collect())
}

/// Batched bucket scan over a **sorted** `(bucket_key, column)` slice:
/// every maximal run of equal keys is one bucket, and each run of length
/// `s` contributes `C(s, 2)` pair increments to `counter` plus (when
/// `s >= min_hist_run`) one entry to the occupancy histogram `hist[s]`.
///
/// This realizes the §3.1 Hash-Count bucket table: sorting the occupants
/// once per table replaces per-element hash-map probing, and makes the
/// scan a cache-friendly linear walk. Returns the number of attempted
/// counter increments — exactly what the incremental Hash-Count
/// structure would have done, whatever a restricted counter admits.
/// A column may occur at most once per key.
pub fn count_sorted_runs(
    entries: &[(u64, u32)],
    counter: &mut ShardedPairCounter,
    hist: &mut Vec<u64>,
    min_hist_run: usize,
) -> u64 {
    debug_assert!(
        entries.windows(2).all(|w| w[0] <= w[1]),
        "entries not sorted"
    );
    // Hoisted out of the pair loop: an unrestricted counter pays no
    // per-increment admission or cap check.
    if counter.is_restricted() {
        scan_runs(entries, hist, min_hist_run, |key| {
            counter.add_restricted(key)
        })
    } else {
        scan_runs(entries, hist, min_hist_run, |key| counter.add_key(key, 1))
    }
}

/// The run walk behind [`count_sorted_runs`], monomorphized per counter
/// mode. Columns ascend within a run, so each pair packs as `(earlier,
/// later)` directly.
#[inline(always)]
fn scan_runs(
    entries: &[(u64, u32)],
    hist: &mut Vec<u64>,
    min_hist_run: usize,
    mut bump: impl FnMut(u64),
) -> u64 {
    let mut increments = 0u64;
    let mut start = 0;
    while start < entries.len() {
        let key = entries[start].0;
        let mut end = start + 1;
        while end < entries.len() && entries[end].0 == key {
            end += 1;
        }
        let run = &entries[start..end];
        if run.len() >= min_hist_run {
            if hist.len() <= run.len() {
                hist.resize(run.len() + 1, 0);
            }
            hist[run.len()] += 1;
        }
        for (a, &(_, cj)) in run.iter().enumerate().skip(1) {
            for &(_, ci) in &run[..a] {
                bump(pack_pair(ci, cj));
                increments += 1;
            }
        }
        start = end;
    }
    increments
}

/// How a phase-2 counting pass splits its work for [`count_pairs`].
#[derive(Debug, Clone, Copy)]
pub struct TaskPlan {
    /// Number of tasks (signature rows, iterations, runs, buckets).
    pub tasks: usize,
    /// Tasks a worker claims at a time.
    pub chunk: usize,
    /// Estimated elementary operations of the whole pass; below the
    /// pool's serial cutoff the pass stays on the caller thread.
    pub scan_ops: u64,
    /// Smallest bucket the occupancy histogram records: 1 for bucket
    /// tables, 2 for Row-Sorting's runs.
    pub min_hist_run: usize,
}

/// One worker's state in [`count_pairs`]: its counter, histogram and
/// increment tally, plus a scratch buffer for tasks that build their own
/// `(bucket key, column)` entries.
#[derive(Debug)]
pub struct RunCounter {
    counter: ShardedPairCounter,
    hist: Vec<u64>,
    increments: u64,
    min_hist_run: usize,
    /// Scratch entries for [`Self::count_buf`].
    pub buf: Vec<(u64, u32)>,
}

impl RunCounter {
    /// Counts the runs of `entries`, sorted by `(key, column)`.
    pub fn count(&mut self, entries: &[(u64, u32)]) {
        self.increments += count_sorted_runs(
            entries,
            &mut self.counter,
            &mut self.hist,
            self.min_hist_run,
        );
    }

    /// Sorts [`Self::buf`] and counts its runs.
    pub fn count_buf(&mut self) {
        self.buf.sort_unstable();
        self.increments += count_sorted_runs(
            &self.buf,
            &mut self.counter,
            &mut self.hist,
            self.min_hist_run,
        );
    }
}

/// What one phase-2 counting pass produced.
#[derive(Debug)]
pub struct PairCounts {
    /// Per-pair bucket co-occurrence counts (admitted pairs only).
    pub counter: ShardedPairCounter,
    /// `bucket_histogram[s]` = buckets holding exactly `s` columns.
    pub bucket_histogram: Vec<u64>,
    /// Attempted counter increments — the paper's `O(k S̄ m²)` work term.
    pub increments: u64,
}

impl PairCounts {
    /// The pass outcome to report to a sharded driver.
    #[must_use]
    pub fn outcome(&self) -> ShardPassOutcome {
        self.counter.outcome()
    }
}

/// The phase-2 counting kernel every scheme shares: `task(t, local)` puts
/// task `t`'s buckets into `local` as sorted runs ([`RunCounter::count`]
/// or [`RunCounter::count_buf`]); tasks are dealt out dynamically over
/// `pool`, and the per-worker counters merge shard-parallel.
///
/// Only pairs in `shard` are counted. A bounded `cap_bytes` runs on one
/// worker into one table, stops at the first task after an overflow, and
/// reports it through [`PairCounts::outcome`]; with [`PairShard::all`] and
/// `usize::MAX` the counter is unrestricted. Counts, histogram and
/// increments are identical at every worker count.
pub fn count_pairs<F>(
    pool: &sfa_par::ThreadPool,
    shard: PairShard,
    cap_bytes: usize,
    plan: TaskPlan,
    task: F,
) -> PairCounts
where
    F: Fn(usize, &mut RunCounter) + Sync,
{
    let bounded = cap_bytes != usize::MAX;
    // The serial fallback gets the single-worker shard count, so pool size
    // cannot change the serial path's cache behavior; a cap is enforced
    // on one table so its overflow point is a property of the pass alone.
    let scan_ops = if bounded { 0 } else { plan.scan_ops };
    let workers = if pool.worth_parallel(scan_ops) {
        pool.threads()
    } else {
        1
    };
    let shards = if bounded { 1 } else { default_shards(workers) };
    let locals = pool.par_fold_bounded(
        plan.tasks,
        plan.chunk,
        scan_ops,
        |_| RunCounter {
            counter: ShardedPairCounter::restricted(shards, shard, cap_bytes),
            hist: Vec::new(),
            increments: 0,
            min_hist_run: plan.min_hist_run,
            buf: Vec::new(),
        },
        |local, tasks| {
            for t in tasks {
                if local.counter.overflowed {
                    break;
                }
                task(t, local);
            }
        },
    );
    let mut bucket_histogram = Vec::new();
    let mut increments = 0u64;
    let mut counters = Vec::with_capacity(locals.len());
    for local in locals {
        add_hist(&mut bucket_histogram, &local.hist);
        increments += local.increments;
        counters.push(local.counter);
    }
    PairCounts {
        counter: merge_sharded(counters, pool),
        bucket_histogram,
        increments,
    }
}

/// Elementwise histogram accumulation (grows `into` as needed) — the merge
/// step for per-worker occupancy histograms produced by
/// [`count_sorted_runs`].
pub fn add_hist(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (dst, &src) in into.iter_mut().zip(from) {
        *dst += src;
    }
}

/// A bucket table mapping hash values to the columns containing them, for
/// lookups by key (the §7 OR-rule probe). Phase-2 counting realizes its
/// buckets as sorted runs instead ([`count_pairs`]).
#[derive(Debug, Default)]
pub struct BucketTable {
    buckets: FastHashMap<u64, Vec<u32>>,
}

impl BucketTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with capacity for `n` distinct values.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            buckets: FastHashMap::with_capacity_and_hasher(n, FxBuildHasher::default()),
        }
    }

    /// Columns previously inserted under `value` (empty slice if none).
    #[inline]
    #[must_use]
    pub fn bucket(&self, value: u64) -> &[u32] {
        self.buckets.get(&value).map_or(&[], Vec::as_slice)
    }

    /// Inserts `col` under `value`.
    #[inline]
    pub fn insert(&mut self, value: u64, col: u32) {
        self.buckets.entry(value).or_default().push(col);
    }

    /// Number of distinct values present.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// Counts occurrences per ordered column pair on one unsharded table —
/// the simple form for callers outside phase 2 (the Apriori baseline, the
/// basket generator).
#[derive(Debug, Default)]
pub struct PairCounter {
    counts: CounterTable,
}

impl PairCounter {
    /// Creates an empty counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the counter for the unordered pair `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `a == b`; self-pairs are meaningless.
    #[inline]
    pub fn increment(&mut self, a: u32, b: u32) {
        self.add(a, b, 1);
    }

    /// Adds `count` to the unordered pair `{a, b}` (bulk merge support).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `a == b`.
    #[inline]
    pub fn add(&mut self, a: u32, b: u32, count: u32) {
        debug_assert_ne!(a, b, "self-pair");
        let key = if a < b {
            pack_pair(a, b)
        } else {
            pack_pair(b, a)
        };
        self.counts.add(key, count);
    }

    /// Current count for the unordered pair `{a, b}`.
    #[inline]
    #[must_use]
    pub fn get(&self, a: u32, b: u32) -> u32 {
        let key = if a < b {
            pack_pair(a, b)
        } else {
            pack_pair(b, a)
        };
        self.counts.get(key)
    }

    /// Number of pairs with a nonzero count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no pair has been counted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates `(i, j, count)` with `i < j`, in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.counts.iter().map(|(k, c)| {
            let (i, j) = unpack_pair(k);
            (i, j, c)
        })
    }

    /// Drains `(i, j, count)` entries, leaving the counter empty.
    pub fn drain(&mut self) -> impl Iterator<Item = (u32, u32, u32)> {
        std::mem::take(&mut self.counts)
            .into_entries()
            .map(|(k, c)| {
                let (i, j) = unpack_pair(k);
                (i, j, c)
            })
    }

    /// Pairs whose count is at least `threshold`, as `(i, j, count)`.
    #[must_use]
    pub fn pairs_at_least(&self, threshold: u32) -> Vec<(u32, u32, u32)> {
        let mut v: Vec<(u32, u32, u32)> = self.iter().filter(|&(_, _, c)| c >= threshold).collect();
        v.sort_unstable();
        v
    }
}

/// Salt applied before the shard-admission mix, so [`PairShard`]'s
/// admission bits are independent of both [`ShardedPairCounter::shard_of`]
/// (the unsalted fmix64 low bits) and [`CounterTable`]'s Fibonacci index
/// bits.
const PAIR_SHARD_SALT: u64 = 0xbf58_476d_1ce4_e5b9;

/// One slice of a power-of-two partition of the packed-pair key space.
///
/// Out-of-core mining runs phase 2 once per shard under a memory budget:
/// a shard admits a pair iff the salted fmix64 mix of its [`pack_pair`]
/// key lands in this slice. Admission is a pure function of the pair
/// alone, so the shards partition the pair space — the union of per-shard
/// candidate sets over all shards equals the unsharded set exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairShard {
    shard: u32,
    n_shards: u32,
}

impl PairShard {
    /// Slice `shard` of a partition into `n_shards` (a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is not a power of two or `shard >= n_shards`.
    #[must_use]
    pub fn new(shard: u32, n_shards: u32) -> Self {
        assert!(n_shards.is_power_of_two(), "shard count not a power of two");
        assert!(shard < n_shards, "shard {shard} out of range 0..{n_shards}");
        Self { shard, n_shards }
    }

    /// The trivial partition: one shard admitting every pair.
    #[must_use]
    pub fn all() -> Self {
        Self::new(0, 1)
    }

    /// This slice's index.
    #[must_use]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Number of slices in the partition.
    #[must_use]
    pub fn n_shards(&self) -> u32 {
        self.n_shards
    }

    /// Whether this slice admits the packed pair `key`.
    #[inline]
    #[must_use]
    pub fn admits_key(&self, key: u64) -> bool {
        shard_mix(key ^ PAIR_SHARD_SALT) & u64::from(self.n_shards - 1) == u64::from(self.shard)
    }

    /// Whether this slice admits the unordered pair `{a, b}`.
    #[inline]
    #[must_use]
    pub fn admits(&self, a: u32, b: u32) -> bool {
        debug_assert_ne!(a, b, "self-pair");
        let key = if a < b {
            pack_pair(a, b)
        } else {
            pack_pair(b, a)
        };
        self.admits_key(key)
    }
}

/// What a budgeted shard pass reports back to the pipeline driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardPassOutcome {
    /// The counter refused a grow that would have exceeded the budget;
    /// the pass's output is incomplete and must be discarded (the driver
    /// doubles the shard count and reruns).
    pub overflowed: bool,
    /// Final heap bytes of the pass's counter table (its peak — the
    /// table only grows).
    pub counter_bytes: usize,
}

/// Reusable dense counters over `m` slots with `O(touched)` reset.
///
/// The paper's Row-Sorting algorithm keeps one counter per column while
/// processing a focus column, then must avoid paying `O(m)` to reset them
/// for the next focus column: "we reuse the same `O(m)` counters … and
/// remember and reinitialize only counters that were incremented at least
/// once". `SparseCounters` is that structure.
#[derive(Debug)]
pub struct SparseCounters {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl SparseCounters {
    /// Creates counters over slots `0..m`, all zero.
    #[must_use]
    pub fn new(m: usize) -> Self {
        Self {
            counts: vec![0; m],
            touched: Vec::new(),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.counts.len()
    }

    /// Increments slot `slot`, remembering it for the next [`reset`](Self::reset).
    #[inline]
    pub fn increment(&mut self, slot: u32) {
        let c = &mut self.counts[slot as usize];
        if *c == 0 {
            self.touched.push(slot);
        }
        *c += 1;
    }

    /// Current value of `slot`.
    #[inline]
    #[must_use]
    pub fn get(&self, slot: u32) -> u32 {
        self.counts[slot as usize]
    }

    /// Slots incremented since the last reset (unsorted, no duplicates).
    #[must_use]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Resets only the touched slots; cost is `O(touched)`, not `O(m)`.
    pub fn reset(&mut self) {
        for &slot in &self.touched {
            self.counts[slot as usize] = 0;
        }
        self.touched.clear();
    }

    /// Drains `(slot, count)` for touched slots with count ≥ `threshold`,
    /// resetting the counters as it goes.
    pub fn drain_at_least(&mut self, threshold: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for &slot in &self.touched {
            let c = self.counts[slot as usize];
            if c >= threshold {
                out.push((slot, c));
            }
            self.counts[slot as usize] = 0;
        }
        self.touched.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (i, j) in [(0, 1), (5, 9), (0, u32::MAX), (100, 101)] {
            assert_eq!(unpack_pair(pack_pair(i, j)), (i, j));
        }
    }

    #[test]
    fn fx_hasher_spreads_sequential_keys() {
        // Sequential u64 keys must land in distinct states.
        let hash = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        let distinct: std::collections::HashSet<u64> = (0..10_000).map(hash).collect();
        assert_eq!(distinct.len(), 10_000);
        // and actually differ in high bits so map bucketing works:
        assert_ne!(hash(1) >> 56, hash(2) >> 56);
    }

    #[test]
    fn bucket_table_groups_columns() {
        let mut t = BucketTable::new();
        t.insert(42, 0);
        t.insert(42, 3);
        t.insert(7, 1);
        assert_eq!(t.bucket(42), &[0, 3]);
        assert_eq!(t.bucket(7), &[1]);
        assert_eq!(t.bucket(999), &[] as &[u32]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pair_counter_orders_pairs() {
        let mut pc = PairCounter::new();
        pc.increment(3, 1);
        pc.increment(1, 3);
        assert_eq!(pc.get(1, 3), 2);
        assert_eq!(pc.get(3, 1), 2);
        assert_eq!(pc.get(1, 2), 0);
    }

    #[test]
    fn pair_counter_threshold_filter() {
        let mut pc = PairCounter::new();
        for _ in 0..5 {
            pc.increment(0, 1);
        }
        pc.increment(0, 2);
        assert_eq!(pc.pairs_at_least(2), vec![(0, 1, 5)]);
        assert_eq!(pc.pairs_at_least(1).len(), 2);
    }

    #[test]
    fn pair_counter_drain_empties() {
        let mut pc = PairCounter::new();
        pc.increment(0, 1);
        let drained: Vec<_> = pc.drain().collect();
        assert_eq!(drained, vec![(0, 1, 1)]);
        assert!(pc.is_empty());
    }

    #[test]
    fn sparse_counters_reset_is_sparse() {
        let mut sc = SparseCounters::new(1000);
        sc.increment(5);
        sc.increment(5);
        sc.increment(999);
        assert_eq!(sc.get(5), 2);
        assert_eq!(sc.get(999), 1);
        assert_eq!(sc.touched().len(), 2);
        sc.reset();
        assert_eq!(sc.get(5), 0);
        assert_eq!(sc.get(999), 0);
        assert!(sc.touched().is_empty());
    }

    #[test]
    fn sparse_counters_drain_at_least() {
        let mut sc = SparseCounters::new(10);
        sc.increment(1);
        sc.increment(1);
        sc.increment(2);
        let mut hits = sc.drain_at_least(2);
        hits.sort_unstable();
        assert_eq!(hits, vec![(1, 2)]);
        // fully reset afterwards:
        assert_eq!(sc.get(1), 0);
        assert_eq!(sc.get(2), 0);
        assert!(sc.touched().is_empty());
    }

    #[test]
    fn counter_table_counts_and_grows() {
        let mut t = CounterTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(pack_pair(0, 1)), 0);
        // Enough keys to force several growth rounds from the empty state.
        for round in 1..=3u32 {
            for i in 0..2_000u32 {
                t.add(pack_pair(i, i + 1), round);
            }
        }
        assert_eq!(t.len(), 2_000);
        let total: u64 = t.iter().map(|(_, c)| u64::from(c)).sum();
        assert_eq!(total, 2_000 * 6);
        for i in 0..2_000u32 {
            assert_eq!(t.get(pack_pair(i, i + 1)), 6);
        }
        assert_eq!(t.get(pack_pair(5_000, 5_001)), 0);
    }

    #[test]
    fn counter_table_with_capacity_avoids_regrowth() {
        let mut t = CounterTable::with_capacity(100);
        for i in 0..100u32 {
            t.increment(pack_pair(i, i + 1));
        }
        assert_eq!(t.len(), 100);
        let entries: Vec<(u64, u32)> = t.into_entries().collect();
        assert_eq!(entries.len(), 100);
        assert!(entries.iter().all(|&(_, c)| c == 1));
    }

    #[test]
    fn sharded_counter_matches_pair_counter() {
        let mut sharded = ShardedPairCounter::new(8);
        let mut plain = PairCounter::new();
        // Deterministic pseudo-random pair stream with repeats.
        let mut x = 12345u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 40) as u32 % 300;
            let b = (x >> 20) as u32 % 300;
            if a == b {
                continue;
            }
            sharded.increment(a, b);
            plain.increment(a, b);
        }
        assert_eq!(sharded.len(), plain.len());
        assert_eq!(sharded.pairs_at_least(3), plain.pairs_at_least(3));
        // Every key sits in the shard `shard_of` claims.
        for s in 0..sharded.shards() {
            for (k, _) in sharded.shard(s).iter() {
                assert_eq!(sharded.shard_of(k), s);
            }
        }
    }

    #[test]
    fn from_shards_roundtrips_shard_tables() {
        let mut a = ShardedPairCounter::new(4);
        a.increment(1, 2);
        a.increment(1, 2);
        a.increment(7, 9);
        let shards: Vec<CounterTable> = (0..a.shards()).map(|s| a.shard(s).clone()).collect();
        let b = ShardedPairCounter::from_shards(shards);
        assert_eq!(b.get(1, 2), 2);
        assert_eq!(b.get(7, 9), 1);
        assert_eq!(b.pairs_at_least(1), a.pairs_at_least(1));
    }

    #[test]
    fn merge_sharded_sums_locals_per_shard() {
        for threads in [1, 2, 4, 7] {
            let pool = sfa_par::ThreadPool::new(threads);
            let shards = default_shards(threads);
            let mut expected = PairCounter::new();
            let locals: Vec<ShardedPairCounter> = (0..3)
                .map(|w| {
                    let mut local = ShardedPairCounter::new(shards);
                    for i in 0..50u32 {
                        let j = i + 1 + w;
                        local.increment(i, j);
                        expected.increment(i, j);
                    }
                    local
                })
                .collect();
            let merged = merge_sharded(locals, &pool);
            assert_eq!(merged.pairs_at_least(1), expected.pairs_at_least(1));
        }
    }

    #[test]
    fn count_sorted_runs_matches_incremental_scan() {
        // Buckets: key 1 -> {0,2,5}, key 3 -> {1}, key 4 -> {3,4}.
        let entries = [(1, 0), (1, 2), (1, 5), (3, 1), (4, 3), (4, 4)];
        let mut counter = ShardedPairCounter::new(4);
        let mut hist = Vec::new();
        let incr = count_sorted_runs(&entries, &mut counter, &mut hist, 1);
        assert_eq!(incr, 4); // C(3,2) + C(1,2) + C(2,2)
        assert_eq!(hist, vec![0, 1, 1, 1]);
        assert_eq!(
            counter.pairs_at_least(1),
            vec![(0, 2, 1), (0, 5, 1), (2, 5, 1), (3, 4, 1)]
        );
        // min_hist_run = 2 drops singleton buckets from the histogram
        // (the Row-Sorting convention) without changing the counts.
        let mut counter2 = ShardedPairCounter::new(4);
        let mut hist2 = Vec::new();
        let incr2 = count_sorted_runs(&entries, &mut counter2, &mut hist2, 2);
        assert_eq!(incr2, 4);
        assert_eq!(hist2, vec![0, 0, 1, 1]);
    }

    #[test]
    fn fx_hasher_write_matches_word_folds() {
        // 8-byte chunks must fold exactly like write_u64 on the LE word.
        let mut by_slice = FxHasher::default();
        by_slice.write(&42u64.to_le_bytes());
        let mut by_word = FxHasher::default();
        by_word.write_u64(42);
        assert_eq!(by_slice.finish(), by_word.finish());
        // Tails shorter than a word still contribute.
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 4]);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn sparse_counters_reusable_across_focus_columns() {
        let mut sc = SparseCounters::new(4);
        sc.increment(0);
        sc.reset();
        sc.increment(1);
        assert_eq!(sc.get(0), 0);
        assert_eq!(sc.get(1), 1);
    }

    #[test]
    fn pair_shards_partition_the_pair_space() {
        for n_shards in [1u32, 2, 4, 8] {
            let shards: Vec<PairShard> =
                (0..n_shards).map(|s| PairShard::new(s, n_shards)).collect();
            for a in 0..30u32 {
                for b in (a + 1)..30 {
                    let admitting = shards.iter().filter(|s| s.admits(a, b)).count();
                    assert_eq!(
                        admitting, 1,
                        "pair ({a},{b}) admitted by {admitting} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_shard_all_admits_everything() {
        let all = PairShard::all();
        for a in 0..50u32 {
            assert!(all.admits(a, a + 1));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn pair_shard_rejects_non_power_of_two() {
        let _ = PairShard::new(0, 3);
    }

    #[test]
    fn restricted_counter_matches_pair_counter_when_unbounded() {
        let mut plain = PairCounter::new();
        let mut restricted = ShardedPairCounter::restricted(1, PairShard::all(), usize::MAX);
        let mut capped = ShardedPairCounter::restricted(1, PairShard::all(), 1 << 20);
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                if (a + b) % 3 == 0 {
                    plain.increment(a, b);
                    restricted.increment(a, b);
                    capped.increment(a, b);
                }
            }
        }
        assert!(!capped.overflowed());
        let p: Vec<_> = plain.iter().collect();
        // Same add sequence into the same table type: identical layout,
        // hence identical iteration order, not just identical multisets.
        assert_eq!(restricted.iter().collect::<Vec<_>>(), p);
        assert_eq!(capped.iter().collect::<Vec<_>>(), p);
    }

    #[test]
    fn restricted_counter_shards_union_to_unsharded_counts() {
        let mut plain = PairCounter::new();
        let mut shards: Vec<ShardedPairCounter> = (0..4)
            .map(|s| ShardedPairCounter::restricted(2, PairShard::new(s, 4), usize::MAX))
            .collect();
        for a in 0..25u32 {
            for b in (a + 1)..25 {
                plain.increment(a, b);
                plain.increment(a, b);
                for shard in &mut shards {
                    shard.increment(a, b);
                    shard.increment(a, b);
                }
            }
        }
        let mut union: Vec<_> = shards.iter().flat_map(ShardedPairCounter::iter).collect();
        union.sort_unstable();
        let mut expected: Vec<_> = plain.iter().collect();
        expected.sort_unstable();
        assert_eq!(union, expected);
    }

    #[test]
    fn restricted_counter_freezes_at_the_cap() {
        // Cap below the minimum 16-slot table: the very first increment
        // must refuse to allocate and freeze the counter.
        let mut tiny = ShardedPairCounter::restricted(1, PairShard::all(), 100);
        tiny.increment(0, 1);
        assert!(tiny.overflowed());
        assert!(tiny.is_empty());
        assert_eq!(tiny.heap_bytes(), 0);

        // Cap admitting exactly the minimum table: grows to 16 slots
        // (192 bytes) and freezes when the ¾-load grow would pass 384.
        let mut capped = ShardedPairCounter::restricted(1, PairShard::all(), 192);
        let mut applied = 0u32;
        for j in 1..100u32 {
            capped.increment(0, j);
            if !capped.overflowed() {
                applied = j;
            }
        }
        assert!(capped.overflowed());
        assert!(capped.heap_bytes() <= 192);
        // A 16-slot table grows when an add starts with 12 items already
        // present, so exactly 12 distinct keys fit under the cap.
        assert_eq!(applied, 12);
        assert_eq!(capped.len(), 12);
        let outcome = capped.outcome();
        assert!(outcome.overflowed);
        assert_eq!(outcome.counter_bytes, 192);
    }
}
