//! M-LSH: banding over the min-hash signature matrix (§4.1).
//!
//! "Each column, represented by the r Min-Hash values in the current
//! submatrix, is hashed into a table using as a hashing key the
//! concatenation of all r values. … To amplify the probability that
//! similar columns will hash to the same bucket, we repeat the process
//! l times."

use sfa_hash::bucket::{
    count_pairs, pack_pair, FastHashSet, PairCounts, PairShard, ShardPassOutcome, TaskPlan,
};
use sfa_hash::mix::{fmix64, splitmix64};
use sfa_hash::SeedSequence;
use sfa_minhash::{CandidateGenStats, CandidatePair, SignatureMatrix, EMPTY_SIGNATURE};
use sfa_par::ThreadPool;

/// How each iteration picks its `r` signature rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandSelection {
    /// Disjoint contiguous bands — requires `k ≥ r·l`; realizes the
    /// `P_{r,l}` filter exactly.
    Contiguous,
    /// Each iteration draws `r` pool indices uniformly *with replacement*
    /// from the `k` available — the `Q_{r,l,k}` approximation that lets
    /// `k < r·l` ("some of the k Min-Hash values can participate to more
    /// than one hashing keys"). With-replacement sampling is what makes the
    /// per-key match probability exactly `(d/k)^r`, so measured collision
    /// rates track `Q_{r,l,k}` (validated statistically in
    /// `tests/filter_validation.rs`).
    Sampled,
}

/// M-LSH parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MLshParams {
    /// Rows per band.
    pub r: usize,
    /// Number of bands / iterations.
    pub l: usize,
    /// Band selection mode.
    pub selection: BandSelection,
    /// Seed for sampled selection and key hashing.
    pub seed: u64,
}

impl MLshParams {
    /// Contiguous banding (requires `k ≥ r·l` at run time).
    #[must_use]
    pub const fn banded(r: usize, l: usize, seed: u64) -> Self {
        Self {
            r,
            l,
            selection: BandSelection::Contiguous,
            seed,
        }
    }

    /// Sampled banding over whatever `k` the signature matrix has.
    #[must_use]
    pub const fn sampled(r: usize, l: usize, seed: u64) -> Self {
        Self {
            r,
            l,
            selection: BandSelection::Sampled,
            seed,
        }
    }
}

/// Column `j`'s bucket key over the signature rows `rows`, or `None` when
/// any of them is [`EMPTY_SIGNATURE`] (an all-zero column must never
/// collide).
pub(crate) fn band_key(
    sigs: &SignatureMatrix,
    rows: &[usize],
    key_seed: u64,
    j: u32,
) -> Option<u64> {
    let mut key = splitmix64(key_seed);
    for &l in rows {
        let v = sigs.get(l, j);
        if v == EMPTY_SIGNATURE {
            return None;
        }
        key = fmix64(key ^ v);
    }
    Some(key)
}

/// Fills `buf` with one iteration's `(bucket key, column)` entries,
/// unsorted.
fn iteration_entries(
    sigs: &SignatureMatrix,
    rows: &[usize],
    key_seed: u64,
    buf: &mut Vec<(u64, u32)>,
) {
    buf.clear();
    for j in 0..sigs.m() as u32 {
        if let Some(key) = band_key(sigs, rows, key_seed, j) {
            buf.push((key, j));
        }
    }
}

/// Selects the signature rows for iteration `t`.
fn rows_for_iteration(
    params: &MLshParams,
    k: usize,
    t: usize,
    seq: &mut SeedSequence,
) -> Vec<usize> {
    match params.selection {
        BandSelection::Contiguous => {
            assert!(
                k >= params.r * params.l,
                "contiguous banding needs k ≥ r·l ({k} < {} × {})",
                params.r,
                params.l
            );
            (t * params.r..(t + 1) * params.r).collect()
        }
        BandSelection::Sampled => {
            assert!(k >= 1, "sampled banding needs a non-empty pool");
            // r independent uniform draws (with replacement), matching the
            // Q_{r,l,k} analysis where a key matches with probability
            // (d/k)^r given d agreeing pool values.
            (0..params.r)
                .map(|_| (seq.next_seed() % k as u64) as usize)
                .collect()
        }
    }
}

/// Every iteration's `(rows, key_seed)`, replayed from one
/// [`SeedSequence`] so batch, pool and online runs see the same bands.
pub(crate) fn iteration_plan(params: &MLshParams, k: usize) -> Vec<(Vec<usize>, u64)> {
    let mut seq = SeedSequence::new(params.seed);
    (0..params.l)
        .map(|t| {
            let rows = rows_for_iteration(params, k, t, &mut seq);
            (rows, seq.next_seed())
        })
        .collect()
}

/// Per-pair collision counts across the `l` iterations, for the pairs in
/// `shard` under `cap_bytes`, with every iteration's bucket occupancy in
/// the histogram. The iterations are dealt out dynamically over `pool`.
#[must_use]
pub fn mlsh_collision_counts(
    sigs: &SignatureMatrix,
    params: &MLshParams,
    shard: PairShard,
    cap_bytes: usize,
    pool: &ThreadPool,
) -> PairCounts {
    let plans = iteration_plan(params, sigs.k());
    let task_plan = TaskPlan {
        tasks: plans.len(),
        chunk: 1,
        scan_ops: (plans.len() as u64)
            .saturating_mul(sigs.m() as u64)
            .saturating_mul(params.r as u64),
        min_hist_run: 1,
    };
    count_pairs(pool, shard, cap_bytes, task_plan, |t, local| {
        let (rows, key_seed) = &plans[t];
        iteration_entries(sigs, rows, *key_seed, &mut local.buf);
        local.count_buf();
    })
}

/// The full M-LSH candidate generation: the union of same-bucket pairs
/// over all `l` iterations, with the `colliding-pairs` / `emitted`
/// counters and the aggregated bucket-occupancy histogram.
///
/// The returned candidates carry `estimate = collisions / l` (the fraction
/// of iterations in which the pair collided), a crude similarity signal
/// that downstream verification replaces with the exact value. A pair's
/// collision count depends on no other pair, so the union over a full
/// [`PairShard`] partition is exactly the unsharded candidate set; on
/// overflow the pass aborts with no candidates and `overflowed` set.
#[must_use]
pub fn mlsh_candidates(
    sigs: &SignatureMatrix,
    params: &MLshParams,
    shard: PairShard,
    cap_bytes: usize,
    pool: &ThreadPool,
) -> (Vec<CandidatePair>, CandidateGenStats, ShardPassOutcome) {
    let counts = mlsh_collision_counts(sigs, params, shard, cap_bytes, pool);
    collision_candidates(counts, params.l as f64)
}

/// Every colliding pair as a candidate with `estimate = collisions /
/// runs`, plus the `colliding-pairs` / `emitted` counters — the emission
/// M-LSH and H-LSH share. An overflowed pass emits nothing.
pub(crate) fn collision_candidates(
    counts: PairCounts,
    runs: f64,
) -> (Vec<CandidatePair>, CandidateGenStats, ShardPassOutcome) {
    let outcome = counts.outcome();
    if outcome.overflowed {
        return (Vec::new(), CandidateGenStats::default(), outcome);
    }
    let mut stats = CandidateGenStats {
        bucket_histogram: counts.bucket_histogram,
        ..CandidateGenStats::default()
    };
    stats.record("colliding-pairs", counts.counter.len() as u64);
    let mut out: Vec<CandidatePair> = counts
        .counter
        .iter()
        .map(|(i, j, c)| CandidatePair::new(i, j, f64::from(c) / runs))
        .collect();
    out.sort_by_key(CandidatePair::ids);
    stats.record("emitted", out.len() as u64);
    (out, stats, outcome)
}

/// Unsharded [`mlsh_candidates`] on the caller thread.
#[must_use]
pub fn mlsh_candidates_with_stats(
    sigs: &SignatureMatrix,
    params: &MLshParams,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    let pool = ThreadPool::new(1);
    let (out, stats, _) = mlsh_candidates(sigs, params, PairShard::all(), usize::MAX, &pool);
    (out, stats)
}

/// One iteration's newly discovered pairs, for the online mode: returns
/// pairs found at iteration `t` that are not already in `seen` (and adds
/// them).
#[must_use]
pub fn mlsh_iteration_pairs(
    sigs: &SignatureMatrix,
    params: &MLshParams,
    t: usize,
    seen: &mut FastHashSet<u64>,
) -> Vec<CandidatePair> {
    let (rows, key_seed) = &iteration_plan(params, sigs.k())[t];
    let mut entries = Vec::new();
    iteration_entries(sigs, rows, *key_seed, &mut entries);
    entries.sort_unstable();
    let mut out = Vec::new();
    for bucket in entries.chunk_by(|a, b| a.0 == b.0) {
        for (a, &(_, ci)) in bucket.iter().enumerate() {
            for &(_, cj) in &bucket[a + 1..] {
                if seen.insert(pack_pair(ci, cj)) {
                    out.push(CandidatePair::new(ci, cj, 1.0));
                }
            }
        }
    }
    out.sort_by_key(CandidatePair::ids);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
    use sfa_minhash::compute_signatures;

    fn candidates(sigs: &SignatureMatrix, params: &MLshParams) -> Vec<CandidatePair> {
        mlsh_candidates_with_stats(sigs, params).0
    }

    fn counts(sigs: &SignatureMatrix, params: &MLshParams) -> PairCounts {
        mlsh_collision_counts(
            sigs,
            params,
            PairShard::all(),
            usize::MAX,
            &ThreadPool::new(1),
        )
    }

    fn matrix() -> RowMajorMatrix {
        let mut rows = Vec::new();
        // Columns 0, 1 identical on 20 rows; columns 2, 3 share 2 of 20.
        for _ in 0..20 {
            rows.push(vec![0, 1]);
        }
        rows.push(vec![2, 3]);
        rows.push(vec![2, 3]);
        for _ in 0..9 {
            rows.push(vec![2]);
            rows.push(vec![3]);
        }
        rows.push(vec![4]); // lone column
        RowMajorMatrix::from_rows(5, rows).unwrap()
    }

    fn sigs(k: usize, seed: u64) -> SignatureMatrix {
        let m = matrix();
        compute_signatures(&mut MemoryRowStream::new(&m), k, seed).unwrap()
    }

    #[test]
    fn identical_columns_always_collide() {
        let s = sigs(40, 3);
        let params = MLshParams::banded(5, 8, 11);
        let cands = candidates(&s, &params);
        let found = cands.iter().find(|c| c.ids() == (0, 1)).expect("pair 0-1");
        assert!(
            (found.estimate - 1.0).abs() < 1e-12,
            "identical columns collide in every band"
        );
    }

    #[test]
    fn dissimilar_columns_rarely_collide() {
        let s = sigs(40, 3);
        let params = MLshParams::banded(5, 8, 11);
        let cands = candidates(&s, &params);
        // S(2,3) = 2/20 = 0.1; P_{5,8}(0.1) ≈ 8e-5.
        assert!(
            !cands.iter().any(|c| c.ids() == (2, 3)),
            "low-similarity pair should not collide: {cands:?}"
        );
        assert!(cands.iter().all(|c| c.i != 4 && c.j != 4));
    }

    #[test]
    #[should_panic(expected = "contiguous banding needs")]
    fn banded_requires_enough_rows() {
        let s = sigs(10, 3);
        let _ = candidates(&s, &MLshParams::banded(5, 8, 1));
    }

    #[test]
    fn sampled_mode_runs_with_small_k() {
        let s = sigs(12, 3);
        let params = MLshParams::sampled(5, 20, 7);
        let cands = candidates(&s, &params);
        assert!(cands.iter().any(|c| c.ids() == (0, 1)));
    }

    #[test]
    fn collision_counts_bounded_by_l() {
        let s = sigs(40, 5);
        let params = MLshParams::banded(4, 10, 2);
        let counts = counts(&s, &params);
        for (_, _, c) in counts.counter.iter() {
            assert!(c <= 10);
        }
    }

    #[test]
    fn empty_columns_never_collide() {
        let m = RowMajorMatrix::from_rows(4, vec![vec![0], vec![0]]).unwrap();
        let s = compute_signatures(&mut MemoryRowStream::new(&m), 20, 1).unwrap();
        // Columns 1, 2, 3 are all-zero.
        let cands = candidates(&s, &MLshParams::banded(4, 5, 2));
        assert!(
            cands.iter().all(|c| c.i == 0 || c.j == 0),
            "empty columns collided: {cands:?}"
        );
        assert!(!cands.iter().any(|c| c.ids() == (1, 2)));
    }

    #[test]
    fn deterministic_per_seed() {
        let s = sigs(40, 9);
        let p = MLshParams::sampled(5, 6, 42);
        assert_eq!(candidates(&s, &p), candidates(&s, &p));
        let p2 = MLshParams::sampled(5, 6, 43);
        // Different seed may differ (not guaranteed, but counts will).
        let _ = candidates(&s, &p2);
    }

    #[test]
    fn stats_count_every_bucket_and_emitted_pair() {
        let s = sigs(40, 3);
        let params = MLshParams::banded(5, 8, 11);
        let (cands, stats) = mlsh_candidates_with_stats(&s, &params);
        assert_eq!(stats.stage("emitted"), Some(cands.len() as u64));
        // Every non-empty column lands in some bucket each iteration, so
        // total occupancy is l × (non-empty columns) = 8 × 5.
        let occupancy: u64 = stats
            .bucket_histogram
            .iter()
            .enumerate()
            .map(|(size, &n)| size as u64 * n)
            .sum();
        assert_eq!(occupancy, 40);
    }

    #[test]
    fn online_iterations_union_matches_batch() {
        let s = sigs(40, 9);
        let params = MLshParams::banded(5, 8, 21);
        let batch: Vec<(u32, u32)> = candidates(&s, &params)
            .iter()
            .map(CandidatePair::ids)
            .collect();
        let mut seen = FastHashSet::default();
        let mut online = Vec::new();
        for t in 0..params.l {
            online.extend(
                mlsh_iteration_pairs(&s, &params, t, &mut seen)
                    .iter()
                    .map(CandidatePair::ids),
            );
        }
        online.sort_unstable();
        let mut batch_sorted = batch;
        batch_sorted.sort_unstable();
        assert_eq!(online, batch_sorted);
    }

    #[test]
    fn collision_rate_tracks_p_filter() {
        // Statistical: with r = 2, l = 1 the collision probability of the
        // pair (2,3) with S = 0.1 is about 0.1² = 0.01. Run many seeds.
        let m = matrix();
        let trials = 400;
        let mut collisions = 0;
        for seed in 0..trials {
            let s = compute_signatures(&mut MemoryRowStream::new(&m), 2, seed).unwrap();
            let params = MLshParams::banded(2, 1, seed ^ 0xabc);
            let counts = counts(&s, &params);
            if counts.counter.get(2, 3) > 0 {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expected = crate::filter::p_filter(0.1, 2, 1);
        assert!(
            (rate - expected).abs() < 0.025,
            "rate {rate} vs expected {expected}"
        );
    }
}
