//! The Hash-Count candidate generator (§3.1).
//!
//! "We associate a bucket with each Min-Hash value … and store
//! column-indices for all columns `c_i` with some element of `SIG_i`
//! hashing into that bucket. … For each column `c_j` in the bucket, we
//! increment the counter for `(c_i, c_j)`." The total work is the number of
//! counter increments — `O(k S̄ m²)` expected — with **no** term quadratic
//! in `m` when the average similarity `S̄` is small.
//!
//! Buckets are realized as sorted runs of equal values and counted by the
//! shared kernel [`sfa_hash::count_pairs`], which performs exactly the
//! increments and bucket occupancy of the incremental table. Every
//! generator takes a [`PairShard`], a byte cap and a pool: an unsharded
//! run passes [`PairShard::all`] and `usize::MAX`, and a sequential run a
//! one-worker pool.

use sfa_hash::bucket::{
    count_pairs, unpack_pair, PairCounts, PairShard, ShardPassOutcome, TaskPlan,
};
use sfa_par::ThreadPool;

use crate::candidates::{CandidateGenStats, CandidatePair};
use crate::estimate;
use crate::kmh::BottomKSignatures;
use crate::signature::{SignatureMatrix, EMPTY_SIGNATURE};
use crate::theory::agreement_threshold;

/// Counts, for every column pair in `shard`, the number of `M̂` rows on
/// which the two columns agree, via one bucket table per signature row.
///
/// This is the MH flavour of Hash-Count: "we use a different hash table
/// (and set of buckets) for each row of the matrix `M̂`, and execute the
/// same process as for K-Min-Hash."
#[must_use]
pub fn mh_agreement_counts(
    sigs: &SignatureMatrix,
    shard: PairShard,
    cap_bytes: usize,
    pool: &ThreadPool,
) -> PairCounts {
    row_bucket_counts(sigs, shard, cap_bytes, pool, 1)
}

/// The per-row bucket scan shared by MH and Row-Sorting: signature rows
/// are dealt out dynamically, and each row's non-empty `(value, column)`
/// entries are sorted once so every run of equal values is one bucket.
/// `min_hist_run` is 1 for Hash-Count occupancy (all buckets) and 2 for
/// Row-Sorting (runs of at least two columns).
pub(crate) fn row_bucket_counts(
    sigs: &SignatureMatrix,
    shard: PairShard,
    cap_bytes: usize,
    pool: &ThreadPool,
    min_hist_run: usize,
) -> PairCounts {
    let plan = TaskPlan {
        tasks: sigs.k(),
        chunk: 1,
        // Scan cost before counting: k rows × m entries each.
        scan_ops: (sigs.k() as u64).saturating_mul(sigs.m() as u64),
        min_hist_run,
    };
    count_pairs(pool, shard, cap_bytes, plan, |l, local| {
        local.buf.clear();
        for (j, &v) in sigs.row(l).iter().enumerate() {
            if v != EMPTY_SIGNATURE {
                local.buf.push((v, j as u32));
            }
        }
        local.count_buf();
    })
}

/// MH candidate generation: pairs agreeing on at least
/// `(1 − δ)·s*·k` of their `k` min-hash values, with `Ŝ` as estimate.
///
/// Stage counters: `counter-increments` (attempted increments — the scan
/// work, independent of the shard), `pairs-agreeing` and
/// `threshold-admitted`; the histogram aggregates the `k` per-row bucket
/// tables. Shard admission is a pure per-pair predicate, so the union of
/// per-shard candidate sets over a full partition equals the unsharded
/// set. When the counter overflows `cap_bytes` the pass is aborted: no
/// candidates, and [`ShardPassOutcome::overflowed`] set.
#[must_use]
pub fn mh_candidates(
    sigs: &SignatureMatrix,
    s_star: f64,
    delta: f64,
    shard: PairShard,
    cap_bytes: usize,
    pool: &ThreadPool,
) -> (Vec<CandidatePair>, CandidateGenStats, ShardPassOutcome) {
    let counts = mh_agreement_counts(sigs, shard, cap_bytes, pool);
    agreement_candidates(sigs, s_star, delta, counts)
}

/// The agreement-count admission MH and Row-Sorting share.
pub(crate) fn agreement_candidates(
    sigs: &SignatureMatrix,
    s_star: f64,
    delta: f64,
    counts: PairCounts,
) -> (Vec<CandidatePair>, CandidateGenStats, ShardPassOutcome) {
    let outcome = counts.outcome();
    if outcome.overflowed {
        return (Vec::new(), CandidateGenStats::default(), outcome);
    }
    let mut stats = CandidateGenStats {
        bucket_histogram: counts.bucket_histogram,
        ..CandidateGenStats::default()
    };
    stats.record("counter-increments", counts.increments);
    stats.record("pairs-agreeing", counts.counter.len() as u64);
    let threshold = agreement_threshold(sigs.k(), s_star, delta) as u32;
    let mut out: Vec<CandidatePair> = counts
        .counter
        .iter()
        .filter(|&(_, _, c)| c >= threshold)
        .map(|(i, j, c)| CandidatePair::new(i, j, f64::from(c) / sigs.k() as f64))
        .collect();
    out.sort_by_key(CandidatePair::ids);
    stats.record("threshold-admitted", out.len() as u64);
    (out, stats, outcome)
}

/// Unsharded [`mh_candidates`] on `pool`.
#[must_use]
pub fn mh_candidates_with_stats_pool(
    sigs: &SignatureMatrix,
    s_star: f64,
    delta: f64,
    pool: &ThreadPool,
) -> (Vec<CandidatePair>, CandidateGenStats) {
    let (out, stats, _) = mh_candidates(sigs, s_star, delta, PairShard::all(), usize::MAX, pool);
    (out, stats)
}

/// Counts `|SIG_i ∩ SIG_j|` for every column pair in `shard` sharing at
/// least one sketch value — the K-MH flavour of Hash-Count, using a single
/// bucket table over all values: the `(sketch value, column)` entries are
/// gathered, sorted once and split at value boundaries, and the buckets
/// are dealt out dynamically.
#[must_use]
pub fn kmh_overlap_counts(
    sigs: &BottomKSignatures,
    shard: PairShard,
    cap_bytes: usize,
    pool: &ThreadPool,
) -> PairCounts {
    let m = sigs.m();
    // Gather + count cost tracks the total number of sketch values, which
    // is at most k per column.
    let scan_ops = (sigs.k() as u64).saturating_mul(m as u64);
    let mut entries: Vec<(u64, u32)> = pool
        .par_fold_bounded(
            m,
            pool.chunk_for(m),
            scan_ops,
            |_| Vec::new(),
            |acc, cols| {
                for j in cols {
                    for &v in sigs.signature(j as u32) {
                        acc.push((v, j as u32));
                    }
                }
            },
        )
        .concat();
    entries.sort_unstable();
    // Bucket boundaries: maximal runs of equal sketch value.
    let mut starts = vec![0usize];
    for idx in 1..entries.len() {
        if entries[idx].0 != entries[idx - 1].0 {
            starts.push(idx);
        }
    }
    starts.push(entries.len());
    let n_buckets = starts.len() - 1;
    let plan = TaskPlan {
        tasks: n_buckets,
        chunk: pool.chunk_for(n_buckets),
        scan_ops,
        min_hist_run: 1,
    };
    count_pairs(pool, shard, cap_bytes, plan, |b, local| {
        local.count(&entries[starts[b]..starts[b + 1]]);
    })
}

/// K-MH candidate generation (§3.2's two-stage plan):
///
/// 1. compute the sketch overlaps with Hash-Count (`O(k S̄ m²)`),
/// 2. admit pairs whose overlap clears the per-pair biased threshold,
/// 3. re-score the admitted pairs with the Theorem 2 unbiased estimator
///    (the "main-memory candidate pruning phase") and keep those at
///    `≥ (1 − δ)·s*`.
///
/// Stage counters: `counter-increments`, `pairs-overlapping`,
/// `overlap-admitted`, `rescore-admitted`; the histogram is the single
/// sketch-value table's occupancy. The overlap count, per-pair threshold
/// and re-scoring of a pair depend on no other pair, so sharding and
/// overflow behave as in [`mh_candidates`]. Re-scoring runs
/// shard-parallel over the counter's tables.
#[must_use]
pub fn kmh_candidates(
    sigs: &BottomKSignatures,
    s_star: f64,
    delta: f64,
    shard: PairShard,
    cap_bytes: usize,
    pool: &ThreadPool,
) -> (Vec<CandidatePair>, CandidateGenStats, ShardPassOutcome) {
    let counts = kmh_overlap_counts(sigs, shard, cap_bytes, pool);
    let outcome = counts.outcome();
    if outcome.overflowed {
        return (Vec::new(), CandidateGenStats::default(), outcome);
    }
    let counter = &counts.counter;
    let mut stats = CandidateGenStats {
        bucket_histogram: counts.bucket_histogram,
        ..CandidateGenStats::default()
    };
    stats.record("counter-increments", counts.increments);
    stats.record("pairs-overlapping", counter.len() as u64);
    // Re-scoring is O(k) per overlapping pair; tiny candidate sets stay
    // on the caller thread.
    let rescore_ops = (counter.len() as u64).saturating_mul(sigs.k() as u64);
    let shard_results = pool.par_fold_bounded(
        counter.shards(),
        1,
        rescore_ops,
        |_| (0u64, Vec::new()),
        |(admitted, out), shards| {
            for s in shards {
                for (key, overlap) in counter.shard(s).iter() {
                    let (i, j) = unpack_pair(key);
                    let threshold = estimate::kmh_overlap_threshold(
                        s_star,
                        delta,
                        sigs.k(),
                        sigs.column_count(i) as usize,
                        sigs.column_count(j) as usize,
                    );
                    if (overlap as usize) < threshold {
                        continue;
                    }
                    *admitted += 1;
                    let unbiased = sigs.unbiased_similarity(i, j);
                    if unbiased >= (1.0 - delta) * s_star {
                        out.push(CandidatePair::new(i, j, unbiased));
                    }
                }
            }
        },
    );
    let mut overlap_admitted = 0u64;
    let mut out = Vec::new();
    for (admitted, cands) in shard_results {
        overlap_admitted += admitted;
        out.extend(cands);
    }
    out.sort_by_key(CandidatePair::ids);
    stats.record("overlap-admitted", overlap_admitted);
    stats.record("rescore-admitted", out.len() as u64);
    (out, stats, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};

    /// Matrix with one highly similar pair (0, 1), a partial pair (2, 3),
    /// and an isolated column 4.
    fn matrix() -> RowMajorMatrix {
        let rows = vec![
            vec![0, 1],
            vec![0, 1],
            vec![0, 1],
            vec![0, 1],
            vec![0, 1, 2, 3],
            vec![2, 3],
            vec![2],
            vec![3],
            vec![4],
            vec![4],
        ];
        RowMajorMatrix::from_rows(5, rows).unwrap()
    }

    fn mh(sigs: &SignatureMatrix, s_star: f64, delta: f64) -> Vec<CandidatePair> {
        let pool = ThreadPool::new(1);
        mh_candidates(sigs, s_star, delta, PairShard::all(), usize::MAX, &pool).0
    }

    fn kmh(sigs: &BottomKSignatures, s_star: f64, delta: f64) -> Vec<CandidatePair> {
        let pool = ThreadPool::new(1);
        kmh_candidates(sigs, s_star, delta, PairShard::all(), usize::MAX, &pool).0
    }

    #[test]
    fn mh_agreement_counts_match_direct() {
        let m = matrix();
        let sigs = crate::mh::compute_signatures(&mut MemoryRowStream::new(&m), 64, 3).unwrap();
        let counts = mh_agreement_counts(&sigs, PairShard::all(), usize::MAX, &ThreadPool::new(1));
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                assert_eq!(
                    counts.counter.get(i, j) as usize,
                    sigs.agreement_count(i, j),
                    "pair ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn mh_candidates_find_similar_pair() {
        let m = matrix();
        let sigs = crate::mh::compute_signatures(&mut MemoryRowStream::new(&m), 200, 5).unwrap();
        let cands = mh(&sigs, 0.8, 0.2);
        assert!(
            cands.iter().any(|c| c.ids() == (0, 1)),
            "missing the similar pair: {cands:?}"
        );
        // The isolated column never appears.
        assert!(cands.iter().all(|c| c.i != 4 && c.j != 4));
    }

    #[test]
    fn mh_candidates_threshold_excludes_weak_pairs() {
        let m = matrix();
        let sigs = crate::mh::compute_signatures(&mut MemoryRowStream::new(&m), 200, 5).unwrap();
        // S(2,3) = 2/4 = 0.5 < 0.8·(1−0.1): excluded at high cutoff.
        let cands = mh(&sigs, 0.9, 0.1);
        assert!(cands.iter().all(|c| c.ids() != (2, 3)), "{cands:?}");
    }

    #[test]
    fn kmh_overlap_counts_match_direct() {
        let m = matrix();
        let sigs = crate::kmh::compute_bottom_k(&mut MemoryRowStream::new(&m), 8, 3).unwrap();
        let counts = kmh_overlap_counts(&sigs, PairShard::all(), usize::MAX, &ThreadPool::new(1));
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                assert_eq!(
                    counts.counter.get(i, j) as usize,
                    sigs.intersection_size(i, j),
                    "pair ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn kmh_candidates_find_similar_pair() {
        let m = matrix();
        let sigs = crate::kmh::compute_bottom_k(&mut MemoryRowStream::new(&m), 16, 5).unwrap();
        let cands = kmh(&sigs, 0.8, 0.2);
        assert!(
            cands.iter().any(|c| c.ids() == (0, 1)),
            "missing the similar pair: {cands:?}"
        );
        assert!(cands.iter().all(|c| c.i != 4 && c.j != 4));
    }

    #[test]
    fn stage_counters_describe_the_candidates() {
        let m = matrix();
        let pool = ThreadPool::new(1);
        let sigs = crate::mh::compute_signatures(&mut MemoryRowStream::new(&m), 64, 3).unwrap();
        let (cands, stats, outcome) =
            mh_candidates(&sigs, 0.8, 0.2, PairShard::all(), usize::MAX, &pool);
        assert!(!outcome.overflowed);
        assert_eq!(stats.stage("threshold-admitted"), Some(cands.len() as u64));
        assert!(stats.stage("counter-increments").unwrap() > 0);
        assert!(stats.bucket_histogram.iter().sum::<u64>() > 0);

        let ksigs = crate::kmh::compute_bottom_k(&mut MemoryRowStream::new(&m), 16, 5).unwrap();
        let (kcands, kstats, _) =
            kmh_candidates(&ksigs, 0.8, 0.2, PairShard::all(), usize::MAX, &pool);
        assert_eq!(kstats.stage("rescore-admitted"), Some(kcands.len() as u64));
        assert!(kstats.stage("pairs-overlapping").unwrap() >= kcands.len() as u64);
    }

    #[test]
    fn no_candidates_on_disjoint_columns() {
        let rows = vec![vec![0], vec![1], vec![2]];
        let m = RowMajorMatrix::from_rows(3, rows).unwrap();
        let sigs = crate::mh::compute_signatures(&mut MemoryRowStream::new(&m), 32, 1).unwrap();
        assert!(mh(&sigs, 0.5, 0.2).is_empty());
        let ksigs = crate::kmh::compute_bottom_k(&mut MemoryRowStream::new(&m), 8, 1).unwrap();
        assert!(kmh(&ksigs, 0.5, 0.2).is_empty());
    }
}
