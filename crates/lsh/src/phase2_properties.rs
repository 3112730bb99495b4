//! Property tests of the single phase-2 generator of all five schemes
//! (MH, Row-Sorting, K-MH, M-LSH, H-LSH) against brute force.
//!
//! Every scheme counts through one kernel, so each property is checked
//! the same way: the pair counts equal a per-pair recount, the output is
//! identical at 1, 2 and 3 workers, the union over 2- and 4-way
//! [`PairShard`] partitions equals the unsharded candidates, a roomy
//! single-table cap changes nothing, and a cap below one table overflows
//! with no candidates. The LSH recounts use this crate's own band and
//! pattern keys.
//!
//! The random matrices spread a few active columns over `N_COLS`
//! columns, so every pass's work estimate clears the pool's serial
//! cutoff and the 2- and 3-worker runs really run in parallel.

use proptest::prelude::*;
use sfa_hash::bucket::{PairCounts, PairShard, ShardPassOutcome};
use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
use sfa_minhash::hashcount::{
    kmh_candidates, kmh_overlap_counts, mh_agreement_counts, mh_candidates,
};
use sfa_minhash::rowsort::{rowsort_agreement_counts, rowsort_candidates};
use sfa_minhash::{
    compute_bottom_k, compute_signatures, CandidateGenStats, CandidatePair, SignatureMatrix,
};
use sfa_par::ThreadPool;

use crate::hlsh::{hlsh_candidates, hlsh_collision_counts, level_plans, HLshParams};
use crate::mlsh::{band_key, iteration_plan, mlsh_candidates, mlsh_collision_counts, MLshParams};

/// Columns of every generated matrix: with the sketch sizes below, every
/// pass's work estimate (`k · N_COLS`, `l · r · N_COLS`, H-LSH runs ×
/// `N_COLS`) reaches `sfa_par::SERIAL_CUTOFF`.
const N_COLS: u32 = 1 << 12;

/// Signature rows for the MH-family schemes (64 · 4096 = 2¹⁸ scan ops).
const K: usize = 64;

type Generated = (Vec<CandidatePair>, CandidateGenStats, ShardPassOutcome);

/// A table over `N_COLS` columns whose rows only touch `active`.
fn spread_matrix() -> impl Strategy<Value = (RowMajorMatrix, Vec<u32>)> {
    (2u32..10, 1u32..24).prop_flat_map(|(n_active, n_rows)| {
        let row = prop::collection::btree_set(0..n_active, 0..=n_active as usize);
        prop::collection::vec(row, n_rows as usize).prop_map(move |rows| {
            // Spread the active columns over the whole id space so packed
            // pair keys land in every counter shard.
            let active: Vec<u32> = (0..n_active).map(|c| c * 409 + 7).collect();
            let rows = rows
                .into_iter()
                .map(|r| r.into_iter().map(|c| active[c as usize]).collect())
                .collect();
            (RowMajorMatrix::from_rows(N_COLS, rows).unwrap(), active)
        })
    })
}

/// Checks one scheme's counting and candidate functions against
/// `brute(i, j)`, the per-pair count recomputed from scratch.
fn check_scheme(
    counts: impl Fn(PairShard, usize, &ThreadPool) -> PairCounts,
    candidates: impl Fn(PairShard, usize, &ThreadPool) -> Generated,
    brute: impl Fn(u32, u32) -> u32,
    active: &[u32],
) {
    let pools: Vec<ThreadPool> = (1..=3).map(ThreadPool::new).collect();
    let all = PairShard::all();

    // Counts equal the recount, and only active pairs are ever counted.
    let base_counts = counts(all, usize::MAX, &pools[0]);
    let mut colliding = 0;
    for (a, &i) in active.iter().enumerate() {
        for &j in &active[a + 1..] {
            let expected = brute(i, j);
            assert_eq!(base_counts.counter.get(i, j), expected, "pair ({i}, {j})");
            colliding += usize::from(expected > 0);
        }
    }
    assert_eq!(base_counts.counter.len(), colliding);
    // Every bucket of `s` columns accounts for C(s, 2) increments.
    let from_hist: u64 = (base_counts.bucket_histogram.iter().enumerate())
        .map(|(s, &n)| n * (s as u64 * (s as u64).saturating_sub(1) / 2))
        .sum();
    assert_eq!(base_counts.increments, from_hist);

    // Identical at every worker count.
    let base = candidates(all, usize::MAX, &pools[0]);
    assert!(!base.2.overflowed);
    for pool in &pools[1..] {
        let par = counts(all, usize::MAX, pool);
        assert_eq!(
            par.counter.pairs_at_least(1),
            base_counts.counter.pairs_at_least(1)
        );
        assert_eq!(par.bucket_histogram, base_counts.bucket_histogram);
        assert_eq!(par.increments, base_counts.increments);
        let got = candidates(all, usize::MAX, pool);
        assert_eq!(got.0, base.0, "candidates at {} workers", pool.threads());
        assert_eq!(got.1, base.1, "stats at {} workers", pool.threads());
    }

    // A full partition's union is the unsharded candidate set.
    for n_shards in [2u32, 4] {
        let mut union: Vec<CandidatePair> = (0..n_shards)
            .flat_map(|s| candidates(PairShard::new(s, n_shards), usize::MAX, &pools[1]).0)
            .collect();
        union.sort_by_key(CandidatePair::ids);
        assert_eq!(union, base.0, "{n_shards}-way partition");
    }

    // A cap counts on one table: roomy, it changes nothing...
    let roomy = candidates(all, 1 << 20, &pools[2]);
    assert!(!roomy.2.overflowed);
    assert_eq!((&roomy.0, &roomy.1), (&base.0, &base.1));
    // ...and below the minimum table, the first admitted increment
    // overflows the pass.
    let tiny = candidates(all, 100, &pools[1]);
    assert_eq!(tiny.2.overflowed, colliding > 0);
    if tiny.2.overflowed {
        assert!(tiny.0.is_empty());
        assert_eq!(tiny.2.counter_bytes, 0);
    }
}

fn mh_signatures(m: &RowMajorMatrix, seed: u64) -> SignatureMatrix {
    compute_signatures(&mut MemoryRowStream::new(m), K, seed).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mh_generator_matches_brute_force((m, active) in spread_matrix(), seed in any::<u64>()) {
        let sigs = mh_signatures(&m, seed);
        check_scheme(
            |shard, cap, pool| mh_agreement_counts(&sigs, shard, cap, pool),
            |shard, cap, pool| mh_candidates(&sigs, 0.5, 0.2, shard, cap, pool),
            |i, j| sigs.agreement_count(i, j) as u32,
            &active,
        );
    }

    #[test]
    fn rowsort_generator_matches_brute_force((m, active) in spread_matrix(), seed in any::<u64>()) {
        let sigs = mh_signatures(&m, seed);
        check_scheme(
            |shard, cap, pool| rowsort_agreement_counts(&sigs, shard, cap, pool),
            |shard, cap, pool| rowsort_candidates(&sigs, 0.5, 0.2, shard, cap, pool),
            |i, j| sigs.agreement_count(i, j) as u32,
            &active,
        );
    }

    #[test]
    fn kmh_generator_matches_brute_force((m, active) in spread_matrix(), seed in any::<u64>()) {
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), K, seed).unwrap();
        check_scheme(
            |shard, cap, pool| kmh_overlap_counts(&sigs, shard, cap, pool),
            |shard, cap, pool| kmh_candidates(&sigs, 0.5, 0.2, shard, cap, pool),
            |i, j| sigs.intersection_size(i, j) as u32,
            &active,
        );
    }

    #[test]
    fn mlsh_generator_matches_brute_force(
        (m, active) in spread_matrix(),
        seed in any::<u64>(),
        sampled in any::<bool>(),
    ) {
        let sigs = mh_signatures(&m, seed);
        let params = if sampled {
            MLshParams::sampled(3, 24, seed ^ 1)
        } else {
            MLshParams::banded(2, 32, seed ^ 1)
        };
        let plan = iteration_plan(&params, sigs.k());
        check_scheme(
            |shard, cap, pool| mlsh_collision_counts(&sigs, &params, shard, cap, pool),
            |shard, cap, pool| mlsh_candidates(&sigs, &params, shard, cap, pool),
            |i, j| {
                plan.iter()
                    .filter(|(rows, key_seed)| {
                        let key_i = band_key(&sigs, rows, *key_seed, i);
                        key_i.is_some() && key_i == band_key(&sigs, rows, *key_seed, j)
                    })
                    .count() as u32
            },
            &active,
        );
    }

    #[test]
    fn hlsh_generator_matches_brute_force(
        (m, active) in spread_matrix(),
        seed in any::<u64>(),
        include_zero_keys in any::<bool>(),
    ) {
        let params = HLshParams {
            r: 3,
            l: 64,
            t: 4,
            max_levels: 6,
            include_zero_keys,
            seed,
        };
        let (ladder, plans) = level_plans(&m, &params);
        // Column `c`'s sampled pattern at a level, bit b set iff c is in
        // sampled row b.
        let pattern = |level: &RowMajorMatrix, rows: &[u32], c: u32| -> u64 {
            rows.iter()
                .enumerate()
                .filter(|&(_, &row)| level.row(row).binary_search(&c).is_ok())
                .fold(0, |bits, (b, _)| bits | 1 << b)
        };
        check_scheme(
            |shard, cap, pool| hlsh_collision_counts(&m, &params, shard, cap, pool),
            |shard, cap, pool| hlsh_candidates(&m, &params, shard, cap, pool),
            |i, j| {
                let mut collisions = 0;
                for plan in &plans {
                    if !(plan.gated[i as usize] && plan.gated[j as usize]) {
                        continue;
                    }
                    let level = ladder.level(plan.level);
                    for rows in &plan.runs {
                        let p = pattern(level, rows, i);
                        if p == pattern(level, rows, j) && (p != 0 || include_zero_keys) {
                            collisions += 1;
                        }
                    }
                }
                collisions
            },
            &active,
        );
    }
}
