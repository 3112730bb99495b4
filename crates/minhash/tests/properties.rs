//! Property-based tests for signatures, estimators and candidate
//! generation.

use proptest::prelude::*;

use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
use sfa_minhash::estimate::{kmh_biased, kmh_unbiased, lemma1_bounds};
use sfa_minhash::theory::agreement_threshold;
use sfa_minhash::{compute_bottom_k, compute_signatures, KmhBuilder, MhBuilder};

fn row_set(bound: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..bound, 0..=max_len)
        .prop_map(|s| s.into_iter().collect::<Vec<u32>>())
}

fn small_matrix() -> impl Strategy<Value = RowMajorMatrix> {
    (1u32..14, 2u32..8).prop_flat_map(|(n_rows, n_cols)| {
        prop::collection::vec(row_set(n_cols, n_cols as usize), n_rows as usize)
            .prop_map(move |rows| RowMajorMatrix::from_rows(n_cols, rows).unwrap())
    })
}

proptest! {
    #[test]
    fn s_hat_is_a_bounded_symmetric_score(m in small_matrix(), seed in any::<u64>()) {
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 12, seed).unwrap();
        for i in 0..m.n_cols() {
            for j in 0..m.n_cols() {
                let s = sigs.s_hat(i, j);
                prop_assert!((0.0..=1.0).contains(&s));
                prop_assert_eq!(s, sigs.s_hat(j, i));
            }
        }
    }

    #[test]
    fn identical_columns_have_s_hat_one(rows in row_set(12, 8), seed in any::<u64>()) {
        prop_assume!(!rows.is_empty());
        // Build a matrix where columns 0 and 1 have identical content.
        let matrix_rows: Vec<Vec<u32>> = (0..12u32)
            .map(|r| if rows.contains(&r) { vec![0, 1] } else { vec![] })
            .collect();
        let m = RowMajorMatrix::from_rows(2, matrix_rows).unwrap();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 10, seed).unwrap();
        prop_assert_eq!(sigs.s_hat(0, 1), 1.0);
        let ksigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 6, seed).unwrap();
        prop_assert_eq!(ksigs.unbiased_similarity(0, 1), 1.0);
    }

    #[test]
    fn estimators_are_bounded(
        overlap in 0usize..20,
        k in 1usize..20,
        ci in 0usize..100,
        cj in 0usize..100,
    ) {
        let s = kmh_biased(overlap, k, ci, cj);
        prop_assert!((0.0..=1.0).contains(&s));
        let (lo, hi) = lemma1_bounds(overlap as f64, k, ci + cj);
        prop_assert!(lo <= hi + 1e-12);
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn unbiased_estimator_bounded_and_exact_when_small(
        a in prop::collection::btree_set(any::<u64>(), 0..10),
        b in prop::collection::btree_set(any::<u64>(), 0..10),
    ) {
        let a: Vec<u64> = a.into_iter().collect();
        let b: Vec<u64> = b.into_iter().collect();
        let est = kmh_unbiased(&a, &b, 64);
        prop_assert!((0.0..=1.0).contains(&est));
        // k ≥ |a ∪ b| makes the sketch exhaustive: exact Jaccard of values.
        let inter = a.iter().filter(|v| b.contains(v)).count();
        let union = a.len() + b.len() - inter;
        let exact = if union == 0 { 0.0 } else { inter as f64 / union as f64 };
        prop_assert!((est - exact).abs() < 1e-12);
    }

    #[test]
    fn agreement_threshold_monotonicity(
        k in 1usize..500,
        s1 in 0.01f64..1.0,
        s2 in 0.01f64..1.0,
        delta in 0.0f64..0.9,
    ) {
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(agreement_threshold(k, lo, delta) <= agreement_threshold(k, hi, delta));
        prop_assert!(agreement_threshold(k, hi, delta) >= 1);
    }

    #[test]
    fn builders_are_split_invariant(m in small_matrix(), seed in any::<u64>(), split in 0u32..14) {
        // Pushing rows in two builders and merging equals one builder.
        let split = split.min(m.n_rows());
        let mcols = m.n_cols() as usize;
        let mut whole_mh = MhBuilder::new(6, mcols, seed);
        let mut left_mh = MhBuilder::new(6, mcols, seed);
        let mut right_mh = MhBuilder::new(6, mcols, seed);
        let mut whole_kmh = KmhBuilder::new(4, mcols, seed);
        let mut left_kmh = KmhBuilder::new(4, mcols, seed);
        let mut right_kmh = KmhBuilder::new(4, mcols, seed);
        for (id, cols) in m.rows() {
            whole_mh.push_row(id, cols);
            whole_kmh.push_row(id, cols);
            if id < split {
                left_mh.push_row(id, cols);
                left_kmh.push_row(id, cols);
            } else {
                right_mh.push_row(id, cols);
                right_kmh.push_row(id, cols);
            }
        }
        left_mh.merge(&right_mh);
        left_kmh.merge(&right_kmh);
        prop_assert_eq!(left_mh.finish(), whole_mh.finish());
        prop_assert_eq!(left_kmh.finish(), whole_kmh.finish());
    }

    #[test]
    fn persisted_sketches_roundtrip(m in small_matrix(), seed in any::<u64>(), tag in 0u64..1_000_000) {
        let dir = std::env::temp_dir().join("sfa_minhash_prop_io");
        std::fs::create_dir_all(&dir).unwrap();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 4, seed).unwrap();
        let p = dir.join(format!("s{tag}.sfmh"));
        sfa_minhash::persist::write_signatures(&sigs, &p).unwrap();
        prop_assert_eq!(sfa_minhash::persist::read_signatures(&p).unwrap(), sigs);
        std::fs::remove_file(&p).ok();

        let ksigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 4, seed).unwrap();
        let p = dir.join(format!("s{tag}.sfkm"));
        sfa_minhash::persist::write_bottom_k(&ksigs, &p).unwrap();
        prop_assert_eq!(sfa_minhash::persist::read_bottom_k(&p).unwrap(), ksigs);
        std::fs::remove_file(&p).ok();
    }
}
