//! The online/interruptible LSH mode (§4).
//!
//! "Each iteration of our algorithm reduces the number of false negatives
//! by a fixed factor … the user can monitor the progress of the algorithm
//! and interrupt the process at any time if satisfied with the results
//! produced so far. Moreover, the higher the similarity, the earlier the
//! pair is likely to be discovered."

use sfa_hash::bucket::FastHashSet;
use sfa_minhash::{CandidatePair, SignatureMatrix};

use crate::filter::p_filter;
use crate::mlsh::{mlsh_iteration_pairs, MLshParams};

/// An incremental M-LSH run that yields newly discovered candidate pairs
/// one iteration at a time.
///
/// # Examples
///
/// ```
/// use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
/// use sfa_minhash::compute_signatures;
/// use sfa_lsh::{MLshParams, OnlineMLsh};
///
/// let m = RowMajorMatrix::from_rows(2, vec![vec![0, 1]; 10]).unwrap();
/// let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 20, 1).unwrap();
/// let mut online = OnlineMLsh::new(&sigs, MLshParams::banded(4, 5, 7));
/// let first = online.next_iteration().unwrap();
/// assert_eq!(first[0].ids(), (0, 1)); // identical columns surface at once
/// assert!(online.recall_estimate(0.9) > 0.0);
/// ```
#[derive(Debug)]
pub struct OnlineMLsh<'a> {
    sigs: &'a SignatureMatrix,
    params: MLshParams,
    next_t: usize,
    seen: FastHashSet<u64>,
    emitted: usize,
}

impl<'a> OnlineMLsh<'a> {
    /// Starts an online run; nothing is computed until
    /// [`next_iteration`](Self::next_iteration).
    #[must_use]
    pub fn new(sigs: &'a SignatureMatrix, params: MLshParams) -> Self {
        Self {
            sigs,
            params,
            next_t: 0,
            seen: FastHashSet::default(),
            emitted: 0,
        }
    }

    /// Iterations completed so far.
    #[must_use]
    pub const fn iterations_done(&self) -> usize {
        self.next_t
    }

    /// Distinct candidate pairs emitted so far.
    #[must_use]
    pub const fn pairs_found(&self) -> usize {
        self.emitted
    }

    /// Runs the next iteration and returns the pairs not seen before, or
    /// `None` when all `l` iterations are done.
    pub fn next_iteration(&mut self) -> Option<Vec<CandidatePair>> {
        if self.next_t >= self.params.l {
            return None;
        }
        let new = mlsh_iteration_pairs(self.sigs, &self.params, self.next_t, &mut self.seen);
        self.next_t += 1;
        self.emitted += new.len();
        Some(new)
    }

    /// The probability that a pair of similarity `s` has been discovered by
    /// now: `P_{r,t}(s)` after `t` completed iterations.
    #[must_use]
    pub fn recall_estimate(&self, s: f64) -> f64 {
        if self.next_t == 0 {
            0.0
        } else {
            p_filter(s, self.params.r, self.next_t)
        }
    }

    /// Drains all remaining iterations, returning everything new.
    pub fn run_to_completion(&mut self) -> Vec<CandidatePair> {
        let mut out = Vec::new();
        while let Some(mut batch) = self.next_iteration() {
            out.append(&mut batch);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlsh::mlsh_candidates_with_stats;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
    use sfa_minhash::compute_signatures;

    fn sigs() -> SignatureMatrix {
        let mut rows = Vec::new();
        for i in 0..60u32 {
            let mut r = vec![];
            if i % 2 == 0 {
                r.extend([0, 1]); // identical pair
            }
            if i % 3 == 0 {
                r.push(2);
            }
            if i % 3 == 1 {
                r.push(3);
            }
            rows.push(r);
        }
        let m = RowMajorMatrix::from_rows(4, rows).unwrap();
        compute_signatures(&mut MemoryRowStream::new(&m), 40, 5).unwrap()
    }

    #[test]
    fn online_union_equals_batch() {
        let s = sigs();
        let params = MLshParams::banded(5, 8, 13);
        let mut online = OnlineMLsh::new(&s, params);
        let mut collected: Vec<(u32, u32)> = online
            .run_to_completion()
            .iter()
            .map(CandidatePair::ids)
            .collect();
        collected.sort_unstable();
        let mut batch: Vec<(u32, u32)> = mlsh_candidates_with_stats(&s, &params)
            .0
            .iter()
            .map(CandidatePair::ids)
            .collect();
        batch.sort_unstable();
        assert_eq!(collected, batch);
        assert_eq!(online.pairs_found(), batch.len());
    }

    #[test]
    fn no_pair_is_emitted_twice() {
        let s = sigs();
        let mut online = OnlineMLsh::new(&s, MLshParams::banded(4, 10, 3));
        let mut all = Vec::new();
        while let Some(batch) = online.next_iteration() {
            all.extend(batch.iter().map(CandidatePair::ids));
        }
        let distinct: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn iterations_are_bounded_by_l() {
        let s = sigs();
        let mut online = OnlineMLsh::new(&s, MLshParams::banded(4, 3, 3));
        assert!(online.next_iteration().is_some());
        assert!(online.next_iteration().is_some());
        assert!(online.next_iteration().is_some());
        assert!(online.next_iteration().is_none());
        assert_eq!(online.iterations_done(), 3);
    }

    #[test]
    fn recall_estimate_grows_per_iteration() {
        let s = sigs();
        let mut online = OnlineMLsh::new(&s, MLshParams::banded(4, 6, 3));
        assert_eq!(online.recall_estimate(0.8), 0.0);
        let mut prev = 0.0;
        while online.next_iteration().is_some() {
            let r = online.recall_estimate(0.8);
            assert!(r >= prev);
            prev = r;
        }
        assert!((prev - p_filter(0.8, 4, 6)).abs() < 1e-12);
    }

    #[test]
    fn identical_pair_surfaces_in_first_iteration() {
        let s = sigs();
        let mut online = OnlineMLsh::new(&s, MLshParams::banded(5, 8, 13));
        let first = online.next_iteration().unwrap();
        assert!(first.iter().any(|c| c.ids() == (0, 1)));
    }
}
