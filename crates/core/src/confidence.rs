//! §6: high-confidence association rules without support.
//!
//! The confidence factors through quantities min-hashing can estimate:
//!
//! `conf(c_i ⇒ c_j) = S(c_i, c_j) · |C_i ∪ C_j| / |C_i|`, and
//! `Pr[h(c_i) ≤ h(c_j)] = |C_i| / |C_i ∪ C_j|` (the min of the union is
//! uniform over the union, and it lands in `C_i` exactly when `c_i`'s
//! min-hash is the smaller), so
//!
//! `conf(c_i ⇒ c_j) = Ŝ(c_i, c_j) / P̂r[h(c_i) ≤ h(c_j)]`.
//!
//! The paper also gives the cheaper candidate tests for near-1 confidence:
//! `S` lower-bounds both confidences, and `conf(c_i ⇒ c_j) ≈ 1` forces
//! `S ≈ |C_i| / |C_j|`.

use sfa_hash::PairShard;
use sfa_matrix::{Result, RowStream};
use sfa_minhash::hashcount::mh_agreement_counts;
use sfa_minhash::{CandidatePair, SignatureMatrix, EMPTY_SIGNATURE};

use crate::verify::verify_candidates;

/// A directed high-confidence rule `antecedent ⇒ consequent` with exact
/// measurements from the verification pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HighConfidenceRule {
    /// Antecedent column.
    pub antecedent: u32,
    /// Consequent column.
    pub consequent: u32,
    /// Exact `|C_a ∩ C_c|` (the rule's support count — possibly tiny;
    /// that is the point).
    pub support: u32,
    /// Exact confidence.
    pub confidence: f64,
}

/// Estimates `Pr[h(c_i) ≤ h(c_j)] = |C_i| / |C_i ∪ C_j|` as the fraction
/// of signature rows where `c_i`'s value is no greater than `c_j`'s.
///
/// Sentinel handling: an empty `c_i` contributes nothing (the true ratio
/// is 0); an empty `c_j` makes every comparison a win for `c_i` (ratio 1).
#[must_use]
pub fn prob_le(sigs: &SignatureMatrix, i: u32, j: u32) -> f64 {
    if sigs.k() == 0 {
        return 0.0;
    }
    let wins = (0..sigs.k())
        .filter(|&l| {
            let a = sigs.get(l, i);
            a != EMPTY_SIGNATURE && a <= sigs.get(l, j)
        })
        .count();
    wins as f64 / sigs.k() as f64
}

/// Estimates `conf(c_i ⇒ c_j)` from signatures alone:
/// `Ŝ(c_i, c_j) / P̂r[h(c_i) ≤ h(c_j)]`, clamped to `[0, 1]`.
#[must_use]
pub fn estimate_confidence(sigs: &SignatureMatrix, i: u32, j: u32) -> f64 {
    let p = prob_le(sigs, i, j);
    if p == 0.0 {
        0.0
    } else {
        (sigs.s_hat(i, j) / p).clamp(0.0, 1.0)
    }
}

/// Candidate generation for high-confidence rules (the paper's "alternate
/// technique" for very high confidence):
///
/// a pair becomes a candidate when either
/// * `Ŝ ≥ (1 − δ)·c*` — `S` lower-bounds both directed confidences — or
/// * `Ŝ` is within `δ` (relatively) of `min(|C_i|, |C_j|)/max(|C_i|, |C_j|)`
///   — the signature of `conf ≈ 1` with nested columns.
///
/// `column_counts` are the exact cardinalities (from the signature pass).
#[must_use]
pub fn confidence_candidates(
    sigs: &SignatureMatrix,
    column_counts: &[u32],
    conf_threshold: f64,
    delta: f64,
) -> Vec<CandidatePair> {
    let pool = sfa_par::ThreadPool::new(1);
    let counts = mh_agreement_counts(sigs, PairShard::all(), usize::MAX, &pool);
    let mut out = Vec::new();
    for (i, j, agree) in counts.counter.iter() {
        let s_hat = f64::from(agree) / sigs.k() as f64;
        let (ci, cj) = (column_counts[i as usize], column_counts[j as usize]);
        if ci == 0 || cj == 0 {
            continue;
        }
        let ratio = f64::from(ci.min(cj)) / f64::from(ci.max(cj));
        let by_similarity = s_hat >= (1.0 - delta) * conf_threshold;
        let by_ratio = (s_hat - ratio).abs() <= delta * ratio && s_hat > 0.0;
        if by_similarity || by_ratio {
            out.push(CandidatePair::new(i, j, s_hat));
        }
    }
    out.sort_by_key(CandidatePair::ids);
    out
}

/// Full §6 driver: signature pass → confidence candidates → exact
/// verification → directed rules meeting `conf_threshold`.
///
/// Returns rules sorted by descending confidence; both directions of a
/// pair are reported independently when both qualify.
///
/// # Errors
///
/// Propagates stream errors.
pub fn mine_confidence_rules<S: RowStream>(
    stream: &mut S,
    k: usize,
    seed: u64,
    conf_threshold: f64,
    delta: f64,
) -> Result<Vec<HighConfidenceRule>> {
    let sigs = sfa_minhash::compute_signatures(stream, k, seed)?;
    // Exact column counts come free from a count pass during verification;
    // for candidate generation we use the signature-pass counts which we
    // recover by one cheap extra scan of the stream... the stream has been
    // consumed, so reset and count in the verification pass instead: use
    // the agreement-based candidates first with estimated counts from
    // signatures is impossible — so count columns via one reset pass here.
    stream.reset()?;
    let mut column_counts = vec![0u32; sigs.m()];
    let mut buf = Vec::new();
    while stream.read_row(&mut buf)?.is_some() {
        for &c in &buf {
            column_counts[c as usize] += 1;
        }
    }
    let candidates = confidence_candidates(&sigs, &column_counts, conf_threshold, delta);
    stream.reset()?;
    let (verified, counts) = verify_candidates(stream, &candidates)?;
    let mut rules = Vec::new();
    for v in &verified {
        for (a, c) in [(v.i, v.j), (v.j, v.i)] {
            let ca = counts[a as usize];
            if ca == 0 {
                continue;
            }
            let confidence = f64::from(v.intersection) / f64::from(ca);
            if confidence >= conf_threshold {
                rules.push(HighConfidenceRule {
                    antecedent: a,
                    consequent: c,
                    support: v.intersection,
                    confidence,
                });
            }
        }
    }
    rules.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .expect("finite")
            .then(a.antecedent.cmp(&b.antecedent))
            .then(a.consequent.cmp(&b.consequent))
    });
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
    use sfa_minhash::compute_signatures;

    /// c0 ⊂ c1 (conf(c0 ⇒ c1) = 1, conf(c1 ⇒ c0) = 1/3);
    /// c2 and c3 disjoint.
    fn matrix() -> RowMajorMatrix {
        let mut rows = Vec::new();
        for _ in 0..10 {
            rows.push(vec![0, 1]);
        }
        for _ in 0..20 {
            rows.push(vec![1]);
        }
        for _ in 0..10 {
            rows.push(vec![2]);
            rows.push(vec![3]);
        }
        RowMajorMatrix::from_rows(4, rows).unwrap()
    }

    #[test]
    fn prob_le_estimates_cardinality_ratio() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 3000, 7).unwrap();
        // |C_0| / |C_0 ∪ C_1| = 10/30.
        let p = prob_le(&sigs, 0, 1);
        assert!((p - 1.0 / 3.0).abs() < 0.04, "estimate {p}");
        // Reverse: |C_1| / |C_0 ∪ C_1| = 1 (C_0 ⊂ C_1).
        let p = prob_le(&sigs, 1, 0);
        assert!(p > 0.97, "estimate {p}");
    }

    #[test]
    fn estimate_confidence_tracks_truth() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 3000, 9).unwrap();
        // conf(c0 ⇒ c1) = 1.
        let c01 = estimate_confidence(&sigs, 0, 1);
        assert!(c01 > 0.9, "conf(0⇒1) estimated {c01}");
        // conf(c1 ⇒ c0) = 1/3.
        let c10 = estimate_confidence(&sigs, 1, 0);
        assert!((c10 - 1.0 / 3.0).abs() < 0.07, "conf(1⇒0) estimated {c10}");
    }

    #[test]
    fn prob_le_sentinel_handling() {
        let m = RowMajorMatrix::from_rows(3, vec![vec![0], vec![0]]).unwrap();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 50, 3).unwrap();
        // Column 1 and 2 are empty.
        assert_eq!(prob_le(&sigs, 1, 0), 0.0, "empty antecedent");
        assert_eq!(prob_le(&sigs, 0, 1), 1.0, "empty consequent");
        assert_eq!(estimate_confidence(&sigs, 1, 0), 0.0);
    }

    #[test]
    fn candidates_catch_nested_columns() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 400, 5).unwrap();
        let counts = vec![10, 30, 10, 10];
        let cands = confidence_candidates(&sigs, &counts, 0.9, 0.2);
        // S(c0, c1) = 1/3 < 0.72, but the ratio test (|C0|/|C1| = 1/3 ≈ Ŝ)
        // admits the nested pair.
        assert!(
            cands.iter().any(|c| c.ids() == (0, 1)),
            "nested pair missed: {cands:?}"
        );
    }

    #[test]
    fn mine_rules_end_to_end() {
        let m = matrix();
        let rules =
            mine_confidence_rules(&mut MemoryRowStream::new(&m), 400, 11, 0.9, 0.2).unwrap();
        // conf(c0 ⇒ c1) = 1 must be found.
        let r = rules
            .iter()
            .find(|r| r.antecedent == 0 && r.consequent == 1)
            .expect("rule 0 ⇒ 1");
        assert_eq!(r.confidence, 1.0);
        assert_eq!(r.support, 10);
        // The reverse direction (conf 1/3) must NOT be reported.
        assert!(!rules.iter().any(|r| r.antecedent == 1 && r.consequent == 0));
        // Disjoint columns never produce rules.
        assert!(rules
            .iter()
            .all(|r| !(r.antecedent >= 2 && r.consequent >= 2)));
    }

    #[test]
    fn exactly_three_passes_are_used() {
        let m = matrix();
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let _ = mine_confidence_rules(&mut counter, 100, 1, 0.9, 0.2).unwrap();
        assert_eq!(counter.passes(), 3, "signatures + counts + verify");
    }
}
