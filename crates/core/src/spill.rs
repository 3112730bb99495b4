//! Shard spill files for out-of-core mining (`.sfsp`).
//!
//! A [`Pipeline::execute`](crate::Pipeline::execute) plan with a
//! [`MemoryBudget`](crate::MemoryBudget) partitions the pair space into
//! column shards, generates each shard's candidates under the memory
//! budget, and spills them here so (a) only one shard group's
//! candidate state is ever resident during verification and (b) a killed
//! run can resume without regenerating finished shards. Two record kinds
//! share one container format:
//!
//! * **shard candidates** (`shard_<s>_of_<g>.sfsp`) — the candidate pairs
//!   one [`PairShard`](sfa_hash::bucket::PairShard) admitted. Candidate
//!   sets are a pure function of the phase-1 summary and the shard, never
//!   of the byte budget, so a spilled shard is reusable across runs with
//!   different budgets.
//! * **group verify results** (`verify_group_<idx>.sfsp`) — one shard
//!   group's verified pairs, column counts and probe count, keyed by the
//!   fingerprint of the exact candidate list that was verified.
//!
//! Like checkpoints (`docs/ROBUSTNESS.md`), spill files are **advisory**:
//! any load failure — missing file, bad magic/version/CRC, or a run-key,
//! shard, or fingerprint mismatch — means "regenerate", never a wrong
//! answer. Writes go through a temp file plus rename, and each file is one
//! state record of [`crate::durable`] (layout in `docs/FORMATS.md`):
//! the shared `(version, kind, run key)` header, then the kind's payload,
//! with sizes validated before allocation.

use std::path::{Path, PathBuf};

use sfa_matrix::{MatrixError, Result};
use sfa_minhash::CandidatePair;

use crate::durable::{self, read_u32s, RunKey, StateFormat};
use crate::report::VerifiedPair;

/// Record kind: one shard's candidate pairs.
const KIND_SHARD_CANDIDATES: u32 = 1;
/// Record kind: one verify group's results.
const KIND_GROUP_RESULT: u32 = 2;

/// The `.sfsp` state-file format.
pub(crate) const FORMAT: StateFormat = StateFormat {
    suffix: ".sfsp",
    magic: *b"SFSP",
    kinds: &[KIND_SHARD_CANDIDATES, KIND_GROUP_RESULT],
};

/// Path of shard `s` of a `g`-way partition inside `dir`.
pub(crate) fn shard_path(dir: &Path, shard: u32, n_shards: u32) -> PathBuf {
    dir.join(format!("shard_{shard}_of_{n_shards}.sfsp"))
}

/// Path of verify group `idx` inside `dir`.
pub(crate) fn group_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("verify_group_{idx}.sfsp"))
}

fn mismatch(at: u64, detail: &str) -> MatrixError {
    MatrixError::Parse {
        at,
        detail: detail.into(),
    }
}

/// Persists one shard's candidate list; returns the file size in bytes.
pub(crate) fn save_shard_candidates(
    dir: &Path,
    key: RunKey,
    shard: u32,
    n_shards: u32,
    candidates: &[CandidatePair],
) -> Result<u64> {
    let mut w = FORMAT.writer(Some(KIND_SHARD_CANDIDATES), key);
    w.u32(shard);
    w.u32(n_shards);
    w.u32(u32::try_from(candidates.len()).expect("candidate count fits u32"));
    for c in candidates {
        w.u32(c.i);
        w.u32(c.j);
        w.u64(c.estimate.to_bits());
    }
    durable::write_atomic(&shard_path(dir, shard, n_shards), &w.seal())
}

/// Loads one shard's candidate list, if a valid spill for exactly this
/// `(run key, shard, n_shards)` exists.
pub(crate) fn load_shard_candidates(
    dir: &Path,
    key: RunKey,
    shard: u32,
    n_shards: u32,
) -> Option<Vec<CandidatePair>> {
    let path = shard_path(dir, shard, n_shards);
    FORMAT.load(&path, KIND_SHARD_CANDIDATES, key, |c| {
        if c.u32()? != shard || c.u32()? != n_shards {
            return Err(mismatch(24, "spill shard mismatch"));
        }
        let n = c.u32()? as usize;
        if c.remaining() < n.saturating_mul(16) {
            return Err(mismatch(c.offset(), "spill record count exceeds payload"));
        }
        (0..n)
            .map(|_| {
                let (i, j) = (c.u32()?, c.u32()?);
                let estimate = f64::from_bits(c.u64()?);
                if i >= j || j >= key.n_cols {
                    return Err(mismatch(c.offset(), "spill pair ids out of range"));
                }
                Ok(CandidatePair { i, j, estimate })
            })
            .collect()
    })
}

/// Persists one verify group's results — its verified pairs, the full
/// column-count vector, and the probe count — keyed by `cand_fingerprint`
/// (the [`crate::checkpoint::candidates_fingerprint`] of the exact
/// candidate list that was verified). Returns the file size in bytes.
pub(crate) fn save_group_result(
    dir: &Path,
    key: RunKey,
    group_idx: usize,
    cand_fingerprint: u32,
    verified: &[VerifiedPair],
    column_counts: &[u32],
    probes: u64,
) -> Result<u64> {
    let mut w = FORMAT.writer(Some(KIND_GROUP_RESULT), key);
    w.u32(cand_fingerprint);
    w.u32(u32::try_from(verified.len()).expect("verified count fits u32"));
    for v in verified {
        w.u32(v.i);
        w.u32(v.j);
        w.u32(v.intersection);
        w.u32(v.union);
        w.u64(v.similarity.to_bits());
        w.u64(v.estimate.to_bits());
    }
    w.u32(u32::try_from(column_counts.len()).expect("column count fits u32"));
    for &c in column_counts {
        w.u32(c);
    }
    w.u64(probes);
    durable::write_atomic(&group_path(dir, group_idx), &w.seal())
}

/// Loads a verify group's results, if a valid spill for exactly this
/// `(run key, group index, candidate fingerprint)` exists.
pub(crate) fn load_group_result(
    dir: &Path,
    key: RunKey,
    group_idx: usize,
    cand_fingerprint: u32,
) -> Option<(Vec<VerifiedPair>, Vec<u32>, u64)> {
    let path = group_path(dir, group_idx);
    FORMAT.load(&path, KIND_GROUP_RESULT, key, |c| {
        if c.u32()? != cand_fingerprint {
            return Err(mismatch(24, "spill group fingerprint mismatch"));
        }
        let n = c.u32()? as usize;
        if c.remaining() < n.saturating_mul(32) {
            return Err(mismatch(c.offset(), "spill record count exceeds payload"));
        }
        let verified = (0..n)
            .map(|_| {
                Ok(VerifiedPair {
                    i: c.u32()?,
                    j: c.u32()?,
                    intersection: c.u32()?,
                    union: c.u32()?,
                    similarity: f64::from_bits(c.u64()?),
                    estimate: f64::from_bits(c.u64()?),
                })
            })
            .collect::<Result<_>>()?;
        let column_counts = read_u32s(c)?;
        if column_counts.len() != key.n_cols as usize {
            return Err(mismatch(c.offset(), "spill column-count length mismatch"));
        }
        Ok((verified, column_counts, c.u64()?))
    })
}

/// The largest partition width `g` for which `dir` holds at least one
/// shard spill valid under `key` — the width an interrupted run had
/// reached, which a resuming run adopts so finished shards are reusable.
pub(crate) fn max_valid_shard_count(dir: &Path, key: RunKey) -> Option<u32> {
    let mut best: Option<u32> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("shard_") else {
            continue;
        };
        let Some(rest) = rest.strip_suffix(".sfsp") else {
            continue;
        };
        let Some((shard, n_shards)) = rest.split_once("_of_") else {
            continue;
        };
        let (Ok(shard), Ok(n_shards)) = (shard.parse::<u32>(), n_shards.parse::<u32>()) else {
            continue;
        };
        if !n_shards.is_power_of_two() || shard >= n_shards {
            continue;
        }
        if best.is_some_and(|b| n_shards <= b) {
            continue;
        }
        // Filename candidates are only adopted if the file itself is valid
        // for this run key.
        if load_shard_candidates(dir, key, shard, n_shards).is_some() {
            best = Some(n_shards);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, Scheme};

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sfa-spill-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create test dir");
        d
    }

    fn key() -> RunKey {
        RunKey::new(
            &PipelineConfig::new(Scheme::Mh { k: 8, delta: 0.2 }, 0.5, 7),
            100,
            50,
        )
    }

    fn cands() -> Vec<CandidatePair> {
        vec![
            CandidatePair::new(0, 3, 0.75),
            CandidatePair::new(2, 9, 0.5),
            CandidatePair::new(7, 49, 1.0),
        ]
    }

    #[test]
    fn shard_candidates_round_trip() {
        let d = dir("shard-rt");
        let written = cands();
        save_shard_candidates(&d, key(), 1, 4, &written).expect("save");
        let loaded = load_shard_candidates(&d, key(), 1, 4).expect("load");
        assert_eq!(loaded, written);
        // Wrong shard coordinates: advisory miss, not an error.
        assert!(load_shard_candidates(&d, key(), 0, 4).is_none());
        assert!(load_shard_candidates(&d, key(), 1, 8).is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn wrong_run_key_is_ignored() {
        let d = dir("wrong-key");
        save_shard_candidates(&d, key(), 0, 2, &cands()).expect("save");
        let other = RunKey::new(
            &PipelineConfig::new(Scheme::Mh { k: 9, delta: 0.2 }, 0.5, 7),
            100,
            50,
        );
        assert!(load_shard_candidates(&d, other, 0, 2).is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corruption_is_rejected() {
        let d = dir("corrupt");
        save_shard_candidates(&d, key(), 0, 2, &cands()).expect("save");
        let path = shard_path(&d, 0, 2);
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write");
        assert!(load_shard_candidates(&d, key(), 0, 2).is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn group_result_round_trip() {
        let d = dir("group-rt");
        let verified = vec![VerifiedPair {
            i: 0,
            j: 3,
            intersection: 5,
            union: 9,
            similarity: 5.0 / 9.0,
            estimate: 0.75,
        }];
        let counts: Vec<u32> = (0..50).collect();
        save_group_result(&d, key(), 2, 0xdead_beef, &verified, &counts, 123).expect("save");
        let (v, c, probes) = load_group_result(&d, key(), 2, 0xdead_beef).expect("load");
        assert_eq!(v, verified);
        assert_eq!(c, counts);
        assert_eq!(probes, 123);
        // A different candidate fingerprint must not resume this group.
        assert!(load_group_result(&d, key(), 2, 0xdead_beee).is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn max_valid_shard_count_prefers_widest_valid_partition() {
        let d = dir("max-g");
        assert_eq!(max_valid_shard_count(&d, key()), None);
        save_shard_candidates(&d, key(), 0, 2, &cands()).expect("save");
        save_shard_candidates(&d, key(), 3, 4, &cands()).expect("save");
        assert_eq!(max_valid_shard_count(&d, key()), Some(4));
        // A wider but corrupt file is not adopted.
        std::fs::write(shard_path(&d, 0, 8), b"SFSPgarbage").expect("write");
        assert_eq!(max_valid_shard_count(&d, key()), Some(4));
        let _ = std::fs::remove_dir_all(&d);
    }
}
