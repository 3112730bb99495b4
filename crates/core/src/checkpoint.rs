//! Checkpoint/resume for the two streaming passes.
//!
//! Phase 1 (signature computation) and phase 3 (verification) are each one
//! sequential pass over a table that may take minutes; a crash near the end
//! should not cost the whole pass. A [`Pipeline::execute`] plan with a
//! [`CheckpointSpec`] periodically
//! persists the partial builder state (phase 1) and the surviving-candidate
//! frontier (phase 3) to a checkpoint directory, and on the next invocation
//! resumes from the last checkpoint instead of restarting.
//!
//! **File layout** (`.sfcp`, a state record of [`crate::durable`]; see
//! `docs/FORMATS.md`):
//!
//! ```text
//! magic  b"SFCP"
//! version: u32 (= 1)
//! phase: u32 (1 = signatures, 3 = verify)
//! config_fingerprint: u32   CRC-32 of the pipeline-config JSON
//! n_rows: u32, n_cols: u32  the table the checkpoint belongs to
//! rows_done: u64            the row cursor
//! <phase-specific payload>  phase 1: builder tag + the sketch body
//! crc32: u32                over everything after the magic
//! ```
//!
//! A checkpoint is *advisory*: when loading fails for any reason — missing
//! file, corrupt bytes, a fingerprint from a different configuration or
//! table, a frontier inconsistent with the candidate list — the run
//! silently starts that phase from scratch. Damaged state can cost time
//! but never correctness. Files are written atomically (tmp + rename) so a
//! crash mid-write leaves the previous checkpoint intact, and they are
//! deleted when the run completes.
//!
//! [`Pipeline::execute`]: crate::pipeline::Pipeline::execute

use std::path::PathBuf;

use sfa_matrix::crc32::crc32;
use sfa_matrix::{MatrixError, Result};
use sfa_minhash::persist::{
    read_bottom_k_body, read_signatures_body, write_bottom_k_body, write_signatures_body,
};
use sfa_minhash::{BottomKSignatures, CandidatePair, SignatureMatrix};

use crate::durable::{self, read_u32s, RunKey, StateFormat};
use crate::verify::VerifyProgress;

const PHASE_SIGNATURES: u32 = 1;
const PHASE_VERIFY: u32 = 3;
const BUILDER_MH: u32 = 1;
const BUILDER_KMH: u32 = 2;

/// The `.sfcp` state-file format.
pub(crate) const FORMAT: StateFormat = StateFormat {
    suffix: ".sfcp",
    magic: *b"SFCP",
    kinds: &[PHASE_SIGNATURES, PHASE_VERIFY],
};

/// Where and how often a run checkpoints (the `checkpoint` field of an
/// [`ExecPlan`](crate::ExecPlan)).
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Directory holding the checkpoint files (created if absent).
    pub dir: PathBuf,
    /// Persist state every this many processed rows. The final state of
    /// phase 1 is always persisted, so a phase-3 crash resumes without
    /// recomputing signatures.
    pub every_rows: u64,
}

impl CheckpointSpec {
    /// A spec checkpointing every 1024 rows into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_rows: 1024,
        }
    }

    /// Overrides the checkpoint cadence.
    ///
    /// # Panics
    ///
    /// Panics if `every_rows == 0`.
    #[must_use]
    pub fn with_every_rows(mut self, every_rows: u64) -> Self {
        assert!(every_rows > 0, "checkpoint cadence must be positive");
        self.every_rows = every_rows;
        self
    }

    fn phase1_path(&self) -> PathBuf {
        self.dir.join("phase1.sfcp")
    }

    fn phase3_path(&self) -> PathBuf {
        self.dir.join("phase3.sfcp")
    }
}

/// Partial phase-1 state: a builder's sketch at a row cursor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Phase1State {
    /// Rows folded in so far.
    pub rows_done: u64,
    /// The partial sketch.
    pub sketch: Sketch,
}

/// The sketch a phase-1 builder keeps.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Sketch {
    /// [`MhBuilder`](sfa_minhash::builder::MhBuilder) state: the partial
    /// `k × m` signature matrix.
    Mh(SignatureMatrix),
    /// [`KmhBuilder`](sfa_minhash::builder::KmhBuilder) state: per-column
    /// retained values and 1-counts.
    Kmh(BottomKSignatures),
}

/// Fingerprints a candidate list (order-sensitive: the checkpoint's
/// intersection counters are indexed by candidate position).
pub(crate) fn candidates_fingerprint(candidates: &[CandidatePair]) -> u32 {
    let mut bytes = Vec::with_capacity(candidates.len() * 16);
    for c in candidates {
        bytes.extend_from_slice(&c.i.to_le_bytes());
        bytes.extend_from_slice(&c.j.to_le_bytes());
        bytes.extend_from_slice(&c.estimate.to_bits().to_le_bytes());
    }
    crc32(&bytes)
}

/// Persists phase-1 builder state; the payload after the builder tag is
/// the `.sfmh`/`.sfkm` sketch body.
pub(crate) fn save_phase1(spec: &CheckpointSpec, key: RunKey, state: &Phase1State) -> Result<()> {
    let mut w = FORMAT.writer(Some(PHASE_SIGNATURES), key);
    w.u64(state.rows_done);
    match &state.sketch {
        Sketch::Mh(sigs) => {
            w.u32(BUILDER_MH);
            write_signatures_body(&mut w, sigs);
        }
        Sketch::Kmh(sigs) => {
            w.u32(BUILDER_KMH);
            write_bottom_k_body(&mut w, sigs);
        }
    }
    durable::write_atomic(&spec.phase1_path(), &w.seal())?;
    Ok(())
}

/// Loads phase-1 builder state, if a usable checkpoint exists.
pub(crate) fn load_phase1(spec: &CheckpointSpec, key: RunKey) -> Option<Phase1State> {
    FORMAT.load(&spec.phase1_path(), PHASE_SIGNATURES, key, |c| {
        let rows_done = c.u64()?;
        let sketch = match c.u32()? {
            BUILDER_MH => Sketch::Mh(read_signatures_body(c)?),
            BUILDER_KMH => Sketch::Kmh(read_bottom_k_body(c)?),
            _ => {
                return Err(MatrixError::Parse {
                    at: c.offset() - 4,
                    detail: "unknown builder tag".into(),
                })
            }
        };
        Ok(Phase1State { rows_done, sketch })
    })
}

/// Persists the phase-3 frontier of the candidate list fingerprinted by
/// `cand_fingerprint`.
pub(crate) fn save_phase3(
    spec: &CheckpointSpec,
    key: RunKey,
    cand_fingerprint: u32,
    progress: &VerifyProgress,
) -> Result<()> {
    let mut w = FORMAT.writer(Some(PHASE_VERIFY), key);
    w.u64(progress.rows_done);
    w.u32(cand_fingerprint);
    for counters in [&progress.intersections, &progress.column_counts] {
        w.u32(u32::try_from(counters.len()).expect("counter count fits u32"));
        for &v in counters {
            w.u32(v);
        }
    }
    w.u64(progress.probes);
    durable::write_atomic(&spec.phase3_path(), &w.seal())?;
    Ok(())
}

/// Loads the phase-3 frontier for `candidates`, if a usable checkpoint
/// exists. A frontier is usable only if it counts exactly this candidate
/// list (same fingerprint, one intersection counter per candidate) over
/// this table (one count per column), and no intersection exceeds either
/// of its columns' counts; anything else starts phase 3 fresh.
pub(crate) fn load_phase3(
    spec: &CheckpointSpec,
    key: RunKey,
    candidates: &[CandidatePair],
) -> Option<VerifyProgress> {
    let fingerprint = candidates_fingerprint(candidates);
    let progress = FORMAT.load(&spec.phase3_path(), PHASE_VERIFY, key, |c| {
        let rows_done = c.u64()?;
        if c.u32()? != fingerprint {
            return Err(MatrixError::Parse {
                at: c.offset() - 4,
                detail: "checkpoint belongs to another candidate list".into(),
            });
        }
        Ok(VerifyProgress {
            rows_done,
            intersections: read_u32s(c)?,
            column_counts: read_u32s(c)?,
            probes: c.u64()?,
        })
    })?;
    let counts = &progress.column_counts;
    let consistent = progress.intersections.len() == candidates.len()
        && counts.len() == key.n_cols as usize
        && candidates
            .iter()
            .zip(&progress.intersections)
            .all(|(c, &inter)| inter <= counts[c.i as usize].min(counts[c.j as usize]));
    consistent.then_some(progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, Scheme};
    use crate::durable::clear;

    fn spec(name: &str) -> CheckpointSpec {
        let dir = std::env::temp_dir().join("sfa_checkpoint_tests").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        CheckpointSpec::new(dir)
    }

    fn key() -> RunKey {
        RunKey::new(
            &PipelineConfig::new(Scheme::Mh { k: 8, delta: 0.2 }, 0.7, 42),
            100,
            7,
        )
    }

    fn mh_state() -> Phase1State {
        Phase1State {
            rows_done: 64,
            sketch: Sketch::Mh(SignatureMatrix::from_values(2, 3, vec![1, 2, 3, 4, 5, 6])),
        }
    }

    #[test]
    fn phase1_mh_roundtrips() {
        let spec = spec("mh_roundtrip");
        let state = mh_state();
        save_phase1(&spec, key(), &state).unwrap();
        assert_eq!(load_phase1(&spec, key()), Some(state));
        clear(&spec.dir).unwrap();
        assert_eq!(load_phase1(&spec, key()), None);
    }

    #[test]
    fn phase1_kmh_roundtrips() {
        let spec = spec("kmh_roundtrip");
        let state = Phase1State {
            rows_done: 10,
            sketch: Sketch::Kmh(BottomKSignatures::from_parts(
                3,
                vec![vec![7, 9, 11], vec![], vec![5]],
                vec![4, 0, 2],
            )),
        };
        save_phase1(&spec, key(), &state).unwrap();
        assert_eq!(load_phase1(&spec, key()), Some(state));
        clear(&spec.dir).unwrap();
    }

    #[test]
    fn phase3_roundtrips_and_checks_the_candidate_list() {
        let spec = spec("phase3_roundtrip");
        let candidates = vec![CandidatePair::new(0, 1, 0.5), CandidatePair::new(1, 2, 0.7)];
        let fp = candidates_fingerprint(&candidates);
        let progress = VerifyProgress {
            rows_done: 30,
            intersections: vec![5, 2],
            column_counts: vec![9, 8, 7, 0, 0, 0, 1],
            probes: 77,
        };
        save_phase3(&spec, key(), fp, &progress).unwrap();
        assert_eq!(
            load_phase3(&spec, key(), &candidates),
            Some(progress.clone())
        );
        assert_eq!(
            load_phase3(&spec, key(), &candidates[..1]),
            None,
            "a different candidate list must not resume"
        );
        // Consistent bytes and fingerprint, but a frontier that cannot
        // belong to this list: one counter short, or an intersection
        // larger than a column's count.
        let short = VerifyProgress {
            intersections: vec![5],
            ..progress.clone()
        };
        save_phase3(&spec, key(), fp, &short).unwrap();
        assert_eq!(load_phase3(&spec, key(), &candidates), None);
        let overcounted = VerifyProgress {
            intersections: vec![5, 8],
            ..progress
        };
        save_phase3(&spec, key(), fp, &overcounted).unwrap();
        assert_eq!(load_phase3(&spec, key(), &candidates), None);
        clear(&spec.dir).unwrap();
    }

    #[test]
    fn mismatched_run_key_is_ignored() {
        let spec = spec("key_mismatch");
        save_phase1(&spec, key(), &mh_state()).unwrap();
        let other_config = RunKey::new(
            &PipelineConfig::new(Scheme::Mh { k: 9, delta: 0.2 }, 0.7, 42),
            100,
            7,
        );
        let other_table = RunKey::new(
            &PipelineConfig::new(Scheme::Mh { k: 8, delta: 0.2 }, 0.7, 42),
            101,
            7,
        );
        assert_eq!(load_phase1(&spec, other_config), None);
        assert_eq!(load_phase1(&spec, other_table), None);
        assert!(load_phase1(&spec, key()).is_some());
        clear(&spec.dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_ignored_not_fatal() {
        let spec = spec("corrupt");
        save_phase1(&spec, key(), &mh_state()).unwrap();
        let path = spec.dir.join("phase1.sfcp");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_phase1(&spec, key()), None, "bit flip must disqualify");
        std::fs::write(&path, b"short").unwrap();
        assert_eq!(load_phase1(&spec, key()), None);
        clear(&spec.dir).unwrap();
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let a = vec![CandidatePair::new(0, 1, 0.5), CandidatePair::new(1, 2, 0.7)];
        let b = vec![CandidatePair::new(1, 2, 0.7), CandidatePair::new(0, 1, 0.5)];
        assert_ne!(candidates_fingerprint(&a), candidates_fingerprint(&b));
        assert_eq!(
            candidates_fingerprint(&a),
            candidates_fingerprint(&a.clone())
        );
    }
}
