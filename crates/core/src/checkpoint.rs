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
//! **File layout** (`.sfcp`, little-endian, see `docs/ROBUSTNESS.md`):
//!
//! ```text
//! magic  b"SFCP"
//! version: u32 (= 1)
//! phase: u32 (1 = signatures, 3 = verify)
//! config_fingerprint: u32   CRC-32 of the pipeline-config JSON
//! n_rows: u32, n_cols: u32  the table the checkpoint belongs to
//! rows_done: u64            the row cursor
//! <phase-specific payload>
//! crc32: u32                over everything after the magic
//! ```
//!
//! A checkpoint is *advisory*: when loading fails for any reason — missing
//! file, corrupt bytes, a fingerprint from a different configuration or
//! table — the run silently starts from scratch. Damaged state can cost
//! time but never correctness. Files are written atomically (tmp + rename)
//! so a crash mid-write leaves the previous checkpoint intact, and they are
//! deleted when the run completes.
//!
//! [`Pipeline::execute`]: crate::pipeline::Pipeline::execute

use std::path::{Path, PathBuf};

use sfa_json::ToJson;
use sfa_matrix::crc32::crc32;
use sfa_matrix::{MatrixError, Result};
use sfa_minhash::{CandidatePair, SignatureMatrix};

use crate::config::PipelineConfig;
use crate::verify::VerifyProgress;

const MAGIC: [u8; 4] = *b"SFCP";
const VERSION: u32 = 1;
const PHASE_SIGNATURES: u32 = 1;
const PHASE_VERIFY: u32 = 3;
const BUILDER_MH: u32 = 1;
const BUILDER_KMH: u32 = 2;

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

/// Identifies one `(configuration, table)` combination; checkpoints from a
/// different run key are ignored rather than resumed into wrong state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunKey {
    pub(crate) fingerprint: u32,
    pub(crate) n_rows: u32,
    pub(crate) n_cols: u32,
}

impl RunKey {
    pub(crate) fn new(config: &PipelineConfig, n_rows: u32, n_cols: u32) -> Self {
        Self {
            fingerprint: crc32(config.to_json().to_string_compact().as_bytes()),
            n_rows,
            n_cols,
        }
    }
}

/// Partial phase-1 builder state at a row cursor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Phase1State {
    /// [`MhBuilder`](sfa_minhash::builder::MhBuilder) state: the partial
    /// `k × m` signature matrix.
    Mh {
        /// Rows folded in so far.
        rows_done: u64,
        /// The partial signatures.
        sigs: SignatureMatrix,
    },
    /// [`KmhBuilder`](sfa_minhash::builder::KmhBuilder) state: per-column
    /// retained values and 1-counts.
    Kmh {
        /// Rows folded in so far.
        rows_done: u64,
        /// Sketch size.
        k: u32,
        /// Per-column 1-counts.
        counts: Vec<u32>,
        /// Per-column retained values, each ascending.
        sigs: Vec<Vec<u64>>,
    },
}

impl Phase1State {
    const fn rows_done(&self) -> u64 {
        match self {
            Self::Mh { rows_done, .. } | Self::Kmh { rows_done, .. } => *rows_done,
        }
    }
}

/// Phase-3 frontier: the verification counters at a row cursor, tied to the
/// exact candidate list via a fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Phase3State {
    /// Fingerprint of the candidate list being verified.
    pub cand_fingerprint: u32,
    /// The counters and cursor.
    pub progress: VerifyProgress,
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

// ---------------------------------------------------------------------------
// serialization

struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn new(phase: u32, key: RunKey, rows_done: u64) -> Self {
        let mut w = Self { bytes: Vec::new() };
        w.bytes.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        w.u32(phase);
        w.u32(key.fingerprint);
        w.u32(key.n_rows);
        w.u32(key.n_cols);
        w.u64(rows_done);
        w
    }

    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends the CRC trailer and durably replaces `path` (tmp + fsync +
    /// rename + parent-dir fsync, via [`crate::durable::write_atomic`]).
    fn commit(mut self, path: &Path) -> Result<()> {
        let crc = crc32(&self.bytes[4..]);
        self.u32(crc);
        crate::durable::write_atomic(path, &self.bytes)?;
        Ok(())
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(MatrixError::Parse {
                at: self.pos as u64,
                detail: "checkpoint truncated".into(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn done(&self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(MatrixError::Parse {
                at: self.pos as u64,
                detail: "trailing bytes in checkpoint".into(),
            });
        }
        Ok(())
    }
}

/// Loads `path`, verifies magic/version/CRC and the run key, and returns a
/// reader over the payload. `None` means "no usable checkpoint".
fn open(path: &Path, phase: u32, key: RunKey) -> Option<Vec<u8>> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() < 36 || bytes[0..4] != MAGIC {
        return None;
    }
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(&bytes[4..bytes.len() - 4]) != stored {
        return None;
    }
    let mut r = Reader {
        bytes: &bytes[..bytes.len() - 4],
        pos: 4,
    };
    let header_ok = (|| -> Result<bool> {
        Ok(r.u32()? == VERSION
            && r.u32()? == phase
            && r.u32()? == key.fingerprint
            && r.u32()? == key.n_rows
            && r.u32()? == key.n_cols)
    })()
    .unwrap_or(false);
    if !header_ok {
        return None;
    }
    Some(bytes)
}

/// A payload reader positioned at `rows_done` (offset 24) of a validated
/// checkpoint image.
fn payload(bytes: &[u8]) -> Reader<'_> {
    Reader {
        bytes: &bytes[..bytes.len() - 4],
        pos: 24,
    }
}

/// Persists phase-1 builder state.
pub(crate) fn save_phase1(spec: &CheckpointSpec, key: RunKey, state: &Phase1State) -> Result<()> {
    let mut w = Writer::new(PHASE_SIGNATURES, key, state.rows_done());
    match state {
        Phase1State::Mh { sigs, .. } => {
            w.u32(BUILDER_MH);
            w.u32(u32::try_from(sigs.k()).expect("k fits u32"));
            w.u32(u32::try_from(sigs.m()).expect("m fits u32"));
            for l in 0..sigs.k() {
                for &v in sigs.row(l) {
                    w.u64(v);
                }
            }
        }
        Phase1State::Kmh {
            k, counts, sigs, ..
        } => {
            w.u32(BUILDER_KMH);
            w.u32(*k);
            w.u32(u32::try_from(sigs.len()).expect("m fits u32"));
            for (count, sig) in counts.iter().zip(sigs) {
                w.u32(*count);
                w.u32(u32::try_from(sig.len()).expect("len fits u32"));
                for &v in sig {
                    w.u64(v);
                }
            }
        }
    }
    w.commit(&spec.phase1_path())
}

/// Loads phase-1 builder state, if a usable checkpoint exists.
pub(crate) fn load_phase1(spec: &CheckpointSpec, key: RunKey) -> Option<Phase1State> {
    let bytes = open(&spec.phase1_path(), PHASE_SIGNATURES, key)?;
    let mut r = payload(&bytes);
    let parse = |r: &mut Reader<'_>| -> Result<Phase1State> {
        let rows_done = r.u64()?;
        let tag = r.u32()?;
        let state = match tag {
            BUILDER_MH => {
                let k = r.u32()? as usize;
                let m = r.u32()? as usize;
                // Validate the declared size against the payload *before*
                // allocating k·m slots (a hostile header must not OOM us).
                if (k as u128) * (m as u128) * 8 != r.remaining() as u128 {
                    return Err(MatrixError::Parse {
                        at: 0,
                        detail: "signature payload size mismatch".into(),
                    });
                }
                let mut values = Vec::with_capacity(k * m);
                for _ in 0..k * m {
                    values.push(r.u64()?);
                }
                Phase1State::Mh {
                    rows_done,
                    sigs: SignatureMatrix::from_values(k, m, values),
                }
            }
            BUILDER_KMH => {
                let k = r.u32()?;
                let m = r.u32()? as usize;
                // Every column costs at least 8 payload bytes (count + len).
                if m > r.remaining() / 8 {
                    return Err(MatrixError::Parse {
                        at: 0,
                        detail: "column count exceeds payload".into(),
                    });
                }
                let mut counts = Vec::with_capacity(m);
                let mut sigs = Vec::with_capacity(m);
                for _ in 0..m {
                    counts.push(r.u32()?);
                    let len = r.u32()? as usize;
                    if len > k as usize || len * 8 > r.remaining() {
                        return Err(MatrixError::Parse {
                            at: 0,
                            detail: "signature longer than k or payload".into(),
                        });
                    }
                    let mut sig = Vec::with_capacity(len);
                    for _ in 0..len {
                        sig.push(r.u64()?);
                    }
                    if !sig.windows(2).all(|w| w[0] < w[1]) {
                        return Err(MatrixError::Parse {
                            at: 0,
                            detail: "signature not ascending".into(),
                        });
                    }
                    sigs.push(sig);
                }
                Phase1State::Kmh {
                    rows_done,
                    k,
                    counts,
                    sigs,
                }
            }
            _ => {
                return Err(MatrixError::Parse {
                    at: 0,
                    detail: "unknown builder tag".into(),
                })
            }
        };
        r.done()?;
        Ok(state)
    };
    parse(&mut r).ok()
}

/// Persists the phase-3 frontier.
pub(crate) fn save_phase3(
    spec: &CheckpointSpec,
    key: RunKey,
    cand_fingerprint: u32,
    progress: &VerifyProgress,
) -> Result<()> {
    let mut w = Writer::new(PHASE_VERIFY, key, progress.rows_done);
    w.u32(cand_fingerprint);
    w.u32(u32::try_from(progress.intersections.len()).expect("candidates fit u32"));
    for &v in &progress.intersections {
        w.u32(v);
    }
    w.u32(u32::try_from(progress.column_counts.len()).expect("m fits u32"));
    for &v in &progress.column_counts {
        w.u32(v);
    }
    w.u64(progress.probes);
    w.commit(&spec.phase3_path())
}

/// Loads the phase-3 frontier for the candidate list fingerprinted by
/// `cand_fingerprint`, if a usable checkpoint exists.
pub(crate) fn load_phase3(
    spec: &CheckpointSpec,
    key: RunKey,
    cand_fingerprint: u32,
) -> Option<Phase3State> {
    let bytes = open(&spec.phase3_path(), PHASE_VERIFY, key)?;
    let mut r = payload(&bytes);
    let parse = |r: &mut Reader<'_>| -> Result<Phase3State> {
        let rows_done = r.u64()?;
        let fp = r.u32()?;
        let n_cands = r.u32()? as usize;
        if n_cands > r.remaining() / 4 {
            return Err(MatrixError::Parse {
                at: 0,
                detail: "candidate count exceeds payload".into(),
            });
        }
        let mut intersections = Vec::with_capacity(n_cands);
        for _ in 0..n_cands {
            intersections.push(r.u32()?);
        }
        let m = r.u32()? as usize;
        if m > r.remaining() / 4 {
            return Err(MatrixError::Parse {
                at: 0,
                detail: "column count exceeds payload".into(),
            });
        }
        let mut column_counts = Vec::with_capacity(m);
        for _ in 0..m {
            column_counts.push(r.u32()?);
        }
        let probes = r.u64()?;
        r.done()?;
        Ok(Phase3State {
            cand_fingerprint: fp,
            progress: VerifyProgress {
                rows_done,
                intersections,
                column_counts,
                probes,
            },
        })
    };
    let state = parse(&mut r).ok()?;
    if state.cand_fingerprint != cand_fingerprint
        || state.progress.column_counts.len() != key.n_cols as usize
    {
        return None;
    }
    Some(state)
}

/// Whether `path` holds an intact checkpoint (either phase) belonging to
/// `key` — the startup-recovery test deciding keep vs quarantine.
pub(crate) fn valid_for(path: &Path, key: RunKey) -> bool {
    open(path, PHASE_SIGNATURES, key).is_some() || open(path, PHASE_VERIFY, key).is_some()
}

/// Strictly validates the container format of a checkpoint file: magic,
/// minimum length, CRC-32 trailer, version, and phase tag. Run-key and
/// payload semantics are *not* checked — this answers "is the file
/// intact", not "does it belong to my run".
///
/// # Errors
///
/// [`MatrixError::Parse`] or [`MatrixError::Checksum`] describing the
/// first violation; any single-byte mutation or truncation of a valid
/// file is guaranteed to be rejected.
pub fn validate_file(path: &Path) -> Result<()> {
    let bytes = std::fs::read(path)?;
    validate_image(&bytes)
}

fn validate_image(bytes: &[u8]) -> Result<()> {
    let bad = |at: usize, detail: &str| MatrixError::Parse {
        at: at as u64,
        detail: detail.into(),
    };
    if bytes.len() < 36 {
        return Err(bad(bytes.len(), "checkpoint shorter than its header"));
    }
    if bytes[0..4] != MAGIC {
        return Err(bad(0, "bad checkpoint magic"));
    }
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[4..bytes.len() - 4]);
    if stored != computed {
        return Err(MatrixError::Checksum { stored, computed });
    }
    let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
    if u32_at(4) != VERSION {
        return Err(bad(4, "unknown checkpoint version"));
    }
    if !matches!(u32_at(8), PHASE_SIGNATURES | PHASE_VERIFY) {
        return Err(bad(8, "unknown checkpoint phase"));
    }
    Ok(())
}

/// Removes both checkpoint files and any stray `.sfcp.tmp` staging files
/// — called when a run completes, so stale state never leaks into the
/// next run.
pub(crate) fn clear(spec: &CheckpointSpec) -> Result<()> {
    let mut targets = vec![spec.phase1_path(), spec.phase3_path()];
    targets.extend(
        [spec.phase1_path(), spec.phase3_path()]
            .iter()
            .map(|p| p.with_extension("sfcp.tmp")),
    );
    for path in targets {
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

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
        Phase1State::Mh {
            rows_done: 64,
            sigs: SignatureMatrix::from_values(2, 3, vec![1, 2, 3, 4, 5, 6]),
        }
    }

    #[test]
    fn phase1_mh_roundtrips() {
        let spec = spec("mh_roundtrip");
        let state = mh_state();
        save_phase1(&spec, key(), &state).unwrap();
        assert_eq!(load_phase1(&spec, key()), Some(state));
        clear(&spec).unwrap();
        assert_eq!(load_phase1(&spec, key()), None);
    }

    #[test]
    fn phase1_kmh_roundtrips() {
        let spec = spec("kmh_roundtrip");
        let state = Phase1State::Kmh {
            rows_done: 10,
            k: 3,
            counts: vec![4, 0, 2],
            sigs: vec![vec![7, 9, 11], vec![], vec![5]],
        };
        save_phase1(&spec, key(), &state).unwrap();
        assert_eq!(load_phase1(&spec, key()), Some(state));
        clear(&spec).unwrap();
    }

    #[test]
    fn phase3_roundtrips_and_checks_fingerprint() {
        let spec = spec("phase3_roundtrip");
        let state = Phase3State {
            cand_fingerprint: 0xABCD,
            progress: VerifyProgress {
                rows_done: 30,
                intersections: vec![5, 2],
                column_counts: vec![9, 8, 7, 0, 0, 0, 1],
                probes: 77,
            },
        };
        save_phase3(&spec, key(), state.cand_fingerprint, &state.progress).unwrap();
        assert_eq!(load_phase3(&spec, key(), 0xABCD), Some(state));
        assert_eq!(
            load_phase3(&spec, key(), 0x1234),
            None,
            "a different candidate list must not resume"
        );
        clear(&spec).unwrap();
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
        clear(&spec).unwrap();
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
        clear(&spec).unwrap();
    }

    #[test]
    fn validate_file_checks_container_not_run_key() {
        let spec = spec("validate_file");
        save_phase1(&spec, key(), &mh_state()).unwrap();
        let path = spec.dir.join("phase1.sfcp");
        validate_file(&path).expect("intact file validates");
        assert!(valid_for(&path, key()));
        let other = RunKey {
            fingerprint: 0,
            n_rows: 1,
            n_cols: 2,
        };
        assert!(!valid_for(&path, other), "wrong key fails valid_for");
        validate_file(&path).expect("but the container is still intact");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(validate_file(&path).is_err(), "bit flip rejected");
        clear(&spec).unwrap();
    }

    #[test]
    fn clear_sweeps_stray_staging_files() {
        let spec = spec("clear_tmp");
        save_phase1(&spec, key(), &mh_state()).unwrap();
        let stray = spec.dir.join("phase1.sfcp.tmp");
        std::fs::write(&stray, b"half-written").unwrap();
        clear(&spec).unwrap();
        assert!(!stray.exists(), "clear must sweep .sfcp.tmp strays");
        assert!(!spec.dir.join("phase1.sfcp").exists());
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
