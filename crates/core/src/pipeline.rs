//! The pipeline driver: signatures → candidates → exact verification.

use std::borrow::Cow;
use std::path::PathBuf;
use std::time::Instant;

use sfa_hash::bucket::{PairShard, ShardPassOutcome};
use sfa_lsh::{hlsh_candidates, mlsh_candidates, HLshParams, MLshParams};
use sfa_matrix::{MatrixError, MemoryRowStream, Result, RowMajorMatrix, RowStream, ScanCounter};
use sfa_minhash::hashcount::{kmh_candidates, mh_candidates};
use sfa_minhash::rowsort::rowsort_candidates;
use sfa_minhash::{
    compute_bottom_k, compute_bottom_k_pool, compute_signatures, compute_signatures_pool,
    BottomKSignatures, CandidateGenStats, CandidatePair, KmhBuilder, MhBuilder, SignatureMatrix,
};
use sfa_par::ThreadPool;

use crate::checkpoint::{self, CheckpointSpec, Phase1State, RunKey};
use crate::config::{PipelineConfig, Scheme};
use crate::durable;
use crate::metrics::{
    MiningMetrics, Phase1Metrics, RecoveryMetrics, ShardingMetrics, VerifyMetrics,
};
use crate::report::{MiningResult, PhaseTimings, VerifiedPair};
use crate::shutdown::{CancelToken, CANCEL_POLL_STRIDE};
use crate::sigcache::SignatureCache;
use crate::spill;
use crate::verify::{verify_candidates_resumable, verify_candidates_with_stats};

/// Seed-derivation labels, so each pipeline component gets an independent
/// stream from the one root seed.
mod purpose {
    pub const SIGNATURES: u64 = 1;
    pub const LSH: u64 = 2;
}

/// Phase-1 provenance for `metrics.phase1`: the SIMD arm the signature
/// kernels dispatch through (shared with the phase-3 kernels, so
/// `--kernel`/`SFA_KERNEL` pins both) plus the cache disposition.
fn phase1_provenance(cache_hit: bool, cache_stored: bool) -> Phase1Metrics {
    Phase1Metrics {
        dispatch_arm: sfa_matrix::kernel::arm_name().to_owned(),
        cache_hit,
        cache_stored,
    }
}

/// Runs the configured scheme end to end over a row stream.
///
/// # Examples
///
/// ```
/// use sfa_core::{Pipeline, PipelineConfig, Scheme};
/// use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
///
/// let m = RowMajorMatrix::from_rows(2, vec![vec![0, 1]; 12]).unwrap();
/// let cfg = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.8, 7);
/// let result = Pipeline::new(cfg)
///     .run(&mut MemoryRowStream::new(&m))
///     .unwrap();
/// let pairs = result.similar_pairs();
/// assert_eq!(pairs.len(), 1);
/// assert_eq!((pairs[0].i, pairs[0].j), (0, 1));
/// assert_eq!(pairs[0].similarity, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    signature_cache: Option<SignatureCache>,
}

impl Pipeline {
    /// Wraps a configuration.
    #[must_use]
    pub const fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            signature_cache: None,
        }
    }

    /// Consults and populates a [`SignatureCache`] rooted at `dir` for
    /// every phase-1 sketch this pipeline builds: a hit skips the
    /// signature pass entirely (output stays byte-identical — min-hash
    /// sketches are a pure function of the cache key), a miss computes
    /// and stores. One cache directory serves one dataset; see
    /// [`crate::sigcache`] for the keying contract.
    #[must_use]
    pub fn with_signature_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.signature_cache = Some(SignatureCache::new(dir));
        self
    }

    /// The configuration.
    #[must_use]
    pub const fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Phases 1 + 2 only: produce the candidate pairs and the time spent
    /// in each phase. Exposed separately for experiments that measure the
    /// candidate set itself.
    ///
    /// # Errors
    ///
    /// Propagates stream errors.
    pub fn generate_candidates<S: RowStream>(
        &self,
        stream: &mut S,
    ) -> Result<(Vec<CandidatePair>, PhaseTimings)> {
        let (candidates, timings, _) =
            self.candidates_with_metrics(Table::Stream(stream), &ThreadPool::new(1))?;
        Ok((candidates, timings))
    }

    /// Phases 1 + 2 of every unsharded run mode, with the observability
    /// counters: signature bytes, phase-1 provenance, per-stage candidate
    /// counts, bucket occupancy. The pass-scan fields stay zero here —
    /// each run mode fills them from its own scan accounting.
    fn candidates_with_metrics<S: RowStream>(
        &self,
        table: Table<'_, '_, S>,
        pool: &ThreadPool,
    ) -> Result<(Vec<CandidatePair>, PhaseTimings, MiningMetrics)> {
        let mut timings = PhaseTimings::default();
        let mut metrics = MiningMetrics {
            scheme: self.config.scheme.name().to_owned(),
            ..MiningMetrics::default()
        };
        let t = Instant::now();
        let (summary, phase1) = self.phase1(table)?;
        timings.signatures = t.elapsed();
        metrics.phase1 = phase1;
        metrics.signature_bytes = summary.heap_bytes();
        let t = Instant::now();
        let (candidates, stats, _) = self.generate(&summary, PairShard::all(), usize::MAX, pool);
        timings.candidates = t.elapsed();
        metrics.absorb_candidate_stats(stats);
        metrics.candidates_generated = candidates.len() as u64;
        Ok((candidates, timings, metrics))
    }

    /// Phase 1 of every run mode: the scheme's resident summary of
    /// `table`. MH-family sketches go through the signature cache — a hit
    /// skips the table pass (and its checkpointing) entirely, a miss
    /// computes and stores. H-LSH "works directly on the data": `M_0` is
    /// the summary, with no sketch to cache, checkpoint or report in
    /// `metrics.phase1`.
    fn phase1<'m, S: RowStream>(
        &self,
        table: Table<'_, 'm, S>,
    ) -> Result<(Phase1Summary<'m>, Option<Phase1Metrics>)> {
        let seed = sfa_hash::family::derive_seed(self.config.seed, purpose::SIGNATURES);
        let (n_rows, n_cols) = table.dims();
        let cache = self.signature_cache.as_ref();
        match self.config.scheme {
            Scheme::Mh { k, .. } | Scheme::MhRowSort { k, .. } | Scheme::MLsh { k, .. } => {
                if let Some(sigs) = cache.and_then(|c| c.load_signatures(k, seed, n_rows, n_cols)) {
                    return Ok((
                        Phase1Summary::Sigs(sigs),
                        Some(phase1_provenance(true, false)),
                    ));
                }
                let sigs = match table {
                    Table::Stream(stream) => compute_signatures(stream, k, seed)?,
                    Table::Resumable(stream, ckpt) => signatures_resumable(stream, k, seed, ckpt)?,
                    Table::Resident(matrix, pool) => compute_signatures_pool(matrix, k, seed, pool),
                };
                let stored =
                    cache.is_some_and(|c| c.store_signatures(k, seed, n_rows, n_cols, &sigs));
                Ok((
                    Phase1Summary::Sigs(sigs),
                    Some(phase1_provenance(false, stored)),
                ))
            }
            Scheme::Kmh { k, .. } => {
                if let Some(sigs) = cache.and_then(|c| c.load_bottom_k(k, seed, n_rows, n_cols)) {
                    return Ok((
                        Phase1Summary::BottomK(sigs),
                        Some(phase1_provenance(true, false)),
                    ));
                }
                let sigs = match table {
                    Table::Stream(stream) => compute_bottom_k(stream, k, seed)?,
                    Table::Resumable(stream, ckpt) => bottom_k_resumable(stream, k, seed, ckpt)?,
                    Table::Resident(matrix, pool) => compute_bottom_k_pool(matrix, k, seed, pool),
                };
                let stored =
                    cache.is_some_and(|c| c.store_bottom_k(k, seed, n_rows, n_cols, &sigs));
                Ok((
                    Phase1Summary::BottomK(sigs),
                    Some(phase1_provenance(false, stored)),
                ))
            }
            Scheme::HLsh { .. } => {
                let matrix = match table {
                    Table::Stream(stream) | Table::Resumable(stream, _) => {
                        Cow::Owned(materialize(stream)?)
                    }
                    Table::Resident(matrix, _) => Cow::Borrowed(matrix),
                };
                Ok((Phase1Summary::Matrix(matrix), None))
            }
        }
    }

    /// Phase 2 of every run mode: one generation pass of the configured
    /// scheme over `summary`, counting only `shard`'s pairs with the pair
    /// counter capped at `cap_bytes` (see [`sfa_hash::count_pairs`]).
    fn generate(
        &self,
        summary: &Phase1Summary<'_>,
        shard: PairShard,
        cap_bytes: usize,
        pool: &ThreadPool,
    ) -> (Vec<CandidatePair>, CandidateGenStats, ShardPassOutcome) {
        let cfg = &self.config;
        let lsh_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::LSH);
        match (cfg.scheme, summary) {
            (Scheme::Mh { delta, .. }, Phase1Summary::Sigs(sigs)) => {
                mh_candidates(sigs, cfg.s_star, delta, shard, cap_bytes, pool)
            }
            (Scheme::MhRowSort { delta, .. }, Phase1Summary::Sigs(sigs)) => {
                rowsort_candidates(sigs, cfg.s_star, delta, shard, cap_bytes, pool)
            }
            (Scheme::Kmh { delta, .. }, Phase1Summary::BottomK(sigs)) => {
                kmh_candidates(sigs, cfg.s_star, delta, shard, cap_bytes, pool)
            }
            (Scheme::MLsh { r, l, sampled, .. }, Phase1Summary::Sigs(sigs)) => {
                let params = if sampled {
                    MLshParams::sampled(r, l, lsh_seed)
                } else {
                    MLshParams::banded(r, l, lsh_seed)
                };
                mlsh_candidates(sigs, &params, shard, cap_bytes, pool)
            }
            (
                Scheme::HLsh {
                    r,
                    l,
                    t: gate,
                    max_levels,
                },
                Phase1Summary::Matrix(matrix),
            ) => {
                let params = HLshParams {
                    r,
                    l,
                    t: gate,
                    max_levels,
                    include_zero_keys: false,
                    seed: lsh_seed,
                };
                hlsh_candidates(matrix, &params, shard, cap_bytes, pool)
            }
            _ => unreachable!("summary kind always matches the scheme"),
        }
    }

    /// Classifies verified pairs against the `s*` threshold and packs the
    /// phase-3 counters.
    fn verification_metrics(&self, verified: &[VerifiedPair], probes: u64) -> VerifyMetrics {
        let true_positives = verified
            .iter()
            .filter(|p| p.similarity >= self.config.s_star)
            .count() as u64;
        VerifyMetrics {
            candidates_checked: verified.len() as u64,
            true_positives,
            false_positives_pruned: verified.len() as u64 - true_positives,
            intersection_work: probes,
        }
    }

    /// Runs the full three-phase pipeline.
    ///
    /// # Errors
    ///
    /// Propagates stream errors.
    pub fn run<S: RowStream>(&self, stream: &mut S) -> Result<MiningResult> {
        self.run_with(stream, &CancelToken::default())
    }

    /// [`run`](Self::run) with cooperative cancellation: `cancel` is
    /// polled at the pass boundaries and after every verify-pass row. A
    /// plain run keeps no on-disk state, so cancellation simply abandons
    /// the work — use [`run_resumable_with`](Self::run_resumable_with)
    /// when an interrupted run should leave a resumable frontier.
    ///
    /// # Errors
    ///
    /// Propagates stream errors; returns [`MatrixError::Canceled`] when
    /// `cancel` fires.
    pub fn run_with<S: RowStream>(
        &self,
        stream: &mut S,
        cancel: &CancelToken,
    ) -> Result<MiningResult> {
        cancel.check()?;
        let mut scan = ScanCounter::new(&mut *stream);
        let (candidates, mut timings, mut metrics) =
            self.candidates_with_metrics(Table::Stream(&mut scan), &ThreadPool::new(1))?;
        cancel.check()?;
        scan.reset()?;
        let t = Instant::now();
        let (verified, column_counts, probes) = verify_candidates_resumable(
            &mut scan,
            &candidates,
            None,
            u64::MAX,
            &mut |_| Ok(()),
            cancel,
        )?;
        timings.verify = t.elapsed();
        let passes = scan.pass_scans();
        metrics.signature_pass = passes.first().copied().unwrap_or_default().into();
        metrics.verify_pass = passes.get(1).copied().unwrap_or_default().into();
        metrics.verification = self.verification_metrics(&verified, probes);
        Ok(MiningResult {
            config: self.config,
            verified,
            column_counts,
            timings,
            metrics,
        })
    }

    /// [`run`](Self::run) with checkpoint/resume: both streaming passes
    /// persist their partial state into `spec.dir` every `spec.every_rows`
    /// rows (phase 1 checkpoints the signature builder, phase 3 the
    /// verification frontier), so a rerun after a crash fast-forwards past
    /// the checkpointed prefix and re-reads only the unprocessed suffix.
    ///
    /// Output is byte-identical to an uninterrupted [`run`](Self::run);
    /// `metrics.recovery` reports how many checkpoints were written and the
    /// row cursor a resumed run continued from. Checkpoints are tied to the
    /// exact `(configuration, table)` pair — stale or mismatched state is
    /// ignored, never resumed into — and are deleted once the run
    /// completes. The H-LSH scheme materializes the matrix up front and has
    /// no incremental phase-1 state, so only its verify pass checkpoints.
    ///
    /// # Errors
    ///
    /// Propagates stream and checkpoint-IO errors.
    pub fn run_resumable<S: RowStream>(
        &self,
        stream: &mut S,
        spec: &CheckpointSpec,
    ) -> Result<MiningResult> {
        self.run_resumable_with(stream, spec, &CancelToken::default())
    }

    /// [`run_resumable`](Self::run_resumable) with cooperative
    /// cancellation. `cancel` is polled after every processed row; when it
    /// fires, the current pass flushes its state to the checkpoint
    /// directory first and the run returns [`MatrixError::Canceled`] — a
    /// rerun with the same `spec` resumes from that frontier. This is the
    /// entry point behind the CLI's graceful `SIGINT`/`SIGTERM` and
    /// `--deadline-secs` handling (exit code 3).
    ///
    /// Before any work, the checkpoint directory is swept by
    /// [`durable::recover_dir`]: stray `.tmp` files are deleted and
    /// corrupt or stale checkpoints are quarantined (reported in
    /// `metrics.recovery`) rather than trusted or fatal.
    ///
    /// # Errors
    ///
    /// Propagates stream and checkpoint-IO errors; returns
    /// [`MatrixError::Canceled`] when `cancel` fires.
    pub fn run_resumable_with<S: RowStream>(
        &self,
        stream: &mut S,
        spec: &CheckpointSpec,
        cancel: &CancelToken,
    ) -> Result<MiningResult> {
        let key = RunKey::new(&self.config, stream.n_rows(), stream.n_cols());
        let recovered = durable::recover_dir(&spec.dir, key)?;
        let mut recovery = RecoveryMetrics {
            files_quarantined: recovered.files_quarantined,
            tmp_files_removed: recovered.tmp_files_removed,
            ..RecoveryMetrics::default()
        };
        let mut scan = ScanCounter::new(&mut *stream);
        let ckpt = Checkpointing {
            spec,
            key,
            recovery: &mut recovery,
            cancel,
        };
        let (candidates, mut timings, mut metrics) =
            self.candidates_with_metrics(Table::Resumable(&mut scan, ckpt), &ThreadPool::new(1))?;
        cancel.check()?;
        scan.reset()?;
        let fp = checkpoint::candidates_fingerprint(&candidates);
        let resume = checkpoint::load_phase3(spec, key, fp);
        if let Some(s) = &resume {
            recovery.resumed_from_row = recovery.resumed_from_row.max(s.progress.rows_done);
        }
        let t = Instant::now();
        let mut checkpoints_written = 0u64;
        let (verified, column_counts, probes) = verify_candidates_resumable(
            &mut scan,
            &candidates,
            resume.map(|s| s.progress),
            spec.every_rows,
            &mut |p| {
                checkpoint::save_phase3(spec, key, fp, p)?;
                checkpoints_written += 1;
                Ok(())
            },
            cancel,
        )?;
        timings.verify = t.elapsed();
        recovery.checkpoints_written += checkpoints_written;
        checkpoint::clear(spec)?;
        durable::remove_manifest(&spec.dir)?;
        let passes = scan.pass_scans();
        metrics.signature_pass = passes.first().copied().unwrap_or_default().into();
        metrics.verify_pass = passes.get(1).copied().unwrap_or_default().into();
        metrics.verification = self.verification_metrics(&verified, probes);
        metrics.recovery = recovery;
        Ok(MiningResult {
            config: self.config,
            verified,
            column_counts,
            timings,
            metrics,
        })
    }
}

/// Where phase 1 reads the table from.
enum Table<'s, 'm, S> {
    /// One streaming pass.
    Stream(&'s mut S),
    /// One streaming pass that checkpoints (and resumes) its builder.
    Resumable(&'s mut S, Checkpointing<'s>),
    /// The resident matrix, sketched on the pool.
    Resident(&'m RowMajorMatrix, &'m ThreadPool),
}

impl<S: RowStream> Table<'_, '_, S> {
    /// `(rows, columns)` of the table.
    fn dims(&self) -> (u32, u32) {
        match self {
            Self::Stream(stream) | Self::Resumable(stream, _) => (stream.n_rows(), stream.n_cols()),
            Self::Resident(matrix, _) => (matrix.n_rows(), matrix.n_cols()),
        }
    }
}

/// A checkpointed phase-1 pass's state directory, run identity, recovery
/// counters and cancellation token.
struct Checkpointing<'a> {
    spec: &'a CheckpointSpec,
    key: RunKey,
    recovery: &'a mut RecoveryMetrics,
    cancel: &'a CancelToken,
}

/// Phase 1 (MH family) with checkpointing: resumes an [`MhBuilder`] from
/// the last phase-1 checkpoint if one matches, persists its state every
/// `spec.every_rows` rows, and always persists the completed state so a
/// later phase-3 crash resumes without redoing signature work.
fn signatures_resumable<S: RowStream>(
    stream: &mut S,
    k: usize,
    seed: u64,
    ckpt: Checkpointing<'_>,
) -> Result<SignatureMatrix> {
    let Checkpointing {
        spec,
        key,
        recovery,
        cancel,
    } = ckpt;
    let m = stream.n_cols() as usize;
    let mut builder = match checkpoint::load_phase1(spec, key) {
        Some(Phase1State::Mh { rows_done, sigs }) if sigs.k() == k && sigs.m() == m => {
            fast_forward(stream, rows_done)?;
            recovery.resumed_from_row = rows_done;
            MhBuilder::from_state(seed, rows_done, sigs)
        }
        _ => MhBuilder::new(k, m, seed),
    };
    let mut buf = Vec::new();
    let mut cancel = cancel.throttled(CANCEL_POLL_STRIDE);
    while let Some(row_id) = stream.read_row(&mut buf)? {
        builder.push_row(row_id, &buf);
        // A graceful shutdown flushes the builder state off-cadence so the
        // rerun resumes from this exact row.
        let canceled = cancel.is_canceled();
        if builder.rows_seen() % spec.every_rows == 0 || canceled {
            save_mh_state(spec, key, &builder)?;
            recovery.checkpoints_written += 1;
        }
        if canceled {
            cancel.check()?;
        }
    }
    if builder.rows_seen() % spec.every_rows != 0 {
        save_mh_state(spec, key, &builder)?;
        recovery.checkpoints_written += 1;
    }
    Ok(builder.finish())
}

/// Phase 1 (K-MH) with checkpointing; see [`signatures_resumable`].
fn bottom_k_resumable<S: RowStream>(
    stream: &mut S,
    k: usize,
    seed: u64,
    ckpt: Checkpointing<'_>,
) -> Result<BottomKSignatures> {
    let Checkpointing {
        spec,
        key,
        recovery,
        cancel,
    } = ckpt;
    let m = stream.n_cols() as usize;
    let mut builder = match checkpoint::load_phase1(spec, key) {
        Some(Phase1State::Kmh {
            rows_done,
            k: ck,
            counts,
            sigs,
        }) if ck as usize == k && sigs.len() == m => {
            fast_forward(stream, rows_done)?;
            recovery.resumed_from_row = rows_done;
            KmhBuilder::from_state(k, seed, rows_done, sigs, counts)
        }
        _ => KmhBuilder::new(k, m, seed),
    };
    let mut buf = Vec::new();
    let mut cancel = cancel.throttled(CANCEL_POLL_STRIDE);
    while let Some(row_id) = stream.read_row(&mut buf)? {
        builder.push_row(row_id, &buf);
        let canceled = cancel.is_canceled();
        if builder.rows_seen() % spec.every_rows == 0 || canceled {
            save_kmh_state(spec, key, &builder)?;
            recovery.checkpoints_written += 1;
        }
        if canceled {
            cancel.check()?;
        }
    }
    if builder.rows_seen() % spec.every_rows != 0 {
        save_kmh_state(spec, key, &builder)?;
        recovery.checkpoints_written += 1;
    }
    Ok(builder.finish())
}

/// Skips the checkpointed prefix, erroring if the stream is shorter than
/// the checkpoint claims.
fn fast_forward<S: RowStream>(stream: &mut S, rows_done: u64) -> Result<()> {
    let skipped = stream.skip_rows(rows_done)?;
    if skipped != rows_done {
        return Err(MatrixError::DimensionMismatch {
            detail: format!(
                "checkpoint claims {rows_done} rows processed but the stream holds only {skipped}"
            ),
        });
    }
    Ok(())
}

fn save_mh_state(spec: &CheckpointSpec, key: RunKey, builder: &MhBuilder) -> Result<()> {
    checkpoint::save_phase1(
        spec,
        key,
        &Phase1State::Mh {
            rows_done: builder.rows_seen(),
            sigs: builder.current(),
        },
    )
}

fn save_kmh_state(spec: &CheckpointSpec, key: RunKey, builder: &KmhBuilder) -> Result<()> {
    let (sigs, counts) = builder.snapshot();
    checkpoint::save_phase1(
        spec,
        key,
        &Phase1State::Kmh {
            rows_done: builder.rows_seen(),
            k: u32::try_from(builder.k()).expect("k fits u32"),
            counts,
            sigs,
        },
    )
}

impl Pipeline {
    /// Parallel in-memory run: every phase of every scheme executes over
    /// one caller-owned [`sfa_par::ThreadPool`] — signature computation,
    /// candidate generation (every scheme counts through the shared
    /// pool-parallel kernel) and exact verification — so several runs
    /// (e.g. a benchmark sweep) can share one set of workers. Output is
    /// byte-identical to [`run`](Self::run) for every scheme at every
    /// thread count; `metrics.threads` records the pool size.
    #[must_use]
    pub fn run_pool(&self, matrix: &RowMajorMatrix, pool: &ThreadPool) -> MiningResult {
        let (candidates, mut timings, mut metrics) = self
            .candidates_with_metrics(Table::<MemoryRowStream>::Resident(matrix, pool), pool)
            .expect("a resident matrix cannot fail to read");
        metrics.threads = pool.threads() as u64;
        // Phase 3: the matrix is resident, so verify against its
        // column-major transpose with the bitmap kernels instead of
        // re-scanning rows (streaming, checkpoint, and fault-injection
        // paths keep the row scan).
        let t = Instant::now();
        let columns = matrix.transpose();
        let (verified, column_counts, kernel_report) =
            crate::verify::verify_candidates_in_memory_pool_with_report(
                &columns,
                &candidates,
                pool,
            );
        timings.verify = t.elapsed();
        metrics.kernels = Some(kernel_report.into());
        // Both passes scan the whole in-memory matrix; the in-memory
        // verifier does not count per-pair probes, so `intersection_work`
        // stays 0 on this path (use `run` for the full counters).
        let full_scan = crate::metrics::PassMetrics {
            rows_scanned: u64::from(matrix.n_rows()),
            nonzeros_scanned: matrix.nnz() as u64,
        };
        metrics.signature_pass = full_scan;
        metrics.verify_pass = full_scan;
        metrics.verification = self.verification_metrics(&verified, 0);
        MiningResult {
            config: self.config,
            verified,
            column_counts,
            timings,
            metrics,
        }
    }
}

/// Reads a whole stream into a row-major matrix (used by H-LSH).
fn materialize<S: RowStream>(stream: &mut S) -> Result<RowMajorMatrix> {
    let n_cols = stream.n_cols();
    let mut rows = Vec::with_capacity(stream.n_rows() as usize);
    let mut buf = Vec::new();
    while stream.read_row(&mut buf)?.is_some() {
        rows.push(buf.clone());
    }
    RowMajorMatrix::from_rows(n_cols, rows)
}

/// A byte cap on the pair-space working state of a sharded run, plus where
/// that run may spill.
///
/// The budget governs the state that grows with the number of *candidate
/// pairs* — phase-2 pair counters and the phase-3 per-group verification
/// state — which is the quadratic blowup the paper's schemes are designed
/// to tame. Linear-in-`m` state — the signatures, the H-LSH base matrix,
/// per-column counts, and the sorted `(key, column)` entries phase 2
/// buckets through — is deliberately outside the budget: it is the fixed
/// cost of running the scheme at all and cannot be sharded away.
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    /// Byte cap on pair-space state. Must be at least
    /// [`MemoryBudget::MIN_BYTES`].
    pub bytes: usize,
    /// Directory for `.sfsp` spill files (created if absent, spill files
    /// removed when the run completes).
    pub spill_dir: PathBuf,
}

impl MemoryBudget {
    /// The smallest enforceable budget: one minimum-size pair-counter
    /// table (16 slots × 12 bytes). Below this even an empty shard
    /// overflows, so no shard count can satisfy the cap.
    pub const MIN_BYTES: usize = 192;

    /// A budget of `bytes` spilling into `spill_dir`. A run starts
    /// unsharded and doubles the shard count whenever a shard overflows.
    #[must_use]
    pub fn new(bytes: usize, spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            bytes,
            spill_dir: spill_dir.into(),
        }
    }
}

/// Widest partition the doubling loop will try before concluding the
/// budget cannot be met (a backstop; any budget ≥ [`MemoryBudget::MIN_BYTES`]
/// converges long before this).
const MAX_SHARDS: u32 = 1 << 20;

/// Working-state estimate per candidate during a verification pass: the
/// [`CandidatePair`] itself, its [`VerifiedPair`], an intersection counter
/// and two partner-adjacency entries.
const VERIFY_BYTES_PER_CANDIDATE: u64 = 64;

/// The resident phase-1 summary phase 2 reads: every shard's generation
/// pass re-reads this instead of re-scanning the table. The H-LSH matrix
/// is borrowed when the table is already resident.
enum Phase1Summary<'m> {
    Sigs(SignatureMatrix),
    BottomK(BottomKSignatures),
    Matrix(Cow<'m, RowMajorMatrix>),
}

impl Phase1Summary<'_> {
    fn heap_bytes(&self) -> u64 {
        match self {
            Self::Sigs(s) => s.heap_bytes(),
            Self::BottomK(s) => s.heap_bytes(),
            Self::Matrix(m) => m.heap_bytes(),
        }
    }
}

/// Folds one shard's generation stats into the running total: stage counts
/// add positionally (every shard of a scheme records the same stage
/// sequence), histograms add elementwise.
fn merge_stats(acc: &mut CandidateGenStats, part: CandidateGenStats) {
    if acc.stages.is_empty() {
        acc.stages = part.stages;
    } else {
        debug_assert_eq!(acc.stages.len(), part.stages.len());
        for (a, (_, count)) in acc.stages.iter_mut().zip(part.stages) {
            a.1 += count;
        }
    }
    if acc.bucket_histogram.len() < part.bucket_histogram.len() {
        acc.bucket_histogram.resize(part.bucket_histogram.len(), 0);
    }
    for (a, b) in acc.bucket_histogram.iter_mut().zip(part.bucket_histogram) {
        *a += b;
    }
}

impl Pipeline {
    /// Runs the pipeline with its pair-space state capped at
    /// `budget.bytes`, spilling per-shard candidate sets to disk.
    ///
    /// The pair space is partitioned into `G` column shards
    /// ([`PairShard`]); each shard's candidates are generated in an
    /// independent pass over the resident phase-1 summary with a
    /// budget-capped counter, then spilled to `budget.spill_dir` as a
    /// checksummed `.sfsp` file. If any shard's counter would outgrow the
    /// budget, `G` doubles and generation restarts at the finer partition.
    /// Verification then streams the table once per *shard group* — shards
    /// packed greedily so one group's candidate state fits the budget —
    /// and each group's result is spilled too.
    ///
    /// Output is **byte-identical** to [`run`](Self::run): every pair
    /// belongs to exactly one shard, so the union of shard candidate sets
    /// equals the unsharded candidate set, and the final merge sorts
    /// verified pairs into the same `(i, j)` order. `metrics.sharding`
    /// reports the shard count, restarts, passes, spill volume and peak
    /// tracked pair-state bytes; with `checkpoint` given, both streaming
    /// passes also checkpoint (resume semantics as
    /// [`run_resumable`](Self::run_resumable)), and because finished
    /// shards and groups live in spill files, a killed run re-does at most
    /// one shard's generation plus one group's scan.
    ///
    /// # Errors
    ///
    /// Propagates stream and spill-IO errors, and reports a budget below
    /// [`MemoryBudget::MIN_BYTES`] (or one no partition of this table can
    /// satisfy) as [`MatrixError::DimensionMismatch`].
    pub fn run_sharded<S: RowStream>(
        &self,
        stream: &mut S,
        budget: &MemoryBudget,
        checkpoint: Option<&CheckpointSpec>,
    ) -> Result<MiningResult> {
        self.run_sharded_with(stream, budget, checkpoint, &CancelToken::default())
    }

    /// [`run_sharded`](Self::run_sharded) with cooperative cancellation.
    /// `cancel` is polled at shard and verify-group boundaries and (with
    /// `checkpoint` given) after every streamed row; finished shards and
    /// groups are already spilled when it fires, so a rerun redoes at most
    /// the interrupted piece. Both state directories are swept by
    /// [`durable::recover_dir`] first — stray `.tmp` files deleted,
    /// corrupt or stale spills and checkpoints quarantined (reported in
    /// `metrics.recovery`).
    ///
    /// # Errors
    ///
    /// As [`run_sharded`](Self::run_sharded); returns
    /// [`MatrixError::Canceled`] when `cancel` fires.
    pub fn run_sharded_with<S: RowStream>(
        &self,
        stream: &mut S,
        budget: &MemoryBudget,
        checkpoint: Option<&CheckpointSpec>,
        cancel: &CancelToken,
    ) -> Result<MiningResult> {
        if budget.bytes < MemoryBudget::MIN_BYTES {
            return Err(MatrixError::DimensionMismatch {
                detail: format!(
                    "memory budget of {} bytes is below the {}-byte minimum (one empty pair-counter table)",
                    budget.bytes,
                    MemoryBudget::MIN_BYTES
                ),
            });
        }
        let cfg = &self.config;
        let key = RunKey::new(cfg, stream.n_rows(), stream.n_cols());
        let mut recovered = durable::recover_dir(&budget.spill_dir, key)?;
        if let Some(spec) = checkpoint {
            if spec.dir != budget.spill_dir {
                recovered = recovered.merge(durable::recover_dir(&spec.dir, key)?);
            }
        }
        let mut recovery = RecoveryMetrics {
            files_quarantined: recovered.files_quarantined,
            tmp_files_removed: recovered.tmp_files_removed,
            ..RecoveryMetrics::default()
        };
        let mut timings = PhaseTimings::default();
        let mut metrics = MiningMetrics {
            scheme: cfg.scheme.name().to_owned(),
            ..MiningMetrics::default()
        };
        let mut scan = ScanCounter::new(&mut *stream);

        // Phase 1: one streaming pass into the resident summary (skipped
        // entirely on a signature-cache hit).
        let t = Instant::now();
        let table = match checkpoint {
            Some(spec) => Table::Resumable(
                &mut scan,
                Checkpointing {
                    spec,
                    key,
                    recovery: &mut recovery,
                    cancel,
                },
            ),
            None => Table::Stream(&mut scan),
        };
        let (summary, phase1) = self.phase1(table)?;
        metrics.phase1 = phase1;
        timings.signatures = t.elapsed();
        metrics.signature_bytes = summary.heap_bytes();

        // Phase 2: generate each shard under the cap, doubling the
        // partition whenever a shard overflows. An interrupted run's spill
        // files let a rerun adopt the widest partition already on disk and
        // skip every shard spilled there.
        // A bounded cap counts on one worker into one table.
        let pool = ThreadPool::new(1);
        let mut g = spill::max_valid_shard_count(&budget.spill_dir, key).unwrap_or(1);
        let mut shard_restarts = 0u64;
        let mut generation_passes = 0u64;
        let mut spill_bytes = 0u64;
        let mut peak_tracked_bytes = 0u64;
        let mut shard_sizes: Vec<u64> = Vec::new();
        let t = Instant::now();
        'attempt: loop {
            let width = g;
            shard_sizes.clear();
            let mut acc_stats = CandidateGenStats::default();
            for s in 0..width {
                // Shard boundary: everything before shard `s` is spilled,
                // so stopping here loses at most one shard's work.
                cancel.check()?;
                if let Some(cands) = spill::load_shard_candidates(&budget.spill_dir, key, s, width)
                {
                    shard_sizes.push(cands.len() as u64);
                    continue;
                }
                generation_passes += 1;
                let (cands, stats, outcome) =
                    self.generate(&summary, PairShard::new(s, width), budget.bytes, &pool);
                peak_tracked_bytes = peak_tracked_bytes.max(outcome.counter_bytes as u64);
                if outcome.overflowed {
                    if width >= MAX_SHARDS {
                        return Err(MatrixError::DimensionMismatch {
                            detail: format!(
                                "memory budget of {} bytes cannot be met: a {width}-way shard partition still overflows",
                                budget.bytes
                            ),
                        });
                    }
                    g = width * 2;
                    shard_restarts += 1;
                    continue 'attempt;
                }
                merge_stats(&mut acc_stats, stats);
                spill_bytes +=
                    spill::save_shard_candidates(&budget.spill_dir, key, s, width, &cands)?;
                shard_sizes.push(cands.len() as u64);
            }
            metrics.absorb_candidate_stats(acc_stats);
            break;
        }
        timings.candidates = t.elapsed();
        metrics.candidates_generated = shard_sizes.iter().sum();

        // Phase 3: pack shards greedily into groups whose candidate state
        // fits the budget (a lone oversized shard still gets a group), and
        // stream the table once per group that has no spilled result.
        let mut groups: Vec<Vec<u32>> = Vec::new();
        let mut group_bytes = 0u64;
        for (s, &size) in shard_sizes.iter().enumerate() {
            let bytes = size * VERIFY_BYTES_PER_CANDIDATE;
            match groups.last_mut() {
                Some(group) if group_bytes + bytes <= budget.bytes as u64 => {
                    group.push(s as u32);
                    group_bytes += bytes;
                }
                _ => {
                    groups.push(vec![s as u32]);
                    group_bytes = bytes;
                }
            }
        }
        let mut verified = Vec::new();
        let mut column_counts = vec![0u32; scan.n_cols() as usize];
        let mut probes = 0u64;
        let t = Instant::now();
        for (group_idx, group) in groups.iter().enumerate() {
            // Group boundary: finished groups have spilled results.
            cancel.check()?;
            let mut candidates = Vec::new();
            for &s in group {
                candidates.extend(
                    spill::load_shard_candidates(&budget.spill_dir, key, s, g).ok_or_else(
                        || MatrixError::DimensionMismatch {
                            detail: format!("spilled shard {s} of {g} vanished mid-run"),
                        },
                    )?,
                );
            }
            candidates.sort_by_key(CandidatePair::ids);
            peak_tracked_bytes =
                peak_tracked_bytes.max(candidates.len() as u64 * VERIFY_BYTES_PER_CANDIDATE);
            let fp = checkpoint::candidates_fingerprint(&candidates);
            let (group_verified, group_counts, group_probes) =
                match spill::load_group_result(&budget.spill_dir, key, group_idx, fp) {
                    Some(result) => result,
                    None => {
                        scan.reset()?;
                        let result = match checkpoint {
                            Some(spec) => {
                                let resume = checkpoint::load_phase3(spec, key, fp);
                                if let Some(s) = &resume {
                                    recovery.resumed_from_row =
                                        recovery.resumed_from_row.max(s.progress.rows_done);
                                }
                                let mut written = 0u64;
                                let result = verify_candidates_resumable(
                                    &mut scan,
                                    &candidates,
                                    resume.map(|s| s.progress),
                                    spec.every_rows,
                                    &mut |p| {
                                        checkpoint::save_phase3(spec, key, fp, p)?;
                                        written += 1;
                                        Ok(())
                                    },
                                    cancel,
                                )?;
                                recovery.checkpoints_written += written;
                                result
                            }
                            None => verify_candidates_with_stats(&mut scan, &candidates)?,
                        };
                        spill_bytes += spill::save_group_result(
                            &budget.spill_dir,
                            key,
                            group_idx,
                            fp,
                            &result.0,
                            &result.1,
                            result.2,
                        )?;
                        result
                    }
                };
            verified.extend(group_verified);
            // Every group's pass counts all columns, so the vectors agree;
            // max keeps the merge idempotent.
            for (acc, v) in column_counts.iter_mut().zip(&group_counts) {
                *acc = (*acc).max(*v);
            }
            probes += group_probes;
        }
        verified.sort_by_key(|p| (p.i, p.j));
        timings.verify = t.elapsed();

        let passes = scan.pass_scans();
        metrics.signature_pass = passes.first().copied().unwrap_or_default().into();
        metrics.verify_pass =
            passes[1..]
                .iter()
                .fold(crate::metrics::PassMetrics::default(), |mut acc, p| {
                    acc.rows_scanned += p.rows;
                    acc.nonzeros_scanned += p.nonzeros;
                    acc
                });
        metrics.verification = self.verification_metrics(&verified, probes);
        metrics.recovery = recovery;
        metrics.sharding = Some(ShardingMetrics {
            memory_budget: budget.bytes as u64,
            shards: u64::from(g),
            shard_restarts,
            generation_passes,
            verify_groups: groups.len() as u64,
            spill_bytes,
            peak_tracked_bytes,
        });
        spill::clear(&budget.spill_dir)?;
        durable::remove_manifest(&budget.spill_dir)?;
        if let Some(spec) = checkpoint {
            checkpoint::clear(spec)?;
            durable::remove_manifest(&spec.dir)?;
        }
        Ok(MiningResult {
            config: self.config,
            verified,
            column_counts,
            timings,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::MemoryRowStream;

    /// 0–1 identical (S = 1), 2–3 at S = 0.5, others noise.
    fn matrix() -> RowMajorMatrix {
        let mut rows = Vec::new();
        for _ in 0..30 {
            rows.push(vec![0, 1]);
        }
        for _ in 0..10 {
            rows.push(vec![2, 3]);
        }
        for _ in 0..5 {
            rows.push(vec![2]);
            rows.push(vec![3]);
        }
        for i in 0..20u32 {
            rows.push(vec![4 + (i % 3)]);
        }
        RowMajorMatrix::from_rows(7, rows).unwrap()
    }

    fn all_schemes() -> Vec<Scheme> {
        vec![
            Scheme::Mh { k: 100, delta: 0.2 },
            Scheme::MhRowSort { k: 100, delta: 0.2 },
            Scheme::Kmh { k: 24, delta: 0.2 },
            Scheme::MLsh {
                k: 100,
                r: 5,
                l: 20,
                sampled: false,
            },
            Scheme::MLsh {
                k: 40,
                r: 5,
                l: 20,
                sampled: true,
            },
            Scheme::HLsh {
                r: 8,
                l: 8,
                t: 4,
                max_levels: 12,
            },
        ]
    }

    #[test]
    fn every_scheme_finds_the_identical_pair() {
        let m = matrix();
        for scheme in all_schemes() {
            let cfg = PipelineConfig::new(scheme, 0.9, 11);
            let result = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let pairs = result.similar_pairs();
            assert!(
                pairs.iter().any(|p| (p.i, p.j) == (0, 1)),
                "{} missed the identical pair",
                scheme.name()
            );
        }
    }

    #[test]
    fn no_false_positives_survive_verification() {
        let m = matrix();
        let csc = m.transpose();
        for scheme in all_schemes() {
            let cfg = PipelineConfig::new(scheme, 0.9, 5);
            let result = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            for p in result.similar_pairs() {
                let exact = csc.similarity(p.i, p.j);
                assert!(
                    exact >= 0.9,
                    "{}: output pair ({}, {}) has exact similarity {exact}",
                    scheme.name(),
                    p.i,
                    p.j
                );
                assert!((p.similarity - exact).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mh_and_rowsort_agree() {
        let m = matrix();
        let a = Pipeline::new(PipelineConfig::new(
            Scheme::Mh { k: 64, delta: 0.2 },
            0.8,
            3,
        ))
        .run(&mut MemoryRowStream::new(&m))
        .unwrap();
        let b = Pipeline::new(PipelineConfig::new(
            Scheme::MhRowSort { k: 64, delta: 0.2 },
            0.8,
            3,
        ))
        .run(&mut MemoryRowStream::new(&m))
        .unwrap();
        assert_eq!(a.verified, b.verified);
    }

    #[test]
    fn pipeline_uses_exactly_two_passes() {
        let m = matrix();
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let cfg = PipelineConfig::new(Scheme::Mh { k: 16, delta: 0.2 }, 0.8, 1);
        let _ = Pipeline::new(cfg).run(&mut counter).unwrap();
        assert_eq!(counter.passes(), 2, "signature pass + verify pass");
    }

    #[test]
    fn moderate_pair_respects_threshold() {
        let m = matrix();
        // S(2, 3) = 10/20 = 0.5: present at s* = 0.4, absent at s* = 0.7.
        let low = Pipeline::new(PipelineConfig::new(
            Scheme::Mh { k: 200, delta: 0.3 },
            0.4,
            9,
        ))
        .run(&mut MemoryRowStream::new(&m))
        .unwrap();
        assert!(low.similar_pairs().iter().any(|p| (p.i, p.j) == (2, 3)));
        let high = Pipeline::new(PipelineConfig::new(
            Scheme::Mh { k: 200, delta: 0.3 },
            0.7,
            9,
        ))
        .run(&mut MemoryRowStream::new(&m))
        .unwrap();
        assert!(!high.similar_pairs().iter().any(|p| (p.i, p.j) == (2, 3)));
    }

    #[test]
    fn deterministic_per_seed() {
        let m = matrix();
        let cfg = PipelineConfig::new(Scheme::Kmh { k: 16, delta: 0.2 }, 0.8, 42);
        let a = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        let b = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        assert_eq!(a.verified, b.verified);
    }

    #[test]
    fn run_pool_matches_run() {
        // Every scheme's parallel path must be byte-identical to the
        // sequential pipeline at every thread count: same verified pairs,
        // column counts, stage counters, and occupancy histograms.
        let m = matrix();
        for scheme in [
            Scheme::Mh { k: 64, delta: 0.2 },
            Scheme::MhRowSort { k: 64, delta: 0.2 },
            Scheme::Kmh { k: 16, delta: 0.2 },
            Scheme::MLsh {
                k: 60,
                r: 5,
                l: 12,
                sampled: false,
            },
            Scheme::MLsh {
                k: 40,
                r: 5,
                l: 20,
                sampled: true,
            },
            Scheme::HLsh {
                r: 8,
                l: 8,
                t: 4,
                max_levels: 12,
            },
        ] {
            let cfg = PipelineConfig::new(scheme, 0.8, 17);
            let seq = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            for threads in [1, 2, 4, 7] {
                let par = Pipeline::new(cfg).run_pool(&m, &ThreadPool::new(threads));
                assert_eq!(par.verified, seq.verified, "{} x{threads}", scheme.name());
                assert_eq!(par.column_counts, seq.column_counts);
                assert_eq!(
                    par.metrics.candidate_stages,
                    seq.metrics.candidate_stages,
                    "{} x{threads}: stage counters",
                    scheme.name()
                );
                assert_eq!(
                    par.metrics.bucket_histogram,
                    seq.metrics.bucket_histogram,
                    "{} x{threads}: bucket histogram",
                    scheme.name()
                );
                assert_eq!(par.metrics.threads, threads as u64);
            }
        }
    }

    #[test]
    fn run_pool_auto_threads_sizes_from_machine() {
        let m = matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.8, 17);
        let auto = Pipeline::new(cfg).run_pool(&m, &ThreadPool::new(0));
        assert!(auto.metrics.threads >= 1);
        let seq = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        assert_eq!(auto.verified, seq.verified);
    }

    #[test]
    fn run_pool_reuses_one_pool_across_runs() {
        let m = matrix();
        let pool = ThreadPool::new(3);
        for scheme in [
            Scheme::Mh { k: 32, delta: 0.2 },
            Scheme::Kmh { k: 16, delta: 0.2 },
        ] {
            let cfg = PipelineConfig::new(scheme, 0.8, 17);
            let seq = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let par = Pipeline::new(cfg).run_pool(&m, &pool);
            assert_eq!(par.verified, seq.verified, "{}", scheme.name());
            assert_eq!(par.metrics.threads, 3);
        }
    }

    #[test]
    fn timings_are_populated() {
        let m = matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 64, delta: 0.2 }, 0.8, 1);
        let r = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        assert!(r.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn metrics_are_populated_for_every_scheme() {
        let m = matrix();
        for scheme in all_schemes() {
            let cfg = PipelineConfig::new(scheme, 0.9, 11);
            let r = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let metrics = &r.metrics;
            let name = scheme.name();
            assert_eq!(metrics.scheme, name);
            // Both passes scanned the full table.
            assert_eq!(metrics.signature_pass.rows_scanned, u64::from(m.n_rows()));
            assert_eq!(metrics.signature_pass.nonzeros_scanned, m.nnz() as u64);
            assert_eq!(metrics.verify_pass, metrics.signature_pass);
            assert!(metrics.signature_bytes > 0, "{name}: no signature bytes");
            assert!(
                !metrics.candidate_stages.is_empty(),
                "{name}: no candidate stages"
            );
            assert_eq!(metrics.candidates_generated, r.verified.len() as u64);
            let v = &metrics.verification;
            assert_eq!(v.candidates_checked, r.verified.len() as u64);
            assert_eq!(
                v.true_positives as usize,
                r.similar_pairs().len(),
                "{name}: TP mismatch"
            );
            assert_eq!(
                v.false_positives_pruned as usize,
                r.false_positive_candidates(),
                "{name}: FP mismatch"
            );
            if !r.verified.is_empty() {
                assert!(v.intersection_work > 0, "{name}: no probe work counted");
            }
            assert!(
                metrics.bucket_histogram.iter().sum::<u64>() > 0,
                "{name}: empty bucket histogram"
            );
        }
    }

    fn checkpoint_spec(name: &str) -> CheckpointSpec {
        let dir = std::env::temp_dir().join("sfa_pipeline_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointSpec::new(dir)
    }

    #[test]
    fn run_resumable_without_interruption_matches_run() {
        let m = matrix();
        for scheme in all_schemes() {
            let cfg = PipelineConfig::new(scheme, 0.8, 11);
            let plain = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let spec =
                checkpoint_spec(&format!("uninterrupted_{}", scheme.name())).with_every_rows(16);
            let resumable = Pipeline::new(cfg)
                .run_resumable(&mut MemoryRowStream::new(&m), &spec)
                .unwrap();
            assert_eq!(resumable.verified, plain.verified, "{}", scheme.name());
            assert_eq!(resumable.column_counts, plain.column_counts);
            // H-LSH has no phase-1 builder, but its verify pass
            // checkpoints like every other scheme's.
            assert!(
                resumable.metrics.recovery.checkpoints_written > 0,
                "{}: no checkpoints written",
                scheme.name()
            );
            assert_eq!(resumable.metrics.recovery.resumed_from_row, 0);
            // Success must leave no checkpoint files behind.
            assert!(!spec.dir.join("phase1.sfcp").exists());
            assert!(!spec.dir.join("phase3.sfcp").exists());
        }
    }

    #[test]
    fn run_resumable_resumes_after_phase1_crash() {
        let m = matrix(); // 70 rows
        for scheme in [
            Scheme::Mh { k: 32, delta: 0.2 },
            Scheme::Kmh { k: 16, delta: 0.2 },
        ] {
            let cfg = PipelineConfig::new(scheme, 0.8, 11);
            let plain = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let spec =
                checkpoint_spec(&format!("phase1_crash_{}", scheme.name())).with_every_rows(16);

            // First attempt dies on a fatal fault at row 40, after the
            // checkpoints at rows 16 and 32 have been written.
            let faulty = sfa_matrix::FaultConfig {
                fatal_at_row: Some(40),
                ..sfa_matrix::FaultConfig::default()
            };
            let mut stream = sfa_matrix::FaultyRowStream::new(MemoryRowStream::new(&m), faulty);
            Pipeline::new(cfg)
                .run_resumable(&mut stream, &spec)
                .unwrap_err();
            assert!(spec.dir.join("phase1.sfcp").exists());

            // The rerun fast-forwards to row 32: it reads 70 − 32 = 38 rows
            // in the signature pass plus the full 70-row verify pass.
            let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
            let resumed = Pipeline::new(cfg)
                .run_resumable(&mut counter, &spec)
                .unwrap();
            assert_eq!(counter.rows_read(), 38 + 70, "{}", scheme.name());
            assert_eq!(resumed.metrics.recovery.resumed_from_row, 32);
            assert_eq!(resumed.verified, plain.verified, "{}", scheme.name());
            assert_eq!(resumed.column_counts, plain.column_counts);
        }
    }

    #[test]
    fn run_resumable_resumes_after_phase3_crash() {
        let m = matrix(); // 70 rows
        let cfg = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.8, 11);
        let plain = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        let spec = checkpoint_spec("phase3_crash").with_every_rows(16);
        std::fs::create_dir_all(&spec.dir).unwrap();

        // Manufacture a *completed* phase-1 checkpoint (rows_done = 70), so
        // the next attempt skips the whole signature pass without reading.
        let key = RunKey::new(&cfg, m.n_rows(), m.n_cols());
        let sig_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::SIGNATURES);
        let mut builder = MhBuilder::new(32, m.n_cols() as usize, sig_seed);
        let mut stream = MemoryRowStream::new(&m);
        let mut buf = Vec::new();
        while let Some(id) = stream.read_row(&mut buf).unwrap() {
            builder.push_row(id, &buf);
        }
        save_mh_state(&spec, key, &builder).unwrap();

        // With phase 1 fully skipped (skip_rows bypasses fault injection),
        // the fatal fault at position 40 now fires mid-verify, after the
        // frontier checkpoints at rows 16 and 32 were written.
        let faulty = sfa_matrix::FaultConfig {
            fatal_at_row: Some(40),
            ..sfa_matrix::FaultConfig::default()
        };
        let mut attempt = sfa_matrix::FaultyRowStream::new(MemoryRowStream::new(&m), faulty);
        Pipeline::new(cfg)
            .run_resumable(&mut attempt, &spec)
            .unwrap_err();
        assert!(
            spec.dir.join("phase3.sfcp").exists(),
            "the crash must leave a phase-3 frontier checkpoint"
        );

        // Final attempt on a clean stream: phase 1 resumes from its
        // completed checkpoint (0 signature rows re-read), phase 3 from
        // the row-32 frontier (70 − 32 = 38 rows re-read).
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let resumed = Pipeline::new(cfg)
            .run_resumable(&mut counter, &spec)
            .unwrap();
        assert_eq!(counter.rows_read(), 38, "only the verify suffix is read");
        assert_eq!(resumed.metrics.recovery.resumed_from_row, 70);
        assert_eq!(resumed.verified, plain.verified);
        assert_eq!(resumed.column_counts, plain.column_counts);
    }

    #[test]
    fn stale_checkpoint_from_other_config_is_ignored() {
        let m = matrix();
        let spec = checkpoint_spec("stale_config").with_every_rows(16);
        let cfg_a = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.8, 11);
        let faulty = sfa_matrix::FaultConfig {
            fatal_at_row: Some(40),
            ..sfa_matrix::FaultConfig::default()
        };
        let mut stream = sfa_matrix::FaultyRowStream::new(MemoryRowStream::new(&m), faulty);
        Pipeline::new(cfg_a)
            .run_resumable(&mut stream, &spec)
            .unwrap_err();

        // A different seed must not resume from cfg_a's checkpoint.
        let cfg_b = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.8, 12);
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let result = Pipeline::new(cfg_b)
            .run_resumable(&mut counter, &spec)
            .unwrap();
        assert_eq!(counter.rows_read(), 140, "both passes run in full");
        assert_eq!(result.metrics.recovery.resumed_from_row, 0);
        let plain = Pipeline::new(cfg_b)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        assert_eq!(result.verified, plain.verified);
    }

    #[test]
    fn run_pool_reports_coarse_metrics() {
        let m = matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 64, delta: 0.2 }, 0.8, 17);
        let par = Pipeline::new(cfg).run_pool(&m, &ThreadPool::new(3));
        assert_eq!(par.metrics.scheme, "MH");
        assert_eq!(
            par.metrics.signature_pass.rows_scanned,
            u64::from(m.n_rows())
        );
        assert_eq!(par.metrics.candidates_generated, par.verified.len() as u64);
        let seq = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        // Scheme-side counters agree with the sequential path.
        assert_eq!(par.metrics.candidate_stages, seq.metrics.candidate_stages);
        assert_eq!(par.metrics.bucket_histogram, seq.metrics.bucket_histogram);
        assert_eq!(
            par.metrics.verification.true_positives,
            seq.metrics.verification.true_positives
        );
    }

    /// A fresh spill directory under the system temp dir.
    fn spill_dir(name: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("sfa-sharded-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// A dense overlap structure: 8 columns that constantly co-bucket, so
    /// the pair counters need more than the 12 distinct keys a
    /// minimum-budget (16-slot) table can hold.
    fn dense_matrix() -> RowMajorMatrix {
        let rows: Vec<Vec<u32>> = (0..60u32)
            .map(|i| {
                let mut v = vec![i % 8, (i * 3 + 1) % 8, (i * 5 + 2) % 8];
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        RowMajorMatrix::from_rows(8, rows).unwrap()
    }

    #[test]
    fn run_sharded_matches_run_for_every_scheme_and_shard_count() {
        let m = dense_matrix();
        let mut schemes = all_schemes();
        // Short keys make the LSH schemes collide often enough to shard.
        schemes.push(Scheme::MLsh {
            k: 40,
            r: 1,
            l: 20,
            sampled: true,
        });
        schemes.push(Scheme::HLsh {
            r: 2,
            l: 8,
            t: 4,
            max_levels: 12,
        });
        for scheme in schemes {
            let cfg = PipelineConfig::new(scheme, 0.5, 11);
            let plain = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            // Budgets from the minimum (one 16-slot table per shard) to
            // roomy: the run doubles the partition until shards fit.
            let mut widths = Vec::new();
            for budget_bytes in [192usize, 384, 768, 1 << 20] {
                let d = spill_dir(&format!("{}-{budget_bytes}", scheme.name()));
                let budget = MemoryBudget::new(budget_bytes, &d);
                let sharded = Pipeline::new(cfg)
                    .run_sharded(&mut MemoryRowStream::new(&m), &budget, None)
                    .unwrap();
                let s = sharded.metrics.sharding.expect("sharding metrics");
                let shards = s.shards;
                let at = format!(
                    "{} under {budget_bytes} bytes ({shards} shards)",
                    scheme.name()
                );
                assert_eq!(sharded.verified, plain.verified, "{at}");
                assert_eq!(sharded.column_counts, plain.column_counts);
                // Per-pair stages partition exactly across shards; the
                // counter-increment stage counts work actually done, which
                // is one full bucket walk per shard pass. Same for the
                // occupancy histogram.
                for (s_stage, p_stage) in sharded
                    .metrics
                    .candidate_stages
                    .iter()
                    .zip(&plain.metrics.candidate_stages)
                {
                    assert_eq!(s_stage.stage, p_stage.stage);
                    let expected = if s_stage.stage == "counter-increments" {
                        p_stage.count * shards
                    } else {
                        p_stage.count
                    };
                    assert_eq!(s_stage.count, expected, "{at}: stage {}", s_stage.stage);
                }
                let scaled: Vec<u64> = plain
                    .metrics
                    .bucket_histogram
                    .iter()
                    .map(|&v| v * shards)
                    .collect();
                assert_eq!(sharded.metrics.bucket_histogram, scaled, "{at}");
                assert_eq!(
                    sharded.metrics.candidates_generated,
                    plain.metrics.candidates_generated
                );
                // Every attempt before the last overflowed and restarted.
                assert_eq!(1u64 << s.shard_restarts, shards, "{at}");
                assert!(s.generation_passes >= shards, "{at}");
                assert!(s.verify_groups >= 1);
                assert!(s.spill_bytes > 0);
                // Counters stay under the cap; only a lone shard whose
                // candidates outgrow it may verify above it.
                let lone_shard = plain.metrics.candidates_generated * VERIFY_BYTES_PER_CANDIDATE;
                assert!(
                    s.peak_tracked_bytes <= lone_shard.max(budget_bytes as u64),
                    "{at}"
                );
                // Spill files are cleaned up on success.
                assert!(
                    std::fs::read_dir(&d).unwrap().all(|e| !e
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .ends_with(".sfsp")),
                    "spill files survived a completed run"
                );
                let _ = std::fs::remove_dir_all(&d);
                widths.push(shards);
            }
            assert_eq!(widths.last(), Some(&1), "{}: roomy budget", scheme.name());
            if plain.metrics.stage(pairs_stage(&scheme)).unwrap() > 12 {
                assert!(widths[0] >= 2, "{}: {widths:?}", scheme.name());
            }
        }
    }

    /// The stage counting distinct counted pairs.
    fn pairs_stage(scheme: &Scheme) -> &'static str {
        match scheme {
            Scheme::Mh { .. } | Scheme::MhRowSort { .. } => "pairs-agreeing",
            Scheme::Kmh { .. } => "pairs-overlapping",
            Scheme::MLsh { .. } | Scheme::HLsh { .. } => "colliding-pairs",
        }
    }

    #[test]
    fn run_sharded_tiny_budget_doubles_until_shards_fit() {
        let m = dense_matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 100, delta: 0.2 }, 0.5, 11);
        let plain = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        assert!(
            plain.metrics.stage("pairs-agreeing").unwrap() > 12,
            "test premise: more distinct pairs than one minimum table holds"
        );
        let d = spill_dir("tiny");
        // The minimum budget: every shard must fit in one 16-slot table,
        // which forces the partition to split until it does.
        let budget = MemoryBudget::new(MemoryBudget::MIN_BYTES, &d);
        let sharded = Pipeline::new(cfg)
            .run_sharded(&mut MemoryRowStream::new(&m), &budget, None)
            .unwrap();
        assert_eq!(sharded.verified, plain.verified);
        let s = sharded.metrics.sharding.expect("sharding metrics");
        assert!(s.shards >= 2, "a 192-byte budget cannot hold one shard");
        assert!(s.shard_restarts >= 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn run_sharded_rejects_sub_minimum_budget() {
        let m = matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 16, delta: 0.2 }, 0.8, 1);
        let d = spill_dir("below-min");
        let err = Pipeline::new(cfg)
            .run_sharded(
                &mut MemoryRowStream::new(&m),
                &MemoryBudget::new(MemoryBudget::MIN_BYTES - 1, &d),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, MatrixError::DimensionMismatch { .. }));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn run_sharded_scans_the_table_once_per_verify_group_plus_phase1() {
        let m = dense_matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 64, delta: 0.2 }, 0.5, 11);
        let d = spill_dir("passes");
        let budget = MemoryBudget::new(MemoryBudget::MIN_BYTES, &d);
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let result = Pipeline::new(cfg)
            .run_sharded(&mut counter, &budget, None)
            .unwrap();
        let s = result.metrics.sharding.expect("sharding metrics");
        assert!(s.shards >= 2 && s.verify_groups >= 2, "{s:?}");
        assert_eq!(
            u64::from(counter.passes()),
            1 + s.verify_groups,
            "phase 1 + one verify scan per group"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn run_sharded_resumes_from_spilled_shards_and_groups() {
        let m = matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 64, delta: 0.2 }, 0.8, 11);
        let d = spill_dir("resume");
        let budget = MemoryBudget::new(1 << 20, &d);
        let key = RunKey::new(&cfg, m.n_rows(), m.n_cols());

        // Seed the spill dir the way an interrupted run would: generate
        // both shards' candidates out-of-band and spill them.
        std::fs::create_dir_all(&d).unwrap();
        let sig_seed = sfa_hash::family::derive_seed(cfg.seed, purpose::SIGNATURES);
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 64, sig_seed).unwrap();
        let pool = ThreadPool::new(1);
        for s in 0..2u32 {
            let (cands, _, outcome) =
                mh_candidates(&sigs, 0.8, 0.2, PairShard::new(s, 2), usize::MAX, &pool);
            assert!(!outcome.overflowed);
            spill::save_shard_candidates(&d, key, s, 2, &cands).unwrap();
        }

        // The resumed run must adopt the 2-way partition from disk and
        // regenerate nothing.
        let sharded = Pipeline::new(cfg)
            .run_sharded(&mut MemoryRowStream::new(&m), &budget, None)
            .unwrap();
        let s = sharded.metrics.sharding.expect("sharding metrics");
        assert_eq!(s.shards, 2);
        assert_eq!(s.generation_passes, 0, "every shard came from disk");
        let plain = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&m))
            .unwrap();
        assert_eq!(sharded.verified, plain.verified);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn run_sharded_with_checkpoints_matches_and_cleans_up() {
        let m = dense_matrix();
        for scheme in [
            Scheme::Mh { k: 64, delta: 0.2 },
            Scheme::Kmh { k: 16, delta: 0.2 },
            Scheme::HLsh {
                r: 8,
                l: 8,
                t: 4,
                max_levels: 12,
            },
        ] {
            let cfg = PipelineConfig::new(scheme, 0.5, 11);
            let plain = Pipeline::new(cfg)
                .run(&mut MemoryRowStream::new(&m))
                .unwrap();
            let d = spill_dir(&format!("ckpt-{}", scheme.name()));
            let budget = MemoryBudget::new(384, &d);
            let spec = CheckpointSpec::new(d.join("ckpt")).with_every_rows(16);
            let sharded = Pipeline::new(cfg)
                .run_sharded(&mut MemoryRowStream::new(&m), &budget, Some(&spec))
                .unwrap();
            assert_eq!(sharded.verified, plain.verified, "{}", scheme.name());
            assert!(
                sharded.metrics.recovery.checkpoints_written > 0
                    || matches!(scheme, Scheme::HLsh { .. }),
                "{}: streaming passes should checkpoint",
                scheme.name()
            );
            let _ = std::fs::remove_dir_all(&d);
        }
    }
}
