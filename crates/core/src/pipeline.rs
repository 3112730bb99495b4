//! The pipeline driver: signatures → candidates → exact verification.

use std::borrow::Cow;
use std::path::PathBuf;
use std::time::Instant;

use sfa_hash::bucket::{PairShard, ShardPassOutcome};
use sfa_lsh::{hlsh_candidates, mlsh_candidates, HLshParams, MLshParams};
use sfa_matrix::{MatrixError, Result, RowMajorMatrix, RowStream, ScanCounter};
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
    KernelMetrics, MiningMetrics, PassMetrics, Phase1Metrics, RecoveryMetrics, ShardingMetrics,
    VerifyMetrics,
};
use crate::report::{MiningResult, PhaseTimings, VerifiedPair};
use crate::shutdown::{CancelToken, CANCEL_POLL_STRIDE};
use crate::sigcache::SignatureCache;
use crate::spill;
use crate::verify::{verify_candidates_in_memory_pool_with_report, verify_candidates_resumable};

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
        let mut timings = PhaseTimings::default();
        let t = Instant::now();
        let (summary, _) = self.phase1(Table::Stream(stream))?;
        timings.signatures = t.elapsed();
        let t = Instant::now();
        let (candidates, _, _) =
            self.generate(&summary, PairShard::all(), usize::MAX, &ThreadPool::new(1));
        timings.candidates = t.elapsed();
        Ok((candidates, timings))
    }

    /// Phase 1 of every run: the scheme's resident summary of
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

    /// Phase 2 of every run: one generation pass of the configured
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

    /// [`execute`](Self::execute) over a stream with the default plan: one
    /// worker, no budget, no checkpoint, never canceled. Streams the table
    /// exactly twice.
    ///
    /// # Errors
    ///
    /// Propagates stream errors.
    pub fn run<S: RowStream>(&self, stream: &mut S) -> Result<MiningResult> {
        self.execute(
            Source::Stream(stream),
            &ExecPlan::new(&ThreadPool::new(1), &CancelToken::default()),
        )
    }

    /// [`execute`](Self::execute) over a resident matrix on `pool`, which
    /// several runs (e.g. a benchmark sweep) can share.
    #[must_use]
    pub fn run_pool(&self, matrix: &RowMajorMatrix, pool: &ThreadPool) -> MiningResult {
        self.execute(
            Source::Resident(matrix),
            &ExecPlan::new(pool, &CancelToken::default()),
        )
        .expect("a resident run without budget or checkpoint does no fallible IO")
    }

    /// [`execute`](Self::execute) over a stream on one worker under
    /// `budget`, checkpointing when `checkpoint` is given.
    ///
    /// # Errors
    ///
    /// As [`execute`](Self::execute).
    pub fn run_sharded<S: RowStream>(
        &self,
        stream: &mut S,
        budget: &MemoryBudget,
        checkpoint: Option<&CheckpointSpec>,
    ) -> Result<MiningResult> {
        self.execute(
            Source::Stream(stream),
            &ExecPlan {
                budget: Some(budget),
                checkpoint,
                ..ExecPlan::new(&ThreadPool::new(1), &CancelToken::default())
            },
        )
    }

    /// Runs the three phases over `source` as `plan` directs. This is the
    /// one execution path: every plan gives the same verified pairs and
    /// column counts, so the plan only trades memory, durability and
    /// parallelism.
    ///
    /// 1. **Recovery.** The plan's spill and checkpoint directories are
    ///    swept by [`durable::recover_dir`]: stray `.tmp` files are
    ///    deleted, and corrupt or stale state is quarantined (reported in
    ///    `metrics.recovery`) rather than trusted or fatal.
    /// 2. **Phase 1** builds the scheme's resident summary in one pass: a
    ///    stream is read once (resuming from and writing checkpoints when
    ///    the plan has one), a resident matrix is sketched on the pool, and
    ///    a signature-cache hit skips the table entirely.
    /// 3. **Phase 2** generates candidates. Without a budget that is one
    ///    pass over every pair. Under a budget the pair space is split into
    ///    `G` column shards ([`PairShard`]), each generated with a
    ///    budget-capped counter and spilled to `budget.spill_dir` as a
    ///    checksummed `.sfsp` file; when a shard overflows, `G` doubles and
    ///    generation restarts. A rerun adopts the widest partition already
    ///    spilled and skips its finished shards.
    /// 4. **Phase 3** verifies exactly, once per *verify group*: shards
    ///    packed greedily so a group's candidate state fits the budget (one
    ///    group without a budget). A streamed group rescans the table,
    ///    resuming from a matching checkpointed frontier; a resident group
    ///    counts against the column-major transpose on the pool. Under a
    ///    budget each group's result spills, so a killed run redoes at most
    ///    one shard's generation plus one group's verification.
    ///
    /// `plan.cancel` is polled before phase 1, before every shard and
    /// every verify group, and after every row of a streamed pass. A
    /// checkpointed pass flushes its state before returning, so a rerun
    /// with the same plan resumes from that frontier. Phase 1 of a
    /// checkpointed stream polls only per row, so even an expired token
    /// leaves a frontier behind.
    ///
    /// Sharding is exact: every pair belongs to exactly one shard, and the
    /// verified pairs are merged back into `(i, j)` order. The stage
    /// counters that count work done (counter increments, bucket
    /// occupancy) are summed over shard passes. `metrics.sharding`
    /// (budgeted runs) reports shards, restarts, passes, spill volume and
    /// peak tracked pair-state bytes; `metrics.kernels` (resident runs)
    /// sums the in-memory verifier's container tallies over groups. A
    /// completed run deletes its spill and checkpoint files.
    ///
    /// # Errors
    ///
    /// Propagates stream, spill and checkpoint IO errors; returns
    /// [`MatrixError::Canceled`] when `plan.cancel` fires; and reports a
    /// budget below [`MemoryBudget::MIN_BYTES`] (or one no partition of
    /// this table can satisfy) as [`MatrixError::DimensionMismatch`].
    pub fn execute(&self, source: Source<'_>, plan: &ExecPlan<'_>) -> Result<MiningResult> {
        let cfg = &self.config;
        if let Some(budget) = plan.budget.filter(|b| b.bytes < MemoryBudget::MIN_BYTES) {
            return Err(MatrixError::DimensionMismatch {
                detail: format!(
                    "memory budget of {} bytes is below the {}-byte minimum (one empty pair-counter table)",
                    budget.bytes,
                    MemoryBudget::MIN_BYTES
                ),
            });
        }
        let (n_rows, n_cols) = source.dims();
        let key = RunKey::new(cfg, n_rows, n_cols);
        let spill_dir = plan.budget.map(|b| b.spill_dir.as_path());
        let ckpt_dir = plan.checkpoint.map(|c| c.dir.as_path());
        let mut recovery = RecoveryMetrics::default();
        for dir in [spill_dir, ckpt_dir.filter(|&d| Some(d) != spill_dir)]
            .into_iter()
            .flatten()
        {
            let swept = durable::recover_dir(dir, key)?;
            recovery.files_quarantined += swept.files_quarantined;
            recovery.tmp_files_removed += swept.tmp_files_removed;
        }
        let mut timings = PhaseTimings::default();
        let mut metrics = MiningMetrics {
            scheme: cfg.scheme.name().to_owned(),
            threads: plan.pool.threads() as u64,
            ..MiningMetrics::default()
        };
        let mut rows = match source {
            Source::Stream(stream) => Rows::Stream(ScanCounter::new(stream)),
            Source::Resident(matrix) => Rows::Resident(matrix),
        };

        // Phase 1. A checkpointed pass polls `cancel` per row after
        // flushing its frontier, so only the other tables are polled here.
        let table = match (&mut rows, plan.checkpoint) {
            (&mut Rows::Resident(matrix), _) => Table::Resident(matrix, plan.pool),
            (Rows::Stream(scan), Some(spec)) => Table::Resumable(
                scan,
                Checkpointing {
                    spec,
                    key,
                    recovery: &mut recovery,
                    cancel: plan.cancel,
                },
            ),
            (Rows::Stream(scan), None) => Table::Stream(scan),
        };
        if !matches!(table, Table::Resumable(..)) {
            plan.cancel.check()?;
        }
        let t = Instant::now();
        let (summary, phase1) = self.phase1(table)?;
        timings.signatures = t.elapsed();
        let cache_hit = phase1.as_ref().is_some_and(|p| p.cache_hit);
        metrics.phase1 = phase1;
        metrics.signature_bytes = summary.heap_bytes();

        // Phase 2: one generation pass per shard; without a budget, one
        // shard holding every pair, kept in memory.
        let cap = plan.budget.map_or(usize::MAX, |b| b.bytes);
        let mut g = spill_dir
            .and_then(|dir| spill::max_valid_shard_count(dir, key))
            .unwrap_or(1);
        let mut sharding = ShardingMetrics::default();
        let mut shard_sizes: Vec<u64> = Vec::new();
        let mut unspilled = None;
        let t = Instant::now();
        let width = 'attempt: loop {
            let width = g;
            shard_sizes.clear();
            let mut stats = CandidateGenStats::default();
            for s in 0..width {
                // Shard boundary: everything before shard `s` is spilled,
                // so stopping here loses at most one shard's work.
                plan.cancel.check()?;
                if let Some(cands) =
                    spill_dir.and_then(|dir| spill::load_shard_candidates(dir, key, s, width))
                {
                    shard_sizes.push(cands.len() as u64);
                    continue;
                }
                sharding.generation_passes += 1;
                let (cands, part, outcome) =
                    self.generate(&summary, PairShard::new(s, width), cap, plan.pool);
                sharding.peak_tracked_bytes = sharding
                    .peak_tracked_bytes
                    .max(outcome.counter_bytes as u64);
                if outcome.overflowed {
                    if width >= MAX_SHARDS {
                        return Err(MatrixError::DimensionMismatch {
                            detail: format!(
                                "memory budget of {cap} bytes cannot be met: a {width}-way shard partition still overflows"
                            ),
                        });
                    }
                    g = width * 2;
                    sharding.shard_restarts += 1;
                    continue 'attempt;
                }
                merge_stats(&mut stats, part);
                shard_sizes.push(cands.len() as u64);
                match spill_dir {
                    Some(dir) => {
                        sharding.spill_bytes +=
                            spill::save_shard_candidates(dir, key, s, width, &cands)?;
                    }
                    None => unspilled = Some(cands),
                }
            }
            metrics.absorb_candidate_stats(stats);
            break width;
        };
        timings.candidates = t.elapsed();
        metrics.candidates_generated = shard_sizes.iter().sum();

        // Phase 3: pack shards greedily into groups whose candidate state
        // fits the budget (a lone oversized shard still gets a group), and
        // verify each group that has no spilled result.
        let mut groups: Vec<Vec<u32>> = Vec::new();
        let mut group_bytes = 0u64;
        for (s, &size) in shard_sizes.iter().enumerate() {
            let bytes = size * VERIFY_BYTES_PER_CANDIDATE;
            match groups.last_mut() {
                Some(group) if group_bytes + bytes <= cap as u64 => {
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
        let mut column_counts = vec![0u32; n_cols as usize];
        let mut probes = 0u64;
        let mut verify_passes = 0u64;
        let mut columns = None;
        let t = Instant::now();
        for (group_idx, group) in groups.iter().enumerate() {
            // Group boundary: finished groups have spilled results.
            plan.cancel.check()?;
            let candidates = match spill_dir {
                None => unspilled.take().unwrap_or_default(),
                Some(dir) => {
                    let mut candidates = Vec::new();
                    for &s in group {
                        candidates.extend(
                            spill::load_shard_candidates(dir, key, s, width).ok_or_else(|| {
                                MatrixError::DimensionMismatch {
                                    detail: format!(
                                        "spilled shard {s} of {width} vanished mid-run"
                                    ),
                                }
                            })?,
                        );
                    }
                    candidates.sort_by_key(CandidatePair::ids);
                    candidates
                }
            };
            sharding.peak_tracked_bytes = sharding
                .peak_tracked_bytes
                .max(candidates.len() as u64 * VERIFY_BYTES_PER_CANDIDATE);
            let fp = checkpoint::candidates_fingerprint(&candidates);
            let spilled =
                spill_dir.and_then(|dir| spill::load_group_result(dir, key, group_idx, fp));
            let (group_verified, group_counts, group_probes) = match spilled {
                Some(result) => result,
                None => {
                    verify_passes += 1;
                    let result = match &mut rows {
                        // The in-memory verifier counts no per-pair probes,
                        // so `intersection_work` stays 0 for a resident table.
                        Rows::Resident(matrix) => {
                            let columns = columns.get_or_insert_with(|| matrix.transpose());
                            let (v, counts, report) = verify_candidates_in_memory_pool_with_report(
                                columns,
                                &candidates,
                                plan.pool,
                            );
                            let report = KernelMetrics::from(report);
                            metrics.kernels = Some(match metrics.kernels.take() {
                                Some(acc) => acc.merge(report),
                                None => report,
                            });
                            (v, counts, 0)
                        }
                        Rows::Stream(scan) => {
                            scan.reset()?;
                            let resume = plan
                                .checkpoint
                                .and_then(|spec| checkpoint::load_phase3(spec, key, fp));
                            if let Some(s) = &resume {
                                recovery.resumed_from_row =
                                    recovery.resumed_from_row.max(s.progress.rows_done);
                            }
                            let mut written = 0u64;
                            let result = verify_candidates_resumable(
                                scan,
                                &candidates,
                                resume.map(|s| s.progress),
                                plan.checkpoint.map_or(u64::MAX, |spec| spec.every_rows),
                                &mut |p| {
                                    if let Some(spec) = plan.checkpoint {
                                        checkpoint::save_phase3(spec, key, fp, p)?;
                                        written += 1;
                                    }
                                    Ok(())
                                },
                                plan.cancel,
                            )?;
                            recovery.checkpoints_written += written;
                            result
                        }
                    };
                    if let Some(dir) = spill_dir {
                        sharding.spill_bytes += spill::save_group_result(
                            dir, key, group_idx, fp, &result.0, &result.1, result.2,
                        )?;
                    }
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

        match &rows {
            Rows::Stream(scan) => {
                let passes = scan.pass_scans();
                metrics.signature_pass = passes.first().copied().unwrap_or_default().into();
                for p in passes.iter().skip(1) {
                    metrics.verify_pass.rows_scanned += p.rows;
                    metrics.verify_pass.nonzeros_scanned += p.nonzeros;
                }
            }
            // A resident table is scanned whole by every pass it feeds.
            Rows::Resident(matrix) => {
                let scans = |n: u64| PassMetrics {
                    rows_scanned: u64::from(matrix.n_rows()) * n,
                    nonzeros_scanned: matrix.nnz() as u64 * n,
                };
                metrics.signature_pass = scans(u64::from(!cache_hit));
                metrics.verify_pass = scans(verify_passes);
            }
        }
        metrics.verification = self.verification_metrics(&verified, probes);
        metrics.recovery = recovery;
        metrics.sharding = plan.budget.map(|b| ShardingMetrics {
            memory_budget: b.bytes as u64,
            shards: u64::from(width),
            verify_groups: groups.len() as u64,
            ..sharding
        });
        if let Some(dir) = spill_dir {
            spill::clear(dir)?;
            durable::remove_manifest(dir)?;
        }
        if let Some(spec) = plan.checkpoint {
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

/// Where [`Pipeline::execute`] reads the table from.
pub enum Source<'a> {
    /// A row stream: phase 1 and every verification pass scan it in order,
    /// so the table never has to fit in memory.
    Stream(&'a mut dyn RowStream),
    /// A resident table: phase 1 sketches it on the plan's pool and phase
    /// 3 verifies against its column-major transpose.
    Resident(&'a RowMajorMatrix),
}

impl Source<'_> {
    /// `(rows, columns)` of the table.
    fn dims(&self) -> (u32, u32) {
        match self {
            Self::Stream(stream) => (stream.n_rows(), stream.n_cols()),
            Self::Resident(matrix) => (matrix.n_rows(), matrix.n_cols()),
        }
    }
}

/// How [`Pipeline::execute`] runs. No field changes the output; each only
/// trades memory, durability or parallelism.
#[derive(Clone, Copy)]
pub struct ExecPlan<'a> {
    /// Workers for every pool-parallel step: resident phase 1, phase-2
    /// counting and resident verification. A budget-capped count runs on
    /// one worker whatever the pool size.
    pub pool: &'a ThreadPool,
    /// Caps pair-space state: phase 2 runs as spilled shard passes and
    /// phase 3 as one pass per verify group.
    pub budget: Option<&'a MemoryBudget>,
    /// Makes a streamed run resumable: both streaming passes checkpoint
    /// their row frontier into `spec.dir`, and a rerun continues from it.
    /// Checkpoints are tied to the exact `(configuration, table)` pair;
    /// stale state is never resumed into. A resident source has no row
    /// frontier, so its directory is only swept and cleared.
    pub checkpoint: Option<&'a CheckpointSpec>,
    /// Cooperative cancellation, polled at every phase, shard and
    /// verify-group boundary and after every streamed row.
    pub cancel: &'a CancelToken,
}

impl<'a> ExecPlan<'a> {
    /// A plan on `pool` polling `cancel`, with no budget and no checkpoint.
    #[must_use]
    pub const fn new(pool: &'a ThreadPool, cancel: &'a CancelToken) -> Self {
        Self {
            pool,
            budget: None,
            checkpoint: None,
            cancel,
        }
    }
}

/// The table as the driver holds it: a stream behind a scan counter (for
/// the pass metrics), or resident.
enum Rows<'a> {
    Stream(ScanCounter<&'a mut dyn RowStream>),
    Resident(&'a RowMajorMatrix),
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

    /// Runs `pipeline` over `stream` on one worker, checkpointing into
    /// `spec`.
    fn run_resumable(
        pipeline: Pipeline,
        stream: &mut impl RowStream,
        spec: &CheckpointSpec,
    ) -> Result<MiningResult> {
        let (pool, cancel) = (ThreadPool::new(1), CancelToken::default());
        let plan = ExecPlan {
            checkpoint: Some(spec),
            ..ExecPlan::new(&pool, &cancel)
        };
        pipeline.execute(Source::Stream(stream), &plan)
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
            let resumable =
                run_resumable(Pipeline::new(cfg), &mut MemoryRowStream::new(&m), &spec).unwrap();
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
            run_resumable(Pipeline::new(cfg), &mut stream, &spec).unwrap_err();
            assert!(spec.dir.join("phase1.sfcp").exists());

            // The rerun fast-forwards to row 32: it reads 70 − 32 = 38 rows
            // in the signature pass plus the full 70-row verify pass.
            let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
            let resumed = run_resumable(Pipeline::new(cfg), &mut counter, &spec).unwrap();
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
        run_resumable(Pipeline::new(cfg), &mut attempt, &spec).unwrap_err();
        assert!(
            spec.dir.join("phase3.sfcp").exists(),
            "the crash must leave a phase-3 frontier checkpoint"
        );

        // Final attempt on a clean stream: phase 1 resumes from its
        // completed checkpoint (0 signature rows re-read), phase 3 from
        // the row-32 frontier (70 − 32 = 38 rows re-read).
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let resumed = run_resumable(Pipeline::new(cfg), &mut counter, &spec).unwrap();
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
        run_resumable(Pipeline::new(cfg_a), &mut stream, &spec).unwrap_err();

        // A different seed must not resume from cfg_a's checkpoint.
        let cfg_b = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.8, 12);
        let mut counter = sfa_matrix::stream::PassCounter::new(MemoryRowStream::new(&m));
        let result = run_resumable(Pipeline::new(cfg_b), &mut counter, &spec).unwrap();
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

    #[test]
    fn run_pool_reports_no_signature_pass_on_a_cache_hit() {
        let m = matrix();
        let cache = spill_dir("pool-cache");
        let cfg = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.8, 17);
        let pipeline = Pipeline::new(cfg).with_signature_cache(&cache);
        let pool = ThreadPool::new(2);
        let miss = pipeline.run_pool(&m, &pool);
        let hit = pipeline.run_pool(&m, &pool);
        assert!(!miss.metrics.phase1.as_ref().unwrap().cache_hit);
        assert_eq!(
            miss.metrics.signature_pass.rows_scanned,
            u64::from(m.n_rows())
        );
        assert!(hit.metrics.phase1.as_ref().unwrap().cache_hit);
        assert_eq!(hit.metrics.signature_pass, PassMetrics::default());
        assert_eq!(hit.metrics.verify_pass, miss.metrics.verify_pass);
        assert_eq!(hit.verified, miss.verified);
        let _ = std::fs::remove_dir_all(&cache);
    }

    #[test]
    fn resident_runs_obey_cancellation() {
        let m = dense_matrix();
        let cfg = PipelineConfig::new(Scheme::Mh { k: 32, delta: 0.2 }, 0.5, 11);
        let d = spill_dir("resident-cancel");
        let budget = MemoryBudget::new(MemoryBudget::MIN_BYTES, &d);
        let (pool, cancel) = (ThreadPool::new(2), CancelToken::new());
        cancel.cancel();
        for budget in [None, Some(&budget)] {
            let plan = ExecPlan {
                budget,
                ..ExecPlan::new(&pool, &cancel)
            };
            let err = Pipeline::new(cfg)
                .execute(Source::Resident(&m), &plan)
                .unwrap_err();
            assert!(err.is_canceled(), "{err}");
        }
        let _ = std::fs::remove_dir_all(&d);
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
