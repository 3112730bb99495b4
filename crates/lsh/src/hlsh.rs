//! H-LSH: Hamming LSH over a density-doubling ladder (§4.2).
//!
//! Direct row-sampling LSH fails on sparse data ("if the matrix is sparse,
//! most of the subsets just contain zeros"), so H-LSH works on a *sequence*
//! of matrices `M_0, M_1, M_2, …` where `M_{i+1}` ORs random row pairs of
//! `M_i` — halving rows and roughly doubling column densities. At each
//! level, only columns whose density lies in `(1/t, (t−1)/t)` participate
//! (the paper uses `t = 4`), and each of `l` runs samples `r` rows and
//! buckets columns by their `r`-bit patterns. A pair is a candidate if it
//! shares a bucket in any run at any level.

use sfa_hash::bucket::{
    count_pairs, pack_pair, FastHashMap, FastHashSet, PairCounts, PairShard, ShardPassOutcome,
    TaskPlan,
};
use sfa_hash::SeedSequence;
use sfa_matrix::ops::or_fold_random;
use sfa_matrix::RowMajorMatrix;
use sfa_minhash::{CandidateGenStats, CandidatePair};
use sfa_par::ThreadPool;

/// H-LSH parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HLshParams {
    /// Rows sampled per run (the pattern width; ≤ 64).
    pub r: usize,
    /// Runs per ladder level (the paper's `k` repetitions; we call it `l`
    /// to match the Fig. 7 axis).
    pub l: usize,
    /// Density gate: a column participates at a level only if its density
    /// there lies strictly inside `(1/t, (t−1)/t)`. The paper uses `t = 4`.
    pub t: u32,
    /// Maximum number of ladder levels (level 0 is the input matrix).
    pub max_levels: usize,
    /// Whether all-zero sampled patterns form a bucket. The paper leaves
    /// this open; `false` (default) avoids a flood of false positives from
    /// columns invisible in the sample. Kept as an ablation knob.
    pub include_zero_keys: bool,
    /// Root seed for ladder pairings and row sampling.
    pub seed: u64,
}

impl HLshParams {
    /// The paper's configuration shape: gate `t = 4`, zero keys off.
    #[must_use]
    pub const fn new(r: usize, l: usize, seed: u64) -> Self {
        Self {
            r,
            l,
            t: 4,
            max_levels: 24,
            include_zero_keys: false,
            seed,
        }
    }
}

/// The density ladder `M_0, M_1, …`.
///
/// Folding stops when rows run out (`n_rows < 2`) or `max_levels` is
/// reached. Level 0 is a borrowed view of the input; folded levels are
/// owned.
#[derive(Debug)]
pub struct DensityLadder<'a> {
    base: &'a RowMajorMatrix,
    folded: Vec<RowMajorMatrix>,
}

impl<'a> DensityLadder<'a> {
    /// Builds the ladder with seeded random pairings.
    #[must_use]
    pub fn build(base: &'a RowMajorMatrix, max_levels: usize, seed: u64) -> Self {
        let mut seq = SeedSequence::new(seed);
        let mut folded = Vec::new();
        let mut current = base;
        while folded.len() + 1 < max_levels && current.n_rows() >= 2 {
            let next = or_fold_random(current, seq.next_seed());
            folded.push(next);
            current = folded.last().expect("just pushed");
        }
        Self { base, folded }
    }

    /// Number of levels (including level 0).
    #[must_use]
    pub fn n_levels(&self) -> usize {
        1 + self.folded.len()
    }

    /// The matrix at `level` (0 = input).
    ///
    /// # Panics
    ///
    /// Panics if `level >= n_levels()`.
    #[must_use]
    pub fn level(&self, level: usize) -> &RowMajorMatrix {
        if level == 0 {
            self.base
        } else {
            &self.folded[level - 1]
        }
    }
}

/// Samples `r` distinct row ids from `0..n` (partial Fisher–Yates).
fn sample_distinct_rows(n: u32, r: usize, seq: &mut SeedSequence) -> Vec<u32> {
    let r = r.min(n as usize);
    let mut pool: Vec<u32> = (0..n).collect();
    for i in 0..r {
        let j = i + (seq.next_seed() % (n as usize - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(r);
    pool
}

/// A ladder level's prepared work: which columns pass the density gate
/// and the `l` seeded row samples for its runs (none when no column
/// passes, so no seeds are consumed there).
#[derive(Debug)]
pub(crate) struct LevelPlan {
    pub(crate) level: usize,
    pub(crate) gated: Vec<bool>,
    pub(crate) gated_columns: usize,
    pub(crate) runs: Vec<Vec<u32>>,
}

/// The ladder and its level plans: the one place H-LSH's gate and
/// row-sampling stream are written. Levels stop once they have fewer
/// rows than the pattern width.
///
/// # Panics
///
/// Panics unless `1 <= r <= 64` and `t >= 3`.
pub(crate) fn level_plans<'a>(
    base: &'a RowMajorMatrix,
    params: &HLshParams,
) -> (DensityLadder<'a>, Vec<LevelPlan>) {
    assert!(
        params.r >= 1 && params.r <= 64,
        "pattern width must be 1..=64"
    );
    assert!(params.t >= 3, "density gate needs t >= 3");
    let ladder = DensityLadder::build(base, params.max_levels, params.seed);
    let mut seq = SeedSequence::new(params.seed ^ 0x5f5f_5f5f);
    let lo_gate = 1.0 / f64::from(params.t);
    let hi_gate = f64::from(params.t - 1) / f64::from(params.t);
    let mut plans = Vec::new();
    for level in 0..ladder.n_levels() {
        let matrix = ladder.level(level);
        let n = matrix.n_rows();
        if (n as usize) < params.r {
            break;
        }
        // A column participates only inside the density gate.
        let gated: Vec<bool> = matrix
            .column_counts()
            .iter()
            .map(|&c| {
                let d = f64::from(c) / f64::from(n);
                d > lo_gate && d < hi_gate
            })
            .collect();
        let gated_columns = gated.iter().filter(|&&g| g).count();
        let runs = if gated_columns == 0 {
            Vec::new()
        } else {
            (0..params.l)
                .map(|_| sample_distinct_rows(n, params.r, &mut seq))
                .collect()
        };
        plans.push(LevelPlan {
            level,
            gated,
            gated_columns,
            runs,
        });
    }
    (ladder, plans)
}

/// Fills `buf` with one run's `(pattern, column)` entries, unsorted: each
/// gated column's bits over the sampled `rows`, plus (with
/// `include_zero_keys`) the all-zero pattern for gated columns absent
/// from every sampled row.
fn run_entries(
    matrix: &RowMajorMatrix,
    plan: &LevelPlan,
    rows: &[u32],
    include_zero_keys: bool,
    buf: &mut Vec<(u64, u32)>,
) {
    // Sparse pattern assembly: only columns present in a sampled row get
    // bits.
    let mut patterns: FastHashMap<u32, u64> = FastHashMap::default();
    for (bit, &row) in rows.iter().enumerate() {
        for &col in matrix.row(row) {
            if plan.gated[col as usize] {
                *patterns.entry(col).or_insert(0) |= 1u64 << bit;
            }
        }
    }
    buf.clear();
    buf.extend(patterns.iter().map(|(&col, &bits)| (bits, col)));
    if include_zero_keys {
        for (col, &g) in plan.gated.iter().enumerate() {
            if g && !patterns.contains_key(&(col as u32)) {
                buf.push((0, col as u32));
            }
        }
    }
}

/// Per-pair collision counts across all levels and runs, for the pairs in
/// `shard` under `cap_bytes`, with every run's pattern-bucket occupancy
/// in the histogram. The ladder and the seeded sampling stream are built
/// sequentially; the independent (level, run) bucket scans are dealt out
/// dynamically over `pool`.
///
/// # Panics
///
/// Panics unless `1 <= r <= 64` and `t >= 3`.
#[must_use]
pub fn hlsh_collision_counts(
    base: &RowMajorMatrix,
    params: &HLshParams,
    shard: PairShard,
    cap_bytes: usize,
    pool: &ThreadPool,
) -> PairCounts {
    let (ladder, plans) = level_plans(base, params);
    let tasks: Vec<(&LevelPlan, &[u32])> = plans
        .iter()
        .flat_map(|plan| plan.runs.iter().map(move |rows| (plan, rows.as_slice())))
        .collect();
    let task_plan = TaskPlan {
        tasks: tasks.len(),
        chunk: 1,
        scan_ops: (tasks.len() as u64).saturating_mul(u64::from(base.n_cols())),
        min_hist_run: 1,
    };
    count_pairs(pool, shard, cap_bytes, task_plan, |t, local| {
        let (plan, rows) = tasks[t];
        let matrix = ladder.level(plan.level);
        run_entries(matrix, plan, rows, params.include_zero_keys, &mut local.buf);
        local.count_buf();
    })
}

/// H-LSH candidate generation: pairs colliding at least once, with
/// `estimate = collisions / (levels·runs)` as a crude score, the
/// `colliding-pairs` / `emitted` counters and the aggregated occupancy
/// histogram over every run at every ladder level. The ladder, gates and
/// samples are independent of the pair filter, so the union over a full
/// [`PairShard`] partition is exactly the unsharded candidate set; on
/// overflow the pass aborts with no candidates and `overflowed` set.
///
/// # Panics
///
/// Panics on the same parameter violations as [`hlsh_collision_counts`].
#[must_use]
pub fn hlsh_candidates(
    base: &RowMajorMatrix,
    params: &HLshParams,
    shard: PairShard,
    cap_bytes: usize,
    pool: &ThreadPool,
) -> (Vec<CandidatePair>, CandidateGenStats, ShardPassOutcome) {
    let counts = hlsh_collision_counts(base, params, shard, cap_bytes, pool);
    crate::mlsh::collision_candidates(counts, (params.max_levels * params.l) as f64)
}

/// Per-level diagnostics of an H-LSH run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HlshLevelStats {
    /// Ladder level (0 = input matrix).
    pub level: usize,
    /// Rows at this level.
    pub n_rows: u32,
    /// Columns inside the density gate `(1/t, (t−1)/t)`.
    pub gated_columns: usize,
    /// Distinct candidate pairs first discovered at this level.
    pub new_pairs: usize,
}

/// Runs H-LSH while recording where in the ladder each column becomes
/// active and each pair is first found — the introspection behind the
/// "a pair can become a candidate only on a matrix `M_i` in which they are
/// both sufficiently dense" analysis of §4.2. It walks the generator's own
/// level plans, so it sees exactly the runs [`hlsh_candidates`] counts.
///
/// # Panics
///
/// Panics on the same parameter violations as [`hlsh_collision_counts`].
#[must_use]
pub fn hlsh_trace(base: &RowMajorMatrix, params: &HLshParams) -> Vec<HlshLevelStats> {
    let (ladder, plans) = level_plans(base, params);
    let mut seen: FastHashSet<u64> = FastHashSet::default();
    let mut buf = Vec::new();
    plans
        .iter()
        .map(|plan| {
            let matrix = ladder.level(plan.level);
            let mut new_pairs = 0usize;
            for rows in &plan.runs {
                run_entries(matrix, plan, rows, params.include_zero_keys, &mut buf);
                buf.sort_unstable();
                for bucket in buf.chunk_by(|a, b| a.0 == b.0) {
                    for (a, &(_, ci)) in bucket.iter().enumerate() {
                        for &(_, cj) in &bucket[a + 1..] {
                            if seen.insert(pack_pair(ci, cj)) {
                                new_pairs += 1;
                            }
                        }
                    }
                }
            }
            HlshLevelStats {
                level: plan.level,
                n_rows: matrix.n_rows(),
                gated_columns: plan.gated_columns,
                new_pairs,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates(m: &RowMajorMatrix, params: &HLshParams) -> Vec<CandidatePair> {
        let pool = ThreadPool::new(1);
        hlsh_candidates(m, params, PairShard::all(), usize::MAX, &pool).0
    }

    /// 256 rows; columns 0, 1 identical (dense enough to gate at level 0
    /// or 1); columns 2, 3 dissimilar; column 4 ultra-sparse.
    fn matrix() -> RowMajorMatrix {
        let mut rows = Vec::new();
        for i in 0..256u32 {
            let mut r = Vec::new();
            if i % 3 == 0 {
                r.push(0);
                r.push(1);
            }
            if i % 4 == 0 {
                r.push(2);
            }
            if i % 4 == 2 {
                r.push(3);
            }
            if i == 7 {
                r.push(4);
            }
            rows.push(r);
        }
        RowMajorMatrix::from_rows(5, rows).unwrap()
    }

    #[test]
    fn ladder_halves_rows() {
        let m = matrix();
        let ladder = DensityLadder::build(&m, 5, 3);
        assert_eq!(ladder.n_levels(), 5);
        assert_eq!(ladder.level(0).n_rows(), 256);
        assert_eq!(ladder.level(1).n_rows(), 128);
        assert_eq!(ladder.level(4).n_rows(), 16);
    }

    #[test]
    fn ladder_densities_increase() {
        let m = matrix();
        let ladder = DensityLadder::build(&m, 4, 3);
        let d = |lvl: usize, col: u32| {
            let mat = ladder.level(lvl);
            mat.column_counts()[col as usize] as f64 / f64::from(mat.n_rows())
        };
        for col in 0..4 {
            assert!(
                d(3, col) >= d(0, col),
                "column {col}: density did not increase"
            );
        }
    }

    #[test]
    fn ladder_stops_at_tiny_matrices() {
        let m = RowMajorMatrix::from_rows(1, vec![vec![0], vec![0]]).unwrap();
        let ladder = DensityLadder::build(&m, 50, 1);
        assert!(ladder.n_levels() <= 2, "folded a 1-row matrix");
    }

    #[test]
    fn identical_columns_are_found() {
        let m = matrix();
        let params = HLshParams::new(8, 6, 5);
        let cands = candidates(&m, &params);
        assert!(
            cands.iter().any(|c| c.ids() == (0, 1)),
            "identical pair not found: {cands:?}"
        );
    }

    #[test]
    fn disjoint_columns_rarely_collide() {
        let m = matrix();
        let params = HLshParams::new(12, 4, 5);
        let cands = candidates(&m, &params);
        // Columns 2 and 3 are disjoint (density each 1/4): any collision
        // would need identical 12-bit patterns, overwhelmingly unlikely.
        assert!(
            !cands.iter().any(|c| c.ids() == (2, 3)),
            "disjoint pair collided: {cands:?}"
        );
    }

    #[test]
    fn density_gate_excludes_levels() {
        // With t = 4, a column only participates where its density is in
        // (0.25, 0.75). An ultra-sparse column never qualifies before the
        // ladder runs out of levels at max_levels = 2.
        let m = matrix();
        let params = HLshParams {
            r: 8,
            l: 4,
            t: 4,
            max_levels: 2,
            include_zero_keys: true,
            seed: 9,
        };
        let cands = candidates(&m, &params);
        assert!(
            cands.iter().all(|c| c.i != 4 && c.j != 4),
            "sparse column should be gated out: {cands:?}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let m = matrix();
        let params = HLshParams::new(8, 6, 77);
        assert_eq!(candidates(&m, &params), candidates(&m, &params));
    }

    #[test]
    fn stats_count_emitted_pairs_and_buckets() {
        let m = matrix();
        let params = HLshParams::new(8, 6, 5);
        let pool = ThreadPool::new(1);
        let (cands, stats, _) = hlsh_candidates(&m, &params, PairShard::all(), usize::MAX, &pool);
        assert_eq!(stats.stage("emitted"), Some(cands.len() as u64));
        assert!(stats.bucket_histogram.iter().sum::<u64>() > 0);
    }

    #[test]
    fn zero_key_knob_only_adds_candidates() {
        let m = matrix();
        let off = HLshParams::new(8, 6, 13);
        let on = HLshParams {
            include_zero_keys: true,
            ..off
        };
        let c_off: std::collections::HashSet<(u32, u32)> = candidates(&m, &off)
            .iter()
            .map(CandidatePair::ids)
            .collect();
        let c_on: std::collections::HashSet<(u32, u32)> =
            candidates(&m, &on).iter().map(CandidatePair::ids).collect();
        assert!(c_off.is_subset(&c_on));
    }

    #[test]
    fn trace_levels_match_ladder() {
        let m = matrix();
        let params = HLshParams::new(8, 4, 5);
        let trace = hlsh_trace(&m, &params);
        assert!(!trace.is_empty());
        // Levels halve in rows.
        for w in trace.windows(2) {
            assert_eq!(w[1].n_rows, w[0].n_rows.div_ceil(2));
            assert_eq!(w[1].level, w[0].level + 1);
        }
    }

    #[test]
    fn trace_total_pairs_cover_candidates() {
        let m = matrix();
        let params = HLshParams::new(8, 6, 5);
        let trace = hlsh_trace(&m, &params);
        let total: usize = trace.iter().map(|s| s.new_pairs).sum();
        let candidates = candidates(&m, &params);
        assert_eq!(total, candidates.len(), "trace must account for every pair");
    }

    #[test]
    fn trace_shows_sparse_columns_gating_in_later() {
        // The ultra-sparse column 4 only passes the gate at deep levels, if
        // at all; the dense columns gate in early.
        let m = matrix();
        let params = HLshParams::new(8, 4, 7);
        let trace = hlsh_trace(&m, &params);
        let early = trace.first().unwrap();
        // Columns 0,1 (density 1/3) and 2,3 (1/4 boundary — excluded at
        // t = 4) give at least two gated columns at level 0.
        assert!(early.gated_columns >= 2, "{early:?}");
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn rejects_oversized_patterns() {
        let m = matrix();
        let _ = candidates(&m, &HLshParams::new(65, 2, 1));
    }
}
