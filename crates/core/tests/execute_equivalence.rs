//! One cross-product property over [`Pipeline::execute`]: for every
//! scheme, the plan (source kind, worker count, memory budget, checkpoint
//! state, signature-cache state) never changes the output.
//!
//! Each case mines a small table with one planted identical column pair,
//! first with the plain [`Pipeline::run`], then under a drawn plan, and
//! checks that the drawn run reports the same verified pairs and column
//! counts, the same per-stage candidate counts and bucket histogram (the
//! work counters summed over shard passes under a budget), exact
//! similarities that match [`exact_similar_pairs`], and every pair with
//! similarity 1. A checkpointed case may first be canceled by an expired
//! deadline and then rerun from what that attempt left behind.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use sfa_core::{
    CancelToken, CheckpointSpec, ExecPlan, MemoryBudget, MiningResult, Pipeline, PipelineConfig,
    Scheme, Source,
};
use sfa_matrix::stats::exact_similar_pairs;
use sfa_matrix::{MemoryRowStream, RowMajorMatrix};
use sfa_par::ThreadPool;

/// Columns of every drawn table; columns 0 and 1 are the planted
/// identical pair.
const N_COLS: u32 = 12;

fn scheme(index: usize, sampled: bool) -> Scheme {
    match index {
        0 => Scheme::Mh { k: 32, delta: 0.2 },
        1 => Scheme::MhRowSort { k: 32, delta: 0.2 },
        2 => Scheme::Kmh { k: 12, delta: 0.2 },
        3 => Scheme::MLsh {
            k: 24,
            r: 2,
            l: 12,
            sampled,
        },
        _ => Scheme::HLsh {
            r: 2,
            l: 8,
            t: 4,
            max_levels: 12,
        },
    }
}

/// A table whose columns 0 and 1 both hold every row `i` with
/// `i % 5 ∈ {0, 2}` (similarity 1 at density 0.4, which every scheme's
/// candidate rule admits); the other columns are drawn.
fn planted_matrix(drawn: Vec<std::collections::BTreeSet<u32>>) -> RowMajorMatrix {
    let rows = drawn
        .into_iter()
        .enumerate()
        .map(|(i, cols)| {
            let planted = [0, 2].contains(&(i % 5));
            let mut row: Vec<u32> = if planted { vec![0, 1] } else { Vec::new() };
            row.extend(cols);
            row
        })
        .collect();
    RowMajorMatrix::from_rows(N_COLS, rows).unwrap()
}

/// A fresh directory for one case's spill, checkpoint and cache state.
fn case_dir() -> PathBuf {
    static CASES: AtomicU64 = AtomicU64::new(0);
    let case = CASES.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "sfa-execute-equivalence-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn state_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir).map_or_else(
        |_| Vec::new(),
        |entries| {
            entries
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".sfsp") || n.ends_with(".sfcp"))
                .collect()
        },
    )
}

/// The drawn plan point.
struct PlanPoint {
    resident: bool,
    threads: usize,
    budgeted: bool,
    /// 0 = none, 1 = a fresh directory, 2 = the directory a canceled
    /// attempt left behind.
    checkpoint: u8,
    /// 0 = none, 1 = cold, 2 = warm.
    cache: u8,
}

fn execute(
    pipeline: &Pipeline,
    m: &RowMajorMatrix,
    point: &PlanPoint,
    dir: &Path,
    cancel: &CancelToken,
) -> sfa_matrix::Result<MiningResult> {
    let pool = ThreadPool::new(point.threads);
    let spec = CheckpointSpec::new(dir.join("ckpt")).with_every_rows(8);
    // Like the CLI: a checkpointed run spills into its checkpoint dir.
    let spill = if point.checkpoint > 0 {
        spec.dir.clone()
    } else {
        dir.join("spill")
    };
    let budget = MemoryBudget::new(MemoryBudget::MIN_BYTES, spill);
    let plan = ExecPlan {
        budget: point.budgeted.then_some(&budget),
        checkpoint: (point.checkpoint > 0).then_some(&spec),
        ..ExecPlan::new(&pool, cancel)
    };
    let mut stream = MemoryRowStream::new(m);
    let source = if point.resident {
        Source::Resident(m)
    } else {
        Source::Stream(&mut stream)
    };
    pipeline.execute(source, &plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_plan_reproduces_the_plain_run(
        scheme_index in 0usize..5,
        sampled in any::<bool>(),
        drawn in prop::collection::vec(prop::collection::btree_set(2..N_COLS, 0..=4), 24..48),
        s_star in 0.5f64..0.85,
        seed in any::<u64>(),
        resident in any::<bool>(),
        three_threads in any::<bool>(),
        budgeted in any::<bool>(),
        checkpoint in 0u8..3,
        cache in 0u8..3,
    ) {
        let m = planted_matrix(drawn);
        let scheme = scheme(scheme_index, sampled);
        let config = PipelineConfig::new(scheme, s_star, seed);
        let plain = Pipeline::new(config).run(&mut MemoryRowStream::new(&m)).unwrap();
        let point = PlanPoint {
            resident,
            threads: if three_threads { 3 } else { 1 },
            budgeted,
            checkpoint,
            cache,
        };
        let dir = case_dir();
        let mut pipeline = Pipeline::new(config);
        if point.cache > 0 {
            pipeline = pipeline.with_signature_cache(dir.join("cache"));
        }
        if point.cache == 2 {
            pipeline.run(&mut MemoryRowStream::new(&m)).unwrap();
        }
        let at = format!("{} at s*={s_star}, seed {seed}, resident {resident}, \
            {} threads, budget {budgeted}, checkpoint {checkpoint}, cache {cache}",
            scheme.name(), point.threads);
        if point.checkpoint == 2 {
            let expired = CancelToken::new().with_deadline(Duration::ZERO);
            let err = execute(&pipeline, &m, &point, &dir, &expired).unwrap_err();
            prop_assert!(err.is_canceled(), "{at}: {err}");
        }
        let result = execute(&pipeline, &m, &point, &dir, &CancelToken::new()).unwrap();

        prop_assert_eq!(&result.verified, &plain.verified, "{}", at);
        prop_assert_eq!(&result.column_counts, &plain.column_counts, "{}", at);
        // Every shard pass walks every bucket, so the work counters sum
        // over the partition; the per-pair stages partition exactly.
        let shards = result.metrics.sharding.map_or(1, |s| s.shards);
        let plain_stages: Vec<_> = plain
            .metrics
            .candidate_stages
            .iter()
            .map(|s| {
                let per_pass = s.stage == "counter-increments";
                (s.stage.clone(), if per_pass { s.count * shards } else { s.count })
            })
            .collect();
        let stages: Vec<_> = result
            .metrics
            .candidate_stages
            .iter()
            .map(|s| (s.stage.clone(), s.count))
            .collect();
        prop_assert_eq!(stages, plain_stages, "{}", at);
        let histogram: Vec<u64> =
            plain.metrics.bucket_histogram.iter().map(|&b| b * shards).collect();
        prop_assert_eq!(&result.metrics.bucket_histogram, &histogram, "{}", at);
        if budgeted && plain.metrics.candidate_stages.iter().any(|s| {
            ["pairs-agreeing", "pairs-overlapping", "colliding-pairs"].contains(&s.stage.as_str())
                && s.count > 12
        }) {
            // More distinct pairs than one minimum-size counter table holds.
            prop_assert!(shards >= 2, "{}: {} shards", at, shards);
        }
        if point.cache > 0 && !matches!(scheme, Scheme::HLsh { .. }) {
            let phase1 = result.metrics.phase1.as_ref().unwrap();
            prop_assert_eq!(phase1.cache_hit, point.cache == 2, "{}", at);
        }

        let exact = exact_similar_pairs(&m.transpose(), s_star);
        let found = result.similar_pairs();
        for p in &found {
            let truth = exact.iter().find(|e| (e.i, e.j) == (p.i, p.j));
            prop_assert!(
                truth.is_some_and(|e| (e.similarity - p.similarity).abs() < 1e-12),
                "{}: ({}, {}) at {} is not an exact pair",
                at,
                p.i,
                p.j,
                p.similarity
            );
        }
        for e in exact.iter().filter(|e| e.similarity == 1.0) {
            prop_assert!(
                found.iter().any(|p| (p.i, p.j) == (e.i, e.j)),
                "{}: missed identical pair ({}, {})",
                at,
                e.i,
                e.j
            );
        }
        for state in [dir.join("ckpt"), dir.join("spill")] {
            let left = state_files(&state);
            prop_assert!(left.is_empty(), "{}: left {:?}", at, left);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
