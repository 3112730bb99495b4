//! The two mine workloads: `wide` and `dense`.
//!
//! A run generates the workload's table and writes it as `.sfab`, mines
//! it once to warm up, then mines it again and again for the timed
//! window, each mine a complete `sfa mine`: open the table, run the three
//! phases, hold the verified pairs. Every mine is checked. A traced run
//! then repeats the mine with a span around each call into a layer and
//! must reproduce the untraced result byte for byte; `wide`'s traced run
//! also mines its table once as `sfa mine --memory-budget` does, for the
//! sharding layer.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use sfa_core::{MemoryBudget, MiningResult, Pipeline, PipelineConfig, Scheme, VerifiedPair};
use sfa_lsh::{mlsh_candidates_with_stats, MLshParams};
use sfa_matrix::{io, FileRowStream, SparseMatrix};
use sfa_minhash::hashcount::mh_candidates_with_stats_pool;
use sfa_minhash::{compute_signatures, compute_signatures_pool};
use sfa_par::ThreadPool;

use crate::inputs::{
    intersection, write_table, Workload, BUDGET_BYTES, MINE_S_STAR, SHARDED_SCHEME,
};
use crate::report::{median, peak_rss_mb, reset_peak_rss, retain_heap, tail, trim_heap, Outcome};
use crate::trace::{TimedStream, Trace};
use crate::{Run, Values, SETUP_REPS};

/// Fewest mines a timed window holds, however long each takes.
const MIN_MINES: usize = 3;

/// Checked but untimed mines before the window, which fill the heap and
/// the page cache the timed mines then reuse.
const WARM_UP_MINES: usize = 1;

/// Traced mines per traced run.
const TRACED_MINES: usize = 3;

/// Seed-derivation labels the pipeline uses for its hash families
/// (`sfa_core::pipeline`'s private `purpose` constants). The traced
/// path must derive the same seeds; the byte-for-byte comparison with
/// the untraced result catches any drift.
const SIGNATURES_PURPOSE: u64 = 1;
const LSH_PURPOSE: u64 = 2;

/// The generated table and what the checks need from it.
struct Table {
    path: std::path::PathBuf,
    columns: SparseMatrix,
    truth: Vec<(u32, u32)>,
}

/// Runs a mine workload and returns its outcome.
///
/// # Errors
///
/// Set-up failures: the table could not be generated or written.
pub fn run(run: &Run, work: &Path) -> sfa_matrix::Result<Outcome> {
    retain_heap();
    let w = run.workload;
    let path = work.join("table.sfab");
    let spill = work.join("spill");
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut table = None;
    for _ in 0..SETUP_REPS {
        drop(table.take());
        let t = Instant::now();
        let (columns, truth) = write_table(w, run.seed, &path)?;
        setup.push(t.elapsed().as_secs_f64());
        table = Some(Table {
            path: path.clone(),
            columns,
            truth,
        });
    }
    let table = table.expect("at least one set-up");
    println!(
        "{}: {} rows x {} columns, {} nonzeros, {} true pairs at s* = {MINE_S_STAR}",
        w.name(),
        table.columns.n_rows(),
        table.columns.n_cols(),
        table.columns.nnz(),
        table.truth.len()
    );

    let mut o = Outcome::default();
    trim_heap();
    reset_peak_rss().map_err(sfa_matrix::MatrixError::from)?;
    let mut window = Instant::now();
    let mut mines = 0;
    let mut samples = Vec::new();
    let mut first: Option<MiningResult> = None;
    while mines < WARM_UP_MINES + MIN_MINES || window.elapsed().as_secs_f64() < run.seconds {
        let t = Instant::now();
        let mined = mine(w, run.seed, &table.path);
        let secs = t.elapsed().as_secs_f64();
        mines += 1;
        if mines == WARM_UP_MINES {
            window = Instant::now();
        }
        match mined {
            Ok(result) => {
                if mines > WARM_UP_MINES {
                    samples.push(secs);
                }
                let mut failures = check_mine(w, &result, &table);
                if let Some(f) = &first {
                    if !same_result(&f.verified, &f.column_counts, &result) {
                        failures.push("pairs differ between repetitions".to_owned());
                    }
                } else {
                    first = Some(result);
                }
                o.check(failures.is_empty(), || failures.join("; "));
            }
            Err(e) => o.check(false, || format!("mine failed: {e}")),
        }
    }
    let busy = window.elapsed().as_secs_f64();
    let peak = peak_rss_mb().map_err(sfa_matrix::MatrixError::from)?;
    let Some(result) = first else {
        return Ok(o);
    };
    println!(
        "{}: {} mines in {busy:.2} s, median {:.4} s, samples {samples:.3?}",
        w.name(),
        samples.len(),
        median(&samples)
    );

    let found: Vec<(u32, u32)> = result.similar_pairs().iter().map(|p| (p.i, p.j)).collect();
    let recall =
        table.truth.iter().filter(|t| found.contains(t)).count() as f64 / table.truth.len() as f64;
    let mine_s = median(&samples);
    if run.trace {
        let layers = traced(run, &table, &spill, &result, mine_s, &mut o);
        o.metrics = layers.into_metrics();
    } else {
        let mut m = Values::end_to_end();
        m.set("setup_s", median(&setup));
        m.set("mine_s", mine_s);
        m.set("recall", recall);
        m.set("peak_rss_mb", peak);
        m.set("ok_rate", o.ok_rate());
        // A batch user's only request is the mine itself, and its result
        // becomes visible when the mine ends.
        m.set("request_p50_us", mine_s * 1e6);
        m.set("visible_p50_ms", mine_s * 1e3);
        m.set("visible_p90_ms", tail(&samples, 0.90) * 1e3);
        m.set("throughput_per_s", 1.0 / mine_s);
        o.metrics = m.into_metrics();
    }
    Ok(o)
}

/// One complete mine, as `sfa mine` runs it for this workload.
fn mine(w: Workload, seed: u64, path: &Path) -> sfa_matrix::Result<MiningResult> {
    let pipeline = Pipeline::new(PipelineConfig::new(w.scheme(), MINE_S_STAR, seed));
    match w {
        // `sfa mine --threads 0`: read the whole table, mine on a pool
        // sized to the machine.
        Workload::Wide => {
            let matrix = io::read_binary(path)?;
            Ok(pipeline.run_pool(&matrix, &ThreadPool::new(0)))
        }
        // Plain `sfa mine`: the paper's two passes over the file.
        Workload::Dense => pipeline.run(&mut FileRowStream::open(path)?),
        Workload::Serve => unreachable!("serve is not a mine workload"),
    }
}

/// Every check one mine must pass; returns the failures.
fn check_mine(w: Workload, r: &MiningResult, table: &Table) -> Vec<String> {
    let mut failures = Vec::new();
    let v = &r.metrics.verification;
    if v.true_positives + v.false_positives_pruned != v.candidates_checked {
        failures.push(format!(
            "true positives {} + false positives {} != candidates checked {}",
            v.true_positives, v.false_positives_pruned, v.candidates_checked
        ));
    }
    if w == Workload::Dense {
        // The paper's two-pass contract: each pass reads every row once.
        let n = u64::from(table.columns.n_rows());
        let passes = (
            r.metrics.signature_pass.rows_scanned,
            r.metrics.verify_pass.rows_scanned,
        );
        if passes != (n, n) {
            failures.push(format!("passes scanned {passes:?} rows, expected {n} each"));
        }
    }
    for p in r.similar_pairs() {
        if let Some(why) = exact_mismatch(&table.columns, &p) {
            failures.push(why);
        }
    }
    failures
}

/// Re-derives one reported pair's similarity from the columns; `None`
/// when the report is exact and reaches `s*`.
fn exact_mismatch(columns: &SparseMatrix, p: &VerifiedPair) -> Option<String> {
    let (a, b) = (columns.column(p.i), columns.column(p.j));
    let inter = intersection(a, b);
    let union = (a.len() + b.len()) as u32 - inter;
    let exact = f64::from(inter) / f64::from(union);
    let ok = (p.intersection, p.union) == (inter, union)
        && p.similarity.to_bits() == exact.to_bits()
        && exact >= MINE_S_STAR;
    (!ok).then(|| {
        format!(
            "pair ({}, {}) reported {}/{} = {}, exact {inter}/{union} = {exact}",
            p.i, p.j, p.intersection, p.union, p.similarity
        )
    })
}

/// Whether `r` holds exactly these verified pairs and column counts,
/// compared bit for bit.
fn same_result(verified: &[VerifiedPair], counts: &[u32], r: &MiningResult) -> bool {
    let bits = |p: &VerifiedPair| {
        (
            p.i,
            p.j,
            p.intersection,
            p.union,
            p.similarity.to_bits(),
            p.estimate.to_bits(),
        )
    };
    counts == r.column_counts.as_slice()
        && verified.len() == r.verified.len()
        && verified
            .iter()
            .zip(&r.verified)
            .all(|(a, b)| bits(a) == bits(b))
}

/// The traced mines and the per-layer metrics they give.
fn traced(
    run: &Run,
    table: &Table,
    spill: &Path,
    untraced: &MiningResult,
    mine_s: f64,
    o: &mut Outcome,
) -> Values {
    let w = run.workload;
    let mut trace = Trace::new();
    let mut runs: Vec<(f64, BTreeMap<&'static str, f64>)> = Vec::new();
    let mut passes = Vec::new();
    for _ in 0..TRACED_MINES {
        let id = trace.next_run();
        let outer = Instant::now();
        let traced = match w {
            Workload::Wide => traced_pool(&mut trace, run.seed, &table.path),
            Workload::Dense => traced_stream(&mut trace, run.seed, &table.path),
            Workload::Serve => unreachable!("serve is not a mine workload"),
        };
        let outer = outer.elapsed();
        match traced {
            Ok((verified, counts, run_passes)) => {
                o.check(same_result(&verified, &counts, untraced), || {
                    "traced pairs differ from the untraced mine".to_owned()
                });
                passes = run_passes;
            }
            Err(e) => o.check(false, || format!("traced mine failed: {e}")),
        }
        let wall = trace
            .spans()
            .iter()
            .find(|s| s.run == id && s.parent.is_none())
            .map_or(0.0, |s| s.busy.as_secs_f64());
        for problem in trace.check_run(id, outer) {
            o.check(false, || format!("traced mine {id}: {problem}"));
        }
        runs.push((wall, trace.self_seconds(id)));
    }
    let mut l = Values::per_layer();
    if w == Workload::Wide {
        sharded(run, table, spill, &mut trace, &mut l, o);
    }
    print!("{}", trace.render());
    // Report the traced mine of median wall time. Its layers and
    // `pipeline.unaccounted_s` add up to its `trace.mine_s` by
    // construction; `check_run` above is what can fail.
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (traced_mine, selfs) = &runs[runs.len() / 2];
    let layer = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| selfs.get(n))
            .fold(0.0, |a, b| a + b)
    };

    let m = &untraced.metrics;
    let n_rows = u64::from(table.columns.n_rows());
    if w == Workload::Dense {
        // The two-pass contract, seen from outside the program.
        let ok = passes.len() == 2 && passes.iter().all(|&(rows, _)| rows == n_rows);
        o.check(ok, || {
            format!("the stream saw passes {passes:?}, expected 2 of {n_rows} rows")
        });
    }
    let (io_rows, io_nnz) = if w == Workload::Wide {
        // `io::read_binary` reads the file once.
        (n_rows, table.columns.nnz() as u64)
    } else {
        passes
            .iter()
            .fold((0, 0), |(r, z), &(rows, nnz)| (r + rows, z + nnz))
    };
    let io_passes = if w == Workload::Wide { 1 } else { passes.len() };
    l.set("io.read_s", layer(&["io.open", "io.read"]));
    l.set("io.passes", io_passes as f64);
    l.set("io.rows", io_rows as f64);
    l.set("io.nnz", io_nnz as f64);
    l.set("phase1.s", layer(&["phase1"]));
    l.set("phase1.signature_bytes", m.signature_bytes as f64);
    l.set("phase2.s", layer(&["phase2"]));
    let increments = m.stage("counter-increments").unwrap_or(0);
    l.set("phase2.counter_increments", increments as f64);
    let counted = ["pairs-agreeing", "pairs-overlapping", "colliding-pairs"]
        .iter()
        .find_map(|s| m.stage(s))
        .unwrap_or(0);
    l.set("phase2.pairs_counted", counted as f64);
    l.set("phase2.candidates", m.candidates_generated as f64);
    let v = &m.verification;
    l.set(
        "phase2.precision",
        v.true_positives as f64 / m.candidates_generated.max(1) as f64,
    );
    l.set("phase3.s", layer(&["phase3"]));
    l.set("phase3.intersection_work", v.intersection_work as f64);
    l.set("phase3.true_positives", v.true_positives as f64);
    l.set("phase3.false_positives", v.false_positives_pruned as f64);
    l.set("par.pool_s", layer(&["par.pool"]));
    if w == Workload::Wide {
        match phase2_speedup(run.seed, &table.path) {
            Ok(speedup) => l.set("par.phase2_speedup", speedup),
            Err(e) => o.check(false, || format!("phase-2 speedup run failed: {e}")),
        }
    }
    l.set("pipeline.unaccounted_s", layer(&["mine"]));
    l.set("trace.mine_s", *traced_mine);
    l.set("trace.overhead_s", traced_mine - mine_s);
    let layers_total = layer(&[
        "io.open", "io.read", "par.pool", "phase1", "phase2", "phase3",
    ]);
    l.set("trace.phase2_share", layer(&["phase2"]) / layers_total);
    l.set(
        "trace.io_phase1_share",
        layer(&["io.open", "io.read", "phase1"]) / layers_total,
    );
    l
}

/// Verified pairs, column counts, and `(rows, nonzeros)` per table pass.
type TracedMine = (Vec<VerifiedPair>, Vec<u32>, Vec<(u64, u64)>);

/// `wide`'s mine, one span per public stage call of `Pipeline::run_pool`.
fn traced_pool(trace: &mut Trace, seed: u64, path: &Path) -> sfa_matrix::Result<TracedMine> {
    let Scheme::Mh { k, delta } = Workload::Wide.scheme() else {
        unreachable!("wide mines with MH")
    };
    let root = trace.open("mine");
    let matrix = trace.time("io.read", || io::read_binary(path))?;
    let pool = trace.time("par.pool", || ThreadPool::new(0));
    let sig_seed = sfa_hash::family::derive_seed(seed, SIGNATURES_PURPOSE);
    let sigs = trace.time("phase1", || {
        compute_signatures_pool(&matrix, k, sig_seed, &pool)
    });
    let (candidates, _) = trace.time("phase2", || {
        mh_candidates_with_stats_pool(&sigs, MINE_S_STAR, delta, &pool)
    });
    let (verified, counts, _) = trace.time("phase3", || {
        sfa_core::verify::verify_candidates_in_memory_pool_with_report(
            &matrix.transpose(),
            &candidates,
            &pool,
        )
    });
    drop((pool, sigs, candidates, matrix));
    trace.close(root);
    Ok((verified, counts, Vec::new()))
}

/// `dense`'s mine, one span per public stage call of `Pipeline::run`,
/// with the table reads of each pass as an aggregated child span.
fn traced_stream(trace: &mut Trace, seed: u64, path: &Path) -> sfa_matrix::Result<TracedMine> {
    let Scheme::MLsh { k, r, l, .. } = Workload::Dense.scheme() else {
        unreachable!("dense mines with banded M-LSH")
    };
    let root = trace.open("mine");
    let mut stream = TimedStream::new(trace.time("io.open", || FileRowStream::open(path))?);
    let phase1 = trace.open("phase1");
    let sigs = compute_signatures(
        &mut stream,
        k,
        sfa_hash::family::derive_seed(seed, SIGNATURES_PURPOSE),
    )?;
    record_passes(trace, &stream, 0..1);
    trace.close(phase1);
    let params = MLshParams::banded(r, l, sfa_hash::family::derive_seed(seed, LSH_PURPOSE));
    let (candidates, _) = trace.time("phase2", || mlsh_candidates_with_stats(&sigs, &params));
    let phase3 = trace.open("phase3");
    sfa_matrix::RowStream::reset(&mut stream)?;
    let (verified, counts, _) =
        sfa_core::verify::verify_candidates_with_stats(&mut stream, &candidates)?;
    record_passes(trace, &stream, 1..stream.passes().len());
    trace.close(phase3);
    drop((sigs, candidates));
    trace.close(root);
    Ok((verified, counts, volumes(&stream)))
}

/// `wide`'s table mined as `sfa mine --memory-budget` with K-MH does,
/// traced once, beside an untraced in-memory K-MH mine that must find the
/// same pairs: the sharding layer's metrics.
fn sharded(
    run: &Run,
    table: &Table,
    spill: &Path,
    trace: &mut Trace,
    l: &mut Values,
    o: &mut Outcome,
) {
    let config = PipelineConfig::new(SHARDED_SCHEME, MINE_S_STAR, run.seed);
    let reference = match io::read_binary(&table.path) {
        Ok(m) => Pipeline::new(config).run_pool(&m, &ThreadPool::new(0)),
        Err(e) => return o.check(false, || format!("in-memory K-MH mine failed: {e}")),
    };
    let id = trace.next_run();
    let outer = Instant::now();
    let traced = traced_sharded(trace, run.seed, &table.path, spill);
    let outer = outer.elapsed();
    for problem in trace.check_run(id, outer) {
        o.check(false, || format!("traced sharded mine {id}: {problem}"));
    }
    let result = match traced {
        Ok(result) => result,
        Err(e) => return o.check(false, || format!("sharded mine failed: {e}")),
    };
    let mut failures = check_mine(Workload::Wide, &result, table);
    if result.similar_pairs() != reference.similar_pairs() {
        failures.push("sharded pairs differ from the in-memory K-MH mine".to_owned());
    }
    o.check(failures.is_empty(), || failures.join("; "));
    let selfs = trace.self_seconds(id);
    l.set("shard.mine_s", outer.as_secs_f64());
    l.set(
        "shard.phase2_s",
        selfs.get("phase2").copied().unwrap_or(0.0),
    );
    let Some(s) = &result.metrics.sharding else {
        return o.check(false, || {
            "sharded mine reported no sharding metrics".to_owned()
        });
    };
    l.set("shard.shards", s.shards as f64);
    l.set("shard.restarts", s.shard_restarts as f64);
    l.set("shard.generation_passes", s.generation_passes as f64);
    l.set("shard.verify_groups", s.verify_groups as f64);
    l.set("shard.spill_bytes", s.spill_bytes as f64);
    l.set("shard.peak_tracked_bytes", s.peak_tracked_bytes as f64);
    let increments = |r: &MiningResult| r.metrics.stage("counter-increments").unwrap_or(0);
    l.set(
        "shard.increment_ratio",
        increments(&result) as f64 / increments(&reference).max(1) as f64,
    );
}

/// The sharded K-MH mine. `run_sharded`'s inner passes cannot be called
/// alone, so its phase spans come from the program's own
/// `result.timings`; the table reads are the benchmark's own: pass 0 is
/// phase 1's, every later pass is a verify group's.
fn traced_sharded(
    trace: &mut Trace,
    seed: u64,
    path: &Path,
    spill: &Path,
) -> sfa_matrix::Result<MiningResult> {
    let pipeline = Pipeline::new(PipelineConfig::new(SHARDED_SCHEME, MINE_S_STAR, seed));
    let root = trace.open("mine");
    let mut stream = TimedStream::new(trace.time("io.open", || FileRowStream::open(path))?);
    let sharded = trace.open("pipeline.run_sharded");
    let start = Instant::now();
    let result =
        pipeline.run_sharded(&mut stream, &MemoryBudget::new(BUDGET_BYTES, spill), None)?;
    let t = result.timings;
    let phase1 = trace.record("phase1", Some(sharded), start, t.signatures);
    trace.record("phase2", Some(sharded), start + t.signatures, t.candidates);
    let phase3 = trace.record(
        "phase3",
        Some(sharded),
        start + t.signatures + t.candidates,
        t.verify,
    );
    for (i, pass) in stream.passes().iter().enumerate() {
        let parent = if i == 0 { phase1 } else { phase3 };
        trace.record("io.read", Some(parent), pass.start, pass.busy);
    }
    trace.close(sharded);
    trace.close(root);
    Ok(result)
}

/// Records the given passes' reads under the innermost open span.
fn record_passes<S: sfa_matrix::RowStream>(
    trace: &mut Trace,
    stream: &TimedStream<S>,
    passes: std::ops::Range<usize>,
) {
    for pass in &stream.passes()[passes] {
        trace.record("io.read", trace.innermost(), pass.start, pass.busy);
    }
}

fn volumes<S: sfa_matrix::RowStream>(stream: &TimedStream<S>) -> Vec<(u64, u64)> {
    stream.passes().iter().map(|p| (p.rows, p.nnz)).collect()
}

/// `wide`'s phase 2 at one worker over its time at the machine's worker
/// count, each the median of three runs on the same signatures.
fn phase2_speedup(seed: u64, path: &Path) -> sfa_matrix::Result<f64> {
    let Scheme::Mh { k, delta } = Workload::Wide.scheme() else {
        unreachable!("wide mines with MH")
    };
    let matrix = io::read_binary(path)?;
    let full = ThreadPool::new(0);
    let one = ThreadPool::new(1);
    let sigs = compute_signatures_pool(
        &matrix,
        k,
        sfa_hash::family::derive_seed(seed, SIGNATURES_PURPOSE),
        &full,
    );
    let time = |pool: &ThreadPool| -> f64 {
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(mh_candidates_with_stats_pool(
                    &sigs,
                    MINE_S_STAR,
                    delta,
                    pool,
                ));
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&runs)
    };
    Ok(time(&one) / time(&full))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_datagen::SyntheticConfig;
    use sfa_matrix::MemoryRowStream;

    fn mined() -> (MiningResult, Table) {
        let data = SyntheticConfig::small(2_000, 11).generate();
        let rows = data.matrix.transpose();
        let config = PipelineConfig::new(Workload::Wide.scheme(), MINE_S_STAR, 11);
        let result = Pipeline::new(config)
            .run(&mut MemoryRowStream::new(&rows))
            .unwrap();
        let table = Table {
            path: std::path::PathBuf::new(),
            truth: crate::inputs::planted_truth(&data.planted),
            columns: data.matrix,
        };
        (result, table)
    }

    #[test]
    fn an_honest_mine_passes_every_check() {
        let (result, table) = mined();
        assert!(!result.similar_pairs().is_empty());
        assert_eq!(
            check_mine(Workload::Wide, &result, &table),
            Vec::<String>::new()
        );
        assert!(same_result(
            &result.verified,
            &result.column_counts,
            &result
        ));
    }

    #[test]
    fn a_dropped_pair_fails_the_run() {
        let (result, table) = mined();
        let mut dropped = result.clone();
        let at = dropped
            .verified
            .iter()
            .position(|p| p.similarity >= MINE_S_STAR)
            .unwrap();
        dropped.verified.remove(at);
        assert!(!same_result(
            &result.verified,
            &result.column_counts,
            &dropped
        ));
        let mut o = Outcome::default();
        o.check(
            same_result(&result.verified, &result.column_counts, &dropped),
            || "pairs differ between repetitions".to_owned(),
        );
        assert!(!o.correct());
        // A check that fails is also reported when the pair is altered
        // instead of dropped.
        let mut altered = result;
        let p = altered
            .verified
            .iter_mut()
            .find(|p| p.similarity >= MINE_S_STAR)
            .unwrap();
        p.intersection -= 1;
        assert_eq!(check_mine(Workload::Wide, &altered, &table).len(), 1);
    }
}
