//! Candidate-generation ablation: Row-Sorting vs Hash-Count (§3.1), and
//! the K-MH overlap counting.

use criterion::{criterion_group, criterion_main, Criterion};
use sfa_bench::bench_weblog;
use sfa_hash::PairShard;
use sfa_matrix::MemoryRowStream;
use sfa_minhash::hashcount::{kmh_candidates, mh_candidates};
use sfa_minhash::rowsort::rowsort_candidates;
use sfa_minhash::{compute_bottom_k, compute_signatures};
use sfa_par::ThreadPool;

fn candidates(c: &mut Criterion) {
    let (_, rows) = bench_weblog();
    let sigs = compute_signatures(&mut MemoryRowStream::new(&rows), 100, 7).unwrap();
    let ksigs = compute_bottom_k(&mut MemoryRowStream::new(&rows), 100, 7).unwrap();

    let pool = ThreadPool::new(1);
    let all = PairShard::all();

    let mut group = c.benchmark_group("candidates");
    group.sample_size(20);
    group.bench_function("hashcount_mh_k100", |b| {
        b.iter(|| mh_candidates(&sigs, 0.5, 0.2, all, usize::MAX, &pool));
    });
    group.bench_function("rowsort_mh_k100", |b| {
        b.iter(|| rowsort_candidates(&sigs, 0.5, 0.2, all, usize::MAX, &pool));
    });
    group.bench_function("hashcount_kmh_k100", |b| {
        b.iter(|| kmh_candidates(&ksigs, 0.5, 0.2, all, usize::MAX, &pool));
    });
    group.finish();
}

/// Ground-truth ablation: hash-map co-occurrence counting vs the paper's
/// dense triangular counters.
fn ground_truth(c: &mut Criterion) {
    let (data, _) = bench_weblog();
    let mut group = c.benchmark_group("ground_truth");
    group.sample_size(10);
    group.bench_function("hashmap_cooccurrence", |b| {
        b.iter(|| sfa_matrix::stats::exact_similar_pairs(&data.matrix, 0.3));
    });
    group.bench_function("dense_triangle", |b| {
        b.iter(|| sfa_matrix::triangle::exact_similar_pairs_dense(&data.matrix, 0.3));
    });
    group.finish();
}

criterion_group!(benches, candidates, ground_truth);
criterion_main!(benches);
