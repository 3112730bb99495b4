//! Phase-3 verification ablation: the sequential single-pass row scan vs
//! the in-memory container verifier at 1, 2 and 4 workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfa_bench::bench_weblog;
use sfa_core::verify::{verify_candidates, verify_candidates_in_memory_pool_with_report};
use sfa_core::{Pipeline, PipelineConfig, Scheme};
use sfa_matrix::MemoryRowStream;
use sfa_par::ThreadPool;

fn verification(c: &mut Criterion) {
    let (_, rows) = bench_weblog();
    // A realistic candidate load: the M-LSH candidates at a loose cutoff.
    let cfg = PipelineConfig::new(
        Scheme::MLsh {
            k: 60,
            r: 3,
            l: 20,
            sampled: false,
        },
        0.3,
        7,
    );
    let (candidates, _) = Pipeline::new(cfg)
        .generate_candidates(&mut MemoryRowStream::new(&rows))
        .unwrap();

    let mut group = c.benchmark_group("verification");
    group.sample_size(20);
    group.bench_function("sequential", |b| {
        b.iter(|| verify_candidates(&mut MemoryRowStream::new(&rows), &candidates).unwrap());
    });
    let columns = rows.transpose();
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(BenchmarkId::new("in_memory", threads), &pool, |b, pool| {
            b.iter(|| verify_candidates_in_memory_pool_with_report(&columns, &candidates, pool));
        });
    }
    group.finish();
}

criterion_group!(benches, verification);
criterion_main!(benches);
