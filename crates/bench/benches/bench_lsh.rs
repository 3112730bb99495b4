//! LSH ablations: M-LSH banded vs sampled selection; H-LSH ladder depth
//! and the density-gate parameter `t`; the (r, l) optimizer itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfa_bench::bench_weblog;
use sfa_hash::PairShard;
use sfa_lsh::{
    hlsh_candidates, mlsh_candidates, optimize_params, HLshParams, MLshParams,
    SimilarityDistribution,
};
use sfa_matrix::MemoryRowStream;
use sfa_minhash::compute_signatures;
use sfa_par::ThreadPool;

fn lsh(c: &mut Criterion) {
    let (data, rows) = bench_weblog();
    let sigs = compute_signatures(&mut MemoryRowStream::new(&rows), 100, 7).unwrap();
    let pool = ThreadPool::new(1);
    let all = PairShard::all();

    let mut group = c.benchmark_group("lsh");
    group.sample_size(20);
    group.bench_function("mlsh_banded_r5_l20", |b| {
        b.iter(|| mlsh_candidates(&sigs, &MLshParams::banded(5, 20, 3), all, usize::MAX, &pool));
    });
    group.bench_function("mlsh_sampled_r5_l20", |b| {
        b.iter(|| {
            mlsh_candidates(
                &sigs,
                &MLshParams::sampled(5, 20, 3),
                all,
                usize::MAX,
                &pool,
            )
        });
    });
    for &levels in &[4usize, 8, 16] {
        group.bench_with_input(
            BenchmarkId::new("hlsh_ladder_levels", levels),
            &levels,
            |b, &levels| {
                let params = HLshParams {
                    r: 16,
                    l: 4,
                    t: 4,
                    max_levels: levels,
                    include_zero_keys: false,
                    seed: 5,
                };
                b.iter(|| hlsh_candidates(&rows, &params, all, usize::MAX, &pool));
            },
        );
    }
    for &t in &[3u32, 4, 8] {
        group.bench_with_input(BenchmarkId::new("hlsh_gate_t", t), &t, |b, &t| {
            let params = HLshParams {
                r: 16,
                l: 4,
                t,
                max_levels: 12,
                include_zero_keys: false,
                seed: 5,
            };
            b.iter(|| hlsh_candidates(&rows, &params, all, usize::MAX, &pool));
        });
    }
    let distr = SimilarityDistribution::from_matrix(&data.matrix, 20);
    group.bench_function("optimizer_r25_l4096", |b| {
        b.iter(|| optimize_params(&distr, 0.7, 5.0, 5_000.0, 25, 4_096));
    });
    group.finish();
}

criterion_group!(benches, lsh);
criterion_main!(benches);
