//! Parallel execution layer: sharded counter merge and every scheme's
//! phase-2 generator at 1, 2, and 4 workers.
//!
//! On a single-core host the multi-worker points measure scheduling
//! overhead only (expect ~1x); on multi-core CI runners they show the
//! actual speedup of the chunked dynamic scheduler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfa_bench::bench_weblog;
use sfa_hash::bucket::{merge_sharded, CounterTable, PairShard, ShardedPairCounter};
use sfa_lsh::{hlsh_candidates, mlsh_candidates, HLshParams, MLshParams};
use sfa_matrix::MemoryRowStream;
use sfa_minhash::hashcount::{kmh_candidates, mh_candidates};
use sfa_minhash::rowsort::rowsort_candidates;
use sfa_minhash::{compute_bottom_k, compute_signatures};
use sfa_par::ThreadPool;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Deterministic per-worker shard sets: 16 shards, 200k increments spread
/// over a synthetic pair universe (splitmix-style key stream).
fn synthetic_locals(n_locals: usize) -> Vec<Vec<CounterTable>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n_locals)
        .map(|_| {
            let mut local = ShardedPairCounter::new(16);
            for _ in 0..200_000 / n_locals {
                let x = next();
                let i = (x >> 32) as u32 % 4096;
                let j = x as u32 % 4096;
                if i != j {
                    local.increment(i.min(j), i.max(j));
                }
            }
            local.into_shards()
        })
        .collect()
}

fn sharded_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_merge");
    group.sample_size(20);
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let locals = synthetic_locals(4);
        group.bench_with_input(
            BenchmarkId::new("merge_sharded_4_locals", threads),
            &pool,
            |b, pool| {
                b.iter(|| {
                    let locals: Vec<ShardedPairCounter> = locals
                        .iter()
                        .map(|shards| ShardedPairCounter::from_shards(shards.clone()))
                        .collect();
                    merge_sharded(locals, pool)
                });
            },
        );
    }
    group.finish();
}

fn parallel_generators(c: &mut Criterion) {
    let (_, rows) = bench_weblog();
    let sigs = compute_signatures(&mut MemoryRowStream::new(&rows), 100, 7).unwrap();
    let ksigs = compute_bottom_k(&mut MemoryRowStream::new(&rows), 64, 7).unwrap();
    let mlsh = MLshParams::banded(5, 20, 7);
    let hlsh = HLshParams::new(8, 8, 7);
    let all = PairShard::all();

    let mut group = c.benchmark_group("par_candidates");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(BenchmarkId::new("mh_k100", threads), &pool, |b, pool| {
            b.iter(|| mh_candidates(&sigs, 0.5, 0.2, all, usize::MAX, pool));
        });
        group.bench_with_input(
            BenchmarkId::new("rowsort_k100", threads),
            &pool,
            |b, pool| {
                b.iter(|| rowsort_candidates(&sigs, 0.5, 0.2, all, usize::MAX, pool));
            },
        );
        group.bench_with_input(BenchmarkId::new("kmh_k64", threads), &pool, |b, pool| {
            b.iter(|| kmh_candidates(&ksigs, 0.5, 0.2, all, usize::MAX, pool));
        });
        group.bench_with_input(
            BenchmarkId::new("mlsh_r5_l20", threads),
            &pool,
            |b, pool| {
                b.iter(|| mlsh_candidates(&sigs, &mlsh, all, usize::MAX, pool));
            },
        );
        group.bench_with_input(BenchmarkId::new("hlsh_r8_l8", threads), &pool, |b, pool| {
            b.iter(|| hlsh_candidates(&rows, &hlsh, all, usize::MAX, pool));
        });
    }
    group.finish();
}

criterion_group!(benches, sharded_merge, parallel_generators);
criterion_main!(benches);
