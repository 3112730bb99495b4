//! The sketch-once / mine-many workflow: persist signatures, reload them
//! (as another process would), mine at several thresholds, and verify the
//! results match running the full pipeline each time.

use sfa::core::verify::verify_candidates;
use sfa::core::{Pipeline, PipelineConfig, Scheme};
use sfa::datagen::WeblogConfig;
use sfa::hash::PairShard;
use sfa::matrix::{MemoryRowStream, RowMajorMatrix};
use sfa::minhash::hashcount::{kmh_candidates, mh_candidates};
use sfa::minhash::persist;
use sfa::minhash::{compute_bottom_k, compute_signatures};
use sfa::par::ThreadPool;

fn data() -> RowMajorMatrix {
    WeblogConfig::tiny(77).generate().matrix.transpose()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sfa_sketch_reuse");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn persisted_kmh_sketch_mines_many_thresholds() {
    let rows = data();
    let seed = sfa::hash::family::derive_seed(9, 1);
    let sigs = compute_bottom_k(&mut MemoryRowStream::new(&rows), 24, seed).unwrap();
    let path = tmp("weblog.sfkm");
    persist::write_bottom_k(&sigs, &path).unwrap();

    let loaded = persist::read_bottom_k(&path).unwrap();
    let pool = ThreadPool::new(1);
    for &s_star in &[0.5, 0.7, 0.9] {
        // Phase 2 from the reloaded sketch + phase 3 against the table.
        let (candidates, _, _) =
            kmh_candidates(&loaded, s_star, 0.2, PairShard::all(), usize::MAX, &pool);
        let (verified, _) =
            verify_candidates(&mut MemoryRowStream::new(&rows), &candidates).unwrap();
        let from_sketch: Vec<(u32, u32)> = verified
            .iter()
            .filter(|p| p.similarity >= s_star)
            .map(|p| (p.i, p.j))
            .collect();

        // The full pipeline with the same seed.
        let cfg = PipelineConfig::new(Scheme::Kmh { k: 24, delta: 0.2 }, s_star, 9);
        let direct: Vec<(u32, u32)> = Pipeline::new(cfg)
            .run(&mut MemoryRowStream::new(&rows))
            .unwrap()
            .similar_pairs()
            .iter()
            .map(|p| (p.i, p.j))
            .collect();

        let mut a = from_sketch;
        let mut b = direct;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "threshold {s_star}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn persisted_mh_sketch_equals_fresh_computation() {
    let rows = data();
    let sigs = compute_signatures(&mut MemoryRowStream::new(&rows), 48, 1234).unwrap();
    let path = tmp("weblog.sfmh");
    persist::write_signatures(&sigs, &path).unwrap();
    let loaded = persist::read_signatures(&path).unwrap();
    assert_eq!(loaded, sigs);
    let pool = ThreadPool::new(1);
    let mine = |s| mh_candidates(s, 0.7, 0.2, PairShard::all(), usize::MAX, &pool);
    let (from_loaded, from_fresh) = (mine(&loaded), mine(&sigs));
    assert_eq!(from_loaded.0, from_fresh.0);
    assert_eq!(from_loaded.1, from_fresh.1);
    std::fs::remove_file(&path).ok();
}
