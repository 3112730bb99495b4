//! Incremental operation on a growing table.
//!
//! Min-hash signatures are commutative, idempotent folds over rows, so a
//! deployment can keep per-column sketches updated as the log grows and
//! re-mine whenever it wants — no re-scan of history. This example streams
//! a week of simulated weblog traffic day by day, mining after each day,
//! and shows (a) the sketch after 7 incremental days equals the batch
//! sketch over the full log, and (b) similar pairs firm up as evidence
//! accumulates.
//!
//! ```sh
//! cargo run --release --example incremental_mining
//! ```

use sfa::core::verify::verify_candidates;
use sfa::datagen::WeblogConfig;
use sfa::hash::PairShard;
use sfa::matrix::{MemoryRowStream, RowMajorMatrix};
use sfa::minhash::hashcount::kmh_candidates;
use sfa::minhash::{compute_bottom_k, KmhBuilder};
use sfa::par::ThreadPool;

fn main() {
    // The "full week" of traffic; we will reveal it one day at a time.
    let data = WeblogConfig::tiny(99).generate();
    let full = data.matrix.transpose();
    let n = full.n_rows();
    let days = 7;
    let per_day = n / days;
    println!(
        "simulated weblog: {} client rows total, revealed in {days} days of ~{per_day}",
        n
    );

    let (k, seed, s_star, delta) = (32usize, 2026u64, 0.8, 0.2);
    let mut sketch = KmhBuilder::new(k, full.n_cols() as usize, seed);
    let pool = ThreadPool::new(1);
    for day in 0..days {
        let lo = day * per_day;
        let hi = if day == days - 1 {
            n
        } else {
            (day + 1) * per_day
        };
        for row_id in lo..hi {
            sketch.push_row(row_id, full.row(row_id));
        }
        // Mine the *current* sketch without touching historical rows. The
        // verification pass uses only the rows seen so far.
        let current = sketch.clone().finish();
        let (candidates, _, _) =
            kmh_candidates(&current, s_star, delta, PairShard::all(), usize::MAX, &pool);
        let seen_rows: Vec<Vec<u32>> = (0..hi).map(|r| full.row(r).to_vec()).collect();
        let seen = RowMajorMatrix::from_rows(full.n_cols(), seen_rows).unwrap();
        let (verified, _) =
            verify_candidates(&mut MemoryRowStream::new(&seen), &candidates).unwrap();
        let confirmed = verified.iter().filter(|p| p.similarity >= s_star).count();
        println!(
            "  after day {}: {} rows folded, {} candidates, {} confirmed pairs",
            day + 1,
            sketch.rows_seen(),
            candidates.len(),
            confirmed
        );
    }

    // The incremental sketch is bit-identical to the batch computation.
    let incremental = sketch.finish();
    let batch = compute_bottom_k(&mut MemoryRowStream::new(&full), k, seed).unwrap();
    assert_eq!(incremental, batch);
    println!("\nincremental sketch == batch sketch over the full log ✓");
}
