//! Golden bytes for every state record `sfa-core` persists: the `.sfcp`
//! checkpoints (phase 1 under MH and K-MH, phase 3), the `.sfsp` spills
//! (shard candidates, verify-group result) and the `.sfmf` manifest.
//!
//! Each fixture is written by the real pipeline: a tiny fixed table is
//! mined with a checkpoint directory and a memory budget, and the run is
//! canceled at a fixed row, which leaves its state directory behind. The
//! exact bytes of every file are asserted, so any change to a layout, a
//! field order, a run-key encoding or the checksum shows up here.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use sfa_core::{
    CancelToken, CheckpointSpec, ExecPlan, MemoryBudget, Pipeline, PipelineConfig, Scheme, Source,
};
use sfa_matrix::{MemoryRowStream, RowMajorMatrix, RowStream};
use sfa_par::ThreadPool;

/// Six rows over eight columns.
fn table() -> RowMajorMatrix {
    RowMajorMatrix::from_rows(
        8,
        vec![
            vec![0, 1, 2, 3],
            vec![0, 1, 4, 5],
            vec![2, 3, 6, 7],
            vec![0, 1, 2, 3, 4, 5],
            vec![4, 5, 6, 7],
            vec![1, 3, 5, 7],
        ],
    )
    .unwrap()
}

/// A stream that trips `token` after delivering `cancel_at` rows in total
/// (counted across passes).
struct CancelAfter<'a> {
    inner: MemoryRowStream<'a>,
    token: CancelToken,
    delivered: u32,
    cancel_at: u32,
}

impl RowStream for CancelAfter<'_> {
    fn n_rows(&self) -> u32 {
        self.inner.n_rows()
    }
    fn n_cols(&self) -> u32 {
        self.inner.n_cols()
    }
    fn read_row(&mut self, buf: &mut Vec<u32>) -> sfa_matrix::Result<Option<u32>> {
        let id = self.inner.read_row(buf)?;
        if id.is_some() {
            self.delivered += 1;
            if self.delivered == self.cancel_at {
                self.token.cancel();
            }
        }
        Ok(id)
    }
    fn reset(&mut self) -> sfa_matrix::Result<()> {
        self.inner.reset()
    }
}

/// A new, empty-to-be directory; tests run concurrently, so every call
/// gets its own.
fn fresh_dir(name: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sfa-golden-{}-{name}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Mines `table()` under `scheme` with a checkpoint every row and a
/// `budget`-byte memory budget, canceling after `cancel_at` delivered
/// rows; returns the state directory the canceled run left.
fn canceled_run(name: &str, scheme: Scheme, budget: usize, cancel_at: u32) -> PathBuf {
    let dir = fresh_dir(name);
    let m = table();
    let token = CancelToken::new();
    let mut stream = CancelAfter {
        inner: MemoryRowStream::new(&m),
        token: token.clone(),
        delivered: 0,
        cancel_at,
    };
    let spec = CheckpointSpec::new(&dir).with_every_rows(1);
    let budget = MemoryBudget::new(budget, &dir);
    let pool = ThreadPool::new(1);
    let plan = ExecPlan {
        budget: Some(&budget),
        checkpoint: Some(&spec),
        ..ExecPlan::new(&pool, &token)
    };
    let err = Pipeline::new(PipelineConfig::new(scheme, 0.3, 11))
        .execute(Source::Stream(&mut stream), &plan)
        .unwrap_err();
    assert!(err.is_canceled(), "the fixture run must cancel, got {err}");
    dir
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The MH run: `k = 4` under the 192-byte minimum budget splits the pair
/// space four ways and packs the shards into two verify groups. Canceling
/// after row 14 lands two rows into group 1's verify pass: phase 1 (six
/// rows) and group 0 (six rows) are done.
fn mh_state() -> PathBuf {
    canceled_run("mh", Scheme::Mh { k: 4, delta: 0.5 }, 192, 14)
}

/// The K-MH run, canceled two rows into its signature pass.
fn kmh_state() -> PathBuf {
    canceled_run("kmh", Scheme::Kmh { k: 2, delta: 0.5 }, 192, 2)
}

/// Asserts `dir/name` holds exactly `expected` (hex).
fn assert_file(dir: &Path, name: &str, expected: &str) {
    let bytes = std::fs::read(dir.join(name)).unwrap();
    assert_eq!(hex(&bytes), expected, "{name} moved a byte");
}

/// The `.sfmf` manifest the MH run leaves.
const MANIFEST: &str = "53464d4601000000115fe14406000000080000009947ad66";

/// `phase1.sfcp` after the MH run's full signature pass (builder tag 1).
const PHASE1_MH: &str = concat!(
    "534643500100000001000000115fe14406000000080000000600000000000000",
    "010000000400000008000000f21411dd3030043bf21411dd3030043b9a0cc7a9",
    "2a04ae539a0cc7a92a04ae53f21411dd3030043bf21411dd3030043b9a0cc7a9",
    "2a04ae539a0cc7a92a04ae53eaadb8b587f26944a28944f56f1ed001d4d5cdd1",
    "eef6c90aa28944f56f1ed001eaadb8b587f26944a28944f56f1ed001d4d5cdd1",
    "eef6c90aa28944f56f1ed0015d1e23f8edb68e305d1e23f8edb68e305d1e23f8",
    "edb68e305d1e23f8edb68e300862cbc4acbf6553b196b70c8a91254c0a5fb9a9",
    "ca9a0994b196b70c8a91254c4f730a245207a28f4f730a245207a28f4f730a24",
    "5207a28f4f730a245207a28fddba8869de173c8addba8869de173c8addba8869",
    "de173c8addba8869de173c8adba7f68f",
);

/// `phase1.sfcp` of the K-MH run, canceled after two rows (builder tag 2).
const PHASE1_KMH: &str = concat!(
    "534643500100000001000000c66caaa206000000080000000200000000000000",
    "02000000020000000800000002000000020000002dbd039328038769f6be0412",
    "e1e35b9102000000020000002dbd039328038769f6be0412e1e35b9101000000",
    "010000002dbd03932803876901000000010000002dbd03932803876901000000",
    "01000000f6be0412e1e35b910100000001000000f6be0412e1e35b9100000000",
    "0000000000000000000000008deecbf3",
);

/// `phase3.sfcp`: the MH run's verify frontier in group 1.
const PHASE3: &str = concat!(
    "534643500100000003000000115fe14406000000080000000200000000000000",
    "05f3c9b604000000010000000100000000000000000000000800000002000000",
    "0200000001000000010000000100000001000000000000000000000008000000",
    "000000006f7b6b99",
);

/// `shard_1_of_4.sfsp`: one shard's candidate pairs (kind 1).
const SHARD_CANDIDATES: &str = concat!(
    "534653500100000001000000115fe14406000000080000000100000004000000",
    "040000000000000002000000000000000000e03f010000000400000000000000",
    "0000d03f0200000006000000000000000000e03f040000000600000000000000",
    "0000d03fb71a9f7c",
);

/// `verify_group_0.sfsp`: the first verify group's result (kind 2).
const GROUP_RESULT: &str = concat!(
    "534653500100000002000000115fe14406000000080000000f19dc6a07000000",
    "000000000300000002000000050000009a9999999999d93f000000000000e03f",
    "01000000050000000300000005000000333333333333e33f000000000000e03f",
    "02000000030000000300000004000000000000000000e83f000000000000e83f",
    "020000000700000001000000050000009a9999999999c93f000000000000d03f",
    "03000000050000000200000006000000555555555555d53f000000000000d03f",
    "040000000700000001000000050000009a9999999999c93f000000000000d03f",
    "06000000070000000200000003000000555555555555e53f000000000000e03f",
    "0800000003000000040000000300000004000000030000000400000002000000",
    "030000002f00000000000000d7b02ef9",
);

#[test]
fn manifest_bytes() {
    let dir = mh_state();
    assert_file(&dir, "manifest.sfmf", MANIFEST);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn phase1_mh_checkpoint_bytes() {
    let dir = mh_state();
    assert_file(&dir, "phase1.sfcp", PHASE1_MH);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn phase1_kmh_checkpoint_bytes() {
    let dir = kmh_state();
    assert_file(&dir, "phase1.sfcp", PHASE1_KMH);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn phase3_checkpoint_bytes() {
    let dir = mh_state();
    assert_file(&dir, "phase3.sfcp", PHASE3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_candidates_spill_bytes() {
    let dir = mh_state();
    assert_file(&dir, "shard_1_of_4.sfsp", SHARD_CANDIDATES);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_result_spill_bytes() {
    let dir = mh_state();
    assert_file(&dir, "verify_group_0.sfsp", GROUP_RESULT);
    let _ = std::fs::remove_dir_all(&dir);
}
