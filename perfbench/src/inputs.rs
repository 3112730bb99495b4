//! The three workloads and their seeded inputs.

use std::path::Path;

use sfa_core::Scheme;
use sfa_datagen::{SyntheticConfig, WeblogConfig};
use sfa_matrix::{io, SparseMatrix};

/// Default workload seed; the same root seed the repository's
/// experiments use (`sfa_experiments::EXPERIMENT_SEED`).
pub const DEFAULT_SEED: u64 = 20_000_214;

/// Similarity threshold of the three mine workloads.
pub const MINE_S_STAR: f64 = 0.7;

/// Memory budget of the sharded mine in `wide`'s traced run, as in
/// `bench-baseline --scale large`.
pub const BUDGET_BYTES: usize = 16 << 20;

/// Scheme of the sharded mine in `wide`'s traced run (`sfa mine
/// --memory-budget` with K-MH).
pub const SHARDED_SCHEME: Scheme = Scheme::Kmh { k: 64, delta: 0.2 };

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 300 000 × 100 000 synthetic table, in-memory pool mine (MH).
    Wide,
    /// The paper's 100 000 × 10 000 table, two-pass streaming mine (M-LSH).
    Dense,
    /// Paper-scale weblog behind `sfa serve` with open-loop traffic.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 3] = [Self::Wide, Self::Dense, Self::Serve];

    /// The workload's command-line name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Wide => "wide",
            Self::Dense => "dense",
            Self::Serve => "serve",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The mining scheme of a mine workload.
    ///
    /// # Panics
    ///
    /// Panics for [`Workload::Serve`], whose server fixes its own scheme.
    #[must_use]
    pub const fn scheme(self) -> Scheme {
        match self {
            Self::Wide => Scheme::Mh { k: 100, delta: 0.2 },
            Self::Dense => Scheme::MLsh {
                k: 100,
                r: 5,
                l: 20,
                sampled: false,
            },
            Self::Serve => panic!("the serve workload has no pipeline scheme"),
        }
    }

    /// The synthetic table of a mine workload.
    ///
    /// # Panics
    ///
    /// Panics for [`Workload::Serve`], whose input is a weblog.
    #[must_use]
    pub fn synthetic(self, seed: u64) -> SyntheticConfig {
        match self {
            // `bench-baseline`'s `large_synthetic()`: 10⁵ columns, rare.
            Self::Wide => SyntheticConfig {
                n_rows: 300_000,
                n_cols: 100_000,
                density_range: (4.0e-5, 6.0e-5),
                pairs_per_band: 20,
                bands: sfa_datagen::synthetic::PAPER_BANDS.to_vec(),
                seed,
            },
            Self::Dense => SyntheticConfig::paper(100_000, seed),
            Self::Serve => panic!("the serve workload's input is a weblog"),
        }
    }
}

/// The weblog behind the `serve` workload.
#[must_use]
pub fn weblog(seed: u64) -> WeblogConfig {
    WeblogConfig::paper_scale(seed)
}

/// A mine workload's table, generated and written to `path` as `.sfab`:
/// the column-major matrix the checks use, and the planted pairs at or
/// above [`MINE_S_STAR`], ascending by `(i, j)`.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_table(
    workload: Workload,
    seed: u64,
    path: &Path,
) -> sfa_matrix::Result<(SparseMatrix, Vec<(u32, u32)>)> {
    let data = workload.synthetic(seed).generate();
    io::write_binary(&data.matrix.transpose(), path)?;
    Ok((data.matrix, planted_truth(&data.planted)))
}

/// Planted pairs whose exact similarity reaches [`MINE_S_STAR`].
#[must_use]
pub fn planted_truth(planted: &[sfa_datagen::PlantedPair]) -> Vec<(u32, u32)> {
    let mut truth: Vec<(u32, u32)> = planted
        .iter()
        .filter(|p| p.similarity >= MINE_S_STAR)
        .map(|p| (p.i, p.j))
        .collect();
    truth.sort_unstable();
    truth
}

/// Size of the intersection of two ascending id lists.
#[must_use]
pub fn intersection(a: &[u32], b: &[u32]) -> u32 {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::stats::exact_similar_pairs;

    /// The planted set is the whole truth: no unplanted pair of a
    /// synthetic table reaches `s*`, so per-run recall can use it in
    /// place of an exact all-pairs pass.
    fn assert_planted_is_exact(workload: Workload, seed: u64) {
        let data = workload.synthetic(seed).generate();
        let mut exact: Vec<(u32, u32)> = exact_similar_pairs(&data.matrix, MINE_S_STAR)
            .iter()
            .map(|p| (p.i, p.j))
            .collect();
        exact.sort_unstable();
        let truth = planted_truth(&data.planted);
        assert!(!truth.is_empty());
        assert_eq!(truth, exact, "{} seed {seed}", workload.name());
    }

    #[test]
    fn wide_planted_pairs_are_the_exact_truth() {
        for seed in [DEFAULT_SEED, 7] {
            assert_planted_is_exact(Workload::Wide, seed);
        }
    }

    #[test]
    fn dense_planted_pairs_are_the_exact_truth() {
        for seed in [DEFAULT_SEED, 7] {
            assert_planted_is_exact(Workload::Dense, seed);
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
