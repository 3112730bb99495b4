//! The sfa benchmark: three workloads that drive the miner and the server
//! through the workspace crates' public functions, check every output,
//! and report end-to-end metrics or, in a traced run, per-layer ones.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to read a traced run.

use std::collections::BTreeMap;

pub mod inputs;
pub mod mine;
pub mod report;
pub mod serve;
pub mod trace;

use inputs::Workload;
use report::Metric;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// ones.
    pub trace: bool,
}

/// End-to-end metrics with their units, in `BENCHMARK.json` order. Every
/// workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mine_s", "s"),
    ("recall", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("ok_rate", "ratio"),
    ("request_p50_us", "us"),
    ("visible_p50_ms", "ms"),
    ("visible_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics with their units, in `BENCHMARK.json` order. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.read_s", "s"),
    ("io.passes", "count"),
    ("io.rows", "count"),
    ("io.nnz", "count"),
    ("phase1.s", "s"),
    ("phase1.signature_bytes", "bytes"),
    ("phase2.s", "s"),
    ("phase2.counter_increments", "count"),
    ("phase2.pairs_counted", "count"),
    ("phase2.candidates", "count"),
    ("phase2.precision", "ratio"),
    ("phase3.s", "s"),
    ("phase3.intersection_work", "count"),
    ("phase3.true_positives", "count"),
    ("phase3.false_positives", "count"),
    ("shard.shards", "count"),
    ("shard.restarts", "count"),
    ("shard.generation_passes", "count"),
    ("shard.verify_groups", "count"),
    ("shard.spill_bytes", "bytes"),
    ("shard.peak_tracked_bytes", "bytes"),
    ("shard.increment_ratio", "ratio"),
    ("shard.mine_s", "s"),
    ("shard.phase2_s", "s"),
    ("par.pool_s", "s"),
    ("par.phase2_speedup", "ratio"),
    ("pipeline.unaccounted_s", "s"),
    ("trace.mine_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.phase2_share", "ratio"),
    ("trace.io_phase1_share", "ratio"),
    ("serve.bind_s", "s"),
    ("serve.rebuild_s", "s"),
    ("serve.fold_s", "s"),
    ("serve.swaps", "count"),
    ("serve.topk_us", "us"),
    ("serve.sim_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.wal_flush_s", "s"),
    ("serve.wal_bytes", "bytes"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.query_p99_us", "us"),
    ("serve.ingest_p99_us", "us"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
];

/// Values collected for one of the metric lists.
#[derive(Debug, Clone)]
pub struct Values {
    names: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
    default: f64,
}

impl Values {
    /// An empty end-to-end set: every metric must be set.
    #[must_use]
    pub const fn end_to_end() -> Self {
        Self {
            names: END_TO_END,
            values: BTreeMap::new(),
            default: f64::NAN,
        }
    }

    /// An empty per-layer set: unset metrics report 0.
    #[must_use]
    pub const fn per_layer() -> Self {
        Self {
            names: PER_LAYER,
            values: BTreeMap::new(),
            default: 0.0,
        }
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the list, which is a bug here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.names.iter().any(|(n, _)| *n == name),
            "{name} is not a listed metric"
        );
        self.values.insert(name, value);
    }

    /// The full list with units, in order; unset metrics take the list's
    /// default.
    #[must_use]
    pub fn into_metrics(self) -> Vec<Metric> {
        self.names
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.values.get(name).copied().unwrap_or(self.default),
                unit,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// workloads and metrics, with these units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = sfa_json::Json::parse(&text).expect("BENCHMARK.json parses");
        let section = |key: &str, field: &str| -> Vec<(String, String)> {
            let entries = doc.get(key).and_then(sfa_json::Json::as_arr).expect(key);
            entries
                .iter()
                .map(|e| {
                    let text = |f: &str| e.get(f).and_then(sfa_json::Json::as_str).unwrap_or("");
                    (text("name").to_owned(), text(field).to_owned())
                })
                .collect()
        };
        let listed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(section("end_to_end", "unit"), listed(END_TO_END));
        assert_eq!(section("per_layer", "unit"), listed(PER_LAYER));
        let workloads: Vec<String> = section("workloads", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, names);
    }
}
