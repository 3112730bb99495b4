//! Sample statistics, process memory, and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit string as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one benchmark run reports: whether every check passed, how many
/// operations it attempted and how many failed, and its metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Failed checks, one line each; empty when every check passed.
    pub check_failures: Vec<String>,
    /// Operations attempted: mines, or client requests plus checks.
    pub attempted: u64,
    /// Operations that failed, failed checks included.
    pub failed: u64,
    /// The metrics of the requested mode.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a check: a false `ok` counts as one failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    /// Fails the run once for every metric left without a measured value.
    pub fn check_metrics(&mut self) {
        let unmeasured: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name)
            .collect();
        for name in unmeasured {
            self.check(false, || format!("{name} has no samples"));
        }
    }

    /// True when every check passed and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// Share of attempted operations that succeeded.
    #[must_use]
    pub fn ok_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// The single-line JSON result object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value is not JSON; `check_metrics` has already
            // failed the run for it.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Quantile `q` of ascending `sorted` by linear interpolation between
/// closest ranks; NaN for an empty sample.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorted copy of a sample.
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Quantile `q`, lowered to the highest percentile that still has at
/// least ten samples beyond it (never below the median): a p99 needs a
/// thousand samples, and a sample of fewer than twenty reports its
/// median.
#[must_use]
pub fn tail(samples: &[f64], q: f64) -> f64 {
    let n = samples.len() as f64;
    let supported = (1.0 - 10.0 / n).max(0.5);
    quantile(&sorted(samples), q.min(supported))
}

/// Resets the process's peak-resident-memory mark to its current
/// resident size, so a later [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", b"5")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod heap {
    use std::os::raw::c_int;

    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
        fn malloc_trim(pad: usize) -> c_int;
    }

    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_MAX: c_int = -4;

    pub fn retain() {
        // SAFETY: glibc's documented tuning calls; they only change how
        // later allocations are served.
        unsafe {
            mallopt(M_MMAP_MAX, 0);
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        }
    }

    pub fn trim() {
        // SAFETY: returns free heap pages to the kernel; live allocations
        // are untouched.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod heap {
    pub fn retain() {}
    pub fn trim() {}
}

/// Keeps memory freed by one mine in the process heap for the next,
/// instead of returning it to the kernel: every allocation, large ones
/// included, comes from the heap, and the heap is never trimmed. Without
/// this each mine faults its few hundred MiB in afresh, and on a VM whose
/// host reclaims freed guest pages those faults cost a share of each mine
/// that varies with the host's load.
pub fn retain_heap() {
    heap::retain();
}

/// Returns the heap's free pages to the kernel, so that memory set-up
/// freed does not count in a later [`peak_rss_mb`].
pub fn trim_heap() {
    heap::trim();
}

/// Peak resident memory (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tails_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        // Five samples cannot support any percentile above the median.
        assert_eq!(tail(&xs, 0.99), 3.0);
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((tail(&many, 0.99) - 989.01).abs() < 1e-9);
        let some: Vec<f64> = (0..100).map(f64::from).collect();
        // 100 samples support at most the 90th percentile.
        assert!((tail(&some, 0.99) - 89.1).abs() < 1e-9);
    }

    #[test]
    fn failed_checks_make_the_outcome_incorrect() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        assert!(o.correct());
        o.check(false, || "pair dropped".to_owned());
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(o
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
