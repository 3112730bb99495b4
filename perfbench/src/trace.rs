//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a run id, a parent, and a start and end relative to
//! the trace's creation. Spans stay in memory and are printed when the
//! benchmark ends. Table reads are too many to record one by one, so
//! [`TimedStream`] sums them per pass and each pass becomes one
//! *aggregated* span whose `busy` time is the summed read time rather
//! than its extent. For every other span `busy` is `end - start`.
//!
//! A span's self time is its busy time minus the busy time of its
//! children; the children of one span never overlap, because every
//! traced call runs on the caller's thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sfa_matrix::{Result, RowStream};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name; the part before the first `.` names the layer.
    pub name: &'static str,
    /// Which traced mine the span belongs to.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the trace's creation.
    pub start: Duration,
    /// End, relative to the trace's creation.
    pub end: Duration,
    /// Time the span's work took: `end - start`, or summed read time for
    /// an aggregated span.
    pub busy: Duration,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new run id for the spans that follow.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start: now,
            end: now,
            busy: Duration::ZERO,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.origin.elapsed();
        let span = &mut self.spans[id];
        span.end = now;
        span.busy = now - span.start;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Index of the innermost open span.
    #[must_use]
    pub fn innermost(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Records an aggregated span under `parent`: work that started at
    /// `start` and kept the caller busy for `busy` in total. Returns its
    /// index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        busy: Duration,
    ) -> usize {
        let start = start.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name,
            run: self.run,
            parent,
            start,
            end: start + busy,
            busy,
        });
        self.spans.len() - 1
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self seconds of each span of run `run`, summed by span name.
    #[must_use]
    pub fn self_seconds(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let mut child_busy = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_busy[p] += span.busy;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_busy) {
            if span.run == run {
                let self_s = span.busy.as_secs_f64() - children.as_secs_f64();
                *out.entry(span.name).or_insert(0.0) += self_s;
            }
        }
        out
    }

    /// What can be wrong with run `run`'s spans: it must have exactly one
    /// root span, and the root must have been busy for at least 99% of
    /// `outer` and no more than it, where `outer` is the caller's own
    /// clock around the traced call; no child may start before its
    /// parent; and no span's children may be busy longer than the span
    /// itself, so that every self time, the root's included, is at least
    /// zero. Returns one line per problem found.
    #[must_use]
    pub fn check_run(&self, run: u32, outer: Duration) -> Vec<String> {
        let mut problems = Vec::new();
        let mut child_busy = vec![Duration::ZERO; self.spans.len()];
        let mut roots = Vec::new();
        for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| s.run == run) {
            let Some(p) = s.parent else {
                roots.push(id);
                continue;
            };
            child_busy[p] += s.busy;
            if s.start < self.spans[p].start {
                problems.push(format!("span {id} ({}) starts before its parent", s.name));
            }
        }
        for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| s.run == run) {
            if child_busy[id] > s.busy {
                problems.push(format!(
                    "span {id} ({}) was busy {:?}, its children {:?}",
                    s.name, s.busy, child_busy[id]
                ));
            }
        }
        match roots[..] {
            [root] => {
                let busy = self.spans[root].busy;
                if busy > outer || busy < outer.mul_f64(0.99) {
                    problems.push(format!(
                        "the root span was busy {busy:?}, the call took {outer:?}"
                    ));
                }
            }
            _ => problems.push(format!("{} root spans, expected 1", roots.len())),
        }
        problems
    }

    /// One line per span: `span run=… id=… parent=… name=… start_us=… end_us=… busy_us=…`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span run={} id={id} parent={parent} name={} start_us={} end_us={} busy_us={}",
                s.run,
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.busy.as_micros()
            );
        }
        out
    }
}

/// One pass over a [`TimedStream`]: when it began, the time spent
/// reading (and rewinding into) it, and its volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pass {
    /// When the pass's first read began.
    pub start: Instant,
    /// Summed time inside the inner stream's calls for this pass.
    pub busy: Duration,
    /// Rows delivered.
    pub rows: u64,
    /// Nonzeros delivered.
    pub nnz: u64,
}

/// A [`RowStream`] wrapper that times every read and rewind and counts
/// the passes and their volume. A rewind's time is charged to the pass
/// it begins.
#[derive(Debug)]
pub struct TimedStream<S> {
    inner: S,
    passes: Vec<Pass>,
    in_pass: bool,
    rewind: Duration,
}

impl<S: RowStream> TimedStream<S> {
    /// Wraps `inner`; no pass has started yet.
    pub const fn new(inner: S) -> Self {
        Self {
            inner,
            passes: Vec::new(),
            in_pass: false,
            rewind: Duration::ZERO,
        }
    }

    /// Every pass so far.
    #[must_use]
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }
}

impl<S: RowStream> RowStream for TimedStream<S> {
    fn n_rows(&self) -> u32 {
        self.inner.n_rows()
    }

    fn n_cols(&self) -> u32 {
        self.inner.n_cols()
    }

    fn read_row(&mut self, buf: &mut Vec<u32>) -> Result<Option<u32>> {
        let t = Instant::now();
        let row = self.inner.read_row(buf);
        let busy = t.elapsed();
        if !self.in_pass {
            self.in_pass = true;
            self.passes.push(Pass {
                start: t,
                busy: std::mem::take(&mut self.rewind),
                rows: 0,
                nnz: 0,
            });
        }
        let pass = self.passes.last_mut().expect("a pass is open");
        pass.busy += busy;
        if row.as_ref().is_ok_and(Option::is_some) {
            pass.rows += 1;
            pass.nnz += buf.len() as u64;
        }
        row
    }

    fn reset(&mut self) -> Result<()> {
        let t = Instant::now();
        let out = self.inner.reset();
        self.rewind += t.elapsed();
        self.in_pass = false;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        let mut t = Trace::new();
        let run = t.next_run();
        let root = t.open("mine");
        t.time("phase1", || std::thread::sleep(Duration::from_millis(5)));
        t.record(
            "io.read",
            t.innermost(),
            Instant::now(),
            Duration::from_millis(2),
        );
        std::thread::sleep(Duration::from_millis(3));
        t.close(root);
        let selfs = t.self_seconds(run);
        let total: f64 = selfs.values().sum();
        let wall = t.spans()[root].busy.as_secs_f64();
        assert!((total - wall).abs() < 1e-9, "self times add up to the root");
        assert!((selfs["io.read"] - 0.002).abs() < 1e-9);
        assert!(selfs["mine"] >= 0.0);
        assert!(t.render().lines().count() == 3);
        assert!(t.check_run(run, t.spans()[root].busy).is_empty());
    }

    #[test]
    fn check_run_catches_bad_spans() {
        let mut t = Trace::new();
        let run = t.next_run();
        let root = t.open("mine");
        std::thread::sleep(Duration::from_millis(2));
        t.close(root);
        let busy = t.spans()[root].busy;
        assert!(t.check_run(run, busy).is_empty());
        // The caller's clock saw a much longer call than the root span.
        assert_eq!(t.check_run(run, busy * 2).len(), 1);
        // A child busy longer than its parent: a negative self time.
        t.record("phase2", Some(root), Instant::now(), busy * 3);
        let problems = t.check_run(run, busy);
        assert!(
            problems.iter().any(|p| p.contains("its children")),
            "{problems:?}"
        );
        // A second root in the same run.
        t.open("mine");
        assert!(t
            .check_run(run, busy)
            .iter()
            .any(|p| p.contains("root spans")));
    }

    #[test]
    fn timed_stream_counts_passes() {
        let m = RowMajorMatrix::from_rows(3, vec![vec![0, 1], vec![2], vec![]]).unwrap();
        let mut s = TimedStream::new(MemoryRowStream::new(&m));
        let mut buf = Vec::new();
        for _ in 0..2 {
            while s.read_row(&mut buf).unwrap().is_some() {}
            s.reset().unwrap();
        }
        let volumes: Vec<(u64, u64)> = s.passes().iter().map(|p| (p.rows, p.nnz)).collect();
        assert_eq!(volumes, [(3, 3), (3, 3)]);
    }
}
