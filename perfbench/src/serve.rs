//! The `serve` workload: the paper-scale weblog behind `sfa serve`,
//! driven by an open-loop client.
//!
//! **Traffic.** Requests are due on a fixed schedule whatever the server
//! does, in the [`PHASES`] of the window: the base rate, then two rungs
//! at higher rates. Every phase has the same mix, per thousand requests
//! [`MIX`] (`TOPK`, `SIM`, `PAIRS`, `INGEST`); `README.md` records where
//! each number comes from. The client holds one connection per core on
//! one thread each; a thread sends a request when it is due, or as soon
//! as the previous reply arrives if that is later, and times it from its
//! due time, so a stall also counts against the requests queued behind
//! it. How late the thread itself sent (beyond the due time and the
//! previous reply) is its lag; a run whose lag p99 exceeds
//! [`LAG_LIMIT_MS`] fails, so a slow client cannot pass for a slow
//! server.
//!
//! **Visibility.** Each `INGEST` row carries a column pair that no other
//! ingested row contains. Until the row is visible, the thread's next due
//! `SIM` asks about that pair instead, at most every [`PROBE_EVERY`];
//! the time from the ack until the intersection counts the row is the
//! row's visibility latency. Rows still waiting when the schedule ends
//! are probed until they are visible, so every acked row gives a sample.
//!
//! **Checks.** The startup snapshot's pairs are re-derived exactly; after
//! the last swap a sample of `SIM` replies must equal exact counts over
//! the base table plus the acked rows; the server's counters must
//! balance and agree with the client's.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use sfa_core::streaming::StreamingMiner;
use sfa_core::{CancelToken, ServingMetrics};
use sfa_hash::SeedSequence;
use sfa_matrix::{RowMajorMatrix, SparseMatrix};
use sfa_serve::protocol::fmt_sim;
use sfa_serve::{parse_request, IngestLog, Request, Server, ServerConfig, Snapshot};

use crate::inputs::{intersection, weblog};
use crate::report::{median, peak_rss_mb, reset_peak_rss, tail, Outcome};
use crate::trace::Trace;
use crate::{Run, Values, SETUP_REPS};

/// Serving threshold.
const S_STAR: f64 = 0.5;
/// Snapshot sketch size.
const K: usize = 128;
/// Candidate slack below `s*`.
const DELTA: f64 = 0.2;

/// One part of the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Requests due per second.
    pub rate: f64,
    /// Share of the timed window.
    pub share: f64,
}

/// The schedule, in order; each phase is a rung of the rate ladder.
/// Query latency is measured in the first. The rates are fractions of
/// the closed-loop capacity measured under [`MIX`] (see `README.md`).
pub const PHASES: [Phase; 3] = [
    Phase {
        rate: 5_000.0,
        share: 0.5,
    },
    Phase {
        rate: 10_000.0,
        share: 0.25,
    },
    Phase {
        rate: 20_000.0,
        share: 0.25,
    },
];
/// Query p99 limit of a rung, and the largest backlog it may end with.
pub const P99_LIMIT_US: f64 = 20_000.0;
/// Largest client lag p99 a valid run may have.
pub const LAG_LIMIT_MS: f64 = 10.0;
/// Requests per thousand: `TOPK`, `SIM`, `PAIRS`, `INGEST`. `TOPK` and
/// `SIM` share equally, as `sfa_experiments::loadgen` weights its verbs;
/// `INGEST` is 1%; `PAIRS` is rare, here as often as `INGEST`, which is
/// an assumption.
pub const MIX: [u32; 4] = [490, 490, 10, 10];
/// Threshold of every `PAIRS`: the highest `sfa_experiments::loadgen`
/// draws. Its lower ones list 4 800 to 15 800 pairs per reply on this
/// table, and at [`MIX`]'s share such replies set every latency tail.
const PAIRS_AT: &str = "0.9";
/// `Server::bind` samples per run; `mine_s` is their median.
const BIND_SAMPLES: usize = 15;
/// Pause between visibility probes of one ingested row.
const PROBE_EVERY: Duration = Duration::from_millis(5);
/// Exact `SIM` checks after the last swap.
const SIM_CHECKS: usize = 200;
/// Client socket read timeout: a reply later than this is a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest wait for the last ingested row to become visible.
const SETTLE_LIMIT: Duration = Duration::from_secs(30);

/// One scheduled request.
#[derive(Debug, Clone)]
struct Op {
    /// Offset of its due time from the start of the window.
    due: Duration,
    /// Index into [`PHASES`].
    phase: usize,
    line: String,
    /// The ingested row's index, for `INGEST`.
    ingest: Option<usize>,
}

/// An ingested row and the pair that reveals it.
#[derive(Debug, Clone)]
struct IngestRow {
    cols: Vec<u32>,
    probe: (u32, u32),
}

/// The seeded traffic of one run.
#[derive(Debug, Clone)]
struct Plan {
    ops: Vec<Op>,
    rows: Vec<IngestRow>,
}

/// The base table and what the checks need from it.
struct Data {
    columns: SparseMatrix,
    base: RowMajorMatrix,
}

/// One client thread's record.
#[derive(Debug, Default)]
struct ClientLog {
    sent: u64,
    failed: u64,
    failures: Vec<String>,
    /// Query latencies, microseconds, per phase, in schedule order.
    queries: Vec<Vec<f64>>,
    ingest_us: Vec<f64>,
    lag_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    /// `(row id, ingest index)` of every acked row.
    acked: Vec<(u64, usize)>,
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// A row waiting to become visible.
#[derive(Debug)]
struct Pending {
    probe: (u32, u32),
    expected: u64,
    acked: Instant,
    next: Instant,
}

/// One request/reply connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends one request line and reads its whole reply: the status line
    /// and, for `TOPK`/`PAIRS`, the `n` lines it announces.
    fn request(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut status = String::new();
        if self.reader.read_line(&mut status)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let mut reply = vec![status.trim_end().to_owned()];
        let multi = line.starts_with("TOPK") || line.starts_with("PAIRS");
        if multi && reply[0].starts_with("OK ") {
            let n: usize = reply[0][3..]
                .parse()
                .map_err(|_| std::io::Error::other("bad line count"))?;
            for _ in 0..n {
                let mut l = String::new();
                if self.reader.read_line(&mut l)? == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                reply.push(l.trim_end().to_owned());
            }
        }
        Ok(reply)
    }
}

/// The server configuration of a run.
fn server_config(seed: u64, state_dir: &Path, threads: usize) -> ServerConfig {
    ServerConfig {
        threads,
        s_star: S_STAR,
        delta: DELTA,
        k: K,
        seed,
        state_dir: Some(state_dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// Runs the `serve` workload and returns its outcome.
///
/// # Errors
///
/// Set-up failures: the server could not be bound or the client could
/// not connect.
pub fn run(run: &Run, work: &Path) -> sfa_matrix::Result<Outcome> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut binds = Vec::with_capacity(BIND_SAMPLES);
    let mut bound = None;
    for rep in 0..SETUP_REPS {
        drop(bound.take());
        let state = work.join(format!("state-{rep}"));
        let t = Instant::now();
        let data = weblog(run.seed).generate();
        let base = data.matrix.transpose();
        let b = Instant::now();
        let server = Server::bind(server_config(run.seed, &state, threads), &base)?;
        binds.push(b.elapsed().as_secs_f64());
        setup.push(t.elapsed().as_secs_f64());
        bound = Some((
            server,
            Data {
                columns: data.matrix,
                base,
            },
        ));
    }
    let (server, data) = bound.expect("at least one set-up");
    // More startup mines of the same table, so that `mine_s` is the
    // median of enough samples to hold still between runs.
    for rep in SETUP_REPS..BIND_SAMPLES {
        let state = work.join(format!("state-{rep}"));
        let b = Instant::now();
        drop(Server::bind(
            server_config(run.seed, &state, threads),
            &data.base,
        )?);
        binds.push(b.elapsed().as_secs_f64());
    }
    let addr = server.local_addr()?;
    let plan = plan(run, &data);
    println!(
        "serve: {} rows x {} columns, {} nonzeros; {} requests due, {} ingests; bind samples {binds:.3?}",
        data.base.n_rows(),
        data.base.n_cols(),
        data.base.nnz(),
        plan.ops.len(),
        plan.rows.len()
    );

    let mut o = Outcome::default();
    let cancel = CancelToken::new();
    let mut startup_pairs = Vec::new();
    let mut logs = Vec::new();
    let mut peak = 0.0;
    let mut checks_sent = 0u64;
    let served: sfa_matrix::Result<ServingMetrics> = std::thread::scope(|s| {
        let server_thread = s.spawn(|| server.run(&cancel));
        let mut client = || -> std::io::Result<()> {
            // The startup snapshot's pairs, before any ingest.
            let mut conn = Conn::open(addr)?;
            startup_pairs = conn.request(&format!("PAIRS {S_STAR}"))?;
            checks_sent += 1;
            drop(conn);
            reset_peak_rss()?;
            let origin = Instant::now() + Duration::from_millis(20);
            let conns = (0..threads)
                .map(|_| Conn::open(addr))
                .collect::<std::io::Result<Vec<_>>>()?;
            let results: Vec<(Conn, ClientLog)> = std::thread::scope(|cs| {
                let handles: Vec<_> = conns
                    .into_iter()
                    .enumerate()
                    .map(|(c, conn)| {
                        let plan = &plan;
                        let data = &data;
                        cs.spawn(move || client_thread(conn, c, threads, plan, data, origin))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            peak = peak_rss_mb()?;
            let mut conns = Vec::new();
            for (conn, log) in results {
                conns.push(conn);
                logs.push(log);
            }
            let mut conn = conns.swap_remove(0);
            drop(conns);
            let (sent, failures) = final_checks(&mut conn, &plan, &data, &logs);
            checks_sent += sent;
            for f in failures {
                o.check(false, || f);
            }
            Ok(())
        };
        let client_result = client();
        cancel.cancel();
        let metrics = server_thread.join().expect("server thread panicked");
        client_result?;
        metrics
    });
    let served = served?;

    // Tally the client.
    let sent: u64 = logs.iter().map(|l| l.sent).sum::<u64>() + checks_sent;
    let acked: Vec<(u64, usize)> = {
        let mut a: Vec<(u64, usize)> = logs.iter().flat_map(|l| l.acked.iter().copied()).collect();
        a.sort_unstable();
        a
    };
    for log in &logs {
        o.attempted += log.sent;
        o.failed += log.failed;
        o.check_failures.extend(log.failures.iter().cloned());
    }
    o.check(served.balances(), || {
        format!("server counters do not balance: {served:?}")
    });
    o.check(served.accepted == sent, || {
        format!(
            "client sent {sent} requests, server accepted {}",
            served.accepted
        )
    });
    o.check(served.ingested_rows == acked.len() as u64, || {
        format!(
            "client saw {} ingest acks, server ingested {} rows",
            acked.len(),
            served.ingested_rows
        )
    });
    let lags: Vec<f64> = logs.iter().flat_map(|l| l.lag_ms.iter().copied()).collect();
    let lag_p99 = tail(&lags, 0.99);
    o.check(lag_p99 <= LAG_LIMIT_MS, || {
        format!("client lag p99 {lag_p99:.3} ms exceeds {LAG_LIMIT_MS} ms")
    });

    // Recall of the startup snapshot, against exact pairs of the base.
    let t = Instant::now();
    let (recall, pair_failures) = startup_recall(&startup_pairs, &data.columns);
    println!(
        "serve: recall {recall:.4} over {} startup pairs, exact pass {:.2} s",
        startup_pairs.len().saturating_sub(1),
        t.elapsed().as_secs_f64()
    );
    for f in pair_failures {
        o.check(false, || f);
    }

    let phase_queries: Vec<Vec<f64>> = (0..PHASES.len())
        .map(|r| {
            logs.iter()
                .flat_map(|l| l.queries[r].iter().copied())
                .collect()
        })
        .collect();
    let mut slo = 0.0;
    let mut passing = true;
    for (r, phase) in PHASES.iter().enumerate() {
        let rate = phase.rate;
        let q = crate::report::sorted(&phase_queries[r]);
        let at = |p: f64| crate::report::quantile(&q, p);
        let p99 = tail(&q, 0.99);
        // A growing backlog shows as late requests at the end of the
        // rung: the median latency of each thread's last tenth.
        let backlog = logs
            .iter()
            .map(|l| {
                let rung = &l.queries[r];
                median(&rung[rung.len() - rung.len() / 10..])
            })
            .fold(0.0, f64::max);
        println!(
            "serve: {rate} req/s: {} queries, p50 {:.1} us, p90 {:.1} us, p99 {p99:.1} us, \
             p99.9 {:.1} us, max {:.1} us, backlog {backlog:.1} us",
            q.len(),
            at(0.5),
            at(0.9),
            at(0.999),
            at(1.0)
        );
        passing &= p99 <= P99_LIMIT_US && backlog <= P99_LIMIT_US;
        if passing {
            slo = rate;
        }
    }
    let visible: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.visible_ms.iter().copied())
        .collect();
    let ingest_us: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.ingest_us.iter().copied())
        .collect();
    println!(
        "serve: {sent} requests sent, {} visibility samples, {} ingests acked, lag p99 {lag_p99:.3} ms, {} swaps",
        visible.len(),
        acked.len(),
        served.snapshot_swaps
    );

    if run.trace {
        let mut l = Values::per_layer();
        l.set("serve.bind_s", median(&binds));
        l.set("serve.swaps", served.snapshot_swaps as f64);
        l.set("serve.server_p50_us", served.p50_micros as f64);
        l.set("serve.server_p99_us", served.p99_micros as f64);
        l.set("serve.query_p99_us", tail(&phase_queries[0], 0.99));
        l.set("serve.ingest_p99_us", tail(&ingest_us, 0.99));
        l.set("loadgen.lag_p99_ms", lag_p99);
        l.set("loadgen.sent", sent as f64);
        let rows: Vec<Vec<u32>> = acked
            .iter()
            .map(|&(_, i)| plan.rows[i].cols.clone())
            .collect();
        direct_layers(run.seed, work, &data, &plan, &rows, &mut l, &mut o)?;
        o.metrics = l.into_metrics();
    } else {
        let mut m = Values::end_to_end();
        m.set("setup_s", median(&setup));
        m.set("mine_s", median(&binds));
        m.set("recall", recall);
        m.set("peak_rss_mb", peak);
        m.set("ok_rate", o.ok_rate());
        m.set("request_p50_us", median(&phase_queries[0]));
        m.set("visible_p50_ms", median(&visible));
        m.set("visible_p90_ms", tail(&visible, 0.90));
        m.set("throughput_per_s", slo);
        o.metrics = m.into_metrics();
    }
    Ok(o)
}

/// The seeded schedule: the phases, the request mix, and ingest rows
/// whose probe pairs are unique among all ingested rows. Columns are
/// uniform and `TOPK` asks for 1 to 8 partners, as
/// `sfa_experiments::loadgen` draws them; `PAIRS` asks at [`PAIRS_AT`].
/// An ingested row is a copy of a base row with at least two columns, so
/// new rows look like the table's.
fn plan(run: &Run, data: &Data) -> Plan {
    let mut rng = SeedSequence::new(run.seed ^ 0x5e7e_b3c4);
    let mut pick = |n: usize| (rng.next_seed() % n as u64) as usize;
    let n_cols = data.base.n_cols() as usize;
    let rows_with_pairs: Vec<u32> = data
        .base
        .rows()
        .filter(|(_, cols)| cols.len() > 1)
        .map(|(id, _)| id)
        .collect();

    let mut ops = Vec::new();
    let mut ingest_rows = Vec::new();
    let mut start = 0.0;
    for (phase, &Phase { rate, share }) in PHASES.iter().enumerate() {
        let len = run.seconds * share;
        let n = (rate * len) as usize;
        for i in 0..n {
            let due = Duration::from_secs_f64(start + i as f64 / rate);
            let mut ingest = None;
            let roll = pick(1000) as u32;
            let line = if roll < MIX[0] {
                format!("TOPK {} {}", pick(n_cols), 1 + pick(8))
            } else if roll < MIX[0] + MIX[1] {
                format!("SIM {} {}", pick(n_cols), pick(n_cols))
            } else if roll < MIX[0] + MIX[1] + MIX[2] {
                format!("PAIRS {PAIRS_AT}")
            } else {
                ingest = Some(ingest_rows.len());
                ingest_rows.push(rows_with_pairs[pick(rows_with_pairs.len())]);
                String::new()
            };
            ops.push(Op {
                due,
                phase,
                line,
                ingest,
            });
        }
        start += len;
    }

    // Redraw rows until each holds a pair no other ingested row holds.
    let mut rows: Vec<Vec<u32>> = ingest_rows
        .iter()
        .map(|&r| data.base.row(r).to_vec())
        .collect();
    let mut probes = vec![None; rows.len()];
    for _ in 0..100 {
        let mut counts: HashMap<(u32, u32), u32> = HashMap::new();
        for row in &rows {
            for (x, &a) in row.iter().enumerate() {
                for &b in &row[x + 1..] {
                    *counts.entry((a, b)).or_default() += 1;
                }
            }
        }
        let mut redrawn = false;
        for (row, probe) in rows.iter_mut().zip(&mut probes) {
            *probe = row.iter().enumerate().find_map(|(x, &a)| {
                row[x + 1..]
                    .iter()
                    .find(|&&b| counts[&(a, b)] == 1)
                    .map(|&b| (a, b))
            });
            if probe.is_none() {
                *row = data
                    .base
                    .row(rows_with_pairs[pick(rows_with_pairs.len())])
                    .to_vec();
                redrawn = true;
            }
        }
        if !redrawn {
            break;
        }
    }
    let rows: Vec<IngestRow> = rows
        .into_iter()
        .zip(probes)
        .map(|(cols, probe)| IngestRow {
            cols,
            probe: probe.expect("every ingested row has a unique probe pair"),
        })
        .collect();
    for op in &mut ops {
        if let Some(i) = op.ingest {
            let cols: Vec<String> = rows[i].cols.iter().map(u32::to_string).collect();
            op.line = format!("INGEST {}", cols.join(" "));
        }
    }
    Plan { ops, rows }
}

/// One client thread: its share of the schedule on its own connection.
/// While an ingested row of this thread waits to become visible, a due
/// `SIM` request asks about the row's probe pair instead, at most once
/// per [`PROBE_EVERY`]; the schedule itself never changes.
fn client_thread(
    mut conn: Conn,
    c: usize,
    threads: usize,
    plan: &Plan,
    data: &Data,
    origin: Instant,
) -> (Conn, ClientLog) {
    let mut log = ClientLog {
        queries: vec![Vec::new(); PHASES.len()],
        ..ClientLog::default()
    };
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut prev_done = origin;
    let mut broken = false;
    for op in plan.ops.iter().skip(c).step_by(threads) {
        log.sent += 1;
        if broken {
            log.fail(format!("not sent after a connection failure: {}", op.line));
            continue;
        }
        let due = origin + op.due;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let probe = pending
            .front()
            .filter(|p| op.line.starts_with("SIM ") && Instant::now() >= p.next)
            .map(|p| format!("SIM {} {}", p.probe.0, p.probe.1));
        let send = Instant::now();
        log.lag_ms.push(
            send.saturating_duration_since(due.max(prev_done))
                .as_secs_f64()
                * 1e3,
        );
        let reply = conn.request(probe.as_deref().unwrap_or(&op.line));
        let done = Instant::now();
        prev_done = done;
        let latency_us = (done - due).as_secs_f64() * 1e6;
        let reply = match reply {
            Ok(reply) if reply[0] == "OK" || reply[0].starts_with("OK ") => reply,
            Ok(reply) => {
                log.fail(format!("{} answered {:?}", op.line, reply[0]));
                continue;
            }
            Err(e) => {
                log.fail(format!("{} failed: {e}", op.line));
                broken = true;
                continue;
            }
        };
        let Some(i) = op.ingest else {
            log.queries[op.phase].push(latency_us);
            if probe.is_some() {
                let p = pending.front_mut().expect("a probe was pending");
                match sim_counts(&reply[0]) {
                    Some((inter, _)) if inter >= p.expected => {
                        log.visible_ms.push((done - p.acked).as_secs_f64() * 1e3);
                        pending.pop_front();
                    }
                    Some(_) => p.next = done + PROBE_EVERY,
                    None => {
                        log.fail(format!("probe answered {:?}", reply[0]));
                        pending.pop_front();
                    }
                }
            }
            continue;
        };
        log.ingest_us.push(latency_us);
        let Ok(row_id) = reply[0][3..].parse::<u64>() else {
            log.fail(format!("ingest ack {:?}", reply[0]));
            continue;
        };
        log.acked.push((row_id, i));
        let (a, b) = plan.rows[i].probe;
        let base = intersection(data.columns.column(a), data.columns.column(b));
        // The next due `SIM` asks at once: rows folded into a snapshot
        // together become visible together.
        pending.push_back(Pending {
            probe: (a, b),
            expected: u64::from(base) + 1,
            acked: done,
            next: done,
        });
    }
    // Rows acked near the end of the schedule wait longest; keep probing
    // them, so that the visibility samples include them.
    let deadline = Instant::now() + SETTLE_LIMIT;
    while let Some(p) = pending.front_mut().filter(|_| !broken) {
        let now = Instant::now();
        if now < p.next {
            std::thread::sleep(p.next - now);
        }
        log.sent += 1;
        let reply = conn.request(&format!("SIM {} {}", p.probe.0, p.probe.1));
        let done = Instant::now();
        match reply.as_ref().map(|r| sim_counts(&r[0])) {
            Ok(Some((inter, _))) if inter >= p.expected => {
                log.visible_ms.push((done - p.acked).as_secs_f64() * 1e3);
                pending.pop_front();
            }
            Ok(Some(_)) if done < deadline => p.next = done + PROBE_EVERY,
            other => {
                broken = other.is_err();
                log.fail(format!("an acked row never became visible: {other:?}"));
                pending.pop_front();
            }
        }
    }
    (conn, log)
}

/// `(intersection, union)` of a `SIM` reply.
fn sim_counts(status: &str) -> Option<(u64, u64)> {
    let mut t = status.strip_prefix("OK ")?.split(' ');
    let _sim = t.next()?;
    Some((t.next()?.parse().ok()?, t.next()?.parse().ok()?))
}

/// After the schedule: wait until the last acked row is visible, then
/// compare a sample of `SIM` replies and `HEALTH` against exact counts
/// over the base table plus every acked row. Returns the requests sent
/// and the failed checks.
fn final_checks(
    conn: &mut Conn,
    plan: &Plan,
    data: &Data,
    logs: &[ClientLog],
) -> (u64, Vec<String>) {
    let mut sent = 0u64;
    let mut failures = Vec::new();
    let acked: Vec<usize> = logs
        .iter()
        .flat_map(|l| l.acked.iter().map(|&(_, i)| i))
        .collect();
    let last = logs
        .iter()
        .flat_map(|l| l.acked.iter())
        .max()
        .map(|&(_, i)| i);
    let with_rows = |a: u32, b: u32| -> (u64, u64) {
        let (ca, cb) = (data.columns.column(a), data.columns.column(b));
        let mut inter = u64::from(intersection(ca, cb));
        let (mut na, mut nb) = (ca.len() as u64, cb.len() as u64);
        for &i in &acked {
            let row = &plan.rows[i].cols;
            let (ha, hb) = (row.binary_search(&a).is_ok(), row.binary_search(&b).is_ok());
            na += u64::from(ha);
            nb += u64::from(hb);
            inter += u64::from(ha && hb);
        }
        (inter, na + nb - inter)
    };
    if let Some(i) = last {
        let (a, b) = plan.rows[i].probe;
        let expected = with_rows(a, b).0;
        let deadline = Instant::now() + SETTLE_LIMIT;
        loop {
            sent += 1;
            match conn
                .request(&format!("SIM {a} {b}"))
                .map(|r| sim_counts(&r[0]))
            {
                Ok(Some((inter, _))) if inter >= expected => break,
                Ok(Some(_)) if Instant::now() < deadline => std::thread::sleep(PROBE_EVERY),
                other => {
                    failures.push(format!("last ingested row never became visible: {other:?}"));
                    return (sent, failures);
                }
            }
        }
    }
    let mut rng = SeedSequence::new(plan.ops.len() as u64);
    let n_cols = data.base.n_cols();
    for x in 0..SIM_CHECKS {
        let (a, b) = if x % 2 == 0 && !plan.rows.is_empty() {
            plan.rows[(rng.next_seed() % plan.rows.len() as u64) as usize].probe
        } else {
            let a = (rng.next_seed() % u64::from(n_cols)) as u32;
            (a, (rng.next_seed() % u64::from(n_cols)) as u32)
        };
        let (inter, union) = with_rows(a, b);
        if union == 0 {
            continue;
        }
        sent += 1;
        let want = format!(
            "OK {} {inter} {union}",
            fmt_sim(inter as f64 / union as f64)
        );
        match conn.request(&format!("SIM {a} {b}")) {
            Ok(reply) if reply[0] == want => {}
            other => failures.push(format!("SIM {a} {b}: expected {want:?}, got {other:?}")),
        }
    }
    sent += 1;
    let rows = u64::from(data.base.n_rows()) + acked.len() as u64;
    match conn.request("HEALTH") {
        Ok(reply) if reply[0].contains(&format!(" rows={rows} ")) => {}
        other => failures.push(format!("HEALTH should report rows={rows}, got {other:?}")),
    }
    (sent, failures)
}

/// Recall of the startup snapshot's `PAIRS` reply against the exact
/// pairs at `s*`, after re-deriving every listed pair's similarity.
fn startup_recall(reply: &[String], columns: &SparseMatrix) -> (f64, Vec<String>) {
    let mut failures = Vec::new();
    let mut listed = Vec::new();
    for line in reply.iter().skip(1) {
        let parts: Vec<&str> = line.split(' ').collect();
        let parsed = match parts[..] {
            [i, j, sim] => i
                .parse::<u32>()
                .ok()
                .zip(j.parse::<u32>().ok())
                .map(|p| (p, sim)),
            _ => None,
        };
        let Some(((i, j), sim)) = parsed.filter(|((i, j), _)| (*i).max(*j) < columns.n_cols())
        else {
            failures.push(format!("PAIRS line {line:?}"));
            continue;
        };
        let (a, b) = (columns.column(i), columns.column(j));
        let inter = intersection(a, b);
        let exact = f64::from(inter) / (a.len() + b.len() - inter as usize) as f64;
        if exact < S_STAR || fmt_sim(exact) != sim {
            failures.push(format!("pair ({i}, {j}) listed at {sim}, exact {exact}"));
        }
        listed.push((i.min(j), i.max(j)));
    }
    listed.sort_unstable();
    let truth = sfa_matrix::stats::exact_similar_pairs(columns, S_STAR);
    let found = truth
        .iter()
        .filter(|p| listed.binary_search(&(p.i.min(p.j), p.i.max(p.j))).is_ok())
        .count();
    (found as f64 / truth.len().max(1) as f64, failures)
}

/// The traced run's direct calls into the serve layers, without a
/// socket: rebuild and fold, index lookups, request parsing, and the
/// ingest log.
fn direct_layers(
    seed: u64,
    work: &Path,
    data: &Data,
    plan: &Plan,
    rows: &[Vec<u32>],
    l: &mut Values,
    o: &mut Outcome,
) -> sfa_matrix::Result<()> {
    let mut trace = Trace::new();
    trace.next_run();
    let base: Vec<Vec<u32>> = data.base.rows().map(|(_, c)| c.to_vec()).collect();
    let mut miner = StreamingMiner::from_rows(data.base.n_cols(), K, seed, &base);
    trace.time("serve.fold", || {
        for row in rows {
            miner.push_row(row);
        }
    });
    let mut rebuilds = Vec::new();
    let mut snapshot = None;
    for epoch in 0..2 {
        let id = trace.open("serve.rebuild");
        snapshot = Some(Snapshot::build_from_miner(epoch, &miner, S_STAR, DELTA)?);
        trace.close(id);
        rebuilds.push(trace.spans()[id].busy.as_secs_f64());
    }
    let snapshot = snapshot.expect("built");
    // Per-call time of `f` over `items`: the median of 1 000-call batches.
    fn per_call_us<T>(trace: &mut Trace, name: &'static str, items: &[T], f: impl Fn(&T)) -> f64 {
        let batches: Vec<f64> = items
            .chunks(1000)
            .map(|chunk| {
                let id = trace.open(name);
                chunk.iter().for_each(&f);
                trace.close(id);
                trace.spans()[id].busy.as_secs_f64() * 1e6 / chunk.len() as f64
            })
            .collect();
        median(&batches)
    }
    let lines: Vec<&str> = plan.ops.iter().map(|op| op.line.as_str()).collect();
    let parse_us = per_call_us(&mut trace, "serve.parse", &lines, |line| {
        std::hint::black_box(parse_request(line.as_bytes()).is_ok());
    });
    let requests: Vec<Request> = lines
        .iter()
        .filter_map(|line| parse_request(line.as_bytes()).ok())
        .collect();
    let topks: Vec<(u32, usize)> = requests
        .iter()
        .filter_map(|r| match *r {
            Request::TopK { col, k } => Some((col, k)),
            _ => None,
        })
        .collect();
    let sims: Vec<(u32, u32)> = requests
        .iter()
        .filter_map(|r| match *r {
            Request::Sim { a, b } => Some((a, b)),
            _ => None,
        })
        .collect();
    let topk_us = per_call_us(&mut trace, "serve.topk", &topks, |&(col, k)| {
        std::hint::black_box(snapshot.top_k(col, k).len());
    });
    let sim_us = per_call_us(&mut trace, "serve.sim", &sims, |&(a, b)| {
        std::hint::black_box(snapshot.similarity(a, b));
    });
    let wal_dir = work.join("wal");
    let log = IngestLog::open(&wal_dir, data.base.n_cols())?;
    let mut flushes = Vec::new();
    for _ in 0..3 {
        let id = trace.open("serve.wal_flush");
        log.flush(rows)?;
        trace.close(id);
        flushes.push(trace.spans()[id].busy.as_secs_f64());
    }
    let wal_bytes: u64 = std::fs::read_dir(&wal_dir)?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    o.check(log.replay()? == rows, || {
        "the ingest log does not replay the acked rows".to_owned()
    });
    print!("{}", trace.render());
    let fold = trace
        .spans()
        .iter()
        .find(|s| s.name == "serve.fold")
        .map_or(0.0, |s| s.busy.as_secs_f64());
    l.set("serve.fold_s", fold);
    l.set("serve.rebuild_s", median(&rebuilds));
    l.set("serve.topk_us", topk_us);
    l.set("serve.sim_us", sim_us);
    l.set("serve.parse_us", parse_us);
    l.set("serve.wal_flush_s", median(&flushes));
    l.set("serve.wal_bytes", wal_bytes as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Workload, DEFAULT_SEED};

    /// The schedule holds the documented mix in every phase, every line is
    /// a valid request, and every ingested row has its own probe pair.
    #[test]
    fn the_plan_follows_the_mix() {
        let generated = weblog(DEFAULT_SEED).generate();
        let data = Data {
            base: generated.matrix.transpose(),
            columns: generated.matrix,
        };
        let run = Run {
            workload: Workload::Serve,
            seed: DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
        };
        let plan = plan(&run, &data);
        for (p, phase) in PHASES.iter().enumerate() {
            let ops: Vec<&Op> = plan.ops.iter().filter(|op| op.phase == p).collect();
            assert_eq!(ops.len(), (phase.rate * run.seconds * phase.share) as usize);
            for (verb, &per_mille) in ["TOPK ", "SIM ", "PAIRS ", "INGEST "].iter().zip(&MIX) {
                let n = ops.iter().filter(|op| op.line.starts_with(verb)).count();
                let share = n as f64 * 1000.0 / ops.len() as f64;
                assert!(
                    (share - f64::from(per_mille)).abs() <= 0.1 * f64::from(per_mille) + 1.0,
                    "phase {p}: {verb} at {share:.1} per mille, expected {per_mille}"
                );
            }
        }
        assert!(plan
            .ops
            .iter()
            .all(|op| parse_request(op.line.as_bytes()).is_ok()));
        let mut probes: Vec<(u32, u32)> = plan.rows.iter().map(|r| r.probe).collect();
        probes.sort_unstable();
        probes.dedup();
        assert_eq!(probes.len(), plan.rows.len());
    }
}
