//! `serve`: a small-state wire workload heavy on the service layers.
//!
//! A child `pcs-serve --data-dir <dir>` (write-ahead log synced on every
//! update) loads the flights program over `programs::flights_database(6,
//! 10)` with strategy `constraint`.  Connections send an **open loop** at a
//! fixed rate, each connection cycling insert / query / query / retract:
//! the insert adds a leg `p<conn>_<j> -> madison` from a fresh city, the
//! first query asks for flights from that city to `seattle` (so it needs
//! the insert), the second asks `madison -> seattle`, and the retract
//! removes the leg again.  No connection's legs can lie on another's
//! queried paths, so every answer is known in advance.  Latency runs from
//! each request's due time.
//!
//! Requests are not pipelined: a connection sends its next request once
//! the previous reply is in (late if need be, which is reported).  The
//! server does not set `TCP_NODELAY`, and a pipelined client locks it into
//! holding every reply until the client's next request carries the
//! delayed ACK — a latency of one send interval that says nothing about
//! the server's own work.

use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pcs_core::programs;
use pcs_service::{SessionHub, SessionLimits, Shell};

use crate::gen::Rng;
use crate::host::{self, file_len, TOGGLES};
use crate::reference::{parse_answer_line, FlightGraph};
use crate::schedule::OpenLoop;
use crate::stats::{median, ms, quantile, ratio, tail};
use crate::trace::{Samples, Tracer};
use crate::{Config, Outcome, Tally};

/// Offered load of the measured loop, in operations per second over all
/// connections.
pub const RATE: f64 = 400.0;
/// Most connections; fewer on a machine with fewer processors.
pub const CONNECTIONS: usize = 2;
/// Rates the capacity ladder steps through, in operations per second.
pub const LADDER: [f64; 5] = [500.0, 1000.0, 2000.0, 4000.0, 8000.0];
/// Length of one ladder rung.
const RUNG: Duration = Duration::from_millis(1000);
/// The query latency limit a ladder rate must meet (at [`LADDER_TAIL`]).
pub const LIMIT_MS: f64 = 10.0;
/// The percentile checked against [`LIMIT_MS`] on a rung (the longest with
/// ten samples beyond it on the lowest rung).
pub const LADDER_TAIL: f64 = 0.95;
/// The percentile the measured loop's tails report.
pub const TAIL: f64 = 0.99;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Idle time before anything else.  Right after minutes of full load (the
/// other workloads), a 2-vCPU virtual machine was seen to answer
/// sub-millisecond round trips up to half again slower for minutes while
/// kept lightly busy, but to recover within seconds when idle; without the
/// pause, serve's figures depend on which workload ran before it.
const SETTLE: Duration = Duration::from_secs(10);
/// Untimed load before the timed loop, so the processor, the server's
/// threads and the session are warm.
const WARMUP: Duration = Duration::from_secs(2);
/// Operations the in-process shell comparison executes.
const SHELL_OPS: u64 = 400;

/// A request of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Insert,
    Query,
    Retract,
}

/// One scheduled request and what its reply must say.
struct Request {
    line: String,
    kind: Kind,
    expect: Option<BTreeSet<(i64, i64)>>,
}

/// The request sequence of one connection.
struct Script {
    base: FlightGraph,
    base_answers: BTreeSet<(i64, i64)>,
    prefix: String,
    seed: u64,
}

impl Script {
    fn new(base: &FlightGraph, seed: u64, prefix: String) -> Script {
        Script {
            base: base.clone(),
            base_answers: base.answers("madison", "seattle"),
            prefix,
            seed,
        }
    }

    /// The `i`-th request: cycle `i / 4`, step `i % 4`.
    fn request(&mut self, i: u64) -> Request {
        let cycle = i / 4;
        let mut rng = Rng::new(self.seed, 0x5e_0000 ^ cycle);
        let (time, cost) = (rng.range(20, 150) as i64, rng.range(10, 120) as i64);
        let city = format!("{}_{cycle}", self.prefix);
        let leg = format!("singleleg({city}, madison, {time}, {cost}).");
        match i % 4 {
            0 => Request {
                line: format!("+{leg}"),
                kind: Kind::Insert,
                expect: None,
            },
            1 => {
                self.base.add(&city, "madison", time, cost);
                let expect = self.base.answers(&city, "seattle");
                self.base.remove(&city, "madison", time, cost);
                Request {
                    line: format!("?- cheaporshort({city}, seattle, T, C)."),
                    kind: Kind::Query,
                    expect: Some(expect),
                }
            }
            2 => Request {
                line: "?- cheaporshort(madison, seattle, T, C).".to_string(),
                kind: Kind::Query,
                expect: Some(self.base_answers.clone()),
            },
            _ => Request {
                line: format!("-{leg}"),
                kind: Kind::Retract,
                expect: None,
            },
        }
    }
}

/// The first `n` request lines of one connection's script.
pub fn script_lines(seed: u64, prefix: &str, n: u64) -> Vec<String> {
    let mut script = Script::new(&base_graph(), seed, prefix.to_string());
    (0..n).map(|i| script.request(i).line).collect()
}

/// Checks one reply against its request.
fn check_reply(request: &Request, reply: &[String], tally: &mut Tally) {
    let head = reply.first().map_or("", String::as_str);
    match &request.expect {
        None => {
            if !head.starts_with("ok: epoch") {
                tally.fail(format!("`{}` answered `{head}`", request.line));
            }
        }
        Some(want) => {
            if !head.starts_with("answers: ") {
                tally.fail(format!("`{}` answered `{head}`", request.line));
                return;
            }
            let got: Option<BTreeSet<(i64, i64)>> =
                reply[1..].iter().map(|l| parse_answer_line(l)).collect();
            tally.check(&request.line, got, want);
        }
    }
}

/// A line-protocol client that reverses the server's dot-stuffing.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        client.read_frame()?; // greeting
        Ok(client)
    }

    fn read_frame(&mut self) -> io::Result<Vec<String>> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-frame",
                ));
            }
            let line = line.trim_end_matches(['\n', '\r']);
            if line == "." {
                return Ok(lines);
            }
            lines.push(line.strip_prefix('.').unwrap_or(line).to_string());
        }
    }

    fn send(&mut self, line: &str) -> io::Result<Vec<String>> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_frame()
    }
}

/// The lines that load the workload: strategy, program, base facts.
fn load_lines() -> Vec<String> {
    let mut lines = vec![".strategy constraint".to_string(), ".load".to_string()];
    for line in programs::flights().to_string().lines() {
        if !line.trim().is_empty() {
            lines.push(line.to_string());
        }
    }
    for fact in programs::flights_database(6, 10).all_facts() {
        lines.push(format!("+{}.", fact.rule_text()));
    }
    lines.push(".end".to_string());
    lines
}

/// The base network as the reference sees it.
fn base_graph() -> FlightGraph {
    let mut graph = FlightGraph::new();
    for fact in programs::flights_database(6, 10).all_facts() {
        let values = fact.ground_values().expect("base legs are ground");
        let number = |i: usize| values[i].to_string().parse::<i64>().expect("integral leg");
        graph.add(
            &values[0].to_string(),
            &values[1].to_string(),
            number(2),
            number(3),
        );
    }
    graph
}

/// A child `pcs-serve`; killed and reaped on drop.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    dir: PathBuf,
}

impl Server {
    /// Starts `pcs-serve` on an ephemeral port over a fresh data directory
    /// and loads the workload.
    fn start(dir: &Path, telemetry: bool) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let bin = std::env::current_exe()
            .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?
            .with_file_name("pcs-serve");
        let mut command = Command::new(&bin);
        command
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        for name in TOGGLES {
            command.env_remove(name);
        }
        if telemetry {
            command.env("PCS_TELEMETRY", "on");
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let addr = loop {
            let mut line = String::new();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("pcs-serve exited before listening".to_string());
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("pcs-serve: listening on ") {
                match addr.parse() {
                    Ok(addr) => break addr,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("bad listening address `{addr}`: {e}"));
                    }
                }
            }
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
            dir: dir.to_path_buf(),
        };
        let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        let mut reply = Vec::new();
        for line in load_lines() {
            reply = client
                .send(&line)
                .map_err(|e| format!("load failed at `{line}`: {e}"))?;
        }
        if !reply
            .first()
            .is_some_and(|l| l.starts_with("ok: materialized"))
        {
            return Err(format!("load failed: {reply:?}"));
        }
        Ok(server)
    }

    /// The first file called `name` under the data directory.
    fn data_file(&self, name: &str) -> PathBuf {
        std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|entry| entry.path().join(name))
            .find(|path| path.exists())
            .unwrap_or_else(|| self.dir.join(name))
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        host::peak_rss_mib(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One open-loop phase's figures.
#[derive(Default)]
struct Phase {
    query_ms: Vec<f64>,
    update_ms: Vec<f64>,
    /// `(due, replied)` of every request, in due order.
    replies: Vec<(Instant, Instant)>,
    late_ms: Vec<f64>,
    completed: u64,
    elapsed: Duration,
    tally: Tally,
}

/// What an open-loop phase drives.
#[derive(Clone, Copy)]
struct Target<'a> {
    server: &'a Server,
    graph: &'a FlightGraph,
    seed: u64,
    connections: usize,
}

/// Drives the target's connections at `rate` for `length`;
/// `tag` keeps the fresh city names of different phases apart.
fn open_loop(
    target: Target<'_>,
    tag: &str,
    rate: f64,
    length: Duration,
    tracer: Option<&mut Tracer>,
) -> Phase {
    let Target {
        server,
        graph,
        seed,
        connections,
    } = target;
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + length;
    let per_connection = rate / connections as f64;
    let results: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let mut script = Script::new(graph, seed, format!("{tag}{c}"));
                // Stagger the connections evenly within one interval.
                let first = start + Duration::from_secs_f64(c as f64 / rate);
                scope.spawn(move || {
                    drive_connection(server.addr, &mut script, first, end, per_connection)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let mut phase = Phase::default();
    for part in results {
        phase.query_ms.extend(part.query_ms);
        phase.update_ms.extend(part.update_ms);
        phase.replies.extend(part.replies);
        phase.late_ms.extend(part.late_ms);
        phase.completed += part.completed;
        phase.tally.merge(part.tally);
    }
    phase.replies.sort();
    let last = phase.replies.iter().map(|&(_, done)| done).max();
    phase.elapsed = last.map_or(Duration::ZERO, |last| last.saturating_duration_since(start));
    if let Some(tracer) = tracer {
        // Client-side round trips, recorded after the fact so tracing adds
        // nothing to the loop.
        for &(due, done) in &phase.replies {
            tracer.next_op();
            tracer.record("server.round_trip", due, done);
        }
    }
    phase
}

/// One connection on the open-loop schedule.  A request is sent at its
/// due time, or as soon as the previous reply is in when that comes later.
/// In the second case latency runs from the due time, so a stall counts
/// against every request it delays; in the first it runs from the send,
/// so the sender's own timer slack is not charged to the server.  Both
/// delays show as lateness.
fn drive_connection(
    addr: SocketAddr,
    script: &mut Script,
    first: Instant,
    end: Instant,
    rate: f64,
) -> Phase {
    let mut phase = Phase::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            phase.tally.attempt();
            phase.tally.fail(format!("cannot connect: {e}"));
            return phase;
        }
    };
    let mut previous_done = first;
    let lateness = OpenLoop::new(first, rate).drive(end, |i, due| {
        let request = script.request(i);
        let start = if previous_done > due {
            due
        } else {
            Instant::now()
        };
        phase.tally.attempt();
        match client.send(&request.line) {
            Ok(reply) => {
                let done = Instant::now();
                previous_done = done;
                let latency = ms(done.saturating_duration_since(start));
                match request.kind {
                    Kind::Query => phase.query_ms.push(latency),
                    Kind::Insert | Kind::Retract => phase.update_ms.push(latency),
                }
                phase.completed += 1;
                phase.replies.push((due, done));
                check_reply(&request, &reply, &mut phase.tally);
                true
            }
            Err(e) => {
                phase
                    .tally
                    .fail(format!("`{}`: no reply: {e}", request.line));
                false
            }
        }
    });
    phase.late_ms = lateness.iter().map(|d| ms(*d)).collect();
    phase
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    std::thread::sleep(SETTLE);
    let mut out = Outcome::default();
    let graph = base_graph();
    let connections = CONNECTIONS.min(host::nproc()).max(1);
    let ladder_secs = if cfg.trace {
        LADDER.len() as f64 * RUNG.as_secs_f64()
    } else {
        0.0
    };
    let loop_secs = if cfg.trace {
        ((cfg.seconds - ladder_secs) / 2.0).max(1.0)
    } else {
        cfg.seconds
    };

    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        drop(server.take());
        let start = Instant::now();
        match Server::start(&cfg.work_dir.join(format!("setup{i}")), false) {
            Ok(started) => server = Some(started),
            Err(e) => {
                out.tally.attempt();
                out.tally.fail(e);
                return out;
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    out.e2e.set("setup_s", median(&setup_s), "s");

    let target = Target {
        server: &server,
        graph: &graph,
        seed: cfg.seed,
        connections,
    };
    let warmup = open_loop(target, "w", RATE, WARMUP, None);
    out.tally.merge(warmup.tally);
    let plain = open_loop(target, "p", RATE, Duration::from_secs_f64(loop_secs), None);
    out.e2e.set("query_p50_ms", median(&plain.query_ms), "ms");
    out.e2e
        .set("query_tail_ms", tail(&plain.query_ms, TAIL), "ms");
    out.e2e.set("update_p50_ms", median(&plain.update_ms), "ms");
    out.e2e
        .set("update_tail_ms", tail(&plain.update_ms, TAIL), "ms");
    out.e2e.set(
        "ops_per_s",
        plain.completed as f64 / plain.elapsed.as_secs_f64(),
        "1/s",
    );
    if let Some(rss) = server.peak_rss_mib() {
        out.e2e.set("peak_rss_mb", rss, "MiB");
    }
    let untraced_query_p50 = median(&plain.query_ms);
    out.layers.set(
        "bench.late_ms",
        quantile(&plain.late_ms, TAIL).unwrap_or(0.0),
        "ms",
    );
    out.tally.merge(plain.tally);

    if cfg.trace {
        // Capacity: the highest rate whose query tail meets the limit with
        // no backlog building up over the rung.
        let mut capacity = 0.0;
        for (i, rate) in LADDER.iter().enumerate() {
            let rung = open_loop(target, &format!("l{i}x"), *rate, RUNG, None);
            let tail_ok = tail(&rung.query_ms, LADDER_TAIL) <= LIMIT_MS;
            let last_quarter: Vec<f64> = rung.replies[rung.replies.len() * 3 / 4..]
                .iter()
                .map(|&(due, done)| ms(done - due))
                .collect();
            let no_backlog = median(&last_quarter) <= LIMIT_MS;
            out.tally.merge(rung.tally);
            if tail_ok && no_backlog && !rung.query_ms.is_empty() {
                capacity = *rate;
            } else {
                break;
            }
        }
        out.e2e.set("capacity_ops_s", capacity, "1/s");
    }
    drop(server);
    if cfg.trace {
        traced_half(
            cfg,
            &graph,
            connections,
            loop_secs,
            untraced_query_p50,
            &mut out,
        );
    }
    out.layers
        .set("bench.ops_attempted", out.tally.attempted as f64, "count");
    out
}

/// The traced half: a telemetry-on server, the same loop with client-side
/// spans, the server's registry read over the wire, the data directory
/// measured, and the in-process shell on the same lines.
fn traced_half(
    cfg: &Config,
    graph: &FlightGraph,
    connections: usize,
    loop_secs: f64,
    untraced_query_p50: f64,
    out: &mut Outcome,
) {
    let mut tracer = Tracer::new(true);
    let lines = load_lines();
    let program: String = lines[2..lines.len() - 1]
        .iter()
        .filter(|l| !l.starts_with('+'))
        .map(|l| format!("{l}\n"))
        .collect();
    let facts: String = lines
        .iter()
        .filter_map(|l| l.strip_prefix('+'))
        .map(|l| format!("{l}\n"))
        .collect();
    let (parsed, parse_d) = tracer.time("lang.parse", || {
        pcs_lang::parse_program(&program).map(|_| pcs_engine::parse_facts(&facts))
    });
    if !matches!(parsed, Ok(Ok(_))) {
        out.tally.attempt();
        out.tally.fail("the load text does not parse in process");
    }
    out.layers.set("lang.parse_ms", ms(parse_d), "ms");

    let server = match Server::start(&cfg.work_dir.join("traced"), true) {
        Ok(server) => server,
        Err(e) => {
            out.tally.attempt();
            out.tally.fail(e);
            return;
        }
    };
    let target = Target {
        server: &server,
        graph,
        seed: cfg.seed,
        connections,
    };
    let traced = open_loop(
        target,
        "t",
        RATE,
        Duration::from_secs_f64(loop_secs),
        Some(&mut tracer),
    );
    out.set_overhead(untraced_query_p50, median(&traced.query_ms));
    let ops = traced.completed.max(1) as f64;
    out.tally.merge(traced.tally);

    // The server's own registry, read over the wire.
    match Client::connect(server.addr).and_then(|mut c| c.send(".metrics prom")) {
        Ok(prom) => {
            let read = |name: &str| prom_value(&prom, name);
            let l = &mut out.layers;
            for (metric, series) in [
                ("engine.index_probes", "pcs_index_probes_total"),
                ("engine.probe_hits", "pcs_probe_hits_total"),
                ("engine.probe_misses", "pcs_probe_misses_total"),
                (
                    "engine.existence_shortcuts",
                    "pcs_existence_shortcuts_total",
                ),
                ("engine.subsumption_checks", "pcs_subsumption_checks_total"),
                ("constraints.fm_sat_calls", "pcs_fm_sat_calls_total"),
            ] {
                l.set(metric, read(series) / ops, "count");
            }
            l.set(
                "engine.plans_compiled",
                read("pcs_plans_compiled_total"),
                "count",
            );
            let hits = read("pcs_probe_hits_total");
            let misses = read("pcs_probe_misses_total");
            l.set(
                "engine.probe_hit_ratio",
                ratio(hits, hits + misses),
                "ratio",
            );
            let phase_ms = |phase: &str| {
                ratio(
                    read(&format!("pcs_phase_seconds_total{{phase=\"{phase}\"}}")) * 1e3,
                    read(&format!("pcs_phase_spans_total{{phase=\"{phase}\"}}")),
                )
            };
            l.set("engine.resume_ms", phase_ms("resume"), "ms");
            l.set("engine.retract_ms", phase_ms("retract"), "ms");
            l.set("engine.plan_ms", phase_ms("plan_compile"), "ms");
            l.set("engine.evaluate_ms", phase_ms("fixpoint"), "ms");
            l.set("analysis.analyze_ms", phase_ms("analyze"), "ms");
            l.set("transform.rewrite_ms", phase_ms("rewrite"), "ms");
            let updates = read("pcs_updates_total");
            l.set(
                "session.coalesced_ratio",
                ratio(read("pcs_coalesced_updates_total"), updates),
                "ratio",
            );
        }
        Err(e) => {
            out.tally.attempt();
            out.tally.fail(format!("`.metrics prom` failed: {e}"));
        }
    }

    // Write-ahead log bytes per update, from single sequential updates.
    let wal = server.data_file("wal.pcs");
    let mut growth = Vec::new();
    if let Ok(mut client) = Client::connect(server.addr) {
        let mut script = Script::new(graph, cfg.seed, "b".to_string());
        for i in (0..16u64).filter(|i| i % 4 == 0 || i % 4 == 3) {
            let request = script.request(i);
            let before = file_len(&wal);
            out.tally.attempt();
            match client.send(&request.line) {
                Ok(reply) => check_reply(&request, &reply, &mut out.tally),
                Err(e) => out.tally.fail(format!("`{}`: {e}", request.line)),
            }
            let after = file_len(&wal);
            if after > before {
                growth.push((after - before) as f64);
            }
        }
    }
    out.layers
        .set("wal.bytes_per_update", median(&growth), "bytes");
    out.layers.set(
        "wal.snapshot_bytes",
        file_len(&server.data_file("snapshot.pcs")) as f64,
        "bytes",
    );
    drop(server);

    // The same lines through an in-process shell over a durable hub: the
    // server's share of a round trip is what the wire adds.
    let shell_us = shell_execute_us(cfg, graph, &mut out.tally);
    out.layers.set("shell.execute_us", shell_us, "us");
    out.layers
        .set("server.wire_us", untraced_query_p50 * 1e3 - shell_us, "us");
    out.tracer = Some(tracer);
}

/// Median `Shell::execute` time of the cycle's queries, in microseconds.
fn shell_execute_us(cfg: &Config, graph: &FlightGraph, tally: &mut Tally) -> f64 {
    let dir = cfg.work_dir.join("shell");
    let hub = match SessionHub::with_store(&dir, 64, SessionLimits::default()) {
        Ok(hub) => Arc::new(hub),
        Err(e) => {
            tally.attempt();
            tally.fail(format!("cannot open shell data dir: {e}"));
            return 0.0;
        }
    };
    let mut shell = Shell::with_hub(hub);
    let mut reply = Vec::new();
    for line in load_lines() {
        reply = shell.execute(&line).lines;
    }
    if !reply
        .first()
        .is_some_and(|l| l.starts_with("ok: materialized"))
    {
        tally.attempt();
        tally.fail(format!("in-process load failed: {reply:?}"));
        return 0.0;
    }
    let mut script = Script::new(graph, cfg.seed, "s".to_string());
    let mut samples = Samples::default();
    for i in 0..SHELL_OPS {
        let request = script.request(i);
        let start = Instant::now();
        let response = shell.execute(&request.line);
        let elapsed = start.elapsed();
        if request.kind == Kind::Query {
            samples.push("query", elapsed.as_secs_f64() * 1e6);
        }
        tally.attempt();
        check_reply(&request, &response.lines, tally);
    }
    drop(shell);
    let _ = std::fs::remove_dir_all(&dir);
    median(samples.get("query"))
}

/// The value of one series in a Prometheus text exposition (`0` if absent).
fn prom_value(lines: &[String], series: &str) -> f64 {
    lines
        .iter()
        .find_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            (name == series).then(|| value.parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}
