//! The `serve_warm` and `serve_cold` workloads: one client connection to
//! an in-process `runtime::server::serve`, sending seeded `reaches`
//! programs. Also the request-path pieces `restart` reuses.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lambda_join_core::encodings::{self, Graph};
use lambda_join_core::engine::{self, Budget, NodeGauge};
use lambda_join_core::parser;
use lambda_join_core::sharded::SharedInternTable;
use lambda_join_runtime::server::protocol::{json_escape, parse_request, ErrorCode, Obj};
use lambda_join_runtime::server::{serve, ServerConfig, ServerHandle};

use crate::util::{proc_status_kb, thread_cpu_ns, thread_ids, Report, Rng, Timed, Tracer};
use crate::{Args, Outcome};

/// Nodes of every request's random digraph.
const NODES: i64 = 12;
/// Out-degree of every node.
const OUT_DEGREE: usize = 2;
/// Per-path fuel of every request: 24 per node, enough for the full set.
const FUEL: usize = 24 * NODES as usize;
/// Distinct programs `serve_warm` cycles through.
pub const WARM_PROGRAMS: usize = 16;
/// Requests outstanding on the connection during `serve_warm`.
const WARM_DEPTH: usize = 16;
/// Cold programs `serve_cold` evaluates in set-up before timing.
const COLD_WARMUP: usize = 8;
/// Timed rounds of a run. Each boots a fresh server (its set-up is one
/// `setup_s` sample) and then runs an equal share of the ops, so memory a
/// server retains per request is bounded by one round.
const WARM_ROUNDS: usize = 8;
const COLD_ROUNDS: usize = 3;
/// `serve_warm` requests per second of `--seconds`; the op count is fixed.
const WARM_OPS_PER_S: f64 = 16_000.0;
/// `serve_cold` requests per second of `--seconds`: 100 per round.
const COLD_OPS_PER_S: f64 = 30.0;
/// Padded pings outstanding while the traced round measures the
/// session's own cost: deep enough that the session never waits for
/// input, as it does not during an eval loop the server cannot keep up
/// with.
const PING_DEPTH: usize = 256;
/// Chunks the traced round is cut into: the host's speed changes within
/// a tenth of a second, so each chunk's loop, pings and replay must run
/// closer together than that to see the same speed.
const TRACE_CHUNKS: usize = 200;

/// One seeded request: `reaches` over a random digraph, as a wire line.
pub struct Program {
    /// `eval fuel=… "<source>"`, newline-terminated.
    pub line: String,
    /// `Graph::reachable(start)`: the only correct result set.
    pub expected: Vec<i64>,
}

impl Program {
    /// The `i`-th program of stream `k` of `seed`. One out-edge of every
    /// node follows a random Hamiltonian cycle and the other is random,
    /// so every start reaches all nodes: each op has the same shape.
    pub fn generate(seed: u64, k: u64, i: u64) -> Program {
        let mut rng = Rng::stream(seed, k.wrapping_mul(1 << 32) ^ i);
        let mut cycle: Vec<i64> = (0..NODES).collect();
        for j in (1..cycle.len()).rev() {
            cycle.swap(j, rng.below(j as u64 + 1) as usize);
        }
        let mut next = vec![0; NODES as usize];
        for j in 0..cycle.len() {
            next[cycle[j] as usize] = cycle[(j + 1) % cycle.len()];
        }
        let edges = (0..NODES)
            .map(|n| {
                let mut ts = vec![next[n as usize]];
                while ts.len() < OUT_DEGREE {
                    let t = rng.below(NODES as u64) as i64;
                    if t != n && !ts.contains(&t) {
                        ts.push(t);
                    }
                }
                (n, ts)
            })
            .collect();
        let graph = Graph { edges };
        let start = rng.below(NODES as u64) as i64;
        let source = encodings::reaches(&graph, start).to_string();
        Program {
            line: format!("eval fuel={FUEL} \"{}\"\n", json_escape(&source)),
            expected: graph.reachable(start),
        }
    }
}

/// The value of string field `key` in a flat JSON reply (no escapes
/// inside: result sets and codes never need them).
fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let from = reply.find(&pat)? + pat.len();
    let len = reply[from..].find('"')?;
    Some(&reply[from..from + len])
}

/// The oracle: the reply is `ok`, or `fuel_exhausted` carrying a partial
/// observation (sound by Thm 4.6), and its result set equals
/// `Graph::reachable`.
pub fn reply_is_correct(reply: &str, expected: &[i64]) -> bool {
    let accepted = match field(reply, "kind") {
        Some("ok") => true,
        Some("err") => field(reply, "code") == Some(ErrorCode::FuelExhausted.as_str()),
        _ => false,
    };
    accepted && field(reply, "result").is_some_and(|r| result_is(r, expected))
}

/// Whether a rendered set `{a, b, …}` holds exactly `expected`.
fn result_is(rendered: &str, expected: &[i64]) -> bool {
    let Some(inner) = rendered.strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
        return false;
    };
    let mut got: Vec<i64> = Vec::with_capacity(expected.len());
    for item in inner.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match item.parse() {
            Ok(v) => got.push(v),
            Err(_) => return false,
        }
    }
    got.sort_unstable();
    got == expected
}

/// A protocol client on one connection.
pub struct Client {
    conn: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            conn,
            reader,
            line: String::new(),
        })
    }

    /// Sends one newline-terminated request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.conn
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))
    }

    /// Reads one reply line (newline stripped).
    pub fn recv(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    pub fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv().map(str::to_string)
    }
}

/// The server's counters, read with one `stats` request.
struct Stats(String);

impl Stats {
    fn read(client: &mut Client) -> Result<Stats, String> {
        client.round_trip("stats\n").map(Stats)
    }

    fn get(&self, key: &str) -> Result<f64, String> {
        let pat = format!("\"{key}\":");
        let from = self.0.find(&pat).ok_or(format!("stats lacks {key}"))? + pat.len();
        let digits: String = self.0[from..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits
            .parse()
            .map_err(|_| format!("bad {key} in {}", self.0))
    }
}

/// A started server and its client connection.
struct Served {
    handle: ServerHandle,
    client: Client,
    /// Threads the boot and the connection started.
    threads: Vec<u64>,
}

fn boot() -> Result<Served, String> {
    let before = thread_ids();
    let handle = serve(ServerConfig::default()).map_err(|e| format!("serve: {e}"))?;
    let mut client = Client::connect(handle.addr())?;
    if !client.round_trip("ping\n")?.contains("\"pong\"") {
        return Err("ping did not pong".into());
    }
    let threads = thread_ids()
        .into_iter()
        .filter(|t| !before.contains(t))
        .collect();
    Ok(Served {
        handle,
        client,
        threads,
    })
}

impl Served {
    /// CPU time so far of the session thread serving the connection. Of
    /// the threads the boot started, it is the newest: the accept loop
    /// spawns it on our connect, and it inherits that thread's name.
    fn session_cpu_ns(&self) -> Result<u64, String> {
        let session = self.threads.iter().max().ok_or("no server threads found")?;
        Ok(thread_cpu_ns(*session))
    }
}

/// Sends `programs` one at a time and checks every reply.
fn evaluate_all(client: &mut Client, programs: &[Program]) -> Result<(), String> {
    for p in programs {
        let reply = client.round_trip(&p.line)?;
        if !reply_is_correct(&reply, &p.expected) {
            return Err(format!("set-up reply failed the oracle: {reply}"));
        }
    }
    Ok(())
}

fn stop(served: Served) -> Result<(), String> {
    drop(served.client);
    if served.handle.stop() {
        Ok(())
    } else {
        Err("server did not drain".into())
    }
}

/// The closed loop: sends `programs[order[i]]` for each `i`, keeping
/// `depth` requests outstanding; returns per-op latencies (ms), the
/// timed seconds and the failed-op count. With a tracer, each op gets a
/// root span from send to reply, numbered from the given first op.
fn closed_loop(
    client: &mut Client,
    programs: &[Program],
    order: &[usize],
    depth: usize,
    mut tracer: Option<(&mut Tracer, usize)>,
) -> Result<(Vec<f64>, f64, u64), String> {
    let n = order.len();
    let mut sent_at = vec![Instant::now(); n];
    let mut spans = vec![0u32; n];
    let mut latencies = Vec::with_capacity(n);
    let mut failed = 0;
    let t0 = Instant::now();
    for i in 0..depth.min(n) {
        if let Some((t, first)) = tracer.as_mut() {
            spans[i] = t.open("op", (*first + i) as u32, None);
        }
        sent_at[i] = Instant::now();
        client.send(&programs[order[i]].line)?;
    }
    for i in 0..n {
        let ok = reply_is_correct(client.recv()?, &programs[order[i]].expected);
        latencies.push(sent_at[i].elapsed().as_secs_f64() * 1e3);
        if let Some((t, _)) = tracer.as_mut() {
            t.close(spans[i]);
        }
        failed += u64::from(!ok);
        let next = i + depth;
        if next < n {
            if let Some((t, first)) = tracer.as_mut() {
                spans[next] = t.open("op", (*first + next) as u32, None);
            }
            sent_at[next] = Instant::now();
            client.send(&programs[order[next]].line)?;
        }
    }
    Ok((latencies, t0.elapsed().as_secs_f64(), failed))
}

/// `ping` requests padded with spaces to the byte length of each eval
/// request in `order`, sent with the same pipeline depth: the server's
/// socket and session work for the same bytes, with no evaluation.
fn ping_loop(
    client: &mut Client,
    programs: &[Program],
    order: &[usize],
    depth: usize,
) -> Result<(), String> {
    let pings: Vec<String> = order
        .iter()
        .map(|&p| format!("{:<w$}\n", "ping", w = programs[p].line.len() - 1))
        .collect();
    let n = pings.len();
    for ping in pings.iter().take(depth) {
        client.send(ping)?;
    }
    for i in 0..n {
        if !client.recv()?.contains("\"pong\"") {
            return Err("ping did not pong".into());
        }
        if i + depth < n {
            client.send(&pings[i + depth])?;
        }
    }
    Ok(())
}

/// The server's request path, replayed in-process with a span around
/// each layer's public call: `parse_request` → `parser::parse` (plus the
/// free-variable check) → `engine::run` on a table prepared like the
/// server's → rendering and reply encoding. Returns failed-op count.
fn replay(
    programs: &[Program],
    order: &[usize],
    first_op: usize,
    memo: &mut SharedInternTable,
    tracer: &mut Tracer,
) -> u64 {
    let cfg = ServerConfig::default();
    let cancel = Arc::new(AtomicBool::new(false));
    let mut failed = 0;
    for (i, &p) in order.iter().enumerate() {
        let op = (first_op + i) as u32;
        let root = tracer.open("replay", op, None);
        let line = programs[p].line.trim_end();
        let req = tracer.span("protocol.parse", op, Some(root), || parse_request(line));
        let Ok(req) = req else {
            failed += 1;
            tracer.close(root);
            continue;
        };
        let source = req.source.as_deref().unwrap_or_default();
        let term = tracer.span("parser.parse", op, Some(root), || {
            parser::parse(source)
                .ok()
                .filter(|t| t.free_vars().is_empty())
        });
        let Some(term) = term else {
            failed += 1;
            tracer.close(root);
            continue;
        };
        let fuel = req.fuel.unwrap_or(cfg.default_fuel);
        let (result, exhausted) = tracer.span("engine.run", op, Some(root), || {
            memo.begin_generation();
            let gauge: NodeGauge = {
                let handle = memo.clone();
                Arc::new(move || handle.interner().len())
            };
            let mut budget = Budget::new(usize::MAX)
                .with_deadline(Instant::now() + Duration::from_millis(cfg.default_deadline_ms))
                .with_cancel(cancel.clone())
                .with_node_quota(cfg.default_node_quota)
                .with_node_gauge(gauge);
            let r = engine::run(&term, fuel, &mut budget, memo);
            (r, budget.exhausted())
        });
        // The server's reply, field for field.
        let reply = tracer.span("render", op, Some(root), || {
            let rendered = result.to_string();
            let mut o;
            if exhausted {
                o = Obj::kind("err");
                o.push_str("code", ErrorCode::FuelExhausted.as_str())
                    .push_str("msg", "fuel ran out; result is the partial observation")
                    .push_str("result", &rendered)
                    .push_num("fuel", fuel as u64);
            } else {
                o = Obj::kind("ok");
                o.push_str("result", &rendered)
                    .push_num("fuel", fuel as u64)
                    .push_num("wall_us", 0);
            }
            o.finish()
        });
        tracer.close(root);
        failed += u64::from(!reply_is_correct(&reply, &programs[p].expected));
    }
    failed
}

/// Which of the two serve workloads runs.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    Warm,
    Cold,
}

pub fn run(args: &Args, mode: Mode) -> Result<Outcome, String> {
    let (rate, depth, rounds) = match mode {
        Mode::Warm => (WARM_OPS_PER_S, WARM_DEPTH, WARM_ROUNDS),
        Mode::Cold => (COLD_OPS_PER_S, 1, COLD_ROUNDS),
    };
    let per_round = args.ops(rate).div_ceil(rounds);
    // Warm: the set-up programs, cycled. Cold: fresh programs, distinct
    // across rounds, and set-up evaluates programs of another stream.
    let warmup: Vec<Program> = match mode {
        Mode::Warm => (0..WARM_PROGRAMS as u64)
            .map(|i| Program::generate(args.seed, 1, i))
            .collect(),
        Mode::Cold => (0..COLD_WARMUP as u64)
            .map(|i| Program::generate(args.seed, 2, i))
            .collect(),
    };
    let cold: Vec<Program>;
    let (programs, orders): (&[Program], Vec<Vec<usize>>) = match mode {
        Mode::Warm => (
            &warmup,
            (0..rounds)
                .map(|_| (0..per_round).map(|i| i % WARM_PROGRAMS).collect())
                .collect(),
        ),
        Mode::Cold => {
            cold = (0..(rounds * per_round) as u64)
                .map(|i| Program::generate(args.seed, 3, i))
                .collect();
            (
                &cold,
                (0..rounds)
                    .map(|r| (r * per_round..(r + 1) * per_round).collect())
                    .collect(),
            )
        }
    };

    // An untimed first round faults in the memory later rounds reuse,
    // so every timed round starts from the same state. Its counters and
    // memory growth are the traced run's count metrics.
    let first = round(programs, &orders[0], depth, &warmup)?;
    let mut failed = first.failed;
    let mut attempted = orders[0].len() as u64;
    let mut setup_s = Vec::with_capacity(rounds);
    let mut timed = Vec::with_capacity(rounds);
    for order in &orders {
        let r = round(programs, order, depth, &warmup)?;
        setup_s.push(r.setup_s);
        failed += r.failed;
        attempted += order.len() as u64;
        timed.push(r.timed);
    }
    let mut report = Report::default();
    crate::util::end_to_end(&mut report, &setup_s, &timed);

    if args.trace {
        let ops = orders[0].len() as f64;
        let (before, after) = (&first.stats[0], &first.stats[1]);
        let delta = |k: &str| Ok::<f64, String>(after.get(k)? - before.get(k)?);
        let (hits, misses) = (delta("memo_hits")? / ops, delta("memo_misses")? / ops);
        report.put("memo.hits_per_op", hits, "count");
        report.put("memo.misses_per_op", misses, "count");
        report.put(
            "memo.hit_ratio",
            hits / (hits + misses).max(f64::MIN_POSITIVE),
            "ratio",
        );
        report.put(
            "intern.nodes_per_op",
            delta("interner_nodes")? / ops,
            "count",
        );
        report.put("memo.entries", after.get("memo_entries")?, "count");
        report.put("server.rejected", delta("rejected")?, "count");
        report.put("server.gc_runs", delta("gc_runs")?, "count");
        report.put("server.panics", delta("panics")?, "count");
        report.put("rss.kb_per_op", first.rss_growth_kb / ops, "KB");

        let mut tracer = Tracer::new();
        let traced = traced_round(programs, &orders[0], depth, &warmup, &mut tracer)?;
        failed += traced.failed;
        attempted += 2 * orders[0].len() as u64;

        let per_op_us = |name: &str| tracer.total_ns(name) as f64 / 1e3 / ops;
        let op_us = traced.timed_s * 1e6 / ops;
        let mut in_process = 0.0;
        for (span, metric) in [
            ("protocol.parse", "protocol.parse_us"),
            ("parser.parse", "parser.parse_us"),
            ("engine.run", "engine.run_us"),
            ("render", "render.us"),
        ] {
            in_process += per_op_us(span);
            report.put(metric, per_op_us(span), "us");
        }
        let busy_us = traced.busy_ns as f64 / 1e3 / ops;
        let session_us = traced.session_ns as f64 / 1e3 / ops;
        let replay_us = traced.replay_ns as f64 / 1e3 / ops;
        report.put("wire.us", op_us - in_process, "us");
        report.put("server.busy_us", busy_us, "us");
        report.put("server.session_us", session_us, "us");
        report.put("server.idle_us", op_us - busy_us, "us");
        report.put("trace.replay_cpu_us", replay_us, "us");
        report.put("trace.op_us", op_us, "us");
        // op = server idle + server busy, and busy = the layers (the
        // replay's CPU time) + session + the remainder neither explains.
        // All three are CPU times, so time the hypervisor steals from a
        // vCPU lands in none of them.
        crate::account(
            &mut report,
            op_us,
            busy_us - replay_us - session_us,
            "server.busy_us - trace.replay_cpu_us - server.session_us",
        );
        // Per-op time, traced against untraced: the spans plus the
        // pipeline filling and draining at every chunk boundary.
        let untraced_op_us = 1e6
            / report
                .get("throughput_ops")
                .expect("end-to-end metrics are in");
        report.put(
            "trace.overhead_pct",
            100.0 * (op_us / untraced_op_us - 1.0),
            "%",
        );
        crate::write_spans(args, &tracer);
    }
    Ok(Outcome {
        attempted,
        failed,
        report,
    })
}

/// What one round measured.
struct Round {
    setup_s: f64,
    timed: Timed,
    failed: u64,
    /// The server's counters before and after the timed loop.
    stats: [Stats; 2],
    /// Resident memory the timed loop added (kB).
    rss_growth_kb: f64,
}

/// One round: set-up (boot, connect, evaluate the warm-up programs), the
/// timed closed loop over `order`, and a graceful stop.
fn round(
    programs: &[Program],
    order: &[usize],
    depth: usize,
    warmup: &[Program],
) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut s = boot()?;
    evaluate_all(&mut s.client, warmup)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let before = Stats::read(&mut s.client)?;
    let rss_before = proc_status_kb("VmRSS");
    let (latencies_ms, seconds, failed) = closed_loop(&mut s.client, programs, order, depth, None)?;
    let rss_after = proc_status_kb("VmRSS");
    let after = Stats::read(&mut s.client)?;
    stop(s)?;
    Ok(Round {
        setup_s,
        timed: Timed {
            latencies_ms,
            seconds,
        },
        failed,
        stats: [before, after],
        rss_growth_kb: rss_after as f64 - rss_before as f64,
    })
}

/// What the traced round measured, summed over its chunks.
struct Traced {
    timed_s: f64,
    failed: u64,
    /// CPU time of the session thread during the eval loops, and during
    /// as many padded pings.
    busy_ns: u64,
    session_ns: u64,
    /// CPU time of this (the replaying) thread during the replays.
    replay_ns: u64,
}

/// The traced round: a replica of round 0, cut into chunks. Each chunk
/// runs the closed loop with a root span per op, then the same number
/// of padded pings, then replays the chunk's requests in-process, layer
/// by layer, on a table that has seen what the server's has.
fn traced_round(
    programs: &[Program],
    order: &[usize],
    depth: usize,
    warmup: &[Program],
    tracer: &mut Tracer,
) -> Result<Traced, String> {
    let mut s = boot()?;
    evaluate_all(&mut s.client, warmup)?;
    let mut memo = SharedInternTable::new();
    let warm_order: Vec<usize> = (0..warmup.len()).collect();
    let mut t = Traced {
        timed_s: 0.0,
        failed: replay(warmup, &warm_order, 0, &mut memo, &mut Tracer::new()),
        busy_ns: 0,
        session_ns: 0,
        replay_ns: 0,
    };
    // The replay runs on the main thread, whose id is the process id.
    let me = u64::from(std::process::id());
    let chunk = (order.len() / TRACE_CHUNKS).max(depth);
    for (c, ops) in order.chunks(chunk).enumerate() {
        let first = c * chunk;
        let cpu0 = s.session_cpu_ns()?;
        let (_, secs, f) = closed_loop(
            &mut s.client,
            programs,
            ops,
            depth,
            Some((&mut *tracer, first)),
        )?;
        let cpu1 = s.session_cpu_ns()?;
        ping_loop(&mut s.client, programs, ops, PING_DEPTH)?;
        let cpu2 = s.session_cpu_ns()?;
        // The kernel brings a running thread's CPU time up to date only
        // at scheduler events; yielding makes one before each read.
        std::thread::yield_now();
        let cpu3 = thread_cpu_ns(me);
        t.failed += f + replay(programs, ops, first, &mut memo, tracer);
        std::thread::yield_now();
        t.replay_ns += thread_cpu_ns(me) - cpu3;
        t.timed_s += secs;
        t.busy_ns += cpu1 - cpu0;
        t.session_ns += cpu2 - cpu1;
    }
    stop(s)?;
    Ok(t)
}
