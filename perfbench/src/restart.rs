//! The `restart` workload: each op warm-starts from snapshots. It loads
//! the `datalog` workload's fixpoint (`IdDatabase::load`) and checks its
//! counts, then boots `serve` from the `serve_warm` state's memo
//! snapshot, answers one warm request, and stops gracefully, which
//! writes the final checkpoint.

use std::path::{Path, PathBuf};
use std::time::Instant;

use lambda_join_core::snap;
use lambda_join_datalog::eval::{eval_ids, Strategy};
use lambda_join_datalog::{parse_program, IdDatabase};
use lambda_join_runtime::server::{serve, ServerConfig};

use crate::datalog::Input;
use crate::serve::{reply_is_correct, Client, Program, WARM_PROGRAMS};
use crate::util::{median, Report, Timed, Tracer};
use crate::{Args, Outcome};

/// Set-up repetitions (`setup_s` is their median).
const SETUP_REPEATS: usize = 5;
/// Ops per second of `--seconds`; the op count is fixed.
const OPS_PER_S: f64 = 15.0;
/// Whether the Datalog snapshot stores indexes (true) or rebuilds them
/// on load (false, the smaller file).
const STORE_DERIVED: bool = true;

/// The run's private directory; removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = crate::out_dir().join(format!("restart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A reply without its `wall_us` field, the one part of a reply that is
/// a timing rather than an answer.
fn answer(reply: &str) -> String {
    match reply.find(",\"wall_us\":") {
        Some(i) => {
            let rest = &reply[i + 11..];
            let digits = rest.chars().take_while(char::is_ascii_digit).count();
            format!("{}{}", &reply[..i], &rest[digits..])
        }
        None => reply.to_string(),
    }
}

/// Everything set-up leaves behind for the ops.
struct State {
    dl_path: PathBuf,
    /// `(relation, facts)` of the evaluated model, sorted by name.
    dl_counts: Vec<(String, usize)>,
    /// The memo checkpoint of the warm server, restored before each op.
    memo_bytes: Vec<u8>,
    boot_path: PathBuf,
    programs: Vec<Program>,
    /// The warm server's reply to each program, without `wall_us`.
    replies: Vec<String>,
}

fn counts(db: &IdDatabase) -> Vec<(String, usize)> {
    db.relation_names()
        .into_iter()
        .map(|n| {
            let c = db.fact_count(&n);
            (n, c)
        })
        .collect()
}

fn config(path: &Path) -> ServerConfig {
    ServerConfig {
        snapshot_path: Some(path.to_path_buf()),
        ..ServerConfig::default()
    }
}

fn set_up(args: &Args, work: &WorkDir) -> Result<State, String> {
    // The `datalog` workload's fixpoint, checked, then saved.
    let input = Input::generate(args.seed);
    let program = parse_program(&input.text).map_err(|e| e.to_string())?;
    let (db, _) = eval_ids(&program, Strategy::Seminaive);
    if !input.matches(
        db.fact_count("path"),
        db.fact_count("triangle"),
        &db.rows("lonely"),
    ) {
        return Err("Datalog fixpoint failed the oracle".into());
    }
    let dl_path = work.file("datalog.snap");
    db.save(&dl_path, STORE_DERIVED)
        .map_err(|e| e.to_string())?;
    let dl_counts = counts(&db);
    drop((program, db));

    // The `serve_warm` state: every program evaluated once, then asked
    // again (a memo hit); the graceful stop writes the checkpoint.
    let memo_path = work.file("memo.snap");
    let _ = std::fs::remove_file(&memo_path);
    let handle = serve(config(&memo_path)).map_err(|e| format!("serve: {e}"))?;
    let mut client = Client::connect(handle.addr())?;
    let programs: Vec<Program> = (0..WARM_PROGRAMS as u64)
        .map(|i| Program::generate(args.seed, 1, i))
        .collect();
    let mut replies = Vec::with_capacity(programs.len());
    for round in 0..2 {
        for p in &programs {
            let reply = client.round_trip(&p.line)?;
            if !reply_is_correct(&reply, &p.expected) {
                return Err(format!("set-up reply failed the oracle: {reply}"));
            }
            if round == 1 {
                replies.push(answer(&reply));
            }
        }
    }
    drop(client);
    if !handle.stop() {
        return Err("warm server did not drain".into());
    }
    let memo_bytes = std::fs::read(&memo_path).map_err(|e| format!("checkpoint: {e}"))?;
    Ok(State {
        dl_path,
        dl_counts,
        memo_bytes,
        boot_path: work.file("boot.snap"),
        programs,
        replies,
    })
}

/// One op; returns whether every check passed. With a tracer, each
/// public call is a child span of the op's root span.
fn op(state: &State, i: usize, mut tracer: Option<&mut Tracer>) -> Result<bool, String> {
    let id = i as u32;
    let root = tracer.as_deref_mut().map(|t| t.open("op", id, None));
    let mut time = |name: &'static str, f: &mut dyn FnMut() -> Result<bool, String>| match tracer
        .as_deref_mut()
    {
        Some(t) => t.span(name, id, root, f),
        None => f(),
    };
    let mut db = None;
    let mut ok = time("dl_snap.load", &mut || {
        db = Some(IdDatabase::load(&state.dl_path).map_err(|e| e.to_string())?);
        Ok(true)
    })?;
    ok &= time("dl.check", &mut || {
        let db = db.as_ref().expect("loaded above");
        Ok(counts(db) == state.dl_counts)
    })?;
    time("dl.drop", &mut || {
        drop(db.take());
        Ok(true)
    })?;
    let mut handle = None;
    time("server.boot", &mut || {
        handle = Some(serve(config(&state.boot_path)).map_err(|e| format!("serve: {e}"))?);
        Ok(true)
    })?;
    let handle = handle.expect("booted above");
    let mut client = None;
    time("server.connect", &mut || {
        client = Some(Client::connect(handle.addr())?);
        Ok(true)
    })?;
    let p = i % state.programs.len();
    ok &= time("server.first_reply", &mut || {
        let c = client.as_mut().expect("connected above");
        let reply = c.round_trip(&state.programs[p].line)?;
        Ok(reply_is_correct(&reply, &state.programs[p].expected)
            && answer(&reply) == state.replies[p])
    })?;
    let mut handle = Some(handle);
    ok &= time("server.stop", &mut || {
        drop(client.take());
        Ok(handle.take().expect("running").stop())
    })?;
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    Ok(ok && state.boot_path.exists())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let ops = args.ops(OPS_PER_S);
    let work = WorkDir::create()?;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        state = Some(set_up(args, &work)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let state = state.expect("set-up ran at least once");
    let restore = || std::fs::write(&state.boot_path, &state.memo_bytes).map_err(|e| e.to_string());

    let mut latencies = Vec::with_capacity(ops);
    let mut failed = 0;
    let mut timed_s = 0.0;
    for i in 0..ops {
        // Every op boots from the same bytes; restoring them is not timed.
        restore()?;
        let t = Instant::now();
        let ok = op(&state, i, None)?;
        let s = t.elapsed().as_secs_f64();
        timed_s += s;
        latencies.push(s * 1e3);
        failed += u64::from(!ok);
    }
    let mut report = Report::default();
    let timed = [Timed {
        latencies_ms: latencies,
        seconds: timed_s,
    }];
    crate::util::end_to_end(&mut report, &setup_s, &timed);
    let mut attempted = ops as u64;

    if args.trace {
        let traced_ops = (ops / 2).max(10);
        let mut tracer = Tracer::new();
        let mut traced_lat = Vec::with_capacity(traced_ops);
        let save_path = work.file("save.snap");
        for i in 0..traced_ops {
            restore()?;
            let t = Instant::now();
            let ok = op(&state, i, Some(&mut tracer))?;
            traced_lat.push(t.elapsed().as_secs_f64() * 1e3);
            failed += u64::from(!ok);
            // The snapshot layer alone, on the same bytes the op booted
            // from: load, checkpoint, drop.
            restore()?;
            let id = i as u32;
            let table = tracer.span("snap.load", id, None, || {
                snap::load_shared(&state.boot_path)
            });
            let table = table.map_err(|e| e.to_string())?;
            let saved = tracer.span("snap.save", id, None, || {
                snap::save_shared(
                    &table,
                    ServerConfig::default().gc_keep_generations,
                    &save_path,
                )
            });
            saved.map_err(|e| e.to_string())?;
            tracer.span("memo.drop", id, None, || drop(table));
        }
        attempted += traced_ops as u64;
        let per_op_ms = |name: &str| tracer.total_ns(name) as f64 / 1e6 / traced_ops as f64;
        let memo_kb = state.memo_bytes.len() as f64 / 1024.0;
        let db_bytes = std::fs::metadata(&state.dl_path)
            .map_err(|e| e.to_string())?
            .len() as f64;
        for (span, metric) in [
            ("snap.load", "snap.load_ms"),
            ("dl_snap.load", "dl_snap.load_ms"),
            ("snap.save", "snap.save_ms"),
            ("dl.check", "dl.check_ms"),
            ("dl.drop", "dl.drop_ms"),
            ("server.boot", "server.boot_ms"),
            ("server.connect", "server.connect_ms"),
            ("server.first_reply", "server.first_reply_ms"),
            ("server.stop", "server.stop_ms"),
            ("memo.drop", "memo.drop_ms"),
        ] {
            report.put(metric, per_op_ms(span), "ms");
        }
        report.put(
            "snap.load_us_per_kb",
            per_op_ms("snap.load") * 1e3 / memo_kb,
            "us/KB",
        );
        report.put(
            "dl_snap.load_us_per_kb",
            per_op_ms("dl_snap.load") * 1e3 / (db_bytes / 1024.0),
            "us/KB",
        );
        report.put("snap.memo_bytes", state.memo_bytes.len() as f64, "bytes");
        report.put("snap.db_bytes", db_bytes, "bytes");
        let op_ms = per_op_ms("op");
        report.put("trace.op_us", op_ms * 1e3, "us");
        let unexplained = tracer.self_ns("op") as f64 / 1e6 / traced_ops as f64;
        crate::account(&mut report, op_ms, unexplained, "op self time");
        crate::overhead(&mut report, median(&traced_lat));
        crate::write_spans(args, &tracer);
    }
    Ok(Outcome {
        attempted,
        failed,
        report,
    })
}
