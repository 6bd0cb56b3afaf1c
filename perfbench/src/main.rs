//! The repository benchmark: end-to-end and per-layer figures for the
//! λ∨ evaluation server, the Datalog engine and the snapshot layer.
//!
//! ```text
//! perfbench --workload <serve_warm|serve_cold|datalog|restart>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones (tracing off); with `--trace 1` they are the
//! per-layer ones of a separate traced run. See `README.md` for the
//! workloads, the op of each, and which layer metric should move which
//! end-to-end metric.

mod datalog;
mod restart;
mod serve;
mod util;

use std::path::PathBuf;

use util::{Report, Tracer};

/// Every per-layer metric and its unit, in report order. A traced run
/// prints all of them; a layer its workload does not call reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.parse_us", "us"),
    ("parser.parse_us", "us"),
    ("engine.run_us", "us"),
    ("render.us", "us"),
    ("wire.us", "us"),
    ("server.busy_us", "us"),
    ("server.session_us", "us"),
    ("server.idle_us", "us"),
    ("memo.hits_per_op", "count"),
    ("memo.misses_per_op", "count"),
    ("memo.hit_ratio", "ratio"),
    ("intern.nodes_per_op", "count"),
    ("memo.entries", "count"),
    ("server.rejected", "count"),
    ("server.gc_runs", "count"),
    ("server.panics", "count"),
    ("rss.kb_per_op", "KB"),
    ("dl.parse_ms", "ms"),
    ("dl.stratify_ms", "ms"),
    ("dl.eval_ms", "ms"),
    ("dl.decode_ms", "ms"),
    ("dl.check_ms", "ms"),
    ("dl.drop_ms", "ms"),
    ("dl.tc_ms", "ms"),
    ("dl.triangle_ms", "ms"),
    ("dl.negation_ms", "ms"),
    ("dl.rounds", "count"),
    ("dl.derivations", "count"),
    ("dl.facts_out", "count"),
    ("dl.facts_per_derivation", "ratio"),
    ("snap.load_ms", "ms"),
    ("dl_snap.load_ms", "ms"),
    ("snap.load_us_per_kb", "us/KB"),
    ("dl_snap.load_us_per_kb", "us/KB"),
    ("snap.save_ms", "ms"),
    ("server.boot_ms", "ms"),
    ("server.connect_ms", "ms"),
    ("server.first_reply_ms", "ms"),
    ("server.stop_ms", "ms"),
    ("memo.drop_ms", "ms"),
    ("snap.memo_bytes", "bytes"),
    ("snap.db_bytes", "bytes"),
    ("host.steal_pct", "%"),
    ("trace.op_us", "us"),
    ("trace.replay_cpu_us", "us"),
    ("trace.unexplained_pct", "%"),
    ("trace.accounted", "count"),
    ("trace.overhead_pct", "%"),
];

/// The end-to-end metrics every run with tracing off prints.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// How much of a traced op's time its layers may leave unexplained. The
/// serve workloads' remainder compares a replay with the server: on a
/// 2-core VM it read from -11% to +6% across runs.
const ACCOUNT_TOLERANCE_PCT: f64 = 15.0;

/// Fewest timed ops in any run, so p90 has at least ten samples beyond it.
const MIN_OPS: usize = 100;

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<&str, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        let num = |flag: &str| -> Result<u64, String> {
            get(flag)?
                .parse()
                .map_err(|_| format!("{flag} must be a non-negative integer"))
        };
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        let seconds = num("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: get("--workload")?.to_string(),
            seed: num("--seed")?,
            seconds,
            trace,
        })
    }

    /// The fixed op count of a run: `--seconds` times the workload's
    /// nominal rate, never below [`MIN_OPS`]. A run is a fixed number of
    /// ops, not a fixed time, so a faster program is not charged for
    /// doing more work (and growing more memory) in the same window.
    pub fn ops(&self, ops_per_second: f64) -> usize {
        ((self.seconds as f64 * ops_per_second).round() as usize).max(MIN_OPS)
    }
}

/// Where runs keep their files: inside the benchmark's directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
}

/// Records how well the traced layers account for the traced op time:
/// the remainder they leave, named by `what`, as a share of the op.
pub fn account(report: &mut Report, op: f64, unexplained: f64, what: &str) {
    let pct = 100.0 * unexplained / op;
    let accounted = pct.abs() <= ACCOUNT_TOLERANCE_PCT;
    report.put("trace.unexplained_pct", pct, "%");
    report.put("trace.accounted", f64::from(u8::from(accounted)), "count");
    eprintln!(
        "layer accounting: unexplained remainder {what} = {pct:.2}% of the op \
         (tolerance ±{ACCOUNT_TOLERANCE_PCT}%): {}",
        if accounted { "within" } else { "OUTSIDE" }
    );
}

/// Records the tracing overhead: the traced pass's median op latency
/// against the untraced run's, in the same process.
pub fn overhead(report: &mut Report, traced_p50_ms: f64) {
    let untraced = report
        .get("latency_p50_ms")
        .expect("the untraced run is measured first");
    report.put(
        "trace.overhead_pct",
        100.0 * (traced_p50_ms / untraced - 1.0),
        "%",
    );
}

/// Writes the traced run's spans next to the benchmark.
pub fn write_spans(args: &Args, tracer: &Tracer) {
    let path = out_dir().join(format!("{}.spans.tsv", args.workload));
    match tracer.write_tsv(&path) {
        Ok(()) => eprintln!(
            "spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ticks0 = util::cpu_ticks();
    let outcome = match args.workload.as_str() {
        "serve_warm" => serve::run(&args, serve::Mode::Warm),
        "serve_cold" => serve::run(&args, serve::Mode::Cold),
        "datalog" => datalog::run(&args),
        "restart" => restart::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let ticks1 = util::cpu_ticks();
    let total = (ticks1.1 - ticks0.1).max(1);
    outcome.report.put(
        "host.steal_pct",
        100.0 * (ticks1.0 - ticks0.0) as f64 / total as f64,
        "%",
    );
    for (name, value, unit) in &outcome.report.metrics {
        eprintln!("{name:>26} {value:>14.4} {unit}");
    }
    let mut metrics = Vec::new();
    let mut emit = |name: &str, unit: &str| {
        let value = outcome.report.get(name).unwrap_or(0.0);
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    };
    for (name, unit) in if args.trace { PER_LAYER } else { END_TO_END } {
        emit(name, unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
