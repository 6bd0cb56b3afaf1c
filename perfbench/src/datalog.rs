//! The `datalog` workload: each op parses one seeded ~1 MB Datalog
//! program, stratifies it, evaluates it seminaively with `eval_ids`, and
//! decodes the outputs, checked against oracles computed in set-up.

use std::collections::BTreeSet;
use std::time::Instant;

use lambda_join_datalog::eval::{eval_ids, Strategy};
use lambda_join_datalog::{parse_program, stratify, Const, EvalStats, Program};

use crate::util::{median, Report, Rng, Timed, Tracer};
use crate::{Args, Outcome};

/// Nodes of the scale-free graph `e` (ids `0..SF_NODES`).
const SF_NODES: i64 = 5_000;
/// Edges each new node attaches with, before symmetrising.
const SF_PER_NODE: usize = 4;
/// Chains of the forest `c`, and edges per chain.
const CHAINS: i64 = 1_000;
const CHAIN_LEN: i64 = 25;
/// First node id of the chain forest, clear of the graph's ids.
const CHAIN_BASE: i64 = 1_000_000;
/// Set-up repetitions (`setup_s` is their median).
const SETUP_REPEATS: usize = 5;
/// Ops per second of `--seconds`; the op count is fixed.
const OPS_PER_S: f64 = 10.0;
/// Evaluations of each sub-program in the traced run.
const SUB_REPEATS: usize = 3;

/// The predicates the rules derive.
const DERIVED: [&str; 4] = ["path", "triangle", "intri", "lonely"];

const RULES: &str = "\
path(X, Y) :- c(X, Y).
path(X, Z) :- path(X, Y), c(Y, Z).
triangle(X, Y, Z) :- e(X, Y), e(Y, Z), e(X, Z).
intri(X) :- triangle(X, Y, Z).
lonely(X) :- node(X), not intri(X).
";

/// The generated program and everything known about its model.
pub struct Input {
    /// The whole program text.
    pub text: String,
    /// Sub-programs the traced run evaluates alone.
    tc_text: String,
    triangle_text: String,
    negation_text: String,
    /// `|path|`: the chain forest's closed form `chains · len·(len+1)/2`.
    pub paths: usize,
    /// `|triangle|`: ordered triples, counted directly on the graph.
    pub triangles: usize,
    /// The nodes in no triangle, sorted.
    pub lonely: Vec<i64>,
}

impl Input {
    pub fn generate(seed: u64) -> Input {
        let edges = scale_free_symmetric(seed);
        let mut adj: Vec<Vec<i64>> = vec![Vec::new(); SF_NODES as usize];
        for &(s, t) in &edges {
            adj[s as usize].push(t);
        }
        // `edges` is sorted, so every adjacency list is too.
        let mut triangles = 0;
        let mut in_triangle = vec![false; SF_NODES as usize];
        for &(x, y) in &edges {
            let common = sorted_intersection(&adj[x as usize], &adj[y as usize]);
            triangles += common;
            in_triangle[x as usize] |= common > 0;
        }
        let lonely: Vec<i64> = (0..SF_NODES)
            .filter(|&n| !in_triangle[n as usize])
            .collect();

        let e_facts: String = edges
            .iter()
            .map(|(s, t)| format!("e({s}, {t}).\n"))
            .collect();
        let mut c_facts = String::new();
        for chain in 0..CHAINS {
            let base = CHAIN_BASE + chain * (CHAIN_LEN + 1);
            for i in 0..CHAIN_LEN {
                c_facts.push_str(&format!("c({}, {}).\n", base + i, base + i + 1));
            }
        }
        let node_facts: String = (0..SF_NODES).map(|n| format!("node({n}).\n")).collect();
        let intri_facts: String = (0..SF_NODES)
            .filter(|n| in_triangle[*n as usize])
            .map(|n| format!("intri({n}).\n"))
            .collect();
        let mut rules = RULES.lines();
        let mut take = |k: usize| rules.by_ref().take(k).collect::<Vec<_>>().join("\n");
        let (tc_rules, tri_rule, _intri_rule, neg_rule) = (take(2), take(1), take(1), take(1));
        Input {
            text: format!("{e_facts}{c_facts}{node_facts}{RULES}"),
            tc_text: format!("{c_facts}{tc_rules}\n"),
            triangle_text: format!("{e_facts}{tri_rule}\n"),
            negation_text: format!("{node_facts}{intri_facts}{neg_rule}\n"),
            paths: (CHAINS * CHAIN_LEN * (CHAIN_LEN + 1) / 2) as usize,
            triangles,
            lonely,
        }
    }

    /// Whether a computed model matches the oracles.
    pub fn matches(&self, paths: usize, triangles: usize, lonely: &[Vec<Const>]) -> bool {
        paths == self.paths
            && triangles == self.triangles
            && lonely.len() == self.lonely.len()
            && lonely
                .iter()
                .zip(&self.lonely)
                .all(|(row, n)| row.as_slice() == [Const::Int(*n)])
    }
}

/// `|a ∩ b|` of two sorted lists.
fn sorted_intersection(a: &[i64], b: &[i64]) -> usize {
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

/// A preferential-attachment graph (each new node links to
/// `SF_PER_NODE` endpoints drawn in proportion to degree), with both
/// directions of every non-loop edge, deduplicated and sorted.
fn scale_free_symmetric(seed: u64) -> Vec<(i64, i64)> {
    let mut rng = Rng::stream(seed, 0xDA7A);
    let mut pool: Vec<i64> = vec![0, 1];
    let mut set = BTreeSet::from([(0, 1), (1, 0)]);
    for t in 2..SF_NODES {
        for _ in 0..SF_PER_NODE {
            let s = pool[rng.below(pool.len() as u64) as usize];
            set.insert((s, t));
            set.insert((t, s));
            pool.push(s);
            pool.push(t);
        }
    }
    set.into_iter().collect()
}

/// Times the stages of one op as child spans of its root span (when
/// traced) or not at all.
struct Stages<'t> {
    tracer: Option<&'t mut Tracer>,
    op: u32,
    root: Option<u32>,
}

impl Stages<'_> {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.tracer.as_deref_mut() {
            Some(t) => t.span(name, self.op, self.root, f),
            None => f(),
        }
    }
}

/// What one op read off its model: evaluation statistics, the number
/// of derived facts, and whether the oracles agreed.
struct Done {
    stats: EvalStats,
    derived: usize,
    ok: bool,
}

/// One op: parse → stratify → `eval_ids` → decode → check → drop. With
/// a tracer, each stage is a child span of the op's root span.
fn op(input: &Input, tracer: Option<&mut Tracer>, op: u32) -> Result<Done, String> {
    let mut st = Stages {
        tracer,
        op,
        root: None,
    };
    st.root = st.tracer.as_deref_mut().map(|t| t.open("op", op, None));
    let done = (|| {
        let program = st.time("dl.parse", || parse_program(&input.text));
        let program = program.map_err(|e| e.to_string())?;
        st.time("dl.stratify", || stratify(&program))
            .map_err(|e| e.to_string())?;
        let (db, stats) = st.time("dl.eval", || eval_ids(&program, Strategy::Seminaive));
        let (paths, triangles, lonely) = st.time("dl.decode", || {
            (
                db.fact_count("path"),
                db.rows("triangle").len(),
                db.rows("lonely"),
            )
        });
        let ok = st.time("dl.check", || input.matches(paths, triangles, &lonely));
        let derived = DERIVED.iter().map(|p| db.fact_count(p)).sum();
        st.time("dl.drop", || drop((program, db, lonely)));
        Ok(Done { stats, derived, ok })
    })();
    if let (Some(t), Some(root)) = (st.tracer.as_deref_mut(), st.root) {
        t.close(root);
    }
    done
}

/// Evaluates `text` alone `SUB_REPEATS` times; the median in ms.
fn sub_program_ms(text: &str) -> Result<f64, String> {
    let program: Program = parse_program(text).map_err(|e| e.to_string())?;
    let times: Vec<f64> = (0..SUB_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            let model = eval_ids(&program, Strategy::Seminaive);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(std::hint::black_box(model));
            ms
        })
        .collect();
    Ok(median(&times))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let ops = args.ops(OPS_PER_S);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut input = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let fresh = Input::generate(args.seed);
        // Warm-up op, outside the timed window.
        if !op(&fresh, None, 0)?.ok {
            return Err("warm-up op failed the oracle".into());
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        input = Some(fresh);
    }
    let input = input.expect("set-up ran at least once");

    let mut latencies = Vec::with_capacity(ops);
    let mut failed = 0;
    let t0 = Instant::now();
    for i in 0..ops {
        let t = Instant::now();
        let done = op(&input, None, i as u32)?;
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(!done.ok);
    }
    let timed_s = t0.elapsed().as_secs_f64();
    let mut report = Report::default();
    let timed = [Timed {
        latencies_ms: latencies,
        seconds: timed_s,
    }];
    crate::util::end_to_end(&mut report, &setup_s, &timed);
    let mut attempted = ops as u64;

    if args.trace {
        let traced_ops = (ops / 4).max(10);
        let mut tracer = Tracer::new();
        let mut stats = EvalStats::default();
        let mut facts_out = 0;
        let mut traced_lat = Vec::with_capacity(traced_ops);
        for i in 0..traced_ops {
            let t = Instant::now();
            let done = op(&input, Some(&mut tracer), i as u32)?;
            traced_lat.push(t.elapsed().as_secs_f64() * 1e3);
            stats = done.stats;
            facts_out = done.derived;
            failed += u64::from(!done.ok);
        }
        attempted += traced_ops as u64;
        let per_op_ms = |name: &str| tracer.total_ns(name) as f64 / 1e6 / traced_ops as f64;
        for (span, metric) in [
            ("dl.parse", "dl.parse_ms"),
            ("dl.stratify", "dl.stratify_ms"),
            ("dl.eval", "dl.eval_ms"),
            ("dl.decode", "dl.decode_ms"),
            ("dl.check", "dl.check_ms"),
            ("dl.drop", "dl.drop_ms"),
        ] {
            report.put(metric, per_op_ms(span), "ms");
        }
        report.put("dl.tc_ms", sub_program_ms(&input.tc_text)?, "ms");
        report.put(
            "dl.triangle_ms",
            sub_program_ms(&input.triangle_text)?,
            "ms",
        );
        report.put(
            "dl.negation_ms",
            sub_program_ms(&input.negation_text)?,
            "ms",
        );
        report.put("dl.rounds", stats.rounds as f64, "count");
        report.put("dl.derivations", stats.derivations as f64, "count");
        report.put("dl.facts_out", facts_out as f64, "count");
        report.put(
            "dl.facts_per_derivation",
            facts_out as f64 / stats.derivations.max(1) as f64,
            "ratio",
        );
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
