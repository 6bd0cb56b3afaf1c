//! Shared pieces: the input RNG, latency statistics, process memory,
//! the span recorder of the traced run, and the metric report.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: the benchmark's own input generator, so a change to the
/// program's RNG can never change the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for sub-stream `k` of `seed` (one per workload part).
    pub fn stream(seed: u64, k: u64) -> Rng {
        let mut r = Rng(seed ^ k.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2⁻⁵⁰ for the small
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The `q`-quantile (0..=1) of `xs` by the nearest-rank rule.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), or 0 where
/// the file does not exist.
pub fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the
/// first line of `/proc/stat` ((0, 0) where it does not exist). Steal
/// is time the hypervisor ran something else while a vCPU wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// The threads of this process, by id.
pub fn thread_ids() -> Vec<u64> {
    let mut ids: Vec<u64> = std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// Nanoseconds a thread of this process has spent on a CPU, from the
/// kernel's scheduler statistics (0 where they are not available).
pub fn thread_cpu_ns(tid: u64) -> u64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// One closed interval of the traced run: a call into one layer.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Spans are written out only when the run
/// ends ([`Tracer::write_tsv`]), so recording costs two clock reads and
/// a `Vec` push.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u32, parent: Option<u32>) -> u32 {
        let now = ns_since(self.t0);
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = ns_since(self.t0);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Sum of self time (duration minus the time covered by direct
    /// children) per span name, in nanoseconds. Children of one span
    /// never overlap here: every traced call is synchronous.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .sum()
    }

    /// Total duration of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as a tab-separated line
    /// `id parent op name start_ns end_ns` (parent `-` for a root).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id\tparent\top\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The metrics of one run, in insertion order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// The timed part of one round: per-op latencies (ms) and seconds.
pub struct Timed {
    pub latencies_ms: Vec<f64>,
    pub seconds: f64,
}

/// The end-to-end figures every workload reports: set-up time, closed-
/// loop throughput and per-op latency quantiles over all timed ops of
/// all rounds, and peak memory.
pub fn end_to_end(report: &mut Report, setup_s: &[f64], rounds: &[Timed]) {
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let seconds: f64 = rounds.iter().map(|r| r.seconds).sum();
    report.put("setup_s", median(setup_s), "s");
    report.put("throughput_ops", latencies.len() as f64 / seconds, "1/s");
    report.put("latency_p50_ms", quantile(&latencies, 0.5), "ms");
    report.put("latency_p90_ms", quantile(&latencies, 0.9), "ms");
    report.put("peak_rss_mb", proc_status_kb("VmHWM") as f64 / 1024.0, "MB");
}
