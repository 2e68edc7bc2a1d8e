//! Latency statistics and small helpers shared by the workloads.

use std::time::Duration;

/// The probe time reference-speed figures are scaled to: about the
/// probe's median on the 2-vCPU host the benchmark was tuned on.
pub const PROBE_REFERENCE: Duration = Duration::from_millis(4);

/// Percentiles the tail is chosen from.
const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// The tail percentile reported: the highest rung of p50, p75, p90, p95,
/// p99, up to `nominal`, with at least ten samples beyond it.
///
/// `nominal` is the highest rung a full-length run of the workload fills
/// with ten samples beyond it. Capping at it keeps the choice from moving
/// with a run's sample count (a run on a faster host is not reported at a
/// higher percentile), and p99 caps it because beyond it a run of tens of
/// thousands of requests measures the host's scheduling more than the
/// program.
pub fn tail_percentile(samples: usize, nominal: f64) -> f64 {
    TAIL_LADDER
        .into_iter()
        .rev()
        .find(|p| *p <= nominal && samples as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// The value at percentile `p` (nearest rank) of sorted samples.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `k` of
/// `y ≈ c·x^k`. Zero with fewer than two distinct `x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if pts.len() < 2 || sxx <= 0.0 {
        return 0.0;
    }
    pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / sxx
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[derive(Clone)]
enum ProbeNode {
    Leaf(String, u64),
    Branch(Vec<ProbeNode>),
}

/// Times the host-speed probe once, on the calling thread.
///
/// The host the benchmark was tuned on (a 2-vCPU VM on a shared machine)
/// runs the same code up to 1.6x faster or slower for seconds to minutes
/// at a time; the probe slows and speeds with it. The probe is code of the
/// benchmark's own (build, clone, walk and hash a tree of about 20,000
/// small heap nodes: allocation and pointer-chasing like a compiler's), so
/// a change to the repository's code does not change what it measures.
/// (Run on a fresh thread instead, it tracked the host worse: each probe
/// then also paid for a fresh heap arena.)
pub fn probe_host() -> Duration {
    fn build(depth: u32, x: &mut u64) -> ProbeNode {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        if depth == 0 {
            return ProbeNode::Leaf(format!("q{}", *x % 1000), *x);
        }
        let children = 2 + (*x % 3) as usize;
        ProbeNode::Branch((0..children).map(|_| build(depth - 1, x)).collect())
    }
    fn walk(node: &ProbeNode, names: &mut std::collections::HashMap<String, u64>) -> u64 {
        match node {
            ProbeNode::Leaf(name, v) => {
                *names.entry(name.clone()).or_default() += v;
                *v
            }
            ProbeNode::Branch(children) => {
                children.iter().map(|c| walk(c, names)).fold(0, u64::wrapping_add)
            }
        }
    }
    let started = std::time::Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let tree = build(9, &mut x);
    let copy = tree.clone();
    let mut names = std::collections::HashMap::new();
    let sum = walk(&copy, &mut names);
    std::hint::black_box((sum, names.len()));
    drop((tree, copy));
    started.elapsed()
}
