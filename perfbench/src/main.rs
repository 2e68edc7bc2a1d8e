//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, one per line with unit, then
//! a final JSON line `{"correct","attempted","failed","metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run is split between an untraced half (the baseline for
//! `trace.overhead`) and a traced half that yields the per-layer metrics,
//! and the spans are written to `<out-dir>/spans-<workload>-seed<n>.jsonl`.
//! End-to-end times are scaled to reference host speed by a probe timed
//! through the run ([`stats::probe_host`]); the wall-clock figures are
//! printed as notes.

use perfbench::stats::{self, json_escape};
use perfbench::trace::{spans_jsonl, Summary};
use perfbench::workloads::{self as w, Measured, Traced};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Spans written out per client thread (all of them feed the per-layer
/// figures); enough for every request kind many times over, while a
/// `serve-mixed` run records about a million.
const SPANS_WRITTEN_PER_CLIENT: usize = 50_000;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// Per-layer self-time metrics: (metric, span name, scale to the unit).
const LAYER_TIMES: [(&str, &str, f64, &str); 27] = [
    ("ast.parse_ms", "ast.parse", 1.0, "ms"),
    ("ast.frontend_ms", "ast.frontend", 1.0, "ms"),
    ("core.lower_ms", "core.lower", 1.0, "ms"),
    ("core.clone_ms", "core.clone", 1.0, "ms"),
    ("codegen.registry_ms", "codegen.registry", 1.0, "ms"),
    ("ir.verify_ms", "ir.pipeline", 1.0, "ms"),
    ("ir.lift-lambdas_ms", "ir.lift-lambdas", 1.0, "ms"),
    ("ir.canonicalize-inline_ms", "ir.canonicalize-inline", 1.0, "ms"),
    ("ir.remove-dead-private-funcs_ms", "ir.remove-dead-private-funcs", 1.0, "ms"),
    ("ir.convert-to-qcircuit_ms", "ir.convert-to-qcircuit", 1.0, "ms"),
    ("ir.qcircuit-peephole_ms", "ir.qcircuit-peephole", 1.0, "ms"),
    ("qcircuit.reg2mem_ms", "qcircuit.reg2mem", 1.0, "ms"),
    ("qcircuit.decompose_ms", "qcircuit.decompose", 1.0, "ms"),
    ("target.route_ms", "target.route", 1.0, "ms"),
    ("codegen.qasm_ms", "codegen.qasm", 1.0, "ms"),
    ("resource.estimate_ms", "resource.estimate", 1.0, "ms"),
    ("codegen.qir_ms", "codegen.qir", 1.0, "ms"),
    ("analysis.lint_ms", "analysis.lint", 1.0, "ms"),
    ("core.session_ms", "core.session", 1.0, "ms"),
    ("server.parse_us", "server.parse", 1e3, "us"),
    ("server.registry_us", "server.registry", 1e3, "us"),
    ("server.stats_us", "server.stats", 1e3, "us"),
    ("sim.kernel_compile_ms", "sim.kernel_compile", 1.0, "ms"),
    ("sim.apply_ms", "sim.apply", 1.0, "ms"),
    ("sim.emit_ms", "sim.emit", 1.0, "ms"),
    ("server.self_us", "server.respond", 1e3, "us"),
    ("trace.unattributed_ms", "request", 1.0, "ms"),
];

/// Per-layer metrics computed by the workloads (0 where not exercised).
const LAYER_EXTRAS: [(&str, &str); 12] = [
    ("ir.peephole_firings", "count"),
    ("ir.peephole_exponent", "ratio"),
    ("core.session.hit_share", "share"),
    ("core.session.frontend_hit_share", "share"),
    ("core.session.coalesced", "count"),
    ("core.session.hit_us", "us"),
    ("core.diskcache.hits", "count"),
    ("core.diskcache.writes", "count"),
    ("core.diskcache.load_ms", "ms"),
    ("core.diskcache.store_ms", "ms"),
    ("sim.sampled_share", "share"),
    ("trace.coverage", "share"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds must be an integer")?)
            }
            "--trace" => trace = Some(value == "1"),
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !w::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (one of {:?})", w::WORKLOADS));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// A workload's generated inputs and live set-up.
enum Prepared {
    Cold(w::ColdInputs),
    Serve(w::ServeInputs, Box<asdf_server::CompileServer>),
    Sim(w::SimInputs),
}

/// Everything one invocation measured.
struct Report {
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

fn cache_dir(scratch: &Path, k: usize) -> PathBuf {
    scratch.join(format!("cache-{k}"))
}

fn prepare(args: &Args, scratch: &Path, setup: &mut Vec<f64>) -> Result<Prepared, String> {
    let inputs = match args.workload.as_str() {
        "suite-cold" => Some(Prepared::Cold(w::suite_inputs(args.seed)?)),
        "wide-cold" => Some(Prepared::Cold(w::wide_inputs(args.seed))),
        _ => None,
    };
    if let Some(Prepared::Cold(inputs)) = &inputs {
        for _ in 0..SETUP_REPEATS {
            let started = Instant::now();
            w::cold_setup(inputs)?;
            setup.push(started.elapsed().as_secs_f64());
        }
    }
    if let Some(prepared) = inputs {
        return Ok(prepared);
    }
    if args.workload == "sim-emit" {
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let started = Instant::now();
            let inputs = w::sim_setup(args.seed)?;
            setup.push(started.elapsed().as_secs_f64());
            last = Some(inputs);
        }
        return Ok(Prepared::Sim(last.expect("at least one set-up")));
    }
    let inputs = w::serve_inputs(args.seed, scratch)?;
    let mut last = None;
    for k in 0..SETUP_REPEATS {
        let started = Instant::now();
        let server = w::serve_setup(&inputs, &cache_dir(scratch, k))?;
        setup.push(started.elapsed().as_secs_f64());
        last = Some(server);
    }
    Ok(Prepared::Serve(inputs, Box::new(last.expect("at least one set-up"))))
}

fn measure(prepared: &Prepared, budget: Duration) -> Measured {
    match prepared {
        Prepared::Cold(inputs) => w::cold_run(inputs, budget),
        Prepared::Serve(inputs, server) => w::serve_run(inputs, server, budget),
        Prepared::Sim(inputs) => w::sim_run(inputs, budget),
    }
}

fn traced(
    prepared: &Prepared,
    budget: Duration,
    reference: &Measured,
    scratch: &Path,
) -> Result<Traced, String> {
    Ok(match prepared {
        Prepared::Cold(inputs) => w::cold_traced(inputs, budget, &reference.quality),
        Prepared::Serve(inputs, _) => {
            let server = w::serve_setup(inputs, &cache_dir(scratch, SETUP_REPEATS))?;
            w::serve_traced(inputs, &server, budget)
        }
        Prepared::Sim(inputs) => w::sim_traced(inputs, budget),
    })
}

fn end_to_end(
    m: &Measured,
    setup_s: f64,
    workload: &str,
    notes: &mut Vec<String>,
) -> Vec<(String, f64, String)> {
    let mut sorted = m.latencies.clone();
    sorted.sort();
    let mut wall = m.wall_latencies.clone();
    wall.sort();
    let tail = stats::tail_percentile(sorted.len(), w::nominal_tail(workload));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    notes.push(format!(
        "samples {} | tail percentile p{tail:.3} ({} samples beyond it)",
        sorted.len(),
        sorted.len() - ((tail / 100.0) * sorted.len() as f64).ceil() as usize
    ));
    notes.push(format!(
        "wall clock: latency_p50_ms {} latency_tail_ms {} throughput_rps {} | host probe median {} ms (reference {} ms)",
        ms(stats::percentile(&wall, 50.0)),
        ms(stats::percentile(&wall, tail)),
        m.wall_throughput_rps,
        ms(m.probe_median),
        ms(stats::PROBE_REFERENCE),
    ));
    notes.push(format!(
        "failed_share {} ({} of {} attempted)",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    ));
    let q = &m.quality;
    vec![
        ("latency_p50_ms".into(), ms(stats::percentile(&sorted, 50.0)), "ms".into()),
        ("latency_tail_ms".into(), ms(stats::percentile(&sorted, tail)), "ms".into()),
        ("throughput_rps".into(), m.throughput_rps, "1/s".into()),
        ("setup_s".into(), setup_s, "s".into()),
        ("peak_rss_mb".into(), m.peak_rss_mb, "MiB".into()),
        ("ok_share".into(), 1.0 - m.failed as f64 / m.attempted.max(1) as f64, "share".into()),
        ("gate_count".into(), q.total(|p| p.gates as f64), "count".into()),
        ("qasm_bytes".into(), q.total(|p| p.qasm_bytes as f64), "bytes".into()),
        ("ft_physical_qubits".into(), q.total(|p| p.physical_qubits as f64), "count".into()),
        ("ft_runtime_us".into(), q.total(|p| p.runtime_us), "us_est".into()),
    ]
}

fn per_layer(m: &Measured, t: &Traced) -> Vec<(String, f64, String)> {
    let mut summary = Summary::default();
    for spans in &t.spans {
        summary.add(spans);
    }
    let mut out: Vec<(String, f64, String)> = LAYER_TIMES
        .iter()
        .map(|(metric, span, scale, unit)| {
            let value = summary.mean_ms(span) * scale;
            (metric.to_string(), value, unit.to_string())
        })
        .collect();
    for (metric, unit) in LAYER_EXTRAS {
        let value = match metric {
            "trace.coverage" => summary.coverage(),
            _ => t.extra.get(metric).copied().unwrap_or(0.0),
        };
        out.push((metric.to_string(), value, unit.to_string()));
    }
    let q = &m.quality;
    out.push(("qcircuit.t_count".into(), q.total(|p| p.t_count as f64), "count".into()));
    out.push(("target.routed_swaps".into(), q.total(|p| p.swaps as f64), "count".into()));
    out.push((
        "trace.overhead".into(),
        t.throughput_rps / m.wall_throughput_rps.max(f64::MIN_POSITIVE),
        "ratio".into(),
    ));
    out
}

fn run(args: &Args) -> Result<Report, String> {
    let harness_started = Instant::now();
    let scratch = args.out_dir.join(format!("tmp-{}", std::process::id()));
    let mut setup = Vec::new();
    let mut probes: Vec<f64> = (0..3).map(|_| stats::probe_host().as_secs_f64()).collect();
    let prepared = prepare(args, &scratch, &mut setup);
    probes.extend((0..3).map(|_| stats::probe_host().as_secs_f64()));
    let setup_total: f64 = setup.iter().sum();
    let input_generation = harness_started.elapsed().as_secs_f64() - setup_total;
    let prepared = prepared.inspect_err(|_| {
        let _ = std::fs::remove_dir_all(&scratch);
    })?;
    let setup_s = stats::median(&setup);
    let notes = vec![
        format!("input generation and host probes {input_generation:.3} s (harness, untimed)"),
        format!("wall clock: setup_s {setup_s}"),
    ];
    let scale = stats::PROBE_REFERENCE.as_secs_f64() / stats::median(&probes);
    let report = measure_and_report(args, &prepared, setup_s * scale, &scratch, notes);
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

fn measure_and_report(
    args: &Args,
    prepared: &Prepared,
    setup_s: f64,
    scratch: &Path,
    mut notes: Vec<String>,
) -> Result<Report, String> {
    let budget = Duration::from_secs(args.seconds);
    Ok(if args.trace {
        let measured = measure(prepared, budget / 2);
        let t = traced(prepared, budget / 2, &measured, scratch)?;
        let metrics = per_layer(&measured, &t);
        std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
        let mut text = String::new();
        let (mut first, mut total) = (0, 0);
        for spans in &t.spans {
            total += spans.len();
            // Whole requests only: a request's spans are contiguous.
            let mut keep = spans.len().min(SPANS_WRITTEN_PER_CLIENT);
            while keep < spans.len() && spans[keep].parent.is_some() {
                keep += 1;
            }
            text.push_str(&spans_jsonl(&spans[..keep], first));
            first += keep;
        }
        let path = args.out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, text).map_err(|e| e.to_string())?;
        notes.push(format!("{first} of {total} spans written to {}", path.display()));
        notes.push(format!(
            "answer checks and host probes {:.3} s (harness, untimed)",
            measured.harness.as_secs_f64()
        ));
        let mut failures = measured.failures.clone();
        failures.extend(t.failures.iter().cloned());
        Report {
            metrics,
            attempted: measured.attempted + t.attempted,
            failed: measured.failed + t.failed,
            failures,
            notes,
        }
    } else {
        let measured = measure(prepared, budget);
        let metrics = end_to_end(&measured, setup_s, &args.workload, &mut notes);
        notes.push(format!(
            "answer checks and host probes {:.3} s (harness, untimed)",
            measured.harness.as_secs_f64()
        ));
        if measured.sim_sampled.1 > 0 {
            notes.push(format!(
                "sim emits answered by the sampling fallback: {} of {}",
                measured.sim_sampled.0, measured.sim_sampled.1
            ));
        }
        Report {
            metrics,
            attempted: measured.attempted,
            failed: measured.failed,
            failures: measured.failures,
            notes,
        }
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} revision={} nproc={threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("PERFBENCH_REVISION").unwrap_or_else(|_| "unknown".into()),
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for failure in &report.failures {
        println!("# FAILED: {failure}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_escape(name),
                value,
                json_escape(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
