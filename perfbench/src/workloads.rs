//! The four workloads: input generation, the measured (untraced) run,
//! and the traced run that re-issues the same requests layer by layer.

use crate::check::{self, Rng};
use crate::programs::{self, Program, ServeSource};
use crate::trace::{Span, Tracer};
use asdf_ast::tast::{TExpr, TExprKind, TKernel, TStmt};
use asdf_codegen::{BackendRegistry, EmitInput};
use asdf_core::{CacheStats, CompileOptions, CompileRequest, Compiled, Session};
use asdf_qcircuit::Circuit;
use asdf_resource::{estimate, Estimate, SurfaceCodeParams};
use asdf_server::json::{self, Value};
use asdf_server::proto::{self, Request};
use asdf_server::CompileServer;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["suite-cold", "wide-cold", "serve-mixed", "sim-emit"];

/// `suite-cold` sizes (the paper's suite at these `n`).
pub const SUITE_SIZES: [usize; 3] = [8, 16, 32];
/// `wide-cold` bundle widths.
pub const WIDE_SIZES: [usize; 3] = [128, 256, 384];
/// `sim-emit` sizes.
pub const SIM_SIZES: [usize; 3] = [2, 3, 4];
/// Request lines generated per `serve-mixed` client (then replayed in a loop).
pub const SERVE_LINES_PER_CLIENT: usize = 2048;
/// `serve-mixed` closed-loop clients (the host has two cores).
pub const SERVE_CLIENTS: u64 = 2;

/// The nominal tail percentile of a workload (see
/// [`crate::stats::tail_percentile`]): each lands inside the latency band
/// of the workload's costliest request kind, away from its edges.
pub fn nominal_tail(workload: &str) -> f64 {
    match workload {
        "serve-mixed" => 99.0,
        "sim-emit" => 90.0,
        _ => 95.0,
    }
}

/// Output-quality figures of one distinct (program, config) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairQuality {
    /// Gates, not counting measure or reset.
    pub gates: usize,
    /// T gates.
    pub t_count: usize,
    /// Bytes of the emitted QASM.
    pub qasm_bytes: usize,
    /// Fault-tolerant physical qubits.
    pub physical_qubits: usize,
    /// Fault-tolerant runtime.
    pub runtime_us: f64,
    /// SWAPs routing inserted.
    pub swaps: usize,
}

impl PairQuality {
    fn of(circuit: &Circuit, qasm_bytes: usize, est: &Estimate, swaps: usize) -> PairQuality {
        PairQuality {
            gates: circuit.gate_count(),
            t_count: circuit.t_count(),
            qasm_bytes,
            physical_qubits: est.physical_qubits,
            runtime_us: est.runtime_us,
            swaps,
        }
    }
}

/// Quality counts over a workload's distinct (program, config) pairs,
/// each pair counted once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    /// Figures by `program/config` key.
    pub pairs: BTreeMap<String, PairQuality>,
}

impl Quality {
    fn record(&mut self, key: String, quality: PairQuality) {
        self.pairs.entry(key).or_insert(quality);
    }

    /// Sum of one figure over all pairs.
    pub fn total(&self, figure: impl Fn(&PairQuality) -> f64) -> f64 {
        self.pairs.values().map(figure).sum()
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of every request at reference host speed (see
    /// [`crate::stats::probe_host`]).
    pub latencies: Vec<Duration>,
    /// Latency of every request by the wall clock.
    pub wall_latencies: Vec<Duration>,
    /// Peak resident set in MiB when the timed loop ended.
    pub peak_rss_mb: f64,
    /// Requests per second of client busy time at reference host speed,
    /// summed over clients.
    pub throughput_rps: f64,
    /// The same by the wall clock.
    pub wall_throughput_rps: f64,
    /// Median host-probe time.
    pub probe_median: Duration,
    /// Requests attempted.
    pub attempted: u64,
    /// Errors, panics and wrong answers.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Harness time outside the timed region (answer checks, host probes).
    pub harness: Duration,
    /// Output quality.
    pub quality: Quality,
    /// `sim` emits whose text was the sampling fallback, and all `sim` emits.
    pub sim_sampled: (u64, u64),
}

/// What the traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Requests per second of busy time while tracing.
    pub throughput_rps: f64,
    /// Requests replayed.
    pub attempted: u64,
    /// Replays that failed or disagreed with `Session::compile`.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Spans per client thread.
    pub spans: Vec<Vec<Span>>,
    /// Per-layer metrics beyond span self times, by name.
    pub extra: BTreeMap<&'static str, f64>,
}

/// Request latencies in a buffer allocated and written once up front, so
/// recording them does not grow the process: `peak_rss_mb` then moves with
/// the program's memory, not with how many requests a run completed.
#[derive(Debug, Default)]
struct Latencies {
    /// Latencies in units of 10 ns.
    buf: Vec<u32>,
    len: usize,
}

impl Latencies {
    fn with_capacity(capacity: usize) -> Latencies {
        // A non-zero fill writes every page now (zeroed pages would be
        // mapped lazily, as they are first written).
        Latencies { buf: vec![u32::MAX; capacity], len: 0 }
    }

    fn push(&mut self, d: Duration) {
        if let Some(slot) = self.buf.get_mut(self.len) {
            *slot = u32::try_from(d.as_nanos() / 10).unwrap_or(u32::MAX);
            self.len += 1;
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    fn iter(&self) -> impl Iterator<Item = Duration> + '_ {
        self.buf[..self.len].iter().map(|&t| Duration::from_nanos(u64::from(t) * 10))
    }
}

/// Latency slots per client: far above what a full-length run records
/// (about 4,000 requests on a cold workload, 250,000 per `serve-mixed`
/// client); a run whose buffer fills ends early.
const COLD_SLOTS: usize = 1 << 16;
const SERVE_SLOTS: usize = 1 << 20;

/// Client busy time between host probes.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// Per-client bookkeeping.
#[derive(Debug, Default)]
struct Tally {
    latencies: Latencies,
    busy: Duration,
    /// Host-probe times, each with the index of the first request it
    /// scales (requests up to the next probe).
    probes: Vec<(usize, Duration)>,
    since_probe: Duration,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    harness: Duration,
}

impl Tally {
    fn with_slots(slots: usize) -> Tally {
        let mut tally = Tally { latencies: Latencies::with_capacity(slots), ..Tally::default() };
        tally.probe();
        tally
    }

    /// Probes the host's speed (harness work).
    fn probe(&mut self) {
        let started = Instant::now();
        self.probes.push((self.latencies.len(), crate::stats::probe_host()));
        self.since_probe = Duration::ZERO;
        self.harness += started.elapsed();
    }

    /// Each latency scaled to reference host speed by the probe taken
    /// just before it.
    fn scaled_latencies(&self) -> Vec<Duration> {
        let reference = crate::stats::PROBE_REFERENCE.as_secs_f64();
        let mut probes = self.probes.iter().peekable();
        let mut scale = 1.0;
        self.latencies
            .iter()
            .enumerate()
            .map(|(i, latency)| {
                while let Some((_, probe)) = probes.next_if(|(first, _)| *first <= i) {
                    scale = reference / probe.as_secs_f64().max(1e-9);
                }
                latency.mul_f64(scale)
            })
            .collect()
    }

    /// Runs one request inside the timed region; a panic is a failure.
    fn timed<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let started = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        let elapsed = started.elapsed();
        self.latencies.push(elapsed);
        self.busy += elapsed;
        self.attempted += 1;
        self.since_probe += elapsed;
        if self.since_probe >= PROBE_EVERY {
            self.probe();
        }
        out.unwrap_or_else(|_| Err("panic".to_string()))
    }

    /// Runs harness work (answer checks) outside the timed region.
    fn harness<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.harness += started.elapsed();
        out
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Folds client tallies into a run's figures: every latency, and
    /// throughput summed over clients.
    fn into_measured(tallies: Vec<Tally>) -> Measured {
        let mut m = Measured::default();
        let mut probes = Vec::new();
        for t in tallies {
            let scaled = t.scaled_latencies();
            let busy: f64 = scaled.iter().map(Duration::as_secs_f64).sum();
            m.throughput_rps += scaled.len() as f64 / busy.max(1e-9);
            m.latencies.extend(scaled);
            m.wall_throughput_rps += t.latencies.len() as f64 / t.busy.as_secs_f64().max(1e-9);
            m.wall_latencies.extend(t.latencies.iter());
            probes.extend(t.probes.iter().map(|(_, p)| p.as_secs_f64()));
            m.attempted += t.attempted;
            m.failed += t.failed;
            m.failures.extend(t.failures);
            m.harness += t.harness;
        }
        m.probe_median = Duration::from_secs_f64(crate::stats::median(&probes));
        m
    }
}

/// Remembers the last verified output per key, so a byte-identical
/// repeat of a verified output passes without re-running the check.
#[derive(Default)]
struct Verified(HashMap<String, String>);

impl Verified {
    fn check(
        &mut self,
        key: &str,
        text: &str,
        judge: impl FnOnce(&str) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.0.get(key).is_some_and(|known| known == text) {
            return Ok(());
        }
        judge(text)?;
        self.0.insert(key.to_string(), text.to_string());
        Ok(())
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The compile request for a program under `options`.
pub fn request_of(program: &Program, options: CompileOptions) -> CompileRequest {
    let mut request = CompileRequest::kernel(program.kernel).with_captures(&program.captures);
    for (name, value) in &program.dims {
        request = request.with_dim(name, *value);
    }
    request.with_options(options)
}

fn grid_name(k: usize) -> String {
    format!("grid-{k}x{k}")
}

/// The smallest `grid-K×K` target the program's circuit routes onto.
fn smallest_grid(program: &Program) -> Result<usize, String> {
    let session = Session::new(&program.source).map_err(err)?;
    let artifact = session.compile(&request_of(program, CompileOptions::default())).map_err(err)?;
    let circuit = artifact.circuit.as_ref().ok_or("no straight-line circuit")?;
    let mut k = (circuit.num_qubits as f64).sqrt().ceil() as usize;
    while asdf_target::Target::parse(&grid_name(k)).map_err(err)?.route(circuit).is_err() {
        k += 1;
    }
    Ok(k)
}

/// Seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

fn run_cycles(budget: Duration, mut cycle: impl FnMut(u64)) {
    let started = Instant::now();
    let mut round = 0;
    while round == 0 || started.elapsed() < budget {
        cycle(round);
        round += 1;
    }
}

// ---------------------------------------------------------------------
// suite-cold and wide-cold
// ---------------------------------------------------------------------

/// Inputs of a cold-compile workload: programs, each with the grid its
/// routed recompile targets (`None` = no routed recompile).
pub struct ColdInputs {
    /// Programs and routing grids.
    pub programs: Vec<(Program, Option<usize>)>,
    /// Seed for job order and checker randomness.
    pub seed: u64,
}

/// Generates `suite-cold`'s inputs.
///
/// # Errors
///
/// Fails when a program does not compile.
pub fn suite_inputs(seed: u64) -> Result<ColdInputs, String> {
    let programs = programs::suite(&SUITE_SIZES)
        .into_iter()
        .map(|p| smallest_grid(&p).map(|k| (p, Some(k))))
        .collect::<Result<_, _>>()?;
    Ok(ColdInputs { programs, seed })
}

/// Generates `wide-cold`'s inputs.
pub fn wide_inputs(seed: u64) -> ColdInputs {
    ColdInputs {
        programs: programs::wide_catalog(&WIDE_SIZES).into_iter().map(|p| (p, None)).collect(),
        seed,
    }
}

/// The job order of cycle `round`.
pub fn cold_order(inputs: &ColdInputs, round: u64) -> Vec<usize> {
    shuffled(
        inputs.programs.len(),
        &mut Rng(inputs.seed ^ round.wrapping_mul(0x2545_F491_4F6C_DD1D)),
    )
}

/// One emitted artifact of a cold job.
struct PairOut {
    config: &'static str,
    artifact: Arc<Compiled>,
    qasm: String,
    estimate: Estimate,
}

fn configs(grid: Option<usize>) -> Vec<(&'static str, Option<String>)> {
    let mut out = vec![("plain", None)];
    if let Some(k) = grid {
        out.push(("routed", Some(grid_name(k))));
    }
    out
}

/// One cold job through the public API: a fresh session, the default Opt
/// compile, then (when routed) a recompile onto the grid in the same
/// session; every artifact emitted as QASM and estimated.
fn cold_job(program: &Program, grid: Option<usize>) -> Result<Vec<PairOut>, String> {
    let session = Session::new(&program.source).map_err(err)?;
    let mut out = Vec::new();
    for (config, target) in configs(grid) {
        let options = CompileOptions::default().with_target(target.as_deref());
        let artifact = session.compile(&request_of(program, options)).map_err(err)?;
        let qasm = session.emit(&artifact, "qasm").map_err(err)?;
        let circuit = artifact.circuit.as_ref().ok_or("no straight-line circuit")?;
        let estimate = estimate(circuit, &SurfaceCodeParams::default());
        out.push(PairOut { config, artifact, qasm, estimate });
    }
    Ok(out)
}

/// Session-side setup of a cold workload: a session per program (parse
/// and backend registry) and each routing target parsed.
pub fn cold_setup(inputs: &ColdInputs) -> Result<(), String> {
    for (program, grid) in &inputs.programs {
        std::hint::black_box(Session::new(&program.source).map_err(err)?);
        if let Some(k) = grid {
            std::hint::black_box(asdf_target::Target::parse(&grid_name(*k)).map_err(err)?);
        }
    }
    Ok(())
}

/// The measured run of a cold workload.
pub fn cold_run(inputs: &ColdInputs, budget: Duration) -> Measured {
    let mut tally = Tally::with_slots(COLD_SLOTS);
    let mut verified = Verified::default();
    let mut quality = Quality::default();
    run_cycles(budget, |round| {
        for i in cold_order(inputs, round) {
            let (program, grid) = &inputs.programs[i];
            let outcome = tally.timed(|| cold_job(program, *grid));
            let verdict = tally.harness(|| {
                let pairs = outcome?;
                for pair in &pairs {
                    let key = format!("{}/{}", program.label, pair.config);
                    let routed = if pair.config == "routed" { *grid } else { None };
                    verified.check(&key, &pair.qasm, |text| {
                        let circuit = check::parse_qasm(text)?;
                        check::check_circuit(
                            &circuit,
                            &program.answer,
                            program.bits,
                            routed,
                            inputs.seed,
                        )
                        .map(|_| ())
                    })?;
                    let circuit = pair.artifact.circuit.as_ref().ok_or("no circuit")?;
                    let swaps = pair.artifact.routing.as_ref().map_or(0, |r| r.swap_count);
                    quality.record(
                        key,
                        PairQuality::of(circuit, pair.qasm.len(), &pair.estimate, swaps),
                    );
                }
                Ok::<(), String>(())
            });
            if let Err(e) = verdict {
                tally.fail(format!("{}: {e}", program.label));
            }
        }
    });
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let mut m = Tally::into_measured(vec![tally]);
    m.peak_rss_mb = peak_rss_mb;
    m.quality = quality;
    m
}

fn pass_span_name(pass: &str) -> &'static str {
    match pass {
        "lift-lambdas" => "ir.lift-lambdas",
        "canonicalize-inline" => "ir.canonicalize-inline",
        "remove-dead-private-funcs" => "ir.remove-dead-private-funcs",
        "generate-specializations" => "ir.generate-specializations",
        "convert-to-qcircuit" => "ir.convert-to-qcircuit",
        "qcircuit-peephole" => "ir.qcircuit-peephole",
        _ => "ir.other-pass",
    }
}

/// Kernels a typed kernel references (the order `Session` lowers them in).
fn referenced_kernels(kernel: &TKernel) -> Vec<String> {
    fn walk(e: &TExpr, out: &mut Vec<String>) {
        match &e.kind {
            TExprKind::KernelRef { name } if !out.contains(name) => out.push(name.clone()),
            TExprKind::Adjoint(f) => walk(f, out),
            TExprKind::Pred { func, .. } => walk(func, out),
            TExprKind::Tensor(parts) | TExprKind::Compose(parts) => {
                parts.iter().for_each(|p| walk(p, out));
            }
            TExprKind::Pipe { value, func } => {
                walk(value, out);
                walk(func, out);
            }
            TExprKind::Cond { cond, then_f, else_f } => {
                walk(cond, out);
                walk(then_f, out);
                walk(else_f, out);
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for stmt in &kernel.body {
        match stmt {
            TStmt::Let { value, .. } => walk(value, &mut out),
            TStmt::Expr(e) => walk(e, &mut out),
        }
    }
    out
}

/// (program size, time, pattern firings) of each `qcircuit-peephole` run.
type PeepholeRuns = Vec<(usize, Duration, usize)>;

/// Parse, frontend and lowering, span by span, in `Session`'s cold order.
fn traced_frontend(
    tr: &mut Tracer,
    program: &Program,
) -> Result<(BackendRegistry, asdf_ir::Module), String> {
    let ast =
        tr.time("ast.parse", || asdf_ast::parse::parse_program(&program.source)).map_err(err)?;
    let registry = tr.time("codegen.registry", || {
        let mut registry = BackendRegistry::with_codegen_backends();
        registry.register(Box::new(asdf_sim::SimBackend::default()));
        registry
    });
    let dims: HashMap<String, i64> = program.dims.iter().cloned().collect();
    let frontend = |tr: &mut Tracer, name: &str, captures: &[asdf_ast::CaptureValue]| {
        tr.time("ast.frontend", || {
            let instance =
                asdf_ast::expand::instantiate(&ast, name, captures, &dims).map_err(err)?;
            let mut kernel =
                asdf_ast::typecheck::typecheck_kernel(&ast, name, &instance).map_err(err)?;
            asdf_ast::canon::canonicalize(&mut kernel);
            Ok::<TKernel, String>(kernel)
        })
    };
    let kernel = frontend(tr, program.kernel, &program.captures)?;
    let mut module = asdf_ir::Module::new();
    for referenced in referenced_kernels(&kernel) {
        if module.contains(&referenced) {
            continue;
        }
        let sub = frontend(tr, &referenced, &[])?;
        tr.time("core.lower", || asdf_core::lower::lower_kernel(&sub, &mut module)).map_err(err)?;
    }
    tr.time("core.lower", || asdf_core::lower::lower_kernel(&kernel, &mut module)).map_err(err)?;
    Ok((registry, module))
}

/// Pipeline, circuit lowering, decomposition and routing, span by span.
fn traced_backend(
    tr: &mut Tracer,
    program: &Program,
    lowered: &asdf_ir::Module,
    options: &CompileOptions,
    peephole: &mut PeepholeRuns,
) -> Result<(asdf_ir::Module, Circuit, usize), String> {
    let mut module = tr.time("core.clone", || lowered.clone());
    let pipeline = tr.begin("ir.pipeline");
    let stats = options.pipeline().run(&mut module);
    tr.end(pipeline);
    let stats = stats.map_err(err)?;
    let children: Vec<(&'static str, Duration)> =
        stats.passes.iter().map(|p| (pass_span_name(&p.name), p.duration)).collect();
    tr.derived_children(pipeline, &children);
    for pass in stats.passes.iter().filter(|p| p.name == "qcircuit-peephole") {
        let firings = pass
            .detail
            .iter()
            .filter(|(k, _)| k.starts_with(asdf_ir::pass::PATTERN_DETAIL_PREFIX))
            .map(|(_, n)| n)
            .sum();
        peephole.push((program.n, pass.duration, firings));
    }
    let raw = tr.time("qcircuit.reg2mem", || {
        let entry = module.expect_func(program.kernel).map_err(err)?;
        asdf_qcircuit::reg2mem::lower_to_circuit(entry).map_err(err)
    })?;
    let circuit = match options.decompose {
        Some(style) => {
            tr.time("qcircuit.decompose", || asdf_qcircuit::decompose::decompose(&raw, style))
        }
        None => raw,
    };
    let (circuit, swaps) = match &options.target {
        None => (circuit, 0),
        Some(name) => tr.time("target.route", || {
            let routed =
                asdf_target::Target::parse(name).map_err(err)?.route(&circuit).map_err(err)?;
            Ok::<_, String>((routed.circuit, routed.info.swap_count))
        })?,
    };
    Ok((module, circuit, swaps))
}

/// One cold job replayed through each layer's public function. Returns
/// (key, gates, qasm bytes) per pair, to compare with `Session::compile`.
fn traced_cold_job(
    tr: &mut Tracer,
    program: &Program,
    grid: Option<usize>,
    peephole: &mut PeepholeRuns,
) -> Result<Vec<(String, usize, usize)>, String> {
    let (registry, lowered) = traced_frontend(tr, program)?;
    let mut out = Vec::new();
    for (config, target) in configs(grid) {
        let options = CompileOptions::default().with_target(target.as_deref());
        let (module, circuit, _) = traced_backend(tr, program, &lowered, &options, peephole)?;
        let qasm = tr
            .time("codegen.qasm", || {
                let input =
                    EmitInput { module: &module, entry: program.kernel, circuit: Some(&circuit) };
                registry.emit("qasm", &input)
            })
            .map_err(err)?;
        let est =
            tr.time("resource.estimate", || estimate(&circuit, &SurfaceCodeParams::default()));
        std::hint::black_box(est);
        out.push((format!("{}/{config}", program.label), circuit.gate_count(), qasm.len()));
    }
    Ok(out)
}

/// The traced run of a cold workload; `reference` is the measured run's
/// quality map, which holds what `Session::compile` produced per pair.
pub fn cold_traced(inputs: &ColdInputs, budget: Duration, reference: &Quality) -> Traced {
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut peephole = PeepholeRuns::new();
    let mut traced = Traced::default();
    let mut busy = Duration::ZERO;
    run_cycles(budget, |round| {
        for i in cold_order(inputs, round) {
            let (program, grid) = &inputs.programs[i];
            let started = Instant::now();
            let root = tr.begin("request");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                traced_cold_job(&mut tr, program, *grid, &mut peephole)
            }))
            .unwrap_or_else(|_| Err("panic".to_string()));
            tr.end_through(root);
            busy += started.elapsed();
            traced.attempted += 1;
            let verdict = outcome.and_then(|pairs| {
                for (key, gates, bytes) in pairs {
                    match reference.pairs.get(&key) {
                        Some(q) if q.gates == gates && q.qasm_bytes == bytes => {}
                        Some(q) => {
                            return Err(format!(
                                "{key}: layers gave {gates} gates / {bytes} B, Session::compile {} / {} B",
                                q.gates, q.qasm_bytes
                            ))
                        }
                        None => return Err(format!("{key}: no Session::compile reference")),
                    }
                }
                Ok(())
            });
            if let Err(e) = verdict {
                traced.failed += 1;
                if traced.failures.len() < 5 {
                    traced.failures.push(e);
                }
            }
        }
    });
    traced.throughput_rps = traced.attempted as f64 / busy.as_secs_f64().max(f64::MIN_POSITIVE);
    traced.spans.push(tr.into_spans());
    let firings: usize = peephole.iter().map(|p| p.2).sum();
    traced.extra.insert("ir.peephole_firings", firings as f64 / peephole.len().max(1) as f64);
    traced.extra.insert("ir.peephole_exponent", peephole_exponent(&peephole));
    traced
}

/// Exponent of peephole time over program size: the log–log slope of the
/// mean peephole time per size.
fn peephole_exponent(samples: &[(usize, Duration, usize)]) -> f64 {
    let mut by_n: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    for (n, d, _) in samples {
        let e = by_n.entry(*n).or_default();
        e.0 += d.as_secs_f64();
        e.1 += 1.0;
    }
    let points: Vec<(f64, f64)> = by_n.iter().map(|(n, (t, c))| (*n as f64, t / c)).collect();
    crate::stats::loglog_slope(&points)
}

// ---------------------------------------------------------------------
// sim-emit
// ---------------------------------------------------------------------

/// `sim-emit`'s programs, compiled: one session per source text.
pub struct SimInputs {
    /// Programs with their artifact and the session that compiled it.
    pub programs: Vec<(Program, Arc<Session>, Arc<Compiled>)>,
    /// Seed for emit order.
    pub seed: u64,
}

/// Compiles `sim-emit`'s programs (its set-up).
///
/// # Errors
///
/// Fails when a program does not compile.
pub fn sim_setup(seed: u64) -> Result<SimInputs, String> {
    let mut sessions: HashMap<String, Arc<Session>> = HashMap::new();
    let mut programs = Vec::new();
    for program in programs::suite(&SIM_SIZES) {
        let session = match sessions.get(&program.source) {
            Some(s) => Arc::clone(s),
            None => {
                let s = Arc::new(Session::new(&program.source).map_err(err)?);
                sessions.insert(program.source.clone(), Arc::clone(&s));
                s
            }
        };
        let artifact =
            session.compile(&request_of(&program, CompileOptions::default())).map_err(err)?;
        programs.push((program, session, artifact));
    }
    Ok(SimInputs { programs, seed })
}

/// The emit order of cycle `round`.
pub fn sim_order(inputs: &SimInputs, round: u64) -> Vec<usize> {
    shuffled(
        inputs.programs.len(),
        &mut Rng(inputs.seed ^ round.wrapping_mul(0x2545_F491_4F6C_DD1D)),
    )
}

/// Quality of the compiled programs (harness work: the QASM emit and the
/// estimate run outside the timed region).
fn sim_quality(inputs: &SimInputs) -> Result<Quality, String> {
    let mut quality = Quality::default();
    for (program, session, artifact) in &inputs.programs {
        let circuit = artifact.circuit.as_ref().ok_or("no circuit")?;
        let qasm = session.emit(artifact, "qasm").map_err(err)?;
        let est = estimate(circuit, &SurfaceCodeParams::default());
        quality.record(
            format!("{}/plain", program.label),
            PairQuality::of(circuit, qasm.len(), &est, 0),
        );
    }
    Ok(quality)
}

/// The measured run of `sim-emit`.
pub fn sim_run(inputs: &SimInputs, budget: Duration) -> Measured {
    let mut tally = Tally::with_slots(COLD_SLOTS);
    let mut verified = Verified::default();
    let (mut sampled, mut total) = (0, 0);
    run_cycles(budget, |round| {
        for i in sim_order(inputs, round) {
            let (program, session, artifact) = &inputs.programs[i];
            let outcome = tally.timed(|| session.emit(artifact, "sim").map_err(err));
            let verdict = tally.harness(|| {
                let text = outcome?;
                total += 1;
                sampled += u64::from(check::is_sampled(&text));
                verified.check(&program.label, &text, |t| {
                    check::check_answer(&program.answer, &check::parse_sim_text(t)?)
                })
            });
            if let Err(e) = verdict {
                tally.fail(format!("{}: {e}", program.label));
            }
        }
    });
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let mut m = Tally::into_measured(vec![tally]);
    m.peak_rss_mb = peak_rss_mb;
    let started = Instant::now();
    match sim_quality(inputs) {
        Ok(q) => m.quality = q,
        Err(e) => {
            m.failed += 1;
            m.failures.push(e);
        }
    }
    m.harness += started.elapsed();
    m.sim_sampled = (sampled, total);
    m
}

/// `(shots, seed)` from a sampling-fallback header.
fn sampled_header(text: &str) -> Option<(usize, u64)> {
    let rest = text.lines().next()?.strip_prefix("# sampled counts (")?;
    let (shots, rest) = rest.split_once(" shots, seed ")?;
    let seed = rest.strip_suffix(')')?.strip_prefix("0x")?;
    Some((shots.parse().ok()?, u64::from_str_radix(seed, 16).ok()?))
}

/// One `sim` emit replayed through the simulator's public functions. The
/// path (exact distribution or per-shot sampling) follows the backend's own
/// output for this circuit, given as `reference`.
fn traced_sim_emit(
    tr: &mut Tracer,
    registry: &BackendRegistry,
    artifact: &Compiled,
    reference: &str,
) -> Result<String, String> {
    let circuit = artifact.circuit.as_ref().ok_or("no circuit")?;
    let emit = tr.begin("sim.emit");
    let dist = tr.time("sim.apply", || asdf_sim::measurement_distribution(circuit));
    let text = match (dist, sampled_header(reference)) {
        (Some(dist), _) => {
            let mut out = String::from("# exact measurement distribution\n");
            for (bits, p) in dist {
                out.push_str(&format!("{bits} {p:.12}\n"));
            }
            Ok(out)
        }
        (None, Some((shots, seed))) => {
            let program =
                tr.time("sim.kernel_compile", || asdf_sim::kernel::KernelProgram::compile(circuit));
            let counts = tr.time("sim.apply", || {
                let mut sim = asdf_sim::Simulator::new(seed);
                let mut counts: BTreeMap<String, usize> = BTreeMap::new();
                for _ in 0..shots {
                    *counts.entry(sim.run_program(&program).bit_string()).or_default() += 1;
                }
                counts
            });
            let mut out = reference.lines().next().unwrap_or_default().to_string();
            out.push('\n');
            for (bits, count) in counts {
                out.push_str(&format!("{bits} {count}\n"));
            }
            Ok(out)
        }
        (None, None) => {
            let input = EmitInput {
                module: &artifact.module,
                entry: &artifact.entry,
                circuit: Some(circuit),
            };
            registry.emit("sim", &input).map_err(err)
        }
    };
    tr.end(emit);
    text
}

/// The traced run of `sim-emit`.
pub fn sim_traced(inputs: &SimInputs, budget: Duration) -> Traced {
    let mut traced = Traced::default();
    let mut registry = BackendRegistry::new();
    registry.register(Box::new(asdf_sim::SimBackend::default()));
    // The backend's own text per program: the replay's reference output.
    let mut references = Vec::new();
    for (_, session, artifact) in &inputs.programs {
        match session.emit(artifact, "sim") {
            Ok(text) => references.push(text),
            Err(e) => {
                traced.failed += 1;
                traced.failures.push(e.to_string());
                return traced;
            }
        }
    }
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut busy = Duration::ZERO;
    let (mut sampled, mut total) = (0u64, 0u64);
    run_cycles(budget, |round| {
        for i in sim_order(inputs, round) {
            let (program, _, artifact) = &inputs.programs[i];
            let started = Instant::now();
            let root = tr.begin("request");
            let text = catch_unwind(AssertUnwindSafe(|| {
                traced_sim_emit(&mut tr, &registry, artifact, &references[i])
            }))
            .unwrap_or_else(|_| Err("panic".to_string()));
            tr.end_through(root);
            busy += started.elapsed();
            traced.attempted += 1;
            total += 1;
            match text {
                Ok(t) if t == references[i] => sampled += u64::from(check::is_sampled(&t)),
                Ok(_) => {
                    traced.failed += 1;
                    traced
                        .failures
                        .push(format!("{}: replay text differs from the backend's", program.label));
                }
                Err(e) => {
                    traced.failed += 1;
                    traced.failures.push(format!("{}: {e}", program.label));
                }
            }
        }
    });
    traced.throughput_rps = traced.attempted as f64 / busy.as_secs_f64().max(f64::MIN_POSITIVE);
    traced.spans.push(tr.into_spans());
    traced.extra.insert("sim.sampled_share", sampled as f64 / total.max(1) as f64);
    traced
}

// ---------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------

/// A `serve-mixed` request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeOp {
    /// `compile`.
    Compile,
    /// `emit` with backend `qasm`.
    EmitQasm,
    /// `emit` with backend `qir-base`.
    EmitQir,
    /// `lint`.
    Lint,
    /// `stats`.
    Stats,
}

/// The request kinds, drawn with equal weight: no caller in the
/// repository issues a mix to copy, so none is favoured.
const SERVE_OPS: [ServeOp; 5] =
    [ServeOp::Compile, ServeOp::EmitQasm, ServeOp::EmitQir, ServeOp::Lint, ServeOp::Stats];

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLine {
    /// Request kind.
    pub op: ServeOp,
    /// Index into the sources (unused by `stats`).
    pub source: usize,
    /// The JSON line.
    pub line: String,
}

/// `serve-mixed`'s inputs: sources and each client's lines.
pub struct ServeInputs {
    /// The sources.
    pub sources: Vec<ServeSource>,
    /// Request lines per client.
    pub clients: Vec<Vec<ServeLine>>,
    /// Seed (checker randomness).
    pub seed: u64,
    /// Where the server's cache directories go.
    pub scratch: PathBuf,
}

/// The JSON line for one request.
pub fn serve_line(source: &ServeSource, op: ServeOp) -> String {
    let head = match op {
        ServeOp::Stats => return "{\"op\":\"stats\"}".to_string(),
        ServeOp::Compile => "\"op\":\"compile\"",
        ServeOp::EmitQasm => "\"op\":\"emit\",\"backend\":\"qasm\"",
        ServeOp::EmitQir => "\"op\":\"emit\",\"backend\":\"qir-base\"",
        ServeOp::Lint => "\"op\":\"lint\"",
    };
    format!(
        "{{{head},\"source\":\"{}\",\"kernel\":\"{}\",\"captures\":{}}}",
        crate::stats::json_escape(&source.program.source),
        source.program.kernel,
        source.captures_json
    )
}

/// Draws a client's request lines: sources by a Zipf(1) law over their
/// fixed order, kinds uniformly from [`SERVE_OPS`]. The Zipf law is an
/// assumption standing in for the skewed repetition of real traffic; no
/// trace in the repository fixes its shape.
pub fn serve_lines(sources: &[ServeSource], seed: u64, client: u64) -> Vec<ServeLine> {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client + 1));
    let weights: Vec<f64> = (0..sources.len()).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..SERVE_LINES_PER_CLIENT)
        .map(|_| {
            let mut pick = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
            let mut source = sources.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    source = i;
                    break;
                }
                pick -= w;
            }
            let op = SERVE_OPS[rng.below(SERVE_OPS.len())];
            ServeLine { op, source, line: serve_line(&sources[source], op) }
        })
        .collect()
}

/// Generates `serve-mixed`'s inputs.
///
/// # Errors
///
/// Fails when a source does not compile.
pub fn serve_inputs(seed: u64, scratch: &Path) -> Result<ServeInputs, String> {
    let sources = programs::serve_sources();
    for source in &sources {
        let session = Session::new(&source.program.source).map_err(err)?;
        session.compile(&request_of(&source.program, CompileOptions::default())).map_err(err)?;
    }
    let clients = (0..SERVE_CLIENTS).map(|c| serve_lines(&sources, seed, c)).collect();
    Ok(ServeInputs { sources, clients, seed, scratch: scratch.to_path_buf() })
}

/// A server on a fresh cache directory with every source's session
/// created (the registry keeps the most recent eight).
///
/// # Errors
///
/// Fails when the directory cannot be created or a source does not parse.
pub fn serve_setup(inputs: &ServeInputs, dir: &Path) -> Result<CompileServer, String> {
    let server = CompileServer::new().with_cache_dir(dir).map_err(err)?;
    for source in &inputs.sources {
        server.session(&source.program.source).map_err(err)?;
    }
    Ok(server)
}

/// Judges one response against the source's known answer.
fn judge_response(inputs: &ServeInputs, line: &ServeLine, response: &str) -> Result<(), String> {
    let value = json::parse(response)?;
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("not ok: {response}"));
    }
    let source = &inputs.sources[line.source].program;
    match line.op {
        ServeOp::Stats => {
            value.get("artifact_hits").map(|_| ()).ok_or("stats without counters".into())
        }
        ServeOp::Compile => {
            let bits = value.get("circuit").and_then(|c| c.get("bits")).and_then(Value::as_i64);
            if bits != Some(source.bits as i64) {
                return Err(format!(
                    "{}: circuit bits {bits:?}, expected {}",
                    source.label, source.bits
                ));
            }
            Ok(())
        }
        ServeOp::EmitQasm => {
            let text = value.get("text").and_then(Value::as_str).ok_or("emit without text")?;
            let circuit = check::parse_qasm(text)?;
            check::check_circuit(&circuit, &source.answer, source.bits, None, inputs.seed)
                .map(|_| ())
                .map_err(|e| format!("{}: {e}", source.label))
        }
        ServeOp::EmitQir => {
            let text = value.get("text").and_then(Value::as_str).ok_or("emit without text")?;
            check::check_qir(text, source.bits).map_err(|e| format!("{}: {e}", source.label))
        }
        ServeOp::Lint => match value.get("warnings").and_then(Value::as_array) {
            Some([]) => Ok(()),
            _ => Err(format!("{}: a correct program drew lint warnings: {response}", source.label)),
        },
    }
}

fn serve_client(
    server: &CompileServer,
    inputs: &ServeInputs,
    lines: &[ServeLine],
    budget: Duration,
) -> Tally {
    let mut tally = Tally::with_slots(SERVE_SLOTS);
    let mut verified = Verified::default();
    let started = Instant::now();
    for line in lines.iter().cycle() {
        if (started.elapsed() >= budget || tally.latencies.is_full()) && tally.attempted > 0 {
            break;
        }
        let response = tally.timed(|| Ok(server.handle_line(&line.line)));
        let verdict = tally.harness(|| {
            let response = response?;
            if line.op == ServeOp::Stats {
                return judge_response(inputs, line, &response);
            }
            let key = format!("{}/{:?}", line.source, line.op);
            verified.check(&key, &response, |r| judge_response(inputs, line, r))
        });
        if let Err(e) = verdict {
            tally.fail(e);
        }
    }
    tally
}

/// Quality per source, read back through the server after the run
/// (harness work).
fn serve_quality(server: &CompileServer, inputs: &ServeInputs) -> Result<Quality, String> {
    let mut quality = Quality::default();
    for source in &inputs.sources {
        let response = json::parse(&server.handle_line(&serve_line(source, ServeOp::EmitQasm)))?;
        let text = response.get("text").and_then(Value::as_str).ok_or("emit without text")?;
        let circuit = check::parse_qasm(text)?;
        let est = estimate(&circuit, &SurfaceCodeParams::default());
        quality.record(
            format!("{}/plain", source.program.label),
            PairQuality::of(&circuit, text.len(), &est, 0),
        );
    }
    Ok(quality)
}

/// The measured run of `serve-mixed`: two closed-loop clients on one
/// in-process server.
pub fn serve_run(inputs: &ServeInputs, server: &CompileServer, budget: Duration) -> Measured {
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .clients
            .iter()
            .map(|lines| scope.spawn(|| serve_client(server, inputs, lines, budget)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client panicked outside a request"))
            .collect()
    });
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let mut m = Tally::into_measured(tallies);
    m.peak_rss_mb = peak_rss_mb;
    let started = Instant::now();
    match serve_quality(server, inputs) {
        Ok(q) => m.quality = q,
        Err(e) => {
            m.failed += 1;
            m.failures.push(e);
        }
    }
    m.harness += started.elapsed();
    m
}

/// How one traced compile call was served, read from the session's
/// counters around the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Memory,
    Disk,
    PipelineStored,
    Other,
}

fn tier_of(before: &CacheStats, after: &CacheStats) -> Tier {
    if after.disk_hits > before.disk_hits {
        Tier::Disk
    } else if after.artifact_misses > before.artifact_misses
        && after.disk_writes > before.disk_writes
    {
        Tier::PipelineStored
    } else if after.artifact_hits > before.artifact_hits
        && after.artifact_misses == before.artifact_misses
    {
        Tier::Memory
    } else {
        Tier::Other
    }
}

#[derive(Default)]
struct ServeTraceClient {
    spans: Vec<Span>,
    attempted: u64,
    busy: Duration,
    failures: Vec<String>,
    tiers: Vec<(Tier, Duration)>,
    sessions: Vec<Arc<Session>>,
}

/// The `compile` response body, field for field as `handle_line` builds it.
fn compile_fields(artifact: &Compiled) -> Vec<(String, Value)> {
    let circuit = match &artifact.circuit {
        None => Value::Null,
        Some(c) => Value::Object(vec![
            ("qubits".into(), Value::int(c.num_qubits as i64)),
            ("bits".into(), Value::int(c.num_bits() as i64)),
            ("ops".into(), Value::int(c.ops.len() as i64)),
        ]),
    };
    let routing = match &artifact.routing {
        None => Value::Null,
        Some(info) => Value::Object(vec![
            ("target".into(), Value::str(&info.target)),
            ("swaps".into(), Value::int(info.swap_count as i64)),
            ("unrouted_depth".into(), Value::int(info.unrouted_depth as i64)),
            ("routed_depth".into(), Value::int(info.routed_depth as i64)),
        ]),
    };
    vec![
        ("ok".into(), Value::Bool(true)),
        ("entry".into(), Value::str(&artifact.entry)),
        ("circuit".into(), circuit),
        ("routing".into(), routing),
    ]
}

/// One request line replayed through the server's layers: protocol parse,
/// session registry, the session's compile, then emission or lint
/// rendering; building the response is the server's own (self) time. A
/// `stats` line goes through `handle_line` whole. The response is built
/// field for field as `handle_line` builds it; the per-target counter
/// `handle_line` also bumps is private to the server and is left out.
fn traced_serve_line(
    tr: &mut Tracer,
    server: &CompileServer,
    line: &ServeLine,
    client: &mut ServeTraceClient,
) -> Result<String, String> {
    if line.op == ServeOp::Stats {
        return Ok(tr.time("server.stats", || server.handle_line(&line.line)));
    }
    let request = tr.time("server.parse", || proto::parse_request(&line.line))?;
    let (call, backend) = match request {
        Request::Compile(call) | Request::Lint(call) => (call, None),
        Request::Emit(call, backend) => (call, Some(backend)),
        Request::Stats => return Err("a stats request where another was generated".into()),
    };
    let session = tr.time("server.registry", || server.session(&call.source)).map_err(err)?;
    if !client.sessions.iter().any(|s| Arc::ptr_eq(s, &session)) {
        client.sessions.push(Arc::clone(&session));
    }
    let before = session.cache_stats();
    let started = Instant::now();
    let artifact = tr.time("core.session", || session.compile(&call.request)).map_err(err)?;
    let elapsed = started.elapsed();
    client.tiers.push((tier_of(&before, &session.cache_stats()), elapsed));
    let fields = match (line.op, backend) {
        (ServeOp::EmitQasm | ServeOp::EmitQir, Some(backend)) => {
            let layer = if line.op == ServeOp::EmitQir { "codegen.qir" } else { "codegen.qasm" };
            let text = tr.time(layer, || session.emit(&artifact, &backend)).map_err(err)?;
            vec![
                ("ok".into(), Value::Bool(true)),
                ("backend".into(), Value::str(&backend)),
                ("text".into(), Value::String(text)),
            ]
        }
        (ServeOp::Lint, None) => {
            let warnings = tr.time("analysis.lint", || {
                artifact
                    .lints
                    .iter()
                    .map(|d| {
                        Value::Object(vec![
                            ("code".into(), Value::str(d.code)),
                            ("message".into(), Value::str(&d.message)),
                            ("rendered".into(), Value::String(d.render(session.source()))),
                        ])
                    })
                    .collect::<Vec<_>>()
            });
            vec![
                ("ok".into(), Value::Bool(true)),
                ("entry".into(), Value::str(&artifact.entry)),
                ("warnings".into(), Value::Array(warnings)),
            ]
        }
        _ => Vec::new(),
    };
    Ok(tr.time("server.respond", || {
        let fields = if fields.is_empty() { compile_fields(&artifact) } else { fields };
        Value::Object(fields).to_string()
    }))
}

fn serve_trace_client(
    server: &CompileServer,
    lines: &[ServeLine],
    budget: Duration,
    epoch: Instant,
    id: u64,
) -> ServeTraceClient {
    let mut tr = Tracer::new(epoch, id << 40);
    let mut client = ServeTraceClient::default();
    let mut compared = std::collections::HashSet::new();
    let started = Instant::now();
    for line in lines.iter().cycle() {
        if started.elapsed() >= budget && client.attempted > 0 {
            break;
        }
        let t = Instant::now();
        let root = tr.begin("request");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            traced_serve_line(&mut tr, server, line, &mut client)
        }));
        tr.end_through(root);
        client.busy += t.elapsed();
        client.attempted += 1;
        match outcome {
            // Once per (source, kind), outside the busy time: the replay's
            // response must be the server's own.
            Ok(Ok(response))
                if line.op != ServeOp::Stats && compared.insert((line.source, line.op)) =>
            {
                let expected = server.handle_line(&line.line);
                if response != expected {
                    client.failures.push(format!(
                        "source {} {:?}: the replayed response ({} B) differs from handle_line's ({} B)",
                        line.source,
                        line.op,
                        response.len(),
                        expected.len()
                    ));
                }
            }
            Ok(Ok(_)) => {}
            Ok(Err(e)) => client.failures.push(e),
            Err(_) => client.failures.push("panic".into()),
        }
    }
    client.spans = tr.into_spans();
    client
}

/// The traced run of `serve-mixed`, on a fresh server.
pub fn serve_traced(inputs: &ServeInputs, server: &CompileServer, budget: Duration) -> Traced {
    let epoch = Instant::now();
    let clients: Vec<ServeTraceClient> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .clients
            .iter()
            .enumerate()
            .map(|(i, lines)| {
                scope.spawn(move || serve_trace_client(server, lines, budget, epoch, i as u64))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("traced serve client panicked")).collect()
    });
    let mut traced = Traced::default();
    let mut sessions: Vec<Arc<Session>> = Vec::new();
    let mut tiers: Vec<(Tier, Duration)> = Vec::new();
    for client in clients {
        if client.busy > Duration::ZERO {
            traced.throughput_rps += client.attempted as f64 / client.busy.as_secs_f64();
        }
        traced.attempted += client.attempted;
        traced.failed += client.failures.len() as u64;
        traced.failures.extend(client.failures.into_iter().take(5));
        traced.spans.push(client.spans);
        tiers.extend(client.tiers);
        for s in client.sessions {
            if !sessions.iter().any(|known| Arc::ptr_eq(known, &s)) {
                sessions.push(s);
            }
        }
    }
    let mut stats = CacheStats::default();
    for s in &sessions {
        stats.merge(&s.cache_stats());
    }
    let served =
        stats.artifact_hits + stats.artifact_misses + stats.artifact_coalesced + stats.disk_hits;
    let mean_of = |tier: Tier| -> f64 {
        let picked: Vec<f64> =
            tiers.iter().filter(|(t, _)| *t == tier).map(|(_, d)| d.as_secs_f64()).collect();
        picked.iter().sum::<f64>() / picked.len().max(1) as f64
    };
    let e = &mut traced.extra;
    e.insert("core.session.hit_share", stats.artifact_hits as f64 / served.max(1) as f64);
    e.insert("core.session.frontend_hit_share", stats.frontend_hit_rate());
    e.insert("core.session.coalesced", stats.coalesced() as f64);
    e.insert("core.session.hit_us", mean_of(Tier::Memory) * 1e6);
    e.insert("core.diskcache.hits", stats.disk_hits as f64);
    e.insert("core.diskcache.writes", stats.disk_writes as f64);
    e.insert("core.diskcache.load_ms", mean_of(Tier::Disk) * 1e3);
    e.insert("core.diskcache.store_ms", mean_of(Tier::PipelineStored) * 1e3);
    traced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_latency_is_scaled_by_the_probe_before_it() {
        let ms = Duration::from_millis;
        let mut tally = Tally { latencies: Latencies::with_capacity(4), ..Tally::default() };
        // A probe at twice the reference time halves the latencies after it.
        tally.probes = vec![(0, ms(4)), (2, ms(8))];
        for d in [10, 20, 30, 40] {
            tally.latencies.push(ms(d));
        }
        assert_eq!(tally.scaled_latencies(), vec![ms(10), ms(20), ms(15), ms(20)]);
    }
}
