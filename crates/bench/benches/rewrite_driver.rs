//! Worklist vs rescan rewrite-driver bench.
//!
//! Two workloads, both run through the *same* peephole pattern set:
//!
//! - **wide** — a synthetic single-block function of `W` parallel qubit
//!   wires, each carrying an interleaved chain of cancelling/merging gate
//!   pairs (`H H`, `X X`, `S S†`, `T T†`, `P(θ) P(−θ)`, `H X H`). Every
//!   firing is scattered across a wide block, which is exactly where the
//!   rescan driver's restart-from-op-0 scheduling pays O(ops) per firing
//!   and the worklist driver pays only the touched neighborhood.
//! - **difftest** — modules generated by the difftest program generator,
//!   compiled to QCircuit IR with peephole disabled (`opt+nopeep+whole`),
//!   then optimized by each driver: the realistic shape.
//!
//! Each run asserts both drivers reach identical normal forms, asserts the
//! worklist driver is ≥ 2× faster on the wide workload, and appends a
//! trajectory point to `BENCH_opt.json`. `--smoke` (or env
//! `REWRITE_DRIVER_SMOKE=1`) shrinks the workload for CI.

use asdf_core::{CompileOptions, CompileRequest, Session};
use asdf_difftest::{gen_case, GenOptions};
use asdf_ir::rewrite::{GreedyRewriteDriver, RescanDriver};
use asdf_ir::{FuncBuilder, FuncType, GateKind, Module, OpKind, Type, Value, Visibility};
use asdf_qcircuit::peephole::peephole_patterns;
use criterion::black_box;
use std::time::{Duration, Instant};

/// One wire's worth of gate chain: pairs that cancel or merge away.
const WIRE_CHAIN: &[GateKind] = &[
    GateKind::H,
    GateKind::H,
    GateKind::T,
    GateKind::Tdg,
    GateKind::H,
    GateKind::X,
    GateKind::H,
    GateKind::S,
    GateKind::Sdg,
    GateKind::X,
    GateKind::X,
    GateKind::P(0.7),
    GateKind::P(-0.7),
];

/// A single-block function of `wires` qubit wires, each carrying `reps`
/// repetitions of [`WIRE_CHAIN`], interleaved round-robin so consecutive
/// rewrite opportunities are `wires` ops apart.
fn wide_module(wires: usize, reps: usize) -> Module {
    let ty = FuncType::new(vec![Type::Qubit; wires], vec![Type::Qubit; wires], true);
    let mut b = FuncBuilder::new("wide", ty, Visibility::Public);
    let mut current: Vec<Value> = b.args().to_vec();
    let mut bb = b.block();
    for _ in 0..reps {
        for &gate in WIRE_CHAIN {
            for wire_head in current.iter_mut() {
                let out = bb.push(
                    OpKind::Gate { gate, num_controls: 0 },
                    vec![*wire_head],
                    vec![Type::Qubit],
                );
                *wire_head = out[0];
            }
        }
    }
    bb.push(OpKind::Return, current, vec![]);
    let mut module = Module::new();
    module.add_func(b.finish());
    module
}

/// Difftest-generated modules compiled to QCircuit IR with peephole off.
fn difftest_modules(count: usize) -> Vec<Module> {
    let mut modules = Vec::new();
    let mut index = 0usize;
    while modules.len() < count && index < count * 4 {
        let case = gen_case(0x000B_7A11, index, &GenOptions::default());
        index += 1;
        let rendered = case.render();
        let Ok(session) = Session::new(&rendered.source) else { continue };
        let options = CompileOptions {
            inline: true,
            peephole: false,
            decompose: None,
            ..CompileOptions::default()
        };
        let mut request =
            CompileRequest::kernel(&rendered.kernel).with_captures(&rendered.captures);
        for (name, value) in &rendered.dims {
            request = request.with_dim(name, *value);
        }
        if let Ok(compiled) = session.compile(&request.with_options(options)) {
            modules.push(compiled.module.clone());
        }
    }
    modules
}

/// Median wall-clock of `samples` runs (after one warmup).
fn median_time<O>(samples: usize, mut f: impl FnMut() -> O) -> Duration {
    black_box(f());
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn module_ops(module: &Module) -> usize {
    module
        .funcs()
        .iter()
        .map(|f| f.block_paths().iter().map(|p| f.block_at(p).ops.len()).sum::<usize>())
        .sum()
}

/// Runs both drivers over clones of every module; returns (worklist time,
/// rescan time, total firings), asserting identical normal forms.
fn race(modules: &[Module], samples: usize) -> (Duration, Duration, usize) {
    let worklist_time = median_time(samples, || {
        let mut fires = 0usize;
        for module in modules {
            let mut m = module.clone();
            let mut driver = GreedyRewriteDriver::from_patterns(peephole_patterns());
            fires += driver.run(&mut m);
            black_box(m);
        }
        fires
    });
    let rescan_time = median_time(samples, || {
        let mut fires = 0usize;
        for module in modules {
            let mut m = module.clone();
            let mut driver = RescanDriver::from_patterns(peephole_patterns());
            fires += driver.run(&mut m);
            black_box(m);
        }
        fires
    });
    // Equivalence sanity: both drivers reach the same normal form.
    let mut fires = 0usize;
    for module in modules {
        let (mut a, mut b) = (module.clone(), module.clone());
        fires += GreedyRewriteDriver::from_patterns(peephole_patterns()).run(&mut a);
        RescanDriver::from_patterns(peephole_patterns()).run(&mut b);
        assert_eq!(a.to_string(), b.to_string(), "drivers diverged on a bench module");
    }
    (worklist_time, rescan_time, fires)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("REWRITE_DRIVER_SMOKE").is_ok_and(|v| v == "1");
    let (wires, reps, cases, samples) = if smoke { (48, 1, 6, 3) } else { (120, 2, 12, 5) };

    let wide = vec![wide_module(wires, reps)];
    let wide_ops = module_ops(&wide[0]);
    println!(
        "rewrite_driver: wide {wires}x{} ({wide_ops} ops), {cases} difftest modules, \
         {samples} samples{}",
        reps * WIRE_CHAIN.len(),
        if smoke { " (smoke)" } else { "" }
    );

    let (wide_worklist, wide_rescan, wide_fires) = race(&wide, samples);
    let wide_speedup = wide_rescan.as_secs_f64() / wide_worklist.as_secs_f64();
    println!(
        "wide      worklist {wide_worklist:>10.3?}  rescan {wide_rescan:>10.3?}  \
         speedup {wide_speedup:>6.2}x  ({wide_fires} firings)"
    );

    let difftest = difftest_modules(cases);
    let difftest_ops: usize = difftest.iter().map(module_ops).sum();
    let (dt_worklist, dt_rescan, dt_fires) = race(&difftest, samples);
    let dt_speedup = dt_rescan.as_secs_f64() / dt_worklist.as_secs_f64();
    println!(
        "difftest  worklist {dt_worklist:>10.3?}  rescan {dt_rescan:>10.3?}  \
         speedup {dt_speedup:>6.2}x  ({} modules, {difftest_ops} ops, {dt_fires} firings)",
        difftest.len()
    );

    assert!(
        wide_speedup >= 2.0,
        "acceptance: the worklist driver must be >= 2x the rescan driver \
         on the wide workload, got {wide_speedup:.2}x"
    );

    let point = format!(
        "{{\"bench\": \"rewrite_driver\", \"mode\": \"{}\", \
         \"wide_ops\": {wide_ops}, \"wide_fires\": {wide_fires}, \
         \"wide_worklist_us\": {:.1}, \"wide_rescan_us\": {:.1}, \"wide_speedup\": {:.2}, \
         \"difftest_modules\": {}, \"difftest_ops\": {difftest_ops}, \
         \"difftest_worklist_us\": {:.1}, \"difftest_rescan_us\": {:.1}, \
         \"difftest_speedup\": {:.2}}}",
        if smoke { "smoke" } else { "full" },
        us(wide_worklist),
        us(wide_rescan),
        wide_speedup,
        difftest.len(),
        us(dt_worklist),
        us(dt_rescan),
        dt_speedup,
    );
    asdf_bench::append_trajectory_point("BENCH_opt.json", &point);
}
