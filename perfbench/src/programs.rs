//! The benchmark's input programs and their hand-written known answers.
//!
//! Every answer here follows from the algorithm and the oracle parameters
//! the harness chose, never from anything the compiler produced.

use asdf_ast::CaptureValue;
use asdf_baselines::Benchmark;

/// What a correct run of a program measures.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Bernstein–Vazirani: every outcome is the secret.
    Secret(Vec<bool>),
    /// Deutsch–Jozsa with a balanced oracle: never the all-zeros string.
    NotAllZeros,
    /// Grover search for the all-ones item: it is the most frequent outcome.
    AllOnesMostFrequent,
    /// Simon: the first half `y` of every outcome satisfies `y·s = 0 (mod 2)`.
    SimonOrthogonal(Vec<bool>),
    /// Period finding over `n` bits: the first half `y` of every outcome,
    /// read as a big-endian integer, is a multiple of `2^n / period`.
    Period {
        /// Register width.
        n: usize,
        /// The oracle's period.
        period: u64,
    },
    /// The wide `'p'[N] | pm[N] >> std[N]` program: always all zeros.
    AllZeros,
}

/// One program a workload compiles.
#[derive(Debug, Clone)]
pub struct Program {
    /// Stable label, e.g. `grover-n16`.
    pub label: String,
    /// The size parameter the program scales with (for exponent fits).
    pub n: usize,
    /// Qwerty source text.
    pub source: String,
    /// Entry kernel.
    pub kernel: &'static str,
    /// Capture values for the kernel's leading parameters.
    pub captures: Vec<CaptureValue>,
    /// Explicit dimension bindings, sorted by name.
    pub dims: Vec<(String, i64)>,
    /// The known answer.
    pub answer: Answer,
    /// Number of classical bits the kernel returns.
    pub bits: usize,
}

const WIDE_SOURCE: &str = "qpu kernel[N]() -> bit[N] {
    'p'[N] | pm[N] >> std[N] | std[N].measure
}";

/// A program of the paper's suite (§8.1) in its generic source form.
pub fn suite_program(name: &str, benchmark: &Benchmark, n: usize) -> Program {
    let (source, kernel, captures, dims) = asdf_bench::qwerty_program(benchmark);
    let mut dims: Vec<(String, i64)> = dims.into_iter().collect();
    dims.sort();
    let (answer, bits) = answer_of(benchmark, n);
    Program { label: format!("{name}-n{n}"), n, source, kernel, captures, dims, answer, bits }
}

/// The paper's suite at each size, in suite order.
pub fn suite(sizes: &[usize]) -> Vec<Program> {
    sizes
        .iter()
        .flat_map(|&n| {
            Benchmark::paper_suite(n).into_iter().map(move |(name, b)| suite_program(name, &b, n))
        })
        .collect()
}

/// The wide-bundle program `'p'[N] | pm[N] >> std[N] | std[N].measure`.
pub fn wide_program(n: usize) -> Program {
    Program {
        label: format!("wide-n{n}"),
        n,
        source: WIDE_SOURCE.to_string(),
        kernel: "kernel",
        captures: Vec::new(),
        dims: vec![("N".to_string(), n as i64)],
        answer: Answer::AllZeros,
        bits: n,
    }
}

/// `wide-cold`'s programs: the wide program, bv and simon at each width.
pub fn wide_catalog(sizes: &[usize]) -> Vec<Program> {
    let mut out = Vec::new();
    for &n in sizes {
        out.push(wide_program(n));
        for (name, b) in Benchmark::paper_suite(n) {
            if name == "bv" || name == "simon" {
                out.push(suite_program(name, &b, n));
            }
        }
    }
    out
}

/// The known answer and returned bit count of a suite benchmark.
fn answer_of(benchmark: &Benchmark, n: usize) -> (Answer, usize) {
    match benchmark {
        Benchmark::Bv { secret } => (Answer::Secret(secret.clone()), n),
        Benchmark::Dj { .. } => (Answer::NotAllZeros, n),
        Benchmark::Grover { .. } => (Answer::AllOnesMostFrequent, n),
        Benchmark::Simon { secret } => (Answer::SimonOrthogonal(secret.clone()), 2 * n),
        Benchmark::Period { mask, .. } => (Answer::Period { n, period: mask_period(mask) }, 2 * n),
    }
}

/// The period of `x ↦ x & mask` over big-endian `n`-bit integers, for a
/// mask that keeps a low block of bits: flipping any of the `h` leading
/// (dropped) bits leaves `f` unchanged, so `f(x + 2^(n-h)) = f(x)`.
///
/// # Panics
///
/// Panics if the mask is not a run of zeros followed by a run of ones.
pub fn mask_period(mask: &[bool]) -> u64 {
    let dropped = mask.iter().take_while(|&&keep| !keep).count();
    assert!(mask[dropped..].iter().all(|&keep| keep), "mask must keep a low block of bits");
    1u64 << (mask.len() - dropped)
}

fn bits_str(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// A `serve-mixed` source: a size-specialised program text (no dimension
/// variables) plus the capture its requests send.
#[derive(Debug, Clone)]
pub struct ServeSource {
    /// The program and its known answer.
    pub program: Program,
    /// The JSON `captures` array the request lines carry.
    pub captures_json: String,
}

/// `serve-mixed`'s twelve sources: six algorithms at two sizes each, each
/// written with literal sizes, so every source is a distinct text and
/// therefore a distinct server session.
pub fn serve_sources() -> Vec<ServeSource> {
    let mut out = Vec::new();
    for (kind, sizes) in [
        ("bv", [4, 8]),
        ("dj", [4, 8]),
        ("grover", [3, 4]),
        ("simon", [3, 4]),
        ("period", [3, 4]),
        ("wide", [16, 32]),
    ] {
        for n in sizes {
            out.push(serve_source(kind, n));
        }
    }
    out
}

fn serve_source(kind: &str, n: usize) -> ServeSource {
    let n2 = 2 * n;
    let cfunc = |name: &str, bits: Option<&[bool]>| -> (Vec<CaptureValue>, String) {
        let inner: Vec<CaptureValue> =
            bits.map(|b| vec![CaptureValue::Bits(b.to_vec())]).unwrap_or_default();
        let inner_json =
            bits.map(|b| format!("{{\"bits\":\"{}\"}}", bits_str(b))).unwrap_or_default();
        (
            vec![CaptureValue::CFunc { name: name.to_string(), captures: inner }],
            format!("[{{\"cfunc\":{{\"name\":\"{name}\",\"captures\":[{inner_json}]}}}}]"),
        )
    };
    let (source, captures, captures_json, answer, bits) = match kind {
        "bv" => {
            let secret: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            let (c, j) = cfunc("f", Some(&secret));
            let src = format!(
                "classical f(secret: bit[{n}], x: bit[{n}]) -> bit {{\n    (secret & x).xor_reduce()\n}}\n\
                 qpu kernel(f: cfunc[{n}, 1]) -> bit[{n}] {{\n    'p'[{n}] | f.sign | pm[{n}] >> std[{n}] | std[{n}].measure\n}}"
            );
            (src, c, j, Answer::Secret(secret), n)
        }
        "dj" => {
            let (c, j) = cfunc("balanced", None);
            let src = format!(
                "classical balanced(x: bit[{n}]) -> bit {{ x.xor_reduce() }}\n\
                 qpu kernel(f: cfunc[{n}, 1]) -> bit[{n}] {{\n    'p'[{n}] | f.sign | pm[{n}] >> std[{n}] | std[{n}].measure\n}}"
            );
            (src, c, j, Answer::NotAllZeros, n)
        }
        "grover" => {
            let (c, j) = cfunc("oracle", None);
            let iterations = if n <= 3 { 2 } else { 3 };
            let src = format!(
                "classical oracle(x: bit[{n}]) -> bit {{ x.and_reduce() }}\n\
                 qpu kernel(f: cfunc[{n}, 1]) -> bit[{n}] {{\n    'p'[{n}] | (f.sign | {{'p'[{n}]}} >> {{-'p'[{n}]}}) ** {iterations} | std[{n}].measure\n}}"
            );
            (src, c, j, Answer::AllOnesMostFrequent, n)
        }
        "simon" => {
            let mut secret = vec![false; n];
            secret[0] = true;
            secret[n - 1] = true;
            let (c, j) = cfunc("f", Some(&secret));
            let src = format!(
                "classical f(s: bit[{n}], x: bit[{n}]) -> bit[{n}] {{\n    x ^ (x[0].repeat({n}) & s)\n}}\n\
                 qpu kernel(f: cfunc[{n}, {n}]) -> bit[{n2}] {{\n    'p'[{n}] + '0'[{n}] | f.xor | (pm[{n}] >> std[{n}]) + id[{n}] | std[{n2}].measure\n}}"
            );
            (src, c, j, Answer::SimonOrthogonal(secret), n2)
        }
        "period" => {
            let mask: Vec<bool> = (0..n).map(|i| i >= n / 2).collect();
            let (c, j) = cfunc("f", Some(&mask));
            let src = format!(
                "classical f(mask: bit[{n}], x: bit[{n}]) -> bit[{n}] {{ x & mask }}\n\
                 qpu kernel(f: cfunc[{n}, {n}]) -> bit[{n2}] {{\n    'p'[{n}] + '0'[{n}] | f.xor | fourier[{n}].measure + std[{n}].measure\n}}"
            );
            (src, c, j, Answer::Period { n, period: mask_period(&mask) }, n2)
        }
        "wide" => {
            let src = format!(
                "qpu kernel() -> bit[{n}] {{\n    'p'[{n}] | pm[{n}] >> std[{n}] | std[{n}].measure\n}}"
            );
            (src, Vec::new(), "[]".to_string(), Answer::AllZeros, n)
        }
        other => unreachable!("unknown serve source kind {other}"),
    };
    ServeSource {
        program: Program {
            label: format!("{kind}-n{n}"),
            n,
            source,
            kernel: "kernel",
            captures,
            dims: Vec::new(),
            answer,
            bits,
        },
        captures_json,
    }
}
