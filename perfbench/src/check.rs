//! Known-answer checks on the compiler's outputs.
//!
//! Outputs are read back from their text (QASM, QIR, `sim` backend text,
//! server JSON) and judged against the [`Answer`] the harness wrote by hand.
//! Emitted QASM is executed by interpreters that live here, independent of
//! the compiler: a stabilizer-tableau simulator for Clifford circuits of any
//! width, and the repository's scalar state vector for small non-Clifford
//! circuits. Circuits that are neither (e.g. Grover at 31 qubits) get the
//! structural checks only.

use crate::programs::Answer;
use asdf_ir::GateKind;
use asdf_qcircuit::{Circuit, CircuitOp};
use asdf_sim::StateVector;

/// Largest non-Clifford circuit (in qubits) executed on the state vector.
pub const DENSE_MAX_QUBITS: usize = 16;
/// Shots drawn from the stabilizer simulator per check.
const STABILIZER_SHOTS: usize = 4;
/// Exact probabilities below this are numerical zeros.
const NEGLIGIBLE: f64 = 1e-6;

/// Measured outcomes with their weights (probabilities or counts).
pub type Outcomes = Vec<(String, f64)>;

/// Judges outcomes against a known answer.
///
/// # Errors
///
/// Describes the first violation.
pub fn check_answer(answer: &Answer, outcomes: &Outcomes) -> Result<(), String> {
    let seen: Vec<&(String, f64)> = outcomes.iter().filter(|(_, w)| *w > NEGLIGIBLE).collect();
    if seen.is_empty() {
        return Err("no outcomes".into());
    }
    let first_half =
        |bits: &str, n: usize| -> Vec<bool> { bits.chars().take(n).map(|c| c == '1').collect() };
    match answer {
        Answer::Secret(secret) => {
            let want: String = secret.iter().map(|&b| if b { '1' } else { '0' }).collect();
            match seen.iter().find(|(bits, _)| *bits != want) {
                Some((bits, _)) => Err(format!("outcome {bits}, secret {want}")),
                None => Ok(()),
            }
        }
        Answer::AllZeros => match seen.iter().find(|(bits, _)| bits.contains('1')) {
            Some((bits, _)) => Err(format!("outcome {bits}, expected all zeros")),
            None => Ok(()),
        },
        Answer::NotAllZeros => match seen.iter().find(|(bits, _)| !bits.contains('1')) {
            Some((bits, _)) => Err(format!("balanced oracle gave all-zeros outcome {bits}")),
            None => Ok(()),
        },
        Answer::AllOnesMostFrequent => {
            let weight_of = |pred: &dyn Fn(&str) -> bool| {
                seen.iter().filter(|(b, _)| pred(b)).map(|(_, w)| *w).fold(0.0, f64::max)
            };
            let ones = weight_of(&|b: &str| !b.contains('0'));
            let other = weight_of(&|b: &str| b.contains('0'));
            if ones > other {
                Ok(())
            } else {
                Err(format!("all-ones weight {ones} not above the best other outcome {other}"))
            }
        }
        Answer::SimonOrthogonal(secret) => {
            for (bits, _) in &seen {
                let y = first_half(bits, secret.len());
                let dot = y.iter().zip(secret).filter(|(a, b)| **a && **b).count();
                if dot % 2 == 1 {
                    return Err(format!("outcome {bits} has y·s = 1"));
                }
            }
            Ok(())
        }
        Answer::Period { n, period } => {
            let step = (1u64 << n) / period;
            for (bits, _) in &seen {
                let y = first_half(bits, *n).iter().fold(0u64, |acc, &b| acc << 1 | u64::from(b));
                if y % step != 0 {
                    return Err(format!("outcome {bits}: y = {y} is not a multiple of {step}"));
                }
            }
            Ok(())
        }
    }
}

/// Parses the `sim` backend's text: the exact distribution
/// (`bits probability` lines) or the sampled fallback (`bits count` lines).
///
/// # Errors
///
/// Fails on any other header or a malformed line.
pub fn parse_sim_text(text: &str) -> Result<Outcomes, String> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    if !header.starts_with("# exact measurement distribution")
        && !header.starts_with("# sampled counts")
    {
        return Err(format!("unexpected sim header {header:?}"));
    }
    lines
        .map(|line| {
            let (bits, weight) =
                line.split_once(' ').ok_or_else(|| format!("malformed line {line:?}"))?;
            if bits.is_empty() || !bits.chars().all(|c| c == '0' || c == '1') {
                return Err(format!("malformed bits in {line:?}"));
            }
            let weight: f64 = weight.trim().parse().map_err(|_| format!("bad weight {line:?}"))?;
            Ok((bits.to_string(), weight))
        })
        .collect()
}

/// Whether the text is the sampling fallback rather than the exact
/// distribution.
pub fn is_sampled(sim_text: &str) -> bool {
    sim_text.starts_with("# sampled counts")
}

fn index_of(token: &str, register: char) -> Result<usize, String> {
    let inner = token
        .trim()
        .strip_prefix(register)
        .and_then(|t| t.strip_prefix('['))
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| format!("expected {register}[i], got {token:?}"))?;
    inner.parse().map_err(|_| format!("bad index in {token:?}"))
}

/// Parses the OpenQASM 3 subset the `qasm` backend writes back into a
/// circuit.
///
/// # Errors
///
/// Fails on any statement outside that subset.
pub fn parse_qasm(text: &str) -> Result<Circuit, String> {
    let mut circuit: Option<Circuit> = None;
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty()
            || line.starts_with("OPENQASM")
            || line.starts_with("include")
            || line.starts_with("bit[")
        {
            continue;
        }
        let stmt = line.strip_suffix(';').ok_or_else(|| format!("missing ';' in {line:?}"))?;
        if let Some(n) = stmt.strip_prefix("qubit[").and_then(|s| s.strip_suffix("] q")) {
            circuit = Some(Circuit::new(n.parse().map_err(|_| format!("bad width {line:?}"))?));
            continue;
        }
        let c = circuit.as_mut().ok_or("statement before the qubit declaration")?;
        if let Some((bit, qubit)) = stmt.split_once(" = measure ") {
            c.measure(index_of(qubit, 'q')?, index_of(bit, 'c')?);
        } else if let Some(qubit) = stmt.strip_prefix("reset ") {
            c.reset(index_of(qubit, 'q')?);
        } else {
            let (modifier, rest) = match stmt.strip_prefix("ctrl(") {
                Some(r) => {
                    let (k, rest) = r.split_once(") @ ").ok_or("malformed ctrl modifier")?;
                    (k.parse::<usize>().map_err(|_| "bad ctrl count")?, rest)
                }
                None => (0, stmt),
            };
            let (head, operands) = rest.split_once(' ').ok_or_else(|| format!("bad {line:?}"))?;
            let (name, param) = match head.split_once('(') {
                Some((name, p)) => {
                    let p = p.strip_suffix(')').ok_or("unclosed parameter")?;
                    (name, Some(p.parse::<f64>().map_err(|_| format!("bad angle {line:?}"))?))
                }
                None => (head, None),
            };
            let (gate, named_controls) = gate_of(name, param)?;
            let qubits: Vec<usize> =
                operands.split(',').map(|t| index_of(t, 'q')).collect::<Result<_, _>>()?;
            let controls = modifier + named_controls;
            if qubits.len() != controls + gate.num_targets() {
                return Err(format!("operand count in {line:?}"));
            }
            c.gate(gate, &qubits[..controls], &qubits[controls..]);
        }
    }
    circuit.ok_or_else(|| "no qubit declaration".to_string())
}

fn gate_of(name: &str, param: Option<f64>) -> Result<(GateKind, usize), String> {
    let angle = || param.ok_or_else(|| format!("{name} needs an angle"));
    Ok(match name {
        "x" => (GateKind::X, 0),
        "y" => (GateKind::Y, 0),
        "z" => (GateKind::Z, 0),
        "h" => (GateKind::H, 0),
        "s" => (GateKind::S, 0),
        "sdg" => (GateKind::Sdg, 0),
        "t" => (GateKind::T, 0),
        "tdg" => (GateKind::Tdg, 0),
        "sx" => (GateKind::Sx, 0),
        "sxdg" => (GateKind::Sxdg, 0),
        "swap" => (GateKind::Swap, 0),
        "p" => (GateKind::P(angle()?), 0),
        "rx" => (GateKind::Rx(angle()?), 0),
        "ry" => (GateKind::Ry(angle()?), 0),
        "rz" => (GateKind::Rz(angle()?), 0),
        "cx" => (GateKind::X, 1),
        "ccx" => (GateKind::X, 2),
        "cz" => (GateKind::Z, 1),
        "cy" => (GateKind::Y, 1),
        "ch" => (GateKind::H, 1),
        "cp" => (GateKind::P(angle()?), 1),
        "cswap" => (GateKind::Swap, 1),
        other => return Err(format!("unknown gate {other:?}")),
    })
}

/// How far a circuit could be executed for its answer check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executed {
    /// Run on the stabilizer simulator.
    Stabilizer,
    /// Run on the state vector.
    Dense,
    /// Too wide for the state vector and not Clifford: structure only.
    StructureOnly,
}

/// Checks an emitted circuit: its measured bits, grid coupling when routed
/// onto a `k × k` grid, and — where it can be executed — its known answer.
///
/// # Errors
///
/// Describes the first violation.
pub fn check_circuit(
    circuit: &Circuit,
    answer: &Answer,
    bits: usize,
    grid: Option<usize>,
    seed: u64,
) -> Result<Executed, String> {
    let mut measured = vec![0usize; bits];
    for op in &circuit.ops {
        match op {
            CircuitOp::Measure { bit, .. } => {
                *measured.get_mut(*bit).ok_or_else(|| format!("bit {bit} out of range"))? += 1;
            }
            CircuitOp::Gate { .. } => {
                if let (Some(k), [a, b]) = (grid, op.qubits().as_slice()) {
                    let (ra, ca, rb, cb) = (a / k, a % k, b / k, b % k);
                    if ra.abs_diff(rb) + ca.abs_diff(cb) != 1 {
                        return Err(format!("two-qubit gate on uncoupled q[{a}], q[{b}]"));
                    }
                }
                if grid.is_some() && op.qubits().len() > 2 {
                    return Err("routed circuit has a gate on more than two qubits".into());
                }
            }
            CircuitOp::Reset { .. } => {}
        }
    }
    if let Some(bit) = measured.iter().position(|&m| m != 1) {
        return Err(format!("bit {bit} measured {} times", measured[bit]));
    }
    let (outcomes, how) = if is_clifford(circuit) {
        (stabilizer_outcomes(circuit, seed)?, Executed::Stabilizer)
    } else if circuit.num_qubits <= DENSE_MAX_QUBITS {
        (dense_outcomes(circuit)?, Executed::Dense)
    } else {
        return Ok(Executed::StructureOnly);
    };
    check_answer(answer, &outcomes)?;
    Ok(how)
}

/// Structural check of `qir-base` text: one `mz` per returned bit and the
/// matching `required_num_results` attribute.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_qir(text: &str, bits: usize) -> Result<(), String> {
    let mz = text.matches("@__quantum__qis__mz__body(").count();
    let attribute = format!("\"required_num_results\"=\"{bits}\"");
    if mz != bits || !text.contains(&attribute) {
        return Err(format!("qir has {mz} measurements, expected {bits}"));
    }
    Ok(())
}

fn is_clifford(circuit: &Circuit) -> bool {
    circuit.ops.iter().all(|op| match op {
        CircuitOp::Gate { gate, controls, .. } => match controls.len() {
            0 => matches!(
                gate,
                GateKind::X
                    | GateKind::Y
                    | GateKind::Z
                    | GateKind::H
                    | GateKind::S
                    | GateKind::Sdg
                    | GateKind::Swap
            ),
            1 => matches!(gate, GateKind::X | GateKind::Z),
            _ => false,
        },
        _ => true,
    })
}

/// Exact distribution of the measured bits, from the state vector.
/// Measurements must be terminal: a measured qubit may only be reset.
fn dense_outcomes(circuit: &Circuit) -> Result<Outcomes, String> {
    let n = circuit.num_qubits;
    let mut state = StateVector::zero(n);
    let mut measured: Vec<(usize, usize)> = Vec::new();
    for op in &circuit.ops {
        match op {
            CircuitOp::Gate { gate, controls, targets } => {
                if op.qubits().iter().any(|q| measured.iter().any(|(m, _)| m == q)) {
                    return Err("gate after measurement".into());
                }
                state.apply(*gate, controls, targets);
            }
            CircuitOp::Measure { qubit, bit } => measured.push((*qubit, *bit)),
            CircuitOp::Reset { qubit } => {
                if !measured.iter().any(|(m, _)| m == qubit) {
                    return Err("reset of an unmeasured qubit".into());
                }
            }
        }
    }
    let bits = measured.len();
    let mut dist = std::collections::BTreeMap::<String, f64>::new();
    for (index, amp) in state.amplitudes().iter().enumerate() {
        let p = amp.norm_sqr();
        if p == 0.0 {
            continue;
        }
        let mut key = vec!['0'; bits];
        for &(q, b) in &measured {
            if index & (1usize << (n - 1 - q)) != 0 {
                key[b] = '1';
            }
        }
        *dist.entry(key.into_iter().collect()).or_default() += p;
    }
    Ok(dist.into_iter().collect())
}

/// Samples measured bit strings from the stabilizer simulator. The gates
/// before the first measurement run once; each shot replays the rest.
fn stabilizer_outcomes(circuit: &Circuit, seed: u64) -> Result<Outcomes, String> {
    let split = circuit
        .ops
        .iter()
        .position(|op| !matches!(op, CircuitOp::Gate { .. }))
        .unwrap_or(circuit.ops.len());
    let mut prefix = Tableau::new(circuit.num_qubits);
    for op in &circuit.ops[..split] {
        prefix.apply(op, &mut [], &mut Rng(seed))?;
    }
    let mut rng = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut out = Vec::new();
    for _ in 0..STABILIZER_SHOTS {
        let mut tableau = prefix.clone();
        let mut bits = vec![false; circuit.num_bits()];
        for op in &circuit.ops[split..] {
            tableau.apply(op, &mut bits, &mut rng)?;
        }
        out.push((bits.iter().map(|&b| if b { '1' } else { '0' }).collect(), 1.0));
    }
    Ok(out)
}

/// SplitMix64: the checker's own generator for random measurement outcomes.
pub struct Rng(pub u64);

impl Rng {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Aaronson–Gottesman stabilizer tableau: rows `0..n` destabilizers,
/// `n..2n` stabilizers, row `2n` scratch; X and Z bits packed in words.
#[derive(Clone)]
struct Tableau {
    n: usize,
    words: usize,
    x: Vec<u64>,
    z: Vec<u64>,
    r: Vec<bool>,
}

impl Tableau {
    fn new(n: usize) -> Tableau {
        let words = n.div_ceil(64).max(1);
        let rows = 2 * n + 1;
        let mut t = Tableau {
            n,
            words,
            x: vec![0; rows * words],
            z: vec![0; rows * words],
            r: vec![false; rows],
        };
        for i in 0..n {
            t.x[i * words + i / 64] |= 1 << (i % 64);
            t.z[(n + i) * words + i / 64] |= 1 << (i % 64);
        }
        t
    }

    fn bit(v: &[u64], words: usize, row: usize, q: usize) -> bool {
        v[row * words + q / 64] >> (q % 64) & 1 == 1
    }

    fn rows(&self) -> usize {
        2 * self.n + 1
    }

    fn h(&mut self, a: usize) {
        let (w, m) = (a / 64, 1u64 << (a % 64));
        for i in 0..self.rows() {
            let (xi, zi) = (i * self.words + w, i * self.words + w);
            let (xa, za) = (self.x[xi] & m != 0, self.z[zi] & m != 0);
            self.r[i] ^= xa && za;
            if xa != za {
                self.x[xi] ^= m;
                self.z[zi] ^= m;
            }
        }
    }

    fn s(&mut self, a: usize) {
        let (w, m) = (a / 64, 1u64 << (a % 64));
        for i in 0..self.rows() {
            let k = i * self.words + w;
            let (xa, za) = (self.x[k] & m != 0, self.z[k] & m != 0);
            self.r[i] ^= xa && za;
            if xa {
                self.z[k] ^= m;
            }
        }
    }

    fn cx(&mut self, a: usize, b: usize) {
        for i in 0..self.rows() {
            let xa = Self::bit(&self.x, self.words, i, a);
            let xb = Self::bit(&self.x, self.words, i, b);
            let za = Self::bit(&self.z, self.words, i, a);
            let zb = Self::bit(&self.z, self.words, i, b);
            self.r[i] ^= xa && zb && (xb == za);
            if xa {
                self.x[i * self.words + b / 64] ^= 1 << (b % 64);
            }
            if zb {
                self.z[i * self.words + a / 64] ^= 1 << (a % 64);
            }
        }
    }

    /// Pauli conjugation: flips the sign of every row that anticommutes.
    fn pauli(&mut self, a: usize, flip_on_x: bool, flip_on_z: bool) {
        for i in 0..self.rows() {
            let xa = Self::bit(&self.x, self.words, i, a);
            let za = Self::bit(&self.z, self.words, i, a);
            self.r[i] ^= (flip_on_x && xa) ^ (flip_on_z && za);
        }
    }

    /// Row `h` ← row `i` · row `h`, tracking the sign.
    fn rowsum(&mut self, h: usize, i: usize) {
        // Sum of the Aaronson–Gottesman phase function g over all qubits.
        let mut phase = 2 * i64::from(self.r[h]) + 2 * i64::from(self.r[i]);
        for w in 0..self.words {
            let (x1, z1) = (self.x[i * self.words + w], self.z[i * self.words + w]);
            let (x2, z2) = (self.x[h * self.words + w], self.z[h * self.words + w]);
            let y1 = x1 & z1;
            let xo = x1 & !z1;
            let zo = !x1 & z1;
            let pos = (y1 & z2 & !x2) | (xo & z2 & x2) | (zo & x2 & !z2);
            let neg = (y1 & x2 & !z2) | (xo & z2 & !x2) | (zo & x2 & z2);
            phase += i64::from(pos.count_ones()) - i64::from(neg.count_ones());
        }
        self.r[h] = phase.rem_euclid(4) == 2;
        for w in 0..self.words {
            self.x[h * self.words + w] ^= self.x[i * self.words + w];
            self.z[h * self.words + w] ^= self.z[i * self.words + w];
        }
    }

    fn copy_row(&mut self, to: usize, from: usize) {
        for w in 0..self.words {
            self.x[to * self.words + w] = self.x[from * self.words + w];
            self.z[to * self.words + w] = self.z[from * self.words + w];
        }
        self.r[to] = self.r[from];
    }

    fn clear_row(&mut self, row: usize) {
        for w in 0..self.words {
            self.x[row * self.words + w] = 0;
            self.z[row * self.words + w] = 0;
        }
        self.r[row] = false;
    }

    fn measure(&mut self, a: usize, rng: &mut Rng) -> bool {
        let n = self.n;
        let pivot = (n..2 * n).find(|&p| Self::bit(&self.x, self.words, p, a));
        match pivot {
            Some(p) => {
                for i in 0..2 * n {
                    if i != p && Self::bit(&self.x, self.words, i, a) {
                        self.rowsum(i, p);
                    }
                }
                self.copy_row(p - n, p);
                self.clear_row(p);
                self.z[p * self.words + a / 64] |= 1 << (a % 64);
                let outcome = rng.next_u64() & 1 == 1;
                self.r[p] = outcome;
                outcome
            }
            None => {
                let scratch = 2 * n;
                self.clear_row(scratch);
                for i in 0..n {
                    if Self::bit(&self.x, self.words, i, a) {
                        self.rowsum(scratch, i + n);
                    }
                }
                self.r[scratch]
            }
        }
    }

    fn apply(&mut self, op: &CircuitOp, bits: &mut [bool], rng: &mut Rng) -> Result<(), String> {
        match op {
            CircuitOp::Gate { gate, controls, targets } => match (gate, controls.as_slice()) {
                (GateKind::H, []) => self.h(targets[0]),
                (GateKind::S, []) => self.s(targets[0]),
                (GateKind::Sdg, []) => {
                    self.s(targets[0]);
                    self.pauli(targets[0], true, false);
                }
                (GateKind::X, []) => self.pauli(targets[0], false, true),
                (GateKind::Z, []) => self.pauli(targets[0], true, false),
                (GateKind::Y, []) => self.pauli(targets[0], true, true),
                (GateKind::Swap, []) => {
                    let (a, b) = (targets[0], targets[1]);
                    self.cx(a, b);
                    self.cx(b, a);
                    self.cx(a, b);
                }
                (GateKind::X, [c]) => self.cx(*c, targets[0]),
                (GateKind::Z, [c]) => {
                    self.h(targets[0]);
                    self.cx(*c, targets[0]);
                    self.h(targets[0]);
                }
                _ => return Err(format!("non-Clifford gate {gate} on the stabilizer path")),
            },
            CircuitOp::Measure { qubit, bit } => {
                let outcome = self.measure(*qubit, rng);
                *bits.get_mut(*bit).ok_or("measure before the bits exist")? = outcome;
            }
            CircuitOp::Reset { qubit } => {
                if self.measure(*qubit, rng) {
                    self.pauli(*qubit, false, true);
                }
            }
        }
        Ok(())
    }
}
