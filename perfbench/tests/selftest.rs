//! Self-tests of the benchmark: the known-answer checks reject planted
//! wrong answers, and inputs and quality counts are functions of the seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use asdf_core::{CompileOptions, Session};
use perfbench::check::{self, check_answer, check_circuit, check_qir, parse_qasm, parse_sim_text};
use perfbench::programs::{self, Answer, Program};
use perfbench::workloads as w;
use std::time::Duration;

fn outcomes(pairs: &[(&str, f64)]) -> check::Outcomes {
    pairs.iter().map(|(b, w)| (b.to_string(), *w)).collect()
}

fn suite_at(n: usize, kind: &str) -> Program {
    programs::suite(&[n]).into_iter().find(|p| p.label == format!("{kind}-n{n}")).unwrap()
}

fn emit(program: &Program, backend: &str, options: CompileOptions) -> String {
    let session = Session::new(&program.source).unwrap();
    let artifact = session.compile(&w::request_of(program, options)).unwrap();
    session.emit(&artifact, backend).unwrap()
}

#[test]
fn sim_text_checks_accept_the_compiled_suite_and_reject_planted_answers() {
    for program in programs::suite(&[3]) {
        let text = emit(&program, "sim", CompileOptions::default());
        let parsed = parse_sim_text(&text).unwrap();
        check_answer(&program.answer, &parsed).unwrap_or_else(|e| panic!("{}: {e}", program.label));
    }
    // A wrong secret is rejected.
    let bv = suite_at(3, "bv");
    let text = emit(&bv, "sim", CompileOptions::default());
    let parsed = parse_sim_text(&text).unwrap();
    assert!(check_answer(&Answer::Secret(vec![false, true, true]), &parsed).is_err());
    // An altered counts line is rejected.
    let first = text.lines().nth(1).unwrap();
    let (bits, count) = first.split_once(' ').unwrap();
    let flipped: String = bits.chars().map(|c| if c == '0' { '1' } else { '0' }).collect();
    let planted = text.replacen(first, &format!("{flipped} {count}"), 1);
    assert!(check_answer(&bv.answer, &parse_sim_text(&planted).unwrap()).is_err());
    // Both the exact and the sampled text forms are read.
    let exact = "# exact measurement distribution\n101 1.000000000000\n";
    assert_eq!(parse_sim_text(exact).unwrap(), outcomes(&[("101", 1.0)]));
    assert!(parse_sim_text("# final state amplitudes from |0...0>\n").is_err());
}

#[test]
fn every_answer_kind_rejects_a_wrong_outcome() {
    let simon = Answer::SimonOrthogonal(vec![true, true, false]);
    assert!(check_answer(&simon, &outcomes(&[("110000", 1.0), ("001111", 1.0)])).is_ok());
    assert!(check_answer(&simon, &outcomes(&[("100000", 1.0)])).is_err());
    let period = Answer::Period { n: 4, period: 4 };
    assert!(check_answer(&period, &outcomes(&[("01000000", 1.0), ("11001111", 1.0)])).is_ok());
    assert!(check_answer(&period, &outcomes(&[("01100000", 1.0)])).is_err());
    let grover = Answer::AllOnesMostFrequent;
    assert!(check_answer(&grover, &outcomes(&[("111", 0.9), ("010", 0.1)])).is_ok());
    assert!(check_answer(&grover, &outcomes(&[("111", 0.3), ("010", 0.7)])).is_err());
    assert!(check_answer(&Answer::NotAllZeros, &outcomes(&[("000", 0.5), ("111", 0.5)])).is_err());
    assert!(check_answer(&Answer::AllZeros, &outcomes(&[("0010", 1.0)])).is_err());
    // Numerical zeros in an exact distribution are not outcomes.
    assert!(check_answer(&Answer::AllZeros, &outcomes(&[("0000", 1.0), ("0010", 1e-20)])).is_ok());
}

#[test]
fn qasm_checks_execute_the_circuit_and_reject_planted_bugs() {
    for (kind, n) in [("bv", 8), ("simon", 8), ("grover", 3), ("period", 4)] {
        let program = suite_at(n, kind);
        let qasm = emit(&program, "qasm", CompileOptions::default());
        let circuit = parse_qasm(&qasm).unwrap();
        let how = check_circuit(&circuit, &program.answer, program.bits, None, 1).unwrap();
        assert_ne!(how, check::Executed::StructureOnly, "{kind}");
        // An X on a measured qubit before the measurements changes the
        // answer (for period finding, on the lowest bit of `y`).
        let bit = if kind == "period" { n - 1 } else { 0 };
        let measured = format!("c[{bit}] = measure q[");
        let line = qasm.lines().find(|l| l.starts_with(&measured)).unwrap();
        let qubit = &line[measured.len()..line.len() - 2];
        let at = qasm.find("] = measure").unwrap() - 3;
        let at = qasm[..at].rfind('\n').unwrap() + 1;
        let planted = format!("{}x q[{qubit}];\n{}", &qasm[..at], &qasm[at..]);
        let planted = parse_qasm(&planted).unwrap();
        assert!(
            check_circuit(&planted, &program.answer, program.bits, None, 1).is_err(),
            "{kind}: planted X not caught"
        );
        // A missing measurement is caught structurally.
        let dropped: String = qasm
            .lines()
            .filter(|l| !l.starts_with("c[0] = measure"))
            .map(|l| format!("{l}\n"))
            .collect();
        let dropped = parse_qasm(&dropped).unwrap();
        assert!(check_circuit(&dropped, &program.answer, program.bits, None, 1).is_err(), "{kind}");
    }
    // A wrong secret is rejected on the stabilizer path too.
    let bv = suite_at(16, "bv");
    let circuit = parse_qasm(&emit(&bv, "qasm", CompileOptions::default())).unwrap();
    assert!(check_circuit(&circuit, &Answer::Secret(vec![true; 16]), 16, None, 1).is_err());
}

#[test]
fn routed_qasm_must_respect_grid_coupling() {
    let bv = suite_at(8, "bv");
    let options = CompileOptions::default().with_target(Some("grid-3x3"));
    let qasm = emit(&bv, "qasm", options);
    let circuit = parse_qasm(&qasm).unwrap();
    check_circuit(&circuit, &bv.answer, bv.bits, Some(3), 1).unwrap();
    // q[0] and q[8] are opposite corners of a 3x3 grid.
    let at = qasm.find("c[0] = measure").unwrap();
    let planted = format!("{}cx q[0], q[8];\ncx q[0], q[8];\n{}", &qasm[..at], &qasm[at..]);
    let planted = parse_qasm(&planted).unwrap();
    assert!(check_circuit(&planted, &bv.answer, bv.bits, Some(3), 1).is_err());
}

#[test]
fn qir_check_counts_measurements() {
    let bv = suite_at(4, "bv");
    let qir = emit(&bv, "qir-base", CompileOptions::default());
    check_qir(&qir, 4).unwrap();
    assert!(check_qir(&qir, 5).is_err());
}

#[test]
fn one_seed_gives_identical_inputs_and_quality_counts() {
    let a = w::suite_inputs(7).unwrap();
    let b = w::suite_inputs(7).unwrap();
    for round in 0..4 {
        assert_eq!(w::cold_order(&a, round), w::cold_order(&b, round));
    }
    let labels = |i: &w::ColdInputs| {
        i.programs.iter().map(|(p, g)| (p.label.clone(), *g)).collect::<Vec<_>>()
    };
    assert_eq!(labels(&a), labels(&b));
    let (qa, qb) = (w::cold_run(&a, Duration::ZERO), w::cold_run(&b, Duration::ZERO));
    assert_eq!(qa.failed, 0, "{:?}", qa.failures);
    assert_eq!(qa.quality, qb.quality);
    assert_eq!(qa.quality.pairs.len(), 30);

    let sources = programs::serve_sources();
    assert_eq!(w::serve_lines(&sources, 7, 0), w::serve_lines(&sources, 7, 0));

    let (sa, sb) = (w::sim_setup(7).unwrap(), w::sim_setup(7).unwrap());
    let (ma, mb) = (w::sim_run(&sa, Duration::ZERO), w::sim_run(&sb, Duration::ZERO));
    assert_eq!(ma.failed, 0, "{:?}", ma.failures);
    assert_eq!(ma.quality, mb.quality);
}

#[test]
fn another_seed_changes_the_request_mix() {
    let sources = programs::serve_sources();
    let a = w::serve_lines(&sources, 7, 0);
    let b = w::serve_lines(&sources, 8, 0);
    assert_ne!(a, b);
    let kinds = |lines: &[w::ServeLine]| {
        let mut counts = std::collections::BTreeMap::new();
        for l in lines {
            *counts.entry((l.source, format!("{:?}", l.op))).or_insert(0) += 1;
        }
        counts
    };
    assert_ne!(kinds(&a), kinds(&b));
    // Both clients of one seed send different lines.
    assert_ne!(w::serve_lines(&sources, 7, 0), w::serve_lines(&sources, 7, 1));
    let inputs = w::wide_inputs(7);
    let other = w::wide_inputs(8);
    assert_ne!(w::cold_order(&inputs, 0), w::cold_order(&other, 0));
}
