//! Serializes a [`Program`] back to wQasm source text.
//!
//! The printer and [`crate::parse`] round-trip: `parse(print(p)) == p` up to
//! floating-point formatting, which the property tests in this crate verify.
//! [`print_circuit`] prints a [`Circuit`] straight from the IR, with the
//! bytes [`print`] gives for its [`circuit_to_program`] lifting.
//!
//! [`circuit_to_program`]: crate::convert::circuit_to_program

use crate::ast::*;
use std::fmt::Write as _;
use weaver_circuit::{Circuit, Operation};

/// Pretty-prints a program as wQasm source.
///
/// Every token is written straight into one pre-sized `String`, and each
/// distinct float is formatted once per call.
///
/// # Examples
///
/// ```
/// use weaver_wqasm::{parse, print};
/// let p = parse("qreg q[1];\n@rydberg\nh q[0];").unwrap();
/// let text = print(&p);
/// assert!(text.contains("@rydberg"));
/// assert_eq!(parse(&text).unwrap(), p);
/// ```
pub fn print(program: &Program) -> String {
    let mut out = Out::with_capacity(estimated_len(program));
    if let Some(v) = &program.version {
        // Keep a conventional two-part version number.
        out.push_str("OPENQASM ");
        out.push_str(v);
        if !v.contains('.') {
            out.push_str(".0");
        }
        out.push_str(";\n");
    }
    for inc in &program.includes {
        out.push_str("include \"");
        out.push_str(inc);
        out.push_str("\";\n");
    }
    for stmt in &program.statements {
        print_statement(stmt, &mut out);
    }
    out.text
}

/// Prints a circuit as plain OpenQASM over register `q` (and `c` when it
/// measures): the text of `print(&circuit_to_program(circuit))`, written
/// from the IR without building the program.
///
/// # Examples
///
/// ```
/// use weaver_circuit::Circuit;
/// use weaver_wqasm::{convert::circuit_to_program, print, print_circuit};
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).rz(0.5, 1).measure_all();
/// assert_eq!(print_circuit(&c), print(&circuit_to_program(&c)));
/// ```
pub fn print_circuit(circuit: &Circuit) -> String {
    let ops = circuit.operations();
    let estimate: usize = ops
        .iter()
        .map(|op| match op {
            Operation::Gate(i) => 8 + FLOAT * i.gate.params().len() + QUBIT * i.qubits.len(),
            Operation::Measure(_) => 24,
            Operation::Barrier(qs) => 10 + QUBIT * qs.len(),
        })
        .sum();
    let mut out = Out::with_capacity(64 + estimate);
    out.push_str("OPENQASM ");
    out.push_str(Program::DEFAULT_VERSION);
    out.push_str(";\n");
    let n = circuit.num_qubits();
    print_decl("qreg ", "q", n, &mut out);
    if ops.iter().any(|o| matches!(o, Operation::Measure(_))) {
        print_decl("creg ", "c", n, &mut out);
    }
    for op in ops {
        match op {
            Operation::Gate(instr) => {
                out.push_str(instr.gate.name());
                let params = instr.gate.params();
                if !params.is_empty() {
                    out.push('(');
                    push_f64_list(&params, &mut out);
                    out.push(')');
                }
                out.push(' ');
                push_q_list(&instr.qubits, &mut out);
                out.push_str(";\n");
            }
            Operation::Measure(q) => {
                out.push_str("measure ");
                push_indexed("q", *q, &mut out);
                out.push_str(" -> ");
                push_indexed("c", *q, &mut out);
                out.push_str(";\n");
            }
            Operation::Barrier(qs) => {
                out.push_str("barrier");
                if !qs.is_empty() {
                    out.push(' ');
                    push_q_list(qs, &mut out);
                }
                out.push_str(";\n");
            }
        }
    }
    out.text
}

/// The text being printed plus a per-call cache of formatted floats, so a
/// value that repeats (a routed artifact's ~160k angles take a few dozen
/// distinct values) is formatted once. The cache is direct-mapped and keyed
/// by `f64::to_bits`, so `0.0` and `-0.0` (and NaN payloads) stay apart.
struct Out {
    text: String,
    /// `(bits, text)` per slot; an empty text marks a vacant slot.
    floats: Vec<(u64, String)>,
}

impl Out {
    /// The cache holds `2^SLOT_BITS` floats.
    const SLOT_BITS: u32 = 8;

    fn with_capacity(capacity: usize) -> Self {
        Out {
            text: String::with_capacity(capacity),
            floats: vec![(0, String::new()); 1 << Self::SLOT_BITS],
        }
    }
}

impl std::ops::Deref for Out {
    type Target = String;

    fn deref(&self) -> &String {
        &self.text
    }
}

impl std::ops::DerefMut for Out {
    fn deref_mut(&mut self) -> &mut String {
        &mut self.text
    }
}

/// About the printed length of a float with its separator (shortest
/// round-trip form) and of a qubit ref, for pre-sizing the output.
const FLOAT: usize = 16;
const QUBIT: usize = 7;

/// About the printed length, from token counts.
fn estimated_len(program: &Program) -> usize {
    fn annotation_len(a: &Annotation) -> usize {
        match a {
            Annotation::Slm { positions } => 8 + (2 * FLOAT + 4) * positions.len(),
            Annotation::Aod { xs, ys } => 12 + FLOAT * (xs.len() + ys.len()),
            Annotation::RamanGlobal { .. } | Annotation::RamanLocal { .. } => 24 + 3 * FLOAT,
            Annotation::Other { keyword, content } => 3 + keyword.len() + content.len(),
            _ => 24,
        }
    }
    let statements: usize = program
        .statements
        .iter()
        .map(|s| match s {
            Statement::GateCall {
                annotations,
                name,
                params,
                qubits,
            } => {
                annotations.iter().map(annotation_len).sum::<usize>()
                    + name.len()
                    + FLOAT * params.len()
                    + QUBIT * qubits.len()
                    + 4
            }
            Statement::Barrier { qubits } => 10 + QUBIT * qubits.len(),
            Statement::Pragma(text) => 10 + text.len(),
            Statement::Standalone(a) => annotation_len(a),
            _ => 32,
        })
        .sum();
    32 + statements
}

fn print_statement(stmt: &Statement, out: &mut Out) {
    match stmt {
        Statement::QregDecl { name, size } => print_decl("qreg ", name, *size, out),
        Statement::CregDecl { name, size } => print_decl("creg ", name, *size, out),
        Statement::GateCall {
            annotations,
            name,
            params,
            qubits,
        } => {
            for a in annotations {
                print_annotation(a, out);
            }
            out.push_str(name);
            if !params.is_empty() {
                out.push('(');
                push_f64_list(params, out);
                out.push(')');
            }
            out.push(' ');
            push_qubit_list(qubits, out);
            out.push_str(";\n");
        }
        Statement::Measure { qubit, target } => {
            out.push_str("measure ");
            push_qubit(qubit, out);
            if let Some(t) = target {
                out.push_str(" -> ");
                push_qubit(t, out);
            }
            out.push_str(";\n");
        }
        Statement::Barrier { qubits } => {
            out.push_str("barrier");
            if !qubits.is_empty() {
                out.push(' ');
                push_qubit_list(qubits, out);
            }
            out.push_str(";\n");
        }
        Statement::Pragma(text) => {
            out.push_str("pragma ");
            out.push_str(text);
            out.push_str(";\n");
        }
        Statement::Standalone(a) => print_annotation(a, out),
    }
}

fn print_decl(keyword: &str, name: &str, size: usize, out: &mut String) {
    out.push_str(keyword);
    out.push_str(name);
    out.push('[');
    push_usize(size, out);
    out.push_str("];\n");
}

fn print_annotation(a: &Annotation, out: &mut Out) {
    match a {
        Annotation::Slm { positions } => {
            out.push_str("@slm [");
            for (i, (x, y)) in positions.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('(');
                push_f64(*x, out);
                out.push_str(", ");
                push_f64(*y, out);
                out.push(')');
            }
            out.push_str("]\n");
        }
        Annotation::Aod { xs, ys } => {
            out.push_str("@aod [");
            push_f64_list(xs, out);
            out.push_str("] [");
            push_f64_list(ys, out);
            out.push_str("]\n");
        }
        Annotation::Bind { qubit, target } => {
            out.push_str("@bind ");
            push_qubit(qubit, out);
            match target {
                BindTarget::Slm(i) => {
                    out.push_str(" slm ");
                    push_usize(*i, out);
                }
                BindTarget::Aod(cx, cy) => {
                    out.push_str(" aod ");
                    push_usize(*cx, out);
                    out.push(' ');
                    push_usize(*cy, out);
                }
            }
            out.push('\n');
        }
        Annotation::Transfer { slm_index, aod } => {
            out.push_str("@transfer ");
            push_usize(*slm_index, out);
            out.push_str(" (");
            push_usize(aod.0, out);
            out.push_str(", ");
            push_usize(aod.1, out);
            out.push_str(")\n");
        }
        Annotation::Shuttle {
            axis,
            index,
            offset,
        } => {
            out.push_str(match axis {
                ShuttleAxis::Row => "@shuttle row ",
                ShuttleAxis::Column => "@shuttle column ",
            });
            push_usize(*index, out);
            out.push(' ');
            push_f64(*offset, out);
            out.push('\n');
        }
        Annotation::RamanGlobal { x, y, z } => {
            out.push_str("@raman global");
            push_xyz(*x, *y, *z, out);
        }
        Annotation::RamanLocal { qubit, x, y, z } => {
            out.push_str("@raman local ");
            push_qubit(qubit, out);
            push_xyz(*x, *y, *z, out);
        }
        Annotation::Rydberg => out.push_str("@rydberg\n"),
        Annotation::Other { keyword, content } => {
            out.push('@');
            out.push_str(keyword);
            if !content.is_empty() {
                out.push(' ');
                out.push_str(content);
            }
            out.push('\n');
        }
    }
}

/// ` x y z` and the line end of a Raman pulse.
fn push_xyz(x: f64, y: f64, z: f64, out: &mut Out) {
    for v in [x, y, z] {
        out.push(' ');
        push_f64(v, out);
    }
    out.push('\n');
}

fn push_f64_list(xs: &[f64], out: &mut Out) {
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_f64(*x, out);
    }
}

fn push_qubit_list(qubits: &[QubitRef], out: &mut String) {
    for (i, q) in qubits.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_qubit(q, out);
    }
}

/// `register[index]`, as [`QubitRef`]'s `Display` writes it.
fn push_qubit(q: &QubitRef, out: &mut String) {
    push_indexed(&q.register, q.index, out);
}

fn push_indexed(register: &str, index: usize, out: &mut String) {
    out.push_str(register);
    out.push('[');
    push_usize(index, out);
    out.push(']');
}

/// Qubits of register `q`, comma-separated.
fn push_q_list(qubits: &[usize], out: &mut String) {
    for (i, &q) in qubits.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_indexed("q", q, out);
    }
}

/// Decimal digits of `n`, as `usize`'s `Display` writes them.
fn push_usize(mut n: usize, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// Writes `v` as [`format_f64`] does, through the per-call cache.
fn push_f64(v: f64, out: &mut Out) {
    let bits = v.to_bits();
    // Fibonacci hashing: the top bits of the product pick the slot.
    let slot = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - Out::SLOT_BITS)) as usize;
    let (cached_bits, cached) = &mut out.floats[slot];
    if *cached_bits == bits && !cached.is_empty() {
        out.text.push_str(cached);
        return;
    }
    let start = out.text.len();
    format_f64(v, &mut out.text);
    cached.clear();
    cached.push_str(&out.text[start..]);
    *cached_bits = bits;
}

/// Formats a float so the lexer round-trips it exactly: uses Rust's shortest
/// representation, which `f64::parse` recovers losslessly; integral values
/// below 1e15 keep one decimal (`3.0`).
fn format_f64(v: f64, out: &mut String) {
    let _ = if v == v.trunc() && v.abs() < 1e15 {
        write!(out, "{v:.1}")
    } else {
        write!(out, "{v}")
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn roundtrip(src: &str) {
        let p1 = parse(src).unwrap();
        let text = print(&p1);
        let p2 = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        assert_eq!(p1, p2, "round-trip mismatch\n---\n{text}");
    }

    #[test]
    fn roundtrips_simple_program() {
        roundtrip("OPENQASM 3.0;\nqreg q[2];\nh q[0];\ncz q[0], q[1];\nmeasure q[0];");
    }

    #[test]
    fn roundtrips_annotations() {
        roundtrip(
            "qreg q[3];\n@slm [(0.0, 0.0), (7.25, -3.5)]\n@aod [1.0, 2.0] [0.5]\n@bind q[0] slm 0\n@bind q[1] aod 1 0\n@transfer 1 (0, 0)\n@shuttle column 1 4.25\n@raman global 0.1 -0.2 0.3\n@raman local q[2] 0.0 1.0 0.0\n@rydberg\nccz q[0], q[1], q[2];",
        );
    }

    #[test]
    fn roundtrips_negative_and_scientific() {
        roundtrip("qreg q[1];\nrz(-0.5) q[0];\nrx(1e-3) q[0];");
    }

    #[test]
    fn roundtrips_barriers_and_pragmas() {
        roundtrip("pragma weaver target fpqa;\nqreg q[2];\nbarrier;\nbarrier q[0], q[1];");
    }

    #[test]
    fn circuits_print_as_their_lifted_program() {
        use crate::convert::circuit_to_program;
        use weaver_circuit::{Gate, Operation};
        let same = |c: &Circuit| assert_eq!(print_circuit(c), print(&circuit_to_program(c)));
        let mut c = Circuit::new(5);
        for g in [
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.5),
            Gate::Ry(-0.0),
            Gate::Rz(1e-7),
            Gate::P(3.0),
            Gate::U3(1e16, -2.5e-3, f64::NAN),
        ] {
            c.push(g, &[4]);
        }
        c.push(Gate::Cx, &[0, 1]).push(Gate::Cz, &[1, 2]);
        c.push(Gate::Crz(0.25), &[2, 3]).push(Gate::Swap, &[4, 3]);
        c.push(Gate::Ccx, &[0, 1, 2]).push(Gate::Ccz, &[2, 3, 4]);
        c.push(Gate::CnZ(3), &[0, 1, 2, 3]);
        c.barrier().push_op(Operation::Barrier(vec![1, 3]));
        same(&c); // no measurement, so no `creg`
        c.measure(2).measure_all();
        same(&c);
        same(&Circuit::new(0));
    }

    #[test]
    fn integers_print_with_decimal() {
        let f = |v: f64| {
            let mut s = String::new();
            format_f64(v, &mut s);
            s
        };
        assert_eq!(f(3.0), "3.0");
        assert_eq!(f(0.5), "0.5");
    }

    #[test]
    fn cached_floats_print_as_formatted() {
        // Repeats, signed zeros, NaN payloads, long and short texts, and
        // more distinct values than slots, so slots are overwritten.
        let mut values = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(f64::NAN.to_bits() | 1),
            f64::INFINITY,
            1e300,
            1e-300,
            3.0,
            -2.5e-3,
            1e16,
        ];
        values.extend((0..2000).map(|i| (i % 700) as f64 * 0.1 - 17.0));
        values.extend(values.clone().iter().rev());
        let mut out = Out::with_capacity(0);
        let mut expected = String::new();
        for &v in &values {
            push_f64(v, &mut out);
            out.push(' ');
            format_f64(v, &mut expected);
            expected.push(' ');
        }
        assert_eq!(out.text, expected);
    }

    #[test]
    fn integers_print_like_display() {
        for n in [0usize, 7, 10, 99, 100, 12_345, usize::MAX] {
            let mut s = String::new();
            push_usize(n, &mut s);
            assert_eq!(s, n.to_string());
        }
    }
}
