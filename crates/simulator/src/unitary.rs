//! Construction of full-register unitaries from sequences of gate
//! applications, behind `Circuit::unitary`: Geyser's block synthesis and
//! the test oracles use it. The wChecker does not; it compares circuits on
//! random stimuli in O(2ⁿ) memory.

use crate::kernels::{self, Kernel};
use crate::{Complex, Matrix};

/// Amplitudes per block of a build: `2¹⁴` complex doubles (256 KiB), so a
/// block stays in a typical L2 cache while the whole plan runs over it.
const BLOCK_AMPLITUDES: usize = 1 << 14;

/// Builds the `2ⁿ × 2ⁿ` unitary of a gate sequence.
///
/// [`apply`] only validates and records each gate; [`finish`] fuses the
/// recorded sequence into a short plan of kernel passes (see
/// [`crate::kernels`]) and runs it:
///
/// * **Monomial runs.** Consecutive monomial gates — one nonzero per row
///   and column, tested exactly: `Z`, `S`, `T`, `RZ`, `P`, `X`, `CX`, `CZ`,
///   `CCX`, `CCZ`, `CⁿZ`, `CRZ`, `SWAP`, … — compose into one
///   permutation-plus-phase table over the `2ⁿ` basis states, applied in a
///   single pass (a plain diagonal when the permutation is the identity).
///   A QAOA phase separator's CX–RZ–CX ladders become one pass.
/// * **1-qubit merging.** Consecutive 1-qubit gates on one qubit multiply
///   into one 2×2, which waits until a multi-qubit gate touches its qubit.
///   Then a monomial 2×2 joins the run if that gate is monomial too; any
///   other is applied first as one 1-qubit pass. A waiting gate is applied
///   ahead of the open run only on qubits the run does not touch.
/// * **Row blocks.** Row `i` of `U = Gₘ⋯G₁` is column `i` of
///   `Uᵀ = G₁ᵀ⋯Gₘᵀ`, so the plan is fused from the transposed gates in
///   reverse order and run on basis vectors, which writes each row of `U`
///   straight into the row-major [`Matrix`]. The whole plan runs over one
///   cache-sized block of rows at a time, and the blocks are split across
///   scoped threads once per build.
///
/// Fused and per-gate construction agree to rounding; per-column
/// simulation with [`State::apply_reference`](crate::State::apply_reference)
/// is the differential-testing oracle.
///
/// # Examples
///
/// ```
/// use weaver_simulator::{gates, UnitaryBuilder};
/// let mut b = UnitaryBuilder::new(2);
/// b.apply(&gates::h(), &[1]);
/// b.apply(&gates::cz(), &[0, 1]);
/// b.apply(&gates::h(), &[1]);
/// let u = b.finish();
/// assert!(u.approx_eq(&gates::cx(), 1e-10)); // H·CZ·H = CX
/// ```
///
/// [`apply`]: UnitaryBuilder::apply
/// [`finish`]: UnitaryBuilder::finish
#[derive(Clone, Debug)]
pub struct UnitaryBuilder {
    num_qubits: usize,
    /// The transpose of each recorded gate with the bit position (from the
    /// LSB of the basis index) of each of its targets, in circuit order.
    gates: Vec<(Matrix, Vec<usize>)>,
}

impl UnitaryBuilder {
    /// Largest register the builder materializes. The result holds `4ⁿ`
    /// complex doubles (1 GiB at 13 qubits). The wChecker's stimulus check
    /// runs up to the same register size, and checks only pulses and
    /// motions beyond it.
    pub const MAX_QUBITS: usize = 13;

    /// Starts from the identity on `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds [`UnitaryBuilder::MAX_QUBITS`] — the
    /// full unitary would not fit in memory.
    pub fn new(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= Self::MAX_QUBITS,
            "unitary construction limited to {} qubits, got {num_qubits}",
            Self::MAX_QUBITS
        );
        UnitaryBuilder {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Appends a gate (see [`crate::State::apply`]) to the sequence. No
    /// amplitude is touched until [`UnitaryBuilder::finish`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`crate::State::apply`].
    pub fn apply(&mut self, gate: &Matrix, targets: &[usize]) {
        kernels::validate_targets(self.num_qubits, gate, targets);
        let bits = targets.iter().map(|&t| self.num_qubits - 1 - t).collect();
        self.gates.push((gate.transpose(), bits));
    }

    /// Materializes the unitary of the recorded sequence.
    pub fn finish(&self) -> Matrix {
        self.build(None)
    }

    /// [`UnitaryBuilder::finish`] on at most `threads` scoped workers
    /// (`None`: one per available core). A build of one block stays on the
    /// calling thread.
    fn build(&self, threads: Option<usize>) -> Matrix {
        let dim = 1usize << self.num_qubits;
        let mut fuser = Fuser::new(self.num_qubits);
        for (gate_t, bits) in self.gates.iter().rev() {
            fuser.push(gate_t, bits);
        }
        let plan = fuser.finish();

        let mut u = Matrix::zeros(dim, dim);
        let block = BLOCK_AMPLITUDES.min(dim * dim).max(dim);
        let rows_per_block = block / dim;
        // Runs the plan over consecutive blocks starting at `first_row`.
        let run_blocks = |first_row: usize, rows: &mut [Complex]| {
            let mut scratch = Vec::new();
            for (b, chunk) in rows.chunks_mut(block).enumerate() {
                let row0 = first_row + b * rows_per_block;
                for (r, row) in chunk.chunks_exact_mut(dim).enumerate() {
                    row[row0 + r] = Complex::ONE;
                }
                for kernel in &plan {
                    kernel.run(chunk, &mut scratch);
                }
            }
        };
        let blocks = dim * dim / block;
        let threads = if blocks > 1 {
            threads
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
                .min(blocks)
        } else {
            1
        };
        if threads <= 1 {
            run_blocks(0, u.as_mut_slice());
        } else {
            let per = blocks.div_ceil(threads) * block;
            std::thread::scope(|s| {
                for (t, piece) in u.as_mut_slice().chunks_mut(per).enumerate() {
                    let run_blocks = &run_blocks;
                    s.spawn(move || run_blocks(t * per / dim, piece));
                }
            });
        }
        u
    }
}

/// Fuses a gate sequence into a plan of kernel passes under the rules
/// documented on [`UnitaryBuilder`].
struct Fuser {
    num_qubits: usize,
    plan: Vec<Kernel>,
    /// The merged 1-qubit gate (row-major 2×2) waiting on each bit position.
    pending: Vec<Option<[Complex; 4]>>,
    /// The open monomial run, applied after everything already in `plan`.
    run: Option<MonomialRun>,
}

impl Fuser {
    fn new(num_qubits: usize) -> Self {
        Fuser {
            num_qubits,
            plan: Vec::new(),
            pending: vec![None; num_qubits],
            run: None,
        }
    }

    /// Appends `gate` acting on `bits` to the sequence.
    fn push(&mut self, gate: &Matrix, bits: &[usize]) {
        if let [bit] = *bits {
            let g = gate.as_slice();
            let m = [g[0], g[1], g[2], g[3]];
            match self.pending[bit] {
                Some(p) => self.pending[bit] = Some(mul_2x2(&m, &p)),
                // The run acts on `bit`, so this gate follows it there.
                None if self.run_touches(bit) => match kernels::monomial(gate) {
                    Some(image) => self.run_push(&image, bits),
                    None => self.pending[bit] = Some(m),
                },
                None => self.pending[bit] = Some(m),
            }
            return;
        }
        match kernels::monomial(gate) {
            Some(image) => {
                for &b in bits {
                    self.settle(b);
                }
                self.run_push(&image, bits);
            }
            None => {
                if bits.iter().any(|&b| self.run_touches(b)) {
                    self.flush_run();
                }
                for &bit in bits {
                    if let Some(m) = self.pending[bit].take() {
                        self.plan.push(Kernel::OneQ { bit, m });
                    }
                }
                self.plan.push(Kernel::for_gate(gate, bits));
            }
        }
    }

    /// Resolves the gate waiting on `bit` before a monomial gate acts on
    /// it: a monomial one joins the run, any other is applied first — after
    /// closing the run if the run acts on `bit`, since the waiting gate
    /// follows the run there.
    fn settle(&mut self, bit: usize) {
        let Some(m) = self.pending[bit].take() else {
            return;
        };
        match monomial_2x2(&m) {
            Some(image) => self.run_push(&image, &[bit]),
            None => {
                if self.run_touches(bit) {
                    self.flush_run();
                }
                self.plan.push(Kernel::OneQ { bit, m });
            }
        }
    }

    fn run_touches(&self, bit: usize) -> bool {
        self.run
            .as_ref()
            .is_some_and(|run| run.touched >> bit & 1 == 1)
    }

    fn run_push(&mut self, image: &[(usize, Complex)], bits: &[usize]) {
        let dim = 1usize << self.num_qubits;
        self.run
            .get_or_insert_with(|| MonomialRun::identity(dim))
            .push(image, bits);
    }

    fn flush_run(&mut self) {
        if let Some(run) = self.run.take() {
            self.plan.push(run.into_kernel());
        }
    }

    /// Closes the plan. Waiting monomial gates join the run for free; the
    /// other waiting gates follow it, which is sound because each one
    /// either comes after the run's gates on its bit or shares no bit with
    /// the run.
    fn finish(mut self) -> Vec<Kernel> {
        for bit in 0..self.num_qubits {
            if let Some(m) = self.pending[bit] {
                if let Some(image) = monomial_2x2(&m) {
                    self.pending[bit] = None;
                    self.run_push(&image, &[bit]);
                }
            }
        }
        self.flush_run();
        for (bit, m) in self.pending.iter().enumerate() {
            if let Some(m) = *m {
                self.plan.push(Kernel::OneQ { bit, m });
            }
        }
        self.plan
    }
}

/// A composed run of monomial gates: basis state `x` maps to
/// `phase[x]·|image[x]⟩`.
struct MonomialRun {
    image: Vec<usize>,
    phase: Vec<Complex>,
    /// Mask of the bit positions any gate of the run acts on.
    touched: usize,
}

impl MonomialRun {
    fn identity(dim: usize) -> Self {
        MonomialRun {
            image: (0..dim).collect(),
            phase: vec![Complex::ONE; dim],
            touched: 0,
        }
    }

    /// Composes a monomial gate on `bits` after the run. `gate_image[y]` is
    /// the `(row, entry)` of the gate's nonzero in local column `y` (see
    /// `kernels::monomial`).
    fn push(&mut self, gate_image: &[(usize, Complex)], bits: &[usize]) {
        let k = bits.len();
        let mask: usize = bits.iter().map(|&b| 1usize << b).sum();
        // Each local row index spread onto the register's bit positions.
        let spread: Vec<(usize, Complex)> = gate_image
            .iter()
            .map(|&(row, entry)| {
                let set = bits
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| row >> (k - 1 - i) & 1 == 1)
                    .map(|(_, &b)| 1usize << b)
                    .sum::<usize>();
                (set, entry)
            })
            .collect();
        for (image, phase) in self.image.iter_mut().zip(&mut self.phase) {
            let y = bits.iter().fold(0, |y, &b| y << 1 | (*image >> b & 1));
            let (set, entry) = spread[y];
            *image = (*image & !mask) | set;
            *phase = entry * *phase;
        }
        self.touched |= mask;
    }

    /// The run as a gather-form kernel: `out[image[x]] = phase[x]·in[x]`.
    fn into_kernel(self) -> Kernel {
        let dim = self.image.len();
        let mut src = vec![0; dim];
        let mut phase = vec![Complex::ZERO; dim];
        for (x, (&y, &p)) in self.image.iter().zip(&self.phase).enumerate() {
            src[y] = x;
            phase[y] = p;
        }
        Kernel::phase_table(src, phase)
    }
}

/// [`kernels::monomial`] of a row-major 2×2.
fn monomial_2x2(m: &[Complex; 4]) -> Option<Vec<(usize, Complex)>> {
    kernels::monomial(&Matrix::from_rows(2, 2, m))
}

/// Row-major 2×2 product `a·b`.
fn mul_2x2(a: &[Complex; 4], b: &[Complex; 4]) -> [Complex; 4] {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gates, State};

    const TOL: f64 = 1e-10;

    #[test]
    fn identity_when_no_gates() {
        let b = UnitaryBuilder::new(3);
        assert!(b.finish().approx_eq(&Matrix::identity(8), TOL));
    }

    #[test]
    fn single_gate_embedding_matches_kron() {
        let mut b = UnitaryBuilder::new(2);
        b.apply(&gates::x(), &[0]);
        // X on qubit 0 (MSB) = X ⊗ I
        let expected = gates::x().kron(&Matrix::identity(2));
        assert!(b.finish().approx_eq(&expected, TOL));
    }

    #[test]
    fn gate_order_is_circuit_order() {
        // Apply H then Z to one qubit: unitary = Z * H (matrix order).
        let mut b = UnitaryBuilder::new(1);
        b.apply(&gates::h(), &[0]);
        b.apply(&gates::z(), &[0]);
        let expected = &gates::z() * &gates::h();
        assert!(b.finish().approx_eq(&expected, TOL));
    }

    #[test]
    fn swap_from_three_cx() {
        let mut b = UnitaryBuilder::new(2);
        b.apply(&gates::cx(), &[0, 1]);
        b.apply(&gates::cx(), &[1, 0]);
        b.apply(&gates::cx(), &[0, 1]);
        assert!(b.finish().approx_eq(&gates::swap(), TOL));
    }

    #[test]
    fn result_is_unitary() {
        let mut b = UnitaryBuilder::new(3);
        b.apply(&gates::h(), &[0]);
        b.apply(&gates::ccz(), &[0, 1, 2]);
        b.apply(&gates::rx(0.7), &[2]);
        assert!(b.finish().is_unitary(TOL));
    }

    #[test]
    fn matches_per_column_state_simulation() {
        // The fused plan must agree with simulating each basis state
        // separately through the seed reference path. RX(π) is X up to
        // phase but not exactly monomial, so it runs as a dense pass
        // between two monomial runs.
        let n = 4;
        let ops: Vec<(Matrix, Vec<usize>)> = vec![
            (gates::h(), vec![2]),
            (gates::u3(0.7, 0.1, -0.4), vec![0]),
            (gates::cx(), vec![2, 1]),
            (gates::rx(std::f64::consts::PI), vec![1]),
            (gates::ccz(), vec![0, 1, 3]),
            (gates::swap(), vec![3, 0]),
        ];
        let mut b = UnitaryBuilder::new(n);
        for (gate, targets) in &ops {
            b.apply(gate, targets);
        }
        let u = b.finish();
        for j in 0..1usize << n {
            let mut col = State::basis(n, j);
            for (gate, targets) in &ops {
                col.apply_reference(gate, targets);
            }
            for (i, &amp) in col.amplitudes().iter().enumerate() {
                assert!(u[(i, j)].approx_eq(amp, TOL));
            }
        }
    }

    #[test]
    fn threaded_build_is_bit_identical_to_serial() {
        // 8 qubits = four row blocks. The thread count is forced, so one
        // physical core is enough to exercise the scoped-thread split.
        let mut b = UnitaryBuilder::new(8);
        for q in 0..8 {
            b.apply(&gates::h(), &[q]);
        }
        b.apply(&gates::cx(), &[0, 7]);
        b.apply(&gates::rz(0.4), &[7]);
        b.apply(&gates::swap(), &[2, 5]);
        b.apply(&gates::u3(0.3, -1.0, 0.2), &[3]);
        b.apply(&gates::ccz(), &[1, 3, 6]);
        let serial = b.build(Some(1));
        for threads in [2, 3, 4] {
            assert!(b.build(Some(threads)) == serial, "{threads} threads");
        }
    }

    #[test]
    fn fusion_collapses_a_phase_separator_into_one_pass() {
        // H wall, CX–RZ–CX ladders, RX wall: the QAOA reference shape.
        let n = 4;
        let mut gates_in = Vec::new();
        for q in 0..n {
            gates_in.push((gates::h(), vec![q]));
        }
        for (a, b, t) in [(0, 1, 0.3), (1, 3, -0.7), (0, 2, 1.1)] {
            gates_in.push((gates::cx(), vec![a, b]));
            gates_in.push((gates::rz(t), vec![b]));
            gates_in.push((gates::cx(), vec![a, b]));
        }
        for q in 0..n {
            gates_in.push((gates::rx(0.6), vec![q]));
        }
        let mut fuser = Fuser::new(n);
        for (gate, targets) in &gates_in {
            let bits: Vec<usize> = targets.iter().map(|&t| n - 1 - t).collect();
            fuser.push(gate, &bits);
        }
        let plan = fuser.finish();
        // n Hadamards, one diagonal for the whole separator, n mixers.
        assert_eq!(plan.len(), 2 * n + 1);
        assert_eq!(
            plan.iter()
                .filter(|k| matches!(k, Kernel::Diagonal { .. }))
                .count(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "unitary construction limited")]
    fn oversized_register_panics() {
        let _ = UnitaryBuilder::new(UnitaryBuilder::MAX_QUBITS + 1);
    }
}
