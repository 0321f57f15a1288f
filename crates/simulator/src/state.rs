//! Dense state-vector simulation.
//!
//! Bit-ordering convention (used consistently across the workspace): for an
//! `n`-qubit register, qubit `0` is the **most significant** bit of the basis
//! index, matching how circuit diagrams and the paper's bitstrings (e.g.
//! `110010` with `q0` first) are read. The bit of qubit `q` in basis index
//! `b` is `(b >> (n - 1 - q)) & 1`.

use crate::{kernels, Complex, Matrix};

/// A pure quantum state over `n` qubits as a dense vector of 2ⁿ amplitudes.
///
/// # Examples
///
/// ```
/// use weaver_simulator::{gates, State};
/// let mut psi = State::zero(2);
/// psi.apply(&gates::h(), &[0]);
/// psi.apply(&gates::cx(), &[0, 1]);
/// let p = psi.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-12 && (p[3] - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct State {
    num_qubits: usize,
    amplitudes: Vec<Complex>,
}

impl State {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 24 (guarding accidental exponential
    /// blow-up; the checker only needs small registers).
    pub fn zero(num_qubits: usize) -> Self {
        State::basis(num_qubits, 0)
    }

    /// The computational basis state with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_qubits` or `num_qubits > 24`.
    pub fn basis(num_qubits: usize, index: usize) -> Self {
        assert!(
            num_qubits <= 24,
            "state vector too large: {num_qubits} qubits"
        );
        let dim = 1usize << num_qubits;
        assert!(
            index < dim,
            "basis index {index} out of range for {num_qubits} qubits"
        );
        let mut amplitudes = vec![Complex::ZERO; dim];
        amplitudes[index] = Complex::ONE;
        State {
            num_qubits,
            amplitudes,
        }
    }

    /// Builds a state from raw amplitudes (must have power-of-two length).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_amplitudes(amplitudes: Vec<Complex>) -> Self {
        let dim = amplitudes.len();
        assert!(
            dim.is_power_of_two(),
            "amplitude count must be a power of two"
        );
        State {
            num_qubits: dim.trailing_zeros() as usize,
            amplitudes,
        }
    }

    /// Number of qubits in the register.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Dimension of the Hilbert space (2ⁿ).
    #[inline]
    pub fn dim(&self) -> usize {
        self.amplitudes.len()
    }

    /// Amplitude slice, indexed by basis state.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// Applies a `k`-qubit gate (given as a `2^k × 2^k` matrix) to the listed
    /// target qubits. `targets[0]` is the most significant qubit of the gate's
    /// own index space.
    ///
    /// Dispatches to a stride-based specialized kernel (1-qubit butterfly,
    /// 2-qubit, multi-controlled 1-qubit) with a generic gather/scatter
    /// fallback; see [`crate::kernels`]. Registers with at least
    /// [`kernels::PAR_MIN_AMPLITUDES`] amplitudes are processed by scoped
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match the target count, if a
    /// target repeats, or if a target is out of range.
    pub fn apply(&mut self, gate: &Matrix, targets: &[usize]) {
        kernels::validate_targets(self.num_qubits, gate, targets);
        // Trace only the registers big enough to go parallel — per-gate
        // spans on tiny registers would swamp a trace with noise.
        let _span = (self.amplitudes.len() >= kernels::PAR_MIN_AMPLITUDES).then(|| {
            weaver_obs::span::span("kernel", "apply-gate")
                .with_arg("qubits", self.num_qubits)
                .with_arg("targets", targets.len())
        });
        // Bit position (from LSB) of each target in the basis index.
        let bits: Vec<usize> = targets.iter().map(|&t| self.num_qubits - 1 - t).collect();
        kernels::apply_gate(&mut self.amplitudes, gate, &bits);
    }

    /// Multiplies amplitude `x` by `e^{−iθ·s(x)}`, reading `s(x)` from
    /// `scores[x]`: a diagonal over the whole register in one pass, such as
    /// a QAOA cost layer `e^{−iγC}` from its clause-score table. Each
    /// distinct score's phase is computed once, and no `2ⁿ`-entry phase
    /// table is built.
    ///
    /// # Panics
    ///
    /// Panics if `scores` does not hold one entry per amplitude.
    ///
    /// # Examples
    ///
    /// ```
    /// use weaver_simulator::{Complex, State};
    /// let mut psi = State::from_amplitudes(vec![Complex::ONE; 2]);
    /// psi.apply_score_phases(std::f64::consts::FRAC_PI_2, &[0, 1]);
    /// assert_eq!(psi.amplitudes()[0], Complex::ONE);
    /// assert!(psi.amplitudes()[1].approx_eq(-Complex::I, 1e-15));
    /// ```
    pub fn apply_score_phases(&mut self, theta: f64, scores: &[u64]) {
        /// Scores below this index a lookup table directly; larger ones
        /// (weights far above any clause count) go through a map.
        const DENSE_SCORES: u64 = 1 << 16;
        assert_eq!(scores.len(), self.dim(), "one score per amplitude");
        let phase = |s: u64| Complex::from_polar(-theta * s as f64);
        let max = scores.iter().copied().max().unwrap_or(0);
        if max < DENSE_SCORES {
            let mut phases: Vec<Option<Complex>> = vec![None; max as usize + 1];
            for (a, &s) in self.amplitudes.iter_mut().zip(scores) {
                *a *= *phases[s as usize].get_or_insert_with(|| phase(s));
            }
        } else {
            let mut phases = std::collections::HashMap::new();
            for (a, &s) in self.amplitudes.iter_mut().zip(scores) {
                *a *= *phases.entry(s).or_insert_with(|| phase(s));
            }
        }
    }

    /// Applies a gate via the seed's generic gather/scatter loop, bypassing
    /// the specialized kernels.
    ///
    /// Kept as the differential-testing oracle and the "before" side of the
    /// tracked benchmark baseline (`BENCH_simulator.json`); use [`apply`] for
    /// real work.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`apply`].
    ///
    /// [`apply`]: State::apply
    pub fn apply_reference(&mut self, gate: &Matrix, targets: &[usize]) {
        kernels::validate_targets(self.num_qubits, gate, targets);
        let k = targets.len();
        let gdim = 1usize << k;
        let bits: Vec<usize> = targets.iter().map(|&t| self.num_qubits - 1 - t).collect();
        let mask: usize = bits.iter().map(|&b| 1usize << b).sum();

        let mut scratch = vec![Complex::ZERO; gdim];
        let dim = self.dim();
        // Iterate over every assignment of the non-target bits.
        for base in 0..dim {
            if base & mask != 0 {
                continue; // only visit each group once, at target bits = 0
            }
            // Gather the 2^k amplitudes of this group.
            for (g, slot) in scratch.iter_mut().enumerate() {
                let mut idx = base;
                for (pos, &b) in bits.iter().enumerate() {
                    if (g >> (k - 1 - pos)) & 1 == 1 {
                        idx |= 1 << b;
                    }
                }
                *slot = self.amplitudes[idx];
            }
            // Multiply by the gate and scatter back.
            for r in 0..gdim {
                let mut acc = Complex::ZERO;
                for (c, &amp) in scratch.iter().enumerate() {
                    acc += gate[(r, c)] * amp;
                }
                let mut idx = base;
                for (pos, &b) in bits.iter().enumerate() {
                    if (r >> (k - 1 - pos)) & 1 == 1 {
                        idx |= 1 << b;
                    }
                }
                self.amplitudes[idx] = acc;
            }
        }
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn inner(&self, other: &State) -> Complex {
        assert_eq!(self.dim(), other.dim(), "state dimensions differ");
        self.amplitudes
            .iter()
            .zip(&other.amplitudes)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Squared norm of the state (should be 1 for physical states).
    pub fn norm_sqr(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Measurement probability of each basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Probability of measuring the exact basis state `index`.
    pub fn probability_of(&self, index: usize) -> f64 {
        self.amplitudes[index].norm_sqr()
    }

    /// Samples a basis state given a uniform random value in `[0, 1)`.
    ///
    /// Taking the random value as input keeps this crate free of RNG
    /// dependencies; callers supply e.g. `rng.gen::<f64>()`.
    pub fn sample_with(&self, uniform: f64) -> usize {
        let mut acc = 0.0;
        for (i, a) in self.amplitudes.iter().enumerate() {
            acc += a.norm_sqr();
            if uniform < acc {
                return i;
            }
        }
        self.amplitudes.len() - 1
    }

    /// Fidelity `|⟨self|other⟩|²` with another pure state.
    pub fn fidelity(&self, other: &State) -> f64 {
        self.inner(other).norm_sqr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    const TOL: f64 = 1e-12;

    #[test]
    fn zero_state_is_normalized() {
        let s = State::zero(3);
        assert_eq!(s.dim(), 8);
        assert!((s.norm_sqr() - 1.0).abs() < TOL);
        assert!((s.probability_of(0) - 1.0).abs() < TOL);
    }

    #[test]
    fn x_flips_target_bit_msb_convention() {
        // Flip qubit 0 of a 2-qubit register: |00> -> |10> which is index 2.
        let mut s = State::zero(2);
        s.apply(&gates::x(), &[0]);
        assert!((s.probability_of(0b10) - 1.0).abs() < TOL);
        // Flip qubit 1: |10> -> |11>.
        s.apply(&gates::x(), &[1]);
        assert!((s.probability_of(0b11) - 1.0).abs() < TOL);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut s = State::zero(2);
        s.apply(&gates::h(), &[0]);
        s.apply(&gates::cx(), &[0, 1]);
        let p = s.probabilities();
        assert!((p[0b00] - 0.5).abs() < TOL);
        assert!((p[0b11] - 0.5).abs() < TOL);
        assert!(p[0b01].abs() < TOL && p[0b10].abs() < TOL);
    }

    #[test]
    fn cx_with_reversed_targets() {
        // control = qubit 1, target = qubit 0.
        let mut s = State::basis(2, 0b01); // q1 = 1
        s.apply(&gates::cx(), &[1, 0]);
        assert!((s.probability_of(0b11) - 1.0).abs() < TOL);
    }

    #[test]
    fn three_qubit_gate_on_scattered_targets() {
        // CCX on (q0, q2) controls, q1 target in a 3-qubit register.
        let mut s = State::basis(3, 0b101); // q0=1, q2=1
        s.apply(&gates::ccx(), &[0, 2, 1]);
        assert!((s.probability_of(0b111) - 1.0).abs() < TOL);
    }

    #[test]
    fn inner_product_orthogonality() {
        let a = State::basis(2, 1);
        let b = State::basis(2, 2);
        assert!(a.inner(&b).is_zero(TOL));
        assert!(a.inner(&a).approx_eq(Complex::ONE, TOL));
    }

    #[test]
    fn sampling_respects_distribution_edges() {
        let mut s = State::zero(1);
        s.apply(&gates::h(), &[0]);
        assert_eq!(s.sample_with(0.0), 0);
        assert_eq!(s.sample_with(0.75), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn duplicate_targets_panic() {
        let mut s = State::zero(2);
        s.apply(&gates::cx(), &[0, 0]);
    }

    fn assert_states_close(a: &State, b: &State, tol: f64) {
        let d = a
            .amplitudes()
            .iter()
            .zip(b.amplitudes())
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max);
        assert!(d <= tol, "states differ by {d}");
    }

    #[test]
    fn kernels_match_reference_on_mixed_gates() {
        let n = 6;
        let mut fast = State::zero(n);
        let mut slow = State::zero(n);
        let ops: Vec<(Matrix, Vec<usize>)> = vec![
            (gates::h(), vec![0]),
            (gates::h(), vec![3]),
            (gates::u3(0.4, -1.1, 2.0), vec![5]),
            (gates::cx(), vec![0, 4]),
            (gates::cz(), vec![5, 1]),
            (gates::swap(), vec![2, 3]),
            (gates::crz(0.9), vec![4, 2]),
            (gates::ccz(), vec![1, 3, 5]),
            (gates::ccx(), vec![5, 0, 2]),
            (gates::cnz(3), vec![0, 1, 2, 3]),
            (gates::h().kron(&gates::rx(0.3)), vec![4, 1]),
        ];
        for (gate, targets) in &ops {
            fast.apply(gate, targets);
            slow.apply_reference(gate, targets);
            assert_states_close(&fast, &slow, 1e-12);
        }
    }

    #[test]
    fn threshold_sized_register_matches_reference() {
        // 2^16 amplitudes: at the scoped-thread threshold, so this walks the
        // chunked dispatch path end to end.
        let n = 16;
        let mut fast = State::zero(n);
        let mut slow = State::zero(n);
        for q in [0usize, 7, 15] {
            fast.apply(&gates::h(), &[q]);
            slow.apply_reference(&gates::h(), &[q]);
        }
        fast.apply(&gates::cx(), &[0, 15]);
        slow.apply_reference(&gates::cx(), &[0, 15]);
        fast.apply(&gates::swap(), &[3, 12]);
        slow.apply_reference(&gates::swap(), &[3, 12]);
        assert_states_close(&fast, &slow, 1e-12);
        assert!((fast.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn score_phases_match_per_amplitude_polar_products() {
        let n = 7;
        let mut start = State::zero(n);
        for q in 0..n {
            start.apply(&gates::u3(0.3 + q as f64, 0.2, -0.1), &[q]);
        }
        let theta = 0.7;
        // Small scores index the dense table; 2^40-scale ones the map.
        for scale in [1u64, 1 << 40] {
            let scores: Vec<u64> = (0..1u64 << n).map(|i| (i * 37 % 11) * scale).collect();
            let mut fused = start.clone();
            fused.apply_score_phases(theta, &scores);
            for ((a, b), &s) in fused
                .amplitudes()
                .iter()
                .zip(start.amplitudes())
                .zip(&scores)
            {
                assert_eq!(*a, *b * Complex::from_polar(-theta * s as f64));
            }
        }
    }

    #[test]
    fn unitarity_preserves_norm() {
        let mut s = State::zero(4);
        for q in 0..4 {
            s.apply(&gates::h(), &[q]);
        }
        s.apply(&gates::ccz(), &[0, 2, 3]);
        s.apply(&gates::cz(), &[1, 3]);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }
}
