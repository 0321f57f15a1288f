//! Max-3SAT formula representation.

use std::fmt;

/// A literal: a variable index with optional negation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit {
    /// Zero-based variable index.
    pub var: usize,
    /// Whether the literal is negated (`¬x`).
    pub negated: bool,
}

impl Lit {
    /// Positive literal `x_var`.
    pub fn pos(var: usize) -> Self {
        Lit {
            var,
            negated: false,
        }
    }

    /// Negative literal `¬x_var`.
    pub fn neg(var: usize) -> Self {
        Lit { var, negated: true }
    }

    /// Converts from DIMACS encoding (1-based, sign = negation).
    ///
    /// # Panics
    ///
    /// Panics if `code == 0`.
    pub fn from_dimacs(code: i64) -> Self {
        assert!(code != 0, "DIMACS literal cannot be 0");
        Lit {
            var: (code.unsigned_abs() as usize) - 1,
            negated: code < 0,
        }
    }

    /// Converts to DIMACS encoding.
    pub fn to_dimacs(self) -> i64 {
        let v = (self.var + 1) as i64;
        if self.negated {
            -v
        } else {
            v
        }
    }

    /// Evaluates the literal under an assignment (indexed by variable).
    pub fn eval(self, assignment: &[bool]) -> bool {
        assignment[self.var] ^ self.negated
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "¬x{}", self.var)
        } else {
            write!(f, "x{}", self.var)
        }
    }
}

/// A clause: a disjunction of up to three literals over distinct variables,
/// optionally weighted (weighted MAX-SAT) or hard (partial MAX-SAT).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Clause {
    lits: Vec<Lit>,
    weight: u64,
    hard: bool,
}

impl Clause {
    /// Creates a (soft, weight-1) clause from literals.
    ///
    /// # Panics
    ///
    /// Panics if empty, longer than 3, or if a variable repeats.
    pub fn new(lits: Vec<Lit>) -> Self {
        Self::weighted(lits, 1)
    }

    /// Creates a soft clause with the given weight.
    ///
    /// # Panics
    ///
    /// Panics on the literal conditions of [`Clause::new`], on `weight == 0`,
    /// and on `weight == u64::MAX` (reserved for the hard-clause sentinel in
    /// canonical byte encodings).
    pub fn weighted(lits: Vec<Lit>, weight: u64) -> Self {
        assert!(weight > 0, "clause weight must be positive");
        assert!(weight < u64::MAX, "clause weight u64::MAX is reserved");
        assert!(!lits.is_empty(), "clause cannot be empty");
        assert!(lits.len() <= 3, "Max-3SAT clauses have at most 3 literals");
        for (i, l) in lits.iter().enumerate() {
            assert!(
                !lits[..i].iter().any(|m| m.var == l.var),
                "variable x{} repeats within a clause",
                l.var
            );
        }
        Clause {
            lits,
            weight,
            hard: false,
        }
    }

    /// Creates a hard clause (partial MAX-SAT: must be satisfied).
    ///
    /// # Panics
    ///
    /// Panics on the literal conditions of [`Clause::new`].
    pub fn hard(lits: Vec<Lit>) -> Self {
        let mut c = Self::weighted(lits, 1);
        c.hard = true;
        c
    }

    /// The soft weight (1 unless built via [`Clause::weighted`]).
    /// Meaningless for hard clauses — see [`Formula::effective_weight`].
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Whether the clause is hard (must be satisfied).
    pub fn is_hard(&self) -> bool {
        self.hard
    }

    /// The literals of the clause.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// The distinct variables of the clause.
    pub fn vars(&self) -> impl Iterator<Item = usize> + '_ {
        self.lits.iter().map(|l| l.var)
    }

    /// Whether this clause shares a variable with another.
    pub fn intersects(&self, other: &Clause) -> bool {
        self.lits
            .iter()
            .any(|a| other.lits.iter().any(|b| a.var == b.var))
    }

    /// Evaluates the clause under an assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.lits.iter().any(|l| l.eval(assignment))
    }

    /// Number of negated literals.
    pub fn num_negated(&self) -> usize {
        self.lits.iter().filter(|l| l.negated).count()
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ")")
    }
}

/// A Max-3SAT formula: maximize the number of satisfied clauses.
#[derive(Clone, Debug, PartialEq)]
pub struct Formula {
    num_vars: usize,
    clauses: Vec<Clause>,
}

impl Formula {
    /// Creates a formula over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if any clause references a variable `≥ num_vars`.
    pub fn new(num_vars: usize, clauses: Vec<Clause>) -> Self {
        for c in &clauses {
            for v in c.vars() {
                assert!(v < num_vars, "clause references x{v} ≥ num_vars {num_vars}");
            }
        }
        Formula { num_vars, clauses }
    }

    /// Number of variables (= qubits when compiled to QAOA).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Whether any clause carries a non-unit weight or is hard. Uniform
    /// (weight-1, all-soft) formulas — everything the paper evaluates —
    /// report `false` and behave exactly as before weights existed.
    pub fn is_weighted(&self) -> bool {
        self.clauses.iter().any(|c| c.is_hard() || c.weight() != 1)
    }

    /// Sum of the soft clause weights.
    pub fn soft_weight_sum(&self) -> u64 {
        self.clauses
            .iter()
            .filter(|c| !c.is_hard())
            .map(Clause::weight)
            .sum()
    }

    /// The weight that makes violating a hard clause dominate every soft
    /// trade-off: one more than the total soft weight (the standard partial
    /// MAX-SAT penalty encoding).
    pub fn hard_clause_weight(&self) -> u64 {
        self.soft_weight_sum() + 1
    }

    /// The weight clause `index` contributes to the objective: its soft
    /// weight, or [`Formula::hard_clause_weight`] if it is hard.
    pub fn effective_weight(&self, index: usize) -> u64 {
        let c = &self.clauses[index];
        if c.is_hard() {
            self.hard_clause_weight()
        } else {
            c.weight()
        }
    }

    /// The maximum achievable objective: sum of all effective weights.
    /// Equals [`Formula::num_clauses`] for unweighted formulas.
    pub fn total_weight(&self) -> u64 {
        (0..self.clauses.len())
            .map(|i| self.effective_weight(i))
            .sum()
    }

    /// Canonical byte serialization for content addressing (the batch
    /// engine's artifact-cache keys): the sizes followed by every clause's
    /// length and literals as little-endian DIMACS codes. Two formulas
    /// produce the same bytes iff they are structurally identical — clause
    /// order, literal order, and polarity included. Weighted formulas append
    /// a tagged weights section (hard clauses encode as `u64::MAX`);
    /// weight-1 formulas serialize byte-identically to the pre-weights
    /// format, so existing artifact-cache keys are preserved.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.clauses.len() * 32);
        out.extend((self.num_vars as u64).to_le_bytes());
        out.extend((self.clauses.len() as u64).to_le_bytes());
        for clause in &self.clauses {
            out.extend((clause.lits().len() as u64).to_le_bytes());
            for lit in clause.lits() {
                out.extend(lit.to_dimacs().to_le_bytes());
            }
        }
        if self.is_weighted() {
            out.extend(b"weights\0");
            for clause in &self.clauses {
                let code = if clause.is_hard() {
                    u64::MAX
                } else {
                    clause.weight()
                };
                out.extend(code.to_le_bytes());
            }
        }
        out
    }

    /// Number of clauses satisfied by an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_vars`.
    pub fn count_satisfied(&self, assignment: &[bool]) -> usize {
        assert_eq!(
            assignment.len(),
            self.num_vars,
            "assignment length mismatch"
        );
        self.clauses.iter().filter(|c| c.eval(assignment)).count()
    }

    /// Decodes a measurement bitstring (qubit 0 = most significant bit, the
    /// workspace convention) into an assignment and counts satisfied clauses.
    pub fn count_satisfied_by_index(&self, basis_index: usize) -> usize {
        let assignment: Vec<bool> = (0..self.num_vars)
            .map(|q| (basis_index >> (self.num_vars - 1 - q)) & 1 == 1)
            .collect();
        self.count_satisfied(&assignment)
    }

    /// Total effective weight of the clauses satisfied by an assignment —
    /// the weighted MAX-SAT objective. Equals [`Formula::count_satisfied`]
    /// for unweighted formulas.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_vars`.
    pub fn satisfied_weight(&self, assignment: &[bool]) -> u64 {
        assert_eq!(
            assignment.len(),
            self.num_vars,
            "assignment length mismatch"
        );
        let hard = self.hard_clause_weight();
        self.clauses
            .iter()
            .filter(|c| c.eval(assignment))
            .map(|c| if c.is_hard() { hard } else { c.weight() })
            .sum()
    }

    /// Decodes a measurement bitstring (qubit 0 = most significant bit) and
    /// scores it with [`Formula::satisfied_weight`].
    pub fn weight_satisfied_by_index(&self, basis_index: usize) -> u64 {
        let assignment: Vec<bool> = (0..self.num_vars)
            .map(|q| (basis_index >> (self.num_vars - 1 - q)) & 1 == 1)
            .collect();
        self.satisfied_weight(&assignment)
    }

    /// The clause-score table: entry `i` is
    /// [`Formula::weight_satisfied_by_index`]`(i)` for every basis index
    /// `0..2^n` (the satisfied-clause count for unweighted formulas).
    ///
    /// Bit-parallel: 64 consecutive indices form one word. Variable `q` is
    /// index bit `n − 1 − q`, so the low six bits vary across a word's lanes
    /// as fixed patterns and the others are constant within it. A clause is
    /// then one lane mask per word, and its weight is added to the lanes it
    /// satisfies in a bit-sliced counter; a clause a constant literal
    /// satisfies adds to all lanes at once.
    ///
    /// # Panics
    ///
    /// Panics if `2^n` indices cannot be addressed.
    ///
    /// # Examples
    ///
    /// ```
    /// use weaver_sat::generator;
    /// let f = generator::weighted_instance(8, 1);
    /// let table = f.satisfied_weight_table();
    /// assert_eq!(table.len(), 256);
    /// assert!((0..256).all(|i| table[i] == f.weight_satisfied_by_index(i)));
    /// ```
    pub fn satisfied_weight_table(&self) -> Vec<u64> {
        /// Lanes of a 64-index word whose index bit `b` is set, for `b < 6`.
        const LANE_BITS: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        /// A clause split at the word boundary: it holds on every lane when
        /// `word_base & high_bits != high_false` (a literal over the high
        /// index bits is true), else on the lanes of `low`.
        struct WordClause {
            weight: u64,
            high_bits: usize,
            high_false: usize,
            low: u64,
        }
        let n = self.num_vars;
        assert!(n < usize::BITS as usize, "2^{n} basis indices");
        let hard = self.hard_clause_weight();
        let clauses: Vec<WordClause> = self
            .clauses
            .iter()
            .map(|clause| {
                let mut c = WordClause {
                    weight: if clause.is_hard() {
                        hard
                    } else {
                        clause.weight()
                    },
                    high_bits: 0,
                    high_false: 0,
                    low: 0,
                };
                for lit in clause.lits() {
                    let bit = n - 1 - lit.var;
                    if bit < LANE_BITS.len() {
                        c.low |= if lit.negated {
                            !LANE_BITS[bit]
                        } else {
                            LANE_BITS[bit]
                        };
                    } else {
                        c.high_bits |= 1 << bit;
                        if lit.negated {
                            c.high_false |= 1 << bit;
                        }
                    }
                }
                c
            })
            .collect();
        let mut table = vec![0u64; 1 << n];
        // Bit-sliced per-lane sums: bit `lane` of `slices[level]` is bit
        // `level` of that lane's sum. Sums never exceed the total weight.
        let mut slices = [0u64; 64];
        for (word, lanes) in table.chunks_mut(64).enumerate() {
            let base = word * 64;
            let mut uniform = 0u64;
            let mut levels = 0;
            for c in &clauses {
                let mask = if base & c.high_bits != c.high_false {
                    !0
                } else {
                    c.low
                };
                if mask == !0 {
                    uniform += c.weight;
                    continue;
                }
                // Ripple-carry each set bit of the weight into the lanes.
                let mut rest = if mask == 0 { 0 } else { c.weight };
                while rest != 0 {
                    let mut level = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let mut carry = mask;
                    while carry != 0 {
                        let next = slices[level] & carry;
                        slices[level] ^= carry;
                        carry = next;
                        level += 1;
                    }
                    levels = levels.max(level);
                }
            }
            lanes.fill(uniform);
            for (level, &slice) in slices[..levels].iter().enumerate() {
                for (lane, sum) in lanes.iter_mut().enumerate() {
                    *sum += ((slice >> lane) & 1) << level;
                }
            }
            slices[..levels].fill(0);
        }
        table
    }

    /// Encodes a max-cut instance as weighted MAX-SAT: an edge `(u, v)` is
    /// cut iff `u ≠ v`, i.e. both `(u ∨ v)` and `(¬u ∨ ¬v)` hold. A cut
    /// edge satisfies both clauses, an uncut edge exactly one — maximizing
    /// the satisfied weight maximizes the cut. Weight-1 edges produce
    /// weight-1 clauses, so an unweighted graph lowers to an unweighted
    /// formula.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, zero weights, or vertices `≥ num_vertices`.
    pub fn max_cut(num_vertices: usize, edges: &[(usize, usize, u64)]) -> Self {
        let mut clauses = Vec::with_capacity(edges.len() * 2);
        for &(u, v, w) in edges {
            assert!(u != v, "self-loop on vertex {u}");
            clauses.push(Clause::weighted(vec![Lit::pos(u), Lit::pos(v)], w));
            clauses.push(Clause::weighted(vec![Lit::neg(u), Lit::neg(v)], w));
        }
        Formula::new(num_vertices, clauses)
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of paper Fig. 5:
    /// (¬x0 ∨ ¬x1 ∨ ¬x2) ∧ (x3 ∨ ¬x4 ∨ x5) ∧ (x2 ∨ x4 ∨ ¬x5)
    pub(crate) fn paper_example() -> Formula {
        Formula::new(
            6,
            vec![
                Clause::new(vec![Lit::neg(0), Lit::neg(1), Lit::neg(2)]),
                Clause::new(vec![Lit::pos(3), Lit::neg(4), Lit::pos(5)]),
                Clause::new(vec![Lit::pos(2), Lit::pos(4), Lit::neg(5)]),
            ],
        )
    }

    #[test]
    fn literal_dimacs_roundtrip() {
        for code in [-5i64, -1, 1, 7] {
            assert_eq!(Lit::from_dimacs(code).to_dimacs(), code);
        }
    }

    #[test]
    fn literal_eval() {
        let a = [true, false];
        assert!(Lit::pos(0).eval(&a));
        assert!(!Lit::neg(0).eval(&a));
        assert!(!Lit::pos(1).eval(&a));
        assert!(Lit::neg(1).eval(&a));
    }

    #[test]
    fn clause_eval_and_intersection() {
        let f = paper_example();
        let c = f.clauses();
        assert!(c[0].intersects(&c[2])); // share x2
        assert!(!c[0].intersects(&c[1]));
        assert!(c[1].intersects(&c[2])); // share x4, x5

        // all-false satisfies every clause: ¬x0 in c0, ¬x4 in c1, ¬x5 in c2.
        let all_false = vec![false; 6];
        assert_eq!(f.count_satisfied(&all_false), 3);
    }

    #[test]
    fn satisfying_assignment_found() {
        let f = paper_example();
        // x = [F, F, F, T, F, F]: c0 sat (¬x0), c1 sat (x3), c2 sat (¬x5)
        let a = [false, false, false, true, false, false];
        assert_eq!(f.count_satisfied(&a), 3);
    }

    #[test]
    fn bitstring_decoding_msb_first() {
        let f = paper_example();
        // index 0b000100 = x3 true only → 3 satisfied (see above)
        assert_eq!(f.count_satisfied_by_index(0b000100), 3);
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn duplicate_variable_in_clause_panics() {
        Clause::new(vec![Lit::pos(1), Lit::neg(1)]);
    }

    #[test]
    #[should_panic(expected = "num_vars")]
    fn out_of_range_variable_panics() {
        Formula::new(2, vec![Clause::new(vec![Lit::pos(5)])]);
    }

    #[test]
    fn display_formats() {
        let f = paper_example();
        let s = f.to_string();
        assert!(s.contains("¬x0"));
        assert!(s.contains("∧"));
    }

    #[test]
    fn canonical_bytes_distinguish_structure() {
        let f = paper_example();
        let same = Formula::new(f.num_vars(), f.clauses().to_vec());
        assert_eq!(f.canonical_bytes(), same.canonical_bytes());
        // Polarity flip of one literal changes the bytes.
        let mut clauses = f.clauses().to_vec();
        let lits: Vec<Lit> = clauses[0]
            .lits()
            .iter()
            .enumerate()
            .map(|(i, l)| {
                if i == 0 {
                    Lit::from_dimacs(-l.to_dimacs())
                } else {
                    *l
                }
            })
            .collect();
        clauses[0] = Clause::new(lits);
        let flipped = Formula::new(f.num_vars(), clauses);
        assert_ne!(f.canonical_bytes(), flipped.canonical_bytes());
        // Extra unused variable changes the bytes too.
        let widened = Formula::new(f.num_vars() + 1, f.clauses().to_vec());
        assert_ne!(f.canonical_bytes(), widened.canonical_bytes());
    }

    #[test]
    fn weight_one_formula_is_not_weighted_and_bytes_unchanged() {
        let f = paper_example();
        assert!(!f.is_weighted());
        // weight-1 via Clause::weighted is indistinguishable from Clause::new
        let explicit = Formula::new(
            f.num_vars(),
            f.clauses()
                .iter()
                .map(|c| Clause::weighted(c.lits().to_vec(), 1))
                .collect(),
        );
        assert_eq!(f.canonical_bytes(), explicit.canonical_bytes());
        assert_eq!(f.total_weight(), f.num_clauses() as u64);
    }

    #[test]
    fn weighted_objective_and_hard_penalty() {
        let f = Formula::new(
            2,
            vec![
                Clause::weighted(vec![Lit::pos(0)], 3),
                Clause::weighted(vec![Lit::pos(1)], 5),
                Clause::hard(vec![Lit::neg(0), Lit::neg(1)]),
            ],
        );
        assert!(f.is_weighted());
        assert_eq!(f.soft_weight_sum(), 8);
        assert_eq!(f.hard_clause_weight(), 9);
        assert_eq!(f.effective_weight(2), 9);
        assert_eq!(f.total_weight(), 17);
        // x0=T, x1=F: clause 0 (w=3) and the hard clause (w=9) hold.
        assert_eq!(f.satisfied_weight(&[true, false]), 12);
        assert_eq!(f.weight_satisfied_by_index(0b10), 12);
        // Unweighted counting still sees 2 of 3 clauses.
        assert_eq!(f.count_satisfied(&[true, false]), 2);
    }

    #[test]
    fn weights_change_canonical_bytes() {
        let f = paper_example();
        let mut clauses = f.clauses().to_vec();
        clauses[0] = Clause::weighted(clauses[0].lits().to_vec(), 2);
        let weighted = Formula::new(f.num_vars(), clauses.clone());
        assert_ne!(f.canonical_bytes(), weighted.canonical_bytes());
        clauses[0] = Clause::hard(clauses[0].lits().to_vec());
        let hardened = Formula::new(f.num_vars(), clauses);
        assert_ne!(weighted.canonical_bytes(), hardened.canonical_bytes());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_panics() {
        Clause::weighted(vec![Lit::pos(0)], 0);
    }

    #[test]
    fn max_cut_encoding_scores_cuts() {
        // Triangle with one heavy edge: best cut takes both heavy sides.
        let f = Formula::max_cut(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 4)]);
        assert_eq!(f.num_clauses(), 6);
        // Partition {0} vs {1, 2}: cuts edges (0,1) and (0,2) → weight 5.
        // Objective = cut weight + total edge weight (uncut edges satisfy
        // one of their two clauses).
        assert_eq!(f.satisfied_weight(&[true, false, false]), 5 + 6);
        // Uncut everything: every edge satisfies exactly one clause.
        assert_eq!(f.satisfied_weight(&[false, false, false]), 6);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn max_cut_rejects_self_loops() {
        Formula::max_cut(2, &[(1, 1, 1)]);
    }

    #[test]
    fn score_table_matches_per_index_scoring() {
        let hard_mix = Formula::new(
            2,
            vec![
                Clause::weighted(vec![Lit::pos(0)], 3),
                Clause::weighted(vec![Lit::pos(1)], 5),
                Clause::hard(vec![Lit::neg(0), Lit::neg(1)]),
            ],
        );
        let mut formulas = vec![Formula::new(0, vec![]), hard_mix, paper_example()];
        for n in [3, 5, 6, 7, 9] {
            formulas.push(crate::generator::instance(n, 1));
            formulas.push(crate::generator::weighted_instance(n, 2));
        }
        for f in &formulas {
            let table = f.satisfied_weight_table();
            assert_eq!(table.len(), 1 << f.num_vars());
            for (i, &score) in table.iter().enumerate() {
                assert_eq!(score, f.weight_satisfied_by_index(i), "{f} at {i}");
            }
        }
    }
}
