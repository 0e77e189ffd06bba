//! Density-matrix representation of a small qubit register.
//!
//! Everything the link layer touches — electron and carbon spins at the
//! two nodes, photonic presence/absence qubits in flight to the heralding
//! station — lives in registers of at most a few qubits, so an explicit
//! density matrix (dimension `2^n ≤ 16`) is exact, simple, and fast
//! enough. Noise is expressed as Kraus maps, measurements as POVMs,
//! exactly mirroring Appendix D of the paper.
//!
//! An operator on `k` target qubits is applied block by block: it mixes
//! only basis indices that agree outside the target bits, so `Kρ` reads
//! and writes the rows of one such block at a time and `(Kρ)K†` the
//! columns, and no `2^n × 2^n` operator is built. Every value is bit for
//! bit what multiplying the expanded operator densely gives, which holds
//! by four rules:
//!
//! 1. a block's members are visited in ascending *register* index, the
//!    order the dense product sums in — not in the operator's own index
//!    order, which differs for targets like `[1, 0]`;
//! 2. every accumulator starts at `ZERO` and uses the same `Complex`
//!    `*`, `+=` and `conj`;
//! 3. a term with a zero operator entry (of either sign) is skipped: the
//!    dense product adds it as a signed zero to an accumulator that
//!    starts at `+0` and can never become `−0`, which changes no bit —
//!    so each kernel gathers an operator row's nonzero entries once and
//!    its inner loops sum only those;
//! 4. each Kraus term is summed from zero and then added to the
//!    accumulator, and renormalisation scales by `Complex::real(1/t)`
//!    after the full trace.
//!
//! The kernels' scratch lives on the stack, sized for operators on at
//! most three qubits of a register of at most four, so applying an
//! operator touches the heap not at all.
//!
//! The dense path stays in the test build as the oracle the kernels are
//! compared against.

use qlink_des::DetRng;
use qlink_math::complex::{Complex, ONE, ZERO};
use qlink_math::CMatrix;
use std::fmt;

/// A measurement basis, as used by the MD use case and the QBER
/// estimate of eq. (16) (bases are labelled X, Y, Z in the paper's §A.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Basis {
    /// The `{|X,0⟩, |X,1⟩}` basis: `(|0⟩ ± |1⟩)/√2`.
    X,
    /// The `{|Y,0⟩, |Y,1⟩}` basis: `(|0⟩ ± i|1⟩)/√2`.
    Y,
    /// The computational (standard) basis `{|0⟩, |1⟩}`.
    Z,
}

impl Basis {
    /// The two basis kets `(|b,0⟩, |b,1⟩)` as column vectors.
    pub fn kets(self) -> (CMatrix, CMatrix) {
        let inv_sqrt2 = Complex::real(std::f64::consts::FRAC_1_SQRT_2);
        match self {
            Basis::Z => (
                CMatrix::col_vector(&[ONE, ZERO]),
                CMatrix::col_vector(&[ZERO, ONE]),
            ),
            Basis::X => (
                CMatrix::col_vector(&[inv_sqrt2, inv_sqrt2]),
                CMatrix::col_vector(&[inv_sqrt2, -inv_sqrt2]),
            ),
            Basis::Y => (
                CMatrix::col_vector(&[inv_sqrt2, Complex::new(0.0, 1.0) * inv_sqrt2]),
                CMatrix::col_vector(&[inv_sqrt2, Complex::new(0.0, -1.0) * inv_sqrt2]),
            ),
        }
    }

    /// Rank-1 projectors `(|b,0⟩⟨b,0|, |b,1⟩⟨b,1|)`.
    pub fn projectors(self) -> (CMatrix, CMatrix) {
        let (k0, k1) = self.kets();
        (&k0 * &k0.adjoint(), &k1 * &k1.adjoint())
    }

    /// The Pauli observable whose ±1 eigenbasis this is.
    pub fn observable(self) -> CMatrix {
        match self {
            Basis::X => crate::gates::x(),
            Basis::Y => crate::gates::y(),
            Basis::Z => crate::gates::z(),
        }
    }

    /// All three bases, in the paper's X, Z, Y listing order.
    pub const ALL: [Basis; 3] = [Basis::X, Basis::Z, Basis::Y];
}

/// Errors from constructing a [`QuantumState`] out of raw matrices.
#[derive(Debug, Clone, PartialEq)]
pub enum StateError {
    /// The matrix is not square or its dimension is not a power of two.
    BadDimension,
    /// `Tr ρ` differs from 1 beyond tolerance.
    NotNormalized(f64),
    /// `ρ ≠ ρ†` beyond tolerance.
    NotHermitian,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::BadDimension => write!(f, "dimension is not a power of two"),
            StateError::NotNormalized(t) => write!(f, "trace = {t}, expected 1"),
            StateError::NotHermitian => write!(f, "matrix is not Hermitian"),
        }
    }
}

impl std::error::Error for StateError {}

/// The largest register the operator kernels take: every register the
/// link layer builds — two arms, two pairs, a pair and a data qubit —
/// has at most four qubits.
const MAX_QUBITS: usize = 4;
/// The most qubits one operator acts on (the link layer's act on two).
const MAX_TARGETS: usize = 3;
/// `2^MAX_QUBITS`: the most rows a register has.
const MAX_DIM: usize = 1 << MAX_QUBITS;
/// `2^MAX_TARGETS`: the most members a block has.
const MAX_MEMBERS: usize = 1 << MAX_TARGETS;

/// Runs `f` on `len ≤ 2 · 4^MAX_QUBITS` zeros on the stack: the scratch
/// of a kernel, only two 4×4 matrices' worth when that is enough (a
/// pair, an arm), since zeroing is most of a small kernel's cost.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Complex]) -> R) -> R {
    const SMALL: usize = 2 * 4 * 4;
    if len <= SMALL {
        f(&mut [ZERO; SMALL][..len])
    } else {
        f(&mut [ZERO; 2 * MAX_DIM * MAX_DIM][..len])
    }
}

/// The nonzero entries of one operator row as `(index, entry)` in
/// member order: the only terms a product sums (rule 3), gathered once
/// per row so no inner loop tests an entry again.
struct Terms {
    len: usize,
    terms: [(usize, Complex); MAX_MEMBERS],
}

impl Terms {
    fn gather(entries: impl Iterator<Item = (usize, Complex)>) -> Self {
        let mut out = Terms {
            len: 0,
            terms: [(0, ZERO); MAX_MEMBERS],
        };
        for (index, a) in entries {
            if a != ZERO {
                out.terms[out.len] = (index, a);
                out.len += 1;
            }
        }
        out
    }

    fn as_slice(&self) -> &[(usize, Complex)] {
        &self.terms[..self.len]
    }
}

/// The basis indices an operator on some target qubits mixes.
///
/// Two indices meet in a product with the expanded operator only if they
/// agree outside the target bits, so a `2^n` register splits into
/// `2^(n−k)` blocks of `2^k` indices, each block a copy of the operator.
/// A block is one of `bases` (target bits clear) plus one of `members`'
/// offsets.
struct Blocks {
    dim: usize,
    /// `(offset, operator index)` of every block member, by ascending
    /// offset: the register order the dense product sums in.
    members: [(usize, usize); MAX_MEMBERS],
    size: usize,
    /// Base index of every block, ascending (at least one target bit
    /// is clear in each).
    bases: [usize; MAX_DIM / 2],
    count: usize,
}

impl Blocks {
    /// # Panics
    /// Panics on no, out-of-range or duplicate targets, more than
    /// [`MAX_TARGETS`] of them, or a register of more than
    /// [`MAX_QUBITS`] qubits.
    fn new(n: usize, targets: &[usize]) -> Self {
        assert!(!targets.is_empty(), "operator/target mismatch");
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < n, "target {t} out of range for {n}-qubit register");
            assert!(!targets[..i].contains(&t), "duplicate target {t}");
        }
        assert!(
            targets.len() <= MAX_TARGETS,
            "operators act on at most {MAX_TARGETS} qubits, not {}",
            targets.len()
        );
        assert!(
            n <= MAX_QUBITS,
            "operators act on registers of at most {MAX_QUBITS} qubits, not {n}"
        );
        let bit = |t: usize| 1usize << (n - 1 - t);
        let mask = targets.iter().fold(0, |m, &t| m | bit(t));
        let mut blocks = Blocks {
            dim: 1 << n,
            members: [(0, 0); MAX_MEMBERS],
            size: 0,
            bases: [0; MAX_DIM / 2],
            count: 0,
        };
        // `(s − m) & m` steps through the subsets of `m` in ascending
        // order, from 0 back round to 0: the members are the subsets of
        // the target bits, the bases those of the rest.
        let mut offset = 0usize;
        loop {
            // The operator's first target is its most significant bit.
            let index = targets
                .iter()
                .fold(0, |idx, &t| (idx << 1) | usize::from(offset & bit(t) != 0));
            blocks.members[blocks.size] = (offset, index);
            blocks.size += 1;
            offset = offset.wrapping_sub(mask) & mask;
            if offset == 0 {
                break;
            }
        }
        let rest = (blocks.dim - 1) & !mask;
        let mut base = 0usize;
        loop {
            blocks.bases[blocks.count] = base;
            blocks.count += 1;
            base = base.wrapping_sub(rest) & rest;
            if base == 0 {
                break;
            }
        }
        blocks
    }

    fn members(&self) -> &[(usize, usize)] {
        &self.members[..self.size]
    }

    fn bases(&self) -> &[usize] {
        &self.bases[..self.count]
    }

    /// # Panics
    /// Panics unless `op` is `2^k × 2^k`.
    fn check(&self, op: &CMatrix) {
        assert!(
            op.rows() == self.size && op.cols() == self.size,
            "operator/target mismatch"
        );
    }

    /// The nonzero entries `f(op[row, ·])` of one operator row, by
    /// register offset.
    fn row(&self, op: &CMatrix, row: usize, f: impl Fn(Complex) -> Complex) -> Terms {
        Terms::gather(
            self.members()
                .iter()
                .map(|&(offset, col)| (offset, f(op[(row, col)]))),
        )
    }

    /// `out ← Oρ`: a row of the product reads only the rows of its block,
    /// each scaled by one operator entry and added in member order.
    fn left(&self, op: &CMatrix, rho: &[Complex], out: &mut [Complex]) {
        self.check(op);
        let dim = self.dim;
        for &(row_offset, row) in self.members() {
            let terms = self.row(op, row, |a| a);
            for &base in self.bases() {
                let out_row = &mut out[(base + row_offset) * dim..][..dim];
                out_row.fill(ZERO);
                for &(offset, a) in terms.as_slice() {
                    let rho_row = &rho[(base + offset) * dim..][..dim];
                    for (entry, &z) in out_row.iter_mut().zip(rho_row) {
                        *entry += a * z;
                    }
                }
            }
        }
    }

    /// `out ← merge(out, LO†)` entry by entry: a column of the product
    /// reads only the columns of its block.
    fn right_adjoint(
        &self,
        op: &CMatrix,
        left: &[Complex],
        out: &mut [Complex],
        merge: impl Fn(Complex, Complex) -> Complex,
    ) {
        let dim = self.dim;
        for &(col_offset, col) in self.members() {
            let terms = self.row(op, col, Complex::conj);
            for (left_row, out_row) in left.chunks_exact(dim).zip(out.chunks_exact_mut(dim)) {
                for &base in self.bases() {
                    let mut acc = ZERO;
                    for &(offset, a) in terms.as_slice() {
                        acc += left_row[base + offset] * a;
                    }
                    let entry = &mut out_row[base + col_offset];
                    *entry = merge(*entry, acc);
                }
            }
        }
    }

    /// `Tr(Oρ)` for the operator whose row at member position `p` has
    /// the nonzero entries `row(p)`, summed over the diagonal in
    /// register order.
    fn trace(&self, rho: &CMatrix, row: impl Fn(usize) -> Terms) -> Complex {
        let dim = self.dim;
        let rho = rho.as_slice();
        let mut diagonal = [ZERO; MAX_DIM];
        for (p, &(row_offset, _)) in self.members().iter().enumerate() {
            let terms = row(p);
            for &base in self.bases() {
                let i = base + row_offset;
                let mut acc = ZERO;
                for &(offset, a) in terms.as_slice() {
                    acc += a * rho[(base + offset) * dim + i];
                }
                diagonal[i] = acc;
            }
        }
        diagonal[..dim].iter().copied().sum()
    }

    /// `Tr(Oρ)`.
    fn trace_product(&self, op: &CMatrix, rho: &CMatrix) -> Complex {
        self.check(op);
        self.trace(rho, |p| self.row(op, self.members()[p].1, |a| a))
    }

    /// `Tr(K†Kρ)`, with `K†K` summed in register order one row at a
    /// time: row `p` of `K†` is column `p` of `K`, conjugated.
    fn trace_gram(&self, k: &CMatrix, rho: &CMatrix) -> Complex {
        self.check(k);
        let members = self.members();
        self.trace(rho, |p| {
            let col_p = members[p].1;
            let adjoint_row = Terms::gather(
                members
                    .iter()
                    .map(|&(_, row)| (row, k[(row, col_p)].conj())),
            );
            Terms::gather(members.iter().map(|&(offset, col_q)| {
                let mut acc = ZERO;
                for &(row, a) in adjoint_row.as_slice() {
                    acc += a * k[(row, col_q)];
                }
                (offset, acc)
            }))
        })
    }
}

/// A mixed state of `n` qubits, stored as a `2^n × 2^n` density matrix.
///
/// Qubit 0 is the most significant bit of a basis index.
#[derive(Clone, PartialEq)]
pub struct QuantumState {
    n: usize,
    rho: CMatrix,
}

impl QuantumState {
    /// The all-zeros pure state `|0…0⟩⟨0…0|` on `n ≥ 1` qubits.
    pub fn ground(n: usize) -> Self {
        assert!(n >= 1, "need at least one qubit");
        let dim = 1usize << n;
        let mut rho = CMatrix::zeros(dim, dim);
        rho[(0, 0)] = ONE;
        QuantumState { n, rho }
    }

    /// A pure state from a (normalised) ket column vector.
    ///
    /// # Panics
    /// Panics if the ket length is not a power of two or the norm
    /// differs from 1 by more than 1e-9.
    pub fn from_ket(ket: &CMatrix) -> Self {
        assert_eq!(ket.cols(), 1, "ket must be a column vector");
        let dim = ket.rows();
        assert!(dim.is_power_of_two() && dim >= 2, "bad ket dimension {dim}");
        let norm: f64 = ket.as_slice().iter().map(|z| z.norm_sqr()).sum();
        assert!(
            (norm - 1.0).abs() < 1e-9,
            "ket not normalised: |ψ|² = {norm}"
        );
        QuantumState {
            n: dim.trailing_zeros() as usize,
            rho: ket * &ket.adjoint(),
        }
    }

    /// Wraps a density matrix, validating dimension, Hermiticity and trace.
    pub fn from_density(rho: CMatrix) -> Result<Self, StateError> {
        if !rho.is_square() || !rho.rows().is_power_of_two() || rho.rows() < 2 {
            return Err(StateError::BadDimension);
        }
        if !rho.is_hermitian(1e-9) {
            return Err(StateError::NotHermitian);
        }
        let t = rho.trace();
        if (t.re - 1.0).abs() > 1e-9 || t.im.abs() > 1e-9 {
            return Err(StateError::NotNormalized(t.re));
        }
        Ok(QuantumState {
            n: rho.rows().trailing_zeros() as usize,
            rho,
        })
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Hilbert-space dimension `2^n`.
    pub fn dim(&self) -> usize {
        1 << self.n
    }

    /// Borrow the underlying density matrix.
    pub fn density(&self) -> &CMatrix {
        &self.rho
    }

    /// `Tr ρ` (should be 1 up to numerical drift).
    pub fn trace(&self) -> f64 {
        self.rho.trace().re
    }

    /// Tensor product `self ⊗ other`; `other`'s qubits are appended
    /// after (less significant than) `self`'s.
    pub fn tensor(&self, other: &QuantumState) -> QuantumState {
        QuantumState {
            n: self.n + other.n,
            rho: self.rho.kron(&other.rho),
        }
    }

    /// `ρ ← OρO†`, in place: `Oρ` goes to scratch on the stack first.
    fn conjugate(&mut self, blocks: &Blocks, op: &CMatrix) {
        with_scratch(self.dim() * self.dim(), |left| {
            blocks.left(op, self.rho.as_slice(), left);
            blocks.right_adjoint(op, left, self.rho.as_mut_slice(), |_, term| term);
        });
    }

    /// Applies a unitary to the given target qubits (in the operator's
    /// own qubit order, most significant first): `ρ ← UρU†`.
    ///
    /// # Panics
    /// Panics on out-of-range or duplicate targets, an operator whose
    /// dimension does not match `targets.len()`, more than three
    /// targets, or a register of more than four qubits — as every
    /// operator method does.
    pub fn apply_unitary(&mut self, u: &CMatrix, targets: &[usize]) {
        self.conjugate(&Blocks::new(self.n, targets), u);
    }

    /// Applies a completely positive map given by Kraus operators on the
    /// target qubits: `ρ ← Σ_k K_k ρ K_k†`.
    ///
    /// The Kraus set should satisfy `Σ K†K = I`; trace is renormalised
    /// afterwards to absorb numerical drift.
    pub fn apply_kraus(&mut self, kraus: &[CMatrix], targets: &[usize]) {
        let blocks = Blocks::new(self.n, targets);
        let len = self.dim() * self.dim();
        with_scratch(2 * len, |scratch| {
            let (acc, left) = scratch.split_at_mut(len);
            for k in kraus {
                blocks.left(k, self.rho.as_slice(), left);
                blocks.right_adjoint(k, left, acc, |sum, term| sum + term);
            }
            self.rho.as_mut_slice().copy_from_slice(acc);
        });
        self.renormalize();
    }

    /// Probability that a POVM element `M` (acting on `targets`) fires:
    /// `Tr(Mρ)` clamped to `[0, 1]`.
    pub fn povm_probability(&self, m: &CMatrix, targets: &[usize]) -> f64 {
        Blocks::new(self.n, targets)
            .trace_product(m, &self.rho)
            .re
            .clamp(0.0, 1.0)
    }

    /// Probability that a measurement selects Kraus operator `K` (acting
    /// on `targets`): `Tr(K†Kρ)`, clamped below at 0. Only the diagonal
    /// of `K†Kρ` is formed.
    pub fn kraus_probability(&self, k: &CMatrix, targets: &[usize]) -> f64 {
        Blocks::new(self.n, targets)
            .trace_gram(k, &self.rho)
            .re
            .max(0.0)
    }

    /// Performs a generalized measurement described by Kraus operators
    /// on `targets`. Returns the sampled outcome index; the state
    /// collapses to `K_i ρ K_i† / p_i`.
    ///
    /// # Panics
    /// Panics if the outcome probabilities do not sum to ≈ 1.
    pub fn measure_kraus(
        &mut self,
        kraus: &[CMatrix],
        targets: &[usize],
        rng: &mut DetRng,
    ) -> usize {
        self.measure_kraus_given(kraus, targets, rng.uniform())
    }

    /// [`QuantumState::measure_kraus`] with the uniform draw `u` in
    /// `[0, 1)` supplied by the caller — lets hot paths batch their
    /// randomness (e.g. [`DetRng::uniform_batch`]) without
    /// changing which outcome any given draw selects.
    pub fn measure_kraus_given(&mut self, kraus: &[CMatrix], targets: &[usize], u: f64) -> usize {
        let blocks = Blocks::new(self.n, targets);
        let probs: Vec<f64> = kraus
            .iter()
            .map(|k| blocks.trace_gram(k, &self.rho).re.max(0.0))
            .collect();
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "measurement probabilities sum to {total}, not 1"
        );
        let mut draw = u * total;
        let mut outcome = probs.len() - 1;
        for (i, &p) in probs.iter().enumerate() {
            if draw < p {
                outcome = i;
                break;
            }
            draw -= p;
        }
        self.conjugate(&blocks, &kraus[outcome]);
        self.renormalize();
        outcome
    }

    /// Projectively measures one qubit in the given basis; returns 0 or 1.
    pub fn measure_qubit(&mut self, qubit: usize, basis: Basis, rng: &mut DetRng) -> u8 {
        let (p0, p1) = basis.projectors();
        self.measure_kraus(&[p0, p1], &[qubit], rng) as u8
    }

    /// [`QuantumState::measure_qubit`] with the uniform draw supplied
    /// by the caller (see [`QuantumState::measure_kraus_given`]).
    pub fn measure_qubit_given(&mut self, qubit: usize, basis: Basis, u: f64) -> u8 {
        let (p0, p1) = basis.projectors();
        self.measure_kraus_given(&[p0, p1], &[qubit], u) as u8
    }

    /// Expectation value `Tr(Oρ)` of a Hermitian observable `O` acting
    /// on `targets`.
    pub fn expectation(&self, observable: &CMatrix, targets: &[usize]) -> f64 {
        Blocks::new(self.n, targets)
            .trace_product(observable, &self.rho)
            .re
    }

    /// Partial trace keeping only the listed qubits (in their current
    /// order); all other qubits are traced out.
    ///
    /// # Panics
    /// Panics if `keep` is empty, out of range, contains duplicates, or
    /// is not sorted ascending.
    pub fn partial_trace(&self, keep: &[usize]) -> QuantumState {
        assert!(!keep.is_empty(), "must keep at least one qubit");
        for w in keep.windows(2) {
            assert!(
                w[0] < w[1],
                "keep list must be sorted ascending, no duplicates"
            );
        }
        assert!(*keep.last().unwrap() < self.n, "keep index out of range");
        let k = keep.len();
        let keep_shifts: Vec<usize> = keep.iter().map(|&q| self.n - 1 - q).collect();
        let traced: Vec<usize> = (0..self.n).filter(|q| !keep.contains(q)).collect();
        let traced_shifts: Vec<usize> = traced.iter().map(|&q| self.n - 1 - q).collect();
        let kd = 1usize << k;
        let td = 1usize << traced.len();
        let compose = |kept_idx: usize, traced_idx: usize| -> usize {
            let mut full = 0usize;
            for (pos, &s) in keep_shifts.iter().enumerate() {
                full |= ((kept_idx >> (k - 1 - pos)) & 1) << s;
            }
            for (pos, &s) in traced_shifts.iter().enumerate() {
                full |= ((traced_idx >> (traced.len() - 1 - pos)) & 1) << s;
            }
            full
        };
        let mut out = CMatrix::zeros(kd, kd);
        for r in 0..kd {
            for c in 0..kd {
                let mut sum = ZERO;
                for t in 0..td {
                    sum += self.rho[(compose(r, t), compose(c, t))];
                }
                out[(r, c)] = sum;
            }
        }
        QuantumState { n: k, rho: out }
    }

    /// Fidelity `⟨ψ|ρ|ψ⟩` against a pure target ket.
    ///
    /// This is the paper's fidelity (eq. (15)) for pure targets such as
    /// the Bell states — the only case the link layer needs.
    pub fn fidelity_pure(&self, ket: &CMatrix) -> f64 {
        assert_eq!(ket.cols(), 1, "target must be a ket");
        assert_eq!(ket.rows(), self.dim(), "target dimension mismatch");
        self.rho.expectation(ket).re.clamp(0.0, 1.0)
    }

    /// Rescales so that `Tr ρ = 1`, absorbing numerical drift.
    pub fn renormalize(&mut self) {
        let t = self.rho.trace().re;
        if t > 0.0 && (t - 1.0).abs() > f64::EPSILON {
            self.rho.scale_in_place(Complex::real(1.0 / t));
        }
    }

    /// `true` if `ρ` is Hermitian, unit trace, and PSD on a sample of
    /// probe vectors (cheap sanity used by tests and debug assertions).
    pub fn is_physical(&self, tol: f64) -> bool {
        if !self.rho.is_hermitian(tol) {
            return false;
        }
        if (self.trace() - 1.0).abs() > tol {
            return false;
        }
        // Diagonal entries of a PSD matrix are non-negative, and basis
        // probes catch the common failure modes at these dimensions.
        (0..self.dim()).all(|i| self.rho[(i, i)].re >= -tol)
    }
}

/// The dense path the block-local kernels replaced, unedited: every
/// operator expanded to `2^n × 2^n` and multiplied whole. It is the
/// oracle the kernels are compared against bit for bit.
#[cfg(test)]
impl QuantumState {
    /// Embeds a `2^k`-dimensional operator acting on `targets` (in the
    /// operator's own qubit order, most significant first) into the full
    /// `2^n`-dimensional space.
    ///
    /// # Panics
    /// Panics on out-of-range or duplicate targets, or an operator whose
    /// dimension does not match `targets.len()`.
    fn expand_operator(&self, op: &CMatrix, targets: &[usize]) -> CMatrix {
        let k = targets.len();
        assert!(
            k >= 1 && op.rows() == (1 << k) && op.cols() == (1 << k),
            "operator/target mismatch"
        );
        for (i, &t) in targets.iter().enumerate() {
            assert!(
                t < self.n,
                "target {t} out of range for {}-qubit register",
                self.n
            );
            assert!(!targets[..i].contains(&t), "duplicate target {t}");
        }
        let dim = self.dim();
        let mut out = CMatrix::zeros(dim, dim);
        // Positions (bit shifts) of the target qubits inside a basis index.
        let shifts: Vec<usize> = targets.iter().map(|&t| self.n - 1 - t).collect();
        let rest_mask: usize = {
            let mut m = dim - 1;
            for &s in &shifts {
                m &= !(1usize << s);
            }
            m
        };
        let sub = |full: usize| -> usize {
            let mut idx = 0;
            for (pos, &s) in shifts.iter().enumerate() {
                idx |= ((full >> s) & 1) << (k - 1 - pos);
            }
            idx
        };
        for i in 0..dim {
            let ti = sub(i);
            let ri = i & rest_mask;
            for j in 0..dim {
                if (j & rest_mask) != ri {
                    continue;
                }
                let v = op[(ti, sub(j))];
                if v != ZERO {
                    out[(i, j)] = v;
                }
            }
        }
        out
    }

    fn dense_apply_unitary(&mut self, u: &CMatrix, targets: &[usize]) {
        let full = self.expand_operator(u, targets);
        self.rho = &(&full * &self.rho) * &full.adjoint();
    }

    fn dense_apply_kraus(&mut self, kraus: &[CMatrix], targets: &[usize]) {
        let mut acc = CMatrix::zeros(self.dim(), self.dim());
        for k in kraus {
            let full = self.expand_operator(k, targets);
            let term = &(&full * &self.rho) * &full.adjoint();
            acc = &acc + &term;
        }
        self.rho = acc;
        self.renormalize();
    }

    fn dense_povm_probability(&self, m: &CMatrix, targets: &[usize]) -> f64 {
        let full = self.expand_operator(m, targets);
        (&full * &self.rho).trace().re.clamp(0.0, 1.0)
    }

    fn dense_kraus_probability(&self, k: &CMatrix, targets: &[usize]) -> f64 {
        let full = self.expand_operator(k, targets);
        (&(&full.adjoint() * &full) * &self.rho).trace().re.max(0.0)
    }

    fn dense_measure_kraus_given(&mut self, kraus: &[CMatrix], targets: &[usize], u: f64) -> usize {
        let fulls: Vec<CMatrix> = kraus
            .iter()
            .map(|k| self.expand_operator(k, targets))
            .collect();
        let probs: Vec<f64> = fulls
            .iter()
            .map(|f| (&(&f.adjoint() * f) * &self.rho).trace().re.max(0.0))
            .collect();
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "measurement probabilities sum to {total}, not 1"
        );
        let mut draw = u * total;
        let mut outcome = probs.len() - 1;
        for (i, &p) in probs.iter().enumerate() {
            if draw < p {
                outcome = i;
                break;
            }
            draw -= p;
        }
        let f = &fulls[outcome];
        self.rho = &(f * &self.rho) * &f.adjoint();
        self.renormalize();
        outcome
    }

    fn dense_expectation(&self, observable: &CMatrix, targets: &[usize]) -> f64 {
        let full = self.expand_operator(observable, targets);
        (&full * &self.rho).trace().re
    }
}

impl fmt::Debug for QuantumState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QuantumState({} qubits) {:?}", self.n, self.rho)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    fn rng() -> DetRng {
        DetRng::new(42)
    }

    #[test]
    fn ground_state_is_physical() {
        for n in 1..=4 {
            let s = QuantumState::ground(n);
            assert_eq!(s.num_qubits(), n);
            assert!(s.is_physical(1e-12));
            assert_eq!(s.density()[(0, 0)], ONE);
        }
    }

    #[test]
    fn x_flips_ground() {
        let mut s = QuantumState::ground(1);
        s.apply_unitary(&gates::x(), &[0]);
        assert!((s.density()[(1, 1)].re - 1.0).abs() < 1e-12);
        assert!(s.is_physical(1e-12));
    }

    #[test]
    fn expand_operator_on_chosen_qubit() {
        // X on qubit 1 of a 2-qubit register: |00⟩ → |01⟩.
        let mut s = QuantumState::ground(2);
        s.apply_unitary(&gates::x(), &[1]);
        assert!((s.density()[(1, 1)].re - 1.0).abs() < 1e-12);
        // X on qubit 0: |01⟩ → |11⟩.
        s.apply_unitary(&gates::x(), &[0]);
        assert!((s.density()[(3, 3)].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expand_operator_respects_target_order() {
        // CNOT with control=1, target=0 on |01⟩ gives |11⟩.
        let mut s = QuantumState::ground(2);
        s.apply_unitary(&gates::x(), &[1]); // |01⟩
        s.apply_unitary(&gates::cnot(), &[1, 0]); // control qubit 1
        assert!((s.density()[(3, 3)].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_via_h_cnot() {
        let mut s = QuantumState::ground(2);
        s.apply_unitary(&gates::h(), &[0]);
        s.apply_unitary(&gates::cnot(), &[0, 1]);
        // Φ+ has 1/2 in the four corners.
        let r = s.density();
        for (i, j) in [(0, 0), (0, 3), (3, 0), (3, 3)] {
            assert!((r[(i, j)].re - 0.5).abs() < 1e-12, "({i},{j})");
        }
        assert!(s.is_physical(1e-12));
    }

    #[test]
    fn measurement_statistics_plus_state() {
        // |+⟩ measured in Z: ≈50/50. Measured in X: always 0.
        let mut zeros = 0;
        let mut r = rng();
        for _ in 0..1000 {
            let mut s = QuantumState::ground(1);
            s.apply_unitary(&gates::h(), &[0]);
            if s.measure_qubit(0, Basis::Z, &mut r) == 0 {
                zeros += 1;
            }
        }
        assert!(
            (400..=600).contains(&zeros),
            "got {zeros} zeros out of 1000"
        );

        let mut s = QuantumState::ground(1);
        s.apply_unitary(&gates::h(), &[0]);
        assert_eq!(s.measure_qubit(0, Basis::X, &mut r), 0);
    }

    #[test]
    fn measurement_collapses() {
        let mut s = QuantumState::ground(2);
        s.apply_unitary(&gates::h(), &[0]);
        s.apply_unitary(&gates::cnot(), &[0, 1]);
        let mut r = rng();
        let m0 = s.measure_qubit(0, Basis::Z, &mut r);
        // Perfect correlation in Φ+: second measurement matches.
        let m1 = s.measure_qubit(1, Basis::Z, &mut r);
        assert_eq!(m0, m1);
    }

    #[test]
    fn partial_trace_of_bell_pair_is_maximally_mixed() {
        let mut s = QuantumState::ground(2);
        s.apply_unitary(&gates::h(), &[0]);
        s.apply_unitary(&gates::cnot(), &[0, 1]);
        for keep in [[0usize], [1usize]] {
            let red = s.partial_trace(&keep);
            assert_eq!(red.num_qubits(), 1);
            assert!((red.density()[(0, 0)].re - 0.5).abs() < 1e-12);
            assert!((red.density()[(1, 1)].re - 0.5).abs() < 1e-12);
            assert!(red.density()[(0, 1)].abs() < 1e-12);
        }
    }

    #[test]
    fn partial_trace_of_product_state() {
        // |1⟩ ⊗ |0⟩, keep qubit 0 → |1⟩.
        let mut a = QuantumState::ground(1);
        a.apply_unitary(&gates::x(), &[0]);
        let b = QuantumState::ground(1);
        let joint = a.tensor(&b);
        let red = joint.partial_trace(&[0]);
        assert!((red.density()[(1, 1)].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tensor_dimensions() {
        let s = QuantumState::ground(1).tensor(&QuantumState::ground(2));
        assert_eq!(s.num_qubits(), 3);
        assert_eq!(s.dim(), 8);
        assert!(s.is_physical(1e-12));
    }

    #[test]
    fn fidelity_of_exact_state_is_one() {
        let mut s = QuantumState::ground(2);
        s.apply_unitary(&gates::h(), &[0]);
        s.apply_unitary(&gates::cnot(), &[0, 1]);
        let inv_sqrt2 = Complex::real(std::f64::consts::FRAC_1_SQRT_2);
        let phi_plus = CMatrix::col_vector(&[inv_sqrt2, ZERO, ZERO, inv_sqrt2]);
        assert!((s.fidelity_pure(&phi_plus) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_density_validates() {
        assert!(QuantumState::from_density(CMatrix::identity(3)).is_err());
        assert!(matches!(
            QuantumState::from_density(CMatrix::identity(2)),
            Err(StateError::NotNormalized(_))
        ));
        let ok = QuantumState::from_density(CMatrix::identity(2).scale(Complex::real(0.5)));
        assert!(ok.is_ok());
    }

    #[test]
    fn from_ket_checks_norm() {
        let ket = CMatrix::col_vector(&[ONE, ZERO]);
        let s = QuantumState::from_ket(&ket);
        assert_eq!(s.num_qubits(), 1);
    }

    #[test]
    #[should_panic(expected = "not normalised")]
    fn from_ket_rejects_unnormalised() {
        let ket = CMatrix::col_vector(&[ONE, ONE]);
        let _ = QuantumState::from_ket(&ket);
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn duplicate_targets_panic() {
        let mut s = QuantumState::ground(2);
        s.apply_unitary(&gates::cnot(), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_target_panics() {
        let mut s = QuantumState::ground(2);
        s.apply_kraus(&crate::channels::dephasing(0.1), &[2]);
    }

    #[test]
    #[should_panic(expected = "operator/target mismatch")]
    fn operator_target_size_mismatch_panics() {
        let s = QuantumState::ground(2);
        s.kraus_probability(&gates::cnot(), &[0]);
    }

    #[test]
    fn povm_probability_of_projector() {
        let mut s = QuantumState::ground(1);
        s.apply_unitary(&gates::h(), &[0]);
        let (p0, _) = Basis::Z.projectors();
        assert!((s.povm_probability(&p0, &[0]) - 0.5).abs() < 1e-12);
        let (px0, _) = Basis::X.projectors();
        assert!((s.povm_probability(&px0, &[0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_of_pauli() {
        let mut s = QuantumState::ground(1);
        assert!((s.expectation(&gates::z(), &[0]) - 1.0).abs() < 1e-12);
        s.apply_unitary(&gates::x(), &[0]);
        assert!((s.expectation(&gates::z(), &[0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn y_basis_kets_orthonormal() {
        for b in Basis::ALL {
            let (k0, k1) = b.kets();
            let ip: Complex = (0..2).map(|i| k0[(i, 0)].conj() * k1[(i, 0)]).sum();
            assert!(ip.abs() < 1e-12, "{b:?} kets not orthogonal");
        }
    }

    /// The block-local kernels against the dense oracle, bit for bit.
    mod kernels {
        use super::*;
        use crate::channels;

        fn bits(m: &CMatrix) -> Vec<(u64, u64)> {
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        }

        /// A random operator with about a third of its entries exactly
        /// zero, half of those `−0`.
        fn random_op(rng: &mut DetRng, dim: usize) -> CMatrix {
            let data: Vec<Complex> = (0..dim * dim)
                .map(|_| {
                    let pick = rng.uniform();
                    if pick < 1.0 / 6.0 {
                        ZERO
                    } else if pick < 1.0 / 3.0 {
                        Complex::new(-0.0, -0.0)
                    } else {
                        Complex::new(rng.uniform() * 2.0 - 1.0, rng.uniform() * 2.0 - 1.0)
                    }
                })
                .collect();
            CMatrix::from_rows(dim, dim, &data)
        }

        /// A random operator with adversarial zeros: row 0 all `−0` and
        /// the last column alternating `+0` and `−0`, so a whole row and a
        /// whole column contribute no term.
        fn zero_lined_op(rng: &mut DetRng, dim: usize) -> CMatrix {
            let mut op = random_op(rng, dim);
            for c in 0..dim {
                op[(0, c)] = Complex::new(-0.0, -0.0);
            }
            for r in 0..dim {
                op[(r, dim - 1)] = if r % 2 == 0 {
                    ZERO
                } else {
                    Complex::new(-0.0, 0.0)
                };
            }
            op
        }

        /// `state` with every zero entry made `−0`.
        fn negative_zeros(state: &QuantumState) -> QuantumState {
            let mut rho = state.rho.clone();
            for z in rho.as_mut_slice() {
                if z.re == 0.0 {
                    z.re = -0.0;
                }
                if z.im == 0.0 {
                    z.im = -0.0;
                }
            }
            QuantumState::from_density(rho).expect("the sign of a zero changes no state")
        }

        /// `AA†/Tr` for a random `A` with zero entries; with `zero_row`,
        /// row and column 0 of the state are all zero.
        fn random_state(rng: &mut DetRng, n: usize, zero_row: bool) -> QuantumState {
            loop {
                let mut a = random_op(rng, 1 << n);
                if zero_row {
                    for c in 0..1 << n {
                        a[(0, c)] = ZERO;
                    }
                }
                let rho = &a * &a.adjoint();
                let t = rho.trace().re;
                if t > 0.0 {
                    return QuantumState::from_density(rho.scale(Complex::real(1.0 / t)))
                        .expect("AA†/Tr AA† is a state");
                }
            }
        }

        /// The shape of a link's spin-photon arm, `√α|01⟩ + √(1−α)|10⟩`,
        /// tensored up to `n` qubits: mostly exact zeros.
        fn arm_shaped(n: usize) -> QuantumState {
            let arm = QuantumState::from_ket(&CMatrix::col_vector(&[
                ZERO,
                Complex::real(0.2f64.sqrt()),
                Complex::real(0.8f64.sqrt()),
                ZERO,
            ]));
            match n {
                1 => QuantumState::ground(1),
                2 => arm,
                3 => arm.tensor(&QuantumState::ground(1)),
                _ => arm.tensor(&arm),
            }
        }

        /// The heralding station's four beam-splitter Kraus operators
        /// (Appendix D.5, eqs. (94)–(97)) at visibility `µ²`, photon A
        /// the most significant bit.
        fn beam_splitter(visibility: f64) -> Vec<CMatrix> {
            let mu = visibility.sqrt();
            let sqrt2 = std::f64::consts::SQRT_2;
            let a = ((1.0 + mu).sqrt() + (1.0 - mu).sqrt()) / sqrt2;
            let b = ((1.0 + mu).sqrt() - (1.0 - mu).sqrt()) / sqrt2;
            let s11 = (1.0 + mu * mu).sqrt();
            let single = |sign: f64| {
                let mut m = CMatrix::zeros(4, 4);
                m[(1, 1)] = Complex::real(a / 2.0);
                m[(2, 2)] = Complex::real(a / 2.0);
                m[(1, 2)] = Complex::real(sign * b / 2.0);
                m[(2, 1)] = Complex::real(sign * b / 2.0);
                m[(3, 3)] = Complex::real(s11 / 2.0);
                m
            };
            let mut none = CMatrix::zeros(4, 4);
            none[(0, 0)] = ONE;
            let mut both = CMatrix::zeros(4, 4);
            both[(3, 3)] = Complex::real(((1.0 - mu * mu) / 2.0).sqrt());
            vec![none, single(1.0), single(-1.0), both]
        }

        /// Every ordered choice of `k` distinct qubits out of `n`,
        /// descending orders included.
        fn target_orders(n: usize, k: usize) -> Vec<Vec<usize>> {
            if k == 0 {
                return vec![Vec::new()];
            }
            let mut out = Vec::new();
            for head in target_orders(n, k - 1) {
                for t in (0..n).filter(|t| !head.contains(t)) {
                    let mut targets = head.clone();
                    targets.push(t);
                    out.push(targets);
                }
            }
            out
        }

        /// Single operators by target count, and complete Kraus sets.
        fn operators(rng: &mut DetRng) -> (Vec<Vec<CMatrix>>, Vec<Vec<CMatrix>>) {
            let sets: Vec<Vec<CMatrix>> = vec![
                channels::dephasing(0.0),
                channels::dephasing(0.3),
                channels::bit_flip(0.2),
                channels::depolarizing(0.25),
                channels::amplitude_damping(0.4),
                channels::amplitude_damping(1.0),
                channels::t1t2_decay(5e-4, 1e-3, 1.5e-3),
                channels::t1t2_decay(0.0, 1e-3, 1e-3),
                vec![Basis::X.projectors().0, Basis::X.projectors().1],
                vec![Basis::Y.projectors().0, Basis::Y.projectors().1],
                vec![Basis::Z.projectors().0, Basis::Z.projectors().1],
                beam_splitter(0.9),
                beam_splitter(1.0),
            ];
            let mut by_size = vec![
                Vec::new(),
                vec![
                    gates::id2(),
                    gates::x(),
                    gates::y(),
                    gates::z(),
                    gates::h(),
                    gates::s(),
                    gates::rx(0.0),
                    gates::rx(0.7),
                    gates::ry(1.1),
                    gates::rz(-0.4),
                ],
                vec![
                    gates::cnot(),
                    gates::cz(),
                    gates::swap(),
                    gates::ec_controlled_rx(0.3),
                    gates::ec_controlled_sqrt_x(),
                ],
                Vec::new(),
            ];
            for set in &sets {
                let k = set[0].rows().trailing_zeros() as usize;
                by_size[k].extend(set.iter().cloned());
            }
            for (k, ops) in by_size.iter_mut().enumerate().skip(1) {
                ops.extend((0..3).map(|_| random_op(rng, 1 << k)));
                ops.push(zero_lined_op(rng, 1 << k));
                ops.push(CMatrix::from_rows(
                    1 << k,
                    1 << k,
                    &vec![Complex::new(-0.0, -0.0); 1 << (2 * k)],
                ));
            }
            (by_size, sets)
        }

        /// Rule 3 on its own: the product of a zero operator entry, of
        /// either sign, added to an accumulator that starts at `+0` —
        /// which no sum can turn into `−0` — changes no bit.
        #[test]
        fn a_skipped_zero_term_is_exact() {
            let zeros = [
                ZERO,
                Complex::new(-0.0, 0.0),
                Complex::new(0.0, -0.0),
                Complex::new(-0.0, -0.0),
            ];
            let mut values = zeros.to_vec();
            values.extend([
                Complex::new(0.3, -0.7),
                Complex::new(-0.3, 0.7),
                Complex::new(-1e-300, 2.0),
                Complex::new(5.0, -0.0),
                Complex::new(-f64::MIN_POSITIVE, 1e150),
            ]);
            let mut accumulators = vec![ZERO];
            for &x in &values {
                for &y in &values {
                    accumulators.push(ZERO + x * y);
                    for &w in &values {
                        accumulators.push(ZERO + x * y + w * y);
                    }
                }
            }
            for acc in accumulators {
                assert!(
                    acc.re.to_bits() != (-0.0f64).to_bits()
                        && acc.im.to_bits() != (-0.0f64).to_bits(),
                    "{acc:?}: a sum from +0 reached −0"
                );
                for &a in &zeros {
                    for &z in &values {
                        let sum = acc + a * z;
                        assert_eq!(
                            (sum.re.to_bits(), sum.im.to_bits()),
                            (acc.re.to_bits(), acc.im.to_bits()),
                            "{acc:?} + {a:?}·{z:?}"
                        );
                    }
                }
            }
        }

        #[test]
        fn block_kernels_match_the_dense_oracle_bit_for_bit() {
            let mut rng = DetRng::new(0x5eed);
            let (by_size, sets) = operators(&mut rng);
            for n in 1..=4 {
                let mut states = vec![QuantumState::ground(n), arm_shaped(n)];
                states.push(random_state(&mut rng, n, true));
                states.extend((0..3).map(|_| random_state(&mut rng, n, false)));
                // Exact-zero blocks (every index with qubit 0, or the last
                // qubit, set), and zeros of the other sign.
                if n >= 2 {
                    let rest = random_state(&mut rng, n - 1, false);
                    states.push(QuantumState::ground(1).tensor(&rest));
                    states.push(rest.tensor(&QuantumState::ground(1)));
                }
                states.push(negative_zeros(&arm_shaped(n)));
                states.push(negative_zeros(&random_state(&mut rng, n, true)));
                for (s, state) in states.iter().enumerate() {
                    for (k, ops) in by_size.iter().enumerate().take(n.min(3) + 1).skip(1) {
                        for targets in target_orders(n, k) {
                            let at = |what: &str| format!("{what}, n={n} state {s} on {targets:?}");
                            for (o, op) in ops.iter().enumerate() {
                                let at = |what: &str| at(&format!("{what} of operator {o}"));
                                let mut fast = state.clone();
                                let mut dense = state.clone();
                                fast.apply_unitary(op, &targets);
                                dense.dense_apply_unitary(op, &targets);
                                assert_eq!(
                                    bits(&fast.rho),
                                    bits(&dense.rho),
                                    "{}",
                                    at("apply_unitary")
                                );
                                let mut fast = state.clone();
                                let mut dense = state.clone();
                                fast.apply_kraus(std::slice::from_ref(op), &targets);
                                dense.dense_apply_kraus(std::slice::from_ref(op), &targets);
                                assert_eq!(
                                    bits(&fast.rho),
                                    bits(&dense.rho),
                                    "{}",
                                    at("apply_kraus")
                                );
                                assert_eq!(
                                    state.kraus_probability(op, &targets).to_bits(),
                                    state.dense_kraus_probability(op, &targets).to_bits(),
                                    "{}",
                                    at("kraus_probability")
                                );
                                assert_eq!(
                                    state.povm_probability(op, &targets).to_bits(),
                                    state.dense_povm_probability(op, &targets).to_bits(),
                                    "{}",
                                    at("povm_probability")
                                );
                                assert_eq!(
                                    state.expectation(op, &targets).to_bits(),
                                    state.dense_expectation(op, &targets).to_bits(),
                                    "{}",
                                    at("expectation")
                                );
                            }
                            for (i, set) in sets.iter().enumerate() {
                                if set[0].rows() != 1 << k {
                                    continue;
                                }
                                let at = |what: &str| at(&format!("{what} of Kraus set {i}"));
                                let mut fast = state.clone();
                                let mut dense = state.clone();
                                fast.apply_kraus(set, &targets);
                                dense.dense_apply_kraus(set, &targets);
                                assert_eq!(
                                    bits(&fast.rho),
                                    bits(&dense.rho),
                                    "{}",
                                    at("apply_kraus")
                                );
                                for u in [0.0, 0.2, 0.5, 0.8, 0.999_999] {
                                    let mut fast = state.clone();
                                    let mut dense = state.clone();
                                    assert_eq!(
                                        fast.measure_kraus_given(set, &targets, u),
                                        dense.dense_measure_kraus_given(set, &targets, u),
                                        "{}",
                                        at("measure_kraus_given outcome")
                                    );
                                    assert_eq!(
                                        bits(&fast.rho),
                                        bits(&dense.rho),
                                        "{}",
                                        at("measure_kraus_given state")
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
