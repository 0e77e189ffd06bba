//! Bell states, fidelity and QBER.
//!
//! The heralded generation scheme of the paper produces one of the two
//! entangled states `|Ψ+⟩` or `|Ψ−⟩` depending on which detector clicks
//! (Figure 3); local gates convert between all four Bell states
//! (eq. (13)). The measure-directly (MD) use case estimates fidelity
//! from quantum-bit-error rates via eq. (16).

use crate::gates;
use crate::state::{Basis, QuantumState};
use qlink_math::complex::{Complex, ZERO};
use qlink_math::CMatrix;
use std::borrow::Cow;

/// The four Bell states (paper eqs. (9)–(12)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BellState {
    /// `(|00⟩ + |11⟩)/√2`
    PhiPlus,
    /// `(|00⟩ − |11⟩)/√2`
    PhiMinus,
    /// `(|01⟩ + |10⟩)/√2`
    PsiPlus,
    /// `(|01⟩ − |10⟩)/√2`
    PsiMinus,
}

impl BellState {
    /// The state as a normalised ket (4-component column vector).
    pub fn ket(self) -> CMatrix {
        let h = Complex::real(std::f64::consts::FRAC_1_SQRT_2);
        match self {
            BellState::PhiPlus => CMatrix::col_vector(&[h, ZERO, ZERO, h]),
            BellState::PhiMinus => CMatrix::col_vector(&[h, ZERO, ZERO, -h]),
            BellState::PsiPlus => CMatrix::col_vector(&[ZERO, h, h, ZERO]),
            BellState::PsiMinus => CMatrix::col_vector(&[ZERO, h, -h, ZERO]),
        }
    }

    /// The state as a 2-qubit [`QuantumState`].
    pub fn state(self) -> QuantumState {
        QuantumState::from_ket(&self.ket())
    }

    /// Ideal correlation sign `⟨B ⊗ B⟩` in each basis: `+1` when the two
    /// qubits agree, `−1` when they anti-agree (paper §A.2).
    pub fn correlation_sign(self, basis: Basis) -> f64 {
        match (self, basis) {
            (BellState::PhiPlus, Basis::X) => 1.0,
            (BellState::PhiPlus, Basis::Y) => -1.0,
            (BellState::PhiPlus, Basis::Z) => 1.0,
            (BellState::PhiMinus, Basis::X) => -1.0,
            (BellState::PhiMinus, Basis::Y) => 1.0,
            (BellState::PhiMinus, Basis::Z) => 1.0,
            (BellState::PsiPlus, Basis::X) => 1.0,
            (BellState::PsiPlus, Basis::Y) => 1.0,
            (BellState::PsiPlus, Basis::Z) => -1.0,
            (BellState::PsiMinus, _) => -1.0,
        }
    }

    /// All four Bell states.
    pub const ALL: [BellState; 4] = [
        BellState::PhiPlus,
        BellState::PhiMinus,
        BellState::PsiPlus,
        BellState::PsiMinus,
    ];
}

/// Fidelity of a two-qubit region of `state` against a Bell state:
/// `⟨B| ρ |B⟩` (paper eq. (15)).
///
/// `qubits` selects the pair inside a possibly larger register.
pub fn bell_fidelity(state: &QuantumState, qubits: (usize, usize), bell: BellState) -> f64 {
    let keep = sorted_pair(qubits);
    // A trace that keeps every qubit is the state itself: it would only
    // turn `−0` entries into `+0`, which no product below reads.
    let mut pair = if state.num_qubits() == 2 && keep == (0, 1) {
        Cow::Borrowed(state)
    } else {
        Cow::Owned(state.partial_trace(&[keep.0, keep.1]))
    };
    if keep != qubits {
        // The caller's qubit order is reversed w.r.t. the traced register.
        pair.to_mut().apply_unitary(&gates::swap(), &[0, 1]);
    }
    pair.fidelity_pure(&bell.ket())
}

/// Two-qubit correlator `⟨B ⊗ B⟩ = Tr(ρ · B_a ⊗ B_b)` where both
/// observables are the Pauli of `basis`. Used for the validation plots
/// of Figure 10 (`Pr(m_A ≠ m_B) = (1 − ⟨B⊗B⟩)/2`).
pub fn correlator(state: &QuantumState, qubits: (usize, usize), basis: Basis) -> f64 {
    let obs = basis.observable();
    let joint = obs.kron(&obs);
    state.expectation(&joint, &[qubits.0, qubits.1])
}

/// Probability that measurements of the two qubits in `basis` disagree.
pub fn disagreement_probability(state: &QuantumState, qubits: (usize, usize), basis: Basis) -> f64 {
    ((1.0 - correlator(state, qubits, basis)) / 2.0).clamp(0.0, 1.0)
}

/// Quantum bit error rates in the three bases, relative to a target
/// Bell state's ideal correlations (paper §A.3, footnote 3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Qber {
    /// Error rate for X-basis measurements.
    pub x: f64,
    /// Error rate for Y-basis measurements.
    pub y: f64,
    /// Error rate for Z-basis measurements.
    pub z: f64,
}

impl Qber {
    /// The exact QBER of a state relative to `bell`'s ideal correlations:
    /// the probability of obtaining the "wrong" (relative) outcome in
    /// each basis.
    pub fn of_state(state: &QuantumState, qubits: (usize, usize), bell: BellState) -> Qber {
        let q = |basis: Basis| -> f64 {
            let sign = bell.correlation_sign(basis);
            ((1.0 - sign * correlator(state, qubits, basis)) / 2.0).clamp(0.0, 1.0)
        };
        Qber {
            x: q(Basis::X),
            y: q(Basis::Y),
            z: q(Basis::Z),
        }
    }

    /// Paper eq. (16): `F = 1 − (QBER_X + QBER_Y + QBER_Z)/2`.
    pub fn fidelity(self) -> f64 {
        (1.0 - (self.x + self.y + self.z) / 2.0).clamp(0.0, 1.0)
    }

    /// Average of the three basis error rates.
    pub fn average(self) -> f64 {
        (self.x + self.y + self.z) / 3.0
    }
}

/// A Werner state: `p·|B⟩⟨B| + (1−p)·I/4`. Its fidelity with `|B⟩` is
/// `p + (1−p)/4`; handy for tests and for synthesising states of known
/// fidelity.
pub fn werner_state(bell: BellState, p: f64) -> QuantumState {
    assert!((0.0..=1.0).contains(&p), "werner p = {p}");
    let ket = bell.ket();
    let pure = &ket * &ket.adjoint();
    let mixed = CMatrix::identity(4).scale(Complex::real((1.0 - p) / 4.0));
    let rho = &pure.scale(Complex::real(p)) + &mixed;
    QuantumState::from_density(rho).expect("werner state is physical")
}

/// The Werner state whose fidelity with `|B⟩` is `f`, inverting
/// `F = p + (1−p)/4` to `p = (4F−1)/3` (clamped to a physical `p`).
/// This is the standard one-parameter summary a network layer keeps
/// per link pair when only a measured fidelity is known.
pub fn werner_from_fidelity(bell: BellState, f: f64) -> QuantumState {
    werner_state(bell, ((4.0 * f - 1.0) / 3.0).clamp(0.0, 1.0))
}

fn sorted_pair((a, b): (usize, usize)) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bell_states_are_orthonormal() {
        for (i, a) in BellState::ALL.iter().enumerate() {
            for (j, b) in BellState::ALL.iter().enumerate() {
                let ka = a.ket();
                let kb = b.ket();
                let ip: Complex = (0..4).map(|r| ka[(r, 0)].conj() * kb[(r, 0)]).sum();
                if i == j {
                    assert!((ip.re - 1.0).abs() < 1e-12);
                } else {
                    assert!(ip.abs() < 1e-12, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn fidelity_of_own_state_is_one() {
        for b in BellState::ALL {
            let s = b.state();
            assert!((bell_fidelity(&s, (0, 1), b) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn psi_minus_to_psi_plus_via_z() {
        // The MHP applies a Z on heralding outcome |Ψ−⟩ to deliver |Ψ+⟩
        // (paper §5.1.1 / eq. (13)).
        let mut s = BellState::PsiMinus.state();
        s.apply_unitary(&gates::z(), &[0]);
        assert!((bell_fidelity(&s, (0, 1), BellState::PsiPlus) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_signs_match_states() {
        for b in BellState::ALL {
            let s = b.state();
            for basis in Basis::ALL {
                let c = correlator(&s, (0, 1), basis);
                assert!(
                    (c - b.correlation_sign(basis)).abs() < 1e-12,
                    "{b:?} {basis:?}: {c}"
                );
            }
        }
    }

    #[test]
    fn qber_of_perfect_state_is_zero() {
        for b in BellState::ALL {
            let q = Qber::of_state(&b.state(), (0, 1), b);
            assert!(q.x < 1e-12 && q.y < 1e-12 && q.z < 1e-12);
            assert!((q.fidelity() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn eq16_holds_for_werner_states() {
        // F computed directly must equal F from QBERs via eq. (16).
        for b in BellState::ALL {
            for p in [0.0, 0.3, 0.6, 0.9, 1.0] {
                let s = werner_state(b, p);
                let direct = bell_fidelity(&s, (0, 1), b);
                let via_qber = Qber::of_state(&s, (0, 1), b).fidelity();
                assert!(
                    (direct - via_qber).abs() < 1e-12,
                    "{b:?} p={p}: {direct} vs {via_qber}"
                );
                assert!((direct - (p + (1.0 - p) / 4.0)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn disagreement_probability_in_maximally_mixed() {
        let s = werner_state(BellState::PsiMinus, 0.0);
        for basis in Basis::ALL {
            assert!((disagreement_probability(&s, (0, 1), basis) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn qubit_order_in_bell_fidelity() {
        // |Ψ+⟩ is symmetric under swap; |01⟩ is not. Construct |01⟩ and
        // check fidelity 1/2 regardless of order, then an asymmetric
        // superposition to exercise the swap path.
        let mut s = QuantumState::ground(2);
        s.apply_unitary(&gates::x(), &[1]); // |01⟩
        let f01 = bell_fidelity(&s, (0, 1), BellState::PsiPlus);
        let f10 = bell_fidelity(&s, (1, 0), BellState::PsiPlus);
        assert!((f01 - 0.5).abs() < 1e-12);
        assert!((f10 - 0.5).abs() < 1e-12);

        // Φ− changes sign under swap of its qubits? It does not; use a
        // non-maximally-entangled ket a|01⟩ + b|10⟩ to verify ordering.
        let ket = CMatrix::col_vector(&[ZERO, Complex::real(0.8), Complex::real(0.6), ZERO]);
        let s = QuantumState::from_ket(&ket);
        let f_ab = bell_fidelity(&s, (0, 1), BellState::PsiPlus);
        let f_ba = bell_fidelity(&s, (1, 0), BellState::PsiPlus);
        // ⟨Ψ+|ψ⟩ = (0.8+0.6)/√2 both ways (symmetric target) — they agree.
        assert!((f_ab - f_ba).abs() < 1e-12);
        // But against |Ψ−⟩ the overlap flips sign — fidelity unchanged in
        // magnitude, confirming swap handling is consistent.
        let g_ab = bell_fidelity(&s, (0, 1), BellState::PsiMinus);
        let g_ba = bell_fidelity(&s, (1, 0), BellState::PsiMinus);
        assert!((g_ab - g_ba).abs() < 1e-12);
    }

    #[test]
    fn werner_fidelity_threshold() {
        // F ≥ 1/2 is the "useful entanglement" threshold cited in the
        // paper (§4.1.1, [52]); Werner p = 1/3 sits exactly at F = 1/2.
        let s = werner_state(BellState::PsiMinus, 1.0 / 3.0);
        let f = bell_fidelity(&s, (0, 1), BellState::PsiMinus);
        assert!((f - 0.5).abs() < 1e-12);
    }
}
