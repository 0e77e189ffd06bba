//! Composite quantum operations: teleportation and entanglement swapping.
//!
//! These are the two primitives of the paper's Figure 1: teleportation
//! consumes an entangled pair to transmit a qubit (the transport layer /
//! SQ use case), and entanglement swapping joins two short links into a
//! long one (the network layer / NL use case). The link layer itself
//! only *produces* pairs; these operations live here so examples and
//! higher-layer tests can consume them.

use crate::bell::BellState;
use crate::gates;
use crate::state::{Basis, QuantumState};
use qlink_des::DetRng;

/// Outcome of a Bell-state measurement: two classical bits.
///
/// `(z_bit, x_bit)` index the four Bell states: the measured pair was
/// `(Z^z_bit ⊗ I)(X^x_bit ⊗ I)|Φ+⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BsmOutcome {
    /// The bit from measuring the first qubit after the CNOT+H circuit
    /// (distinguishes Φ from the "−" variants).
    pub z_bit: u8,
    /// The bit from measuring the second qubit (distinguishes Φ from Ψ).
    pub x_bit: u8,
}

impl BsmOutcome {
    /// Which Bell state the measured pair was projected onto.
    pub fn bell_state(self) -> BellState {
        match (self.z_bit, self.x_bit) {
            (0, 0) => BellState::PhiPlus,
            (1, 0) => BellState::PhiMinus,
            (0, 1) => BellState::PsiPlus,
            (1, 1) => BellState::PsiMinus,
            _ => unreachable!("bits are 0/1"),
        }
    }
}

/// Performs a Bell-state measurement on `(q0, q1)` inside `state`.
///
/// Implemented as the standard CNOT(q0→q1) + H(q0) circuit followed by
/// computational-basis measurements; the measured qubits collapse and
/// remain in the register.
pub fn bell_measure(
    state: &mut QuantumState,
    q0: usize,
    q1: usize,
    rng: &mut DetRng,
) -> BsmOutcome {
    state.apply_unitary(&gates::cnot(), &[q0, q1]);
    state.apply_unitary(&gates::h(), &[q0]);
    let z_bit = state.measure_qubit(q0, Basis::Z, rng);
    let x_bit = state.measure_qubit(q1, Basis::Z, rng);
    BsmOutcome { z_bit, x_bit }
}

/// Teleports the state of qubit `data` onto qubit `ent_b`, consuming the
/// entangled pair `(ent_a, ent_b)` which must be (close to) `|Φ+⟩`
/// (paper Figure 1a, ref.\[11\]).
///
/// Returns the two classical bits that, in a real network, would travel
/// from the sender to the receiver; the Pauli correction they encode is
/// applied to `ent_b` before returning. After the call, `ent_b` carries
/// the input state (exactly, if the resource was a perfect `|Φ+⟩`).
pub fn teleport(
    state: &mut QuantumState,
    data: usize,
    ent_a: usize,
    ent_b: usize,
    rng: &mut DetRng,
) -> BsmOutcome {
    let outcome = bell_measure(state, data, ent_a, rng);
    // Standard corrections: X if the Ψ-type outcome, Z if the "−" branch.
    if outcome.x_bit == 1 {
        state.apply_unitary(&gates::x(), &[ent_b]);
    }
    if outcome.z_bit == 1 {
        state.apply_unitary(&gates::z(), &[ent_b]);
    }
    outcome
}

/// Entanglement swapping (paper Figure 1b, ref.\[107\]): given pair
/// `(a, b1)` and pair `(b2, c)` both (close to) `|Φ+⟩`, performs a BSM
/// on `(b1, b2)` at the middle node and applies the Pauli correction to
/// `c`. Afterwards `(a, c)` share (close to) `|Φ+⟩`.
pub fn entanglement_swap(
    state: &mut QuantumState,
    b1: usize,
    b2: usize,
    c: usize,
    rng: &mut DetRng,
) -> BsmOutcome {
    let outcome = bell_measure(state, b1, b2, rng);
    if outcome.x_bit == 1 {
        state.apply_unitary(&gates::x(), &[c]);
    }
    if outcome.z_bit == 1 {
        state.apply_unitary(&gates::z(), &[c]);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bell::bell_fidelity;
    use qlink_math::complex::Complex;
    use qlink_math::CMatrix;

    fn random_ket(rng: &mut DetRng) -> CMatrix {
        let a = rng.uniform();
        let phi = rng.uniform() * std::f64::consts::TAU;
        let amp0 = a.sqrt();
        let amp1 = (1.0 - a).sqrt();
        CMatrix::col_vector(&[Complex::real(amp0), Complex::phase(phi) * amp1])
    }

    #[test]
    fn teleport_preserves_random_states() {
        let mut r = DetRng::new(7);
        for trial in 0..20 {
            let ket = random_ket(&mut r);
            let data = QuantumState::from_ket(&ket);
            // Register: [data, ent_a, ent_b] with (ent_a, ent_b) = Φ+.
            let mut joint = data.tensor(&BellState::PhiPlus.state());
            teleport(&mut joint, 0, 1, 2, &mut r);
            let out = joint.partial_trace(&[2]);
            let f = out.fidelity_pure(&ket);
            assert!(f > 1.0 - 1e-9, "trial {trial}: teleport fidelity {f}");
        }
    }

    #[test]
    fn teleport_consumes_entanglement() {
        let mut r = DetRng::new(3);
        let data = QuantumState::ground(1);
        let mut joint = data.tensor(&BellState::PhiPlus.state());
        teleport(&mut joint, 0, 1, 2, &mut r);
        // The (ent_a, ent_b) pair is no longer entangled: ent_a is left in
        // a computational-basis state after measurement.
        let ent_a = joint.partial_trace(&[1]);
        let purity_diag = ent_a.density()[(0, 0)].re.max(ent_a.density()[(1, 1)].re);
        assert!(purity_diag > 1.0 - 1e-9);
    }

    #[test]
    fn all_four_bsm_outcomes_occur() {
        let mut r = DetRng::new(11);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let data = QuantumState::ground(1);
            let mut joint = data.tensor(&BellState::PhiPlus.state());
            let o = teleport(&mut joint, 0, 1, 2, &mut r);
            seen.insert((o.z_bit, o.x_bit));
        }
        assert_eq!(seen.len(), 4, "outcomes seen: {seen:?}");
    }

    #[test]
    fn swap_produces_long_distance_pair() {
        let mut r = DetRng::new(5);
        for trial in 0..10 {
            // Register: [a, b1, b2, c] with (a,b1) = Φ+ and (b2,c) = Φ+.
            let mut joint = BellState::PhiPlus
                .state()
                .tensor(&BellState::PhiPlus.state());
            entanglement_swap(&mut joint, 1, 2, 3, &mut r);
            let f = bell_fidelity(&joint, (0, 3), BellState::PhiPlus);
            assert!(f > 1.0 - 1e-9, "trial {trial}: swapped fidelity {f}");
        }
    }

    #[test]
    fn swap_of_noisy_pairs_multiplies_error() {
        use crate::bell::werner_state;
        let mut r = DetRng::new(9);
        // Two Werner pairs with p = 0.9 (F = 0.925): the swapped pair has
        // lower fidelity than either input.
        let mut joint =
            werner_state(BellState::PhiPlus, 0.9).tensor(&werner_state(BellState::PhiPlus, 0.9));
        entanglement_swap(&mut joint, 1, 2, 3, &mut r);
        let f = bell_fidelity(&joint, (0, 3), BellState::PhiPlus);
        assert!(f < 0.925 && f > 0.5, "swapped Werner fidelity {f}");
    }

    #[test]
    fn bsm_outcome_maps_to_bell_states() {
        assert_eq!(
            BsmOutcome { z_bit: 0, x_bit: 0 }.bell_state(),
            BellState::PhiPlus
        );
        assert_eq!(
            BsmOutcome { z_bit: 1, x_bit: 0 }.bell_state(),
            BellState::PhiMinus
        );
        assert_eq!(
            BsmOutcome { z_bit: 0, x_bit: 1 }.bell_state(),
            BellState::PsiPlus
        );
        assert_eq!(
            BsmOutcome { z_bit: 1, x_bit: 1 }.bell_state(),
            BellState::PsiMinus
        );
    }

    #[test]
    fn bell_measure_identifies_prepared_bell_states() {
        let mut r = DetRng::new(13);
        for b in BellState::ALL {
            let mut s = b.state();
            let o = bell_measure(&mut s, 0, 1, &mut r);
            assert_eq!(o.bell_state(), b, "misidentified {b:?}");
        }
    }
}
