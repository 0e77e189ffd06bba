//! A live heralded entangled pair.
//!
//! Once the station heralds success, the two electrons share the
//! conditional state computed by the [`crate::attempt::AttemptModel`].
//! From then on the pair is a *dynamic* object: it decoheres with the
//! `T1`/`T2` of whatever physical qubit holds each half (Appendix A.4),
//! suffers generation-induced dephasing whenever its node runs further
//! attempts (eq. (25)), and accumulates gate noise when moved from the
//! electron to the carbon memory (D.3.3). Decoherence is applied
//! *lazily*: the state records when it was last brought up to date and
//! catches up on access — exact, and O(1) per simulation event.

use crate::params::NvParams;
use qlink_des::{DetRng, SimTime};
use qlink_quantum::bell::{bell_fidelity, BellState};
use qlink_quantum::{channels, gates, Basis, QuantumState};

/// Which physical qubit currently holds one half of the pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QubitKind {
    /// The optically active communication qubit (electron spin).
    Electron,
    /// A memory qubit (carbon-13 nuclear spin).
    Carbon,
}

impl QubitKind {
    fn t1(self, nv: &NvParams) -> f64 {
        match self {
            QubitKind::Electron => nv.electron_t1,
            QubitKind::Carbon => nv.carbon_t1,
        }
    }

    fn t2(self, nv: &NvParams) -> f64 {
        match self {
            QubitKind::Electron => nv.electron_t2,
            QubitKind::Carbon => nv.carbon_t2,
        }
    }
}

/// A side of the pair: node A's half (state qubit 0) or node B's
/// (state qubit 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Node A's qubit.
    A,
    /// Node B's qubit.
    B,
}

impl Side {
    fn index(self) -> usize {
        match self {
            Side::A => 0,
            Side::B => 1,
        }
    }
}

/// A heralded entangled pair with lazy decoherence.
#[derive(Debug, Clone)]
pub struct PairState {
    state: QuantumState,
    kinds: [QubitKind; 2],
    last_update: SimTime,
}

impl PairState {
    /// Wraps a freshly heralded conditional state (both halves still in
    /// the communication electrons) created at `at`.
    ///
    /// # Panics
    /// Panics unless the state has exactly two qubits.
    pub fn new(state: QuantumState, at: SimTime) -> Self {
        assert_eq!(state.num_qubits(), 2, "a pair has two qubits");
        PairState {
            state,
            kinds: [QubitKind::Electron, QubitKind::Electron],
            last_update: at,
        }
    }

    /// The physical qubit kind currently holding `side`.
    pub fn kind(&self, side: Side) -> QubitKind {
        self.kinds[side.index()]
    }

    /// Time of the last decoherence catch-up.
    pub fn last_update(&self) -> SimTime {
        self.last_update
    }

    /// Borrow the current (possibly stale) state; call
    /// [`PairState::advance_to`] first for up-to-date physics.
    pub fn state(&self) -> &QuantumState {
        &self.state
    }

    /// Applies `T1`/`T2` decoherence on both halves from the last
    /// update time to `t`.
    ///
    /// # Panics
    /// Panics if `t` precedes the last update (time is monotone).
    pub fn advance_to(&mut self, t: SimTime, nv: &NvParams) {
        let dt = t.since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            let decay = |kind: QubitKind| channels::t1t2_decay(dt, kind.t1(nv), kind.t2(nv));
            let [a, b] = self.kinds;
            let kraus_a = decay(a);
            self.state.apply_kraus(&kraus_a, &[Side::A.index()]);
            // Halves in the same kind of qubit decay by one Kraus set.
            let kraus_b = if b == a { kraus_a } else { decay(b) };
            self.state.apply_kraus(&kraus_b, &[Side::B.index()]);
        }
        self.last_update = t;
    }

    /// Advances the clock *without* decoherence, for intervals where
    /// the qubits are dynamically decoupled: the move-to-memory pulse
    /// sequence of D.2.2 "also decouples the electron from its
    /// environment, thereby prolonging its coherence" — its noise is
    /// captured by the gate fidelities instead (see
    /// [`PairState::move_to_carbon`]).
    ///
    /// # Panics
    /// Panics if `t` precedes the last update.
    pub fn skip_decoupled(&mut self, t: SimTime) {
        assert!(t >= self.last_update, "time is monotone");
        self.last_update = t;
    }

    /// Applies the generation-induced dephasing of eq. (25) to one
    /// half: `n_attempts` electron resets at bright-state population
    /// `alpha` while this half sits in the carbon memory.
    ///
    /// No-op for halves still in the electron (the electron *is* the
    /// qubit being reset — the pair would simply be destroyed, which
    /// the link layer prevents by scheduling).
    pub fn apply_generation_dephasing(
        &mut self,
        side: Side,
        nv: &NvParams,
        alpha: f64,
        n_attempts: u32,
    ) {
        if self.kinds[side.index()] != QubitKind::Carbon || n_attempts == 0 {
            return;
        }
        let pd = nv.generation_dephasing(alpha);
        // n sequential dephasings with parameter p compose into one with
        // off-diagonal factor (1−2p)ⁿ.
        let factor = (1.0 - 2.0 * pd).powi(n_attempts as i32);
        let p_total = (1.0 - factor) / 2.0;
        self.state
            .apply_kraus(&channels::dephasing(p_total), &[side.index()]);
    }

    /// Moves one half from the electron into the carbon memory
    /// (D.3.3): two E-C controlled-√X gates plus single-qubit gates,
    /// with the gate-dephasing noise model of D.3.1 and the carbon
    /// initialization infidelity.
    ///
    /// The caller is responsible for advancing time across the
    /// 1040 µs move duration (during which this half decoheres at the
    /// *electron* rate — the state is in transit).
    ///
    /// # Panics
    /// Panics if that half is already in a carbon.
    pub fn move_to_carbon(&mut self, side: Side, nv: &NvParams) {
        assert_eq!(
            self.kinds[side.index()],
            QubitKind::Electron,
            "half already in memory"
        );
        let q = side.index();
        // Carbon initialization noise (depolarizing, f = 0.95): the
        // swap target was imperfectly prepared.
        self.state
            .apply_kraus(&channels::depolarizing(1.0 - nv.carbon_init.fidelity), &[q]);
        // Two E-C controlled-√X gates, each modelled as dephasing with
        // p = 1 − f (D.3.1).
        let gate_deph = channels::dephasing(1.0 - nv.ec_sqrt_x.fidelity);
        self.state.apply_kraus(&gate_deph, &[q]);
        self.state.apply_kraus(&gate_deph, &[q]);
        self.kinds[q] = QubitKind::Carbon;
    }

    /// Applies the `|Ψ−⟩ → |Ψ+⟩` correction (a Z gate, eq. (13)) to one
    /// half; used by the request originator per Protocol 2 step 3(c)(iv).
    pub fn apply_psi_minus_correction(&mut self, side: Side) {
        self.state.apply_unitary(&gates::z(), &[side.index()]);
    }

    /// Current fidelity against a Bell state (no time advance — call
    /// [`PairState::advance_to`] first).
    pub fn fidelity(&self, bell: BellState) -> f64 {
        bell_fidelity(&self.state, (0, 1), bell)
    }

    /// Measures one half in `basis` (ideal projective measurement; add
    /// readout noise at the caller if modelling M-type readout).
    pub fn measure(&mut self, side: Side, basis: Basis, rng: &mut DetRng) -> u8 {
        self.state.measure_qubit(side.index(), basis, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NvParams;
    use qlink_des::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn fresh_pair() -> PairState {
        PairState::new(BellState::PsiPlus.state(), SimTime::ZERO)
    }

    #[test]
    fn fresh_pair_is_perfect() {
        let p = fresh_pair();
        assert!((p.fidelity(BellState::PsiPlus) - 1.0).abs() < 1e-12);
        assert_eq!(p.kind(Side::A), QubitKind::Electron);
    }

    #[test]
    fn electron_storage_decoheres() {
        let nv = NvParams::table6();
        let mut p = fresh_pair();
        p.advance_to(t(500), &nv); // 500 µs in electrons (T2* = 1 ms)
        let f = p.fidelity(BellState::PsiPlus);
        assert!(f < 0.95, "should have decohered: F = {f}");
        assert!(f > 0.5, "but not fully: F = {f}");
    }

    #[test]
    fn longer_storage_is_worse() {
        let nv = NvParams::table6();
        let mut p1 = fresh_pair();
        p1.advance_to(t(100), &nv);
        let mut p2 = fresh_pair();
        p2.advance_to(t(1000), &nv);
        assert!(p2.fidelity(BellState::PsiPlus) < p1.fidelity(BellState::PsiPlus));
    }

    #[test]
    fn advance_is_incremental() {
        // advancing 2×250 µs equals advancing 500 µs once.
        let nv = NvParams::table6();
        let mut a = fresh_pair();
        a.advance_to(t(250), &nv);
        a.advance_to(t(500), &nv);
        let mut b = fresh_pair();
        b.advance_to(t(500), &nv);
        assert!((a.fidelity(BellState::PsiPlus) - b.fidelity(BellState::PsiPlus)).abs() < 1e-9);
    }

    #[test]
    fn carbon_outlives_electron() {
        let nv = NvParams::table6();
        // Store one millisecond in electrons vs carbons.
        let mut elec = fresh_pair();
        elec.advance_to(t(1000), &nv);

        let mut carb = fresh_pair();
        carb.move_to_carbon(Side::A, &nv);
        carb.move_to_carbon(Side::B, &nv);
        let f_after_move = carb.fidelity(BellState::PsiPlus);
        carb.advance_to(t(1000), &nv);

        // The move costs gate noise up front, but the carbon decoheres
        // far more slowly (T2* = 3.5 ms vs 1 ms, T1 = ∞).
        let f_elec = elec.fidelity(BellState::PsiPlus);
        let f_carb = carb.fidelity(BellState::PsiPlus);
        assert!(f_after_move < 1.0, "move must cost fidelity");
        assert!(
            f_carb > f_elec,
            "carbon ({f_carb}) should beat electron ({f_elec}) at 1 ms"
        );
    }

    #[test]
    fn move_applies_gate_noise_only_to_that_side() {
        let nv = NvParams::table6();
        let mut p = fresh_pair();
        let before = p.fidelity(BellState::PsiPlus);
        p.move_to_carbon(Side::A, &nv);
        let after = p.fidelity(BellState::PsiPlus);
        assert!(after < before);
        assert_eq!(p.kind(Side::A), QubitKind::Carbon);
        assert_eq!(p.kind(Side::B), QubitKind::Electron);
    }

    #[test]
    #[should_panic(expected = "already in memory")]
    fn double_move_panics() {
        let nv = NvParams::table6();
        let mut p = fresh_pair();
        p.move_to_carbon(Side::A, &nv);
        p.move_to_carbon(Side::A, &nv);
    }

    #[test]
    fn generation_dephasing_hits_stored_carbon() {
        let nv = NvParams::table6();
        let mut p = fresh_pair();
        p.move_to_carbon(Side::A, &nv);
        let before = p.fidelity(BellState::PsiPlus);
        p.apply_generation_dephasing(Side::A, &nv, 0.3, 500);
        let after = p.fidelity(BellState::PsiPlus);
        assert!(
            after < before - 0.05,
            "500 attempts at α=0.3 should visibly dephase: {before} → {after}"
        );
    }

    #[test]
    fn generation_dephasing_skips_electron_half() {
        let nv = NvParams::table6();
        let mut p = fresh_pair();
        let before = p.fidelity(BellState::PsiPlus);
        p.apply_generation_dephasing(Side::A, &nv, 0.3, 500);
        assert_eq!(p.fidelity(BellState::PsiPlus), before);
    }

    #[test]
    fn dephasing_composition_matches_paper_decay() {
        // Eq. (26): after N attempts the in-plane Bloch component is
        // scaled by (1−2p)ᴺ under our channel convention (see module
        // docs in quantum::channels).
        let nv = NvParams::table6();
        let alpha = 0.2;
        let pd = nv.generation_dephasing(alpha);
        let n = 300u32;
        let mut p = fresh_pair();
        p.move_to_carbon(Side::A, &nv);
        // The |01⟩⟨10| coherence element decays by exactly (1−2p)ᴺ
        // under repeated dephasing of one half.
        let c0 = p.state().density()[(1, 2)].abs();
        p.apply_generation_dephasing(Side::A, &nv, alpha, n);
        let c1 = p.state().density()[(1, 2)].abs();
        let factor = c1 / c0;
        let expected = (1.0 - 2.0 * pd).powi(n as i32);
        assert!(
            (factor - expected).abs() < 1e-9,
            "coherence factor {factor} vs expected {expected}"
        );
    }

    #[test]
    fn psi_minus_correction_converts_state() {
        let mut p = PairState::new(BellState::PsiMinus.state(), SimTime::ZERO);
        p.apply_psi_minus_correction(Side::A);
        assert!((p.fidelity(BellState::PsiPlus) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_correlations() {
        let mut rng = DetRng::new(11);
        let mut agree = 0;
        for _ in 0..200 {
            let mut p = fresh_pair();
            let a = p.measure(Side::A, Basis::Z, &mut rng);
            let b = p.measure(Side::B, Basis::Z, &mut rng);
            if a == b {
                agree += 1;
            }
        }
        // |Ψ+⟩ is perfectly anti-correlated in Z.
        assert_eq!(agree, 0);
    }
}
