//! The single-click entanglement attempt, end to end.
//!
//! Composes the full noise chain of Appendix D.4 into an
//! [`AttemptModel`]: electron initialization noise → spin-photon
//! entanglement at bright-state population `α` → two-photon-emission
//! dephasing (D.4.3) → optical-phase-uncertainty dephasing (D.4.2, via
//! the Bessel ratio of eq. (28)) → photonic amplitude damping from the
//! finite detection window (eq. (30)), collection losses (eq. (31)) and
//! fiber transmission (eq. (33)) → beam-splitter POVM for partially
//! distinguishable photons (D.5) → detector efficiency and dark counts
//! (D.4.8).
//!
//! The two arms run everything up to the photon loss as one chain (it
//! depends only on `α` and the optics); each then loses its photon over
//! its own fibre, and arms of equal length are one state.
//!
//! The result — outcome probabilities plus conditional post-herald
//! electron-electron states — is exact for one attempt, so the DES can
//! *sample* attempts in O(1) instead of re-running the chain millions
//! of times. Success probabilities are ~1e-4 (§4.4: `psucc ≈ α·10⁻³`),
//! so this caching is what makes laptop-scale runs of the paper's
//! 169-scenario evaluation possible.

use crate::params::ScenarioParams;
use crate::station::{herald_distribution, BeamSplitter, DetectorModel};
use qlink_des::{DetRng, IntMap};
use qlink_math::bessel::phase_uncertainty_dephasing;
use qlink_quantum::bell::{bell_fidelity, BellState};
use qlink_quantum::channels;
use qlink_quantum::gates;
use qlink_quantum::{Basis, QuantumState};
use std::sync::{Arc, Mutex, MutexGuard};

/// Observed outcome of one attempt, as heralded by the station.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttemptOutcome {
    /// No entanglement (no click, or both detectors clicked).
    Fail,
    /// Left detector clicked: `|Ψ+⟩` heralded.
    PsiPlus,
    /// Right detector clicked: `|Ψ−⟩` heralded.
    PsiMinus,
}

impl AttemptOutcome {
    /// `true` for either heralded state.
    pub fn is_success(self) -> bool {
        !matches!(self, AttemptOutcome::Fail)
    }

    /// The Bell state this outcome heralds.
    ///
    /// # Panics
    /// Panics on [`AttemptOutcome::Fail`].
    pub fn bell_state(self) -> BellState {
        match self {
            AttemptOutcome::PsiPlus => BellState::PsiPlus,
            AttemptOutcome::PsiMinus => BellState::PsiMinus,
            AttemptOutcome::Fail => panic!("Fail heralds no state"),
        }
    }
}

/// Builds the noisy spin-photon state of one arm:
/// `√α|0⟩_C|1⟩_P + √(1−α)|1⟩_C|0⟩_P` plus the arm's noise processes.
/// Register order `[electron, photon]`.
pub fn arm_state(params: &ScenarioParams, alpha: f64, arm_km: f64) -> QuantumState {
    let mut s = emission(params, alpha);
    lose_photon(&mut s, params, arm_km);
    s
}

/// The chain both arms share, everything but the photon loss: the
/// spin-photon entanglement at `α` and its two dephasings.
fn emission(params: &ScenarioParams, alpha: f64) -> QuantumState {
    assert!((0.0..=1.0).contains(&alpha), "alpha {alpha}");
    let o = &params.optics;
    let mut s = QuantumState::ground(2);
    // Note: electron-initialization noise is deliberately *not* part of
    // this chain. Appendix D.4 enumerates the noise processes of
    // entanglement generation (nuclear dephasing, phase uncertainty,
    // two-photon emission, emission window, collection, transmission,
    // distinguishability, detector errors) and initialization is not
    // among them — in the single-click scheme residual pumping error is
    // absorbed into the calibrated bright-state population α. The
    // Table 6 initialization fidelities apply to gate-level operations
    // (e.g. the carbon init inside the move-to-memory path).

    // Microwave preparation into √α|0⟩ + √(1−α)|1⟩ (perfect single-qubit
    // gate per Table 6), then photon emission conditioned on the bright
    // state |0⟩: |0⟩→|0,1⟩, |1⟩→|1,0⟩.
    let theta = 2.0 * alpha.sqrt().acos(); // RY(θ)|0⟩ = cosθ/2|0⟩+sinθ/2|1⟩ with cosθ/2 = √α
    s.apply_unitary(&gates::ry(theta), &[0]);
    s.apply_unitary(&gates::x(), &[1]);
    s.apply_unitary(&gates::cnot(), &[0, 1]);

    // Two-photon emission (D.4.3): dephasing on the electron; the 4%
    // double-emission probability destroys that much coherence, i.e.
    // dephasing with p = p₂/2 so the off-diagonals shrink by (1 − p₂).
    s.apply_kraus(&channels::dephasing(o.two_photon_prob / 2.0), &[0]);

    // Optical-phase uncertainty (D.4.2, eq. (28)) on the photon.
    let pd = phase_uncertainty_dephasing(o.phase_sigma_rad);
    s.apply_kraus(&channels::dephasing(pd), &[1]);
    s
}

/// Photon loss on the arm's photon: finite window (eq. 30), collection
/// (eq. 31) and fiber transmission (eq. 33) compose into one amplitude
/// damping.
fn lose_photon(s: &mut QuantumState, params: &ScenarioParams, arm_km: f64) {
    let o = &params.optics;
    let survival = (1.0 - o.window_damping())
        * (1.0 - o.collection_damping())
        * (1.0 - o.transmission_damping(arm_km));
    s.apply_kraus(&channels::amplitude_damping(1.0 - survival), &[1]);
}

/// The exact per-attempt behaviour at a given `(scenario, α)`.
#[derive(Debug, Clone)]
pub struct AttemptModel {
    alpha: f64,
    /// `P(fail)`, `P(Ψ+)`, `P(Ψ−)` over *observed* outcomes.
    p_fail: f64,
    p_psi_plus: f64,
    p_psi_minus: f64,
    cond_plus: Option<QuantumState>,
    cond_minus: Option<QuantumState>,
    readout_f0: f64,
    readout_f1: f64,
}

impl AttemptModel {
    /// Runs the full noise chain once and stores the distribution.
    pub fn build(params: &ScenarioParams, alpha: f64) -> Self {
        // The arms share their chain up to the photon loss; equal arms
        // (Lab) are one state.
        let mut arm_a = emission(params, alpha);
        let arm_b = (params.arm_b_km != params.arm_a_km).then(|| {
            let mut arm_b = arm_a.clone();
            lose_photon(&mut arm_b, params, params.arm_b_km);
            arm_b
        });
        lose_photon(&mut arm_a, params, params.arm_a_km);
        let joint = arm_a.tensor(arm_b.as_ref().unwrap_or(&arm_a)); // [eA, pA, eB, pB]

        let bs = BeamSplitter::new(params.optics.visibility);
        let det = DetectorModel {
            efficiency: params.optics.detector_efficiency,
            dark_prob: params.optics.dark_count_prob(),
        };
        let dist = herald_distribution(&joint, &bs, &det);

        // Indexed by `ClickPattern::ALL`: None, Left (Ψ+), Right (Ψ−), Both.
        let [p_none, p_psi_plus, p_psi_minus, p_both] = dist.probs;
        let [_, cond_plus, cond_minus, _] = dist.states;
        AttemptModel {
            alpha,
            p_fail: p_none + p_both,
            p_psi_plus,
            p_psi_minus,
            cond_plus,
            cond_minus,
            readout_f0: params.nv.readout_f0,
            readout_f1: params.nv.readout_f1,
        }
    }

    /// Builds a model with hand-chosen outcome probabilities and
    /// conditional states.
    ///
    /// Intended for protocol tests and deterministic examples where the
    /// realistic `psucc ≈ α·10⁻³` would require millions of cycles;
    /// readout noise defaults to the Table 6 values.
    ///
    /// # Panics
    /// Panics if the success probabilities are invalid or a state is
    /// not a two-qubit state.
    pub fn synthetic(
        p_psi_plus: f64,
        p_psi_minus: f64,
        cond_plus: QuantumState,
        cond_minus: QuantumState,
        alpha: f64,
    ) -> Self {
        assert!(p_psi_plus >= 0.0 && p_psi_minus >= 0.0 && p_psi_plus + p_psi_minus <= 1.0);
        assert_eq!(cond_plus.num_qubits(), 2);
        assert_eq!(cond_minus.num_qubits(), 2);
        AttemptModel {
            alpha,
            p_fail: 1.0 - p_psi_plus - p_psi_minus,
            p_psi_plus,
            p_psi_minus,
            cond_plus: Some(cond_plus),
            cond_minus: Some(cond_minus),
            readout_f0: 0.95,
            readout_f1: 0.995,
        }
    }

    /// The bright-state population this model was built for.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Probability that one attempt heralds success (either state).
    pub fn success_probability(&self) -> f64 {
        self.p_psi_plus + self.p_psi_minus
    }

    /// Probability of a specific observed outcome.
    pub fn outcome_probability(&self, outcome: AttemptOutcome) -> f64 {
        match outcome {
            AttemptOutcome::Fail => self.p_fail,
            AttemptOutcome::PsiPlus => self.p_psi_plus,
            AttemptOutcome::PsiMinus => self.p_psi_minus,
        }
    }

    /// Conditional two-electron state `[e_A, e_B]` for a success
    /// outcome (`None` if that outcome has zero probability).
    pub fn conditional_state(&self, outcome: AttemptOutcome) -> Option<&QuantumState> {
        match outcome {
            AttemptOutcome::PsiPlus => self.cond_plus.as_ref(),
            AttemptOutcome::PsiMinus => self.cond_minus.as_ref(),
            AttemptOutcome::Fail => None,
        }
    }

    /// Fidelity of the heralded conditional state against its target
    /// Bell state, at emission time (before any storage decoherence).
    pub fn heralded_fidelity(&self, outcome: AttemptOutcome) -> f64 {
        match self.conditional_state(outcome) {
            Some(s) => bell_fidelity(s, (0, 1), outcome.bell_state()),
            None => 0.0,
        }
    }

    /// Success-probability-weighted average heralded fidelity.
    pub fn average_heralded_fidelity(&self) -> f64 {
        let ps = self.success_probability();
        if ps == 0.0 {
            return 0.0;
        }
        (self.p_psi_plus * self.heralded_fidelity(AttemptOutcome::PsiPlus)
            + self.p_psi_minus * self.heralded_fidelity(AttemptOutcome::PsiMinus))
            / ps
    }

    /// Samples one attempt's observed outcome.
    pub fn sample(&self, rng: &mut DetRng) -> AttemptOutcome {
        let total = self.p_fail + self.p_psi_plus + self.p_psi_minus;
        let draw = rng.uniform() * total;
        if draw < self.p_psi_plus {
            AttemptOutcome::PsiPlus
        } else if draw < self.p_psi_plus + self.p_psi_minus {
            AttemptOutcome::PsiMinus
        } else {
            AttemptOutcome::Fail
        }
    }

    /// Samples the two nodes' measure-directly outcomes for a heralded
    /// success: each electron measured in its node's basis, with the
    /// asymmetric readout noise of eq. (23) (`f0`, `f1` from Table 6).
    ///
    /// # Panics
    /// Panics if `outcome` is `Fail` (no bits exist for failures).
    pub fn sample_measurement_bits(
        &self,
        outcome: AttemptOutcome,
        basis_a: Basis,
        basis_b: Basis,
        rng: &mut DetRng,
    ) -> (u8, u8) {
        let state = self
            .conditional_state(outcome)
            .expect("sampling bits for a failed attempt");
        let mut s = state.clone();
        // One batched draw for both projective measurements — the same
        // stream as two sequential draws, hoisted out of the collapses.
        let [u_a, u_b] = rng.uniform_batch();
        let true_a = s.measure_qubit_given(0, basis_a, u_a);
        let true_b = s.measure_qubit_given(1, basis_b, u_b);
        (
            self.noisy_readout(true_a, rng),
            self.noisy_readout(true_b, rng),
        )
    }

    /// Applies the asymmetric readout error of eq. (23) to a true bit.
    fn noisy_readout(&self, true_bit: u8, rng: &mut DetRng) -> u8 {
        let flip_prob = if true_bit == 0 {
            1.0 - self.readout_f0
        } else {
            1.0 - self.readout_f1
        };
        if rng.bernoulli(flip_prob) {
            true_bit ^ 1
        } else {
            true_bit
        }
    }
}

/// One hardware profile's models, by `α` bits.
#[derive(Debug)]
struct Profile {
    params: ScenarioParams,
    models: IntMap<u64, Arc<AttemptModel>>,
}

#[derive(Debug, Default)]
struct Table {
    /// One entry per distinct [`ScenarioParams`] asked for, found by
    /// `PartialEq` (a handful at most: one per hardware profile of a
    /// topology), so no `f64` field is ever hashed.
    profiles: Vec<Profile>,
    lookups: u64,
}

/// A handle to one table of attempt models keyed by
/// `(ScenarioParams, α bits)`; building a model costs a few 16×16
/// matrix chains, sampling from it is O(1).
///
/// Cloning the handle shares the table: whoever derives physics for
/// the same hardware — the two EGPs of a link, the station, every
/// link of a network, its route planner — is handed a clone and each
/// `(params, α)` model is built once between them. The table is owned
/// by its handles and dies with the last one; it is deliberately not
/// process-wide, so [`ModelCache::new`] always starts cold and a run
/// pays for exactly the models it uses.
#[derive(Debug, Clone, Default)]
pub struct ModelCache {
    table: Arc<Mutex<Table>>,
}

impl ModelCache {
    /// Creates a handle to a new, empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        self.table
            .lock()
            .expect("a thread panicked while building an attempt model")
    }

    /// Returns (building if necessary) the model for `(params, α)`.
    pub fn get(&self, params: &ScenarioParams, alpha: f64) -> Arc<AttemptModel> {
        let mut table = self.table();
        table.lookups += 1;
        let profile = match table.profiles.iter().position(|p| p.params == *params) {
            Some(i) => &mut table.profiles[i],
            None => {
                table.profiles.push(Profile {
                    params: params.clone(),
                    models: IntMap::default(),
                });
                table.profiles.last_mut().expect("pushed above")
            }
        };
        profile
            .models
            .entry(alpha.to_bits())
            .or_insert_with(|| Arc::new(AttemptModel::build(params, alpha)))
            .clone()
    }

    /// Number of distinct `(params, α)` models built so far.
    pub fn len(&self) -> usize {
        self.table().profiles.iter().map(|p| p.models.len()).sum()
    }

    /// `true` if no models have been built.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls to [`ModelCache::get`] so far through any handle to this
    /// table, hits and misses alike — how a test counts the physics
    /// derivations a code path performed without timing it.
    pub fn lookups(&self) -> u64 {
        self.table().lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ScenarioParams;
    use qlink_quantum::bell::Qber;

    #[test]
    fn lab_success_probability_matches_paper_scale() {
        // §4.4: Lab psucc ≈ α·10⁻³ (order of magnitude; the hardware
        // plot of Fig. 8 shows psucc(α=0.5) ≈ 3·10⁻⁴).
        let p = ScenarioParams::lab();
        for alpha in [0.1, 0.3, 0.5] {
            let m = AttemptModel::build(&p, alpha);
            let ratio = m.success_probability() / alpha;
            assert!(
                (2e-4..2e-3).contains(&ratio),
                "α={alpha}: psucc/α = {ratio:e}"
            );
        }
    }

    #[test]
    fn ql2020_success_probability_matches_paper_scale() {
        // §4.4: cavities + conversion give psucc ≈ α·10⁻³ on QL2020 too.
        let p = ScenarioParams::ql2020();
        let m = AttemptModel::build(&p, 0.3);
        let ratio = m.success_probability() / 0.3;
        assert!((2e-4..2e-3).contains(&ratio), "psucc/α = {ratio:e}");
    }

    #[test]
    fn fidelity_tracks_one_minus_alpha() {
        // §4.4: F ≈ 1 − α (ignoring memory lifetimes and other errors).
        // With the full noise chain F sits below 1 − α but must track it.
        let p = ScenarioParams::lab();
        let mut prev = 1.0;
        for alpha in [0.05, 0.1, 0.2, 0.3, 0.4, 0.5] {
            let m = AttemptModel::build(&p, alpha);
            let f = m.average_heralded_fidelity();
            assert!(f < prev, "fidelity must decrease with α");
            assert!(
                f <= 1.0 - alpha + 0.02 && f >= (1.0 - alpha) - 0.18,
                "α={alpha}: F = {f}, 1−α = {}",
                1.0 - alpha
            );
            prev = f;
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let p = ScenarioParams::lab();
        let m = AttemptModel::build(&p, 0.2);
        let total = m.outcome_probability(AttemptOutcome::Fail)
            + m.outcome_probability(AttemptOutcome::PsiPlus)
            + m.outcome_probability(AttemptOutcome::PsiMinus);
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_herald_outcomes_roughly_balanced() {
        let p = ScenarioParams::lab();
        let m = AttemptModel::build(&p, 0.3);
        let plus = m.outcome_probability(AttemptOutcome::PsiPlus);
        let minus = m.outcome_probability(AttemptOutcome::PsiMinus);
        let ratio = plus / minus;
        assert!((0.8..1.25).contains(&ratio), "Ψ+/Ψ− ratio {ratio}");
    }

    #[test]
    fn sampling_matches_distribution() {
        let p = ScenarioParams::lab();
        let m = AttemptModel::build(&p, 0.4);
        let mut rng = DetRng::new(7);
        let n = 200_000;
        let successes = (0..n).filter(|_| m.sample(&mut rng).is_success()).count();
        let expected = m.success_probability() * n as f64;
        let sigma = (expected * (1.0 - m.success_probability())).sqrt();
        assert!(
            ((successes as f64) - expected).abs() < 5.0 * sigma + 5.0,
            "successes {successes}, expected {expected:.1} ± {sigma:.1}"
        );
    }

    #[test]
    fn conditional_qber_consistent_with_fidelity() {
        // Eq. (16) must hold for the conditional states.
        let p = ScenarioParams::ql2020();
        let m = AttemptModel::build(&p, 0.2);
        for outcome in [AttemptOutcome::PsiPlus, AttemptOutcome::PsiMinus] {
            let s = m.conditional_state(outcome).unwrap();
            let q = Qber::of_state(s, (0, 1), outcome.bell_state());
            let f_direct = m.heralded_fidelity(outcome);
            assert!(
                (q.fidelity() - f_direct).abs() < 1e-9,
                "{outcome:?}: eq16 {} vs direct {f_direct}",
                q.fidelity()
            );
        }
    }

    #[test]
    fn measurement_bits_anticorrelated_in_z_for_psi_states() {
        // |Ψ±⟩ are anti-correlated in Z; with readout noise the
        // disagreement rate stays near 1 − small error.
        let p = ScenarioParams::lab();
        let m = AttemptModel::build(&p, 0.1);
        let mut rng = DetRng::new(3);
        let mut disagree = 0;
        let n = 2_000;
        for _ in 0..n {
            let (a, b) =
                m.sample_measurement_bits(AttemptOutcome::PsiPlus, Basis::Z, Basis::Z, &mut rng);
            if a != b {
                disagree += 1;
            }
        }
        let rate = disagree as f64 / n as f64;
        assert!(rate > 0.75, "Z-basis disagreement rate {rate}");
    }

    #[test]
    fn readout_noise_is_asymmetric() {
        let p = ScenarioParams::lab();
        let m = AttemptModel::build(&p, 0.1);
        let mut rng = DetRng::new(5);
        // True 0 flips with 1−f0 = 5%; true 1 flips with 1−f1 = 0.5%.
        let mut flips0 = 0;
        let mut flips1 = 0;
        let n = 20_000;
        for _ in 0..n {
            if m.noisy_readout(0, &mut rng) == 1 {
                flips0 += 1;
            }
            if m.noisy_readout(1, &mut rng) == 0 {
                flips1 += 1;
            }
        }
        let r0 = flips0 as f64 / n as f64;
        let r1 = flips1 as f64 / n as f64;
        assert!((r0 - 0.05).abs() < 0.01, "f0 flip rate {r0}");
        assert!((r1 - 0.005).abs() < 0.004, "f1 flip rate {r1}");
    }

    #[test]
    fn cache_reuses_models() {
        let p = ScenarioParams::lab();
        let cache = ModelCache::new();
        let a = cache.get(&p, 0.3);
        let b = cache.get(&p, 0.3);
        assert!(Arc::ptr_eq(&a, &b));
        let _c = cache.get(&p, 0.31);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookups(), 3);
    }

    #[test]
    fn cache_keys_on_the_parameters_as_well_as_alpha() {
        // One table asked for two hardware profiles at the same α must
        // not hand the first profile's model to the second.
        let cache = ModelCache::new();
        let lab = cache.get(&ScenarioParams::lab(), 0.2);
        let ql = cache.get(&ScenarioParams::ql2020(), 0.2);
        assert_ne!(lab.success_probability(), ql.success_probability());
        assert_eq!(
            ql.success_probability(),
            AttemptModel::build(&ScenarioParams::ql2020(), 0.2).success_probability()
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cloned_handles_share_one_table() {
        let p = ScenarioParams::lab();
        let cache = ModelCache::new();
        let clone = cache.clone();
        let a = cache.get(&p, 0.3);
        let b = clone.get(&p, 0.3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(clone.len(), 1);
        // A fresh handle starts cold: nothing is process-wide.
        assert!(ModelCache::new().is_empty());
    }

    #[test]
    fn ql2020_asymmetric_arms_still_herald() {
        let p = ScenarioParams::ql2020();
        let m = AttemptModel::build(&p, 0.25);
        assert!(m.success_probability() > 0.0);
        let f = m.average_heralded_fidelity();
        assert!(f > 0.6, "QL2020 heralded fidelity {f}");
    }
}
