//! The Fidelity Estimation Unit (§5.2.3).
//!
//! The FEU answers two questions for the EGP:
//!
//! 1. *Forward*: given generation parameters (α) and the request type,
//!    what fidelity will the delivered pair have? For K-type requests
//!    this includes the electron decoherence while waiting for the
//!    midpoint reply and the gate noise of the move to memory; for
//!    M-type it includes the readout errors that enter the QBER the
//!    application sees.
//! 2. *Inverse*: given a requested `Fmin`, which α achieves it (the
//!    fidelity/rate trade-off of §4.4), and how long will the request
//!    take? If no α does, the request is rejected UNSUPP.
//!
//! The estimate comes from known hardware capabilities (the attempt
//! model) alone: a link is characterised once, and no run takes the
//! test rounds of Appendix B.

use qlink_des::{IntMap, SimTime};
use qlink_math::solve::{bisect, BisectResult};
use qlink_phys::attempt::{AttemptModel, AttemptOutcome, ModelCache};
use qlink_phys::pair::{PairState, Side};
use qlink_phys::params::ScenarioParams;
use qlink_quantum::bell::{BellState, Qber};
use qlink_wire::fields::RequestType;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// The FEU's answer to "serve `Fmin` with request type T".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeuChoice {
    /// Bright-state population to use.
    pub alpha: f64,
    /// Predicted delivered fidelity (the OK's Goodness); ≥ `Fmin`.
    pub goodness: f64,
    /// Expected MHP cycles to deliver one pair (`E / psucc`).
    pub est_cycles_per_pair: u64,
}

/// Smallest α the hardware can be calibrated for.
const ALPHA_MIN: f64 = 0.01;
/// Largest useful α (beyond 0.5 the "bright" state dominates and
/// fidelity collapses).
const ALPHA_MAX: f64 = 0.5;
/// Safety margin added on top of `Fmin` when choosing α (clamped near
/// the achievable ceiling). The paper's runs deliver average fidelities
/// well above the requested minimum (e.g. MD ≈ 0.71–0.78 at
/// `Fmin = 0.64`), implying a conservative FEU; 0.08 reproduces those
/// operating points.
const SAFETY_MARGIN: f64 = 0.08;
/// How close to the fidelity ceiling the margined target may get
/// (prevents the margin from collapsing α to [`ALPHA_MIN`]).
const CEILING_GUARD: f64 = 0.02;

/// The plain bisection `qlink_math::solve` keeps as its oracle.
#[cfg(test)]
#[path = "../../math/src/solve/plain.rs"]
mod plain;

/// A root finder with [`bisect`]'s signature.
type Solver = fn(&mut dyn FnMut(f64) -> f64, f64, f64, f64, u32) -> BisectResult;

/// What every handle to one FEU reads and fills.
struct Shared {
    params: ScenarioParams,
    models: ModelCache,
    /// Every [`FidelityEstimator::choose_alpha`] answer so far by
    /// `Fmin` bits, K-type then M-type; UNSUPP (`None`) included.
    choices: Mutex<[IntMap<u64, Option<FeuChoice>>; 2]>,
}

/// The Fidelity Estimation Unit of one hardware profile.
///
/// A handle: cloning it shares the attempt models and the
/// `Fmin → α` answers derived so far, so the two EGPs of a link — and
/// every link of a network built on the same [`ScenarioParams`] —
/// characterise the hardware once between them (§5.2.3: the estimate
/// comes from *known* hardware capabilities). Nothing is process-wide:
/// [`FidelityEstimator::new`] always starts cold.
///
/// The inversion reads nothing but the parameters, its two arguments
/// and four constants (the α range, the safety margin, the ceiling
/// guard) that are deliberately not settable, which is what makes
/// remembering its answers exact.
#[derive(Clone)]
pub struct FidelityEstimator {
    shared: Arc<Shared>,
}

/// The tables behind the handle remember pure functions of the profile
/// and are no one's state: a handle shows the profile alone.
impl fmt::Debug for FidelityEstimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FidelityEstimator")
            .field("params", self.params())
            .finish_non_exhaustive()
    }
}

impl FidelityEstimator {
    /// Creates the FEU for a physical scenario over a table of its own.
    pub fn new(params: ScenarioParams) -> Self {
        Self::with_models(params, ModelCache::new())
    }

    /// Creates the FEU for a physical scenario over the attempt models
    /// `models` already holds (and will hold: every model this FEU
    /// builds lands there).
    pub fn with_models(params: ScenarioParams, models: ModelCache) -> Self {
        FidelityEstimator {
            shared: Arc::new(Shared {
                params,
                models,
                choices: Mutex::default(),
            }),
        }
    }

    /// The physical scenario this FEU models.
    pub fn params(&self) -> &ScenarioParams {
        &self.shared.params
    }

    /// The table of attempt models this FEU derives from.
    pub fn models(&self) -> &ModelCache {
        &self.shared.models
    }

    /// Smallest α the hardware can be calibrated for: where the
    /// achievability ceiling is read, and what an UNSUPP fallback uses.
    pub fn alpha_min(&self) -> f64 {
        ALPHA_MIN
    }

    /// The attempt model at `alpha` (built on first use).
    pub fn model(&self, alpha: f64) -> Arc<AttemptModel> {
        self.shared.models.get(&self.shared.params, alpha)
    }

    /// Success probability of one attempt at `alpha`.
    pub fn success_probability(&mut self, alpha: f64) -> f64 {
        self.model(alpha).success_probability()
    }

    /// Predicted *delivered* fidelity at `alpha` for a request type.
    pub fn delivered_fidelity(&mut self, alpha: f64, rtype: RequestType) -> f64 {
        let model = self.model(alpha);
        let params = self.params();
        match rtype {
            RequestType::Measure => {
                // The MD application sees QBERs that include readout
                // errors (eq. (23)); convert to fidelity via eq. (16).
                let state = match model.conditional_state(AttemptOutcome::PsiPlus) {
                    Some(s) => s,
                    None => return 0.0,
                };
                let q = Qber::of_state(state, (0, 1), BellState::PsiPlus);
                let e = readout_flip_prob(params);
                // Per-side readout flips: a recorded disagreement stays a
                // disagreement iff zero or both bits flipped, so
                // q' = q·stay + (1−q)·(1−stay) with
                // stay = (1−e)² + e².
                let flip2 = |q: f64| {
                    let stay = (1.0 - e) * (1.0 - e) + e * e;
                    q * stay + (1.0 - q) * (1.0 - stay)
                };
                Qber {
                    x: flip2(q.x),
                    y: flip2(q.y),
                    z: flip2(q.z),
                }
                .fidelity()
            }
            RequestType::Keep => {
                // Replay the K delivery path on the conditional state:
                // electron storage while the reply travels, then the
                // move to carbon at both nodes.
                let state = match model.conditional_state(AttemptOutcome::PsiPlus) {
                    Some(s) => s.clone(),
                    None => return 0.0,
                };
                let mut pair = PairState::new(state, SimTime::ZERO);
                let wait = params.reply_latency();
                pair.advance_to(SimTime::ZERO + wait, &params.nv);
                pair.move_to_carbon(Side::A, &params.nv);
                pair.move_to_carbon(Side::B, &params.nv);
                // The 1040 µs move runs under dynamical decoupling
                // (D.2.2); its noise is in the gate fidelities above.
                let move_d = qlink_des::SimDuration::from_secs_f64(params.nv.move_duration_s);
                pair.skip_decoupled(SimTime::ZERO + wait + move_d);
                pair.fidelity(BellState::PsiPlus)
            }
        }
    }

    /// Inverts `Fmin → α` (§5.2.5: "query the FEU to obtain hardware
    /// parameters (α)"). Returns `None` when the fidelity is not
    /// achievable at any α — the UNSUPP path. Each `(Fmin, type)` is
    /// inverted once per FEU, whichever handle asks first.
    pub fn choose_alpha(&mut self, fmin: f64, rtype: RequestType) -> Option<FeuChoice> {
        let slot = match rtype {
            RequestType::Keep => 0,
            RequestType::Measure => 1,
        };
        if let Some(&known) = self.choices()[slot].get(&fmin.to_bits()) {
            return known;
        }
        let choice = self.invert(fmin, rtype, |f, lo, hi, xtol, max_iter| {
            bisect(f, lo, hi, xtol, max_iter)
        });
        self.choices()[slot].insert(fmin.to_bits(), choice);
        choice
    }

    fn choices(&self) -> MutexGuard<'_, [IntMap<u64, Option<FeuChoice>>; 2]> {
        self.shared
            .choices
            .lock()
            .expect("a thread panicked while recording an FEU choice")
    }

    /// The bisection behind [`FidelityEstimator::choose_alpha`], through
    /// `solve`: [`bisect`], or in tests the plain bisection it replays.
    fn invert(&mut self, fmin: f64, rtype: RequestType, solve: Solver) -> Option<FeuChoice> {
        let (lo, hi) = (ALPHA_MIN, ALPHA_MAX);
        let ceiling = self.delivered_fidelity(lo, rtype);
        if ceiling < fmin {
            return None; // even the gentlest α cannot reach Fmin
        }
        // Aim above Fmin by the safety margin, but never so close to
        // the ceiling that α collapses to the minimum; never below
        // Fmin itself.
        let target = fmin.max((fmin + SAFETY_MARGIN).min(ceiling - CEILING_GUARD));
        // delivered_fidelity decreases with α; find the largest α that
        // still meets the target (fastest acceptable generation).
        let result = solve(
            &mut |a| self.delivered_fidelity(a, rtype) - target,
            lo,
            hi,
            1e-4,
            60,
        );
        let alpha = if result.converged() {
            // Step back half a tolerance so goodness ≥ Fmin strictly.
            (result.value() - 1e-4).clamp(lo, hi)
        } else {
            // No crossing: even α_max satisfies Fmin.
            hi
        };
        let goodness = self.delivered_fidelity(alpha, rtype);
        debug_assert!(goodness >= fmin - 1e-6);
        let psucc = self.success_probability(alpha);
        if psucc <= 0.0 {
            return None;
        }
        let e = match rtype {
            RequestType::Keep => self.params().expected_cycles_per_attempt_keep(),
            RequestType::Measure => self.params().expected_cycles_per_attempt_measure(),
        };
        Some(FeuChoice {
            alpha,
            goodness,
            est_cycles_per_pair: (e / psucc).ceil() as u64,
        })
    }

    /// Expected cycles to complete `pairs` pairs at `choice` — the
    /// "minimum completion time" checked against `tmax` (UNSUPP path
    /// of §5.2.5).
    pub fn estimate_completion_cycles(&self, choice: &FeuChoice, pairs: u16) -> u64 {
        choice.est_cycles_per_pair.saturating_mul(pairs as u64)
    }
}

/// Average single-shot readout flip probability of the node
/// (the mean of `1−f0` and `1−f1` from Table 6).
fn readout_flip_prob(params: &ScenarioParams) -> f64 {
    ((1.0 - params.nv.readout_f0) + (1.0 - params.nv.readout_f1)) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlink_phys::params::ScenarioParams;

    #[test]
    fn delivered_fidelity_decreases_with_alpha() {
        let mut feu = FidelityEstimator::new(ScenarioParams::lab());
        for rtype in [RequestType::Keep, RequestType::Measure] {
            let mut prev = 1.0;
            for alpha in [0.05, 0.1, 0.2, 0.3, 0.4] {
                let f = feu.delivered_fidelity(alpha, rtype);
                assert!(f < prev, "{rtype:?} α={alpha}: {f} ≥ {prev}");
                prev = f;
            }
        }
    }

    #[test]
    fn keep_costs_more_fidelity_than_measure() {
        // The K path adds storage decoherence and move noise.
        let mut feu = FidelityEstimator::new(ScenarioParams::ql2020());
        let fk = feu.delivered_fidelity(0.1, RequestType::Keep);
        let fm = feu.delivered_fidelity(0.1, RequestType::Measure);
        assert!(fk < fm, "K {fk} should be below M {fm}");
    }

    #[test]
    fn ql2020_keep_is_worse_than_lab_keep() {
        // 145 µs of electron storage while the reply travels (§6.2's
        // lower QL2020 NL/CK fidelities).
        let mut lab = FidelityEstimator::new(ScenarioParams::lab());
        let mut ql = FidelityEstimator::new(ScenarioParams::ql2020());
        let f_lab = lab.delivered_fidelity(0.1, RequestType::Keep);
        let f_ql = ql.delivered_fidelity(0.1, RequestType::Keep);
        assert!(f_ql < f_lab, "QL2020 {f_ql} vs Lab {f_lab}");
    }

    #[test]
    fn choose_alpha_meets_fmin() {
        let mut feu = FidelityEstimator::new(ScenarioParams::lab());
        for rtype in [RequestType::Keep, RequestType::Measure] {
            let choice = feu.choose_alpha(0.6, rtype).expect("0.6 is achievable");
            assert!(choice.goodness >= 0.6 - 1e-6, "{rtype:?}: {choice:?}");
            assert!(choice.alpha > feu.alpha_min());
            assert!(choice.est_cycles_per_pair > 100);
        }
    }

    #[test]
    fn higher_fmin_means_lower_alpha_and_more_cycles() {
        // Fig. 6(c): throughput scales (inversely) with Fmin.
        let mut feu = FidelityEstimator::new(ScenarioParams::ql2020());
        let loose = feu.choose_alpha(0.55, RequestType::Measure).unwrap();
        let tight = feu.choose_alpha(0.7, RequestType::Measure).unwrap();
        assert!(tight.alpha < loose.alpha);
        assert!(tight.est_cycles_per_pair > loose.est_cycles_per_pair);
    }

    #[test]
    fn unachievable_fidelity_is_unsupported() {
        let mut feu = FidelityEstimator::new(ScenarioParams::ql2020());
        assert!(feu.choose_alpha(0.95, RequestType::Keep).is_none());
    }

    #[test]
    fn a_repeated_inversion_derives_nothing() {
        // Counted through the table, not timed: every
        // `delivered_fidelity` evaluation looks its model up there.
        let mut feu = FidelityEstimator::new(ScenarioParams::ql2020());
        let mut peer = feu.clone();
        for (fmin, rtype) in [
            (0.6, RequestType::Measure),
            (0.5, RequestType::Keep),
            (0.95, RequestType::Keep), // UNSUPP is an answer too
        ] {
            let first = feu.choose_alpha(fmin, rtype);
            let (models, lookups) = (feu.models().len(), feu.models().lookups());
            assert!(lookups > 0, "the first call did derive");
            assert_eq!(feu.choose_alpha(fmin, rtype), first);
            assert_eq!(peer.choose_alpha(fmin, rtype), first, "a clone shares it");
            assert_eq!(feu.models().len(), models, "no model built");
            assert_eq!(feu.models().lookups(), lookups, "no bisection run");
        }
        // Same Fmin, other type: a different question.
        let lookups = feu.models().lookups();
        assert_ne!(
            feu.choose_alpha(0.6, RequestType::Keep),
            feu.choose_alpha(0.6, RequestType::Measure)
        );
        assert!(feu.models().lookups() > lookups);
        // And nothing is process-wide: a new FEU starts cold.
        assert!(FidelityEstimator::new(ScenarioParams::ql2020())
            .models()
            .is_empty());
    }

    /// Every `Fmin → α` answer is the plain bisection's, bit for bit, and
    /// a cold inversion that bisects builds fewer attempt models (UNSUPP
    /// builds one either way: the ceiling's).
    #[test]
    fn the_inversion_matches_the_plain_bisection_from_fewer_models() {
        let oracle: Solver = |f, lo, hi, xtol, max_iter| plain::bisect(f, lo, hi, xtol, max_iter);
        for params in [ScenarioParams::lab(), ScenarioParams::ql2020()] {
            for rtype in [RequestType::Keep, RequestType::Measure] {
                for step in 100..=198 {
                    let fmin = f64::from(step) / 200.0;
                    let mut feu = FidelityEstimator::new(params.clone());
                    let mut plain = FidelityEstimator::new(params.clone());
                    let got = feu.choose_alpha(fmin, rtype);
                    let want = plain.invert(fmin, rtype, oracle);
                    let bits = |c: Option<FeuChoice>| {
                        c.map(|c| {
                            (
                                c.alpha.to_bits(),
                                c.goodness.to_bits(),
                                c.est_cycles_per_pair,
                            )
                        })
                    };
                    assert_eq!(bits(got), bits(want), "Fmin {fmin} {rtype:?}");
                    let (fast, slow) = (feu.models().len(), plain.models().len());
                    if got.is_some() {
                        assert!(
                            fast < slow,
                            "Fmin {fmin} {rtype:?}: {fast} models vs {slow}"
                        );
                    } else {
                        assert_eq!((fast, slow), (1, 1), "Fmin {fmin} {rtype:?}");
                    }
                }
            }
        }
        // The cold Lab K-type inversion at the paper's Fmin.
        let mut feu = FidelityEstimator::new(ScenarioParams::lab());
        let mut plain = FidelityEstimator::new(ScenarioParams::lab());
        feu.choose_alpha(0.64, RequestType::Keep);
        plain.invert(0.64, RequestType::Keep, oracle);
        assert_eq!((feu.models().len(), plain.models().len()), (9, 16));
    }

    #[test]
    fn estimators_on_one_table_keep_their_hardware_apart() {
        let models = ModelCache::new();
        let mut lab = FidelityEstimator::with_models(ScenarioParams::lab(), models.clone());
        let mut ql = FidelityEstimator::with_models(ScenarioParams::ql2020(), models);
        let on_lab = lab.choose_alpha(0.5, RequestType::Keep);
        let on_ql = ql.choose_alpha(0.5, RequestType::Keep);
        assert_ne!(on_lab, on_ql);
        let mut alone = FidelityEstimator::new(ScenarioParams::ql2020());
        assert_eq!(on_ql, alone.choose_alpha(0.5, RequestType::Keep));
        // The bisections part ways after two steps; a reading at an α
        // both have asked for is the sharper check.
        for alpha in [lab.alpha_min(), 0.255] {
            assert_ne!(
                lab.success_probability(alpha),
                ql.success_probability(alpha)
            );
            assert_eq!(
                ql.success_probability(alpha),
                alone.success_probability(alpha)
            );
        }
    }

    #[test]
    fn completion_estimate_scales_with_pairs() {
        let mut feu = FidelityEstimator::new(ScenarioParams::lab());
        let choice = feu.choose_alpha(0.6, RequestType::Keep).unwrap();
        let one = feu.estimate_completion_cycles(&choice, 1);
        let three = feu.estimate_completion_cycles(&choice, 3);
        assert_eq!(three, one * 3);
    }

    /// What the stack derives from a hardware profile, bit for bit: the
    /// attempt model at 200 α on both profiles (the three outcome
    /// probabilities and every entry of both conditional states) and
    /// the `Fmin → α` inversion for Fmin 0.50–0.89 and both request
    /// types, UNSUPP included. The digest was recorded with the dense
    /// `2ⁿ × 2ⁿ` state kernels.
    #[test]
    fn derived_physics_is_pinned_bit_for_bit() {
        /// FNV-1a over the little-endian bytes of `word`.
        fn mix(digest: &mut u64, word: u64) {
            for byte in word.to_le_bytes() {
                *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        const DIGEST: u64 = 0x4c5b8887824d2555;
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for params in [ScenarioParams::lab(), ScenarioParams::ql2020()] {
            for i in 1..=200 {
                let model = AttemptModel::build(&params, f64::from(i) * 0.5 / 200.0);
                for outcome in [
                    AttemptOutcome::Fail,
                    AttemptOutcome::PsiPlus,
                    AttemptOutcome::PsiMinus,
                ] {
                    mix(&mut digest, model.outcome_probability(outcome).to_bits());
                }
                for outcome in [AttemptOutcome::PsiPlus, AttemptOutcome::PsiMinus] {
                    match model.conditional_state(outcome) {
                        Some(state) => {
                            for z in state.density().as_slice() {
                                mix(&mut digest, z.re.to_bits());
                                mix(&mut digest, z.im.to_bits());
                            }
                        }
                        None => mix(&mut digest, u64::MAX),
                    }
                }
            }
            let mut feu = FidelityEstimator::new(params);
            for centi in 50..90 {
                for rtype in [RequestType::Keep, RequestType::Measure] {
                    match feu.choose_alpha(f64::from(centi) / 100.0, rtype) {
                        Some(choice) => {
                            mix(&mut digest, choice.alpha.to_bits());
                            mix(&mut digest, choice.goodness.to_bits());
                            mix(&mut digest, choice.est_cycles_per_pair);
                        }
                        None => mix(&mut digest, u64::MAX), // UNSUPP
                    }
                }
            }
        }
        assert_eq!(digest, DIGEST, "got {digest:#018x}");
    }
}
