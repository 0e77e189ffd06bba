//! The heralding station: beam-splitter measurement and detectors.
//!
//! Appendix D.5 of the paper derives the effective POVM of a 50:50
//! beam-splitter measurement on two *partially distinguishable* photons
//! (photon overlap `µ`, eq. (66)), for non-photon-counting detectors
//! (eqs. (90)–(93)), together with a Kraus choice (eqs. (94)–(97)).
//! This module implements those operators verbatim, plus the classical
//! detector-noise mixing of D.4.8 (efficiency and dark counts).
//!
//! Only the electrons outlive a herald, so the station keeps only their
//! block: for each ideal click pattern it reads the branch probability
//! off the diagonal of `K†Kρ` ([`QuantumState::kraus_probability`]) and
//! forms just the entries of `KρK†` the photon trace reads, walking
//! only `K`'s nonzero entries — bit for bit what applying the Kraus
//! operator to the whole register and tracing the photons out gives.
//! Only a success pattern's state is then mixed through the detector
//! noise and validated: a failed attempt leaves nothing anyone reads.

use qlink_math::complex::{Complex, ZERO};
use qlink_math::CMatrix;
use qlink_quantum::QuantumState;

/// Ideal (noiseless-detector) outcomes of the beam-splitter
/// measurement, and equally the observed click patterns after detector
/// noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClickPattern {
    /// Neither detector clicked.
    None,
    /// Only the left detector clicked (heralds `|Ψ+⟩`).
    Left,
    /// Only the right detector clicked (heralds `|Ψ−⟩`).
    Right,
    /// Both detectors clicked.
    Both,
}

impl ClickPattern {
    /// All patterns, indexed 0–3 in the order used by the matrices here.
    pub const ALL: [ClickPattern; 4] = [
        ClickPattern::None,
        ClickPattern::Left,
        ClickPattern::Right,
        ClickPattern::Both,
    ];

    /// Index of this pattern in [`ClickPattern::ALL`].
    pub fn index(self) -> usize {
        match self {
            ClickPattern::None => 0,
            ClickPattern::Left => 1,
            ClickPattern::Right => 2,
            ClickPattern::Both => 3,
        }
    }

    /// `true` for the two single-click (heralded success) patterns.
    pub fn is_success(self) -> bool {
        matches!(self, ClickPattern::Left | ClickPattern::Right)
    }
}

/// The beam-splitter measurement for photon overlap `µ` (real, with
/// `µ² = visibility`), acting on the two presence/absence photon qubits.
///
/// Kraus operators follow eqs. (94)–(97); the paper orders basis states
/// `|00⟩, |10⟩, |01⟩, |11⟩` (photon-A bit listed first but placed
/// second) — here they are permuted into this crate's convention where
/// the first tensor factor (photon A) is the most significant bit:
/// `|00⟩, |01⟩, |10⟩, |11⟩`.
#[derive(Debug, Clone)]
pub struct BeamSplitter {
    mu: f64,
    kraus: [CMatrix; 4],
}

impl BeamSplitter {
    /// Builds the measurement for a given visibility `|µ|²` (0.9 for
    /// the paper's setup, D.4.7).
    ///
    /// # Panics
    /// Panics unless `0 ≤ visibility ≤ 1`.
    pub fn new(visibility: f64) -> Self {
        assert!((0.0..=1.0).contains(&visibility), "visibility {visibility}");
        let mu = visibility.sqrt();
        let sqrt2 = std::f64::consts::SQRT_2;
        // a = (√(1+µ)+√(1−µ))/√2, b = (√(1+µ)−√(1−µ))/√2 — the middle
        // 2×2 block of E~10 / E~01 before the global 1/2.
        let a = ((1.0 + mu).sqrt() + (1.0 - mu).sqrt()) / sqrt2;
        let b = ((1.0 + mu).sqrt() - (1.0 - mu).sqrt()) / sqrt2;
        let s11 = (1.0 + mu * mu).sqrt();

        // Basis order here: |p_A p_B⟩ = |00⟩, |01⟩, |10⟩, |11⟩.
        // Photon "from A present only" is |10⟩ = index 2;
        // "from B present only" is |01⟩ = index 1.
        let e_none = {
            let mut m = CMatrix::zeros(4, 4);
            m[(0, 0)] = Complex::real(1.0);
            m
        };
        let make_single = |off_sign: f64| {
            let mut m = CMatrix::zeros(4, 4);
            m[(1, 1)] = Complex::real(a / 2.0);
            m[(2, 2)] = Complex::real(a / 2.0);
            m[(1, 2)] = Complex::real(off_sign * b / 2.0);
            m[(2, 1)] = Complex::real(off_sign * b / 2.0);
            m[(3, 3)] = Complex::real(s11 / 2.0);
            m
        };
        let e_left = make_single(1.0);
        let e_right = make_single(-1.0);
        let e_both = {
            let mut m = CMatrix::zeros(4, 4);
            m[(3, 3)] = Complex::real(((1.0 - mu * mu) / 2.0).sqrt());
            m
        };
        BeamSplitter {
            mu,
            kraus: [e_none, e_left, e_right, e_both],
        }
    }

    /// Photon overlap `µ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The Kraus operator for an ideal click pattern.
    pub fn kraus(&self, pattern: ClickPattern) -> &CMatrix {
        &self.kraus[pattern.index()]
    }
}

/// Classical detector imperfections (D.4.8): each ideal click is seen
/// with probability `efficiency`; each ideal non-click turns into a
/// click with probability `dark_prob`.
#[derive(Debug, Clone, Copy)]
pub struct DetectorModel {
    /// Detection efficiency `p_detection` (0.8 in the paper).
    pub efficiency: f64,
    /// Dark-count probability per window (eq. (34)).
    pub dark_prob: f64,
}

impl DetectorModel {
    /// `P(observed pattern | ideal pattern)` as a 4×4 row-stochastic
    /// matrix indexed by [`ClickPattern::ALL`] (rows: ideal).
    pub fn observation_matrix(&self) -> [[f64; 4]; 4] {
        let eta = self.efficiency;
        let d = self.dark_prob;
        // Probability one detector is observed clicking, by whether it
        // ideally clicked.
        let click_given_click = eta;
        let click_given_none = d;
        let p = |ideal_left: bool, ideal_right: bool| -> [f64; 4] {
            let pl = if ideal_left {
                click_given_click
            } else {
                click_given_none
            };
            let pr = if ideal_right {
                click_given_click
            } else {
                click_given_none
            };
            [
                (1.0 - pl) * (1.0 - pr), // observed None
                pl * (1.0 - pr),         // observed Left
                (1.0 - pl) * pr,         // observed Right
                pl * pr,                 // observed Both
            ]
        };
        [
            p(false, false), // ideal None
            p(true, false),  // ideal Left
            p(false, true),  // ideal Right
            p(true, true),   // ideal Both
        ]
    }
}

/// Result of analysing one attempt's joint state at the station: the
/// distribution over *observed* click patterns, with the conditional
/// post-measurement electron-electron state for each.
#[derive(Debug, Clone)]
pub struct HeraldDistribution {
    /// `P(observed pattern)`, indexed by [`ClickPattern::ALL`].
    pub probs: [f64; 4],
    /// Conditional two-electron states (order `[electron_A,
    /// electron_B]`) of the two success patterns, `Left` and `Right`;
    /// `None` when the probability is (numerically) zero, and always
    /// for `None` and `Both`, whose states no caller reads.
    pub states: [Option<QuantumState>; 4],
}

impl HeraldDistribution {
    /// Probability of either single-click (success) pattern.
    pub fn success_probability(&self) -> f64 {
        self.probs[ClickPattern::Left.index()] + self.probs[ClickPattern::Right.index()]
    }

    /// Probability and conditional state for one pattern.
    pub fn outcome(&self, p: ClickPattern) -> (f64, Option<&QuantumState>) {
        (self.probs[p.index()], self.states[p.index()].as_ref())
    }
}

/// Basis offset of each photon pattern `|p_A p_B⟩` (a Kraus operator
/// index) in the `[e_A, p_A, e_B, p_B]` register, ascending.
const PHOTON: [usize; 4] = [0b0000, 0b0001, 0b0100, 0b0101];
/// Basis offset of each electron pattern `|e_A e_B⟩` in that register.
const ELECTRON: [usize; 4] = [0b0000, 0b0010, 0b1000, 0b1010];

/// The two-electron block photon Kraus operator `k` leaves of the
/// `[e_A, p_A, e_B, p_B]` density matrix `joint`: `Tr_photons(KρK†)`,
/// renormalised by `Tr(KρK†)` — bit for bit what `apply_kraus(&[k],
/// &[1, 3])` then `partial_trace(&[0, 2])` give, by the rules in
/// `qlink_quantum::state`, without copying the register and forming
/// only the 64 entries of `KρK†` the trace reads.
fn electron_block(joint: &CMatrix, k: &CMatrix) -> CMatrix {
    let rho = joint.as_slice();
    // K's nonzero entries `(photon offset, entry)` row by row, and
    // conjugated (K†'s columns): the only terms either product sums.
    let mut nonzeros = [[(0, ZERO); 4]; 4];
    let mut adjoint = [[(0, ZERO); 4]; 4];
    let mut lens = [0; 4];
    for p in 0..4 {
        for (q, &offset) in PHOTON.iter().enumerate() {
            let a = k[(p, q)];
            if a != ZERO {
                nonzeros[p][lens[p]] = (offset, a);
                adjoint[p][lens[p]] = (offset, a.conj());
                lens[p] += 1;
            }
        }
    }
    // Kρ: row (e, p) reads the rows (e, q) of its photon block.
    let mut left = [[ZERO; 16]; 16];
    for e in ELECTRON {
        for (p, &row) in PHOTON.iter().enumerate() {
            let out = &mut left[e + row];
            for &(offset, a) in &nonzeros[p][..lens[p]] {
                for (entry, &z) in out.iter_mut().zip(&rho[(e + offset) * 16..][..16]) {
                    *entry += a * z;
                }
            }
        }
    }
    // (Kρ)K† at row (r, t), column (c, t): what the photon trace reads.
    let mut kept = [[[ZERO; 4]; 4]; 4];
    for (t, &photon) in PHOTON.iter().enumerate() {
        for (r, &row) in ELECTRON.iter().enumerate() {
            for (c, &col) in ELECTRON.iter().enumerate() {
                let mut acc = ZERO;
                for &(offset, a) in &adjoint[t][..lens[t]] {
                    acc += left[row + photon][col + offset] * a;
                }
                kept[t][r][c] = acc;
            }
        }
    }
    // Renormalise by Tr(KρK†), summed over the register's diagonal in
    // index order: index bits (e_A, p_A, e_B, p_B).
    let trace: Complex = (0..16usize)
        .map(|i| {
            let r = ((i >> 2) & 0b10) | ((i >> 1) & 1);
            let t = ((i >> 1) & 0b10) | (i & 1);
            kept[t][r][r]
        })
        .sum();
    let t = trace.re;
    let scale = if t > 0.0 && (t - 1.0).abs() > f64::EPSILON {
        Some(Complex::real(1.0 / t))
    } else {
        None
    };
    let mut out = CMatrix::zeros(4, 4);
    for r in 0..4 {
        for c in 0..4 {
            let mut sum = ZERO;
            for block in &kept {
                sum += match scale {
                    Some(s) => block[r][c] * s,
                    None => block[r][c],
                };
            }
            out[(r, c)] = sum;
        }
    }
    out
}

/// Performs the full station measurement on a 4-qubit register ordered
/// `[electron_A, photon_A, electron_B, photon_B]`: ideal beam-splitter
/// POVM on the photons, detector-noise mixing, and partial trace onto
/// the electrons. Every pattern gets its probability; only the two
/// success patterns get a state.
///
/// # Panics
/// Panics unless the register has four qubits, or if a heralded state
/// fails validation (an internal invariant: the mix of conditional
/// states is a density matrix).
pub fn herald_distribution(
    joint: &QuantumState,
    bs: &BeamSplitter,
    det: &DetectorModel,
) -> HeraldDistribution {
    assert_eq!(joint.num_qubits(), 4, "expected [eA, pA, eB, pB] register");
    let obs = det.observation_matrix();

    // Ideal-outcome branch probabilities and conditional electron states.
    let mut ideal_probs = [0.0f64; 4];
    let mut ideal_states: [Option<CMatrix>; 4] = Default::default();
    for pattern in ClickPattern::ALL {
        let i = pattern.index();
        let k = bs.kraus(pattern);
        // Photons are register positions 1 and 3; the Kraus operator's
        // first factor is photon A.
        ideal_probs[i] = joint.kraus_probability(k, &[1, 3]);
        if ideal_probs[i] > 1e-15 {
            ideal_states[i] = Some(electron_block(joint.density(), k));
        }
    }

    // Mix through the detector-noise matrix. Only a success pattern's
    // state is formed: a failed attempt leaves no state anyone reads.
    let mut probs = [0.0f64; 4];
    let mut states: [Option<QuantumState>; 4] = [None, None, None, None];
    for pattern in ClickPattern::ALL {
        let observed = pattern.index();
        let mut p_obs = 0.0;
        let mut rho_acc: Option<[Complex; 16]> = None;
        for ideal in 0..4 {
            let w = obs[ideal][observed] * ideal_probs[ideal];
            if w <= 0.0 {
                continue;
            }
            p_obs += w;
            if !pattern.is_success() {
                continue;
            }
            if let Some(state) = &ideal_states[ideal] {
                let w = Complex::real(w);
                let entries = state.as_slice();
                match &mut rho_acc {
                    Some(acc) => {
                        for (sum, &z) in acc.iter_mut().zip(entries) {
                            *sum += z * w;
                        }
                    }
                    None => rho_acc = Some(std::array::from_fn(|i| entries[i] * w)),
                }
            }
        }
        probs[observed] = p_obs;
        if let (Some(rho), true) = (rho_acc, p_obs > 1e-15) {
            let normalize = Complex::real(1.0 / p_obs);
            let normalized = CMatrix::from_rows(4, 4, &rho.map(|z| z * normalize));
            let state = QuantumState::from_density(normalized).unwrap_or_else(|e| {
                panic!("the {pattern:?} herald (p = {p_obs:e}) is not a density matrix: {e}")
            });
            states[observed] = Some(state);
        }
    }
    HeraldDistribution { probs, states }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attempt::arm_state;
    use crate::params::ScenarioParams;
    use qlink_des::DetRng;
    use qlink_quantum::bell::{bell_fidelity, BellState};

    fn noiseless_detectors() -> DetectorModel {
        DetectorModel {
            efficiency: 1.0,
            dark_prob: 0.0,
        }
    }

    /// Joint state for ideal single-click: both arms √α|0,1⟩+√(1−α)|1,0⟩,
    /// no photonic loss.
    fn ideal_joint(alpha: f64) -> QuantumState {
        let a = alpha.sqrt();
        let b = (1.0 - alpha).sqrt();
        let arm = CMatrix::col_vector(&[
            ZERO,
            Complex::real(a), // |0⟩_e |1⟩_p
            Complex::real(b), // |1⟩_e |0⟩_p
            ZERO,
        ]);
        let arm_state = QuantumState::from_ket(&arm);
        arm_state.tensor(&arm_state)
    }

    #[test]
    fn kraus_sets_are_complete() {
        for vis in [0.0, 0.5, 0.9, 1.0] {
            let bs = BeamSplitter::new(vis);
            let mut acc = CMatrix::zeros(4, 4);
            for p in ClickPattern::ALL {
                let k = bs.kraus(p);
                acc = &acc + &(&k.adjoint() * k);
            }
            assert!(
                acc.approx_eq(&CMatrix::identity(4), 1e-12),
                "Σ E†E ≠ I at visibility {vis}"
            );
        }
    }

    /// The station's electron block against the general kernels:
    /// `apply_kraus` on the whole register, then the photon trace.
    #[test]
    fn electron_block_matches_apply_kraus_then_partial_trace() {
        let bits = |m: &CMatrix| -> Vec<(u64, u64)> {
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        let attempt = |p: &ScenarioParams, alpha: f64| {
            arm_state(p, alpha, p.arm_a_km).tensor(&arm_state(p, alpha, p.arm_b_km))
        };
        let mut rng = DetRng::new(11);
        let mut random_joint = || {
            let data: Vec<Complex> = (0..256)
                .map(|_| {
                    if rng.uniform() < 0.25 {
                        ZERO
                    } else {
                        Complex::new(rng.uniform() - 0.5, rng.uniform() - 0.5)
                    }
                })
                .collect();
            let a = CMatrix::from_rows(16, 16, &data);
            let rho = &a * &a.adjoint();
            let t = rho.trace().re;
            QuantumState::from_density(rho.scale(Complex::real(1.0 / t)))
                .expect("AA†/Tr is a state")
        };
        let joints = [
            ideal_joint(0.1),
            ideal_joint(1e-9),
            ideal_joint(1.0 - 1e-12),
            attempt(&ScenarioParams::lab(), 0.2),
            attempt(&ScenarioParams::ql2020(), 0.05),
            random_joint(),
            random_joint(),
        ];
        for vis in [0.0, 0.9, 1.0] {
            let bs = BeamSplitter::new(vis);
            for (j, joint) in joints.iter().enumerate() {
                for pattern in ClickPattern::ALL {
                    let k = bs.kraus(pattern);
                    let mut branch = joint.clone();
                    branch.apply_kraus(std::slice::from_ref(k), &[1, 3]);
                    assert_eq!(
                        bits(&electron_block(joint.density(), k)),
                        bits(branch.partial_trace(&[0, 2]).density()),
                        "joint {j}, {pattern:?}, visibility {vis}"
                    );
                }
            }
        }
    }

    #[test]
    fn perfect_photons_herald_bell_states() {
        // µ = 1, no loss, noiseless detectors: single clicks herald
        // exactly |Ψ±⟩ contaminated only by the double-bright term.
        let alpha = 0.1;
        let joint = ideal_joint(alpha);
        let bs = BeamSplitter::new(1.0);
        let dist = herald_distribution(&joint, &bs, &noiseless_detectors());

        let (p_left, left) = dist.outcome(ClickPattern::Left);
        assert!(p_left > 0.0);
        let left = left.unwrap();
        let f = bell_fidelity(left, (0, 1), BellState::PsiPlus);
        // Conditional fidelity ≈ 1 − α for small α (§4.4: F ≈ 1 − α).
        assert!(
            (f - (1.0 - alpha)).abs() < 0.05,
            "F(left) = {f}, expected ≈ {}",
            1.0 - alpha
        );

        let (_, right) = dist.outcome(ClickPattern::Right);
        let f = bell_fidelity(right.unwrap(), (0, 1), BellState::PsiMinus);
        assert!((f - (1.0 - alpha)).abs() < 0.05, "F(right) = {f}");
    }

    #[test]
    fn success_probability_scales_with_alpha() {
        // psucc ≈ 2α·pdet for small α (§4.4); with no photon loss
        // pdet = 1, so psucc ≈ 2α(1−α) + O(α²).
        let bs = BeamSplitter::new(1.0);
        for alpha in [0.02, 0.05, 0.1] {
            let dist = herald_distribution(&ideal_joint(alpha), &bs, &noiseless_detectors());
            let expected = 2.0 * alpha * (1.0 - alpha);
            let got = dist.success_probability();
            assert!(
                (got - expected).abs() < 0.3 * expected + 1e-3,
                "α={alpha}: psucc={got}, expected≈{expected}"
            );
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let bs = BeamSplitter::new(0.9);
        let det = DetectorModel {
            efficiency: 0.8,
            dark_prob: 1e-6,
        };
        let dist = herald_distribution(&ideal_joint(0.3), &bs, &det);
        let total: f64 = dist.probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "Σp = {total}");
    }

    #[test]
    fn reduced_visibility_lowers_heralded_fidelity() {
        let alpha = 0.1;
        let joint = ideal_joint(alpha);
        let det = noiseless_detectors();
        let f_perfect = {
            let d = herald_distribution(&joint, &BeamSplitter::new(1.0), &det);
            bell_fidelity(
                d.outcome(ClickPattern::Left).1.unwrap(),
                (0, 1),
                BellState::PsiPlus,
            )
        };
        let f_090 = {
            let d = herald_distribution(&joint, &BeamSplitter::new(0.9), &det);
            bell_fidelity(
                d.outcome(ClickPattern::Left).1.unwrap(),
                (0, 1),
                BellState::PsiPlus,
            )
        };
        assert!(f_090 < f_perfect, "visibility 0.9 should reduce fidelity");
        assert!(f_090 > 0.5, "still useful entanglement");
    }

    #[test]
    fn indistinguishable_photons_never_split() {
        // µ = 1 (perfectly indistinguishable): ideal "Both" outcome has
        // zero probability (Hong-Ou-Mandel).
        let bs = BeamSplitter::new(1.0);
        let det = noiseless_detectors();
        // Use α = 1: both arms always emit a photon.
        let dist = herald_distribution(&ideal_joint(1.0 - 1e-12), &bs, &det);
        assert!(dist.probs[ClickPattern::Both.index()] < 1e-9);
    }

    #[test]
    fn distinguishable_photons_split_half_the_time() {
        // µ = 0: two incident photons behave classically; both-click
        // probability = 1/2 (χ = 1/2).
        let bs = BeamSplitter::new(0.0);
        let det = noiseless_detectors();
        let dist = herald_distribution(&ideal_joint(1.0 - 1e-12), &bs, &det);
        assert!((dist.probs[ClickPattern::Both.index()] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn detector_efficiency_reduces_success() {
        let joint = ideal_joint(0.1);
        let bs = BeamSplitter::new(0.9);
        let full = herald_distribution(&joint, &bs, &noiseless_detectors());
        let lossy = herald_distribution(
            &joint,
            &bs,
            &DetectorModel {
                efficiency: 0.8,
                dark_prob: 0.0,
            },
        );
        let ratio = lossy.success_probability() / full.success_probability();
        assert!((ratio - 0.8).abs() < 0.02, "ratio = {ratio}");
    }

    #[test]
    fn dark_counts_create_false_heralds() {
        // With fully dark arms (α = 0 → no photons ever), only dark
        // counts can click; conditional state must be garbage (product
        // |11⟩ electrons — both spins in the non-bright state).
        let joint = ideal_joint(1e-9);
        let bs = BeamSplitter::new(0.9);
        let det = DetectorModel {
            efficiency: 0.8,
            dark_prob: 1e-3,
        };
        let dist = herald_distribution(&joint, &bs, &det);
        let (p_left, state) = dist.outcome(ClickPattern::Left);
        assert!(p_left > 1e-4, "dark counts must produce false heralds");
        let f = bell_fidelity(state.unwrap(), (0, 1), BellState::PsiPlus);
        assert!(f < 0.1, "false herald should not look entangled: F = {f}");
    }

    #[test]
    fn observation_matrix_rows_stochastic() {
        let det = DetectorModel {
            efficiency: 0.8,
            dark_prob: 1e-5,
        };
        for row in det.observation_matrix() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }
}
