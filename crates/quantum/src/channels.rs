//! Single-qubit noise channels as Kraus-operator sets.
//!
//! These are the building blocks of the paper's physical model:
//! dephasing (eqs. (14)/(24)), depolarizing (used for initialization
//! noise, Appendix D.3.1), amplitude damping (photon loss, eqs.
//! (30)–(33)), and the time-parameterised `T1`/`T2` memory decoherence of
//! Appendix A.4 that turns storage delays into fidelity loss (Figure 9).

use crate::gates;
use crate::state::QuantumState;
use qlink_math::complex::Complex;
use qlink_math::CMatrix;

/// `k · m` in `m`'s own buffer.
fn scaled(mut m: CMatrix, k: f64) -> CMatrix {
    m.scale_in_place(Complex::real(k));
    m
}

/// Kraus set for the dephasing channel
/// `ρ → (1−p)ρ + p ZρZ` (paper eq. (24)).
///
/// # Panics
/// Panics unless `0 ≤ p ≤ 1`.
pub fn dephasing(p: f64) -> Vec<CMatrix> {
    assert!((0.0..=1.0).contains(&p), "dephasing p = {p}");
    vec![
        scaled(CMatrix::identity(2), (1.0 - p).sqrt()),
        scaled(gates::z(), p.sqrt()),
    ]
}

/// Kraus set for the bit-flip channel `ρ → (1−p)ρ + p XρX`.
pub fn bit_flip(p: f64) -> Vec<CMatrix> {
    assert!((0.0..=1.0).contains(&p), "bit_flip p = {p}");
    vec![
        scaled(CMatrix::identity(2), (1.0 - p).sqrt()),
        scaled(gates::x(), p.sqrt()),
    ]
}

/// Kraus set for the depolarizing channel
/// `ρ → (1−p)ρ + p/3 (XρX + YρY + ZρZ)` (Appendix D.3.1).
pub fn depolarizing(p: f64) -> Vec<CMatrix> {
    assert!((0.0..=1.0).contains(&p), "depolarizing p = {p}");
    let k = (p / 3.0).sqrt();
    vec![
        scaled(CMatrix::identity(2), (1.0 - p).sqrt()),
        scaled(gates::x(), k),
        scaled(gates::y(), k),
        scaled(gates::z(), k),
    ]
}

/// Kraus set for amplitude damping with parameter `γ`
/// (`|1⟩` decays to `|0⟩` with probability `γ`).
///
/// In the photonic encoding of the paper (presence/absence of a photon),
/// this models every loss mechanism: finite detection windows (eq. 30),
/// collection losses (eq. 31) and fiber transmission (eq. 33).
pub fn amplitude_damping(gamma: f64) -> Vec<CMatrix> {
    assert!(
        (0.0..=1.0).contains(&gamma),
        "amplitude_damping γ = {gamma}"
    );
    let mut k0 = CMatrix::identity(2);
    k0[(1, 1)] = Complex::real((1.0 - gamma).sqrt());
    let mut k1 = CMatrix::zeros(2, 2);
    k1[(0, 1)] = Complex::real(gamma.sqrt());
    vec![k0, k1]
}

/// Combined `T1`/`T2` decoherence over a duration `t` (seconds).
///
/// `T1` is the energy-relaxation time and `T2` the (free-induction)
/// dephasing time of paper Table 6; either may be `f64::INFINITY`.
/// The channel composes amplitude damping `γ = 1 − e^{−t/T1}` with the
/// extra pure dephasing required so that coherences decay as `e^{−t/T2}`.
///
/// # Panics
/// Panics if `t < 0`, either time constant is ≤ 0, or `T2 > 2·T1`
/// (unphysical).
pub fn t1t2_decay(t: f64, t1: f64, t2: f64) -> Vec<CMatrix> {
    assert!(t >= 0.0, "negative duration {t}");
    assert!(t1 > 0.0 && t2 > 0.0, "time constants must be positive");
    assert!(
        t2 <= 2.0 * t1 + 1e-12,
        "T2 = {t2} exceeds 2·T1 = {}",
        2.0 * t1
    );
    let gamma = if t1.is_infinite() {
        0.0
    } else {
        1.0 - (-t / t1).exp()
    };
    // Residual dephasing beyond what damping already causes:
    // total off-diagonal decay e^{-t/T2} = e^{-t/(2T1)} · (1 − 2p).
    let residual = if t2.is_infinite() && t1.is_infinite() {
        1.0
    } else {
        let rate = 1.0 / t2
            - if t1.is_infinite() {
                0.0
            } else {
                1.0 / (2.0 * t1)
            };
        (-t * rate.max(0.0)).exp()
    };
    let p = ((1.0 - residual) / 2.0).clamp(0.0, 0.5);
    // Compose AD then dephasing into a single 3-element Kraus set:
    // {K_d K_a} for K_a ∈ AD(γ), K_d ∈ Deph(p). Products of Kraus sets
    // are again a valid Kraus set.
    let ad = amplitude_damping(gamma);
    let deph = dephasing(p);
    let mut out = Vec::with_capacity(4);
    for d in &deph {
        for a in &ad {
            out.push(d * a);
        }
    }
    out
}

/// Applies a single-qubit Kraus set to one qubit of a state.
pub fn apply_to(state: &mut QuantumState, kraus: &[CMatrix], qubit: usize) {
    state.apply_kraus(kraus, &[qubit]);
}

/// Verifies `Σ K†K = I` for a Kraus set (test/debug helper).
pub fn is_trace_preserving(kraus: &[CMatrix], tol: f64) -> bool {
    if kraus.is_empty() {
        return false;
    }
    let dim = kraus[0].rows();
    let mut acc = CMatrix::zeros(dim, dim);
    for k in kraus {
        acc = &acc + &(&k.adjoint() * k);
    }
    acc.approx_eq(&CMatrix::identity(dim), tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Basis;

    #[test]
    fn all_channels_trace_preserving() {
        for p in [0.0, 0.1, 0.5, 1.0] {
            assert!(is_trace_preserving(&dephasing(p), 1e-12));
            assert!(is_trace_preserving(&bit_flip(p), 1e-12));
            assert!(is_trace_preserving(&depolarizing(p), 1e-12));
            assert!(is_trace_preserving(&amplitude_damping(p), 1e-12));
        }
        assert!(is_trace_preserving(
            &t1t2_decay(1e-3, 2.86e-3, 1.0e-3),
            1e-12
        ));
        assert!(is_trace_preserving(
            &t1t2_decay(5.0, f64::INFINITY, 3.5e-3),
            1e-12
        ));
    }

    #[test]
    fn dephasing_kills_coherence() {
        let mut s = QuantumState::ground(1);
        s.apply_unitary(&gates::h(), &[0]);
        assert!((s.density()[(0, 1)].re - 0.5).abs() < 1e-12);
        apply_to(&mut s, &dephasing(0.5), 0);
        // Full dephasing at p = 1/2: off-diagonals vanish.
        assert!(s.density()[(0, 1)].abs() < 1e-12);
        // Populations untouched.
        assert!((s.density()[(0, 0)].re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dephasing_scales_offdiag_by_one_minus_two_p() {
        let p = 0.2;
        let mut s = QuantumState::ground(1);
        s.apply_unitary(&gates::h(), &[0]);
        apply_to(&mut s, &dephasing(p), 0);
        assert!((s.density()[(0, 1)].re - 0.5 * (1.0 - 2.0 * p)).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_full_is_maximally_mixed() {
        let mut s = QuantumState::ground(1);
        apply_to(&mut s, &depolarizing(0.75), 0);
        // p = 3/4 sends any state to I/2.
        assert!((s.density()[(0, 0)].re - 0.5).abs() < 1e-12);
        assert!((s.density()[(1, 1)].re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_decays_excited_population() {
        let mut s = QuantumState::ground(1);
        s.apply_unitary(&gates::x(), &[0]); // |1⟩
        apply_to(&mut s, &amplitude_damping(0.3), 0);
        assert!((s.density()[(1, 1)].re - 0.7).abs() < 1e-12);
        assert!((s.density()[(0, 0)].re - 0.3).abs() < 1e-12);
    }

    #[test]
    fn t1t2_zero_time_is_identity() {
        let mut s = QuantumState::ground(1);
        s.apply_unitary(&gates::h(), &[0]);
        let before = s.clone();
        apply_to(&mut s, &t1t2_decay(0.0, 2.86e-3, 1.0e-3), 0);
        assert!(s.density().approx_eq(before.density(), 1e-12));
    }

    #[test]
    fn t1t2_long_time_fully_decoheres() {
        let mut s = QuantumState::ground(1);
        s.apply_unitary(&gates::x(), &[0]);
        apply_to(&mut s, &t1t2_decay(1.0, 2.86e-3, 1.0e-3), 0);
        // After ~350 T1, the excited state has fully relaxed.
        assert!(s.density()[(0, 0)].re > 0.999);
    }

    #[test]
    fn t1t2_coherence_decays_at_t2_rate() {
        let (t1, t2) = (2.86e-3, 1.0e-3);
        let t = 0.5e-3;
        let mut s = QuantumState::ground(1);
        s.apply_unitary(&gates::h(), &[0]);
        apply_to(&mut s, &t1t2_decay(t, t1, t2), 0);
        let expect = 0.5 * (-t / t2).exp();
        assert!(
            (s.density()[(0, 1)].abs() - expect).abs() < 1e-9,
            "coherence {} vs expected {expect}",
            s.density()[(0, 1)].abs()
        );
    }

    #[test]
    fn infinite_t1_keeps_populations() {
        let mut s = QuantumState::ground(1);
        s.apply_unitary(&gates::x(), &[0]);
        apply_to(&mut s, &t1t2_decay(10.0, f64::INFINITY, 3.5e-3), 0);
        assert!((s.density()[(1, 1)].re - 1.0).abs() < 1e-9);
    }

    #[test]
    fn measurement_statistics_after_dephasing_unchanged_in_z() {
        // Dephasing commutes with Z measurement.
        let mut s = QuantumState::ground(1);
        s.apply_unitary(&gates::ry(0.7), &[0]);
        let p_before = s.povm_probability(&Basis::Z.projectors().0, &[0]);
        apply_to(&mut s, &dephasing(0.31), 0);
        let p_after = s.povm_probability(&Basis::Z.projectors().0, &[0]);
        assert!((p_before - p_after).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dephasing p")]
    fn out_of_range_probability_panics() {
        dephasing(1.5);
    }
}
