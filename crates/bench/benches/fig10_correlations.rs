//! Figure 10(a): measurement correlations versus a one-sided readout
//! phase rotation.
//!
//! Node A rotates its electron around Z by a fixed angle before
//! measuring; node B measures directly. The probability that the two
//! outcomes *differ* oscillates with the angle in the X and Y bases
//! and stays flat in Z — the interference fringe the paper uses to
//! validate its physical model against hardware (Appendix C.1).

use qlink::des::DetRng;
use qlink::phys::attempt::{AttemptModel, AttemptOutcome};
use qlink::phys::params::ScenarioParams;
use qlink::prelude::*;
use qlink::quantum::gates;
use qlink_bench::{header, scaled_secs};

fn main() {
    header(
        "fig10_correlations",
        "outcome disagreement vs one-sided Z-rotation (α = 0.1, Lab)",
        "Figure 10(a), Appendix C.1",
    );
    let params = ScenarioParams::lab();
    let alpha = 0.1;
    let model = AttemptModel::build(&params, alpha);
    let state = model
        .conditional_state(AttemptOutcome::PsiPlus)
        .expect("heralded state")
        .clone();
    let mut rng = DetRng::new(10);
    let mc_pairs = (300.0 * scaled_secs(1.0).as_secs_f64()).max(50.0) as u32;

    println!("heralded |Ψ+⟩ branch; each MC point averages {mc_pairs} sampled pairs");
    println!(
        "{:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "theta", "X exact", "X mc", "Y exact", "Y mc", "Z exact", "Z mc"
    );
    for deg in (0..=360).step_by(30) {
        let theta = (deg as f64).to_radians();
        let mut rotated = state.clone();
        rotated.apply_unitary(&gates::rz(theta), &[0]);

        let mut exact = [0.0f64; 3];
        let mut mc = [0.0f64; 3];
        for (bi, basis) in [Basis::X, Basis::Y, Basis::Z].into_iter().enumerate() {
            exact[bi] = qlink::quantum::bell::disagreement_probability(&rotated, (0, 1), basis);
            // Monte Carlo with real projective measurements.
            let mut disagree = 0u32;
            for _ in 0..mc_pairs {
                let mut s = rotated.clone();
                let a = s.measure_qubit(0, basis, &mut rng);
                let b = s.measure_qubit(1, basis, &mut rng);
                if a != b {
                    disagree += 1;
                }
            }
            mc[bi] = disagree as f64 / mc_pairs as f64;
        }
        println!(
            "{:>7} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            deg, exact[0], mc[0], exact[1], mc[1], exact[2], mc[2]
        );
    }
    println!();
    println!("expected shape (Fig 10a): X and Y fringes oscillate in anti-phase with");
    println!("the rotation angle; Z stays flat near its (low) baseline disagreement.");
}
