//! The SQ use case: teleport a data qubit over link-layer entanglement.
//!
//! Demonstrates the layering of Figure 2: the link layer produces a
//! stored entangled pair; the transport layer consumes it to teleport
//! an unknown qubit (Figure 1a). The output fidelity of the teleported
//! state equals the entangled pair's quality — exactly why the paper
//! treats fidelity as a first-class link metric (§4.2).
//!
//! Run with:
//! ```sh
//! cargo run --release --example teleport
//! ```

use qlink::math::complex::Complex;
use qlink::math::CMatrix;
use qlink::prelude::*;
use qlink::quantum::ops::teleport;

fn main() {
    let mut rng = DetRng::new(1234);

    // 1. Produce a stored (K-type) pair on the QL2020 link.
    let mut sim = LinkSimulation::new(LinkConfig::ql2020(WorkloadSpec::none(), 99));
    sim.submit(
        0,
        GeneratedRequest {
            kind: RequestKind::Ck,
            pairs: 1,
            origin: 0,
            fmin: 0.6,
            tmax_us: 0,
        },
    );
    sim.run_for(SimDuration::from_secs(20));
    let ck = sim.metrics.kind_total(RequestKind::Ck);
    assert!(
        ck.pairs_delivered > 0,
        "link layer did not deliver a pair in time"
    );
    let link_fidelity = ck.fidelity.mean();
    println!(
        "link delivered a stored pair with fidelity {:.4}",
        link_fidelity
    );

    // 2. Model the delivered pair as a Werner state of that fidelity
    //    (the link's OK hands ownership to the transport layer; the
    //    Werner form is the standard one-parameter stand-in).
    let p = ((4.0 * link_fidelity - 1.0) / 3.0).clamp(0.0, 1.0);
    let resource = qlink::quantum::bell::werner_state(BellState::PhiPlus, p);

    // 3. Teleport a batch of random qubits and measure output fidelity.
    let trials = 25;
    let mut total = 0.0;
    for _ in 0..trials {
        // A random pure data qubit.
        let a: f64 = rng.uniform();
        let phase = rng.uniform() * std::f64::consts::TAU;
        let ket = CMatrix::col_vector(&[
            Complex::real(a.sqrt()),
            Complex::phase(phase) * (1.0 - a).sqrt(),
        ]);
        let data = QuantumState::from_ket(&ket);
        let mut joint = data.tensor(&resource);
        teleport(&mut joint, 0, 1, 2, &mut rng);
        let out = joint.partial_trace(&[2]);
        total += out.fidelity_pure(&ket);
    }
    let avg = total / trials as f64;
    println!("teleported {trials} random qubits; average output fidelity {avg:.4}");
    // Known relation for Werner resources: F_out = (2·F_link + 1)/3 at
    // F measured against the Bell resource.
    let predicted = (2.0 * link_fidelity + 1.0) / 3.0;
    println!("analytic expectation for a Werner resource: {predicted:.4}");
    println!(
        "classical limit without entanglement is 2/3 — teleportation {} it",
        if avg > 2.0 / 3.0 {
            "beats"
        } else {
            "does not beat"
        }
    );
}
