//! Robustness under adversity: fault injection and the penalty box.
//!
//! The paper's robustness argument (§6.1, Table 5) is that the
//! protocol stack keeps delivering when the world misbehaves. PR 9
//! scales that from classical frame loss on one link to whole-network
//! adversity: a [`FaultPlan`] flaps edges of a 4×4 grid up and down on
//! seeded-stochastic dwells while cross-traffic runs, and the
//! network-level **penalty box** prices recently failed edges up for
//! every request's planner.
//!
//! The demo runs the same flapping schedule twice — penalty box on
//! and off — and once with no faults as the baseline, then prints the
//! per-seed delivered/timeout/re-route counts plus the classic
//! classical-loss stress row for continuity with the original Table 5
//! demo.
//!
//! Run with:
//! ```sh
//! cargo run --release --example robustness
//! ```

use qlink::net::sweep::run_one;
use qlink::prelude::*;

/// The contended 4×4 grid of the PR 4 suite: six concurrent
/// cross-traffic pairs, armed timeouts, a retry budget.
fn grid_spec(name: &str) -> ScenarioSpec {
    ScenarioSpec::lab_grid(name, 4, 4)
        .with_pairs(vec![(0, 15), (3, 12), (1, 11), (2, 8), (7, 13), (4, 14)])
        .with_metric(RouteMetric::LoadLatency)
        .with_request_timeout(SimDuration::from_millis(300))
        .with_retries(2)
        .with_max_time(SimDuration::from_millis(700))
}

/// [`grid_spec`] with every edge flapping once, under `penalty` pricing.
fn flapping(name: &str, penalty: PenaltyConfig) -> ScenarioSpec {
    let spec = grid_spec(name);
    let ms = SimDuration::from_millis;
    let plan = FaultPlan::flapping_everywhere(spec.topology.edge_count(), ms(900), ms(40), 1);
    spec.with_faults(plan.with_penalty(penalty))
}

fn main() {
    println!("adversity on the contended 4x4 grid (6 pairs, retries 2, 700 ms):");
    println!(
        "{:>22} {:>5} {:>10} {:>9} {:>9} {:>7} {:>8}",
        "scenario", "seed", "delivered", "timeouts", "reroutes", "faults", "repairs"
    );
    for seed in [1, 5, 9] {
        let rows = [
            ("calm", run_one(&grid_spec("calm"), seed)),
            (
                "flapping + penalty",
                run_one(&flapping("boxed", PenaltyConfig::default()), seed),
            ),
            (
                "flapping, box off",
                run_one(&flapping("bare", PenaltyConfig::off()), seed),
            ),
        ];
        for (label, r) in &rows {
            println!(
                "{:>22} {:>5} {:>10} {:>9} {:>9} {:>7} {:>8}",
                label, seed, r.successes, r.timeouts, r.reroutes, r.faults, r.repairs
            );
        }
    }
    println!();
    println!("every run is bit-reproducible per seed: the fault schedule is");
    println!("realized from the seed's net/fault substream and rides the shared");
    println!("queue.");
    println!();

    // Continuity with the original Table 5 demo: inflated classical
    // frame loss on a single link barely moves the metrics.
    let lb = qlink::classical::LinkBudget::gigabit_1000base_zx().with_splices(30, 0.3);
    println!(
        "for scale, realistic classical FER (1000BASE-ZX, 15 km, 30 splices): {:.1e};",
        lb.frame_error_rate(15.0)
    );
    let spec = WorkloadSpec::single(RequestKind::Md, 0.7, 3);
    let mut clean = LinkSimulation::new(LinkConfig::lab(spec, 77));
    clean.run_for(SimDuration::from_secs(5));
    let mut lossy = LinkSimulation::new(LinkConfig::lab(spec, 77).with_classical_loss(1e-4));
    lossy.run_for(SimDuration::from_secs(5));
    let (c, l) = (
        clean.metrics.kind_total(RequestKind::Md),
        lossy.metrics.kind_total(RequestKind::Md),
    );
    println!(
        "a single lab link at loss 1e-4 still delivers {} pairs vs {} clean",
        l.pairs_delivered, c.pairs_delivered
    );
    println!("(the paper's §6.1 observation: recovery absorbs six extra orders of loss).");
}
