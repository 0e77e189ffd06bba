//! Integration tests spanning the whole stack: wire formats through
//! channels, physical model through the link layer, both scenarios.

use qlink::prelude::*;

fn md(pairs: u16, origin: usize) -> GeneratedRequest {
    GeneratedRequest {
        kind: RequestKind::Md,
        pairs,
        origin,
        fmin: 0.6,
        tmax_us: 0,
    }
}

fn keep(kind: RequestKind, pairs: u16) -> GeneratedRequest {
    GeneratedRequest {
        kind,
        pairs,
        origin: 0,
        fmin: 0.6,
        tmax_us: 0,
    }
}

#[test]
fn lab_link_serves_all_three_kinds() {
    let mut sim = LinkSimulation::new(LinkConfig::lab(WorkloadSpec::none(), 1));
    sim.submit(0, keep(RequestKind::Nl, 1));
    sim.submit(0, keep(RequestKind::Ck, 1));
    sim.submit(0, md(2, 0));
    sim.run_for(SimDuration::from_secs(10));
    for kind in RequestKind::ALL {
        let m = sim.metrics.kind_total(kind);
        assert!(
            m.pairs_delivered >= 1,
            "{} delivered {}",
            kind.label(),
            m.pairs_delivered
        );
    }
}

#[test]
fn ql2020_link_works_at_metropolitan_distance() {
    let mut sim = LinkSimulation::new(LinkConfig::ql2020(WorkloadSpec::none(), 2));
    sim.submit(0, md(2, 0));
    sim.run_for(SimDuration::from_secs(10));
    let m = sim.metrics.kind_total(RequestKind::Md);
    assert_eq!(m.pairs_delivered, 2);
    // 25 km of fiber: pair latency must include real propagation time.
    assert!(m.pair_latency.mean() > 1e-3);
}

#[test]
fn requests_from_both_origins_complete() {
    let mut sim = LinkSimulation::new(LinkConfig::lab(WorkloadSpec::none(), 3));
    sim.submit(0, md(1, 0));
    sim.submit(1, md(1, 1));
    sim.run_for(SimDuration::from_secs(8));
    assert_eq!(
        sim.metrics
            .kind_at_origin(RequestKind::Md, 0)
            .map(|m| m.pairs_delivered),
        Some(1),
        "A-originated request"
    );
    assert_eq!(
        sim.metrics
            .kind_at_origin(RequestKind::Md, 1)
            .map(|m| m.pairs_delivered),
        Some(1),
        "B-originated request"
    );
}

/// One origin alone may add any number of items in a row: the DQP's
/// fairness-run counter is a `u8` that used to be bumped unchecked, so
/// the 256th consecutive CREATE from the master panicked a debug build
/// (and restarted the fairness window in a release one).
#[test]
fn three_hundred_creates_from_one_side_are_queued_or_refused() {
    let mut sim = LinkSimulation::new(LinkConfig::lab(WorkloadSpec::none(), 4));
    for _ in 0..300 {
        sim.submit(0, md(1, 0));
    }
    // The MD queue holds 256 items; the rest are refused, not lost.
    assert_eq!(sim.egp(0).queue_len(), 256);
    let outputs = sim.take_outputs();
    assert_eq!(outputs.len(), 44);
    assert!(outputs
        .iter()
        .all(|o| matches!(o, LinkOutput::Rejection(_))));
}

#[test]
fn delivered_fidelity_meets_requested_minimum_on_average() {
    let mut sim = LinkSimulation::new(LinkConfig::lab(WorkloadSpec::none(), 4));
    sim.submit(0, md(6, 0));
    sim.run_for(SimDuration::from_secs(12));
    let m = sim.metrics.kind_total(RequestKind::Md);
    assert!(m.pairs_delivered >= 4);
    assert!(
        m.fidelity.mean() >= 0.6 - 0.05,
        "mean fidelity {} below requested 0.6",
        m.fidelity.mean()
    );
}

#[test]
fn keep_pairs_cost_fidelity_versus_measured_pairs() {
    // The K path stores qubits (reply wait + move), so its delivered
    // fidelity sits below the M path at the same α — §6.2's pattern.
    let mut sim = LinkSimulation::new(LinkConfig::ql2020(WorkloadSpec::none(), 5));
    sim.submit(0, md(3, 0));
    sim.submit(0, keep(RequestKind::Ck, 1));
    sim.run_for(SimDuration::from_secs(30));
    let md_m = sim.metrics.kind_total(RequestKind::Md);
    let ck_m = sim.metrics.kind_total(RequestKind::Ck);
    assert!(md_m.pairs_delivered >= 2 && ck_m.pairs_delivered >= 1);
    // Both kinds request Fmin = 0.6; the FEU compensates K's extra
    // noise with a lower α, so *delivered* fidelities both sit near
    // their goodness targets. The K pair must not be wildly better.
    assert!(
        ck_m.fidelity.mean() <= md_m.fidelity.mean() + 0.15,
        "CK {} vs MD {}",
        ck_m.fidelity.mean(),
        md_m.fidelity.mean()
    );
}

#[test]
fn unsupported_fidelity_rejected() {
    let mut sim = LinkSimulation::new(LinkConfig::lab(WorkloadSpec::none(), 6));
    sim.submit(
        0,
        GeneratedRequest {
            kind: RequestKind::Md,
            pairs: 1,
            origin: 0,
            fmin: 0.98,
            tmax_us: 0,
        },
    );
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.metrics.error_count("UNSUPP"), 1);
    assert_eq!(sim.metrics.total_pairs(), 0);
}

#[test]
fn deadline_too_tight_is_unsupported() {
    let mut sim = LinkSimulation::new(LinkConfig::lab(WorkloadSpec::none(), 7));
    sim.submit(
        0,
        GeneratedRequest {
            kind: RequestKind::Md,
            pairs: 5,
            origin: 0,
            fmin: 0.6,
            tmax_us: 50, // 50 µs for 5 pairs: hopeless
        },
    );
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.metrics.error_count("UNSUPP"), 1);
}

#[test]
fn random_workload_reaches_steady_state_throughput() {
    let spec = WorkloadSpec::single(RequestKind::Md, 0.9, 2).with_origin(OriginPolicy::Random);
    let mut sim = LinkSimulation::new(LinkConfig::lab(spec, 8));
    sim.run_for(SimDuration::from_secs(12));
    let th = sim.metrics.throughput(RequestKind::Md);
    assert!(th > 0.5, "throughput {th} pairs/s");
    // Pairs delivered at both origins over a long run (fairness).
    let a = sim
        .metrics
        .kind_at_origin(RequestKind::Md, 0)
        .map(|m| m.pairs_delivered)
        .unwrap_or(0);
    let b = sim
        .metrics
        .kind_at_origin(RequestKind::Md, 1)
        .map(|m| m.pairs_delivered)
        .unwrap_or(0);
    assert!(a > 0 && b > 0, "both origins served: A={a} B={b}");
}

#[test]
fn mixed_load_all_kinds_progress_under_both_schedulers() {
    for sched in [SchedulerChoice::Fcfs, SchedulerChoice::HigherWfq] {
        let spec = WorkloadSpec::from_pattern(&UsagePattern::uniform(), 0.6);
        let mut sim = LinkSimulation::new(LinkConfig::lab(spec, 9).with_scheduler(sched));
        sim.run_for(SimDuration::from_secs(10));
        assert!(
            sim.metrics.total_pairs() > 0,
            "{}: no pairs at all",
            sched.label()
        );
    }
}
