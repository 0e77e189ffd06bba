//! Deterministic fault injection: link failure/repair schedules, node
//! churn, and the time-decaying penalty box.
//!
//! A [`FaultPlan`] describes the adversity a run is subjected to:
//!
//! * **Scheduled events** ([`FaultSpec`]) — "edge 3 fails at t = 2 s,
//!   comes back at t = 5 s with a degraded profile". Deterministic by
//!   construction.
//! * **Stochastic flapping** ([`Flapping`]) — a renewal process of
//!   exponentially distributed up/down dwell times per edge. Drawn
//!   once, at arm time, from the dedicated `"net/fault"` substream of
//!   the run seed, so the realized schedule is a pure function of
//!   `(seed, plan)` and never perturbs any other random stream.
//! * **The penalty box** ([`PenaltyConfig`]) — a per-edge surcharge
//!   that spikes when an edge fails or UNSUPPs and decays
//!   exponentially with a configurable half-life. The decayed value
//!   is fed into [`crate::route::PlanContext::penalties`] so *every*
//!   request's planner prices recently bad edges up — one stream's
//!   pain re-routes the whole network.
//!
//! The expanded schedule rides the shared event queue
//! (`NetEvent::Fault` in `network.rs`); `tests/net_faults.rs` pins
//! the resulting runs per seed.

use qlink_des::{DetRng, SimDuration, SimTime};
use qlink_sim::config::LinkConfig;

/// One fault action, applied instantaneously when its event fires.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// Take an edge's quantum link down. In-flight requests riding
    /// the edge are failed through the ordinary rejection → backoff →
    /// re-plan path; the penalty box is bumped.
    Fail {
        /// Edge index in the topology.
        edge: usize,
    },
    /// Bring an edge back up. The underlying link simulation is
    /// rebuilt from scratch (fresh deterministic seed, clock aligned
    /// to the next MHP cycle boundary); with `profile` set the edge
    /// comes back under a different — typically degraded — physics
    /// profile. The penalty box is *not* cleared: the edge re-enters
    /// service at its decayed price.
    Repair {
        /// Edge index in the topology.
        edge: usize,
        /// Replacement link profile, or `None` to restore the edge
        /// with its current configuration.
        profile: Option<Box<LinkConfig>>,
    },
    /// Node churn: every edge incident to the node fails.
    NodeDown {
        /// Node index in the topology.
        node: usize,
    },
    /// Node churn: every incident edge that is down is repaired (with
    /// its current profile).
    NodeUp {
        /// Node index in the topology.
        node: usize,
    },
}

/// A fault scheduled at a fixed offset from plan arm time.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// When the fault fires, relative to the start of the run
    /// ([`crate::network::NetConfig::faults`]).
    pub at: SimDuration,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded-stochastic up/down renewal process on one edge.
///
/// The edge stays up for an `Exp(mean_up)` dwell, fails, stays down
/// for an `Exp(mean_down)` dwell, is repaired, and so on for
/// `cycles` fail/repair pairs. All dwell times are drawn at arm time
/// from the `"net/fault"` substream, so the realized schedule is
/// reproducible and independent of everything else in the run.
#[derive(Debug, Clone)]
pub struct Flapping {
    /// Edge index in the topology.
    pub edge: usize,
    /// Mean up-dwell before each failure.
    pub mean_up: SimDuration,
    /// Mean down-dwell before each repair.
    pub mean_down: SimDuration,
    /// Number of fail/repair cycles to generate.
    pub cycles: usize,
    /// Profile each repair restores the edge with (`None` keeps the
    /// current configuration).
    pub degrade: Option<Box<LinkConfig>>,
}

/// Penalty-box pricing knobs.
#[derive(Debug, Clone, Copy)]
pub struct PenaltyConfig {
    /// Surcharge added per fail/UNSUPP event: an edge's base metric
    /// cost is multiplied by `1 + penalty` while the penalty is
    /// positive. Zero switches the box off ([`PenaltyConfig::off`]).
    pub surcharge: f64,
    /// Half-life of the exponential decay: `surcharge` halves every
    /// `half_life` of simulated time.
    pub half_life: SimDuration,
}

impl Default for PenaltyConfig {
    fn default() -> Self {
        PenaltyConfig {
            surcharge: 4.0,
            half_life: SimDuration::from_secs_f64(2.0),
        }
    }
}

impl PenaltyConfig {
    /// A configuration with the penalty box switched off: a zero
    /// surcharge, so every penalty stays 0 (downed edges are still
    /// excluded from planning).
    pub fn off() -> Self {
        PenaltyConfig {
            surcharge: 0.0,
            ..PenaltyConfig::default()
        }
    }
}

/// The adversity a run is subjected to: scheduled faults, stochastic
/// flapping, and penalty-box pricing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Deterministically scheduled fault events.
    pub events: Vec<FaultSpec>,
    /// Stochastic per-edge flapping processes (expanded into concrete
    /// events from the `"net/fault"` substream at arm time).
    pub flapping: Vec<Flapping>,
    /// Penalty-box pricing (defaults to on; see
    /// [`PenaltyConfig`]).
    pub penalty: PenaltyConfig,
}

impl FaultPlan {
    /// An empty plan with default penalty pricing.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Every one of `edges` edges flapping independently for `cycles`
    /// fail/repair pairs of `Exp(mean_up)` / `Exp(mean_down)` dwells,
    /// repaired under its current profile, in edge order (the order
    /// their dwells are drawn in), under default penalty pricing.
    pub fn flapping_everywhere(
        edges: usize,
        mean_up: SimDuration,
        mean_down: SimDuration,
        cycles: usize,
    ) -> Self {
        let flapping = (0..edges)
            .map(|edge| Flapping {
                edge,
                mean_up,
                mean_down,
                cycles,
                degrade: None,
            })
            .collect();
        FaultPlan {
            flapping,
            ..FaultPlan::default()
        }
    }

    /// Adds a scheduled fault (builder style).
    pub fn with_event(mut self, at: SimDuration, kind: FaultKind) -> Self {
        self.events.push(FaultSpec { at, kind });
        self
    }

    /// Adds a flapping process (builder style).
    pub fn with_flapping(mut self, f: Flapping) -> Self {
        self.flapping.push(f);
        self
    }

    /// Overrides the penalty configuration (builder style).
    pub fn with_penalty(mut self, penalty: PenaltyConfig) -> Self {
        self.penalty = penalty;
        self
    }

    /// Expands the plan into a concrete `(offset, kind)` schedule:
    /// the scheduled events verbatim plus every flapping process
    /// realized from `rng`, stable-sorted by offset (so same-instant
    /// events keep their plan order). Pure in `(plan, rng state)` —
    /// the network layer arms the result onto the shared queue.
    pub(crate) fn expand(&self, rng: &mut DetRng) -> Vec<(SimDuration, FaultKind)> {
        let mut out: Vec<(SimDuration, FaultKind)> =
            self.events.iter().map(|s| (s.at, s.kind.clone())).collect();
        for f in &self.flapping {
            let mut t = SimDuration::ZERO;
            for _ in 0..f.cycles {
                t += exp_draw(rng, f.mean_up);
                out.push((t, FaultKind::Fail { edge: f.edge }));
                t += exp_draw(rng, f.mean_down);
                out.push((
                    t,
                    FaultKind::Repair {
                        edge: f.edge,
                        profile: f.degrade.clone(),
                    },
                ));
            }
        }
        out.sort_by_key(|(at, _)| *at);
        out
    }
}

/// One exponential dwell with the given mean. `u` is uniform in
/// [0, 1); `1 - u` avoids `ln(0)`.
fn exp_draw(rng: &mut DetRng, mean: SimDuration) -> SimDuration {
    let u = rng.uniform();
    SimDuration::from_secs_f64(-(1.0 - u).ln() * mean.as_secs_f64())
}

/// Per-edge exponentially decaying surcharges — the penalty box.
///
/// Each edge carries a non-negative penalty value; fails and UNSUPPs
/// bump it by [`PenaltyConfig::surcharge`], and between bumps it
/// halves every [`PenaltyConfig::half_life`]. Decay is applied
/// lazily: the stored value is re-based whenever it is read or
/// bumped, so the box costs O(1) per touch and nothing per tick.
#[derive(Debug, Clone)]
pub struct PenaltyBox {
    cfg: PenaltyConfig,
    /// Penalty value per edge as of the matching `updated` instant.
    value: Vec<f64>,
    /// When each edge's value was last re-based.
    updated: Vec<SimTime>,
}

impl PenaltyBox {
    /// A box covering `edges` edges, all at zero penalty.
    pub fn new(edges: usize, cfg: PenaltyConfig) -> Self {
        PenaltyBox {
            cfg,
            value: vec![0.0; edges],
            updated: vec![SimTime::ZERO; edges],
        }
    }

    /// The pricing configuration.
    pub fn config(&self) -> &PenaltyConfig {
        &self.cfg
    }

    /// The edge's decayed penalty at `now`. Zero when the box is
    /// off.
    pub fn penalty(&self, edge: usize, now: SimTime) -> f64 {
        decay(
            self.value[edge],
            self.updated[edge],
            now,
            self.cfg.half_life,
        )
    }

    /// Bumps the edge's penalty by one surcharge at `now` (decaying
    /// the stored value first). Returns the new penalty: 0.0 when the
    /// box is off.
    pub fn bump(&mut self, edge: usize, now: SimTime) -> f64 {
        let v = decay(
            self.value[edge],
            self.updated[edge],
            now,
            self.cfg.half_life,
        ) + self.cfg.surcharge;
        self.value[edge] = v;
        self.updated[edge] = now;
        v
    }
}

/// `value · 2^(-(now - since) / half_life)`, the half-life decay law.
fn decay(value: f64, since: SimTime, now: SimTime, half_life: SimDuration) -> f64 {
    if value <= 0.0 {
        return 0.0;
    }
    let dt = now.saturating_since(since).as_secs_f64();
    let hl = half_life.as_secs_f64();
    if hl <= 0.0 {
        return 0.0;
    }
    value * (-dt / hl * std::f64::consts::LN_2).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlink_sim::workload::WorkloadSpec;

    #[test]
    fn penalty_bump_and_half_life_decay() {
        let cfg = PenaltyConfig {
            surcharge: 4.0,
            half_life: SimDuration::from_secs_f64(2.0),
        };
        let mut pb = PenaltyBox::new(3, cfg);
        assert_eq!(pb.penalty(0, SimTime::ZERO), 0.0);
        let v = pb.bump(0, SimTime::ZERO);
        assert_eq!(v, 4.0);
        // One half-life later: exactly half (within float error).
        let t1 = SimTime::ZERO + SimDuration::from_secs_f64(2.0);
        assert!((pb.penalty(0, t1) - 2.0).abs() < 1e-12);
        // A second bump at t1 re-bases: 2 + 4 = 6.
        let v = pb.bump(0, t1);
        assert!((v - 6.0).abs() < 1e-12);
        // Untouched edges stay at zero.
        assert_eq!(pb.penalty(1, t1), 0.0);
    }

    #[test]
    fn disabled_box_never_prices() {
        let mut pb = PenaltyBox::new(2, PenaltyConfig::off());
        assert_eq!(pb.bump(0, SimTime::ZERO), 0.0);
        let later = SimTime::ZERO + SimDuration::from_secs_f64(1.0);
        assert_eq!(pb.penalty(0, later), 0.0);
    }

    #[test]
    fn expansion_is_deterministic_and_sorted() {
        let lab = LinkConfig::lab(WorkloadSpec::none(), 7);
        let plan = FaultPlan::new()
            .with_event(SimDuration::from_secs_f64(3.0), FaultKind::Fail { edge: 1 })
            .with_flapping(Flapping {
                edge: 0,
                mean_up: SimDuration::from_secs_f64(1.0),
                mean_down: SimDuration::from_secs_f64(0.5),
                cycles: 4,
                degrade: Some(Box::new(lab)),
            });
        let a = plan.expand(&mut DetRng::new(42).substream("net/fault"));
        let b = plan.expand(&mut DetRng::new(42).substream("net/fault"));
        assert_eq!(a.len(), 1 + 2 * 4);
        assert_eq!(a.len(), b.len());
        for ((ta, ka), (tb, kb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert_eq!(format!("{ka:?}"), format!("{kb:?}"));
        }
        // Sorted by offset.
        for w in a.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // A different seed realizes a different schedule.
        let c = plan.expand(&mut DetRng::new(43).substream("net/fault"));
        assert!(a.iter().zip(&c).any(|((ta, _), (tc, _))| ta != tc));
    }

    #[test]
    fn flapping_alternates_fail_repair_per_edge() {
        let plan = FaultPlan::new().with_flapping(Flapping {
            edge: 2,
            mean_up: SimDuration::from_secs_f64(1.0),
            mean_down: SimDuration::from_secs_f64(1.0),
            cycles: 3,
            degrade: None,
        });
        let sched = plan.expand(&mut DetRng::new(1).substream("net/fault"));
        let kinds: Vec<_> = sched
            .iter()
            .map(|(_, k)| match k {
                FaultKind::Fail { edge } => ("fail", *edge),
                FaultKind::Repair { edge, .. } => ("repair", *edge),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("fail", 2),
                ("repair", 2),
                ("fail", 2),
                ("repair", 2),
                ("fail", 2),
                ("repair", 2)
            ]
        );
    }
}
