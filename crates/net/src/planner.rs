//! Planning: which path to take, and on what terms to (re)try.
//!
//! Paths come from the route-metric engine (see [`crate::route`])
//! under the network's [`RouteMetric`]. Planning closes the loop on live
//! congestion — every plan sees the per-edge reservation counts the
//! request ledger holds *now* ([`RouteMetric::LoadLatency`] prices
//! them) — and on adversity: downed edges are
//! absent and recently failed ones carry the penalty box's decaying
//! surcharge ([`crate::fault`]). Planning is pure: nothing is reserved.
//!
//! The planner also draws the backoff a failed attempt waits out
//! before its re-plan. The terms a request is issued under ([`Terms`])
//! are the network's, fixed before it runs.

use crate::fault::{PenaltyBox, PenaltyConfig};
use crate::ledger::Ledger;
use crate::route::{PlanContext, Route, RouteMetric, RoutePlanner};
use crate::ruleset::Policy;
use crate::topology::Topology;
use qlink_des::{DetRng, SimDuration, SimTime};
use qlink_egp::feu::FidelityEstimator;
use qlink_phys::attempt::ModelCache;
use qlink_phys::params::ScenarioParams;

/// The terms requests are issued under: a
/// [`NetConfig`](crate::network::NetConfig)'s metric, policy, retry
/// budget and timeout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Terms {
    pub(crate) metric: RouteMetric,
    pub(crate) policy: Policy,
    pub(crate) retries: u32,
    pub(crate) request_timeout: Option<SimDuration>,
}

/// The route planner and what it derives from.
pub(crate) struct Planner {
    /// Edge profiles, built lazily on the first plan and reused until a
    /// repair changes an edge's hardware.
    routes: Option<RoutePlanner>,
    /// The table every attempt model this network derives lands in.
    models: ModelCache,
    /// One FEU handle per distinct [`ScenarioParams`] among the links
    /// built so far, all over `models`: every link on the same hardware
    /// holds a clone of the same one.
    estimators: Vec<FidelityEstimator>,
    /// Re-route jitter draws from its own substream, so runs without
    /// retries never touch it.
    reroute_rng: DetRng,
    /// The penalty box (see [`crate::fault`]), armed together with a
    /// fault plan.
    penalty_box: Option<PenaltyBox>,
    /// Planning-time scratch handed to [`PlanContext::penalties`] —
    /// `f64::INFINITY` for downed edges, the decayed surcharge
    /// otherwise. Stays empty until a fault plan arms.
    penalties: Vec<f64>,
    /// Planning-time scratch handed to [`PlanContext::loads`].
    loads: Vec<u32>,
}

impl Planner {
    pub(crate) fn new(seed: u64, models: ModelCache) -> Self {
        Planner {
            routes: None,
            models,
            estimators: Vec::new(),
            reroute_rng: DetRng::new(seed).substream("net/reroute"),
            penalty_box: None,
            penalties: Vec::new(),
            loads: Vec::new(),
        }
    }

    /// The FEU handle for `params`: the one already made for that
    /// hardware, or a new one over the shared models. Creating one
    /// derives nothing.
    pub(crate) fn estimator_for(&mut self, params: &ScenarioParams) -> FidelityEstimator {
        if let Some(feu) = self.estimators.iter().find(|feu| feu.params() == params) {
            return feu.clone();
        }
        self.estimators.push(FidelityEstimator::with_models(
            params.clone(),
            self.models.clone(),
        ));
        self.estimators.last().expect("pushed above").clone()
    }

    pub(crate) fn estimators(&self) -> &[FidelityEstimator] {
        &self.estimators
    }

    /// Starts pricing failures into planning.
    pub(crate) fn arm_penalty_box(&mut self, edges: usize, cfg: PenaltyConfig) {
        self.penalty_box = Some(PenaltyBox::new(edges, cfg));
    }

    /// Prices `edge` up for everyone after a failure on it at `t`.
    pub(crate) fn penalize(&mut self, edge: usize, t: SimTime) {
        if let Some(pb) = &mut self.penalty_box {
            pb.bump(edge, t);
        }
    }

    pub(crate) fn penalty(&self, edge: usize, now: SimTime) -> f64 {
        self.penalty_box
            .as_ref()
            .map_or(0.0, |pb| pb.penalty(edge, now))
    }

    /// An edge's hardware changed: the next plan re-profiles every edge
    /// against the current configs.
    pub(crate) fn forget_profiles(&mut self) {
        self.routes = None;
    }

    /// The FEU fidelity estimate of `edge` (what per-edge purification
    /// programs are chosen against). Building the edge profiles is
    /// deterministic and draws no RNG, so doing it lazily here cannot
    /// move a bit.
    pub(crate) fn edge_fidelity(&mut self, topo: &Topology, edge: usize) -> f64 {
        let routes = self
            .routes
            .get_or_insert_with(|| RoutePlanner::with_models(topo, &self.models));
        routes.profile(edge).fidelity
    }

    /// The planning primitive: `ask` under the ledger's live loads and
    /// the penalty box as of `now`. The ask carries its own metric,
    /// exclusions and policy.
    pub(crate) fn plan(
        &mut self,
        topo: &Topology,
        ledger: &Ledger,
        now: SimTime,
        ask: PlanContext<'_>,
    ) -> Vec<Route> {
        ledger.edge_loads_into(topo.edge_count(), &mut self.loads);
        // Downed edges are infinitely penalized (treated as absent —
        // how the fault layer keeps planning off dead links), every
        // other edge carries its decayed penalty-box surcharge.
        if let Some(pb) = &self.penalty_box {
            self.penalties.clear();
            self.penalties.extend((0..topo.edge_count()).map(|e| {
                if topo.edge_up(e) {
                    pb.penalty(e, now)
                } else {
                    f64::INFINITY
                }
            }));
        }
        let routes = self
            .routes
            .get_or_insert_with(|| RoutePlanner::with_models(topo, &self.models));
        let ctx = PlanContext {
            loads: &self.loads,
            penalties: &self.penalties,
            ..ask
        };
        routes.routes(topo, &ctx)
    }

    /// Plans the routes a request is *issued* on, down one fallback
    /// ladder: at `fmin` around `exclude`; else with the exclusions
    /// lifted; else best-effort ignoring `fmin` — the links then
    /// reject the CREATEs as UNSUPP and the attempt fails gracefully,
    /// the same degradation the link layer gives an unachievable
    /// `Fmin`. Empty only when no path connects the pair at all.
    pub(crate) fn plan_for_issue(
        &mut self,
        topo: &Topology,
        ledger: &Ledger,
        now: SimTime,
        ask: PlanContext<'_>,
    ) -> Vec<Route> {
        let mut routes = self.plan(topo, ledger, now, ask);
        if routes.is_empty() && !ask.exclude.is_empty() {
            let ask = PlanContext {
                exclude: &[],
                ..ask
            };
            routes = self.plan(topo, ledger, now, ask);
        }
        if routes.is_empty() {
            let ask = PlanContext {
                exclude: &[],
                fmin: 0.0,
                ..ask
            };
            routes = self.plan(topo, ledger, now, ask);
        }
        routes
    }

    /// Up to `ask.k` issue routes taken edge-disjoint greedily
    /// (cheapest first), widening the Yen candidate pool until that
    /// many are found, the graph runs out of simple paths, or the pool
    /// hits a sanity cap. Empty only when no path connects the pair.
    pub(crate) fn disjoint_routes(
        &mut self,
        topo: &Topology,
        ledger: &Ledger,
        now: SimTime,
        ask: PlanContext<'_>,
    ) -> Vec<Route> {
        // A disjoint route ranked below non-disjoint ones can sit
        // beyond the first `streams` candidates, so grow the pool
        // until greedy selection is satisfied or the graph (or the
        // cap — Yen's cost grows with k) is exhausted.
        let streams = ask.k;
        let cap = streams.max(32);
        let mut k = streams;
        let mut selected: Vec<Route> = Vec::new();
        loop {
            let routes = self.plan_for_issue(topo, ledger, now, PlanContext { k, ..ask });
            let exhausted = routes.len() < k;
            selected.clear();
            for r in routes {
                if selected.iter().all(|s| s.edge_disjoint(&r)) {
                    selected.push(r);
                }
                if selected.len() == streams {
                    break;
                }
            }
            if selected.len() == streams || exhausted || k >= cap {
                return selected;
            }
            k = (k * 2).min(cap);
        }
    }

    /// How long a failed attempt waits before its re-plan, given the
    /// failed path's one-way control delay `base`: `base × (1 + u)` for
    /// one `net/reroute` draw `u ∈ [0, 1)`, whatever the attempt number.
    pub(crate) fn backoff_delay(&mut self, base: SimDuration) -> SimDuration {
        let jitter = self.reroute_rng.uniform();
        SimDuration::from_secs_f64(base.as_secs_f64() * (1.0 + jitter))
    }
}
