//! The route-metric engine: pluggable per-edge costs and
//! (K-)shortest-path search over a [`Topology`].
//!
//! PR 1's network layer picked paths by hop count alone. That is the
//! wrong objective for entanglement distribution: end-to-end fidelity
//! is (to first order) a *product* of link fidelities, latency is
//! dominated by the slowest link's expected generation time, and both
//! vary per edge with the physical scenario behind it. This module
//! derives a [`EdgeProfile`] for every edge from its
//! [`LinkConfig`](qlink_sim::config::LinkConfig) — expected NL-pair
//! latency, per-attempt success probability, and a memory-decay-
//! adjusted fidelity estimate, all computed by the same
//! [`FidelityEstimator`] the link layer's FEU uses (§5.2.3 of the
//! paper) — and searches paths under a pluggable [`RouteMetric`]:
//!
//! * [`HopCount`] — PR 1's behaviour, kept as the default;
//! * [`Latency`] — minimise the summed expected generation latency;
//! * [`FidelityProduct`] — maximise the product of link fidelities
//!   (additive as `-ln F`, the standard trick for multiplicative
//!   route metrics);
//! * [`LoadScaledLatency`] — congestion-aware latency: every
//!   outstanding reservation already queued on an edge multiplies its
//!   expected generation latency, so concurrent requests spread over
//!   a mesh instead of piling onto the statically cheapest path.
//!
//! Load awareness enters through [`RouteMetric::load_cost`]: the
//! planner hands every metric the edge's *live* reservation count
//! ([`Network::edge_load`](crate::network::Network::edge_load)) at
//! plan time via [`PlanContext::loads`], and the default
//! implementation ignores it — so the static metrics price routes
//! exactly as before, and only metrics that opt in (currently
//! [`LoadScaledLatency`]) react to congestion.
//!
//! Purifying routes are priced through the same machinery: each
//! profile also carries the **distilled** figures of its edge
//! ([`EdgeProfile::purified_fidelity`], the DEJMPS output of two
//! profile pairs, and [`EdgeProfile::purified_latency`], the
//! double-pair-plus-retries generation cost), and
//! [`RouteMetric::purified_cost`] switches a metric onto them when
//! planning under a purifying [`Policy`] ([`Policy::price`]) — so
//! [`Network::plan_route`](crate::network::Network::plan_route) faces
//! the real fidelity-vs-throughput tradeoff purification creates.
//!
//! Search is deterministic Dijkstra (equal-cost ties break by
//! structural settle order, so routing is a pure function of the
//! topology — never of hash or scheduling order) plus Yen's algorithm
//! for K shortest loopless paths —
//! the candidate set [`Network`](crate::network::Network) splits
//! concurrent same-pair requests across.
//!
//! # Examples
//!
//! ```
//! use qlink_net::route::{FidelityProduct, HopCount, RouteMetric, RoutePlanner};
//! use qlink_net::topology::Topology;
//! use qlink_sim::config::LinkConfig;
//! use qlink_sim::workload::WorkloadSpec;
//!
//! // A triangle: direct edge 0-2 plus the two-hop detour via node 1.
//! let mut topo = Topology::new();
//! for _ in 0..3 {
//!     topo.add_node();
//! }
//! topo.connect(0, 1, LinkConfig::lab(WorkloadSpec::none(), 1));
//! topo.connect(1, 2, LinkConfig::lab(WorkloadSpec::none(), 2));
//! topo.connect(0, 2, LinkConfig::lab(WorkloadSpec::none(), 3));
//!
//! let planner = RoutePlanner::new(&topo);
//! let direct = planner
//!     .shortest_path(&topo, 0, 2, &HopCount, 0.0)
//!     .expect("connected");
//! assert_eq!(direct.nodes, vec![0, 2]);
//! // With identical Lab links the fidelity product also prefers fewer
//! // hops; the profiles expose the numbers the decision used.
//! assert_eq!(HopCount.edge_cost(planner.profile(2)), 1.0);
//! assert!(FidelityProduct.edge_cost(planner.profile(2)) > 0.0);
//! ```

use crate::ruleset::Policy;
use crate::topology::Topology;
use qlink_des::SimDuration;
use qlink_egp::feu::FidelityEstimator;
use qlink_phys::attempt::ModelCache;
use qlink_quantum::purify::distill_werner;
use qlink_wire::fields::RequestType;

/// Reference bright-state population at which edges are profiled.
///
/// Routing needs a *characteristic* quality per link, independent of
/// any one request's `Fmin` (the FEU's adaptive α would otherwise
/// equalise the delivered fidelity of every achievable link and erase
/// the differences routing exists to exploit). α = 0.1 sits in the
/// flat middle of the paper's operating range (§4.4: F ≈ 1 − α).
pub const PROFILE_ALPHA: f64 = 0.1;

/// Routing-relevant characteristics of one edge, derived from its
/// [`LinkConfig`](qlink_sim::config::LinkConfig) via the FEU at
/// [`PROFILE_ALPHA`].
#[derive(Debug, Clone)]
pub struct EdgeProfile {
    /// The edge this profile describes.
    pub edge: usize,
    /// Per-attempt success probability at the reference α.
    pub success_probability: f64,
    /// Expected time to deliver one NL pair: expected MHP cycles per
    /// attempt × attempts per success × cycle duration.
    pub expected_latency: SimDuration,
    /// Memory-decay-adjusted delivered fidelity: the FEU's K-type
    /// estimate at the reference α, shrunk (as a Werner parameter)
    /// by carbon-memory decoherence over one classical round trip of
    /// the edge — the minimum time a stored half waits for swap
    /// coordination.
    pub fidelity: f64,
    /// The FEU's achievability ceiling: its K-type estimate at
    /// `alpha_min`, the exact figure the link's `choose_alpha` checks
    /// before rejecting a CREATE as UNSUPP. Requests with `fmin`
    /// above this cannot be served by the edge. (Not a strict upper
    /// bound on [`EdgeProfile::fidelity`]: at very low α dark counts
    /// make up a larger share of heralds, so the fidelity-vs-α curve
    /// peaks *above* `alpha_min`.)
    pub fidelity_ceiling: f64,
    /// One-way classical control delay of the edge.
    pub control_delay: SimDuration,
    /// Fidelity of the edge's pair after a link-level 2→1
    /// distillation of two profile-fidelity pairs (the DEJMPS closed
    /// form on [`EdgeProfile::fidelity`] twice). What a purifying
    /// route's fidelity product is built from.
    pub purified_fidelity: f64,
    /// Expected time to one *accepted* distilled pair: two pair
    /// generations plus the parity-bit exchange per attempt, divided
    /// by the distillation's success probability — the double-pair
    /// (and retry) price a purifying route pays per edge.
    pub purified_latency: SimDuration,
}

impl EdgeProfile {
    /// Fidelity and expected latency after `rounds` accepted nested
    /// 2→1 distillations, each pumping the previous survivor with one
    /// fresh profile-fidelity pair (entanglement pumping toward the
    /// DEJMPS fixed point — see
    /// [`Policy::PumpRounds`]).
    ///
    /// Round 1 reproduces the stored [`EdgeProfile::purified_fidelity`]
    /// / [`EdgeProfile::purified_latency`] exactly; each further round
    /// r pays the previous rounds' expected time plus one fresh pair
    /// and the parity bit, divided by round r's acceptance
    /// probability. `rounds == 0` returns the raw figures.
    pub fn purified_after(&self, rounds: u8) -> (f64, SimDuration) {
        let raw = self.fidelity.clamp(0.25, 1.0);
        let pair_s = self.expected_latency.as_secs_f64();
        let ctrl_s = self.control_delay.as_secs_f64();
        let mut fidelity = raw;
        let mut latency_s = pair_s;
        for r in 0..rounds {
            let out = distill_werner(fidelity, raw);
            // The first round generates both pairs fresh; later rounds
            // already hold the survivor and only wait for the pump.
            let attempt_s = if r == 0 {
                2.0 * pair_s + ctrl_s
            } else {
                latency_s + pair_s + ctrl_s
            };
            fidelity = out.output_fidelity;
            latency_s = attempt_s / out.success_probability.max(f64::MIN_POSITIVE);
        }
        if rounds == 0 {
            (self.fidelity, self.expected_latency)
        } else {
            (fidelity, SimDuration::from_secs_f64(latency_s))
        }
    }
}

/// A per-edge cost function for path search.
///
/// Costs must be non-negative and additive along a path; edges whose
/// cost is not finite are treated as absent. Implementations decide
/// which [`EdgeProfile`] figures matter.
pub trait RouteMetric {
    /// Display name (reports, benches).
    fn name(&self) -> &'static str;

    /// The cost of traversing an edge with this profile.
    fn edge_cost(&self, profile: &EdgeProfile) -> f64;

    /// The cost of traversing the edge when the route purifies it
    /// (link-level 2→1 distillation: double pair cost, boosted
    /// fidelity). Defaults to [`RouteMetric::edge_cost`] for metrics
    /// the trade does not move (hop count).
    fn purified_cost(&self, profile: &EdgeProfile) -> f64 {
        self.edge_cost(profile)
    }

    /// The cost of traversing the edge while `load` other path
    /// reservations are already queued on it (the EGP's distributed
    /// queue serves their CREATEs in order, ahead of a new one).
    ///
    /// Defaults to a pure passthrough to [`RouteMetric::edge_cost`] —
    /// static metrics are unaffected by congestion, which keeps their
    /// route choices (and therefore regression runs) bit-identical
    /// whether or not the planner supplies live loads.
    fn load_cost(&self, profile: &EdgeProfile, load: u32) -> f64 {
        let _ = load;
        self.edge_cost(profile)
    }

    /// [`RouteMetric::load_cost`] for a purifying route (see
    /// [`RouteMetric::purified_cost`]). Defaults to ignoring the load.
    fn purified_load_cost(&self, profile: &EdgeProfile, load: u32) -> f64 {
        let _ = load;
        self.purified_cost(profile)
    }
}

/// PR 1's metric: every edge costs 1; shortest path = fewest hops.
#[derive(Debug, Clone, Copy, Default)]
pub struct HopCount;

impl RouteMetric for HopCount {
    fn name(&self) -> &'static str {
        "hops"
    }

    fn edge_cost(&self, _profile: &EdgeProfile) -> f64 {
        1.0
    }
}

/// Minimise summed expected NL-pair generation latency (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency;

impl RouteMetric for Latency {
    fn name(&self) -> &'static str {
        "latency"
    }

    fn edge_cost(&self, profile: &EdgeProfile) -> f64 {
        profile.expected_latency.as_secs_f64()
    }

    fn purified_cost(&self, profile: &EdgeProfile) -> f64 {
        profile.purified_latency.as_secs_f64()
    }
}

/// Maximise the product of (decay-adjusted) link fidelities: the cost
/// of an edge is `−ln F`, so minimising the sum maximises `∏ F`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FidelityProduct;

impl RouteMetric for FidelityProduct {
    fn name(&self) -> &'static str {
        "fidelity"
    }

    fn edge_cost(&self, profile: &EdgeProfile) -> f64 {
        if profile.fidelity <= 0.0 {
            f64::INFINITY
        } else {
            -profile.fidelity.ln()
        }
    }

    fn purified_cost(&self, profile: &EdgeProfile) -> f64 {
        if profile.purified_fidelity <= 0.0 {
            f64::INFINITY
        } else {
            -profile.purified_fidelity.ln()
        }
    }
}

/// Congestion-aware latency: an edge's expected generation latency,
/// multiplied by one plus the number of path reservations already
/// queued on it.
///
/// The EGP's distributed queue serves multiple outstanding CREATEs in
/// queue order, so a new reservation on an edge carrying `load`
/// others waits (to first order) `load` full pair generations before
/// its own begins — the edge's *effective* latency is
/// `(1 + load) × expected_latency`. Pricing that at plan time makes
/// concurrent requests spread across a mesh: each issued reservation
/// raises the cost its successors see, steering them onto idle edges
/// without any explicit disjointness constraint.
///
/// With no load information (or an idle network) this metric is
/// identical to [`Latency`].
///
/// # Examples
///
/// ```
/// use qlink_net::route::{EdgeProfile, Latency, LoadScaledLatency, RouteMetric, RoutePlanner};
/// use qlink_net::topology::Topology;
/// use qlink_sim::config::LinkConfig;
/// use qlink_sim::workload::WorkloadSpec;
///
/// let topo = Topology::chain(2, |_| LinkConfig::lab(WorkloadSpec::none(), 7));
/// let planner = RoutePlanner::new(&topo);
/// let profile = planner.profile(0);
///
/// // Unloaded, the metric agrees with plain latency…
/// assert_eq!(
///     LoadScaledLatency.load_cost(profile, 0),
///     Latency.edge_cost(profile),
/// );
/// // …and every queued reservation adds one expected generation.
/// assert_eq!(
///     LoadScaledLatency.load_cost(profile, 3),
///     4.0 * Latency.edge_cost(profile),
/// );
/// // Static metrics ignore the load entirely (default passthrough).
/// assert_eq!(Latency.load_cost(profile, 3), Latency.edge_cost(profile));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadScaledLatency;

impl RouteMetric for LoadScaledLatency {
    fn name(&self) -> &'static str {
        "load-latency"
    }

    fn edge_cost(&self, profile: &EdgeProfile) -> f64 {
        profile.expected_latency.as_secs_f64()
    }

    fn purified_cost(&self, profile: &EdgeProfile) -> f64 {
        profile.purified_latency.as_secs_f64()
    }

    fn load_cost(&self, profile: &EdgeProfile, load: u32) -> f64 {
        (1.0 + f64::from(load)) * profile.expected_latency.as_secs_f64()
    }

    fn purified_load_cost(&self, profile: &EdgeProfile, load: u32) -> f64 {
        (1.0 + f64::from(load)) * profile.purified_latency.as_secs_f64()
    }
}

/// One routed path: the node sequence, its edges, and the summed
/// metric cost the search minimised.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Node sequence, source first.
    pub nodes: Vec<usize>,
    /// Edge indices, `nodes.len() - 1` of them, in path order.
    pub edges: Vec<usize>,
    /// Total metric cost.
    pub cost: f64,
}

impl Route {
    /// Number of hops (edges) on the route.
    pub fn hops(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the two routes share no edge.
    pub fn edge_disjoint(&self, other: &Route) -> bool {
        self.edges.iter().all(|e| !other.edges.contains(e))
    }
}

/// Edge profiles for a topology plus metric-driven path search.
///
/// Building a planner reads the FEU once per distinct hardware profile
/// among the edges (two attempt models, a few 16×16 matrix chains
/// each, unless the table it is given already holds them); reuse it
/// across requests on the same topology.
#[derive(Debug, Clone)]
pub struct RoutePlanner {
    profiles: Vec<EdgeProfile>,
}

impl RoutePlanner {
    /// Profiles every edge of the topology at [`PROFILE_ALPHA`], over a
    /// table of attempt models of its own.
    pub fn new(topo: &Topology) -> Self {
        Self::with_models(topo, &ModelCache::new())
    }

    /// Profiles every edge of the topology at [`PROFILE_ALPHA`] over a
    /// shared table of attempt models (a [`Network`]'s: the models its
    /// links have built are not built again, and the two the planner
    /// needs are there for the links). The FEU is read once per
    /// distinct [`ScenarioParams`](qlink_phys::params::ScenarioParams)
    /// among the edges, not once per edge.
    ///
    /// [`Network`]: crate::network::Network
    pub fn with_models(topo: &Topology, models: &ModelCache) -> Self {
        // What the FEU says of an edge depends on its hardware alone:
        // (psucc, raw fidelity, ceiling) by the first edge that had it.
        let mut read: Vec<(usize, (f64, f64, f64))> = Vec::new();
        let profiles = topo
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let known = read
                    .iter()
                    .find(|(first, _)| topo.edge(*first).link.scenario == e.link.scenario);
                let (psucc, raw_fidelity, ceiling) = match known {
                    Some(&(_, readings)) => readings,
                    None => {
                        let mut feu =
                            FidelityEstimator::with_models(e.link.scenario.clone(), models.clone());
                        let readings = (
                            feu.success_probability(PROFILE_ALPHA),
                            feu.delivered_fidelity(PROFILE_ALPHA, RequestType::Keep),
                            feu.delivered_fidelity(feu.alpha_min(), RequestType::Keep),
                        );
                        read.push((i, readings));
                        readings
                    }
                };
                let cycles = e.link.scenario.expected_cycles_per_attempt_keep()
                    / psucc.max(f64::MIN_POSITIVE);
                let expected_latency =
                    SimDuration::from_secs_f64(cycles * e.link.scenario.mhp_cycle.as_secs_f64());
                // Werner-parameter shrinkage toward the maximally mixed
                // state over one classical round trip (reserve + swap
                // result), both halves decaying in carbon memory.
                let nv = &e.link.scenario.nv;
                let hold = 2.0 * e.control_delay.as_secs_f64();
                let rate = 2.0 * (1.0 / nv.carbon_t1 + 1.0 / nv.carbon_t2);
                let w = (4.0 * raw_fidelity - 1.0) / 3.0;
                let fidelity = (1.0 + 3.0 * w * (-hold * rate).exp()) / 4.0;
                // Price the link-level purification of this edge: two
                // profile pairs distilled into one, retried until the
                // parity check agrees, each attempt paying two pair
                // generations plus one control one-way for the bit.
                let distilled =
                    distill_werner(fidelity.clamp(0.25, 1.0), fidelity.clamp(0.25, 1.0));
                let attempt_s =
                    2.0 * expected_latency.as_secs_f64() + e.control_delay.as_secs_f64();
                let purified_latency = SimDuration::from_secs_f64(
                    attempt_s / distilled.success_probability.max(f64::MIN_POSITIVE),
                );
                EdgeProfile {
                    edge: i,
                    success_probability: psucc,
                    expected_latency,
                    fidelity,
                    fidelity_ceiling: ceiling,
                    control_delay: e.control_delay,
                    purified_fidelity: distilled.output_fidelity,
                    purified_latency,
                }
            })
            .collect();
        RoutePlanner { profiles }
    }

    /// The profile of edge `edge`.
    ///
    /// # Panics
    /// Panics on an unknown edge.
    pub fn profile(&self, edge: usize) -> &EdgeProfile {
        &self.profiles[edge]
    }

    /// All profiles, in edge order.
    pub fn profiles(&self) -> &[EdgeProfile] {
        &self.profiles
    }

    fn cost_fn<'a>(
        &'a self,
        metric: &'a dyn RouteMetric,
        fmin: f64,
        ctx: &'a PlanContext<'a>,
    ) -> impl Fn(usize) -> f64 + 'a {
        move |edge| {
            let p = &self.profiles[edge];
            let penalty = ctx.penalties.get(edge).copied().unwrap_or(0.0);
            if p.fidelity_ceiling < fmin || ctx.exclude.contains(&edge) || penalty.is_infinite() {
                // UNSUPP-infeasible, explicitly barred (re-route away
                // from a failed edge), or currently down (the fault
                // layer reports downed edges as infinitely
                // penalized): treat as absent.
                f64::INFINITY
            } else {
                let load = ctx.loads.get(edge).copied().unwrap_or(0);
                let base = ctx.policy.price(metric, p, load);
                if penalty > 0.0 {
                    // Penalty-box surcharge: multiplicative so it
                    // bites under every metric, including unit-cost
                    // HopCount. Only applied when positive, so
                    // unpenalized costs are untouched bit for bit.
                    base * (1.0 + penalty)
                } else {
                    base
                }
            }
        }
    }

    /// Minimum-cost path under `metric`, excluding edges that cannot
    /// serve `fmin` (their K-type ceiling is below it). `None` if no
    /// serving path exists.
    ///
    /// # Panics
    /// Panics on out-of-range nodes or `src == dst`.
    pub fn shortest_path(
        &self,
        topo: &Topology,
        src: usize,
        dst: usize,
        metric: &dyn RouteMetric,
        fmin: f64,
    ) -> Option<Route> {
        self.shortest_path_in(topo, src, dst, metric, fmin, &PlanContext::default())
    }

    /// [`RoutePlanner::shortest_path`] under a full [`PlanContext`]:
    /// policy pricing (under [`Policy::LinkPurify`] every edge is
    /// charged its [`RouteMetric::purified_cost`] — the double-pair,
    /// boosted-fidelity trade — so latency-style metrics see the real
    /// pair cost and fidelity-style metrics see the real gain), live
    /// per-edge loads (each priced through
    /// [`RouteMetric::load_cost`]), and an excluded-edge set
    /// (re-routing bars the edges of a failed attempt).
    ///
    /// # Panics
    /// Panics on out-of-range nodes or `src == dst`.
    pub fn shortest_path_in(
        &self,
        topo: &Topology,
        src: usize,
        dst: usize,
        metric: &dyn RouteMetric,
        fmin: f64,
        ctx: &PlanContext<'_>,
    ) -> Option<Route> {
        dijkstra(topo, src, dst, &self.cost_fn(metric, fmin, ctx), None)
    }

    /// Up to `k` loopless paths in non-decreasing `metric` cost
    /// (Yen's algorithm), under the same `fmin` feasibility filter.
    ///
    /// # Panics
    /// Panics on out-of-range nodes, `src == dst`, or `k == 0`.
    pub fn k_shortest_paths(
        &self,
        topo: &Topology,
        src: usize,
        dst: usize,
        k: usize,
        metric: &dyn RouteMetric,
        fmin: f64,
    ) -> Vec<Route> {
        self.k_shortest_paths_in(topo, src, dst, k, metric, fmin, &PlanContext::default())
    }

    /// [`RoutePlanner::k_shortest_paths`] under a full
    /// [`PlanContext`] (see [`RoutePlanner::shortest_path_in`]).
    ///
    /// # Panics
    /// Panics on out-of-range nodes, `src == dst`, or `k == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn k_shortest_paths_in(
        &self,
        topo: &Topology,
        src: usize,
        dst: usize,
        k: usize,
        metric: &dyn RouteMetric,
        fmin: f64,
        ctx: &PlanContext<'_>,
    ) -> Vec<Route> {
        yen(topo, src, dst, k, &self.cost_fn(metric, fmin, ctx))
    }
}

/// The situational half of a planning query: everything beyond the
/// metric and the fidelity floor that shapes an edge's price.
///
/// The default context — plain SWAP-ASAP, no loads, nothing excluded
/// — reproduces the static planning of
/// [`RoutePlanner::shortest_path`] exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanContext<'a> {
    /// The policy the route will run under, which prices every edge
    /// via [`Policy::price`]: always-purifying policies pay
    /// [`RouteMetric::purified_load_cost`], a threshold policy pays
    /// the distilled price only on edges its install rule actually
    /// gates in, and a pumping policy reprices per round.
    pub policy: Policy,
    /// Live reservation count per edge index
    /// ([`Network::edge_load`](crate::network::Network::edge_load)),
    /// fed to [`RouteMetric::load_cost`]. Edges beyond the slice (or
    /// an empty slice) count as unloaded.
    pub loads: &'a [u32],
    /// Edges treated as absent regardless of cost — the re-route
    /// machinery bars the edges of a failed attempt here.
    pub exclude: &'a [usize],
    /// Penalty-box surcharge per edge index (see [`crate::fault`]):
    /// a positive value multiplies the edge's cost by `1 + penalty`,
    /// `f64::INFINITY` removes the edge (how the fault layer bars
    /// currently-down edges), and edges beyond the slice (or an
    /// empty slice) are unpenalized.
    pub penalties: &'a [f64],
}

/// Edges (and via them, nodes) temporarily removed from the graph
/// during Yen's spur searches.
#[derive(Debug, Clone)]
pub(crate) struct Removed {
    edges: Vec<bool>,
    nodes: Vec<bool>,
}

/// Deterministic Dijkstra over non-negative per-edge costs.
///
/// Nodes settle in `(distance, index)` order and an equal-cost
/// relaxation never replaces an earlier predecessor: among equal-cost
/// paths the choice is a pure function of the topology, never of hash
/// or scheduling order. (This tie-break is settle-order based, so on
/// graphs with several equal-length paths it may pick a different —
/// equally shortest — path than PR 1's BFS did; chains, stars and
/// rings are unaffected.) Edges with non-finite cost are skipped.
pub(crate) fn dijkstra(
    topo: &Topology,
    src: usize,
    dst: usize,
    cost: &impl Fn(usize) -> f64,
    removed: Option<&Removed>,
) -> Option<Route> {
    assert!(
        src < topo.node_count() && dst < topo.node_count(),
        "unknown node"
    );
    assert_ne!(src, dst, "src == dst");
    let n = topo.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; n]; // (node, edge)
    let mut settled = vec![false; n];
    dist[src] = 0.0;
    loop {
        // O(n²) scan: topologies are small and this keeps settle order
        // — and therefore tie-breaking — trivially deterministic.
        let mut current = None;
        for v in 0..n {
            if !settled[v] && dist[v].is_finite() {
                if let Some(c) = current {
                    if dist[v] < dist[c] {
                        current = Some(v);
                    }
                } else {
                    current = Some(v);
                }
            }
        }
        let Some(u) = current else {
            return None; // frontier exhausted, dst unreachable
        };
        if u == dst {
            break;
        }
        settled[u] = true;
        for &e in &topo.edges_at(u) {
            if removed.is_some_and(|r| r.edges[e]) {
                continue;
            }
            let v = topo.edge(e).other(u);
            if settled[v] || removed.is_some_and(|r| r.nodes[v]) {
                continue;
            }
            let c = cost(e);
            if !c.is_finite() {
                continue;
            }
            debug_assert!(c >= 0.0, "negative edge cost {c}");
            let nd = dist[u] + c;
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = Some((u, e));
            }
        }
    }
    let mut nodes = vec![dst];
    let mut edges = Vec::new();
    while let Some((p, e)) = prev[*nodes.last().unwrap()] {
        nodes.push(p);
        edges.push(e);
    }
    nodes.reverse();
    edges.reverse();
    debug_assert_eq!(nodes[0], src);
    Some(Route {
        nodes,
        edges,
        cost: dist[dst],
    })
}

/// Yen's K shortest loopless paths. Candidates are ordered by
/// `(cost, node sequence)` so the ranking is deterministic even among
/// equal-cost paths.
pub(crate) fn yen(
    topo: &Topology,
    src: usize,
    dst: usize,
    k: usize,
    cost: &impl Fn(usize) -> f64,
) -> Vec<Route> {
    assert!(k > 0, "k == 0");
    let Some(first) = dijkstra(topo, src, dst, cost, None) else {
        return Vec::new();
    };
    let mut found = vec![first];
    let mut candidates: Vec<Route> = Vec::new();
    while found.len() < k {
        let last = found.last().expect("at least the first path").clone();
        for i in 0..last.nodes.len() - 1 {
            let spur = last.nodes[i];
            let root_nodes = &last.nodes[..=i];
            let root_edges = &last.edges[..i];
            let mut removed = Removed {
                edges: vec![false; topo.edge_count()],
                nodes: vec![false; topo.node_count()],
            };
            // Ban the next edge of every found path sharing this root,
            // forcing the spur search to deviate here.
            for p in &found {
                if p.nodes.len() > i && p.nodes[..=i] == *root_nodes {
                    if let Some(&e) = p.edges.get(i) {
                        removed.edges[e] = true;
                    }
                }
            }
            // Ban root nodes (except the spur) to keep paths loopless.
            for &v in &root_nodes[..i] {
                removed.nodes[v] = true;
            }
            if spur == dst {
                continue;
            }
            let Some(tail) = dijkstra(topo, spur, dst, cost, Some(&removed)) else {
                continue;
            };
            let root_cost: f64 = root_edges.iter().map(|&e| cost(e)).sum();
            let mut nodes = root_nodes.to_vec();
            nodes.extend_from_slice(&tail.nodes[1..]);
            let mut edges = root_edges.to_vec();
            edges.extend_from_slice(&tail.edges);
            let candidate = Route {
                nodes,
                edges,
                cost: root_cost + tail.cost,
            };
            if !found
                .iter()
                .chain(&candidates)
                .any(|p| p.nodes == candidate.nodes)
            {
                candidates.push(candidate);
            }
        }
        if candidates.is_empty() {
            break;
        }
        let best = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.cost
                    .partial_cmp(&b.cost)
                    .expect("finite route costs")
                    .then_with(|| a.nodes.cmp(&b.nodes))
            })
            .map(|(i, _)| i)
            .expect("nonempty candidates");
        found.push(candidates.swap_remove(best));
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlink_sim::config::LinkConfig;
    use qlink_sim::workload::WorkloadSpec;

    fn lab(seed: u64) -> LinkConfig {
        LinkConfig::lab(WorkloadSpec::none(), seed)
    }

    /// 0-1-2-3 chain plus a direct 0-3 edge: one 1-hop and one 3-hop
    /// route between 0 and 3, and a 2-hop 0-1-2 alternative pair.
    fn ring() -> Topology {
        let mut t = Topology::new();
        for _ in 0..4 {
            t.add_node();
        }
        t.connect(0, 1, lab(1));
        t.connect(1, 2, lab(2));
        t.connect(2, 3, lab(3));
        t.connect(0, 3, lab(4));
        t
    }

    #[test]
    fn dijkstra_unit_costs_match_bfs() {
        let t = ring();
        let r = dijkstra(&t, 0, 3, &|_| 1.0, None).unwrap();
        assert_eq!(r.nodes, vec![0, 3]);
        assert_eq!(r.edges, vec![3]);
        assert_eq!(r.cost, 1.0);
    }

    #[test]
    fn dijkstra_respects_edge_costs() {
        let t = ring();
        // Make the direct edge expensive: the long way wins.
        let costly = |e: usize| if e == 3 { 10.0 } else { 1.0 };
        let r = dijkstra(&t, 0, 3, &costly, None).unwrap();
        assert_eq!(r.nodes, vec![0, 1, 2, 3]);
        assert_eq!(r.cost, 3.0);
    }

    #[test]
    fn dijkstra_skips_infinite_edges() {
        let t = ring();
        let gapped = |e: usize| if e == 1 { f64::INFINITY } else { 1.0 };
        let r = dijkstra(&t, 0, 2, &gapped, None).unwrap();
        assert_eq!(r.nodes, vec![0, 3, 2]);
        let mut t2 = Topology::new();
        t2.add_node();
        t2.add_node();
        t2.connect(0, 1, lab(1));
        assert!(dijkstra(&t2, 0, 1, &|_| f64::INFINITY, None).is_none());
    }

    #[test]
    fn yen_enumerates_distinct_loopless_paths() {
        let t = ring();
        let paths = yen(&t, 0, 3, 4, &|_| 1.0);
        // Only two simple paths exist between 0 and 3.
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].nodes, vec![0, 3]);
        assert_eq!(paths[1].nodes, vec![0, 1, 2, 3]);
        assert!(paths[0].cost <= paths[1].cost);
        assert!(paths[0].edge_disjoint(&paths[1]));
    }

    #[test]
    fn yen_orders_by_cost() {
        let t = ring();
        let costly = |e: usize| if e == 3 { 10.0 } else { 1.0 };
        let paths = yen(&t, 0, 3, 2, &costly);
        assert_eq!(paths[0].nodes, vec![0, 1, 2, 3]);
        assert_eq!(paths[1].nodes, vec![0, 3]);
    }

    #[test]
    fn planner_profiles_are_physical() {
        let t = ring();
        let planner = RoutePlanner::new(&t);
        assert_eq!(planner.profiles().len(), 4);
        for p in planner.profiles() {
            assert!(p.success_probability > 0.0 && p.success_probability < 1.0);
            assert!(p.fidelity > 0.5, "Lab keep fidelity {}", p.fidelity);
            // The ceiling is the FEU's UNSUPP threshold (its estimate
            // at alpha_min), where dark counts depress fidelity — it
            // sits near, not necessarily above, the profile value.
            assert!(p.fidelity_ceiling > 0.5);
            assert!((p.fidelity - p.fidelity_ceiling).abs() < 0.1);
            assert!(p.expected_latency > SimDuration::ZERO);
        }
    }

    #[test]
    fn fmin_above_ceiling_excludes_edges() {
        let t = ring();
        let planner = RoutePlanner::new(&t);
        let ceiling = planner.profile(0).fidelity_ceiling;
        assert!(planner
            .shortest_path(&t, 0, 3, &FidelityProduct, ceiling + 0.01)
            .is_none());
        assert!(planner
            .shortest_path(&t, 0, 3, &FidelityProduct, 0.5)
            .is_some());
    }

    #[test]
    fn metric_names() {
        assert_eq!(HopCount.name(), "hops");
        assert_eq!(Latency.name(), "latency");
        assert_eq!(FidelityProduct.name(), "fidelity");
        assert_eq!(LoadScaledLatency.name(), "load-latency");
    }

    #[test]
    fn load_scaled_latency_spreads_onto_the_longer_arm() {
        // Identical Lab links: unloaded, the direct 0-3 edge wins; with
        // enough reservations queued on it, the 3-hop arm gets cheaper.
        let t = ring();
        let planner = RoutePlanner::new(&t);
        let unloaded = planner
            .shortest_path_in(&t, 0, 3, &LoadScaledLatency, 0.0, &PlanContext::default())
            .expect("connected");
        assert_eq!(unloaded.nodes, vec![0, 3]);

        let loads = [0, 0, 0, 4]; // four reservations on the direct edge
        let loaded = planner
            .shortest_path_in(
                &t,
                0,
                3,
                &LoadScaledLatency,
                0.0,
                &PlanContext {
                    loads: &loads,
                    ..PlanContext::default()
                },
            )
            .expect("connected");
        assert_eq!(loaded.nodes, vec![0, 1, 2, 3], "load pushes traffic off");

        // A static metric sees the same loads and ignores them.
        let static_pick = planner
            .shortest_path_in(
                &t,
                0,
                3,
                &Latency,
                0.0,
                &PlanContext {
                    loads: &loads,
                    ..PlanContext::default()
                },
            )
            .expect("connected");
        assert_eq!(static_pick.nodes, vec![0, 3]);
    }

    #[test]
    fn excluded_edges_are_treated_as_absent() {
        let t = ring();
        let planner = RoutePlanner::new(&t);
        let detour = planner
            .shortest_path_in(
                &t,
                0,
                3,
                &HopCount,
                0.0,
                &PlanContext {
                    exclude: &[3],
                    ..PlanContext::default()
                },
            )
            .expect("the long arm remains");
        assert_eq!(detour.nodes, vec![0, 1, 2, 3]);
        // Excluding every incident edge disconnects the pair.
        assert!(planner
            .shortest_path_in(
                &t,
                0,
                3,
                &HopCount,
                0.0,
                &PlanContext {
                    exclude: &[0, 3],
                    ..PlanContext::default()
                },
            )
            .is_none());
    }

    #[test]
    fn purified_load_cost_scales_the_purified_figure() {
        let t = ring();
        let planner = RoutePlanner::new(&t);
        let p = planner.profile(0);
        assert_eq!(
            LoadScaledLatency.purified_load_cost(p, 2),
            3.0 * LoadScaledLatency.purified_cost(p)
        );
        // Default passthrough for static metrics.
        assert_eq!(Latency.purified_load_cost(p, 2), Latency.purified_cost(p));
    }

    #[test]
    fn purified_profiles_trade_latency_for_fidelity() {
        let t = ring();
        let planner = RoutePlanner::new(&t);
        for p in planner.profiles() {
            // Lab keep fidelity sits above the F > 1/2 distillation
            // threshold, so the purified figure must be a strict gain…
            assert!(
                p.purified_fidelity > p.fidelity,
                "edge {}: purified {} ≤ raw {}",
                p.edge,
                p.purified_fidelity,
                p.fidelity
            );
            // …paid for by more than double the generation latency
            // (two pairs per attempt, retried on rejected parity).
            assert!(
                p.purified_latency.as_secs_f64() > 2.0 * p.expected_latency.as_secs_f64(),
                "edge {}: purified latency must price the double pair cost",
                p.edge
            );
            // The closed form itself is what the profile carries.
            let d = distill_werner(p.fidelity, p.fidelity);
            assert!((p.purified_fidelity - d.output_fidelity).abs() < 1e-12);
        }
    }

    #[test]
    fn purified_costs_steer_metrics() {
        let t = ring();
        let planner = RoutePlanner::new(&t);
        let p = planner.profile(0);
        // Hop count is indifferent to purification.
        assert_eq!(HopCount.purified_cost(p), HopCount.edge_cost(p));
        // Latency pays more per purified edge, fidelity pays less.
        assert!(Latency.purified_cost(p) > Latency.edge_cost(p));
        assert!(FidelityProduct.purified_cost(p) < FidelityProduct.edge_cost(p));

        // The policy-aware searches agree with the plain ones on
        // unit-cost metrics and reprice the others.
        let plain = planner
            .shortest_path(&t, 0, 3, &Latency, 0.0)
            .expect("connected");
        let purified = planner
            .shortest_path_in(
                &t,
                0,
                3,
                &Latency,
                0.0,
                &PlanContext {
                    policy: Policy::LinkPurify,
                    ..PlanContext::default()
                },
            )
            .expect("connected");
        assert_eq!(plain.nodes, purified.nodes, "identical links: same path");
        assert!(purified.cost > plain.cost, "purified edges cost more");
    }
}
