//! The route-metric engine: per-edge prices and K-shortest-path search
//! over a [`Topology`].
//!
//! End-to-end fidelity is (to first order) a *product* of link
//! fidelities, latency is dominated by the slowest link's expected
//! generation time, and both vary per edge with the physical scenario
//! behind it. This module derives an [`EdgeProfile`] for every edge
//! from its [`LinkConfig`](qlink_sim::config::LinkConfig) — expected
//! NL-pair latency, per-attempt success probability, and a memory-
//! decay-adjusted fidelity estimate, all computed by the same
//! [`FidelityEstimator`] the link layer's FEU uses (§5.2.3 of the
//! paper) — and prices an edge with one function of its fidelity, its
//! latency and its live load, [`RouteMetric::cost`].
//!
//! A [`Policy`] prices an edge through its own rule table:
//! [`RuleSet::edge_program`](crate::ruleset::RuleSet::edge_program) on
//! the edge's profile fidelity — the call the ledger makes when it
//! installs the request — says how many distillation rounds the edge
//! runs, and [`EdgeProfile::purified_after`] gives the fidelity and
//! latency after them. So
//! [`Network::plan_route`](crate::network::Network::plan_route) faces
//! the real fidelity-vs-throughput tradeoff purification creates.
//!
//! Search is deterministic Dijkstra (equal-cost ties break by
//! structural settle order, so routing is a pure function of the
//! topology — never of hash or scheduling order) plus Yen's algorithm
//! for K shortest loopless paths — the candidate set
//! [`Network`](crate::network::Network) splits concurrent same-pair
//! requests across. [`RoutePlanner::routes`] answers one
//! [`PlanContext`].
//!
//! # Examples
//!
//! ```
//! use qlink_net::route::{PlanContext, RouteMetric, RoutePlanner};
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
//! let direct = &planner.routes(&topo, &PlanContext::new(0, 2))[0];
//! assert_eq!(direct.nodes, vec![0, 2]);
//! // With identical Lab links the fidelity product also prefers fewer
//! // hops; the profiles expose the numbers the decision used.
//! let p = planner.profile(2);
//! assert_eq!(RouteMetric::Hops.cost(p.fidelity, p.expected_latency, 0), 1.0);
//! assert!(RouteMetric::Fidelity.cost(p.fidelity, p.expected_latency, 0) > 0.0);
//! ```

use crate::ruleset::Policy;
use crate::topology::Topology;
use qlink_des::SimDuration;
use qlink_egp::feu::FidelityEstimator;
use qlink_phys::attempt::ModelCache;
use qlink_quantum::purify::distill_werner;
use qlink_wire::fields::RequestType;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
}

impl EdgeProfile {
    /// Fidelity and expected latency after `rounds` accepted nested
    /// 2→1 distillations, each pumping the previous survivor with one
    /// fresh profile-fidelity pair (entanglement pumping toward the
    /// DEJMPS fixed point — see [`Policy::PumpRounds`]).
    ///
    /// The first round distills two fresh pairs, paying two pair
    /// generations plus the parity bit's one-way per attempt; each
    /// further round r pays the previous rounds' expected time plus one
    /// fresh pair and the parity bit. Each divides by its round's
    /// acceptance probability. `rounds == 0` returns the raw figures.
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

/// What an edge costs a route: one function of the edge's fidelity,
/// its expected pair latency, and the path reservations already
/// queued on it ([`RouteMetric::cost`]).
///
/// Costs are non-negative and additive along a path; an edge whose
/// cost is not finite is treated as absent.
///
/// # Examples
///
/// ```
/// use qlink_des::SimDuration;
/// use qlink_net::route::RouteMetric;
///
/// let (f, t) = (0.8, SimDuration::from_millis(2));
/// let latency = RouteMetric::Latency.cost(f, t, 0);
/// // Unloaded, load-scaled latency agrees with plain latency…
/// assert_eq!(RouteMetric::LoadLatency.cost(f, t, 0), latency);
/// // …and every queued reservation adds one expected generation.
/// assert_eq!(RouteMetric::LoadLatency.cost(f, t, 3), 4.0 * latency);
/// // The other metrics ignore the load.
/// assert_eq!(RouteMetric::Latency.cost(f, t, 3), latency);
/// assert_eq!(RouteMetric::Hops.name(), "hops");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteMetric {
    /// Every edge costs 1: fewest hops (the default).
    #[default]
    Hops,
    /// Minimise summed expected NL-pair generation latency (seconds).
    Latency,
    /// Maximise the product of (decay-adjusted) link fidelities: an
    /// edge costs `−ln F`, so minimising the sum maximises `∏ F`.
    Fidelity,
    /// Congestion-aware latency: the expected generation latency times
    /// one plus the path reservations already queued on the edge. The
    /// EGP's distributed queue serves outstanding CREATEs in queue
    /// order, so a new reservation waits (to first order) `load` full
    /// generations before its own begins. Each issued reservation
    /// raises the price its successors see, which spreads concurrent
    /// requests over a mesh without any explicit disjointness rule.
    LoadLatency,
}

impl RouteMetric {
    /// Display name (reports, benches).
    pub fn name(self) -> &'static str {
        match self {
            RouteMetric::Hops => "hops",
            RouteMetric::Latency => "latency",
            RouteMetric::Fidelity => "fidelity",
            RouteMetric::LoadLatency => "load-latency",
        }
    }

    /// The cost of an edge whose pair has `fidelity` and takes
    /// `latency` to make, with `load` reservations queued ahead.
    pub fn cost(self, fidelity: f64, latency: SimDuration, load: u32) -> f64 {
        match self {
            RouteMetric::Hops => 1.0,
            RouteMetric::Latency => latency.as_secs_f64(),
            RouteMetric::Fidelity if fidelity <= 0.0 => f64::INFINITY,
            RouteMetric::Fidelity => -fidelity.ln(),
            RouteMetric::LoadLatency => (1.0 + f64::from(load)) * latency.as_secs_f64(),
        }
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
                EdgeProfile {
                    edge: i,
                    success_probability: psucc,
                    expected_latency,
                    fidelity: (1.0 + 3.0 * w * (-hold * rate).exp()) / 4.0,
                    fidelity_ceiling: ceiling,
                    control_delay: e.control_delay,
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

    /// Up to `ctx.k` loopless routes `ctx.src → ctx.dst` in
    /// non-decreasing cost (Yen's algorithm; `k == 1` is the best
    /// route), empty when none serves. An edge is absent when its
    /// K-type ceiling is below `ctx.fmin` (its link would UNSUPP the
    /// CREATE), when `ctx` excludes it, or when its penalty is
    /// infinite (down). Otherwise it costs
    /// [`RouteMetric::cost`] of its profile after the distillation
    /// rounds `ctx.policy`'s rule table installs on it, at its load,
    /// times `1 + penalty`.
    ///
    /// # Panics
    /// Panics on out-of-range nodes, `src == dst`, or `k == 0`.
    pub fn routes(&self, topo: &Topology, ctx: &PlanContext<'_>) -> Vec<Route> {
        let rules = ctx.policy.ruleset();
        let cost = |edge: usize| {
            let p = &self.profiles[edge];
            let penalty = ctx.penalties.get(edge).copied().unwrap_or(0.0);
            if p.fidelity_ceiling < ctx.fmin || ctx.exclude.contains(&edge) || penalty.is_infinite()
            {
                return f64::INFINITY;
            }
            let (fidelity, latency) = p.purified_after(rules.edge_program(p.fidelity).rounds);
            let load = ctx.loads.get(edge).copied().unwrap_or(0);
            let base = ctx.metric.cost(fidelity, latency, load);
            // Multiplicative so it bites under every metric, hop count
            // included; unpenalized costs are untouched bit for bit.
            if penalty > 0.0 {
                base * (1.0 + penalty)
            } else {
                base
            }
        };
        yen(topo, ctx.src, ctx.dst, ctx.k, &cost)
    }
}

/// One planning question: up to `k` routes `src → dst` whose every edge
/// can serve `fmin`, priced by `metric` under `policy` at `loads`, with
/// `exclude` barred and `penalties` applied.
///
/// [`PlanContext::new`] asks for the single best fewest-hop route under
/// plain SWAP-ASAP, nothing loaded, excluded or penalized.
#[derive(Debug, Clone, Copy)]
pub struct PlanContext<'a> {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// The fidelity every edge must be able to serve.
    pub fmin: f64,
    /// How many routes, at most.
    pub k: usize,
    /// What an edge costs.
    pub metric: RouteMetric,
    /// The policy the route will run under: its install rules say how
    /// many distillation rounds each edge is priced after.
    pub policy: Policy,
    /// Live reservation count per edge index
    /// ([`Network::edge_load`](crate::network::Network::edge_load)).
    /// Edges beyond the slice (or an empty slice) count as unloaded.
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

impl PlanContext<'static> {
    /// The single best fewest-hop route `src → dst`, any fidelity.
    pub fn new(src: usize, dst: usize) -> Self {
        PlanContext {
            src,
            dst,
            fmin: 0.0,
            k: 1,
            metric: RouteMetric::Hops,
            policy: Policy::SwapAsap,
            loads: &[],
            exclude: &[],
            penalties: &[],
        }
    }
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
/// or scheduling order. Edges with non-finite cost are skipped.
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
    // Non-negative distances order as their bits, so the heap pops the
    // least `(distance, index)`. Every improvement pushes an entry: a
    // node's live entry is its least, and the rest are skipped as stale.
    let mut frontier = BinaryHeap::from([Reverse((dist[src].to_bits(), src))]);
    loop {
        let Some(Reverse((d, u))) = frontier.pop() else {
            return None; // frontier exhausted, dst unreachable
        };
        if settled[u] || d != dist[u].to_bits() {
            continue;
        }
        if u == dst {
            break;
        }
        settled[u] = true;
        for &e in topo.edges_at(u) {
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
                frontier.push(Reverse((nd.to_bits(), v)));
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

    /// The best-route question 0 → 3 under `metric` at `fmin`.
    fn ask(metric: RouteMetric, fmin: f64) -> PlanContext<'static> {
        PlanContext {
            metric,
            fmin,
            ..PlanContext::new(0, 3)
        }
    }

    /// The best route `ctx` asks for, if any serves.
    fn best(planner: &RoutePlanner, t: &Topology, ctx: PlanContext<'_>) -> Option<Route> {
        planner.routes(t, &ctx).into_iter().next()
    }

    #[test]
    fn fmin_above_ceiling_excludes_edges() {
        let t = ring();
        let planner = RoutePlanner::new(&t);
        let ceiling = planner.profile(0).fidelity_ceiling;
        let fidelity = RouteMetric::Fidelity;
        assert!(best(&planner, &t, ask(fidelity, ceiling + 0.01)).is_none());
        assert!(best(&planner, &t, ask(fidelity, 0.5)).is_some());
    }

    #[test]
    fn metric_names() {
        assert_eq!(RouteMetric::Hops.name(), "hops");
        assert_eq!(RouteMetric::Latency.name(), "latency");
        assert_eq!(RouteMetric::Fidelity.name(), "fidelity");
        assert_eq!(RouteMetric::LoadLatency.name(), "load-latency");
    }

    #[test]
    fn load_scaled_latency_spreads_onto_the_longer_arm() {
        // Identical Lab links: unloaded, the direct 0-3 edge wins; with
        // enough reservations queued on it, the 3-hop arm gets cheaper.
        let t = ring();
        let planner = RoutePlanner::new(&t);
        let unloaded = best(&planner, &t, ask(RouteMetric::LoadLatency, 0.0));
        assert_eq!(unloaded.expect("connected").nodes, vec![0, 3]);

        let loads = [0, 0, 0, 4]; // four reservations on the direct edge
        let loaded = |metric| PlanContext {
            loads: &loads,
            ..ask(metric, 0.0)
        };
        let spread = best(&planner, &t, loaded(RouteMetric::LoadLatency));
        let spread = spread.expect("connected");
        assert_eq!(spread.nodes, vec![0, 1, 2, 3], "load pushes traffic off");

        // A static metric sees the same loads and ignores them.
        let static_pick = best(&planner, &t, loaded(RouteMetric::Latency));
        assert_eq!(static_pick.expect("connected").nodes, vec![0, 3]);
    }

    #[test]
    fn excluded_edges_are_treated_as_absent() {
        let t = ring();
        let planner = RoutePlanner::new(&t);
        let barring = |exclude| PlanContext {
            exclude,
            ..ask(RouteMetric::Hops, 0.0)
        };
        let detour = best(&planner, &t, barring(&[3])).expect("the long arm remains");
        assert_eq!(detour.nodes, vec![0, 1, 2, 3]);
        // Excluding every incident edge disconnects the pair.
        assert!(best(&planner, &t, barring(&[0, 3])).is_none());
    }

    #[test]
    fn load_latency_scales_the_purified_figure() {
        let t = ring();
        let planner = RoutePlanner::new(&t);
        let (f, latency) = planner.profile(0).purified_after(1);
        let cost = |metric: RouteMetric, load| metric.cost(f, latency, load);
        assert_eq!(
            cost(RouteMetric::LoadLatency, 2),
            3.0 * cost(RouteMetric::LoadLatency, 0)
        );
        // The other metrics ignore the load.
        assert_eq!(cost(RouteMetric::Latency, 2), cost(RouteMetric::Latency, 0));
    }

    #[test]
    fn purified_profiles_trade_latency_for_fidelity() {
        let t = ring();
        let planner = RoutePlanner::new(&t);
        for p in planner.profiles() {
            let (fidelity, latency) = p.purified_after(1);
            // Lab keep fidelity sits above the F > 1/2 distillation
            // threshold, so the purified figure must be a strict gain…
            assert!(
                fidelity > p.fidelity,
                "edge {}: purified {fidelity} ≤ raw {}",
                p.edge,
                p.fidelity
            );
            // …paid for by more than double the generation latency
            // (two pairs per attempt, retried on rejected parity).
            assert!(
                latency.as_secs_f64() > 2.0 * p.expected_latency.as_secs_f64(),
                "edge {}: purified latency must price the double pair cost",
                p.edge
            );
            // The closed form itself is what one round gives.
            let d = distill_werner(p.fidelity, p.fidelity);
            assert!((fidelity - d.output_fidelity).abs() < 1e-12);
        }
    }

    #[test]
    fn purified_costs_steer_metrics() {
        let t = ring();
        let planner = RoutePlanner::new(&t);
        let p = planner.profile(0);
        let (f, latency) = p.purified_after(1);
        let raw = |m: RouteMetric| m.cost(p.fidelity, p.expected_latency, 0);
        let purified = |m: RouteMetric| m.cost(f, latency, 0);
        // Hop count is indifferent to purification.
        assert_eq!(purified(RouteMetric::Hops), raw(RouteMetric::Hops));
        // Latency pays more per purified edge, fidelity pays less.
        assert!(purified(RouteMetric::Latency) > raw(RouteMetric::Latency));
        assert!(purified(RouteMetric::Fidelity) < raw(RouteMetric::Fidelity));

        // A purifying policy reprices the search; identical links keep
        // the same path.
        let plain = best(&planner, &t, ask(RouteMetric::Latency, 0.0)).expect("connected");
        let ctx = PlanContext {
            policy: Policy::LinkPurify,
            ..ask(RouteMetric::Latency, 0.0)
        };
        let purified = best(&planner, &t, ctx).expect("connected");
        assert_eq!(plain.nodes, purified.nodes, "identical links: same path");
        assert!(purified.cost > plain.cost, "purified edges cost more");
    }
}
