//! Network topologies: nodes, quantum links, classical control channels.
//!
//! A [`Topology`] is the static description the network layer operates
//! on: a node–edge graph in which every edge carries a full link-layer
//! configuration ([`LinkConfig`] — the complete EGP/MHP/physics stack
//! is instantiated per edge) plus a classical control channel with a
//! propagation delay. Chains and stars have dedicated constructors;
//! arbitrary graphs are built with [`Topology::add_node`] /
//! [`Topology::connect`].

use qlink_classical::channel::propagation_delay;
use qlink_des::SimDuration;
use qlink_sim::config::LinkConfig;

/// One node of the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// Display name (`"n3"` by default).
    pub name: String,
}

/// One quantum link plus its classical control channel.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Endpoint node index (side A of the underlying link).
    pub a: usize,
    /// Endpoint node index (side B of the underlying link).
    pub b: usize,
    /// Full link-layer configuration for this edge.
    pub link: LinkConfig,
    /// One-way delay of the classical control channel between the two
    /// nodes (defaults to the fiber propagation delay across the
    /// edge's full span).
    pub control_delay: SimDuration,
    /// Whether the quantum link is currently serviceable. Edges come
    /// up; the fault layer ([`crate::fault`]) takes them down and
    /// brings them back at runtime. A downed edge still exists in the
    /// graph (its control channel keeps carrying classical traffic,
    /// so [`Topology::min_control_delay`] is unaffected) but the
    /// route planner treats it as absent.
    pub up: bool,
}

impl Edge {
    /// The opposite endpoint of `node` on this edge.
    ///
    /// # Panics
    /// Panics if `node` is not an endpoint.
    pub fn other(&self, node: usize) -> usize {
        if node == self.a {
            self.b
        } else if node == self.b {
            self.a
        } else {
            panic!("node {node} is not on edge {}-{}", self.a, self.b)
        }
    }

    /// This edge's link-layer side index (0 = A, 1 = B) for `node`.
    ///
    /// # Panics
    /// Panics if `node` is not an endpoint.
    pub fn side_of(&self, node: usize) -> usize {
        if node == self.a {
            0
        } else if node == self.b {
            1
        } else {
            panic!("node {node} is not on edge {}-{}", self.a, self.b)
        }
    }
}

/// A multi-node network topology.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Each node's incident edge indices, ascending: [`Topology::connect`]
    /// appends edges in index order.
    incident: Vec<Vec<usize>>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// A linear chain of `nodes` nodes (`nodes - 1` edges); edge `i`
    /// connects node `i` to node `i + 1` with the configuration
    /// returned by `link(i)`.
    ///
    /// # Panics
    /// Panics if `nodes < 2`.
    pub fn chain(nodes: usize, mut link: impl FnMut(usize) -> LinkConfig) -> Self {
        assert!(nodes >= 2, "a chain needs at least two nodes");
        let mut topo = Topology::new();
        for _ in 0..nodes {
            topo.add_node();
        }
        for i in 0..nodes - 1 {
            topo.connect(i, i + 1, link(i));
        }
        topo
    }

    /// A star: node 0 is the hub, nodes `1..=leaves` connect to it;
    /// edge `i` (hub ↔ leaf `i + 1`) uses `link(i)`.
    ///
    /// # Panics
    /// Panics if `leaves == 0`.
    pub fn star(leaves: usize, mut link: impl FnMut(usize) -> LinkConfig) -> Self {
        assert!(leaves >= 1, "a star needs at least one leaf");
        let mut topo = Topology::new();
        topo.add_node(); // hub
        for i in 0..leaves {
            let leaf = topo.add_node();
            topo.connect(0, leaf, link(i));
        }
        topo
    }

    /// A rows × cols grid, nodes indexed row-major (node `r * cols +
    /// c` sits at row `r`, column `c`), every horizontally or
    /// vertically adjacent pair linked. Edges are created in
    /// row-major node order, right edge before down edge, and
    /// `link(i)` configures the `i`-th edge so created.
    ///
    /// The canonical contended-mesh topology: between most node pairs
    /// a grid offers many equal-length simple paths, which is exactly
    /// the slack congestion-aware routing needs to spread concurrent
    /// requests.
    ///
    /// # Panics
    /// Panics unless both dimensions are at least 2 (a 1 × n grid is
    /// a chain — use [`Topology::chain`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use qlink_net::topology::Topology;
    /// use qlink_sim::config::LinkConfig;
    /// use qlink_sim::workload::WorkloadSpec;
    ///
    /// let grid = Topology::grid(3, 4, |i| LinkConfig::lab(WorkloadSpec::none(), i as u64));
    /// assert_eq!(grid.node_count(), 12);
    /// // 3 rows × 3 horizontal edges + 2 × 4 vertical edges.
    /// assert_eq!(grid.edge_count(), 17);
    /// // Corner to corner takes rows - 1 + cols - 1 hops.
    /// assert_eq!(grid.shortest_path(0, 11).unwrap().len(), 6);
    /// ```
    pub fn grid(rows: usize, cols: usize, mut link: impl FnMut(usize) -> LinkConfig) -> Self {
        assert!(rows >= 2 && cols >= 2, "a grid needs both dimensions ≥ 2");
        let mut topo = Topology::new();
        for _ in 0..rows * cols {
            topo.add_node();
        }
        let mut edge = 0;
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    topo.connect(i, i + 1, link(edge));
                    edge += 1;
                }
                if r + 1 < rows {
                    topo.connect(i, i + cols, link(edge));
                    edge += 1;
                }
            }
        }
        topo
    }

    /// Adds a node; returns its index.
    pub fn add_node(&mut self) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node {
            name: format!("n{id}"),
        });
        self.incident.push(Vec::new());
        id
    }

    /// Connects two nodes with a quantum link; the classical control
    /// delay defaults to the fiber propagation delay over the edge's
    /// full span. Returns the edge index.
    ///
    /// # Panics
    /// Panics on out-of-range nodes, self-loops, or duplicate edges.
    pub fn connect(&mut self, a: usize, b: usize, link: LinkConfig) -> usize {
        assert!(a < self.nodes.len() && b < self.nodes.len(), "unknown node");
        assert_ne!(a, b, "self-loop");
        assert!(
            self.edge_between(a, b).is_none(),
            "nodes {a} and {b} already connected"
        );
        let km = link.scenario.arm_a_km + link.scenario.arm_b_km;
        let control_delay = propagation_delay(km);
        let id = self.edges.len();
        self.edges.push(Edge {
            a,
            b,
            link,
            control_delay,
            up: true,
        });
        self.incident[a].push(id);
        self.incident[b].push(id);
        id
    }

    /// Overrides an edge's classical control delay (builder style).
    ///
    /// # Panics
    /// Panics on an unknown edge.
    pub fn set_control_delay(&mut self, edge: usize, delay: SimDuration) {
        self.edges[edge].control_delay = delay;
    }

    /// Whether an edge's quantum link is currently serviceable.
    ///
    /// # Panics
    /// Panics on an unknown edge.
    pub fn edge_up(&self, edge: usize) -> bool {
        self.edges[edge].up
    }

    /// Marks an edge's quantum link up or down (the fault layer's
    /// mutator — see [`crate::fault`]). The edge stays in the graph:
    /// its classical control channel is unaffected, so
    /// [`Topology::min_control_delay`] holds across failures.
    ///
    /// # Panics
    /// Panics on an unknown edge.
    pub fn set_edge_up(&mut self, edge: usize, up: bool) {
        self.edges[edge].up = up;
    }

    /// Replaces an edge's link-layer configuration — how a repaired
    /// link comes back with a different (typically degraded) physics
    /// profile. The classical `control_delay` is deliberately kept:
    /// the network caches [`Topology::min_control_delay`] at
    /// construction.
    ///
    /// # Panics
    /// Panics on an unknown edge.
    pub fn set_link_config(&mut self, edge: usize, link: LinkConfig) {
        self.edges[edge].link = link;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Borrow a node.
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// Borrow an edge.
    pub fn edge(&self, id: usize) -> &Edge {
        &self.edges[id]
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge connecting `a` and `b`, if any (`None` for an unknown
    /// node).
    pub fn edge_between(&self, a: usize, b: usize) -> Option<usize> {
        self.edges_at(a).iter().copied().find(|&i| {
            let e = &self.edges[i];
            (e.a == a && e.b == b) || (e.a == b && e.b == a)
        })
    }

    /// Edge indices incident to `node`, ascending (empty for an unknown
    /// node).
    pub fn edges_at(&self, node: usize) -> &[usize] {
        self.incident.get(node).map_or(&[], Vec::as_slice)
    }

    /// Shortest path (fewest hops) from `src` to `dst` as a node
    /// sequence, or `None` if disconnected. Equal-length ties break
    /// deterministically (nodes settle in `(distance, index)` order),
    /// so routing is a pure function of the topology.
    ///
    /// This is the unit-cost case of the route engine; use
    /// [`crate::route::RoutePlanner`] for latency- or fidelity-aware
    /// metrics over the same search.
    ///
    /// # Panics
    /// Panics on out-of-range nodes or `src == dst`.
    ///
    /// # Examples
    ///
    /// ```
    /// use qlink_net::topology::Topology;
    /// use qlink_sim::config::LinkConfig;
    /// use qlink_sim::workload::WorkloadSpec;
    ///
    /// let topo = Topology::chain(4, |i| LinkConfig::lab(WorkloadSpec::none(), i as u64));
    /// assert_eq!(topo.shortest_path(0, 3), Some(vec![0, 1, 2, 3]));
    /// assert_eq!(topo.path_edges(&[0, 1, 2, 3]), vec![0, 1, 2]);
    /// ```
    pub fn shortest_path(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        crate::route::dijkstra(self, src, dst, &|_| 1.0, None).map(|r| r.nodes)
    }

    /// The edge indices along a node path.
    ///
    /// # Panics
    /// Panics if consecutive path nodes are not connected.
    pub fn path_edges(&self, path: &[usize]) -> Vec<usize> {
        path.windows(2)
            .map(|w| {
                self.edge_between(w[0], w[1])
                    .unwrap_or_else(|| panic!("no edge between {} and {}", w[0], w[1]))
            })
            .collect()
    }

    /// The smallest classical control delay of any edge: no control
    /// message scheduled while processing events at time `t` can fire
    /// before `t + d_min`. The network uses it as the floor of the
    /// re-route backoff and the delay of a freed admission slot's
    /// notice.
    ///
    /// # Panics
    /// Panics on a topology with no edges.
    pub fn min_control_delay(&self) -> SimDuration {
        self.edges
            .iter()
            .map(|e| e.control_delay)
            .min()
            .expect("a topology needs at least one edge")
    }

    /// One-way classical latency along a node path: the sum of every
    /// hop's control-channel delay. What a hop-by-hop message (a swap
    /// result, an end-to-end purification parity bit) pays to cross
    /// the path.
    ///
    /// # Panics
    /// Panics if consecutive path nodes are not connected.
    pub fn path_control_delay(&self, path: &[usize]) -> SimDuration {
        self.path_edges(path)
            .iter()
            .map(|&e| self.edges[e].control_delay)
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlink_sim::workload::WorkloadSpec;

    fn lab(seed: u64) -> LinkConfig {
        LinkConfig::lab(WorkloadSpec::none(), seed)
    }

    #[test]
    fn chain_shape() {
        let t = Topology::chain(4, |i| lab(i as u64));
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.edge_count(), 3);
        assert_eq!(t.edge_between(1, 2), Some(1));
        assert_eq!(t.edge_between(2, 1), Some(1));
        assert_eq!(t.edge_between(0, 3), None);
        assert_eq!(t.edges_at(1), [0, 1]);
    }

    #[test]
    fn grid_shape() {
        let t = Topology::grid(3, 3, |i| lab(i as u64));
        assert_eq!(t.node_count(), 9);
        assert_eq!(t.edge_count(), 12);
        // Row-major adjacency: the centre touches its four neighbours.
        for n in [1, 3, 5, 7] {
            assert!(t.edge_between(4, n).is_some(), "centre to {n}");
        }
        assert_eq!(t.edge_between(0, 4), None, "no diagonals");
        // Two edge-disjoint corner-to-corner routes exist.
        let paths = crate::route::yen(&t, 0, 8, 6, &|_| 1.0);
        assert!(paths.len() >= 2);
        assert_eq!(paths[0].nodes.len(), 5, "corner to corner is 4 hops");
    }

    #[test]
    fn star_shape() {
        let t = Topology::star(3, |i| lab(i as u64));
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.edge_count(), 3);
        for leaf in 1..4 {
            assert!(t.edge_between(0, leaf).is_some());
        }
        assert_eq!(t.edge_between(1, 2), None);
    }

    #[test]
    fn shortest_path_on_chain_and_star() {
        let chain = Topology::chain(5, |i| lab(i as u64));
        assert_eq!(chain.shortest_path(0, 4), Some(vec![0, 1, 2, 3, 4]));
        assert_eq!(chain.path_edges(&[0, 1, 2, 3, 4]), vec![0, 1, 2, 3]);

        let star = Topology::star(3, |i| lab(i as u64));
        assert_eq!(star.shortest_path(1, 3), Some(vec![1, 0, 3]));
    }

    #[test]
    fn disconnected_nodes_have_no_path() {
        let mut t = Topology::new();
        let a = t.add_node();
        let b = t.add_node();
        let c = t.add_node();
        t.connect(a, b, lab(1));
        assert_eq!(t.shortest_path(a, c), None);
    }

    #[test]
    fn control_delay_defaults_to_span_propagation() {
        // Lab arms are metres: sub-µs control delay. QL2020 spans 25 km.
        let t = Topology::chain(2, |_| lab(7));
        assert!(t.edge(0).control_delay < SimDuration::from_micros(1));
        let mut q = Topology::new();
        q.add_node();
        q.add_node();
        q.connect(0, 1, LinkConfig::ql2020(WorkloadSpec::none(), 7));
        let d = q.edge(0).control_delay.as_micros_f64();
        assert!((d - 120.9).abs() < 1.0, "25 km ≈ 121 µs, got {d}");
    }

    #[test]
    fn path_control_delay_sums_hops() {
        let t = Topology::chain(4, |i| lab(i as u64));
        let per_hop = t.edge(0).control_delay;
        let total = t.path_control_delay(&[0, 1, 2, 3]);
        assert_eq!(total, per_hop + per_hop + per_hop);
        assert_eq!(t.path_control_delay(&[0]), SimDuration::ZERO);
    }

    #[test]
    fn edge_orientation_helpers() {
        let t = Topology::chain(3, |i| lab(i as u64));
        let e = t.edge(1);
        assert_eq!(e.other(1), 2);
        assert_eq!(e.other(2), 1);
        assert_eq!(e.side_of(1), 0);
        assert_eq!(e.side_of(2), 1);
    }

    /// Incident lists answer as the full-edge scans they replace: every
    /// `edges_at` and every `edge_between`, both orders, on the shaped
    /// constructors and on seeded random graphs, out-of-range nodes
    /// included.
    #[test]
    fn incident_lists_answer_as_full_edge_scans() {
        let mut graphs = vec![
            Topology::chain(5, |i| lab(i as u64)),
            Topology::star(6, |i| lab(i as u64)),
            Topology::grid(3, 4, |i| lab(i as u64)),
            Topology::grid(16, 16, |i| lab(i as u64)),
        ];
        for seed in 0..20 {
            let mut rng = qlink_des::DetRng::new(seed);
            let mut t = Topology::new();
            let n = 2 + rng.below(14) as usize;
            for _ in 0..n {
                t.add_node();
            }
            let mut linked = std::collections::BTreeSet::new();
            for _ in 0..rng.below(3 * n as u64) {
                let (a, b) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
                if a != b && linked.insert((a.min(b), a.max(b))) {
                    t.connect(a, b, lab(seed));
                }
            }
            graphs.push(t);
        }
        for t in &graphs {
            let e = t.edges();
            let n = t.node_count();
            for a in 0..n + 2 {
                let scan: Vec<usize> = (0..e.len())
                    .filter(|&i| e[i].a == a || e[i].b == a)
                    .collect();
                assert_eq!(t.edges_at(a), scan, "edges at {a}");
                for b in 0..n + 2 {
                    let scan = e
                        .iter()
                        .position(|edge| (edge.a, edge.b) == (a, b) || (edge.a, edge.b) == (b, a));
                    assert_eq!(t.edge_between(a, b), scan, "edge {a}-{b}");
                }
            }
            assert!(t.edges_at(usize::MAX).is_empty());
            assert_eq!(t.edge_between(usize::MAX, 0), None);
            assert_eq!(t.edge_between(0, usize::MAX), None);
        }
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn duplicate_edges_rejected() {
        let mut t = Topology::new();
        t.add_node();
        t.add_node();
        t.connect(0, 1, lab(1));
        t.connect(1, 0, lab(2));
    }
}
