//! Per-node SWAP-ASAP protocol state.
//!
//! Each node of the topology runs one [`SwapAsapNode`]. For every
//! path reservation it plays one of two roles: an *end* (source or
//! destination — it holds one half of the would-be end-to-end pair and
//! must collect the repeaters' Bell-measurement outcomes before the
//! pair is usable; the quantum ledger folds the Pauli correction into
//! the state at swap time, so the collected bits gate *usability*,
//! not a correction still to be applied), or a *repeater* (it swaps —
//! performs a Bell-state measurement over its two halves — **as soon
//! as** pairs on both of its path edges exist; hence SWAP-ASAP, the
//! greedy policy of the repeater literature, e.g. arXiv:2111.11332's
//! chain demonstration).
//!
//! What a node *does* with its role is data, not code: every
//! reservation installs a [`RuleSet`] table (compiled from the
//! request's [`Policy`](crate::ruleset::Policy) at plan time) and
//! runs it through the [`crate::ruleset`] interpreter. Under a
//! purifying program an edge must deliver **two** pairs before it is
//! usable: the second delivery arms the purification rule — the node
//! emits [`NodeAction::Purify`], the local halves are measured, and
//! the edge stays unusable until the partner's parity bit arrives
//! over the classical control channel
//! ([`SwapAsapNode::on_purify_result`]). An agreeing parity makes the
//! edge ready (one boosted pair, or the next pumping round); a
//! disagreeing one discards both pairs and the counting starts over.
//! This is the RuleSet shape of Matsuo et al.: purification and
//! swapping are both rules the same per-node interpreter schedules,
//! purify strictly before swap.
//!
//! The nodes are pure decision logic: they never touch the event
//! queue or the quantum ledger. The [`crate::network::Network`] feeds
//! them observations (pair deliveries, purify results, swap-result
//! messages) and executes the [`NodeAction`]s they emit, which keeps
//! every quantum operation and every classical transmission on the
//! shared clock.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ruleset::{ArmProgram, FiredRule, Obs, RuleSet, RuleState};

/// A node's role in one reserved path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathRole {
    /// Source or destination: one path edge, collects swap results.
    End {
        /// The node's single path edge.
        edge: usize,
        /// Swap results needed before the frame is fixed
        /// (= number of repeaters on the path).
        expected_swaps: u32,
    },
    /// Intermediate repeater: swaps its two path edges.
    Repeater {
        /// Path edge toward the source.
        left: usize,
        /// Path edge toward the destination.
        right: usize,
    },
}

/// What a node decides to do in response to an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeAction {
    /// Purifying reservation: an edge holds its second pair — distill
    /// the two into one (measure locally, exchange the parity bit).
    Purify {
        /// The request being served.
        request: u64,
        /// The edge holding two pairs.
        edge: usize,
    },
    /// Repeater: both halves present (and purified, where required) —
    /// swap `left` and `right` now.
    Swap {
        /// The request being served.
        request: u64,
        /// Path edge toward the source.
        left: usize,
        /// Path edge toward the destination.
        right: usize,
    },
    /// End: own pair present and every swap result received — this
    /// side of the end-to-end pair is now usable (the ledger applied
    /// the corrections at swap time; the bits below are the record of
    /// what arrived classically).
    EndReady {
        /// The request being served.
        request: u64,
        /// Accumulated Pauli-Z frame bit.
        frame_z: u8,
        /// Accumulated Pauli-X frame bit.
        frame_x: u8,
    },
}

/// The protocol state of one network node: one installed rule table
/// per path reservation.
#[derive(Debug, Default)]
pub struct SwapAsapNode {
    /// Per-request installed RuleSet state (see [`crate::ruleset`]),
    /// in request-id order.
    rules: BTreeMap<u64, RuleState>,
    /// Rules the interpreter fired during the last observation —
    /// drained by the network layer into passive telemetry via
    /// [`SwapAsapNode::drain_fired`].
    fired: Vec<FiredRule>,
    /// Total swaps this node has performed (across requests).
    pub swaps_performed: u64,
    /// Purification rules this node has armed (across requests).
    pub purifications_started: u64,
}

impl SwapAsapNode {
    /// Creates an idle node.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of in-flight path reservations at this node.
    pub fn active_paths(&self) -> usize {
        self.rules.len()
    }

    /// The in-flight request ids reserved at this node, ascending.
    /// Reservations are independent per request, so one node serves
    /// any number of concurrent paths (its own or other pairs').
    pub fn active_requests(&self) -> Vec<u64> {
        self.rules.keys().copied().collect()
    }

    /// How many of this node's reservations use edge `edge` — the
    /// node-local view of the contention the EGP distributed queue
    /// arbitrates when concurrent requests share a link.
    pub fn reserved_on_edge(&self, edge: usize) -> usize {
        self.rules
            .values()
            .filter(|st| match st.role() {
                PathRole::End { edge: own, .. } => own == edge,
                PathRole::Repeater { left, right } => left == edge || right == edge,
            })
            .count()
    }

    /// Reserves this node for a path with the given role, installing
    /// the request's rule table. `left` / `right` are the compiled
    /// per-edge programs of the role's arms (an end uses `left` for
    /// its single edge; `right` is ignored).
    ///
    /// # Panics
    /// Panics if the request is already reserved here.
    pub fn reserve(
        &mut self,
        request: u64,
        role: PathRole,
        rules: Arc<RuleSet>,
        left: ArmProgram,
        right: ArmProgram,
    ) {
        let prev = self
            .rules
            .insert(request, RuleState::new(rules, role, left, right));
        assert!(prev.is_none(), "request {request} reserved twice");
    }

    /// `true` while `request` holds a reservation at this node.
    pub fn is_reserved(&self, request: u64) -> bool {
        self.rules.contains_key(&request)
    }

    /// Drains the fresh-pair demand the rule table accumulated for
    /// `request` on `edge` (pump / regenerate actions). Zero for
    /// unknown requests and edges.
    pub fn take_create_demand(&mut self, request: u64, edge: usize) -> u8 {
        match self.rules.get_mut(&request) {
            Some(st) => st.take_demand(edge),
            None => 0,
        }
    }

    /// Drains the fired-rule log, oldest first. The network layer
    /// drains this after every observation it feeds the node — always,
    /// whether or not telemetry records the entries, so recording
    /// state never changes node or network behaviour.
    pub fn drain_fired(&mut self) -> std::vec::Drain<'_, FiredRule> {
        self.fired.drain(..)
    }

    /// Routes an observation through the request's installed table,
    /// keeping the public counters in step with what it emits.
    fn observe(&mut self, request: u64, obs: Obs) -> Option<NodeAction> {
        let st = self.rules.get_mut(&request)?;
        let action = st.observe(request, obs, &mut self.fired)?;
        match action {
            NodeAction::Purify { .. } => self.purifications_started += 1,
            NodeAction::Swap { .. } => self.swaps_performed += 1,
            NodeAction::EndReady { .. } => {}
        }
        Some(action)
    }

    /// Releases a path reservation (completion, timeout, or re-route
    /// abort); returns whether one existed. Aborting a request that
    /// was never reserved here is a no-op — the re-route machinery
    /// releases along the *old* path, which may no longer include
    /// this node.
    pub fn release(&mut self, request: u64) -> bool {
        self.rules.remove(&request).is_some()
    }

    /// Observation: a link pair on `edge` now exists for `request`.
    /// Returns the action this unlocks, if any.
    pub fn on_pair(&mut self, request: u64, edge: usize) -> Option<NodeAction> {
        self.observe(request, Obs::PairArrived { edge })
    }

    /// Observation: the partner's parity bit for the purification on
    /// `edge` arrived. An agreeing parity (`accepted`) completes the
    /// round; a disagreement discards both pairs — the edge counts
    /// deliveries from zero again.
    pub fn on_purify_result(
        &mut self,
        request: u64,
        edge: usize,
        accepted: bool,
    ) -> Option<NodeAction> {
        self.observe(request, Obs::Parity { edge, accepted })
    }

    /// Observation: a repeater's swap result (the two BSM bits)
    /// arrived at this node. Ends fold it into their Pauli frame;
    /// repeaters ignore it.
    pub fn on_swap_result(&mut self, request: u64, z: u8, x: u8) -> Option<NodeAction> {
        self.observe(request, Obs::SwapResult { z, x })
    }
}

#[cfg(test)]
mod tests {
    use super::PathRole::{End, Repeater};
    use super::*;
    use crate::ruleset::Policy::{self, LinkPurify, SwapAsap};

    /// Installs `policy`'s table for `role`, every arm compiled
    /// against the same fidelity estimate.
    fn reserve(n: &mut SwapAsapNode, request: u64, role: PathRole, policy: Policy) {
        let rules = Arc::new(policy.ruleset());
        let program = rules.edge_program(0.9);
        n.reserve(request, role, rules, program, program);
    }

    #[test]
    fn repeater_swaps_exactly_when_both_sides_arrive() {
        let mut n = SwapAsapNode::new();
        reserve(&mut n, 1, Repeater { left: 0, right: 1 }, SwapAsap);
        assert_eq!(n.on_pair(1, 0), None);
        assert_eq!(
            n.on_pair(1, 1),
            Some(NodeAction::Swap {
                request: 1,
                left: 0,
                right: 1
            })
        );
        // Duplicate observations never re-swap.
        assert_eq!(n.on_pair(1, 0), None);
        assert_eq!(n.swaps_performed, 1);
    }

    #[test]
    fn end_waits_for_pair_and_all_results() {
        let mut n = SwapAsapNode::new();
        reserve(
            &mut n,
            7,
            End {
                edge: 2,
                expected_swaps: 2,
            },
            SwapAsap,
        );
        assert_eq!(n.on_swap_result(7, 1, 0), None);
        assert_eq!(n.on_pair(7, 2), None);
        let ready = n.on_swap_result(7, 1, 1);
        assert_eq!(
            ready,
            Some(NodeAction::EndReady {
                request: 7,
                frame_z: 0,
                frame_x: 1
            })
        );
        // Fires once.
        assert_eq!(n.on_swap_result(7, 0, 0), None);
    }

    #[test]
    fn single_hop_end_is_ready_on_delivery() {
        let mut n = SwapAsapNode::new();
        reserve(
            &mut n,
            3,
            End {
                edge: 0,
                expected_swaps: 0,
            },
            SwapAsap,
        );
        assert_eq!(
            n.on_pair(3, 0),
            Some(NodeAction::EndReady {
                request: 3,
                frame_z: 0,
                frame_x: 0
            })
        );
    }

    #[test]
    fn frame_accumulates_by_xor() {
        let mut n = SwapAsapNode::new();
        reserve(
            &mut n,
            9,
            End {
                edge: 0,
                expected_swaps: 3,
            },
            SwapAsap,
        );
        n.on_pair(9, 0);
        n.on_swap_result(9, 1, 1);
        n.on_swap_result(9, 1, 0);
        let done = n.on_swap_result(9, 1, 1);
        assert_eq!(
            done,
            Some(NodeAction::EndReady {
                request: 9,
                frame_z: 1,
                frame_x: 0
            })
        );
    }

    #[test]
    fn concurrent_requests_are_tracked_independently() {
        let mut n = SwapAsapNode::new();
        reserve(&mut n, 1, Repeater { left: 0, right: 1 }, SwapAsap);
        reserve(&mut n, 2, Repeater { left: 0, right: 2 }, SwapAsap);
        reserve(
            &mut n,
            5,
            End {
                edge: 1,
                expected_swaps: 1,
            },
            SwapAsap,
        );
        assert_eq!(n.active_requests(), vec![1, 2, 5]);
        assert_eq!(n.reserved_on_edge(0), 2, "edge 0 is shared");
        assert_eq!(n.reserved_on_edge(1), 2);
        assert_eq!(n.reserved_on_edge(2), 1);
        // A pair on the shared edge only advances the request it was
        // matched to; the other stays incomplete.
        assert_eq!(n.on_pair(1, 0), None);
        assert_eq!(
            n.on_pair(1, 1),
            Some(NodeAction::Swap {
                request: 1,
                left: 0,
                right: 1
            })
        );
        assert_eq!(n.on_pair(2, 2), None, "request 2 still lacks edge 0");
        n.release(1);
        assert_eq!(n.active_requests(), vec![2, 5]);
        assert_eq!(n.reserved_on_edge(0), 1);
    }

    #[test]
    fn unknown_requests_are_ignored() {
        let mut n = SwapAsapNode::new();
        assert_eq!(n.on_pair(99, 0), None);
        assert_eq!(n.on_swap_result(99, 1, 1), None);
        assert_eq!(n.on_purify_result(99, 0, true), None);
        reserve(&mut n, 1, Repeater { left: 0, right: 1 }, SwapAsap);
        n.release(1);
        assert_eq!(n.on_pair(1, 0), None);
    }

    #[test]
    fn release_reports_whether_a_reservation_existed() {
        let mut n = SwapAsapNode::new();
        assert!(!n.is_reserved(5));
        assert!(!n.release(5), "releasing a stranger is a no-op");
        reserve(&mut n, 5, Repeater { left: 0, right: 1 }, SwapAsap);
        assert!(n.is_reserved(5));
        assert!(n.release(5));
        assert!(!n.is_reserved(5));
        assert!(!n.release(5), "double release is a no-op");
    }

    #[test]
    fn purifying_repeater_arms_purify_then_swaps_on_accepts() {
        let mut n = SwapAsapNode::new();
        reserve(&mut n, 4, Repeater { left: 0, right: 1 }, LinkPurify);
        // One pair per edge: nothing fires yet.
        assert_eq!(n.on_pair(4, 0), None);
        assert_eq!(n.on_pair(4, 1), None);
        // Second pair arms the purification rule per edge.
        assert_eq!(
            n.on_pair(4, 0),
            Some(NodeAction::Purify {
                request: 4,
                edge: 0
            })
        );
        assert_eq!(
            n.on_pair(4, 1),
            Some(NodeAction::Purify {
                request: 4,
                edge: 1
            })
        );
        assert_eq!(n.purifications_started, 2);
        // One accept is not enough to swap…
        assert_eq!(n.on_purify_result(4, 0, true), None);
        // …both accepts fire the swap exactly once.
        assert_eq!(
            n.on_purify_result(4, 1, true),
            Some(NodeAction::Swap {
                request: 4,
                left: 0,
                right: 1
            })
        );
        assert_eq!(n.on_purify_result(4, 1, true), None, "latched");
        assert_eq!(n.swaps_performed, 1);
    }

    #[test]
    fn purify_reject_restarts_the_edge_count() {
        let mut n = SwapAsapNode::new();
        reserve(
            &mut n,
            6,
            End {
                edge: 3,
                expected_swaps: 0,
            },
            LinkPurify,
        );
        assert_eq!(n.on_pair(6, 3), None);
        assert_eq!(
            n.on_pair(6, 3),
            Some(NodeAction::Purify {
                request: 6,
                edge: 3
            })
        );
        // While the parity bit is in flight, further deliveries are
        // not counted toward the *next* round.
        assert_eq!(n.on_pair(6, 3), None);
        // Reject: both pairs lost, count restarts — and the network is
        // owed a fresh batch of two, once.
        assert_eq!(n.on_purify_result(6, 3, false), None);
        assert_eq!(n.take_create_demand(6, 3), 2);
        assert_eq!(n.take_create_demand(6, 3), 0);
        assert_eq!(n.on_pair(6, 3), None);
        assert_eq!(
            n.on_pair(6, 3),
            Some(NodeAction::Purify {
                request: 6,
                edge: 3
            })
        );
        // Accept: the end (expected_swaps = 0) is immediately ready.
        assert_eq!(
            n.on_purify_result(6, 3, true),
            Some(NodeAction::EndReady {
                request: 6,
                frame_z: 0,
                frame_x: 0
            })
        );
        assert_eq!(n.purifications_started, 2);
        // The whole firing log comes out in one batch, oldest first.
        let fired: Vec<&str> = n.drain_fired().map(|f| f.action).collect();
        assert_eq!(
            fired,
            ["purify", "regenerate", "purify", "mark-ready", "end-ready"]
        );
        assert_eq!(n.drain_fired().count(), 0);
    }

    #[test]
    fn purifying_end_waits_for_swap_results_too() {
        let mut n = SwapAsapNode::new();
        reserve(
            &mut n,
            8,
            End {
                edge: 0,
                expected_swaps: 1,
            },
            LinkPurify,
        );
        n.on_pair(8, 0);
        assert_eq!(
            n.on_pair(8, 0),
            Some(NodeAction::Purify {
                request: 8,
                edge: 0
            })
        );
        // Accept arrives, but the repeater's swap result is missing.
        assert_eq!(n.on_purify_result(8, 0, true), None);
        assert_eq!(
            n.on_swap_result(8, 1, 0),
            Some(NodeAction::EndReady {
                request: 8,
                frame_z: 1,
                frame_x: 0
            })
        );
    }
}
