//! The RuleSet control plane: per-node protocol logic as *data*.
//!
//! The network layer the paper's link layer is built for is meant to
//! be *programmable* (Matsuo & Van Meter's RuleSet-based simulation,
//! arXiv 1908.10758): a connection setup compiles the chosen policy
//! into a table of `condition → action` rules, installs the table on
//! every path node, and each node then reacts to local events — pair
//! deliveries, parity bits, swap results — by evaluating its rules in
//! priority order. New protocols become new tables, not new engines.
//!
//! This module is that interpreter, and the only per-node engine
//! there is. A path node's reservation *is* one [`RuleState`], held
//! by the request's attempt record in the request ledger, one per path
//! position, installed at issue and dropped with the record:
//!
//! * [`Policy`] — the network-facing choice, a small `Copy` value
//!   carried in every attempt's issue seed. [`Policy::ruleset`]
//!   compiles it into a [`RuleSet`] at plan time.
//! * [`RuleSet`] / [`Rule`] — an ordered rule table over the typed
//!   [`Trigger`] / [`Condition`] / [`Action`] vocabulary.
//!   [`RuleSet::edge_program`] resolves the install-time rules
//!   against an edge's FEU-estimated fidelity into the [`ArmProgram`]
//!   (how many distillation rounds, therefore how many pairs) the
//!   edge runs under.
//! * [`RuleState`] — the per-(node, request) interpreter for one
//!   [`PathRole`]. [`RuleState::observe`] folds one observation into
//!   the arm state, scans the table once in priority order, logs every
//!   fired rule (for the passive [`SpanStage::RuleFired`] telemetry),
//!   and returns at most one [`NodeAction`] for the network to execute.
//!
//! The interpreter is pure decision logic: it never touches the event
//! queue or the quantum ledger. The network feeds it observations and
//! executes the [`NodeAction`]s it emits, which keeps every quantum
//! operation and every classical transmission on the shared clock.
//!
//! # The builtin policies
//!
//! [`Policy::SwapAsap`] is the paper-era greedy repeater protocol (a
//! repeater swaps **as soon as** pairs exist on both its path edges,
//! e.g. arXiv:2111.11332's chain demonstration),
//! [`Policy::LinkPurify`] distills every edge once before swapping,
//! and [`Policy::EndToEndPurify`] distills two whole streams at the
//! path ends. Their trajectories are frozen per seed as golden
//! fingerprints in `tests/net_ruleset.rs` (recorded from the
//! hand-written state machine these tables replaced) and by every
//! bit-pin of the congestion, load, purification, routing and fault
//! suites. [`Policy::ThresholdPurify`]
//! distills an edge only when its FEU-estimated fidelity sits below
//! θ (the install-time [`Condition::FidelityBelow`] gates the
//! [`Action::SetPurify`] rule), and [`Policy::PumpRounds`] runs k
//! nested 2→1 rounds toward the DEJMPS fixed point — each accepted
//! round keeps the survivor and pumps it with one fresh pair
//! ([`Action::Pump`]), a reject restarts the edge from scratch
//! ([`Action::Regenerate`]). Route planning prices every edge after the
//! rounds [`RuleSet::edge_program`] installs on it
//! ([`RoutePlanner::routes`](crate::route::RoutePlanner::routes)).
//!
//! Deliberately absent: timer conditions. A node that could schedule
//! its own wake-ups would stop being a pure decision function of its
//! observations — the property the telemetry layer's passivity
//! leans on. Time-driven
//! behaviour stays in the network layer (timeouts, backoff).
//!
//! [`SpanStage::RuleFired`]: crate::obs::SpanStage::RuleFired
//!
//! # Examples
//!
//! A table driven directly (the network compiles and installs tables
//! for you under [`NetConfig::policy`](crate::network::NetConfig::policy)):
//!
//! ```
//! use std::sync::Arc;
//! use qlink_net::ruleset::{NodeAction, Obs, PathRole, Policy, RuleState};
//!
//! let rules = Arc::new(Policy::SwapAsap.ruleset());
//! let program = rules.edge_program(0.9);
//! let mut end = RuleState::new(
//!     rules,
//!     PathRole::End { edge: 0, expected_swaps: 0 },
//!     program,
//!     program,
//! );
//! let mut log = Vec::new();
//! // One pair on the only edge of a repeater-less path: end-ready.
//! let action = end.observe(7, Obs::PairArrived { edge: 0 }, &mut log);
//! assert_eq!(
//!     action,
//!     Some(NodeAction::EndReady { request: 7, frame_z: 0, frame_x: 0 })
//! );
//! // Both the mark-ready and the end-ready rule fired, in order.
//! assert_eq!(log.len(), 2);
//! ```

use std::sync::Arc;

/// A node's role in one reserved path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathRole {
    /// Source or destination: one path edge; holds one half of the
    /// would-be end-to-end pair and collects the repeaters'
    /// Bell-measurement outcomes before the pair is usable (the
    /// quantum ledger folds each Pauli correction in at swap time, so
    /// the collected bits gate *usability*, not a correction still to
    /// be applied).
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

/// The network-facing policy choice: which RuleSet every path node of
/// a request runs. A network compiles its policy via
/// [`Policy::ruleset`] once, when it is built, and installs that one
/// table on the path nodes of every attempt.
///
/// SWAP-ASAP composition multiplies link fidelities, so every extra
/// hop pushes the end-to-end pair toward the maximally mixed 1/4; the
/// purifying variants decide *where* on a path the network spends the
/// 2→1 distillation trade of pairs for fidelity
/// ([`qlink_quantum::purify::distill_werner`]).
///
/// # Examples
///
/// ```
/// use qlink_net::ruleset::Policy;
///
/// assert_eq!(Policy::default(), Policy::SwapAsap);
/// assert_eq!(Policy::SwapAsap.ruleset().edge_program(0.9).need(), 1);
/// assert_eq!(Policy::LinkPurify.ruleset().edge_program(0.9).need(), 2);
/// assert_eq!(Policy::EndToEndPurify.name(), "rs-e2e-purify");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Policy {
    /// The paper's SWAP-ASAP: one pair per edge, swap as soon as both
    /// arms are ready.
    #[default]
    SwapAsap,
    /// Every path edge generates **two** pairs; its endpoints distill
    /// them into one boosted pair (exchanging the parity bits over the
    /// edge's classical control channel) before the SWAP-ASAP rules
    /// may consume it. A rejected parity check discards both pairs
    /// and regenerates.
    LinkPurify,
    /// The request runs as two concurrent streams (edge-disjoint
    /// routes where the topology has them, via the multi-path
    /// splitter); the two delivered end-to-end pairs are distilled
    /// into one by the path ends, with the parity bits crossing the
    /// whole path's control channels. The member streams themselves
    /// run [`Policy::SwapAsap`] tables.
    EndToEndPurify,
    /// Distill an edge only when its FEU-estimated profile fidelity
    /// sits below `theta`; good edges skip the double-pair price.
    ThresholdPurify {
        /// Estimated-fidelity threshold below which an edge purifies.
        theta: f64,
    },
    /// Nested multi-round 2→1 entanglement pumping: `rounds` accepted
    /// distillations per edge, each pumping the survivor with one
    /// fresh pair, climbing toward the DEJMPS fixed point. A rejected
    /// parity restarts the edge from scratch. `rounds == 1` behaves
    /// like [`Policy::LinkPurify`]; `rounds == 0` like
    /// [`Policy::SwapAsap`].
    PumpRounds {
        /// Accepted distillation rounds each edge must complete.
        rounds: u8,
    },
}

impl Policy {
    /// Display name (sweep reports, benches).
    pub fn name(&self) -> &'static str {
        match self {
            Policy::SwapAsap => "rs-swap-asap",
            Policy::LinkPurify => "rs-link-purify",
            Policy::EndToEndPurify => "rs-e2e-purify",
            Policy::ThresholdPurify { .. } => "rs-threshold",
            Policy::PumpRounds { .. } => "rs-pump",
        }
    }

    /// Compiles the policy into its rule table. Install-time rules
    /// (if any) come first; the shared SWAP-ASAP runtime core follows,
    /// so every policy's pair-handling differs only in the
    /// [`ArmProgram`] its install rules resolve to.
    pub fn ruleset(&self) -> RuleSet {
        let mut rules = Vec::new();
        match *self {
            Policy::SwapAsap | Policy::EndToEndPurify => {}
            Policy::LinkPurify => rules.push(Rule {
                on: Trigger::Install,
                when: vec![],
                then: Action::SetPurify { rounds: 1 },
            }),
            Policy::ThresholdPurify { theta } => rules.push(Rule {
                on: Trigger::Install,
                when: vec![Condition::FidelityBelow(theta)],
                then: Action::SetPurify { rounds: 1 },
            }),
            Policy::PumpRounds { rounds } => rules.push(Rule {
                on: Trigger::Install,
                when: vec![],
                then: Action::SetPurify { rounds },
            }),
        }
        rules.extend(swap_asap_core());
        RuleSet { rules }
    }
}

/// The shared runtime core every builtin policy appends after its
/// install rules: arm a distillation when a purifying edge holds two
/// pairs, mark an edge ready when its program is complete, pump or
/// regenerate on parity verdicts, and the two standing SWAP-ASAP
/// rules (swap a repeater, declare an end ready).
fn swap_asap_core() -> Vec<Rule> {
    vec![
        Rule {
            on: Trigger::PairArrived,
            when: vec![Condition::RoundsRemain, Condition::PairCountAtLeast(2)],
            then: Action::Purify,
        },
        Rule {
            on: Trigger::PairArrived,
            when: vec![Condition::ProgramComplete, Condition::PairCountAtLeast(1)],
            then: Action::MarkReady,
        },
        Rule {
            on: Trigger::ParityAccepted,
            when: vec![Condition::ProgramComplete],
            then: Action::MarkReady,
        },
        Rule {
            on: Trigger::ParityAccepted,
            when: vec![Condition::RoundsRemain],
            then: Action::Pump,
        },
        Rule {
            on: Trigger::ParityRejected,
            when: vec![],
            then: Action::Regenerate,
        },
        Rule {
            on: Trigger::Always,
            when: vec![
                Condition::NotDone,
                Condition::IsRepeater,
                Condition::BothArmsReady,
            ],
            then: Action::Swap,
        },
        Rule {
            on: Trigger::Always,
            when: vec![
                Condition::NotDone,
                Condition::IsEnd,
                Condition::BothArmsReady,
                Condition::SwapResultsComplete,
            ],
            then: Action::EndReady,
        },
    ]
}

/// When a rule is considered at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Evaluated once, at compile/install time, against the edge's
    /// FEU profile ([`RuleSet::edge_program`]); never at runtime.
    Install,
    /// A link pair was delivered on one of the node's path edges.
    PairArrived,
    /// The partner's parity bit arrived and agreed.
    ParityAccepted,
    /// The partner's parity bit arrived and disagreed.
    ParityRejected,
    /// A repeater's Bell-measurement outcome reached this end.
    SwapResultArrived,
    /// Evaluated after every observation (standing rules).
    Always,
}

/// A rule's guard, evaluated against the interpreter state (and the
/// arm the triggering observation landed on, where there is one —
/// arm-scoped conditions are false without an arm in context).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Condition {
    /// Install-time: the edge's FEU-estimated fidelity is below the
    /// threshold. (False at runtime triggers without an arm.)
    FidelityBelow(f64),
    /// The triggering arm holds at least this many undistilled pairs.
    PairCountAtLeast(u8),
    /// The triggering arm has distillation rounds left to run.
    RoundsRemain,
    /// The triggering arm's distillation program is complete (always
    /// true for a zero-round program).
    ProgramComplete,
    /// Every arm of the node's role is ready (a repeater's two, an
    /// end's one).
    BothArmsReady,
    /// An end holds every expected swap result (false at repeaters).
    SwapResultsComplete,
    /// The node is a path repeater.
    IsRepeater,
    /// The node is a path end.
    IsEnd,
    /// The node has not yet swapped / declared ready.
    NotDone,
}

impl Condition {
    /// Evaluates the condition at install time, where the only known
    /// fact is the edge's estimated fidelity.
    fn holds_at_install(&self, est_fidelity: f64) -> bool {
        match *self {
            Condition::FidelityBelow(theta) => est_fidelity < theta,
            _ => false,
        }
    }
}

/// What a fired rule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Install-time: run `rounds` distillation rounds on the edge
    /// (determining its pair need). Inert at runtime.
    SetPurify {
        /// Accepted 2→1 rounds the edge must complete.
        rounds: u8,
    },
    /// Arm a 2→1 distillation on the triggering arm (emits
    /// [`NodeAction::Purify`]).
    Purify,
    /// Internal: the triggering arm's pair is usable.
    MarkReady,
    /// Internal: keep the distilled survivor and demand one fresh
    /// pair for the next round.
    Pump,
    /// Internal: drop the arm's pairs, reset its rounds, and demand a
    /// full fresh batch.
    Regenerate,
    /// Swap the repeater's two arms (emits [`NodeAction::Swap`]).
    Swap,
    /// Declare this path end ready (emits [`NodeAction::EndReady`]).
    EndReady,
}

impl Action {
    /// Short tag for telemetry
    /// ([`SpanStage::RuleFired`](crate::obs::SpanStage::RuleFired)).
    pub fn tag(&self) -> &'static str {
        match self {
            Action::SetPurify { .. } => "set-purify",
            Action::Purify => "purify",
            Action::MarkReady => "mark-ready",
            Action::Pump => "pump",
            Action::Regenerate => "regenerate",
            Action::Swap => "swap",
            Action::EndReady => "end-ready",
        }
    }
}

/// One `condition → action` rule: considered when `on` matches the
/// observation (or always, for [`Trigger::Always`]), fires when every
/// condition in `when` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The observation class that makes the rule eligible.
    pub on: Trigger,
    /// Guards, all of which must hold for the rule to fire.
    pub when: Vec<Condition>,
    /// What firing does.
    pub then: Action,
}

/// An ordered rule table. Earlier rules have priority: the scan stops
/// at the first rule whose action emits; internal actions apply and
/// let the scan continue, so standing rules see the updated state.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet {
    /// The rules, priority order.
    pub rules: Vec<Rule>,
}

impl RuleSet {
    /// Resolves the install-time rules against an edge's FEU-estimated
    /// fidelity: the first matching [`Action::SetPurify`] rule wins;
    /// with none, the edge runs a zero-round (single-pair) program.
    pub fn edge_program(&self, est_fidelity: f64) -> ArmProgram {
        for rule in &self.rules {
            if rule.on != Trigger::Install {
                continue;
            }
            if let Action::SetPurify { rounds } = rule.then {
                if rule.when.iter().all(|c| c.holds_at_install(est_fidelity)) {
                    return ArmProgram {
                        rounds,
                        est_fidelity,
                    };
                }
            }
        }
        ArmProgram {
            rounds: 0,
            est_fidelity,
        }
    }
}

/// The compiled per-edge program an install resolves to: how many
/// accepted distillation rounds the edge runs, and the estimate the
/// decision was made against.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArmProgram {
    /// Accepted 2→1 rounds the edge must complete before it is ready.
    pub rounds: u8,
    /// The FEU profile fidelity the install rules evaluated.
    pub est_fidelity: f64,
}

impl ArmProgram {
    /// Initial link pairs the edge needs: two to seed a distilling
    /// program, one otherwise.
    pub fn need(&self) -> u8 {
        if self.rounds > 0 {
            2
        } else {
            1
        }
    }
}

/// Live interpreter state of one arm (path edge) at one node.
#[derive(Debug, Clone, Copy, Default)]
struct ArmRuntime {
    program: ArmProgram,
    /// Undistilled pairs currently held (the survivor counts as one).
    pairs: u8,
    /// Accepted distillation rounds completed.
    round: u8,
    /// A parity exchange is in flight; deliveries are absorbed.
    purifying: bool,
    /// The arm's (possibly distilled) pair is usable.
    ready: bool,
    /// Fresh pairs the network layer should generate, accumulated by
    /// [`Action::Pump`] / [`Action::Regenerate`] and drained by
    /// [`RuleState::take_demand`].
    demand: u8,
}

/// An observation fed to [`RuleState::observe`].
#[derive(Debug, Clone, Copy)]
pub enum Obs {
    /// A link pair was delivered on `edge`.
    PairArrived {
        /// The delivering path edge.
        edge: usize,
    },
    /// The partner's parity bit for the distillation on `edge`.
    Parity {
        /// The distilling path edge.
        edge: usize,
        /// Whether the parities agreed.
        accepted: bool,
    },
    /// A repeater's Bell-measurement outcome (ends only).
    SwapResult {
        /// Z correction bit.
        z: u8,
        /// X correction bit.
        x: u8,
    },
}

/// A log entry for one fired rule — drained by the network layer into
/// [`SpanStage::RuleFired`](crate::obs::SpanStage::RuleFired) spans
/// (purely passive: entries are popped whether or not telemetry
/// records them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredRule {
    /// The request whose table fired.
    pub request: u64,
    /// Index of the fired rule in its [`RuleSet`].
    pub rule: u32,
    /// The fired action's [`Action::tag`].
    pub action: &'static str,
}

/// The per-(node, request) interpreter: the installed table plus the
/// node's role and live arm state.
#[derive(Debug)]
pub struct RuleState {
    rules: Arc<RuleSet>,
    role: PathRole,
    left: ArmRuntime,
    right: ArmRuntime,
    done: bool,
    swap_results: u32,
    frame_z: u8,
    frame_x: u8,
}

impl RuleState {
    /// Installs `rules` for a node with `role`; `left` / `right` are
    /// the compiled programs of the role's arms (an end uses `left`
    /// for its single edge and ignores `right`).
    pub fn new(rules: Arc<RuleSet>, role: PathRole, left: ArmProgram, right: ArmProgram) -> Self {
        RuleState {
            rules,
            role,
            left: ArmRuntime {
                program: left,
                ..ArmRuntime::default()
            },
            right: ArmRuntime {
                program: right,
                ..ArmRuntime::default()
            },
            done: false,
            swap_results: 0,
            frame_z: 0,
            frame_x: 0,
        }
    }

    /// The role the table was installed for.
    pub fn role(&self) -> PathRole {
        self.role
    }

    /// Folds one observation into the arm state and scans the table
    /// once, in priority order. Every fired rule is appended to `log`;
    /// the first *emitting* action stops the scan and is returned,
    /// internal actions apply and let later rules see the new state.
    ///
    /// Absorbed observations — a delivery on a ready or distilling
    /// arm, a parity with no distillation in flight, a swap result at
    /// a repeater, anything on an unknown edge — return `None`
    /// without scanning: every state transition *latches*, so a
    /// standing rule can never become newly true at an absorbed
    /// observation, and skipping the scan keeps the fired-rule log
    /// clean of no-op entries.
    pub fn observe(
        &mut self,
        request: u64,
        obs: Obs,
        log: &mut Vec<FiredRule>,
    ) -> Option<NodeAction> {
        let (trigger, arm_edge) = match obs {
            Obs::PairArrived { edge } => {
                let arm = self.arm_mut(edge)?;
                if arm.ready || arm.purifying {
                    return None;
                }
                arm.pairs += 1;
                (Trigger::PairArrived, Some(edge))
            }
            Obs::Parity { edge, accepted } => {
                let arm = self.arm_mut(edge)?;
                if !arm.purifying {
                    return None;
                }
                arm.purifying = false;
                if accepted {
                    arm.round += 1;
                    (Trigger::ParityAccepted, Some(edge))
                } else {
                    (Trigger::ParityRejected, Some(edge))
                }
            }
            Obs::SwapResult { z, x } => {
                let PathRole::End { .. } = self.role else {
                    return None;
                };
                self.swap_results += 1;
                self.frame_z ^= z;
                self.frame_x ^= x;
                (Trigger::SwapResultArrived, None)
            }
        };
        self.scan(request, trigger, arm_edge, log)
    }

    /// Drains the accumulated fresh-pair demand of the arm on `edge`
    /// (zero for unknown edges). The network layer converts it into
    /// NL CREATEs at the parity-result instant.
    pub fn take_demand(&mut self, edge: usize) -> u8 {
        match self.arm_mut(edge) {
            Some(arm) => std::mem::take(&mut arm.demand),
            None => 0,
        }
    }

    fn scan(
        &mut self,
        request: u64,
        trigger: Trigger,
        arm_edge: Option<usize>,
        log: &mut Vec<FiredRule>,
    ) -> Option<NodeAction> {
        let rules = Arc::clone(&self.rules);
        for (i, rule) in rules.rules.iter().enumerate() {
            let eligible = match rule.on {
                Trigger::Always => true,
                on => on == trigger,
            };
            if !eligible || !rule.when.iter().all(|c| self.holds(c, arm_edge)) {
                continue;
            }
            log.push(FiredRule {
                request,
                rule: i as u32,
                action: rule.then.tag(),
            });
            if let Some(action) = self.apply(request, rule.then, arm_edge) {
                return Some(action);
            }
        }
        None
    }

    fn holds(&self, c: &Condition, arm_edge: Option<usize>) -> bool {
        let arm = arm_edge.and_then(|e| self.arm(e));
        match *c {
            Condition::FidelityBelow(theta) => arm.is_some_and(|a| a.program.est_fidelity < theta),
            Condition::PairCountAtLeast(n) => arm.is_some_and(|a| a.pairs >= n),
            Condition::RoundsRemain => arm.is_some_and(|a| a.round < a.program.rounds),
            Condition::ProgramComplete => arm.is_some_and(|a| a.round >= a.program.rounds),
            Condition::BothArmsReady => match self.role {
                PathRole::End { .. } => self.left.ready,
                PathRole::Repeater { .. } => self.left.ready && self.right.ready,
            },
            Condition::SwapResultsComplete => match self.role {
                PathRole::End { expected_swaps, .. } => self.swap_results >= expected_swaps,
                PathRole::Repeater { .. } => false,
            },
            Condition::IsRepeater => matches!(self.role, PathRole::Repeater { .. }),
            Condition::IsEnd => matches!(self.role, PathRole::End { .. }),
            Condition::NotDone => !self.done,
        }
    }

    fn apply(
        &mut self,
        request: u64,
        action: Action,
        arm_edge: Option<usize>,
    ) -> Option<NodeAction> {
        match action {
            // Install-time vocabulary; inert if a table lists it at
            // runtime.
            Action::SetPurify { .. } => None,
            Action::Purify => {
                let edge = arm_edge?;
                self.arm_mut(edge)?.purifying = true;
                Some(NodeAction::Purify { request, edge })
            }
            Action::MarkReady => {
                self.arm_mut(arm_edge?)?.ready = true;
                None
            }
            Action::Pump => {
                let arm = self.arm_mut(arm_edge?)?;
                arm.pairs = 1; // the distilled survivor
                arm.demand += 1;
                None
            }
            Action::Regenerate => {
                let arm = self.arm_mut(arm_edge?)?;
                arm.pairs = 0;
                arm.round = 0;
                arm.demand += arm.program.need();
                None
            }
            Action::Swap => {
                let PathRole::Repeater { left, right } = self.role else {
                    return None; // degenerate table: swap at an end
                };
                self.done = true;
                Some(NodeAction::Swap {
                    request,
                    left,
                    right,
                })
            }
            Action::EndReady => {
                let PathRole::End { .. } = self.role else {
                    return None; // degenerate table: end-ready at a repeater
                };
                self.done = true;
                Some(NodeAction::EndReady {
                    request,
                    frame_z: self.frame_z,
                    frame_x: self.frame_x,
                })
            }
        }
    }

    fn arm(&self, edge: usize) -> Option<&ArmRuntime> {
        match self.role {
            PathRole::End { edge: own, .. } => (edge == own).then_some(&self.left),
            PathRole::Repeater { left, right } => {
                if edge == left {
                    Some(&self.left)
                } else if edge == right {
                    Some(&self.right)
                } else {
                    None
                }
            }
        }
    }

    fn arm_mut(&mut self, edge: usize) -> Option<&mut ArmRuntime> {
        match self.role {
            PathRole::End { edge: own, .. } => (edge == own).then_some(&mut self.left),
            PathRole::Repeater { left, right } => {
                if edge == left {
                    Some(&mut self.left)
                } else if edge == right {
                    Some(&mut self.right)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(policy: Policy, role: PathRole, est: f64) -> RuleState {
        let rules = Arc::new(policy.ruleset());
        let program = rules.edge_program(est);
        RuleState::new(rules, role, program, program)
    }

    #[test]
    fn swap_asap_repeater_swaps_on_second_arm() {
        let mut st = state(
            Policy::SwapAsap,
            PathRole::Repeater { left: 3, right: 4 },
            0.9,
        );
        let mut log = Vec::new();
        assert_eq!(st.observe(1, Obs::PairArrived { edge: 3 }, &mut log), None);
        assert_eq!(
            st.observe(1, Obs::PairArrived { edge: 4 }, &mut log),
            Some(NodeAction::Swap {
                request: 1,
                left: 3,
                right: 4
            })
        );
        // mark-ready ×2 + swap, attributed to the right request.
        let actions: Vec<&str> = log.iter().map(|f| f.action).collect();
        assert_eq!(actions, vec!["mark-ready", "mark-ready", "swap"]);
        assert!(log.iter().all(|f| f.request == 1));
        // A stray later delivery on a ready arm is absorbed silently.
        let before = log.len();
        assert_eq!(st.observe(1, Obs::PairArrived { edge: 3 }, &mut log), None);
        assert_eq!(log.len(), before);
    }

    #[test]
    fn swap_asap_end_waits_for_swap_results() {
        let mut st = state(
            Policy::SwapAsap,
            PathRole::End {
                edge: 0,
                expected_swaps: 1,
            },
            0.9,
        );
        let mut log = Vec::new();
        assert_eq!(st.observe(2, Obs::PairArrived { edge: 0 }, &mut log), None);
        assert_eq!(
            st.observe(2, Obs::SwapResult { z: 1, x: 0 }, &mut log),
            Some(NodeAction::EndReady {
                request: 2,
                frame_z: 1,
                frame_x: 0
            })
        );
        // Off-path edges are unknown to the table: absorbed.
        assert_eq!(st.observe(2, Obs::PairArrived { edge: 9 }, &mut log), None);
    }

    /// A purifying end needs its boosted pair *and* the repeater's
    /// swap result.
    #[test]
    fn link_purify_end_waits_for_swap_results_too() {
        let role = PathRole::End {
            edge: 0,
            expected_swaps: 1,
        };
        let mut st = state(Policy::LinkPurify, role, 0.9);
        let mut log = Vec::new();
        st.observe(8, Obs::PairArrived { edge: 0 }, &mut log);
        assert_eq!(
            st.observe(8, Obs::PairArrived { edge: 0 }, &mut log),
            Some(NodeAction::Purify {
                request: 8,
                edge: 0
            })
        );
        let accept = Obs::Parity {
            edge: 0,
            accepted: true,
        };
        assert_eq!(st.observe(8, accept, &mut log), None, "no swap result yet");
        assert_eq!(
            st.observe(8, Obs::SwapResult { z: 1, x: 0 }, &mut log),
            Some(NodeAction::EndReady {
                request: 8,
                frame_z: 1,
                frame_x: 0
            })
        );
    }

    /// A purifying repeater distills each arm on its second pair and
    /// swaps exactly once, when both arms' parities have agreed.
    #[test]
    fn link_purify_repeater_purifies_both_arms_then_swaps_once() {
        let role = PathRole::Repeater { left: 0, right: 1 };
        let mut st = state(Policy::LinkPurify, role, 0.9);
        let mut log = Vec::new();
        // One pair per edge: nothing fires yet.
        assert_eq!(st.observe(4, Obs::PairArrived { edge: 0 }, &mut log), None);
        assert_eq!(st.observe(4, Obs::PairArrived { edge: 1 }, &mut log), None);
        // The second pair arms the purification rule per edge.
        for edge in [0, 1] {
            assert_eq!(
                st.observe(4, Obs::PairArrived { edge }, &mut log),
                Some(NodeAction::Purify { request: 4, edge })
            );
        }
        let accept = |edge| Obs::Parity {
            edge,
            accepted: true,
        };
        // One accept is not enough to swap…
        assert_eq!(st.observe(4, accept(0), &mut log), None);
        // …both accepts fire the swap exactly once.
        assert_eq!(
            st.observe(4, accept(1), &mut log),
            Some(NodeAction::Swap {
                request: 4,
                left: 0,
                right: 1
            })
        );
        assert_eq!(st.observe(4, accept(1), &mut log), None, "latched");
        let swaps = log.iter().filter(|f| f.action == "swap").count();
        assert_eq!(swaps, 1);
    }

    #[test]
    fn link_purify_arms_on_second_pair_and_regenerates_on_reject() {
        let mut st = state(
            Policy::LinkPurify,
            PathRole::End {
                edge: 5,
                expected_swaps: 0,
            },
            0.9,
        );
        let mut log = Vec::new();
        assert_eq!(st.observe(3, Obs::PairArrived { edge: 5 }, &mut log), None);
        assert_eq!(
            st.observe(3, Obs::PairArrived { edge: 5 }, &mut log),
            Some(NodeAction::Purify {
                request: 3,
                edge: 5
            })
        );
        // Deliveries while the parity is in flight are absorbed.
        assert_eq!(st.observe(3, Obs::PairArrived { edge: 5 }, &mut log), None);
        // Reject: both pairs lost, a fresh batch of two is demanded.
        assert_eq!(
            st.observe(
                3,
                Obs::Parity {
                    edge: 5,
                    accepted: false
                },
                &mut log
            ),
            None
        );
        assert_eq!(st.take_demand(5), 2);
        assert_eq!(st.take_demand(5), 0, "demand drains once");
        // Regenerate → accept completes the one-round program.
        st.observe(3, Obs::PairArrived { edge: 5 }, &mut log);
        assert_eq!(
            st.observe(3, Obs::PairArrived { edge: 5 }, &mut log),
            Some(NodeAction::Purify {
                request: 3,
                edge: 5
            })
        );
        assert_eq!(
            st.observe(
                3,
                Obs::Parity {
                    edge: 5,
                    accepted: true
                },
                &mut log
            ),
            Some(NodeAction::EndReady {
                request: 3,
                frame_z: 0,
                frame_x: 0
            })
        );
        assert_eq!(st.take_demand(5), 0, "a completed program demands nothing");
        // The whole firing log, oldest first.
        let fired: Vec<&str> = log.iter().map(|f| f.action).collect();
        assert_eq!(
            fired,
            ["purify", "regenerate", "purify", "mark-ready", "end-ready"]
        );
    }

    #[test]
    fn pump_rounds_runs_nested_rounds() {
        let mut st = state(
            Policy::PumpRounds { rounds: 2 },
            PathRole::End {
                edge: 0,
                expected_swaps: 0,
            },
            0.9,
        );
        let mut log = Vec::new();
        st.observe(4, Obs::PairArrived { edge: 0 }, &mut log);
        assert_eq!(
            st.observe(4, Obs::PairArrived { edge: 0 }, &mut log),
            Some(NodeAction::Purify {
                request: 4,
                edge: 0
            })
        );
        // Mid-program accept: survivor kept, one fresh pair demanded.
        assert_eq!(
            st.observe(
                4,
                Obs::Parity {
                    edge: 0,
                    accepted: true
                },
                &mut log
            ),
            None
        );
        assert_eq!(st.take_demand(0), 1);
        // The pumping pair arrives: second round arms immediately.
        assert_eq!(
            st.observe(4, Obs::PairArrived { edge: 0 }, &mut log),
            Some(NodeAction::Purify {
                request: 4,
                edge: 0
            })
        );
        // Final accept completes the program.
        assert_eq!(
            st.observe(
                4,
                Obs::Parity {
                    edge: 0,
                    accepted: true
                },
                &mut log
            ),
            Some(NodeAction::EndReady {
                request: 4,
                frame_z: 0,
                frame_x: 0
            })
        );
        // A mid-program reject resets the round counter to zero.
        let mut st = state(
            Policy::PumpRounds { rounds: 2 },
            PathRole::End {
                edge: 0,
                expected_swaps: 0,
            },
            0.9,
        );
        st.observe(5, Obs::PairArrived { edge: 0 }, &mut log);
        st.observe(5, Obs::PairArrived { edge: 0 }, &mut log);
        st.observe(
            5,
            Obs::Parity {
                edge: 0,
                accepted: true,
            },
            &mut log,
        );
        // The network drains demand at every parity result.
        assert_eq!(st.take_demand(0), 1);
        st.observe(
            5,
            Obs::PairArrived { edge: 0 },
            &mut log, // second round arms
        );
        st.observe(
            5,
            Obs::Parity {
                edge: 0,
                accepted: false,
            },
            &mut log,
        );
        assert_eq!(st.take_demand(0), 2, "a reject restarts from scratch");
    }

    #[test]
    fn threshold_policy_compiles_per_edge_programs() {
        let rules = Policy::ThresholdPurify { theta: 0.85 }.ruleset();
        assert_eq!(rules.edge_program(0.80).rounds, 1, "poor edge distills");
        assert_eq!(rules.edge_program(0.90).rounds, 0, "good edge skips it");
        assert_eq!(rules.edge_program(0.80).need(), 2);
        assert_eq!(rules.edge_program(0.90).need(), 1);
        // The unconditional policies ignore the estimate.
        assert_eq!(Policy::SwapAsap.ruleset().edge_program(0.1).rounds, 0);
        assert_eq!(Policy::LinkPurify.ruleset().edge_program(0.99).rounds, 1);
        assert_eq!(
            Policy::PumpRounds { rounds: 3 }
                .ruleset()
                .edge_program(0.9)
                .rounds,
            3
        );
    }

    #[test]
    fn policy_names_and_tags() {
        assert_eq!(Policy::SwapAsap.name(), "rs-swap-asap");
        assert_eq!(
            Policy::ThresholdPurify { theta: 0.9 }.name(),
            "rs-threshold"
        );
        assert_eq!(Action::SetPurify { rounds: 1 }.tag(), "set-purify");
        assert_eq!(Action::EndReady.tag(), "end-ready");
    }
}
