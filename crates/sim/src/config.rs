//! Link and workload configuration for the evaluation scenarios.

use crate::workload::WorkloadSpec;
use qlink_egp::scheduler::SchedulerPolicy;
use qlink_phys::params::ScenarioParams;

/// The three request kinds of §6's evaluation, mapped to priorities
/// exactly as the paper does (NL = 1 highest, CK = 2, MD = 3 lowest —
/// we index queues 0/1/2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestKind {
    /// Network-layer: K type, consecutive, priority 1 (queue 0).
    Nl,
    /// Create-and-keep application: K type, priority 2 (queue 1).
    Ck,
    /// Measure directly: M type, consecutive, priority 3 (queue 2).
    Md,
}

impl RequestKind {
    /// All kinds in priority order.
    pub const ALL: [RequestKind; 3] = [RequestKind::Nl, RequestKind::Ck, RequestKind::Md];

    /// The queue index / wire priority for this kind.
    pub fn priority(self) -> u8 {
        match self {
            RequestKind::Nl => 0,
            RequestKind::Ck => 1,
            RequestKind::Md => 2,
        }
    }

    /// `true` for K-type (stored) entanglement.
    pub fn is_keep(self) -> bool {
        !matches!(self, RequestKind::Md)
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            RequestKind::Nl => "NL",
            RequestKind::Ck => "CK",
            RequestKind::Md => "MD",
        }
    }
}

/// Scheduler configurations evaluated in §6.3 / Appendix C.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerChoice {
    /// First-come-first-serve with a single queue.
    Fcfs,
    /// NL strict priority; WFQ between CK (weight 2) and MD (weight 1).
    LowerWfq,
    /// NL strict priority; WFQ between CK (weight 10) and MD (weight 1).
    HigherWfq,
}

impl SchedulerChoice {
    /// The EGP scheduling policy, with its WFQ weights per queue index
    /// (CK = queue 1, MD = queue 2).
    pub fn policy(self) -> SchedulerPolicy {
        let nl_strict = |ck_weight| SchedulerPolicy::StrictThenWfq {
            strict: vec![0],
            weights: vec![(1, ck_weight), (2, 1)],
        };
        match self {
            SchedulerChoice::Fcfs => SchedulerPolicy::Fcfs,
            SchedulerChoice::LowerWfq => nl_strict(2),
            SchedulerChoice::HigherWfq => nl_strict(10),
        }
    }

    /// Display label matching the appendix tables.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerChoice::Fcfs => "FCFS",
            SchedulerChoice::LowerWfq => "LowerWFQ",
            SchedulerChoice::HigherWfq => "HigherWFQ",
        }
    }
}

/// The usage patterns of Table 2 (Appendix C.2): per-kind load
/// fractions `f` and maximum request sizes `kmax`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsagePattern {
    /// Pattern name as in Table 2.
    pub name: &'static str,
    /// `(f, kmax)` for NL.
    pub nl: (f64, u16),
    /// `(f, kmax)` for CK.
    pub ck: (f64, u16),
    /// `(f, kmax)` for MD.
    pub md: (f64, u16),
}

impl UsagePattern {
    /// Table 2 "Uniform": `f = 0.99/3`, `kmax = 1` each.
    pub fn uniform() -> Self {
        UsagePattern {
            name: "Uniform",
            nl: (0.99 / 3.0, 1),
            ck: (0.99 / 3.0, 1),
            md: (0.99 / 3.0, 1),
        }
    }

    /// Table 2 "MoreNL".
    pub fn more_nl() -> Self {
        UsagePattern {
            name: "MoreNL",
            nl: (0.99 * 4.0 / 6.0, 3),
            ck: (0.99 / 6.0, 3),
            md: (0.99 / 6.0, 255),
        }
    }

    /// Table 2 "MoreCK".
    pub fn more_ck() -> Self {
        UsagePattern {
            name: "MoreCK",
            nl: (0.99 / 6.0, 3),
            ck: (0.99 * 4.0 / 6.0, 3),
            md: (0.99 / 6.0, 255),
        }
    }

    /// Table 2 "MoreMD".
    pub fn more_md() -> Self {
        UsagePattern {
            name: "MoreMD",
            nl: (0.99 / 6.0, 3),
            ck: (0.99 / 6.0, 3),
            md: (0.99 * 4.0 / 6.0, 255),
        }
    }

    /// Table 2 "NoNLMoreCK".
    pub fn no_nl_more_ck() -> Self {
        UsagePattern {
            name: "NoNLMoreCK",
            nl: (0.0, 3),
            ck: (0.99 * 4.0 / 5.0, 3),
            md: (0.99 / 5.0, 255),
        }
    }

    /// Table 2 "NoNLMoreMD".
    pub fn no_nl_more_md() -> Self {
        UsagePattern {
            name: "NoNLMoreMD",
            nl: (0.0, 3),
            ck: (0.99 / 5.0, 3),
            md: (0.99 * 4.0 / 5.0, 255),
        }
    }

    /// All six patterns of Table 2.
    pub fn all() -> Vec<UsagePattern> {
        vec![
            Self::uniform(),
            Self::more_nl(),
            Self::more_ck(),
            Self::more_md(),
            Self::no_nl_more_ck(),
            Self::no_nl_more_md(),
        ]
    }

    /// `(f, kmax)` for a kind.
    pub fn params(&self, kind: RequestKind) -> (f64, u16) {
        match kind {
            RequestKind::Nl => self.nl,
            RequestKind::Ck => self.ck,
            RequestKind::Md => self.md,
        }
    }
}

/// Full configuration of one simulated link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Physical scenario (Lab or QL2020).
    pub scenario: ScenarioParams,
    /// Scheduler at both EGPs.
    pub scheduler: SchedulerChoice,
    /// Workload to generate.
    pub workload: WorkloadSpec,
    /// Classical frame-loss probability on every control channel
    /// (inflated for the §6.1 robustness study; realistically < 4e-8).
    pub classical_loss: f64,
    /// Classical frame bit-corruption probability (caught by CRC).
    pub classical_corruption: f64,
    /// Run seed (runs are bit-reproducible per seed).
    pub seed: u64,
}

impl LinkConfig {
    /// A Lab link with the given workload, no classical loss.
    pub fn lab(workload: WorkloadSpec, seed: u64) -> Self {
        LinkConfig {
            scenario: ScenarioParams::lab(),
            scheduler: SchedulerChoice::Fcfs,
            workload,
            classical_loss: 0.0,
            classical_corruption: 0.0,
            seed,
        }
    }

    /// A QL2020 link with the given workload, no classical loss.
    pub fn ql2020(workload: WorkloadSpec, seed: u64) -> Self {
        LinkConfig {
            scenario: ScenarioParams::ql2020(),
            ..Self::lab(workload, seed)
        }
    }

    /// Builder: choose the scheduler.
    pub fn with_scheduler(mut self, s: SchedulerChoice) -> Self {
        self.scheduler = s;
        self
    }

    /// Builder: inject classical frame loss.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_classical_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "classical_loss {p} not in [0, 1]");
        self.classical_loss = p;
        self
    }

    /// Builder: inject classical frame corruption (one flipped bit,
    /// caught by the receiver's CRC).
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_classical_corruption(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "classical_corruption {p} not in [0, 1]"
        );
        self.classical_corruption = p;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_match_paper() {
        assert_eq!(RequestKind::Nl.priority(), 0);
        assert_eq!(RequestKind::Ck.priority(), 1);
        assert_eq!(RequestKind::Md.priority(), 2);
        assert!(RequestKind::Nl.is_keep());
        assert!(RequestKind::Ck.is_keep());
        assert!(!RequestKind::Md.is_keep());
    }

    #[test]
    fn table2_fractions() {
        let u = UsagePattern::uniform();
        assert!((u.nl.0 - 0.33).abs() < 0.01);
        let m = UsagePattern::more_md();
        assert!((m.md.0 - 0.66).abs() < 0.01);
        assert_eq!(m.md.1, 255);
        let n = UsagePattern::no_nl_more_md();
        assert_eq!(n.nl.0, 0.0);
        assert!((n.md.0 - 0.792).abs() < 0.001);
        assert_eq!(UsagePattern::all().len(), 6);
    }

    #[test]
    fn wfq_weights() {
        let weights = |s: SchedulerChoice| [0, 1, 2].map(|q| s.policy().weight(q));
        assert_eq!(weights(SchedulerChoice::HigherWfq), [1, 10, 1]);
        assert_eq!(weights(SchedulerChoice::LowerWfq), [1, 2, 1]);
        assert_eq!(weights(SchedulerChoice::Fcfs), [1, 1, 1]);
        assert_eq!(SchedulerChoice::Fcfs.policy(), SchedulerPolicy::Fcfs);
    }

    #[test]
    fn builders() {
        let cfg = LinkConfig::ql2020(WorkloadSpec::none(), 1)
            .with_scheduler(SchedulerChoice::HigherWfq)
            .with_classical_loss(1e-4)
            .with_classical_corruption(1e-5);
        assert_eq!(cfg.scheduler, SchedulerChoice::HigherWfq);
        assert_eq!(cfg.classical_loss, 1e-4);
        assert_eq!(cfg.classical_corruption, 1e-5);
    }

    #[test]
    #[should_panic(expected = "classical_loss")]
    fn a_loss_probability_above_one_fails_at_the_builder() {
        let _ = LinkConfig::lab(WorkloadSpec::none(), 1).with_classical_loss(1.5);
    }

    #[test]
    #[should_panic(expected = "classical_corruption")]
    fn a_nan_corruption_probability_fails_at_the_builder() {
        let _ = LinkConfig::lab(WorkloadSpec::none(), 1).with_classical_corruption(f64::NAN);
    }
}
