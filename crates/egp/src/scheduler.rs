//! EGP schedulers (§5.2.4, evaluated in §6.3).
//!
//! Any scheduling strategy works "as long as it is deterministic,
//! ensuring that both nodes select the same request locally" — so
//! selection here is a *pure function* of synchronized queue state
//! (fields carried in DQP frames), never of local arrival times.
//!
//! Two families from the paper's evaluation:
//!
//! * **FCFS** — a single logical first-come-first-serve queue.
//! * **Strict + WFQ** — NL (priority-1) requests always go first;
//!   remaining queues share via weighted fair queueing on the virtual
//!   finish times the master stamped into each item under the policy's
//!   weights (the paper's `LowerWFQ` weights CK:MD = 2:1,
//!   `HigherWFQ` = 10:1).

use qlink_wire::dqp::QueueItem;
use qlink_wire::fields::AbsQueueId;

/// Scheduling policy for the EGP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// First-come-first-serve across all queues (arrival order =
    /// `min_time`, tie-broken by queue ID — all synchronized fields).
    Fcfs,
    /// The listed queues (in order) get strict priority; all other
    /// queues share by smallest WFQ virtual finish time.
    StrictThenWfq {
        /// Queue indices with strict priority, highest first.
        strict: Vec<u8>,
        /// `(queue index, weight)`: the master divides an item's cost by
        /// its queue's weight to stamp its virtual finish. Unlisted
        /// queues weigh 1.
        weights: Vec<(u8, u32)>,
    },
}

impl SchedulerPolicy {
    /// The paper's FCFS baseline.
    pub fn fcfs() -> Self {
        SchedulerPolicy::Fcfs
    }

    /// NL (queue 0) strict, CK and MD sharing by WFQ at equal weights.
    pub fn nl_strict_wfq() -> Self {
        SchedulerPolicy::StrictThenWfq {
            strict: vec![0],
            weights: Vec::new(),
        }
    }

    /// The WFQ weight of queue `qid` (1 for an unlisted queue and under
    /// FCFS, which stamps virtual finishes all the same).
    pub fn weight(&self, qid: u8) -> u32 {
        match self {
            SchedulerPolicy::StrictThenWfq { weights, .. } => weights
                .iter()
                .find_map(|&(q, w)| (q == qid).then_some(w))
                .unwrap_or(1),
            SchedulerPolicy::Fcfs => 1,
        }
    }

    /// Picks the next request to serve among `ready` items.
    ///
    /// `ready` must already be filtered to schedulable items (state,
    /// `min_time`, timeout, resources); both nodes produce identical
    /// `ready` sets from their synchronized queues, so both pick the
    /// same item.
    pub fn select<'a>(&self, ready: impl Iterator<Item = &'a QueueItem>) -> Option<AbsQueueId> {
        match self {
            SchedulerPolicy::Fcfs => ready
                .min_by_key(|e| (e.schedule_cycle, e.queue_id.qid, e.queue_id.qseq))
                .map(|e| e.queue_id),
            SchedulerPolicy::StrictThenWfq { strict, .. } => {
                // One pass, no buffering (this runs every MHP cycle):
                // track the best strict-class item — by position in
                // `strict`, FCFS within a class — and the best of the
                // rest by WFQ virtual finish time. Any strict item
                // beats every WFQ item.
                let mut best_strict: Option<((usize, u64, u16), AbsQueueId)> = None;
                let mut best_wfq: Option<&QueueItem> = None;
                for e in ready {
                    if let Some(class) = strict.iter().position(|&q| q == e.queue_id.qid) {
                        let key = (class, e.schedule_cycle, e.queue_id.qseq);
                        if best_strict.is_none_or(|(best, _)| key < best) {
                            best_strict = Some((key, e.queue_id));
                        }
                    } else if best_strict.is_none()
                        && best_wfq.is_none_or(|best| wfq_order(e, best).is_lt())
                    {
                        best_wfq = Some(e);
                    }
                }
                best_strict
                    .map(|(_, aid)| aid)
                    .or(best_wfq.map(|e| e.queue_id))
            }
        }
    }
}

/// WFQ order: smallest virtual finish time, ties by queue ID.
fn wfq_order(a: &QueueItem, b: &QueueItem) -> std::cmp::Ordering {
    a.initial_virtual_finish
        .partial_cmp(&b.initial_virtual_finish)
        .expect("virtual finish is finite")
        .then((a.queue_id.qid, a.queue_id.qseq).cmp(&(b.queue_id.qid, b.queue_id.qseq)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlink_wire::fields::{Fidelity16, RequestFlags};

    fn entry(qid: u8, qseq: u16, schedule: u64, vf: f64) -> QueueItem {
        QueueItem {
            queue_id: AbsQueueId::new(qid, qseq),
            schedule_cycle: schedule,
            timeout_cycle: u64::MAX,
            min_fidelity: Fidelity16::from_f64(0.6),
            purpose_id: 0,
            create_id: qseq,
            num_pairs: 1,
            priority: qid,
            initial_virtual_finish: vf,
            est_cycles_per_pair: 1000,
            flags: RequestFlags::default(),
        }
    }

    #[test]
    fn fcfs_picks_earliest_schedule_cycle() {
        let items = [
            entry(2, 0, 300, 0.0),
            entry(0, 0, 100, 0.0),
            entry(1, 0, 200, 0.0),
        ];
        let pick = SchedulerPolicy::fcfs().select(items.iter()).unwrap();
        assert_eq!(pick, AbsQueueId::new(0, 0));
    }

    #[test]
    fn fcfs_tie_breaks_by_queue_then_seq() {
        let items = [
            entry(1, 5, 100, 0.0),
            entry(1, 3, 100, 0.0),
            entry(0, 9, 100, 0.0),
        ];
        let pick = SchedulerPolicy::fcfs().select(items.iter()).unwrap();
        assert_eq!(pick, AbsQueueId::new(0, 9));
    }

    #[test]
    fn strict_priority_wins_regardless_of_vf() {
        let items = [
            entry(0, 7, 900, 1e9), // NL, late arrival, huge VF
            entry(1, 0, 100, 1.0), // CK, tiny VF
            entry(2, 0, 100, 2.0), // MD
        ];
        let pick = SchedulerPolicy::nl_strict_wfq()
            .select(items.iter())
            .unwrap();
        assert_eq!(pick, AbsQueueId::new(0, 7), "NL must preempt");
    }

    #[test]
    fn wfq_picks_smallest_virtual_finish() {
        let items = [
            entry(1, 0, 100, 50.0), // CK
            entry(2, 0, 100, 10.0), // MD with earlier finish
        ];
        let pick = SchedulerPolicy::nl_strict_wfq()
            .select(items.iter())
            .unwrap();
        assert_eq!(pick, AbsQueueId::new(2, 0));
    }

    #[test]
    fn empty_ready_set_selects_nothing() {
        assert_eq!(SchedulerPolicy::fcfs().select([].iter()), None);
        assert_eq!(SchedulerPolicy::nl_strict_wfq().select([].iter()), None);
    }

    #[test]
    fn deterministic_across_instances() {
        // Two scheduler instances over the same items agree — the
        // property §5.2.4 requires for the two nodes.
        let items = [
            entry(1, 4, 120, 33.0),
            entry(2, 2, 110, 21.0),
            entry(1, 5, 105, 34.0),
        ];
        let a = SchedulerPolicy::nl_strict_wfq().select(items.iter());
        let b = SchedulerPolicy::nl_strict_wfq().select(items.iter());
        assert_eq!(a, b);
        let c = SchedulerPolicy::fcfs().select(items.iter());
        let d = SchedulerPolicy::fcfs().select(items.iter());
        assert_eq!(c, d);
    }

    /// The collect-then-filter `StrictThenWfq` selection the one-pass
    /// loop replaced, kept as its reference.
    fn select_by_collecting(strict: &[u8], ready: &[QueueItem]) -> Option<AbsQueueId> {
        let items: Vec<&QueueItem> = ready.iter().collect();
        // Strict classes first, in listed order, FCFS within.
        for &q in strict {
            if let Some(e) = items
                .iter()
                .filter(|e| e.queue_id.qid == q)
                .min_by_key(|e| (e.schedule_cycle, e.queue_id.qseq))
            {
                return Some(e.queue_id);
            }
        }
        // WFQ among the rest: smallest virtual finish time.
        items
            .iter()
            .filter(|e| !strict.contains(&e.queue_id.qid))
            .min_by(|a, b| {
                a.initial_virtual_finish
                    .partial_cmp(&b.initial_virtual_finish)
                    .expect("virtual finish is finite")
                    .then((a.queue_id.qid, a.queue_id.qseq).cmp(&(b.queue_id.qid, b.queue_id.qseq)))
            })
            .map(|e| e.queue_id)
    }

    #[test]
    fn one_pass_select_matches_the_collecting_reference() {
        let mut rng = qlink_des::DetRng::new(0x5e1ec7);
        for case in 0..20_000 {
            // 0–3 strict classes out of 4 queues, in random order.
            let mut strict: Vec<u8> = Vec::new();
            for _ in 0..rng.below(4) {
                let q = rng.below(4) as u8;
                if !strict.contains(&q) {
                    strict.push(q);
                }
            }
            // Distinct queue IDs in random order; schedule cycles and
            // virtual finish times from tiny ranges, so ties abound.
            let mut ready: Vec<QueueItem> = Vec::new();
            for _ in 0..rng.below(9) {
                let (qid, qseq) = (rng.below(4) as u8, rng.below(6) as u16);
                if ready
                    .iter()
                    .all(|e| e.queue_id != AbsQueueId::new(qid, qseq))
                {
                    let vf = rng.below(3) as f64 * 0.5;
                    ready.push(entry(qid, qseq, 100 + rng.below(3), vf));
                }
            }
            let policy = SchedulerPolicy::StrictThenWfq {
                strict: strict.clone(),
                weights: Vec::new(),
            };
            assert_eq!(
                policy.select(ready.iter()),
                select_by_collecting(&strict, &ready),
                "case {case}: strict {strict:?}, ready {ready:?}"
            );
        }
    }

    #[test]
    fn wfq_ties_break_deterministically() {
        let items = [entry(1, 1, 100, 10.0), entry(2, 0, 100, 10.0)];
        let pick = SchedulerPolicy::nl_strict_wfq()
            .select(items.iter())
            .unwrap();
        assert_eq!(pick, AbsQueueId::new(1, 1), "equal VF → lower queue id");
    }
}
