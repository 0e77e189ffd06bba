//! Property test: the Distributed Queue Protocol converges to
//! identical queues at both nodes under arbitrary frame loss, as long
//! as retransmission eventually succeeds (§E.1.2's Equal queue number
//! / Uniqueness / Consistency properties).
//!
//! Cases are drawn from a seeded [`DetRng`] instead of `proptest`
//! (crates.io is unreachable in the build environment), keeping runs
//! deterministic with the failing case index in the panic message.

use qlink::des::DetRng;
use qlink::egp::dqueue::{DistributedQueue, DqpEvent, Role};
use qlink::egp::request::Service;
use qlink::egp::scheduler::SchedulerPolicy;
use qlink::wire::dqp::{DqpFrameType, DqpMessage, QueueItem};
use qlink::wire::fields::{AbsQueueId, Fidelity16, RequestFlags};

fn payload(create_id: u16, priority: u8) -> QueueItem {
    QueueItem {
        queue_id: AbsQueueId::new(0, 0),
        schedule_cycle: 100,
        timeout_cycle: u64::MAX,
        min_fidelity: Fidelity16::from_f64(0.6),
        purpose_id: 1,
        create_id,
        num_pairs: 1,
        priority,
        initial_virtual_finish: 0.0,
        est_cycles_per_pair: 1_000,
        flags: RequestFlags {
            store: true,
            ..Default::default()
        },
    }
}

/// Node 1's master half and node 2's slave half of one queue.
fn pair() -> (DistributedQueue, DistributedQueue) {
    let fcfs = SchedulerPolicy::fcfs();
    (
        DistributedQueue::new(Role::Master, 1, 2, &fcfs),
        DistributedQueue::new(Role::Slave, 2, 1, &fcfs),
    )
}

/// The DQP carries service state without reading it: any will do.
fn service() -> Service {
    Service::new(0.1, 0.7, 0)
}

/// Drives both queues with interleaved adds and a lossy in-order
/// medium, then lets retransmissions drain losslessly. Returns the
/// two final queue snapshots.
fn run_session(
    adds: &[(bool /* master side */, u8 /* priority */)],
    loss: f64,
    seed: u64,
) -> (Vec<String>, Vec<String>) {
    let mut rng = DetRng::new(seed);
    let (mut master, mut slave) = pair();

    // In-flight frames as (to_master?, msg).
    let mut wire: Vec<(bool, DqpMessage)> = Vec::new();
    let mut cycle = 0u64;

    let push_events = |events: Vec<DqpEvent>,
                       from_master: bool,
                       wire: &mut Vec<(bool, DqpMessage)>,
                       rng: &mut DetRng,
                       lossy: bool| {
        for ev in events {
            if let DqpEvent::Send(msg) = ev {
                if !(lossy && rng.bernoulli(loss)) {
                    wire.push((!from_master, msg));
                }
            }
        }
    };

    // Phase 1: submit all adds, lossy delivery.
    for (i, (from_master, priority)) in adds.iter().enumerate() {
        cycle += 10;
        let p = payload(i as u16, *priority);
        let events = if *from_master {
            master.add(p, service(), cycle)
        } else {
            slave.add(p, service(), cycle)
        };
        push_events(events, *from_master, &mut wire, &mut rng, true);
        // Deliver anything on the wire (also lossy responses).
        while let Some((to_master, msg)) = wire.pop() {
            let events = if to_master {
                master.on_frame(msg, service, cycle)
            } else {
                slave.on_frame(msg, service, cycle)
            };
            push_events(events, to_master, &mut wire, &mut rng, true);
        }
    }

    // Phase 2: drive retransmission timers with a lossless wire until
    // quiescent (loss is transient in reality too).
    for _ in 0..40 {
        cycle += 500;
        let ev_m = master.tick(cycle);
        push_events(ev_m, true, &mut wire, &mut rng, false);
        let ev_s = slave.tick(cycle);
        push_events(ev_s, false, &mut wire, &mut rng, false);
        while let Some((to_master, msg)) = wire.pop() {
            let events = if to_master {
                master.on_frame(msg, service, cycle)
            } else {
                slave.on_frame(msg, service, cycle)
            };
            push_events(events, to_master, &mut wire, &mut rng, false);
        }
    }

    let snapshot = |q: &DistributedQueue| {
        q.iter()
            .map(|e| {
                format!(
                    "{}:{}:{}:{}",
                    e.item.queue_id.qid, e.item.queue_id.qseq, e.origin, e.item.create_id
                )
            })
            .collect::<Vec<_>>()
    };
    (snapshot(&master), snapshot(&slave))
}

const CASES: u64 = 48;

fn random_adds(rng: &mut DetRng) -> Vec<(bool, u8)> {
    let n = 1 + rng.below(19) as usize;
    (0..n)
        .map(|_| (rng.bernoulli(0.5), rng.below(3) as u8))
        .collect()
}

#[test]
fn queues_converge_under_loss() {
    let root = DetRng::new(0xd9b_c0de);
    for case in 0..CASES {
        let mut rng = root.substream(&format!("lossy/{case}"));
        let adds = random_adds(&mut rng);
        let loss = rng.uniform() * 0.5;
        let seed = rng.below(u64::MAX);
        let (m, s) = run_session(&adds, loss, seed);
        // Consistency: both nodes end with identical queue content.
        assert_eq!(&m, &s, "case {case}: queues diverged");
        // Uniqueness: no duplicate queue IDs.
        let mut ids: Vec<&String> = m.iter().collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), m.len(), "case {case}: duplicate queue ids");
    }
}

#[test]
fn lossless_sessions_commit_everything() {
    let root = DetRng::new(0x1055_1e55);
    for case in 0..CASES {
        let mut rng = root.substream(&format!("lossless/{case}"));
        let adds = random_adds(&mut rng);
        let seed = rng.below(u64::MAX);
        let (m, s) = run_session(&adds, 0.0, seed);
        assert_eq!(
            m.len(),
            adds.len(),
            "case {case}: every add commits without loss"
        );
        assert_eq!(m, s, "case {case}");
    }
}

/// One slave add with nothing lost; returns the queue ID the slave is
/// told the item has.
fn slave_add(
    master: &mut DistributedQueue,
    slave: &mut DistributedQueue,
    create_id: u16,
    priority: u8,
) -> AbsQueueId {
    let mut acked = None;
    for ev in slave.add(payload(create_id, priority), service(), 0) {
        let DqpEvent::Send(add) = ev else { continue };
        for ev in master.on_frame(add, service, 0) {
            let DqpEvent::Send(ack) = ev else { continue };
            assert_eq!(ack.frame_type, DqpFrameType::Ack);
            for ev in slave.on_frame(ack, service, 0) {
                if let DqpEvent::AddSucceeded { create_id: id, aid } = ev {
                    assert_eq!(id, create_id);
                    acked = Some(aid);
                }
            }
        }
    }
    acked.expect("add acknowledged")
}

/// The 8-bit CSEQ of a slave's ADDs wraps every 256 adds. The master
/// remembers which queue ID it gave each CSEQ, to re-ACK a
/// retransmitted ADD; an ADD whose CSEQ merely wrapped onto an item
/// still queued is a new item, and must get a queue ID of its own —
/// it used to be answered with the old item's, and was lost.
#[test]
fn a_wrapped_cseq_is_not_taken_for_a_retransmission() {
    let (mut master, mut slave) = pair();
    // CSEQ 0: an item that stays queued (never served).
    let starved = slave_add(&mut master, &mut slave, 0, 2);
    // CSEQs 1..=255: items that come and go.
    for create_id in 1..=255 {
        let aid = slave_add(&mut master, &mut slave, create_id, 0);
        assert!(master.remove(aid).is_some() && slave.remove(aid).is_some());
    }
    // CSEQ 0 again, a new item.
    let aid = slave_add(&mut master, &mut slave, 256, 0);
    assert_ne!(aid, starved, "answered with the starved item's queue ID");
    assert_eq!((master.len(), slave.len()), (2, 2), "the new item is lost");
}
