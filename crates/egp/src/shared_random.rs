//! Pre-shared randomness for measurement bases.
//!
//! Appendix B has the two nodes agree on a random basis string `r` *in
//! advance*, so no communication is needed at generation time: each
//! M-type attempt measures in the basis `r` names. We realise the
//! pre-shared string as a keyed pseudorandom function both EGPs
//! evaluate identically: `f(key, queue_id, cycle) → basis`. Agreement
//! is then structural rather than probabilistic.

use qlink_des::rng::splitmix64;
use qlink_quantum::Basis;
use qlink_wire::fields::AbsQueueId;

/// The two nodes' pre-shared basis string, realised as a keyed PRF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedRandomness {
    key: u64,
}

impl SharedRandomness {
    /// Creates the shared string for a link.
    pub fn new(key: u64) -> Self {
        SharedRandomness { key }
    }

    /// The measurement basis for round `round` of request `queue_id`
    /// (string `r`), uniform over X, Y, Z.
    ///
    /// `round` must be a value both nodes share without communication —
    /// the EGP uses the MHP *cycle number*, which the physical layer
    /// keeps synchronized (§4.5 "Trigger generation").
    pub fn basis(&self, queue_id: AbsQueueId, round: u64) -> Basis {
        let x = self.key
            ^ ((queue_id.qid as u64) << 56)
            ^ ((queue_id.qseq as u64) << 40)
            ^ round.rotate_left(8)
            ^ 0xba515;
        match splitmix64(x) % 3 {
            0 => Basis::X,
            1 => Basis::Y,
            _ => Basis::Z,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qid(qseq: u16) -> AbsQueueId {
        AbsQueueId::new(1, qseq)
    }

    #[test]
    fn both_nodes_agree() {
        // The whole point: two instances with the same key agree on
        // every round.
        let a = SharedRandomness::new(42);
        let b = SharedRandomness::new(42);
        for round in 0..1000 {
            assert_eq!(a.basis(qid(3), round), b.basis(qid(3), round));
        }
    }

    #[test]
    fn different_keys_disagree_somewhere() {
        let a = SharedRandomness::new(1);
        let b = SharedRandomness::new(2);
        let diffs = (0..256)
            .filter(|&r| a.basis(qid(0), r) != b.basis(qid(0), r))
            .count();
        assert!(diffs > 20, "only {diffs} differences");
    }

    #[test]
    fn bases_roughly_uniform() {
        let s = SharedRandomness::new(3);
        let mut counts = [0usize; 3];
        for r in 0..9_000 {
            match s.basis(qid(0), r) {
                Basis::X => counts[0] += 1,
                Basis::Y => counts[1] += 1,
                Basis::Z => counts[2] += 1,
            }
        }
        for c in counts {
            assert!((2_700..=3_300).contains(&c), "{counts:?}");
        }
    }
}
