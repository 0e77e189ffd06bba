//! The Quantum Memory Manager (§4.5, §5.2.2).
//!
//! Owns the node's physical qubits: one optically active communication
//! qubit (the NV electron) and a configurable number of storage qubits
//! (carbons — 1 on the paper's Lab chip, up to 8 demonstrated). The
//! EGP asks it which qubits to use for generating or storing
//! entanglement, and how much storage is free before a K-type attempt.
//! No node advertises these counts to its peer: the REQ(E)/ACK(E) flow
//! control of §4.5 is not modelled (DESIGN.md).

/// A physical qubit handle: 0 is the communication qubit, 1.. are
/// storage qubits.
pub type QubitId = u8;

/// Tracks allocation of the node's qubits.
#[derive(Debug, Clone)]
pub struct QuantumMemoryManager {
    comm_busy: bool,
    storage: Vec<bool>, // true = busy
}

impl QuantumMemoryManager {
    /// Creates a manager for one communication qubit plus
    /// `storage_qubits` memory qubits.
    pub fn new(storage_qubits: usize) -> Self {
        QuantumMemoryManager {
            comm_busy: false,
            storage: vec![false; storage_qubits],
        }
    }

    /// Free storage qubits right now.
    pub fn free_storage(&self) -> usize {
        self.storage.iter().filter(|b| !**b).count()
    }

    /// `true` if the communication qubit is free.
    pub fn comm_free(&self) -> bool {
        !self.comm_busy
    }

    /// Reserves the communication qubit for an attempt.
    ///
    /// Returns `None` if it is already in use (e.g. a K-type attempt
    /// awaiting its reply).
    pub fn reserve_comm(&mut self) -> Option<QubitId> {
        if self.comm_busy {
            None
        } else {
            self.comm_busy = true;
            Some(0)
        }
    }

    /// Releases the communication qubit (attempt failed, was measured,
    /// or its state was moved to memory).
    ///
    /// # Panics
    /// Panics if it was not reserved — a protocol accounting bug.
    pub fn release_comm(&mut self) {
        assert!(self.comm_busy, "releasing a free communication qubit");
        self.comm_busy = false;
    }

    /// Allocates a storage qubit (for a move-to-memory).
    pub fn alloc_storage(&mut self) -> Option<QubitId> {
        for (i, busy) in self.storage.iter_mut().enumerate() {
            if !*busy {
                *busy = true;
                return Some(i as QubitId + 1);
            }
        }
        None
    }

    /// Releases a storage qubit (pair delivered/expired/consumed).
    ///
    /// # Panics
    /// Panics on an invalid or already-free ID.
    pub fn release_storage(&mut self, id: QubitId) {
        assert!(id >= 1, "storage ids start at 1");
        let idx = (id - 1) as usize;
        assert!(idx < self.storage.len(), "unknown storage qubit {id}");
        assert!(self.storage[idx], "releasing a free storage qubit {id}");
        self.storage[idx] = false;
    }

    /// Can an atomic request for `pairs` simultaneous stored pairs ever
    /// fit this device? (§4.1.2: MEMEXCEEDED when permanently too small.)
    pub fn can_ever_store(&self, pairs: u16) -> bool {
        pairs as usize <= self.storage.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_cycle() {
        let mut q = QuantumMemoryManager::new(1);
        assert!(q.comm_free());
        assert_eq!(q.reserve_comm(), Some(0));
        assert!(!q.comm_free());
        assert_eq!(q.reserve_comm(), None, "double reserve must fail");
        q.release_comm();
        assert!(q.comm_free());
    }

    #[test]
    fn storage_allocation() {
        let mut q = QuantumMemoryManager::new(2);
        assert_eq!(q.free_storage(), 2);
        let a = q.alloc_storage().unwrap();
        let b = q.alloc_storage().unwrap();
        assert_ne!(a, b);
        assert_eq!(q.alloc_storage(), None);
        assert_eq!(q.free_storage(), 0);
        q.release_storage(a);
        assert_eq!(q.free_storage(), 1);
        assert_eq!(q.alloc_storage(), Some(a));
    }

    #[test]
    fn zero_storage_device() {
        // A measure-only photonic device (§4.1.1 item 2).
        let mut q = QuantumMemoryManager::new(0);
        assert_eq!(q.alloc_storage(), None);
        assert!(!q.can_ever_store(1));
        assert!(q.can_ever_store(0));
    }

    #[test]
    fn capacity_check() {
        let q = QuantumMemoryManager::new(1);
        assert!(q.can_ever_store(1));
        assert!(!q.can_ever_store(2));
    }

    #[test]
    #[should_panic(expected = "releasing a free communication qubit")]
    fn double_release_panics() {
        let mut q = QuantumMemoryManager::new(1);
        q.release_comm();
    }

    #[test]
    #[should_panic(expected = "releasing a free storage qubit")]
    fn bad_storage_release_panics() {
        let mut q = QuantumMemoryManager::new(1);
        q.release_storage(1);
    }
}
