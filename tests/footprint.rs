//! What one link costs in memory before it fires an attempt.
//!
//! A link's hardware profile lives once, behind the FEU handle the
//! network hands every link on that hardware; a [`LinkSimulation`] and
//! its two [`Egp`]s keep only the scalars they read after construction,
//! a [`DistributedQueue`] holds the protocol's constants as constants,
//! and a link with no workload carries no workload generator. These
//! tests pin the resulting sizes, and the heap a 16×16 Lab grid's
//! [`Network::new`] keeps, so a config struct creeping back into a link
//! shows up here rather than in a run's peak RSS.
//!
//! This file is its own test binary because it installs a byte-counting
//! `#[global_allocator]`. The count is per thread, so the harness's own
//! threads and the other test in this binary do not disturb it.

use qlink::egp::dqueue::DistributedQueue;
use qlink::egp::egp::Egp;
use qlink::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Bytes this thread holds on the heap: acquired minus released.
    /// Const-initialised and without a destructor, so touching it from
    /// inside the allocator never allocates.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    // `try_with`: a thread that is tearing down its TLS still frees
    // memory through the allocator; it just is not counted.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; all three are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

#[test]
fn a_link_and_its_egps_store_no_config_struct() {
    let link = std::mem::size_of::<LinkSimulation>();
    let egp = std::mem::size_of::<Egp>();
    let dq = std::mem::size_of::<DistributedQueue>();
    assert!(
        link <= 1_784,
        "LinkSimulation is {link} B (3,784 B while it stored its LinkConfig and workload generator, 2,184 B while its EGPs kept write-only state, 2,112 B while it kept a reply-deadline FIFO beside its MHPs, 2,080 B while it kept two opt-in output buffers, 2,056 B while its EGPs kept a test-round QBER window, 1,816 B while its EGPs kept the OKs' picosecond clock, 1,800 B while its EGPs kept the OKs' peer ID)"
    );
    // The outbox is always on: a link nobody reads keeps one of these
    // per delivered pair, beside `LinkMetrics::ok_series`'s point.
    let output = std::mem::size_of::<LinkOutput>();
    assert!(output <= 40, "LinkOutput is {output} B");
    assert!(
        egp <= 416,
        "Egp is {egp} B (1,056 B while it stored its EgpConfig, 656 B while its queue did, 584 B while it kept write-only state, 552 B while it kept a test-round QBER window, 432 B while it kept the OKs' picosecond clock, 424 B while it kept the OKs' peer ID)"
    );
    assert!(
        dq <= 160,
        "DistributedQueue is {dq} B (248 B while it stored its parameters)"
    );
}

/// The heap a 16×16 Lab grid — 480 links on one hardware profile, no
/// workload, the repo benchmark's `grid16_sparse` — keeps once built,
/// its topology included, per edge.
#[test]
fn a_lab_grid_keeps_under_3300_bytes_per_edge() {
    let before = live_bytes();
    let root = DetRng::new(5);
    let topo = Topology::grid(16, 16, |i| {
        LinkConfig::lab(
            WorkloadSpec::none(),
            root.substream(&format!("edge/{i}")).seed(),
        )
    });
    let edges = topo.edge_count() as i64;
    let net = Network::new(topo, 5);
    let per_edge = (live_bytes() - before) / edges;
    drop(net);
    assert_eq!(edges, 480);
    assert!(
        per_edge <= 3_300,
        "Network::new keeps {per_edge} B per edge (4,653 B while every link stored its config)"
    );
}
