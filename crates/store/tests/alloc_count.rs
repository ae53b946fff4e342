//! Counted work: how many heap allocations the graph codec makes.
//!
//! The writer resolves each distinct symbol once and fills the file
//! through reused scratch buffers, so `encode_graph` allocates a small
//! number of times whatever the graph's size; the reader allocates at
//! most what the decoded graph itself holds.
//!
//! A counting `#[global_allocator]` tallies allocations made by the
//! calling thread only (a thread-local counter), so tests running in
//! parallel in this binary never pollute each other's counts. Counts,
//! not timings: they repeat exactly from run to run.

use gcore_snb::{generate_standalone, SnbConfig};
use gcore_store::{decode_graph, encode_graph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the allocations (fresh blocks and
/// reallocations) it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn elements(g: &gcore_ppg::PathPropertyGraph) -> usize {
    g.node_count() + g.edge_count() + g.path_count()
}

#[test]
fn encode_allocations_do_not_grow_with_the_graph() {
    let mut counts = Vec::new();
    for persons in [100, 200, 400] {
        let g = generate_standalone(&SnbConfig::scale(persons)).graph;
        // Warm up: the first call interns nothing, but keep lazily
        // initialized state out of the measured call all the same.
        encode_graph(&g).expect("encodes");
        let (_, n) = counted(|| encode_graph(&g).expect("encodes"));
        println!(
            "encode_graph SNB-{persons}: {n} allocations for {} elements",
            elements(&g)
        );
        counts.push(n);
    }
    for &n in &counts {
        assert!(n <= 100, "encode_graph allocated {n} times: {counts:?}");
    }
    let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
    assert!(
        spread <= 8,
        "encode_graph allocations grow with the graph: {counts:?}"
    );
}

#[test]
fn decode_allocates_at_most_one_and_a_half_times_per_element() {
    let g = generate_standalone(&SnbConfig::scale(200)).graph;
    let bytes = encode_graph(&g).expect("encodes");
    decode_graph(&bytes).expect("decodes");
    let (back, n) = counted(|| decode_graph(&bytes).expect("decodes"));
    assert_eq!(back, g);
    let per_element = n as f64 / elements(&g) as f64;
    println!(
        "decode_graph SNB-200: {n} allocations for {} elements ({per_element:.2} each)",
        elements(&g)
    );
    assert!(
        per_element <= 1.5,
        "decode_graph allocated {n} times for {} elements ({per_element:.2} each)",
        elements(&g)
    );
}
