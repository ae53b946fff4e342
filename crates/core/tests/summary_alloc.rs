//! Counted work: what summarizing a catalog for the name-resolution
//! lints allocates.
//!
//! `CatalogSummary::of` walks every element of every graph, but it
//! collects label and key symbols and names each distinct one once, so
//! its allocations follow the number of distinct names, not the number
//! of elements.
//!
//! Counted with the shared thread-local counting allocator
//! (`tests/support/counting_alloc.rs`): counts, not timings, so they
//! repeat exactly from run to run.

use gcore::{CatalogSummary, Engine};
use gcore_snb::{generate, SnbConfig};

include!("../../../tests/support/counting_alloc.rs");

/// The allocations of summarizing a catalog holding SNB-`persons`.
fn summary_allocations(persons: usize) -> u64 {
    let mut engine = Engine::new();
    let data = generate(&SnbConfig::scale(persons), &engine.catalog().ids().clone());
    engine.register_graph("snb", data.graph);
    let (_, cost) = counted(|| CatalogSummary::of(engine.catalog()));
    println!("SNB-{persons}: {} allocations", cost.allocations);
    cost.allocations
}

#[test]
fn the_catalog_summary_allocates_per_distinct_name_not_per_element() {
    let small = summary_allocations(250);
    let large = summary_allocations(1000);
    assert!(
        large <= small,
        "the summary's allocations grow with the elements: SNB-250 {small}, SNB-1000 {large}"
    );
}
