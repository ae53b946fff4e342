//! The in-process oracle: a canonical digest of a statement's output,
//! computed once per distinct statement at set-up by `QueryExecutor::run`
//! and compared with every reply that comes back over the socket and
//! every catalog reopened from the store.
//!
//! The digest is invariant under what legitimately differs between two
//! evaluations of one statement: row and element order, and the raw
//! values of identifiers skolemized by CONSTRUCT (renumbered by rank
//! above the set-up watermark, the convention of the differential suites
//! in `crates/core/tests/common`). It is only ever compared inside one
//! process, so hashing interned label/key symbols by their index is safe.

use gcore::QueryOutput;
use gcore_ppg::{Attributes, PathPropertyGraph, Table};
use std::hash::{Hash, Hasher};

/// Order-independent digest of one output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest {
    /// Table rows, or graph nodes.
    pub rows: u64,
    /// Graph edges + stored paths (0 for tables).
    pub links: u64,
    /// Wrapping sum of the per-row / per-element hashes.
    pub hash: u64,
}

/// FNV-1a as a `Hasher`: fixed keys, so equal values hash equally every
/// time (the std `RandomState` would not).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Identifiers at or above the watermark are fresh; they map to
/// `watermark + rank` among the output's fresh identifiers.
struct Renumber {
    watermark: u64,
    fresh: Vec<u64>,
}

impl Renumber {
    fn new(watermark: u64, ids: impl Iterator<Item = u64>) -> Self {
        let mut fresh: Vec<u64> = ids.filter(|&r| r >= watermark).collect();
        fresh.sort_unstable();
        Renumber { watermark, fresh }
    }

    fn map(&self, raw: u64) -> u64 {
        if raw < self.watermark {
            return raw;
        }
        // An endpoint outside the output's own id set (cannot happen in
        // a valid graph) keeps its raw value and fails the comparison.
        self.fresh
            .binary_search(&raw)
            .map_or(raw, |rank| self.watermark + rank as u64)
    }
}

fn hash_attrs(h: &mut Fnv, attrs: &Attributes) {
    attrs.labels.hash(h);
    for (key, values) in &attrs.properties {
        key.hash(h);
        values.hash(h);
    }
}

/// Digest a graph; identifiers ≥ `watermark` are renumbered by rank.
pub fn digest_graph(g: &PathPropertyGraph, watermark: u64) -> Digest {
    let nodes = Renumber::new(watermark, g.node_ids().map(|n| n.raw()));
    let edges = Renumber::new(watermark, g.edge_ids().map(|e| e.raw()));
    let paths = Renumber::new(watermark, g.path_ids().map(|p| p.raw()));
    let mut sum = 0u64;
    for n in g.node_ids() {
        let mut h = Fnv::new();
        h.write_u8(b'n');
        h.write_u64(nodes.map(n.raw()));
        hash_attrs(&mut h, &g.node(n).expect("listed node").attrs);
        sum = sum.wrapping_add(h.finish());
    }
    for e in g.edge_ids() {
        let d = g.edge(e).expect("listed edge");
        let mut h = Fnv::new();
        h.write_u8(b'e');
        h.write_u64(edges.map(e.raw()));
        h.write_u64(nodes.map(d.src.raw()));
        h.write_u64(nodes.map(d.dst.raw()));
        hash_attrs(&mut h, &d.attrs);
        sum = sum.wrapping_add(h.finish());
    }
    for p in g.path_ids() {
        let d = g.path(p).expect("listed path");
        let mut h = Fnv::new();
        h.write_u8(b'p');
        h.write_u64(paths.map(p.raw()));
        for n in d.shape.nodes() {
            h.write_u64(nodes.map(n.raw()));
        }
        for e in d.shape.edges() {
            h.write_u64(edges.map(e.raw()));
        }
        hash_attrs(&mut h, &d.attrs);
        sum = sum.wrapping_add(h.finish());
    }
    Digest {
        rows: g.node_count() as u64,
        links: (g.edge_count() + g.path_count()) as u64,
        hash: sum,
    }
}

/// Digest a table: header plus an order-independent sum of row hashes.
pub fn digest_table(t: &Table) -> Digest {
    let mut header = Fnv::new();
    t.columns().hash(&mut header);
    let mut sum = header.finish();
    for row in t.rows() {
        let mut h = Fnv::new();
        row.hash(&mut h);
        sum = sum.wrapping_add(h.finish());
    }
    Digest {
        rows: t.len() as u64,
        links: 0,
        hash: sum,
    }
}

/// Digest either output sort.
pub fn digest_output(out: &QueryOutput, watermark: u64) -> Digest {
    match out {
        QueryOutput::Graph(g) => digest_graph(g, watermark),
        QueryOutput::Table(t) => digest_table(t),
    }
}
