//! # gcore-store — durable snapshot storage
//!
//! Everything the G-CORE engine evaluates lives in memory; this crate is
//! the persistence seam named in the ROADMAP. It provides four layers,
//! std-only and dependency-free:
//!
//! * **A binary graph format** ([`mod@format`]): a versioned,
//!   length-prefixed encoding of one
//!   [`PathPropertyGraph`](gcore_ppg::PathPropertyGraph) — header with
//!   magic/version/counts, the interned label/key symbol table written
//!   once, then node/edge/path sections, each integrity-checked by an
//!   FNV-1a checksum. The writer is **deterministic**: identical graphs
//!   produce byte-identical files, in any process, because symbols are
//!   written sorted by name and elements in the canonical order of
//!   [`gcore_ppg::sorted_elements`].
//! * **Wire primitives** ([`wire`]): the little-endian integer /
//!   length-prefixed string writers, the bounds-checked reader and the
//!   FNV-1a checksum that the formats here and the `gcore-serve`
//!   protocol are all built from.
//! * **Pluggable storage backends** ([`backend`]): the object-store
//!   shaped [`StorageBackend`] trait (named blobs in, named blobs out)
//!   with two implementations — [`MemBackend`] for tests and staging,
//!   and [`DirBackend`], one file per object under a root directory
//!   with atomic write-via-rename.
//! * **Catalog persistence** ([`catalog_io`]): [`save_catalog`] /
//!   [`load_catalog`] round-trip every registered graph and table plus
//!   the default-graph name through a small manifest object, so a
//!   process can restart and serve the same queries cold
//!   (`Engine::save_to` / `Engine::open_from` in `gcore` wrap these).
//!
//! ## Quick example
//!
//! ```
//! use gcore_ppg::{Attributes, Catalog, NodeId, PathPropertyGraph};
//! use gcore_store::{load_catalog, save_catalog, MemBackend};
//!
//! let mut catalog = Catalog::new();
//! let mut g = PathPropertyGraph::new();
//! g.add_node(NodeId(1), Attributes::labeled("Person").with_prop("name", "Ann"));
//! catalog.register_graph("people", g);
//! catalog.set_default_graph("people");
//!
//! let backend = MemBackend::new();
//! save_catalog(&catalog, &backend).unwrap();
//!
//! // …process restarts…
//! let reloaded = load_catalog(&backend).unwrap();
//! assert_eq!(reloaded.graph_names(), vec!["people"]);
//! assert_eq!(reloaded.default_graph_name(), Some("people"));
//! assert_eq!(reloaded.graph("people").unwrap().node_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod catalog_io;
pub mod error;
pub mod format;
pub mod wire;

pub use backend::{DirBackend, MemBackend, StorageBackend};
pub use catalog_io::{
    load_catalog, load_catalog_at_epoch, save_catalog, save_catalog_at_epoch, Manifest,
};
pub use error::StoreError;
pub use format::{
    decode_graph, decode_table, encode_graph, encode_table, FORMAT_VERSION, MAGIC, TABLE_MAGIC,
};
pub use wire::fnv1a64;
