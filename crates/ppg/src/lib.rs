//! # gcore-ppg — the Path Property Graph data model
//!
//! This crate implements the data model of *G-CORE: A Core for Future Graph
//! Query Languages* (SIGMOD 2018), Section 2: the **Path Property Graph**
//! (PPG), a property graph extended with **stored paths as first-class
//! citizens**. Nodes, edges *and paths* have identity, labels and
//! multi-valued properties.
//!
//! Formally a PPG is `G = (N, E, P, ρ, δ, λ, σ)` — see
//! [`PathPropertyGraph`] for the mapping of each component.
//!
//! ## Quick example
//!
//! ```
//! use gcore_ppg::{Attributes, GraphBuilder};
//!
//! let mut b = GraphBuilder::standalone();
//! let ann = b.node(Attributes::labeled("Person").with_prop("name", "Ann"));
//! let bob = b.node(Attributes::labeled("Person").with_prop("name", "Bob"));
//! let knows = b.edge(ann, bob, Attributes::labeled("knows"));
//! // A stored path over existing, adjacent elements — the PPG extension.
//! let p = b.path(vec![ann, bob], vec![knows],
//!                Attributes::labeled("friendship").with_prop("trust", 0.95))
//!          .unwrap();
//! let g = b.build();
//! assert_eq!(g.path(p).unwrap().shape.length(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::len_without_is_empty)]

pub mod builder;
pub mod catalog;
mod collections;
pub mod error;
pub mod export;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod intern;
pub mod ops;
pub mod path;
pub mod property;
pub mod stats;
pub mod symbols;
pub mod table;
pub mod value;

pub use builder::GraphBuilder;
pub use catalog::{Catalog, CatalogError};
pub use error::GraphError;
pub use export::{sorted_elements, to_dot, to_text, ElementRef};
pub use graph::{Attributes, EdgeData, NodeData, PathData, PathPropertyGraph, Positions, StepDir};
pub use ids::{EdgeId, ElementId, ElementSort, IdGen, NodeId, PathId};
pub use intern::ValueInterner;
pub use path::PathShape;
pub use property::{PropertyMap, PropertySet};
pub use stats::{EdgeLabelStats, GraphStats, PropStats};
pub use symbols::{Key, Label, LabelSet};
pub use table::{Table, TableError};
pub use value::{Date, Value};
