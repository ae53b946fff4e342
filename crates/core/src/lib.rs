//! # gcore — the G-CORE query engine
//!
//! An executable implementation of the formal semantics of *G-CORE: A
//! Core for Future Graph Query Languages* (SIGMOD 2018): a **closed**
//! query language over Path Property Graphs in which **paths are
//! first-class citizens**.
//!
//! The engine implements, per the paper's appendix:
//!
//! * binding tables with the ∪ / ⋈ / ⋉ / ∖ / left-outer-join algebra
//!   (§A.1) — [`binding`];
//! * expressions over multi-valued properties, labels, paths, EXISTS
//!   subqueries and aggregates (§A.1) — [`expr`];
//! * regular path expressions compiled to NFAs, with shortest,
//!   k-shortest, weighted-shortest and ALL-paths evaluation over the
//!   graph × NFA product (§A.1, §3) — [`regex`], [`paths`];
//! * MATCH with ON locations, WHERE and OPTIONAL (§A.2) — [`matcher`],
//!   [`query`] — planned by a statistics-driven, semantics-preserving
//!   cost model (join ordering, IN pushdown, path strategies) with a
//!   stable `EXPLAIN` rendering — [`plan`];
//! * CONSTRUCT with grouping, skolemization, SET/REMOVE and WHEN (§A.3)
//!   — [`construct`];
//! * PATH views with COST (§A.4) and full-graph set operations (§A.5);
//! * GRAPH views (§A.6) and the §5 tabular extensions (SELECT, FROM) —
//!   [`select`].
//!
//! Evaluation is snapshot-isolated: writes commit through the mutable
//! [`Engine`] front and bump a snapshot epoch, while queries evaluate
//! read-only against an immutable, `Arc`-shared [`EngineSnapshot`] —
//! concurrently, via the `Send + Sync` [`QueryExecutor`] or the
//! [`Engine::run_batch_parallel`] fan-out ([`snapshot`], [`executor`]).
//! Evaluation is observable: execution profiles (`EXPLAIN ANALYZE`) and
//! a unified metrics registry live in [`obs`], guaranteed never to
//! change results.
//!
//! The entry point is [`Engine`]:
//!
//! ```
//! use gcore::Engine;
//! use gcore_ppg::{Attributes, GraphBuilder};
//!
//! let mut engine = Engine::new();
//! let mut b = GraphBuilder::new(engine.catalog().ids().clone());
//! let ann = b.node(Attributes::labeled("Person").with_prop("name", "Ann"));
//! let bob = b.node(Attributes::labeled("Person").with_prop("name", "Bob"));
//! b.edge(ann, bob, Attributes::labeled("knows"));
//! engine.register_graph("people", b.build());
//! engine.set_default_graph("people");
//!
//! // Every query returns a graph — G-CORE is closed over PPGs.
//! let g = engine.query_graph("CONSTRUCT (m) MATCH (n)-[:knows]->(m)").unwrap();
//! assert_eq!(g.node_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::len_without_is_empty)]

pub mod analyze;
pub mod baselines;
pub mod binding;
pub mod cancel;
pub mod construct;
pub mod context;
pub mod diag;
pub mod engine;
pub mod error;
pub mod executor;
pub mod expr;
pub mod matcher;
pub mod obs;
pub mod paths;
pub mod plan;
pub mod query;
pub mod regex;
pub mod select;
pub mod snapshot;

pub use analyze::{analyze_script, analyze_statement, CatalogSummary};
pub use binding::{BindingTable, Bound, Column};
pub use cancel::CancelToken;
pub use context::{EvalCtx, EvalOptions};
pub use diag::{render_all, DiagCode, Diagnostic, Severity};
pub use engine::{run_batch_on, Engine};
pub use error::{EngineError, Result, RuntimeError, SemanticError};
pub use executor::QueryExecutor;
pub use expr::{Env, Rv};
pub use obs::{CoreMetrics, MetricsRegistry, Profiler, QueryProfile};
pub use plan::{explain_statement, plan_match, MatchPlan};
pub use query::QueryOutput;
pub use snapshot::EngineSnapshot;
