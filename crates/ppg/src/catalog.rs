//! The catalog of named graphs and tables.
//!
//! The formal semantics assumes a function `gr` mapping graph identifiers
//! to actual graphs (§A.2, "basic graph patterns with location"). The
//! catalog is that function, extended with named tables for the §5
//! extensions and a *default graph* (`MATCH … ON` may be omitted when a
//! default is set, as the guided tour does after its first example).
//!
//! Registration is where a graph gets what it derives: the read layout,
//! which tallies the planner statistics on their first read (see
//! [`crate::graph`]). A graph
//! loaded from a store is registered like any other, so nothing derived
//! needs storing.

use crate::graph::PathPropertyGraph;
use crate::hash::FxHashMap;
use crate::ids::IdGen;
use crate::table::Table;
use std::fmt;
use std::sync::Arc;

/// Errors raised by catalog lookups and registrations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CatalogError {
    /// `gr(gid)` is undefined.
    UnknownGraph(String),
    /// No table registered under this name.
    UnknownTable(String),
    /// `MATCH` without `ON` but no default graph configured.
    NoDefaultGraph,
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownGraph(g) => write!(f, "unknown graph '{g}'"),
            CatalogError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            CatalogError::NoDefaultGraph => {
                write!(f, "MATCH has no ON clause and no default graph is set")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// Named graphs + named tables + default graph + the engine-wide
/// identifier generator.
///
/// Graphs are held behind `Arc` so that query evaluation can hold cheap
/// handles while views register new graphs.
#[derive(Clone)]
pub struct Catalog {
    graphs: FxHashMap<String, Arc<PathPropertyGraph>>,
    tables: FxHashMap<String, Arc<Table>>,
    default_graph: Option<String>,
    ids: IdGen,
}

impl Catalog {
    /// Empty catalog with a fresh identifier generator.
    pub fn new() -> Self {
        Catalog {
            graphs: FxHashMap::default(),
            tables: FxHashMap::default(),
            default_graph: None,
            ids: IdGen::new(),
        }
    }

    /// The engine-wide identifier generator. All graphs registered in one
    /// catalog should draw identifiers from it so identities stay unique.
    pub fn ids(&self) -> &IdGen {
        &self.ids
    }

    /// Register (or replace) a named graph. The graph's identifier space
    /// is reserved in the shared generator.
    pub fn register_graph(&mut self, name: impl Into<String>, mut graph: PathPropertyGraph) {
        let max_id = graph
            .node_ids()
            .map(|n| n.raw())
            .chain(graph.edge_ids().map(|e| e.raw()))
            .chain(graph.path_ids().map(|p| p.raw()))
            .max()
            .unwrap_or(0);
        self.ids.reserve_up_to(max_id);
        // Every graph entering the catalog — builder output, CONSTRUCT
        // result, GRAPH VIEW, a graph loaded from a store — gets the read
        // layout (the slot table, a CSR per edge label, label groups), so
        // later queries over it match and search without hashing per
        // step, and with it the planner statistics, tallied when first
        // read, so they plan from real cardinalities.
        if !graph.has_label_index() {
            graph.build_label_index();
        }
        self.graphs.insert(name.into(), Arc::new(graph));
    }

    /// `gr(gid)`.
    pub fn graph(&self, name: &str) -> Result<Arc<PathPropertyGraph>, CatalogError> {
        self.graphs
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownGraph(name.to_owned()))
    }

    /// Is a graph with this name registered?
    pub fn has_graph(&self, name: &str) -> bool {
        self.graphs.contains_key(name)
    }

    /// Is this exact `Arc` handle (pointer identity, not content) one of
    /// the registered graphs? Lets a snapshot keep answers only over
    /// catalog-resident graphs — query-local graphs (subquery results,
    /// tables viewed as graphs) are transient and must not be pinned by
    /// a long-lived snapshot.
    pub fn contains_graph_handle(&self, graph: &Arc<PathPropertyGraph>) -> bool {
        self.graphs.values().any(|g| Arc::ptr_eq(g, graph))
    }

    /// Remove a graph (used to drop query-local `GRAPH … AS` views).
    pub fn unregister_graph(&mut self, name: &str) -> Option<Arc<PathPropertyGraph>> {
        self.graphs.remove(name)
    }

    /// Set the graph used when `MATCH` has no `ON` clause.
    pub fn set_default_graph(&mut self, name: impl Into<String>) {
        self.default_graph = Some(name.into());
    }

    /// The default graph, if any.
    pub fn default_graph(&self) -> Result<Arc<PathPropertyGraph>, CatalogError> {
        let name = self
            .default_graph
            .as_deref()
            .ok_or(CatalogError::NoDefaultGraph)?;
        self.graph(name)
    }

    /// Name of the default graph, if set.
    pub fn default_graph_name(&self) -> Option<&str> {
        self.default_graph.as_deref()
    }

    /// Register a named table (for `FROM` / `MATCH … ON <table>`).
    pub fn register_table(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), Arc::new(table));
    }

    /// Look up a named table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>, CatalogError> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownTable(name.to_owned()))
    }

    /// Is a table with this name registered?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Sorted names of all registered graphs.
    pub fn graph_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.graphs.keys().cloned().collect();
        v.sort();
        v
    }

    /// Sorted names of all registered tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Catalog")
            .field("graphs", &self.graph_names())
            .field("tables", &self.table_names())
            .field("default_graph", &self.default_graph)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Attributes;
    use crate::ids::NodeId;

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        let mut g = PathPropertyGraph::new();
        g.add_node(NodeId(7), Attributes::new());
        c.register_graph("g", g);
        assert!(c.has_graph("g"));
        assert_eq!(c.graph("g").unwrap().node_count(), 1);
        assert!(matches!(
            c.graph("nope"),
            Err(CatalogError::UnknownGraph(_))
        ));
    }

    #[test]
    fn default_graph() {
        let mut c = Catalog::new();
        assert!(matches!(
            c.default_graph(),
            Err(CatalogError::NoDefaultGraph)
        ));
        c.register_graph("g", PathPropertyGraph::new());
        c.set_default_graph("g");
        assert!(c.default_graph().is_ok());
        assert_eq!(c.default_graph_name(), Some("g"));
    }

    #[test]
    fn registering_reserves_identifier_space() {
        let mut c = Catalog::new();
        let mut g = PathPropertyGraph::new();
        g.add_node(NodeId(500), Attributes::new());
        c.register_graph("g", g);
        assert!(c.ids().node().raw() > 500);
    }

    #[test]
    fn tables() {
        let mut c = Catalog::new();
        let t = Table::new(vec!["a"]).unwrap();
        c.register_table("orders", t);
        assert!(c.has_table("orders"));
        assert!(c.table("orders").is_ok());
        assert!(matches!(c.table("x"), Err(CatalogError::UnknownTable(_))));
    }

    #[test]
    fn names_sorted() {
        let mut c = Catalog::new();
        c.register_graph("zeta", PathPropertyGraph::new());
        c.register_graph("alpha", PathPropertyGraph::new());
        assert_eq!(c.graph_names(), vec!["alpha", "zeta"]);
    }
}
