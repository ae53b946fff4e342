//! The CONSTRUCT clause — §A.3 of the paper.
//!
//! A full construct is a comma-separated list of basic constructs; each
//! basic construct is either a graph name (shorthand for a graph union,
//! §3) or a pattern of object constructs. Every object construct carries
//! a grouping set Γ:
//!
//! * a **bound** variable groups by its identity (Γ = {x}) and re-uses it
//!   — the result graph *shares* elements with the input;
//! * an **unbound** variable with `GROUP e₁, e₂, …` groups by those
//!   expression values and mints one fresh element per group via the
//!   skolem function `new(x, Ω′(Γ))`;
//! * an unbound variable without `GROUP` defaults to one element per
//!   binding (Γ = all match variables).
//!
//! Edges group by the combination of their endpoint groups (Γz ⊇ Γx ∪ Γy
//! ∪ {x, y}); the skolem map is shared across the whole CONSTRUCT so a
//! variable occurring in several patterns denotes the same new elements.
//!
//! `WHEN` filters *per constructed group* (the reading required by the
//! paper's `wagnerFriend` example, where `WHEN e.score > 0` inspects the
//! aggregate just computed for each new edge); when the condition does
//! not depend on any group this degenerates to the all-or-nothing
//! semantics of the formalism. Dangling edges are impossible: an edge or
//! path whose endpoint group was filtered away is dropped with it.
//!
//! Cost is linear in binding rows plus constructed elements, and nothing
//! is allocated per group: rows are partitioned by their *encoded* cells
//! into one key array and one offset-indexed row array (`Groups`), the
//! groups (not the rows) are ordered, the staging lists are reserved for
//! them, and each group yields one element. The elements are inserted
//! once every pattern is staged, the nodes and the edges sorted by
//! identifier so that each appends to the graph's node or edge store.
//! Only a CONSTRUCT with a `WHEN` keeps each group's element and rows
//! for the WHEN pass; without one nothing is recorded per group.

use crate::binding::{BindingTable, Bound, Column};
use crate::context::{EvalCtx, FreshPath};
use crate::error::{Result, RuntimeError, SemanticError};
use crate::expr::{Compiled, Compiler, Env, Group, Rv};
use gcore_parser::ast::{
    ConstructClause, ConstructConnection, ConstructItem, ConstructPattern, Direction, Expr, Ident,
    PropAssign, RemoveItem, SetItem,
};
use gcore_ppg::hash::{FxHashMap, FxHashSet, FxHasher};
use gcore_ppg::{
    Attributes, EdgeId, ElementId, IdGen, Key, Label, NodeId, PathId, PathPropertyGraph, PathShape,
    PropertySet,
};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Groups
// ---------------------------------------------------------------------

/// The groups of one object construct with their contributing rows.
///
/// A key is `width` words: the encoded cells ([`BindingTable::code`]) of
/// the grouping columns — for an edge preceded by its endpoint
/// identifiers; a `GROUP e₁, …` part is the ordinal of the row's
/// expression group ([`expr_ordinals`]). Equal keys are equal groups.
/// Keys and rows live in two flat arrays, not in one allocation per
/// group.
struct Groups {
    width: usize,
    /// Group `g`'s key: `keys[g * width..(g + 1) * width]`.
    keys: Vec<u64>,
    /// Group `g`'s rows (ascending): `rows[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    rows: Vec<usize>,
    /// The groups in [`Rv::total_cmp`] order of the values their keys
    /// stand for — the order elements are staged and skolem identifiers
    /// minted in.
    order: Vec<usize>,
}

impl Groups {
    fn len(&self) -> usize {
        self.order.len()
    }

    /// Every group's key and rows, in order.
    fn iter(&self) -> impl Iterator<Item = (&[u64], &[usize])> {
        self.order.iter().map(|&g| {
            let key = &self.keys[g * self.width..][..self.width];
            (key, &self.rows[self.starts[g]..self.starts[g + 1]])
        })
    }
}

/// Partition the binding rows by the `width`-word key `key` writes
/// (`false`: the row contributes nothing), then order the groups —
/// thousands — rather than the rows — hundreds of thousands. A key is
/// looked up by its hash, chaining the groups that share one, so a row
/// of a known group allocates nothing.
fn group_rows(
    ctx: &EvalCtx,
    bindings: &BindingTable,
    width: usize,
    mut key: impl FnMut(usize, &mut Vec<u64>) -> bool,
) -> Result<Groups> {
    const NONE: usize = usize::MAX;
    let mut keys: Vec<u64> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    // The last group seen with each key hash, and each group's
    // predecessor with the same hash.
    let mut by_hash: FxHashMap<u64, usize> = FxHashMap::default();
    let mut same_hash: Vec<usize> = Vec::new();
    let mut group_of: Vec<usize> = vec![NONE; bindings.len()];
    let mut buf: Vec<u64> = Vec::with_capacity(width);
    let mut tick = 0u32;
    for (ri, group) in group_of.iter_mut().enumerate() {
        ctx.options.cancel.checkpoint(&mut tick)?;
        buf.clear();
        if !key(ri, &mut buf) {
            continue;
        }
        debug_assert_eq!(buf.len(), width);
        let mut hasher = FxHasher::default();
        for &w in &buf {
            hasher.write_u64(w);
        }
        let hash = hasher.finish();
        let mut g = by_hash.get(&hash).copied().unwrap_or(NONE);
        while g != NONE && keys[g * width..][..width] != buf[..] {
            g = same_hash[g];
        }
        if g == NONE {
            g = counts.len();
            keys.extend_from_slice(&buf);
            counts.push(0);
            same_hash.push(by_hash.insert(hash, g).unwrap_or(NONE));
        }
        counts[g] += 1;
        *group = g;
    }

    // Rows by group, ascending within each: offsets from the counts,
    // then one pass over the rows.
    let groups = counts.len();
    let mut starts: Vec<usize> = Vec::with_capacity(groups + 1);
    starts.push(0);
    for (g, count) in counts.iter().enumerate() {
        starts.push(starts[g] + count);
    }
    counts.copy_from_slice(&starts[..groups]);
    let mut rows: Vec<usize> = vec![0; starts[groups]];
    for (ri, &g) in group_of.iter().enumerate() {
        if g != NONE {
            rows[counts[g]] = ri;
            counts[g] += 1;
        }
    }
    let cmp = bindings.rv_key_order();
    let key_of = |g: usize| &keys[g * width..][..width];
    let mut order: Vec<usize> = (0..groups).collect();
    order.sort_unstable_by(|&a, &b| cmp(key_of(a), key_of(b)));
    Ok(Groups {
        width,
        keys,
        starts,
        rows,
        order,
    })
}

/// The groups of a `GROUP e₁, …` / `GROUP BY e₁, …` partition: the
/// expression values of each group with its rows (ascending).
type ExprGroups = Vec<(Vec<Rv<'static>>, Vec<usize>)>;

/// Partition `table`'s rows by the values of `exprs`: `(key, rows)` per
/// group, rows ascending, groups in [`Rv::total_cmp`] order of their
/// keys. SELECT's `GROUP BY` and CONSTRUCT's `GROUP` both partition
/// with it. Also returns the columns `exprs` read through their
/// variables, in first-read order: the columns the grouping fixes, which
/// tell `COUNT(*)` the OPTIONAL padding rows of a group apart.
pub(crate) fn group_by_exprs(
    ctx: &EvalCtx,
    table: &BindingTable,
    exprs: &[Expr],
    outer: Option<&Env<'_>>,
) -> Result<(ExprGroups, Vec<usize>)> {
    // Keys are all `exprs.len()` long: lexicographic, first difference.
    let cmp = |a: &[Rv<'_>], b: &[Rv<'_>]| {
        let mut pairs = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
        pairs
            .find(|c| c.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    let mut compiler = Compiler::new(table, outer);
    let compiled: Vec<Compiled<'_>> = exprs.iter().map(|e| compiler.compile(e)).collect();
    let mut keyed: Vec<(Vec<Rv<'static>>, usize)> = Vec::with_capacity(table.len());
    let mut tick = 0u32;
    for ri in 0..table.len() {
        ctx.options.cancel.checkpoint(&mut tick)?;
        let mut env = Env::new(table, ri);
        env.parent = outer;
        let key = compiled.iter().map(|e| Ok(e.eval(ctx, &env)?.into_owned()));
        keyed.push((key.collect::<Result<_>>()?, ri));
    }
    keyed.sort_by(|a, b| cmp(&a.0, &b.0)); // stable: rows stay ascending
    let mut groups: ExprGroups = Vec::new();
    for (key, ri) in keyed {
        match groups.last_mut() {
            Some((last, rows)) if cmp(last, &key).is_eq() => rows.push(ri),
            _ => groups.push((key, vec![ri])),
        }
    }
    let mut cols: Vec<usize> = Vec::new();
    for e in exprs {
        e.walk(&mut |x| {
            let Expr::Var(v) = x else { return };
            if let Some(i) = table.column_index(v).filter(|i| !cols.contains(i)) {
                cols.push(i);
            }
        });
    }
    Ok((groups, cols))
}

// ---------------------------------------------------------------------
// Staged elements
// ---------------------------------------------------------------------

/// One group of one construct pattern, kept after its element is staged
/// when the CONSTRUCT has a `WHEN`: everything the WHEN pass reads.
struct Staged {
    /// Index of the construct pattern that staged the group.
    pattern: usize,
    /// The construct variable the element is visible as in a WHEN
    /// condition (a [`Skolem`] token) with its binding; `None` for
    /// elements MATCH bound — their variable is a binding-table column.
    var: Option<(usize, Bound)>,
    /// What the group produced: one node or one edge; for a path its
    /// projected members and then the stored path object, if any.
    elems: Vec<ElementId>,
    /// The binding rows that fed the group.
    rows: Vec<usize>,
}

/// Everything a CONSTRUCT produces before WHEN filtering.
struct Staging {
    /// The staged graph, once every pattern is staged
    /// ([`Staging::insert`]).
    graph: PathPropertyGraph,
    /// The nodes staged so far, in staging order.
    nodes: Vec<StagedNode>,
    /// The edges staged so far, in staging order.
    edges: Vec<StagedEdge>,
    /// The graphs staged nodes and edges copy their attributes from.
    sources: Vec<Arc<PathPropertyGraph>>,
    /// The stored paths staged so far: identifier, walk, attributes.
    paths: Vec<(PathId, PathShape, Attributes)>,
    /// Does a `WHEN` read the groups? Without one none is kept.
    when: bool,
    groups: Vec<Staged>,
    /// Index of the pattern being staged.
    pattern: usize,
}

/// A node staged for the graph.
enum StagedNode {
    /// A node with the attributes computed for it.
    Own(NodeId, Attributes),
    /// A node as it is in a graph it was bound or found in (an index
    /// into [`Staging::sources`]): looked up there, and its attributes
    /// copied only if it is new to the staged graph, when the nodes are
    /// inserted.
    Of(NodeId, usize),
}

/// An edge staged for the graph.
enum StagedEdge {
    /// An edge with the endpoints and attributes computed for it.
    Own(EdgeId, NodeId, NodeId, Attributes),
    /// An edge as it is in a graph a path was found in (an index into
    /// [`Staging::sources`]): looked up there, and its attributes copied
    /// only if it is new to the staged graph, when the edges are
    /// inserted.
    Of(EdgeId, usize),
}

impl StagedEdge {
    fn id(&self) -> EdgeId {
        match self {
            StagedEdge::Own(id, ..) | StagedEdge::Of(id, _) => *id,
        }
    }
}

/// The staging indexes of `ids` sorted by (id, staging index) — the
/// pairs are sorted, not the staged elements themselves — and how many
/// distinct ids there are.
fn id_order<I: Ord + Copy>(ids: impl Iterator<Item = I>) -> (Vec<(I, usize)>, usize) {
    let mut order: Vec<(I, usize)> = ids.zip(0..).collect();
    order.sort_unstable();
    let distinct = order.windows(2).filter(|w| w[0].0 != w[1].0).count();
    let distinct = distinct + usize::from(!order.is_empty());
    (order, distinct)
}

impl Staging {
    /// Insert the staged nodes, then the staged edges, then the stored
    /// paths over them, each sort in ascending id, so each one appends to
    /// its store (an element staged twice merges, in staging order; a
    /// node or edge repeated from the same source adds nothing and is
    /// skipped).
    fn insert(&mut self) -> Result<()> {
        let mut nodes = std::mem::take(&mut self.nodes);
        let mut edges = std::mem::take(&mut self.edges);
        let node_id = |n: &StagedNode| match n {
            StagedNode::Own(id, _) | StagedNode::Of(id, _) => *id,
        };
        let (node_order, distinct_nodes) = id_order(nodes.iter().map(node_id));
        let (order, distinct) = id_order(edges.iter().map(StagedEdge::id));
        self.graph
            .reserve(distinct_nodes, distinct, self.paths.len());
        let (none, mut last) = (Attributes::new(), None);
        for (id, i) in node_order {
            match &mut nodes[i] {
                StagedNode::Own(_, attrs) => {
                    last = None;
                    self.graph.add_node(id, std::mem::take(attrs));
                }
                StagedNode::Of(_, source) if last == Some((id, *source)) => {}
                StagedNode::Of(_, source) => {
                    last = Some((id, *source));
                    let n = self.sources[*source].node(id);
                    self.graph.add_node_ref(id, n.map_or(&none, |n| &n.attrs));
                }
            }
        }
        let mut last = None;
        for (id, i) in order {
            match &mut edges[i] {
                StagedEdge::Own(_, src, dst, attrs) => {
                    last = None;
                    self.graph.add_edge(id, *src, *dst, std::mem::take(attrs))?;
                }
                StagedEdge::Of(_, source) if last == Some((id, *source)) => {}
                StagedEdge::Of(_, source) => {
                    last = Some((id, *source));
                    if let Some(e) = self.sources[*source].edge(id) {
                        self.graph.add_edge_ref(id, e.src, e.dst, &e.attrs)?;
                    }
                }
            }
        }
        // Sorted stably: a path staged twice merges in staging order.
        let mut paths = std::mem::take(&mut self.paths);
        paths.sort_by_key(|&(id, ..)| id);
        for (id, shape, attrs) in paths {
            self.graph.add_path(id, shape, attrs)?;
        }
        Ok(())
    }

    /// The [`sources`](Self::sources) index of `graph`, added when it is
    /// not the last one.
    fn source(&mut self, graph: &Arc<PathPropertyGraph>) -> usize {
        if !self.sources.last().is_some_and(|g| Arc::ptr_eq(g, graph)) {
            self.sources.push(graph.clone());
        }
        self.sources.len() - 1
    }

    fn keep(&mut self, var: Option<(usize, Bound)>, elems: &[ElementId], rows: &[usize]) {
        if self.when {
            self.groups.push(Staged {
                pattern: self.pattern,
                var,
                elems: elems.to_vec(),
                rows: rows.to_vec(),
            });
        }
    }
}

/// Shared skolem state: `new(x, Ω′(Γ))` must return the same identifier
/// for the same variable and group across all patterns of one CONSTRUCT.
/// Variables are interned to token indexes, so a lookup hashes a
/// `(usize, key)` — no string. An anonymous variable cannot occur twice
/// and its groups have distinct keys: it mints straight from the
/// generator, in the same order, without the map.
struct Skolem {
    ids: IdGen,
    tokens: Vec<String>,
    nodes: FxHashMap<(usize, Vec<u64>), NodeId>,
    edges: FxHashMap<(usize, Vec<u64>), EdgeId>,
    paths: FxHashMap<(usize, Vec<u64>), PathId>,
}

impl Skolem {
    fn token(&mut self, name: &str) -> usize {
        let known = self.tokens.iter().position(|t| t == name);
        known.unwrap_or_else(|| {
            self.tokens.push(name.to_owned());
            self.tokens.len() - 1
        })
    }

    fn node(&mut self, token: usize, named: bool, key: &[u64]) -> NodeId {
        if !named {
            return self.ids.node();
        }
        let ids = &self.ids;
        let entry = self.nodes.entry((token, key.to_vec()));
        *entry.or_insert_with(|| ids.node())
    }

    fn edge(&mut self, token: usize, named: bool, key: &[u64]) -> EdgeId {
        if !named {
            return self.ids.edge();
        }
        let ids = &self.ids;
        let entry = self.edges.entry((token, key.to_vec()));
        *entry.or_insert_with(|| ids.edge())
    }

    fn path(&mut self, token: usize, key: &[u64]) -> PathId {
        let ids = &self.ids;
        let entry = self.paths.entry((token, key.to_vec()));
        *entry.or_insert_with(|| ids.path())
    }
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Evaluate a CONSTRUCT clause over the bindings produced by MATCH,
/// returning the new graph (§A.3).
pub(crate) fn eval_construct(
    ctx: &EvalCtx,
    construct: &ConstructClause,
    bindings: &BindingTable,
    outer: Option<&Env<'_>>,
) -> Result<PathPropertyGraph> {
    let mut skolem = Skolem {
        ids: ctx.catalog.borrow().ids().clone(),
        tokens: Vec::new(),
        nodes: FxHashMap::default(),
        edges: FxHashMap::default(),
        paths: FxHashMap::default(),
    };
    let when = |item: &ConstructItem| matches!(item, ConstructItem::Pattern(p) if p.when.is_some());
    let mut staging = Staging {
        graph: PathPropertyGraph::new(),
        nodes: Vec::new(),
        edges: Vec::new(),
        sources: Vec::new(),
        paths: Vec::new(),
        when: construct.items.iter().any(when),
        groups: Vec::new(),
        pattern: 0,
    };
    let mut union_graphs: Vec<Arc<PathPropertyGraph>> = Vec::new();
    let mut whens: Vec<(usize, &Expr)> = Vec::new();
    let mut anon = 0usize;

    // A variable's explicit GROUP applies to *every* occurrence of that
    // variable across the CONSTRUCT ("unbound variables … occur multiple
    // times in the construct patterns, in order to ensure that the same
    // identities will be used").
    let group_overrides = collect_group_overrides(construct);

    for item in &construct.items {
        match item {
            ConstructItem::GraphName(name) => {
                union_graphs.push(ctx.graph(name)?);
            }
            ConstructItem::Pattern(pat) => {
                stage_pattern(
                    ctx,
                    pat,
                    bindings,
                    outer,
                    &mut skolem,
                    &mut staging,
                    &mut anon,
                    &group_overrides,
                )?;
                if let Some(w) = &pat.when {
                    whens.push((staging.pattern, w));
                }
                staging.pattern += 1;
            }
        }
    }

    staging.insert()?;

    let dead = if whens.is_empty() {
        FxHashSet::default()
    } else {
        // The WHEN pass reads the staged graph through the construct
        // variables' columns: lend it to them, then take it back.
        let staged = Arc::new(std::mem::take(&mut staging.graph));
        let dead = when_pass(
            ctx,
            &whens,
            &staging,
            &staged,
            &skolem.tokens,
            bindings,
            outer,
        );
        staging.graph = Arc::try_unwrap(staged).unwrap_or_else(|g| (*g).clone());
        dead?
    };
    let mut out = if dead.is_empty() {
        staging.graph
    } else {
        rebuild_without(&staging.graph, &dead)
    };

    // Union in the named graphs (§3 shorthand for `… UNION social_graph`).
    for g in union_graphs {
        out = gcore_ppg::ops::union(&out, &g);
    }
    Ok(out)
}

/// Gather the explicit GROUP clause of every named construct variable.
/// The analyzer (E007) has rejected two different GROUPs on one
/// variable, so the first occurrence's is every occurrence's.
fn collect_group_overrides(construct: &ConstructClause) -> BTreeMap<String, Vec<Expr>> {
    let mut map: BTreeMap<String, Vec<Expr>> = BTreeMap::new();
    let mut add = |var: &Option<Ident>, group: &Option<Vec<Expr>>| {
        if let (Some(v), Some(g)) = (var, group) {
            map.entry(v.text.clone()).or_insert_with(|| g.clone());
        }
    };
    for item in &construct.items {
        let ConstructItem::Pattern(pat) = item else {
            continue;
        };
        add(&pat.start.var, &pat.start.group);
        for step in &pat.steps {
            add(&step.node.var, &step.node.group);
            if let ConstructConnection::Edge(e) = &step.connection {
                add(&e.var, &e.group);
            }
        }
    }
    map
}

// ---------------------------------------------------------------------
// WHEN
// ---------------------------------------------------------------------

/// The elements the WHEN conditions filter away. An element of a
/// filtered pattern survives iff its condition is truthy for at least
/// one row of the groups that fed it — every group of the CONSTRUCT
/// that produced it, so a walk member shared by several stored paths
/// lives as long as one of them does. Conditions see the construct
/// variables bound against the staged graph; aggregates in them fold
/// over the element's feeding rows, each row once however many of those
/// groups it fed.
fn when_pass(
    ctx: &EvalCtx,
    whens: &[(usize, &Expr)],
    staging: &Staging,
    staged: &Arc<PathPropertyGraph>,
    tokens: &[String],
    bindings: &BindingTable,
    outer: Option<&Env<'_>>,
) -> Result<FxHashSet<ElementId>> {
    let ext = extended_table(bindings, staging, staged, tokens);
    let mut fed_by: FxHashMap<ElementId, Vec<usize>> = FxHashMap::default();
    for (gi, group) in staging.groups.iter().enumerate() {
        for elem in &group.elems {
            fed_by.entry(*elem).or_default().push(gi);
        }
    }
    let mut dead: FxHashSet<ElementId> = FxHashSet::default();
    let mut tick = 0u32;
    for &(pattern, cond) in whens {
        let cond = Compiler::new(&ext, outer).compile(cond);
        let mut seen: FxHashSet<ElementId> = FxHashSet::default();
        let of_pattern = staging.groups.iter().filter(|g| g.pattern == pattern);
        for elem in of_pattern.flat_map(|g| &g.elems) {
            if !seen.insert(*elem) {
                continue;
            }
            let feeding = fed_by[elem].iter().flat_map(|&gi| &staging.groups[gi].rows);
            let mut rows: Vec<usize> = feeding.copied().collect();
            rows.sort_unstable();
            rows.dedup();
            let group = Group::new(&rows, &[]);
            let mut alive = false;
            for &ri in &rows {
                ctx.options.cancel.checkpoint(&mut tick)?;
                let env = Env {
                    table: &ext,
                    row: ri,
                    parent: outer,
                    group: Some(&group),
                };
                if cond.test(ctx, &env)? {
                    alive = true;
                    break;
                }
            }
            if !alive {
                dead.insert(*elem);
            }
        }
    }
    Ok(dead)
}

/// The binding table extended with one column per construct variable
/// (built column-wise from the staged groups), resolving against the
/// staged graph so `e.score` sees the freshly computed property. Row
/// indexes stay those of `bindings`.
fn extended_table(
    bindings: &BindingTable,
    staging: &Staging,
    staged: &Arc<PathPropertyGraph>,
    tokens: &[String],
) -> BindingTable {
    let mut cells: Vec<Option<Vec<Bound>>> = vec![None; tokens.len()];
    for group in &staging.groups {
        let Some((token, bound)) = &group.var else {
            continue;
        };
        let column = cells[*token].get_or_insert_with(|| vec![Bound::Missing; bindings.len()]);
        for &ri in &group.rows {
            column[ri] = bound.clone();
        }
    }
    let column = |var: &String| Column {
        var: var.clone(),
        graph: staged.clone(),
    };
    let named = tokens.iter().zip(cells);
    let extra = named.filter_map(|(var, cells)| Some((column(var), cells?)));
    bindings.with_columns(extra.collect())
}

/// The staged graph without the dead elements and without anything left
/// dangling by them: an edge missing an endpoint, a path missing a
/// member.
fn rebuild_without(g: &PathPropertyGraph, dead: &FxHashSet<ElementId>) -> PathPropertyGraph {
    let mut out = PathPropertyGraph::new();
    for (id, n) in g.nodes() {
        if !dead.contains(&ElementId::Node(id)) {
            out.add_node_ref(id, &n.attrs);
        }
    }
    for (id, e) in g.edges() {
        if !dead.contains(&ElementId::Edge(id))
            && out.contains_node(e.src)
            && out.contains_node(e.dst)
        {
            out.add_edge_ref(id, e.src, e.dst, &e.attrs)
                .expect("endpoints staged");
        }
    }
    for (id, p) in g.paths() {
        if !dead.contains(&ElementId::Path(id))
            && p.shape.nodes().iter().all(|n| out.contains_node(*n))
            && p.shape.edges().iter().all(|e| out.contains_edge(*e))
        {
            out.add_path_ref(id, &p.shape, &p.attrs)
                .expect("members staged");
        }
    }
    out
}

// ---------------------------------------------------------------------
// Pattern staging
// ---------------------------------------------------------------------

/// What a node or edge construct says about its element's attributes,
/// with the pattern's trailing SET / REMOVE items on its variable folded
/// in (applied in this order). Labels and keys are interned once here,
/// not once per group.
struct Template<'a> {
    /// `(=n)` and `SET x = y`.
    copies: Vec<&'a str>,
    /// `:Label` and `SET x:Label`.
    labels: Vec<Label>,
    /// `{k := v}` and `SET x.k := v`.
    assigns: Vec<Assign<'a>>,
    /// `REMOVE x:Label`.
    drop_labels: Vec<Label>,
    /// `REMOVE x.k`.
    drop_props: Vec<Key>,
}

/// One `{k := v}` assignment: the key, whether the value aggregates,
/// and the value compiled against the binding table.
type Assign<'a> = (Key, bool, Compiled<'a>);

/// `{k := v}` items followed by the pattern's `SET var.k := v` items.
fn assigns_for<'a>(
    pat: &'a ConstructPattern,
    var: Option<&str>,
    own: &'a [PropAssign],
    compiler: &mut Compiler<'_>,
) -> Vec<Assign<'a>> {
    let own = own.iter().map(|a| (a.key.as_str(), &a.value));
    let set = pat.sets.iter().filter_map(move |s| match s {
        SetItem::Prop { var: v, key, value } if var == Some(v.as_str()) => {
            Some((key.as_str(), value))
        }
        _ => None,
    });
    let assign = |(key, value): (&str, &'a Expr)| {
        (
            Key::new(key),
            value.contains_aggregate(),
            compiler.compile(value),
        )
    };
    own.chain(set).map(assign).collect()
}

impl<'a> Template<'a> {
    fn new(
        pat: &'a ConstructPattern,
        var: Option<&str>,
        copy_of: Option<&'a str>,
        labels: &[String],
        assigns: &'a [PropAssign],
        compiler: &mut Compiler<'_>,
    ) -> Self {
        let mut t = Template {
            copies: copy_of.into_iter().collect(),
            labels: labels.iter().map(|l| Label::new(l)).collect(),
            assigns: assigns_for(pat, var, assigns, compiler),
            drop_labels: Vec::new(),
            drop_props: Vec::new(),
        };
        for set in &pat.sets {
            match set {
                SetItem::Label { var: v, label } if var == Some(v.as_str()) => {
                    t.labels.push(Label::new(label))
                }
                SetItem::Copy { var: v, from } if var == Some(v.as_str()) => t.copies.push(from),
                _ => {}
            }
        }
        for rem in &pat.removes {
            match rem {
                RemoveItem::Prop { var: v, key } if var == Some(v.as_str()) => {
                    t.drop_props.push(Key::new(key))
                }
                RemoveItem::Label { var: v, label } if var == Some(v.as_str()) => {
                    t.drop_labels.push(Label::new(label))
                }
                _ => {}
            }
        }
        t
    }

    /// Does the template leave an element's attributes as they are?
    fn is_empty(&self) -> bool {
        self.copies.is_empty()
            && self.labels.is_empty()
            && self.assigns.is_empty()
            && self.drop_labels.is_empty()
            && self.drop_props.is_empty()
    }

    /// Instantiate the template for one group on top of `attrs`.
    fn apply(
        &self,
        ctx: &EvalCtx,
        attrs: &mut Attributes,
        bindings: &BindingTable,
        group: &Group<'_>,
        outer: Option<&Env<'_>>,
    ) -> Result<()> {
        for cv in &self.copies {
            union_copied_attrs(attrs, cv, bindings, group.rows)?;
        }
        for &l in &self.labels {
            attrs.labels.insert(l);
        }
        assign_props(ctx, attrs, &self.assigns, bindings, group, outer)?;
        for &l in &self.drop_labels {
            attrs.labels.remove(l);
        }
        for &k in &self.drop_props {
            attrs.set_prop(k, PropertySet::empty());
        }
        Ok(())
    }
}

/// Evaluate `{k := v}` assignments over a group and union the values
/// into `attrs`.
fn assign_props(
    ctx: &EvalCtx,
    attrs: &mut Attributes,
    assigns: &[Assign<'_>],
    bindings: &BindingTable,
    group: &Group<'_>,
    outer: Option<&Env<'_>>,
) -> Result<()> {
    for (key, aggregate, value) in assigns {
        let key = *key;
        let vs = eval_assign(ctx, bindings, group, *aggregate, value, outer)?;
        let merged = attrs.prop(key).union(&vs);
        attrs.set_prop(key, merged);
    }
    Ok(())
}

struct NodeSpec<'a> {
    token: String,
    named: Option<&'a str>,
    group: Option<&'a [Expr]>,
    template: Template<'a>,
}

#[allow(clippy::too_many_arguments)]
fn stage_pattern<'a>(
    ctx: &EvalCtx,
    pat: &'a ConstructPattern,
    bindings: &BindingTable,
    outer: Option<&Env<'_>>,
    skolem: &mut Skolem,
    staging: &mut Staging,
    anon: &mut usize,
    overrides: &'a BTreeMap<String, Vec<Expr>>,
) -> Result<()> {
    let mut token_for = |var: Option<&Ident>, kind: &str| match var {
        Some(v) => v.text.clone(),
        None => {
            *anon += 1;
            format!("#c{kind}{}", *anon - 1)
        }
    };

    // ---- collect the node constructs of the chain -------------------
    let mut compiler = Compiler::new(bindings, outer);
    let nodes = std::iter::once(&pat.start).chain(pat.steps.iter().map(|s| &s.node));
    let node_specs: Vec<NodeSpec<'_>> = nodes
        .map(|n| {
            let named = n.var.as_deref();
            let inherited = named.and_then(|v| overrides.get(v)).map(Vec::as_slice);
            let (copy_of, labels) = (n.copy_of.as_deref(), &n.labels);
            NodeSpec {
                token: token_for(n.var.as_ref(), "n"),
                named,
                group: n.group.as_deref().or(inherited),
                template: Template::new(pat, named, copy_of, labels, &n.assigns, &mut compiler),
            }
        })
        .collect();

    // ---- stage nodes -------------------------------------------------
    // node_ids[i][row] = the node this row's group produced (None = skip).
    let mut node_ids: Vec<Vec<Option<NodeId>>> = Vec::with_capacity(node_specs.len());
    let mut node_group_cols: Vec<Vec<usize>> = Vec::with_capacity(node_specs.len());
    for spec in &node_specs {
        let (ids, cols) = stage_node(ctx, spec, bindings, outer, skolem, staging)?;
        node_ids.push(ids);
        node_group_cols.push(cols);
    }

    // ---- stage connections --------------------------------------------
    for (i, step) in pat.steps.iter().enumerate() {
        match &step.connection {
            ConstructConnection::Edge(e) => {
                let var = e.var.as_deref();
                stage_edge(
                    ctx,
                    e,
                    &token_for(e.var.as_ref(), "e"),
                    &Template::new(
                        pat,
                        var,
                        e.copy_of.as_deref(),
                        &e.labels,
                        &e.assigns,
                        &mut compiler,
                    ),
                    (&node_ids[i], &node_group_cols[i]),
                    (&node_ids[i + 1], &node_group_cols[i + 1]),
                    bindings,
                    outer,
                    skolem,
                    staging,
                )?;
            }
            ConstructConnection::Path(p) => {
                let assigns = assigns_for(pat, Some(p.var.as_str()), &p.assigns, &mut compiler);
                stage_path(ctx, p, &assigns, bindings, outer, skolem, staging)?;
            }
        }
    }
    Ok(())
}

/// Per row, the ordinal of its `GROUP e₁, …` group — ordinals follow the
/// groups' [`Rv::total_cmp`] order — and whether that group's value has a
/// NULL component.
type Ordinals = Vec<(u64, bool)>;

/// The [`Ordinals`] of `exprs` over `bindings`, and the columns the
/// expressions read ([`group_by_exprs`]).
fn expr_ordinals(
    ctx: &EvalCtx,
    bindings: &BindingTable,
    exprs: &[Expr],
    outer: Option<&Env<'_>>,
) -> Result<(Ordinals, Vec<usize>)> {
    let (by_exprs, cols) = group_by_exprs(ctx, bindings, exprs, outer)?;
    let mut ordinals = vec![(0, false); bindings.len()];
    for (ordinal, (key, rows)) in by_exprs.iter().enumerate() {
        let null = key.iter().any(|v| matches!(v, Rv::Null));
        for &ri in rows {
            ordinals[ri] = (ordinal as u64, null);
        }
    }
    Ok((ordinals, cols))
}

/// The groups of one node construct, the binding-table columns defining
/// them, and whether the variable was bound by MATCH.
fn group_rows_for(
    ctx: &EvalCtx,
    var: Option<&str>,
    group: Option<&[Expr]>,
    bindings: &BindingTable,
    outer: Option<&Env<'_>>,
) -> Result<(Groups, Vec<usize>, bool)> {
    if let Some(ci) = var.and_then(|v| bindings.column_index(v)) {
        if group.is_some() {
            return Err(SemanticError::GroupOnBoundVariable(var.unwrap_or("?").to_owned()).into());
        }
        // Γ = {x}: group by identity; Ω′(x) undefined ⇒ G∅ for the row.
        let groups = group_rows(ctx, bindings, 1, |ri, key| {
            key.push(bindings.code(ri, ci));
            !bindings.is_missing_at(ri, ci)
        })?;
        return Ok((groups, vec![ci], true));
    }
    match group {
        Some(exprs) => {
            let (ordinals, cols) = expr_ordinals(ctx, bindings, exprs, outer)?;
            // A NULL component leaves Ω′(Γ) undefined: no element.
            let groups = group_rows(ctx, bindings, 1, |ri, key| {
                let (ordinal, null) = ordinals[ri];
                key.push(ordinal);
                !null
            })?;
            Ok((groups, cols, false))
        }
        None => {
            // Default: one element per binding (Γ = all variables).
            let width = bindings.columns().len();
            let groups = group_rows(ctx, bindings, width, |ri, key| {
                key.extend((0..width).map(|ci| bindings.code(ri, ci)));
                true
            })?;
            Ok((groups, (0..width).collect(), false))
        }
    }
}

/// Stage one node construct; returns per-row node assignment and the
/// grouping columns.
fn stage_node(
    ctx: &EvalCtx,
    spec: &NodeSpec<'_>,
    bindings: &BindingTable,
    outer: Option<&Env<'_>>,
    skolem: &mut Skolem,
    staging: &mut Staging,
) -> Result<(Vec<Option<NodeId>>, Vec<usize>)> {
    let (groups, group_cols, is_bound) =
        group_rows_for(ctx, spec.named, spec.group, bindings, outer)?;
    let token = skolem.token(&spec.token);
    let mut per_row: Vec<Option<NodeId>> = vec![None; bindings.len()];
    let mut tick = 0u32;
    staging.nodes.reserve(groups.len());

    for (key, rows) in groups.iter() {
        ctx.options.cancel.checkpoint(&mut tick)?;
        // Identity and its attributes carry over for bound variables.
        let (id, source) = if is_bound {
            let ci = group_cols[0];
            let Bound::Node(n) = bindings.bound(rows[0], ci) else {
                return Err(SemanticError::SortMismatch {
                    var: spec.named.unwrap_or("?").to_owned(),
                    expected: "node".into(),
                    found: format!("{:?}", bindings.bound(rows[0], ci)),
                }
                .into());
            };
            (n, Some(&bindings.columns()[ci].graph))
        } else {
            (skolem.node(token, spec.named.is_some(), key), None)
        };
        let template = &spec.template;
        let staged = match source {
            // A node bound several times over (an endpoint of many
            // edges, a path member) has its attributes copied once, when
            // the nodes are inserted.
            Some(graph) if template.is_empty() => StagedNode::Of(id, staging.source(graph)),
            _ => {
                let attrs = source.and_then(|g| g.attributes(id.into()));
                let mut attrs = attrs.cloned().unwrap_or_default();
                if !template.is_empty() {
                    let group = Group::new(rows, &group_cols);
                    template.apply(ctx, &mut attrs, bindings, &group, outer)?;
                }
                StagedNode::Own(id, attrs)
            }
        };
        staging.nodes.push(staged);
        for &ri in rows {
            per_row[ri] = Some(id);
        }
        let var = (!is_bound).then_some((token, Bound::Node(id)));
        staging.keep(var, &[ElementId::Node(id)], rows);
    }
    Ok((per_row, group_cols))
}

/// Union the labels/properties of a copied element (`(=n)` / `SET x = y`)
/// over the group rows into `attrs`.
fn union_copied_attrs(
    attrs: &mut Attributes,
    var: &str,
    bindings: &BindingTable,
    rows: &[usize],
) -> Result<()> {
    let Some(ci) = bindings.column_index(var) else {
        return Err(SemanticError::UnboundVariable(var.to_owned()).into());
    };
    let col = &bindings.columns()[ci];
    for &ri in rows {
        let elem: Option<ElementId> = match bindings.bound(ri, ci) {
            Bound::Node(n) => Some(n.into()),
            Bound::Edge(e) => Some(e.into()),
            Bound::Path(p) => Some(p.into()),
            _ => None,
        };
        if let Some(e) = elem {
            if let Some(a) = col.graph.attributes(e) {
                attrs.union_in_place(a);
            }
        }
    }
    Ok(())
}

/// Evaluate one `{k := expr}` assignment over a group: an expression
/// with aggregates is evaluated once, under the group's scope; a plain
/// one per row, unioning the values (footnote 2 of the paper:
/// constructing a company per Frank binding would give
/// `name = {"CWI","MIT"}`).
fn eval_assign(
    ctx: &EvalCtx,
    bindings: &BindingTable,
    group: &Group<'_>,
    aggregate: bool,
    expr: &Compiled<'_>,
    outer: Option<&Env<'_>>,
) -> Result<PropertySet> {
    if aggregate {
        let env = Env {
            table: bindings,
            row: group.rows[0],
            parent: outer,
            group: Some(group),
        };
        return rv_to_propset(expr.eval(ctx, &env)?);
    }
    let mut out = PropertySet::empty();
    for &ri in group.rows {
        let mut env = Env::new(bindings, ri);
        env.parent = outer;
        let v = expr.eval(ctx, &env)?;
        out = out.union(&rv_to_propset(v)?);
    }
    Ok(out)
}

fn rv_to_propset(rv: Rv<'_>) -> Result<PropertySet> {
    match rv {
        Rv::Null => Ok(PropertySet::empty()),
        Rv::Value(v) => Ok(PropertySet::single(v.into_owned())),
        Rv::Set(s) => Ok(s.into_owned()),
        Rv::List(items) => {
            let mut vals = Vec::with_capacity(items.len());
            for i in items {
                match i.as_scalar() {
                    Some(v) => vals.push(v.clone()),
                    None => {
                        return Err(RuntimeError::Type(
                            "cannot store a non-scalar list element as a property".into(),
                        )
                        .into())
                    }
                }
            }
            Ok(PropertySet::from_values(vals))
        }
        other => {
            Err(RuntimeError::Type(format!("cannot store {other:?} as a property value")).into())
        }
    }
}

// ---------------------------------------------------------------------
// Edge staging
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn stage_edge(
    ctx: &EvalCtx,
    e: &gcore_parser::ast::ConstructEdge,
    token: &str,
    template: &Template<'_>,
    left: (&[Option<NodeId>], &[usize]),
    right: (&[Option<NodeId>], &[usize]),
    bindings: &BindingTable,
    outer: Option<&Env<'_>>,
    skolem: &mut Skolem,
    staging: &mut Staging,
) -> Result<()> {
    // Normalize direction: `src` is where the arrow leaves from.
    let (src_ids, src_cols, dst_ids, dst_cols) = match e.direction {
        Direction::Out | Direction::Undirected => (left.0, left.1, right.0, right.1),
        Direction::In => (right.0, right.1, left.0, left.1),
    };
    let var = e.var.as_deref().unwrap_or_default();

    let bound_col = e.var.as_deref().and_then(|v| bindings.column_index(v));
    if bound_col.is_some() && e.group.is_some() {
        return Err(SemanticError::GroupOnBoundVariable(var.to_owned()).into());
    }

    // Per row, the ordinal of its GROUP-expression group.
    let (expr_group, expr_cols) = match &e.group {
        Some(exprs) => {
            let (ordinals, cols) = expr_ordinals(ctx, bindings, exprs, outer)?;
            (Some(ordinals), cols)
        }
        None => (None, Vec::new()),
    };
    // Group columns: endpoints' group columns + our own identity/group.
    let mut group_cols: Vec<usize> = src_cols.to_vec();
    for &c in dst_cols.iter().chain(&bound_col).chain(&expr_cols) {
        if !group_cols.contains(&c) {
            group_cols.push(c);
        }
    }

    // Group rows: by (src, dst, identity-or-GROUP).
    let width = 2 + usize::from(bound_col.is_some()) + usize::from(expr_group.is_some());
    let groups = group_rows(ctx, bindings, width, |ri, key| {
        let (Some(src), Some(dst)) = (src_ids[ri], dst_ids[ri]) else {
            return false; // dangling prevention
        };
        key.extend([src.raw(), dst.raw()]);
        key.extend(bound_col.map(|ci| bindings.code(ri, ci)));
        key.extend(expr_group.as_ref().map(|ordinals| ordinals[ri].0));
        !bound_col.is_some_and(|ci| bindings.is_missing_at(ri, ci))
    })?;

    let token = skolem.token(token);
    let mut tick = 0u32;
    staging.edges.reserve(groups.len());
    for (key, rows) in groups.iter() {
        ctx.options.cancel.checkpoint(&mut tick)?;
        let (src, dst) = (NodeId(key[0]), NodeId(key[1]));
        let (id, mut attrs) = match bound_col {
            Some(ci) => {
                let b = bindings.bound(rows[0], ci);
                let Bound::Edge(eid) = b else {
                    return Err(SemanticError::SortMismatch {
                        var: var.to_owned(),
                        expected: "edge".into(),
                        found: format!("{b:?}"),
                    }
                    .into());
                };
                // Identity rule (§3): a bound edge keeps its endpoints.
                let Some(original) = bindings.columns()[ci].graph.edge(eid) else {
                    return Err(SemanticError::EdgeEndpointsUnbound(var.to_owned()).into());
                };
                if (original.src, original.dst) != (src, dst) {
                    return Err(SemanticError::EdgeEndpointsChanged(var.to_owned()).into());
                }
                (eid, original.attrs.clone())
            }
            None => (skolem.edge(token, e.var.is_some(), key), Attributes::new()),
        };
        let group = Group::new(rows, &group_cols);
        template.apply(ctx, &mut attrs, bindings, &group, outer)?;

        // Endpoints are guaranteed staged by the node pass.
        staging.edges.push(StagedEdge::Own(id, src, dst, attrs));
        let var = bound_col.is_none().then_some((token, Bound::Edge(id)));
        staging.keep(var, &[ElementId::Edge(id)], rows);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Path staging
// ---------------------------------------------------------------------

fn stage_path(
    ctx: &EvalCtx,
    p: &gcore_parser::ast::ConstructPath,
    assigns: &[Assign<'_>],
    bindings: &BindingTable,
    outer: Option<&Env<'_>>,
    skolem: &mut Skolem,
    staging: &mut Staging,
) -> Result<()> {
    let Some(ci) = bindings.column_index(&p.var) else {
        return Err(SemanticError::ConstructPathUnbound(p.var.text.clone()).into());
    };
    let col_graph = bindings.columns()[ci].graph.clone();

    // Group rows by path identity.
    let groups = group_rows(ctx, bindings, 1, |ri, key| {
        key.push(bindings.code(ri, ci));
        !bindings.is_missing_at(ri, ci)
    })?;

    let token = skolem.token(&p.var);
    let labels: Vec<Label> = p.labels.iter().map(|l| Label::new(l)).collect();
    let mut tick = 0u32;
    let mut elems: Vec<ElementId> = Vec::new();
    if p.stored {
        staging.paths.reserve(groups.len());
    }
    for (key, rows) in groups.iter() {
        ctx.options.cancel.checkpoint(&mut tick)?;
        // The identity (for a stored path object), the walk or the
        // ALL-paths projection to project, and the graph the members'
        // attributes come from.
        let mut projection: (Vec<NodeId>, Vec<EdgeId>) = Default::default();
        let mut attrs = Attributes::new();
        let (id, walk, graph): (Option<PathId>, Option<PathShape>, _) =
            match bindings.bound(rows[0], ci) {
                Bound::Path(pid) => {
                    let data = col_graph.path(pid).ok_or_else(|| {
                        RuntimeError::Other(format!("stored path {pid} missing from its graph"))
                    })?;
                    if p.stored {
                        attrs = data.attrs.clone();
                    }
                    (Some(pid), Some(data.shape.clone()), col_graph.clone())
                }
                Bound::FreshPath(idx) => match ctx.fresh_path(idx) {
                    FreshPath::Walk { shape, graph, .. } => (
                        p.stored.then(|| skolem.path(token, key)),
                        Some(shape),
                        graph,
                    ),
                    FreshPath::Projection {
                        nodes,
                        edges,
                        graph,
                        ..
                    } => {
                        if p.stored {
                            return Err(SemanticError::AllPathsEscape(p.var.text.clone()).into());
                        }
                        projection = (nodes, edges);
                        (None, None, graph)
                    }
                },
                other => {
                    return Err(SemanticError::SortMismatch {
                        var: p.var.text.clone(),
                        expected: "path".into(),
                        found: format!("{other:?}"),
                    }
                    .into())
                }
            };

        // Project the members (with their attributes).
        let (nodes, edges) = match &walk {
            Some(walk) => (walk.nodes(), walk.edges()),
            None => (projection.0.as_slice(), projection.1.as_slice()),
        };
        // Members shared with earlier paths or items merge their
        // attributes without copying them when the staged elements are
        // inserted.
        let source = staging.source(&graph);
        elems.clear();
        for &n in nodes {
            if walk.is_some() || graph.contains_node(n) {
                staging.nodes.push(StagedNode::Of(n, source));
                elems.push(ElementId::Node(n));
            }
        }
        for &eid in edges {
            if walk.is_none() {
                // A projection lists its edges' endpoints only when they
                // lie on a conforming path themselves.
                let Some(edata) = graph.edge(eid) else {
                    continue;
                };
                for end in [edata.src, edata.dst] {
                    staging.nodes.push(StagedNode::Of(end, source));
                }
            }
            staging.edges.push(StagedEdge::Of(eid, source));
            elems.push(ElementId::Edge(eid));
        }

        // Stored path object (`@p`).
        if let (true, Some(pid), Some(walk)) = (p.stored, id, walk) {
            for &l in &labels {
                attrs.labels.insert(l);
            }
            let group = Group::new(rows, std::slice::from_ref(&ci));
            assign_props(ctx, &mut attrs, assigns, bindings, &group, outer)?;
            staging.paths.push((pid, walk, attrs));
            elems.push(ElementId::Path(pid));
        }
        // The path variable is a MATCH column: WHEN reads it from there.
        staging.keep(None, &elems, rows);
    }
    Ok(())
}
