//! Evaluation of basic graph patterns (§A.2) on one graph.
//!
//! A pattern chain `(n)-[e:knows]->(m)-/p<:r*>/->(k)` is evaluated left to
//! right in *stages*: stage 0 binds the start node, stage k + 1 runs chain
//! step k through adjacency, stored paths or product-automaton search.
//! Homomorphism semantics: no implicit disjointness between variables
//! (§3 "Match and Filter"). Candidates are enumerated in sorted
//! identifier order and every table is sorted, so the result is
//! deterministic.
//!
//! Each stage writes rows at one emission site (`Emit`): a candidate is
//! tested on a scratch row before its row is written — the label groups
//! and filter-form `{k = v}` entries of the connection and the far end,
//! and the *scan filters* on either, the WHERE conjuncts the plan gave
//! this pattern ([`ScanFilter`]), evaluated nowhere else. Only
//! binding-form entries and filter entries reading a variable the stage
//! binds run on the candidate's row. A stage writes only the columns
//! something after it reads (`Chain`). A pattern whose start variable
//! an earlier pattern bound is *seeded* from those identifiers.

use crate::binding::{BindingTable, Bound, Column, RowGroups, TableBuilder};
use crate::context::{EvalCtx, FreshPath};
use crate::error::{Result, SemanticError};
use crate::expr::{Compiled, Compiler, Env, Rv};
use crate::paths::PathSearcher;
use crate::plan::{first_label, pure_reach, PlanStep, Reads, ScanFilter};
use crate::regex::{conforms, Nfa};
use gcore_parser::ast::{
    Connection, Direction, EdgePattern, Expr, Ident, LabelDisjunction, NodePattern, PathMode,
    PathPattern, Pattern, PropEntry,
};
use gcore_ppg::hash::{FxHashMap, FxHashSet};
use gcore_ppg::{ElementId, Key, Label, NodeId, PathPropertyGraph, PathShape, PropertySet};
use gcore_ppg::{StepDir, Value};
use std::sync::Arc;

/// Description of a pattern chain's columns after evaluation, used by
/// PATH-view segment extraction.
pub struct ChainInfo {
    /// Column name of each node in the chain, in order.
    pub node_vars: Vec<String>,
    /// Column name of each connection (edge or path), in order.
    pub conn_vars: Vec<String>,
}

/// One chain evaluation: its column names (`#n…`, `#e…`, `#p…` for
/// anonymous elements; '#' cannot appear in user identifiers), what
/// decides the columns each stage writes, and the outer scope.
///
/// A stage writes a column when something after it reads it: the
/// pattern's consumer (a named variable the plan step does not drop), a
/// later element of the chain, or the next stage, which steps from it.
/// So anonymous elements and dropped variables are left out as soon as no
/// later element reads them. A stage that mints fresh paths reads every
/// column before it: it mints one walk per input row.
struct Chain<'c> {
    info: ChainInfo,
    /// The named variables nothing after the pattern reads; `None` keeps
    /// every column (PATH-view chains).
    drops: Option<&'c [String]>,
    /// The last stage whose own elements read each variable.
    last_read: FxHashMap<String, usize>,
    /// Every stage before this one writes every column.
    barrier: usize,
    /// The pattern's structural variables: a `{k = v}` entry whose `v` is
    /// one of them filters; one binding nothing else binds binds `v`.
    structural: Vec<&'c str>,
    outer: Option<&'c Env<'c>>,
}

impl<'c> Chain<'c> {
    fn new(pattern: &'c Pattern, drops: Option<&'c [String]>, outer: Option<&'c Env<'c>>) -> Self {
        let mut anon = 0;
        let mut name = |var: &Option<Ident>, kind: char| {
            anon += 1;
            var.as_ref()
                .map_or_else(|| format!("#{kind}{anon}"), |v| v.text.clone())
        };
        let node_vars = pattern.nodes().map(|n| name(&n.var, 'n')).collect();
        let conn_vars = (pattern.steps.iter())
            .map(|step| match &step.connection {
                Connection::Edge(e) => name(&e.var, 'e'),
                Connection::Path(p) => name(&p.var, 'p'),
            })
            .collect();
        let structural = pattern.binders().filter(|(_, role)| role.is_structural());
        let mut chain = Chain {
            info: ChainInfo {
                node_vars,
                conn_vars,
            },
            drops,
            last_read: FxHashMap::default(),
            barrier: 0,
            structural: structural.map(|(v, _)| v.as_str()).collect(),
            outer,
        };
        for (k, step) in pattern.steps.iter().enumerate() {
            match Reads::of_steps(std::slice::from_ref(step)) {
                Reads::All => chain.barrier = k + 1,
                Reads::Vars(vars) => chain.last_read.extend(vars.into_iter().map(|v| (v, k + 1))),
            }
            if matches!(&step.connection, Connection::Path(p) if !p.stored && p.var.is_some()) {
                chain.barrier = k + 1;
            }
        }
        chain
    }

    /// Does stage `stage` write `var`'s column?
    fn written(&self, var: &str, stage: usize) -> bool {
        let Some(drops) = self.drops else {
            return true;
        };
        let nodes = &self.info.node_vars;
        !(var.starts_with('#') || drops.iter().any(|d| d == var))
            || stage < self.barrier
            || self.last_read.get(var).is_some_and(|&s| s > stage)
            || (stage + 1 < nodes.len() && nodes[stage] == var)
    }

    /// Is stage `stage`'s source read by nothing but its stepping from it?
    /// Then a pure reachability step returns, per group of rows that
    /// differ only in their source, the union of their closures.
    fn dead_source(&self, stage: usize) -> bool {
        let src = &self.info.node_vars[stage - 1];
        !self.written(src, stage) && self.last_read.get(src).is_none_or(|&s| s < stage)
    }
}

/// What one stage binds and tests.
struct Stage<'p> {
    /// 0 binds the start node; k + 1 runs chain step k.
    index: usize,
    /// The connection when it is an element (an edge or a stored path):
    /// its column, the label groups still to test, its property entries.
    conn: Option<(&'p str, &'p [LabelDisjunction], &'p [PropEntry])>,
    /// The far end (the start node at stage 0): its column, its pattern,
    /// the label groups still to test.
    far: (&'p str, &'p NodePattern, &'p [LabelDisjunction]),
    /// The stage's cells, in column order: the connection's or a named
    /// computed path's, the far end's, a computed path's cost.
    cells: Vec<&'p str>,
}

/// Label-disjunction groups resolved once: an element passes when it
/// carries a label of every group (a label no graph has used, nothing).
struct LabelGroups(Vec<Vec<Label>>);

impl LabelGroups {
    fn new(groups: &[LabelDisjunction]) -> Self {
        let resolve = |g: &LabelDisjunction| g.0.iter().filter_map(|l| Label::lookup(l)).collect();
        LabelGroups(groups.iter().map(resolve).collect())
    }

    fn admit(&self, carries: impl Fn(Label) -> bool) -> bool {
        self.0.iter().all(|group| group.iter().any(|&l| carries(l)))
    }
}

/// The element a node, edge or stored-path cell binds.
fn element(b: &Bound) -> Option<ElementId> {
    match *b {
        Bound::Node(n) => Some(n.into()),
        Bound::Edge(e) => Some(e.into()),
        Bound::Path(p) => Some(p.into()),
        _ => None,
    }
}

/// Does a property set (`None`: absent) hold an entry's value: contain
/// the scalar, or equal the set?
fn holds(props: Option<&PropertySet>, value: &Rv<'_>) -> bool {
    let empty = PropertySet::empty();
    let props = props.unwrap_or(&empty);
    match value {
        Rv::Set(s) => props.set_eq(s),
        _ => value.as_scalar().is_some_and(|v| props.contains(v)),
    }
}

/// Does `e` read a variable `var` accepts, or any variable of the row
/// (an `EXISTS` or a pattern predicate)?
fn reads(e: &Expr, var: impl Fn(&str) -> bool) -> bool {
    let mut hit = false;
    e.walk(&mut |x| match x {
        Expr::Var(v) => hit |= var(v),
        Expr::Exists(_) | Expr::PatternPredicate(_) => hit = true,
        _ => {}
    });
    hit
}

/// A test of a stage's candidate, on its connection or (`true`) its far
/// end.
enum Test<'a> {
    Labels(bool, LabelGroups),
    /// `Entry(far, key, value, per_row, cached)`: a filter-form entry
    /// whose value reads nothing the stage binds, evaluated once per stage
    /// or, when it reads the input row, once per row (`per_row`), by the
    /// first candidate that gets this far.
    Entry(bool, Option<Key>, Compiled<'a>, bool, Option<Rv<'static>>),
    /// A scan filter, evaluated on the scratch row.
    Scan(Compiled<'a>),
}

/// An entry run on the row of a candidate that passed its tests, on the
/// element in scratch column `elem`: the binding form (no `value`), one
/// row per value in scratch column `col`, or a filter reading a variable
/// the stage binds.
struct Post<'a> {
    elem: usize,
    key: Option<Key>,
    col: usize,
    value: Option<Compiled<'a>>,
}

/// One stage's emission site: a candidate is tested on a scratch row (the
/// input row, then the cells the stage binds), and one that passes is
/// written with the live columns only.
struct Emit<'a> {
    ctx: &'a EvalCtx,
    graph: &'a PathPropertyGraph,
    input: &'a BindingTable,
    outer: Option<&'a Env<'a>>,
    scratch: BindingTable,
    /// The input row in the scratch row.
    row: usize,
    /// The scratch columns of the connection (if an element) and the far
    /// end; one the input row binds admits only the element it holds.
    ends: [Option<usize>; 2],
    tests: Vec<Test<'a>>,
    /// The far ends a search was sent towards, when the plan made far-end
    /// scan filters targets ([`PatternMatcher::far_end_targets`]).
    targets: Option<FxHashSet<NodeId>>,
    /// The scratch columns of the cells [`write`](Self::write) is given.
    more: Vec<usize>,
    post: Vec<Post<'a>>,
    /// The scratch columns something after the stage reads.
    live: Vec<usize>,
    out: TableBuilder,
    tick: u32,
}

impl Emit<'_> {
    /// Move to input row `ri`.
    fn row(&mut self, ri: usize) -> Result<()> {
        self.ctx.options.cancel.checkpoint(&mut self.tick)?;
        self.row = ri;
        self.scratch.set_prefix(self.input, ri);
        for test in &mut self.tests {
            if let Test::Entry(_, _, _, true, cached) = test {
                *cached = None;
            }
        }
        Ok(())
    }

    /// Test a candidate of the current row: `conn` its edge or stored path
    /// (`None` at a start node or a computed path), `far` its far end.
    fn test(&mut self, conn: Option<Bound>, far: NodeId) -> Result<bool> {
        if self.targets.as_ref().is_some_and(|t| !t.contains(&far)) {
            return Ok(false);
        }
        let cells = [conn, Some(Bound::Node(far))];
        let ends = self.ends.iter().zip(&cells);
        for (col, b) in ends.filter_map(|(&col, b)| col.zip(b.as_ref())) {
            if col >= self.input.columns().len() {
                self.scratch.set(col, b);
            } else if self.scratch.code(0, col) != self.scratch.encode_for_probe(b) {
                return Ok(false);
            }
        }
        let ids = cells.map(|b| b.as_ref().and_then(element));
        let (mut env, mut row) = (Env::new(&self.scratch, 0), Env::new(self.input, self.row));
        (env.parent, row.parent) = (self.outer, self.outer);
        for test in &mut self.tests {
            let held = match test {
                Test::Labels(far, groups) => ids[*far as usize]
                    .is_some_and(|id| groups.admit(|l| self.graph.has_label(id, l))),
                Test::Entry(far, key, value, _, cached) => {
                    let value = match cached {
                        Some(v) => v,
                        None => cached.insert(value.eval(self.ctx, &row)?.into_owned()),
                    };
                    let props = |id| key.and_then(|k| self.graph.prop_ref(id, k));
                    ids[*far as usize].is_some_and(|id| holds(props(id), value))
                }
                Test::Scan(scan) => scan.test(self.ctx, &env)?,
            };
            if !held {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Write the candidate last tested, with `more` — a computed path's
    /// path and cost cells — through the entries run on its row.
    fn write(&mut self, more: impl IntoIterator<Item = Bound>) -> Result<()> {
        for (&col, b) in self.more.iter().zip(more) {
            self.scratch.set(col, &b);
        }
        self.run_post(0)
    }

    fn run_post(&mut self, i: usize) -> Result<()> {
        let Some(post) = self.post.get(i) else {
            self.ctx.options.cancel.checkpoint(&mut self.tick)?;
            self.out.push_picked(&self.scratch, 0, &self.live);
            return Ok(());
        };
        let (graph, col) = (self.graph, post.col);
        let id = element(&self.scratch.bound(0, post.elem));
        let props = id.zip(post.key).and_then(|(id, k)| graph.prop_ref(id, k));
        if let Some(value) = &post.value {
            let mut env = Env::new(&self.scratch, 0);
            env.parent = self.outer;
            if holds(props, &value.eval(self.ctx, &env)?) {
                self.run_post(i + 1)?;
            }
            return Ok(());
        }
        for v in props.into_iter().flat_map(PropertySet::iter) {
            self.scratch.set_value(col, v);
            self.run_post(i + 1)?;
        }
        self.scratch.set(col, &Bound::Missing);
        Ok(())
    }
}

/// Matcher for one graph.
pub(crate) struct PatternMatcher<'e> {
    /// The statement's evaluation context.
    ctx: &'e EvalCtx,
    /// The graph being matched.
    pub graph: Arc<PathPropertyGraph>,
    /// The WHERE conjuncts this matcher owns, applied the moment their
    /// variable is bound and not again on the joined table.
    scan_filters: &'e [ScanFilter<'e>],
    /// The named variables nothing reads after the pattern.
    drops: &'e [String],
}

impl<'e> PatternMatcher<'e> {
    /// Create a matcher over `graph`.
    pub(crate) fn new(ctx: &'e EvalCtx, graph: Arc<PathPropertyGraph>) -> Self {
        PatternMatcher {
            ctx,
            graph,
            scan_filters: &[],
            drops: &[],
        }
    }

    /// Match for one plan step: apply its scan filters and leave out the
    /// columns it drops.
    pub(crate) fn for_step(mut self, step: &'e PlanStep<'e>) -> Self {
        self.scan_filters = &step.scan_filters;
        self.drops = &step.drops;
        self
    }

    fn col(&self, var: &str) -> Column {
        Column {
            var: var.to_owned(),
            graph: self.graph.clone(),
        }
    }

    /// Evaluate a pattern into the columns read after it: neither its
    /// anonymous elements nor the plan step's dropped variables.
    ///
    /// `seed`, when given, lists every node the start variable may take
    /// (ascending): the caller joins the result on that variable against
    /// a table holding exactly these nodes, so seeding is a semijoin
    /// reduction and the join's result is unchanged.
    pub(crate) fn eval_pattern(
        &self,
        pattern: &Pattern,
        outer: Option<&Env<'_>>,
        seed: Option<&[NodeId]>,
    ) -> Result<BindingTable> {
        Ok(self.eval_chain(pattern, outer, seed, false)?.0)
    }

    /// [`eval_pattern`](Self::eval_pattern), or with `keep_all` every
    /// column, anonymous ones included (for PATH-view walk extraction),
    /// with the chain's column names.
    pub(crate) fn eval_chain(
        &self,
        pattern: &Pattern,
        outer: Option<&Env<'_>>,
        seed: Option<&[NodeId]>,
        keep_all: bool,
    ) -> Result<(BindingTable, ChainInfo)> {
        let chain = Chain::new(pattern, (!keep_all).then_some(self.drops), outer);
        let vars = &chain.info;
        let mut table = self.bind_start(&pattern.start, &vars.node_vars[0], &chain, seed)?;
        for (k, step) in pattern.steps.iter().enumerate() {
            // One poll per step bounds the latency of noticing a
            // cancellation by one expansion.
            self.ctx.options.cancel.check()?;
            let src = &vars.node_vars[k];
            let src = (table.column_index(src))
                .ok_or_else(|| SemanticError::UnboundVariable(src.clone()))?;
            let (conn, dst) = (&vars.conn_vars[k], &vars.node_vars[k + 1]);
            let mut stage = Stage {
                index: k + 1,
                conn: None,
                far: (dst, &step.node, &step.node.labels),
                cells: vec![conn, dst],
            };
            table = match &step.connection {
                Connection::Edge(e) => self.expand_edge(&table, src, stage, e, &chain)?,
                Connection::Path(p) if p.stored => {
                    self.expand_stored_path(&table, src, stage, p, &chain)?
                }
                Connection::Path(p) => {
                    if p.var.is_none() {
                        stage.cells.remove(0);
                    }
                    stage.cells.extend(p.cost_var.as_deref());
                    self.expand_path(&table, src, stage, p, &chain)?
                }
            };
        }
        Ok((table, chain.info))
    }

    /// The emission site of `stage` over the rows of `input`.
    fn emitter<'a>(
        &'a self,
        input: &'a BindingTable,
        stage: Stage<'a>,
        chain: &'a Chain<'a>,
        targets: Option<FxHashSet<NodeId>>,
    ) -> Emit<'a> {
        let (outer, width) = (chain.outer, input.columns().len());
        let mut columns = input.columns().to_vec();
        let cells = stage.cells.iter().filter(|&&v| !input.binds(v));
        columns.extend(cells.map(|v| self.col(v)));
        let mut col = columns.len();
        // The entries in pattern order, on the connection or (`true`) the
        // far end; one whose value is a variable nothing binds yet binds it.
        let conn_entries = stage.conn.map_or(&[][..], |c| c.2);
        let entries: Vec<(bool, &PropEntry, bool)> = (conn_entries.iter().map(|e| (false, e)))
            .chain(stage.far.1.props.iter().map(|e| (true, e)))
            .map(|(far, entry)| {
                let binds = matches!(&entry.value, Expr::Var(v)
                    if !columns.iter().any(|c| c.var == v.as_str())
                        && !chain.structural.contains(&v.as_str())
                        && !outer.is_some_and(|o| o.binds(v)));
                if let (true, Expr::Var(v)) = (binds, &entry.value) {
                    columns.push(self.col(v));
                }
                (far, entry, binds)
            })
            .collect();
        let pool = self.ctx.pool();
        let scratch = BindingTable::scratch(columns, pool.clone());
        let columns = scratch.columns();
        let position = |v: &str| columns.iter().position(|c| c.var == v);

        let mut on_input = Compiler::new(input, outer);
        let mut on_scratch = Compiler::new(&scratch, outer);
        let (mut tests, mut post) = (Vec::new(), Vec::new());
        let conn = stage.conn.map(|(var, groups, _)| (false, var, groups));
        for (far, var, groups) in conn.into_iter().chain([(true, stage.far.0, stage.far.2)]) {
            let elem = position(var).unwrap_or_default();
            tests.push(Test::Labels(far, LabelGroups::new(groups)));
            for &(_, entry, binds) in entries.iter().filter(|e| e.0 == far) {
                let (key, value) = (Key::lookup(&entry.key), &entry.value);
                if binds || reads(value, |v| position(v).is_some_and(|i| i >= width)) {
                    // A filter is compiled against the columns bound before it.
                    let schema = || BindingTable::scratch(columns[..col].to_vec(), pool.clone());
                    let value = (!binds).then(|| Compiler::new(&schema(), outer).compile(value));
                    post.push(Post {
                        elem,
                        key,
                        col,
                        value,
                    });
                    col += usize::from(binds);
                } else {
                    let per_row = reads(value, |v| input.binds(v));
                    let value = on_input.compile(value);
                    tests.push(Test::Entry(far, key, value, per_row, None));
                }
            }
            let targeted = far && targets.is_some();
            let scans = self.scan_filters.iter();
            let scans = scans.filter(|f| f.var == var && !(targeted && f.target));
            tests.extend(scans.map(|f| Test::Scan(on_scratch.compile(f.expr))));
        }
        let conn = stage.conn.map(|c| c.0);
        let more = stage
            .cells
            .iter()
            .filter(|&&v| conn != Some(v) && v != stage.far.0);
        let more = more.filter_map(|&v| position(v)).collect();
        let live: Vec<usize> = (0..columns.len())
            .filter(|&i| chain.written(&columns[i].var, stage.index))
            .collect();
        let out = TableBuilder::new(live.iter().map(|&i| columns[i].clone()).collect(), pool);
        Emit {
            ctx: self.ctx,
            graph: &self.graph,
            input,
            outer,
            ends: [conn.and_then(position), position(stage.far.0)],
            scratch,
            row: 0,
            tests,
            targets,
            more,
            post,
            live,
            out,
            tick: 0,
        }
    }

    /// Bind the start node `var` (declared by `node`).
    fn bind_start(
        &self,
        node: &NodePattern,
        var: &str,
        chain: &Chain<'_>,
        seed: Option<&[NodeId]>,
    ) -> Result<BindingTable> {
        // The outer scope (a correlated subquery) may bind it already;
        // nodes an earlier pattern bound may come from another graph and
        // were not drawn from a label group, so identifiers this graph
        // lacks are dropped and every label group is tested.
        let (candidates, groups) = match (chain.outer.and_then(|o| o.lookup(var)), seed) {
            (Some((Bound::Node(n), _)), _) => (vec![n], &node.labels[..]),
            (_, Some(seed)) => {
                let mut seed = seed.to_vec();
                seed.retain(|&n| self.graph.contains_node(n));
                (seed, &node.labels[..])
            }
            (_, None) => self.label_candidates(node),
        };
        let unit = BindingTable::unit(self.ctx.pool());
        let stage = Stage {
            index: 0,
            conn: None,
            far: (var, node, groups),
            cells: vec![var],
        };
        let mut emit = self.emitter(&unit, stage, chain, None);
        emit.out.reserve(candidates.len());
        emit.row(0)?;
        for n in candidates {
            if emit.test(None, n)? {
                emit.write([])?;
            }
        }
        Ok(emit.out.finish())
    }

    /// The candidates of a node pattern drawn from the graph, with the
    /// label groups still to check on each: when the first group is a
    /// single label the candidates come from its label group — that group
    /// is then already satisfied — otherwise they are every node.
    fn label_candidates<'n>(&self, node: &'n NodePattern) -> (Vec<NodeId>, &'n [LabelDisjunction]) {
        let Some(label) = first_label(&node.labels) else {
            return (self.graph.node_ids_sorted(), &node.labels[..]);
        };
        let nodes = Label::lookup(&label).map_or_else(Vec::new, |l| self.graph.nodes_with_label(l));
        (nodes, &node.labels[1..])
    }

    /// The nodes a path search's far end `var` (declared by `node`) may
    /// take, when the plan made scan filters on `var` targets
    /// ([`crate::plan::is_target`]): those filters, evaluated once over
    /// the label group's candidates. `None` when no filter is a target.
    fn far_end_targets(
        &self,
        var: &str,
        node: &NodePattern,
        outer: Option<&Env<'_>>,
    ) -> Result<Option<FxHashSet<NodeId>>> {
        let targets = (self.scan_filters.iter()).filter(|f| f.target && f.var == var);
        let exprs: Vec<&Expr> = targets.map(|f| f.expr).collect();
        if exprs.is_empty() {
            return Ok(None);
        }
        let mut column = TableBuilder::new(vec![self.col(var)], self.ctx.pool());
        for n in self.label_candidates(node).0 {
            column.push(&[Bound::Node(n)]);
        }
        let kept = self.ctx.filter_table(column.finish(), &exprs, outer)?;
        Ok(Some(kept.distinct_nodes(0).into_iter().flatten().collect()))
    }

    /// Expand rows over one edge pattern.
    fn expand_edge<'a>(
        &'a self,
        table: &'a BindingTable,
        src: usize,
        mut stage: Stage<'a>,
        edge: &'a EdgePattern,
        chain: &'a Chain<'a>,
    ) -> Result<BindingTable> {
        // A first group of one label is satisfied by the label's CSR in the
        // read layout; `None`: the label is not interned, so no edge has it.
        let (label, rest_groups) = match first_label(&edge.labels) {
            Some(name) => (Label::lookup(&name).map(Some), &edge.labels[1..]),
            None => (Some(None), &edge.labels[..]),
        };
        let dir = match edge.direction {
            Direction::Out => StepDir::Out,
            Direction::In => StepDir::In,
            Direction::Undirected => StepDir::Both,
        };
        stage.conn = Some((stage.cells[0], rest_groups, &edge.props));
        let graph = &*self.graph;
        self.extend_rows(table, src, stage, chain, Bound::Edge, |src, cands| {
            if let Some(label) = label {
                graph.for_each_step(src, dir, label, |e, far| cands.push((e, far)));
            }
        })
    }

    /// Extend each row of `table` by the steps from its node in column
    /// `src` that `steps(node, cands)` pushes as `(connection, far end)`
    /// pairs, in ascending order; `bind` makes the connection's cell.
    fn extend_rows<'a, C: Copy + Ord>(
        &'a self,
        table: &'a BindingTable,
        src: usize,
        stage: Stage<'a>,
        chain: &'a Chain<'a>,
        bind: impl Fn(C) -> Bound,
        mut steps: impl FnMut(NodeId, &mut Vec<(C, NodeId)>),
    ) -> Result<BindingTable> {
        let mut emit = self.emitter(table, stage, chain, None);
        let mut cands: Vec<(C, NodeId)> = Vec::new();
        for ri in 0..table.len() {
            emit.row(ri)?;
            let Bound::Node(src) = table.bound(ri, src) else {
                continue;
            };
            cands.clear();
            steps(src, &mut cands);
            cands.sort_unstable();
            for &(c, far) in &cands {
                if emit.test(Some(bind(c)), far)? {
                    emit.write([])?;
                }
            }
        }
        Ok(emit.out.finish())
    }

    /// Match stored paths (`-/@p:Label/->`), optionally checking regex
    /// conformance.
    fn expand_stored_path<'a>(
        &'a self,
        table: &'a BindingTable,
        src: usize,
        mut stage: Stage<'a>,
        pat: &'a PathPattern,
        chain: &'a Chain<'a>,
    ) -> Result<BindingTable> {
        let nfa = pat.regex.as_ref().map(Nfa::compile);
        let graph = &*self.graph;
        // Candidate stored paths, tested on their labels and regex once.
        let labels = LabelGroups::new(&pat.labels);
        let candidates: Vec<(gcore_ppg::PathId, &PathShape)> = (graph.paths())
            .filter(|(_, d)| labels.admit(|l| d.attrs.labels.contains(l)))
            .filter(|(_, d)| nfa.as_ref().is_none_or(|a| conforms(graph, &d.shape, a)))
            .map(|(p, d)| (p, &d.shape))
            .collect();
        stage.conn = Some((stage.cells[0], &[], &[]));
        self.extend_rows(table, src, stage, chain, Bound::Path, |src, cands| {
            for &(p, shape) in &candidates {
                let (a, b) = (shape.start(), shape.end());
                let starts_at_src = match pat.direction {
                    Direction::Out => a == src,
                    Direction::In => b == src,
                    Direction::Undirected => a == src || b == src,
                };
                if starts_at_src {
                    cands.push((p, if a == src { b } else { a }));
                }
            }
        })
    }

    /// Expand rows over one computed path pattern.
    fn expand_path<'a>(
        &'a self,
        table: &'a BindingTable,
        src: usize,
        stage: Stage<'a>,
        pat: &'a PathPattern,
        chain: &'a Chain<'a>,
    ) -> Result<BindingTable> {
        let (src_idx, src) = (src, &chain.info.node_vars[stage.index - 1]);
        let (path_var, dst_var) = (&chain.info.conn_vars[stage.index - 1], stage.far.0);
        let Some(regex) = &pat.regex else {
            return Err(SemanticError::InvalidPathPattern(format!(
                "binding '{path_var}' needs a <regex> (only stored-path patterns may omit it)"
            ))
            .into());
        };
        let prof = &self.ctx.profiler;
        let span = prof.start("path-search", || match pat.mode {
            PathMode::All => format!("ALL {src}→{dst_var}"),
            PathMode::Shortest(1) => format!("shortest {src}→{dst_var}"),
            PathMode::Shortest(k) => format!("{k}-shortest {src}→{dst_var}"),
        });
        // Every search starts at `src`, whichever way the pattern
        // points: the automaton is compiled for that reading.
        let nfa = Nfa::compile_directed(regex, pat.direction);
        let views = self.ctx.resolve_views(&nfa, &self.graph)?;
        let searcher = PathSearcher::new(&self.graph, &nfa, &views)
            .with_cancel(self.ctx.options.cancel.clone());

        let dst_bound = table.column_index(dst_var);
        let (binds_path, binds_cost) = (pat.var.is_some(), pat.cost_var.is_some());

        // Pure reachability (`-/<r>/->`, binding neither path nor cost)
        // towards an unbound destination shares one product search between
        // all rows: the SCC-condensed multi-source reachability over their
        // distinct sources, which the snapshot keeps under the regex and
        // the definitions of the views it names when its rule allows. A
        // bound destination makes each row a single-pair test.
        let pure_reach = pure_reach(pat);
        let mut shared: FxHashMap<NodeId, Arc<Vec<NodeId>>> = FxHashMap::default();
        let srcs = (pure_reach && dst_bound.is_none()).then(|| table.distinct_nodes(src_idx));
        if let Some(srcs) = srcs.flatten().filter(|s| !s.is_empty()) {
            let defs = self.ctx.view_definitions(&nfa.view_names());
            let snapshot = &self.ctx.snapshot;
            shared = snapshot.reachable_many_cached(&self.graph, &nfa, defs, &searcher, &srcs)?;
        }
        // An unbound far end whose scan filters the plan made targets:
        // every row searches towards the same node set, and a far end is
        // tested for membership in it instead of by those filters again.
        let targets = match dst_bound {
            None => self.far_end_targets(dst_var, stage.far.1, chain.outer)?,
            Some(_) => None,
        };
        if let Some(t) = &targets {
            prof.add_counter(span, "targets", t.len() as u64);
        }
        let grouped = pure_reach && dst_bound.is_none() && chain.dead_source(stage.index);
        let mut emit = self.emitter(table, stage, chain, targets);
        if grouped {
            self.reach_by_group(table, src_idx, &mut emit, &shared)?;
        }

        for ri in (0..table.len()).filter(|_| !grouped) {
            // Rows answered from the shared condensation run no search of
            // their own, yet each may emit many rows: poll per row too.
            emit.row(ri)?;
            let Bound::Node(src) = table.bound(ri, src_idx) else {
                continue;
            };
            let target: Option<NodeId> = dst_bound.and_then(|i| match table.bound(ri, i) {
                Bound::Node(d) => Some(d),
                _ => None,
            });
            if pure_reach {
                let dsts: &[NodeId] = match &target {
                    Some(d) if searcher.reachable_pair(src, *d)? => std::slice::from_ref(d),
                    Some(_) => &[],
                    None => shared.get(&src).map_or(&[], |v| v.as_slice()),
                };
                for &dst in dsts {
                    if emit.test(None, dst)? {
                        emit.write([])?;
                    }
                }
                continue;
            }
            let bound_target: Option<FxHashSet<NodeId>> = target.map(|d| [d].into_iter().collect());
            let targets = bound_target.as_ref().or(emit.targets.as_ref());
            let PathMode::Shortest(k) = pat.mode else {
                // Graph projection per destination.
                for (dst, nodes, edges) in searcher.all_paths_from(src, targets)? {
                    if emit.test(None, dst)? {
                        let graph = self.graph.clone();
                        let projection = FreshPath::Projection {
                            src,
                            dst,
                            nodes,
                            edges,
                            graph,
                        };
                        emit.write(binds_path.then(|| self.ctx.add_fresh_path(projection)))?;
                    }
                }
                continue;
            };
            let found = searcher.k_shortest(src, k as usize, targets)?;
            let mut dsts: Vec<NodeId> = found.keys().copied().collect();
            dsts.sort_unstable();
            for dst in dsts {
                if !emit.test(None, dst)? {
                    continue;
                }
                for fp in &found[&dst] {
                    let path = binds_path.then(|| {
                        self.ctx.add_fresh_path(FreshPath::Walk {
                            shape: fp.walk.clone(),
                            cost: fp.cost,
                            weighted: searcher.weighted,
                            graph: self.graph.clone(),
                        })
                    });
                    let cost = Bound::Value(match searcher.weighted {
                        true => Value::Float(fp.cost),
                        false => Value::Int(fp.cost as i64),
                    });
                    emit.write(path.into_iter().chain(binds_cost.then_some(cost)))?;
                }
            }
        }
        let out = emit.out.finish();
        prof.add_counter(span, "frontier_pops", searcher.pops());
        if searcher.tie_keys() > 0 {
            prof.add_counter(span, "tie_keys", searcher.tie_keys());
        }
        prof.finish_rows(span, out.len() as u64);
        Ok(out)
    }

    /// The rows of a pure reachability step whose source column (at
    /// `src_idx`) nothing reads after it: rows that differ only in their
    /// source form one group, which reaches the union of its sources'
    /// closures in `shared`. Each distinct closure is read once per group,
    /// into a bitset over node positions, so a group tests and emits each
    /// far end once.
    fn reach_by_group(
        &self,
        table: &BindingTable,
        src_idx: usize,
        emit: &mut Emit<'_>,
        shared: &FxHashMap<NodeId, Arc<Vec<NodeId>>>,
    ) -> Result<()> {
        let key: Vec<usize> = (0..table.columns().len())
            .filter(|&c| c != src_idx)
            .collect();
        let cancel = &self.ctx.options.cancel;
        let groups = RowGroups::build(table.len(), key.len(), cancel, |ri, cells| {
            cells.extend(key.iter().map(|&c| table.code(ri, c)));
            Ok(true)
        })?;
        let positions = self.graph.positions();
        let mut reached: Vec<u64> = vec![0; positions.len().div_ceil(64)];
        let mut read: FxHashSet<*const Vec<NodeId>> = FxHashSet::default();
        let mut tick = 0u32;
        for group in (0..groups.len()).map(|g| groups.rows(g)) {
            read.clear();
            for &ri in group {
                cancel.checkpoint(&mut tick)?;
                let closure = match table.bound(ri, src_idx) {
                    Bound::Node(src) => shared.get(&src),
                    _ => None,
                };
                let Some(closure) = closure.filter(|c| read.insert(Arc::as_ptr(c))) else {
                    continue;
                };
                for pos in closure.iter().filter_map(|&n| positions.of(n)) {
                    reached[pos as usize / 64] |= 1 << (pos % 64);
                }
            }
            emit.row(group[0])?;
            for (w, word) in reached.iter_mut().enumerate() {
                while *word != 0 {
                    let pos = w * 64 + word.trailing_zeros() as usize;
                    *word &= *word - 1;
                    if emit.test(None, positions.id(pos as u32))? {
                        emit.write([])?;
                    }
                }
            }
        }
        Ok(())
    }
}
