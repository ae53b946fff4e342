//! Evaluation of basic graph patterns (§A.2) on one graph.
//!
//! A pattern chain `(n)-[e:knows]->(m)-/p<:r*>/->(k)` is evaluated left to
//! right: the start node pattern seeds a binding table, and each step
//! expands rows through adjacency (edge patterns) or product-automaton
//! search (path patterns). Homomorphism semantics: no implicit
//! disjointness between variables (§3 "Match and Filter").
//!
//! All candidate enumeration is in sorted identifier order, so the
//! resulting binding table is deterministic.
//!
//! The matcher is also where *scan filters* run — the WHERE conjuncts
//! the plan gave this pattern ([`ScanFilter`]), each on one node or edge
//! variable, are applied at every site that binds the variable,
//! and nowhere else — and a pattern whose start variable an earlier
//! pattern already bound is *seeded* from those identifiers instead of
//! the graph's label groups.
//!
//! A pattern matched for a plan step leaves out the columns nothing after
//! it reads: its anonymous elements and the step's
//! [`drops`](crate::plan::PlanStep::drops). A pure reachability step whose
//! source is one of them groups its rows by the columns still read and
//! returns, per group, the union of its sources' closures.

use crate::binding::{BindingTable, Bound, Column, RowGroups, TableBuilder};
use crate::context::{EvalCtx, FreshPath};
use crate::error::{Result, SemanticError};
use crate::expr::{Compiler, Env, Rv};
use crate::paths::PathSearcher;
use crate::plan::{first_label, pure_reach, PlanStep, Reads, ScanFilter};
use crate::regex::{walk_conforms, Nfa};
use gcore_parser::ast::{
    Connection, Direction, EdgePattern, Expr, LabelDisjunction, NodePattern, PathMode, PathPattern,
    Pattern, PropEntry,
};
use gcore_ppg::hash::{FxHashMap, FxHashSet};
use gcore_ppg::{
    ElementId, Key, Label, NodeId, PathData, PathPropertyGraph, PathShape, StepDir, Value,
};
use std::cell::Cell;
use std::sync::Arc;

/// Description of a pattern chain's columns after evaluation, used by
/// PATH-view segment extraction.
pub struct ChainInfo {
    /// Column name of each node in the chain, in order.
    pub node_vars: Vec<String>,
    /// Column name of each connection (edge or path), in order.
    pub conn_vars: Vec<String>,
}

/// Matcher for one graph.
pub(crate) struct PatternMatcher<'e> {
    /// The statement's evaluation context.
    ctx: &'e EvalCtx,
    /// The graph being matched.
    pub graph: Arc<PathPropertyGraph>,
    anon: Cell<usize>,
    /// The WHERE conjuncts this matcher owns: each is applied the moment
    /// its variable is bound — pruning the search space (most
    /// importantly the *source set* of path patterns) — and is not
    /// evaluated again on the joined table.
    scan_filters: &'e [ScanFilter<'e>],
    /// The named variables nothing reads after the pattern, when it is
    /// matched for a plan step; `None` keeps every column of the chain.
    drops: Option<&'e [String]>,
}

impl<'e> PatternMatcher<'e> {
    /// Create a matcher over `graph`.
    pub(crate) fn new(ctx: &'e EvalCtx, graph: Arc<PathPropertyGraph>) -> Self {
        PatternMatcher {
            ctx,
            graph,
            anon: Cell::new(0),
            scan_filters: &[],
            drops: None,
        }
    }

    /// Match for one plan step: apply its scan filters and leave out the
    /// columns it drops.
    pub(crate) fn for_step(mut self, step: &'e PlanStep<'e>) -> Self {
        self.scan_filters = &step.scan_filters;
        self.drops = Some(&step.drops);
        self
    }

    /// Is `var`'s column read by nothing after the pattern? Anonymous
    /// columns never are; a named one when the plan step drops it.
    fn dropped(&self, var: &str) -> bool {
        var.starts_with('#') || self.drops.is_some_and(|d| d.iter().any(|v| v == var))
    }

    /// Apply the scan filters on `var`, if any.
    fn apply_scan_filters(
        &self,
        table: BindingTable,
        var: &str,
        outer: Option<&Env<'_>>,
    ) -> Result<BindingTable> {
        let on_var = self.scan_filters.iter().filter(|f| f.var == var);
        let exprs: Vec<&Expr> = on_var.map(|f| f.expr).collect();
        if exprs.is_empty() {
            return Ok(table);
        }
        self.ctx.filter_table(table, &exprs, outer)
    }

    fn fresh_anon(&self, kind: &str) -> String {
        let n = self.anon.get();
        self.anon.set(n + 1);
        // '#' cannot appear in user identifiers, so no collisions.
        format!("#{kind}{n}")
    }

    fn col(&self, var: &str) -> Column {
        Column {
            var: var.to_owned(),
            graph: self.graph.clone(),
        }
    }

    /// Evaluate a pattern; anonymous element columns and the plan step's
    /// dropped ones are projected away.
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
        let (table, _) = self.eval_chain(pattern, outer, seed)?;
        if table.columns().iter().all(|c| !self.dropped(&c.var)) {
            // Nothing to drop: the chain table is the pattern's table.
            return Ok(table);
        }
        let keep: Vec<&str> = table
            .columns()
            .iter()
            .map(|c| c.var.as_str())
            .filter(|v| !self.dropped(v))
            .collect::<Vec<_>>();
        Ok(table.project(&keep))
    }

    /// Evaluate a pattern keeping anonymous columns, returning chain
    /// column info (for PATH-view walk extraction). `seed` as in
    /// [`eval_pattern`](Self::eval_pattern).
    pub(crate) fn eval_chain(
        &self,
        pattern: &Pattern,
        outer: Option<&Env<'_>>,
        seed: Option<&[NodeId]>,
    ) -> Result<(BindingTable, ChainInfo)> {
        // Structural variables of this pattern decide which `{k = v}`
        // entries bind fresh value variables vs. filter.
        let structural: Vec<&str> = (pattern.binders())
            .filter_map(|(v, role)| role.is_structural().then_some(v.as_str()))
            .collect();

        let start_var = pattern
            .start
            .var
            .as_deref()
            .map(str::to_owned)
            .unwrap_or_else(|| self.fresh_anon("n"));
        let mut info = ChainInfo {
            node_vars: vec![start_var.clone()],
            conn_vars: Vec::new(),
        };

        let mut table = self.bind_start(&start_var, &pattern.start, outer, seed, &structural)?;
        for (k, step) in pattern.steps.iter().enumerate() {
            // Chain steps are the matcher's outermost expansion loop:
            // one poll per step bounds the latency of noticing a
            // cancellation by one expansion.
            self.ctx.options.cancel.check()?;
            let dst_var = step
                .node
                .var
                .as_deref()
                .map(str::to_owned)
                .unwrap_or_else(|| self.fresh_anon("n"));
            let prev_var = info.node_vars.last().expect("chain nonempty").clone();
            table = match &step.connection {
                Connection::Edge(e) => {
                    let edge_var = e
                        .var
                        .as_deref()
                        .map(str::to_owned)
                        .unwrap_or_else(|| self.fresh_anon("e"));
                    info.conn_vars.push(edge_var.clone());
                    self.expand_edge(table, &prev_var, &edge_var, &dst_var, e, outer, &structural)?
                }
                Connection::Path(p) => {
                    let path_var = p
                        .var
                        .as_deref()
                        .map(str::to_owned)
                        .unwrap_or_else(|| self.fresh_anon("p"));
                    info.conn_vars.push(path_var.clone());
                    let live = self.live_without(&table, &prev_var, pattern, k);
                    let (node, live) = (&step.node, live.as_deref());
                    self.expand_path(table, &prev_var, &path_var, &dst_var, p, node, live, outer)?
                }
            };
            // Apply the destination node's own label/property constraints.
            table = self.constrain_node(table, &dst_var, &step.node, outer, &structural)?;
            info.node_vars.push(dst_var);
        }
        Ok((table, info))
    }

    /// The columns of `table` read after chain step `k` of `pattern` when
    /// its source `src` is not one of them; `None` when it is, or when
    /// every column is kept. A column is read after the step when the
    /// pattern does not drop it or a later element of the chain reads it.
    fn live_without(
        &self,
        table: &BindingTable,
        src: &str,
        pattern: &Pattern,
        k: usize,
    ) -> Option<Vec<usize>> {
        self.drops?;
        let later = Reads::of_steps(&pattern.steps[k..]);
        let dead = |v: &str| self.dropped(v) && !later.contains(v);
        if !dead(src) {
            return None;
        }
        let columns = table.columns().iter().enumerate();
        Some(
            columns
                .filter(|(_, c)| !dead(&c.var))
                .map(|(i, _)| i)
                .collect(),
        )
    }

    /// Seed the table with candidates for the first node pattern.
    fn bind_start(
        &self,
        var: &str,
        node: &NodePattern,
        outer: Option<&Env<'_>>,
        seed: Option<&[NodeId]>,
        structural: &[&str],
    ) -> Result<BindingTable> {
        // If the outer scope (correlated subquery) already binds this
        // variable, start from that binding.
        if let Some((Bound::Node(n), _)) = outer.and_then(|o| o.lookup(var)) {
            let mut b = TableBuilder::new(vec![self.col(var)], self.ctx.pool());
            b.push(&[Bound::Node(n)]);
            return self.constrain_node(b.finish(), var, node, outer, structural);
        }
        let (candidates, rest_groups) = match seed {
            // Nodes an earlier pattern bound: they may come from another
            // graph and were not drawn from a label group, so identifiers
            // this graph lacks are dropped and every label group is
            // checked.
            Some(seed) => (
                seed.iter()
                    .copied()
                    .filter(|&n| self.graph.contains_node(n))
                    .collect(),
                &node.labels[..],
            ),
            None => self.label_candidates(node),
        };
        let table = self.node_column(var, candidates);
        self.constrain_node_groups(table, var, node, rest_groups, outer, structural)
    }

    /// The candidates of a node pattern drawn from the graph, with the
    /// label groups still to check on each: when the first group is a
    /// single label the candidates come from its label group — that group
    /// is then already satisfied — otherwise they are every node.
    fn label_candidates<'n>(&self, node: &'n NodePattern) -> (Vec<NodeId>, &'n [LabelDisjunction]) {
        match first_label(&node.labels) {
            Some(label) => (
                match Label::lookup(&label) {
                    Some(l) => self.graph.nodes_with_label(l),
                    None => Vec::new(),
                },
                &node.labels[1..],
            ),
            None => (self.graph.node_ids_sorted(), &node.labels[..]),
        }
    }

    /// A one-column table binding `var` to each of `nodes`.
    fn node_column(&self, var: &str, nodes: Vec<NodeId>) -> BindingTable {
        let mut b = TableBuilder::new(vec![self.col(var)], self.ctx.pool());
        for n in nodes {
            b.push(&[Bound::Node(n)]);
        }
        b.finish()
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
        let targets = self
            .scan_filters
            .iter()
            .filter(|f| f.target && f.var == var);
        let exprs: Vec<&Expr> = targets.map(|f| f.expr).collect();
        if exprs.is_empty() {
            return Ok(None);
        }
        let (candidates, _) = self.label_candidates(node);
        let kept = self
            .ctx
            .filter_table(self.node_column(var, candidates), &exprs, outer)?;
        let nodes = (0..kept.len()).filter_map(|ri| match kept.bound(ri, 0) {
            Bound::Node(n) => Some(n),
            _ => None,
        });
        Ok(Some(nodes.collect()))
    }

    /// Apply a node pattern's labels and property entries to an existing
    /// column (binding value variables / filtering).
    fn constrain_node(
        &self,
        table: BindingTable,
        var: &str,
        node: &NodePattern,
        outer: Option<&Env<'_>>,
        structural: &[&str],
    ) -> Result<BindingTable> {
        self.constrain_node_groups(table, var, node, &node.labels, outer, structural)
    }

    /// `constrain_node` with an explicit label-group slice, so callers
    /// that already satisfied a group via an index can skip it.
    fn constrain_node_groups(
        &self,
        table: BindingTable,
        var: &str,
        node: &NodePattern,
        groups: &[LabelDisjunction],
        outer: Option<&Env<'_>>,
        structural: &[&str],
    ) -> Result<BindingTable> {
        let mut table = self.filter_labels(table, var, groups)?;
        for entry in &node.props {
            table = self.apply_prop_entry(table, var, entry, outer, structural)?;
        }
        self.apply_scan_filters(table, var, outer)
    }

    /// Every label-disjunction group must be satisfied.
    fn filter_labels(
        &self,
        table: BindingTable,
        var: &str,
        groups: &[LabelDisjunction],
    ) -> Result<BindingTable> {
        if groups.is_empty() {
            return Ok(table);
        }
        let resolved: Vec<Vec<Option<Label>>> = groups
            .iter()
            .map(|g| g.0.iter().map(|l| Label::lookup(l)).collect())
            .collect();
        let idx = table
            .column_index(var)
            .ok_or_else(|| SemanticError::UnboundVariable(var.to_owned()))?;
        table.try_filter(&self.ctx.options.cancel, |ri| {
            let id: ElementId = match table.bound(ri, idx) {
                Bound::Node(n) => n.into(),
                Bound::Edge(e) => e.into(),
                Bound::Path(p) => p.into(),
                // Computed paths carry no labels.
                _ => return Ok(false),
            };
            Ok(resolved.iter().all(|group| {
                group
                    .iter()
                    .any(|l| l.is_some_and(|l| self.graph.has_label(id, l)))
            }))
        })
    }

    /// `{key = expr}`: bind (unrolling multi-valued properties) when the
    /// RHS is an unbound value variable, otherwise filter by membership.
    fn apply_prop_entry(
        &self,
        table: BindingTable,
        elem_var: &str,
        entry: &PropEntry,
        outer: Option<&Env<'_>>,
        structural: &[&str],
    ) -> Result<BindingTable> {
        let key = Key::lookup(&entry.key);
        let elem_idx = table
            .column_index(elem_var)
            .ok_or_else(|| SemanticError::UnboundVariable(elem_var.to_owned()))?;
        let empty = gcore_ppg::PropertySet::empty();
        let prop_of = |table: &BindingTable, ri: usize| -> &gcore_ppg::PropertySet {
            let Some(key) = key else {
                return &empty;
            };
            let id: ElementId = match table.bound(ri, elem_idx) {
                Bound::Node(n) => n.into(),
                Bound::Edge(e) => e.into(),
                Bound::Path(p) => p.into(),
                _ => return &empty,
            };
            self.graph.prop_ref(id, key).unwrap_or(&empty)
        };

        let cancel = &self.ctx.options.cancel;
        // Binding form: RHS is a variable that is neither structural nor
        // already bound (here or in the outer scope). The new column
        // fans out: one row per value of the property.
        if let Expr::Var(v) = &entry.value {
            let is_bound = table.binds(v)
                || structural.contains(&v.as_str())
                || outer.is_some_and(|o| o.binds(v));
            if !is_bound {
                let mut columns = table.columns().to_vec();
                columns.push(self.col(v));
                let mut b = TableBuilder::new(columns, self.ctx.pool());
                let mut tick = 0u32;
                for ri in 0..table.len() {
                    cancel.checkpoint(&mut tick)?;
                    for val in prop_of(&table, ri).iter() {
                        b.push_extended_value(&table, ri, val);
                    }
                }
                return Ok(b.finish());
            }
        }
        // Filter form: membership of the evaluated scalar (set equality
        // when the RHS itself evaluates to a set).
        let value = Compiler::new(&table, outer).compile(&entry.value);
        table.try_filter(cancel, |ri| {
            let mut env = Env::new(&table, ri);
            env.parent = outer;
            let rv = value.eval(self.ctx, &env)?;
            let props = prop_of(&table, ri);
            Ok(match &rv {
                Rv::Set(s) => props.set_eq(s),
                _ => rv.as_scalar().is_some_and(|v| props.contains(v)),
            })
        })
    }

    /// Expand rows over one edge pattern.
    #[allow(clippy::too_many_arguments)]
    fn expand_edge(
        &self,
        table: BindingTable,
        prev_var: &str,
        edge_var: &str,
        dst_var: &str,
        edge: &EdgePattern,
        outer: Option<&Env<'_>>,
        structural: &[&str],
    ) -> Result<BindingTable> {
        // When the first label group is a single label, the steps come
        // from the label's CSR in the read layout and that group is already
        // satisfied, so it is skipped below. `None`: the label is not
        // interned, so no edge anywhere carries it.
        let (label, rest_groups) = match first_label(&edge.labels) {
            Some(name) => (Label::lookup(&name).map(Some), &edge.labels[1..]),
            None => (Some(None), &edge.labels[..]),
        };
        let dir = match edge.direction {
            Direction::Out => StepDir::Out,
            Direction::In => StepDir::In,
            Direction::Undirected => StepDir::Both,
        };
        let graph = &*self.graph;
        let mut out = self.extend_rows(
            &table,
            prev_var,
            edge_var,
            dst_var,
            Bound::Edge,
            |src, cands| {
                if let Some(label) = label {
                    graph.for_each_step(src, dir, label, |e, far| cands.push((e, far)));
                }
            },
        )?;
        out = self.filter_labels(out, edge_var, rest_groups)?;
        for entry in &edge.props {
            out = self.apply_prop_entry(out, edge_var, entry, outer, structural)?;
        }
        self.apply_scan_filters(out, edge_var, outer)
    }

    /// Extend each row of `table` by the steps from its `prev_var` node
    /// that `steps(src, cands)` pushes as `(connection, far end)` pairs:
    /// the connection binds `conn_var` (through `bind`) and the far end
    /// `dst_var`, or must equal a row's value where it binds one already.
    /// A row gains its steps in ascending order, so the table is
    /// deterministic.
    fn extend_rows<C: Copy + Ord>(
        &self,
        table: &BindingTable,
        prev_var: &str,
        conn_var: &str,
        dst_var: &str,
        bind: impl Fn(C) -> Bound,
        mut steps: impl FnMut(NodeId, &mut Vec<(C, NodeId)>),
    ) -> Result<BindingTable> {
        let prev_idx = table
            .column_index(prev_var)
            .ok_or_else(|| SemanticError::UnboundVariable(prev_var.to_owned()))?;
        let conn_bound = table.column_index(conn_var);
        let dst_bound = table.column_index(dst_var);
        let mut columns = table.columns().to_vec();
        if conn_bound.is_none() {
            columns.push(self.col(conn_var));
        }
        if dst_bound.is_none() {
            columns.push(self.col(dst_var));
        }
        // Does the row's cell in an already-bound column differ from `b`?
        let differs = |ri: usize, col: Option<usize>, b: &Bound| {
            col.is_some_and(|i| table.code(ri, i) != table.encode_for_probe(b))
        };

        let mut bld = TableBuilder::new(columns, self.ctx.pool());
        let mut cands: Vec<(C, NodeId)> = Vec::new();
        let mut extra: Vec<Bound> = Vec::with_capacity(2);
        let mut tick = 0u32;
        for ri in 0..table.len() {
            self.ctx.options.cancel.checkpoint(&mut tick)?;
            let Bound::Node(src) = table.bound(ri, prev_idx) else {
                continue;
            };
            cands.clear();
            steps(src, &mut cands);
            cands.sort_unstable();
            for &(c, far) in &cands {
                let (c, far) = (bind(c), Bound::Node(far));
                if differs(ri, conn_bound, &c) || differs(ri, dst_bound, &far) {
                    continue;
                }
                extra.clear();
                if conn_bound.is_none() {
                    extra.push(c);
                }
                if dst_bound.is_none() {
                    extra.push(far);
                }
                bld.push_extended(table, ri, &extra);
            }
        }
        Ok(bld.finish())
    }

    /// Expand rows over one path pattern (computed or stored); `dst` is
    /// the node pattern at its far end. `live`, when given, lists the
    /// columns read after the step, `prev_var`'s not among them.
    #[allow(clippy::too_many_arguments)]
    fn expand_path(
        &self,
        table: BindingTable,
        prev_var: &str,
        path_var: &str,
        dst_var: &str,
        pat: &PathPattern,
        dst: &NodePattern,
        live: Option<&[usize]>,
        outer: Option<&Env<'_>>,
    ) -> Result<BindingTable> {
        if pat.stored {
            return self.expand_stored_path(table, prev_var, path_var, dst_var, pat);
        }
        let Some(regex) = &pat.regex else {
            return Err(SemanticError::InvalidPathPattern(format!(
                "binding '{path_var}' needs a <regex> (only stored-path patterns may omit it)"
            ))
            .into());
        };
        let prof = &self.ctx.profiler;
        let span = prof.start("path-search", || {
            let mode = match pat.mode {
                PathMode::All => "ALL".to_owned(),
                PathMode::Shortest(1) => "shortest".to_owned(),
                PathMode::Shortest(k) => format!("{k}-shortest"),
            };
            format!("{mode} {prev_var}→{dst_var}")
        });
        // Every search starts at `prev_var`, whichever way the pattern
        // points: the automaton is compiled for that reading.
        let nfa = Nfa::compile_directed(regex, pat.direction);
        let views = self.ctx.resolve_views(&nfa, &self.graph)?;
        let searcher = PathSearcher::new(&self.graph, &nfa, &views)
            .with_cancel(self.ctx.options.cancel.clone());

        let prev_idx = table
            .column_index(prev_var)
            .ok_or_else(|| SemanticError::UnboundVariable(prev_var.to_owned()))?;
        let dst_bound = table.column_index(dst_var);
        let binds_path = pat.var.is_some();
        let binds_cost = pat.cost_var.is_some();

        let mut columns = table.columns().to_vec();
        if binds_path {
            columns.push(self.col(path_var));
        }
        if dst_bound.is_none() {
            columns.push(self.col(dst_var));
        }
        if let Some(cv) = &pat.cost_var {
            columns.push(self.col(cv));
        }

        // Pure reachability (`-/<r>/->` with neither path nor cost bound)
        // shares one product search between all rows whose destination
        // is unbound: the SCC-condensed multi-source reachability over
        // their distinct sources. Rows whose destination *is* bound
        // become single-pair tests, answered by the bidirectional search
        // below.
        //
        // The condensation goes through the snapshot, which keeps it
        // under the regex and the definitions of the views it names
        // when its rule allows: a later query with the same regex and
        // views on the same snapshot reuses the per-source destination
        // sets instead of re-condensing.
        let pure_reach = pure_reach(pat);
        let mut shared: FxHashMap<NodeId, Arc<Vec<NodeId>>> = FxHashMap::default();
        if pure_reach {
            let mut srcs: Vec<NodeId> = (0..table.len())
                .filter(|&ri| {
                    !dst_bound.is_some_and(|i| matches!(table.bound(ri, i), Bound::Node(_)))
                })
                .filter_map(|ri| match table.bound(ri, prev_idx) {
                    Bound::Node(s) => Some(s),
                    _ => None,
                })
                .collect();
            srcs.sort_unstable();
            srcs.dedup();
            if !srcs.is_empty() {
                let defs = self.ctx.view_definitions(&nfa.view_names());
                let snapshot = &self.ctx.snapshot;
                shared =
                    snapshot.reachable_many_cached(&self.graph, &nfa, defs, &searcher, &srcs)?;
            }
        }
        // A source nothing reads after the step: one row per distinct
        // live cells and far end, not one per (source, destination).
        if let Some(live) = live.filter(|_| pure_reach && dst_bound.is_none()) {
            let out = self.reach_by_group(&table, prev_idx, live, dst_var, &shared)?;
            prof.add_counter(span, "frontier_pops", searcher.pops());
            prof.finish_rows(span, out.len() as u64);
            return Ok(out);
        }
        // An unbound far end whose scan filters the plan made targets:
        // every row searches towards the same node set. (The filters run
        // again when the destination is constrained — on rows that
        // already satisfy them.)
        let resolved = match dst_bound {
            None => self.far_end_targets(dst_var, dst, outer)?,
            Some(_) => None,
        };
        if let Some(t) = &resolved {
            prof.add_counter(span, "targets", t.len() as u64);
        }

        let mut bld = TableBuilder::new(columns, self.ctx.pool());
        let mut extra: Vec<Bound> = Vec::with_capacity(3);
        let mut tick = 0u32;
        for ri in 0..table.len() {
            // Rows answered from the shared condensation run no search of
            // their own, yet each may emit many rows: poll per row too.
            self.ctx.options.cancel.checkpoint(&mut tick)?;
            let Bound::Node(src) = table.bound(ri, prev_idx) else {
                continue;
            };
            let target: Option<NodeId> = dst_bound.and_then(|i| match table.bound(ri, i) {
                Bound::Node(d) => Some(d),
                _ => None,
            });
            let bound_target: Option<FxHashSet<NodeId>> = match pat.mode {
                PathMode::Shortest(_) if pure_reach => None,
                _ => target.map(|d| [d].into_iter().collect()),
            };
            let targets = bound_target.as_ref().or(resolved.as_ref());

            match pat.mode {
                PathMode::All => {
                    // Graph projection per destination.
                    for (dst, nodes, edges) in searcher.all_paths_from(src, targets)? {
                        extra.clear();
                        if binds_path {
                            extra.push(self.ctx.add_fresh_path(FreshPath::Projection {
                                src,
                                dst,
                                nodes,
                                edges,
                                graph: self.graph.clone(),
                            }));
                        }
                        if dst_bound.is_none() {
                            extra.push(Bound::Node(dst));
                        }
                        bld.push_extended(&table, ri, &extra);
                    }
                }
                PathMode::Shortest(_) if pure_reach => {
                    let dsts: &[NodeId] = match &target {
                        Some(d) if searcher.reachable_pair(src, *d)? => std::slice::from_ref(d),
                        Some(_) => &[],
                        None => shared.get(&src).map_or(&[], |v| v.as_slice()),
                    };
                    for &dst in dsts {
                        extra.clear();
                        if dst_bound.is_none() {
                            extra.push(Bound::Node(dst));
                        }
                        bld.push_extended(&table, ri, &extra);
                    }
                }
                PathMode::Shortest(k) => {
                    let found = searcher.k_shortest(src, k as usize, targets)?;
                    let mut dsts: Vec<NodeId> = found.keys().copied().collect();
                    dsts.sort_unstable();
                    for dst in dsts {
                        for fp in &found[&dst] {
                            extra.clear();
                            if binds_path {
                                extra.push(self.ctx.add_fresh_path(FreshPath::Walk {
                                    shape: fp.walk.clone(),
                                    cost: fp.cost,
                                    weighted: searcher.weighted,
                                    graph: self.graph.clone(),
                                }));
                            }
                            if dst_bound.is_none() {
                                extra.push(Bound::Node(dst));
                            }
                            if binds_cost {
                                extra.push(Bound::Value(if searcher.weighted {
                                    Value::Float(fp.cost)
                                } else {
                                    Value::Int(fp.cost as i64)
                                }));
                            }
                            bld.push_extended(&table, ri, &extra);
                        }
                    }
                }
            }
        }
        let out = bld.finish();
        prof.add_counter(span, "frontier_pops", searcher.pops());
        if searcher.tie_keys() > 0 {
            prof.add_counter(span, "tie_keys", searcher.tie_keys());
        }
        prof.finish_rows(span, out.len() as u64);
        Ok(out)
    }

    /// The rows of a pure reachability step whose source column (at
    /// `src_idx`) is read by nothing after it: rows that agree on the
    /// `live` columns form one group, which reaches the union of its
    /// sources' closures in `shared`. Each distinct closure is read once
    /// per group, into a bitset over node positions, so a group emits each
    /// far end once.
    fn reach_by_group(
        &self,
        table: &BindingTable,
        src_idx: usize,
        live: &[usize],
        dst_var: &str,
        shared: &FxHashMap<NodeId, Arc<Vec<NodeId>>>,
    ) -> Result<BindingTable> {
        let mut columns: Vec<Column> = live.iter().map(|&c| table.columns()[c].clone()).collect();
        columns.push(self.col(dst_var));
        let mut bld = TableBuilder::new(columns, self.ctx.pool());
        let cancel = &self.ctx.options.cancel;
        let groups = RowGroups::build(table.len(), live.len(), cancel, |ri, key| {
            key.extend(live.iter().map(|&c| table.code(ri, c)));
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
                let Bound::Node(src) = table.bound(ri, src_idx) else {
                    continue;
                };
                let Some(closure) = shared.get(&src) else {
                    continue;
                };
                if !read.insert(Arc::as_ptr(closure)) {
                    continue;
                }
                for pos in closure.iter().filter_map(|&n| positions.of(n)) {
                    reached[pos as usize / 64] |= 1 << (pos % 64);
                }
            }
            for (w, word) in reached.iter_mut().enumerate() {
                while *word != 0 {
                    let pos = w * 64 + word.trailing_zeros() as usize;
                    *word &= *word - 1;
                    let far = Bound::Node(positions.id(pos as u32));
                    bld.push_picked(table, group[0], live, &[far]);
                }
            }
        }
        Ok(bld.finish())
    }

    /// Match stored paths (`-/@p:Label/->`), optionally checking regex
    /// conformance.
    fn expand_stored_path(
        &self,
        table: BindingTable,
        prev_var: &str,
        path_var: &str,
        dst_var: &str,
        pat: &PathPattern,
    ) -> Result<BindingTable> {
        let nfa = pat.regex.as_ref().map(Nfa::compile);

        // Candidate stored paths, filtered by labels and regex once.
        let mut candidates: Vec<(gcore_ppg::PathId, &PathData)> = self.graph.paths().collect();
        for group in &pat.labels {
            let resolved: Vec<Option<Label>> = group.0.iter().map(|l| Label::lookup(l)).collect();
            candidates.retain(|(_, d)| {
                resolved
                    .iter()
                    .any(|l| l.is_some_and(|l| d.attrs.labels.contains(l)))
            });
        }
        if let Some(nfa) = &nfa {
            candidates.retain(|(_, d)| conforms(&self.graph, &d.shape, nfa));
        }

        self.extend_rows(
            &table,
            prev_var,
            path_var,
            dst_var,
            Bound::Path,
            |src, cands| {
                for &(p, d) in &candidates {
                    let (a, b) = (d.shape.start(), d.shape.end());
                    let starts_at_src = match pat.direction {
                        Direction::Out => a == src,
                        Direction::In => b == src,
                        Direction::Undirected => a == src || b == src,
                    };
                    if starts_at_src {
                        cands.push((p, if a == src { b } else { a }));
                    }
                }
            },
        )
    }
}

/// Check a concrete walk in `graph` against an NFA.
pub fn conforms(graph: &PathPropertyGraph, shape: &PathShape, nfa: &Nfa) -> bool {
    let node_labels: Vec<Vec<Label>> = shape
        .nodes()
        .iter()
        .map(|&n| graph.labels(n.into()).iter().collect())
        .collect();
    let steps: Vec<(Vec<Label>, bool)> = shape
        .edges()
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            let labels: Vec<Label> = graph.labels(e.into()).iter().collect();
            let (src, _) = graph.endpoints(e).expect("path edge");
            let forward = src == shape.nodes()[i];
            (labels, forward)
        })
        .collect();
    walk_conforms(nfa, &node_labels, &steps)
}
