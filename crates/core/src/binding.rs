//! Bindings and binding tables — §A.1 of the paper.
//!
//! A binding µ is a partial function from variables to node, edge and path
//! identifiers (extended with literal values for the `{k = e}` unrolling
//! and `COST c`). A [`BindingTable`] is a *set* Ω of bindings with the four
//! operations the appendix defines:
//!
//! * Ω₁ ∪ Ω₂ — union,
//! * Ω₁ ⋈ Ω₂ — natural join of compatible bindings,
//! * Ω₁ ⋉ Ω₂ — semijoin,
//! * Ω₁ ∖ Ω₂ — antijoin,
//! * Ω₁ ⟕ Ω₂ = (Ω₁ ⋈ Ω₂) ∪ (Ω₁ ∖ Ω₂) — left outer join (OPTIONAL), computed
//!   in the same single probe pass as ⋈.
//!
//! Tables are kept sorted and deduplicated (set semantics), which also
//! makes every downstream result deterministic.
//!
//! # Physical layout
//!
//! The table is **columnar**: one `Vec<u64>` per column, each cell a
//! tagged code — the element sort in the top bits, the identifier (or a
//! [`ValueInterner`] code for literals) in the low bits. Joins hash and
//! compare raw codes, sort/dedup runs over a permutation index, and
//! copying a cell is copying one `u64`. [`Bound`] remains the decoded
//! per-cell view; rows as a whole are never materialized. New tables are
//! assembled through [`TableBuilder`].
//!
//! # One pool per evaluation scope
//!
//! Every table encodes its literals against the pool it is built with,
//! and the evaluator hands every builder the pool of the current scope
//! (`EvalCtx::pool`: the statement, or one correlated evaluation). So
//! the literal codes of two tables of one scope are comparable as they
//! are, and no operation translates a code from one pool into another.
//! A binary operation over two tables whose literals come from
//! different pools panics: it has no correct answer to give.
//!
//! Two encoding consequences worth knowing:
//!
//! * **Identifier space.** Element identifiers must fit 61 bits; a
//!   larger (externally derived) id fails a hard assert at encode time.
//!   Every internally generated id is a sequential counter and can
//!   never get near the limit.
//! * **Numeric canonicalization.** `Value`'s structural equality makes
//!   `Int(1) == Float(1.0)`, so the interner gives both one code and a
//!   decoded cell comes back as the first-interned representative. This
//!   matches the table's set semantics — the row-major layout already
//!   merged such rows at dedup time — but means the concrete numeric
//!   variant of a decoded literal is canonical, not verbatim.

use crate::cancel::{CancelToken, CHECK_STRIDE};
use crate::error::Result;
use gcore_ppg::hash::{FxHashMap, FxHasher};
use gcore_ppg::{EdgeId, NodeId, PathId, PathPropertyGraph, Value, ValueInterner};
use std::cmp::Ordering;
use std::hash::Hasher;
use std::sync::Arc;

/// A value bound to a variable — the decoded view of one table cell.
#[derive(Clone, PartialEq, Debug)]
pub enum Bound {
    /// Left-outer-join padding: the variable is unbound in this row.
    Missing,
    /// A node identifier binding.
    Node(NodeId),
    /// An edge identifier binding.
    Edge(EdgeId),
    /// A stored path of the graph (an element of `P`).
    Path(PathId),
    /// A path computed by a path pattern; index into the evaluation
    /// context's fresh-path arena.
    FreshPath(usize),
    /// A literal value (property unrolling, COST variables, FROM columns).
    Value(Value),
}

impl Bound {
    /// Is this a padding entry?
    pub fn is_missing(&self) -> bool {
        matches!(self, Bound::Missing)
    }

    fn rank(&self) -> u8 {
        match self {
            Bound::Missing => 0,
            Bound::Node(_) => 1,
            Bound::Edge(_) => 2,
            Bound::Path(_) => 3,
            Bound::FreshPath(_) => 4,
            Bound::Value(_) => 5,
        }
    }
}

impl Eq for Bound {}

impl Ord for Bound {
    fn cmp(&self, other: &Self) -> Ordering {
        use Bound::*;
        match (self, other) {
            (Node(a), Node(b)) => a.cmp(b),
            (Edge(a), Edge(b)) => a.cmp(b),
            (Path(a), Path(b)) => a.cmp(b),
            (FreshPath(a), FreshPath(b)) => a.cmp(b),
            (Value(a), Value(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl PartialOrd for Bound {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// ---------------------------------------------------------------------
// Cell encoding
// ---------------------------------------------------------------------

/// One encoded cell: sort tag in the top 3 bits, payload below. The tag
/// order mirrors `Bound::rank`, so comparing raw codes orders cells of
/// different sorts (and of the same element sort) exactly like `Bound`'s
/// `Ord`; only `Value` payloads need the interner's rank indirection.
type Code = u64;

const TAG_SHIFT: u32 = 61;
const PAYLOAD_MASK: Code = (1 << TAG_SHIFT) - 1;
const TAG_NODE: u64 = 1;
const TAG_EDGE: u64 = 2;
const TAG_PATH: u64 = 3;
const TAG_FRESH: u64 = 4;
const TAG_VALUE: u64 = 5;
/// `Missing` is all-zeros, so freshly padded cells need no tagging.
const MISSING: Code = 0;

#[inline]
fn pack(tag: u64, payload: u64) -> Code {
    // Hard assert: a user-supplied identifier ≥ 2^61 would silently
    // alias another element's code (or another sort's tag) — fail loudly
    // instead of corrupting join results. Internally generated ids are
    // sequential and can never trip this.
    assert!(payload <= PAYLOAD_MASK, "identifier overflows 61 bits");
    (tag << TAG_SHIFT) | payload
}

#[inline]
fn tag_of(c: Code) -> u64 {
    c >> TAG_SHIFT
}

#[inline]
fn payload_of(c: Code) -> u64 {
    c & PAYLOAD_MASK
}

/// Encode a bound that carries no literal (everything except `Value`).
#[inline]
fn encode_pure(b: &Bound) -> Option<Code> {
    Some(match b {
        Bound::Missing => MISSING,
        Bound::Node(n) => pack(TAG_NODE, n.raw()),
        Bound::Edge(e) => pack(TAG_EDGE, e.raw()),
        Bound::Path(p) => pack(TAG_PATH, p.raw()),
        Bound::FreshPath(i) => pack(TAG_FRESH, *i as u64),
        Bound::Value(_) => return None,
    })
}

fn encode(pool: &ValueInterner, b: &Bound) -> Code {
    match b {
        Bound::Value(v) => pack(TAG_VALUE, pool.intern(v) as u64),
        other => encode_pure(other).expect("non-value bound"),
    }
}

fn decode(pool: &ValueInterner, c: Code) -> Bound {
    let p = payload_of(c);
    match tag_of(c) {
        0 => Bound::Missing,
        TAG_NODE => Bound::Node(NodeId(p)),
        TAG_EDGE => Bound::Edge(EdgeId(p)),
        TAG_PATH => Bound::Path(PathId(p)),
        TAG_FRESH => Bound::FreshPath(p as usize),
        TAG_VALUE => Bound::Value(pool.resolve(p as u32)),
        _ => unreachable!("invalid cell tag"),
    }
}

/// Compare two cells in the `Bound` total order. `rank` is a
/// [`ValueInterner::rank_snapshot`]; equal codes are equal values, and
/// distinct `Value` codes order by the snapshot's value order.
#[inline]
fn cmp_codes(a: Code, b: Code, rank: &[u32]) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    if tag_of(a) == TAG_VALUE && tag_of(b) == TAG_VALUE {
        rank[payload_of(a) as usize].cmp(&rank[payload_of(b) as usize])
    } else {
        a.cmp(&b)
    }
}

/// Lexicographic row comparison over two equal-width cell slices.
#[inline]
fn cmp_rows(a: &[Code], b: &[Code], rank: &[u32]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let c = cmp_codes(*x, *y, rank);
        if c != Ordering::Equal {
            return c;
        }
    }
    Ordering::Equal
}

/// The pool's value order for [`cmp_codes`]; empty (and free) for a table
/// without literal cells, whatever another table has grown the pool to.
fn value_ranks(pool: &ValueInterner, has_values: bool) -> Arc<Vec<u32>> {
    if has_values {
        pool.rank_snapshot()
    } else {
        Arc::new(Vec::new())
    }
}

/// A column of a binding table: the variable name and the graph its
/// element attributes resolve against (λ and σ are per-graph, and views
/// may give the *same identity* different properties — e.g.
/// `nr_messages` exists on `social_graph1`'s knows edges but not on
/// `social_graph`'s).
#[derive(Clone, Debug)]
pub struct Column {
    /// The variable name.
    pub var: String,
    /// The graph whose λ/σ this column's elements resolve against.
    pub graph: Arc<PathPropertyGraph>,
}

/// A set of bindings Ω over a common schema, stored column-major.
///
/// Invariants: rows are sorted and deduplicated in the `Bound` total
/// order, and every column holds exactly `len()` cells.
#[derive(Clone, Debug)]
pub struct BindingTable {
    columns: Vec<Column>,
    /// Column-major cells: `cols[c][r]` is row `r`'s cell in column `c`.
    cols: Vec<Vec<Code>>,
    /// Row count (needed because a zero-column table still has rows).
    nrows: usize,
    /// The literal pool of the scope this table was built in.
    pool: Arc<ValueInterner>,
    /// Whether any cell may carry a `Value` tag (conservative). Gates
    /// the pool rank snapshot during normalization so literal-free
    /// tables never pay for a shared pool another table has grown, and
    /// lets a literal-free table meet a table of any pool.
    has_values: bool,
}

impl BindingTable {
    /// The *unit* table: one binding µ∅ with empty domain, over `pool`.
    /// This is the identity of ⋈ and the seed for CONSTRUCT-without-MATCH.
    pub fn unit(pool: Arc<ValueInterner>) -> Self {
        BindingTable {
            columns: Vec::new(),
            cols: Vec::new(),
            nrows: 1,
            pool,
            has_values: false,
        }
    }

    /// Build from a flat row-major scratch buffer (`nrows` rows of
    /// `columns.len()` cells each) — the join/union kernels emit into one
    /// contiguous allocation, and normalization sorts a permutation over
    /// it with row-local comparisons before the single columnar scatter.
    fn from_flat_rows(
        columns: Vec<Column>,
        pool: Arc<ValueInterner>,
        data: Vec<Code>,
        nrows: usize,
        has_values: bool,
    ) -> Self {
        let width = columns.len();
        debug_assert_eq!(data.len(), nrows * width);
        let mut perm: Vec<u32> = (0..nrows as u32).collect();
        if nrows > 1 {
            let rank = value_ranks(&pool, has_values);
            let rank: &[u32] = &rank;
            perm.sort_unstable_by(|&a, &b| {
                let ra = &data[a as usize * width..][..width];
                let rb = &data[b as usize * width..][..width];
                cmp_rows(ra, rb, rank)
            });
            perm.dedup_by(|a, b| {
                data[*a as usize * width..][..width] == data[*b as usize * width..][..width]
            });
        }
        let cols = (0..width)
            .map(|c| perm.iter().map(|&r| data[r as usize * width + c]).collect())
            .collect();
        BindingTable {
            columns,
            cols,
            nrows: perm.len(),
            pool,
            has_values,
        }
    }

    /// Restore the sorted/deduplicated invariant via a permutation
    /// index: rows are compared in place and materialized exactly once.
    fn normalize(&mut self) {
        if self.nrows <= 1 {
            return;
        }
        let rank = value_ranks(&self.pool, self.has_values);
        let rank: &[u32] = &rank;
        let mut perm: Vec<u32> = (0..self.nrows as u32).collect();
        perm.sort_unstable_by(|&a, &b| {
            for col in &self.cols {
                let c = cmp_codes(col[a as usize], col[b as usize], rank);
                if c != Ordering::Equal {
                    return c;
                }
            }
            Ordering::Equal
        });
        // Equal rows have identical codes (the interner is canonical),
        // so dedup is plain code equality on adjacent permuted rows.
        perm.dedup_by(|a, b| {
            self.cols
                .iter()
                .all(|col| col[*a as usize] == col[*b as usize])
        });
        if self.cols.is_empty() {
            // Zero-column table: all rows are µ∅.
            self.nrows = self.nrows.min(1);
            return;
        }
        self.nrows = perm.len();
        for col in &mut self.cols {
            let new: Vec<Code> = perm.iter().map(|&r| col[r as usize]).collect();
            *col = new;
        }
    }

    /// Column metadata.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Variable names, in column order.
    pub fn var_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.var.as_str()).collect()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.nrows
    }

    /// True when Ω = ∅.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// The literal pool this table encodes `Value` cells against.
    pub fn pool(&self) -> &Arc<ValueInterner> {
        &self.pool
    }

    /// Index of a variable's column.
    pub fn column_index(&self, var: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.var == var)
    }

    /// Does the schema contain `var`?
    pub fn binds(&self, var: &str) -> bool {
        self.column_index(var).is_some()
    }

    /// Decode the cell at (`row`, `col`).
    ///
    /// ```
    /// use gcore::binding::{Bound, Column, TableBuilder};
    /// use gcore_ppg::{NodeId, PathPropertyGraph, ValueInterner};
    /// use std::sync::Arc;
    ///
    /// let g = Arc::new(PathPropertyGraph::new());
    /// let pool = Arc::new(ValueInterner::new());
    /// let mut b = TableBuilder::new(vec![Column { var: "x".into(), graph: g }], pool);
    /// b.push(&[Bound::Node(NodeId(7))]);
    /// let table = b.finish();
    /// assert_eq!(table.bound(0, 0), Bound::Node(NodeId(7)));
    /// ```
    pub fn bound(&self, row: usize, col: usize) -> Bound {
        decode(&self.pool, self.cols[col][row])
    }

    /// The binding of `var` in `row` (`None` if the column is absent;
    /// `Some(Missing)` if padded).
    ///
    /// ```
    /// use gcore::binding::{Bound, Column, TableBuilder};
    /// use gcore_ppg::{NodeId, PathPropertyGraph, ValueInterner};
    /// use std::sync::Arc;
    ///
    /// let g = Arc::new(PathPropertyGraph::new());
    /// let pool = Arc::new(ValueInterner::new());
    /// let mut b = TableBuilder::new(vec![Column { var: "x".into(), graph: g }], pool);
    /// b.push(&[Bound::Node(NodeId(7))]);
    /// let table = b.finish();
    /// assert_eq!(table.get(0, "x"), Some(Bound::Node(NodeId(7))));
    /// assert_eq!(table.get(0, "y"), None); // no such column
    /// ```
    pub fn get(&self, row: usize, var: &str) -> Option<Bound> {
        self.column_index(var).map(|c| self.bound(row, c))
    }

    /// The interner code of the cell at (`row`, `col`) when it holds a
    /// literal, `None` for every other sort. Crate-private fast path:
    /// literal-heavy loops resolve the code through
    /// [`ValueInterner::with_resolved`], skipping the per-cell clone
    /// that [`bound`](Self::bound) would pay.
    pub(crate) fn value_code(&self, row: usize, col: usize) -> Option<u32> {
        let c = self.cols[col][row];
        (tag_of(c) == TAG_VALUE).then(|| payload_of(c) as u32)
    }

    /// Is the cell at (`row`, `col`) padding?
    pub fn is_missing_at(&self, row: usize, col: usize) -> bool {
        self.cols[col][row] == MISSING
    }

    /// Raw encoded cell — equal codes mean equal bindings. Crate-private
    /// fast path for the matcher's already-bound checks.
    pub(crate) fn code(&self, row: usize, col: usize) -> u64 {
        self.cols[col][row]
    }

    /// Encode `b` against this table's pool without storing it, for raw
    /// comparisons against [`code`](Self::code).
    pub(crate) fn encode_for_probe(&self, b: &Bound) -> u64 {
        encode(&self.pool, b)
    }

    /// The order CONSTRUCT sorts its group keys by: lexicographic over
    /// raw cells, each pair compared the way `Rv::total_cmp` orders the
    /// decoded values — NULL < literals (by value, not by interning
    /// order) < nodes < edges < paths < fresh paths. `Bound`'s own order
    /// (and so row order) ranks literals *last*; skolem identifiers are
    /// minted in group order, so the difference is observable. Key parts
    /// that are not cells of this table (endpoint identifiers, group
    /// ordinals) must be plain numbers below 2⁶¹; they compare as such.
    pub(crate) fn rv_key_order(&self) -> impl Fn(&[u64], &[u64]) -> Ordering {
        let rank = value_ranks(&self.pool, self.has_values);
        move |a, b| {
            for (&x, &y) in a.iter().zip(b) {
                let c = match (tag_of(x) == TAG_VALUE, tag_of(y) == TAG_VALUE) {
                    (true, false) if y != MISSING => Ordering::Less,
                    (false, true) if x != MISSING => Ordering::Greater,
                    _ => cmp_codes(x, y, &rank),
                };
                if c != Ordering::Equal {
                    return c;
                }
            }
            a.len().cmp(&b.len())
        }
    }

    /// This table with extra columns appended, given cell by cell. Row
    /// order is kept (nothing is re-normalized), so row indexes stay
    /// aligned with `self` — CONSTRUCT's WHEN pass binds its construct
    /// variables this way.
    pub(crate) fn with_columns(&self, extra: Vec<(Column, Vec<Bound>)>) -> BindingTable {
        let mut t = self.clone();
        for (column, cells) in extra {
            debug_assert_eq!(cells.len(), t.nrows);
            let codes: Vec<Code> = cells.iter().map(|b| encode(&t.pool, b)).collect();
            t.has_values |= codes.iter().any(|&c| tag_of(c) == TAG_VALUE);
            t.columns.push(column);
            t.cols.push(codes);
        }
        t
    }

    /// Keep only rows satisfying the predicate (row order preserved — a
    /// subset of a sorted, deduplicated table needs no re-normalizing).
    /// The predicate may fail (the first error wins and ends the pass),
    /// and `cancel` is polled once per [`CHECK_STRIDE`] rows, so a filter
    /// over a huge table stops within its deadline; a token that never
    /// fires has no effect on the result.
    pub fn try_filter(
        &self,
        cancel: &CancelToken,
        mut pred: impl FnMut(usize) -> Result<bool>,
    ) -> Result<BindingTable> {
        let mut keep: Vec<u32> = Vec::new();
        let mut tick = 0u32;
        for r in 0..self.nrows {
            cancel.checkpoint(&mut tick)?;
            if pred(r)? {
                keep.push(r as u32);
            }
        }
        Ok(self.rows_at(&keep))
    }

    /// The rows at `keep` (ascending indexes), in their order: a subset
    /// of a sorted, deduplicated table, so nothing is re-normalized.
    fn rows_at(&self, keep: &[u32]) -> BindingTable {
        let cols = self
            .cols
            .iter()
            .map(|col| keep.iter().map(|&r| col[r as usize]).collect())
            .collect();
        BindingTable {
            columns: self.columns.clone(),
            cols,
            nrows: keep.len(),
            pool: self.pool.clone(),
            has_values: self.has_values,
        }
    }

    /// The distinct node identifiers of column `col`, ascending — read
    /// from the raw codes, nothing is decoded. `None` when any cell is
    /// not a node (`Missing` padding of an OPTIONAL, or another sort):
    /// such a column cannot seed a pattern, because an unbound cell is
    /// compatible with every binding of the other side.
    pub(crate) fn distinct_nodes(&self, col: usize) -> Option<Vec<NodeId>> {
        let mut ids = Vec::with_capacity(self.nrows);
        for &c in &self.cols[col] {
            if tag_of(c) != TAG_NODE {
                return None;
            }
            ids.push(NodeId(payload_of(c)));
        }
        ids.sort_unstable();
        ids.dedup();
        Some(ids)
    }

    /// Project to a subset of variables (dropping others, deduplicating).
    pub fn project(&self, vars: &[&str]) -> BindingTable {
        let idxs: Vec<usize> = vars.iter().filter_map(|v| self.column_index(v)).collect();
        let mut t = BindingTable {
            columns: idxs.iter().map(|&i| self.columns[i].clone()).collect(),
            cols: idxs.iter().map(|&i| self.cols[i].clone()).collect(),
            nrows: self.nrows,
            pool: self.pool.clone(),
            has_values: self.has_values,
        };
        t.normalize();
        t
    }

    /// Ω₁ ∪ Ω₂. Schemas are aligned by union of variables; rows missing a
    /// column are padded with `Missing`.
    pub fn union(&self, other: &BindingTable) -> BindingTable {
        let (columns, map_a, map_b) = merged_schema(self, other);
        let width = columns.len();
        let pool = common_pool(self, other);
        let mut data = Vec::with_capacity((self.nrows + other.nrows) * width);
        for r in 0..self.nrows {
            let base = data.len();
            data.resize(base + width, MISSING);
            for (i, &mi) in map_a.iter().enumerate() {
                data[base + mi] = self.cols[i][r];
            }
        }
        for r in 0..other.nrows {
            let base = data.len();
            data.resize(base + width, MISSING);
            for (i, &mi) in map_b.iter().enumerate() {
                data[base + mi] = other.cols[i][r];
            }
        }
        BindingTable::from_flat_rows(
            columns,
            pool,
            data,
            self.nrows + other.nrows,
            self.has_values || other.has_values,
        )
    }

    /// Ω₁ ⋈ Ω₂ — all unions µ₁ ∪ µ₂ of compatible bindings.
    ///
    /// `Missing` is treated as "unbound": compatible with anything, and
    /// the non-missing side wins in the merged row. This matches the
    /// partial-function reading of §A.1.
    ///
    /// Every join kind polls `cancel` about once per [`CHECK_STRIDE`]
    /// candidate row pairs and fails with
    /// [`RuntimeError::Cancelled`](crate::error::RuntimeError) once it
    /// fires, so even a single explosive product stops within its
    /// deadline. A token that never fires has no effect on the result.
    pub fn join(&self, other: &BindingTable, cancel: &CancelToken) -> Result<BindingTable> {
        self.join_inner(other, JoinKind::Inner, cancel)
    }

    /// Ω₁ ⋉ Ω₂ — bindings of Ω₁ compatible with at least one of Ω₂.
    pub fn semijoin(&self, other: &BindingTable, cancel: &CancelToken) -> Result<BindingTable> {
        self.join_inner(other, JoinKind::Semi, cancel)
    }

    /// Ω₁ ∖ Ω₂ — bindings of Ω₁ compatible with none of Ω₂.
    pub fn antijoin(&self, other: &BindingTable, cancel: &CancelToken) -> Result<BindingTable> {
        self.join_inner(other, JoinKind::Anti, cancel)
    }

    /// Ω₁ ⟕ Ω₂ = (Ω₁ ⋈ Ω₂) ∪ (Ω₁ ∖ Ω₂) — the OPTIONAL operator, in one
    /// probe pass: a left row no right row is compatible with is emitted
    /// once, padded with `Missing`.
    pub fn left_outer_join(
        &self,
        other: &BindingTable,
        cancel: &CancelToken,
    ) -> Result<BindingTable> {
        self.join_inner(other, JoinKind::LeftOuter, cancel)
    }

    /// The one hash join behind ⋈, ⋉, ∖ and ⟕.
    fn join_inner(
        &self,
        other: &BindingTable,
        kind: JoinKind,
        cancel: &CancelToken,
    ) -> Result<BindingTable> {
        // Shared variables drive a hash join on encoded keys; rows with
        // Missing in a shared column fall back to a scan bucket (they
        // are compatible with every key).
        let shared: Vec<(usize, usize)> = self
            .columns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| other.column_index(&c.var).map(|j| (i, j)))
            .collect();

        let (columns, map_a, map_b) = merged_schema(self, other);
        let width = columns.len();
        let pool = common_pool(self, other);

        // Partition `other` rows: fully-keyed rows are grouped by their
        // key; rows with a Missing shared column are checked by scan.
        let mut wild: Vec<usize> = Vec::new();
        let keyed = RowGroups::build(other.nrows, shared.len(), cancel, |r, key| {
            key.extend(shared.iter().map(|&(_, j)| other.cols[j][r]));
            let full = !key.contains(&MISSING);
            if !full {
                wild.push(r);
            }
            Ok(full)
        })?;

        let compatible = |a_row: usize, b_row: usize| {
            shared.iter().all(|&(i, j)| {
                let a = self.cols[i][a_row];
                let b = other.cols[j][b_row];
                a == MISSING || b == MISSING || a == b
            })
        };

        // One flat row-major scratch buffer for the emitted rows — no
        // per-row allocation on the join's hot path.
        let mut data: Vec<Code> = Vec::new();
        let mut emitted = 0usize;
        // ⋈ and ⟕ emit merged rows; ⋉ and ∖ only need existence and keep
        // left rows as they are, by index.
        let merges = matches!(kind, JoinKind::Inner | JoinKind::LeftOuter);
        let mut kept: Vec<u32> = Vec::new();
        let mut key = Vec::with_capacity(shared.len());
        // Candidate pairs examined since the last poll. Counting pairs
        // rather than probe rows bounds the work between polls even
        // when a few probe rows face a huge build side (a product).
        let mut unpolled = 0usize;
        for a_row in 0..self.nrows {
            key.clear();
            key.extend(shared.iter().map(|&(i, _)| self.cols[i][a_row]));
            // `None`: a Missing key cell — every build row is a candidate.
            let bucket: Option<&[usize]> = if key.contains(&MISSING) {
                None
            } else {
                Some(keyed.find(&key).map_or(&[], |g| keyed.rows(g)))
            };
            unpolled += 1 + bucket.map_or(other.nrows, |b| b.len() + wild.len());
            if unpolled >= CHECK_STRIDE as usize {
                unpolled = 0;
                cancel.check()?;
            }
            let mut matched = false;
            let emit = |b_row: usize, data: &mut Vec<Code>, emitted: &mut usize| {
                if !compatible(a_row, b_row) {
                    return false;
                }
                if merges {
                    let base = data.len();
                    data.resize(base + width, MISSING);
                    for (i, &mi) in map_a.iter().enumerate() {
                        data[base + mi] = self.cols[i][a_row];
                    }
                    for (bi, &mi) in map_b.iter().enumerate() {
                        if data[base + mi] == MISSING {
                            data[base + mi] = other.cols[bi][b_row];
                        }
                    }
                    *emitted += 1;
                }
                true
            };
            // Stop probing at the first compatible row when existence
            // is all that is asked.
            let exists_only = !merges;
            match bucket {
                None => {
                    for b_row in 0..other.nrows {
                        matched |= emit(b_row, &mut data, &mut emitted);
                        if matched && exists_only {
                            break;
                        }
                    }
                }
                Some(idxs) => {
                    for &b_row in idxs.iter().chain(&wild) {
                        matched |= emit(b_row, &mut data, &mut emitted);
                        if matched && exists_only {
                            break;
                        }
                    }
                }
            }
            match kind {
                JoinKind::Semi | JoinKind::Anti => {
                    if matched == (kind == JoinKind::Semi) {
                        kept.push(a_row as u32);
                    }
                }
                JoinKind::LeftOuter if !matched => {
                    // The left columns are the merged schema's prefix.
                    data.extend(self.cols.iter().map(|c| c[a_row]));
                    data.resize(data.len() + width - self.cols.len(), MISSING);
                    emitted += 1;
                }
                JoinKind::Inner | JoinKind::LeftOuter => {}
            }
        }
        Ok(if merges {
            BindingTable::from_flat_rows(
                columns,
                pool,
                data,
                emitted,
                self.has_values || other.has_values,
            )
        } else {
            // Left rows in left order: already normalized.
            self.rows_at(&kept)
        })
    }
}

/// Rows partitioned by a `width`-word key, with nothing allocated per
/// row: the groups' keys in one flat array (group `g`'s is
/// `keys[g · width..][..width]`), their rows in one offset-indexed array,
/// and a key found by its hash through a chain of the groups that share
/// it. A hash join's build side and CONSTRUCT's grouping sets both
/// partition this way.
pub(crate) struct RowGroups {
    width: usize,
    keys: Vec<u64>,
    /// The last group with each key hash, and each group's predecessor
    /// with the same hash.
    by_hash: FxHashMap<u64, usize>,
    same_hash: Vec<usize>,
    /// Group `g`'s rows (ascending): `rows[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    rows: Vec<usize>,
}

const NO_GROUP: usize = usize::MAX;

impl RowGroups {
    /// Partition rows `0..nrows` by the key `key` writes for each
    /// (`false`: the row joins no group). `cancel` is polled once per
    /// [`CHECK_STRIDE`] rows.
    pub(crate) fn build(
        nrows: usize,
        width: usize,
        cancel: &CancelToken,
        mut key: impl FnMut(usize, &mut Vec<u64>) -> Result<bool>,
    ) -> Result<RowGroups> {
        let mut groups = RowGroups {
            width,
            keys: Vec::new(),
            by_hash: FxHashMap::default(),
            same_hash: Vec::new(),
            starts: Vec::new(),
            rows: Vec::new(),
        };
        // Row counts per group first; they become offsets below.
        let mut counts: Vec<usize> = Vec::new();
        let mut group_of: Vec<usize> = vec![NO_GROUP; nrows];
        let mut buf: Vec<u64> = Vec::with_capacity(width);
        let mut tick = 0u32;
        for (ri, group) in group_of.iter_mut().enumerate() {
            cancel.checkpoint(&mut tick)?;
            buf.clear();
            if !key(ri, &mut buf)? {
                continue;
            }
            debug_assert_eq!(buf.len(), width);
            let hash = hash_key(&buf);
            let g = match groups.find_hashed(hash, &buf) {
                Some(g) => g,
                None => {
                    let g = counts.len();
                    groups.keys.extend_from_slice(&buf);
                    counts.push(0);
                    let previous = groups.by_hash.insert(hash, g);
                    groups.same_hash.push(previous.unwrap_or(NO_GROUP));
                    g
                }
            };
            counts[g] += 1;
            *group = g;
        }

        // Rows by group, ascending within each: offsets from the counts,
        // then one pass over the rows.
        let n = counts.len();
        groups.starts.reserve_exact(n + 1);
        groups.starts.push(0);
        for (g, count) in counts.iter().enumerate() {
            groups.starts.push(groups.starts[g] + count);
        }
        counts.copy_from_slice(&groups.starts[..n]);
        groups.rows = vec![0; groups.starts[n]];
        for (ri, &g) in group_of.iter().enumerate() {
            if g != NO_GROUP {
                groups.rows[counts[g]] = ri;
                counts[g] += 1;
            }
        }
        Ok(groups)
    }

    /// The number of groups.
    pub(crate) fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Group `g`'s key.
    pub(crate) fn key(&self, g: usize) -> &[u64] {
        &self.keys[g * self.width..][..self.width]
    }

    /// Group `g`'s rows, ascending.
    pub(crate) fn rows(&self, g: usize) -> &[usize] {
        &self.rows[self.starts[g]..self.starts[g + 1]]
    }

    /// The group whose key is `key`, if any.
    pub(crate) fn find(&self, key: &[u64]) -> Option<usize> {
        self.find_hashed(hash_key(key), key)
    }

    fn find_hashed(&self, hash: u64, key: &[u64]) -> Option<usize> {
        let mut g = self.by_hash.get(&hash).copied().unwrap_or(NO_GROUP);
        while g != NO_GROUP && self.keys[g * self.width..][..self.width] != *key {
            g = self.same_hash[g];
        }
        (g != NO_GROUP).then_some(g)
    }
}

fn hash_key(key: &[u64]) -> u64 {
    let mut hasher = FxHasher::default();
    for &w in key {
        hasher.write_u64(w);
    }
    hasher.finish()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum JoinKind {
    Inner,
    Semi,
    Anti,
    LeftOuter,
}

/// The pool a binary operation's result encodes against. Tables of one
/// evaluation scope share the scope's pool, and a side without literal
/// cells holds no code that needs one; literals of two different pools
/// have codes that do not compare, and nothing translates them.
fn common_pool(a: &BindingTable, b: &BindingTable) -> Arc<ValueInterner> {
    if Arc::ptr_eq(&a.pool, &b.pool) || !b.has_values {
        a.pool.clone()
    } else if !a.has_values {
        b.pool.clone()
    } else {
        panic!("{CROSS_POOL}")
    }
}

const CROSS_POOL: &str = "binding tables with literals from different value pools: \
                          every table of one evaluation scope is built with the scope's pool";

/// Merged schema of two tables; returns (columns, map_a, map_b) where
/// map_x[i] is the merged index of x's column i.
fn merged_schema(a: &BindingTable, b: &BindingTable) -> (Vec<Column>, Vec<usize>, Vec<usize>) {
    let mut columns: Vec<Column> = a.columns.clone();
    let map_a: Vec<usize> = (0..a.columns.len()).collect();
    let mut map_b = Vec::with_capacity(b.columns.len());
    for c in &b.columns {
        match columns.iter().position(|x| x.var == c.var) {
            Some(i) => map_b.push(i),
            None => {
                columns.push(c.clone());
                map_b.push(columns.len() - 1);
            }
        }
    }
    (columns, map_a, map_b)
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Assembles a [`BindingTable`] row by row. The only way to create a
/// table with content — producers either push decoded [`Bound`]s or
/// extend rows of a table built with the same pool (a raw `u64` copy).
pub struct TableBuilder {
    columns: Vec<Column>,
    cols: Vec<Vec<Code>>,
    nrows: usize,
    pool: Arc<ValueInterner>,
    has_values: bool,
}

impl TableBuilder {
    /// A builder whose literal cells are encoded against `pool` — the
    /// pool of the evaluation scope the table belongs to.
    pub fn new(columns: Vec<Column>, pool: Arc<ValueInterner>) -> Self {
        let cols = vec![Vec::new(); columns.len()];
        TableBuilder {
            columns,
            cols,
            nrows: 0,
            pool,
            has_values: false,
        }
    }

    /// Append one row of decoded bounds (must match the schema width).
    pub fn push(&mut self, row: &[Bound]) {
        debug_assert_eq!(row.len(), self.columns.len());
        for (c, b) in row.iter().enumerate() {
            let code = encode(&self.pool, b);
            self.has_values |= tag_of(code) == TAG_VALUE;
            self.cols[c].push(code);
        }
        self.nrows += 1;
    }

    /// Append `src`'s row followed by `extra` cells; the source columns
    /// must form the builder schema's prefix.
    pub fn push_extended(&mut self, src: &BindingTable, row: usize, extra: &[Bound]) {
        let scols = src.cols.len();
        debug_assert_eq!(scols + extra.len(), self.columns.len());
        self.push_prefix(src, row);
        for (i, b) in extra.iter().enumerate() {
            let code = encode(&self.pool, b);
            self.has_values |= tag_of(code) == TAG_VALUE;
            self.cols[scols + i].push(code);
        }
        self.nrows += 1;
    }

    /// Append `src`'s cells at `cols`, in that order, followed by `extra`
    /// cells.
    pub(crate) fn push_picked(
        &mut self,
        src: &BindingTable,
        row: usize,
        cols: &[usize],
        extra: &[Bound],
    ) {
        debug_assert_eq!(cols.len() + extra.len(), self.columns.len());
        assert!(
            !src.has_values || Arc::ptr_eq(&self.pool, &src.pool),
            "{CROSS_POOL}"
        );
        for (i, &c) in cols.iter().enumerate() {
            let code = src.cols[c][row];
            self.has_values |= tag_of(code) == TAG_VALUE;
            self.cols[i].push(code);
        }
        for (i, b) in extra.iter().enumerate() {
            let code = encode(&self.pool, b);
            self.has_values |= tag_of(code) == TAG_VALUE;
            self.cols[cols.len() + i].push(code);
        }
        self.nrows += 1;
    }

    /// [`push_extended`](Self::push_extended) by one value cell, taken
    /// by reference: the pool clones `v` only the first time it sees it.
    pub fn push_extended_value(&mut self, src: &BindingTable, row: usize, v: &Value) {
        debug_assert_eq!(src.cols.len() + 1, self.columns.len());
        self.push_prefix(src, row);
        let code = pack(TAG_VALUE, self.pool.intern(v) as u64);
        self.has_values = true;
        self.cols[src.cols.len()].push(code);
        self.nrows += 1;
    }

    /// Push `src`'s row onto the builder's leading columns.
    fn push_prefix(&mut self, src: &BindingTable, row: usize) {
        assert!(
            !src.has_values || Arc::ptr_eq(&self.pool, &src.pool),
            "{CROSS_POOL}"
        );
        for (c, col) in src.cols.iter().enumerate() {
            let code = col[row];
            self.has_values |= tag_of(code) == TAG_VALUE;
            self.cols[c].push(code);
        }
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.nrows
    }

    /// Finish into a normalized (sorted, deduplicated) table.
    pub fn finish(self) -> BindingTable {
        let mut t = BindingTable {
            columns: self.columns,
            cols: self.cols,
            nrows: self.nrows,
            pool: self.pool,
            has_values: self.has_values,
        };
        t.normalize();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Arc<PathPropertyGraph> {
        Arc::new(PathPropertyGraph::new())
    }

    fn col(v: &str) -> Column {
        Column {
            var: v.into(),
            graph: g(),
        }
    }

    fn n(i: u64) -> Bound {
        Bound::Node(NodeId(i))
    }

    thread_local! {
        /// One pool per test (each test runs on a thread of its own),
        /// as the tables of one evaluation scope share theirs.
        static POOL: Arc<ValueInterner> = Arc::default();
    }

    fn pool() -> Arc<ValueInterner> {
        POOL.with(Arc::clone)
    }

    fn table(vars: &[&str], rows: Vec<Vec<Bound>>) -> BindingTable {
        table_in(pool(), vars, rows)
    }

    fn table_in(pool: Arc<ValueInterner>, vars: &[&str], rows: Vec<Vec<Bound>>) -> BindingTable {
        let mut b = TableBuilder::new(vars.iter().map(|v| col(v)).collect(), pool);
        for r in &rows {
            b.push(r);
        }
        b.finish()
    }

    /// Decode a whole row for assertions.
    fn row(t: &BindingTable, r: usize) -> Vec<Bound> {
        (0..t.columns().len()).map(|c| t.bound(r, c)).collect()
    }

    #[test]
    fn unit_is_join_identity() {
        let t = table(&["x"], vec![vec![n(1)], vec![n(2)]]);
        let j = t
            .join(&BindingTable::unit(pool()), &CancelToken::new())
            .unwrap();
        assert_eq!(j.len(), 2);
        let j2 = BindingTable::unit(pool())
            .join(&t, &CancelToken::new())
            .unwrap();
        assert_eq!(j2.len(), 2);
        assert_eq!(j2.var_names(), vec!["x"]);
    }

    #[test]
    fn rows_are_set_semantics() {
        let t = table(&["x"], vec![vec![n(1)], vec![n(1)], vec![n(2)]]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn rows_sort_in_bound_order() {
        let t = table(
            &["x"],
            vec![
                vec![Bound::Value(Value::str("b"))],
                vec![n(5)],
                vec![Bound::Value(Value::str("a"))],
                vec![Bound::Missing],
            ],
        );
        assert_eq!(row(&t, 0), vec![Bound::Missing]);
        assert_eq!(row(&t, 1), vec![n(5)]);
        assert_eq!(row(&t, 2), vec![Bound::Value(Value::str("a"))]);
        assert_eq!(row(&t, 3), vec![Bound::Value(Value::str("b"))]);
    }

    #[test]
    fn join_on_shared_variable() {
        // The appendix's worked example shape: x→{105,102} joined with
        // (x,y) pairs.
        let a = table(&["x"], vec![vec![n(105)], vec![n(102)]]);
        let b = table(&["x", "y"], vec![vec![n(105), n(102)], vec![n(7), n(8)]]);
        let j = a.join(&b, &CancelToken::new()).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(row(&j, 0), vec![n(105), n(102)]);
    }

    #[test]
    fn join_disjoint_schemas_is_cartesian_product() {
        let a = table(&["x"], vec![vec![n(1)], vec![n(2)]]);
        let b = table(&["y"], vec![vec![n(10)], vec![n(20)], vec![n(30)]]);
        assert_eq!(a.join(&b, &CancelToken::new()).unwrap().len(), 6);
    }

    #[test]
    fn join_on_literal_values() {
        let a = table(
            &["x", "v"],
            vec![
                vec![n(1), Bound::Value(Value::str("cwi"))],
                vec![n(2), Bound::Value(Value::str("mit"))],
            ],
        );
        let b = table(&["v"], vec![vec![Bound::Value(Value::str("mit"))]]);
        let j = a.join(&b, &CancelToken::new()).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(row(&j, 0), vec![n(2), Bound::Value(Value::str("mit"))]);
    }

    #[test]
    #[should_panic(expected = "different value pools")]
    fn a_join_refuses_literals_from_two_pools() {
        // The same values, interned in another order: raw codes would
        // silently pair "mit" with "cwi".
        let a = table_in(
            Arc::default(),
            &["v"],
            vec![vec![Bound::Value(Value::str("cwi"))]],
        );
        let b = table_in(
            Arc::default(),
            &["v"],
            vec![vec![Bound::Value(Value::str("mit"))]],
        );
        let _ = a.join(&b, &CancelToken::new());
    }

    #[test]
    fn semijoin_and_antijoin() {
        let a = table(&["x"], vec![vec![n(1)], vec![n(2)], vec![n(3)]]);
        let b = table(&["x", "y"], vec![vec![n(1), n(9)], vec![n(3), n(9)]]);
        let s = a.semijoin(&b, &CancelToken::new()).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.var_names(), vec!["x"]);
        let d = a.antijoin(&b, &CancelToken::new()).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(row(&d, 0), vec![n(2)]);
    }

    #[test]
    fn left_outer_join_pads_with_missing() {
        let a = table(&["x"], vec![vec![n(1)], vec![n(2)]]);
        let b = table(&["x", "y"], vec![vec![n(1), n(9)]]);
        let l = a.left_outer_join(&b, &CancelToken::new()).unwrap();
        assert_eq!(l.len(), 2);
        // Row for x=2 has y missing.
        let xi = l.column_index("x").unwrap();
        let yi = l.column_index("y").unwrap();
        let r2 = (0..l.len()).find(|&r| l.bound(r, xi) == n(2)).unwrap();
        assert!(l.bound(r2, yi).is_missing());
    }

    #[test]
    fn missing_is_compatible_with_anything() {
        let a = table(
            &["x", "y"],
            vec![vec![Bound::Missing, n(5)], vec![n(1), n(6)]],
        );
        let b = table(&["x"], vec![vec![n(1)]]);
        let j = a.join(&b, &CancelToken::new()).unwrap();
        // Missing x row joins (x filled in), bound x=1 row joins too.
        assert_eq!(j.len(), 2);
        let xi = j.column_index("x").unwrap();
        for r in 0..j.len() {
            assert_eq!(j.bound(r, xi), n(1));
        }
    }

    #[test]
    fn union_aligns_schemas() {
        let a = table(&["x"], vec![vec![n(1)]]);
        let b = table(&["y"], vec![vec![n(2)]]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert_eq!(u.columns().len(), 2);
    }

    #[test]
    fn project_dedups() {
        let t = table(&["x", "y"], vec![vec![n(1), n(10)], vec![n(1), n(20)]]);
        let p = t.project(&["x"]);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn left_outer_join_keeps_every_left_row_once() {
        // x=1 matches twice, x=2 never, and the Missing-x row is
        // compatible with both right rows.
        let a = table(&["x"], vec![vec![n(1)], vec![n(2)], vec![Bound::Missing]]);
        let b = table(&["x", "y"], vec![vec![n(1), n(8)], vec![n(1), n(9)]]);
        let l = a.left_outer_join(&b, &CancelToken::new()).unwrap();
        assert_eq!(l.var_names(), vec!["x", "y"]);
        let rows: Vec<Vec<Bound>> = (0..l.len()).map(|r| row(&l, r)).collect();
        assert_eq!(
            rows,
            vec![
                vec![n(1), n(8)],
                vec![n(1), n(9)],
                vec![n(2), Bound::Missing],
            ]
        );
        assert_eq!(rows, {
            let u = a
                .join(&b, &CancelToken::new())
                .unwrap()
                .union(&a.antijoin(&b, &CancelToken::new()).unwrap());
            (0..u.len()).map(|r| row(&u, r)).collect::<Vec<_>>()
        });
    }

    #[test]
    fn distinct_nodes_needs_a_pure_node_column() {
        let t = table(
            &["x", "y"],
            vec![vec![n(3), n(7)], vec![n(1), n(7)], vec![n(3), n(8)]],
        );
        assert_eq!(t.distinct_nodes(0), Some(vec![NodeId(1), NodeId(3)]));
        assert_eq!(t.distinct_nodes(1), Some(vec![NodeId(7), NodeId(8)]));
        let padded = table(&["x"], vec![vec![n(1)], vec![Bound::Missing]]);
        assert_eq!(padded.distinct_nodes(0), None);
        let edges = table(&["e"], vec![vec![Bound::Edge(EdgeId(4))]]);
        assert_eq!(edges.distinct_nodes(0), None);
    }

    #[test]
    fn every_join_kind_fails_on_a_fired_token() {
        // No shared variable: every left row faces every right row, so
        // the probe examines 64 × 64 candidate pairs — several strides.
        let side = |var: &str| table(&[var], (0..64).map(|i| vec![n(i)]).collect());
        let (a, b) = (side("x"), side("y"));
        assert!(a.len() * b.len() >= CHECK_STRIDE as usize);
        let live = CancelToken::new();
        let fired = CancelToken::new();
        fired.cancel();
        type Join = fn(&BindingTable, &BindingTable, &CancelToken) -> Result<BindingTable>;
        let kinds: [(&str, Join, usize); 4] = [
            ("join", BindingTable::join, 64 * 64),
            ("semijoin", BindingTable::semijoin, 64),
            ("antijoin", BindingTable::antijoin, 0),
            ("left_outer_join", BindingTable::left_outer_join, 64 * 64),
        ];
        for (name, join, rows) in kinds {
            assert_eq!(join(&a, &b, &live).unwrap().len(), rows, "{name}");
            let err = join(&a, &b, &fired).expect_err(name);
            assert!(err.is_cancelled(), "{name}: {err}");
        }
    }

    #[test]
    fn try_filter_stops_at_the_first_error_and_at_a_fired_token() {
        let t = table(&["x"], vec![vec![n(1)], vec![n(2)], vec![n(3)]]);
        let live = CancelToken::new();
        let kept = t.try_filter(&live, |r| Ok(r != 1)).unwrap();
        assert_eq!(kept.len(), 2);
        let mut seen = 0;
        let err = t.try_filter(&live, |r| {
            seen += 1;
            if r == 1 {
                Err(crate::error::RuntimeError::DivisionByZero.into())
            } else {
                Ok(true)
            }
        });
        assert!(err.is_err());
        assert_eq!(seen, 2, "rows after the failing one are not evaluated");
        // Polling is strided: a fired token is noticed within one stride.
        let big = table(
            &["x"],
            (0..2 * u64::from(CHECK_STRIDE))
                .map(|i| vec![n(i)])
                .collect(),
        );
        let fired = CancelToken::new();
        fired.cancel();
        let err = big.try_filter(&fired, |_| Ok(true)).unwrap_err();
        assert!(err.is_cancelled());
    }

    #[test]
    fn filter_keeps_schema() {
        let t = table(&["x"], vec![vec![n(1)], vec![n(2)]]);
        let keep_two = |r| Ok(t.bound(r, 0) == n(2));
        let f = t.try_filter(&CancelToken::new(), keep_two).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f.var_names(), vec!["x"]);
    }

    #[test]
    fn derived_tables_share_the_pool() {
        let t = table(&["x"], vec![vec![Bound::Value(Value::Int(3))]]);
        let f = t.try_filter(&CancelToken::new(), |_| Ok(true)).unwrap();
        assert!(Arc::ptr_eq(t.pool(), f.pool()));
        let p = t.project(&["x"]);
        assert!(Arc::ptr_eq(t.pool(), p.pool()));
    }
}
