//! The versioned binary graph format.
//!
//! One file holds one [`PathPropertyGraph`]. Layout (all integers
//! little-endian, strings UTF-8 with a `u32` byte-length prefix):
//!
//! ```text
//! header   magic "GCOREPPG" (8 bytes)
//!          u32 version          — currently 1
//!          u32 label_count      — symbols used by this graph
//!          u32 key_count
//!          u64 node_count
//!          u64 edge_count
//!          u64 path_count
//! sections 4 × { u8 tag, u64 payload_len, payload, u64 fnv1a64(payload) }
//!          tag 1 = symbols, 2 = nodes, 3 = edges, 4 = paths — in order
//! ```
//!
//! The **symbols** payload writes each label name then each key name,
//! sorted by name — the interned symbol table, written once; elements
//! reference symbols by their `u32` index into these sorted lists, so
//! files never embed process-local symbol numbers. The **nodes** /
//! **edges** / **paths** payloads list elements in the canonical export
//! order ([`gcore_ppg::sorted_elements`]: ascending identifier), each as
//! its identifier(s) plus an attribute block (sorted label refs, then
//! properties sorted by key ref, each value set in [`Value`] total
//! order — exactly the order [`gcore_ppg::PropertySet`] stores).
//!
//! Together these rules make the writer **deterministic**: two equal
//! graphs (`==` on `PathPropertyGraph`) encode to byte-identical files
//! in any process, regardless of interner state or insertion order.
//!
//! The format is self-contained and append-free by design — the seam
//! for future backends (mmap readers, sharded section files, remote
//! object stores) without touching the data model.

use crate::error::StoreError;
use crate::wire::{fnv1a64, put_str, put_u32, put_u64, Cursor};
use gcore_ppg::export::ElementRef;
use gcore_ppg::{
    sorted_elements, Attributes, Date, GraphError, Key, Label, PathPropertyGraph, PathShape,
    PropertyMap, PropertySet, Table, Value,
};

/// The 8-byte magic every graph file starts with.
pub const MAGIC: [u8; 8] = *b"GCOREPPG";

/// The 8-byte magic every table file starts with.
pub const TABLE_MAGIC: [u8; 8] = *b"GCORETBL";

/// The format version this build writes (and the only one it reads).
pub const FORMAT_VERSION: u32 = 1;

const TAG_SYMBOLS: u8 = 1;
const TAG_NODES: u8 = 2;
const TAG_EDGES: u8 = 3;
const TAG_PATHS: u8 = 4;

const VALUE_BOOL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_FLOAT: u8 = 2;
const VALUE_STR: u8 = 3;
const VALUE_DATE: u8 = 4;

// ---------------------------------------------------------------------
// Symbol table
// ---------------------------------------------------------------------

/// The file-local symbol table: labels and keys used by one graph,
/// sorted by name so that local indexes are process-independent.
struct SymbolTable {
    labels: Vec<String>,
    keys: Vec<String>,
    /// Local ref of each label the graph uses, indexed by its process
    /// symbol number ([`Label::raw`]); other slots are unused.
    label_refs: Vec<u32>,
    /// Local ref of each key the graph uses, indexed by [`Key::raw`].
    key_refs: Vec<u32>,
}

/// A `label_refs` / `key_refs` slot no element has named yet.
const UNSEEN: u32 = u32::MAX;

/// Mark process symbol `raw` as used; true the first time.
fn first_use(refs: &mut Vec<u32>, raw: u32) -> bool {
    let slot = raw as usize;
    if slot >= refs.len() {
        refs.resize(slot + 1, UNSEEN);
    }
    let first = refs[slot] == UNSEEN;
    refs[slot] = 0;
    first
}

/// Number the used symbols in name order: fill each one's slot in
/// `refs` with its local ref and return the names in ref order.
fn number_by_name(refs: &mut [u32], mut used: Vec<(String, u32)>) -> Vec<String> {
    // Interned names are distinct, so the order is total.
    used.sort_unstable();
    used.into_iter()
        .enumerate()
        .map(|(local, (name, raw))| {
            refs[raw as usize] = local as u32;
            name
        })
        .collect()
}

impl SymbolTable {
    /// One pass over every element in storage order, noting each
    /// distinct symbol; then each used name is resolved once.
    fn collect(g: &PathPropertyGraph) -> Self {
        let mut label_refs = Vec::new();
        let mut key_refs = Vec::new();
        let mut labels = Vec::new();
        let mut keys = Vec::new();
        let mut visit = |attrs: &Attributes| {
            for l in attrs.labels.iter() {
                if first_use(&mut label_refs, l.raw()) {
                    labels.push(l);
                }
            }
            for k in attrs.properties.keys() {
                if first_use(&mut key_refs, k.raw()) {
                    keys.push(*k);
                }
            }
        };
        for (_, d) in g.nodes() {
            visit(&d.attrs);
        }
        for (_, d) in g.edges() {
            visit(&d.attrs);
        }
        for (_, d) in g.paths() {
            visit(&d.attrs);
        }
        let labels = number_by_name(
            &mut label_refs,
            labels.into_iter().map(|l| (l.name(), l.raw())).collect(),
        );
        let keys = number_by_name(
            &mut key_refs,
            keys.into_iter().map(|k| (k.name(), k.raw())).collect(),
        );
        SymbolTable {
            labels,
            keys,
            label_refs,
            key_refs,
        }
    }

    fn label_ref(&self, l: Label) -> u32 {
        self.label_refs[l.raw() as usize]
    }

    fn key_ref(&self, k: Key) -> u32 {
        self.key_refs[k.raw() as usize]
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Tag for `Value::Null`, legal only in table cells (property sets
/// never store Null — absence and ∅ coincide, §2).
const VALUE_NULL: u8 = 5;

fn encode_value(out: &mut Vec<u8>, v: &Value) -> Result<(), StoreError> {
    match v {
        Value::Bool(b) => {
            out.push(VALUE_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(VALUE_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(VALUE_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VALUE_STR);
            put_str(out, s);
        }
        Value::Date(d) => {
            out.push(VALUE_DATE);
            out.extend_from_slice(&d.year.to_le_bytes());
            out.push(d.month);
            out.push(d.day);
        }
        // Property sets never store Null (absence and ∅ coincide, §2).
        Value::Null => {
            return Err(StoreError::Corrupt(
                "Null cannot be stored in a property set".into(),
            ))
        }
    }
    Ok(())
}

/// Per-element sort space, reused across a whole encode so that writing
/// an attribute block allocates nothing.
#[derive(Default)]
struct Scratch<'g> {
    label_refs: Vec<u32>,
    props: Vec<(u32, &'g PropertySet)>,
}

fn encode_attrs<'g>(
    out: &mut Vec<u8>,
    attrs: &'g Attributes,
    symbols: &SymbolTable,
    scratch: &mut Scratch<'g>,
) -> Result<(), StoreError> {
    let label_refs = &mut scratch.label_refs;
    label_refs.clear();
    label_refs.extend(attrs.labels.iter().map(|l| symbols.label_ref(l)));
    label_refs.sort_unstable();
    put_u32(out, label_refs.len() as u32);
    for &r in label_refs.iter() {
        put_u32(out, r);
    }
    // Properties sorted by local key ref (= key-name order), values in
    // PropertySet's stored order (Value total order) — both
    // content-determined, never process-determined.
    let props = &mut scratch.props;
    props.clear();
    props.extend(
        attrs
            .properties
            .iter()
            .map(|(k, vs)| (symbols.key_ref(*k), vs)),
    );
    props.sort_unstable_by_key(|(r, _)| *r);
    put_u32(out, props.len() as u32);
    for &(key_ref, values) in props.iter() {
        put_u32(out, key_ref);
        put_u32(out, values.len() as u32);
        for v in values.iter() {
            encode_value(out, v)?;
        }
    }
    Ok(())
}

/// Start a section envelope in `out`: its tag and a length placeholder.
/// Returns where the payload begins, for [`close_section`].
fn open_section(out: &mut Vec<u8>, tag: u8) -> usize {
    out.push(tag);
    put_u64(out, 0);
    out.len()
}

/// End the section whose payload began at `start`: fill in its length
/// and append its checksum.
fn close_section(out: &mut Vec<u8>, start: usize) {
    let len = (out.len() - start) as u64;
    out[start - 8..start].copy_from_slice(&len.to_le_bytes());
    let checksum = fnv1a64(&out[start..]);
    put_u64(out, checksum);
}

/// Close the open `section` (its tag and payload start) and open the
/// next, until the one tagged `tag` is open.
fn advance_section(out: &mut Vec<u8>, section: &mut (u8, usize), tag: u8) {
    while section.0 < tag {
        close_section(out, section.1);
        section.0 += 1;
        section.1 = open_section(out, section.0);
    }
}

/// Encode `g` into the versioned binary format.
///
/// Deterministic: equal graphs yield byte-identical output — pinned by
/// the round-trip test suite and relied on by content-addressed and
/// diff-friendly storage.
pub fn encode_graph(g: &PathPropertyGraph) -> Result<Vec<u8>, StoreError> {
    let symbols = SymbolTable::collect(g);

    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, symbols.labels.len() as u32);
    put_u32(&mut out, symbols.keys.len() as u32);
    put_u64(&mut out, g.node_count() as u64);
    put_u64(&mut out, g.edge_count() as u64);
    put_u64(&mut out, g.path_count() as u64);

    let start = open_section(&mut out, TAG_SYMBOLS);
    for name in symbols.labels.iter().chain(&symbols.keys) {
        put_str(&mut out, name);
    }
    close_section(&mut out, start);

    // The canonical order lists nodes, then edges, then paths, so the
    // section being written advances with the element sort.
    let mut scratch = Scratch::default();
    let mut section = (TAG_NODES, open_section(&mut out, TAG_NODES));
    for el in sorted_elements(g) {
        match el {
            ElementRef::Node(id, d) => {
                put_u64(&mut out, id.raw());
                encode_attrs(&mut out, &d.attrs, &symbols, &mut scratch)?;
            }
            ElementRef::Edge(id, d) => {
                advance_section(&mut out, &mut section, TAG_EDGES);
                put_u64(&mut out, id.raw());
                put_u64(&mut out, d.src.raw());
                put_u64(&mut out, d.dst.raw());
                encode_attrs(&mut out, &d.attrs, &symbols, &mut scratch)?;
            }
            ElementRef::Path(id, d) => {
                advance_section(&mut out, &mut section, TAG_PATHS);
                put_u64(&mut out, id.raw());
                put_u32(&mut out, d.shape.nodes().len() as u32);
                for n in d.shape.nodes() {
                    put_u64(&mut out, n.raw());
                }
                for e in d.shape.edges() {
                    put_u64(&mut out, e.raw());
                }
                encode_attrs(&mut out, &d.attrs, &symbols, &mut scratch)?;
            }
        }
    }
    advance_section(&mut out, &mut section, TAG_PATHS);
    close_section(&mut out, section.1);
    Ok(out)
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn decode_value(cur: &mut Cursor<'_>) -> Result<Value, StoreError> {
    match cur.u8()? {
        VALUE_BOOL => match cur.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            b => Err(StoreError::Corrupt(format!("bad bool byte {b}"))),
        },
        VALUE_INT => Ok(Value::Int(cur.i64()?)),
        VALUE_FLOAT => Ok(Value::Float(f64::from_bits(cur.u64()?))),
        VALUE_STR => Ok(Value::Str(cur.str()?.to_owned())),
        VALUE_DATE => {
            let year = cur.i32()?;
            let month = cur.u8()?;
            let day = cur.u8()?;
            Date::new(year, month, day).map(Value::Date).ok_or_else(|| {
                StoreError::Corrupt(format!("invalid date {year:04}-{month:02}-{day:02}"))
            })
        }
        tag => Err(StoreError::Corrupt(format!("unknown value tag {tag}"))),
    }
}

fn decode_attrs(
    cur: &mut Cursor<'_>,
    labels: &[Label],
    keys: &[Key],
) -> Result<Attributes, StoreError> {
    // Sets are built by insertion, so they come out sorted and
    // deduplicated whatever order the file lists them in. A first label
    // and a one-value set are stored inline, and the property map is
    // sized once — clamped by the 8 bytes (key ref, value count) each
    // entry takes at least.
    let mut attrs = Attributes::new();
    let nlabels = cur.u32()? as usize;
    for _ in 0..nlabels {
        let r = cur.u32()? as usize;
        let label = *labels
            .get(r)
            .ok_or_else(|| StoreError::Corrupt(format!("label ref {r} out of range")))?;
        attrs.labels.insert(label);
    }
    let nprops = cur.u32()? as usize;
    attrs.properties = PropertyMap::with_capacity(cur.capacity_for(nprops, 8));
    for _ in 0..nprops {
        let r = cur.u32()? as usize;
        let key = *keys
            .get(r)
            .ok_or_else(|| StoreError::Corrupt(format!("key ref {r} out of range")))?;
        let nvalues = cur.u32()? as usize;
        let mut set = PropertySet::empty();
        for _ in 0..nvalues {
            set.insert(decode_value(cur)?);
        }
        attrs.set_prop(key, set);
    }
    Ok(attrs)
}

/// Step over one attribute block without building it: the degree
/// count reads only an edge's endpoints.
fn skip_attrs(cur: &mut Cursor<'_>) -> Result<(), StoreError> {
    for _ in 0..cur.u32()? {
        let _label_ref = cur.u32()?;
    }
    for _ in 0..cur.u32()? {
        let _key_ref = cur.u32()?;
        for _ in 0..cur.u32()? {
            let len = match cur.u8()? {
                VALUE_BOOL => 1,
                VALUE_INT | VALUE_FLOAT => 8,
                VALUE_STR => cur.u32()? as usize,
                VALUE_DATE => 6,
                tag => return Err(StoreError::Corrupt(format!("unknown value tag {tag}"))),
            };
            cur.take(len)?;
        }
    }
    Ok(())
}

/// Read one section envelope: expect `tag`, verify the checksum, return
/// the payload slice.
fn read_section<'a>(
    cur: &mut Cursor<'a>,
    tag: u8,
    name: &'static str,
) -> Result<&'a [u8], StoreError> {
    let actual = cur.u8()?;
    if actual != tag {
        return Err(StoreError::Corrupt(format!(
            "expected section tag {tag} ({name}), found {actual}"
        )));
    }
    let len = cur.u64()? as usize;
    let payload = cur.take(len)?;
    let checksum = cur.u64()?;
    if checksum != fnv1a64(payload) {
        return Err(StoreError::ChecksumMismatch { section: name });
    }
    Ok(payload)
}

/// Decode a graph previously produced by [`encode_graph`].
///
/// Validates the magic, version, every section checksum, all symbol
/// references and the graph's own well-formedness (edges must connect
/// existing nodes, stored paths must be connected walks); trailing
/// bytes after the last section are rejected. The round-trip identity
/// `decode_graph(&encode_graph(g)?) == g` holds for every well-formed
/// graph.
pub fn decode_graph(bytes: &[u8]) -> Result<PathPropertyGraph, StoreError> {
    let mut cur = Cursor::new(bytes);
    if cur.take(MAGIC.len())? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = cur.u32()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let label_count = cur.u32()? as usize;
    let key_count = cur.u32()? as usize;
    let node_count = cur.u64()? as usize;
    let edge_count = cur.u64()? as usize;
    let path_count = cur.u64()? as usize;

    // Symbols: re-intern into this process's tables. Counts come from
    // the (unchecksummed) header, so preallocation is clamped by what
    // the payload could physically hold — a corrupt count must surface
    // as a decode error, never as a giant allocation (each entry costs
    // at least its 4-byte length prefix).
    let payload = read_section(&mut cur, TAG_SYMBOLS, "symbols")?;
    let mut sym = Cursor::new(payload);
    let mut labels = Vec::with_capacity(sym.capacity_for(label_count, 4));
    for _ in 0..label_count {
        labels.push(Label::new(sym.str()?));
    }
    let mut keys = Vec::with_capacity(sym.capacity_for(key_count, 4));
    for _ in 0..key_count {
        keys.push(Key::new(sym.str()?));
    }
    if !sym.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes in symbols".into()));
    }

    // The element sections, then room for every element they hold at
    // once — clamped, like the symbols, by the fewest bytes an entry
    // takes: a node 16 (id, label and property counts), an edge 32
    // (three ids, two counts), a path 28 (id, node count, one node, two
    // counts).
    let nodes = read_section(&mut cur, TAG_NODES, "nodes")?;
    let edges = read_section(&mut cur, TAG_EDGES, "edges")?;
    let paths = read_section(&mut cur, TAG_PATHS, "paths")?;
    let mut g = PathPropertyGraph::new();
    g.reserve(
        Cursor::new(nodes).capacity_for(node_count, 16),
        Cursor::new(edges).capacity_for(edge_count, 32),
        Cursor::new(paths).capacity_for(path_count, 28),
    );

    // The file lists the nodes ascending, so each insert appends.
    let mut sec = Cursor::new(nodes);
    for _ in 0..node_count {
        let id = gcore_ppg::NodeId(sec.u64()?);
        let attrs = decode_attrs(&mut sec, &labels, &keys)?;
        g.add_node(id, attrs);
    }
    if !sec.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes in nodes".into()));
    }
    if g.node_count() != node_count {
        return Err(StoreError::Corrupt("duplicate node identifiers".into()));
    }

    // Each edge's endpoints, resolved to node positions once, and each
    // node's out- and in-degree, counted by position in one pass over
    // the checksummed edge section, so every adjacency list is sized
    // once and the decoding pass pushes onto it by position.
    let mut ends = Vec::with_capacity(Cursor::new(edges).capacity_for(edge_count, 32));
    let mut degrees = vec![(0usize, 0usize); g.node_count()];
    let mut sec = Cursor::new(edges);
    let at = g.positions();
    for _ in 0..edge_count {
        let edge = gcore_ppg::EdgeId(sec.u64()?);
        let mut end = || {
            let node = gcore_ppg::NodeId(sec.u64()?);
            at.of(node)
                .ok_or(StoreError::Graph(GraphError::DanglingEdge { edge, node }))
        };
        let (src, dst) = (end()?, end()?);
        skip_attrs(&mut sec)?;
        degrees[src as usize].0 += 1;
        degrees[dst as usize].1 += 1;
        ends.push((src, dst));
    }
    for (pos, (out, incoming)) in (0..).zip(degrees) {
        if out + incoming > 0 {
            g.reserve_adjacency(pos, out, incoming);
        }
    }

    let mut sec = Cursor::new(edges);
    for (src, dst) in ends {
        let id = gcore_ppg::EdgeId(sec.u64()?);
        // The endpoints, resolved above.
        sec.u64()?;
        sec.u64()?;
        let attrs = decode_attrs(&mut sec, &labels, &keys)?;
        g.add_edge_at(id, src, dst, attrs)?;
    }
    if !sec.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes in edges".into()));
    }
    if g.edge_count() != edge_count {
        return Err(StoreError::Corrupt("duplicate edge identifiers".into()));
    }

    let mut sec = Cursor::new(paths);
    for _ in 0..path_count {
        let id = gcore_ppg::PathId(sec.u64()?);
        let nnodes = sec.u32()? as usize;
        if nnodes == 0 {
            return Err(StoreError::Corrupt(format!("path {id} has no nodes")));
        }
        // nnodes is checksummed but still untrusted (a malicious file
        // can carry a valid checksum): clamp by the 8 bytes each entry
        // must occupy in what remains of the section.
        let cap = sec.capacity_for(nnodes, 8);
        let mut nodes = Vec::with_capacity(cap);
        for _ in 0..nnodes {
            nodes.push(gcore_ppg::NodeId(sec.u64()?));
        }
        let mut edges = Vec::with_capacity(cap.saturating_sub(1));
        for _ in 0..nnodes - 1 {
            edges.push(gcore_ppg::EdgeId(sec.u64()?));
        }
        let attrs = decode_attrs(&mut sec, &labels, &keys)?;
        let shape = PathShape::new(nodes, edges)
            .ok_or_else(|| StoreError::Corrupt(format!("path {id} shape is not alternating")))?;
        g.add_path(id, shape, attrs)?;
    }
    if !sec.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes in paths".into()));
    }
    if g.path_count() != path_count {
        return Err(StoreError::Corrupt("duplicate path identifiers".into()));
    }

    if !cur.is_empty() {
        return Err(StoreError::Corrupt(
            "trailing bytes after last section".into(),
        ));
    }
    Ok(g)
}

// ---------------------------------------------------------------------
// Tables (§5 named inputs)
// ---------------------------------------------------------------------

/// Encode a named value table: `TABLE_MAGIC`, version, column/row
/// counts, then one checksummed section holding the column names and
/// every row. Unlike property sets, table cells may hold `Null`.
pub fn encode_table(t: &Table) -> Result<Vec<u8>, StoreError> {
    let mut payload = Vec::new();
    for name in t.columns() {
        put_str(&mut payload, name);
    }
    for row in t.rows() {
        for v in row {
            match v {
                Value::Null => payload.push(VALUE_NULL),
                other => encode_value(&mut payload, other)?,
            }
        }
    }
    let mut out = Vec::with_capacity(TABLE_MAGIC.len() + 24 + payload.len() + 8);
    out.extend_from_slice(&TABLE_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, t.columns().len() as u32);
    put_u64(&mut out, t.rows().len() as u64);
    out.extend_from_slice(&payload);
    put_u64(&mut out, fnv1a64(&payload));
    Ok(out)
}

/// Decode a table previously produced by [`encode_table`].
pub fn decode_table(bytes: &[u8]) -> Result<Table, StoreError> {
    let mut cur = Cursor::new(bytes);
    if cur.take(TABLE_MAGIC.len())? != TABLE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = cur.u32()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let col_count = cur.u32()? as usize;
    let row_count = cur.u64()? as usize;
    let payload_len = cur
        .remaining()
        .checked_sub(8)
        .ok_or(StoreError::Truncated)?;
    let payload = cur.take(payload_len)?;
    let checksum = cur.u64()?;
    if checksum != fnv1a64(payload) {
        return Err(StoreError::ChecksumMismatch { section: "table" });
    }

    // col_count/row_count live outside the checksummed payload: clamp
    // preallocations by what the payload could physically hold (each
    // column needs its 4-byte length prefix, each cell a tag byte).
    let mut sec = Cursor::new(payload);
    let mut columns = Vec::with_capacity(sec.capacity_for(col_count, 4));
    for _ in 0..col_count {
        columns.push(sec.str()?.to_owned());
    }
    let mut table =
        Table::new(columns).map_err(|e| StoreError::Corrupt(format!("bad table header: {e}")))?;
    let cell_cap = sec.capacity_for(col_count, 1);
    for _ in 0..row_count {
        let mut row = Vec::with_capacity(cell_cap);
        for _ in 0..col_count {
            if sec.peek() == Some(VALUE_NULL) {
                sec.u8()?;
                row.push(Value::Null);
            } else {
                row.push(decode_value(&mut sec)?);
            }
        }
        table
            .push_row(row)
            .map_err(|e| StoreError::Corrupt(format!("bad table row: {e}")))?;
    }
    if !sec.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes in table".into()));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcore_ppg::{EdgeId, NodeId, PathId};

    fn sample() -> PathPropertyGraph {
        let mut g = PathPropertyGraph::new();
        g.add_node(
            NodeId(1),
            Attributes::labeled("Person")
                .with_prop("name", "Ann")
                .with_prop_set(
                    "employer",
                    PropertySet::from_values([Value::str("CWI"), Value::str("MIT")]),
                ),
        );
        g.add_node(NodeId(2), Attributes::labeled("Person"));
        g.add_edge(
            EdgeId(3),
            NodeId(1),
            NodeId(2),
            Attributes::labeled("knows")
                .with_prop("since", Value::Date(Date::new(2014, 12, 1).unwrap())),
        )
        .unwrap();
        g.add_path(
            PathId(4),
            PathShape::new(vec![NodeId(1), NodeId(2)], vec![EdgeId(3)]).unwrap(),
            Attributes::labeled("route").with_prop("trust", 0.95),
        )
        .unwrap();
        g
    }

    #[test]
    fn round_trip_sample() {
        let g = sample();
        let bytes = encode_graph(&g).unwrap();
        let back = decode_graph(&bytes).unwrap();
        back.validate().unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn round_trip_empty_graph() {
        let g = PathPropertyGraph::new();
        let bytes = encode_graph(&g).unwrap();
        assert_eq!(decode_graph(&bytes).unwrap(), g);
    }

    #[test]
    fn writer_is_deterministic_across_insertion_orders() {
        let a = sample();
        // Same content, different insertion order (and thus different
        // hash-map iteration and adjacency construction order).
        let mut b = PathPropertyGraph::new();
        b.add_node(NodeId(2), Attributes::labeled("Person"));
        b.add_node(
            NodeId(1),
            Attributes::labeled("Person")
                .with_prop_set(
                    "employer",
                    PropertySet::from_values([Value::str("MIT"), Value::str("CWI")]),
                )
                .with_prop("name", "Ann"),
        );
        b.add_edge(
            EdgeId(3),
            NodeId(1),
            NodeId(2),
            Attributes::labeled("knows")
                .with_prop("since", Value::Date(Date::new(2014, 12, 1).unwrap())),
        )
        .unwrap();
        b.add_path(
            PathId(4),
            PathShape::new(vec![NodeId(1), NodeId(2)], vec![EdgeId(3)]).unwrap(),
            Attributes::labeled("route").with_prop("trust", 0.95),
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(encode_graph(&a).unwrap(), encode_graph(&b).unwrap());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_graph(&sample()).unwrap();
        bytes[0] ^= 0xff;
        assert!(matches!(decode_graph(&bytes), Err(StoreError::BadMagic)));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = encode_graph(&sample()).unwrap();
        bytes[8] = 99;
        assert!(matches!(
            decode_graph(&bytes),
            Err(StoreError::BadVersion(99))
        ));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = encode_graph(&sample()).unwrap();
        for len in 0..bytes.len() {
            assert!(
                decode_graph(&bytes[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_its_section_checksum() {
        let g = sample();
        let clean = encode_graph(&g).unwrap();
        // Flip a byte inside the nodes section payload: locate it by
        // walking the envelope exactly as the decoder does.
        let sym_len_at = MAGIC.len() + 4 + 4 + 4 + 8 + 8 + 8 + 1;
        let sym_len =
            u64::from_le_bytes(clean[sym_len_at..sym_len_at + 8].try_into().unwrap()) as usize;
        let nodes_payload_at = sym_len_at + 8 + sym_len + 8 + 1 + 8;
        let mut bytes = clean.clone();
        bytes[nodes_payload_at] ^= 0x01;
        match decode_graph(&bytes) {
            Err(StoreError::ChecksumMismatch { section }) => assert_eq!(section, "nodes"),
            other => panic!("expected nodes checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_graph(&sample()).unwrap();
        bytes.push(0);
        assert!(matches!(decode_graph(&bytes), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn table_round_trip_including_null_cells() {
        let mut t = Table::new(vec!["id", "näme", "maybe"]).unwrap();
        t.push_row(vec![Value::Int(1), Value::str("Ann"), Value::Null])
            .unwrap();
        t.push_row(vec![
            Value::Float(2.5),
            Value::str("ünïcødé 🦀"),
            Value::Bool(true),
        ])
        .unwrap();
        let bytes = encode_table(&t).unwrap();
        let back = decode_table(&bytes).unwrap();
        assert_eq!(back.columns(), t.columns());
        assert_eq!(back.rows(), t.rows());
        // Determinism + corruption detection.
        assert_eq!(bytes, encode_table(&t).unwrap());
        for len in 0..bytes.len() {
            assert!(decode_table(&bytes[..len]).is_err());
        }
        let mut corrupt = bytes.clone();
        let at = bytes.len() - 10;
        corrupt[at] ^= 0x04;
        assert!(decode_table(&corrupt).is_err());
    }

    #[test]
    fn empty_table_round_trips() {
        let t = Table::new(vec!["only"]).unwrap();
        let back = decode_table(&encode_table(&t).unwrap()).unwrap();
        assert_eq!(back.columns(), t.columns());
        assert!(back.rows().is_empty());
    }

    #[test]
    fn float_bit_patterns_survive() {
        let mut g = PathPropertyGraph::new();
        g.add_node(
            NodeId(1),
            Attributes::new()
                .with_prop("nan", f64::NAN)
                .with_prop("neg0", -0.0f64)
                .with_prop("inf", f64::INFINITY),
        );
        let back = decode_graph(&encode_graph(&g).unwrap()).unwrap();
        assert_eq!(back, g);
        let nan = back.prop(NodeId(1).into(), Key::new("nan"));
        match nan.as_singleton().unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            v => panic!("expected float, got {v:?}"),
        }
    }
}
