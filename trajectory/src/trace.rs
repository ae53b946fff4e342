//! The traced pass: replay each distinct statement in-process, single
//! threaded, bracketing the stages in the order the server performs
//! them, with the engine's own `QueryProfile` tree grafted under the
//! evaluate span. Spans live in memory and are written once at exit.
//!
//! ```text
//! op ─┬─ serve.decode_request   decode_frame(request frame)
//!     ├─ snapshot.pin           Engine::executor()
//!     ├─ parser.parse           gcore_parser::parse_statement
//!     ├─ eval                   QueryExecutor::eval_profiled
//!     │    └─ match / plan / pattern / path-search / join / where /
//!     │       optional / construct / select   (QueryProfile, grafted)
//!     ├─ store.encode_result    encode_table / encode_graph
//!     ├─ serve.encode_frames    encode_frame(Header, Chunk…, Done)
//!     ├─ serve.decode_frames    decode_frame ×n
//!     └─ store.decode_result    decode_table / decode_graph
//! probe ── analyze.check        analyze_statement(stmt, None)
//! ```
//!
//! A `probe` root times a layer function that is not separately visible
//! on the trip: the analyzer gate runs *inside* `eval` (so `eval`'s self
//! time contains it). Probes run in a loop of their own after the trips
//! of a pass, so they neither share cache state with a trip nor count
//! in its shares.
//!
//! A `QueryProfile` span carries a duration but no start time; grafted
//! children are laid end to end from their parent's start. Durations —
//! and therefore self times — are the engine's own.

use crate::fixture::Fixture;
use crate::json::{obj, Json};
use crate::stats::median;
use crate::workloads::Stmt;
use gcore::obs::ProfileSpan;
use gcore::{analyze_statement, Engine, QueryOutput};
use gcore_parser::parse_statement;
use gcore_serve::protocol::{
    decode_frame, encode_frame, encode_header, FrameKind, OutputSort, CHUNK_PAYLOAD,
};
use gcore_store::{decode_graph, decode_table, encode_graph, encode_table};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, or the operator tag of a grafted span.
    pub name: &'static str,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the span that caused it; `None` for roots.
    pub parent: Option<usize>,
    /// The replayed statement's index in the pool.
    pub op_id: usize,
}

/// Counts taken at the same boundaries as the spans of one pass.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Statements replayed.
    pub ops: u64,
    /// `QueryProfile::misestimates`, summed.
    pub misestimates: u64,
    /// `frontier_pops` counters of `path-search` spans, summed.
    pub frontier_pops: u64,
    /// Rows of `pattern` spans, summed.
    pub pattern_rows: u64,
    /// Rows of top-level `match` spans, summed.
    pub match_rows: u64,
    /// Statement text bytes parsed.
    pub text_bytes: u64,
    /// Encoded result bytes (before framing).
    pub result_bytes: u64,
    /// Reply bytes on the wire (frames, with headers and checksums).
    pub reply_bytes: u64,
}

/// In-memory span recorder for one pass.
pub struct Recorder {
    origin: Instant,
    /// The spans, in open order.
    pub spans: Vec<Span>,
    /// The counts.
    pub counts: Counts,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Counts::default(),
        }
    }
}

/// Operator tags of `QueryProfile` spans, as static names.
fn op_name(op: &str) -> &'static str {
    match op {
        "match" => "match",
        "plan" => "plan",
        "pattern" => "pattern",
        "path-search" => "path-search",
        "join" => "join",
        "where" => "where",
        "optional" => "optional",
        "construct" => "construct",
        "select" => "select",
        "set-op" => "set-op",
        _ => "other-op",
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, op_id: usize) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Time `f` as a child span of `parent`.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        op_id: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent), op_id);
        let out = f();
        self.close(id);
        out
    }

    /// Graft a profile subtree under `parent`, starting at `start_ns`.
    fn graft(&mut self, span: &ProfileSpan, parent: usize, start_ns: u64, top_level: bool) {
        let op_id = self.spans[parent].op_id;
        let name = op_name(&span.op);
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + span.elapsed.as_nanos() as u64,
            parent: Some(parent),
            op_id,
        });
        match name {
            "pattern" => self.counts.pattern_rows += span.rows.unwrap_or(0),
            "match" if top_level => self.counts.match_rows += span.rows.unwrap_or(0),
            "path-search" => {
                self.counts.frontier_pops += span
                    .counters
                    .iter()
                    .filter(|(k, _)| k == "frontier_pops")
                    .map(|(_, v)| v)
                    .sum::<u64>();
            }
            _ => {}
        }
        let mut at = start_ns;
        for child in &span.children {
            // A SELECT's match is nested under it and is still the
            // statement's top-level match.
            self.graft(child, id, at, top_level && name == "select");
            at += child.elapsed.as_nanos() as u64;
        }
    }

    /// Replay one statement through every stage of the trip.
    ///
    /// # Panics
    ///
    /// If a stage fails: the pool passed the oracle at set-up, so a
    /// failure here is a harness or engine bug, not a measurement.
    pub fn replay(&mut self, engine: &mut Engine, op_id: usize, stmt: &Stmt) -> QueryOutput {
        let request = encode_frame(FrameKind::Query, stmt.text.as_bytes());
        let op = self.open("op", None, op_id);

        let frame = self.span("serve.decode_request", op, op_id, || {
            decode_frame(&request).expect("request frame decodes").0
        });
        let text = std::str::from_utf8(&frame.payload).expect("statement text is utf-8");
        let executor = self.span("snapshot.pin", op, op_id, || engine.executor());
        let parsed = self.span("parser.parse", op, op_id, || {
            parse_statement(text).expect("pool statement parses")
        });

        let eval = self.open("eval", Some(op), op_id);
        let (output, profile) = executor
            .eval_profiled(&parsed)
            .expect("pool statement evaluates");
        self.close(eval);
        let mut at = self.spans[eval].start_ns;
        for top in &profile.spans {
            self.graft(top, eval, at, true);
            at += top.elapsed.as_nanos() as u64;
        }
        self.counts.misestimates += profile.misestimates;

        let (sort, encoded) = self.span("store.encode_result", op, op_id, || match &output {
            QueryOutput::Table(t) => (OutputSort::Table, encode_table(t)),
            QueryOutput::Graph(g) => (OutputSort::Graph, encode_graph(g)),
        });
        let encoded = encoded.expect("result encodes");
        let frames = self.span("serve.encode_frames", op, op_id, || {
            let mut frames = vec![encode_frame(
                FrameKind::Header,
                &encode_header(executor.epoch(), sort),
            )];
            frames.extend(
                encoded
                    .chunks(CHUNK_PAYLOAD)
                    .map(|c| encode_frame(FrameKind::Chunk, c)),
            );
            frames.push(encode_frame(FrameKind::Done, &[]));
            frames
        });
        let body = self.span("serve.decode_frames", op, op_id, || {
            let mut body = Vec::with_capacity(encoded.len());
            for bytes in &frames {
                let (frame, _) = decode_frame(bytes).expect("reply frame decodes");
                if frame.kind == FrameKind::Chunk {
                    body.extend_from_slice(&frame.payload);
                }
            }
            body
        });
        let decoded = self.span("store.decode_result", op, op_id, || match sort {
            OutputSort::Table => QueryOutput::Table(decode_table(&body).expect("table decodes")),
            OutputSort::Graph => QueryOutput::Graph(decode_graph(&body).expect("graph decodes")),
        });
        self.close(op);

        self.counts.ops += 1;
        self.counts.text_bytes += stmt.text.len() as u64;
        self.counts.result_bytes += encoded.len() as u64;
        self.counts.reply_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        decoded
    }

    /// Time the analyzer gate on one statement, outside any trip.
    pub fn probe_analyze(&mut self, op_id: usize, stmt: &Stmt) {
        let parsed = parse_statement(&stmt.text).expect("pool statement parses");
        let probe = self.open("probe", None, op_id);
        self.span("analyze.check", probe, op_id, || {
            black_box(analyze_statement(&parsed, None))
        });
        self.close(probe);
    }

    /// Σ self time (duration − children) per span name, in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            // Children can exceed a parent by clock-read jitter only.
            *by_name.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        by_name
    }

    /// Σ duration of the spans called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The trace file: every span as `{name, start_ns, end_ns, parent,
    /// op_id}`, `parent` an index into the same array or `null`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", s.name.into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("op_id", s.op_id.into()),
                    ])
                })
                .collect(),
        )
    }
}

/// What the replay passes of one traced run produced.
pub struct Replay {
    /// Traced passes timed (after the untimed warm-up pass).
    pub passes: usize,
    /// Counts of one pass (identical on every pass).
    pub counts: Counts,
    /// Per pass: Σ self ns by span name, plus `op.total`, the summed
    /// duration of the trips.
    pass_self_ns: Vec<BTreeMap<&'static str, u64>>,
    /// Per class: p50 of the untraced in-process `executor().run()`.
    pub inproc_class_p50_us: Vec<f64>,
    /// Traced (pin + parse + eval) wall over untraced `executor().run()`
    /// wall, median over passes.
    pub overhead_ratio: f64,
    /// SCC cache lookups of one pass served from the cache …
    pub scc_hits: u64,
    /// … and added to it.
    pub scc_misses: u64,
    /// The spans of the last pass, for the trace file.
    pub last: Recorder,
}

impl Replay {
    /// Median over passes of a span name's self time per op, in µs.
    pub fn layer_us(&self, name: &str) -> f64 {
        let ops = self.counts.ops as f64;
        median(
            &self
                .pass_self_ns
                .iter()
                .map(|p| p.get(name).copied().unwrap_or(0) as f64 / 1e3 / ops)
                .collect::<Vec<_>>(),
        )
    }

    /// Each trip span's share of the summed trips, last pass.
    pub fn share_json(&self) -> Json {
        let last = self.pass_self_ns.last().expect("at least one pass");
        let total = last["op.total"] as f64;
        Json::Obj(
            last.iter()
                .filter(|(name, _)| !matches!(**name, "op.total" | "probe" | "analyze.check"))
                .map(|(name, &ns)| ((*name).to_owned(), (ns as f64 / total).into()))
                .collect(),
        )
    }
}

/// Replay the pool for `budget` (at least one pass): each pass runs an
/// untraced twin — `executor().run()`, what the server's query route
/// does in-process — then the traced trips, then the analyzer probes.
pub fn replay_passes(engine: &mut Engine, fx: &Fixture, budget: Duration) -> Replay {
    // Untimed warm-up: freezes the snapshot, fills the SCC cache.
    for s in &fx.pool {
        engine
            .executor()
            .run(&s.text)
            .expect("pool statement evaluates");
    }
    let mut pass_self_ns = Vec::new();
    let mut inproc_ns: Vec<Vec<f64>> = vec![Vec::new(); fx.by_class.len()];
    let mut ratios = Vec::new();
    let deadline = Instant::now() + budget;
    loop {
        let t = Instant::now();
        for s in &fx.pool {
            let t0 = Instant::now();
            black_box(engine.executor().run(&s.text)).expect("pool statement evaluates");
            inproc_ns[s.class].push(t0.elapsed().as_nanos() as f64);
        }
        let untraced_ns = t.elapsed().as_nanos() as f64;

        let (h0, m0, _) = engine.snapshot().scc_cache_stats();
        let mut rec = Recorder::default();
        for (i, s) in fx.pool.iter().enumerate() {
            black_box(rec.replay(engine, i, s));
        }
        let (h1, m1, _) = engine.snapshot().scc_cache_stats();
        for (i, s) in fx.pool.iter().enumerate() {
            rec.probe_analyze(i, s);
        }
        let mut self_ns = rec.self_times();
        self_ns.insert("op.total", rec.total_ns("op"));
        pass_self_ns.push(self_ns);
        let comparable: u64 = ["snapshot.pin", "parser.parse", "eval"]
            .iter()
            .map(|name| rec.total_ns(name))
            .sum();
        ratios.push(comparable as f64 / untraced_ns);
        if Instant::now() >= deadline {
            return Replay {
                passes: pass_self_ns.len(),
                counts: rec.counts,
                pass_self_ns,
                inproc_class_p50_us: inproc_ns.iter().map(|ns| median(ns) / 1e3).collect(),
                overhead_ratio: median(&ratios),
                scc_hits: h1 - h0,
                scc_misses: m1 - m0,
                last: rec,
            };
        }
    }
}
