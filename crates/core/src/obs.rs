//! Observability: execution profiles, a unified metrics registry, and
//! the `EXPLAIN ANALYZE` rendering.
//!
//! Three pieces, all std-only and all designed around the same
//! constraint as cooperative cancellation ([`crate::cancel`]): **zero
//! result impact, near-zero cost when disabled**.
//!
//! * **[`Profiler`] / [`QueryProfile`]** — a per-statement tree of
//!   operator spans (planning, pattern expansion, joins, path search,
//!   WHERE, CONSTRUCT, SELECT), collected at the same loop boundaries
//!   the [`CancelToken`](crate::cancel::CancelToken) already polls.
//!   The profiler lives on the [`EvalCtx`](crate::EvalCtx); when
//!   disabled (the default) every call site is one `Option` branch and
//!   no clock is ever read. Profiling can never change results — the
//!   differential suite (`tests/profile_equivalence.rs`) pins
//!   profiling-on ≡ profiling-off over the whole corpus.
//! * **[`MetricsRegistry`]** — named counters, gauges and log₂
//!   histograms behind `Arc`-shared relaxed atomics. The engine
//!   registers its core metrics here ([`CoreMetrics`]) and the serving
//!   layer's `ServerStats` is built over the same types; the registry
//!   renders itself as Prometheus-style exposition text.
//! * **`EXPLAIN ANALYZE`** — [`QueryProfile::render`] prints the
//!   profile tree in a stable, golden-pinnable format: per-operator
//!   actual row counts, planner estimates with misestimate markers,
//!   and timings (redactable, so the structure can be pinned while the
//!   timings vary run to run).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

/// Number of log₂ histogram buckets: bucket `i` counts observations in
/// `[2^i, 2^{i+1})` (microseconds for latency histograms), the last
/// bucket absorbing everything larger.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A lock-free log₂-bucketed histogram. Recording is one relaxed
/// `fetch_add` per observation (plus one for the running sum);
/// concurrent recorders never contend beyond the cache line.
#[derive(Default, Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Sum of raw observed values (µs for latency histograms), for the
    /// Prometheus `_sum` series.
    sum: AtomicU64,
}

impl Histogram {
    /// Count one observed duration (bucketed by microseconds).
    pub fn record(&self, elapsed: Duration) {
        self.observe(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Count one raw observation.
    pub fn observe(&self, value: u64) {
        let clamped = value.max(1);
        let bucket = (clamped.ilog2() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// An instantaneous copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramBuckets {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        HistogramBuckets(out)
    }

    /// Sum of every raw value observed so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of one histogram's buckets; index `i` counts
/// observations in `[2^i, 2^{i+1})`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HistogramBuckets(pub [u64; HISTOGRAM_BUCKETS]);

impl HistogramBuckets {
    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.iter().sum()
    }

    /// An upper bound on the value of the `q`-quantile observation:
    /// the top of the first bucket whose cumulative count reaches `q`
    /// of the total. `None` when nothing was recorded.
    #[must_use]
    pub fn quantile_upper_us(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let needed = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.0.iter().enumerate() {
            seen += c;
            if seen >= needed {
                return Some(1u64 << (i + 1).min(63));
            }
        }
        Some(u64::MAX)
    }
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// One registered metric: the handle the registry renders from.
#[derive(Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Histogram>),
}

/// A registry of named metrics with stable names: monotone counters,
/// settable gauges, and log₂ [`Histogram`]s.
///
/// Handles are `Arc`-shared atomics — registration takes the (mutex)
/// registry lock once, after which recording is lock-free. The same
/// name always returns the same handle, so independent subsystems can
/// share a series by name. Renders itself as Prometheus-style
/// exposition text ([`render_prometheus`](Self::render_prometheus)).
///
/// ```
/// use gcore::obs::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let hits = reg.counter("cache_hits");
/// hits.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
/// reg.set_gauge("live_entries", 2);
/// let text = reg.render_prometheus("demo");
/// assert!(text.contains("demo_cache_hits 3"));
/// assert!(text.contains("demo_live_entries 2"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<std::collections::BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("MetricsRegistry")
            .field("metrics", &inner.len())
            .finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, registering a zeroed one on
    /// first use. Panics if `name` is already registered as a different
    /// metric kind — names are stable identities, not free-form.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric '{name}' is registered with a different kind"),
        }
    }

    /// The gauge registered under `name`, registering a zeroed one on
    /// first use.
    pub fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric '{name}' is registered with a different kind"),
        }
    }

    /// Store `value` into the gauge `name` (registering it on first
    /// use).
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.gauge(name).store(value, Ordering::Relaxed);
    }

    /// The histogram registered under `name`, registering an empty one
    /// on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        match inner
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric '{name}' is registered with a different kind"),
        }
    }

    /// Every scalar metric as sorted `(name, value)` pairs; histograms
    /// contribute one `name_b<idx>` pair per non-empty bucket (the same
    /// wire convention the serve stats route uses).
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(inner.len());
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(v) | Metric::Gauge(v) => {
                    out.push((name.clone(), v.load(Ordering::Relaxed)));
                }
                Metric::Histogram(h) => {
                    for (i, &count) in h.snapshot().0.iter().enumerate() {
                        if count != 0 {
                            out.push((format!("{name}_b{i:02}"), count));
                        }
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// Render every metric as Prometheus-style exposition text, each
    /// series name prefixed with `prefix_`. Counters and gauges emit a
    /// `# TYPE` line plus the value; histograms emit cumulative
    /// `_bucket{le="…"}` series with `_sum` and `_count`.
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {prefix}_{name} counter");
                    let _ = writeln!(out, "{prefix}_{name} {}", v.load(Ordering::Relaxed));
                }
                Metric::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {prefix}_{name} gauge");
                    let _ = writeln!(out, "{prefix}_{name} {}", v.load(Ordering::Relaxed));
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let _ = writeln!(out, "# TYPE {prefix}_{name} histogram");
                    let mut cumulative = 0u64;
                    for (i, &count) in snap.0.iter().enumerate() {
                        cumulative += count;
                        if count != 0 {
                            let _ = writeln!(
                                out,
                                "{prefix}_{name}_bucket{{le=\"{}\"}} {cumulative}",
                                1u64 << (i + 1).min(63),
                            );
                        }
                    }
                    let _ = writeln!(
                        out,
                        "{prefix}_{name}_bucket{{le=\"+Inf\"}} {}",
                        snap.count()
                    );
                    let _ = writeln!(out, "{prefix}_{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{prefix}_{name}_count {}", snap.count());
                }
            }
        }
        out
    }
}

/// The engine's core metric handles, cloned onto every executor and
/// evaluation context so the hot path records through pre-resolved
/// atomics (no registry lookups during evaluation).
///
/// Standalone sets ([`CoreMetrics::standalone`]) count privately;
/// engine-derived executors share the engine's registry-backed set, so
/// totals aggregate across every statement the engine ever ran.
#[derive(Clone, Debug)]
pub struct CoreMetrics {
    /// Statements evaluated (all outcomes).
    pub statements: Arc<AtomicU64>,
    /// Statements that ended in cooperative cancellation (`E016`).
    pub cancellations: Arc<AtomicU64>,
    /// MATCH clauses whose planned join order differs from the
    /// syntactic order.
    pub planner_reorders: Arc<AtomicU64>,
    /// WHERE conjuncts the planner pushed into patterns.
    pub planner_pushdowns: Arc<AtomicU64>,
    /// Profiled operator spans whose actual cardinality diverged from
    /// the planner's estimate (see [`is_misestimate`]). Only profiled
    /// statements contribute — unprofiled evaluation never compares.
    pub planner_misestimates: Arc<AtomicU64>,
}

impl CoreMetrics {
    /// A private, unregistered metric set (used by standalone
    /// executors and fresh evaluation contexts).
    #[must_use]
    pub fn standalone() -> Self {
        CoreMetrics {
            statements: Arc::new(AtomicU64::new(0)),
            cancellations: Arc::new(AtomicU64::new(0)),
            planner_reorders: Arc::new(AtomicU64::new(0)),
            planner_pushdowns: Arc::new(AtomicU64::new(0)),
            planner_misestimates: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The metric set backed by `registry`, under the stable names
    /// `statements`, `cancellations`, `planner_reorders`,
    /// `planner_pushdowns`, `planner_misestimates`.
    #[must_use]
    pub fn registered(registry: &MetricsRegistry) -> Self {
        CoreMetrics {
            statements: registry.counter("statements"),
            cancellations: registry.counter("cancellations"),
            planner_reorders: registry.counter("planner_reorders"),
            planner_pushdowns: registry.counter("planner_pushdowns"),
            planner_misestimates: registry.counter("planner_misestimates"),
        }
    }

    /// Bump a counter by `n` (relaxed; the counters are observability,
    /// not synchronization).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Does `actual` diverge from the planner's `estimate` badly enough to
/// count as a misestimate? A 4× ratio either way, ignoring divergences
/// of at most 16 rows in absolute terms (tiny tables are noise, not
/// planning failures).
#[must_use]
pub fn is_misestimate(estimate: f64, actual: u64) -> bool {
    let est = estimate.max(1.0);
    let act = (actual as f64).max(1.0);
    let ratio = if est > act { est / act } else { act / est };
    ratio >= 4.0 && (est - actual as f64).abs() > 16.0
}

// ---------------------------------------------------------------------
// Execution profiles
// ---------------------------------------------------------------------

/// Hard cap on spans per statement: correlated subqueries evaluate once
/// per candidate row, and an EXISTS over a large table must not turn
/// the profile into an unbounded allocation. Past the cap new spans are
/// dropped and the profile is marked [`QueryProfile::truncated`].
pub const MAX_SPANS: usize = 4096;

/// Handle to one started span; `SpanId::NONE` (what a disabled profiler
/// hands out) makes every subsequent operation a no-op.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The inert span handle.
    pub const NONE: SpanId = SpanId(None);
}

struct SpanNode {
    op: &'static str,
    detail: String,
    started: Instant,
    elapsed: Option<Duration>,
    rows: Option<u64>,
    estimate: Option<f64>,
    counters: Vec<(&'static str, u64)>,
    children: Vec<usize>,
}

struct ProfilerState {
    nodes: Vec<SpanNode>,
    roots: Vec<usize>,
    stack: Vec<usize>,
    truncated: bool,
}

/// The per-statement span collector, owned by the
/// [`EvalCtx`](crate::EvalCtx).
///
/// Query-local interior mutability, exactly like the context's other
/// `RefCell` state: evaluation is single-threaded per statement, so a
/// `RefCell` suffices. Disabled (the default) it holds no state at
/// all; every recording call is one `Option` check, no clock reads, no
/// allocation — the ≤ 2 % disabled-overhead budget of the matching
/// bench is the pinned consequence.
#[derive(Default)]
pub struct Profiler {
    inner: Option<RefCell<ProfilerState>>,
}

impl Profiler {
    /// A profiler that records nothing (the default).
    #[must_use]
    pub fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// A profiler that collects a span tree for one statement.
    #[must_use]
    pub fn enabled() -> Self {
        Profiler {
            inner: Some(RefCell::new(ProfilerState {
                nodes: Vec::new(),
                roots: Vec::new(),
                stack: Vec::new(),
                truncated: false,
            })),
        }
    }

    /// Open a span under the innermost open span. `detail` is only
    /// rendered when the profiler is enabled, so call sites can format
    /// freely without a disabled-path cost.
    pub fn start(&self, op: &'static str, detail: impl FnOnce() -> String) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let mut st = inner.borrow_mut();
        if st.nodes.len() >= MAX_SPANS {
            st.truncated = true;
            return SpanId::NONE;
        }
        let idx = st.nodes.len();
        st.nodes.push(SpanNode {
            op,
            detail: detail(),
            started: Instant::now(),
            elapsed: None,
            rows: None,
            estimate: None,
            counters: Vec::new(),
            children: Vec::new(),
        });
        match st.stack.last().copied() {
            Some(parent) => st.nodes[parent].children.push(idx),
            None => st.roots.push(idx),
        }
        st.stack.push(idx);
        SpanId(Some(idx))
    }

    fn with_node(&self, id: SpanId, f: impl FnOnce(&mut SpanNode)) {
        if let (Some(inner), SpanId(Some(idx))) = (&self.inner, id) {
            f(&mut inner.borrow_mut().nodes[idx]);
        }
    }

    /// Append to a span's detail text (planning facts only known after
    /// the span opened).
    pub fn annotate(&self, id: SpanId, extra: impl FnOnce() -> String) {
        self.with_node(id, |n| {
            let extra = extra();
            if !extra.is_empty() {
                if !n.detail.is_empty() {
                    n.detail.push(' ');
                }
                n.detail.push_str(&extra);
            }
        });
    }

    /// Attach the planner's cardinality estimate to a span.
    pub fn set_estimate(&self, id: SpanId, estimate: f64) {
        self.with_node(id, |n| n.estimate = Some(estimate));
    }

    /// Attach a named counter (frontier pops, input rows, …) to a span.
    pub fn add_counter(&self, id: SpanId, name: &'static str, value: u64) {
        self.with_node(id, |n| n.counters.push((name, value)));
    }

    /// Close a span, recording its wall-clock duration.
    pub fn finish(&self, id: SpanId) {
        if let (Some(inner), SpanId(Some(idx))) = (&self.inner, id) {
            let mut st = inner.borrow_mut();
            st.nodes[idx].elapsed = Some(st.nodes[idx].started.elapsed());
            // Pop this span (and, defensively, anything opened under it
            // that an error path failed to close).
            while let Some(top) = st.stack.pop() {
                if top == idx {
                    break;
                }
            }
        }
    }

    /// [`finish`](Self::finish) plus the span's actual output rows.
    pub fn finish_rows(&self, id: SpanId, rows: u64) {
        self.with_node(id, |n| n.rows = Some(rows));
        self.finish(id);
    }

    /// Consume the collected spans into a [`QueryProfile`]. `None` when
    /// the profiler is disabled. Spans left open (error unwinds) are
    /// closed at their current elapsed time.
    #[must_use]
    pub fn take(&self) -> Option<QueryProfile> {
        let inner = self.inner.as_ref()?;
        let mut st = inner.borrow_mut();
        for node in &mut st.nodes {
            if node.elapsed.is_none() {
                node.elapsed = Some(node.started.elapsed());
            }
        }
        let mut misestimates = 0u64;
        for node in &st.nodes {
            if let (Some(est), Some(rows)) = (node.estimate, node.rows) {
                if is_misestimate(est, rows) {
                    misestimates += 1;
                }
            }
        }
        fn convert(nodes: &[SpanNode], idx: usize) -> ProfileSpan {
            let n = &nodes[idx];
            ProfileSpan {
                op: n.op.to_owned(),
                detail: n.detail.clone(),
                rows: n.rows,
                estimate: n.estimate,
                elapsed: n.elapsed.unwrap_or_default(),
                counters: n.counters.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
                children: n.children.iter().map(|&c| convert(nodes, c)).collect(),
            }
        }
        let spans = st.roots.iter().map(|&r| convert(&st.nodes, r)).collect();
        Some(QueryProfile {
            spans,
            misestimates,
            truncated: st.truncated,
        })
    }
}

/// One operator span of an execution profile.
#[derive(Clone, Debug)]
pub struct ProfileSpan {
    /// Operator kind: `match`, `plan`, `pattern`, `join`,
    /// `path-search`, `where`, `optional`, `construct`, `select`,
    /// `set-op`.
    pub op: String,
    /// Human-readable operator detail (pattern text, join variables,
    /// chosen strategy, …).
    pub detail: String,
    /// Actual output cardinality, when the operator produces rows.
    pub rows: Option<u64>,
    /// The planner's cardinality estimate, when it made one.
    pub estimate: Option<f64>,
    /// Wall-clock time spent in the operator, children included.
    pub elapsed: Duration,
    /// Auxiliary counters: `frontier_pops`, `input_rows`, `edges`, ….
    pub counters: Vec<(String, u64)>,
    /// Nested operator spans, in execution order.
    pub children: Vec<ProfileSpan>,
}

/// The execution profile of one statement: the operator span tree plus
/// statement-level aggregates. Produced by
/// [`QueryExecutor::run_profiled`](crate::QueryExecutor::run_profiled)
/// and [`Engine::profile`](crate::Engine::profile).
#[derive(Clone, Debug)]
pub struct QueryProfile {
    /// Top-level operator spans in execution order.
    pub spans: Vec<ProfileSpan>,
    /// Spans whose actual cardinality diverged from the planner's
    /// estimate (the per-statement planner feedback counter).
    pub misestimates: u64,
    /// Span collection hit [`MAX_SPANS`] and dropped later spans.
    pub truncated: bool,
}

impl QueryProfile {
    /// Total spans in the tree.
    #[must_use]
    pub fn span_count(&self) -> usize {
        fn count(s: &ProfileSpan) -> usize {
            1 + s.children.iter().map(count).sum::<usize>()
        }
        self.spans.iter().map(count).sum()
    }

    /// Render the profile as `EXPLAIN ANALYZE` text. With
    /// `redact_timings` every `time=` field prints as `time=…`, making
    /// the output deterministic for a given statement and snapshot —
    /// that is the form the golden tests pin.
    #[must_use]
    pub fn render(&self, redact_timings: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "EXPLAIN ANALYZE (misestimates: {})", self.misestimates);
        if self.truncated {
            let _ = writeln!(out, "  [profile truncated at {MAX_SPANS} spans]");
        }
        for span in &self.spans {
            render_span(span, 0, redact_timings, &mut out);
        }
        out
    }

    /// Structural well-formedness, for the CI profile tour
    /// (`examples/profile.rs`): every span must carry an operator tag,
    /// row-producing operators must report actual rows, and children
    /// may not take longer than their parent (wall-clock nesting).
    pub fn validate(&self) -> std::result::Result<(), String> {
        fn check(s: &ProfileSpan) -> std::result::Result<(), String> {
            if s.op.is_empty() {
                return Err("span with empty operator tag".into());
            }
            if matches!(
                s.op.as_str(),
                "pattern" | "join" | "where" | "match" | "select"
            ) && s.rows.is_none()
            {
                return Err(format!("'{}' span without an actual row count", s.op));
            }
            let child_sum: Duration = s.children.iter().map(|c| c.elapsed).sum();
            // Tolerance: clock reads themselves take time.
            if child_sum > s.elapsed + Duration::from_millis(5) {
                return Err(format!(
                    "'{}' span children ({child_sum:?}) exceed parent ({:?})",
                    s.op, s.elapsed
                ));
            }
            s.children.iter().try_for_each(check)
        }
        if self.spans.is_empty() {
            return Err("profile has no spans".into());
        }
        self.spans.iter().try_for_each(check)
    }
}

fn render_span(span: &ProfileSpan, depth: usize, redact: bool, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&span.op.to_string());
    if !span.detail.is_empty() {
        let _ = write!(out, " {}", span.detail);
    }
    if let Some(est) = span.estimate {
        let _ = write!(out, "  est ~{}", format_estimate(est));
    }
    if let Some(rows) = span.rows {
        let _ = write!(out, "  rows={rows}");
    }
    if let (Some(est), Some(rows)) = (span.estimate, span.rows) {
        if is_misestimate(est, rows) {
            out.push_str("  [misestimate]");
        }
    }
    for (name, value) in &span.counters {
        let _ = write!(out, "  {name}={value}");
    }
    if redact {
        out.push_str("  time=…");
    } else {
        let _ = write!(out, "  time={:?}", span.elapsed);
    }
    out.push('\n');
    for child in &span.children {
        render_span(child, depth + 1, redact, out);
    }
}

/// Estimate formatting shared with the EXPLAIN rendering: round, clamp
/// huge and non-finite values.
pub(crate) fn format_estimate(x: f64) -> String {
    if !x.is_finite() || x >= 1e15 {
        "1e15+".to_string()
    } else {
        format!("{}", x.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        let id = p.start("match", || unreachable!("detail must not be formatted"));
        p.finish_rows(id, 3);
        assert!(p.take().is_none());
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let p = Profiler::enabled();
        let outer = p.start("match", || "outer".into());
        let inner = p.start("pattern", || "inner".into());
        p.finish_rows(inner, 2);
        p.finish_rows(outer, 1);
        let profile = p.take().unwrap();
        assert_eq!(profile.spans.len(), 1);
        assert_eq!(profile.spans[0].op, "match");
        assert_eq!(profile.spans[0].children.len(), 1);
        assert_eq!(profile.spans[0].children[0].op, "pattern");
        assert_eq!(profile.span_count(), 2);
        profile.validate().unwrap();
    }

    #[test]
    fn unfinished_spans_are_closed_by_take() {
        let p = Profiler::enabled();
        let _open = p.start("match", String::new);
        let profile = p.take().unwrap();
        assert_eq!(profile.spans.len(), 1);
    }

    #[test]
    fn span_cap_truncates_instead_of_growing() {
        let p = Profiler::enabled();
        for _ in 0..(MAX_SPANS + 10) {
            let id = p.start("where", String::new);
            p.finish_rows(id, 0);
        }
        let profile = p.take().unwrap();
        assert!(profile.truncated);
        assert_eq!(profile.span_count(), MAX_SPANS);
    }

    #[test]
    fn misestimate_needs_ratio_and_absolute_divergence() {
        assert!(is_misestimate(1000.0, 10));
        assert!(is_misestimate(10.0, 1000));
        assert!(!is_misestimate(4.0, 1), "absolute divergence too small");
        assert!(!is_misestimate(100.0, 60), "ratio too small");
    }

    #[test]
    fn misestimates_are_counted_and_rendered() {
        let p = Profiler::enabled();
        let id = p.start("pattern", || "(n:Person)".into());
        p.set_estimate(id, 5000.0);
        p.finish_rows(id, 3);
        let profile = p.take().unwrap();
        assert_eq!(profile.misestimates, 1);
        let text = profile.render(true);
        assert!(text.contains("est ~5000"));
        assert!(text.contains("rows=3"));
        assert!(text.contains("[misestimate]"));
        assert!(text.contains("time=…"), "golden mode redacts timings");
        assert!(!profile.render(false).contains("time=…"));
    }

    #[test]
    fn registry_round_trips_counters_gauges_histograms() {
        let reg = MetricsRegistry::new();
        reg.counter("c").fetch_add(7, Ordering::Relaxed);
        assert_eq!(
            reg.counter("c").load(Ordering::Relaxed),
            7,
            "same name, same handle"
        );
        reg.set_gauge("g", 42);
        reg.histogram("h").record(Duration::from_micros(10));
        let snap = reg.snapshot();
        assert!(snap.contains(&("c".into(), 7)));
        assert!(snap.contains(&("g".into(), 42)));
        assert!(snap.contains(&("h_b03".into(), 1)));

        let text = reg.render_prometheus("gcore");
        assert!(text.contains("# TYPE gcore_c counter"));
        assert!(text.contains("gcore_c 7"));
        assert!(text.contains("# TYPE gcore_g gauge"));
        assert!(text.contains("gcore_h_bucket{le=\"16\"} 1"));
        assert!(text.contains("gcore_h_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("gcore_h_sum 10"));
        assert!(text.contains("gcore_h_count 1"));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_changes() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::default();
        h.record(Duration::ZERO); // sub-µs → bucket 0
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(2));
        h.record(Duration::from_millis(1)); // 2^9 ≤ 1000 < 2^10
        let snap = h.snapshot();
        assert_eq!(snap.0[0], 2);
        assert_eq!(snap.0[1], 1);
        assert_eq!(snap.0[9], 1);
        assert_eq!(snap.count(), 4);
        assert_eq!(h.sum(), 1003);
    }

    #[test]
    fn quantile_reports_bucket_upper_bounds() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile_upper_us(0.5), None);
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket 3: [8, 16)
        }
        h.record(Duration::from_millis(100)); // bucket 16
        let snap = h.snapshot();
        assert_eq!(snap.quantile_upper_us(0.5), Some(16));
        assert_eq!(snap.quantile_upper_us(0.99), Some(16));
        assert_eq!(snap.quantile_upper_us(1.0), Some(1 << 17));
    }

    #[test]
    fn core_metrics_share_registry_handles() {
        let reg = MetricsRegistry::new();
        let a = CoreMetrics::registered(&reg);
        let b = CoreMetrics::registered(&reg);
        CoreMetrics::add(&a.statements, 2);
        assert_eq!(b.statements.load(Ordering::Relaxed), 2);
        assert!(reg.snapshot().contains(&("statements".into(), 2)));
    }
}
