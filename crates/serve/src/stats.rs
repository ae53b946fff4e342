//! Server counters: lock-free atomics bumped on the request path,
//! snapshotted for the admin `stats` route and for the load-generator
//! bench. Alongside the monotone counters, every route keeps a
//! log-bucketed latency histogram ([`LatencyHistogram`]): one relaxed
//! `fetch_add` per request, no locks, exported through the same named
//! wire pairs so old clients simply ignore the new names.
//!
//! Since the observability PR the counters live on a unified
//! [`MetricsRegistry`] (`gcore::obs`): every field of [`ServerStats`]
//! is an `Arc` handle into the registry, registered under its wire
//! name, so the admin `metrics` route renders the same counters as
//! Prometheus-style text with zero double bookkeeping. The slow-query
//! log ([`SlowLog`]) rides along: a bounded ring of over-threshold
//! statements with their rendered execution profiles.

use gcore::obs::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of log₂ latency buckets: bucket `i` counts requests whose
/// latency lies in `[2^i, 2^{i+1})` microseconds, the last bucket
/// absorbing everything slower (~36 minutes and beyond).
pub const LATENCY_BUCKETS: usize = gcore::obs::HISTOGRAM_BUCKETS;

/// A lock-free log₂-bucketed latency histogram — the core
/// [`Histogram`](gcore::obs::Histogram), recording microseconds.
pub type LatencyHistogram = gcore::obs::Histogram;

/// A point-in-time copy of one route's latency buckets; index `i`
/// counts requests in `[2^i, 2^{i+1})` µs.
pub type LatencyBuckets = gcore::obs::HistogramBuckets;

/// Monotone counters shared by every server thread. All loads/stores
/// are `Relaxed`: the counters are observability, not synchronization.
///
/// Every field is a handle into the stats' own [`MetricsRegistry`]
/// (registered under the field's wire name), so bumping a field and
/// serving the `metrics` route read the same atomic.
#[derive(Debug)]
pub struct ServerStats {
    /// Connections accepted (including ones later rejected as busy).
    pub connections_accepted: Arc<AtomicU64>,
    /// Connections turned away at the connection cap.
    pub connections_rejected_busy: Arc<AtomicU64>,
    /// Connections shed because the pending queue was over its
    /// watermark — admitted under the cap, but the worker backlog was
    /// already too deep to serve them within any useful latency.
    pub connections_shed_queue_full: Arc<AtomicU64>,
    /// Connections currently being served.
    pub connections_active: Arc<AtomicU64>,
    /// Connections admitted but waiting for a worker to pick them up.
    pub connections_pending: Arc<AtomicU64>,
    /// Query statements answered successfully.
    pub queries_ok: Arc<AtomicU64>,
    /// Query statements answered with a statement error.
    pub queries_err: Arc<AtomicU64>,
    /// Transact scripts committed successfully.
    pub transacts_ok: Arc<AtomicU64>,
    /// Transact scripts answered with a statement error.
    pub transacts_err: Arc<AtomicU64>,
    /// Statements cut off by the statement timeout.
    pub statement_timeouts: Arc<AtomicU64>,
    /// Statements whose evaluation was cooperatively cancelled and
    /// whose worker thread returned to the pool. Every timeout is also
    /// a cancellation, so this tracks `statement_timeouts` unless a
    /// future route cancels for other reasons.
    pub statements_cancelled: Arc<AtomicU64>,
    /// Connections dropped for protocol violations.
    pub protocol_errors: Arc<AtomicU64>,
    /// Admin requests served (all ops).
    pub admin_requests: Arc<AtomicU64>,
    /// Statements slow enough to enter the slow-query log.
    pub slow_queries: Arc<AtomicU64>,
    /// Latency of the query route (request read to reply written).
    pub latency_query: Arc<LatencyHistogram>,
    /// Latency of the transact route.
    pub latency_transact: Arc<LatencyHistogram>,
    /// Latency of the admin route.
    pub latency_admin: Arc<LatencyHistogram>,
    /// The registry every field above is registered in.
    registry: MetricsRegistry,
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerStats {
    /// A zeroed counter set over a fresh registry.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        ServerStats {
            connections_accepted: registry.counter("connections_accepted"),
            connections_rejected_busy: registry.counter("connections_rejected_busy"),
            connections_shed_queue_full: registry.counter("connections_shed_queue_full"),
            connections_active: registry.gauge("connections_active"),
            connections_pending: registry.gauge("connections_pending"),
            queries_ok: registry.counter("queries_ok"),
            queries_err: registry.counter("queries_err"),
            transacts_ok: registry.counter("transacts_ok"),
            transacts_err: registry.counter("transacts_err"),
            statement_timeouts: registry.counter("statement_timeouts"),
            statements_cancelled: registry.counter("statements_cancelled"),
            protocol_errors: registry.counter("protocol_errors"),
            admin_requests: registry.counter("admin_requests"),
            slow_queries: registry.counter("slow_queries"),
            latency_query: registry.histogram("latency_query_us"),
            latency_transact: registry.histogram("latency_transact_us"),
            latency_admin: registry.histogram("latency_admin_us"),
            registry,
        }
    }

    /// The unified registry behind the counters; render it with
    /// [`MetricsRegistry::render_prometheus`] for the admin `metrics`
    /// route.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// An instantaneous copy of every counter, read through the
    /// registry under the same wire names the admin `stats` route sends.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::from_named(&self.registry.snapshot())
    }

    /// Bump a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`ServerStats`], as sent over the admin
/// route.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
#[allow(missing_docs)] // field names mirror ServerStats, documented there
pub struct StatsSnapshot {
    pub connections_accepted: u64,
    pub connections_rejected_busy: u64,
    pub connections_shed_queue_full: u64,
    pub connections_active: u64,
    pub connections_pending: u64,
    pub queries_ok: u64,
    pub queries_err: u64,
    pub transacts_ok: u64,
    pub transacts_err: u64,
    pub statement_timeouts: u64,
    pub statements_cancelled: u64,
    pub protocol_errors: u64,
    pub admin_requests: u64,
    pub slow_queries: u64,
    pub latency_query: LatencyBuckets,
    pub latency_transact: LatencyBuckets,
    pub latency_admin: LatencyBuckets,
    /// Counters this client build has no dedicated field for — a newer
    /// server's additions (or the engine-level pairs the stats route
    /// appends, like `scc_cache_hits`). Preserved verbatim, sorted, so
    /// a version-skewed client still sees and round-trips every value.
    pub extra: Vec<(String, u64)>,
}

/// The per-route histograms by wire-name prefix.
const ROUTES: [&str; 3] = ["admin", "query", "transact"];

impl StatsSnapshot {
    fn route_buckets(&self, route: &str) -> &LatencyBuckets {
        match route {
            "admin" => &self.latency_admin,
            "query" => &self.latency_query,
            "transact" => &self.latency_transact,
            other => unreachable!("unknown route {other}"),
        }
    }

    fn route_buckets_mut(&mut self, route: &str) -> &mut LatencyBuckets {
        match route {
            "admin" => &mut self.latency_admin,
            "query" => &mut self.latency_query,
            "transact" => &mut self.latency_transact,
            other => unreachable!("unknown route {other}"),
        }
    }

    /// The counters as sorted (name, value) pairs — the wire encoding
    /// of the admin `stats` reply is built from this, so adding a
    /// counter never breaks an old client. Histogram buckets appear as
    /// `latency_<route>_us_b<idx>` pairs; empty buckets are omitted to
    /// keep the reply small. [`extra`](Self::extra) pairs are included
    /// verbatim, so a relayed snapshot loses nothing.
    pub fn named(&self) -> Vec<(String, u64)> {
        let mut pairs = vec![
            ("admin_requests".to_owned(), self.admin_requests),
            ("connections_accepted".to_owned(), self.connections_accepted),
            ("connections_active".to_owned(), self.connections_active),
            ("connections_pending".to_owned(), self.connections_pending),
            (
                "connections_rejected_busy".to_owned(),
                self.connections_rejected_busy,
            ),
            (
                "connections_shed_queue_full".to_owned(),
                self.connections_shed_queue_full,
            ),
            ("protocol_errors".to_owned(), self.protocol_errors),
            ("queries_err".to_owned(), self.queries_err),
            ("queries_ok".to_owned(), self.queries_ok),
            ("slow_queries".to_owned(), self.slow_queries),
            ("statement_timeouts".to_owned(), self.statement_timeouts),
            ("statements_cancelled".to_owned(), self.statements_cancelled),
            ("transacts_err".to_owned(), self.transacts_err),
            ("transacts_ok".to_owned(), self.transacts_ok),
        ];
        for route in ROUTES {
            let buckets = self.route_buckets(route);
            for (i, &count) in buckets.0.iter().enumerate() {
                if count != 0 {
                    pairs.push((format!("latency_{route}_us_b{i:02}"), count));
                }
            }
        }
        pairs.extend(self.extra.iter().cloned());
        pairs.sort();
        pairs
    }

    /// Rebuild a snapshot from wire pairs. Forward-compatible: names
    /// this build has no field for — a newer server's counters, new
    /// histogram routes, engine-level additions — are preserved in
    /// [`extra`](Self::extra) instead of dropped, so
    /// `from_named(named())` round-trips across version skew. Missing
    /// known names default to 0.
    pub fn from_named(pairs: &[(String, u64)]) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        for (name, value) in pairs {
            match name.as_str() {
                "admin_requests" => snap.admin_requests = *value,
                "connections_accepted" => snap.connections_accepted = *value,
                "connections_active" => snap.connections_active = *value,
                "connections_pending" => snap.connections_pending = *value,
                "connections_rejected_busy" => snap.connections_rejected_busy = *value,
                "connections_shed_queue_full" => snap.connections_shed_queue_full = *value,
                "protocol_errors" => snap.protocol_errors = *value,
                "queries_err" => snap.queries_err = *value,
                "queries_ok" => snap.queries_ok = *value,
                "slow_queries" => snap.slow_queries = *value,
                "statement_timeouts" => snap.statement_timeouts = *value,
                "statements_cancelled" => snap.statements_cancelled = *value,
                "transacts_err" => snap.transacts_err = *value,
                "transacts_ok" => snap.transacts_ok = *value,
                other => {
                    // latency_<route>_us_b<idx> for a known route fills
                    // the matching histogram bucket; everything else is
                    // kept verbatim in `extra`.
                    let bucket = other
                        .strip_prefix("latency_")
                        .and_then(|rest| rest.split_once("_us_b"))
                        .filter(|(route, _)| ROUTES.contains(route))
                        .and_then(|(route, idx)| {
                            idx.parse::<usize>()
                                .ok()
                                .filter(|&i| i < LATENCY_BUCKETS)
                                .map(|i| (route, i))
                        });
                    match bucket {
                        Some((route, i)) => snap.route_buckets_mut(route).0[i] = *value,
                        None => snap.extra.push((name.clone(), *value)),
                    }
                }
            }
        }
        snap.extra.sort();
        snap
    }
}

// ---------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------

/// Cap on the rendered profile text stored per slow-log entry, so one
/// pathological statement cannot balloon the ring.
const SLOWLOG_PROFILE_CAP: usize = 4096;

/// One over-threshold statement as kept by the [`SlowLog`] and served
/// over the admin `slowlog` route.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SlowLogEntry {
    /// The statement text as received.
    pub text: String,
    /// Snapshot epoch the statement evaluated against.
    pub epoch: u64,
    /// Wall-clock evaluation time, in microseconds.
    pub elapsed_us: u64,
    /// Rendered execution profile (timings included), truncated to a
    /// fixed cap. Empty when the statement failed before producing one.
    pub profile: String,
}

/// A bounded ring of the most recent over-threshold statements.
/// Recording takes one short mutex hold off the hot path (only slow
/// statements ever reach it).
#[derive(Debug)]
pub struct SlowLog {
    capacity: usize,
    entries: Mutex<VecDeque<SlowLogEntry>>,
}

impl SlowLog {
    /// An empty ring keeping at most `capacity` entries (0 disables).
    pub fn new(capacity: usize) -> Self {
        SlowLog {
            capacity,
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Record one slow statement, evicting the oldest entry beyond
    /// capacity. The profile text is truncated to a fixed cap.
    pub fn record(&self, mut entry: SlowLogEntry) {
        if self.capacity == 0 {
            return;
        }
        if entry.profile.len() > SLOWLOG_PROFILE_CAP {
            let mut cut = SLOWLOG_PROFILE_CAP;
            while !entry.profile.is_char_boundary(cut) {
                cut -= 1;
            }
            entry.profile.truncate(cut);
            entry.profile.push_str("…\n[truncated]");
        }
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// The current entries, oldest first.
    pub fn entries(&self) -> Vec<SlowLogEntry> {
        self.entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

/// Record a request latency in microseconds (shared by the server's
/// per-route recording and the slow-log threshold check).
pub(crate) fn as_micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_named_pairs() {
        let stats = ServerStats::new();
        stats.queries_ok.store(3, Ordering::Relaxed);
        stats.connections_accepted.store(2, Ordering::Relaxed);
        stats.statement_timeouts.store(1, Ordering::Relaxed);
        stats.statements_cancelled.store(1, Ordering::Relaxed);
        stats
            .connections_shed_queue_full
            .store(4, Ordering::Relaxed);
        stats.latency_query.record(Duration::from_micros(7));
        stats.latency_query.record(Duration::from_millis(3));
        stats.latency_transact.record(Duration::from_secs(1));
        stats.latency_admin.record(Duration::ZERO);
        let snap = stats.snapshot();
        assert_eq!(StatsSnapshot::from_named(&snap.named()), snap);
    }

    /// Version skew: a newer server sends counters (and whole histogram
    /// routes) this build has never heard of. They land in `extra` —
    /// visible, and surviving a re-encode — instead of vanishing.
    #[test]
    fn unknown_names_survive_a_round_trip() {
        let stats = ServerStats::new();
        stats.queries_ok.store(9, Ordering::Relaxed);
        let mut pairs = stats.snapshot().named();
        pairs.push(("replication_lag_ms".to_owned(), 250));
        pairs.push(("latency_replicate_us_b07".to_owned(), 12));
        pairs.push(("scc_cache_hits".to_owned(), 41));
        pairs.sort();

        let decoded = StatsSnapshot::from_named(&pairs);
        assert_eq!(decoded.queries_ok, 9);
        assert_eq!(
            decoded.extra,
            vec![
                ("latency_replicate_us_b07".to_owned(), 12),
                ("replication_lag_ms".to_owned(), 250),
                ("scc_cache_hits".to_owned(), 41),
            ]
        );
        // Re-encoding preserves the unknown names verbatim.
        assert_eq!(StatsSnapshot::from_named(&decoded.named()), decoded);
    }

    /// Out-of-range bucket indices from a newer build (more buckets)
    /// must not panic or be silently dropped.
    #[test]
    fn out_of_range_bucket_index_is_kept_as_extra() {
        let pairs = vec![(format!("latency_query_us_b{}", LATENCY_BUCKETS + 1), 5)];
        let snap = StatsSnapshot::from_named(&pairs);
        assert_eq!(snap.latency_query.count(), 0);
        assert_eq!(snap.extra.len(), 1);
    }

    /// The registry already emits the wire pairs: a snapshot is those
    /// pairs decoded, and encodes back to them.
    #[test]
    fn registry_pairs_are_the_snapshot_wire_pairs() {
        let stats = ServerStats::new();
        stats.queries_ok.store(3, Ordering::Relaxed);
        stats.connections_active.store(2, Ordering::Relaxed);
        stats.slow_queries.store(1, Ordering::Relaxed);
        stats.latency_query.record(Duration::from_micros(7));
        stats.latency_transact.record(Duration::from_secs(1));
        stats.latency_admin.record(Duration::ZERO);
        let snap = stats.snapshot();
        assert_eq!(snap.queries_ok, 3);
        assert_eq!(snap.latency_transact.count(), 1);
        assert!(snap.extra.is_empty(), "{:?}", snap.extra);
        assert_eq!(stats.registry().snapshot(), snap.named());
    }

    #[test]
    fn histogram_buckets_are_log2_of_microseconds() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO); // sub-µs → bucket 0
        h.record(Duration::from_micros(1)); // bucket 0
        h.record(Duration::from_micros(2)); // bucket 1
        h.record(Duration::from_millis(1)); // 2^9 ≤ 1000 µs < 2^10 → bucket 9
        let snap = h.snapshot();
        assert_eq!(snap.0[0], 2);
        assert_eq!(snap.0[1], 1);
        assert_eq!(snap.0[9], 1);
        assert_eq!(snap.count(), 4);
    }

    #[test]
    fn quantile_reports_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
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
    fn server_stats_render_as_prometheus_text() {
        let stats = ServerStats::new();
        stats.queries_ok.store(5, Ordering::Relaxed);
        stats.latency_query.record(Duration::from_micros(10));
        let text = stats.registry().render_prometheus("gcore");
        assert!(text.contains("# TYPE gcore_queries_ok counter"));
        assert!(text.contains("gcore_queries_ok 5"));
        assert!(text.contains("# TYPE gcore_connections_active gauge"));
        assert!(text.contains("# TYPE gcore_latency_query_us histogram"));
        assert!(text.contains("gcore_latency_query_us_count 1"));
    }

    #[test]
    fn slowlog_is_a_bounded_ring() {
        let log = SlowLog::new(2);
        for i in 0..4u64 {
            log.record(SlowLogEntry {
                text: format!("q{i}"),
                epoch: i,
                elapsed_us: 1000 * i,
                profile: String::new(),
            });
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].text, "q2");
        assert_eq!(entries[1].text, "q3");

        // Capacity 0 disables recording entirely.
        let off = SlowLog::new(0);
        off.record(entries[0].clone());
        assert!(off.entries().is_empty());
    }

    #[test]
    fn slowlog_caps_profile_text() {
        let log = SlowLog::new(1);
        log.record(SlowLogEntry {
            text: "big".into(),
            epoch: 0,
            elapsed_us: 1,
            profile: "x".repeat(10_000),
        });
        let got = &log.entries()[0];
        assert!(got.profile.len() < 10_000);
        assert!(got.profile.ends_with("[truncated]"));
    }
}
