//! The serving layer's observability surface, end to end over TCP:
//! the Prometheus-style `metrics` route, the slow-query log, and the
//! engine-level pairs the `stats` route appends for version-skewed
//! clients (decoded into `StatsSnapshot::extra`).

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::tour_engine;
use gcore_serve::{Client, ServeConfig, Server, StatsSnapshot};
use std::time::Duration;

const PEOPLE_QUERY: &str = "SELECT n.name AS name MATCH (n:Person)";

/// A reachability query that touches the SCC cache.
const REACH_QUERY: &str = "CONSTRUCT (m) MATCH (n)-/<:knows*>/->(m) WHERE n.employer = 'Acme'";

/// A weighted search over a PATH view, whose segment relation the
/// snapshot's view cache keeps.
const VIEW_QUERY: &str = "PATH w = (x)-[e:knows]->(y) COST 2 \
     CONSTRUCT (m) MATCH (n)-/p <~w*>/->(m) WHERE n.employer = 'Acme'";

#[test]
fn metrics_route_serves_both_registries_as_prometheus_text() {
    let server = Server::start(tour_engine(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.query(PEOPLE_QUERY).unwrap();
    client.query(REACH_QUERY).unwrap();
    client.query(VIEW_QUERY).unwrap();
    client.query(VIEW_QUERY).unwrap();

    let text = client.metrics().unwrap();
    // Server counters under `gcore_`, typed.
    assert!(text.contains("# TYPE gcore_queries_ok counter"), "{text}");
    assert!(text.contains("gcore_queries_ok 4"), "{text}");
    assert!(text.contains("# TYPE gcore_connections_active gauge"));
    assert!(text.contains("# TYPE gcore_latency_query_us histogram"));
    assert!(text.contains("gcore_latency_query_us_count 4"));
    assert!(text.contains("gcore_latency_query_us_bucket{le=\"+Inf\"} 4"));
    // Engine core metrics under `gcore_engine_`: every served
    // statement is counted, and the cache gauges are refreshed at
    // render time — the second view query reused the first one's
    // segment relation.
    assert!(text.contains("gcore_engine_statements 4"), "{text}");
    assert!(text.contains("# TYPE gcore_engine_scc_cache_misses gauge"));
    assert!(text.contains("# TYPE gcore_engine_view_cache_hits gauge"));
    assert!(text.contains("gcore_engine_view_cache_hits 1\n"), "{text}");
    assert!(
        text.contains("gcore_engine_view_cache_misses 1\n"),
        "{text}"
    );
    assert!(
        text.contains("gcore_engine_view_cache_evictions 0\n"),
        "{text}"
    );
    assert!(text.contains("gcore_engine_engine_epoch"));

    drop(client);
    server.wait();
}

#[test]
fn stats_route_appends_engine_pairs_that_skewed_clients_keep() {
    let server = Server::start(tour_engine(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.query(REACH_QUERY).unwrap();
    client.query(REACH_QUERY).unwrap();
    client.query(VIEW_QUERY).unwrap();
    client.query(VIEW_QUERY).unwrap();

    let named = client.stats().unwrap();
    let get = |name: &str| {
        named
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("stats reply lacks '{name}'"))
    };
    assert_eq!(get("queries_ok"), 4);
    // The second identical reachability query must hit the SCC cache
    // the first one populated.
    assert!(get("scc_cache_misses") >= 1);
    assert!(get("scc_cache_hits") >= 1);
    let _ = get("scc_cache_evictions");
    // Likewise the second view query and the view cache.
    assert_eq!(get("view_cache_misses"), 1);
    assert_eq!(get("view_cache_hits"), 1);
    assert_eq!(get("view_cache_evictions"), 0);
    assert!(get("engine_epoch") >= 1);

    // This build has no dedicated fields for the engine pairs: they
    // must land in `extra`, not vanish (forward compatibility).
    let snap = StatsSnapshot::from_named(&named);
    assert!(snap.extra.iter().any(|(n, _)| n == "scc_cache_hits"));
    assert!(snap.extra.iter().any(|(n, _)| n == "view_cache_hits"));
    assert_eq!(StatsSnapshot::from_named(&snap.named()), snap);

    drop(client);
    server.wait();
}

#[test]
fn slowlog_records_over_threshold_statements_with_profiles() {
    let config = ServeConfig {
        slow_threshold: Some(Duration::ZERO), // everything is "slow"
        slowlog_capacity: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(tour_engine(), config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let expected_epoch = client.ping().unwrap();
    client.query(PEOPLE_QUERY).unwrap();
    client.query(REACH_QUERY).unwrap();
    client.query("this does not parse").unwrap_err();

    let entries = client.slowlog().unwrap();
    // Capacity 2: the oldest of the three statements was evicted.
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].text, REACH_QUERY);
    assert_eq!(entries[0].epoch, expected_epoch);
    // Successful statements carry a rendered execution profile with
    // real timings; the parse failure has none.
    assert!(
        entries[0].profile.contains("match"),
        "{}",
        entries[0].profile
    );
    assert!(
        entries[0].profile.contains("rows="),
        "{}",
        entries[0].profile
    );
    assert_eq!(entries[1].text, "this does not parse");
    assert!(entries[1].profile.is_empty());

    // The counter and the ring agree.
    assert_eq!(server.stats().slow_queries, 3);
    drop(client);
    server.wait();
}

#[test]
fn slowlog_is_empty_without_a_threshold() {
    let server = Server::start(tour_engine(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.query(PEOPLE_QUERY).unwrap();
    assert!(client.slowlog().unwrap().is_empty());
    assert_eq!(server.stats().slow_queries, 0);
    drop(client);
    server.wait();
}
