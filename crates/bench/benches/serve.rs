//! Closed-loop load generation against a real `gcore-serve` server:
//! N client threads, each with its own TCP connection, issue a mixed
//! read workload (scans, joins, OPTIONAL, reachability, shortest
//! paths, §5 SELECTs) plus occasional writes against an SNB-1000
//! engine, as fast as the server answers.
//!
//! Two kinds of readings:
//!
//! * criterion groups `serve_rpc` (single-statement round-trip latency
//!   over TCP, per statement class — the protocol + codec overhead on
//!   top of the engine) and `serve_closed_loop` (whole mixed corpus,
//!   once per client count);
//! * a one-shot throughput/percentile run printed to stdout
//!   (statements/s, p50/p95/p99 latency per client count) — those are
//!   the numbers recorded in docs/BENCHMARKING.md.

use criterion::{criterion_group, criterion_main, Criterion};
use gcore_bench::snb_engine;
use gcore_serve::{Client, ServeConfig, Server, ServerHandle};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The mixed read corpus (same spread as the in-process concurrency
/// bench, so serve numbers are comparable with engine numbers).
const READS: &[&str] = &[
    "CONSTRUCT (n) MATCH (n:Person) WHERE n.personId < 50",
    "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE n.personId < 50",
    "CONSTRUCT (n)-[:fof]->(k) \
     MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(k:Person) WHERE n.personId < 10",
    "SELECT n.personId AS id, n.firstName AS name MATCH (n:Person) WHERE n.personId < 300",
    "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.personId = 0",
    "CONSTRUCT (n)-/@p:sp/->(m) \
     MATCH (n:Person)-/p <:knows*>/->(m:Person) WHERE n.personId = 1",
    "CONSTRUCT (t) MATCH (n:Person)-[:hasInterest]->(t:Tag) WHERE n.personId < 150",
    "SELECT m.firstName AS friend MATCH (n:Person)-[:knows]->(m:Person) WHERE n.personId < 80",
];

/// One write per round per client, made unique by (client, round) so
/// views never collide and every commit really mutates the catalog.
fn write_stmt(client: usize, round: usize) -> String {
    format!(
        "GRAPH VIEW bench_c{client}_r{round} AS \
         (CONSTRUCT (n) MATCH (n:Person) WHERE n.personId < 10)"
    )
}

fn start_server(clients: usize) -> ServerHandle {
    let config = ServeConfig {
        threads: clients.max(2),
        max_connections: clients + 2,
        ..ServeConfig::default()
    };
    Server::start(snb_engine(1000), config).expect("bench server boots")
}

/// Closed loop: every client thread hammers the mixed corpus `rounds`
/// times (READS.len() queries + 1 write per round), recording each
/// statement's round-trip latency. Returns all latencies.
fn closed_loop(addr: std::net::SocketAddr, clients: usize, rounds: usize) -> Vec<Duration> {
    let threads: Vec<_> = (0..clients)
        .map(|ci| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("bench client connects");
                let mut latencies = Vec::with_capacity(rounds * (READS.len() + 1));
                for round in 0..rounds {
                    for text in READS {
                        let t0 = Instant::now();
                        client.query(text).expect("read answers");
                        latencies.push(t0.elapsed());
                    }
                    let write = write_stmt(ci, round);
                    let t0 = Instant::now();
                    client.transact(&write).expect("write commits");
                    latencies.push(t0.elapsed());
                }
                latencies
            })
        })
        .collect();
    let mut all = Vec::new();
    for t in threads {
        all.extend(t.join().expect("bench client thread"));
    }
    all
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let ix = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[ix]
}

/// The one-shot throughput/percentile table for BENCHMARKING.md.
fn report_throughput() {
    println!("serve closed-loop (SNB-1000, mixed reads + writes):");
    for clients in [1usize, 2, 4] {
        let server = start_server(clients);
        let addr = server.addr();
        // Warm the snapshot and caches once.
        closed_loop(addr, 1, 1);
        let rounds = 3;
        let t0 = Instant::now();
        let mut latencies = closed_loop(addr, clients, rounds);
        let wall = t0.elapsed();
        latencies.sort();
        let statements = latencies.len();
        println!(
            "  {clients} client(s): {statements} stmts in {:.2}s -> {:.1} stmt/s, \
             p50 {:.2?} p95 {:.2?} p99 {:.2?}",
            wall.as_secs_f64(),
            statements as f64 / wall.as_secs_f64(),
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.95),
            percentile(&latencies, 0.99),
        );
        server.wait();
    }
}

/// The abandoned-worker scenario, quantified: every round each client
/// fires a pathological statement that only the cooperative timeout
/// can end, then a fast read on the same connection. The fast-read
/// latencies measure how promptly workers come back from a cancelled
/// statement; the server-side per-route histogram cross-checks the
/// client-side numbers.
fn report_timeout_mix() {
    // Triple cross product over 1000 Persons: ~10^9 candidate rows,
    // astronomically more than a 5 ms budget — it never completes, it
    // is always cancelled.
    const SLOW: &str = "SELECT COUNT(*) AS c \
                        MATCH (a:Person), (b:Person), (c:Person)";
    const CLIENTS: usize = 2;
    const ROUNDS: usize = 5;
    let server = start_server(CLIENTS);
    let addr = server.addr();
    closed_loop(addr, 1, 1); // warm the snapshot and caches
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("bench client connects");
                let mut fast = Vec::with_capacity(ROUNDS);
                for _ in 0..ROUNDS {
                    client.set_statement_timeout_ms(5).expect("set timeout");
                    client
                        .query(SLOW)
                        .expect_err("the pathological statement must be cut off");
                    client.set_statement_timeout_ms(0).expect("clear timeout");
                    let t0 = Instant::now();
                    client.query(READS[3]).expect("fast read answers");
                    fast.push(t0.elapsed());
                }
                fast
            })
        })
        .collect();
    let mut fast: Vec<Duration> = Vec::new();
    for t in threads {
        fast.extend(t.join().expect("timeout-mix client thread"));
    }
    fast.sort();
    let stats = server.stats();
    println!(
        "serve timeout mix (SNB-1000, {CLIENTS} clients x {ROUNDS} rounds, 5ms budget): \
         {} statements cancelled, fast-read-after-cancel p50 {:.2?} p95 {:.2?}, \
         server-side query p95 <= {:?}us",
        stats.statements_cancelled,
        percentile(&fast, 0.50),
        percentile(&fast, 0.95),
        stats.latency_query.quantile_upper_us(0.95).unwrap_or(0),
    );
    server.wait();
}

fn bench_serve(c: &mut Criterion) {
    report_throughput();
    report_timeout_mix();

    // Per-statement-class round-trip latency over TCP, one client.
    {
        let server = start_server(1);
        let mut client = Client::connect(server.addr()).expect("bench client");
        let mut g = c.benchmark_group("serve_rpc");
        g.sample_size(10);
        g.bench_function("ping", |b| b.iter(|| black_box(client.ping().unwrap())));
        g.bench_function("scan_select", |b| {
            b.iter(|| black_box(client.query(READS[3]).unwrap()))
        });
        g.bench_function("join_construct", |b| {
            b.iter(|| black_box(client.query(READS[1]).unwrap()))
        });
        g.bench_function("reachability", |b| {
            b.iter(|| black_box(client.query(READS[4]).unwrap()))
        });
        g.finish();
        drop(client);
        server.wait();
    }

    // Whole mixed corpus, closed loop, per client count.
    let mut g = c.benchmark_group("serve_closed_loop");
    g.sample_size(10);
    for clients in [1usize, 2, 4] {
        let server = start_server(clients);
        let addr = server.addr();
        closed_loop(addr, 1, 1); // warm-up
        g.bench_function(format!("mixed_{clients}c"), |b| {
            b.iter(|| black_box(closed_loop(addr, clients, 1)))
        });
        server.wait();
    }
    g.finish();

    // The same mixed load with the slow-query log armed at threshold 0:
    // every query is profiled and logged — the worst-case observability
    // overhead on the serving path, to compare against `mixed_2c`.
    let mut g = c.benchmark_group("serve_observability");
    g.sample_size(10);
    {
        const CLIENTS: usize = 2;
        let config = ServeConfig {
            threads: CLIENTS.max(2),
            max_connections: CLIENTS + 2,
            slow_threshold: Some(Duration::ZERO),
            ..ServeConfig::default()
        };
        let server = Server::start(snb_engine(1000), config).expect("bench server boots");
        let addr = server.addr();
        closed_loop(addr, 1, 1); // warm-up
        g.bench_function("mixed_2c_slowlog", |b| {
            b.iter(|| black_box(closed_loop(addr, CLIENTS, 1)))
        });
        server.wait();
    }
    g.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
