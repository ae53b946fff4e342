//! Layer probes of the traced run: calls into one layer's public
//! functions, timed from outside, over the workload's own catalog and
//! statement pool. Each is bounded by a repetition count, not by time.

use crate::drive::{measure_store, restart_cycle, Live, Measured, RestartLegs};
use crate::fixture::{catalog_digests, nproc, Fixture};
use crate::json::Json;
use crate::stats::median;
use crate::workloads::{write_stmt, Workload};
use gcore::{run_batch_on, CatalogSummary, Engine};
use gcore_store::{decode_graph, encode_graph, DirBackend, StorageBackend, StoreError};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Pings for `serve.ping_us`.
const PINGS: usize = 10_000;
/// Repetitions of the graph codec, summary, freeze and store-cycle probes.
const PROBE_REPS: usize = 5;

/// Median wall time of `reps` calls of `f`, in µs.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&us)
}

/// `Client::ping` round trips on the first reader's connection, before
/// the load starts (every worker thread serves one connection, so there
/// is none to spare for a connection of the probe's own).
pub fn ping_us(live: &mut Live) -> f64 {
    let client = &mut live.readers[0];
    median_us(PINGS, || {
        client.ping().expect("ping answers");
    })
}

/// `CatalogSummary::of`: what the catalog-aware `check` routes build per
/// call (the query route never does).
pub fn summary_us(engine: &mut Engine) -> f64 {
    let snapshot = engine.snapshot();
    median_us(PROBE_REPS, || {
        black_box(CatalogSummary::of(snapshot.catalog()));
    })
}

/// `Engine::snapshot()` right after a view commit: the catalog clone
/// and index freeze the first reader after a write pays.
pub fn freeze_us(engine: &mut Engine) -> f64 {
    let us: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            engine.run(&write_stmt(0)).expect("probe view commits");
            median_us(1, || {
                black_box(engine.snapshot());
            })
        })
        .collect();
    median(&us)
}

/// `encode_graph` / `decode_graph` on the default graph, in MB/s.
pub fn graph_codec_mb_per_s(engine: &Engine) -> (f64, f64) {
    let graph = engine
        .catalog()
        .default_graph()
        .expect("default graph is set");
    let mut bytes = Vec::new();
    let encode_us = median_us(PROBE_REPS, || {
        bytes = encode_graph(black_box(&graph)).expect("graph encodes");
    });
    let decode_us = median_us(PROBE_REPS, || {
        black_box(decode_graph(black_box(&bytes)).expect("graph decodes"));
    });
    // bytes / µs = MB/s.
    let len = bytes.len() as f64;
    (len / encode_us, len / decode_us)
}

/// Bytes of every object in the store.
pub fn stored_bytes(backend: &DirBackend) -> u64 {
    backend
        .list()
        .expect("store lists")
        .iter()
        .map(|key| backend.get_bytes(key).expect("object reads").len() as u64)
        .sum()
}

/// Counts what goes through the public `StorageBackend` trait on its
/// way to a `DirBackend`.
struct CountingBackend {
    inner: DirBackend,
    ops: AtomicU64,
    bytes_put: AtomicU64,
}

impl CountingBackend {
    fn op(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }
}

impl StorageBackend for CountingBackend {
    fn put_bytes(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.op();
        self.bytes_put
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.put_bytes(key, bytes)
    }
    fn get_bytes(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        self.op();
        self.inner.get_bytes(key)
    }
    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.op();
        self.inner.list()
    }
    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.op();
        self.inner.delete(key)
    }
}

/// What the store probe saw.
pub struct StoreProbe {
    /// The cycles it ran (samples only when it was the measured phase).
    pub measured: Measured,
    /// Backend calls during one `save_to` over an already-saved store.
    pub backend_ops: u64,
    /// Bytes put during that save.
    pub bytes_written: u64,
}

impl StoreProbe {
    /// Median of one leg over the cycles, in ms.
    pub fn leg_ms(&self, leg: impl Fn(&RestartLegs) -> u64) -> f64 {
        median(
            &self
                .measured
                .legs
                .iter()
                .map(|l| leg(l) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }
}

/// Restart cycles through a counting backend in `dir`: for
/// `measured_seconds` when they are the workload's measured phase
/// (`store_restart`), a few cycles otherwise so the store layer has
/// numbers on every workload. Removes `dir` afterwards.
pub fn store(
    dir: &Path,
    engine: &Engine,
    fx: &Fixture,
    seed: u64,
    measured_seconds: Option<f64>,
) -> StoreProbe {
    let backend = CountingBackend {
        inner: DirBackend::new(dir).expect("store directory opens"),
        ops: AtomicU64::new(0),
        bytes_put: AtomicU64::new(0),
    };
    let catalog = catalog_digests(engine);
    let (_, ok) = restart_cycle(engine, &backend, fx, &catalog, 0);
    assert!(ok, "warm-up restart cycle matches the oracle");
    // Exact counts: one save over the already-saved store.
    let (ops0, bytes0) = (
        backend.ops.load(Ordering::Relaxed),
        backend.bytes_put.load(Ordering::Relaxed),
    );
    engine.save_to(&backend).expect("save succeeds");
    let backend_ops = backend.ops.load(Ordering::Relaxed) - ops0;
    let bytes_written = backend.bytes_put.load(Ordering::Relaxed) - bytes0;
    let measured = match measured_seconds {
        Some(seconds) => measure_store(engine, &backend, fx, &catalog, seed, seconds),
        None => {
            let mut m = Measured::default();
            for ix in 0..PROBE_REPS {
                let (legs, ok) = restart_cycle(engine, &backend, fx, &catalog, ix % fx.pool.len());
                assert!(ok, "probe restart cycle matches the oracle");
                m.legs.push(legs);
            }
            m
        }
    };
    // Best effort: a leftover directory sits in the ignored output
    // directory and is overwritten by the next run.
    let _ = std::fs::remove_dir_all(dir);
    StoreProbe {
        measured,
        backend_ops,
        bytes_written,
    }
}

/// What the parallelism probe saw; every ratio is t(1) / t(nproc).
pub struct ParProbe {
    /// `set_parallelism(1)` vs `(nproc)` over the pool, statement by
    /// statement.
    pub stmt_speedup: f64,
    /// `run_batch_on` with 1 worker vs nproc workers, engine
    /// parallelism 1.
    pub batch_speedup: f64,
    /// `stmt_speedup` per class.
    pub class_speedup: Vec<f64>,
    /// What the ratios are relative to.
    pub base: String,
}

impl ParProbe {
    /// `{class: speedup}`.
    pub fn class_json(&self, w: &Workload) -> Json {
        Json::Obj(
            w.classes
                .iter()
                .zip(&self.class_speedup)
                .map(|(c, &s)| (c.name.to_owned(), s.into()))
                .collect(),
        )
    }
}

/// Intra-query parallelism (`set_parallelism`) and inter-query
/// parallelism (`run_batch_on`) over the workload's own statements.
pub fn par(engine: &mut Engine, fx: &Fixture) -> ParProbe {
    let n = nproc();
    let mut class_s = vec![[0.0f64; 2]; fx.by_class.len()];
    for (slot, threads) in [(0, 1), (1, n)] {
        let mut executor = engine.executor();
        executor.set_parallelism(threads);
        for s in &fx.pool {
            let t = Instant::now();
            black_box(executor.run(&s.text)).expect("pool statement evaluates");
            class_s[s.class][slot] += t.elapsed().as_secs_f64();
        }
    }
    let total = |slot: usize| class_s.iter().map(|c| c[slot]).sum::<f64>();
    let texts: Vec<&str> = fx.pool.iter().map(|s| s.text.as_str()).collect();
    let mut executor = engine.executor();
    executor.set_parallelism(1);
    let batch = [1, n].map(|workers| {
        let t = Instant::now();
        black_box(run_batch_on(&executor, &texts, workers));
        t.elapsed().as_secs_f64()
    });
    ParProbe {
        stmt_speedup: total(0) / total(1),
        batch_speedup: batch[0] / batch[1],
        class_speedup: class_s.iter().map(|c| c[0] / c[1]).collect(),
        base: format!("t(1 thread) / t({n} threads), in process, one pass over the pool"),
    }
}
