//! One benchmark run: set-up, the measured phase, and — with tracing on
//! — the traced replay and the layer probes. End-to-end metrics come
//! only from [`untraced`]; [`traced`] produces the per-layer table.

use crate::drive::{boot, measure_socket, measure_store, readers, restart_cycle, Live, Measured};
use crate::fixture::{build, catalog_digests, engine_parallelism, nproc, Fixture};
use crate::json::{obj, Json};
use crate::keep_awake::KeepAwake;
use crate::metrics::{fill, Measurement, END_TO_END, PER_LAYER, WRITER_ONLY};
use crate::oracle::Digest;
use crate::probes;
use crate::stats::{median, percentile, sorted};
use crate::trace::replay_passes;
use crate::workloads::{Kind, Workload};
use gcore::Engine;
use gcore_store::DirBackend;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What to run.
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Drives the generated graph and every parameter draw.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// SNB scale; the workload's own unless a smoke run shrinks it.
    pub persons: usize,
    /// Where the run's record, trace file and store directory go.
    pub out_dir: PathBuf,
}

/// What a run produced.
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Errors + refusals + oracle mismatches among them.
    pub failed: u64,
    /// Every metric of the run's table, in table order.
    pub metrics: Vec<Measurement>,
    /// End-to-end metrics only this workload produces ([`WRITER_ONLY`]):
    /// in the run record, not in the contract line.
    pub own_metrics: Vec<Measurement>,
    /// The full record of the run (superset of `metrics`).
    pub detail: Json,
}

impl Outcome {
    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        obj([
            ("correct", (self.failed == 0).into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .render()
    }
}

fn metrics_json(metrics: &[Measurement]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.def.name.to_owned(),
                    obj([("value", m.value.into()), ("unit", m.def.unit.into())]),
                )
            })
            .collect(),
    )
}

/// How often the untraced run repeats its whole set-up; `setup_s` is
/// the median, and the measured phase uses the last one.
const SETUP_REPEATS: usize = 3;

/// What `DirBackend::put_bytes` does today, stated in the record because
/// `store_restart` latencies depend on it.
const FLUSH_POLICY: &str =
    "per object: write tmp file, File::sync_all, rename, sync_all on the parent directory";

/// Run one workload once.
pub fn run(o: &Options) -> Outcome {
    std::fs::create_dir_all(&o.out_dir).expect("output directory is writable");
    let keep_awake = KeepAwake::start(idle_cores(o.workload));
    let outcome = if o.trace { traced(o) } else { untraced(o) };
    keep_awake.stop();
    let path = o.out_dir.join(format!(
        "run_{}_t{}.json",
        o.workload.name,
        u8::from(o.trace)
    ));
    std::fs::write(path, outcome.detail.render_pretty()).expect("run record is writable");
    outcome
}

/// Cores a socket workload's closed loop leaves idle: each client has
/// one statement in flight, handed between one client and one worker
/// thread. 0 where there is no such handover to steady (`store_restart`)
/// or the engine is given every core (`wide_par_1c`); a yielder there
/// only costs 2–3 %.
fn idle_cores(w: &Workload) -> usize {
    if w.parallel || w.kind == Kind::StoreRestart {
        0
    } else {
        nproc().saturating_sub(readers(w))
    }
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

enum Target {
    Socket(Live),
    Store {
        engine: Engine,
        /// Digest of every catalog graph of `engine`, by name.
        catalog: Vec<(String, Digest)>,
        backend: DirBackend,
    },
}

struct Ready {
    fx: Fixture,
    target: Target,
    /// A second engine over the catalog as set up (graphs are
    /// `Arc`-shared), for `stored_bytes_per_element` after the run.
    twin: Engine,
}

fn store_dir(o: &Options) -> PathBuf {
    o.out_dir
        .join(format!("store_{}_{}", o.workload.name, std::process::id()))
}

/// The whole set-up: generate, build, digest, then boot + connect +
/// warm up (socket) or open the store directory + one warm cycle.
fn set_up(o: &Options) -> Ready {
    let (engine, fx) = build(o.workload, o.seed, o.persons);
    let twin = Engine::with_catalog(engine.catalog().clone());
    let target = match o.workload.kind {
        Kind::Socket | Kind::ReadWrite => Target::Socket(boot(o.workload, engine, &fx)),
        Kind::StoreRestart => {
            let catalog = catalog_digests(&engine);
            let backend = DirBackend::new(store_dir(o)).expect("store directory opens");
            let (_, ok) = restart_cycle(&engine, &backend, &fx, &catalog, 0);
            assert!(ok, "warm-up restart cycle matches the oracle");
            Target::Store {
                engine,
                catalog,
                backend,
            }
        }
    };
    Ready { fx, target, twin }
}

fn tear_down(o: &Options, ready: Ready) {
    match ready.target {
        Target::Socket(live) => live.teardown(),
        Target::Store { .. } => remove_store_dir(o),
    }
}

fn remove_store_dir(o: &Options) {
    // Best effort: a leftover directory is inside the ignored output
    // directory and is overwritten by the next run.
    let _ = std::fs::remove_dir_all(store_dir(o));
}

/// The measured phase; returns the catalog twin alongside.
fn measure(o: &Options, ready: Ready, seconds: f64) -> (Fixture, Measured, Engine) {
    let Ready { fx, target, twin } = ready;
    let measured = match target {
        Target::Socket(live) => measure_socket(&fx, live, o.seed, seconds),
        Target::Store {
            engine,
            catalog,
            backend,
        } => {
            let m = measure_store(&engine, &backend, &fx, &catalog, o.seed, seconds);
            remove_store_dir(o);
            m
        }
    };
    (fx, measured, twin)
}

/// Bytes in the data directory after `save_to(DirBackend)` of the
/// workload's catalog, per node + edge + stored path. Exact for a seed.
fn stored_bytes_per_element(o: &Options, twin: &Engine, fx: &Fixture) -> f64 {
    let backend = DirBackend::new(store_dir(o)).expect("store directory opens");
    twin.save_to(&backend).expect("catalog saves");
    let bytes = probes::stored_bytes(&backend);
    remove_store_dir(o);
    bytes as f64 / fx.elements as f64
}

// ---------------------------------------------------------------------
// The end-to-end run
// ---------------------------------------------------------------------

fn untraced(o: &Options) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut ready: Option<Ready> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = ready.take() {
            tear_down(o, prev);
        }
        let t = Instant::now();
        ready = Some(set_up(o));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (fx, m, twin) = measure(o, ready.expect("set up at least once"), o.seconds);
    let client = ClientSide::of(o.workload, &m);
    // Read before the save below adds its encode buffers to the peak.
    let peak_rss_mb = peak_rss_mb();
    let metrics = fill(
        END_TO_END,
        &[
            ("ops_per_s", client.sliced.ops_per_s),
            ("op_p50_ms", client.sliced.p50_ms),
            ("op_p95_ms", client.sliced.p95_ms),
            ("peak_rss_mb", peak_rss_mb),
            (
                "stored_bytes_per_element",
                stored_bytes_per_element(o, &twin, &fx),
            ),
            ("setup_s", median(&setups)),
        ],
    );
    let (write_ms, _) = ClientSide::write_latencies_ms(&m);
    let own_metrics = if write_ms.is_empty() {
        Vec::new()
    } else {
        fill(WRITER_ONLY, &[("write_p50_ms", percentile(&write_ms, 0.5))])
    };
    let mut detail = run_header(o, &fx);
    detail.push(("setup_s_values".into(), nums(&setups)));
    detail.push(("client".into(), client.to_json(&m)));
    detail.push(("client_class".into(), class_json(o.workload, &m)));
    let gated: Vec<Measurement> = metrics.iter().chain(&own_metrics).copied().collect();
    detail.push(("end_to_end".into(), metrics_json(&gated)));
    Outcome {
        attempted: client.attempted,
        failed: client.failed,
        metrics,
        own_metrics,
        detail: Json::Obj(detail),
    }
}

fn run_header(o: &Options, fx: &Fixture) -> Vec<(String, Json)> {
    let w = o.workload;
    vec![
        ("workload".into(), w.name.into()),
        ("seed".into(), o.seed.into()),
        ("seconds".into(), o.seconds.into()),
        ("traced".into(), o.trace.into()),
        ("snb_persons".into(), o.persons.into()),
        ("catalog_elements".into(), fx.elements.into()),
        ("clients".into(), w.clients.into()),
        ("loop".into(), loop_kind(w).into()),
        ("engine_parallelism".into(), engine_parallelism(w).into()),
        ("nproc".into(), nproc().into()),
        ("keep_awake_threads".into(), idle_cores(w).into()),
        ("distinct_texts".into(), fx.pool.len().into()),
        ("dir_backend_flush_policy".into(), FLUSH_POLICY.into()),
    ]
}

fn loop_kind(w: &Workload) -> &'static str {
    match w.kind {
        Kind::Socket => "closed loop: each client waits for its reply",
        Kind::ReadWrite => "closed-loop reader + open-loop writer, one transact due every 100 ms",
        Kind::StoreRestart => "closed loop, in process: one restart cycle after the other",
    }
}

/// What the clients saw, reduced.
struct ClientSide {
    attempted: u64,
    failed: u64,
    ok_reads: u64,
    /// Latencies of correct reads, ascending.
    latencies_ms: Vec<f64>,
    /// The three gated client metrics, each the median over the time
    /// slices of the measured phase.
    sliced: Sliced,
}

/// Throughput and latency quantiles as medians over equal time slices
/// of the measured phase: a burst of host noise spoils the slices it
/// falls in, not the run. A slice holds at least [`MIN_SLICE_OPS`]
/// correct ops, so slow workloads are one slice — the plain figures.
struct Sliced {
    slices: usize,
    ops_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
}

const MAX_SLICES: usize = 10;
const MIN_SLICE_OPS: usize = 200;

impl Sliced {
    fn of(m: &Measured, ok_reads: usize) -> Self {
        let slices = (ok_reads / MIN_SLICE_OPS).clamp(1, MAX_SLICES);
        let slice_ns = m.wall_s * 1e9 / slices as f64;
        let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); slices];
        for s in m.samples.iter().filter(|s| s.ok) {
            let i = ((s.done_ns as f64 / slice_ns) as usize).min(slices - 1);
            latencies[i].push(s.ns as f64 / 1e6);
        }
        // An empty slice (a stall longer than a slice) counts as rate 0
        // and contributes no latency quantile.
        let rates: Vec<f64> = latencies
            .iter()
            .map(|l| l.len() as f64 / (slice_ns / 1e9))
            .collect();
        let quantile = |q: f64| {
            median(
                &latencies
                    .iter()
                    .filter(|l| !l.is_empty())
                    .map(|l| percentile(&sorted(l.clone()), q))
                    .collect::<Vec<_>>(),
            )
        };
        Sliced {
            slices,
            ops_per_s: median(&rates),
            p50_ms: quantile(0.50),
            p95_ms: quantile(0.95),
        }
    }
}

impl ClientSide {
    /// # Panics
    ///
    /// When no read came back correct: there is nothing to report, and
    /// the run must not print a result.
    fn of(w: &Workload, m: &Measured) -> Self {
        let ok_reads = m.samples.iter().filter(|s| s.ok).count() as u64;
        let ok_writes = m.writes.iter().filter(|s| s.ok).count() as u64;
        let attempted = (m.samples.len() + m.writes.len()) as u64;
        assert!(
            ok_reads > 0,
            "{}: no correct operation in the measured phase",
            w.name
        );
        ClientSide {
            attempted,
            failed: attempted - ok_reads - ok_writes,
            ok_reads,
            sliced: Sliced::of(m, ok_reads as usize),
            latencies_ms: sorted(
                m.samples
                    .iter()
                    .filter(|s| s.ok)
                    .map(|s| s.ns as f64 / 1e6)
                    .collect(),
            ),
        }
    }

    fn class_p50_ms(w: &Workload, m: &Measured) -> Vec<(usize, f64, usize)> {
        (0..w.classes.len())
            .filter_map(|ci| {
                let l = sorted(
                    m.samples
                        .iter()
                        .filter(|s| s.ok && s.class == ci)
                        .map(|s| s.ns as f64 / 1e6)
                        .collect(),
                );
                (!l.is_empty()).then(|| (ci, percentile(&l, 0.5), l.len()))
            })
            .collect()
    }

    fn write_latencies_ms(m: &Measured) -> (Vec<f64>, Vec<f64>) {
        let ok = || m.writes.iter().filter(|s| s.ok);
        (
            sorted(ok().map(|s| s.ns_from_due as f64 / 1e6).collect()),
            sorted(ok().map(|s| s.lag_ns as f64 / 1e6).collect()),
        )
    }

    fn to_json(&self, m: &Measured) -> Json {
        let (write_ms, lag_ms) = Self::write_latencies_ms(m);
        let mut pairs = vec![
            ("attempted".to_owned(), self.attempted.into()),
            ("failed".to_owned(), self.failed.into()),
            (
                "failed_ratio".to_owned(),
                (self.failed as f64 / self.attempted as f64).into(),
            ),
            ("reads_ok".to_owned(), self.ok_reads.into()),
            ("wall_s".to_owned(), m.wall_s.into()),
            ("time_slices".to_owned(), self.sliced.slices.into()),
            (
                "whole_phase_ops_per_s".to_owned(),
                (self.ok_reads as f64 / m.wall_s).into(),
            ),
            (
                "p50_ms".to_owned(),
                percentile(&self.latencies_ms, 0.50).into(),
            ),
            (
                "p95_ms".to_owned(),
                percentile(&self.latencies_ms, 0.95).into(),
            ),
            (
                "p99_ms".to_owned(),
                percentile(&self.latencies_ms, 0.99).into(),
            ),
        ];
        if !write_ms.is_empty() {
            pairs.push(("writes_ok".to_owned(), write_ms.len().into()));
            pairs.push(("write_p50_ms".to_owned(), percentile(&write_ms, 0.5).into()));
            pairs.push((
                "writer_lag_p95_ms".to_owned(),
                percentile(&lag_ms, 0.95).into(),
            ));
        }
        Json::Obj(pairs)
    }
}

fn class_json(w: &Workload, m: &Measured) -> Json {
    Json::Obj(
        ClientSide::class_p50_ms(w, m)
            .into_iter()
            .map(|(ci, p50, n)| {
                (
                    w.classes[ci].name.to_owned(),
                    obj([("p50_ms", p50.into()), ("samples", n.into())]),
                )
            })
            .collect(),
    )
}

fn percentile_or_zero(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, q)
    }
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| v.into()).collect())
}

/// `VmHWM` of this process, in MB.
///
/// # Panics
///
/// Where `/proc/self/status` has no `VmHWM`: a gated metric is never 0,
/// so the run must not print a result.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status carries VmHWM in kB");
    kb / 1024.0
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Shares of `--seconds` the traced run gives its two timed phases; the
/// probes after them are bounded by count, not time.
const CLOSED_LOOP_SHARE: f64 = 0.35;
const REPLAY_SHARE: f64 = 0.35;

fn traced(o: &Options) -> Outcome {
    let w = o.workload;
    let (engine, fx) = build(w, o.seed, o.persons);
    // The server takes the warm engine; the replay gets its own over the
    // same catalog (graphs are `Arc`-shared, identifiers one generator).
    let mut local = Engine::with_catalog(engine.catalog().clone());
    local.set_parallelism(engine_parallelism(w));

    // -- phase A: client side, through the socket / the store ---------
    let store = probes::store(
        &store_dir(o),
        &engine,
        &fx,
        o.seed,
        (w.kind == Kind::StoreRestart).then_some(o.seconds * CLOSED_LOOP_SHARE),
    );
    let mut live = boot(w, engine, &fx);
    let ping_us = probes::ping_us(&mut live);
    let socket_seconds = if w.kind == Kind::StoreRestart {
        // The socket is not this workload's path: a short loop, only so
        // that the serve.* layer metrics exist for it.
        1.0_f64.min(o.seconds * 0.1)
    } else {
        o.seconds * CLOSED_LOOP_SHARE
    };
    let socket = measure_socket(&fx, live, o.seed, socket_seconds);
    let server = socket.server.clone().expect("socket phase reports stats");
    // The workload's own ops: restart cycles for store_restart.
    let m = if w.kind == Kind::StoreRestart {
        &store.measured
    } else {
        &socket
    };
    let client = ClientSide::of(w, m);
    let (write_ms, lag_ms) = ClientSide::write_latencies_ms(m);

    // -- phase B: the traced replay, against an untraced twin ---------
    let replay = replay_passes(
        &mut local,
        &fx,
        Duration::from_secs_f64(o.seconds * REPLAY_SHARE),
    );
    std::fs::write(
        o.out_dir.join(format!("trace_{}.json", w.name)),
        obj([
            ("workload", w.name.into()),
            ("seed", o.seed.into()),
            ("snb_persons", o.persons.into()),
            ("spans", replay.last.to_json()),
        ])
        .render(),
    )
    .expect("trace file is writable");

    // -- phase C: layer probes ---------------------------------------
    let remote_p50: Vec<(usize, f64, usize)> = ClientSide::class_p50_ms(w, &socket);
    let overhead_us = median(
        &remote_p50
            .iter()
            .map(|&(ci, p50_ms, _)| p50_ms * 1e3 - replay.inproc_class_p50_us[ci])
            .collect::<Vec<_>>(),
    );
    let (encode_mb_per_s, decode_mb_per_s) = probes::graph_codec_mb_per_s(&local);
    let summary_us = probes::summary_us(&mut local);
    let par = probes::par(&mut local, &fx);
    let freeze_us = probes::freeze_us(&mut local);

    let c = replay.counts;
    let ops = c.ops as f64;
    let lookups = (replay.scc_hits + replay.scc_misses) as f64;
    let layer_us = |name: &str| replay.layer_us(name);
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let values = [
        ("client.p99_ms", percentile(&client.latencies_ms, 0.99)),
        // Both 0 on workloads without a writer.
        ("client.write_p50_ms", percentile_or_zero(&write_ms, 0.50)),
        (
            "client.writer_lag_p95_ms",
            percentile_or_zero(&lag_ms, 0.95),
        ),
        ("serve.ping_us", ping_us),
        ("serve.overhead_us", overhead_us),
        ("serve.request_decode_us", layer_us("serve.decode_request")),
        (
            "serve.frame_encode_us_per_mb",
            layer_us("serve.encode_frames") * ops / mb(c.reply_bytes),
        ),
        (
            "serve.frame_decode_us_per_mb",
            layer_us("serve.decode_frames") * ops / mb(c.reply_bytes),
        ),
        ("serve.reply_bytes_per_op", c.reply_bytes as f64 / ops),
        ("serve.queries_err", server.queries_err as f64),
        (
            "serve.busy_rejections",
            (server.connections_rejected_busy + server.connections_shed_queue_full) as f64,
        ),
        ("serve.statement_timeouts", server.statement_timeouts as f64),
        ("snapshot.pin_us", layer_us("snapshot.pin")),
        ("snapshot.freeze_us", freeze_us),
        // 0 when the workload never consults the cache.
        (
            "snapshot.scc_hit_ratio",
            if lookups > 0.0 {
                replay.scc_hits as f64 / lookups
            } else {
                0.0
            },
        ),
        ("snapshot.scc_hits", replay.scc_hits as f64),
        ("snapshot.scc_misses", replay.scc_misses as f64),
        ("parser.parse_us", layer_us("parser.parse")),
        (
            "parser.mb_per_s",
            c.text_bytes as f64 / ops / layer_us("parser.parse"),
        ),
        ("analyze.check_us", layer_us("analyze.check")),
        ("analyze.summary_us", summary_us),
        ("plan.us", layer_us("plan")),
        ("plan.misestimates", c.misestimates as f64),
        ("match.self_us", layer_us("match")),
        ("match.pattern_us", layer_us("pattern")),
        ("match.join_us", layer_us("join")),
        ("match.where_us", layer_us("where")),
        ("match.optional_us", layer_us("optional")),
        (
            "match.rows_examined_per_result",
            c.pattern_rows as f64 / c.match_rows.max(1) as f64,
        ),
        ("paths.search_us", layer_us("path-search")),
        ("paths.frontier_pops", c.frontier_pops as f64),
        ("construct.us", layer_us("construct")),
        ("select.us", layer_us("select")),
        ("eval.fixed_us", layer_us("eval")),
        ("store.encode_result_us", layer_us("store.encode_result")),
        ("store.decode_result_us", layer_us("store.decode_result")),
        ("store.encode_graph_mb_per_s", encode_mb_per_s),
        ("store.decode_graph_mb_per_s", decode_mb_per_s),
        ("store.save_ms", store.leg_ms(|l| l.save_ns)),
        ("store.open_ms", store.leg_ms(|l| l.open_ns)),
        ("store.first_answer_ms", store.leg_ms(|l| l.answer_ns)),
        ("store.bytes_written_per_cycle", store.bytes_written as f64),
        ("store.backend_ops_per_save", store.backend_ops as f64),
        ("par.stmt_speedup", par.stmt_speedup),
        ("par.batch_speedup", par.batch_speedup),
        ("snb.generate_ms", fx.generate_ms),
        ("trace.op_us", layer_us("op.total")),
        ("trace.overhead_ratio", replay.overhead_ratio),
    ];
    let metrics = fill(PER_LAYER, &values);

    let mut detail = run_header(o, &fx);
    detail.push(("client".into(), client.to_json(m)));
    detail.push(("client_class".into(), class_json(w, m)));
    detail.push(("traced_passes".into(), replay.passes.into()));
    detail.push(("par_class_speedup".into(), par.class_json(w)));
    detail.push(("par_base".into(), par.base.into()));
    detail.push(("trip_share".into(), replay.share_json()));
    detail.push(("per_layer".into(), metrics_json(&metrics)));
    Outcome {
        attempted: client.attempted,
        failed: client.failed,
        metrics,
        own_metrics: Vec::new(),
        detail: Json::Obj(detail),
    }
}
