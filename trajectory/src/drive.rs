//! The measured phases: closed-loop clients against a loopback
//! `gcore_serve::Server` (plus the scheduled writer of `read_write_2c`),
//! and the save → open → first-answer cycles of `store_restart`. Every
//! reply is checked against the oracle; nothing here records spans.

use crate::fixture::{catalog_digests, Fixture};
use crate::oracle::{digest_output, Digest};
use crate::workloads::{self, Kind, Workload};
use gcore::Engine;
use gcore_serve::{Client, ServeConfig, ServeError, Server, ServerHandle, StatsSnapshot};
use gcore_store::StorageBackend;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A runaway statement ends in `S002` (counted as failed) long before
/// the driver's 180 s limit.
const STATEMENT_TIMEOUT: Duration = Duration::from_secs(30);

/// One read op as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Index into the workload's classes.
    pub class: usize,
    /// Answered, and the answer matched the oracle.
    pub ok: bool,
    /// Client-side latency: request written → reply decoded.
    pub ns: u64,
    /// When the reply was decoded, since the start of the phase.
    pub done_ns: u64,
}

/// One scheduled write as the writer saw it.
#[derive(Clone, Copy, Debug)]
pub struct WriteSample {
    /// Committed, and the returned view matched the oracle.
    pub ok: bool,
    /// Commit latency counted from the due time (open loop).
    pub ns_from_due: u64,
    /// How late the generator sent it.
    pub lag_ns: u64,
}

/// The three legs of one `store_restart` cycle.
#[derive(Clone, Copy, Debug)]
pub struct RestartLegs {
    /// `Engine::save_to`.
    pub save_ns: u64,
    /// `Engine::open_from`.
    pub open_ns: u64,
    /// First statement on the reopened engine (pin, freeze, evaluate).
    pub answer_ns: u64,
}

/// What a measured phase produced.
#[derive(Default)]
pub struct Measured {
    /// Read ops (or restart cycles), all clients merged.
    pub samples: Vec<Sample>,
    /// Scheduled writes (`read_write_2c`).
    pub writes: Vec<WriteSample>,
    /// Per-cycle legs (`store_restart`).
    pub legs: Vec<RestartLegs>,
    /// Measured wall time.
    pub wall_s: f64,
    /// Server counters at the end of the phase (socket workloads).
    pub server: Option<StatsSnapshot>,
}

/// A booted server with its connected, warmed-up clients.
pub struct Live {
    /// The in-process server.
    pub server: ServerHandle,
    /// Closed-loop reader connections.
    pub readers: Vec<Client>,
    /// The scheduled writer's connection (`read_write_2c`).
    pub writer: Option<Client>,
}

impl Live {
    /// Close every connection, then drain and join the server.
    pub fn teardown(self) {
        drop(self.readers);
        drop(self.writer);
        self.server.wait();
    }
}

/// Boot a server over `engine` (worker threads = client connections),
/// connect, and run one statement per class on every reader so threads,
/// sockets and the snapshot are warm before the first measured op.
pub fn boot(w: &Workload, engine: Engine, fx: &Fixture) -> Live {
    let config = ServeConfig {
        threads: w.clients,
        max_connections: w.clients,
        statement_timeout: Some(STATEMENT_TIMEOUT),
        ..ServeConfig::default()
    };
    let server = Server::start(engine, config).expect("loopback server boots");
    let addr = server.addr();
    let mut readers: Vec<Client> = (0..readers(w)).map(|_| connect(addr)).collect();
    for client in &mut readers {
        for ids in &fx.by_class {
            let text = &fx.pool[ids[0]].text;
            client.query(text).expect("warm-up read answers");
        }
    }
    let writer = (w.kind == Kind::ReadWrite).then(|| connect(addr));
    Live {
        server,
        readers,
        writer,
    }
}

/// Closed-loop reader connections of a workload: all its clients but
/// the scheduled writer.
pub fn readers(w: &Workload) -> usize {
    if w.kind == Kind::ReadWrite {
        w.clients - 1
    } else {
        w.clients
    }
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("loopback client connects")
}

/// Run the closed loop for `seconds`: every reader sends its next
/// statement only after the previous reply (classes round-robin,
/// parameter drawn per op from `seed`); the writer, if any, commits on
/// its schedule. Tears the server down afterwards.
pub fn measure_socket(fx: &Fixture, live: Live, seed: u64, seconds: f64) -> Measured {
    let Live {
        server,
        readers,
        writer,
    } = live;
    let addr = server.addr();
    let n_readers = readers.len();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut out = Measured::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let rng = SmallRng::seed_from_u64(seed ^ (0x7265_6164 + c as u64));
                // Readers start at different classes so they do not run
                // in lockstep.
                let first_class = c * fx.by_class.len() / n_readers;
                s.spawn(move || reader_loop(fx, client, addr, rng, first_class, start, deadline))
            })
            .collect();
        let writer_handle = writer.map(|client| {
            let want = fx.write_digest.expect("writer workloads carry a digest");
            s.spawn(move || writer_loop(client, want, fx.watermark, start, deadline))
        });
        for h in handles {
            out.samples.extend(h.join().expect("reader thread"));
        }
        if let Some(h) = writer_handle {
            out.writes = h.join().expect("writer thread");
        }
    });
    out.wall_s = start.elapsed().as_secs_f64();
    out.server = Some(server.stats());
    server.wait();
    out
}

/// One reader's closed loop, starting its round-robin at `first_class`.
fn reader_loop(
    fx: &Fixture,
    mut client: Client,
    addr: SocketAddr,
    mut rng: SmallRng,
    first_class: usize,
    start: Instant,
    deadline: Instant,
) -> Vec<Sample> {
    let n_classes = fx.by_class.len();
    let mut i = first_class;
    let mut samples = Vec::new();
    while Instant::now() < deadline {
        let class = i % n_classes;
        i += 1;
        let ids = &fx.by_class[class];
        let ix = ids[rng.gen_range(0..ids.len())];
        let t0 = Instant::now();
        let reply = client.query(&fx.pool[ix].text);
        let done = Instant::now();
        let ns = (done - t0).as_nanos() as u64;
        let done_ns = (done - start).as_nanos() as u64;
        let (ok, connected) = match reply {
            Ok(r) => (
                r.output
                    .is_some_and(|o| digest_output(&o, fx.watermark) == fx.digests[ix]),
                true,
            ),
            Err(ServeError::Remote { .. }) => (false, true),
            // The transport is gone: one reconnect, else stop.
            Err(_) => match Client::connect(addr) {
                Ok(fresh) => {
                    client = fresh;
                    (false, true)
                }
                Err(_) => (false, false),
            },
        };
        samples.push(Sample {
            class,
            ok,
            ns,
            done_ns,
        });
        if !connected {
            break;
        }
    }
    samples
}

/// Open loop: write `i` is due at `start + i × period` whether or not
/// the previous one has returned by then; latency counts from the due
/// time, and `lag_ns` says how late the generator actually sent it.
fn writer_loop(
    mut client: Client,
    want: Digest,
    watermark: u64,
    start: Instant,
    deadline: Instant,
) -> Vec<WriteSample> {
    let period = Duration::from_millis(workloads::WRITE_PERIOD_MS);
    let mut writes = Vec::new();
    for i in 0.. {
        let due = start + period * (i as u32 + 1);
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let reply = client.transact(&workloads::write_stmt(i));
        let done = Instant::now();
        let ok = reply.is_ok_and(|r| {
            r.output
                .is_some_and(|o| digest_output(&o, watermark) == want)
        });
        writes.push(WriteSample {
            ok,
            ns_from_due: (done - due).as_nanos() as u64,
            lag_ns: (sent - due).as_nanos() as u64,
        });
    }
    writes
}

/// One cycle: save the live engine, cold-start a second one from the
/// store, answer `fx.pool[ix]` on it. Returns the legs and whether the
/// answer matches the oracle and every reopened graph matches `catalog`
/// ([`catalog_digests`] of the saved engine).
pub fn restart_cycle(
    engine: &Engine,
    backend: &dyn StorageBackend,
    fx: &Fixture,
    catalog: &[(String, Digest)],
    ix: usize,
) -> (RestartLegs, bool) {
    let t0 = Instant::now();
    let saved = engine.save_to(backend);
    let t1 = Instant::now();
    let cold = Engine::open_from(backend);
    let t2 = Instant::now();
    let answer = cold.ok().map(|mut cold| {
        let out = cold.run(&fx.pool[ix].text);
        (cold, out)
    });
    let t3 = Instant::now();
    let legs = RestartLegs {
        save_ns: (t1 - t0).as_nanos() as u64,
        open_ns: (t2 - t1).as_nanos() as u64,
        answer_ns: (t3 - t2).as_nanos() as u64,
    };
    let ok = saved.is_ok()
        && answer.is_some_and(|(cold, out)| {
            out.is_ok_and(|o| digest_output(&o, fx.watermark) == fx.digests[ix])
                && catalog_digests(&cold) == catalog
        });
    (legs, ok)
}

/// Run restart cycles for `seconds`, the first-answer source drawn per
/// cycle from `seed`.
pub fn measure_store(
    engine: &Engine,
    backend: &dyn StorageBackend,
    fx: &Fixture,
    catalog: &[(String, Digest)],
    seed: u64,
    seconds: f64,
) -> Measured {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7374_6f72);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut out = Measured::default();
    while Instant::now() < deadline {
        let ix = rng.gen_range(0..fx.pool.len());
        let (legs, ok) = restart_cycle(engine, backend, fx, catalog, ix);
        out.samples.push(Sample {
            class: 0,
            ok,
            ns: legs.save_ns + legs.open_ns + legs.answer_ns,
            done_ns: start.elapsed().as_nanos() as u64,
        });
        out.legs.push(legs);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}
