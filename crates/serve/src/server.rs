//! The server: a `TcpListener` accept loop feeding a fixed worker
//! pool, every worker speaking the frame protocol over one connection
//! at a time against a shared [`Engine`].
//!
//! ## Concurrency model
//!
//! The engine sits behind one mutex, but the lock is held only for
//! catalog work: a **query** locks just long enough to clone an
//! `Arc`-backed [`QueryExecutor`] (pinning that statement's snapshot)
//! and evaluates outside the lock, so reads from many connections run
//! concurrently against immutable snapshots. A **transact** holds the
//! lock for its whole script — writes are serialized through the
//! catalog front exactly as in-process callers are, and each commit
//! bumps the epoch that subsequent queries observe.
//!
//! ## Admission control
//!
//! The connection cap is enforced **at accept time**: the accept loop
//! reserves a slot (an RAII `Reservation` on the shared admitted
//! counter) before the connection ever enters the worker queue, so a
//! simultaneous-connect burst can never overshoot `max_connections` —
//! there is no window between "checked the cap" and "counted the
//! connection". Admitted connections wait in a bounded pending queue;
//! when the backlog exceeds the `max_pending` watermark the connection
//! is shed with [`ErrorCode::Busy`] instead of queuing behind work it
//! would time out waiting for. Both rejections and sheds are counted
//! separately in [`ServerStats`].
//!
//! ## Cancellation
//!
//! Statement timeouts are **cooperative**: the worker installs the
//! connection's deadline on the statement's executor
//! ([`QueryExecutor::set_statement_deadline`]) and evaluates inline —
//! on expiry the evaluation unwinds at its next loop boundary and the
//! worker returns to the pool. No detached threads, no orphaned
//! evaluations burning cores behind the fixed pool.
//!
//! ## Lifecycle
//!
//! [`Server::start`] binds, spawns the accept thread and workers, and
//! returns a [`ServerHandle`]. Connections over the cap are greeted
//! with a [`ErrorCode::Busy`] error frame and closed. Shutdown flips a
//! flag, wakes the accept loop, stops accepting, and drains: statements
//! already executing run to completion; idle connections are closed at
//! their next poll tick.

use crate::protocol::{
    decode_frame, encode_error, encode_frame, encode_header, encode_hello, AdminRequest,
    AdminResponse, ErrorCode, Frame, FrameKind, GraphListing, OutputSort, CHUNK_PAYLOAD,
    FRAME_CHECKSUM_LEN, FRAME_HEADER_LEN, HANDSHAKE_MAGIC, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};
use crate::stats::{as_micros, ServerStats, SlowLog, SlowLogEntry, StatsSnapshot};
use gcore::obs::MetricsRegistry;
use gcore::{Engine, QueryExecutor, QueryOutput, QueryProfile};
use gcore_store::{DirBackend, StorageBackend};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server is wired up. `Default` is suitable for tests: an
/// ephemeral loopback port, a small pool, no timeouts, no storage.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads — the number of connections served concurrently.
    pub threads: usize,
    /// Connection cap; beyond it new connections get a `Busy` error.
    /// Defaults to `threads` (a queued connection would silently wait
    /// for a worker, which a closed-loop client can't distinguish from
    /// a hung server).
    pub max_connections: usize,
    /// Shedding watermark on the pending queue: a connection admitted
    /// under the cap is still `Busy`-rejected when this many admitted
    /// connections are already waiting for a worker. The default
    /// (`usize::MAX`) bounds the backlog only by `max_connections`;
    /// set it below `max_connections - threads` to shed early under
    /// bursty load instead of queueing work that will time out anyway.
    pub max_pending: usize,
    /// Default per-statement wall-clock budget for queries. `None`
    /// disables it; connections can override via
    /// [`AdminRequest::SetTimeout`].
    pub statement_timeout: Option<Duration>,
    /// How long a connection may dribble one frame before it is
    /// dropped as hostile.
    pub frame_deadline: Duration,
    /// Directory backing the admin save/load routes. `None` makes
    /// those routes answer with a `Storage` error.
    pub data_dir: Option<PathBuf>,
    /// Slow-query threshold. When set, every query is profiled and
    /// statements at or over the threshold enter the slow-query log
    /// (readable over the admin `slowlog` route) with their rendered
    /// execution profile. `None` (the default) disables the log and
    /// the per-statement profiling that feeds it.
    pub slow_threshold: Option<Duration>,
    /// Capacity of the slow-query log ring; older entries are evicted.
    pub slowlog_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            max_connections: 4,
            max_pending: usize::MAX,
            statement_timeout: None,
            frame_deadline: Duration::from_secs(30),
            data_dir: None,
            slow_threshold: None,
            slowlog_capacity: 64,
        }
    }
}

/// Poll interval for reads: short enough that shutdown and the frame
/// deadline are noticed promptly, long enough to stay off the CPU.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// State shared by the accept loop and every worker.
struct Shared {
    engine: Mutex<Engine>,
    stats: ServerStats,
    shutdown: AtomicBool,
    /// Admitted connections — queued or being served. Reserved (by
    /// [`Reservation::try_acquire`]) in the accept loop *before* the
    /// cap check's answer is acted on, so the cap is exact under
    /// simultaneous connect bursts.
    active: AtomicUsize,
    /// Admitted connections waiting for a worker. Incremented by the
    /// accept loop at enqueue, decremented by the worker at pickup.
    pending: AtomicUsize,
    default_timeout: Option<Duration>,
    frame_deadline: Duration,
    max_connections: usize,
    max_pending: usize,
    backend: Option<DirBackend>,
    /// The engine's core metrics registry (planner/cancellation
    /// counters), rendered by the admin `metrics` route alongside the
    /// server's own registry. Cloned out of the engine at start so the
    /// route never needs the engine lock for counter reads.
    core_registry: Arc<MetricsRegistry>,
    /// Slow-query threshold; `Some` also turns on per-query profiling.
    slow_threshold: Option<Duration>,
    slowlog: SlowLog,
}

impl Shared {
    /// Lock the engine, recovering from poisoning. A statement panic
    /// under the lock leaves the engine consistent — snapshots are
    /// immutable `Arc`s and catalog persistence commits manifest-last —
    /// so serving must survive it rather than cascade the panic into
    /// every later connection.
    fn lock_engine(&self) -> std::sync::MutexGuard<'_, Engine> {
        self.engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The engine-level pairs the `stats` and `metrics` routes report:
    /// the current snapshot's SCC- and PATH-view-cache counters and the
    /// epoch, read under one brief lock.
    fn engine_pairs(&self) -> [(&'static str, u64); 7] {
        let mut engine = self.lock_engine();
        let snapshot = engine.snapshot();
        let (scc_hits, scc_misses, scc_evictions) = snapshot.scc_cache_stats();
        let (view_hits, view_misses, view_evictions) = snapshot.view_cache_stats();
        [
            ("engine_epoch", engine.snapshot_epoch()),
            ("scc_cache_evictions", scc_evictions),
            ("scc_cache_hits", scc_hits),
            ("scc_cache_misses", scc_misses),
            ("view_cache_evictions", view_evictions),
            ("view_cache_hits", view_hits),
            ("view_cache_misses", view_misses),
        ]
    }
}

/// An RAII slot on [`Shared::active`]: acquired by the accept loop
/// under the connection cap, released (on drop) when the connection
/// finishes serving — or immediately, when the backlog sheds it.
struct Reservation {
    shared: Arc<Shared>,
}

impl Reservation {
    /// Reserve an admitted-connection slot via compare-and-swap;
    /// `None` when the cap is already fully reserved.
    fn try_acquire(shared: &Arc<Shared>) -> Option<Reservation> {
        let mut current = shared.active.load(Ordering::SeqCst);
        loop {
            if current >= shared.max_connections {
                return None;
            }
            match shared.active.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
        let reservation = Reservation {
            shared: Arc::clone(shared),
        };
        reservation.publish_gauge();
        Some(reservation)
    }

    fn publish_gauge(&self) {
        self.shared.stats.connections_active.store(
            self.shared.active.load(Ordering::SeqCst) as u64,
            Ordering::Relaxed,
        );
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
        self.publish_gauge();
    }
}

/// The running server. Dropping the handle shuts the server down and
/// joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// The server namespace: construction lives in [`Server::start`].
pub struct Server;

impl Server {
    /// Bind, spawn the accept loop and `config.threads` workers, and
    /// hand back the running server.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, e.g. a taken port.
    pub fn start(engine: Engine, config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let threads = config.threads.max(1);
        let core_registry = Arc::clone(engine.metrics_registry());
        let shared = Arc::new(Shared {
            engine: Mutex::new(engine),
            stats: ServerStats::new(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            default_timeout: config.statement_timeout,
            frame_deadline: config.frame_deadline,
            max_connections: config.max_connections.max(1),
            max_pending: config.max_pending,
            backend: match &config.data_dir {
                Some(dir) => {
                    Some(DirBackend::new(dir).map_err(|e| std::io::Error::other(e.to_string()))?)
                }
                None => None,
            },
            core_registry,
            slow_threshold: config.slow_threshold,
            slowlog: SlowLog::new(config.slowlog_capacity),
        });

        let (tx, rx) = mpsc::channel::<(TcpStream, Reservation)>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("gcore-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn worker")
            })
            .collect();

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("gcore-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared, &tx))
            .expect("spawn accept loop");

        Ok(ServerHandle {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Deliberately poison the engine lock by panicking while holding
    /// it on a scratch thread. Test hook for the poison-recovery path;
    /// not part of the public API.
    #[doc(hidden)]
    pub fn poison_engine_lock_for_tests(&self) {
        let shared = Arc::clone(&self.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.lock_engine();
            panic!("poisoning engine lock for tests");
        });
        let _ = poisoner.join(); // the Err is the point
    }

    /// Begin shutdown: stop accepting, drain in-flight statements.
    /// Idempotent; returns immediately (join with [`ServerHandle::wait`]
    /// or by dropping the handle).
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept call so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Shut down (if not already) and block until every thread exits.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Block serving until another thread calls [`ServerHandle::shutdown`]
    /// or the process dies — unlike [`ServerHandle::wait`], this does
    /// *not* initiate shutdown itself. This is what a daemon binary
    /// wants after printing its listening address.
    pub fn serve_forever(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }

    fn join_all(&mut self) {
        self.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.join_all();
    }
}

// ---------------------------------------------------------------------
// Accept loop
// ---------------------------------------------------------------------

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    tx: &mpsc::Sender<(TcpStream, Reservation)>,
) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break; // drains on return: tx drops, workers finish and exit
        }
        let Ok(stream) = conn else { continue };
        ServerStats::bump(&shared.stats.connections_accepted);
        // Reserve before enqueueing: the slot is held from here until
        // the worker finishes the connection, so the cap cannot be
        // overshot between the check and the count.
        let Some(reservation) = Reservation::try_acquire(shared) else {
            ServerStats::bump(&shared.stats.connections_rejected_busy);
            reject(
                stream,
                ErrorCode::Busy,
                "connection cap reached, retry later",
            );
            continue;
        };
        // Queue-depth shedding: admitted under the cap, but the worker
        // backlog is already at the watermark — turn the client away
        // now rather than let it queue behind work it would time out
        // waiting for. Dropping the reservation frees the slot.
        if shared.pending.load(Ordering::SeqCst) >= shared.max_pending {
            ServerStats::bump(&shared.stats.connections_shed_queue_full);
            drop(reservation);
            reject(stream, ErrorCode::Busy, "server backlog full, retry later");
            continue;
        }
        shared.pending.fetch_add(1, Ordering::SeqCst);
        shared.stats.connections_pending.store(
            shared.pending.load(Ordering::SeqCst) as u64,
            Ordering::Relaxed,
        );
        if tx.send((stream, reservation)).is_err() {
            break;
        }
    }
}

/// Best-effort single error frame to a connection we will not serve.
fn reject(mut stream: TcpStream, code: ErrorCode, message: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(&encode_frame(
        FrameKind::Error,
        &encode_error(code, message),
    ));
}

// ---------------------------------------------------------------------
// Worker loop and per-connection state
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<mpsc::Receiver<(TcpStream, Reservation)>>>) {
    loop {
        // Take the stream out of the channel lock before serving it, so
        // one long connection never blocks the other workers' intake.
        let (stream, reservation) = match rx.lock().unwrap().recv() {
            Ok(pair) => pair,
            Err(_) => return, // sender dropped: accept loop exited
        };
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        shared.stats.connections_pending.store(
            shared.pending.load(Ordering::SeqCst) as u64,
            Ordering::Relaxed,
        );
        // Panic isolation: a statement that panics must cost its own
        // connection, not a pool thread — the pool is fixed-size, so an
        // escaped panic would permanently shrink serving capacity.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Connection::new(shared, stream).serve()
        }));
        drop(reservation); // frees the admitted slot
    }
}

/// Why a connection stopped being served.
enum Close {
    /// Peer hung up, protocol violation, or server shutdown.
    Done,
}

struct Connection<'a> {
    shared: &'a Arc<Shared>,
    stream: TcpStream,
    /// This connection's statement timeout (admin-overridable).
    timeout: Option<Duration>,
}

impl<'a> Connection<'a> {
    fn new(shared: &'a Arc<Shared>, stream: TcpStream) -> Self {
        let timeout = shared.default_timeout;
        Connection {
            shared,
            stream,
            timeout,
        }
    }

    fn serve(mut self) -> Close {
        let _ = self.stream.set_nodelay(true);
        let _ = self.stream.set_read_timeout(Some(POLL_INTERVAL));
        let _ = self.stream.set_write_timeout(Some(Duration::from_secs(30)));

        if !self.handshake() {
            return Close::Done;
        }
        let epoch = self.shared.lock_engine().snapshot_epoch();
        if self
            .send_frame(FrameKind::Hello, &encode_hello(epoch))
            .is_err()
        {
            return Close::Done;
        }

        loop {
            let frame = match self.read_frame() {
                ReadOutcome::Frame(f) => f,
                ReadOutcome::Closed => return Close::Done,
                ReadOutcome::Shutdown => {
                    let _ = self.send_error(ErrorCode::ShuttingDown, "server is shutting down");
                    return Close::Done;
                }
                ReadOutcome::Violation(msg) => {
                    ServerStats::bump(&self.shared.stats.protocol_errors);
                    let _ = self.send_error(ErrorCode::Protocol, &msg);
                    return Close::Done;
                }
            };
            let started = Instant::now();
            let keep_going = match frame.kind {
                FrameKind::Query => self.handle_query(&frame.payload),
                FrameKind::Transact => self.handle_transact(&frame.payload),
                FrameKind::Admin => self.handle_admin(&frame.payload),
                other => {
                    ServerStats::bump(&self.shared.stats.protocol_errors);
                    let _ = self.send_error(
                        ErrorCode::Protocol,
                        &format!("unexpected {other:?} frame from a client"),
                    );
                    false
                }
            };
            let histogram = match frame.kind {
                FrameKind::Query => Some(&self.shared.stats.latency_query),
                FrameKind::Transact => Some(&self.shared.stats.latency_transact),
                FrameKind::Admin => Some(&self.shared.stats.latency_admin),
                _ => None,
            };
            if let Some(histogram) = histogram {
                histogram.record(started.elapsed());
            }
            if !keep_going {
                return Close::Done;
            }
        }
    }

    /// Read and validate the raw 12-byte client hello.
    fn handshake(&mut self) -> bool {
        let mut hello = [0u8; 12];
        if self.read_exact_polled(&mut hello).is_err() {
            ServerStats::bump(&self.shared.stats.protocol_errors);
            return false;
        }
        if hello[..8] != HANDSHAKE_MAGIC {
            ServerStats::bump(&self.shared.stats.protocol_errors);
            let _ = self.send_error(ErrorCode::Protocol, "bad handshake magic");
            return false;
        }
        let version = u32::from_le_bytes(hello[8..12].try_into().unwrap());
        if version != PROTOCOL_VERSION {
            ServerStats::bump(&self.shared.stats.protocol_errors);
            let _ = self.send_error(
                ErrorCode::Protocol,
                &format!(
                    "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
                ),
            );
            return false;
        }
        true
    }

    // -- framed reads --------------------------------------------------

    /// Fill `buf` with polled reads, honoring shutdown and the frame
    /// deadline once the first byte has arrived.
    fn read_exact_polled(&mut self, buf: &mut [u8]) -> Result<(), ReadStop> {
        let mut filled = 0usize;
        let mut started: Option<Instant> = None;
        while filled < buf.len() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Err(if filled == 0 && started.is_none() {
                    ReadStop::Shutdown
                } else {
                    // Mid-frame at shutdown: the request never became a
                    // statement, drop it.
                    ReadStop::Closed
                });
            }
            if let Some(t0) = started {
                if t0.elapsed() > self.shared.frame_deadline {
                    return Err(ReadStop::Violation("frame deadline exceeded".into()));
                }
            }
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    return Err(if filled == 0 {
                        ReadStop::Closed
                    } else {
                        ReadStop::Violation("connection closed mid-frame".into())
                    });
                }
                Ok(n) => {
                    filled += n;
                    started.get_or_insert_with(Instant::now);
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(ReadStop::Closed),
            }
        }
        Ok(())
    }

    /// Read one whole frame (header, payload, checksum) off the socket.
    fn read_frame(&mut self) -> ReadOutcome {
        let mut header = [0u8; FRAME_HEADER_LEN];
        match self.read_exact_polled(&mut header) {
            Ok(()) => {}
            Err(stop) => return stop.into(),
        }
        let len = u32::from_le_bytes(header[1..5].try_into().unwrap());
        if len > MAX_FRAME_PAYLOAD {
            return ReadOutcome::Violation(format!(
                "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
            ));
        }
        let mut rest = vec![0u8; len as usize + FRAME_CHECKSUM_LEN];
        match self.read_exact_polled(&mut rest) {
            Ok(()) => {}
            Err(stop) => return stop.into(),
        }
        let mut bytes = Vec::with_capacity(header.len() + rest.len());
        bytes.extend_from_slice(&header);
        bytes.extend_from_slice(&rest);
        match decode_frame(&bytes) {
            Ok((frame, _)) => ReadOutcome::Frame(frame),
            Err(e) => ReadOutcome::Violation(e.to_string()),
        }
    }

    // -- framed writes -------------------------------------------------

    fn send_frame(&mut self, kind: FrameKind, payload: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(&encode_frame(kind, payload))
    }

    fn send_error(&mut self, code: ErrorCode, message: &str) -> std::io::Result<()> {
        self.send_frame(FrameKind::Error, &encode_error(code, message))
    }

    /// Stream one query output: Header, chunked encoded body, Done.
    fn send_output(&mut self, epoch: u64, output: &QueryOutput) -> bool {
        let (sort, encoded) = match output {
            QueryOutput::Table(t) => (OutputSort::Table, gcore_store::encode_table(t)),
            QueryOutput::Graph(g) => (OutputSort::Graph, gcore_store::encode_graph(g)),
        };
        let encoded = match encoded {
            Ok(bytes) => bytes,
            Err(e) => {
                let _ = self.send_error(ErrorCode::Internal, &format!("encoding result: {e}"));
                return true; // the connection is still healthy
            }
        };
        if self
            .send_frame(FrameKind::Header, &encode_header(epoch, sort))
            .is_err()
        {
            return false;
        }
        for chunk in encoded.chunks(CHUNK_PAYLOAD.max(1)) {
            if self.send_frame(FrameKind::Chunk, chunk).is_err() {
                return false;
            }
        }
        self.send_frame(FrameKind::Done, &[]).is_ok()
    }

    // -- routes --------------------------------------------------------

    /// The **query** route: pin a snapshot, evaluate off-lock, stream.
    /// With a slow-query threshold configured the statement is profiled
    /// and, when it runs at or over the threshold, logged with its
    /// rendered execution profile.
    fn handle_query(&mut self, payload: &[u8]) -> bool {
        let Some(text) = self.utf8_or_reject(payload) else {
            return false;
        };
        // Pin this statement's snapshot; the lock is held only for the
        // clone, never for evaluation.
        let executor = { self.shared.lock_engine().executor() };
        let epoch = executor.epoch();
        let started = Instant::now();
        let evaluated = self.evaluate(executor, &text);
        if let Some(threshold) = self.shared.slow_threshold {
            let elapsed = started.elapsed();
            if elapsed >= threshold {
                ServerStats::bump(&self.shared.stats.slow_queries);
                let profile = match &evaluated {
                    Evaluated::Ok(_, Some(p)) => p.render(false),
                    _ => String::new(), // failed or cancelled before a profile
                };
                self.shared.slowlog.record(SlowLogEntry {
                    text,
                    epoch,
                    elapsed_us: as_micros(elapsed),
                    profile,
                });
            }
        }
        match evaluated {
            Evaluated::Ok(output, _) => {
                ServerStats::bump(&self.shared.stats.queries_ok);
                self.send_output(epoch, &output)
            }
            Evaluated::Err(message) => {
                ServerStats::bump(&self.shared.stats.queries_err);
                self.send_error(ErrorCode::Statement, &message).is_ok()
            }
            Evaluated::TimedOut => {
                ServerStats::bump(&self.shared.stats.statement_timeouts);
                ServerStats::bump(&self.shared.stats.statements_cancelled);
                self.send_error(ErrorCode::Timeout, "statement timeout exceeded")
                    .is_ok()
            }
        }
    }

    /// The **transact** route: run the script under the engine lock
    /// (writes serialize through the catalog front) and stream the last
    /// statement's output together with the post-commit epoch.
    fn handle_transact(&mut self, payload: &[u8]) -> bool {
        let Some(text) = self.utf8_or_reject(payload) else {
            return false;
        };
        let result = {
            let mut engine = self.shared.lock_engine();
            let r = engine.run_script(&text);
            (r, engine.snapshot_epoch())
        };
        match result {
            (Ok(outputs), epoch) => {
                ServerStats::bump(&self.shared.stats.transacts_ok);
                match outputs.into_iter().last() {
                    Some(output) => self.send_output(epoch, &output),
                    None => {
                        // An empty script commits nothing; still answer.
                        self.send_frame(FrameKind::Header, &encode_header(epoch, OutputSort::Table))
                            .and_then(|()| self.send_frame(FrameKind::Done, &[]))
                            .is_ok()
                    }
                }
            }
            (Err(e), _) => {
                ServerStats::bump(&self.shared.stats.transacts_err);
                self.send_error(ErrorCode::Statement, &e.to_string())
                    .is_ok()
            }
        }
    }

    /// The **admin** route.
    fn handle_admin(&mut self, payload: &[u8]) -> bool {
        ServerStats::bump(&self.shared.stats.admin_requests);
        // The frame itself was well-formed (kind, length, checksum all
        // validated), so a payload that fails to decode is a bad admin
        // argument, not a transport violation: answer S004, keep the
        // connection.
        let request = match AdminRequest::decode(payload) {
            Ok(r) => r,
            Err(e) => {
                return self.send_error(ErrorCode::Admin, &e.to_string()).is_ok();
            }
        };
        let response = match request {
            AdminRequest::Ping => {
                let epoch = self.shared.lock_engine().snapshot_epoch();
                Ok(AdminResponse::Epoch(epoch))
            }
            AdminRequest::ListGraphs => {
                let engine = self.shared.lock_engine();
                let catalog = engine.catalog();
                Ok(AdminResponse::Graphs(GraphListing {
                    graphs: catalog.graph_names(),
                    tables: catalog.table_names(),
                    default_graph: catalog.default_graph_name().map(str::to_owned),
                }))
            }
            AdminRequest::Stats => {
                // Engine-level pairs ride along with the server
                // counters: snapshot cache behavior and the epoch. Old
                // clients decode them into `StatsSnapshot::extra`; older
                // ones ignore them.
                let mut named = self.shared.stats.registry().snapshot();
                let engine = self.shared.engine_pairs();
                named.extend(engine.map(|(name, value)| (name.to_owned(), value)));
                named.sort();
                Ok(AdminResponse::Stats(named))
            }
            AdminRequest::Metrics => {
                // Refresh the engine-level gauges, then render both
                // registries: the server's counters under `gcore_` and
                // the engine's core metrics under `gcore_engine_`.
                let core = &self.shared.core_registry;
                for (name, value) in self.shared.engine_pairs() {
                    core.set_gauge(name, value);
                }
                let mut text = self.shared.stats.registry().render_prometheus("gcore");
                text.push_str(&core.render_prometheus("gcore_engine"));
                Ok(AdminResponse::Text(text))
            }
            AdminRequest::SlowLog => Ok(AdminResponse::SlowLog(self.shared.slowlog.entries())),
            AdminRequest::Explain(text) => {
                let executor = { self.shared.lock_engine().executor() };
                match executor.explain(&text) {
                    Ok(plan) => Ok(AdminResponse::Explain(plan)),
                    Err(e) => Err((ErrorCode::Statement, e.to_string())),
                }
            }
            AdminRequest::Save => match &self.shared.backend {
                None => Err((
                    ErrorCode::Storage,
                    "server started without --data-dir".to_owned(),
                )),
                Some(backend) => {
                    // Clone under the lock, write outside it: a slow
                    // disk must not stall writers.
                    let engine = { self.shared.lock_engine().clone() };
                    match engine.save_to(backend as &dyn StorageBackend) {
                        Ok(()) => Ok(AdminResponse::Epoch(engine.snapshot_epoch())),
                        Err(e) => Err((ErrorCode::Storage, e.to_string())),
                    }
                }
            },
            AdminRequest::Load => match &self.shared.backend {
                None => Err((
                    ErrorCode::Storage,
                    "server started without --data-dir".to_owned(),
                )),
                Some(backend) => {
                    let mut engine = self.shared.lock_engine();
                    match engine.reload_from(backend as &dyn StorageBackend) {
                        Ok(epoch) => Ok(AdminResponse::Epoch(epoch)),
                        Err(e) => Err((ErrorCode::Storage, e.to_string())),
                    }
                }
            },
            AdminRequest::SetTimeout(ms) => {
                self.timeout = if ms == 0 {
                    None
                } else {
                    Some(Duration::from_millis(ms))
                };
                Ok(AdminResponse::Ok)
            }
        };
        match response {
            Ok(resp) => self.send_frame(FrameKind::AdminOk, &resp.encode()).is_ok(),
            Err((code, message)) => self.send_error(code, &message).is_ok(),
        }
    }

    // -- helpers -------------------------------------------------------

    fn utf8_or_reject(&mut self, payload: &[u8]) -> Option<String> {
        match String::from_utf8(payload.to_vec()) {
            Ok(text) => Some(text),
            Err(_) => {
                ServerStats::bump(&self.shared.stats.protocol_errors);
                let _ = self.send_error(ErrorCode::Protocol, "statement text is not UTF-8");
                None
            }
        }
    }

    /// Evaluate one read-only statement on this worker thread, under
    /// the connection's statement timeout as a cooperative deadline.
    ///
    /// The deadline is installed on the executor and observed by the
    /// evaluation itself at its loop boundaries (pattern expansion,
    /// join probes, path frontier pops), so expiry hands the worker
    /// straight back to the pool — there is no detached thread left
    /// burning a core on an answer nobody will read. The connection
    /// timeout (admin-overridable) always governs the query route,
    /// superseding any deadline baked into the engine by an embedder.
    fn evaluate(&self, mut executor: QueryExecutor, text: &str) -> Evaluated {
        executor.set_statement_deadline(self.timeout);
        if self.shared.slow_threshold.is_some() {
            // The slow-query log needs a profile for statements that
            // cross the threshold, which is only known afterwards — so
            // a configured threshold profiles every query. Profiling is
            // observation-only (pinned by the profile-equivalence
            // suite) and its overhead is a few percent.
            return match executor.run_profiled(text) {
                Ok((output, profile)) => Evaluated::Ok(Box::new(output), Some(Box::new(profile))),
                Err(e) if e.is_cancelled() => Evaluated::TimedOut,
                Err(e) => Evaluated::Err(e.to_string()),
            };
        }
        match executor.run(text) {
            Ok(output) => Evaluated::Ok(Box::new(output), None),
            Err(e) if e.is_cancelled() => Evaluated::TimedOut,
            Err(e) => Evaluated::Err(e.to_string()),
        }
    }
}

enum Evaluated {
    Ok(Box<QueryOutput>, Option<Box<QueryProfile>>),
    Err(String),
    TimedOut,
}

enum ReadOutcome {
    Frame(Frame),
    Closed,
    Shutdown,
    Violation(String),
}

enum ReadStop {
    Closed,
    Shutdown,
    Violation(String),
}

impl From<ReadStop> for ReadOutcome {
    fn from(stop: ReadStop) -> ReadOutcome {
        match stop {
            ReadStop::Closed => ReadOutcome::Closed,
            ReadStop::Shutdown => ReadOutcome::Shutdown,
            ReadStop::Violation(m) => ReadOutcome::Violation(m),
        }
    }
}
