//! The job server: one blocking thread per accepted connection reading
//! length-prefixed JSON submissions, a shared scheduler, and a pool of
//! worker threads executing jobs through
//! [`openserdes_core::Session::submit`].

use crate::sched::{run_worker, Scheduler, ServerStats, Submitted};
use crate::wire::{self, Envelope};
use openserdes_telemetry as telemetry;
use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server knobs. `Default` is a loopback server sized for the bench
/// and test workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back with
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing jobs (clamped to ≥ 1).
    pub workers: usize,
    /// Sweep worker threads *inside* each job (the
    /// [`openserdes_core::Session::with_threads`] value; results are
    /// identical for any value, and 0 clamps to 1).
    pub sweep_threads: usize,
    /// Queued-job capacity before shedding starts (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// Result-cache capacity in responses (0 disables caching).
    pub cache_capacity: usize,
    /// Open-connection cap (clamped to ≥ 1): each open connection holds
    /// one thread, so arrivals beyond the cap get a typed error reply
    /// and an immediate close.
    pub max_connections: usize,
    /// Per-connection read idle limit in milliseconds: a peer that
    /// starts a frame and then stalls longer than this is disconnected
    /// with `serve.timeouts` billed — the slow-loris defense. Waiting
    /// *between* frames is unbounded (idle keep-alive is fine).
    /// 0 disables the limit.
    pub read_idle_ms: u64,
    /// Per-connection write idle limit in milliseconds: a peer that
    /// never drains its replies cannot pin the reply path. 0 disables.
    pub write_idle_ms: u64,
    /// Graceful-drain budget in milliseconds after `stop()`: open
    /// connections get this long to close before the server shuts
    /// their sockets down. 0 waits indefinitely.
    pub drain_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            sweep_threads: 1,
            queue_capacity: 64,
            cache_capacity: 256,
            max_connections: 64,
            read_idle_ms: 2_000,
            write_idle_ms: 2_000,
            drain_ms: 10_000,
        }
    }
}

/// Remote control for a running server: signal it to stop accepting
/// and drain. Cloneable and `Send`, so tests/benches can stop a server
/// from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    wake: SocketAddr,
}

impl ServerHandle {
    /// Requests shutdown: stop accepting, finish queued work, return
    /// from [`Server::serve`] once open connections close.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; one connection of our own
        // wakes it to see the flag. A server that already returned
        // refuses it, which is fine.
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }
}

/// A bound (not yet serving) job server.
pub struct Server {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    wake: SocketAddr,
}

impl Server {
    /// Binds the listener and builds the scheduler; no thread starts
    /// until [`Server::serve`].
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn bind(config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut wake = listener.local_addr()?;
        // A wildcard bind cannot be connected to; its loopback can.
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let scheduler = Arc::new(Scheduler::new(config.queue_capacity, config.cache_capacity));
        Ok(Self {
            listener,
            scheduler,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            wake,
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from any thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            wake: self.wake,
        }
    }

    /// Serves until the handle's `stop()`: accepts connections, serves
    /// each on its own thread, executes jobs on the worker pool, then
    /// drains and returns the lifetime [`ServerStats`] together with a
    /// telemetry [`telemetry::Record`] carrying the `serve.*` counters.
    ///
    /// Graceful shutdown semantics: after `stop()` the server stops
    /// accepting; it waits up to `drain_ms` for open connections to
    /// close (clients should disconnect when done), then shuts the
    /// remaining sockets down so shutdown is bounded. Jobs already
    /// queued still run to completion before the workers exit.
    ///
    /// # Errors
    ///
    /// Listener-level accept failures (after the same drain);
    /// per-connection IO errors only close that connection.
    pub fn serve(self) -> io::Result<(ServerStats, telemetry::Record)> {
        let Server {
            listener,
            scheduler,
            config,
            shutdown,
            wake: _,
        } = self;
        let workers: Vec<_> = (0..config.workers.max(1))
            .map(|i| {
                let scheduler = Arc::clone(&scheduler);
                let sweep_threads = config.sweep_threads;
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || run_worker(&scheduler, sweep_threads))
                    .expect("spawn worker thread")
            })
            .collect();

        let idle = IdleLimits {
            read: duration_knob(config.read_idle_ms),
            write: duration_knob(config.write_idle_ms),
        };
        let max_connections = config.max_connections.max(1);
        let conns = OpenConns::default();
        // Connection threads are scoped: they borrow the scheduler and
        // the connection set, and the scope joins every one of them.
        let result = std::thread::scope(|scope| {
            let (scheduler, conns) = (&*scheduler, &conns);
            let mut next_id = 0u64;
            let result = loop {
                let mut stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if is_transient_accept_error(&e) => continue,
                    Err(e) => break Err(e),
                };
                if shutdown.load(Ordering::SeqCst) {
                    break Ok(());
                }
                if conns.len() >= max_connections {
                    // Typed rejection, then close: the peer learns why
                    // instead of seeing a reset.
                    scheduler.note_conn_rejected();
                    let _ = stream.set_write_timeout(idle.write);
                    let frame = wire::err_frame("server at connection capacity; retry later");
                    let _ = wire::write_frame_blocking(&mut stream, frame.as_bytes());
                    continue;
                }
                // Replies are single small frames; waiting on delayed
                // ACKs would add ~40 ms to every round trip.
                let Ok(registered) = stream.set_nodelay(true).and_then(|()| stream.try_clone())
                else {
                    continue;
                };
                let id = next_id;
                next_id += 1;
                conns.insert(id, registered);
                let guard = ConnGuard { conns, id };
                // The guard unregisters the connection when the thread
                // ends. If no thread can be spawned, dropping the closure
                // closes the socket and unregisters it the same way.
                let _ = std::thread::Builder::new()
                    .name(format!("serve-conn-{id}"))
                    .spawn_scoped(scope, move || {
                        let _guard = guard;
                        let _ = handle_connection(stream, scheduler, idle);
                    });
            };
            drop(listener);
            conns.drain(duration_knob(config.drain_ms));
            result
        });

        scheduler.shutdown();
        for worker in workers {
            worker.join().expect("worker exits cleanly");
        }
        result?;
        let stats = scheduler.stats();
        Ok((stats, telemetry_record(&stats)))
    }
}

/// `accept` failures that concern one would-be connection, not the
/// listener: skip them and keep accepting.
fn is_transient_accept_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
    )
}

/// The open connections, each as a `try_clone`d handle the drain can
/// shut down to wake its blocked thread.
#[derive(Default)]
struct OpenConns {
    open: Mutex<HashMap<u64, TcpStream>>,
    closed: Condvar,
}

impl OpenConns {
    fn len(&self) -> usize {
        self.open.lock().expect("connection set poisoned").len()
    }

    fn insert(&self, id: u64, stream: TcpStream) {
        self.open
            .lock()
            .expect("connection set poisoned")
            .insert(id, stream);
    }

    /// Waits for every connection to close. Once `budget` is spent, the
    /// survivors' sockets are shut down, which wakes their threads; the
    /// wait then continues until those threads have finished. A thread
    /// waiting on a queued job still gets its reply from the running
    /// workers before it finds its socket gone.
    fn drain(&self, budget: Option<Duration>) {
        let mut deadline = budget.map(|b| Instant::now() + b);
        let mut open = self.open.lock().expect("connection set poisoned");
        while !open.is_empty() {
            open = match deadline {
                Some(at) if Instant::now() >= at => {
                    for stream in open.values() {
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                    deadline = None;
                    open
                }
                Some(at) => {
                    let wait = at.saturating_duration_since(Instant::now());
                    self.closed
                        .wait_timeout(open, wait)
                        .expect("connection set poisoned")
                        .0
                }
                None => self.closed.wait(open).expect("connection set poisoned"),
            };
        }
    }
}

/// Unregisters a connection when its thread ends, however it ends.
struct ConnGuard<'a> {
    conns: &'a OpenConns,
    id: u64,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        // Never panic here: this may run while the thread unwinds.
        let mut open = self.conns.open.lock().unwrap_or_else(|e| e.into_inner());
        open.remove(&self.id);
        self.conns.closed.notify_all();
    }
}

/// Per-connection idle limits, resolved from the millisecond knobs.
#[derive(Debug, Clone, Copy)]
struct IdleLimits {
    read: Option<Duration>,
    write: Option<Duration>,
}

fn duration_knob(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Serves one connection on its own thread: read a frame, submit,
/// reply in order. Submissions answered from the cache (or shed) reply
/// immediately; queued jobs are waited for, which keeps per-connection
/// replies in request order.
///
/// The slow-loris defense is two socket timeouts. Waiting for the
/// *first* byte of a frame is unbounded (idle keep-alive is fine); once
/// it has arrived, every read of the rest of the frame is bounded by
/// the read idle limit, and every write by the write idle limit.
///
/// Every way the connection can die is billed to exactly one counter:
/// idle stalls to `serve.timeouts`, malformed traffic (bad JSON,
/// non-UTF-8, hostile length prefix) to `serve.protocol_errors`, and
/// transport failures (reset, mid-frame EOF) to `serve.conn_errors`.
fn handle_connection(
    mut stream: TcpStream,
    scheduler: &Scheduler,
    idle: IdleLimits,
) -> io::Result<()> {
    stream.set_write_timeout(idle.write)?;
    loop {
        stream.set_read_timeout(None)?;
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) => {
                scheduler.note_conn_error();
                return Err(e);
            }
        }
        stream.set_read_timeout(idle.read)?;
        let payload = match wire::read_frame_blocking(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()),
            Err(e) => {
                if let Some(len) = wire::oversized_len(&e) {
                    // Hostile length prefix: typed error reply, then a
                    // clean close — not a silent drop.
                    scheduler.note_protocol_error();
                    let frame = wire::err_frame(&format!(
                        "announced frame of {len} bytes exceeds MAX_FRAME ({} bytes)",
                        wire::MAX_FRAME
                    ));
                    let _ = wire::write_frame_blocking(&mut stream, frame.as_bytes());
                    let _ = stream.shutdown(Shutdown::Both);
                    return Ok(());
                }
                if wire::is_timeout(&e) {
                    scheduler.note_timeout();
                } else {
                    scheduler.note_conn_error();
                }
                return Err(e);
            }
        };
        let reply = match String::from_utf8(payload) {
            Err(_) => {
                scheduler.note_protocol_error();
                wire::err_frame("frame payload is not UTF-8")
            }
            Ok(text) => match Envelope::from_json(&text) {
                Ok(envelope) => match scheduler.submit(
                    &envelope.tenant,
                    envelope.priority,
                    envelope.seed,
                    envelope.deadline_ms,
                    envelope.request,
                ) {
                    Submitted::Ready(frame) => frame,
                    Submitted::Pending(reply) => reply
                        .recv()
                        .unwrap_or_else(|_| wire::err_frame("job was dropped unanswered")),
                },
                Err(e) => {
                    scheduler.note_protocol_error();
                    wire::err_frame(&e.to_string())
                }
            },
        };
        // A write stall or transport failure is billed like a read one.
        wire::write_frame_blocking(&mut stream, reply.as_bytes()).inspect_err(|e| {
            if wire::is_timeout(e) {
                scheduler.note_timeout();
            } else {
                scheduler.note_conn_error();
            }
        })?;
    }
}

/// Mirrors the lifetime counters into an `openserdes-telemetry`
/// record, so serve metrics flow through the same pipeline as engine
/// metrics (and export through the same sinks).
fn telemetry_record(stats: &ServerStats) -> telemetry::Record {
    let was = telemetry::is_enabled();
    telemetry::set_enabled(true);
    let ((), record) = telemetry::collect(|| {
        for (name, value) in stats.counters() {
            telemetry::counter(name, value);
        }
    });
    telemetry::set_enabled(was);
    record
}
