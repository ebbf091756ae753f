//! Loopback integration tests for `openserdes-serve`: responses over
//! the wire are bit-identical to direct `Session::submit`, identical
//! in-flight submissions coalesce, repeats hit the content-addressed
//! cache, overload sheds with a typed `Response::Shed`, and a job that
//! panics inside the engine is isolated without killing its worker.
//!
//! The hardening tests drive the seeded server-plane fault taxonomy
//! from `openserdes-fault` (dropped/truncated/oversized frames,
//! stalled readers, worker panics, deadline storms, connection
//! floods) and assert the `serve.*` robustness counters account for
//! every injected fault, identically at 1/2/4/8 workers.

use openserdes::core::job::{DesignSpec, Request, Response, SweepSpec};
use openserdes::core::LinkConfig;
use openserdes::fault::server_campaign;
use openserdes::pdk::units::{Hertz, Time};
use openserdes::serve::{
    chaos, wire, Client, ClientConfig, ClientError, Server, ServerConfig, ServerStats,
};
use openserdes::Session;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Binds a loopback server, runs `body` against its address, then
/// stops it and returns the lifetime stats.
fn with_server(config: ServerConfig, body: impl FnOnce(SocketAddr)) -> ServerStats {
    let server = Server::bind(config).expect("bind loopback server");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());
    body(addr);
    handle.stop();
    let (stats, record) = serving
        .join()
        .expect("server thread")
        .expect("serve returns cleanly");
    assert_eq!(
        record.counter("serve.requests"),
        stats.requests,
        "serve.* counters flow through telemetry"
    );
    stats
}

/// A job that holds the sole worker for a few hundred milliseconds: a
/// million-bit bathtub whose random jitter reaches every sampling phase,
/// so no phase can take the bathtub's jitter-free fast path.
fn slow_bathtub() -> Request {
    let mut config = LinkConfig::paper_default();
    config.channel.rj_sigma = Time::from_ps(60.0);
    Request::Bathtub {
        config,
        sweep: SweepSpec {
            bits: 1_000_000,
            phases: 8,
            frames: 2,
            tol_db: 1.0,
        },
    }
}

fn quick_bathtub(bits: usize) -> Request {
    Request::Bathtub {
        config: LinkConfig::paper_default(),
        sweep: SweepSpec {
            bits,
            phases: 8,
            frames: 2,
            tol_db: 1.0,
        },
    }
}

#[test]
fn wire_responses_are_bit_identical_to_direct_submit() {
    let stim: Vec<[u32; 8]> = (0..2)
        .map(|i| std::array::from_fn(|k| (i * 8 + k) as u32 ^ 0x0BAD_F00D))
        .collect();
    let jobs = vec![
        (
            11u64,
            Request::RunLink {
                config: LinkConfig::paper_default(),
                frames: stim,
            },
        ),
        (12, quick_bathtub(1_000)),
        (
            13,
            Request::MaxLoss {
                config: LinkConfig::paper_default(),
                sweep: SweepSpec {
                    bits: 800,
                    phases: 4,
                    frames: 2,
                    tol_db: 2.0,
                },
            },
        ),
        (
            14,
            Request::Sta {
                design: DesignSpec::Serializer,
                pvt: openserdes::pdk::corner::Pvt::nominal(),
                clock: Hertz::from_ghz(2.0),
            },
        ),
        (
            15,
            Request::Lint {
                design: DesignSpec::Cdr { oversampling: 5 },
            },
        ),
    ];

    let jobs_for_server = jobs.clone();
    let stats = with_server(ServerConfig::default(), move |addr| {
        let mut client = Client::connect(addr, "bit-identity").expect("connect");
        for (seed, request) in &jobs_for_server {
            let wire_bytes = client.submit_raw(1, *seed, request).expect("served reply");
            let direct_bytes = Session::new()
                .with_seed(*seed)
                .with_threads(1)
                .submit(request)
                .expect("direct submit")
                .to_canonical_json();
            assert_eq!(
                wire_bytes, direct_bytes,
                "seed {seed}: served bytes must equal direct Session::submit"
            );
        }
    });
    assert_eq!(stats.requests, jobs.len() as u64);
    assert_eq!(stats.completed, jobs.len() as u64);
    assert_eq!(stats.errored, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.panics_isolated, 0);
}

#[test]
fn identical_submissions_coalesce_and_then_hit_the_cache() {
    // One worker: an occupying job serializes everything behind it, so
    // two identical submissions arriving while it runs must coalesce
    // into one execution.
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let occupier = std::thread::spawn(move || {
            let mut client = Client::connect(addr, "occupier").expect("connect");
            client.submit(1, 77, &slow_bathtub()).expect("slow job")
        });
        // Let the occupier reach the worker before the twins arrive.
        std::thread::sleep(Duration::from_millis(200));

        let twins: Vec<_> = (0..2)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr, format!("twin-{i}")).expect("connect");
                    client
                        .submit_raw(1, 99, &quick_bathtub(1_200))
                        .expect("twin job")
                })
            })
            .collect();
        let replies: Vec<String> = twins
            .into_iter()
            .map(|t| t.join().expect("twin thread"))
            .collect();
        assert_eq!(replies[0], replies[1], "coalesced waiters share one result");
        assert!(matches!(
            occupier.join().expect("occupier thread"),
            Response::Bathtub(_)
        ));

        // Same (request, seed) again, after completion: a cache hit
        // with the same bytes.
        let mut client = Client::connect(addr, "replayer").expect("connect");
        let replay = client
            .submit_raw(1, 99, &quick_bathtub(1_200))
            .expect("replay");
        assert_eq!(replay, replies[0], "cache returns byte-identical response");
    });
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.coalesced, 1, "second twin coalesced");
    assert_eq!(stats.cache_hits, 1, "replay served from cache");
    assert_eq!(
        stats.cache_misses, 2,
        "occupier + first twin + nothing else"
    );
    assert_eq!(stats.completed, 2, "only two jobs actually executed");
}

#[test]
fn overload_sheds_with_a_typed_response() {
    // One worker, queue of one: once a slow job is in flight and the
    // queue holds a priority-3 job, a priority-1 arrival is shed
    // immediately, and a priority-9 arrival evicts the queued job —
    // whose waiter gets the typed shed response, not a dead socket.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let occupier = std::thread::spawn(move || {
            let mut client = Client::connect(addr, "occupier").expect("connect");
            client.submit(5, 177, &slow_bathtub()).expect("slow job")
        });
        std::thread::sleep(Duration::from_millis(200));

        let queued = std::thread::spawn(move || {
            let mut client = Client::connect(addr, "mid").expect("connect");
            client
                .submit(3, 178, &quick_bathtub(1_200))
                .expect("queued job reply")
        });
        std::thread::sleep(Duration::from_millis(200));

        // Lower priority than anything queued: shed on arrival.
        let mut low = Client::connect(addr, "low").expect("connect");
        match low
            .submit(1, 179, &quick_bathtub(1_300))
            .expect("shed reply")
        {
            Response::Shed(info) => {
                assert_eq!(info.tenant, "low");
                assert_eq!(info.priority, 1);
                assert!(info.queue_depth >= 1);
            }
            other => panic!("expected shed, got {other:?}"),
        }

        // Higher priority: evicts the queued priority-3 job.
        let winner = std::thread::spawn(move || {
            let mut client = Client::connect(addr, "high").expect("connect");
            client
                .submit(9, 180, &quick_bathtub(1_400))
                .expect("high job")
        });
        match queued.join().expect("queued thread") {
            Response::Shed(info) => {
                assert_eq!(info.tenant, "mid");
                assert_eq!(info.priority, 3);
            }
            other => panic!("expected evicted job to be shed, got {other:?}"),
        }
        assert!(matches!(
            winner.join().expect("winner thread"),
            Response::Bathtub(_)
        ));
        assert!(matches!(
            occupier.join().expect("occupier thread"),
            Response::Bathtub(_)
        ));
    });
    assert_eq!(stats.shed, 2, "one shed on arrival, one evicted");
    assert_eq!(stats.completed, 2, "occupier and the priority-9 winner");
    assert_eq!(stats.panics_isolated, 0);
}

#[test]
fn engine_panic_is_isolated_and_the_worker_survives() {
    // cdr.oversampling = 0 passes wire validation (LinkConfig is
    // accepted verbatim) but violates the engine's internal assert —
    // the canonical panic-isolation vector.
    let mut poison = LinkConfig::paper_default();
    poison.cdr.oversampling = 0;
    let poison_request = Request::RunLink {
        config: poison,
        frames: vec![[7u32; 8]],
    };

    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let mut client = Client::connect(addr, "panicker").expect("connect");
        match client.submit(1, 21, &poison_request) {
            Err(ClientError::Server(msg)) => {
                assert!(
                    msg.contains("panicked"),
                    "panic surfaces as a typed error frame, got: {msg}"
                );
            }
            other => panic!("expected server error, got {other:?}"),
        }
        // Same connection, same (sole) worker: still alive and serving.
        let reply = client
            .submit(1, 22, &quick_bathtub(1_000))
            .expect("worker survived the panic");
        assert!(matches!(reply, Response::Bathtub(_)));
    });
    assert_eq!(stats.panics_isolated, 1);
    assert_eq!(stats.errored, 0, "a panic counts as isolated, not errored");
    assert_eq!(stats.completed, 1);
}

#[test]
fn dead_server_times_out_typed_instead_of_hanging() {
    // A socket that accepts and never replies — the regression this
    // hardening PR exists for: the old blocking client hung forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accepting = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((s, _)) = listener.accept() {
            held.push(s);
        }
    });

    let config = ClientConfig {
        read_timeout_ms: 50,
        retries: 2,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, "patient", config).expect("connect");
    let started = std::time::Instant::now();
    match client.submit(1, 1, &quick_bathtub(1_000)) {
        Err(ClientError::Timeout(_)) => {}
        other => panic!("expected typed timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "bounded failure, not a hang"
    );
    let stats = client.retry_stats();
    assert_eq!(stats.attempts, 3, "first try plus the two retries");
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.reconnects, 2, "each retry reconnects fresh");
    // The accept thread dies with the process; nothing to join.
    drop(accepting);
}

#[test]
fn hostile_length_prefix_gets_a_typed_error_and_clean_close() {
    let stats = with_server(ServerConfig::default(), |addr| {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&u32::MAX.to_be_bytes())
            .expect("hostile prefix");
        let reply = wire::read_frame_blocking(&mut s)
            .expect("typed reply, not a dropped connection")
            .expect("frame before close");
        let text = String::from_utf8(reply).expect("utf8");
        match wire::parse_reply(&text).expect("reply parses") {
            Err(msg) => {
                assert!(msg.contains("MAX_FRAME"), "typed oversize error: {msg}");
                assert!(
                    msg.contains(&u32::MAX.to_string()),
                    "echoes the announced length: {msg}"
                );
            }
            Ok(other) => panic!("expected an error frame, got {other:?}"),
        }
        assert_eq!(
            wire::read_frame_blocking(&mut s).expect("clean close"),
            None,
            "server closes cleanly after the typed reply"
        );
    });
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.conn_errors, 0);
}

/// A megabyte of `[` — far under `MAX_FRAME` — used to overflow the
/// serving thread's stack in the recursive JSON parser and abort the
/// whole server. It now gets a typed error frame, and the same
/// connection and server go on answering valid jobs.
#[test]
fn deeply_nested_frame_gets_a_typed_error_and_the_server_survives() {
    let stats = with_server(ServerConfig::default(), |addr| {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("bounded read");
        wire::write_frame_blocking(&mut s, "[".repeat(1 << 20).as_bytes()).expect("deep frame");
        let reply = wire::read_frame_blocking(&mut s)
            .expect("typed reply, not a dead server")
            .expect("frame before close");
        match wire::parse_reply(&String::from_utf8(reply).expect("utf8")).expect("reply parses") {
            Err(msg) => assert!(msg.contains("nesting deeper than"), "typed error: {msg}"),
            Ok(other) => panic!("expected an error frame, got {other:?}"),
        }

        let envelope = wire::Envelope {
            tenant: "after".to_string(),
            priority: 1,
            seed: 5,
            deadline_ms: None,
            request: Request::Lint {
                design: DesignSpec::Serializer,
            },
        };
        wire::write_frame_blocking(&mut s, envelope.to_json().as_bytes()).expect("valid frame");
        let reply = wire::read_frame_blocking(&mut s)
            .expect("reply")
            .expect("frame");
        let served = wire::parse_reply(&String::from_utf8(reply).expect("utf8"))
            .expect("reply parses")
            .expect("job served");
        assert!(matches!(served, Response::Lint(_)), "{served:?}");

        let mut client = Client::connect(addr, "fresh").expect("connect");
        assert!(matches!(
            client.submit(1, 6, &quick_bathtub(1_000)).expect("served"),
            Response::Bathtub(_)
        ));
    });
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.completed, 2);
}

#[test]
fn queued_jobs_past_deadline_come_back_typed() {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let occupier = std::thread::spawn(move || {
            let mut client = Client::connect(addr, "occupier").expect("connect");
            client.submit(1, 277, &slow_bathtub()).expect("slow job")
        });
        std::thread::sleep(Duration::from_millis(200));

        // Queued behind the occupier with a 1 ms deadline: by the time
        // the sole worker frees up, the deadline has long lapsed, so
        // the job is retired typed instead of burning the worker.
        let mut client = Client::connect(addr, "hurried").expect("connect");
        match client
            .submit_with_deadline(2, 278, Some(1), &quick_bathtub(1_500))
            .expect("typed reply")
        {
            Response::DeadlineExceeded(info) => {
                assert_eq!(info.tenant, "hurried");
                assert_eq!(info.deadline_ms, 1);
                assert!(info.queued_ms >= 1);
            }
            other => panic!("expected deadline exceeded, got {other:?}"),
        }

        // A zero deadline short-circuits before queueing at all.
        match client
            .submit_with_deadline(2, 279, Some(0), &quick_bathtub(1_500))
            .expect("typed reply")
        {
            Response::DeadlineExceeded(info) => assert_eq!(info.deadline_ms, 0),
            other => panic!("expected deadline exceeded, got {other:?}"),
        }
        assert!(matches!(
            occupier.join().expect("occupier thread"),
            Response::Bathtub(_)
        ));
    });
    assert_eq!(stats.deadline_expired, 2);
    assert_eq!(stats.completed, 1, "only the occupier actually ran");
}

/// Sends one Lint job on a raw connection and waits for its reply, so
/// the server has certainly accepted and registered the connection.
fn raw_lint_roundtrip(s: &mut TcpStream, seed: u64) {
    let envelope = wire::Envelope {
        tenant: "raw".to_string(),
        priority: 1,
        seed,
        deadline_ms: None,
        request: Request::Lint {
            design: DesignSpec::Serializer,
        },
    };
    wire::write_frame_blocking(s, envelope.to_json().as_bytes()).expect("submit");
    let reply = wire::read_frame_blocking(s)
        .expect("reply")
        .expect("frame before close");
    let text = String::from_utf8(reply).expect("utf8");
    assert!(matches!(
        wire::parse_reply(&text).expect("reply parses"),
        Ok(Response::Lint(_))
    ));
}

/// Starts `server` on a thread whose result arrives on a channel, so a
/// server that never returns fails the test instead of hanging it.
fn serve_in_background(
    server: Server,
) -> mpsc::Receiver<std::io::Result<(ServerStats, openserdes::telemetry::Record)>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.serve());
    });
    rx
}

#[test]
fn zero_max_connections_still_caps_at_one() {
    // Each connection holds a thread, so 0 cannot mean unlimited: it
    // clamps to one, and a second concurrent arrival gets the typed
    // capacity rejection.
    let config = ServerConfig {
        max_connections: 0,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let mut first = TcpStream::connect(addr).expect("connect");
        first
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("bounded read");
        raw_lint_roundtrip(&mut first, 1);

        let mut second = TcpStream::connect(addr).expect("connect");
        second
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("bounded read");
        let reply = wire::read_frame_blocking(&mut second)
            .expect("typed rejection, not silence")
            .expect("frame before close");
        match wire::parse_reply(&String::from_utf8(reply).expect("utf8")).expect("parses") {
            Err(msg) => assert!(msg.contains("server at connection capacity"), "{msg}"),
            Ok(other) => panic!("expected a capacity rejection, got {other:?}"),
        }
    });
    assert_eq!(stats.conns_rejected, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn wildcard_bound_server_returns_after_stop() {
    let server = Server::bind(ServerConfig {
        addr: "0.0.0.0:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("bind wildcard");
    let port = server.local_addr().expect("local addr").port();
    let handle = server.handle();
    let serving = serve_in_background(server);
    let mut client = Client::connect(("127.0.0.1", port), "wildcard").expect("connect");
    assert!(matches!(
        client.submit(1, 3, &quick_bathtub(1_000)).expect("served"),
        Response::Bathtub(_)
    ));
    drop(client);
    handle.stop();
    let (stats, _) = serving
        .recv_timeout(Duration::from_secs(10))
        .expect("serve() returns after stop()")
        .expect("serve returns cleanly");
    assert_eq!(stats.completed, 1);
}

/// A zero bisection tolerance used to pin a worker forever, and with it
/// the server's shutdown. It now gets an error reply naming the field;
/// the same connection goes on to complete a job, and `serve()` still
/// returns after `stop()`.
#[test]
fn zero_tolerance_max_loss_is_refused_and_the_server_stops() {
    let server = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let serving = serve_in_background(server);
    let mut client = Client::connect(addr, "zero-tol").expect("connect");
    let stuck = Request::MaxLoss {
        config: LinkConfig::paper_default(),
        sweep: SweepSpec {
            bits: 800,
            phases: 4,
            frames: 2,
            tol_db: 0.0,
        },
    };
    match client.submit(1, 31, &stuck) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("sweep.tol_db"), "{msg}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert!(matches!(
        client.submit(1, 32, &quick_bathtub(1_000)).expect("served"),
        Response::Bathtub(_)
    ));
    drop(client);
    handle.stop();
    let (stats, _) = serving
        .recv_timeout(Duration::from_secs(10))
        .expect("serve() returns after stop()")
        .expect("serve returns cleanly");
    assert_eq!(stats.errored, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn drain_budget_closes_an_idle_keep_alive_connection() {
    let drain = Duration::from_millis(200);
    let server = Server::bind(ServerConfig {
        drain_ms: drain.as_millis() as u64,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let serving = serve_in_background(server);

    // One job, then the connection sits idle between frames and never
    // closes on its own.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("bounded read");
    raw_lint_roundtrip(&mut idle, 2);

    let stopped = Instant::now();
    handle.stop();
    let (stats, _) = serving
        .recv_timeout(drain + Duration::from_secs(5))
        .expect("serve() returns once the drain budget is spent")
        .expect("serve returns cleanly");
    let took = stopped.elapsed();
    assert!(took >= drain, "waited out the drain budget first: {took:?}");
    assert!(
        took < drain + Duration::from_millis(1_500),
        "returned within the budget plus a margin: {took:?}"
    );
    assert_eq!(
        wire::read_frame_blocking(&mut idle).expect("clean EOF"),
        None,
        "the drain shut the idle connection down"
    );
    assert_eq!(stats.completed, 1);
    assert_eq!(
        stats.conn_errors, 0,
        "an idle close is not a transport error"
    );
}

#[test]
fn chaos_counters_are_deterministic_at_1_2_4_8_workers() {
    // Seven events: the full server-plane taxonomy, seeded. The same
    // plan runs against a fresh server at each worker count; every
    // robustness counter must come out identical, every fault must be
    // accounted to its contracted counter, and a survivor job must
    // still be bit-identical to direct `Session::submit`.
    let plan = server_campaign(0xC4A0_5EED, 7);
    let worker_counts = [1usize, 2, 4, 8];
    let mut all_stats: Vec<ServerStats> = Vec::new();
    for workers in worker_counts {
        let config = ServerConfig {
            workers,
            max_connections: 4,
            read_idle_ms: 25,
            ..ServerConfig::default()
        };
        let plan = plan.clone();
        let stats = with_server(config, move |addr| {
            for event in plan.events() {
                chaos::inject(addr, event.kind).unwrap_or_else(|e| panic!("{event:?}: {e}"));
            }
            let mut client = Client::connect(addr, "survivor").expect("connect");
            let wire_bytes = client
                .submit_raw(1, 4242, &quick_bathtub(1_000))
                .expect("survivor job");
            let direct_bytes = Session::new()
                .with_seed(4242)
                .with_threads(1)
                .submit(&quick_bathtub(1_000))
                .expect("direct submit")
                .to_canonical_json();
            assert_eq!(wire_bytes, direct_bytes, "survivor bit-identity");
            // Let the billing of the last connection events settle.
            std::thread::sleep(Duration::from_millis(100));
        });
        all_stats.push(stats);
    }

    let first = all_stats[0];
    for (i, stats) in all_stats.iter().enumerate() {
        assert_eq!(
            *stats, first,
            "counters must not depend on worker count (got a diff at {} workers)",
            worker_counts[i]
        );
    }
    for (counter, hits) in plan.expected_ledger() {
        let got = first
            .counter(counter)
            .expect("ledger names a serve counter");
        assert_eq!(got, hits, "{counter} accounts exactly its injected faults");
    }
    assert_eq!(first.completed, 1, "the survivor job");
}
