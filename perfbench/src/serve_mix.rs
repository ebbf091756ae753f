//! `serve_mix`: open loop through `openserdes-serve` on loopback. Two
//! tenants, one connection each, send cheap jobs on a seeded Poisson
//! schedule at a fixed ladder of offered rates. The traffic mixes a hot
//! set that repeats (cache reads), identical jobs due at the same time
//! on both connections (coalescing) and a cold unique tail larger than
//! the cache (cache writes and eviction). Engine work per request is
//! under a millisecond, so the wire, the executor tick, the scheduler
//! and the cache dominate.

use crate::common::{
    call, expect, median_setup, over_budget, quantile, replay_both, timed, Calibration, Report, Rng,
};
use crate::Args;
use openserdes_core::job::{DesignSpec, Request, Response, SweepSpec};
use openserdes_core::{JobKey, LinkConfig, Session};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::units::Hertz;
use openserdes_phy::ChannelModel;
use openserdes_serve::wire::Envelope;
use openserdes_serve::{Client, ClientConfig, Server, ServerConfig, ServerHandle, ServerStats};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered rates of the ladder, requests per second over both
/// connections. The top stays at about a quarter of what a 2-core VM
/// serves at its best, because when the host is contended the server
/// loses capacity and its queue starts to grow above 450 req/s.
const LADDER_RPS: [f64; 4] = [75.0, 150.0, 225.0, 300.0];

/// Requests per rung per requested second of run time (the ladder runs
/// twice).
const REQUESTS_PER_RUNG_PER_SECOND: u64 = 16;

/// A rung meets the limit when its p99 latency from the due time is at
/// most this, no request failed and the generator's lateness did not
/// grow across the rung.
const P99_LIMIT_MS: f64 = 20.0;

/// Responses the server caches; the cold tail of every run is larger.
const CACHE_CAPACITY: usize = 64;

/// Graceful-drain budget. Shorter than the server's default so that a
/// stop with an idle keep-alive client still connected shows the wait
/// at a lower cost.
const DRAIN_MS: u64 = 500;

/// Schedule time per segment of a rung; every ladder rate offers a
/// whole number of requests in it.
const SEGMENT_MS: f64 = 200.0;

/// Distinct jobs in the hot set.
const HOT_JOBS: usize = 12;

/// Probe jobs of the traced run (miss, then hit, then direct).
const PROBES: usize = 200;

#[derive(Clone)]
struct Job {
    seed: u64,
    request: Request,
}

/// A cheap job of kind `kind % 4`: a 16-frame RunLink, a Lint, an Sta
/// on `scan_chain` or a small MaxLoss.
fn cheap_job(rng: &mut Rng, kind: usize) -> Job {
    let request = match kind % 4 {
        0 => {
            let mut config = LinkConfig::paper_default();
            config.data_rate = Hertz::from_ghz(rng.uniform(1.0, 2.0));
            config.channel = ChannelModel::lossy(rng.uniform(20.0, 32.0));
            Request::RunLink {
                config,
                frames: rng.prbs_frames(16),
            }
        }
        1 => Request::Lint {
            design: [
                DesignSpec::Serializer,
                DesignSpec::Cdr { oversampling: 5 },
                DesignSpec::ScanChain,
            ][rng.below(3)],
        },
        2 => Request::Sta {
            design: DesignSpec::ScanChain,
            pvt: [Pvt::nominal(), Pvt::worst_case(), Pvt::best_case()][rng.below(3)],
            clock: Hertz::from_ghz(rng.uniform(0.5, 1.5)),
        },
        _ => Request::MaxLoss {
            config: LinkConfig::paper_default(),
            sweep: SweepSpec {
                bits: 1000,
                phases: 8,
                frames: 2,
                tol_db: 4.0,
            },
        },
    };
    Job {
        seed: rng.next_u64() >> 16,
        request,
    }
}

/// One scheduled request: due time from the rung start, and the job.
#[derive(Clone, Copy)]
struct Send {
    due_ms: f64,
    job: usize,
}

/// What the generator saw for one request.
struct Sent {
    job: usize,
    /// Global segment index, for the speed factor.
    segment: usize,
    due_ms: f64,
    late_ms: f64,
    latency_ms: f64,
    /// `latency_ms` before normalization.
    raw_ms: f64,
    reply: Result<String, String>,
}

/// One stretch of a rung's schedule, per connection in due order.
/// Segments run back to back with a calibration mark between them;
/// due times count from the segment's start.
type Segment = [Vec<Send>; 2];

struct Rung {
    rps: f64,
    segments: Vec<Segment>,
}

struct Traffic {
    jobs: Vec<Job>,
    rungs: Vec<Rung>,
    hot: u64,
    pairs: u64,
    cold: u64,
}

#[derive(Clone, Copy)]
enum Event {
    Hot,
    Pair,
    Cold,
}

/// Events per block of the schedule: 9 hot repeats, 3 pairs and 8 cold
/// jobs (39%, 26% and 35% of requests), shuffled within the block so
/// every seed offers the same mix.
const BLOCK: [(Event, usize); 3] = [(Event::Hot, 9), (Event::Pair, 3), (Event::Cold, 8)];

fn traffic(rng: &mut Rng, per_rung: u64) -> Traffic {
    let mut jobs: Vec<Job> = (0..HOT_JOBS).map(|k| cheap_job(rng, k)).collect();
    let (mut hot, mut pairs, mut cold) = (0, 0, 0);
    let mut rungs = Vec::new();
    let mut block: Vec<Event> = Vec::new();
    let mut turn = 0;
    for rps in LADDER_RPS {
        // A Poisson process conditioned on its count: each segment
        // offers exactly `slots` requests at uniform random times, so
        // every seed offers the same load for the same time.
        let slots = (rps * SEGMENT_MS / 1e3).round() as usize;
        let mut segments = Vec::new();
        for _ in 0..(per_rung as usize).div_ceil(slots) {
            let mut times: Vec<f64> = (0..slots).map(|_| rng.uniform(0.0, SEGMENT_MS)).collect();
            times.sort_by(f64::total_cmp);
            let mut sends: Segment = [Vec::new(), Vec::new()];
            let mut slot = 0;
            while slot < slots {
                let due_ms = times[slot];
                if block.is_empty() {
                    block = BLOCK
                        .iter()
                        .flat_map(|&(event, count)| std::iter::repeat_n(event, count))
                        .collect();
                    rng.shuffle(&mut block);
                }
                turn += 1;
                let conn = turn % 2;
                match block.pop().expect("refilled above") {
                    Event::Hot => {
                        hot += 1;
                        let job = rng.below(HOT_JOBS);
                        sends[conn].push(Send { due_ms, job });
                        slot += 1;
                    }
                    Event::Pair => {
                        // Two requests: the pair takes two slots.
                        pairs += 1;
                        jobs.push(cheap_job(rng, jobs.len()));
                        let job = jobs.len() - 1;
                        for conn in &mut sends {
                            conn.push(Send { due_ms, job });
                        }
                        slot += 2;
                    }
                    Event::Cold => {
                        cold += 1;
                        jobs.push(cheap_job(rng, jobs.len()));
                        sends[conn].push(Send {
                            due_ms,
                            job: jobs.len() - 1,
                        });
                        slot += 1;
                    }
                }
            }
            segments.push(sends);
        }
        rungs.push(Rung { rps, segments });
    }
    Traffic {
        jobs,
        rungs,
        hot,
        pairs,
        cold,
    }
}

/// A server on loopback with two connected tenants.
struct Served {
    clients: Vec<Client>,
    handle: ServerHandle,
    thread: Option<JoinHandle<io::Result<(ServerStats, openserdes_telemetry::Record)>>>,
}

impl Served {
    fn start() -> Result<Self, String> {
        let err = |e: io::Error| e.to_string();
        let server = Server::bind(ServerConfig {
            workers: 2,
            cache_capacity: CACHE_CAPACITY,
            drain_ms: DRAIN_MS,
            ..ServerConfig::default()
        })
        .map_err(err)?;
        let addr = server.local_addr().map_err(err)?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve());
        let config = ClientConfig {
            read_timeout_ms: 5_000,
            ..ClientConfig::default()
        };
        let mut served = Self {
            clients: Vec::new(),
            handle,
            thread: Some(thread),
        };
        for tenant in ["tenant-a", "tenant-b"] {
            let client = Client::connect_with(addr, tenant, config.clone()).map_err(err)?;
            served.clients.push(client);
        }
        Ok(served)
    }

    /// Stops the server with `idle` clients still connected (the rest
    /// close first) and waits for it; returns its lifetime stats and
    /// the seconds from `stop()` until it returned.
    fn stop(&mut self, idle: usize) -> Result<(ServerStats, f64), String> {
        self.clients.truncate(idle);
        let thread = self.thread.take().ok_or("server already stopped")?;
        let t0 = Instant::now();
        self.handle.stop();
        let served = thread.join().map_err(|_| "server thread panicked")?;
        let stop_s = t0.elapsed().as_secs_f64();
        self.clients.clear();
        let (stats, _) = served.map_err(|e| e.to_string())?;
        Ok((stats, stop_s))
    }

    fn retries(&self) -> u64 {
        self.clients.iter().map(|c| c.retry_stats().retries).sum()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.stop(0);
        }
    }
}

/// Sends one connection's schedule of a segment, each request at its due
/// time or as soon as the previous reply is in.
fn drive(
    client: &mut Client,
    start: Instant,
    segment: usize,
    sends: &[Send],
    jobs: &[Job],
) -> Vec<Sent> {
    sends
        .iter()
        .map(|s| {
            let due = start + Duration::from_secs_f64(s.due_ms / 1e3);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let job = &jobs[s.job];
            let reply = match over_budget() {
                Some(skipped) => Err(skipped),
                None => client
                    .submit_raw(1, job.seed, &job.request)
                    .map_err(|e| e.to_string()),
            };
            let done = Instant::now();
            let since_due = |t: Instant| t.saturating_duration_since(due).as_secs_f64() * 1e3;
            Sent {
                job: s.job,
                segment,
                due_ms: s.due_ms,
                late_ms: since_due(sent),
                latency_ms: since_due(done),
                raw_ms: since_due(done),
                reply,
            }
        })
        .collect()
}

/// Runs one segment on both connections, one generator thread each;
/// returns what was sent, in due order, and the wall seconds.
fn run_segment(
    served: &mut Served,
    index: usize,
    segment: &Segment,
    jobs: &[Job],
) -> (Vec<Sent>, f64) {
    let (a, b) = served.clients.split_at_mut(1);
    let start = Instant::now();
    let (mut sent_a, sent_b) = std::thread::scope(|s| {
        let t = s.spawn(|| drive(&mut b[0], start, index, &segment[1], jobs));
        let sent_a = drive(&mut a[0], start, index, &segment[0], jobs);
        (sent_a, t.join().expect("generator thread"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    sent_a.extend(sent_b);
    sent_a.sort_by(|x, y| x.due_ms.total_cmp(&y.due_ms).then(x.job.cmp(&y.job)));
    (sent_a, wall_s)
}

/// A server that has answered one warm-up job, after a direct submit of
/// the same job.
fn warmed(warm_up: &Job) -> Result<Served, String> {
    let mut direct = Session::new().with_seed(warm_up.seed);
    direct.submit(&warm_up.request).map_err(|e| e.to_string())?;
    let mut served = Served::start()?;
    served.clients[0]
        .submit_raw(1, warm_up.seed, &warm_up.request)
        .map_err(|e| e.to_string())?;
    Ok(served)
}

/// One run of the whole ladder on one server.
struct Ladder {
    /// Per request, in schedule order; latency and lateness normalized
    /// by the host speed measured between segments.
    sent: Vec<Sent>,
    /// Per rung: offered rate, requests, wall seconds, and whether the
    /// generator's lateness grew across the rung's segments.
    rungs: Vec<(f64, usize, f64, bool)>,
    stats: ServerStats,
    retries: u64,
    kernel_ms: f64,
}

fn run_ladder(mut served: Served, traffic: &Traffic) -> Result<Ladder, String> {
    let mut calibration = Calibration::default();
    let (mut sent, mut rungs) = (Vec::new(), Vec::new());
    let mut segment = 0;
    for rung in &traffic.rungs {
        let first = sent.len();
        let mut wall_s = 0.0;
        let mut lateness_ends = (Vec::new(), Vec::new());
        for seg in &rung.segments {
            calibration.mark();
            let (s, w) = run_segment(&mut served, segment, seg, &traffic.jobs);
            let q = s.len() / 4;
            lateness_ends.0.extend(s[..q].iter().map(|s| s.late_ms));
            lateness_ends
                .1
                .extend(s[s.len() - q..].iter().map(|s| s.late_ms));
            sent.extend(s);
            wall_s += w;
            segment += 1;
        }
        let growing =
            quantile(&mut lateness_ends.1, 0.5) > quantile(&mut lateness_ends.0, 0.5) + 1.0;
        rungs.push((rung.rps, sent.len() - first, wall_s, growing));
    }
    calibration.mark();
    for s in &mut sent {
        let factor = calibration.factor(s.segment);
        s.raw_ms = s.latency_ms;
        s.latency_ms *= factor;
        s.late_ms *= factor;
    }
    let retries = served.retries();
    let (stats, _) = served.stop(0)?;
    Ok(Ladder {
        sent,
        rungs,
        stats,
        retries,
        kernel_ms: calibration.median_ms(),
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed);
    let traffic = traffic(&mut rng, args.seconds * REQUESTS_PER_RUNG_PER_SECOND);
    let jobs = &traffic.jobs;
    let warm_up = Job {
        seed: rng.next_u64() >> 16,
        request: Request::RunLink {
            config: LinkConfig::paper_default(),
            frames: rng.prbs_frames(16),
        },
    };

    // Set-up: a direct session, the server bound and serving, both
    // tenants connected, and one warm-up job through each path.
    let (served, setup_s) = median_setup(|| warmed(&warm_up))?;
    report.set("setup_s", setup_s, "s");

    // The ladder runs twice, each time on a fresh server, and a
    // request's latency is the lesser of its two. A stall of the host
    // must hit the same request twice to count, while a slower program
    // is slower in both runs.
    let ladders = [
        run_ladder(served, &traffic)?,
        run_ladder(warmed(&warm_up)?, &traffic)?,
    ];

    // Every reply must be the bytes a direct submit of the same
    // (request, seed) produces.
    let mut expected: HashMap<usize, String> = HashMap::new();
    let mut best = Vec::with_capacity(ladders[0].sent.len());
    for (a, b) in ladders[0].sent.iter().zip(&ladders[1].sent) {
        if a.job != b.job {
            return Err("the two ladder runs sent different schedules".into());
        }
        let job = &jobs[a.job];
        let want = match expected.get(&a.job) {
            Some(w) => w,
            None => {
                let direct = Session::new()
                    .with_seed(job.seed)
                    .submit(&job.request)
                    .map_err(|e| format!("direct submit: {e}"))?;
                expected
                    .entry(a.job)
                    .or_insert_with(|| direct.to_canonical_json())
            }
        };
        let mut all_ok = true;
        for s in [a, b] {
            let mut problems = Vec::new();
            match &s.reply {
                Ok(reply) => expect(&mut problems, reply == want, || {
                    format!("reply differs from a direct submit: {reply:.120}")
                }),
                Err(e) => problems.push(e.clone()),
            }
            all_ok &= problems.is_empty();
            report.outcome("serve request", problems);
        }
        report.digest.update(want.as_bytes());
        best.push((
            all_ok,
            a.latency_ms.min(b.latency_ms),
            a.raw_ms.min(b.raw_ms),
            a.late_ms.min(b.late_ms),
        ));
    }

    // Per rung: the p99 limit, no failure and no growing lateness.
    let mut max_rate = None;
    let mut first = 0;
    for (r, &(rps, n, _, _)) in ladders[0].rungs.iter().enumerate() {
        let rung = &best[first..first + n];
        first += n;
        let ok = rung.iter().filter(|b| b.0).count();
        let mut lat: Vec<f64> = rung.iter().map(|b| b.1).collect();
        let mut late: Vec<f64> = rung.iter().map(|b| b.3).collect();
        let p99 = quantile(&mut lat, 0.99);
        let wall_s: f64 = ladders.iter().map(|l| l.rungs[r].2).sum();
        let achieved = 2.0 * ok as f64 / wall_s;
        let growing = ladders.iter().any(|l| l.rungs[r].3);
        let meets = p99 <= P99_LIMIT_MS && ok == n && !growing;
        if meets {
            max_rate = Some(achieved);
        }
        report.note(format!(
            "rung {rps:.0} rps: {n} requests, achieved {achieved:.1} rps, p50 {:.3} ms, p99 {p99:.3} ms, late p99 {:.3} ms, lateness growing {growing}, meets limit {meets}",
            quantile(&mut lat, 0.5),
            quantile(&mut late, 0.99),
        ));
    }

    report.count("serve.requests", best.len() as u64);
    report.count("serve.distinct_jobs", expected.len() as u64);
    report.count("serve.hot_requests", traffic.hot);
    report.count("serve.pair_requests", 2 * traffic.pairs);
    report.count("serve.cold_requests", traffic.cold);
    let mut stats = ServerStats::default();
    for (i, l) in ladders.iter().enumerate() {
        report.note(format!(
            "ladder run {i}: calibration kernel median {:.3} ms, server stats (timing-dependent split) {:?}",
            l.kernel_ms, l.stats
        ));
        stats.requests += l.stats.requests;
        stats.cache_hits += l.stats.cache_hits;
        stats.coalesced += l.stats.coalesced;
        stats.shed += l.stats.shed;
        stats.deadline_expired += l.stats.deadline_expired;
        stats.conn_errors += l.stats.conn_errors;
    }
    let n = stats.requests.max(1) as f64;

    let ok = best.iter().filter(|b| b.0).count();
    let wall_s: f64 = ladders
        .iter()
        .flat_map(|l| l.rungs.iter().map(|r| r.2))
        .sum();
    report.set("jobs_per_s", 2.0 * ok as f64 / wall_s, "1/s");
    let ok_only =
        |i: usize| -> Vec<f64> { best.iter().filter(|b| b.0).map(|b| [b.1, b.2][i]).collect() };
    let (mut latencies, mut raw) = (ok_only(0), ok_only(1));
    for (name, q) in [("p50_ms", 0.5), ("p90_ms", 0.9), ("p99_ms", 0.99)] {
        report.set(name, quantile(&mut latencies, q), "ms");
        report.set(&format!("raw.{name}"), quantile(&mut raw, q), "ms");
    }
    let mut late: Vec<f64> = best.iter().map(|b| b.3).collect();
    report.set("max_rate_rps", max_rate.unwrap_or(0.0), "1/s");
    report.set("loadgen.late_p99_ms", quantile(&mut late, 0.99), "ms");
    report.set(
        "serve.cache.hit_ratio",
        stats.cache_hits as f64 / n,
        "ratio",
    );
    report.set(
        "serve.sched.coalesce_ratio",
        stats.coalesced as f64 / n,
        "ratio",
    );
    report.set("serve.sched.shed", stats.shed as f64, "count");
    report.set(
        "serve.sched.deadline_expired",
        stats.deadline_expired as f64,
        "count",
    );
    report.set(
        "serve.server.conn_errors",
        stats.conn_errors as f64,
        "count",
    );
    let retries: u64 = ladders.iter().map(|l| l.retries).sum();
    report.set("serve.client.retries", retries as f64, "count");

    if args.trace {
        trace(&mut report, &mut rng)?;
    }
    Ok(report)
}

/// Probes an idle server: per fresh job, the miss round trip, the hit
/// round trip and a direct submit of the same (request, seed); the
/// codec calls of one request; then the stop time with one idle
/// keep-alive client still connected.
fn trace(report: &mut Report, rng: &mut Rng) -> Result<(), String> {
    let mut served = Served::start()?;
    let (mut hit, mut miss, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut codec: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut traced_ms, mut plain_ms) = (0.0, 0.0);
    for i in 0..PROBES {
        let job = cheap_job(rng, i);
        let client = &mut served.clients[0];
        let (first, miss_ms) = timed(|| client.submit_raw(1, job.seed, &job.request));
        let (second, hit_ms) = timed(|| client.submit_raw(1, job.seed, &job.request));
        let (direct, direct_ms) = timed(|| Session::new().with_seed(job.seed).submit(&job.request));
        let mut problems = Vec::new();
        match (first, second, direct) {
            (Ok(a), Ok(b), Ok(d)) => {
                let d = d.to_canonical_json();
                expect(&mut problems, a == d && b == d, || {
                    "probe reply differs from a direct submit".into()
                });
                // The codec calls of this request, replayed timed and
                // untimed.
                let envelope = Envelope {
                    tenant: "tenant-a".into(),
                    priority: 1,
                    seed: job.seed,
                    deadline_ms: None,
                    request: job.request.clone(),
                };
                let (parts, walls) = replay_both(i % 2 == 0, |t| {
                    let mut p = Vec::new();
                    call(&mut p, t, "core.job.encode_us", || {
                        black_box(envelope.to_json())
                    });
                    call(&mut p, t, "core.job.key_us", || {
                        black_box(JobKey::of(&job.request, job.seed))
                    });
                    call(&mut p, t, "core.job.decode_us", || {
                        Response::from_json(&a).map(black_box)
                    })
                    .map_err(|e| e.to_string())?;
                    Ok(p)
                })?;
                for (name, ms) in parts {
                    codec.entry(name).or_default().push(ms * 1e3);
                }
                traced_ms += walls.0;
                plain_ms += walls.1;
                hit.push(hit_ms);
                miss.push(miss_ms);
                overhead.push(miss_ms - direct_ms);
            }
            (a, b, d) => problems.push(format!(
                "probe failed: {:?} {:?} {:?}",
                a.err(),
                b.err(),
                d.err()
            )),
        }
        report.outcome("serve probe", problems);
    }
    let retries = served.retries();
    // One idle keep-alive client stays connected through the stop.
    let (stats, stop_s) = served.stop(1)?;
    report.note(format!("probe server stats: {stats:?}"));
    report.set("serve.client.hit_rtt_p50_ms", quantile(&mut hit, 0.5), "ms");
    report.set(
        "serve.client.miss_rtt_p50_ms",
        quantile(&mut miss, 0.5),
        "ms",
    );
    report.set(
        "serve.overhead_miss_p50_ms",
        quantile(&mut overhead, 0.5),
        "ms",
    );
    for (name, mut us) in codec {
        report.set(name, quantile(&mut us, 0.5), "us");
    }
    report.set("serve.server.stop_s", stop_s, "s");
    report.add("serve.client.retries", retries as f64, "count");
    report.add(
        "serve.server.conn_errors",
        stats.conn_errors as f64,
        "count",
    );
    report.set(
        "trace.overhead_pct",
        (traced_ms / plain_ms - 1.0) * 100.0,
        "%",
    );
    Ok(())
}
