//! `link_char`: closed loop, one caller, in process. Link runs, fault
//! campaigns and the bathtub / max-loss / rate sweeps of Fig. 8/9, all
//! through `Session::submit`. The statistical PHY, the CDR and the
//! sweeps do the work; analog transients, the flow and the serve plane
//! do none.

use crate::common::{
    call, expect, median_setup, over_budget, quantile, replay_both, run_passes, timed, Latencies,
    Report, Rng, Trace,
};
use crate::Args;
use openserdes_core::bitstream::BitVec;
use openserdes_core::job::{Request, Response, SweepSpec};
use openserdes_core::serializer::{Frame, Serializer, FRAME_BITS};
use openserdes_core::{
    oversample_bits_packed, Deserializer, FaultReport, LinkConfig, LinkReport, OversamplingCdr,
    Session, Sweep,
};
use openserdes_fault::{campaign, CampaignKind};
use openserdes_pdk::units::Hertz;
use openserdes_phy::{AnalogLink, BehavioralLink, ChannelModel};

/// Passes over the per-pass job list per requested second; the list
/// runs twice (a pass takes 60-100 ms on a 2-core x86-64 VM, depending
/// on the host's load).
const PASSES_PER_SECOND: u64 = 5;

/// The paper's reported maximum loss at 2 Gb/s (Fig. 9).
const PAPER_MAX_LOSS_DB: f64 = 34.0;

const SHORT_FRAMES: usize = 8;
const LONG_FRAMES: usize = 256;
const FAULT_FRAMES: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    Short,
    Long,
    Faulted,
    Bathtub,
    MaxLoss,
    RateSweep,
}

impl Kind {
    fn tag(self) -> &'static str {
        match self {
            Kind::Short => "run_link_short",
            Kind::Long => "run_link_long",
            Kind::Faulted => "run_link_faults",
            Kind::Bathtub => "bathtub",
            Kind::MaxLoss => "max_loss",
            Kind::RateSweep => "rate_sweep",
        }
    }
}

struct Job {
    kind: Kind,
    seed: u64,
    request: Request,
    /// The 2 Gb/s / 20 dB paper point, which must be error-free.
    paper_point: bool,
}

/// A live operating point in 1–3 GHz and 20–34 dB: the loss stays about
/// 1.5 dB inside the link's maximum loss at that rate (37.5 dB at
/// 1 GHz falling to 31.9 dB at 3 GHz), so the CDR keeps lock and BER
/// stays below 0.5.
fn operating_point(rng: &mut Rng) -> LinkConfig {
    let ghz = rng.uniform(1.0, 3.0);
    let max_db = (36.0 - 2.8 * (ghz - 1.0)).min(34.0);
    let mut config = LinkConfig::paper_default();
    config.data_rate = Hertz::from_ghz(ghz);
    config.channel = ChannelModel::lossy(rng.uniform(20.0, max_db));
    config
}

fn paper_point() -> LinkConfig {
    let mut config = LinkConfig::paper_default();
    config.channel = ChannelModel::lossy(20.0);
    config
}

/// One pass: 14 short runs, 2 fault campaigns, 1 max-loss, 2 long runs
/// (one at the paper point), 1 rate sweep and 3 bathtubs. Sorted by
/// cost the kinds come in that order, so the median lands inside the
/// short runs (per-job fixed cost) and the 90th percentile inside the
/// bathtubs, away from the edges between kinds.
fn pass(rng: &mut Rng) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(23);
    let mut push = |kind, request, paper_point, rng: &mut Rng| {
        jobs.push(Job {
            kind,
            seed: rng.next_u64() >> 16,
            request,
            paper_point,
        })
    };
    for _ in 0..14 {
        let request = Request::RunLink {
            config: operating_point(rng),
            frames: rng.prbs_frames(SHORT_FRAMES),
        };
        push(Kind::Short, request, false, rng);
    }
    for _ in 0..2 {
        let schedule = campaign(
            CampaignKind::Mixed,
            rng.next_u64() >> 16,
            (FAULT_FRAMES * FRAME_BITS) as u64,
        );
        let request = Request::RunLinkWithFaults {
            config: operating_point(rng),
            frames: rng.prbs_frames(FAULT_FRAMES),
            schedule,
        };
        push(Kind::Faulted, request, false, rng);
    }
    let request = Request::MaxLoss {
        config: LinkConfig::paper_default(),
        sweep: SweepSpec::default(),
    };
    push(Kind::MaxLoss, request, false, rng);
    for i in 0..2 {
        let config = if i == 0 {
            paper_point()
        } else {
            operating_point(rng)
        };
        let request = Request::RunLink {
            config,
            frames: rng.prbs_frames(LONG_FRAMES),
        };
        push(Kind::Long, request, i == 0, rng);
    }
    for _ in 0..3 {
        let request = Request::Bathtub {
            config: operating_point(rng),
            sweep: SweepSpec::default(),
        };
        push(Kind::Bathtub, request, false, rng);
    }
    let request = Request::RateSweep {
        config: LinkConfig::paper_default(),
        sweep: SweepSpec::default(),
        rates: [1.0, 1.5, 2.0, 2.5, 3.0].map(Hertz::from_ghz).to_vec(),
    };
    push(Kind::RateSweep, request, false, rng);
    rng.shuffle(&mut jobs);
    jobs
}

fn ber_ok(report: &LinkReport) -> bool {
    (0.0..=0.5).contains(&report.ber()) && report.bits > 0
}

/// Checks one response; returns the problems found.
fn check(job: &Job, response: &Response) -> Vec<String> {
    let mut problems = Vec::new();
    match (job.kind, response) {
        (Kind::Short | Kind::Long, Response::Link(r)) => {
            expect(&mut problems, ber_ok(r), || format!("BER {}", r.ber()));
            if job.paper_point {
                expect(&mut problems, r.bit_errors == 0, || {
                    format!("{} bit errors at 2 Gb/s / 20 dB", r.bit_errors)
                });
            }
        }
        (Kind::Faulted, Response::Faulted(r)) => {
            expect(&mut problems, ber_ok(&r.link), || {
                format!("BER {}", r.link.ber())
            });
        }
        (Kind::Bathtub, Response::Bathtub(points)) => {
            let worst = points.iter().map(|p| p.ber).fold(0.0, f64::max);
            expect(&mut problems, !points.is_empty(), || "no points".into());
            expect(
                &mut problems,
                points.iter().all(|p| (0.0..=0.5).contains(&p.ber)),
                || format!("bathtub BER up to {worst}"),
            );
        }
        (Kind::MaxLoss, Response::MaxLoss { max_loss_db }) => {
            expect(
                &mut problems,
                (max_loss_db - PAPER_MAX_LOSS_DB).abs() <= 1.0,
                || format!("2 GHz max loss {max_loss_db} dB"),
            );
        }
        (Kind::RateSweep, Response::Rates(points)) => {
            expect(&mut problems, points.len() == 5, || {
                "wrong point count".into()
            });
            for p in points {
                let db = p.max_loss_db;
                expect(&mut problems, db.is_finite() && db > 0.0, || {
                    format!("max loss {db} dB")
                });
                if p.data_rate == Hertz::from_ghz(2.0) {
                    expect(&mut problems, (db - PAPER_MAX_LOSS_DB).abs() <= 1.0, || {
                        format!("2 GHz max loss {db} dB in the rate sweep")
                    });
                }
            }
        }
        (_, other) => problems.push(format!("unexpected response {other:?}")),
    }
    problems
}

/// Payload frames of a link job.
fn frames_of(request: &Request) -> Option<&[Frame]> {
    match request {
        Request::RunLink { frames, .. } | Request::RunLinkWithFaults { frames, .. } => Some(frames),
        _ => None,
    }
}

fn count_link(report: &mut Report, r: &LinkReport) {
    report.count("link.tx_bits", r.stats.tx_bits);
    report.count("link.phy_samples", r.stats.phy_samples);
    report.count("link.compared_bits", r.stats.compared_bits);
    report.count("link.bit_errors", r.bit_errors);
    report.count("link.cdr_phase_updates", r.cdr_phase_updates);
    report.count("link.frames_correct", r.frames_correct as u64);
}

fn submit(session: &mut Session, job: &Job) -> Result<Response, String> {
    *session = std::mem::take(session).with_seed(job.seed);
    session.submit(&job.request).map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed);
    let passes = args.seconds * PASSES_PER_SECOND;
    let jobs: Vec<Job> = (0..passes).flat_map(|_| pass(&mut rng)).collect();

    // Set-up: a session, the PHY characterization at the paper point
    // and one long warm-up run.
    let warm_up = Request::RunLink {
        config: LinkConfig::paper_default(),
        frames: rng.prbs_frames(LONG_FRAMES),
    };
    let (mut session, setup_s) = median_setup(|| {
        let mut session = Session::new().with_seed(args.seed);
        let analog = AnalogLink::paper_default(
            session.link_config().pvt,
            session.link_config().channel.clone(),
        );
        BehavioralLink::from_analog(&analog, session.link_config().data_rate)
            .map_err(|e| e.to_string())?;
        session.submit(&warm_up).map_err(|e| e.to_string())?;
        Ok(session)
    })?;
    report.set("setup_s", setup_s, "s");

    let per_pass = jobs.len() / passes as usize;
    let run = run_passes(&jobs, per_pass, |job| submit(&mut session, job));
    let mut latencies = Latencies::default();
    let (mut ui, mut ui_ms) = (0u64, 0.0);
    let mut max_loss_error = Vec::new();
    for (job, (result, timing)) in jobs.iter().zip(&run.results) {
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                report.outcome(job.kind.tag(), vec![e.clone()]);
                continue;
            }
        };
        latencies.push(job.kind.tag(), *timing);
        if let Some(frames) = frames_of(&job.request) {
            ui += (frames.len() * FRAME_BITS) as u64;
            ui_ms += timing.ms;
        }
        report.outcome(job.kind.tag(), check(job, response));
        report
            .digest
            .update(response.to_canonical_json().as_bytes());
        report.count(&format!("jobs.{}", job.kind.tag()), 1);
        match response {
            Response::Link(r) => count_link(&mut report, r),
            Response::Faulted(r) => {
                count_link(&mut report, &r.link);
                report.count("faults.lock_losses", r.lock_losses);
                report.count(
                    "faults.injected",
                    (r.injected_channel + r.injected_clock + r.injected_digital) as u64,
                );
            }
            Response::Bathtub(points) => report.count("sweep.bathtub_points", points.len() as u64),
            Response::Rates(points) => report.count("sweep.rate_points", points.len() as u64),
            Response::MaxLoss { max_loss_db } => {
                max_loss_error.push(max_loss_db - PAPER_MAX_LOSS_DB);
            }
            _ => {}
        }
    }
    latencies.finish(&mut report, &run);
    report.set("link_ui_per_s", ui as f64 / (ui_ms / 1e3), "1/s");
    report.set(
        "core.sweep.max_loss_error_db",
        quantile(&mut max_loss_error, 0.5),
        "dB",
    );

    if args.trace {
        trace(&mut report, &mut session, &jobs, per_pass)?;
    }
    Ok(report)
}

/// Replays the first quarter of the passes as timed calls into each
/// layer's public functions, after timing each job as one submit.
fn trace(
    report: &mut Report,
    session: &mut Session,
    jobs: &[Job],
    per_pass: usize,
) -> Result<(), String> {
    let passes = jobs.len() / per_pass;
    let mut trace = Trace::default();
    let mut samples = 0u64;
    for (i, job) in jobs[..per_pass * passes.div_ceil(4)].iter().enumerate() {
        if over_budget().is_some() {
            break;
        }
        if i % per_pass == 0 {
            trace.pass();
        }
        let (response, job_ms) = timed(|| submit(session, job));
        let response = response?;
        let mut problems = Vec::new();
        let (parts, walls) = replay_both(i % 2 == 0, |timed_calls| {
            replay(job, &response, timed_calls, &mut problems)
        })?;
        trace.job(job.kind.tag(), job_ms, &parts, walls);
        report.outcome(&format!("replay of {}", job.kind.tag()), problems);
        if let Response::Link(link) | Response::Faulted(FaultReport { link, .. }) = &response {
            samples += link.stats.phy_samples;
            report.add(
                "core.cdr.phase_updates",
                link.cdr_phase_updates as f64,
                "count",
            );
            report.add(
                "core.link.phy_samples",
                link.stats.phy_samples as f64,
                "count",
            );
            report.add(
                "core.link.compared_bits",
                link.stats.compared_bits as f64,
                "count",
            );
            report.add("core.link.bit_errors", link.bit_errors as f64, "count");
        }
    }
    trace.finish(report, |kind| match kind {
        "bathtub" | "max_loss" | "rate_sweep" => "core.sweep.residual_ms",
        _ => "core.link.residual_ms",
    });
    for (layer, per_sample) in [
        (
            "core.cdr.oversample_ms",
            "core.cdr.oversample_ns_per_sample",
        ),
        ("core.cdr.recover_ms", "core.cdr.recover_ns_per_sample"),
    ] {
        let ms = report.metric(layer).unwrap_or(0.0);
        report.set(per_sample, ms * 1e6 / samples as f64, "ns");
    }
    Ok(())
}

/// Replays one job as the public layer calls its engine makes.
fn replay(
    job: &Job,
    response: &Response,
    timed_calls: bool,
    problems: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut parts = Vec::new();
    let (p, t) = (&mut parts, timed_calls);
    let sweep = |spec: &SweepSpec| spec.apply(Sweep::new()).with_seed(job.seed);
    let err = |e: openserdes_core::LinkError| e.to_string();
    match (&job.request, response) {
        (Request::RunLink { config, frames }, Response::Link(link))
        | (
            Request::RunLinkWithFaults { config, frames, .. },
            Response::Faulted(FaultReport { link, .. }),
        ) => replay_link(p, t, config, frames, job.seed, link, problems)?,
        (
            Request::Bathtub {
                config,
                sweep: spec,
            },
            _,
        ) => {
            call(p, t, "core.sweep.bathtub_ms", || {
                sweep(spec).bathtub(config)
            })
            .map_err(err)?;
        }
        (
            Request::MaxLoss {
                config,
                sweep: spec,
            },
            _,
        ) => {
            call(p, t, "core.sweep.max_loss_ms", || {
                sweep(spec).max_loss(config)
            })
            .map_err(err)?;
        }
        (
            Request::RateSweep {
                config,
                sweep: spec,
                rates,
            },
            _,
        ) => {
            call(p, t, "core.sweep.rate_sweep_ms", || {
                sweep(spec).rate_sweep(config, rates)
            })
            .map_err(err)?;
        }
        _ => return Err(format!("{}: unexpected response", job.kind.tag())),
    }
    Ok(parts)
}

/// Replays one link job as the layer calls `link::run_frames` makes:
/// serialize, characterize the PHY, oversample, recover, deserialize.
/// The noise flips, alignment, scoring and (for campaigns) the fault
/// injection stay in the residual. The timed replay is cross-checked
/// against the job's report.
fn replay_link(
    p: &mut Vec<(&'static str, f64)>,
    t: bool,
    config: &LinkConfig,
    frames: &[Frame],
    seed: u64,
    link: &LinkReport,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let bits = call(p, t, "core.serializer.serialize_ms", || {
        let mut ser = Serializer::new();
        let mut bits = BitVec::with_capacity(frames.len() * FRAME_BITS);
        for &f in frames {
            ser.serialize_into(f, &mut bits);
        }
        bits
    });
    call(p, t, "phy.pipeline.characterize_ms", || {
        let analog = AnalogLink::paper_default(config.pvt, config.channel.clone());
        BehavioralLink::from_analog(&analog, config.data_rate)
            .map(|beh| std::hint::black_box(beh.flip_probability_jitter_eroded()))
    })
    .map_err(|e| e.to_string())?;
    let ui = 1.0 / config.data_rate.value();
    let jitter_frac = config.channel.rj_sigma.value() / ui;
    let n = config.cdr.oversampling;
    let stream = call(p, t, "core.cdr.oversample_ms", || {
        oversample_bits_packed(&bits, n, 0.3, jitter_frac, seed ^ 0x0511)
    });
    let recovered = call(p, t, "core.cdr.recover_ms", || {
        OversamplingCdr::new(config.cdr).recover_packed(&stream)
    });
    let lag = link.alignment_lag.min(recovered.len());
    call(p, t, "core.deserializer.push_ms", || {
        Deserializer::new().push_packed(&recovered, lag, recovered.len() - lag)
    });
    if t {
        expect(problems, bits.len() as u64 == link.stats.tx_bits, || {
            format!(
                "replay serialized {} bits, job {}",
                bits.len(),
                link.stats.tx_bits
            )
        });
        expect(
            problems,
            stream.len() as u64 == link.stats.phy_samples,
            || {
                format!(
                    "replay made {} PHY samples, job {}",
                    stream.len(),
                    link.stats.phy_samples
                )
            },
        );
    }
    Ok(())
}
