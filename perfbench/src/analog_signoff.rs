//! `analog_signoff`: closed loop, one caller, in process. Transistor-
//! level PRBS frames through `Session::run_analog_link`, and RunFlow,
//! Sta and Lint jobs through `Session::submit`. The analog solver,
//! `ChannelModel::apply`, placement and STA do the work; the
//! statistical PHY and the serve plane do none.

use crate::common::{
    call, expect, median_setup, over_budget, replay_both, run_passes, timed, Latencies, Report,
    Rng, Trace,
};
use crate::Args;
use openserdes_analog::SolverStats;
use openserdes_core::job::{DesignSpec, FlowSummary, Request, Response, StaSummary};
use openserdes_core::link::AnalogFrameReport;
use openserdes_core::serializer::{frame_to_bits, Frame, FRAME_BITS};
use openserdes_core::Session;
use openserdes_flow::floorplan::Floorplan;
use openserdes_flow::place::{anneal, place_greedy, AnnealStats};
use openserdes_flow::route::global_route;
use openserdes_flow::{
    analyze_power, optimize_timing, synthesize, FlowConfig, PowerConfig, Sta, StaConfig,
};
use openserdes_lint::LintConfig;
use openserdes_netlist::NetlistStats;
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::library::Library;
use openserdes_pdk::units::{Hertz, Time};
use openserdes_phy::AnalogLink;

/// Passes over the per-pass job list per requested second; the list
/// runs twice (a pass takes 350-550 ms on a 2-core x86-64 VM, depending
/// on the host's load).
const PASSES_PER_SECOND: u64 = 1;

fn corners() -> [Pvt; 3] {
    [Pvt::nominal(), Pvt::worst_case(), Pvt::best_case()]
}

const DESIGNS: [DesignSpec; 5] = [
    DesignSpec::Serializer,
    DesignSpec::Deserializer,
    DesignSpec::Cdr { oversampling: 5 },
    DesignSpec::ScanChain,
    DesignSpec::DigitalTop { oversampling: 5 },
];

enum Job {
    /// One PRBS frame through the transistor-level link at a corner
    /// (index into the set-up sessions: 0 = TT, 1 = SS).
    Analog {
        corner: usize,
        frame: Frame,
    },
    Submit(Request),
}

impl Job {
    fn tag(&self) -> &'static str {
        match self {
            Job::Analog { .. } => "analog_link",
            Job::Submit(Request::RunFlow { .. }) => "run_flow",
            Job::Submit(Request::Sta { .. }) => "sta",
            Job::Submit(Request::Lint { .. }) => "lint",
            Job::Submit(_) => "other",
        }
    }
}

/// One pass: 6 analog frames (3 at TT, 3 at SS), RunFlow on `cdr(5)`,
/// `serializer` and `deserializer` and Lint on two of the five designs,
/// at corners and designs that rotate with the pass (so every seed runs
/// the same mix of work), and Sta on `digital_top` at TT/SS/FF with a
/// seeded clock. Sorted by cost: lints, the `cdr` flow, Sta, the two
/// large flows, analog frames; so the median lands inside the two large
/// flows and the 90th percentile inside the analog frames.
fn pass(rng: &mut Rng, index: u64) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(14);
    for corner in [0, 0, 0, 1, 1, 1] {
        let frame = rng.prbs_frames(1)[0];
        jobs.push(Job::Analog { corner, frame });
    }
    for (i, design) in [DESIGNS[2], DESIGNS[0], DESIGNS[1]].into_iter().enumerate() {
        let pvt = corners()[(index as usize + i) % 3];
        jobs.push(Job::Submit(Request::RunFlow { design, pvt }));
    }
    for pvt in corners() {
        let clock = Hertz::from_ghz(rng.uniform(0.4, 0.6));
        jobs.push(Job::Submit(Request::Sta {
            design: DESIGNS[4],
            pvt,
            clock,
        }));
    }
    for i in 0..2 {
        let design = DESIGNS[(2 * index as usize + i) % DESIGNS.len()];
        jobs.push(Job::Submit(Request::Lint { design }));
    }
    rng.shuffle(&mut jobs);
    jobs
}

// One short-lived value per job: the size difference is harmless.
#[allow(clippy::large_enum_variant)]
enum Outcome {
    Analog(AnalogFrameReport),
    Response(Response),
}

fn execute(sessions: &mut [Session; 2], job: &Job) -> Result<Outcome, String> {
    match job {
        Job::Analog { corner, frame } => sessions[*corner]
            .run_analog_link(*frame)
            .map(Outcome::Analog),
        Job::Submit(request) => sessions[0].submit(request).map(Outcome::Response),
    }
    .map_err(|e| e.to_string())
}

fn check(outcome: &Outcome) -> Vec<String> {
    let mut problems = Vec::new();
    match outcome {
        Outcome::Analog(r) => {
            let ber = r.bit_errors as f64 / r.bits.max(1) as f64;
            expect(
                &mut problems,
                r.bits > 0 && (0.0..=0.5).contains(&ber),
                || format!("analog BER {ber} over {} bits", r.bits),
            );
        }
        Outcome::Response(Response::Flow(f)) => {
            expect(&mut problems, f.cells > 0 && f.fmax_ghz > 0.0, || {
                format!("flow {}: {} cells, fmax {}", f.design, f.cells, f.fmax_ghz)
            });
            expect(&mut problems, f.wns_ps.is_finite(), || "flow wns".into());
        }
        Outcome::Response(Response::Sta(s)) => {
            expect(
                &mut problems,
                s.endpoints > 0 && s.fmax_ghz > 0.0 && s.wns_ps.is_finite(),
                || format!("sta: {} endpoints, fmax {}", s.endpoints, s.fmax_ghz),
            );
        }
        Outcome::Response(Response::Lint(l)) => {
            expect(&mut problems, l.errors == 0, || {
                format!("{} lint errors on a shipped design", l.errors)
            });
        }
        Outcome::Response(other) => problems.push(format!("unexpected response {other:?}")),
    }
    problems
}

fn digest_and_count(report: &mut Report, outcome: &Outcome) {
    match outcome {
        Outcome::Analog(r) => {
            let s = &r.run.solver_stats;
            let mut bytes = format!(
                "analog {} {} {} {} {} {} {} {}",
                r.bit_errors,
                r.bits,
                s.newton_iterations,
                s.factorizations,
                s.factorization_reuses,
                s.steps_taken,
                s.steps_rejected,
                s.recovery_attempts
            )
            .into_bytes();
            for v in r.run.rx.restored.samples() {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            report.digest.update(&bytes);
            count_solver(report, s);
            report.count("analog.bit_errors", r.bit_errors);
            report.count("analog.compared_bits", r.bits);
        }
        Outcome::Response(response) => {
            report
                .digest
                .update(response.to_canonical_json().as_bytes());
            match response {
                Response::Flow(f) => {
                    report.count("flow.cells", f.cells as u64);
                    report.count("flow.flops", f.flops as u64);
                    report.count("flow.nets", f.nets as u64);
                    report.count("flow.violations", f.violations as u64);
                }
                Response::Sta(s) => {
                    report.count("sta.endpoints", s.endpoints as u64);
                    report.count("sta.violations", s.violations as u64);
                }
                Response::Lint(l) => {
                    report.count("lint.findings", l.findings.len() as u64);
                }
                _ => {}
            }
        }
    }
}

fn count_solver(report: &mut Report, s: &SolverStats) {
    report.count("analog.solver.newton_iterations", s.newton_iterations);
    report.count("analog.solver.factorizations", s.factorizations);
    report.count("analog.solver.factorization_reuses", s.factorization_reuses);
    report.count("analog.solver.steps_taken", s.steps_taken);
    report.count("analog.solver.steps_rejected", s.steps_rejected);
    report.count("analog.solver.recovery_attempts", s.recovery_attempts);
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed);
    let passes = args.seconds * PASSES_PER_SECOND;
    let jobs: Vec<Job> = (0..passes).flat_map(|i| pass(&mut rng, i)).collect();

    // Set-up: one session per analog corner, the standard-cell library
    // at every corner, and one analog frame as the warm-up job.
    let warm_up = rng.prbs_frames(1)[0];
    let (mut sessions, setup_s) = median_setup(|| {
        let mut sessions = [
            Session::new().with_seed(args.seed),
            Session::new()
                .with_seed(args.seed)
                .with_corner(Pvt::worst_case()),
        ];
        for pvt in corners() {
            std::hint::black_box(Library::sky130(pvt));
        }
        sessions[0]
            .run_analog_link(warm_up)
            .map_err(|e| e.to_string())?;
        Ok(sessions)
    })?;
    report.set("setup_s", setup_s, "s");

    let per_pass = jobs.len() / passes as usize;
    let run = run_passes(&jobs, per_pass, |job| execute(&mut sessions, job));
    let mut latencies = Latencies::default();
    let (mut analog_ui, mut analog_ms, mut cells, mut flow_ms) = (0u64, 0.0, 0u64, 0.0);
    for (job, (result, timing)) in jobs.iter().zip(&run.results) {
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                report.outcome(job.tag(), vec![e.clone()]);
                continue;
            }
        };
        latencies.push(job.tag(), *timing);
        match outcome {
            Outcome::Analog(_) => {
                analog_ui += FRAME_BITS as u64;
                analog_ms += timing.ms;
            }
            Outcome::Response(Response::Flow(f)) => {
                cells += f.cells as u64;
                flow_ms += timing.ms;
            }
            _ => {}
        }
        report.outcome(job.tag(), check(outcome));
        report.count(&format!("jobs.{}", job.tag()), 1);
        digest_and_count(&mut report, outcome);
    }
    latencies.finish(&mut report, &run);
    report.set(
        "analog_ui_per_s",
        analog_ui as f64 / (analog_ms / 1e3),
        "1/s",
    );
    report.set("flow_cells_per_s", cells as f64 / (flow_ms / 1e3), "1/s");

    if args.trace {
        trace(&mut report, &mut sessions, &jobs, per_pass)?;
    }
    Ok(report)
}

/// Layer timings of one replayed job: `(metric, ms)` pairs.
type Parts = Vec<(&'static str, f64)>;

/// Replays the first quarter of the passes as timed calls into each
/// layer's public functions, after timing each job as one call.
fn trace(
    report: &mut Report,
    sessions: &mut [Session; 2],
    jobs: &[Job],
    per_pass: usize,
) -> Result<(), String> {
    let passes = jobs.len() / per_pass;
    let mut trace = Trace::default();
    let mut solver = SolverStats::default();
    let (mut moves, mut accepted) = (0u64, 0u64);
    for (i, job) in jobs[..per_pass * passes.div_ceil(4)].iter().enumerate() {
        if over_budget().is_some() {
            break;
        }
        if i % per_pass == 0 {
            trace.pass();
        }
        let (outcome, job_ms) = timed(|| execute(sessions, job));
        let outcome = outcome?;
        let mut problems = Vec::new();
        let ((parts, anneal), walls) = replay_both(i % 2 == 0, |timed_calls| {
            replay_job(sessions, job, &outcome, timed_calls, &mut problems)
        })?;
        trace.job(job.tag(), job_ms, &parts, walls);
        if let Some(a) = anneal {
            moves += a.attempted as u64;
            accepted += a.accepted as u64;
        }
        if let Outcome::Analog(r) = &outcome {
            solver.merge(&r.run.solver_stats);
        }
        report.outcome(&format!("replay of {}", job.tag()), problems);
    }
    trace.finish(report, |kind| match kind {
        "analog_link" => "core.link.analog_residual_ms",
        "run_flow" => "flow.residual_ms",
        "sta" => "flow.sta.residual_ms",
        _ => "lint.residual_ms",
    });
    let f = |v: u64| v as f64;
    for (name, v) in [
        ("newton_iterations", solver.newton_iterations),
        ("factorizations", solver.factorizations),
        ("factorization_reuses", solver.factorization_reuses),
        ("steps_taken", solver.steps_taken),
        ("steps_rejected", solver.steps_rejected),
        ("recovery_attempts", solver.recovery_attempts),
    ] {
        report.set(&format!("analog.solver.{name}"), f(v), "count");
    }
    let reuse =
        f(solver.factorization_reuses) / f(solver.factorizations + solver.factorization_reuses);
    let reject = f(solver.steps_rejected) / f(solver.steps_taken + solver.steps_rejected);
    report.set("analog.solver.reuse_ratio", reuse, "ratio");
    report.set("analog.solver.reject_ratio", reject, "ratio");
    report.set("flow.place.anneal_moves", f(moves), "count");
    report.set("flow.place.accept_ratio", f(accepted) / f(moves), "ratio");
    report.count("flow.place.anneal_moves", moves);
    report.count("flow.place.anneal_accepted", accepted);
    Ok(())
}

/// Replays one job as the public layer calls its engine makes and
/// cross-checks the replay's work against the job's result.
fn replay_job(
    sessions: &[Session; 2],
    job: &Job,
    outcome: &Outcome,
    timed_calls: bool,
    problems: &mut Vec<String>,
) -> Result<(Parts, Option<AnnealStats>), String> {
    let mut parts = Parts::new();
    let mut anneal = None;
    let p = &mut parts;
    let t = timed_calls;
    let err = |e: &dyn std::fmt::Display| e.to_string();
    match (job, outcome) {
        (Job::Analog { corner, frame }, Outcome::Analog(r)) => {
            // `link::run_frame_analog`: driver → channel → front end;
            // slicing, CDR recovery and scoring stay in the residual.
            let config = sessions[*corner].link_config();
            let analog = AnalogLink::paper_default(config.pvt, config.channel.clone());
            let bits = frame_to_bits(frame);
            let ui = Time::new(1.0 / config.data_rate.value());
            let tx = call(p, t, "phy.driver.drive_ms", || {
                analog.driver.drive(&bits, ui)
            })
            .map_err(|e| err(&e))?;
            let channel_out = call(p, t, "phy.channel.apply_ms", || {
                analog.channel.apply(&tx.output)
            });
            let rx = call(p, t, "phy.frontend.receive_ms", || {
                analog.frontend.receive(&channel_out)
            })
            .map_err(|e| err(&e))?;
            let mut stats = tx.stats;
            stats.merge(&rx.stats);
            let job = &r.run.solver_stats;
            expect(
                problems,
                (stats.newton_iterations, stats.steps_taken)
                    == (job.newton_iterations, job.steps_taken),
                || "analog replay solver work differs from the job".into(),
            );
        }
        (Job::Submit(Request::RunFlow { design, pvt }), Outcome::Response(Response::Flow(s))) => {
            anneal = Some(replay_flow(p, t, *design, *pvt, s, problems)?);
        }
        (Job::Submit(Request::Sta { design, pvt, clock }), Outcome::Response(Response::Sta(s))) => {
            replay_sta(p, t, *design, *pvt, *clock, s, problems)?;
        }
        (Job::Submit(Request::Lint { design }), Outcome::Response(Response::Lint(l))) => {
            let built = design.build();
            let lint = call(p, t, "lint.ir_ms", || built.lint(&LintConfig::default()));
            expect(problems, lint.findings().len() == l.findings.len(), || {
                "lint replay findings differ from the job".into()
            });
        }
        _ => return Err(format!("{}: unexpected outcome", job.tag())),
    }
    Ok((parts, anneal))
}

/// `Flow::run` as its public stage calls. CTS, floorplan, netlist stats
/// and the timing half of the lint gate stay in the residual.
fn replay_flow(
    p: &mut Parts,
    t: bool,
    design: DesignSpec,
    pvt: Pvt,
    summary: &FlowSummary,
    problems: &mut Vec<String>,
) -> Result<AnnealStats, String> {
    let config = FlowConfig {
        pvt,
        ..FlowConfig::default()
    };
    let built = design.build();
    let library = call(p, t, "pdk.library.sky130_ms", || Library::sky130(pvt));
    call(p, t, "lint.ir_ms", || built.lint(&config.lint));
    let mut synth = call(p, t, "flow.synth.synthesize_ms", || {
        synthesize(&built, &library)
    })
    .map_err(|e| e.to_string())?;
    let mut sta_cfg = StaConfig::at_clock(config.clock);
    sta_cfg.multicycle = synth.multicycle.clone();
    call(p, t, "flow.flow.optimize_timing_ms", || {
        optimize_timing(&mut synth.netlist, &library, &sta_cfg)
    });
    let stats = NetlistStats::compute(&synth.netlist, &library);
    call(p, t, "lint.netlist_ms", || {
        synth.netlist.lint_with_library(&library, &config.lint)
    });
    let floorplan = Floorplan::for_area(stats.area, config.utilization, config.aspect);
    let mut placement = call(p, t, "flow.place.greedy_ms", || {
        place_greedy(&synth.netlist, &library, &floorplan)
    });
    let anneal_stats = call(p, t, "flow.place.anneal_ms", || {
        anneal(
            &synth.netlist,
            &mut placement,
            config.seed,
            config.anneal_iterations,
        )
    });
    let route = call(p, t, "flow.route.global_route_ms", || {
        global_route(&synth.netlist, &placement)
    });
    let timing = call(p, t, "flow.sta.run_ms", || {
        Sta::new()
            .with_config(sta_cfg.clone())
            .run(&synth.netlist, &library, Some(&route))
    })
    .map_err(|e| e.to_string())?;
    let mut pcfg = PowerConfig::at_clock(config.clock);
    pcfg.activity = config.activity;
    call(p, t, "flow.power.analyze_ms", || {
        analyze_power(&synth.netlist, &library, Some(&route), &pcfg)
    });
    if t {
        let wns_ps = timing.wns.value() * 1e12;
        expect(
            problems,
            stats.cell_count == summary.cells && wns_ps == summary.wns_ps,
            || {
                format!(
                    "flow replay: {} cells, wns {wns_ps} ps; job: {} cells, wns {} ps",
                    stats.cell_count, summary.cells, summary.wns_ps
                )
            },
        );
    }
    Ok(anneal_stats)
}

/// The Sta job as its public calls: library, synthesis, timing.
fn replay_sta(
    p: &mut Parts,
    t: bool,
    design: DesignSpec,
    pvt: Pvt,
    clock: Hertz,
    summary: &StaSummary,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let built = design.build();
    let library = call(p, t, "pdk.library.sky130_ms", || Library::sky130(pvt));
    let synth = call(p, t, "flow.synth.synthesize_ms", || {
        synthesize(&built, &library)
    })
    .map_err(|e| e.to_string())?;
    let mut cfg = StaConfig::at_clock(clock);
    cfg.multicycle = synth.multicycle.clone();
    let report = call(p, t, "flow.sta.run_ms", || {
        Sta::new()
            .with_config(cfg)
            .run(&synth.netlist, &library, None)
    })
    .map_err(|e| e.to_string())?;
    let wns_ps = report.wns.value() * 1e12;
    expect(
        problems,
        report.endpoints.len() == summary.endpoints && wns_ps == summary.wns_ps,
        || "sta replay differs from the job".into(),
    );
    Ok(())
}
