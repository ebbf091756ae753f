//! Bit-level goldens of the analog engine's adaptive, recovery and
//! seeded-DC paths. No oracle covers these paths (the reference solver
//! is fixed-step and ladder-free), so each case pins an FNV-1a digest of
//! every waveform sample's bits plus every [`SolverStats`] counter
//! (wall-clock time excluded). A change to the Newton, LU-cache, step
//! control or recovery arithmetic moves a digest; a pure refactor of
//! the engine must leave all of them in place.

use openserdes::analog::primitives::{add_inverter, InverterSize};
use openserdes::analog::solver::{
    dc_operating_point_with_nodeset, dc_sweep, transient, TransientConfig,
};
use openserdes::analog::{Circuit, Node, SolverStats, Stimulus, Waveform};
use openserdes::core::{PrbsGenerator, PrbsOrder};
use openserdes::pdk::corner::Pvt;
use openserdes::pdk::units::Time;
use openserdes::phy::{AnalogLink, ChannelModel, FrontEndConfig, RxFrontEnd};

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn samples(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn wave(&mut self, w: &Waveform) {
        self.word(w.t0().to_bits());
        self.word(w.dt().to_bits());
        self.samples(w.samples());
    }

    /// Every counter except `total_time`.
    fn stats(&mut self, s: &SolverStats) {
        for x in [
            s.newton_iterations,
            s.residual_builds,
            s.jacobian_builds,
            s.factorizations,
            s.factorization_reuses,
            s.steps_taken,
            s.steps_rejected,
            s.recovery_attempts,
            s.recovered_gmin,
            s.recovered_source,
            s.recovered_dt_cut,
            s.batched_points,
            s.batch_retirements,
            s.batched_factorizations,
        ] {
            self.word(x);
        }
    }
}

fn assert_digest(case: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{case}: digest {got:#018x} (pinned {want:#018x})"
    );
}

fn prbs_bits(n: usize) -> Vec<bool> {
    let mut g = PrbsGenerator::new(PrbsOrder::Prbs7);
    (0..n).map(|_| g.next_bit()).collect()
}

/// One PRBS frame through the driver, channel and front end at `pvt`:
/// both adaptive transients, every stage waveform and both stats blocks.
fn link_frame_digest(pvt: Pvt) -> u64 {
    let link = AnalogLink::paper_default(pvt, ChannelModel::lossy(20.0));
    let run = link
        .transmit(&prbs_bits(64), Time::from_ps(500.0))
        .expect("frame converges");
    let mut h = Fnv::new();
    h.wave(&run.tx.input);
    h.wave(&run.tx.output);
    for w in &run.tx.stages {
        h.wave(w);
    }
    h.stats(&run.tx.stats);
    h.wave(&run.channel_out);
    h.wave(&run.rx.coupled);
    h.wave(&run.rx.amplified);
    h.wave(&run.rx.restored);
    h.stats(&run.rx.stats);
    h.0
}

#[test]
fn prbs_frame_at_tt_is_pinned() {
    assert_digest(
        "frame TT",
        link_frame_digest(Pvt::nominal()),
        0xf8e0_2a3c_cbb7_175f,
    );
}

#[test]
fn prbs_frame_at_ss_is_pinned() {
    assert_digest(
        "frame SS",
        link_frame_digest(Pvt::worst_case()),
        0x76b4_adac_8a06_15b8,
    );
}

fn inverter(c: &mut Circuit, vin: Node, vout: Node, vdd: Node) {
    add_inverter(c, &Pvt::nominal(), InverterSize::unit(), vin, vout, vdd);
}

/// An inverter driven by a sharp edge: with `max_newton = 2` the 0.4 V
/// damping cap cannot finish a full-swing step, so the solve enters the
/// recovery ladder at the edge.
fn starved_inverter() -> (Circuit, [Node; 3]) {
    let vdd_v = Pvt::nominal().vdd.value();
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("vin");
    let vout = c.node("vout");
    c.vsource(vdd, Stimulus::Dc(vdd_v));
    c.vsource(
        vin,
        Stimulus::Pwl(vec![
            (0.0, 0.0),
            (1e-9, 0.0),
            (1.05e-9, vdd_v),
            (3e-9, vdd_v),
        ]),
    );
    inverter(&mut c, vin, vout, vdd);
    c.capacitor(vout, c.gnd(), 10e-15);
    (c, [vdd, vin, vout])
}

fn starved_digest(cfg: &TransientConfig) -> u64 {
    let (c, nodes) = starved_inverter();
    let res = transient(&c, cfg).expect("recovered");
    assert!(res.stats().recovery_attempts > 0, "{:?}", res.stats());
    let mut h = Fnv::new();
    for node in nodes {
        h.wave(res.waveform(node));
    }
    h.stats(res.stats());
    h.0
}

#[test]
fn starved_adaptive_floor_step_recovery_is_pinned() {
    let cfg = TransientConfig::until(3e-9)
        .with_adaptive_steps(2e-12, 50e-12, 1e-3)
        .with_max_newton(2);
    assert_digest(
        "starved adaptive",
        starved_digest(&cfg),
        0x7d30_0af9_b10d_5ccf,
    );
}

#[test]
fn starved_fixed_step_recovery_is_pinned() {
    let cfg = TransientConfig::until(3e-9)
        .with_fixed_dt(2e-12)
        .with_max_newton(2);
    assert_digest("starved fixed", starved_digest(&cfg), 0x2475_60c0_382c_9861);
}

#[test]
fn nodeset_latch_is_pinned() {
    let vdd_v = Pvt::nominal().vdd.value();
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let a = c.node("a");
    let b = c.node("b");
    c.vsource(vdd, Stimulus::Dc(vdd_v));
    inverter(&mut c, a, b, vdd);
    inverter(&mut c, b, a, vdd);
    let mut h = Fnv::new();
    for seed in [[(a, 0.0), (b, vdd_v)], [(a, vdd_v), (b, 0.0)]] {
        let sol = dc_operating_point_with_nodeset(&c, &seed).expect("latches");
        h.samples(&sol);
        h.stats(sol.stats());
    }
    assert_digest("nodeset latch", h.0, 0x731e_81a7_171d_3c41);
}

#[test]
fn front_end_vtc_continuation_is_pinned() {
    let fe = RxFrontEnd::new(FrontEndConfig::paper_default(), Pvt::nominal());
    let mut h = Fnv::new();
    for (x, y) in fe.vtc(41).expect("sweeps") {
        h.word(x.to_bits());
        h.word(y.to_bits());
    }
    // The same continuation through `dc_sweep` directly, with its stats.
    let vdd_v = Pvt::nominal().vdd.value();
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("vin");
    let vout = c.node("vout");
    c.vsource(vdd, Stimulus::Dc(vdd_v));
    c.vsource(vin, Stimulus::Dc(0.0));
    inverter(&mut c, vin, vout, vdd);
    let xs: Vec<f64> = (0..=36).map(|i| f64::from(i) * 0.05).collect();
    let sweep = dc_sweep(&c, 1, &xs).expect("sweeps");
    for v in sweep.iter() {
        h.samples(v);
    }
    h.stats(sweep.stats());
    assert_digest("vtc continuation", h.0, 0x6125_21ed_7405_4f6d);
}

#[test]
fn front_end_self_bias_batched_is_pinned() {
    let fes: Vec<RxFrontEnd> = [Pvt::nominal(), Pvt::worst_case(), Pvt::best_case()]
        .into_iter()
        .map(|pvt| RxFrontEnd::new(FrontEndConfig::paper_default(), pvt))
        .collect();
    let mut h = Fnv::new();
    for v in RxFrontEnd::self_bias_batched(&fes).expect("biases") {
        h.word(v.value().to_bits());
    }
    assert_digest("self-bias batched", h.0, 0xc03f_f4ae_0dea_4e0c);
}
