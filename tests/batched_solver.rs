//! Contract of the batched multi-point lockstep solver (DESIGN.md §16):
//! on random circuits and batch compositions, `run_transient_batched`
//! in `Fixed` mode must be **bit-identical per point** to a one-point
//! solve of that point's materialized circuit — including batches where
//! some points retire into the one-point recovery ladder — and in
//! `Adaptive` mode must track the one-point adaptive run within a
//! small multiple of `lte_tol`. The batched `dc_sweep_with_threads` must
//! return the same output at every thread count.

use openserdes::analog::primitives::{add_inverter_chain, InverterSize};
use openserdes::analog::solver::{dc_sweep_with_threads, Solver, TransientConfig};
use openserdes::analog::{Circuit, Element, Node, PointOverride, Stimulus, Waveform};
use openserdes::pdk::corner::Pvt;
use proptest::prelude::*;

/// The batch sizes the contract is exercised at: degenerate (1), tiny,
/// odd (not a lane multiple) and large.
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 32];

const LTE_TOL: f64 = 1.0e-3;

fn pattern(mask: u8, n: usize) -> Vec<bool> {
    (0..n).map(|i| mask >> i & 1 == 1).collect()
}

/// A single-pole RC low-pass driven by an NRZ source. Stimulus-only
/// overrides (per-point swing) keep the topology uniform and linear —
/// the shared-LU lockstep fast path.
fn rc_fixture(r_ohms: f64, c_farads: f64, mask: u8) -> (Circuit, Vec<Node>, f64, f64) {
    let bits = pattern(mask, 4);
    let ui = 200e-12;
    let input = Waveform::nrz(&bits, ui, ui / 10.0, 0.0, 1.8, 32);
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let vout = c.node("vout");
    c.vsource(vin, Stimulus::Wave(input));
    c.resistor(vin, vout, r_ohms);
    c.capacitor(vout, c.gnd(), c_farads);
    let t_end = (bits.len() + 1) as f64 * ui;
    (c, vec![vin, vout], t_end, 2e-12)
}

/// Per-point swings for the RC fixture: override source 0 with a
/// rescaled copy of the NRZ drive.
fn rc_points(mask: u8, np: usize) -> Vec<PointOverride> {
    let bits = pattern(mask, 4);
    let ui = 200e-12;
    (0..np)
        .map(|p| {
            let swing = 0.6 + 0.05 * p as f64;
            let wave = Waveform::nrz(&bits, ui, ui / 10.0, 0.0, swing, 32);
            PointOverride::new().with_source(0, Stimulus::Wave(wave))
        })
        .collect()
}

/// A two-stage inverter chain into a load cap. Element overrides
/// (per-point load) force the per-point-LU lockstep path through the
/// nonlinear MOS stamps.
fn chain_fixture(mask: u8, scale: f64) -> (Circuit, Vec<Node>, usize, f64, f64) {
    let pvt = Pvt::nominal();
    let bits = pattern(mask, 4);
    let ui = 200e-12;
    let input = Waveform::nrz(&bits, ui, ui / 10.0, 0.0, pvt.vdd.value(), 32);
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("vin");
    c.vsource(vdd, Stimulus::Dc(pvt.vdd.value()));
    c.vsource(vin, Stimulus::Wave(input));
    let sizes = [
        InverterSize::scaled(scale),
        InverterSize::scaled(scale * 3.0),
    ];
    let outs = add_inverter_chain(&mut c, &pvt, &sizes, vin, vdd);
    let out = *outs.last().expect("stages");
    c.capacitor(out, c.gnd(), 50e-15);
    let load_index = c.elements().len() - 1;
    let t_end = (bits.len() + 1) as f64 * ui;
    (c, vec![vin, out], load_index, t_end, 2e-12)
}

fn chain_points(base: &Circuit, load_index: usize, out: Node, np: usize) -> Vec<PointOverride> {
    (0..np)
        .map(|p| {
            PointOverride::new().with_element(
                load_index,
                Element::Capacitor {
                    a: out,
                    b: base.gnd(),
                    farads: (20.0 + 15.0 * p as f64) * 1e-15,
                },
            )
        })
        .collect()
}

/// Asserts every batched point's waveforms match a one-point
/// `run_transient` of the materialized circuit bit for bit at `nodes`.
fn assert_batched_bit_identical(
    base: &Circuit,
    points: &[PointOverride],
    cfg: &TransientConfig,
    nodes: &[Node],
) {
    let mut solver = Solver::new(base);
    let batched = solver.run_transient_batched(points, cfg);
    assert_eq!(batched.results().len(), points.len());
    assert_eq!(batched.stats().batched_points, points.len() as u64);
    for (p, (ov, got)) in points.iter().zip(batched.results()).enumerate() {
        let pc = ov.circuit_for_point(base);
        let want = Solver::new(&pc).run_transient(cfg);
        match (got, &want) {
            (Ok(got), Ok(want)) => {
                for &node in nodes {
                    let g = got.waveform(node).samples();
                    let w = want.waveform(node).samples();
                    assert_eq!(g.len(), w.len(), "point {p}: sample count");
                    for (i, (a, b)) in g.iter().zip(w).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "point {p}, node {node}, sample {i}: {a:e} vs {b:e}"
                        );
                    }
                }
            }
            (Err(ge), Err(we)) => {
                assert_eq!(ge.to_string(), we.to_string(), "point {p}: error mismatch")
            }
            (g, w) => panic!("point {p}: outcome mismatch: {g:?} vs {w:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shared-LU path: uniform linear batches are bit-identical to
    /// one-point solves at every batch size.
    #[test]
    fn fixed_batched_rc_bit_identical(
        r in 100.0f64..10_000.0,
        cap_ff in 100.0f64..5_000.0,
        mask in any::<u8>(),
        bs_idx in 0usize..4,
    ) {
        let np = BATCH_SIZES[bs_idx];
        let (c, nodes, t_end, dt) = rc_fixture(r, cap_ff * 1e-15, mask);
        let cfg = TransientConfig::until(t_end).with_fixed_dt(dt);
        assert_batched_bit_identical(&c, &rc_points(mask, np), &cfg, &nodes);
    }

    /// Per-point-LU path: element-overridden nonlinear batches are
    /// bit-identical to one-point solves at every batch size.
    #[test]
    fn fixed_batched_chain_bit_identical(
        mask in any::<u8>(),
        scale in 1.0f64..6.0,
        bs_idx in 0usize..4,
    ) {
        let np = BATCH_SIZES[bs_idx].min(7); // MOS batches are pricey; cap the sweep
        let (c, nodes, load_index, t_end, dt) = chain_fixture(mask, scale);
        let cfg = TransientConfig::until(t_end).with_fixed_dt(dt);
        let points = chain_points(&c, load_index, nodes[1], np);
        assert_batched_bit_identical(&c, &points, &cfg, &nodes);
    }

    /// Adaptive lockstep shares one step controller, so it is not
    /// bit-identical — but every point must stay within a small
    /// multiple of `lte_tol` of its own sequential adaptive solve.
    #[test]
    fn adaptive_batched_tracks_sequential(
        r in 100.0f64..10_000.0,
        cap_ff in 100.0f64..5_000.0,
        mask in any::<u8>(),
        bs_idx in 0usize..4,
    ) {
        let np = BATCH_SIZES[bs_idx];
        let (c, nodes, t_end, dt) = rc_fixture(r, cap_ff * 1e-15, mask);
        let cfg = TransientConfig::until(t_end).with_adaptive_steps(dt, 64.0 * dt, LTE_TOL);
        let points = rc_points(mask, np);
        let mut solver = Solver::new(&c);
        let batched = solver.run_transient_batched(&points, &cfg);
        // Compare solved nodes only: the emitted waveform at a *source*
        // node lerps the stimulus across accepted steps, so two runs on
        // different step grids smear NRZ edges differently — a grid
        // artifact, not solver error.
        let vout = nodes[1];
        for (p, (ov, got)) in points.iter().zip(batched.results()).enumerate() {
            let got = got.as_ref().expect("batched adaptive converges");
            let pc = ov.circuit_for_point(&c);
            let want = Solver::new(&pc).run_transient(&cfg).expect("sequential converges");
            let dev = got.waveform(vout).max_abs_diff(want.waveform(vout));
            prop_assert!(
                dev <= 10.0 * LTE_TOL,
                "point {p}, node {vout}: adaptive deviation {dev:.2e} V"
            );
        }
    }
}

/// A batch where some points retire into the recovery ladder and others
/// don't: a starved Newton budget makes the sharp-edged points fail
/// their lockstep steps while the DC-driven points never break a sweat.
/// Every point — retired or not — must still match its sequential solve
/// bit for bit, and the retirements must be counted.
#[test]
fn mixed_recovery_batch_stays_bit_identical() {
    let (c, nodes, _load_index, t_end, dt) = chain_fixture(0b0101, 2.0);
    let vdd_v = Pvt::nominal().vdd.value();
    // Sharp edges (fast NRZ) vs flat drives: with max_newton = 2 the
    // former blow the lockstep budget at the edges, the latter do not.
    let sharp = Waveform::nrz(&[true, false, true, false], 200e-12, 5e-12, 0.0, vdd_v, 32);
    let points = vec![
        PointOverride::new().with_source_dc(1, 0.0),
        PointOverride::new().with_source(1, Stimulus::Wave(sharp.clone())),
        PointOverride::new().with_source_dc(1, vdd_v),
        PointOverride::new().with_source(1, Stimulus::Wave(sharp)),
    ];
    let cfg = TransientConfig::until(t_end)
        .with_fixed_dt(dt)
        .with_max_newton(2);
    let mut solver = Solver::new(&c);
    let batched = solver.run_transient_batched(&points, &cfg);
    assert!(
        batched.stats().batch_retirements > 0,
        "expected the sharp-edged points to retire (stats: {:?})",
        batched.stats()
    );
    assert_batched_bit_identical(&c, &points, &cfg, &nodes);
}

/// The identity override on an empty batch and a one-point batch both
/// behave: no points, no stats; one point, the base circuit's solution.
#[test]
fn empty_and_identity_batches() {
    let (c, nodes, t_end, dt) = rc_fixture(1e3, 1e-12, 0b0011);
    let cfg = TransientConfig::until(t_end).with_fixed_dt(dt);
    let mut solver = Solver::new(&c);
    let empty = solver.run_transient_batched(&[], &cfg);
    assert!(empty.results().is_empty());
    assert_eq!(empty.stats().batched_points, 0);
    let ov = PointOverride::new();
    assert!(ov.is_identity());
    assert_batched_bit_identical(&c, &[ov], &cfg, &nodes);
}

/// `PointOverride::diff` recovers value-only deltas and rejects
/// topology changes.
#[test]
fn point_override_diff_roundtrip() {
    let (base, _nodes, load_index, _t_end, _dt) = chain_fixture(0b0101, 2.0);
    let mut variant = base.clone();
    variant.set_element(
        load_index,
        match base.elements()[load_index] {
            Element::Capacitor { a, b, .. } => Element::Capacitor {
                a,
                b,
                farads: 123e-15,
            },
            _ => unreachable!("load is a capacitor"),
        },
    );
    variant.set_source_stimulus(0, Stimulus::Dc(1.65));
    let ov = PointOverride::diff(&base, &variant).expect("same topology");
    assert!(!ov.is_identity());
    let rebuilt = ov.circuit_for_point(&base);
    assert_eq!(rebuilt.elements(), variant.elements());
    // A structurally different circuit has no override.
    let mut other = base.clone();
    other.capacitor(other.gnd(), other.gnd(), 1e-15);
    assert!(PointOverride::diff(&base, &other).is_none());
}

/// `dc_sweep_with_threads` must return exactly its one-worker output,
/// bit for bit, at every worker count: the batch boundaries do not
/// depend on the worker count.
#[test]
fn dc_sweep_shim_matches_batched_engine_exactly() {
    let pvt = Pvt::nominal();
    let vdd_v = pvt.vdd.value();
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("vin");
    c.vsource(vdd, Stimulus::Dc(vdd_v));
    c.vsource(vin, Stimulus::Dc(0.0));
    let sizes = [InverterSize::unit(), InverterSize::scaled(2.0)];
    let outs = add_inverter_chain(&mut c, &pvt, &sizes, vin, vdd);
    c.capacitor(*outs.last().expect("stages"), c.gnd(), 10e-15);
    // 70 points spans three 32-point batches unevenly.
    let xs: Vec<f64> = (0..70).map(|i| vdd_v * i as f64 / 69.0).collect();
    let want = dc_sweep_with_threads(&c, 1, &xs, 1).expect("one-worker sweep");
    for threads in [2usize, 4, 8] {
        let got = dc_sweep_with_threads(&c, 1, &xs, threads).expect("threaded sweep");
        assert_eq!(got.len(), want.len());
        for (i, (gp, wp)) in got.iter().zip(want.iter()).enumerate() {
            for (j, (a, b)) in gp.iter().zip(wp).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "threads={threads}, point {i}, node {j}: {a:e} vs {b:e}"
                );
            }
        }
    }
}
