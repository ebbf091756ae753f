//! The Session API contract: every deprecated entry point and its
//! [`Session`]/builder replacement drive the *same engine*, so the
//! outputs agree exactly — migration changes spelling, never results.

#![allow(deprecated)]

use openserdes::core::link::SerdesLink;
use openserdes::core::sweep::{bathtub, max_loss_bisect, sensitivity_sweep};
use openserdes::core::{cdr_design, LinkConfig, PrbsGenerator, PrbsOrder, Sweep, LANES};
use openserdes::flow::{run_flow, FlowConfig};
use openserdes::pdk::corner::Pvt;
use openserdes::pdk::units::Hertz;
use openserdes::Session;

fn prbs_frames(count: usize) -> Vec<[u32; LANES]> {
    let mut g = PrbsGenerator::new(PrbsOrder::Prbs31);
    (0..count)
        .map(|_| {
            let mut f = [0u32; LANES];
            for w in f.iter_mut() {
                for b in 0..32 {
                    if g.next_bit() {
                        *w |= 1 << b;
                    }
                }
            }
            f
        })
        .collect()
}

#[test]
fn link_reports_are_identical() {
    let frames = prbs_frames(6);
    let old = SerdesLink::new(LinkConfig::paper_default())
        .run_frames(&frames, 17)
        .expect("old API runs");
    let new = Session::new()
        .with_seed(17)
        .run_link(&frames)
        .expect("session runs");
    assert_eq!(old, new, "Session must reproduce the deprecated output");
}

#[test]
fn flow_results_are_identical() {
    let mut cfg = FlowConfig::at_clock(Hertz::from_ghz(1.0));
    cfg.anneal_iterations = 1_000;
    let design = cdr_design(5);
    let old = run_flow(&design, &cfg).expect("old API runs");
    let new = Session::new()
        .with_flow_config(cfg)
        .run_flow(&design)
        .expect("session runs");
    assert_eq!(old.stats.cell_count, new.stats.cell_count);
    assert_eq!(old.stats.flop_count, new.stats.flop_count);
    assert_eq!(old.area().value().to_bits(), new.area().value().to_bits());
    assert_eq!(
        old.timing.fmax.value().to_bits(),
        new.timing.fmax.value().to_bits()
    );
    assert_eq!(
        old.total_power().value().to_bits(),
        new.total_power().value().to_bits()
    );
    assert_eq!(old.log, new.log, "stage logs must match line for line");
}

#[test]
fn lint_reports_are_identical() {
    let design = cdr_design(5);
    let old = openserdes::flow::lint::lint(&design, &openserdes::lint::LintConfig::default());
    let new = Session::new().lint(&design);
    assert_eq!(old.findings().len(), new.findings().len());
    for (a, b) in old.findings().iter().zip(new.findings()) {
        assert_eq!(a.rule, b.rule);
        assert_eq!(a.message, b.message);
    }
}

#[test]
fn sweeps_are_identical() {
    let cfg = LinkConfig::paper_default();

    // Bathtub: deprecated free function vs Sweep builder vs Session.
    let old = bathtub(&cfg, 2_000, 8, 5).expect("old bathtub");
    let via_builder = Sweep::new()
        .with_bits(2_000)
        .with_phases(8)
        .with_seed(5)
        .bathtub(&cfg)
        .expect("builder bathtub");
    assert_eq!(old, via_builder);
    let via_session = Session::new()
        .with_sweep(Sweep::new().with_bits(2_000).with_phases(8))
        .with_seed(5)
        .bathtub()
        .expect("session bathtub");
    assert_eq!(old, via_session);

    // Loss bisection.
    let old = max_loss_bisect(&cfg, 4, 1.0).expect("old bisect");
    let new = Session::new()
        .with_sweep(Sweep::new().with_frames(4).with_tolerance_db(1.0))
        .max_loss()
        .expect("session bisect");
    assert_eq!(old.to_bits(), new.to_bits());

    // Sensitivity sweep.
    let rates = [Hertz::from_ghz(1.0), Hertz::from_ghz(2.0)];
    let old = sensitivity_sweep(Pvt::nominal(), &rates).expect("old sweep");
    let new = Session::new()
        .sensitivity_sweep(&rates)
        .expect("session sweep");
    assert_eq!(old, new);
}
