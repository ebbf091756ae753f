//! The telemetry layer's central promise: parallel sweeps aggregate
//! *identically* for any worker count. Counters and histograms are
//! integer sums absorbed in input-index order, and span trees fold by
//! name, so everything except wall times is bit-identical whether a
//! sweep ran on 1 worker or 8 — [`Record::deterministic_digest`] is
//! that invariant as a comparable string.

use openserdes::core::{oversample_bits_packed, LinkConfig, PrbsGenerator, PrbsOrder, Sweep};
use openserdes::phy::ChannelModel;
use openserdes::telemetry;
use std::sync::{Mutex, MutexGuard};

/// Recording is switched on and off process-wide, so the tests in this
/// file take turns.
fn recording() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn sweep_telemetry_is_worker_count_invariant() {
    let _turn = recording();
    let cfg = LinkConfig::paper_default();
    telemetry::set_enabled(true);
    let run_at = |threads: usize| {
        let sweep = Sweep::new()
            .with_bits(2_000)
            .with_phases(8)
            .with_frames(4)
            .with_tolerance_db(1.0)
            .with_seed(5)
            .with_threads(threads);
        let (results, rec) = telemetry::collect(|| {
            let curve = sweep.bathtub(&cfg).expect("bathtub");
            let corners = sweep.corner_sweep(&cfg).expect("corners");
            (curve, corners)
        });
        (results, rec)
    };

    let ((curve1, corners1), rec1) = run_at(1);
    let digest1 = rec1.deterministic_digest();

    // The record is non-trivial: every phase and corner left a mark.
    assert_eq!(rec1.counter("sweep.eye_phases"), 8);
    assert_eq!(rec1.counter("sweep.corner_points"), 3);
    assert!(rec1.counter("sweep.bisect_probes") > 0);
    assert!(rec1.span("sweep.bathtub").is_some());
    // The corner sweep's bias pre-pass runs through the batched
    // multi-point engine: one lockstep point per corner, none retired.
    assert_eq!(rec1.counter("analog.batched_points"), 3);
    assert_eq!(rec1.counter("analog.batch_retirements"), 0);
    assert!(rec1.counter("analog.batched_factorizations") > 0);
    assert!(
        rec1.span("sweep.corner_sweep")
            .and_then(|s| s.child("analog.batched_dc"))
            .is_some(),
        "the batched DC span must nest under the corner sweep"
    );
    assert!(
        rec1.histogram("sweep.phase_errors")
            .is_some_and(|h| h.count() == 8),
        "one phase-error sample per bathtub phase"
    );
    // Which path ran is part of the digest: the bisection probes'
    // oversampler takes the word path and computes some jitter, and
    // only the two phases next to the UI edges take the exact bathtub
    // path.
    assert!(rec1.counter("cdr.jitter_evals") > 0);
    assert_eq!(rec1.counter("cdr.oversample_exact_fallbacks"), 0);
    assert_eq!(rec1.counter("sweep.bathtub_exact_phases"), 2);

    for threads in [2usize, 4, 8] {
        let ((curve, corners), rec) = run_at(threads);
        assert_eq!(curve, curve1, "results diverge at {threads} workers");
        assert_eq!(corners, corners1, "corners diverge at {threads} workers");
        assert_eq!(
            rec.deterministic_digest(),
            digest1,
            "telemetry digest diverges at {threads} workers"
        );
    }
    telemetry::set_enabled(false);
}

/// At the paper point (2 Gb/s over 20 dB) the jitter reach is a few
/// hundredths of a UI, so most bathtub phases sit clear of the blurred
/// edges and take the safe path, and the link's oversampler evaluates
/// Box–Muller only on transition edges whose jitter sign alone does not
/// settle the sample.
#[test]
fn paper_point_takes_the_fast_paths() {
    let _turn = recording();
    let mut cfg = LinkConfig::paper_default();
    cfg.channel = ChannelModel::lossy(20.0);
    telemetry::set_enabled(true);
    let (curve, rec) = telemetry::collect(|| {
        Sweep::new()
            .with_bits(2_000)
            .with_threads(1)
            .bathtub(&cfg)
            .expect("bathtub")
    });
    assert_eq!(curve.len(), 32);
    assert_eq!(rec.counter("sweep.eye_phases"), 32);
    let exact = rec.counter("sweep.bathtub_exact_phases");
    assert!(exact <= 8, "{exact} of 32 phases took the exact path");

    let bits = PrbsGenerator::new(PrbsOrder::Prbs31).take_bitvec(4_000);
    let (_, rec) = telemetry::collect(|| oversample_bits_packed(&bits, 5, 0.3, 0.003, 9));
    let (_, far) = telemetry::collect(|| oversample_bits_packed(&bits, 64, 0.3, 0.5, 9));
    telemetry::set_enabled(false);
    let transitions = (1..bits.len())
        .filter(|&e| bits.get(e - 1) != bits.get(e))
        .count() as u64;
    assert_eq!(rec.counter("cdr.oversample_exact_fallbacks"), 0);
    let evals = rec.counter("cdr.jitter_evals");
    assert!(
        evals > 0 && evals < transitions,
        "{evals} evaluations for {transitions} transitions"
    );
    // Past the reach cut-off the exact loop runs and evaluates every
    // edge.
    assert_eq!(far.counter("cdr.oversample_exact_fallbacks"), 1);
    assert_eq!(far.counter("cdr.jitter_evals"), bits.len() as u64 + 1);
}
