//! Parallel sweep engine behind the [`Sweep`](super::Sweep) methods.
//!
//! Monte-Carlo sweeps — bathtub phases, bisection probes, data-rate
//! points, PVT corners — are embarrassingly parallel *if* every work
//! item owns its randomness. The engine here guarantees that:
//!
//! * every item derives its own RNG stream from the caller's seed and
//!   the item index alone ([`derive_seed`]), and
//! * results come back in input order, regardless of which worker
//!   finished first.
//!
//! Consequently every sweep is **bit-identical** at any worker count
//! for the same seed — parallelism changes wall time, never results.
//! The loss bisection keeps that promise for an inherently sequential
//! loop by *speculating* ([`bisect_speculative`]): it evaluates the
//! whole midpoint tree the bisection could visit next and then walks
//! it, so the bracket sequence is exactly the one-worker one.
//!
//! Built on `std::thread::scope` — no runtime dependency.
//!
//! The generic primitives (order-preserving map, speculative bisection)
//! live in [`openserdes_analog::par`] so the analog sweeps share the
//! same engine; this module re-exports them and keeps the link-level
//! sweep wrappers.

use super::{SweepOutcome, SweepPoint};
use crate::ber::BerTest;
use crate::error::LinkError;
use crate::link::LinkConfig;
pub use openserdes_analog::par::{
    bisect_speculative, default_threads, map, map_with_threads, try_map_with_threads,
};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::units::Hertz;
use openserdes_phy::ChannelModel;
use openserdes_telemetry as telemetry;

/// Derives work item `k`'s RNG seed from the run seed. A Weyl-style odd
/// multiplier decorrelates neighbouring indices, and the stream depends
/// on the item index alone, so each item's random stream is identical
/// at any worker count.
pub fn derive_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9)
}

/// The bathtub phase points fanned across workers; each phase's RNG is
/// derived from `(seed, phase index)`.
pub(crate) fn bathtub_par_impl(
    config: &LinkConfig,
    nbits: usize,
    phases: usize,
    seed: u64,
    threads: usize,
) -> Result<Vec<super::BathtubPoint>, LinkError> {
    let _span = telemetry::span("sweep.bathtub");
    let (bits, model) = super::bathtub_setup(config, nbits)?;
    let ks: Vec<usize> = (0..phases).collect();
    Ok(map_with_threads(&ks, threads, |_, &k| {
        super::bathtub_point(&bits, &model, k, phases, seed)
    }))
}

/// Fault-isolated [`bathtub_par_impl`]: a panicking phase lands in
/// [`SweepOutcome::failed`] instead of aborting the sweep. The shared
/// setup (PRBS stream, statistical model) still fails the whole call —
/// without it no phase is meaningful.
pub(crate) fn try_bathtub_par_impl(
    config: &LinkConfig,
    nbits: usize,
    phases: usize,
    seed: u64,
    threads: usize,
) -> Result<SweepOutcome<super::BathtubPoint>, LinkError> {
    let _span = telemetry::span("sweep.bathtub");
    let (bits, model) = super::bathtub_setup(config, nbits)?;
    let ks: Vec<usize> = (0..phases).collect();
    let results = try_map_with_threads(&ks, threads, |_, &k| {
        super::bathtub_point(&bits, &model, k, phases, seed)
    });
    Ok(SweepOutcome::collect(
        results
            .into_iter()
            .map(|r| r.map(Ok::<_, LinkError>))
            .collect(),
    ))
}

/// The one loss bisection: the maximum error-free attenuation over
/// `[0, 60]` dB, on the shared [`bisect_speculative`] engine. The next
/// levels of the midpoint tree are probed on `threads` workers, then
/// walked, so the bracket sequence is the one-worker one for any
/// thread count. A NaN `tol_db` is refused here, before any probe.
pub(crate) fn max_loss_bisection(
    base: &LinkConfig,
    frames: usize,
    tol_db: f64,
    threads: usize,
) -> Result<f64, LinkError> {
    if tol_db.is_nan() {
        return Err(LinkError::InvalidInput {
            field: "tol_db",
            reason: "NaN dB is not a bisection tolerance".to_string(),
        });
    }
    let _span = telemetry::span("sweep.max_loss_bisect");
    let error_free = |db: f64| -> Result<bool, LinkError> {
        telemetry::counter("sweep.bisect_probes", 1);
        let mut cfg = base.clone();
        cfg.channel = ChannelModel {
            attenuation_db: db,
            ..base.channel.clone()
        };
        BerTest::prbs31(cfg, frames).is_error_free()
    };
    let (lo, hi) = (0.0f64, 60.0f64);
    if !error_free(lo)? {
        return Ok(0.0);
    }
    if error_free(hi)? {
        return Ok(hi);
    }
    let (lo, _hi) = bisect_speculative(lo, hi, tol_db, threads, error_free)?;
    Ok(lo)
}

/// Maximum channel loss at each data rate, the points fanned across
/// workers in `rates` order. Each point bisects on one worker, so it
/// equals [`Sweep::max_loss`](super::Sweep::max_loss) at that rate.
pub(crate) fn rate_sweep_impl(
    base: &LinkConfig,
    rates: &[Hertz],
    frames: usize,
    tol_db: f64,
    threads: usize,
) -> Result<Vec<SweepPoint>, LinkError> {
    use openserdes_phy::{FrontEndConfig, RxFrontEnd};
    let _span = telemetry::span("sweep.rate_sweep");
    // The small-signal characterization depends only on the PVT point,
    // not the data rate: solve the front-end bias once and evaluate
    // every rate from it instead of re-solving inside each work item.
    let fe = RxFrontEnd::new(FrontEndConfig::paper_default(), base.pvt);
    let ss = fe.small_signal()?;
    let results = map_with_threads(rates, threads, |_, &rate| {
        telemetry::counter("sweep.rate_points", 1);
        let mut cfg = base.clone();
        cfg.data_rate = rate;
        let max_loss_db = max_loss_bisection(&cfg, frames, tol_db, 1)?;
        Ok(SweepPoint {
            data_rate: rate,
            sensitivity: fe.sensitivity_with(&ss, rate),
            max_loss_db,
        })
    });
    results.into_iter().collect()
}

/// Fault-isolated [`rate_sweep_impl`]: each rate point runs in its own
/// `catch_unwind`, so one poisoned rate reports in
/// [`SweepOutcome::failed`] while the others complete.
pub(crate) fn try_rate_sweep_impl(
    base: &LinkConfig,
    rates: &[Hertz],
    frames: usize,
    tol_db: f64,
    threads: usize,
) -> SweepOutcome<SweepPoint> {
    use openserdes_phy::{FrontEndConfig, RxFrontEnd};
    let _span = telemetry::span("sweep.rate_sweep");
    // Characterize once as in `rate_sweep_impl` — but in the
    // fault-isolated variant a failed characterization must not kill
    // the sweep, so fall back to per-point solves (each of which fails
    // in isolation) instead of propagating.
    let fe = RxFrontEnd::new(FrontEndConfig::paper_default(), base.pvt);
    let ss = fe.small_signal().ok();
    let results = try_map_with_threads(rates, threads, |_, &rate| {
        telemetry::counter("sweep.rate_points", 1);
        let mut cfg = base.clone();
        cfg.data_rate = rate;
        let max_loss_db = max_loss_bisection(&cfg, frames, tol_db, 1)?;
        let sensitivity = match &ss {
            Some(ss) => fe.sensitivity_with(ss, rate),
            None => fe.sensitivity(rate)?,
        };
        Ok::<_, LinkError>(SweepPoint {
            data_rate: rate,
            sensitivity,
            max_loss_db,
        })
    });
    SweepOutcome::collect(results)
}

/// One corner sweep entry: the PVT point, its measured loss budget and
/// its front-end sensitivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerPoint {
    /// The process/voltage/temperature point.
    pub pvt: Pvt,
    /// Maximum error-free channel attenuation at that corner.
    pub max_loss_db: f64,
    /// Behavioural front-end sensitivity at the base data rate. The
    /// corner bias points behind this come from **one** batched DC
    /// solve (`RxFrontEnd::self_bias_batched`): the corner circuits
    /// differ only in device parameters, so they share a stamp plan and
    /// iterate in lockstep.
    pub sensitivity: openserdes_pdk::units::Volt,
}

/// The batched corner pre-pass: every corner's front-end bias in one
/// lockstep DC solve, then the solver-free sensitivity evaluation per
/// corner. Returns `None` per corner on solver failure so the
/// fault-isolated sweep can retry inside the isolated work item.
fn corner_sensitivities(
    base: &LinkConfig,
    corners: &[Pvt],
) -> Vec<Option<openserdes_pdk::units::Volt>> {
    use openserdes_phy::{FrontEndConfig, RxFrontEnd};
    let fes: Vec<RxFrontEnd> = corners
        .iter()
        .map(|&pvt| RxFrontEnd::new(FrontEndConfig::paper_default(), pvt))
        .collect();
    match RxFrontEnd::self_bias_batched(&fes) {
        Ok(biases) => fes
            .iter()
            .zip(biases)
            .map(|(fe, bias)| {
                Some(fe.sensitivity_with(&fe.small_signal_with_bias(bias), base.data_rate))
            })
            .collect(),
        Err(_) => vec![None; corners.len()],
    }
}

/// Maximum channel loss at the three classic PVT corners (tt/ss/ff),
/// fanned across workers, in `[nominal, worst_case, best_case]` order.
pub(crate) fn corner_sweep_impl(
    base: &LinkConfig,
    frames: usize,
    tol_db: f64,
    threads: usize,
) -> Result<Vec<CornerPoint>, LinkError> {
    use openserdes_phy::{FrontEndConfig, RxFrontEnd};
    let _span = telemetry::span("sweep.corner_sweep");
    let corners = [Pvt::nominal(), Pvt::worst_case(), Pvt::best_case()];
    let sens = corner_sensitivities(base, &corners);
    let items: Vec<(Pvt, Option<openserdes_pdk::units::Volt>)> =
        corners.into_iter().zip(sens).collect();
    let results = map_with_threads(&items, threads, |_, &(pvt, sens)| {
        telemetry::counter("sweep.corner_points", 1);
        let mut cfg = base.clone();
        cfg.pvt = pvt;
        let sensitivity = match sens {
            Some(v) => v,
            None => {
                RxFrontEnd::new(FrontEndConfig::paper_default(), pvt).sensitivity(base.data_rate)?
            }
        };
        Ok(CornerPoint {
            pvt,
            max_loss_db: max_loss_bisection(&cfg, frames, tol_db, 1)?,
            sensitivity,
        })
    });
    results.into_iter().collect()
}

/// Fault-isolated [`corner_sweep_impl`], one isolated item per corner.
/// The batched bias pre-pass is shared; if it fails, each corner
/// re-solves its own sensitivity inside its isolated work item.
pub(crate) fn try_corner_sweep_impl(
    base: &LinkConfig,
    frames: usize,
    tol_db: f64,
    threads: usize,
) -> SweepOutcome<CornerPoint> {
    use openserdes_phy::{FrontEndConfig, RxFrontEnd};
    let _span = telemetry::span("sweep.corner_sweep");
    let corners = [Pvt::nominal(), Pvt::worst_case(), Pvt::best_case()];
    let sens = corner_sensitivities(base, &corners);
    let items: Vec<(Pvt, Option<openserdes_pdk::units::Volt>)> =
        corners.into_iter().zip(sens).collect();
    let results = try_map_with_threads(&items, threads, |_, &(pvt, sens)| {
        telemetry::counter("sweep.corner_points", 1);
        let mut cfg = base.clone();
        cfg.pvt = pvt;
        let sensitivity = match sens {
            Some(v) => v,
            None => {
                RxFrontEnd::new(FrontEndConfig::paper_default(), pvt).sensitivity(base.data_rate)?
            }
        };
        Ok::<_, LinkError>(CornerPoint {
            pvt,
            max_loss_db: max_loss_bisection(&cfg, frames, tol_db, 1)?,
            sensitivity,
        })
    });
    SweepOutcome::collect(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..57).collect();
        for threads in [1, 2, 4, 8] {
            let out = map_with_threads(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
        let empty: Vec<usize> = Vec::new();
        assert!(map(&empty, |_, &x: &usize| x).is_empty());
    }

    #[test]
    fn derive_seed_decorrelates_indices() {
        let s0 = derive_seed(42, 0);
        let s1 = derive_seed(42, 1);
        let s2 = derive_seed(42, 2);
        assert_eq!(s0, 42, "index 0 keeps the run seed");
        assert!(s0 != s1 && s1 != s2 && s0 != s2);
    }

    #[test]
    fn parallel_bathtub_is_seed_identical() {
        let cfg = LinkConfig::paper_default();
        let sweep = Sweep::new().with_bits(4_000).with_phases(12).with_seed(9);
        let seq = sweep.with_threads(1).bathtub(&cfg).expect("one worker");
        for threads in [2, 4, 8] {
            let par = sweep.with_threads(threads).bathtub(&cfg).expect("parallel");
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_bisect_is_seed_identical() {
        let base = LinkConfig::paper_default();
        let sweep = Sweep::new().with_frames(4).with_tolerance_db(1.0);
        let seq = sweep.with_threads(1).max_loss(&base).expect("one worker");
        for threads in [2, 4, 8] {
            let par = sweep
                .with_threads(threads)
                .max_loss(&base)
                .expect("parallel");
            assert_eq!(
                par.to_bits(),
                seq.to_bits(),
                "threads = {threads}: {par} vs {seq}"
            );
        }
    }

    #[test]
    fn corner_sweep_orders_and_ranks_corners() {
        let base = LinkConfig::paper_default();
        let sweep = Sweep::new()
            .with_frames(4)
            .with_tolerance_db(1.0)
            .with_threads(4);
        let pts = sweep.corner_sweep(&base).expect("runs");
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].pvt, Pvt::nominal());
        assert_eq!(pts[1].pvt, Pvt::worst_case());
        assert_eq!(pts[2].pvt, Pvt::best_case());
        assert!(
            pts[1].max_loss_db <= pts[0].max_loss_db,
            "ss must not beat tt: {} vs {}",
            pts[1].max_loss_db,
            pts[0].max_loss_db
        );
        // The batched bias pre-pass must agree with a per-corner
        // sequential characterization.
        use openserdes_phy::{FrontEndConfig, RxFrontEnd};
        for p in &pts {
            let fe = RxFrontEnd::new(FrontEndConfig::paper_default(), p.pvt);
            let want = fe.sensitivity(base.data_rate).expect("solves").value();
            let got = p.sensitivity.value();
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1e-6),
                "corner {:?}: batched sensitivity {got} vs sequential {want}",
                p.pvt
            );
        }
    }

    #[test]
    fn rate_sweep_matches_pointwise_bisection() {
        let base = LinkConfig::paper_default();
        let rates = [Hertz::from_ghz(1.0), Hertz::from_ghz(2.0)];
        let sweep = Sweep::new()
            .with_frames(4)
            .with_tolerance_db(1.0)
            .with_threads(4);
        let pts = sweep.rate_sweep(&base, &rates).expect("runs");
        assert_eq!(pts.len(), 2);
        for (pt, &rate) in pts.iter().zip(&rates) {
            let mut cfg = base.clone();
            cfg.data_rate = rate;
            let seq = sweep.with_threads(1).max_loss(&cfg).expect("pointwise");
            assert_eq!(pt.data_rate, rate);
            assert_eq!(pt.max_loss_db.to_bits(), seq.to_bits());
        }
        assert!(
            pts[1].max_loss_db <= pts[0].max_loss_db,
            "loss falls with rate"
        );
    }
}
