//! The analog engine: lockstep Newton, DC and transient analysis over a
//! batch of operating points (DESIGN.md §11, §16).
//!
//! Every solve in the crate runs here. A plain transient or DC solve is
//! a batch of one point; corner farms and sweeps, which solve the *same
//! topology* at many nearby operating points, batch them so the
//! per-solve overhead — stamp dispatch, LU factorization, Newton
//! bookkeeping — is paid once for the whole point dimension:
//!
//! * **Structure-of-arrays state.** Voltage and history live in
//!   point-fastest planes (`plane[node * n_points + p]`), so the inner
//!   loop of every stamp, solve and update walks a contiguous run of
//!   points and auto-vectorizes. With one point a plane is simply the
//!   node-voltage vector.
//! * **One shared `StampPlan`.** The topology is compiled once;
//!   per-point differences are value-only [`PointOverride`]s zipped
//!   into the stamp list (`PerPoint::Shared` vs `PerPoint::Per`).
//! * **Newton with convergence masks.** All active points iterate in
//!   lockstep; a point that converges drops out of the mask and its
//!   state plane column freezes, so stragglers never perturb finished
//!   points. Each point keeps its own two-bank LU cache and, on the
//!   adaptive path, its own modified-Newton state (stale-LU reuse under
//!   `JAC_STALE_DV`/`JAC_STALE_RUN`, the `fast_streak` carried across
//!   steps, the `SLOW_STEP_ITERS` invalidation).
//! * **Shared LU on uniform linear batches.** When no element is
//!   overridden and the circuit is linear, every point's Jacobian is
//!   bit-identical — one factorization serves the whole batch through
//!   the plane triangular solve.
//! * **Recovery or retirement.** A one-point batch answers a failed
//!   step with the recovery ladder (gmin-stepping → source-stepping →
//!   dt-cut). A multi-point batch instead *retires* the failing point
//!   (counted in `SolverStats::batch_retirements`) and re-solves it as
//!   a one-point batch, so stragglers cannot hold the lockstep.
//!
//! # Determinism contract
//!
//! A one-point batch is deterministic to the bit, counters included:
//! fixed-step runs and DC match the [`reference`](super::reference)
//! oracle, and `tests/analog_golden.rs` pins the adaptive path, the
//! recovery ladder and seeded DC. Fixed-step multi-point results are
//! **bit-identical per point** to a one-point solve of that point's
//! circuit ([`PointOverride::circuit_for_point`]) for every batch size
//! and composition: each point's scalar operation sequence — stamp
//! order, damped update, LU cache decisions — is reproduced exactly on
//! its own plane column, and retired points are literally re-solved
//! alone. Batched DC carries the same guarantee. Adaptive multi-point
//! runs share one step controller across the batch (union time grid,
//! worst-point LTE), so per-point results track a one-point adaptive
//! run within the LTE bound instead.

// The lockstep loops walk several parallel per-point arrays (`run`,
// `conv`, `lockstep`, per-point stats and workspaces) at once; plain
// `p` indexing keeps those in step where multi-slice zips would bury
// the structure.
#![allow(clippy::needless_range_loop)]

use super::{
    factorize, lu_solve, telemetry, Circuit, Instant, PairSlots, Solver, SolverError, SolverStats,
    StampPlan, StepMode, TransientConfig, TransientResult, Waveform, Workspace, ABSENT,
};
use crate::circuit::{Element, Node, Stimulus};
use openserdes_pdk::mos::MosDevice;

/// Gmin ladder of the robust DC solve.
pub(super) const DC_LADDER: [f64; 8] = [1e-3, 1e-5, 1e-7, 1e-9, 1e-10, 1e-11, 3e-12, 1e-12];
/// Gmin ladder of the seeded (`.nodeset`) DC solve.
const NODESET_LADDER: [f64; 3] = [1e-6, 1e-9, 1e-12];
/// A step whose Newton solve needed this many iterations invalidates
/// the cached LU (the operating point moved a lot).
const SLOW_STEP_ITERS: usize = 10;
/// Source jump across a step (volts) that invalidates the cached LU.
/// Device transconductances vary on a ~VDD/10 scale, so smaller ramps
/// leave the stale Jacobian a good Newton matrix.
const SOURCE_JUMP_V: f64 = 0.15;
/// A damped Newton update below this magnitude (volts) leaves the MOS
/// small-signal parameters within a modest factor of the cached
/// Jacobian's (`gm` varies on the thermal-voltage scale, ~e^(dv/35mV)
/// in subthreshold), so the next iteration may ride the stale LU and
/// still contract strongly. Above it, refactorize — a bad Newton matrix
/// costs whole extra device-evaluation passes, which is the dominant
/// expense on these small MNA systems.
const JAC_STALE_DV: f64 = 0.02;
/// Consecutive stale-LU iterations allowed before a mandatory
/// refactorization, bounding how far modified Newton can drift from the
/// quadratic path.
const JAC_STALE_RUN: usize = 2;

/// Value-only deltas applied to a base circuit to form one point of a
/// batch: replacement elements (same kind, same nodes — the batched
/// engine shares one stamp plan, so topology is fixed) and replacement
/// source stimuli. Built with the consuming `with_*` methods; later
/// overrides of the same index win.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointOverride {
    elements: Vec<(usize, Element)>,
    sources: Vec<(usize, Stimulus)>,
}

impl PointOverride {
    /// An empty override: the point is the base circuit itself.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces element `index` (by position in
    /// [`Circuit::elements`]) for this point. The replacement must
    /// keep the element's kind, terminal nodes and (for MOS) polarity;
    /// the batched engine panics otherwise.
    #[must_use]
    pub fn with_element(mut self, index: usize, e: Element) -> Self {
        self.elements.push((index, e));
        self
    }

    /// Replaces the stimulus of voltage source `index` (by position in
    /// [`Circuit::sources`]) for this point.
    #[must_use]
    pub fn with_source(mut self, index: usize, stimulus: Stimulus) -> Self {
        self.sources.push((index, stimulus));
        self
    }

    /// Shorthand for a constant-voltage source override — the shape DC
    /// sweeps use.
    #[must_use]
    pub fn with_source_dc(self, index: usize, volts: f64) -> Self {
        self.with_source(index, Stimulus::Dc(volts))
    }

    /// `true` when the override changes nothing (the point is the base
    /// circuit).
    pub fn is_identity(&self) -> bool {
        self.elements.is_empty() && self.sources.is_empty()
    }

    /// Derives the override turning `base` into `variant`, when the
    /// two circuits share a topology: same node count, same element
    /// kinds/terminals (MOS polarity included), same source nodes.
    /// Returns `None` when the circuits differ structurally — the
    /// caller should fall back to a one-point solve then. This is how
    /// corner sweeps batch: build each corner's circuit with the
    /// existing builders and diff it against the nominal one.
    pub fn diff(base: &Circuit, variant: &Circuit) -> Option<Self> {
        if base.node_count() != variant.node_count()
            || base.elements().len() != variant.elements().len()
            || base.sources().len() != variant.sources().len()
        {
            return None;
        }
        let mut out = PointOverride::default();
        for (i, (b, v)) in base.elements().iter().zip(variant.elements()).enumerate() {
            if b == v {
                continue;
            }
            if !same_topology(b, v) {
                return None;
            }
            out.elements.push((i, v.clone()));
        }
        for (i, ((nb, sb), (nv, sv))) in base.sources().iter().zip(variant.sources()).enumerate() {
            if nb != nv {
                return None;
            }
            if sb != sv {
                out.sources.push((i, sv.clone()));
            }
        }
        Some(out)
    }

    /// Materializes this point's circuit: a clone of `base` with the
    /// overrides applied via [`Circuit::set_element`] /
    /// [`Circuit::set_source_stimulus`]. This is what retirement runs
    /// as a one-point batch, which is why batched results match
    /// one-point solves of exactly this circuit.
    ///
    /// # Panics
    ///
    /// Panics if an override index is out of range or a replacement
    /// value fails the builder validations.
    pub fn circuit_for_point(&self, base: &Circuit) -> Circuit {
        let mut c = base.clone();
        for (i, e) in &self.elements {
            c.set_element(*i, e.clone());
        }
        for (i, s) in &self.sources {
            c.set_source_stimulus(*i, s.clone());
        }
        c
    }
}

/// Do two elements agree on kind, terminals and MOS polarity? (Values
/// are allowed to differ — that is what overrides are for.)
fn same_topology(base: &Element, v: &Element) -> bool {
    match (base, v) {
        (Element::Resistor { a: a0, b: b0, .. }, Element::Resistor { a: a1, b: b1, .. })
        | (Element::Capacitor { a: a0, b: b0, .. }, Element::Capacitor { a: a1, b: b1, .. }) => {
            a0 == a1 && b0 == b1
        }
        (
            Element::Mos {
                device: m0,
                d: d0,
                g: g0,
                s: s0,
            },
            Element::Mos {
                device: m1,
                d: d1,
                g: g1,
                s: s1,
            },
        ) => d0 == d1 && g0 == g1 && s0 == s1 && m0.params.mos_type == m1.params.mos_type,
        _ => false,
    }
}

/// A per-stamp value — conductance, capacitance, MOS device, source
/// stimulus — shared by the whole batch or overridden per point.
#[derive(Debug, Clone)]
enum PerPoint<T> {
    Shared(T),
    Per(Vec<T>),
}

impl<T: Clone> PerPoint<T> {
    #[inline]
    fn at(&self, p: usize) -> &T {
        match self {
            PerPoint::Shared(x) => x,
            PerPoint::Per(v) => &v[p],
        }
    }

    /// `base` for every point, or — when the element has overrides
    /// (`per`) — each point's override `value`, `base` where it has
    /// none.
    fn widen(base: T, per: Option<&Vec<Option<&Element>>>, value: impl Fn(&Element) -> T) -> Self {
        match per {
            None => PerPoint::Shared(base),
            Some(per) => PerPoint::Per(
                per.iter()
                    .map(|e| e.map_or_else(|| base.clone(), &value))
                    .collect(),
            ),
        }
    }
}

/// One element's stamp widened across the point dimension. Slot order
/// inside each variant mirrors [`super::Stamp`] exactly — per-point
/// bit-identity rides on reproducing the scalar `+=` sequence.
#[derive(Debug, Clone)]
enum BStamp {
    Cond {
        p: PairSlots,
        g: PerPoint<f64>,
    },
    Cap {
        p: PairSlots,
        farads: PerPoint<f64>,
    },
    Mos {
        dev: PerPoint<MosDevice>,
        nmos: bool,
        d: usize,
        g: usize,
        s: usize,
        res0: usize,
        res1: usize,
        jac: [usize; 6],
    },
}

/// The parameters of one Newton solve, shared by every point of the
/// call.
#[derive(Debug, Clone, Copy)]
struct Solve {
    /// Backward-Euler companion step (`None` at DC).
    dt: Option<f64>,
    /// Stabilizing node-to-ground conductance.
    gmin: f64,
    /// Iteration budget.
    max_iter: usize,
    /// Convergence bound on the damped update, volts.
    tol: f64,
    /// Simulation time, reported by errors.
    time: f64,
    /// Modified Newton (may ride a stale LU) instead of full Newton
    /// (refactorizes every iteration unless the circuit is linear).
    modified: bool,
}

impl Solve {
    /// A DC solve at time `t` and `gmin`: a direct attempt or one rung
    /// of a gmin ladder.
    fn dc(t: f64, gmin: f64) -> Self {
        Self {
            dt: None,
            gmin,
            max_iter: 400,
            tol: 1e-9,
            time: t,
            modified: false,
        }
    }

    /// A transient step solve ending at `time`.
    fn step(dt: f64, config: &TransientConfig, tol: f64, time: f64, modified: bool) -> Self {
        Self {
            dt: Some(dt),
            gmin: config.gmin,
            max_iter: config.max_newton,
            tol,
            time,
            modified,
        }
    }
}

/// How a DC solve seeds its Newton iterations.
#[derive(Debug, Clone, Copy)]
pub(super) enum DcSeed<'n> {
    /// Mid-supply, then all-zero initial guesses, each with a direct
    /// attempt, the full [`DC_LADDER`] and a final direct attempt.
    Robust,
    /// Mid-supply with user guesses on some nodes (SPICE `.nodeset`),
    /// through the short nodeset ladder.
    Nodeset(&'n [(Node, f64)]),
}

/// One point's Newton bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct Track {
    /// Modified Newton: open the next solve on the cached LU (the last
    /// solve converged at once — the fast streak).
    stale_start: bool,
    /// Iterations the last solve used.
    iters: usize,
    /// Modified Newton inside one solve: this iteration wants a stale
    /// LU, rode one, the last damped update, consecutive stale
    /// iterations.
    want: bool,
    stale: bool,
    last_dv: f64,
    stale_run: usize,
    /// The last solve failed on a singular factorization.
    singular: bool,
}

/// A point's transient outcome: `None` when it was retired from a
/// multi-point batch (the caller re-solves it alone).
type Outcome = Option<Result<Vec<Waveform>, SolverError>>;

/// The engine's working state for `L` points: SoA planes over
/// `[n_nodes × n_points]` (point-fastest), the widened stamp list,
/// either one shared [`Workspace`] (uniform linear batches) or one per
/// point, and the per-point Newton state.
struct Batch<'a, L: Lanes> {
    plan: &'a StampPlan,
    circuit: &'a Circuit,
    stamps: Vec<BStamp>,
    /// `(raw node index, stimulus plane)` per voltage source, in
    /// circuit order.
    srcs: Vec<(usize, PerPoint<Stimulus>)>,
    /// The point count: [`OneLane`] for a one-point batch, so every
    /// per-point loop and plane index folds at compile time.
    lanes: L,
    nn: usize,
    nu: usize,
    /// No element overrides *and* the plan is linear: every point's
    /// Jacobian is bit-identical, so one factorization serves all.
    shared_lu: bool,
    /// Entered through a batched entry point: count the
    /// `batched_factorizations`.
    batched: bool,
    /// Failing points leave the batch (multi-point batches) instead of
    /// entering the recovery ladder (one-point batches).
    retire: bool,
    /// Voltage plane, `v[node * np + p]`.
    v: Vec<f64>,
    /// Previous-step voltage plane (backward-Euler companion).
    prev: Vec<f64>,
    /// Residual / Newton-update plane, `res[slot * np + p]`.
    res: Vec<f64>,
    /// LU caches: one shared by the whole batch when `shared_lu`, else
    /// one per point.
    ws: Vec<Workspace>,
    /// Per-point damped-update magnitude and damping scale.
    maxdv: Vec<f64>,
    scale: Vec<f64>,
    /// One point row (`np`) for the plane forward substitution.
    row: Vec<f64>,
    /// One point row (`np`) staging pair-stamp currents during plane
    /// assembly.
    cur: Vec<f64>,
    /// One unknown column (`nu`) for per-point gather/solve.
    scratch: Vec<f64>,
    /// Scratch masks for the per-point LU path.
    miss: Vec<bool>,
    bank_of: Vec<usize>,
    run: Vec<bool>,
    /// Per-point Newton bookkeeping.
    track: Vec<Track>,
    /// Batch-level counters.
    stats: SolverStats,
    /// Per-point share of the counters that are cleanly attributable
    /// (Newton iterations, residual builds, accepted steps, per-point
    /// factorizations/reuses). Batch-shared work — one factorization
    /// serving many points — is counted once in `stats`, not divided.
    pstats: Vec<SolverStats>,
}

impl<'a, L: Lanes> Batch<'a, L> {
    /// Widens `plan` across `points`, validating that every override
    /// preserves the topology.
    ///
    /// # Panics
    ///
    /// Panics when an override index is out of range, changes an
    /// element's kind/terminals/polarity, or carries a non-positive
    /// resistance/capacitance.
    fn new(
        plan: &'a StampPlan,
        circuit: &'a Circuit,
        points: &[PointOverride],
        batched: bool,
        lanes: L,
    ) -> Self {
        let np = points.len();
        assert_eq!(lanes.get(), np, "one lane per point");
        let nn = plan.n_nodes;
        let nu = plan.n_unknown;
        let base_elements = circuit.elements();

        // Effective override element per (element, point), for the
        // overridden elements only; later overrides of the same index
        // win, matching `circuit_for_point`'s application order.
        let mut eff: Vec<Option<Vec<Option<&Element>>>> = vec![None; base_elements.len()];
        for (pi, ov) in points.iter().enumerate() {
            for (i, e) in &ov.elements {
                assert!(
                    *i < base_elements.len(),
                    "override element index {i} out of range"
                );
                assert!(
                    same_topology(&base_elements[*i], e),
                    "batched override changes the topology of element {i} \
                     (kind, terminals and MOS polarity must match the base circuit)"
                );
                match e {
                    Element::Resistor { ohms, .. } => {
                        assert!(
                            *ohms > 0.0 && ohms.is_finite(),
                            "resistance must be positive"
                        );
                    }
                    Element::Capacitor { farads, .. } => {
                        assert!(
                            *farads > 0.0 && farads.is_finite(),
                            "capacitance must be positive"
                        );
                    }
                    Element::Mos { .. } => {}
                }
                eff[*i].get_or_insert_with(|| vec![None; np])[pi] = Some(e);
            }
        }

        let uniform = eff.iter().all(Option::is_none);
        let stamps: Vec<BStamp> = plan
            .stamps
            .iter()
            .zip(&eff)
            .map(|(stamp, per)| {
                let per = per.as_ref();
                match *stamp {
                    super::Stamp::Conductance { g, p } => BStamp::Cond {
                        p,
                        g: PerPoint::widen(g, per, |e| match e {
                            // Same `1.0 / ohms` op the plan build
                            // applies, for bit-identity.
                            Element::Resistor { ohms, .. } => 1.0 / ohms,
                            _ => unreachable!("topology validated above"),
                        }),
                    },
                    super::Stamp::Capacitor { farads, p } => BStamp::Cap {
                        p,
                        farads: PerPoint::widen(farads, per, |e| match e {
                            Element::Capacitor { farads, .. } => *farads,
                            _ => unreachable!("topology validated above"),
                        }),
                    },
                    super::Stamp::Mos {
                        ref device,
                        nmos,
                        d,
                        g,
                        s,
                        res0,
                        res1,
                        jac,
                    } => BStamp::Mos {
                        dev: PerPoint::widen(*device, per, |e| match e {
                            Element::Mos { device, .. } => *device,
                            _ => unreachable!("topology validated above"),
                        }),
                        nmos,
                        d,
                        g,
                        s,
                        res0,
                        res1,
                        jac,
                    },
                }
            })
            .collect();

        let n_sources = circuit.sources().len();
        for ov in points {
            for (i, _) in &ov.sources {
                assert!(*i < n_sources, "override source index {i} out of range");
            }
        }
        let srcs: Vec<(usize, PerPoint<Stimulus>)> = circuit
            .sources()
            .iter()
            .enumerate()
            .map(|(si, (node, stim))| {
                let any = points
                    .iter()
                    .any(|ov| ov.sources.iter().any(|(i, _)| *i == si));
                let plane = if any {
                    PerPoint::Per(
                        points
                            .iter()
                            .map(|ov| {
                                ov.sources
                                    .iter()
                                    .rev()
                                    .find(|(i, _)| *i == si)
                                    .map(|(_, s)| s.clone())
                                    .unwrap_or_else(|| stim.clone())
                            })
                            .collect(),
                    )
                } else {
                    PerPoint::Shared(stim.clone())
                };
                (node.index(), plane)
            })
            .collect();

        let shared_lu = uniform && plan.linear;
        Self {
            plan,
            circuit,
            stamps,
            srcs,
            lanes,
            nn,
            nu,
            shared_lu,
            batched,
            retire: np > 1,
            v: vec![0.0; nn * np],
            prev: vec![0.0; nn * np],
            res: vec![0.0; nu * np],
            ws: (0..if shared_lu { 1 } else { np })
                .map(|_| Workspace::new(nu))
                .collect(),
            maxdv: vec![0.0; np],
            scale: vec![0.0; np],
            row: vec![0.0; np],
            cur: vec![0.0; np],
            scratch: vec![0.0; nu],
            miss: vec![false; np],
            bank_of: vec![0; np],
            run: vec![false; np],
            track: vec![Track::default(); np],
            stats: SolverStats::default(),
            pstats: vec![SolverStats::default(); np],
        }
    }

    /// Fills source rows of the `mask`ed columns for time `t`.
    fn apply_sources_cols(&mut self, t: f64, mask: &[bool]) {
        self.fill_sources(mask, |s| s.value_at(t));
    }

    /// Fills source rows of the `mask`ed columns with every source
    /// lerped between its values at `t0` and `t1`:
    /// `v(t0) + alpha·(v(t1) − v(t0))`. The source-stepping recovery
    /// rung walks `alpha` from 0 to 1 so a step change too violent for
    /// one Newton solve becomes a short continuation.
    fn apply_sources_blend_cols(&mut self, t0: f64, t1: f64, alpha: f64, mask: &[bool]) {
        self.fill_sources(mask, |s| {
            let a = s.value_at(t0);
            a + alpha * (s.value_at(t1) - a)
        });
    }

    /// Grounds row 0 and writes `value(stimulus)` into every source row
    /// of the `mask`ed columns.
    fn fill_sources(&mut self, mask: &[bool], value: impl Fn(&Stimulus) -> f64) {
        let np = self.lanes.get();
        let Self { v, srcs, .. } = self;
        for p in 0..np {
            if mask[p] {
                v[p] = 0.0;
            }
        }
        for (node, stim) in srcs.iter() {
            let row = &mut v[node * np..node * np + np];
            match stim {
                PerPoint::Shared(s) => {
                    let x = value(s);
                    for (p, slot) in row.iter_mut().enumerate() {
                        if mask[p] {
                            *slot = x;
                        }
                    }
                }
                PerPoint::Per(per) => {
                    for (p, slot) in row.iter_mut().enumerate() {
                        if mask[p] {
                            *slot = value(&per[p]);
                        }
                    }
                }
            }
        }
    }

    /// Largest source magnitude at `t` for point `p` (the historical
    /// mid-supply guess is half of it).
    fn max_source_abs_point(&self, p: usize, t: f64) -> f64 {
        self.srcs
            .iter()
            .map(|(_, s)| s.at(p).value_at(t).abs())
            .fold(0.0f64, f64::max)
    }

    /// Largest source change between `t0` and `t1` over the `mask`ed
    /// points.
    fn source_jump_any(&self, t0: f64, t1: f64, mask: &[bool]) -> f64 {
        let mut worst = 0.0f64;
        for (_, s) in &self.srcs {
            for p in 0..self.lanes.get() {
                if !mask[p] {
                    continue;
                }
                let stim = s.at(p);
                worst = worst.max((stim.value_at(t1) - stim.value_at(t0)).abs());
            }
        }
        worst
    }

    /// Drops every cached factorization (shared and per-point).
    fn invalidate_ws(&mut self) {
        for ws in &mut self.ws {
            ws.invalidate();
        }
    }

    /// Drops the factorizations point `p` solves with.
    fn invalidate_point(&mut self, p: usize) {
        let i = if self.shared_lu { 0 } else { p };
        self.ws[i].invalidate();
    }

    /// Copies the previous-step column into the voltage column of every
    /// `mask`ed point: each recovery rung restarts from there.
    fn restart_from_prev(&mut self, mask: &[bool]) {
        let np = self.lanes.get();
        for node in 0..self.nn {
            for p in 0..np {
                if mask[p] {
                    self.v[node * np + p] = self.prev[node * np + p];
                }
            }
        }
    }

    /// Column `p` of the voltage plane.
    fn column(&self, p: usize) -> Vec<f64> {
        (0..self.nn)
            .map(|node| self.v[node * self.lanes.get() + p])
            .collect()
    }

    /// Takes point `p` out of the lockstep after a failure: counted as
    /// a retirement in a multi-point batch, else recorded as the point's
    /// error.
    fn end_point(
        &mut self,
        p: usize,
        lockstep: &mut [bool],
        failed: &mut [Option<SolverError>],
        err: SolverError,
    ) {
        lockstep[p] = false;
        if self.retire {
            self.stats.batch_retirements += 1;
        } else {
            failed[p] = Some(err);
        }
    }
}

/// The point count of a batch. The engine is generic over it so a
/// one-point batch compiles with a constant count of one — its
/// per-point loops and `node * np + p` index arithmetic fold away —
/// while multi-point batches carry the run-time count (`usize`).
trait Lanes: Copy {
    fn get(self) -> usize;
}

/// One lane, known at compile time.
#[derive(Debug, Clone, Copy)]
struct OneLane;

impl Lanes for OneLane {
    #[inline(always)]
    fn get(self) -> usize {
        1
    }
}

impl Lanes for usize {
    #[inline(always)]
    fn get(self) -> usize {
        self
    }
}

/// The per-point Jacobian banks a plane assembly fills: point `k`
/// writes `ws[k].banks[bank_of[k]]` when `miss[k]`. Point 0's matrix is
/// resolved once up front — it is the only one of a one-point batch,
/// whose assembly then reaches it without any per-stamp lookup.
struct JacTargets<'w> {
    first: Option<&'w mut [f64]>,
    /// `ws[1..]`.
    rest: &'w mut [Workspace],
    miss: &'w [bool],
    bank_of: &'w [usize],
}

impl<'w> JacTargets<'w> {
    fn new(ws: &'w mut [Workspace], miss: &'w [bool], bank_of: &'w [usize]) -> Self {
        let (head, rest) = ws.split_first_mut().expect("a batch has a point");
        let first = miss[0].then(|| &mut head.banks[bank_of[0]].a[..]);
        Self {
            first,
            rest,
            miss,
            bank_of,
        }
    }

    #[inline]
    fn at(&mut self, k: usize) -> Option<&mut [f64]> {
        if k == 0 {
            self.first.as_deref_mut()
        } else if self.miss[k] {
            Some(&mut self.rest[k - 1].banks[self.bank_of[k]].a)
        } else {
            None
        }
    }
}

/// Plane residual/Jacobian assembly over the compiled stamps.
/// Residuals are written for every column (dead columns hold garbage
/// that is never read); MOS evaluation — the expensive part — is
/// skipped for non-`run` points. When `jacs` is given, every miss
/// point's bank receives its Jacobian. The per-point `+=` order is the
/// `reference` assembler's exactly, which fixed-step bit-identity rides
/// on.
#[allow(clippy::too_many_arguments)]
fn assemble_plane<L: Lanes>(
    stamps: &[BStamp],
    gmin_rows: &[(usize, usize, usize)],
    lanes: L,
    v: &[f64],
    prev_dt: Option<(&[f64], f64)>,
    gmin: f64,
    run: &[bool],
    res: &mut [f64],
    mut jacs: Option<&mut JacTargets<'_>>,
    cur: &mut [f64],
) {
    let np = lanes.get();
    res.fill(0.0);
    if let Some(jt) = jacs.as_deref_mut() {
        for k in 0..np {
            if let Some(j) = jt.at(k) {
                j.fill(0.0);
            }
        }
    }
    let add4 = |j: &mut [f64], p: &PairSlots, g: f64| {
        // jaa, jab, jba, jbb — the historical pair-stamp order.
        if p.jaa != ABSENT {
            j[p.jaa] += g;
        }
        if p.jab != ABSENT {
            j[p.jab] -= g;
        }
        if p.jba != ABSENT {
            j[p.jba] -= g;
        }
        if p.jbb != ABSENT {
            j[p.jbb] += g;
        }
    };
    for stamp in stamps {
        match stamp {
            BStamp::Cond { p, g } => {
                pair_plane(res, v, lanes, p, g, None, cur);
                if let Some(jt) = jacs.as_deref_mut() {
                    for k in 0..np {
                        if let Some(j) = jt.at(k) {
                            add4(j, p, *g.at(k));
                        }
                    }
                }
            }
            BStamp::Cap { p, farads } => {
                if let Some((prev, dt)) = prev_dt {
                    pair_plane(res, v, lanes, p, farads, Some((prev, dt)), cur);
                    if let Some(jt) = jacs.as_deref_mut() {
                        for k in 0..np {
                            if let Some(j) = jt.at(k) {
                                add4(j, p, *farads.at(k) / dt);
                            }
                        }
                    }
                }
            }
            BStamp::Mos {
                dev,
                nmos,
                d,
                g,
                s,
                res0,
                res1,
                jac,
            } => {
                for k in 0..np {
                    if !run[k] {
                        continue;
                    }
                    let (vd, vg, vs) = (v[d * np + k], v[g * np + k], v[s * np + k]);
                    let e = if *nmos {
                        dev.at(k).eval(vg - vs, vd - vs)
                    } else {
                        dev.at(k).eval(vs - vg, vs - vd)
                    };
                    if *res0 != ABSENT {
                        res[res0 * np + k] += e.id;
                    }
                    if *res1 != ABSENT {
                        res[res1 * np + k] -= e.id;
                    }
                    if let Some(j) = jacs.as_deref_mut().and_then(|jt| jt.at(k)) {
                        let gsum = e.gm + e.gds;
                        let vals = if *nmos {
                            [e.gds, e.gm, -gsum, -e.gds, -e.gm, gsum]
                        } else {
                            [gsum, -e.gm, -e.gds, -gsum, e.gm, e.gds]
                        };
                        for (slot, val) in jac.iter().zip(vals) {
                            if *slot != ABSENT {
                                j[*slot] += val;
                            }
                        }
                    }
                }
            }
        }
    }
    for &(node_idx, res_i, diag) in gmin_rows {
        let base = node_idx * np;
        let out = res_i * np;
        for k in 0..np {
            res[out + k] += gmin * v[base + k];
        }
        if let Some(jt) = jacs.as_deref_mut() {
            for k in 0..np {
                if let Some(j) = jt.at(k) {
                    j[diag] += gmin;
                }
            }
        }
    }
}

/// Plane version of the two-terminal pair stamp: resistor current
/// (`i = g·Δv`) or capacitor companion current
/// (`i = (C/dt)·(Δv − Δv_prev)`), accumulated into the residual rows
/// in the historical order (`res_a += i` then `res_b -= i`).
///
/// The per-point currents are staged in `cur` (length `np`) so every
/// inner loop is a straight slice-to-slice pass the compiler can
/// vectorize — the value/companion dispatch happens once per stamp,
/// not once per point. The arithmetic per point is exactly the scalar
/// stamp's (`dv * g`, `g * (dv - dv_prev)`), keeping bit-identity.
fn pair_plane<L: Lanes>(
    res: &mut [f64],
    v: &[f64],
    lanes: L,
    p: &PairSlots,
    val: &PerPoint<f64>,
    cap: Option<(&[f64], f64)>,
    cur: &mut [f64],
) {
    let np = lanes.get();
    let va = &v[p.a * np..p.a * np + np];
    let vb = &v[p.b * np..p.b * np + np];
    match (val, cap) {
        (PerPoint::Shared(g), None) => {
            let g = *g;
            for k in 0..np {
                cur[k] = (va[k] - vb[k]) * g;
            }
        }
        (PerPoint::Per(gs), None) => {
            for k in 0..np {
                cur[k] = (va[k] - vb[k]) * gs[k];
            }
        }
        (PerPoint::Shared(c), Some((prev, dt))) => {
            let g = *c / dt;
            let pa = &prev[p.a * np..p.a * np + np];
            let pb = &prev[p.b * np..p.b * np + np];
            for k in 0..np {
                cur[k] = g * ((va[k] - vb[k]) - (pa[k] - pb[k]));
            }
        }
        (PerPoint::Per(cs), Some((prev, dt))) => {
            let pa = &prev[p.a * np..p.a * np + np];
            let pb = &prev[p.b * np..p.b * np + np];
            for k in 0..np {
                cur[k] = (cs[k] / dt) * ((va[k] - vb[k]) - (pa[k] - pb[k]));
            }
        }
    }
    if p.res_a != ABSENT {
        let row = &mut res[p.res_a * np..p.res_a * np + np];
        for (x, &i) in row.iter_mut().zip(cur.iter()) {
            *x += i;
        }
    }
    if p.res_b != ABSENT {
        let row = &mut res[p.res_b * np..p.res_b * np + np];
        for (x, &i) in row.iter_mut().zip(cur.iter()) {
            *x -= i;
        }
    }
}

/// Triangular solve of one shared LU against the whole residual plane
/// (`b[slot * np + k]`), columns in lockstep. Per point this applies
/// the exact scalar operation sequence of [`lu_solve`] — pivot swaps
/// first, zero-skipping column-major forward substitution, then back
/// substitution — so shared-LU batches stay bit-identical to scalar
/// solves against the same factors.
fn plane_lu_solve<L: Lanes>(
    a: &[f64],
    piv: &[usize],
    nu: usize,
    lanes: L,
    b: &mut [f64],
    row: &mut [f64],
) {
    let np = lanes.get();
    for (col, &p) in piv.iter().enumerate() {
        if p != col {
            for k in 0..np {
                b.swap(col * np + k, p * np + k);
            }
        }
    }
    for col in 0..nu {
        row.copy_from_slice(&b[col * np..col * np + np]);
        for r in col + 1..nu {
            let f = a[r * nu + col];
            if f == 0.0 {
                continue;
            }
            let br = &mut b[r * np..r * np + np];
            for (x, &rc) in br.iter_mut().zip(row.iter()) {
                *x -= f * rc;
            }
        }
    }
    for r in (0..nu).rev() {
        for c in r + 1..nu {
            let f = a[r * nu + c];
            // Mirrors the scalar `lu_solve` zero skip entry for entry.
            if f == 0.0 {
                continue;
            }
            let (lo, hi) = b.split_at_mut(c * np);
            let br = &mut lo[r * np..r * np + np];
            let bc = &hi[..np];
            for (x, &y) in br.iter_mut().zip(bc) {
                *x -= f * y;
            }
        }
        let d = a[r * nu + r];
        for x in &mut b[r * np..r * np + np] {
            *x /= d;
        }
    }
}

/// Pushes one plane sample per `mask`ed point into its per-node buffers.
fn push_plane<L: Lanes>(bufs: &mut [Vec<Vec<f64>>], v: &[f64], mask: &[bool], lanes: L) {
    let np = lanes.get();
    for (p, pb) in bufs.iter_mut().enumerate() {
        if !mask[p] {
            continue;
        }
        for (node, buf) in pb.iter_mut().enumerate() {
            buf.push(v[node * np + p]);
        }
    }
}

/// Plane counterpart of the adaptive loop's `emit` closure: linearly
/// resamples the accepted span `t0..t1` (planes `va` → `vb`) onto the
/// shared `out_dt` grid for every `mask`ed point.
#[allow(clippy::too_many_arguments)]
fn emit_plane<L: Lanes>(
    bufs: &mut [Vec<Vec<f64>>],
    next_out: &mut usize,
    n_out: usize,
    out_dt: f64,
    t0: f64,
    va: &[f64],
    t1: f64,
    vb: &[f64],
    mask: &[bool],
    lanes: L,
) {
    let np = lanes.get();
    while *next_out <= n_out {
        let tg = *next_out as f64 * out_dt;
        if tg > t1 + 1e-9 * out_dt {
            break;
        }
        let alpha = if t1 > t0 {
            ((tg - t0) / (t1 - t0)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        for (p, pb) in bufs.iter_mut().enumerate() {
            if !mask[p] {
                continue;
            }
            let rows = va.chunks_exact(np).zip(vb.chunks_exact(np));
            for (buf, (ra, rb)) in pb.iter_mut().zip(rows) {
                buf.push(ra[p] + alpha * (rb[p] - ra[p]));
            }
        }
        *next_out += 1;
    }
}

impl<L: Lanes> Batch<'_, L> {
    /// Lockstep damped Newton over the `run_init` points: all active
    /// points iterate together; each point drops out of the running
    /// mask the moment its own damped update passes the tolerance
    /// (recorded in `conv`, with the iterations it took in `iters`).
    /// Points still running at the budget — or hit by a singular
    /// factorization (`singular`) — are left with `conv[p] == false`;
    /// the caller decides between recovery, retirement and a batch-wide
    /// step rejection, and asks [`Batch::failure`] for the error.
    ///
    /// **Full Newton** refactorizes every iteration; the one exception
    /// is a linear circuit, whose matrix depends only on the `(dt,
    /// gmin)` key, so a cached LU under the same key is bit-identical to
    /// a fresh one. **Modified Newton** (the adaptive path) lets a point
    /// ride its cached LU in two situations, measured to pay on these
    /// small systems, where device evaluation dominates every iteration
    /// and the factorization is nearly free:
    ///
    /// * *across steps* — `stale_start[p]` carries the controller's
    ///   prediction in: when the point's previous solve converged at
    ///   once (a flat span where the warm start is already the
    ///   answer), iteration 0 reuses the cached LU;
    /// * *across iterations* — once a damped update drops below
    ///   [`JAC_STALE_DV`] the just-factorized LU is still an excellent
    ///   Newton matrix, and the next iterations (at most
    ///   [`JAC_STALE_RUN`] in a row) reuse it. A stale iteration that
    ///   fails to contract the update forces a fresh factorization, so
    ///   convergence never stalls on a frozen Jacobian.
    ///
    /// Stale iterates differ from full Newton's, which the LTE contract
    /// allows but fixed-step bit-identity does not — hence
    /// adaptive-only.
    ///
    /// Per point the arithmetic is the historical scalar solver's:
    /// same assembly order, same damping fold, same LU-cache decisions
    /// (each point's workspace replicates the two-bank policy; the
    /// shared-LU path factorizes the Jacobian every point would have
    /// produced bit-identically).
    fn newton(&mut self, run_init: &[bool], s: &Solve, conv: &mut [bool]) {
        let np = self.lanes.get();
        let dt_key = s.dt.unwrap_or(0.0).to_bits();
        let gmin_key = s.gmin.to_bits();
        self.run[..np].copy_from_slice(&run_init[..np]);
        for p in 0..np {
            if self.run[p] {
                conv[p] = false;
                self.track[p].singular = false;
                self.track[p].last_dv = f64::INFINITY;
                self.track[p].stale_run = 0;
            }
        }
        for iter in 0..s.max_iter {
            let n_run = self.run[..np].iter().filter(|&&r| r).count() as u64;
            if n_run == 0 {
                return;
            }
            self.stats.newton_iterations += n_run;
            for p in 0..np {
                if !self.run[p] {
                    continue;
                }
                self.track[p].want = if !s.modified {
                    self.plan.linear
                } else if iter == 0 {
                    self.track[p].stale_start
                } else {
                    self.track[p].last_dv < JAC_STALE_DV && self.track[p].stale_run < JAC_STALE_RUN
                };
                let ps = &mut self.pstats[p];
                ps.newton_iterations += 1;
                ps.residual_builds += 1;
            }
            if self.shared_lu {
                self.newton_shared_lu(s, dt_key, gmin_key, n_run);
            } else {
                self.newton_point_lu(s, dt_key, gmin_key, n_run);
            }
            for p in 0..np {
                if !self.run[p] {
                    continue;
                }
                let upd = self.maxdv[p] * self.scale[p];
                if upd < s.tol {
                    self.run[p] = false;
                    conv[p] = true;
                    self.track[p].iters = iter + 1;
                } else if s.modified {
                    if self.track[p].stale {
                        self.track[p].stale_run += 1;
                        // Not contracting on the frozen Jacobian: force
                        // a fresh factorization next iteration.
                        self.track[p].last_dv = if upd >= self.track[p].last_dv {
                            f64::INFINITY
                        } else {
                            upd
                        };
                    } else {
                        self.track[p].stale_run = 0;
                        self.track[p].last_dv = upd;
                    }
                }
            }
        }
    }

    /// One Newton iteration of a uniform linear batch: one LU (cached or
    /// fresh) for every running point, one plane solve. The batch rides
    /// the cached LU only when every running point wants to.
    fn newton_shared_lu(&mut self, s: &Solve, dt_key: u64, gmin_key: u64, n_run: u64) {
        let lanes = self.lanes;
        let np = lanes.get();
        let nu = self.nu;
        let want = (0..np).all(|p| !self.run[p] || self.track[p].want);
        let hit = if want {
            self.ws[0].matching(dt_key, gmin_key)
        } else {
            None
        };
        let bank = hit.unwrap_or_else(|| self.ws[0].evict_target(dt_key, gmin_key));
        // On a miss, lane 0 assembles the one shared Jacobian: every
        // stamp value is shared, so its matrix is every point's.
        self.miss.fill(false);
        self.miss[0] = hit.is_none();
        self.bank_of[0] = bank;
        let prev_plane = s.dt.map(|dt| (&self.prev[..], dt));
        assemble_plane(
            &self.stamps,
            &self.plan.gmin_rows,
            lanes,
            &self.v,
            prev_plane,
            s.gmin,
            &self.run,
            &mut self.res,
            hit.is_none()
                .then(|| JacTargets::new(&mut self.ws, &self.miss, &self.bank_of))
                .as_mut(),
            &mut self.cur,
        );
        self.stats.residual_builds += n_run;
        if hit.is_some() {
            self.ws[0].mru = bank;
            self.stats.factorization_reuses += n_run;
            for p in 0..np {
                if self.run[p] {
                    self.pstats[p].factorization_reuses += 1;
                }
            }
        } else {
            self.stats.jacobian_builds += 1;
            let bk = &mut self.ws[0].banks[bank];
            if !factorize(&mut bk.a, &mut bk.piv, nu) {
                bk.valid = false;
                // The matrix is shared: every running point fails
                // exactly as its own solve would on the same singular
                // Jacobian.
                for p in 0..np {
                    if self.run[p] {
                        self.run[p] = false;
                        self.track[p].singular = true;
                    }
                }
                return;
            }
            self.stats.factorizations += 1;
            if self.batched {
                self.stats.batched_factorizations += 1;
            }
            bk.valid = true;
            bk.dt = dt_key;
            bk.gmin = gmin_key;
            self.ws[0].mru = bank;
        }
        for p in 0..np {
            self.track[p].stale = hit.is_some();
        }
        for x in self.res.iter_mut() {
            *x = -*x;
        }
        let bk = &self.ws[0].banks[bank];
        plane_lu_solve(&bk.a, &bk.piv, nu, lanes, &mut self.res, &mut self.row);
        // Damped update: per-point max fold in slot order, then the
        // node-order application — the scalar sequence.
        self.maxdv.fill(0.0);
        let maxdv = &mut self.maxdv[..np];
        for row in self.res.chunks_exact(np) {
            for p in 0..np {
                maxdv[p] = maxdv[p].max(row[p].abs());
            }
        }
        for p in 0..np {
            self.scale[p] = if self.maxdv[p] > 0.4 {
                0.4 / self.maxdv[p]
            } else {
                1.0
            };
        }
        let all_run = n_run == np as u64;
        for (node, &slot) in self.plan.index.iter().enumerate() {
            if let Some(i) = slot {
                let vrow = node * np;
                let rrow = i * np;
                if all_run {
                    // Every point is live: the unmasked form vectorizes
                    // and applies the identical per-column operation.
                    let v = &mut self.v[vrow..vrow + np];
                    let r = &self.res[rrow..rrow + np];
                    for p in 0..np {
                        v[p] += self.scale[p] * r[p];
                    }
                } else {
                    for p in 0..np {
                        // Branch, don't multiply by a masked zero:
                        // adding `scale * 0.0` to a frozen column would
                        // flip -0.0 to +0.0 and break bit-identity.
                        if self.run[p] {
                            self.v[vrow + p] += self.scale[p] * self.res[rrow + p];
                        }
                    }
                }
            }
        }
    }

    /// One Newton iteration with a workspace per point: each point's
    /// own two-bank cache decision, one plane-wide assembly pass that
    /// fills every miss point's bank, then per-point factorization,
    /// solve and damped update.
    fn newton_point_lu(&mut self, s: &Solve, dt_key: u64, gmin_key: u64, n_run: u64) {
        let lanes = self.lanes;
        let np = lanes.get();
        let nu = self.nu;
        for p in 0..np {
            self.miss[p] = false;
            if !self.run[p] {
                continue;
            }
            let ws = &mut self.ws[p];
            let hit = if self.track[p].want {
                ws.matching(dt_key, gmin_key)
            } else {
                None
            };
            self.track[p].stale = hit.is_some();
            match hit {
                Some(i) => {
                    ws.mru = i;
                    self.bank_of[p] = i;
                    self.stats.factorization_reuses += 1;
                    self.pstats[p].factorization_reuses += 1;
                }
                None => {
                    self.miss[p] = true;
                    self.bank_of[p] = ws.evict_target(dt_key, gmin_key);
                    self.stats.jacobian_builds += 1;
                    self.pstats[p].jacobian_builds += 1;
                }
            }
        }
        let prev_plane = s.dt.map(|dt| (&self.prev[..], dt));
        assemble_plane(
            &self.stamps,
            &self.plan.gmin_rows,
            lanes,
            &self.v,
            prev_plane,
            s.gmin,
            &self.run,
            &mut self.res,
            Some(&mut JacTargets::new(
                &mut self.ws,
                &self.miss,
                &self.bank_of,
            )),
            &mut self.cur,
        );
        self.stats.residual_builds += n_run;
        for p in 0..np {
            if !self.run[p] {
                continue;
            }
            let b = self.bank_of[p];
            let ws = &mut self.ws[p];
            if self.miss[p] {
                let bk = &mut ws.banks[b];
                if !factorize(&mut bk.a, &mut bk.piv, nu) {
                    bk.valid = false;
                    self.run[p] = false;
                    self.track[p].singular = true;
                    continue;
                }
                self.stats.factorizations += 1;
                if self.batched {
                    self.stats.batched_factorizations += 1;
                }
                self.pstats[p].factorizations += 1;
                bk.valid = true;
                bk.dt = dt_key;
                bk.gmin = gmin_key;
                ws.mru = b;
            }
            for slot in 0..nu {
                self.scratch[slot] = -self.res[slot * np + p];
            }
            let bk = &ws.banks[b];
            lu_solve(&bk.a, &bk.piv, nu, &mut self.scratch);
            let max_dv = self.scratch.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
            let scale = if max_dv > 0.4 { 0.4 / max_dv } else { 1.0 };
            for (node, &slot) in self.plan.index.iter().enumerate() {
                if let Some(i) = slot {
                    self.v[node * np + p] += scale * self.scratch[i];
                }
            }
            self.maxdv[p] = max_dv;
            self.scale[p] = scale;
        }
    }

    /// The error of point `p`'s failed solve `s`, called right after
    /// [`Batch::newton`] while the column still holds the abandoned
    /// operating point. Non-convergence names the node with the largest
    /// residual there; the extra device-evaluation pass is diagnostics,
    /// not solver work, so it is left out of [`SolverStats`].
    fn failure(&mut self, p: usize, s: &Solve) -> SolverError {
        if self.track[p].singular {
            return SolverError::SingularMatrix { time: s.time };
        }
        let np = self.lanes.get();
        self.run.fill(false);
        self.run[p] = true;
        let prev_plane = s.dt.map(|dt| (&self.prev[..], dt));
        assemble_plane(
            &self.stamps,
            &self.plan.gmin_rows,
            self.lanes,
            &self.v,
            prev_plane,
            s.gmin,
            &self.run,
            &mut self.res,
            None,
            &mut self.cur,
        );
        let mut worst_slot = None;
        let mut worst_abs = 0.0f64;
        for slot in 0..self.nu {
            let r = self.res[slot * np + p].abs();
            if r > worst_abs {
                worst_abs = r;
                worst_slot = Some(slot);
            }
        }
        let worst_node = worst_slot.and_then(|slot| {
            self.plan
                .index
                .iter()
                .position(|&s| s == Some(slot))
                .map(|node| self.circuit.node_name(Node(node)).to_string())
        });
        SolverError::NonConvergence {
            time: s.time,
            iterations: s.max_iter as u64,
            worst_node,
        }
    }

    /// Lockstep DC at time `t` over the `eligible` points, per point
    /// the historical robust flow: for each initial guess, a direct
    /// attempt, the gmin ladder (every rung runs even after a rung
    /// fails, each failing rung's error kept) and a final direct
    /// attempt. `solved[p]` reports which points converged; `errs[p]`
    /// holds the error the others report.
    fn dc(
        &mut self,
        t: f64,
        eligible: &[bool],
        seed: DcSeed<'_>,
        solved: &mut [bool],
        errs: &mut [Option<SolverError>],
    ) {
        let np = self.lanes.get();
        solved.fill(false);
        for p in 0..np {
            errs[p] = eligible[p].then_some(SolverError::NonConvergence {
                time: t,
                iterations: 0,
                worst_node: None,
            });
        }
        let (rounds, ladder_gmins, nodeset): (usize, &[f64], &[(Node, f64)]) = match seed {
            DcSeed::Robust => (2, &DC_LADDER, &[]),
            DcSeed::Nodeset(nodes) => (1, &NODESET_LADDER, nodes),
        };
        let mut pending: Vec<bool> = eligible.to_vec();
        let mut conv = vec![false; np];
        let mut ladder = vec![false; np];
        let mut ladder_ok = vec![false; np];
        for round in 0..rounds {
            if !pending.iter().any(|&x| x) {
                break;
            }
            for p in 0..np {
                if !pending[p] {
                    continue;
                }
                // Mid-supply first: the natural basin for self-biased
                // CMOS (the resistive-feedback inverter settles near
                // 0.5·VDD); then the all-zero guess.
                let guess = if round == 0 {
                    0.5 * self.max_source_abs_point(p, t)
                } else {
                    0.0
                };
                for node in 0..self.nn {
                    self.v[node * np + p] = guess;
                }
                for &(node, x) in nodeset {
                    self.v[node.index() * np + p] = x;
                }
            }
            self.apply_sources_cols(t, &pending);
            let direct = Solve::dc(t, 1e-12);
            self.newton(&pending, &direct, &mut conv);
            for p in 0..np {
                ladder[p] = pending[p] && !conv[p];
                if pending[p] && conv[p] {
                    solved[p] = true;
                    pending[p] = false;
                }
            }
            if !ladder.iter().any(|&x| x) {
                continue;
            }
            ladder_ok.copy_from_slice(&ladder);
            for &gmin in ladder_gmins {
                let rung = Solve::dc(t, gmin);
                self.newton(&ladder, &rung, &mut conv);
                for p in 0..np {
                    if ladder[p] && !conv[p] {
                        ladder_ok[p] = false;
                        errs[p] = Some(self.failure(p, &rung));
                    }
                }
            }
            for p in 0..np {
                if ladder[p] && ladder_ok[p] {
                    solved[p] = true;
                    pending[p] = false;
                    ladder[p] = false;
                }
            }
            if !ladder.iter().any(|&x| x) {
                continue;
            }
            // Final ladder rung failed but earlier ones may have landed
            // close: one more direct attempt from wherever each column
            // is.
            self.newton(&ladder, &direct, &mut conv);
            for p in 0..np {
                if ladder[p] && conv[p] {
                    solved[p] = true;
                    pending[p] = false;
                }
            }
        }
    }

    /// DC of a one-point batch.
    fn dc_one(&mut self, t: f64, seed: DcSeed<'_>) -> Result<(), SolverError> {
        let mut solved = [false];
        let mut errs = [None];
        self.dc(t, &[true], seed, &mut solved, &mut errs);
        match errs[0].take() {
            Some(e) if !solved[0] => Err(e),
            _ => Ok(()),
        }
    }

    /// DC sweep of a one-point batch: source `source_index` takes each
    /// of `values` in turn. Each point continues Newton from the
    /// previous point's solution and falls back to a fresh robust solve.
    fn dc_sweep(
        &mut self,
        source_index: usize,
        values: &[f64],
    ) -> Result<Vec<Vec<f64>>, SolverError> {
        let one = [true];
        let mut conv = [false];
        let mut out = Vec::with_capacity(values.len());
        for (i, &x) in values.iter().enumerate() {
            self.srcs[source_index].1 = PerPoint::Shared(Stimulus::Dc(x));
            let continued = i > 0 && {
                self.apply_sources_cols(0.0, &one);
                self.newton(&one, &Solve::dc(0.0, 1e-12), &mut conv);
                conv[0]
            };
            if !continued {
                self.dc_one(0.0, DcSeed::Robust)?;
            }
            out.push(self.column(0));
        }
        Ok(out)
    }

    /// The non-convergence recovery ladder for the `mask`ed points whose
    /// backward-Euler step `prev → t` (companion step `dt`) failed.
    /// Only failures reach it, so a transient in which every step
    /// converges first try never enters it.
    ///
    /// Escalation, cheapest first; each rung restarts from `prev` and
    /// runs full Newton with a generous budget (a small user budget is
    /// often *why* the step failed):
    ///
    /// 1. **gmin-stepping** — re-solve the same step down a gmin ladder
    ///    ending at `config.gmin`,
    /// 2. **source-stepping** — walk the sources from their `t − dt`
    ///    values to their `t` values in quarter blends, solving at each
    ///    as a continuation,
    /// 3. **dt-cut** — integrate the span as four backward-Euler
    ///    substeps of `dt/4` (a finer discretization of the same span;
    ///    its endpoint stands in for the failed full step).
    ///
    /// On return `ok[p]` tells which points recovered (their columns
    /// hold the step solution) and the winning rungs are counted.
    fn recover(
        &mut self,
        mask: &[bool],
        dt: f64,
        t: f64,
        config: &TransientConfig,
        ok: &mut [bool],
    ) {
        let np = self.lanes.get();
        let iters = config.max_newton.max(200);
        let solve = |dt: f64, gmin: f64, time: f64| Solve {
            dt: Some(dt),
            gmin,
            max_iter: iters,
            tol: config.tol,
            time,
            modified: false,
        };
        let mut conv = vec![false; np];
        let mut alive = mask.to_vec();
        ok.fill(false);
        self.stats.recovery_attempts += mask.iter().filter(|&&m| m).count() as u64;

        // Rung 1: gmin-stepping down to the configured gmin.
        self.restart_from_prev(&alive);
        self.apply_sources_cols(t, &alive);
        for g in [1e-6, 1e-8, 1e-10, config.gmin] {
            self.newton(&alive, &solve(dt, g.max(config.gmin), t), &mut conv);
            for p in 0..np {
                alive[p] &= conv[p];
            }
        }
        for p in 0..np {
            if alive[p] {
                ok[p] = true;
                self.stats.recovered_gmin += 1;
            }
            alive[p] = mask[p] && !ok[p];
        }

        // Rung 2: source-stepping from the previous step's values.
        self.restart_from_prev(&alive);
        for alpha in [0.25, 0.5, 0.75, 1.0] {
            self.apply_sources_blend_cols(t - dt, t, alpha, &alive);
            self.newton(&alive, &solve(dt, config.gmin, t), &mut conv);
            for p in 0..np {
                alive[p] &= conv[p];
            }
        }
        for p in 0..np {
            if alive[p] {
                ok[p] = true;
                self.stats.recovered_source += 1;
            }
            alive[p] = mask[p] && !ok[p];
        }

        // Rung 3: dt-cut into four backward-Euler substeps; the
        // previous-step column walks along with them.
        self.restart_from_prev(&alive);
        let sub = 0.25 * dt;
        for j in 1..=4u32 {
            let tj = t - dt + f64::from(j) * sub;
            self.apply_sources_cols(tj, &alive);
            self.newton(&alive, &solve(sub, config.gmin, tj), &mut conv);
            for p in 0..np {
                alive[p] &= conv[p];
            }
            for node in 0..self.nn {
                for p in 0..np {
                    if alive[p] {
                        self.prev[node * np + p] = self.v[node * np + p];
                    }
                }
            }
        }
        for p in 0..np {
            if alive[p] {
                ok[p] = true;
                self.stats.recovered_dt_cut += 1;
            }
        }
    }

    /// Handles the points of `lockstep` whose step solve `s` did not
    /// converge: a multi-point batch retires them; a one-point batch
    /// runs the recovery ladder and ends the point with the step's
    /// error only if every rung fails. Returns the points that
    /// recovered (no allocation when every point converged).
    fn rescue(
        &mut self,
        lockstep: &mut [bool],
        conv: &[bool],
        s: &Solve,
        config: &TransientConfig,
        failed: &mut [Option<SolverError>],
    ) -> Vec<usize> {
        let np = self.lanes.get();
        if (0..np).all(|p| !lockstep[p] || conv[p]) {
            return Vec::new();
        }
        let mask: Vec<bool> = (0..np).map(|p| lockstep[p] && !conv[p]).collect();
        if self.retire {
            for p in 0..np {
                if mask[p] {
                    lockstep[p] = false;
                    self.stats.batch_retirements += 1;
                }
            }
            return Vec::new();
        }
        let errs: Vec<Option<SolverError>> = (0..np)
            .map(|p| mask[p].then(|| self.failure(p, s)))
            .collect();
        let dt = s.dt.expect("transient step");
        let mut ok = vec![false; np];
        self.recover(&mask, dt, s.time, config, &mut ok);
        for (p, err) in errs.into_iter().enumerate() {
            if let Some(err) = err.filter(|_| !ok[p]) {
                self.end_point(p, lockstep, failed, err);
            }
        }
        (0..np).filter(|&p| ok[p]).collect()
    }

    /// Runs the DC operating point at `t = 0` for the `lockstep`
    /// points and takes the failures out.
    fn initial_dc(&mut self, lockstep: &mut [bool], failed: &mut [Option<SolverError>]) {
        let np = self.lanes.get();
        let mut solved = vec![false; np];
        let mut errs = vec![None; np];
        let eligible = lockstep.to_vec();
        self.dc(0.0, &eligible, DcSeed::Robust, &mut solved, &mut errs);
        for p in 0..np {
            if lockstep[p] && !solved[p] {
                let err = errs[p].take().expect("failed point has an error");
                self.end_point(p, lockstep, failed, err);
            }
        }
    }

    /// Transient of every `lockstep` point under `config`.
    fn transient(&mut self, config: &TransientConfig) -> Vec<Outcome> {
        let mut lockstep = vec![true; self.lanes.get()];
        let mut failed = vec![None; self.lanes.get()];
        self.initial_dc(&mut lockstep, &mut failed);
        let waves = match config.step {
            StepMode::Fixed(dt) => self.run_fixed(dt, config, &mut lockstep, &mut failed),
            StepMode::Adaptive {
                dt_min,
                dt_max,
                lte_tol,
            } => self.run_adaptive(dt_min, dt_max, lte_tol, config, &mut lockstep, &mut failed),
        };
        waves
            .into_iter()
            .zip(failed)
            .map(|(w, e)| match (w, e) {
                (Some(w), _) => Some(Ok(w)),
                (None, Some(e)) => Some(Err(e)),
                (None, None) => None,
            })
            .collect()
    }

    /// Fixed-step lockstep transient: uniform backward-Euler steps of
    /// `dt` from the DC point. Returns the waveforms of the points still
    /// in the lockstep at the end.
    fn run_fixed(
        &mut self,
        dt: f64,
        config: &TransientConfig,
        lockstep: &mut [bool],
        failed: &mut [Option<SolverError>],
    ) -> Vec<Option<Vec<Waveform>>> {
        let np = self.lanes.get();
        let nn = self.nn;
        let steps = (config.t_end / dt).ceil() as usize;
        let rows = steps + 1;
        // One preallocated `rows`-long buffer per `(node, point)`
        // waveform, in the same `node * np + p` order as the voltage
        // plane — recording a step is a single sweep zipping `v`
        // against the buffers, with no per-sample `Vec` bookkeeping,
        // and each buffer is handed to its `Waveform` without a copy.
        // Points that left the lockstep keep their buffers (garbage
        // past the exit); the output loop skips them.
        let mut bufs: Vec<Vec<f64>> = (0..nn * np).map(|_| vec![0.0; rows]).collect();
        self.prev.copy_from_slice(&self.v);
        let mut conv = vec![false; np];
        {
            // Flat slice views over the buffers, hoisted out of the step
            // loop: the recording sweep then reads (ptr, len) pairs from
            // one contiguous array instead of chasing a `Vec` header per
            // waveform per step.
            let mut views: Vec<&mut [f64]> = bufs.iter_mut().map(|b| &mut b[..]).collect();
            for (s, &vi) in views.iter_mut().zip(self.v.iter()) {
                s[0] = vi;
            }
            for k in 1..=steps {
                if !lockstep.iter().any(|&x| x) {
                    break;
                }
                let t = k as f64 * dt;
                self.apply_sources_cols(t, lockstep);
                let s = Solve::step(dt, config, config.tol, t, false);
                self.newton(lockstep, &s, &mut conv);
                self.rescue(lockstep, &conv, &s, config, failed);
                for (s, &vi) in views.iter_mut().zip(self.v.iter()) {
                    s[k] = vi;
                }
                self.prev.copy_from_slice(&self.v);
                for p in 0..np {
                    if lockstep[p] {
                        self.stats.steps_taken += 1;
                        self.pstats[p].steps_taken += 1;
                    }
                }
            }
        }
        (0..np)
            .map(|p| {
                lockstep[p].then(|| {
                    (0..nn)
                        .map(|node| {
                            Waveform::new(0.0, dt, std::mem::take(&mut bufs[node * np + p]))
                        })
                        .collect()
                })
            })
            .collect()
    }

    /// Adaptive lockstep transient on the union time grid: one step
    /// controller (candidate `h`, budget, floor streak) drives the
    /// batch; each candidate step is accepted or rejected on the worst
    /// point's LTE, and per-point masks handle convergence inside each
    /// Newton solve. Every point keeps its own modified-Newton state.
    ///
    /// Plain steps take one backward-Euler solve and estimate the LTE
    /// from the second divided difference across the last two spans;
    /// history-less steps (the start of the run) take the rigorous
    /// step-doubling probe — one solve at `h`, two at `h/2`, whose gap
    /// bounds the LTE. Accepted spans are linearly resampled onto the
    /// uniform `dt_min` output grid. A Newton failure above the floor
    /// rejects the step for the whole batch (retry at smaller `h`); a
    /// failure *at* the floor has no smaller step to retry at, so it
    /// goes to [`Batch::rescue`].
    fn run_adaptive(
        &mut self,
        dt_min: f64,
        dt_max: f64,
        lte_tol: f64,
        config: &TransientConfig,
        lockstep: &mut [bool],
        failed: &mut [Option<SolverError>],
    ) -> Vec<Option<Vec<Waveform>>> {
        assert!(dt_min > 0.0, "dt_min must be positive");
        assert!(dt_max >= dt_min, "dt_max must be >= dt_min");
        assert!(lte_tol > 0.0, "lte_tol must be positive");
        let np = self.lanes.get();
        let nn = self.nn;
        let out_dt = dt_min;
        let n_out = (config.t_end / out_dt).ceil() as usize;
        let t_stop = n_out as f64 * out_dt;

        let mut bufs: Vec<Vec<Vec<f64>>> = (0..np)
            .map(|p| {
                if lockstep[p] {
                    (0..nn).map(|_| Vec::with_capacity(n_out + 1)).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        push_plane(&mut bufs, &self.v, lockstep, self.lanes);
        // Next output-grid index to fill; accepted spans lerp onto it.
        let mut next_out = 1usize;
        let mut t = 0.0f64;
        let mut h = dt_min;
        let mut floor_streak = 0usize;
        // History of the last accepted span, for the divided-difference
        // LTE of plain steps. `h_prev == 0` means no usable history: the
        // next step must be a doubling probe.
        let mut h_prev = 0.0f64;
        let mut v_prevstep = vec![0.0; nn * np];
        // Runaway guard: an accepted floor step advances at least
        // dt_min and a rejection halves h, so this bound is generous.
        let mut budget: u64 = 16 * n_out as u64 + 4096;
        let mut v_cur = self.v.clone();
        let mut v_big = vec![0.0; nn * np];
        let mut v_half = vec![0.0; nn * np];
        let mut worst = vec![0usize; np];
        let mut conv = vec![false; np];
        // `stale_start` doubles as each point's fast streak: did its
        // last solve converge at once, so the next may open on the
        // cached LU?
        for t in &mut self.track {
            t.stale_start = false;
        }
        // The LTE bound, not the Newton tolerance, limits accuracy in
        // this mode — solving each step far below the accepted
        // truncation error only burns device evaluations. The big probe
        // step exists purely as the LTE probe, so it gets an even looser
        // target.
        let ntol = config.tol.max(0.03 * lte_tol);
        let ntol_big = config.tol.max(0.1 * lte_tol);
        let any_failed =
            |lockstep: &[bool], conv: &[bool]| lockstep.iter().zip(conv).any(|(&l, &c)| l && !c);

        while next_out <= n_out && lockstep.iter().any(|&x| x) {
            if t_stop - t < 0.5 * out_dt * 1e-6 {
                break;
            }
            budget = budget.saturating_sub(1);
            if budget == 0 {
                for p in 0..np {
                    if lockstep[p] {
                        let err = SolverError::NonConvergence {
                            time: t,
                            iterations: 0,
                            worst_node: None,
                        };
                        self.end_point(p, lockstep, failed, err);
                    }
                }
                break;
            }
            let h_eff = h.min(t_stop - t);
            // A fast source move shifts the operating point: the cached
            // LU no longer approximates the Jacobian there. Solution
            // history stays — the divided-difference LTE sees any real
            // discontinuity as huge curvature and rejects the step on
            // its own, which is exactly the right response.
            if self.source_jump_any(t, t + h_eff, lockstep) > SOURCE_JUMP_V {
                self.invalidate_ws();
            }
            v_cur.copy_from_slice(&self.v);
            self.prev.copy_from_slice(&v_cur);
            if h_eff <= dt_min * (1.0 + 1e-9) {
                // At the floor there is nothing to refine against: take
                // the backward-Euler step and accept it.
                self.apply_sources_cols(t + h_eff, lockstep);
                let s = Solve::step(h_eff, config, ntol, t + h_eff, true);
                self.newton(lockstep, &s, &mut conv);
                for p in self.rescue(lockstep, &conv, &s, config, failed) {
                    // Resume with a cold LU cache.
                    self.invalidate_point(p);
                    self.track[p].iters = SLOW_STEP_ITERS;
                }
                for p in 0..np {
                    if !lockstep[p] {
                        continue;
                    }
                    self.track[p].stale_start = self.track[p].iters <= 1;
                    if self.track[p].iters > SLOW_STEP_ITERS {
                        self.invalidate_point(p);
                    }
                    self.stats.steps_taken += 1;
                    self.pstats[p].steps_taken += 1;
                }
                for p in 0..np {
                    if !lockstep[p] {
                        bufs[p].clear();
                    }
                }
                emit_plane(
                    &mut bufs,
                    &mut next_out,
                    n_out,
                    out_dt,
                    t,
                    &v_cur,
                    t + h_eff,
                    &self.v,
                    lockstep,
                    self.lanes,
                );
                v_prevstep.copy_from_slice(&v_cur);
                h_prev = h_eff;
                t += h_eff;
                floor_streak += 1;
                if floor_streak >= 4 {
                    // Probe growth: the next step is LTE-tested, so a
                    // wrong guess costs one rejection, not accuracy.
                    h = (2.0 * dt_min).min(dt_max);
                    floor_streak = 0;
                }
                continue;
            }
            floor_streak = 0;

            let (lte, steps) = if h_prev > 0.0 {
                // Plain step: with an accepted span behind us, one solve
                // suffices — the LTE comes free from the second divided
                // difference across the last two spans, scale-matched to
                // the doubling defect (both are h²·v''/4 estimators).
                // Warm start by linear extrapolation of the last span
                // (source rows get overwritten below).
                for i in 0..nn * np {
                    self.v[i] = v_cur[i] + (v_cur[i] - v_prevstep[i]) * (h_eff / h_prev);
                }
                self.apply_sources_cols(t + h_eff, lockstep);
                let s = Solve::step(h_eff, config, ntol, t + h_eff, true);
                self.newton(lockstep, &s, &mut conv);
                if any_failed(lockstep, &conv) {
                    self.reject_newton(&v_cur, &mut h, h_eff, dt_min);
                    continue;
                }
                for p in 0..np {
                    worst[p] = self.track[p].iters;
                    self.track[p].stale_start = self.track[p].iters <= 1;
                }
                let mut lte = 0.0f64;
                for p in 0..np {
                    if !lockstep[p] {
                        continue;
                    }
                    for node in 0..nn {
                        let i = node * np + p;
                        let d1 = (self.v[i] - v_cur[i]) / h_eff;
                        let d0 = (v_cur[i] - v_prevstep[i]) / h_prev;
                        let vpp = 2.0 * (d1 - d0) / (h_eff + h_prev);
                        lte = lte.max((0.25 * h_eff * h_eff * vpp).abs());
                    }
                }
                (lte, 1)
            } else {
                // History-less: the step-doubling probe. The half-step
                // solves warm-start from the big-step solution (midpoint
                // lerp, then the endpoint itself) — pure initial
                // guesses; the Newton tolerance decides accuracy.
                let half = 0.5 * h_eff;
                self.apply_sources_cols(t + h_eff, lockstep);
                self.newton(
                    lockstep,
                    &Solve::step(h_eff, config, ntol_big, t + h_eff, true),
                    &mut conv,
                );
                if any_failed(lockstep, &conv) {
                    self.reject_newton(&v_cur, &mut h, h_eff, dt_min);
                    continue;
                }
                for p in 0..np {
                    worst[p] = self.track[p].iters;
                    self.track[p].stale_start = self.track[p].iters <= 1;
                }
                v_big.copy_from_slice(&self.v);
                for i in 0..nn * np {
                    self.v[i] = 0.5 * (v_cur[i] + v_big[i]);
                }
                self.apply_sources_cols(t + half, lockstep);
                self.newton(
                    lockstep,
                    &Solve::step(half, config, ntol, t + half, true),
                    &mut conv,
                );
                if any_failed(lockstep, &conv) {
                    self.reject_newton(&v_cur, &mut h, h_eff, dt_min);
                    continue;
                }
                for p in 0..np {
                    worst[p] = worst[p].max(self.track[p].iters);
                    self.track[p].stale_start = self.track[p].iters <= 1;
                }
                v_half.copy_from_slice(&self.v);
                self.v.copy_from_slice(&v_big);
                self.prev.copy_from_slice(&v_half);
                self.apply_sources_cols(t + h_eff, lockstep);
                self.newton(
                    lockstep,
                    &Solve::step(half, config, ntol, t + h_eff, true),
                    &mut conv,
                );
                if any_failed(lockstep, &conv) {
                    self.reject_newton(&v_cur, &mut h, h_eff, dt_min);
                    continue;
                }
                for p in 0..np {
                    worst[p] = worst[p].max(self.track[p].iters);
                    self.track[p].stale_start = worst[p] <= 1;
                }
                let mut lte = 0.0f64;
                for p in 0..np {
                    if !lockstep[p] {
                        continue;
                    }
                    for node in 0..nn {
                        let i = node * np + p;
                        lte = lte.max((v_big[i] - self.v[i]).abs());
                    }
                }
                (lte, 2)
            };
            if lte <= lte_tol {
                for p in 0..np {
                    if !lockstep[p] {
                        continue;
                    }
                    if worst[p] > SLOW_STEP_ITERS {
                        self.invalidate_point(p);
                    }
                    self.stats.steps_taken += steps;
                    self.pstats[p].steps_taken += steps;
                }
                // A doubling probe accepted two half steps: emit the
                // first, then the span from its end.
                let (t_mid, v_mid) = if steps == 2 {
                    let t_half = t + 0.5 * h_eff;
                    emit_plane(
                        &mut bufs,
                        &mut next_out,
                        n_out,
                        out_dt,
                        t,
                        &v_cur,
                        t_half,
                        &v_half,
                        lockstep,
                        self.lanes,
                    );
                    (t_half, &v_half)
                } else {
                    (t, &v_cur)
                };
                emit_plane(
                    &mut bufs,
                    &mut next_out,
                    n_out,
                    out_dt,
                    t_mid,
                    v_mid,
                    t + h_eff,
                    &self.v,
                    lockstep,
                    self.lanes,
                );
                v_prevstep.copy_from_slice(&v_cur);
                h_prev = h_eff;
                t += h_eff;
                h = if lte < 0.25 * lte_tol {
                    (2.0 * h_eff).min(dt_max)
                } else if lte < 0.6 * lte_tol {
                    h_eff.min(dt_max)
                } else {
                    // Hysteresis: an LTE brushing the bound would
                    // oscillate accept/reject at a fixed h; back off a
                    // little while still accepting.
                    (0.8 * h_eff).max(dt_min)
                };
            } else {
                // Proportional back-off: the LTE of a first-order method
                // scales as h², so jump straight to the step the
                // measured LTE implies instead of cascading through
                // halvings.
                self.stats.steps_rejected += 1;
                self.v.copy_from_slice(&v_cur);
                let shrink = (0.9 * (lte_tol / lte).sqrt()).clamp(0.1, 0.5);
                h = (shrink * h_eff).max(dt_min);
            }
        }
        // Float drift can leave the last grid points unfilled; hold the
        // final value.
        (0..np)
            .map(|p| {
                lockstep[p].then(|| {
                    std::mem::take(&mut bufs[p])
                        .into_iter()
                        .map(|mut samples| {
                            while samples.len() < n_out + 1 {
                                let last = *samples.last().expect("has the DC sample");
                                samples.push(last);
                            }
                            Waveform::new(0.0, out_dt, samples)
                        })
                        .collect()
                })
            })
            .collect()
    }

    /// A Newton failure above the adaptive floor: restore the step's
    /// start, drop every cached LU and fast streak, and retry at half
    /// the step.
    fn reject_newton(&mut self, v_cur: &[f64], h: &mut f64, h_eff: f64, dt_min: f64) {
        self.v.copy_from_slice(v_cur);
        self.invalidate_ws();
        for t in &mut self.track {
            t.stale_start = false;
        }
        self.stats.steps_rejected += 1;
        *h = (0.5 * h_eff).max(dt_min);
    }
}

/// Per-point outcomes of [`Solver::run_transient_batched`]: one
/// `Result` per input [`PointOverride`], in input order, plus the
/// merged batch statistics (lockstep work and retirement re-solves
/// combined).
#[derive(Debug)]
pub struct BatchedTransientResult {
    results: Vec<Result<TransientResult, SolverError>>,
    stats: SolverStats,
}

impl BatchedTransientResult {
    /// The per-point results, in input order.
    pub fn results(&self) -> &[Result<TransientResult, SolverError>] {
        &self.results
    }

    /// Consumes the batch, yielding the per-point results.
    pub fn into_results(self) -> Vec<Result<TransientResult, SolverError>> {
        self.results
    }

    /// Statistics for the whole batch (lockstep plus re-solves). The
    /// batched counters (`batched_points`, `batch_retirements`,
    /// `batched_factorizations`) live here.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }
}

/// Per-point outcomes of [`Solver::dc_batched`]: node-voltage vectors
/// in input order plus merged batch statistics.
#[derive(Debug)]
pub struct BatchedDcResult {
    results: Vec<Result<Vec<f64>, SolverError>>,
    stats: SolverStats,
}

impl BatchedDcResult {
    /// The per-point node-voltage vectors, in input order.
    pub fn results(&self) -> &[Result<Vec<f64>, SolverError>] {
        &self.results
    }

    /// Consumes the batch, yielding the per-point vectors.
    pub fn into_results(self) -> Vec<Result<Vec<f64>, SolverError>> {
        self.results
    }

    /// Statistics for the whole batch (lockstep plus re-solves).
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }
}

/// A one-point transient of `circuit`: its waveforms and counters.
pub(super) fn transient_one(
    plan: &StampPlan,
    circuit: &Circuit,
    config: &TransientConfig,
) -> (Result<Vec<Waveform>, SolverError>, SolverStats) {
    let mut batch = Batch::new(plan, circuit, &[PointOverride::new()], false, OneLane);
    let out = batch
        .transient(config)
        .pop()
        .flatten()
        .expect("a one-point batch never retires");
    (out, batch.stats)
}

/// A one-point DC solve of `circuit` at time `t`.
pub(super) fn dc_one(
    plan: &StampPlan,
    circuit: &Circuit,
    t: f64,
    seed: DcSeed<'_>,
) -> (Result<Vec<f64>, SolverError>, SolverStats) {
    let mut batch = Batch::new(plan, circuit, &[PointOverride::new()], false, OneLane);
    let out = batch.dc_one(t, seed).map(|()| batch.column(0));
    (out, batch.stats)
}

/// A one-point DC sweep of source `source_index` over `values`, with
/// continuation from each point to the next.
pub(super) fn dc_sweep_one(
    plan: &StampPlan,
    circuit: &Circuit,
    source_index: usize,
    values: &[f64],
) -> (Result<Vec<Vec<f64>>, SolverError>, SolverStats) {
    let mut batch = Batch::new(plan, circuit, &[PointOverride::new()], false, OneLane);
    let out = batch.dc_sweep(source_index, values);
    (out, batch.stats)
}

impl Solver<'_> {
    /// Solves one transient per [`PointOverride`] in lockstep against
    /// this solver's circuit and compiled plan. Results come back in
    /// input order; each point's entry is exactly what
    /// [`Solver::run_transient`] of
    /// [`PointOverride::circuit_for_point`] would return — bit-identical
    /// in `Fixed` mode (retired points literally run that solve,
    /// recovery ladder included), LTE-bounded in `Adaptive` mode.
    ///
    /// # Panics
    ///
    /// Panics if an override breaks the shared topology.
    pub fn run_transient_batched(
        &mut self,
        points: &[PointOverride],
        config: &TransientConfig,
    ) -> BatchedTransientResult {
        let np = points.len();
        if np == 0 {
            return BatchedTransientResult {
                results: Vec::new(),
                stats: SolverStats::default(),
            };
        }
        let _span = telemetry::span("analog.batched_transient");
        let before = self.stats;
        let started = Instant::now();
        self.stats.batched_points += np as u64;
        let (partial, pstats) = {
            let mut batch = Batch::new(&self.plan, self.circuit, points, true, np);
            let out = batch.transient(config);
            self.stats.merge(&batch.stats);
            (out, batch.pstats)
        };
        self.stats.total_time += started.elapsed();
        // Emit the lockstep share now: each retirement re-solve below
        // runs `run_transient`, which emits its own telemetry delta —
        // emitting once at the end would double-count them.
        self.stats.since(&before).record_telemetry();
        let mut results = Vec::with_capacity(np);
        for (p, (out, stats)) in partial.into_iter().zip(pstats).enumerate() {
            results.push(match out {
                Some(r) => r.map(|waveforms| TransientResult { waveforms, stats }),
                None => {
                    let pc = points[p].circuit_for_point(self.circuit);
                    let mut alone = Solver::new(&pc);
                    let r = alone.run_transient(config);
                    self.stats.merge(&alone.stats);
                    r
                }
            });
        }
        let stats = self.stats.since(&before);
        BatchedTransientResult { results, stats }
    }

    /// Solves one DC operating point per [`PointOverride`] in lockstep.
    /// Per point the flow (and in the uniform fixed-topology case, the
    /// arithmetic) is the robust DC solve; points the lockstep cannot
    /// converge are retired to [`super::dc_operating_point`] on their
    /// materialized circuit.
    ///
    /// # Panics
    ///
    /// Panics if an override breaks the shared topology.
    pub fn dc_batched(&mut self, points: &[PointOverride]) -> BatchedDcResult {
        let np = points.len();
        if np == 0 {
            return BatchedDcResult {
                results: Vec::new(),
                stats: SolverStats::default(),
            };
        }
        let _span = telemetry::span("analog.batched_dc");
        let before = self.stats;
        let started = Instant::now();
        self.stats.batched_points += np as u64;
        let cols: Vec<Option<Result<Vec<f64>, SolverError>>> = {
            let mut batch = Batch::new(&self.plan, self.circuit, points, true, np);
            let mut solved = vec![false; np];
            let mut errs = vec![None; np];
            batch.dc(0.0, &vec![true; np], DcSeed::Robust, &mut solved, &mut errs);
            let cols = (0..np)
                .map(|p| {
                    if solved[p] {
                        Some(Ok(batch.column(p)))
                    } else if batch.retire {
                        batch.stats.batch_retirements += 1;
                        None
                    } else {
                        errs[p].take().map(Err)
                    }
                })
                .collect();
            self.stats.merge(&batch.stats);
            cols
        };
        self.stats.total_time += started.elapsed();
        // Lockstep share only — retirement re-solves emit their own.
        self.stats.since(&before).record_telemetry();
        let mut results = Vec::with_capacity(np);
        for (p, col) in cols.into_iter().enumerate() {
            results.push(match col {
                Some(r) => r,
                None => {
                    let pc = points[p].circuit_for_point(self.circuit);
                    super::dc_operating_point(&pc).map(|sol| {
                        self.stats.merge(sol.stats());
                        sol.into_voltages()
                    })
                }
            });
        }
        let stats = self.stats.since(&before);
        BatchedDcResult { results, stats }
    }
}

/// One `DC_SWEEP_BATCH`-sized chunk of a batched DC sweep, as one
/// lockstep batch: the worker body of [`super::dc_sweep_with_threads`].
pub(super) fn dc_sweep_chunk(
    circuit: &Circuit,
    source_index: usize,
    values: &[f64],
) -> Result<(Vec<Vec<f64>>, SolverStats), SolverError> {
    let overrides: Vec<PointOverride> = values
        .iter()
        .map(|&x| PointOverride::new().with_source_dc(source_index, x))
        .collect();
    let mut solver = Solver::new(circuit);
    let out = solver.dc_batched(&overrides);
    let stats = out.stats;
    let mut points = Vec::with_capacity(values.len());
    for r in out.results {
        points.push(r?);
    }
    Ok((points, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{add_inverter, InverterSize};
    use openserdes_pdk::corner::Pvt;

    #[test]
    fn nonconvergence_error_names_worst_residual_node() {
        let pvt = Pvt::nominal();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(pvt.vdd.value()));
        c.vsource(vin, Stimulus::Dc(0.0));
        add_inverter(&mut c, &pvt, InverterSize::unit(), vin, vout, vdd);
        let plan = StampPlan::new(&c);
        let mut batch = Batch::new(&plan, &c, &[PointOverride::new()], false, OneLane);
        // One damped iteration from an all-zero guess cannot pull the
        // output to VDD, so this must fail — with diagnostics.
        let one = [true];
        let mut conv = [false];
        batch.apply_sources_cols(0.0, &one);
        let solve = Solve {
            max_iter: 1,
            ..Solve::dc(0.0, 1e-12)
        };
        batch.newton(&one, &solve, &mut conv);
        assert!(!conv[0], "one iteration cannot converge");
        match batch.failure(0, &solve) {
            SolverError::NonConvergence {
                iterations,
                worst_node,
                ..
            } => {
                assert_eq!(iterations, 1);
                assert_eq!(worst_node.as_deref(), Some("vout"));
            }
            other => panic!("expected NonConvergence, got {other}"),
        }
    }
}
