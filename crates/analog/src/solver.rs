//! Nonlinear DC and transient solver (Newton–Raphson + backward Euler).
//!
//! A compact SPICE core sufficient for the paper's analog content:
//! inverter chains, pseudo-resistors, coupling capacitors and RC
//! channels. Voltage sources are grounded and handled by node
//! elimination; the Jacobian uses the analytic `gm`/`gds` of the PDK MOS
//! model; `gmin` stepping provides DC convergence for the
//! high-impedance self-biased nodes the receiver relies on.
//!
//! # Architecture
//!
//! The solver is built around three reusable pieces (DESIGN.md §11):
//!
//! * `StampPlan` — per-topology compilation pass. Every element's
//!   matrix positions (flat row-major indices into the Jacobian and
//!   residual) are resolved **once**, so assembly is a linear walk over
//!   precomputed slots with zero allocation and zero index translation
//!   per Newton iteration.
//! * [`batched`] — the one Newton/DC/transient engine. It solves a
//!   batch of operating points of one topology in lockstep; every plain
//!   entry point ([`transient`], [`dc_operating_point`], [`dc_sweep`],
//!   [`Solver::run_transient`], …) is a batch of one point. Each point
//!   keeps a two-bank LU cache: pure-linear circuits (RC channels)
//!   factorize exactly once per `(dt, gmin)` pair for an entire
//!   transient; nonlinear circuits reuse a stale factorization under
//!   modified Newton when the adaptive path is active.
//! * [`StepMode`] — `Fixed(dt)` replays the historical fixed-step
//!   backward-Euler loop **bit-identically** (guarded by regression
//!   tests against the [`reference`](mod@reference) module);
//!   `Adaptive` adds step-doubling local truncation error control that
//!   walks coarsely over settled spans and refines at NRZ edges,
//!   resampled onto the uniform [`Waveform`] grid.
//!
//! Every public entry point reports [`SolverStats`] so benches and
//! callers can see Newton iteration counts, factorization reuse rates
//! and step acceptance without instrumenting the hot loop themselves.

use crate::circuit::{Circuit, Element, Node};
use crate::waveform::Waveform;
use openserdes_pdk::mos::{MosDevice, MosType};
use openserdes_telemetry as telemetry;
use std::error::Error;
use std::fmt;
use std::ops::Deref;
use std::time::{Duration, Instant};

pub mod batched;
pub mod reference;

/// Solver failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// Newton iteration failed to converge.
    NonConvergence {
        /// Simulation time at the failing step (0 for DC).
        time: f64,
        /// Newton iterations spent before giving up (0 when the
        /// failure was assembled without running an iteration, e.g.
        /// the adaptive step-budget guard).
        iterations: u64,
        /// Name of the node with the largest residual magnitude at
        /// the abandoned operating point, when known.
        worst_node: Option<String>,
    },
    /// The Jacobian became singular (floating node or bad topology).
    SingularMatrix {
        /// Simulation time at the failing step (0 for DC).
        time: f64,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NonConvergence {
                time,
                iterations,
                worst_node,
            } => {
                write!(f, "newton iteration did not converge at t = {time:.3e} s")?;
                if *iterations > 0 {
                    write!(f, " after {iterations} iterations")?;
                }
                if let Some(node) = worst_node {
                    write!(f, " (worst residual at node `{node}`)")?;
                }
                Ok(())
            }
            SolverError::SingularMatrix { time } => {
                write!(f, "singular jacobian at t = {time:.3e} s (floating node?)")
            }
        }
    }
}

impl Error for SolverError {}

/// Time-stepping strategy for [`transient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepMode {
    /// Uniform backward-Euler steps of the given size in seconds. This
    /// is the historical behavior and stays bit-identical to the
    /// pre-refactor solver (see the [`reference`](mod@reference)
    /// module).
    Fixed(f64),
    /// Step-doubling LTE control: each candidate step of size `h` is
    /// taken once at `h` and twice at `h/2`; the difference bounds the
    /// local truncation error. Steps halve (down to `dt_min`) when the
    /// estimate exceeds `lte_tol` volts and double (up to `dt_max`)
    /// when it is comfortably inside. Output is resampled onto a
    /// uniform grid of `dt_min`.
    Adaptive {
        /// Smallest allowed step and the output grid pitch, seconds.
        dt_min: f64,
        /// Largest allowed step, seconds.
        dt_max: f64,
        /// Accepted per-step local truncation error bound, volts.
        lte_tol: f64,
    },
}

/// Transient analysis configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Time-stepping strategy (fixed step by default).
    pub step: StepMode,
    /// End time in seconds (the run covers `0..=t_end`).
    pub t_end: f64,
    /// Maximum Newton iterations per step.
    pub max_newton: usize,
    /// Convergence tolerance on voltage updates, in volts.
    pub tol: f64,
    /// Stabilizing conductance from every node to ground, in siemens.
    pub gmin: f64,
}

impl TransientConfig {
    /// The canonical constructor: fixed 1 ps steps up to `t_end`, the
    /// solver's default Newton budget and tolerances. Refine with the
    /// consuming `with_*` builders:
    ///
    /// ```
    /// use openserdes_analog::solver::TransientConfig;
    ///
    /// let cfg = TransientConfig::until(5e-9)
    ///     .with_fixed_dt(2e-12)
    ///     .with_max_newton(200);
    /// assert_eq!(cfg.out_dt(), 2e-12);
    /// ```
    pub fn until(t_end: f64) -> Self {
        Self {
            step: StepMode::Fixed(1.0e-12),
            t_end,
            max_newton: 120,
            tol: 1.0e-7,
            gmin: 1.0e-12,
        }
    }

    /// Uniform backward-Euler steps of `dt` seconds.
    #[must_use]
    pub fn with_fixed_dt(mut self, dt: f64) -> Self {
        self.step = StepMode::Fixed(dt);
        self
    }

    /// Step-doubling LTE control between `dt_min` and `dt_max`, with
    /// the accepted per-step error bound `lte_tol` volts; the output
    /// waveform grid is `dt_min`.
    #[must_use]
    pub fn with_adaptive_steps(mut self, dt_min: f64, dt_max: f64, lte_tol: f64) -> Self {
        self.step = StepMode::Adaptive {
            dt_min,
            dt_max,
            lte_tol,
        };
        self
    }

    /// Maximum Newton iterations per step.
    #[must_use]
    pub fn with_max_newton(mut self, max_newton: usize) -> Self {
        self.max_newton = max_newton;
        self
    }

    /// Convergence tolerance on voltage updates, volts.
    #[must_use]
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Stabilizing node-to-ground conductance, siemens.
    #[must_use]
    pub fn with_gmin(mut self, gmin: f64) -> Self {
        self.gmin = gmin;
        self
    }

    /// The uniform output-grid pitch the run produces: the fixed step,
    /// or `dt_min` for adaptive runs.
    pub fn out_dt(&self) -> f64 {
        match self.step {
            StepMode::Fixed(dt) => dt,
            StepMode::Adaptive { dt_min, .. } => dt_min,
        }
    }
}

/// Counters from one or more solves, mirroring `LinkStats` on the
/// digital side: enough to see where the time went without profiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Newton iterations across all solves.
    pub newton_iterations: u64,
    /// Residual-vector assemblies (one per Newton iteration).
    pub residual_builds: u64,
    /// Jacobian assemblies (≤ residual builds when the LU is reused).
    pub jacobian_builds: u64,
    /// LU factorizations performed.
    pub factorizations: u64,
    /// Newton iterations that reused a previously computed LU.
    pub factorization_reuses: u64,
    /// Accepted time steps.
    pub steps_taken: u64,
    /// Rejected time steps (adaptive mode: LTE too large or Newton
    /// failed at a step larger than `dt_min`).
    pub steps_rejected: u64,
    /// Steps that entered the non-convergence recovery ladder
    /// (gmin-stepping → source-stepping → dt-cut).
    pub recovery_attempts: u64,
    /// Recoveries resolved by the gmin-stepping rung.
    pub recovered_gmin: u64,
    /// Recoveries resolved by the source-stepping rung.
    pub recovered_source: u64,
    /// Recoveries resolved by the dt-cut rung.
    pub recovered_dt_cut: u64,
    /// Points that entered a batched (lockstep multi-point) solve
    /// through [`Solver::run_transient_batched`] or
    /// [`Solver::dc_batched`].
    pub batched_points: u64,
    /// Points retired early from a multi-point batch (DC or step
    /// failure, budget exhaustion) and re-solved as one-point batches
    /// through the full recovery ladder.
    pub batch_retirements: u64,
    /// LU factorizations performed inside a batch entered through a
    /// batched entry point (a subset of `factorizations`). On a uniform
    /// linear batch each one is computed once and shared across every
    /// active point.
    pub batched_factorizations: u64,
    /// Wall-clock time spent inside the solver.
    pub total_time: Duration,
}

impl SolverStats {
    /// Fraction of Newton iterations that skipped the factorization,
    /// in `0.0..=1.0`.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.factorizations + self.factorization_reuses;
        if total == 0 {
            0.0
        } else {
            self.factorization_reuses as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (for summing per-stage stats).
    pub fn merge(&mut self, other: &SolverStats) {
        self.newton_iterations += other.newton_iterations;
        self.residual_builds += other.residual_builds;
        self.jacobian_builds += other.jacobian_builds;
        self.factorizations += other.factorizations;
        self.factorization_reuses += other.factorization_reuses;
        self.steps_taken += other.steps_taken;
        self.steps_rejected += other.steps_rejected;
        self.recovery_attempts += other.recovery_attempts;
        self.recovered_gmin += other.recovered_gmin;
        self.recovered_source += other.recovered_source;
        self.recovered_dt_cut += other.recovered_dt_cut;
        self.batched_points += other.batched_points;
        self.batch_retirements += other.batch_retirements;
        self.batched_factorizations += other.batched_factorizations;
        self.total_time += other.total_time;
    }

    /// Emits these counters into the active telemetry scope under the
    /// `analog.*` namespace — the bridge that generalizes this struct
    /// into the workspace-wide observability layer (DESIGN.md §14)
    /// without changing its public fields. `residual_builds` surfaces
    /// as `analog.device_eval_passes` (each residual assembly is one
    /// full device-evaluation pass) and `factorization_reuses` as
    /// `analog.lu_cache_hits`.
    pub fn record_telemetry(&self) {
        if !telemetry::is_enabled() {
            return;
        }
        telemetry::counter("analog.newton_iterations", self.newton_iterations);
        telemetry::counter("analog.device_eval_passes", self.residual_builds);
        telemetry::counter("analog.jacobian_builds", self.jacobian_builds);
        telemetry::counter("analog.lu_factorizations", self.factorizations);
        telemetry::counter("analog.lu_cache_hits", self.factorization_reuses);
        telemetry::counter("analog.steps_taken", self.steps_taken);
        telemetry::counter("analog.lte_rejections", self.steps_rejected);
        telemetry::counter("analog.recovery_attempts", self.recovery_attempts);
        telemetry::counter("analog.recovered_gmin", self.recovered_gmin);
        telemetry::counter("analog.recovered_source", self.recovered_source);
        telemetry::counter("analog.recovered_dt_cut", self.recovered_dt_cut);
        telemetry::counter("analog.batched_points", self.batched_points);
        telemetry::counter("analog.batch_retirements", self.batch_retirements);
        telemetry::counter("analog.batched_factorizations", self.batched_factorizations);
    }

    /// The counters accrued since `earlier` (a snapshot of the same
    /// accumulator).
    fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            newton_iterations: self.newton_iterations - earlier.newton_iterations,
            residual_builds: self.residual_builds - earlier.residual_builds,
            jacobian_builds: self.jacobian_builds - earlier.jacobian_builds,
            factorizations: self.factorizations - earlier.factorizations,
            factorization_reuses: self.factorization_reuses - earlier.factorization_reuses,
            steps_taken: self.steps_taken - earlier.steps_taken,
            steps_rejected: self.steps_rejected - earlier.steps_rejected,
            recovery_attempts: self.recovery_attempts - earlier.recovery_attempts,
            recovered_gmin: self.recovered_gmin - earlier.recovered_gmin,
            recovered_source: self.recovered_source - earlier.recovered_source,
            recovered_dt_cut: self.recovered_dt_cut - earlier.recovered_dt_cut,
            batched_points: self.batched_points - earlier.batched_points,
            batch_retirements: self.batch_retirements - earlier.batch_retirements,
            batched_factorizations: self.batched_factorizations - earlier.batched_factorizations,
            total_time: self.total_time.saturating_sub(earlier.total_time),
        }
    }
}

/// The result of a transient run: one waveform per node.
#[derive(Debug, Clone)]
pub struct TransientResult {
    waveforms: Vec<Waveform>,
    stats: SolverStats,
}

impl TransientResult {
    /// The waveform of a node (ground is the all-zero waveform).
    pub fn waveform(&self, node: Node) -> &Waveform {
        &self.waveforms[node.index()]
    }

    /// Solver counters for this run.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }
}

/// A DC solution: the node-voltage vector plus solver counters. Derefs
/// to `[f64]` so existing `v[node.index()]` call sites keep working.
#[derive(Debug, Clone)]
pub struct DcSolution {
    voltages: Vec<f64>,
    stats: SolverStats,
}

impl DcSolution {
    /// Solver counters for this solve.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Consumes the solution, returning the raw voltage vector.
    pub fn into_voltages(self) -> Vec<f64> {
        self.voltages
    }
}

impl Deref for DcSolution {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.voltages
    }
}

/// A DC sweep result: one node-voltage vector per sweep value, plus
/// solver counters. Derefs to `[Vec<f64>]` so existing iteration sites
/// keep working.
#[derive(Debug, Clone)]
pub struct DcSweepResult {
    points: Vec<Vec<f64>>,
    stats: SolverStats,
}

impl DcSweepResult {
    /// Solver counters for the whole sweep.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Consumes the result, returning the raw per-point vectors.
    pub fn into_points(self) -> Vec<Vec<f64>> {
        self.points
    }
}

impl Deref for DcSweepResult {
    type Target = [Vec<f64>];
    fn deref(&self) -> &[Vec<f64>] {
        &self.points
    }
}

/// Flat-matrix slot for a node pair that is ground/source-driven on at
/// least one side (no equation or no column to stamp).
const ABSENT: usize = usize::MAX;

/// Precomputed slots for a two-terminal conductance-like stamp
/// (resistor or capacitor companion): raw node indices for the voltage
/// reads plus resolved residual and flat Jacobian positions.
#[derive(Debug, Clone, Copy)]
struct PairSlots {
    /// Raw node indices (into the full `v` vector).
    a: usize,
    b: usize,
    /// Residual slots (`ABSENT` when the node is known).
    res_a: usize,
    res_b: usize,
    /// Flat row-major Jacobian slots (`ABSENT` when either side is
    /// known).
    jaa: usize,
    jab: usize,
    jba: usize,
    jbb: usize,
}

/// One element's precompiled stamp. Slot order inside each variant is
/// the exact order the pre-refactor assembler applied its `+=`s — this
/// matters for bit-identity when two slots alias (a pseudo-resistor's
/// gate and source are the same node, so two "different" Jacobian
/// entries land on the same flat position and addition order shows).
#[derive(Debug, Clone, Copy)]
enum Stamp {
    /// Resistor with precomputed conductance `g = 1/ohms`.
    Conductance { g: f64, p: PairSlots },
    /// Capacitor; the companion conductance `farads/dt` is formed at
    /// assembly time (transient only, open at DC).
    Capacitor { farads: f64, p: PairSlots },
    /// MOS device; `d/g/s` are raw node indices, residual and Jacobian
    /// slots are stored in application order.
    Mos {
        device: MosDevice,
        nmos: bool,
        d: usize,
        g: usize,
        s: usize,
        /// Residual slots in application order (drain/source for NMOS,
        /// source/drain for PMOS — first gets `+id`, second `-id`).
        res0: usize,
        res1: usize,
        /// Six Jacobian slots in the historical stamp order.
        jac: [usize; 6],
    },
}

/// The compiled topology: node→unknown mapping plus the flattened
/// stamp list. Building one is `O(elements)` and happens once per
/// `Solver`; every assembly afterwards is allocation-free.
#[derive(Debug, Clone)]
struct StampPlan {
    n_nodes: usize,
    n_unknown: usize,
    /// Unknown index per node (`None` = ground or source-driven).
    index: Vec<Option<usize>>,
    stamps: Vec<Stamp>,
    /// `(raw node, residual slot, diagonal slot)` for the gmin pass,
    /// in ascending node order like the historical loop.
    gmin_rows: Vec<(usize, usize, usize)>,
    /// No MOS devices: the Jacobian depends only on `(dt, gmin)`, so
    /// one factorization serves the whole transient.
    linear: bool,
}

impl StampPlan {
    fn new(circuit: &Circuit) -> Self {
        let n = circuit.node_count();
        let mut known = vec![false; n];
        known[0] = true;
        for (node, _) in circuit.sources() {
            known[node.index()] = true;
        }
        let mut index = vec![None; n];
        let mut k = 0;
        for (i, idx) in index.iter_mut().enumerate() {
            if !known[i] {
                *idx = Some(k);
                k += 1;
            }
        }
        let n_unknown = k;

        let res_slot = |node: Node| index[node.index()].unwrap_or(ABSENT);
        let jac_slot = |row: Node, col: Node| match (index[row.index()], index[col.index()]) {
            (Some(r), Some(c)) => r * n_unknown + c,
            _ => ABSENT,
        };
        let pair = |a: Node, b: Node| PairSlots {
            a: a.index(),
            b: b.index(),
            res_a: res_slot(a),
            res_b: res_slot(b),
            jaa: jac_slot(a, a),
            jab: jac_slot(a, b),
            jba: jac_slot(b, a),
            jbb: jac_slot(b, b),
        };

        let mut linear = true;
        let stamps = circuit
            .elements()
            .iter()
            .map(|el| match *el {
                Element::Resistor { a, b, ohms } => Stamp::Conductance {
                    g: 1.0 / ohms,
                    p: pair(a, b),
                },
                Element::Capacitor { a, b, farads } => Stamp::Capacitor {
                    farads,
                    p: pair(a, b),
                },
                Element::Mos { device, d, g, s } => {
                    linear = false;
                    let nmos = matches!(device.params.mos_type, MosType::Nmos);
                    // Historical stamp order (see `reference::Assembler::build`):
                    // NMOS: res d,s; J (d,d)(d,g)(d,s)(s,d)(s,g)(s,s)
                    // PMOS: res s,d; J (s,s)(s,g)(s,d)(d,s)(d,g)(d,d)
                    let (res0, res1, jac) = if nmos {
                        (
                            res_slot(d),
                            res_slot(s),
                            [
                                jac_slot(d, d),
                                jac_slot(d, g),
                                jac_slot(d, s),
                                jac_slot(s, d),
                                jac_slot(s, g),
                                jac_slot(s, s),
                            ],
                        )
                    } else {
                        (
                            res_slot(s),
                            res_slot(d),
                            [
                                jac_slot(s, s),
                                jac_slot(s, g),
                                jac_slot(s, d),
                                jac_slot(d, s),
                                jac_slot(d, g),
                                jac_slot(d, d),
                            ],
                        )
                    };
                    Stamp::Mos {
                        device,
                        nmos,
                        d: d.index(),
                        g: g.index(),
                        s: s.index(),
                        res0,
                        res1,
                        jac,
                    }
                }
            })
            .collect();

        let mut gmin_rows = Vec::with_capacity(n_unknown);
        for (node_idx, &slot) in index.iter().enumerate() {
            if let Some(i) = slot {
                gmin_rows.push((node_idx, i, i * n_unknown + i));
            }
        }

        Self {
            n_nodes: n,
            n_unknown,
            index,
            stamps,
            gmin_rows,
            linear,
        }
    }
}

/// One cached LU factorization with the `(dt, gmin)` key it was
/// assembled under.
#[derive(Debug, Clone)]
struct LuBank {
    /// `n × n` row-major: Jacobian on assembly, LU after factorization
    /// (unit-lower multipliers below the diagonal, U on and above).
    a: Vec<f64>,
    /// Pivot row chosen at each elimination column.
    piv: Vec<usize>,
    /// The factorization in `a` is usable for another solve.
    valid: bool,
    /// Companion-step key of the cached LU (`f64::to_bits`, `0.0` = DC).
    dt: u64,
    /// gmin key of the cached LU.
    gmin: u64,
}

/// One point's LU cache: two banks (Jacobians factorized in place).
/// Two because the step-doubling transient solves at `h` and `h/2` in
/// alternation — with a single cache each would evict the other every
/// composite step. Sized once per topology; no solve allocates.
#[derive(Debug, Clone)]
struct Workspace {
    banks: [LuBank; 2],
    /// Most-recently-used bank; the other one is the eviction target.
    mru: usize,
}

impl Workspace {
    fn new(n: usize) -> Self {
        let bank = LuBank {
            a: vec![0.0; n * n],
            piv: vec![0; n],
            valid: false,
            dt: 0,
            gmin: 0,
        };
        Self {
            banks: [bank.clone(), bank],
            mru: 0,
        }
    }

    /// Bank holding a valid factorization for `(dt, gmin)`, if any.
    fn matching(&self, dt: u64, gmin: u64) -> Option<usize> {
        self.banks
            .iter()
            .position(|b| b.valid && b.dt == dt && b.gmin == gmin)
    }

    /// Bank to refactorize into for `(dt, gmin)`: one already keyed to
    /// it (stale) if present, else the least-recently-used bank.
    fn evict_target(&self, dt: u64, gmin: u64) -> usize {
        self.banks
            .iter()
            .position(|b| b.dt == dt && b.gmin == gmin)
            .unwrap_or(1 - self.mru)
    }

    /// Drops both cached factorizations.
    fn invalidate(&mut self) {
        for b in &mut self.banks {
            b.valid = false;
        }
    }
}

/// LU factorization with partial pivoting, in place on a flat
/// row-major `n×n` matrix. Full rows are swapped (multipliers travel
/// with their row), multipliers are stored below the diagonal. Returns
/// `false` if singular.
///
/// The elimination applies the exact same `-= f * pivot` operation
/// sequence as the historical one-shot Gaussian elimination, so a
/// factorize-then-solve round trip is bit-identical to it.
fn factorize(a: &mut [f64], piv: &mut [usize], n: usize) -> bool {
    for col in 0..n {
        let mut p = col;
        let mut best = a[col * n + col].abs();
        for r in col + 1..n {
            let x = a[r * n + col].abs();
            if x > best {
                best = x;
                p = r;
            }
        }
        if best < 1e-300 {
            return false;
        }
        piv[col] = p;
        if p != col {
            for c in 0..n {
                a.swap(col * n + c, p * n + c);
            }
        }
        let pivot = a[col * n + col];
        for r in col + 1..n {
            let f = a[r * n + col] / pivot;
            a[r * n + col] = f;
            if f == 0.0 {
                continue;
            }
            for c in col + 1..n {
                a[r * n + c] -= f * a[col * n + c];
            }
        }
    }
    true
}

/// Solves `LU x = b` in place on `b`: pivot swaps first (they were
/// full-row swaps, so the stored multipliers line up with the permuted
/// right-hand side), then column-major unit-lower forward substitution
/// — the identical op order Gaussian elimination applies to `b` — then
/// back substitution.
fn lu_solve(a: &[f64], piv: &[usize], n: usize, b: &mut [f64]) {
    for (col, &p) in piv.iter().enumerate() {
        if p != col {
            b.swap(col, p);
        }
    }
    for col in 0..n {
        let bc = b[col];
        for r in col + 1..n {
            let f = a[r * n + col];
            if f == 0.0 {
                continue;
            }
            b[r] -= f * bc;
        }
    }
    for r in (0..n).rev() {
        let mut acc = b[r];
        for c in r + 1..n {
            let f = a[r * n + c];
            // Skip structural zeros: on banded systems (RC ladders,
            // inverter chains) most of U is empty, and the batched
            // plane solve skips the same entries so the per-column
            // operation sequences stay aligned.
            if f == 0.0 {
                continue;
            }
            acc -= f * b[c];
        }
        b[r] = acc / a[r * n + r];
    }
}

/// A reusable solver bound to one circuit: the compiled stamp plan and
/// the [`SolverStats`] accumulated across its solves. Every solve runs
/// on the lockstep engine in [`batched`]; the plain entry points are
/// batches of one point. The free functions ([`transient`],
/// [`dc_operating_point`], …) construct one per call; hold a `Solver`
/// yourself to amortize the plan across repeated solves.
#[derive(Debug, Clone)]
pub struct Solver<'c> {
    circuit: &'c Circuit,
    plan: StampPlan,
    stats: SolverStats,
}

impl<'c> Solver<'c> {
    /// Compiles the circuit's stamp plan.
    pub fn new(circuit: &'c Circuit) -> Self {
        Self {
            circuit,
            plan: StampPlan::new(circuit),
            stats: SolverStats::default(),
        }
    }

    /// Counters accumulated across every solve this instance ran.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Robust DC solve at time `t`: mid-supply then zero initial
    /// guesses, each with a direct attempt, a gmin ladder and a final
    /// direct attempt. Failures report the actual `t`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError`] if every attempt fails.
    pub fn dc_at(&mut self, t: f64) -> Result<Vec<f64>, SolverError> {
        let (out, stats) = batched::dc_one(&self.plan, self.circuit, t, batched::DcSeed::Robust);
        self.stats.merge(&stats);
        out
    }

    /// Runs a transient from the DC operating point using `config`'s
    /// step mode.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError`] on DC or per-step Newton failure.
    pub fn run_transient(
        &mut self,
        config: &TransientConfig,
    ) -> Result<TransientResult, SolverError> {
        let _span = telemetry::span("analog.transient");
        let started = Instant::now();
        let (waveforms, mut stats) = batched::transient_one(&self.plan, self.circuit, config);
        stats.total_time = started.elapsed();
        self.stats.merge(&stats);
        let waveforms = waveforms?;
        stats.record_telemetry();
        telemetry::record_value("analog.newton_per_transient", stats.newton_iterations);
        telemetry::record_value("analog.steps_per_transient", stats.steps_taken);
        Ok(TransientResult { waveforms, stats })
    }
}

/// Solves the DC operating point with sources at their `t = 0` values,
/// using gmin stepping for robustness.
///
/// # Errors
///
/// Returns [`SolverError`] if Newton fails even at the largest gmin.
///
/// # Panics
///
/// In debug builds, panics if the circuit fails the [`crate::drc`]
/// gate (non-positive elements, source conflicts, bad stimuli).
pub fn dc_operating_point(circuit: &Circuit) -> Result<DcSolution, SolverError> {
    crate::drc::debug_check(circuit);
    let (voltages, stats) = dc_entry("analog.dc", || {
        batched::dc_one(
            &StampPlan::new(circuit),
            circuit,
            0.0,
            batched::DcSeed::Robust,
        )
    })?;
    Ok(DcSolution { voltages, stats })
}

/// Solves the DC operating point from user-supplied initial guesses on
/// selected nodes — SPICE's `.nodeset`. Needed for bistable circuits
/// (latches, cross-coupled pairs) where plain Newton converges to the
/// metastable solution.
///
/// # Errors
///
/// Returns [`SolverError`] if Newton fails from the seeded guess even
/// after gmin stepping.
///
/// # Panics
///
/// In debug builds, panics if the circuit fails the [`crate::drc`] gate.
pub fn dc_operating_point_with_nodeset(
    circuit: &Circuit,
    nodeset: &[(Node, f64)],
) -> Result<DcSolution, SolverError> {
    crate::drc::debug_check(circuit);
    let (voltages, stats) = dc_entry("analog.dc", || {
        batched::dc_one(
            &StampPlan::new(circuit),
            circuit,
            0.0,
            batched::DcSeed::Nodeset(nodeset),
        )
    })?;
    Ok(DcSolution { voltages, stats })
}

/// The span, wall-clock and telemetry shared by the DC entry points
/// around one engine call.
fn dc_entry<T>(
    span: &'static str,
    run: impl FnOnce() -> (Result<T, SolverError>, SolverStats),
) -> Result<(T, SolverStats), SolverError> {
    let _span = telemetry::span(span);
    let started = Instant::now();
    let (out, mut stats) = run();
    let out = out?;
    stats.total_time = started.elapsed();
    stats.record_telemetry();
    Ok((out, stats))
}

/// DC sweep: overrides source `source_index`'s value across `values` and
/// returns the full node-voltage vector per point (continuation from the
/// previous point makes VTC sweeps fast and stable). One compiled
/// solver and workspace serve the whole sweep — the circuit is not
/// cloned and the topology is not re-analyzed per point.
///
/// # Errors
///
/// Returns the first solver failure.
///
/// # Panics
///
/// Panics if `source_index` is out of range, or (in debug builds) if
/// the circuit fails the [`crate::drc`] gate.
pub fn dc_sweep(
    circuit: &Circuit,
    source_index: usize,
    values: &[f64],
) -> Result<DcSweepResult, SolverError> {
    crate::drc::debug_check(circuit);
    assert!(
        source_index < circuit.sources().len(),
        "source index out of range"
    );
    let (points, stats) = dc_entry("analog.dc_sweep", || {
        batched::dc_sweep_one(&StampPlan::new(circuit), circuit, source_index, values)
    })?;
    Ok(DcSweepResult { points, stats })
}

/// Points per lockstep batch in [`dc_sweep_with_threads`]. Fixed (not derived
/// from the worker count) so the batch boundaries — and therefore every
/// result — are identical for any thread count. Each point of a batch
/// is solved by the full robust [`Solver::dc_at`] flow independently of
/// its batchmates, so results are additionally **batch-boundary
/// independent**.
const DC_SWEEP_BATCH: usize = 32;

/// Parallel [`dc_sweep`] on the batched multi-point engine: the value
/// list is split into `DC_SWEEP_BATCH`-point chunks, each solved as one
/// lockstep batch, fanned across `threads` workers. Results come back
/// in input order and are bit-identical for any thread count *and* any
/// batch boundary placement: every point runs the robust per-point DC
/// flow on its own state plane, so its arithmetic never depends on its
/// batchmates.
///
/// ([`dc_sweep`] uses an unbroken continuation chain instead, which
/// converges to the same curve but not bit-identically; compare this
/// function against itself across thread counts.)
///
/// # Errors
///
/// Returns the first solver failure in input order.
///
/// # Panics
///
/// Panics if `source_index` is out of range, or (in debug builds) if
/// the circuit fails the [`crate::drc`] gate.
pub fn dc_sweep_with_threads(
    circuit: &Circuit,
    source_index: usize,
    values: &[f64],
    threads: usize,
) -> Result<DcSweepResult, SolverError> {
    crate::drc::debug_check(circuit);
    assert!(
        source_index < circuit.sources().len(),
        "source index out of range"
    );
    let _span = telemetry::span("analog.dc_sweep");
    let started = Instant::now();
    let chunks: Vec<&[f64]> = values.chunks(DC_SWEEP_BATCH).collect();
    let results = crate::par::map_with_threads(&chunks, threads, |_, chunk| {
        batched::dc_sweep_chunk(circuit, source_index, chunk)
    });
    let mut points = Vec::with_capacity(values.len());
    let mut stats = SolverStats::default();
    for r in results {
        let (chunk_points, chunk_stats) = r?;
        points.extend(chunk_points);
        stats.merge(&chunk_stats);
    }
    stats.total_time = started.elapsed();
    Ok(DcSweepResult { points, stats })
}

/// Runs a transient analysis from the DC operating point.
///
/// # Errors
///
/// Returns [`SolverError`] on DC or per-step Newton failure.
///
/// # Panics
///
/// In debug builds, panics if the circuit fails the [`crate::drc`]
/// gate. The [`reference`](mod@reference) solver stays ungated: it is the
/// pre-optimization baseline and must accept whatever the old code did.
pub fn transient(
    circuit: &Circuit,
    config: &TransientConfig,
) -> Result<TransientResult, SolverError> {
    crate::drc::debug_check(circuit);
    Solver::new(circuit).run_transient(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Stimulus;
    use openserdes_pdk::corner::Pvt;
    use openserdes_pdk::mos::{MosDevice, MosParams};

    const VDD: f64 = 1.8;

    #[test]
    fn resistive_divider_dc() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        c.vsource(vin, Stimulus::Dc(1.8));
        c.resistor(vin, mid, 1e3);
        c.resistor(mid, c.gnd(), 3e3);
        let v = dc_operating_point(&c).expect("solves");
        assert!(
            (v[mid.index()] - 1.35).abs() < 1e-6,
            "mid = {}",
            v[mid.index()]
        );
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
        c.resistor(vin, out, 1e3);
        c.capacitor(out, c.gnd(), 1e-12); // tau = 1 ns
        let res = transient(&c, &TransientConfig::until(5e-9).with_fixed_dt(5e-12)).expect("runs");
        let w = res.waveform(out);
        // After one tau: 63.2 %; after 3 tau: 95 %.
        let v_tau = w.sample_at(1e-9);
        assert!((v_tau - 0.632).abs() < 0.02, "v(tau) = {v_tau}");
        let v3 = w.sample_at(3e-9);
        assert!((v3 - 0.95).abs() < 0.02, "v(3tau) = {v3}");
    }

    fn inverter(c: &mut Circuit, vin: Node, vout: Node, vdd: Node, wn: f64, wp: f64) {
        let pvt = Pvt::nominal();
        let nmos = MosDevice::new(MosParams::sky130_nmos(&pvt), wn, 0.15);
        let pmos = MosDevice::new(MosParams::sky130_pmos(&pvt), wp, 0.15);
        c.mos(nmos, vout, vin, c.gnd());
        c.mos(pmos, vout, vin, vdd);
    }

    #[test]
    fn inverter_dc_levels() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(VDD));
        c.vsource(vin, Stimulus::Dc(0.0));
        inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
        let v = dc_operating_point(&c).expect("solves");
        assert!(
            v[vout.index()] > VDD - 0.05,
            "out high: {}",
            v[vout.index()]
        );
    }

    #[test]
    fn inverter_vtc_monotonic_with_midpoint() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(VDD));
        c.vsource(vin, Stimulus::Dc(0.0));
        inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
        let xs: Vec<f64> = (0..=36).map(|i| i as f64 * 0.05).collect();
        let sweep = dc_sweep(&c, 1, &xs).expect("sweeps");
        let vtc: Vec<f64> = sweep.iter().map(|v| v[vout.index()]).collect();
        // Monotonically non-increasing.
        for w in vtc.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "VTC must fall: {w:?}");
        }
        // Switching threshold (vout = vin) near mid-supply.
        let vm = xs
            .iter()
            .zip(&vtc)
            .find(|(x, y)| **y <= **x)
            .map(|(x, _)| *x)
            .expect("crosses");
        assert!((0.6..1.2).contains(&vm), "V_M = {vm}");
        // Full rail at the ends.
        assert!(vtc[0] > VDD - 0.05);
        assert!(vtc.last().unwrap() < &0.05);
    }

    #[test]
    fn inverter_transient_inverts_pulse() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(VDD));
        c.vsource(
            vin,
            Stimulus::Pwl(vec![(0.0, 0.0), (1e-9, 0.0), (1.05e-9, VDD), (3e-9, VDD)]),
        );
        inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
        c.capacitor(vout, c.gnd(), 10e-15);
        let res = transient(&c, &TransientConfig::until(3e-9).with_fixed_dt(2e-12)).expect("runs");
        let w = res.waveform(vout);
        assert!(w.sample_at(0.9e-9) > VDD - 0.1, "high before edge");
        assert!(w.sample_at(2.5e-9) < 0.1, "low after edge");
        // The output transition is a falling edge shortly after 1 ns.
        let falls = w.crossings(VDD / 2.0, false);
        assert_eq!(falls.len(), 1);
        assert!(falls[0] > 1e-9 && falls[0] < 1.4e-9, "fall at {}", falls[0]);
    }

    #[test]
    fn pseudo_resistor_is_giga_ohm_for_small_bias() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Stimulus::Dc(0.9));
        c.vsource(b, Stimulus::Dc(0.95));
        let pmos = MosDevice::new(MosParams::sky130_pmos(&Pvt::nominal()), 1.0, 0.5);
        c.pseudo_resistor(pmos, a, b);
        // Measure the current by reading the device equation directly:
        // both terminals are sources, so solve trivially and compute I.
        let dev = MosDevice::new(MosParams::sky130_pmos(&Pvt::nominal()), 1.0, 0.5);
        let e = dev.eval(0.9 - 0.9, 0.9 - 0.95);
        let r = 0.05 / e.id.abs().max(1e-30);
        assert!(r > 1e8, "pseudo-resistor R = {r:.3e} Ω");
        let _ = dc_operating_point(&c).expect("solves");
    }

    #[test]
    fn floating_node_reported_or_stabilized() {
        // A node connected only through a capacitor has no DC path; gmin
        // keeps the matrix solvable and parks it at 0.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let x = c.node("x");
        c.vsource(vin, Stimulus::Dc(1.0));
        c.capacitor(vin, x, 1e-15);
        let v = dc_operating_point(&c).expect("gmin rescues");
        assert!(v[x.index()].abs() < 1e-6);
    }

    #[test]
    fn cross_coupled_latch_settles_to_a_rail() {
        // Two cross-coupled inverters (an SRAM cell) are bistable: the
        // DC solve must land on one of the two stable states, not the
        // metastable midpoint.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(vdd, Stimulus::Dc(VDD));
        inverter(&mut c, a, b, vdd, 0.65, 1.0);
        inverter(&mut c, b, a, vdd, 0.65, 1.0);
        // Nodeset (SPICE .nodeset) seeds the intended state; without it
        // Newton lands on the valid-but-metastable midpoint.
        let v = dc_operating_point_with_nodeset(&c, &[(a, 0.0), (b, VDD)]).expect("solves");
        let (va, vb) = (v[a.index()], v[b.index()]);
        assert!(va < 0.2, "a pulled low: {va}");
        assert!(vb > VDD - 0.2, "b latched high: {vb}");
    }

    #[test]
    fn mos_in_triode_acts_as_resistor() {
        // An NMOS with full gate drive and small Vds conducts linearly:
        // doubling a series resistor's share halves the node voltage
        // movement as expected from a voltage divider.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let gate = c.node("gate");
        let mid = c.node("mid");
        c.vsource(vdd, Stimulus::Dc(0.2)); // small Vds regime
        c.vsource(gate, Stimulus::Dc(VDD));
        let nmos = MosDevice::new(MosParams::sky130_nmos(&Pvt::nominal()), 2.0, 0.15);
        let r_on = nmos.switching_resistance(1.8); // rough scale only
        c.mos(nmos, mid, gate, c.gnd());
        c.resistor(vdd, mid, r_on);
        let v = dc_operating_point(&c).expect("solves");
        // The divider midpoint sits well below the 0.2 V source and
        // above ground: the device is resistive, not off.
        assert!(
            v[mid.index()] > 0.01 && v[mid.index()] < 0.19,
            "mid = {}",
            v[mid.index()]
        );
    }

    #[test]
    fn finer_timestep_converges_to_same_waveform() {
        let build = || {
            let mut c = Circuit::new();
            let vin = c.node("vin");
            let out = c.node("out");
            c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (0.5e-9, 1.0)]));
            c.resistor(vin, out, 2.0e3);
            c.capacitor(out, c.gnd(), 0.5e-12);
            (c, out)
        };
        let (c, out) = build();
        let coarse = transient(&c, &TransientConfig::until(4e-9).with_fixed_dt(8e-12)).expect("ok");
        let fine = transient(&c, &TransientConfig::until(4e-9).with_fixed_dt(1e-12)).expect("ok");
        for k in 0..40 {
            let t = k as f64 * 0.1e-9;
            let d = (coarse.waveform(out).sample_at(t) - fine.waveform(out).sample_at(t)).abs();
            assert!(d < 0.02, "dt-refinement divergence {d} at t={t}");
        }
    }

    #[test]
    fn series_caps_divide_a_step() {
        // Two equal series caps: the midpoint sees half the step.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (10e-12, 1.0)]));
        c.capacitor(vin, mid, 1e-12);
        c.capacitor(mid, c.gnd(), 1e-12);
        let res = transient(&c, &TransientConfig::until(1e-9).with_fixed_dt(1e-12)).expect("ok");
        let v = res.waveform(mid).sample_at(0.5e-9);
        assert!((v - 0.5).abs() < 0.02, "cap divider mid = {v}");
    }

    #[test]
    fn transient_is_deterministic() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]));
        c.resistor(vin, out, 10e3);
        c.capacitor(out, c.gnd(), 50e-15);
        let cfg = TransientConfig::until(2e-9).with_fixed_dt(1e-12);
        let a = transient(&c, &cfg).expect("ok");
        let b = transient(&c, &cfg).expect("ok");
        assert_eq!(a.waveform(out).samples(), b.waveform(out).samples());
    }

    // ---- regression: bit-identity of Fixed mode vs the reference ----

    /// The circuits the historical unit tests exercise, rebuilt for
    /// pairwise comparison runs.
    fn regression_circuits() -> Vec<(&'static str, Circuit, Vec<Node>, TransientConfig)> {
        let mut out = Vec::new();
        {
            let mut c = Circuit::new();
            let vin = c.node("vin");
            let node_out = c.node("out");
            c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
            c.resistor(vin, node_out, 1e3);
            c.capacitor(node_out, c.gnd(), 1e-12);
            out.push((
                "rc",
                c,
                vec![vin, node_out],
                TransientConfig::until(5e-9).with_fixed_dt(5e-12),
            ));
        }
        {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let vin = c.node("vin");
            let vout = c.node("vout");
            c.vsource(vdd, Stimulus::Dc(VDD));
            c.vsource(
                vin,
                Stimulus::Pwl(vec![(0.0, 0.0), (1e-9, 0.0), (1.05e-9, VDD), (3e-9, VDD)]),
            );
            inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
            c.capacitor(vout, c.gnd(), 10e-15);
            out.push((
                "inverter",
                c,
                vec![vin, vout],
                TransientConfig::until(3e-9).with_fixed_dt(2e-12),
            ));
        }
        {
            let mut c = Circuit::new();
            let vin = c.node("vin");
            let mid = c.node("mid");
            c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (10e-12, 1.0)]));
            c.capacitor(vin, mid, 1e-12);
            c.capacitor(mid, c.gnd(), 1e-12);
            out.push((
                "series-caps",
                c,
                vec![vin, mid],
                TransientConfig::until(1e-9).with_fixed_dt(1e-12),
            ));
        }
        out
    }

    #[test]
    fn fixed_mode_is_bit_identical_to_reference_transients() {
        for (name, c, nodes, cfg) in regression_circuits() {
            let new = transient(&c, &cfg).expect("new solver runs");
            let old = reference::transient(&c, &cfg).expect("reference runs");
            for node in nodes {
                let a = new.waveform(node).samples();
                let b = old.waveform(node).samples();
                assert_eq!(a.len(), b.len(), "{name}: sample count");
                for (k, (x, y)) in a.iter().zip(b).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{name}: sample {k} differs: {x:e} vs {y:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn dc_is_bit_identical_to_reference() {
        // DC solves across the historical test circuits, including the
        // pseudo-resistor's aliased-slot stamps (g == s).
        let mut circuits: Vec<Circuit> = Vec::new();
        {
            let mut c = Circuit::new();
            let vin = c.node("vin");
            let mid = c.node("mid");
            c.vsource(vin, Stimulus::Dc(1.8));
            c.resistor(vin, mid, 1e3);
            c.resistor(mid, c.gnd(), 3e3);
            circuits.push(c);
        }
        {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let vin = c.node("vin");
            let vout = c.node("vout");
            c.vsource(vdd, Stimulus::Dc(VDD));
            c.vsource(vin, Stimulus::Dc(0.0));
            inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
            circuits.push(c);
        }
        {
            let mut c = Circuit::new();
            let a = c.node("a");
            let b = c.node("b");
            let x = c.node("x");
            c.vsource(a, Stimulus::Dc(0.9));
            c.vsource(b, Stimulus::Dc(0.95));
            let pmos = MosDevice::new(MosParams::sky130_pmos(&Pvt::nominal()), 1.0, 0.5);
            c.pseudo_resistor(pmos, a, x);
            c.resistor(x, b, 1e6);
            circuits.push(c);
        }
        for (i, c) in circuits.iter().enumerate() {
            let new = dc_operating_point(c).expect("new");
            let old = reference::dc_operating_point(c).expect("old");
            assert_eq!(new.len(), old.len());
            for (k, (x, y)) in new.iter().zip(&old).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "circuit {i} node {k}: {x:e} vs {y:e}"
                );
            }
        }
    }

    // ---- adaptive mode ----

    #[test]
    fn adaptive_rc_tracks_fixed_reference() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (50e-12, 1.0)]));
        c.resistor(vin, out, 1e3);
        c.capacitor(out, c.gnd(), 1e-12);
        let lte_tol = 1e-3;
        let fixed =
            transient(&c, &TransientConfig::until(5e-9).with_fixed_dt(1e-12)).expect("fixed");
        let adaptive = transient(
            &c,
            &TransientConfig::until(5e-9).with_adaptive_steps(1e-12, 64e-12, lte_tol),
        )
        .expect("adaptive");
        let err = adaptive.waveform(out).max_abs_diff(fixed.waveform(out));
        assert!(err < 10.0 * lte_tol, "adaptive error {err:.3e}");
        // The point of the exercise: far fewer steps than the grid.
        let grid_steps = fixed.stats().steps_taken;
        let taken = adaptive.stats().steps_taken;
        assert!(
            taken * 3 < grid_steps,
            "adaptive must walk coarsely: {taken} vs {grid_steps}"
        );
    }

    #[test]
    fn linear_circuit_factorizes_once_per_transient() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]));
        c.resistor(vin, out, 10e3);
        c.capacitor(out, c.gnd(), 50e-15);
        let res = transient(&c, &TransientConfig::until(2e-9).with_fixed_dt(1e-12)).expect("ok");
        let s = res.stats();
        // One factorization per distinct (dt, gmin) key: the DC solve
        // ladder uses several gmins, the transient exactly one more.
        assert!(
            s.factorizations <= batched::DC_LADDER.len() as u64 + 3,
            "linear transient must reuse its LU: {} factorizations",
            s.factorizations
        );
        assert!(
            s.factorization_reuses > s.steps_taken,
            "every step after the first must reuse: {s:?}"
        );
        assert!(s.reuse_rate() > 0.9, "reuse rate {}", s.reuse_rate());
    }

    #[test]
    fn stats_report_steps_and_wall_time() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource(vin, Stimulus::Dc(1.0));
        c.resistor(vin, out, 1e3);
        c.capacitor(out, c.gnd(), 1e-12);
        let res = transient(&c, &TransientConfig::until(1e-9).with_fixed_dt(1e-12)).expect("ok");
        let s = res.stats();
        let expect = (1e-9f64 / 1e-12).ceil() as u64;
        assert_eq!(s.steps_taken, expect);
        assert!(s.newton_iterations >= s.steps_taken);
        assert!(s.total_time > Duration::ZERO);
        let mut sum = SolverStats::default();
        sum.merge(s);
        sum.merge(s);
        assert_eq!(sum.steps_taken, 2 * s.steps_taken);
    }

    #[test]
    fn dc_failure_reports_actual_time() {
        // A floating gate between two capacitors with zero gmin paths
        // still solves (gmin), so force failure differently: a
        // source-free circuit whose only element is a reversed MOS has
        // no issue either — instead check the plumbing directly: the
        // sweep entry point passes its `t` through to errors.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource(vin, Stimulus::Dc(1.0));
        c.resistor(vin, out, 1e3);
        let mut solver = Solver::new(&c);
        // Sanity: this healthy circuit solves at any t…
        let v = solver.dc_at(3.5e-9).expect("solves");
        assert!((v[out.index()] - 1.0).abs() < 1e-6);
        // …and the error constructor carries the time through Display,
        // along with the enriched iteration/node diagnostics.
        let e = SolverError::NonConvergence {
            time: 3.5e-9,
            iterations: 120,
            worst_node: Some("out".into()),
        };
        let msg = e.to_string();
        assert!(msg.contains("3.500e-9"));
        assert!(msg.contains("120 iterations"));
        assert!(msg.contains("`out`"));
    }

    #[test]
    fn parallel_dc_sweep_is_worker_count_independent() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(VDD));
        c.vsource(vin, Stimulus::Dc(0.0));
        inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
        let xs: Vec<f64> = (0..=36).map(|i| i as f64 * 0.05).collect();
        let base = dc_sweep_with_threads(&c, 1, &xs, 1).expect("sweeps");
        for threads in [2, 4, 8] {
            let par = dc_sweep_with_threads(&c, 1, &xs, threads).expect("sweeps");
            assert_eq!(par.len(), base.len());
            for (i, (a, b)) in par.iter().zip(base.iter()).enumerate() {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "threads={threads} point {i}: {x} vs {y}"
                    );
                }
            }
        }
        // And the parallel result is a valid VTC.
        let vtc: Vec<f64> = base.iter().map(|v| v[vout.index()]).collect();
        for w in vtc.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "VTC must fall");
        }
    }

    #[test]
    fn nodeset_survives_intermediate_rung_failure_tracking() {
        // The happy path must be unchanged by the rung-tracking fix.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(vdd, Stimulus::Dc(VDD));
        inverter(&mut c, a, b, vdd, 0.65, 1.0);
        inverter(&mut c, b, a, vdd, 0.65, 1.0);
        let v = dc_operating_point_with_nodeset(&c, &[(a, VDD), (b, 0.0)]).expect("solves");
        assert!(v[a.index()] > VDD - 0.2, "a latched high");
        assert!(v[b.index()] < 0.2, "b pulled low");
    }

    /// An inverter driven by a sharp edge with a starved Newton budget:
    /// the 0.4 V damping cap makes a full-swing step need ≥ 5
    /// iterations, so `max_newton = 2` cannot converge mid-transition.
    fn starved_inverter() -> (Circuit, Node, TransientConfig) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(VDD));
        c.vsource(
            vin,
            Stimulus::Pwl(vec![(0.0, 0.0), (1e-9, 0.0), (1.05e-9, VDD), (3e-9, VDD)]),
        );
        inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
        c.capacitor(vout, c.gnd(), 10e-15);
        let cfg = TransientConfig::until(3e-9)
            .with_fixed_dt(2e-12)
            .with_max_newton(2);
        (c, vout, cfg)
    }

    #[test]
    fn recovery_ladder_rescues_starved_fixed_transient() {
        let (c, vout, cfg) = starved_inverter();
        // The reference solver (no ladder) gives up on this fixture…
        assert!(
            reference::transient(&c, &cfg).is_err(),
            "fixture must be non-convergent without recovery"
        );
        // …while the stamped solver escalates through the ladder and
        // still produces the inverted pulse.
        let res = transient(&c, &cfg).expect("recovered");
        assert!(
            res.stats().recovery_attempts > 0,
            "recovery must have triggered: {:?}",
            res.stats()
        );
        let resolved = res.stats().recovered_gmin
            + res.stats().recovered_source
            + res.stats().recovered_dt_cut;
        assert!(resolved > 0, "some rung must have resolved the steps");
        let w = res.waveform(vout);
        assert!(w.sample_at(0.9e-9) > VDD - 0.1, "high before edge");
        assert!(w.sample_at(2.5e-9) < 0.1, "low after edge");
    }

    #[test]
    fn recovery_ladder_rescues_starved_adaptive_floor_step() {
        let (c, vout, _) = starved_inverter();
        let cfg = TransientConfig::until(3e-9)
            .with_adaptive_steps(2e-12, 50e-12, 1e-3)
            .with_max_newton(2);
        let res = transient(&c, &cfg).expect("recovered");
        assert!(
            res.stats().recovery_attempts > 0,
            "floor-step recovery must have triggered: {:?}",
            res.stats()
        );
        let w = res.waveform(vout);
        assert!(w.sample_at(0.9e-9) > VDD - 0.1, "high before edge");
        assert!(w.sample_at(2.5e-9) < 0.1, "low after edge");
    }

    #[test]
    fn convergent_transients_never_enter_the_ladder() {
        let (c, _, _) = starved_inverter();
        let cfg = TransientConfig::until(3e-9).with_fixed_dt(2e-12);
        let res = transient(&c, &cfg).expect("runs");
        assert_eq!(res.stats().recovery_attempts, 0);
        assert_eq!(res.stats().recovered_gmin, 0);
        assert_eq!(res.stats().recovered_source, 0);
        assert_eq!(res.stats().recovered_dt_cut, 0);
    }
}
