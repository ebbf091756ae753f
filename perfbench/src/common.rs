//! Pieces every workload shares: the seeded input generator, timing,
//! quantiles, the output digest and the report.

use openserdes_core::serializer::{Frame, LANES};
use openserdes_core::{PrbsGenerator, PrbsOrder};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Wall-clock budget of one run. Jobs not started within it count as
/// failed, so a run of a much slower program still ends, with a result,
/// inside the three minutes a run may take.
const RUN_BUDGET: Duration = Duration::from_secs(150);

static RUN_START: OnceLock<Instant> = OnceLock::new();

/// Starts the run's budget clock.
pub fn start_clock() {
    RUN_START.get_or_init(Instant::now);
}

/// The error of a job skipped because the run is over budget, if it is.
pub fn over_budget() -> Option<String> {
    let start = RUN_START.get()?;
    (start.elapsed() > RUN_BUDGET).then(|| {
        format!(
            "not started: run budget of {} s spent",
            RUN_BUDGET.as_secs()
        )
    })
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` consecutive PRBS-31 frames from a seeded register state.
    pub fn prbs_frames(&mut self, n: usize) -> Vec<Frame> {
        let state = (self.next_u64() as u32 & 0x7FFF_FFFF) | 1;
        let mut g = PrbsGenerator::with_seed(PrbsOrder::Prbs31, state);
        (0..n)
            .map(|_| {
                let mut f = [0u32; LANES];
                for w in f.iter_mut() {
                    for b in 0..32 {
                        *w |= u32::from(g.next_bit()) << b;
                    }
                }
                f
            })
            .collect()
    }
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Calibration kernel time, in ms, of the reference host speed that
/// normalized times are expressed in (a 2-core x86-64 VM at its faster
/// speed).
const CALIBRATION_REF_MS: f64 = 4.0;

/// Host-speed calibration. A virtual machine on a shared host can change
/// speed by up to ~1.5x every few seconds, far more than the effects a
/// change should be judged by. A fixed kernel of the
/// benchmark's own (dense 8x8 LU with `exp`, a pointer chase over
/// 4 MiB, popcounts, allocation churn and hash-map inserts and lookups:
/// the float, cache, allocator and hashing mix of the workloads) is
/// timed between passes. A pass's
/// times are scaled by `CALIBRATION_REF_MS` over the mean kernel time
/// before and after it. The kernel never calls the program, so a
/// program change cannot move it.
#[derive(Default)]
pub struct Calibration {
    kernel_ms: Vec<f64>,
}

impl Calibration {
    /// Times the kernel once more (best of two runs).
    pub fn mark(&mut self) {
        self.kernel_ms.push(kernel_ms().min(kernel_ms()));
    }

    /// Speed factor of the interval between marks `i` and `i + 1`.
    pub fn factor(&self, i: usize) -> f64 {
        let k = &self.kernel_ms;
        CALIBRATION_REF_MS * 2.0 / (k[i] + k[(i + 1).min(k.len() - 1)])
    }

    /// Median kernel time, for the report.
    pub fn median_ms(&self) -> f64 {
        quantile(&mut self.kernel_ms.clone(), 0.5)
    }
}

fn kernel_ms() -> f64 {
    use std::hint::black_box;
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for rep in 0..200 {
        let mut a = [[0.0f64; 8]; 8];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                let diag = if i == j { 10.0 } else { 0.0 };
                *x = ((i * 7 + j * 3 + rep) as f64 * 0.01).exp() + diag;
            }
        }
        for k in 0..8 {
            let (top, rest) = a.split_at_mut(k + 1);
            let pivot = &top[k];
            for row in rest {
                let f = row[k] / pivot[k];
                for (x, p) in row[k..].iter_mut().zip(&pivot[k..]) {
                    *x -= f * p;
                }
            }
        }
        acc += a[7][7];
    }
    let n = 1u32 << 20;
    let next: Vec<u32> = (0..n)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) % n)
        .collect();
    let (mut p, mut sum) = (1u32, 0u64);
    for _ in 0..60_000 {
        p = (next[p as usize] ^ (sum as u32 & 7)) % n;
        sum = sum.wrapping_add(u64::from(p));
    }
    let mut live: std::collections::VecDeque<Vec<u64>> = std::collections::VecDeque::new();
    for i in 0..2000u64 {
        let w: Vec<u64> = (0..32)
            .map(|k| (i * 31 + k).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        sum += w.iter().map(|x| u64::from(x.count_ones())).sum::<u64>();
        live.push_back(w);
        if live.len() > 64 {
            live.pop_front();
        }
    }
    let mut map = std::collections::HashMap::new();
    for i in 0..15_000u32 {
        map.insert(i.wrapping_mul(2_654_435_761), i);
    }
    for i in 0..30_000u32 {
        sum += map
            .get(&i.wrapping_mul(2_654_435_761))
            .map_or(0, |&v| u64::from(v));
    }
    black_box((acc, sum, live));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` [`SETUP_REPS`] times, each after a calibration mark,
/// and keeps the last result; the earlier ones are dropped (their
/// teardown is not timed). Returns the median normalized set-up time
/// in seconds.
pub fn median_setup<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    let mut calibration = Calibration::default();
    for i in 0..SETUP_REPS {
        drop(kept.take());
        calibration.mark();
        let (state, ms) = timed(&mut setup);
        kept = Some(state?);
        calibration.mark();
        times.push(ms / 1e3 * calibration.factor(2 * i));
    }
    Ok((kept.expect("SETUP_REPS > 0"), quantile(&mut times, 0.5)))
}

/// Linear-interpolated quantile (`q` in `[0, 1]`); sorts `values`.
/// Empty input reads NaN, which the result line refuses.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Runs of the job list in one measured run. A job's time is the lesser
/// of its runs, so a stall of the host must hit the same job in every
/// run to count, while a slower program is slower in all of them.
pub const ROUNDS: usize = 2;

/// A measured job's time, the lesser over the rounds: raw wall-clock
/// and normalized milliseconds.
#[derive(Clone, Copy)]
pub struct Timing {
    pub raw_ms: f64,
    pub ms: f64,
}

/// Outputs of [`run_passes`].
pub struct Passes<O> {
    pub results: Vec<(O, Timing)>,
    kernel_ms: f64,
}

/// Runs `jobs` one after another (a closed loop with one caller)
/// [`ROUNDS`] times, in passes of `per_pass` with a calibration mark
/// before each pass and after the last, and times every job. Keeps the
/// first round's outputs; a job fails if any round fails it.
pub fn run_passes<J, O>(
    jobs: &[J],
    per_pass: usize,
    mut exec: impl FnMut(&J) -> Result<O, String>,
) -> Passes<Result<O, String>> {
    let mut results: Vec<(Result<O, String>, Timing)> = Vec::with_capacity(jobs.len());
    let mut kernel_ms = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut calibration = Calibration::default();
        let mut raw = Vec::with_capacity(jobs.len());
        for chunk in jobs.chunks(per_pass) {
            calibration.mark();
            raw.extend(chunk.iter().map(|job| match over_budget() {
                Some(skipped) => (Err(skipped), 0.0),
                None => timed(|| exec(job)),
            }));
        }
        calibration.mark();
        kernel_ms.push(calibration.median_ms());
        for (i, (out, raw_ms)) in raw.into_iter().enumerate() {
            let ms = raw_ms * calibration.factor(i / per_pass);
            if round == 0 {
                results.push((out, Timing { raw_ms, ms }));
                continue;
            }
            let (first, timing) = &mut results[i];
            if let (Ok(_), Err(e)) = (&*first, out) {
                *first = Err(e);
            }
            timing.raw_ms = timing.raw_ms.min(raw_ms);
            timing.ms = timing.ms.min(ms);
        }
    }
    Passes {
        results,
        kernel_ms: quantile(&mut kernel_ms, 0.5),
    }
}

/// Latencies of the jobs that succeeded, by kind.
#[derive(Default)]
pub struct Latencies {
    samples: Vec<(&'static str, Timing)>,
}

impl Latencies {
    pub fn push(&mut self, kind: &'static str, timing: Timing) {
        self.samples.push((kind, timing));
    }

    /// Sets `jobs_per_s` (jobs per second of their summed times; one
    /// caller, so nothing overlaps) and the `p50_ms` / `p90_ms` /
    /// `p99_ms` of the normalized latencies (raw values under `raw.`),
    /// and notes each kind's median and 90th percentile.
    pub fn finish<O>(self, report: &mut Report, passes: &Passes<O>) {
        let n = self.samples.len() as f64;
        let norm_s: f64 = self.samples.iter().map(|(_, t)| t.ms / 1e3).sum();
        let raw_s: f64 = self.samples.iter().map(|(_, t)| t.raw_ms / 1e3).sum();
        report.set("jobs_per_s", n / norm_s, "1/s");
        report.set("raw.jobs_per_s", n / raw_s, "1/s");
        let mut norm: Vec<f64> = self.samples.iter().map(|(_, t)| t.ms).collect();
        let mut raw: Vec<f64> = self.samples.iter().map(|(_, t)| t.raw_ms).collect();
        for (name, q) in [("p50_ms", 0.5), ("p90_ms", 0.9), ("p99_ms", 0.99)] {
            report.set(name, quantile(&mut norm, q), "ms");
            report.set(&format!("raw.{name}"), quantile(&mut raw, q), "ms");
        }
        report.note(format!(
            "{n} jobs, best of {ROUNDS} rounds: {raw_s:.3} s ({norm_s:.3} s normalized), calibration kernel median {:.3} ms",
            passes.kernel_ms
        ));
        let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (kind, t) in &self.samples {
            by_kind.entry(kind).or_default().push(t.ms);
        }
        for (kind, mut ms) in by_kind {
            let n = ms.len();
            let (p50, p90) = (quantile(&mut ms, 0.5), quantile(&mut ms, 0.9));
            report.note(format!(
                "kind {kind}: {n} jobs, p50 {p50:.3} ms, p90 {p90:.3} ms"
            ));
        }
    }
}

/// A traced replay: per-layer busy times and per-kind job times,
/// normalized pass by pass like the end-to-end times. A kind's residual
/// is its jobs' time minus the time of the layer calls its replay made.
#[derive(Default)]
pub struct Trace {
    calibration: Calibration,
    /// Per pass: layer metric, or `job:`/`parts:` kind sums, to raw ms.
    passes: Vec<BTreeMap<String, f64>>,
    jobs: BTreeMap<&'static str, u64>,
    traced_ms: f64,
    plain_ms: f64,
}

impl Trace {
    /// Starts the next pass with a calibration mark.
    pub fn pass(&mut self) {
        self.calibration.mark();
        self.passes.push(BTreeMap::new());
    }

    /// Records one replayed job: its time as one call, the `(metric,
    /// ms)` parts of its replay, and the wall times of the timed and
    /// the untimed replay.
    pub fn job(
        &mut self,
        kind: &'static str,
        job_ms: f64,
        parts: &[(&'static str, f64)],
        walls: (f64, f64),
    ) {
        let pass = self.passes.last_mut().expect("pass() before job()");
        let mut add = |key: String, ms: f64| *pass.entry(key).or_default() += ms;
        add(format!("job:{kind}"), job_ms);
        for &(name, ms) in parts {
            add(name.to_string(), ms);
            add(format!("parts:{kind}"), ms);
        }
        *self.jobs.entry(kind).or_default() += 1;
        self.traced_ms += walls.0;
        self.plain_ms += walls.1;
    }

    /// Adds the normalized layer times, each kind's residual (under
    /// `residual_metric(kind)`) and `trace.overhead_pct` to `report`.
    pub fn finish(mut self, report: &mut Report, residual_metric: impl Fn(&str) -> &'static str) {
        self.calibration.mark();
        let mut total: BTreeMap<String, f64> = BTreeMap::new();
        for (p, pass) in self.passes.iter().enumerate() {
            let factor = self.calibration.factor(p);
            for (key, ms) in pass {
                *total.entry(key.clone()).or_default() += ms * factor;
            }
        }
        for (key, ms) in &total {
            if !key.contains(':') {
                report.add(key, *ms, "ms");
            }
        }
        for (kind, jobs) in &self.jobs {
            let job_ms = total.get(&format!("job:{kind}")).copied().unwrap_or(0.0);
            let parts_ms = total.get(&format!("parts:{kind}")).copied().unwrap_or(0.0);
            let residual = job_ms - parts_ms;
            report.note(format!(
                "residual {kind}: {jobs} jobs, job {job_ms:.3} ms, parts {parts_ms:.3} ms, residual {residual:.3} ms"
            ));
            report.add(residual_metric(kind), residual, "ms");
        }
        let overhead = (self.traced_ms / self.plain_ms - 1.0) * 100.0;
        report.set("trace.overhead_pct", overhead, "%");
    }
}

/// Runs a replay untimed and timed, alternating which goes first so
/// warm caches favour neither; returns the timed replay's output and
/// the wall ms of the timed and the untimed replay.
pub fn replay_both<R>(
    timed_first: bool,
    mut replay: impl FnMut(bool) -> Result<R, String>,
) -> Result<(R, (f64, f64)), String> {
    let mut once = |timed_calls| {
        let (out, ms) = timed(|| replay(timed_calls));
        out.map(|r| (r, ms))
    };
    if timed_first {
        let (out, traced) = once(true)?;
        let (_, plain) = once(false)?;
        Ok((out, (traced, plain)))
    } else {
        let (_, plain) = once(false)?;
        let (out, traced) = once(true)?;
        Ok((out, (traced, plain)))
    }
}

/// Runs `f`, timed into `parts` under `name` when `timed_calls`.
pub fn call<R>(
    parts: &mut Vec<(&'static str, f64)>,
    timed_calls: bool,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    if !timed_calls {
        return f();
    }
    let (out, ms) = timed(f);
    parts.push((name, ms));
    out
}

/// FNV-1a-64 over the canonical response bytes, in job order.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Separator, so ["ab","c"] and ["a","bc"] differ.
        self.0 ^= 0xFF;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: measured jobs, plus replayed jobs in a
    /// traced run.
    pub attempted: u64,
    /// Attempted operations that failed: an engine error, a typed
    /// refusal, a transport error or a failed output check.
    pub failed: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
    counters: BTreeMap<String, u64>,
    pub digest: Digest,
    notes: Vec<String>,
}

/// At most this many failure notes are printed.
const MAX_FAILURE_NOTES: usize = 20;

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Adds to a metric (a per-layer busy time summed over calls).
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .entry(name.to_string())
            .or_insert((0.0, unit))
            .0 += value;
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _)| v)
    }

    /// Adds to a deterministic work counter: it must repeat exactly for
    /// the same seed.
    pub fn count(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_default() += value;
    }

    /// Free-form report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one attempted operation and, if `problems` is not empty,
    /// one failure.
    pub fn outcome(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if problems.is_empty() {
            return;
        }
        self.failed += 1;
        if self.failed as usize <= MAX_FAILURE_NOTES {
            self.notes
                .push(format!("FAILED {what}: {}", problems.join("; ")));
        }
    }

    pub fn print_lines(&self, workload: &str, seed: u64) {
        println!("workload {workload} seed {seed}");
        for line in &self.notes {
            println!("{line}");
        }
        for (name, value) in &self.counters {
            println!("counter {name} {value}");
        }
        for (name, (value, unit)) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("metric error_rate {error_rate} ratio");
        println!("digest {:016x}", self.digest.0);
    }
}

/// Appends `problem` when `ok` is false.
pub fn expect(problems: &mut Vec<String>, ok: bool, problem: impl FnOnce() -> String) {
    if !ok {
        problems.push(problem());
    }
}
