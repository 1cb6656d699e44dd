//! Windowed time-series telemetry: a bounded ring of periodic registry
//! snapshots plus the derivations that turn cumulative counters into
//! *rates* and cumulative log₂ histograms into *windowed* quantiles.
//!
//! The registry (§ [`crate::registry`](mod@crate::registry)) is cumulative-since-boot, which
//! answers "how has this process done overall" but not "what is it doing
//! *now*" — the question a long-lived estimator's operator (and the
//! drift watchdog in [`crate::watchdog`]) actually asks. This module adds
//! the time dimension without touching any hot path:
//!
//! * a background **sampler** thread ([`Sampler`]) takes one full
//!   registry snapshot every `PRMSEL_TS_INTERVAL_MS` (default 1000 ms)
//!   and pushes it into a fixed-capacity ring bounded by
//!   `PRMSEL_TS_WINDOW` samples (default 300 — five minutes at the
//!   default cadence), so memory is `window × registry size`, constant
//!   over any uptime;
//! * consecutive ring entries are differenced into [`WindowStats`]:
//!   counter deltas become per-second rates (queries/s, windowed
//!   plan/memo hit ratios), and histogram deltas are **exact** interval
//!   histograms — the log₂ buckets are cumulative counters, so bucket
//!   subtraction ([`crate::HistogramSnapshot::delta`]) reconstructs the
//!   interval's distribution, from which windowed p50/p99 fall out;
//! * estimation hot paths never touch any of this. The only shared state
//!   is the metrics registry they already write; the sampler's off gate
//!   ([`on`]) is one relaxed load, and the ring's short mutex is taken
//!   only by the sampler tick and by `/timeseries` scrapers.
//!
//! After every tick the sampler hands the newest window to
//! [`crate::watchdog::evaluate`], which turns drift into typed alerts.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::JsonWriter;
use crate::registry::{registry, HistogramSnapshot, Snapshot};

/// Default sampler cadence (`PRMSEL_TS_INTERVAL_MS`).
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(1000);

/// Default ring capacity in samples (`PRMSEL_TS_WINDOW`).
pub const DEFAULT_WINDOW: usize = 300;

/// Sampler cadence: `PRMSEL_TS_INTERVAL_MS`, default 1000 ms (clamped to
/// ≥ 10 ms — a sub-10 ms cadence would spend more time snapshotting than
/// sampling).
pub fn interval_from_env() -> Duration {
    let ms = std::env::var("PRMSEL_TS_INTERVAL_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_INTERVAL.as_millis() as u64);
    Duration::from_millis(ms.max(10))
}

/// Ring capacity: `PRMSEL_TS_WINDOW`, default 300 samples (≥ 2 — one
/// window needs two snapshots).
pub fn window_from_env() -> usize {
    std::env::var("PRMSEL_TS_WINDOW")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_WINDOW)
        .max(2)
}

/// One periodic observation: the whole registry at a point in time.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Milliseconds since the process-local epoch (first use of this
    /// module). Monotone — taken from [`Instant`], never wall clock.
    pub at_ms: u64,
    /// The full registry snapshot.
    pub snap: Snapshot,
}

/// Milliseconds since the process-local monotonic epoch.
pub fn now_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// The bounded snapshot ring.
pub struct TimeSeries {
    cap: usize,
    inner: Mutex<VecDeque<Arc<Sample>>>,
}

impl TimeSeries {
    /// An empty ring holding at most `cap` samples (min 2).
    pub fn new(cap: usize) -> TimeSeries {
        TimeSeries { cap: cap.max(2), inner: Mutex::new(VecDeque::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Arc<Sample>>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends a sample, evicting the oldest beyond capacity.
    pub fn push(&self, sample: Sample) {
        let mut ring = self.lock();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(Arc::new(sample));
    }

    /// Every retained sample, oldest first. `Arc` clones — the snapshots
    /// themselves are shared, not copied.
    pub fn samples(&self) -> Vec<Arc<Sample>> {
        self.lock().iter().cloned().collect()
    }

    /// The newest sample, if any.
    pub fn latest(&self) -> Option<Arc<Sample>> {
        self.lock().back().cloned()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Ring capacity in samples.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Drops every sample (test isolation, `replace_model`).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// The last `n` windows (consecutive-sample differences), oldest
    /// first. Fewer are returned when the ring holds fewer samples.
    pub fn windows(&self, n: usize) -> Vec<WindowStats> {
        let samples = self.samples();
        let pairs = samples.len().saturating_sub(1).min(n);
        samples[samples.len() - 1 - pairs..]
            .windows(2)
            .map(|w| WindowStats::between(&w[0], &w[1]))
            .collect()
    }
}

/// The process-global ring (capacity from `PRMSEL_TS_WINDOW` at first
/// use).
pub fn series() -> &'static TimeSeries {
    static SERIES: OnceLock<TimeSeries> = OnceLock::new();
    SERIES.get_or_init(|| TimeSeries::new(window_from_env()))
}

/// Whether a sampler is currently running — one relaxed load, the same
/// cost discipline as the flight-recorder gate. Hot paths do not consult
/// this (they have nothing to do for the sampler); it exists so idle
/// periods cost nothing and so tests/endpoints can report sampler state.
pub fn on() -> bool {
    SAMPLING.load(Ordering::Relaxed)
}

static SAMPLING: AtomicBool = AtomicBool::new(false);

/// Takes one snapshot now, pushes it into the global ring, and runs the
/// watchdog over the newest window. The sampler thread calls this every
/// interval; tests call it directly for deterministic timing.
pub fn sample_now() {
    let sample = Sample { at_ms: now_ms(), snap: registry().snapshot() };
    series().push(sample);
    crate::counter!("obs.ts.samples").inc();
    let samples = series().samples();
    if samples.len() >= 2 {
        let w = WindowStats::between(
            &samples[samples.len() - 2],
            &samples[samples.len() - 1],
        );
        crate::watchdog::evaluate(&w);
    }
}

/// A running background sampler. Dropping it (or calling
/// [`Sampler::stop`]) stops the thread and joins it.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling at the environment cadence
    /// (`PRMSEL_TS_INTERVAL_MS`).
    pub fn start() -> Sampler {
        Sampler::start_with(interval_from_env())
    }

    /// Starts sampling every `interval`. Only one sampler should run at
    /// a time (a second one would double the tick rate; nothing breaks,
    /// but windows halve).
    pub fn start_with(interval: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        SAMPLING.store(true, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name("prmsel-ts-sampler".to_owned())
            .spawn(move || {
                // Anchor the first sample immediately so the first
                // window closes after one interval, not two.
                sample_now();
                let mut next = Instant::now() + interval;
                while !thread_stop.load(Ordering::Relaxed) {
                    // Sleep in short slices so stop() returns promptly
                    // even at multi-second intervals.
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep((next - now).min(Duration::from_millis(25)));
                        continue;
                    }
                    sample_now();
                    // Skip missed ticks rather than bursting to catch
                    // up — a stalled host should not fabricate windows.
                    while next <= Instant::now() {
                        next += interval;
                    }
                }
            })
            .expect("spawn timeseries sampler");
        Sampler { stop, handle: Some(handle) }
    }

    /// Stops the thread and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
            SAMPLING.store(false, Ordering::Relaxed);
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Derived statistics of one window (the interval between two ring
/// samples). Counter fields are deltas clamped at zero; ratio fields are
/// `None` when the window saw no relevant events.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Window start (ms since process epoch).
    pub t0_ms: u64,
    /// Window end.
    pub t1_ms: u64,
    /// Estimates answered in the window (`prm.estimate.calls` delta).
    pub queries: u64,
    /// Queries per second over the window.
    pub qps: f64,
    /// Interval histogram of `prm.estimate.ns` (warm + cold estimates);
    /// `latency.p50()`/`p99()` are the windowed latency quantiles.
    pub latency: HistogramSnapshot,
    /// Interval histogram of `quality.qerror_milli` (q-error × 1000).
    pub qerror: HistogramSnapshot,
    /// Plan-cache hit ratio over the window, if any lookups happened.
    pub plan_hit_ratio: Option<f64>,
    /// `P(E)` signature-memo hit ratio over the window.
    pub memo_hit_ratio: Option<f64>,
    /// Degradation-ladder fallback ratio over the window (fallback
    /// answers / ladder queries), if the ladder ran.
    pub fallback_ratio: Option<f64>,
    /// Guard panics in the window.
    pub guard_panics: u64,
}

/// Delta of counter `name` between two snapshots, clamped at zero (a
/// registry reset between samples must not wrap).
fn counter_delta(earlier: &Snapshot, later: &Snapshot, name: &str) -> u64 {
    later.counter(name).unwrap_or(0).saturating_sub(earlier.counter(name).unwrap_or(0))
}

/// Interval histogram of `name` between two snapshots (empty when the
/// histogram is absent from either).
fn hist_delta(earlier: &Snapshot, later: &Snapshot, name: &str) -> HistogramSnapshot {
    match (earlier.histogram(name), later.histogram(name)) {
        (Some(e), Some(l)) => l.delta(e),
        (None, Some(l)) => l.clone(),
        _ => HistogramSnapshot { count: 0, sum: 0, min: 0, max: 0, buckets: Vec::new() },
    }
}

fn ratio(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    (total > 0).then(|| hits as f64 / total as f64)
}

impl WindowStats {
    /// Differences two samples (`earlier` must precede `later`).
    pub fn between(earlier: &Sample, later: &Sample) -> WindowStats {
        let dt_ms = later.at_ms.saturating_sub(earlier.at_ms).max(1);
        let queries = counter_delta(&earlier.snap, &later.snap, "prm.estimate.calls");
        let guard_queries =
            counter_delta(&earlier.snap, &later.snap, "prm.guard.queries");
        let fallback = counter_delta(&earlier.snap, &later.snap, "prm.guard.fallback");
        WindowStats {
            t0_ms: earlier.at_ms,
            t1_ms: later.at_ms,
            queries,
            qps: queries as f64 * 1000.0 / dt_ms as f64,
            latency: hist_delta(&earlier.snap, &later.snap, "prm.estimate.ns"),
            qerror: hist_delta(&earlier.snap, &later.snap, "quality.qerror_milli"),
            plan_hit_ratio: ratio(
                counter_delta(&earlier.snap, &later.snap, "prm.plan.hit"),
                counter_delta(&earlier.snap, &later.snap, "prm.plan.miss"),
            ),
            memo_hit_ratio: ratio(
                counter_delta(&earlier.snap, &later.snap, "prm.plan.reduce.hit"),
                counter_delta(&earlier.snap, &later.snap, "prm.plan.reduce.miss"),
            ),
            fallback_ratio: (guard_queries > 0)
                .then(|| fallback as f64 / guard_queries as f64),
            guard_panics: counter_delta(&earlier.snap, &later.snap, "prm.guard.panic"),
        }
    }

    /// Window length in milliseconds (≥ 1).
    pub fn dt_ms(&self) -> u64 {
        self.t1_ms.saturating_sub(self.t0_ms).max(1)
    }
}

/// Per-template windowed q-error: one entry per
/// `quality.qerror_milli{template=…}` series with activity in the
/// interval, as `(template hash label, interval histogram)`.
pub fn template_qerror_windows(
    earlier: &Sample,
    later: &Sample,
) -> Vec<(String, HistogramSnapshot)> {
    let mut out = Vec::new();
    for (name, l) in &later.snap.histograms {
        let (family, labels) = crate::openmetrics::split_labels(name);
        if family != "quality.qerror_milli" {
            continue;
        }
        let Some(tpl) = labels.iter().find(|(k, _)| k == "template").map(|(_, v)| v)
        else {
            continue;
        };
        let d = match earlier.snap.histogram(name) {
            Some(e) => l.delta(e),
            None => l.clone(),
        };
        if d.count > 0 {
            out.push((tpl.clone(), d));
        }
    }
    out
}

fn write_hist_summary(w: &mut JsonWriter, h: &HistogramSnapshot) {
    w.begin_object();
    w.key("n");
    w.uint(h.count);
    w.key("mean");
    w.float(h.mean());
    w.key("p50");
    w.uint(h.p50());
    w.key("p90");
    w.uint(h.p90());
    w.key("p99");
    w.uint(h.p99());
    w.end_object();
}

fn opt_ratio(w: &mut JsonWriter, key: &str, v: Option<f64>) {
    w.key(key);
    match v {
        Some(r) => w.float(r),
        None => w.float(f64::NAN), // renders as null
    }
}

/// Renders the last `n` windows of the global ring (plus per-template
/// q-error over the newest window and sampler metadata) as the
/// `/timeseries` JSON document.
pub fn to_json(n: usize) -> String {
    let samples = series().samples();
    let windows: Vec<WindowStats> =
        samples.windows(2).map(|w| WindowStats::between(&w[0], &w[1])).collect();
    let windows = &windows[windows.len().saturating_sub(n)..];

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("sampling");
    w.raw(if on() { "true" } else { "false" });
    w.key("interval_ms");
    w.uint(interval_from_env().as_millis() as u64);
    w.key("capacity");
    w.uint(series().capacity() as u64);
    w.key("samples");
    w.uint(samples.len() as u64);
    w.key("now_ms");
    w.uint(now_ms());
    w.key("windows");
    w.begin_array();
    for win in windows {
        w.begin_object();
        w.key("t0_ms");
        w.uint(win.t0_ms);
        w.key("t1_ms");
        w.uint(win.t1_ms);
        w.key("queries");
        w.uint(win.queries);
        w.key("qps");
        w.float(win.qps);
        w.key("latency_ns");
        write_hist_summary(&mut w, &win.latency);
        w.key("qerror_milli");
        write_hist_summary(&mut w, &win.qerror);
        opt_ratio(&mut w, "plan_hit_ratio", win.plan_hit_ratio);
        opt_ratio(&mut w, "memo_hit_ratio", win.memo_hit_ratio);
        opt_ratio(&mut w, "fallback_ratio", win.fallback_ratio);
        w.key("guard_panics");
        w.uint(win.guard_panics);
        w.end_object();
    }
    w.end_array();
    w.key("templates");
    w.begin_array();
    if samples.len() >= 2 {
        let (earlier, later) = (&samples[samples.len() - 2], &samples[samples.len() - 1]);
        for (tpl, h) in template_qerror_windows(earlier, later) {
            w.begin_object();
            w.key("template");
            w.string(&tpl);
            w.key("qerror_milli");
            write_hist_summary(&mut w, &h);
            w.end_object();
        }
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(counters: &[(&str, u64)], hist: &[(&str, &[u64])]) -> Snapshot {
        let mut s = Snapshot::default();
        for &(name, v) in counters {
            s.counters.push((name.to_owned(), v));
        }
        for &(name, obs) in hist {
            let h = crate::registry::Histogram::default();
            for &v in obs {
                h.record(v);
            }
            s.histograms.push((name.to_owned(), h.snapshot()));
        }
        s
    }

    #[test]
    fn window_rates_and_quantiles_derive_from_deltas() {
        let earlier = Sample {
            at_ms: 1000,
            snap: snap_with(
                &[
                    ("prm.estimate.calls", 100),
                    ("prm.plan.hit", 90),
                    ("prm.plan.miss", 10),
                ],
                &[("prm.estimate.ns", &[1000, 1000])],
            ),
        };
        let later = Sample {
            at_ms: 3000,
            snap: snap_with(
                &[
                    ("prm.estimate.calls", 300),
                    ("prm.plan.hit", 289),
                    ("prm.plan.miss", 11),
                ],
                &[("prm.estimate.ns", &[1000, 1000, 1000, 1000, 64_000])],
            ),
        };
        let w = WindowStats::between(&earlier, &later);
        assert_eq!((w.t0_ms, w.t1_ms, w.queries), (1000, 3000, 200));
        assert!((w.qps - 100.0).abs() < 1e-9, "{}", w.qps);
        // Interval latency: 2 obs at ~1 µs, one at ~64 µs.
        assert_eq!(w.latency.count, 3);
        let bound =
            |v| crate::registry::bucket_upper_bound(crate::registry::bucket_of(v));
        assert_eq!(w.latency.p50(), bound(1000));
        assert_eq!(w.latency.p99(), bound(64_000));
        // 199 hits / 1 miss in the window.
        assert!((w.plan_hit_ratio.unwrap() - 199.0 / 200.0).abs() < 1e-9);
        assert_eq!(w.memo_hit_ratio, None, "no memo counters in snapshots");
        assert_eq!(w.fallback_ratio, None, "ladder never ran");
    }

    #[test]
    fn window_survives_a_registry_reset_between_samples() {
        let earlier = Sample {
            at_ms: 0,
            snap: snap_with(
                &[("prm.estimate.calls", 500)],
                &[("prm.estimate.ns", &[100, 100, 100])],
            ),
        };
        let later = Sample {
            at_ms: 1000,
            snap: snap_with(
                &[("prm.estimate.calls", 20)],
                &[("prm.estimate.ns", &[100])],
            ),
        };
        let w = WindowStats::between(&earlier, &later);
        assert_eq!(w.queries, 0, "counter delta clamps");
        assert_eq!(w.qps, 0.0);
        assert_eq!(w.latency.count, 0, "bucket deltas clamp");
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let ts = TimeSeries::new(3);
        for i in 0..10u64 {
            ts.push(Sample { at_ms: i, snap: Snapshot::default() });
        }
        let samples = ts.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(
            samples.iter().map(|s| s.at_ms).collect::<Vec<_>>(),
            vec![7, 8, 9],
            "oldest evicted, order preserved"
        );
        assert_eq!(ts.latest().unwrap().at_ms, 9);
        ts.clear();
        assert!(ts.is_empty());
    }

    #[test]
    fn windows_pairs_consecutive_samples() {
        let ts = TimeSeries::new(8);
        for i in 0..5u64 {
            ts.push(Sample { at_ms: i * 1000, snap: Snapshot::default() });
        }
        let all = ts.windows(usize::MAX);
        assert_eq!(all.len(), 4);
        assert!(all.windows(2).all(|p| p[0].t1_ms == p[1].t0_ms));
        let last2 = ts.windows(2);
        assert_eq!(last2.len(), 2);
        assert_eq!(last2[1].t1_ms, 4000);
        assert!(ts.windows(0).is_empty());
    }

    #[test]
    fn sampler_fills_the_global_ring_and_gates() {
        // Serialize against other tests using the global ring.
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        series().clear();
        assert!(!on());
        let sampler = Sampler::start_with(Duration::from_millis(20));
        assert!(on());
        let deadline = Instant::now() + Duration::from_secs(5);
        while series().len() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        sampler.stop();
        assert!(!on());
        let samples = series().samples();
        assert!(samples.len() >= 3, "sampler too slow: {}", samples.len());
        assert!(samples.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        // JSON renders and parses.
        let doc = to_json(16);
        let v = crate::json::parse(&doc).expect("timeseries JSON parses");
        assert!(v.get("samples").unwrap().as_u64().unwrap() >= 3);
        assert!(v.get("windows").unwrap().as_array().unwrap().len() >= 2);
        series().clear();
    }
}
