//! Drift / SLO watchdog over the [`crate::timeseries`] windows.
//!
//! The paper's §5 maintenance experiments show PRM estimate quality
//! decaying as the underlying data drifts away from the model that was
//! fit; a long-lived estimator therefore needs an *automatic* signal
//! that quality has left the healthy band, not a human reading charts.
//! This module is that signal. After every sampler tick it receives the
//! newest [`WindowStats`] and checks:
//!
//! * **q-error drift** — the windowed q-error p99 against a baseline
//!   that is either operator-pinned (`PRMSEL_SLO_QERROR`, in q-error
//!   units) or auto-seeded from the first healthy window (4× its p99,
//!   floored at 8.0 — generous enough that normal variance never fires,
//!   tight enough that a degradation to the uniform floor does);
//!   per-template q-error EWMAs (fed by [`observe_qerror`] from the
//!   core's `record_quality`) localise the drift to a query shape;
//! * **warm-latency SLO burn** — windowed latency p99 vs
//!   `PRMSEL_SLO_WARM_NS`; one breached window is a warning, two
//!   consecutive breached windows (a sustained burn, not a GC blip)
//!   escalate to critical;
//! * **fallback-ratio trend** — the degradation ladder's windowed
//!   fallback share vs `PRMSEL_SLO_FALLBACK` (default 0.5): half the
//!   threshold warns, crossing it is critical;
//! * **guard panics** — any panic caught by the estimate guard in the
//!   window is critical outright.
//!
//! Breaches become typed [`Alert`]s: the alerts of the newest window are
//! the *active* set (what `/alerts` leads with and what `/health` folds
//! in — any active critical flips it to 503), and every alert is also
//! appended to a bounded history ring (`PRMSEL_ALERT_RING`, default
//! 256) so a scraper that missed the window still sees the incident.
//!
//! Like the rest of the observability plane, all of this is off the hot
//! path: evaluation runs on the sampler thread, and the only hook that
//! estimation code calls ([`observe_qerror`]) exits on one relaxed load
//! while no sampler is running.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::json::JsonWriter;
use crate::timeseries::WindowStats;

/// How loud an alert is. `Critical` alerts flip `/health` to 503.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Worth a look: a threshold was approached or briefly crossed.
    Warning,
    /// Out of SLO: the estimator should be refit, degraded, or bypassed.
    Critical,
}

impl Severity {
    /// Lower-case label used in JSON and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One threshold breach in one window.
#[derive(Debug, Clone)]
pub struct Alert {
    /// How loud.
    pub severity: Severity,
    /// Which signal fired (e.g. `quality.qerror.p99`).
    pub metric: String,
    /// Window start (ms since process epoch).
    pub t0_ms: u64,
    /// Window end.
    pub t1_ms: u64,
    /// Observed value.
    pub value: f64,
    /// Threshold it breached.
    pub threshold: f64,
    /// Offending template hash, for per-template signals.
    pub template: Option<String>,
}

impl Alert {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("severity");
        w.string(self.severity.as_str());
        w.key("metric");
        w.string(&self.metric);
        w.key("t0_ms");
        w.uint(self.t0_ms);
        w.key("t1_ms");
        w.uint(self.t1_ms);
        w.key("value");
        w.float(self.value);
        w.key("threshold");
        w.float(self.threshold);
        if let Some(tpl) = &self.template {
            w.key("template");
            w.string(tpl);
        }
        w.end_object();
    }

    /// One-line human rendering (used by `prmsel top`).
    pub fn describe(&self) -> String {
        let tpl = self
            .template
            .as_deref()
            .map(|t| format!(" template={t}"))
            .unwrap_or_default();
        format!(
            "[{}] {}{} = {:.3} (threshold {:.3})",
            self.severity.as_str(),
            self.metric,
            tpl,
            self.value,
            self.threshold
        )
    }
}

// ---------------------------------------------------------------------
// Configuration: env defaults with programmatic atomic overrides, the
// same layering as `core::guard` budgets. Overrides win; `f64` values
// are stored as bits with `u64::MAX` (a NaN pattern no caller sets) as
// the UNSET sentinel.
// ---------------------------------------------------------------------

const UNSET: u64 = u64::MAX;

static SLO_QERROR: AtomicU64 = AtomicU64::new(UNSET);
static SLO_WARM_NS: AtomicU64 = AtomicU64::new(UNSET);
static SLO_FALLBACK: AtomicU64 = AtomicU64::new(UNSET);

fn env_f64(var: &'static str, cache: &'static OnceLock<Option<f64>>) -> Option<f64> {
    *cache.get_or_init(|| {
        std::env::var(var).ok().and_then(|v| v.trim().parse::<f64>().ok())
    })
}

fn resolve_env(
    over: &AtomicU64,
    var: &'static str,
    cache: &'static OnceLock<Option<f64>>,
) -> Option<f64> {
    match over.load(Ordering::Relaxed) {
        UNSET => env_f64(var, cache),
        bits => Some(f64::from_bits(bits)),
    }
}

/// Pinned q-error SLO: programmatic override, else `PRMSEL_SLO_QERROR`.
/// `None` means auto-seed from the first healthy window.
pub fn slo_qerror() -> Option<f64> {
    static CACHE: OnceLock<Option<f64>> = OnceLock::new();
    resolve_env(&SLO_QERROR, "PRMSEL_SLO_QERROR", &CACHE)
}

/// Warm-latency SLO in nanoseconds: override, else `PRMSEL_SLO_WARM_NS`.
/// `None` disables the latency check.
pub fn slo_warm_ns() -> Option<f64> {
    static CACHE: OnceLock<Option<f64>> = OnceLock::new();
    resolve_env(&SLO_WARM_NS, "PRMSEL_SLO_WARM_NS", &CACHE)
}

/// Fallback-ratio SLO: override, else `PRMSEL_SLO_FALLBACK`, else 0.5.
pub fn slo_fallback() -> f64 {
    static CACHE: OnceLock<Option<f64>> = OnceLock::new();
    resolve_env(&SLO_FALLBACK, "PRMSEL_SLO_FALLBACK", &CACHE).unwrap_or(0.5)
}

fn set_override(slot: &AtomicU64, v: Option<f64>) {
    slot.store(v.map_or(UNSET, f64::to_bits), Ordering::Relaxed);
}

/// Pins (or with `None`, un-pins back to env) the q-error SLO.
pub fn set_slo_qerror(v: Option<f64>) {
    set_override(&SLO_QERROR, v);
}

/// Pins the warm-latency SLO in nanoseconds.
pub fn set_slo_warm_ns(v: Option<f64>) {
    set_override(&SLO_WARM_NS, v);
}

/// Pins the fallback-ratio SLO.
pub fn set_slo_fallback(v: Option<f64>) {
    set_override(&SLO_FALLBACK, v);
}

/// Alert-history capacity: `PRMSEL_ALERT_RING`, default 256 (min 8).
pub fn alert_ring_from_env() -> usize {
    std::env::var("PRMSEL_ALERT_RING")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(256)
        .max(8)
}

/// A window must hold this many q-error observations before it can seed
/// the baseline or fire drift alerts — a one-query window is noise.
const MIN_QERROR_SAMPLES: u64 = 5;

/// Auto-seeded baseline = first healthy window's p99 × this headroom.
const BASELINE_HEADROOM: f64 = 4.0;

/// Auto-seeded baseline floor: q-error 8 is already far outside the
/// paper's reported healthy band (§5: median ≈ 1–2 on census-style
/// workloads), so any tighter floor would risk false alarms.
const BASELINE_FLOOR: f64 = 8.0;

/// EWMA smoothing for per-template q-error trends.
const EWMA_ALPHA: f64 = 0.2;

struct WatchState {
    /// Effective q-error threshold once known (pinned or auto-seeded).
    baseline_qerror: Option<f64>,
    /// Whether `baseline_qerror` came from auto-seeding.
    baseline_seeded: bool,
    /// Per-template q-error EWMA, keyed by template hash label.
    ewma: Vec<(String, f64)>,
    /// Consecutive windows with warm p99 over the latency SLO.
    latency_burn: u32,
    /// Alerts of the newest evaluated window.
    active: Vec<Alert>,
    /// Bounded ring of every alert ever raised.
    history: VecDeque<Alert>,
    history_cap: usize,
    /// Windows evaluated (exported for tests/JSON).
    evaluated: u64,
}

impl WatchState {
    fn new() -> WatchState {
        WatchState {
            baseline_qerror: None,
            baseline_seeded: false,
            ewma: Vec::new(),
            latency_burn: 0,
            active: Vec::new(),
            history: VecDeque::new(),
            history_cap: alert_ring_from_env(),
            evaluated: 0,
        }
    }
}

fn state() -> MutexGuard<'static, WatchState> {
    static STATE: OnceLock<Mutex<WatchState>> = OnceLock::new();
    STATE
        .get_or_init(|| Mutex::new(WatchState::new()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Feeds one q-error observation (q ≥ 1, *not* milli-scaled) into the
/// per-template EWMA. Called by the core's `record_quality`; exits on a
/// single relaxed load while no sampler runs.
pub fn observe_qerror(template: &str, q: f64) {
    if !crate::timeseries::on() || !q.is_finite() {
        return;
    }
    let mut st = state();
    match st.ewma.iter_mut().find(|(t, _)| t == template) {
        Some((_, e)) => *e = EWMA_ALPHA * q + (1.0 - EWMA_ALPHA) * *e,
        None => st.ewma.push((template.to_owned(), q)),
    }
}

/// Immediate guard-panic hook: raises a critical alert *now* instead of
/// waiting up to one sampler interval for the windowed `guard_panics`
/// check (which then keeps it active). Called by the core's panic guard;
/// exits on a single relaxed load while no sampler runs.
pub fn observe_panic() {
    if !crate::timeseries::on() {
        return;
    }
    let now = crate::timeseries::now_ms();
    let alert = Alert {
        severity: Severity::Critical,
        metric: "prm.guard.panic".to_owned(),
        t0_ms: now,
        t1_ms: now,
        value: 1.0,
        threshold: 0.0,
        template: None,
    };
    let mut st = state();
    if st.history.len() == st.history_cap {
        st.history.pop_front();
    }
    st.history.push_back(alert.clone());
    st.active.push(alert);
    crate::counter!("obs.watchdog.alerts").inc();
    crate::gauge!("obs.watchdog.critical").set(1.0);
}

/// Raises (or refreshes) an alert for `metric` immediately, outside the
/// windowed evaluation — the control-plane entry point (e.g. a failed
/// maintenance cycle). Custom metrics are never in the sampler's judged
/// set, so the alert stays active until [`resolve`] is called; raising
/// the same metric again replaces the previous alert instead of piling
/// up duplicates. Unlike the per-query observe hooks this is not gated
/// on the sampler: maintenance failures are rare control-plane events
/// that must be visible even when no sampler runs.
pub fn raise(severity: Severity, metric: &str, value: f64, threshold: f64) {
    let now = crate::timeseries::now_ms();
    let alert = Alert {
        severity,
        metric: metric.to_owned(),
        t0_ms: now,
        t1_ms: now,
        value,
        threshold,
        template: None,
    };
    let mut st = state();
    st.active.retain(|a| a.metric != metric);
    if st.history.len() == st.history_cap {
        st.history.pop_front();
    }
    st.history.push_back(alert.clone());
    st.active.push(alert);
    crate::counter!("obs.watchdog.alerts").inc();
    if st.active.iter().any(|a| a.severity == Severity::Critical) {
        crate::gauge!("obs.watchdog.critical").set(1.0);
    }
}

/// Clears any active alert for `metric` — the explicit all-clear for
/// alerts raised via [`raise`], which the windowed evaluation never
/// judges and therefore carries forward indefinitely.
pub fn resolve(metric: &str) {
    let mut st = state();
    st.active.retain(|a| a.metric != metric);
    let critical = st.active.iter().any(|a| a.severity == Severity::Critical);
    crate::gauge!("obs.watchdog.critical").set(if critical { 1.0 } else { 0.0 });
}

/// Evaluates one just-closed window, recomputing the active alert set.
/// Called by [`crate::timeseries::sample_now`] on the sampler thread.
///
/// Alerts are *sticky per metric*: a signal with no evidence in this
/// window (e.g. a quiet window with too few q-error samples to judge)
/// carries its previous alert forward instead of clearing it — an
/// incident ends when a window shows the metric healthy again, not when
/// traffic merely pauses. Carried-over alerts are not re-appended to the
/// history ring.
pub fn evaluate(w: &WindowStats) {
    let mut st = state();
    st.evaluated += 1;
    let mut alerts: Vec<Alert> = Vec::new();
    // Metrics that produced (or could have produced) a verdict this
    // window; anything else keeps its previous alert.
    let mut judged: Vec<&'static str> = Vec::new();
    let mk =
        |severity, metric: &str, value: f64, threshold: f64, template: Option<String>| {
            Alert {
                severity,
                metric: metric.to_owned(),
                t0_ms: w.t0_ms,
                t1_ms: w.t1_ms,
                value,
                threshold,
                template,
            }
        };

    // --- q-error drift ------------------------------------------------
    if st.baseline_qerror.is_none() {
        if let Some(pinned) = slo_qerror() {
            st.baseline_qerror = Some(pinned);
        }
    }
    if w.qerror.count >= MIN_QERROR_SAMPLES {
        judged.push("quality.qerror.p99");
        let p99 = w.qerror.p99() as f64 / 1000.0;
        match st.baseline_qerror {
            None => {
                // First healthy window seeds the baseline.
                st.baseline_qerror = Some((p99 * BASELINE_HEADROOM).max(BASELINE_FLOOR));
                st.baseline_seeded = true;
            }
            Some(thr) => {
                if p99 > thr {
                    alerts.push(mk(
                        Severity::Critical,
                        "quality.qerror.p99",
                        p99,
                        thr,
                        None,
                    ));
                } else if p99 > thr * 0.5 {
                    alerts.push(mk(
                        Severity::Warning,
                        "quality.qerror.p99",
                        p99,
                        thr,
                        None,
                    ));
                }
            }
        }
    }
    if let Some(thr) = st.baseline_qerror {
        for (tpl, e) in st.ewma.clone() {
            if e > thr {
                alerts.push(mk(
                    Severity::Warning,
                    "quality.qerror.ewma",
                    e,
                    thr,
                    Some(tpl),
                ));
            }
        }
    }

    // --- warm-latency SLO burn ---------------------------------------
    if let Some(slo) = slo_warm_ns() {
        if w.latency.count > 0 {
            judged.push("prm.estimate.p99_ns");
            let p99 = w.latency.p99() as f64;
            if p99 > slo {
                st.latency_burn += 1;
                let sev = if st.latency_burn >= 2 {
                    Severity::Critical
                } else {
                    Severity::Warning
                };
                alerts.push(mk(sev, "prm.estimate.p99_ns", p99, slo, None));
            } else {
                st.latency_burn = 0;
            }
        }
    }

    // --- fallback-ratio trend ----------------------------------------
    if let Some(r) = w.fallback_ratio {
        judged.push("prm.guard.fallback_ratio");
        let thr = slo_fallback();
        if r > thr {
            alerts.push(mk(Severity::Critical, "prm.guard.fallback_ratio", r, thr, None));
        } else if r > thr * 0.5 {
            alerts.push(mk(Severity::Warning, "prm.guard.fallback_ratio", r, thr, None));
        }
    }

    // --- guard panics -------------------------------------------------
    // A panic-free window only counts as recovery when traffic actually
    // flowed through it.
    if w.guard_panics > 0 || w.queries > 0 {
        judged.push("prm.guard.panic");
        if w.guard_panics > 0 {
            alerts.push(mk(
                Severity::Critical,
                "prm.guard.panic",
                w.guard_panics as f64,
                0.0,
                None,
            ));
        }
    }

    for a in &alerts {
        if st.history.len() == st.history_cap {
            st.history.pop_front();
        }
        st.history.push_back(a.clone());
        crate::counter!("obs.watchdog.alerts").inc();
    }
    // Stickiness: carry forward prior alerts for metrics this window
    // could not judge (EWMA alerts are recomputed every window above).
    for a in std::mem::take(&mut st.active) {
        if a.metric != "quality.qerror.ewma" && !judged.contains(&a.metric.as_str()) {
            alerts.push(a);
        }
    }
    let critical = alerts.iter().any(|a| a.severity == Severity::Critical);
    crate::gauge!("obs.watchdog.critical").set(if critical { 1.0 } else { 0.0 });
    st.active = alerts;
}

/// Alerts of the newest evaluated window.
pub fn active() -> Vec<Alert> {
    state().active.clone()
}

/// Every retained alert, oldest first.
pub fn history() -> Vec<Alert> {
    state().history.iter().cloned().collect()
}

/// Currently-firing critical alerts — non-empty flips `/health` to 503.
pub fn firing_critical() -> Vec<Alert> {
    state().active.iter().filter(|a| a.severity == Severity::Critical).cloned().collect()
}

/// The effective q-error threshold, if one has been pinned or seeded.
pub fn qerror_threshold() -> Option<f64> {
    state().baseline_qerror
}

/// Renders watchdog state as the `/alerts` JSON document.
pub fn to_json() -> String {
    let st = state();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("firing_critical");
    w.raw(if st.active.iter().any(|a| a.severity == Severity::Critical) {
        "true"
    } else {
        "false"
    });
    w.key("windows_evaluated");
    w.uint(st.evaluated);
    w.key("qerror_threshold");
    match st.baseline_qerror {
        Some(t) => w.float(t),
        None => w.float(f64::NAN), // null
    }
    w.key("qerror_threshold_seeded");
    w.raw(if st.baseline_seeded { "true" } else { "false" });
    w.key("slo");
    w.begin_object();
    w.key("warm_ns");
    match slo_warm_ns() {
        Some(t) => w.float(t),
        None => w.float(f64::NAN),
    }
    w.key("fallback_ratio");
    w.float(slo_fallback());
    w.end_object();
    w.key("active");
    w.begin_array();
    for a in &st.active {
        a.write_json(&mut w);
    }
    w.end_array();
    w.key("history");
    w.begin_array();
    for a in &st.history {
        a.write_json(&mut w);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Clears all watchdog state and SLO overrides (test isolation).
pub fn reset_for_tests() {
    set_slo_qerror(None);
    set_slo_warm_ns(None);
    set_slo_fallback(None);
    let mut st = state();
    *st = WatchState::new();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Histogram, HistogramSnapshot};

    fn empty_hist() -> HistogramSnapshot {
        HistogramSnapshot { count: 0, sum: 0, min: 0, max: 0, buckets: Vec::new() }
    }

    fn hist_of(values: &[u64]) -> HistogramSnapshot {
        let h = Histogram::default();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    fn window(qerror_milli: &[u64], fallback: Option<f64>, panics: u64) -> WindowStats {
        WindowStats {
            t0_ms: 0,
            t1_ms: 1000,
            queries: qerror_milli.len() as u64,
            qps: qerror_milli.len() as f64,
            latency: empty_hist(),
            qerror: hist_of(qerror_milli),
            plan_hit_ratio: None,
            memo_hit_ratio: None,
            fallback_ratio: fallback,
            guard_panics: panics,
        }
    }

    /// Watchdog state is process-global; serialize tests touching it.
    fn with_lock<F: FnOnce()>(f: F) {
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        reset_for_tests();
        f();
        reset_for_tests();
    }

    #[test]
    fn healthy_window_seeds_baseline_then_spike_goes_critical() {
        with_lock(|| {
            // Healthy: q ≈ 1–2 ⇒ baseline = max(4·p99, 8) = 8.
            evaluate(&window(&[1000, 1200, 1500, 1100, 2000], None, 0));
            let thr = qerror_threshold().expect("seeded");
            assert!((8.0..=8.5).contains(&thr), "{thr}");
            assert!(active().is_empty(), "seeding window never alerts");
            // Spike to the uniform floor: q ≈ 60 ⇒ critical.
            evaluate(&window(&[60_000, 58_000, 61_000, 59_000, 60_500], None, 0));
            let crit = firing_critical();
            assert_eq!(crit.len(), 1);
            assert_eq!(crit[0].metric, "quality.qerror.p99");
            assert!(crit[0].value > thr);
            // Recovery clears the active set but not the history.
            evaluate(&window(&[1000, 1000, 1000, 1000, 1000], None, 0));
            assert!(firing_critical().is_empty());
            assert!(history().iter().any(|a| a.severity == Severity::Critical));
        });
    }

    #[test]
    fn pinned_slo_beats_auto_seeding_and_small_windows_are_ignored() {
        with_lock(|| {
            set_slo_qerror(Some(10.0));
            // Too few samples: no alert, no seeding side effects.
            evaluate(&window(&[90_000, 95_000], None, 0));
            assert!(active().is_empty());
            assert_eq!(qerror_threshold(), Some(10.0));
            // Enough samples over the pinned SLO: critical immediately
            // (no healthy window was ever needed).
            evaluate(&window(&[90_000; 6], None, 0));
            assert_eq!(firing_critical().len(), 1);
        });
    }

    #[test]
    fn latency_burn_escalates_on_second_consecutive_breach() {
        with_lock(|| {
            set_slo_warm_ns(Some(1000.0));
            let mut w = window(&[], None, 0);
            w.latency = hist_of(&[4000, 4000, 4000]);
            evaluate(&w);
            assert_eq!(active()[0].severity, Severity::Warning);
            evaluate(&w);
            assert_eq!(active()[0].severity, Severity::Critical);
            // A healthy window resets the burn counter.
            let mut ok = window(&[], None, 0);
            ok.latency = hist_of(&[100]);
            evaluate(&ok);
            assert!(active().is_empty());
            evaluate(&w);
            assert_eq!(active()[0].severity, Severity::Warning);
        });
    }

    #[test]
    fn fallback_and_panic_alerts_fire_and_json_renders() {
        with_lock(|| {
            evaluate(&window(&[], Some(0.8), 2));
            let a = active();
            assert_eq!(a.len(), 2);
            assert!(a.iter().any(|x| x.metric == "prm.guard.fallback_ratio"
                && x.severity == Severity::Critical));
            assert!(a.iter().any(|x| x.metric == "prm.guard.panic"));
            let doc = to_json();
            let v = crate::json::parse(&doc).expect("alerts JSON parses");
            assert_eq!(v.get("firing_critical").unwrap().as_str(), None);
            assert_eq!(v.get("active").unwrap().as_array().unwrap().len(), 2);
            assert!(doc.contains("\"firing_critical\":true"));
        });
    }

    #[test]
    fn quiet_windows_keep_alerts_sticky_until_recovery_evidence() {
        with_lock(|| {
            set_slo_qerror(Some(5.0));
            evaluate(&window(&[60_000; 6], None, 0));
            assert_eq!(firing_critical().len(), 1);
            let history_before = history().len();
            // Quiet windows (too few q-error samples to judge) must not
            // clear the incident — or duplicate it in the history.
            evaluate(&window(&[], None, 0));
            evaluate(&window(&[9_000], None, 0));
            assert_eq!(firing_critical().len(), 1, "alert must stay active");
            assert_eq!(history().len(), history_before, "no history duplicates");
            // A judgeable healthy window is real recovery.
            evaluate(&window(&[1_000; 6], None, 0));
            assert!(firing_critical().is_empty());
        });
    }

    #[test]
    fn history_ring_is_bounded() {
        with_lock(|| {
            let cap = alert_ring_from_env();
            for _ in 0..cap + 20 {
                evaluate(&window(&[], None, 1));
            }
            assert_eq!(history().len(), cap);
        });
    }
}
