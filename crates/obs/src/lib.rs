//! # prmsel-obs — observability for the selectivity-estimation stack
//!
//! A dependency-free telemetry layer shared by every crate in the
//! workspace. Two halves:
//!
//! * **Metrics** ([`registry`](mod@registry)) — a process-global registry of atomic
//!   [`Counter`]s, [`Gauge`]s, and log₂-bucketed [`Histogram`]s. The hot
//!   path is lock-free: registration interns a handle once (behind a
//!   mutex), after which every update is a single relaxed atomic
//!   operation. Call sites memoize the handle with the [`counter!`],
//!   [`gauge!`], and [`histogram!`] macros, so steady-state cost is one
//!   static load plus one atomic add.
//! * **Tracing** ([`trace`](mod@trace)) — leveled events ([`error!`] … [`trace!`])
//!   and timed [`Span`]s, filtered by the `PRMSEL_LOG` (or `RUST_LOG`)
//!   environment variable with per-module-prefix directives, e.g.
//!   `PRMSEL_LOG=info,prmsel::learn=debug`. Disabled events cost one
//!   relaxed atomic load. Span exit durations are also recorded into
//!   `span.<name>.ns` histograms, so timing shows up in metric snapshots
//!   even when logging is off.
//! * **Flight recorder** ([`flight`]) — opt-in per-query traces (phase
//!   timings, elimination steps, plan-cache outcome, predicate masks,
//!   estimate + q-error) retained in a bounded ring, exported as an
//!   `EXPLAIN`-style tree or Chrome `trace_event` JSON. Disabled hooks
//!   cost one relaxed atomic load and never allocate.
//! * **Time series** ([`timeseries`]) — a background sampler thread that
//!   keeps a bounded ring of periodic registry snapshots and derives
//!   per-window rates (qps, windowed hit ratios) and exact windowed
//!   latency/q-error quantiles by cumulative-bucket subtraction.
//! * **Watchdog** ([`watchdog`]) — a drift/SLO evaluator over those
//!   windows (q-error baseline, warm-latency burn, fallback trend,
//!   guard panics) emitting typed [`watchdog::Alert`]s into a bounded
//!   ring; critical alerts flip the `/health` endpoint to 503.
//!
//! Exporters: [`Registry::snapshot`] → [`Snapshot`], rendered with
//! [`Snapshot::to_json`] (machine-readable, stable field order) or
//! [`Snapshot::to_pretty`] (human-readable table).
//!
//! ## Example
//!
//! ```
//! obs::counter!("demo.requests").inc();
//! obs::histogram!("demo.latency.ns").record(1_500);
//! {
//!     let _span = obs::span("demo_phase"); // records span.demo_phase.ns
//! }
//! let snap = obs::registry().snapshot();
//! assert!(snap.to_json().contains("\"demo.requests\""));
//! ```

pub mod flight;
pub mod json;
pub mod openmetrics;
pub mod registry;
pub mod timeseries;
pub mod trace;
pub mod watchdog;

pub use registry::{
    registry, reset_for_tests, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    Snapshot,
};
pub use trace::{enabled, init_from_env, set_max_level, span, Level, Span};
