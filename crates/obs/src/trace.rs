//! Leveled event tracing and timed spans.
//!
//! Filtering follows `RUST_LOG` conventions: `PRMSEL_LOG` (preferred) or
//! `RUST_LOG` holds comma-separated directives, each `level` or
//! `target=level`, where a target matches any module path it prefixes:
//!
//! ```text
//! PRMSEL_LOG=warn                       # global threshold
//! PRMSEL_LOG=info,prmsel::learn=trace   # per-module override
//! ```
//!
//! The check on a disabled event is one relaxed atomic load (the global
//! maximum across directives), so leaving instrumentation in hot paths
//! costs nothing measurable when logging is off. Events print to stderr.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Event severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or surprising failures.
    Error = 1,
    /// Suspicious conditions the caller should know about.
    Warn = 2,
    /// Phase-level progress (one event per build phase, not per step).
    Info = 3,
    /// Step-level detail (structure-search moves, per-query records).
    Debug = 4,
    /// Everything, including span enter/exit.
    Trace = 5,
}

impl Level {
    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// `0` = everything off.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

struct Filter {
    /// Threshold for targets matching no directive.
    global: u8,
    /// `(module-path prefix, threshold)` directives, most specific last.
    directives: Vec<(String, u8)>,
}

static FILTER: OnceLock<Mutex<Filter>> = OnceLock::new();

fn filter() -> &'static Mutex<Filter> {
    FILTER.get_or_init(|| Mutex::new(Filter { global: 0, directives: Vec::new() }))
}

fn recompute_max() {
    let f = filter().lock().expect("filter poisoned");
    let max =
        f.directives.iter().map(|&(_, lvl)| lvl).chain([f.global]).max().unwrap_or(0);
    MAX_LEVEL.store(max, Ordering::Relaxed);
}

/// Sets the global threshold (keeps per-target directives).
pub fn set_max_level(level: Option<Level>) {
    filter().lock().expect("filter poisoned").global =
        level.map(|l| l as u8).unwrap_or(0);
    recompute_max();
}

/// Parses a directive string (`level` / `target=level`, comma-separated)
/// and installs it, replacing earlier directives.
pub fn apply_directives(spec: &str) {
    let mut global = 0u8;
    let mut directives = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.split_once('=') {
            None => {
                if let Some(lvl) = Level::parse(part) {
                    global = lvl as u8;
                } else if part.eq_ignore_ascii_case("off") {
                    global = 0;
                }
            }
            Some((target, lvl)) => {
                let threshold = if lvl.trim().eq_ignore_ascii_case("off") {
                    0
                } else {
                    match Level::parse(lvl) {
                        Some(l) => l as u8,
                        None => continue,
                    }
                };
                directives.push((target.trim().to_owned(), threshold));
            }
        }
    }
    // Longer (more specific) prefixes win: sort so lookup scans once.
    directives.sort_by_key(|(t, _)| std::cmp::Reverse(t.len()));
    {
        let mut f = filter().lock().expect("filter poisoned");
        f.global = global;
        f.directives = directives;
    }
    recompute_max();
}

/// Initializes the filter from `PRMSEL_LOG` (or, failing that,
/// `RUST_LOG`). Safe to call more than once; later calls re-read the
/// environment.
pub fn init_from_env() {
    if let Ok(spec) = std::env::var("PRMSEL_LOG").or_else(|_| std::env::var("RUST_LOG")) {
        apply_directives(&spec);
    }
}

/// Whether an event at `level` for `target` would print.
#[inline]
pub fn enabled(level: Level, target: &str) -> bool {
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    if (level as u8) > max {
        return false;
    }
    let f = filter().lock().expect("filter poisoned");
    for (prefix, threshold) in &f.directives {
        if target.starts_with(prefix.as_str()) {
            return level as u8 <= *threshold;
        }
    }
    level as u8 <= f.global
}

/// Prints one event (already filtered by the caller / macros).
pub fn emit(level: Level, target: &str, message: &std::fmt::Arguments<'_>) {
    eprintln!("[{:<5} {target}] {message}", level.label());
}

/// A timed scope. On drop, the elapsed wall-clock time is recorded into
/// the `span.<name>.ns` histogram and, when `Trace` is enabled for
/// `obs::span`, an exit event is printed.
#[must_use = "a span measures until dropped; binding it to `_` drops immediately"]
pub struct Span {
    name: &'static str,
    start: Instant,
}

/// Opens a span named `name`.
pub fn span(name: &'static str) -> Span {
    Span { name, start: Instant::now() }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        crate::registry()
            .histogram(&format!("span.{}.ns", self.name))
            .record_duration(elapsed);
        if enabled(Level::Trace, "obs::span") {
            emit(
                Level::Trace,
                "obs::span",
                &format_args!("{} took {:.3} ms", self.name, elapsed.as_secs_f64() * 1e3),
            );
        }
    }
}

/// Logs at a given level with `format!` syntax; the event target is the
/// calling module's path.
#[macro_export]
macro_rules! event {
    ($lvl:expr, $($arg:tt)+) => {{
        let lvl: $crate::Level = $lvl;
        if $crate::enabled(lvl, module_path!()) {
            $crate::trace::emit(lvl, module_path!(), &format_args!($($arg)+));
        }
    }};
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Error, $($arg)+) };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Warn, $($arg)+) };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Info, $($arg)+) };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Debug, $($arg)+) };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Trace, $($arg)+) };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Filter state is process-global; tests that mutate it serialize
    /// here and restore the everything-off default on exit.
    fn with_filter_lock(f: impl FnOnce()) {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        f();
        apply_directives("off");
        set_max_level(None);
    }

    #[test]
    fn directives_filter_by_level_and_target() {
        with_filter_lock(|| {
            directives_filter_by_level_and_target_impl();
        });
    }

    fn directives_filter_by_level_and_target_impl() {
        apply_directives("warn");
        assert!(enabled(Level::Warn, "prmsel::learn"));
        assert!(enabled(Level::Error, "anywhere"));
        assert!(!enabled(Level::Info, "prmsel::learn"));

        apply_directives("info,prmsel::learn=trace,reldb=off");
        assert!(enabled(Level::Trace, "prmsel::learn::search"));
        assert!(enabled(Level::Info, "bayesnet::infer"));
        assert!(!enabled(Level::Debug, "bayesnet::infer"));
        assert!(!enabled(Level::Error, "reldb::exec"));

        apply_directives("off");
        assert!(!enabled(Level::Error, "prmsel"));

        set_max_level(Some(Level::Debug));
        assert!(enabled(Level::Debug, "x"));
        assert!(!enabled(Level::Trace, "x"));
        set_max_level(None);
        assert!(!enabled(Level::Error, "x"));
    }

    #[test]
    fn empty_and_whitespace_directives_are_ignored() {
        with_filter_lock(|| {
            // Empty parts contribute nothing; the spec below is just `info`.
            apply_directives(",, info , ,");
            assert!(enabled(Level::Info, "anywhere"));
            assert!(!enabled(Level::Debug, "anywhere"));
            // A fully empty spec leaves everything off.
            apply_directives("");
            assert!(!enabled(Level::Error, "anywhere"));
        });
    }

    #[test]
    fn unknown_levels_fall_back_without_clobbering() {
        with_filter_lock(|| {
            // An unknown global level is ignored (global stays off)...
            apply_directives("loud");
            assert!(!enabled(Level::Error, "x"));
            // ...and an unknown per-target level drops only that
            // directive, keeping the rest of the spec.
            apply_directives("warn,prmsel::learn=verbose,reldb=debug");
            assert!(enabled(Level::Warn, "prmsel::learn"));
            assert!(
                !enabled(Level::Info, "prmsel::learn"),
                "bad directive must not apply"
            );
            assert!(enabled(Level::Debug, "reldb::exec"));
        });
    }

    #[test]
    fn most_specific_module_prefix_wins() {
        with_filter_lock(|| {
            // Declaration order must not matter: the longest matching
            // prefix decides, for both widening and narrowing overrides.
            for spec in [
                "error,prmsel=warn,prmsel::learn=trace,prmsel::learn::search=off",
                "prmsel::learn::search=off,prmsel::learn=trace,prmsel=warn,error",
            ] {
                apply_directives(spec);
                assert!(enabled(Level::Warn, "prmsel::qebn"), "{spec}");
                assert!(!enabled(Level::Info, "prmsel::qebn"), "{spec}");
                assert!(enabled(Level::Trace, "prmsel::learn"), "{spec}");
                assert!(enabled(Level::Trace, "prmsel::learn::score"), "{spec}");
                assert!(!enabled(Level::Error, "prmsel::learn::search"), "{spec}");
                assert!(!enabled(Level::Warn, "reldb"), "{spec}");
                assert!(enabled(Level::Error, "reldb"), "{spec}");
            }
        });
    }

    #[test]
    fn spans_record_into_the_registry() {
        {
            let _s = span("trace_test_span");
        }
        let snap = crate::registry().snapshot();
        let h = snap.histogram("span.trace_test_span.ns").expect("span histogram");
        assert!(h.count >= 1);
    }
}
