//! # prmsel-failpoint — named fault-injection sites
//!
//! Chaos tests need to prove that the estimation stack survives faults at
//! every layer: a corrupt model file, a compiler bug, an inference blowup,
//! a poisoned CSV row. This crate compiles *named sites* into those hot
//! paths — [`fail_point!`] — that cost **one relaxed atomic load** when no
//! site is armed, and inject a typed error, a panic, or a delay when armed.
//!
//! Sites are armed either programmatically ([`arm`], for in-process tests)
//! or through the environment at first use:
//!
//! ```text
//! PRMSEL_FAILPOINTS=site=err|panic|delay:ms[,site=...]
//! PRMSEL_FAILPOINTS=infer.eliminate=err,csv.row=panic,persist.load=delay:5
//! ```
//!
//! A site that is armed `err` makes [`fail_point!`] return
//! `Err(`[`Injected`]`)`, which the caller maps into its own error type;
//! `panic` panics with a recognizable message (for `catch_unwind`
//! isolation tests); `delay:ms` sleeps and then passes, for deadline and
//! timeout testing.
//!
//! The workspace's canonical sites are `persist.load`, `plan.compile`,
//! `infer.eliminate`, `estimate.query`, `csv.row`, `maintain.apply`,
//! `maintain.refit`, and `maintain.swap` (see each crate for the exact
//! placement; `scripts/check_failpoint_sites.sh` keeps this list in
//! step with the code).
//!
//! ## Example
//!
//! ```
//! fn fallible() -> Result<u32, String> {
//!     failpoint::fail_point!("demo.site").map_err(|e| e.to_string())?;
//!     Ok(42)
//! }
//! assert_eq!(fallible(), Ok(42)); // disarmed: one atomic load
//! failpoint::arm("demo.site", failpoint::Action::Err);
//! assert!(fallible().is_err());
//! failpoint::clear();
//! assert_eq!(fallible(), Ok(42));
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// What an armed site does when crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Return `Err(Injected)` from [`fail_point!`].
    Err,
    /// Panic with a `failpoint {site}` message (exercises `catch_unwind`
    /// isolation).
    Panic,
    /// Sleep for the given number of milliseconds, then pass (exercises
    /// deadline guards).
    Delay(u64),
}

/// The typed error an `err`-armed site injects; callers map it into their
/// own error taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injected {
    /// The site that fired.
    pub site: &'static str,
}

impl fmt::Display for Injected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at failpoint `{}`", self.site)
    }
}

impl std::error::Error for Injected {}

/// Tri-state so the fast path stays a single relaxed load: `UNINIT` routes
/// to the env parse exactly once, after which the flag is `OFF` or `ON`.
const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);
static SITES: Mutex<Option<HashMap<String, Action>>> = Mutex::new(None);

/// True when at least one site is armed. This is the gate [`fail_point!`]
/// loads; when it returns `false` the macro does nothing else.
#[inline]
pub fn armed() -> bool {
    match STATE.load(Ordering::Relaxed) {
        OFF => false,
        ON => true,
        _ => init_from_env(),
    }
}

/// Parses `PRMSEL_FAILPOINTS` (idempotent; called lazily by [`armed`]).
/// Returns whether any site ended up armed. Unparseable entries are
/// ignored rather than erroring — a chaos harness with a typo'd site name
/// must not take the process down, which is the whole point.
fn init_from_env() -> bool {
    let mut sites = lock();
    if sites.is_none() {
        let mut map = HashMap::new();
        if let Ok(spec) = std::env::var("PRMSEL_FAILPOINTS") {
            for entry in spec.split(',') {
                let entry = entry.trim();
                if entry.is_empty() {
                    continue;
                }
                if let Some((site, action)) = entry.split_once('=') {
                    if let Some(action) = parse_action(action.trim()) {
                        map.insert(site.trim().to_owned(), action);
                    }
                }
            }
        }
        let on = !map.is_empty();
        *sites = Some(map);
        STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
        on
    } else {
        STATE.load(Ordering::Relaxed) == ON
    }
}

fn parse_action(text: &str) -> Option<Action> {
    match text {
        "err" => Some(Action::Err),
        "panic" => Some(Action::Panic),
        _ => text
            .strip_prefix("delay:")
            .and_then(|ms| ms.trim().parse::<u64>().ok())
            .map(Action::Delay),
    }
}

fn lock() -> std::sync::MutexGuard<'static, Option<HashMap<String, Action>>> {
    SITES.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arms `site` with `action` (programmatic alternative to the env var).
pub fn arm(site: &str, action: Action) {
    let mut sites = lock();
    sites.get_or_insert_with(HashMap::new).insert(site.to_owned(), action);
    STATE.store(ON, Ordering::Relaxed);
}

/// Disarms one site (other armed sites stay armed).
pub fn disarm(site: &str) {
    let mut sites = lock();
    if let Some(map) = sites.as_mut() {
        map.remove(site);
        if map.is_empty() {
            STATE.store(OFF, Ordering::Relaxed);
        }
    }
}

/// Disarms every site (including env-armed ones).
pub fn clear() {
    let mut sites = lock();
    *sites = Some(HashMap::new());
    STATE.store(OFF, Ordering::Relaxed);
}

/// The names of all currently armed sites, sorted (for harness logging).
pub fn armed_sites() -> Vec<String> {
    armed(); // force env parse
    let sites = lock();
    let mut names: Vec<String> =
        sites.as_ref().map(|m| m.keys().cloned().collect()).unwrap_or_default();
    names.sort();
    names
}

/// Slow path of [`fail_point!`]: looks `site` up and performs its action.
/// Only reached when [`armed`] is true, so the lock never sits on the
/// disarmed hot path.
pub fn eval(site: &'static str) -> Result<(), Injected> {
    let action = { lock().as_ref().and_then(|m| m.get(site)).copied() };
    match action {
        None => Ok(()),
        Some(Action::Err) => Err(Injected { site }),
        Some(Action::Panic) => panic!("failpoint {site} panic"),
        Some(Action::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
    }
}

/// The injection site: `fail_point!("name")` evaluates to
/// `Result<(), Injected>`. Disarmed cost is one relaxed atomic load.
#[macro_export]
macro_rules! fail_point {
    ($site:literal) => {
        if $crate::armed() {
            $crate::eval($site)
        } else {
            Ok(())
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The site map is process-global; tests serialize on it.
    fn exclusive(f: impl FnOnce()) {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        clear();
        f();
        clear();
    }

    fn cross(site_result: Result<(), Injected>) -> Result<(), Injected> {
        site_result
    }

    #[test]
    fn disarmed_site_passes() {
        exclusive(|| {
            assert!(cross(fail_point!("t.a")).is_ok());
        });
    }

    #[test]
    fn err_mode_injects_typed_error() {
        exclusive(|| {
            arm("t.b", Action::Err);
            let err = cross(fail_point!("t.b")).unwrap_err();
            assert_eq!(err.site, "t.b");
            assert!(err.to_string().contains("t.b"));
            // Other sites are unaffected.
            assert!(cross(fail_point!("t.other")).is_ok());
        });
    }

    #[test]
    fn panic_mode_panics_with_site_name() {
        exclusive(|| {
            arm("t.c", Action::Panic);
            let r = std::panic::catch_unwind(|| {
                let _ = fail_point!("t.c");
            });
            let msg = *r.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.contains("failpoint t.c"), "{msg}");
        });
    }

    #[test]
    fn delay_mode_sleeps_then_passes() {
        exclusive(|| {
            arm("t.d", Action::Delay(10));
            let start = std::time::Instant::now();
            assert!(cross(fail_point!("t.d")).is_ok());
            assert!(start.elapsed().as_millis() >= 10);
        });
    }

    #[test]
    fn disarm_restores_the_site() {
        exclusive(|| {
            arm("t.e", Action::Err);
            assert!(cross(fail_point!("t.e")).is_err());
            disarm("t.e");
            assert!(cross(fail_point!("t.e")).is_ok());
            assert!(!armed());
        });
    }

    #[test]
    fn spec_parsing_accepts_the_documented_grammar() {
        assert_eq!(parse_action("err"), Some(Action::Err));
        assert_eq!(parse_action("panic"), Some(Action::Panic));
        assert_eq!(parse_action("delay:25"), Some(Action::Delay(25)));
        assert_eq!(parse_action("delay:"), None);
        assert_eq!(parse_action("frob"), None);
    }

    #[test]
    fn armed_sites_lists_sorted_names() {
        exclusive(|| {
            arm("t.z", Action::Err);
            arm("t.a", Action::Panic);
            assert_eq!(armed_sites(), vec!["t.a".to_owned(), "t.z".to_owned()]);
        });
    }
}
