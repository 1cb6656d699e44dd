//! Inference guard configuration.
//!
//! Two knobs bound what a single estimate may cost, both read from the
//! environment once and cached (the hot path must not pay a `std::env`
//! lock per query), with process-wide programmatic overrides in the style
//! of [`par::set_threads`]:
//!
//! * `PRMSEL_WIDTH_BUDGET` — maximum cells any intermediate elimination
//!   factor may hold; exceeded → [`crate::Error::Budget`] (width).
//! * `PRMSEL_DEADLINE_MS` — wall-clock deadline per estimate; exceeded →
//!   [`crate::Error::Budget`] (deadline).
//!
//! Unset or unparsable values mean *no limit*, preserving the paper's
//! assumption (§3.3) that query-evaluation networks stay small enough to
//! eliminate exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Sentinel for "no override in effect — follow the environment".
const UNSET: u64 = u64::MAX;

static WIDTH_OVERRIDE: AtomicU64 = AtomicU64::new(UNSET);
static DEADLINE_OVERRIDE: AtomicU64 = AtomicU64::new(UNSET);

fn env_limit(name: &str, cache: &OnceLock<Option<u64>>) -> Option<u64> {
    *cache.get_or_init(|| {
        std::env::var(name).ok().and_then(|v| v.trim().parse::<u64>().ok())
    })
}

/// The effective width budget in cells, if any.
pub fn width_budget() -> Option<u64> {
    match WIDTH_OVERRIDE.load(Ordering::Relaxed) {
        UNSET => {
            static CACHE: OnceLock<Option<u64>> = OnceLock::new();
            env_limit("PRMSEL_WIDTH_BUDGET", &CACHE)
        }
        v => Some(v),
    }
}

/// Overrides `PRMSEL_WIDTH_BUDGET` process-wide; `None` reverts to the
/// environment. Values of `u64::MAX` are clamped down by one (that bit
/// pattern is the "unset" sentinel — and no real factor has 2⁶⁴ cells).
pub fn set_width_budget(cells: Option<u64>) {
    WIDTH_OVERRIDE.store(cells.map_or(UNSET, |c| c.min(UNSET - 1)), Ordering::Relaxed);
}

/// The effective per-estimate deadline in milliseconds, if any.
pub fn deadline_ms() -> Option<u64> {
    match DEADLINE_OVERRIDE.load(Ordering::Relaxed) {
        UNSET => {
            static CACHE: OnceLock<Option<u64>> = OnceLock::new();
            env_limit("PRMSEL_DEADLINE_MS", &CACHE)
        }
        v => Some(v),
    }
}

/// Overrides `PRMSEL_DEADLINE_MS` process-wide; `None` reverts to the
/// environment.
pub fn set_deadline_ms(ms: Option<u64>) {
    DEADLINE_OVERRIDE.store(ms.map_or(UNSET, |m| m.min(UNSET - 1)), Ordering::Relaxed);
}

/// Resource limits for one estimate; `None` means no limit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budget {
    /// Maximum cells any intermediate factor may hold.
    pub(crate) max_cells: Option<u64>,
    /// Absolute wall-clock deadline for the estimate.
    pub(crate) deadline: Option<Instant>,
}

/// The budget for one estimate, with the deadline anchored at *now*.
/// Costs two relaxed loads when both knobs are unset.
pub(crate) fn estimate_budget() -> Budget {
    Budget {
        max_cells: width_budget(),
        deadline: deadline_ms().map(|ms| Instant::now() + Duration::from_millis(ms)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_take_precedence_and_revert() {
        set_width_budget(Some(1024));
        assert_eq!(width_budget(), Some(1024));
        set_deadline_ms(Some(250));
        let b = estimate_budget();
        assert_eq!(b.max_cells, Some(1024));
        assert!(b.deadline.is_some());
        set_width_budget(None);
        set_deadline_ms(None);
        // Reverted: whatever the env says (unset in the test runner).
        let _ = width_budget();
        let _ = deadline_ms();
    }

    #[test]
    fn u64_max_is_clamped_off_the_sentinel() {
        set_width_budget(Some(u64::MAX));
        assert_eq!(width_budget(), Some(u64::MAX - 1));
        set_width_budget(None);
    }
}
