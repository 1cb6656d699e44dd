//! The degradation ladder: estimation that always answers.
//!
//! An optimizer asking for a selectivity cannot block on a perfect
//! answer — a wrong-but-bounded estimate beats an aborted planning pass.
//! [`ResilientEstimator`] wraps the PRM estimator in a four-rung ladder:
//!
//! ```text
//! 1. plan-cache exact     (the normal warm path)
//! 2. uncached exact       (fresh compile — sidesteps a poisoned plan)
//! 3. AVI baseline         (per-table histograms, single-table queries)
//! 4. uniform-fraction     (schema row counts and domain sizes only)
//! ```
//!
//! Rules of descent:
//!
//! * **Schema / Parse errors never degrade** — they are the caller's bug,
//!   and a fallback estimate would mask it. They return typed immediately.
//! * **Budget errors skip rung 2** — the same guard would trip on the
//!   identical uncached inference, so the ladder goes straight to the
//!   cheap fallbacks.
//! * **Panics are caught per rung** (`catch_unwind`) and become
//!   [`Error::Internal`]; a batch always returns one [`Outcome`] per
//!   query, whatever individual queries do.
//!
//! Every descent is accounted: `prm.guard.budget` / `prm.guard.deadline` /
//! `prm.guard.panic` count causes, `prm.guard.fallback` counts queries
//! answered below the exact rungs, and `prm.guard.fallback_ratio` is the
//! derived gauge `prmsel stats` reports. When the flight recorder is on,
//! each descent drops a `guard.*` phase on the query's trace so
//! `prmsel explain` shows *why* the query degraded.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use reldb::{Database, Query};

use crate::error::{BudgetKind, Error, ErrorClass, Result};
use crate::estimator::{AviAdapter, PrmEstimator, SelectivityEstimator};

/// Which rung of the ladder produced an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Exact inference through the plan cache (no degradation).
    CachedExact,
    /// Exact inference with a fresh, uncached plan compile.
    UncachedExact,
    /// The AVI per-table histogram baseline.
    AviFallback,
    /// Uniform-fraction guess from schema row counts and domain sizes.
    UniformGuess,
}

impl Rung {
    /// Stable lowercase name (used in logs and trace phases).
    pub fn as_str(&self) -> &'static str {
        match self {
            Rung::CachedExact => "cached-exact",
            Rung::UncachedExact => "uncached-exact",
            Rung::AviFallback => "avi-fallback",
            Rung::UniformGuess => "uniform-guess",
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The per-query result of the ladder: the answer (or the typed error
/// when even the floor could not answer), which rung produced it, and
/// the errors of every rung that failed on the way down.
#[derive(Debug)]
pub struct Outcome {
    /// The estimate, or the error of the last rung attempted.
    pub result: Result<f64>,
    /// The rung that produced `result`.
    pub rung: Rung,
    /// `(rung, error)` of each rung that failed before `rung` answered.
    pub degradations: Vec<(Rung, Error)>,
}

impl Outcome {
    /// The estimate, when any rung answered.
    pub fn estimate(&self) -> Option<f64> {
        self.result.as_ref().ok().copied()
    }

    /// True when the query was not answered by the warm exact path.
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty() || self.result.is_err()
    }
}

/// [`PrmEstimator`] wrapped in the degradation ladder.
#[derive(Debug)]
pub struct ResilientEstimator {
    prm: PrmEstimator,
    /// Per-table AVI baselines for rung 3, when built with database
    /// access ([`ResilientEstimator::with_avi_fallback`]).
    avi: HashMap<String, AviAdapter>,
    /// Strict mode fails instead of degrading (rung 1 only).
    strict: bool,
}

impl ResilientEstimator {
    /// Wraps `prm` with no AVI rung (rung 3 is skipped) — the
    /// constructor for estimators assembled from persisted artifacts,
    /// where no database is available to build histograms from.
    pub fn new(prm: PrmEstimator) -> Self {
        ResilientEstimator { prm, avi: HashMap::new(), strict: false }
    }

    /// Builds the per-table AVI baselines from `db` so rung 3 can answer
    /// single-table queries.
    pub fn with_avi_fallback(mut self, db: &Database) -> Result<Self> {
        for t in db.tables() {
            self.avi.insert(t.name().to_owned(), AviAdapter::build(db, t.name())?);
        }
        Ok(self)
    }

    /// Enables or disables strict mode: when strict, the ladder is off
    /// and the first rung's typed error is returned as-is (panics are
    /// still isolated so batches complete).
    pub fn set_strict(&mut self, strict: bool) {
        self.strict = strict;
    }

    /// Whether strict mode is on.
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// The wrapped estimator.
    pub fn inner(&self) -> &PrmEstimator {
        &self.prm
    }

    /// Runs one query down the ladder. Never panics; always returns an
    /// [`Outcome`].
    pub fn estimate_query(&self, query: &Query) -> Outcome {
        obs::counter!("prm.guard.queries").inc();
        let outcome = self.run_ladder(query);
        if matches!(outcome.rung, Rung::AviFallback | Rung::UniformGuess)
            && outcome.result.is_ok()
        {
            obs::counter!("prm.guard.fallback").inc();
        }
        refresh_fallback_ratio();
        // An exact-rung error leaves the flight trace open; close it with
        // the fallback answer so the trace (with its guard.* phases)
        // lands in the ring instead of being discarded as stale.
        if let Ok(v) = outcome.result {
            obs::flight::finish(v);
        }
        outcome
    }

    /// Estimates every query, one [`Outcome`] each, in query order. A
    /// panicking or failing query never takes down its neighbors: each
    /// runs the full ladder independently.
    pub fn estimate_batch(&self, queries: &[Query]) -> Vec<Outcome> {
        if par::threads() == 1 || queries.len() < 2 {
            return queries.iter().map(|q| self.estimate_query(q)).collect();
        }
        par::chunks(queries.len(), |range| {
            queries[range].iter().map(|q| self.estimate_query(q)).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    fn run_ladder(&self, query: &Query) -> Outcome {
        let mut degradations: Vec<(Rung, Error)> = Vec::new();
        // Rung 1: the warm exact path.
        let first = guarded(|| self.prm.estimate(query));
        let e = match first {
            Ok(v) => {
                return Outcome { result: Ok(v), rung: Rung::CachedExact, degradations }
            }
            Err(e) => e,
        };
        if self.strict || matches!(e.class(), ErrorClass::Schema | ErrorClass::Parse) {
            // Caller bugs return typed (a fallback would mask them);
            // strict mode turns every failure into a typed error.
            return Outcome { result: Err(e), rung: Rung::CachedExact, degradations };
        }
        record_descent(&e);
        // A budget refusal is deterministic: the identical uncached
        // inference would trip the identical guard, so skip rung 2.
        let skip_uncached = e.class() == ErrorClass::Budget;
        degradations.push((Rung::CachedExact, e));
        if !skip_uncached {
            let _p = obs::flight::phase("guard.uncached");
            match guarded(|| self.prm.estimate_uncached(query)) {
                Ok(v) => {
                    return Outcome {
                        result: Ok(v),
                        rung: Rung::UncachedExact,
                        degradations,
                    }
                }
                Err(e) => {
                    record_descent(&e);
                    degradations.push((Rung::UncachedExact, e));
                }
            }
        }
        // Rung 3: AVI histograms (single-table queries only).
        if query.is_single_table() {
            if let Some(avi) = self.avi.get(&query.vars[0]) {
                let _p = obs::flight::phase("guard.avi");
                match guarded(|| avi.estimate(query)) {
                    Ok(v) => {
                        return Outcome {
                            result: Ok(v),
                            rung: Rung::AviFallback,
                            degradations,
                        }
                    }
                    Err(e) => degradations.push((Rung::AviFallback, e)),
                }
            }
        }
        // Rung 4: the floor. Only schema access; can only fail on a
        // schema mismatch, which rung 1 would already have rejected.
        let _p = obs::flight::phase("guard.uniform");
        let result = guarded(|| self.uniform_guess(query));
        Outcome { result, rung: Rung::UniformGuess, degradations }
    }

    /// The always-available floor: assume independent, uniformly
    /// distributed attributes and uniformly distributed foreign keys.
    /// `size ≈ Π|T_v| · Π_joins 1/|T_parent| · Π_preds |allowed|/card` —
    /// the textbook System-R style guess, computable from the schema
    /// snapshot alone.
    fn uniform_guess(&self, query: &Query) -> Result<f64> {
        let epoch = self.prm.epoch();
        let schema = &epoch.schema;
        schema.validate_query(query)?;
        let tables: Vec<usize> = query
            .vars
            .iter()
            .map(|v| schema.table_index(v))
            .collect::<reldb::Result<_>>()?;
        let mut size: f64 =
            tables.iter().map(|&t| schema.tables[t].n_rows as f64).product();
        for join in &query.joins {
            let parent_rows = schema.tables[tables[join.parent]].n_rows.max(1);
            size /= parent_rows as f64;
        }
        for pred in &query.preds {
            let table = tables[pred.var()];
            let domain = schema.domain(table, pred.attr())?;
            let card = domain.card().max(1);
            let allowed = pred.codes(domain).len();
            size *= allowed as f64 / card as f64;
        }
        Ok(size)
    }
}

/// Runs one rung with panic isolation: a panic increments
/// `prm.guard.panic`, drops a `guard.panic` marker on the live trace, and
/// becomes [`Error::Internal`].
fn guarded(f: impl FnOnce() -> Result<f64>) -> Result<f64> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            obs::counter!("prm.guard.panic").inc();
            obs::watchdog::observe_panic();
            let _p = obs::flight::phase("guard.panic");
            Err(Error::from_panic(payload))
        }
    }
}

/// Counts the cause of a descent and marks it on the live flight trace.
fn record_descent(e: &Error) {
    match e {
        Error::Budget { kind: BudgetKind::Width, .. } => {
            obs::counter!("prm.guard.budget").inc();
            let _p = obs::flight::phase("guard.budget");
        }
        Error::Budget { kind: BudgetKind::Deadline, .. } => {
            obs::counter!("prm.guard.deadline").inc();
            let _p = obs::flight::phase("guard.deadline");
        }
        // Panics were already counted inside `guarded`; other classes
        // (Corrupt, Internal) are visible through the fallback counter
        // and the outcome's degradation list.
        _ => {}
    }
}

/// Recomputes the `prm.guard.fallback_ratio` gauge — fallback-answered
/// queries over all ladder queries — so any metrics snapshot sees the
/// current ratio.
fn refresh_fallback_ratio() {
    let queries = obs::counter!("prm.guard.queries").get();
    if queries > 0 {
        let fallback = obs::counter!("prm.guard.fallback").get();
        obs::gauge!("prm.guard.fallback_ratio").set(fallback as f64 / queries as f64);
    }
}

/// The ladder as a [`SelectivityEstimator`]: collapses the [`Outcome`] to
/// its result so the wrapper drops into every harness (suite evaluation,
/// benches) unchanged.
impl SelectivityEstimator for ResilientEstimator {
    fn name(&self) -> &str {
        self.prm.name()
    }

    fn size_bytes(&self) -> usize {
        self.prm.size_bytes()
    }

    fn estimate(&self, query: &Query) -> Result<f64> {
        self.estimate_query(query).result
    }
}
