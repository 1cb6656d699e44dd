//! The fault-isolation acceptance suite: with every failpoint armed (in
//! both `err` and `panic` mode), a 100-query batch still returns exactly
//! one outcome per query, the process never aborts, and the
//! `prm.guard.*` counters account for every degradation. With nothing
//! armed, the ladder answers on the exact rung with the exact value.

use prmsel::{
    BudgetKind, Error, ErrorClass, PrmEstimator, PrmLearnConfig, ResilientEstimator,
    Rung, SelectivityEstimator,
};
use reldb::Query;
use workloads::tb::tb_database_sized;

/// Failpoints and guard knobs are process-global; every test in this
/// binary serializes here and restores a clean state on exit.
fn with_chaos<R>(f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    failpoint::clear();
    prmsel::guard::set_width_budget(None);
    prmsel::guard::set_deadline_ms(None);
    let out = f();
    failpoint::clear();
    prmsel::guard::set_width_budget(None);
    prmsel::guard::set_deadline_ms(None);
    out
}

fn ladder() -> ResilientEstimator {
    let db = tb_database_sized(40, 80, 600, 13);
    let config = PrmLearnConfig { budget_bytes: 8192, ..Default::default() };
    ResilientEstimator::new(PrmEstimator::build(&db, &config).unwrap())
        .with_avi_fallback(&db)
        .unwrap()
}

/// 100 well-formed queries: a mix of single-table selections and
/// selection-over-join queries.
fn workload() -> Vec<Query> {
    let mut queries = Vec::with_capacity(100);
    for i in 0..100 {
        let mut b = Query::builder();
        if i % 3 == 0 {
            let c = b.var("contact");
            let p = b.var("patient");
            b.join(c, "patient", p).eq(p, "age", (i % 4) as i64);
        } else {
            let p = b.var("patient");
            b.eq(p, "age", (i % 4) as i64);
        }
        queries.push(b.build());
    }
    queries
}

const ALL_SITES: &[&str] =
    &["persist.load", "plan.compile", "infer.eliminate", "estimate.query", "csv.row"];

fn guard_counts() -> (u64, u64, u64, u64, u64) {
    (
        obs::counter!("prm.guard.queries").get(),
        obs::counter!("prm.guard.fallback").get(),
        obs::counter!("prm.guard.budget").get(),
        obs::counter!("prm.guard.deadline").get(),
        obs::counter!("prm.guard.panic").get(),
    )
}

#[test]
fn hundred_query_batch_survives_err_failpoints() {
    with_chaos(|| {
        let est = ladder();
        let queries = workload();
        for site in ALL_SITES {
            failpoint::arm(site, failpoint::Action::Err);
        }
        let (q0, f0, ..) = guard_counts();
        let outcomes = est.estimate_batch(&queries);
        assert_eq!(outcomes.len(), queries.len());
        let (q1, f1, ..) = guard_counts();
        assert_eq!(q1 - q0, 100);
        // Every query degraded (the exact rungs are fully fault-injected)
        // yet every one was answered by a fallback rung.
        assert_eq!(f1 - f0, 100);
        for o in &outcomes {
            let v = o.result.as_ref().expect("fallback rung answers");
            assert!(v.is_finite() && *v >= 0.0);
            assert!(matches!(o.rung, Rung::AviFallback | Rung::UniformGuess));
            assert!(!o.degradations.is_empty());
        }
    });
}

#[test]
fn hundred_query_batch_survives_panic_failpoints() {
    with_chaos(|| {
        let est = ladder();
        let queries = workload();
        for site in ALL_SITES {
            failpoint::arm(site, failpoint::Action::Panic);
        }
        // 200 panics per run are the point of this test — keep them off
        // the test output.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1usize, 4] {
            par::set_threads(Some(threads));
            let (q0, f0, _, _, p0) = guard_counts();
            let outcomes = est.estimate_batch(&queries);
            par::set_threads(None);
            assert_eq!(outcomes.len(), queries.len(), "threads={threads}");
            let (q1, f1, _, _, p1) = guard_counts();
            assert_eq!(q1 - q0, 100);
            assert_eq!(f1 - f0, 100);
            // Both exact rungs panicked on every query; each panic was
            // caught and counted.
            assert_eq!(p1 - p0, 200, "threads={threads}");
            for o in &outcomes {
                assert!(o.result.is_ok());
                assert!(o
                    .degradations
                    .iter()
                    .all(|(_, e)| e.class() == ErrorClass::Internal));
            }
        }
        std::panic::set_hook(prev_hook);
    });
}

#[test]
fn disarmed_ladder_is_bit_identical_to_the_exact_path() {
    with_chaos(|| {
        let est = ladder();
        for q in workload().iter().take(12) {
            let direct = est.inner().estimate(q).unwrap();
            let outcome = est.estimate_query(q);
            assert_eq!(outcome.rung, Rung::CachedExact);
            assert!(outcome.degradations.is_empty());
            assert_eq!(outcome.result.unwrap().to_bits(), direct.to_bits());
        }
    });
}

#[test]
fn width_budget_degrades_with_budget_error() {
    with_chaos(|| {
        // One cell is below any real factor width: exact inference is
        // refused, the ladder skips the (equally doomed) uncached rung
        // and answers from a fallback.
        prmsel::guard::set_width_budget(Some(1));
        let est = ladder();
        let mut b = Query::builder();
        let p = b.var("patient");
        b.eq(p, "age", 1);
        let (_, _, b0, _, _) = guard_counts();
        let outcome = est.estimate_query(&b.build());
        let (_, _, b1, _, _) = guard_counts();
        assert_eq!(b1 - b0, 1);
        assert!(outcome.result.is_ok());
        assert_eq!(outcome.degradations.len(), 1);
        assert!(matches!(
            outcome.degradations[0].1,
            Error::Budget { kind: BudgetKind::Width, .. }
        ));
        // Budget trips skip rung 2: the first fallback rung answered.
        assert_eq!(outcome.rung, Rung::AviFallback);
    });
}

#[test]
fn expired_deadline_degrades_with_deadline_error() {
    with_chaos(|| {
        prmsel::guard::set_deadline_ms(Some(0));
        let est = ladder();
        let mut b = Query::builder();
        let p = b.var("patient");
        b.eq(p, "age", 2);
        let (_, _, _, d0, _) = guard_counts();
        let outcome = est.estimate_query(&b.build());
        let (_, _, _, d1, _) = guard_counts();
        assert_eq!(d1 - d0, 1);
        assert!(outcome.result.is_ok());
        assert!(matches!(
            outcome.degradations[0].1,
            Error::Budget { kind: BudgetKind::Deadline, .. }
        ));
    });
}

#[test]
fn strict_mode_fails_instead_of_degrading() {
    with_chaos(|| {
        failpoint::arm("estimate.query", failpoint::Action::Err);
        let mut est = ladder();
        est.set_strict(true);
        let mut b = Query::builder();
        let p = b.var("patient");
        b.eq(p, "age", 1);
        let outcome = est.estimate_query(&b.build());
        assert_eq!(outcome.result.unwrap_err().class(), ErrorClass::Internal);
        assert!(outcome.degradations.is_empty());
        // Relaxed mode answers the identical query.
        est.set_strict(false);
        assert!(est.estimate_query(&b.build()).result.is_ok());
    });
}

#[test]
fn schema_errors_never_degrade() {
    with_chaos(|| {
        let est = ladder();
        let mut b = Query::builder();
        let p = b.var("patient");
        b.eq(p, "no_such_attr", 1);
        let outcome = est.estimate_query(&b.build());
        assert_eq!(outcome.result.unwrap_err().class(), ErrorClass::Schema);
        assert!(outcome.degradations.is_empty());
    });
}

#[test]
fn uniform_floor_matches_the_textbook_guess() {
    with_chaos(|| {
        // Arm every estimation site and drop the AVI rung so the ladder
        // bottoms out on the uniform guess.
        failpoint::arm("estimate.query", failpoint::Action::Err);
        failpoint::arm("plan.compile", failpoint::Action::Err);
        let db = tb_database_sized(40, 80, 600, 13);
        let config = PrmLearnConfig { budget_bytes: 8192, ..Default::default() };
        let est = ResilientEstimator::new(PrmEstimator::build(&db, &config).unwrap());
        let mut b = Query::builder();
        let p = b.var("patient");
        b.eq(p, "age", 1);
        let outcome = est.estimate_query(&b.build());
        assert_eq!(outcome.rung, Rung::UniformGuess);
        let epoch = est.inner().epoch();
        let schema = &epoch.schema;
        let t = schema.tables.iter().find(|t| t.name == "patient").unwrap();
        let age_card =
            t.domains[t.attrs.iter().position(|a| a == "age").unwrap()].card() as f64;
        let expected = t.n_rows as f64 / age_card;
        let got = outcome.result.unwrap();
        assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
    });
}

#[test]
fn delay_failpoint_only_slows_the_exact_path() {
    with_chaos(|| {
        failpoint::arm("estimate.query", failpoint::Action::Delay(5));
        let est = ladder();
        let mut b = Query::builder();
        let p = b.var("patient");
        b.eq(p, "age", 1);
        let outcome = est.estimate_query(&b.build());
        // A delay injects latency, not failure: the exact rung answers.
        assert_eq!(outcome.rung, Rung::CachedExact);
        assert!(outcome.result.is_ok());
    });
}

#[test]
fn guards_run_on_memo_hits() {
    with_chaos(|| {
        let est = ladder();
        let mut b = Query::builder();
        let c = b.var("contact");
        let p = b.var("patient");
        b.join(c, "patient", p).eq(p, "age", 1);
        let q = b.build();
        let unguarded = est.inner().estimate(&q).unwrap();
        assert_eq!(est.inner().reduce_memo_len(&q), Some(1));

        // Limits that never bind leave the warm answer's bits alone.
        prmsel::guard::set_width_budget(Some(u64::MAX - 1));
        prmsel::guard::set_deadline_ms(Some(60_000));
        let outcome = est.estimate_query(&q);
        assert_eq!(outcome.rung, Rung::CachedExact);
        assert_eq!(outcome.result.unwrap().to_bits(), unguarded.to_bits());

        // The memoized signature is still refused by a one-cell budget.
        prmsel::guard::set_width_budget(Some(1));
        let outcome = est.estimate_query(&q);
        assert!(outcome.result.is_ok());
        assert!(matches!(
            outcome.degradations[0],
            (Rung::CachedExact, Error::Budget { kind: BudgetKind::Width, .. })
        ));
        prmsel::guard::set_width_budget(None);
        prmsel::guard::set_deadline_ms(None);

        // ...and by an armed `infer.eliminate`.
        failpoint::arm("infer.eliminate", failpoint::Action::Err);
        let outcome = est.estimate_query(&q);
        assert!(outcome.result.is_ok());
        assert_eq!(outcome.degradations[0].0, Rung::CachedExact);
        assert_eq!(outcome.degradations[0].1.class(), ErrorClass::Internal);
        assert_eq!(est.inner().reduce_memo_len(&q), Some(1));
    });
}
