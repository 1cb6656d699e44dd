//! # prmsel — selectivity estimation using probabilistic models
//!
//! A production-quality Rust reproduction of *Selectivity Estimation using
//! Probabilistic Models* (Getoor, Taskar, Koller; SIGMOD 2001).
//!
//! The paper's idea: approximate the joint frequency distribution of a
//! relational database with a **probabilistic relational model** — per-table
//! Bayesian-network structure, cross-table parents through foreign keys,
//! and per-foreign-key **join indicator** variables that capture join skew
//! — and answer *any* select/foreign-key-join query from that one model by
//! unrolling it into a query-evaluation Bayesian network and running exact
//! inference.
//!
//! ## Quick start
//!
//! ```
//! use prmsel::{PrmEstimator, PrmLearnConfig, SelectivityEstimator};
//! use reldb::{Cell, DatabaseBuilder, Query, TableBuilder, Value};
//!
//! // A tiny two-table database: accounts and their transactions.
//! let mut acct = TableBuilder::new("account").key("id").col("tier");
//! let mut tx = TableBuilder::new("tx").key("id").fk("account", "account").col("kind");
//! for i in 0..8i64 {
//!     acct.push_row(vec![Cell::Key(i), Cell::Val(Value::Int(i % 2))]).unwrap();
//! }
//! for i in 0..64i64 {
//!     // Odd-id (tier 1) accounts get most of the transactions.
//!     let owner = if i % 4 == 0 { (i / 4) % 4 * 2 } else { (i % 4) * 2 + 1 };
//!     tx.push_row(vec![Cell::Key(i), Cell::Key(owner), Cell::Val(Value::Int(i % 3))])
//!         .unwrap();
//! }
//! let db = DatabaseBuilder::new()
//!     .add_table(acct.finish().unwrap())
//!     .add_table(tx.finish().unwrap())
//!     .finish()
//!     .unwrap();
//!
//! // Offline: learn a PRM under a byte budget.
//! let est = PrmEstimator::build(&db, &PrmLearnConfig::default()).unwrap();
//!
//! // Online: estimate the size of a select-join query.
//! let mut b = Query::builder();
//! let t = b.var("tx");
//! let a = b.var("account");
//! b.join(t, "account", a).eq(a, "tier", 1).eq(t, "kind", 0);
//! let estimate = est.estimate(&b.build()).unwrap();
//! let truth = reldb::result_size(&db, &b.build()).unwrap();
//! assert!(estimate >= 0.0);
//! assert!(truth > 0);
//! ```
//!
//! ## Crate map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`prm`] | §3.2 | the PRM model type: attribute CPDs, join indicators |
//! | [`learn`] | §4 | greedy budgeted structure search (SSN / MDL / naive) |
//! | [`qebn`] | §3.3 | upward closure + query-evaluation BN + inference |
//! | [`plan`] | §3.3–3.5 | compile-once online path: factor cache, plan cache |
//! | [`estimator`] | §5 | one trait over PRM, BN+UJ, AVI, MHIST, SAMPLE |
//! | [`metrics`] | §5 | adjusted relative error, suite evaluation |
//! | [`largedomain`] | §2.3 | discretization of wide ordinal domains |
//! | [`maintain`] | §6 | incremental parameter refresh, score tracking |
//! | [`nonkey`] | §6 | non-key equality joins by value summation |
//! | [`planner`] | §1 | demo cost-based join-order optimizer on top |
//! | [`persist`] | — | versioned binary model files (offline → online handoff) |
//! | [`schema`] | — | schema snapshot used by the online phase |

pub(crate) mod ctx;
pub mod delta;
pub mod error;
pub mod estimator;
pub mod groupby;
pub mod guard;
pub mod largedomain;
pub mod learn;
pub mod maintain;
pub mod metrics;
pub mod nonkey;
pub mod persist;
pub mod plan;
pub mod planner;
pub mod prm;
pub mod qebn;
pub mod resilient;
pub mod schema;
pub mod swap;

pub use delta::{DeltaRow, DeltaState, TableDelta, UpdateBatch};
pub use error::{BudgetKind, Error, ErrorClass, Result};
pub use estimator::{
    estimate_batch, estimate_batch_with_threshold, query_label, AviAdapter,
    InferenceEngine, JoinSampleAdapter, MhistAdapter, ModelEpoch, PrmEstimator,
    SampleAdapter, SelectivityEstimator, WaveletAdapter, DEFAULT_PAR_THRESHOLD_NS,
};
pub use groupby::GroupEstimate;
pub use largedomain::{discretize_database, DiscretizedDatabase, DiscretizingEstimator};
pub use learn::{learn_prm, PrmLearnConfig, StepRule};
pub use maintain::{
    drift_relearn_threshold, model_epoch, model_loglik, model_staleness_ms,
    refresh_parameters, MaintainOptions, Maintainer, DEFAULT_DRIFT_RELEARN,
};
pub use metrics::{
    adjusted_relative_error, evaluate_suite, record_quality, set_template_telemetry,
    template_label, template_telemetry_on, SuiteEval,
};
pub use nonkey::JoinSide;
pub use persist::{load_manifest, load_model, save_manifest, save_model};
pub use plan::{FactorCache, FoldCache, PlanCache, PlanKey, QueryPlan};
pub use planner::{best_plan, enumerate_plans, Plan};
pub use prm::{JiParentRef, ParentRef, Prm};
pub use qebn::{NodeSource, QueryEvalBn};
pub use resilient::{Outcome, ResilientEstimator, Rung};
pub use schema::SchemaInfo;
pub use swap::EpochCell;

// Re-export the knobs callers tune.
pub use bayesnet::learn::treecpd::TreeGrowOptions;
pub use bayesnet::CpdKind;
