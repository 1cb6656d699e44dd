//! # bayesnet — discrete Bayesian networks, built from scratch
//!
//! This crate implements everything §2 and §4 of *Selectivity Estimation
//! using Probabilistic Models* (Getoor, Taskar, Koller; SIGMOD 2001) need
//! from a probabilistic-graphical-models library:
//!
//! * dense [`Factor`]s over discrete variables with product / marginalize /
//!   evidence-reduction operations,
//! * conditional probability distributions as **tables**
//!   ([`cpd::TableCpd`]) or **trees** ([`cpd::TreeCpd`], the paper's
//!   Fig. 2(b) representation), with byte-accurate storage accounting,
//! * a [`BayesNet`] container with acyclicity checking,
//! * exact inference by **variable elimination** ([`infer`]), where
//!   evidence is a *set* of allowed values per variable so equality, `IN`,
//!   and range predicates are all answered exactly (paper §2.3) — the
//!   unguarded reference that `prmsel`'s compiled query plans are checked
//!   against bit for bit,
//! * **maximum-likelihood learning** building blocks ([`learn`]): the
//!   mutual-information form of the log-likelihood score (paper Eq. 5),
//!   the MDL penalty, and tree-CPD induction. The structure search itself
//!   lives in `prmsel::learn`, which learns every model (PRM, BN and
//!   BN+UJ) as a restricted PRM (paper §4),
//! * equi-depth [`discretize`] for large ordinal domains, and forward
//!   [`sample`]-ing (used by the synthetic workload generators).
//!
//! No external PGM crate is used; the ecosystem gap called out in the
//! reproduction notes is filled here.
//!
//! ```
//! use bayesnet::{BayesNet, Evidence, TableCpd, probability_of_evidence};
//!
//! // The paper's §2.1 chain: Education → Income → Home-owner.
//! let mut bn = BayesNet::new(
//!     vec!["edu".into(), "income".into(), "owner".into()],
//!     vec![3, 3, 2],
//! );
//! bn.set_family(0, &[], TableCpd::new(3, vec![], vec![0.5, 0.3, 0.2]).into());
//! bn.set_family(1, &[0], TableCpd::new(3, vec![3],
//!     vec![0.6, 0.3, 0.1, 0.5, 0.3, 0.2, 0.1, 0.3, 0.6]).into());
//! bn.set_family(2, &[1], TableCpd::new(2, vec![3],
//!     vec![0.9, 0.1, 0.7, 0.3, 0.1, 0.9]).into());
//!
//! // P(income = low) = 0.47 — Fig. 1(c) of the paper.
//! let mut ev = Evidence::new();
//! ev.eq(1, 0, 3);
//! assert!((probability_of_evidence(&bn, &ev) - 0.47).abs() < 1e-12);
//! ```

pub mod cpd;
pub mod discretize;
pub mod factor;
pub mod graph;
pub mod infer;
pub mod learn;
pub mod network;
pub mod sample;
pub mod varset;

pub use cpd::{Cpd, CpdKind, TableCpd, TreeCpd};
pub use factor::Factor;
pub use graph::Dag;
pub use infer::{elimination_order, probability_of_evidence, Evidence};
pub use network::BayesNet;
pub use varset::VarSet;
