//! Learning building blocks for Bayesian networks (paper §4).
//!
//! * [`score`] — the log-likelihood score in its mutual-information form
//!   (paper Eq. 3/5) plus the MDL penalty.
//! * [`treecpd`] — greedy induction of tree CPDs.
//!
//! The hill-climbing structure search with the naive, SSN and MDL
//! step-selection rules (paper §4.3.3) is `prmsel::learn`.

pub mod score;
pub mod treecpd;
