//! Scoring: maximum-likelihood log-likelihood and MDL.
//!
//! The paper's offline objective (Eq. 3) is the log-likelihood of the data
//! under the model, `ℓ(S, θ_S : D) = log P(D | S, θ_S)`, maximized by the
//! frequency parameterization (Eq. 4). The score decomposes per family
//! (Eq. 5) as `N · [I(X; Pa) − H(X)] + const`, so hill-climbing only ever
//! recomputes the families a move touches.

use reldb::CountTable;

/// Log-likelihood contribution of one family from its count table
/// (child = **last** column): `Σ_{pa,x} N(pa,x) · ln( N(pa,x) / N(pa) )`.
///
/// Zero-count cells contribute zero (lim n→0 of n·ln n). The value is ≤ 0;
/// larger (closer to zero) is better.
pub fn family_loglik(counts: &CountTable) -> f64 {
    let child_card = *counts.cards.last().expect("child column present");
    let mut ll = 0.0;
    for chunk in counts.counts.chunks(child_card) {
        let total: u64 = chunk.iter().sum();
        if total == 0 {
            continue;
        }
        let ln_total = (total as f64).ln();
        for &n in chunk {
            if n != 0 {
                ll += n as f64 * ((n as f64).ln() - ln_total);
            }
        }
    }
    ll
}

/// Entropy-style log-likelihood of a plain distribution of counts
/// (a family with no parents).
pub fn marginal_loglik(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let ln_total = (total as f64).ln();
    counts
        .iter()
        .filter(|&&n| n != 0)
        .map(|&n| n as f64 * ((n as f64).ln() - ln_total))
        .sum()
}

/// Empirical mutual information `I(X; Pa)` in nats, times `N` (so it is the
/// log-likelihood *gain* of adding the parent set over the empty one).
pub fn mi_times_n(counts: &CountTable) -> f64 {
    let child_dim = counts.cards.len() - 1;
    let child_marginal = counts.marginalize(&[child_dim]);
    family_loglik(counts) - marginal_loglik(&child_marginal.counts)
}

/// MDL penalty per free parameter: `ln(N) / 2` nats (the usual BIC/MDL
/// coding cost for a real parameter estimated from `N` samples).
pub fn mdl_penalty_per_param(n_rows: usize) -> f64 {
    0.5 * (n_rows.max(2) as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_family_has_zero_mi() {
        // Child ⫫ parent: counts proportional across parent rows.
        let counts = CountTable { cards: vec![2, 2], counts: vec![30, 10, 60, 20] };
        assert!(mi_times_n(&counts).abs() < 1e-9);
    }

    #[test]
    fn deterministic_dependence_maximizes_mi() {
        // Child == parent.
        let counts = CountTable { cards: vec![2, 2], counts: vec![50, 0, 0, 50] };
        // I(X;Y)·N = N·ln 2 here.
        assert!((mi_times_n(&counts) - 100.0 * 2f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn family_loglik_matches_manual_computation() {
        let counts = CountTable { cards: vec![2, 2], counts: vec![3, 1, 0, 4] };
        let expect = 3.0 * (3f64 / 4.0).ln() + 1.0 * (1f64 / 4.0).ln() + 4.0 * 0.0;
        assert!((family_loglik(&counts) - expect).abs() < 1e-12);
    }

    #[test]
    fn marginal_loglik_of_uniform() {
        let ll = marginal_loglik(&[25, 25, 25, 25]);
        assert!((ll - 100.0 * (0.25f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn mi_is_nonnegative() {
        let counts = CountTable { cards: vec![3, 2], counts: vec![5, 2, 7, 7, 2, 5] };
        assert!(mi_times_n(&counts) >= -1e-9);
    }

    #[test]
    fn empty_counts_are_neutral() {
        assert_eq!(marginal_loglik(&[]), 0.0);
        let counts = CountTable { cards: vec![2, 2], counts: vec![0, 0, 0, 0] };
        assert_eq!(family_loglik(&counts), 0.0);
    }
}
