//! Forward sampling from a Bayesian network.
//!
//! Used by the synthetic workload generators: each of the paper's
//! proprietary datasets is reproduced by specifying a ground-truth network
//! with the documented correlation structure and sampling rows from it.

use rand::Rng;

use crate::network::BayesNet;

/// Draws one joint sample (one code per variable) using ancestral sampling.
pub fn sample_row<R: Rng + ?Sized>(bn: &BayesNet, rng: &mut R) -> Vec<u32> {
    let order = bn.topological_order();
    let mut row = vec![0u32; bn.len()];
    let mut parent_buf: Vec<u32> = Vec::new();
    for v in order {
        let cpd = bn.cpd(v).expect("network is incomplete");
        parent_buf.clear();
        parent_buf.extend(bn.parents(v).iter().map(|&p| row[p]));
        let dist = cpd.dist(&parent_buf);
        row[v] = sample_categorical(dist, rng);
    }
    row
}

/// Draws `n` rows, column-major (one `Vec<u32>` per variable).
pub fn sample_columns<R: Rng + ?Sized>(
    bn: &BayesNet,
    n: usize,
    rng: &mut R,
) -> Vec<Vec<u32>> {
    let mut cols = vec![Vec::with_capacity(n); bn.len()];
    for _ in 0..n {
        let row = sample_row(bn, rng);
        for (col, &code) in cols.iter_mut().zip(&row) {
            col.push(code);
        }
    }
    cols
}

/// Samples an index from an unnormalized non-negative weight vector.
pub fn sample_categorical<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> u32 {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i as u32;
        }
    }
    (weights.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::TableCpd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain() -> BayesNet {
        let mut bn = BayesNet::new(vec!["a".into(), "b".into()], vec![2, 2]);
        bn.set_family(0, &[], TableCpd::new(2, vec![], vec![0.8, 0.2]).into());
        bn.set_family(
            1,
            &[0],
            TableCpd::new(2, vec![2], vec![0.95, 0.05, 0.1, 0.9]).into(),
        );
        bn
    }

    #[test]
    fn sampled_frequencies_approach_the_model() {
        let bn = chain();
        let mut rng = StdRng::seed_from_u64(7);
        let cols = sample_columns(&bn, 20_000, &mut rng);
        let n = cols[0].len() as f64;
        let p_a1 = cols[0].iter().filter(|&&c| c == 1).count() as f64 / n;
        assert!((p_a1 - 0.2).abs() < 0.02, "p_a1={p_a1}");
        // P(B=1) = 0.8·0.05 + 0.2·0.9 = 0.22.
        let p_b1 = cols[1].iter().filter(|&&c| c == 1).count() as f64 / n;
        assert!((p_b1 - 0.22).abs() < 0.02, "p_b1={p_b1}");
        // Conditional: P(B=1 | A=1) = 0.9.
        let (mut both, mut a1) = (0.0f64, 0.0f64);
        for (&a, &b) in cols[0].iter().zip(&cols[1]) {
            if a == 1 {
                a1 += 1.0;
                if b == 1 {
                    both += 1.0;
                }
            }
        }
        assert!((both / a1 - 0.9).abs() < 0.03);
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[sample_categorical(&[1.0, 2.0, 7.0], &mut rng) as usize] += 1;
        }
        assert!((counts[2] as f64 / 30_000.0 - 0.7).abs() < 0.02);
        assert!((counts[0] as f64 / 30_000.0 - 0.1).abs() < 0.02);
    }

    #[test]
    fn degenerate_weights_fall_back_to_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(sample_categorical(&[0.0, 0.0], &mut rng), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let bn = chain();
        let a = sample_columns(&bn, 50, &mut StdRng::seed_from_u64(42));
        let b = sample_columns(&bn, 50, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
