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

/// Monte-Carlo estimate of `P(E)` by **likelihood weighting**: ancestral
/// sampling where evidence variables are not sampled but *scored* — each
/// sample contributes the product of the probabilities of the evidence
/// values it forces.
///
/// Exact inference (variable elimination, junction trees) is NP-hard in
/// the worst case (paper §2.3); this is the standard any-time fallback for
/// networks whose tree width makes exact inference infeasible. Evidence is
/// a mask of allowed values per variable; masked variables are sampled
/// from their CPD *restricted* to the allowed set and weighted by the
/// allowed mass, which generalizes classic single-value likelihood
/// weighting to the set-valued evidence selectivity estimation needs.
pub fn likelihood_weighting<R: Rng + ?Sized>(
    bn: &crate::network::BayesNet,
    evidence: &crate::infer::Evidence,
    n_samples: usize,
    rng: &mut R,
) -> f64 {
    let order = bn.topological_order();
    let mut total_weight = 0.0;
    let mut row = vec![0u32; bn.len()];
    let mut parent_buf: Vec<u32> = Vec::new();
    let mut masked: Vec<f64> = Vec::new();
    for _ in 0..n_samples {
        let mut weight = 1.0f64;
        for &v in &order {
            let cpd = bn.cpd(v).expect("network is incomplete");
            parent_buf.clear();
            parent_buf.extend(bn.parents(v).iter().map(|&p| row[p]));
            let dist = cpd.dist(&parent_buf);
            match evidence.mask_of(v) {
                None => {
                    row[v] = sample_categorical(dist, rng);
                }
                Some(mask) => {
                    // Weight by the allowed mass, then sample within it.
                    masked.clear();
                    masked.extend(
                        dist.iter().zip(mask).map(|(&p, &ok)| if ok { p } else { 0.0 }),
                    );
                    let mass: f64 = masked.iter().sum();
                    weight *= mass;
                    if mass <= 0.0 {
                        break; // This sample contributes zero.
                    }
                    row[v] = sample_categorical(&masked, rng);
                }
            }
        }
        total_weight += weight;
    }
    total_weight / n_samples.max(1) as f64
}

/// [`likelihood_weighting`] with CPD factors served by a
/// [`CpdFactorCache`](crate::network::CpdFactorCache) instead of ad-hoc
/// `Cpd::dist` lookups: each node's factor is materialized at most once
/// per cache lifetime, so repeated approximate estimates over the same
/// network stop re-walking tree CPDs per sample.
///
/// Bit-identical to [`likelihood_weighting`] for the same `rng` stream:
/// `Cpd::to_factor` lays the `dist` rows out verbatim (relabeling is a
/// pure permutation), so reading the child distribution through the
/// cached factor's strides yields the exact same `f64` values, hence the
/// same draws and the same weight products.
pub fn likelihood_weighting_cached<R: Rng + ?Sized>(
    bn: &crate::network::BayesNet,
    evidence: &crate::infer::Evidence,
    n_samples: usize,
    rng: &mut R,
    cache: &crate::network::CpdFactorCache,
) -> f64 {
    let order = bn.topological_order();
    // Per node (in topological order): its cached factor and the strides
    // of (parents in slot order, child) within that factor's canonical
    // ascending scope.
    let nodes: Vec<_> = order
        .iter()
        .map(|&v| {
            let f = cache.factor(bn, v);
            let mut axes: Vec<usize> = bn.parents(v).to_vec();
            axes.push(v);
            let strides = crate::factor::strides_in(f.vars(), f.cards(), &axes);
            (v, f, strides)
        })
        .collect();
    let mut total_weight = 0.0;
    let mut row = vec![0u32; bn.len()];
    let mut dist_buf: Vec<f64> = Vec::new();
    let mut masked: Vec<f64> = Vec::new();
    for _ in 0..n_samples {
        let mut weight = 1.0f64;
        for (v, f, strides) in &nodes {
            let v = *v;
            let parents = bn.parents(v);
            let base: usize = parents
                .iter()
                .zip(strides.iter())
                .map(|(&p, &s)| row[p] as usize * s)
                .sum();
            let child_stride = strides[parents.len()];
            let card = bn.card(v);
            dist_buf.clear();
            dist_buf.extend((0..card).map(|k| f.data()[base + k * child_stride]));
            match evidence.mask_of(v) {
                None => {
                    row[v] = sample_categorical(&dist_buf, rng);
                }
                Some(mask) => {
                    // Weight by the allowed mass, then sample within it.
                    masked.clear();
                    masked.extend(dist_buf.iter().zip(mask).map(|(&p, &ok)| {
                        if ok {
                            p
                        } else {
                            0.0
                        }
                    }));
                    let mass: f64 = masked.iter().sum();
                    weight *= mass;
                    if mass <= 0.0 {
                        break; // This sample contributes zero.
                    }
                    row[v] = sample_categorical(&masked, rng);
                }
            }
        }
        total_weight += weight;
    }
    total_weight / n_samples.max(1) as f64
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
    fn likelihood_weighting_converges_to_exact() {
        use crate::infer::{probability_of_evidence, Evidence};
        let _site = crate::infer::tests::eliminate_site_shared();
        let bn = chain();
        let mut ev = Evidence::new();
        ev.eq(1, 1, 2); // P(B=1) = 0.22
        let exact = probability_of_evidence(&bn, &ev);
        let mut rng = StdRng::seed_from_u64(11);
        let approx = likelihood_weighting(&bn, &ev, 50_000, &mut rng);
        assert!((approx - exact).abs() < 0.01, "approx={approx} exact={exact}");
    }

    #[test]
    fn likelihood_weighting_handles_set_evidence() {
        use crate::infer::{probability_of_evidence, Evidence};
        let _site = crate::infer::tests::eliminate_site_shared();
        let bn = chain();
        let mut ev = Evidence::new();
        ev.isin(0, &[0, 1], 2); // no restriction at all → P = 1
        let mut rng = StdRng::seed_from_u64(3);
        let approx = likelihood_weighting(&bn, &ev, 2_000, &mut rng);
        assert!((approx - 1.0).abs() < 1e-9);
        // And joint evidence on both variables.
        let mut ev = Evidence::new();
        ev.eq(0, 1, 2).eq(1, 1, 2);
        let exact = probability_of_evidence(&bn, &ev);
        let approx = likelihood_weighting(&bn, &ev, 50_000, &mut rng);
        assert!((approx - exact).abs() < 0.01, "approx={approx} exact={exact}");
    }

    #[test]
    fn likelihood_weighting_of_impossible_evidence_is_zero() {
        use crate::infer::Evidence;
        let bn = chain();
        let mut ev = Evidence::new();
        ev.isin(0, &[], 2); // empty allowed set
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(likelihood_weighting(&bn, &ev, 100, &mut rng), 0.0);
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
    fn cached_likelihood_weighting_is_bit_identical_and_materializes_once() {
        use crate::infer::Evidence;
        use crate::network::CpdFactorCache;
        let bn = chain();
        let mut ev = Evidence::new();
        ev.eq(1, 1, 2);
        let plain = likelihood_weighting(&bn, &ev, 5_000, &mut StdRng::seed_from_u64(9));
        let cache = CpdFactorCache::for_net(&bn);
        let cached = likelihood_weighting_cached(
            &bn,
            &ev,
            5_000,
            &mut StdRng::seed_from_u64(9),
            &cache,
        );
        assert_eq!(plain.to_bits(), cached.to_bits());
        assert_eq!(cache.materialized(), bn.len());
        // A second run reuses every factor: the materialization counter
        // must not move.
        let before = obs::registry().counter("bn.factor.materialize").get();
        let again = likelihood_weighting_cached(
            &bn,
            &ev,
            5_000,
            &mut StdRng::seed_from_u64(9),
            &cache,
        );
        assert_eq!(again.to_bits(), cached.to_bits());
        assert_eq!(
            obs::registry().counter("bn.factor.materialize").get(),
            before,
            "warm likelihood weighting must not rematerialize CPD factors"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let bn = chain();
        let a = sample_columns(&bn, 50, &mut StdRng::seed_from_u64(42));
        let b = sample_columns(&bn, 50, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
