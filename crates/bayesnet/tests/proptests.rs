//! Property-based tests for the probabilistic core: factor algebra laws,
//! exact-inference agreement between variable elimination and joint
//! enumeration, tree-CPD invariants, and discretizer invariants.

use bayesnet::cpd::TableCpd;
use bayesnet::discretize::Discretizer;
use bayesnet::factor::{
    product_masked_into, product_sum_out_masked_into, strides_in, sum_out_masked_into,
    union_scope, DENSE,
};
use bayesnet::learn::treecpd::{grow_tree, TreeGrowOptions};
use bayesnet::{probability_of_evidence, BayesNet, Evidence, Factor};
use proptest::prelude::*;

/// A random factor over a fixed scope.
fn arb_factor(vars: Vec<usize>, cards: Vec<usize>) -> impl Strategy<Value = Factor> {
    let len: usize = cards.iter().product::<usize>().max(1);
    proptest::collection::vec(0.0f64..10.0, len)
        .prop_map(move |data| Factor::new(vars.clone(), cards.clone(), data))
}

/// A random complete Bayesian network over `n ≤ 4` variables with a random
/// DAG (edges only from lower to higher index) and random CPDs.
fn arb_bn() -> impl Strategy<Value = BayesNet> {
    (
        2usize..5,
        proptest::collection::vec(2usize..4, 4),
        proptest::collection::vec(any::<bool>(), 6),
        proptest::collection::vec(1u32..1000, 200),
    )
        .prop_map(|(n, cards, edge_bits, weights)| {
            let cards: Vec<usize> = cards[..n].to_vec();
            let names = (0..n).map(|i| format!("x{i}")).collect();
            let mut bn = BayesNet::new(names, cards.clone());
            let mut w = weights.into_iter().cycle();
            let mut bit = edge_bits.into_iter().cycle();
            for child in 0..n {
                let parents: Vec<usize> =
                    (0..child).filter(|_| bit.next().unwrap()).collect();
                let parent_cards: Vec<usize> =
                    parents.iter().map(|&p| cards[p]).collect();
                let rows: usize = parent_cards.iter().product::<usize>().max(1);
                let mut probs = Vec::with_capacity(rows * cards[child]);
                for _ in 0..rows {
                    let raw: Vec<f64> =
                        (0..cards[child]).map(|_| w.next().unwrap() as f64).collect();
                    let total: f64 = raw.iter().sum();
                    probs.extend(raw.into_iter().map(|x| x / total));
                }
                bn.set_family(
                    child,
                    &parents,
                    TableCpd::new(cards[child], parent_cards, probs).into(),
                );
            }
            bn
        })
}

/// Brute-force `P(E)`: build the full joint, reduce, total.
fn brute_force(bn: &BayesNet, ev: &Evidence) -> f64 {
    let mut joint =
        bn.factors().into_iter().reduce(|a, b| a.product(&b)).expect("non-empty network");
    for v in ev.vars().collect::<Vec<_>>() {
        joint = joint.reduce(v, ev.mask_of(v).expect("constrained"));
    }
    joint.total()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn factor_product_is_commutative(
        a in arb_factor(vec![0, 2], vec![2, 3]),
        b in arb_factor(vec![1, 2], vec![2, 3]),
    ) {
        let ab = a.product(&b);
        let ba = b.product(&a);
        prop_assert_eq!(ab.vars(), ba.vars());
        for (x, y) in ab.data().iter().zip(ba.data()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn factor_product_is_associative(
        a in arb_factor(vec![0], vec![2]),
        b in arb_factor(vec![0, 1], vec![2, 2]),
        c in arb_factor(vec![1, 2], vec![2, 3]),
    ) {
        let left = a.product(&b).product(&c);
        let right = a.product(&b.product(&c));
        prop_assert_eq!(left.vars(), right.vars());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn sum_out_commutes(f in arb_factor(vec![0, 1, 2], vec![2, 3, 2])) {
        let a = f.sum_out(0).sum_out(2);
        let b = f.sum_out(2).sum_out(0);
        prop_assert_eq!(a.vars(), b.vars());
        for (x, y) in a.data().iter().zip(b.data()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_out_preserves_total(f in arb_factor(vec![0, 1], vec![3, 4])) {
        prop_assert!((f.sum_out(0).total() - f.total()).abs() < 1e-9);
        prop_assert!((f.sum_out(1).total() - f.total()).abs() < 1e-9);
    }

    #[test]
    fn ve_matches_joint_enumeration(bn in arb_bn(), seed in 0u64..1000) {
        // Random evidence on up to two variables.
        let n = bn.len();
        let v1 = (seed as usize) % n;
        let v2 = (seed as usize / n) % n;
        let mut ev = Evidence::new();
        ev.eq(v1, (seed % bn.card(v1) as u64) as u32, bn.card(v1));
        ev.eq(v2, (seed / 7 % bn.card(v2) as u64) as u32, bn.card(v2));
        let ve = probability_of_evidence(&bn, &ev);
        let brute = brute_force(&bn, &ev);
        prop_assert!((ve - brute).abs() < 1e-9, "ve={} brute={}", ve, brute);
    }

    #[test]
    fn network_joint_is_normalized(bn in arb_bn()) {
        let joint = bn
            .factors()
            .into_iter()
            .reduce(|a, b| a.product(&b))
            .expect("non-empty");
        prop_assert!((joint.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grown_tree_rows_are_distributions(
        child in proptest::collection::vec(0u32..3, 30..120),
        parent in proptest::collection::vec(0u32..4, 30..120),
    ) {
        let n = child.len().min(parent.len());
        let grown = grow_tree(
            &child[..n],
            3,
            &[&parent[..n]],
            &[4],
            &TreeGrowOptions { min_gain_per_param: 0.01, ..Default::default() },
        );
        for pv in 0..4u32 {
            let d = grown.cpd.dist(&[pv]);
            let total: f64 = d.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(d.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        // The tree's log-likelihood matches a direct recomputation.
        let direct: f64 = child[..n]
            .iter()
            .zip(&parent[..n])
            .map(|(&c, &p)| grown.cpd.dist(&[p])[c as usize].ln())
            .sum();
        prop_assert!((grown.loglik - direct).abs() < 1e-6);
    }

    #[test]
    fn discretizer_partitions_domain(
        codes in proptest::collection::vec(0u32..40, 10..200),
        bins in 2usize..10,
    ) {
        let d = Discretizer::equi_depth(&codes, 40, bins);
        prop_assert!(d.n_bins() <= bins);
        // Every code maps to exactly the bin whose range contains it.
        for c in 0..40u32 {
            let b = d.bin_of(c);
            let (lo, hi) = d.bin_range(b);
            prop_assert!(lo <= c && c <= hi);
        }
        // Ranges tile the domain.
        let mut expected_lo = 0u32;
        for b in 0..d.n_bins() as u32 {
            let (lo, hi) = d.bin_range(b);
            prop_assert_eq!(lo, expected_lo);
            expected_lo = hi + 1;
        }
        prop_assert_eq!(expected_lo, 40);
    }
}

/// A per-variable evidence mask: `None` is an unmasked ([`DENSE`]) axis;
/// `Some(allowed)` is a bool mask over the variable's codes. The strategy
/// covers the run shapes the masked kernels walk: fully dense, one full
/// run (an explicit all-allowed mask), no allowed code at all, one run
/// `lo..=hi` (a range predicate; a single code when `lo == hi`), and
/// arbitrary masks, which mostly have several runs.
fn arb_mask(card: usize) -> impl Strategy<Value = Option<Vec<bool>>> {
    prop_oneof![
        Just(None),
        Just(Some(vec![true; card])),
        Just(Some(vec![false; card])),
        (0..card, 0..card).prop_map(move |(x, y)| {
            let (lo, hi) = (x.min(y), x.max(y));
            Some((0..card).map(|c| lo <= c && c <= hi).collect())
        }),
        proptest::collection::vec(any::<bool>(), card).prop_map(Some),
    ]
}

/// Operand scopes as variable bitmasks `(a, b)` over vars `0..4`. The
/// fixed layouts pin the inner-stride pairs and span merges the kernels
/// special-case — `(0,1)`; `(1,1)` with mergeable trailing axes; `(1,0)`
/// with `b` broadcast over mergeable trailing axes; a middle axis absent
/// from `a`, which blocks merging — and summing out var 3 leaves strided
/// inner strides. The last arm draws any scopes.
fn arb_layout() -> impl Strategy<Value = (u32, u32)> {
    prop_oneof![
        Just((0b0111u32, 0b1110u32)),
        Just((0b1111u32, 0b1100u32)),
        Just((0b1111u32, 0b0011u32)),
        Just((0b1010u32, 0b1101u32)),
        (1u32..16, 1u32..16),
    ]
}

/// Encodes bool masks into the shared allowed-code buffer the masked
/// kernels walk: for each axis in `scope`, either [`DENSE`] or the offset
/// of a `[len, code_0, code_1, …]` region in the returned `codes` buffer
/// — the same encoding `prmsel::plan` writes into its replay arena.
fn encode_masks(
    masks_by_var: &[Option<Vec<bool>>],
    scope: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let mut codes = Vec::new();
    let mut offs = Vec::with_capacity(scope.len());
    for &v in scope {
        match &masks_by_var[v] {
            None => offs.push(DENSE),
            Some(m) => {
                offs.push(codes.len());
                codes.push(0);
                let start = codes.len();
                codes.extend(m.iter().enumerate().filter(|(_, &ok)| ok).map(|(c, _)| c));
                let n = codes.len() - start;
                codes[start - 1] = n;
            }
        }
    }
    (codes, offs)
}

/// Reduce-then-dense reference: `f` with every masked variable in its
/// scope reduced through the ordinary [`Factor::reduce`] path.
fn reduce_all(f: &Factor, masks_by_var: &[Option<Vec<bool>>]) -> Factor {
    let mut r = f.clone();
    for &v in f.vars() {
        if let Some(m) = &masks_by_var[v] {
            r = r.reduce(v, m);
        }
    }
    r
}

/// Random operands `a` and `b` over an [`arb_layout`] pair of scopes with
/// shared cards of up to 12 codes, one mask per variable (all `None` in a
/// quarter of the cases, which checks the all-`DENSE` kernels against the
/// plain `Factor` algebra), and a summed-variable selector.
#[allow(clippy::type_complexity)]
fn arb_masked_case(
) -> impl Strategy<Value = (Factor, Factor, Vec<Option<Vec<bool>>>, usize)> {
    (proptest::collection::vec(1usize..13, 4), arb_layout(), 0u32..4).prop_flat_map(
        |(cards, (la, lb), dense)| {
            let scope = |bits: u32| -> Vec<usize> {
                (0..4).filter(|i| bits >> i & 1 == 1).collect()
            };
            let (va, vb) = (scope(la), scope(lb));
            let len = |vars: &[usize]| vars.iter().map(|&v| cards[v]).product::<usize>();
            let (len_a, len_b) = (len(&va), len(&vb));
            let (c0, c1, c2, c3) = (cards[0], cards[1], cards[2], cards[3]);
            (
                Just((cards, va, vb, dense == 0)),
                proptest::collection::vec(0.0f64..10.0, len_a),
                proptest::collection::vec(0.0f64..10.0, len_b),
                arb_mask(c0),
                arb_mask(c1),
                arb_mask(c2),
                arb_mask(c3),
                0usize..4,
            )
                .prop_map(
                    |((cards, va, vb, dense), da, db, m0, m1, m2, m3, v)| {
                        let card_of =
                            |vars: &[usize]| vars.iter().map(|&v| cards[v]).collect();
                        let a = Factor::new(va.clone(), card_of(&va), da);
                        let b = Factor::new(vb.clone(), card_of(&vb), db);
                        let masks =
                            if dense { vec![None; 4] } else { vec![m0, m1, m2, m3] };
                        (a, b, masks, v)
                    },
                )
        },
    )
}

// The masked kernels must be `f64::to_bits`-identical to reducing the
// operands and running the dense pipeline — the equivalence
// `prmsel::plan` relies on when it lowers evidence-dependent ops into
// masked replay steps (skipped runs contribute exactly +0.0).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn product_masked_matches_reduce_then_dense(
        (a, b, masks, _) in arb_masked_case()
    ) {
        let want = reduce_all(&a, &masks).product(&reduce_all(&b, &masks));
        let (uvars, ucards) = union_scope(&a, &b);
        let sa = strides_in(a.vars(), a.cards(), &uvars);
        let sb = strides_in(b.vars(), b.cards(), &uvars);
        let (codes, offs) = encode_masks(&masks, &uvars);
        let mut assign = vec![0usize; 2 * ucards.len()];
        let mut out = vec![f64::NAN; ucards.iter().product::<usize>().max(1)];
        product_masked_into(
            a.data(), b.data(), &ucards, &sa, &sb, &offs, &codes, &mut assign, &mut out,
        );
        prop_assert_eq!(want.data().len(), out.len());
        for (w, g) in want.data().iter().zip(&out) {
            prop_assert_eq!(w.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn product_sum_out_masked_matches_reduce_then_dense(
        (a, b, masks, v0) in arb_masked_case()
    ) {
        let (uvars, ucards) = union_scope(&a, &b);
        let (v, card_v) = (uvars[v0 % uvars.len()], ucards[v0 % uvars.len()]);
        let (ra, rb) = (reduce_all(&a, &masks), reduce_all(&b, &masks));
        let want = ra.product(&rb).sum_out(v);
        let fused = ra.product_sum_out(&rb, v);
        let rvars: Vec<usize> = uvars.iter().copied().filter(|&u| u != v).collect();
        let rcards: Vec<usize> = want.cards().to_vec();
        let sa = strides_in(a.vars(), a.cards(), &rvars);
        let sb = strides_in(b.vars(), b.cards(), &rvars);
        let (codes, offs) = encode_masks(&masks, &rvars);
        let (vcodes, voffs) = encode_masks(&masks, &[v]);
        // Splice v's region (if any) onto the end of the shared buffer.
        let mut codes = codes;
        let v_mask = if voffs[0] == DENSE {
            DENSE
        } else {
            let at = codes.len();
            codes.extend_from_slice(&vcodes);
            at
        };
        let sav = strides_in(a.vars(), a.cards(), &[v])[0];
        let sbv = strides_in(b.vars(), b.cards(), &[v])[0];
        let mut assign = vec![0usize; 2 * rcards.len().max(1)];
        let mut out = vec![f64::NAN; rcards.iter().product::<usize>().max(1)];
        product_sum_out_masked_into(
            a.data(), b.data(), &rcards, &sa, &sb, &offs, &codes, card_v, sav, sbv,
            v_mask, &mut assign, &mut out,
        );
        prop_assert_eq!(want.data().len(), out.len());
        for ((w, f), g) in want.data().iter().zip(fused.data()).zip(&out) {
            prop_assert_eq!(w.to_bits(), g.to_bits());
            prop_assert_eq!(f.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn sum_out_masked_matches_reduce_then_dense(
        (a, _, masks, v0) in arb_masked_case()
    ) {
        let v = a.vars()[v0 % a.vars().len()];
        let want = reduce_all(&a, &masks).sum_out(v);
        let rvars: Vec<usize> = a.vars().iter().copied().filter(|&u| u != v).collect();
        let rcards: Vec<usize> = want.cards().to_vec();
        let stride = strides_in(a.vars(), a.cards(), &rvars);
        let sv = strides_in(a.vars(), a.cards(), &[v])[0];
        let card_v = a.cards()[a.vars().iter().position(|&x| x == v).unwrap()];
        let (codes, offs) = encode_masks(&masks, &rvars);
        let (vcodes, voffs) = encode_masks(&masks, &[v]);
        let mut codes = codes;
        let v_mask = if voffs[0] == DENSE {
            DENSE
        } else {
            let at = codes.len();
            codes.extend_from_slice(&vcodes);
            at
        };
        let mut assign = vec![0usize; 2 * rcards.len().max(1)];
        let mut out = vec![f64::NAN; rcards.iter().product::<usize>().max(1)];
        sum_out_masked_into(
            a.data(), &rcards, &stride, &offs, &codes, card_v, sv, v_mask, &mut assign,
            &mut out,
        );
        prop_assert_eq!(want.data().len(), out.len());
        for (w, g) in want.data().iter().zip(&out) {
            prop_assert_eq!(w.to_bits(), g.to_bits());
        }
    }
}

/// The sorted-`Vec` union/merge implementation `elimination_order` used
/// before scopes became [`bayesnet::VarSet`] bitsets — kept verbatim as
/// the reference the bitset version must reproduce order-for-order
/// (weights, tie-breaks, and the scope-fusion simulation included).
fn reference_elimination_order(
    scopes: &[Vec<usize>],
    elim: &[usize],
    card_of: impl Fn(usize) -> usize,
) -> Vec<usize> {
    fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let take_a = j >= b.len() || (i < a.len() && a[i] <= b[j]);
            if take_a {
                if j < b.len() && a[i] == b[j] {
                    j += 1;
                }
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out
    }
    let mut scopes: Vec<Vec<usize>> = scopes
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    let mut remaining: Vec<usize> = elim.to_vec();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let mut merged: Vec<usize> = Vec::new();
                for s in scopes.iter().filter(|s| s.contains(&v)) {
                    merged = union_sorted(&merged, s);
                }
                let weight: f64 = merged.iter().map(|&sv| card_of(sv) as f64).product();
                (i, weight)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("weights are finite"))
            .expect("remaining is non-empty");
        let var = remaining.swap_remove(best_idx);
        order.push(var);
        let mut fused: Vec<usize> = Vec::new();
        let mut any = false;
        scopes.retain(|s| {
            if s.contains(&var) {
                fused = union_sorted(&fused, s);
                any = true;
                false
            } else {
                true
            }
        });
        if !any {
            continue;
        }
        fused.retain(|&sv| sv != var);
        scopes.push(fused);
    }
    order
}

/// Random scope sets whose variable ids straddle the `VarSet` inline /
/// spill boundary (256 bits), so word-wise union, ascending iteration,
/// and fusion are all exercised in both storage regimes.
fn arb_scope_family() -> impl Strategy<Value = (Vec<Vec<usize>>, Vec<usize>)> {
    (
        proptest::collection::vec(proptest::collection::vec(0usize..400, 1..5), 1..8),
        any::<bool>(),
    )
        .prop_map(|(mut scopes, spill)| {
            if !spill {
                // Fold ids into the inline regime (< 256 bits).
                for s in &mut scopes {
                    for v in s.iter_mut() {
                        *v %= 12;
                    }
                }
            }
            let mut all: Vec<usize> = scopes.iter().flatten().copied().collect();
            all.sort_unstable();
            all.dedup();
            (scopes, all)
        })
}

// The bitset `elimination_order` must reproduce the sorted-merge
// reference exactly: same variables, same order, for scope families in
// both the inline and spilled `VarSet` regimes.
proptest! {
    #[test]
    fn bitset_elimination_order_matches_sorted_merge_reference(
        (scopes, elim) in arb_scope_family()
    ) {
        // Deterministic pseudo-random cardinalities keyed by var id, so
        // both implementations see the same weights.
        let card_of = |v: usize| 2 + (v * 7 + 3) % 5;
        let got = bayesnet::elimination_order(&scopes, &elim, card_of);
        let want = reference_elimination_order(&scopes, &elim, card_of);
        prop_assert_eq!(got, want);
    }
}
