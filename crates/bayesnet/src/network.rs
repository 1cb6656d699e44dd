//! The Bayesian-network container.

use crate::cpd::Cpd;
use crate::factor::Factor;
use crate::graph::Dag;

/// A Bayesian network over discrete variables `0..n`.
///
/// The joint distribution is `Π_i P(X_i | Parents(X_i))` (the chain rule of
/// §2.2). Families are set one at a time; acyclicity and cardinality
/// consistency are enforced on every update.
#[derive(Debug, Clone)]
pub struct BayesNet {
    names: Vec<String>,
    cards: Vec<usize>,
    dag: Dag,
    cpds: Vec<Option<Cpd>>,
}

impl BayesNet {
    /// A network over the given variables with no families set.
    pub fn new(names: Vec<String>, cards: Vec<usize>) -> Self {
        assert_eq!(names.len(), cards.len());
        assert!(cards.iter().all(|&c| c >= 1), "every variable needs at least one value");
        let n = names.len();
        BayesNet { names, cards, dag: Dag::empty(n), cpds: vec![None; n] }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.cards.len()
    }

    /// True if the network has no variables.
    pub fn is_empty(&self) -> bool {
        self.cards.is_empty()
    }

    /// Variable names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Cardinality of variable `v`.
    pub fn card(&self, v: usize) -> usize {
        self.cards[v]
    }

    /// All cardinalities.
    pub fn cards(&self) -> &[usize] {
        &self.cards
    }

    /// Index of a variable by name.
    pub fn var(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Parents of `child` in slot order (matching the CPD's parent slots).
    pub fn parents(&self, child: usize) -> &[usize] {
        self.dag.parents(child)
    }

    /// The CPD of `child`, if set.
    pub fn cpd(&self, child: usize) -> Option<&Cpd> {
        self.cpds[child].as_ref()
    }

    /// Installs `P(child | parents)`. Replaces any previous family.
    ///
    /// Panics if this would create a directed cycle or if the CPD's shape
    /// does not match the variables' cardinalities.
    pub fn set_family(&mut self, child: usize, parents: &[usize], cpd: Cpd) {
        assert_eq!(cpd.child_card(), self.cards[child], "child cardinality mismatch");
        assert_eq!(cpd.parent_cards().len(), parents.len(), "parent count mismatch");
        for (&p, &c) in parents.iter().zip(cpd.parent_cards()) {
            assert_eq!(self.cards[p], c, "parent cardinality mismatch");
        }
        // Remove the old family, then check acyclicity edge by edge.
        let old: Vec<usize> = self.dag.parents(child).to_vec();
        for p in &old {
            self.dag.remove_edge(*p, child);
        }
        for &p in parents {
            if self.dag.creates_cycle(p, child) {
                // Roll back before panicking so the network stays valid.
                for q in self.dag.parents(child).to_vec() {
                    self.dag.remove_edge(q, child);
                }
                for &q in &old {
                    self.dag.add_edge(q, child);
                }
                panic!("family for variable {child} would create a cycle");
            }
            self.dag.add_edge(p, child);
        }
        self.cpds[child] = Some(cpd);
    }

    /// True once every variable has a CPD.
    pub fn is_complete(&self) -> bool {
        self.cpds.iter().all(|c| c.is_some())
    }

    /// One factor `P(X_i | Pa_i)` per variable. Panics if incomplete.
    pub fn factors(&self) -> Vec<Factor> {
        (0..self.len())
            .map(|v| {
                let cpd = self.cpds[v].as_ref().expect("network is incomplete");
                cpd.to_factor(v, self.dag.parents(v))
            })
            .collect()
    }

    /// Total model size in bytes (CPDs + 2 bytes per edge of structure).
    pub fn size_bytes(&self) -> usize {
        let cpd_bytes: usize = self.cpds.iter().flatten().map(|c| c.size_bytes()).sum();
        cpd_bytes + 2 * self.dag.edge_count()
    }

    /// The underlying DAG.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// A topological order of the variables (parents first).
    pub fn topological_order(&self) -> Vec<usize> {
        self.dag.topological_order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::TableCpd;

    fn chain() -> BayesNet {
        // X0 → X1 → X2, all binary.
        let mut bn =
            BayesNet::new(vec!["a".into(), "b".into(), "c".into()], vec![2, 2, 2]);
        bn.set_family(0, &[], TableCpd::new(2, vec![], vec![0.6, 0.4]).into());
        bn.set_family(
            1,
            &[0],
            TableCpd::new(2, vec![2], vec![0.9, 0.1, 0.2, 0.8]).into(),
        );
        bn.set_family(
            2,
            &[1],
            TableCpd::new(2, vec![2], vec![0.7, 0.3, 0.5, 0.5]).into(),
        );
        bn
    }

    #[test]
    fn joint_via_factors_matches_chain_rule() {
        let bn = chain();
        assert!(bn.is_complete());
        let joint = bn.factors().into_iter().reduce(|a, b| a.product(&b)).unwrap();
        // P(0,0,0) = 0.6 * 0.9 * 0.7
        assert!((joint.value_at(&[0, 0, 0]) - 0.6 * 0.9 * 0.7).abs() < 1e-12);
        // P(1,1,1) = 0.4 * 0.8 * 0.5
        assert!((joint.value_at(&[1, 1, 1]) - 0.4 * 0.8 * 0.5).abs() < 1e-12);
        assert!((joint.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_family_replaces_old_parents() {
        let mut bn = chain();
        bn.set_family(2, &[], TableCpd::new(2, vec![], vec![0.5, 0.5]).into());
        assert!(bn.parents(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_family_rejected() {
        let mut bn = chain();
        bn.set_family(0, &[2], TableCpd::new(2, vec![2], vec![0.5; 4]).into());
    }

    #[test]
    fn cycle_panic_leaves_network_valid() {
        let mut bn = chain();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bn.set_family(0, &[2], TableCpd::new(2, vec![2], vec![0.5; 4]).into());
        }));
        assert!(result.is_err());
        assert_eq!(bn.parents(0), &[] as &[usize]);
        // And the old edges are still intact.
        assert_eq!(bn.parents(1), &[0]);
    }

    #[test]
    fn size_accounts_for_cpds_and_edges() {
        let bn = chain();
        let expect: usize =
            (0..3).map(|v| bn.cpd(v).unwrap().size_bytes()).sum::<usize>() + 2 * 2;
        assert_eq!(bn.size_bytes(), expect);
    }

    #[test]
    #[should_panic(expected = "cardinality mismatch")]
    fn shape_mismatch_rejected() {
        let mut bn = chain();
        bn.set_family(1, &[0], TableCpd::new(3, vec![2], vec![1.0 / 3.0; 6]).into());
    }
}
