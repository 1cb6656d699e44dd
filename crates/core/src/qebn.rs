//! Upward closure and the query-evaluation Bayesian network.
//!
//! Given a select-keyjoin query, this module implements Definitions 3.3
//! and 3.5 of the paper:
//!
//! 1. **Upward closure** — if any attribute needed by the query (or by the
//!    closure itself) has a foreign parent through a foreign key `F` not
//!    joined by the query, a fresh tuple variable over the target table is
//!    introduced together with the join `F`, whose indicator is then fixed
//!    to `true`. Closure terminates because the PRM is stratified, and it
//!    does not change the query's result size (Proposition 3.4).
//! 2. **Query-evaluation BN** — one node per needed `(tuple var, attr)`
//!    pair and one per join indicator, with CPDs copied from the PRM and
//!    parents resolved through the join structure. Only queried attributes
//!    and their ancestors are materialized (the optimization noted at the
//!    end of §3.3); everything else is barren and cannot change `P(E)`.
//!
//! The selectivity estimate is then
//! `size(Q) ≈ Π_{v ∈ Q⁺} |T_v| · P(selects ∧ all join indicators true)`,
//! computed by exact variable elimination.

use std::collections::HashMap;

use bayesnet::{probability_of_evidence, BayesNet, Evidence};
use reldb::{Error, Query, Result};

use crate::prm::{JiParentRef, ParentRef, Prm};
use crate::schema::SchemaInfo;

/// A node of the unrolled network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeKey {
    /// `(tuple var, value-attr index)`.
    Attr(usize, usize),
    /// `(tuple var on the FK side, fk index)`.
    Ji(usize, usize),
}

/// Where a QEBN node's CPD lives in the PRM — the coordinate the
/// per-model factor cache ([`crate::plan::FactorCache`]) is indexed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSource {
    /// The attribute CPD `tables[table].attrs[attr]`.
    Attr {
        /// Table index into the PRM.
        table: usize,
        /// Value-attribute index within the table model.
        attr: usize,
    },
    /// The join-indicator CPD `tables[table].join_indicators[fk]`.
    Ji {
        /// Table index (FK side) into the PRM.
        table: usize,
        /// Foreign-key index within the table model.
        fk: usize,
    },
}

/// The unrolled network plus the evidence encoding the query.
#[derive(Debug)]
pub struct QueryEvalBn {
    /// The network (one node per needed attribute / join indicator).
    pub bn: BayesNet,
    /// Evidence: selection masks plus `J = true` for every join in the
    /// upward closure.
    pub evidence: Evidence,
    /// Table index (into the PRM's tables) of each tuple variable in the
    /// closure `Q⁺`, including variables introduced by the closure.
    pub closure_tables: Vec<usize>,
    /// Where each node's CPD lives in the PRM, by node id.
    pub node_sources: Vec<NodeSource>,
    /// Node id per query predicate, aligned with `query.preds` (repeats
    /// when several predicates constrain the same attribute).
    pub pred_nodes: Vec<usize>,
    /// Join-indicator node ids (evidence fixes them to `J = true`),
    /// ascending.
    pub ji_nodes: Vec<usize>,
}

impl QueryEvalBn {
    /// Builds the query-evaluation network for `query` against `prm`.
    pub fn build(prm: &Prm, schema: &SchemaInfo, query: &Query) -> Result<QueryEvalBn> {
        Builder::new(prm, schema, query)?.run()
    }

    /// The selectivity estimate `Π |T_v| · P(E)`.
    pub fn estimated_size(&self, prm: &Prm) -> f64 {
        let mut size = probability_of_evidence(&self.bn, &self.evidence);
        for &t in &self.closure_tables {
            size *= prm.tables[t].n_rows as f64;
        }
        size
    }
}

struct Builder<'a> {
    prm: &'a Prm,
    schema: &'a SchemaInfo,
    query: &'a Query,
    /// Table index per tuple variable (query vars first, closure vars appended).
    var_tables: Vec<usize>,
    /// `(child var, fk index) → parent var` for every join in `Q⁺`.
    join_var: HashMap<(usize, usize), usize>,
    /// Materialized nodes.
    node_ids: HashMap<NodeKey, usize>,
    node_order: Vec<NodeKey>,
    worklist: Vec<NodeKey>,
}

impl<'a> Builder<'a> {
    fn new(prm: &'a Prm, schema: &'a SchemaInfo, query: &'a Query) -> Result<Self> {
        let mut var_tables = Vec::with_capacity(query.vars.len());
        for table in &query.vars {
            var_tables.push(schema.table_index(table)?);
        }
        let mut b = Builder {
            prm,
            schema,
            query,
            var_tables,
            join_var: HashMap::new(),
            node_ids: HashMap::new(),
            node_order: Vec::new(),
            worklist: Vec::new(),
        };
        // Register the query's own joins.
        for join in &query.joins {
            let t = b.var_tables[join.child];
            let fk = b.schema.fk_index(t, &join.fk_attr)?;
            b.join_var.insert((join.child, fk), join.parent);
            b.need(NodeKey::Ji(join.child, fk));
        }
        // Register the selected attributes.
        for pred in &query.preds {
            let t = b.var_tables[pred.var()];
            let a = b.schema.attr_index(t, pred.attr())?;
            b.need(NodeKey::Attr(pred.var(), a));
        }
        Ok(b)
    }

    fn need(&mut self, key: NodeKey) -> usize {
        if let Some(&id) = self.node_ids.get(&key) {
            return id;
        }
        let id = self.node_order.len();
        self.node_ids.insert(key, id);
        self.node_order.push(key);
        self.worklist.push(key);
        id
    }

    /// The tuple variable joined through `(var, fk)`, introducing a closure
    /// variable (and its `J = true` join) if the query has none.
    fn joined_var(&mut self, var: usize, fk: usize) -> usize {
        if let Some(&w) = self.join_var.get(&(var, fk)) {
            return w;
        }
        let t = self.var_tables[var];
        let target = self.schema.fk_target(t, fk);
        let w = self.var_tables.len();
        self.var_tables.push(target);
        self.join_var.insert((var, fk), w);
        self.need(NodeKey::Ji(var, fk));
        w
    }

    fn run(mut self) -> Result<QueryEvalBn> {
        // Expand ancestors until closure.
        let mut parent_lists: HashMap<NodeKey, Vec<usize>> = HashMap::new();
        while let Some(key) = self.worklist.pop() {
            let parents = match key {
                NodeKey::Attr(v, a) => {
                    let t = self.var_tables[v];
                    let model = &self.prm.tables[t].attrs[a];
                    let refs = model.parents.clone();
                    refs.iter()
                        .map(|&p| match p {
                            ParentRef::Local { attr } => {
                                self.need(NodeKey::Attr(v, attr))
                            }
                            ParentRef::Foreign { fk, attr } => {
                                let w = self.joined_var(v, fk);
                                self.need(NodeKey::Attr(w, attr))
                            }
                        })
                        .collect::<Vec<_>>()
                }
                NodeKey::Ji(v, f) => {
                    let t = self.var_tables[v];
                    let model = &self.prm.tables[t].join_indicators[f];
                    let refs = model.parents.clone();
                    let w = self.joined_var(v, f);
                    refs.iter()
                        .map(|&p| match p {
                            JiParentRef::Child { attr } => {
                                self.need(NodeKey::Attr(v, attr))
                            }
                            JiParentRef::Parent { attr } => {
                                self.need(NodeKey::Attr(w, attr))
                            }
                        })
                        .collect::<Vec<_>>()
                }
            };
            parent_lists.insert(key, parents);
        }

        // Assemble the BN.
        let n = self.node_order.len();
        let mut names = Vec::with_capacity(n);
        let mut cards = Vec::with_capacity(n);
        for &key in &self.node_order {
            match key {
                NodeKey::Attr(v, a) => {
                    let t = self.var_tables[v];
                    names.push(format!("v{v}.{}", self.prm.tables[t].attrs[a].name));
                    cards.push(self.prm.tables[t].attrs[a].card);
                }
                NodeKey::Ji(v, f) => {
                    let t = self.var_tables[v];
                    names.push(format!(
                        "v{v}.J_{}",
                        self.prm.tables[t].join_indicators[f].fk_attr
                    ));
                    cards.push(2);
                }
            }
        }
        let mut bn = BayesNet::new(names, cards);
        for &key in &self.node_order {
            let id = self.node_ids[&key];
            let parents = &parent_lists[&key];
            let cpd = match key {
                NodeKey::Attr(v, a) => {
                    let t = self.var_tables[v];
                    self.prm.tables[t].attrs[a].cpd.clone()
                }
                NodeKey::Ji(v, f) => {
                    let t = self.var_tables[v];
                    self.prm.tables[t].join_indicators[f].to_cpd()
                }
            };
            bn.set_family(id, parents, cpd);
        }

        // Evidence: selection masks + all join indicators true.
        let mut evidence = Evidence::new();
        let mut pred_nodes = Vec::with_capacity(self.query.preds.len());
        for pred in &self.query.preds {
            let t = self.var_tables[pred.var()];
            let a = self.schema.attr_index(t, pred.attr())?;
            let id = self.node_ids[&NodeKey::Attr(pred.var(), a)];
            let card = self.prm.tables[t].attrs[a].card;
            let codes = pred.codes(self.schema.domain(t, pred.attr())?);
            evidence.isin(id, &codes, card);
            pred_nodes.push(id);
        }
        for (&(v, f), _) in self.join_var.iter() {
            if let Some(&id) = self.node_ids.get(&NodeKey::Ji(v, f)) {
                evidence.eq(id, 1, 2);
            }
        }
        let node_sources = self
            .node_order
            .iter()
            .map(|&key| match key {
                NodeKey::Attr(v, a) => {
                    NodeSource::Attr { table: self.var_tables[v], attr: a }
                }
                NodeKey::Ji(v, f) => NodeSource::Ji { table: self.var_tables[v], fk: f },
            })
            .collect();
        // Node ids are indices into `node_order`, so this is ascending.
        let ji_nodes = self
            .node_order
            .iter()
            .enumerate()
            .filter(|(_, key)| matches!(key, NodeKey::Ji(..)))
            .map(|(id, _)| id)
            .collect();
        Ok(QueryEvalBn {
            bn,
            evidence,
            closure_tables: self.var_tables,
            node_sources,
            pred_nodes,
            ji_nodes,
        })
    }
}

impl SchemaInfo {
    pub(crate) fn table_index(&self, name: &str) -> Result<usize> {
        self.tables
            .iter()
            .position(|t| t.name == name)
            .ok_or_else(|| Error::UnknownTable(name.to_owned()))
    }

    pub(crate) fn attr_index(&self, table: usize, attr: &str) -> Result<usize> {
        self.tables[table].attrs.iter().position(|a| a == attr).ok_or_else(|| {
            Error::UnknownAttr {
                table: self.tables[table].name.clone(),
                attr: attr.to_owned(),
            }
        })
    }

    fn fk_index(&self, table: usize, fk_attr: &str) -> Result<usize> {
        self.tables[table].fks.iter().position(|f| f.attr == fk_attr).ok_or_else(|| {
            Error::WrongAttrKind {
                table: self.tables[table].name.clone(),
                attr: fk_attr.to_owned(),
                expected: "foreign-key",
            }
        })
    }

    fn fk_target(&self, table: usize, fk: usize) -> usize {
        self.tables[table].fks[fk].target
    }

    pub(crate) fn domain(&self, table: usize, attr: &str) -> Result<&reldb::Domain> {
        let a = self.attr_index(table, attr)?;
        Ok(&self.tables[table].domains[a])
    }

    /// Validates `query` against this schema snapshot *before* any
    /// planning work: unknown tables/attributes, out-of-range tuple
    /// variables, and non-FK join edges are all typed
    /// [`crate::Error::Schema`] failures. Predicate *constants* are not
    /// checked — a constant outside the learned domain is a valid query
    /// that estimates ~0 selectivity (the paper's frequency semantics).
    pub fn validate_query(&self, query: &Query) -> crate::error::Result<()> {
        // Runs on every estimate ahead of the warm plan lookup, so it
        // resolves table indices inline (a name `position` scan per use)
        // instead of collecting them — the happy path allocates nothing.
        for var in &query.vars {
            self.table_index(var)?;
        }
        for join in &query.joins {
            for v in [join.child, join.parent] {
                if v >= query.vars.len() {
                    return Err(Error::UnknownVar(v).into());
                }
            }
            let child_t = self.table_index(&query.vars[join.child])?;
            let parent_t = self.table_index(&query.vars[join.parent])?;
            let fk = self.fk_index(child_t, &join.fk_attr)?;
            if self.fk_target(child_t, fk) != parent_t {
                return Err(Error::BadJoin(format!(
                    "`{}.{}` does not reference `{}`",
                    query.vars[join.child], join.fk_attr, query.vars[join.parent]
                ))
                .into());
            }
        }
        for pred in &query.preds {
            if pred.var() >= query.vars.len() {
                return Err(Error::UnknownVar(pred.var()).into());
            }
            let t = self.table_index(&query.vars[pred.var()])?;
            self.attr_index(t, pred.attr())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prm::{AttrModel, JoinIndicatorModel, TableModel};
    use crate::schema::{FkInfo, TableInfo};
    use bayesnet::TableCpd;
    use reldb::Domain;

    /// Hand-built PRM: parent(x ∈ {0,1}, 50 rows), child(y ∈ {0,1},
    /// 100 rows) with y ← parent.x (noisy copy, 0.9) and a join indicator
    /// depending on parent.x: p_true(x=0)=0.01, p_true(x=1)=0.03.
    fn hand_prm() -> (Prm, SchemaInfo) {
        let prm = Prm {
            tables: vec![
                TableModel {
                    table: "parent".into(),
                    n_rows: 50,
                    attrs: vec![AttrModel {
                        name: "x".into(),
                        card: 2,
                        parents: vec![],
                        cpd: TableCpd::new(2, vec![], vec![0.5, 0.5]).into(),
                    }],
                    join_indicators: vec![],
                },
                TableModel {
                    table: "child".into(),
                    n_rows: 100,
                    attrs: vec![AttrModel {
                        name: "y".into(),
                        card: 2,
                        parents: vec![ParentRef::Foreign { fk: 0, attr: 0 }],
                        cpd: TableCpd::new(2, vec![2], vec![0.9, 0.1, 0.1, 0.9]).into(),
                    }],
                    join_indicators: vec![JoinIndicatorModel {
                        fk_attr: "parent".into(),
                        target: "parent".into(),
                        parents: vec![JiParentRef::Parent { attr: 0 }],
                        parent_cards: vec![2],
                        p_true: vec![0.01, 0.03],
                    }],
                },
            ],
        };
        let int_domain = Domain::new(vec![0i64.into(), 1i64.into()]);
        let schema = SchemaInfo {
            tables: vec![
                TableInfo {
                    name: "parent".into(),
                    n_rows: 50,
                    attrs: vec!["x".into()],
                    domains: vec![int_domain.clone()],
                    fks: vec![],
                },
                TableInfo {
                    name: "child".into(),
                    n_rows: 100,
                    attrs: vec!["y".into()],
                    domains: vec![int_domain],
                    fks: vec![FkInfo { attr: "parent".into(), target: 0 }],
                },
            ],
        };
        (prm, schema)
    }

    #[test]
    fn explicit_join_query_multiplies_chain() {
        let (prm, schema) = hand_prm();
        let mut b = Query::builder();
        let c = b.var("child");
        let p = b.var("parent");
        b.join(c, "parent", p).eq(p, "x", 1).eq(c, "y", 1);
        let qebn = QueryEvalBn::build(&prm, &schema, &b.build()).unwrap();
        // |child|·|parent| · P(x=1)·P(J=true|x=1)·P(y=1|x=1)
        //   = 5000 · 0.5·0.03·0.9 = 67.5.
        let est = qebn.estimated_size(&prm);
        assert!((est - 67.5).abs() < 1e-9, "est={est}");
        assert_eq!(qebn.closure_tables.len(), 2);
    }

    #[test]
    fn upward_closure_introduces_needed_parent_var() {
        // Single-table query on child.y: the foreign parent forces closure
        // through the FK. size = 5000 · Σ_x P(x)P(J|x)P(y=1|x) = 70.
        let (prm, schema) = hand_prm();
        let mut b = Query::builder();
        let c = b.var("child");
        b.eq(c, "y", 1);
        let qebn = QueryEvalBn::build(&prm, &schema, &b.build()).unwrap();
        assert_eq!(qebn.closure_tables.len(), 2, "closure should add the parent var");
        let est = qebn.estimated_size(&prm);
        assert!((est - 70.0).abs() < 1e-9, "est={est}");
    }

    #[test]
    fn closure_is_consistent_with_explicit_join() {
        // Proposition 3.4: closing a query does not change its size. The
        // single-table estimate and the unconstrained-join estimate agree.
        let (prm, schema) = hand_prm();
        let mut b1 = Query::builder();
        let c1 = b1.var("child");
        b1.eq(c1, "y", 0);
        let est1 =
            QueryEvalBn::build(&prm, &schema, &b1.build()).unwrap().estimated_size(&prm);
        let mut b2 = Query::builder();
        let c2 = b2.var("child");
        let p2 = b2.var("parent");
        b2.join(c2, "parent", p2).eq(c2, "y", 0);
        let est2 =
            QueryEvalBn::build(&prm, &schema, &b2.build()).unwrap().estimated_size(&prm);
        assert!((est1 - est2).abs() < 1e-9, "{est1} vs {est2}");
    }

    #[test]
    fn join_only_query_reflects_indicator_mass() {
        // No selects: size = 5000 · Σ_x P(x)·P(J=true|x) = 5000·0.02 = 100
        // (matches |child| as referential integrity demands, because the
        // hand-set probabilities were chosen consistently).
        let (prm, schema) = hand_prm();
        let mut b = Query::builder();
        let c = b.var("child");
        let p = b.var("parent");
        b.join(c, "parent", p);
        let est =
            QueryEvalBn::build(&prm, &schema, &b.build()).unwrap().estimated_size(&prm);
        assert!((est - 100.0).abs() < 1e-9, "est={est}");
    }

    #[test]
    fn parent_side_query_needs_no_closure() {
        let (prm, schema) = hand_prm();
        let mut b = Query::builder();
        let p = b.var("parent");
        b.eq(p, "x", 0);
        let qebn = QueryEvalBn::build(&prm, &schema, &b.build()).unwrap();
        assert_eq!(qebn.closure_tables.len(), 1);
        let est = qebn.estimated_size(&prm);
        assert!((est - 25.0).abs() < 1e-9, "est={est}");
    }

    #[test]
    fn range_predicate_is_exact_set_evidence() {
        let (prm, schema) = hand_prm();
        let mut b = Query::builder();
        let p = b.var("parent");
        b.range(p, "x", Some(0), Some(1));
        let est =
            QueryEvalBn::build(&prm, &schema, &b.build()).unwrap().estimated_size(&prm);
        assert!((est - 50.0).abs() < 1e-9, "est={est}");
    }

    #[test]
    fn closure_chains_transitively_through_two_hops() {
        // contact.z ← patient.y ← strain.x: a single-table query on
        // contact.z must pull in BOTH ancestor variables (Def. 3.3 closes
        // upward recursively), and the estimate must equal the fully
        // joined formulation.
        let prm = Prm {
            tables: vec![
                TableModel {
                    table: "strain".into(),
                    n_rows: 10,
                    attrs: vec![AttrModel {
                        name: "x".into(),
                        card: 2,
                        parents: vec![],
                        cpd: TableCpd::new(2, vec![], vec![0.3, 0.7]).into(),
                    }],
                    join_indicators: vec![],
                },
                TableModel {
                    table: "patient".into(),
                    n_rows: 20,
                    attrs: vec![AttrModel {
                        name: "y".into(),
                        card: 2,
                        parents: vec![ParentRef::Foreign { fk: 0, attr: 0 }],
                        cpd: TableCpd::new(2, vec![2], vec![0.8, 0.2, 0.1, 0.9]).into(),
                    }],
                    join_indicators: vec![JoinIndicatorModel {
                        fk_attr: "strain".into(),
                        target: "strain".into(),
                        parents: vec![],
                        parent_cards: vec![],
                        p_true: vec![0.1],
                    }],
                },
                TableModel {
                    table: "contact".into(),
                    n_rows: 100,
                    attrs: vec![AttrModel {
                        name: "z".into(),
                        card: 2,
                        parents: vec![ParentRef::Foreign { fk: 0, attr: 0 }],
                        cpd: TableCpd::new(2, vec![2], vec![0.6, 0.4, 0.2, 0.8]).into(),
                    }],
                    join_indicators: vec![JoinIndicatorModel {
                        fk_attr: "patient".into(),
                        target: "patient".into(),
                        parents: vec![],
                        parent_cards: vec![],
                        p_true: vec![0.05],
                    }],
                },
            ],
        };
        let dom = Domain::new(vec![0i64.into(), 1i64.into()]);
        let schema = SchemaInfo {
            tables: vec![
                TableInfo {
                    name: "strain".into(),
                    n_rows: 10,
                    attrs: vec!["x".into()],
                    domains: vec![dom.clone()],
                    fks: vec![],
                },
                TableInfo {
                    name: "patient".into(),
                    n_rows: 20,
                    attrs: vec!["y".into()],
                    domains: vec![dom.clone()],
                    fks: vec![FkInfo { attr: "strain".into(), target: 0 }],
                },
                TableInfo {
                    name: "contact".into(),
                    n_rows: 100,
                    attrs: vec!["z".into()],
                    domains: vec![dom],
                    fks: vec![FkInfo { attr: "patient".into(), target: 1 }],
                },
            ],
        };
        let mut b = Query::builder();
        let c = b.var("contact");
        b.eq(c, "z", 1);
        let qebn = QueryEvalBn::build(&prm, &schema, &b.build()).unwrap();
        assert_eq!(qebn.closure_tables.len(), 3, "closure must reach strain");
        let single = qebn.estimated_size(&prm);
        // Hand computation: P(z=1) = Σ_x P(x)·P(y marginalized)… the y
        // node is barren here (z depends on y? no — z ← patient.y), so:
        // P(z=1) = Σ_y P(y)·P(z=1|y), P(y=1) = 0.3·0.2 + 0.7·0.9 = 0.69.
        // P(z=1) = 0.31·0.4 + 0.69·0.8 = 0.676.
        // size = 100·20·10 · P(J_p)·P(J_s) · 0.676
        //      = 20000 · 0.05·0.1 · 0.676 = 67.6.
        assert!((single - 67.6).abs() < 1e-9, "est={single}");

        // Explicit full-chain join gives the same number (Prop. 3.4).
        let mut b2 = Query::builder();
        let c2 = b2.var("contact");
        let p2 = b2.var("patient");
        let s2 = b2.var("strain");
        b2.join(c2, "patient", p2).join(p2, "strain", s2).eq(c2, "z", 1);
        let joined =
            QueryEvalBn::build(&prm, &schema, &b2.build()).unwrap().estimated_size(&prm);
        assert!((single - joined).abs() < 1e-9, "{single} vs {joined}");
    }

    #[test]
    fn unknown_value_estimates_zero() {
        let (prm, schema) = hand_prm();
        let mut b = Query::builder();
        let p = b.var("parent");
        b.eq(p, "x", 99);
        let est =
            QueryEvalBn::build(&prm, &schema, &b.build()).unwrap().estimated_size(&prm);
        assert_eq!(est, 0.0);
    }
}
