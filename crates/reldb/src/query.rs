//! Select/foreign-key-join query AST.
//!
//! A query is a conjunction over a set of *tuple variables*, each ranging
//! over a table: equality/membership/range predicates on value attributes,
//! plus *keyjoins* of the form `child.fk = parent.pk` (the only join class
//! the paper's estimators are specified for; see §3 of the paper).

use crate::database::Database;
use crate::error::{Error, Result};
use crate::value::Value;

/// A selection predicate on one tuple variable.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `var.attr = value`
    Eq {
        /// Tuple-variable index.
        var: usize,
        /// Value attribute name.
        attr: String,
        /// Constant to compare against.
        value: Value,
    },
    /// `var.attr ∈ values`
    In {
        /// Tuple-variable index.
        var: usize,
        /// Value attribute name.
        attr: String,
        /// Allowed constants.
        values: Vec<Value>,
    },
    /// `lo ≤ var.attr ≤ hi` (inclusive; `None` = unbounded). Only integer
    /// domain values can match.
    Range {
        /// Tuple-variable index.
        var: usize,
        /// Value attribute name.
        attr: String,
        /// Lower bound.
        lo: Option<i64>,
        /// Upper bound.
        hi: Option<i64>,
    },
}

impl Pred {
    /// The tuple variable this predicate constrains.
    pub fn var(&self) -> usize {
        match self {
            Pred::Eq { var, .. } | Pred::In { var, .. } | Pred::Range { var, .. } => *var,
        }
    }

    /// The attribute this predicate constrains.
    pub fn attr(&self) -> &str {
        match self {
            Pred::Eq { attr, .. } | Pred::In { attr, .. } | Pred::Range { attr, .. } => {
                attr
            }
        }
    }

    /// Resolves the predicate to the set of matching dictionary codes in
    /// `table.attr`'s domain. An empty vector means the predicate is
    /// unsatisfiable against this database.
    pub fn matching_codes(&self, db: &Database, table: &str) -> Result<Vec<u32>> {
        Ok(self.codes(db.table(table)?.domain(self.attr())?))
    }

    /// The matching dictionary codes of `domain` (the predicated
    /// attribute's domain), ascending and deduplicated. An empty vector
    /// means the predicate is unsatisfiable.
    pub fn codes(&self, domain: &crate::table::Domain) -> Vec<u32> {
        match self {
            Pred::Eq { value, .. } => domain.code(value).into_iter().collect(),
            Pred::In { values, .. } => {
                let mut codes: Vec<u32> =
                    values.iter().filter_map(|v| domain.code(v)).collect();
                codes.sort_unstable();
                codes.dedup();
                codes
            }
            Pred::Range { lo, hi, .. } => domain.codes_in_range(*lo, *hi),
        }
    }

    /// Writes the predicate's allowed-code mask into `mask` (one slot per
    /// domain code) without allocating: `mask[c]` is true iff code `c`
    /// satisfies the predicate. Exactly the set [`Pred::matching_codes`]
    /// returns, in mask form — the warm estimate path decodes constants
    /// through this instead of building a code vector per query.
    pub fn fill_mask(&self, domain: &crate::table::Domain, mask: &mut [bool]) {
        debug_assert_eq!(mask.len(), domain.card(), "mask length must be domain card");
        mask.fill(false);
        match self {
            Pred::Eq { value, .. } => {
                if let Some(c) = domain.code(value) {
                    mask[c as usize] = true;
                }
            }
            Pred::In { values, .. } => {
                for v in values {
                    if let Some(c) = domain.code(v) {
                        mask[c as usize] = true;
                    }
                }
            }
            Pred::Range { lo, hi, .. } => {
                for (c, v) in domain.values().iter().enumerate() {
                    let hit = v.as_int().is_some_and(|i| {
                        lo.is_none_or(|l| i >= l) && hi.is_none_or(|h| i <= h)
                    });
                    if hit {
                        mask[c] = true;
                    }
                }
            }
        }
    }
}

/// A keyjoin clause: `vars[child].fk_attr = vars[parent].primary_key`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Join {
    /// Tuple variable on the foreign-key side.
    pub child: usize,
    /// Foreign-key attribute name in the child's table.
    pub fk_attr: String,
    /// Tuple variable on the primary-key side.
    pub parent: usize,
}

/// A select/keyjoin query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// Table name each tuple variable ranges over.
    pub vars: Vec<String>,
    /// Keyjoin clauses.
    pub joins: Vec<Join>,
    /// Selection predicates.
    pub preds: Vec<Pred>,
}

impl Query {
    /// Starts a fluent builder.
    pub fn builder() -> QueryBuilder {
        QueryBuilder::default()
    }

    /// Validates the query against a database: tables exist, predicates
    /// reference value attributes, joins go through declared foreign keys to
    /// a variable over the right table, and no FK of a variable is joined
    /// twice.
    pub fn validate(&self, db: &Database) -> Result<()> {
        for t in &self.vars {
            db.table(t)?;
        }
        for p in &self.preds {
            let table = self.vars.get(p.var()).ok_or(Error::UnknownVar(p.var()))?;
            db.table(table)?.domain(p.attr())?;
        }
        let mut seen = std::collections::HashSet::new();
        for j in &self.joins {
            let child_table = self.vars.get(j.child).ok_or(Error::UnknownVar(j.child))?;
            let parent_table =
                self.vars.get(j.parent).ok_or(Error::UnknownVar(j.parent))?;
            let fk = db
                .foreign_keys_of(child_table)?
                .into_iter()
                .find(|f| f.attr == j.fk_attr)
                .ok_or_else(|| {
                    Error::BadJoin(format!(
                        "`{child_table}.{}` is not a foreign key",
                        j.fk_attr
                    ))
                })?;
            if &fk.target != parent_table {
                return Err(Error::BadJoin(format!(
                    "`{child_table}.{}` references `{}`, not `{parent_table}`",
                    j.fk_attr, fk.target
                )));
            }
            if !seen.insert((j.child, j.fk_attr.clone())) {
                return Err(Error::BadJoin(format!(
                    "foreign key `{}` of variable #{} joined twice",
                    j.fk_attr, j.child
                )));
            }
        }
        Ok(())
    }

    /// True if the query involves a single tuple variable and no joins.
    pub fn is_single_table(&self) -> bool {
        self.vars.len() == 1 && self.joins.is_empty()
    }
}

/// Fluent construction of [`Query`] values.
#[derive(Default, Debug, Clone)]
pub struct QueryBuilder {
    query: Query,
}

impl QueryBuilder {
    /// Adds a tuple variable over `table`; returns its index.
    pub fn var(&mut self, table: impl Into<String>) -> usize {
        self.query.vars.push(table.into());
        self.query.vars.len() - 1
    }

    /// Adds an equality predicate `var.attr = value`.
    pub fn eq(
        &mut self,
        var: usize,
        attr: impl Into<String>,
        value: impl Into<Value>,
    ) -> &mut Self {
        self.query.preds.push(Pred::Eq { var, attr: attr.into(), value: value.into() });
        self
    }

    /// Adds a membership predicate `var.attr ∈ values`.
    pub fn isin(
        &mut self,
        var: usize,
        attr: impl Into<String>,
        values: Vec<Value>,
    ) -> &mut Self {
        self.query.preds.push(Pred::In { var, attr: attr.into(), values });
        self
    }

    /// Adds a range predicate `lo ≤ var.attr ≤ hi`.
    pub fn range(
        &mut self,
        var: usize,
        attr: impl Into<String>,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> &mut Self {
        self.query.preds.push(Pred::Range { var, attr: attr.into(), lo, hi });
        self
    }

    /// Adds a keyjoin `child.fk_attr = parent.pk`.
    pub fn join(
        &mut self,
        child: usize,
        fk_attr: impl Into<String>,
        parent: usize,
    ) -> &mut Self {
        self.query.joins.push(Join { child, fk_attr: fk_attr.into(), parent });
        self
    }

    /// Finishes building.
    pub fn build(&self) -> Query {
        self.query.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::DatabaseBuilder;
    use crate::table::{Cell, TableBuilder};

    fn db() -> Database {
        let mut p = TableBuilder::new("parent").key("id").col("x");
        p.push_row(vec![Cell::Key(1), "a".into()]).unwrap();
        let mut c = TableBuilder::new("child").key("id").fk("parent", "parent").col("y");
        c.push_row(vec![Cell::Key(1), Cell::Key(1), "p".into()]).unwrap();
        DatabaseBuilder::new()
            .add_table(p.finish().unwrap())
            .add_table(c.finish().unwrap())
            .finish()
            .unwrap()
    }

    #[test]
    fn builder_produces_expected_ast() {
        let mut b = Query::builder();
        let c = b.var("child");
        let p = b.var("parent");
        b.eq(p, "x", "a").join(c, "parent", p);
        let q = b.build();
        assert_eq!(q.vars, vec!["child", "parent"]);
        assert_eq!(q.joins.len(), 1);
        assert!(!q.is_single_table());
        q.validate(&db()).unwrap();
    }

    #[test]
    fn validate_rejects_join_through_value_column() {
        let mut b = Query::builder();
        let c = b.var("child");
        let p = b.var("parent");
        b.join(c, "y", p);
        assert!(matches!(b.build().validate(&db()), Err(Error::BadJoin(_))));
    }

    #[test]
    fn validate_rejects_join_to_wrong_table() {
        let mut b = Query::builder();
        let c = b.var("child");
        let other = b.var("child");
        b.join(c, "parent", other);
        assert!(matches!(b.build().validate(&db()), Err(Error::BadJoin(_))));
    }

    #[test]
    fn validate_rejects_double_join_of_same_fk() {
        let mut b = Query::builder();
        let c = b.var("child");
        let p1 = b.var("parent");
        let p2 = b.var("parent");
        b.join(c, "parent", p1).join(c, "parent", p2);
        assert!(matches!(b.build().validate(&db()), Err(Error::BadJoin(_))));
    }

    #[test]
    fn validate_rejects_predicate_on_key() {
        let mut b = Query::builder();
        let p = b.var("parent");
        b.eq(p, "id", 1);
        assert!(b.build().validate(&db()).is_err());
    }

    #[test]
    fn matching_codes_for_each_predicate_kind() {
        let d = db();
        let eq = Pred::Eq { var: 0, attr: "x".into(), value: "a".into() };
        assert_eq!(eq.matching_codes(&d, "parent").unwrap(), vec![0]);
        let missing = Pred::Eq { var: 0, attr: "x".into(), value: "zz".into() };
        assert!(missing.matching_codes(&d, "parent").unwrap().is_empty());
        let isin = Pred::In {
            var: 0,
            attr: "x".into(),
            values: vec!["a".into(), "a".into(), "zz".into()],
        };
        assert_eq!(isin.matching_codes(&d, "parent").unwrap(), vec![0]);
    }

    #[test]
    fn fill_mask_agrees_with_matching_codes() {
        let d = db();
        let preds = [
            Pred::Eq { var: 0, attr: "x".into(), value: "a".into() },
            Pred::Eq { var: 0, attr: "x".into(), value: "zz".into() },
            Pred::In {
                var: 0,
                attr: "x".into(),
                values: vec!["a".into(), "a".into(), "zz".into()],
            },
            Pred::Range { var: 0, attr: "x".into(), lo: None, hi: None },
        ];
        let domain = d.table("parent").unwrap().domain("x").unwrap();
        let mut mask = vec![true; domain.card()];
        for p in &preds {
            p.fill_mask(domain, &mut mask);
            let from_mask: Vec<u32> = mask
                .iter()
                .enumerate()
                .filter(|(_, &ok)| ok)
                .map(|(c, _)| c as u32)
                .collect();
            assert_eq!(from_mask, p.matching_codes(&d, "parent").unwrap(), "{p:?}");
        }
    }
}
