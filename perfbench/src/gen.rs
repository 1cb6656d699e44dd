//! Seeded input generation. Everything the program receives — SQL text
//! and database snapshots — is made here from the run's `--seed`, before
//! any timed region starts.
//!
//! The base datasets are fixed (the repository's TB generator at the
//! paper's cardinalities and a 20k-row census table, both with fixed data
//! seeds), so every run learns the same model. The seed drives what a
//! workload asks and writes: the Zipf hot set and request order, the
//! uniform range constants, and the stream of TB write snapshots.

use reldb::{AttrKind, Cell, Database, DatabaseBuilder, TableBuilder, Value};

/// SplitMix64: a small, self-contained generator, so the benchmark's
/// inputs do not move when the repository's `rand` stand-in changes.
struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed.
    fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A query template: tuple variables, join conditions and predicate
/// slots (`alias.attr`). Constants are filled in per request.
pub struct Template {
    pub from: &'static str,
    pub joins: &'static str,
    pub slots: &'static [&'static str],
}

const fn t(
    from: &'static str,
    joins: &'static str,
    slots: &'static [&'static str],
) -> Template {
    Template { from, joins, slots }
}

const CP: &str = "contact c, patient p";
const PS: &str = "patient p, strain s";
const CPS: &str = "contact c, patient p, strain s";

/// `hot-sql` and `maintain-mix` templates: selects on each TB table and
/// the contact⋈patient, patient⋈strain and contact⋈patient⋈strain joins.
pub const TB_HOT: &[Template] = &[
    t("strain s", "", &["s.unique"]),
    t("strain s", "", &["s.drug_resist"]),
    t("strain s", "", &["s.lineage"]),
    t("strain s", "", &["s.unique", "s.lineage"]),
    t("strain s", "", &["s.drug_resist", "s.lineage"]),
    t("patient p", "", &["p.age"]),
    t("patient p", "", &["p.gender"]),
    t("patient p", "", &["p.usborn"]),
    t("patient p", "", &["p.hiv"]),
    t("patient p", "", &["p.homeless"]),
    t("patient p", "", &["p.age", "p.gender"]),
    t("patient p", "", &["p.age", "p.usborn"]),
    t("patient p", "", &["p.hiv", "p.homeless"]),
    t("patient p", "", &["p.age", "p.hiv", "p.usborn"]),
    t("contact c", "", &["c.contype"]),
    t("contact c", "", &["c.age"]),
    t("contact c", "", &["c.infected"]),
    t("contact c", "", &["c.contype", "c.age"]),
    t("contact c", "", &["c.contype", "c.infected", "c.household"]),
    t(CP, "c.patient = p", &["c.contype", "p.age"]),
    t(CP, "c.patient = p", &["c.age", "p.age"]),
    t(CP, "c.patient = p", &["c.infected", "p.hiv"]),
    t(CP, "c.patient = p", &["c.contype", "p.usborn", "p.age"]),
    t(PS, "p.strain = s", &["p.usborn", "s.unique"]),
    t(PS, "p.strain = s", &["p.age", "s.lineage"]),
    t(PS, "p.strain = s", &["p.hiv", "s.drug_resist"]),
    t(CPS, "c.patient = p AND p.strain = s", &["c.contype", "p.age", "s.unique"]),
    t(
        CPS,
        "c.patient = p AND p.strain = s",
        &["c.infected", "p.usborn", "s.drug_resist"],
    ),
    t(CPS, "c.patient = p AND p.strain = s", &["c.age", "s.lineage"]),
];

/// `range-miss` templates over the census table (target 0).
pub const CENSUS_RANGE: &[Template] = &[
    t("census", "", &["census.age", "census.income"]),
    t("census", "", &["census.hours_per_week", "census.income"]),
    t("census", "", &["census.age", "census.hours_per_week", "census.income"]),
];

/// `range-miss` contact⋈patient range template over TB (target 1). Five
/// range slots give ~1.2e5 distinct constant tuples, far above the
/// per-plan memo.
const TB_RANGE: Template =
    t(CP, "c.patient = p", &["c.contype", "c.age", "c.infected", "p.age", "p.hiv"]);

/// Share of `range-miss` requests that go to the TB range template.
const TB_RANGE_SHARE: f64 = 0.125;

/// Requests per template kept in the hot set.
const HOT_PER_TEMPLATE: usize = 64;
/// Zipf exponent over the hot set.
const ZIPF_S: f64 = 1.0;

/// A generated request set: distinct SQL strings with their template
/// and target estimator, plus the request order as indices into them.
pub struct Requests {
    pub sqls: Vec<String>,
    pub template: Vec<u16>,
    /// 0 = the workload's first estimator, 1 = its second.
    pub target: Vec<u8>,
    pub stream: Vec<u32>,
    /// One SQL string per template (its first generated request), in
    /// template order, with the template's target: used to derive
    /// precompile keys and to probe first reads after a swap.
    pub representatives: Vec<(String, u8)>,
}

fn table_of<'a>(from: &'a str, alias: &str) -> &'a str {
    for item in from.split(',') {
        let mut words = item.split_whitespace();
        let table = words.next().expect("FROM item names a table");
        if words.next().unwrap_or(table) == alias {
            return table;
        }
    }
    panic!("alias `{alias}` not in `{from}`")
}

fn domain(db: &Database, from: &str, slot: &str) -> Vec<Value> {
    let (alias, attr) = slot.split_once('.').expect("slot is alias.attr");
    let table = db.table(table_of(from, alias)).expect("template table exists");
    table.domain(attr).expect("template attribute exists").values().to_vec()
}

fn lit(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{s}'"),
    }
}

fn render(tpl: &Template, preds: &[String]) -> String {
    let mut conds: Vec<&str> = Vec::new();
    if !tpl.joins.is_empty() {
        conds.push(tpl.joins);
    }
    conds.extend(preds.iter().map(String::as_str));
    format!("SELECT COUNT(*) FROM {} WHERE {}", tpl.from, conds.join(" AND "))
}

/// The `hot-sql` request set: per template, [`HOT_PER_TEMPLATE`] seeded
/// constant tuples (`=` or a two-value `IN`). Each request picks a
/// template uniformly, then a tuple by Zipf(1.0) over a seeded ranking
/// of that template's tuples, so the template mix is the same for every
/// seed and only the hot constants move.
pub fn hot_sql(db: &Database, seed: u64, stream_len: usize) -> Requests {
    let mut rng = Rng::new(seed, 1);
    let mut sqls = Vec::new();
    let mut template = Vec::new();
    let mut representatives = Vec::new();
    for (ti, tpl) in TB_HOT.iter().enumerate() {
        let domains: Vec<Vec<Value>> =
            tpl.slots.iter().map(|s| domain(db, tpl.from, s)).collect();
        for k in 0..HOT_PER_TEMPLATE {
            let preds: Vec<String> = tpl
                .slots
                .iter()
                .zip(&domains)
                .map(|(slot, dom)| {
                    let a = rng.below(dom.len());
                    if dom.len() > 2 && rng.unit() < 0.3 {
                        let b = (a + 1 + rng.below(dom.len() - 1)) % dom.len();
                        format!("{slot} IN ({}, {})", lit(&dom[a]), lit(&dom[b]))
                    } else {
                        format!("{slot} = {}", lit(&dom[a]))
                    }
                })
                .collect();
            let sql = render(tpl, &preds);
            if k == 0 {
                representatives.push((sql.clone(), 0));
            }
            sqls.push(sql);
            template.push(ti as u16);
        }
    }
    // Zipf CDF over ranks, and a seeded rank → tuple map per template.
    let mut cdf = Vec::with_capacity(HOT_PER_TEMPLATE);
    let mut acc = 0.0;
    for r in 0..HOT_PER_TEMPLATE {
        acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let ranking: Vec<Vec<u32>> = (0..TB_HOT.len())
        .map(|ti| {
            let mut order: Vec<u32> = (0..HOT_PER_TEMPLATE as u32)
                .map(|k| (ti * HOT_PER_TEMPLATE) as u32 + k)
                .collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            order
        })
        .collect();
    let stream = (0..stream_len)
        .map(|_| {
            let ti = rng.below(TB_HOT.len());
            let u = rng.unit() * acc;
            ranking[ti][cdf.partition_point(|&c| c <= u).min(HOT_PER_TEMPLATE - 1)]
        })
        .collect();
    let target = vec![0; sqls.len()];
    Requests { sqls, template, target, stream, representatives }
}

fn range_request(rng: &mut Rng, db: &Database, tpl: &Template) -> String {
    let preds: Vec<String> = tpl
        .slots
        .iter()
        .map(|slot| {
            let dom = domain(db, tpl.from, slot);
            let (a, b) = (rng.below(dom.len()), rng.below(dom.len()));
            format!("{slot} BETWEEN {} AND {}", lit(&dom[a.min(b)]), lit(&dom[a.max(b)]))
        })
        .collect();
    render(tpl, &preds)
}

/// The `range-miss` request set: `len` distinct-by-construction requests
/// with constants uniform over each domain — 7/8 census range templates
/// (target 0), 1/8 the TB contact⋈patient range template (target 1).
pub fn range_miss(census: &Database, tb: &Database, seed: u64, len: usize) -> Requests {
    let mut rng = Rng::new(seed, 2);
    let mut sqls = Vec::with_capacity(len);
    let mut template = Vec::with_capacity(len);
    let mut target = Vec::with_capacity(len);
    let mut representatives: Vec<(String, u8)> = CENSUS_RANGE
        .iter()
        .map(|tpl| (range_request(&mut rng, census, tpl), 0))
        .collect();
    representatives.push((range_request(&mut rng, tb, &TB_RANGE), 1));
    for _ in 0..len {
        if rng.unit() < TB_RANGE_SHARE {
            sqls.push(range_request(&mut rng, tb, &TB_RANGE));
            template.push(CENSUS_RANGE.len() as u16);
            target.push(1);
        } else {
            let ti = rng.below(CENSUS_RANGE.len());
            sqls.push(range_request(&mut rng, census, &CENSUS_RANGE[ti]));
            template.push(ti as u16);
            target.push(0);
        }
    }
    let stream = (0..len as u32).collect();
    Requests { sqls, template, target, stream, representatives }
}

enum Col {
    Key(Vec<i64>),
    Fk { target: String, keys: Vec<i64> },
    Val { domain: Vec<Value>, base: Vec<u32>, codes: Vec<u32>, counts: Vec<u32> },
}

struct RowTable {
    name: String,
    attrs: Vec<(String, AttrKind)>,
    cols: Vec<Col>,
    n_rows: usize,
}

/// The seeded TB write stream. Each [`TbWriter::next`] re-values a fixed
/// share of patient and contact rows within the existing domains (each
/// new value copied from a random row of the base snapshot, so marginals
/// stay put) and re-points a share of contacts to other patients, so
/// parent changes fan out to children. A value's last occurrence is
/// never overwritten, so every snapshot keeps the model's domains.
pub struct TbWriter {
    tables: Vec<RowTable>,
    rng: Rng,
}

/// Per-cycle shares: re-valued patients and contacts, re-pointed contacts.
const REVALUE_SHARE: f64 = 0.01;
const REPOINT_SHARE: f64 = 0.005;

impl TbWriter {
    pub fn new(base: &Database, seed: u64) -> TbWriter {
        let tables = base
            .tables()
            .iter()
            .map(|table| {
                let schema = table.schema();
                let cols = schema
                    .attrs
                    .iter()
                    .map(|a| match &a.kind {
                        AttrKind::PrimaryKey => {
                            Col::Key(table.key_values().expect("keyed table").to_vec())
                        }
                        AttrKind::ForeignKey { target } => Col::Fk {
                            target: target.clone(),
                            keys: table.fk_values(&a.name).expect("fk column").to_vec(),
                        },
                        AttrKind::Value => {
                            let domain = table
                                .domain(&a.name)
                                .expect("value column")
                                .values()
                                .to_vec();
                            let codes =
                                table.codes(&a.name).expect("value column").to_vec();
                            let mut counts = vec![0u32; domain.len()];
                            for &c in &codes {
                                counts[c as usize] += 1;
                            }
                            Col::Val { domain, base: codes.clone(), codes, counts }
                        }
                    })
                    .collect();
                RowTable {
                    name: table.name().to_owned(),
                    attrs: schema
                        .attrs
                        .iter()
                        .map(|a| (a.name.clone(), a.kind.clone()))
                        .collect(),
                    cols,
                    n_rows: table.n_rows(),
                }
            })
            .collect();
        TbWriter { tables, rng: Rng::new(seed, 3) }
    }

    fn index(&self, name: &str) -> usize {
        self.tables.iter().position(|t| t.name == name).expect("TB table")
    }

    fn revalue(&mut self, table: usize) {
        let t = &mut self.tables[table];
        let val_cols: Vec<usize> =
            (0..t.cols.len()).filter(|&c| matches!(t.cols[c], Col::Val { .. })).collect();
        let n = (t.n_rows as f64 * REVALUE_SHARE).ceil() as usize;
        for _ in 0..n {
            let row = self.rng.below(t.n_rows);
            let col = val_cols[self.rng.below(val_cols.len())];
            let donor = self.rng.below(t.n_rows);
            if let Col::Val { base, codes, counts, .. } = &mut t.cols[col] {
                let (old, new) = (codes[row], base[donor]);
                if old == new || counts[old as usize] == 1 {
                    continue;
                }
                counts[old as usize] -= 1;
                counts[new as usize] += 1;
                codes[row] = new;
            }
        }
    }

    fn repoint(&mut self, child: usize, fk: &str, parent: usize) {
        let parents = match &self.tables[parent].cols[0] {
            Col::Key(keys) => keys.clone(),
            _ => panic!("parent table's first column is its key"),
        };
        let t = &mut self.tables[child];
        let col = t.attrs.iter().position(|(name, _)| name == fk).expect("fk attr");
        let n = (t.n_rows as f64 * REPOINT_SHARE).ceil() as usize;
        if let Col::Fk { keys, .. } = &mut t.cols[col] {
            for _ in 0..n {
                let row = self.rng.below(keys.len());
                keys[row] = parents[self.rng.below(parents.len())];
            }
        }
    }

    /// Advances the write stream by one cycle and returns the new snapshot.
    pub fn next(&mut self) -> Database {
        let (patient, contact) = (self.index("patient"), self.index("contact"));
        self.revalue(patient);
        self.revalue(contact);
        self.repoint(contact, "patient", patient);
        self.snapshot()
    }

    /// The current snapshot as a database.
    fn snapshot(&self) -> Database {
        let mut db = DatabaseBuilder::new();
        for t in &self.tables {
            let mut b = TableBuilder::new(t.name.clone());
            for ((name, kind), col) in t.attrs.iter().zip(&t.cols) {
                b = match (kind, col) {
                    (AttrKind::PrimaryKey, _) => b.key(name.clone()),
                    (AttrKind::ForeignKey { .. }, Col::Fk { target, .. }) => {
                        b.fk(name.clone(), target.clone())
                    }
                    _ => b.col(name.clone()),
                };
            }
            for r in 0..t.n_rows {
                let row: Vec<Cell> = t
                    .cols
                    .iter()
                    .map(|c| match c {
                        Col::Key(keys) | Col::Fk { keys, .. } => Cell::Key(keys[r]),
                        Col::Val { domain, codes, .. } => {
                            Cell::Val(domain[codes[r] as usize].clone())
                        }
                    })
                    .collect();
                b.push_row(row).expect("snapshot row matches its schema");
            }
            db = db.add_table(b.finish().expect("snapshot table builds"));
        }
        db.finish().expect("snapshot keeps referential integrity")
    }
}
