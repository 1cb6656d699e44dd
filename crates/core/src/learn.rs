//! PRM construction from a relational database (paper §4).
//!
//! One greedy hill-climbing search over the *whole* database: the move
//! space covers, under a single global byte budget,
//!
//! * adding/removing a **local parent** (same-table attribute) of a value
//!   attribute,
//! * adding/removing a **foreign parent** (attribute of a foreign-key
//!   target table) of a value attribute, and
//! * adding/removing a parent of a **join indicator** (an attribute of
//!   either table the foreign key connects).
//!
//! Scores decompose per family. Attribute families are scored on the
//! owning table's rows (sufficient statistics collected through the
//! foreign-key join, §4.2); join-indicator families are scored on the
//! implicit `T × S` pair population, whose statistics reduce to one join
//! group-by plus two marginal group-bys — exactly the counts the paper
//! derives (`N(pa) = N_T(x)·N_S(y)` in the denominator of Eq. 4).
//!
//! Structural constraints (paper §4.3.2): per-table attribute DAGs,
//! table stratification for foreign parents, no attribute may both depend
//! through a foreign key `F` and serve as a parent of `J_F` (which would
//! make the unrolled query-evaluation network cyclic), and per-family
//! parent bounds.

use std::collections::HashMap;

use bayesnet::cpd::TableCpd;
use bayesnet::graph::Dag;
use bayesnet::learn::score::{family_loglik, mdl_penalty_per_param};
use bayesnet::learn::treecpd::{grow_tree, TreeGrowOptions};
use bayesnet::{Cpd, CpdKind};
use reldb::{CountTable, Database, Result};

use crate::ctx::Ctx;
use crate::prm::{
    AttrModel, JiParentRef, JoinIndicatorModel, ParentRef, Prm, TableModel,
};

/// Step-selection rule for hill climbing (paper §4.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepRule {
    /// Largest ΔLL (ignores cost except for the hard budget).
    Naive,
    /// Storage-size-normalized: largest ΔLL / Δbytes.
    Ssn,
    /// Minimum description length: largest Δ(LL − DL).
    Mdl,
}

/// Configuration of PRM construction.
#[derive(Debug, Clone)]
pub struct PrmLearnConfig {
    /// CPD representation for attribute families.
    pub cpd_kind: CpdKind,
    /// Global byte budget for the whole model.
    pub budget_bytes: usize,
    /// Max parents per value attribute.
    pub max_parents: usize,
    /// Max parents per join indicator (0 = uniform join assumption).
    pub max_ji_parents: usize,
    /// Allow cross-table attribute parents (false = per-table BNs).
    pub allow_foreign_parents: bool,
    /// Step-selection rule (naive ΔLL / SSN / MDL).
    pub rule: StepRule,
    /// Tree-growth knobs (ignored for table CPDs).
    pub tree: TreeGrowOptions,
    /// Reject table-CPD families whose dense count table would exceed
    /// this many cells.
    pub max_family_cells: usize,
    /// Random-perturbation restarts after the first convergence (paper
    /// §4.3.3: "the algorithm can take some number of random steps, and
    /// then resume the hill-climbing process").
    pub restarts: usize,
    /// RNG seed for the restarts.
    pub seed: u64,
    /// Optional single-pass candidate prefilter (the paper's §6 future
    /// work: "an initial single pass over the data can be used to 'home
    /// in' on a much smaller set of candidate models"). When set, each
    /// attribute only considers its `k` highest-mutual-information
    /// candidates as parents, shrinking the move space dramatically.
    pub candidate_parents_per_attr: Option<usize>,
}

impl Default for PrmLearnConfig {
    fn default() -> Self {
        PrmLearnConfig {
            cpd_kind: CpdKind::Tree,
            budget_bytes: 8192,
            max_parents: 3,
            max_ji_parents: 2,
            allow_foreign_parents: true,
            rule: StepRule::Ssn,
            tree: TreeGrowOptions::default(),
            max_family_cells: 4_000_000,
            restarts: 0,
            seed: 0x5EED,
            candidate_parents_per_attr: None,
        }
    }
}

impl PrmLearnConfig {
    /// The **BN+UJ** baseline of §5: independent per-table Bayesian
    /// networks plus the uniform join assumption.
    pub fn bn_uj(budget_bytes: usize) -> Self {
        PrmLearnConfig {
            budget_bytes,
            allow_foreign_parents: false,
            max_ji_parents: 0,
            ..Default::default()
        }
    }
}

/// Learns a PRM from the database under the given configuration.
pub fn learn_prm(db: &Database, config: &PrmLearnConfig) -> Result<Prm> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let ctx = {
        let _span = obs::span("prm.learn.stats");
        Ctx::build(db, config)?
    };
    let mut learner = Learner::new(&ctx, config.clone());
    {
        let _span = obs::span("prm.learn.climb");
        learner.climb();
    }
    if config.restarts > 0 {
        let _span = obs::span("prm.learn.restarts");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut best = learner.snapshot();
        for _ in 0..config.restarts {
            learner.perturb(&mut rng);
            learner.climb();
            if learner.total_ll() > best.ll {
                best = learner.snapshot();
            }
        }
        if best.ll > learner.total_ll() {
            learner.restore(best);
        }
    }
    let _span = obs::span("prm.learn.assemble");
    Ok(learner.assemble())
}

// ---------------------------------------------------------------------
// The hill-climbing learner.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    AttrAdd { t: usize, a: usize, p: ParentRef },
    AttrDel { t: usize, a: usize, p: ParentRef },
    JiAdd { t: usize, f: usize, p: JiParentRef },
    JiDel { t: usize, f: usize, p: JiParentRef },
}

#[derive(Clone)]
struct AttrEval {
    ll: f64,
    bytes: usize,
    cpd: Cpd,
}

#[derive(Clone)]
struct JiEval {
    ll: f64,
    bytes: usize,
    parent_cards: Vec<usize>,
    p_true: Vec<f64>,
}

struct Snapshot {
    attr_parents: Vec<Vec<Vec<ParentRef>>>,
    ji_parents: Vec<Vec<Vec<JiParentRef>>>,
    local_dags: Vec<Dag>,
    cur_attr: Vec<Vec<AttrEval>>,
    cur_ji: Vec<Vec<JiEval>>,
    ll: f64,
}

type AttrCache = HashMap<(usize, usize, Vec<ParentRef>, usize), Option<AttrEval>>;
type JiCache = HashMap<(usize, usize, Vec<JiParentRef>), JiEval>;

struct Learner<'c> {
    ctx: &'c Ctx,
    config: PrmLearnConfig,
    /// Per (table, attr): the candidate parent shortlist, or None = all.
    candidates: Vec<Vec<Option<Vec<ParentRef>>>>,
    attr_parents: Vec<Vec<Vec<ParentRef>>>,
    ji_parents: Vec<Vec<Vec<JiParentRef>>>,
    local_dags: Vec<Dag>,
    /// Eval of every *current* family (what the model would ship today).
    cur_attr: Vec<Vec<AttrEval>>,
    cur_ji: Vec<Vec<JiEval>>,
    /// Memo for candidate evaluations. Tree families are re-grown under
    /// the byte allowance available at evaluation time (the paper's
    /// "add a split" operator at a different granularity), so the cap is
    /// part of the key.
    attr_cache: AttrCache,
    ji_cache: JiCache,
}

/// A worker's view of the learner during concurrent move scoring: shared
/// read access to the cross-step memo plus a thread-local overflow for
/// evaluations computed this batch. The caller absorbs the locals back
/// into the learner's memo after the parallel region, so cross-step
/// caching keeps working. Evaluations are pure functions of
/// `(ctx, config, key)`, so two workers computing the same key insert
/// identical values and merge order cannot matter.
struct EvalShard<'a> {
    ctx: &'a Ctx,
    config: &'a PrmLearnConfig,
    shared_attr: &'a AttrCache,
    shared_ji: &'a JiCache,
    local_attr: AttrCache,
    local_ji: JiCache,
}

impl EvalShard<'_> {
    /// Scores an attribute family: `(ll, bytes)`, or `None` if the family
    /// is illegal (dense table too large). Checks both cache layers
    /// before computing, avoiding the CPD clone on the scoring path.
    fn score_attr(
        &mut self,
        t: usize,
        a: usize,
        parents: &[ParentRef],
        param_cap: usize,
    ) -> Option<(f64, usize)> {
        let key = (t, a, parents.to_vec(), param_cap);
        if let Some(hit) =
            self.shared_attr.get(&key).or_else(|| self.local_attr.get(&key))
        {
            return hit.as_ref().map(|e| (e.ll, e.bytes));
        }
        let result = compute_attr_eval(self.ctx, self.config, t, a, parents, param_cap);
        let out = result.as_ref().map(|e| (e.ll, e.bytes));
        self.local_attr.insert(key, result);
        out
    }

    /// Scores a join-indicator family: `(ll, bytes)`.
    fn score_ji(&mut self, t: usize, f: usize, parents: &[JiParentRef]) -> (f64, usize) {
        let key = (t, f, parents.to_vec());
        if let Some(hit) = self.shared_ji.get(&key).or_else(|| self.local_ji.get(&key)) {
            return (hit.ll, hit.bytes);
        }
        let eval = compute_ji_eval(self.ctx, t, f, parents);
        let out = (eval.ll, eval.bytes);
        self.local_ji.insert(key, eval);
        out
    }
}

impl<'c> Learner<'c> {
    fn new(ctx: &'c Ctx, config: PrmLearnConfig) -> Self {
        let attr_parents =
            ctx.tables.iter().map(|t| vec![Vec::new(); t.attr_names.len()]).collect();
        let ji_parents =
            ctx.tables.iter().map(|t| vec![Vec::new(); t.fks.len()]).collect();
        let local_dags =
            ctx.tables.iter().map(|t| Dag::empty(t.attr_names.len())).collect();
        let candidates = compute_candidates(ctx, &config);
        let mut learner = Learner {
            ctx,
            config,
            candidates,
            attr_parents,
            ji_parents,
            local_dags,
            cur_attr: Vec::new(),
            cur_ji: Vec::new(),
            attr_cache: HashMap::new(),
            ji_cache: HashMap::new(),
        };
        for t in 0..ctx.tables.len() {
            let mut attrs = Vec::new();
            for a in 0..ctx.tables[t].attr_names.len() {
                attrs.push(
                    learner
                        .eval_attr(t, a, &[], usize::MAX)
                        .expect("empty families are always legal"),
                );
            }
            learner.cur_attr.push(attrs);
            let mut jis = Vec::new();
            for f in 0..ctx.tables[t].fks.len() {
                jis.push(learner.eval_ji(t, f, &[]));
            }
            learner.cur_ji.push(jis);
        }
        learner
    }

    fn climb(&mut self) {
        const TOL: f64 = 1e-9;
        loop {
            let cur_bytes = self.total_bytes();
            let moves = self.candidate_moves();
            // Score the whole batch across the pool. Workers only read the
            // learner and write thread-local cache shards; the shards are
            // absorbed below and the deltas re-assembled in move order, so
            // selection (and hence the learned structure) is independent
            // of the thread count.
            let this = &*self;
            let scored = par::chunks(moves.len(), |range| {
                let mut shard = this.shard();
                let deltas: Vec<Option<(f64, i64)>> = moves[range]
                    .iter()
                    .map(|&mv| this.move_delta_in(&mut shard, mv, cur_bytes))
                    .collect();
                (deltas, shard.local_attr, shard.local_ji)
            });
            let mut deltas = Vec::with_capacity(moves.len());
            for (chunk, local_attr, local_ji) in scored {
                deltas.extend(chunk);
                self.attr_cache.extend(local_attr);
                self.ji_cache.extend(local_ji);
            }
            let mut best: Option<(Move, f64)> = None;
            for (&mv, &delta) in moves.iter().zip(&deltas) {
                obs::counter!("prm.search.moves.evaluated").inc();
                let Some((dll, dbytes)) = delta else {
                    obs::counter!("prm.search.moves.illegal").inc();
                    continue;
                };
                if (cur_bytes as i64 + dbytes) as usize > self.config.budget_bytes {
                    obs::counter!("prm.search.moves.over_budget").inc();
                    continue;
                }
                let score = match self.config.rule {
                    StepRule::Naive => {
                        if dll <= TOL {
                            obs::counter!("prm.search.moves.rejected").inc();
                            continue;
                        }
                        dll
                    }
                    StepRule::Ssn => {
                        if dll <= TOL {
                            obs::counter!("prm.search.moves.rejected").inc();
                            continue;
                        }
                        if dbytes > 0 {
                            dll / dbytes as f64
                        } else {
                            f64::INFINITY
                        }
                    }
                    StepRule::Mdl => {
                        // Penalize by the description length on the scale
                        // of the owning population.
                        let n = self.move_population(mv);
                        let dmdl = dll - mdl_penalty_per_param(n) * dbytes as f64 / 4.0;
                        if dmdl <= TOL {
                            obs::counter!("prm.search.moves.rejected").inc();
                            continue;
                        }
                        dmdl
                    }
                };
                if best.as_ref().is_none_or(|b| score > b.1) {
                    best = Some((mv, score));
                }
            }
            match best {
                None => {
                    self.regrow_trees();
                    return;
                }
                Some((mv, _)) => {
                    // One macro call per arm: the handle is memoized per
                    // call site, so the name must be a fixed literal.
                    match mv {
                        Move::AttrAdd { .. } => {
                            obs::counter!("prm.search.steps.attr_add").inc()
                        }
                        Move::AttrDel { .. } => {
                            obs::counter!("prm.search.steps.attr_del").inc()
                        }
                        Move::JiAdd { .. } => {
                            obs::counter!("prm.search.steps.ji_add").inc()
                        }
                        Move::JiDel { .. } => {
                            obs::counter!("prm.search.steps.ji_del").inc()
                        }
                    }
                    obs::counter!("prm.search.steps.accepted").inc();
                    let cur_bytes = self.total_bytes();
                    self.apply(mv, cur_bytes);
                }
            }
        }
    }

    /// Spends leftover budget by re-growing tree families whose growth was
    /// truncated by the byte allowance available when their parent set was
    /// last changed (the paper's "add a split" operator, applied until no
    /// split clears the threshold or the budget is exhausted).
    fn regrow_trees(&mut self) {
        if self.config.cpd_kind != CpdKind::Tree {
            return;
        }
        loop {
            let cur_bytes = self.total_bytes();
            if cur_bytes >= self.config.budget_bytes {
                return;
            }
            let mut best: Option<(usize, usize, AttrEval, f64)> = None;
            for t in 0..self.ctx.tables.len() {
                for a in 0..self.ctx.tables[t].attr_names.len() {
                    let old = (self.cur_attr[t][a].ll, self.cur_attr[t][a].bytes);
                    let cap = self.family_param_cap(cur_bytes, old.1);
                    let parents = sorted_refs(&self.attr_parents[t][a]);
                    let Some(new) = self.eval_attr(t, a, &parents, cap) else {
                        continue;
                    };
                    let dll = new.ll - old.0;
                    let dbytes = new.bytes as i64 - old.1 as i64;
                    if dll <= 1e-9
                        || (cur_bytes as i64 + dbytes) as usize > self.config.budget_bytes
                    {
                        continue;
                    }
                    let score =
                        if dbytes > 0 { dll / dbytes as f64 } else { f64::INFINITY };
                    if best.as_ref().is_none_or(|b| score > b.3) {
                        best = Some((t, a, new, score));
                    }
                }
            }
            match best {
                None => return,
                Some((t, a, new, _)) => self.cur_attr[t][a] = new,
            }
        }
    }

    fn total_ll(&self) -> f64 {
        let mut ll = 0.0;
        for t in 0..self.ctx.tables.len() {
            for fam in &self.cur_attr[t] {
                ll += fam.ll;
            }
            for fam in &self.cur_ji[t] {
                ll += fam.ll;
            }
        }
        ll
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            attr_parents: self.attr_parents.clone(),
            ji_parents: self.ji_parents.clone(),
            local_dags: self.local_dags.clone(),
            cur_attr: self.cur_attr.clone(),
            cur_ji: self.cur_ji.clone(),
            ll: self.total_ll(),
        }
    }

    fn restore(&mut self, snap: Snapshot) {
        self.attr_parents = snap.attr_parents;
        self.ji_parents = snap.ji_parents;
        self.local_dags = snap.local_dags;
        self.cur_attr = snap.cur_attr;
        self.cur_ji = snap.cur_ji;
    }

    /// Applies a few random legal structure changes, then prunes random
    /// parents until the model fits the budget again.
    fn perturb(&mut self, rng: &mut rand::rngs::StdRng) {
        use rand::seq::SliceRandom;
        use rand::Rng;
        for _ in 0..3 {
            let moves = self.candidate_moves();
            if moves.is_empty() {
                break;
            }
            let mv = moves[rng.gen_range(0..moves.len())];
            let cur_bytes = self.total_bytes();
            // Only apply moves that stay evaluable; skip otherwise.
            if self.move_delta(mv, cur_bytes).is_some() {
                self.apply(mv, cur_bytes);
            }
        }
        // Budget repair: randomly drop parents while oversized.
        while self.total_bytes() > self.config.budget_bytes {
            let mut deletions: Vec<Move> = Vec::new();
            for (t, table) in self.attr_parents.iter().enumerate() {
                for (a, parents) in table.iter().enumerate() {
                    for &p in parents {
                        deletions.push(Move::AttrDel { t, a, p });
                    }
                }
            }
            for (t, table) in self.ji_parents.iter().enumerate() {
                for (f, parents) in table.iter().enumerate() {
                    for &p in parents {
                        deletions.push(Move::JiDel { t, f, p });
                    }
                }
            }
            let Some(&mv) = deletions.choose(rng) else { break };
            let cur_bytes = self.total_bytes();
            self.apply(mv, cur_bytes);
        }
    }

    /// The population size a move's statistics are drawn from (rows for an
    /// attribute family, |T|·|S| pairs for a join indicator).
    fn move_population(&self, mv: Move) -> usize {
        match mv {
            Move::AttrAdd { t, .. } | Move::AttrDel { t, .. } => {
                self.ctx.tables[t].n_rows
            }
            Move::JiAdd { t, f, .. } | Move::JiDel { t, f, .. } => {
                let target = self.ctx.tables[t].fks[f].target;
                self.ctx.tables[t].n_rows * self.ctx.tables[target].n_rows
            }
        }
    }

    fn candidate_moves(&self) -> Vec<Move> {
        let mut moves = Vec::new();
        for (t, table) in self.ctx.tables.iter().enumerate() {
            for a in 0..table.attr_names.len() {
                let parents = &self.attr_parents[t][a];
                // Deletions.
                for &p in parents {
                    moves.push(Move::AttrDel { t, a, p });
                }
                if parents.len() < self.config.max_parents {
                    let shortlisted = |p: &ParentRef| match &self.candidates[t][a] {
                        None => true,
                        Some(list) => list.contains(p),
                    };
                    // Local additions.
                    for b in 0..table.attr_names.len() {
                        if b == a {
                            continue;
                        }
                        let pref = ParentRef::Local { attr: b };
                        if !parents.contains(&pref)
                            && shortlisted(&pref)
                            && !self.local_dags[t].creates_cycle(b, a)
                        {
                            moves.push(Move::AttrAdd { t, a, p: pref });
                        }
                    }
                    // Foreign additions.
                    if self.config.allow_foreign_parents {
                        for (f, fk) in table.fks.iter().enumerate() {
                            // Forbidden if `a` is a parent of J_F.
                            if self.ji_parents[t][f]
                                .contains(&JiParentRef::Child { attr: a })
                            {
                                continue;
                            }
                            for c in 0..self.ctx.tables[fk.target].attr_names.len() {
                                let pref = ParentRef::Foreign { fk: f, attr: c };
                                if !parents.contains(&pref) && shortlisted(&pref) {
                                    moves.push(Move::AttrAdd { t, a, p: pref });
                                }
                            }
                        }
                    }
                }
            }
            for f in 0..table.fks.len() {
                let parents = &self.ji_parents[t][f];
                for &p in parents {
                    moves.push(Move::JiDel { t, f, p });
                }
                if parents.len() < self.config.max_ji_parents {
                    for a in 0..table.attr_names.len() {
                        let pref = JiParentRef::Child { attr: a };
                        // Forbidden if attr `a` depends through this FK.
                        let depends = self.attr_parents[t][a].iter().any(
                            |p| matches!(p, ParentRef::Foreign { fk, .. } if *fk == f),
                        );
                        if !parents.contains(&pref) && !depends {
                            moves.push(Move::JiAdd { t, f, p: pref });
                        }
                    }
                    let target = table.fks[f].target;
                    for a in 0..self.ctx.tables[target].attr_names.len() {
                        let pref = JiParentRef::Parent { attr: a };
                        if !parents.contains(&pref) {
                            moves.push(Move::JiAdd { t, f, p: pref });
                        }
                    }
                }
            }
        }
        moves
    }

    /// The byte allowance a candidate family may grow to, given the bytes
    /// the rest of the model currently occupies.
    fn family_param_cap(&self, cur_bytes: usize, old_family_bytes: usize) -> usize {
        self.config.budget_bytes.saturating_sub(cur_bytes - old_family_bytes).max(1)
    }

    /// A fresh worker view over the learner's memo.
    fn shard(&self) -> EvalShard<'_> {
        EvalShard {
            ctx: self.ctx,
            config: &self.config,
            shared_attr: &self.attr_cache,
            shared_ji: &self.ji_cache,
            local_attr: HashMap::new(),
            local_ji: HashMap::new(),
        }
    }

    /// Scores one move through a worker shard (no learner mutation).
    fn move_delta_in(
        &self,
        shard: &mut EvalShard<'_>,
        mv: Move,
        cur_bytes: usize,
    ) -> Option<(f64, i64)> {
        match mv {
            Move::AttrAdd { t, a, p } | Move::AttrDel { t, a, p } => {
                let old_key = sorted_refs(&self.attr_parents[t][a]);
                let new_key = match mv {
                    Move::AttrAdd { .. } => with_ref(&old_key, p),
                    _ => without_ref(&old_key, p),
                };
                let (old_ll, old_bytes) =
                    (self.cur_attr[t][a].ll, self.cur_attr[t][a].bytes);
                let cap = self.family_param_cap(cur_bytes, old_bytes);
                let (new_ll, new_bytes) = shard.score_attr(t, a, &new_key, cap)?;
                Some((new_ll - old_ll, new_bytes as i64 - old_bytes as i64))
            }
            Move::JiAdd { t, f, p } | Move::JiDel { t, f, p } => {
                let old_key = sorted_refs(&self.ji_parents[t][f]);
                let new_key = match mv {
                    Move::JiAdd { .. } => with_ref(&old_key, p),
                    _ => without_ref(&old_key, p),
                };
                let (old_ll, old_bytes) = (self.cur_ji[t][f].ll, self.cur_ji[t][f].bytes);
                let (new_ll, new_bytes) = shard.score_ji(t, f, &new_key);
                Some((new_ll - old_ll, new_bytes as i64 - old_bytes as i64))
            }
        }
    }

    /// Serial [`Learner::move_delta_in`]: scores through a one-off shard
    /// and absorbs its locals into the memo.
    fn move_delta(&mut self, mv: Move, cur_bytes: usize) -> Option<(f64, i64)> {
        let mut shard = self.shard();
        let out = self.move_delta_in(&mut shard, mv, cur_bytes);
        let EvalShard { local_attr, local_ji, .. } = shard;
        self.attr_cache.extend(local_attr);
        self.ji_cache.extend(local_ji);
        out
    }

    fn apply(&mut self, mv: Move, cur_bytes: usize) {
        match mv {
            Move::AttrAdd { t, a, p } => {
                if let ParentRef::Local { attr } = p {
                    self.local_dags[t].add_edge(attr, a);
                }
                self.attr_parents[t][a].push(p);
                self.attr_parents[t][a].sort_unstable();
                let cap = self.family_param_cap(cur_bytes, self.cur_attr[t][a].bytes);
                let key = sorted_refs(&self.attr_parents[t][a]);
                self.cur_attr[t][a] =
                    self.eval_attr(t, a, &key, cap).expect("move was evaluated as legal");
            }
            Move::AttrDel { t, a, p } => {
                if let ParentRef::Local { attr } = p {
                    self.local_dags[t].remove_edge(attr, a);
                }
                self.attr_parents[t][a].retain(|&x| x != p);
                let cap = self.family_param_cap(cur_bytes, self.cur_attr[t][a].bytes);
                let key = sorted_refs(&self.attr_parents[t][a]);
                self.cur_attr[t][a] = self
                    .eval_attr(t, a, &key, cap)
                    .expect("shrinking a family is always legal");
            }
            Move::JiAdd { t, f, p } => {
                self.ji_parents[t][f].push(p);
                self.ji_parents[t][f].sort_unstable();
                let key = sorted_refs(&self.ji_parents[t][f]);
                self.cur_ji[t][f] = self.eval_ji(t, f, &key);
            }
            Move::JiDel { t, f, p } => {
                self.ji_parents[t][f].retain(|&x| x != p);
                let key = sorted_refs(&self.ji_parents[t][f]);
                self.cur_ji[t][f] = self.eval_ji(t, f, &key);
            }
        }
    }

    fn total_bytes(&self) -> usize {
        let mut bytes = 0usize;
        for t in 0..self.ctx.tables.len() {
            for fam in &self.cur_attr[t] {
                bytes += fam.bytes;
            }
            for fam in &self.cur_ji[t] {
                bytes += fam.bytes;
            }
        }
        bytes
    }

    // -----------------------------------------------------------------
    // Family evaluation.
    // -----------------------------------------------------------------

    fn eval_attr(
        &mut self,
        t: usize,
        a: usize,
        parents: &[ParentRef],
        param_cap: usize,
    ) -> Option<AttrEval> {
        let key = (t, a, parents.to_vec(), param_cap);
        if let Some(hit) = self.attr_cache.get(&key) {
            return hit.clone();
        }
        let result = compute_attr_eval(self.ctx, &self.config, t, a, parents, param_cap);
        self.attr_cache.insert(key, result.clone());
        result
    }

    fn eval_ji(&mut self, t: usize, f: usize, parents: &[JiParentRef]) -> JiEval {
        let key = (t, f, parents.to_vec());
        if let Some(hit) = self.ji_cache.get(&key) {
            return hit.clone();
        }
        let eval = compute_ji_eval(self.ctx, t, f, parents);
        self.ji_cache.insert(key, eval.clone());
        eval
    }
}

/// Evaluates an attribute family from scratch: sufficient statistics,
/// log-likelihood, CPD and byte size. A pure function of `(ctx, config)`
/// and the family key, so it is safe to call from pool workers.
fn compute_attr_eval(
    ctx: &Ctx,
    config: &PrmLearnConfig,
    t: usize,
    a: usize,
    parents: &[ParentRef],
    param_cap: usize,
) -> Option<AttrEval> {
    let table = &ctx.tables[t];
    let child_col = &table.cols[a];
    let child_card = table.cards[a];
    let parent_data: Vec<(&[u32], usize)> =
        parents.iter().map(|&p| parent_column(ctx, t, p)).collect();
    match config.cpd_kind {
        CpdKind::Table => {
            let cells: usize = parent_data
                .iter()
                .map(|&(_, c)| c)
                .product::<usize>()
                .saturating_mul(child_card);
            if cells > config.max_family_cells {
                None
            } else {
                let counts = family_counts(&parent_data, child_col, child_card);
                let ll = family_loglik(&counts);
                let cpd: Cpd = TableCpd::from_counts(&counts).into();
                let bytes = cpd.size_bytes();
                Some(AttrEval { ll, bytes, cpd })
            }
        }
        CpdKind::Tree => {
            let cols: Vec<&[u32]> = parent_data.iter().map(|&(c, _)| c).collect();
            let cards: Vec<usize> = parent_data.iter().map(|&(_, c)| c).collect();
            let opts = TreeGrowOptions {
                byte_budget: config.tree.byte_budget.min(param_cap),
                ..config.tree.clone()
            };
            let grown = grow_tree(child_col, child_card, &cols, &cards, &opts);
            let bytes = grown.cpd.size_bytes();
            Some(AttrEval { ll: grown.loglik, bytes, cpd: grown.cpd.into() })
        }
    }
}

/// Evaluates a join-indicator family from scratch (the paper's Eq. 4
/// statistics: one join group-by plus two marginal group-bys). A pure
/// function of `ctx` and the family key, safe to call from pool workers.
fn compute_ji_eval(ctx: &Ctx, t: usize, f: usize, parents: &[JiParentRef]) -> JiEval {
    let table = &ctx.tables[t];
    let fk = &table.fks[f];
    let target = &ctx.tables[fk.target];
    let n_t = table.n_rows as f64;
    let n_s = target.n_rows as f64;

    // Joined columns over the child rows, in parent order.
    let joined: Vec<&[u32]> = parents
        .iter()
        .map(|p| match *p {
            JiParentRef::Child { attr } => table.cols[attr].as_slice(),
            JiParentRef::Parent { attr } => fk.foreign_cols[attr].as_slice(),
        })
        .collect();
    let cards: Vec<usize> = parents
        .iter()
        .map(|p| match *p {
            JiParentRef::Child { attr } => table.cards[attr],
            JiParentRef::Parent { attr } => target.cards[attr],
        })
        .collect();
    // N_true(config): joined counts over T's rows.
    let size: usize = cards.iter().product::<usize>().max(1);
    let mut n_true = vec![0u64; size];
    for row in 0..table.n_rows {
        let mut idx = 0usize;
        for (col, &card) in joined.iter().zip(&cards) {
            idx = idx * card + col[row] as usize;
        }
        n_true[idx] += 1;
    }
    // Marginal counts of the child side over T, parent side over S.
    let child_dims: Vec<usize> = parents
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p, JiParentRef::Child { .. }))
        .map(|(i, _)| i)
        .collect();
    let parent_dims: Vec<usize> = parents
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p, JiParentRef::Parent { .. }))
        .map(|(i, _)| i)
        .collect();
    let child_counts = marginal_counts(
        &parents
            .iter()
            .filter_map(|p| match *p {
                JiParentRef::Child { attr } => {
                    Some((table.cols[attr].as_slice(), table.cards[attr]))
                }
                JiParentRef::Parent { .. } => None,
            })
            .collect::<Vec<_>>(),
        table.n_rows,
    );
    let parent_counts = marginal_counts(
        &parents
            .iter()
            .filter_map(|p| match *p {
                JiParentRef::Parent { attr } => {
                    Some((target.cols[attr].as_slice(), target.cards[attr]))
                }
                JiParentRef::Child { .. } => None,
            })
            .collect::<Vec<_>>(),
        target.n_rows,
    );
    // Walk all configurations.
    let mut p_true = vec![0.0f64; size];
    let mut ll = 0.0;
    let mut config = vec![0u32; cards.len()];
    for (idx, &nt) in n_true.iter().enumerate() {
        // Decode idx.
        let mut rem = idx;
        for k in (0..cards.len()).rev() {
            config[k] = (rem % cards[k]) as u32;
            rem /= cards[k];
        }
        let ci = linearize(&config, &child_dims, &cards);
        let pi = linearize(&config, &parent_dims, &cards);
        let pairs = child_counts[ci] as f64 * parent_counts[pi] as f64;
        if pairs <= 0.0 {
            continue;
        }
        let p = nt as f64 / pairs;
        p_true[idx] = p;
        if nt > 0 {
            ll += nt as f64 * p.ln();
        }
        if pairs > nt as f64 && p < 1.0 {
            ll += (pairs - nt as f64) * (1.0 - p).ln();
        }
    }
    let _ = (n_t, n_s);
    JiEval { ll, bytes: 4 * size + 2 * (1 + parents.len()), parent_cards: cards, p_true }
}

impl<'c> Learner<'c> {
    fn assemble(&mut self) -> Prm {
        let mut tables = Vec::new();
        for t in 0..self.ctx.tables.len() {
            let table = &self.ctx.tables[t];
            let mut attrs = Vec::new();
            for a in 0..table.attr_names.len() {
                let parents = sorted_refs(&self.attr_parents[t][a]);
                let eval = self.cur_attr[t][a].clone();
                attrs.push(AttrModel {
                    name: table.attr_names[a].clone(),
                    card: table.cards[a],
                    parents,
                    cpd: eval.cpd,
                });
            }
            let mut join_indicators = Vec::new();
            for f in 0..table.fks.len() {
                let parents = sorted_refs(&self.ji_parents[t][f]);
                let eval = self.cur_ji[t][f].clone();
                join_indicators.push(JoinIndicatorModel {
                    fk_attr: table.fks[f].attr.clone(),
                    target: self.ctx.tables[table.fks[f].target].name.clone(),
                    parents,
                    parent_cards: eval.parent_cards,
                    p_true: eval.p_true,
                });
            }
            tables.push(TableModel {
                table: table.name.clone(),
                n_rows: table.n_rows as u64,
                attrs,
                join_indicators,
            });
        }
        Prm { tables }
    }
}

/// Single-pass candidate-parent shortlist: for every attribute, the `k`
/// candidates (local and foreign, one hop) with the highest empirical
/// pairwise mutual information. One scan per (attr, candidate) pair over
/// already-materialized columns — no joins beyond the context's pointer
/// chases.
fn compute_candidates(
    ctx: &Ctx,
    config: &PrmLearnConfig,
) -> Vec<Vec<Option<Vec<ParentRef>>>> {
    let Some(k) = config.candidate_parents_per_attr else {
        return ctx.tables.iter().map(|t| vec![None; t.attr_names.len()]).collect();
    };
    use bayesnet::learn::score::mi_times_n;
    let mut out = Vec::with_capacity(ctx.tables.len());
    for (t, table) in ctx.tables.iter().enumerate() {
        let mut per_attr = Vec::with_capacity(table.attr_names.len());
        for a in 0..table.attr_names.len() {
            // Enumerate every possible single parent with its MI.
            let mut scored: Vec<(f64, ParentRef)> = Vec::new();
            for b in 0..table.attr_names.len() {
                if b != a {
                    let pref = ParentRef::Local { attr: b };
                    scored.push((pair_mi(ctx, t, a, pref), pref));
                }
            }
            if config.allow_foreign_parents {
                for (f, fk) in table.fks.iter().enumerate() {
                    for c in 0..ctx.tables[fk.target].attr_names.len() {
                        let pref = ParentRef::Foreign { fk: f, attr: c };
                        scored.push((pair_mi(ctx, t, a, pref), pref));
                    }
                }
            }
            scored.sort_by(|x, y| y.0.partial_cmp(&x.0).expect("finite MI"));
            scored.truncate(k);
            per_attr.push(Some(scored.into_iter().map(|(_, p)| p).collect()));
        }
        out.push(per_attr);
    }
    // Tiny helper: empirical MI between attr `a` of table `t` and a
    // candidate parent column.
    fn pair_mi(ctx: &Ctx, t: usize, a: usize, p: ParentRef) -> f64 {
        let table = &ctx.tables[t];
        let (col, card) = parent_column(ctx, t, p);
        let child_col = &table.cols[a];
        let child_card = table.cards[a];
        let mut counts = vec![0u64; card * child_card];
        for (row, &c) in child_col.iter().enumerate() {
            counts[col[row] as usize * child_card + c as usize] += 1;
        }
        mi_times_n(&reldb::CountTable { cards: vec![card, child_card], counts })
    }
    out
}

/// Resolves a parent reference to its (column, cardinality) pair.
fn parent_column(ctx: &Ctx, t: usize, p: ParentRef) -> (&[u32], usize) {
    let table = &ctx.tables[t];
    match p {
        ParentRef::Local { attr } => (&table.cols[attr], table.cards[attr]),
        ParentRef::Foreign { fk, attr } => (
            &table.fks[fk].foreign_cols[attr],
            ctx.tables[table.fks[fk].target].cards[attr],
        ),
    }
}

/// Dense counts over `(parents…, child)`, child fastest.
fn family_counts(
    parent_data: &[(&[u32], usize)],
    child_col: &[u32],
    child_card: usize,
) -> CountTable {
    let mut cards: Vec<usize> = parent_data.iter().map(|&(_, c)| c).collect();
    cards.push(child_card);
    let size: usize = cards.iter().product::<usize>().max(1);
    let mut counts = vec![0u64; size];
    for (row, &child) in child_col.iter().enumerate() {
        let mut idx = 0usize;
        for ((col, _), &card) in parent_data.iter().zip(&cards) {
            idx = idx * card + col[row] as usize;
        }
        idx = idx * child_card + child as usize;
        counts[idx] += 1;
    }
    CountTable { cards, counts }
}

/// Dense marginal counts over a list of columns (all of length `n_rows`).
/// With no columns, returns the single count `n_rows`.
fn marginal_counts(data: &[(&[u32], usize)], n_rows: usize) -> Vec<u64> {
    let size: usize = data.iter().map(|&(_, c)| c).product::<usize>().max(1);
    let mut counts = vec![0u64; size];
    if data.is_empty() {
        counts[0] = n_rows as u64;
        return counts;
    }
    for row in 0..n_rows {
        let mut idx = 0usize;
        for (col, card) in data {
            idx = idx * card + col[row] as usize;
        }
        counts[idx] += 1;
    }
    counts
}

/// Linearizes the sub-configuration at dims `dims` of `config`.
fn linearize(config: &[u32], dims: &[usize], cards: &[usize]) -> usize {
    let mut idx = 0usize;
    for &d in dims {
        idx = idx * cards[d] + config[d] as usize;
    }
    idx
}

fn sorted_refs<T: Copy + Ord>(refs: &[T]) -> Vec<T> {
    let mut v = refs.to_vec();
    v.sort_unstable();
    v
}

fn with_ref<T: Copy + Ord>(refs: &[T], add: T) -> Vec<T> {
    let mut v = refs.to_vec();
    v.push(add);
    v.sort_unstable();
    v
}

fn without_ref<T: Copy + Ord + PartialEq>(refs: &[T], remove: T) -> Vec<T> {
    refs.iter().copied().filter(|&x| x != remove).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldb::{Cell, DatabaseBuilder, TableBuilder, Value};

    /// parent(p_attr) ← child(c_attr) where c_attr copies p_attr through
    /// the FK and the join probability depends on p_attr.
    fn correlated_db() -> Database {
        let mut p = TableBuilder::new("parent").key("id").col("x");
        for i in 0..40i64 {
            p.push_row(vec![Cell::Key(i), Cell::Val(Value::Int(i % 2))]).unwrap();
        }
        let mut c = TableBuilder::new("child").key("id").fk("parent", "parent").col("y");
        // Children join x=1 parents 3× as often; y copies parent's x.
        let mut pid = 0i64;
        for i in 0..400i64 {
            // 3 of 4 children attach to odd parents (x=1).
            let odd = i % 4 != 0;
            pid = (pid + 7) % 20;
            let target = if odd { 2 * pid + 1 } else { 2 * pid };
            let x = target % 2;
            c.push_row(vec![Cell::Key(i), Cell::Key(target), Cell::Val(Value::Int(x))])
                .unwrap();
        }
        DatabaseBuilder::new()
            .add_table(p.finish().unwrap())
            .add_table(c.finish().unwrap())
            .finish()
            .unwrap()
    }

    #[test]
    fn learns_foreign_parent_for_copied_attribute() {
        let db = correlated_db();
        let prm = learn_prm(&db, &PrmLearnConfig::default()).unwrap();
        let child = prm.table_model("child").unwrap();
        let y = &child.attrs[0];
        assert!(
            y.parents.contains(&ParentRef::Foreign { fk: 0, attr: 0 }),
            "child.y should depend on parent.x, got {:?}",
            y.parents
        );
    }

    #[test]
    fn learns_join_indicator_skew() {
        let db = correlated_db();
        let prm = learn_prm(&db, &PrmLearnConfig::default()).unwrap();
        let child = prm.table_model("child").unwrap();
        let ji = &child.join_indicators[0];
        // The join indicator should have learned a dependence (on parent.x
        // — although child.y is statistically equivalent here, the
        // constraint may route it either way).
        assert!(!ji.parents.is_empty(), "join indicator learned no parents");
    }

    #[test]
    fn bn_uj_has_no_cross_table_structure() {
        let db = correlated_db();
        let prm = learn_prm(&db, &PrmLearnConfig::bn_uj(4096)).unwrap();
        assert_eq!(prm.foreign_parent_count(), 0);
        assert_eq!(prm.ji_parent_count(), 0);
        let ji = &prm.table_model("child").unwrap().join_indicators[0];
        // Uniform join probability = 1/|parent|.
        assert!((ji.p_true[0] - 1.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_ji_probability_is_one_over_parent_size() {
        let db = correlated_db();
        let prm = learn_prm(&db, &PrmLearnConfig::bn_uj(4096)).unwrap();
        let ji = &prm.table_model("child").unwrap().join_indicators[0];
        assert_eq!(ji.parents.len(), 0);
        assert_eq!(ji.p_true.len(), 1);
        assert!((ji.p_true[0] - 0.025).abs() < 1e-12);
    }

    #[test]
    fn budget_is_respected() {
        let db = correlated_db();
        for budget in [64usize, 256, 1024] {
            let prm = learn_prm(
                &db,
                &PrmLearnConfig { budget_bytes: budget, ..Default::default() },
            )
            .unwrap();
            assert!(
                prm.size_bytes() <= budget.max(64),
                "budget={budget} size={}",
                prm.size_bytes()
            );
        }
    }

    #[test]
    fn ji_and_foreign_parent_constraint_is_mutually_exclusive() {
        let db = correlated_db();
        let prm = learn_prm(&db, &PrmLearnConfig::default()).unwrap();
        let child = prm.table_model("child").unwrap();
        for (f, ji) in child.join_indicators.iter().enumerate() {
            for p in &ji.parents {
                if let JiParentRef::Child { attr } = p {
                    let depends = child.attrs[*attr]
                        .parents
                        .iter()
                        .any(|q| matches!(q, ParentRef::Foreign { fk, .. } if *fk == f));
                    assert!(!depends, "cyclic JI/attr dependency");
                }
            }
        }
    }

    #[test]
    fn candidate_prefilter_keeps_the_strong_parent() {
        let db = correlated_db();
        let prm = learn_prm(
            &db,
            &PrmLearnConfig { candidate_parents_per_attr: Some(1), ..Default::default() },
        )
        .unwrap();
        // child.y's single strongest candidate is parent.x (through the
        // FK); the shortlist must retain it.
        let y = &prm.table_model("child").unwrap().attrs[0];
        assert!(
            y.parents.contains(&ParentRef::Foreign { fk: 0, attr: 0 }),
            "prefilter dropped the informative parent: {:?}",
            y.parents
        );
    }

    #[test]
    fn prefilter_only_shrinks_the_model() {
        let db = correlated_db();
        let full = learn_prm(&db, &PrmLearnConfig::default()).unwrap();
        let filtered = learn_prm(
            &db,
            &PrmLearnConfig { candidate_parents_per_attr: Some(1), ..Default::default() },
        )
        .unwrap();
        let count = |p: &crate::prm::Prm| -> usize {
            p.tables.iter().flat_map(|t| &t.attrs).map(|a| a.parents.len()).sum()
        };
        assert!(count(&filtered) <= count(&full));
    }

    #[test]
    fn restarts_never_hurt_and_respect_budget() {
        let db = correlated_db();
        let base = learn_prm(&db, &PrmLearnConfig { restarts: 0, ..Default::default() })
            .unwrap();
        let restarted = learn_prm(
            &db,
            &PrmLearnConfig { restarts: 3, seed: 42, ..Default::default() },
        )
        .unwrap();
        assert!(restarted.size_bytes() <= 8192);
        // With restarts the model keeps (at least) the strong structure.
        let _ = base;
        let child = restarted.table_model("child").unwrap();
        assert!(
            !child.attrs[0].parents.is_empty()
                || !child.join_indicators[0].parents.is_empty(),
            "restarted model lost all structure"
        );
    }

    /// One table: `b` is a copy of `a` with every tenth row flipped, and
    /// `c` is independent of both.
    fn noisy_copy_db() -> Database {
        let mut t = TableBuilder::new("t").key("id").col("a").col("b").col("c");
        for i in 0..2000i64 {
            let a = i % 2;
            let b = if i % 10 == 0 { 1 - a } else { a };
            let c = (i / 7) % 3;
            t.push_row(vec![
                Cell::Key(i),
                Cell::Val(Value::Int(a)),
                Cell::Val(Value::Int(b)),
                Cell::Val(Value::Int(c)),
            ])
            .unwrap();
        }
        DatabaseBuilder::new().add_table(t.finish().unwrap()).finish().unwrap()
    }

    fn learn_noisy_copy(rule: StepRule) -> crate::prm::Prm {
        let config =
            PrmLearnConfig { cpd_kind: CpdKind::Table, rule, ..Default::default() };
        learn_prm(&noisy_copy_db(), &config).unwrap()
    }

    #[test]
    fn mdl_prunes_the_spurious_edges() {
        let mdl = learn_noisy_copy(StepRule::Mdl);
        let attrs = &mdl.table_model("t").unwrap().attrs;
        let local = |attr| ParentRef::Local { attr };
        assert!(
            attrs[0].parents.contains(&local(1)) || attrs[1].parents.contains(&local(0)),
            "MDL dropped the a–b edge: {attrs:?}"
        );
        assert!(
            attrs[2].parents.is_empty(),
            "MDL gave c parents: {:?}",
            attrs[2].parents
        );
        assert!(
            attrs[..2].iter().all(|a| !a.parents.contains(&local(2))),
            "MDL made c a parent: {attrs:?}"
        );
    }

    #[test]
    fn mdl_prunes_more_than_naive() {
        let mdl = learn_noisy_copy(StepRule::Mdl);
        let naive = learn_noisy_copy(StepRule::Naive);
        assert!(
            mdl.size_bytes() <= naive.size_bytes(),
            "MDL {} B > naive {} B",
            mdl.size_bytes(),
            naive.size_bytes()
        );
    }

    #[test]
    fn self_referencing_fk_rejected_for_foreign_parents() {
        let mut t = TableBuilder::new("node").key("id").fk("next", "node").col("x");
        t.push_row(vec![Cell::Key(0), Cell::Key(0), Cell::Val(Value::Int(0))]).unwrap();
        let db = DatabaseBuilder::new().add_table(t.finish().unwrap()).finish().unwrap();
        let err = learn_prm(&db, &PrmLearnConfig::default());
        assert!(err.is_err());
        // But BN+UJ (no foreign parents) still works.
        assert!(learn_prm(&db, &PrmLearnConfig::bn_uj(1024)).is_ok());
    }
}
