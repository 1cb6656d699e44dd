//! Compile-once, estimate-many: the online query-plan layer.
//!
//! The paper's operating model is one offline-learned PRM answering a
//! heavy stream of online queries (§2.3, §3.3–3.5). A planner issues the
//! same query *templates* over and over with different constants, so the
//! per-query work should be predicate decoding, factor masking, and an
//! elimination replay — not re-unrolling the QEBN, re-materializing CPDs,
//! and re-deriving an elimination order. This module splits the online
//! path accordingly:
//!
//! * [`FactorCache`] — each table/tree CPD of the model is materialized
//!   into its canonical dense factor **once**, lazily, behind an
//!   `Arc`-shared [`std::sync::OnceLock`] slot, so concurrent
//!   `estimate_batch` workers share the result;
//! * [`QueryPlan`] — for one query template, the evidence-independent
//!   factors (with the fixed `J = true` join evidence already folded in)
//!   plus a fully **precompiled replay program**: the elimination order is
//!   simulated symbolically at compile time, so every product /
//!   fused-product-sum / sum-out step is stored with its strides,
//!   cardinalities, and arena buffer offsets already resolved;
//! * **constant folding** — replay ops whose operands never touch a
//!   predicate mask compute the same bytes for every query of the
//!   template, so compilation executes them once and stores their outputs
//!   as plan constants; the per-query replay runs only the
//!   evidence-dependent suffix of the elimination (for a typical
//!   single-predicate query over a deep ancestor closure that is one or
//!   two kernel calls out of a dozen); [`FoldCache`] interns the folded
//!   buffers by content, so templates with the same folded prefix share
//!   one copy;
//! * a per-plan **signature memo** — decoded predicate masks key a
//!   4096-entry LRU of final `P(E)` scalars, so repeating the same constants
//!   skips both the reduce pass and the replay entirely
//!   (`prm.plan.reduce.hit`/`.miss`); budget checks and the
//!   `infer.eliminate` failpoint still run on hits, so error behavior is
//!   signature-independent;
//! * [`PlanCache`] — an LRU of at most [`PLAN_CACHE_CAPACITY`] (64)
//!   compiled plans in each [`crate::ModelEpoch`], keyed by the
//!   allocation-free stable template hash with field-wise verification
//!   against the live query.
//!
//! ## The zero-allocation warm path
//!
//! A warm estimate (plan resident, constants seen before) touches the heap
//! zero times: predicate masks decode into a per-thread bool arena, the
//! memo lookup hashes those masks in place and reads the stored scalar,
//! and on a memo miss the replay program executes against a per-thread
//! `f64` arena whose buffer offsets were assigned at compile time
//! (monotonically increasing, so one `split_at_mut` per step yields
//! disjoint input/output slices). `crates/core/tests/zero_alloc.rs` pins
//! this with a counting allocator.
//!
//! ## Determinism
//!
//! Plan-cached estimates are **bit-identical** to the uncached
//! [`QueryEvalBn::build`] + `estimated_size` path (see DESIGN.md §6c/§6g):
//! factor entries are copied CPD parameters (no arithmetic, so the
//! construction route cannot change them); evidence reduction zeroes
//! entries without touching scopes, so pre-reducing the fixed join
//! evidence at compile time commutes bitwise with the per-query predicate
//! reduction; the recorded elimination order is the same deterministic
//! function of the (reduction-invariant) scopes the oracle derives;
//! and the replay program runs the run-aware `bayesnet::factor` kernels,
//! which perform each cell's multiplications and ascending-order additions
//! exactly as the `Factor` methods do (skipping only `+0.0` terms).
//! Constant folding only moves *when* an op runs (compile instead of every
//! estimate) — the op sequence, operand bytes, and kernel are unchanged,
//! so folded outputs are the bytes the replay would have produced. A memoized
//! scalar is the bit-exact product of a previous run of that same
//! program over the same masks. The proptest suite in
//! `crates/core/tests/plan_proptests.rs` asserts the equality with
//! `f64::to_bits`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use bayesnet::factor::{
    product_masked_into, product_sum_out_masked_into, strides_in, sum_out_masked_into,
    DENSE,
};
use bayesnet::{elimination_order, Factor};
use reldb::{Join, Pred, Query};

use crate::error::{BudgetKind, Error, Result};
use crate::prm::Prm;
use crate::qebn::{NodeSource, QueryEvalBn};
use crate::schema::SchemaInfo;

/// Lazily materialized canonical CPD factors, one slot per CPD of the
/// model (value attributes and join indicators). Tree CPDs pay their
/// per-parent-configuration tree walk once per model instead of once per
/// query; table CPDs pay one copy.
#[derive(Debug)]
pub struct FactorCache {
    /// `[table][attr]` slots.
    attrs: Vec<Vec<OnceLock<Arc<Factor>>>>,
    /// `[table][fk]` slots.
    jis: Vec<Vec<OnceLock<Arc<Factor>>>>,
}

impl FactorCache {
    /// Empty cache shaped like `prm` (nothing is materialized yet).
    pub fn new(prm: &Prm) -> Self {
        FactorCache {
            attrs: prm
                .tables
                .iter()
                .map(|t| t.attrs.iter().map(|_| OnceLock::new()).collect())
                .collect(),
            jis: prm
                .tables
                .iter()
                .map(|t| t.join_indicators.iter().map(|_| OnceLock::new()).collect())
                .collect(),
        }
    }

    /// The canonical slot-local factor (see [`bayesnet::Cpd`]'s
    /// `to_local_factor`) for `source`, materialized on first use and
    /// shared afterwards. `prm` must be the model this cache was shaped
    /// from.
    pub fn local(&self, prm: &Prm, source: NodeSource) -> Arc<Factor> {
        let slot = match source {
            NodeSource::Attr { table, attr } => &self.attrs[table][attr],
            NodeSource::Ji { table, fk } => &self.jis[table][fk],
        };
        slot.get_or_init(|| {
            obs::counter!("prm.factor.materialize").inc();
            Arc::new(match source {
                NodeSource::Attr { table, attr } => {
                    prm.tables[table].attrs[attr].cpd.to_local_factor()
                }
                NodeSource::Ji { table, fk } => {
                    prm.tables[table].join_indicators[fk].to_cpd().to_local_factor()
                }
            })
        })
        .clone()
    }
}

/// The *template* of a query: its tuple variables, join skeleton, and
/// predicate slots, with the predicate constants abstracted away. Two
/// queries with the same key unroll to the same QEBN structure and share
/// one compiled plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub(crate) vars: Vec<String>,
    /// `(child var, fk attr, parent var)` per keyjoin.
    pub(crate) joins: Vec<(usize, String, usize)>,
    /// `(var, attr)` per predicate, in predicate order.
    pub(crate) preds: Vec<(usize, String)>,
}

impl PlanKey {
    /// The template key of `query`.
    pub fn of(query: &Query) -> PlanKey {
        PlanKey {
            vars: query.vars.clone(),
            joins: query
                .joins
                .iter()
                .map(|j| (j.child, j.fk_attr.clone(), j.parent))
                .collect(),
            preds: query.preds.iter().map(|p| (p.var(), p.attr().to_owned())).collect(),
        }
    }

    /// A stable 64-bit template hash (FNV-1a over the key's fields).
    ///
    /// Unlike `std::hash::Hash`, this value is identical across processes
    /// and runs, so it can label exported metric series (the
    /// `template="<16 hex digits>"` label on per-template quality
    /// histograms) and remain joinable across scrapes and restarts.
    pub fn stable_hash(&self) -> u64 {
        template_hash(
            self.vars.iter().map(String::as_str),
            self.joins.iter().map(|(c, fk, p)| (*c, fk.as_str(), *p)),
            self.preds.iter().map(|(v, a)| (*v, a.as_str())),
        )
    }

    /// [`PlanKey::stable_hash`] computed straight from `query` without
    /// building the key — the allocation-free form the warm lookup and
    /// telemetry paths use. Equal to `PlanKey::of(query).stable_hash()`:
    /// both feed the same fields to one hash body.
    pub fn stable_hash_of(query: &Query) -> u64 {
        template_hash(
            query.vars.iter().map(String::as_str),
            query.joins.iter().map(|j| (j.child, j.fk_attr.as_str(), j.parent)),
            query.preds.iter().map(|p| (p.var(), p.attr())),
        )
    }

    /// A synthetic query carrying this template's structure with no
    /// constants: every predicate becomes an empty `In` (an all-false
    /// mask). Compilation only reads each predicate's `(var, attr)` slot,
    /// so `PlanKey::of(key.to_template_query()) == key` and the resulting
    /// plan is the one every live query of the template shares — this is
    /// what lets [`PlanCache::precompile`] build plans from a persisted
    /// manifest without any query text.
    pub fn to_template_query(&self) -> Query {
        Query {
            vars: self.vars.clone(),
            joins: self
                .joins
                .iter()
                .map(|(child, fk, parent)| Join {
                    child: *child,
                    fk_attr: fk.clone(),
                    parent: *parent,
                })
                .collect(),
            preds: self
                .preds
                .iter()
                .map(|(var, attr)| Pred::In {
                    var: *var,
                    attr: attr.clone(),
                    values: Vec::new(),
                })
                .collect(),
        }
    }

    /// Field-wise template equality against a live query — the
    /// allocation-free counterpart of `self == PlanKey::of(query)`, used
    /// to verify a stable-hash bucket match on the warm path.
    pub fn matches(&self, query: &Query) -> bool {
        self.vars.len() == query.vars.len()
            && self.vars.iter().zip(&query.vars).all(|(a, b)| a == b)
            && self.joins.len() == query.joins.len()
            && self.joins.iter().zip(&query.joins).all(|((c, fk, p), j)| {
                *c == j.child && fk == &j.fk_attr && *p == j.parent
            })
            && self.preds.len() == query.preds.len()
            && self
                .preds
                .iter()
                .zip(&query.preds)
                .all(|((v, a), p)| *v == p.var() && a == p.attr())
    }
}

/// The one body behind [`PlanKey::stable_hash`] and
/// [`PlanKey::stable_hash_of`]: FNV-1a over the template's vars, joins
/// `(child, fk, parent)` and predicate slots `(var, attr)`, each list
/// length-prefixed.
fn template_hash<'a>(
    vars: impl ExactSizeIterator<Item = &'a str>,
    joins: impl ExactSizeIterator<Item = (usize, &'a str, usize)>,
    preds: impl ExactSizeIterator<Item = (usize, &'a str)>,
) -> u64 {
    let mut h = Fnv::new();
    h.write_usize(vars.len());
    for v in vars {
        h.write_str(v);
    }
    h.write_usize(joins.len());
    for (child, fk, parent) in joins {
        h.write_usize(child);
        h.write_str(fk);
        h.write_usize(parent);
    }
    h.write_usize(preds.len());
    for (var, attr) in preds {
        h.write_usize(var);
        h.write_str(attr);
    }
    h.finish()
}

/// FNV-1a, 64-bit: tiny, allocation-free, and stable across platforms —
/// exactly what an exported label needs (`std::hash` is explicitly not
/// stable across releases or processes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }

    /// Length-prefixed so adjacent strings cannot collide by shifting
    /// bytes across the boundary.
    fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------
// Intrusive slab LRU — the allocation-free recency structure behind both
// the plan cache and the per-plan reduced-factor memo.
// ---------------------------------------------------------------------

/// "No slot" sentinel for the intrusive list links.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct LruSlot<T> {
    hash: u64,
    value: T,
    prev: usize,
    next: usize,
}

/// Bounded LRU over a slab of slots with an intrusive doubly-linked
/// recency list and stable-hash buckets. Lookups and promotions perform
/// no heap allocation (bucket vectors only grow on insert), which is what
/// keeps the warm estimate path allocation-free.
#[derive(Debug)]
struct LruSlab<T> {
    capacity: usize,
    slots: Vec<Option<LruSlot<T>>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
    /// `stable hash → slot indices` (collisions resolved by `matches`).
    buckets: HashMap<u64, Vec<usize>>,
}

impl<T> LruSlab<T> {
    fn new(capacity: usize) -> Self {
        LruSlab {
            capacity,
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            buckets: HashMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn find(&self, hash: u64, matches: impl Fn(&T) -> bool) -> Option<usize> {
        self.buckets.get(&hash)?.iter().copied().find(|&i| {
            matches(&self.slots[i].as_ref().expect("bucket points at live slot").value)
        })
    }

    /// Finds a matching entry, promotes it to most-recently-used, and
    /// returns it. Allocation-free.
    fn get(&mut self, hash: u64, matches: impl Fn(&T) -> bool) -> Option<&T> {
        let idx = self.find(hash, matches)?;
        self.promote(idx);
        Some(&self.slots[idx].as_ref().expect("live slot").value)
    }

    /// Peeks without touching recency.
    fn peek(&self, hash: u64, matches: impl Fn(&T) -> bool) -> Option<&T> {
        let idx = self.find(hash, matches)?;
        Some(&self.slots[idx].as_ref().expect("live slot").value)
    }

    /// Inserts a new entry (the caller has established no match exists),
    /// evicting least-recently-used entries to stay within capacity.
    fn insert(&mut self, hash: u64, value: T, on_evict: &mut impl FnMut(&T)) {
        if self.capacity == 0 {
            return;
        }
        while self.len() >= self.capacity {
            self.evict_tail(on_evict);
        }
        let slot = LruSlot { hash, value, prev: NIL, next: NIL };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.push_front(idx);
        self.buckets.entry(hash).or_default().push(idx);
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.buckets.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Live values in recency order, most recently used first.
    fn values_mru(&self) -> Vec<&T> {
        let mut out = Vec::with_capacity(self.len());
        let mut i = self.head;
        while i != NIL {
            let s = self.slots[i].as_ref().expect("list points at live slot");
            out.push(&s.value);
            i = s.next;
        }
        out
    }

    fn evict_tail(&mut self, on_evict: &mut impl FnMut(&T)) {
        let t = self.tail;
        if t == NIL {
            return;
        }
        self.unlink(t);
        let slot = self.slots[t].take().expect("tail is live");
        if let Some(bucket) = self.buckets.get_mut(&slot.hash) {
            if let Some(p) = bucket.iter().position(|&i| i == t) {
                bucket.swap_remove(p);
            }
            if bucket.is_empty() {
                self.buckets.remove(&slot.hash);
            }
        }
        self.free.push(t);
        on_evict(&slot.value);
    }

    fn promote(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let s = self.slots[idx].as_ref().expect("live slot");
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().expect("live slot").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].as_mut().expect("live slot").prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            let s = self.slots[idx].as_mut().expect("live slot");
            s.prev = NIL;
            s.next = self.head;
        }
        if self.head != NIL {
            self.slots[self.head].as_mut().expect("live slot").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

// ---------------------------------------------------------------------
// Per-thread scratch arenas.
// ---------------------------------------------------------------------

/// Grow-only per-thread workspace for plan replay: predicate masks
/// (`bools`), reduced-factor and intermediate-factor data (`f64s`), and
/// odometer scratch for the kernels (`scratch`). Buffers only ever grow,
/// so once a thread has replayed a template its warm estimates perform no
/// heap allocation at all.
#[derive(Debug)]
struct Arena {
    f64s: Vec<f64>,
    bools: Vec<bool>,
    scratch: Vec<usize>,
    /// Allowed-code lists for the masked kernels, one `[len, code…]`
    /// region per mask slot at its compile-assigned `codes_off` —
    /// re-encoded from the decoded bool masks on every memo miss.
    codes: Vec<usize>,
}

impl Arena {
    fn ensure(&mut self, bools: usize, f64s: usize, scratch: usize, codes: usize) {
        if self.bools.len() < bools {
            self.bools.resize(bools, false);
        }
        if self.f64s.len() < f64s {
            self.f64s.resize(f64s, 0.0);
        }
        if self.scratch.len() < scratch {
            self.scratch.resize(scratch, 0);
        }
        if self.codes.len() < codes {
            self.codes.resize(codes, 0);
        }
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = const {
        RefCell::new(Arena {
            f64s: Vec::new(),
            bools: Vec::new(),
            scratch: Vec::new(),
            codes: Vec::new(),
        })
    };
}

// ---------------------------------------------------------------------
// The reduced-factor memo.
// ---------------------------------------------------------------------

/// One memoized constant signature: the decoded predicate masks (the key,
/// verified byte-for-byte on hash match) and the final `P(E)` the replay
/// program produced for them. `P(E)` is a pure function of (template,
/// masks), so storing the scalar lets a hit skip the reduce pass *and*
/// the elimination replay; the stored value is bit-exact because it *is*
/// a previous output of the identical program.
#[derive(Debug)]
struct MemoEntry {
    masks: Vec<bool>,
    p: f64,
}

/// Per-plan bounded LRU of [`MemoEntry`] keyed by the FNV hash of the
/// decoded masks. Entries are `Arc`-shared so a hit reads the scalar and
/// releases the lock without copying or allocating.
#[derive(Debug)]
struct ReducedMemo {
    inner: Mutex<LruSlab<Arc<MemoEntry>>>,
}

impl ReducedMemo {
    fn new(capacity: usize) -> Self {
        ReducedMemo { inner: Mutex::new(LruSlab::new(capacity)) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruSlab<Arc<MemoEntry>>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Signature-memo capacity (entries per plan). An entry is one mask
/// vector plus one scalar — roughly a hundred bytes — so the capacity is
/// sized generously enough to hold every constant ever issued against most templates
/// (a template with eq predicates on two attributes of cardinality ~30
/// has ~900 reachable signatures; LRU degrades to 0% hits on cyclic
/// workloads that exceed the capacity, so headroom matters more than
/// the few hundred KB a full memo costs).
pub const DEFAULT_REDUCE_MEMO_CAPACITY: usize = 4096;

/// Sentinel for "no programmatic override".
const MEMO_UNSET: usize = usize::MAX;

static REDUCE_MEMO_OVERRIDE: AtomicUsize = AtomicUsize::new(MEMO_UNSET);

/// Test hook: overrides the per-plan reduced-factor memo capacity
/// process-wide for plans compiled *after* the call; `None` restores
/// [`DEFAULT_REDUCE_MEMO_CAPACITY`]. Capacity `0` disables memoization
/// (every estimate replays). No production caller sets it; it exists for
/// the zero-allocation memo-miss gate and the memo-bound tests.
pub fn set_reduce_memo_capacity(capacity: Option<usize>) {
    REDUCE_MEMO_OVERRIDE
        .store(capacity.map_or(MEMO_UNSET, |c| c.min(MEMO_UNSET - 1)), Ordering::Relaxed);
}

fn reduce_memo_capacity() -> usize {
    match REDUCE_MEMO_OVERRIDE.load(Ordering::Relaxed) {
        MEMO_UNSET => DEFAULT_REDUCE_MEMO_CAPACITY,
        v => v,
    }
}

// ---------------------------------------------------------------------
// The compiled plan: replay program + slots.
// ---------------------------------------------------------------------

/// One predicate slot of a compiled plan, aligned with the template's
/// predicate list.
#[derive(Debug, Clone, Copy)]
struct PredSlot {
    /// QEBN node the predicate masks.
    node: usize,
    /// Cardinality of that node.
    card: usize,
    /// PRM table index whose domain decodes the predicate constants.
    table: usize,
    /// Domain index of the predicated attribute within that table.
    attr: usize,
    /// Which mask slot this predicate lands in.
    mask: usize,
    /// First predicate on its node: decodes straight into the slot.
    /// Later predicates decode into the tmp region and intersect.
    first: bool,
}

/// One per-node predicate mask region in the bool arena, plus the
/// matching allowed-code region in the codes arena (`[len, code…]`,
/// capacity `card + 1`) the masked kernels walk.
#[derive(Debug, Clone, Copy)]
struct MaskSlot {
    node: usize,
    card: usize,
    off: usize,
    codes_off: usize,
}

/// Where a replay operand's data lives at estimate time.
///
/// Predicate-touched base factors are read **in place**: the masked
/// kernels only ever visit allowed indices, where the reduced data equals
/// the base data (reduction merely zeroes disallowed runs), so no reduced
/// copy is ever materialized.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// `factors[i]`, read directly.
    Base(usize),
    /// An intermediate factor produced earlier in the replay.
    Work { off: usize, len: usize },
    /// An evidence-independent intermediate folded at compile time; data
    /// lives in the plan's `consts` buffer at the same offset the replay
    /// would have written it to.
    Const { off: usize, len: usize },
}

/// One kernel invocation of the replay program. All strides, cards, and
/// arena offsets are precomputed at compile time; output offsets are
/// strictly increasing so `split_at_mut` yields disjoint operand/output
/// slices. Every op runs a run-aware kernel of `bayesnet::factor`:
/// `masks[k]` (and `v_mask` for the summed variable) is a codes-arena
/// offset for an axis pinned by a predicate, or [`DENSE`]. An op with no
/// mask at all is the plain dense operation.
#[derive(Debug)]
enum OpKind {
    Product {
        a: Src,
        b: Src,
        cards: Vec<usize>,
        stride_a: Vec<usize>,
        stride_b: Vec<usize>,
        masks: Vec<usize>,
        off: usize,
        len: usize,
    },
    /// Fused product-sum-out; `card_v`/`sav`/`sbv`/`v_mask` describe the
    /// summed variable.
    ProductSumOut {
        a: Src,
        b: Src,
        cards: Vec<usize>,
        stride_a: Vec<usize>,
        stride_b: Vec<usize>,
        masks: Vec<usize>,
        card_v: usize,
        sav: usize,
        sbv: usize,
        v_mask: usize,
        off: usize,
        len: usize,
    },
    /// Single-operand sum-out; `stride` maps each result axis into the
    /// source, `sv`/`card_v`/`v_mask` describe the summed axis.
    SumOut {
        src: Src,
        cards: Vec<usize>,
        stride: Vec<usize>,
        masks: Vec<usize>,
        card_v: usize,
        sv: usize,
        v_mask: usize,
        off: usize,
        len: usize,
    },
}

impl OpKind {
    /// Arena region this op writes.
    fn out(&self) -> (usize, usize) {
        match *self {
            OpKind::Product { off, len, .. }
            | OpKind::ProductSumOut { off, len, .. }
            | OpKind::SumOut { off, len, .. } => (off, len),
        }
    }

    /// The op's operand sources (compile-time rewriting only).
    fn inputs_mut(&mut self) -> Vec<&mut Src> {
        match self {
            OpKind::Product { a, b, .. } | OpKind::ProductSumOut { a, b, .. } => {
                vec![a, b]
            }
            OpKind::SumOut { src, .. } => vec![src],
        }
    }

    /// True when the op computes the same bytes for every query of the
    /// template: every operand is evidence-independent and no axis reads
    /// a per-query allowed-code list.
    fn is_const(&self) -> bool {
        let constant = |s: &Src| matches!(s, Src::Base(_) | Src::Const { .. });
        let dense = |m: &[usize]| m.iter().all(|&m| m == DENSE);
        match self {
            OpKind::Product { a, b, masks, .. } => {
                constant(a) && constant(b) && dense(masks)
            }
            OpKind::ProductSumOut { a, b, masks, v_mask, .. } => {
                constant(a) && constant(b) && dense(masks) && *v_mask == DENSE
            }
            OpKind::SumOut { src, masks, v_mask, .. } => {
                constant(src) && dense(masks) && *v_mask == DENSE
            }
        }
    }

    /// The one dispatcher, shared by replay and constant folding: runs the
    /// op's kernel into `out` (its `(off, len)` region), reading operands
    /// through `operand` and allowed-code lists from `codes`.
    fn run<'a>(
        &self,
        operand: impl Fn(Src) -> &'a [f64],
        codes: &[usize],
        scratch: &mut [usize],
        out: &mut [f64],
    ) {
        match self {
            OpKind::Product { a, b, cards, stride_a, stride_b, masks, .. } => {
                product_masked_into(
                    operand(*a),
                    operand(*b),
                    cards,
                    stride_a,
                    stride_b,
                    masks,
                    codes,
                    scratch,
                    out,
                );
            }
            OpKind::ProductSumOut {
                a,
                b,
                cards,
                stride_a,
                stride_b,
                masks,
                card_v,
                sav,
                sbv,
                v_mask,
                ..
            } => {
                product_sum_out_masked_into(
                    operand(*a),
                    operand(*b),
                    cards,
                    stride_a,
                    stride_b,
                    masks,
                    codes,
                    *card_v,
                    *sav,
                    *sbv,
                    *v_mask,
                    scratch,
                    out,
                );
            }
            OpKind::SumOut { src, cards, stride, masks, card_v, sv, v_mask, .. } => {
                sum_out_masked_into(
                    operand(*src),
                    cards,
                    stride,
                    masks,
                    codes,
                    *card_v,
                    *sv,
                    *v_mask,
                    scratch,
                    out,
                );
            }
        }
    }
}

/// One elimination step: the ops that fold the factors touching `var`,
/// plus everything the runtime checks and telemetry need (projected
/// width for the budget guard, result scope for the flight recorder).
#[derive(Debug)]
struct Step {
    var: usize,
    n_factors: usize,
    /// Projected cells of the full product (union scope incl. `var`),
    /// saturating — checked against the width budget before any kernel
    /// runs.
    cells: u64,
    /// Scope of the step's result (for `obs::flight::elim_step`).
    result_vars: Vec<usize>,
    /// Cells of the step's result.
    width: u64,
    ops: Vec<OpKind>,
}

/// A compiled query template: everything about estimation that does not
/// depend on the predicate constants, plus the replay program that
/// executes one concrete query against per-thread arenas.
#[derive(Debug)]
pub struct QueryPlan {
    /// Evidence-independent factors in node order: cached canonical
    /// factors relabeled to the QEBN's ids, with the fixed `J = true`
    /// join evidence pre-reduced (zeroing commutes bitwise with the
    /// per-query predicate reduction).
    factors: Vec<Factor>,
    /// Per-predicate decode instructions.
    pred_slots: Vec<PredSlot>,
    /// Per-node mask regions in the bool arena.
    mask_slots: Vec<MaskSlot>,
    /// Start of the tmp mask region (== total mask bytes, the memo key
    /// length).
    tmp_off: usize,
    /// Precompiled elimination replay. Steps keep their budget metadata
    /// even when constant folding emptied their op list, so width and
    /// deadline checks fire for every eliminated variable, whether its
    /// ops were folded, replayed or skipped by a memo hit.
    steps: Vec<Step>,
    /// Outputs of constant-folded ops, indexed by the arena offsets the
    /// replay would have used (`Src::Const` regions; the rest is unused
    /// zero padding). `Arc`-shared so plans whose folded prefix computes
    /// the same bytes (see [`FoldCache`]) hold one buffer.
    consts: Arc<Vec<f64>>,
    /// Scalar factors left after the last step, in residual order; their
    /// product (left fold from 1.0, like `Iterator::product`) is `P(E)`.
    leftovers: Vec<Src>,
    /// `|T_v|` per closure tuple variable, in closure order; replayed as
    /// the same sequential multiply as the uncached scale step.
    row_factors: Vec<f64>,
    /// Arena sizes this plan needs.
    bools_len: usize,
    f64s_len: usize,
    scratch_len: usize,
    codes_len: usize,
    /// Reduced-factor memo (capacity snapshot at compile time; `0` when
    /// the template has no predicates).
    memo_capacity: usize,
    memo: ReducedMemo,
}

impl QueryPlan {
    /// Compiles the plan for `query`'s template: unrolls the QEBN once,
    /// instantiates its factors from the cache, folds in the join
    /// evidence, records the elimination order, and lowers it into the
    /// replay program by simulating the elimination symbolically over
    /// factor scopes.
    pub fn compile(
        prm: &Prm,
        schema: &SchemaInfo,
        cache: &FactorCache,
        query: &Query,
    ) -> Result<QueryPlan> {
        QueryPlan::compile_with(prm, schema, cache, query, None)
    }

    /// [`QueryPlan::compile`] with an optional [`FoldCache`]: when given,
    /// the folded-constant buffer is interned content-keyed, so plans of
    /// one model whose evidence-independent prefix computes the same
    /// bytes share a single allocation.
    pub fn compile_with(
        prm: &Prm,
        schema: &SchemaInfo,
        cache: &FactorCache,
        query: &Query,
        folds: Option<&FoldCache>,
    ) -> Result<QueryPlan> {
        failpoint::fail_point!("plan.compile").map_err(Error::from)?;
        let qebn = QueryEvalBn::build(prm, schema, query)?;
        let n = qebn.bn.len();
        let mut factors = Vec::with_capacity(n);
        for v in 0..n {
            let local = cache.local(prm, qebn.node_sources[v]);
            let mut ids = qebn.bn.parents(v).to_vec();
            ids.push(v);
            let mut f = local.relabeled(&ids);
            for sv in f.vars().to_vec() {
                if qebn.ji_nodes.binary_search(&sv).is_ok() {
                    f = f.reduce(sv, &[false, true]);
                }
            }
            factors.push(f);
        }
        let scopes: Vec<Vec<usize>> = factors.iter().map(|f| f.vars().to_vec()).collect();
        // Every materialized node is evidence or an ancestor of evidence
        // (the builder only unrolls queried attributes and their
        // ancestors), so the eliminated set is all of them — exactly the
        // relevance prune of the uncached path.
        let elim: Vec<usize> = (0..n).collect();
        let order = elimination_order(&scopes, &elim, |v| qebn.bn.card(v));

        // Predicate decode layout: one mask slot per distinct node, a tmp
        // region (for intersecting repeat predicates) after them; each
        // slot also owns a `[len, code…]` region in the codes arena for
        // the masked kernels.
        let mut mask_slots: Vec<MaskSlot> = Vec::new();
        let mut pred_slots = Vec::with_capacity(query.preds.len());
        let mut bool_off = 0usize;
        let mut codes_len = 0usize;
        for (pred, &node) in query.preds.iter().zip(&qebn.pred_nodes) {
            let table = qebn.closure_tables[pred.var()];
            let attr = schema.attr_index(table, pred.attr())?;
            let card = qebn.bn.card(node);
            let (mask, first) = match mask_slots.iter().position(|m| m.node == node) {
                Some(i) => (i, false),
                None => {
                    mask_slots.push(MaskSlot {
                        node,
                        card,
                        off: bool_off,
                        codes_off: codes_len,
                    });
                    bool_off += card;
                    codes_len += card + 1;
                    (mask_slots.len() - 1, true)
                }
            };
            pred_slots.push(PredSlot { node, card, table, attr, mask, first });
        }
        let tmp_off = bool_off;
        let bools_len = tmp_off + pred_slots.iter().map(|s| s.card).max().unwrap_or(0);

        // Lower the recorded order into the replay program by simulating
        // the oracle's elimination loop (`bayesnet::infer`) over scopes:
        // same partition, same left-fold of products with the final one
        // fused into the marginalization, same residual order — so the
        // runtime performs the identical arithmetic with zero per-query
        // bookkeeping.
        //
        // Each simulated slot tracks which of its scope variables are
        // *pinned* by a predicate mask. Every op lowers to a run-aware
        // kernel whose pinned axes walk only their allowed codes, reading
        // the *base* factor data directly: at every allowed index the
        // reduced data equals the base data, and every skipped index would
        // have contributed exactly +0.0, so no reduced copy is ever
        // materialized (DESIGN.md §6h). Unpinned axes are `DENSE`. Summing
        // a pinned variable out un-pins it — the op wrote true
        // (reduced-equivalent) dense data, so downstream ops see dense
        // operands again.
        struct Sim {
            vars: Vec<usize>,
            cards: Vec<usize>,
            src: Src,
            /// `(scope var, mask slot)` per still-masked variable, sorted.
            pinned: Vec<(usize, usize)>,
        }
        fn merge_pinned(
            a: &[(usize, usize)],
            b: &[(usize, usize)],
        ) -> Vec<(usize, usize)> {
            let mut out = a.to_vec();
            for &p in b {
                if let Err(at) = out.binary_search(&p) {
                    out.insert(at, p);
                }
            }
            out
        }
        let mask_of = |pinned: &[(usize, usize)], var: usize| -> usize {
            pinned
                .iter()
                .find(|&&(v, _)| v == var)
                .map_or(DENSE, |&(_, m)| mask_slots[m].codes_off)
        };
        let masks_for =
            |pinned: &[(usize, usize)], result_vars: &[usize]| -> Vec<usize> {
                result_vars.iter().map(|&v| mask_of(pinned, v)).collect()
            };
        let mut f64_off = 0usize;
        let mut slots: Vec<Sim> = factors
            .iter()
            .enumerate()
            .map(|(i, f)| Sim {
                vars: f.vars().to_vec(),
                cards: f.cards().to_vec(),
                src: Src::Base(i),
                pinned: f
                    .vars()
                    .iter()
                    .filter_map(|&sv| {
                        mask_slots.iter().position(|m| m.node == sv).map(|m| (sv, m))
                    })
                    .collect(),
            })
            .collect();
        let mut steps: Vec<Step> = Vec::new();
        let mut scratch_len = 0usize;
        for &var in &order {
            let (touching, rest): (Vec<Sim>, Vec<Sim>) =
                slots.into_iter().partition(|s| s.vars.contains(&var));
            slots = rest;
            if touching.is_empty() {
                continue;
            }
            let cells = projected_cells_of(&touching, |s| (&s.vars, &s.cards));
            let n_factors = touching.len();
            let mut ops = Vec::new();
            let mut iter = touching.into_iter();
            let mut acc = iter.next().expect("at least one factor");
            let result = if n_factors == 1 {
                let pos = acc.vars.iter().position(|&v| v == var).expect("var in scope");
                let mut stride = strides_in(&acc.vars, &acc.cards, &acc.vars);
                let mut vars = acc.vars;
                let mut cards = acc.cards;
                vars.remove(pos);
                let card_v = cards.remove(pos);
                let sv = stride.remove(pos);
                let len: usize = cards.iter().product::<usize>().max(1);
                scratch_len = scratch_len.max(2 * cards.len());
                ops.push(OpKind::SumOut {
                    src: acc.src,
                    cards: cards.clone(),
                    stride,
                    masks: masks_for(&acc.pinned, &vars),
                    card_v,
                    sv,
                    v_mask: mask_of(&acc.pinned, var),
                    off: f64_off,
                    len,
                });
                let src = Src::Work { off: f64_off, len };
                f64_off += len;
                let pinned: Vec<(usize, usize)> =
                    acc.pinned.into_iter().filter(|&(v, _)| v != var).collect();
                Sim { vars, cards, src, pinned }
            } else {
                for _ in 0..n_factors - 2 {
                    let b = iter.next().expect("n - 2 more factors");
                    let (uvars, ucards) =
                        union_scope_parts(&acc.vars, &acc.cards, &b.vars, &b.cards);
                    let len: usize = ucards.iter().product::<usize>().max(1);
                    let pinned = merge_pinned(&acc.pinned, &b.pinned);
                    scratch_len = scratch_len.max(2 * uvars.len());
                    ops.push(OpKind::Product {
                        a: acc.src,
                        b: b.src,
                        cards: ucards.clone(),
                        stride_a: strides_in(&acc.vars, &acc.cards, &uvars),
                        stride_b: strides_in(&b.vars, &b.cards, &uvars),
                        masks: masks_for(&pinned, &uvars),
                        off: f64_off,
                        len,
                    });
                    acc = Sim {
                        vars: uvars,
                        cards: ucards,
                        src: Src::Work { off: f64_off, len },
                        pinned,
                    };
                    f64_off += len;
                }
                let b = iter.next().expect("last factor");
                let (uvars, ucards) =
                    union_scope_parts(&acc.vars, &acc.cards, &b.vars, &b.cards);
                let pos = uvars.iter().position(|&v| v == var).expect("var in union");
                let mut stride_a = strides_in(&acc.vars, &acc.cards, &uvars);
                let mut stride_b = strides_in(&b.vars, &b.cards, &uvars);
                let mut vars = uvars;
                let mut cards = ucards;
                vars.remove(pos);
                let card_v = cards.remove(pos);
                let (sav, sbv) = (stride_a.remove(pos), stride_b.remove(pos));
                let len: usize = cards.iter().product::<usize>().max(1);
                let pinned = merge_pinned(&acc.pinned, &b.pinned);
                scratch_len = scratch_len.max(2 * cards.len());
                ops.push(OpKind::ProductSumOut {
                    a: acc.src,
                    b: b.src,
                    cards: cards.clone(),
                    stride_a,
                    stride_b,
                    masks: masks_for(&pinned, &vars),
                    card_v,
                    sav,
                    sbv,
                    v_mask: mask_of(&pinned, var),
                    off: f64_off,
                    len,
                });
                let src = Src::Work { off: f64_off, len };
                f64_off += len;
                let pinned: Vec<(usize, usize)> =
                    pinned.into_iter().filter(|&(v, _)| v != var).collect();
                Sim { vars, cards, src, pinned }
            };
            steps.push(Step {
                var,
                n_factors,
                cells,
                result_vars: result.vars.clone(),
                width: result.cards.iter().product::<usize>().max(1) as u64,
                ops,
            });
            slots.push(result);
        }
        let mut leftovers: Vec<Src> = slots
            .iter()
            .map(|s| {
                debug_assert!(s.vars.is_empty(), "variable left uneliminated");
                s.src
            })
            .collect();

        // Constant folding: unmasked ops whose operands are all evidence-
        // independent (base factors or earlier folded outputs) produce
        // the same bytes for every query of this template — execute them
        // once now, through the same dispatcher the replay uses, and
        // replay their outputs as constants. Steps whose projected width
        // exceeds the current budget are left dynamic so the width guard
        // at estimate time keeps refusing them instead of compilation
        // materializing what the budget exists to prevent.
        let fold_budget = crate::guard::estimate_budget().max_cells;
        let mut consts = vec![0.0f64; f64_off];
        let mut fold_scratch = vec![0usize; scratch_len];
        let mut folded: std::collections::HashSet<usize> =
            std::collections::HashSet::new();
        for step in &mut steps {
            let foldable = fold_budget.is_none_or(|max| step.cells <= max);
            let mut dynamic_ops = Vec::with_capacity(step.ops.len());
            for mut op in std::mem::take(&mut step.ops) {
                for src in op.inputs_mut() {
                    if let Src::Work { off, len } = *src {
                        if folded.contains(&off) {
                            *src = Src::Const { off, len };
                        }
                    }
                }
                if foldable && op.is_const() {
                    let (off, len) = op.out();
                    let (lo, hi) = consts.split_at_mut(off);
                    let lo: &[f64] = lo;
                    let operand = |src: Src| match src {
                        Src::Base(i) => factors[i].data(),
                        Src::Const { off, len } | Src::Work { off, len } => {
                            &lo[off..off + len]
                        }
                    };
                    op.run(operand, &[], &mut fold_scratch, &mut hi[..len]);
                    folded.insert(off);
                    obs::counter!("prm.plan.ops.folded").inc();
                } else {
                    obs::counter!("prm.plan.ops.dynamic").inc();
                    dynamic_ops.push(op);
                }
            }
            step.ops = dynamic_ops;
        }
        for src in &mut leftovers {
            if let Src::Work { off, len } = *src {
                if folded.contains(&off) {
                    *src = Src::Const { off, len };
                }
            }
        }

        let pred_touched = !mask_slots.is_empty();
        let row_factors =
            qebn.closure_tables.iter().map(|&t| prm.tables[t].n_rows as f64).collect();
        let memo_capacity = if pred_touched { reduce_memo_capacity() } else { 0 };
        let consts = match folds {
            Some(fc) => fc.intern(consts),
            None => Arc::new(consts),
        };
        Ok(QueryPlan {
            factors,
            pred_slots,
            mask_slots,
            tmp_off,
            steps,
            consts,
            leftovers,
            row_factors,
            bools_len,
            f64s_len: f64_off,
            scratch_len,
            codes_len,
            memo_capacity,
            memo: ReducedMemo::new(memo_capacity),
        })
    }

    /// Executes the plan for one concrete query of its template: decode
    /// predicates into arena masks, fetch (or compute and memoize) the
    /// reduced factor data, replay the precompiled elimination program,
    /// scale by the table sizes. Warm replays (memo hit) allocate nothing.
    pub fn estimate(&self, schema: &SchemaInfo, query: &Query) -> Result<f64> {
        debug_assert_eq!(query.preds.len(), self.pred_slots.len(), "template mismatch");
        ARENA.with(|cell| {
            let mut arena = cell.borrow_mut();
            self.estimate_in(schema, query, &mut arena)
        })
    }

    fn estimate_in(
        &self,
        schema: &SchemaInfo,
        query: &Query,
        arena: &mut Arena,
    ) -> Result<f64> {
        arena.ensure(self.bools_len, self.f64s_len, self.scratch_len, self.codes_len);

        // --- decode: predicate constants → per-node masks -------------
        let decode = obs::flight::phase("decode");
        for (slot, pred) in self.pred_slots.iter().zip(&query.preds) {
            let ms = &self.mask_slots[slot.mask];
            let domain = &schema.tables[slot.table].domains[slot.attr];
            let (mask_region, tmp_region) = arena.bools.split_at_mut(self.tmp_off);
            let own = if slot.first {
                let m = &mut mask_region[ms.off..ms.off + ms.card];
                pred.fill_mask(domain, m);
                &*m
            } else {
                // A repeat predicate on the same node intersects — the
                // same conjunction `Evidence::isin` applied.
                let tmp = &mut tmp_region[..slot.card];
                pred.fill_mask(domain, tmp);
                for (dst, &t) in
                    mask_region[ms.off..ms.off + ms.card].iter_mut().zip(&*tmp)
                {
                    *dst = *dst && t;
                }
                &*tmp
            };
            if obs::flight::active() {
                let allowed = own.iter().filter(|&&b| b).count();
                obs::flight::pred_mask(slot.node, allowed, slot.card);
            }
        }
        drop(decode);

        // --- reduce: signature-memo lookup, else allowed-code encode ---
        // No factor data is copied or zeroed: a miss only re-encodes each
        // decoded bool mask into its ascending allowed-code list, which
        // the masked replay kernels walk directly over the *base* factor
        // data (O(Σ card) total, allocation-free).
        let reduce = obs::flight::phase("reduce");
        let mut memo_p: Option<f64> = None;
        let mut mask_hash = 0u64;
        if !self.mask_slots.is_empty() {
            let all_masks = &arena.bools[..self.tmp_off];
            let mut h = Fnv::new();
            for &m in all_masks {
                h.write(&[m as u8]);
            }
            mask_hash = h.finish();
            if self.memo_capacity > 0 {
                let mut memo = self.memo.lock();
                if let Some(e) = memo.get(mask_hash, |e| e.masks.as_slice() == all_masks)
                {
                    memo_p = Some(e.p);
                }
            }
            if memo_p.is_some() {
                obs::counter!("prm.plan.reduce.hit").inc();
            } else {
                obs::counter!("prm.plan.reduce.miss").inc();
                for ms in &self.mask_slots {
                    let mask = &arena.bools[ms.off..ms.off + ms.card];
                    let region =
                        &mut arena.codes[ms.codes_off..ms.codes_off + ms.card + 1];
                    let mut n = 0usize;
                    for (c, &ok) in mask.iter().enumerate() {
                        if ok {
                            n += 1;
                            region[n] = c;
                        }
                    }
                    region[0] = n;
                }
            }
            refresh_reduce_hit_ratio();
        }
        drop(reduce);

        // --- eliminate: replay the precompiled program ----------------
        let eliminate = obs::flight::phase("eliminate");
        // The `infer.eliminate` failpoint and the width and deadline
        // guards run on every estimate, memo hits included. Budget checks
        // cover every step (even constant-folded or memo-skipped ones) so
        // a budget tightened after compilation still refuses the same
        // queries with the same error, whatever the signature.
        failpoint::fail_point!("infer.eliminate").map_err(Error::from)?;
        let budget = crate::guard::estimate_budget();
        for step in &self.steps {
            if let Some(deadline) = budget.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(Error::Budget {
                        kind: BudgetKind::Deadline,
                        detail: "estimate deadline passed (PRMSEL_DEADLINE_MS)"
                            .to_owned(),
                    });
                }
            }
            if let Some(max) = budget.max_cells {
                if step.cells > max {
                    return Err(Error::Budget {
                        kind: BudgetKind::Width,
                        detail: format!(
                            "eliminating node {} would materialize {} cells \
                             (budget {max}, PRMSEL_WIDTH_BUDGET)",
                            step.var, step.cells
                        ),
                    });
                }
            }
            if memo_p.is_some() || step.ops.is_empty() {
                continue;
            }
            let flight_t0 = obs::flight::active().then(obs::flight::now_ns);
            let start = std::time::Instant::now();
            for op in &step.ops {
                self.run_op(op, arena);
            }
            let elapsed = start.elapsed();
            if let Some(t0) = flight_t0 {
                obs::flight::elim_step(
                    step.var,
                    step.n_factors,
                    &step.result_vars,
                    step.width,
                    t0,
                    elapsed.as_nanos().min(u64::MAX as u128) as u64,
                );
            }
            obs::counter!("bn.infer.messages").inc();
            obs::histogram!("bn.factor.kernel.ns").record_duration(elapsed);
        }
        let p = match memo_p {
            Some(p) => p,
            None => {
                let mut p = 1.0f64;
                for src in &self.leftovers {
                    p *= self.scalar_of(src, arena);
                }
                p
            }
        };
        drop(eliminate);
        // Memoize only after the replay succeeded, so budget refusals and
        // failpoint injections are never cached as answers.
        if memo_p.is_none() && !self.mask_slots.is_empty() && self.memo_capacity > 0 {
            let entry =
                Arc::new(MemoEntry { masks: arena.bools[..self.tmp_off].to_vec(), p });
            self.memo.lock().insert(mask_hash, entry, &mut |_| {});
        }
        let mut size = p;
        for &rows in &self.row_factors {
            size *= rows;
        }
        Ok(size)
    }

    /// Executes one replay op against the arena. Output offsets strictly
    /// exceed every operand offset (bump-assigned at compile time), so
    /// `split_at_mut` hands out disjoint slices.
    fn run_op(&self, op: &OpKind, arena: &mut Arena) {
        let (off, len) = op.out();
        let (lo, hi) = arena.f64s.split_at_mut(off);
        let lo: &[f64] = lo;
        op.run(
            |src| self.resolve(src, lo),
            &arena.codes,
            &mut arena.scratch,
            &mut hi[..len],
        );
    }

    fn resolve<'a>(&'a self, src: Src, lo: &'a [f64]) -> &'a [f64] {
        match src {
            Src::Base(i) => self.factors[i].data(),
            Src::Work { off, len } => &lo[off..off + len],
            Src::Const { off, len } => &self.consts[off..off + len],
        }
    }

    fn scalar_of(&self, src: &Src, arena: &Arena) -> f64 {
        match *src {
            Src::Base(i) => self.factors[i].data()[0],
            Src::Work { off, .. } => arena.f64s[off],
            Src::Const { off, .. } => self.consts[off],
        }
    }

    /// Number of nodes in the unrolled network this plan replays.
    pub fn n_nodes(&self) -> usize {
        self.factors.len()
    }

    /// Resident entries in this plan's reduced-factor memo.
    pub fn reduce_memo_len(&self) -> usize {
        self.memo.lock().len()
    }

    /// Drops every memoized signature, forcing the next estimate of each
    /// constant set down the replay (memo-miss) path — used by benches to
    /// measure miss latency and by tests.
    pub fn clear_reduce_memo(&self) {
        self.memo.lock().clear();
    }
}

/// Projected width of one elimination step: cells of the product of all
/// touching scopes (union incl. the eliminated variable), saturating at
/// `u64::MAX`.
fn projected_cells_of<S>(
    touching: &[S],
    parts: impl Fn(&S) -> (&Vec<usize>, &Vec<usize>),
) -> u64 {
    let mut scope: Vec<(usize, u64)> = Vec::new();
    for s in touching {
        let (vars, cards) = parts(s);
        for (&v, &c) in vars.iter().zip(cards) {
            match scope.binary_search_by_key(&v, |&(sv, _)| sv) {
                Ok(_) => {}
                Err(at) => scope.insert(at, (v, c as u64)),
            }
        }
    }
    scope.iter().fold(1u64, |acc, &(_, c)| acc.saturating_mul(c))
}

/// Sorted-merge union of two scopes with their cards — the compile-time
/// mirror of [`bayesnet::factor::union_scope`] over raw slices.
fn union_scope_parts(
    avars: &[usize],
    acards: &[usize],
    bvars: &[usize],
    bcards: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let mut vars = Vec::with_capacity(avars.len() + bvars.len());
    let mut cards = Vec::with_capacity(avars.len() + bvars.len());
    let (mut i, mut j) = (0, 0);
    while i < avars.len() || j < bvars.len() {
        let take_a = j >= bvars.len() || (i < avars.len() && avars[i] <= bvars[j]);
        if take_a {
            if j < bvars.len() && avars[i] == bvars[j] {
                debug_assert_eq!(acards[i], bcards[j], "cardinality mismatch");
                j += 1;
            }
            vars.push(avars[i]);
            cards.push(acards[i]);
            i += 1;
        } else {
            vars.push(bvars[j]);
            cards.push(bcards[j]);
            j += 1;
        }
    }
    (vars, cards)
}

// ---------------------------------------------------------------------
// The fold cache.
// ---------------------------------------------------------------------

/// Content-keyed cache of folded-constant buffers, shared between the
/// plans of one model. Templates that fold the same evidence-independent
/// prefix (common when precompiling many templates over one closure)
/// produce byte-identical `consts` buffers; interning them here makes
/// every such plan share a single `Arc` allocation. Keys are FNV hashes
/// of the buffer bits, verified byte-for-byte on a bucket match, so a
/// hash collision can never splice the wrong constants into a plan.
#[derive(Debug, Default)]
pub struct FoldCache {
    inner: Mutex<HashMap<u64, Vec<Arc<Vec<f64>>>>>,
}

impl FoldCache {
    /// An empty fold cache.
    pub fn new() -> Self {
        FoldCache::default()
    }

    /// The shared buffer equal to `consts`, inserting it if new.
    fn intern(&self, consts: Vec<f64>) -> Arc<Vec<f64>> {
        let mut h = Fnv::new();
        for &x in &consts {
            h.write(&x.to_bits().to_le_bytes());
        }
        let hash = h.finish();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let bucket = inner.entry(hash).or_default();
        if let Some(existing) = bucket.iter().find(|e| {
            e.len() == consts.len()
                && e.iter().zip(&consts).all(|(a, b)| a.to_bits() == b.to_bits())
        }) {
            return existing.clone();
        }
        let arc = Arc::new(consts);
        bucket.push(arc.clone());
        arc
    }
}

// ---------------------------------------------------------------------
// The plan cache.
// ---------------------------------------------------------------------

/// One resident plan: the verified template key plus the shared plan.
#[derive(Debug)]
struct PlanEntry {
    key: PlanKey,
    plan: Arc<QueryPlan>,
}

/// Bounded LRU cache of compiled plans, keyed by query template.
///
/// Lookups hash the live query with the allocation-free
/// [`PlanKey::stable_hash_of`] and verify bucket candidates field-wise
/// against the query, so a warm hit builds no `PlanKey` and allocates
/// nothing. Recency is an intrusive list over a slab — promotion is a few
/// pointer swaps.
///
/// Concurrency: lookups and inserts take a short mutex; compilation runs
/// *outside* the lock, so workers compiling different templates do not
/// serialize. Two workers racing on the same template may both compile
/// it — the plans are bit-identical (see the module docs), the first
/// insert wins, and the loser's copy is used once and dropped.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<LruSlab<PlanEntry>>,
}

/// Plan-cache capacity (resident plans per model epoch).
pub const PLAN_CACHE_CAPACITY: usize = 64;

/// Recomputes the `prm.plan.hit_ratio` gauge — hits / (hits + misses) —
/// from the process-global counters. Called on every lookup, so any
/// snapshot sees the current ratio.
fn refresh_hit_ratio() {
    let hits = obs::counter!("prm.plan.hit").get();
    let misses = obs::counter!("prm.plan.miss").get();
    let total = hits + misses;
    if total > 0 {
        obs::gauge!("prm.plan.hit_ratio").set(hits as f64 / total as f64);
    }
}

/// Recomputes the `prm.plan.reduce.hit_ratio` gauge — signature-memo hits
/// / (hits + misses) — from the process-global counters, mirroring
/// [`refresh_hit_ratio`]. Called on every memo lookup.
fn refresh_reduce_hit_ratio() {
    let hits = obs::counter!("prm.plan.reduce.hit").get();
    let misses = obs::counter!("prm.plan.reduce.miss").get();
    let total = hits + misses;
    if total > 0 {
        obs::gauge!("prm.plan.reduce.hit_ratio").set(hits as f64 / total as f64);
    }
}

fn count_evict(_: &PlanEntry) {
    obs::counter!("prm.plan.evict").inc();
}

impl PlanCache {
    /// An empty cache holding at most [`PLAN_CACHE_CAPACITY`] plans.
    pub(crate) fn new() -> Self {
        // Register the precompile counter up front so snapshots show an
        // explicit 0 when no manifest was loaded.
        obs::counter!("prm.plan.precompiled").add(0);
        PlanCache { inner: Mutex::new(LruSlab::new(PLAN_CACHE_CAPACITY)) }
    }

    /// The cached plan for `query`'s template, or the result of `compile`,
    /// recorded under the template key; the `bool` is true on a cache hit
    /// (the per-template warm-latency histograms only sample replays, not
    /// compiles). Hits, misses, evictions, and compile latency are
    /// reported as `prm.plan.hit` / `prm.plan.miss` / `prm.plan.evict` /
    /// `prm.plan.compile.ns`, plus a derived `prm.plan.hit_ratio` gauge;
    /// the outcome also lands on the live flight-recorder trace.
    pub fn get_or_compile(
        &self,
        query: &Query,
        compile: impl FnOnce() -> Result<QueryPlan>,
    ) -> Result<(Arc<QueryPlan>, bool)> {
        let hash = PlanKey::stable_hash_of(query);
        {
            let mut inner = self.lock();
            if let Some(entry) = inner.get(hash, |e| e.key.matches(query)) {
                let plan = entry.plan.clone();
                drop(inner);
                obs::counter!("prm.plan.hit").inc();
                refresh_hit_ratio();
                obs::flight::plan_cache(true);
                return Ok((plan, true));
            }
        }
        obs::counter!("prm.plan.miss").inc();
        refresh_hit_ratio();
        obs::flight::plan_cache(false);
        let compile_phase = obs::flight::phase("compile");
        let start = std::time::Instant::now();
        let plan = Arc::new(compile()?);
        obs::histogram!("prm.plan.compile.ns").record_duration(start.elapsed());
        drop(compile_phase);
        let mut inner = self.lock();
        if let Some(entry) = inner.get(hash, |e| e.key.matches(query)) {
            // Lost a compile race: adopt the resident plan (already
            // promoted by the lookup).
            return Ok((entry.plan.clone(), false));
        }
        inner.insert(
            hash,
            PlanEntry { key: PlanKey::of(query), plan: plan.clone() },
            &mut count_evict,
        );
        Ok((plan, false))
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a plan for `key` is resident (does not touch recency).
    pub fn contains(&self, key: &PlanKey) -> bool {
        self.lock().peek(key.stable_hash(), |e| e.key == *key).is_some()
    }

    /// The resident plan for `query`'s template, if any (does not touch
    /// recency or the hit/miss counters) — introspection for tests and
    /// tools.
    pub fn peek(&self, query: &Query) -> Option<Arc<QueryPlan>> {
        let hash = PlanKey::stable_hash_of(query);
        self.lock().peek(hash, |e| e.key.matches(query)).map(|e| e.plan.clone())
    }

    /// Template keys of every resident plan, most recently used first —
    /// the export order of the precompile manifest, so a bounded manifest
    /// keeps the hottest templates.
    pub fn keys(&self) -> Vec<PlanKey> {
        self.lock().values_mru().into_iter().map(|e| e.key.clone()).collect()
    }

    /// Ahead-of-time compilation: compiles a plan for every manifest key
    /// not already resident and inserts it, fanning the compiles out
    /// across the worker pool. Returns how many plans were inserted
    /// (`prm.plan.precompiled` counts the same). Keys that fail to
    /// compile — e.g. a manifest recorded against a different schema —
    /// are skipped; precompilation is an optimization, never a gate, so
    /// the first live query of such a template just compiles on demand
    /// as before. Keys should be most-recent-first (as [`PlanCache::keys`]
    /// returns them): when the cache cannot hold the whole manifest, the
    /// most recent templates survive.
    pub fn precompile(
        &self,
        prm: &Prm,
        schema: &SchemaInfo,
        cache: &FactorCache,
        folds: &FoldCache,
        keys: &[PlanKey],
    ) -> usize {
        let todo: Vec<PlanKey> =
            keys.iter().filter(|k| !self.contains(k)).cloned().collect();
        if todo.is_empty() {
            return 0;
        }
        let compiled = par::map(&todo, |key| {
            let query = key.to_template_query();
            QueryPlan::compile_with(prm, schema, cache, &query, Some(folds)).ok()
        });
        let mut inserted = 0usize;
        let mut inner = self.lock();
        // Insert in reverse so the manifest's first (most recent) key ends
        // up most recently used.
        for (key, plan) in todo.into_iter().zip(compiled).rev() {
            let Some(plan) = plan else { continue };
            if inner.peek(key.stable_hash(), |e| e.key == key).is_none() {
                inner.insert(
                    key.stable_hash(),
                    PlanEntry { key, plan: Arc::new(plan) },
                    &mut count_evict,
                );
                obs::counter!("prm.plan.precompiled").inc();
                inserted += 1;
            }
        }
        inserted
    }

    /// Clears the signature memo of every resident plan (the plans stay
    /// resident) — forces the next estimate of each template down the
    /// replay path, for miss-latency measurement.
    pub fn clear_reduce_memos(&self) {
        let plans: Vec<Arc<QueryPlan>> =
            self.lock().values_mru().into_iter().map(|e| e.plan.clone()).collect();
        for p in plans {
            p.clear_reduce_memo();
        }
    }

    /// Drops every resident plan (used on model replacement). Also drops
    /// each plan's reduced-factor memo with it, so a refreshed model can
    /// never replay factor data reduced under the old parameters.
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruSlab<PlanEntry>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_slab_evicts_least_recently_used() {
        let mut lru: LruSlab<u32> = LruSlab::new(2);
        let mut evicted = Vec::new();
        lru.insert(1, 10, &mut |&v| evicted.push(v));
        lru.insert(2, 20, &mut |&v| evicted.push(v));
        assert_eq!(lru.get(1, |&v| v == 10), Some(&10)); // promote 10
        lru.insert(3, 30, &mut |&v| evicted.push(v));
        assert_eq!(evicted, vec![20]);
        assert!(lru.peek(2, |_| true).is_none());
        assert!(lru.peek(1, |_| true).is_some());
        assert!(lru.peek(3, |_| true).is_some());
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_slab_handles_hash_collisions_by_predicate() {
        let mut lru: LruSlab<u32> = LruSlab::new(4);
        lru.insert(7, 1, &mut |_| {});
        lru.insert(7, 2, &mut |_| {});
        assert_eq!(lru.get(7, |&v| v == 2), Some(&2));
        assert_eq!(lru.get(7, |&v| v == 1), Some(&1));
        assert_eq!(lru.get(7, |&v| v == 3), None);
    }

    #[test]
    fn lru_slab_zero_capacity_stores_nothing() {
        let mut lru: LruSlab<u32> = LruSlab::new(0);
        lru.insert(1, 10, &mut |_| {});
        assert_eq!(lru.len(), 0);
        assert!(lru.get(1, |_| true).is_none());
    }
}
