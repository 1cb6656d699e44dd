//! The repository benchmark: one workload per process, driven from SQL
//! text through the production request path
//! (`reldb::parse_query` → `ResilientEstimator::estimate_query`), one
//! request at a time from one client thread (a closed loop with one
//! client). See `perfbench/README.md` for the workloads, the metrics and
//! the layer each metric measures.
//!
//! ```text
//! perfbench --workload hot-sql|range-miss|maintain-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run, and
//! the spans are written to `.perfbench_out/trace-<workload>.json`. The
//! process exits 1 when any output check fails.

mod gen;
mod hist;
mod trace;

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use prmsel::{
    DeltaState, FactorCache, FoldCache, PlanKey, PrmEstimator, PrmLearnConfig,
    QueryEvalBn, QueryPlan, ResilientEstimator, Rung, SchemaInfo, SelectivityEstimator,
    UpdateBatch,
};
use reldb::Database;

use gen::{Requests, TbWriter};
use hist::Hist;
use trace::{Name, Tracer, ROOT};

/// Fixed data seeds: every run serves the same learned models.
const TB_DATA_SEED: u64 = 7;
const CENSUS_ROWS: usize = 20_000;
const CENSUS_DATA_SEED: u64 = 1;

const HOT_STREAM: usize = 1 << 20;
/// Distinct range requests per run; a request repeats only after
/// 65536 others, long after the per-plan memo evicted it.
const RANGE_STREAM: usize = 1 << 16;
/// Requests per throughput block.
const BLOCK: usize = 256;
/// Every request at a stream position divisible by this is sampled for
/// the q-error and bit-identity checks (`range-miss` runs ~40x fewer
/// requests, so it samples more densely).
const SAMPLE_EVERY: usize = 64;
const SAMPLE_EVERY_RANGE: usize = 8;
/// Sample store bound, preallocated so that the benchmark's memory does
/// not grow with the number of requests a run completes.
const SAMPLE_CAP: usize = 16_384;
/// Bit-identity checks against `estimate_uncached` per read phase.
const IDENTITY_CHECKS: usize = 256;
/// `maintain-mix`: reads between two refreshes, identity checks per cycle.
const READS_PER_CYCLE: usize = 2048;
const IDENTITY_PER_CYCLE: usize = 2;
/// `hot-sql` / `range-miss`: refresh cycles run after the timed reads.
const TAIL_CYCLES: u32 = 60;
/// Cycles between checks that the served model equals a from-scratch
/// `refresh_parameters` on the current snapshot.
const MODEL_CHECK_EVERY: u32 = 8;
/// Span store bound for the traced run (~8 MB in memory, ~30 MB written).
const SPAN_CAP: usize = 250_000;
/// Traced requests run in contiguous bursts: a lone traced request would
/// find the served estimator warm from untraced reads but its twin cold.
const TRACE_BURST: usize = 512;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    HotSql,
    RangeMiss,
    MaintainMix,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::HotSql => "hot-sql",
            Workload::RangeMiss => "range-miss",
            Workload::MaintainMix => "maintain-mix",
        }
    }
}

/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = match get("--workload")? {
        "hot-sql" => Workload::HotSql,
        "range-miss" => Workload::RangeMiss,
        "maintain-mix" => Workload::MaintainMix,
        w => return Err(format!("unknown workload `{w}`")),
    };
    let num = |flag: &str| -> Result<f64, String> {
        get(flag)?.parse::<f64>().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: get("--trace")? == "1",
    })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn exact(rung: Rung) -> bool {
    matches!(rung, Rung::CachedExact | Rung::UncachedExact)
}

/// The production request path: SQL text to an answer.
#[inline(never)]
fn request(res: &ResilientEstimator, sql: &str) -> Result<(f64, Rung), String> {
    let query = reldb::parse_query(sql).map_err(err)?;
    let outcome = res.estimate_query(&query);
    match outcome.result {
        Ok(v) => Ok((v, outcome.rung)),
        Err(e) => Err(e.to_string()),
    }
}

/// A twin of the served model plus bench-held plans, so a traced
/// request can time `PrmEstimator::estimate` and `QueryPlan::estimate`
/// back to back with `estimate_query` on the same query, each seeing
/// the same memo state.
struct Twin {
    est: PrmEstimator,
    plans: HashMap<u64, QueryPlan>,
}

/// One served model: the production path and, in traced runs, its twin.
struct Serving {
    res: ResilientEstimator,
    twin: Option<Twin>,
}

/// One sampled request: its request-set index and the answer's bits.
struct Sample {
    item: u32,
    bits: u64,
}

#[derive(Default)]
struct Layers {
    dynamic_ops: Vec<u64>,
    nodes: Vec<u64>,
    batch_rows: Vec<u64>,
    file_bytes: usize,
    /// (cache hits, misses, memo hits, misses) over the untraced reads.
    counters: [u64; 4],
    /// Untraced request p50 (ns), the base of `trace.overhead_frac`.
    untraced_p50: f64,
}

struct Bench {
    args: Args,
    tr: Option<Tracer>,
    reqs: Requests,
    /// Per target: the snapshot being served.
    dbs: Vec<Database>,
    keys: Vec<Vec<PlanKey>>,
    servings: Vec<Serving>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    cursor: usize,
    lat: Hist,
    block_qps: Vec<f64>,
    samples: Vec<Sample>,
    qerror: Vec<f64>,
    setup_s: Vec<f64>,
    refresh_ms: Vec<f64>,
    layers: Layers,
    /// Wall seconds per phase of the run, for the report.
    phases: Vec<(&'static str, f64)>,
    /// Traced requests left in the current burst.
    burst_left: usize,
}

/// Times `f` as a span when tracing, else just runs it.
fn timed<T>(
    tr: &mut Option<Tracer>,
    name: Name,
    parent: u32,
    req: u32,
    f: impl FnOnce() -> T,
) -> T {
    match tr.as_mut() {
        Some(tr) => tr.time(name, parent, req, f),
        None => f(),
    }
}

fn open(tr: &mut Option<Tracer>, name: Name, parent: u32, req: u32) -> u32 {
    tr.as_mut().map_or(ROOT, |tr| tr.begin(name, parent, req))
}

fn close(tr: &mut Option<Tracer>, id: u32) {
    if let Some(tr) = tr.as_mut() {
        tr.end(id);
    }
}

fn counters() -> [u64; 4] {
    [
        obs::counter!("prm.plan.hit").get(),
        obs::counter!("prm.plan.miss").get(),
        obs::counter!("prm.plan.reduce.hit").get(),
        obs::counter!("prm.plan.reduce.miss").get(),
    ]
}

impl Bench {
    fn phase(&mut self, name: &'static str, since: Instant) {
        self.phases.push((name, since.elapsed().as_secs_f64()));
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(what);
        }
    }

    /// The offline → online handoff for one target: learn, save, load,
    /// assemble, precompile the workload's templates.
    fn handoff(&mut self, target: usize, rep: u32) -> Result<Serving, String> {
        let tr = &mut self.tr;
        let db = &self.dbs[target];
        let keys = &self.keys[target];
        let root = open(tr, Name::Setup, ROOT, rep);
        let config = PrmLearnConfig::default();
        let prm = timed(tr, Name::Learn, root, rep, || prmsel::learn_prm(db, &config))
            .map_err(err)?;
        if tr.is_some() {
            timed(tr, Name::Fit, root, rep, || prmsel::refresh_parameters(&prm, db))
                .map_err(err)?;
        }
        let schema = SchemaInfo::from_db(db).map_err(err)?;
        let mut file = Vec::new();
        timed(tr, Name::Save, root, rep, || prmsel::save_model(&prm, &schema, &mut file))
            .map_err(err)?;
        self.layers.file_bytes += file.len();
        let (prm, schema) =
            timed(tr, Name::Load, root, rep, || prmsel::load_model(&file[..]))
                .map_err(err)?;
        let est = timed(tr, Name::FromParts, root, rep, || {
            PrmEstimator::from_parts(prm, schema, "PRM")
        });
        let n = timed(tr, Name::Precompile, root, rep, || est.precompile(keys));
        close(tr, root);
        if n != keys.len() {
            return Err(format!("precompiled {n} of {} templates", keys.len()));
        }
        Ok(Serving { res: ResilientEstimator::new(est), twin: None })
    }

    /// Builds the traced run's twin and bench-held plans for a target,
    /// timing `QueryEvalBn::build` and `QueryPlan::compile_with`.
    fn twin_for(&mut self, target: usize, req: u32) -> Result<Twin, String> {
        let ep = self.servings[target].res.inner().epoch();
        let est = PrmEstimator::from_parts(ep.prm.clone(), ep.schema.clone(), "PRM");
        est.precompile(&self.keys[target]);
        let factors = FactorCache::new(&ep.prm);
        let folds = FoldCache::new();
        let mut plans = HashMap::new();
        for key in self.keys[target].clone() {
            let q = key.to_template_query();
            timed(&mut self.tr, Name::Unroll, ROOT, req, || {
                QueryEvalBn::build(&ep.prm, &ep.schema, &q)
            })
            .map_err(err)?;
            let ops0 = obs::counter!("prm.plan.ops.dynamic").get();
            let plan = timed(&mut self.tr, Name::Compile, ROOT, req, || {
                QueryPlan::compile_with(&ep.prm, &ep.schema, &factors, &q, Some(&folds))
            })
            .map_err(err)?;
            self.layers
                .dynamic_ops
                .push(obs::counter!("prm.plan.ops.dynamic").get() - ops0);
            self.layers.nodes.push(plan.n_nodes() as u64);
            plans.insert(key.stable_hash(), plan);
        }
        Ok(Twin { est, plans })
    }

    fn check_answer(&mut self, pos: usize, item: u32, r: Result<(f64, Rung), String>) {
        self.attempted += 1;
        match r {
            Ok((v, rung)) if exact(rung) && v.is_finite() && v >= 0.0 => {
                let every = match self.args.workload {
                    Workload::RangeMiss => SAMPLE_EVERY_RANGE,
                    _ => SAMPLE_EVERY,
                };
                if pos.is_multiple_of(every) && self.samples.len() < SAMPLE_CAP {
                    self.samples.push(Sample { item, bits: v.to_bits() });
                }
            }
            Ok((v, rung)) => self.fail(format!("request {pos}: {v} on rung {rung}")),
            Err(e) => self.fail(format!("request {pos}: {e}")),
        }
    }

    /// Untraced closed-loop reads: `n` requests, or until `deadline`.
    /// Every completed block of [`BLOCK`] requests yields one rate.
    fn reads(&mut self, n: usize, deadline: Option<Instant>) {
        let mut block_t0 = Instant::now();
        for k in 0..n {
            if k % BLOCK == 0 && deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let pos = self.cursor;
            let item = self.reqs.stream[pos % self.reqs.stream.len()];
            let serving = &self.servings[self.reqs.target[item as usize] as usize];
            let t0 = Instant::now();
            let r = request(&serving.res, &self.reqs.sqls[item as usize]);
            let t1 = Instant::now();
            self.lat.record(t1.duration_since(t0).as_nanos() as u64);
            if (k + 1) % BLOCK == 0 {
                self.block_qps
                    .push(BLOCK as f64 / t1.duration_since(block_t0).as_secs_f64());
                block_t0 = t1;
            }
            self.cursor += 1;
            self.check_answer(pos, item, r);
        }
    }

    /// A read in the traced phase. A burst of traced requests starts
    /// whenever the span store is no fuller than the share of the phase
    /// elapsed, so the bursts cover the whole phase.
    fn paced_read(&mut self, start: Instant, end: Instant) {
        if self.burst_left == 0 {
            let fill = self.tr.as_ref().map_or(1.0, Tracer::fill);
            let elapsed = start.elapsed().as_secs_f64() / (end - start).as_secs_f64();
            if fill < 1.0 && fill <= elapsed {
                self.burst_left = TRACE_BURST;
            }
        }
        if self.burst_left > 0 {
            self.burst_left -= 1;
            self.traced_read();
        } else {
            self.reads(1, None);
        }
    }

    /// Ends the untraced part of a traced run: hit-ratio counters since
    /// `c0` and the untraced latency base.
    fn end_untraced(&mut self, c0: [u64; 4]) {
        let c1 = counters();
        self.layers.counters = std::array::from_fn(|i| c1[i] - c0[i]);
        self.layers.untraced_p50 = self.lat.quantile(0.5);
    }

    /// One traced request: every layer's public call timed back to back
    /// on the same query, under one `request` span.
    fn traced_read(&mut self) {
        let pos = self.cursor;
        self.cursor += 1;
        let item = self.reqs.stream[pos % self.reqs.stream.len()];
        self.traced_request(pos, item);
    }

    fn traced_request(&mut self, pos: usize, item: u32) {
        let sql = &self.reqs.sqls[item as usize];
        let serving = &self.servings[self.reqs.target[item as usize] as usize];
        let twin = serving.twin.as_ref().expect("traced runs build a twin");
        let tr = self.tr.as_mut().expect("traced run");
        let req = pos as u32;
        let root = tr.begin(Name::Request, ROOT, req);
        let parsed = tr.time(Name::Parse, root, req, || reldb::parse_query(sql));
        let result = parsed.map_err(err).and_then(|q| {
            let ep = tr.time(Name::Pin, root, req, || twin.est.epoch());
            let valid =
                tr.time(Name::Validate, root, req, || ep.schema.validate_query(&q));
            // The allocation-free form of `PlanKey::of(q).stable_hash()`
            // that the plan-cache lookup uses.
            let hash = tr.time(Name::Key, root, req, || PlanKey::stable_hash_of(&q));
            let plan = twin.plans.get(&hash).ok_or("no held plan for the template")?;
            // The three estimates run in alternating order so that the
            // cache warmth one call leaves for the next cancels out in
            // the medians of their differences.
            let (outcome, plain, replay);
            if pos.is_multiple_of(2) {
                outcome = tr
                    .time(Name::Resilient, root, req, || serving.res.estimate_query(&q));
                plain = tr.time(Name::Estimate, root, req, || twin.est.estimate(&q));
                replay =
                    tr.time(Name::Replay, root, req, || plan.estimate(&ep.schema, &q));
            } else {
                replay =
                    tr.time(Name::Replay, root, req, || plan.estimate(&ep.schema, &q));
                plain = tr.time(Name::Estimate, root, req, || twin.est.estimate(&q));
                outcome = tr
                    .time(Name::Resilient, root, req, || serving.res.estimate_query(&q));
            }
            valid.map_err(err)?;
            let v = outcome.result.map_err(err)?;
            let same =
                |r: prmsel::Result<f64>| r.is_ok_and(|x| x.to_bits() == v.to_bits());
            if !same(plain) || !same(replay) {
                return Err(format!("layers disagree with the served answer {v}"));
            }
            Ok((v, outcome.rung))
        });
        tr.end(root);
        self.check_answer(pos, item, result);
    }

    /// Scores the samples taken on the served snapshot — q-error against
    /// `reldb::result_size`, each distinct request once — checks up to
    /// `identity` of them bit-for-bit against `estimate_uncached`, and
    /// empties the sample store.
    fn verify_samples(&mut self, identity: usize) -> Result<(), String> {
        let mut scored = HashSet::new();
        let stride = self.samples.len().div_ceil(identity.max(1)).max(1);
        let mut samples = std::mem::take(&mut self.samples);
        for (i, &Sample { item, bits }) in samples.iter().enumerate() {
            let target = self.reqs.target[item as usize] as usize;
            let q = reldb::parse_query(&self.reqs.sqls[item as usize]).map_err(err)?;
            if scored.insert(item) {
                let t = reldb::result_size(&self.dbs[target], &q).map_err(err)?;
                let (e, t) = (f64::from_bits(bits).max(1.0), (t as f64).max(1.0));
                self.qerror.push((e / t).max(t / e));
            }
            if identity > 0 && i.is_multiple_of(stride) {
                self.attempted += 1;
                let u = self.servings[target]
                    .res
                    .inner()
                    .estimate_uncached(&q)
                    .map_err(err)?;
                if u.to_bits() != bits {
                    self.fail(format!(
                        "item {item}: served {} != uncached {u}",
                        f64::from_bits(bits)
                    ));
                }
            }
        }
        // Hand the store back with its preallocated capacity.
        samples.clear();
        self.samples = samples;
        Ok(())
    }

    /// One synchronous maintenance cycle on `target`: the same sequence
    /// `maintain::run_cycle` runs, on the client thread. The next
    /// snapshot and its diff are made first and are not part of the
    /// refresh time.
    fn refresh(
        &mut self,
        target: usize,
        writer: &mut TbWriter,
        state: &mut DeltaState,
        cycle: u32,
    ) -> Result<(), String> {
        let next = writer.next();
        let tr = &mut self.tr;
        let root = open(tr, Name::Cycle, ROOT, cycle);
        let old = &self.dbs[target];
        let batch = timed(tr, Name::Diff, root, cycle, || UpdateBatch::diff(old, &next))
            .map_err(err)?;
        self.layers.batch_rows.push(batch.rows());
        let est = self.servings[target].res.inner();
        let seq0 = est.epoch_seq();
        let t0 = Instant::now();
        timed(tr, Name::Apply, root, cycle, || state.apply(&batch)).map_err(err)?;
        let ep = est.epoch();
        let fresh =
            timed(tr, Name::Refit, root, cycle, || state.refit(&ep.prm)).map_err(err)?;
        timed(tr, Name::Drift, root, cycle, || state.drift(&fresh)).map_err(err)?;
        timed(tr, Name::Replace, root, cycle, || {
            est.replace_model(fresh, ep.schema.clone())
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        close(tr, root);
        drop(ep);
        let seq = est.epoch_seq();
        self.refresh_ms.push(ms);
        self.attempted += 1;
        if seq != seq0 + 1 {
            self.fail(format!("cycle {cycle}: epoch {seq0} -> {seq}"));
        }
        self.dbs[target] = next;
        if cycle.is_multiple_of(MODEL_CHECK_EVERY) {
            self.attempted += 1;
            let ep = self.servings[target].res.inner().epoch();
            let want =
                prmsel::refresh_parameters(&ep.prm, &self.dbs[target]).map_err(err)?;
            let (mut a, mut b) = (Vec::new(), Vec::new());
            prmsel::save_model(&ep.prm, &ep.schema, &mut a).map_err(err)?;
            prmsel::save_model(&want, &ep.schema, &mut b).map_err(err)?;
            if a != b {
                self.fail(format!("cycle {cycle}: served model != refresh_parameters"));
            }
        }
        if self.servings[target].twin.is_some() {
            self.servings[target].twin = Some(self.twin_for(target, cycle)?);
            self.first_reads(target, cycle);
        }
        Ok(())
    }

    /// Traced runs: the first read of each template after a swap.
    fn first_reads(&mut self, target: usize, cycle: u32) {
        let reps: Vec<(String, u8)> = self.reqs.representatives.clone();
        for (sql, t) in reps {
            if t as usize != target {
                continue;
            }
            let res = &self.servings[target].res;
            let tr = self.tr.as_mut().expect("traced run");
            let r = tr.time(Name::FirstRead, ROOT, cycle, || request(res, &sql));
            self.attempted += 1;
            if !matches!(r, Ok((v, rung)) if exact(rung) && v.is_finite()) {
                self.fail(format!("first read after swap {cycle}: {r:?}"));
            }
        }
    }

    /// Every setup repetition: handoff of each target (+ `DeltaState`
    /// for `maintain-mix`) and the warm pass. Returns the delta state.
    fn setup(&mut self) -> Result<Option<DeltaState>, String> {
        let reps = if self.tr.is_some() { 1 } else { SETUP_REPS };
        let mut state = None;
        for rep in 0..reps {
            self.servings.clear();
            self.samples.clear();
            self.layers.file_bytes = 0;
            state = None;
            let t0 = Instant::now();
            for target in 0..self.dbs.len() {
                let serving = self.handoff(target, rep as u32)?;
                self.servings.push(serving);
            }
            if self.args.workload == Workload::MaintainMix {
                let ep = self.servings[0].res.inner().epoch();
                state = Some(DeltaState::build(&ep.prm, &self.dbs[0]).map_err(err)?);
            }
            self.warm();
            self.setup_s.push(t0.elapsed().as_secs_f64());
        }
        if self.tr.is_some() {
            for target in 0..self.dbs.len() {
                let twin = self.twin_for(target, 0)?;
                self.servings[target].twin = Some(twin);
            }
            // Warm the twins and held plans the same way, then discard
            // the warm pass's spans.
            let mark = self.tr.as_ref().map_or(0, |t| t.spans.len());
            for k in 0..self.warm_len() {
                self.traced_request(1, self.warm_item(k));
            }
            if let Some(tr) = self.tr.as_mut() {
                tr.spans.truncate(mark);
            }
        }
        Ok(state)
    }

    fn warm_len(&self) -> usize {
        match self.args.workload {
            Workload::RangeMiss => 256,
            _ => self.reqs.sqls.len(),
        }
    }

    /// The untimed warm pass: every hot request once, or for
    /// `range-miss` 256 requests from the end of the stream (so the
    /// timed reads, which start at its head, stay memo misses).
    fn warm_item(&self, k: usize) -> u32 {
        match self.args.workload {
            Workload::RangeMiss => {
                self.reqs.stream[self.reqs.stream.len() - self.warm_len() + k]
            }
            _ => k as u32,
        }
    }

    fn warm(&mut self) {
        for k in 0..self.warm_len() {
            let item = self.warm_item(k);
            let serving = &self.servings[self.reqs.target[item as usize] as usize];
            let r = request(&serving.res, &self.reqs.sqls[item as usize]);
            // Position 0: every warm answer joins the checked sample.
            self.check_answer(0, item, r);
        }
    }
}

/// Nearest-rank quantile of `v`, `NaN` when empty.
fn quantile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    s[((p * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1]
}

fn mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `hot-sql` or `range-miss`: timed reads for the whole run, then
/// refresh cycles on the TB model (the last target).
fn run_reads(b: &mut Bench) -> Result<(), String> {
    let seconds = Duration::from_secs_f64(b.args.seconds);
    let start = Instant::now();
    if b.tr.is_some() {
        let c0 = counters();
        b.reads(usize::MAX, Some(start + seconds.mul_f64(0.4)));
        b.end_untraced(c0);
        let (from, deadline) = (Instant::now(), start + seconds);
        while Instant::now() < deadline {
            b.paced_read(from, deadline);
        }
    } else {
        b.reads(usize::MAX, Some(start + seconds));
    }
    b.phase("reads", start);
    let t = Instant::now();
    b.verify_samples(IDENTITY_CHECKS)?;
    b.phase("verify", t);
    let t = Instant::now();
    let tb = b.dbs.len() - 1;
    let mut writer = TbWriter::new(&b.dbs[tb], b.args.seed);
    let mut state = {
        let ep = b.servings[tb].res.inner().epoch();
        DeltaState::build(&ep.prm, &b.dbs[tb]).map_err(err)?
    };
    for cycle in 1..=TAIL_CYCLES {
        b.refresh(tb, &mut writer, &mut state, cycle)?;
    }
    b.phase("refresh", t);
    Ok(())
}

/// Runs `maintain-mix`: refresh, then a fixed number of reads on the new
/// epoch, until the run's time is up.
fn run_maintain(b: &mut Bench, mut state: DeltaState) -> Result<(), String> {
    let t = Instant::now();
    b.verify_samples(IDENTITY_CHECKS)?;
    b.phase("verify", t);
    let mut writer = TbWriter::new(&b.dbs[0], b.args.seed);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(b.args.seconds);
    let traced_from = start + Duration::from_secs_f64(b.args.seconds * 0.4);
    let c0 = counters();
    let mut counted = false;
    let mut cycle = 0;
    while Instant::now() < deadline {
        cycle += 1;
        b.refresh(0, &mut writer, &mut state, cycle)?;
        let traced = b.tr.is_some() && Instant::now() >= traced_from;
        if traced && !counted {
            b.end_untraced(c0);
            counted = true;
        }
        if traced {
            for _ in 0..READS_PER_CYCLE {
                b.paced_read(traced_from, deadline);
            }
        } else {
            b.reads(READS_PER_CYCLE, None);
        }
        b.verify_samples(IDENTITY_PER_CYCLE)?;
    }
    b.phase("cycles", start);
    if b.tr.is_some() && !counted {
        b.end_untraced(c0);
    }
    Ok(())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn stamp(b: &Bench, width: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rows: Vec<String> = b
        .dbs
        .iter()
        .flat_map(|db| {
            db.tables().iter().map(|t| format!("{}:{}", json_str(t.name()), t.n_rows()))
        })
        .collect();
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"pool_width\":{width},\
         \"profile\":{},\"rows\":{{{}}},\"templates\":{},\"distinct_requests\":{},\
         \"requests\":{},\"throughput_blocks\":{},\"qerror_samples\":{},\"setup_reps\":{},\
         \"refresh_cycles\":{},\"git_rev\":{},\"src_digest\":{}}}",
        json_str(b.args.workload.name()),
        b.args.seed,
        b.args.seconds,
        u8::from(b.args.trace),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        rows.join(","),
        b.reqs.representatives.len(),
        b.reqs.sqls.len(),
        b.lat.len(),
        b.block_qps.len(),
        b.qerror.len(),
        b.setup_s.len(),
        b.refresh_ms.len(),
        json_str(&env("PERFBENCH_GIT_REV")),
        json_str(&env("PERFBENCH_SRC_DIGEST")),
    )
}

/// `(name, value, unit, samples)` of every end-to-end metric.
fn end_to_end(b: &Bench) -> Vec<(&'static str, f64, &'static str, usize)> {
    let n = b.lat.len() as usize;
    let (p50, p99) = (b.lat.quantile(0.5) / 1e3, b.lat.quantile(0.99) / 1e3);
    let model_bytes: usize = b.servings.iter().map(|s| s.res.size_bytes()).sum();
    vec![
        ("setup_s", quantile(&b.setup_s, 0.5), "s", b.setup_s.len()),
        ("estimate_p50_us", p50, "us", n),
        ("estimate_p99_us", p99, "us", n),
        ("throughput_qps", quantile(&b.block_qps, 0.5), "req/s", b.block_qps.len()),
        ("qerror_p50", quantile(&b.qerror, 0.5), "ratio", b.qerror.len()),
        ("qerror_p99", quantile(&b.qerror, 0.99), "ratio", b.qerror.len()),
        ("model_bytes", model_bytes as f64, "B", b.servings.len()),
        ("peak_rss_mb", peak_rss_mb(), "MB", 1),
        ("refresh_p50_ms", quantile(&b.refresh_ms, 0.5), "ms", b.refresh_ms.len()),
    ]
}

fn ratio(hit: u64, miss: u64) -> f64 {
    hit as f64 / (hit + miss).max(1) as f64
}

/// One traced request: its stream position, its `request` span's
/// duration and its child spans' durations by name (ns).
struct Traced {
    pos: u32,
    total: f64,
    child: [f64; 8],
}

impl Traced {
    fn get(&self, name: Name) -> f64 {
        self.child[name as usize]
    }

    /// `estimate_query` beyond `PrmEstimator::estimate`: the ladder.
    fn ladder(&self) -> f64 {
        self.get(Name::Resilient) - self.get(Name::Estimate)
    }

    /// `estimate` beyond the layers timed inside it: plan-cache lookup
    /// and telemetry hooks.
    fn unattributed(&self) -> f64 {
        self.get(Name::Estimate)
            - self.get(Name::Validate)
            - self.get(Name::Key)
            - self.get(Name::Pin)
            - self.get(Name::Replay)
    }
}

/// Every traced request that got past parsing, with its child spans.
fn traced_requests(tr: &Tracer) -> Vec<Traced> {
    let mut out: Vec<Traced> = Vec::new();
    let mut root = ROOT;
    for (i, s) in tr.spans.iter().enumerate() {
        if s.name == Name::Request {
            root = i as u32;
            out.push(Traced { pos: s.req, total: s.ns() as f64, child: [0.0; 8] });
        } else if s.parent == root && root != ROOT {
            if let Some(last) = out.last_mut() {
                last.child[s.name as usize] = s.ns() as f64;
            }
        }
    }
    out.retain(|r| r.get(Name::Estimate) > 0.0);
    out
}

/// `(name, value, unit, count)` of every per-layer metric, from the spans.
fn per_layer(b: &Bench) -> Vec<(&'static str, f64, &'static str, usize)> {
    let tr = b.tr.as_ref().expect("traced run");
    let reqs = traced_requests(tr);
    let ladder: Vec<f64> = reqs.iter().map(Traced::ladder).collect();
    let unattributed: Vec<f64> = reqs.iter().map(Traced::unattributed).collect();
    let traced_prod: Vec<f64> =
        reqs.iter().map(|r| r.get(Name::Parse) + r.get(Name::Resilient)).collect();
    let dur =
        |n: Name| -> Vec<f64> { tr.durations(n).iter().map(|&d| d as f64).collect() };
    let p50 = |n: Name| quantile(&dur(n), 0.5);
    // Setup layers run once per model: report their total over the
    // setup (both models on range-miss), the share `setup_s` pays.
    let sum = |n: Name| dur(n).iter().sum::<f64>();
    let n = |name: Name| dur(name).len();
    let c = b.layers.counters;
    let l = &b.layers;
    vec![
        ("sql.parse_ns", p50(Name::Parse), "ns", n(Name::Parse)),
        ("resilient.ladder_ns", quantile(&ladder, 0.5), "ns", ladder.len()),
        ("estimator.estimate_ns", p50(Name::Estimate), "ns", n(Name::Estimate)),
        ("schema.validate_ns", p50(Name::Validate), "ns", n(Name::Validate)),
        ("plan.key_ns", p50(Name::Key), "ns", n(Name::Key)),
        ("swap.pin_ns", p50(Name::Pin), "ns", n(Name::Pin)),
        ("plan.replay_p50_ns", p50(Name::Replay), "ns", n(Name::Replay)),
        ("plan.replay_p99_ns", quantile(&dur(Name::Replay), 0.99), "ns", n(Name::Replay)),
        (
            "estimator.unattributed_ns",
            quantile(&unattributed, 0.5),
            "ns",
            unattributed.len(),
        ),
        ("plan.cache_hit_ratio", ratio(c[0], c[1]), "ratio", (c[0] + c[1]) as usize),
        ("plan.memo_hit_ratio", ratio(c[2], c[3]), "ratio", (c[2] + c[3]) as usize),
        ("plan.dynamic_ops", mean(&l.dynamic_ops), "count", l.dynamic_ops.len()),
        ("qebn.nodes", mean(&l.nodes), "count", l.nodes.len()),
        ("qebn.unroll_us", p50(Name::Unroll) / 1e3, "us", n(Name::Unroll)),
        ("plan.compile_us", p50(Name::Compile) / 1e3, "us", n(Name::Compile)),
        ("plan.precompile_ms", sum(Name::Precompile) / 1e6, "ms", n(Name::Precompile)),
        ("learn.learn_s", sum(Name::Learn) / 1e9, "s", n(Name::Learn)),
        ("learn.fit_ms", sum(Name::Fit) / 1e6, "ms", n(Name::Fit)),
        ("persist.save_ms", sum(Name::Save) / 1e6, "ms", n(Name::Save)),
        ("persist.load_ms", sum(Name::Load) / 1e6, "ms", n(Name::Load)),
        ("persist.model_file_bytes", l.file_bytes as f64, "B", n(Name::Save)),
        ("delta.diff_ms", p50(Name::Diff) / 1e6, "ms", n(Name::Diff)),
        ("delta.batch_rows", mean(&l.batch_rows), "count", l.batch_rows.len()),
        ("delta.apply_ms", p50(Name::Apply) / 1e6, "ms", n(Name::Apply)),
        ("delta.refit_ms", p50(Name::Refit) / 1e6, "ms", n(Name::Refit)),
        ("delta.drift_ms", p50(Name::Drift) / 1e6, "ms", n(Name::Drift)),
        ("swap.replace_ms", p50(Name::Replace) / 1e6, "ms", n(Name::Replace)),
        ("swap.first_read_us", p50(Name::FirstRead) / 1e3, "us", n(Name::FirstRead)),
        (
            "trace.overhead_frac",
            quantile(&traced_prod, 0.5) / l.untraced_p50 - 1.0,
            "ratio",
            traced_prod.len(),
        ),
    ]
}

/// Request-path label for the unattributed-remainder table.
fn path_of(b: &Bench, pos: u32) -> &'static str {
    let item = b.reqs.stream[pos as usize % b.reqs.stream.len()];
    let t = b.reqs.template[item as usize] as usize;
    match b.args.workload {
        Workload::RangeMiss if t < gen::CENSUS_RANGE.len() => "census-range",
        Workload::RangeMiss => "tb-range-join",
        _ => match gen::TB_HOT[t].from.matches(',').count() {
            0 => "tb-select",
            1 => "tb-join2",
            _ => "tb-join3",
        },
    }
}

/// Prints the span summary and, per request path, the p50 of three
/// unattributed remainders: the `request` span's self time (benchmark
/// overhead), the ladder, and `estimate` beyond its timed layers.
fn print_trace_report(b: &Bench) {
    let tr = b.tr.as_ref().expect("traced run");
    println!("spans: {} recorded", tr.spans.len());
    println!("{:<28} {:>9} {:>14} {:>14}", "span", "count", "total_ms", "self_ms");
    for (name, count, total, own) in tr.summary() {
        println!(
            "{:<28} {count:>9} {:>14.3} {:>14.3}",
            trace::NAMES[name as usize],
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let reqs = traced_requests(tr);
    let mut paths: Vec<&str> = reqs.iter().map(|r| path_of(b, r.pos)).collect();
    paths.sort_unstable();
    paths.dedup();
    println!(
        "{:<16} {:>9} {:>18} {:>18} {:>22}",
        "path",
        "requests",
        "bench_self_p50_ns",
        "ladder_rest_p50_ns",
        "estimate_rest_p50_ns"
    );
    for path in paths {
        let rows: Vec<&Traced> =
            reqs.iter().filter(|r| path_of(b, r.pos) == path).collect();
        let own: Vec<f64> =
            rows.iter().map(|r| r.total - r.child.iter().sum::<f64>()).collect();
        let ladder: Vec<f64> = rows.iter().map(|r| r.ladder()).collect();
        let rest: Vec<f64> = rows.iter().map(|r| r.unattributed()).collect();
        println!(
            "{path:<16} {:>9} {:>18} {:>18} {:>22}",
            rows.len(),
            quantile(&own, 0.5),
            quantile(&ladder, 0.5),
            quantile(&rest, 0.5)
        );
    }
}

fn build(args: Args) -> Result<Bench, String> {
    let t = Instant::now();
    let tb = workloads::tb::tb_database(TB_DATA_SEED);
    let (dbs, reqs) = match args.workload {
        Workload::RangeMiss => {
            let census =
                workloads::census::census_database(CENSUS_ROWS, CENSUS_DATA_SEED);
            let reqs = gen::range_miss(&census, &tb, args.seed, RANGE_STREAM);
            (vec![census, tb], reqs)
        }
        _ => {
            let reqs = gen::hot_sql(&tb, args.seed, HOT_STREAM);
            (vec![tb], reqs)
        }
    };
    let mut keys = vec![Vec::new(); dbs.len()];
    for (sql, target) in &reqs.representatives {
        keys[*target as usize].push(PlanKey::of(&reldb::parse_query(sql).map_err(err)?));
    }
    let tr = args.trace.then(|| Tracer::new(SPAN_CAP));
    Ok(Bench {
        args,
        tr,
        reqs,
        dbs,
        keys,
        servings: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        cursor: 0,
        lat: Hist::new(),
        block_qps: Vec::new(),
        samples: Vec::with_capacity(SAMPLE_CAP),
        qerror: Vec::new(),
        setup_s: Vec::new(),
        refresh_ms: Vec::new(),
        layers: Layers::default(),
        phases: vec![("generate", t.elapsed().as_secs_f64())],
        burst_left: 0,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload hot-sql|range-miss|maintain-mix --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // One pool thread: with two, learning and `replace_model` also wait
    // on the second core, which other tenants of a small shared host load
    // unevenly; interleaved runs spread census setup 2.9-3.4 s at width 2
    // against 4.5-4.7 s at width 1.
    let width = 1;
    par::set_threads(Some(width));
    let workload = args.workload;
    let mut b = match build(args) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: input generation failed: {e}");
            std::process::exit(2);
        }
    };
    let t = Instant::now();
    let outcome = b.setup().and_then(|state| {
        b.phase("setup", t);
        match workload {
            Workload::MaintainMix => {
                run_maintain(&mut b, state.expect("maintain-mix state"))
            }
            _ => run_reads(&mut b),
        }
    });
    if let Err(e) = outcome {
        b.fail(format!("run aborted: {e}"));
    }
    println!("stamp {}", stamp(&b, width));
    let phases: Vec<String> =
        b.phases.iter().map(|(name, secs)| format!("{name}={secs:.2}s")).collect();
    println!("phases {}", phases.join(" "));
    let metrics = if b.args.trace {
        print_trace_report(&b);
        let path = std::path::PathBuf::from(".perfbench_out")
            .join(format!("trace-{}.json", workload.name()));
        match b.tr.as_ref().expect("traced run").write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        per_layer(&b)
    } else {
        end_to_end(&b)
    };
    for (name, value, unit, n) in &metrics {
        println!("metric {name:<26} {value:>16.4} {unit:<6} n={n}");
    }
    let error_rate = b.failed as f64 / b.attempted.max(1) as f64;
    println!("error_rate {error_rate} ({} of {} attempted)", b.failed, b.attempted);
    for e in &b.errors {
        println!("error {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            let v = if value.is_finite() { format!("{value}") } else { "null".into() };
            format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(name), json_str(unit))
        })
        .collect();
    let correct = b.failed == 0 && metrics.iter().all(|m| m.1.is_finite());
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        b.attempted.max(1),
        b.failed,
        body.join(",")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
