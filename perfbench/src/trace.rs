//! In-memory span recorder for the traced run. Spans are timed from
//! outside the program, around calls into its public entry points; they
//! are kept in memory and written out as JSON when the run ends.

use std::io::Write;
use std::time::Instant;

/// Span names. The per-layer metric each one feeds is listed in
/// `perfbench/README.md`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Name {
    Request,
    Parse,
    Pin,
    Validate,
    Key,
    Resilient,
    Estimate,
    Replay,
    Setup,
    Learn,
    Fit,
    Save,
    Load,
    FromParts,
    Precompile,
    Unroll,
    Compile,
    Cycle,
    Diff,
    Apply,
    Refit,
    Drift,
    Replace,
    FirstRead,
}

pub const NAMES: [&str; 24] = [
    "request",
    "sql.parse_query",
    "swap.epoch",
    "schema.validate_query",
    "plan.key",
    "resilient.estimate_query",
    "estimator.estimate",
    "plan.replay",
    "setup",
    "learn.learn_prm",
    "learn.refresh_parameters",
    "persist.save_model",
    "persist.load_model",
    "estimator.from_parts",
    "estimator.precompile",
    "qebn.build",
    "plan.compile_with",
    "cycle",
    "delta.diff",
    "delta.apply",
    "delta.refit",
    "delta.drift",
    "swap.replace_model",
    "swap.first_read",
];

/// No parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub req: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    cap: usize,
}

impl Tracer {
    /// A recorder that keeps at most `cap` spans.
    pub fn new(cap: usize) -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::with_capacity(cap.min(1 << 16)), cap }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Share of the span store in use.
    pub fn fill(&self) -> f64 {
        self.spans.len() as f64 / self.cap as f64
    }

    pub fn begin(&mut self, name: Name, parent: u32, req: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span { name, parent, req, start, end: start });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end = now;
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: Name,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: Name) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).collect()
    }

    /// Per span name: (count, total ns, total self ns), where self time is
    /// the span's duration minus the time its child spans cover.
    pub fn summary(&self) -> Vec<(Name, u64, u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.ns();
            }
        }
        let mut out: Vec<(Name, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.ns().saturating_sub(child[i]);
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += s.ns();
                    e.3 += own;
                }
                None => out.push((s.name, 1, s.ns(), own)),
            }
        }
        out
    }

    /// Writes every span as a JSON array to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent =
                if s.parent == ROOT { "null".to_owned() } else { s.parent.to_string() };
            write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                NAMES[s.name as usize], s.start, s.end, s.req
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}
