//! The traced run's tooling: an in-memory span recorder and the
//! summariser that turns its spans into per-layer numbers.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions — the program itself carries no
//! timers. Each op is a root span (the `Session`/`Client` call); right
//! after that call the benchmark replays the op's layer calls on the
//! same inputs, each as a child span of the root sharing its op id.
//! Spans stay in memory until the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `ipf.fit` or `op.semi_open`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the causing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects spans of one thread. Disabled recorders keep nothing, so the
/// untraced run pays only for a branch.
#[derive(Debug, Clone)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder measuring from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Recorder {
        Recorder {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record an interval that was already measured; returns its index
    /// (or `None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Time `f` as a span (always runs `f`).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, op, parent, start, Instant::now());
        out
    }

    /// Append another recorder's spans (parent links are re-based).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as CSV: `id,parent,op,name,start_ns,end_ns`,
    /// with an empty parent for root spans.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id,parent,op,name,start_ns,end_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id},{parent},{},{},{},{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-layer view of a span dump.
pub struct Summary<'a> {
    spans: &'a [Span],
    /// Root (op) span indices.
    roots: Vec<usize>,
    /// Children per root index.
    children: HashMap<usize, Vec<usize>>,
}

impl<'a> Summary<'a> {
    /// Index the spans: roots are spans named `op.*` without a parent.
    pub fn new(spans: &'a [Span]) -> Summary<'a> {
        let roots = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name.starts_with("op."))
            .map(|(i, _)| i)
            .collect();
        let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(i);
            }
        }
        Summary {
            spans,
            roots,
            children,
        }
    }

    /// Number of ops (root spans).
    pub fn ops(&self) -> usize {
        self.roots.len()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Median duration (ms) of spans named `name`; 0 when there are none.
    pub fn median_ms(&self, name: &str) -> f64 {
        median_or_zero(&self.durations_ms(name))
    }

    /// Total time (ms) in spans named `name`, per op.
    pub fn per_op_ms(&self, name: &str) -> f64 {
        let total = self.durations_ms(name).iter().fold(0.0, |a, b| a + b);
        total / self.ops().max(1) as f64
    }

    /// Median over the ops that have children named `name` of the
    /// per-op total in them (ms); 0 when no op has one.
    pub fn median_per_op_ms(&self, name: &str) -> f64 {
        let totals: Vec<f64> = self
            .roots
            .iter()
            .filter_map(|r| {
                let kids = self.children.get(r)?;
                let v: Vec<f64> = kids
                    .iter()
                    .filter(|&&k| self.spans[k].name == name)
                    .map(|&k| self.spans[k].ms())
                    .collect();
                (!v.is_empty()).then(|| v.iter().sum())
            })
            .collect();
        median_or_zero(&totals)
    }

    /// Median root duration (ms) of ops named `name` (all ops for `None`).
    pub fn root_median_ms(&self, name: Option<&str>) -> f64 {
        let v: Vec<f64> = self
            .roots
            .iter()
            .map(|&r| &self.spans[r])
            .filter(|s| name.is_none_or(|n| s.name == n))
            .map(Span::ms)
            .collect();
        median_or_zero(&v)
    }

    /// Per op: root duration minus the time its child spans cover (the
    /// union of their intervals), i.e. the glue no replayed layer call
    /// accounts for. Median over ops, in ms.
    pub fn unattributed_median_ms(&self) -> f64 {
        let v: Vec<f64> = self
            .roots
            .iter()
            .map(|r| {
                let mut iv: Vec<(u64, u64)> = self
                    .children
                    .get(r)
                    .map(|k| {
                        k.iter()
                            .map(|&i| (self.spans[i].start_ns, self.spans[i].end_ns))
                            .collect()
                    })
                    .unwrap_or_default();
                self.spans[*r].ms() - union_ns(&mut iv) as f64 / 1e6
            })
            .collect();
        median_or_zero(&v)
    }

    /// Share (0–1) of all root time that children whose name starts with
    /// `prefix` cover, summed over ops.
    pub fn share(&self, prefix: &str) -> f64 {
        let root: f64 = self.roots.iter().map(|&r| self.spans[r].ms()).sum();
        let layer: f64 = self
            .roots
            .iter()
            .filter_map(|r| self.children.get(r))
            .flatten()
            .filter(|&&k| self.spans[k].name.starts_with(prefix))
            .map(|&k| self.spans[k].ms())
            .sum();
        if root > 0.0 {
            layer / root
        } else {
            0.0
        }
    }
}

/// Length covered by the union of `[start, end)` intervals.
fn union_ns(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    covered + cur.map_or(0, |(s, e)| e - s)
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        crate::common::median(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn union_merges_overlaps() {
        let mut iv = vec![(0, 10), (5, 15), (20, 30)];
        assert_eq!(union_ns(&mut iv), 25);
    }

    #[test]
    fn unattributed_is_root_minus_children() {
        let origin = Instant::now();
        let mut r = Recorder::new(origin, true);
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let root = r.record("op.read", 0, None, at(0), at(10));
        r.record("exec.sort", 0, root, at(10), at(14));
        r.record("sql.parse", 0, root, at(14), at(15));
        let s = Summary::new(r.spans());
        assert_eq!(s.ops(), 1);
        assert!((s.unattributed_median_ms() - 5.0).abs() < 1e-9);
        assert!((s.share("exec.") - 0.4).abs() < 1e-9);
        assert!((s.median_per_op_ms("sql.parse") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), false);
        assert_eq!(r.time("x", 0, None, || 7), 7);
        assert!(r.spans().is_empty());
    }
}
