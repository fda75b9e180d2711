//! Metric names, units, and the result record every workload returns.

use std::collections::HashMap;

use mosaic_core::{CacheStats, Table};

use crate::trace::{Recorder, Summary};

/// End-to-end metrics every workload reports (the untraced run), as
/// `(name, unit)`. These are the names `BENCHMARK.json` lists.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("closed_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics only some workloads have (an op class or an
/// answer-quality measure the others lack). They are printed in the run
/// record, not in the final metrics object.
pub const WORKLOAD_SPECIFIC: &[(&str, &str)] = &[
    ("semi_open_p50_ms", "ms"),
    ("open_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("semi_open_pct_err", "%"),
    ("open_pct_err", "%"),
    ("fail_ratio", "ratio"),
];

/// Per-layer metrics of the traced run, as `(name, unit)`, that every
/// workload measures. These are the names `BENCHMARK.json` lists; a count
/// or ratio of a layer a workload does not use reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cache.hit_ratio", "ratio"),
    ("cache.plan_hit_ratio", "ratio"),
    ("cache.invalidations_per_kop", "1/kop"),
    ("cache.evictions_per_kop", "1/kop"),
    ("cache.bytes", "B"),
    ("exec.filter_agg_ms", "ms"),
    ("exec.group_by_ms", "ms"),
    ("exec.rows_examined_per_row", "ratio"),
    ("parallel.worker_peak", "count"),
    ("ipf.iterations", "count"),
    ("ipf.converged_ratio", "ratio"),
    ("open.model_cache_hit_ratio", "ratio"),
    ("storage.load_ms", "ms"),
    ("storage.table_mb", "MB"),
    ("protocol.bytes_per_op", "B"),
    ("admission.permit_peak", "count"),
    ("server.rejected", "count"),
    ("session.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer times of layers only some workloads run (0 elsewhere, since
/// nothing was timed). Every traced run prints them in the run record,
/// not in the final metrics object, so no time there reads a constant 0.
pub const LAYER_SPECIFIC: &[(&str, &str)] = &[
    ("sql.parse_us", "us"),
    ("plan.plan_us", "us"),
    ("exec.sort_ms", "ms"),
    ("exec.topk_ms", "ms"),
    ("exec.join_ms", "ms"),
    ("ipf.build_ms", "ms"),
    ("ipf.fit_ms", "ms"),
    ("swg.fit_s", "s"),
    ("swg.generate_ms", "ms"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
];

/// The executor shape an op's plan has; names its `exec.*` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecKind {
    /// Filter plus scalar aggregate.
    FilterAgg,
    /// GROUP BY.
    GroupBy,
    /// Full ORDER BY.
    Sort,
    /// ORDER BY … LIMIT (fused TopK).
    TopK,
    /// Equi-join.
    Join,
}

impl ExecKind {
    /// Every kind.
    pub const ALL: [ExecKind; 5] = [
        ExecKind::FilterAgg,
        ExecKind::GroupBy,
        ExecKind::Sort,
        ExecKind::TopK,
        ExecKind::Join,
    ];

    /// The span name of this kind's executor calls, and the name of
    /// their per-layer metric.
    pub fn names(self) -> (&'static str, &'static str) {
        match self {
            ExecKind::FilterAgg => ("exec.filter_agg", "exec.filter_agg_ms"),
            ExecKind::GroupBy => ("exec.group_by", "exec.group_by_ms"),
            ExecKind::Sort => ("exec.sort", "exec.sort_ms"),
            ExecKind::TopK => ("exec.topk", "exec.topk_ms"),
            ExecKind::Join => ("exec.join", "exec.join_ms"),
        }
    }

    /// The span name of this kind's executor calls.
    pub fn span(self) -> &'static str {
        self.names().0
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted in the timed window.
    pub attempted: u64,
    /// Ops that failed or returned a wrong answer.
    pub failed: u64,
    /// Metric values by name.
    pub values: HashMap<&'static str, f64>,
    /// Facts about the run (sample counts, sizes), printed as the run
    /// record.
    pub info: Vec<(String, String)>,
    /// The traced run's spans.
    pub spans: Option<Recorder>,
}

impl Report {
    /// Set a metric; `name` must be one of the declared names.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(WORKLOAD_SPECIFIC)
                .chain(PER_LAYER)
                .chain(LAYER_SPECIFIC)
                .any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// A metric's value (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` of each of `names`, as a run emits them: a
    /// layer the workload does not exercise reads 0.
    pub fn metrics<'a>(&self, names: &[(&'a str, &'a str)]) -> Vec<(&'a str, f64, &'a str)> {
        names
            .iter()
            .map(|&(name, unit)| (name, self.get(name), unit))
            .collect()
    }

    /// Add a fact to the run record.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// `fail_ratio`: failures over attempts.
    pub fn finish_counts(&mut self) {
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("fail_ratio", ratio);
    }

    /// Per-layer metrics every workload derives the same way: span
    /// summaries, result/plan-cache counter deltas over the traced window
    /// of `ops` ops, and the engine's worker-thread peak before tracing
    /// began (replayed calls would add their own workers to it).
    pub fn set_common_layers(
        &mut self,
        summary: &Summary,
        before: &CacheStats,
        after: &CacheStats,
        ops: u64,
        worker_peak: usize,
    ) {
        let kops = ops.max(1) as f64 / 1e3;
        let ratio = |a: u64, b: u64| {
            if a + b == 0 {
                0.0
            } else {
                a as f64 / (a + b) as f64
            }
        };
        self.set("sql.parse_us", summary.per_op_ms("sql.parse") * 1e3);
        self.set("plan.plan_us", summary.per_op_ms("plan.plan") * 1e3);
        self.set(
            "cache.hit_ratio",
            ratio(after.hits - before.hits, after.misses - before.misses),
        );
        self.set(
            "cache.plan_hit_ratio",
            ratio(
                after.plan_hits - before.plan_hits,
                after.plan_misses - before.plan_misses,
            ),
        );
        self.set(
            "cache.invalidations_per_kop",
            (after.invalidations - before.invalidations) as f64 / kops,
        );
        self.set(
            "cache.evictions_per_kop",
            (after.evictions - before.evictions) as f64 / kops,
        );
        self.set("cache.bytes", after.bytes as f64);
        for kind in ExecKind::ALL {
            let (span, metric) = kind.names();
            self.set(metric, summary.median_ms(span));
        }
        self.set("ipf.build_ms", summary.median_ms("ipf.build"));
        self.set("ipf.fit_ms", summary.median_ms("ipf.fit"));
        self.set("swg.generate_ms", summary.median_per_op_ms("swg.generate"));
        self.set(
            "protocol.encode_us",
            summary.median_per_op_ms("protocol.encode") * 1e3,
        );
        self.set(
            "protocol.decode_us",
            summary.median_per_op_ms("protocol.decode") * 1e3,
        );
        self.set("session.unattributed_ms", summary.unattributed_median_ms());
        self.set("parallel.worker_peak", worker_peak as f64);
    }

    /// `trace.overhead_pct`: how much slower ops ran while traced than
    /// in the untraced part of the same run (median root time against
    /// the untraced median).
    pub fn set_overhead(&mut self, untraced_p50_ms: Option<f64>, summary: &Summary) {
        let traced = summary.root_median_ms(None);
        let pct = match untraced_p50_ms {
            Some(u) if u > 0.0 && traced > 0.0 => (traced - u) / u * 100.0,
            _ => 0.0,
        };
        self.set("trace.overhead_pct", pct);
    }
}

/// Rows in and out of the replayed executor calls, for
/// `exec.rows_examined_per_row`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RowCounts {
    /// Input rows the executor scanned.
    pub examined: u64,
    /// Result rows it returned.
    pub returned: u64,
}

impl RowCounts {
    /// Count one executor call.
    pub fn add(&mut self, examined: usize, out: &Table) {
        self.examined += examined as u64;
        self.returned += out.num_rows() as u64;
    }

    /// Merge another thread's counts.
    pub fn merge(&mut self, other: RowCounts) {
        self.examined += other.examined;
        self.returned += other.returned;
    }

    /// Rows examined per row returned (0 without results).
    pub fn per_row(&self) -> f64 {
        if self.returned == 0 {
            0.0
        } else {
            self.examined as f64 / self.returned as f64
        }
    }
}
