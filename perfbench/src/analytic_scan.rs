//! `analytic-scan`: CLOSED analytics where the executor and the storage
//! kernels do nearly all the work.
//!
//! One driver thread executes prepared statements over a fact table `t`
//! (`k TEXT` with ~50K distinct values, `i INT` with NULLs, `f FLOAT`)
//! and a dimension table `d` loaded with `register_table`. Templates
//! cover filter+aggregate, high-cardinality GROUP BY, a full ORDER BY of
//! a selective filter, TopK, and an equi-join plus GROUP BY. Parameters
//! come from a wide domain, so the result cache only misses: its probe
//! cost shows, its hits do not. IPF, the M-SWG and the wire server do
//! nothing here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mosaic_core::{
    lower_logical, DataType, Field, MosaicEngine, PhysicalPlan, Prepared, Schema, Table, Value,
};
use mosaic_storage::{Bitmap, Column};

use crate::common::{
    digest, engine_options, median, repeated_setup, BlockMix, Latencies, Rng, RssPeak,
    AGG_PARTITIONS, PARALLELISM,
};
use crate::report::{ExecKind, Report, RowCounts};
use crate::trace::{Recorder, Summary};
use crate::RunConfig;

/// Workload size.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Fact-table rows.
    pub fact_rows: usize,
    /// Distinct `t.k` values.
    pub keys: usize,
    /// Dimension-table rows (`d.k` covers every `t.k`).
    pub dim_rows: usize,
}

impl Scale {
    /// 1M fact rows, 50K keys, 100K dimension rows.
    pub fn full() -> Scale {
        Scale {
            fact_rows: 1_000_000,
            keys: 50_000,
            dim_rows: 100_000,
        }
    }

    /// A reduced size for the self-test.
    pub fn small() -> Scale {
        Scale {
            fact_rows: 20_000,
            keys: 1_000,
            dim_rows: 2_000,
        }
    }
}

/// A prepared template: its SQL, executor shape, and share of the mix.
struct Template {
    kind: ExecKind,
    sql: &'static str,
    weight: usize,
}

/// The templates. The weights make cheap ops frequent enough that a run
/// collects a few hundred samples, put the median well inside the sort
/// cluster (half of all ops) and the 95th percentile in the middle of the
/// join cluster (the costliest tenth).
const TEMPLATES: [Template; 5] = [
    Template {
        kind: ExecKind::FilterAgg,
        sql: "SELECT COUNT(*) AS n, SUM(f) AS s, AVG(i) AS a FROM t \
              WHERE i BETWEEN ? AND ? AND f > ?",
        weight: 2,
    },
    Template {
        kind: ExecKind::GroupBy,
        sql: "SELECT k, COUNT(*) AS n, SUM(f) AS s FROM t WHERE i > ? AND f < ? GROUP BY k",
        weight: 1,
    },
    Template {
        kind: ExecKind::Sort,
        sql: "SELECT k, i, f FROM t WHERE f BETWEEN ? AND ? ORDER BY f DESC, k",
        weight: 5,
    },
    Template {
        kind: ExecKind::TopK,
        sql: "SELECT k, i, f FROM t WHERE i > ? AND f < ? ORDER BY f DESC, k LIMIT 20",
        weight: 1,
    },
    Template {
        kind: ExecKind::Join,
        sql: "SELECT d.grp AS grp, COUNT(*) AS n, SUM(t.f) AS s FROM t JOIN d ON t.k = d.k \
              WHERE t.i BETWEEN ? AND ? GROUP BY d.grp ORDER BY grp",
        weight: 1,
    },
];

/// Draw the parameters of template `tpl`. Filter positions move over a
/// 0.01 grid (for `f`) or whole numbers (for `i`) — a domain wide enough
/// that repeats, and so result-cache hits, are rare — while filter
/// widths stay fixed, so every op of a template scans, sorts or joins
/// about the same number of rows on every seed.
fn params(tpl: usize, rng: &mut Rng) -> Vec<Value> {
    let grid = |rng: &mut Rng, lo: i64, hi: i64| rng.range(lo * 100, hi * 100) as f64 / 100.0;
    match tpl {
        // ~25 % of `i`, then `f` above a threshold in [0, 500).
        0 => {
            let lo = rng.range(-1000, 500);
            let f = grid(rng, 0, 500);
            vec![Value::Int(lo), Value::Int(lo + 500), Value::Float(f)]
        }
        // ~45–50 % of the rows: `i` above [-100, 0), `f` below [900, 1000).
        1 | 3 => vec![
            Value::Int(rng.range(-100, 0)),
            Value::Float(grid(rng, 900, 1000)),
        ],
        // 1 % of `f`.
        2 => {
            let lo = grid(rng, 0, 990);
            vec![Value::Float(lo), Value::Float(lo + 10.0)]
        }
        // 15 % of `i`.
        _ => {
            let lo = rng.range(-1000, 700);
            vec![Value::Int(lo), Value::Int(lo + 300)]
        }
    }
}

/// Column data of both tables, generated from the seed before set-up.
#[derive(Clone)]
struct Inputs {
    k: Vec<String>,
    i: Vec<i64>,
    i_valid: Bitmap,
    f: Vec<f64>,
    dk: Vec<String>,
    dgrp: Vec<String>,
    dboost: Vec<i64>,
}

fn inputs(seed: u64, scale: &Scale) -> Inputs {
    let mut rng = Rng::new(seed, 10);
    let n = scale.fact_rows;
    let mut i_valid = Bitmap::ones(n);
    let mut i = Vec::with_capacity(n);
    for r in 0..n {
        i.push(rng.range(-1000, 1000));
        if rng.index(20) == 0 {
            i_valid.set(r, false);
        }
    }
    Inputs {
        k: (0..n)
            .map(|_| format!("k{}", rng.index(scale.keys)))
            .collect(),
        i,
        i_valid,
        f: (0..n).map(|_| rng.unit() * 1000.0).collect(),
        dk: (0..scale.dim_rows).map(|j| format!("k{j}")).collect(),
        dgrp: (0..scale.dim_rows)
            .map(|j| format!("g{}", j % 64))
            .collect(),
        dboost: (0..scale.dim_rows).map(|j| (j % 7) as i64).collect(),
    }
}

/// The engine after set-up, with the templates prepared.
struct Loaded {
    engine: Arc<MosaicEngine>,
    prepared: Vec<Prepared>,
}

/// Build both tables in the storage layer, register them, and prepare
/// every template.
fn load(input: Inputs, rec: &mut Recorder) -> Loaded {
    let engine = Arc::new(MosaicEngine::with_options(engine_options()));
    rec.time("storage.load", u64::MAX, None, || {
        let t = Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Str),
                Field::new("i", DataType::Int),
                Field::new("f", DataType::Float),
            ]),
            vec![
                Column::from_str(input.k),
                Column::from_i64_opt(input.i, Some(input.i_valid)),
                Column::from_f64(input.f),
            ],
        )
        .expect("fact table");
        let d = Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Str),
                Field::new("grp", DataType::Str),
                Field::new("boost", DataType::Int),
            ]),
            vec![
                Column::from_str(input.dk),
                Column::from_str(input.dgrp),
                Column::from_i64(input.dboost),
            ],
        )
        .expect("dimension table");
        engine.register_table("t", t).expect("register t");
        engine.register_table("d", d).expect("register d");
    });
    let session = engine.session();
    let prepared = TEMPLATES
        .iter()
        .map(|tpl| session.prepare(tpl.sql).expect("template prepares"))
        .collect();
    Loaded { engine, prepared }
}

/// Inputs of the traced run's executor replays.
struct Replay {
    t: Table,
    d: Table,
    plans: Vec<PhysicalPlan>,
    rows: RowCounts,
}

impl Replay {
    fn new(loaded: &Loaded) -> Replay {
        let cat = loaded.engine.catalog();
        Replay {
            t: cat.aux("t").expect("t").clone(),
            d: cat.aux("d").expect("d").clone(),
            plans: loaded
                .prepared
                .iter()
                .map(|p| {
                    lower_logical(p.logical_plan())
                        .with_parallelism(PARALLELISM)
                        .with_agg_partitions(AGG_PARTITIONS)
                })
                .collect(),
            rows: RowCounts::default(),
        }
    }

    /// Replay one op's executor call as a child of `root`.
    fn replay(
        &mut self,
        rec: &mut Recorder,
        id: u64,
        root: Option<usize>,
        tpl: usize,
        p: &[Value],
    ) {
        let plan = &self.plans[tpl];
        let (out, examined) = rec.time(TEMPLATES[tpl].kind.span(), id, root, || {
            if plan.is_join() {
                let out = plan.execute_join_with_params(&self.t, &self.d, p);
                (out, self.t.num_rows() + self.d.num_rows())
            } else {
                (
                    plan.execute_with_params(&self.t, None, p),
                    self.t.num_rows(),
                )
            }
        });
        self.rows.add(examined, &out.expect("replayed plan runs"));
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig, scale: &Scale) -> Report {
    let mut report = Report::default();
    let mut rec = Recorder::new(Instant::now(), cfg.trace);
    let raw = inputs(cfg.seed, scale);
    let (loaded, setup_times) = repeated_setup(|| raw.clone(), |input| load(input, &mut rec));
    drop(raw);
    report.set("setup_s", median(&setup_times));
    report.note("setup_s_each", format!("{setup_times:.3?}"));
    let table_bytes: usize = {
        let cat = loaded.engine.catalog();
        ["t", "d"]
            .iter()
            .map(|n| cat.aux(n).expect("table").approx_bytes())
            .sum()
    };
    report.note(
        "inputs",
        format!(
            "t {} rows ({} keys), d {} rows, {:.1} MB",
            scale.fact_rows,
            scale.keys,
            scale.dim_rows,
            table_bytes as f64 / 1e6
        ),
    );
    let mut replay = cfg.trace.then(|| Replay::new(&loaded));

    let weights: Vec<usize> = TEMPLATES.iter().map(|t| t.weight).collect();
    let mut mix = BlockMix::new(Rng::new(cfg.seed, 11), &weights);
    let mut rng = Rng::new(cfg.seed, 12);
    let session = loaded.engine.session();
    let mut lat: Vec<Latencies> = vec![Latencies::default(); TEMPLATES.len()];
    let mut untraced = Latencies::default();
    let mut executed: Vec<(usize, Vec<Value>, u64)> = Vec::new();
    let window = Duration::from_secs_f64(cfg.seconds);
    let traced_from = if cfg.trace { window / 3 } else { window };
    mosaic_core::reset_worker_thread_peak();
    let mut worker_peak = 0;
    let mut cache_before = loaded.engine.cache_stats();
    let mut traced_ops = 0u64;
    let mut rss = RssPeak::start();
    let start = Instant::now();
    while start.elapsed() < window {
        rss.poll();
        let tpl = mix.next_class();
        let p = params(tpl, &mut rng);
        let tracing = cfg.trace && start.elapsed() >= traced_from;
        if tracing && traced_ops == 0 {
            worker_peak = mosaic_core::worker_thread_peak();
            cache_before = loaded.engine.cache_stats();
        }
        rec.set_enabled(tracing);
        let id = report.attempted;
        let t0 = Instant::now();
        let result = session.execute_prepared(&loaded.prepared[tpl], &p);
        let t1 = Instant::now();
        report.attempted += 1;
        lat[tpl].push(t1 - t0);
        let root = rec.record("op.closed", id, None, t0, t1);
        if tracing {
            traced_ops += 1;
        } else {
            untraced.push(t1 - t0);
        }
        match result {
            Ok(r) => {
                let hit = r.notes.iter().any(|n| n.starts_with("result cache hit"));
                if let (Some(replay), true) = (replay.as_mut(), tracing && !hit) {
                    replay.replay(&mut rec, id, root, tpl, &p);
                }
                executed.push((tpl, p, digest(&r.table)));
            }
            Err(e) => {
                eprintln!("analytic-scan: template {tpl} failed: {e}");
                report.failed += 1;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    report.set("peak_rss_mb", rss.finish_mb());
    let cache_after = loaded.engine.cache_stats();

    // Check every answer against a cache-off session after the window.
    let oracle = loaded.engine.session().with_result_cache(false);
    for (tpl, p, got) in &executed {
        let want = oracle
            .query_prepared(&loaded.prepared[*tpl], p)
            .map(|t| digest(&t));
        if want.as_ref().ok() != Some(got) {
            report.failed += 1;
            eprintln!(
                "analytic-scan: wrong answer for {} with {p:?}",
                TEMPLATES[*tpl].sql
            );
        }
    }

    let mut all = Latencies::default();
    for l in &lat {
        all.extend(l);
    }
    let p50 = all.percentile_ms(0.5).unwrap_or(0.0);
    report.set("qps", report.attempted as f64 / elapsed);
    report.set("p50_ms", p50);
    report.set("p95_ms", all.percentile_ms(0.95).unwrap_or(0.0));
    report.set("closed_p50_ms", p50);
    report.note("samples", format!("{} ops in {elapsed:.2} s", all.len()));
    report.note(
        "template_p50_ms",
        TEMPLATES
            .iter()
            .zip(&lat)
            .map(|(t, l)| {
                format!(
                    "{} {:.2} (n={})",
                    t.kind.span(),
                    l.percentile_ms(0.5).unwrap_or(0.0),
                    l.len()
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    report.finish_counts();

    if let Some(replay) = replay {
        let summary = Summary::new(rec.spans());
        report.set_common_layers(
            &summary,
            &cache_before,
            &cache_after,
            traced_ops,
            worker_peak,
        );
        report.set_overhead(untraced.percentile_ms(0.5), &summary);
        report.set("exec.rows_examined_per_row", replay.rows.per_row());
        report.set("storage.load_ms", summary.median_ms("storage.load"));
        report.set("storage.table_mb", table_bytes as f64 / 1e6);
        report.note(
            "layer_shares",
            format!(
                "exec {:.1}% of traced op time",
                summary.share("exec.") * 100.0
            ),
        );
        report.spans = Some(rec);
    }
    report
}
