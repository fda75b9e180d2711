//! `population-mix`: the paper's own workload (§3.3, §4, §5.3 flights).
//!
//! One driver thread runs a seeded mix of CLOSED, SEMI-OPEN and OPEN
//! queries through an in-process [`Session`] over the flights
//! population: the biased 5 % sample, the four binned 2-D marginals, and
//! an M-SWG trained during set-up. Time goes to IPF (SEMI-OPEN), M-SWG
//! generation and the OPEN combine; the executor sees only the sample's
//! rows, and the wire server is not involved.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mosaic_bench::experiments::{answer, answer_error};
use mosaic_bench::flights::{self, FlightsConfig, FlightsData};
use mosaic_core::{
    parse, plan_select, MosaicEngine, PhysicalPlan, SelectStmt, Session, Statement, Table,
};
use mosaic_stats::{Binner, Ipf, IpfConfig, IpfReport, Marginal};
use mosaic_swg::MSwg;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{
    digest, engine_options, median, repeated_setup, swg_config, timed, BlockMix, Latencies, Rng,
    RssPeak, AGG_PARTITIONS, OPEN_REPLICATES, OPEN_ROWS, PARALLELISM,
};
use crate::report::{ExecKind, Report, RowCounts};
use crate::trace::{Recorder, Summary};
use crate::RunConfig;

/// Explicit OPEN generation seed of the benchmark session, which makes
/// OPEN results reproducible and eligible for the result cache.
const OPEN_SEED: u64 = 7;
/// Ops per mix block, by class (CLOSED, SEMI-OPEN, OPEN). The shares
/// keep the median inside the SEMI-OPEN cost cluster and the 95th
/// percentile inside the OPEN one, whatever the seed.
const MIX: [usize; 3] = [4, 13, 3];
/// Ops per template block within each class (filtered aggregate,
/// filtered GROUP BY). Unequal shares keep each class's median inside
/// one template's cost cluster instead of on the edge between the two.
const SHAPES: [usize; 2] = [1, 2];
/// The numeric flights attributes templates draw from.
const NUMERIC: [&str; 4] = ["taxi_out", "taxi_in", "elapsed_time", "distance"];

/// Workload size.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Ground-truth population rows (the sample is 5 % of them).
    pub population: usize,
    /// SEMI-OPEN ops whose answer error `semi_open_pct_err` averages.
    pub error_semi_ops: usize,
    /// OPEN ops whose answer error `open_pct_err` averages.
    pub error_open_ops: usize,
}

impl Scale {
    /// The paper's scale: 426,411 population rows.
    pub fn full() -> Scale {
        Scale {
            population: 426_411,
            error_semi_ops: 40,
            error_open_ops: 10,
        }
    }

    /// A reduced size for the self-test.
    pub fn small() -> Scale {
        Scale {
            population: 20_000,
            error_semi_ops: 4,
            error_open_ops: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Closed,
    SemiOpen,
    Open,
}

impl Class {
    fn keyword(self) -> &'static str {
        match self {
            Class::Closed => "CLOSED",
            Class::SemiOpen => "SEMI-OPEN",
            Class::Open => "OPEN",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Class::Closed => "op.closed",
            Class::SemiOpen => "op.semi_open",
            Class::Open => "op.open",
        }
    }
}

/// One generated query.
struct Op {
    class: Class,
    kind: ExecKind,
    /// The query as the engine receives it.
    sql: String,
    /// The same query without a visibility keyword, for ground truth.
    truth_sql: String,
}

/// The seeded op stream: exact class shares per block, exact template
/// shares per block within each class, and predicate constants drawn
/// between the 5th and 95th population percentile of the filtered
/// attribute.
struct OpStream {
    rng: Rng,
    mix: BlockMix,
    shapes: [BlockMix; 3],
    bounds: HashMap<&'static str, (i64, i64)>,
}

impl OpStream {
    fn new(seed: u64, population: &Table) -> OpStream {
        let bounds = NUMERIC
            .iter()
            .map(|&attr| {
                let col = population.column_by_name(attr).expect("flights attribute");
                let mut v: Vec<i64> = (0..population.num_rows())
                    .filter_map(|r| col.f64_at(r))
                    .map(|x| x as i64)
                    .collect();
                v.sort_unstable();
                let q = |p: f64| v[((v.len() - 1) as f64 * p) as usize];
                (attr, (q(0.05), q(0.95).max(q(0.05) + 2)))
            })
            .collect();
        OpStream {
            rng: Rng::new(seed, 1),
            mix: BlockMix::new(Rng::new(seed, 2), &MIX),
            shapes: [3, 4, 5].map(|stream| BlockMix::new(Rng::new(seed, stream), &SHAPES)),
            bounds,
        }
    }

    fn next_op(&mut self) -> Op {
        let class_ix = self.mix.next_class();
        let class = [Class::Closed, Class::SemiOpen, Class::Open][class_ix];
        let a = NUMERIC[self.rng.index(NUMERIC.len())];
        let b = loop {
            let b = NUMERIC[self.rng.index(NUMERIC.len())];
            if b != a {
                break b;
            }
        };
        let (lo, hi) = self.bounds[b];
        let (kind, body) = if self.shapes[class_ix].next_class() == 0 {
            let c = self.rng.range(lo, hi + 1);
            let cmp = if self.rng.index(2) == 0 { ">" } else { "<" };
            (
                ExecKind::FilterAgg,
                format!("AVG({a}) FROM Flights WHERE {b} {cmp} {c}"),
            )
        } else {
            let x = self.rng.range(lo, hi + 1);
            let y = self.rng.range(lo, hi + 1);
            let (x, y) = (x.min(y), x.max(y).max(x.min(y) + (hi - lo) / 4));
            // Two comparisons, not BETWEEN: the engine's result-cache
            // fingerprint renders BETWEEN bounds as `...`, so BETWEEN
            // queries differing only in their bounds share one cache
            // entry and all but the first get a wrong answer.
            (
                ExecKind::GroupBy,
                format!(
                    "carrier, AVG({a}) AS m FROM Flights WHERE {b} >= {x} AND {b} <= {y} \
                     GROUP BY carrier ORDER BY carrier"
                ),
            )
        };
        Op {
            class,
            kind,
            sql: format!("SELECT {} {body}", class.keyword()),
            truth_sql: format!("SELECT {body}"),
        }
    }
}

/// What the executed op returned, kept for the post-run check.
struct Executed {
    op: Op,
    digest: u64,
}

fn build_engine(data: &FlightsData, rec: &mut Recorder) -> Arc<MosaicEngine> {
    let engine = Arc::new(MosaicEngine::with_options(engine_options()));
    let session = engine.session();
    session
        .execute(
            "CREATE GLOBAL POPULATION Flights (carrier TEXT, taxi_out INT, taxi_in INT, \
             elapsed_time INT, distance INT);
             CREATE SAMPLE FlightSample AS (SELECT * FROM Flights);",
        )
        .expect("flights DDL");
    for (i, m) in data.marginals.iter().enumerate() {
        engine
            .add_metadata(&format!("Flights_M{i}"), "Flights", m.clone())
            .expect("flights metadata");
    }
    for (attr, binner) in &data.binners {
        engine.register_binner(attr, binner.clone());
    }
    rec.time("storage.load", u64::MAX, None, || {
        engine.ingest_sample("FlightSample", data.sample.clone())
    })
    .expect("sample ingest");
    // The first OPEN query trains the M-SWG; later ones reuse it.
    session
        .with_seed(OPEN_SEED)
        .execute("SELECT OPEN COUNT(*) FROM Flights")
        .expect("training OPEN query");
    engine
}

/// Inputs of the traced run's layer replays.
struct Replay {
    sample: Table,
    marginals: Vec<Marginal>,
    binners: HashMap<String, Binner>,
    ones: Vec<f64>,
    model: MSwg,
    pop_size: f64,
    rows: RowCounts,
    ipf_reports: Vec<IpfReport>,
}

fn select(sql: &str) -> SelectStmt {
    match parse(sql).expect("op parses").pop() {
        Some(Statement::Select(s)) => s,
        other => panic!("not a SELECT: {other:?}"),
    }
}

fn physical(stmt: &SelectStmt, weighted: bool, sample: &Table) -> PhysicalPlan {
    plan_select(stmt, weighted, true, Some(sample.schema()))
        .physical
        .with_parallelism(PARALLELISM)
        .with_agg_partitions(AGG_PARTITIONS)
}

impl Replay {
    /// Replay one op's layer calls on its inputs as children of `root`.
    fn replay(&mut self, rec: &mut Recorder, id: u64, root: Option<usize>, op: &Op) {
        let stmt = rec.time("sql.parse", id, root, || select(&op.sql));
        let weighted = op.class != Class::Closed;
        match op.class {
            Class::Closed | Class::SemiOpen => {
                let plan = rec.time("plan.plan", id, root, || {
                    physical(&stmt, weighted, &self.sample)
                });
                let weights = if weighted {
                    let ipf = rec.time("ipf.build", id, root, || {
                        Ipf::new(&self.sample, &self.marginals, &self.binners)
                            .expect("IPF indexes the sample")
                    });
                    let (w, report) = rec.time("ipf.fit", id, root, || {
                        ipf.fit(Some(&self.ones), &IpfConfig::default())
                    });
                    self.ipf_reports.push(report);
                    Some(w)
                } else {
                    None
                };
                let out = rec.time(op.kind.span(), id, root, || {
                    plan.execute(&self.sample, weights.as_deref())
                        .expect("replayed plan runs")
                });
                self.rows.add(self.sample.num_rows(), &out);
            }
            Class::Open => {
                // Each replicate runs its inner query (no ORDER BY /
                // LIMIT) single-threaded, replicates spread over the
                // engine's worker budget — the engine's own split.
                let inner = SelectStmt {
                    order_by: Vec::new(),
                    limit: None,
                    ..stmt
                };
                let plan = rec.time("plan.plan", id, root, || {
                    physical(&inner, true, &self.sample).with_parallelism(1)
                });
                let per_sample = OPEN_ROWS;
                let model = &self.model;
                let generated: Vec<Table> = rec.time("swg.generate", id, root, || {
                    on_workers(OPEN_REPLICATES, |run| {
                        let mut rng = StdRng::seed_from_u64(replicate_seed(run));
                        model.generate(per_sample, &mut rng)
                    })
                });
                let weight = self.pop_size / per_sample as f64;
                let outs: Vec<(usize, Table)> = rec.time(op.kind.span(), id, root, || {
                    on_workers(OPEN_REPLICATES, |run| {
                        let g = &generated[run];
                        let w = vec![weight; g.num_rows()];
                        let out = plan.execute(g, Some(&w)).expect("replicate plan runs");
                        (g.num_rows(), out)
                    })
                });
                for (n, out) in &outs {
                    self.rows.add(*n, out);
                }
            }
        }
    }
}

/// Per-replicate generation seed, as the engine derives it.
fn replicate_seed(run: usize) -> u64 {
    OPEN_SEED
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(run as u64 + 1)
}

/// Run `f(0..n)` on `PARALLELISM` scoped threads, results by index.
fn on_workers<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    let mut parts: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..PARALLELISM)
            .map(|w| {
                s.spawn(move || {
                    (w..n)
                        .step_by(PARALLELISM)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let mut all: Vec<(usize, T)> = parts.iter_mut().flat_map(std::mem::take).collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, t)| t).collect()
}

/// Flatten an engine answer like `experiments::answer` does: group key
/// (all columns but the last) and the aggregate value.
fn flatten(t: &Table) -> Vec<(Option<String>, f64)> {
    let last = t.num_columns() - 1;
    (0..t.num_rows())
        .filter_map(|r| {
            let key = (last > 0).then(|| {
                (0..last)
                    .map(|c| t.value(r, c).to_string())
                    .collect::<Vec<_>>()
                    .join("|")
            });
            t.value(r, last).as_f64().map(|v| (key, v))
        })
        .collect()
}

/// Run the workload.
pub fn run(cfg: &RunConfig, scale: &Scale) -> Report {
    let mut report = Report::default();
    let mut rec = Recorder::new(Instant::now(), cfg.trace);
    let data = flights::generate(&FlightsConfig {
        population: scale.population,
        seed: cfg.seed,
        ..FlightsConfig::default()
    });
    let (engine, setup_times) = repeated_setup(|| (), |()| build_engine(&data, &mut rec));
    report.set("setup_s", median(&setup_times));
    report.note("setup_s_each", format!("{setup_times:.3?}"));
    report.note(
        "inputs",
        format!(
            "population {} rows, sample {} rows, {} marginals",
            data.population.num_rows(),
            data.sample.num_rows(),
            data.marginals.len()
        ),
    );

    let mut replay = cfg.trace.then(|| {
        let sample = engine
            .catalog()
            .sample("FlightSample")
            .expect("sample exists")
            .data
            .clone();
        let (model, fit_s) =
            timed(|| MSwg::fit(&sample, &data.marginals, swg_config()).expect("M-SWG fits"));
        report.set("swg.fit_s", fit_s);
        let pop_size = data.marginals.iter().map(|m| m.total()).fold(0.0, f64::max);
        Replay {
            ones: vec![1.0; sample.num_rows()],
            sample,
            marginals: data.marginals.clone(),
            binners: data.binners.clone(),
            model,
            pop_size,
            rows: RowCounts::default(),
            ipf_reports: Vec::new(),
        }
    });

    // Timed window. A traced run spends its first third untraced, to
    // measure what tracing costs.
    let session: Session = engine.session().with_seed(OPEN_SEED);
    let mut stream = OpStream::new(cfg.seed, &data.population);
    let mut lat: [Latencies; 3] = Default::default();
    let mut untraced = Latencies::default();
    let mut executed: Vec<Executed> = Vec::new();
    let (mut open_ops, mut open_model_hits) = (0u64, 0u64);
    let window = Duration::from_secs_f64(cfg.seconds);
    let traced_from = if cfg.trace { window / 3 } else { window };
    mosaic_core::reset_worker_thread_peak();
    let mut worker_peak = 0;
    let mut cache_before = engine.cache_stats();
    let mut rss = RssPeak::start();
    let start = Instant::now();
    let mut traced_ops = 0u64;
    while start.elapsed() < window {
        rss.poll();
        let op = stream.next_op();
        let tracing = cfg.trace && start.elapsed() >= traced_from;
        if tracing && traced_ops == 0 {
            worker_peak = mosaic_core::worker_thread_peak();
            cache_before = engine.cache_stats();
        }
        rec.set_enabled(tracing);
        let id = report.attempted;
        let t0 = Instant::now();
        let result = session.execute(&op.sql);
        let t1 = Instant::now();
        report.attempted += 1;
        lat[op.class as usize].push(t1 - t0);
        let root = rec.record(op.class.span(), id, None, t0, t1);
        if tracing {
            traced_ops += 1;
        } else {
            untraced.push(t1 - t0);
        }
        match result {
            Ok(r) => {
                let cache_hit = r.notes.iter().any(|n| n.starts_with("result cache hit"));
                if op.class == Class::Open && !cache_hit {
                    open_ops += 1;
                    open_model_hits +=
                        r.notes.iter().any(|n| n == "generative model cache hit") as u64;
                }
                if let (Some(replay), true) = (replay.as_mut(), tracing && !cache_hit) {
                    replay.replay(&mut rec, id, root, &op);
                }
                executed.push(Executed {
                    digest: digest(&r.table),
                    op,
                });
            }
            Err(e) => {
                eprintln!("population-mix: {} failed: {e}", op.sql);
                report.failed += 1;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    report.set("peak_rss_mb", rss.finish_mb());
    let cache_after = engine.cache_stats();

    // Check every answer against a cache-off session, after the window
    // so the check neither warms the plan cache nor competes for time.
    let oracle = engine
        .session()
        .with_seed(OPEN_SEED)
        .with_result_cache(false);
    let mut expected: HashMap<String, Table> = HashMap::new();
    let mut expect = |sql: &str| -> Option<Table> {
        if !expected.contains_key(sql) {
            match oracle.query(sql) {
                Ok(t) => {
                    expected.insert(sql.to_string(), t);
                }
                Err(e) => {
                    eprintln!("population-mix: oracle failed on {sql}: {e}");
                    return None;
                }
            }
        }
        expected.get(sql).cloned()
    };
    let mut mismatches = 0u64;
    for ex in &executed {
        if expect(&ex.op.sql).map(|t| digest(&t)) != Some(ex.digest) {
            mismatches += 1;
            eprintln!("population-mix: wrong answer for {}", ex.op.sql);
        }
    }
    report.failed += mismatches;

    // Answer quality: the paper's mean percent difference against the
    // population's true answer, over a fixed prefix of the op stream so
    // the figure depends on the seed alone, not on how fast ops ran.
    let mut errors: [Vec<f64>; 3] = Default::default();
    let wanted = |c: Class| match c {
        Class::Closed => 0,
        Class::SemiOpen => scale.error_semi_ops,
        Class::Open => scale.error_open_ops,
    };
    let mut prefix = OpStream::new(cfg.seed, &data.population);
    let mut seen = [0usize; 3];
    while seen[1] < wanted(Class::SemiOpen) || seen[2] < wanted(Class::Open) {
        let op = prefix.next_op();
        let c = op.class as usize;
        if seen[c] >= wanted(op.class) {
            continue;
        }
        seen[c] += 1;
        let Some(estimate) = expect(&op.sql) else {
            report.failed += 1;
            continue;
        };
        let truth = answer(&op.truth_sql, &data.population, None);
        if let Some(e) = answer_error(&flatten(&estimate), &truth) {
            errors[c].push(e);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.set("semi_open_pct_err", mean(&errors[1]));
    report.set("open_pct_err", mean(&errors[2]));

    let mut all = Latencies::default();
    for l in &lat {
        all.extend(l);
    }
    report.set("qps", report.attempted as f64 / elapsed);
    report.set("p50_ms", all.percentile_ms(0.5).unwrap_or(0.0));
    report.set("p95_ms", all.percentile_ms(0.95).unwrap_or(0.0));
    report.set("closed_p50_ms", lat[0].percentile_ms(0.5).unwrap_or(0.0));
    report.set("semi_open_p50_ms", lat[1].percentile_ms(0.5).unwrap_or(0.0));
    report.set("open_p50_ms", lat[2].percentile_ms(0.5).unwrap_or(0.0));
    report.note(
        "samples",
        format!(
            "{} ops ({} CLOSED, {} SEMI-OPEN, {} OPEN) in {elapsed:.2} s; \
             answer errors over {} SEMI-OPEN and {} OPEN ops",
            all.len(),
            lat[0].len(),
            lat[1].len(),
            lat[2].len(),
            errors[1].len(),
            errors[2].len()
        ),
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
        let fits = replay.ipf_reports.len().max(1) as f64;
        report.set(
            "ipf.iterations",
            replay
                .ipf_reports
                .iter()
                .map(|r| r.iterations)
                .sum::<usize>() as f64
                / fits,
        );
        report.set(
            "ipf.converged_ratio",
            replay.ipf_reports.iter().filter(|r| r.converged).count() as f64 / fits,
        );
        report.set(
            "open.model_cache_hit_ratio",
            open_model_hits as f64 / open_ops.max(1) as f64,
        );
        report.set("storage.load_ms", summary.median_ms("storage.load"));
        report.set(
            "storage.table_mb",
            replay.sample.approx_bytes() as f64 / 1e6,
        );
        report.note(
            "layer_shares",
            format!(
                "ipf {:.1}% swg {:.1}% exec {:.1}% of traced op time; semi-open root p50 {:.2} ms",
                summary.share("ipf.") * 100.0,
                summary.share("swg.") * 100.0,
                summary.share("exec.") * 100.0,
                summary.root_median_ms(Some("op.semi_open"))
            ),
        );
        report.spans = Some(rec);
    }
    report
}
