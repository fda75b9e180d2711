//! `wire-dashboard`: dashboard reads with writes beside them, over the
//! wire.
//!
//! A `mosaic-serve` server on `127.0.0.1:0` runs in this process; two
//! client connections drive it in a closed loop. Reads are zipf-skewed
//! (s = 1.1) over loadgen's templates on a 50K-row table, its prepared
//! statement, one SEMI-OPEN template over a small population, and two
//! templates over an `events` table. About 2 % of ops are `INSERT`
//! batches into `events`, so the hot `events` reads are invalidated over
//! and over. Framing and encoding, admission, the result cache (hits and
//! epoch invalidations) and the plan cache dominate; the executor and
//! parse/plan run only on the misses that writes cause.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mosaic_core::{
    lower_logical, parse, plan_logical, plan_select, DataType, Field, LogicalPlan, MosaicEngine,
    PhysicalPlan, Schema, Statement, Table, Value,
};
use mosaic_serve::protocol::ROWS_PER_BATCH;
use mosaic_serve::{
    Client, RemoteResult, Request, Response, ServeConfig, Server, ServerHandle, WireField,
};
use mosaic_stats::{Ipf, IpfConfig, IpfReport, Marginal};
use mosaic_storage::{Bitmap, Column};

use crate::common::{
    digest, engine_options, median, repeated_setup, BlockMix, Latencies, Rng, RssPeak, Zipf,
    AGG_PARTITIONS, PARALLELISM,
};
use crate::report::{ExecKind, Report, RowCounts};
use crate::trace::{Recorder, Summary};
use crate::RunConfig;

/// Client connections (no more than the machine's two cores).
const CONNECTIONS: usize = 2;
/// CLOSED-read latency samples kept resident per connection and second
/// of the window: about twice what one connection completes.
const OPS_PER_CONN_SECOND: f64 = 25_000.0;
/// Zipf exponent of read selection.
const ZIPF_S: f64 = 1.1;
/// Reads per write in each connection's mix: 1 write in 50 ops.
const READS_PER_WRITE: usize = 49;
/// Event kinds; every INSERT batch writes one row per kind, with
/// `v` = 1..=4, so a batch adds 4 rows and 10 to `SUM(v)`. Batches are
/// small so that `events` — which grows with the run's write count —
/// stays cheap to scan next to a wire round trip.
const KINDS: [&str; 4] = ["a", "b", "c", "d"];
const BATCH_SUM: i64 = 10;

/// Workload size.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Rows of the dashboard table `t`.
    pub rows: usize,
    /// Rows of the SEMI-OPEN population's sample.
    pub sample_rows: usize,
}

impl Scale {
    /// 50K rows, a 2K-row sample.
    pub fn full() -> Scale {
        Scale {
            rows: 50_000,
            sample_rows: 2_000,
        }
    }

    /// A reduced size for the self-test.
    pub fn small() -> Scale {
        Scale {
            rows: 5_000,
            sample_rows: 500,
        }
    }
}

/// How a read reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// An ad-hoc `Query` frame over the dashboard tables.
    Query,
    /// The named prepared statement with one parameter.
    Prepared(i64),
    /// A SEMI-OPEN `Query` over the population.
    SemiOpen,
    /// An ad-hoc read of `events`, checked against the writes' closed
    /// form instead of a precomputed answer.
    Events,
}

/// One read, by zipf rank (hottest first).
struct Read {
    shape: Shape,
    kind: ExecKind,
    sql: &'static str,
}

/// The server-side prepared statement (loadgen's) and its name.
const PREPARED_NAME: &str = "hot";
const PREPARED_SQL: &str = "SELECT k, COUNT(*) AS c FROM t WHERE i > ? GROUP BY k ORDER BY k";
const EVENTS_TOTAL: &str = "SELECT COUNT(*) AS n, SUM(v) AS s FROM events";
const EVENTS_BY_KIND: &str = "SELECT kind, COUNT(*) AS n FROM events GROUP BY kind ORDER BY kind";

fn reads() -> Vec<Read> {
    use ExecKind::*;
    let q = |kind, sql| Read {
        shape: Shape::Query,
        kind,
        sql,
    };
    let p = |v| Read {
        shape: Shape::Prepared(v),
        kind: GroupBy,
        sql: PREPARED_SQL,
    };
    vec![
        Read {
            shape: Shape::Events,
            kind: FilterAgg,
            sql: EVENTS_TOTAL,
        },
        q(FilterAgg, "SELECT COUNT(*) FROM t"),
        Read {
            shape: Shape::Events,
            kind: GroupBy,
            sql: EVENTS_BY_KIND,
        },
        q(GroupBy, "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k"),
        p(0),
        Read {
            shape: Shape::SemiOpen,
            kind: GroupBy,
            sql: "SELECT SEMI-OPEN region, COUNT(*) AS n, AVG(age) AS a FROM Visits \
                  GROUP BY region ORDER BY region",
        },
        q(FilterAgg, "SELECT SUM(i), AVG(f), MIN(i), MAX(f) FROM t"),
        q(
            TopK,
            "SELECT k, i FROM t WHERE i > 100 ORDER BY i DESC, k LIMIT 20",
        ),
        p(50),
        q(
            GroupBy,
            "SELECT k, SUM(i) AS s FROM t WHERE i > 0 GROUP BY k ORDER BY s DESC, k LIMIT 5",
        ),
        q(
            TopK,
            "SELECT i FROM t WHERE i BETWEEN -10 AND 50 ORDER BY i LIMIT 25",
        ),
        q(FilterAgg, "SELECT COUNT(*) FROM t WHERE f > 0.0 OR i < 0"),
        p(100),
        q(
            GroupBy,
            "SELECT k, AVG(f) AS a, MIN(i), MAX(i) FROM t GROUP BY k ORDER BY k",
        ),
        q(TopK, "SELECT k, i, f FROM t ORDER BY f DESC, i, k LIMIT 50"),
        q(
            TopK,
            "SELECT i, k FROM t WHERE i IS NOT NULL ORDER BY i, k DESC LIMIT 100",
        ),
        p(250),
        q(
            Join,
            "SELECT d.grp AS grp, COUNT(*) AS c, SUM(t.i) AS s FROM t JOIN d ON t.k = d.k \
             GROUP BY d.grp ORDER BY grp",
        ),
        q(
            Join,
            "SELECT t.k, d.boost, t.i FROM t JOIN d ON t.k = d.k \
             WHERE t.i > 200 ORDER BY t.i DESC, t.k, d.boost LIMIT 30",
        ),
    ]
}

/// Build the dashboard tables, the `events` table, and the SEMI-OPEN
/// population with its metadata and sample.
fn build_engine(seed: u64, scale: &Scale, rec: &mut Recorder) -> Arc<MosaicEngine> {
    let engine = Arc::new(MosaicEngine::with_options(engine_options()));
    let mut rng = Rng::new(seed, 20);
    let n = scale.rows;
    let (mut i, mut f) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut i_valid, mut f_valid) = (Bitmap::ones(n), Bitmap::ones(n));
    let k: Vec<String> = (0..n).map(|_| format!("g{}", rng.index(23))).collect();
    for r in 0..n {
        i.push(rng.range(-300, 700));
        f.push(rng.range(-10_000, 1_240_000) as f64 / 100.0);
        i_valid.set(r, rng.index(11) != 0);
        f_valid.set(r, rng.index(13) != 0);
    }
    let mut pop = Vec::with_capacity(scale.sample_rows);
    let regions = ["n", "s", "e", "w", "ne", "nw", "se", "sw"];
    for _ in 0..scale.sample_rows {
        // A biased sample: low regions and young visitors over-represented.
        let r = rng.index(regions.len()).min(rng.index(regions.len()));
        pop.push((regions[r].to_string(), 18 + rng.range(0, 40) + r as i64 * 3));
    }
    let census: Vec<String> = regions
        .iter()
        .enumerate()
        .map(|(j, r)| format!("('{r}', {})", 1_000 + 250 * j))
        .collect();
    engine
        .session()
        .execute(&format!(
            "CREATE TABLE events (conn INT, batch INT, kind TEXT, v INT);
             CREATE TABLE census (region TEXT, n INT);
             INSERT INTO census VALUES {};
             CREATE GLOBAL POPULATION Visits (region TEXT, age INT);
             CREATE METADATA Visits_M1 AS (SELECT region, n FROM census);
             CREATE SAMPLE VisitSample AS (SELECT * FROM Visits);",
            census.join(", ")
        ))
        .expect("dashboard DDL");
    rec.time("storage.load", u64::MAX, None, || {
        let t = Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Str),
                Field::new("i", DataType::Int),
                Field::new("f", DataType::Float),
            ]),
            vec![
                Column::from_str(k),
                Column::from_i64_opt(i, Some(i_valid)),
                Column::from_f64_opt(f, Some(f_valid)),
            ],
        )
        .expect("dashboard table");
        let d = Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Str),
                Field::new("grp", DataType::Str),
                Field::new("boost", DataType::Int),
            ]),
            vec![
                Column::from_str((0..23).map(|j| format!("g{j}")).collect()),
                Column::from_str((0..23).map(|j| format!("h{}", j % 5)).collect()),
                Column::from_i64((0..23).map(|j| j % 7).collect()),
            ],
        )
        .expect("dimension table");
        let (names, ages): (Vec<String>, Vec<i64>) = pop.into_iter().unzip();
        let sample = Table::new(
            Schema::new(vec![
                Field::new("region", DataType::Str),
                Field::new("age", DataType::Int),
            ]),
            vec![Column::from_str(names), Column::from_i64(ages)],
        )
        .expect("population sample");
        engine.register_table("t", t).expect("register t");
        engine.register_table("d", d).expect("register d");
        engine
            .ingest_sample("VisitSample", sample)
            .expect("sample ingest");
    });
    engine
}

/// A running server and its connected, prepared clients. Dropping it
/// closes the clients, stops the server and waits for its accept loop.
struct Served {
    engine: Arc<MosaicEngine>,
    handle: ServerHandle,
    accept: Option<JoinHandle<()>>,
    clients: Vec<Client>,
}

impl Served {
    fn start(engine: Arc<MosaicEngine>) -> Served {
        let config = ServeConfig::default()
            .with_max_connections(CONNECTIONS + 2)
            .with_worker_budget(PARALLELISM);
        let server =
            Server::bind(Arc::clone(&engine), "127.0.0.1:0", config).expect("bind 127.0.0.1:0");
        let addr = server.local_addr();
        let (handle, accept) = server.spawn();
        let clients = (0..CONNECTIONS)
            .map(|_| {
                let mut c = Client::connect(addr).expect("connect");
                c.prepare(PREPARED_NAME, PREPARED_SQL).expect("prepare");
                c
            })
            .collect();
        Served {
            engine,
            handle,
            accept: Some(accept),
            clients,
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        for c in self.clients.drain(..) {
            let _ = c.close();
        }
        self.handle.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// What the traced replay needs for one read: the plan the engine runs,
/// and for a join the logical plan to re-plan from (`plan_select` plans
/// one relation only).
struct ReadPlan {
    physical: PhysicalPlan,
    join_logical: Option<LogicalPlan>,
}

/// Shared, read-only inputs of the traced replays.
struct ReplayCtx {
    engine: Arc<MosaicEngine>,
    plans: Vec<ReadPlan>,
    sample: Table,
    marginals: Vec<Marginal>,
}

/// The per-thread replay state.
#[derive(Default)]
struct ReplayOut {
    rows: RowCounts,
    ipf: Vec<IpfReport>,
    bytes: u64,
}

/// Encode a request and the server's response frames for `r` and decode
/// them again, as the two ends of the wire do; returns the bytes moved.
fn replay_protocol(
    rec: &mut Recorder,
    id: u64,
    root: Option<usize>,
    request: &Request,
    r: &RemoteResult,
) -> u64 {
    let frames: Vec<(u8, Vec<u8>)> = rec.time("protocol.encode", id, root, || {
        let fields = r
            .table
            .schema()
            .fields()
            .iter()
            .map(|f| WireField {
                name: f.name.clone(),
                data_type: f.data_type,
                nullable: f.nullable,
            })
            .collect();
        let mut frames = vec![request.encode(), Response::Schema { fields }.encode()];
        let mut start = 0;
        while start < r.table.num_rows() {
            let end = (start + ROWS_PER_BATCH).min(r.table.num_rows());
            let rows = (start..end).map(|i| r.table.row(i)).collect();
            frames.push(Response::RowBatch { rows }.encode());
            start = end;
        }
        frames.push(
            Response::Done {
                visibility: r.visibility,
                notes: r.notes.clone(),
            }
            .encode(),
        );
        frames
    });
    rec.time("protocol.decode", id, root, || {
        let (ty, payload) = &frames[0];
        Request::decode(*ty, payload).expect("request decodes");
        for (ty, payload) in &frames[1..] {
            Response::decode(*ty, payload).expect("response decodes");
        }
    });
    // Each frame carries a 5-byte header: type byte plus u32 length.
    frames.iter().map(|(_, p)| p.len() as u64 + 5).sum()
}

impl ReplayCtx {
    fn new(engine: &Arc<MosaicEngine>, reads: &[Read]) -> ReplayCtx {
        let session = engine.session();
        let plans = reads
            .iter()
            .map(|r| {
                let p = session.prepare(r.sql).expect("read prepares");
                let physical = lower_logical(p.logical_plan())
                    .with_parallelism(PARALLELISM)
                    .with_agg_partitions(AGG_PARTITIONS);
                let join_logical = physical.is_join().then(|| p.logical_plan().clone());
                ReadPlan {
                    physical,
                    join_logical,
                }
            })
            .collect();
        let cat = engine.catalog();
        ReplayCtx {
            engine: Arc::clone(engine),
            plans,
            sample: cat.sample("VisitSample").expect("sample").data.clone(),
            marginals: cat
                .metadata_for("Visits")
                .iter()
                .map(|m| m.marginal.clone())
                .collect(),
        }
    }

    /// Replay the engine work of a read that missed the result cache.
    fn replay_miss(
        &self,
        rec: &mut Recorder,
        out: &mut ReplayOut,
        id: u64,
        root: Option<usize>,
        read: &Read,
        plan: &ReadPlan,
    ) {
        if !matches!(read.shape, Shape::Prepared(_)) {
            let stmt = rec.time("sql.parse", id, root, || parse(read.sql).expect("parses"));
            rec.time("plan.plan", id, root, || {
                match (&plan.join_logical, stmt.first()) {
                    (Some(logical), _) => {
                        plan_logical(logical.clone(), true, None);
                    }
                    (None, Some(Statement::Select(s))) => {
                        plan_select(s, read.shape == Shape::SemiOpen, true, None);
                    }
                    _ => {}
                }
            });
        }
        let params = match read.shape {
            Shape::Prepared(v) => vec![Value::Int(v)],
            _ => Vec::new(),
        };
        let plan = &plan.physical;
        let (result, examined) = if read.shape == Shape::SemiOpen {
            let ipf = rec.time("ipf.build", id, root, || {
                Ipf::new(&self.sample, &self.marginals, &HashMap::new()).expect("IPF indexes")
            });
            let ones = vec![1.0; self.sample.num_rows()];
            let (w, report) = rec.time("ipf.fit", id, root, || {
                ipf.fit(Some(&ones), &IpfConfig::default())
            });
            out.ipf.push(report);
            rec.time(read.kind.span(), id, root, || {
                let out = plan.execute(&self.sample, Some(&w));
                (out, self.sample.num_rows())
            })
        } else {
            let (left, right) = {
                let cat = self.engine.catalog();
                let left = if read.shape == Shape::Events {
                    "events"
                } else {
                    "t"
                };
                (
                    cat.aux(left).expect("table").clone(),
                    cat.aux("d").expect("d").clone(),
                )
            };
            rec.time(read.kind.span(), id, root, || {
                if plan.is_join() {
                    let out = plan.execute_join_with_params(&left, &right, &params);
                    (out, left.num_rows() + right.num_rows())
                } else {
                    let out = plan.execute_with_params(&left, None, &params);
                    (out, left.num_rows())
                }
            })
        };
        out.rows.add(examined, &result.expect("replayed plan runs"));
    }
}

/// Global write counters: batches sent and batches acknowledged.
#[derive(Default)]
struct Writes {
    sent: AtomicU64,
    acked: AtomicU64,
}

/// Check an `events` read against the closed form of the batches: it
/// must show a whole number `m` of batches with every acknowledged batch
/// before the read was sent (`lo`) and no more than were sent before it
/// returned (`hi`). Returns `m`.
fn check_events(read: &Read, t: &Table, lo: u64, hi: u64) -> Option<u64> {
    let m = if read.sql == EVENTS_TOTAL {
        let n = t.value(0, 0).as_f64()? as i64;
        let m = n / KINDS.len() as i64;
        let sum_ok = match t.value(0, 1) {
            Value::Null => m == 0,
            v => v.as_f64()? as i64 == BATCH_SUM * m,
        };
        (n % KINDS.len() as i64 == 0 && sum_ok).then_some(m as u64)?
    } else {
        let m = if t.num_rows() == 0 {
            0
        } else {
            t.value(0, 1).as_f64()? as u64
        };
        let rows_ok = (t.num_rows() == 0 && m == 0)
            || (t.num_rows() == KINDS.len()
                && (0..KINDS.len()).all(|r| {
                    t.value(r, 0) == Value::Str(KINDS[r].to_string())
                        && t.value(r, 1).as_f64() == Some(m as f64)
                }));
        rows_ok.then_some(m)?
    };
    (lo..=hi).contains(&m).then_some(m)
}

/// What one connection measured.
#[derive(Default)]
struct ConnOut {
    closed: Latencies,
    semi_open: Latencies,
    writes: Latencies,
    untraced: Latencies,
    attempted: u64,
    failed: u64,
    traced_ops: u64,
    replay: ReplayOut,
}

/// Drive one connection until the window ends.
#[allow(clippy::too_many_arguments)]
fn drive(
    conn: usize,
    client: &mut Client,
    cfg: &RunConfig,
    reads: &[Read],
    expected: &[Option<u64>],
    writes: &Writes,
    ctx: Option<&ReplayCtx>,
    rec: &mut Recorder,
    start: Instant,
) -> ConnOut {
    let mut out = ConnOut {
        closed: Latencies::resident((cfg.seconds * OPS_PER_CONN_SECOND) as usize),
        ..ConnOut::default()
    };
    let window = Duration::from_secs_f64(cfg.seconds);
    let traced_from = if ctx.is_some() { window / 3 } else { window };
    let zipf = Zipf::new(reads.len(), ZIPF_S);
    let mut rng = Rng::new(cfg.seed, 30 + conn as u64);
    let mut mix = BlockMix::new(Rng::new(cfg.seed, 40 + conn as u64), &[READS_PER_WRITE, 1]);
    let mut batch = 0u64;
    let mut last_events = 0u64;
    while start.elapsed() < window {
        let tracing = ctx.is_some() && start.elapsed() >= traced_from;
        rec.set_enabled(tracing);
        let id = ((conn as u64) << 48) | out.attempted;
        out.attempted += 1;
        if mix.next_class() == 1 {
            let rows: Vec<String> = KINDS
                .iter()
                .zip(1..)
                .map(|(k, v)| format!("({conn}, {batch}, '{k}', {v})"))
                .collect();
            let sql = format!("INSERT INTO events VALUES {}", rows.join(", "));
            batch += 1;
            writes.sent.fetch_add(1, Ordering::SeqCst);
            let t0 = Instant::now();
            let result = client.query(&sql);
            let t1 = Instant::now();
            out.writes.push(t1 - t0);
            let root = rec.record("op.write", id, None, t0, t1);
            match result {
                Ok(r) => {
                    writes.acked.fetch_add(1, Ordering::SeqCst);
                    if tracing {
                        rec.time("sql.parse", id, root, || parse(&sql).expect("parses"));
                        out.replay.bytes +=
                            replay_protocol(rec, id, root, &Request::Query { sql }, &r);
                    }
                }
                Err(e) => {
                    eprintln!("wire-dashboard: write failed: {e}");
                    out.failed += 1;
                }
            }
            if tracing {
                out.traced_ops += 1;
            } else if ctx.is_some() {
                out.untraced.push(t1 - t0);
            }
            continue;
        }
        let w = zipf.draw(&mut rng);
        let read = &reads[w];
        let lo = writes.acked.load(Ordering::SeqCst);
        let request = match read.shape {
            Shape::Prepared(v) => Request::ExecutePrepared {
                name: PREPARED_NAME.to_string(),
                params: vec![Value::Int(v)],
            },
            _ => Request::Query {
                sql: read.sql.to_string(),
            },
        };
        let t0 = Instant::now();
        let result = match &request {
            Request::ExecutePrepared { name, params } => client.execute_prepared(name, params),
            _ => client.query(read.sql),
        };
        let t1 = Instant::now();
        let hi = writes.sent.load(Ordering::SeqCst);
        let (lat, span) = if read.shape == Shape::SemiOpen {
            (&mut out.semi_open, "op.semi_open")
        } else {
            (&mut out.closed, "op.closed")
        };
        lat.push(t1 - t0);
        let root = rec.record(span, id, None, t0, t1);
        if tracing {
            out.traced_ops += 1;
        } else if ctx.is_some() {
            out.untraced.push(t1 - t0);
        }
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("wire-dashboard: {} failed: {e}", read.sql);
                out.failed += 1;
                continue;
            }
        };
        let correct = if read.shape == Shape::Events {
            // Monotone per connection: a later read never sees fewer
            // batches than an earlier one did.
            match check_events(read, &r.table, lo.max(last_events), hi) {
                Some(m) => {
                    last_events = m;
                    true
                }
                None => false,
            }
        } else {
            expected[w] == Some(digest(&r.table))
        };
        if !correct {
            eprintln!("wire-dashboard: wrong answer for {}", read.sql);
            out.failed += 1;
        }
        if let (Some(ctx), true) = (ctx, tracing) {
            out.replay.bytes += replay_protocol(rec, id, root, &request, &r);
            if !r.notes.iter().any(|n| n.starts_with("result cache hit")) {
                ctx.replay_miss(rec, &mut out.replay, id, root, read, &ctx.plans[w]);
            }
        }
    }
    out
}

/// Run the workload.
pub fn run(cfg: &RunConfig, scale: &Scale) -> Report {
    let mut report = Report::default();
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, cfg.trace);
    let (mut served, setup_times) = repeated_setup(
        || (),
        |()| Served::start(build_engine(cfg.seed, scale, &mut rec)),
    );
    report.set("setup_s", median(&setup_times));
    report.note("setup_s_each", format!("{setup_times:.3?}"));
    let engine = Arc::clone(&served.engine);
    let table_bytes: usize = {
        let cat = engine.catalog();
        ["t", "d"]
            .iter()
            .map(|n| cat.aux(n).expect("table").approx_bytes())
            .sum::<usize>()
            + cat
                .sample("VisitSample")
                .expect("sample")
                .data
                .approx_bytes()
    };
    report.note(
        "inputs",
        format!(
            "t {} rows, population sample {} rows, {CONNECTIONS} connections",
            scale.rows, scale.sample_rows
        ),
    );

    // Expected answers of every non-events read, through a cache-off
    // session (the events table starts empty and only grows).
    let reads = reads();
    let oracle = engine.session().with_result_cache(false);
    let expected: Vec<Option<u64>> = reads
        .iter()
        .map(|r| match r.shape {
            Shape::Events => None,
            Shape::Prepared(v) => {
                let sql = PREPARED_SQL.replacen('?', &v.to_string(), 1);
                Some(digest(&oracle.query(&sql).expect("prepared read runs")))
            }
            _ => Some(digest(&oracle.query(r.sql).expect("read runs"))),
        })
        .collect();
    let ctx = cfg.trace.then(|| ReplayCtx::new(&engine, &reads));

    let writes = Writes::default();
    mosaic_core::reset_worker_thread_peak();
    let cache_start = engine.cache_stats();
    let mut rss = RssPeak::start();
    let start = Instant::now();
    let traced_at = start + Duration::from_secs_f64(cfg.seconds) / 3;
    let (outs, (cache_before, worker_peak)): (Vec<(ConnOut, Recorder)>, _) =
        std::thread::scope(|s| {
            let workers: Vec<_> = served
                .clients
                .iter_mut()
                .enumerate()
                .map(|(conn, client)| {
                    let (reads, expected, writes, ctx) = (&reads, &expected, &writes, ctx.as_ref());
                    s.spawn(move || {
                        let mut rec = Recorder::new(origin, false);
                        let out = drive(
                            conn, client, cfg, reads, expected, writes, ctx, &mut rec, start,
                        );
                        (out, rec)
                    })
                })
                .collect();
            // Sample memory while the connections run; counter deltas of
            // the traced part start when tracing does.
            let mut before = (cache_start.clone(), 0);
            let mut captured = !cfg.trace;
            while !workers.iter().all(|w| w.is_finished()) {
                rss.poll();
                if !captured && Instant::now() >= traced_at {
                    before = (engine.cache_stats(), mosaic_core::worker_thread_peak());
                    captured = true;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let outs = workers
                .into_iter()
                .map(|w| w.join().expect("connection thread panicked"))
                .collect();
            (outs, before)
        });
    let elapsed = start.elapsed().as_secs_f64();
    report.set("peak_rss_mb", rss.finish_mb());
    let cache_after = engine.cache_stats();
    let (permit_peak, rejected) = (
        served.handle.permit_peak(),
        served.handle.rejected_connections(),
    );
    drop(served);

    let mut all = Latencies::default();
    let mut closed = Latencies::default();
    let mut semi_open = Latencies::default();
    let mut write_lat = Latencies::default();
    let mut untraced = Latencies::default();
    let mut replay = ReplayOut::default();
    let mut traced_ops = 0;
    for (out, r) in outs {
        report.attempted += out.attempted;
        report.failed += out.failed;
        for l in [&out.closed, &out.semi_open, &out.writes] {
            all.extend(l);
        }
        closed.extend(&out.closed);
        semi_open.extend(&out.semi_open);
        write_lat.extend(&out.writes);
        untraced.extend(&out.untraced);
        traced_ops += out.traced_ops;
        replay.rows.merge(out.replay.rows);
        replay.ipf.extend(out.replay.ipf);
        replay.bytes += out.replay.bytes;
        rec.absorb(r);
    }
    report.set("qps", report.attempted as f64 / elapsed);
    report.set("p50_ms", all.percentile_ms(0.5).unwrap_or(0.0));
    report.set("p95_ms", all.percentile_ms(0.95).unwrap_or(0.0));
    report.set("closed_p50_ms", closed.percentile_ms(0.5).unwrap_or(0.0));
    report.set(
        "semi_open_p50_ms",
        semi_open.percentile_ms(0.5).unwrap_or(0.0),
    );
    report.set("write_p50_ms", write_lat.percentile_ms(0.5).unwrap_or(0.0));
    report.note(
        "samples",
        format!(
            "{} ops ({} CLOSED reads, {} SEMI-OPEN reads, {} writes = {} batches) in {elapsed:.2} s",
            all.len(),
            closed.len(),
            semi_open.len(),
            write_lat.len(),
            writes.acked.load(Ordering::SeqCst)
        ),
    );
    report.note(
        "cache",
        format!(
            "{} hits, {} misses, {} invalidations over the run",
            cache_after.hits - cache_start.hits,
            cache_after.misses - cache_start.misses,
            cache_after.invalidations - cache_start.invalidations
        ),
    );
    report.finish_counts();

    if cfg.trace {
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
        let fits = replay.ipf.len().max(1) as f64;
        report.set(
            "ipf.iterations",
            replay.ipf.iter().map(|r| r.iterations).sum::<usize>() as f64 / fits,
        );
        report.set(
            "ipf.converged_ratio",
            replay.ipf.iter().filter(|r| r.converged).count() as f64 / fits,
        );
        report.set("storage.load_ms", summary.median_ms("storage.load"));
        report.set("storage.table_mb", table_bytes as f64 / 1e6);
        report.set(
            "protocol.bytes_per_op",
            replay.bytes as f64 / traced_ops.max(1) as f64,
        );
        report.set("admission.permit_peak", permit_peak as f64);
        report.set("server.rejected", rejected as f64);
        report.note(
            "layer_shares",
            format!(
                "protocol {:.1}% exec {:.1}% sql {:.1}% plan {:.1}% of traced op time",
                summary.share("protocol.") * 100.0,
                summary.share("exec.") * 100.0,
                summary.share("sql.") * 100.0,
                summary.share("plan.") * 100.0
            ),
        );
        report.spans = Some(rec);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_core::TableBuilder;

    fn total(n: Value, s: Value) -> Table {
        let mut b = TableBuilder::new(Schema::new(vec![
            Field::new("n", DataType::Int),
            Field::new("s", DataType::Int),
        ]));
        b.push_row(vec![n, s]).unwrap();
        b.finish()
    }

    #[test]
    fn events_reads_follow_the_closed_form() {
        let reads = reads();
        let read = &reads[0];
        assert_eq!(read.sql, EVENTS_TOTAL);
        assert_eq!(
            check_events(read, &total(Value::Int(0), Value::Null), 0, 0),
            Some(0)
        );
        let rows = |batches: usize| Value::Int((batches * KINDS.len()) as i64);
        let three = total(rows(3), Value::Int(3 * BATCH_SUM));
        assert_eq!(check_events(read, &three, 2, 4), Some(3));
        // Fewer batches than were acknowledged before the read.
        assert_eq!(check_events(read, &three, 4, 5), None);
        // More than were ever sent.
        assert_eq!(check_events(read, &three, 0, 2), None);
        // A torn batch, or a wrong sum.
        let torn = total(
            Value::Int(3 * KINDS.len() as i64 - 1),
            Value::Int(3 * BATCH_SUM),
        );
        assert_eq!(check_events(read, &torn, 0, 9), None);
        let wrong_sum = total(rows(3), Value::Int(3 * BATCH_SUM + 1));
        assert_eq!(check_events(read, &wrong_sum, 0, 9), None);
    }
}
