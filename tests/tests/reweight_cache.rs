//! The epoch-validated population caches, end to end:
//!
//! * The **reweighting cache** serves SEMI-OPEN weights computed once per
//!   catalog state. A cached answer is bit-identical to a fresh engine's
//!   answer, for single-population queries (over the GP and over a
//!   derived population) and for SEMI-OPEN join sides.
//! * Every write the weights depend on invalidates it: `INSERT` into the
//!   sample, `ingest_sample`, `set_sample_weights`, `CREATE METADATA` on
//!   the population or its GP, and `register_binner`.
//!   After each, the answer equals a fresh engine that saw the same
//!   writes. A write to an unrelated table still hits, and different IPF
//!   configurations get separate entries.
//! * The **OPEN model cache** also survives unrelated writes, and does
//!   not serve a model trained before `register_binner`.
//!
//! Every session here opts out of the result cache, so each query runs
//! the SEMI-OPEN pipeline and the notes show the reweighting cache alone.

use std::sync::Arc;

use mosaic_bn::BnConfig;
use mosaic_core::{
    Binner, EngineOptions, IpfConfig, MosaicEngine, OpenBackend, OpenOptions, QueryResult, Table,
};

const WORLD: &str = "
    CREATE TABLE Report (country TEXT, reported_count INT);
    INSERT INTO Report VALUES ('UK', 600), ('FR', 400);
    CREATE TABLE Mail (email TEXT, reported_count INT);
    INSERT INTO Mail VALUES ('Yahoo', 300), ('AOL', 700);
    CREATE TABLE Cities (country TEXT, capital TEXT);
    INSERT INTO Cities VALUES ('UK', 'London'), ('FR', 'Paris');
    CREATE TABLE Unrelated (x INT);
    CREATE GLOBAL POPULATION Migrants (country TEXT, email TEXT, age INT);
    CREATE POPULATION UKMigrants AS (SELECT * FROM Migrants WHERE country = 'UK');
    CREATE METADATA Migrants_M1 AS (SELECT country, reported_count FROM Report);
    CREATE SAMPLE S AS (SELECT * FROM Migrants);
    INSERT INTO S VALUES ('UK', 'Yahoo', 30), ('UK', 'AOL', 41), ('FR', 'Yahoo', 25),
                         ('FR', 'AOL', 52), ('UK', 'Yahoo', 38), ('FR', 'AOL', 61);";

/// A SEMI-OPEN query over the GP.
const GP_QUERY: &str =
    "SELECT SEMI-OPEN email, COUNT(*) AS n FROM Migrants GROUP BY email ORDER BY email";
/// A SEMI-OPEN query over the derived population.
const DERIVED_QUERY: &str =
    "SELECT SEMI-OPEN email, SUM(age) AS s FROM UKMigrants GROUP BY email ORDER BY email";
/// A join whose population side is SEMI-OPEN.
const JOIN_QUERY: &str = "SELECT SEMI-OPEN c.capital AS capital, COUNT(*) AS n \
     FROM Migrants m JOIN Cities c ON m.country = c.country GROUP BY c.capital ORDER BY capital";

/// A second GP marginal, over `email`.
fn add_email_metadata(engine: &Arc<MosaicEngine>) {
    engine
        .session()
        .execute("CREATE METADATA Migrants_M2 AS (SELECT email, reported_count FROM Mail)")
        .unwrap();
}

const REWEIGHT_HIT: &str = "reweighting cache hit";
const MODEL_HIT: &str = "generative model cache hit";

/// One write applied identically to the engine under test and to the
/// fresh engine its answers are checked against.
type Write = fn(&Arc<MosaicEngine>);

fn world(writes: &[Write]) -> Arc<MosaicEngine> {
    let engine = Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_open(
            OpenOptions::default()
                .with_backend(OpenBackend::BayesNet(BnConfig::default()))
                .with_num_generated(2)
                .with_rows_per_sample(Some(200))
                .with_seed(5),
        ),
    ));
    engine.session().execute(WORLD).unwrap();
    for w in writes {
        w(&engine);
    }
    engine
}

fn run(engine: &Arc<MosaicEngine>, sql: &str) -> QueryResult {
    engine
        .session()
        .with_result_cache(false)
        .execute(sql)
        .unwrap()
}

fn has(r: &QueryResult, note: &str) -> bool {
    r.notes.iter().any(|n| n == note)
}

fn assert_identical(a: &Table, b: &Table, ctx: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{ctx}: row count");
    assert_eq!(a.num_columns(), b.num_columns(), "{ctx}: column count");
    for r in 0..a.num_rows() {
        for c in 0..a.num_columns() {
            // `Value` equality compares floats by bit pattern.
            assert_eq!(a.value(r, c), b.value(r, c), "{ctx}: cell ({r},{c})");
        }
    }
}

/// `sql` on `engine` hits (or misses) the reweighting cache and answers
/// exactly what a fresh engine that saw `writes` answers.
fn assert_answer(engine: &Arc<MosaicEngine>, writes: &[Write], sql: &str, hit: bool, ctx: &str) {
    let r = run(engine, sql);
    assert_eq!(has(&r, REWEIGHT_HIT), hit, "{ctx}: {sql}: {:?}", r.notes);
    let fresh = run(&world(writes), sql);
    assert!(!has(&fresh, REWEIGHT_HIT), "{ctx}: fresh engine");
    assert_identical(&fresh.table, &r.table, &format!("{ctx}: {sql}"));
}

#[test]
fn cached_weights_answer_bit_identically_to_a_fresh_engine() {
    for sql in [GP_QUERY, DERIVED_QUERY, JOIN_QUERY] {
        let engine = world(&[]);
        assert_answer(&engine, &[], sql, false, "first run");
        assert_answer(&engine, &[], sql, true, "second run");
    }
    // The single-population query and the join side share one entry.
    let engine = world(&[]);
    run(&engine, GP_QUERY);
    assert_answer(&engine, &[], JOIN_QUERY, true, "join after GP query");
}

/// Each write, with the queries whose weights it must invalidate.
#[test]
fn every_dependency_write_invalidates() {
    let cases: [(&str, Write, &[&str]); 6] = [
        (
            "INSERT into the sample",
            |e| {
                e.session()
                    .execute("INSERT INTO S VALUES ('UK', 'AOL', 47)")
                    .unwrap();
            },
            &[GP_QUERY, DERIVED_QUERY, JOIN_QUERY],
        ),
        (
            "ingest_sample",
            |e| {
                let rows = e
                    .session()
                    .query("SELECT country, email, age FROM S WHERE age > 50")
                    .unwrap();
                e.ingest_sample("S", rows).unwrap();
            },
            &[GP_QUERY, DERIVED_QUERY, JOIN_QUERY],
        ),
        (
            "set_sample_weights",
            |e| {
                e.set_sample_weights("S", vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
                    .unwrap();
            },
            &[GP_QUERY, DERIVED_QUERY, JOIN_QUERY],
        ),
        (
            "CREATE METADATA on the GP (a GP write for the derived population)",
            add_email_metadata,
            &[GP_QUERY, DERIVED_QUERY, JOIN_QUERY],
        ),
        (
            "CREATE METADATA on the derived population",
            |e| {
                e.session()
                    .execute(
                        "CREATE METADATA UKMigrants_M1 AS \
                         (SELECT email, reported_count FROM Mail)",
                    )
                    .unwrap();
            },
            &[DERIVED_QUERY],
        ),
        (
            "register_binner",
            |e| e.register_binner("age", Binner::equal_width(20.0, 70.0, 5)),
            &[GP_QUERY, DERIVED_QUERY, JOIN_QUERY],
        ),
    ];
    for (name, write, queries) in cases {
        for &sql in queries {
            let engine = world(&[]);
            run(&engine, sql);
            assert_answer(&engine, &[], sql, true, &format!("{name}: warm"));
            write(&engine);
            assert_answer(&engine, &[write], sql, false, name);
            assert_answer(&engine, &[write], sql, true, &format!("{name}: rewarmed"));
        }
    }
}

#[test]
fn unrelated_writes_keep_hitting() {
    let engine = world(&[]);
    for sql in [GP_QUERY, DERIVED_QUERY, JOIN_QUERY] {
        run(&engine, sql);
    }
    let write: Write = |e| {
        e.session()
            .execute("INSERT INTO Unrelated VALUES (1)")
            .unwrap();
    };
    write(&engine);
    for sql in [GP_QUERY, DERIVED_QUERY, JOIN_QUERY] {
        assert_answer(&engine, &[write], sql, true, "after unrelated INSERT");
    }
}

#[test]
fn ipf_configurations_get_separate_entries() {
    // With two marginals IPF needs more than one pass, and the first
    // marginal's attribute is off target after a single pass, so a
    // 1-pass configuration answers this query differently.
    let q =
        "SELECT SEMI-OPEN country, COUNT(*) AS n FROM Migrants GROUP BY country ORDER BY country";
    let engine = world(&[add_email_metadata]);
    let default = run(&engine, q);
    let short = IpfConfig::default().with_max_iterations(1);
    engine.options_write().ipf = short.clone();
    let r = run(&engine, q);
    assert!(
        !has(&r, REWEIGHT_HIT),
        "a new IPF config misses: {:?}",
        r.notes
    );
    let fresh = world(&[add_email_metadata]);
    fresh.options_write().ipf = short;
    assert_identical(&run(&fresh, q).table, &r.table, "1-pass IPF");
    assert_ne!(
        default.table.value(0, 1),
        r.table.value(0, 1),
        "configs differ"
    );
    engine.options_write().ipf = IpfConfig::default();
    let back = run(&engine, q);
    assert!(
        has(&back, REWEIGHT_HIT),
        "the default config's entry survives"
    );
    assert_identical(&default.table, &back.table, "default IPF again");
}

#[test]
fn open_models_survive_unrelated_writes_but_not_new_binners() {
    let engine = world(&[]);
    let q = "SELECT OPEN email, COUNT(*) AS n FROM Migrants GROUP BY email ORDER BY email";
    let first = run(&engine, q);
    assert!(!has(&first, MODEL_HIT), "{:?}", first.notes);
    engine
        .session()
        .execute("INSERT INTO Unrelated VALUES (1)")
        .unwrap();
    let second = run(&engine, q);
    assert!(
        has(&second, MODEL_HIT),
        "unrelated write: {:?}",
        second.notes
    );
    assert_identical(&first.table, &second.table, "OPEN after unrelated write");
    engine.register_binner("age", Binner::equal_width(20.0, 70.0, 5));
    let third = run(&engine, q);
    assert!(
        !has(&third, MODEL_HIT),
        "new binner retrains: {:?}",
        third.notes
    );
}
