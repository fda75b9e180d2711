//! Sessions and prepared statements — the concurrent client surface of
//! the engine.
//!
//! A [`Session`] is a lightweight handle onto a shared
//! [`MosaicEngine`]: an `Arc` plus a set of per-session overrides
//! (default visibility, generation seed, thread cap, OPEN backend).
//! Sessions never mutate the engine-wide [`EngineOptions`], so any
//! number of them can run concurrently with different settings.
//!
//! [`Session::prepare`] implements the prepare-once/execute-many
//! pattern of the paper's workload (§5.3 re-runs one aggregate template
//! across visibilities and replicates): the SQL is parsed once, names
//! are bound against the catalog, the physical plan is lowered and
//! cached, and [`Session::execute_prepared`] only binds `?` parameter
//! values and executes — no parsing, no planning.

use std::sync::Arc;

use mosaic_sql::{SelectItem, SelectStmt, Statement, Visibility};
use mosaic_storage::{Schema, Table, Value};

use crate::catalog::Catalog;
use crate::engine::{
    choose_sample, EngineOptions, MosaicEngine, OpenBackend, QueryPlans, QueryResult,
};
use crate::plan::logical::LogicalPlan;
use crate::plan::{has_aggregate_shape, plan_select, PhysicalPlan};
use crate::{MosaicError, Result};

/// Per-session overrides over the engine-wide [`EngineOptions`]. Every
/// field is optional: `None` means "inherit the engine default".
///
/// `#[non_exhaustive]`: construct via [`SessionOptions::default`] and
/// the [`Session::with_*`](Session::with_parallelism) builders.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SessionOptions {
    /// Visibility applied to population queries that don't specify one.
    pub default_visibility: Option<Visibility>,
    /// Base seed for OPEN-query generation.
    pub seed: Option<u64>,
    /// Worker-thread cap for this session's queries.
    pub parallelism: Option<usize>,
    /// Radix-partition count for the parallel aggregate merge (1 =
    /// serial merge; never changes results, only wall-clock time).
    pub agg_partitions: Option<usize>,
    /// Generative backend for this session's OPEN queries.
    pub open_backend: Option<OpenBackend>,
    /// Whether this session's SELECT planning runs the rule-based
    /// logical optimizer (overrides [`EngineOptions::optimizer`]).
    pub optimizer: Option<bool>,
    /// Whether this session's queries participate in the shared result
    /// cache (overrides [`EngineOptions::result_cache`]). `Some(false)`
    /// opts this session out without shrinking the engine-wide cache.
    pub result_cache: Option<bool>,
}

/// A client session on a shared [`MosaicEngine`].
///
/// Cloning a session clones its overrides and shares the engine.
/// Sessions are `Send`: move them into threads freely — the engine's
/// catalog lock lets all sessions read concurrently while DDL/DML
/// serializes.
#[derive(Clone)]
pub struct Session {
    engine: Arc<MosaicEngine>,
    overrides: SessionOptions,
}

impl Session {
    pub(crate) fn new(engine: Arc<MosaicEngine>) -> Session {
        Session {
            engine,
            overrides: SessionOptions::default(),
        }
    }

    /// The shared engine this session runs on.
    pub fn engine(&self) -> &Arc<MosaicEngine> {
        &self.engine
    }

    /// This session's overrides.
    pub fn overrides(&self) -> &SessionOptions {
        &self.overrides
    }

    /// Override the default visibility of population queries.
    pub fn with_default_visibility(mut self, v: Visibility) -> Session {
        self.overrides.default_visibility = Some(v);
        self
    }

    /// Override the OPEN-query generation seed.
    pub fn with_seed(mut self, seed: u64) -> Session {
        self.overrides.seed = Some(seed);
        self
    }

    /// Override the worker-thread cap (minimum 1; never changes
    /// results, only wall-clock time).
    pub fn with_parallelism(mut self, n: usize) -> Session {
        self.overrides.parallelism = Some(n.max(1));
        self
    }

    /// Override the radix-partition count of the parallel aggregate
    /// merge (minimum 1; `1` runs the merge as a single serial pass).
    /// Like the thread cap, the partition count never changes results.
    pub fn with_agg_partitions(mut self, n: usize) -> Session {
        self.overrides.agg_partitions = Some(n.max(1));
        self
    }

    /// Override the OPEN generative backend.
    pub fn with_open_backend(mut self, backend: OpenBackend) -> Session {
        self.overrides.open_backend = Some(backend);
        self
    }

    /// Enable or disable the rule-based logical optimizer for this
    /// session's statements (results are bit-identical either way —
    /// only latency changes). Statements prepared *before* the override
    /// keep the plans they were prepared with.
    pub fn with_optimizer(mut self, on: bool) -> Session {
        self.overrides.optimizer = Some(on);
        self
    }

    /// Opt this session in or out of the shared result cache (in by
    /// default when the engine cache has capacity). Opting out never
    /// shrinks the engine-wide cache — other sessions keep their hits.
    /// Cached results are bit-identical to fresh execution, so this is
    /// a memory/latency knob, not a correctness one.
    pub fn with_result_cache(mut self, on: bool) -> Session {
        self.overrides.result_cache = Some(on);
        self
    }

    /// Execute a script of semicolon-separated statements; returns the
    /// result of the last SELECT (or an empty result).
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.engine.execute_with(sql, &self.overrides)
    }

    /// Execute a script and return just the last result table.
    pub fn query(&self, sql: &str) -> Result<Table> {
        self.execute(sql).map(|r| r.table)
    }

    /// Execute `sql` only if the engine's shared plan cache holds an
    /// epoch-valid plan for the exact script text — the zero-parse hot
    /// path servers probe before falling back to [`Session::execute`].
    /// `None` means no cached plan (never an error).
    pub fn execute_cached(&self, sql: &str) -> Option<Result<QueryResult>> {
        self.engine.execute_hot(sql, &self.overrides)
    }

    /// Execute one already-parsed statement (shells use this to report
    /// per-statement errors). Returns `None` for statements without a
    /// result (DDL/DML).
    pub fn execute_parsed(&self, stmt: Statement) -> Result<Option<QueryResult>> {
        let opts = self.engine.effective_options(&self.overrides);
        self.engine.execute_statement(stmt, &opts)
    }

    /// Prepare a single SELECT statement: parse once, bind names
    /// against the catalog, resolve the visibility pipeline, lower the
    /// physical plan, and count `?` parameters. The returned
    /// [`Prepared`] is immutable and `Sync` — share it across sessions
    /// and threads, and re-execute it with different parameter values
    /// without re-parsing or re-planning.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let mut stmts = mosaic_sql::parse(sql)?;
        if stmts.len() != 1 {
            return Err(MosaicError::Bind(format!(
                "prepare expects exactly one statement, found {}",
                stmts.len()
            )));
        }
        let stmt = match stmts.pop().expect("checked length") {
            Statement::Select(s) => s,
            other => {
                return Err(MosaicError::Bind(format!(
                    "only SELECT statements can be prepared, found {other:?}"
                )))
            }
        };
        let opts = self.engine.effective_options(&self.overrides);
        let cat = self.engine.catalog();
        Prepared::bind(&cat, &opts, stmt, sql)
    }

    /// Execute a prepared statement with positional-parameter values
    /// (one [`Value`] per `?`, in lexical order). Skips parsing and
    /// planning entirely: the cached plan runs with the parameters
    /// bound into its placeholder expressions.
    pub fn execute_prepared(&self, prepared: &Prepared, params: &[Value]) -> Result<QueryResult> {
        if params.len() != prepared.param_count {
            return Err(MosaicError::Param(format!(
                "prepared statement expects {} parameter(s), got {}",
                prepared.param_count,
                params.len()
            )));
        }
        let opts = self.engine.effective_options(&self.overrides);
        let cat = self.engine.catalog();
        prepared.check_source(&cat)?;
        self.engine.select_prepared(&cat, &opts, prepared, params)
    }

    /// [`Session::execute_prepared`], returning just the result table.
    pub fn query_prepared(&self, prepared: &Prepared, params: &[Value]) -> Result<Table> {
        self.execute_prepared(prepared, params).map(|r| r.table)
    }
}

/// What relation a prepared statement was bound against.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PreparedSource {
    /// `SELECT` without FROM.
    Scalar,
    /// An auxiliary table.
    Aux(String),
    /// A raw sample scan.
    Sample(String),
    /// A population query (visibility resolved at prepare time).
    Population(String),
    /// A multi-relation scope (join): every relation with its bound
    /// kind, in source order.
    Scope(Vec<(String, ScopeRelKind)>),
}

/// What kind of relation a scope member bound to (staleness checks
/// re-verify the kind at execute time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeRelKind {
    Aux,
    Sample,
    Population,
}

/// A prepared SELECT: the parsed statement, its binding against the
/// catalog, and the cached physical plan(s).
///
/// Produced by [`Session::prepare`]; executed by
/// [`Session::execute_prepared`]. Immutable and thread-safe: one
/// `Prepared` can serve any number of sessions concurrently.
pub struct Prepared {
    sql: String,
    stmt: SelectStmt,
    param_count: usize,
    source: PreparedSource,
    /// The *optimized* logical plan (rules ran once, at prepare time;
    /// parameter-aware constant folding leaves `?` residuals for
    /// execution to bind).
    logical: LogicalPlan,
    /// [`crate::plan::fingerprint::plan_hash`] of `logical`.
    plan_hash: u64,
    /// Optimizer rules that fired at prepare time.
    fired: Vec<&'static str>,
    plan: PhysicalPlan,
    /// For aggregate OPEN queries: the plan of the inner body (ORDER
    /// BY / LIMIT stripped) each generative replicate runs.
    inner_plan: Option<PhysicalPlan>,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("sql", &self.sql)
            .field("param_count", &self.param_count)
            .field("source", &self.source)
            .field("logical", &self.logical.to_string())
            .field("fired", &self.fired)
            .field("plan", &self.plan.to_string())
            .finish_non_exhaustive()
    }
}

impl Prepared {
    /// The original SQL text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Number of positional parameters (`?`) the statement expects.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The resolved visibility (population queries; `None` otherwise).
    pub fn visibility(&self) -> Option<Visibility> {
        self.stmt.visibility
    }

    /// The cached logical plan — already optimized, so every execution
    /// reuses the rewrite the optimizer did once at prepare time.
    pub fn logical_plan(&self) -> &LogicalPlan {
        &self.logical
    }

    /// The stable hash of the optimized plan, for the result-cache
    /// fingerprint.
    pub(crate) fn plan_hash(&self) -> u64 {
        self.plan_hash
    }

    /// Names of the optimizer rules that fired at prepare time (empty
    /// when the optimizer was off or nothing applied).
    pub fn fired_rules(&self) -> &[&'static str] {
        &self.fired
    }

    /// The bound (visibility-resolved, possibly scope-rewritten)
    /// statement this plan executes.
    pub(crate) fn stmt(&self) -> &SelectStmt {
        &self.stmt
    }

    /// Package the cached plans for [`MosaicEngine::select`].
    pub(crate) fn query_plans<'a>(&'a self, params: &'a [Value]) -> QueryPlans<'a> {
        QueryPlans {
            plan: Some(&self.plan),
            inner_plan: self.inner_plan.as_ref(),
            params,
        }
    }

    /// Resolved names of every relation this statement reads, for epoch
    /// snapshots and the fingerprint (scalar SELECTs read none).
    pub(crate) fn relations(&self) -> Vec<String> {
        match &self.source {
            PreparedSource::Scalar => Vec::new(),
            PreparedSource::Aux(name)
            | PreparedSource::Sample(name)
            | PreparedSource::Population(name) => vec![name.clone()],
            PreparedSource::Scope(rels) => rels.iter().map(|(name, _)| name.clone()).collect(),
        }
    }

    /// Bind a parsed SELECT against the catalog: resolve the source
    /// relation(s), check every referenced column against its schema,
    /// resolve the visibility pipeline, and lower the plan(s).
    pub(crate) fn bind(
        cat: &Catalog,
        opts: &EngineOptions,
        stmt: SelectStmt,
        sql: &str,
    ) -> Result<Prepared> {
        let param_count = stmt.param_count();
        // Multi-relation scopes (joins, aliases, qualified references)
        // bind through the scope binder and cache the join plan.
        if let Some(fc) = stmt.from.clone() {
            if crate::plan::join::needs_scope(&stmt, &fc) {
                return Self::bind_scope(cat, opts, stmt, &fc, sql, param_count);
            }
        }
        let (source, stmt, schema): (PreparedSource, SelectStmt, Option<Arc<Schema>>) = match stmt
            .from
            .clone()
            .map(|f| f.base.name)
        {
            None => {
                let cols = stmt.referenced_columns();
                if let Some(c) = cols.first() {
                    return Err(MosaicError::Bind(format!(
                        "column {c} is not allowed in a SELECT without FROM"
                    )));
                }
                // Mirror the engine's scalar path: wildcards drop.
                let items: Vec<SelectItem> = stmt
                    .items
                    .iter()
                    .filter(|i| !matches!(i, SelectItem::Wildcard))
                    .cloned()
                    .collect();
                (PreparedSource::Scalar, SelectStmt { items, ..stmt }, None)
            }
            Some(from) => {
                if let Some(pop) = cat.population(&from) {
                    // Resolve the visibility now so the plan's
                    // weighted-rewrite property is fixed; the session
                    // default is baked into the prepared statement.
                    let vis = stmt.visibility.unwrap_or(opts.default_visibility);
                    let stmt = SelectStmt {
                        visibility: Some(vis),
                        ..stmt
                    };
                    (
                        PreparedSource::Population(pop.name.clone()),
                        stmt,
                        Some(Arc::clone(&pop.schema)),
                    )
                } else if stmt.visibility.is_some() {
                    return Err(MosaicError::Bind(
                            "visibility levels (CLOSED/SEMI-OPEN/OPEN) apply to population queries only"
                                .into(),
                        ));
                } else if let Some(t) = cat.aux(&from) {
                    (
                        PreparedSource::Aux(from.clone()),
                        stmt,
                        Some(Arc::clone(t.schema())),
                    )
                } else if let Some(s) = cat.sample(&from) {
                    // Samples expose the engine-managed `weight` column;
                    // bind (and optimize) against the augmented schema.
                    (
                        PreparedSource::Sample(s.name.clone()),
                        stmt,
                        Some(crate::engine::sample_scan_schema(s)),
                    )
                } else {
                    return Err(match crate::engine::unknown_relation(cat, &from) {
                        MosaicError::Catalog(m) => MosaicError::Bind(m),
                        other => other,
                    });
                }
            }
        };
        // Name binding: every referenced column must exist in the
        // source schema (sample schemas were already augmented with the
        // engine-managed `weight` column above). ORDER BY keys get one
        // extra degree of freedom, mirroring the scope binder: a name
        // matching a SELECT item's output name (its alias or written
        // spelling) is a projection reference the sort resolves against
        // the output table at execution.
        if let Some(schema) = &schema {
            let output_names: Vec<String> = stmt
                .items
                .iter()
                .filter_map(|i| match i {
                    SelectItem::Expr { alias: Some(a), .. } => Some(a.clone()),
                    SelectItem::Expr { expr, alias: None } => Some(expr.default_name()),
                    SelectItem::Wildcard => None,
                })
                .collect();
            let unknown = |c: &str| {
                MosaicError::Bind(format!(
                    "unknown column {c} in relation {}",
                    stmt.from
                        .as_ref()
                        .map(|f| f.base.name.as_str())
                        .unwrap_or("<scalar>")
                ))
            };
            let body = stmt
                .items
                .iter()
                .filter_map(|i| match i {
                    SelectItem::Expr { expr, .. } => Some(expr),
                    SelectItem::Wildcard => None,
                })
                .chain(stmt.where_clause.iter())
                .chain(stmt.group_by.iter());
            for e in body {
                for c in e.referenced_columns() {
                    if !schema.contains(&c) {
                        return Err(unknown(&c));
                    }
                }
            }
            for (e, _) in &stmt.order_by {
                for c in e.referenced_columns() {
                    if !schema.contains(&c)
                        && !output_names.iter().any(|n| n.eq_ignore_ascii_case(&c))
                    {
                        return Err(unknown(&c));
                    }
                }
            }
        }
        // Plan: build the logical IR, run the optimizer once (projection
        // pruning against the bound schema, param-aware constant
        // folding, Sort+Limit fusion), lower the physical plan. The
        // weighted-rewrite property is a function of the resolved
        // visibility.
        let (weighted, open_agg) = match (&source, stmt.visibility) {
            (PreparedSource::Population(_), Some(Visibility::Closed)) => (false, false),
            (PreparedSource::Population(_), Some(Visibility::Open)) => {
                (true, has_aggregate_shape(&stmt))
            }
            (PreparedSource::Population(_), _) => (true, false),
            _ => (false, false),
        };
        // No `with_parallelism` / `with_agg_partitions` here: the thread
        // cap and merge-partition count are execution-time properties —
        // every prepared execution passes the session's effective values
        // through `execute_capped`.
        let planned = plan_select(&stmt, weighted, opts.optimizer, schema.as_deref());
        let inner_plan = open_agg.then(|| {
            let inner = SelectStmt {
                order_by: Vec::new(),
                limit: None,
                ..stmt.clone()
            };
            plan_select(&inner, true, opts.optimizer, schema.as_deref()).physical
        });
        Ok(Prepared {
            sql: sql.to_string(),
            stmt,
            param_count,
            source,
            plan_hash: crate::plan::fingerprint::plan_hash(&planned.optimized),
            logical: planned.optimized,
            fired: planned.fired,
            plan: planned.physical,
            inner_plan,
        })
    }

    /// Bind a multi-relation (or aliased) FROM: resolve every relation,
    /// run the scope binder (qualified-name resolution, ambiguity
    /// checks, equi-key extraction), and cache the optimized join plan.
    fn bind_scope(
        cat: &Catalog,
        opts: &EngineOptions,
        stmt: SelectStmt,
        fc: &mosaic_sql::FromClause,
        sql: &str,
        param_count: usize,
    ) -> Result<Prepared> {
        let (infos, vis) =
            match crate::engine::resolve_scope(cat, opts.default_visibility, fc, stmt.visibility) {
                Ok(r) => r,
                Err(MosaicError::Catalog(m)) => return Err(MosaicError::Bind(m)),
                Err(other) => return Err(other),
            };
        // Bake the resolved visibility in (population scopes only), so
        // later session-default changes cannot shift the semantics the
        // plan was built under.
        let stmt = SelectStmt {
            visibility: vis,
            ..stmt
        };
        if !fc.has_joins() {
            // A lone aliased relation: rewrite to bare column names and
            // fall into the ordinary single-relation plan.
            let info = infos.into_iter().next().expect("one relation");
            let rel = info.rel;
            let source = if rel.weighted {
                PreparedSource::Sample(rel.name.clone())
            } else {
                PreparedSource::Aux(rel.name.clone())
            };
            let schema = Arc::clone(&rel.schema);
            let rewritten = crate::plan::join::bind_single(&stmt, rel)?;
            let planned = plan_select(&rewritten, false, opts.optimizer, Some(&schema));
            return Ok(Prepared {
                sql: sql.to_string(),
                stmt: rewritten,
                param_count,
                source,
                plan_hash: crate::plan::fingerprint::plan_hash(&planned.optimized),
                logical: planned.optimized,
                fired: planned.fired,
                plan: planned.physical,
                inner_plan: None,
            });
        }
        let source = PreparedSource::Scope(
            infos
                .iter()
                .map(|i| {
                    let kind = match &i.source {
                        crate::engine::ScopeSource::Aux => ScopeRelKind::Aux,
                        crate::engine::ScopeSource::Sample { .. } => ScopeRelKind::Sample,
                        crate::engine::ScopeSource::Population { .. } => ScopeRelKind::Population,
                    };
                    (i.rel.name.clone(), kind)
                })
                .collect(),
        );
        let rels: Vec<_> = infos.into_iter().map(|i| i.rel).collect();
        // Population-containing scopes under SEMI-OPEN/OPEN answer
        // aggregates through the §5.3 weighted rewrite; CLOSED scopes
        // and plain sample joins do not.
        let weighted_agg = vis.is_some_and(|v| v != Visibility::Closed);
        // Aggregate OPEN joins run the replicate loop over the ORDER
        // BY/LIMIT-stripped body; cache that inner plan too.
        let inner_plan = (vis == Some(Visibility::Open) && has_aggregate_shape(&stmt))
            .then(|| -> Result<PhysicalPlan> {
                let inner = SelectStmt {
                    order_by: Vec::new(),
                    limit: None,
                    ..stmt.clone()
                };
                let bound = crate::plan::join::bind_join(&inner, rels.clone(), weighted_agg)?;
                Ok(crate::plan::plan_logical(bound.logical, opts.optimizer, None).physical)
            })
            .transpose()?;
        let bound = crate::plan::join::bind_join(&stmt, rels, weighted_agg)?;
        let planned = crate::plan::plan_logical(bound.logical, opts.optimizer, None);
        Ok(Prepared {
            sql: sql.to_string(),
            stmt: bound.stmt,
            param_count,
            source,
            plan_hash: crate::plan::fingerprint::plan_hash(&planned.optimized),
            logical: planned.optimized,
            fired: planned.fired,
            plan: planned.physical,
            inner_plan,
        })
    }

    /// Verify the catalog still resolves this statement's source to the
    /// same relation kind (DDL may have dropped or replaced it since
    /// prepare; running a stale plan against a different relation kind
    /// would silently change semantics).
    fn check_source(&self, cat: &Catalog) -> Result<()> {
        let ok = match &self.source {
            PreparedSource::Scalar => true,
            PreparedSource::Aux(name) => cat.aux(name).is_some(),
            PreparedSource::Sample(name) => cat.sample(name).is_some(),
            PreparedSource::Scope(rels) => rels.iter().all(|(name, kind)| match kind {
                ScopeRelKind::Aux => cat.aux(name).is_some(),
                ScopeRelKind::Sample => cat.sample(name).is_some(),
                ScopeRelKind::Population => cat
                    .population(name)
                    .is_some_and(|pop| choose_sample(cat, pop).is_ok()),
            }),
            PreparedSource::Population(name) => {
                if cat.population(name).is_none() {
                    return Err(MosaicError::Bind(format!(
                        "prepared statement is stale: population {name} no longer exists"
                    )));
                }
                // The population must still have a usable sample; the
                // pipeline re-resolves it (data may have grown).
                let pop = cat.population(name).expect("checked");
                choose_sample(cat, pop).is_ok()
            }
        };
        if ok {
            Ok(())
        } else {
            Err(MosaicError::Bind(format!(
                "prepared statement is stale: its source relation no longer exists ({:?})",
                self.source
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_storage::Value;

    fn engine_with_table() -> Arc<MosaicEngine> {
        let engine = Arc::new(MosaicEngine::new());
        engine
            .session()
            .execute(
                "CREATE TABLE t (k TEXT, v INT);
                 INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3), ('c', 4);",
            )
            .unwrap();
        engine
    }

    #[test]
    fn prepare_execute_roundtrip() {
        let engine = engine_with_table();
        let s = engine.session();
        let p = s
            .prepare("SELECT k, COUNT(*) AS c FROM t WHERE v > ? GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(p.param_count(), 1);
        let r1 = s.query_prepared(&p, &[Value::Int(0)]).unwrap();
        assert_eq!(r1.num_rows(), 3);
        let r2 = s.query_prepared(&p, &[Value::Int(2)]).unwrap();
        assert_eq!(r2.num_rows(), 2); // a (v=3) and c (v=4)
                                      // Must match the unprepared path with the literal inlined.
        let direct = s
            .query("SELECT k, COUNT(*) AS c FROM t WHERE v > 2 GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(r2.num_rows(), direct.num_rows());
        for r in 0..direct.num_rows() {
            for c in 0..direct.num_columns() {
                assert_eq!(r2.value(r, c), direct.value(r, c));
            }
        }
    }

    #[test]
    fn param_count_mismatch_is_param_error() {
        let engine = engine_with_table();
        let s = engine.session();
        let p = s
            .prepare("SELECT * FROM t WHERE v BETWEEN ? AND ?")
            .unwrap();
        assert_eq!(p.param_count(), 2);
        let err = s.execute_prepared(&p, &[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, MosaicError::Param(_)), "{err}");
    }

    #[test]
    fn unprepared_params_rejected() {
        let engine = engine_with_table();
        let s = engine.session();
        let err = s.execute("SELECT * FROM t WHERE v > ?").unwrap_err();
        assert!(matches!(err, MosaicError::Param(_)), "{err}");
    }

    #[test]
    fn unknown_column_is_bind_error() {
        let engine = engine_with_table();
        let s = engine.session();
        let err = s.prepare("SELECT nope FROM t").unwrap_err();
        assert!(matches!(err, MosaicError::Bind(_)), "{err}");
        let err = s.prepare("SELECT v FROM missing").unwrap_err();
        assert!(matches!(err, MosaicError::Bind(_)), "{err}");
        let err = s.prepare("SELECT 1; SELECT 2").unwrap_err();
        assert!(matches!(err, MosaicError::Bind(_)), "{err}");
        let err = s.prepare("DROP TABLE t").unwrap_err();
        assert!(matches!(err, MosaicError::Bind(_)), "{err}");
    }

    #[test]
    fn stale_prepared_statement_detected() {
        let engine = engine_with_table();
        let s = engine.session();
        let p = s.prepare("SELECT COUNT(*) FROM t").unwrap();
        s.execute("DROP TABLE t").unwrap();
        let err = s.execute_prepared(&p, &[]).unwrap_err();
        assert!(matches!(err, MosaicError::Bind(_)), "{err}");
    }

    #[test]
    fn session_visibility_override() {
        let engine = Arc::new(MosaicEngine::new());
        let setup = engine.session();
        setup
            .execute(
                "CREATE TABLE Report (city TEXT, n INT);
                 INSERT INTO Report VALUES ('x', 10), ('y', 30);
                 CREATE GLOBAL POPULATION People (city TEXT);
                 CREATE METADATA People_M1 AS (SELECT city, n FROM Report);
                 CREATE SAMPLE S AS (SELECT * FROM People);
                 INSERT INTO S VALUES ('x'), ('y'), ('y');",
            )
            .unwrap();
        // Engine default is SEMI-OPEN; a CLOSED-override session answers
        // from the raw sample instead.
        let closed = engine.session().with_default_visibility(Visibility::Closed);
        let r = closed.execute("SELECT COUNT(*) FROM People").unwrap();
        assert_eq!(r.visibility, Some(Visibility::Closed));
        assert_eq!(r.table.value(0, 0), Value::Int(3));
        let semi = engine.session();
        let r = semi.execute("SELECT COUNT(*) FROM People").unwrap();
        assert_eq!(r.visibility, Some(Visibility::SemiOpen));
        assert!((r.table.value(0, 0).as_f64().unwrap() - 40.0).abs() < 1e-6);
    }

    #[test]
    fn prepared_caches_optimized_plan() {
        let engine = engine_with_table();
        // Explicit override so the test is independent of the ambient
        // MOSAIC_OPTIMIZER default.
        let s = engine.session().with_optimizer(true);
        let sql = "SELECT k FROM t WHERE v > ? + (1 + 1) ORDER BY v DESC LIMIT 2";
        let p = s.prepare(sql).unwrap();
        // Rules ran once, at prepare: folding left the `?` residual,
        // pruning resolved the scan columns, fusion produced TopK.
        assert!(p.fired_rules().contains(&"constant_folding"), "{p:?}");
        assert!(p.fired_rules().contains(&"sort_limit_fusion"), "{p:?}");
        let logical = p.logical_plan().to_string();
        assert!(logical.contains("?1 + 2"), "{logical}");
        assert!(logical.contains("TopK"), "{logical}");
        // Bit-identity against an optimizer-off session's prepared plan.
        let off = s.clone().with_optimizer(false);
        let p_off = off.prepare(sql).unwrap();
        assert!(p_off.fired_rules().is_empty(), "{p_off:?}");
        for v in [0i64, 1, 3] {
            let a = s.query_prepared(&p, &[Value::Int(v)]).unwrap();
            let b = off.query_prepared(&p_off, &[Value::Int(v)]).unwrap();
            assert_eq!(a.num_rows(), b.num_rows(), "v = {v}");
            for r in 0..a.num_rows() {
                for c in 0..a.num_columns() {
                    assert_eq!(a.value(r, c), b.value(r, c), "v = {v} cell ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn pruned_sample_scan_keeps_weight_column() {
        let engine = Arc::new(MosaicEngine::new());
        let s = engine.session();
        s.execute(
            "CREATE GLOBAL POPULATION People (city TEXT, age INT);
             CREATE SAMPLE S AS (SELECT * FROM People);
             INSERT INTO S VALUES ('x', 1), ('y', 2);",
        )
        .unwrap();
        // `weight` is engine-managed, not part of the sample's declared
        // schema; the pruned scan must still keep it.
        let p = s
            .prepare("SELECT SUM(weight) FROM S WHERE age > ?")
            .unwrap();
        let out = s.query_prepared(&p, &[Value::Int(0)]).unwrap();
        assert_eq!(out.value(0, 0), Value::Float(2.0));
    }

    #[test]
    fn scalar_and_sample_prepared() {
        let engine = Arc::new(MosaicEngine::new());
        let s = engine.session();
        let p = s.prepare("SELECT 1 + ?").unwrap();
        let out = s.query_prepared(&p, &[Value::Int(41)]).unwrap();
        assert_eq!(out.value(0, 0), Value::Int(42));
        let err = s.prepare("SELECT x").unwrap_err();
        assert!(matches!(err, MosaicError::Bind(_)), "{err}");
    }
}
