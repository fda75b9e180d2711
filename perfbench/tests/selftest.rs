//! Self-test of the benchmark: every workload at reduced size, traced
//! (a traced run computes the end-to-end metrics too), must emit every
//! declared metric as a finite number, show work in the layers it is
//! meant to load, and check every answer without a failure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mosaic_perfbench::report::{END_TO_END, LAYER_SPECIFIC, PER_LAYER};
use mosaic_perfbench::{run, RunConfig};

/// Run `workload` small and traced; `measured` are the metrics that must
/// be set and positive on it besides the end-to-end ones.
fn check(workload: &str, measured: &[&str]) {
    let cfg = RunConfig {
        seed: 1,
        seconds: 1.0,
        trace: true,
    };
    let report = run(workload, &cfg, true).expect("known workload");
    assert!(report.attempted > 0, "{workload}: no op ran");
    let all = [END_TO_END, PER_LAYER, LAYER_SPECIFIC].concat();
    for (name, value, _) in report.metrics(&all) {
        assert!(value.is_finite(), "{workload}: metric {name} = {value}");
    }
    let positive = END_TO_END
        .iter()
        .map(|(n, _)| *n)
        .chain(measured.iter().copied());
    for name in positive {
        let v = report.values.get(name);
        assert!(
            v.is_some_and(|v| v.is_finite() && *v > 0.0),
            "{workload}: {name} should be measured and positive, is {v:?}"
        );
    }
    assert!(
        report.spans.as_ref().is_some_and(|s| !s.spans().is_empty()),
        "{workload}: traced run recorded no spans"
    );
    assert_eq!(
        report.get("fail_ratio"),
        0.0,
        "{workload}: {} of {} ops failed or answered wrong",
        report.failed,
        report.attempted
    );
}

#[test]
fn population_mix() {
    check(
        "population-mix",
        &[
            "semi_open_p50_ms",
            "open_p50_ms",
            "semi_open_pct_err",
            "open_pct_err",
            "sql.parse_us",
            "plan.plan_us",
            "ipf.build_ms",
            "ipf.fit_ms",
            "ipf.iterations",
            "swg.fit_s",
            "swg.generate_ms",
            "open.model_cache_hit_ratio",
            "exec.filter_agg_ms",
            "exec.group_by_ms",
            "storage.load_ms",
            "storage.table_mb",
        ],
    );
}

#[test]
fn analytic_scan() {
    check(
        "analytic-scan",
        &[
            "exec.filter_agg_ms",
            "exec.group_by_ms",
            "exec.sort_ms",
            "exec.topk_ms",
            "exec.join_ms",
            "exec.rows_examined_per_row",
            "parallel.worker_peak",
            "storage.load_ms",
            "storage.table_mb",
        ],
    );
}

#[test]
fn wire_dashboard() {
    check(
        "wire-dashboard",
        &[
            "semi_open_p50_ms",
            "write_p50_ms",
            "cache.hit_ratio",
            "cache.plan_hit_ratio",
            "cache.invalidations_per_kop",
            "cache.bytes",
            "protocol.encode_us",
            "protocol.decode_us",
            "protocol.bytes_per_op",
            "admission.permit_peak",
            "sql.parse_us",
            "storage.load_ms",
        ],
    );
}

#[test]
fn unknown_workload_is_refused() {
    let cfg = RunConfig {
        seed: 1,
        seconds: 1.0,
        trace: false,
    };
    assert!(run("no-such-workload", &cfg, true).is_none());
}
