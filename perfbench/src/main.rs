//! Benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <population-mix|analytic-scan|wire-dashboard> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary on stderr, a run record (seed, core
//! count, revision, pinned engine options, workload-specific metrics)
//! as one JSON line on stdout, and, as the last stdout line, the result:
//! `{"correct", "attempted", "failed", "metrics"}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). The traced run also writes its spans to
//! `perfbench/out/trace-<workload>.csv`. Exits 1 when any op failed or
//! returned a wrong answer.

use std::path::Path;
use std::process::ExitCode;

use mosaic_perfbench::common::describe_options;
use mosaic_perfbench::report::{Report, END_TO_END, LAYER_SPECIFIC, PER_LAYER, WORKLOAD_SPECIFIC};
use mosaic_perfbench::{run, RunConfig, WORKLOADS};

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed needs a whole number".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed,
            seconds,
            trace,
        },
    })
}

/// The checked-out revision, read from `.git` without running git;
/// `unknown` outside a git work tree.
fn revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(report: &Report, names: &[(&str, &str)]) -> String {
    let fields: Vec<String> = report
        .metrics(names)
        .into_iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    let report = run(&args.workload, cfg, false).expect("workload was validated");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());

    // The final line carries the metrics every workload measures; the
    // run record carries the rest: for the traced run every
    // layer-specific time, for the end-to-end run the metrics this
    // workload has.
    let (emitted, recorded): (_, Vec<(&str, &str)>) = if cfg.trace {
        (PER_LAYER, LAYER_SPECIFIC.to_vec())
    } else {
        let own = WORKLOAD_SPECIFIC
            .iter()
            .copied()
            .filter(|(n, _)| report.values.contains_key(n))
            .collect();
        (END_TO_END, own)
    };
    let non_finite: Vec<&str> = emitted
        .iter()
        .chain(&recorded)
        .map(|(n, _)| *n)
        .filter(|n| !report.get(n).is_finite())
        .collect();
    let correct = report.attempted > 0 && report.failed == 0 && non_finite.is_empty();

    eprintln!(
        "{} seed={} seconds={} trace={} nproc={nproc} revision={}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        revision()
    );
    eprintln!("options: {}", describe_options());
    for (name, value, unit) in report
        .metrics(emitted)
        .into_iter()
        .chain(report.metrics(&recorded))
    {
        eprintln!("  {name:<30} {value:>14.4} {unit}");
    }
    for (k, v) in &report.info {
        eprintln!("  {k}: {v}");
    }
    if !non_finite.is_empty() {
        eprintln!("non-finite metrics: {}", non_finite.join(", "));
    }
    if let Some(spans) = &report.spans {
        let path = Path::new("perfbench/out").join(format!("trace-{}.csv", args.workload));
        match spans.write_csv(&path) {
            Ok(()) => eprintln!(
                "  spans: {} written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("  spans: could not write {}: {e}", path.display()),
        }
    }

    let info: Vec<String> = report
        .info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"run\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"revision\": {}, \"engine_options\": {}, \
         \"workload_metrics\": {}, \"notes\": {{{}}}}}}}",
        json_str(&args.workload),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        json_str(&revision()),
        json_str(&describe_options()),
        metrics_json(&report, &recorded),
        info.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        metrics_json(&report, emitted)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
