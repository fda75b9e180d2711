//! # mosaic-perfbench
//!
//! Mosaic's benchmark: three closed-loop workloads that each load a
//! different layer, one end-to-end report per run, and a traced run
//! that splits op time across the layers. See `README.md` beside this
//! crate for the workloads and the metric → layer → workload map.

pub mod analytic_scan;
pub mod common;
pub mod population_mix;
pub mod report;
pub mod trace;
pub mod wire_dashboard;

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// The workloads, by the names `BENCHMARK.json` uses.
pub const WORKLOADS: [&str; 3] = ["population-mix", "analytic-scan", "wire-dashboard"];

/// Run `workload` at full size (`small` = the self-test's reduced size).
pub fn run(workload: &str, cfg: &RunConfig, small: bool) -> Option<report::Report> {
    Some(match workload {
        "population-mix" => population_mix::run(
            cfg,
            &if small {
                population_mix::Scale::small()
            } else {
                population_mix::Scale::full()
            },
        ),
        "analytic-scan" => analytic_scan::run(
            cfg,
            &if small {
                analytic_scan::Scale::small()
            } else {
                analytic_scan::Scale::full()
            },
        ),
        "wire-dashboard" => wire_dashboard::run(
            cfg,
            &if small {
                wire_dashboard::Scale::small()
            } else {
                wire_dashboard::Scale::full()
            },
        ),
        _ => return None,
    })
}
