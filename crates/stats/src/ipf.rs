use std::collections::HashMap;

use mosaic_storage::{Table, Value};

use crate::{Binner, Marginal};

/// Configuration for Iterative Proportional Fitting.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct IpfConfig {
    /// Maximum raking passes over all marginals.
    pub max_iterations: usize,
    /// Convergence threshold on the maximum relative cell error.
    pub tolerance: f64,
}

impl Default for IpfConfig {
    fn default() -> Self {
        IpfConfig {
            max_iterations: 200,
            tolerance: 1e-8,
        }
    }
}

impl IpfConfig {
    /// Set the maximum raking passes over all marginals.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Set the convergence threshold on the maximum relative cell error.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }
}

/// Outcome of an IPF run.
#[derive(Debug, Clone)]
pub struct IpfReport {
    /// Raking passes actually performed.
    pub iterations: usize,
    /// Maximum relative cell error at termination.
    pub max_rel_error: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Rows whose cell does not appear in some marginal (their weight is
    /// zeroed for that marginal's constraint — the marginal says such
    /// tuples have zero population mass).
    pub unmatched_rows: usize,
    /// Marginal cells with positive target but zero sample mass; IPF cannot
    /// create mass there (SEMI-OPEN queries have false negatives, paper
    /// §3.3) — these are exactly the cells OPEN query processing exists for.
    pub empty_target_cells: usize,
}

struct MarginalIndex {
    /// Target count per cell.
    targets: Vec<f64>,
    /// For each sample row, the cell index in `targets` (or `usize::MAX`
    /// when the row's key is not a cell of the marginal).
    row_cell: Vec<usize>,
}

/// Iterative Proportional Fitting (Deming–Stephan raking; paper §4.1).
///
/// Reweights a sample so that, for every supplied marginal, the weighted
/// sample totals per cell match the marginal's published counts. This is
/// Mosaic's SEMI-OPEN query evaluation when the sampling mechanism is
/// unknown.
///
/// ```
/// use mosaic_storage::{DataType, Field, Schema, TableBuilder};
/// use mosaic_stats::{Ipf, IpfConfig, Marginal};
/// use std::collections::HashMap;
///
/// let schema = Schema::new(vec![Field::new("city", DataType::Str)]);
/// let mut b = TableBuilder::new(schema);
/// // Biased sample: 3 of "a", 1 of "b".
/// for c in ["a", "a", "a", "b"] {
///     b.push_row(vec![c.into()]).unwrap();
/// }
/// let sample = b.finish();
///
/// // Ground truth: the population is 50/50.
/// let mut m = Marginal::new(vec!["city".into()]);
/// m.add(vec!["a".into()], 100.0);
/// m.add(vec!["b".into()], 100.0);
///
/// let ipf = Ipf::new(&sample, std::slice::from_ref(&m), &HashMap::new()).unwrap();
/// let (weights, report) = ipf.fit(None, &IpfConfig::default());
/// assert!(report.converged);
/// assert!((weights[0] - 100.0 / 3.0).abs() < 1e-6);
/// assert!((weights[3] - 100.0).abs() < 1e-6);
/// ```
pub struct Ipf {
    marginals: Vec<MarginalIndex>,
    num_rows: usize,
    unmatched_rows: usize,
    empty_target_cells: usize,
}

impl Ipf {
    /// Index a sample table against a set of marginals. `binners`
    /// discretize continuous attributes (keyed by attribute name) and must
    /// match the binning used to build the marginals.
    #[allow(clippy::needless_range_loop)]
    pub fn new(
        sample: &Table,
        marginals: &[Marginal],
        binners: &HashMap<String, Binner>,
    ) -> mosaic_storage::Result<Ipf> {
        let n = sample.num_rows();
        let mut out = Vec::with_capacity(marginals.len());
        let mut unmatched = vec![false; n];
        let mut empty_target_cells = 0usize;
        for m in marginals {
            let cols = m
                .attrs()
                .iter()
                .map(|a| sample.column_by_name(a))
                .collect::<mosaic_storage::Result<Vec<_>>>()?;
            let col_binners: Vec<Option<&Binner>> = m
                .attrs()
                .iter()
                .map(|a| {
                    binners
                        .get(a.as_str())
                        .or_else(|| binners.get(&a.to_ascii_lowercase()))
                })
                .collect();
            // Stable cell order for the targets vector.
            let mut cell_index: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut targets = Vec::with_capacity(m.num_cells());
            for (key, count) in m.iter() {
                cell_index.insert(key.clone(), targets.len());
                targets.push(count);
            }
            let mut row_cell = Vec::with_capacity(n);
            let mut seen = vec![false; targets.len()];
            for row in 0..n {
                let key: Vec<Value> = cols
                    .iter()
                    .zip(&col_binners)
                    .map(|(c, b)| match (b, c.value(row)) {
                        // Binned keys are bin midpoints — the same
                        // convention `Marginal::from_table` uses.
                        (Some(binner), v) => match v.as_f64() {
                            Some(x) => Value::Float(binner.midpoint(binner.bin(x))),
                            None => v,
                        },
                        (None, v) => v,
                    })
                    .collect();
                match cell_index.get(&key) {
                    Some(&idx) => {
                        seen[idx] = true;
                        row_cell.push(idx);
                    }
                    None => {
                        unmatched[row] = true;
                        row_cell.push(usize::MAX);
                    }
                }
            }
            empty_target_cells += seen
                .iter()
                .zip(&targets)
                .filter(|(s, t)| !**s && **t > 0.0)
                .count();
            out.push(MarginalIndex { targets, row_cell });
        }
        Ok(Ipf {
            marginals: out,
            num_rows: n,
            unmatched_rows: unmatched.iter().filter(|&&u| u).count(),
            empty_target_cells,
        })
    }

    /// Number of sample rows being reweighted.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Run the raking loop. `initial_weights` defaults to all-ones (the
    /// paper: sample weights are "initialized to be one for every tuple").
    /// Returns the fitted weights and a convergence report.
    pub fn fit(
        &self,
        initial_weights: Option<&[f64]>,
        config: &IpfConfig,
    ) -> (Vec<f64>, IpfReport) {
        let mut weights: Vec<f64> = match initial_weights {
            Some(w) => {
                assert_eq!(w.len(), self.num_rows, "initial weight length mismatch");
                w.to_vec()
            }
            None => vec![1.0; self.num_rows],
        };
        let mut iterations = 0;
        let mut max_rel_error = f64::INFINITY;
        let mut converged = false;
        let mut totals: Vec<f64> = Vec::new();
        for it in 0..config.max_iterations {
            iterations = it + 1;
            let mut pass_err = 0.0f64;
            for m in &self.marginals {
                totals.clear();
                totals.resize(m.targets.len(), 0.0);
                for (row, &cell) in m.row_cell.iter().enumerate() {
                    if cell != usize::MAX {
                        totals[cell] += weights[row];
                    }
                }
                for (&total, &target) in totals.iter().zip(&m.targets) {
                    if target > 0.0 && total > 0.0 {
                        pass_err = pass_err.max((total - target).abs() / target);
                    } else if target > 0.0 {
                        // Unreachable target mass: not counted against
                        // convergence (IPF cannot fix it); surfaced in the
                        // report via empty_target_cells instead.
                    } else if total > 0.0 {
                        pass_err = pass_err.max(1.0);
                    }
                }
                for (row, &cell) in m.row_cell.iter().enumerate() {
                    if cell == usize::MAX {
                        // Row outside the marginal's support: the metadata
                        // says no such tuples exist in the population.
                        weights[row] = 0.0;
                        continue;
                    }
                    let total = totals[cell];
                    let target = m.targets[cell];
                    if total > 0.0 {
                        weights[row] *= target / total;
                    }
                }
            }
            max_rel_error = pass_err;
            if pass_err < config.tolerance {
                converged = true;
                break;
            }
        }
        (
            weights,
            IpfReport {
                iterations,
                max_rel_error,
                converged,
                unmatched_rows: self.unmatched_rows,
                empty_target_cells: self.empty_target_cells,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_storage::{DataType, Field, Schema, TableBuilder};

    fn two_attr_sample() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Str),
        ]);
        let mut t = TableBuilder::new(schema);
        for (a, b) in [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")] {
            t.push_row(vec![a.into(), b.into()]).unwrap();
        }
        t.finish()
    }

    fn marg(attr: &str, cells: &[(&str, f64)]) -> Marginal {
        let mut m = Marginal::new(vec![attr.into()]);
        for (k, c) in cells {
            m.add(vec![(*k).into()], *c);
        }
        m
    }

    #[test]
    fn single_marginal_exact_in_one_pass() {
        let t = two_attr_sample();
        let m = marg("a", &[("x", 60.0), ("y", 40.0)]);
        let ipf = Ipf::new(&t, std::slice::from_ref(&m), &HashMap::new()).unwrap();
        let (w, rep) = ipf.fit(None, &IpfConfig::default());
        assert!(rep.converged);
        assert!((w[0] - 30.0).abs() < 1e-9);
        assert!((w[2] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn two_marginals_both_satisfied() {
        let t = two_attr_sample();
        let ma = marg("a", &[("x", 70.0), ("y", 30.0)]);
        let mb = marg("b", &[("u", 50.0), ("v", 50.0)]);
        let ipf = Ipf::new(&t, &[ma.clone(), mb.clone()], &HashMap::new()).unwrap();
        let (w, rep) = ipf.fit(None, &IpfConfig::default());
        assert!(rep.converged, "report: {rep:?}");
        // Check both marginals are satisfied by the weighted sample.
        let wa_x = w[0] + w[1];
        let wb_u = w[0] + w[2];
        assert!((wa_x - 70.0).abs() < 1e-6);
        assert!((wb_u - 50.0).abs() < 1e-6);
        assert!((w.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn unmatched_rows_get_zero_weight() {
        let t = two_attr_sample();
        // Marginal that omits a="y": those tuples don't exist in the population.
        let m = marg("a", &[("x", 10.0)]);
        let ipf = Ipf::new(&t, std::slice::from_ref(&m), &HashMap::new()).unwrap();
        let (w, rep) = ipf.fit(None, &IpfConfig::default());
        assert_eq!(rep.unmatched_rows, 2);
        assert_eq!(w[2], 0.0);
        assert_eq!(w[3], 0.0);
        assert!((w[0] + w[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_target_cells_reported() {
        let t = two_attr_sample();
        let m = marg("a", &[("x", 50.0), ("y", 40.0), ("z", 10.0)]);
        let ipf = Ipf::new(&t, std::slice::from_ref(&m), &HashMap::new()).unwrap();
        let (_, rep) = ipf.fit(None, &IpfConfig::default());
        // "z" has target mass but no sample rows: a false-negative cell.
        assert_eq!(rep.empty_target_cells, 1);
    }

    #[test]
    fn initial_weights_respected() {
        let t = two_attr_sample();
        let m = marg("a", &[("x", 100.0), ("y", 100.0)]);
        let ipf = Ipf::new(&t, std::slice::from_ref(&m), &HashMap::new()).unwrap();
        // Row 0 starts 3x heavier than row 1; IPF preserves the ratio within a cell.
        let (w, _) = ipf.fit(Some(&[3.0, 1.0, 1.0, 1.0]), &IpfConfig::default());
        assert!((w[0] / w[1] - 3.0).abs() < 1e-9);
        assert!((w[0] + w[1] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn binned_continuous_marginal() {
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]);
        let mut b = TableBuilder::new(schema);
        for x in [0.1, 0.2, 0.8, 0.9] {
            b.push_row(vec![x.into()]).unwrap();
        }
        let t = b.finish();
        let binner = Binner::equal_width(0.0, 1.0, 2);
        let mut m = Marginal::new(vec!["x".into()]);
        // Binned cells are keyed by bin midpoints (0.25 and 0.75).
        m.add(vec![Value::Float(0.25)], 10.0);
        m.add(vec![Value::Float(0.75)], 90.0);
        let mut binners = HashMap::new();
        binners.insert("x".to_string(), binner);
        let ipf = Ipf::new(&t, std::slice::from_ref(&m), &binners).unwrap();
        let (w, rep) = ipf.fit(None, &IpfConfig::default());
        assert!(rep.converged);
        assert!((w[0] - 5.0).abs() < 1e-9);
        assert!((w[3] - 45.0).abs() < 1e-9);
    }

    #[test]
    fn missing_column_is_an_error() {
        let t = two_attr_sample();
        let m = marg("missing", &[("x", 1.0)]);
        assert!(Ipf::new(&t, std::slice::from_ref(&m), &HashMap::new()).is_err());
    }
}
