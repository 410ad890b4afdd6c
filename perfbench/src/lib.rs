//! End-to-end BIRP benchmark: the workloads, the timed runs and their
//! output checks ([`workload`]), and the fold of a traced run into
//! per-layer metrics ([`layers`]). `src/main.rs` is the command line;
//! README.md lists the workloads and metrics.

pub mod layers;
pub mod workload;

/// The sample at rank `round(q·(n−1))` of an ascending slice — the rule
/// `birp_sim::Cdf::quantile` uses, so a one-instance pool reproduces the
/// `p95 compl.` line of `birp run` exactly. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[(q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize]
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}
