//! Automated perf-regression gate: compare fresh benchmark measurements
//! against the committed baselines (`BENCH_solver.json`, `BENCH_runner.json`
//! at the repo root).
//!
//! `birp bench-diff` drives this module:
//!
//! 1. parse a captured `cargo bench -p birp-bench --bench solver_micro`
//!    output (the vendored criterion harness prints one
//!    `bench <name> <ns> ns/iter (<n> iters)` line per benchmark),
//! 2. parse a regenerated `BENCH_runner.json` (the `runner_decide` bench
//!    writes one; `BIRP_BENCH_RUNNER_OUT` redirects it so the committed
//!    baseline is never clobbered by a gate run),
//! 3. compare each measurement against the committed baseline value with a
//!    multiplicative tolerance, and fail (non-zero exit upstream) when any
//!    measurement exceeds `baseline * tolerance`.
//!
//! The tolerance is deliberately coarse (CI default 2.0×): the gate exists
//! to catch order-of-magnitude regressions — an accidentally disabled warm
//! start, a quadratic loop — not 5% noise on shared runners.

use std::collections::BTreeMap;

use serde_json::Value;

/// One baseline-vs-measurement pair.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub name: String,
    /// Committed baseline value (ns for criterion benches, ms for the
    /// runner-decide latencies — units cancel in the ratio).
    pub baseline: f64,
    pub measured: f64,
    /// `measured / baseline`; > 1.0 means slower than the baseline.
    pub ratio: f64,
    pub regressed: bool,
}

/// Outcome of a full diff: per-benchmark comparisons plus bookkeeping for
/// entries that could not be matched up.
#[derive(Debug, Default)]
pub struct DiffReport {
    pub comparisons: Vec<Comparison>,
    /// Baseline entries with no fresh measurement (bench renamed/removed —
    /// the gate flags these so baselines cannot silently go stale).
    pub missing: Vec<String>,
    /// Fresh measurements with no baseline entry (new benches; informative
    /// only, new benchmarks cannot regress).
    pub unmatched: Vec<String>,
    pub tolerance: f64,
}

impl DiffReport {
    /// True when any matched benchmark exceeded the tolerance or a baseline
    /// entry went unmeasured.
    pub fn failed(&self) -> bool {
        self.comparisons.iter().any(|c| c.regressed) || !self.missing.is_empty()
    }

    /// Aligned text table, one row per comparison.
    pub fn render(&self) -> String {
        let name_w = self
            .comparisons
            .iter()
            .map(|c| c.name.len())
            .max()
            .unwrap_or(0)
            .max("benchmark".len());
        let mut out = format!(
            "{:<name_w$}  {:>14}  {:>14}  {:>7}  status\n",
            "benchmark", "baseline", "measured", "ratio"
        );
        for c in &self.comparisons {
            out.push_str(&format!(
                "{:<name_w$}  {:>14.1}  {:>14.1}  {:>6.2}x  {}\n",
                c.name,
                c.baseline,
                c.measured,
                c.ratio,
                if c.regressed { "REGRESSED" } else { "ok" }
            ));
        }
        for name in &self.missing {
            out.push_str(&format!(
                "{name:<name_w$}  (baseline has no fresh measurement)\n"
            ));
        }
        for name in &self.unmatched {
            out.push_str(&format!("{name:<name_w$}  (new benchmark, no baseline)\n"));
        }
        out
    }
}

/// Parse the vendored criterion harness output: one measurement per
/// `bench <name> <value> ns/iter (...)` line. Unrelated lines pass through.
pub fn parse_criterion_output(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let mut it = line.split_whitespace();
        if it.next() != Some("bench") {
            continue;
        }
        let Some(name) = it.next() else { continue };
        let Some(value) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
            continue;
        };
        if it.next() != Some("ns/iter") {
            continue;
        }
        out.insert(name.to_string(), value);
    }
    out
}

/// Baseline values from `BENCH_solver.json`: `benchmarks.<name>.after_ns`,
/// skipping entries without a committed measurement (`null`).
pub fn parse_solver_baseline(json: &str) -> Result<BTreeMap<String, f64>, String> {
    let v: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let Some(Value::Object(benches)) = v.get("benchmarks") else {
        return Err("no 'benchmarks' object".into());
    };
    let mut out = BTreeMap::new();
    for (name, entry) in benches {
        if let Some(ns) = entry.get("after_ns").and_then(Value::as_f64) {
            out.insert(name.clone(), ns);
        }
    }
    Ok(out)
}

/// Per-slot decide latencies from a `BENCH_runner.json` record, keyed so
/// they line up between baseline and a regenerated measurement.
pub fn parse_runner_record(json: &str) -> Result<BTreeMap<String, f64>, String> {
    let v: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let mut out = BTreeMap::new();
    for key in [
        "reuse_off_mean_decide_ms",
        "reuse_on_mean_decide_ms",
        "delta_off_mean_decide_ms",
        "delta_on_mean_decide_ms",
    ] {
        match v.get(key).and_then(Value::as_f64) {
            Some(ms) => {
                out.insert(format!("runner_decide/{key}"), ms);
            }
            None => return Err(format!("no numeric '{key}' field")),
        }
    }
    Ok(out)
}

/// Absolute acceptance bounds carried inside a `BENCH_runner.json` record
/// itself: `checkpoint_overhead_pct` must stay at or below
/// `acceptance.checkpoint_overhead_max_pct` (default 3%, DESIGN.md §12),
/// and `delta_speedup` must stay at or above
/// `acceptance.delta_speedup_required` (default 1.5×, DESIGN.md §13).
/// Percent overheads hover near zero and speedups are ratios already, so a
/// baseline-ratio gate would be meaningless noise — the bounds are checked
/// on the *fresh* record alone. Returns one message per violated bound; an
/// old-format record without the fields passes.
pub fn runner_acceptance_failures(json: &str) -> Result<Vec<String>, String> {
    let v: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let mut failures = Vec::new();
    if let Some(pct) = v.get("checkpoint_overhead_pct").and_then(Value::as_f64) {
        let max = v
            .get("acceptance")
            .and_then(|a| a.get("checkpoint_overhead_max_pct"))
            .and_then(Value::as_f64)
            .unwrap_or(3.0);
        if pct > max {
            failures.push(format!(
                "checkpoint_overhead_pct {pct:.2}% exceeds the {max}% acceptance bound"
            ));
        }
    }
    if let Some(speedup) = v.get("delta_speedup").and_then(Value::as_f64) {
        let min = v
            .get("acceptance")
            .and_then(|a| a.get("delta_speedup_required"))
            .and_then(Value::as_f64)
            .unwrap_or(1.5);
        if speedup < min {
            failures.push(format!(
                "delta_speedup {speedup:.2}x falls below the {min}x acceptance bound"
            ));
        }
    }
    Ok(failures)
}

/// Compare measurements against a baseline: a benchmark regresses when
/// `measured > baseline * tolerance` (tolerance 2.0 = "no more than twice
/// as slow").
pub fn compare(
    baseline: &BTreeMap<String, f64>,
    measured: &BTreeMap<String, f64>,
    tolerance: f64,
) -> DiffReport {
    let mut report = DiffReport {
        tolerance,
        ..DiffReport::default()
    };
    for (name, &base) in baseline {
        match measured.get(name) {
            Some(&m) => {
                let ratio = if base > 0.0 { m / base } else { f64::INFINITY };
                report.comparisons.push(Comparison {
                    name: name.clone(),
                    baseline: base,
                    measured: m,
                    ratio,
                    regressed: ratio > tolerance,
                });
            }
            None => report.missing.push(name.clone()),
        }
    }
    for name in measured.keys() {
        if !baseline.contains_key(name) {
            report.unmatched.push(name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOLVER_BASELINE: &str = r#"{
        "benchmarks": {
            "simplex/bounded_40x25": { "before_ns": 89304.5, "after_ns": 23172.1 },
            "branch_and_bound/knapsack_12": { "before_ns": 159419.6, "after_ns": 42740.4 },
            "node_throughput/slot_256_nodes_warm": { "before_ns": null, "after_ns": 2038999.6 }
        }
    }"#;

    #[test]
    fn criterion_lines_parse_and_noise_is_skipped() {
        let text = "warming up\n\
                    bench simplex/bounded_40x25                            23000.0 ns/iter (100 iters)\n\
                    bench branch_and_bound/knapsack_12                     43000.5 ns/iter (50 iters)\n\
                    bench broken_line                                      not_a_number ns/iter\n\
                    done\n";
        let m = parse_criterion_output(text);
        assert_eq!(m.len(), 2);
        assert_eq!(m["simplex/bounded_40x25"], 23000.0);
        assert_eq!(m["branch_and_bound/knapsack_12"], 43000.5);
    }

    #[test]
    fn passes_within_tolerance() {
        let baseline = parse_solver_baseline(SOLVER_BASELINE).unwrap();
        assert_eq!(baseline.len(), 3);
        let mut measured = baseline.clone();
        // 40% slower across the board: inside a 2x gate.
        for v in measured.values_mut() {
            *v *= 1.4;
        }
        let report = compare(&baseline, &measured, 2.0);
        assert!(!report.failed(), "{}", report.render());
        assert_eq!(report.comparisons.len(), 3);
    }

    #[test]
    fn fails_on_synthetically_inflated_measurement() {
        let baseline = parse_solver_baseline(SOLVER_BASELINE).unwrap();
        let mut measured = baseline.clone();
        // One benchmark 3x slower than its baseline: the gate must trip.
        *measured.get_mut("simplex/bounded_40x25").unwrap() *= 3.0;
        let report = compare(&baseline, &measured, 2.0);
        assert!(report.failed());
        let bad: Vec<_> = report
            .comparisons
            .iter()
            .filter(|c| c.regressed)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(bad, ["simplex/bounded_40x25"]);
    }

    #[test]
    fn missing_measurement_fails_and_new_bench_does_not() {
        let baseline = parse_solver_baseline(SOLVER_BASELINE).unwrap();
        let mut measured = baseline.clone();
        measured.remove("simplex/bounded_40x25");
        measured.insert("simplex/brand_new".into(), 1.0);
        let report = compare(&baseline, &measured, 2.0);
        assert!(report.failed(), "stale baseline entry must fail the gate");
        assert_eq!(report.missing, ["simplex/bounded_40x25"]);
        assert_eq!(report.unmatched, ["simplex/brand_new"]);

        let fresh_only = compare(&BTreeMap::new(), &measured, 2.0);
        assert!(!fresh_only.failed(), "new benches alone cannot regress");
    }

    #[test]
    fn runner_record_parses_committed_shape() {
        let json = r#"{
            "reuse_off_mean_decide_ms": 0.959,
            "reuse_on_mean_decide_ms": 0.413,
            "speedup": 2.32,
            "delta_off_mean_decide_ms": 0.066,
            "delta_on_mean_decide_ms": 0.038,
            "delta_speedup": 1.74
        }"#;
        let m = parse_runner_record(json).unwrap();
        assert_eq!(m.len(), 4);
        assert!((m["runner_decide/reuse_off_mean_decide_ms"] - 0.959).abs() < 1e-12);
        assert!((m["runner_decide/delta_on_mean_decide_ms"] - 0.038).abs() < 1e-12);

        // A record missing the delta keys (pre-§13 shape) must be rejected — that is how a silently-dropped bench pass fails the
        // gate.
        let legacy = r#"{
            "reuse_off_mean_decide_ms": 0.959,
            "reuse_on_mean_decide_ms": 0.413
        }"#;
        assert!(parse_runner_record(legacy).is_err());
    }

    #[test]
    fn delta_speedup_bound_is_enforced_absolutely() {
        // At or above the required speedup: passes.
        let ok = r#"{
            "delta_speedup": 1.74,
            "acceptance": { "delta_speedup_required": 1.5 }
        }"#;
        assert!(runner_acceptance_failures(ok).unwrap().is_empty());

        // Below the bound: one violation naming the numbers.
        let bad = r#"{
            "delta_speedup": 1.12,
            "acceptance": { "delta_speedup_required": 1.5 }
        }"#;
        let fails = runner_acceptance_failures(bad).unwrap();
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("1.12"), "{fails:?}");

        // No acceptance block: the 1.5x default applies.
        let default_bound = r#"{ "delta_speedup": 1.2 }"#;
        assert_eq!(runner_acceptance_failures(default_bound).unwrap().len(), 1);

        // Old-format record without the field passes untouched.
        let legacy = r#"{ "reuse_on_mean_decide_ms": 0.4 }"#;
        assert!(runner_acceptance_failures(legacy).unwrap().is_empty());
    }

    #[test]
    fn checkpoint_overhead_bound_is_enforced_absolutely() {
        // Inside the bound (and the record's own bound wins over the default).
        let ok = r#"{
            "checkpoint_overhead_pct": 1.9,
            "acceptance": { "checkpoint_overhead_max_pct": 3.0 }
        }"#;
        assert!(runner_acceptance_failures(ok).unwrap().is_empty());

        // Over the bound: one violation naming the numbers.
        let bad = r#"{
            "checkpoint_overhead_pct": 7.25,
            "acceptance": { "checkpoint_overhead_max_pct": 3.0 }
        }"#;
        let fails = runner_acceptance_failures(bad).unwrap();
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("7.25"), "{fails:?}");

        // No acceptance block: the 3% default applies.
        let default_bound = r#"{ "checkpoint_overhead_pct": 4.0 }"#;
        assert_eq!(runner_acceptance_failures(default_bound).unwrap().len(), 1);

        // Old-format record without the field passes untouched.
        let legacy = r#"{ "reuse_on_mean_decide_ms": 0.4 }"#;
        assert!(runner_acceptance_failures(legacy).unwrap().is_empty());
    }
}
