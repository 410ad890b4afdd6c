//! Automated perf-regression gate: compare fresh solver micro-benchmark
//! measurements against the committed baseline (`BENCH_solver.json` at the
//! repo root).
//!
//! `birp bench-diff` drives this module:
//!
//! 1. parse a captured `cargo bench -p birp-bench --bench solver_micro`
//!    output (the vendored criterion harness prints one
//!    `bench <name> <ns> ns/iter (<n> iters)` line per benchmark),
//! 2. compare each measurement against the committed baseline value with a
//!    multiplicative tolerance, and fail (non-zero exit upstream) when any
//!    measurement exceeds `baseline * tolerance`.
//!
//! The tolerance is deliberately coarse (default 2.0×, CI 2.5×): the gate
//! exists to catch order-of-magnitude regressions — an accidentally
//! disabled warm start, a quadratic loop — not 5% noise on shared runners.
//! End-to-end time and quality are perfbench's (`BENCHMARK.json`).

use std::collections::BTreeMap;

use serde_json::Value;

/// One baseline-vs-measurement pair.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub name: String,
    /// Committed baseline value, ns per iteration.
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
}
