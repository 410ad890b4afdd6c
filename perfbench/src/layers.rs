//! The traced run: `birp-telemetry` on at its default `debug` level into an
//! in-memory sink, folded into per-layer metrics. Nothing is added inside
//! the program; every figure comes from a span histogram, a counter or a
//! `birp.provenance` / `solver.done` record the program already emits.

use std::collections::BTreeMap;
use std::sync::Arc;

use birp_core::Birp;
use birp_telemetry as telemetry;
use telemetry::{Level, MemorySink};

use birp_models::Catalog;
use birp_workload::Trace;

use crate::workload::{run, Quality, Run};

/// Span histograms folded into layer times, with the metric each feeds.
const SPANS: [(&str, &str); 10] = [
    ("runner.execute", "sim.execute_ms"),
    ("birp.reuse_probe", "sched.reuse_probe_ms"),
    ("problem.build", "problem.build_ms"),
    ("problem.refresh", "problem.refresh_ms"),
    ("problem.guide_lp", "problem.guide_lp_ms"),
    ("solver.solve", "solver.solve_ms"),
    ("solver.presolve_ms", "solver.presolve_ms"),
    ("solver.root_lp", "solver.root_lp_ms"),
    ("solver.root_dive", "solver.root_dive_ms"),
    ("shard.decide", "shard.decide_ms"),
];

/// Counters reported per pass over the instance pool, with their metric.
const COUNTERS: [(&str, &str); 15] = [
    ("solver.delta_applied", "problem.delta_applied"),
    ("solver.full_rebuild", "problem.full_rebuild"),
    ("solver.solves", "solver.solves"),
    ("solver.nodes", "solver.nodes"),
    ("solver.lp_warm", "solver.lp_warm"),
    ("solver.lp_cold", "solver.lp_cold"),
    ("solver.pivots", "solver.pivots"),
    ("solver.refactorizations", "solver.refactorizations"),
    ("solver.degraded", "solver.degraded"),
    ("mab.pulls", "mab.pulls"),
    ("shard.iterations", "shard.iterations"),
    ("shard.fallback", "shard.fallback"),
    ("shard.stitched_feasible", "shard.stitched_feasible"),
    ("shard.repair_used", "shard.repair_used"),
    ("solver.dive_hits", "solver.dive_hits"),
];

/// Decision paths of `birp.provenance`, as `sched.slots.<path>`.
pub const PATHS: [&str; 7] = [
    "skip",
    "full_solve",
    "repair",
    "cache_hit",
    "fallback",
    "shard",
    "shard_fallback",
];

/// Largest share of wrapper-timed decide the spans may leave unattributed
/// before the traced run fails its consistency check. What falls outside
/// the spans by design: TIR estimates, schedule decoding and the
/// provenance record itself.
pub const UNATTRIBUTED_TOL_PCT: f64 = 10.0;

/// A run with telemetry on: the run, its quality, the registry snapshot
/// and every recorded event.
pub struct Traced {
    pub run: Run,
    pub quality: Quality,
    pub summary: telemetry::TelemetrySummary,
    pub events: Vec<telemetry::Event>,
}

pub fn run_traced(catalog: &Catalog, trace: &Trace, scheduler: Birp) -> Result<Traced, String> {
    let sink = Arc::new(MemorySink::new());
    telemetry::init(sink.clone(), Level::Debug);
    let result = run(catalog, trace, scheduler);
    telemetry::shutdown();
    let summary = telemetry::summary();
    telemetry::reset();
    let (run, quality) = result?;
    Ok(Traced {
        run,
        quality,
        summary,
        events: sink.drain(),
    })
}

/// Per-layer totals over every traced run of one benchmark run.
#[derive(Default)]
pub struct Layers {
    passes: u64,
    slots: u64,
    /// Wrapper-timed decide over the traced runs.
    decide_ms: f64,
    spans: BTreeMap<&'static str, f64>,
    counters: BTreeMap<&'static str, u64>,
    dive_attempts: u64,
    paths: BTreeMap<String, u64>,
    carry_sum: f64,
    carry_count: u64,
    duality_gap_sum: f64,
    duality_gap_count: u64,
    full_solves: u64,
    improved: u64,
    final_gaps: Vec<f64>,
    /// Decision path of every slot, per instance, from the first pass.
    pub slot_paths: Vec<Vec<String>>,
}

impl Layers {
    pub fn begin_pass(&mut self) {
        self.passes += 1;
    }

    /// Fold one traced run of instance `j`; checks that every slot has
    /// exactly one provenance record.
    pub fn fold(&mut self, j: usize, traced: &Traced) -> Result<(), String> {
        let Traced {
            run,
            summary,
            events,
            ..
        } = traced;
        let slots = run.decide_ms.len();
        self.slots += slots as u64;
        self.decide_ms += run.decide_ms.iter().sum::<f64>();
        for (span, _) in SPANS {
            let ms = summary.histogram(span).map_or(0.0, |h| h.sum);
            *self.spans.entry(span).or_default() += ms;
        }
        for (counter, _) in COUNTERS {
            *self.counters.entry(counter).or_default() += summary.counter(counter).unwrap_or(0);
        }
        self.dive_attempts += summary.counter("solver.dive_attempts").unwrap_or(0);
        if let Some(h) = summary.histogram("runner.carryover_depth") {
            self.carry_sum += h.sum;
            self.carry_count += h.count;
        }
        if let Some(h) = summary.histogram("shard.duality_gap") {
            self.duality_gap_sum += h.sum;
            self.duality_gap_count += h.count;
        }

        let mut paths = vec![None::<String>; slots];
        for e in events {
            let field = |name: &str| e.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v);
            match e.name.as_str() {
                "birp.provenance" => {
                    let slot = field("slot").and_then(|v| v.as_u64()).unwrap_or(u64::MAX) as usize;
                    let path = field("path").and_then(|v| v.as_str()).unwrap_or("?");
                    match paths.get_mut(slot) {
                        Some(p @ None) => *p = Some(path.to_string()),
                        _ => {
                            return Err(format!(
                                "provenance for slot {slot} is out of range or repeated"
                            ))
                        }
                    }
                    *self.paths.entry(path.to_string()).or_default() += 1;
                    if path == "full_solve" {
                        self.full_solves += 1;
                        // The warm start enters the trajectory at node 0;
                        // a later last entry means the search beat it.
                        let last_node = field("incumbents")
                            .and_then(|v| v.as_array())
                            .and_then(|a| a.last())
                            .and_then(|v| v.as_array())
                            .and_then(|p| p.first())
                            .and_then(|v| v.as_u64());
                        if last_node.is_some_and(|n| n > 0) {
                            self.improved += 1;
                        }
                    }
                }
                "solver.done" => {
                    if let Some(g) = field("gap")
                        .and_then(|v| v.as_f64())
                        .filter(|g| g.is_finite())
                    {
                        self.final_gaps.push(g);
                    }
                }
                _ => {}
            }
        }
        let paths: Vec<String> = paths
            .into_iter()
            .enumerate()
            .map(|(t, p)| p.ok_or(format!("slot {t} has no provenance record")))
            .collect::<Result<_, _>>()?;
        if self.slot_paths.len() == j {
            self.slot_paths.push(paths);
        }
        Ok(())
    }

    fn span(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0.0)
    }

    /// Decide time the spans attribute to a layer. A slot decided by the
    /// sharded coordinator runs wholly inside `shard.decide`; otherwise the
    /// layers directly under decide are the reuse probe, the build or delta
    /// refresh, and branch and bound (guide LP, presolve, root LP and dive
    /// nest inside those).
    fn attributed_ms(&self) -> f64 {
        let shard = self.span("shard.decide");
        if shard > 0.0 {
            shard
        } else {
            self.span("birp.reuse_probe")
                + self.span("problem.build")
                + self.span("problem.refresh")
                + self.span("solver.solve")
        }
    }

    /// Share of wrapper-timed decide that no layer span covers.
    pub fn unattributed_pct(&self) -> f64 {
        100.0 * (self.decide_ms - self.attributed_ms()) / self.decide_ms.max(1e-9)
    }

    /// The traced-run consistency checks: per-path slot counts sum to the
    /// slot count, and the layer spans cover decide within the tolerance.
    pub fn check(&self) -> Result<(), String> {
        let counted: u64 = self.paths.values().sum();
        if counted != self.slots {
            return Err(format!(
                "path counts sum to {counted}, traced slots are {}",
                self.slots
            ));
        }
        if let Some(p) = self.paths.keys().find(|p| !PATHS.contains(&p.as_str())) {
            return Err(format!("unknown provenance path {p:?}"));
        }
        let pct = self.unattributed_pct();
        if pct.abs() > UNATTRIBUTED_TOL_PCT {
            return Err(format!(
                "layer spans leave {pct:.1}% of decide unattributed (tolerance {UNATTRIBUTED_TOL_PCT}%)"
            ));
        }
        Ok(())
    }

    /// Per-layer metrics as `(name, value, unit)`. Times are per decided
    /// slot, counts per pass over the instance pool. Span times on the
    /// fleet are summed over the threads that solve clusters concurrently.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let per_slot = |ms: f64| ms / self.slots.max(1) as f64;
        let per_pass = |n: u64| n as f64 / self.passes.max(1) as f64;
        let mean = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
        let mut out = Vec::new();
        for path in PATHS {
            let n = self.paths.get(path).copied().unwrap_or(0);
            out.push((format!("sched.slots.{path}"), per_pass(n), "count"));
        }
        for (span, metric) in SPANS {
            out.push((metric.to_string(), per_slot(self.span(span)), "ms/slot"));
        }
        let tree = self.span("solver.solve")
            - self.span("solver.presolve_ms")
            - self.span("solver.root_lp")
            - self.span("solver.root_dive");
        out.push(("solver.tree_ms".into(), per_slot(tree), "ms/slot"));
        for (counter, metric) in COUNTERS {
            let n = self.counters.get(counter).copied().unwrap_or(0);
            out.push((metric.to_string(), per_pass(n), "count"));
        }
        let hits = self.counters.get("solver.dive_hits").copied().unwrap_or(0);
        out.push((
            "solver.dive_hit_ratio".into(),
            mean(hits as f64, self.dive_attempts),
            "ratio",
        ));
        out.push((
            "solver.improved_ratio".into(),
            mean(self.improved as f64, self.full_solves),
            "ratio",
        ));
        let gap_p50 = if self.final_gaps.is_empty() {
            0.0
        } else {
            crate::median(&self.final_gaps)
        };
        out.push(("solver.final_gap_p50".into(), gap_p50, "ratio"));
        out.push((
            "shard.duality_gap_mean".into(),
            mean(self.duality_gap_sum, self.duality_gap_count),
            "ratio",
        ));
        out.push((
            "runner.carryover_mean".into(),
            mean(self.carry_sum, self.carry_count),
            "requests",
        ));
        out.push((
            "decide.unattributed_pct".into(),
            self.unattributed_pct(),
            "%",
        ));
        out
    }
}
