//! Post-processing of captured JSONL telemetry into profiler formats.
//!
//! `birp profile <run.jsonl>` uses this module to turn a capture produced by
//! `--telemetry` into three artifacts:
//!
//! - a **Chrome trace-event file** (`chrome://tracing` / Perfetto): every
//!   `span` record becomes a complete (`"ph": "X"`) event positioned by its
//!   end timestamp minus duration, laned by the recording thread;
//! - a **collapsed-stack file** (flamegraph.pl / speedscope compatible):
//!   one line per unique root→leaf span path with aggregated *self* time in
//!   microseconds;
//! - a **per-slot provenance table**: the `birp.provenance` records laid out
//!   as an aligned text table (which path produced each slot's schedule,
//!   objective/gap, warm vs cold LP counts, quarantine masks);
//! - a **simplex kernel table**: the run's time in FTRAN, BTRAN, LU
//!   refactorization and pricing, from the trace-level `solver.*_ms` timers
//!   in the final summary.
//!
//! Parsing is tolerant: unknown records pass through untouched, and spans
//! whose parent never closed (e.g. a truncated capture) are attached to the
//! root rather than dropped.

use crate::{TelemetrySummary, Value};

/// One `span` record from a capture, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: String,
    pub id: u64,
    pub parent: u64,
    pub seq: u64,
    /// End-of-span timestamp (ms since telemetry init).
    pub end_ms: f64,
    pub dur_ms: f64,
    pub tid: u64,
}

impl SpanRecord {
    pub fn start_ms(&self) -> f64 {
        (self.end_ms - self.dur_ms).max(0.0)
    }
}

/// A capture, split into the record kinds `birp profile` renders.
#[derive(Debug, Default)]
pub struct Capture {
    /// The `telemetry.meta` header, when the capture has one.
    pub meta: Option<Value>,
    pub spans: Vec<SpanRecord>,
    /// `birp.provenance` records, in emission (slot) order.
    pub provenance: Vec<Value>,
    /// The final `telemetry.summary` record, when present.
    pub summary: Option<Value>,
    /// Count of lines that were not valid JSON objects.
    pub malformed: usize,
}

/// Parse a JSONL capture. Lines that fail to parse are counted, not fatal:
/// a capture truncated by a crash should still render.
pub fn parse_capture(text: &str) -> Capture {
    let mut cap = Capture::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value: Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(_) => {
                cap.malformed += 1;
                continue;
            }
        };
        match value.get("name").and_then(Value::as_str) {
            Some("telemetry.meta") => cap.meta = Some(value),
            Some("telemetry.summary") => cap.summary = Some(value),
            Some("birp.provenance") => cap.provenance.push(value),
            Some("span") => {
                if let Some(span) = decode_span(&value) {
                    cap.spans.push(span);
                }
            }
            _ => {}
        }
    }
    cap
}

fn decode_span(v: &Value) -> Option<SpanRecord> {
    Some(SpanRecord {
        name: v.get("span")?.as_str()?.to_string(),
        id: v.get("id")?.as_u64()?,
        parent: v.get("parent")?.as_u64()?,
        seq: v.get("seq")?.as_u64()?,
        end_ms: v.get("t_ms")?.as_f64()?,
        dur_ms: v.get("ms")?.as_f64()?,
        tid: v.get("tid")?.as_u64()?,
    })
}

// --- chrome trace --------------------------------------------------------

/// Render spans as a Chrome trace-event JSON document (the `traceEvents`
/// object form). Timestamps are microseconds; each OS thread becomes a lane.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut events: Vec<Value> = Vec::with_capacity(spans.len());
    for s in spans {
        events.push(Value::Object(vec![
            ("name".into(), Value::Str(s.name.clone())),
            ("cat".into(), Value::Str("span".into())),
            ("ph".into(), Value::Str("X".into())),
            ("ts".into(), Value::Float(round1(s.start_ms() * 1000.0))),
            ("dur".into(), Value::Float(round1(s.dur_ms * 1000.0))),
            ("pid".into(), Value::UInt(1)),
            ("tid".into(), Value::UInt(s.tid)),
            (
                "args".into(),
                Value::Object(vec![
                    ("id".into(), Value::UInt(s.id)),
                    ("parent".into(), Value::UInt(s.parent)),
                    ("seq".into(), Value::UInt(s.seq)),
                ]),
            ),
        ]));
    }
    let doc = Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ]);
    serde_json::to_string(&doc).unwrap_or_default()
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

// --- collapsed stacks ----------------------------------------------------

/// Render spans as collapsed stacks: `root;child;leaf <self-µs>` per unique
/// path, sorted lexicographically. Self time is a span's duration minus its
/// children's (clamped at zero — parallel children can overlap the parent).
pub fn collapsed_stacks(spans: &[SpanRecord]) -> String {
    use std::collections::BTreeMap;
    // Multiple spans can share an id across repetitions (e.g. the same slot
    // structure each time step); aggregate by id-derived path, which is the
    // point: identical tree positions fold together.
    let mut name_of: BTreeMap<u64, &str> = BTreeMap::new();
    let mut parent_of: BTreeMap<u64, u64> = BTreeMap::new();
    let mut total_us: BTreeMap<u64, f64> = BTreeMap::new();
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        name_of.insert(s.id, &s.name);
        parent_of.insert(s.id, s.parent);
        *total_us.entry(s.id).or_insert(0.0) += s.dur_ms * 1000.0;
        *child_us.entry(s.parent).or_insert(0.0) += s.dur_ms * 1000.0;
    }
    let mut lines: BTreeMap<String, u64> = BTreeMap::new();
    for (&id, &total) in &total_us {
        let self_us = (total - child_us.get(&id).copied().unwrap_or(0.0)).max(0.0);
        let mut path: Vec<&str> = Vec::new();
        let mut cur = id;
        // Walk parent links to the root; a missing parent (truncated
        // capture) roots the path at the last known ancestor.
        for _ in 0..64 {
            match name_of.get(&cur) {
                Some(name) => path.push(name),
                None => break,
            }
            cur = match parent_of.get(&cur) {
                Some(&p) if p != 0 => p,
                _ => break,
            };
        }
        path.reverse();
        let key = path.join(";");
        *lines.entry(key).or_insert(0) += self_us.round() as u64;
    }
    let mut out = String::new();
    for (path, us) in &lines {
        out.push_str(path);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

// --- provenance / timeline table -----------------------------------------

/// Maximum depth of the span forest (longest root→leaf chain).
pub fn max_depth(spans: &[SpanRecord]) -> usize {
    use std::collections::BTreeMap;
    let parent_of: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let mut deepest = 0usize;
    for s in spans {
        let mut depth = 1usize;
        let mut cur = s.parent;
        while cur != 0 {
            depth += 1;
            cur = parent_of.get(&cur).copied().unwrap_or(0);
            if depth > 64 {
                break;
            }
        }
        deepest = deepest.max(depth);
    }
    deepest
}

fn field_str(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Float(f)) => format!("{f:.4}"),
        Some(Value::UInt(u)) => u.to_string(),
        Some(Value::Int(i)) => i.to_string(),
        Some(Value::Bool(b)) => b.to_string(),
        _ => "-".to_string(),
    }
}

/// Render the per-slot decision provenance records as an aligned table.
pub fn provenance_table(provenance: &[Value]) -> String {
    const COLS: &[(&str, &str)] = &[
        ("slot", "slot"),
        ("path", "path"),
        ("objective", "objective"),
        ("gap", "gap"),
        ("nodes", "nodes"),
        ("lp_warm", "lp_warm"),
        ("lp_cold", "lp_cold"),
        ("masked_edges", "masked"),
        ("degraded", "degraded"),
        ("root_dive", "dive"),
    ];
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(provenance.len());
    for p in provenance {
        rows.push(COLS.iter().map(|(key, _)| field_str(p, key)).collect());
    }
    let mut widths: Vec<usize> = COLS.iter().map(|(_, h)| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, (_, header)) in COLS.iter().enumerate() {
        out.push_str(&format!("{:<width$}  ", header, width = widths[i]));
    }
    out.push('\n');
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        out.push('\n');
    }
    out
}

/// Simplex kernel timers the sparse LP core records at trace level, one
/// observation per LP solve: FTRAN, BTRAN, LU refactorization and pricing,
/// in the order the core indexes them and [`kernel_table`] prints them.
pub const KERNEL_TIMERS: [&str; 4] = [
    "solver.ftran_ms",
    "solver.btran_ms",
    "solver.refactor_ms",
    "solver.price_ms",
];

/// Render the simplex kernel timers of a run summary: per kernel the total
/// milliseconds, the LP solves that spent time in it and the mean per
/// solve. `None` when the run recorded none (the timers only run at
/// `--log-level trace`).
pub fn kernel_table(summary: &TelemetrySummary) -> Option<String> {
    let rows: Vec<_> = KERNEL_TIMERS
        .iter()
        .filter_map(|&name| summary.histogram(name).map(|h| (name, h)))
        .collect();
    if rows.is_empty() {
        return None;
    }
    let mut out = format!(
        "  {:<20}  {:>12}  {:>8}  {:>10}\n",
        "kernel", "total_ms", "solves", "mean_ms"
    );
    for (name, h) in rows {
        out.push_str(&format!(
            "  {:<20}  {:>12.3}  {:>8}  {:>10.4}\n",
            name, h.sum, h.count, h.mean
        ));
    }
    Some(out)
}

/// Render the `telemetry.meta` header as `key: value` lines for `report`
/// and `profile` output.
pub fn render_meta(meta: &Value) -> String {
    let mut out = String::new();
    for key in [
        "schema_version",
        "build",
        "commit",
        "command",
        "config_fingerprint",
        "min_level",
    ] {
        if let Some(v) = meta.get(key) {
            let text = match v {
                Value::Str(s) => s.clone(),
                other => other.as_u64().map(|u| u.to_string()).unwrap_or_default(),
            };
            out.push_str(&format!("  {key:<18}  {text}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(name: &str, id: u64, parent: u64, seq: u64, t: f64, ms: f64, tid: u64) -> String {
        format!(
            "{{\"t_ms\":{t},\"level\":\"trace\",\"name\":\"span\",\"span\":\"{name}\",\
             \"id\":{id},\"parent\":{parent},\"seq\":{seq},\"ms\":{ms},\"tid\":{tid}}}"
        )
    }

    fn sample_capture() -> String {
        let mut lines = vec![
            "{\"t_ms\":0.0,\"level\":\"info\",\"name\":\"telemetry.meta\",\
             \"schema_version\":2,\"build\":\"0.1.0\",\"commit\":\"unknown\",\
             \"command\":\"birp run\",\"config_fingerprint\":\"00ff\",\"min_level\":\"trace\"}"
                .to_string(),
        ];
        // decide(10ms) -> solve(8ms) -> wave(6ms) -> node x2 (2ms each)
        lines.push(span_line("solver.node_lp", 40, 30, 0, 6.0, 2.0, 1));
        lines.push(span_line("solver.node_lp", 41, 30, 1, 8.0, 2.0, 2));
        lines.push(span_line("solver.wave", 30, 20, 0, 9.0, 6.0, 0));
        lines.push(span_line("solver.solve", 20, 10, 0, 10.0, 8.0, 0));
        lines.push(span_line("runner.decide", 10, 0, 0, 11.0, 10.0, 0));
        lines.push(
            "{\"t_ms\":11.5,\"level\":\"info\",\"name\":\"birp.provenance\",\"slot\":0,\
             \"path\":\"full_solve\",\"objective\":12.5,\"gap\":0.0,\"nodes\":4,\
             \"lp_warm\":3,\"lp_cold\":1,\"masked_edges\":0,\"degraded\":false,\
             \"root_dive\":\"gated\"}"
                .to_string(),
        );
        lines.push("not json".to_string());
        lines.join("\n")
    }

    #[test]
    fn parses_capture_kinds() {
        let cap = parse_capture(&sample_capture());
        assert!(cap.meta.is_some());
        assert_eq!(cap.spans.len(), 5);
        assert_eq!(cap.provenance.len(), 1);
        assert_eq!(cap.malformed, 1);
        assert_eq!(max_depth(&cap.spans), 4);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_events() {
        let cap = parse_capture(&sample_capture());
        let doc = chrome_trace(&cap.spans);
        let parsed: Value = serde_json::from_str(&doc).expect("chrome trace parses");
        let events = parsed.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 5);
        let first = &events[0];
        assert_eq!(first.get("ph").and_then(Value::as_str), Some("X"));
        // node span: end 6.0ms, dur 2.0ms -> starts at 4000µs.
        assert_eq!(first.get("ts").and_then(Value::as_f64), Some(4000.0));
        assert_eq!(first.get("dur").and_then(Value::as_f64), Some(2000.0));
    }

    #[test]
    fn collapsed_stacks_aggregate_self_time() {
        let cap = parse_capture(&sample_capture());
        let folded = collapsed_stacks(&cap.spans);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 4, "one line per unique path: {folded}");
        // wave self time: 6ms - 2*2ms children = 2ms = 2000µs.
        assert!(
            folded.contains("runner.decide;solver.solve;solver.wave 2000\n"),
            "{folded}"
        );
        // the two node spans fold into one leaf path: 4000µs.
        assert!(
            folded.contains("runner.decide;solver.solve;solver.wave;solver.node_lp 4000\n"),
            "{folded}"
        );
    }

    #[test]
    fn kernel_table_lists_recorded_timers_in_order() {
        let mut summary = TelemetrySummary::default();
        assert!(kernel_table(&summary).is_none());
        for (name, ms) in [("solver.price_ms", 1.5), ("solver.ftran_ms", 4.0)] {
            let mut h = crate::LogHistogram::new();
            h.observe(ms);
            h.observe(ms);
            summary.histograms.push((name.to_string(), h.summarize()));
        }
        let table = kernel_table(&summary).expect("two timers recorded");
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "{table}");
        assert!(lines[1].contains("solver.ftran_ms") && lines[1].contains("8.000"));
        assert!(lines[2].contains("solver.price_ms") && lines[2].contains("3.000"));
        assert!(
            !table.contains("refactor"),
            "unrecorded timers are left out"
        );
    }

    #[test]
    fn provenance_table_and_meta_render() {
        let cap = parse_capture(&sample_capture());
        let table = provenance_table(&cap.provenance);
        assert!(table.contains("full_solve"));
        assert!(table.contains("objective"));
        assert!(table.contains("dive"));
        assert!(table.contains("gated"));
        let meta = render_meta(cap.meta.as_ref().unwrap());
        assert!(meta.contains("schema_version"));
        assert!(meta.contains("birp run"));
    }
}
