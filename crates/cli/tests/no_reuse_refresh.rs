//! `--no-reuse` switches off temporal reuse (DESIGN.md §11) and nothing
//! else: no previous-slot schedule is installed as the incumbent, while the
//! heuristic-regime skip (a policy of the solver regime) and the persistent
//! slot model (DESIGN.md §13) serve the run as they serve the default one.
//! Reuse off only changes the floor a skip serves: every slot solves the
//! guide LP, and a skip slot serves the LP-guided packing (`floor:
//! "guide"`) instead of a lean refresh's repaired previous schedule. The
//! contract is observable in the telemetry capture; a default run over the
//! same trace shows that the capture would see an install and a lean
//! refresh if either happened.

use std::process::{Command, Stdio};

use serde_json::Value;

/// `MAX_SKIP_STREAK` of `birp_core::schedulers::birp`: the most slots a
/// skip streak may last after the full solve that opened it.
const MAX_SKIP_STREAK: usize = 3;

const SLOTS: usize = 6;

/// The records of one `birp run` telemetry capture, and `birp report`'s
/// rendering of it.
fn capture(tag: &str, extra: &[&str]) -> (Vec<Value>, String) {
    let bin = env!("CARGO_BIN_EXE_birp");
    let dir = std::env::temp_dir().join(format!("birp-noreuse-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("run.jsonl");
    let status = Command::new(bin)
        .args(["run", "--slots", &SLOTS.to_string(), "--scheduler", "birp"])
        .args(["--seed", "11", "--telemetry", jsonl.to_str().unwrap()])
        .args(extra)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "birp run failed ({tag})");
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let out = Command::new(bin)
        .args(["report", jsonl.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "birp report failed ({tag})");
    let _ = std::fs::remove_dir_all(&dir);
    let records = text
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .collect();
    (records, String::from_utf8(out.stdout).unwrap())
}

/// Every record named `name`, in capture order.
fn named<'a>(records: &'a [Value], name: &str) -> Vec<&'a Value> {
    records
        .iter()
        .filter(|v| v.get("name").and_then(Value::as_str) == Some(name))
        .collect()
}

/// A string field of a record.
fn field(r: &Value, key: &str) -> String {
    r.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("record missing `{key}`: {r:?}"))
        .to_string()
}

/// The `path` field of every record named `name`, in capture order.
fn paths(records: &[Value], name: &str) -> Vec<String> {
    named(records, name)
        .into_iter()
        .map(|r| field(r, "path"))
        .collect()
}

/// An entry of the capture's final `telemetry.summary` record.
fn summary<'a>(records: &'a [Value], kind: &str, name: &str) -> Option<&'a Value> {
    let summary = named(records, "telemetry.summary")
        .pop()
        .expect("capture ends with telemetry.summary");
    summary
        .get("summary")
        .and_then(|s| s.get(kind))
        .and_then(Value::as_array)
        .expect("summary list")
        .iter()
        .find_map(|c| match c.as_array()? {
            [n, v] if n.as_str() == Some(name) => Some(v),
            _ => None,
        })
}

/// A counter of the capture's summary (0 when absent).
fn counter(records: &[Value], name: &str) -> u64 {
    summary(records, "counters", name)
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Guide-LP solves: the sample count of the `problem.guide_lp` span.
fn guide_lps(records: &[Value]) -> u64 {
    summary(records, "histograms", "problem.guide_lp")
        .and_then(|h| h.get("count"))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Whether `birp report` prints the row `cols`.
fn has_row(report: &str, cols: &[&str]) -> bool {
    report
        .lines()
        .any(|l| l.split_whitespace().eq(cols.iter().copied()))
}

#[test]
fn no_reuse_never_installs_and_serves_the_guide_floor_in_skips() {
    let (off, report) = capture("off", &["--no-reuse"]);
    let decide = named(&off, "birp.provenance");
    assert_eq!(decide.len(), SLOTS, "one birp.provenance record per slot");
    assert_eq!(counter(&off, "scheduler.reuse_install"), 0);
    assert_eq!(
        guide_lps(&off),
        SLOTS as u64,
        "a --no-reuse slot took a lean refresh"
    );

    // Each skip follows a degraded full solve within the streak bound and
    // serves the guide packing; the budget field names what truncated each
    // degraded solve.
    let mut opened: Option<usize> = None;
    for (t, r) in decide.iter().enumerate() {
        let degraded = r.get("degraded") == Some(&Value::Bool(true));
        assert_eq!(field(r, "budget") != "none", degraded, "slot {t}: {r:?}");
        match field(r, "path").as_str() {
            "full_solve" => {
                assert!(r.get("floor").is_some_and(Value::is_null), "slot {t}");
                opened = degraded.then_some(t);
            }
            "skip" => {
                let at = opened.unwrap_or_else(|| panic!("slot {t} skipped outside the regime"));
                assert!(t - at <= MAX_SKIP_STREAK, "slot {t}: streak from slot {at}");
                assert_eq!(field(r, "floor"), "guide", "slot {t}");
                assert!(
                    r.get("gap")
                        .and_then(Value::as_f64)
                        .is_some_and(f64::is_finite),
                    "slot {t}: a guide-floor skip has a finite gap: {r:?}"
                );
            }
            other => panic!("slot {t}: unexpected path {other}"),
        }
    }
    let skips = paths(&off, "birp.provenance")
        .iter()
        .filter(|p| *p == "skip")
        .count();
    assert!(skips >= 1, "--no-reuse never reached the degraded regime");
    assert_eq!(counter(&off, "scheduler.reuse_budget_skip"), skips as u64);
    assert!(
        has_row(&report, &["guide", &skips.to_string()]),
        "report has no guide/{skips} skip-floor row:\n{report}"
    );

    let model = paths(&off, "birp.delta");
    assert_eq!(model.len(), SLOTS, "one birp.delta record per slot");
    assert_eq!(model[0], "rebuild");
    assert!(
        model[1..].iter().all(|p| p == "delta"),
        "--no-reuse did not refresh the slot model: {model:?}"
    );

    // Control: the default run over the same trace installs and serves its
    // skips from lean refreshes, so the assertions above are not vacuous.
    let (on, _) = capture("on", &[]);
    let skips_on: Vec<&Value> = named(&on, "birp.provenance")
        .into_iter()
        .filter(|r| field(r, "path") == "skip")
        .collect();
    assert!(!skips_on.is_empty());
    assert!(skips_on.iter().all(|r| field(r, "floor") == "reuse"));
    assert_eq!(
        guide_lps(&on),
        (SLOTS - skips_on.len()) as u64,
        "lean refreshes run no guide LP"
    );
    assert!(counter(&on, "scheduler.reuse_install") >= 1);
    assert_eq!(paths(&on, "birp.delta")[1..], model[1..]);
}
