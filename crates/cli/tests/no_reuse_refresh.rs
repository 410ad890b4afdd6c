//! `--no-reuse` switches off temporal reuse (DESIGN.md §11) and nothing
//! else: no slot takes the heuristic-regime skip and no previous-slot
//! schedule is installed as the incumbent, while the persistent slot model
//! (DESIGN.md §13) still absorbs every slot after the first as typed
//! deltas. The contract is observable in the telemetry capture; a default
//! run over the same trace shows that the capture would see a skip and an
//! install if either happened.

use std::process::{Command, Stdio};

use serde_json::Value;

/// The records of one `birp run` telemetry capture.
fn capture(tag: &str, extra: &[&str]) -> Vec<Value> {
    let bin = env!("CARGO_BIN_EXE_birp");
    let dir = std::env::temp_dir().join(format!("birp-noreuse-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("run.jsonl");
    let status = Command::new(bin)
        .args(["run", "--slots", "6", "--scheduler", "birp", "--seed", "11"])
        .args(["--telemetry", jsonl.to_str().unwrap()])
        .args(extra)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "birp run failed ({tag})");
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    text.lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .collect()
}

/// The `path` field of every record named `name`, in capture order.
fn paths(records: &[Value], name: &str) -> Vec<String> {
    records
        .iter()
        .filter(|v| v.get("name").and_then(Value::as_str) == Some(name))
        .map(|r| {
            r.get("path")
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{name} record missing `path`: {r:?}"))
                .to_string()
        })
        .collect()
}

/// A counter of the capture's final `telemetry.summary` record (0 when
/// absent).
fn counter(records: &[Value], name: &str) -> u64 {
    let summary = records
        .iter()
        .rev()
        .find(|v| v.get("name").and_then(Value::as_str) == Some("telemetry.summary"))
        .expect("capture ends with telemetry.summary");
    let counters = summary
        .get("summary")
        .and_then(|s| s.get("counters"))
        .and_then(Value::as_array)
        .expect("counter list");
    counters
        .iter()
        .filter_map(|c| match c.as_array()? {
            [n, v] if n.as_str() == Some(name) => v.as_u64(),
            _ => None,
        })
        .next()
        .unwrap_or(0)
}

#[test]
fn no_reuse_never_skips_or_installs_and_refreshes_the_slot_model() {
    let off = capture("off", &["--no-reuse"]);
    let decide = paths(&off, "birp.provenance");
    assert_eq!(decide.len(), 6, "one birp.provenance record per slot");
    assert!(
        decide.iter().all(|p| p != "skip"),
        "--no-reuse took the skip path: {decide:?}"
    );
    assert_eq!(counter(&off, "scheduler.reuse_budget_skip"), 0);
    assert_eq!(counter(&off, "scheduler.reuse_install"), 0);
    let model = paths(&off, "birp.delta");
    assert_eq!(model.len(), 6, "one birp.delta record per slot");
    assert_eq!(model[0], "rebuild");
    assert!(
        model[1..].iter().all(|p| p == "delta"),
        "--no-reuse did not refresh the slot model: {model:?}"
    );

    // Control: the default run over the same trace skips and installs, so
    // the assertions above are not vacuous.
    let on = capture("on", &[]);
    assert!(paths(&on, "birp.provenance").iter().any(|p| p == "skip"));
    assert!(counter(&on, "scheduler.reuse_install") >= 1);
    assert_eq!(paths(&on, "birp.delta")[1..], model[1..]);
}
