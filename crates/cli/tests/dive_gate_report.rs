//! The root-dive gate (DESIGN.md §15) as `birp run --scale large` ships it,
//! seen through the capture: every `birp.provenance` record names what the
//! root dive did, the gate closes only after eight full solves whose dive
//! missed, a closed gate probes every sixteenth full solve, and
//! `birp report` tallies the outcomes per decide path. The same records
//! name each root LP's start: at this scale presolve keeps the guide LP's
//! rows, so full solves restore its basis (DESIGN.md §3), and the report
//! tallies full solves per root basis. They also name the budget that
//! truncated each degraded solve and the floor each skip served, and the
//! report tallies both.

use std::process::{Command, Stdio};

use serde_json::Value;

#[test]
fn large_run_gates_the_dive_and_report_tallies_it() {
    let bin = env!("CARGO_BIN_EXE_birp");
    let dir = std::env::temp_dir().join(format!("birp-dive-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("run.jsonl");
    let status = Command::new(bin)
        .args(["run", "--scale", "large", "--slots", "72", "--seed", "42"])
        .args(["--telemetry", jsonl.to_str().unwrap()])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "birp run failed");
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let provenance: Vec<Value> = text
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .filter(|v| v.get("name").and_then(Value::as_str) == Some("birp.provenance"))
        .collect();
    assert_eq!(provenance.len(), 72, "one provenance record per slot");
    let field = |r: &Value, k: &str| -> String {
        r.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("provenance record missing `{k}`: {r:?}"))
            .to_string()
    };
    for r in &provenance {
        let dive = field(r, "root_dive");
        assert!(
            ["not_run", "missed", "hit", "gated"].contains(&dive.as_str()),
            "{r:?}"
        );
        let basis = field(r, "root_basis");
        assert!(["guide", "cold"].contains(&basis.as_str()), "{r:?}");
        let degraded = r.get("degraded") == Some(&Value::Bool(true));
        let budget = field(r, "budget");
        assert!(
            ["none", "nodes", "pivots"].contains(&budget.as_str()),
            "{r:?}"
        );
        assert_eq!(budget != "none", degraded, "{r:?}");
        if field(r, "path") != "full_solve" {
            assert_eq!(dive, "not_run", "only full solves dive: {r:?}");
            assert_eq!(basis, "cold", "only full solves run a root LP: {r:?}");
        }
        if field(r, "path") == "skip" {
            assert_eq!(field(r, "floor"), "reuse", "{r:?}");
        }
    }
    let restored = provenance
        .iter()
        .filter(|r| field(r, "path") == "full_solve" && field(r, "root_basis") == "guide")
        .count();
    assert!(restored > 0, "no full solve restored the guide basis");

    let dives: Vec<String> = provenance
        .iter()
        .filter(|r| field(r, "path") == "full_solve")
        .map(|r| field(r, "root_dive"))
        .collect();
    let first_gated = dives
        .iter()
        .position(|d| d == "gated")
        .unwrap_or_else(|| panic!("the gate never closed: {dives:?}"));
    let missed = dives[..first_gated]
        .iter()
        .filter(|d| *d == "missed")
        .count();
    assert!(
        first_gated >= 8 && missed >= 8,
        "gated before eight misses: {dives:?}"
    );
    let mut run = 0;
    for d in &dives[first_gated..] {
        run = if d == "gated" { run + 1 } else { 0 };
        assert!(run < 16, "no probe within sixteen full solves: {dives:?}");
    }

    let out = Command::new(bin)
        .args(["report", jsonl.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let report = String::from_utf8(out.stdout).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let gated = dives.iter().filter(|d| *d == "gated").count();
    let row = report
        .lines()
        .find(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            cols.first() == Some(&"full_solve") && cols.get(1) == Some(&"gated")
        })
        .unwrap_or_else(|| panic!("report has no full_solve/gated row:\n{report}"));
    assert!(
        row.ends_with(&format!(" {gated}")),
        "row {row:?}, {gated} gated"
    );
    // The large run has no pivot budget: each degraded solve ran out of
    // nodes.
    let truncated = provenance
        .iter()
        .filter(|r| field(r, "path") == "full_solve" && field(r, "budget") == "nodes")
        .count()
        .to_string();
    assert!(
        report
            .lines()
            .any(|l| l.split_whitespace().eq(["nodes", truncated.as_str()])),
        "report has no nodes/{truncated} budget row:\n{report}"
    );
    let skips = provenance
        .iter()
        .filter(|r| field(r, "path") == "skip")
        .count()
        .to_string();
    assert!(
        report
            .lines()
            .any(|l| l.split_whitespace().eq(["reuse", skips.as_str()])),
        "report has no reuse/{skips} skip-floor row:\n{report}"
    );
    let restored = restored.to_string();
    assert!(
        report
            .lines()
            .any(|l| l.split_whitespace().eq(["guide", restored.as_str()])),
        "report has no guide/{restored} root-basis row:\n{report}"
    );
}
