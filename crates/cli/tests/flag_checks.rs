//! Every command declares the flags it reads: an unknown flag, another
//! command's flag, a missing value, a number that does not parse or a value
//! outside a flag's fixed choices exits 2 and names the flag, instead of
//! running with a default in its place; so does `birp repro` without a
//! known figure as its first argument.
//!
//! That covers the removed flags that changed decisions: the sharding flags,
//! which left with the sharded decide (DESIGN.md §14), and `--dense-simplex`.
//! `birp resume` also refuses a checkpoint whose run spec carries one,
//! naming the flag, instead of resuming the run under other decisions than
//! it started with. A spec that records them as unset (0 or false), as
//! every other run wrote it, still resumes.
//!
//! `bench-diff` refuses the flags of its removed runner half, runs only with
//! `--solver-bench`, and refuses a `--tolerance` that is not a finite number
//! above zero, since no measurement can regress against NaN or infinity.

use std::path::Path;
use std::process::{Command, Output, Stdio};

use birp_core::checkpoint;
use serde::Value;

/// The keys earlier run specs stored the removed flags under, each with the
/// value that set it, the value that left it unset and the flag as the
/// refusal names it.
const KEYS: [(&str, Value, Value, &str); 3] = [
    ("shards", Value::UInt(3), Value::UInt(0), "--shards 3"),
    (
        "cluster_size",
        Value::UInt(3),
        Value::UInt(0),
        "--cluster-size 3",
    ),
    (
        "dense_simplex",
        Value::Bool(true),
        Value::Bool(false),
        "--dense-simplex",
    ),
];

/// Command lines refused with exit 2, each with the flag (or, for a missing
/// or unknown `repro` figure, the usage line) the refusal names.
const REFUSED: [(&[&str], &str); 25] = [
    (&["run", "--slots", "2", "--shards", "2"], "--shards"),
    (
        &["run", "--slots", "2", "--cluster-size", "2"],
        "--cluster-size",
    ),
    (&["run", "--slots", "2", "--sedd", "5"], "--sedd"),
    (&["run", "--slots", "4x"], "--slots"),
    (&["run", "--slots", "2", "--seed"], "--seed"),
    (&["run", "--seed", "--slots", "2"], "--seed"),
    (&["run", "--windows", "3"], "--windows"),
    (
        &["run", "--slots", "2", "--dense-simplex"],
        "--dense-simplex",
    ),
    (&["run", "--slots", "2", "--scale", "lrage"], "--scale"),
    (&["trace", "--scale", "huge"], "--scale"),
    (
        &["run", "--slots", "2", "--log-level", "bogus"],
        "--log-level",
    ),
    (&["bench-diff", "--tolerance", "two"], "--tolerance"),
    (&["bench-diff", "--tolerance", "NaN"], "--tolerance"),
    (&["bench-diff", "--tolerance", "inf"], "--tolerance"),
    (&["bench-diff", "--tolerance", "0"], "--tolerance"),
    (&["bench-diff", "--tolerance", "-1"], "--tolerance"),
    (&["bench-diff", "--tolerance", "2.5"], "--solver-bench"),
    (&["bench-diff", "--runner-json", "x"], "--runner-json"),
    (
        &["bench-diff", "--baseline-runner", "x"],
        "--baseline-runner",
    ),
    (&["repro", "table1", "--slots", "8"], "--slots"),
    (&["repro", "fig4", "--no-reuse"], "--no-reuse"),
    (&["repro", "fig2", "--reps", "0"], "--reps"),
    (&["repro"], "birp repro"),
    (&["repro", "fig3"], "birp repro"),
    (&["repro", "--seed", "3", "fig6"], "birp repro"),
];

fn birp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_birp"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap()
}

/// Rewrite the checkpoint at `from` into `to` with `key: value` in its spec.
fn with_spec_key(from: &Path, to: &Path, key: &str, value: Value) {
    let mut ck = checkpoint::load(from).unwrap();
    let Value::Object(fields) = &mut ck.spec else {
        panic!("the run spec is an object: {:?}", ck.spec);
    };
    fields.retain(|(k, _)| k != key);
    fields.push((key.to_string(), value));
    checkpoint::save(to, &ck).unwrap();
}

#[test]
fn unknown_flags_and_malformed_values_are_refused() {
    for (args, flag) in REFUSED {
        let out = birp(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag),
            "{args:?}: {flag} not named: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran: {out:?}");
    }
}

#[test]
fn resume_refuses_checkpoints_of_the_removed_flags() {
    let dir = std::env::temp_dir().join(format!("birp-removedflags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("run.ckpt");
    let out = birp(&[
        "run",
        "--slots",
        "4",
        "--seed",
        "3",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "2",
    ]);
    assert!(out.status.success(), "checkpointed run failed: {out:?}");

    for (key, set, unset, flag) in KEYS {
        let refused = dir.join(format!("{key}.ckpt"));
        with_spec_key(&ckpt, &refused, key, set);
        let out = birp(&["resume", refused.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{key}: {stderr}");
        assert!(stderr.contains(flag), "{flag} not named: {stderr}");
        assert!(out.stdout.is_empty(), "a refused resume ran slots");

        let resumed = dir.join(format!("{key}-unset.ckpt"));
        with_spec_key(&ckpt, &resumed, key, unset);
        let out = birp(&["resume", resumed.to_str().unwrap()]);
        assert!(out.status.success(), "{key} unset must resume: {out:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
