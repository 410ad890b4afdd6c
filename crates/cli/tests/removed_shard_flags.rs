//! The sharding flags left with the sharded decide (DESIGN.md §14). `birp
//! run` refuses them, and `birp resume` refuses a checkpoint whose run spec
//! carries one, naming the flag, instead of resuming the run under other
//! decisions than it started with. A spec that records them as 0, as every
//! unsharded run wrote it, still resumes.

use std::path::Path;
use std::process::{Command, Output, Stdio};

use birp_core::checkpoint;
use serde::Value;

/// The keys earlier run specs stored the sharding flags under.
const KEYS: [&str; 2] = ["shards", "cluster_size"];

fn birp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_birp"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap()
}

/// Rewrite the checkpoint at `from` into `to` with `key: n` in its spec.
fn with_spec_key(from: &Path, to: &Path, key: &str, n: u64) {
    let mut ck = checkpoint::load(from).unwrap();
    let Value::Object(fields) = &mut ck.spec else {
        panic!("the run spec is an object: {:?}", ck.spec);
    };
    fields.retain(|(k, _)| k != key);
    fields.push((key.to_string(), Value::UInt(n)));
    checkpoint::save(to, &ck).unwrap();
}

#[test]
fn run_and_resume_refuse_the_removed_sharding_flags() {
    let dir = std::env::temp_dir().join(format!("birp-shardflags-{}", std::process::id()));
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

    for key in KEYS {
        let flag = format!("--{}", key.replace('_', "-"));

        let out = birp(&["run", "--slots", "2", &flag, "2"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(&flag), "{flag} not named: {stderr}");

        let sharded = dir.join(format!("{key}.ckpt"));
        with_spec_key(&ckpt, &sharded, key, 3);
        let out = birp(&["resume", sharded.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{key}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} 3")),
            "{flag} not named: {stderr}"
        );
        assert!(out.stdout.is_empty(), "a refused resume ran slots");

        let unsharded = dir.join(format!("{key}-0.ckpt"));
        with_spec_key(&ckpt, &unsharded, key, 0);
        let out = birp(&["resume", unsharded.to_str().unwrap()]);
        assert!(out.status.success(), "{key}: 0 must resume: {out:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
