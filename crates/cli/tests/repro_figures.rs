//! `birp repro <figure>` drives every table and figure of the paper's
//! evaluation: each figure runs here at a reduced size and writes a record
//! of the expected shape to `--out`, nothing lands under `results/`, and a
//! failed write exits 1. Missing and unknown figures are refused in
//! `flag_checks.rs`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use serde_json::Value;

fn birp(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_birp"))
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .output()
        .unwrap()
}

/// Name, length and modification time of every file in `dir`.
fn listing(dir: &Path) -> Vec<(PathBuf, u64, std::time::SystemTime)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let meta = e.as_ref().unwrap().metadata().unwrap();
            (e.unwrap().path(), meta.len(), meta.modified().unwrap())
        })
        .collect();
    files.sort();
    files
}

/// An assertion on the shape of a figure's record.
type ShapeCheck = fn(&Value);

fn array(v: &Value) -> &[Value] {
    v.as_array().expect("a JSON array")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("no field {key}"))
}

#[test]
fn every_figure_writes_its_record() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let before = listing(&results);
    let dir = std::env::temp_dir().join(format!("birp-repro-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let figures: [(&str, &[&str], ShapeCheck); 7] = [
        ("table1", &["--windows", "40"], |v| {
            assert_eq!(array(v).len(), 8)
        }),
        ("fig2", &["--reps", "2"], |v| assert_eq!(array(v).len(), 3)),
        ("fig4", &["--slots", "12"], |v| {
            assert_eq!(array(field(v, "points")).len(), 49);
            assert_eq!(array(field(v, "checkpoints")).len(), 2);
        }),
        ("fig5", &["--slots", "8"], |v| {
            assert_eq!(array(field(v, "points")).len(), 49)
        }),
        ("fig6", &["--slots", "8"], |v| {
            assert_eq!(array(v).len(), 4);
            assert_eq!(field(field(&array(v)[0], "run"), "slots").as_u64(), Some(8));
        }),
        ("fig7", &["--slots", "8"], |v| assert_eq!(array(v).len(), 3)),
        ("headline", &["--slots", "8"], |v| {
            assert_eq!(array(v).len(), 2);
            assert!(field(field(&array(v)[1], "telemetry"), "counters")
                .as_array()
                .is_some());
        }),
    ];
    for (figure, size, check) in figures {
        let out = dir.join(format!("{figure}.json"));
        let mut args = vec!["repro", figure, "--out", out.to_str().unwrap()];
        args.extend(size);
        let run = birp(&dir, &args);
        assert!(run.status.success(), "{figure}: {run:?}");
        let record: Value = serde_json::from_str(&std::fs::read_to_string(&out).unwrap())
            .unwrap_or_else(|e| panic!("{figure}: unparsable record: {e:?}"));
        check(&record);
    }
    let failed = birp(&dir, &["repro", "fig2", "--out", "missing/fig2.json"]);
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert_eq!(failed.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot write missing/fig2.json"),
        "{stderr}"
    );

    assert_eq!(listing(&results), before, "birp repro wrote under results/");
    assert!(!dir.join("results").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
