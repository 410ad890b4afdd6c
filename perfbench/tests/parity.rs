//! Parity with `birp run`: at equal seed and slot count, the benchmark's
//! one-instance quality figures equal the lines `birp run --scale
//! small|large` prints. The test builds and runs the repository's CLI with
//! cargo, so the first run takes about a minute.

use std::process::Command;

use birp_perfbench::workload::{pool, run, Kind, CATALOG_SEED};

const SLOTS: usize = 300;

fn birp_run(scale: &str) -> String {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    let slots = SLOTS.to_string();
    let seed = CATALOG_SEED.to_string();
    let out = Command::new(env!("CARGO"))
        .args(["run", "--release", "--offline", "--quiet", "-p", "birp-cli"])
        .args(["--manifest-path", manifest, "--", "run", "--scale", scale])
        .args(["--slots", &slots, "--seed", &seed])
        .output()
        .expect("cargo starts");
    assert!(
        out.status.success(),
        "birp run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn bench_lines(kind: Kind) -> Vec<String> {
    let catalog = kind.catalog(CATALOG_SEED);
    let trace = kind.trace_config(CATALOG_SEED, SLOTS).generate();
    let (_, quality) = run(&catalog, &trace, kind.scheduler(&catalog)).expect("checked run");
    let p = pool(&[quality]);
    vec![
        format!("dropped        {}", p.dropped),
        format!("total loss     {:.2}", p.total_loss),
        format!("SLO failures   {} ({:.2}%)", p.slo_failures, p.slo_fail_pct),
        format!("p95 compl.     {:.3}", p.completion_p95),
    ]
}

fn assert_parity(kind: Kind, scale: &str) {
    let cli = birp_run(scale);
    for line in bench_lines(kind) {
        assert!(
            cli.lines().any(|l| l == line),
            "{}: benchmark line {line:?} not in `birp run` output:\n{cli}",
            kind.name()
        );
    }
}

#[test]
fn fig6_small_matches_birp_run() {
    assert_parity(Kind::Fig6Small, "small");
}

#[test]
fn fig7_large_matches_birp_run() {
    assert_parity(Kind::Fig7Large, "large");
}
