//! End-to-end BIRP benchmark. One invocation measures one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6-small|fig7-large|fleet-1000 --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. Every line before the last is for
//! people; the last line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A failed output check exits with code 1.

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use birp_perfbench::layers::{run_traced, Layers, UNATTRIBUTED_TOL_PCT};
use birp_perfbench::workload::{run, setup, Kind, Pool, Pooled, Quality, Run, SetupTimes};
use birp_perfbench::{median, quantile, sorted};

const USAGE: &str = "usage: birp-perfbench --workload fig6-small|fig7-large|fleet-1000 \
                     --seed N --seconds S --trace 0|1";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// ROADMAP's bar for telemetry overhead at the default level, reported
/// beside `trace_overhead_pct` and not gated.
const TRACE_OVERHEAD_BAR_PCT: f64 = 5.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(out) => {
            println!("{}", out.json(true));
            ExitCode::SUCCESS
        }
        Err((e, out)) => {
            eprintln!("check failed: {e}");
            println!("{}", out.json(false));
            ExitCode::from(1)
        }
    }
}

/// What the last output line reports.
#[derive(Default)]
struct Output {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Output {
    fn json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn bench(args: &Args) -> Result<Output, (String, Output)> {
    let kind = args.kind;
    let (instances_n, slots_n) = kind.shape();
    let mut out = Output::default();

    let mut setups: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (pool, schedulers, times) = setup(kind, args.seed);
        setups.push(times);
        built = Some((pool, schedulers));
    }
    let (pool, mut schedulers) = built.expect("at least one set-up");

    // Whole passes over the pool until the next pass would overrun the
    // budget. In traced mode every untraced run of a trace is followed by
    // a traced run of the same trace, so host drift hits both alike.
    let budget = Duration::from_secs_f64(args.seconds);
    let measure = Instant::now();
    let mut plain: Vec<Vec<Run>> = Vec::new();
    let mut traced: Vec<Vec<Run>> = Vec::new();
    let mut layers = Layers::default();
    // Quality of each instance's first run; every later run, traced or
    // not, must reproduce it bit for bit.
    let mut first: Vec<Quality> = Vec::with_capacity(instances_n);
    let fail = |e: String, out: &mut Output| (e, std::mem::take(out));
    loop {
        let pass = Instant::now();
        let (mut runs, mut traced_runs) = (Vec::new(), Vec::new());
        if args.trace {
            layers.begin_pass();
        }
        for (j, (trace, sched)) in pool.traces.iter().zip(schedulers.drain(..)).enumerate() {
            let (r, q) = run(&pool.catalog, trace, sched).map_err(|e| fail(e, &mut out))?;
            repeat_check(&mut first, j, q).map_err(|e| fail(e, &mut out))?;
            out.failed += r.failed_slots;
            runs.push(r);
            if args.trace {
                let t = run_traced(&pool.catalog, trace, kind.scheduler(&pool.catalog))
                    .map_err(|e| fail(e, &mut out))?;
                layers.fold(j, &t).map_err(|e| fail(e, &mut out))?;
                repeat_check(&mut first, j, t.quality).map_err(|e| fail(e, &mut out))?;
                out.failed += t.run.failed_slots;
                traced_runs.push(t.run);
            }
        }
        out.attempted += (runs.len() + traced_runs.len()) * slots_n;
        plain.push(runs);
        traced.push(traced_runs);
        if measure.elapsed() + pass.elapsed() > budget {
            break;
        }
        schedulers = pool.schedulers(kind);
    }
    let pooled = birp_perfbench::workload::pool(&first);

    let commit = commit();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host cores={cores} rayon_threads={} commit={commit} source={:016x}",
        rayon::current_num_threads(),
        source_digest()
    );
    println!(
        "run workload={} seed={} trace={} instances={instances_n} slots={slots_n} passes={} setups={SETUP_REPS}",
        kind.name(),
        args.seed,
        u8::from(args.trace),
        plain.len(),
    );
    println!(
        "quality digest={:016x} (repeats bitwise across runs of one workload and seed on one host)",
        quality_digest(&pooled)
    );
    if out.failed > 0 {
        println!(
            "warning: {} of {} slots fell back to greedy-LOCAL",
            out.failed, out.attempted
        );
    }

    out.metrics = if args.trace {
        layer_metrics(&layers, &setups, &plain, &traced).map_err(|e| fail(e, &mut out))?
    } else {
        end_to_end(&pool, &setups, &plain, &pooled, &out)
    };
    for (name, value, unit) in &out.metrics {
        if !value.is_finite() {
            return Err(fail(format!("metric {name} is not finite"), &mut out));
        }
        println!("{name:<28} {value:>14.6} {unit}");
    }
    Ok(out)
}

/// Keep instance `j`'s first quality; compare any later one against it.
fn repeat_check(first: &mut Vec<Quality>, j: usize, q: Quality) -> Result<(), String> {
    match first.get(j) {
        None => {
            first.push(q);
            Ok(())
        }
        Some(f) if f.same(&q) => Ok(()),
        Some(_) => Err(format!(
            "instance {j} quality drifted between runs of one process"
        )),
    }
}

fn end_to_end(
    pool: &Pool,
    setups: &[SetupTimes],
    plain: &[Vec<Run>],
    pooled: &Pooled,
    out: &Output,
) -> Vec<(String, f64, &'static str)> {
    let setup_s = median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>());
    // Per trace the median over passes, then the median over the pool: a
    // few traces cost 3-4x the typical one, and a mean would follow them.
    let run_s = median(
        &(0..pool.traces.len())
            .map(|j| median(&plain.iter().map(|p| p[j].wall_s).collect::<Vec<_>>()))
            .collect::<Vec<_>>(),
    );
    let decide = sorted(
        &plain
            .iter()
            .flatten()
            .flat_map(|r| r.decide_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let n = decide.len();
    let (p50, p95) = (quantile(&decide, 0.5), quantile(&decide, 0.95));
    let beyond = |v: f64| decide.iter().filter(|&&d| d > v).count();
    let slot_ms = pool.catalog.slot_ms;
    let overrun_pct = 100.0 * beyond(slot_ms) as f64 / n.max(1) as f64;
    let failed_slot_pct = 100.0 * out.failed as f64 / out.attempted.max(1) as f64;

    println!(
        "decide samples n={n}: {} beyond p50, {} beyond p95{}",
        beyond(p50),
        beyond(p95),
        if beyond(p95) < 10 {
            " (fewer than 10: p95 is close to the sample maximum)"
        } else {
            ""
        }
    );
    // Not gated because they are 0 on most seeds and workloads: drops are
    // rare outside Fig. 7, and only the fleet overruns its slot.
    println!(
        "drop_pct                     {:>14.6} % ({} dropped)",
        pooled.drop_pct, pooled.dropped
    );
    println!("slot_overrun_pct             {overrun_pct:>14.6} % (decide > slot_ms {slot_ms} ms)");
    println!("failed_slot_pct              {failed_slot_pct:>14.6} %");
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("run_s".into(), run_s, "s"),
        ("decide_ms_p50".into(), p50, "ms"),
        ("decide_ms_p95".into(), p95, "ms"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ("total_loss".into(), pooled.total_loss, "loss"),
        ("slo_fail_pct".into(), pooled.slo_fail_pct, "%"),
        ("completion_p95".into(), pooled.completion_p95, "xSLO"),
    ]
}

fn layer_metrics(
    layers: &Layers,
    setups: &[SetupTimes],
    plain: &[Vec<Run>],
    traced: &[Vec<Run>],
) -> Result<Vec<(String, f64, &'static str)>, String> {
    layers.check()?;
    let slots: usize = plain.iter().flatten().map(|r| r.decide_ms.len()).sum();
    let per_slot = |ms: f64| ms / slots.max(1) as f64;
    let observe: f64 = plain.iter().flatten().map(|r| r.observe_ms).sum();
    let runner_self: f64 = plain
        .iter()
        .flatten()
        .map(|r| r.wall_s * 1e3 - r.decide_ms.iter().sum::<f64>() - r.observe_ms)
        .sum();
    // Per-path decide latency: untraced timings joined with the traced
    // run's path labels (decisions, and so paths, repeat bitwise).
    let path_p50 = |path: &str| {
        let v: Vec<f64> = plain
            .iter()
            .flat_map(|runs| runs.iter().enumerate())
            .flat_map(|(j, r)| {
                r.decide_ms
                    .iter()
                    .zip(&layers.slot_paths[j])
                    .filter(|(_, p)| *p == path)
                    .map(|(ms, _)| *ms)
            })
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let wall = |passes: &[Vec<Run>]| passes.iter().flatten().map(|r| r.wall_s).sum::<f64>();
    let overhead_pct = 100.0 * (wall(traced) / wall(plain) - 1.0);

    println!(
        "consistency: per-path slot counts sum to the slot count; spans leave {:.2}% of decide \
         unattributed (tolerance {UNATTRIBUTED_TOL_PCT}%)",
        layers.unattributed_pct()
    );
    println!(
        "trace overhead {overhead_pct:.2}% (ROADMAP bar {TRACE_OVERHEAD_BAR_PCT}% at the default level, not gated)"
    );

    let mut metrics = vec![
        (
            "models.catalog_ms".into(),
            median(&setups.iter().map(|s| s.catalog_ms).collect::<Vec<_>>()),
            "ms",
        ),
        (
            "workload.generate_ms".into(),
            median(&setups.iter().map(|s| s.generate_ms).collect::<Vec<_>>()),
            "ms",
        ),
        ("runner.self_ms".into(), per_slot(runner_self), "ms/slot"),
        ("mab.observe_ms".into(), per_slot(observe), "ms/slot"),
        ("sched.decide_skip_ms_p50".into(), path_p50("skip"), "ms"),
        (
            "sched.decide_full_ms_p50".into(),
            path_p50("full_solve"),
            "ms",
        ),
    ];
    metrics.extend(layers.metrics());
    metrics.push(("trace_overhead_pct".into(), overhead_pct, "%"));
    Ok(metrics)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// The git commit of the measured tree, or `none` when the tree is not a
/// git checkout. The ceiling keeps git from searching directories above it.
fn commit() -> String {
    let Ok(root) = repo_root().canonicalize() else {
        return "none".into();
    };
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the path and contents of every file under `crates/`, plus
/// the lock file: identifies the measured source where no commit exists.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else {
                    files.push(p);
                }
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    files.iter().fold(FNV_OFFSET, |h, f| {
        let rel = f.strip_prefix(root).unwrap_or(f);
        let h = fnv(h, rel.to_string_lossy().as_bytes());
        fnv(h, &std::fs::read(f).unwrap_or_default())
    })
}

fn quality_digest(p: &Pooled) -> u64 {
    [
        p.total_loss.to_bits(),
        p.slo_fail_pct.to_bits(),
        p.drop_pct.to_bits(),
        p.completion_p95.to_bits(),
    ]
    .iter()
    .fold(FNV_OFFSET, |h, v| fnv(h, &v.to_le_bytes()))
}
