//! `birp` — command-line front end for the BIRP reproduction.
//!
//! ```text
//! birp run        [--scale small|large] [--slots N] [--seed S] [--scheduler birp|birp-off|oaei|max]
//!                 [--faults plan.json] [--resilience on|off] [--no-reuse]
//!                 [--checkpoint run.ckpt] [--checkpoint-every N] [--out result.json]
//! birp resume     <run.ckpt> [--checkpoint-every N] [--out result.json]
//! birp chaos      [--slots N] [--seed S] [--kills N] [--out report.json]
//! birp resilience [--slots N] [--seed S] [--smoke] [--out result.json]
//! birp repro      <figure> [--seed S] [--slots N|--windows N|--reps N] [--out results/<figure>.json]
//! birp trace      [--scale small|large] [--slots N] [--seed S] [--csv|--json]
//! birp report     <run.jsonl>
//! birp profile    <run.jsonl> [--out-dir DIR]
//! birp bench-diff --solver-bench out.txt [--tolerance X]
//! birp conformance [--check] [--update-golden] [--oracle N] [--seed S]
//! ```
//!
//! `--faults` loads a serialized [`birp_sim::FaultPlan`] (outages,
//! degradations, link faults, flaky edges) into the executor; `--resilience
//! on` enables the failure detector / quarantine-and-reroute layer
//! (DESIGN.md §10). `birp resilience` runs the canned three-way
//! BIRP ± resilience experiment and optionally writes its JSON record.
//!
//! `birp repro <table1|fig2|fig4|fig5|fig6|fig7|headline>` regenerates one
//! table or figure of the paper at paper size: it prints the paper's rows and
//! writes the JSON record to `--out` (default `results/<figure>.json`).
//! `fig6` and `fig7` also take the robustness flags of `run`.
//!
//! `--checkpoint` makes `birp run` crash-safe (DESIGN.md §12): the full run
//! state is written atomically every `--checkpoint-every` slots (default 10)
//! and on SIGTERM/SIGINT, and the checkpoint embeds the resolved invocation
//! so `birp resume <run.ckpt>` is self-contained — it rebuilds the catalog,
//! trace and scheduler from the stored spec and continues mid-trace with
//! bitwise-identical remaining output. `birp chaos` runs the in-process
//! failure-injection harness (scheduler panics, kill–resume cycles,
//! checkpoint corruption, torn writes, sink IO failures) and exits non-zero
//! if any leg breaks the crash-safety contract.
//!
//! Every command additionally accepts `--telemetry <path.jsonl>` to capture
//! a structured event stream (solver search, MAB tuning, per-slot runner
//! records) and `--log-level trace|debug|info|warn|error` to set the event
//! threshold (default `debug`). `birp report` renders a captured stream as
//! per-event counts plus the end-of-run counter/histogram table;
//! `birp profile` renders the same capture's causal spans as a Chrome
//! trace-event file and a collapsed-stack (flamegraph) file plus the
//! per-slot decision provenance table; `birp bench-diff` is the automated
//! perf-regression gate of the solver micro-benchmarks against the
//! committed `BENCH_solver.json` baseline.
//!
//! Naming note: `birp trace` dumps a synthetic *workload* trace (demand per
//! slot). Telemetry captures — execution traces — are produced by
//! `--telemetry` and consumed by `report`/`profile`.
//!
//! Argument parsing is hand-rolled over `std::env::args` — the workspace
//! deliberately keeps its dependency set to the paper-relevant crates
//! (DESIGN.md, dependency section). Each command declares the flags it
//! reads; an unknown flag, a missing value, a number that does not parse or
//! a value outside a flag's fixed choices exits 2 and names the flag.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use birp_telemetry as telemetry;

use birp_core::experiments::{
    chaos_experiment, resilience_experiment, ChaosConfig, ComparisonConfig, ResilienceConfig,
    SchedulerKind,
};
use birp_core::{
    checkpoint, run_scheduler, run_scheduler_resumable, CheckpointPolicy, HealthConfig, RunConfig,
    RunOutcome, RunResult, TemporalReuse,
};
use birp_mab::MabConfig;
use birp_models::Catalog;
use birp_solver::SolverConfig;
use birp_workload::{io as trace_io, TraceConfig, TraceStats};
use serde::{Deserialize, Serialize, Value};

mod repro;

/// Cooperative shutdown flag raised by SIGTERM/SIGINT when checkpointing is
/// active — the runner observes it at the next slot boundary, saves, and
/// stops cleanly.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Route SIGTERM and SIGINT to the shutdown flag. Installed only when a
/// checkpoint path is in play — plain runs keep the default fatal behaviour.
fn install_signal_handlers() {
    // libc's `signal` is already linked via std; declaring it directly keeps
    // the workspace's no-new-dependencies rule intact.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

/// The resolved `birp run` invocation, embedded verbatim in every checkpoint
/// so `birp resume` can rebuild catalog, trace and scheduler without the
/// original command line.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RunSpec {
    scale: String,
    seed: u64,
    slots: usize,
    scheduler: String,
    resilience: bool,
    no_reuse: bool,
    /// The serialized [`birp_sim::FaultPlan`] (inlined: the plan file may
    /// not exist anymore at resume time).
    faults: Value,
}

/// The flags every command accepts.
const GLOBAL_FLAGS: [&str; 2] = ["telemetry", "log-level"];

/// Flags that take no value; every other flag takes one.
const SWITCHES: [&str; 6] = ["no-reuse", "smoke", "csv", "json", "check", "update-golden"];

/// Flags whose value must parse as a non-negative integer.
const INTEGER_FLAGS: [&str; 7] = [
    "slots",
    "seed",
    "checkpoint-every",
    "kills",
    "windows",
    "reps",
    "oracle",
];

/// Flags whose value must parse as a finite number above zero.
const NUMBER_FLAGS: [&str; 1] = ["tolerance"];

/// Flags whose value must be one of a fixed set.
const CHOICE_FLAGS: [(&str, &[&str]); 4] = [
    ("scale", &["small", "large"]),
    ("scheduler", &["birp", "birp-off", "oaei", "max"]),
    ("resilience", &["on", "off"]),
    ("log-level", &["trace", "debug", "info", "warn", "error"]),
];

/// The number of operands `cmd` takes and the flags it reads besides
/// [`GLOBAL_FLAGS`]; `None` for an unknown command or `repro` figure.
fn command_spec(cmd: &str, operand: Option<&str>) -> Option<(usize, Vec<&'static str>)> {
    // `run`'s robustness flags, which `repro fig6|fig7` also takes.
    const ROBUSTNESS: [&str; 3] = ["faults", "resilience", "no-reuse"];
    let (operands, flags): (usize, &[&[&str]]) = match cmd {
        "run" => (
            0,
            &[
                &[
                    "scale",
                    "slots",
                    "seed",
                    "scheduler",
                    "checkpoint",
                    "checkpoint-every",
                    "out",
                ],
                &ROBUSTNESS,
            ],
        ),
        "resume" => (1, &[&["checkpoint-every", "out"]]),
        "chaos" => (0, &[&["slots", "seed", "kills", "out"]]),
        "resilience" => (0, &[&["slots", "seed", "smoke", "out"]]),
        "repro" => match operand? {
            "table1" => (1, &[&["seed", "windows", "out"]]),
            "fig2" => (1, &[&["seed", "reps", "out"]]),
            "fig4" | "fig5" | "headline" => (1, &[&["seed", "slots", "out"]]),
            "fig6" | "fig7" => (1, &[&["seed", "slots", "out"], &ROBUSTNESS]),
            _ => return None,
        },
        "trace" => (0, &[&["scale", "slots", "seed", "csv", "json"]]),
        "report" => (1, &[]),
        "profile" => (1, &[&["out-dir"]]),
        "bench-diff" => (0, &[&["solver-bench", "baseline-solver", "tolerance"]]),
        "conformance" => (0, &[&["check", "update-golden", "oracle", "seed"]]),
        _ => return None,
    };
    Some((operands, flags.concat()))
}

struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
    operands: Vec<String>,
}

impl Args {
    /// Split `raw` into at most `operands` operands and the flags of
    /// `allowed` and [`GLOBAL_FLAGS`]. Any other argument, a missing value
    /// or a number that does not parse is an error that names it.
    fn parse(raw: &[String], operands: usize, allowed: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            flags: HashMap::new(),
            switches: Vec::new(),
            operands: Vec::new(),
        };
        let mut raw = raw.iter();
        while let Some(a) = raw.next() {
            let Some(name) = a.strip_prefix("--") else {
                if args.operands.len() == operands {
                    return Err(format!("unexpected argument '{a}'"));
                }
                args.operands.push(a.clone());
                continue;
            };
            if !allowed.contains(&name) && !GLOBAL_FLAGS.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            if SWITCHES.contains(&name) {
                args.switches.push(name.to_string());
                continue;
            }
            let value = match raw.next() {
                Some(v) if !v.starts_with("--") => v,
                _ => return Err(format!("--{name} needs a value")),
            };
            if INTEGER_FLAGS.contains(&name) && value.parse::<u64>().is_err() {
                return Err(format!(
                    "--{name} takes a non-negative integer, got '{value}'"
                ));
            }
            if NUMBER_FLAGS.contains(&name)
                && !value.parse::<f64>().is_ok_and(|v| v.is_finite() && v > 0.0)
            {
                return Err(format!(
                    "--{name} takes a finite number above zero, got '{value}'"
                ));
            }
            if let Some((_, choices)) = CHOICE_FLAGS.iter().find(|(flag, _)| *flag == name) {
                if !choices.contains(&value.as_str()) {
                    return Err(format!(
                        "--{name} takes {}, got '{value}'",
                        choices.join("|")
                    ));
                }
            }
            args.flags.insert(name.to_string(), value.clone());
        }
        Ok(args)
    }

    fn operand(&self) -> Option<&str> {
        self.operands.first().map(String::as_str)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| unreachable!("Args::parse checks --{name} is a number"))
        })
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "birp — batch-aware inference workload redistribution (ICPP 2023 reproduction)

USAGE:
    birp run        [--scale small|large] [--slots N] [--seed S] [--scheduler birp|birp-off|oaei|max]
                    [--checkpoint run.ckpt] [--checkpoint-every N] [--out result.json]
    birp resume     <run.ckpt> [--checkpoint-every N] [--out result.json]
    birp chaos      [--slots N] [--seed S] [--kills N] [--out report.json]
    birp resilience [--slots N] [--seed S] [--smoke] [--out result.json]
    birp repro      <figure> [--out results/<figure>.json]   (see REPRO below)
    birp trace      [--scale small|large] [--slots N] [--seed S] [--csv] [--json]
                    (dumps the synthetic *workload* trace; for telemetry/execution
                    traces see --telemetry with `report` / `profile` below)
    birp report     <run.jsonl>
    birp profile    <run.jsonl> [--out-dir DIR]
    birp bench-diff --solver-bench out.txt [--tolerance X]
    birp conformance [--check] [--update-golden] [--oracle N] [--seed S]

CONFORMANCE:
    --check          diff golden-trace replays bitwise against tests/golden/ (default; exit 1 on drift)
    --update-golden  regenerate the committed snapshots from the current implementation
    --oracle N       differentially check N random tiny instances against the brute-force oracle

REPRO (paper figures at paper size, each written to results/<figure>.json):
    birp repro table1    [--seed S] [--windows N]   Table 1 utilisation + FPS
    birp repro fig2      [--seed S] [--reps N]      Fig. 2 TIR fits
    birp repro fig4      [--seed S] [--slots N]     Fig. 4 eps grid -> dLoss
    birp repro fig5      [--seed S] [--slots N]     Fig. 5 eps grid -> p%
    birp repro fig6      [--seed S] [--slots N]     Fig. 6 small-scale CDF / loss (+ ROBUSTNESS)
    birp repro fig7      [--seed S] [--slots N]     Fig. 7 large-scale CDF / loss (+ ROBUSTNESS)
    birp repro headline  [--seed S] [--slots N]     Section 5.4 claims from the Fig. 6/7 runs

ROBUSTNESS (run / repro fig6|fig7):
    --faults <plan.json>       inject a serialized FaultPlan into the executor
    --resilience on|off        failure detector + quarantine-and-reroute (default: off)
    --no-reuse                 disable cross-slot temporal reuse in the MILP schedulers:
                               no previous-slot warm start is installed, and a
                               degraded-regime skip slot serves the LP-guided packing
                               instead of the repaired previous schedule

DURABILITY (run / resume):
    --checkpoint <run.ckpt>    write the full run state atomically every
                               --checkpoint-every slots (default 10) and on
                               SIGTERM/SIGINT; the file embeds the invocation,
                               so `birp resume <run.ckpt>` continues mid-trace
                               with bitwise-identical remaining output
    birp chaos                 in-process failure-injection harness: scheduler
                               panics, kill-resume cycles, corrupted checkpoints,
                               torn writes, telemetry sink IO failures; exits
                               non-zero if any leg breaks the contract

OBSERVABILITY (any command):
    --telemetry <path.jsonl>   capture structured events to a JSON Lines file
                               (opens with a telemetry.meta attribution header)
    --log-level <level>        trace|debug|info|warn|error (default: debug;
                               `trace` adds per-wave/per-node solver spans)

PROFILE:
    birp profile <run.jsonl> [--out-dir DIR]
        renders a --telemetry capture as <stem>.chrome.json (chrome://tracing,
        Perfetto) and <stem>.folded.txt (flamegraph.pl / speedscope), and
        prints the capture header plus the per-slot decision provenance table

BENCH-DIFF (solver micro-benchmark regression gate):
    --solver-bench <out.txt>   captured `cargo bench -p birp-bench --bench
                               solver_micro` output, diffed vs BENCH_solver.json
    --baseline-solver <path>   committed solver baseline (default BENCH_solver.json)
    --tolerance <X>            fail when measured > baseline * X (default 2.0)
"
    );
    ExitCode::from(2)
}

/// `--scale` is checked by [`Args::parse`]; a checkpoint's stored scale is
/// checked by `cmd_resume`.
fn catalog_for(scale: &str, seed: u64) -> Catalog {
    match scale {
        "large" => Catalog::large_scale(seed),
        _ => Catalog::small_scale(seed),
    }
}

fn trace_cfg_for(scale: &str, seed: u64, slots: usize) -> TraceConfig {
    let base = match scale {
        "large" => TraceConfig::large_scale(seed),
        _ => TraceConfig::small_scale(seed),
    };
    TraceConfig {
        num_slots: slots,
        ..base
    }
}

/// Apply `--faults <plan.json>`, `--resilience on|off` and `--no-reuse` to a
/// run config.
fn apply_robustness(args: &Args, run: &mut RunConfig) -> Result<(), ExitCode> {
    if args.has("no-reuse") {
        run.reuse = TemporalReuse::disabled();
    }
    if let Some(path) = args.get("faults") {
        let text = std::fs::read_to_string(path).map_err(|e| {
            eprintln!("cannot read fault plan {path}: {e}");
            ExitCode::from(1)
        })?;
        run.sim.faults = serde_json::from_str(&text).map_err(|e| {
            eprintln!("cannot parse fault plan {path}: {e}");
            ExitCode::from(1)
        })?;
    }
    if args.get("resilience") == Some("on") {
        run.resilience = Some(HealthConfig::default());
    }
    Ok(())
}

fn parse_kind(name: &str) -> Option<SchedulerKind> {
    match name {
        "birp" => Some(SchedulerKind::Birp),
        "birp-off" => Some(SchedulerKind::BirpOff),
        "oaei" => Some(SchedulerKind::Oaei),
        "max" => Some(SchedulerKind::Max),
        _ => None,
    }
}

fn solver_for(scale: &str) -> SolverConfig {
    if scale == "large" {
        SolverConfig {
            node_limit: 16,
            ..SolverConfig::scheduling()
        }
    } else {
        SolverConfig::scheduling()
    }
}

/// Write `value` as pretty JSON to `out`, when given; a failed write is
/// reported and exits 1.
fn write_json<T: Serialize + ?Sized>(out: Option<&str>, value: &T) -> Result<(), ExitCode> {
    let Some(out) = out else {
        return Ok(());
    };
    let json = serde_json::to_string_pretty(value).expect("serializable");
    std::fs::write(out, json).map_err(|e| {
        eprintln!("cannot write {out}: {e}");
        ExitCode::from(1)
    })?;
    println!("wrote {out}");
    Ok(())
}

fn print_run_result(result: &RunResult) {
    let m = &result.metrics;
    println!("scheduler      {}", result.scheduler);
    println!("slots          {}", result.slots);
    println!("offered        {}", result.offered);
    println!("served         {}", m.served);
    println!("dropped        {}", m.dropped);
    println!("total loss     {:.2}", m.total_loss);
    println!(
        "SLO failures   {} ({:.2}%)",
        m.slo_failures, m.failure_rate_pct
    );
    println!("median compl.  {:.3}", m.cdf.quantile(0.5));
    println!("p95 compl.     {:.3}", m.cdf.quantile(0.95));
    if let Some(h) = &result.health {
        println!("quarantines    {}", h.events.len());
        println!("rerouted       {}", h.rerouted);
        println!("probes         {}", h.probes);
    }
    if let Some(t) = &result.telemetry {
        if t.panic_isolated > 0 {
            println!("panics isolated {}", t.panic_isolated);
        }
    }
}

/// Print / persist a finished-or-interrupted resumable run. `--out` writes
/// the full `RunResult` JSON of a completed run.
fn finish_resumable(
    args: &Args,
    ckpt_path: &std::path::Path,
    outcome: Result<RunOutcome, checkpoint::ResumeError>,
) -> ExitCode {
    match outcome {
        Ok(RunOutcome::Complete(result)) => {
            print_run_result(&result);
            if let Err(code) = write_json(args.get("out"), &*result) {
                return code;
            }
            ExitCode::SUCCESS
        }
        Ok(RunOutcome::Interrupted { next_slot }) => {
            eprintln!(
                "interrupted before slot {next_slot}; checkpoint saved to {} — \
                 continue with `birp resume {}`",
                ckpt_path.display(),
                ckpt_path.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}

/// Removed flags that changed decisions, as the keys earlier checkpoints
/// stored them under in their run spec; each flag is its key with `-` for
/// `_`. The sharding flags left with the sharded decide (DESIGN.md §14),
/// `dense_simplex` with the switch that forced the dense simplex core.
const REMOVED_FLAG_KEYS: [&str; 3] = ["shards", "cluster_size", "dense_simplex"];

fn cmd_run(args: &Args) -> ExitCode {
    let scale = args.get("scale").unwrap_or("small").to_string();
    let seed = args.num("seed", 42u64);
    let slots = args.num("slots", 48usize);
    let catalog = catalog_for(&scale, seed);
    let trace = trace_cfg_for(&scale, seed, slots).generate();
    let scheduler_name = args.get("scheduler").unwrap_or("birp").to_string();
    let kind = parse_kind(&scheduler_name).expect("Args::parse checks --scheduler");
    let solver = solver_for(&scale);
    let mut run_cfg = RunConfig::default();
    if let Err(code) = apply_robustness(args, &mut run_cfg) {
        return code;
    }
    let mut scheduler = kind.build(
        &catalog,
        MabConfig::paper_preset(),
        seed,
        &solver,
        &run_cfg.reuse,
    );

    let Some(ckpt_path) = args.get("checkpoint").map(PathBuf::from) else {
        // No durability requested: the plain, non-resumable path.
        let result = run_scheduler(&catalog, &trace, scheduler.as_mut(), &run_cfg);
        print_run_result(&result);
        if let Err(code) = write_json(args.get("out"), &result) {
            return code;
        }
        return ExitCode::SUCCESS;
    };

    let spec = RunSpec {
        scale,
        seed,
        slots,
        scheduler: scheduler_name,
        resilience: run_cfg.resilience.is_some(),
        no_reuse: args.has("no-reuse"),
        faults: Serialize::to_value(&run_cfg.sim.faults),
    };
    let policy = CheckpointPolicy {
        path: ckpt_path.clone(),
        every: args.num("checkpoint-every", 10usize),
        spec: Serialize::to_value(&spec),
    };
    install_signal_handlers();
    let outcome = run_scheduler_resumable(
        &catalog,
        &trace,
        scheduler.as_mut(),
        &run_cfg,
        Some(&policy),
        None,
        Some(&SHUTDOWN),
    );
    finish_resumable(args, &ckpt_path, outcome)
}

fn cmd_resume(args: &Args) -> ExitCode {
    let Some(path) = args.operand() else {
        eprintln!("usage: birp resume <run.ckpt> [--checkpoint-every N] [--out result.json]");
        return ExitCode::from(2);
    };
    let ckpt_path = PathBuf::from(path);
    let ck = match checkpoint::load(&ckpt_path) {
        Ok(ck) => ck,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    // A run checkpointed under a removed flag would resume here under
    // different decisions than it started with, so it is refused. A spec
    // that records the flag as unset (0 or false) still resumes.
    for key in REMOVED_FLAG_KEYS {
        let flag = match ck.spec.get(key) {
            Some(Value::UInt(n)) if *n > 0 => format!("--{} {n}", key.replace('_', "-")),
            Some(Value::Bool(true)) => format!("--{}", key.replace('_', "-")),
            _ => continue,
        };
        eprintln!(
            "{path}: checkpoint was written by `birp run {flag}`, a flag this build no longer \
             has; it cannot resume the run under the decisions it started with"
        );
        return ExitCode::from(1);
    }
    let spec = match RunSpec::from_value(&ck.spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "{path}: checkpoint has no usable run spec ({}) — was it written by `birp run --checkpoint`?",
                e.0
            );
            return ExitCode::from(1);
        }
    };
    let Some(kind) = parse_kind(&spec.scheduler) else {
        eprintln!("{path}: spec names unknown scheduler '{}'", spec.scheduler);
        return ExitCode::from(1);
    };
    if !matches!(spec.scale.as_str(), "small" | "large") {
        eprintln!("{path}: spec names unknown scale '{}'", spec.scale);
        return ExitCode::from(1);
    }
    let catalog = catalog_for(&spec.scale, spec.seed);
    let trace = trace_cfg_for(&spec.scale, spec.seed, spec.slots).generate();
    let mut run_cfg = RunConfig::default();
    if spec.no_reuse {
        run_cfg.reuse = TemporalReuse::disabled();
    }
    if spec.resilience {
        run_cfg.resilience = Some(HealthConfig::default());
    }
    match Deserialize::from_value(&spec.faults) {
        Ok(plan) => run_cfg.sim.faults = plan,
        Err(e) => {
            eprintln!("{path}: spec carries an unreadable fault plan: {}", e.0);
            return ExitCode::from(1);
        }
    }
    let solver = solver_for(&spec.scale);
    let mut scheduler = kind.build(
        &catalog,
        MabConfig::paper_preset(),
        spec.seed,
        &solver,
        &run_cfg.reuse,
    );
    println!(
        "resuming {} ({} scale, seed {}) at slot {}/{}",
        spec.scheduler, spec.scale, spec.seed, ck.runner.next_slot, spec.slots
    );
    // Keep checkpointing to the same file so the resumed run is itself
    // crash-safe.
    let policy = CheckpointPolicy {
        path: ckpt_path.clone(),
        every: args.num("checkpoint-every", 10usize),
        spec: ck.spec.clone(),
    };
    install_signal_handlers();
    let outcome = run_scheduler_resumable(
        &catalog,
        &trace,
        scheduler.as_mut(),
        &run_cfg,
        Some(&policy),
        Some(ck.runner),
        Some(&SHUTDOWN),
    );
    finish_resumable(args, &ckpt_path, outcome)
}

fn cmd_chaos(args: &Args) -> ExitCode {
    let seed = args.num("seed", 42u64);
    let mut cfg = ChaosConfig::quick(seed);
    cfg.slots = args.num("slots", cfg.slots);
    cfg.kills = args.num("kills", cfg.kills);
    let report = chaos_experiment(&cfg);
    let width = report
        .legs
        .iter()
        .map(|l| l.name.len())
        .max()
        .unwrap_or(0)
        .max("leg".len());
    println!("{:<width$}  {:<6}  detail", "leg", "result");
    for leg in &report.legs {
        println!(
            "{:<width$}  {:<6}  {}",
            leg.name,
            if leg.passed { "ok" } else { "FAILED" },
            leg.detail
        );
    }
    if let Err(code) = write_json(args.get("out"), &report) {
        return code;
    }
    if report.all_passed() {
        println!("\nchaos harness: every leg held");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nchaos harness: crash-safety contract BROKEN (see FAILED legs)");
        ExitCode::from(1)
    }
}

fn cmd_resilience(args: &Args) -> ExitCode {
    let seed = args.num("seed", 42u64);
    let cfg = if args.has("smoke") {
        ResilienceConfig::smoke(seed)
    } else {
        let slots = args.num("slots", 48usize);
        ResilienceConfig::with_horizon(seed, slots)
    };
    let r = resilience_experiment(&cfg);
    println!(
        "{:<32} {:>10} {:>11} {:>8} {:>8} {:>8}",
        "variant", "in-window", "out-window", "dropped", "rerouted", "probes"
    );
    for s in [&r.blind, &r.resilient, &r.fault_free] {
        println!(
            "{:<32} {:>10} {:>11} {:>8} {:>8} {:>8}",
            s.label,
            s.slo_failures_in_window,
            s.slo_failures_out_window,
            s.dropped,
            s.rerouted,
            s.probes
        );
    }
    println!(
        "\ndetection latency  {} slot(s)",
        r.detection_latency_slots
            .map_or("never".to_string(), |l| l.to_string())
    );
    println!("false positives    {}", r.false_positive_quarantines);
    if let Err(code) = write_json(args.get("out"), &r) {
        return code;
    }
    ExitCode::SUCCESS
}

/// `birp repro <figure>`: run one figure at its paper-size defaults
/// (`--seed`, `--slots`, `--windows` and `--reps` override them), print its
/// rows and write its JSON record.
fn cmd_repro(args: &Args) -> ExitCode {
    let figure = args
        .operand()
        .expect("command_spec admits repro only with a figure");
    let default_out = format!("results/{figure}.json");
    let out = Some(args.get("out").unwrap_or(&default_out));
    let seed = args.num("seed", 42u64);
    let slots = args.num("slots", 300usize);
    let written = match figure {
        "table1" => {
            let rows = repro::table1(args.num("seed", 3), args.num("windows", 1000));
            write_json(out, &rows)
        }
        "fig2" => match args.num("reps", 5) {
            0 => {
                eprintln!("birp repro: --reps must be positive");
                return ExitCode::from(2);
            }
            reps => write_json(out, &repro::fig2(args.num("seed", 11), reps)),
        },
        "fig4" => write_json(out, &repro::sweep(figure, seed, args.num("slots", 101))),
        "fig5" => write_json(out, &repro::sweep(figure, seed, slots)),
        "fig6" | "fig7" => {
            let mut cfg = if figure == "fig6" {
                ComparisonConfig::small_scale(seed, slots)
            } else {
                ComparisonConfig::large_scale(seed, slots)
            };
            if let Err(code) = apply_robustness(args, &mut cfg.run) {
                return code;
            }
            write_json(out, &repro::comparison(figure, &cfg))
        }
        "headline" => write_json(out, &repro::headline(seed, slots)[..]),
        _ => unreachable!("command_spec admits only the figures above"),
    };
    written.err().unwrap_or(ExitCode::SUCCESS)
}

fn cmd_trace(args: &Args) -> ExitCode {
    let scale = args.get("scale").unwrap_or("small").to_string();
    let seed = args.num("seed", 42u64);
    let slots = args.num("slots", 96usize);
    let trace = trace_cfg_for(&scale, seed, slots).generate();
    if args.has("csv") {
        print!("{}", trace_io::to_csv(&trace));
    } else if args.has("json") {
        println!("{}", trace_io::to_json(&trace).expect("serializable"));
    } else {
        let s = TraceStats::compute(&trace);
        println!("slots          {}", trace.num_slots());
        println!(
            "apps x edges   {} x {}",
            trace.num_apps(),
            trace.num_edges()
        );
        println!("total requests {}", s.total_requests);
        println!("peak/mean      {:.2}", s.peak_to_mean);
        println!("edge imbalance {:.2}", s.edge_imbalance);
        println!("edge gini      {:.3}", s.edge_gini);
        println!("(use --csv or --json to dump the full trace)");
    }
    ExitCode::SUCCESS
}

fn cmd_report(args: &Args) -> ExitCode {
    let Some(path) = args.operand() else {
        eprintln!("usage: birp report <run.jsonl>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let mut counts: std::collections::BTreeMap<String, u64> = Default::default();
    // Slots per (decide path, root-dive outcome), full solves per root
    // basis and per truncating budget, and skips per served floor, from
    // `birp.provenance`.
    let mut paths: std::collections::BTreeMap<(String, String), u64> = Default::default();
    let mut root_bases: std::collections::BTreeMap<String, u64> = Default::default();
    let mut budgets: std::collections::BTreeMap<String, u64> = Default::default();
    let mut floors: std::collections::BTreeMap<String, u64> = Default::default();
    let mut summary: Option<telemetry::TelemetrySummary> = None;
    let mut meta: Option<serde_json::Value> = None;
    let (mut records, mut unparsable) = (0u64, 0u64);
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else {
            unparsable += 1;
            continue;
        };
        records += 1;
        let name = v
            .get("name")
            .and_then(|n| n.as_str())
            .unwrap_or("<unnamed>")
            .to_string();
        // The final shutdown record carries the whole counter/histogram
        // snapshot; the last one wins if several runs appended.
        if name == "telemetry.summary" {
            if let Some(s) = v.get("summary") {
                summary = serde_json::from_value(s).ok();
            }
        }
        if name == "telemetry.meta" {
            meta = Some(v.clone());
        }
        if name == "birp.provenance" {
            let field = |k: &str| v.get(k).and_then(|f| f.as_str()).unwrap_or("-").to_string();
            *paths
                .entry((field("path"), field("root_dive")))
                .or_insert(0) += 1;
            match field("path").as_str() {
                "full_solve" => {
                    *root_bases.entry(field("root_basis")).or_insert(0) += 1;
                    *budgets.entry(field("budget")).or_insert(0) += 1;
                }
                "skip" => *floors.entry(field("floor")).or_insert(0) += 1,
                _ => {}
            }
        }
        *counts.entry(name).or_insert(0) += 1;
    }
    println!("{records} event records ({unparsable} unparsable lines)");
    if let Some(meta) = &meta {
        println!("\ncapture header:");
        print!("{}", telemetry::profile::render_meta(meta));
    }
    if !counts.is_empty() {
        let width = counts
            .keys()
            .map(|n| n.len())
            .max()
            .unwrap_or(0)
            .max("event".len());
        println!("\n{:<width$}  {:>8}", "event", "count");
        for (name, n) in &counts {
            println!("{name:<width$}  {n:>8}");
        }
    }
    if !paths.is_empty() {
        println!(
            "\n{:<14}  {:<9}  {:>8}",
            "decide path", "root dive", "slots"
        );
        for ((path, dive), n) in &paths {
            println!("{path:<14}  {dive:<9}  {n:>8}");
        }
    }
    for (key, unit, tally) in [
        ("root basis", "full solves", &root_bases),
        ("budget", "full solves", &budgets),
        ("skip floor", "skips", &floors),
    ] {
        if !tally.is_empty() {
            println!("\n{key:<10}  {unit:>11}");
            for (value, n) in tally {
                println!("{value:<10}  {n:>11}");
            }
        }
    }
    match &summary {
        Some(s) => {
            println!();
            print!("{}", telemetry::render_summary(s));
        }
        None => {
            println!("\n(no telemetry.summary record — the run may not have shut down cleanly)")
        }
    }
    ExitCode::SUCCESS
}

fn cmd_profile(args: &Args) -> ExitCode {
    use telemetry::profile;

    let Some(path) = args.operand() else {
        eprintln!("usage: birp profile <run.jsonl> [--out-dir DIR]");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let cap = profile::parse_capture(&text);

    if let Some(meta) = &cap.meta {
        println!("capture header:");
        print!("{}", profile::render_meta(meta));
        println!();
    }
    println!(
        "{} span record(s), max depth {}, {} provenance record(s), {} malformed line(s)",
        cap.spans.len(),
        profile::max_depth(&cap.spans),
        cap.provenance.len(),
        cap.malformed
    );
    if cap.spans.is_empty() {
        println!(
            "(no spans — capture at --log-level trace for per-wave/per-node \
             solver spans; decide/solve-level spans record at any level)"
        );
    }

    let input = std::path::Path::new(path);
    let stem = input
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "capture".to_string());
    let out_dir = args
        .get("out-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            input
                .parent()
                .unwrap_or(std::path::Path::new("."))
                .to_path_buf()
        });
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    for (suffix, contents) in [
        (".chrome.json", profile::chrome_trace(&cap.spans)),
        (".folded.txt", profile::collapsed_stacks(&cap.spans)),
    ] {
        let out = out_dir.join(format!("{stem}{suffix}"));
        if let Err(e) = std::fs::write(&out, contents) {
            eprintln!("cannot write {}: {e}", out.display());
            return ExitCode::from(1);
        }
        println!("wrote {}", out.display());
    }

    if !cap.provenance.is_empty() {
        println!("\nper-slot decision provenance:");
        print!("{}", profile::provenance_table(&cap.provenance));
    }
    let summary: Option<telemetry::TelemetrySummary> = cap
        .summary
        .as_ref()
        .and_then(|v| v.get("summary"))
        .and_then(|s| serde_json::from_value(s).ok());
    if let Some(table) = summary.as_ref().and_then(profile::kernel_table) {
        println!("\nsimplex kernel time (trace-level timers, every LP solve):");
        print!("{table}");
    }
    ExitCode::SUCCESS
}

fn cmd_bench_diff(args: &Args) -> ExitCode {
    use birp_bench::diff;

    let Some(bench_out) = args.get("solver-bench") else {
        eprintln!(
            "bench-diff needs a fresh measurement: --solver-bench <captured \
             `cargo bench -p birp-bench --bench solver_micro` output>"
        );
        return ExitCode::from(2);
    };
    let tolerance = args.num("tolerance", 2.0f64);
    let baseline_path = args.get("baseline-solver").unwrap_or("BENCH_solver.json");
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| eprintln!("cannot read {path}: {e}"))
    };
    let (Ok(bench_text), Ok(baseline_text)) = (read(bench_out), read(baseline_path)) else {
        return ExitCode::from(1);
    };
    let baseline = match diff::parse_solver_baseline(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{baseline_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let measured = diff::parse_criterion_output(&bench_text);
    if measured.is_empty() {
        eprintln!("{bench_out}: no `bench <name> <ns> ns/iter` lines found");
        return ExitCode::from(1);
    }
    let report = diff::compare(&baseline, &measured, tolerance);
    println!("solver_micro vs {baseline_path} (tolerance {tolerance}x):");
    print!("{}", report.render());
    if report.failed() {
        eprintln!("\nperf regression gate FAILED (see REGRESSED rows above)");
        ExitCode::from(1)
    } else {
        println!("\nperf regression gate passed");
        ExitCode::SUCCESS
    }
}

fn cmd_conformance(args: &Args) -> ExitCode {
    use birp_conformance::golden::{check_all, update_all, GoldenStatus};

    if args.has("update-golden") {
        return match update_all() {
            Ok(paths) => {
                for p in &paths {
                    println!("wrote {}", p.display());
                }
                println!(
                    "{} snapshot(s) regenerated — review and commit the diff",
                    paths.len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write golden snapshots: {e}");
                ExitCode::from(1)
            }
        };
    }

    // Optional differential smoke against the brute-force oracle.
    if args.get("oracle").is_some() {
        let n = args.num("oracle", 0usize);
        let seed = args.num("seed", 42u64);
        let mut rng = proptest::TestRng::from_name(&format!("birp-conformance-cli-{seed}"));
        let cfg = SolverConfig {
            node_limit: 50_000,
            rel_gap: 1e-9,
            ..SolverConfig::default()
        };
        for case in 0..n {
            let inst = birp_conformance::sample_tiny_instance(&mut rng);
            let oracle = birp_conformance::oracle_report(&inst);
            let stats = match inst.problem().solve(&cfg) {
                Ok((_, stats)) => stats,
                Err(e) => {
                    eprintln!("case {case}: solver error {e:?}");
                    return ExitCode::from(1);
                }
            };
            let tol = 1e-6 * (1.0 + oracle.objective.abs());
            if (stats.objective - oracle.objective).abs() > tol {
                eprintln!(
                    "case {case}: MISMATCH solver {} vs oracle {}",
                    stats.objective, oracle.objective
                );
                return ExitCode::from(1);
            }
        }
        println!("oracle differential: {n} tiny instance(s) matched");
    }

    // Default action: bitwise golden check.
    let mut drifted = false;
    for (sc, status) in check_all() {
        match status {
            GoldenStatus::Match => println!("{:<20} match", sc.name),
            GoldenStatus::Missing => {
                println!("{:<20} MISSING (run with --update-golden)", sc.name);
                drifted = true;
            }
            GoldenStatus::Drift { first_diff_line } => {
                println!("{:<20} DRIFT at line {first_diff_line}", sc.name);
                drifted = true;
            }
        }
    }
    if drifted {
        eprintln!(
            "golden drift — if intentional, regenerate with `birp conformance --update-golden`"
        );
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        return usage();
    };
    // `repro` takes its figure, which decides its flags, first.
    let Some((operands, flags)) = command_spec(cmd, rest.first().map(String::as_str)) else {
        return usage();
    };
    let args = match Args::parse(rest, operands, &flags) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("birp {cmd}: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = args.get("telemetry") {
        let level = args.get("log-level").map_or(telemetry::Level::Debug, |l| {
            telemetry::Level::parse(l).expect("Args::parse checks --log-level")
        });
        // Stamp the capture with its invocation so the file is
        // self-describing (`birp report`/`profile` print this header).
        let meta = telemetry::RunMeta {
            command: format!("birp {}", raw.join(" ")),
            config_fingerprint: telemetry::fingerprint_args(&raw),
        };
        if let Err(e) = telemetry::init_jsonl_with_meta(path, level, meta) {
            eprintln!("cannot open telemetry sink {path}: {e}");
            return ExitCode::from(1);
        }
    }
    let code = match cmd.as_str() {
        "run" => cmd_run(&args),
        "resume" => cmd_resume(&args),
        "chaos" => cmd_chaos(&args),
        "resilience" => cmd_resilience(&args),
        "repro" => cmd_repro(&args),
        "trace" => cmd_trace(&args),
        "report" => cmd_report(&args),
        "profile" => cmd_profile(&args),
        "bench-diff" => cmd_bench_diff(&args),
        "conformance" => cmd_conformance(&args),
        _ => unreachable!("command_spec admits only the commands above"),
    };
    // Flush + append the telemetry.summary record (no-op when disabled).
    telemetry::shutdown();
    code
}
