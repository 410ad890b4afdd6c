//! `birp` — command-line front end for the BIRP reproduction.
//!
//! ```text
//! birp run        [--scale small|large] [--slots N] [--seed S] [--scheduler birp|birp-off|oaei|max]
//!                 [--faults plan.json] [--resilience on|off] [--dense-simplex]
//!                 [--checkpoint run.ckpt] [--checkpoint-every N] [--out result.json]
//! birp resume     <run.ckpt> [--checkpoint-every N] [--out result.json]
//! birp chaos      [--slots N] [--seed S] [--kills N] [--out report.json]
//! birp compare    [--scale small|large] [--slots N] [--seed S] [--faults plan.json] [--resilience on|off]
//!                 [--dense-simplex]
//! birp resilience [--slots N] [--seed S] [--smoke] [--out result.json]
//! birp sweep      [--slots N] [--seed S]
//! birp table1     [--windows N] [--seed S]
//! birp fig2       [--reps N] [--seed S]
//! birp trace      [--scale small|large] [--slots N] [--seed S] [--csv|--json]
//! birp report     <run.jsonl>
//! birp profile    <run.jsonl> [--out-dir DIR]
//! birp bench-diff [--solver-bench out.txt] [--runner-json new.json] [--tolerance X]
//! birp conformance [--check] [--update-golden] [--oracle N] [--seed S]
//! ```
//!
//! `--faults` loads a serialized [`birp_sim::FaultPlan`] (outages,
//! degradations, link faults, flaky edges) into the executor; `--resilience
//! on` enables the failure detector / quarantine-and-reroute layer
//! (DESIGN.md §10). `birp resilience` runs the canned three-way
//! BIRP ± resilience experiment and optionally writes its JSON record.
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
//! perf-regression gate against the committed `BENCH_*.json` baselines.
//!
//! Naming note: `birp trace` dumps a synthetic *workload* trace (demand per
//! slot). Telemetry captures — execution traces — are produced by
//! `--telemetry` and consumed by `report`/`profile`.
//!
//! Argument parsing is hand-rolled over `std::env::args` — the workspace
//! deliberately keeps its dependency set to the paper-relevant crates
//! (DESIGN.md, dependency section).

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use birp_telemetry as telemetry;

use birp_core::experiments::{
    chaos_experiment, compare_schedulers, epsilon_sweep, fig2_experiment, resilience_experiment,
    table1_experiment, ChaosConfig, ComparisonConfig, ResilienceConfig, SchedulerKind, SweepConfig,
};
use birp_core::{
    checkpoint, run_scheduler, run_scheduler_resumable, CheckpointPolicy, HealthConfig, RunConfig,
    RunOutcome, RunResult, TemporalReuse,
};
use birp_mab::MabConfig;
use birp_models::Catalog;
use birp_solver::simplex::SimplexMode;
use birp_solver::SolverConfig;
use birp_workload::{io as trace_io, TraceConfig, TraceStats};
use serde::{Deserialize, Serialize, Value};

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
    dense_simplex: bool,
    /// The serialized [`birp_sim::FaultPlan`] (inlined: the plan file may
    /// not exist anymore at resume time).
    faults: Value,
}

struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(name) = a.strip_prefix("--") {
                if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                    flags.insert(name.to_string(), raw[i + 1].clone());
                    i += 2;
                } else {
                    switches.push(name.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Args { flags, switches }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
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
    birp compare    [--scale small|large] [--slots N] [--seed S]
    birp resilience [--slots N] [--seed S] [--smoke] [--out result.json]
    birp sweep      [--slots N] [--seed S]
    birp table1     [--windows N] [--seed S]
    birp fig2       [--reps N] [--seed S]
    birp trace      [--scale small|large] [--slots N] [--seed S] [--csv] [--json]
                    (dumps the synthetic *workload* trace; for telemetry/execution
                    traces see --telemetry with `report` / `profile` below)
    birp report     <run.jsonl>
    birp profile    <run.jsonl> [--out-dir DIR]
    birp bench-diff [--solver-bench out.txt] [--runner-json new.json] [--tolerance X]
    birp conformance [--check] [--update-golden] [--oracle N] [--seed S]

CONFORMANCE:
    --check          diff golden-trace replays bitwise against tests/golden/ (default; exit 1 on drift)
    --update-golden  regenerate the committed snapshots from the current implementation
    --oracle N       differentially check N random tiny instances against the brute-force oracle

ROBUSTNESS (run / compare):
    --faults <plan.json>       inject a serialized FaultPlan into the executor
    --resilience on|off        failure detector + quarantine-and-reroute (default: off)
    --no-reuse                 disable cross-slot temporal reuse (warm-start install,
                               heuristic-regime skip, and the incremental delta path —
                               every slot rebuilds its model from scratch) in the MILP
                               schedulers
    --dense-simplex            force the dense tableau simplex core instead of the
                               sparse revised core (A/B validation and triage)

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

BENCH-DIFF (perf-regression gate):
    --solver-bench <out.txt>   captured `cargo bench -p birp-bench --bench
                               solver_micro` output, diffed vs BENCH_solver.json
    --runner-json <new.json>   regenerated runner_decide record (use
                               BIRP_BENCH_RUNNER_OUT), diffed vs BENCH_runner.json
    --baseline-solver <path>   committed solver baseline (default BENCH_solver.json)
    --baseline-runner <path>   committed runner baseline (default BENCH_runner.json)
    --tolerance <X>            fail when measured > baseline * X (default 2.0)
"
    );
    ExitCode::from(2)
}

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
    match args.get("resilience") {
        Some("on") => run.resilience = Some(HealthConfig::default()),
        Some("off") | None => {}
        Some(other) => {
            eprintln!("--resilience takes on|off, got '{other}'");
            return Err(ExitCode::from(2));
        }
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

fn solver_for(scale: &str, dense_simplex: bool) -> SolverConfig {
    let mut solver = if scale == "large" {
        SolverConfig {
            node_limit: 16,
            ..SolverConfig::scheduling()
        }
    } else {
        SolverConfig::scheduling()
    };
    if dense_simplex {
        solver.simplex.mode = SimplexMode::Dense;
    }
    solver
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
            if let Some(out) = args.get("out") {
                let json = serde_json::to_string_pretty(&*result).expect("serializable");
                if let Err(e) = std::fs::write(out, json) {
                    eprintln!("cannot write {out}: {e}");
                    return ExitCode::from(1);
                }
                println!("wrote {out}");
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

/// The sharding flags, removed with the sharded decide (DESIGN.md §14), as
/// the keys earlier checkpoints stored them under in their run spec; each
/// flag is its key with `-` for `_`.
const REMOVED_SHARD_KEYS: [&str; 2] = ["shards", "cluster_size"];

fn cmd_run(args: &Args) -> ExitCode {
    for key in REMOVED_SHARD_KEYS {
        let flag = key.replace('_', "-");
        if args.get(&flag).is_some() || args.has(&flag) {
            eprintln!(
                "--{flag} was removed with the sharded decide (DESIGN.md §14); \
                 every slot is one monolithic solve"
            );
            return ExitCode::from(2);
        }
    }
    let scale = args.get("scale").unwrap_or("small").to_string();
    let seed = args.num("seed", 42u64);
    let slots = args.num("slots", 48usize);
    let catalog = catalog_for(&scale, seed);
    let trace = trace_cfg_for(&scale, seed, slots).generate();
    let scheduler_name = args.get("scheduler").unwrap_or("birp").to_string();
    let Some(kind) = parse_kind(&scheduler_name) else {
        eprintln!("unknown scheduler '{scheduler_name}'");
        return ExitCode::from(2);
    };
    let solver = solver_for(&scale, args.has("dense-simplex"));
    let mut run_cfg = RunConfig::default();
    if let Err(code) = apply_robustness(args, &mut run_cfg) {
        return code;
    }
    let mut scheduler = kind.build_with_reuse(
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
        if let Some(out) = args.get("out") {
            let json = serde_json::to_string_pretty(&result).expect("serializable");
            if let Err(e) = std::fs::write(out, json) {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::from(1);
            }
            println!("wrote {out}");
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
        dense_simplex: args.has("dense-simplex"),
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

fn cmd_resume(args: &Args, rest: &[String]) -> ExitCode {
    // First positional operand (skipping --flag value pairs).
    let mut path: Option<&str> = None;
    let mut i = 0;
    while i < rest.len() {
        if rest[i].starts_with("--") {
            i += 2;
        } else {
            path = Some(&rest[i]);
            break;
        }
    }
    let Some(path) = path else {
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
    // A run checkpointed under a sharding flag would resume here under
    // different decisions than it started with, so it is refused.
    for key in REMOVED_SHARD_KEYS {
        if let Some(n) = ck.spec.get(key).and_then(Value::as_u64).filter(|&n| n > 0) {
            eprintln!(
                "{path}: checkpoint was written by `birp run --{} {n}`, a flag removed with \
                 the sharded decide (DESIGN.md §14); this build cannot resume the run under \
                 the decisions it started with",
                key.replace('_', "-")
            );
            return ExitCode::from(1);
        }
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
    let solver = solver_for(&spec.scale, spec.dense_simplex);
    let mut scheduler = kind.build_with_reuse(
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
    if let Some(out) = args.get("out") {
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::from(1);
        }
        println!("wrote {out}");
    }
    if report.all_passed() {
        println!("\nchaos harness: every leg held");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nchaos harness: crash-safety contract BROKEN (see FAILED legs)");
        ExitCode::from(1)
    }
}

fn cmd_compare(args: &Args) -> ExitCode {
    let scale = args.get("scale").unwrap_or("small").to_string();
    let seed = args.num("seed", 42u64);
    let slots = args.num("slots", 48usize);
    let mut cfg = match scale.as_str() {
        "large" => ComparisonConfig::large_scale(seed, slots),
        _ => ComparisonConfig::small_scale(seed, slots),
    };
    if let Err(code) = apply_robustness(args, &mut cfg.run) {
        return code;
    }
    if args.has("dense-simplex") {
        cfg.solver.simplex.mode = SimplexMode::Dense;
    }
    let results = compare_schedulers(&cfg);
    println!(
        "{:<10} {:>12} {:>8} {:>9} {:>9}",
        "scheduler", "total loss", "p%", "served", "dropped"
    );
    for r in &results {
        let m = &r.run.metrics;
        println!(
            "{:<10} {:>12.1} {:>7.2}% {:>9} {:>9}",
            r.run.scheduler, m.total_loss, m.failure_rate_pct, m.served, m.dropped
        );
    }
    ExitCode::SUCCESS
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
    if let Some(out) = args.get("out") {
        let json = serde_json::to_string_pretty(&r).expect("serializable");
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::from(1);
        }
        println!("wrote {out}");
    }
    ExitCode::SUCCESS
}

fn cmd_sweep(args: &Args) -> ExitCode {
    let seed = args.num("seed", 42u64);
    let slots = args.num("slots", 48usize);
    let cfg = SweepConfig::quick(seed, slots);
    let result = epsilon_sweep(&cfg);
    println!(
        "{:>6} {:>6} {:>12} {:>8}",
        "eps1", "eps2", "dLoss(end)", "p%(end)"
    );
    for p in &result.points {
        let d = p.delta_loss.last().map_or(f64::NAN, |&(_, v)| v);
        let f = p.failure_pct.last().map_or(f64::NAN, |&(_, v)| v);
        println!("{:>6.2} {:>6.2} {:>12.2} {:>8.2}", p.eps1, p.eps2, d, f);
    }
    ExitCode::SUCCESS
}

fn cmd_table1(args: &Args) -> ExitCode {
    let seed = args.num("seed", 3u64);
    let windows = args.num("windows", 300usize);
    println!(
        "{:<10} {:<12} {:>7} {:>7} {:>9} {:>8}",
        "model", "device", "cpu%", "gpu%", "npucore%", "fps"
    );
    for r in table1_experiment(seed, windows) {
        println!(
            "{:<10} {:<12} {:>7.1} {:>7.1} {:>9.1} {:>8.1}",
            r.model,
            r.device,
            r.measured.cpu_pct,
            r.measured.gpu_pct,
            r.measured.npu_core_pct,
            r.measured.avg_fps
        );
    }
    ExitCode::SUCCESS
}

fn cmd_fig2(args: &Args) -> ExitCode {
    let seed = args.num("seed", 11u64);
    let reps = args.num("reps", 5usize);
    for r in fig2_experiment(seed, 16, reps) {
        println!(
            "{:<10} TIR = b^{:.2} (b <= {}), {:.2} beyond   [truth b^{:.2}, {}]",
            r.model, r.fit.params.eta, r.fit.params.beta, r.fit.params.c, r.truth.eta, r.truth.beta
        );
    }
    ExitCode::SUCCESS
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

fn cmd_report(rest: &[String]) -> ExitCode {
    // First positional operand (skipping --flag value pairs).
    let mut path: Option<&str> = None;
    let mut i = 0;
    while i < rest.len() {
        if rest[i].starts_with("--") {
            i += 2;
        } else {
            path = Some(&rest[i]);
            break;
        }
    }
    let Some(path) = path else {
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
    // Slots per (decide path, root-dive outcome), from `birp.provenance`.
    let mut paths: std::collections::BTreeMap<(String, String), u64> = Default::default();
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

fn cmd_profile(args: &Args, rest: &[String]) -> ExitCode {
    use telemetry::profile;

    // First positional operand (skipping --flag value pairs).
    let mut path: Option<&str> = None;
    let mut i = 0;
    while i < rest.len() {
        if rest[i].starts_with("--") {
            i += 2;
        } else {
            path = Some(&rest[i]);
            break;
        }
    }
    let Some(path) = path else {
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

    let tolerance = args.num("tolerance", 2.0f64);
    if tolerance <= 0.0 {
        eprintln!("--tolerance must be positive");
        return ExitCode::from(2);
    }
    let solver_bench = args.get("solver-bench");
    let runner_json = args.get("runner-json");
    if solver_bench.is_none() && runner_json.is_none() {
        eprintln!(
            "bench-diff needs a fresh measurement: --solver-bench <criterion-out.txt> \
             and/or --runner-json <regenerated BENCH_runner.json>"
        );
        return ExitCode::from(2);
    }

    let read = |path: &str| -> Result<String, ExitCode> {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("cannot read {path}: {e}");
            ExitCode::from(1)
        })
    };

    let mut failed = false;
    if let Some(bench_out) = solver_bench {
        let baseline_path = args.get("baseline-solver").unwrap_or("BENCH_solver.json");
        let (bench_text, baseline_text) = match (read(bench_out), read(baseline_path)) {
            (Ok(b), Ok(base)) => (b, base),
            (Err(c), _) | (_, Err(c)) => return c,
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
        failed |= report.failed();
    }
    if let Some(fresh) = runner_json {
        let baseline_path = args.get("baseline-runner").unwrap_or("BENCH_runner.json");
        let (fresh_text, baseline_text) = match (read(fresh), read(baseline_path)) {
            (Ok(f), Ok(base)) => (f, base),
            (Err(c), _) | (_, Err(c)) => return c,
        };
        let report = match (
            diff::parse_runner_record(&baseline_text),
            diff::parse_runner_record(&fresh_text),
        ) {
            (Ok(base), Ok(meas)) => diff::compare(&base, &meas, tolerance),
            (Err(e), _) => {
                eprintln!("{baseline_path}: {e}");
                return ExitCode::from(1);
            }
            (_, Err(e)) => {
                eprintln!("{fresh}: {e}");
                return ExitCode::from(1);
            }
        };
        println!("\nrunner_decide vs {baseline_path} (tolerance {tolerance}x):");
        print!("{}", report.render());
        failed |= report.failed();
        // Absolute bounds the fresh record carries for itself (checkpoint
        // overhead ≤ 3%) — near-zero percentages would make a baseline
        // ratio meaningless, so they gate on the measurement alone.
        match diff::runner_acceptance_failures(&fresh_text) {
            Ok(violations) => {
                for v in &violations {
                    println!("{v}  ABSOLUTE BOUND FAILED");
                }
                failed |= !violations.is_empty();
            }
            Err(e) => {
                eprintln!("{fresh}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if failed {
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
    if let Some(n) = args.get("oracle") {
        let n: usize = match n.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--oracle takes a case count, got '{n}'");
                return ExitCode::from(2);
            }
        };
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
    let Some(cmd) = raw.first().cloned() else {
        return usage();
    };
    let args = Args::parse(&raw[1..]);
    if let Some(path) = args.get("telemetry") {
        let level = args
            .get("log-level")
            .and_then(telemetry::Level::parse)
            .unwrap_or(telemetry::Level::Debug);
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
        "resume" => cmd_resume(&args, &raw[1..]),
        "chaos" => cmd_chaos(&args),
        "compare" => cmd_compare(&args),
        "resilience" => cmd_resilience(&args),
        "sweep" => cmd_sweep(&args),
        "table1" => cmd_table1(&args),
        "fig2" => cmd_fig2(&args),
        "trace" => cmd_trace(&args),
        "report" => cmd_report(&raw[1..]),
        "profile" => cmd_profile(&args, &raw[1..]),
        "bench-diff" => cmd_bench_diff(&args),
        "conformance" => cmd_conformance(&args),
        _ => usage(),
    };
    // Flush + append the telemetry.summary record (no-op when disabled).
    telemetry::shutdown();
    code
}
