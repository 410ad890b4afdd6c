//! Whole-run wall-clock overhead of durable checkpoints (DESIGN.md §12).
//!
//! Runs the Fig. 7 large-scale workload (24 slots, ~10 ms of decide per
//! slot) through `run_scheduler_resumable` as `PAIRS` back-to-back pairs,
//! plain and with a `--checkpoint-every 10` policy writing to a scratch
//! file, alternating which side of a pair runs first. Checkpoint snapshots
//! are taken between slots, outside `decide`, so only whole-run wall clock
//! sees them. The large scale is the production-shaped denominator: the
//! small-scale slots are sub-ms and would measure the fixed per-save cost
//! against almost no work.
//!
//! Prints the median per-pair overhead and the plain runs' interquartile
//! range, and exits 1 when the median exceeds the 3% bound. It writes no
//! record and has no baseline: the bound is absolute.
//!
//! `cargo bench -p birp-bench --bench checkpoint_overhead`

use std::time::Instant;

use birp_bench::overhead;
use birp_core::{run_scheduler_resumable, Birp, CheckpointPolicy, RunConfig, RunOutcome};
use birp_mab::MabConfig;
use birp_models::Catalog;
use birp_solver::SolverConfig;
use birp_workload::{Trace, TraceConfig};

const SEED: u64 = 42;
/// Two periodic saves at `every: 10` land inside the horizon.
const SLOTS: usize = 24;
const EVERY: usize = 10;
const PAIRS: usize = 30;
/// DESIGN.md §12.
const BOUND_PCT: f64 = 3.0;

/// One full run, optionally checkpointing; returns wall ms per slot.
fn run_once(catalog: &Catalog, trace: &Trace, policy: Option<&CheckpointPolicy>) -> f64 {
    let mut scheduler = Birp::new(catalog.clone(), MabConfig::paper_preset())
        .with_solver(SolverConfig::scheduling());
    let start = Instant::now();
    let outcome = run_scheduler_resumable(
        catalog,
        trace,
        &mut scheduler,
        &RunConfig::default(),
        policy,
        None,
        None,
    )
    .expect("bench run cannot fail to checkpoint to a scratch file");
    assert!(matches!(outcome, RunOutcome::Complete(_)));
    start.elapsed().as_secs_f64() * 1e3 / trace.num_slots() as f64
}

fn main() {
    // `cargo bench` passes harness flags (e.g. --bench); they are ignored.
    let catalog = Catalog::large_scale(SEED);
    let trace = TraceConfig {
        num_slots: SLOTS,
        ..TraceConfig::large_scale(SEED)
    }
    .generate();
    let path = std::env::temp_dir().join(format!("birp-bench-ckpt-{}", std::process::id()));
    let policy = CheckpointPolicy {
        path: path.clone(),
        every: EVERY,
        spec: Default::default(),
    };

    run_once(&catalog, &trace, None); // warm-up
    let pairs: Vec<(f64, f64)> = (0..PAIRS)
        .map(|i| {
            if i % 2 == 0 {
                let plain = run_once(&catalog, &trace, None);
                (plain, run_once(&catalog, &trace, Some(&policy)))
            } else {
                let ckpt = run_once(&catalog, &trace, Some(&policy));
                (run_once(&catalog, &trace, None), ckpt)
            }
        })
        .collect();
    let _ = std::fs::remove_file(&path);

    let v = overhead::verdict(&pairs, BOUND_PCT);
    println!(
        "--- checkpoint overhead (Fig. 7 large scale, {SLOTS} slots, \
         --checkpoint-every {EVERY}, {PAIRS} pairs) ---"
    );
    println!(
        "plain      median wall {:.3} ms/slot, interquartile range {:.1}%",
        v.plain_median, v.plain_iqr_pct
    );
    println!(
        "overhead   median {:.1}% per pair (bound: <= {BOUND_PCT}%)",
        v.median_overhead_pct
    );
    if !v.passed() {
        eprintln!("checkpoint overhead FAILED: median above the {BOUND_PCT}% bound");
        std::process::exit(1);
    }
}
