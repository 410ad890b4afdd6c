//! # birp-core
//!
//! The BIRP scheduler and its comparison baselines — the paper's primary
//! contribution (Sections 3–4), built on the substrate crates:
//!
//! * [`problem`] — the per-slot optimisation problem `P1^t` / `P2^t`
//!   (paper Section 4.1): decision variables `x`, `b`, `y`, the memory /
//!   compute / network constraints with the Taylor-linearised TIR term
//!   (Eq. 24/25), lowered to a [`birp_solver::Model`] and decoded back into
//!   a [`birp_sim::Schedule`],
//! * [`schedulers`] — the four algorithms of Section 5.2:
//!   [`schedulers::Birp`] (MAB-tuned, batch-aware),
//!   [`schedulers::BirpOff`] (oracle TIR, no tuning),
//!   [`schedulers::Oaei`] (serial, model-selection, online latency
//!   learning plus randomised rounding) and [`schedulers::MaxBatch`]
//!   (fixed large batches),
//! * [`runner`] — drives a scheduler over a trace slot by slot, with
//!   carry-over of unserved requests, full metric collection, per-slot
//!   panic isolation, and opt-in durable checkpointing,
//! * [`checkpoint`] — the versioned, checksummed on-disk checkpoint format
//!   and its typed load/parse errors (DESIGN.md §12),
//! * [`health`] — outcome-only failure detection: per-edge suspicion
//!   scores, quarantine-and-probe state machine (DESIGN.md §10); the
//!   runner uses it to mask failed edges out of planning,
//! * [`experiments`] — one entry point per paper table/figure, producing
//!   serialisable result records the bench harness prints.

pub mod checkpoint;
pub mod demand;
pub mod experiments;
pub mod health;
pub mod problem;
pub mod runner;
pub mod schedulers;

pub use checkpoint::{ResumeError, RunCheckpoint};
pub use demand::DemandMatrix;
pub use health::{HealthConfig, HealthMonitor, HealthState, QuarantineEvent};
pub use problem::{
    DeltaOutcome, DeltaSummary, ExecutionMode, ProblemConfig, RebuildReason, ReuseOutcome,
    SlotDelta, SlotInputs, SlotProblem, TirMatrix,
};
pub use runner::{
    run_scheduler, run_scheduler_resumable, CheckpointPolicy, RunConfig, RunOutcome, RunResult,
    RunnerCheckpoint,
};
pub use schedulers::{
    Birp, BirpOff, LocalOnly, MaxBatch, Oaei, Scheduler, ShardConfig, TemporalReuse,
};
