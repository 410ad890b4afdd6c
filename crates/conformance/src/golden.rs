//! Golden-trace replay.
//!
//! Each scenario runs a real scheduler through the real runner on a fixed
//! catalog + trace and serialises what happened — one canonical JSON line
//! per slot (the decision) plus one summary line (the run metrics) — into
//! `tests/golden/<name>.jsonl`. The committed snapshots are the contract:
//! `check_all` (wired to `birp conformance --check` and CI) diffs replays
//! against them **bitwise**, so any behavioural drift in the solver, the
//! schedulers, the simulator or the workload generator fails loudly and
//! shows up as a reviewable text diff. Intentional changes regenerate via
//! `birp conformance --update-golden`.
//!
//! Bitwise stability holds because the whole stack is deterministic: the
//! trace generator and simulator draw from counter-derived seeded streams,
//! the MAB uses deterministic lower-confidence bounds, and the branch and
//! bound resolves ties identically even in parallel mode. Floats are
//! printed with a fixed `{:.6}` format (not a shortest-repr algorithm) to
//! keep the byte encoding platform-independent.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use birp_core::{run_scheduler, Birp, BirpOff, DemandMatrix, RunConfig, Scheduler, TemporalReuse};
use birp_mab::MabConfig;
use birp_models::{AppId, Catalog, EdgeId};
use birp_sim::{Schedule, SlotOutcome};
use birp_workload::TraceConfig;

/// Which scheduler a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// BIRP with MAB-estimated TIRs (paper preset).
    Birp,
    /// BIRP with offline ground-truth TIRs.
    BirpOff,
}

/// One replayable scenario: everything needed to reproduce a run bit for
/// bit.
#[derive(Debug, Clone)]
pub struct GoldenScenario {
    /// Snapshot file stem under `tests/golden/`.
    pub name: &'static str,
    pub scheduler: SchedulerKind,
    pub seed: u64,
    pub num_slots: usize,
    pub mean_rate: f64,
    /// Cross-slot temporal reuse (DESIGN.md §11). The pre-reuse scenarios
    /// pin this off so their snapshots stay byte-identical to the era they
    /// were recorded in; the `-reuse` variants run the reuse path and catch
    /// drift in the warm-start install / schedule-cache machinery.
    pub reuse: bool,
}

/// The committed scenario set. Short horizons keep the snapshots reviewable
/// and the replay fast enough for every CI run; the scenarios cover both
/// MILP schedulers (learned and ground-truth TIRs) on distinct seeds, each
/// with temporal reuse off (the original contract) and on.
pub fn scenarios() -> Vec<GoldenScenario> {
    vec![
        GoldenScenario {
            name: "small-birpoff-s42",
            scheduler: SchedulerKind::BirpOff,
            seed: 42,
            num_slots: 8,
            mean_rate: 6.0,
            reuse: false,
        },
        GoldenScenario {
            name: "small-birp-s7",
            scheduler: SchedulerKind::Birp,
            seed: 7,
            num_slots: 6,
            mean_rate: 5.0,
            reuse: false,
        },
        GoldenScenario {
            name: "small-birpoff-s42-reuse",
            scheduler: SchedulerKind::BirpOff,
            seed: 42,
            num_slots: 8,
            mean_rate: 6.0,
            reuse: true,
        },
        GoldenScenario {
            name: "small-birp-s7-reuse",
            scheduler: SchedulerKind::Birp,
            seed: 7,
            num_slots: 6,
            mean_rate: 5.0,
            reuse: true,
        },
        // Recorded through the sharded decide (DESIGN.md §14), whose every
        // decision was its monolithic fallback: the reuse-off decide, which
        // replays it byte for byte. The name, which the snapshot embeds,
        // is kept.
        GoldenScenario {
            name: "small-birpoff-s11-shard",
            scheduler: SchedulerKind::BirpOff,
            seed: 11,
            num_slots: 6,
            mean_rate: 5.0,
            reuse: false,
        },
    ]
}

/// Wraps a scheduler, appending one canonical JSON line per `decide` call
/// while delegating everything (including mask plumbing and MAB feedback)
/// unchanged, so the recorded run is byte-identical in behaviour to an
/// unrecorded one.
struct RecordingScheduler<S: Scheduler> {
    inner: S,
    catalog: Catalog,
    lines: Vec<String>,
}

impl<S: Scheduler> Scheduler for RecordingScheduler<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, t: usize, demand: &DemandMatrix, prev: Option<&Schedule>) -> Schedule {
        let schedule = self.inner.decide(t, demand, prev);
        let out: u64 = (0..self.catalog.num_apps())
            .flat_map(|i| (0..self.catalog.num_edges()).map(move |k| (i, k)))
            .map(|(i, k)| schedule.routing.outbound(AppId(i), EdgeId(k)) as u64)
            .sum();
        let mut deploys = String::new();
        for (e, ds) in schedule.deployments.iter().enumerate() {
            let mut ds: Vec<_> = ds.clone();
            ds.sort_by_key(|d| d.model.index());
            for d in ds {
                if !deploys.is_empty() {
                    deploys.push(';');
                }
                let _ = write!(deploys, "e{}:m{}b{}", e, d.model.index(), d.batch);
            }
        }
        self.lines.push(format!(
            "{{\"t\":{},\"demand\":{},\"served\":{},\"unserved\":{},\"out\":{},\"deploys\":\"{}\",\"loss\":{:.6}}}",
            t,
            demand.total(),
            schedule.served(),
            schedule.total_unserved(),
            out,
            deploys,
            schedule.loss(&self.catalog),
        ));
        schedule
    }

    fn observe(&mut self, outcome: &SlotOutcome) {
        self.inner.observe(outcome);
    }

    fn set_edge_mask(&mut self, mask: Option<&[bool]>) {
        self.inner.set_edge_mask(mask);
    }
}

/// Replay a scenario and return its canonical JSONL (per-slot lines + one
/// summary line, each `\n`-terminated).
pub fn replay(sc: &GoldenScenario) -> String {
    let catalog = Catalog::small_scale(sc.seed);
    let trace = TraceConfig {
        num_slots: sc.num_slots,
        mean_rate: sc.mean_rate,
        ..TraceConfig::small_scale(sc.seed)
    }
    .generate();
    let reuse = if sc.reuse {
        TemporalReuse::default()
    } else {
        TemporalReuse::disabled()
    };
    let inner = match sc.scheduler {
        SchedulerKind::Birp => AnyScheduler::Birp(
            Birp::new(catalog.clone(), MabConfig::paper_preset()).with_reuse(reuse),
        ),
        SchedulerKind::BirpOff => {
            AnyScheduler::BirpOff(BirpOff::new(catalog.clone()).with_reuse(reuse))
        }
    };
    let mut rec = RecordingScheduler {
        inner,
        catalog: catalog.clone(),
        lines: Vec::new(),
    };
    let result = run_scheduler(&catalog, &trace, &mut rec, &RunConfig::default());

    let mut body = String::new();
    for line in &rec.lines {
        body.push_str(line);
        body.push('\n');
    }
    let _ = writeln!(
        body,
        "{{\"scenario\":\"{}\",\"scheduler\":\"{}\",\"slots\":{},\"offered\":{},\"served\":{},\"dropped\":{},\"total_loss\":{:.6}}}",
        sc.name,
        result.scheduler,
        result.slots,
        result.offered,
        result.metrics.served,
        result.metrics.dropped,
        result.metrics.total_loss,
    );
    body
}

// The orphan rule forbids `impl Scheduler for Box<dyn Scheduler>` here, so
// the two scenario schedulers dispatch through a local enum instead.
enum AnyScheduler {
    Birp(Birp),
    BirpOff(BirpOff),
}

impl Scheduler for AnyScheduler {
    fn name(&self) -> &'static str {
        match self {
            AnyScheduler::Birp(s) => s.name(),
            AnyScheduler::BirpOff(s) => s.name(),
        }
    }
    fn decide(&mut self, t: usize, demand: &DemandMatrix, prev: Option<&Schedule>) -> Schedule {
        match self {
            AnyScheduler::Birp(s) => s.decide(t, demand, prev),
            AnyScheduler::BirpOff(s) => s.decide(t, demand, prev),
        }
    }
    fn observe(&mut self, outcome: &SlotOutcome) {
        match self {
            AnyScheduler::Birp(s) => s.observe(outcome),
            AnyScheduler::BirpOff(s) => s.observe(outcome),
        }
    }
    fn set_edge_mask(&mut self, mask: Option<&[bool]>) {
        match self {
            AnyScheduler::Birp(s) => s.set_edge_mask(mask),
            AnyScheduler::BirpOff(s) => s.set_edge_mask(mask),
        }
    }
}

/// The committed snapshot directory (inside this crate, so both `cargo
/// test` and the CLI resolve it irrespective of the working directory).
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Outcome of checking one scenario against its snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenStatus {
    /// Replay is byte-identical to the snapshot.
    Match,
    /// Replay differs; holds the first differing 1-based line number.
    Drift { first_diff_line: usize },
    /// No snapshot committed yet.
    Missing,
}

/// Replay every scenario and diff it bitwise against its committed
/// snapshot.
pub fn check_all() -> Vec<(GoldenScenario, GoldenStatus)> {
    scenarios()
        .into_iter()
        .map(|sc| {
            let path = golden_dir().join(format!("{}.jsonl", sc.name));
            let status = match std::fs::read_to_string(&path) {
                Err(_) => GoldenStatus::Missing,
                Ok(want) => {
                    let got = replay(&sc);
                    if got == want {
                        GoldenStatus::Match
                    } else {
                        let first_diff_line = got
                            .lines()
                            .zip(want.lines())
                            .position(|(a, b)| a != b)
                            .map(|i| i + 1)
                            .unwrap_or_else(|| got.lines().count().min(want.lines().count()) + 1);
                        GoldenStatus::Drift { first_diff_line }
                    }
                }
            };
            (sc, status)
        })
        .collect()
}

/// Regenerate every snapshot from the current implementation. Returns the
/// written paths.
pub fn update_all() -> std::io::Result<Vec<PathBuf>> {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir)?;
    let mut written = Vec::new();
    for sc in scenarios() {
        let path = dir.join(format!("{}.jsonl", sc.name));
        std::fs::write(&path, replay(&sc))?;
        written.push(path);
    }
    Ok(written)
}
