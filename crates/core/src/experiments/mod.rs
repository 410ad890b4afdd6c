//! One entry point per paper table / figure.
//!
//! Every function returns a serialisable record; `birp repro <figure>` (the
//! `birp-cli` crate) prints them as the rows/series the paper reports, and
//! the integration tests assert the qualitative claims on scaled-down runs.
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`table1`] | Table 1 — serial utilisation + FPS |
//! | [`fig2`] | Fig. 2 — TIR raw data + piecewise fits |
//! | [`sweep`] | Figs. 4 & 5 — (eps1, eps2) grids of ΔLoss and p% |
//! | [`comparison`] | Figs. 6 & 7 — CDF / per-slot loss / cumulative loss |
//! | [`resilience`] | DESIGN.md §10 — BIRP ± resilience under a canned fault plan |
//! | [`chaos`] | DESIGN.md §12 — failure-injection legs over the durability layer |

pub mod chaos;
pub mod comparison;
pub mod fig2;
pub mod resilience;
pub mod sweep;
pub mod table1;

pub use chaos::{chaos_experiment, ChaosConfig, ChaosLeg, ChaosReport};
pub use comparison::{compare_schedulers, ComparisonConfig, ComparisonResult, SchedulerKind};
pub use fig2::{fig2_experiment, Fig2Result};
pub use resilience::{resilience_experiment, ResilienceConfig, ResilienceResult, RunSummary};
pub use sweep::{epsilon_sweep, SweepConfig, SweepPoint, SweepResult};
pub use table1::{table1_experiment, Table1Result};
