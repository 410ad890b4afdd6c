//! The four scheduling algorithms of the paper's evaluation (Section 5.2).
//!
//! | scheduler | execution | TIR knowledge | solve method |
//! |-----------|-----------|---------------|--------------|
//! | [`Birp`] | batched | MAB-tuned LCB estimates (Eqs. 15–23) | MILP |
//! | [`BirpOff`] | batched | offline-profiled ground truth | MILP |
//! | [`Oaei`] | serial | — (learns latency online) | LP + randomised rounding |
//! | [`MaxBatch`] | batched at fixed `B0` | — | greedy |
//!
//! Two ablation variants beyond the paper's four:
//! [`Birp::without_lcb`] ("BIRP-MEAN") plans with raw running means instead
//! of lower-confidence bounds, and [`LocalOnly`] batches without ever
//! redistributing.

mod birp;
mod local;
mod max;
mod oaei;

pub use birp::{Birp, BirpOff, ShardConfig, TemporalReuse};
pub(crate) use local::greedy_local;
pub use local::LocalOnly;
pub use max::MaxBatch;
pub use oaei::Oaei;

use birp_sim::{Schedule, SlotOutcome};
use serde::{DeError, Value};

use crate::demand::DemandMatrix;

/// A per-slot decision maker.
pub trait Scheduler {
    /// Display name (used in experiment records and plots).
    fn name(&self) -> &'static str;

    /// Decide slot `t`'s schedule. `demand` includes requests carried over
    /// from earlier slots; `prev` is the previous slot's schedule (drives
    /// the model-transfer network term, paper Eqs. 13/14).
    fn decide(&mut self, t: usize, demand: &DemandMatrix, prev: Option<&Schedule>) -> Schedule;

    /// Feedback after the slot executed (observed TIRs, latencies).
    fn observe(&mut self, _outcome: &SlotOutcome) {}

    /// Exclude edges from planning (`mask[k] == true` ⇒ edge `k` deploys
    /// nothing and receives no redistributed work). Set by the runner's
    /// health monitor before each `decide`; `None` clears the mask. The
    /// default implementation ignores the mask, so mask-unaware schedulers
    /// keep their original behaviour.
    fn set_edge_mask(&mut self, _mask: Option<&[bool]>) {}

    /// Serializable snapshot of every piece of state this scheduler mutates
    /// across slots (learned estimates, caches, streaks, RNG position, the
    /// stored quarantine mask). The checkpoint layer persists it so
    /// [`import_state`](Self::import_state) on a freshly built scheduler
    /// resumes the exact decision trajectory. Stateless schedulers return
    /// [`Value::Null`], which imports as a no-op.
    fn export_state(&self) -> Value {
        Value::Null
    }

    /// Restore a snapshot produced by [`export_state`](Self::export_state)
    /// on a scheduler built with the *same* constructor parameters.
    /// `Value::Null` always succeeds (the stateless case).
    fn import_state(&mut self, state: &Value) -> Result<(), DeError> {
        if state.is_null() {
            Ok(())
        } else {
            Err(DeError::custom(format!(
                "{}: unexpected scheduler state (this scheduler is stateless)",
                self.name()
            )))
        }
    }
}

/// A safe fallback when a solver hiccups: serve nothing, carry everything.
pub(crate) fn all_unserved(t: usize, demand: &DemandMatrix) -> Schedule {
    let mut s = Schedule::empty(t, demand.num_apps(), demand.num_edges());
    for i in 0..demand.num_apps() {
        for k in 0..demand.num_edges() {
            s.unserved[i][k] = demand.get(birp_models::AppId(i), birp_models::EdgeId(k));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use birp_models::{AppId, EdgeId};

    #[test]
    fn all_unserved_balances_demand() {
        let mut d = DemandMatrix::zeros(2, 3);
        d.set(AppId(0), EdgeId(1), 7);
        d.set(AppId(1), EdgeId(2), 3);
        let s = all_unserved(5, &d);
        assert_eq!(s.t, 5);
        assert_eq!(s.total_unserved(), 10);
        assert_eq!(s.served(), 0);
        assert_eq!(s.unserved[0][1], 7);
        assert_eq!(s.unserved[1][2], 3);
    }
}
