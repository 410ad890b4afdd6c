//! Verdict of the `checkpoint_overhead` bench: paired wall-clock timings of
//! the same run without and with durable checkpoints, reduced to the median
//! per-pair overhead and the spread of the plain runs.
//!
//! Each pair is timed back to back, so a slow patch of the host inflates
//! both sides of one pair and cancels in its ratio; the median over pairs
//! then drops the pairs a noise spike hit on one side only. The plain runs'
//! interquartile range, as a percent of their median, says how much the
//! host itself wanders: when it exceeds the bound, a verdict within the
//! bound is not resolved by this host.

/// Reduced timings of one bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Median of the per-pair overheads `(checkpointed / plain - 1) * 100`.
    pub median_overhead_pct: f64,
    /// Median plain run time (the unit the caller timed in).
    pub plain_median: f64,
    /// Interquartile range of the plain runs, percent of their median.
    pub plain_iqr_pct: f64,
    /// The bound the median overhead must not exceed, percent.
    pub bound_pct: f64,
}

impl Verdict {
    /// True when the median overhead is within the bound.
    pub fn passed(&self) -> bool {
        self.median_overhead_pct <= self.bound_pct
    }
}

/// Reduce `(plain, checkpointed)` timing pairs against `bound_pct`. The
/// order of the pairs does not matter. Panics on no pairs or a non-positive
/// plain time.
pub fn verdict(pairs: &[(f64, f64)], bound_pct: f64) -> Verdict {
    assert!(!pairs.is_empty(), "no timing pairs");
    assert!(
        pairs.iter().all(|&(plain, _)| plain > 0.0),
        "plain run times must be positive: {pairs:?}"
    );
    let mut overhead: Vec<f64> = pairs
        .iter()
        .map(|&(plain, ckpt)| (ckpt / plain - 1.0) * 100.0)
        .collect();
    let mut plain: Vec<f64> = pairs.iter().map(|&(p, _)| p).collect();
    overhead.sort_by(f64::total_cmp);
    plain.sort_by(f64::total_cmp);
    let plain_median = quantile(&plain, 0.5);
    Verdict {
        median_overhead_pct: quantile(&overhead, 0.5),
        plain_median,
        plain_iqr_pct: (quantile(&plain, 0.75) - quantile(&plain, 0.25)) / plain_median * 100.0,
        bound_pct,
    }
}

/// Linearly interpolated `q`-quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pair per overhead in `pct`, the plain runs at 96, 97, ... ms.
    fn pairs_with_overheads(pct: &[f64]) -> Vec<(f64, f64)> {
        pct.iter()
            .enumerate()
            .map(|(i, p)| {
                let plain = 96.0 + i as f64;
                (plain, plain * (1.0 + p / 100.0))
            })
            .collect()
    }

    #[test]
    fn inside_the_bound_passes() {
        let v = verdict(
            &pairs_with_overheads(&[1.0, 2.0, 0.5, 40.0, 1.5, 2.5, 1.0, 2.0, 0.0, 1.0]),
            3.0,
        );
        // Sorted overheads 0, 0.5, 1, 1, 1, 1.5, 2, 2, 2.5, 40: the spike is
        // outvoted and the median is (1 + 1.5) / 2.
        assert!((v.median_overhead_pct - 1.25).abs() < 1e-9, "{v:?}");
        assert!(v.passed());
        // Plain runs 96..=105: median 100.5, quartiles 98.25 and 102.75.
        assert!((v.plain_median - 100.5).abs() < 1e-9);
        assert!(
            (v.plain_iqr_pct - 4.5 / 100.5 * 100.0).abs() < 1e-9,
            "{v:?}"
        );
    }

    #[test]
    fn over_the_bound_fails() {
        let v = verdict(
            &pairs_with_overheads(&[4.0, 3.5, 5.0, 2.0, 6.0, 3.5, 4.5, 1.0, 3.5, 4.0]),
            3.0,
        );
        assert!((v.median_overhead_pct - 3.75).abs() < 1e-9, "{v:?}");
        assert!(!v.passed());
        // Exactly at the bound still passes (66 / 64 is exact in binary).
        assert!(verdict(&[(64.0, 66.0)], 3.125).passed());
    }

    #[test]
    fn order_of_pairs_does_not_matter() {
        let pairs =
            pairs_with_overheads(&[1.0, 7.0, 0.5, 40.0, 3.5, 2.5, -1.0, 2.0, 9.0, 1.0, 4.0]);
        let v = verdict(&pairs, 3.0);
        let mut reversed = pairs.clone();
        reversed.reverse();
        let mut rotated = pairs.clone();
        rotated.rotate_left(4);
        assert_eq!(verdict(&reversed, 3.0), v);
        assert_eq!(verdict(&rotated, 3.0), v);
        assert!((v.median_overhead_pct - 2.5).abs() < 1e-9, "{v:?}");
    }
}
