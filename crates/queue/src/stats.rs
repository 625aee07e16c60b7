//! Steady-state output analysis: batch-means confidence intervals and
//! percentile summaries.
//!
//! A single open-system run produces one long, autocorrelated sequence
//! of per-job response times; the sample variance of that sequence
//! wildly underestimates the variance of its mean. The standard fix
//! (Law & Kelton's method of batch means) groups consecutive
//! observations into `B` batches, treats the batch means as
//! approximately independent, and builds a Student-t interval from
//! their spread.

/// A mean with a symmetric confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate: the grand mean over every batched observation.
    pub mean: f64,
    /// Half-width of the ~95% interval (`mean ± half_width`).
    pub half_width: f64,
    /// Batches the interval was built from.
    pub batches: u32,
    /// Observations per batch (the trailing remainder is dropped).
    pub batch_size: u64,
}

impl ConfidenceInterval {
    /// Relative half-width `half_width / mean` (`f64::INFINITY` for a
    /// zero mean) — the usual run-length quality criterion.
    pub fn relative_half_width(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.mean.abs()
        }
    }
}

/// Two-sided 97.5% Student-t quantile (95% interval) for `df` degrees
/// of freedom; the asymptotic normal quantile beyond the table.
fn t_quantile_975(df: u32) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        _ => 1.96,
    }
}

/// Batch-means confidence interval for the mean of an autocorrelated
/// sequence (observations in collection order).
///
/// Splits `samples` into `batches` equal consecutive batches (dropping
/// the trailing remainder), and returns the grand mean of the batched
/// observations with a ~95% Student-t half-width computed from the
/// batch-mean spread. Returns `None` when there are not enough
/// observations for every batch to hold at least one (`len < batches`)
/// or fewer than two batches were requested.
pub fn batch_means(samples: &[f64], batches: u32) -> Option<ConfidenceInterval> {
    if batches < 2 {
        return None;
    }
    let batch_size = (samples.len() / batches as usize) as u64;
    if batch_size == 0 {
        return None;
    }
    let used = batch_size as usize * batches as usize;
    let means: Vec<f64> = samples[..used]
        .chunks_exact(batch_size as usize)
        .map(|b| b.iter().sum::<f64>() / batch_size as f64)
        .collect();
    let grand = means.iter().sum::<f64>() / means.len() as f64;
    let var =
        means.iter().map(|m| (m - grand) * (m - grand)).sum::<f64>() / (means.len() - 1) as f64;
    let half_width = t_quantile_975(batches - 1) * (var / means.len() as f64).sqrt();
    Some(ConfidenceInterval {
        mean: grand,
        half_width,
        batches,
        batch_size,
    })
}

/// Nearest-rank percentile summary of a sample set (order-free input).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentileSummary {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest observation.
    pub max: f64,
}

/// Computes the summary by sorting a copy of the samples (nearest-rank
/// definition: the smallest observation with at least `q·n` at or below
/// it). Returns `None` for an empty sample set.
///
/// Samples are ordered by [`f64::total_cmp`], so a NaN never panics: a
/// NaN (such as [`f64::NAN`]) ranks above every number, a NaN with its
/// sign bit set below every number, and `-0.0` just below `0.0`.
pub fn percentiles(samples: &[f64]) -> Option<PercentileSummary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = |q: f64| {
        let n = sorted.len();
        let k = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[k - 1]
    };
    Some(PercentileSummary {
        p50: rank(0.50),
        p95: rank(0.95),
        p99: rank(0.99),
        max: *sorted.last().expect("non-empty"),
    })
}

/// Merges per-shard measured samples — each a list of
/// `(slot, value)` pairs keyed by the global measurement slot — into
/// one dense, slot-ordered sequence of length `slots`.
///
/// Shard order does not matter (each sample carries its own slot), so
/// the merge is deterministic however the shards were scheduled. Empty
/// shards are fine: they simply contribute nothing. Returns `None`
/// when the shards do not tile the slot range exactly — a slot left
/// unfilled, filled twice, or carrying a `NaN` value (the guard that
/// keeps a malformed shard report from silently poisoning the batch
/// means downstream).
pub fn merge_shard_samples(shards: &[Vec<(u64, f64)>], slots: usize) -> Option<Vec<f64>> {
    let mut merged = vec![f64::NAN; slots];
    let mut filled = 0usize;
    for shard in shards {
        for &(slot, value) in shard {
            if value.is_nan() {
                return None;
            }
            let cell = merged.get_mut(slot as usize)?;
            if !cell.is_nan() {
                return None; // duplicate slot
            }
            *cell = value;
            filled += 1;
        }
    }
    (filled == slots).then_some(merged)
}

/// The batch-means recombination behind sharded steady-state merges:
/// merges per-shard `(slot, value)` samples into slot order (the
/// aggregate arrival order) via [`merge_shard_samples`] and builds the
/// batch-means interval over the merged sequence — exactly the interval
/// a single-shard run collecting the same samples would report.
///
/// Returns `None` when the shards do not tile the slot range (see
/// [`merge_shard_samples`]) or the merged sequence cannot support
/// `batches` (see [`batch_means`]).
pub fn merged_batch_means(
    shards: &[Vec<(u64, f64)>],
    slots: usize,
    batches: u32,
) -> Option<ConfidenceInterval> {
    batch_means(&merge_shard_samples(shards, slots)?, batches)
}

/// Weighted mean of `(value, weight)` pairs, guarded so an all-zero
/// weight total (e.g. averaging per-shard statistics when no shard
/// executed a quantum) yields `0.0` instead of `0/0 = NaN`.
pub fn weighted_mean(pairs: &[(f64, f64)]) -> f64 {
    let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
    if total == 0.0 {
        return 0.0;
    }
    pairs.iter().map(|&(v, w)| v * w).sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_means_of_constant_sequence_has_zero_width() {
        let ci = batch_means(&[4.0; 100], 10).unwrap();
        assert_eq!(ci.mean, 4.0);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.batches, 10);
        assert_eq!(ci.batch_size, 10);
        assert_eq!(ci.relative_half_width(), 0.0);
    }

    #[test]
    fn batch_means_drops_the_trailing_remainder() {
        // 23 samples into 4 batches: size 5, the last 3 ignored.
        let samples: Vec<f64> = (0..23).map(|i| i as f64).collect();
        let ci = batch_means(&samples, 4).unwrap();
        assert_eq!(ci.batch_size, 5);
        // Grand mean over the first 20 naturals: 9.5.
        assert!((ci.mean - 9.5).abs() < 1e-12);
        assert!(ci.half_width > 0.0);
    }

    #[test]
    fn batch_means_covers_a_known_mean() {
        // Deterministic pseudo-noise around 10: the interval must cover 10.
        let samples: Vec<f64> = (0..1000)
            .map(|i| 10.0 + ((i * 2654435761u64 % 97) as f64 - 48.0) / 48.0)
            .collect();
        let ci = batch_means(&samples, 20).unwrap();
        assert!((ci.mean - 10.0).abs() < ci.half_width.max(0.2), "{ci:?}");
    }

    #[test]
    fn batch_means_needs_enough_samples_and_batches() {
        assert!(batch_means(&[1.0, 2.0, 3.0], 4).is_none());
        assert!(batch_means(&[1.0, 2.0, 3.0], 1).is_none());
        assert!(batch_means(&[], 2).is_none());
        assert!(batch_means(&[1.0, 2.0], 2).is_some());
    }

    #[test]
    fn wider_intervals_for_fewer_batches() {
        // Same data; 2 batches pay t(1) = 12.7 vs t(9) = 2.26.
        let samples: Vec<f64> = (0..100).map(|i| (i / 10) as f64).collect();
        let wide = batch_means(&samples, 2).unwrap();
        let narrow = batch_means(&samples, 10).unwrap();
        assert!(wide.half_width > narrow.half_width);
    }

    #[test]
    fn percentiles_nearest_rank_on_small_sets() {
        let s = percentiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p95, 3.0);
        assert_eq!(s.p99, 3.0);
        assert_eq!(s.max, 3.0);
        assert!(percentiles(&[]).is_none());
    }

    #[test]
    fn percentiles_rank_a_nan_sample_above_every_number() {
        let s = percentiles(&[2.0, f64::NAN, 1.0]).unwrap();
        assert_eq!(s.p50, 2.0);
        assert!(s.p95.is_nan() && s.p99.is_nan() && s.max.is_nan());
    }

    #[test]
    fn percentiles_on_a_uniform_ramp() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = percentiles(&samples).unwrap();
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn merge_recombines_shard_samples_in_slot_order() {
        // Three shards covering slots 0..6 round-robin, presented out of
        // shard order — the merge keys on slots, not shard layout.
        let shards = vec![
            vec![(2, 20.0), (5, 50.0)],
            vec![(0, 0.0), (3, 30.0)],
            vec![(1, 10.0), (4, 40.0)],
        ];
        let merged = merge_shard_samples(&shards, 6).unwrap();
        assert_eq!(merged, vec![0.0, 10.0, 20.0, 30.0, 40.0, 50.0]);
        // The recombined interval equals batch means over the dense
        // sequence a single-shard run would have collected.
        let direct = batch_means(&merged, 3).unwrap();
        assert_eq!(merged_batch_means(&shards, 6, 3), Some(direct));
    }

    #[test]
    fn merge_tolerates_empty_shards() {
        // Shards that measured nothing (no measured arrival was routed
        // to them) contribute nothing and break nothing.
        let shards = vec![vec![], vec![(0, 1.0), (1, 2.0)], vec![]];
        assert_eq!(merge_shard_samples(&shards, 2), Some(vec![1.0, 2.0]));
        // All shards empty over an empty slot range: a valid (empty)
        // merge, which batch means then rejects for want of samples.
        assert_eq!(merge_shard_samples(&[], 0), Some(vec![]));
        assert_eq!(merged_batch_means(&[], 0, 2), None);
    }

    #[test]
    fn merge_handles_single_batch_shards() {
        // Each shard contributes exactly one batch worth of samples;
        // the recombined interval spans shards.
        let shards: Vec<Vec<(u64, f64)>> = (0u64..4)
            .map(|s| (0u64..5).map(|i| (s * 5 + i, (s * 5 + i) as f64)).collect())
            .collect();
        let ci = merged_batch_means(&shards, 20, 4).unwrap();
        assert_eq!(ci.batches, 4);
        assert_eq!(ci.batch_size, 5);
        assert!((ci.mean - 9.5).abs() < 1e-12);
        // A single-batch *request* is still rejected (batch means needs
        // at least two batches to estimate spread).
        assert_eq!(merged_batch_means(&shards, 20, 1), None);
    }

    #[test]
    fn merge_guards_against_malformed_shard_reports() {
        // Missing slot.
        assert_eq!(merge_shard_samples(&[vec![(0, 1.0)]], 2), None);
        // Duplicate slot.
        assert_eq!(
            merge_shard_samples(&[vec![(0, 1.0)], vec![(0, 2.0), (1, 3.0)]], 2),
            None
        );
        // Out-of-range slot.
        assert_eq!(merge_shard_samples(&[vec![(7, 1.0)]], 2), None);
        // NaN sample: rejected outright rather than masquerading as an
        // unfilled slot.
        assert_eq!(
            merge_shard_samples(&[vec![(0, f64::NAN), (1, 1.0)]], 2),
            None
        );
        assert_eq!(merged_batch_means(&[vec![(0, 1.0)]], 2, 2), None);
    }

    #[test]
    fn weighted_mean_guards_zero_total_weight() {
        assert_eq!(weighted_mean(&[]), 0.0);
        assert_eq!(weighted_mean(&[(5.0, 0.0), (9.0, 0.0)]), 0.0);
        assert_eq!(weighted_mean(&[(2.0, 1.0), (6.0, 3.0)]), 5.0);
        assert!(weighted_mean(&[(4.0, 0.0)]).to_bits() == 0.0_f64.to_bits());
    }

    #[test]
    fn t_table_decreases_toward_normal() {
        assert!(t_quantile_975(1) > t_quantile_975(5));
        assert!(t_quantile_975(5) > t_quantile_975(30));
        assert_eq!(t_quantile_975(1000), 1.96);
        assert_eq!(t_quantile_975(0), f64::INFINITY);
    }
}
