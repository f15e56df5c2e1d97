//! The size-threshold control loop (paper §3).
//!
//! "Each small core maintains a histogram of the number of requests that
//! correspond to item sizes in certain ranges. ... Periodically, core 0
//! aggregates these histograms, finds the size corresponding to the 99th
//! percentile, declares that size to be the threshold for the next
//! epoch, and resets the histograms to zero. To be resilient to
//! transient workload oscillations, core 0 smooths the values in the
//! aggregated histogram according to a moving average."

use crate::config::ThresholdMode;
use crate::cost::CostFn;
use minos_stats::{SizeHistogram, SmoothedHistogram};

/// The percentile of request sizes that becomes the threshold (§3:
/// "finds the size corresponding to the 99th percentile, declares that
/// size to be the threshold").
pub const THRESHOLD_PERCENTILE: f64 = 99.0;

/// EWMA weight of the newest epoch's histogram when it is folded into
/// the smoothed one (0.9 in the paper, §3).
pub const ALPHA: f64 = 0.9;

/// The controller's per-epoch output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThresholdDecision {
    /// Sizes `<= threshold` are small; larger are large.
    pub threshold: u64,
    /// The fraction of total processing cost attributable to small
    /// requests — the input to core allocation.
    pub small_cost_share: f64,
    /// Requests observed in the epoch that produced this decision.
    pub epoch_requests: u64,
}

impl ThresholdDecision {
    /// A safe bootstrap decision before any statistics exist: everything
    /// at or below the small/large boundary of the wire MTU is small,
    /// and all cores serve small requests (standby-large mode).
    pub fn bootstrap() -> Self {
        ThresholdDecision {
            threshold: minos_wire::MAX_FRAG_CHUNK as u64,
            small_cost_share: 1.0,
            epoch_requests: 0,
        }
    }

    /// True if `size` falls in the small class under this decision.
    #[inline]
    pub fn is_small(&self, size: u64) -> bool {
        size <= self.threshold
    }
}

/// The epoch-driven threshold controller run by core 0.
#[derive(Clone, Debug)]
pub struct ThresholdController {
    mode: ThresholdMode,
    cost_fn: CostFn,
    smoothed: SmoothedHistogram,
    current: ThresholdDecision,
    epochs: u64,
}

impl ThresholdController {
    /// Creates a controller that weighs requests by `cost_fn`.
    pub fn new(mode: ThresholdMode, cost_fn: CostFn) -> Self {
        let current = match mode {
            ThresholdMode::Dynamic => ThresholdDecision::bootstrap(),
            ThresholdMode::Static(t) => ThresholdDecision {
                threshold: t,
                small_cost_share: 1.0,
                epoch_requests: 0,
            },
        };
        ThresholdController {
            mode,
            cost_fn,
            smoothed: SmoothedHistogram::new(ALPHA),
            current,
            epochs: 0,
        }
    }

    /// The decision currently in force.
    pub fn current(&self) -> ThresholdDecision {
        self.current
    }

    /// Number of epochs processed.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Folds in the epoch's aggregated per-core histogram and produces
    /// the decision for the next epoch.
    ///
    /// Under [`ThresholdMode::Static`] the threshold never moves, but the
    /// cost share is still recomputed so core allocation keeps adapting
    /// (the paper's static variant only pins the *threshold*).
    pub fn epoch_update(&mut self, aggregate: &SizeHistogram) -> ThresholdDecision {
        self.epochs += 1;
        let epoch_requests = aggregate.total();
        if epoch_requests > 0 {
            self.smoothed.update(aggregate);
        }
        let threshold = match self.mode {
            ThresholdMode::Static(t) => t,
            ThresholdMode::Dynamic => self
                .smoothed
                .percentile(THRESHOLD_PERCENTILE)
                .unwrap_or(ThresholdDecision::bootstrap().threshold),
        };
        let small_cost_share = self.small_cost_share(threshold);
        self.current = ThresholdDecision {
            threshold,
            small_cost_share,
            epoch_requests,
        };
        self.current
    }

    /// The smoothed `(size_upper_bound, weight)` buckets — the input to
    /// [`crate::ranges::LargeRanges::build`] when the plan is assembled.
    pub fn smoothed_buckets(&self) -> Vec<(u64, f64)> {
        self.smoothed.iter_buckets().collect()
    }

    /// The fraction of smoothed cost mass at or below `threshold`.
    fn small_cost_share(&self, threshold: u64) -> f64 {
        let mut small = 0.0f64;
        let mut total = 0.0f64;
        for (ub, weight) in self.smoothed.iter_buckets() {
            let cost = self.cost_fn.cost(ub) as f64 * weight;
            total += cost;
            if ub <= threshold {
                small += cost;
            }
        }
        if total <= 0.0 {
            1.0
        } else {
            small / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch_hist(small_n: u64, small_sz: u64, large_n: u64, large_sz: u64) -> SizeHistogram {
        let mut h = SizeHistogram::new();
        for _ in 0..small_n {
            h.record(small_sz);
        }
        for _ in 0..large_n {
            h.record(large_sz);
        }
        h
    }

    fn dynamic() -> ThresholdController {
        ThresholdController::new(ThresholdMode::Dynamic, CostFn::Packets)
    }

    #[test]
    fn bootstrap_treats_single_packet_items_as_small() {
        let d = ThresholdDecision::bootstrap();
        assert!(d.is_small(100));
        assert!(d.is_small(1400));
        assert!(!d.is_small(500_000));
        assert_eq!(d.small_cost_share, 1.0);
    }

    #[test]
    fn threshold_lands_between_classes() {
        // 99.875 % at 100 B, 0.125 % at 500 KB: p99 of sizes must fall in
        // the small class, so the threshold separates the two.
        let mut c = dynamic();
        let d = c.epoch_update(&epoch_hist(99_875, 100, 125, 500_000));
        assert!(d.threshold < 1_500, "threshold {}", d.threshold);
        assert!(d.is_small(100));
        assert!(!d.is_small(500_000));
    }

    #[test]
    fn cost_share_reflects_packet_weight() {
        // With 0.125 % of requests at 500 KB (344 packets each) and the
        // paper's packet cost: large cost share is
        // 125*344 / (125*344 + 99875*1) ≈ 30 %.
        let mut c = dynamic();
        let d = c.epoch_update(&epoch_hist(99_875, 100, 125, 500_000));
        assert!(
            (d.small_cost_share - 0.70).abs() < 0.05,
            "small share {}",
            d.small_cost_share
        );
    }

    #[test]
    fn all_small_workload_gives_full_share() {
        let mut c = dynamic();
        let d = c.epoch_update(&epoch_hist(10_000, 200, 0, 0));
        assert_eq!(d.small_cost_share, 1.0);
        assert!(d.threshold < 1_500);
    }

    #[test]
    fn static_mode_pins_threshold_but_tracks_share() {
        let mut c = ThresholdController::new(ThresholdMode::Static(1_400), CostFn::Packets);
        let d1 = c.epoch_update(&epoch_hist(10_000, 100, 0, 0));
        assert_eq!(d1.threshold, 1_400);
        assert_eq!(d1.small_cost_share, 1.0);
        let d2 = c.epoch_update(&epoch_hist(5_000, 100, 5_000, 500_000));
        assert_eq!(d2.threshold, 1_400, "threshold pinned");
        assert!(d2.small_cost_share < 0.1, "share tracks the new mix");
    }

    #[test]
    fn smoothing_damps_transients() {
        // After many steady epochs, one anomalous epoch (all large)
        // moves the p99 (alpha = 0.9 weighs fresh data heavily), and the
        // EWMA pulls it back within two steady epochs: after one epoch
        // the residual large weight is 0.1 * 10 000 ≈ 1.1 % (just above
        // the 99th percentile), after two it is ≈ 0.2 %.
        let mut c = dynamic();
        for _ in 0..5 {
            c.epoch_update(&epoch_hist(100_000, 100, 125, 500_000));
        }
        let steady = c.current().threshold;
        assert!(steady < 1_500);
        c.epoch_update(&epoch_hist(0, 0, 10_000, 500_000));
        let disturbed = c.current().threshold;
        assert!(disturbed > steady, "threshold reacts to the burst");
        c.epoch_update(&epoch_hist(100_000, 100, 125, 500_000));
        c.epoch_update(&epoch_hist(100_000, 100, 125, 500_000));
        let recovered = c.current().threshold;
        assert!(recovered < 1_500, "recovered to {recovered}");
    }

    #[test]
    fn empty_epoch_keeps_previous_state() {
        let mut c = dynamic();
        c.epoch_update(&epoch_hist(10_000, 100, 12, 500_000));
        let before = c.current();
        let after = c.epoch_update(&SizeHistogram::new());
        assert_eq!(before.threshold, after.threshold);
        assert_eq!(after.epoch_requests, 0);
    }

    #[test]
    fn decision_adapts_to_growing_large_share() {
        // As p_L rises 0.125 % -> 0.75 %, the small cost share must fall
        // (more cores will be given to large requests) — the mechanism
        // behind Figure 10.
        let mut c = dynamic();
        c.epoch_update(&epoch_hist(99_875, 100, 125, 500_000));
        let low = c.current().small_cost_share;
        for _ in 0..6 {
            c.epoch_update(&epoch_hist(99_250, 100, 750, 500_000));
        }
        let high = c.current().small_cost_share;
        assert!(high < low, "share must drop as p_L grows: {low} -> {high}");
    }
}
