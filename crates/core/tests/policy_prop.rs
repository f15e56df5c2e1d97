//! Property tests on the pure policy layer: for *any* workload
//! histogram and cost share, the published plan must be total, stable
//! and well-formed — these invariants are what both the threaded server
//! and the simulator lean on every polling round.

use minos_core::allocation::allocate;
use minos_core::config::ThresholdMode;
use minos_core::cost::CostFn;
use minos_core::plan::{Destination, ShardingPlan};
use minos_core::ranges::LargeRanges;
use minos_core::threshold::ThresholdController;
use minos_stats::SizeHistogram;
use proptest::prelude::*;

fn arb_histogram() -> impl Strategy<Value = SizeHistogram> {
    // Arbitrary mixtures of size classes with arbitrary counts.
    prop::collection::vec((1u64..1_000_000, 1u64..10_000), 1..20).prop_map(|entries| {
        let mut h = SizeHistogram::new();
        for (size, count) in entries {
            for _ in 0..count.min(200) {
                h.record(size);
            }
        }
        h
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Allocation: always n_small + n_large == n, at least one small
    /// core, at least one handoff target, monotone in the share.
    #[test]
    fn allocation_invariants(n in 1usize..64, share in 0.0f64..=1.0) {
        let a = allocate(n, share);
        prop_assert_eq!(a.n_small + a.n_large, n);
        prop_assert!(a.n_small >= 1);
        prop_assert!(a.n_handoff() >= 1);
        prop_assert_eq!(a.standby, a.n_large == 0);
        // Handoff cores are a suffix of the core range.
        let h = a.handoff_cores();
        prop_assert_eq!(h.end, n);
        // Monotonicity in share.
        let more = allocate(n, (share + 0.1).min(1.0));
        prop_assert!(more.n_small >= a.n_small);
    }

    /// Ranges: for any histogram, threshold and core count, every size
    /// maps to exactly one range, mapping is monotone in size, and the
    /// last bound is unbounded.
    #[test]
    fn range_invariants(
        h in arb_histogram(),
        threshold in 1u64..100_000,
        n_large in 1usize..8,
    ) {
        let buckets: Vec<(u64, f64)> =
            h.inner().iter_buckets().map(|(ub, c)| (ub, c as f64)).collect();
        let r = LargeRanges::build(buckets, threshold, n_large, CostFn::Packets);
        prop_assert_eq!(r.len(), n_large);
        prop_assert_eq!(*r.bounds().last().unwrap(), u64::MAX);
        prop_assert!(r.bounds().windows(2).all(|w| w[0] <= w[1]));
        let mut prev = 0usize;
        for size in (threshold + 1..threshold + 2_000_000).step_by(50_000) {
            let c = r.core_for_size(size);
            prop_assert!(c < n_large);
            prop_assert!(c >= prev, "monotone in size");
            prev = c;
        }
    }

    /// The full pipeline: histogram -> controller -> plan. The plan
    /// must classify every size somewhere valid, route small sizes
    /// locally, and agree with its own threshold decision.
    #[test]
    fn plan_classification_total_and_consistent(
        h in arb_histogram(),
        n_cores in 1usize..16,
    ) {
        let mut c = ThresholdController::new(ThresholdMode::Dynamic, CostFn::Packets);
        let decision = c.epoch_update(&h);
        prop_assert!((0.0..=1.0).contains(&decision.small_cost_share));
        let plan = ShardingPlan::from_decision(
            1,
            n_cores,
            decision,
            c.smoothed_buckets(),
            CostFn::Packets,
        );
        for size in [0u64, 1, 13, 100, 1_400, 1_456, 2_000, 50_000, 1_000_000, u64::MAX / 2] {
            match plan.classify(size) {
                Destination::Local => prop_assert!(plan.decision.is_small(size)),
                Destination::Handoff(core) => {
                    prop_assert!(!plan.decision.is_small(size));
                    prop_assert!(plan.allocation.is_handoff_core(core), "core {core}");
                }
            }
        }
    }

    /// The controller never produces a threshold of zero on non-empty
    /// input, and repeated identical epochs converge (threshold stops
    /// moving).
    #[test]
    fn controller_converges_on_steady_input(h in arb_histogram()) {
        let mut c = ThresholdController::new(ThresholdMode::Dynamic, CostFn::Packets);
        let mut last = 0u64;
        for _ in 0..12 {
            last = c.epoch_update(&h).threshold;
        }
        prop_assert!(last > 0);
        let again = c.epoch_update(&h).threshold;
        prop_assert_eq!(again, last, "steady input -> steady threshold");
    }
}
