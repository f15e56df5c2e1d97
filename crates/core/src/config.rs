//! Configuration of the Minos engine.

use crate::dispatch::DisciplineKind;

/// RX batch size `B`: the requests a core takes from one RX queue per
/// poll round, and the most datagrams a TX burst stages before it is
/// sent (32 in the paper, §4.1 and §5.2). Written down once, as the
/// UDP transport's syscall batch.
pub const BATCH: usize = minos_net::BATCH;

/// Capacity of each core's software queue, in requests, in every server
/// (the queue is a tail-drop bound: a full queue drops the handoff and
/// counts it in `engine.soft_queue_drops`), deep enough for the bursts
/// of unpaced clients such as the tests'.
pub const SOFT_QUEUE_CAPACITY: usize = 65_536;

/// How the size threshold between small and large is chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThresholdMode {
    /// The paper's control loop: every epoch, core 0 aggregates the
    /// per-core size histograms, smooths them, and sets the threshold to
    /// the [`crate::threshold::THRESHOLD_PERCENTILE`] of request sizes.
    Dynamic,
    /// A fixed threshold, for workloads profiled off-line (the variant
    /// §6.2 describes to reclaim the profiling overhead under
    /// write-intensive workloads).
    Static(u64),
}

/// How cores are allocated between small and large requests. Only the
/// discrete-event simulator models the alternative (`minos-sim`'s
/// `SystemConfig::allocation_policy`); the live server allocates the
/// paper's standard way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// The paper's default: `n_small = ceil(small-cost share × n)`;
    /// remaining cores are large; if none remain, one standby large
    /// core is designated.
    Standard,
    /// The §6.1 "alternative design": allocate one extra large core and
    /// let large cores steal small requests one at a time from small
    /// RX queues when their software queues are empty, reclaiming the
    /// capacity the ceiling over-allocates to small cores.
    LargeSteals,
}

/// Full engine configuration, defaults matching the paper (§5.2).
#[derive(Clone, Debug)]
pub struct MinosConfig {
    /// Server cores (and NIC queue pairs). The paper's testbed has 8.
    pub n_cores: usize,
    /// Statistics epoch in nanoseconds (1 s in the paper).
    pub epoch_ns: u64,
    /// Threshold selection mode.
    pub threshold_mode: ThresholdMode,
    /// Length of one reassembly round in nanoseconds. A partially
    /// reassembled message that receives no fragment for two completed
    /// rounds is evicted and its mempool reservation released (the
    /// counterpart of client retransmission: a lost fragment means a
    /// lost request, and the server must not strand memory for it).
    pub reassembly_round_ns: u64,
    /// The queue discipline placing decoded requests onto cores. The
    /// default is the paper's size-aware sharding; the alternatives
    /// (the paper's hkh and sho baselines, and cfcfs and dfcfs, the
    /// M/G/k and keyhash nxM/G/1 models of its §2.2) exist so the
    /// figures can compare against them on identical plumbing.
    pub discipline: DisciplineKind,
    /// ZygOS-style work stealing: an idle core pops one request from
    /// the longest peer software queue, and — under a discipline where
    /// every core drains only its own RX queue, such as `hkh` (HKH+WS) —
    /// takes one RX burst from a peer when every peer software queue is
    /// empty. Off by default — enabling it on the size-aware discipline
    /// deliberately violates the paper's small/large isolation (that is
    /// the experiment).
    pub steal: bool,
    /// Overload shed watermark, in queued requests. When a placement
    /// targets a software queue already holding at least this many
    /// entries, *large* requests are shed with an immediate
    /// [`minos_wire::message::ReplyStatus::Overloaded`] reply instead
    /// of being enqueued — the size-aware insight inverted: under
    /// overload, protect the small-class tail first (one shed large
    /// request frees service time for thousands of small ones). `0`
    /// (the default) disables the valve. Sheds are counted in
    /// `dispatch.sheds`.
    pub shed_watermark: usize,
}

impl Default for MinosConfig {
    fn default() -> Self {
        MinosConfig {
            n_cores: 8,
            epoch_ns: 1_000_000_000,
            threshold_mode: ThresholdMode::Dynamic,
            reassembly_round_ns: 1_000_000_000,
            discipline: DisciplineKind::SizeAware,
            steal: false,
            shed_watermark: 0,
        }
    }
}

impl MinosConfig {
    /// Validates invariants; called by the server on startup.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_cores == 0 {
            return Err("n_cores must be positive".into());
        }
        if self.epoch_ns == 0 {
            return Err("epoch_ns must be positive".into());
        }
        if self.reassembly_round_ns == 0 {
            return Err("reassembly_round_ns must be positive".into());
        }
        if self.shed_watermark > SOFT_QUEUE_CAPACITY {
            return Err(format!(
                "shed_watermark above the software queue capacity ({SOFT_QUEUE_CAPACITY}) would never fire"
            ));
        }
        if let DisciplineKind::Sho { handoff } = self.discipline {
            if handoff == 0 || handoff >= self.n_cores {
                return Err("sho needs at least one handoff core and one worker".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        use crate::ingest::DISCARD_QUOTA_PER_SOURCE;
        use crate::server::NIC_QUEUE_CAPACITY;
        use crate::threshold::{ALPHA, THRESHOLD_PERCENTILE};
        assert_eq!(BATCH, 32);
        assert_eq!(ALPHA, 0.9);
        assert_eq!(THRESHOLD_PERCENTILE, 99.0);
        assert_eq!(SOFT_QUEUE_CAPACITY, 65_536);
        assert_eq!(NIC_QUEUE_CAPACITY, 65_536);
        assert_eq!(DISCARD_QUOTA_PER_SOURCE, 8);
        let c = MinosConfig::default();
        assert_eq!(c.n_cores, 8);
        assert_eq!(c.epoch_ns, 1_000_000_000);
        assert_eq!(c.threshold_mode, ThresholdMode::Dynamic);
        assert_eq!(c.discipline, DisciplineKind::SizeAware);
        assert!(!c.steal);
        assert_eq!(c.shed_watermark, 0, "shedding is opt-in");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = MinosConfig {
            n_cores: 0,
            ..MinosConfig::default()
        };
        assert!(c.validate().is_err());
        for handoff in [0, 2] {
            let c = MinosConfig {
                n_cores: 2,
                discipline: DisciplineKind::Sho { handoff },
                ..MinosConfig::default()
            };
            assert!(c.validate().is_err(), "sho handoff {handoff} of 2 cores");
        }
        let c = MinosConfig {
            n_cores: 2,
            discipline: DisciplineKind::Sho { handoff: 1 },
            ..MinosConfig::default()
        };
        assert!(c.validate().is_ok());
    }
}
