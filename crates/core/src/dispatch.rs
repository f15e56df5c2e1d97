//! Request dispatch: batch-draining quotas and pluggable queue
//! disciplines.
//!
//! The first half of this module is the paper's §3 drain schedule:
//!
//! "Each small core repeats the following sequence of actions w.r.t. the
//! RX queues: First, it reads a batch of B requests from its own RX
//! queue. Then it reads a batch of B/ns requests from the RX queue of
//! the large core. In this way, all RX queues are drained at
//! approximately the same rate. The reason a large core never reads
//! incoming requests from its RX queue is that, if it were to receive a
//! small request, this request could experience head-of-line blocking
//! behind large requests."
//!
//! The second half is the [`Discipline`] trait: the *placement* decision
//! — which core executes a decoded request — and the per-core *drain*
//! decision — which RX queues a core reads and whether it pulls the
//! shared queue — extracted behind a trait so the same server core loop
//! can run the paper's size-aware sharding, the designs it is evaluated
//! against (HKH, HKH+WS, SHO; §5.2), or the two queueing models of its
//! §2.2 (cFCFS, M/G/k; dFCFS, the keyhash nxM/G/1). Every placement and
//! drain rule is written here once, and every design shares one KV store and
//! one network stack, as the paper's comparison requires. `minos-figures
//! --disciplines size-aware,hkh,sho,...` sweeps the same workload over
//! every policy and the committed figures show where size-aware wins.
//!
//! | kind         | placement rule                          | queue shape |
//! |--------------|------------------------------------------|-------------|
//! | `size-aware` | small → RX core, large → plan's range core | per-core soft queues, asymmetric RX drain (paper §3) |
//! | `hkh`        | everything → the RX core (`--steal`: HKH+WS) | nxM/G/1, no software hop |
//! | `sho`        | everything → one shared queue only workers pull | `handoff` dispatch cores drain RX, M/G/n workers |
//! | `cfcfs`      | everything → one shared queue, any core pulls | single M/G/k queue |
//! | `dfcfs`      | key-hash → fixed owner core              | partitioned nxM/G/1 |
//!
//! Only `size-aware` consults the [`ShardingPlan`] to place (and
//! therefore needs the item's size, [`Discipline::needs_size`]). Only
//! `size-aware` and `sho` drain RX queues asymmetrically
//! ([`Discipline::rx_drain`]); every other discipline has each core
//! drain its own RX queue at the full batch — the hardware-dispatch
//! model, in which an idle core may also steal a peer's RX burst
//! ([`Discipline::own_rx_only`]).

use crate::plan::{Destination, ShardingPlan};

/// How many packets one small core takes from one large core's RX queue
/// per polling round, given batch size `B` and `n_small` small cores.
///
/// Rounded up so the aggregate across small cores is ≥ `B`: large-core
/// RX queues are drained at least as fast as small ones, never slower.
#[inline]
pub fn large_rx_quota(batch: usize, n_small: usize) -> usize {
    debug_assert!(n_small > 0);
    batch.div_ceil(n_small)
}

/// The per-round RX draining schedule of one small core: its own queue
/// at full batch, then every handoff core's queue at the shared quota.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrainSchedule {
    /// The core's own RX queue and its batch size.
    pub own: (usize, usize),
    /// `(queue, quota)` for each large/standby core's RX queue.
    pub others: Vec<(usize, usize)>,
}

impl DrainSchedule {
    /// Only `core`'s own RX queue, at the full batch.
    pub fn own(core: usize, batch: usize) -> Self {
        DrainSchedule {
            own: (core, batch),
            others: Vec::new(),
        }
    }

    /// Every RX queue the schedule drains, its own first.
    pub fn queues(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.own.0).chain(self.others.iter().map(|&(q, _)| q))
    }
}

/// Builds the drain schedule for small core `core` under the allocation
/// described by `n_small`, `handoff_cores` and batch size `batch`.
pub fn drain_schedule(
    core: usize,
    batch: usize,
    n_small: usize,
    handoff_cores: std::ops::Range<usize>,
) -> DrainSchedule {
    let quota = large_rx_quota(batch, n_small);
    DrainSchedule {
        own: (core, batch),
        others: handoff_cores
            .filter(|&q| q != core) // standby core doesn't re-drain itself
            .map(|q| (q, quota))
            .collect(),
    }
}

/// The selectable queue disciplines. `name()`/`from_name()` use the
/// kebab-case spellings the CLIs (`minos-server --discipline`,
/// `minos-figures --disciplines`) and the committed figure JSON share.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DisciplineKind {
    /// The paper's size-aware sharding: the default and the only
    /// discipline that consults the epoch [`ShardingPlan`].
    SizeAware,
    /// Centralized FCFS (M/G/k): one shared queue, any core pulls.
    Cfcfs,
    /// Distributed FCFS (nxM/G/1): key-hash partitioned per core.
    Dfcfs,
    /// Hardware keyhash sharding (HKH, nxM/G/1, as MICA): every request
    /// executes on the core whose RX queue it arrived on.
    Hkh,
    /// Software handoff (SHO, M/G/n, as RAMCloud): dispatch cores feed
    /// one shared queue that only the worker cores pull.
    Sho {
        /// Dispatch cores (`0..handoff`): at least one, and fewer than
        /// the server's cores.
        handoff: usize,
    },
}

impl DisciplineKind {
    /// Every kind, in the order the shoot-out figure sweeps them; `sho`
    /// with the one dispatch core its name parses to.
    pub const ALL: [DisciplineKind; 5] = [
        DisciplineKind::SizeAware,
        DisciplineKind::Cfcfs,
        DisciplineKind::Dfcfs,
        DisciplineKind::Hkh,
        DisciplineKind::Sho { handoff: 1 },
    ];

    /// The CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            DisciplineKind::SizeAware => "size-aware",
            DisciplineKind::Cfcfs => "cfcfs",
            DisciplineKind::Dfcfs => "dfcfs",
            DisciplineKind::Hkh => "hkh",
            DisciplineKind::Sho { .. } => "sho",
        }
    }

    /// Inverse of [`DisciplineKind::name`] (`sho` parses to one
    /// dispatch core).
    pub fn from_name(name: &str) -> Option<DisciplineKind> {
        DisciplineKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Builds the discipline's implementation.
    pub fn build(self) -> Box<dyn Discipline> {
        match self {
            DisciplineKind::SizeAware => Box::new(SizeAware),
            DisciplineKind::Cfcfs => Box::new(Cfcfs),
            DisciplineKind::Dfcfs => Box::new(Dfcfs),
            DisciplineKind::Hkh => Box::new(Hkh),
            DisciplineKind::Sho { handoff } => Box::new(Sho { handoff }),
        }
    }
}

/// Where a placed request executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Execute inline on the core that drained the packet.
    Local,
    /// Push to core `i`'s software queue (pushing to one's own queue is
    /// legal and meaningful: the standby core under size-aware sharding
    /// serves its own large handoffs FIFO behind earlier ones).
    Core(usize),
    /// Push to the single shared queue, which the cores named by
    /// [`Discipline::pulls_shared`] pull (cFCFS: all; SHO: the workers).
    Shared,
}

/// Live per-core software-queue depths, supplied by the server at
/// decision time (a fragment placed [`Placement::Shared`] goes to the
/// shortest; nothing else reads them).
pub trait QueueDepths {
    /// Requests currently queued for core `core`.
    fn depth(&self, core: usize) -> usize;
}

/// Depths backed by an array — the test/sim harness view.
impl<const N: usize> QueueDepths for [usize; N] {
    fn depth(&self, core: usize) -> usize {
        self[core]
    }
}

/// Depths backed by a vector — the test/sim harness view.
impl QueueDepths for Vec<usize> {
    fn depth(&self, core: usize) -> usize {
        self[core]
    }
}

/// Everything a discipline may consult to place one request.
pub struct PlaceCtx<'a> {
    /// The core that drained and decoded the packet.
    pub rx_core: usize,
    /// Total server cores.
    pub n_cores: usize,
    /// The request's key (for fragments, a mix of the source endpoint
    /// and message id — the key itself only travels in fragment 0).
    pub key: u64,
    /// The item's size in bytes, when known without a lookup: PUT value
    /// length, or the fragment header's message length. `None` for GETs
    /// under disciplines that don't pay the classification lookup.
    pub size: Option<u64>,
    /// The sharding plan in force (only size-aware reads it).
    pub plan: &'a ShardingPlan,
    /// Live soft-queue depth gauges (only [`Discipline::place_fragment`]'s
    /// shared-queue fallback reads them).
    pub depths: &'a dyn QueueDepths,
}

impl PlaceCtx<'_> {
    /// The core with the shallowest soft queue, preferring the RX core
    /// on ties (no handoff hop when nothing is gained by one).
    fn shortest_queue(&self) -> usize {
        let mut best = self.rx_core;
        let mut best_depth = self.depths.depth(self.rx_core);
        for core in 0..self.n_cores {
            let d = self.depths.depth(core);
            if d < best_depth {
                best = core;
                best_depth = d;
            }
        }
        best
    }
}

/// A pluggable queue discipline: given a decoded request (its key, its
/// size class when known, the live queue depths), decide which core
/// executes it; and given a core and the plan in force, decide what that
/// core polls. Implementations must be cheap — `place` runs once per
/// request on the RX drain path — and lock-free (shared across all core
/// threads). The per-core drain answers change only with the plan, so
/// the server caches them per plan publication.
pub trait Discipline: Send + Sync {
    /// The kind this implementation was built from.
    fn kind(&self) -> DisciplineKind;

    /// The CLI/JSON name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Whether placement needs the item's size. When true the server
    /// performs the size-aware classification lookup for GETs on the RX
    /// core (paper §3); when false GETs are placed by key alone and the
    /// executing core does the only lookup.
    fn needs_size(&self) -> bool {
        false
    }

    /// The RX queues `core` drains each round under `plan`, with batch
    /// size `batch`; `None` for a core that never touches RX. The
    /// default is the hardware-dispatch model: every core drains its own
    /// RX queue at the full batch.
    fn rx_drain(&self, core: usize, _plan: &ShardingPlan, batch: usize) -> Option<DrainSchedule> {
        Some(DrainSchedule::own(core, batch))
    }

    /// Whether `core` pulls the shared queue each round
    /// ([`Placement::Shared`] is only legal when some core does).
    fn pulls_shared(&self, _core: usize) -> bool {
        false
    }

    /// Whether every core drains exactly its own RX queue under `plan`.
    /// Only then may an idle core steal a burst from a peer's RX queue
    /// (the second level of work stealing): under size-aware sharding a
    /// large core must never read RX (§3), and SHO's workers never do.
    fn own_rx_only(&self, plan: &ShardingPlan, batch: usize) -> bool {
        (0..plan.allocation.n_cores)
            .all(|core| self.rx_drain(core, plan, batch) == Some(DrainSchedule::own(core, batch)))
    }

    /// Picks where the request executes.
    fn place(&self, ctx: &PlaceCtx) -> Placement;

    /// Picks the core that owns reassembly of a multi-fragment message.
    /// Fragments can never go to the shared queue — all fragments of one
    /// message must reach a single core's reassembler — so `Shared`
    /// placements fall back to the shortest soft queue.
    fn place_fragment(&self, ctx: &PlaceCtx) -> usize {
        match self.place(ctx) {
            Placement::Local => ctx.rx_core,
            Placement::Core(core) => core,
            Placement::Shared => ctx.shortest_queue(),
        }
    }
}

/// The paper's size-aware sharding, verbatim: the plan classifies by
/// size; small items execute where they landed, large items go to the
/// range-owning large core's software queue.
pub struct SizeAware;

impl Discipline for SizeAware {
    fn kind(&self) -> DisciplineKind {
        DisciplineKind::SizeAware
    }

    fn needs_size(&self) -> bool {
        true
    }

    /// Small cores drain their own RX queue plus their quota of the
    /// handoff cores' queues; dedicated large cores never touch RX.
    fn rx_drain(&self, core: usize, plan: &ShardingPlan, batch: usize) -> Option<DrainSchedule> {
        let alloc = &plan.allocation;
        alloc
            .is_small_core(core)
            .then(|| drain_schedule(core, batch, alloc.n_small, alloc.handoff_cores()))
    }

    fn place(&self, ctx: &PlaceCtx) -> Placement {
        // `needs_size` guarantees the server supplies the size; treat a
        // missing one as small rather than panicking on the hot path.
        let size = ctx.size.unwrap_or(0);
        match ctx.plan.classify(size) {
            Destination::Local => Placement::Local,
            Destination::Handoff(target) => Placement::Core(target),
        }
    }
}

/// Centralized FCFS: the single-queue M/G/k system the paper argues
/// suffers head-of-line blocking from large requests.
pub struct Cfcfs;

impl Discipline for Cfcfs {
    fn kind(&self) -> DisciplineKind {
        DisciplineKind::Cfcfs
    }

    fn pulls_shared(&self, _core: usize) -> bool {
        true
    }

    fn place(&self, _ctx: &PlaceCtx) -> Placement {
        Placement::Shared
    }
}

/// Hardware keyhash sharding (HKH, nxM/G/1): a request executes on the
/// core whose RX queue it arrived on, run to completion, with no
/// software hop. The client picks the queue (GETs at random, §3), which
/// is why this is not `dfcfs`: dfcfs would move each request to its
/// key's owner core. With [`crate::MinosConfig::steal`] it is HKH+WS
/// (ZygOS-style): an idle core steals from peers' software queues, then
/// from their RX queues.
pub struct Hkh;

impl Discipline for Hkh {
    fn kind(&self) -> DisciplineKind {
        DisciplineKind::Hkh
    }

    fn place(&self, _ctx: &PlaceCtx) -> Placement {
        Placement::Local
    }
}

/// Software handoff (SHO, M/G/n): "disjoint sets of handoff and worker
/// cores" (§5.2). Cores `0..handoff` only dispatch: they drain their own
/// RX queue plus a [`drain_schedule`] quota of every worker's (so a
/// client may target any queue) and move each request to the shared
/// queue. The worker cores never read RX; they pull the shared queue one
/// request at a time (late binding) and own every multi-fragment
/// message's reassembly.
pub struct Sho {
    handoff: usize,
}

impl Discipline for Sho {
    fn kind(&self) -> DisciplineKind {
        DisciplineKind::Sho {
            handoff: self.handoff,
        }
    }

    fn rx_drain(&self, core: usize, plan: &ShardingPlan, batch: usize) -> Option<DrainSchedule> {
        (core < self.handoff).then(|| {
            drain_schedule(
                core,
                batch,
                self.handoff,
                self.handoff..plan.allocation.n_cores,
            )
        })
    }

    fn pulls_shared(&self, core: usize) -> bool {
        core >= self.handoff
    }

    fn place(&self, _ctx: &PlaceCtx) -> Placement {
        Placement::Shared
    }

    fn place_fragment(&self, ctx: &PlaceCtx) -> usize {
        let workers = (ctx.n_cores - self.handoff) as u64;
        self.handoff + (ctx.key % workers) as usize
    }
}

/// Distributed FCFS: the key-hash partitioned nxM/G/1 system — perfect
/// locality, no balancing, large keys hot-spot their owner core.
pub struct Dfcfs;

impl Dfcfs {
    /// The owner core of `key` among `n_cores`.
    pub fn owner(key: u64, n_cores: usize) -> usize {
        (minos_kv::keyhash(key) % n_cores as u64) as usize
    }
}

impl Discipline for Dfcfs {
    fn kind(&self) -> DisciplineKind {
        DisciplineKind::Dfcfs
    }

    fn place(&self, ctx: &PlaceCtx) -> Placement {
        let owner = Dfcfs::owner(ctx.key, ctx.n_cores);
        if owner == ctx.rx_core {
            Placement::Local
        } else {
            Placement::Core(owner)
        }
    }
}

/// Mixes a source endpoint and message id into the pseudo-key fragments
/// are placed by (the real key only travels in fragment 0, and placement
/// must agree across all fragments of one message).
#[inline]
pub fn fragment_key(src: u64, msg_id: u64) -> u64 {
    let mut z = src ^ msg_id.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::allocate;
    use crate::ranges::LargeRanges;
    use crate::threshold::ThresholdDecision;

    #[test]
    fn quota_rounds_up() {
        assert_eq!(large_rx_quota(32, 7), 5); // 32/7 = 4.57 -> 5
        assert_eq!(large_rx_quota(32, 8), 4);
        assert_eq!(large_rx_quota(32, 1), 32);
        assert_eq!(large_rx_quota(1, 8), 1);
    }

    #[test]
    fn aggregate_drain_rate_covers_large_queues() {
        // n_small small cores together must drain a large queue at >= B
        // per round.
        for n_small in 1..=16 {
            let q = large_rx_quota(32, n_small);
            assert!(q * n_small >= 32, "n_small {n_small}");
        }
    }

    #[test]
    fn schedule_for_dedicated_large_cores() {
        // 6 small cores, large cores 6 and 7.
        let s = drain_schedule(2, 32, 6, 6..8);
        assert_eq!(s.own, (2, 32));
        assert_eq!(s.others, vec![(6, 6), (7, 6)]);
    }

    #[test]
    fn standby_core_does_not_drain_itself_twice() {
        // Standby mode: 8 small cores, handoff core is 7. Core 7's
        // schedule must not list queue 7 twice.
        let s = drain_schedule(7, 32, 8, 7..8);
        assert_eq!(s.own, (7, 32));
        assert!(s.others.is_empty());
        // Other small cores do help drain queue 7.
        let s0 = drain_schedule(0, 32, 8, 7..8);
        assert_eq!(s0.others, vec![(7, 4)]);
    }

    fn test_plan(n_cores: usize, threshold: u64) -> ShardingPlan {
        let decision = ThresholdDecision {
            threshold,
            small_cost_share: 0.75,
            epoch_requests: 0,
        };
        ShardingPlan {
            epoch_id: 1,
            allocation: allocate(n_cores, decision.small_cost_share),
            ranges: LargeRanges::single(),
            decision,
        }
    }

    fn ctx<'a, const N: usize>(
        plan: &'a ShardingPlan,
        depths: &'a [usize; N],
        rx_core: usize,
        key: u64,
        size: Option<u64>,
    ) -> PlaceCtx<'a> {
        PlaceCtx {
            rx_core,
            n_cores: N,
            key,
            size,
            plan,
            depths,
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in DisciplineKind::ALL {
            assert_eq!(DisciplineKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.build().kind(), kind);
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(DisciplineKind::from_name("fifo"), None);
    }

    #[test]
    fn size_aware_mirrors_plan_classification() {
        let plan = test_plan(4, 1000);
        let depths = [0usize; 4];
        let d = DisciplineKind::SizeAware.build();
        assert!(d.needs_size() && !d.pulls_shared(0) && !d.own_rx_only(&plan, 32));
        // Three small cores share the large core's RX queue; it reads none.
        assert_eq!(d.rx_drain(0, &plan, 32).unwrap().others, vec![(3, 11)]);
        assert_eq!(d.rx_drain(3, &plan, 32), None);
        for size in [0u64, 1, 999, 1000, 1001, 1 << 20] {
            let c = ctx(&plan, &depths, 1, 7, Some(size));
            let expect = match plan.classify(size) {
                Destination::Local => Placement::Local,
                Destination::Handoff(t) => Placement::Core(t),
            };
            assert_eq!(d.place(&c), expect, "size {size}");
        }
    }

    #[test]
    fn cfcfs_always_shared() {
        let plan = test_plan(4, 1000);
        let depths = [3usize, 0, 5, 1];
        let d = DisciplineKind::Cfcfs.build();
        assert!(d.pulls_shared(2) && !d.needs_size() && d.own_rx_only(&plan, 32));
        for key in 0..16 {
            let c = ctx(&plan, &depths, (key % 4) as usize, key, None);
            assert_eq!(d.place(&c), Placement::Shared);
        }
        // Fragments can't be shared: they fall back to the shortest
        // queue (core 1 here).
        let c = ctx(&plan, &depths, 0, 42, Some(1 << 20));
        assert_eq!(d.place_fragment(&c), 1);
    }

    #[test]
    fn hkh_executes_everything_where_it_arrived() {
        let plan = test_plan(4, 1000);
        let depths = [9usize, 0, 9, 9];
        let d = DisciplineKind::Hkh.build();
        assert!(!d.needs_size() && !d.pulls_shared(0) && d.own_rx_only(&plan, 32));
        for key in 0..16 {
            for size in [None, Some(10), Some(1 << 20)] {
                let c = ctx(&plan, &depths, (key % 4) as usize, key, size);
                assert_eq!(d.place(&c), Placement::Local);
                assert_eq!(d.place_fragment(&c), c.rx_core);
            }
        }
    }

    #[test]
    fn sho_dispatch_cores_drain_rx_and_workers_pull_the_shared_queue() {
        let plan = test_plan(4, 1000);
        let depths = [0usize; 4];
        let d = DisciplineKind::Sho { handoff: 2 }.build();
        assert!(!d.needs_size() && !d.own_rx_only(&plan, 32));
        // Dispatch cores: their own queue plus half of each worker's.
        let s = d.rx_drain(1, &plan, 32).unwrap();
        assert_eq!(s.own, (1, 32));
        assert_eq!(s.others, vec![(2, 16), (3, 16)]);
        assert!(!d.pulls_shared(0) && !d.pulls_shared(1));
        // Workers: no RX at all, the shared queue instead.
        assert_eq!(d.rx_drain(2, &plan, 32), None);
        assert!(d.pulls_shared(2) && d.pulls_shared(3));
        let mut workers = [false; 4];
        for key in 0..64 {
            let c = ctx(&plan, &depths, (key % 2) as usize, key, Some(1 << 20));
            assert_eq!(d.place(&c), Placement::Shared);
            workers[d.place_fragment(&c)] = true;
        }
        assert_eq!(
            workers,
            [false, false, true, true],
            "fragments go to workers"
        );
    }

    #[test]
    fn dfcfs_is_key_stable_and_spreads() {
        let plan = test_plan(4, 1000);
        let depths = [0usize; 4];
        let d = DisciplineKind::Dfcfs.build();
        let mut hit = [false; 4];
        for key in 0..256u64 {
            let owner = Dfcfs::owner(key, 4);
            hit[owner] = true;
            for rx in 0..4 {
                let c = ctx(&plan, &depths, rx, key, None);
                let expect = if owner == rx {
                    Placement::Local
                } else {
                    Placement::Core(owner)
                };
                // Same key, any RX core, any queue state: same owner.
                assert_eq!(d.place(&c), expect);
            }
        }
        assert!(hit.iter().all(|&h| h), "256 keys must cover all 4 cores");
    }

    #[test]
    fn fragment_key_spreads_sources() {
        // Distinct (src, msg_id) pairs must not collapse onto a few
        // pseudo-keys (that would hot-spot dfcfs placement).
        let mut owners = [0usize; 4];
        for src in 0..16u64 {
            for msg in 0..16u64 {
                owners[(fragment_key(src, msg) % 4) as usize] += 1;
            }
        }
        assert!(owners.iter().all(|&h| h > 32), "skewed: {owners:?}");
    }
}
