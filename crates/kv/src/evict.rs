//! Capacity tiering: CLOCK-style eviction under dual watermarks.
//!
//! The seed store answered [`crate::PutError::OutOfMemory`] the moment
//! the mempool filled — every churn-heavy scenario died at a cliff.
//! This module holds the *policy* side of the capacity subsystem: which
//! victim-selection scheme runs ([`EvictionPolicy`]), and where the
//! watermarks sit ([`Watermarks`]). The
//! *mechanism* — clock hands, victim removal, the per-core capacity
//! tick — lives in [`crate::store`], because it needs the partition
//! internals.
//!
//! ## Dual watermarks
//!
//! Eviction is driven by two thresholds over mempool occupancy,
//! [`HIGH_WATERMARK`] and [`LOW_WATERMARK`] of the capacity:
//!
//! ```text
//!  0 ───────────────── low ──────── high ───────── capacity
//!                       ▲            ▲
//!                       │            └ occupancy > high ⇒ start evicting
//!                       └ evict down to here, then stop (hysteresis:
//!                         the gap keeps eviction from thrashing at one
//!                         threshold)
//! ```
//!
//! After each eviction pass the store *re-measures* occupancy; a pass
//! that could not reclaim anything while still over the high watermark
//! increments an accounting-warning counter (`store.accounting_warnings`)
//! — the signal that occupancy and the item table disagree, gated to
//! zero in CI.
//!
//! ## Size-aware victim selection
//!
//! [`EvictionPolicy::Clock`] evicts the first unreferenced item the
//! hand finds — the classic second-chance scheme, size-blind.
//! [`EvictionPolicy::SizeAwareClock`] is the size-aware twist the paper
//! never explored: the hand collects a small window of unreferenced
//! candidates and evicts the one holding the *largest* block, so
//! reclaiming one large value replaces evicting hundreds of small ones.
//! Under a mixed-size churn the small working set stays resident and
//! the eviction work per reclaimed byte drops by orders of magnitude —
//! which is exactly what keeps the small-request tail flat while the
//! store runs pinned at the high watermark.
//!
//! The window is not free: the hand keeps going until it holds a full
//! window of unreferenced items, where plain CLOCK stops at the first.
//! What bounds that walk is the item table's bitmaps (`items.rs`): the
//! hand crosses 64 slots per load, locks only candidates, and wraps at
//! the allocation high-water mark, so a scan costs the *live* words it
//! crosses — `store.evict_scan_words` counts them, and the churn gate
//! holds them to 64 per victim.

/// Which eviction scheme reclaims mempool capacity under pressure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// No eviction: a full mempool answers `OutOfMemory`, the seed
    /// behavior. TTL expiry still runs.
    #[default]
    None,
    /// Classic CLOCK (second chance): evict the first unreferenced item
    /// the hand finds, regardless of its size.
    Clock,
    /// CLOCK with size-aware victim selection: scan a window of
    /// unreferenced candidates and evict the one with the largest
    /// block, preferring one large reclaim over many small ones.
    SizeAwareClock,
}

impl EvictionPolicy {
    /// The canonical CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::None => "none",
            EvictionPolicy::Clock => "clock",
            EvictionPolicy::SizeAwareClock => "size-aware-clock",
        }
    }

    /// Inverse of [`EvictionPolicy::name`].
    pub fn from_name(name: &str) -> Option<EvictionPolicy> {
        match name {
            "none" => Some(EvictionPolicy::None),
            "clock" => Some(EvictionPolicy::Clock),
            "size-aware-clock" => Some(EvictionPolicy::SizeAwareClock),
            _ => None,
        }
    }
}

/// Capacity-subsystem configuration, carried in
/// [`crate::StoreConfig::capacity`]. The defaults keep the subsystem
/// off ([`EvictionPolicy::None`]) so existing stores behave exactly as
/// before; churn deployments turn it on explicitly.
#[derive(Clone, Copy, Debug)]
pub struct CapacityConfig {
    /// Victim-selection scheme; `None` disables eviction and admission
    /// control entirely.
    pub policy: EvictionPolicy,
    /// Admission control: while occupancy sits at or above the high
    /// watermark, a PUT of at least this many bytes is rejected
    /// *before* reservation (and before any fragment is streamed)
    /// instead of discard-streamed to an `OutOfMemory` reply.
    pub admission_cutoff_bytes: usize,
    /// How many unreferenced candidates the size-aware hand collects
    /// per scan; the pass reclaims them largest-block-first and stops
    /// at the target, so the window's small items survive (ignored by
    /// plain CLOCK, which takes candidates in hand order). Wider
    /// windows find large blocks the hand would otherwise take many
    /// small victims to reach. A scan costs one load per 64-slot bitmap
    /// word the hand crosses plus one slot lock per candidate, so a
    /// wider window locks more slots per scan. A partition with fewer
    /// unreferenced items than the window yields what it has after at
    /// most two sweeps of its *live* words — the hand wraps at the
    /// table's allocation high-water mark, not at its end.
    pub candidate_window: usize,
}

/// Live items each TTL sweep visits per partition per capacity tick.
pub const TTL_SWEEP_ITEMS: usize = 128;

/// Victim budget per capacity tick: bounds how long one tick can stall
/// its core evicting, so reclaim is spread across ticks instead of
/// draining `high − low` bytes in one latency spike. The reservation
/// path is not budgeted — it evicts until the failed PUT fits.
pub const VICTIMS_PER_TICK: u64 = 64;

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig {
            policy: EvictionPolicy::None,
            admission_cutoff_bytes: 64 << 10,
            candidate_window: 32,
        }
    }
}

/// High watermark as a fraction of the mempool capacity: occupancy above
/// it triggers eviction.
pub const HIGH_WATERMARK: f64 = 0.90;

/// Low watermark as a fraction of the mempool capacity: eviction stops
/// once occupancy is back under it.
pub const LOW_WATERMARK: f64 = 0.80;

/// The watermarks resolved against a concrete mempool capacity, in
/// bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watermarks {
    /// Occupancy above this starts an eviction pass.
    pub high_bytes: usize,
    /// Eviction passes stop once occupancy is back at or under this.
    pub low_bytes: usize,
}

impl Watermarks {
    /// [`HIGH_WATERMARK`] and [`LOW_WATERMARK`] of `capacity_bytes`.
    pub(crate) fn of(capacity_bytes: usize) -> Watermarks {
        let frac = |f: f64| (capacity_bytes as f64 * f) as usize;
        Watermarks {
            high_bytes: frac(HIGH_WATERMARK),
            low_bytes: frac(LOW_WATERMARK),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in [
            EvictionPolicy::None,
            EvictionPolicy::Clock,
            EvictionPolicy::SizeAwareClock,
        ] {
            assert_eq!(EvictionPolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(EvictionPolicy::from_name("lru"), None);
    }

    #[test]
    fn watermarks_from_fractions() {
        let wm = Watermarks::of(1000);
        assert_eq!(wm.high_bytes, 900);
        assert_eq!(wm.low_bytes, 800);
    }

    #[test]
    fn degenerate_fractions_stay_ordered() {
        // Truncation never puts low above high, down to an empty pool.
        for capacity in [0, 1, 7, 9, 10, 999, 1 << 20, usize::MAX] {
            let wm = Watermarks::of(capacity);
            assert!(wm.low_bytes <= wm.high_bytes && wm.high_bytes <= capacity);
        }
    }
}
