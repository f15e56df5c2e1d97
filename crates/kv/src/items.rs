//! A partition's item table: mutex-guarded item slots handed out from a
//! LIFO stack of freed slots, else fresh at the high-water mark, plus
//! one-bit-per-slot `occupied` and `referenced` bitmaps
//! so the CLOCK eviction hand and the TTL sweep move 64 slots per load
//! and lock only the slots they act on. The slots are built a chunk at
//! a time as the high-water mark reaches them.

use crate::chunked::Chunked;
use crate::mem::PoolBytes;
use crate::ttl::is_expired;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

#[derive(Debug)]
pub(crate) struct ItemEntry {
    pub(crate) key: u64,
    pub(crate) value: PoolBytes,
    /// Store-clock deadline in ns; [`crate::NO_EXPIRY`] when the key
    /// never expires.
    pub(crate) expires_at: u64,
}

/// What a keyed item-table read found.
pub(crate) enum ItemRead {
    /// Live value (the reference bit was set).
    Hit(PoolBytes),
    /// The key is present but its TTL deadline has passed: report a
    /// miss and let the caller reclaim it lazily.
    Expired,
    /// Slot empty or holding a different key.
    Absent,
}

/// A partition's CLOCK eviction hand: where the next victim scan
/// starts, and the window the last one found. Reused across passes, so
/// a pass allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct ClockHand {
    next: usize,
    /// The last scan's candidate keys with their charges.
    pub(crate) candidates: Vec<(u64, usize)>,
}

/// Item slots per bitmap word.
const WORD_BITS: usize = u64::BITS as usize;

/// The bitmap word holding slot `idx`'s bit, and that bit.
fn word_bit(idx: u32) -> (usize, u64) {
    (idx as usize / WORD_BITS, 1 << (idx as usize % WORD_BITS))
}

/// The set bits of `word`, lowest first.
fn bits(mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            bit
        })
    })
}

#[derive(Debug)]
pub(crate) struct ItemTable {
    /// Built a chunk at a time by [`ItemTable::alloc`]'s fresh-slot
    /// path; a slot in an unbuilt chunk is empty.
    slots: Chunked<Mutex<Option<ItemEntry>>>,
    /// Slots freed since they were first handed out, reused LIFO before
    /// any fresh slot. It grows only as items are freed, so a table that
    /// never churns holds no list of its free slots.
    freed: Mutex<Vec<u32>>,
    /// Bit `i` is set while slot `i` holds an item. Both bitmaps are
    /// written under the slot's mutex and read `Relaxed` by the CLOCK
    /// hand and the TTL sweep, which take that mutex before trusting a
    /// bit — the bits select slots, they publish nothing.
    occupied: Box<[AtomicU64]>,
    /// CLOCK reference bits: set on every GET hit and on replacement,
    /// cleared by the eviction hand's first pass over the slot. New
    /// items start *unreferenced* (scan resistance): a churned key that
    /// is written once and never read again holds no second chance, so
    /// one-touch traffic cannot flush the actually-hot set. `None` with
    /// eviction off, so a GET then touches no bitmap at all.
    referenced: Option<Box<[AtomicU64]>>,
    /// One past the highest slot ever allocated, and the next fresh slot:
    /// live items sit below it, and the walks wrap here instead of
    /// crossing the never-used tail of the table.
    high_water: AtomicUsize,
}

impl ItemTable {
    pub(crate) fn new(capacity: usize, track_references: bool) -> Self {
        let bitmap = || (0..capacity.div_ceil(WORD_BITS)).map(|_| AtomicU64::new(0));
        ItemTable {
            slots: Chunked::new(capacity),
            freed: Mutex::new(Vec::new()),
            occupied: bitmap().collect(),
            referenced: track_references.then(|| bitmap().collect()),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Slot `idx`, or `None` while its chunk is unbuilt.
    #[inline]
    fn slot(&self, idx: u32) -> Option<&Mutex<Option<ItemEntry>>> {
        self.slots.get(idx as usize)
    }

    /// Sets slot `idx`'s reference bit. Load first: a hot key's bit is
    /// already set, and a plain load keeps its cache line shared.
    fn reference(&self, idx: u32) {
        if let Some(referenced) = &self.referenced {
            let (w, bit) = word_bit(idx);
            if referenced[w].load(Ordering::Relaxed) & bit == 0 {
                referenced[w].fetch_or(bit, Ordering::Relaxed);
            }
        }
    }

    /// Places an item in the most recently freed slot, or else in the
    /// lowest never-used one — one fixed order, which the CLOCK hand's
    /// victim sequences follow.
    pub(crate) fn alloc(&self, key: u64, value: PoolBytes, expires_at: u64) -> Option<u32> {
        let (idx, slot) = match self.freed.lock().pop() {
            Some(idx) => (idx, self.slot(idx).expect("a freed slot was built")),
            None => {
                let fresh = self
                    .high_water
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |fresh| {
                        (fresh < self.slots.len()).then_some(fresh + 1)
                    })
                    .ok()?;
                (fresh as u32, self.slots.build(fresh))
            }
        };
        *slot.lock() = Some(ItemEntry {
            key,
            value,
            expires_at,
        });
        let (w, bit) = word_bit(idx);
        self.occupied[w].fetch_or(bit, Ordering::Relaxed);
        Some(idx)
    }

    pub(crate) fn replace(&self, idx: u32, value: PoolBytes, expires_at: u64) {
        let mut slot = self.slot(idx).expect("replace of a live item").lock();
        let entry = slot.as_mut().expect("replace of a live item");
        entry.value = value;
        entry.expires_at = expires_at;
        self.reference(idx);
    }

    /// Frees the slot, returning the entry it held (the value's pool
    /// charge releases when the returned entry drops).
    pub(crate) fn free(&self, idx: u32) -> Option<ItemEntry> {
        let entry = {
            let mut slot = self.slot(idx).expect("free of a built slot").lock();
            let (w, bit) = word_bit(idx);
            self.occupied[w].fetch_and(!bit, Ordering::Relaxed);
            if let Some(referenced) = &self.referenced {
                // Victims are unreferenced: usually nothing to clear.
                if referenced[w].load(Ordering::Relaxed) & bit != 0 {
                    referenced[w].fetch_and(!bit, Ordering::Relaxed);
                }
            }
            slot.take()
        };
        self.freed.lock().push(idx);
        entry
    }

    /// Bytes the table holds: the built slots, both bitmaps and the
    /// freed stack's capacity.
    pub(crate) fn footprint_bytes(&self) -> usize {
        let words = self.occupied.len() * (1 + usize::from(self.referenced.is_some()));
        self.slots.footprint_bytes()
            + words * std::mem::size_of::<AtomicU64>()
            + self.freed.lock().capacity() * std::mem::size_of::<u32>()
    }

    /// Reads the item at `idx` if it currently holds `key`, checking
    /// its TTL deadline against the store clock and setting the CLOCK
    /// reference bit on a hit.
    pub(crate) fn read(&self, idx: u32, key: u64, now_ns: u64) -> ItemRead {
        let Some(slot) = self.slot(idx) else {
            return ItemRead::Absent;
        };
        match &*slot.lock() {
            Some(e) if e.key == key => {
                if is_expired(e.expires_at, now_ns) {
                    ItemRead::Expired
                } else {
                    self.reference(idx);
                    ItemRead::Hit(e.value.clone())
                }
            }
            _ => ItemRead::Absent,
        }
    }

    /// The key stored at `idx`, if any (writer-side use only).
    pub(crate) fn key_at(&self, idx: u32) -> Option<u64> {
        self.slot(idx)?.lock().as_ref().map(|e| e.key)
    }

    /// The TTL deadline of the item at `idx`, if live (writer-side).
    pub(crate) fn expires_at(&self, idx: u32) -> Option<u64> {
        self.slot(idx)?.lock().as_ref().map(|e| e.expires_at)
    }

    /// Walks the slots from `from` for up to `sweeps` turns of the
    /// allocated part of the table, one bitmap word (or the in-range
    /// part of one) per step: `visit(word, mask)` gets the word index
    /// and the mask of the bits in range, and returning `Some(bit)`
    /// ends the walk just past that bit. Returns the slot the next walk
    /// starts from and the number of words visited.
    fn walk(
        &self,
        from: usize,
        sweeps: usize,
        mut visit: impl FnMut(usize, u64) -> Option<u32>,
    ) -> (usize, u64) {
        let end = self.high_water.load(Ordering::Relaxed);
        let (mut idx, mut left, mut words) = (from, end * sweeps, 0);
        while left > 0 {
            // Wrap only when moving on: a walk that stopped at the mark
            // resumes there once the table has grown past it.
            if idx == end {
                idx = 0;
            }
            let first = idx % WORD_BITS;
            let span = (WORD_BITS - first).min(end - idx).min(left);
            words += 1;
            if let Some(stop) = visit(idx / WORD_BITS, (u64::MAX >> (WORD_BITS - span)) << first) {
                return (idx - first + stop as usize + 1, words);
            }
            left -= span;
            idx += span;
        }
        // Whole turns end where they began.
        (from, words)
    }

    /// Advances the CLOCK hand until `window` unreferenced items are in
    /// `hand.candidates` (in hand order) or it has swept the table
    /// twice; returns the bitmap words it visited. In each word
    /// `occupied & !referenced` are the candidates, and only a
    /// candidate's slot is locked (for its key and charge, and to check
    /// it is still there); referenced slots lose their bit as the hand
    /// passes (second chance), so the second sweep finds every live
    /// item a candidate — some of them, then, twice.
    pub(crate) fn find_cold(&self, hand: &mut ClockHand, window: usize) -> u64 {
        let ClockHand { next, candidates } = hand;
        candidates.clear();
        let Some(referenced) = self.referenced.as_deref() else {
            return 0;
        };
        let (resume, words) = self.walk(*next, 2, |w, mask| {
            let occupied = self.occupied[w].load(Ordering::Relaxed) & mask;
            if occupied == 0 {
                return None;
            }
            let warm = referenced[w].load(Ordering::Relaxed) & occupied;
            let mut passed = u64::MAX;
            let mut stop = None;
            for bit in bits(occupied & !warm) {
                let Some(slot) = self.slot((w * WORD_BITS) as u32 + bit) else {
                    continue;
                };
                if let Some(e) = &*slot.lock() {
                    candidates.push((e.key, e.value.charged_bytes()));
                    if candidates.len() == window {
                        // The hand rests here: later slots keep their bits.
                        passed >>= WORD_BITS - 1 - bit as usize;
                        stop = Some(bit);
                        break;
                    }
                }
            }
            if warm & passed != 0 {
                referenced[w].fetch_and(!(warm & passed), Ordering::Relaxed);
            }
            stop
        });
        *next = resume;
        words
    }

    /// Calls `visit(key, expires_at)` for the next `budget` live items
    /// from slot `from` (at most one turn of the table), with no slot
    /// locked during the call; returns where the next sweep starts.
    pub(crate) fn sweep_live(
        &self,
        from: usize,
        mut budget: usize,
        mut visit: impl FnMut(u64, u64),
    ) -> usize {
        if budget == 0 {
            return from;
        }
        let (resume, _) = self.walk(from, 1, |w, mask| {
            for bit in bits(self.occupied[w].load(Ordering::Relaxed) & mask) {
                let item = self
                    .slot((w * WORD_BITS) as u32 + bit)
                    .and_then(|s| s.lock().as_ref().map(|e| (e.key, e.expires_at)));
                if let Some((key, expires_at)) = item {
                    visit(key, expires_at);
                }
                budget -= 1;
                if budget == 0 {
                    return Some(bit);
                }
            }
            None
        });
        resume
    }

    /// Sums the capacity charge of every live item (a lock per built
    /// slot).
    pub(crate) fn audit_charged_bytes(&self) -> usize {
        self.slots
            .iter_built()
            .map(|s| s.lock().as_ref().map_or(0, |e| e.value.charged_bytes()))
            .sum()
    }

    /// `(occupied, referenced)` as the bitmaps have slot `idx`.
    fn slot_bits(&self, idx: usize) -> (bool, bool) {
        let (w, bit) = word_bit(idx as u32);
        let set = |bitmap: &[AtomicU64]| bitmap[w].load(Ordering::Relaxed) & bit != 0;
        (
            set(&self.occupied),
            self.referenced.as_deref().is_some_and(set),
        )
    }

    /// Cross-checks the bitmaps against the slots: an `occupied` bit
    /// must say whether its slot holds an item (and lie below the
    /// high-water mark), only an occupied slot may be referenced, and
    /// every slot below the mark must be built (unbuilt ones are
    /// empty). Returns the number of occupied slots, or the first slot
    /// that disagrees.
    pub(crate) fn audit_bitmaps(&self) -> Result<u64, usize> {
        let high_water = self.high_water.load(Ordering::Relaxed);
        let mut live = 0;
        for i in 0..self.slots.len() {
            let (occupied, referenced) = self.slot_bits(i);
            let slot = self.slot(i as u32);
            if occupied != slot.is_some_and(|s| s.lock().is_some())
                || (i < high_water && slot.is_none())
                || (occupied && i >= high_water)
                || (referenced && !occupied)
            {
                return Err(i);
            }
            live += u64::from(occupied);
        }
        Ok(live)
    }

    /// The reference bit of every slot (`None` with eviction off).
    #[cfg(test)]
    pub(crate) fn reference_bits(&self) -> Option<Vec<bool>> {
        self.referenced.as_ref()?;
        Some((0..self.slots.len()).map(|i| self.slot_bits(i).1).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::CHUNK;
    use crate::mem::Mempool;
    use crate::ttl::NO_EXPIRY;

    /// Random allocs and frees against the freelist the table used to
    /// keep — every slot, lowest on top, freed slots pushed back — which
    /// the CLOCK hand's victim order depends on.
    #[test]
    fn slots_come_out_in_the_full_freelists_order() {
        let pool = Mempool::new(1 << 20, 64);
        for seed in 1..=8u64 {
            for track_references in [false, true] {
                let table = ItemTable::new(200, track_references);
                let mut model: Vec<u32> = (0..200).rev().collect();
                let (mut live, mut refused) = (Vec::new(), 0);
                let mut rng = seed;
                for step in 0..5_000u64 {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    if rng % 3 != 0 || live.is_empty() {
                        let value = pool.alloc_from(b"v").unwrap();
                        let idx = table.alloc(step, value, NO_EXPIRY);
                        assert_eq!(idx, model.pop(), "seed {seed} step {step}");
                        live.extend(idx);
                        refused += u32::from(idx.is_none());
                    } else {
                        let idx = live.swap_remove((rng >> 8) as usize % live.len());
                        assert!(table.free(idx).is_some());
                        model.push(idx);
                    }
                    assert_eq!(table.audit_bitmaps(), Ok(live.len() as u64));
                }
                assert!(refused > 0, "seed {seed}: the table never filled");
            }
        }
    }

    /// Fresh slots build their chunk; freeing builds and drops nothing.
    #[test]
    fn slot_chunks_are_built_as_the_high_water_mark_reaches_them() {
        let pool = Mempool::new(1 << 24, 64);
        let table = ItemTable::new(100_000, true);
        let charge = pool.alloc_from(b"v").unwrap().charged_bytes();
        let alloc = |key: u64| {
            let value = pool.alloc_from(b"v").unwrap();
            table.alloc(key, value, NO_EXPIRY).unwrap()
        };
        let mut live = vec![alloc(0)];
        assert_eq!(table.slots.built_chunks(), 1);
        assert_eq!(table.audit_bitmaps(), Ok(1));
        assert_eq!(table.audit_charged_bytes(), charge);
        live.extend((1..CHUNK as u64).map(alloc));
        assert_eq!(table.slots.built_chunks(), 1, "one chunk holds {CHUNK}");
        live.push(alloc(CHUNK as u64));
        assert_eq!(table.slots.built_chunks(), 2);
        assert_eq!(table.audit_bitmaps(), Ok(CHUNK as u64 + 1));
        assert_eq!(table.audit_charged_bytes(), (CHUNK + 1) * charge);
        for idx in live {
            assert!(table.free(idx).is_some());
        }
        assert_eq!(table.slots.built_chunks(), 2);
        assert_eq!(table.audit_bitmaps(), Ok(0));
        assert_eq!(table.audit_charged_bytes(), 0);
    }
}
