//! One-copy large-PUT ingest: the [`PutIngest`] fragment sink.
//!
//! The old ingest path for a fragmented PUT did double work the paper's
//! DPDK prototype never would: the reassembler concatenated every
//! fragment into a fresh contiguous buffer (one full copy plus a large
//! allocation), `Message::decode` sliced it, and `Store::put` copied the
//! value a second time into its mempool block — all while the pooled RX
//! slots of *every* fragment stayed checked out until the message
//! completed.
//!
//! [`PutIngest`] is the sink a
//! [`StreamingReassembler`](minos_wire::StreamingReassembler) streams
//! fragments into instead. On the message's first-seen fragment it
//! reserves the value's **final mempool block** from the size in the
//! fragment header (the size is on the wire, so no lookup and no
//! buffering is needed to allocate — paper §3); each subsequent chunk is
//! copied once, straight to its final offset; the 32-byte application
//! header is captured on the side. Completion seals the reservation and
//! commits it with [`Store::put_reserved`] — the value moved wire →
//! store exactly once, and the store's `copied_bytes` gauge proves it.
//!
//! Memory pressure degrades gracefully: when the reservation fails, the
//! ingest switches to *discard mode* — it still consumes fragments (so
//! the message completes and the header is captured) but drops value
//! bytes, and the commit answers `OutOfMemory`, exactly like the old
//! reassemble-then-fail path, without ever holding message-sized memory.

use minos_kv::{PoolBytesMut, PutError, Store};
use minos_wire::frag::{FragHeader, FragmentWriter};
use minos_wire::message::{
    Body, Message, OpKind, ReplyStatus, MSG_HEADER_LEN, PUT_TTL_FLAG, PUT_TTL_TAIL_LEN,
};
use minos_wire::MAX_FRAG_CHUNK;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Discard-mode ingests (large PUTs accepted without a mempool
/// reservation, only to answer `OutOfMemory`) one source endpoint may
/// hold at once in a server's [`DiscardQuota`]. Over-quota opens get an
/// immediate `OutOfMemory` and count in `ingest.discard_quota_rejects`.
pub const DISCARD_QUOTA_PER_SOURCE: u32 = 8;

/// Caps how many discard-mode ingests one source endpoint may hold
/// concurrently. Discard mode exists so a PUT that finds the mempool
/// full still completes with an honest `OutOfMemory` reply — but each
/// one occupies a partial-reassembly slot while consuming fragments,
/// and those slots are a shared, bounded resource. Without a bound, one
/// client spraying large PUTs at a memory-starved server monopolizes
/// the reassembler and starves every other client's (payable)
/// requests. Slots are charged per source on open and released when the
/// ingest commits, is dropped as malformed, or is evicted as stale.
pub struct DiscardQuota {
    per_source: u32,
    inner: Mutex<HashMap<u64, u32>>,
    rejects: AtomicU64,
}

impl DiscardQuota {
    /// A quota allowing `per_source` concurrent discard-mode ingests
    /// per source endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `per_source` is zero (a zero quota would turn every
    /// memory-pressure PUT into a silent drop).
    pub fn new(per_source: u32) -> Arc<Self> {
        assert!(per_source > 0, "discard quota must be positive");
        Arc::new(DiscardQuota {
            per_source,
            inner: Mutex::new(HashMap::new()),
            rejects: AtomicU64::new(0),
        })
    }

    /// Charges one discard slot to `src`, or counts a reject when the
    /// source is already at its cap.
    pub fn try_acquire(self: &Arc<Self>, src: u64) -> Option<DiscardToken> {
        {
            let mut map = self.inner.lock();
            let held = map.entry(src).or_insert(0);
            if *held < self.per_source {
                *held += 1;
                return Some(DiscardToken {
                    quota: Arc::clone(self),
                    src,
                });
            }
        }
        self.rejects.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Over-quota opens rejected so far. Note the reassembler re-runs a
    /// rejected message's open on each of its later fragments, so one
    /// over-quota *message* contributes one reject per fragment seen.
    pub fn rejects(&self) -> u64 {
        self.rejects.load(Ordering::Relaxed)
    }
}

/// RAII charge of one discard slot, released on drop — which happens on
/// commit, on a malformed-message drop, and on stale-partial eviction
/// alike, so the quota can never leak.
pub struct DiscardToken {
    quota: Arc<DiscardQuota>,
    src: u64,
}

impl Drop for DiscardToken {
    fn drop(&mut self) {
        let mut map = self.quota.inner.lock();
        if let Some(held) = map.get_mut(&self.src) {
            *held -= 1;
            if *held == 0 {
                map.remove(&self.src);
            }
        }
    }
}

impl std::fmt::Debug for DiscardToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscardToken")
            .field("src", &self.src)
            .finish()
    }
}

/// Outcome of a quota-checked [`PutIngest::open_bounded`].
#[derive(Debug)]
pub enum OpenOutcome {
    /// The ingest opened (reserved, or in-quota discard mode).
    Open(PutIngest),
    /// The fragment geometry cannot be a valid message.
    Malformed,
    /// No ingest state should be opened and the caller should answer
    /// `OutOfMemory` straight from the fragment in hand: either the
    /// mempool is full and `src` is at its discard quota, or the
    /// store's admission control turned the PUT away *before*
    /// reservation (over the high watermark with an over-large value —
    /// streaming it, even in discard mode, would be wasted work).
    OverQuota,
}

/// A committed streamed PUT: everything the server needs to build the
/// reply, recovered from the streamed application header.
#[derive(Clone, Copy, Debug)]
pub struct CompletedPut {
    /// Echoed client identifier.
    pub client_id: u16,
    /// Echoed request identifier.
    pub request_id: u64,
    /// Echoed client send timestamp.
    pub client_ts_ns: u64,
    /// The key written.
    pub key: u64,
    /// Outcome of the commit.
    pub status: ReplyStatus,
    /// The value length, for size-class accounting.
    pub value_len: usize,
}

impl CompletedPut {
    /// True when the written item is large under the wire cost model
    /// (it spans more than one fragment chunk).
    pub fn is_large(&self) -> bool {
        self.value_len > MAX_FRAG_CHUNK
    }

    /// The reply message for this PUT.
    pub fn reply(&self) -> Message {
        Message {
            client_id: self.client_id,
            request_id: self.request_id,
            client_ts_ns: self.client_ts_ns,
            body: minos_wire::message::Body::PutReply {
                status: self.status,
                key: self.key,
            },
        }
    }
}

/// A streaming large-PUT in flight: the 32-byte application header
/// captured on the side, and the value's mempool reservation being
/// filled fragment by fragment.
#[derive(Debug)]
pub struct PutIngest {
    header: [u8; MSG_HEADER_LEN],
    /// `None` in discard mode: the mempool had no room when the message
    /// was first seen, so value bytes are dropped and the commit
    /// answers `OutOfMemory`.
    reservation: Option<PoolBytesMut>,
    value_len: usize,
    /// The stream's final [`PUT_TTL_TAIL_LEN`] bytes, captured on the
    /// side as they are written: if the header's [`PUT_TTL_FLAG`] is
    /// set, they are the big-endian TTL tail, not value bytes. The
    /// ingest can't know before fragment 0 arrives (any fragment may be
    /// first), so the tail is captured unconditionally and interpreted
    /// at commit.
    tail: [u8; PUT_TTL_TAIL_LEN],
    /// The discard-quota slot this ingest holds while in discard mode
    /// (kept purely for its release-on-drop effect).
    _discard_token: Option<DiscardToken>,
}

impl PutIngest {
    /// Opens an ingest for the message described by `fh`, reserving its
    /// value's mempool block from the length in the fragment header.
    /// Returns `None` for geometrically impossible messages (shorter
    /// than an application header); a failed reservation is *not* a
    /// `None` — it opens in discard mode so the request still completes
    /// with an honest `OutOfMemory` reply.
    pub fn open(store: &Store, fh: &FragHeader) -> Option<PutIngest> {
        let msg_len = fh.msg_len as usize;
        let value_len = msg_len.checked_sub(MSG_HEADER_LEN)?;
        // Admission control runs before reservation: a PUT turned away
        // at the high watermark opens in discard mode straight off,
        // without an eviction pass on its behalf.
        let reservation = if store.admit_put(value_len) {
            store.reserve(value_len)
        } else {
            None
        };
        Some(PutIngest {
            header: [0u8; MSG_HEADER_LEN],
            reservation,
            value_len,
            tail: [0u8; PUT_TTL_TAIL_LEN],
            _discard_token: None,
        })
    }

    /// [`PutIngest::open`] with discard-mode admission control: a
    /// failed reservation may only fall back to discard mode while
    /// `src` holds fewer than the quota's cap of discard slots.
    /// Over-quota opens return [`OpenOutcome::OverQuota`] — no ingest
    /// state is created, the reject is counted, and the caller can
    /// answer `OutOfMemory` straight from the fragment in hand.
    pub fn open_bounded(
        store: &Store,
        fh: &FragHeader,
        src: u64,
        quota: &Arc<DiscardQuota>,
    ) -> OpenOutcome {
        let msg_len = fh.msg_len as usize;
        let Some(value_len) = msg_len.checked_sub(MSG_HEADER_LEN) else {
            return OpenOutcome::Malformed;
        };
        if !store.admit_put(value_len) {
            // Rejected before reservation: no eviction pass, no discard
            // streaming — the caller replies `OutOfMemory` immediately.
            return OpenOutcome::OverQuota;
        }
        let reservation = store.reserve(value_len);
        let token = if reservation.is_none() {
            match quota.try_acquire(src) {
                Some(token) => Some(token),
                None => return OpenOutcome::OverQuota,
            }
        } else {
            None
        };
        OpenOutcome::Open(PutIngest {
            header: [0u8; MSG_HEADER_LEN],
            reservation,
            value_len,
            tail: [0u8; PUT_TTL_TAIL_LEN],
            _discard_token: token,
        })
    }

    /// Commits the completed ingest: validates the streamed header
    /// (kind, length consistency), seals the reservation and splices it
    /// into the store under the bucket lock. Returns `None` when the
    /// streamed bytes were not a well-formed PUT request — the caller
    /// counts it malformed, and dropping `self` releases the
    /// reservation.
    pub fn commit(self, store: &Store) -> Option<CompletedPut> {
        // The header was filled by fragment 0 (MSG_HEADER_LEN is far
        // below one chunk).
        let put = parse_put_header(&self.header)?;
        let has_ttl = put.flags & PUT_TTL_FLAG != 0;
        let tail_len = if has_ttl { PUT_TTL_TAIL_LEN } else { 0 };
        if put.wire_value_len.checked_add(tail_len)? != self.value_len {
            // The header's value length disagrees with the fragment
            // geometry: a forged or corrupted message.
            return None;
        }
        let ttl_ms = if has_ttl {
            u64::from_be_bytes(self.tail)
        } else {
            0
        };
        let PutHeader {
            client_id,
            request_id,
            client_ts_ns,
            key,
            ..
        } = put;
        let status = match self.reservation {
            None => ReplyStatus::OutOfMemory,
            Some(mut reservation) => {
                // The reservation was sized from the fragment geometry,
                // which includes the TTL tail; shed it so only value
                // bytes are stored.
                reservation.truncate(put.wire_value_len);
                match store.put_reserved_with_ttl(key, reservation.seal(), ttl_ms) {
                    Ok(()) => ReplyStatus::Ok,
                    Err(PutError::OutOfMemory) | Err(PutError::TableFull) => {
                        ReplyStatus::OutOfMemory
                    }
                }
            }
        };
        Some(CompletedPut {
            client_id,
            request_id,
            client_ts_ns,
            key,
            status,
            value_len: put.wire_value_len,
        })
    }
}

/// The identifying fields of a PUT request's 32-byte wire header.
struct PutHeader {
    /// The request flag bits (a PUT's status byte); [`PUT_TTL_FLAG`]
    /// marks a trailing TTL field.
    flags: u8,
    client_id: u16,
    request_id: u64,
    client_ts_ns: u64,
    key: u64,
    wire_value_len: usize,
}

/// Parses a PUT request's application header in the exact wire layout
/// `Message::decode` reads: kind(1) status(1) client_id(2)
/// request_id(8) ts(8) key(8) value_len(4), all big-endian. `None` for
/// any other kind.
fn parse_put_header(h: &[u8; MSG_HEADER_LEN]) -> Option<PutHeader> {
    if h[0] != OpKind::PutRequest as u8 {
        return None;
    }
    Some(PutHeader {
        flags: h[1],
        client_id: u16::from_be_bytes([h[2], h[3]]),
        request_id: u64::from_be_bytes(h[4..12].try_into().expect("8 bytes")),
        client_ts_ns: u64::from_be_bytes(h[12..20].try_into().expect("8 bytes")),
        key: u64::from_be_bytes(h[20..28].try_into().expect("8 bytes")),
        wire_value_len: u32::from_be_bytes(h[28..32].try_into().expect("4 bytes")) as usize,
    })
}

/// Builds the immediate `OutOfMemory` reply for a PUT the discard
/// quota refused before any ingest state was opened, straight from the
/// raw chunk of its *first* fragment (fragment-header already stripped)
/// — the one fragment that carries the application header. Returns `None` when
/// the chunk doesn't hold a PUT header (a later fragment of the
/// refused message, or not a PUT at all): those fragments are simply
/// dropped, and the client's retransmission handles the rest (§4.1).
pub fn rejected_put_reply(chunk: &[u8]) -> Option<Message> {
    if chunk.len() < MSG_HEADER_LEN {
        return None;
    }
    let mut h = [0u8; MSG_HEADER_LEN];
    h.copy_from_slice(&chunk[..MSG_HEADER_LEN]);
    let put = parse_put_header(&h)?;
    Some(Message {
        client_id: put.client_id,
        request_id: put.request_id,
        client_ts_ns: put.client_ts_ns,
        body: Body::PutReply {
            status: ReplyStatus::OutOfMemory,
            key: put.key,
        },
    })
}

impl FragmentWriter for PutIngest {
    fn write_at(&mut self, offset: usize, chunk: &[u8]) {
        let (header_part, value_part) = if offset < MSG_HEADER_LEN {
            let n = (MSG_HEADER_LEN - offset).min(chunk.len());
            self.header[offset..offset + n].copy_from_slice(&chunk[..n]);
            (n, &chunk[n..])
        } else {
            (0, chunk)
        };
        if !value_part.is_empty() {
            let value_offset = offset + header_part - MSG_HEADER_LEN;
            if let Some(reservation) = &mut self.reservation {
                reservation.write_at(value_offset, value_part);
            }
            // Capture the stream's last bytes on the side for the TTL
            // tail (runs in discard mode too — the value bytes are
            // dropped, but a TTL'd PUT's geometry still validates).
            let tail_start = self.value_len.saturating_sub(PUT_TTL_TAIL_LEN);
            let end = (value_offset + value_part.len()).min(self.value_len);
            let from = tail_start.max(value_offset);
            if from < end {
                self.tail[from - tail_start..end - tail_start]
                    .copy_from_slice(&value_part[from - value_offset..end - value_offset]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_kv::StoreConfig;
    use minos_wire::frag::{fragment_with_id, Streamed, StreamingReassembler};
    use minos_wire::message::Body;

    fn test_store() -> Store {
        Store::new(StoreConfig::for_items(2, 1_000, 16 << 20))
    }

    fn put_message(key: u64, value: Vec<u8>) -> Message {
        Message {
            client_id: 3,
            request_id: 77,
            client_ts_ns: 123,
            body: Body::Put {
                key,
                value: bytes::Bytes::from(value),
                ttl_ms: 0,
            },
        }
    }

    fn stream_message(
        store: &Store,
        reassembler: &mut StreamingReassembler<PutIngest>,
        msg_id: u64,
        msg: &Message,
        order: impl Iterator<Item = usize>,
    ) -> Option<PutIngest> {
        let frags = fragment_with_id(msg_id, &msg.encode());
        let mut done = None;
        for i in order {
            match reassembler.push(1, frags[i].clone(), |fh| PutIngest::open(store, fh)) {
                Streamed::Complete(w) => done = Some(w),
                Streamed::Incomplete => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        done
    }

    #[test]
    fn streamed_put_commits_byte_identical_value() {
        let store = test_store();
        let value: Vec<u8> = (0..50_000).map(|i| (i % 241) as u8).collect();
        let msg = put_message(42, value.clone());
        let mut r = StreamingReassembler::new(16);
        let ingest =
            stream_message(&store, &mut r, 1, &msg, 0..msg.wire_packets() as usize).unwrap();
        let done = ingest.commit(&store).unwrap();
        assert_eq!(done.status, ReplyStatus::Ok);
        assert_eq!(done.key, 42);
        assert_eq!(done.client_id, 3);
        assert_eq!(done.request_id, 77);
        assert_eq!(done.client_ts_ns, 123);
        assert!(done.is_large());
        assert_eq!(&store.get(42).unwrap()[..], &value[..]);
        assert_eq!(
            store.mempool().stats().copied_bytes,
            value.len() as u64,
            "exactly value_len bytes copied end to end"
        );
    }

    #[test]
    fn streamed_put_tolerates_any_fragment_order() {
        let store = test_store();
        let value: Vec<u8> = (0..10_000).map(|i| (i % 239) as u8).collect();
        let msg = put_message(7, value.clone());
        let n = msg.wire_packets() as usize;
        let mut r = StreamingReassembler::new(16);
        let ingest = stream_message(&store, &mut r, 2, &msg, (0..n).rev()).unwrap();
        assert_eq!(ingest.commit(&store).unwrap().status, ReplyStatus::Ok);
        assert_eq!(&store.get(7).unwrap()[..], &value[..]);
    }

    #[test]
    fn oom_ingest_discards_but_still_replies() {
        let store = Store::new(StoreConfig {
            partitions: 1,
            buckets_per_partition: 8,
            overflow_per_partition: 4,
            items_per_partition: 32,
            mempool_bytes: 1024,
            max_value_bytes: 1 << 20,
            capacity: Default::default(),
        });
        let value = vec![9u8; 20_000];
        let msg = put_message(5, value);
        let n = msg.wire_packets() as usize;
        let mut r = StreamingReassembler::new(16);
        let ingest = stream_message(&store, &mut r, 3, &msg, 0..n).unwrap();
        let done = ingest.commit(&store).unwrap();
        assert_eq!(done.status, ReplyStatus::OutOfMemory);
        assert_eq!(done.request_id, 77, "the reply still echoes the request");
        assert!(store.get(5).is_none());
        assert_eq!(store.mempool().used_bytes(), 0);
        assert_eq!(store.stats().put_failures, 1);
    }

    #[test]
    fn non_put_multi_fragment_message_is_malformed() {
        let store = test_store();
        // Forge a multi-fragment GET-kind message with a padded body:
        // geometry is consistent, but the kind/value_len make no sense.
        let mut raw = put_message(1, vec![1u8; 5_000]).encode().to_vec();
        raw[0] = OpKind::GetRequest as u8;
        let frags = fragment_with_id(4, &raw);
        let mut r = StreamingReassembler::new(16);
        let mut done = None;
        for f in &frags {
            if let Streamed::Complete(w) = r.push(1, f.clone(), |fh| PutIngest::open(&store, fh)) {
                done = Some(w);
            }
        }
        assert!(done.unwrap().commit(&store).is_none());
        assert_eq!(store.mempool().used_bytes(), 0, "reservation released");
    }

    fn oom_store() -> Store {
        Store::new(StoreConfig {
            partitions: 1,
            buckets_per_partition: 8,
            overflow_per_partition: 4,
            items_per_partition: 32,
            mempool_bytes: 1024,
            max_value_bytes: 1 << 20,
            capacity: Default::default(),
        })
    }

    fn large_frag_header() -> FragHeader {
        FragHeader {
            msg_id: 9,
            index: 0,
            count: 15,
            msg_len: (MSG_HEADER_LEN + 20_000) as u32,
            accepts_bundles: false,
        }
    }

    #[test]
    fn discard_quota_bounds_per_source() {
        let store = oom_store();
        let quota = DiscardQuota::new(1);
        let fh = large_frag_header();
        // The mempool has no room, so this opens in discard mode and
        // charges source 1's only slot...
        let first = match PutIngest::open_bounded(&store, &fh, 1, &quota) {
            OpenOutcome::Open(i) => i,
            other => panic!("expected in-quota discard open, got {other:?}"),
        };
        assert!(first.reservation.is_none(), "discard mode");
        // ...so source 1's next open is rejected, while source 2 still
        // gets its own slot.
        assert!(matches!(
            PutIngest::open_bounded(&store, &fh, 1, &quota),
            OpenOutcome::OverQuota
        ));
        assert_eq!(quota.rejects(), 1);
        assert!(matches!(
            PutIngest::open_bounded(&store, &fh, 2, &quota),
            OpenOutcome::Open(_)
        ));
        // Dropping the held ingest releases the slot.
        drop(first);
        assert!(matches!(
            PutIngest::open_bounded(&store, &fh, 1, &quota),
            OpenOutcome::Open(_)
        ));
        assert_eq!(quota.rejects(), 1, "in-quota opens are not rejects");
    }

    #[test]
    fn reserved_ingests_do_not_charge_quota() {
        let store = test_store();
        let quota = DiscardQuota::new(1);
        let fh = large_frag_header();
        // Plenty of mempool: both opens reserve, neither touches the
        // quota even though the per-source cap is 1.
        let a = PutIngest::open_bounded(&store, &fh, 1, &quota);
        let b = PutIngest::open_bounded(&store, &fh, 1, &quota);
        assert!(matches!(a, OpenOutcome::Open(ref i) if i.reservation.is_some()));
        assert!(matches!(b, OpenOutcome::Open(ref i) if i.reservation.is_some()));
        assert_eq!(quota.rejects(), 0);
    }

    #[test]
    fn rejected_put_reply_echoes_identifiers() {
        let enc = put_message(5, vec![1u8; 20_000]).encode();
        let reply = rejected_put_reply(&enc).expect("fragment 0 carries the header");
        assert_eq!(reply.client_id, 3);
        assert_eq!(reply.request_id, 77);
        assert_eq!(reply.client_ts_ns, 123);
        match reply.body {
            Body::PutReply { status, key } => {
                assert_eq!(status, ReplyStatus::OutOfMemory);
                assert_eq!(key, 5);
            }
            other => panic!("unexpected body {other:?}"),
        }
        // A later fragment's chunk (no header) and a non-PUT header
        // both yield no reply.
        assert!(rejected_put_reply(&enc[..10]).is_none());
        let mut get = enc.to_vec();
        get[0] = OpKind::GetRequest as u8;
        assert!(rejected_put_reply(&get).is_none());
    }

    #[test]
    fn streamed_ttl_put_round_trips_and_expires() {
        let store = test_store();
        let value: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
        let msg = Message {
            client_id: 3,
            request_id: 78,
            client_ts_ns: 123,
            body: Body::Put {
                key: 11,
                value: bytes::Bytes::from(value.clone()),
                ttl_ms: 5,
            },
        };
        let n = msg.wire_packets() as usize;
        let mut r = StreamingReassembler::new(16);
        // Reverse order: the TTL tail must be captured correctly even
        // when the final fragment arrives first.
        let ingest = stream_message(&store, &mut r, 6, &msg, (0..n).rev()).unwrap();
        let done = ingest.commit(&store).unwrap();
        assert_eq!(done.status, ReplyStatus::Ok);
        assert_eq!(done.value_len, value.len(), "tail excluded from value_len");
        assert_eq!(&store.get(11).unwrap()[..], &value[..]);
        // Advance the store clock past the 5 ms deadline: the key is
        // gone and counted as expired, not missing.
        store.set_clock_ns(6_000_000);
        assert!(store.get(11).is_none());
        assert_eq!(store.stats().expired_keys, 1);
    }

    #[test]
    fn admission_rejected_open_is_over_quota() {
        use minos_kv::{CapacityConfig, EvictionPolicy};
        let store = Store::new(StoreConfig {
            partitions: 1,
            buckets_per_partition: 8,
            overflow_per_partition: 4,
            items_per_partition: 32,
            mempool_bytes: 16 << 10,
            max_value_bytes: 1 << 20,
            capacity: CapacityConfig {
                policy: EvictionPolicy::Clock,
                admission_cutoff_bytes: 4096,
                ..Default::default()
            },
        });
        let quota = DiscardQuota::new(4);
        // A 20 000-byte PUT charges more than the 16 KiB pool's high
        // watermark: turned away before reservation, before the
        // discard quota, with no eviction pass run on its behalf.
        let fh = large_frag_header();
        assert!(matches!(
            PutIngest::open_bounded(&store, &fh, 1, &quota),
            OpenOutcome::OverQuota
        ));
        assert_eq!(store.stats().admission_rejects, 1);
        assert_eq!(quota.rejects(), 0, "rejected before the discard quota");
        assert_eq!(store.stats().evictions, 0);
    }

    #[test]
    fn dropped_ingest_releases_reservation() {
        let store = test_store();
        let msg = put_message(8, vec![2u8; 30_000]);
        let frags = fragment_with_id(5, &msg.encode());
        let mut r = StreamingReassembler::new(16);
        // Stream all but one fragment, then drop the reassembler: the
        // in-flight reservation must return to the mempool.
        for f in &frags[..frags.len() - 1] {
            assert!(matches!(
                r.push(1, f.clone(), |fh| PutIngest::open(&store, fh)),
                Streamed::Incomplete
            ));
        }
        assert!(store.mempool().used_bytes() > 0);
        drop(r);
        assert_eq!(store.mempool().used_bytes(), 0);
    }
}
