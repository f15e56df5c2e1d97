//! UDP-level fragmentation and reassembly.
//!
//! "Requests that span multiple frames (large PUT requests and large GET
//! replies) are fragmented and defragmented at the UDP level" (paper
//! §4.1). A UDP payload in this stack is a sequence of *frames*, each a
//! 16-byte [`FragHeader`] and a chunk. A message that fits one MTU is a
//! single frame (`count == 1`) whose chunk is the whole message, so the
//! header's `msg_len` delimits it and further frames may follow in the
//! same datagram — the requests or replies of one poll round that share
//! a destination cross the kernel together. A larger message is split
//! into [`crate::MAX_FRAG_CHUNK`]-byte chunks, one datagram each: a
//! fragment's chunk runs to the end of its datagram and nothing ever
//! follows it. [`frames`] walks a received datagram; [`stage_message`]
//! is the one packer both senders use.
//!
//! Bundling is opt-in per peer and stateless: a sender sets
//! [`FragHeader::accepts_bundles`] on what it sends when its receive
//! path walks datagrams with [`frames`], and a frame may join a
//! datagram only when its receiver has said so. A peer that never sets
//! the bit — anything decoding "header, then the rest is the chunk" —
//! is sent one frame per datagram, byte for byte as before the bit
//! existed.
//!
//! The [`StreamingReassembler`] tolerates out-of-order and duplicated
//! fragments and bounds its memory: at most `max_partial` in-flight
//! messages are kept, evicting the stalest entry when full (datagram loss
//! is the client's problem — §4.1: "Retransmission is handled by the
//! client").

use crate::packet::{synthesize_frame, Endpoint, TxPacket};
use crate::txframe::{Region, TxFrame};
use crate::{MAX_FRAG_CHUNK, MTU};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Encoded size of [`FragHeader`].
pub const FRAG_HEADER_LEN: usize = 16;

/// The top bit of the header's length word: [`FragHeader::accepts_bundles`].
/// A message is at most `u16::MAX` fragments (under 2^27 bytes), so no
/// length ever reaches it.
const ACCEPTS_BUNDLES_BIT: u32 = 1 << 31;

/// Per-frame header prefixed to every chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragHeader {
    /// Message identifier, unique per sender.
    pub msg_id: u64,
    /// Fragment index in `[0, count)`.
    pub index: u16,
    /// Total number of fragments of the message.
    pub count: u16,
    /// Total message length in bytes (all chunks concatenated).
    pub msg_len: u32,
    /// The sender walks received datagrams frame by frame ([`frames`]),
    /// so what is sent back to it may share datagrams. Travels as the
    /// top bit of the length word, which was always zero before.
    pub accepts_bundles: bool,
}

impl FragHeader {
    /// Appends the encoded header to `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        debug_assert_eq!(self.msg_len & ACCEPTS_BUNDLES_BIT, 0);
        let flag = if self.accepts_bundles {
            ACCEPTS_BUNDLES_BIT
        } else {
            0
        };
        // One write, not four: every fragment of a large reply starts
        // with one of these.
        let mut bytes = [0u8; FRAG_HEADER_LEN];
        bytes[..8].copy_from_slice(&self.msg_id.to_be_bytes());
        bytes[8..10].copy_from_slice(&self.index.to_be_bytes());
        bytes[10..12].copy_from_slice(&self.count.to_be_bytes());
        bytes[12..].copy_from_slice(&(self.msg_len | flag).to_be_bytes());
        buf.put_slice(&bytes);
    }

    /// Decodes a header from the front of `buf`.
    pub fn decode<B: Buf>(buf: &mut B) -> Option<Self> {
        if buf.remaining() < FRAG_HEADER_LEN {
            return None;
        }
        let (msg_id, index, count, len_word) =
            (buf.get_u64(), buf.get_u16(), buf.get_u16(), buf.get_u32());
        let h = FragHeader {
            msg_id,
            index,
            count,
            msg_len: len_word & !ACCEPTS_BUNDLES_BIT,
            accepts_bundles: len_word & ACCEPTS_BUNDLES_BIT != 0,
        };
        (h.count > 0 && h.index < h.count).then_some(h)
    }
}

/// Splits `message` into fragments with an explicit message id.
pub fn fragment_with_id(msg_id: u64, message: &[u8]) -> Vec<Bytes> {
    let count = crate::packets_for_payload(message.len()) as usize;
    assert!(count <= u16::MAX as usize, "message too large to fragment");
    let mut out = Vec::with_capacity(count);
    for index in 0..count {
        let start = index * MAX_FRAG_CHUNK;
        let end = ((index + 1) * MAX_FRAG_CHUNK).min(message.len());
        let chunk = &message[start..end];
        let mut buf = BytesMut::with_capacity(FRAG_HEADER_LEN + chunk.len());
        FragHeader {
            msg_id,
            index: index as u16,
            count: count as u16,
            msg_len: message.len() as u32,
            accepts_bundles: false,
        }
        .encode(&mut buf);
        buf.put_slice(chunk);
        debug_assert!(buf.len() <= MTU);
        out.push(buf.freeze());
    }
    out
}

/// Splits a scatter-gather `message` frame into per-datagram
/// [`TxFrame`]s with an explicit message id — the zero-copy analog of
/// [`fragment_with_id`]: every fragment carries its 16-byte
/// [`FragHeader`] plus the overlapping slices of the message's inline
/// bytes in *its* inline region, while the overlapping portions of the
/// message's payload segments are attached as `O(1)` [`Bytes::slice`]
/// views. Gathering each output frame yields exactly the datagrams
/// `fragment_with_id` would produce from the gathered message
/// (property-tested), with zero segment-byte copies — and, like them,
/// never says the sender accepts bundles.
///
/// # Panics
///
/// Panics if a fragment's share of the message's inline bytes cannot
/// fit its inline region behind the fragment header, or if the message
/// needs more than `u16::MAX` fragments.
pub fn fragment_frame_with_id(msg_id: u64, message: &TxFrame) -> Vec<TxFrame> {
    let mut out = Vec::with_capacity(crate::packets_for_payload(message.len()) as usize);
    fragment_frame_each(msg_id, false, message, |frag| out.push(frag));
    out
}

/// [`fragment_frame_with_id`] handing each fragment to `sink` in index
/// order instead of collecting them, so a caller staging fragments into
/// a buffer it already owns allocates nothing per message; every
/// fragment's header says `accepts_bundles`. Returns the fragment
/// count. Same panics.
pub fn fragment_frame_each(
    msg_id: u64,
    accepts_bundles: bool,
    message: &TxFrame,
    mut sink: impl FnMut(TxFrame),
) -> usize {
    let mut fragments = Fragments::new(msg_id, accepts_bundles, message);
    let count = fragments.count;
    for _ in 0..count {
        let mut frag = TxFrame::new();
        fragments.fill_next(&mut frag);
        sink(frag);
    }
    count
}

/// A message being cut into fragments, in index order.
struct Fragments<'a> {
    header: FragHeader,
    count: usize,
    /// The message's regions in wire order, walked once: each chunk
    /// takes up where the one before it stopped, so a fragment costs
    /// the regions it overlaps (one, but at a region's edge), not a
    /// walk over all of them.
    regions: crate::txframe::Regions<'a>,
    region: Option<Region<'a>>,
    /// Bytes of `region` already in earlier fragments.
    taken: usize,
}

impl<'a> Fragments<'a> {
    fn new(msg_id: u64, accepts_bundles: bool, message: &'a TxFrame) -> Self {
        let total = message.len();
        let count = crate::packets_for_payload(total) as usize;
        assert!(count <= u16::MAX as usize, "message too large to fragment");
        let mut regions = message.regions();
        Fragments {
            header: FragHeader {
                msg_id,
                index: 0,
                count: count as u16,
                msg_len: total as u32,
                accepts_bundles,
            },
            count,
            region: regions.next(),
            regions,
            taken: 0,
        }
    }

    /// Writes the next fragment, header and chunk, into the empty
    /// `frag`.
    fn fill_next(&mut self, frag: &mut TxFrame) {
        let start = usize::from(self.header.index) * MAX_FRAG_CHUNK;
        self.header.encode(frag);
        let mut want = MAX_FRAG_CHUNK.min(self.header.msg_len as usize - start);
        while want > 0 {
            let region = self.region.expect("the regions hold the message's bytes");
            // A segment's length is read from its window, not through
            // its owner.
            let len = match region {
                Region::Inline(bytes) => bytes.len(),
                Region::Segment(segment) => segment.len(),
            };
            let end = len.min(self.taken + want);
            match region {
                Region::Inline(bytes) => frag.put_slice(&bytes[self.taken..end]),
                Region::Segment(segment) => frag.push_segment(segment.slice(self.taken..end)),
            }
            want -= end - self.taken;
            self.taken = end;
            if self.taken == len {
                self.region = self.regions.next();
                self.taken = 0;
            }
        }
        debug_assert!(frag.len() <= crate::MAX_UDP_PAYLOAD);
        self.header.index += 1;
    }
}

/// Stages `message` from `src` to `dst` in the burst `out`, the way
/// both senders pack: fragmented into datagrams of its own behind
/// whatever `out` holds, each built where it stays — or, when it is a
/// single fragment and `open` names a datagram of `out` bound for the
/// same `dst` with room left, appended to that datagram as one more
/// frame. `open` is the caller's word that the receiver accepts
/// bundles and that the datagram holds nothing but whole
/// single-fragment frames; `accepts_bundles` goes into the headers
/// written here and speaks for the sender.
///
/// Returns how many datagrams `out` grew by (zero for a frame that
/// joined one) and, for a single-fragment message, the index of the
/// datagram now carrying it — the `open` to pass with the next message
/// for `dst`, should its receiver accept bundles.
pub fn stage_message(
    out: &mut Vec<TxPacket>,
    open: Option<usize>,
    src: Endpoint,
    dst: Endpoint,
    msg_id: u64,
    accepts_bundles: bool,
    message: &TxFrame,
) -> (usize, Option<usize>) {
    let mut fragments = Fragments::new(msg_id, accepts_bundles, message);
    let single = fragments.count == 1;
    let joinable = open.filter(|&i| {
        let meta = &out[i].meta;
        single && (meta.ip.dst, meta.udp.dst_port) == (dst.ip, dst.port)
    });
    if let Some(i) = joinable {
        let mut frag = TxFrame::new();
        fragments.fill_next(&mut frag);
        if out[i].try_append(&frag) {
            return (0, Some(i));
        }
        out.push(synthesize_frame(src, dst, frag));
        return (1, Some(out.len() - 1));
    }
    let first = out.len();
    out.resize_with(first + fragments.count, || {
        synthesize_frame(src, dst, TxFrame::new())
    });
    for packet in &mut out[first..] {
        fragments.fill_next(&mut packet.frame);
    }
    (fragments.count, single.then(|| out.len() - 1))
}

/// One frame of a received datagram; see [`frames`].
#[derive(Clone, Debug)]
pub struct Frame {
    /// The frame's decoded header.
    pub header: FragHeader,
    /// Header and chunk, as they sat in the datagram.
    bytes: Bytes,
}

impl Frame {
    /// The frame's chunk: the whole message for a single-fragment
    /// frame, ready for `Message::decode`.
    pub fn into_chunk(self) -> Bytes {
        let mut chunk = self.bytes;
        chunk.advance(FRAG_HEADER_LEN);
        chunk
    }

    /// Header and chunk together: the payload form the reassemblers
    /// take.
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }
}

/// The tail of a datagram that is not a whole frame: too short for a
/// header, an invalid header, or a single-fragment frame whose
/// `msg_len` runs past the end of the datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MalformedTail;

/// Walks the frames of one received UDP payload in order. A
/// single-fragment frame is `FRAG_HEADER_LEN + msg_len` bytes and the
/// next frame starts right behind it; a fragment of a longer message
/// takes the rest of the datagram (the reassembler checks its length).
/// Whatever cannot be a frame — an empty payload included — ends the
/// walk with exactly one [`MalformedTail`], after every intact frame
/// ahead of it. Walking a lone frame touches no reference count.
pub fn frames(payload: Bytes) -> Frames {
    Frames {
        rest: payload,
        started: false,
    }
}

/// Iterator over a datagram's frames; see [`frames`].
#[derive(Clone, Debug)]
pub struct Frames {
    rest: Bytes,
    started: bool,
}

impl Iterator for Frames {
    type Item = Result<Frame, MalformedTail>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() && self.started {
            return None;
        }
        self.started = true;
        let frame_len = FragHeader::decode(&mut self.rest.as_slice()).and_then(|header| {
            let len = if header.count == 1 {
                FRAG_HEADER_LEN + header.msg_len as usize
            } else {
                self.rest.len()
            };
            (len <= self.rest.len()).then_some((header, len))
        });
        let Some((header, len)) = frame_len else {
            self.rest = Bytes::new();
            return Some(Err(MalformedTail));
        };
        let bytes = if len == self.rest.len() {
            std::mem::take(&mut self.rest)
        } else {
            let bytes = self.rest.slice(..len);
            self.rest.advance(len);
            bytes
        };
        Some(Ok(Frame { header, bytes }))
    }
}

fn expected_chunk_len(h: &FragHeader) -> usize {
    let len = h.msg_len as usize;
    let start = h.index as usize * MAX_FRAG_CHUNK;
    if h.index + 1 == h.count {
        len.saturating_sub(start)
    } else {
        MAX_FRAG_CHUNK
    }
}

/// A destination for streamed fragment chunks: the sink a
/// [`StreamingReassembler`] copies each fragment's payload into, at the
/// chunk's final message offset. Implementors are typically writable
/// reservations in their *final* resting place (a store mempool block),
/// which is what makes the streaming path one-copy.
pub trait FragmentWriter {
    /// Copies `chunk` to message offset `offset`. Offsets of distinct
    /// calls never overlap and jointly cover `[0, msg_len)` exactly once
    /// by the time the reassembler reports completion.
    fn write_at(&mut self, offset: usize, chunk: &[u8]);
}

/// A plain buffer, opened at the message's length
/// (`vec![0; header.msg_len as usize]`): reassembly into memory the
/// caller owns.
impl FragmentWriter for Vec<u8> {
    fn write_at(&mut self, offset: usize, chunk: &[u8]) {
        self[offset..offset + chunk.len()].copy_from_slice(chunk);
    }
}

/// In-flight state of one streamed message.
#[derive(Debug)]
struct StreamingPartial<W> {
    writer: W,
    /// Bitmap of received fragment indices.
    seen: Box<[u64]>,
    received: u16,
    count: u16,
    msg_len: u32,
    /// Push-clock of the most recent fragment (capacity eviction order).
    last_touch: u64,
    /// Round of the most recent fragment (stale eviction).
    last_round: u64,
}

/// Outcome of feeding one fragment to a [`StreamingReassembler`].
#[derive(Debug)]
pub enum Streamed<W> {
    /// The fragment completed the message; the filled writer is handed
    /// back for the caller to commit.
    Complete(W),
    /// More fragments are needed; the fed fragment's chunk has been
    /// written and its buffer is already released.
    Incomplete,
    /// The fragment was malformed or inconsistent (or its writer could
    /// not be opened) and was dropped.
    Rejected,
    /// The fragment duplicated one already streamed and was ignored.
    Duplicate,
}

/// Streaming reassembly: copies each fragment's chunk directly into a
/// caller-provided [`FragmentWriter`] and drops the fragment buffer
/// immediately, instead of buffering every fragment until the message
/// completes.
///
/// Two properties follow:
///
/// * **One copy.** The chunk moves wire buffer → final destination once;
///   no intermediate contiguous reassembly buffer ever exists.
/// * **O(rx batch) buffer occupancy.** Pooled RX slots are released the
///   moment their chunk is streamed, so reassembling a large message
///   holds *zero* fragment buffers instead of `O(msg_len / MTU)` — the
///   fix for RX-pool exhaustion under concurrent large-PUT bursts.
///
/// Entries are keyed by `(source, msg_id)` and bounded by `max_partial`
/// with stalest-first eviction; every fragment of a multi-fragment
/// message costs one probe, its key hashed by a seeded multiply-fold
/// rather than SipHash. In addition,
/// [`StreamingReassembler::advance_round`] implements round-based stale
/// eviction: a partial untouched for two completed rounds is dropped,
/// releasing its writer — and with it any mempool reservation the writer
/// holds — instead of stranding it forever after fragment loss. The
/// rounds run on the caller's clock through
/// [`StreamingReassembler::tick`], the one stale-partial rule of both
/// the server and the client.
#[derive(Debug)]
pub struct StreamingReassembler<W> {
    partials: HashMap<(u64, u64), StreamingPartial<W>, KeyHasher>,
    max_partial: usize,
    clock: u64,
    round: u64,
    /// When [`StreamingReassembler::tick`] next closes a round.
    deadline: u64,
    /// Completed-message count (observability).
    pub completed: u64,
    /// Evicted-partial count, capacity and staleness combined
    /// (observability).
    pub evicted: u64,
}

impl<W: FragmentWriter> StreamingReassembler<W> {
    /// Creates a streaming reassembler holding at most `max_partial`
    /// in-flight messages.
    pub fn new(max_partial: usize) -> Self {
        assert!(max_partial > 0);
        Self {
            partials: HashMap::with_hasher(KeyHasher::new()),
            max_partial,
            clock: 0,
            round: 0,
            deadline: 0,
            completed: 0,
            evicted: 0,
        }
    }

    /// Feeds one UDP payload (frag header + chunk) from `source`,
    /// streaming its chunk into the message's writer. `open` is invoked
    /// exactly once per message, on its first-seen fragment (which may
    /// be any index — the total length is in every fragment header), to
    /// allocate the writer; returning `None` rejects the message.
    pub fn push(
        &mut self,
        source: u64,
        payload: Bytes,
        open: impl FnOnce(&FragHeader) -> Option<W>,
    ) -> Streamed<W> {
        self.clock += 1;
        let mut rd = payload;
        let Some(header) = FragHeader::decode(&mut rd) else {
            return Streamed::Rejected;
        };
        // The writer is sized from msg_len while chunk placement comes
        // from index/count; a header whose count disagrees with its
        // msg_len could therefore direct a full-size chunk past the end
        // of a tiny writer, so such forgeries are rejected outright.
        if u32::from(header.count) != crate::packets_for_payload(header.msg_len as usize) {
            return Streamed::Rejected;
        }
        let chunk = rd;
        if chunk.len() != expected_chunk_len(&header) {
            return Streamed::Rejected;
        }

        if header.count == 1 {
            let Some(mut writer) = open(&header) else {
                return Streamed::Rejected;
            };
            writer.write_at(0, &chunk);
            self.completed += 1;
            return Streamed::Complete(writer);
        }

        let key = (source, header.msg_id);
        // Hot path — a later fragment of an in-flight message: one map
        // probe, chunk streamed, done.
        if let Some(partial) = self.partials.get_mut(&key) {
            if partial.count != header.count || partial.msg_len != header.msg_len {
                // Inconsistent with earlier fragments of the same id:
                // drop the whole partial, it cannot complete correctly.
                // This releases a live reservation, so it counts as an
                // eviction — the gauge must see every dropped partial.
                self.partials.remove(&key);
                self.evicted += 1;
                return Streamed::Rejected;
            }
            partial.last_touch = self.clock;
            partial.last_round = self.round;
            let (word, bit) = (header.index as usize / 64, header.index as usize % 64);
            if partial.seen[word] & (1 << bit) != 0 {
                return Streamed::Duplicate;
            }
            partial.seen[word] |= 1 << bit;
            partial.received += 1;
            partial
                .writer
                .write_at(header.index as usize * MAX_FRAG_CHUNK, &chunk);
            // `chunk` (the only reference into the fragment buffer)
            // drops here: RX-pool occupancy never accumulates across
            // fragments.
            if partial.received == partial.count {
                let partial = self.partials.remove(&key).expect("present");
                self.completed += 1;
                return Streamed::Complete(partial.writer);
            }
            return Streamed::Incomplete;
        }

        // First-seen fragment. Open the writer *before* making room: a
        // fragment that ends up rejected must never cost a live partial
        // its slot (and its resources) — that would let garbage
        // datagrams evict legitimate in-flight reassemblies for free.
        let Some(mut writer) = open(&header) else {
            return Streamed::Rejected;
        };
        writer.write_at(header.index as usize * MAX_FRAG_CHUNK, &chunk);
        drop(chunk);
        if self.partials.len() >= self.max_partial {
            self.evict_stalest();
        }
        let words = (header.count as usize).div_ceil(64);
        let mut seen = vec![0u64; words].into_boxed_slice();
        seen[header.index as usize / 64] |= 1 << (header.index as usize % 64);
        self.partials.insert(
            key,
            StreamingPartial {
                writer,
                seen,
                received: 1,
                count: header.count,
                msg_len: header.msg_len,
                last_touch: self.clock,
                last_round: self.round,
            },
        );
        Streamed::Incomplete
    }

    /// Number of in-flight partial messages.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }

    /// Closes the current reassembly round and evicts every partial
    /// whose latest fragment arrived two or more completed rounds ago
    /// (i.e. it survived at least one full round untouched — a lost
    /// fragment, since in-order delivery completes messages within a
    /// round at any realistic round length). Returns how many were
    /// evicted; their writers are dropped, which releases whatever
    /// resources (mempool reservations) they held.
    pub fn advance_round(&mut self) -> usize {
        self.round += 1;
        let round = self.round;
        let before = self.partials.len();
        self.partials.retain(|_, p| round - p.last_round < 2);
        let evicted = before - self.partials.len();
        self.evicted += evicted as u64;
        evicted
    }

    /// Drives the round clock at `now` (any monotonic nanoseconds):
    /// with nothing pending the deadline re-arms at `now + round_ns`, so
    /// the first partial after an idle stretch gets its full grace
    /// period; otherwise a tick at or past the deadline re-arms it and
    /// closes a round ([`StreamingReassembler::advance_round`]).
    pub fn tick(&mut self, now: u64, round_ns: u64) {
        if self.partials.is_empty() {
            self.deadline = now + round_ns;
        } else if now >= self.deadline {
            self.deadline = now + round_ns;
            self.advance_round();
        }
    }

    fn evict_stalest(&mut self) {
        if let Some(key) = self
            .partials
            .iter()
            .min_by_key(|(_, p)| p.last_touch)
            .map(|(k, _)| *k)
        {
            self.partials.remove(&key);
            self.evicted += 1;
        }
    }
}

/// Hasher of the reassembler's `(source, msg_id)` keys: a seeded
/// multiply-fold per word, a few cycles where SipHash costs tens of
/// nanoseconds on every fragment. The seed is drawn once per
/// reassembler from the standard library's random keys, so a sender
/// that picks its own message ids cannot aim them at one bucket from
/// outside; and `max_partial` bounds what a collision could cost.
#[derive(Clone, Copy, Debug)]
struct KeyHasher(u64);

impl KeyHasher {
    fn new() -> Self {
        KeyHasher(std::collections::hash_map::RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for KeyHasher {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        *self
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        // The 64×64→128 product folded onto itself spreads every input
        // bit over both halves, so the map's bucket (low) bits and tag
        // (high) bits each see the whole key.
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Opens a plain `Vec` writer of the message's length.
    fn vec_open(h: &FragHeader) -> Option<Vec<u8>> {
        Some(vec![0; h.msg_len as usize])
    }

    #[test]
    fn single_fragment_roundtrip() {
        let msg = message(100);
        let frags = fragment_with_id(1, &msg);
        assert_eq!(frags.len(), 1);
        let mut r = StreamingReassembler::new(8);
        match r.push(0, frags[0].clone(), vec_open) {
            Streamed::Complete(b) => assert_eq!(b, msg),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_fragment_roundtrip_in_order() {
        let msg = message(MAX_FRAG_CHUNK * 3 + 17);
        let frags = fragment_with_id(9, &msg);
        assert_eq!(frags.len(), 4);
        let mut r = StreamingReassembler::new(8);
        for (i, f) in frags.iter().enumerate() {
            match r.push(0, f.clone(), vec_open) {
                Streamed::Complete(b) => {
                    assert_eq!(i, frags.len() - 1);
                    assert_eq!(b, msg);
                }
                Streamed::Incomplete => assert!(i < frags.len() - 1),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn out_of_order_and_interleaved_sources() {
        let msg_a = message(MAX_FRAG_CHUNK * 2);
        let msg_b = message(MAX_FRAG_CHUNK + 5);
        let fa = fragment_with_id(1, &msg_a);
        let fb = fragment_with_id(1, &msg_b); // same id, different source
        let mut r = StreamingReassembler::new(8);
        assert!(matches!(
            r.push(10, fa[1].clone(), vec_open),
            Streamed::Incomplete
        ));
        assert!(matches!(
            r.push(20, fb[1].clone(), vec_open),
            Streamed::Incomplete
        ));
        match r.push(20, fb[0].clone(), vec_open) {
            Streamed::Complete(b) => assert_eq!(b, msg_b),
            other => panic!("unexpected {other:?}"),
        }
        match r.push(10, fa[0].clone(), vec_open) {
            Streamed::Complete(b) => assert_eq!(b, msg_a),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicates_ignored() {
        let msg = message(MAX_FRAG_CHUNK * 2);
        let frags = fragment_with_id(3, &msg);
        let mut r = StreamingReassembler::new(8);
        assert!(matches!(
            r.push(0, frags[0].clone(), vec_open),
            Streamed::Incomplete
        ));
        assert!(matches!(
            r.push(0, frags[0].clone(), vec_open),
            Streamed::Duplicate
        ));
        match r.push(0, frags[1].clone(), vec_open) {
            Streamed::Complete(b) => assert_eq!(b, msg),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_rejected() {
        let mut r = StreamingReassembler::new(8);
        // Too short for a header.
        assert!(matches!(
            r.push(0, Bytes::from_static(&[1, 2, 3]), vec_open),
            Streamed::Rejected
        ));
        // A chunk longer than the header's msg_len.
        let mut buf = BytesMut::new();
        FragHeader {
            msg_id: 1,
            index: 0,
            count: 1,
            msg_len: 4,
            accepts_bundles: false,
        }
        .encode(&mut buf);
        buf.put_slice(b"toolong!");
        assert!(matches!(
            r.push(0, buf.freeze(), vec_open),
            Streamed::Rejected
        ));
    }

    #[test]
    fn capacity_bound_evicts_stalest() {
        let mut r = StreamingReassembler::new(2);
        let m = message(MAX_FRAG_CHUNK * 2);
        // Three concurrent partials from three sources; capacity 2.
        for src in 0..3u64 {
            let frags = fragment_with_id(src, &m);
            assert!(matches!(
                r.push(src, frags[0].clone(), vec_open),
                Streamed::Incomplete
            ));
        }
        assert_eq!(r.pending(), 2);
        assert_eq!(r.evicted, 1);
        // Source 0 was stalest and got evicted: completing it now fails
        // (fragment 1 alone re-opens a partial).
        let frags = fragment_with_id(0, &m);
        assert!(matches!(
            r.push(0, frags[1].clone(), vec_open),
            Streamed::Incomplete
        ));
    }

    #[test]
    fn fragment_sizes_respect_mtu() {
        let msg = message(500_000);
        for f in fragment_with_id(0, &msg) {
            assert!(f.len() <= crate::MAX_UDP_PAYLOAD);
        }
    }

    /// A test sink recording bytes at their offsets plus open/geometry
    /// facts, standing in for a mempool reservation.
    #[derive(Debug)]
    struct VecSink {
        buf: Vec<u8>,
        written: usize,
    }

    impl VecSink {
        fn open(h: &FragHeader) -> Option<VecSink> {
            Some(VecSink {
                buf: vec![0; h.msg_len as usize],
                written: 0,
            })
        }
    }

    impl FragmentWriter for VecSink {
        fn write_at(&mut self, offset: usize, chunk: &[u8]) {
            self.buf[offset..offset + chunk.len()].copy_from_slice(chunk);
            self.written += chunk.len();
        }
    }

    #[test]
    fn streaming_single_fragment_completes_immediately() {
        let msg = message(300);
        let frags = fragment_with_id(1, &msg);
        let mut r = StreamingReassembler::new(8);
        match r.push(0, frags[0].clone(), VecSink::open) {
            Streamed::Complete(w) => {
                assert_eq!(&w.buf[..], &msg[..]);
                assert_eq!(w.written, 300);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.pending(), 0);
        assert_eq!(r.completed, 1);
    }

    #[test]
    fn streaming_reassembles_out_of_order_and_releases_fragments() {
        let msg = message(MAX_FRAG_CHUNK * 3 + 99);
        let mut frags = fragment_with_id(7, &msg);
        frags.reverse();
        let mut r = StreamingReassembler::new(8);
        let mut opened = 0;
        for (i, f) in frags.iter().enumerate() {
            let open = |h: &FragHeader| {
                opened += 1;
                VecSink::open(h)
            };
            match r.push(5, f.clone(), open) {
                Streamed::Complete(w) => {
                    assert_eq!(i, frags.len() - 1);
                    assert_eq!(&w.buf[..], &msg[..]);
                    assert_eq!(w.written, msg.len(), "each byte streamed once");
                }
                Streamed::Incomplete => assert!(i < frags.len() - 1),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(opened, 1, "the writer is opened on the first-seen fragment");
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn streaming_duplicates_do_not_rewrite() {
        let msg = message(MAX_FRAG_CHUNK * 2);
        let frags = fragment_with_id(3, &msg);
        let mut r = StreamingReassembler::new(8);
        assert!(matches!(
            r.push(0, frags[0].clone(), VecSink::open),
            Streamed::Incomplete
        ));
        assert!(matches!(
            r.push(0, frags[0].clone(), VecSink::open),
            Streamed::Duplicate
        ));
        match r.push(0, frags[1].clone(), VecSink::open) {
            Streamed::Complete(w) => {
                assert_eq!(w.written, msg.len(), "duplicate chunk not re-copied")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn streaming_rejects_malformed_and_failed_open() {
        let mut r = StreamingReassembler::<VecSink>::new(8);
        assert!(matches!(
            r.push(0, Bytes::from_static(&[1, 2, 3]), VecSink::open),
            Streamed::Rejected
        ));
        let frags = fragment_with_id(4, &message(MAX_FRAG_CHUNK * 2));
        assert!(matches!(
            r.push(0, frags[0].clone(), |_| None),
            Streamed::Rejected
        ));
        assert_eq!(r.pending(), 0, "a rejected open leaves no partial");
    }

    #[test]
    fn forged_count_msg_len_mismatch_is_rejected_not_written() {
        // count=2 with msg_len=100: a full-size first chunk would land
        // 1456 bytes in a writer sized for 100 — the reassembler must
        // reject the header before the writer ever sees a byte.
        let mut buf = BytesMut::new();
        FragHeader {
            msg_id: 9,
            index: 0,
            count: 2,
            msg_len: 100,
            accepts_bundles: false,
        }
        .encode(&mut buf);
        buf.put_slice(&[0u8; MAX_FRAG_CHUNK]);
        let forged = buf.freeze();

        let mut streaming = StreamingReassembler::<VecSink>::new(8);
        let mut opened = false;
        let result = streaming.push(0, forged, |h| {
            opened = true;
            VecSink::open(h)
        });
        assert!(matches!(result, Streamed::Rejected));
        assert!(!opened, "no writer may be opened for a forged header");
        assert_eq!(streaming.pending(), 0);
    }

    #[test]
    fn rejected_fragment_never_evicts_a_live_partial() {
        let m = message(MAX_FRAG_CHUNK * 2);
        let mut r = StreamingReassembler::new(1);
        let frags = fragment_with_id(1, &m);
        assert!(matches!(
            r.push(0, frags[0].clone(), VecSink::open),
            Streamed::Incomplete
        ));
        // At capacity, a fragment whose open() fails must not make room
        // for a partial that is never inserted.
        let other = fragment_with_id(2, &m);
        assert!(matches!(
            r.push(0, other[0].clone(), |_| None),
            Streamed::Rejected
        ));
        assert_eq!(r.pending(), 1);
        assert_eq!(r.evicted, 0, "the live partial survives");
        assert!(matches!(
            r.push(0, frags[1].clone(), VecSink::open),
            Streamed::Complete(_)
        ));
    }

    #[test]
    fn streaming_geometry_mismatch_drops_partial() {
        let msg = message(MAX_FRAG_CHUNK * 3);
        let frags = fragment_with_id(5, &msg);
        let mut r = StreamingReassembler::new(8);
        assert!(matches!(
            r.push(0, frags[0].clone(), VecSink::open),
            Streamed::Incomplete
        ));
        // Forge a fragment with the same msg_id but a different count.
        let mut buf = BytesMut::new();
        FragHeader {
            msg_id: 5,
            index: 1,
            count: 2,
            msg_len: (MAX_FRAG_CHUNK * 2) as u32,
            accepts_bundles: false,
        }
        .encode(&mut buf);
        buf.put_slice(&msg[MAX_FRAG_CHUNK..2 * MAX_FRAG_CHUNK]);
        assert!(matches!(
            r.push(0, buf.freeze(), VecSink::open),
            Streamed::Rejected
        ));
        assert_eq!(r.pending(), 0);
        assert_eq!(
            r.evicted, 1,
            "dropping a live partial (and its resources) is an eviction"
        );
    }

    #[test]
    fn streaming_capacity_bound_evicts_stalest() {
        let m = message(MAX_FRAG_CHUNK * 2);
        let mut r = StreamingReassembler::new(2);
        for src in 0..3u64 {
            let frags = fragment_with_id(src, &m);
            assert!(matches!(
                r.push(src, frags[0].clone(), VecSink::open),
                Streamed::Incomplete
            ));
        }
        assert_eq!(r.pending(), 2);
        assert_eq!(r.evicted, 1);
    }

    #[test]
    fn the_last_opened_partial_is_evicted_when_it_is_the_stalest() {
        // Capacity 2: `a` is opened, then `b`, then `a` is touched
        // again, so the later-opened `b` is the stalest when `c` needs
        // room.
        let m = message(MAX_FRAG_CHUNK * 3);
        let (a, b, c) = (
            fragment_with_id(1, &m),
            fragment_with_id(2, &m),
            fragment_with_id(3, &m),
        );
        let mut r = StreamingReassembler::new(2);
        for frag in [&a[0], &b[0], &a[1], &c[0]] {
            assert!(matches!(
                r.push(0, frag.clone(), VecSink::open),
                Streamed::Incomplete
            ));
        }
        assert_eq!((r.pending(), r.evicted), (2, 1));
        // `b` is gone: its next fragment opens a partial of its own,
        // evicting `a`, now the stalest, while `c` completes.
        for frag in [&b[1], &c[1]] {
            assert!(matches!(
                r.push(0, frag.clone(), VecSink::open),
                Streamed::Incomplete
            ));
        }
        assert_eq!(r.evicted, 2);
        assert!(matches!(
            r.push(0, c[2].clone(), VecSink::open),
            Streamed::Complete(_)
        ));
        assert!(matches!(
            r.push(0, a[2].clone(), VecSink::open),
            Streamed::Incomplete
        ));
    }

    #[test]
    fn streaming_round_eviction_drops_only_stale_partials() {
        let m = message(MAX_FRAG_CHUNK * 2);
        let mut r = StreamingReassembler::new(8);
        let frags = fragment_with_id(1, &m);
        assert!(matches!(
            r.push(0, frags[0].clone(), VecSink::open),
            Streamed::Incomplete
        ));
        // One completed round: the partial is stale-but-grace-period.
        assert_eq!(r.advance_round(), 0);
        assert_eq!(r.pending(), 1);
        // A *fresh* partial in the new round must survive the next
        // boundary, while the old one is evicted.
        let fresh = fragment_with_id(2, &m);
        assert!(matches!(
            r.push(0, fresh[0].clone(), VecSink::open),
            Streamed::Incomplete
        ));
        assert_eq!(r.advance_round(), 1, "the round-0 partial is evicted");
        assert_eq!(r.pending(), 1);
        assert_eq!(r.evicted, 1);
        // The evicted message can no longer complete; the fresh one can.
        assert!(matches!(
            r.push(0, fresh[1].clone(), VecSink::open),
            Streamed::Complete(_)
        ));
        match r.push(0, frags[1].clone(), VecSink::open) {
            Streamed::Incomplete => {} // re-opened as a new partial
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tick_evicts_a_stale_partial_two_rounds_after_the_clock_is_armed() {
        const R: u64 = 1_000_000;
        let m = message(MAX_FRAG_CHUNK * 3);
        let mut r = StreamingReassembler::new(8);
        // `armed` is a tick that finds nothing pending; the first of a
        // three-fragment message then arrives and the rest are lost.
        let mut lose_a_fragment = |armed: u64, msg_id: u64, evictions: u64| {
            r.tick(armed, R);
            let frags = fragment_with_id(msg_id, &m);
            assert!(matches!(
                r.push(0, frags[0].clone(), VecSink::open),
                Streamed::Incomplete
            ));
            // Every tick before two rounds have passed keeps it...
            for t in (armed..armed + 2 * R).step_by(R as usize / 4) {
                r.tick(t, R);
                assert_eq!(r.pending(), 1, "evicted at {t}");
            }
            // ...and the first at two rounds evicts it.
            r.tick(armed + 2 * R, R);
            assert_eq!(r.pending(), 0, "kept at two rounds");
            assert_eq!(r.evicted, evictions);
        };
        lose_a_fragment(0, 1, 1);
        // After a long idle stretch the clock re-arms at the idle tick,
        // so the next partial still gets its full grace period...
        lose_a_fragment(100 * R, 2, 2);
        // ...and so it does when the idle tick comes before the round
        // left standing by the last eviction (due at 103 R) would close.
        lose_a_fragment(102 * R + R / 2, 3, 3);
    }

    #[test]
    fn streaming_touch_refreshes_round() {
        // A message receiving fragments every round is never evicted no
        // matter how long it takes.
        let m = message(MAX_FRAG_CHUNK * 4);
        let frags = fragment_with_id(9, &m);
        let mut r = StreamingReassembler::new(8);
        for f in frags.iter().take(3) {
            assert!(matches!(
                r.push(0, f.clone(), VecSink::open),
                Streamed::Incomplete
            ));
            assert_eq!(r.advance_round(), 0);
        }
        assert!(matches!(
            r.push(0, frags[3].clone(), VecSink::open),
            Streamed::Complete(_)
        ));
        assert_eq!(r.evicted, 0);
    }
}
