//! [`TxFrame`]: the scatter-gather transmit frame.
//!
//! The old send path serialized every message into one contiguous
//! buffer (`Message::encode`) and then copied it again per fragment
//! (`fragment_with_id`) — two full passes over the value on the GET
//! latency path the paper measures (§4.1 moves requests in batches
//! precisely to keep per-request overhead off the critical path). A
//! `TxFrame` instead describes a datagram as a small *inline* header
//! region plus up to [`MAX_TX_SEGMENTS`] refcounted [`Bytes`] segments:
//! headers are written once into the inline region and the value rides
//! along as an `O(1)` clone/slice, so value bytes are never copied
//! between the store and the socket. The UDP backend hands the regions
//! to the kernel as one iovec array per datagram (`sendmmsg`
//! scatter-gather); only backends that must materialize a contiguous
//! wire image (the in-process virtual NIC) gather — and they count
//! every gathered segment byte so the zero-copy invariant stays an
//! asserted number, not a claim.
//!
//! A datagram is a *sequence* of wire frames (see [`crate::frag`]), so
//! the regions interleave: every segment remembers how many inline
//! bytes were written ahead of it, and header bytes written after a
//! segment follow it on the wire. [`TxFrame::try_append`] is how a
//! second message's header and value join a datagram already holding a
//! first.

use bytes::{BufMut, Bytes};

/// Capacity of the inline header region of a [`TxFrame`], in bytes:
/// the header stacks (16-byte fragment header + 32-byte message header)
/// of the four frames a bundled datagram may carry. Measured while
/// sizing it: four frames per datagram keep ~95 % of the throughput
/// unbounded packing gives, and every transmitted fragment moves one of
/// these, so 480 bytes (ten frames) cost a small reply +45 ns and a
/// 344-fragment reply +13 µs where 192 cost +15 ns and nothing.
pub const TX_INLINE_CAP: usize = 192;

/// Maximum refcounted payload segments per [`TxFrame`].
pub const MAX_TX_SEGMENTS: usize = 4;

/// Most regions a [`TxFrame`] hands a gathering sender: every segment
/// with inline bytes ahead of it, plus inline bytes behind the last.
pub const MAX_TX_REGIONS: usize = 2 * MAX_TX_SEGMENTS + 1;

/// One contiguous run of a [`TxFrame`]'s byte stream.
#[derive(Clone, Copy, Debug)]
pub enum Region<'a> {
    /// Header bytes held in the frame itself.
    Inline(&'a [u8]),
    /// A refcounted payload segment.
    Segment(&'a Bytes),
}

impl<'a> Region<'a> {
    /// The region's bytes.
    pub fn as_slice(self) -> &'a [u8] {
        match self {
            Region::Inline(bytes) => bytes,
            Region::Segment(segment) => segment.as_slice(),
        }
    }
}

/// A scatter-gather transmit frame: one UDP payload described as an
/// inline header region plus refcounted payload segments.
///
/// The logical byte stream of the frame is what was written into it,
/// in the order it was written: header bytes go through the [`BufMut`]
/// impl (they land in the inline region), values are attached with
/// [`TxFrame::push_segment`], which never copies, and
/// [`TxFrame::regions`] walks the two interleaved.
/// [`TxFrame::to_contiguous`] materializes exactly that stream, and all
/// encoders are tested byte-identical to their contiguous counterparts.
#[derive(Clone)]
pub struct TxFrame {
    inline: [u8; TX_INLINE_CAP],
    inline_len: usize,
    segments: [Bytes; MAX_TX_SEGMENTS],
    /// Inline bytes written ahead of each segment: where in the inline
    /// region the segment is spliced into the byte stream.
    segment_at: [u8; MAX_TX_SEGMENTS],
    n_segments: usize,
}

// `segment_at` holds inline offsets.
const _: () = assert!(TX_INLINE_CAP <= u8::MAX as usize);

impl Default for TxFrame {
    fn default() -> Self {
        Self::new()
    }
}

impl TxFrame {
    /// An empty frame.
    pub fn new() -> Self {
        TxFrame {
            inline: [0u8; TX_INLINE_CAP],
            inline_len: 0,
            segments: std::array::from_fn(|_| Bytes::new()),
            segment_at: [0; MAX_TX_SEGMENTS],
            n_segments: 0,
        }
    }

    /// A frame whose entire payload is one refcounted segment (no
    /// inline header). This is how a contiguous packet enters the
    /// scatter-gather world without a copy.
    pub fn from_payload(payload: Bytes) -> Self {
        let mut f = TxFrame::new();
        f.push_segment(payload);
        f
    }

    /// The frame's regions in wire order; their concatenation is the
    /// frame's byte stream. At most [`MAX_TX_REGIONS`], none empty.
    pub fn regions(&self) -> Regions<'_> {
        Regions {
            frame: self,
            inline_at: 0,
            segment: 0,
        }
    }

    /// Total frame length: inline bytes plus every segment.
    pub fn len(&self) -> usize {
        self.inline_len + self.segment_len()
    }

    /// True when the frame carries no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes carried by refcounted segments (the portion a gathering
    /// backend must copy — and what the `tx_copied_bytes` gauges count).
    pub fn segment_len(&self) -> usize {
        self.segments[..self.n_segments]
            .iter()
            .map(Bytes::len)
            .sum()
    }

    /// Attaches a refcounted payload segment without copying, behind
    /// everything written so far. Empty segments are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the frame already holds [`MAX_TX_SEGMENTS`] segments.
    pub fn push_segment(&mut self, segment: Bytes) {
        if segment.is_empty() {
            return;
        }
        assert!(
            self.n_segments < MAX_TX_SEGMENTS,
            "TxFrame segment overflow (> {MAX_TX_SEGMENTS})"
        );
        self.segments[self.n_segments] = segment;
        self.segment_at[self.n_segments] = self.inline_len as u8;
        self.n_segments += 1;
    }

    /// Appends `other`'s byte stream behind this frame's — its inline
    /// bytes copied, its segments shared (a refcount bump each) — and
    /// says so; `false`, with nothing changed, when the two exceed
    /// [`TX_INLINE_CAP`] inline bytes or [`MAX_TX_SEGMENTS`] segments
    /// together.
    pub fn try_append(&mut self, other: &TxFrame) -> bool {
        if self.inline_len + other.inline_len > TX_INLINE_CAP
            || self.n_segments + other.n_segments > MAX_TX_SEGMENTS
        {
            return false;
        }
        for i in 0..other.n_segments {
            self.segments[self.n_segments + i] = other.segments[i].clone();
            self.segment_at[self.n_segments + i] = other.segment_at[i] + self.inline_len as u8;
        }
        self.n_segments += other.n_segments;
        self.put_slice(&other.inline[..other.inline_len]);
        true
    }

    /// Materializes the frame as one contiguous [`Bytes`], returning it
    /// together with the number of *segment* bytes that had to be
    /// copied to build it. A frame that is already a single segment
    /// with no inline header is returned as an `O(1)` clone (0 copied).
    pub fn to_contiguous(&self) -> (Bytes, usize) {
        if self.inline_len == 0 && self.n_segments == 1 {
            return (self.segments[0].clone(), 0);
        }
        let mut out = Vec::with_capacity(self.len());
        for region in self.regions() {
            out.extend_from_slice(region.as_slice());
        }
        (Bytes::from(out), self.segment_len())
    }

    /// Gathers the frame into the front of `out`, returning the frame
    /// length — or `None` when `out` is too small, with `out` left in
    /// an unspecified state.
    pub fn gather_into(&self, out: &mut [u8]) -> Option<usize> {
        let total = self.len();
        if out.len() < total {
            return None;
        }
        let mut at = 0;
        for region in self.regions() {
            let chunk = region.as_slice();
            out[at..at + chunk.len()].copy_from_slice(chunk);
            at += chunk.len();
        }
        Some(total)
    }
}

/// Iterator over a [`TxFrame`]'s regions; see [`TxFrame::regions`].
#[derive(Clone, Debug)]
pub struct Regions<'a> {
    frame: &'a TxFrame,
    /// Inline bytes already yielded.
    inline_at: usize,
    /// Segments already yielded.
    segment: usize,
}

impl<'a> Iterator for Regions<'a> {
    type Item = Region<'a>;

    fn next(&mut self) -> Option<Region<'a>> {
        let frame = self.frame;
        let more_segments = self.segment < frame.n_segments;
        // Inline bytes run up to the next segment's splice point, or to
        // the end of the region behind the last segment.
        let until = if more_segments {
            usize::from(frame.segment_at[self.segment])
        } else {
            frame.inline_len
        };
        if self.inline_at < until {
            let bytes = &frame.inline[self.inline_at..until];
            self.inline_at = until;
            return Some(Region::Inline(bytes));
        }
        if more_segments {
            self.segment += 1;
            return Some(Region::Segment(&frame.segments[self.segment - 1]));
        }
        None
    }
}

/// Header writes append to the inline region.
///
/// # Panics
///
/// Panics if a write would exceed [`TX_INLINE_CAP`] — headers are
/// fixed-size, so this is a protocol bug, not a runtime condition.
impl BufMut for TxFrame {
    fn put_slice(&mut self, src: &[u8]) {
        let end = self.inline_len + src.len();
        assert!(end <= TX_INLINE_CAP, "TxFrame inline region overflow");
        self.inline[self.inline_len..end].copy_from_slice(src);
        self.inline_len = end;
    }
}

impl std::fmt::Debug for TxFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TxFrame({} inline + {} segments = {} bytes)",
            self.inline_len,
            self.n_segments,
            self.len()
        )
    }
}

impl PartialEq for TxFrame {
    fn eq(&self, other: &TxFrame) -> bool {
        self.to_contiguous().0 == other.to_contiguous().0
    }
}

impl Eq for TxFrame {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_segments_concatenate_in_order() {
        let mut f = TxFrame::new();
        f.put_u16(0xABCD);
        f.push_segment(Bytes::from_static(b"hello"));
        f.push_segment(Bytes::new()); // dropped
        f.push_segment(Bytes::from_static(b" world"));
        assert_eq!(f.len(), 2 + 11);
        assert_eq!(f.segment_len(), 11);
        assert_eq!(f.regions().count(), 3);
        let (bytes, copied) = f.to_contiguous();
        assert_eq!(&bytes[..], b"\xab\xcdhello world");
        assert_eq!(copied, 11);
    }

    #[test]
    fn regions_interleave_in_write_order() {
        let mut f = TxFrame::new();
        f.put_slice(b"h1:");
        f.push_segment(Bytes::from_static(b"first"));
        f.put_slice(b"|h2:");
        f.push_segment(Bytes::from_static(b"second"));
        f.put_slice(b"|tail");
        assert_eq!(&f.to_contiguous().0[..], b"h1:first|h2:second|tail");
        assert_eq!(f.regions().count(), 5);
        // Two segments back to back leave no empty inline region between.
        let mut g = TxFrame::new();
        g.push_segment(Bytes::from_static(b"a"));
        g.push_segment(Bytes::from_static(b"b"));
        assert_eq!(g.regions().count(), 2);
        assert_eq!(&g.to_contiguous().0[..], b"ab");
    }

    #[test]
    fn try_append_concatenates_or_refuses() {
        let part = |hdr: &[u8], value: &'static [u8]| {
            let mut f = TxFrame::new();
            f.put_slice(hdr);
            f.push_segment(Bytes::from_static(value));
            f
        };
        let mut f = part(b"A", b"one");
        assert!(f.try_append(&part(b"B", b"two")));
        assert!(f.try_append(&part(b"C", b"")));
        assert_eq!(&f.to_contiguous().0[..], b"AoneBtwoC");
        assert_eq!(f.segment_len(), 6);
        // Out of segments: refused, the frame untouched.
        assert!(f.try_append(&part(b"D", b"x")));
        assert!(f.try_append(&part(b"E", b"y")));
        assert!(!f.try_append(&part(b"F", b"z")));
        assert_eq!(&f.to_contiguous().0[..], b"AoneBtwoCDxEy");
        // Out of inline room.
        let mut wide = TxFrame::new();
        wide.put_slice(&[0u8; TX_INLINE_CAP - 1]);
        assert!(!wide.try_append(&part(b"GG", b"")));
        assert_eq!(wide.len(), TX_INLINE_CAP - 1);
    }

    #[test]
    fn single_segment_contiguous_is_zero_copy() {
        let payload = Bytes::from_static(b"already contiguous");
        let f = TxFrame::from_payload(payload.clone());
        let (bytes, copied) = f.to_contiguous();
        assert_eq!(bytes, payload);
        assert_eq!(copied, 0, "a pure single-segment frame must not copy");
    }

    #[test]
    fn gather_into_matches_to_contiguous() {
        let mut f = TxFrame::new();
        f.put_u64(42);
        f.push_segment(Bytes::from(vec![7u8; 100]));
        let mut buf = [0u8; 256];
        let len = f.gather_into(&mut buf).unwrap();
        assert_eq!(&buf[..len], &f.to_contiguous().0[..]);
        let mut tiny = [0u8; 8];
        assert_eq!(f.gather_into(&mut tiny), None);
    }

    #[test]
    #[should_panic(expected = "inline region overflow")]
    fn inline_overflow_panics() {
        let mut f = TxFrame::new();
        f.put_slice(&[0u8; TX_INLINE_CAP + 1]);
    }

    #[test]
    #[should_panic(expected = "segment overflow")]
    fn segment_overflow_panics() {
        let mut f = TxFrame::new();
        for _ in 0..=MAX_TX_SEGMENTS {
            f.push_segment(Bytes::from_static(b"x"));
        }
    }
}
