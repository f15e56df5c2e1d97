//! Offline-vendored subset of the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the small slice of the `bytes` API it actually uses:
//! [`Bytes`] (cheaply cloneable, sliceable, shared byte buffers),
//! [`BytesMut`] (an append buffer that freezes into [`Bytes`]) and the
//! big-endian [`Buf`]/[`BufMut`] cursor traits. Semantics follow the
//! real crate, and so do the costs the datapath leans on: clone and
//! slice are O(1) via `Arc`, and `Bytes::from(Vec<u8>)` and
//! [`BytesMut::freeze`] take the vector's buffer as it is, so a value
//! built in a `Vec` (a reassembled reply, a synthesized PUT) is never
//! copied again on its way into a `Bytes`. Where the real crate is
//! cheaper still, the shim is not: a `Vec` conversion allocates a small
//! shared header the real crate defers until the first clone.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Object-safe view of a foreign buffer owner backing a [`Bytes`]
/// (see [`Bytes::from_owner`]).
trait ByteOwner: Send + Sync {
    fn as_bytes(&self) -> &[u8];
}

impl<T: AsRef<[u8]> + Send + Sync> ByteOwner for T {
    fn as_bytes(&self) -> &[u8] {
        self.as_ref()
    }
}

/// Storage behind a [`Bytes`] window: a borrowed `'static` slice (no
/// allocation, no refcount — what [`Bytes::new`] and
/// [`Bytes::from_static`] build), a plain shared slice, or a
/// caller-supplied owner whose `Drop` reclaims the buffer (buffer
/// pools use this to return slots when the last clone drops; a `Vec`
/// converted into a [`Bytes`] is kept where it is as such an owner).
#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
    Owned(Arc<dyn ByteOwner>),
}

/// A cheaply cloneable, contiguous, immutable byte buffer.
///
/// Internally a refcounted buffer plus a window; `clone` and `slice`
/// are O(1) and never copy.
#[derive(Clone)]
pub struct Bytes {
    data: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer. Allocation-free.
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Builds a buffer that borrows a static slice: no allocation and
    /// no copy, like the real `bytes` crate.
    pub const fn from_static(s: &'static [u8]) -> Self {
        Bytes {
            data: Repr::Static(s),
            start: 0,
            end: s.len(),
        }
    }

    /// Copies `s` into a new buffer.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes {
            data: Repr::Shared(Arc::from(s)),
            start: 0,
            end: s.len(),
        }
    }

    /// Wraps a caller-owned buffer without copying. The `Bytes` (and
    /// every clone/slice of it) keeps `owner` alive; when the last
    /// reference drops, `owner`'s `Drop` runs — which is how pooled
    /// buffers return to their pool. `owner.as_ref()` must be stable:
    /// it is re-evaluated on every access and must always return the
    /// same slice.
    pub fn from_owner<O>(owner: O) -> Self
    where
        O: AsRef<[u8]> + Send + Sync + 'static,
    {
        let end = owner.as_ref().len();
        Bytes {
            data: Repr::Owned(Arc::new(owner)),
            start: 0,
            end,
        }
    }

    /// Number of bytes in the window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-window of this buffer without copying.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// The window as a slice.
    pub fn as_slice(&self) -> &[u8] {
        let full: &[u8] = match &self.data {
            Repr::Static(data) => data,
            Repr::Shared(data) => data,
            Repr::Owned(owner) => owner.as_bytes(),
        };
        &full[self.start..self.end]
    }

    /// Copies the window into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Takes the vector's buffer as it is: no byte is copied, and the
/// window starts at the vector's own first byte.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_owner(v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Self {
        Bytes::from_static(s)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 32 {
            write!(f, "... ({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Clears the buffer, keeping capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Reserves space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Converts into an immutable [`Bytes`] over the same buffer,
    /// without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({} bytes)", self.len())
    }
}

/// Read cursor over a byte buffer. Multi-byte reads are big-endian,
/// matching the real `bytes` crate (and network byte order).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread window.
    fn chunk(&self) -> &[u8];

    /// Consumes `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// True if any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies `dst.len()` bytes out, advancing.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }

    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt)
    }
}

/// Write cursor over a growable byte buffer. Multi-byte writes are
/// big-endian.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Writes into a fixed slice, advancing the window — matching the real
/// `bytes` crate's `impl BufMut for &mut [u8]`.
///
/// # Panics
///
/// Panics if a write exceeds the remaining slice.
impl BufMut for &mut [u8] {
    fn put_slice(&mut self, src: &[u8]) {
        assert!(src.len() <= self.len(), "buffer overflow");
        let (head, tail) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = tail;
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(1);
        buf.put_u16(0x0203);
        buf.put_u32(0x0405_0607);
        buf.put_u64(0x0809_0a0b_0c0d_0e0f);
        buf.put_slice(b"xyz");
        let mut rd = buf.freeze();
        assert_eq!(rd.remaining(), 1 + 2 + 4 + 8 + 3);
        assert_eq!(rd.get_u8(), 1);
        assert_eq!(rd.get_u16(), 0x0203);
        assert_eq!(rd.get_u32(), 0x0405_0607);
        assert_eq!(rd.get_u64(), 0x0809_0a0b_0c0d_0e0f);
        let mut tail = [0u8; 3];
        rd.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"xyz");
        assert!(!rd.has_remaining());
    }

    #[test]
    fn slices_share_storage() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
    }

    #[test]
    fn advance_is_in_place() {
        let mut b = Bytes::from(vec![9, 8, 7]);
        b.advance(1);
        assert_eq!(&b[..], &[8, 7]);
        assert_eq!(b.get_u8(), 8);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn equality_ignores_provenance() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[0, 1, 2, 3]).slice(1..);
        assert_eq!(a, b);
    }

    #[test]
    fn vectors_and_frozen_buffers_keep_their_address() {
        // The real crate's conversions move the buffer; a copy here
        // would be a hidden whole-value pass on every reassembled reply
        // and every frozen header.
        let v: Vec<u8> = (0..200_000u32).map(|i| i as u8).collect();
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at);
        assert_eq!(b.slice(7..).as_ptr(), at.wrapping_add(7));
        let mut m = BytesMut::with_capacity(64);
        m.put_slice(b"frozen in place");
        let at = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), at);
        assert_eq!(&frozen[..], b"frozen in place");
        let copied = Bytes::copy_from_slice(&frozen);
        assert_ne!(copied.as_ptr(), at, "copy_from_slice copies");
        assert_eq!(copied, frozen);
    }

    #[test]
    fn static_buffers_borrow_instead_of_allocating() {
        static DATA: [u8; 5] = *b"hello";
        let b = Bytes::from_static(&DATA);
        // The window points at the static itself: nothing was copied
        // into a shared allocation, for the buffer or for its slices.
        assert_eq!(b.as_ptr(), DATA.as_ptr());
        assert_eq!(b.clone().slice(1..4).as_ptr(), DATA[1..].as_ptr());
        assert_eq!(&b.slice(1..4)[..], b"ell");
        assert!(matches!(Bytes::new().data, Repr::Static(_)));
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::default(), Bytes::from_static(b""));
    }

    #[test]
    fn owner_dropped_with_last_reference() {
        struct Guard(Vec<u8>, std::sync::Arc<std::sync::atomic::AtomicBool>);
        impl AsRef<[u8]> for Guard {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        impl Drop for Guard {
            fn drop(&mut self) {
                self.1.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let dropped = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let b = Bytes::from_owner(Guard(vec![1, 2, 3, 4], std::sync::Arc::clone(&dropped)));
        let s = b.slice(1..3);
        assert_eq!(&s[..], &[2, 3]);
        drop(b);
        assert!(
            !dropped.load(std::sync::atomic::Ordering::SeqCst),
            "a live slice must keep the owner alive"
        );
        drop(s);
        assert!(dropped.load(std::sync::atomic::Ordering::SeqCst));
    }
}
