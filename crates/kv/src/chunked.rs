//! A fixed-capacity array built one chunk at a time: a chunk's elements
//! exist (and its pages are touched) only after [`Chunked::build`] was
//! called for an index in it, so an index sized for the most a
//! partition may hold costs memory in proportion to what it has held.

use std::sync::OnceLock;

/// Elements per chunk (1 024 item slots are 32 KiB).
pub(crate) const CHUNK: usize = 1 << 10;

#[derive(Debug)]
pub(crate) struct Chunked<T> {
    chunks: Box<[OnceLock<Box<[T]>>]>,
    len: usize,
}

impl<T: Default> Chunked<T> {
    /// An array of `len` elements, none of them built.
    pub(crate) fn new(len: usize) -> Self {
        Chunked {
            chunks: (0..len.div_ceil(CHUNK)).map(|_| OnceLock::new()).collect(),
            len,
        }
    }

    /// Element `idx`, or `None` while its chunk is unbuilt.
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> Option<&T> {
        let chunk = self.chunks[idx / CHUNK].get()?;
        Some(&chunk[idx % CHUNK])
    }

    /// Element `idx`, building its chunk (of default elements) first if
    /// no index in it has been built; concurrent builders of one chunk
    /// wait for the first.
    pub(crate) fn build(&self, idx: usize) -> &T {
        let c = idx / CHUNK;
        let chunk = self.chunks[c].get_or_init(|| {
            let len = CHUNK.min(self.len - c * CHUNK);
            (0..len).map(|_| T::default()).collect()
        });
        &chunk[idx % CHUNK]
    }

    /// The element count the array was sized for.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The built chunks' elements.
    pub(crate) fn iter_built(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().filter_map(|c| c.get()).flatten()
    }

    /// Chunks built so far.
    #[cfg(test)]
    pub(crate) fn built_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
    }

    /// Bytes held: the built chunks' elements and the chunk table.
    pub(crate) fn footprint_bytes(&self) -> usize {
        let built: usize = self
            .chunks
            .iter()
            .filter_map(|c| c.get())
            .map(|c| c.len())
            .sum();
        built * std::mem::size_of::<T>()
            + self.chunks.len() * std::mem::size_of::<OnceLock<Box<[T]>>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_built_on_first_use_and_the_last_is_short() {
        let array: Chunked<u64> = Chunked::new(2 * CHUNK + 3);
        assert_eq!(array.built_chunks(), 0);
        assert_eq!(array.get(5), None);
        assert_eq!(*array.build(2 * CHUNK + 2), 0);
        assert_eq!(array.built_chunks(), 1);
        assert_eq!(array.get(5), None, "other chunks stay unbuilt");
        array.build(5);
        assert_eq!(array.get(5), Some(&0));
        assert_eq!(array.iter_built().count(), CHUNK + 3);
        let table = 3 * std::mem::size_of::<OnceLock<Box<[u64]>>>();
        assert_eq!(array.footprint_bytes(), (CHUNK + 3) * 8 + table);
    }
}
