//! A growable array stored in fixed-size chunks.
//!
//! The arenas on the update path (term nodes, circuit boxes, index record
//! addresses, repair marks) are indexed by `u32` ids and only ever grow.  A
//! doubling `Vec` copies the whole arena each time it outgrows its
//! capacity, on the writer's flush path, and the allocator keeps the old
//! block resident.  A [`ChunkedVec`] never moves an element: growing past a
//! chunk boundary allocates one new chunk of [`CHUNK`] elements.  Chunks
//! are fixed-size arrays, so an index costs one more load than a `Vec`'s
//! and no second bounds check.

/// Elements per chunk (a power of two).
pub const CHUNK: usize = 1 << 10;

/// A growable array in chunks of [`CHUNK`] elements (see the module docs).
#[derive(Clone, Debug)]
pub struct ChunkedVec<T> {
    /// The slots past `len` hold copies of the value that opened their
    /// chunk.
    chunks: Vec<Box<[T; CHUNK]>>,
    len: usize,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> ChunkedVec<T> {
    /// An empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the array has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `i`, if `i < len`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| &self[i])
    }

    /// The element at `i` mutably, if `i < len`.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        (i < self.len).then(|| &mut self[i])
    }

    /// The elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter()).take(self.len)
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Appends `x`.
    pub fn push(&mut self, x: T) {
        if self.len == self.chunks.len() * CHUNK {
            let chunk = vec![x.clone(); CHUNK].into_boxed_slice();
            self.chunks
                .push(chunk.try_into().ok().expect("a chunk of CHUNK elements"));
        }
        let i = self.len;
        self.len += 1;
        self[i] = x;
    }

    /// Grows the array to `len` elements, filling with `value`; never
    /// shrinks it.
    pub fn grow_to(&mut self, len: usize, value: T) {
        while self.len < len {
            self.push(value.clone());
        }
    }

    /// The element at `i` mutably, growing the array with `fill` first if
    /// `i` is past its end.
    #[inline]
    pub fn at_mut(&mut self, i: usize, fill: T) -> &mut T {
        if i >= self.len {
            self.grow_to(i + 1, fill);
        }
        &mut self[i]
    }

    /// Overwrites every element with `value`.
    pub fn fill(&mut self, value: T) {
        for chunk in &mut self.chunks {
            chunk.fill(value.clone());
        }
    }
}

impl<T> std::ops::Index<usize> for ChunkedVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "index {i} past {}", self.len);
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T> std::ops::IndexMut<usize> for ChunkedVec<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "index {i} past {}", self.len);
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_by_chunks_without_moving_elements() {
        let mut v = ChunkedVec::new();
        for i in 0..2 * CHUNK + 5 {
            v.push(i);
        }
        let first = &v[0] as *const usize;
        v.push(7);
        assert_eq!(first, &v[0] as *const usize, "no element moves");
        assert_eq!(v.len(), 2 * CHUNK + 6);
        assert_eq!(v[CHUNK + 3], CHUNK + 3);
        assert_eq!(v.get(v.len()), None);
        assert!(v.iter().take(2 * CHUNK + 5).copied().eq(0..2 * CHUNK + 5));
    }

    #[test]
    fn a_clone_grows_on_its_own() {
        let mut v = ChunkedVec::new();
        v.grow_to(CHUNK + 3, 1u64);
        let mut w = v.clone();
        *w.at_mut(CHUNK + 10, 0) = 9;
        assert_eq!((v.len(), w.len()), (CHUNK + 3, CHUNK + 11));
        assert_eq!(v.get(CHUNK + 5), None);
        assert_eq!((w[CHUNK + 2], w[CHUNK + 5], w[CHUNK + 10]), (1, 0, 9));
        w.fill(4);
        assert!(w.iter().all(|&x| x == 4));
        assert!(v.iter().all(|&x| x == 1));
    }
}
