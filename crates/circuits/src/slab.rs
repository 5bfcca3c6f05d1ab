//! The word slab that per-box records live in: the circuit's box contents
//! and the enumeration index's entries.
//!
//! A record is a run of `u64` words, found through a [`Block`]: its slab
//! address, its length and the size class of the block holding it.  The
//! slab hands out blocks in size classes (eight exact sizes up to 8 words,
//! then four per doubling, so a block wastes under 25%), and every freed or
//! resized record returns its block to its class's free list for the next
//! record of that class.  A record may also take a free block up to
//! `FIT_CLASSES` classes larger.
//!
//! Blocks are carved from chunks that start at 2⁸ words and double up to
//! 2¹⁶ words, so a small circuit or index holds little; a record larger
//! than a chunk gets a chunk of its own.  A chunk is a `Vec` whose length
//! is the words carved so far, so a clone copies only carved words; a
//! chunk never grows by doubling (a cloned one takes its full size once).

/// Bits of a slab address that index into a chunk.
const SLAB_BITS: u32 = 16;
/// Words of a full-size chunk (512 KiB).
const SLAB_CHUNK: usize = 1 << SLAB_BITS;
/// Words of the first chunk; each later regular chunk doubles, up to
/// [`SLAB_CHUNK`].
const FIRST_CHUNK: usize = 1 << 8;

/// A record may take a free block up to this many classes above its own
/// before a fresh block is carved, so neighbouring classes share their
/// free blocks (a block then wastes under 56%).
const FIT_CLASSES: usize = 2;

/// The size class of a `len`-word record: `len` itself up to 8, then four
/// classes per doubling (10, 12, 14, 16, 20, 24, 28, 32, 40, …).
#[inline]
fn class_of(len: usize) -> usize {
    if len <= 8 {
        return len;
    }
    let g = (usize::BITS - ((len - 1) >> 4).leading_zeros()) as usize;
    let (base, step) = (8 << g, 2 << g);
    9 + 4 * g + (len - base).div_ceil(step) - 1
}

/// The block size of size class `c`.
#[inline]
fn class_size(c: usize) -> usize {
    if c <= 8 {
        return c;
    }
    let (g, s) = ((c - 9) / 4, (c - 9) % 4 + 1);
    (8 << g) + s * (2 << g)
}

/// `true` iff records of size class `class` get a chunk of their own.
#[inline]
fn is_large(class: usize) -> bool {
    class_size(class) > SLAB_CHUNK
}

/// Where a record lives: its slab address (`chunk << 16 | offset`), its
/// length and the size class of its block.  The default is no block; every
/// stored record has at least one word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Block {
    addr: u32,
    /// `len | class << 24`.
    meta: u32,
}

impl Block {
    /// No block.
    pub const NONE: Block = Block { addr: 0, meta: 0 };

    fn new(addr: u32, len: usize, class: usize) -> Self {
        assert!(len < 1 << 24, "slab record of {len} words");
        Block {
            addr,
            meta: len as u32 | (class as u32) << 24,
        }
    }

    /// `true` iff this is [`Block::NONE`].
    #[inline]
    pub fn is_none(self) -> bool {
        self.meta == 0
    }

    #[inline]
    fn len(self) -> usize {
        (self.meta & 0xFF_FFFF) as usize
    }

    #[inline]
    fn class(self) -> usize {
        (self.meta >> 24) as usize
    }
}

/// The word slab (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Slab {
    /// Regular chunks, carved up to their length, and large chunks
    /// (exactly one record; empty once released).
    chunks: Vec<Vec<u64>>,
    /// The regular chunk blocks are carved from, and its size.
    bump: Option<(u32, usize)>,
    /// Regular chunks made so far (sets the next one's size).
    regular: u32,
    /// Per size class: addresses of free blocks.
    free: Vec<Vec<u32>>,
    /// Released large chunks, for the next large record.
    free_large: Vec<u32>,
    /// Words carved: records, free blocks and large chunks.
    words: usize,
    /// Words in free blocks.
    free_words: usize,
}

impl Slab {
    /// The words of the record at `block`.
    #[inline]
    pub fn get(&self, block: Block) -> &[u64] {
        let at = block.addr as usize & (SLAB_CHUNK - 1);
        &self.chunks[(block.addr >> SLAB_BITS) as usize][at..at + block.len()]
    }

    #[inline]
    fn get_mut(&mut self, block: Block) -> &mut [u64] {
        let at = block.addr as usize & (SLAB_CHUNK - 1);
        &mut self.chunks[(block.addr >> SLAB_BITS) as usize][at..at + block.len()]
    }

    /// Words held: records, free blocks and large chunks.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Words in free blocks, waiting for a record of their size class.
    pub fn free_words(&self) -> usize {
        self.free_words
    }

    /// Stores `record` in place of the record at `old` (or anew if `old`
    /// is [`Block::NONE`]): in `old`'s block while it fits within
    /// `FIT_CLASSES`, else in a new block, `old`'s going back to the
    /// free lists.  Returns where the record now lives.
    // hot-path: runs once per stored record on the repair path.
    pub fn store(&mut self, old: Block, record: &[u64]) -> Block {
        let len = record.len();
        debug_assert!(len > 0, "a record has at least one word");
        let class = class_of(len);
        let block = if !old.is_none()
            && !is_large(old.class())
            && (class..=class + FIT_CLASSES).contains(&old.class())
        {
            Block::new(old.addr, len, old.class())
        } else {
            self.release(old);
            self.alloc(len)
        };
        self.get_mut(block).copy_from_slice(record);
        block
    }

    /// Returns the block at `block` to the free lists (a no-op for
    /// [`Block::NONE`]).
    pub fn release(&mut self, block: Block) {
        if block.is_none() {
            return;
        }
        if is_large(block.class()) {
            let i = block.addr >> SLAB_BITS;
            self.words -= std::mem::take(&mut self.chunks[i as usize]).len();
            self.free_large.push(i);
        } else {
            self.push_free(block.class(), block.addr);
        }
    }

    fn push_free(&mut self, class: usize, addr: u32) {
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Default::default);
        }
        self.free[class].push(addr);
        self.free_words += class_size(class);
    }

    /// A new chunk with room for `cap` words; returns its index.
    fn push_chunk(&mut self, cap: usize) -> u32 {
        let i = self.chunks.len();
        assert!(i < 1 << (32 - SLAB_BITS), "slab exceeds 2^32 words");
        self.chunks.push(Vec::with_capacity(cap));
        i as u32
    }

    /// A block for a `len`-word record: a free block of its class or of one
    /// of the [`FIT_CLASSES`] above, else a fresh one carved from the
    /// current chunk (a record larger than a chunk gets a chunk of its
    /// own).
    fn alloc(&mut self, len: usize) -> Block {
        let class = class_of(len);
        if is_large(class) {
            self.words += len;
            let i = match self.free_large.pop() {
                Some(i) => i,
                None => self.push_chunk(len),
            };
            self.chunks[i as usize].resize(len, 0);
            return Block::new(i << SLAB_BITS, len, class);
        }
        for c in class..=class + FIT_CLASSES {
            if let Some(addr) = self.free.get_mut(c).and_then(Vec::pop) {
                self.free_words -= class_size(c);
                return Block::new(addr, len, c);
            }
        }
        let size = class_size(class);
        let (c, cap) = match self.bump {
            Some((c, cap)) if cap - self.chunks[c as usize].len() >= size => (c, cap),
            _ => {
                self.retire_bump();
                let cap = (FIRST_CHUNK << self.regular.min(SLAB_BITS))
                    .min(SLAB_CHUNK)
                    .max(size);
                self.regular += 1;
                (self.push_chunk(cap), cap)
            }
        };
        self.bump = Some((c, cap));
        let at = self.carve(c, cap, size);
        self.words += size;
        Block::new(c << SLAB_BITS | at as u32, len, class)
    }

    /// Carves `size` words off the end of chunk `c` (of size `cap`);
    /// returns their offset.
    fn carve(&mut self, c: u32, cap: usize, size: usize) -> usize {
        let chunk = &mut self.chunks[c as usize];
        let at = chunk.len();
        // A cloned chunk has no spare capacity: give it its whole size
        // once, so it never grows by doubling.
        if chunk.capacity() < cap {
            chunk.reserve_exact(cap - at);
        }
        chunk.resize(at + size, 0);
        at
    }

    /// Hands the uncarved tail of the current chunk to the free lists, in
    /// the largest blocks that fit.
    fn retire_bump(&mut self) {
        let Some((c, cap)) = self.bump.take() else {
            return;
        };
        let mut at = self.chunks[c as usize].len();
        while at < cap {
            let rest = cap - at;
            let mut class = class_of(rest);
            if class_size(class) > rest {
                class -= 1;
            }
            let size = class_size(class);
            self.carve(c, cap, size);
            self.words += size;
            self.push_free(class, c << SLAB_BITS | at as u32);
            at += size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_cover_every_length_tightly() {
        let mut prev = 0;
        for c in 1..60 {
            let size = class_size(c);
            assert!(size > prev, "classes grow");
            assert_eq!(class_of(size), c);
            assert_eq!(class_of(prev + 1), c, "no length falls between classes");
            assert!(size <= 8 || 4 * size < 5 * (prev + 1), "under 25% waste");
            prev = size;
        }
    }

    #[test]
    fn slab_reuses_freed_blocks_and_keeps_large_records_apart() {
        let mut slab = Slab::default();
        let a = slab.store(Block::NONE, &[1; 11]);
        let b = slab.store(Block::NONE, &[2; 3]);
        assert_eq!((class_size(a.class()), slab.words), (12, 12 + 3));
        slab.release(a);
        assert_eq!(slab.free_words, 12);
        let a2 = slab.store(Block::NONE, &[3; 12]);
        assert_eq!(
            (a2.addr, a2.class()),
            (a.addr, a.class()),
            "same class, same block"
        );
        let a3 = slab.store(a2, &[4; 9]);
        assert_eq!(a3.addr, a2.addr, "a record two classes down stays in place");
        assert_eq!(slab.get(a3), &[4; 9]);
        assert_eq!(slab.free_words, 0);
        // A record larger than a chunk gets a chunk of its own, returned
        // whole on release and reused by the next large record.
        let big = slab.store(Block::NONE, &vec![5; SLAB_CHUNK + 5]);
        assert_eq!(big.addr & (SLAB_CHUNK as u32 - 1), 0);
        assert_eq!(slab.get(big).len(), SLAB_CHUNK + 5);
        slab.release(big);
        assert_eq!(slab.words, 15);
        assert_eq!(
            slab.store(Block::NONE, &vec![6; SLAB_CHUNK + 1]).addr,
            big.addr
        );
        // Filling past a chunk retires its tail into free blocks.
        let before = slab.chunks.len();
        let mut used = 15;
        while slab.chunks.len() == before {
            slab.store(Block::NONE, &[7; 100]);
            used += class_size(class_of(100));
        }
        assert_eq!(slab.words - (SLAB_CHUNK + 1), used + slab.free_words);
        let copy = slab.clone();
        assert_eq!(copy.get(b), slab.get(b));
        assert_eq!(copy.words, slab.words);
    }

    #[test]
    fn chunks_start_small_and_a_clone_copies_only_carved_words() {
        let mut slab = Slab::default();
        let first = slab.store(Block::NONE, &[1; 5]);
        assert_eq!(slab.chunks[0].capacity(), FIRST_CHUNK);
        assert_eq!(slab.words(), 5);
        let copy = slab.clone();
        assert_eq!(copy.chunks[0].capacity(), 5, "only carved words are copied");
        // Chunks double up to the full size.
        let mut caps = vec![FIRST_CHUNK];
        while caps.last() != Some(&SLAB_CHUNK) {
            slab.store(Block::NONE, &[2; 200]);
            if let Some((_, cap)) = slab.bump {
                if caps.last() != Some(&cap) {
                    caps.push(cap);
                }
            }
        }
        assert!(caps.windows(2).all(|w| w[1] == 2 * w[0]), "{caps:?}");
        // The clone carves past its copied words without disturbing them.
        let mut copy = copy;
        let next = copy.store(Block::NONE, &[3; 4]);
        assert_eq!(copy.get(first), &[1; 5]);
        assert_eq!(copy.get(next), &[3; 4]);
        assert_eq!(copy.chunks.len(), 1);
    }
}
