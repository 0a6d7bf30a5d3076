//! [`KeyIndex`]: the shard hot path's key → bin-stack map.
//!
//! `Shard` (and rounds mode's global index) used to track live keys in a
//! `std::collections::HashMap<u64, Vec<u64>>`. That pays twice per op on
//! the hottest path in the engine: SipHash over an already-uniform `u64`
//! key, and a heap-allocated `Vec` per key even though almost every key
//! holds one or two balls (load factor ≈ 1 in every experiment here).
//!
//! [`KeyIndex`] replaces both costs:
//!
//! * **Seeded multiply-mix hashing** — keys are hashed with the
//!   [`SplitMix64`] finalizer over `key ^ seed` (two multiply/xor-shift
//!   rounds), which is a few cycles instead of SipHash's per-byte rounds
//!   and is exactly right for keys that are already uniform `u64`s. The
//!   seed keeps the table's probe order deterministic per shard while
//!   still decorrelating it from the raw key values.
//! * **Single-ball keys live in their slot** — a key holding one ball
//!   stores that bin in its 16-byte probe slot and owns no arena entry,
//!   so creating, finding or deleting it touches only its probe run,
//!   usually one cache line. Only a key with two or more balls (or a
//!   lone bin with the top bit set, which the slot reserves as a tag)
//!   takes a stack entry in the *arena*, and a stack popped back to one
//!   slot-sized bin moves it into the slot and frees the entry.
//! * **Inline small-stacks** — up to [`INLINE_BINS`] bins live directly
//!   in a key's arena entry; only deeper stacks spill to a heap `Vec`,
//!   and a spilled stack shrinks back inline when deletes bring it down
//!   again. Insert-then-delete churn at realistic depths never
//!   allocates.
//!
//! The table is open-addressed with linear probing and backward-shift
//! deletion (no tombstones), growing at 5/8 occupancy. Storage is a
//! dense probe array of 16-byte slots (four per cache line — a probe
//! run usually stays inside one line) plus the stable stack arena that
//! stacked slots point into. Growth rebuilds only the slots; stacks
//! never move. Enumeration order of a hash table is an implementation
//! detail, so the deterministic surface the engine exposes
//! ([`Shard::live_key_ids`](crate::Shard::live_key_ids), cluster drains,
//! placement maps) always goes through [`KeyIndex::sorted_keys`], which
//! sorts ascending exactly like the `HashMap` predecessor did.
//!
//! Once the index outgrows the last-level cache, a fresh key's home slot
//! is a DRAM miss. `KeyIndex::warm` loads the home slots of a chunk of
//! keys about to be pushed: the loads do not depend on one another, so
//! the core keeps many of them in flight at once, and the pushes that
//! follow find their lines cached instead of paying one miss each in
//! turn. A plain load serves where a prefetch instruction would need
//! `unsafe`, which this crate forbids.

use ba_rng::SplitMix64;

/// Bins stored directly in an arena entry before the stack spills to
/// the heap. Six fills a stack entry out to exactly one cache line and
/// comfortably covers the bench convention's mean key depth
/// (`total_ops = 4 × keyspace`): under a Poisson(4) depth profile only
/// ~11% of keys ever touch the heap. Single-ball keys hold no arena
/// entry at all (see [`KeyIndex`]).
pub const INLINE_BINS: usize = 6;

/// Top bit of a slot's value: set, the low bits index the key's arena
/// [`Stack`]; clear, the value is the key's single bin.
const STACKED: u64 = 1 << 63;

/// The value of an unoccupied slot. It has the [`STACKED`] bit set, and
/// [`stacked`] never builds it, so it names neither a bin nor a stack.
const EMPTY: u64 = u64::MAX;

/// The slot value pointing at arena entry `idx`.
fn stacked(idx: usize) -> u64 {
    match u64::try_from(idx) {
        Ok(idx) if idx < EMPTY & !STACKED => STACKED | idx,
        _ => panic!("arena index {idx} does not fit below the STACKED tag"),
    }
}

/// The arena index a [`STACKED`] slot value points at.
fn arena_index(val: u64) -> usize {
    usize::try_from(val & !STACKED).expect("arena indexes are built from usize by `stacked`")
}

/// A key's LIFO stack of bins: inline up to [`INLINE_BINS`] deep, heap
/// beyond that, shrinking back inline when it fits again.
///
/// Sized and aligned to exactly one 64-byte cache line so an arena
/// access is always a single line fill — unaligned 40-byte entries
/// straddled a boundary five times out of eight, costing a second miss
/// on the (DRAM-bound) cold-key path.
#[derive(Debug, Clone)]
#[repr(align(64))]
enum Stack {
    /// `len` live bins stored in the entry itself (`len >= 1`; empty
    /// stacks are freed, never read).
    Inline { len: u8, bins: [u64; INLINE_BINS] },
    /// The deep case: more than [`INLINE_BINS`] live bins.
    Spilled(Vec<u64>),
}

/// The arena layout contract: one entry, one cache line.
const _: () = assert!(std::mem::size_of::<Stack>() == 64);

impl Stack {
    /// An inline stack holding `from` (at most [`INLINE_BINS`] bins).
    fn inline(from: &[u64]) -> Self {
        let mut bins = [0; INLINE_BINS];
        bins[..from.len()].copy_from_slice(from);
        let len = u8::try_from(from.len()).expect("inline stacks hold at most INLINE_BINS bins");
        Stack::Inline { len, bins }
    }

    fn push(&mut self, bin: u64) {
        match self {
            Stack::Inline { len, bins } => {
                let n = usize::from(*len);
                if n < INLINE_BINS {
                    bins[n] = bin;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(INLINE_BINS * 2);
                    spilled.extend_from_slice(&bins[..n]);
                    spilled.push(bin);
                    *self = Stack::Spilled(spilled);
                }
            }
            Stack::Spilled(bins) => bins.push(bin),
        }
    }

    /// Pops the most recent bin; the caller frees or moves what is left
    /// once it is down to one bin or none.
    fn pop(&mut self) -> u64 {
        match self {
            Stack::Inline { len, bins } => {
                *len -= 1;
                bins[usize::from(*len)]
            }
            Stack::Spilled(heap) => {
                let bin = heap.pop().expect("spilled stacks hold > INLINE_BINS bins");
                if heap.len() <= INLINE_BINS {
                    *self = Stack::inline(heap);
                }
                bin
            }
        }
    }

    fn as_slice(&self) -> &[u64] {
        match self {
            Stack::Inline { len, bins } => &bins[..usize::from(*len)],
            Stack::Spilled(bins) => bins,
        }
    }
}

/// One probe-array slot — 16 bytes, so a cache line covers four slots
/// and a probe run usually stays inside one line.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    /// The key's single bin (top bit clear), [`STACKED`] `|` the arena
    /// index of its stack, or [`EMPTY`] while the slot is unoccupied.
    val: u64,
}

impl Slot {
    const VACANT: Slot = Slot { key: 0, val: EMPTY };

    #[inline]
    fn is_live(self) -> bool {
        self.val != EMPTY
    }
}

/// An open-addressed `u64 → bin-stack` map tuned for the shard hot path:
/// multiply-mix hashing, linear probing with backward-shift deletion,
/// single-ball keys stored in their slot, and inline storage for stacks
/// up to [`INLINE_BINS`] deep. See the [module docs](self) for why it
/// replaces `HashMap<u64, Vec<u64>>`.
///
/// Storage is a dense probe array of 16-byte slots plus a stack *arena*.
/// A key with one ball keeps its bin in its slot and holds no arena
/// entry, so a key that is pushed once and popped once never leaves the
/// probe array. A key with more balls points its slot at an arena
/// stack. Growth rebuilds only the 16-byte slots under the new mask;
/// the wide stacks never move (a stack keeps its arena position until
/// its key drops back to one ball or none, and freed positions recycle
/// through a free list), so rehashing costs bytes proportional to the
/// probe array, not to the stacks.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    /// Mixed into every hash; makes probe order deterministic per owner
    /// (shards pass their salt) without being a function of raw keys.
    seed: u64,
    /// Power-of-two probe array; a vacant slot terminates probe runs.
    slots: Vec<Slot>,
    /// Stack arena; stacked slots point into it, free positions are
    /// listed in `free`.
    stacks: Vec<Stack>,
    /// Arena positions no key points at, ready for reuse.
    free: Vec<usize>,
    /// `slots.len() - 1`, cached for masking (0 while unallocated).
    mask: usize,
    /// Live keys (occupied slots).
    len: usize,
}

impl KeyIndex {
    /// Initial capacity on first insert.
    const FIRST_CAPACITY: usize = 16;

    /// Creates an empty index hashing with `seed`. No slots are
    /// allocated until the first insert.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            slots: Vec::new(),
            stacks: Vec::new(),
            free: Vec::new(),
            mask: 0,
            len: 0,
        }
    }

    /// Number of distinct live keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key holds a live ball.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The key's home slot under the current capacity.
    #[inline]
    fn home(&self, key: u64) -> usize {
        SplitMix64::mix(key ^ self.seed) as usize & self.mask
    }

    /// Finds the slot holding `key`, if present. Touches only the dense
    /// probe array.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i];
            if !slot.is_live() {
                return None;
            }
            if slot.key == key {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Loads the home slot of each of `keys`, so the cache misses of the
    /// pushes that follow are in flight together rather than one per
    /// push (see the [module docs](self)).
    pub(crate) fn warm(&self, keys: &[u64]) {
        if self.slots.is_empty() {
            return;
        }
        let folded = keys
            .iter()
            .fold(0u64, |acc, &key| acc ^ self.slots[self.home(key)].key);
        std::hint::black_box(folded);
    }

    /// Inserts `(key, val)` into a table guaranteed to have a vacant
    /// slot.
    #[inline]
    fn insert_entry(&mut self, key: u64, val: u64) {
        let mut i = self.home(key);
        while self.slots[i].is_live() {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = Slot { key, val };
        self.len += 1;
    }

    /// Doubles (or first-allocates) the probe array and re-inserts every
    /// slot under the new mask. The stack arena is untouched — growth
    /// cost is proportional to the 16-byte slots alone.
    fn grow(&mut self) {
        let capacity = if self.slots.is_empty() {
            Self::FIRST_CAPACITY
        } else {
            self.slots.len() * 2
        };
        let old_slots = std::mem::replace(&mut self.slots, vec![Slot::VACANT; capacity]);
        self.mask = capacity - 1;
        self.len = 0;
        for slot in old_slots {
            if slot.is_live() {
                self.insert_entry(slot.key, slot.val);
            }
        }
    }

    /// Stores `bins` in an arena entry (recycling a freed one first) and
    /// returns the slot value pointing at it.
    fn new_stack(&mut self, bins: &[u64]) -> u64 {
        let stack = Stack::inline(bins);
        let idx = match self.free.pop() {
            Some(idx) => {
                self.stacks[idx] = stack;
                idx
            }
            None => {
                self.stacks.push(stack);
                self.stacks.len() - 1
            }
        };
        stacked(idx)
    }

    /// Pushes `bin` onto `key`'s stack (creating the key if new).
    pub fn push(&mut self, key: u64, bin: u64) {
        if let Some(i) = self.find(key) {
            let val = self.slots[i].val;
            if val & STACKED == 0 {
                self.slots[i].val = self.new_stack(&[val, bin]);
            } else {
                self.stacks[arena_index(val)].push(bin);
            }
            return;
        }
        // Grow at 5/8 occupancy: plain (non-SIMD) linear probing
        // degrades steeply past ~2/3 full — an unsuccessful probe at
        // 7/8 walks ~30 slots on average versus ~4 here — and every
        // miss-then-create insert pays the unsuccessful case. Slots are
        // 16 bytes, so the headroom is cheap.
        if (self.len + 1) * 8 > self.slots.len() * 5 {
            self.grow();
        }
        let val = if bin & STACKED == 0 {
            bin
        } else {
            self.new_stack(&[bin])
        };
        self.insert_entry(key, val);
    }

    /// Pops the most recent bin for `key`; removes the key when its last
    /// ball goes. Returns `None` for a key with no live balls.
    pub fn pop(&mut self, key: u64) -> Option<u64> {
        let i = self.find(key)?;
        let val = self.slots[i].val;
        if val & STACKED == 0 {
            self.remove_at(i);
            return Some(val);
        }
        let idx = arena_index(val);
        let stack = &mut self.stacks[idx];
        let bin = stack.pop();
        // A stack down to no bins, or to one bin that fits the slot,
        // gives its arena entry back.
        match *stack.as_slice() {
            [] => self.remove_at(i),
            [last] if last & STACKED == 0 => self.slots[i].val = last,
            _ => return Some(bin),
        }
        self.free.push(idx);
        Some(bin)
    }

    /// Vacates slot `hole`, backward-shifting any displaced slots of
    /// the probe run that follows so lookups never need tombstones.
    /// Only the 16-byte slots move; arena positions are stable.
    fn remove_at(&mut self, mut hole: usize) {
        self.slots[hole] = Slot::VACANT;
        self.len -= 1;
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            let slot = self.slots[i];
            if !slot.is_live() {
                return;
            }
            let home = self.home(slot.key);
            // The slot can fill the hole iff the hole lies on its probe
            // path — its displacement from home reaches at least as far
            // back as the hole does.
            let entry_distance = i.wrapping_sub(home) & self.mask;
            let hole_distance = i.wrapping_sub(hole) & self.mask;
            if entry_distance >= hole_distance {
                self.slots[hole] = slot;
                self.slots[i] = Slot::VACANT;
                hole = i;
            }
        }
    }

    /// The bins currently holding balls for `key`, oldest first.
    pub fn get(&self, key: u64) -> Option<&[u64]> {
        let slot = &self.slots[self.find(key)?];
        Some(if slot.val & STACKED == 0 {
            std::slice::from_ref(&slot.val)
        } else {
            self.stacks[arena_index(slot.val)].as_slice()
        })
    }

    /// Number of live balls for `key` (0 when absent).
    pub fn depth(&self, key: u64) -> usize {
        self.get(key).map_or(0, <[u64]>::len)
    }

    /// Every live key, sorted ascending — the deterministic enumeration
    /// the engine's replayable surfaces (cluster drains, placement maps)
    /// are built on. Slot order is a hash-table artifact and is never
    /// exposed.
    pub fn sorted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .slots
            .iter()
            .filter(|slot| slot.is_live())
            .map(|slot| slot.key)
            .collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_pop_roundtrip() {
        let mut idx = KeyIndex::with_seed(7);
        assert!(idx.is_empty());
        assert_eq!(idx.get(5), None);
        idx.push(5, 40);
        idx.push(5, 41);
        assert_eq!(idx.get(5), Some(&[40, 41][..]));
        assert_eq!(idx.depth(5), 2);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.pop(5), Some(41), "pops are LIFO");
        assert_eq!(idx.pop(5), Some(40));
        assert_eq!(idx.pop(5), None);
        assert!(idx.is_empty());
    }

    #[test]
    fn spills_past_inline_and_shrinks_back() {
        let mut idx = KeyIndex::with_seed(1);
        for bin in 0..10u64 {
            idx.push(9, bin);
        }
        assert_eq!(idx.get(9).unwrap(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        for bin in (2..10u64).rev() {
            assert_eq!(idx.pop(9), Some(bin));
        }
        // Back inside the inline regime, contents intact.
        assert_eq!(idx.get(9), Some(&[0, 1][..]));
        assert_eq!(idx.pop(9), Some(1));
        assert_eq!(idx.pop(9), Some(0));
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn survives_growth_and_collisions() {
        let mut idx = KeyIndex::with_seed(3);
        for key in 0..1000u64 {
            idx.push(key, key * 2);
            idx.push(key, key * 2 + 1);
        }
        assert_eq!(idx.len(), 1000);
        for key in 0..1000u64 {
            assert_eq!(idx.get(key), Some(&[key * 2, key * 2 + 1][..]));
        }
        // Delete every third key entirely; the rest must stay reachable
        // through the backward-shifted probe runs.
        for key in (0..1000u64).step_by(3) {
            assert_eq!(idx.pop(key), Some(key * 2 + 1));
            assert_eq!(idx.pop(key), Some(key * 2));
        }
        for key in 0..1000u64 {
            if key % 3 == 0 {
                assert_eq!(idx.get(key), None);
            } else {
                assert_eq!(idx.depth(key), 2, "key {key} lost after deletes");
            }
        }
    }

    #[test]
    fn sorted_keys_is_ascending_and_seed_independent() {
        let mut a = KeyIndex::with_seed(11);
        let mut b = KeyIndex::with_seed(987_654_321);
        for key in [9u64, 1, 500, 3, 77, 42] {
            a.push(key, 0);
            b.push(key, 0);
        }
        assert_eq!(a.sorted_keys(), vec![1, 3, 9, 42, 77, 500]);
        assert_eq!(a.sorted_keys(), b.sorted_keys());
    }

    #[test]
    fn single_ball_keys_hold_no_arena_entry() {
        let mut idx = KeyIndex::with_seed(5);
        for key in 0..1000u64 {
            idx.push(key, key + 7);
        }
        assert_eq!(idx.len(), 1000);
        assert!(idx.stacks.is_empty(), "one ball per key stays in the slots");
        for key in 0..1000u64 {
            assert_eq!(idx.get(key), Some(&[key + 7][..]));
        }
    }

    #[test]
    fn popping_to_one_ball_frees_the_arena_entry_for_reuse() {
        let mut idx = KeyIndex::with_seed(2);
        idx.push(1, 10);
        idx.push(1, 11);
        assert_eq!(idx.stacks.len(), 1);
        assert_eq!(idx.pop(1), Some(11));
        assert_eq!(idx.free, vec![0], "the emptied-to-one stack is freed");
        assert_eq!(
            idx.get(1),
            Some(&[10][..]),
            "its last bin moved to the slot"
        );
        idx.push(2, 20);
        idx.push(2, 21);
        assert_eq!(idx.stacks.len(), 1, "the next two-ball key reuses it");
        assert!(idx.free.is_empty());
        assert_eq!(idx.get(2), Some(&[20, 21][..]));
        assert_eq!(idx.get(1), Some(&[10][..]));
    }

    #[test]
    fn lone_bin_with_the_tag_bit_roundtrips_through_the_arena() {
        let mut idx = KeyIndex::with_seed(9);
        idx.push(3, STACKED - 1);
        assert!(
            idx.stacks.is_empty(),
            "the largest slot-sized bin stays in the slot"
        );
        for bin in [STACKED, STACKED | 3, u64::MAX] {
            idx.push(4, bin);
            assert_eq!(idx.stacks.len(), 1, "a tag-bit bin cannot sit in a slot");
            assert_eq!(idx.get(4), Some(&[bin][..]));
            assert_eq!(idx.depth(4), 1);
            assert_eq!(idx.pop(4), Some(bin));
            assert_eq!(idx.depth(4), 0);
            assert_eq!(idx.len(), 1);
            assert_eq!(idx.free, vec![0]);
        }
        assert_eq!(idx.get(3), Some(&[STACKED - 1][..]));
        // Popping a two-ball stack down to a tag-bit bin keeps it stacked.
        idx.push(4, u64::MAX);
        idx.push(4, 1);
        assert_eq!(idx.pop(4), Some(1));
        assert_eq!(idx.get(4), Some(&[u64::MAX][..]));
        assert!(idx.free.is_empty());
        assert_eq!(idx.pop(4), Some(u64::MAX));
        assert_eq!(idx.pop(4), None);
    }
}
