//! Small measurement helpers: a heap-byte counting allocator,
//! percentiles, and seed derivation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// The system allocator, counting live heap bytes and their high-water
/// mark so a layer's memory growth and a pass's peak can be read exactly
/// (see [`heap_bytes`], [`peak_heap_bytes`]), and keeping freed blocks of
/// [`KEEP_MIN`] bytes or more for reuse.
///
/// Each pass grows a fresh key index from empty only to restart from a
/// deterministic state; a serving process pays the OS page faults for
/// its largest blocks once. glibc returns blocks this large to the OS
/// on free, so without reuse every pass would pay those faults again,
/// and their cost on a shared host drifts by tens of percent. Kept
/// blocks are not live, so neither counter includes them.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Counts `size` more live bytes and raises the high-water mark.
fn grow(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

/// Freed blocks at least this large are kept rather than unmapped.
const KEEP_MIN: usize = 32 << 20;

/// Kept blocks as `(address, size, align)`, address 0 marking an empty
/// slot. A fixed array, because the allocator must not allocate while
/// holding the lock. A uniform pass frees seven blocks this large.
static KEPT: Mutex<[(usize, usize, usize); 16]> = Mutex::new([(0, 0, 0); 16]);

/// A kept block of exactly `layout`, or null.
fn take_kept(layout: Layout) -> *mut u8 {
    // Every update below leaves the array valid, so a poisoned lock's
    // data is still sound.
    let mut kept = KEPT.lock().unwrap_or_else(PoisonError::into_inner);
    let wanted = (layout.size(), layout.align());
    match kept.iter_mut().find(|s| s.0 != 0 && (s.1, s.2) == wanted) {
        Some(slot) => {
            let ptr = slot.0 as *mut u8;
            *slot = (0, 0, 0);
            ptr
        }
        None => std::ptr::null_mut(),
    }
}

/// Keeps `ptr` for reuse; false when every slot is taken.
fn keep(ptr: *mut u8, layout: Layout) -> bool {
    let mut kept = KEPT.lock().unwrap_or_else(PoisonError::into_inner);
    match kept.iter_mut().find(|s| s.0 == 0) {
        Some(slot) => {
            *slot = (ptr as usize, layout.size(), layout.align());
            true
        }
        None => false,
    }
}

// SAFETY: small blocks go to `System` with the caller's layout
// unchanged. A large block comes from `System` or from the kept array,
// which holds only blocks `System` allocated with exactly the requested
// size and alignment and that their owner has deallocated; each is
// handed out once per keep (taking it empties the slot). A kept block is
// never returned to `System`, which leaks at most the kept set. The byte
// counter is a statistic and publishes no other data, so `Relaxed`
// suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let mut ptr = if layout.size() >= KEEP_MIN {
            take_kept(layout)
        } else {
            std::ptr::null_mut()
        };
        if ptr.is_null() {
            // SAFETY: same layout contract as our caller's.
            ptr = unsafe { System.alloc(layout) };
        }
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() < KEEP_MIN {
            // SAFETY: same layout contract as our caller's.
            let ptr = unsafe { System.alloc_zeroed(layout) };
            if !ptr.is_null() {
                grow(layout.size());
            }
            return ptr;
        }
        // SAFETY: same layout contract as our caller's.
        let ptr = unsafe { self.alloc(layout) };
        if !ptr.is_null() {
            // SAFETY: `ptr` is valid for `layout.size()` writable bytes.
            unsafe { std::ptr::write_bytes(ptr, 0, layout.size()) };
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        if layout.size() >= KEEP_MIN && keep(ptr, layout) {
            return;
        }
        // SAFETY: `ptr` came from this allocator with this layout, and
        // every block not kept came from `System`.
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if layout.size() < KEEP_MIN && new_size < KEEP_MIN {
            // SAFETY: `ptr` came from `System` with `layout` (small blocks
            // are never kept); the caller guarantees `new_size` is valid
            // for `layout.align()`.
            let new = unsafe { System.realloc(ptr, layout, new_size) };
            if !new.is_null() {
                match new_size.checked_sub(layout.size()) {
                    Some(more) => grow(more),
                    None => {
                        LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
                    }
                }
            }
            return new;
        }
        // Large blocks move by allocate + copy + free, so both ends can
        // reuse kept blocks.
        // SAFETY: the caller guarantees `new_size`, rounded up to
        // `layout.align()`, does not overflow `isize`.
        let new_layout = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        // SAFETY: `new_layout` has a nonzero size (`new_size` > 0 here).
        let new = unsafe { self.alloc(new_layout) };
        if !new.is_null() {
            // SAFETY: both blocks are valid for the copied length and
            // distinct, since `ptr` is still owned by the caller.
            unsafe {
                std::ptr::copy_nonoverlapping(ptr, new, layout.size().min(new_size));
                self.dealloc(ptr, layout);
            }
        }
        new
    }
}

/// Heap bytes currently allocated by this process.
pub fn heap_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the bytes live now.
pub fn reset_peak_heap() {
    PEAK_BYTES.store(heap_bytes(), Ordering::Relaxed);
}

/// Most heap bytes live at once since [`reset_peak_heap`].
pub fn peak_heap_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of an already sorted slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The seed of pass `pass` of a run started with `seed`: engine salts
/// and generator streams both derive from it, so every pass is a fresh,
/// reproducible input.
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    ba_rng::SeedSequence::new(seed).child(pass).derive_u64()
}

/// Median cost of one `Instant::now()` read, in nanoseconds: subtracted
/// once from each traced span, whose boundaries each cost one read.
pub fn timer_cost_ns() -> f64 {
    let mut samples = Vec::with_capacity(2001);
    for _ in 0..2001 {
        let a = Instant::now();
        let b = Instant::now();
        samples.push((b - a).as_nanos() as f64);
    }
    median(&samples)
}
