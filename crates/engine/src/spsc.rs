//! Single-producer/single-consumer ring buffers for the engine's
//! worker traffic.
//!
//! Every engine↔worker link has exactly one sender and one receiver: the
//! pipelined *data* path (one batch ring per shard) and the persistent
//! pool's job dispatch and results (a capacity-1 ring per direction per
//! worker). Neither needs a shared queue lock or a `VecDeque` per
//! message, so each link is a bounded SPSC ring:
//!
//! * **Power-of-two capacity**, so slot indexing is a mask, not a
//!   modulo, and the monotonically increasing head/tail counters wrap
//!   for free.
//! * **Cache-line-padded head/tail indices.** The producer writes only
//!   `tail`, the consumer writes only `head`; padding keeps the two
//!   counters on separate cache lines so neither side's stores
//!   invalidate the other's hot line.
//! * **Acquire/Release ordering** on the fast path: the producer's
//!   `tail` store (Release) publishes the slot it just filled; the
//!   consumer's `tail` load (Acquire) makes that write visible before
//!   the slot is read, and symmetrically for `head` when a slot is
//!   freed for reuse.
//! * **Park/unpark only on empty/full edges.** The uncontended case is
//!   a slot write plus one atomic index store plus one flag load. Only
//!   when the ring is actually full (producer) or empty (consumer) does
//!   a side take the parking mutex and wait on its condvar; the peer
//!   locks that mutex only when the `*_parked` flag says someone is
//!   actually waiting. The edge handshake (parked-flag store, then
//!   index re-check vs. index store, then parked-flag load) runs under
//!   `SeqCst` so the two orders can't both miss each other — the
//!   classic lost-wakeup race is structurally excluded.
//!
//! The crate is `#![forbid(unsafe_code)]`, so each slot is a
//! `Mutex<Option<T>>` rather than an `UnsafeCell`. That mutex is
//! *provably uncontended*: the producer touches slot `i` only while
//! `tail - head < capacity` with `i = tail & mask`, the consumer only
//! while `head < tail` with `i = head & mask`, and those windows can
//! only collide if `tail - head ≡ 0 (mod capacity)` while also
//! `0 < tail - head < capacity` — impossible. Every `lock()` therefore
//! succeeds without waiting; the mutex is a safe-Rust cell, not a lock
//! anyone can block on, and the ring's blocking behaviour lives
//! entirely in the explicit edge parking.
//!
//! Disconnect semantics match a channel's, because the engine's
//! panic-propagation paths rely on them:
//!
//! * dropping the [`RingProducer`] wakes a blocked [`RingConsumer::recv`]
//!   with [`RecvError`] — after everything already in the ring has
//!   drained;
//! * dropping the [`RingConsumer`] wakes a blocked [`RingProducer::send`]
//!   and hands the unsent value back in [`SendError`].

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The error returned by [`RingProducer::send`] when the consumer is
/// gone; carries the unsent value back to the caller.
pub struct SendError<T>(pub T);

/// The error returned by [`RingConsumer::recv`] once the ring is empty
/// and the producer has been dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Pads (and aligns) a value to a cache line so the producer's `tail`
/// and the consumer's `head` never share one — the false-sharing guard
/// every SPSC ring needs.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Shared<T> {
    /// `capacity` slots; each holds at most one in-flight value. See the
    /// module docs for why the per-slot mutex is provably uncontended.
    slots: Box<[Mutex<Option<T>>]>,
    /// `capacity - 1`; capacity is a power of two so `index & mask`
    /// replaces `index % capacity`.
    mask: usize,
    /// Next slot the producer will write (monotonic, wraps via `mask`).
    tail: CachePadded<AtomicUsize>,
    /// Next slot the consumer will read (monotonic, wraps via `mask`).
    head: CachePadded<AtomicUsize>,
    /// Cleared by the producer's drop; checked by an empty consumer.
    producer_alive: AtomicBool,
    /// Cleared by the consumer's drop; checked by a full producer.
    consumer_alive: AtomicBool,
    /// True while the producer is parked waiting for space — the
    /// consumer locks `park` to wake it only when this is set.
    producer_parked: AtomicBool,
    /// True while the consumer is parked waiting for data.
    consumer_parked: AtomicBool,
    /// The edge-only parking mutex. Never taken on the fast path.
    park: Mutex<()>,
    /// Producer waits here while the ring is full.
    space: Condvar,
    /// Consumer waits here while the ring is empty.
    available: Condvar,
}

/// The sending half of an SPSC ring. Exactly one per ring (not `Clone`;
/// single-producer is the whole point).
pub struct RingProducer<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of an SPSC ring. Exactly one per ring.
pub struct RingConsumer<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded SPSC ring holding at most `capacity` in-flight
/// values.
///
/// # Panics
///
/// Panics unless `capacity` is a nonzero power of two — the ring's
/// index arithmetic is mask-based, and silently rounding a requested
/// depth would change the caller's backpressure bound behind its back
/// (callers that want rounding do it explicitly, as the `engine_serve`
/// example does).
pub fn ring<T>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    assert!(
        capacity > 0 && capacity.is_power_of_two(),
        "ring capacity must be a nonzero power of two, got {capacity}"
    );
    let shared = Arc::new(Shared {
        slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        mask: capacity - 1,
        tail: CachePadded(AtomicUsize::new(0)),
        head: CachePadded(AtomicUsize::new(0)),
        producer_alive: AtomicBool::new(true),
        consumer_alive: AtomicBool::new(true),
        producer_parked: AtomicBool::new(false),
        consumer_parked: AtomicBool::new(false),
        park: Mutex::new(()),
        space: Condvar::new(),
        available: Condvar::new(),
    });
    (
        RingProducer {
            shared: Arc::clone(&shared),
        },
        RingConsumer { shared },
    )
}

impl<T> Shared<T> {
    fn capacity(&self) -> usize {
        self.mask + 1
    }
}

impl<T> RingProducer<T> {
    /// Enqueues `value`, blocking while the ring is full. Returns the
    /// value in [`SendError`] if the consumer has been dropped —
    /// including when the drop happens while this send is blocked
    /// waiting for space.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.send_tracked(value).map(|_stall| ())
    }

    /// [`RingProducer::send`], reporting how long this call spent
    /// blocked on a full ring: `Duration::ZERO` when a slot was free
    /// immediately, the measured wait otherwise — the backpressure-stall
    /// primitive behind the engine's stall telemetry.
    pub fn send_tracked(&self, value: T) -> Result<Duration, SendError<T>> {
        let s = &*self.shared;
        // Only this producer writes `tail`, so a relaxed self-read is
        // exact.
        let tail = s.tail.0.load(Ordering::Relaxed);
        let mut stall = Duration::ZERO;
        if tail.wrapping_sub(s.head.0.load(Ordering::Acquire)) == s.capacity() {
            // Full edge: park until the consumer frees a slot or dies.
            let blocked_at = Instant::now();
            let mut guard = s.park.lock().expect("ring park lock poisoned");
            s.producer_parked.store(true, Ordering::SeqCst);
            loop {
                if !s.consumer_alive.load(Ordering::SeqCst) {
                    s.producer_parked.store(false, Ordering::SeqCst);
                    return Err(SendError(value));
                }
                // SeqCst re-check pairs with the consumer's SeqCst
                // `head` store + `producer_parked` load: either this
                // load sees the freed slot, or the consumer's flag load
                // sees the park and notifies.
                if tail.wrapping_sub(s.head.0.load(Ordering::SeqCst)) < s.capacity() {
                    break;
                }
                guard = s.space.wait(guard).expect("ring park lock poisoned");
            }
            s.producer_parked.store(false, Ordering::SeqCst);
            drop(guard);
            stall = blocked_at.elapsed();
        } else if !s.consumer_alive.load(Ordering::SeqCst) {
            return Err(SendError(value));
        }
        // The slot at `tail` is ours (see module docs): this lock never
        // waits.
        *s.slots[tail & s.mask].lock().expect("ring slot poisoned") = Some(value);
        // SeqCst publish (Release would cover data visibility alone) so
        // the consumer's empty-edge handshake can't miss it.
        s.tail.0.store(tail.wrapping_add(1), Ordering::SeqCst);
        if s.consumer_parked.load(Ordering::SeqCst) {
            // Empty-edge wake: pass through the parking mutex so the
            // notify can't slip between the consumer's re-check and its
            // wait, then notify with the mutex released so the woken
            // consumer doesn't block on it straight away.
            drop(s.park.lock().expect("ring park lock poisoned"));
            s.available.notify_one();
        }
        Ok(stall)
    }

    /// How many values sit in the ring right now — a point-in-time
    /// occupancy sample (racy by nature: the consumer may drain
    /// concurrently). The pipelined producer samples this after each
    /// shipped batch for queue-occupancy telemetry.
    pub fn queued(&self) -> usize {
        let s = &*self.shared;
        s.tail
            .0
            .load(Ordering::Relaxed)
            .wrapping_sub(s.head.0.load(Ordering::Acquire))
    }
}

impl<T> Drop for RingProducer<T> {
    fn drop(&mut self) {
        let s = &*self.shared;
        s.producer_alive.store(false, Ordering::SeqCst);
        // Lock-then-notify so a consumer between its empty re-check and
        // its wait cannot miss the disconnect.
        let _guard = s.park.lock().expect("ring park lock poisoned");
        s.available.notify_all();
    }
}

impl<T> RingConsumer<T> {
    /// Blocks until a value is available or the producer is gone.
    /// Values enqueued before the producer dropped still drain first;
    /// only an *empty* disconnected ring reports [`RecvError`].
    pub fn recv(&self) -> Result<T, RecvError> {
        let s = &*self.shared;
        // Only this consumer writes `head`, so a relaxed self-read is
        // exact.
        let head = s.head.0.load(Ordering::Relaxed);
        if s.tail.0.load(Ordering::Acquire) == head {
            // Empty edge: park until the producer publishes or dies.
            let mut guard = s.park.lock().expect("ring park lock poisoned");
            s.consumer_parked.store(true, Ordering::SeqCst);
            loop {
                if s.tail.0.load(Ordering::SeqCst) != head {
                    break;
                }
                if !s.producer_alive.load(Ordering::SeqCst) {
                    // The producer's last `tail` store precedes its
                    // alive-flag clear (program order, both SeqCst), so
                    // an empty re-check here is conclusive.
                    s.consumer_parked.store(false, Ordering::SeqCst);
                    return Err(RecvError);
                }
                guard = s.available.wait(guard).expect("ring park lock poisoned");
            }
            s.consumer_parked.store(false, Ordering::SeqCst);
        }
        let value = s.slots[head & s.mask]
            .lock()
            .expect("ring slot poisoned")
            .take()
            .expect("published ring slot holds a value");
        // SeqCst so the producer's full-edge handshake can't miss the
        // freed slot (Release would cover slot-reuse visibility alone).
        s.head.0.store(head.wrapping_add(1), Ordering::SeqCst);
        if s.producer_parked.load(Ordering::SeqCst) {
            // Full-edge wake, same handshake as the producer's.
            drop(s.park.lock().expect("ring park lock poisoned"));
            s.space.notify_one();
        }
        Ok(value)
    }

    /// Takes a value if one is already in the ring; never blocks.
    /// `None` does not distinguish "empty" from "disconnected" —
    /// callers that care use [`RingConsumer::recv`].
    pub fn try_recv(&self) -> Option<T> {
        let s = &*self.shared;
        let head = s.head.0.load(Ordering::Relaxed);
        if s.tail.0.load(Ordering::Acquire) == head {
            return None;
        }
        let value = s.slots[head & s.mask]
            .lock()
            .expect("ring slot poisoned")
            .take()
            .expect("published ring slot holds a value");
        s.head.0.store(head.wrapping_add(1), Ordering::SeqCst);
        if s.producer_parked.load(Ordering::SeqCst) {
            drop(s.park.lock().expect("ring park lock poisoned"));
            s.space.notify_one();
        }
        Some(value)
    }
}

impl<T> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        let s = &*self.shared;
        s.consumer_alive.store(false, Ordering::SeqCst);
        let _guard = s.park.lock().expect("ring park lock poisoned");
        s.space.notify_all();
    }
}

impl<T> std::fmt::Debug for RingProducer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingProducer")
            .field("capacity", &self.shared.capacity())
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for RingConsumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingConsumer")
            .field("capacity", &self.shared.capacity())
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = ring::<u64>(8);
        for i in 0..8 {
            tx.send(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn wraparound_reuses_slots_in_order() {
        // Far more values than slots: indices wrap through the mask many
        // times and FIFO order must survive every lap.
        let (tx, rx) = ring::<u64>(2);
        for i in 0..1_000u64 {
            tx.send(i).unwrap();
            if i % 2 == 1 {
                assert_eq!(rx.recv(), Ok(i - 1));
                assert_eq!(rx.recv(), Ok(i));
            }
        }
    }

    #[test]
    fn recv_errors_after_producer_drops_but_drains_first() {
        let (tx, rx) = ring::<u64>(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        // And the error is sticky.
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_returns_value_after_consumer_drops() {
        let (tx, rx) = ring::<String>(2);
        drop(rx);
        let err = tx.send("lost".to_string()).unwrap_err();
        assert_eq!(err.0, "lost");
        // Still failing, still lossless, on every retry.
        assert_eq!(tx.send("again".to_string()).unwrap_err().0, "again");
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = ring::<u64>(2);
        let handle = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(10));
        tx.send(42).unwrap();
        assert_eq!(handle.join().unwrap(), Ok(42));
    }

    #[test]
    fn blocking_recv_wakes_on_producer_drop() {
        let (tx, rx) = ring::<u64>(2);
        let handle = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(10));
        drop(tx);
        assert_eq!(handle.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn full_ring_blocks_send_until_recv_frees_a_slot() {
        use std::sync::atomic::AtomicUsize;
        let cap = 4usize;
        let (tx, rx) = ring::<usize>(cap);
        let sent = Arc::new(AtomicUsize::new(0));
        let sent_clone = Arc::clone(&sent);
        let producer = std::thread::spawn(move || {
            for i in 0..cap + 3 {
                tx.send(i).unwrap();
                sent_clone.fetch_add(1, Ordering::SeqCst);
            }
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while sent.load(Ordering::SeqCst) < cap && Instant::now() < deadline {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            sent.load(Ordering::SeqCst),
            cap,
            "producer ran past a full ring"
        );
        for i in 0..cap + 3 {
            assert_eq!(rx.recv(), Ok(i), "FIFO order must survive blocking");
        }
        producer.join().unwrap();
        assert_eq!(sent.load(Ordering::SeqCst), cap + 3);
    }

    #[test]
    fn producer_drop_while_full_drains_cleanly() {
        // The producer-drop-while-full edge: everything in the full ring
        // still reaches the consumer, then the disconnect is observed.
        let cap = 8usize;
        let (tx, rx) = ring::<usize>(cap);
        for i in 0..cap {
            tx.send(i).unwrap();
        }
        drop(tx);
        for i in 0..cap {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn producer_panic_surfaces_as_disconnect_not_deadlock() {
        // A producer thread dying mid-stream drops its RingProducer
        // during unwinding; a blocked consumer must wake with RecvError
        // after draining what was sent.
        let (tx, rx) = ring::<u64>(4);
        let producer = std::thread::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            panic!("producer dies mid-stream");
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        assert!(producer.join().is_err(), "panic must propagate to join");
    }

    #[test]
    fn consumer_drop_wakes_blocked_producer_with_its_value() {
        // The pipelined teardown path: a producer blocked on a full ring
        // whose consumer dies must wake with SendError carrying the
        // exact value, never block forever.
        let (tx, rx) = ring::<String>(1);
        tx.send("queued".into()).unwrap();
        let producer = std::thread::spawn(move || tx.send("blocked".to_string()));
        std::thread::sleep(Duration::from_millis(30));
        drop(rx);
        let err = producer.join().unwrap().unwrap_err();
        assert_eq!(err.0, "blocked");
    }

    #[test]
    fn send_tracked_reports_zero_without_contention() {
        let (tx, rx) = ring::<u32>(4);
        for i in 0..4 {
            assert_eq!(tx.send_tracked(i).unwrap(), Duration::ZERO);
        }
        assert_eq!(tx.queued(), 4);
        drop(rx);
    }

    #[test]
    fn send_tracked_measures_the_blocked_wait() {
        let (tx, rx) = ring::<u32>(1);
        tx.send(0).unwrap();
        let producer = std::thread::spawn(move || tx.send_tracked(1).unwrap());
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(rx.recv(), Ok(0));
        let stall = producer.join().unwrap();
        assert!(
            stall >= Duration::from_millis(20),
            "stall {stall:?} did not cover the blocked window"
        );
        assert_eq!(rx.recv(), Ok(1));
    }

    #[test]
    fn queued_tracks_sends_and_recvs() {
        let (tx, rx) = ring::<u32>(4);
        assert_eq!(tx.queued(), 0);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.queued(), 2);
        rx.recv().unwrap();
        assert_eq!(tx.queued(), 1);
    }

    #[test]
    fn try_recv_never_blocks_and_frees_slots() {
        let (tx, rx) = ring::<u32>(1);
        assert_eq!(rx.try_recv(), None, "empty ring yields None");
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Some(7));
        tx.send(8).unwrap();
        assert_eq!(rx.recv(), Ok(8));
    }

    #[test]
    fn cross_thread_throughput_preserves_every_value() {
        let (tx, rx) = ring::<u64>(16);
        let n = 100_000u64;
        let consumer = std::thread::spawn(move || {
            let mut next = 0u64;
            while let Ok(v) = rx.recv() {
                assert_eq!(v, next, "ring reordered or dropped a value");
                next += 1;
            }
            next
        });
        for i in 0..n {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(consumer.join().unwrap(), n);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn zero_capacity_rejected() {
        let _ = ring::<u8>(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_rejected() {
        let _ = ring::<u8>(6);
    }
}
