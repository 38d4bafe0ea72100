//! Bounded MPMC ring — the queue primitive behind the resident
//! screening service (`bist-serve`).
//!
//! The ring is the backpressure seam of the service: submissions and
//! verdicts both travel through fixed-capacity rings, so a flooded
//! service answers [`Enqueue::Busy`] (handing the item back to the
//! caller) instead of growing without bound, and a device that was
//! accepted is never dropped — [`Ring::pop`] keeps draining queued
//! items even after [`Ring::close`], returning `None` only once the
//! ring is both closed and empty.
//!
//! The implementation is a mutex-guarded circular buffer with two
//! condvars (`not_empty`, `not_full`). That is deliberate: the ring
//! moves whole submissions/verdicts (hundreds of nanoseconds of copy at
//! most) while each device costs microseconds-to-milliseconds of DSP,
//! so a lock-free layout would buy nothing measurable and would cost an
//! `unsafe` surface the engine otherwise does not have. The only atomic
//! is a depth mirror so telemetry can read queue occupancy without
//! taking the lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Outcome of a non-blocking enqueue attempt — the service's
/// backpressure contract.
#[derive(Debug)]
pub enum Enqueue<T> {
    /// The item was queued and will be processed.
    Accepted,
    /// The ring is at capacity; the item is handed back so the caller
    /// can retry, shed load, or park it — it is never silently dropped.
    Busy(T),
    /// The ring was closed; the item is handed back.
    Closed(T),
}

impl<T> Enqueue<T> {
    /// True when the item was queued.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Enqueue::Accepted)
    }
}

struct RingState<T> {
    slots: Box<[Option<T>]>,
    head: usize,
    len: usize,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue with blocking and
/// non-blocking endpoints on both sides.
pub struct Ring<T> {
    state: Mutex<RingState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Mirror of `state.len` for lock-free telemetry reads.
    depth: AtomicUsize,
    capacity: usize,
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` items (`capacity >= 1`).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        Ring {
            state: Mutex::new(RingState {
                slots: slots.into_boxed_slice(),
                head: 0,
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth: AtomicUsize::new(0),
            capacity,
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth. Monitoring only: the value may be stale by
    /// the time the caller acts on it.
    pub fn len(&self) -> usize {
        // ORDERING: Relaxed — the depth mirror feeds telemetry
        // snapshots only; it synchronizes nothing and a momentarily
        // stale read is harmless.
        self.depth.load(Ordering::Relaxed)
    }

    /// True when no items are queued (same staleness caveat as `len`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // bist-lint: hot-path — service ingest: every submission crosses this seam
    /// Attempts to queue `item` without blocking.
    pub fn try_push(&self, item: T) -> Enqueue<T> {
        let mut state = self.state.lock().expect("ring lock");
        if state.closed {
            return Enqueue::Closed(item);
        }
        if state.len == self.capacity {
            return Enqueue::Busy(item);
        }
        let tail = (state.head + state.len) % self.capacity;
        state.slots[tail] = Some(item);
        state.len += 1;
        // ORDERING: Relaxed — depth mirror for telemetry only; real
        // producer/consumer synchronization is the mutex + condvars.
        self.depth.store(state.len, Ordering::Relaxed);
        drop(state);
        self.not_empty.notify_one();
        Enqueue::Accepted
    }

    // bist-lint: hot-path — verdict delivery: workers block here instead of dropping
    /// Queues `item`, blocking while the ring is full. Returns the item
    /// back as `Err` if the ring is closed before space frees up.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("ring lock");
        loop {
            if state.closed {
                return Err(item);
            }
            if state.len < self.capacity {
                let tail = (state.head + state.len) % self.capacity;
                state.slots[tail] = Some(item);
                state.len += 1;
                // ORDERING: Relaxed — depth mirror for telemetry only;
                // the mutex orders the queue contents themselves.
                self.depth.store(state.len, Ordering::Relaxed);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("ring lock");
        }
    }

    // bist-lint: hot-path — burst delivery: a worker hands a consumer its verdicts in one go
    /// Queues the items of `items` in order, blocking while the ring is
    /// full, and wakes consumers once per run of items queued rather
    /// than once per item, so a consumer woken by the first item finds
    /// the rest already queued. Returns how many items were queued:
    /// fewer than `items` holds only if the ring is closed first, and
    /// the items left over are dropped. `items` is drained under the
    /// ring's lock, so it must not touch this ring.
    pub fn push_all(&self, items: impl IntoIterator<Item = T>) -> usize {
        let mut items = items.into_iter().peekable();
        let mut queued = 0;
        let mut state = self.state.lock().expect("ring lock");
        while !state.closed {
            let before = queued;
            while state.len < self.capacity {
                let Some(item) = items.next() else { break };
                let tail = (state.head + state.len) % self.capacity;
                state.slots[tail] = Some(item);
                state.len += 1;
                queued += 1;
            }
            // ORDERING: Relaxed — depth mirror for telemetry only; the
            // mutex orders the queue contents themselves.
            self.depth.store(state.len, Ordering::Relaxed);
            if items.peek().is_none() {
                drop(state);
                if queued > before {
                    self.not_empty.notify_all();
                }
                return queued;
            }
            if queued > before {
                self.not_empty.notify_all();
            }
            state = self.not_full.wait(state).expect("ring lock");
        }
        queued
    }

    // bist-lint: hot-path — worker claim loop: every queued item leaves through here
    /// Dequeues the oldest item, blocking while the ring is empty.
    /// Returns `None` only once the ring is closed *and* drained, so
    /// accepted items are never lost to shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("ring lock");
        loop {
            if state.len > 0 {
                let item = self.take_front(&mut state);
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("ring lock");
        }
    }

    // bist-lint: hot-path — burst top-up after a blocking claim
    /// Dequeues the oldest item without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("ring lock");
        if state.len == 0 {
            return None;
        }
        let item = self.take_front(&mut state);
        drop(state);
        self.not_full.notify_one();
        Some(item)
    }

    fn take_front(&self, state: &mut RingState<T>) -> T {
        let item = state.slots[state.head].take().expect("occupied slot");
        state.head = (state.head + 1) % self.capacity;
        state.len -= 1;
        // ORDERING: Relaxed — depth mirror for telemetry only; the
        // mutex orders the queue contents themselves.
        self.depth.store(state.len, Ordering::Relaxed);
        item
    }

    /// Closes the ring: future pushes fail, blocked producers and
    /// consumers wake, and `pop` drains the remaining items before
    /// reporting `None`.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("ring lock");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// True once `close` has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("ring lock").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity() {
        let ring = Ring::with_capacity(2);
        assert!(ring.try_push(1).is_accepted());
        assert!(ring.try_push(2).is_accepted());
        match ring.try_push(3) {
            Enqueue::Busy(v) => assert_eq!(v, 3),
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.try_pop(), Some(1));
        assert!(ring.try_push(3).is_accepted());
        assert_eq!(ring.try_pop(), Some(2));
        assert_eq!(ring.try_pop(), Some(3));
        assert_eq!(ring.try_pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn close_drains_then_ends() {
        let ring = Ring::with_capacity(4);
        assert!(ring.try_push("a").is_accepted());
        assert!(ring.try_push("b").is_accepted());
        ring.close();
        match ring.try_push("c") {
            Enqueue::Closed(v) => assert_eq!(v, "c"),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(ring.pop(), Some("a"));
        assert_eq!(ring.pop(), Some("b"));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn blocking_push_returns_item_on_close() {
        let ring = Arc::new(Ring::with_capacity(1));
        ring.push(7u32).expect("space");
        let r2 = Arc::clone(&ring);
        let blocked = std::thread::spawn(move || r2.push(8u32));
        // Give the producer time to block on the full ring, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        ring.close();
        assert_eq!(blocked.join().expect("join"), Err(8));
        assert_eq!(ring.pop(), Some(7));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn push_all_queues_in_order_and_blocks_while_full() {
        let ring = Arc::new(Ring::with_capacity(2));
        let r2 = Arc::clone(&ring);
        // Five items through a two-slot ring: the producer must wait for
        // the consumer twice and still hand over every item in order.
        let producer = std::thread::spawn(move || r2.push_all(1..=5u32));
        let got: Vec<u32> = (0..5).map(|_| ring.pop().expect("item")).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        assert_eq!(producer.join().expect("join"), 5);
        assert!(ring.is_empty());
    }

    #[test]
    fn push_all_stops_at_close() {
        let ring = Arc::new(Ring::with_capacity(2));
        let r2 = Arc::clone(&ring);
        let producer = std::thread::spawn(move || r2.push_all([1u32, 2, 3, 4]));
        // Give the producer time to fill the ring and block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        ring.close();
        assert_eq!(producer.join().expect("join"), 2);
        assert_eq!(ring.pop(), Some(1));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), None);
        assert_eq!(ring.push_all([9]), 0, "a closed ring queues nothing");
    }

    #[test]
    fn mpmc_hands_out_every_item_exactly_once() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u64 = 500;
        let ring = Arc::new(Ring::with_capacity(8));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    ring.push(p as u64 * PER_PRODUCER + i).expect("open ring");
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let ring = Arc::clone(&ring);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = ring.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for h in handles {
            h.join().expect("producer");
        }
        ring.close();
        let mut all: Vec<u64> = Vec::new();
        for c in consumers {
            all.extend(c.join().expect("consumer"));
        }
        all.sort_unstable();
        let expect: Vec<u64> = (0..PRODUCERS as u64 * PER_PRODUCER).collect();
        assert_eq!(all, expect);
    }
}
