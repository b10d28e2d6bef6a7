//! The simulator's event queue: a tick-granular calendar whose buckets
//! hold the entries themselves.
//!
//! The structure exploits the one property a discrete-event simulation
//! guarantees: *monotonicity*. Events are always scheduled at or after the
//! time of the event being processed, so the queue never needs a general
//! heap. Near-future entries (within [`NEAR`] ticks — virtually all message
//! deliveries) go straight into a calendar ring with one bucket per tick:
//! push is an append, pop reads the current bucket from the front and walks
//! the ring forward, and both are O(1) with no comparisons at all.
//! Far-future entries (long timers, stabilization bounds) wait in a sorted
//! overflow map and migrate into the ring as the clock approaches — a
//! per-tick check of one `BTreeMap` first key.
//!
//! Each bucket stores `(seq, payload)` pairs directly, with no slab behind
//! them: the simulator's payloads are small fixed-size events (a delivery
//! names its message by an id into the simulator's in-flight table), so
//! there is nothing to keep still. A bucket that `pop` drains hands its
//! allocation to a spare pool, and a push into an empty bucket takes one
//! from it. The queue therefore never holds more allocations than it once
//! had non-empty buckets at the same time — memory follows the live set,
//! not every bucket's peak — and the steady-state push/pop cycle allocates
//! nothing.
//!
//! Ordering is strictly by `(time, seq)` with the sequence number assigned
//! at push. Same-time entries share a bucket in push order, so
//! FIFO-within-time falls out structurally. `tests/prop_simulator.rs` pins
//! all of this against a reference binary heap.

use std::collections::{BTreeMap, VecDeque};

use crate::VirtualTime;

/// One tick's entries in push order: `(seq, payload)`. Time is implicit —
/// it is the bucket's.
type Bucket<T> = VecDeque<(u64, T)>;

/// Width of the calendar window in ticks (a power of two; times map to
/// ring buckets by `time & (NEAR − 1)`).
const NEAR: u64 = 1024;

/// A deterministic earliest-first event queue.
///
/// `push` assigns each entry the next sequence number, so entries pushed at
/// equal times pop in push order.
///
/// # Monotonicity contract
///
/// `push` panics if `time` is earlier than the queue's current position —
/// the time of the earliest pending entry, which advances on `pop` *and*
/// `peek_time` — because the calendar layout relies on it. The simulator
/// upholds this by construction (effects schedule at `now + delay`, and
/// `now` is never behind a peek).
#[derive(Debug)]
pub struct EventQueue<T> {
    /// The calendar's current position: no pending entry is earlier.
    floor: u64,
    /// Ring of per-tick buckets covering `[floor, floor + NEAR)`.
    ring: Vec<Bucket<T>>,
    /// Entries in the ring.
    near_len: usize,
    /// Far-future entries, `time → entries` in push order. Invariant: every
    /// entry here is at least `NEAR` ticks past `floor`.
    far: BTreeMap<u64, Bucket<T>>,
    /// Allocations of drained buckets, for the next bucket to fill (ring
    /// or far).
    spare: Vec<Bucket<T>>,
    len: usize,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            floor: 0,
            ring: (0..NEAR).map(|_| VecDeque::new()).collect(),
            near_len: 0,
            far: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
            seq: 0,
        }
    }

    #[inline]
    fn bucket(time: u64) -> usize {
        (time & (NEAR - 1)) as usize
    }

    /// Schedules `payload` at `time`, assigning and returning the entry's
    /// sequence number. O(1) (amortized for far-future times);
    /// allocation-free while the spare pool and the bucket capacities
    /// suffice.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the queue's current position (see the
    /// monotonicity contract).
    pub fn push(&mut self, time: VirtualTime, payload: T) -> u64 {
        let time = time.ticks();
        assert!(
            time >= self.floor,
            "event scheduled at t={time}, behind the queue's position t={}",
            self.floor
        );
        let seq = self.seq;
        self.seq += 1;
        if time - self.floor < NEAR {
            let bucket = &mut self.ring[Self::bucket(time)];
            if bucket.capacity() == 0 {
                if let Some(spare) = self.spare.pop() {
                    *bucket = spare;
                }
            }
            bucket.push_back((seq, payload));
            self.near_len += 1;
        } else {
            self.far
                .entry(time)
                .or_insert_with(|| self.spare.pop().unwrap_or_default())
                .push_back((seq, payload));
        }
        self.len += 1;
        seq
    }

    /// Moves every far entry that the window now covers into the ring.
    /// Called on each floor change, so the ring always owns `[floor,
    /// floor + NEAR)` exclusively and pushes never race migrated entries
    /// out of seq order.
    fn migrate(&mut self) {
        while let Some(entry) = self.far.first_entry() {
            let time = *entry.key();
            if time - self.floor >= NEAR {
                break;
            }
            let entries = entry.remove();
            let bucket = &mut self.ring[Self::bucket(time)];
            debug_assert!(bucket.is_empty(), "ring bucket held an out-of-window time");
            self.near_len += entries.len();
            // An empty ring bucket holds no allocation (`pop` hands drained
            // ones to the spare pool), so the far one moves in whole.
            *bucket = entries;
        }
    }

    /// Advances `floor` to the bucket holding the earliest pending entry.
    /// O(gap) ring walk; each tick of virtual time is walked at most once
    /// over the queue's lifetime, and an empty ring jumps straight to the
    /// overflow's first key.
    #[inline]
    fn seek(&mut self) {
        if !self.ring[Self::bucket(self.floor)].is_empty() {
            return;
        }
        if self.near_len > 0 {
            loop {
                self.floor += 1;
                self.migrate();
                if !self.ring[Self::bucket(self.floor)].is_empty() {
                    return;
                }
            }
        }
        // Ring empty: leap directly to the first far time.
        self.floor = *self.far.keys().next().expect("len > 0 but queue empty");
        self.migrate();
    }

    /// Removes and returns the earliest `(time, seq, payload)` entry.
    // Always inlined: returned through memory, the entry is stored in
    // pieces and reloaded whole by the caller, a store-forwarding stall
    // that cost the simulator loop several percent.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(VirtualTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        self.seek();
        let bucket = &mut self.ring[Self::bucket(self.floor)];
        let (seq, payload) = bucket
            .pop_front()
            .expect("seek stops at a non-empty bucket");
        if bucket.is_empty() {
            self.spare.push(std::mem::take(bucket));
        }
        self.near_len -= 1;
        self.len -= 1;
        Some((VirtualTime::from_ticks(self.floor), seq, payload))
    }

    /// The timestamp of the earliest pending entry, without popping it.
    /// (Takes `&mut self`: peeking may advance the calendar's position,
    /// which changes layout but never order.)
    pub fn peek_time(&mut self) -> Option<VirtualTime> {
        if self.len == 0 {
            return None;
        }
        self.seek();
        Some(VirtualTime::from_ticks(self.floor))
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_earliest_time_first() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.push(VirtualTime::from_ticks(5), "late");
        q.push(VirtualTime::from_ticks(1), "early");
        q.push(VirtualTime::from_ticks(3), "mid");
        let order: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|(t, _, p)| (t.ticks(), p))).collect();
        assert_eq!(order, [(1, "early"), (3, "mid"), (5, "late")]);
    }

    #[test]
    fn breaks_time_ties_by_push_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for payload in [10u32, 11, 12] {
            q.push(VirtualTime::from_ticks(7), payload);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, [10, 11, 12], "same-time events pop in push order");
    }

    #[test]
    fn interleaved_push_pop_respects_order() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(VirtualTime::from_ticks(10), 10);
        q.push(VirtualTime::from_ticks(4), 4);
        assert_eq!(q.pop().map(|(t, _, _)| t.ticks()), Some(4));
        // Monotone schedule: anything ≥ the popped time is fair game.
        q.push(VirtualTime::from_ticks(4), 40);
        q.push(VirtualTime::from_ticks(7), 7);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, [40, 7, 10]);
    }

    #[test]
    fn sequence_numbers_are_unique_and_monotone() {
        let mut q: EventQueue<()> = EventQueue::new();
        let a = q.push(VirtualTime::from_ticks(9), ());
        let b = q.push(VirtualTime::from_ticks(2), ());
        assert_eq!((a, b), (0, 1), "assigned in push order, not time order");
        assert_eq!(q.pop().map(|(_, s, _)| s), Some(1));
        assert_eq!(q.pop().map(|(_, s, _)| s), Some(0));
    }

    #[test]
    fn drained_buckets_are_recycled() {
        // A burst per tick, drained before the next, over two sweeps of the
        // ring: without recycling every bucket keeps the burst's capacity.
        const BURST: usize = 10_000;
        let mut q: EventQueue<usize> = EventQueue::new();
        for tick in 0..2 * NEAR {
            for i in 0..BURST {
                q.push(VirtualTime::from_ticks(tick), i);
            }
            for i in 0..BURST {
                assert_eq!(q.pop().map(|(t, _, p)| (t.ticks(), p)), Some((tick, i)));
            }
        }
        assert!(q.is_empty());
        let retained: usize = q.ring.iter().chain(&q.spare).map(VecDeque::capacity).sum();
        assert!(
            retained <= 4 * BURST.next_power_of_two(),
            "ring and spare retain {retained} entries of capacity"
        );
    }

    #[test]
    fn len_and_peek_track_contents() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(VirtualTime::from_ticks(4), 1);
        q.push(VirtualTime::from_ticks(2), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(VirtualTime::from_ticks(2)));
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_entries_cross_the_window() {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Entries far beyond the ring window, plus near fillers.
        q.push(VirtualTime::from_ticks(NEAR * 3 + 17), 1);
        q.push(VirtualTime::from_ticks(NEAR * 3 + 17), 2);
        q.push(VirtualTime::from_ticks(5), 0);
        q.push(VirtualTime::from_ticks(NEAR * 7), 3);
        let order: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|(t, _, p)| (t.ticks(), p))).collect();
        assert_eq!(
            order,
            [
                (5, 0),
                (NEAR * 3 + 17, 1),
                (NEAR * 3 + 17, 2),
                (NEAR * 7, 3)
            ]
        );
    }

    #[test]
    fn migration_keeps_seq_order_against_fresh_pushes() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let t = NEAR + 50;
        q.push(VirtualTime::from_ticks(t), 1); // far at push time
        q.push(VirtualTime::from_ticks(60), 0);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(0));
        // Now t is within the window of floor = 60; a fresh same-time push
        // must land *after* the migrated entry.
        q.push(VirtualTime::from_ticks(t), 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, [1, 2]);
    }

    #[test]
    fn doomsday_entries_survive_long_runs() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.push(VirtualTime::from_ticks(u64::MAX), "doomsday");
        for t in 0..10_000u64 {
            q.push(VirtualTime::from_ticks(t), "tick");
            assert_eq!(q.pop().map(|(_, _, p)| p), Some("tick"));
        }
        assert_eq!(
            q.pop().map(|(t, _, p)| (t.ticks(), p)),
            Some((u64::MAX, "doomsday"))
        );
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "behind the queue's position")]
    fn pushing_into_the_past_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(VirtualTime::from_ticks(10), ());
        q.pop();
        q.push(VirtualTime::from_ticks(9), ());
    }
}
