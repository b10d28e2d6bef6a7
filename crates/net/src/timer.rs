//! O(1) timer bookkeeping shared by both substrates.
//!
//! A [`TimerId`](crate::TimerId) packs a *slot* (low 32 bits) and a
//! *generation* (high 32 bits). Slots are recycled: when every scheduled
//! firing of a slot has been consumed, the slot's generation is bumped and
//! the slot returns to a free list, so the table's memory is bounded by the
//! maximum number of *concurrently pending* timers, not by the total number
//! ever armed. A stale firing — one scheduled under an earlier generation of
//! a since-recycled slot — fails the generation comparison and is dropped in
//! O(1), with no per-process search structure anywhere on the path (the old
//! design kept a `BTreeSet<TimerId>` of cancelled ids per process and paid a
//! tree probe on every firing).
//!
//! The table lives in the [`Env`](crate::Env) while a handler runs (so
//! [`Env::set_timer`](crate::Env::set_timer) can allocate ids with no
//! substrate round-trip) and is swapped back to the substrate afterwards;
//! see [`Env::swap_timers`](crate::Env::swap_timers).

use crate::TimerId;

/// Bookkeeping for one slot: its current generation plus the state of that
/// generation's pending firings.
#[derive(Clone, Copy, Debug, Default)]
struct TimerSlot {
    /// Current generation. Bumped when the slot is recycled, which is what
    /// invalidates stale queue entries.
    gen: u32,
    /// Scheduled firings of the current generation not yet consumed.
    pending: u32,
    /// A cancel was applied for the current generation and has not yet been
    /// consumed by a firing.
    cancelled: bool,
    /// The slot is available for allocation.
    free: bool,
}

/// Per-process timer allocation and liveness table (see the module docs).
///
/// Semantics mirror the previous id-set design exactly: `SetTimer` schedules
/// one firing; `CancelTimer` suppresses exactly one matching firing (even if
/// applied before the corresponding `SetTimer`, as an effect-rewriting
/// adversary can arrange); an id this table never allocated (one such an
/// adversary pushes in a `SetTimer`) is adopted by forcing the slot to the
/// id's generation rather than trusted or dropped.
#[derive(Clone, Debug, Default)]
pub struct TimerTable {
    slots: Vec<TimerSlot>,
    /// Recyclable slot indices. Entries are hints: a slot is allocatable
    /// only while its `free` flag is set (a foreign `arm` can revive a slot
    /// that is still listed here).
    free: Vec<u32>,
}

fn pack(slot: u32, gen: u32) -> TimerId {
    TimerId((u64::from(gen) << 32) | u64::from(slot))
}

fn unpack(id: TimerId) -> (u32, u32) {
    (id.0 as u32, (id.0 >> 32) as u32)
}

impl TimerTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TimerTable::default()
    }

    /// Allocates a fresh id: a recycled slot under its bumped generation if
    /// one is free, else a brand-new slot at generation zero. O(1)
    /// amortized; allocation-free once the table has warmed up.
    pub fn alloc(&mut self) -> TimerId {
        while let Some(s) = self.free.pop() {
            let slot = &mut self.slots[s as usize];
            if !slot.free {
                continue; // revived by a foreign arm; drop the stale hint
            }
            slot.free = false;
            slot.cancelled = false;
            return pack(s, slot.gen);
        }
        let s = u32::try_from(self.slots.len()).expect("timer slots exhausted");
        self.slots.push(TimerSlot::default());
        pack(s, 0)
    }

    /// Applies a `SetTimer` effect: records one scheduled firing of `id`.
    ///
    /// For ids this table allocated, the generation always matches and this
    /// is a plain increment. An id it did *not* allocate (pushed by an
    /// effect-rewriting adversary) adopts the slot: the generation is forced
    /// to the id's and the firing count restarts, so the slot's bookkeeping
    /// stays consistent whatever id arrives.
    pub fn arm(&mut self, id: TimerId) {
        let (s, gen) = unpack(id);
        let idx = s as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, TimerSlot::default());
        }
        let slot = &mut self.slots[idx];
        if slot.gen == gen {
            slot.pending += 1;
            slot.free = false;
        } else {
            *slot = TimerSlot {
                gen,
                pending: 1,
                cancelled: false,
                free: false,
            };
        }
    }

    /// Applies a `CancelTimer` effect: one subsequent firing of `id` will be
    /// suppressed. Stale ids (recycled slot, mismatched generation) are
    /// ignored. O(1), no search.
    pub fn cancel(&mut self, id: TimerId) {
        let (s, gen) = unpack(id);
        if let Some(slot) = self.slots.get_mut(s as usize) {
            if slot.gen == gen && !slot.free {
                slot.cancelled = true;
            }
        }
    }

    /// Consumes one scheduled firing of `id`; returns whether the node's
    /// `on_timer` should run. `false` means the firing was cancelled or is
    /// stale (its slot was recycled under a newer generation). When the last
    /// pending firing of a slot is consumed the slot is recycled. O(1).
    pub fn try_fire(&mut self, id: TimerId) -> bool {
        let (s, gen) = unpack(id);
        let Some(slot) = self.slots.get_mut(s as usize) else {
            return false;
        };
        if slot.gen != gen || slot.pending == 0 {
            return false; // stale: the slot moved on without this firing
        }
        let fire = !slot.cancelled;
        slot.cancelled = false;
        slot.pending -= 1;
        if slot.pending == 0 {
            slot.gen = slot.gen.wrapping_add(1);
            slot.free = true;
            self.free.push(s);
        }
        fire
    }

    /// Number of slots ever created (diagnostic; bounds the table's memory).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_across_recycling() {
        let mut t = TimerTable::new();
        let a = t.alloc();
        t.arm(a);
        assert!(t.try_fire(a), "armed timer fires");
        let b = t.alloc();
        assert_eq!(
            unpack(a).0,
            unpack(b).0,
            "slot is recycled after its firing drained"
        );
        assert_ne!(a, b, "but the generation differs, so the id is fresh");
    }

    #[test]
    fn cancelled_then_recycled_generation_never_fires_stale() {
        let mut t = TimerTable::new();
        // Arm and cancel one timer; its queue entry is still out there.
        let old = t.alloc();
        t.arm(old);
        t.cancel(old);
        assert!(!t.try_fire(old), "cancelled firing is suppressed");
        // The slot recycles into a new generation...
        let new = t.alloc();
        t.arm(new);
        // ...and a duplicate stale firing of the old generation must not
        // consume (or trigger) the new timer.
        assert!(!t.try_fire(old), "stale generation dropped in O(1)");
        assert!(t.try_fire(new), "the live generation still fires");
    }

    #[test]
    fn cancel_before_set_suppresses_the_later_firing() {
        // An effect-rewriting adversary can reorder CancelTimer ahead of
        // SetTimer; the old id-set semantics suppressed the firing, and the
        // generation table must too.
        let mut t = TimerTable::new();
        let id = t.alloc();
        t.cancel(id);
        t.arm(id);
        assert!(!t.try_fire(id));
    }

    #[test]
    fn double_arm_fires_twice_unless_cancelled_once() {
        let mut t = TimerTable::new();
        let id = t.alloc();
        t.arm(id);
        t.arm(id);
        t.cancel(id);
        assert!(!t.try_fire(id), "one firing eaten by the cancel");
        assert!(t.try_fire(id), "the other still runs");
        assert!(!t.try_fire(id), "nothing pending afterwards");
    }

    #[test]
    fn foreign_ids_are_adopted_for_replay() {
        // An effect-rewriting adversary can push SetTimer effects whose ids
        // were never allocated here; the table must follow those ids'
        // generations.
        let mut t = TimerTable::new();
        let gen0 = pack(0, 0);
        t.arm(gen0);
        assert!(t.try_fire(gen0));
        let gen1 = pack(0, 1);
        t.arm(gen1);
        assert!(!t.try_fire(gen0), "stale");
        assert!(t.try_fire(gen1));
    }

    #[test]
    fn memory_is_bounded_by_concurrency_not_total_timers() {
        let mut t = TimerTable::new();
        for _ in 0..10_000 {
            let id = t.alloc();
            t.arm(id);
            assert!(t.try_fire(id));
        }
        assert_eq!(t.capacity(), 1, "one concurrent timer, one slot");
    }

    #[test]
    fn stale_cancel_of_recycled_slot_is_ignored() {
        let mut t = TimerTable::new();
        let old = t.alloc();
        t.arm(old);
        assert!(t.try_fire(old));
        let new = t.alloc();
        t.arm(new);
        t.cancel(old); // stale id: must not hit the new generation
        assert!(t.try_fire(new));
    }
}
