//! The cooperative broadcast (CB) abstraction — Section 2.3, Figure 1.
//!
//! CB is a one-shot **all-to-all** broadcast: every correct process
//! cb-broadcasts a value; each process maintains a read-only set `cb_valid`
//! and the operation returns a value from that set once it is non-empty.
//! Figure 1 implements it on top of RB:
//!
//! * line 1: `RB_broadcast CB_VAL(v_i)`;
//! * line 4: when `CB_VAL(v)` is RB-delivered from `t + 1` different
//!   processes, add `v` to `cb_valid_i` (at least one of the `t + 1` is
//!   correct, so `cb_valid` only ever contains values cb-broadcast by
//!   correct processes — CB-Set Validity);
//! * lines 2–3: wait until `cb_valid_i ≠ ∅`, return any value in it.
//!
//! Under the feasibility condition `n − t > m·t` some value is proposed by
//! `t + 1` correct processes, so every `cb_valid` set eventually fills
//! (CB-Set Termination) and, by RB-Termination-2, all correct processes end
//! up with equal sets (CB-Set Agreement).
//!
//! [`CbInstance`] is the per-instance bookkeeping hosted by the consensus
//! automaton: the host performs the RB broadcast itself (so all RB traffic
//! shares one engine) and feeds RB deliveries in.

use std::collections::BTreeSet;

use minsync_types::{ProcessId, SystemConfig, Tally, Value};

/// State of one cooperative-broadcast instance at one process.
///
/// ```rust
/// use minsync_broadcast::CbInstance;
/// use minsync_types::{ProcessId, SystemConfig};
///
/// # fn main() -> Result<(), minsync_types::ConfigError> {
/// let cfg = SystemConfig::new(4, 1)?; // t + 1 = 2
/// let mut cb: CbInstance<u64> = CbInstance::new(cfg);
/// assert!(cb.on_rb_delivered(ProcessId::new(0), 7).is_none());
/// // Second distinct RB-delivery of 7 → becomes valid.
/// assert_eq!(cb.on_rb_delivered(ProcessId::new(1), 7), Some(7));
/// assert_eq!(cb.returnable(), Some(&7));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CbInstance<V> {
    cfg: SystemConfig,
    /// How many origins RB-delivered `CB_VAL(v)`, per value. RB-Unicity
    /// guarantees at most one value per origin, which the tally enforces
    /// defensively.
    support: Tally<V>,
    /// Values with `t + 1` distinct supporters, in the order they became
    /// valid (the paper's `cb_valid_i`, plus a deterministic "first" for
    /// line 3's *any value*).
    valid_in_order: Vec<V>,
}

impl<V: Value> CbInstance<V> {
    /// Creates the instance bookkeeping for system `cfg`.
    pub fn new(cfg: SystemConfig) -> Self {
        CbInstance {
            cfg,
            support: Tally::default(),
            valid_in_order: Vec::new(),
        }
    }

    /// Records that `CB_VAL(value)` was RB-delivered from `from` (Figure 1
    /// line 4). Returns `Some(value)` if this delivery just made the value
    /// valid, `None` otherwise.
    ///
    /// A second RB-delivery from the same origin is ignored (RB-Unicity
    /// makes this impossible with a correct RB layer; the guard keeps the
    /// object safe in isolation).
    pub fn on_rb_delivered(&mut self, from: ProcessId, value: V) -> Option<V> {
        if self.support.vote(from, &value)? != self.cfg.plurality() {
            return None;
        }
        self.valid_in_order.push(value.clone());
        Some(value)
    }

    /// The paper's `cb_valid_i` set.
    pub fn cb_valid(&self) -> BTreeSet<V> {
        self.valid_in_order.iter().cloned().collect()
    }

    /// True if `value ∈ cb_valid_i`.
    pub fn is_valid(&self, value: &V) -> bool {
        self.valid_in_order.contains(value)
    }

    /// True once `cb_valid_i ≠ ∅` (the wait of Figure 1 line 2 can end).
    pub fn has_valid(&self) -> bool {
        !self.valid_in_order.is_empty()
    }

    /// Line 3's "any value in `cb_valid_i`": deterministically, the first
    /// value that became valid at this process. `None` while the set is
    /// empty.
    pub fn returnable(&self) -> Option<&V> {
        self.valid_in_order.first()
    }

    /// Number of distinct origins whose `CB_VAL` this process RB-delivered.
    pub fn deliveries(&self) -> usize {
        self.support.voters()
    }

    /// Current support count for `value` (diagnostics / tests).
    pub fn support_of(&self, value: &V) -> usize {
        self.support.support(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cb(n: usize, t: usize) -> CbInstance<u64> {
        CbInstance::new(SystemConfig::new(n, t).unwrap())
    }

    #[test]
    fn value_becomes_valid_at_exactly_t_plus_1() {
        let mut c = cb(7, 2); // plurality 3
        assert!(c.on_rb_delivered(ProcessId::new(0), 5).is_none());
        assert!(c.on_rb_delivered(ProcessId::new(1), 5).is_none());
        assert_eq!(c.on_rb_delivered(ProcessId::new(2), 5), Some(5));
        assert!(c.is_valid(&5));
        // Additional support does not re-announce.
        assert!(c.on_rb_delivered(ProcessId::new(3), 5).is_none());
    }

    #[test]
    fn byzantine_only_value_never_valid() {
        // t = 2: two Byzantine processes push 99; no correct process does.
        let mut c = cb(7, 2);
        assert!(c.on_rb_delivered(ProcessId::new(5), 99).is_none());
        assert!(c.on_rb_delivered(ProcessId::new(6), 99).is_none());
        assert!(
            !c.is_valid(&99),
            "CB-Set Validity: t supporters are not enough"
        );
        assert!(!c.has_valid());
    }

    #[test]
    fn duplicate_origin_is_ignored() {
        let mut c = cb(4, 1); // plurality 2
        assert!(c.on_rb_delivered(ProcessId::new(0), 5).is_none());
        // Same origin repeated — must not count twice.
        assert!(c.on_rb_delivered(ProcessId::new(0), 5).is_none());
        assert!(!c.has_valid());
        assert_eq!(c.deliveries(), 1);
    }

    #[test]
    fn returnable_is_first_valid_value() {
        let mut c = cb(7, 2);
        for p in 0..3 {
            c.on_rb_delivered(ProcessId::new(p), 10);
        }
        for p in 3..6 {
            c.on_rb_delivered(ProcessId::new(p), 4);
        }
        // 10 became valid first even though 4 < 10.
        assert_eq!(c.returnable(), Some(&10));
        assert_eq!(c.cb_valid(), [4u64, 10].into_iter().collect());
    }

    #[test]
    fn multiple_values_can_be_valid() {
        let mut c = cb(10, 3); // plurality 4
        for p in 0..4 {
            c.on_rb_delivered(ProcessId::new(p), 1);
        }
        for p in 4..8 {
            c.on_rb_delivered(ProcessId::new(p), 2);
        }
        assert!(c.is_valid(&1) && c.is_valid(&2));
        assert_eq!(c.cb_valid().len(), 2);
    }

    #[test]
    fn support_counts_are_visible() {
        let mut c = cb(4, 1);
        c.on_rb_delivered(ProcessId::new(2), 8);
        assert_eq!(c.support_of(&8), 1);
        assert_eq!(c.support_of(&9), 0);
    }
}
