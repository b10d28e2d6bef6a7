//! Cooperative broadcast by relay (DESIGN.md §9): BV-broadcast's rule,
//! after Mostéfaoui, Moumen and Raynal (PODC 2014), for `m` values.
//!
//! One *wave* per counted tag. For process `p_i`:
//!
//! 1. CB-broadcast sends `CB(v_i)` to all, best effort;
//! 2. on `CB(v)` from `t + 1` distinct senders, send `CB(v)` once (relay);
//! 3. on `CB(v)` from `2t + 1` distinct senders, add `v` to `cb_valid_i`.
//!
//! Validity: `t + 1` senders include a correct one, and a correct process
//! sends only its own value or a relayed one, so by induction on the first
//! correct sender `v` was cb-broadcast by a correct process. Agreement:
//! `2t + 1` senders include `t + 1` correct ones, so every correct process
//! relays `v` and hears it from `n − t ≥ 2t + 1`. Termination: under
//! `n − t > m·t` some value has `t + 1` correct proposers. A wave costs at
//! most `m·n²` messages and one message delay.
//!
//! A correct process sends at most `m` values in one wave (its own, and
//! relays of values correct processes proposed), so a sender naming more
//! than [`SystemConfig::m_max`] values is Byzantine: its extras are
//! dropped before they allocate anything.

use minsync_types::{ProcSet, ProcessId, SystemConfig};

/// One value named in a wave.
#[derive(Clone, Debug)]
struct Named<V> {
    value: V,
    /// Distinct senders of `CB(value)`.
    senders: ProcSet,
    /// This process sent `CB(value)`, as its own or as a relay.
    sent: bool,
    /// Reported valid (step 3) already.
    valid: bool,
}

/// What one received `CB(v)` did to its wave.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct Counted {
    /// Step 2 fired: send `CB(v)`.
    pub(crate) relay: bool,
    /// Step 3 fired: `v` is valid.
    pub(crate) valid: bool,
}

/// The per-tag state of one relay-rule CB instance.
#[derive(Clone, Debug)]
pub(crate) struct Wave<V> {
    /// This process CB-broadcast its own value in the wave.
    initiated: bool,
    /// Every value named, in first-named order.
    named: Vec<Named<V>>,
}

impl<V> Default for Wave<V> {
    fn default() -> Self {
        Wave {
            initiated: false,
            named: Vec::new(),
        }
    }
}

impl<V: Clone + PartialEq> Wave<V> {
    /// Step 1 for `value`; false if this process already sent `CB(value)`
    /// as a relay, so nothing is to be sent.
    ///
    /// # Panics
    ///
    /// Panics if this process already CB-broadcast in the wave.
    pub(crate) fn initiate(&mut self, value: &V) -> bool {
        assert!(!self.initiated, "CB wave already used by this process");
        self.initiated = true;
        let at = self.entry(value);
        !std::mem::replace(&mut self.named[at].sent, true)
    }

    /// Counts `CB(value)` from `from` (steps 2 and 3).
    pub(crate) fn on_cb(&mut self, cfg: &SystemConfig, from: ProcessId, value: &V) -> Counted {
        let at = self.named.iter().position(|n| n.value == *value);
        if at.is_some_and(|at| self.named[at].senders.contains(from)) {
            return Counted::default(); // §2.1: the first CB(v) per sender.
        }
        let names = self.named.iter().filter(|n| n.senders.contains(from));
        if names.count() >= cfg.m_max() {
            return Counted::default(); // A Byzantine sender's extras.
        }
        let at = at.unwrap_or_else(|| self.entry(value));
        let named = &mut self.named[at];
        named.senders.insert(from);
        let support = named.senders.len();
        let relay = !named.sent && support >= cfg.cb_relay_threshold();
        named.sent |= relay;
        let valid = !named.valid && support >= cfg.cb_accept_threshold();
        named.valid |= valid;
        Counted { relay, valid }
    }

    /// Number of distinct values named in the wave (diagnostics).
    pub(crate) fn values(&self) -> usize {
        self.named.len()
    }

    fn entry(&mut self, value: &V) -> usize {
        match self.named.iter().position(|n| n.value == *value) {
            Some(at) => at,
            None => {
                self.named.push(Named {
                    value: value.clone(),
                    senders: ProcSet::default(),
                    sent: false,
                    valid: false,
                });
                self.named.len() - 1
            }
        }
    }
}
