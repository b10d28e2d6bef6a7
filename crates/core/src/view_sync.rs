//! The view synchronizer: round advancement + round-timer ownership,
//! extracted from the protocol automata.
//!
//! Every round-based host used to carry the same two maps
//! (`TimerId → Round` and `Round → TimerId`) plus the ad-hoc glue to arm,
//! cancel, and translate timer firings back into round expiries — tangled
//! into the protocol stepping itself. Following the view-synchronizer
//! decomposition of the BFT-liveness literature (see PAPERS.md, "Making
//! Byzantine Consensus Live"), [`ViewSynchronizer`] owns that machinery:
//! *protocol stepping* (what messages mean) stays in the automaton, *"when
//! do we give up on this round"* lives here, testable in isolation.
//!
//! The synchronizer owns no timeout policy: each round's delay comes from
//! the EA object's [`TimeoutPolicy`](crate::TimeoutPolicy) (Figure 3
//! line 5), which the host passes to [`ViewSynchronizer::arm`] with the
//! EA object's `SetTimer` action.

use std::collections::BTreeMap;

use minsync_net::{Env, TimerId};
use minsync_types::Round;

/// Round advancement and round-timer bookkeeping for one process.
///
/// The synchronizer tracks the current round, arms at most one timer per
/// round, translates substrate timer firings back into round expiries with
/// stale-firing suppression, and cancels everything when the host stops.
/// Hosts drive it from their `Node` handlers:
///
/// ```rust
/// use minsync_core::ViewSynchronizer;
/// use minsync_net::Env;
/// use minsync_types::Round;
///
/// let mut env: Env<(), ()> = Env::new(1, 0);
/// let mut sync = ViewSynchronizer::default();
/// sync.advance_to(Round::FIRST);
/// let id = sync.arm(Round::FIRST, 4, &mut env).unwrap();
/// // ... the substrate fires `id` ...
/// assert_eq!(sync.expire(id), Some(Round::FIRST));
/// assert_eq!(sync.expire(id), None, "stale firings are swallowed");
/// ```
#[derive(Clone, Debug, Default)]
pub struct ViewSynchronizer {
    current: Round,
    timers: BTreeMap<TimerId, Round>,
    rounds: BTreeMap<Round, TimerId>,
}

impl ViewSynchronizer {
    /// The round the host is currently in.
    pub fn current(&self) -> Round {
        self.current
    }

    /// Records that the host entered round `r`.
    ///
    /// Advancement is monotone in practice but not enforced: a host
    /// re-entering its current round (restart recovery) is a no-op here.
    pub fn advance_to(&mut self, r: Round) {
        self.current = r;
    }

    /// Arms round `r`'s timer to fire after `delay` ticks. Returns `None`
    /// (and arms nothing) if `r` already has a live timer — the
    /// at-most-one-timer-per-round rule every host wants.
    pub fn arm<M, O>(&mut self, r: Round, delay: u64, env: &mut Env<M, O>) -> Option<TimerId> {
        if self.rounds.contains_key(&r) {
            return None;
        }
        let id = env.set_timer(delay);
        self.timers.insert(id, r);
        self.rounds.insert(r, id);
        Some(id)
    }

    /// Cancels round `r`'s timer if one is live. Returns whether a timer
    /// was actually cancelled.
    pub fn cancel<M, O>(&mut self, r: Round, env: &mut Env<M, O>) -> bool {
        match self.rounds.remove(&r) {
            Some(id) => {
                self.timers.remove(&id);
                env.cancel_timer(id);
                true
            }
            None => false,
        }
    }

    /// Translates a substrate timer firing into a round expiry. Returns the
    /// round whose timer this was, or `None` for firings the synchronizer
    /// does not own (another subsystem's timer, or one raced by a cancel).
    pub fn expire(&mut self, timer: TimerId) -> Option<Round> {
        let round = self.timers.remove(&timer)?;
        self.rounds.remove(&round);
        Some(round)
    }

    /// Cancels every live timer (host decided or is shutting down).
    pub fn cancel_all<M, O>(&mut self, env: &mut Env<M, O>) {
        for (id, _) in std::mem::take(&mut self.timers) {
            env.cancel_timer(id);
        }
        self.rounds.clear();
    }

    /// Number of live round timers.
    pub fn pending(&self) -> usize {
        self.timers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_net::Effect;

    fn env() -> Env<(), ()> {
        Env::new(1, 0)
    }

    #[test]
    fn one_timer_per_round() {
        let mut e = env();
        let mut sync = ViewSynchronizer::default();
        let first = sync.arm(Round::FIRST, 1, &mut e);
        assert!(first.is_some());
        assert!(sync.arm(Round::FIRST, 1, &mut e).is_none(), "already armed");
        assert_eq!(sync.pending(), 1);
    }

    #[test]
    fn expire_is_once_and_owned_only() {
        let mut e = env();
        let mut sync = ViewSynchronizer::default();
        let id = sync.arm(Round::FIRST, 1, &mut e).unwrap();
        let foreign = e.set_timer(5);
        assert_eq!(sync.expire(foreign), None, "not ours");
        assert_eq!(sync.expire(id), Some(Round::FIRST));
        assert_eq!(sync.expire(id), None, "consumed");
        assert_eq!(sync.pending(), 0);
    }

    #[test]
    fn cancel_suppresses_expiry() {
        let mut e = env();
        let mut sync = ViewSynchronizer::default();
        let id = sync.arm(Round::new(2), 1, &mut e).unwrap();
        assert!(sync.cancel(Round::new(2), &mut e));
        assert!(!sync.cancel(Round::new(2), &mut e), "already cancelled");
        assert_eq!(sync.expire(id), None);
        let effects = e.take_buffer();
        assert!(
            effects
                .iter()
                .any(|ef| matches!(ef, Effect::CancelTimer { .. })),
            "cancel reached the substrate: {effects:?}"
        );
    }

    #[test]
    fn cancel_all_clears_every_round() {
        let mut e = env();
        let mut sync = ViewSynchronizer::default();
        let ids: Vec<TimerId> = (1..=5)
            .map(|r| sync.arm(Round::new(r), 1, &mut e).unwrap())
            .collect();
        sync.cancel_all(&mut e);
        assert_eq!(sync.pending(), 0);
        for id in ids {
            assert_eq!(sync.expire(id), None);
        }
    }

    #[test]
    fn advancement_is_tracked() {
        let mut sync = ViewSynchronizer::default();
        assert_eq!(sync.current(), Round::FIRST);
        sync.advance_to(Round::new(7));
        assert_eq!(sync.current(), Round::new(7));
    }

    #[test]
    fn arm_passes_its_delay_through() {
        let mut e = env();
        let mut sync = ViewSynchronizer::default();
        sync.arm(Round::FIRST, 999, &mut e).unwrap();
        let effects = e.take_buffer();
        assert!(matches!(effects[..], [Effect::SetTimer { delay: 999, .. }]));
    }
}
