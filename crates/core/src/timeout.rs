//! The timeout policy of the eventual-agreement object.
//!
//! Figure 3 line 5 sets `timer_i[r_i] ← r_i`: the timeout value *is* the
//! round number, so it grows without bound — which is all Lemma 3 needs
//! (eventually `r > 2δ`, so the coordinator's `EA_COORD` beats the timer).
//! Footnote 3 generalizes to any increasing function `f_i(r)`; experiment
//! E8 sweeps the linear family.

use minsync_types::Round;

/// An increasing timeout function in ticks: `f(r) = offset + slope·r`.
///
/// The paper's choice is `slope = 1, offset = 0`
/// ([`TimeoutPolicy::paper`]). Larger slopes reach the `f(r) > 2δ`
/// threshold of Lemma 3 in fewer rounds (at the cost of waiting longer in
/// rounds with a faulty or unstable coordinator).
///
/// ```rust
/// use minsync_core::TimeoutPolicy;
/// use minsync_types::Round;
///
/// let paper = TimeoutPolicy::paper();
/// assert_eq!(paper.timeout(Round::new(7)), 7);
///
/// let steep = TimeoutPolicy::linear(10, 5);
/// assert_eq!(steep.timeout(Round::new(7)), 75);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimeoutPolicy {
    /// Per-round growth (> 0).
    slope: u64,
    /// Constant floor added to every round.
    offset: u64,
}

impl TimeoutPolicy {
    /// The paper's policy: `timer[r] = r`.
    pub const fn paper() -> Self {
        TimeoutPolicy {
            slope: 1,
            offset: 0,
        }
    }

    /// `f(r) = offset + slope·r`.
    ///
    /// # Panics
    ///
    /// Panics if `slope == 0`: the policy must be increasing, otherwise the
    /// Lemma 3 argument (timeouts eventually exceed `2δ`) fails and the EA
    /// object loses liveness.
    pub const fn linear(slope: u64, offset: u64) -> Self {
        assert!(slope > 0, "timeout policy must be strictly increasing");
        TimeoutPolicy { slope, offset }
    }

    /// The timeout, in ticks, to arm for round `r`.
    pub const fn timeout(&self, r: Round) -> u64 {
        self.offset + self.slope * r.get()
    }

    /// First round whose timeout strictly exceeds `2δ` — the `r1` of
    /// Lemma 3's proof. Harness code uses it to predict convergence rounds.
    pub const fn first_round_exceeding(&self, two_delta: u64) -> Round {
        if self.offset > two_delta {
            return Round::FIRST;
        }
        // Smallest r with offset + slope·r > two_delta.
        Round::new((two_delta - self.offset) / self.slope + 1)
    }
}

impl Default for TimeoutPolicy {
    fn default() -> Self {
        TimeoutPolicy::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policy_equals_round_number() {
        let p = TimeoutPolicy::paper();
        for r in 1..100 {
            assert_eq!(p.timeout(Round::new(r)), r);
        }
    }

    #[test]
    fn linear_policy() {
        let p = TimeoutPolicy::linear(3, 10);
        assert_eq!(p.timeout(Round::new(1)), 13);
        assert_eq!(p.timeout(Round::new(10)), 40);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn zero_slope_rejected() {
        let _ = TimeoutPolicy::linear(0, 5);
    }

    #[test]
    fn first_round_exceeding_is_tight() {
        let p = TimeoutPolicy::paper();
        // 2δ = 10 → first round with timeout > 10 is round 11.
        let r = p.first_round_exceeding(10);
        assert_eq!(r, Round::new(11));
        assert!(p.timeout(r) > 10);
        assert!(p.timeout(Round::new(r.get() - 1)) <= 10);

        let steep = TimeoutPolicy::linear(7, 0);
        let r = steep.first_round_exceeding(10);
        assert_eq!(r, Round::new(2)); // 7·1 = 7 ≤ 10 < 14 = 7·2
    }

    #[test]
    fn big_offset_satisfies_immediately() {
        let p = TimeoutPolicy::linear(1, 1000);
        assert_eq!(p.first_round_exceeding(10), Round::FIRST);
    }
}
