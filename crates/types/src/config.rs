use crate::{ConfigError, ProcSet, ProcessId};

/// System parameters `(n, t)` of the model `BZ_AS_{n,t}[t < n/3]`.
///
/// * `n` — total number of processes (`1 < n ≤ 128`, the capacity of the
///   [`ProcSet`] every per-sender count is kept in),
/// * `t` — maximum number of Byzantine processes, with the paper's optimal
///   resilience bound `t < n/3` enforced at construction.
///
/// All quorum arithmetic used by the protocols lives here so thresholds are
/// never re-derived (and mis-derived) at call sites.
///
/// ```rust
/// use minsync_types::SystemConfig;
///
/// # fn main() -> Result<(), minsync_types::ConfigError> {
/// let cfg = SystemConfig::new(10, 3)?;
/// assert_eq!(cfg.quorum(), 7);          // n − t
/// assert_eq!(cfg.plurality(), 4);       // t + 1
/// assert_eq!(cfg.echo_threshold(), 7);  // ⌈(n + t + 1)/2⌉ (Bracha ECHO)
/// assert_eq!(cfg.ready_threshold(), 7); // 2t + 1 (Bracha READY delivery)
/// assert_eq!(cfg.cb_accept_threshold(), 7); // 2t + 1 (relay-rule CB)
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SystemConfig {
    n: usize,
    t: usize,
}

impl SystemConfig {
    /// Creates a configuration, validating `1 < n ≤ 128` and `t < n/3`.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::TooFewProcesses`] if `n ≤ 1`,
    /// * [`ConfigError::TooManyProcesses`] if `n > 128`,
    /// * [`ConfigError::Resilience`] if `n ≤ 3t`.
    pub fn new(n: usize, t: usize) -> Result<Self, ConfigError> {
        if n <= 1 {
            return Err(ConfigError::TooFewProcesses { n });
        }
        if n > ProcSet::CAPACITY {
            return Err(ConfigError::TooManyProcesses {
                n,
                max: ProcSet::CAPACITY,
            });
        }
        if n <= 3 * t {
            return Err(ConfigError::Resilience { n, t });
        }
        Ok(SystemConfig { n, t })
    }

    /// The smallest system tolerating `t` Byzantine processes: `n = 3t + 1`
    /// (or `n = 2` for `t = 0`, since the model needs at least two
    /// processes).
    ///
    /// ```rust
    /// use minsync_types::SystemConfig;
    /// let cfg = SystemConfig::minimal_for(2);
    /// assert_eq!((cfg.n(), cfg.t()), (7, 2));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `3t + 1 > 128` (see [`SystemConfig::new`]).
    pub fn minimal_for(t: usize) -> Self {
        Self::new((3 * t + 1).max(2), t).expect("3t + 1 processes fit a ProcSet")
    }

    /// Total number of processes.
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Maximum number of Byzantine processes.
    pub const fn t(&self) -> usize {
        self.t
    }

    /// The `n − t` quorum used by every "wait for messages from `n − t`
    /// different processes" predicate.
    pub const fn quorum(&self) -> usize {
        self.n - self.t
    }

    /// The `t + 1` threshold: any set of `t + 1` processes contains at least
    /// one correct process.
    pub const fn plurality(&self) -> usize {
        self.t + 1
    }

    /// Bracha's ECHO threshold `⌈(n + t + 1)/2⌉`: two such sets intersect in
    /// a correct process.
    pub const fn echo_threshold(&self) -> usize {
        (self.n + self.t + 2) / 2 // ⌈(n+t+1)/2⌉ = ⌊(n+t+2)/2⌋
    }

    /// Bracha's READY amplification threshold `t + 1`.
    pub const fn ready_amplify_threshold(&self) -> usize {
        self.t + 1
    }

    /// Bracha's READY delivery threshold `2t + 1`.
    pub const fn ready_threshold(&self) -> usize {
        2 * self.t + 1
    }

    /// The relay rule's relay threshold `t + 1` (DESIGN.md §9): `CB(v)`
    /// from this many distinct senders includes a correct one, so `v` was
    /// cb-broadcast by a correct process and may be relayed.
    pub const fn cb_relay_threshold(&self) -> usize {
        self.t + 1
    }

    /// The relay rule's accept threshold `2t + 1` (DESIGN.md §9): `CB(v)`
    /// from this many distinct senders includes `t + 1` correct ones, so
    /// every correct process relays `v` and hears it from `n − t ≥ 2t + 1`.
    pub const fn cb_accept_threshold(&self) -> usize {
        2 * self.t + 1
    }

    /// Certification threshold `⌊(n + t)/2⌋ + 1` (strictly more than
    /// `(n + t)/2` senders): at most one value can ever be certified, used by
    /// the ⊥-validity variant.
    pub const fn certification_threshold(&self) -> usize {
        (self.n + self.t) / 2 + 1
    }

    /// Maximum number of distinct values the correct processes may propose:
    /// `m ≤ ⌊(n − (t+1)) / t⌋` (Section 2.3). For `t = 0` any `m` is
    /// feasible and `usize::MAX` is returned.
    pub const fn m_max(&self) -> usize {
        match (self.n - (self.t + 1)).checked_div(self.t) {
            Some(m) => m,
            None => usize::MAX, // t = 0: any m is feasible
        }
    }

    /// The m-valued feasibility predicate `n − t > m·t`.
    ///
    /// Guarantees some value is proposed by at least `t + 1` correct
    /// processes even if all `t` Byzantine processes collude on a value no
    /// correct process proposed.
    pub const fn feasible(&self, m: usize) -> bool {
        if self.t == 0 {
            return m >= 1;
        }
        // Avoid overflow: compare via division instead of m * t.
        m >= 1 && m <= self.m_max()
    }

    /// Iterates over all process ids `p_1 … p_n`.
    pub fn processes(&self) -> impl DoubleEndedIterator<Item = ProcessId> + ExactSizeIterator {
        ProcessId::all(self.n)
    }

    /// Validates that `id` belongs to this system.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownProcess`] if `id.index() ≥ n`.
    pub fn check_process(&self, id: ProcessId) -> Result<(), ConfigError> {
        if id.index() < self.n {
            Ok(())
        } else {
            Err(ConfigError::UnknownProcess {
                index: id.index(),
                n: self.n,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_classic_configurations() {
        for t in 1..6 {
            let cfg = SystemConfig::new(3 * t + 1, t).unwrap();
            assert_eq!(cfg.quorum() + cfg.t(), cfg.n());
        }
        assert!(SystemConfig::new(2, 0).is_ok());
    }

    #[test]
    fn rejects_n_equal_3t() {
        assert_eq!(
            SystemConfig::new(6, 2).unwrap_err(),
            ConfigError::Resilience { n: 6, t: 2 }
        );
        assert!(SystemConfig::new(3, 1).is_err());
    }

    #[test]
    fn rejects_tiny_systems() {
        assert_eq!(
            SystemConfig::new(1, 0).unwrap_err(),
            ConfigError::TooFewProcesses { n: 1 }
        );
        assert_eq!(
            SystemConfig::new(0, 0).unwrap_err(),
            ConfigError::TooFewProcesses { n: 0 }
        );
    }

    #[test]
    fn rejects_systems_beyond_the_set_capacity() {
        assert!(SystemConfig::new(128, 42).is_ok());
        assert_eq!(
            SystemConfig::new(129, 42).unwrap_err(),
            ConfigError::TooManyProcesses { n: 129, max: 128 }
        );
    }

    #[test]
    fn quorum_arithmetic_matches_paper() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        assert_eq!(cfg.quorum(), 5); // n − t
        assert_eq!(cfg.plurality(), 3); // t + 1
        assert_eq!(cfg.echo_threshold(), 5); // ⌈(7+2+1)/2⌉ = 5
        assert_eq!(cfg.ready_threshold(), 5); // 2t+1
        assert_eq!(cfg.ready_amplify_threshold(), 3);
        assert_eq!(cfg.certification_threshold(), 5); // ⌊9/2⌋+1
    }

    #[test]
    fn echo_threshold_ceiling_is_exact() {
        // n + t odd and even cases.
        let c1 = SystemConfig::new(4, 1).unwrap(); // n+t+1 = 6 → 3
        assert_eq!(c1.echo_threshold(), 3);
        let c2 = SystemConfig::new(7, 2).unwrap(); // n+t+1 = 10 → 5
        assert_eq!(c2.echo_threshold(), 5);
        let c3 = SystemConfig::new(8, 2).unwrap(); // n+t+1 = 11 → 6
        assert_eq!(c3.echo_threshold(), 6);
    }

    #[test]
    fn m_max_matches_formula() {
        assert_eq!(SystemConfig::new(4, 1).unwrap().m_max(), 2);
        assert_eq!(SystemConfig::new(7, 2).unwrap().m_max(), 2);
        assert_eq!(SystemConfig::new(10, 3).unwrap().m_max(), 2);
        assert_eq!(SystemConfig::new(13, 3).unwrap().m_max(), 3);
        assert_eq!(SystemConfig::new(9, 2).unwrap().m_max(), 3);
        assert_eq!(SystemConfig::new(5, 0).unwrap().m_max(), usize::MAX);
    }

    #[test]
    fn feasibility_boundary() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        assert!(cfg.feasible(1));
        assert!(cfg.feasible(2));
        assert!(!cfg.feasible(3)); // n − t = 5, m·t = 6
        assert!(!cfg.feasible(0));
    }

    #[test]
    fn feasibility_with_t_zero() {
        let cfg = SystemConfig::new(3, 0).unwrap();
        assert!(cfg.feasible(3));
        assert!(!cfg.feasible(0));
    }

    #[test]
    fn minimal_for_is_tight() {
        for t in 0..5 {
            let cfg = SystemConfig::minimal_for(t);
            assert!(SystemConfig::new(cfg.n(), cfg.t()).is_ok());
            if t > 0 {
                assert!(SystemConfig::new(cfg.n() - 1, t).is_err());
            }
        }
        assert_eq!(SystemConfig::minimal_for(0).n(), 2);
    }

    #[test]
    fn check_process_bounds() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        assert!(cfg.check_process(ProcessId::new(3)).is_ok());
        assert!(matches!(
            cfg.check_process(ProcessId::new(4)),
            Err(ConfigError::UnknownProcess { index: 4, n: 4 })
        ));
    }

    #[test]
    fn processes_iterates_n_ids() {
        let cfg = SystemConfig::new(5, 1).unwrap();
        assert_eq!(cfg.processes().count(), 5);
    }
}
