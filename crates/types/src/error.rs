use core::fmt;

/// Errors raised while validating system parameters.
///
/// Every constructor in this crate validates its arguments eagerly
/// (C-VALIDATE); protocol code can therefore assume configurations are
/// internally consistent.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `n ≤ 1`: the model requires at least two processes.
    TooFewProcesses {
        /// The offending process count.
        n: usize,
    },
    /// `n` exceeds the `max` processes a
    /// [`ProcSet`](crate::ProcSet) holds.
    TooManyProcesses {
        /// The offending process count.
        n: usize,
        /// The largest supported `n`.
        max: usize,
    },
    /// The resilience bound `t < n/3` is violated.
    Resilience {
        /// Number of processes.
        n: usize,
        /// Claimed fault tolerance.
        t: usize,
    },
    /// The tuning parameter `k` of Section 5.4 is outside `0 ..= t`.
    TuningParameter {
        /// Requested `k`.
        k: usize,
        /// Fault tolerance `t` (upper bound for `k`).
        t: usize,
    },
    /// A binomial coefficient overflowed `u128` (system far beyond simulable
    /// sizes).
    CombinatoricsOverflow {
        /// `n` of `C(n, k)`.
        n: usize,
        /// `k` of `C(n, k)`.
        k: usize,
    },
    /// A bisource specification is malformed (see [`crate::BisourceSpec`]).
    Bisource {
        /// Human-readable reason.
        reason: String,
    },
    /// A process id is out of range for the configured `n`.
    UnknownProcess {
        /// The offending id (0-based index).
        index: usize,
        /// Number of processes.
        n: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooFewProcesses { n } => {
                write!(f, "system needs n > 1 processes, got n = {n}")
            }
            ConfigError::TooManyProcesses { n, max } => {
                write!(
                    f,
                    "system supports at most n = {max} processes, got n = {n}"
                )
            }
            ConfigError::Resilience { n, t } => {
                write!(f, "resilience bound t < n/3 violated: n = {n}, t = {t}")
            }
            ConfigError::TuningParameter { k, t } => {
                write!(
                    f,
                    "tuning parameter must satisfy 0 ≤ k ≤ t: k = {k}, t = {t}"
                )
            }
            ConfigError::CombinatoricsOverflow { n, k } => {
                write!(f, "binomial coefficient C({n}, {k}) overflows u128")
            }
            ConfigError::Bisource { reason } => write!(f, "invalid bisource spec: {reason}"),
            ConfigError::UnknownProcess { index, n } => {
                write!(f, "process index {index} out of range for n = {n}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ConfigError::Resilience { n: 6, t: 2 };
        let s = e.to_string();
        assert!(s.contains("n = 6"));
        assert!(s.contains("t = 2"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ConfigError>();
    }
}
