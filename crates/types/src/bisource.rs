//! The ✸⟨x⟩bisource behavioral assumption (Section 4).
//!
//! A correct process `p` is an *✸⟨x⟩sink* if it eventually has timely input
//! channels from `x` correct processes (including itself), an *✸⟨x⟩source*
//! if it eventually has timely output channels to `x` correct processes
//! (including itself), and an *✸⟨x⟩bisource* if it is both. The input and
//! output sets need not coincide. The paper's consensus algorithm requires
//! one ✸⟨t+1⟩bisource; the parameterized variant of Section 5.4 requires an
//! ✸⟨t+1+k⟩bisource.
//!
//! [`BisourceSpec`] pins down a concrete assignment — which process is the
//! bisource and which channels are (eventually) timely — that the network
//! substrate (`minsync-net`) turns into channel timing assignments.

use std::collections::BTreeSet;

use crate::{ConfigError, ProcessId, SystemConfig};

/// A concrete ✸⟨x⟩bisource assignment: the bisource process `ℓ`, its timely
/// input set `X⁻` and timely output set `X⁺` (both include `ℓ` itself, as in
/// the paper's "virtual channel from itself to itself").
///
/// ```rust
/// use minsync_types::{BisourceSpec, SystemConfig, ProcessId};
///
/// # fn main() -> Result<(), minsync_types::ConfigError> {
/// let cfg = SystemConfig::new(4, 1)?;
/// // p2 is a ⟨t+1⟩ = ⟨2⟩bisource with timely input from p1 and timely
/// // output to p4 (plus itself on both sides).
/// let spec = BisourceSpec::new(
///     &cfg,
///     ProcessId::new(1),
///     [ProcessId::new(0), ProcessId::new(1)],
///     [ProcessId::new(1), ProcessId::new(3)],
///     cfg.plurality(),
/// )?;
/// assert_eq!(spec.process(), ProcessId::new(1));
/// assert_eq!(spec.strength(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BisourceSpec {
    process: ProcessId,
    x_minus: BTreeSet<ProcessId>,
    x_plus: BTreeSet<ProcessId>,
    strength: usize,
}

impl BisourceSpec {
    /// Creates and validates a spec: the bisource belongs to both sets, both
    /// sets have at least `strength` members, and all ids are in range.
    ///
    /// `strength` is the paper's `x` in ✸⟨x⟩bisource (`t + 1` for the basic
    /// algorithm, `t + 1 + k` for the parameterized one).
    ///
    /// # Errors
    ///
    /// [`ConfigError::Bisource`] with a human-readable reason, or
    /// [`ConfigError::UnknownProcess`] for out-of-range ids.
    pub fn new(
        cfg: &SystemConfig,
        process: ProcessId,
        x_minus: impl IntoIterator<Item = ProcessId>,
        x_plus: impl IntoIterator<Item = ProcessId>,
        strength: usize,
    ) -> Result<Self, ConfigError> {
        let x_minus: BTreeSet<_> = x_minus.into_iter().collect();
        let x_plus: BTreeSet<_> = x_plus.into_iter().collect();
        cfg.check_process(process)?;
        for p in x_minus.iter().chain(x_plus.iter()) {
            cfg.check_process(*p)?;
        }
        if !x_minus.contains(&process) || !x_plus.contains(&process) {
            return Err(ConfigError::Bisource {
                reason: format!(
                    "{process} must belong to its own X⁻ and X⁺ (virtual self-channel)"
                ),
            });
        }
        if x_minus.len() < strength {
            return Err(ConfigError::Bisource {
                reason: format!(
                    "X⁻ has {} members, need at least {strength} for a ⟨{strength}⟩sink",
                    x_minus.len()
                ),
            });
        }
        if x_plus.len() < strength {
            return Err(ConfigError::Bisource {
                reason: format!(
                    "X⁺ has {} members, need at least {strength} for a ⟨{strength}⟩source",
                    x_plus.len()
                ),
            });
        }
        Ok(BisourceSpec {
            process,
            x_minus,
            x_plus,
            strength,
        })
    }

    /// Convenience constructor: `bisource` plus the processes that follow
    /// it cyclically (`ℓ, ℓ+1, …` mod n) form both `X⁻` and `X⁺`.
    ///
    /// Adjacent placement makes the helper-set alignment (the paper's
    /// `α·n` uncertainty) depend on the bisource's identity, which the
    /// round-complexity experiments sweep.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Bisource`] if `strength > n`, plus the errors of
    /// [`BisourceSpec::new`].
    pub fn adjacent(
        cfg: &SystemConfig,
        bisource: ProcessId,
        strength: usize,
    ) -> Result<Self, ConfigError> {
        cfg.check_process(bisource)?;
        if strength > cfg.n() {
            return Err(ConfigError::Bisource {
                reason: format!("strength {strength} exceeds n = {}", cfg.n()),
            });
        }
        let members: BTreeSet<ProcessId> = (0..strength)
            .map(|i| ProcessId::new((bisource.index() + i) % cfg.n()))
            .collect();
        Self::new(cfg, bisource, members.clone(), members, strength)
    }

    /// The bisource process `ℓ`.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// The timely input set `X⁻` (includes `ℓ`).
    pub fn x_minus(&self) -> &BTreeSet<ProcessId> {
        &self.x_minus
    }

    /// The timely output set `X⁺` (includes `ℓ`).
    pub fn x_plus(&self) -> &BTreeSet<ProcessId> {
        &self.x_plus
    }

    /// The `x` of ✸⟨x⟩bisource this spec was validated against.
    pub fn strength(&self) -> usize {
        self.strength
    }

    /// Directed channels `(from, to)` that must be eventually timely to
    /// realize this bisource: inputs `X⁻ → ℓ` and outputs `ℓ → X⁺`
    /// (self-loops excluded — the self-channel is virtual).
    pub fn timely_channels(&self) -> Vec<(ProcessId, ProcessId)> {
        let mut chans = Vec::new();
        for &from in &self.x_minus {
            if from != self.process {
                chans.push((from, self.process));
            }
        }
        for &to in &self.x_plus {
            if to != self.process {
                chans.push((self.process, to));
            }
        }
        chans
    }

    /// Checks the correctness requirement of Section 4 against the set of
    /// correct processes of an execution: the bisource and all members of
    /// `X⁻ ∪ X⁺` must be correct (the paper counts only channels between
    /// correct processes).
    ///
    /// # Errors
    ///
    /// [`ConfigError::Bisource`] naming the first faulty member found.
    pub fn check_against_correct(&self, correct: &BTreeSet<ProcessId>) -> Result<(), ConfigError> {
        for p in std::iter::once(&self.process)
            .chain(self.x_minus.iter())
            .chain(self.x_plus.iter())
        {
            if !correct.contains(p) {
                return Err(ConfigError::Bisource {
                    reason: format!("{p} participates in the bisource but is faulty"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::new(4, 1).unwrap()
    }

    #[test]
    fn bisource_must_be_in_own_sets() {
        let err = BisourceSpec::new(
            &cfg(),
            ProcessId::new(0),
            [ProcessId::new(1), ProcessId::new(2)],
            [ProcessId::new(0), ProcessId::new(1)],
            2,
        )
        .unwrap_err();
        assert!(matches!(err, ConfigError::Bisource { .. }));
    }

    #[test]
    fn undersized_sets_rejected() {
        let err = BisourceSpec::new(
            &cfg(),
            ProcessId::new(0),
            [ProcessId::new(0)],
            [ProcessId::new(0), ProcessId::new(1)],
            2,
        )
        .unwrap_err();
        assert!(matches!(err, ConfigError::Bisource { .. }));
    }

    #[test]
    fn out_of_range_ids_rejected() {
        let err = BisourceSpec::adjacent(&cfg(), ProcessId::new(9), 2).unwrap_err();
        assert!(matches!(err, ConfigError::UnknownProcess { .. }));
    }

    #[test]
    fn strength_beyond_n_rejected() {
        let err = BisourceSpec::adjacent(&cfg(), ProcessId::new(0), 5).unwrap_err();
        assert!(matches!(err, ConfigError::Bisource { .. }));
    }

    #[test]
    fn timely_channels_exclude_self_loops() {
        let x = [ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)];
        let spec = BisourceSpec::new(&cfg(), ProcessId::new(1), x, x, 3).unwrap();
        let chans = spec.timely_channels();
        assert!(chans.iter().all(|(a, b)| a != b));
        // X = {p1, p2, p3}: 2 inputs + 2 outputs.
        assert_eq!(chans.len(), 4);
    }

    #[test]
    fn input_and_output_sets_may_differ() {
        // The paper stresses X⁻ and X⁺ can connect to different subsets.
        let spec = BisourceSpec::new(
            &cfg(),
            ProcessId::new(0),
            [ProcessId::new(0), ProcessId::new(1)],
            [ProcessId::new(0), ProcessId::new(3)],
            2,
        )
        .unwrap();
        assert_ne!(spec.x_minus(), spec.x_plus());
        assert_eq!(spec.timely_channels().len(), 2);
    }

    #[test]
    fn adjacent_wraps_around() {
        let spec = BisourceSpec::adjacent(&cfg(), ProcessId::new(3), 2).unwrap();
        let expected: BTreeSet<_> = [ProcessId::new(3), ProcessId::new(0)].into_iter().collect();
        assert_eq!(spec.x_minus(), &expected);
        assert_eq!(spec.x_plus(), &expected);
    }

    #[test]
    fn check_against_correct_flags_faulty_members() {
        let spec = BisourceSpec::adjacent(&cfg(), ProcessId::new(0), 2).unwrap();
        let all: BTreeSet<_> = ProcessId::all(4).collect();
        assert!(spec.check_against_correct(&all).is_ok());
        let mut missing = all.clone();
        missing.remove(&ProcessId::new(1)); // p2 ∈ X sets but faulty
        assert!(spec.check_against_correct(&missing).is_err());
    }
}
