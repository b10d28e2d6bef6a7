use minsync_adversary::{mutators, FilterNode, RandomProtocolNode, SilentNode};
use minsync_core::{ConsensusConfig, ConsensusEvent, ConsensusNode, ProtocolMsg};
use minsync_net::{Node, VirtualTime};
use minsync_types::SystemConfig;

use crate::HarnessError;

type Msg = ProtocolMsg<u64>;
type Out = ConsensusEvent<u64>;
pub(crate) type BoxedNode = Box<dyn Node<Msg = Msg, Output = Out>>;

/// Which Byzantine behaviors occupy which fault slots in a consensus run.
///
/// By convention the constructors place faults in the *highest* process
/// ids, which keeps the lowest ids (the early round coordinators) correct;
/// use the struct-literal forms to target specific slots — e.g. making the
/// round-1 coordinator Byzantine, the worst case for early termination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlan {
    /// All `n` processes run the honest protocol.
    AllCorrect,
    /// The listed slots never send a single message.
    Silent {
        /// Byzantine slot indices.
        slots: Vec<usize>,
    },
    /// The listed slots behave honestly, then crash at the given virtual
    /// time.
    CrashMidway {
        /// Byzantine slot indices.
        slots: Vec<usize>,
        /// Crash time (ticks).
        at: u64,
    },
    /// The listed slots equivocate their initial proposal: `a` to the first
    /// half of the id space, `b` to the rest; otherwise honest.
    EquivocateProposal {
        /// Byzantine slot indices.
        slots: Vec<usize>,
        /// Value shown to low ids.
        a: u64,
        /// Value shown to high ids.
        b: u64,
    },
    /// The listed slots run honestly but never send `EA_COORD` — every
    /// round they coordinate degrades to the timer path.
    MuteCoordinator {
        /// Byzantine slot indices.
        slots: Vec<usize>,
    },
    /// The listed slots champion different values to different halves.
    SplitCoordinator {
        /// Byzantine slot indices.
        slots: Vec<usize>,
        /// Value championed to low ids.
        a: u64,
        /// Value championed to high ids.
        b: u64,
    },
    /// The listed slots flood protocol-shaped random garbage.
    Fuzzer {
        /// Byzantine slot indices.
        slots: Vec<usize>,
        /// Value pool for forged messages.
        pool: Vec<u64>,
        /// Messages per stimulus.
        burst: usize,
    },
}

impl FaultPlan {
    /// `count` silent faults in the highest slots.
    pub fn silent(count: usize) -> Self {
        FaultPlan::Silent { slots: Vec::new() }.with_top_slots(count)
    }

    /// `count` crash-midway faults in the highest slots.
    pub fn crash(count: usize, at: u64) -> Self {
        FaultPlan::CrashMidway {
            slots: Vec::new(),
            at,
        }
        .with_top_slots(count)
    }

    /// `count` fuzzers in the highest slots.
    pub fn fuzzer(count: usize, pool: Vec<u64>) -> Self {
        FaultPlan::Fuzzer {
            slots: Vec::new(),
            pool,
            burst: 3,
        }
        .with_top_slots(count)
    }

    fn with_top_slots(mut self, count: usize) -> Self {
        // Resolved against n at build time: usize::MAX markers replaced.
        let slots = match &mut self {
            FaultPlan::AllCorrect => return self,
            FaultPlan::Silent { slots }
            | FaultPlan::CrashMidway { slots, .. }
            | FaultPlan::EquivocateProposal { slots, .. }
            | FaultPlan::MuteCoordinator { slots }
            | FaultPlan::SplitCoordinator { slots, .. }
            | FaultPlan::Fuzzer { slots, .. } => slots,
        };
        // Marker: negative-from-end encoding (resolved in `resolve`).
        *slots = (0..count).map(|i| usize::MAX - i).collect();
        self
    }

    /// The Byzantine slot indices, resolved against system size `n`.
    pub fn byzantine_slots(&self, n: usize) -> Vec<usize> {
        let raw = match self {
            FaultPlan::AllCorrect => return Vec::new(),
            FaultPlan::Silent { slots }
            | FaultPlan::CrashMidway { slots, .. }
            | FaultPlan::EquivocateProposal { slots, .. }
            | FaultPlan::MuteCoordinator { slots }
            | FaultPlan::SplitCoordinator { slots, .. }
            | FaultPlan::Fuzzer { slots, .. } => slots,
        };
        // A top-slot marker `usize::MAX − i` names slot `n − 1 − i`; past
        // slot 0 it stays out of range, for `validate` to reject.
        let top = |s: usize| n.checked_sub(1 + (usize::MAX - s)).unwrap_or(s);
        raw.iter()
            .map(|&s| if s > n { top(s) } else { s })
            .collect()
    }

    /// Correct slot indices for system size `n`.
    pub fn correct_slots(&self, n: usize) -> Vec<usize> {
        let byz = self.byzantine_slots(n);
        (0..n).filter(|i| !byz.contains(i)).collect()
    }

    /// Validates against `cfg` (slot range and `≤ t` faults).
    ///
    /// # Errors
    ///
    /// [`HarnessError::BadFaultPlan`] on out-of-range slots or more than
    /// `t` faults.
    pub fn validate(&self, cfg: &SystemConfig) -> Result<(), HarnessError> {
        let slots = self.byzantine_slots(cfg.n());
        if slots.len() > cfg.t() {
            return Err(HarnessError::BadFaultPlan {
                reason: format!("{} faults exceed t = {}", slots.len(), cfg.t()),
            });
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in &slots {
            if *s >= cfg.n() {
                return Err(HarnessError::BadFaultPlan {
                    reason: format!("slot {s} out of range for n = {}", cfg.n()),
                });
            }
            if !seen.insert(*s) {
                return Err(HarnessError::BadFaultPlan {
                    reason: format!("slot {s} listed twice"),
                });
            }
        }
        Ok(())
    }

    /// Builds the node for `slot`: an honest [`ConsensusNode`] or this
    /// plan's Byzantine behavior.
    pub(crate) fn build_node(
        &self,
        slot: usize,
        cons_cfg: ConsensusConfig,
        proposal: u64,
    ) -> Result<BoxedNode, HarnessError> {
        let n = cons_cfg.system.n();
        if !self.byzantine_slots(n).contains(&slot) {
            return Ok(Box::new(
                ConsensusNode::new(cons_cfg, proposal).map_err(HarnessError::from)?,
            ));
        }
        Ok(match self {
            FaultPlan::AllCorrect => unreachable!("no byzantine slots"),
            FaultPlan::Silent { .. } => Box::new(SilentNode::<Msg, Out>::new()),
            FaultPlan::CrashMidway { at, .. } => Box::new(CrashWrap::new(
                ConsensusNode::new(cons_cfg, proposal).map_err(HarnessError::from)?,
                VirtualTime::from_ticks(*at),
            )),
            FaultPlan::EquivocateProposal { a, b, .. } => Box::new(FilterNode::new(
                ConsensusNode::new(cons_cfg, *a).map_err(HarnessError::from)?,
                mutators::equivocate_proposal::<u64>(n, *a, *b),
            )),
            FaultPlan::MuteCoordinator { .. } => Box::new(FilterNode::new(
                ConsensusNode::new(cons_cfg, proposal).map_err(HarnessError::from)?,
                mutators::mute_coordinator::<u64>(),
            )),
            FaultPlan::SplitCoordinator { a, b, .. } => Box::new(FilterNode::new(
                ConsensusNode::new(cons_cfg, proposal).map_err(HarnessError::from)?,
                mutators::split_coordinator::<u64>(n, *a, *b),
            )),
            FaultPlan::Fuzzer { pool, burst, .. } => {
                Box::new(RandomProtocolNode::<u64, Out>::new(pool.clone(), *burst))
            }
        })
    }

    /// Short name for table rows.
    pub fn name(&self) -> &'static str {
        match self {
            FaultPlan::AllCorrect => "none",
            FaultPlan::Silent { .. } => "silent",
            FaultPlan::CrashMidway { .. } => "crash",
            FaultPlan::EquivocateProposal { .. } => "equivocate",
            FaultPlan::MuteCoordinator { .. } => "mute-coord",
            FaultPlan::SplitCoordinator { .. } => "split-coord",
            FaultPlan::Fuzzer { .. } => "fuzzer",
        }
    }
}

/// Local crash wrapper (avoids exposing `CrashNode`'s generic through the
/// adversary crate just for this file).
use minsync_adversary::CrashNode as CrashWrap;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_slot_resolution() {
        let plan = FaultPlan::silent(2);
        assert_eq!(plan.byzantine_slots(7), vec![6, 5]);
        assert_eq!(plan.correct_slots(7), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn explicit_slots_pass_through() {
        let plan = FaultPlan::Silent { slots: vec![0, 2] };
        assert_eq!(plan.byzantine_slots(7), vec![0, 2]);
    }

    #[test]
    fn validate_rejects_excess_faults() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        assert!(FaultPlan::silent(2).validate(&cfg).is_err());
        assert!(FaultPlan::silent(1).validate(&cfg).is_ok());
        assert!(FaultPlan::AllCorrect.validate(&cfg).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_and_duplicates() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        assert!(FaultPlan::Silent { slots: vec![7] }.validate(&cfg).is_err());
        assert!(FaultPlan::Silent { slots: vec![1, 1] }
            .validate(&cfg)
            .is_err());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(FaultPlan::AllCorrect.name(), "none");
        assert_eq!(FaultPlan::silent(1).name(), "silent");
        assert_eq!(FaultPlan::crash(1, 5).name(), "crash");
    }

    #[test]
    fn more_top_slots_than_processes_is_an_error_not_a_panic() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        for plan in [FaultPlan::silent(5), FaultPlan::fuzzer(9, vec![1])] {
            let err = plan.validate(&cfg);
            assert!(matches!(err, Err(HarnessError::BadFaultPlan { .. })));
        }
        let run = crate::ConsensusRunBuilder::new(4, 1).unwrap();
        let run = run.faults(FaultPlan::crash(6, 10)).run();
        assert!(matches!(run, Err(HarnessError::BadFaultPlan { .. })));
    }
}
