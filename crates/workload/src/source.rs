use std::sync::Arc;

use minsync_smr::ProposalSource;

use crate::population::GroupQueue;
use crate::{command, Batch};

/// A batching [`ProposalSource`]: proposes the next window of up to `cap`
/// pending commands of one routing group, rotating the championed group
/// with the slot number.
///
/// The proposal is a **pure function of the commit stream**: the source
/// keeps one consumed-commands cursor per group, advanced only by
/// [`ProposalSource::on_commit`]. Replicas therefore agree on every group's
/// pending window at every log position, and the per-slot proposal
/// diversity across correct replicas is at most `m` (the group count) — the
/// feasibility bound the population was validated against.
///
/// Rotation (`(replica + slot) mod m` picks the championed group) plus a
/// deterministic fallback to the next non-empty group guarantees no group
/// is starved by a schedule that consistently favors one proposal: each
/// slot, the classes of replicas champion different groups, and whichever
/// batch wins, the losing groups' commands stay pending and are championed
/// again one slot later.
#[derive(Debug)]
pub struct BatchingSource {
    queues: Vec<Arc<GroupQueue>>,
    /// Commands consumed (committed) per group.
    cursors: Vec<usize>,
    replica: usize,
    cap: usize,
}

impl BatchingSource {
    pub(crate) fn new(queues: Vec<Arc<GroupQueue>>, replica: usize, cap: usize) -> Self {
        let cursors = vec![0; queues.len()];
        BatchingSource {
            queues,
            cursors,
            replica,
            cap,
        }
    }

    /// The effective batch cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Commands committed from group `g`'s queue so far.
    pub fn consumed(&self, g: usize) -> usize {
        self.cursors[g]
    }

    /// Group `g`'s pending window (the batch a champion of `g` would
    /// propose right now).
    fn window(&self, g: usize) -> &[u64] {
        let q = &self.queues[g];
        let start = self.cursors[g].min(q.commands.len());
        let end = (start + self.cap).min(q.commands.len());
        &q.commands[start..end]
    }
}

impl ProposalSource<Batch> for BatchingSource {
    fn propose(&mut self, slot: u64) -> Batch {
        let m = self.queues.len();
        let primary = ((self.replica as u64 + slot) % m as u64) as usize;
        for off in 0..m {
            let g = (primary + off) % m;
            let window = self.window(g);
            if !window.is_empty() {
                return Batch(window.to_vec());
            }
        }
        Batch(Vec::new()) // every queue drained: no-op heartbeat
    }

    fn on_commit(&mut self, _slot: u64, value: &Batch) {
        let Some(&first) = value.0.first() else {
            return; // no-op batch consumes nothing
        };
        let g = command::client_of(first) as usize % self.queues.len();
        // CB-Set Validity guarantees the decided batch was proposed by a
        // correct replica, i.e. it *is* group g's pending window under the
        // shared commit stream. That guarantee rests on the substrate
        // enforcing the paper's no-impersonation assumption — which an
        // *unauthenticated* TCP cluster cannot (experiment E15's
        // impersonator commits a forged batch there). A foreign batch
        // consumes nothing: the real window is still pending, will be
        // proposed again, and the forgery stays visible in the
        // committed-log digest instead of desynchronizing the client
        // queues.
        if value.0 != self.window(g) {
            return;
        }
        self.cursors[g] += value.0.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrivalProcess, WorkloadSpec};
    use minsync_types::SystemConfig;

    fn population(groups: usize) -> crate::ClientPopulation {
        WorkloadSpec {
            groups,
            clients_per_group: 2,
            commands_per_client: 4,
            arrivals: ArrivalProcess::Bursty {
                burst: 2,
                period: 10,
            },
            seed: 5,
        }
        .generate(&SystemConfig::new(7, 2).unwrap())
        .unwrap()
    }

    #[test]
    fn proposals_are_windows_of_the_rotating_group() {
        let pop = population(2);
        let mut src = pop.source_for(0, 3);
        // Slot 1, replica 0 → group (0 + 1) % 2 = 1.
        let b1 = src.propose(1);
        assert_eq!(b1.len(), 3);
        assert!(b1
            .commands()
            .iter()
            .all(|&c| command::client_of(c) % 2 == 1));
        // Slot 2 (nothing committed) → group 0's window.
        let b2 = src.propose(2);
        assert!(b2
            .commands()
            .iter()
            .all(|&c| command::client_of(c) % 2 == 0));
    }

    #[test]
    fn commits_advance_exactly_the_decided_group() {
        let pop = population(2);
        let mut src = pop.source_for(0, 3);
        let b1 = src.propose(1); // group 1's window
        src.on_commit(1, &b1);
        assert_eq!(src.consumed(1), 3);
        assert_eq!(src.consumed(0), 0);
        // The next champion of group 1 proposes the *next* window.
        let b3 = src.propose(3); // (0 + 3) % 2 = 1
        assert_ne!(b1, b3);
        assert!(b3
            .commands()
            .iter()
            .all(|&c| command::client_of(c) % 2 == 1));
    }

    #[test]
    fn replicas_of_different_classes_agree_on_windows() {
        let pop = population(2);
        let mut a = pop.source_for(0, 4);
        let mut b = pop.source_for(1, 4);
        // Same slot, opposite classes: a champions group 1, b group 0 — and
        // their proposals are exactly each other's next-slot proposals.
        let a1 = a.propose(1);
        let b1 = b.propose(1);
        assert_ne!(a1, b1);
        // Commit a1 everywhere; both sources advance identically.
        a.on_commit(1, &a1.clone());
        b.on_commit(1, &a1);
        assert_eq!(a.consumed(1), b.consumed(1));
        // Whenever their rotation lands on the same group, the windows are
        // identical — the m-valued bound in action.
        assert_eq!(a.propose(2), b.propose(3)); // both champion group 0
    }

    #[test]
    fn drained_groups_fall_back_then_heartbeat() {
        let pop = population(1);
        let mut src = pop.source_for(0, 64);
        let all = src.propose(1);
        assert_eq!(all.len(), 8); // whole group in one batch
        src.on_commit(1, &all);
        assert!(src.propose(2).is_empty(), "drained population heartbeats");
    }

    #[test]
    fn empty_batch_consumes_nothing() {
        let pop = population(1);
        let mut src = pop.source_for(0, 64);
        src.on_commit(1, &Batch(Vec::new()));
        assert_eq!(src.consumed(0), 0);
    }
}
