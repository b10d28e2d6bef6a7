//! E4 — Figure 4 / Theorem 4: end-to-end consensus under fault mixes.
//!
//! For each system size and each adversary in the library, run consensus
//! with split proposals and check the paper's three properties, recording
//! rounds-to-decide, virtual-time latency, and message totals.

use crate::faults::FaultPlan;
use crate::runner::ConsensusRunBuilder;
use crate::Table;

use super::{seeds, systems};

/// Runs E4.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E4 — Consensus (Figure 4): correctness and cost under fault mixes",
        [
            "n",
            "t",
            "faults",
            "terminated",
            "agreement",
            "validity",
            "rounds",
            "latency",
            "messages",
        ],
    );
    for (n, t) in systems(quick) {
        for plan in plans(t, quick) {
            for seed in seeds(quick) {
                let outcome = ConsensusRunBuilder::new(n, t)
                    .unwrap()
                    .proposals((0..n).map(|i| (i % 2) as u64))
                    .faults(plan.clone())
                    .seed(seed)
                    .run()
                    .unwrap();
                table.push_row([
                    n.to_string(),
                    t.to_string(),
                    plan.name().to_string(),
                    outcome.all_decided().to_string(),
                    outcome.agreement_holds().to_string(),
                    outcome.validity_holds().to_string(),
                    outcome.rounds_to_decide().to_string(),
                    outcome
                        .decision_latency()
                        .map_or("—".into(), |l| l.to_string()),
                    outcome.total_messages().to_string(),
                ]);
            }
        }
    }
    table
}

fn plans(t: usize, quick: bool) -> Vec<FaultPlan> {
    let mut plans = vec![
        FaultPlan::AllCorrect,
        FaultPlan::silent(t),
        FaultPlan::crash(t, 60),
    ];
    if !quick {
        plans.push(FaultPlan::EquivocateProposal {
            slots: vec![0], // the round-1 coordinator equivocates
            a: 100,
            b: 200,
        });
        plans.push(FaultPlan::MuteCoordinator { slots: vec![0] });
        plans.push(FaultPlan::SplitCoordinator {
            slots: vec![0],
            a: 0,
            b: 1,
        });
        plans.push(FaultPlan::fuzzer(t, vec![0, 1, 77]));
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_quick_row_satisfies_all_three_properties() {
        let table = run(true);
        for row in table.rows() {
            assert_eq!(row[3], "true", "termination failed in row {row:?}");
            assert_eq!(row[4], "true", "agreement failed in row {row:?}");
            assert_eq!(row[5], "true", "validity failed in row {row:?}");
        }
    }
}
