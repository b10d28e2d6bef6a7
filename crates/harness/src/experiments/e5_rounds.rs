//! E5 — Section 5.4: measured rounds-to-decide versus the worst-case bound
//! `α·n = C(n, n−t)·n` under a ⟨t+1⟩bisource present from the start.
//!
//! The bound is what the paper *guarantees* when the bisource is timely
//! from round 1 (the "eventual" noise removed); the shape to reproduce is
//! measured ≪ bound while the bound ordering across configurations is
//! preserved. Sweeps the bisource's identity (the uncertainty the bound
//! quantifies over) and stresses rounds with a mute-coordinator Byzantine
//! slot plus asynchronous background noise.

use minsync_adversary::oracles::SplitBrainOracle;
use minsync_core::TimeoutPolicy;
use minsync_types::{RoundSchedule, SystemConfig};

use super::seeds;
use crate::faults::FaultPlan;
use crate::outcome::RunOutcome;
use crate::runner::ConsensusRunBuilder;
use crate::topology::TopologySpec;
use crate::Table;

/// The split-brain network adversary: keeps the system's estimates divided
/// and starves coordinator traffic on asynchronous channels, so rounds can
/// only converge through the bisource — exactly the regime the §5.4 bound
/// quantifies over.
pub(crate) fn hostile_oracle() -> SplitBrainOracle {
    SplitBrainOracle::default()
}

/// Timeout policy exceeding `2δ` (δ = 4 in [`TopologySpec::standard`]) from
/// round 1: the paper's `timer[r] = r` needs `2δ` rounds before any
/// coordinated round *can* succeed, which footnote 3 lets us skip; with it
/// the measured rounds isolate the schedule-alignment component that the
/// `α·n` bound counts.
pub(crate) fn steep_timeouts() -> TimeoutPolicy {
    TimeoutPolicy::linear(10, 0)
}

/// One E5 cell for one seed: `n` processes proposing `i mod 2`, the
/// bisource at `ell`, `plan`'s faults, timeouts above `2δ` from round 1
/// and the split-brain adversary.
///
/// # Panics
///
/// Panics if the run does not terminate.
pub fn run_cell(n: usize, t: usize, ell: usize, plan: FaultPlan, seed: u64) -> RunOutcome {
    let cfg = SystemConfig::new(n, t).expect("E5 sizes satisfy n > 3t");
    let outcome = ConsensusRunBuilder::new(n, t)
        .expect("E5 sizes satisfy n > 3t")
        .proposals((0..n).map(|i| (i % 2) as u64))
        .topology(TopologySpec::standard(ell, &cfg))
        .faults(plan)
        .timeout_policy(steep_timeouts())
        .schedule_oracle(hostile_oracle())
        .max_events(30_000_000)
        .seed(seed)
        .run()
        .expect("E5 cells are valid configurations");
    assert!(outcome.all_decided(), "E5 run must terminate");
    outcome
}

/// Runs E5.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E5 — Round complexity vs §5.4 bound α·n (⟨t+1⟩bisource from start)",
        [
            "n",
            "t",
            "bisource",
            "faults",
            "max_commit_round",
            "avg_commit_round",
            "bound_alpha_n",
        ],
    );
    let sys: Vec<(usize, usize)> = if quick {
        vec![(4, 1)]
    } else {
        vec![(4, 1), (7, 2)]
    };
    for (n, t) in sys {
        let cfg = SystemConfig::new(n, t).unwrap();
        let bound = RoundSchedule::new(&cfg, 0).unwrap().round_bound();
        let bisources: Vec<usize> = if quick { vec![1] } else { (0..n).collect() };
        for ell in bisources {
            for plan in [
                FaultPlan::AllCorrect,
                FaultPlan::MuteCoordinator {
                    slots: vec![(ell + 1) % n],
                },
            ] {
                let rounds: Vec<u64> = seeds(quick)
                    .into_iter()
                    .map(|seed| {
                        run_cell(n, t, ell, plan.clone(), seed)
                            .commit_round()
                            .expect("decided runs have a commit")
                    })
                    .collect();
                let max = rounds.iter().copied().max().unwrap_or(0);
                let avg = rounds.iter().sum::<u64>() as f64 / rounds.len() as f64;
                table.push_row([
                    n.to_string(),
                    t.to_string(),
                    format!("p{}", ell + 1),
                    plan.name().to_string(),
                    max.to_string(),
                    format!("{avg:.1}"),
                    bound.to_string(),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_rounds_stay_within_bound() {
        let table = run(true);
        for row in table.rows() {
            let measured: u64 = row[4].parse().unwrap();
            let bound: u128 = row[6].parse().unwrap();
            assert!(
                u128::from(measured) <= bound,
                "§5.4 bound violated in row {row:?}"
            );
        }
    }
}
