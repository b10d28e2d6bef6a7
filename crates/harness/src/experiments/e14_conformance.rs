//! E14 — conformance: schedule exploration plus the mutation smoke.
//!
//! Two claims are on trial. First, the **negative** claim behind every
//! earlier experiment: no explored message schedule — reorderings, targeted
//! delays, drops within the `t`-faults budget — makes any of the five
//! protocol stacks violate agreement, validity, or (drop-free, quiescent
//! runs only) termination. The explorer enumerates schedules three ways
//! (empty, bounded DFS, seeded random walks) through the simulator's
//! schedule-oracle seam and checks every run.
//!
//! Second, the **positive control**: a harness that never fires proves
//! nothing, so E14 also runs the same machinery against a deliberately
//! broken stack ([`SeededMutation::AcQuorumOffByOne`] shrinks the
//! adopt-commit witness quorum by one) and demands the agreement check
//! trips, the violating schedule shrinks, and the unmutated stack survives
//! the identical schedule.
//!
//! [`SeededMutation::AcQuorumOffByOne`]: minsync_core::SeededMutation::AcQuorumOffByOne

use minsync_conformance::{explore, mutation_smoke, run_protocol, ExplorerConfig, Protocol};
use minsync_types::ProcessId;

use crate::Table;

/// Event budget per explored schedule.
fn budget(quick: bool) -> u64 {
    if quick {
        20_000
    } else {
        60_000
    }
}

/// Runs E14 and renders the table.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E14 — conformance: schedule exploration + mutation smoke",
        ["case", "n", "schedules", "violations", "result"],
    );

    let ns: &[usize] = if quick { &[4] } else { &[4, 7] };
    for &n in ns {
        let mut cfg = if quick {
            ExplorerConfig::quick()
        } else {
            ExplorerConfig::full()
        };
        // One designated faulty process: `Drop` commands stay inside the
        // t-faults budget (t ≥ 1 for every explored n).
        cfg.droppable = vec![ProcessId::new(0)];
        for protocol in Protocol::ALL {
            let report = explore(
                |schedule| run_protocol(protocol, n, schedule, budget(quick), true),
                &cfg,
            );
            let result = if report.violations.is_empty() {
                "clean".to_string()
            } else {
                // A violation here is a real finding — surface the first.
                report.violations[0].violation.to_string()
            };
            table.push_row([
                protocol.name().to_string(),
                n.to_string(),
                report.schedules_explored.to_string(),
                report.violations.len().to_string(),
                result,
            ]);
        }
    }

    let smoke = mutation_smoke(budget(quick));
    let result = if smoke.caught && smoke.clean_without_mutation {
        format!(
            "caught ({}); shrunk {}→{} ({} active); clean unmutated",
            smoke.detail, smoke.consultations, smoke.shrunk_len, smoke.shrunk_active
        )
    } else {
        format!(
            "FAILED: caught={} clean={} ({})",
            smoke.caught, smoke.clean_without_mutation, smoke.detail
        )
    };
    table.push_row([
        "mutation-smoke (ac-quorum−1)".to_string(),
        "4".to_string(),
        // The smoke runs the recording pass, the violation check, the
        // shrink probes, and two clean-stack confirmations.
        "1".to_string(),
        if smoke.caught { "1" } else { "0" }.to_string(),
        result,
    ]);

    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_e14_is_clean_and_catches_the_mutation() {
        let table = run(true);
        // Five protocols at n = 4, plus the mutation row.
        assert_eq!(table.rows().len(), 6);
        for row in &table.rows()[..5] {
            assert_eq!(row[3], "0", "{}: unexpected violation: {}", row[0], row[4]);
        }
        let smoke = table.rows().last().unwrap();
        assert_eq!(smoke[3], "1", "mutation smoke must fire: {}", smoke[4]);
    }
}
