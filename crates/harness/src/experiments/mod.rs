//! The experiment suite E1–E11 plus E13–E17 (see `EXPERIMENTS.md` for
//! the paper-vs-measured record).
//!
//! Every experiment is a pure function `run(quick) -> Table`; `quick = true`
//! shrinks sweeps and seed counts so the whole suite stays test-suite-fast,
//! `quick = false` is the full configuration used to regenerate
//! `EXPERIMENTS.md` (via the `experiments` binary).

pub mod e10_smr;
pub mod e11_transport;
pub mod e13_churn;
pub mod e14_conformance;
pub mod e15_auth;
pub mod e16_telemetry;
pub mod e17_health;
pub mod e1_cb;
pub mod e2_ac;
pub mod e3_ea;
pub mod e4_consensus;
pub mod e5_rounds;
pub mod e6_k_sweep;
pub mod e7_baseline;
pub mod e8_timeouts;
pub mod e9_message_complexity;
pub mod ea_lab;

use crate::Table;

/// Runs every experiment, returning the tables in order.
pub fn run_all(quick: bool) -> Vec<Table> {
    vec![
        e1_cb::run(quick),
        e2_ac::run(quick),
        e3_ea::run(quick),
        e4_consensus::run(quick),
        e5_rounds::run(quick),
        e6_k_sweep::run(quick),
        e7_baseline::run(quick),
        e8_timeouts::run(quick),
        e9_message_complexity::run(quick),
        e10_smr::run(quick),
        e11_transport::run(quick),
        e13_churn::run(quick),
        e14_conformance::run(quick),
        e15_auth::run(quick),
        e16_telemetry::run(quick),
        e17_health::run(quick),
    ]
}

/// Seeds used per configuration.
pub(crate) fn seeds(quick: bool) -> Vec<u64> {
    if quick {
        vec![1]
    } else {
        vec![1, 2, 3, 4, 5]
    }
}

/// Standard (n, t) sweep.
pub(crate) fn systems(quick: bool) -> Vec<(usize, usize)> {
    if quick {
        vec![(4, 1)]
    } else {
        vec![(4, 1), (7, 2), (10, 3)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_produces_all_tables() {
        let tables = run_all(true);
        assert_eq!(tables.len(), 16);
        for t in &tables {
            assert!(!t.rows().is_empty(), "{} produced no rows", t.title());
        }
    }
}
