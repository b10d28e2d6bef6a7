//! Pinned executions under the split-brain network adversary.
//!
//! E3, E5 and E8 measure the protocol against `SplitBrainOracle`, which
//! stretches delays only on channels the model leaves asynchronous at send
//! time. These constants are the executions' (round, tick, message) values;
//! any change to how the simulator applies the adversary's delays — in
//! particular letting it touch a channel that is already timely — moves
//! them. E8's δ = 400 cell is the sharpest probe: with τ = 0 every bisource
//! channel is timely from the start, so a stretch must leave it at δ.

use minsync_core::TimeoutPolicy;
use minsync_harness::experiments::e5_rounds::run_cell;
use minsync_harness::experiments::ea_lab::{converge, EaLabParams};
use minsync_harness::FaultPlan;

/// `(round, tick)` at which EA converges with the bisource at p2, seed 1.
fn ea_convergence(tau: u64, delta: u64, policy: TimeoutPolicy) -> (u64, u64) {
    let mut p = EaLabParams::new(4, 1);
    p.tau = tau;
    p.delta = delta;
    p.policy = policy;
    let c = converge(&p).expect("EA converges");
    (c.round, c.time)
}

#[test]
fn e3_convergence_is_pinned() {
    let paper = TimeoutPolicy::paper();
    assert_eq!(ea_convergence(0, 4, paper), (2, 1857));
    assert_eq!(ea_convergence(200, 4, paper), (2, 1881));
}

#[test]
fn e8_delta_400_convergence_is_pinned() {
    assert_eq!(
        ea_convergence(0, 400, TimeoutPolicy::linear(1, 0)),
        (7, 2794)
    );
    assert_eq!(
        ea_convergence(0, 400, TimeoutPolicy::linear(16, 0)),
        (15, 8149)
    );
}

#[test]
fn e5_quick_cells_are_pinned() {
    for (plan, expected) in [
        (FaultPlan::AllCorrect, (2, 1910, 1272)),
        (
            FaultPlan::MuteCoordinator { slots: vec![2] },
            (2, 1904, 1268),
        ),
    ] {
        let name = plan.name();
        let o = run_cell(4, 1, 1, plan, 1);
        let got = (
            o.commit_round().expect("decided"),
            o.decision_latency().expect("decided"),
            o.total_messages(),
        );
        assert_eq!(got, expected, "E5 cell {name}");
    }
}
