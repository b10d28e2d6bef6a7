//! The benchmark's stop predicates must not make a run quadratic in its
//! length: `CommitCursor` looks at each output once, where rescanning the
//! output slice on every call (`minsync_workload::committed_commands`) turns
//! a 15 000-slot simulator run into mostly predicate time.

use minsync_benchmark::spec::workload;
use minsync_benchmark::substrate::run_sim;

fn best_wall_s(slots: usize) -> f64 {
    let w = workload("sim_n4_timely").unwrap().with_slots(slots);
    (0..3)
        .map(|_| run_sim(&w, 1, None).wall_s)
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn doubling_the_slots_of_sim_n4_timely_costs_at_most_2_3x_wall() {
    let (short, long) = (best_wall_s(2000), best_wall_s(4000));
    assert!(
        long <= 2.3 * short,
        "2000 slots took {short:.3} s, 4000 slots {long:.3} s: {:.2}x",
        long / short
    );
}
