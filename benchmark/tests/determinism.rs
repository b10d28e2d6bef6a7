//! The seed is the only source of variation in the simulator workloads, and
//! only the workload with random delays depends on it: every count a run
//! produces repeats exactly on the same seed, and moves with the seed on
//! `sim_n7_bisource_silent` alone (closed-loop populations and all-timely
//! networks draw nothing from it).

use minsync_benchmark::spec::{workload, Substrate, WORKLOADS};
use minsync_benchmark::substrate::{check_logs, run_sim};

/// Every count-type observation of one run, by name.
fn counts(name: &str, slots: usize, seed: u64) -> Vec<(String, u64)> {
    let w = workload(name).unwrap().with_slots(slots);
    let run = run_sim(&w, seed, None);
    assert!(check_logs(name, &run.logs, run.total).is_empty());
    let m = &run.metrics;
    let mut out = vec![
        ("messages_sent".to_string(), m.messages_sent),
        ("messages_delivered".to_string(), m.messages_delivered),
        ("timers_fired".to_string(), m.timers_fired),
        ("events_processed".to_string(), m.events_processed),
        ("max_queue_len".to_string(), m.max_queue_len as u64),
        ("last_commit_tick".to_string(), run.last_commit_tick),
        ("latency_p50_vticks".to_string(), run.vlatency.p50),
        ("latency_p95_vticks".to_string(), run.vlatency.p95),
        ("latency_p99_vticks".to_string(), run.vlatency.p99),
        ("log_digest".to_string(), run.logs[0].digest),
        ("log_slots".to_string(), run.logs[0].slots),
    ];
    out.extend(m.kind_counts().into_iter().map(|(k, c)| (k.to_string(), c)));
    out
}

#[test]
fn counts_repeat_on_a_seed_and_move_only_where_delays_are_random() {
    for w in WORKLOADS.iter().filter(|w| w.substrate == Substrate::Sim) {
        let slots = if w.n > 10 { 3 } else { 60 };
        let first = counts(w.name, slots, 11);
        assert_eq!(first, counts(w.name, slots, 11), "{}: same seed", w.name);
        let other = counts(w.name, slots, 12);
        if w.name == "sim_n7_bisource_silent" {
            assert_ne!(first, other, "{}: the seed draws the delays", w.name);
        } else {
            assert_eq!(first, other, "{}: nothing is drawn from the seed", w.name);
        }
    }
}
