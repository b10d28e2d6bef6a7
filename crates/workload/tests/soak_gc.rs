//! Soak test: a long batched run (≥ 10k committed commands) where
//! retired-slot GC must keep live replica state bounded — the retirement
//! floor tracks the commit frontier within a small window for the whole
//! run, so instances, ack sets, and log values are dropped as fast as they
//! are created.

use minsync_core::ConsensusConfig;
use minsync_net::sim::SimBuilder;
use minsync_net::NetworkTopology;
use minsync_smr::{commits, ReplicaNode, SmrEvent, SmrLimits};
use minsync_types::{check, ProcessId, SystemConfig};
use minsync_workload::{log_violations, ArrivalProcess, DrainCursor, WorkloadSpec};

#[test]
fn retired_slot_gc_keeps_live_state_bounded_over_10k_commands() {
    const BATCH: usize = 64;
    let system = SystemConfig::new(4, 1).unwrap();
    let pop = WorkloadSpec {
        groups: 2,
        clients_per_group: 4,
        commands_per_client: 1280, // 2 · 4 · 1280 = 10_240 commands
        arrivals: ArrivalProcess::Poisson { mean_gap: 0.25 },
        seed: 42,
    }
    .generate(&system)
    .unwrap();
    let total = pop.total_commands();
    assert!(total >= 10_000);

    let limits = SmrLimits {
        window: 16,
        future_horizon: 32,
        max_buffered: 4096,
        ckpt_retry: 0,
    };
    let cfg = ConsensusConfig::paper(system);
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 3))
        .seed(9)
        .max_events(200_000_000);
    for i in 0..4 {
        builder = builder.node(
            ReplicaNode::new(cfg, pop.source_for(i, BATCH), pop.slots_upper_bound(BATCH))
                .with_limits(limits),
        );
    }
    let mut sim = builder.build();
    // Run until every replica committed everything AND retired its whole
    // log (quiescence of the GC control plane included).
    let mut drained = DrainCursor::new(4, total);
    let report = sim.run_until(|outs| {
        drained.advance(outs, |o| (o.process, &o.event))
            && (0..4).all(|p| {
                let retired_to = outs
                    .iter()
                    .filter(|o| o.process.index() == p)
                    .filter_map(|o| match o.event {
                        SmrEvent::Retired { through } => Some(through),
                        _ => None,
                    })
                    .max()
                    .unwrap_or(0);
                let last_slot = outs
                    .iter()
                    .filter(|o| o.process.index() == p)
                    .filter_map(|o| o.event.as_committed().map(|(slot, _)| slot))
                    .max()
                    .unwrap_or(u64::MAX);
                retired_to >= last_slot
            })
    });

    // Throughout the run, the retirement floor trailed the commit frontier
    // by at most the flow-control window plus the in-flight slot: replay
    // the interleaved event stream per replica and track the spread.
    let mut committed = [0u64; 4];
    let mut retired = [0u64; 4];
    let mut max_spread = 0u64;
    for rec in &report.outputs {
        let p = rec.process.index();
        match rec.event {
            SmrEvent::Committed { slot, .. } => committed[p] = slot,
            SmrEvent::Retired { through } => retired[p] = through,
        }
        max_spread = max_spread.max(committed[p] - retired[p]);
    }
    assert!(
        max_spread <= limits.window + 2,
        "live slot window exceeded the flow-control bound: {max_spread}"
    );

    // And the run ends fully garbage-collected at every replica.
    for p in 0..4 {
        assert_eq!(
            committed[p], retired[p],
            "replica {p} ended with unretired slots"
        );
        assert!(committed[p] >= (total / BATCH) as u64);
    }

    // All four logs identical: the full command space exactly once, in
    // per-client order, on logs that end at the same slot.
    let mut found = log_violations(commits(&report.outputs), 4, total);
    found.extend(check::agreement(
        ProcessId::all(4).map(|p| (p, committed[p.index()])),
    ));
    assert!(found.is_empty(), "soak logs diverged: {found:?}");
}
