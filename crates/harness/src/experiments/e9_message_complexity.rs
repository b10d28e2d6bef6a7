//! E9 — message-complexity scaling of every primitive in the stack.
//!
//! The paper doesn't tabulate message costs, but its design leans on
//! RB-broadcast (Θ(n²) per instance) invoked Θ(n) times per round — this
//! table makes the constant factors concrete and checks the asymptotic
//! shape: per-primitive messages should scale ≈ n² for one RB instance and
//! ≈ n³ for the all-to-all layers (CB, AC, EA round, consensus round).
//!
//! Each CB-carrying row is measured twice: under the paper's Figure 1 (the
//! reproduction, `Rules::PAPER`) and with every CB wave by relay
//! (`Carrier::Relay`, the extension of DESIGN.md §9, which brings a CB wave
//! to ≈ n²). The relay column's adopt-commit and consensus rows run
//! `Rules::SLOT`, a log slot's rule set, so consensus round 1 also skips
//! EA there (DESIGN.md §10). The RB row has no CB wave, so it has no relay
//! column.

use minsync_broadcast::Carrier;
use minsync_core::Rules;
use minsync_net::sim::SimBuilder;
use minsync_net::NetworkTopology;
use minsync_types::SystemConfig;

use super::seeds;
use crate::faults::FaultPlan;
use crate::runner::ConsensusRunBuilder;
use crate::topology::TopologySpec;
use crate::Table;

/// Runs E9.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E9 — Message complexity by primitive (all-timely network, unanimous inputs)",
        [
            "n",
            "t",
            "primitive",
            "messages",
            "msgs_per_n2",
            "msgs_per_n3",
            "relay CB",
            "relay_per_n2",
        ],
    );
    let sizes: Vec<(usize, usize)> = if quick {
        vec![(4, 1), (7, 2)]
    } else {
        // Past n = 13, t = ⌊(n − 1)/3⌋ at the sizes the n³ fit needs.
        vec![
            (4, 1),
            (7, 2),
            (10, 3),
            (13, 4),
            (20, 6),
            (40, 13),
            (50, 16),
            (100, 33),
        ]
    };
    for (n, t) in sizes {
        let n2 = (n * n) as f64;
        let n3 = n2 * n as f64;
        let (paper, slot) = (Rules::PAPER, Rules::SLOT);
        for (name, messages, by_relay) in [
            ("1 RB instance", rb_messages(n, t), None),
            (
                "CB (all-to-all)",
                cb_messages(n, t, Carrier::Counted),
                Some(cb_messages(n, t, Carrier::Relay)),
            ),
            (
                "adopt-commit",
                ac_messages(n, t, paper),
                Some(ac_messages(n, t, slot)),
            ),
            (
                "consensus (to decision)",
                consensus_messages(n, t, paper),
                Some(consensus_messages(n, t, slot)),
            ),
        ] {
            let (relayed, per_n2) = match by_relay {
                Some(m) => (m.to_string(), format!("{:.2}", m as f64 / n2)),
                None => ("—".to_string(), "—".to_string()),
            };
            table.push_row([
                n.to_string(),
                t.to_string(),
                name.to_string(),
                messages.to_string(),
                format!("{:.2}", messages as f64 / n2),
                format!("{:.2}", messages as f64 / n3),
                relayed,
                per_n2,
            ]);
        }
    }
    table
}

/// Messages for one completed RB instance (all-correct, one origin).
fn rb_messages(n: usize, t: usize) -> u64 {
    use minsync_broadcast::{RbEngine, RbEvent, RbMsg};
    use minsync_net::{Env, Node};
    use minsync_types::ProcessId;

    #[derive(Debug)]
    struct RbNode {
        cfg: SystemConfig,
        engine: Option<RbEngine<(), u64>>,
    }
    impl Node for RbNode {
        type Msg = RbMsg<(), u64>;
        type Output = u8;
        fn on_start(&mut self, env: &mut Env<RbMsg<(), u64>, u8>) {
            let engine = self.engine.insert(RbEngine::new(self.cfg, env.me(), ()));
            if env.me() == ProcessId::new(0) {
                env.broadcast(engine.broadcast((), 5).expect("RB always sends INIT"));
            }
        }
        fn on_message(
            &mut self,
            from: ProcessId,
            msg: RbMsg<(), u64>,
            env: &mut Env<RbMsg<(), u64>, u8>,
        ) {
            if let Some(engine) = self.engine.as_mut() {
                let step = engine.on_message(from, msg);
                if let Some(m) = step.broadcast {
                    env.broadcast(m);
                }
                if let Some(RbEvent::RbDelivered { .. }) = step.event {
                    env.output(1);
                }
            }
        }
    }

    let cfg = SystemConfig::new(n, t).unwrap();
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(n, 2)).seed(1);
    for _ in 0..n {
        builder = builder.node(RbNode { cfg, engine: None });
    }
    let mut sim = builder.build();
    sim.run().metrics.messages_sent
}

fn cb_messages(n: usize, t: usize, carrier: Carrier) -> u64 {
    use crate::cb_node::CbBroadcastNode;
    let cfg = SystemConfig::new(n, t).unwrap();
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(n, 2)).seed(1);
    for _ in 0..n {
        builder = builder.node(CbBroadcastNode::new(cfg, carrier, 5u64));
    }
    let mut sim = builder.build();
    sim.run().metrics.messages_sent
}

fn ac_messages(n: usize, t: usize, rules: Rules) -> u64 {
    use minsync_core::AcNode;
    let cfg = SystemConfig::new(n, t).unwrap();
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(n, 2)).seed(1);
    for _ in 0..n {
        builder = builder.node(AcNode::new(cfg, rules, 5u64));
    }
    let mut sim = builder.build();
    let report = sim.run_until(|outs| outs.len() == n);
    report.metrics.messages_sent
}

/// Figure 4 under `rules`, to every process's decision.
fn consensus_messages(n: usize, t: usize, rules: Rules) -> u64 {
    let outcome = ConsensusRunBuilder::new(n, t)
        .unwrap()
        .rules(rules)
        .proposals(std::iter::repeat(5u64).take(n))
        .topology(TopologySpec::AllTimely { delta: 2 })
        .faults(FaultPlan::AllCorrect)
        .seed(seeds(true)[0])
        .run()
        .unwrap();
    outcome.total_messages()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rb_scales_like_n_squared() {
        // One instance: INIT (n) + n ECHO broadcasts (n²) + n READY (n²).
        let m4 = rb_messages(4, 1) as f64;
        let m10 = rb_messages(10, 3) as f64;
        let ratio = (m10 / m4) / ((100.0) / (16.0));
        assert!(
            (0.5..2.0).contains(&ratio),
            "RB should scale ~n²: m4 = {m4}, m10 = {m10}, normalized ratio {ratio}"
        );
    }

    #[test]
    fn cb_scales_like_n_cubed() {
        let m4 = cb_messages(4, 1, Carrier::Counted) as f64;
        let m10 = cb_messages(10, 3, Carrier::Counted) as f64;
        let ratio = (m10 / m4) / (1000.0 / 64.0);
        assert!(
            (0.5..2.0).contains(&ratio),
            "CB should scale ~n³: m4 = {m4}, m10 = {m10}, normalized ratio {ratio}"
        );
    }

    /// Broadcast fan-out batching must not change message accounting: these
    /// are the exact per-primitive counts measured under the pre-batching
    /// substrate (one metrics increment per copy). If batching ever drifts
    /// the totals, this pins it.
    #[test]
    fn counts_identical_to_unbatched_substrate() {
        let (fig1, paper) = (Carrier::Counted, Rules::PAPER);
        assert_eq!(rb_messages(4, 1), 36);
        assert_eq!(cb_messages(4, 1, fig1), 144);
        assert_eq!(ac_messages(4, 1, paper), 288);
        assert_eq!(consensus_messages(4, 1, paper), 900);
        assert_eq!(rb_messages(7, 2), 105);
        assert_eq!(cb_messages(7, 2, fig1), 735);
        assert_eq!(ac_messages(7, 2, paper), 1470);
        assert_eq!(consensus_messages(7, 2, paper), 4515);
    }

    /// A relay-rule CB wave of one value is n² messages: each process sends
    /// its own `CB(v)` once and relays nothing it already sent.
    #[test]
    fn relay_cb_wave_is_n_squared() {
        for (n, t) in [(4, 1), (7, 2), (10, 3)] {
            assert_eq!(cb_messages(n, t, Carrier::Relay), (n * n) as u64);
        }
    }

    #[test]
    fn relay_counts_are_pinned() {
        let slot = Rules::SLOT;
        assert_eq!(ac_messages(4, 1, slot), RELAY_COUNTS[0]);
        assert_eq!(consensus_messages(4, 1, slot), RELAY_COUNTS[1]);
        assert_eq!(ac_messages(7, 2, slot), RELAY_COUNTS[2]);
        assert_eq!(consensus_messages(7, 2, slot), RELAY_COUNTS[3]);
    }

    /// Adopt-commit and consensus at n = 4 and n = 7 under `Rules::SLOT`,
    /// the relay column's counts.
    const RELAY_COUNTS: [u64; 4] = [160, 388, 784, 1_771];

    #[test]
    fn table_covers_all_primitives() {
        let t = run(true);
        let prims: std::collections::BTreeSet<&str> =
            t.rows().iter().map(|r| r[2].as_str()).collect();
        assert_eq!(prims.len(), 4);
        assert!(t.rows().iter().all(|r| r.len() == 8));
    }
}
