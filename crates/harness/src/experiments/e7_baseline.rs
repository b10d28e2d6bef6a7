//! E7 — the paper's positioning against randomized consensus (footnote 1):
//! the minimal-synchrony algorithm vs Ben-Or's local-coin binary consensus
//! on identical substrates.
//!
//! Both run binary split proposals with `t` silent fault slots over an
//! asynchronous network; the paper's algorithm additionally gets its
//! ⟨t+1⟩bisource (its entire point). Shape to reproduce: the deterministic
//! algorithm decides in a handful of rounds with messages `O(n²)`-ish per
//! round, while Ben-Or's expected round count grows with `n` (independent
//! local coins must align).

use minsync_baselines::{BenOrEvent, BenOrMsg, BenOrNode};
use minsync_net::sim::SimBuilder;
use minsync_net::{ChannelTiming, DelayLaw, NetworkTopology, Node};
use minsync_types::SystemConfig;

use super::{seeds, systems};
use crate::faults::FaultPlan;
use crate::runner::ConsensusRunBuilder;
use crate::Table;

/// Runs E7.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E7 — Minimal-synchrony consensus vs Ben-Or (randomized baseline)",
        [
            "algorithm",
            "n",
            "t",
            "avg_rounds",
            "avg_messages",
            "avg_latency",
        ],
    );
    for (n, t) in systems(quick) {
        // Paper's algorithm.
        let mut rounds = Vec::new();
        let mut msgs = Vec::new();
        let mut lat = Vec::new();
        for seed in seeds(quick) {
            let o = ConsensusRunBuilder::new(n, t)
                .unwrap()
                .proposals((0..n).map(|i| (i % 2) as u64))
                .faults(FaultPlan::silent(t))
                .seed(seed)
                .run()
                .unwrap();
            assert!(o.all_decided());
            rounds.push(o.rounds_to_decide());
            msgs.push(o.total_messages());
            lat.push(o.decision_latency().unwrap_or(0));
        }
        table.push_row([
            "minsync".to_string(),
            n.to_string(),
            t.to_string(),
            format!("{:.1}", avg(&rounds)),
            format!("{:.0}", avg(&msgs)),
            format!("{:.0}", avg(&lat)),
        ]);

        // Ben-Or.
        let mut rounds = Vec::new();
        let mut msgs = Vec::new();
        let mut lat = Vec::new();
        for seed in seeds(quick) {
            let (r, m, l) = run_ben_or(n, t, seed);
            rounds.push(r);
            msgs.push(m);
            lat.push(l);
        }
        table.push_row([
            "ben-or".to_string(),
            n.to_string(),
            t.to_string(),
            format!("{:.1}", avg(&rounds)),
            format!("{:.0}", avg(&msgs)),
            format!("{:.0}", avg(&lat)),
        ]);
    }
    table
}

fn avg(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

/// Runs Ben-Or with `t` silent slots; returns (max decision round over
/// correct, total messages, latency).
pub fn run_ben_or(n: usize, t: usize, seed: u64) -> (u64, u64, u64) {
    let cfg = SystemConfig::new(n, t).unwrap();
    let topo = NetworkTopology::uniform(
        n,
        ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 10 }),
    );
    let mut builder = SimBuilder::new(topo)
        .seed(seed)
        .max_events(20_000_000)
        .classify(BenOrMsg::kind);
    for i in 0..n {
        let node: Box<dyn Node<Msg = BenOrMsg, Output = BenOrEvent>> = if i < n - t {
            Box::new(BenOrNode::new(cfg, (i % 2) as u8, 100_000))
        } else {
            Box::new(minsync_adversary::SilentNode::<BenOrMsg, BenOrEvent>::new())
        };
        builder = builder.boxed_node(node);
    }
    let mut sim = builder.build();
    let need = n - t;
    let report = sim.run_until(move |outs| {
        outs.iter()
            .filter(|o| matches!(o.event, BenOrEvent::Decided { .. }))
            .count()
            == need
    });
    let mut max_round = 0;
    let mut latency = 0;
    for rec in &report.outputs {
        if let BenOrEvent::Decided { round, .. } = rec.event {
            max_round = max_round.max(round);
            latency = latency.max(rec.time.ticks());
        }
    }
    (max_round, report.metrics.messages_sent, latency)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_algorithms_have_rows() {
        let table = run(true);
        let algos: Vec<&str> = table.rows().iter().map(|r| r[0].as_str()).collect();
        assert!(algos.contains(&"minsync"));
        assert!(algos.contains(&"ben-or"));
    }

    #[test]
    fn ben_or_decides_and_agrees() {
        let (rounds, msgs, _) = run_ben_or(4, 1, 3);
        assert!(rounds >= 1);
        assert!(msgs > 0);
    }
}
