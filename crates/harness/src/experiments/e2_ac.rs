//! E2 — Figure 2 / Theorem 2: the Byzantine adopt-commit object.
//!
//! Scenarios: unanimous proposals (AC-Obligation demands all-commit),
//! split proposals (mixed commit/adopt allowed, quasi-agreement must
//! hold), and `t` silent Byzantine slots (termination of the `n − t`
//! waits). Measured: outcome mix, quasi-agreement, latency, messages.

use minsync_adversary::SilentNode;
use minsync_core::{AcNode, AcNodeEvent, AcTag, ProtocolMsg};
use minsync_net::sim::SimBuilder;
use minsync_net::{NetworkTopology, Node};
use minsync_types::{check, ProcessId, SystemConfig};

use super::{seeds, systems};
use crate::Table;

type Msg = ProtocolMsg<u64>;
type Out = AcNodeEvent<u64>;

/// Runs E2.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E2 — Adopt-commit (Figure 2): outcomes and quasi-agreement",
        [
            "n",
            "t",
            "scenario",
            "commits",
            "adopts",
            "quasi_agreement",
            "obligation_ok",
            "time",
            "messages",
        ],
    );
    for (n, t) in systems(quick) {
        let cfg = SystemConfig::new(n, t).unwrap();
        for scenario in ["unanimous", "split", "silent-byz"] {
            for seed in seeds(quick) {
                let r = run_one(cfg, scenario, seed);
                table.push_row([
                    n.to_string(),
                    t.to_string(),
                    scenario.to_string(),
                    r.commits.to_string(),
                    r.adopts.to_string(),
                    r.quasi_agreement.to_string(),
                    r.obligation_ok.to_string(),
                    r.time.to_string(),
                    r.messages.to_string(),
                ]);
            }
        }
    }
    table
}

struct OneRun {
    commits: usize,
    adopts: usize,
    quasi_agreement: bool,
    obligation_ok: bool,
    time: u64,
    messages: u64,
}

fn run_one(cfg: SystemConfig, scenario: &str, seed: u64) -> OneRun {
    let n = cfg.n();
    let t = cfg.t();
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(n, 3)).seed(seed);
    let mut correct: Vec<usize> = Vec::new();
    for i in 0..n {
        let node: Box<dyn Node<Msg = Msg, Output = Out>> = match scenario {
            "unanimous" => {
                correct.push(i);
                Box::new(AcNode::new(cfg, 7u64))
            }
            "split" => {
                correct.push(i);
                Box::new(AcNode::new(cfg, (i % 2) as u64))
            }
            "silent-byz" if i >= n - t => Box::new(SilentNode::<Msg, Out>::new()),
            _ => {
                correct.push(i);
                Box::new(AcNode::new(cfg, (i % 2) as u64))
            }
        };
        builder = builder.boxed_node(node);
    }
    let mut sim = builder.build();
    let need = correct.len();
    let report = sim.run_until(move |outs| outs.len() == need);

    let outcomes: Vec<(ProcessId, bool, u64)> = report
        .outputs
        .iter()
        .map(|o| match o.event {
            AcNodeEvent::Returned { tag, value } => (o.process, tag == AcTag::Commit, value),
        })
        .collect();
    let commits = outcomes.iter().filter(|(_, commit, _)| *commit).count();
    let adopts = outcomes.len() - commits;
    let quasi_agreement = check::quasi_agreement(outcomes.iter().copied()).is_empty();
    // AC-Obligation: unanimous input ⇒ everyone commits that value.
    let obligation_ok = if scenario == "unanimous" {
        commits == outcomes.len() && outcomes.iter().all(|(_, _, v)| *v == 7)
    } else {
        true
    };
    OneRun {
        commits,
        adopts,
        quasi_agreement,
        obligation_ok,
        time: report.final_time.ticks(),
        messages: report.metrics.messages_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unanimous_commits_everywhere() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let r = run_one(cfg, "unanimous", 1);
        assert_eq!(r.commits, 4);
        assert!(r.quasi_agreement);
        assert!(r.obligation_ok);
    }

    #[test]
    fn split_preserves_quasi_agreement() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        for seed in 0..5 {
            let r = run_one(cfg, "split", seed);
            assert!(r.quasi_agreement, "seed {seed}");
            assert_eq!(r.commits + r.adopts, 4);
        }
    }

    #[test]
    fn silent_byzantine_does_not_block() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let r = run_one(cfg, "silent-byz", 2);
        assert_eq!(r.commits + r.adopts, 3, "all correct processes return");
        assert!(r.quasi_agreement);
    }
}
