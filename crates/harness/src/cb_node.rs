//! A standalone cooperative-broadcast node for experiment E1 (Figure 1 in
//! isolation).

use minsync_broadcast::{Carrier, RbEngine, RbEvent, RbMsg, RbStep, Tag};
use minsync_net::{Env, Node};
use minsync_types::{ProcessId, SystemConfig, Value};

/// The tag of E1's one CB instance (Figure 1's `CB_VAL`). Its engine's
/// rule set is the carrier itself: [`Carrier::Counted`] is Figure 1,
/// [`Carrier::Relay`] the relay rule (DESIGN.md §9).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CbVal;

impl Tag for CbVal {
    type Rules = Carrier;

    fn carrier(&self, carrier: Carrier) -> Carrier {
        carrier
    }
}

/// Telemetry of the standalone CB node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CbEvent<V> {
    /// A value entered `cb_valid` (Figure 1 line 4).
    ValidAdded {
        /// The value.
        value: V,
    },
    /// The `CB_broadcast` operation returned (Figure 1 line 3).
    Returned {
        /// The returned value.
        value: V,
    },
}

/// Runs one `CB_broadcast(value)` invocation over the network: RB-broadcast
/// the value (or send it under the relay rule), collect `cb_valid`, return once non-empty — emitting events
/// the E1 experiment aggregates into set-agreement and latency measures.
#[derive(Debug)]
pub struct CbBroadcastNode<V> {
    cfg: SystemConfig,
    carrier: Carrier,
    proposal: V,
    rb: Option<RbEngine<CbVal, V>>,
    returned: bool,
}

type Ctx<V> = Env<RbMsg<CbVal, V>, CbEvent<V>>;

impl<V: Value> CbBroadcastNode<V> {
    /// Creates the node with its value to cb-broadcast by `carrier`.
    pub fn new(cfg: SystemConfig, carrier: Carrier, proposal: V) -> Self {
        CbBroadcastNode {
            cfg,
            carrier,
            proposal,
            rb: None,
            returned: false,
        }
    }

    fn apply(&mut self, step: RbStep<CbVal, V>, env: &mut Ctx<V>) {
        if let Some(m) = step.broadcast {
            env.broadcast(m);
        }
        if let Some(RbEvent::CbValid { value, .. }) = step.event {
            env.output(CbEvent::ValidAdded {
                value: value.clone(),
            });
            // Line 3 returns the first value that became valid.
            if !self.returned {
                self.returned = true;
                env.output(CbEvent::Returned { value });
            }
        }
    }
}

impl<V: Value> Node for CbBroadcastNode<V> {
    type Msg = RbMsg<CbVal, V>;
    type Output = CbEvent<V>;

    fn on_start(&mut self, env: &mut Ctx<V>) {
        let rb = self
            .rb
            .insert(RbEngine::new(self.cfg, env.me(), self.carrier));
        if let Some(first) = rb.broadcast(CbVal, self.proposal.clone()) {
            env.broadcast(first);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: RbMsg<CbVal, V>, env: &mut Ctx<V>) {
        if let Some(rb) = self.rb.as_mut() {
            let step = rb.on_message(from, msg);
            self.apply(step, env);
        }
    }

    fn label(&self) -> &'static str {
        "cb-broadcast"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_net::sim::SimBuilder;
    use minsync_net::NetworkTopology;

    #[test]
    fn feasible_instance_returns_everywhere() {
        // n = 4, t = 1, m = 2 (feasible): values 0/1 alternating.
        let cfg = SystemConfig::new(4, 1).unwrap();
        let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 2)).seed(1);
        for i in 0..4 {
            builder = builder.node(CbBroadcastNode::new(cfg, Carrier::Counted, (i % 2) as u64));
        }
        let mut sim = builder.build();
        let report = sim.run();
        let returns = report
            .outputs
            .iter()
            .filter(|o| matches!(o.event, CbEvent::Returned { .. }))
            .count();
        assert_eq!(returns, 4, "CB-Operation Termination");
    }

    #[test]
    fn infeasible_instance_blocks() {
        // n = 4, t = 1, all four values distinct (m = 4 > m_max = 2): no
        // value reaches t+1 proposers — nobody may return.
        let cfg = SystemConfig::new(4, 1).unwrap();
        let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 2)).seed(1);
        for i in 0..4u64 {
            builder = builder.node(CbBroadcastNode::new(cfg, Carrier::Counted, i * 10));
        }
        let mut sim = builder.build();
        let report = sim.run();
        assert!(
            !report
                .outputs
                .iter()
                .any(|o| matches!(o.event, CbEvent::Returned { .. })),
            "infeasible m must block CB (the feasibility boundary)"
        );
    }
}
