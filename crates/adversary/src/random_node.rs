use core::fmt::Debug;
use core::marker::PhantomData;

use minsync_broadcast::RbMsg;
use minsync_core::{CbId, ProtocolMsg, RbTag};
use minsync_net::{Env, Node};
use minsync_types::{ProcessId, Round, Value};

/// A protocol-aware fuzzer: on every received message it emits a burst of
/// syntactically valid, semantically hostile [`ProtocolMsg`] traffic —
/// random RB inits/echoes/readies with forged origins, relay-rule `CB(v)`
/// sprays, fake coordinator championships, `⊥` and non-`⊥` relays — drawn
/// from a value pool and a bounded round window around the traffic it
/// observes.
///
/// Safety test suites run the honest protocols against this node: no
/// interleaving of its output may break agreement, validity, or RB unicity.
/// (Note the network still stamps the *true* sender, so "forged origins"
/// inside `Echo`/`Ready` payloads are exactly what a real Byzantine process
/// could attempt.)
pub struct RandomProtocolNode<V, O> {
    pool: Vec<V>,
    burst: usize,
    round_window: u64,
    last_seen_round: u64,
    _output: PhantomData<fn() -> O>,
}

impl<V: Value, O> RandomProtocolNode<V, O> {
    /// Creates a fuzzer drawing values from `pool`, sending `burst` random
    /// messages per stimulus.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty.
    pub fn new(pool: Vec<V>, burst: usize) -> Self {
        assert!(!pool.is_empty(), "fuzzer needs a non-empty value pool");
        RandomProtocolNode {
            pool,
            burst,
            round_window: 3,
            last_seen_round: 1,
            _output: PhantomData,
        }
    }

    fn random_value(&self, roll: u64) -> V {
        self.pool[(roll as usize) % self.pool.len()].clone()
    }

    fn random_round(&self, roll: u64) -> Round {
        let lo = self.last_seen_round.saturating_sub(1).max(1);
        Round::new(lo + roll % self.round_window)
    }

    fn random_msg(&self, env: &mut Env<ProtocolMsg<V>, O>) -> ProtocolMsg<V> {
        let kind = env.random() % 9;
        let value = self.random_value(env.random());
        let round = self.random_round(env.random());
        let origin = ProcessId::new((env.random() as usize) % env.n());
        let tag = match env.random() % 4 {
            0 => RbTag::CbVal(CbId::ConsValid),
            1 => RbTag::CbVal(CbId::AcProp(round)),
            2 => RbTag::CbVal(CbId::EaProp(round)),
            _ => RbTag::AcEst(round),
        };
        match kind {
            0 => ProtocolMsg::Rb(RbMsg::Init { tag, value }),
            1 => ProtocolMsg::Rb(RbMsg::Echo { origin, tag, value }),
            2 => ProtocolMsg::Rb(RbMsg::Ready { origin, tag, value }),
            3 => ProtocolMsg::Rb(RbMsg::Ready {
                origin,
                tag: RbTag::Decide,
                value,
            }),
            4 => ProtocolMsg::EaProp2 { round, value },
            5 => ProtocolMsg::EaCoord { round, value },
            6 => ProtocolMsg::EaRelay {
                round,
                value: Some(value),
            },
            7 => ProtocolMsg::EaRelay { round, value: None },
            _ => ProtocolMsg::Rb(RbMsg::Relay { tag, value }),
        }
    }

    fn burst(&mut self, env: &mut Env<ProtocolMsg<V>, O>) {
        let me = env.me();
        for _ in 0..self.burst {
            let msg = self.random_msg(env);
            let mut target = ProcessId::new((env.random() as usize) % env.n());
            if target == me {
                // Spamming oneself only re-triggers this handler; aim at a
                // real victim instead.
                target = ProcessId::new((target.index() + 1) % env.n());
            }
            env.send(target, msg);
        }
    }
}

impl<V: Value, O> Debug for RandomProtocolNode<V, O> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RandomProtocolNode")
            .field("pool", &self.pool)
            .field("burst", &self.burst)
            .finish()
    }
}

impl<V: Value, O> Node for RandomProtocolNode<V, O>
where
    O: Clone + Debug + Send + 'static,
{
    type Msg = ProtocolMsg<V>;
    type Output = O;

    fn on_start(&mut self, env: &mut Env<ProtocolMsg<V>, O>) {
        self.burst(env);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: ProtocolMsg<V>,
        env: &mut Env<ProtocolMsg<V>, O>,
    ) {
        if from == env.me() {
            return; // never amplify own noise into an infinite loop
        }
        // Track the round frontier so the junk stays relevant.
        let seen = match &msg {
            ProtocolMsg::EaProp2 { round, .. }
            | ProtocolMsg::EaCoord { round, .. }
            | ProtocolMsg::EaRelay { round, .. } => Some(round.get()),
            ProtocolMsg::Rb(RbMsg::Init {
                tag: RbTag::AcEst(r),
                ..
            }) => Some(r.get()),
            _ => None,
        };
        if let Some(r) = seen {
            self.last_seen_round = self.last_seen_round.max(r);
        }
        self.burst(env);
    }

    fn label(&self) -> &'static str {
        "byz-fuzzer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_net::sim::SimBuilder;
    use minsync_net::NetworkTopology;

    #[derive(Debug)]
    struct Sink;
    impl Node for Sink {
        type Msg = ProtocolMsg<u64>;
        type Output = u8;
        fn on_message(
            &mut self,
            _: ProcessId,
            _: ProtocolMsg<u64>,
            _: &mut Env<ProtocolMsg<u64>, u8>,
        ) {
        }
    }

    #[test]
    fn fuzzer_emits_bounded_bursts() {
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(3, 1))
            .seed(5)
            .node(RandomProtocolNode::<u64, u8>::new(vec![1, 2, 3], 4))
            .node(Sink)
            .node(Sink)
            .max_events(1_000)
            .build();
        let report = sim.run();
        // Start burst only (sinks never reply): exactly 4 messages.
        assert_eq!(report.metrics.sent_by_process(ProcessId::new(0)), 4);
    }

    #[test]
    #[should_panic(expected = "non-empty value pool")]
    fn empty_pool_rejected() {
        let _ = RandomProtocolNode::<u64, u8>::new(vec![], 4);
    }
}
