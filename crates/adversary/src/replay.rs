use core::fmt::Debug;
use core::marker::PhantomData;
use std::collections::VecDeque;

use minsync_net::{Env, Node};
use minsync_types::ProcessId;

/// A Byzantine process that records every message it receives and replays
/// them later — to the original pattern's victims or to fresh ones.
///
/// Replay attacks every first-message-only rule of §2.1 at once: the RB
/// engine's per-sender dedup, the EA object's per-sender prop2/relay
/// dedup, and the decide counting. Because the network stamps the *true*
/// sender, a replayed copy arrives as a duplicate from this process — the
/// protocols must treat it as noise.
pub struct ReplayNode<M, O> {
    /// Recorded messages pending replay.
    buffer: VecDeque<M>,
    /// Replay each recorded message after this many further receipts.
    lag: usize,
    since_last: usize,
    max_buffer: usize,
    _output: PhantomData<fn() -> O>,
}

impl<M, O> ReplayNode<M, O> {
    /// Creates a replayer that re-sends each recorded message after `lag`
    /// further receipts (buffer capped at 4096 messages).
    pub fn new(lag: usize) -> Self {
        ReplayNode {
            buffer: VecDeque::new(),
            lag: lag.max(1),
            since_last: 0,
            max_buffer: 4096,
            _output: PhantomData,
        }
    }
}

impl<M, O> Debug for ReplayNode<M, O> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ReplayNode")
            .field("buffered", &self.buffer.len())
            .field("lag", &self.lag)
            .finish()
    }
}

impl<M, O> Node for ReplayNode<M, O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    type Msg = M;
    type Output = O;

    fn on_message(&mut self, from: ProcessId, msg: M, env: &mut Env<M, O>) {
        if from == env.me() {
            return; // own replays loop back; don't re-record them
        }
        if self.buffer.len() < self.max_buffer {
            self.buffer.push_back(msg);
        }
        self.since_last += 1;
        if self.since_last >= self.lag {
            self.since_last = 0;
            if let Some(replay) = self.buffer.pop_front() {
                // Replay to a pseudo-random victim (never itself).
                let mut target = ProcessId::new((env.random() as usize) % env.n());
                if target == env.me() {
                    target = ProcessId::new((target.index() + 1) % env.n());
                }
                env.send(target, replay);
            }
        }
    }

    fn label(&self) -> &'static str {
        "byz-replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_net::sim::SimBuilder;
    use minsync_net::NetworkTopology;

    #[derive(Debug)]
    struct Talker;
    impl Node for Talker {
        type Msg = u32;
        type Output = u32;
        fn on_start(&mut self, env: &mut Env<u32, u32>) {
            env.broadcast(7);
        }
        fn on_message(&mut self, _f: ProcessId, m: u32, env: &mut Env<u32, u32>) {
            env.output(m);
        }
    }

    #[test]
    fn replayer_resends_observed_messages() {
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(3, 1))
            .seed(3)
            .node(Talker)
            .node(Talker)
            .node(ReplayNode::<u32, u32>::new(1))
            .max_events(10_000)
            .build();
        let report = sim.run();
        // The replayer received 2 broadcasts and replayed each once.
        assert!(report.metrics.sent_by_process(ProcessId::new(2)) >= 1);
        assert!(report.metrics.sent_by_process(ProcessId::new(2)) <= 4);
    }

    #[test]
    fn replayer_never_explodes() {
        // Replay lag 1 with chatty peers must not loop unboundedly: the
        // replayer ignores its own loop-backs and pops one per receipt.
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(2, 1))
            .seed(5)
            .node(Talker)
            .node(ReplayNode::<u32, u32>::new(1))
            .max_events(10_000)
            .build();
        let report = sim.run();
        assert!(
            report.metrics.events_processed < 10_000,
            "replayer must quiesce, got {} events",
            report.metrics.events_processed
        );
    }
}
