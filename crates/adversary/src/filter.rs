use core::fmt::Debug;

use minsync_net::{Effect, Env, Node, TimerId};
use minsync_types::ProcessId;

/// Boxed per-destination message mutator.
type Mutator<M> = Box<dyn FnMut(ProcessId, &M) -> Option<M> + Send>;

/// Per-destination rewrite of an honest automaton's *effect stream*.
///
/// `FilterNode` runs the wrapped node normally, then intercepts everything
/// it queued since the handler began ([`Env::mark`] / [`Env::take_since`])
/// and rewrites it: each [`Effect::Send`] goes through a mutator closure
/// `fn(to, msg) -> Option<msg>` (returning `None` drops the copy, returning
/// a modified message equivocates), and each [`Effect::Broadcast`] is first
/// split into `n` per-destination sends so every copy can be dropped or
/// forged independently — a Byzantine "broadcast" is exactly that. Timer
/// effects pass through untouched; incoming messages and state are
/// unmodified — the node *believes* it is honest, which is exactly how
/// subtle Byzantine behavior looks.
///
/// Outputs of the wrapped node are always suppressed: a Byzantine
/// process's "decisions" must not pollute experiment reports.
///
/// Ready-made mutators live in [`crate::mutators`].
pub struct FilterNode<N: Node> {
    inner: N,
    mutator: Mutator<N::Msg>,
}

impl<N: Node> FilterNode<N> {
    /// Wraps `inner` with `mutator`.
    pub fn new(
        inner: N,
        mutator: impl FnMut(ProcessId, &N::Msg) -> Option<N::Msg> + Send + 'static,
    ) -> Self {
        FilterNode {
            inner,
            mutator: Box::new(mutator),
        }
    }

    /// Rewrites every effect the inner handler queued since `mark`.
    fn rewrite(&mut self, env: &mut Env<N::Msg, N::Output>, mark: usize) {
        let n = env.n();
        for effect in env.take_since(mark) {
            match effect {
                Effect::Send { to, msg } => {
                    if let Some(m) = (self.mutator)(to, &msg) {
                        env.send(to, m);
                    }
                }
                Effect::Broadcast { msg } => {
                    // Split the fan-out: each copy is independently
                    // droppable/forgeable per destination.
                    for i in 0..n {
                        let to = ProcessId::new(i);
                        if let Some(m) = (self.mutator)(to, &msg) {
                            env.send(to, m);
                        }
                    }
                }
                Effect::Output(_) => {}
                other => env.push(other),
            }
        }
    }
}

impl<N: Node + Debug> Debug for FilterNode<N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FilterNode")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<N: Node> Node for FilterNode<N> {
    type Msg = N::Msg;
    type Output = N::Output;

    fn on_start(&mut self, env: &mut Env<N::Msg, N::Output>) {
        let mark = env.mark();
        self.inner.on_start(env);
        self.rewrite(env, mark);
    }

    fn on_message(&mut self, from: ProcessId, msg: N::Msg, env: &mut Env<N::Msg, N::Output>) {
        let mark = env.mark();
        self.inner.on_message(from, msg, env);
        self.rewrite(env, mark);
    }

    fn on_timer(&mut self, timer: TimerId, env: &mut Env<N::Msg, N::Output>) {
        let mark = env.mark();
        self.inner.on_timer(timer, env);
        self.rewrite(env, mark);
    }

    fn label(&self) -> &'static str {
        "byz-filter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minsync_net::sim::SimBuilder;
    use minsync_net::NetworkTopology;

    #[derive(Debug)]
    struct Broadcaster;

    impl Node for Broadcaster {
        type Msg = u32;
        type Output = u32;

        fn on_start(&mut self, env: &mut Env<u32, u32>) {
            env.broadcast(7);
        }

        fn on_message(&mut self, _from: ProcessId, msg: u32, env: &mut Env<u32, u32>) {
            env.output(msg);
        }
    }

    #[test]
    fn mutator_equivocates_per_destination() {
        // p1 broadcasts 7 but the filter turns even destinations' copies
        // into 100 + index.
        let byz = FilterNode::new(Broadcaster, |to: ProcessId, msg: &u32| {
            if to.index().is_multiple_of(2) {
                Some(100 + to.index() as u32)
            } else {
                Some(*msg)
            }
        });
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(3, 1))
            .node(byz)
            .node(Broadcaster)
            .node(Broadcaster)
            .build();
        let report = sim.run();
        let p2_got: Vec<u32> = report
            .outputs_of(ProcessId::new(1))
            .map(|o| o.event)
            .collect();
        let p3_got: Vec<u32> = report
            .outputs_of(ProcessId::new(2))
            .map(|o| o.event)
            .collect();
        assert!(p2_got.contains(&7), "odd destination saw the true value");
        assert!(
            p3_got.contains(&102),
            "even destination saw the forged value"
        );
    }

    #[test]
    fn mutator_can_drop_messages() {
        let byz = FilterNode::new(Broadcaster, |_to: ProcessId, _msg: &u32| None);
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(2, 1))
            .node(byz)
            .node(Broadcaster)
            .build();
        let report = sim.run();
        assert_eq!(report.metrics.sent_by_process(ProcessId::new(0)), 0);
    }

    #[test]
    fn outputs_suppressed_unless_kept() {
        let byz = FilterNode::new(Broadcaster, |_t: ProcessId, m: &u32| Some(*m));
        let mut sim = SimBuilder::new(NetworkTopology::all_timely(2, 1))
            .node(byz)
            .node(Broadcaster)
            .build();
        let report = sim.run();
        assert_eq!(report.outputs_of(ProcessId::new(0)).count(), 0);
        assert!(
            report.outputs_of(ProcessId::new(1)).count() > 0,
            "the same automaton outputs when it is not wrapped"
        );
    }

    /// The rewrite only touches effects queued by the wrapped node — a
    /// stream prefix queued by an enclosing adapter is left alone.
    #[test]
    fn rewrite_respects_the_mark() {
        let mut env: Env<u32, u32> = Env::new(2, 0);
        env.send(ProcessId::new(0), 99); // queued "before" the handler
        let mut byz = FilterNode::new(Broadcaster, |_t: ProcessId, _m: &u32| None);
        byz.on_start(&mut env);
        let effects: Vec<_> = env.drain().collect();
        // The prefix survived; the broadcast was dropped entirely.
        assert_eq!(
            effects,
            [Effect::Send {
                to: ProcessId::new(0),
                msg: 99
            }]
        );
    }
}
