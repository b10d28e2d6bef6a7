//! Property tests of the discrete-event simulator: the paper's channel
//! semantics, determinism, and event ordering.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use minsync_net::sim::{EventQueue, SimBuilder};
use minsync_net::{ChannelTiming, DelayLaw, Env, NetworkTopology, Node, TimerId, VirtualTime};
use minsync_types::ProcessId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// Delivery-time law: for any channel and any send time, delivery respects
// the channel's contract.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn timely_channels_deliver_at_exactly_delta(
        sent in 0u64..1_000_000,
        delta in 0u64..10_000,
        seed in any::<u64>(),
    ) {
        let c = ChannelTiming::timely(delta);
        let mut rng = StdRng::seed_from_u64(seed);
        let d = c.delivery_time(VirtualTime::from_ticks(sent), &mut rng);
        prop_assert_eq!(d.ticks(), sent + delta);
    }

    #[test]
    fn eventually_timely_never_violates_paper_bound(
        sent in 0u64..100_000,
        tau in 0u64..100_000,
        delta in 1u64..1_000,
        seed in any::<u64>(),
    ) {
        let c = ChannelTiming::eventually_timely(VirtualTime::from_ticks(tau), delta);
        let mut rng = StdRng::seed_from_u64(seed);
        let d = c.delivery_time(VirtualTime::from_ticks(sent), &mut rng);
        // max(τ, τ′) + δ — the exact definition from Section 4.
        prop_assert!(d.ticks() <= sent.max(tau) + delta);
        prop_assert!(d.ticks() >= sent, "delivery before send");
    }

    #[test]
    fn async_delays_respect_law_bounds(
        sent in 0u64..100_000,
        min in 0u64..100,
        span in 0u64..1_000,
        seed in any::<u64>(),
    ) {
        let law = DelayLaw::Uniform { min, max: min + span };
        let c = ChannelTiming::asynchronous(law);
        let mut rng = StdRng::seed_from_u64(seed);
        let d = c.delivery_time(VirtualTime::from_ticks(sent), &mut rng);
        prop_assert!(d.ticks() >= sent + min);
        prop_assert!(d.ticks() <= sent + min + span);
    }
}

/// A gossip node: floods a counter, records receipt order.
#[derive(Debug)]
struct Gossip {
    budget: u32,
}

impl Node for Gossip {
    type Msg = u32;
    type Output = (u32, u64);

    fn on_start(&mut self, env: &mut Env<u32, (u32, u64)>) {
        if env.me() == ProcessId::new(0) {
            env.broadcast(0);
        }
    }

    fn on_message(&mut self, _from: ProcessId, msg: u32, env: &mut Env<u32, (u32, u64)>) {
        env.output((msg, env.now().ticks()));
        if msg < self.budget {
            env.broadcast(msg + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bit-for-bit determinism: same seed ⇒ identical outputs and metrics,
    /// on a noisy asynchronous network.
    #[test]
    fn identical_seeds_replay_identically(seed in any::<u64>(), n in 2usize..5) {
        let topo = NetworkTopology::uniform(
            n,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 100 }),
        );
        let run = || {
            let mut builder = SimBuilder::new(topo.clone()).seed(seed);
            for _ in 0..n {
                builder = builder.node(Gossip { budget: 4 });
            }
            let mut sim = builder.build();
            let report = sim.run();
            (
                report.outputs.clone(),
                report.metrics.messages_sent,
                report.final_time,
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// Output timestamps never decrease: the event queue is monotone.
    #[test]
    fn event_times_are_monotone(seed in any::<u64>()) {
        let topo = NetworkTopology::uniform(
            3,
            ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 50 }),
        );
        let mut builder = SimBuilder::new(topo).seed(seed);
        for _ in 0..3 {
            builder = builder.node(Gossip { budget: 5 });
        }
        let mut sim = builder.build();
        let report = sim.run();
        let times: Vec<u64> = report.outputs.iter().map(|o| o.time.ticks()).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The slab-backed calendar queue pops events in exactly the same
    /// `(time, seq)` order as a reference binary heap, under arbitrary
    /// monotone interleavings of pushes and pops (the only kind the
    /// simulator can produce: every push is at or after the last pop).
    #[test]
    fn event_queue_matches_reference_binary_heap(
        ops in proptest::collection::vec((0u64..2500, 0u8..3), 1..300),
    ) {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut floor = 0u64; // last popped time: pushes must stay at or past it
        for (delay, kind) in ops {
            if kind == 0 {
                // Pop from both; they must agree exactly.
                let got = queue.pop();
                let want = reference.pop();
                match (got, want) {
                    (None, None) => {}
                    (Some((t, s, payload)), Some(Reverse((rt, rs, rp)))) => {
                        prop_assert_eq!((t.ticks(), s, payload), (rt, rs, rp));
                        floor = rt;
                    }
                    (got, want) => {
                        return Err(TestCaseError::Fail(format!("{got:?} != {want:?}")));
                    }
                }
            } else {
                // Push the same entry into both (payload = seq so the pop
                // comparison also proves the slab hands back the right
                // payload; `kind == 2` pushes at the floor itself to
                // exercise ties).
                let time = if kind == 2 { floor } else { floor + delay };
                let s = queue.push(VirtualTime::from_ticks(time), seq);
                prop_assert_eq!(s, seq);
                reference.push(Reverse((time, seq, seq)));
                seq += 1;
            }
        }
        // Drain what's left; full order must still agree.
        while let Some((t, s, payload)) = queue.pop() {
            let Some(Reverse((rt, rs, rp))) = reference.pop() else {
                return Err(TestCaseError::Fail("queue longer than reference".into()));
            };
            prop_assert_eq!((t.ticks(), s, payload), (rt, rs, rp));
        }
        prop_assert!(reference.is_empty(), "reference longer than queue");
    }
}

/// A cancelled timer whose slot is recycled into a new generation must
/// never fire under its old identity — end-to-end through the simulator.
#[test]
fn cancelled_then_reused_timer_generation_never_fires_stale() {
    #[derive(Default)]
    struct Recycler {
        cancelled_id: Option<TimerId>,
        reused_id: Option<TimerId>,
    }
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Fired(u64);
    impl Node for Recycler {
        type Msg = ();
        type Output = Fired;

        fn on_start(&mut self, env: &mut Env<(), Fired>) {
            if env.me() != ProcessId::new(0) {
                return;
            }
            // Arm and immediately cancel: the timer's queue event (t = 1)
            // will be consumed as a dud, recycling its slot.
            let doomed = env.set_timer(1);
            env.cancel_timer(doomed);
            self.cancelled_id = Some(doomed);
            // Bounce a message off the peer; the echo lands at t = 6, well
            // after the dud event drained (self-channels are zero-delay, so
            // a self-send could not wait the dud out).
            env.send(ProcessId::new(1), ());
        }

        fn on_message(&mut self, _: ProcessId, (): (), env: &mut Env<(), Fired>) {
            if env.me() == ProcessId::new(1) {
                env.send(ProcessId::new(0), ());
                return;
            }
            // By now (t = 6) the dud fired and freed its slot: this
            // allocation reuses it under a bumped generation.
            let reused = env.set_timer(1);
            assert_ne!(
                Some(reused),
                self.cancelled_id,
                "recycled slot must carry a fresh generation"
            );
            self.reused_id = Some(reused);
        }

        fn on_timer(&mut self, timer: TimerId, env: &mut Env<(), Fired>) {
            assert_eq!(Some(timer), self.reused_id, "stale generation fired");
            env.output(Fired(timer.get()));
        }
    }
    let mut sim = SimBuilder::new(NetworkTopology::all_timely(2, 3))
        .node(Recycler::default())
        .node(Recycler::default())
        .build();
    let report = sim.run();
    assert_eq!(report.outputs.len(), 1, "exactly the live timer fires");
    assert_eq!(report.metrics.timers_fired, 1);
}
