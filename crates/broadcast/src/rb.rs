//! Bracha's asynchronous reliable broadcast (Section 2.2 of the paper;
//! Bracha, *Information & Computation* 1987), multiplexed over instances.
//!
//! One instance per `(origin, tag)` pair. The protocol, for `t < n/3`:
//!
//! 1. The origin broadcasts `INIT(v)`.
//! 2. On the **first** `INIT(v)` from the origin, broadcast `ECHO(v)` (once).
//! 3. On `⌈(n+t+1)/2⌉` `ECHO(v)` from distinct senders, or `t+1` `READY(v)`
//!    from distinct senders, broadcast `READY(v)` (once).
//! 4. On `2t+1` `READY(v)` from distinct senders, deliver `v` (once).
//!
//! The quorum sizes come from [`SystemConfig`]; the §2.1 dedup rule (only
//! the first `INIT`/`ECHO`/`READY` of an instance from each sender counts)
//! is enforced here, which is what defeats equivocating Byzantine senders.
//!
//! Each phase of an instance keeps one [`Tally`]: a sender bitset for the
//! dedup rule and a per-value count for the quorum test. An `ECHO` or
//! `READY` therefore costs a bit test and one value comparison (a correct
//! origin's instance carries one value), whatever the number of senders
//! already heard.

use core::fmt::Debug;

use minsync_types::{ProcessId, SystemConfig, Tally, Value};

/// Wire messages of the reliable-broadcast layer.
///
/// `T` tags instances so several concurrent RB uses share one engine; the
/// origin rides along explicitly in `Echo`/`Ready` because those are sent by
/// processes other than the origin.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RbMsg<T, V> {
    /// The origin's initial broadcast.
    Init {
        /// Instance tag.
        tag: T,
        /// Broadcast value.
        value: V,
    },
    /// Second-phase witness.
    Echo {
        /// Instance origin.
        origin: ProcessId,
        /// Instance tag.
        tag: T,
        /// Echoed value.
        value: V,
    },
    /// Third-phase commitment.
    Ready {
        /// Instance origin.
        origin: ProcessId,
        /// Instance tag.
        tag: T,
        /// Committed value.
        value: V,
    },
}

impl<T, V> RbMsg<T, V> {
    /// Short label for metrics classification.
    pub fn kind(&self) -> &'static str {
        match self {
            RbMsg::Init { .. } => "RB_INIT",
            RbMsg::Echo { .. } => "RB_ECHO",
            RbMsg::Ready { .. } => "RB_READY",
        }
    }
}

/// Effects the host must apply after feeding the engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RbAction<T, V> {
    /// Best-effort-broadcast this message to **all** processes (self
    /// included).
    Broadcast(RbMsg<T, V>),
    /// RB-deliver `value` from `origin` for instance `tag` (fires at most
    /// once per instance — RB-Unicity).
    Deliver {
        /// Instance origin.
        origin: ProcessId,
        /// Instance tag.
        tag: T,
        /// Delivered value.
        value: V,
    },
}

/// The actions one engine call produced: at most two (a READY
/// amplification plus a delivery), held inline so the per-message hot path
/// never allocates. Iterate it like the `Vec` it replaced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RbActions<T, V>(Acts<T, V>);

#[derive(Clone, PartialEq, Eq, Debug)]
enum Acts<T, V> {
    Zero,
    One(RbAction<T, V>),
    Two(RbAction<T, V>, RbAction<T, V>),
}

impl<T, V> RbActions<T, V> {
    const NONE: Self = RbActions(Acts::Zero);

    fn one(a: RbAction<T, V>) -> Self {
        RbActions(Acts::One(a))
    }

    fn push(&mut self, a: RbAction<T, V>) {
        self.0 = match std::mem::replace(&mut self.0, Acts::Zero) {
            Acts::Zero => Acts::One(a),
            Acts::One(first) => Acts::Two(first, a),
            Acts::Two(..) => unreachable!("an RB step emits at most two actions"),
        };
    }

    /// Number of queued actions (0, 1, or 2).
    pub fn len(&self) -> usize {
        match self.0 {
            Acts::Zero => 0,
            Acts::One(_) => 1,
            Acts::Two(..) => 2,
        }
    }

    /// True if the call produced nothing.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Acts::Zero)
    }

    /// The `index`-th action, if present.
    pub fn get(&self, index: usize) -> Option<&RbAction<T, V>> {
        match (&self.0, index) {
            (Acts::One(a), 0) | (Acts::Two(a, _), 0) => Some(a),
            (Acts::Two(_, b), 1) => Some(b),
            _ => None,
        }
    }

    /// Borrowing iterator over the actions.
    pub fn iter(&self) -> impl Iterator<Item = &RbAction<T, V>> {
        (0..self.len()).filter_map(|i| self.get(i))
    }
}

impl<T, V> core::ops::Index<usize> for RbActions<T, V> {
    type Output = RbAction<T, V>;

    fn index(&self, index: usize) -> &RbAction<T, V> {
        self.get(index).expect("RbActions index out of range")
    }
}

impl<T, V> IntoIterator for RbActions<T, V> {
    type Item = RbAction<T, V>;
    type IntoIter = ActionsIter<T, V>;

    fn into_iter(self) -> ActionsIter<T, V> {
        ActionsIter(self.0)
    }
}

/// Owning iterator over an [`RbActions`].
#[derive(Debug)]
pub struct ActionsIter<T, V>(Acts<T, V>);

impl<T, V> Iterator for ActionsIter<T, V> {
    type Item = RbAction<T, V>;

    fn next(&mut self) -> Option<RbAction<T, V>> {
        match std::mem::replace(&mut self.0, Acts::Zero) {
            Acts::Zero => None,
            Acts::One(a) => Some(a),
            Acts::Two(a, b) => {
                self.0 = Acts::One(b);
                Some(a)
            }
        }
    }
}

/// Per-instance state.
#[derive(Clone, Debug)]
struct Instance<V> {
    /// Set when *this* process called [`RbEngine::broadcast`] for the
    /// instance (guards against accidental reuse; mere receipt of forged
    /// `ECHO`/`READY` naming us as origin must not count).
    initiated: bool,
    /// First INIT value seen from the origin (dedup of equivocating INITs).
    init_seen: bool,
    /// Have we broadcast our ECHO yet?
    echoed: bool,
    /// Have we broadcast our READY yet?
    readied: bool,
    /// Have we delivered yet?
    delivered: bool,
    /// First ECHO per sender, counted per value.
    echoes: Tally<V>,
    /// First READY per sender, counted per value.
    readies: Tally<V>,
}

impl<V> Instance<V> {
    fn new() -> Self {
        Instance {
            initiated: false,
            init_seen: false,
            echoed: false,
            readied: false,
            delivered: false,
            echoes: Tally::default(),
            readies: Tally::default(),
        }
    }
}

/// Multi-instance Bracha reliable-broadcast engine for one host process.
///
/// See the [crate docs](crate) for a complete wiring example.
#[derive(Clone, Debug)]
pub struct RbEngine<T, V> {
    cfg: SystemConfig,
    me: ProcessId,
    /// Instance state, split per origin: the origin's process id indexes a
    /// dense vector of `n` entries; within an origin, instances live in a
    /// flat vector in creation order, scanned backwards (protocols create
    /// instances round-by-round, so the live ones sit at the tail and a
    /// probe is one bounds-checked index plus a couple of tag compares).
    instances: Vec<Vec<(T, Instance<V>)>>,
}

impl<T, V> RbEngine<T, V>
where
    T: Clone + Ord + Debug,
    V: Value,
{
    /// Creates an engine for process `me` in system `cfg`.
    pub fn new(cfg: SystemConfig, me: ProcessId) -> Self {
        RbEngine {
            cfg,
            me,
            instances: (0..cfg.n()).map(|_| Vec::new()).collect(),
        }
    }

    /// RB-broadcasts `value` with this process as origin.
    ///
    /// Returns the `INIT` broadcast action; the origin's own `ECHO` follows
    /// when the network loops the `INIT` back (broadcast includes self).
    ///
    /// # Panics
    ///
    /// Panics if this process already RB-broadcast for `tag` — instances are
    /// one-shot.
    pub fn broadcast(&mut self, tag: T, value: V) -> RbActions<T, V> {
        // A Byzantine process may have already sent us forged ECHO/READY
        // naming us as origin, creating the instance entry; only *our own*
        // initiation may exist once.
        let me = self.me;
        let inst = self
            .instance(me, tag.clone())
            .expect("an engine's own process belongs to its system");
        assert!(
            !inst.initiated,
            "RB instance ({:?}, {:?}) already used by this origin",
            self.me, tag
        );
        inst.initiated = true;
        RbActions::one(RbAction::Broadcast(RbMsg::Init { tag, value }))
    }

    /// Feeds a received RB message (true sender stamped by the network).
    pub fn on_message(&mut self, from: ProcessId, msg: RbMsg<T, V>) -> RbActions<T, V> {
        match msg {
            RbMsg::Init { tag, value } => self.on_init(from, tag, value),
            RbMsg::Echo { origin, tag, value } => self.on_echo(from, origin, tag, value),
            RbMsg::Ready { origin, tag, value } => self.on_ready(from, origin, tag, value),
        }
    }

    /// The (created-on-demand) instance for `(origin, tag)`, or `None` when
    /// `origin` is no process of the system: an `ECHO`/`READY` naming such
    /// an origin is a forgery, and must not grow the per-origin table.
    fn instance(&mut self, origin: ProcessId, tag: T) -> Option<&mut Instance<V>> {
        let tags = self.instances.get_mut(origin.index())?;
        // Backwards: the instance being exercised is almost always the most
        // recently created one.
        let at = match tags.iter().rposition(|(t, _)| *t == tag) {
            Some(at) => at,
            None => {
                tags.push((tag, Instance::new()));
                tags.len() - 1
            }
        };
        Some(&mut tags[at].1)
    }

    fn on_init(&mut self, from: ProcessId, tag: T, value: V) -> RbActions<T, V> {
        // The INIT of instance (origin, tag) is only meaningful from the
        // origin itself; a Byzantine process cannot impersonate (§2.1), so
        // `from` *is* the origin.
        let Some(inst) = self.instance(from, tag.clone()) else {
            return RbActions::NONE;
        };
        if inst.init_seen {
            return RbActions::NONE; // §2.1: discard duplicate INITs.
        }
        inst.init_seen = true;
        if !inst.echoed {
            inst.echoed = true;
            return RbActions::one(RbAction::Broadcast(RbMsg::Echo {
                origin: from,
                tag,
                value,
            }));
        }
        RbActions::NONE
    }

    fn on_echo(&mut self, from: ProcessId, origin: ProcessId, tag: T, value: V) -> RbActions<T, V> {
        let echo_quorum = self.cfg.echo_threshold();
        let Some(inst) = self.instance(origin, tag.clone()) else {
            return RbActions::NONE;
        };
        // §2.1 dedup: `vote` counts the first ECHO per sender only.
        match inst.echoes.vote(from, &value) {
            Some(support) if !inst.readied && support >= echo_quorum => {
                inst.readied = true;
                RbActions::one(RbAction::Broadcast(RbMsg::Ready { origin, tag, value }))
            }
            _ => RbActions::NONE,
        }
    }

    fn on_ready(
        &mut self,
        from: ProcessId,
        origin: ProcessId,
        tag: T,
        value: V,
    ) -> RbActions<T, V> {
        let amplify = self.cfg.ready_amplify_threshold();
        let deliver = self.cfg.ready_threshold();
        let Some(inst) = self.instance(origin, tag.clone()) else {
            return RbActions::NONE;
        };
        let Some(support) = inst.readies.vote(from, &value) else {
            return RbActions::NONE; // §2.1 dedup: first READY per sender only.
        };
        let mut actions = RbActions::NONE;
        if !inst.readied && support >= amplify {
            inst.readied = true;
            actions.push(RbAction::Broadcast(RbMsg::Ready {
                origin,
                tag: tag.clone(),
                value: value.clone(),
            }));
        }
        if !inst.delivered && support >= deliver {
            inst.delivered = true;
            actions.push(RbAction::Deliver { origin, tag, value });
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Engine = RbEngine<&'static str, u64>;

    fn cfg() -> SystemConfig {
        SystemConfig::new(4, 1).unwrap()
    }

    fn engines(n: usize) -> Vec<Engine> {
        (0..n)
            .map(|i| RbEngine::new(cfg(), ProcessId::new(i)))
            .collect()
    }

    /// Synchronously runs a message soup to quiescence, FIFO order.
    /// `byzantine` ids are excluded from processing (they only inject).
    fn run_soup(
        engines: &mut [Engine],
        mut wire: Vec<(ProcessId, RbMsg<&'static str, u64>)>,
        byzantine: &[usize],
    ) -> Vec<(usize, ProcessId, u64)> {
        let mut deliveries = Vec::new();
        let mut head = 0;
        while head < wire.len() {
            let (from, msg) = wire[head].clone();
            head += 1;
            for (i, engine) in engines.iter_mut().enumerate() {
                if byzantine.contains(&i) {
                    continue;
                }
                for action in engine.on_message(from, msg.clone()) {
                    match action {
                        RbAction::Broadcast(m) => wire.push((ProcessId::new(i), m)),
                        RbAction::Deliver { origin, value, .. } => {
                            deliveries.push((i, origin, value))
                        }
                    }
                }
            }
        }
        deliveries
    }

    fn start_broadcast(
        engines: &mut [Engine],
        origin: usize,
        tag: &'static str,
        value: u64,
    ) -> Vec<(ProcessId, RbMsg<&'static str, u64>)> {
        engines[origin]
            .broadcast(tag, value)
            .into_iter()
            .map(|a| match a {
                RbAction::Broadcast(m) => (ProcessId::new(origin), m),
                other => panic!("unexpected immediate action {other:?}"),
            })
            .collect()
    }

    #[test]
    fn correct_origin_everyone_delivers() {
        let mut e = engines(4);
        let wire = start_broadcast(&mut e, 0, "x", 7);
        let deliveries = run_soup(&mut e, wire, &[]);
        assert_eq!(deliveries.len(), 4);
        assert!(deliveries
            .iter()
            .all(|&(_, o, v)| o == ProcessId::new(0) && v == 7));
    }

    #[test]
    fn delivery_happens_once_per_instance() {
        let mut e = engines(4);
        let wire = start_broadcast(&mut e, 0, "x", 7);
        let deliveries = run_soup(&mut e, wire, &[]);
        let mut by_process: Vec<usize> = deliveries.iter().map(|&(i, _, _)| i).collect();
        by_process.sort();
        by_process.dedup();
        assert_eq!(by_process.len(), 4, "RB-Unicity violated");
    }

    #[test]
    fn distinct_tags_are_independent_instances() {
        let mut e = engines(4);
        let mut wire = start_broadcast(&mut e, 0, "a", 1);
        wire.extend(start_broadcast(&mut e, 0, "b", 2));
        let deliveries = run_soup(&mut e, wire, &[]);
        assert_eq!(deliveries.len(), 8);
        assert_eq!(deliveries.iter().filter(|&&(_, _, v)| v == 1).count(), 4);
        assert_eq!(deliveries.iter().filter(|&&(_, _, v)| v == 2).count(), 4);
    }

    #[test]
    #[should_panic(expected = "already used")]
    fn origin_cannot_reuse_instance() {
        let mut e = engines(4);
        let _ = e[0].broadcast("x", 1);
        let _ = e[0].broadcast("x", 2);
    }

    #[test]
    fn equivocating_init_yields_agreement_on_one_value() {
        // Byzantine p4 sends INIT(1) to p1, p2 and INIT(2) to p3.
        // Correct processes must not deliver different values
        // (RB-Termination-2 + RB-Unicity); with n = 4, t = 1 the echo
        // quorum is 3, so only a value echoed by ≥ 3 of {p1,p2,p3} can
        // progress — and at most one value can get 3 echoes.
        let mut e = engines(4);
        let byz = ProcessId::new(3);
        let mut wire = Vec::new();
        // Deliver the conflicting INITs directly to the targets.
        let mut deliveries = Vec::new();
        for (target, value) in [(0usize, 1u64), (1, 1), (2, 2)] {
            for action in e[target].on_message(byz, RbMsg::Init { tag: "x", value }) {
                match action {
                    RbAction::Broadcast(m) => wire.push((ProcessId::new(target), m)),
                    RbAction::Deliver { origin, value, .. } => {
                        deliveries.push((target, origin, value))
                    }
                }
            }
        }
        deliveries.extend(run_soup(&mut e, wire, &[3]));
        // With a 2/1 echo split no value reaches the quorum of 3:
        // nobody delivers anything — fine. The critical property: if any
        // correct process delivered, all delivered values agree.
        let values: std::collections::BTreeSet<u64> =
            deliveries.iter().map(|&(_, _, v)| v).collect();
        assert!(
            values.len() <= 1,
            "correct processes delivered different values"
        );
    }

    #[test]
    fn byzantine_echo_flood_cannot_force_wrong_value() {
        // p4 floods READY("x", 99) — a single Byzantine READY (t = 1) is
        // below both the amplification (2) and delivery (3) thresholds.
        let mut e = engines(4);
        let mut actions = Vec::new();
        for engine in e.iter_mut().take(3) {
            actions.extend(engine.on_message(
                ProcessId::new(3),
                RbMsg::Ready {
                    origin: ProcessId::new(3),
                    tag: "x",
                    value: 99,
                },
            ));
        }
        assert!(
            actions.is_empty(),
            "one Byzantine READY must not trigger anything"
        );
    }

    #[test]
    fn ready_amplification_carries_late_processes() {
        // RB-Termination-2 mechanism: a process that saw no INIT/ECHO still
        // delivers after 2t+1 READYs, and t+1 READYs make it broadcast its
        // own READY.
        let mut e = engines(4);
        let mut out = Vec::new();
        // p1 receives READY from p2 and p3 (2 = t+1): amplifies.
        out.extend(e[0].on_message(
            ProcessId::new(1),
            RbMsg::Ready {
                origin: ProcessId::new(1),
                tag: "x",
                value: 5,
            },
        ));
        assert!(out.is_empty());
        out.extend(e[0].on_message(
            ProcessId::new(2),
            RbMsg::Ready {
                origin: ProcessId::new(1),
                tag: "x",
                value: 5,
            },
        ));
        assert!(matches!(out[0], RbAction::Broadcast(RbMsg::Ready { .. })));
        // Its own READY loops back as the 3rd (2t+1): delivers.
        let acts = e[0].on_message(
            ProcessId::new(0),
            RbMsg::Ready {
                origin: ProcessId::new(1),
                tag: "x",
                value: 5,
            },
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, RbAction::Deliver { value: 5, .. })));
    }

    #[test]
    fn duplicate_messages_from_same_sender_discarded() {
        let mut e = engines(4);
        let ready = RbMsg::Ready {
            origin: ProcessId::new(1),
            tag: "x",
            value: 5,
        };
        // Same sender repeats READY 10 times: counts once.
        let mut actions = Vec::new();
        for _ in 0..10 {
            actions.extend(e[0].on_message(ProcessId::new(2), ready.clone()));
        }
        assert!(
            actions.is_empty(),
            "replays from one sender must not accumulate"
        );
    }

    #[test]
    fn forged_origin_outside_the_system_is_ignored() {
        // Every sender relays ECHO and READY for an "instance" of p1001:
        // enough to cross every threshold, were the origin real.
        let mut e = engines(4);
        let forged = ProcessId::new(1000);
        let mut actions = Vec::new();
        for sender in 0..4 {
            for msg in [
                RbMsg::Echo {
                    origin: forged,
                    tag: "x",
                    value: 1,
                },
                RbMsg::Ready {
                    origin: forged,
                    tag: "x",
                    value: 1,
                },
            ] {
                actions.extend(e[0].on_message(ProcessId::new(sender), msg));
            }
        }
        assert!(actions.is_empty(), "a forged origin moved the engine");
        assert_eq!(e[0].instances.len(), 4, "the per-origin table grew");
    }

    #[test]
    fn echo_quorum_exact_boundary() {
        let cfg7 = SystemConfig::new(7, 2).unwrap(); // echo threshold 5
        let mut e: RbEngine<&'static str, u64> = RbEngine::new(cfg7, ProcessId::new(0));
        let mut actions = Vec::new();
        for sender in 1..=4 {
            actions.extend(e.on_message(
                ProcessId::new(sender),
                RbMsg::Echo {
                    origin: ProcessId::new(6),
                    tag: "x",
                    value: 9,
                },
            ));
        }
        assert!(actions.is_empty(), "4 echoes < threshold 5");
        actions.extend(e.on_message(
            ProcessId::new(5),
            RbMsg::Echo {
                origin: ProcessId::new(6),
                tag: "x",
                value: 9,
            },
        ));
        assert_eq!(actions.len(), 1, "5th echo crosses the quorum");
        assert!(matches!(
            &actions[0],
            RbAction::Broadcast(RbMsg::Ready { value: 9, .. })
        ));
    }

    #[test]
    fn mixed_value_echoes_do_not_cross_quorum() {
        // 5 echoes but split 3/2 between two values: no READY (n=7, t=2,
        // threshold 5 *per value*).
        let cfg7 = SystemConfig::new(7, 2).unwrap();
        let mut e: RbEngine<&'static str, u64> = RbEngine::new(cfg7, ProcessId::new(0));
        let mut actions = Vec::new();
        for (sender, value) in [(1, 9u64), (2, 9), (3, 9), (4, 8), (5, 8)] {
            actions.extend(e.on_message(
                ProcessId::new(sender),
                RbMsg::Echo {
                    origin: ProcessId::new(6),
                    tag: "x",
                    value,
                },
            ));
        }
        assert!(actions.is_empty());
    }

    #[test]
    fn kind_labels() {
        let m: RbMsg<u8, u8> = RbMsg::Init { tag: 0, value: 0 };
        assert_eq!(m.kind(), "RB_INIT");
        let m: RbMsg<u8, u8> = RbMsg::Echo {
            origin: ProcessId::new(0),
            tag: 0,
            value: 0,
        };
        assert_eq!(m.kind(), "RB_ECHO");
        let m: RbMsg<u8, u8> = RbMsg::Ready {
            origin: ProcessId::new(0),
            tag: 0,
            value: 0,
        };
        assert_eq!(m.kind(), "RB_READY");
    }
}
