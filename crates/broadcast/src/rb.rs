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
//! 5. Under a [`Carrier::Counted`] tag, count the delivery instead of
//!    handing it out, and report `v` once `t + 1` distinct origins
//!    delivered it (Figure 1 line 4).
//!
//! The quorum sizes come from [`SystemConfig`]; the §2.1 dedup rule (only
//! the first `INIT`/`ECHO`/`READY` of an instance from each sender counts)
//! is enforced here, which is what defeats equivocating Byzantine senders.
//!
//! Each phase of an instance, and each counted tag, keeps one [`Tally`]: a
//! sender bitset for the dedup rule and a per-value count for the quorum
//! test. An `ECHO` or `READY` therefore costs a bit test and one value
//! comparison (a correct origin's instance carries one value), whatever
//! the number of senders already heard.

use core::fmt::Debug;
use std::collections::BTreeMap;

use minsync_types::{ProcessId, SystemConfig, Tally, Value};

use crate::relay::Wave;

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
    /// The relay rule's best-effort `CB(v)` (DESIGN.md §9): the sender's
    /// own value, or a value it heard from `t + 1` senders. Only under a
    /// [`Carrier::Relay`] tag.
    Relay {
        /// The CB instance's tag.
        tag: T,
        /// The value sent or relayed.
        value: V,
    },
}

impl<T, V> RbMsg<T, V> {
    /// The instance tag the message belongs to.
    pub fn tag(&self) -> &T {
        match self {
            RbMsg::Init { tag, .. }
            | RbMsg::Echo { tag, .. }
            | RbMsg::Ready { tag, .. }
            | RbMsg::Relay { tag, .. } => tag,
        }
    }

    /// The value the message carries.
    pub fn value(&self) -> &V {
        match self {
            RbMsg::Init { value, .. }
            | RbMsg::Echo { value, .. }
            | RbMsg::Ready { value, .. }
            | RbMsg::Relay { value, .. } => value,
        }
    }
}

/// How the layer carries one tag's instances.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Carrier {
    /// Bracha's RB: each instance's delivery is handed out as
    /// [`RbEvent::RbDelivered`].
    Bracha,
    /// Bracha's RB per origin, with deliveries counted: a value is reported
    /// as [`RbEvent::CbValid`] once `t + 1` distinct origins RB-delivered it
    /// (Figure 1 line 4, and `DECIDE` by Figure 4 line 9). About `2n³`
    /// messages and three message delays per wave.
    Counted,
    /// BV-broadcast's relay rule (DESIGN.md §9): best-effort `CB(v)`,
    /// relayed at `t + 1` distinct senders, [`RbEvent::CbValid`] at
    /// `2t + 1`. At most `m·n²` messages and one message delay per wave.
    Relay,
}

/// An instance tag, which names the [`Carrier`] of its instances under the
/// rule set its engine was built with.
pub trait Tag: Clone + Ord + Debug {
    /// The rule set an engine is built with ([`RbEngine::new`]).
    type Rules: Copy + Debug;

    /// How this tag's instances travel under `rules`.
    fn carrier(&self, rules: Self::Rules) -> Carrier;
}

/// The single-instance tag: plain RB.
impl Tag for () {
    type Rules = ();

    fn carrier(&self, (): ()) -> Carrier {
        Carrier::Bracha
    }
}

/// What the layer tells its host.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RbEvent<T, V> {
    /// Bracha's delivery (§2.2): `value` RB-delivered from `origin` for a
    /// plain `tag`, at most once per instance (RB-Unicity).
    RbDelivered {
        /// Instance tag.
        tag: T,
        /// Instance origin.
        origin: ProcessId,
        /// Delivered value.
        value: V,
    },
    /// Figure 1 line 4: `value` was RB-delivered under the counted `tag`
    /// from `t + 1` distinct origins, so at least one correct process
    /// broadcast it. Emitted once per value, when its support reaches
    /// exactly `t + 1`; for `DECIDE` this is Figure 4 line 9. Under a
    /// [`Carrier::Relay`] tag the value is valid at `2t + 1` distinct
    /// senders of `CB(v)` instead.
    CbValid {
        /// The counted tag.
        tag: T,
        /// The value now backed by `t + 1` origins.
        value: V,
    },
}

/// What one [`RbEngine::on_message`] call produced: at most one broadcast
/// and at most one event. The host applies the broadcast first.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RbStep<T, V> {
    /// Best-effort-broadcast this to **all** processes (self included): an
    /// `ECHO`, a `READY`, a `READY` amplification, or a relayed `CB(v)`.
    pub broadcast: Option<RbMsg<T, V>>,
    /// Then handle this.
    pub event: Option<RbEvent<T, V>>,
}

impl<T, V> RbStep<T, V> {
    const NONE: Self = RbStep {
        broadcast: None,
        event: None,
    };

    fn broadcast(msg: RbMsg<T, V>) -> Self {
        RbStep {
            broadcast: Some(msg),
            event: None,
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

/// Multi-instance Bracha reliable-broadcast engine for one host process,
/// and the only counter of `t + 1` distinct origins under a
/// [`Carrier::Counted`] tag.
///
/// See the [crate docs](crate) for a complete wiring example.
#[derive(Clone, Debug)]
pub struct RbEngine<T: Tag, V> {
    cfg: SystemConfig,
    me: ProcessId,
    /// The rule set every tag names its carrier under.
    rules: T::Rules,
    /// Instance state, split per origin: the origin's process id indexes a
    /// dense vector of `n` entries; within an origin, instances live in a
    /// flat vector in creation order, scanned backwards (protocols create
    /// instances round-by-round, so the live ones sit at the tail and a
    /// probe is one bounds-checked index plus a couple of tag compares).
    instances: Vec<Vec<(T, Instance<V>)>>,
    /// Per [`Carrier::Counted`] tag, the origins whose instance delivered,
    /// per value.
    origins: BTreeMap<T, Tally<V>>,
    /// One wave per [`Carrier::Relay`] tag, created on its first message
    /// and scanned backwards like `instances`.
    waves: Vec<(T, Wave<V>)>,
}

impl<T: Tag, V: Value> RbEngine<T, V> {
    /// Creates an engine for process `me` in system `cfg`, each tag carried
    /// as it names under `rules`.
    pub fn new(cfg: SystemConfig, me: ProcessId, rules: T::Rules) -> Self {
        RbEngine {
            cfg,
            me,
            rules,
            instances: (0..cfg.n()).map(|_| Vec::new()).collect(),
            origins: BTreeMap::new(),
            waves: Vec::new(),
        }
    }

    /// RB-broadcasts `value` with this process as origin: returns the
    /// `INIT` to broadcast. The origin's own `ECHO` follows when the
    /// network loops the `INIT` back (broadcast includes self).
    ///
    /// Under a [`Carrier::Relay`] tag the value goes out as `CB(v)`
    /// instead, and `None` means this process already relayed `v` under
    /// `tag`: it sends each value once.
    ///
    /// # Panics
    ///
    /// Panics if this process already RB-broadcast for `tag` — instances are
    /// one-shot.
    pub fn broadcast(&mut self, tag: T, value: V) -> Option<RbMsg<T, V>> {
        if tag.carrier(self.rules) == Carrier::Relay {
            let fresh = self.wave(tag.clone()).initiate(&value);
            return fresh.then_some(RbMsg::Relay { tag, value });
        }
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
        Some(RbMsg::Init { tag, value })
    }

    /// Number of `(origin, tag)` instances the engine holds state for,
    /// plus the values named in its relay waves (diagnostics).
    pub fn live_instances(&self) -> usize {
        let waves = self.waves.iter().map(|(_, w)| w.values());
        self.instances.iter().map(Vec::len).sum::<usize>() + waves.sum::<usize>()
    }

    /// Feeds a received RB message (true sender stamped by the network).
    ///
    /// A message of another carrier than its tag's is one no correct
    /// process sends; it is dropped before it allocates.
    pub fn on_message(&mut self, from: ProcessId, msg: RbMsg<T, V>) -> RbStep<T, V> {
        let relay = matches!(msg, RbMsg::Relay { .. });
        if relay != (msg.tag().carrier(self.rules) == Carrier::Relay) {
            return RbStep::NONE;
        }
        match msg {
            RbMsg::Init { tag, value } => self.on_init(from, tag, value),
            RbMsg::Echo { origin, tag, value } => self.on_echo(from, origin, tag, value),
            RbMsg::Ready { origin, tag, value } => self.on_ready(from, origin, tag, value),
            RbMsg::Relay { tag, value } => self.on_relay(from, tag, value),
        }
    }

    /// The (created-on-demand) relay wave of `tag`.
    fn wave(&mut self, tag: T) -> &mut Wave<V> {
        let at = match self.waves.iter().rposition(|(t, _)| *t == tag) {
            Some(at) => at,
            None => {
                self.waves.push((tag, Wave::default()));
                self.waves.len() - 1
            }
        };
        &mut self.waves[at].1
    }

    /// The relay rule's steps 2 and 3 for `CB(value)` from `from`.
    fn on_relay(&mut self, from: ProcessId, tag: T, value: V) -> RbStep<T, V> {
        let cfg = self.cfg;
        let counted = self.wave(tag.clone()).on_cb(&cfg, from, &value);
        RbStep {
            broadcast: counted.relay.then(|| RbMsg::Relay {
                tag: tag.clone(),
                value: value.clone(),
            }),
            event: counted.valid.then_some(RbEvent::CbValid { tag, value }),
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

    fn on_init(&mut self, from: ProcessId, tag: T, value: V) -> RbStep<T, V> {
        // The INIT of instance (origin, tag) is only meaningful from the
        // origin itself; a Byzantine process cannot impersonate (§2.1), so
        // `from` *is* the origin.
        let Some(inst) = self.instance(from, tag.clone()) else {
            return RbStep::NONE;
        };
        if inst.init_seen {
            return RbStep::NONE; // §2.1: discard duplicate INITs.
        }
        inst.init_seen = true;
        if inst.echoed {
            return RbStep::NONE;
        }
        inst.echoed = true;
        RbStep::broadcast(RbMsg::Echo {
            origin: from,
            tag,
            value,
        })
    }

    fn on_echo(&mut self, from: ProcessId, origin: ProcessId, tag: T, value: V) -> RbStep<T, V> {
        let echo_quorum = self.cfg.echo_threshold();
        let Some(inst) = self.instance(origin, tag.clone()) else {
            return RbStep::NONE;
        };
        // §2.1 dedup: `vote` counts the first ECHO per sender only.
        match inst.echoes.vote(from, &value) {
            Some(support) if !inst.readied && support >= echo_quorum => {
                inst.readied = true;
                RbStep::broadcast(RbMsg::Ready { origin, tag, value })
            }
            _ => RbStep::NONE,
        }
    }

    fn on_ready(&mut self, from: ProcessId, origin: ProcessId, tag: T, value: V) -> RbStep<T, V> {
        let amplify = self.cfg.ready_amplify_threshold();
        let deliver = self.cfg.ready_threshold();
        let Some(inst) = self.instance(origin, tag.clone()) else {
            return RbStep::NONE;
        };
        let Some(support) = inst.readies.vote(from, &value) else {
            return RbStep::NONE; // §2.1 dedup: first READY per sender only.
        };
        let amplified = !inst.readied && support >= amplify;
        inst.readied |= amplified;
        let delivered = !inst.delivered && support >= deliver;
        inst.delivered |= delivered;
        RbStep {
            broadcast: amplified.then(|| RbMsg::Ready {
                origin,
                tag: tag.clone(),
                value: value.clone(),
            }),
            event: if delivered {
                self.on_delivered(origin, tag, value)
            } else {
                None
            },
        }
    }

    /// Instance `(origin, tag)` delivered `value`: handed out under
    /// [`Carrier::Bracha`], counted under [`Carrier::Counted`] (Figure 1
    /// line 4).
    fn on_delivered(&mut self, origin: ProcessId, tag: T, value: V) -> Option<RbEvent<T, V>> {
        if tag.carrier(self.rules) == Carrier::Bracha {
            return Some(RbEvent::RbDelivered { tag, origin, value });
        }
        // One instance per origin delivers once (RB-Unicity), so `vote`
        // never sees an origin twice.
        let support = self
            .origins
            .entry(tag.clone())
            .or_default()
            .vote(origin, &value)?;
        (support == self.cfg.plurality()).then_some(RbEvent::CbValid { tag, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tags starting with `cb` are CB waves, carried as the engine's rules
    /// say, but `cb-decide`, which is always counted; the rest are plain.
    impl Tag for &'static str {
        type Rules = Carrier;

        fn carrier(&self, cb: Carrier) -> Carrier {
            match *self {
                "cb-decide" => Carrier::Counted,
                tag if tag.starts_with("cb") => cb,
                _ => Carrier::Bracha,
            }
        }
    }

    type Engine = RbEngine<&'static str, u64>;
    type Msg = RbMsg<&'static str, u64>;
    type Wire = Vec<(ProcessId, Msg)>;

    fn cfg() -> SystemConfig {
        SystemConfig::new(4, 1).unwrap()
    }

    fn engines(n: usize) -> Vec<Engine> {
        (0..n)
            .map(|i| RbEngine::new(cfg(), ProcessId::new(i), Carrier::Counted))
            .collect()
    }

    /// Synchronously runs a message soup of plain-tag instances to
    /// quiescence, FIFO order, and returns every delivery as `(process,
    /// origin, value)`. `byzantine` ids only inject.
    fn run_soup(
        engines: &mut [Engine],
        mut wire: Wire,
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
                let step = engine.on_message(from, msg.clone());
                wire.extend(step.broadcast.map(|m| (ProcessId::new(i), m)));
                deliveries.extend(step.event.map(|e| match e {
                    RbEvent::RbDelivered { origin, value, .. } => (i, origin, value),
                    other => panic!("plain tags only: {other:?}"),
                }));
            }
        }
        deliveries
    }

    fn start_broadcast(
        engines: &mut [Engine],
        origin: usize,
        tag: &'static str,
        value: u64,
    ) -> Wire {
        vec![(
            ProcessId::new(origin),
            engines[origin].broadcast(tag, value).unwrap(),
        )]
    }

    fn ready(sender: usize, origin: usize, tag: &'static str, value: u64) -> (ProcessId, Msg) {
        let origin = ProcessId::new(origin);
        (ProcessId::new(sender), RbMsg::Ready { origin, tag, value })
    }

    /// Feeds one engine of an `(n, t)` system `2t + 1` READYs per
    /// `(origin, value)`, so each instance delivers once, in order;
    /// returns the values it reported valid under tag `cb`, in order.
    fn cb_valid(n: usize, t: usize, deliveries: &[(usize, u64)]) -> Vec<u64> {
        let cfg = SystemConfig::new(n, t).unwrap();
        let mut e: Engine = RbEngine::new(cfg, ProcessId::new(0), Carrier::Counted);
        let mut valid = Vec::new();
        for &(origin, value) in deliveries {
            for sender in 0..cfg.ready_threshold() {
                let (from, msg) = ready(sender, origin, "cb", value);
                match e.on_message(from, msg).event {
                    Some(RbEvent::CbValid { tag: "cb", value }) => valid.push(value),
                    None => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        valid
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
        for (target, value) in [(0usize, 1u64), (1, 1), (2, 2)] {
            let step = e[target].on_message(byz, RbMsg::Init { tag: "x", value });
            assert_eq!(step.event, None);
            wire.extend(step.broadcast.map(|m| (ProcessId::new(target), m)));
        }
        let deliveries = run_soup(&mut e, wire, &[3]);
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
        for engine in e.iter_mut().take(3) {
            let (from, msg) = ready(3, 3, "x", 99);
            assert_eq!(
                engine.on_message(from, msg),
                RbStep::NONE,
                "one Byzantine READY must not trigger anything"
            );
        }
    }

    #[test]
    fn ready_amplification_carries_late_processes() {
        // RB-Termination-2 mechanism: a process that saw no INIT/ECHO still
        // delivers after 2t+1 READYs, and t+1 READYs make it broadcast its
        // own READY.
        let mut e = engines(4);
        // p1 receives READY from p2 and p3 (2 = t+1): amplifies.
        let (from, msg) = ready(1, 1, "x", 5);
        assert_eq!(e[0].on_message(from, msg), RbStep::NONE);
        let (from, msg) = ready(2, 1, "x", 5);
        let step = e[0].on_message(from, msg);
        assert!(matches!(step.broadcast, Some(RbMsg::Ready { .. })));
        assert_eq!(step.event, None);
        // Its own READY loops back as the 3rd (2t+1): delivers.
        let (from, msg) = ready(0, 1, "x", 5);
        let step = e[0].on_message(from, msg);
        assert!(matches!(
            step.event,
            Some(RbEvent::RbDelivered { value: 5, .. })
        ));
    }

    #[test]
    fn duplicate_messages_from_same_sender_discarded() {
        let mut e = engines(4);
        // Same sender repeats READY 10 times: counts once.
        for _ in 0..10 {
            let (from, msg) = ready(2, 1, "x", 5);
            assert_eq!(
                e[0].on_message(from, msg),
                RbStep::NONE,
                "replays from one sender must not accumulate"
            );
        }
    }

    #[test]
    fn forged_origin_outside_the_system_is_ignored() {
        // Every sender relays ECHO and READY for an "instance" of p1001:
        // enough to cross every threshold, were the origin real.
        let mut e = engines(4);
        let forged = ProcessId::new(1000);
        let (origin, tag, value) = (forged, "x", 1);
        for sender in 0..4 {
            for msg in [
                RbMsg::Echo { origin, tag, value },
                RbMsg::Ready { origin, tag, value },
            ] {
                let step = e[0].on_message(ProcessId::new(sender), msg);
                assert_eq!(step, RbStep::NONE, "a forged origin moved the engine");
            }
        }
        assert_eq!(e[0].instances.len(), 4, "the per-origin table grew");
    }

    #[test]
    fn echo_quorum_exact_boundary() {
        let cfg7 = SystemConfig::new(7, 2).unwrap(); // echo threshold 5
        let mut e: Engine = RbEngine::new(cfg7, ProcessId::new(0), Carrier::Counted);
        let (origin, tag, value) = (ProcessId::new(6), "x", 9);
        let echo = RbMsg::Echo { origin, tag, value };
        for sender in 1..=4 {
            let step = e.on_message(ProcessId::new(sender), echo.clone());
            assert_eq!(step, RbStep::NONE, "4 echoes < threshold 5");
        }
        let step = e.on_message(ProcessId::new(5), echo);
        assert!(
            matches!(step.broadcast, Some(RbMsg::Ready { value: 9, .. })),
            "5th echo crosses the quorum"
        );
        assert_eq!(step.event, None);
    }

    #[test]
    fn mixed_value_echoes_do_not_cross_quorum() {
        // 5 echoes but split 3/2 between two values: no READY (n=7, t=2,
        // threshold 5 *per value*).
        let cfg7 = SystemConfig::new(7, 2).unwrap();
        let mut e: Engine = RbEngine::new(cfg7, ProcessId::new(0), Carrier::Counted);
        let (origin, tag) = (ProcessId::new(6), "x");
        for (sender, value) in [(1, 9u64), (2, 9), (3, 9), (4, 8), (5, 8)] {
            let echo = RbMsg::Echo { origin, tag, value };
            assert_eq!(e.on_message(ProcessId::new(sender), echo), RbStep::NONE);
        }
    }

    #[test]
    fn value_becomes_valid_at_exactly_t_plus_1() {
        // n = 7, t = 2: the third origin's delivery validates, the fourth
        // does not re-announce.
        assert_eq!(cb_valid(7, 2, &[(0, 5), (1, 5)]), Vec::<u64>::new());
        assert_eq!(cb_valid(7, 2, &[(0, 5), (1, 5), (2, 5), (3, 5)]), [5]);
    }

    #[test]
    fn byzantine_only_value_never_valid() {
        // t = 2: two Byzantine origins push 99; no correct process does.
        assert!(
            cb_valid(7, 2, &[(5, 99), (6, 99)]).is_empty(),
            "CB-Set Validity: t supporters are not enough"
        );
    }

    #[test]
    fn duplicate_origin_is_ignored() {
        // The same origin's second instance value cannot deliver
        // (RB-Unicity), so it cannot count twice.
        assert!(cb_valid(4, 1, &[(0, 5), (0, 5), (0, 6)]).is_empty());
    }

    #[test]
    fn first_valid_comes_first() {
        // 10 becomes valid before 4, even though 4 < 10.
        let deliveries = [(0, 10), (1, 10), (2, 10), (3, 4), (4, 4), (5, 4)];
        assert_eq!(cb_valid(7, 2, &deliveries), [10, 4]);
    }

    #[test]
    fn multiple_values_can_be_valid() {
        let deliveries = [
            (0, 1),
            (1, 1),
            (2, 1),
            (3, 1),
            (4, 2),
            (5, 2),
            (6, 2),
            (7, 2),
        ];
        assert_eq!(cb_valid(10, 3, &deliveries), [1, 2]);
    }

    fn relay_engine(n: usize, t: usize) -> Engine {
        let cfg = SystemConfig::new(n, t).unwrap();
        RbEngine::new(cfg, ProcessId::new(0), Carrier::Relay)
    }

    /// `CB(value)` under tag `cb`.
    fn cb_msg(value: u64) -> Msg {
        RbMsg::Relay { tag: "cb", value }
    }

    /// `e`'s step for `CB(value)` from `sender`.
    fn hear(e: &mut Engine, sender: usize, value: u64) -> Step {
        e.on_message(ProcessId::new(sender), cb_msg(value))
    }

    type Step = RbStep<&'static str, u64>;

    #[test]
    fn relay_rule_relays_at_t_plus_1_and_accepts_at_2t_plus_1() {
        // n = 7, t = 2: relay at 3 senders, valid at 5.
        let mut e = relay_engine(7, 2);
        let valid = Some(RbEvent::CbValid {
            tag: "cb",
            value: 9,
        });
        assert_eq!(hear(&mut e, 1, 9), RbStep::NONE);
        assert_eq!(hear(&mut e, 2, 9), RbStep::NONE);
        let step = hear(&mut e, 3, 9);
        assert_eq!((step.broadcast, step.event), (Some(cb_msg(9)), None));
        assert_eq!(hear(&mut e, 3, 9), RbStep::NONE, "a sender counts once");
        assert_eq!(hear(&mut e, 4, 9), RbStep::NONE, "relayed once");
        let step = hear(&mut e, 0, 9);
        assert_eq!((step.broadcast, step.event), (None, valid));
        assert_eq!(hear(&mut e, 5, 9), RbStep::NONE, "valid once");
    }

    #[test]
    fn own_value_already_relayed_is_not_sent_again() {
        let mut e = relay_engine(4, 1);
        hear(&mut e, 1, 5);
        hear(&mut e, 2, 5);
        assert_eq!(e.broadcast("cb", 5), None, "CB(5) already relayed");
        let mut e = relay_engine(4, 1);
        assert_eq!(e.broadcast("cb", 5), Some(cb_msg(5)));
        hear(&mut e, 1, 5);
        assert_eq!(hear(&mut e, 2, 5).broadcast, None, "own value relayed");
    }

    #[test]
    fn each_rule_drops_the_other_rules_cb_traffic() {
        // Under the relay rule a relayed tag's Bracha phases are Byzantine;
        // a tag it does not relay keeps its own carrier.
        let mut e = relay_engine(4, 1);
        let origin = ProcessId::new(1);
        for sender in 0..4 {
            let from = ProcessId::new(sender);
            for msg in [
                RbMsg::Init {
                    tag: "cb",
                    value: 1,
                },
                RbMsg::Ready {
                    origin,
                    tag: "cb",
                    value: 1,
                },
                RbMsg::Relay {
                    tag: "cb-decide",
                    value: 1,
                },
                RbMsg::Relay { tag: "x", value: 1 },
            ] {
                assert_eq!(e.on_message(from, msg), RbStep::NONE);
            }
        }
        assert_eq!(e.live_instances(), 0, "dropped traffic allocated state");
        let (from, msg) = ready(1, 1, "cb-decide", 4);
        assert_eq!(e.on_message(from, msg), RbStep::NONE);
        assert_eq!(e.live_instances(), 1, "DECIDE stays counted");
        // Figure 1 has no relay message.
        let mut e = engines(4).remove(0);
        for sender in 0..4 {
            assert_eq!(hear(&mut e, sender, 1), RbStep::NONE);
        }
        assert_eq!(e.live_instances(), 0);
    }
}
