//! Cross-substrate equivalence and effect-trace golden tests for the
//! sans-io automaton API: the same `ConsensusNode` line-up must decide the
//! same value on the deterministic simulator and the threaded runtime, and
//! a seeded simulation's recorded effect trace must be stable.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use minsync::conformance::{golden_scenarios, Trace};
use minsync::core::{ConsensusConfig, ConsensusEvent, ConsensusNode, ProtocolMsg};
use minsync::net::sim::{OutputRecord, SimBuilder};
use minsync::net::threaded::{run_threaded, run_threaded_with, ThreadedConfig, ThreadedOutput};
use minsync::net::{Env, NetworkTopology, Node};
use minsync::transport::mesh::{MeshConfig, TcpMesh};
use minsync::types::{check, fnv1a, ProcessId, SystemConfig};
use minsync_telemetry::trace::{queues, TraceEvent, TraceKind, TraceRecorder};

type Msg = ProtocolMsg<u64>;
type Out = ConsensusEvent<u64>;

fn consensus_nodes(proposals: &[u64]) -> Vec<Box<dyn Node<Msg = Msg, Output = Out>>> {
    let system = SystemConfig::new(proposals.len(), 1).unwrap();
    let cfg = ConsensusConfig::paper(system);
    proposals
        .iter()
        .map(|&v| {
            Box::new(ConsensusNode::new(cfg, v).expect("valid config"))
                as Box<dyn Node<Msg = Msg, Output = Out>>
        })
        .collect()
}

fn sim_decisions(proposals: &[u64], seed: u64) -> Vec<(ProcessId, u64)> {
    let n = proposals.len();
    let decided = |outs: &[OutputRecord<Out>]| -> Vec<(ProcessId, u64)> {
        outs.iter()
            .filter_map(|o| Some((o.process, *o.event.as_decision()?)))
            .collect()
    };
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(n, 3))
        .seed(seed)
        .max_events(5_000_000);
    for node in consensus_nodes(proposals) {
        builder = builder.boxed_node(node);
    }
    let report = builder.build().run_until(|outs| decided(outs).len() == n);
    decided(&report.outputs)
}

/// Threaded process p answers to id n + p, so one check spans both
/// substrates.
fn threaded_decisions(proposals: &[u64]) -> Vec<(ProcessId, u64)> {
    let n = proposals.len();
    let decided = |outs: &[ThreadedOutput<Out>]| -> Vec<(ProcessId, u64)> {
        let id = |o: &ThreadedOutput<Out>| ProcessId::new(n + o.process.index());
        outs.iter()
            .filter_map(|o| Some((id(o), *o.event.as_decision()?)))
            .collect()
    };
    let report = run_threaded(
        NetworkTopology::all_timely(n, 3),
        consensus_nodes(proposals),
        ThreadedConfig {
            tick: Duration::from_micros(100),
            timeout: Duration::from_secs(30),
            seed: 7,
        },
        |outs| decided(outs).len() == n,
    );
    assert!(!report.timed_out, "threaded run timed out");
    decided(&report.outputs)
}

/// The same automaton type and configuration decides the same value on both
/// substrates. (With unanimous proposals, validity forces a unique
/// decision, so the comparison is exact even though the threaded runtime's
/// schedule is wall-clock-dependent.)
#[test]
fn simulator_and_threaded_runtime_decide_identically() {
    let proposals = [42u64, 42, 42, 42];
    let both = [sim_decisions(&proposals, 1), threaded_decisions(&proposals)].concat();
    let found = check::consensus(ProcessId::all(8), both, |&v| v == 42);
    assert!(found.is_empty(), "substrates disagree: {found:?}");
}

/// With split proposals the decided value is schedule-dependent, but each
/// substrate must internally agree and decide a proposed value.
#[test]
fn both_substrates_uphold_agreement_on_split_proposals() {
    let proposals = [5u64, 9, 5, 9];
    let sim = (0..4, sim_decisions(&proposals, 3));
    for (ids, decisions) in [sim, (4..8, threaded_decisions(&proposals))] {
        let valid = |v: &u64| proposals.contains(v);
        let found = check::consensus(ids.map(ProcessId::new), decisions, valid);
        assert!(found.is_empty(), "{found:?}");
    }
}

/// Golden effect-trace test: a seeded all-timely consensus run (no RNG
/// draws at all — fixed delays, deterministic automata) records a stable
/// effect stream. The digest below was produced by this test's own
/// scenario; it changing means the execution semantics changed.
#[test]
fn seeded_effect_trace_digest_is_stable() {
    let digest = || {
        let proposals = [3u64, 8, 3, 8];
        let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 2))
            .seed(99)
            .record_effects(usize::MAX)
            .max_events(5_000_000);
        for node in consensus_nodes(&proposals) {
            builder = builder.boxed_node(node);
        }
        let mut sim = builder.build();
        sim.run_until(|outs| {
            outs.iter()
                .filter(|o| matches!(o.event, ConsensusEvent::Decided { .. }))
                .count()
                == 4
        });
        sim.effect_trace_digest()
    };
    let first = digest();
    assert_eq!(first, digest(), "trace digest not reproducible");
    assert_eq!(
        first, GOLDEN_TRACE_DIGEST,
        "execution semantics changed: update GOLDEN_TRACE_DIGEST only if intentional"
    );
}

/// Pinned by `seeded_effect_trace_digest_is_stable` (printed by running the
/// test with the constant set to 0 and reading the assertion message).
const GOLDEN_TRACE_DIGEST: u64 = 12_930_462_810_997_223_412;

/// Structured-trace counterpart of [`GOLDEN_TRACE_DIGEST`]: FNV-1a of the
/// consensus golden scenario's *wire-encoded* cause+effect trace (the same
/// bytes committed as `crates/conformance/tests/fixtures/consensus-n4.trace`).
/// The Debug-string digest above pins execution semantics; this one
/// additionally pins the trace wire format — either changing means recorded
/// fixtures from older builds no longer replay.
const GOLDEN_STRUCTURED_DIGEST: u64 = 2_256_461_288_522_276_043;

/// The structured (wire-encoded) golden trace digest is reproducible and
/// pinned. Recorded through the conformance crate's canonical consensus
/// scenario, decoded back, and digested — so encode/decode round-tripping
/// is on the pinned path too.
#[test]
fn golden_structured_trace_digest_is_stable() {
    let scenario = golden_scenarios()
        .into_iter()
        .find(|s| s.name == "consensus-n4")
        .expect("consensus scenario is registered");
    let digest = || {
        let bytes = (scenario.record)();
        let trace =
            Trace::<ProtocolMsg<u64>, ConsensusEvent<u64>>::decode(&bytes).expect("round-trip");
        assert_eq!(fnv1a(&bytes), trace.digest(), "encode is not canonical");
        trace.digest()
    };
    let first = digest();
    assert_eq!(first, digest(), "structured digest not reproducible");
    assert_eq!(
        first, GOLDEN_STRUCTURED_DIGEST,
        "trace wire format or execution semantics changed: update \
         GOLDEN_STRUCTURED_DIGEST (and re-bless the committed fixtures) only \
         if intentional"
    );
}

/// Two of these rally a counter back and forth: p0 serves 0, every receipt
/// below [`Rally::LAST`] is returned plus one, and the receiver of `LAST`
/// outputs it. Each handler call bumps the process's own invocation count.
struct Rally(Arc<AtomicU64>);

impl Rally {
    const LAST: u64 = 6;
    /// Handler invocations of p0 (start + 1, 3, 5) and p1 (start + 0, 2, 4, 6).
    const INVOCATIONS: [u64; 2] = [4, 5];

    fn pair() -> (Counts, Vec<Box<dyn Node<Msg = u64, Output = u64>>>) {
        let counts = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
        let nodes = counts
            .iter()
            .map(|c| Box::new(Rally(Arc::clone(c))) as Box<dyn Node<Msg = u64, Output = u64>>)
            .collect();
        (counts, nodes)
    }
}

/// Per-process handler-invocation counters of one [`Rally`] pair.
type Counts = [Arc<AtomicU64>; 2];

impl Node for Rally {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, env: &mut Env<u64, u64>) {
        self.0.fetch_add(1, Ordering::Relaxed);
        if env.me() == ProcessId::new(0) {
            env.send(ProcessId::new(1), 0);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: u64, env: &mut Env<u64, u64>) {
        self.0.fetch_add(1, Ordering::Relaxed);
        if msg < Self::LAST {
            env.send(from, msg + 1);
        } else {
            env.output(msg);
        }
    }
}

/// `HandlerStep` means one thing everywhere: exactly one stamp per handler
/// invocation, taken after the invocation's effects were applied. Checked
/// per process on the simulator, the threaded runtime and a 2-node TCP mesh
/// running the same rally.
#[test]
fn handler_step_is_stamped_once_per_invocation_after_effects_on_every_substrate() {
    let steps_of = |events: &[TraceEvent], p: u32| {
        let is_step =
            |e: &&TraceEvent| e.node == p && matches!(e.kind, TraceKind::HandlerStep { .. });
        events.iter().filter(is_step).count() as u64
    };
    let check = |substrate: &str, counts: &Counts, events: &[TraceEvent]| {
        for (p, count) in counts.iter().enumerate() {
            let invocations = count.load(Ordering::Relaxed);
            assert_eq!(invocations, Rally::INVOCATIONS[p], "{substrate} p{p}");
            assert_eq!(
                steps_of(events, p as u32),
                invocations,
                "{substrate} p{p}: one HandlerStep per invocation"
            );
        }
    };
    // p0's first invocation serves the ball: the serve-queue Enqueue that
    // applying the send produces (the first one from `begun`, where that
    // invocation starts in the ring) must come before p0's first
    // HandlerStep.
    let serve_is_inside_the_step =
        |substrate: &str, events: &[TraceEvent], queue: u32, begun: usize| {
            let kinds: Vec<TraceKind> = events.iter().map(|e| e.kind).collect();
            let served = (begun..events.len())
                .find(|&i| matches!(kinds[i], TraceKind::Enqueue { queue: q, .. } if q == queue))
                .unwrap_or_else(|| panic!("{substrate}: p0's serve was never queued: {kinds:?}"));
            let stepped = events
                .iter()
                .position(|e| e.node == 0 && matches!(e.kind, TraceKind::HandlerStep { .. }))
                .unwrap_or_else(|| panic!("{substrate}: p0 never stepped: {kinds:?}"));
            assert!(
                served < stepped,
                "{substrate}: p0's step was stamped before its send was applied: {kinds:?}"
            );
        };

    // Simulator.
    let ring = Arc::new(TraceRecorder::new(4096));
    let (counts, nodes) = Rally::pair();
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(2, 1)).trace(Arc::clone(&ring));
    for node in nodes {
        builder = builder.boxed_node(node);
    }
    builder.build().run();
    let events = ring.events();
    check("sim", &counts, &events);
    // The simulator queues both starts before it dispatches p0's.
    let begun = events
        .iter()
        .position(|e| e.node == 0 && matches!(e.kind, TraceKind::Dequeue { .. }))
        .expect("sim: p0 was never dispatched");
    serve_is_inside_the_step("sim", &events, queues::SIM_EVENTS, begun);

    // Threaded runtime.
    let ring = Arc::new(TraceRecorder::new(4096));
    let (counts, nodes) = Rally::pair();
    let report = run_threaded_with(
        NetworkTopology::all_timely(2, 1),
        nodes,
        ThreadedConfig {
            tick: Duration::from_micros(100),
            timeout: Duration::from_secs(20),
            seed: 1,
        },
        Some(Arc::clone(&ring)),
        |outs| !outs.is_empty(),
    );
    assert!(!report.timed_out, "threaded rally timed out");
    check("threaded", &counts, &ring.events());

    // Two TCP meshes, one ring: p1 sees the last ball and releases p0.
    let ring = Arc::new(TraceRecorder::new(4096));
    let (counts, mut nodes) = Rally::pair();
    let config = MeshConfig {
        timeout: Duration::from_secs(20),
        trace: Some(Arc::clone(&ring)),
        ..MeshConfig::default()
    };
    let a = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let b = TcpMesh::bind(ProcessId::new(1), "127.0.0.1:0".parse().unwrap()).unwrap();
    let peers = vec![a.local_addr().unwrap(), b.local_addr().unwrap()];
    let over = Arc::new(AtomicBool::new(false));
    let (node_b, node_a) = (nodes.pop().unwrap(), nodes.pop().unwrap());
    let handle = {
        let (peers, config, over) = (peers.clone(), config.clone(), Arc::clone(&over));
        std::thread::spawn(move || {
            b.run(node_b, &peers, &config, |outs, _| {
                over.fetch_or(!outs.is_empty(), Ordering::Relaxed)
            })
        })
    };
    let report_a = a.run(node_a, &peers, &config, |_, _| over.load(Ordering::Relaxed));
    let report_b = handle.join().unwrap();
    assert!(
        !report_a.timed_out && !report_b.timed_out,
        "mesh rally timed out"
    );
    assert_eq!(report_b.outputs.len(), 1);
    check("mesh", &counts, &ring.events());
    // Only p0's sends to p1 use that queue.
    serve_is_inside_the_step("mesh", &ring.events(), queues::OUTBOUND_BASE + 1, 0);
}
