//! The traced pass: the per-layer table for one workload. Three sections,
//! each a span tree of calls into the layers:
//!
//! 1. the workload's own protocol rows — exact message counts of its
//!    simulator run (for a TCP workload, of the simulator mirror of its
//!    population) and, for a TCP workload, one cluster run;
//! 2. the workload-independent micro-benchmarks ([`crate::micro`]);
//! 3. the `tcp_n4` ledger ([`crate::ledger`]).
//!
//! Rows scoped to a cluster (`transport.cluster.*`, the mesh failure
//! counts, `commit_latency_p99_ms`) come from the workload's own cluster
//! when it has one and from the ledger's `tcp_n4` run otherwise.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use minsync_telemetry::Registry;
use minsync_transport::ReplicaStats;

use crate::ledger;
use crate::measure::{median, peak_rss_mb, Spans};
use crate::micro;
use crate::report::Values;
use crate::spec::{workload, Net, Substrate, Workload, TICK_MS, TIMELY_DELTA};
use crate::substrate::{
    check_cluster, check_logs, message_corpus, run_sim, run_tcp, ClusterRun, SimRun,
};

/// Slots of the simulator runs the codec corpora are recorded from.
const CORPUS_SLOTS: usize = 20;
/// Slots of the timely mirror that supplies `core.msg_delays_per_commit`
/// for a workload whose own network is not timely.
const DELAY_MIRROR_SLOTS: usize = 200;
/// Round trips of the mesh ping-pong.
const MESH_PINGS: usize = 20_000;

/// The per-layer table of one workload.
#[derive(Debug, Default)]
pub struct PerLayer {
    /// Every per-layer metric.
    pub values: Values,
    /// Commands × correct replicas the workload's own run attempted.
    pub attempted: u64,
    /// Correctness misses of any run made in the pass.
    pub misses: Vec<String>,
}

/// Exact protocol rows of one simulator run.
fn protocol_rows(
    v: &mut Values,
    w: &Workload,
    run: &SimRun,
    registry: &Registry,
    bytes_per_frame: f64,
) {
    let slots = run.logs[0].slots as f64;
    let m = &run.metrics;
    let counts = m.kind_counts();
    let kinds = |prefix: &str| -> f64 {
        counts
            .iter()
            .filter(|(kind, _)| kind.starts_with(prefix))
            .map(|(_, count)| *count as f64)
            .sum::<f64>()
            / slots
    };
    let msgs = m.messages_sent as f64 / slots;
    v.set(
        "net.sim.events_per_s",
        m.events_processed as f64 / run.wall_s,
    );
    v.set("net.sim.max_queue_len", m.max_queue_len as f64);
    v.set("core.msgs_per_commit", msgs);
    v.set(
        "core.msgs_per_commit_over_n3",
        msgs / (w.n * w.n * w.n) as f64,
    );
    v.set("core.bytes_per_commit", msgs * bytes_per_frame);
    v.set(
        "core.vticks_per_commit",
        run.last_commit_tick as f64 / slots,
    );
    v.set("broadcast.cb_msgs_per_commit", kinds("CB_VAL/"));
    v.set("core.ac_msgs_per_commit", kinds("AC_EST/"));
    v.set("core.decide_msgs_per_commit", kinds("DECIDE/"));
    v.set("core.ea_msgs_per_commit", kinds("EA_"));
    v.set("core.ea_coord_msgs_per_commit", kinds("EA_COORD"));
    v.set(
        "core.cpu_us_per_msg",
        1e6 * run.cpu_s / m.messages_sent as f64,
    );
    v.set("sim.commit_latency_p50_vticks", run.vlatency.p50 as f64);
    v.set("sim.commit_latency_p95_vticks", run.vlatency.p95 as f64);
    v.set("smr.ack_msgs_per_commit", kinds("SMR_ACK"));
    v.set(
        "smr.batch_fill",
        run.logs[0].commands as f64 / (slots * w.clients as f64),
    );
    v.set("smr.noop_slot_share", run.logs[0].noop_slots as f64 / slots);
    let snapshot = registry.snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    v.set(
        "smr.retired_drops_per_slot",
        counter("smr.retired_drops") / slots,
    );
    v.set("smr.future_drops", counter("smr.future_drops"));
}

/// Rows read off one cluster run; `msgs_per_commit` is the simulator's
/// count for the same population.
fn cluster_rows(v: &mut Values, w: &Workload, run: &ClusterRun, msgs_per_commit: f64) {
    let socket_frames = msgs_per_commit * (w.n - 1) as f64 / w.n as f64;
    let cpu_per_slot = run.cpu.children_s() / run.slots() as f64;
    v.set(
        "transport.cluster.cpu_us_per_frame",
        1e6 * cpu_per_slot / socket_frames,
    );
    v.set(
        "transport.cluster.sys_share",
        run.cpu.children_sys_s / run.cpu.children_s(),
    );
    v.set(
        "transport.mesh.outbound_dropped",
        run.sum_counters("mesh.outbound_dropped.") as f64,
    );
    v.set(
        "transport.mesh.reconnects",
        run.sum_counters("mesh.reconnects") as f64,
    );
    v.set(
        "transport.mesh.decode_disconnects",
        run.sum_counters("mesh.decode_disconnects") as f64,
    );
    v.set(
        "transport.mesh.pings",
        run.sum_counters("mesh.pings") as f64,
    );
}

/// What later rows need from the micro-benchmarks.
struct MicroOut {
    /// Mean frame size of the small corpus, bytes.
    small_bytes: f64,
    /// Mean frame size of the bulk corpus, bytes.
    bulk_bytes: f64,
    /// CPU µs per frame of the mesh stream.
    mesh_cpu_us_per_frame: f64,
}

/// Section 2: the workload-independent micro-benchmarks.
fn micro_rows(
    v: &mut Values,
    (tcp_n4, bulk): (&Workload, &Workload),
    seed: u64,
    budget: Duration,
    spans: &mut Spans,
) -> MicroOut {
    let mut corpus_rows = |w: &Workload, name: &str| {
        let corpus = message_corpus(&w.timely_mirror().with_slots(CORPUS_SLOTS), seed);
        spans.span(name, |s| micro::codec(&corpus, budget, s))
    };
    let small = corpus_rows(tcp_n4, "codec small corpus");
    let large = corpus_rows(bulk, "codec bulk corpus");
    v.set("wire.encode_ns_per_frame.small", small.encode_ns);
    v.set("wire.encode_ns_per_frame.bulk", large.encode_ns);
    v.set("wire.decode_ns_per_frame.small", small.decode_ns);
    v.set("wire.decode_ns_per_frame.bulk", large.decode_ns);
    v.set("wire.bytes_per_frame.small", small.bytes);
    v.set("wire.bytes_per_frame.bulk", large.bytes);
    v.set("auth.mac_ns_per_frame.small", small.mac_ns);
    v.set("auth.mac_ns_per_frame.bulk", large.mac_ns);
    v.set(
        "auth.sha256_mb_per_s",
        micro::sha256_mb_per_s(budget, spans),
    );
    v.set(
        "net.sim.bare_events_per_s",
        micro::bare_sim_events_per_s(budget, spans),
    );
    v.set(
        "workload.generate_ms",
        micro::generate_ms(bulk, seed, budget, spans),
    );
    let mesh = spans.span("mesh pair", |s| micro::mesh(MESH_PINGS, 64, 8, seed, s));
    v.set("transport.mesh.rtt_us_p50", mesh.rtt_us_p50);
    v.set("transport.mesh.rtt_us_p99", mesh.rtt_us_p99);
    v.set("transport.mesh.frames_per_s.small", mesh.frames_per_s_small);
    v.set("transport.mesh.mb_per_s.bulk", mesh.mb_per_s_bulk);
    v.set("transport.mesh.cpu_us_per_frame", mesh.cpu_us_per_frame);
    MicroOut {
        small_bytes: small.bytes,
        bulk_bytes: large.bytes,
        mesh_cpu_us_per_frame: mesh.cpu_us_per_frame,
    }
}

/// Section 3's rows.
fn ledger_rows(v: &mut Values, ledger: &ledger::Ledger) {
    v.set("ledger.protocol_cpu_ms", ledger.protocol_cpu_ms);
    v.set("ledger.threads_cpu_ms", ledger.threads_cpu_ms);
    v.set("ledger.sockets_cpu_ms", ledger.sockets_cpu_ms);
    v.set("ledger.mesh_micro_cpu_ms", ledger.mesh_micro_cpu_ms);
    v.set("ledger.unattributed_pct", ledger.unattributed_pct);
    v.set("net.threaded.ms_per_slot", ledger.threaded_ms_per_slot);
    v.set(
        "net.threaded.cpu_ms_per_slot",
        ledger.threaded_cpu_ms_per_slot,
    );
    v.set("transport.cluster.slot_time_drift", ledger.slot_time_drift);
    let t = &ledger.trace;
    v.set(
        "smr.trace.propose_to_commit_ticks_p50",
        t.propose_to_commit_ticks_p50,
    );
    v.set(
        "smr.trace.commit_to_ack_ticks_p50",
        t.commit_to_ack_ticks_p50,
    );
    v.set(
        "transport.trace.inbox_wait_ticks_p50",
        t.inbox_wait_ticks_p50,
    );
    v.set(
        "transport.trace.inbox_wait_ticks_p99",
        t.inbox_wait_ticks_p99,
    );
    v.set(
        "transport.trace.outbound_wait_ticks_p50",
        t.outbound_wait_ticks_p50,
    );
    v.set(
        "transport.trace.outbound_wait_ticks_p99",
        t.outbound_wait_ticks_p99,
    );
    v.set("transport.trace.encode_ns_p50", t.encode_ns_p50);
    v.set("transport.trace.decode_ns_p50", t.decode_ns_p50);
    v.set("transport.trace.events_per_slot", t.events_per_slot);
    v.set("telemetry.trace_overhead_pct", t.overhead_pct);
}

/// Runs the traced pass for `w`. `seconds` scales the time-boxed
/// micro-benchmarks and the drift run; the other cluster and simulator
/// runs have fixed sizes. Trace dumps go under `out_dir` (and are removed
/// again).
pub fn run(w: &Workload, seed: u64, seconds: f64, out_dir: &Path, spans: &mut Spans) -> PerLayer {
    let mut out = PerLayer::default();
    let budget = Duration::from_secs_f64(seconds / 40.0);
    let tcp_n4 = workload("tcp_n4").expect("tcp_n4 is in the table");
    let bulk = workload("tcp_n4_bulk_auth").expect("tcp_n4_bulk_auth is in the table");

    // Section 1 runs first so the peak resident set it reads is its own.
    let protocol_w = match w.substrate {
        Substrate::Sim => *w,
        Substrate::Tcp => w.timely_mirror(),
    };
    let registry = Arc::new(Registry::new());
    let protocol = spans.span(&format!("net::SimBuilder::run_until {}", w.name), |_| {
        run_sim(&protocol_w, seed, Some(&registry))
    });
    out.values.set("net.sim.peak_rss_mb", peak_rss_mb());
    out.misses
        .extend(check_logs("simulator", &protocol.logs, protocol.total));
    out.attempted = (protocol.total * w.correct()) as u64;
    let protocol_slots = protocol.logs[0].slots as f64;
    let msgs_per_commit = protocol.metrics.messages_sent as f64 / protocol_slots;

    let timely_vticks = if protocol_w.net == Net::Timely {
        protocol.last_commit_tick as f64 / protocol_slots
    } else {
        let mirror = run_sim(
            &w.timely_mirror().with_slots(DELAY_MIRROR_SLOTS),
            seed,
            None,
        );
        mirror.last_commit_tick as f64 / mirror.logs[0].slots as f64
    };
    out.values.set(
        "core.msg_delays_per_commit",
        timely_vticks / TIMELY_DELTA as f64,
    );

    let own_cluster = (w.substrate == Substrate::Tcp).then(|| {
        // Half a trial: enough CPU time for the 10 ms clock, short enough
        // that the pass stays inside its window on the slowest workload.
        let short = w.with_slots(w.trial_slots / 2);
        let reference = run_sim(&short.timely_mirror(), seed, None).logs[0].digest;
        let run = spans.span(&format!("transport::run_cluster {}", w.name), |_| {
            run_tcp(&short.cluster_spec(seed))
        })?;
        out.misses.extend(check_cluster(w.name, &run, reference));
        Ok::<ClusterRun, String>(run)
    });

    let micro = micro_rows(&mut out.values, (&tcp_n4, &bulk), seed, budget, spans);
    // A frame's size follows the batch size, so the corpus recorded at the
    // workload's batch size prices its messages.
    let bytes_per_frame = if w.clients == bulk.clients {
        micro.bulk_bytes
    } else {
        micro.small_bytes
    };
    protocol_rows(&mut out.values, w, &protocol, &registry, bytes_per_frame);

    let n4_sim = (w.name == "sim_n4_timely").then_some(&protocol);
    let ledger = spans.span("ledger", |s| {
        ledger::run(
            seed,
            seconds,
            out_dir,
            n4_sim,
            micro.mesh_cpu_us_per_frame,
            s,
        )
    });
    let ledger = match ledger {
        Ok(ledger) => ledger,
        Err(e) => {
            out.misses.push(format!("ledger: {e}"));
            return out;
        }
    };
    out.misses.extend(ledger.misses.iter().cloned());
    ledger_rows(&mut out.values, &ledger);

    let v = &mut out.values;
    match own_cluster {
        Some(Ok(run)) => {
            cluster_rows(v, w, &run, msgs_per_commit);
            let over_replicas = |pick: fn(&ReplicaStats) -> u64| {
                let ticks: Vec<f64> = run.report.replicas.iter().map(|r| pick(r) as f64).collect();
                median(&ticks) * TICK_MS
            };
            v.set("commit_latency_p95_ms", over_replicas(|r| r.lat_p95));
            v.set("commit_latency_p99_ms", over_replicas(|r| r.lat_p99));
        }
        Some(Err(e)) => out.misses.push(format!("{}: {e}", w.name)),
        None => {
            cluster_rows(v, &tcp_n4, &ledger.cluster, ledger.msgs_per_commit);
            // The simulator's own tail: virtual ticks at the speed it ran.
            v.set(
                "commit_latency_p95_ms",
                protocol.ticks_to_ms(protocol.vlatency.p95),
            );
            v.set(
                "commit_latency_p99_ms",
                protocol.ticks_to_ms(protocol.vlatency.p99),
            );
        }
    }
    out
}
