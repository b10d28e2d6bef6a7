//! The `tcp_n4` add-up ROADMAP item 1 asks for: what one slot costs on the
//! simulator, on the threaded runtime and on the TCP cluster, how much of
//! the difference the mesh micro-benchmark explains, and what is left over.
//! Also the two extra `tcp_n4` runs that look inside the replicas through
//! artifacts they already produce: the `STAT-STREAM` series (slot-time
//! drift) and the `--trace` dumps (queue waits, codec time, stage times).

use std::path::Path;
use std::time::Duration;

use minsync_telemetry::{
    codec_timing, parse_dump, queue_residency, queues, slot_timelines, stage_breakdown, watch_name,
    TimeSeries,
};

use crate::measure::{median, Spans};
use crate::spec::{workload, Workload};
use crate::substrate::{
    check_cluster, check_logs, run_sim, run_tcp, run_threaded_pop, ClusterRun, SimRun,
};

/// Slots of the traced and the matching untraced cluster run. A replica
/// records ≈ 1.3k events per slot into a ring of `1 << 16`, so 40 slots
/// fit with room to spare while 100 would already overwrite half.
const TRACED_SLOTS: usize = 40;
/// Slots of the threaded-runtime run.
const THREADED_SLOTS: usize = 500;
/// Slots of the drift run per second of the pass's window. At the 12 s the
/// driver uses, a quarter of the run spans a dozen 50 ms samples; the
/// O(history) cost the row looks for needs `--seconds 60` to rise above the
/// noise.
const DRIFT_SLOTS_PER_SECOND: f64 = 50.0;
/// Sampling period of the drift run.
const DRIFT_PERIOD: Duration = Duration::from_millis(50);

/// What the traced `tcp_n4` run shows, read through `minsync_telemetry`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceRows {
    /// Median propose→commit time of a slot, ticks.
    pub propose_to_commit_ticks_p50: f64,
    /// Median commit→ack-quorum time of a slot, ticks.
    pub commit_to_ack_ticks_p50: f64,
    /// Median wait of a message in a replica's inbox, ticks.
    pub inbox_wait_ticks_p50: f64,
    /// 99th percentile of the same.
    pub inbox_wait_ticks_p99: f64,
    /// Median over the per-peer outbound queues of the queue's median wait.
    pub outbound_wait_ticks_p50: f64,
    /// The worst outbound queue's 99th-percentile wait.
    pub outbound_wait_ticks_p99: f64,
    /// Median encode time of a frame inside the mesh, ns.
    pub encode_ns_p50: f64,
    /// Median decode time of a frame inside the mesh, ns.
    pub decode_ns_p50: f64,
    /// Trace events a replica records per committed slot.
    pub events_per_slot: f64,
    /// Wall-clock per slot of the traced run over the untraced one, minus
    /// one, in percent.
    pub overhead_pct: f64,
}

/// Everything the ledger section measured.
#[derive(Debug)]
pub struct Ledger {
    /// Messages per committed slot of `sim_n4_timely`.
    pub msgs_per_commit: f64,
    /// CPU ms per slot of the protocol alone (`sim_n4_timely`).
    pub protocol_cpu_ms: f64,
    /// Threaded runtime minus simulator: threads, channels, timers.
    pub threads_cpu_ms: f64,
    /// TCP cluster minus threaded runtime: sockets, codec, processes.
    pub sockets_cpu_ms: f64,
    /// What the mesh micro-benchmark predicts for the socket frames of one
    /// slot.
    pub mesh_micro_cpu_ms: f64,
    /// Share of the cluster's CPU per slot the three rows above leave
    /// unexplained, percent.
    pub unattributed_pct: f64,
    /// Wall-clock per slot on the threaded runtime, ms.
    pub threaded_ms_per_slot: f64,
    /// CPU per slot on the threaded runtime, ms.
    pub threaded_cpu_ms_per_slot: f64,
    /// ms/slot over slots 5/8–7/8 of the drift run divided by ms/slot over
    /// slots 1/8–3/8; 1.0 means slot time does not grow with history.
    pub slot_time_drift: f64,
    /// The traced run's rows.
    pub trace: TraceRows,
    /// The plain 250-slot `tcp_n4` run the add-up used.
    pub cluster: ClusterRun,
    /// Correctness misses of any run made here.
    pub misses: Vec<String>,
}

/// Wall-clock tick at which `series`' `gauge` first reached `level`,
/// interpolated between the two samples around the crossing.
fn crossing(series: &TimeSeries, gauge: &str, level: f64) -> Option<f64> {
    let mut prev = (0.0, 0.0);
    for point in series.points() {
        let at = point.at as f64;
        let value = point.values.gauge(gauge).unwrap_or(0) as f64;
        if value >= level {
            let span = value - prev.1;
            let share = if span > 0.0 {
                (level - prev.1) / span
            } else {
                1.0
            };
            return Some(prev.0 + (at - prev.0) * share);
        }
        prev = (at, value);
    }
    None
}

/// Late-quarter over early-quarter slot time of replica 0 in a sampled run
/// of `slots` slots; `None` if the series never covered the run.
fn slot_time_drift(run: &ClusterRun, slots: usize) -> Option<f64> {
    let series = &run.report.replicas.first()?.series;
    let gauge = watch_name(0, "commit_floor");
    let at = |eighths: f64| crossing(series, &gauge, slots as f64 * eighths / 8.0);
    let early = at(3.0)? - at(1.0)?;
    let late = at(7.0)? - at(5.0)?;
    (early > 0.0).then(|| late / early)
}

/// Reads the replicas' trace dumps out of `dir` and reduces them.
fn read_traces(dir: &Path, replicas: usize, slots: u64) -> Result<TraceRows, String> {
    let mut events = Vec::new();
    for id in 0..replicas {
        let path = dir.join(format!("trace-{id}.jsonl"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let dump = parse_dump(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        if dump.dropped != 0 {
            return Err(format!(
                "trace ring of replica {id} dropped {} events",
                dump.dropped
            ));
        }
        events.extend(dump.events);
    }
    let stages = stage_breakdown(&slot_timelines(&events));
    let stage_p50 = |label: &str| {
        stages
            .iter()
            .find(|s| s.stage == label)
            .map_or(0.0, |s| s.latency.p50 as f64)
    };
    let residency = queue_residency(&events);
    let inbox = residency
        .iter()
        .find(|(queue, _)| *queue == queues::INBOX)
        .map(|(_, p)| *p)
        .unwrap_or_default();
    let outbound: Vec<_> = residency
        .iter()
        .filter(|(queue, _)| *queue >= queues::OUTBOUND_BASE)
        .map(|(_, p)| *p)
        .collect();
    let codec = codec_timing(&events);
    let codec_p50 = |which: &str| {
        codec
            .iter()
            .find(|(name, _)| *name == which)
            .map_or(0.0, |(_, p)| p.p50 as f64)
    };
    Ok(TraceRows {
        propose_to_commit_ticks_p50: stage_p50("propose→commit"),
        commit_to_ack_ticks_p50: stage_p50("commit→ack-quorum"),
        inbox_wait_ticks_p50: inbox.p50 as f64,
        inbox_wait_ticks_p99: inbox.p99 as f64,
        outbound_wait_ticks_p50: if outbound.is_empty() {
            0.0
        } else {
            median(&outbound.iter().map(|p| p.p50 as f64).collect::<Vec<_>>())
        },
        outbound_wait_ticks_p99: outbound.iter().map(|p| p.p99 as f64).fold(0.0, f64::max),
        encode_ns_p50: codec_p50("encode"),
        decode_ns_p50: codec_p50("decode"),
        events_per_slot: events.len() as f64 / replicas as f64 / slots.max(1) as f64,
        overhead_pct: 0.0,
    })
}

/// Runs the ledger section. `n4_sim` is a finished `sim_n4_timely` run if
/// the caller already has one; `mesh_cpu_us_per_frame` feeds the
/// micro-benchmark prediction. Trace dumps go under `out_dir` and are removed again.
pub fn run(
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    n4_sim: Option<&SimRun>,
    mesh_cpu_us_per_frame: f64,
    spans: &mut Spans,
) -> Result<Ledger, String> {
    let tcp_n4 = workload("tcp_n4").expect("tcp_n4 is in the table");
    let mut misses = Vec::new();

    let own_sim;
    let sim = match n4_sim {
        Some(run) => run,
        None => {
            let w = workload("sim_n4_timely").expect("sim_n4_timely is in the table");
            own_sim = spans.span("net::SimBuilder::run_until sim_n4_timely", |_| {
                run_sim(&w, seed, None)
            });
            misses.extend(check_logs("ledger simulator", &own_sim.logs, own_sim.total));
            &own_sim
        }
    };
    let sim_slots = sim.logs[0].slots as f64;
    let protocol_cpu_ms = 1e3 * sim.cpu_s / sim_slots;
    let msgs_per_commit = sim.metrics.messages_sent as f64 / sim_slots;

    // The reference log of tcp_n4's own population, for the threaded and
    // cluster runs below.
    let reference = |w: &Workload| run_sim(&w.timely_mirror(), seed, None).logs[0].digest;

    let threaded_w = tcp_n4.with_slots(THREADED_SLOTS);
    let threaded = spans.span("net::threaded::run_threaded", |_| {
        run_threaded_pop(&threaded_w, seed)
    });
    if threaded.timed_out {
        misses.push("threaded run timed out".into());
    }
    let total = threaded_w.trial_slots * threaded_w.clients;
    misses.extend(check_logs("threaded", &threaded.logs, total));
    if threaded.logs[0].digest != reference(&threaded_w) {
        misses.push("threaded log digest differs from the simulator's".into());
    }
    let threaded_slots = threaded.logs[0].slots as f64;
    let threaded_cpu_ms_per_slot = 1e3 * threaded.cpu_s / threaded_slots;

    let cluster = spans.span("transport::run_cluster tcp_n4", |_| {
        run_tcp(&tcp_n4.cluster_spec(seed))
    })?;
    misses.extend(check_cluster("ledger tcp_n4", &cluster, reference(&tcp_n4)));
    let tcp_cpu_ms = 1e3 * cluster.cpu.children_s() / cluster.slots() as f64;

    let socket_frames = msgs_per_commit * (tcp_n4.n - 1) as f64 / tcp_n4.n as f64;
    let mesh_micro_cpu_ms = mesh_cpu_us_per_frame * socket_frames / 1e3;
    let threads_cpu_ms = threaded_cpu_ms_per_slot - protocol_cpu_ms;
    let sockets_cpu_ms = tcp_cpu_ms - threaded_cpu_ms_per_slot;

    let drift_slots = (seconds * DRIFT_SLOTS_PER_SECOND) as usize;
    let drift_w = tcp_n4.with_slots(drift_slots);
    let drift_run = spans.span("transport::run_cluster tcp_n4 sampled", |_| {
        run_tcp(&minsync_transport::ClusterSpec {
            stats_period: Some(DRIFT_PERIOD),
            ..drift_w.cluster_spec(seed)
        })
    })?;
    let slot_time_drift = slot_time_drift(&drift_run, drift_slots).unwrap_or_else(|| {
        misses.push("drift run: the stat stream did not cover the run".into());
        0.0
    });

    let traced_w = tcp_n4.with_slots(TRACED_SLOTS);
    let untraced = spans.span("transport::run_cluster tcp_n4 untraced pair", |_| {
        run_tcp(&traced_w.cluster_spec(seed))
    })?;
    let trace_dir = out_dir.join(format!("trace-{}", std::process::id()));
    std::fs::create_dir_all(&trace_dir)
        .map_err(|e| format!("creating {}: {e}", trace_dir.display()))?;
    let traced = spans.span("transport::run_cluster tcp_n4 traced pair", |_| {
        run_tcp(&minsync_transport::ClusterSpec {
            trace_dir: Some(trace_dir.clone()),
            ..traced_w.cluster_spec(seed)
        })
    });
    let trace = traced.and_then(|traced| {
        let mut rows = read_traces(&trace_dir, traced_w.n, traced.slots())?;
        let per_slot = |run: &ClusterRun| run.wall_s() / run.slots() as f64;
        rows.overhead_pct = 100.0 * (per_slot(&traced) / per_slot(&untraced) - 1.0);
        Ok(rows)
    });
    let _ = std::fs::remove_dir_all(&trace_dir);
    let trace = trace.unwrap_or_else(|e| {
        misses.push(format!("traced run: {e}"));
        TraceRows::default()
    });

    Ok(Ledger {
        msgs_per_commit,
        protocol_cpu_ms,
        threads_cpu_ms,
        sockets_cpu_ms,
        mesh_micro_cpu_ms,
        unattributed_pct: 100.0 * (sockets_cpu_ms - mesh_micro_cpu_ms) / tcp_cpu_ms,
        threaded_ms_per_slot: 1e3 * threaded.wall_s / threaded_slots,
        threaded_cpu_ms_per_slot,
        slot_time_drift,
        trace,
        cluster,
        misses,
    })
}
