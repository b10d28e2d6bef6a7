//! Single-layer micro-benchmarks that do not depend on the workload under
//! test: the codec and MAC over recorded message corpora, SHA-256, two
//! `TcpMesh` endpoints talking to each other, the simulator's bare event
//! loop, and population generation.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use minsync_auth::hash::Sha256;
use minsync_auth::{Authenticator, HmacAuthenticator};
use minsync_net::sim::SimBuilder;
use minsync_net::{Env, NetworkTopology, Node};
use minsync_transport::{MeshConfig, MeshReport, TcpMesh};
use minsync_types::ProcessId;
use minsync_wire::{decode_frame, encode_frame, DEFAULT_MAX_FRAME};
use minsync_workload::Batch;

use crate::measure::{median, quantile, CpuTimes, Spans};
use crate::spec::{Msg, Workload};

/// Calls `pass` (which processes `items` items) until `budget` is spent, at
/// least three times, and returns the median nanoseconds per item.
fn ns_per_item(budget: Duration, items: usize, mut pass: impl FnMut()) -> f64 {
    let window = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || window.elapsed() < budget {
        let start = Instant::now();
        pass();
        samples.push(start.elapsed().as_nanos() as f64 / items as f64);
    }
    median(&samples)
}

/// Codec and MAC cost over one message corpus.
#[derive(Clone, Copy, Debug)]
pub struct CodecRow {
    /// `encode_frame` into a reused buffer, ns per frame.
    pub encode_ns: f64,
    /// `decode_frame`, ns per frame.
    pub decode_ns: f64,
    /// Mean frame length including the 4-byte length prefix.
    pub bytes: f64,
    /// `Authenticator::tag` + `verify` over the frame body, ns per frame.
    pub mac_ns: f64,
}

/// Times the codec and the pairwise MAC over `corpus`.
///
/// # Panics
///
/// Panics if a recorded message does not round-trip: the codec rows would
/// time an error path.
pub fn codec(corpus: &[Msg], budget: Duration, spans: &mut Spans) -> CodecRow {
    let frames: Vec<Vec<u8>> = corpus
        .iter()
        .map(|msg| {
            let mut frame = Vec::new();
            encode_frame(msg, &mut frame, DEFAULT_MAX_FRAME).expect("corpus message fits a frame");
            frame
        })
        .collect();
    let bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;

    let mut buf = Vec::new();
    let encode_ns = spans.span("wire::encode_frame", |_| {
        ns_per_item(budget, corpus.len(), || {
            for msg in corpus {
                buf.clear();
                encode_frame(black_box(msg), &mut buf, DEFAULT_MAX_FRAME).expect("fits");
                black_box(&buf);
            }
        })
    });
    let decode_ns = spans.span("wire::decode_frame", |_| {
        ns_per_item(budget, frames.len(), || {
            for frame in &frames {
                let msg: Msg = decode_frame(black_box(&frame[4..])).expect("round-trips");
                black_box(msg);
            }
        })
    });
    let ring = HmacAuthenticator::deal(b"minsync-benchmark", 2);
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    let mac_ns = spans.span("auth::tag+verify", |_| {
        ns_per_item(budget, frames.len(), || {
            for frame in &frames {
                let body = black_box(&frame[4..]);
                let mac = ring[0].tag(p1, body);
                assert!(ring[1].verify(p0, body, &mac), "own tag verifies");
            }
        })
    });
    CodecRow {
        encode_ns,
        decode_ns,
        bytes,
        mac_ns,
    }
}

/// SHA-256 throughput over a 1 MiB buffer, MB/s.
pub fn sha256_mb_per_s(budget: Duration, spans: &mut Spans) -> f64 {
    let data: Vec<u8> = (0..1usize << 20).map(|i| (i * 31) as u8).collect();
    let ns_per_byte = spans.span("auth::Sha256::digest", |_| {
        ns_per_item(budget, data.len(), || {
            black_box(Sha256::digest(black_box(&data)));
        })
    });
    1e3 / ns_per_byte
}

/// The simulator's event loop with nodes that do nothing but pass a token
/// on: events per second with no protocol in the handlers.
pub fn bare_sim_events_per_s(budget: Duration, spans: &mut Spans) -> f64 {
    struct Relay;
    impl Node for Relay {
        type Msg = u64;
        type Output = ();
        fn on_start(&mut self, env: &mut Env<u64, ()>) {
            env.broadcast(0);
        }
        fn on_message(&mut self, _: ProcessId, hops: u64, env: &mut Env<u64, ()>) {
            let next = ProcessId::new((env.me().index() + 1) % env.n());
            env.send(next, hops + 1);
        }
    }
    const EVENTS: u64 = 1_000_000;
    let ns_per_event = spans.span("net::sim bare run", |_| {
        ns_per_item(budget, EVENTS as usize, || {
            let mut builder = SimBuilder::new(NetworkTopology::all_timely(4, 3)).max_events(EVENTS);
            for _ in 0..4 {
                builder = builder.node(Relay);
            }
            let report = builder.build().run();
            assert_eq!(report.metrics.events_processed, EVENTS);
        })
    });
    1e9 / ns_per_event
}

/// Milliseconds to generate `w`'s population.
pub fn generate_ms(w: &Workload, seed: u64, budget: Duration, spans: &mut Spans) -> f64 {
    spans.span("workload::generate", |_| {
        ns_per_item(budget, 1, || {
            black_box(w.population(seed));
        })
    }) / 1e6
}

/// Output of the mesh micro-benchmark nodes: a round trip's nanoseconds
/// (pinger) or an acknowledged burst (streamer).
type MeshOut = u64;
type MeshNode = Box<dyn Node<Msg = Batch, Output = MeshOut>>;

/// Sends one frame, waits for its echo, repeats.
struct Pinger {
    payload: Batch,
    sent_at: Instant,
}

impl Node for Pinger {
    type Msg = Batch;
    type Output = MeshOut;
    fn on_start(&mut self, env: &mut Env<Batch, MeshOut>) {
        self.sent_at = Instant::now();
        env.send(ProcessId::new(1), self.payload.clone());
    }
    fn on_message(&mut self, from: ProcessId, _: Batch, env: &mut Env<Batch, MeshOut>) {
        env.output(self.sent_at.elapsed().as_nanos() as u64);
        self.sent_at = Instant::now();
        env.send(from, self.payload.clone());
    }
}

/// Echoes every frame back.
struct Echo;

impl Node for Echo {
    type Msg = Batch;
    type Output = MeshOut;
    fn on_message(&mut self, from: ProcessId, msg: Batch, env: &mut Env<Batch, MeshOut>) {
        env.send(from, msg);
    }
}

/// Frames per burst of the one-way stream: two bursts in flight stay well
/// inside the mesh's 16 Ki-frame outbound queue, so none is dropped.
const BURST: usize = 2048;

/// Streams bursts of frames one way, keeping two bursts in flight; the
/// sink acknowledges each completed burst with an empty frame.
struct Streamer {
    payload: Batch,
    bursts_left: usize,
}

impl Streamer {
    fn burst(&mut self, env: &mut Env<Batch, MeshOut>) {
        if self.bursts_left == 0 {
            return;
        }
        self.bursts_left -= 1;
        for _ in 0..BURST {
            env.send(ProcessId::new(1), self.payload.clone());
        }
    }
}

impl Node for Streamer {
    type Msg = Batch;
    type Output = MeshOut;
    fn on_start(&mut self, env: &mut Env<Batch, MeshOut>) {
        self.burst(env);
        self.burst(env);
    }
    fn on_message(&mut self, _: ProcessId, _: Batch, env: &mut Env<Batch, MeshOut>) {
        env.output(1);
        self.burst(env);
    }
}

/// Counts frames and acknowledges every full burst.
struct Sink {
    got: usize,
}

impl Node for Sink {
    type Msg = Batch;
    type Output = MeshOut;
    fn on_message(&mut self, from: ProcessId, _: Batch, env: &mut Env<Batch, MeshOut>) {
        self.got += 1;
        if self.got % BURST == 0 {
            env.send(from, Batch(Vec::new()));
        }
    }
}

/// Runs `active` as process 0 and `passive` as process 1 on two `TcpMesh`
/// endpoints of this process until process 0 has produced `outputs`
/// outputs; returns process 0's report. Process 1 runs on a second thread
/// and is stopped and joined before this returns.
fn run_pair(active: MeshNode, passive: MeshNode, outputs: usize, seed: u64) -> MeshReport<MeshOut> {
    let any: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
    let mesh0 = TcpMesh::bind(ProcessId::new(0), any).expect("binding a loopback port");
    let mesh1 = TcpMesh::bind(ProcessId::new(1), any).expect("binding a loopback port");
    let peers = [
        mesh0.local_addr().expect("bound socket has an address"),
        mesh1.local_addr().expect("bound socket has an address"),
    ];
    let config = MeshConfig {
        seed,
        ..MeshConfig::default()
    };
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| mesh1.run(passive, &peers, &config, |_, _| done.load(Ordering::SeqCst)));
        let report = mesh0.run(active, &peers, &config, |outs, _| outs.len() >= outputs);
        done.store(true, Ordering::SeqCst);
        report
    })
}

/// The transport rows measured on a two-endpoint mesh.
#[derive(Clone, Copy, Debug)]
pub struct MeshRow {
    /// Median 64-byte ping-pong round trip, µs.
    pub rtt_us_p50: f64,
    /// 99th percentile of the same, µs.
    pub rtt_us_p99: f64,
    /// One-way 64-byte frames per second.
    pub frames_per_s_small: f64,
    /// One-way 4 KiB frames, payload MB per second.
    pub mb_per_s_bulk: f64,
    /// CPU of both endpoints per 64-byte frame streamed, µs.
    pub cpu_us_per_frame: f64,
}

/// Measures the mesh rows: `pings` sequential round trips, then
/// `small_bursts` and `bulk_bursts` bursts of [`BURST`] frames one way.
///
/// # Panics
///
/// Panics if a run times out or drops a frame: the rows would be wrong.
pub fn mesh(
    pings: usize,
    small_bursts: usize,
    bulk_bursts: usize,
    seed: u64,
    spans: &mut Spans,
) -> MeshRow {
    let small = Batch((0..8).collect()); // 8 × u64 = 64 bytes of payload
    let bulk = Batch((0..512).collect()); // 4 KiB, the bulk workload's value size

    let pinger = Pinger {
        payload: small.clone(),
        sent_at: Instant::now(),
    };
    let report = spans.span("transport::TcpMesh ping-pong", |_| {
        run_pair(Box::new(pinger), Box::new(Echo), pings, seed)
    });
    assert!(!report.timed_out, "mesh ping-pong timed out");
    let rtts: Vec<f64> = report
        .outputs
        .iter()
        .map(|o| o.event as f64 / 1e3)
        .collect();

    let mut stream = |payload: &Batch, bursts: usize, name: &str| {
        let cpu = CpuTimes::now();
        let report = spans.span(name, |_| {
            let streamer = Streamer {
                payload: payload.clone(),
                bursts_left: bursts,
            };
            run_pair(Box::new(streamer), Box::new(Sink { got: 0 }), bursts, seed)
        });
        let cpu_s = CpuTimes::now().since(cpu).own_s;
        assert!(!report.timed_out, "mesh stream timed out");
        assert_eq!(
            report.outbound_dropped.iter().sum::<u64>(),
            0,
            "mesh stream dropped frames"
        );
        let frames = (bursts * BURST) as f64;
        let seconds = report.outputs[bursts - 1].elapsed.as_secs_f64();
        (frames / seconds, 1e6 * cpu_s / frames)
    };
    let (frames_per_s_small, cpu_us_per_frame) =
        stream(&small, small_bursts, "transport::TcpMesh stream small");
    let (frames_per_s_bulk, _) = stream(&bulk, bulk_bursts, "transport::TcpMesh stream bulk");

    MeshRow {
        rtt_us_p50: median(&rtts),
        rtt_us_p99: quantile(&rtts, 0.99),
        frames_per_s_small,
        mb_per_s_bulk: frames_per_s_bulk * (bulk.len() * 8) as f64 / 1e6,
        cpu_us_per_frame,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;
    use crate::substrate::message_corpus;

    #[test]
    fn codec_rows_are_positive_on_a_real_corpus() {
        let corpus = message_corpus(&workload("sim_n4_timely").unwrap().with_slots(2), 1);
        let row = codec(&corpus, Duration::from_millis(5), &mut Spans::new(false));
        assert!(row.encode_ns > 0.0 && row.decode_ns > 0.0 && row.mac_ns > 0.0);
        assert!(row.bytes > 4.0);
    }

    #[test]
    fn mesh_pair_round_trips_and_streams() {
        let row = mesh(50, 2, 2, 1, &mut Spans::new(false));
        assert!(row.rtt_us_p50 > 0.0 && row.rtt_us_p99 >= row.rtt_us_p50);
        assert!(row.frames_per_s_small > 0.0 && row.mb_per_s_bulk > 0.0);
    }

    #[test]
    fn bare_simulator_processes_its_event_cap() {
        let rate = bare_sim_events_per_s(Duration::from_millis(1), &mut Spans::new(false));
        assert!(rate > 0.0);
    }
}
