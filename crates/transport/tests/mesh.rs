//! Mesh-level integration tests: real sockets on 127.0.0.1, one mesh
//! instance per thread, adversarial byte streams poked in by hand.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use minsync_auth::HmacAuthenticator;
use minsync_net::{Env, Node, TimerId};
use minsync_telemetry::Registry;
use minsync_transport::mesh::{
    LinkFaults, MeshConfig, MeshCounters, MeshOutput, MeshReport, TcpMesh,
};
use minsync_types::{fnv1a, ProcessId};
use minsync_wire::{
    encode_frame, encode_frame_tagged, Hello, DEFAULT_MAX_FRAME, HELLO_LEN, WIRE_VERSION,
};

/// Outputs every message it receives.
struct Collector;

impl Node for Collector {
    type Msg = u64;
    type Output = u64;

    fn on_message(&mut self, _from: ProcessId, msg: u64, env: &mut Env<u64, u64>) {
        env.output(msg);
    }
}

/// Broadcasts `value` once at start, then collects.
struct Caster(u64);

impl Node for Caster {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, env: &mut Env<u64, u64>) {
        env.broadcast(self.0);
    }

    fn on_message(&mut self, _from: ProcessId, msg: u64, env: &mut Env<u64, u64>) {
        env.output(msg);
    }
}

fn quick_config() -> MeshConfig {
    MeshConfig {
        timeout: Duration::from_secs(20),
        ..MeshConfig::default()
    }
}

/// `config` with a fresh registry attached, so a test reads the run's final
/// `mesh.*` counters from its snapshot.
fn registered(config: MeshConfig) -> (MeshConfig, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let config = MeshConfig {
        registry: Some(Arc::clone(&registry)),
        ..config
    };
    (config, registry)
}

/// Final value of counter `name` in `registry`.
fn counter(registry: &Registry, name: &str) -> u64 {
    registry
        .snapshot()
        .counter(name)
        .expect("mesh counter interned")
}

/// Two mesh instances exchange broadcasts: every process sees both values
/// (its peer's over TCP, its own over the self-channel).
#[test]
fn two_meshes_broadcast_to_each_other() {
    let a = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let b = TcpMesh::bind(ProcessId::new(1), "127.0.0.1:0".parse().unwrap()).unwrap();
    let peers = vec![a.local_addr().unwrap(), b.local_addr().unwrap()];
    let peers_b = peers.clone();
    let handle = std::thread::spawn(move || {
        b.run(
            Box::new(Caster(200)),
            &peers_b,
            &quick_config(),
            |outs, _| outs.len() >= 2,
        )
    });
    let (config_a, registry_a) = registered(quick_config());
    let report_a = a.run(Box::new(Caster(100)), &peers, &config_a, |outs, _| {
        outs.len() >= 2
    });
    let report_b = handle.join().unwrap();
    let sorted = |r: &MeshReport<u64>| {
        let mut v: Vec<u64> = r.outputs.iter().map(|o| o.event).collect();
        v.sort_unstable();
        v
    };
    assert!(!report_a.timed_out && !report_b.timed_out);
    assert_eq!(sorted(&report_a), [100, 200]);
    assert_eq!(sorted(&report_b), [100, 200]);
    assert_eq!(counter(&registry_a, "mesh.decode_disconnects"), 0);
}

/// The RTT plumbing measures live links: after a couple of keepalive
/// periods each side's ping has been echoed back, so the per-peer
/// `link.rtt_ewma` gauge is populated (and exported through the registry)
/// while the self slot stays unmeasured.
#[test]
fn rtt_probes_populate_per_peer_gauges() {
    use std::time::Instant;

    let a = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let b = TcpMesh::bind(ProcessId::new(1), "127.0.0.1:0".parse().unwrap()).unwrap();
    let peers = vec![a.local_addr().unwrap(), b.local_addr().unwrap()];
    let registry = Arc::new(Registry::new());
    let config = MeshConfig {
        timeout: Duration::from_secs(20),
        keepalive: Duration::from_millis(10),
        registry: Some(Arc::clone(&registry)),
        ..MeshConfig::default()
    };
    let config_b = MeshConfig {
        registry: None,
        ..config.clone()
    };
    let peers_b = peers.clone();
    let handle = std::thread::spawn(move || {
        let hold = Instant::now();
        let mut rtt_b = 0;
        let report = b.run(Box::new(Caster(200)), &peers_b, &config_b, |outs, c| {
            rtt_b = c.rtt_ewma(0);
            // Stay up long enough for a's ping to be echoed back.
            !outs.is_empty() && hold.elapsed() >= Duration::from_millis(300)
        });
        (report, rtt_b)
    });
    let hold = Instant::now();
    let report_a = a.run(Box::new(Caster(100)), &peers, &config, move |_, c| {
        c.rtt_ewma(1) > 0 && hold.elapsed() >= Duration::from_millis(300)
    });
    let (report_b, rtt_b) = handle.join().unwrap();
    assert!(!report_a.timed_out && !report_b.timed_out);
    let snapshot = registry.snapshot();
    assert!(
        snapshot.counter("mesh.pings") > Some(0),
        "idle cadence sends probes"
    );
    let rtt = snapshot.gauge("link.rtt_ewma.p1").expect("peer gauge");
    assert!(rtt > 0, "peer link measured");
    assert_eq!(
        snapshot.gauge("link.rtt_ewma.p0"),
        Some(0),
        "self slot never measured"
    );
    // A loopback round trip sits far below a second: the estimate must be
    // in a sane range, not just nonzero (tick = 200µs → 5000 ticks/s).
    assert!(
        rtt < 5_000,
        "rtt_ewma {rtt} ticks is implausible for loopback"
    );
    assert!(snapshot.gauge("link.backlog.p1").is_some());
    // b ran without a registry: its private handles still measured.
    assert!(rtt_b > 0, "detached gauges still measure");
}

/// Timers fire and cancel through the shared generation table, mapped to
/// wall-clock deadlines.
#[test]
fn mesh_timers_fire_and_cancel() {
    struct TimerNode;
    impl Node for TimerNode {
        type Msg = u64;
        type Output = &'static str;

        fn on_start(&mut self, env: &mut Env<u64, &'static str>) {
            let keep = env.set_timer(3);
            let cancel = env.set_timer(1);
            env.cancel_timer(cancel);
            let _ = keep;
        }

        fn on_message(&mut self, _: ProcessId, _: u64, _: &mut Env<u64, &'static str>) {}

        fn on_timer(&mut self, _t: TimerId, env: &mut Env<u64, &'static str>) {
            env.output("fired");
        }
    }

    let a = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    // Peer 1 never exists; its dials just back off in the background.
    let peers = vec![
        a.local_addr().unwrap(),
        "127.0.0.1:1".parse::<SocketAddr>().unwrap(),
    ];
    let report = a.run(Box::new(TimerNode), &peers, &quick_config(), |outs, _| {
        !outs.is_empty()
    });
    assert!(!report.timed_out);
    assert_eq!(report.outputs.len(), 1, "cancelled timer must not fire");
    assert_eq!(report.outputs[0].event, "fired");
}

/// Byzantine bytes cost the sender its connection, never the receiver its
/// process: a garbage frame after a valid handshake is cut with a
/// decode-disconnect, a foreign protocol is cut at the handshake, an
/// oversized frame announcement is cut at its header — and honest traffic
/// keeps flowing throughout.
#[test]
fn garbage_bytes_disconnect_the_peer_not_the_process() {
    let mesh = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = mesh.local_addr().unwrap();
    let peers = vec![addr, "127.0.0.1:1".parse().unwrap()];

    let poker = std::thread::spawn(move || {
        let hello = Hello::new(ProcessId::new(1), 2).encode();
        // 1. Valid handshake, then a frame whose payload cannot be one
        //    u64: nine bytes decode eight and leave one trailing.
        let mut s1 = TcpStream::connect(addr).unwrap();
        s1.write_all(&hello).unwrap();
        s1.write_all(&9u32.to_le_bytes()).unwrap();
        s1.write_all(&[0xFF; 9]).unwrap();
        // 2. A foreign protocol: rejected at the handshake.
        let mut s2 = TcpStream::connect(addr).unwrap();
        s2.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        // 3. Valid handshake, then an absurd frame length announcement.
        let mut s3 = TcpStream::connect(addr).unwrap();
        s3.write_all(&hello).unwrap();
        s3.write_all(&u32::MAX.to_le_bytes()).unwrap();
        // 4. A version from the future: rejected at the handshake.
        let mut future = hello.clone();
        future[4..6].copy_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
        let mut s4 = TcpStream::connect(addr).unwrap();
        s4.write_all(&future).unwrap();
        // 5. Honest traffic, delivered in two split writes (partial-read
        //    tolerance), still goes through after all of the above.
        let mut s5 = TcpStream::connect(addr).unwrap();
        s5.write_all(&hello).unwrap();
        let mut frame = Vec::new();
        encode_frame(&42u64, &mut frame, DEFAULT_MAX_FRAME).unwrap();
        let (head, tail) = frame.split_at(3);
        s5.write_all(head).unwrap();
        s5.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        s5.write_all(tail).unwrap();
        // Hold the honest sockets open until the mesh stops, so their
        // teardown cannot race the assertions.
        std::thread::sleep(Duration::from_millis(500));
        drop((s1, s2, s3, s4, s5));
    });

    let (config, registry) = registered(quick_config());
    let report = mesh.run(Box::new(Collector), &peers, &config, |outs, counters| {
        outs.iter().any(|o| o.event == 42)
            && counters.decode_disconnects() >= 2
            && counters.handshake_rejects() >= 2
    });
    poker.join().unwrap();
    assert!(!report.timed_out, "mesh survived and delivered");
    assert_eq!(report.outputs.len(), 1);
    assert_eq!(report.outputs[0].event, 42);
    assert!(
        counter(&registry, "mesh.decode_disconnects") >= 2,
        "garbage frame + oversized header"
    );
    assert!(
        counter(&registry, "mesh.handshake_rejects") >= 2,
        "bad magic + future version"
    );
}

/// The handshake pins the cluster size and forbids claiming the host's own
/// id — both rejected without reading protocol traffic.
#[test]
fn handshake_rejects_wrong_cluster_and_impersonation() {
    let mesh = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = mesh.local_addr().unwrap();
    let peers = vec![addr, "127.0.0.1:1".parse().unwrap()];
    let poker = std::thread::spawn(move || {
        // Wrong cluster size.
        let mut s1 = TcpStream::connect(addr).unwrap();
        s1.write_all(&Hello::new(ProcessId::new(1), 9).encode())
            .unwrap();
        // Claiming the host's own id.
        let mut s2 = TcpStream::connect(addr).unwrap();
        s2.write_all(&Hello::new(ProcessId::new(0), 2).encode())
            .unwrap();
        std::thread::sleep(Duration::from_millis(300));
        drop((s1, s2));
    });
    let (config, registry) = registered(quick_config());
    let report = mesh.run(Box::new(Collector), &peers, &config, |_, counters| {
        counters.handshake_rejects() >= 2
    });
    poker.join().unwrap();
    assert!(!report.timed_out);
    assert_eq!(counter(&registry, "mesh.handshake_rejects"), 2);
    assert!(report.outputs.is_empty(), "no traffic was ever accepted");
}

/// A writer whose connection is cut reconnects with backoff and re-sends
/// its handshake; frames in flight when the connection broke ride the
/// replay ring back out, and later messages flow again.
#[test]
fn writer_reconnects_after_peer_drops_the_connection() {
    struct Beacon;
    impl Node for Beacon {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, env: &mut Env<u64, u64>) {
            env.send(ProcessId::new(1), 0);
            env.set_timer(1);
        }

        fn on_message(&mut self, _: ProcessId, _: u64, _: &mut Env<u64, u64>) {}

        fn on_timer(&mut self, _t: TimerId, env: &mut Env<u64, u64>) {
            env.send(ProcessId::new(1), 0);
            env.set_timer(1);
        }
    }

    // A hand-rolled "peer 1": accept, read the hello, slam the door, then
    // accept again and verify the handshake comes back.
    let peer = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer_addr = peer.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let read_hello = |stream: &mut TcpStream| {
            let mut buf = [0u8; HELLO_LEN];
            stream.read_exact(&mut buf).unwrap();
            Hello::decode(&mut buf.as_slice()).unwrap()
        };
        let (mut first, _) = peer.accept().unwrap();
        let hello = read_hello(&mut first);
        assert_eq!(hello.sender, ProcessId::new(0));
        drop(first); // cut the connection mid-stream
        let (mut second, _) = peer.accept().unwrap();
        let hello = read_hello(&mut second);
        assert_eq!(hello.sender, ProcessId::new(0), "handshake re-sent");
        // Keep reading so the beacon's writes succeed until shutdown.
        let mut sink = [0u8; 1024];
        second
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        loop {
            match second.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
        }
    });

    let mesh = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let peers = vec![mesh.local_addr().unwrap(), peer_addr];
    let (config, registry) = registered(quick_config());
    let report = mesh.run(Box::new(Beacon), &peers, &config, |_, counters| {
        counters.reconnects() >= 1
    });
    assert!(!report.timed_out, "writer reconnected");
    assert!(counter(&registry, "mesh.reconnects") >= 1);
    server.join().unwrap();
}

/// Completing a handshake supersedes any older connection claiming the
/// same sender: an attacker (or a stale half-open connection) cannot pin
/// connection slots by holding hello'd sockets open.
#[test]
fn newer_connection_from_a_sender_supersedes_the_older_one() {
    let mesh = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = mesh.local_addr().unwrap();
    let peers = vec![addr, "127.0.0.1:1".parse().unwrap()];
    let poker = std::thread::spawn(move || {
        let hello = Hello::new(ProcessId::new(1), 2).encode();
        let frame = |v: u64| {
            let mut f = Vec::new();
            encode_frame(&v, &mut f, DEFAULT_MAX_FRAME).unwrap();
            f
        };
        // First connection delivers 1…
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(&hello).unwrap();
        first.write_all(&frame(1)).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // …then a second connection claims the same sender.
        let mut second = TcpStream::connect(addr).unwrap();
        second.write_all(&hello).unwrap();
        // Give the first reader time to notice it was superseded, then try
        // to sneak a frame through it: it must never be delivered.
        std::thread::sleep(Duration::from_millis(300));
        let _ = first.write_all(&frame(99));
        std::thread::sleep(Duration::from_millis(100));
        second.write_all(&frame(2)).unwrap();
        // Hold the live socket open until the mesh stops.
        std::thread::sleep(Duration::from_millis(500));
        drop((first, second));
    });
    let mut seen_two_since = None;
    let report = mesh.run(
        Box::new(Collector),
        &peers,
        &quick_config(),
        move |outs, _| {
            // Wait a grace period past the delivery of 2, so a stray 99
            // would have had time to arrive before we assert.
            if outs.iter().any(|o| o.event == 2) {
                let at = *seen_two_since.get_or_insert_with(std::time::Instant::now);
                return at.elapsed() > Duration::from_millis(200);
            }
            false
        },
    );
    poker.join().unwrap();
    assert!(!report.timed_out);
    let events: Vec<u64> = report.outputs.iter().map(|o| o.event).collect();
    assert_eq!(
        events,
        [1, 2],
        "superseded connection's frame must not land"
    );
}

/// Injected link faults partition a live mesh and heal without any
/// reconnect: while the fault is up, outbound frames toward the blocked
/// peer are counted as drops and never hit the socket; after `heal()` the
/// very next send goes through and the peer's reply comes back.
#[test]
fn link_faults_block_then_heal_outbound_traffic() {
    /// Sends `7` toward peer 1 every tick until peer 1's echo arrives.
    struct Beacon;
    impl Node for Beacon {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, env: &mut Env<u64, u64>) {
            env.send(ProcessId::new(1), 7);
            env.set_timer(1);
        }

        fn on_message(&mut self, _: ProcessId, msg: u64, env: &mut Env<u64, u64>) {
            env.output(msg);
        }

        fn on_timer(&mut self, _t: TimerId, env: &mut Env<u64, u64>) {
            env.send(ProcessId::new(1), 7);
            env.set_timer(1);
        }
    }
    /// Echoes everything back to process 0.
    struct Echo;
    impl Node for Echo {
        type Msg = u64;
        type Output = u64;

        fn on_message(&mut self, _: ProcessId, msg: u64, env: &mut Env<u64, u64>) {
            env.send(ProcessId::new(0), msg + 1);
            env.output(msg);
        }
    }

    let faults = Arc::new(LinkFaults::new(2));
    faults.block(1);
    assert!(faults.is_blocked(1) && !faults.is_blocked(0));

    let a = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let b = TcpMesh::bind(ProcessId::new(1), "127.0.0.1:0".parse().unwrap()).unwrap();
    let peers = vec![a.local_addr().unwrap(), b.local_addr().unwrap()];
    let peers_b = peers.clone();
    // B lingers past its first echo, so the reply has long left its queue
    // when it stops.
    let mut served_since = None;
    let echo = std::thread::spawn(move || {
        b.run(Box::new(Echo), &peers_b, &quick_config(), move |outs, _| {
            if outs.is_empty() {
                return false;
            }
            let at = *served_since.get_or_insert_with(std::time::Instant::now);
            at.elapsed() > Duration::from_millis(300)
        })
    });
    let healer = {
        let faults = Arc::clone(&faults);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            faults.heal();
        })
    };
    let config = MeshConfig {
        faults: Some(Arc::clone(&faults)),
        ..quick_config()
    };
    let report_a = a.run(Box::new(Beacon), &peers, &config, |outs, _| {
        !outs.is_empty()
    });
    let report_b = echo.join().unwrap();
    healer.join().unwrap();
    assert!(!report_a.timed_out && !report_b.timed_out);
    assert_eq!(report_a.outputs[0].event, 8, "echo landed after the heal");
    assert_eq!(report_b.outputs[0].event, 7);
    assert!(
        report_a.outbound_dropped[1] >= 1,
        "partition-era sends were counted as drops, got {:?}",
        report_a.outbound_dropped
    );
}

/// `set_blocked` replaces the whole blocked set (the `PART` control verb's
/// semantics) and `heal` clears it.
#[test]
fn link_faults_set_blocked_replaces_wholesale() {
    let f = LinkFaults::new(4);
    f.set_blocked(&[1, 3]);
    assert!(!f.is_blocked(0) && f.is_blocked(1) && !f.is_blocked(2) && f.is_blocked(3));
    f.set_blocked(&[2]);
    assert!(
        !f.is_blocked(1) && f.is_blocked(2) && !f.is_blocked(3),
        "replaced, not unioned"
    );
    f.heal();
    assert!((0..4).all(|p| !f.is_blocked(p)));
}

/// Key confirmation happens *before* the epoch claim: a forged handshake
/// racing the genuine sender's connection is rejected without superseding
/// it, so the impersonator can neither deliver traffic nor knock the real
/// replica off the mesh — frames sent on the genuine connection after the
/// forgery storm still land.
#[test]
fn forged_handshakes_cannot_evict_the_genuine_connection() {
    let mut ring = HmacAuthenticator::deal(b"mesh-epoch-test", 2);
    let peer_auth = ring.remove(1);
    let my_auth = ring.remove(0);
    let mesh = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = mesh.local_addr().unwrap();
    let peers = vec![addr, "127.0.0.1:1".parse().unwrap()];
    let (config, registry) = registered(MeshConfig {
        auth: Some(Arc::new(my_auth)),
        ..quick_config()
    });

    let poker = std::thread::spawn(move || {
        let frame = |v: u64| {
            let mut f = Vec::new();
            encode_frame_tagged(&v, &mut f, DEFAULT_MAX_FRAME, &peer_auth, ProcessId::new(0))
                .unwrap();
            f
        };
        // The genuine replica 1 connects with a key-confirmed handshake.
        let mut genuine = TcpStream::connect(addr).unwrap();
        genuine
            .write_all(&Hello::authenticated(2, &peer_auth, ProcessId::new(0)).encode())
            .unwrap();
        genuine.write_all(&frame(1)).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // A forgery storm claims the same sender with zeroed tags. If the
        // epoch were claimed before key confirmation, each of these would
        // kill the genuine connection.
        let mut forged = Vec::new();
        for _ in 0..3 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&Hello::new(ProcessId::new(1), 2).encode())
                .unwrap();
            forged.push(s);
            std::thread::sleep(Duration::from_millis(50));
        }
        std::thread::sleep(Duration::from_millis(200));
        // The genuine connection must still be live.
        genuine.write_all(&frame(2)).unwrap();
        std::thread::sleep(Duration::from_millis(500));
        drop((genuine, forged));
    });

    let report = mesh.run(Box::new(Collector), &peers, &config, |outs, counters| {
        outs.iter().any(|o| o.event == 2) && counters.auth_rejects() >= 3
    });
    poker.join().unwrap();
    assert!(!report.timed_out, "genuine traffic survived the forgeries");
    let events: Vec<u64> = report.outputs.iter().map(|o| o.event).collect();
    assert_eq!(events, [1, 2], "both genuine frames on one connection");
    assert!(
        counter(&registry, "mesh.auth_rejects") >= 3,
        "every forgery was severed"
    );
    assert_eq!(
        counter(&registry, "mesh.decode_disconnects"),
        0,
        "forged bytes never reached the codec"
    );
}

/// A flush coalesces the backlog: 2 000 messages queued toward a peer that
/// is not listening yet all arrive once it binds — exactly once, in FIFO
/// order — in at most ⌈bytes ÷ 16 KiB⌉ + 2 socket writes, not one per
/// frame.
#[test]
fn queued_backlog_reaches_a_late_peer_in_order_in_few_writes() {
    use std::time::Instant;

    const MESSAGES: u64 = 2_000;
    const COALESCE_BYTES: u64 = 16 * 1024;

    /// Queues `0..MESSAGES` to peer 1 in its first turn.
    struct Burst;
    impl Node for Burst {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, env: &mut Env<u64, u64>) {
            for i in 0..MESSAGES {
                env.send(ProcessId::new(1), i);
            }
        }

        fn on_message(&mut self, _: ProcessId, _: u64, _: &mut Env<u64, u64>) {}
    }

    // Reserve an address for peer 1, then free it: until the late bind
    // below, process 0's dials are refused and its queue backs up.
    let late_addr = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let a = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let peers = vec![a.local_addr().unwrap(), late_addr];
    let (config, registry) = registered(quick_config());
    let peers_a = peers.clone();
    let sender = std::thread::spawn(move || {
        a.run(Box::new(Burst), &peers_a, &config, |_, c| {
            c.frames_written() >= MESSAGES
        })
    });
    // The whole burst sits in the send queue before the peer exists.
    let queued = Instant::now();
    while registry.snapshot().gauge("link.backlog.p1") != Some(MESSAGES)
        || registry
            .snapshot()
            .counter("mesh.dial_backoffs")
            .unwrap_or(0)
            == 0
    {
        assert!(
            queued.elapsed() < Duration::from_secs(10),
            "burst never queued"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let b = TcpMesh::bind(ProcessId::new(1), late_addr).unwrap();
    let report_b = b.run(Box::new(Collector), &peers, &quick_config(), |outs, _| {
        outs.len() as u64 >= MESSAGES
    });
    let report_a = sender.join().unwrap();
    assert!(!report_a.timed_out && !report_b.timed_out);
    let got: Vec<u64> = report_b.outputs.iter().map(|o| o.event).collect();
    assert_eq!(got, (0..MESSAGES).collect::<Vec<_>>(), "exactly once, FIFO");
    assert_eq!(
        counter(&registry, "mesh.reconnects"),
        0,
        "no replay could have duplicated"
    );
    let snapshot = registry.snapshot();
    let writes = snapshot.counter("mesh.writes").unwrap();
    let frames = snapshot.counter("mesh.frames_written").unwrap();
    assert_eq!(frames, MESSAGES);
    let mut encoded = Vec::new();
    for i in 0..MESSAGES {
        encode_frame(&i, &mut encoded, DEFAULT_MAX_FRAME).unwrap();
    }
    let bytes = encoded.len() as u64;
    assert!(
        writes <= bytes.div_ceil(COALESCE_BYTES) + 2,
        "{writes} writes for {bytes} bytes"
    );
}

/// Wire bytes are pinned: the `Msg` frames a raw listener receives for a
/// fixed message sequence hash to constants, once plain and once MAC'd.
/// Control frames (keepalives, pings, pongs) are skipped — their timing is
/// the transport's, not the protocol's.
#[test]
fn msg_frames_on_the_wire_are_pinned() {
    use minsync_auth::Authenticator;
    use minsync_wire::{split_control, split_frame, tagged_frame_cap};

    const MESSAGES: u64 = 300;

    /// Sends `MESSAGES` vectors of varied length to peer 1 at start.
    struct Sequence;
    impl Node for Sequence {
        type Msg = Vec<u64>;
        type Output = u64;

        fn on_start(&mut self, env: &mut Env<Vec<u64>, u64>) {
            for i in 0..MESSAGES {
                env.send(ProcessId::new(1), (0..i % 11).map(|k| i * 31 + k).collect());
            }
        }

        fn on_message(&mut self, _: ProcessId, _: Vec<u64>, _: &mut Env<Vec<u64>, u64>) {}
    }

    let digest = |auth: Option<Arc<dyn Authenticator>>| -> u64 {
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let mesh = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
        let peers = [mesh.local_addr().unwrap(), peer.local_addr().unwrap()];
        let cap = tagged_frame_cap(DEFAULT_MAX_FRAME);
        let reader = std::thread::spawn(move || {
            let (mut stream, _) = peer.accept().unwrap();
            let mut hello = [0u8; HELLO_LEN];
            stream.read_exact(&mut hello).unwrap();
            let (mut buf, mut frames, mut msgs) = (Vec::new(), Vec::new(), 0);
            let mut chunk = [0u8; 4096];
            while msgs < MESSAGES {
                let k = stream.read(&mut chunk).unwrap();
                assert!(k > 0, "mesh closed after {msgs} frames");
                buf.extend_from_slice(&chunk[..k]);
                let mut used = 0;
                while let Some((payload, len)) = split_frame(&buf[used..], cap).unwrap() {
                    if !payload.is_empty() && split_control(payload).is_none() {
                        frames.extend_from_slice(&buf[used..used + len]);
                        msgs += 1;
                    }
                    used += len;
                }
                buf.drain(..used);
            }
            fnv1a(&frames)
        });
        let config = MeshConfig {
            auth,
            ..quick_config()
        };
        let report = mesh.run(Box::new(Sequence), &peers, &config, |_, c| {
            c.frames_written() >= MESSAGES
        });
        assert!(!report.timed_out);
        reader.join().unwrap()
    };
    let plain = digest(None);
    let mut ring = HmacAuthenticator::deal(b"wire-pin", 2);
    let macd = digest(Some(Arc::new(ring.remove(0))));
    assert_eq!(
        plain, 0x1275_cef0_e5ae_3e7c,
        "plain frames moved: {plain:#018x}"
    );
    assert_eq!(
        macd, 0xf40e_cbb1_3ba7_f6f0,
        "MAC'd frames moved: {macd:#018x}"
    );
}

/// One stuck socket must not stall the replica. Two honest meshes (p0 and
/// p1) share a 5-process cluster with three hostile peers: p2's address
/// accepts every connection and never reads, so the queue toward it
/// overflows; one dialer sends half a `Hello` and then nothing; another
/// claims p4 and sends its handshake and one frame a byte at a time. Both
/// honest meshes still exchange their values and take the trickled one,
/// and the overflow toward p2 is counted as drops.
#[test]
fn one_stuck_socket_does_not_stall_the_replica() {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Messages each honest mesh sends the sink: more than a peer's queue
    /// holds.
    const TO_SINK: usize = 20_000;

    /// Broadcasts its value, buries p2 in 256-byte messages, and outputs
    /// the first word of everything it hears.
    struct Stubborn(u64);
    impl Node for Stubborn {
        type Msg = Vec<u64>;
        type Output = u64;

        fn on_start(&mut self, env: &mut Env<Vec<u64>, u64>) {
            env.broadcast(vec![self.0]);
            for _ in 0..TO_SINK {
                env.send(ProcessId::new(2), vec![self.0; 32]);
            }
        }

        fn on_message(&mut self, _: ProcessId, msg: Vec<u64>, env: &mut Env<Vec<u64>, u64>) {
            env.output(msg[0]);
        }
    }

    let done = Arc::new(AtomicBool::new(false));
    let sink = TcpListener::bind("127.0.0.1:0").unwrap();
    let sink_addr = sink.local_addr().unwrap();
    sink.set_nonblocking(true).unwrap();
    let sink = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while !done.load(Ordering::Relaxed) {
                match sink.accept() {
                    Ok((stream, _)) => held.push(stream),
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            held.len()
        })
    };
    let a = TcpMesh::bind(ProcessId::new(0), "127.0.0.1:0".parse().unwrap()).unwrap();
    let b = TcpMesh::bind(ProcessId::new(1), "127.0.0.1:0".parse().unwrap()).unwrap();
    let refused: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let peers = vec![
        a.local_addr().unwrap(),
        b.local_addr().unwrap(),
        sink_addr,
        refused,
        refused,
    ];
    let hostile: Vec<_> = peers[..2]
        .iter()
        .map(|&addr| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut half = TcpStream::connect(addr).unwrap();
                half.write_all(&Hello::new(ProcessId::new(3), 5).encode()[..HELLO_LEN / 2])
                    .unwrap();
                let mut trickle = TcpStream::connect(addr).unwrap();
                let mut bytes = Hello::new(ProcessId::new(4), 5).encode();
                encode_frame(&vec![400u64], &mut bytes, DEFAULT_MAX_FRAME).unwrap();
                for byte in bytes {
                    trickle.write_all(&[byte]).unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                drop((half, trickle));
            })
        })
        .collect();

    fn stop(outs: &[MeshOutput<u64>], c: &MeshCounters) -> bool {
        let heard: BTreeSet<u64> = outs.iter().map(|o| o.event).collect();
        heard == BTreeSet::from([100, 200, 400]) && c.outbound_dropped(2) > 0
    }
    let peers_b = peers.clone();
    let honest_b =
        std::thread::spawn(move || b.run(Box::new(Stubborn(200)), &peers_b, &quick_config(), stop));
    let report_a = a.run(Box::new(Stubborn(100)), &peers, &quick_config(), stop);
    let report_b = honest_b.join().unwrap();
    done.store(true, Ordering::Relaxed);
    for h in hostile {
        h.join().unwrap();
    }
    assert!(
        sink.join().unwrap() >= 2,
        "both honest meshes dialed the sink"
    );
    for (name, report) in [("p0", &report_a), ("p1", &report_b)] {
        assert!(!report.timed_out, "{name} stalled");
        assert!(
            report.outbound_dropped[2] >= (TO_SINK - 16 * 1024) as u64,
            "{name}: overflow toward the sink not counted: {:?}",
            report.outbound_dropped
        );
    }
}
