//! The same consensus automaton, live on OS threads: std channels,
//! wall-clock delays, a real router injecting per-channel latency.
//!
//! ```text
//! cargo run --example threaded_live
//! ```

use std::time::Duration;

use minsync::core::{ConsensusConfig, ConsensusEvent, ConsensusNode, ProtocolMsg};
use minsync::net::threaded::{run_threaded, ThreadedConfig, ThreadedOutput};
use minsync::net::{ChannelTiming, DelayLaw, NetworkTopology, Node};
use minsync::types::{check, ProcessId, SystemConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = SystemConfig::new(4, 1)?;
    let cfg = ConsensusConfig::paper(system);

    // Mildly jittery network: 1–8 tick delays, one tick = 200 µs.
    let topo = NetworkTopology::uniform(
        4,
        ChannelTiming::asynchronous(DelayLaw::Uniform { min: 1, max: 8 }),
    );
    let nodes: Vec<Box<dyn Node<Msg = ProtocolMsg<u64>, Output = ConsensusEvent<u64>>>> =
        [10u64, 20, 10, 20]
            .into_iter()
            .map(|v| {
                Box::new(ConsensusNode::new(cfg, v).expect("valid config"))
                    as Box<dyn Node<Msg = _, Output = _>>
            })
            .collect();

    let decided = |outs: &[ThreadedOutput<ConsensusEvent<u64>>]| -> Vec<(ProcessId, u64)> {
        outs.iter()
            .filter_map(|o| Some((o.process, *o.event.as_decision()?)))
            .collect()
    };
    println!("spawning 4 replica threads + router…");
    let report = run_threaded(
        topo,
        nodes,
        ThreadedConfig {
            tick: Duration::from_micros(200),
            timeout: Duration::from_secs(30),
            seed: 3,
        },
        |outs| decided(outs).len() == 4,
    );

    assert!(!report.timed_out, "live run timed out");
    for out in &report.outputs {
        if let ConsensusEvent::Decided { value } = &out.event {
            println!("  {} decided {value} after {:?}", out.process, out.elapsed);
        }
    }
    let decisions = decided(&report.outputs);
    let valid = |v: &u64| [10, 20].contains(v);
    let found = check::consensus(ProcessId::all(4), decisions.iter().copied(), valid);
    assert!(found.is_empty(), "{found:?}");
    println!(
        "agreement on {} in {:?} wall-clock ✓",
        decisions[0].1, report.elapsed
    );
    Ok(())
}
