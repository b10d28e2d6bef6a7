//! The same consensus automaton, live on OS threads: std channels,
//! wall-clock delays, a real router injecting per-channel latency.
//!
//! ```text
//! cargo run --example threaded_live
//! ```

use std::time::Duration;

use minsync::core::{ConsensusConfig, ConsensusEvent, ConsensusNode, ProtocolMsg};
use minsync::net::threaded::{run_threaded, ThreadedConfig};
use minsync::net::{ChannelTiming, DelayLaw, NetworkTopology, Node};
use minsync::types::SystemConfig;

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

    println!("spawning 4 replica threads + router…");
    let report = run_threaded(
        topo,
        nodes,
        ThreadedConfig {
            tick: Duration::from_micros(200),
            timeout: Duration::from_secs(30),
            seed: 3,
        },
        |outs| {
            outs.iter()
                .filter(|o| matches!(o.event, ConsensusEvent::Decided { .. }))
                .count()
                == 4
        },
    );

    assert!(!report.timed_out, "live run timed out");
    for out in &report.outputs {
        if let ConsensusEvent::Decided { value } = &out.event {
            println!("  {} decided {value} after {:?}", out.process, out.elapsed);
        }
    }
    let decisions: Vec<u64> = report
        .outputs
        .iter()
        .filter_map(|o| o.event.as_decision().copied())
        .collect();
    assert!(
        decisions.windows(2).all(|w| w[0] == w[1]),
        "agreement violated"
    );
    println!(
        "agreement on {} in {:?} wall-clock ✓",
        decisions[0], report.elapsed
    );
    Ok(())
}
