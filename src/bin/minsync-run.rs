//! Command-line driver for one consensus run.
//!
//! ```text
//! cargo run --bin minsync-run -- [--n N] [--t T] [--seed S] [--faults PLAN]
//!                                [--k K] [--tau TICKS] [--topology KIND]
//! ```
//!
//! * `PLAN` ∈ `none | silent | crash | equivocate | mute-coord | split-coord | fuzzer`
//! * `KIND` ∈ `bisource` (default: async noise + ⟨t+1⟩bisource) | `timely` | `async`
//!
//! Prints the outcome (decision, rounds, latency, per-kind message counts)
//! and exits non-zero if any of the paper's three properties failed.

#![forbid(unsafe_code)]

use minsync::harness::{ConsensusRunBuilder, FaultPlan, TopologySpec};
use minsync::net::DelayLaw;
use minsync::types::{ProcessId, SystemConfig};

struct Args {
    n: usize,
    t: usize,
    seed: u64,
    faults: String,
    k: usize,
    tau: u64,
    topology: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 4,
        t: 1,
        seed: 1,
        faults: "silent".to_string(),
        k: 0,
        tau: 0,
        topology: "bisource".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag {
            "--n" => args.n = value.parse().map_err(|e| format!("--n: {e}"))?,
            "--t" => args.t = value.parse().map_err(|e| format!("--t: {e}"))?,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--faults" => args.faults = value.clone(),
            "--k" => args.k = value.parse().map_err(|e| format!("--k: {e}"))?,
            "--tau" => args.tau = value.parse().map_err(|e| format!("--tau: {e}"))?,
            "--topology" => args.topology = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(args)
}

fn fault_plan(name: &str, t: usize) -> Result<FaultPlan, String> {
    Ok(match name {
        "none" => FaultPlan::AllCorrect,
        "silent" => FaultPlan::silent(t),
        "crash" => FaultPlan::crash(t, 100),
        "equivocate" => FaultPlan::EquivocateProposal {
            slots: vec![0],
            a: 100,
            b: 200,
        },
        "mute-coord" => FaultPlan::MuteCoordinator { slots: vec![0] },
        "split-coord" => FaultPlan::SplitCoordinator {
            slots: vec![0],
            a: 0,
            b: 1,
        },
        "fuzzer" => FaultPlan::fuzzer(t, vec![0, 1, 99]),
        other => return Err(format!("unknown fault plan: {other}")),
    })
}

fn topology(kind: &str, tau: u64, system: &SystemConfig) -> Result<TopologySpec, String> {
    Ok(match kind {
        "bisource" => TopologySpec::AsyncWithBisource {
            bisource: ProcessId::new(1 % system.n()),
            strength: system.plurality(),
            tau,
            delta: 4,
            noise: TopologySpec::default_noise(),
        },
        "timely" => TopologySpec::AllTimely { delta: 4 },
        "async" => TopologySpec::AllAsync {
            noise: DelayLaw::Uniform { min: 1, max: 40 },
        },
        other => return Err(format!("unknown topology: {other}")),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: minsync-run [--n N] [--t T] [--seed S] [--faults PLAN] [--k K] [--tau TICKS] [--topology bisource|timely|async]");
            std::process::exit(2);
        }
    };
    let result = (|| -> Result<bool, Box<dyn std::error::Error>> {
        let system = SystemConfig::new(args.n, args.t)?;
        let plan = fault_plan(&args.faults, args.t)?;
        let topo = topology(&args.topology, args.tau, &system)?;
        let outcome = ConsensusRunBuilder::new(args.n, args.t)?
            .proposals((0..args.n).map(|i| (i % 2) as u64))
            .faults(plan)
            .topology(topo)
            .k(args.k)
            .seed(args.seed)
            .max_events(5_000_000)
            .run()?;

        println!(
            "n = {}, t = {}, k = {}, seed = {}",
            args.n, args.t, args.k, args.seed
        );
        println!("faults        : {}", args.faults);
        println!("topology      : {} (tau = {})", args.topology, args.tau);
        println!("decided value : {:?}", outcome.decided_value());
        println!("terminated    : {}", outcome.all_decided());
        println!("agreement     : {}", outcome.agreement_holds());
        println!("validity      : {}", outcome.validity_holds());
        println!("commit round  : {:?}", outcome.commit_round());
        println!("latency       : {:?} ticks", outcome.decision_latency());
        println!("messages      : {}", outcome.total_messages());
        println!("stop reason   : {:?}", outcome.stop_reason());
        println!();
        println!("messages by kind:");
        for (kind, count) in outcome.metrics().kind_counts() {
            println!("  {kind:<14} {count}");
        }
        Ok(outcome.agreement_holds() && outcome.validity_holds())
    })();
    match result {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("SAFETY VIOLATION — this is a bug, please report it");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
