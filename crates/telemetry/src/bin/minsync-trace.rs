//! `minsync-trace`: inspect and diff structured trace dumps.
//!
//! ```text
//! minsync-trace <dump.jsonl> [--top K]         stage breakdown, slowest slots,
//!                                              queue residency, codec timing
//! minsync-trace <a.jsonl> <b.jsonl> [--top K]  diff two dumps (a = baseline)
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

use minsync_telemetry::analyze::{
    codec_timing, diff_breakdown, queue_residency, slot_timelines, slowest_slots, stage_breakdown,
};
use minsync_telemetry::trace::{parse_dump, queues, TraceDump};

struct Args {
    dumps: Vec<String>,
    top: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut dumps = Vec::new();
    let mut top = 5usize;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--top" => {
                let v = argv.get(i + 1).ok_or("--top needs a value")?;
                top = v.parse().map_err(|_| format!("bad --top value {v:?}"))?;
                i += 2;
            }
            "--help" | "-h" => {
                return Err("usage: minsync-trace <dump.jsonl> [<other.jsonl>] [--top K]".into());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => {
                dumps.push(path.to_string());
                i += 1;
            }
        }
    }
    if dumps.is_empty() || dumps.len() > 2 {
        return Err("expected one dump to inspect or two to diff".into());
    }
    Ok(Args { dumps, top })
}

fn load(path: &str) -> Result<TraceDump, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_dump(&text).map_err(|e| format!("{path}: {e}"))
}

fn queue_name(queue: u32) -> String {
    match queue {
        queues::SIM_EVENTS => "sim-events".to_string(),
        queues::INBOX => "inbox".to_string(),
        q if q >= queues::OUTBOUND_BASE => format!("outbound.p{}", q - queues::OUTBOUND_BASE),
        q => format!("queue.{q}"),
    }
}

fn unit(dump: &TraceDump) -> &'static str {
    // tick_ns = 0 marks a virtual-time dump (the simulator); otherwise
    // timestamps are wall-derived ticks of `tick_ns` nanoseconds each.
    if dump.meta.tick_ns > 0 {
        "ticks"
    } else {
        "virtual ticks"
    }
}

fn print_report(path: &str, dump: &TraceDump, top: usize) {
    println!(
        "trace {path}: source={} seed={} tick_ns={} events={} dropped={}",
        dump.meta.source,
        dump.meta.seed,
        dump.meta.tick_ns,
        dump.events.len(),
        dump.dropped
    );
    let timelines = slot_timelines(&dump.events);
    let u = unit(dump);
    println!(
        "\nstage breakdown ({} slots, latencies in {u}):",
        timelines.len()
    );
    println!(
        "  {:<20} {:>6} {:>8} {:>8} {:>8} {:>8}",
        "stage", "slots", "p50", "p95", "p99", "max"
    );
    for s in stage_breakdown(&timelines) {
        println!(
            "  {:<20} {:>6} {:>8} {:>8} {:>8} {:>8}",
            s.stage, s.latency.count, s.latency.p50, s.latency.p95, s.latency.p99, s.latency.max
        );
    }
    let slow = slowest_slots(&timelines, top);
    if !slow.is_empty() {
        println!("\nslowest slots (end-to-end span, {u}):");
        for (slot, span) in slow {
            println!("  slot {slot:<8} {span}");
        }
    }
    let residency = queue_residency(&dump.events);
    if !residency.is_empty() {
        println!("\nqueue residency ({u}):");
        println!(
            "  {:<16} {:>6} {:>8} {:>8} {:>8} {:>8}",
            "queue", "n", "p50", "p95", "p99", "max"
        );
        for (queue, p) in residency {
            println!(
                "  {:<16} {:>6} {:>8} {:>8} {:>8} {:>8}",
                queue_name(queue),
                p.count,
                p.p50,
                p.p95,
                p.p99,
                p.max
            );
        }
    }
    let codec = codec_timing(&dump.events);
    if !codec.is_empty() {
        println!("\ncodec timing (ns):");
        for (dir, p) in codec {
            println!(
                "  {dir:<8} n={:<6} p50={} p95={} p99={} max={}",
                p.count, p.p50, p.p95, p.p99, p.max
            );
        }
    }
}

fn print_diff(pa: &str, a: &TraceDump, pb: &str, b: &TraceDump) {
    println!(
        "diff: {pa} (source={}, seed={}) → {pb} (source={}, seed={})",
        a.meta.source, a.meta.seed, b.meta.source, b.meta.seed
    );
    if a.meta.seed != b.meta.seed {
        println!("warning: seeds differ; dumps are not the same run");
    }
    let ba = stage_breakdown(&slot_timelines(&a.events));
    let bb = stage_breakdown(&slot_timelines(&b.events));
    let lines = diff_breakdown(&ba, &bb);
    if lines.is_empty() {
        println!("no stage observed in either dump");
        return;
    }
    println!(
        "stage latency, {} ({}) → {} ({}):",
        pa,
        unit(a),
        pb,
        unit(b)
    );
    for line in lines {
        println!("  {line}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut dumps = Vec::new();
    for path in &args.dumps {
        match load(path) {
            Ok(d) => dumps.push(d),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    match dumps.as_slice() {
        [one] => print_report(&args.dumps[0], one, args.top),
        [a, b] => {
            print_report(&args.dumps[0], a, args.top);
            println!();
            print_report(&args.dumps[1], b, args.top);
            println!();
            print_diff(&args.dumps[0], a, &args.dumps[1], b);
        }
        _ => unreachable!(),
    }
    ExitCode::SUCCESS
}
