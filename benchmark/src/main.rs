//! `minsync-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! [--out DIR]`: one pass over one workload. With `--trace 0` it measures
//! the end-to-end metrics for `S` seconds with tracing off; with
//! `--trace 1` it makes the traced pass for the per-layer table and writes
//! its spans to `DIR/spans.jsonl`. Progress (`info …`) and correctness
//! misses (`MISS …`) go to standard error; the last line of standard output
//! is the result object. Exit code 0 means every output was correct.

use std::path::PathBuf;
use std::process::ExitCode;

use minsync_benchmark::measure::Spans;
use minsync_benchmark::report::{result_line, Values, END_TO_END, PER_LAYER};
use minsync_benchmark::spec::{workload, Workload, WORKLOADS};
use minsync_benchmark::{e2e, layers};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut name = None;
    let mut seed = 1;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut out = PathBuf::from("benchmark/out");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value for {}", pair[0]));
        };
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds: must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: must be 0 or 1".into()),
                }
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// What a pass hands to the result line.
struct Pass {
    list: &'static [(&'static str, &'static str)],
    values: Values,
    attempted: u64,
    failed: u64,
    misses: Vec<String>,
}

fn untraced_pass(args: &Args) -> Pass {
    let r = e2e::run(&args.workload, args.seed, args.seconds);
    eprintln!("info trials {}", r.trials);
    let mut values = Values::default();
    values.set("commands_per_s", r.commands_per_s);
    values.set("commit_latency_p50_ms", r.commit_latency_p50_ms);
    values.set("cpu_ms_per_slot", r.cpu_ms_per_slot);
    values.set("setup_s", r.setup_s);
    Pass {
        list: &END_TO_END,
        values,
        attempted: r.attempted,
        failed: r.failed,
        misses: r.misses,
    }
}

fn traced_pass(args: &Args) -> Result<Pass, String> {
    let w = &args.workload;
    let mut spans = Spans::new(true);
    let mut table = spans.span(&format!("traced pass {}", w.name), |s| {
        layers::run(w, args.seed, args.seconds, &args.out, s)
    });
    let path = args.out.join("spans.jsonl");
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, spans.to_jsonl(w.name)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    // Any miss in the pass fails everything its own run attempted.
    let attempted = table.attempted.max(1);
    let failed = if table.misses.is_empty() {
        0
    } else {
        attempted
    };
    table
        .values
        .set("failed_share", failed as f64 / attempted as f64);
    Ok(Pass {
        list: &PER_LAYER,
        values: table.values,
        attempted,
        failed,
        misses: table.misses,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let pass = if args.trace {
        traced_pass(&args)?
    } else {
        untraced_pass(&args)
    };
    for miss in &pass.misses {
        eprintln!("MISS {miss}");
    }
    let correct = pass.misses.is_empty();
    let line = result_line(
        correct,
        pass.attempted,
        pass.failed,
        pass.list,
        &pass.values,
    )?;
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("minsync-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
