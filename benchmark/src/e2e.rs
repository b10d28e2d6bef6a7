//! The untraced pass: run one workload's trials back to back for the
//! measuring window and reduce them to the end-to-end metrics.

use std::time::{Duration, Instant};

use crate::measure::{fast_quarter_mean, median, Better};
use crate::spec::{Substrate, Workload, TICK_MS};
use crate::substrate::{build_sim, check_cluster, check_logs, run_sim, run_tcp};

/// Slots of the discarded warm-up cluster run (a simulator workload warms
/// up on a quarter of a trial instead).
const WARMUP_SLOTS: usize = 50;
/// Trials a run measures even if they overrun its window.
const MIN_TRIALS: usize = 3;
/// Extra set-ups a simulator run performs beyond its trials, so `setup_s`
/// is a median over enough samples even when only a few long trials fit.
const SIM_EXTRA_SETUPS: usize = 8;

/// One trial's observations.
#[derive(Clone, Debug, Default)]
struct Trial {
    commands: usize,
    slots: u64,
    wall_s: f64,
    cpu_s: f64,
    setup_s: f64,
    /// Submit→commit [p50, p95] in ms: one entry per correct replica on a
    /// cluster (what each reported), one on the simulator (replica 0's
    /// virtual-tick percentiles at the speed the trial ran). Only the p50
    /// becomes a metric; the p95 is shown on the trial's progress line.
    latency_ms: Vec<[f64; 2]>,
}

/// The end-to-end result of one workload. Except for `setup_s`, a value is
/// the [`fast_quarter_mean`] of its per-trial values.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Commands committed at every correct replica per second of the
    /// slowest replica's wall clock.
    pub commands_per_s: f64,
    /// Closed-loop submit→commit median, ms, over trial × replica.
    pub commit_latency_p50_ms: f64,
    /// CPU milliseconds per committed slot.
    pub cpu_ms_per_slot: f64,
    /// Set-up seconds; median over set-ups.
    pub setup_s: f64,
    /// Trials measured.
    pub trials: usize,
    /// Commands × correct replicas that should have committed.
    pub attempted: u64,
    /// Of those, the ones that did not — all of a trial's, if the trial
    /// failed any correctness check.
    pub failed: u64,
    /// The correctness misses, empty on a clean run.
    pub misses: Vec<String>,
}

/// Runs `w` for `seconds` of trials: a trial is started while the window
/// has room for one more of average length (and until [`MIN_TRIALS`] are
/// done).
pub fn run(w: &Workload, seed: u64, seconds: f64) -> EndToEnd {
    let mut out = EndToEnd::default();
    let mut trials = Vec::new();
    let mut setups = Vec::new();

    // What every cluster log must fold to: the simulator's log of the same
    // population, itself checked for completeness and per-client order.
    let reference = match w.substrate {
        Substrate::Tcp => {
            let mirror = run_sim(&w.timely_mirror(), seed, None);
            out.misses
                .extend(check_logs("simulator mirror", &mirror.logs, mirror.total));
            let warmup = w.with_slots(WARMUP_SLOTS);
            let warm_ref = run_sim(&warmup.timely_mirror(), seed, None).logs[0].digest;
            match run_tcp(&warmup.cluster_spec(seed)) {
                Ok(run) => out.misses.extend(check_cluster("warm-up", &run, warm_ref)),
                Err(e) => out.misses.push(format!("warm-up: {e}")),
            }
            mirror.logs[0].digest
        }
        Substrate::Sim => {
            // Let the allocator and caches settle: the first simulator run
            // of a process is some 15 % slower than the ones after it.
            run_sim(&w.with_slots(w.trial_slots / 4), seed, None);
            0
        }
    };

    let correct = w.correct() as u64;
    let window = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let fits = |done: usize| {
        let spent = window.elapsed();
        done < MIN_TRIALS || spent + spent / done as u32 <= budget
    };
    while out.misses.is_empty() && fits(trials.len()) {
        let label = format!("trial {}", trials.len() + 1);
        let attempted = (w.trial_slots * w.clients) as u64 * correct;
        out.attempted += attempted;
        let (trial, misses) = match w.substrate {
            Substrate::Tcp => tcp_trial(w, seed, reference, &label),
            Substrate::Sim => sim_trial(w, seed, &label),
        };
        if misses.is_empty() {
            eprintln!(
                "info {label}: {:.1} commands/s, {:.3} cpu-ms/slot, p50 {:.3} ms, p95 {:.3} ms, setup {:.4} s",
                trial.commands as f64 / trial.wall_s,
                1e3 * trial.cpu_s / trial.slots as f64,
                trial.latency_ms[0][0],
                trial.latency_ms[0][1],
                trial.setup_s
            );
            setups.push(trial.setup_s);
            trials.push(trial);
        } else {
            out.failed += attempted;
            out.misses.extend(misses);
        }
    }
    if w.substrate == Substrate::Sim {
        for _ in 0..SIM_EXTRA_SETUPS {
            setups.push(sim_setup_s(w, seed));
        }
    }
    if trials.is_empty() {
        out.attempted = out.attempted.max(1);
        out.failed = out.attempted;
        return out;
    }

    let per_trial = |f: fn(&Trial) -> f64| trials.iter().map(f).collect::<Vec<f64>>();
    let p50s: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.latency_ms.iter().map(|p| p[0]))
        .collect();
    out.trials = trials.len();
    out.commands_per_s =
        fast_quarter_mean(&per_trial(|t| t.commands as f64 / t.wall_s), Better::Higher);
    out.commit_latency_p50_ms = fast_quarter_mean(&p50s, Better::Lower);
    out.cpu_ms_per_slot = fast_quarter_mean(
        &per_trial(|t| 1e3 * t.cpu_s / t.slots as f64),
        Better::Lower,
    );
    out.setup_s = median(&setups);
    out
}

fn tcp_trial(w: &Workload, seed: u64, reference: u64, label: &str) -> (Trial, Vec<String>) {
    let run = match run_tcp(&w.cluster_spec(seed)) {
        Ok(run) => run,
        Err(e) => return (Trial::default(), vec![format!("{label}: {e}")]),
    };
    let misses = check_cluster(label, &run, reference);
    let ms = |ticks: u64| ticks as f64 * TICK_MS;
    let trial = Trial {
        commands: run.report.total_commands,
        slots: run.slots(),
        wall_s: run.wall_s(),
        cpu_s: run.cpu.children_s(),
        setup_s: run.setup_s(),
        latency_ms: run
            .report
            .replicas
            .iter()
            .map(|r| [ms(r.lat_p50), ms(r.lat_p95)])
            .collect(),
    };
    (trial, misses)
}

fn sim_trial(w: &Workload, seed: u64, label: &str) -> (Trial, Vec<String>) {
    let run = run_sim(w, seed, None);
    let misses = check_logs(label, &run.logs, run.total);
    let v = &run.vlatency;
    let trial = Trial {
        commands: run.total,
        slots: run.logs[0].slots,
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
        setup_s: run.setup_s,
        latency_ms: vec![[v.p50, v.p95].map(|ticks| run.ticks_to_ms(ticks))],
    };
    (trial, misses)
}

/// Times one more set-up of `w` without running it.
fn sim_setup_s(w: &Workload, seed: u64) -> f64 {
    let start = Instant::now();
    std::hint::black_box(build_sim(w, seed, None, false));
    start.elapsed().as_secs_f64()
}
