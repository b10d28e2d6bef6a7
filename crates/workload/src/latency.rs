use std::collections::BTreeMap;

use minsync_net::sim::OutputRecord;
use minsync_smr::SmrEvent;
use minsync_telemetry::analyze::Percentiles;
use minsync_types::ProcessId;

use crate::{command, ArrivalProcess, Batch, ClientPopulation};

/// Percentile summary of per-command submit→commit latencies, in virtual
/// ticks (nearest-rank percentiles).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyStats {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean (0.0 for empty samples).
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl LatencyStats {
    /// Summarizes a sample (order irrelevant): the percentiles are
    /// [`Percentiles::of`]'s, the mean is computed here.
    ///
    /// ```rust
    /// use minsync_workload::LatencyStats;
    ///
    /// let s = LatencyStats::of(vec![4, 1, 3, 2, 5]);
    /// assert_eq!((s.count, s.p50, s.p95, s.max), (5, 3, 5, 5));
    /// assert!((s.mean - 3.0).abs() < 1e-9);
    /// ```
    pub fn of(samples: Vec<u64>) -> LatencyStats {
        let sum: u128 = samples.iter().map(|&x| u128::from(x)).sum();
        let p = Percentiles::of(samples);
        LatencyStats {
            count: p.count,
            mean: if p.count == 0 {
                0.0
            } else {
                sum as f64 / p.count as f64
            },
            p50: p.p50,
            p95: p.p95,
            p99: p.p99,
            max: p.max,
        }
    }
}

/// Commands committed so far at `observer` (batches flattened) — the
/// standard stop-predicate helper for workload runs.
pub fn committed_commands(outputs: &[OutputRecord<SmrEvent<Batch>>], observer: ProcessId) -> usize {
    outputs
        .iter()
        .filter(|o| o.process == observer)
        .filter_map(|o| o.event.as_committed())
        .map(|(_, batch)| batch.len())
        .sum()
}

/// Incremental stop predicate: "each of the replicas `0..correct` has
/// committed `total` commands". It remembers how far into the substrate's
/// append-only output slice it has looked and visits each output once;
/// calling [`committed_commands`] per replica on every new output rescans
/// the whole slice each time, which is quadratic in the run's length.
#[derive(Clone, Debug)]
pub struct DrainCursor {
    seen: usize,
    total: usize,
    committed: Vec<usize>,
}

impl DrainCursor {
    /// A cursor waiting for replicas `0..correct` to commit `total`
    /// commands each.
    pub fn new(correct: usize, total: usize) -> DrainCursor {
        DrainCursor {
            seen: 0,
            total,
            committed: vec![0; correct],
        }
    }

    /// Consumes the outputs appended since the last call; true once every
    /// awaited replica has drained. `view` projects one output record of
    /// the substrate to `(process, event)`; ids `>= correct` are ignored.
    pub fn advance<R>(
        &mut self,
        outputs: &[R],
        view: impl Fn(&R) -> (ProcessId, &SmrEvent<Batch>),
    ) -> bool {
        for record in &outputs[self.seen..] {
            let (process, event) = view(record);
            if let (Some((_, batch)), Some(committed)) = (
                event.as_committed(),
                self.committed.get_mut(process.index()),
            ) {
                *committed += batch.len();
            }
        }
        self.seen = outputs.len();
        self.committed.iter().all(|&c| c >= self.total)
    }
}

/// End-to-end accounting of one workload run, as observed at one replica.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Client commands committed at the observer.
    pub commands: usize,
    /// Log slots committed at the observer (including no-op batches).
    pub slots: u64,
    /// Virtual tick of the last command-carrying commit.
    pub last_commit_tick: u64,
    /// Per-command submit→commit latency summary.
    pub latency: LatencyStats,
}

impl WorkloadReport {
    /// Throughput in commands per 1000 virtual ticks.
    pub fn cmds_per_ktick(&self) -> f64 {
        if self.last_commit_tick == 0 {
            return 0.0;
        }
        self.commands as f64 * 1000.0 / self.last_commit_tick as f64
    }
}

/// Folds `observer`'s commit stream into a [`WorkloadReport`].
///
/// Open-loop latencies are `commit_tick − submit_tick`, saturating at zero
/// when the pipeline outran the arrival schedule (the pipeline was not the
/// bottleneck; under load the difference is the queueing + consensus
/// delay). Closed-loop submit times are reconstructed from the observed
/// commits: a client's `k+1`-th command is submitted `think` ticks after
/// its `k`-th commit.
pub fn account(
    population: &ClientPopulation,
    outputs: &[OutputRecord<SmrEvent<Batch>>],
    observer: ProcessId,
) -> WorkloadReport {
    let think = match *population.arrivals() {
        ArrivalProcess::ClosedLoop { think } => Some(think),
        _ => None,
    };
    let mut latencies = Vec::new();
    let mut last_commit: BTreeMap<u64, u64> = BTreeMap::new(); // client → tick
    let mut commands = 0usize;
    let mut slots = 0u64;
    let mut last_commit_tick = 0u64;
    for rec in outputs.iter().filter(|o| o.process == observer) {
        let Some((_, batch)) = rec.event.as_committed() else {
            continue;
        };
        slots += 1;
        let commit = rec.time.ticks();
        for &cmd in batch.commands() {
            commands += 1;
            last_commit_tick = commit;
            let submit = match think {
                // Closed loop: previous commit of this client plus think
                // time (first command submitted at time zero).
                Some(think) => last_commit
                    .get(&command::client_of(cmd))
                    .map_or(0, |&prev| prev + think),
                None => population.submit_tick(cmd).unwrap_or(0),
            };
            latencies.push(commit.saturating_sub(submit));
            last_commit.insert(command::client_of(cmd), commit);
        }
    }
    WorkloadReport {
        commands,
        slots,
        last_commit_tick,
        latency: LatencyStats::of(latencies),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;
    use minsync_net::VirtualTime;
    use minsync_types::SystemConfig;

    #[test]
    fn latency_percentiles_nearest_rank() {
        let s = LatencyStats::of((1..=100).collect());
        assert_eq!((s.p50, s.p95, s.p99, s.max), (50, 95, 99, 100));
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_is_zeroes() {
        let s = LatencyStats::of(Vec::new());
        assert_eq!((s.count, s.p50, s.p95, s.p99, s.max), (0, 0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_element() {
        let s = LatencyStats::of(vec![7]);
        assert_eq!((s.count, s.p50, s.p95, s.p99, s.max), (1, 7, 7, 7, 7));
        assert_eq!(s.mean, 7.0);
    }

    #[test]
    fn unsorted_input_handled() {
        let s = LatencyStats::of(vec![9, 1, 5]);
        assert_eq!((s.p50, s.max), (5, 9));
        assert!((s.mean - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mean_avoids_u64_overflow() {
        let s = LatencyStats::of(vec![u64::MAX, u64::MAX]);
        assert!((s.mean - u64::MAX as f64).abs() < 1e6);
    }

    fn committed(p: usize, tick: u64, slot: u64, cmds: Vec<u64>) -> OutputRecord<SmrEvent<Batch>> {
        OutputRecord {
            time: VirtualTime::from_ticks(tick),
            process: ProcessId::new(p),
            event: SmrEvent::Committed {
                slot,
                command: Batch(cmds),
            },
        }
    }

    #[test]
    fn drain_cursor_fed_in_increments_matches_one_rescan() {
        let retired = |p: usize| OutputRecord {
            time: VirtualTime::ZERO,
            process: ProcessId::new(p),
            event: SmrEvent::Retired { through: 1 },
        };
        let outputs = vec![
            committed(0, 1, 1, vec![1, 2]),
            committed(2, 1, 1, vec![1, 2, 3, 4]), // id >= correct: ignored
            committed(1, 2, 1, vec![1, 2]),
            retired(1),
            committed(0, 3, 2, vec![]), // empty batch: counts nothing
            committed(0, 4, 3, vec![3]),
            committed(1, 5, 2, vec![3]), // completes the last replica
            committed(1, 6, 3, vec![]),
        ];
        let (correct, total) = (2, 3);
        let rescan = |upto: usize| {
            (0..correct).all(|p| committed_commands(&outputs[..upto], ProcessId::new(p)) >= total)
        };
        fn view(o: &OutputRecord<SmrEvent<Batch>>) -> (ProcessId, &SmrEvent<Batch>) {
            (o.process, &o.event)
        }

        // One output at a time: the predicate flips exactly on the output
        // that completes the last replica, and stays true afterwards.
        let mut cursor = DrainCursor::new(correct, total);
        let flips: Vec<bool> = (0..=outputs.len())
            .map(|upto| cursor.advance(&outputs[..upto], view))
            .collect();
        let expected: Vec<bool> = (0..=outputs.len()).map(rescan).collect();
        assert_eq!(flips, expected);
        assert_eq!(flips.iter().position(|&done| done), Some(7));

        // Three uneven increments end where one rescan of everything does.
        let mut cursor = DrainCursor::new(correct, total);
        assert!(!cursor.advance(&outputs[..3], view));
        assert!(!cursor.advance(&outputs[..6], view));
        assert_eq!(cursor.advance(&outputs, view), rescan(outputs.len()));
        assert_eq!(cursor.committed, [3, 3]);
    }

    #[test]
    fn open_loop_accounting_uses_submit_schedule() {
        let system = SystemConfig::new(4, 1).unwrap();
        let pop = WorkloadSpec {
            groups: 1,
            clients_per_group: 1,
            commands_per_client: 2,
            arrivals: ArrivalProcess::Bursty {
                burst: 1,
                period: 10, // submits at 0 and 10
            },
            seed: 0,
        }
        .generate(&system)
        .unwrap();
        let c = pop.group(0).commands().to_vec();
        let outputs = vec![
            committed(0, 25, 1, vec![c[0]]),
            committed(1, 999, 1, vec![c[0]]), // other replica: ignored
            committed(0, 30, 2, vec![c[1]]),
        ];
        let report = account(&pop, &outputs, ProcessId::new(0));
        assert_eq!(report.commands, 2);
        assert_eq!(report.slots, 2);
        assert_eq!(report.last_commit_tick, 30);
        // Latencies: 25 − 0 and 30 − 10.
        assert_eq!((report.latency.p50, report.latency.max), (20, 25));
        assert!(report.cmds_per_ktick() > 0.0);
    }

    #[test]
    fn closed_loop_accounting_chains_from_commits() {
        let system = SystemConfig::new(4, 1).unwrap();
        let pop = WorkloadSpec {
            groups: 1,
            clients_per_group: 1,
            commands_per_client: 3,
            arrivals: ArrivalProcess::ClosedLoop { think: 5 },
            seed: 0,
        }
        .generate(&system)
        .unwrap();
        let c = pop.group(0).commands().to_vec();
        let outputs = vec![
            committed(0, 10, 1, vec![c[0]]), // submit 0 → latency 10
            committed(0, 18, 2, vec![c[1]]), // submit 15 → latency 3
            committed(0, 40, 3, vec![c[2]]), // submit 23 → latency 17
        ];
        let report = account(&pop, &outputs, ProcessId::new(0));
        assert_eq!(report.latency.count, 3);
        assert_eq!(report.latency.max, 17);
        assert_eq!(report.latency.p50, 10);
    }

    #[test]
    fn pipeline_outrunning_arrivals_saturates_at_zero() {
        let system = SystemConfig::new(4, 1).unwrap();
        let pop = WorkloadSpec {
            groups: 1,
            clients_per_group: 1,
            commands_per_client: 1,
            arrivals: ArrivalProcess::Bursty {
                burst: 1,
                period: 1000,
            },
            seed: 0,
        }
        .generate(&system)
        .unwrap();
        let c = pop.group(0).commands()[0];
        // Committed "before" its submit tick: reported as zero delay.
        let outputs = vec![committed(0, 0, 1, vec![c])];
        let report = account(&pop, &outputs, ProcessId::new(0));
        assert_eq!(report.latency.max, 0);
    }

    #[test]
    fn empty_run_reports_zeroes() {
        let system = SystemConfig::new(4, 1).unwrap();
        let pop = WorkloadSpec {
            groups: 1,
            clients_per_group: 1,
            commands_per_client: 1,
            arrivals: ArrivalProcess::Poisson { mean_gap: 1.0 },
            seed: 0,
        }
        .generate(&system)
        .unwrap();
        let report = account(&pop, &[], ProcessId::new(0));
        assert_eq!(report.commands, 0);
        assert_eq!(report.cmds_per_ktick(), 0.0);
    }
}
