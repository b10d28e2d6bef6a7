//! E11 — the replicated service as a *real distributed system*: n OS
//! processes on 127.0.0.1, speaking the `minsync-wire` byte protocol over
//! TCP, measured in wall-clock time.
//!
//! Every earlier experiment exchanged messages as in-memory Rust values;
//! E11 is the first where the paper's claims must survive sockets: length-
//! prefixed frames, partial reads, per-peer send queues, reconnects, and
//! real OS scheduling. Each case spawns a `minsync-node` cluster through
//! `minsync_transport::cluster`, drains a deterministic m = 1 workload
//! (batch content is a pure function of the commit stream, so every
//! correct replica must commit the *identical* log — checked by comparing
//! FNV-1a digests collected over the control pipe), and reports wall-clock
//! throughput plus p50/p95/p99 submit→commit latency.
//!
//! Byzantine riders: a **silent** replica (occupies a fault slot, never
//! sends) and a **flooding** replica (future-slot protocol spam *plus* raw
//! garbage bytes dialed at every peer). The cluster must drain without
//! stalling either way — bounded outbound queues absorb the flood, decode
//! errors cost the flooder its connections (visible in the `cuts` column),
//! and the committed logs stay digest-identical to the clean run. The
//! `frames/write` column is the mean burst: protocol frames per socket
//! `write` (`mesh.frames_written ÷ mesh.writes`, summed over correct
//! replicas). `threads` is the most OS threads any correct replica ran
//! (`node.threads`): the mesh loop plus the control-pipe reader.

use minsync_transport::cluster::{Behavior, ClusterSpec};

use super::{rider_spec, run_checked, slowest, ticks_ms};
use crate::Table;

fn rider_label(riders: &[Behavior]) -> &'static str {
    match riders {
        [] => "none",
        [Behavior::Silent] => "silent×1",
        [Behavior::Flood] => "flood×1",
        _ => "mixed",
    }
}

/// Runs E11.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E11 — TCP cluster: wall-clock throughput/latency (n OS processes on 127.0.0.1, m = 1)",
        [
            "n",
            "t",
            "faults",
            "cmds",
            "wall ms",
            "cmds/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "drops",
            "cuts",
            "frames/write",
            "threads",
        ],
    );
    let sizes: &[(usize, usize)] = if quick {
        &[(4, 1)]
    } else {
        &[(4, 1), (7, 2), (10, 3)]
    };
    let commands_per_client = if quick { 8 } else { 24 };
    let rider_sets: &[&[Behavior]] = &[&[], &[Behavior::Silent], &[Behavior::Flood]];
    for &(n, t) in sizes {
        for &riders in rider_sets {
            let spec = ClusterSpec {
                commands_per_client,
                ..rider_spec(n, t, riders.to_vec())
            };
            let report = run_checked("E11", &spec, None);
            let slowest = slowest(&report);
            let total = |prefix| report.sum_counters(prefix);
            let drops = total("mesh.outbound_dropped.");
            let cuts = total("mesh.decode_disconnects") + total("mesh.handshake_rejects");
            let frames_per_write =
                total("mesh.frames_written") as f64 / total("mesh.writes") as f64;
            let threads = report
                .replicas
                .iter()
                .filter_map(|r| r.snapshot.gauge("node.threads"))
                .max()
                .map_or("-".to_string(), |t| t.to_string());
            table.push_row([
                n.to_string(),
                t.to_string(),
                rider_label(riders).to_string(),
                report.total_commands.to_string(),
                format!("{:.1}", slowest.wall.as_secs_f64() * 1000.0),
                format!("{:.0}", report.cmds_per_sec()),
                format!("{:.2}", ticks_ms(&spec, slowest.lat_p50)),
                format!("{:.2}", ticks_ms(&spec, slowest.lat_p95)),
                format!("{:.2}", ticks_ms(&spec, slowest.lat_p99)),
                drops.to_string(),
                cuts.to_string(),
                format!("{frames_per_write:.1}"),
                threads,
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rider_labels_cover_the_sets() {
        assert_eq!(rider_label(&[]), "none");
        assert_eq!(rider_label(&[Behavior::Silent]), "silent×1");
        assert_eq!(rider_label(&[Behavior::Flood]), "flood×1");
        assert_eq!(rider_label(&[Behavior::Silent, Behavior::Flood]), "mixed");
    }

    #[test]
    fn tick_conversion_is_milliseconds() {
        let ms = ticks_ms(&ClusterSpec::default(), 5);
        assert!((ms - 1.0).abs() < 1e-9, "5 × 200µs = 1ms");
    }

    #[test]
    fn quick_table_covers_all_rider_sets() {
        let table = run(true);
        let riders: Vec<&str> = table.rows().iter().map(|r| r[2].as_str()).collect();
        assert_eq!(riders, ["none", "silent×1", "flood×1"]);
        // Liveness: every case really drained its workload at wall-clock
        // speed (cmds/s parsed back out of the table).
        for row in table.rows() {
            let cps: f64 = row[5].parse().unwrap();
            assert!(cps > 0.0, "zero throughput in case {row:?}");
        }
    }
}
