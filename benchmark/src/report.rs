//! The metric names and units of `BENCHMARK.json`, and the result line the
//! contract asks for. A test holds the two files to each other.

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("commands_per_s", "1/s"),
    ("commit_latency_p50_ms", "ms"),
    ("cpu_ms_per_slot", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name and unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("failed_share", "share"),
    ("commit_latency_p95_ms", "ms"),
    ("commit_latency_p99_ms", "ms"),
    ("sim.commit_latency_p50_vticks", "ticks"),
    ("sim.commit_latency_p95_vticks", "ticks"),
    ("wire.encode_ns_per_frame.small", "ns"),
    ("wire.encode_ns_per_frame.bulk", "ns"),
    ("wire.decode_ns_per_frame.small", "ns"),
    ("wire.decode_ns_per_frame.bulk", "ns"),
    ("wire.bytes_per_frame.small", "B"),
    ("wire.bytes_per_frame.bulk", "B"),
    ("auth.mac_ns_per_frame.small", "ns"),
    ("auth.mac_ns_per_frame.bulk", "ns"),
    ("auth.sha256_mb_per_s", "MB/s"),
    ("transport.mesh.rtt_us_p50", "us"),
    ("transport.mesh.rtt_us_p99", "us"),
    ("transport.mesh.frames_per_s.small", "1/s"),
    ("transport.mesh.mb_per_s.bulk", "MB/s"),
    ("transport.mesh.cpu_us_per_frame", "us"),
    ("transport.cluster.cpu_us_per_frame", "us"),
    ("transport.cluster.sys_share", "share"),
    ("transport.cluster.slot_time_drift", "ratio"),
    ("transport.mesh.outbound_dropped", "count"),
    ("transport.mesh.reconnects", "count"),
    ("transport.mesh.decode_disconnects", "count"),
    ("transport.mesh.pings", "count"),
    ("net.sim.events_per_s", "1/s"),
    ("net.sim.max_queue_len", "count"),
    ("net.sim.peak_rss_mb", "MiB"),
    ("net.sim.bare_events_per_s", "1/s"),
    ("net.threaded.ms_per_slot", "ms"),
    ("net.threaded.cpu_ms_per_slot", "ms"),
    ("core.msgs_per_commit", "count"),
    ("core.msgs_per_commit_over_n3", "ratio"),
    ("core.bytes_per_commit", "B"),
    ("core.vticks_per_commit", "ticks"),
    ("core.msg_delays_per_commit", "count"),
    ("broadcast.cb_msgs_per_commit", "count"),
    ("core.ac_msgs_per_commit", "count"),
    ("core.decide_msgs_per_commit", "count"),
    ("core.ea_msgs_per_commit", "count"),
    ("core.ea_coord_msgs_per_commit", "count"),
    ("core.cpu_us_per_msg", "us"),
    ("smr.ack_msgs_per_commit", "count"),
    ("smr.batch_fill", "share"),
    ("smr.noop_slot_share", "share"),
    ("smr.retired_drops_per_slot", "count"),
    ("smr.future_drops", "count"),
    ("workload.generate_ms", "ms"),
    ("ledger.protocol_cpu_ms", "ms"),
    ("ledger.threads_cpu_ms", "ms"),
    ("ledger.sockets_cpu_ms", "ms"),
    ("ledger.mesh_micro_cpu_ms", "ms"),
    ("ledger.unattributed_pct", "%"),
    ("smr.trace.propose_to_commit_ticks_p50", "ticks"),
    ("smr.trace.commit_to_ack_ticks_p50", "ticks"),
    ("transport.trace.inbox_wait_ticks_p50", "ticks"),
    ("transport.trace.inbox_wait_ticks_p99", "ticks"),
    ("transport.trace.outbound_wait_ticks_p50", "ticks"),
    ("transport.trace.outbound_wait_ticks_p99", "ticks"),
    ("transport.trace.encode_ns_p50", "ns"),
    ("transport.trace.decode_ns_p50", "ns"),
    ("transport.trace.events_per_slot", "count"),
    ("telemetry.trace_overhead_pct", "%"),
];

/// Metric values under construction, checked against one of the lists
/// above when the result line is written.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The contract's result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of `list`, in that order.
///
/// # Errors
///
/// Names the metric if `values` misses one of `list` (a pass that died
/// half-way), holds one outside it, or holds a value JSON cannot carry:
/// the driver would refuse such a line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[(&str, &str)],
    values: &Values,
) -> Result<String, String> {
    if let Some((stray, _)) = values
        .0
        .iter()
        .find(|(n, _)| !list.iter().any(|(l, _)| l == n))
    {
        return Err(format!("metric {stray} is not in BENCHMARK.json"));
    }
    let mut metrics = Vec::with_capacity(list.len());
    for (name, unit) in list {
        let value = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    /// The `"name": "…"` values of the JSON array under `key`, with the
    /// `"unit"` that follows each where there is one.
    fn names_under(json: &str, key: &str) -> Vec<(String, Option<String>)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        let field = |object: &str, field: &str| {
            let at = object.find(&format!("\"{field}\""))?;
            let rest = &object[at + field.len() + 2..];
            let from = rest.find('"')? + 1;
            let to = from + rest[from..].find('"')?;
            Some(rest[from..to].to_string())
        };
        json[open..close]
            .split('}')
            .filter_map(|object| Some((field(object, "name")?, field(object, "unit"))))
            .collect()
    }

    #[test]
    fn benchmark_json_and_the_code_agree() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let listed = |key: &str| names_under(&json, key);
        let pairs = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(listed("end_to_end"), pairs(&END_TO_END));
        assert_eq!(listed("per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let table: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, table);
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut v = Values::default();
        for (name, _) in END_TO_END {
            v.set(name, 1.5);
        }
        let line = result_line(true, 10, 0, &END_TO_END, &v).unwrap();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_missing_or_stray_metric_is_refused() {
        let err = result_line(true, 1, 0, &END_TO_END, &Values::default()).unwrap_err();
        assert!(err.contains("was not measured"));
        let mut v = Values::default();
        v.set("nonsense", 1.0);
        let err = result_line(true, 1, 0, &END_TO_END, &v).unwrap_err();
        assert!(err.contains("not in BENCHMARK.json"));
    }
}
