//! Clocks, order statistics and the span recorder: everything the benchmark
//! measures *with*, none of it specific to minsync.

use std::time::Instant;

/// Kernel clock ticks per second for the `/proc/<pid>/stat` time fields.
/// There is no `libc` here to ask `sysconf(_SC_CLK_TCK)`; Linux has reported
/// 100 to user space on every architecture this repo builds on.
const USER_HZ: f64 = 100.0;

/// CPU time of this process (all threads) and of its reaped children, read
/// from `/proc/self/stat`. Resolution is one kernel tick (10 ms), so callers
/// divide totals over whole trials, never over single operations.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    /// User + system seconds of this process.
    pub own_s: f64,
    /// User seconds of waited-for children.
    pub children_user_s: f64,
    /// System seconds of waited-for children.
    pub children_sys_s: f64,
}

impl CpuTimes {
    /// Reads the counters now.
    ///
    /// # Panics
    ///
    /// Panics if `/proc/self/stat` is missing or malformed: without it the
    /// CPU metrics cannot be produced at all.
    pub fn now() -> CpuTimes {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
        // The command name (field 2) may hold spaces and parentheses; the
        // numeric fields start after its closing one.
        let tail = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 1..];
        let field = |nth: usize| -> f64 {
            // `tail` starts at field 3, so field k is at index k - 3.
            tail.split_whitespace()
                .nth(nth - 3)
                .and_then(|v| v.parse::<u64>().ok())
                .expect("numeric field in /proc/self/stat") as f64
                / USER_HZ
        };
        CpuTimes {
            own_s: field(14) + field(15),
            children_user_s: field(16),
            children_sys_s: field(17),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            own_s: self.own_s - earlier.own_s,
            children_user_s: self.children_user_s - earlier.children_user_s,
            children_sys_s: self.children_sys_s - earlier.children_sys_s,
        }
    }

    /// User + system seconds of the children.
    pub fn children_s(self) -> f64 {
        self.children_user_s + self.children_sys_s
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0.0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (order irrelevant).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Which direction of a metric is the good one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Throughput-like.
    Higher,
    /// Cost-like: time, CPU.
    Lower,
}

/// The value a run reports for a metric measured once per trial: the mean
/// of the quarter of the trials on the metric's *good* side.
///
/// Not the median, because the noise here is one-sided. The sandbox is a
/// 2-vCPU guest whose effective speed drops to ≈ 0.63× for seconds at a time
/// when a neighbour is busy — purely in-process, CPU-bound simulator trials
/// read 14.3k commands/s or 9k, with little in between — so a run's median
/// says how many of its trials met a slow phase, while its fast quarter says
/// how fast the code ran when the machine was its own (over ten runs the
/// median's spread was 2–4× wider on every workload). A mean over a quarter
/// rather than the best trial, so that one lucky trial does not set the
/// value and tick-quantised latencies do not read the same on every run.
pub fn fast_quarter_mean(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "fast quarter of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    let quarter = &v[..v.len().div_ceil(4)];
    quarter.iter().sum::<f64>() / quarter.len() as f64
}

/// One recorded span: a call from the benchmark into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in microseconds since the recorder was created.
    pub start_us: u64,
    /// End, same clock (equal to the start while the span is open).
    pub end_us: u64,
}

/// In-memory span recorder for the traced pass; written out once at exit.
/// A disabled recorder (the untraced pass) records nothing.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let now = self.origin.elapsed().as_micros() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_us: now,
            end_us: now,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.origin.elapsed().as_micros() as u64;
        out
    }

    /// The spans as JSON lines, each tagged with `workload`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"workload\":\"{workload}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}\n",
                s.name, s.start_us, s.end_us
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        // A slow phase that swallows most trials leaves the fast quarter put.
        let costs = [3.0, 3.0, 3.0, 4.8, 4.9, 4.8, 4.7, 4.9, 4.8, 4.9, 4.8];
        assert_eq!(fast_quarter_mean(&costs, Better::Lower), 3.0);
        assert_eq!(
            fast_quarter_mean(&[1.0, 2.0, 3.0, 4.0, 5.0], Better::Higher),
            4.5
        );
    }

    #[test]
    fn spans_nest_and_disable() {
        let mut s = Spans::new(true);
        s.span("outer", |s| s.span("inner", |_| ()));
        let text = s.to_jsonl("w");
        assert!(text.contains("\"id\":1,\"parent\":0,\"name\":\"inner\""));
        let mut off = Spans::new(false);
        off.span("x", |_| ());
        assert!(off.to_jsonl("w").is_empty());
    }

    #[test]
    fn cpu_counters_read_and_advance() {
        let a = CpuTimes::now();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let d = CpuTimes::now().since(a);
        assert!(
            d.own_s >= 0.02,
            "50 ms of spinning shows as CPU time: {d:?}"
        );
        assert!(peak_rss_mb() > 0.0);
    }
}
