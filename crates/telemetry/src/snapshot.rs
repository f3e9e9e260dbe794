//! Coherent point-in-time snapshots and their wire form: Prometheus-style
//! text exposition for the `METRICS` wire command.

use std::fmt::Write as _;

use crate::metrics::{bucket_bound, bucket_index, HistogramSnapshot, BUCKETS};

/// The value of one registered metric at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonic counter's current total.
    Counter(u64),
    /// A gauge's current (signed) value.
    Gauge(i64),
    /// A histogram's frozen distribution (boxed: the 64-bucket array
    /// would otherwise dominate the size of every entry in the
    /// snapshot, which is mostly counters and gauges).
    Histogram(Box<HistogramSnapshot>),
}

/// Every registered metric, frozen at one instant, in name order.
/// Produced by [`Registry::snapshot`](crate::Registry::snapshot).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub metrics: Vec<(String, MetricValue)>,
}

impl TelemetrySnapshot {
    fn find(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// The counter `name`, if registered as one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.find(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge `name`, if registered as one.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.find(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `name`, if registered as one.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.find(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Renders the snapshot in Prometheus text format. Dots in metric
    /// names become underscores and everything gains an `icstar_`
    /// prefix (`serve.jobs.submitted` → `icstar_serve_jobs_submitted`).
    /// Histograms use the conventional cumulative `_bucket{le="..."}`
    /// series (upper bounds from the log₂ bucket layout), plus `_sum`
    /// and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let wire = wire_name(name);
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {wire} counter");
                    let _ = writeln!(out, "{wire} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {wire} gauge");
                    let _ = writeln!(out, "{wire} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {wire} histogram");
                    let mut cumulative = 0u64;
                    for (idx, &c) in h.buckets.iter().enumerate().take(BUCKETS - 1) {
                        if c != 0 {
                            cumulative += c;
                            let _ = writeln!(
                                out,
                                "{wire}_bucket{{le=\"{}\"}} {cumulative}",
                                bucket_bound(idx)
                            );
                        }
                    }
                    // The saturation bucket folds into +Inf, which is
                    // mandatory and carries the full total.
                    let _ = writeln!(out, "{wire}_bucket{{le=\"+Inf\"}} {}", h.bucket_total());
                    let _ = writeln!(out, "{wire}_sum {}", h.sum);
                    let _ = writeln!(out, "{wire}_count {}", h.count);
                }
            }
        }
        out
    }

    /// Parses Prometheus text produced by
    /// [`TelemetrySnapshot::to_prometheus`]. Metric names stay in wire
    /// form (`icstar_serve_jobs_submitted`) — the dot-to-underscore
    /// mangling is not inverted, so callers look metrics up by their
    /// wire names. Per-bucket counts are reconstructed from the
    /// cumulative `le` series (the `+Inf` remainder lands in the
    /// saturation bucket).
    pub fn parse_prometheus(text: &str) -> Result<TelemetrySnapshot, String> {
        let mut metrics: Vec<(String, MetricValue)> = Vec::new();
        let mut lines = text.lines().peekable();
        while let Some(line) = lines.next() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("# TYPE ")
                .ok_or_else(|| format!("expected a # TYPE line, got {line:?}"))?;
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed TYPE line {line:?}"))?;
            let name = name.to_owned();
            match kind {
                "counter" => {
                    let v = sample_value(lines.next(), &name)?;
                    let v: u64 = v.parse().map_err(|_| format!("bad counter value {v:?}"))?;
                    metrics.push((name, MetricValue::Counter(v)));
                }
                "gauge" => {
                    let v = sample_value(lines.next(), &name)?;
                    let v: i64 = v.parse().map_err(|_| format!("bad gauge value {v:?}"))?;
                    metrics.push((name, MetricValue::Gauge(v)));
                }
                "histogram" => {
                    let mut h = HistogramSnapshot::default();
                    let mut prev_cumulative = 0u64;
                    let bucket_prefix = format!("{name}_bucket{{le=\"");
                    loop {
                        let line = lines
                            .next()
                            .ok_or_else(|| format!("truncated histogram {name:?}"))?
                            .trim();
                        if let Some(rest) = line.strip_prefix(&bucket_prefix) {
                            let (le, count) = rest
                                .split_once("\"} ")
                                .ok_or_else(|| format!("malformed bucket line {line:?}"))?;
                            let cumulative: u64 = count
                                .parse()
                                .map_err(|_| format!("bad bucket count {count:?}"))?;
                            let delta = cumulative
                                .checked_sub(prev_cumulative)
                                .ok_or_else(|| format!("non-monotone buckets in {name:?}"))?;
                            prev_cumulative = cumulative;
                            let idx = if le == "+Inf" {
                                BUCKETS - 1
                            } else {
                                let bound: u64 =
                                    le.parse().map_err(|_| format!("bad le bound {le:?}"))?;
                                bucket_index(bound)
                            };
                            h.buckets[idx] += delta;
                            if le == "+Inf" {
                                break;
                            }
                        } else {
                            return Err(format!("expected bucket line for {name:?}, got {line:?}"));
                        }
                    }
                    let sum_line = lines
                        .next()
                        .ok_or_else(|| format!("missing _sum for {name:?}"))?;
                    h.sum = suffixed_value(sum_line, &format!("{name}_sum"))?;
                    let count_line = lines
                        .next()
                        .ok_or_else(|| format!("missing _count for {name:?}"))?;
                    h.count = suffixed_value(count_line, &format!("{name}_count"))?;
                    metrics.push((name, MetricValue::Histogram(Box::new(h))));
                }
                other => return Err(format!("unknown metric kind {other:?}")),
            }
        }
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(TelemetrySnapshot { metrics })
    }
}

/// The Prometheus-side name: `icstar_` prefix, dots to underscores.
pub fn wire_name(name: &str) -> String {
    let mut wire = String::with_capacity(name.len() + 7);
    wire.push_str("icstar_");
    for c in name.chars() {
        wire.push(if c == '.' { '_' } else { c });
    }
    wire
}

fn sample_value<'a>(line: Option<&'a str>, name: &str) -> Result<&'a str, String> {
    let line = line
        .ok_or_else(|| format!("missing sample for {name:?}"))?
        .trim();
    line.strip_prefix(name)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| format!("expected a sample for {name:?}, got {line:?}"))
}

fn suffixed_value(line: &str, expected: &str) -> Result<u64, String> {
    let v = sample_value(Some(line), expected)?;
    v.parse()
        .map_err(|_| format!("bad value {v:?} for {expected:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> TelemetrySnapshot {
        let r = Registry::new();
        r.counter("serve.jobs.submitted").add(3);
        r.gauge("serve.queue.depth").set(-2);
        let h = r.histogram("serve.job.total_ns");
        for v in [0u64, 1, 100, 5_000, u64::MAX] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn prometheus_round_trips_modulo_name_mangling() {
        let snap = sample();
        let text = snap.to_prometheus();
        let parsed = TelemetrySnapshot::parse_prometheus(&text).unwrap();
        assert_eq!(parsed.metrics.len(), snap.metrics.len());
        for (name, value) in &snap.metrics {
            let wire = wire_name(name);
            match value {
                MetricValue::Counter(v) => assert_eq!(parsed.counter(&wire), Some(*v)),
                MetricValue::Gauge(v) => assert_eq!(parsed.gauge(&wire), Some(*v)),
                MetricValue::Histogram(h) => {
                    let got = parsed.histogram(&wire).unwrap();
                    assert_eq!(got, h.as_ref(), "histogram {name} survives exposition");
                }
            }
        }
    }

    #[test]
    fn prometheus_text_shape_is_pinned() {
        let r = Registry::new();
        r.counter("wire.cmd.ping").add(2);
        let h = r.histogram("wire.rtt_ns");
        h.record(5); // bucket 3, bound 7
        h.record(6); // bucket 3
        h.record(900); // bucket 10, bound 1023
        assert_eq!(
            r.snapshot().to_prometheus(),
            "# TYPE icstar_wire_cmd_ping counter\n\
             icstar_wire_cmd_ping 2\n\
             # TYPE icstar_wire_rtt_ns histogram\n\
             icstar_wire_rtt_ns_bucket{le=\"7\"} 2\n\
             icstar_wire_rtt_ns_bucket{le=\"1023\"} 3\n\
             icstar_wire_rtt_ns_bucket{le=\"+Inf\"} 3\n\
             icstar_wire_rtt_ns_sum 911\n\
             icstar_wire_rtt_ns_count 3\n"
        );
    }

    #[test]
    fn prometheus_parser_rejects_garbage() {
        for bad in [
            "not a type line\n",
            "# TYPE x marimba\nx 1\n",
            "# TYPE x counter\ny 1\n",
            "# TYPE x histogram\nx_bucket{le=\"7\"} 2\n", // no +Inf / sum / count
        ] {
            assert!(
                TelemetrySnapshot::parse_prometheus(bad).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn lookups_distinguish_kinds() {
        let snap = sample();
        assert_eq!(snap.counter("serve.jobs.submitted"), Some(3));
        assert_eq!(snap.gauge("serve.jobs.submitted"), None);
        assert_eq!(snap.histogram("missing"), None);
        assert!(snap.histogram("serve.job.total_ns").is_some());
    }
}
