//! A run's result: named metrics with units and sample counts, printed
//! as readable lines and as the final JSON object.

use std::fmt::Write as _;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// How many observations the value summarizes (jobs, calls, ...).
    pub samples: Option<usize>,
}

#[derive(Clone, Debug, Default)]
pub struct Report {
    pub workload: String,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Report {
            workload: workload.to_string(),
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    /// One `metric` line per metric and one `result` line, the format
    /// [`Report::parse`] reads back.
    pub fn print_lines(&self) {
        for m in &self.metrics {
            let samples = m.samples.map_or(String::new(), |n| format!(" samples={n}"));
            println!(
                "metric {} {} {} {}{samples}",
                self.workload, m.name, m.value, m.unit
            );
        }
        println!(
            "result {} correct={} attempted={} failed={}",
            self.workload, self.correct, self.attempted, self.failed
        );
    }

    pub fn parse(lines: &[String]) -> Option<Report> {
        let mut report = Report::default();
        let mut seen_result = false;
        for line in lines {
            let mut f = line.split_whitespace();
            match f.next() {
                Some("metric") => {
                    report.workload = f.next()?.to_string();
                    let name = f.next()?.to_string();
                    let value = f.next()?.parse().ok()?;
                    let unit = f.next()?.to_string();
                    let samples = f
                        .next()
                        .and_then(|s| s.strip_prefix("samples="))
                        .and_then(|s| s.parse().ok());
                    report.metrics.push(Metric {
                        name,
                        value,
                        unit,
                        samples,
                    });
                }
                Some("result") => {
                    report.workload = f.next()?.to_string();
                    for kv in f {
                        let (k, v) = kv.split_once('=')?;
                        match k {
                            "correct" => report.correct = v == "true",
                            "attempted" => report.attempted = v.parse().ok()?,
                            "failed" => report.failed = v.parse().ok()?,
                            _ => {}
                        }
                    }
                    seen_result = true;
                }
                _ => {}
            }
        }
        seen_result.then_some(report)
    }

    /// Folds another workload's report into this one, prefixing its
    /// metric names with the workload.
    pub fn absorb(&mut self, workload: &str, other: Report) {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for mut m in other.metrics {
            m.name = format!("{workload}/{}", m.name);
            self.metrics.push(m);
        }
    }

    pub fn to_json(&self) -> String {
        // `attempted` is at least 1 in the output; a run that attempted
        // nothing is reported as incorrect.
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // JSON has no NaN: a metric with no observations reads 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
