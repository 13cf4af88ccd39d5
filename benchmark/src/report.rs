//! Metrics as the benchmark reports them: one `workload metric value unit`
//! line each for people, and one JSON object for tools that gate on
//! them.

use crate::stats::Percentile;
use std::fmt::Write as _;

/// A metric name is one or more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was drawn, for the human line: the sample count, and
    /// whether a tail percentile has enough samples beyond it.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        let name = name.into();
        assert!(
            valid_name(&name),
            "metric name '{name}' breaks [A-Za-z0-9_.-]+"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    /// A percentile, noted with its sample count and flagged when fewer
    /// than ten samples lie beyond it.
    pub fn percentile(name: impl Into<String>, p: Percentile, unit: &'static str) -> Metric {
        let note = if p.supported() {
            format!("n={} beyond={}", p.n, p.beyond)
        } else {
            format!("n={} beyond={} unsupported", p.n, p.beyond)
        };
        Metric::new(name, p.value, unit).with_note(note)
    }

    /// [`crate::stats::tail`], noted with the percentile it landed on.
    pub fn tail(name: impl Into<String>, (p, q): (f64, Percentile), unit: &'static str) -> Metric {
        let m = Metric::percentile(name, q, unit);
        let note = format!("p{p:.1} {}", m.note);
        m.with_note(note)
    }

    /// A count or mean over `n` samples.
    pub fn over(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric::new(name, value, unit).with_note(format!("n={n}"))
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: requests for serve, invocations for bench,
    /// layer calls for the trace pass.
    pub attempted: u64,
    /// Attempted operations that failed or returned a wrong answer.
    pub failed: u64,
    /// The metrics the run is judged on.
    pub metrics: Vec<Metric>,
    /// Context printed next to them but not judged: generator lag and the
    /// host canary.
    pub info: Vec<Metric>,
    /// Lines explaining each failure.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn human_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.info) {
            let _ = writeln!(
                out,
                "{workload} {} {} {} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let _ = writeln!(
            out,
            "{workload} operations attempted={} failed={}",
            self.attempted, self.failed
        );
        for why in self.failures.iter().take(20) {
            let _ = writeln!(out, "{workload} FAILED {why}");
        }
        out
    }

    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Names and units are checked ASCII without quotes or escapes;
            // `{:?}` on f64 prints every digit and always a decimal point.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "serve.hot.transport_us.p50",
            "exp.extended_zoo_ms",
            "a-b",
            "9",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "latency p50", "a/b", "x:y", "é", "\"q\"", "a,b"] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "breaks")]
    fn metric_rejects_a_bad_name() {
        let _ = Metric::new("two words", 1.0, "ms");
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.push(Metric::new("latency_p50_ms", 1.25, "ms"));
        o.metrics.push(Metric::new("setup_s", 2.0, "s"));
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        o.fail("body mismatch");
        let v = serde_json::parse(&o.to_json()).unwrap();
        assert!(matches!(
            v.get("correct"),
            Some(serde_json::Value::Bool(false))
        ));
        assert_eq!(v.get("failed").and_then(serde_json::Value::as_u64), Some(1));
    }
}
