//! The versioned profile snapshot schema behind `convmeter profile` and
//! `tools/perf_gate.sh`.
//!
//! A [`Profile`] freezes one observability session: the aggregated span
//! tree plus a full metrics snapshot. Two views exist:
//!
//! * the **full** profile (written to `BENCH_profile.json`) carries wall
//!   times and feeds the perf gate, and
//! * the **deterministic** view ([`Profile::deterministic`], printed by
//!   `convmeter profile --json`) zeroes every machine-dependent field —
//!   span times and `_ms`/`_us` histogram contents — so its bytes are
//!   identical across runs on any machine and can be diffed or snapshotted
//!   in tests.

use crate::metric::MetricsSnapshot;
use crate::span::SpanAgg;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Bump when the profile JSON layout changes incompatibly; the perf gate
/// refuses to compare mismatched versions.
pub const PROFILE_FORMAT: u32 = 1;

/// Spans shorter than this in the baseline are not gated: at this scale
/// scheduler jitter dominates and any tolerance would be arbitrary.
pub const GATE_MIN_SPAN_MS: f64 = 5.0;

/// One node of the serialised span tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanNode {
    /// Span name (`layer.operation` by convention).
    pub name: String,
    /// Completions of this path.
    pub count: u64,
    /// Summed wall time, milliseconds. Zero in the deterministic view.
    pub total_ms: f64,
    /// Wall time not attributed to children, ms. Zero in the deterministic
    /// view.
    pub self_ms: f64,
    /// Child spans, sorted by name.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn from_agg(name: &str, agg: &SpanAgg) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            count: agg.count,
            total_ms: agg.total.as_secs_f64() * 1e3,
            self_ms: agg.self_time().as_secs_f64() * 1e3,
            // BTreeMap iteration gives the children in name order.
            children: agg
                .children
                .iter()
                .map(|(n, c)| SpanNode::from_agg(n, c))
                .collect(),
        }
    }

    fn zero_times(&mut self) {
        self.total_ms = 0.0;
        self.self_ms = 0.0;
        for c in &mut self.children {
            c.zero_times();
        }
    }

    fn flatten_into(&self, prefix: &str, out: &mut BTreeMap<String, (u64, f64)>) {
        let path = if prefix.is_empty() {
            self.name.clone()
        } else {
            format!("{prefix}/{}", self.name)
        };
        out.insert(path.clone(), (self.count, self.total_ms));
        for c in &self.children {
            c.flatten_into(&path, out);
        }
    }
}

/// Serialised histogram contents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileHistogram {
    /// Observation count.
    pub count: u64,
    /// Sum of recorded values. Zeroed for `_ms`/`_us` histograms in the
    /// deterministic view.
    pub sum: u64,
    /// Sparse `(bucket index, count)` pairs. Cleared for `_ms`/`_us`
    /// histograms in the deterministic view.
    pub buckets: Vec<(u64, u64)>,
}

/// Serialised metric registry snapshot.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProfileMetrics {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, ProfileHistogram>,
}

/// One frozen observability session, in its stable on-disk schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Profile {
    /// Schema version ([`PROFILE_FORMAT`]).
    pub format_version: u32,
    /// Which workload suite produced this profile (a versioned name such as
    /// `quick-v3` / `full-v3`; the suffix is bumped when the suite changes).
    pub workload: String,
    /// Whether machine-dependent fields have been zeroed.
    pub deterministic: bool,
    /// Root spans, sorted by name.
    pub spans: Vec<SpanNode>,
    /// Metric registry snapshot.
    pub metrics: ProfileMetrics,
}

/// Whether a metric name carries wall-clock time by convention.
fn is_time_metric(name: &str) -> bool {
    name.ends_with("_ms") || name.ends_with("_us")
}

impl Profile {
    /// Freeze a session's span tree and metrics snapshot.
    pub fn capture(workload: &str, spans: &SpanAgg, metrics: &MetricsSnapshot) -> Profile {
        Profile {
            format_version: PROFILE_FORMAT,
            workload: workload.to_string(),
            deterministic: false,
            spans: spans
                .children
                .iter()
                .map(|(n, c)| SpanNode::from_agg(n, c))
                .collect(),
            metrics: ProfileMetrics {
                counters: metrics.counters.clone(),
                gauges: metrics.gauges.clone(),
                histograms: metrics
                    .histograms
                    .iter()
                    .map(|(name, h)| {
                        (
                            name.clone(),
                            ProfileHistogram {
                                count: h.count,
                                sum: h.sum,
                                buckets: h.buckets.iter().map(|&(i, n)| (i as u64, n)).collect(),
                            },
                        )
                    })
                    .collect(),
            },
        }
    }

    /// The byte-deterministic view: span wall times zeroed, `_ms`/`_us`
    /// histogram contents stripped. Structure, counts, counters, and
    /// gauges — all machine-independent — survive unchanged.
    pub fn deterministic(&self) -> Profile {
        let mut out = self.clone();
        out.deterministic = true;
        for s in &mut out.spans {
            s.zero_times();
        }
        for (name, h) in &mut out.metrics.histograms {
            if is_time_metric(name) {
                h.sum = 0;
                h.buckets.clear();
            }
        }
        out
    }

    /// Pretty JSON rendering (stable key order; maps are `BTreeMap`s).
    pub fn to_json(&self) -> String {
        // analyzer:allow(CA0004, reason = "profiles are plain data; serialisation cannot fail")
        serde_json::to_string_pretty(self).expect("profiles serialise")
    }

    /// Parse a profile, e.g. a committed baseline.
    pub fn from_json(json: &str) -> Result<Profile, String> {
        let profile: Profile = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if profile.format_version != PROFILE_FORMAT {
            return Err(format!(
                "profile format {} unsupported (expected {PROFILE_FORMAT})",
                profile.format_version
            ));
        }
        Ok(profile)
    }

    /// Flat `path -> (count, total_ms)` index over the span tree.
    pub fn flat_spans(&self) -> BTreeMap<String, (u64, f64)> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            s.flatten_into("", &mut out);
        }
        out
    }

    /// Gate this (fresh) profile against a committed baseline.
    ///
    /// Span wall times may regress by at most `tolerance` (relative, e.g.
    /// `0.25`); baseline spans shorter than [`GATE_MIN_SPAN_MS`] are
    /// ignored. Span counts and counters must match exactly — they are
    /// machine-independent (identical between the timed profile and its
    /// deterministic view), so any drift means the workload changed and
    /// the baseline needs regenerating.
    ///
    /// Both sides must be *timed* profiles: a [`Profile::deterministic`]
    /// view carries zeroed wall times, so comparing one would let every
    /// span pass (or regress) trivially. Such inputs are rejected with a
    /// `deterministic-profile` finding instead of silently passing.
    pub fn compare(&self, baseline: &Profile, tolerance: f64) -> GateReport {
        let mut findings = Vec::new();
        for (who, deterministic) in [
            ("baseline", baseline.deterministic),
            ("profile", self.deterministic),
        ] {
            if deterministic {
                findings.push(GateFinding {
                    kind: "deterministic-profile".into(),
                    name: who.into(),
                    baseline: 0.0,
                    current: 0.0,
                    detail: format!(
                        "the {who} is a deterministic view (wall times zeroed), so span \
                         times cannot be gated — regenerate it with `convmeter profile --out`"
                    ),
                });
            }
        }
        if self.workload != baseline.workload {
            findings.push(GateFinding {
                kind: "workload-mismatch".into(),
                name: baseline.workload.clone(),
                baseline: 0.0,
                current: 0.0,
                detail: format!(
                    "baseline ran workload '{}', this profile ran '{}'",
                    baseline.workload, self.workload
                ),
            });
        }
        let ours = self.flat_spans();
        let mut gated = 0usize;
        for (path, &(base_count, base_ms)) in &baseline.flat_spans() {
            let Some(&(count, ms)) = ours.get(path) else {
                findings.push(GateFinding {
                    kind: "missing-span".into(),
                    name: path.clone(),
                    baseline: base_ms,
                    current: 0.0,
                    detail: "span present in baseline but absent now".into(),
                });
                continue;
            };
            if count != base_count {
                findings.push(GateFinding {
                    kind: "count-drift".into(),
                    name: path.clone(),
                    baseline: base_count as f64,
                    current: count as f64,
                    detail: format!(
                        "span ran {count} time(s), baseline ran {base_count} — \
                         workload drift, regenerate the baseline"
                    ),
                });
                continue;
            }
            if base_ms < GATE_MIN_SPAN_MS {
                continue;
            }
            gated += 1;
            let limit = base_ms * (1.0 + tolerance);
            if ms > limit {
                findings.push(GateFinding {
                    kind: "regression".into(),
                    name: path.clone(),
                    baseline: base_ms,
                    current: ms,
                    detail: format!(
                        "{ms:.1} ms vs baseline {base_ms:.1} ms (limit {limit:.1} ms at \
                         {:.0}% tolerance)",
                        tolerance * 100.0
                    ),
                });
            }
        }
        for (name, &base) in &baseline.metrics.counters {
            let current = self.metrics.counters.get(name).copied().unwrap_or(0);
            if current != base {
                findings.push(GateFinding {
                    kind: "counter-drift".into(),
                    name: name.clone(),
                    baseline: base as f64,
                    current: current as f64,
                    detail: format!(
                        "counter reads {current}, baseline {base} — workload drift, \
                         regenerate the baseline"
                    ),
                });
            }
        }
        GateReport {
            tolerance,
            gated_spans: gated,
            findings,
        }
    }
}

/// One perf-gate finding.
#[derive(Debug, Clone, Serialize)]
pub struct GateFinding {
    /// `regression`, `missing-span`, `count-drift`, `counter-drift`,
    /// `workload-mismatch`, or `deterministic-profile`.
    pub kind: String,
    /// Span path or metric name.
    pub name: String,
    /// Baseline reading (ms for spans).
    pub baseline: f64,
    /// Current reading (ms for spans).
    pub current: f64,
    /// Human explanation.
    pub detail: String,
}

impl std::fmt::Display for GateFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.kind, self.name, self.detail)
    }
}

/// Outcome of [`Profile::compare`].
#[derive(Debug, Clone, Serialize)]
pub struct GateReport {
    /// Relative tolerance applied to span wall times.
    pub tolerance: f64,
    /// Spans long enough to be gated on time.
    pub gated_spans: usize,
    /// Everything that failed the gate; empty means pass.
    pub findings: Vec<GateFinding>,
}

impl GateReport {
    /// Whether the gate passed.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_profile(scale: f64) -> Profile {
        let mut root = SpanAgg::default();
        let mut sweep = SpanAgg {
            count: 2,
            total: Duration::from_secs_f64(0.100 * scale),
            ..SpanAgg::default()
        };
        let fit = SpanAgg {
            count: 4,
            total: Duration::from_secs_f64(0.040 * scale),
            ..SpanAgg::default()
        };
        sweep.children.insert("fit".into(), fit);
        root.children.insert("sweep".into(), sweep);
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("kernels".into(), 123);
        Profile::capture("quick", &root, &metrics)
    }

    #[test]
    fn json_roundtrips() {
        let p = sample_profile(1.0);
        let parsed = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(parsed.spans.len(), 1);
        assert_eq!(parsed.spans[0].name, "sweep");
        assert_eq!(parsed.spans[0].children[0].name, "fit");
        assert_eq!(parsed.metrics.counters["kernels"], 123);
    }

    #[test]
    fn format_version_is_checked() {
        let mut p = sample_profile(1.0);
        p.format_version = 999;
        assert!(Profile::from_json(&p.to_json()).is_err());
    }

    #[test]
    fn deterministic_view_zeroes_times_but_keeps_structure() {
        let p = sample_profile(1.0);
        let d = p.deterministic();
        assert!(d.deterministic);
        assert_eq!(d.spans[0].total_ms, 0.0);
        assert_eq!(d.spans[0].children[0].total_ms, 0.0);
        assert_eq!(d.spans[0].count, 2);
        assert_eq!(d.metrics.counters["kernels"], 123);
        // Two captures with different wall times agree byte-for-byte once
        // deterministic.
        let other = sample_profile(3.0).deterministic();
        assert_eq!(d.to_json(), other.to_json());
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let baseline = sample_profile(1.0);
        assert!(sample_profile(1.2).compare(&baseline, 0.25).passed());
        let report = sample_profile(1.5).compare(&baseline, 0.25);
        assert!(!report.passed());
        assert!(report.findings.iter().any(|f| f.kind == "regression"));
        assert!(report.gated_spans >= 2);
    }

    #[test]
    fn gate_flags_workload_and_counter_drift() {
        let baseline = sample_profile(1.0);
        let mut current = sample_profile(1.0);
        current.metrics.counters.insert("kernels".into(), 99);
        current.workload = "default".into();
        let report = current.compare(&baseline, 0.25);
        let kinds: Vec<&str> = report.findings.iter().map(|f| f.kind.as_str()).collect();
        assert!(kinds.contains(&"counter-drift"));
        assert!(kinds.contains(&"workload-mismatch"));
    }

    #[test]
    fn gate_rejects_deterministic_views() {
        // A deterministic view has zeroed wall times; gating against (or
        // with) one would pass trivially, so it must be rejected outright.
        let timed = sample_profile(1.0);
        let zeroed = timed.deterministic();
        let report = sample_profile(5.0).compare(&zeroed, 0.25);
        assert!(!report.passed());
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == "deterministic-profile" && f.name == "baseline"));
        // ... and a 5x slowdown against the zeroed baseline produced no
        // regression finding — exactly the silent pass the guard exists for.
        assert!(report.findings.iter().all(|f| f.kind != "regression"));
        let report = zeroed.compare(&timed, 0.25);
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == "deterministic-profile" && f.name == "profile"));
    }

    #[test]
    fn gate_flags_missing_spans_and_count_drift() {
        let baseline = sample_profile(1.0);
        let mut current = sample_profile(1.0);
        current.spans[0].children.clear();
        current.spans[0].count = 7;
        let report = current.compare(&baseline, 0.25);
        let kinds: Vec<&str> = report.findings.iter().map(|f| f.kind.as_str()).collect();
        assert!(kinds.contains(&"missing-span"));
        assert!(kinds.contains(&"count-drift"));
    }
}
