//! Metrics registry with Prometheus-style text exposition and a JSON
//! snapshot API.
//!
//! A [`Registry`] is a point-in-time snapshot assembled from simulator
//! state (see [`Noc::metrics`](crate::Noc::metrics) and the system-level
//! snapshot in `multinoc`), not a live instrument: building one walks the
//! already-maintained counters, so the simulation itself pays nothing
//! until a snapshot is requested. Families and samples are kept in
//! `BTreeMap`s, which makes both expositions byte-deterministic — the
//! trace-equivalence suite relies on `Reference`, `Active` and `Parallel`
//! kernels producing identical registry output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The exposition type of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// A sample value; integers keep exact text form, floats use the shortest
/// round-trip rendering.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    Int(u64),
    Float(f64),
}

impl Value {
    fn render(self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Float(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "0".to_string()
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Sample {
    labels: Vec<(String, String)>,
    value: Value,
}

#[derive(Debug, Clone)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the rendered label set so exposition order is stable.
    samples: BTreeMap<String, Sample>,
}

/// A metrics snapshot: named counter/gauge families with labelled samples.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: BTreeMap<String, Family>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a counter sample. The first call for `name` fixes the help
    /// text and kind of the family.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.insert(name, help, MetricKind::Counter, labels, Value::Int(value));
    }

    /// Records a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.insert(name, help, MetricKind::Gauge, labels, Value::Float(value));
    }

    /// Records a gauge sample with an exact integer value.
    pub fn gauge_int(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.insert(name, help, MetricKind::Gauge, labels, Value::Int(value));
    }

    fn insert(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        value: Value,
    ) {
        let family = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                kind,
                samples: BTreeMap::new(),
            });
        let key = render_labels(labels);
        family.samples.insert(
            key,
            Sample {
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                value,
            },
        );
    }

    /// Number of metric families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// Whether the registry holds no families.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// The value of one sample, if present.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let sample = self
            .families
            .get(name)?
            .samples
            .get(&render_labels(labels))?;
        Some(match sample.value {
            Value::Int(v) => v as f64,
            Value::Float(v) => v,
        })
    }

    /// Prometheus text exposition (`# HELP` / `# TYPE` headers followed by
    /// one line per sample), deterministically ordered.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (key, sample) in &family.samples {
                if key.is_empty() {
                    let _ = writeln!(out, "{name} {}", sample.value.render());
                } else {
                    let _ = writeln!(out, "{name}{{{key}}} {}", sample.value.render());
                }
            }
        }
        out
    }

    /// JSON snapshot: `{"metrics":[{"name","kind","help","samples":
    /// [{"labels":{...},"value":...}]}]}`, deterministically ordered.
    pub fn to_json(&self) -> String {
        let esc = crate::trace::json_escape;
        let mut out = String::from("{\"metrics\":[\n");
        let mut first_family = true;
        for (name, family) in &self.families {
            if !first_family {
                out.push_str(",\n");
            }
            first_family = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"help\":\"{}\",\"samples\":[",
                esc(name),
                family.kind.as_str(),
                esc(&family.help)
            );
            let mut first_sample = true;
            for sample in family.samples.values() {
                if !first_sample {
                    out.push(',');
                }
                first_sample = false;
                out.push_str("{\"labels\":{");
                let mut first_label = true;
                for (k, v) in &sample.labels {
                    if !first_label {
                        out.push(',');
                    }
                    first_label = false;
                    let _ = write!(out, "\"{}\":\"{}\"", esc(k), esc(v));
                }
                let _ = write!(out, "}},\"value\":{}}}", sample.value.render());
            }
            out.push_str("]}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Snapshot of the kernel phase profiler: wall-clock nanoseconds spent in
/// each sub-phase of the two-phase cycle engine, summed over all worker
/// shards. Produced by [`Noc::phase_profile`](crate::Noc::phase_profile)
/// once [`Noc::enable_phase_profiler`](crate::Noc::enable_phase_profiler)
/// has been called.
///
/// These are *measurements of the host machine*, not of the simulated
/// hardware — they vary run to run and are therefore deliberately kept out
/// of [`Registry`] snapshots, which must stay bit-identical across kernel
/// modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Cycles the profiler observed.
    pub cycles: u64,
    /// Nanoseconds in the local phase (inject, route, sink bookkeeping).
    pub local_nanos: u64,
    /// Nanoseconds in the read-only decide phase.
    pub decide_nanos: u64,
    /// Nanoseconds in the source-side apply phase (pops, corruption,
    /// local delivery, outbox writes).
    pub apply_src_nanos: u64,
    /// Nanoseconds in the destination-side apply phase (outbox drain;
    /// always zero on one thread, which has no mailboxes).
    pub apply_dst_nanos: u64,
    /// Nanoseconds worker shards spent waiting at phase barriers
    /// (always zero on one thread).
    pub barrier_nanos: u64,
}

impl PhaseProfile {
    /// Total nanoseconds doing simulation work (everything but barriers).
    pub fn busy_nanos(&self) -> u64 {
        self.local_nanos + self.decide_nanos + self.apply_src_nanos + self.apply_dst_nanos
    }

    /// Total profiled nanoseconds including barrier waits.
    pub fn total_nanos(&self) -> u64 {
        self.busy_nanos() + self.barrier_nanos
    }

    /// Fraction of profiled time spent waiting at barriers, or 0.0 when
    /// nothing was profiled.
    pub fn barrier_fraction(&self) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            self.barrier_nanos as f64 / total as f64
        }
    }
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", crate::trace::json_escape(v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_is_deterministic_and_sorted() {
        let mut reg = Registry::new();
        reg.counter("zeta_total", "last family", &[], 7);
        reg.counter("alpha_total", "first family", &[("link", "01:East")], 3);
        reg.counter("alpha_total", "first family", &[("link", "00:East")], 5);
        reg.gauge("beta_ratio", "a gauge", &[("node", "00")], 0.5);
        let text = reg.to_prometheus();
        let alpha = text.find("alpha_total").unwrap();
        let beta = text.find("beta_ratio").unwrap();
        let zeta = text.find("zeta_total").unwrap();
        assert!(alpha < beta && beta < zeta);
        assert!(text.contains("alpha_total{link=\"00:East\"} 5"));
        assert!(text.contains("alpha_total{link=\"01:East\"} 3"));
        assert!(text.contains("# TYPE beta_ratio gauge"));
        assert!(text.contains("zeta_total 7"));
        assert_eq!(text, reg.clone().to_prometheus());
    }

    #[test]
    fn get_reads_back_samples() {
        let mut reg = Registry::new();
        reg.counter("c", "h", &[("a", "b")], 9);
        reg.gauge("g", "h", &[], 1.25);
        assert_eq!(reg.get("c", &[("a", "b")]), Some(9.0));
        assert_eq!(reg.get("g", &[]), Some(1.25));
        assert_eq!(reg.get("c", &[]), None);
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }

    #[test]
    fn json_snapshot_shape() {
        let mut reg = Registry::new();
        reg.gauge_int("cycles", "simulated cycles", &[], 42);
        let json = reg.to_json();
        assert!(json.contains("\"name\":\"cycles\""));
        assert!(json.contains("\"kind\":\"gauge\""));
        assert!(json.contains("\"value\":42"));
        assert!(json.starts_with("{\"metrics\":["));
    }
}
