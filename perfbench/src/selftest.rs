//! Self-tests of the benchmark. Run them optimised, as the benchmark
//! itself runs: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::workloads::{Results, Workload, NAMES};
use crate::{end_to_end, per_layer, run_once, Tally, END_TO_END, PER_LAYER};

const SEED: u64 = 7;

fn workload(name: &str) -> Workload {
    Workload::new(name, SEED).expect("known workload")
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit() {
    let json = include_str!("../../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json names a metric the benchmark does not print"
    );
    let listed: Vec<&str> = json
        .split("{\"name\": \"")
        .filter_map(|entry| entry.split_once("\", \"why\"").map(|(name, _)| name))
        .collect();
    assert!(listed.len() >= 2, "BENCHMARK.json lists too few workloads");
    for name in listed {
        assert!(
            NAMES.contains(&name),
            "BENCHMARK.json lists unknown workload {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric() {
    for name in NAMES {
        let w = workload(name);
        let expected = w.expected().expect("reference run");
        let plain = vec![run_once(&w, &expected, false)];
        let mut traced_run = run_once(&w, &expected, true);
        let observed = traced_run.traced.take().expect("traced simulation");
        let mut tally = Tally::default();
        tally.add(&plain[0]);
        tally.add(&traced_run);
        assert_eq!(tally.failed, 0, "{name} failed operations");

        let e2e: Vec<&str> = end_to_end(&plain, tally, 1, 1.0)
            .iter()
            .map(|m| m.0)
            .collect();
        let table: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(e2e, table, "{name}: end-to-end metrics");
        let traced = [(traced_run, observed)];
        let layers = per_layer(&plain, &traced, 1.0, 1.0);
        let table: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        let names: Vec<&str> = layers.iter().map(|m| m.0).collect();
        assert_eq!(names, table, "{name}: per-layer metrics");
        assert!(
            layers.iter().all(|m| m.1.is_finite()),
            "{name}: a per-layer metric is not finite"
        );
    }
}

#[test]
fn a_corrupted_result_word_fails_its_operation() {
    for name in ["sea12", "edge_host", "mem_hotspot"] {
        let w = workload(name);
        let expected = w.expected().expect("reference");
        let mut sim = w.setup().expect("set-up");
        w.drive(&mut sim).expect("runs");
        let output = w.output(&sim);
        let (attempted, failed) = output.check(&expected);
        assert!(attempted > 0);
        assert_eq!(failed, 0, "{name}: clean run must verify");

        let Results::Words(mut words) = output else {
            panic!("{name} yields result words");
        };
        let last = words.len() - 1;
        let word = words[last].last_mut().expect("a result word");
        *word ^= 1;
        let (attempted, failed) = Results::Words(words).check(&expected);
        assert_eq!(failed, 1, "{name}: one corrupted word fails one operation");
        let tally = Tally { attempted, failed };
        assert!(
            1.0 - tally.verified_frac() > 0.0,
            "{name}: failed_ops_frac > 0"
        );
    }
}

/// Simulated outputs that must repeat exactly: makespan and the counters
/// behind `r8.instructions`, `hermes.flit_hops` and `reliable.*`.
fn simulated(w: &Workload) -> (u64, crate::workloads::Counts) {
    let expected = w.expected().expect("reference");
    let i = run_once(w, &expected, false);
    assert_eq!(i.failed, 0);
    (i.makespan, i.counts)
}

#[test]
fn simulated_metrics_repeat_across_runs_of_one_seed() {
    for name in NAMES {
        let w = workload(name);
        assert_eq!(simulated(&w), simulated(&w), "{name} is not deterministic");
    }
}

#[test]
fn noc_sat32_agrees_at_one_and_two_threads() {
    let w = workload("noc_sat32");
    assert_eq!(simulated(&w.with_threads(1)), simulated(&w.with_threads(2)));
}

#[test]
fn seeds_change_the_inputs() {
    for name in ["sea12", "edge_host", "mem_hotspot"] {
        let a = Workload::new(name, 1).unwrap().expected().unwrap();
        let b = Workload::new(name, 2).unwrap().expected().unwrap();
        assert_ne!(a, b, "{name}: the seed must reach the inputs");
    }
}
