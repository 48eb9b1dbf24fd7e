//! The E18–E25 experiment runner: `exp_suite [--smoke] [name …]`.
//!
//! Runs the named experiments (all seven by default) from the working
//! directory, each writing its artifacts there, and fails unless each
//! one's result digest equals the value pinned for it below. The digest
//! is Fletcher-64 over the `Noc`/`System::fingerprint` of every
//! simulated run, in run order; a run repeated under several kernels is
//! one entry once they agree, so the digest does not depend on the
//! host's CPU count. Wall-clock rates are reported, never pinned.
//!
//! `--smoke` selects the short CI variant of every experiment, with its
//! own pins. Given several experiments, the runner runs each in a child
//! process of its own (`exp_suite [--smoke] <name>`), so a process-wide
//! reading such as `peak_rss_kib` describes that experiment alone.
//!
//! Run with `cargo run --release -p multinoc-bench --bin exp_suite --
//! --smoke` from a scratch directory.

mod chaos;
mod degradation;
mod fault_sweep;
mod observability;
mod perf;
mod recovery;
mod topology;

use std::error::Error;
use std::process::{Command, ExitCode};

use multinoc_bench::suite::Runs;

/// What an experiment returns: artifact I/O and simulator setup errors.
type Outcome = Result<(), Box<dyn Error>>;

/// An experiment's name, its entry point, and the result digests pinned
/// for `--smoke` and for full runs.
type Experiment = (&'static str, fn(&mut Runs) -> Outcome, u64, u64);

/// Every experiment, in E-number order. A pin moves only with a
/// deliberate change to what an experiment simulates; `exp_suite`
/// prints the computed digest on a mismatch.
#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 7] = [
    ("fault_sweep", fault_sweep::run, 0x1318_67c3_fdf9_42c6, 0x1318_67c3_fdf9_42c6),
    ("degradation", degradation::run, 0x836d_7fa6_3fcf_936f, 0x836d_7fa6_3fcf_936f),
    ("perf", perf::run, 0x3439_04a9_a7fa_34f0, 0x3695_bf4a_669b_0935),
    ("observability", observability::run, 0xdcf6_e088_43e2_914c, 0xfe76_a326_89f7_d6b7),
    ("chaos", chaos::run, 0x46d4_16fa_b435_eb73, 0xd85e_fa74_b92d_14a5),
    ("recovery", recovery::run, 0x0b83_0bb6_66a2_bd8e, 0x0b83_0bb6_66a2_bd8e),
    ("topology", topology::run, 0x351c_ae8a_c82a_7a31, 0x334d_861a_b95c_066a),
];

/// Runs one experiment in this process and checks its pin.
fn run_one(&(name, run, smoke_pin, full_pin): &Experiment, smoke: bool) -> Outcome {
    let mut runs = Runs::new(name, smoke);
    run(&mut runs)?;
    let digest = runs.check(if smoke { smoke_pin } else { full_pin })?;
    println!("{name}: result digest {digest:#018x} matches its pin");
    Ok(())
}

fn main() -> ExitCode {
    if let Ok(path) = std::env::var(recovery::CHILD_ENV) {
        recovery::run_child(&path);
        return ExitCode::SUCCESS;
    }
    let mut smoke = false;
    let mut chosen = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if let Some(experiment) = EXPERIMENTS.iter().find(|e| e.0 == arg) {
            chosen.push(experiment);
        } else {
            let names: Vec<_> = EXPERIMENTS.iter().map(|e| e.0).collect();
            eprintln!(
                "usage: exp_suite [--smoke] [name ...]\nunknown argument {arg:?}; \
                 experiments: {}",
                names.join(", ")
            );
            return ExitCode::from(2);
        }
    }
    if let [experiment] = chosen[..] {
        return match run_one(experiment, smoke) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if chosen.is_empty() {
        chosen = EXPERIMENTS.iter().collect();
    }
    let exe = std::env::current_exe().expect("own path");
    let mut failed = Vec::new();
    for &(name, ..) in chosen {
        println!("=== {name} ===");
        let status = Command::new(&exe)
            .args(smoke.then_some("--smoke"))
            .arg(name)
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(name);
        }
        println!();
    }
    if failed.is_empty() {
        println!("all experiments match their pins");
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
