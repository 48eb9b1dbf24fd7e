//! E22 (extension) — deterministic chaos harness: randomized node-death
//! schedules against replicated memory on 2×2..4×4 meshes.
//!
//! Every trial draws — from a per-point seed, never from global state —
//! a victim (the serving primary's router, the backup's router, a
//! bystander router hosting no IP, or the primary's IP core alone) and
//! a kill cycle, then runs a write → spin → read-back → write workload
//! through the replicated window. The invariant under test: **as long
//! as one replica member survives, no acknowledged service result is
//! lost and none is applied twice** — the read returns the value
//! written before the death, the post-failover write lands on the
//! surviving member, and the run halts instead of hanging or erroring.
//!
//! Every trial also runs under all five NoC kernels and must reach an
//! identical outcome — cycle count, memory end-state, dead sets,
//! failover log, retry and replication counters, and the
//! `System::fingerprint` of the whole simulated state — so fault
//! diagnosis and failover are proven kernel-invariant. The
//! machine-readable summary lands in `BENCH_chaos.json`.

use hermes_noc::{FaultPlan, KernelMode, NocConfig, RouterAddr, Routing};
use multinoc::{NodeId, System};
use multinoc_bench::obj;
use multinoc_bench::suite::{Runs, KERNELS};
use prng::Xorshift64;
use r8::asm::assemble;

use crate::Outcome;

/// Seed of the whole sweep; each point derives its own stream from it.
const SEED: u64 = 0xC4A0_5E22;
/// Cycle budget per run (idle fast-forward keeps real cost far lower).
const BUDGET: u64 = 4_000_000;

const PROCESSOR: NodeId = NodeId(1);
const PRIMARY: NodeId = NodeId(2);
const BACKUP: NodeId = NodeId(3);

/// One mesh configuration of the sweep.
struct Mesh {
    n: u8,
    primary: RouterAddr,
    backup: RouterAddr,
    /// Routers hosting no IP (victim candidates for bystander kills).
    bystanders: Vec<RouterAddr>,
}

fn meshes() -> Vec<Mesh> {
    vec![
        Mesh {
            n: 2,
            primary: RouterAddr::new(1, 1),
            backup: RouterAddr::new(1, 0),
            bystanders: vec![],
        },
        Mesh {
            n: 3,
            primary: RouterAddr::new(1, 1),
            backup: RouterAddr::new(2, 2),
            bystanders: vec![
                RouterAddr::new(2, 0),
                RouterAddr::new(0, 2),
                RouterAddr::new(1, 2),
            ],
        },
        Mesh {
            n: 4,
            primary: RouterAddr::new(1, 1),
            backup: RouterAddr::new(3, 3),
            bystanders: vec![
                RouterAddr::new(3, 0),
                RouterAddr::new(0, 3),
                RouterAddr::new(2, 2),
                RouterAddr::new(3, 1),
            ],
        },
    ]
}

/// What the trial kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kill {
    /// The serving primary's router.
    PrimaryRouter,
    /// The backup's router.
    BackupRouter,
    /// A router hosting no IP (traffic detours, nobody fails over).
    Bystander(RouterAddr),
    /// The primary's IP core only — its router keeps forwarding.
    PrimaryEndpoint,
}

impl Kill {
    fn label(self) -> String {
        match self {
            Kill::PrimaryRouter => "primary-router".into(),
            Kill::BackupRouter => "backup-router".into(),
            Kill::PrimaryEndpoint => "primary-endpoint".into(),
            Kill::Bystander(a) => format!("bystander-{a}"),
        }
    }
}

/// One fully-specified chaos trial.
struct Trial {
    kill: Kill,
    kill_cycle: u64,
    /// Spin-loop iterations between the first write and the read-back,
    /// so the read lands before, during or after the failover.
    spin: u64,
}

fn draw_trial(rng: &mut Xorshift64, mesh: &Mesh) -> Trial {
    let kinds = if mesh.bystanders.is_empty() { 3 } else { 4 };
    let kill = match rng.below(kinds) {
        0 => Kill::PrimaryRouter,
        1 => Kill::BackupRouter,
        2 => Kill::PrimaryEndpoint,
        _ => Kill::Bystander(mesh.bystanders[rng.below(mesh.bystanders.len() as u64) as usize]),
    };
    Trial {
        kill,
        kill_cycle: 200 + rng.below(4_000),
        spin: rng.below(6_000),
    }
}

/// Everything one run leaves behind, compared across kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TrialOutcome {
    cycles: u64,
    read_back: u16,
    primary_word: Option<u16>,
    backup_word: Option<u16>,
    dead_nodes: String,
    failovers: String,
    replication_writes: u64,
    retransmissions: u64,
    reroute_resets: u64,
}

/// Runs one trial; returns the [`System::fingerprint`] of the halted run
/// and its outcome.
fn run_trial(mesh: &Mesh, trial: &Trial, seed: u64, kernel: KernelMode) -> (u64, TrialOutcome) {
    let mut config = NocConfig::mesh(mesh.n, mesh.n);
    config.routing = Routing::FaultTolerantXy;
    let mut sys = System::builder()
        .noc(config)
        .kernel(kernel)
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .replicated_memory_at(mesh.primary, mesh.backup)
        .build()
        .expect("replicated layout");
    let plan = FaultPlan::new(seed);
    let plan = match trial.kill {
        Kill::PrimaryRouter => plan.with_router_down(mesh.primary, trial.kill_cycle),
        Kill::BackupRouter => plan.with_router_down(mesh.backup, trial.kill_cycle),
        Kill::Bystander(addr) => plan.with_router_down(addr, trial.kill_cycle),
        Kill::PrimaryEndpoint => plan.with_endpoint_down(mesh.primary, trial.kill_cycle),
    };
    sys.set_fault_plan(plan).expect("valid fault plan");
    let base = sys
        .address_map(PROCESSOR)
        .expect("map")
        .window_base(PRIMARY)
        .expect("window");
    let program = assemble(&format!(
        "LIW R1, {base}\n\
         LIW R2, 555\n\
         XOR R0, R0, R0\n\
         ST R2, R1, R0\n\
         LIW R5, {spin}\n\
         loop: SUBI R5, 1\n\
         JMPZD go\n\
         JMPD loop\n\
         go: LD R3, R1, R0\n\
         LIW R4, 0x20\n\
         ST R3, R4, R0\n\
         LIW R6, 666\n\
         ADDI R1, 1\n\
         ST R6, R1, R0\n\
         HALT",
        spin = trial.spin.max(1),
    ))
    .expect("assembles");
    sys.memory_mut(PROCESSOR)
        .expect("p memory")
        .write_block(0, program.words());
    sys.activate_directly(PROCESSOR).expect("activate");
    let cycles = sys.run_until_halted(BUDGET).unwrap_or_else(|e| {
        panic!(
            "a live replica remained ({:?} on {}x{} at cycle {}) yet the run failed: {e}",
            trial.kill, mesh.n, mesh.n, trial.kill_cycle
        )
    });
    let member = |node: NodeId| -> Option<u16> {
        if sys.dead_nodes().contains(&node) {
            None
        } else {
            Some(sys.memory(node).expect("member").read(1))
        }
    };
    let counters = sys.retry_counters();
    let outcome = TrialOutcome {
        cycles,
        read_back: sys.memory(PROCESSOR).expect("p memory").read(0x20),
        primary_word: member(PRIMARY),
        backup_word: member(BACKUP),
        dead_nodes: format!("{:?}", sys.dead_nodes()),
        failovers: format!("{:?}", sys.failover_report()),
        replication_writes: sys.replication_writes(),
        retransmissions: counters.retransmissions,
        reroute_resets: counters.reroute_resets,
    };
    (sys.fingerprint(), outcome)
}

/// Zero-lost, zero-duplicated service results: the value written before
/// the death comes back, and the post-failover write landed on every
/// surviving member.
fn check_invariants(mesh: &Mesh, trial: &Trial, out: &TrialOutcome) {
    let ctx = format!("{:?} on {}x{}: {out:?}", trial.kill, mesh.n, mesh.n);
    assert_eq!(out.read_back, 555, "pre-death write lost ({ctx})");
    for (name, word) in [("primary", out.primary_word), ("backup", out.backup_word)] {
        if let Some(w) = word {
            // A member that survived *and* currently serves the window
            // must hold the post-failover write. The non-serving member
            // holds it too (write-through) unless the serving side
            // absorbed it after the other died.
            assert!(w == 666 || w == 0, "torn write on {name} ({ctx})");
        }
    }
    let serving_word = match trial.kill {
        Kill::PrimaryRouter | Kill::PrimaryEndpoint => out.backup_word,
        _ => out.primary_word,
    };
    assert_eq!(serving_word, Some(666), "post-failover write lost ({ctx})");
}

pub fn run(runs: &mut Runs) -> Outcome {
    let trials_per_mesh = if runs.smoke { 2 } else { 6 };
    println!("E22 — chaos harness: randomized node death under replicated memory");
    println!(
        "{} trials x {} kernels, seed {SEED:#x}",
        3 * trials_per_mesh,
        KERNELS.len()
    );
    println!(
        "{:<6} {:<28} {:>10} {:>8} {:>10} {:>6} {:>8}",
        "mesh", "kill", "at cycle", "spin", "cycles", "fail", "repl"
    );
    let mut points = Vec::new();
    for mesh in &meshes() {
        let mut rng = Xorshift64::new(SEED ^ (u64::from(mesh.n) << 32) | 1);
        for t in 0..trials_per_mesh {
            let trial = draw_trial(&mut rng, mesh);
            let point_seed = SEED ^ (u64::from(mesh.n) << 16) ^ t;
            let what = format!("{:?} on {n}x{n}", trial.kill, n = mesh.n);
            let out = runs.agree(what, &KERNELS, |kernel| {
                let (fingerprint, out) = run_trial(mesh, &trial, point_seed, kernel);
                check_invariants(mesh, &trial, &out);
                (fingerprint, out)
            });
            let failed_over = out.failovers.len() > 2;
            println!(
                "{:<6} {:<28} {:>10} {:>8} {:>10} {:>6} {:>8}",
                format!("{n}x{n}", n = mesh.n),
                trial.kill.label(),
                trial.kill_cycle,
                trial.spin,
                out.cycles,
                u8::from(failed_over),
                out.replication_writes,
            );
            points.push(obj! {
                "mesh": format!("{n}x{n}", n = mesh.n),
                "kill": trial.kill.label(),
                "kill_cycle": trial.kill_cycle,
                "spin": trial.spin,
                "cycles": out.cycles,
                "read_back": out.read_back,
                "replication_writes": out.replication_writes,
                "retransmissions": out.retransmissions,
                "reroute_resets": out.reroute_resets,
                "failed_over": failed_over,
            });
        }
    }
    println!(
        "All {} trials: pre-death writes survived, post-failover writes landed \
         exactly once, all kernels bit-identical.",
        points.len()
    );
    let json = obj! {
        "experiment": "E22 chaos harness",
        "seed": SEED,
        "kernels": KERNELS.len(),
        "points": points,
    };
    std::fs::write("BENCH_chaos.json", json.render())?;
    println!("Machine-readable summary written to BENCH_chaos.json");
    Ok(())
}
