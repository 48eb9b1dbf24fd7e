//! The determinism contract of the whole system as one table-driven
//! matrix: every workload below × observers {off, all on} × kernels
//! {Reference, Active, Parallel 1/2/8} × driving {`step`, `run`} must
//! reach the same [`System::fingerprint`] at every boundary of an
//! irregular chunk sequence and after the final `run_until_halted`. At
//! one boundary per run the system is checkpointed, restored under the
//! next kernel and resumed from there; once per row and observer
//! setting the checkpoint → restore → checkpoint round trip must also
//! be byte-stable.
//!
//! `run` fast-forwards idle gaps and lets running cores run ahead of
//! the clock while `step` advances one lockstep cycle at a time, so the
//! matrix also holds the fast-forward and the run-ahead to stepping;
//! the tests after the matrix hold error exits and auto-checkpoints
//! taken while cores are ahead, stop conditions that send, and seeded
//! random programs to lockstep stepping too. The
//! fingerprint digests the whole checkpoint payload — CPU images,
//! memories, reliability layers, serial link, counters, trace and span
//! logs and the network — so one equality replaces comparing each
//! observable or export; `restored_system_renders_identical_exports`
//! checks that the exports are indeed a function of that state.

use hermes_noc::fault::{CycleWindow, FaultPlan};
use hermes_noc::{D2dChannel, KernelMode, NocConfig, Port, RouterAddr, Routing, TelemetryConfig};
use multinoc::processor::ProcessorStatus;
use multinoc::serial::{DeviceFrame, FrameBuffer, HostCommand, SerialConfig, SYNC_BYTE};
use multinoc::{NodeId, System, SystemBuilder};
use proptest::prelude::*;
use r8::asm::assemble;

mod common;
use common::load_handshake;

const P1: NodeId = NodeId(1);
const MEM: NodeId = NodeId(3);

const KERNELS: [KernelMode; 5] = [
    KernelMode::Reference,
    KernelMode::Active,
    KernelMode::Parallel { threads: 1 },
    KernelMode::Parallel { threads: 2 },
    KernelMode::Parallel { threads: 8 },
];

/// Chunk lengths the matrix advances by, in order and then cycled: the
/// short ones land boundaries mid-burst, the long ones span idle gaps
/// the fast-forward jumps.
const CHUNKS: [u64; 10] = [1, 2, 5, 16, 61, 250, 3, 1_000, 37, 400];

/// Cycle budget of the final `run_until_halted`.
const BUDGET: u64 = 4_000_000;

/// Eight remote stores then eight remote loads against the window at
/// 0x800: every iteration is a sequenced service round trip with its
/// own causal span.
const REMOTE_WALK: &str = "LIW R2, 0x800\n\
     LIW R1, 8\n\
     XOR R0, R0, R0\n\
     wr: ST R1, R2, R0\n\
     ADDI R0, 1\n\
     SUBI R1, 1\n\
     JMPZD rd\n\
     JMPD wr\n\
     rd: LIW R1, 8\n\
     XOR R0, R0, R0\n\
     rl: LD R3, R2, R0\n\
     ADDI R0, 1\n\
     SUBI R1, 1\n\
     JMPZD done\n\
     JMPD rl\n\
     done: HALT";

/// One row of the matrix: a layout over a network, an optional fault
/// plan and the program load, driven chunk by chunk for `horizon`
/// cycles and then run to halt.
struct Row {
    config: NocConfig,
    layout: Layout,
    plan: Option<FaultPlan>,
    load: fn(&mut System),
    horizon: u64,
}

/// Where the IPs sit. Every layout has the serial IP at (0,0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// The paper's: processors at (0,1) and (1,0), memory at (1,1).
    Paper,
    /// One processor at (0,1) and a replicated memory on (1,1)/(2,2).
    Replicated,
    /// Four processors at (1,0), (2,0), (0,1), (1,1) — nodes 1 to 4 —
    /// and a memory at (2,2), node 5.
    Quad,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driving {
    /// `step` every cycle of every chunk.
    Step,
    /// `run(chunk)`, jumping timer-bound idle gaps.
    Run,
}

fn fault_tolerant(config: NocConfig) -> NocConfig {
    config.with_routing(Routing::FaultTolerantXy)
}

fn load_program(sys: &mut System, node: NodeId, source: &str) {
    let program = assemble(source).expect("program assembles");
    sys.memory_mut(node)
        .expect("processor memory")
        .write_block(0, program.words());
    sys.activate_directly(node).expect("activates");
}

/// [`load_handshake`] with the remote word pre-seeded, so P1's read cannot
/// race its retransmitted write.
fn seeded_handshake(sys: &mut System) {
    sys.memory_mut(MEM).expect("memory").write(0, 777);
    load_handshake(sys);
}

fn remote_walk(sys: &mut System) {
    load_program(sys, P1, REMOTE_WALK);
}

/// Writes the replicated window, spins past the primary's death, reads
/// the word back and writes the next one.
fn failover_spin(sys: &mut System) {
    let base = sys
        .address_map(P1)
        .expect("map")
        .window_base(NodeId(2))
        .expect("replicated window");
    load_program(
        sys,
        P1,
        &format!(
            "LIW R1, {base}\nLIW R2, 555\nXOR R0, R0, R0\nST R2, R1, R0\n\
             LIW R5, 200\nloop: SUBI R5, 1\nJMPZD go\nJMPD loop\n\
             go: LD R3, R1, R0\nLIW R4, 0x20\nST R3, R4, R0\nLIW R6, 666\n\
             ADDI R1, 1\nST R6, R1, R0\nHALT"
        ),
    );
}

/// Twelve stores through the replicated window, so spans are open
/// when the serving replica dies.
fn replicated_stores(sys: &mut System) {
    let base = sys
        .address_map(P1)
        .expect("map")
        .window_base(NodeId(2))
        .expect("replicated window");
    load_program(
        sys,
        P1,
        &format!(
            "LIW R2, {base}\nLIW R1, 12\nXOR R0, R0, R0\nwr: ST R1, R2, R0\n\
             ADDI R0, 1\nSUBI R1, 1\nJMPZD done\nJMPD wr\ndone: HALT"
        ),
    );
}

/// A builder for `layout` over `config` under `kernel`.
fn layout_builder(config: NocConfig, layout: Layout, kernel: KernelMode) -> SystemBuilder {
    let builder = System::builder()
        .noc(config)
        .kernel(kernel)
        .serial_at(RouterAddr::new(0, 0));
    match layout {
        Layout::Paper => builder
            .processor_at(RouterAddr::new(0, 1))
            .processor_at(RouterAddr::new(1, 0))
            .memory_at(RouterAddr::new(1, 1)),
        Layout::Replicated => builder
            .processor_at(RouterAddr::new(0, 1))
            .replicated_memory_at(RouterAddr::new(1, 1), RouterAddr::new(2, 2)),
        Layout::Quad => builder
            .processor_at(RouterAddr::new(1, 0))
            .processor_at(RouterAddr::new(2, 0))
            .processor_at(RouterAddr::new(0, 1))
            .processor_at(RouterAddr::new(1, 1))
            .memory_at(RouterAddr::new(2, 2)),
    }
}

/// Builds the row's system under `kernel`, with every observer on if
/// `observed`: trace log, packet tracer, service spans, interval
/// telemetry and the phase profiler.
fn build(row: &Row, kernel: KernelMode, observed: bool) -> System {
    let mut sys = layout_builder(row.config.clone(), row.layout, kernel)
        .build()
        .expect("valid layout");
    if observed {
        sys.enable_trace(256);
        sys.enable_packet_trace(128);
        sys.enable_service_spans(256);
        sys.enable_telemetry(TelemetryConfig::default());
        sys.enable_phase_profiler();
    }
    if let Some(plan) = &row.plan {
        sys.set_fault_plan(plan.clone()).expect("valid fault plan");
    }
    (row.load)(&mut sys);
    sys
}

/// Drives one run and returns `(cycle, fingerprint)` at every chunk
/// boundary and after the final `run_until_halted`; the host reads what
/// the system sent it at each boundary. With `resume_under` set, the run
/// is checkpointed at the first boundary past half the horizon and
/// continues as the restored copy under that kernel.
fn drive(
    row: &Row,
    observed: bool,
    kernel: KernelMode,
    driving: Driving,
    resume_under: Option<KernelMode>,
) -> Vec<(u64, u64)> {
    let mut sys = build(row, kernel, observed);
    let mut resume_under = resume_under;
    let mut seen = Vec::new();
    for &chunk in CHUNKS.iter().cycle() {
        let chunk = chunk.min(row.horizon - sys.cycle());
        match driving {
            Driving::Step => (0..chunk).for_each(|_| sys.step().expect("steps")),
            Driving::Run => sys.run(chunk).expect("runs"),
        }
        seen.push((sys.cycle(), sys.fingerprint()));
        drain_host(&mut sys);
        if let Some(other) = resume_under.filter(|_| 2 * sys.cycle() >= row.horizon) {
            let saved = sys.checkpoint();
            let resumed = System::restore_with_kernel(&saved, other).expect("checkpoint restores");
            // Once per row and observer setting (the round trip is the
            // costliest step): the restored copy must save the same bytes.
            if kernel == KernelMode::Reference {
                let again = System::restore_with_kernel(&resumed.checkpoint(), kernel)
                    .expect("checkpoint restores")
                    .checkpoint();
                assert!(
                    again == saved,
                    "checkpoint -> restore -> checkpoint is not byte-stable"
                );
            }
            sys = resumed;
            resume_under = None;
        }
        if sys.cycle() == row.horizon {
            break;
        }
    }
    sys.run_until_halted(BUDGET).expect("the run halts");
    seen.push((sys.cycle(), sys.fingerprint()));
    seen
}

/// Runs the full matrix over one row. The uninterrupted stepped
/// `Reference` run is the baseline; every other run resumes mid-way
/// under the next kernel of the line-up.
fn check(row: Row) {
    for observed in [false, true] {
        let baseline = drive(&row, observed, KERNELS[0], Driving::Step, None);
        for driving in [Driving::Step, Driving::Run] {
            for (i, &kernel) in KERNELS.iter().enumerate() {
                if i == 0 && driving == Driving::Step {
                    continue;
                }
                let resume = KERNELS[(i + 1) % KERNELS.len()];
                let got = drive(&row, observed, kernel, driving, Some(resume));
                let diverged = baseline.iter().zip(&got).find(|(a, b)| a != b);
                assert!(
                    diverged.is_none() && got.len() == baseline.len(),
                    "{} observers={observed}: {kernel:?} driven by {driving:?} (resumed under \
                     {resume:?}) diverged from the stepped reference run at cycle {:?}",
                    row.config.topology,
                    diverged.map(|(a, _)| a.0),
                );
            }
        }
    }
}

/// A row on the paper layout: serial, two processors and a memory.
fn paper(config: NocConfig, plan: Option<FaultPlan>, load: fn(&mut System), horizon: u64) -> Row {
    Row {
        config,
        layout: Layout::Paper,
        plan,
        load,
        horizon,
    }
}

/// A row on a fault-tolerant 3×3 mesh with a replicated memory.
fn replicated(plan: FaultPlan, load: fn(&mut System), horizon: u64) -> Row {
    Row {
        config: fault_tolerant(NocConfig::mesh(3, 3)),
        layout: Layout::Replicated,
        plan: Some(plan),
        load,
        horizon,
    }
}

/// The processors of [`Layout::Quad`], in node order.
const QUAD_CORES: [NodeId; 4] = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
/// The memory of [`Layout::Quad`].
const QUAD_MEM: NodeId = NodeId(5);

/// A local loop labelled `label` that adds its down-counter R1 into the
/// word at R4 until R1 reaches zero, then jumps to `exit`.
fn local_loop(label: &str, exit: &str) -> String {
    format!(
        "{label}: LD R2, R4, R0\nADD R2, R2, R1\nST R2, R4, R0\nSUBI R1, 1\n\
         JMPZD {exit}\nJMPD {label}\n"
    )
}

/// One long local loop accumulating into the word at 0x200, then HALT.
fn long_loop(iterations: usize) -> String {
    format!(
        "LIW R1, {iterations}\nXOR R0, R0, R0\nLIW R4, 0x200\n{}done: HALT",
        local_loop("one", "done")
    )
}

/// A long local loop accumulating into the word at 0x200; in the middle
/// a remote round trip (a read of `word`) and a notify to `next`; then
/// `rounds` more local loops. After each loop the core stores its sum
/// into `peer`, the next core's accumulator. Run-ahead windows open on
/// the local stretches and must close before each delivery: a peer
/// store often leaves a silent network and lands while its target is
/// mid-loop, so the cycle it lands at decides that core's sums.
fn compute_program(first: usize, word: u16, peer: u16, next: NodeId, rounds: usize) -> String {
    format!(
        "LIW R1, {first}\nXOR R0, R0, R0\nLIW R4, 0x200\nLIW R8, {peer}\n{}\
         mid: ST R2, R8, R0\nLIW R5, {word}\nLD R3, R5, R0\n\
         LIW R6, 0xFFFD\nLIW R7, {}\nST R7, R0, R6\nLIW R9, {rounds}\n\
         round: LIW R1, {}\n{}\
         sent: ST R2, R8, R0\nSUBI R9, 1\nJMPZD done\nJMPD round\ndone: HALT",
        local_loop("one", "mid"),
        next.as_u16(),
        first / 2,
        local_loop("two", "sent"),
    )
}

/// Loads every core of [`Layout::Quad`] with [`compute_program`] —
/// loops of different lengths, each core touching its own word of the
/// memory and storing into and notifying the next core — and activates
/// them.
fn quad_compute(sys: &mut System) {
    for (k, &core) in QUAD_CORES.iter().enumerate() {
        let map = sys.address_map(core).expect("map");
        let next = QUAD_CORES[(k + 1) % QUAD_CORES.len()];
        let word = map.window_base(QUAD_MEM).expect("memory window") + k as u16;
        let peer = map.window_base(next).expect("peer window") + 0x200;
        let source = compute_program(30 + 12 * k, word, peer, next, 3);
        load_program(sys, core, &source);
    }
}

fn span_walk_row() -> Row {
    paper(NocConfig::multinoc(), None, remote_walk, 1_100)
}

#[test]
fn healthy_handshake() {
    check(paper(
        fault_tolerant(NocConfig::multinoc()),
        None,
        load_handshake,
        450,
    ));
}

#[test]
fn retransmission() {
    // Lossy delivery keeps the retransmission timers busy: exactly the
    // gaps `run` jumps.
    let plan = FaultPlan::new(0xFA57).with_drop_rate(0.15);
    check(paper(
        fault_tolerant(NocConfig::multinoc()),
        Some(plan),
        load_handshake,
        1_400,
    ));
}

#[test]
fn degraded_link() {
    // A permanent dead link: diagnosis, epoch wavefront, reroute and the
    // reliability layer's reroute resets.
    let plan = FaultPlan::new(11).with_link_down(
        RouterAddr::new(0, 1),
        Port::East,
        CycleWindow::open_ended(0),
    );
    check(paper(
        fault_tolerant(NocConfig::multinoc()),
        Some(plan),
        seeded_handshake,
        700,
    ));
}

#[test]
fn failover() {
    // The serving primary's router dies mid-run: death diagnosis,
    // failover cycle and the survivor's contents.
    let plan = FaultPlan::new(0xDEAD).with_router_down(RouterAddr::new(1, 1), 600);
    check(replicated(plan, failover_spin, 1_500));
}

#[test]
fn torus_3x3() {
    let plan = FaultPlan::new(0xFA57).with_drop_rate(0.1);
    check(paper(
        fault_tolerant(NocConfig::torus(3, 3)),
        Some(plan),
        load_handshake,
        1_400,
    ));
}

#[test]
fn chiplet_off_chip_serial() {
    let config = fault_tolerant(NocConfig::chiplet(2, 2, D2dChannel::OffChipSerial));
    let plan = FaultPlan::new(0xFA57).with_drop_rate(0.1);
    check(paper(config, Some(plan), load_handshake, 1_400));
}

#[test]
fn span_walk() {
    check(span_walk_row());
}

#[test]
fn span_walk_lossy() {
    // The drop window opens after the activation so the walk starts.
    let plan = FaultPlan::new(0x0B5_FA17)
        .with_drop_rate(0.2)
        .with_drop_window(CycleWindow::new(50, 2_000));
    check(paper(NocConfig::multinoc(), Some(plan), remote_walk, 1_400));
}

#[test]
fn span_redirect() {
    // Open spans follow their traffic to the survivor of a failover.
    let plan = FaultPlan::new(0x0B5_D1E).with_router_down(RouterAddr::new(1, 1), 500);
    check(replicated(plan, replicated_stores, 1_000));
}

#[test]
fn compute_bound_quad() {
    // Four cores on a healthy mesh spend most cycles in local loops, so
    // `run` lets them run ahead of the clock; the peer stores, remote
    // reads and notifies close those windows around real traffic.
    check(Row {
        config: NocConfig::mesh(3, 3),
        layout: Layout::Quad,
        plan: None,
        load: quad_compute,
        horizon: 1_500,
    });
}

/// Loads `source` into P2 of the paper layout, with `{mem}` and `{p1}`
/// standing for the bases of P2's windows onto the memory IP and P1.
fn load_p2(sys: &mut System, source: &str) {
    let map = sys.address_map(P2).expect("map");
    let mem = map.window_base(MEM).expect("memory window");
    let p1 = map.window_base(P1).expect("P1 window");
    let source = source
        .replace("{mem}", &mem.to_string())
        .replace("{p1}", &p1.to_string());
    load_program(sys, P2, &source);
}

/// P2 posts 24 stores to the memory IP back to back: a stream of
/// packets crossing the network to another IP.
const STORE_STREAM: &str = "LIW R5, {mem}\nLIW R1, 24\nXOR R0, R0, R0\n\
     st: ST R1, R5, R0\nADDI R0, 1\nSUBI R1, 1\nJMPZD done\nJMPD st\ndone: HALT";

/// P1 computes in a long local loop while P2 streams stores to the
/// memory IP: the cores run ahead and the network is stepped alone while
/// packets cross it elsewhere.
fn loop_beside_a_store_stream(sys: &mut System) {
    load_program(sys, P1, &long_loop(100));
    load_p2(sys, STORE_STREAM);
}

/// P1 computes in a long local loop while the host writes a 48-word
/// block into the memory IP: one long packet, which streams through the
/// memory's router and lands exactly at its delivery bound.
fn loop_beside_a_host_block(sys: &mut System) {
    load_program(sys, P1, &long_loop(100));
    loop_beside_a_host_block_bytes(sys);
}

/// P1 sums the word at 0x280 of its local memory 120 times while P2
/// stores a countdown into that word, one store every few dozen cycles:
/// packets to a core running ahead, whose sum depends on the exact cycle
/// each store lands.
fn stores_into_a_loop(sys: &mut System) {
    load_program(
        sys,
        P1,
        "LIW R1, 120\nXOR R0, R0, R0\nXOR R3, R3, R3\nLIW R4, 0x280\n\
         acc: LD R2, R4, R0\nADD R3, R3, R2\nSUBI R1, 1\nJMPZD done\nJMPD acc\n\
         done: ST R3, R4, R0\nHALT",
    );
    load_p2(
        sys,
        "LIW R5, {p1}\nLIW R6, 0x280\nADD R5, R5, R6\nLIW R1, 16\nXOR R0, R0, R0\n\
         st: ST R1, R5, R0\nLIW R6, 9\nspin: SUBI R6, 1\nJMPZD next\nJMPD spin\n\
         next: SUBI R1, 1\nJMPZD done\nJMPD st\ndone: HALT",
    );
}

/// Steps the row's system through its horizon, holding every packet
/// completion to the delivery bounds the network reported in earlier
/// cycles (per router, the highest so far), and returns how many packets
/// landed exactly at that bound.
fn landings_at_the_bound(row: &Row) -> usize {
    let mut sys = build(row, KernelMode::Active, false);
    let (w, h) = (row.config.width(), row.config.height());
    let routers: Vec<RouterAddr> = (0..h)
        .flat_map(|y| (0..w).map(move |x| RouterAddr::new(x, y)))
        .collect();
    let mut floor = vec![0; routers.len()];
    let mut exact = 0;
    while sys.cycle() < row.horizon {
        for (i, &at) in routers.iter().enumerate() {
            if let Some(bound) = sys.noc().delivery_bound(at) {
                floor[i] = floor[i].max(bound);
            }
        }
        sys.step().expect("steps");
        let now = sys.cycle();
        for record in sys.noc().stats().records() {
            if record.delivered == Some(now) {
                let i = (routers.iter().position(|&r| r == record.dest)).expect("on the grid");
                assert!(
                    now >= floor[i],
                    "landed at {now}, before the bound {}",
                    floor[i]
                );
                exact += usize::from(now == floor[i]);
            }
        }
    }
    exact
}

#[test]
fn core_computes_beside_a_stream_of_packets() {
    check(paper(
        NocConfig::multinoc(),
        None,
        loop_beside_a_store_stream,
        2_000,
    ));
}

#[test]
fn delivery_lands_exactly_at_the_bound() {
    let row = paper(NocConfig::multinoc(), None, loop_beside_a_host_block, 1_500);
    assert!(
        landings_at_the_bound(&row) > 0,
        "no packet landed exactly at its bound"
    );
    check(row);
}

#[test]
fn packets_to_a_core_running_ahead() {
    let row = paper(NocConfig::multinoc(), None, stores_into_a_loop, 1_800);
    landings_at_the_bound(&row);
    check(row);
}

/// The host commands of [`loop_beside_a_host_session`], sync byte first:
/// two 48-word writes into the memory IP, an activate of P2 and a
/// 16-word read back.
fn host_session() -> Vec<u8> {
    let write = |addr: u16| HostCommand::WriteMemory {
        node: MEM.0,
        addr,
        data: (0..48).map(|i| addr + 3 * i).collect(),
    };
    let commands = [
        write(0x40),
        write(0x80),
        HostCommand::Activate { node: P2.0 },
        HostCommand::ReadMemory {
            node: MEM.0,
            count: 16,
            addr: 0x40,
        },
    ];
    let mut bytes = vec![SYNC_BYTE];
    commands.iter().for_each(|c| bytes.extend(c.to_bytes()));
    bytes
}

/// P1 computes in a long local loop while the host queues a whole
/// session at once; P2 holds a short loop until the host activates it.
/// The run loop crosses the bytes of each command up to the one that
/// completes it, so the matrix's short chunks and its checkpoint land
/// inside commands.
fn loop_beside_a_host_session(sys: &mut System) {
    load_program(sys, P1, &long_loop(100));
    let p2 = assemble(&long_loop(20)).expect("program assembles");
    sys.memory_mut(P2)
        .expect("P2 memory")
        .write_block(0, p2.words());
    sys.link_mut().host_send(&host_session());
}

#[test]
fn host_session_beside_a_loop() {
    check(paper(
        NocConfig::multinoc(),
        None,
        loop_beside_a_host_session,
        1_500,
    ));
}

/// The paper layout under `kernel` with P1 in a long local loop.
fn paper_loop(kernel: KernelMode) -> System {
    let mut sys = layout_builder(NocConfig::multinoc(), Layout::Paper, kernel)
        .build()
        .expect("valid layout");
    load_program(&mut sys, P1, &long_loop(100));
    sys
}

#[test]
fn run_until_the_link_is_idle_stops_where_stepping_does() {
    // The last byte in flight is a stop of its own: whether it completes
    // a command or leaves a truncated one in the serial IP's buffer, a
    // `done` on the link's idleness sees it go idle at lockstep's cycle.
    // The bytes go out once P1 runs, so the run loop jumps beside it.
    let write = HostCommand::WriteMemory {
        node: MEM.0,
        addr: 0x40,
        data: (0..8).collect(),
    }
    .to_bytes();
    for bytes in [&write[..], &write[..3]] {
        let queue = |sys: &mut System| {
            assert_eq!(sys.processor_status(P1), Ok(ProcessorStatus::Running));
            sys.link_mut().host_send(&[SYNC_BYTE]);
            sys.link_mut().host_send(bytes);
        };
        for kernel in KERNELS {
            let mut stepped = paper_loop(kernel);
            (0..40).for_each(|_| stepped.step().expect("steps"));
            queue(&mut stepped);
            while !stepped.link().is_idle() {
                stepped.step().expect("steps");
            }
            let mut run = paper_loop(kernel);
            run.run(40).expect("runs");
            queue(&mut run);
            run.run_until(BUDGET, "the link to go idle", |s| Ok(s.link().is_idle()))
                .expect("the link goes idle");
            assert_eq!(
                (run.cycle(), run.fingerprint()),
                (stepped.cycle(), stepped.fingerprint()),
                "{kernel:?}, {} bytes",
                bytes.len()
            );
        }
    }
}

#[test]
fn checkpoint_right_after_a_host_send_resumes_as_lockstep() {
    // The sync byte goes out at cycle 0 and the session's commands at
    // `at`, to an IP that is synced from cycle 1 on. A restored system
    // has seen no send yet, so a burst queued before the checkpoint is
    // still clocked by the visit that follows it, not by the link's
    // last tick: the restored copy, driven over the chunks or by one
    // long run, stays on the stepped system's cycles.
    let horizon = 2_000;
    for at in [0, 7, 300] {
        let queued = || {
            let mut sys = paper_loop(KernelMode::Active);
            let session = host_session();
            sys.link_mut().host_send(&session[..1]);
            (0..at).for_each(|_| sys.step().expect("steps"));
            sys.link_mut().host_send(&session[1..]);
            sys
        };
        let restored = || System::restore(&queued().checkpoint()).expect("checkpoint restores");
        let mut stepped = queued();
        let mut boundaries = Vec::new();
        let mut chunked = restored();
        for &chunk in CHUNKS.iter().cycle() {
            let chunk = chunk.min(at + horizon - chunked.cycle());
            (0..chunk).for_each(|_| stepped.step().expect("steps"));
            chunked.run(chunk).expect("runs");
            boundaries.push((stepped.cycle(), stepped.fingerprint()));
            assert_eq!(
                (chunked.cycle(), chunked.fingerprint()),
                *boundaries.last().expect("a boundary"),
                "queued at {at}: the restored run over chunks differs from lockstep"
            );
            if stepped.cycle() == at + horizon {
                break;
            }
        }
        let mut long = restored();
        long.run(horizon).expect("runs");
        assert_eq!(
            (long.cycle(), long.fingerprint()),
            *boundaries.last().expect("a boundary"),
            "queued at {at}: the restored run({horizon}) differs from lockstep"
        );
    }
}

/// `n` printf words from a core, back to back, then on at label `pd`.
fn print_burst(n: u16) -> String {
    format!(
        "LIW R10, 0xFFFF\nXOR R0, R0, R0\nLIW R1, {n}\n\
         pb: ST R1, R0, R10\nSUBI R1, 1\nJMPZD pd\nJMPD pb\npd: "
    )
}

/// Both cores print back-to-back words — P1 then computes in a long
/// local loop, P2 halts — while the host reads a 64-word block back from
/// the memory IP: several printf frames and a 133-byte read return queue
/// up towards the host in one burst, which the run loop crosses to each
/// frame's last byte. The block's bytes are device opcodes, so a frame
/// parse that starts inside the read return finds frames of every kind
/// that end elsewhere.
fn printf_bursts_beside_a_host_read(sys: &mut System) {
    let block: Vec<u16> = (0..64).map(|i| [0x0505, 0x0607, 0x0706][i % 3]).collect();
    sys.memory_mut(MEM)
        .expect("memory")
        .write_block(0x40, &block);
    load_program(sys, P1, &format!("{}{}", print_burst(6), long_loop(100)));
    load_program(sys, P2, &format!("{}HALT", print_burst(10)));
    let read = HostCommand::ReadMemory {
        node: MEM.0,
        count: 64,
        addr: 0x40,
    };
    sys.link_mut().host_send(&[SYNC_BYTE]);
    sys.link_mut().host_send(&read.to_bytes());
}

#[test]
fn printf_bursts_beside_a_host_read_back() {
    check(paper(
        NocConfig::multinoc(),
        None,
        printf_bursts_beside_a_host_read,
        2_500,
    ));
}

/// The paper layout under `kernel` loaded with
/// [`printf_bursts_beside_a_host_read`].
fn printf_bursts(kernel: KernelMode) -> System {
    let mut sys = layout_builder(NocConfig::multinoc(), Layout::Paper, kernel)
        .build()
        .expect("valid layout");
    printf_bursts_beside_a_host_read(&mut sys);
    sys
}

/// A stop condition on the device frames the host has parsed.
type Enough<'a> = &'a dyn Fn(&[DeviceFrame]) -> bool;

/// Runs `sys`, whose host has already read the bytes `read`, until
/// `enough` holds of the device frames the host has parsed since, the
/// host reading its bytes at every question — by `run_until`, or before
/// each lockstep `step` — and returns `(cycle, fingerprint)`.
fn until_frames(mut sys: System, read: &[u8], lockstep: bool, enough: Enough) -> (u64, u64) {
    let mut rx = FrameBuffer::new();
    read.iter().for_each(|&byte| rx.push(byte));
    let mut frames = Vec::new();
    let mut done = |sys: &mut System| {
        while let Some(byte) = sys.link_mut().host_recv() {
            rx.push(byte);
        }
        while let Some(frame) = rx.parse_device_frame().expect("device frames") {
            frames.push(frame);
        }
        Ok(enough(&frames))
    };
    if lockstep {
        while !done(&mut sys).expect("reads frames") {
            sys.step().expect("steps");
        }
    } else {
        sys.run_until(BUDGET, "the frames", done)
            .expect("the frames arrive");
    }
    (sys.cycle(), sys.fingerprint())
}

#[test]
fn done_that_waits_for_device_frames_stops_where_stepping_does() {
    // The run loop stops at the byte that ends each device frame, not at
    // every byte towards the host: a `done` that parses frames sees the
    // n-th printf, and the read return, at lockstep's cycle.
    let printfs = |n: usize| {
        move |frames: &[DeviceFrame]| {
            let printed = frames
                .iter()
                .filter(|f| matches!(f, DeviceFrame::Printf { .. }));
            printed.count() >= n
        }
    };
    let read_back = |frames: &[DeviceFrame]| {
        (frames.iter())
            .any(|f| matches!(f, DeviceFrame::ReadReturn { data, .. } if data.len() == 64))
    };
    for kernel in KERNELS {
        let waits: [(&str, Enough); 4] = [
            ("1 printf", &printfs(1)),
            ("5 printfs", &printfs(5)),
            ("16 printfs", &printfs(16)),
            ("the read return", &read_back),
        ];
        for (what, enough) in waits {
            let stepped = until_frames(printf_bursts(kernel), &[], true, enough);
            let run = until_frames(printf_bursts(kernel), &[], false, enough);
            assert_eq!(run, stepped, "{kernel:?}, waiting for {what}");
        }
    }
}

#[test]
fn checkpoint_with_bytes_in_flight_to_the_host_resumes_as_lockstep() {
    // A restored link does not know where the frames of the bytes in
    // flight towards the host end, so the run loop stops at each of them
    // until they have all arrived, then follows the frames again: the
    // restored copy, driven over the chunks or by one long run, stays on
    // the stepped system's cycles.
    let horizon = 2_000;
    for received in [1, 40, 120] {
        // The system at the checkpoint and the bytes its host has read.
        let saved = || {
            let mut sys = printf_bursts(KernelMode::Active);
            let mut read = Vec::new();
            while read.len() < received {
                sys.step().expect("steps");
                read.extend(std::iter::from_fn(|| sys.link_mut().host_recv()));
            }
            // The host's commands arrived long ago: what keeps the link
            // busy is bytes in flight towards the host.
            assert!(!sys.link().is_idle(), "{received}: nothing in flight");
            (sys, read)
        };
        let restored = || System::restore(&saved().0.checkpoint()).expect("checkpoint restores");
        let (mut stepped, read) = saved();
        let start = stepped.cycle();
        let mut boundaries = Vec::new();
        let mut chunked = restored();
        for &chunk in CHUNKS.iter().cycle() {
            let chunk = chunk.min(start + horizon - chunked.cycle());
            (0..chunk).for_each(|_| stepped.step().expect("steps"));
            chunked.run(chunk).expect("runs");
            boundaries.push((stepped.cycle(), stepped.fingerprint()));
            assert_eq!(
                (chunked.cycle(), chunked.fingerprint()),
                *boundaries.last().expect("a boundary"),
                "{received} bytes received: the restored run over chunks differs from lockstep"
            );
            drain_host(&mut stepped);
            drain_host(&mut chunked);
            if stepped.cycle() == start + horizon {
                break;
            }
        }
        let mut long = restored();
        long.run(horizon).expect("runs");
        drain_host(&mut long);
        let mut all_at_once = saved().0;
        (0..horizon).for_each(|_| all_at_once.step().expect("steps"));
        drain_host(&mut all_at_once);
        assert_eq!(
            (long.cycle(), long.fingerprint()),
            (all_at_once.cycle(), all_at_once.fingerprint()),
            "{received} bytes received: the restored run({horizon}) differs from lockstep"
        );
        let read_back = |frames: &[DeviceFrame]| {
            (frames.iter()).any(|f| matches!(f, DeviceFrame::ReadReturn { .. }))
        };
        // A `done` asked at every stop of the restored link, each frame
        // end included, sees what it sees in lockstep.
        let stepped = until_frames(saved().0, &read, true, &read_back);
        let run = until_frames(restored(), &read, false, &read_back);
        assert_eq!(run, stepped, "{received} bytes received");
    }
}

#[test]
fn run_until_right_after_activation_stops_where_stepping_does() {
    // Right after `activate_directly` no IP has a wake: only the
    // self-addressed activation packets cross the network. The run loop
    // steps it alone to their landing instead of visiting every cycle,
    // and a `done` on the second core's status stops at stepping's cycle.
    for kernel in KERNELS {
        let build = || {
            let mut sys = layout_builder(NocConfig::multinoc(), Layout::Paper, kernel)
                .build()
                .expect("valid layout");
            load_program(&mut sys, P1, &long_loop(100));
            load_program(&mut sys, P2, &long_loop(20));
            sys
        };
        let running = |sys: &System| sys.processor_status(P2) == Ok(ProcessorStatus::Running);
        let mut stepped = build();
        while !running(&stepped) {
            stepped.step().expect("steps");
        }
        let mut run = build();
        run.run_until(BUDGET, "P2 to run", |sys| Ok(running(sys)))
            .expect("P2 runs");
        assert_eq!(
            (run.cycle(), run.fingerprint()),
            (stepped.cycle(), stepped.fingerprint()),
            "{kernel:?}"
        );
        assert!(run.cycle() > 1, "{kernel:?}: landed at {}", run.cycle());
    }
}

/// P2 prints a countdown to the host every few dozen cycles, 40 times.
const PRINT_COUNTDOWN: &str = "LIW R10, 0xFFFF\nXOR R0, R0, R0\nLIW R1, 40\n\
     pr: ST R1, R0, R10\nLIW R6, 9\nspin: SUBI R6, 1\nJMPZD next\nJMPD spin\n\
     next: SUBI R1, 1\nJMPZD done\nJMPD pr\ndone: HALT";

/// The serial IP's router goes down at cycle 40 with a 48-word host
/// write still in flight, while P1 computes and P2's printfs towards it
/// let the diagnosis declare node 0 dead.
fn dead_serial_node(kernel: KernelMode) -> System {
    let config = fault_tolerant(NocConfig::multinoc());
    let mut sys = layout_builder(config, Layout::Paper, kernel)
        .build()
        .expect("valid layout");
    let plan = FaultPlan::new(0x5E41).with_router_down(RouterAddr::new(0, 0), 40);
    sys.set_fault_plan(plan).expect("valid fault plan");
    load_program(&mut sys, P1, &long_loop(100));
    load_program(&mut sys, P2, PRINT_COUNTDOWN);
    loop_beside_a_host_block_bytes(&mut sys);
    sys
}

/// Queues the sync byte and [`loop_beside_a_host_block`]'s 48-word write.
fn loop_beside_a_host_block_bytes(sys: &mut System) {
    let data = (0..48).map(|i| 1000 + i).collect();
    let write = HostCommand::WriteMemory {
        node: MEM.0,
        addr: 0x40,
        data,
    };
    sys.link_mut().host_send(&[SYNC_BYTE]);
    sys.link_mut().host_send(&write.to_bytes());
}

#[test]
fn bytes_towards_a_dead_serial_node_stay_in_the_link() {
    // Once node 0 is dead its IP reads nothing: the host bytes still
    // arriving stay unread in the link, where stepping leaves them, and
    // a jump that crosses them must not hand them to the dead IP. Both
    // drivings see the same boundaries up to the partition error.
    let boundaries = |kernel: KernelMode, driving: Driving| {
        let mut sys = dead_serial_node(kernel);
        let mut seen = Vec::new();
        for &chunk in CHUNKS.iter().cycle() {
            let outcome = match driving {
                Driving::Step => (0..chunk).try_for_each(|_| sys.step()),
                Driving::Run => sys.run(chunk),
            };
            let error = outcome.err().map(|e| e.to_string());
            seen.push((sys.cycle(), sys.fingerprint(), error.clone()));
            if error.is_some() || sys.cycle() >= 3_000 {
                return (sys.dead_nodes().to_vec(), seen);
            }
        }
        unreachable!("the chunks cycle forever")
    };
    for kernel in KERNELS {
        let (dead, stepped) = boundaries(kernel, Driving::Step);
        assert!(dead.contains(&NodeId(0)), "{kernel:?}: node 0 never died");
        let (_, run) = boundaries(kernel, Driving::Run);
        assert_eq!(run, stepped, "{kernel:?}");
    }
}

/// The quad layout under `kernel` with a serial link of `cycles_per_byte`,
/// loaded by `load`.
fn quad(kernel: KernelMode, cycles_per_byte: u64, load: fn(&mut System)) -> System {
    let mut sys = layout_builder(NocConfig::mesh(3, 3), Layout::Quad, kernel)
        .serial(SerialConfig { cycles_per_byte })
        .build()
        .expect("valid layout");
    load(&mut sys);
    sys
}

/// Node 1 runs a long local loop; node 2 spins briefly and then fetches
/// an illegal word, faulting while node 1 is ahead of the clock.
fn fault_beside_a_loop(sys: &mut System) {
    load_program(sys, QUAD_CORES[0], &long_loop(400));
    let mut spin = assemble("LIW R1, 90\nspin: SUBI R1, 1\nJMPZD bad\nJMPD spin\nbad: HALT")
        .expect("assembles")
        .words()
        .to_vec();
    *spin.last_mut().expect("a HALT to replace") = 0x00B0; // not an instruction
    let p2 = QUAD_CORES[1];
    sys.memory_mut(p2).expect("memory").write_block(0, &spin);
    sys.activate_directly(p2).expect("activates");
}

/// Node 1 runs a long local loop while the host's second byte, an
/// unknown opcode, reaches the serial IP.
fn bad_opcode_beside_a_loop(sys: &mut System) {
    load_program(sys, QUAD_CORES[0], &long_loop(400));
    sys.link_mut().host_send(&[SYNC_BYTE, 0x99]);
}

/// Like [`bad_opcode_beside_a_loop`], but the unknown opcode follows a
/// complete activate of node 1, so it breaks the frame right after a
/// command completed.
fn bad_opcode_after_an_activate(sys: &mut System) {
    load_program(sys, QUAD_CORES[0], &long_loop(400));
    sys.link_mut().host_send(&[SYNC_BYTE, 0x02, 1, 0x99]);
}

/// Steps `sys` one cycle at a time until a step fails or a processor
/// faults — the two ways `run_until_halted` stops early — and returns
/// the cycle and fingerprint there.
fn lockstep_exit(mut sys: System) -> (u64, u64) {
    for _ in 0..BUDGET {
        let failed = sys.step().is_err();
        let faulted = QUAD_CORES
            .iter()
            .any(|&p| sys.processor_status(p).expect("processor") == ProcessorStatus::Faulted);
        if failed || faulted {
            return (sys.cycle(), sys.fingerprint());
        }
    }
    panic!("the run never stopped");
}

/// `run_until_halted` after a prefix of `prefix` cycles driven by
/// `driving`: the error text, cycle and fingerprint it stops at.
fn run_exit(mut sys: System, driving: Driving, prefix: u64) -> (String, u64, u64) {
    match driving {
        Driving::Step => (0..prefix).for_each(|_| sys.step().expect("steps")),
        Driving::Run => {
            for &chunk in CHUNKS.iter().cycle() {
                let chunk = chunk.min(prefix - sys.cycle());
                sys.run(chunk).expect("runs");
                if sys.cycle() == prefix {
                    break;
                }
            }
        }
    }
    let error = sys.run_until_halted(BUDGET).expect_err("the run fails");
    (error.to_string(), sys.cycle(), sys.fingerprint())
}

/// Every core that ran ahead of the clock must be wound back to where
/// lockstep stepping stops: each exit surfaces the same error at the
/// same cycle with the same fingerprint as the lockstep run, whether
/// `run_until_halted` starts fresh or after a prefix driven by `step`
/// or by `run` chunks.
fn check_exit(cycles_per_byte: u64, load: fn(&mut System), want: &str) {
    for kernel in KERNELS {
        let (cycle, fingerprint) = lockstep_exit(quad(kernel, cycles_per_byte, load));
        for (driving, prefix) in [(Driving::Run, 0), (Driving::Step, 200), (Driving::Run, 200)] {
            let (error, at, got) = run_exit(quad(kernel, cycles_per_byte, load), driving, prefix);
            assert!(error.contains(want), "{kernel:?}: unexpected error {error}");
            assert_eq!(
                (at, got),
                (cycle, fingerprint),
                "{kernel:?} after {prefix} cycles by {driving:?}: the exit differs from lockstep \
                 stepping"
            );
        }
    }
}

#[test]
fn cpu_fault_exit_rewinds_cores_ahead_of_the_clock() {
    check_exit(4, fault_beside_a_loop, "illegal instruction");
}

#[test]
fn protocol_error_exit_rewinds_cores_ahead_of_the_clock() {
    // The serial IP is visited first, so the error stops its cycle
    // before any core was: lockstep leaves every core one cycle short,
    // an instruction starting in the error cycle included. Four baud
    // rates move the error cycle across the core's instruction starts.
    let inputs: [fn(&mut System); 2] = [bad_opcode_beside_a_loop, bad_opcode_after_an_activate];
    for load in inputs {
        for cycles_per_byte in 700..704 {
            check_exit(cycles_per_byte, load, "unknown frame opcode");
        }
    }
}

#[test]
fn auto_checkpoint_mid_run_ahead_holds_the_lockstep_bytes() {
    // The cores are deep in their loops at cycle 500, where `run(700)`
    // writes an auto-checkpoint: its bytes must be the stepped run's.
    let dir = std::env::temp_dir().join(format!("multinoc-ahead-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let written = |driving: Driving| {
        let mut sys = quad(KernelMode::Active, 4, quad_compute);
        let path = dir.join(format!("{driving:?}.ckpt"));
        sys.enable_auto_checkpoint(&path, 500);
        match driving {
            Driving::Step => (0..700).for_each(|_| sys.step().expect("steps")),
            Driving::Run => sys.run(700).expect("runs"),
        }
        assert_eq!(sys.auto_checkpoints_written(), 1);
        std::fs::read(&path).expect("checkpoint written")
    };
    let stepped = written(Driving::Step);
    assert!(
        written(Driving::Run) == stepped,
        "the run-ahead checkpoint differs from the stepped one"
    );
    let mut lockstep = quad(KernelMode::Active, 4, quad_compute);
    (0..500).for_each(|_| lockstep.step().expect("steps"));
    assert!(lockstep.checkpoint() == stepped, "not the cycle-500 state");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restored_system_renders_identical_exports() {
    // Every export is rendered from checkpointed state only, so equal
    // fingerprints imply equal metrics, Perfetto and telemetry bytes.
    let mut sys = build(&span_walk_row(), KernelMode::Active, true);
    sys.run(700).expect("runs");
    let exports = |sys: &System| {
        let metrics = sys.metrics_snapshot();
        [
            metrics.to_json(),
            metrics.to_prometheus(),
            sys.perfetto_json(),
            sys.telemetry_json().expect("telemetry on"),
            sys.telemetry_prometheus().expect("telemetry on"),
        ]
    };
    let restored = System::restore_with_kernel(&sys.checkpoint(), KernelMode::Reference)
        .expect("checkpoint restores");
    assert_eq!(restored.fingerprint(), sys.fingerprint());
    assert_eq!(exports(&restored), exports(&sys));
}

#[test]
fn traced_checkpoints_restore_at_every_fifth_cycle() {
    // Most checkpoints of this traced walk failed to restore while the
    // newest packet trace held more span events than the old 14-byte
    // per-event floor allowed for (an event is 13 bytes).
    let mut sys = build(&span_walk_row(), KernelMode::Active, false);
    sys.enable_packet_trace(256);
    for _ in 0..40 {
        sys.run(5).expect("runs");
        let restored = System::restore(&sys.checkpoint())
            .unwrap_or_else(|e| panic!("checkpoint at cycle {} failed: {e}", sys.cycle()));
        assert_eq!(restored.fingerprint(), sys.fingerprint());
    }
}

const P2: NodeId = NodeId(2);

/// P1 adds 1 to its local word 0x300 2,000 times and halts.
const INCREMENTS: &str = "LIW R1, 2000\nXOR R0, R0, R0\nLIW R4, 0x300\n\
     inc: LD R2, R4, R0\nADDI R2, 1\nST R2, R4, R0\nSUBI R1, 1\nJMPZD done\nJMPD inc\n\
     done: HALT";

/// The paper layout with P1 running [`INCREMENTS`] and P2 counting `n`
/// down, then storing into the memory IP if `store`, then halting.
fn increments_beside_a_countdown(n: u16, store: bool) -> System {
    let mut sys = layout_builder(NocConfig::multinoc(), Layout::Paper, KernelMode::Active)
        .build()
        .expect("valid layout");
    let mem = sys
        .address_map(P2)
        .expect("map")
        .window_base(MEM)
        .expect("window");
    let store = if store {
        format!("LIW R5, {mem}\nST R1, R5, R0\n")
    } else {
        String::new()
    };
    load_program(&mut sys, P1, INCREMENTS);
    let countdown = format!(
        "XOR R0, R0, R0\nLIW R1, {n}\nspin: SUBI R1, 1\nJMPZD out\nJMPD spin\nout: {store}HALT"
    );
    load_program(&mut sys, P2, &countdown);
    sys
}

/// Runs `sys` until every core halts and the system drains, with a
/// `done` that calls `react` the first time it sees P2 halted — once by
/// `run_until`, once asking the same condition before each lockstep
/// `step` — and returns both `(cycle, fingerprint, P1's word 0x300)`.
fn react_to_p2_halting(build: impl Fn() -> System, react: fn(&mut System)) -> [(u64, u64, u16); 2] {
    let finish = |lockstep: bool| {
        let mut sys = build();
        let mut reacted = false;
        let mut done = |sys: &mut System| {
            if !reacted && sys.processor_status(P2)? == ProcessorStatus::Halted {
                react(sys);
                reacted = true;
            }
            Ok(reacted && sys.halted_and_drained())
        };
        if lockstep {
            while !done(&mut sys).expect("condition holds") {
                sys.step().expect("steps");
            }
        } else {
            sys.run_until(BUDGET, "the reaction to drain", done)
                .expect("drains");
        }
        let word = sys.memory(P1).expect("memory").read(0x300);
        (sys.cycle(), sys.fingerprint(), word)
    };
    [finish(true), finish(false)]
}

#[test]
fn done_that_activates_a_core_matches_lockstep() {
    // `done` may drive the system: its packet goes out at the clock, so
    // the loop must pull P1, which ran far ahead through its increments,
    // back within reach before the activation lands mid-loop.
    for n in [50, 300, 1000] {
        let [stepped, run] = react_to_p2_halting(
            || increments_beside_a_countdown(n, false),
            |sys| sys.activate_directly(P1).expect("activates"),
        );
        assert_eq!(
            run, stepped,
            "n = {n}: the run differs from lockstep stepping"
        );
        assert!((2001..4000).contains(&stepped.2), "n = {n}: {stepped:?}");
    }
}

/// Asks the serial IP, byte by byte, to activate P1 again.
fn queue_activate_p1(sys: &mut System) {
    let activate = HostCommand::Activate { node: P1.0 }.to_bytes();
    sys.link_mut().host_send(&[SYNC_BYTE]);
    sys.link_mut().host_send(&activate);
}

#[test]
fn done_that_queues_host_bytes_matches_lockstep() {
    // With `store`, P2's store is still crossing the network when `done`
    // queues the bytes, so the link is not all that holds P1 back.
    // Without it the network is quiet and no send bounds P1, which has
    // run far ahead through its increments: only the bytes can pull it
    // back before the activation lands.
    let in_flight: fn(&mut System) = |sys| {
        assert!(!sys.noc().is_idle(), "the store is still in flight");
        queue_activate_p1(sys);
    };
    for (store, react) in [
        (true, in_flight),
        (false, queue_activate_p1 as fn(&mut System)),
    ] {
        for n in [50, 300, 1000] {
            let [stepped, run] =
                react_to_p2_halting(|| increments_beside_a_countdown(n, store), react);
            assert_eq!(
                run, stepped,
                "store = {store}, n = {n}: the run differs from lockstep stepping"
            );
            assert!(
                (2001..4000).contains(&stepped.2),
                "store = {store}, n = {n}: {stepped:?}"
            );
        }
    }
}

#[test]
fn done_that_reads_the_network_sees_it_where_the_loop_stops() {
    // `run_until` asks `done` at visited cycles, at jump ends and at each
    // landing, not at every cycle in which a flit moves. The delivery
    // count changes only at a landing, so a stop on it is where per-cycle
    // stepping stops. Flit hops move inside a jump, so a stop on them can
    // come later than stepping's, at the first cycle `done` is asked
    // past the threshold; the system there is the stepped system at that
    // cycle.
    for kernel in KERNELS {
        let build = || {
            let mut sys = layout_builder(NocConfig::multinoc(), Layout::Paper, kernel)
                .build()
                .expect("valid layout");
            loop_beside_a_store_stream(&mut sys);
            sys
        };
        let stepped_until = |stop: &dyn Fn(&System) -> bool| {
            let mut sys = build();
            while !stop(&sys) {
                sys.step().expect("steps");
            }
            (sys.cycle(), sys.fingerprint())
        };
        let run_until = |stop: &dyn Fn(&System) -> bool| {
            let mut sys = build();
            sys.run_until(BUDGET, "the stop", |sys| Ok(stop(sys)))
                .expect("stops");
            (sys.cycle(), sys.fingerprint())
        };
        let delivered = |sys: &System| sys.noc().stats().packets_delivered >= 12;
        assert_eq!(
            run_until(&delivered),
            stepped_until(&delivered),
            "{kernel:?}"
        );
        let hops = |sys: &System| sys.noc().stats().flit_hops >= 250;
        let (at, fingerprint) = run_until(&hops);
        let (first, _) = stepped_until(&hops);
        assert!(at > first, "{kernel:?}: {at} vs {first}");
        let there = stepped_until(&|sys: &System| sys.cycle() >= at);
        assert_eq!((at, fingerprint), there, "{kernel:?}");
    }
}

/// What a random quad program does after one of its local loops.
#[derive(Debug, Clone, Copy)]
enum Then {
    Nothing,
    /// Stores its running sum into the next core's accumulator.
    PeerStore,
    /// Notifies the next core (nobody waits, so notifies pile up).
    Notify,
    /// Prints its running sum to the host.
    Printf,
}

/// Per core, the local loops of a random quad program: `(iterations,
/// what follows)` each.
fn quad_programs() -> impl Strategy<Value = Vec<Vec<(usize, Then)>>> {
    let then = prop_oneof![
        Just(Then::Nothing),
        Just(Then::PeerStore),
        Just(Then::Notify),
        Just(Then::Printf),
    ];
    let segment = (1usize..120, then);
    proptest::collection::vec(proptest::collection::vec(segment, 1..4), 4..=4)
}

/// Loads every core of [`Layout::Quad`] with its random program — local
/// loops accumulating into 0x200, each followed by its action towards
/// the next core or the host — and activates them.
fn load_quad_programs(sys: &mut System, programs: &[Vec<(usize, Then)>]) {
    for (k, (&core, segments)) in QUAD_CORES.iter().zip(programs).enumerate() {
        let next = QUAD_CORES[(k + 1) % QUAD_CORES.len()];
        let map = sys.address_map(core).expect("map");
        let peer = map.window_base(next).expect("peer window") + 0x200;
        let mut source = format!(
            "XOR R0, R0, R0\nLIW R4, 0x200\nLIW R8, {peer}\nLIW R6, 0xFFFD\nLIW R7, {}\n\
             LIW R10, 0xFFFF\n",
            next.as_u16()
        );
        for (i, &(iterations, then)) in segments.iter().enumerate() {
            source += &format!("LIW R1, {iterations}\n");
            source += &local_loop(&format!("l{i}"), &format!("t{i}"));
            source += &format!("t{i}: ");
            source += match then {
                Then::Nothing => "NOP\n",
                Then::PeerStore => "ST R2, R8, R0\n",
                Then::Notify => "ST R7, R0, R6\n",
                Then::Printf => "ST R2, R0, R10\n",
            };
        }
        source += "HALT";
        load_program(sys, core, &source);
    }
}

/// Reads every byte the system has sent the host, as a console would.
fn drain_host(sys: &mut System) {
    while sys.link_mut().host_recv().is_some() {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random local stretches with sends at random points: on every
    /// kernel, a run to halt from the start, and `run` over the irregular
    /// chunks followed by a run to halt, reach lockstep stepping's
    /// `(cycle, fingerprint)` at every chunk boundary and at the end. The
    /// host reads its printf bytes at each boundary and, in the run to
    /// halt, at every cycle the clock lands on (`run_until_halted`'s stop
    /// condition, with the console that lets the link drain).
    #[test]
    fn random_quad_programs_match_lockstep(programs in quad_programs()) {
        let build = |kernel| {
            let mut sys = quad(kernel, 4, |_| {});
            load_quad_programs(&mut sys, &programs);
            sys
        };
        let halted = |sys: &mut System| {
            drain_host(sys);
            Ok(sys.halted_and_drained())
        };
        let horizon = 1_200;
        let chunked = |mut sys: System, driving: Driving| {
            let mut seen = Vec::new();
            for &chunk in CHUNKS.iter().cycle() {
                let chunk = chunk.min(horizon - sys.cycle());
                match driving {
                    Driving::Step => (0..chunk).for_each(|_| sys.step().expect("steps")),
                    Driving::Run => sys.run(chunk).expect("runs"),
                }
                seen.push((sys.cycle(), sys.fingerprint()));
                drain_host(&mut sys);
                if sys.cycle() == horizon {
                    break;
                }
            }
            (seen, sys)
        };
        let (boundaries, mut stepped) = chunked(build(KernelMode::Reference), Driving::Step);
        while !halted(&mut stepped).expect("condition holds") {
            stepped.step().expect("steps");
        }
        let end = (stepped.cycle(), stepped.fingerprint());
        for kernel in KERNELS {
            let mut fresh = build(kernel);
            fresh.run_until(BUDGET, "halt", halted).expect("halts");
            prop_assert_eq!((fresh.cycle(), fresh.fingerprint()), end, "{:?} fresh", kernel);
            let (seen, mut sys) = chunked(build(kernel), Driving::Run);
            prop_assert_eq!(&seen, &boundaries, "{:?} in chunks", kernel);
            sys.run_until(BUDGET, "halt", halted).expect("halts");
            prop_assert_eq!((sys.cycle(), sys.fingerprint()), end, "{:?} after chunks", kernel);
        }
    }
}
