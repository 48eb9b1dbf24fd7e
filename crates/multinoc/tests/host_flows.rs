//! Host-driven flows against pinned per-call state. After every
//! [`Host`] call of two flows the pair (cycle, [`System::fingerprint`])
//! is recorded, and the Fletcher-64 digest of the record must equal the
//! value pinned from a host that stepped the system one cycle at a time.
//! Flow (a) is the paper's edge detection (Fig. 10) on both processors:
//! one core computes while the host feeds the other, so calls return
//! while a core is ahead of the clock. Flow (b) is a scanf, printf and
//! remote-memory dialogue over a 115 200-baud link under a fault plan,
//! where the run loop jumps the long gaps between serial bytes. Every
//! kernel must reach both pins.

use hermes_noc::snapshot::fletcher64;
use hermes_noc::{FaultPlan, KernelMode, NocConfig, RouterAddr, Routing};
use multinoc::apps::edge::{self, Image};
use multinoc::host::Host;
use multinoc::serial::SerialConfig;
use multinoc::{System, SystemBuilder, PROCESSOR_1, PROCESSOR_2, REMOTE_MEMORY};
use r8::asm::assemble;

const KERNELS: [KernelMode; 5] = [
    KernelMode::Reference,
    KernelMode::Active,
    KernelMode::Parallel { threads: 1 },
    KernelMode::Parallel { threads: 2 },
    KernelMode::Parallel { threads: 8 },
];

/// Digest of flow (a)'s record.
const EDGE_PIN: u64 = 13_739_844_649_451_577_722;
/// Digest of flow (b)'s record.
const SLOW_LINK_PIN: u64 = 4_436_038_957_294_974_741;

const WIDTH: usize = 32;
const HEIGHT: usize = 12;

/// The (cycle, fingerprint) pairs seen after each host call.
#[derive(Default)]
struct Record(Vec<u8>);

impl Record {
    fn note(&mut self, sys: &System) {
        self.0.extend(sys.cycle().to_le_bytes());
        self.0.extend(sys.fingerprint().to_le_bytes());
    }

    fn digest(&self) -> u64 {
        fletcher64(&self.0)
    }
}

/// The paper's layout (Fig. 1) over `config` under `kernel`.
fn paper(config: NocConfig, kernel: KernelMode) -> SystemBuilder {
    System::builder()
        .noc(config)
        .kernel(kernel)
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .processor_at(RouterAddr::new(1, 0))
        .memory_at(RouterAddr::new(1, 1))
}

/// Flow (a): the round robin of [`edge::run`], one record per call.
fn edge_flow(kernel: KernelMode) -> u64 {
    let mut sys = paper(NocConfig::multinoc(), kernel)
        .build()
        .expect("layout");
    let mut host = Host::new();
    let mut record = Record::default();
    let image = Image::synthetic(WIDTH, HEIGHT);
    host.synchronize(&mut sys).expect("sync");
    record.note(&sys);
    let program = assemble(&edge::program(WIDTH as u16)).expect("edge program");
    let processors = [PROCESSOR_1, PROCESSOR_2];
    for node in processors {
        host.load_program(&mut sys, node, program.words())
            .expect("load");
        record.note(&sys);
    }
    let mut output = vec![0u16; WIDTH * HEIGHT];
    let mut busy: [Option<usize>; 2] = [None; 2];
    let mut printed = [0usize; 2];
    let mut next = 1;
    let mut remaining = HEIGHT - 2;
    while remaining > 0 {
        for (slot, node) in processors.into_iter().enumerate() {
            if let Some(line) = busy[slot].take() {
                printed[slot] += 1;
                host.wait_for_printf(&mut sys, node, printed[slot])
                    .expect("line done");
                record.note(&sys);
                let data = host
                    .read_memory(&mut sys, node, edge::OUT_ADDR, WIDTH)
                    .expect("read line");
                record.note(&sys);
                output[line * WIDTH..(line + 1) * WIDTH].copy_from_slice(&data);
                remaining -= 1;
            }
            if next < HEIGHT - 1 {
                for (addr, row) in [
                    (edge::ROW0_ADDR, next - 1),
                    (edge::ROW1_ADDR, next),
                    (edge::ROW2_ADDR, next + 1),
                ] {
                    host.write_memory(&mut sys, node, addr, image.row(row))
                        .expect("feed row");
                    record.note(&sys);
                }
                host.activate(&mut sys, node).expect("activate");
                record.note(&sys);
                busy[slot] = Some(next);
                next += 1;
            }
        }
    }
    assert_eq!(output, edge::reference(&image), "{kernel:?}");
    record.digest()
}

/// Flow (b): P1 answers a scanf, prints, writes and reads back the
/// remote memory; P2 counts down and prints. The link runs at 115 200
/// baud, so a byte takes ~2 170 cycles, and one packet in ten is lost.
/// Printf is fire-and-forget in the paper's protocol, so the plan's seed
/// is one under which both printfs arrive; the sequenced traffic
/// (memory writes, activations, the scanf and the remote accesses) is
/// retransmitted thirteen times.
fn slow_link_flow(kernel: KernelMode) -> u64 {
    let config = NocConfig::multinoc().with_routing(Routing::FaultTolerantXy);
    let mut sys = paper(config, kernel)
        .serial(SerialConfig::from_baud(25.0e6, 115_200.0))
        .build()
        .expect("layout");
    sys.set_fault_plan(FaultPlan::new(13).with_drop_rate(0.1))
        .expect("plan");
    let mem = sys
        .address_map(PROCESSOR_1)
        .expect("map")
        .window_base(REMOTE_MEMORY)
        .expect("window");
    let p1 = assemble(&format!(
        "XOR R0, R0, R0\n\
         LIW R1, 0xFFFF\n\
         LD  R2, R1, R0\n\
         ADDI R2, 1\n\
         ST  R2, R1, R0\n\
         LIW R3, {mem}\n\
         ST  R2, R3, R0\n\
         LD  R4, R3, R0\n\
         ST  R4, R1, R0\n\
         HALT"
    ))
    .expect("p1 assembles");
    let p2 = assemble(
        "XOR R0, R0, R0\n\
         LIW R1, 0xFFFF\n\
         LIW R2, 200\n\
         l: SUBI R2, 1\n\
         JMPZD d\n\
         JMPD l\n\
         d: LIW R3, 4242\n\
         ST  R3, R1, R0\n\
         HALT",
    )
    .expect("p2 assembles");
    let mut host = Host::new().with_budget(5_000_000);
    let mut record = Record::default();
    host.synchronize(&mut sys).expect("sync");
    record.note(&sys);
    for (node, program) in [(PROCESSOR_1, &p1), (PROCESSOR_2, &p2)] {
        host.load_program(&mut sys, node, program.words())
            .expect("load");
        record.note(&sys);
    }
    for node in [PROCESSOR_1, PROCESSOR_2] {
        host.activate(&mut sys, node).expect("activate");
        record.note(&sys);
    }
    let asking = host.wait_for_scanf(&mut sys).expect("scanf request");
    record.note(&sys);
    assert_eq!(asking, PROCESSOR_1);
    host.answer_scanf(&mut sys, PROCESSOR_1, 41)
        .expect("answer");
    record.note(&sys);
    host.wait_for_printf(&mut sys, PROCESSOR_1, 2)
        .expect("p1 prints");
    record.note(&sys);
    host.wait_for_printf(&mut sys, PROCESSOR_2, 1)
        .expect("p2 prints");
    record.note(&sys);
    let remote = host
        .read_memory(&mut sys, REMOTE_MEMORY, 0, 4)
        .expect("read remote");
    record.note(&sys);
    let local = host
        .read_memory(&mut sys, PROCESSOR_1, 0, 8)
        .expect("read local");
    record.note(&sys);
    assert_eq!(host.printf_output(PROCESSOR_1), [42, 42]);
    assert_eq!(host.printf_output(PROCESSOR_2), [4242]);
    assert_eq!(remote[0], 42);
    assert_eq!(local, p1.words()[..8]);
    assert_eq!(sys.retry_counters().retransmissions, 13, "{kernel:?}");
    record.digest()
}

#[test]
fn edge_detection_reaches_the_pinned_state_after_every_host_call() {
    for kernel in KERNELS {
        assert_eq!(edge_flow(kernel), EDGE_PIN, "{kernel:?}");
    }
}

#[test]
fn slow_faulted_link_reaches_the_pinned_state_after_every_host_call() {
    for kernel in KERNELS {
        assert_eq!(slow_link_flow(kernel), SLOW_LINK_PIN, "{kernel:?}");
    }
}
