//! Whole MultiNoC systems: E5 host flow, E6 edge detection, E10 serial
//! link, E13 service mix, E14 sea of processors, E15 reconfiguration and
//! E16 utilization.

use std::error::Error;

use floorplan::estimate::Component;
use hermes_noc::{NocConfig, RouterAddr};
use multinoc::apps::edge::{self, Image};
use multinoc::apps::{histogram, vecsum};
use multinoc::serial::SerialConfig;
use multinoc::trace::ALL_CODES;
use multinoc::{host::Host, NodeId, System, SystemError};
use multinoc::{PROCESSOR_1, PROCESSOR_2, REMOTE_MEMORY, SERIAL};
use multinoc_bench::suite::Runs;
use r8::asm::assemble;

use super::{row, Report, Table};
use crate::Outcome;

/// The paper system's clock, for simulated times.
const CLOCK_HZ: f64 = 25.0e6;

/// Builds the paper system, synchronises the host, loads the Fig. 10
/// edge detector on `processors` and runs it over `image`. Records the
/// system's fingerprint and returns the system, the run's cycles and
/// whether its output equals the host-side reference.
fn edge_detection(
    runs: &mut Runs,
    processors: &[NodeId],
    image: &Image,
) -> Result<(System, u64, bool), SystemError> {
    let mut system = System::paper_config()?;
    let mut host = Host::new().with_budget(50_000_000);
    host.synchronize(&mut system)?;
    edge::load(&mut system, &mut host, processors, image.width() as u16)?;
    let run = edge::run(&mut system, &mut host, processors, image)?;
    runs.record(system.fingerprint());
    let verified = run.output == edge::reference(image);
    Ok((system, run.cycles, verified))
}

pub fn e5(runs: &mut Runs, report: &mut Report) -> Outcome {
    let data: Vec<u16> = (1..=64).collect();
    let program = assemble(&vecsum::program(data.len() as u16))?;
    let mut system = System::paper_config()?;
    let mut host = Host::new();
    let mut table = Table::new(&["phase", "cycles", "simulated time at 25 MHz"]);
    let mut mark = 0u64;
    let mut phase = |system: &System, name: &str| {
        let now = system.cycle();
        let us = (now - mark) as f64 / system.clock_hz() * 1e6;
        row!(table, name, now - mark, format!("{us:.1} us"));
        mark = now;
    };
    host.synchronize(&mut system)?;
    phase(&system, "synchronize (0x55)");
    host.load_program(&mut system, PROCESSOR_1, program.words())?;
    phase(&system, "send object code");
    host.write_memory(&mut system, PROCESSOR_1, vecsum::DATA_ADDR, &data)?;
    phase(&system, "fill memory contents");
    host.activate(&mut system, PROCESSOR_1)?;
    phase(&system, "activate processor");
    host.wait_for_printf(&mut system, PROCESSOR_1, 1)?;
    phase(&system, "execute + printf");
    let read_back = host.read_memory(&mut system, PROCESSOR_1, vecsum::RESULT_ADDR, 1)?[0];
    phase(&system, "debug memory read");
    runs.record(system.fingerprint());
    report.table(&table);

    let printf = host.printf_output(PROCESSOR_1)[0];
    let expected = vecsum::expected_sum(&data);
    report.note(format!(
        "printf: {printf}, read-back: {read_back}, expected: {expected}; \
         total: {} cycles.",
        system.cycle()
    ));
    report.claim(
        printf == expected && read_back == expected,
        "both Fig. 9 debug paths, printf and memory read-back, return the expected sum",
    );
    Ok(())
}

pub fn e6(runs: &mut Runs, report: &mut Report) -> Outcome {
    let mut table = Table::new(&[
        "image",
        "1 proc cycles",
        "2 proc cycles",
        "speedup",
        "2-proc simulated time at 25 MHz",
    ]);
    let mut verified = true;
    let mut speedups = Vec::new();
    for (w, h) in [(16usize, 8usize), (32, 16), (48, 24), (64, 32)] {
        let image = Image::synthetic(w, h);
        let (_, serial, ok) = edge_detection(runs, &[PROCESSOR_1], &image)?;
        verified &= ok;
        let (_, parallel, ok) = edge_detection(runs, &[PROCESSOR_1, PROCESSOR_2], &image)?;
        verified &= ok;
        let speedup = serial as f64 / parallel as f64;
        speedups.push(speedup);
        row!(
            table,
            format!("{w}x{h}"),
            serial,
            parallel,
            format!("{speedup:.2}x"),
            format!("{:.1} ms", parallel as f64 / CLOCK_HZ * 1e3)
        );
    }
    report.table(&table);
    report.claim(verified, "every output equals the host-side reference");
    report.claim(
        speedups.windows(2).all(|w| w[0] < w[1]) && speedups[3] > 1.9,
        "the 2-processor speed-up rises with image size, past 1.9× at 64x32",
    );
    Ok(())
}

pub fn e10(runs: &mut Runs, report: &mut Report) -> Outcome {
    let mut table = Table::new(&["link", "cycles/byte", "load cycles", "simulated load time"]);
    let links: [(&str, SerialConfig); 5] = [
        ("9600 baud", SerialConfig::from_baud(CLOCK_HZ, 9600.0)),
        ("115200 baud", SerialConfig::from_baud(CLOCK_HZ, 115_200.0)),
        ("921600 baud", SerialConfig::from_baud(CLOCK_HZ, 921_600.0)),
        (
            "USB-class (1 MB/s)",
            SerialConfig {
                cycles_per_byte: 25,
            },
        ),
        ("ideal byte/cycle", SerialConfig { cycles_per_byte: 1 }),
    ];
    let image: Vec<u16> = (0..1024u16).map(|i| i.wrapping_mul(31)).collect();
    let mut times = Vec::new();
    let mut delivered = true;
    for (name, config) in links {
        let mut system = System::builder()
            .serial(config)
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .processor_at(RouterAddr::new(1, 0))
            .memory_at(RouterAddr::new(1, 1))
            .build()?;
        let mut host = Host::new().with_budget(2_000_000_000);
        host.synchronize(&mut system)?;
        let start = system.cycle();
        host.write_memory(&mut system, PROCESSOR_1, 0, &image)?;
        let cycles = system.cycle() - start;
        runs.record(system.fingerprint());
        delivered &= system.memory(PROCESSOR_1)?.read_block(0, 1024) == image;
        times.push(cycles);
        let secs = cycles as f64 / CLOCK_HZ;
        let time = if secs >= 1.0 {
            format!("{secs:.2} s")
        } else {
            format!("{:.1} ms", secs * 1e3)
        };
        row!(table, name, config.cycles_per_byte, cycles, time);
    }
    report.table(&table);
    report.claim(delivered, "P1's memory holds the image after every load");
    report.claim(
        times.windows(2).all(|w| w[0] > w[1]),
        "every faster link loads the image in fewer cycles",
    );
    Ok(())
}

pub fn e13(runs: &mut Runs, report: &mut Report) -> Outcome {
    let image = Image::synthetic(32, 12);
    let (system, _, verified) = edge_detection(runs, &[PROCESSOR_1, PROCESSOR_2], &image)?;
    let counters = system.service_counters();
    let mut table = Table::new(&["service", "total sent", "by serial", "by P1", "by P2"]);
    for code in ALL_CODES {
        row!(
            table,
            format!("{code:?}"),
            counters.total_sent(code),
            counters.sent(SERIAL, code),
            counters.sent(PROCESSOR_1, code),
            counters.sent(PROCESSOR_2, code)
        );
    }
    report.table(&table);
    report.claim(verified, "the output equals the host-side reference");
    Ok(())
}

/// E14's fixed workload, split evenly over the processors.
const TOTAL_UNITS: u16 = 360;
/// Where the host deposits a processor's work share.
const SHARE_ADDR: u16 = 0x380;
/// A processor's first unit index.
const START_ADDR: u16 = 0x381;
/// A processor's partial checksum.
const RESULT_ADDR: u16 = 0x382;

/// The compiled work kernel: a few hundred cycles of local work per unit.
fn sea_kernel() -> r8::Program {
    r8c::build(&format!(
        "func main() {{
             var share = peek({SHARE_ADDR});
             var unit = peek({START_ADDR});
             var acc = 0;
             var n = 0;
             while (n < share) {{
                 var x = unit * 7 + 1;
                 var inner = 0;
                 while (inner < 20) {{
                     x = (x * 3 + unit) & 0x7FF;
                     acc = acc ^ x;
                     inner = inner + 1;
                 }}
                 unit = unit + 1;
                 n = n + 1;
             }}
             poke({RESULT_ADDR}, acc);
         }}"
    ))
    .expect("kernel compiles")
}

/// Host-side reference of one processor's partial checksum.
fn reference_partial(start: u16, share: u16) -> u16 {
    let mut acc: u16 = 0;
    for unit in start..start + share {
        let mut x = unit.wrapping_mul(7).wrapping_add(1);
        for _ in 0..20 {
            x = (x.wrapping_mul(3).wrapping_add(unit)) & 0x7FF;
            acc ^= x;
        }
    }
    acc
}

/// Runs the workload on `processors` cores of a 4×4 mesh (serial at 00,
/// processors in row order); returns the makespan and whether every
/// partial checksum is right.
fn sea_run(
    runs: &mut Runs,
    processors: usize,
    kernel: &r8::Program,
) -> Result<(u64, bool), SystemError> {
    let mut builder = System::builder()
        .noc(NocConfig::mesh(4, 4))
        .serial_at(RouterAddr::new(0, 0));
    let mut nodes = Vec::new();
    for (x, y) in (0..4u8).flat_map(|y| (0..4u8).map(move |x| (x, y))).skip(1) {
        builder = builder.processor_at(RouterAddr::new(x, y));
        nodes.push(NodeId(nodes.len() as u8 + 1));
        if nodes.len() == processors {
            break;
        }
    }
    let mut system = builder.build()?;
    let share = TOTAL_UNITS / processors as u16;
    for (k, &node) in nodes.iter().enumerate() {
        let memory = system.memory_mut(node)?;
        memory.write_block(0, kernel.words());
        memory.write(SHARE_ADDR, share);
        memory.write(START_ADDR, k as u16 * share);
    }
    for &node in &nodes {
        system.activate_directly(node)?;
    }
    let start = system.cycle();
    system.run_until_halted(500_000_000)?;
    runs.record(system.fingerprint());
    let mut verified = true;
    for (k, &node) in nodes.iter().enumerate() {
        let start = k as u16 * share;
        verified &= system.memory(node)?.read(RESULT_ADDR) == reference_partial(start, share);
    }
    Ok((system.cycle() - start, verified))
}

pub fn e14(runs: &mut Runs, report: &mut Report) -> Outcome {
    let kernel = sea_kernel();
    let mut table = Table::new(&["processors", "makespan (cycles)", "speedup", "efficiency"]);
    let mut verified = true;
    let mut base = None;
    let mut efficiency = 0.0;
    for processors in [1usize, 2, 3, 4, 6, 12] {
        let (cycles, ok) = sea_run(runs, processors, &kernel)?;
        verified &= ok;
        let speedup = *base.get_or_insert(cycles) as f64 / cycles as f64;
        efficiency = speedup / processors as f64;
        row!(
            table,
            processors,
            cycles,
            format!("{speedup:.2}x"),
            format!("{:.0}%", efficiency * 100.0)
        );
    }
    report.table(&table);
    report.claim(verified, "every processor's partial checksum is right");
    report.claim(
        efficiency >= 0.99,
        "efficiency is at least 99 % at 12 processors",
    );
    Ok(())
}

/// Cycles for P1 to finish `count` remote reads of P2's memory.
fn remote_read_time(system: &mut System, count: u16) -> Result<u64, Box<dyn Error>> {
    let base = system
        .address_map(PROCESSOR_1)?
        .window_base(PROCESSOR_2)
        .expect("peer window");
    let program = assemble(&format!(
        "XOR R0, R0, R0\nLIW R1, {base}\nLIW R3, {count}\n\
         loop: LD R2, R1, R0\nSUBI R3, 1\nJMPZD done\nJMPD loop\ndone: HALT"
    ))?;
    system
        .memory_mut(PROCESSOR_1)?
        .write_block(0, program.words());
    let start = system.cycle();
    system.activate_directly(PROCESSOR_1)?;
    system.run_until_halted(50_000_000)?;
    Ok(system.cycle() - start)
}

pub fn e15(runs: &mut Runs, report: &mut Report) -> Outcome {
    let mut system = System::builder()
        .noc(NocConfig::mesh(4, 4))
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(1, 0))
        .processor_at(RouterAddr::new(3, 3))
        .memory_at(RouterAddr::new(3, 0))
        .build()?;
    let p1 = RouterAddr::new(1, 0);
    let mut relocation = Table::new(&["P2 position", "hops", "50 remote reads", "per read"]);
    let mut per_read = Vec::new();
    for position in [
        RouterAddr::new(3, 3),
        RouterAddr::new(2, 2),
        RouterAddr::new(2, 0),
    ] {
        if system.table().router_of(PROCESSOR_2) != Some(position) {
            system.relocate_ip(PROCESSOR_2, position)?;
        }
        let cycles = remote_read_time(&mut system, 50)?;
        runs.record(system.fingerprint());
        per_read.push(cycles as f64 / 50.0);
        row!(
            relocation,
            position,
            p1.hops_to(position),
            cycles,
            format!("{:.0} cy", cycles as f64 / 50.0)
        );
    }
    report.note("Relocating P2 towards its communication partner:");
    report.table(&relocation);

    let slices = |processors: u32, memories: u32| {
        4 * Component::router("r").slices
            + Component::serial("s").slices
            + processors * Component::processor("p").slices
            + memories * Component::memory("m").slices
    };
    let device = floorplan::Device::xc2s200e().slices();
    let mut area = Table::new(&["configuration", "active slices", "of XC2S200E"]);
    let mut used = Vec::new();
    for (name, p, m) in [
        ("full system (2P + 1M)", 2u32, 1u32),
        ("P2 removed (1P + 1M)", 1, 1),
        ("P2 + memory removed", 1, 0),
    ] {
        used.push(slices(p, m));
        row!(
            area,
            name,
            slices(p, m),
            format!(
                "{:.0}%",
                f64::from(slices(p, m)) / f64::from(device) * 100.0
            )
        );
    }
    runs.record(area.digest());
    report.note("Removing idle IP cores:");
    report.table(&area);

    // The removal happens in the live system: P2 halts and is taken out.
    let halt = assemble("HALT")?;
    system.memory_mut(PROCESSOR_2)?.write_block(0, halt.words());
    system.activate_directly(PROCESSOR_2)?;
    system.run_until_idle(1_000_000)?;
    system.remove_ip(PROCESSOR_2)?;
    runs.record(system.fingerprint());
    report.note("P2 then halts and is removed from the running system.");
    report.claim(
        per_read.windows(2).all(|w| w[0] > w[1]),
        "cycles per remote read fall with every move closer",
    );
    report.claim(
        used.windows(2).all(|w| w[0] > w[1]),
        "the active slice count falls with each removal",
    );
    Ok(())
}

/// One row per processor of where its cycles went.
fn utilization(system: &System, processors: &[NodeId]) -> Result<Table, SystemError> {
    let mut table = Table::new(&["processor", "running", "blocked", "halted/idle", "busy"]);
    for &node in processors {
        let u = system.processor_utilization(node)?;
        row!(
            table,
            node,
            u.running,
            u.blocked,
            u.halted + u.idle,
            format!("{:.0}%", u.busy_fraction() * 100.0)
        );
    }
    Ok(table)
}

pub fn e16(runs: &mut Runs, report: &mut Report) -> Outcome {
    let processors = [PROCESSOR_1, PROCESSOR_2];
    let image = Image::synthetic(32, 16);
    let (system, _, edge_verified) = edge_detection(runs, &processors, &image)?;
    report.note("Edge detection, 32x16 image, line-pipelined over 2 processors:");
    report.table(&utilization(&system, &processors)?);

    let mut system = System::paper_config()?;
    let mut host = Host::new().with_budget(50_000_000);
    host.synchronize(&mut system)?;
    let data: Vec<u16> = (0..200).map(|i| ((i * 37 + 11) % 251) as u16).collect();
    let run = histogram::run(&mut system, &mut host, &processors, REMOTE_MEMORY, &data)?;
    runs.record(system.fingerprint());
    report.note("Distributed histogram, 200 samples, 2-processor token ring:");
    report.table(&utilization(&system, &processors)?);
    report.claim(
        edge_verified,
        "the edge output equals the host-side reference",
    );
    report.claim(
        run.bins == histogram::reference(&data),
        "the histogram equals the host-side reference",
    );
    Ok(())
}
