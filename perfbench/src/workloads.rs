//! The four benchmark workloads: seeded inputs, set-up, the timed call
//! into the simulator, and a host-side reference for every output.
//!
//! Each workload loads different layers of the simulator (see
//! `README.md` in this directory for the full layer map):
//!
//! - `sea12`: twelve R8 cores computing locally — R8 core and processor
//!   IP step dominate;
//! - `edge_host`: the paper's Fig. 10 application driven by the host over
//!   the serial link — host protocol, serial IP and services;
//! - `mem_hotspot`: twelve cores hammering one memory IP — memory IP,
//!   reliability layer and NoC under contention;
//! - `noc_sat32`: Hermes alone, saturated, on the parallel kernel.

use hermes_noc::traffic::{Pattern, TrafficGen};
use hermes_noc::{KernelMode, Noc, NocConfig, PhaseProfile, RouterAddr};
use multinoc::apps::edge::{self, Image};
use multinoc::host::Host;
use multinoc::service::ServiceCode;
use multinoc::{NodeId, System, PROCESSOR_1, PROCESSOR_2};
use prng::Rng64;
use r8::core::{Cpu, RamBus};

/// The workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["sea12", "edge_host", "mem_hotspot", "noc_sat32"];

/// Simulated-cycle budget of one timed region; a run that needs more
/// fails all its operations instead of hanging the benchmark.
const BUDGET: u64 = 50_000_000;

/// Worker threads of the parallel NoC kernel in the timed `noc_sat32`
/// simulations. One: on a shared two-CPU host the rate at two threads
/// spread 26% between runs (against about 8% at one), more than the 25%
/// bound the benchmark may set on it.
pub const NOC_THREADS: usize = 1;

/// Threads of the `noc_sat32` reference run, which every timed simulation
/// must match exactly: two where the host has them, so that every run
/// also checks that one and two threads agree.
pub fn reference_threads() -> usize {
    host_cpus().min(2)
}

/// CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

// ---- sea12 -------------------------------------------------------------

const SEA_CORES: usize = 12;
/// Work-unit shares, dealt to the cores in a seeded order. A fixed
/// multiset keeps the longest share, and so the makespan, the same for
/// every seed while each core's share and data change.
const SEA_SHARES: [u16; SEA_CORES] = [28, 29, 29, 30, 30, 30, 30, 30, 30, 31, 31, 32];
const SHARE_ADDR: u16 = 0x380;
const START_ADDR: u16 = 0x381;
const RESULT_ADDR: u16 = 0x382;

/// The `exp_sea_of_processors` kernel: a few hundred cycles of local
/// work per unit, one partial checksum per core.
fn sea_source() -> String {
    format!(
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
    )
}

/// Host-side reference of one core's partial checksum.
fn reference_partial(start: u16, share: u16) -> u16 {
    let mut acc: u16 = 0;
    for k in 0..share {
        let unit = start.wrapping_add(k);
        let mut x = unit.wrapping_mul(7).wrapping_add(1);
        for _ in 0..20 {
            x = (x.wrapping_mul(3).wrapping_add(unit)) & 0x7FF;
            acc ^= x;
        }
    }
    acc
}

// ---- edge_host ---------------------------------------------------------

const EDGE_WIDTH: usize = 64;
const EDGE_HEIGHT: usize = 12;
const EDGE_PROCESSORS: [NodeId; 2] = [PROCESSOR_1, PROCESSOR_2];

// ---- mem_hotspot -------------------------------------------------------

const MEM_CORES: usize = 12;
/// Words of the memory IP each core owns; the IP's 1K words hold
/// sixteen such slots, dealt to the cores in a seeded order.
const MEM_SLICE: u16 = 64;
/// Words of its slice a core writes and reads back.
const MEM_WORDS: u16 = 16;
const MEM_BASE_ADDR: u16 = 0x380;
const MEM_LEN_ADDR: u16 = 0x381;
const MEM_RESULT_ADDR: u16 = 0x382;
const MEM_DATA_ADDR: u16 = 0x300;

/// Writes each data word to the remote slice and reads it straight back,
/// summing what it read.
fn mem_source() -> String {
    format!(
        "func main() {{
             var base = peek({MEM_BASE_ADDR});
             var len = peek({MEM_LEN_ADDR});
             var sum = 0;
             var i = 0;
             while (i < len) {{
                 poke(base + i, peek({MEM_DATA_ADDR} + i));
                 sum = sum + peek(base + i);
                 i = i + 1;
             }}
             poke({MEM_RESULT_ADDR}, sum);
         }}"
    )
}

/// One `mem_hotspot` core's seeded input.
#[derive(Debug, Clone)]
pub struct MemCore {
    /// First word of the core's slice inside the memory IP.
    offset: u16,
    data: Vec<u16>,
}

impl MemCore {
    /// Reference result words: the core's sum, then its slice's final
    /// contents.
    fn expected(&self) -> Vec<u16> {
        let sum = self.data.iter().fold(0u16, |acc, &d| acc.wrapping_add(d));
        let mut words = vec![sum];
        words.extend(&self.data);
        words
    }
}

// ---- noc_sat32 ---------------------------------------------------------

const NOC_SIDE: u8 = 32;
const NOC_INJECTION: f64 = 0.2;
const NOC_PAYLOAD: usize = 4;
const NOC_BATCH: u64 = 16;
const NOC_CYCLES: u64 = 128;

/// Simulated observables of a `noc_sat32` run that every thread count
/// must reproduce exactly.
pub type Fingerprint = [u64; 6];

fn fingerprint(noc: &Noc) -> Fingerprint {
    let s = noc.stats();
    [
        s.cycles,
        s.packets_sent,
        s.packets_delivered,
        s.flit_hops,
        s.flits_delivered,
        s.latency_histogram().sum(),
    ]
}

// ---- common ------------------------------------------------------------

/// One workload with its seeded inputs.
#[derive(Debug, Clone)]
pub enum Workload {
    /// `(first unit, share)` per core.
    Sea12(Vec<(u16, u16)>),
    EdgeHost(Image),
    MemHotspot(Vec<MemCore>),
    NocSat32 {
        seed: u64,
        threads: usize,
    },
}

/// What a timed region produced, or (computed on the host) must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Results {
    /// Result words, one vector per operation.
    Words(Vec<Vec<u16>>),
    /// The run's simulated fingerprint; one operation per packet.
    Noc(Fingerprint),
}

impl Results {
    /// Operations attempted and failed against `expected`. A word vector
    /// that differs from its reference fails its operation; on
    /// `noc_sat32` every undelivered packet fails, and all of them fail
    /// if the fingerprint differs from the reference run's.
    pub fn check(&self, expected: &Results) -> (u64, u64) {
        match (self, expected) {
            (Results::Words(got), Results::Words(want)) => {
                let failed = want
                    .iter()
                    .enumerate()
                    .filter(|(k, w)| got.get(*k) != Some(*w))
                    .count();
                (want.len() as u64, failed as u64)
            }
            (Results::Noc(got), Results::Noc(want)) => {
                let sent = want[1];
                if got == want {
                    (sent, sent - got[2])
                } else {
                    (sent, sent)
                }
            }
            _ => (expected.ops(), expected.ops()),
        }
    }

    /// Operations one timed region attempts.
    pub fn ops(&self) -> u64 {
        match self {
            Results::Words(w) => w.len() as u64,
            Results::Noc(f) => f[1],
        }
    }
}

/// Exact simulated counters, read through the simulator's public API.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub instructions: u64,
    pub running: u64,
    pub blocked: u64,
    pub sampled: u64,
    pub sent: u64,
    pub retransmissions: u64,
    pub acked: u64,
    pub read_requests: u64,
    pub write_requests: u64,
    pub packets_delivered: u64,
    pub flit_hops: u64,
}

impl Counts {
    /// Field-wise `self - before`.
    pub fn since(self, before: Counts) -> Counts {
        Counts {
            instructions: self.instructions - before.instructions,
            running: self.running - before.running,
            blocked: self.blocked - before.blocked,
            sampled: self.sampled - before.sampled,
            sent: self.sent - before.sent,
            retransmissions: self.retransmissions - before.retransmissions,
            acked: self.acked - before.acked,
            read_requests: self.read_requests - before.read_requests,
            write_requests: self.write_requests - before.write_requests,
            packets_delivered: self.packets_delivered - before.packets_delivered,
            flit_hops: self.flit_hops - before.flit_hops,
        }
    }
}

/// A simulation after set-up, ready for its timed region.
#[derive(Debug)]
pub struct Sim {
    target: Target,
    /// Pixels `edge::run` returned (`edge_host` only).
    edge_output: Vec<u16>,
}

#[derive(Debug)]
enum Target {
    System(Box<System>, Host),
    Noc(Box<Noc>, TrafficGen),
}

/// Service-span latencies of one traced run, in cycles.
#[derive(Debug, Clone, Default)]
pub struct SpanLatencies {
    pub reads: Vec<u64>,
    pub writes: Vec<u64>,
}

impl Sim {
    /// Simulated cycles so far.
    pub fn cycle(&self) -> u64 {
        match &self.target {
            Target::System(s, _) => s.cycle(),
            Target::Noc(n, _) => n.cycle(),
        }
    }

    /// Turns on the observers the traced run reads: the kernel phase
    /// profiler and, for whole systems, service spans.
    pub fn enable_tracing(&mut self) {
        match &mut self.target {
            Target::System(s, _) => {
                s.enable_phase_profiler();
                s.enable_service_spans(1 << 16);
            }
            Target::Noc(n, _) => n.enable_phase_profiler(),
        }
    }

    pub fn phase_profile(&self) -> Option<PhaseProfile> {
        match &self.target {
            Target::System(s, _) => s.phase_profile(),
            Target::Noc(n, _) => n.phase_profile(),
        }
    }

    /// Routers in the mesh.
    pub fn routers(&self) -> u64 {
        let config = self.noc().config();
        u64::from(config.width()) * u64::from(config.height())
    }

    /// Worker threads the NoC kernel runs on.
    pub fn noc_threads(&self) -> usize {
        match self.noc().config().kernel {
            KernelMode::Parallel { threads } => threads,
            _ => 1,
        }
    }

    fn noc(&self) -> &Noc {
        match &self.target {
            Target::System(s, _) => s.noc(),
            Target::Noc(n, _) => n,
        }
    }

    /// NoC latency percentiles `(p50, p99)` over every delivered packet,
    /// and the busiest link's utilization.
    pub fn noc_latency_and_peak(&self) -> (u64, u64, f64) {
        let noc = self.noc();
        let stats = noc.stats();
        let hist = stats.latency_histogram();
        (
            hist.p50().unwrap_or(0),
            hist.p99().unwrap_or(0),
            stats.peak_link_utilization(noc.config().cycles_per_flit),
        )
    }

    /// Completed-minus-started cycles of every read and write service
    /// span (empty unless tracing is on).
    pub fn span_latencies(&self) -> SpanLatencies {
        let mut out = SpanLatencies::default();
        let Target::System(s, _) = &self.target else {
            return out;
        };
        let Some(log) = s.service_spans() else {
            return out;
        };
        for span in log.spans() {
            let Some(done) = span.completed else { continue };
            match span.code {
                ServiceCode::ReadFromMemory => out.reads.push(done - span.started),
                ServiceCode::WriteInMemory => out.writes.push(done - span.started),
                _ => {}
            }
        }
        out
    }

    /// The exact counters at this moment.
    pub fn counts(&self) -> Counts {
        match &self.target {
            Target::System(s, _) => {
                let mut c = Counts::default();
                for node in s.processors() {
                    if let Ok(cpu) = s.cpu(node) {
                        c.instructions += cpu.retired();
                    }
                    if let Ok(u) = s.processor_utilization(node) {
                        c.running += u.running;
                        c.blocked += u.blocked;
                        c.sampled += u.total();
                    }
                }
                let r = s.retry_counters();
                c.sent = r.sent;
                c.retransmissions = r.retransmissions;
                c.acked = r.acked;
                c.read_requests = s.service_counters().total_sent(ServiceCode::ReadFromMemory);
                c.write_requests = s.service_counters().total_sent(ServiceCode::WriteInMemory);
                c.packets_delivered = s.noc_stats().packets_delivered;
                c.flit_hops = s.noc_stats().flit_hops;
                c
            }
            Target::Noc(n, _) => Counts {
                packets_delivered: n.stats().packets_delivered,
                flit_hops: n.stats().flit_hops,
                ..Counts::default()
            },
        }
    }
}

fn system_err(e: multinoc::SystemError) -> String {
    e.to_string()
}

impl Workload {
    /// The workload `name` with inputs generated from `seed`, or `None`
    /// for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let mut rng = Rng64::new(seed);
        Some(match name {
            "sea12" => {
                let mut shares = SEA_SHARES;
                shuffle(&mut shares, &mut rng);
                Workload::Sea12(
                    shares
                        .iter()
                        .map(|&share| (rng.below(4096) as u16, share))
                        .collect(),
                )
            }
            "edge_host" => {
                let pixels = (0..EDGE_WIDTH * EDGE_HEIGHT)
                    .map(|_| rng.below(256) as u16)
                    .collect();
                Workload::EdgeHost(Image::new(EDGE_WIDTH, EDGE_HEIGHT, pixels))
            }
            "mem_hotspot" => {
                let mut slots: Vec<u16> = (0..multinoc::MEMORY_WORDS / MEM_SLICE).collect();
                shuffle(&mut slots, &mut rng);
                Workload::MemHotspot(
                    slots[..MEM_CORES]
                        .iter()
                        .map(|&slot| MemCore {
                            offset: slot * MEM_SLICE,
                            data: (0..MEM_WORDS).map(|_| rng.below(0x1000) as u16).collect(),
                        })
                        .collect(),
                )
            }
            "noc_sat32" => Workload::NocSat32 {
                seed,
                threads: NOC_THREADS,
            },
            _ => return None,
        })
    }

    /// The same workload with the NoC kernel on `threads` workers
    /// (`noc_sat32` only; other workloads are returned unchanged).
    pub fn with_threads(&self, threads: usize) -> Workload {
        match self {
            Workload::NocSat32 { seed, .. } => Workload::NocSat32 {
                seed: *seed,
                threads,
            },
            other => other.clone(),
        }
    }

    /// The reference every timed region is checked against. For
    /// `noc_sat32` this simulates the same seed on
    /// [`reference_threads`] threads.
    pub fn expected(&self) -> Result<Results, String> {
        Ok(match self {
            Workload::Sea12(cores) => Results::Words(
                cores
                    .iter()
                    .map(|&(start, share)| vec![reference_partial(start, share)])
                    .collect(),
            ),
            Workload::EdgeHost(image) => Results::Words(
                edge::reference(image)
                    .chunks(image.width())
                    .map(<[u16]>::to_vec)
                    .collect(),
            ),
            Workload::MemHotspot(cores) => {
                Results::Words(cores.iter().map(MemCore::expected).collect())
            }
            Workload::NocSat32 { .. } => {
                let reference = self.with_threads(reference_threads());
                let mut sim = reference.setup()?;
                reference.drive(&mut sim)?;
                reference.output(&sim)
            }
        })
    }

    /// Builds the system, compiles or assembles its program, loads it and
    /// synchronises the host: everything before the timed region.
    pub fn setup(&self) -> Result<Sim, String> {
        let target = match self {
            Workload::Sea12(cores) => {
                let mut builder = System::builder()
                    .noc(NocConfig::mesh(4, 4))
                    .serial_at(RouterAddr::new(0, 0));
                for addr in mesh_routers(4)
                    .filter(|&a| a != RouterAddr::new(0, 0))
                    .take(SEA_CORES)
                {
                    builder = builder.processor_at(addr);
                }
                let mut system = builder.build().map_err(system_err)?;
                let kernel = r8c::build(&sea_source()).map_err(|e| e.to_string())?;
                for (k, &(start, share)) in cores.iter().enumerate() {
                    let node = NodeId(k as u8 + 1);
                    let memory = system.memory_mut(node).map_err(system_err)?;
                    memory.write_block(0, kernel.words());
                    memory.write(SHARE_ADDR, share);
                    memory.write(START_ADDR, start);
                }
                for k in 0..cores.len() {
                    system
                        .activate_directly(NodeId(k as u8 + 1))
                        .map_err(system_err)?;
                }
                Target::System(Box::new(system), Host::new())
            }
            Workload::EdgeHost(image) => {
                let mut system = System::paper_config().map_err(system_err)?;
                let mut host = Host::new();
                host.synchronize(&mut system).map_err(system_err)?;
                edge::load(
                    &mut system,
                    &mut host,
                    &EDGE_PROCESSORS,
                    image.width() as u16,
                )
                .map_err(system_err)?;
                Target::System(Box::new(system), host)
            }
            Workload::MemHotspot(cores) => {
                let mut builder = System::builder().noc(NocConfig::mesh(4, 4));
                for addr in mesh_routers(4).take(MEM_CORES) {
                    builder = builder.processor_at(addr);
                }
                let memory_node = NodeId(MEM_CORES as u8);
                let mut system = builder
                    .memory_at(RouterAddr::new(3, 3))
                    .build()
                    .map_err(system_err)?;
                let kernel = r8c::build(&mem_source()).map_err(|e| e.to_string())?;
                for (k, core) in cores.iter().enumerate() {
                    let node = NodeId(k as u8);
                    let window = system
                        .address_map(node)
                        .map_err(system_err)?
                        .window_base(memory_node)
                        .ok_or("no window onto the memory IP")?;
                    let memory = system.memory_mut(node).map_err(system_err)?;
                    memory.write_block(0, kernel.words());
                    memory.write_block(MEM_DATA_ADDR, &core.data);
                    memory.write(MEM_BASE_ADDR, window + core.offset);
                    memory.write(MEM_LEN_ADDR, MEM_WORDS);
                }
                for k in 0..cores.len() {
                    system
                        .activate_directly(NodeId(k as u8))
                        .map_err(system_err)?;
                }
                Target::System(Box::new(system), Host::new())
            }
            Workload::NocSat32 { seed, threads } => {
                let config = NocConfig::mesh(NOC_SIDE, NOC_SIDE)
                    .with_flit_bits(10)
                    .with_kernel_mode(KernelMode::Parallel { threads: *threads });
                let noc = Noc::new(config).map_err(|e| e.to_string())?;
                let gen = TrafficGen::new(Pattern::Uniform, NOC_INJECTION, NOC_PAYLOAD, *seed);
                Target::Noc(Box::new(noc), gen)
            }
        };
        Ok(Sim {
            target,
            edge_output: Vec::new(),
        })
    }

    /// The timed region: one call into the simulator's public API that
    /// runs the workload to completion.
    pub fn drive(&self, sim: &mut Sim) -> Result<(), String> {
        match (&mut sim.target, self) {
            (Target::System(system, host), Workload::EdgeHost(image)) => {
                let run = edge::run(system, host, &EDGE_PROCESSORS, image).map_err(system_err)?;
                sim.edge_output = run.output;
            }
            (Target::System(system, _), _) => {
                system.run_until_halted(BUDGET).map_err(system_err)?;
            }
            (Target::Noc(noc, gen), _) => {
                gen.drive_batched(noc, NOC_CYCLES, NOC_BATCH, BUDGET)
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// Reads the results of a finished timed region back.
    pub fn output(&self, sim: &Sim) -> Results {
        match (&sim.target, self) {
            (Target::System(_, _), Workload::EdgeHost(image)) => Results::Words(
                sim.edge_output
                    .chunks(image.width())
                    .map(<[u16]>::to_vec)
                    .collect(),
            ),
            (Target::System(system, _), Workload::Sea12(cores)) => Results::Words(
                (0..cores.len())
                    .map(|k| {
                        let node = NodeId(k as u8 + 1);
                        system
                            .memory(node)
                            .map(|m| vec![m.read(RESULT_ADDR)])
                            .unwrap_or_default()
                    })
                    .collect(),
            ),
            (Target::System(system, _), Workload::MemHotspot(cores)) => {
                let memory = system.memory(NodeId(MEM_CORES as u8));
                Results::Words(
                    cores
                        .iter()
                        .enumerate()
                        .map(|(k, core)| {
                            let (Ok(local), Ok(remote)) = (system.memory(NodeId(k as u8)), &memory)
                            else {
                                return Vec::new();
                            };
                            let mut words = vec![local.read(MEM_RESULT_ADDR)];
                            words.extend(remote.read_block(core.offset, MEM_WORDS));
                            words
                        })
                        .collect(),
                )
            }
            (Target::Noc(noc, _), _) => Results::Noc(fingerprint(noc)),
            (Target::System(..), Workload::NocSat32 { .. }) => Results::Words(Vec::new()),
        }
    }

    /// Nanoseconds per retired instruction of this workload's own program
    /// on a bare `Cpu` + `RamBus`, timed around `Cpu::step`; `None` for
    /// `noc_sat32`, which runs no program. Reports the median of repeated
    /// runs lasting `budget` in total.
    pub fn r8_ns_per_instr(&self, budget: std::time::Duration) -> Result<Option<f64>, String> {
        let (program, init): (r8::Program, Vec<(u16, Vec<u16>)>) = match self {
            Workload::Sea12(cores) => (
                r8c::build(&sea_source()).map_err(|e| e.to_string())?,
                vec![(SHARE_ADDR, vec![cores[0].1, cores[0].0])],
            ),
            Workload::EdgeHost(image) => (
                r8::asm::assemble(&edge::program(image.width() as u16))
                    .map_err(|e| e.to_string())?,
                vec![
                    (edge::ROW0_ADDR, image.row(0).to_vec()),
                    (edge::ROW1_ADDR, image.row(1).to_vec()),
                    (edge::ROW2_ADDR, image.row(2).to_vec()),
                ],
            ),
            Workload::MemHotspot(cores) => (
                r8c::build(&mem_source()).map_err(|e| e.to_string())?,
                vec![
                    (MEM_DATA_ADDR, cores[0].data.clone()),
                    // Any address outside local memory stands in for the
                    // remote window: on a bare RAM bus it is plain RAM.
                    (MEM_BASE_ADDR, vec![0x3000 + cores[0].offset, MEM_WORDS]),
                ],
            ),
            Workload::NocSat32 { .. } => return Ok(None),
        };
        let mut samples = Vec::new();
        let started = std::time::Instant::now();
        while samples.len() < 5 || started.elapsed() < budget {
            let mut bus = RamBus::new(1 << 16);
            bus.load(0, program.words());
            for (addr, words) in &init {
                bus.load(*addr, words);
            }
            let mut cpu = Cpu::new();
            let t = std::time::Instant::now();
            // `Cpu::run` is the `Cpu::step` loop, bounded by a cycle budget.
            cpu.run(&mut bus, BUDGET).map_err(|e| e.to_string())?;
            let nanos = t.elapsed().as_nanos() as f64;
            samples.push(nanos / cpu.retired().max(1) as f64);
        }
        Ok(Some(crate::stats::median(&mut samples)))
    }
}

/// Row-major router addresses of a `side`×`side` mesh.
fn mesh_routers(side: u8) -> impl Iterator<Item = RouterAddr> {
    (0..side).flat_map(move |y| (0..side).map(move |x| RouterAddr::new(x, y)))
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below_usize(i + 1));
    }
}
