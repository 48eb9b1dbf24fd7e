//! The batched run against per-instruction stepping: `Cpu::run_batch`
//! must leave the core and memory exactly where calling `Cpu::step` one
//! instruction at a time leaves them, once the instruction it stops
//! before — a refused access, `HALT` or an illegal word — is rolled
//! back. Whole core images are compared, decoded slot included.

use std::ops::Range;

use proptest::prelude::*;
use r8::core::{
    Batch, BatchStop, Bus, BusResponse, Cpu, CpuError, CpuImage, CpuState, Flags, Pending, RamBus,
    StepOutcome,
};

/// Memory size; every address wraps into it.
const WORDS: u16 = 64;

/// RAM that answers every access to the addresses in `refused`, fetches
/// included, with a wait state before it has any effect.
#[derive(Debug, Clone)]
struct RefusingBus {
    ram: RamBus,
    refused: Range<u16>,
}

impl RefusingBus {
    fn refuses(&self, addr: u16) -> bool {
        self.refused.contains(&(addr % WORDS))
    }

    fn words(&self) -> Vec<u16> {
        (0..WORDS).map(|addr| self.ram.peek(addr)).collect()
    }
}

impl Bus for RefusingBus {
    fn read(&mut self, addr: u16) -> BusResponse {
        if self.refuses(addr) {
            BusResponse::Wait
        } else {
            self.ram.read(addr)
        }
    }

    fn write(&mut self, addr: u16, value: u16) -> BusResponse {
        if self.refuses(addr) {
            BusResponse::Wait
        } else {
            self.ram.write(addr, value)
        }
    }
}

/// What the batched run must do, by stepping: every instruction that
/// starts below the limit, rolling back (core and memory) the first one
/// that stalls, halts or faults.
fn stepped(cpu: &mut Cpu, bus: &mut RefusingBus, budget: u64) -> Batch {
    let limit = cpu.cycles().saturating_add(budget);
    let mut last_start = None;
    let stop = loop {
        if cpu.is_halted() {
            break BatchStop::Halt;
        }
        if cpu.cycles() >= limit {
            break BatchStop::Limit;
        }
        let (before, saved) = (cpu.clone(), bus.clone());
        let start = cpu.cycles();
        let stop = match cpu.step(bus) {
            Ok(StepOutcome::Retired { .. }) if cpu.is_halted() => BatchStop::Halt,
            Ok(StepOutcome::Retired { .. }) => {
                last_start = Some(start);
                continue;
            }
            Ok(StepOutcome::Stalled) => BatchStop::Wait,
            Ok(StepOutcome::Halted) => unreachable!("checked above"),
            Err(CpuError::IllegalInstruction { source, .. }) => BatchStop::Illegal(source),
            Err(e) => panic!("step failed: {e}"),
        };
        *cpu = before;
        *bus = saved;
        break stop;
    };
    Batch { stop, last_start }
}

/// A memory word over all sixteen major opcodes. Valid encodings of
/// group 0 and the jumps are mixed in more often than chance would give
/// them, so many runs reach their limit; illegal words (a few percent of
/// all) and `HALT` still stop many.
fn word() -> impl Strategy<Value = u16> {
    /// The major opcodes every word of which is valid.
    const TOTAL: [u16; 13] = [
        0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, 0x8, 0x9, 0xA, 0xB, 0xE, 0xF,
    ];
    (any::<u16>(), 0u16..16, 0u8..32).prop_map(|(w, n, kind)| match kind {
        0 => 0x0010,                                   // HALT
        1..=3 => w,                                    // anything at all
        4 | 5 => w & 0x00FF,                           // group 0 with rt = R0
        6 => w & 0x0F00 | 0x0090,                      // POP
        7 => 0x00A0,                                   // RTS
        8 | 9 => 0xC000 | (n % 6) << 8 | w & 0x000F,   // JMPxR, JSRR
        10..=13 => 0xD000 | (n % 6) << 8 | w & 0x00FF, // JMPxD, JSRD
        _ => TOTAL[usize::from(n % 13)] << 12 | w & 0x0FFF,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50_000))]

    /// From a random core state — after up to three lockstep steps, so
    /// parked, stalled and halted cores are covered too — the batched run
    /// and rolled-back stepping agree on the stop, the last start cycle,
    /// the core image and memory.
    #[test]
    fn batched_run_matches_stepping_with_rollback(
        memory in proptest::collection::vec(word(), WORDS as usize),
        regs in proptest::collection::vec(any::<u16>(), 16),
        pc in any::<u16>(),
        sp in any::<u16>(),
        flags in 0u8..16,
        cycles in 0u64..1_000,
        refused in (0..WORDS, 0u16..8),
        warmup in 0u8..4,
        budget in 0u64..300,
    ) {
        let mut ram = RamBus::new(usize::from(WORDS));
        ram.load(0, &memory);
        let (lo, len) = refused;
        let mut bus = RefusingBus { ram, refused: lo..WORDS.min(lo + len) };
        let mut cpu = Cpu::from_image(CpuImage {
            regs: regs.try_into().expect("16 registers"),
            pc,
            sp,
            flags: Flags {
                n: flags & 1 != 0,
                z: flags & 2 != 0,
                c: flags & 4 != 0,
                v: flags & 8 != 0,
            },
            state: CpuState::Running,
            cycles,
            retired: 0,
            pending: Pending::Fetch,
            decoded: None,
            inflight_cycles: 0,
        })
        .expect("an empty decoded slot");
        for _ in 0..warmup {
            if cpu.step(&mut bus).is_err() {
                break;
            }
        }
        let (mut expected_cpu, mut expected_bus) = (cpu.clone(), bus.clone());
        let expected = stepped(&mut expected_cpu, &mut expected_bus, budget);
        let batch = cpu.run_batch(&mut bus, budget);
        prop_assert_eq!(batch, expected);
        prop_assert_eq!(cpu.image(), expected_cpu.image());
        prop_assert_eq!(bus.words(), expected_bus.words());
    }
}
