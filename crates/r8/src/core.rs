//! The R8 processor core.
//!
//! A cycle-counting interpreter of the [`Instr`] set. Memory accesses go
//! through the [`Bus`] trait; a bus may answer [`BusResponse::Wait`] to
//! stall the processor, which is exactly how the MultiNoC Processor IP
//! control logic "puts it in wait state each time the processor executes
//! a load-store instruction" that needs the NoC (§2.4 of the paper) —
//! remote loads, printf/scanf and the wait synchronization command all
//! stall the core until the network answers.

use std::error::Error;
use std::fmt;

use crate::isa::{DecodeError, Instr};

/// Answer of a bus to a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusResponse {
    /// The access completed; for reads, carries the data (writes carry 0).
    Data(u16),
    /// The device is busy; the processor must retry next cycle (a wait
    /// state, the `waitR8` line of Fig. 5).
    Wait,
}

/// Memory system seen by the processor: 64K × 16-bit address space.
///
/// Implementations decide what lives where (the MultiNoC address map of
/// Fig. 6 is one such implementation). A `&mut B` also implements `Bus`
/// so buses can be passed by reference.
pub trait Bus {
    /// Reads the word at `addr`.
    fn read(&mut self, addr: u16) -> BusResponse;
    /// Writes `value` at `addr`.
    fn write(&mut self, addr: u16, value: u16) -> BusResponse;
}

impl<B: Bus + ?Sized> Bus for &mut B {
    fn read(&mut self, addr: u16) -> BusResponse {
        (**self).read(addr)
    }
    fn write(&mut self, addr: u16, value: u16) -> BusResponse {
        (**self).write(addr, value)
    }
}

/// Simple RAM-only bus for standalone use and tests.
#[derive(Debug, Clone)]
pub struct RamBus {
    mem: Vec<u16>,
}

impl RamBus {
    /// A RAM of `words` 16-bit words; accesses beyond it wrap.
    pub fn new(words: usize) -> Self {
        assert!(words > 0, "RAM must hold at least one word");
        Self {
            mem: vec![0; words],
        }
    }

    /// Copies `data` into memory starting at `base`.
    pub fn load(&mut self, base: u16, data: &[u16]) {
        for (i, &word) in data.iter().enumerate() {
            let addr = (usize::from(base) + i) % self.mem.len();
            self.mem[addr] = word;
        }
    }

    /// Direct read for inspection.
    pub fn peek(&self, addr: u16) -> u16 {
        self.mem[usize::from(addr) % self.mem.len()]
    }
}

impl Bus for RamBus {
    fn read(&mut self, addr: u16) -> BusResponse {
        BusResponse::Data(self.mem[usize::from(addr) % self.mem.len()])
    }
    fn write(&mut self, addr: u16, value: u16) -> BusResponse {
        let len = self.mem.len();
        self.mem[usize::from(addr) % len] = value;
        BusResponse::Data(0)
    }
}

/// The four R8 status flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Result was negative (bit 15 set).
    pub n: bool,
    /// Result was zero.
    pub z: bool,
    /// Carry / no-borrow / shifted-out bit.
    pub c: bool,
    /// Signed overflow.
    pub v: bool,
}

/// Execution state of the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CpuState {
    /// Fetching and executing instructions.
    #[default]
    Running,
    /// Stopped by `HALT`; only [`Cpu::reset`] restarts it.
    Halted,
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuError {
    /// The word fetched at `pc` is not a valid instruction.
    IllegalInstruction {
        /// Address of the bad word.
        pc: u16,
        /// The decode failure.
        source: DecodeError,
    },
    /// [`Cpu::run`] exhausted its cycle budget before `HALT`.
    CycleBudgetExhausted {
        /// The exhausted budget.
        budget: u64,
    },
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::IllegalInstruction { pc, source } => {
                write!(f, "illegal instruction at {pc:#06x}: {source}")
            }
            CpuError::CycleBudgetExhausted { budget } => {
                write!(f, "cycle budget of {budget} exhausted before HALT")
            }
        }
    }
}

impl Error for CpuError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CpuError::IllegalInstruction { source, .. } => Some(source),
            CpuError::CycleBudgetExhausted { .. } => None,
        }
    }
}

/// What one [`Cpu::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired, costing the given cycles.
    Retired {
        /// Cycles consumed, including wait states.
        cycles: u32,
    },
    /// The bus answered [`BusResponse::Wait`]; one cycle passed, the
    /// instruction will be retried.
    Stalled,
    /// The core is halted; nothing happened.
    Halted,
}

/// Why [`Cpu::run_batch`] stopped. Except at [`Limit`](Self::Limit),
/// the core stands exactly as it stood before the instruction it
/// stopped at: no register, flag, cycle or memory word changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStop {
    /// The next instruction would start at or past the cycle limit.
    Limit,
    /// The bus answered the next instruction's fetch or data access with
    /// [`BusResponse::Wait`].
    Wait,
    /// The next instruction is `HALT`, or the core is halted.
    Halt,
    /// The next word is not a valid instruction.
    Illegal(DecodeError),
}

/// What one [`Cpu::run_batch`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// Why it stopped.
    pub stop: BatchStop,
    /// The core's cycle count when the last instruction it ran started;
    /// `None` if it ran none.
    pub last_start: Option<u64>,
}

/// Pending memory operation being retried across wait states.
///
/// Public so a [`CpuImage`] can carry the in-flight microarchitectural
/// state across a checkpoint/restore boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pending {
    /// Instruction fetch at PC.
    Fetch,
    /// Data read for the decoded instruction.
    Read {
        /// Address being read.
        addr: u16,
    },
    /// Data write for the decoded instruction.
    Write {
        /// Address being written.
        addr: u16,
        /// Value being written.
        value: u16,
    },
}

/// A plain-data image of the complete core state — architectural
/// registers plus the in-flight microarchitectural state (pending memory
/// operation, decoded-instruction slot, accumulated wait-state cycles) —
/// so a core stalled mid-instruction can be checkpointed and resumed
/// bit-exactly. Produced by [`Cpu::image`], consumed by
/// [`Cpu::from_image`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuImage {
    /// The 16 general-purpose registers.
    pub regs: [u16; 16],
    /// Program counter.
    pub pc: u16,
    /// Stack pointer.
    pub sp: u16,
    /// Status flags.
    pub flags: Flags,
    /// Execution state.
    pub state: CpuState,
    /// Clock cycles consumed, each wait state once.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Memory operation awaiting a non-Wait bus answer.
    pub pending: Pending,
    /// Encoded form of the decoded-instruction slot, if occupied: the
    /// instruction parked on a wait state, else the last one retired if
    /// it had no data access.
    pub decoded: Option<u16>,
    /// Cycles accumulated for the in-flight instruction.
    pub inflight_cycles: u32,
}

/// The R8 core: 16 registers, PC, SP, flags and a cycle counter. The
/// instruction register of the hardware corresponds to the internal
/// decoded-instruction slot.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u16; 16],
    pc: u16,
    sp: u16,
    flags: Flags,
    state: CpuState,
    cycles: u64,
    retired: u64,
    /// Memory operation awaiting a non-Wait bus answer.
    pending: Pending,
    /// The decoded-instruction slot, as the instruction's word: the
    /// instruction parked on a wait state, else the last one retired if
    /// it had no data access. An instruction with a data access empties
    /// it when it retires.
    decoded: Option<u16>,
    /// Cycles accumulated for the in-flight instruction: its wait states
    /// and, once it parked, its cost.
    inflight_cycles: u32,
}

/// Base cycles of every instruction with a data access (`LD`, `ST`,
/// `PUSH`, `POP`, `RTS`, `JSRR`, `JSRD`), wait states not included.
const ACCESS_CYCLES: u32 = 4;

/// The encoding of `HALT`.
const HALT: u16 = 0x0010;

/// Why [`Cpu::execute`] committed nothing.
enum Refused {
    /// The bus answered this data access with [`BusResponse::Wait`].
    Wait(Pending),
    /// The word does not decode.
    Illegal(DecodeError),
}

impl Cpu {
    /// A core in reset state: PC = 0, SP = 0, flags clear.
    pub fn new() -> Self {
        Self {
            regs: [0; 16],
            pc: 0,
            sp: 0,
            flags: Flags::default(),
            state: CpuState::Running,
            cycles: 0,
            retired: 0,
            pending: Pending::Fetch,
            decoded: None,
            inflight_cycles: 0,
        }
    }

    /// Returns the core to reset state (registers cleared, PC = 0),
    /// keeping nothing but the cycle statistics at zero.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Register `index` (0–15).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    pub fn reg(&self, index: u8) -> u16 {
        self.regs[usize::from(index)]
    }

    /// Sets register `index` (0–15).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    pub fn set_reg(&mut self, index: u8, value: u16) {
        self.regs[usize::from(index)] = value;
    }

    /// Current program counter.
    pub fn pc(&self) -> u16 {
        self.pc
    }

    /// Sets the program counter (e.g. to an entry point).
    pub fn set_pc(&mut self, pc: u16) {
        self.pc = pc;
    }

    /// Current stack pointer.
    pub fn sp(&self) -> u16 {
        self.sp
    }

    /// Current status flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Total clock cycles consumed: every retired instruction's base
    /// cost, one more for each taken branch, and each wait state once.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cycles per instruction so far, wait states included (the paper
    /// quotes 2–4 without them).
    pub fn cpi(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.cycles as f64 / self.retired as f64
        }
    }

    /// Execution state.
    pub fn state(&self) -> CpuState {
        self.state
    }

    /// Whether the core has executed `HALT`.
    pub fn is_halted(&self) -> bool {
        self.state == CpuState::Halted
    }

    /// Executes (or retries) one instruction against `bus`.
    ///
    /// On [`BusResponse::Wait`] the core consumes one cycle and returns
    /// [`StepOutcome::Stalled`]; calling `step` again retries the same
    /// memory operation, so a bus can stall the core for as long as the
    /// network needs (the paper's `waitR8` behaviour).
    ///
    /// # Errors
    ///
    /// [`CpuError::IllegalInstruction`] if the fetched word does not
    /// decode.
    pub fn step<B: Bus>(&mut self, bus: &mut B) -> Result<StepOutcome, CpuError> {
        if self.state == CpuState::Halted {
            return Ok(StepOutcome::Halted);
        }
        let Some(word) = self.next_word(bus) else {
            return Ok(self.stall());
        };
        let parked = self.pending != Pending::Fetch;
        let spent = self.inflight_cycles;
        match self.execute(word, bus) {
            Ok(cost) => Ok(StepOutcome::Retired {
                // A parked instruction put its cost in flight as it parked.
                cycles: if parked { spent } else { spent + cost },
            }),
            Err(Refused::Wait(access)) => Ok(self.wait(word, access)),
            Err(Refused::Illegal(source)) => Err(CpuError::IllegalInstruction {
                pc: self.pc,
                source,
            }),
        }
    }

    /// Runs until `HALT`, an error, or `budget` cycles.
    ///
    /// # Errors
    ///
    /// [`CpuError::IllegalInstruction`] on a bad fetch, or
    /// [`CpuError::CycleBudgetExhausted`] if the budget runs out first
    /// (including a bus that stalls forever).
    pub fn run<B: Bus>(&mut self, bus: &mut B, budget: u64) -> Result<(), CpuError> {
        let limit = self.cycles.saturating_add(budget);
        while self.state == CpuState::Running {
            if self.cycles >= limit {
                return Err(CpuError::CycleBudgetExhausted { budget });
            }
            self.step(bus)?;
        }
        Ok(())
    }

    /// Runs whole instructions that start before `budget` more cycles
    /// have passed on the core's own count, each exactly as
    /// [`step`](Self::step) would run it, and stops *before* the first
    /// one whose fetch or data access `bus` answers with
    /// [`BusResponse::Wait`], a `HALT` or an illegal word, leaving the
    /// core as it was before that instruction. A core parked on a wait
    /// state first retries its access; it stops there if the bus waits
    /// again, without the stall cycle `step` would charge.
    ///
    /// A co-simulator whose bus refuses an access before it has any
    /// effect thus runs a core's stretch of bus-local work in one call
    /// and leaves the instruction it stopped at to its lockstep
    /// `step`.
    pub fn run_batch<B: Bus>(&mut self, bus: &mut B, budget: u64) -> Batch {
        let limit = self.cycles.saturating_add(budget);
        // A local copy of the core lets the compiler keep it in registers.
        let mut core = self.clone();
        let mut last_start = None;
        let stop = loop {
            if core.state == CpuState::Halted {
                break BatchStop::Halt;
            }
            if core.cycles >= limit {
                break BatchStop::Limit;
            }
            let start = core.cycles;
            let Some(word) = core.next_word(bus) else {
                break BatchStop::Wait;
            };
            if word == HALT {
                break BatchStop::Halt;
            }
            match core.execute(word, bus) {
                Ok(_) => last_start = Some(start),
                Err(Refused::Wait(_)) => break BatchStop::Wait,
                Err(Refused::Illegal(source)) => break BatchStop::Illegal(source),
            }
        };
        *self = core;
        Batch { stop, last_start }
    }

    /// Captures the complete core state as plain data.
    pub fn image(&self) -> CpuImage {
        CpuImage {
            regs: self.regs,
            pc: self.pc,
            sp: self.sp,
            flags: self.flags,
            state: self.state,
            cycles: self.cycles,
            retired: self.retired,
            pending: self.pending,
            decoded: self.decoded,
            inflight_cycles: self.inflight_cycles,
        }
    }

    /// Rebuilds a core from an [`image`](Self::image); stepping the
    /// result is indistinguishable from stepping the original.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the image's decoded-instruction slot holds a
    /// word that is not a valid instruction.
    pub fn from_image(image: CpuImage) -> Result<Self, DecodeError> {
        if let Some(word) = image.decoded {
            Instr::decode(word)?;
        }
        Ok(Self {
            regs: image.regs,
            pc: image.pc,
            sp: image.sp,
            flags: image.flags,
            state: image.state,
            cycles: image.cycles,
            retired: image.retired,
            pending: image.pending,
            decoded: image.decoded,
            inflight_cycles: image.inflight_cycles,
        })
    }

    /// Charges `cycles` stalled retries at once: what calling
    /// [`step`](Self::step) that many times costs while the bus keeps
    /// answering [`BusResponse::Wait`]. Lets a co-simulator jump a
    /// stretch in which the core provably only waits.
    pub fn stall_for(&mut self, cycles: u32) {
        self.cycles += u64::from(cycles);
        self.inflight_cycles = self.inflight_cycles.saturating_add(cycles);
    }

    fn stall(&mut self) -> StepOutcome {
        self.cycles += 1;
        self.inflight_cycles += 1;
        StepOutcome::Stalled
    }

    /// The word of the instruction to execute next: the parked one, or
    /// the one fetched at PC — `None` if the fetch was answered with
    /// [`BusResponse::Wait`].
    fn next_word<B: Bus>(&mut self, bus: &mut B) -> Option<u16> {
        match self.pending {
            Pending::Fetch => match bus.read(self.pc) {
                BusResponse::Data(word) => Some(word),
                BusResponse::Wait => None,
            },
            _ => Some(self.decoded.expect("a parked access has its instruction")),
        }
    }

    /// Charges a wait state to the instruction `word` whose data `access`
    /// the bus answered with [`BusResponse::Wait`], parking it first if
    /// it is fresh: PC moves past it, the access is pending, the word
    /// fills the decoded slot and its cost goes in flight.
    fn wait(&mut self, word: u16, access: Pending) -> StepOutcome {
        if self.pending == Pending::Fetch {
            self.pc = self.pc.wrapping_add(1);
            self.pending = access;
            self.decoded = Some(word);
            self.inflight_cycles += ACCESS_CYCLES;
        }
        self.stall()
    }

    /// The execute path of every instruction: runs `word` — fresh at PC,
    /// or parked, retrying the access it parked with — against `bus`,
    /// dispatching once on the major opcode, and returns its cost (base
    /// cycles plus one for a taken branch). It commits the instruction —
    /// registers, PC, SP, flags, state, cycles, retired count and the
    /// decoded slot — only once its data access, if it has one, was
    /// answered with [`BusResponse::Data`]; otherwise nothing changes.
    #[inline(always)]
    fn execute<B: Bus>(&mut self, word: u16, bus: &mut B) -> Result<u32, Refused> {
        let rt = usize::from(word >> 8 & 0xF);
        let rs1 = usize::from(word >> 4 & 0xF);
        let rs2 = usize::from(word & 0xF);
        let imm = word & 0xFF;
        let illegal = Refused::Illegal(DecodeError { word });
        // A parked instruction moved PC past itself as it parked.
        let mut pc = match self.pending {
            Pending::Fetch => self.pc.wrapping_add(1),
            _ => self.pc,
        };
        // Only an instruction with a data access empties the slot.
        let mut slot = Some(word);
        let mut cost = 2;
        match word >> 12 {
            // Group 0: the sub-op in [7:4], the source register in [3:0].
            0x0 => match word >> 4 & 0xF {
                0x0 if word == 0 => {} // NOP
                0x1 if word == HALT => self.state = CpuState::Halted,
                0x2 => self.regs[rt] = self.logic(!self.regs[rs2]), // NOT
                sub @ 0x3..=0x6 => {
                    // SL0, SL1, SR0, SR1: C takes the shifted-out bit.
                    let a = self.regs[rs2];
                    let (v, out) = match sub {
                        0x3 => (a << 1, a >> 15),
                        0x4 => (a << 1 | 1, a >> 15),
                        0x5 => (a >> 1, a & 1),
                        _ => (a >> 1 | 0x8000, a & 1),
                    };
                    self.nz(v);
                    self.flags.c = out != 0;
                    self.flags.v = false;
                    self.regs[rt] = v;
                }
                0x7 if rt == 0 => self.sp = self.regs[rs2], // LDSP
                0x8 if rt == 0 => {
                    // PUSH: store at SP, then decrement.
                    self.store(bus, self.sp, self.regs[rs2])?;
                    self.sp = self.sp.wrapping_sub(1);
                    (slot, cost) = (None, ACCESS_CYCLES);
                }
                0x9 if rs2 == 0 => {
                    // POP: increment SP, then load.
                    self.regs[rt] = self.load(bus, self.sp.wrapping_add(1))?;
                    self.sp = self.sp.wrapping_add(1);
                    (slot, cost) = (None, ACCESS_CYCLES);
                }
                0xA if word == 0x00A0 => {
                    // RTS: pop the return address.
                    pc = self.load(bus, self.sp.wrapping_add(1))?;
                    self.sp = self.sp.wrapping_add(1);
                    (slot, cost) = (None, ACCESS_CYCLES);
                }
                _ => return Err(illegal),
            },
            0x1 => self.regs[rt] = self.alu_add(self.regs[rs1], self.regs[rs2]), // ADD
            0x2 => self.regs[rt] = self.alu_sub(self.regs[rs1], self.regs[rs2]), // SUB
            0x3 => self.regs[rt] = self.logic(self.regs[rs1] & self.regs[rs2]),  // AND
            0x4 => self.regs[rt] = self.logic(self.regs[rs1] | self.regs[rs2]),  // OR
            0x5 => self.regs[rt] = self.logic(self.regs[rs1] ^ self.regs[rs2]),  // XOR
            0x6 => self.regs[rt] = self.alu_add(self.regs[rt], imm),             // ADDI
            0x7 => self.regs[rt] = self.alu_sub(self.regs[rt], imm),             // SUBI
            0x8 => self.regs[rt] = self.regs[rt] & 0xFF00 | imm,                 // LDL
            0x9 => self.regs[rt] = imm << 8 | self.regs[rt] & 0x00FF,            // LDH
            0xA => {
                let addr = self.regs[rs1].wrapping_add(self.regs[rs2]);
                self.regs[rt] = self.load(bus, addr)?; // LD
                (slot, cost) = (None, ACCESS_CYCLES);
            }
            0xB => {
                let addr = self.regs[rs1].wrapping_add(self.regs[rs2]);
                self.store(bus, addr, self.regs[rt])?; // ST
                (slot, cost) = (None, ACCESS_CYCLES);
            }
            // Jumps: the condition (5 = subroutine call) in [11:8]; the
            // target is a register in [3:0] (0xC) or PC + disp8 (0xD).
            op @ (0xC | 0xD) => {
                let target = if op == 0xD {
                    pc.wrapping_add(imm as u8 as i8 as u16)
                } else if rs1 == 0 {
                    self.regs[rs2]
                } else {
                    return Err(illegal);
                };
                let taken = match rt {
                    0 => true,
                    1 => self.flags.n,
                    2 => self.flags.z,
                    3 => self.flags.c,
                    4 => self.flags.v,
                    5 => {
                        // JSR: push the return address, then jump.
                        self.store(bus, self.sp, pc)?;
                        self.sp = self.sp.wrapping_sub(1);
                        pc = target;
                        (slot, cost) = (None, ACCESS_CYCLES);
                        false
                    }
                    _ => return Err(illegal),
                };
                if taken {
                    pc = target;
                    cost += 1; // a taken branch refills the fetch stage
                }
            }
            0xE => {
                let wide = u32::from(self.regs[rs1]) * u32::from(self.regs[rs2]);
                let v = wide as u16; // MUL
                self.nz(v);
                self.flags.c = false;
                self.flags.v = wide > 0xFFFF;
                self.regs[rt] = v;
                cost = 4;
            }
            0xF => {
                // DIV: by zero gives 0xFFFF and raises V.
                let quotient = self.regs[rs1].checked_div(self.regs[rs2]);
                let v = quotient.unwrap_or(0xFFFF);
                self.nz(v);
                self.flags.c = false;
                self.flags.v = quotient.is_none();
                self.regs[rt] = v;
                cost = 4;
            }
            _ => unreachable!("the major opcode is a nibble"),
        }
        self.pc = pc;
        self.cycles += u64::from(cost);
        self.retired += 1;
        self.inflight_cycles = 0;
        self.pending = Pending::Fetch;
        self.decoded = slot;
        Ok(cost)
    }

    /// The data read of the instruction being executed, at `addr` — or,
    /// for a parked one, at the address it parked with.
    #[inline(always)]
    fn load<B: Bus>(&self, bus: &mut B, addr: u16) -> Result<u16, Refused> {
        let addr = match self.pending {
            Pending::Read { addr } => addr,
            _ => addr,
        };
        match bus.read(addr) {
            BusResponse::Data(data) => Ok(data),
            BusResponse::Wait => Err(Refused::Wait(Pending::Read { addr })),
        }
    }

    /// The data write of the instruction being executed, of `value` at
    /// `addr` — or, for a parked one, the write it parked with.
    #[inline(always)]
    fn store<B: Bus>(&self, bus: &mut B, addr: u16, value: u16) -> Result<(), Refused> {
        let (addr, value) = match self.pending {
            Pending::Write { addr, value } => (addr, value),
            _ => (addr, value),
        };
        match bus.write(addr, value) {
            BusResponse::Data(_) => Ok(()),
            BusResponse::Wait => Err(Refused::Wait(Pending::Write { addr, value })),
        }
    }

    fn nz(&mut self, result: u16) {
        self.flags.n = result & 0x8000 != 0;
        self.flags.z = result == 0;
    }

    fn alu_add(&mut self, a: u16, b: u16) -> u16 {
        let wide = u32::from(a) + u32::from(b);
        let result = wide as u16;
        self.nz(result);
        self.flags.c = wide > 0xFFFF;
        self.flags.v = ((a ^ result) & (b ^ result) & 0x8000) != 0;
        result
    }

    fn alu_sub(&mut self, a: u16, b: u16) -> u16 {
        let result = a.wrapping_sub(b);
        self.nz(result);
        self.flags.c = a >= b; // no borrow
        self.flags.v = ((a ^ b) & (a ^ result) & 0x8000) != 0;
        result
    }

    fn logic(&mut self, result: u16) -> u16 {
        self.nz(result);
        self.flags.c = false;
        self.flags.v = false;
        result
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::isa::Cond;

    fn run_asm(src: &str) -> (Cpu, RamBus) {
        let program = assemble(src).expect("test program assembles");
        let mut bus = RamBus::new(4096);
        bus.load(0, program.words());
        let mut cpu = Cpu::new();
        cpu.run(&mut bus, 100_000).expect("program halts");
        (cpu, bus)
    }

    #[test]
    fn arithmetic_and_flags() {
        let (cpu, _) = run_asm(
            "LIW R1, 0xFFFF\n\
             LIW R2, 1\n\
             ADD R3, R1, R2\n\
             HALT",
        );
        assert_eq!(cpu.reg(3), 0);
        assert!(cpu.flags().z);
        assert!(cpu.flags().c);
        assert!(!cpu.flags().n);
        assert!(!cpu.flags().v);
    }

    #[test]
    fn signed_overflow_detection() {
        let (cpu, _) = run_asm(
            "LIW R1, 0x7FFF\n\
             LIW R2, 1\n\
             ADD R3, R1, R2\n\
             HALT",
        );
        assert_eq!(cpu.reg(3), 0x8000);
        assert!(cpu.flags().v);
        assert!(cpu.flags().n);
    }

    #[test]
    fn sub_sets_no_borrow_carry() {
        let (cpu, _) = run_asm("LIW R1, 5\nLIW R2, 7\nSUB R3, R1, R2\nHALT");
        assert_eq!(cpu.reg(3), (5u16).wrapping_sub(7));
        assert!(!cpu.flags().c, "borrow occurred");
        assert!(cpu.flags().n);
    }

    #[test]
    fn logic_ops() {
        let (cpu, _) = run_asm(
            "LIW R1, 0x0F0F\n\
             LIW R2, 0x00FF\n\
             AND R3, R1, R2\n\
             OR  R4, R1, R2\n\
             XOR R5, R1, R2\n\
             NOT R6, R1\n\
             HALT",
        );
        assert_eq!(cpu.reg(3), 0x000F);
        assert_eq!(cpu.reg(4), 0x0FFF);
        assert_eq!(cpu.reg(5), 0x0FF0);
        assert_eq!(cpu.reg(6), 0xF0F0);
    }

    #[test]
    fn shifts() {
        let (cpu, _) = run_asm(
            "LIW R1, 0x8001\n\
             SL0 R2, R1\n\
             SL1 R3, R1\n\
             SR0 R4, R1\n\
             SR1 R5, R1\n\
             HALT",
        );
        assert_eq!(cpu.reg(2), 0x0002);
        assert_eq!(cpu.reg(3), 0x0003);
        assert_eq!(cpu.reg(4), 0x4000);
        assert_eq!(cpu.reg(5), 0xC000);
        // Last shift was SR1 on 0x8001: shifted-out bit = 1.
        assert!(cpu.flags().c);
    }

    #[test]
    fn memory_load_store() {
        let (cpu, bus) = run_asm(
            "LIW R1, 0x100\n\
             XOR R0, R0, R0\n\
             LIW R2, 1234\n\
             ST  R2, R1, R0\n\
             LD  R3, R1, R0\n\
             HALT",
        );
        assert_eq!(bus.peek(0x100), 1234);
        assert_eq!(cpu.reg(3), 1234);
    }

    #[test]
    fn loop_with_conditional_branch() {
        // Sum 1..=10 with a countdown loop.
        let (cpu, _) = run_asm(
            "        LIW  R1, 10       ; counter\n\
                     XOR  R2, R2, R2   ; sum\n\
             loop:   ADD  R2, R2, R1\n\
                     SUBI R1, 1\n\
                     JMPZD done\n\
                     JMPD loop\n\
             done:   HALT",
        );
        assert_eq!(cpu.reg(2), 55);
    }

    #[test]
    fn stack_push_pop() {
        let (cpu, _) = run_asm(
            "LIW  R15, 0x3FF\n\
             LDSP R15\n\
             LIW  R1, 111\n\
             LIW  R2, 222\n\
             PUSH R1\n\
             PUSH R2\n\
             POP  R3\n\
             POP  R4\n\
             HALT",
        );
        assert_eq!(cpu.reg(3), 222);
        assert_eq!(cpu.reg(4), 111);
        assert_eq!(cpu.sp(), 0x3FF);
    }

    #[test]
    fn subroutine_call_and_return() {
        let (cpu, _) = run_asm(
            "        LIW  R15, 0x3FF\n\
                     LDSP R15\n\
                     JSRD sub\n\
                     HALT\n\
             sub:    LIW  R5, 77\n\
                     RTS",
        );
        assert_eq!(cpu.reg(5), 77);
        assert!(cpu.is_halted());
        assert_eq!(cpu.sp(), 0x3FF);
    }

    #[test]
    fn register_indirect_call() {
        let (cpu, _) = run_asm(
            "        LIW  R15, 0x3FF\n\
                     LDSP R15\n\
                     LIW  R1, sub\n\
                     JSRR R1\n\
                     HALT\n\
             sub:    LIW  R5, 88\n\
                     RTS",
        );
        assert_eq!(cpu.reg(5), 88);
    }

    #[test]
    fn mul_div() {
        let (cpu, _) = run_asm(
            "LIW R1, 300\n\
             LIW R2, 7\n\
             MUL R3, R1, R2\n\
             DIV R4, R1, R2\n\
             HALT",
        );
        assert_eq!(cpu.reg(3), 2100);
        assert_eq!(cpu.reg(4), 42);
    }

    #[test]
    fn mul_overflow_sets_v() {
        let (cpu, _) = run_asm("LIW R1, 0x1000\nLIW R2, 0x1000\nMUL R3, R1, R2\nHALT");
        assert_eq!(cpu.reg(3), 0);
        assert!(cpu.flags().v);
    }

    #[test]
    fn div_by_zero() {
        let (cpu, _) = run_asm("LIW R1, 5\nXOR R2, R2, R2\nDIV R3, R1, R2\nHALT");
        assert_eq!(cpu.reg(3), 0xFFFF);
        assert!(cpu.flags().v);
    }

    #[test]
    fn cpi_stays_in_paper_band() {
        let (cpu, _) = run_asm(
            "        LIW  R1, 100\n\
                     XOR  R2, R2, R2\n\
                     LIW  R3, 0x200\n\
                     XOR  R0, R0, R0\n\
             loop:   ADD  R2, R2, R1\n\
                     ST   R2, R3, R0\n\
                     LD   R4, R3, R0\n\
                     SUBI R1, 1\n\
                     JMPZD done\n\
                     JMPD loop\n\
             done:   HALT",
        );
        let cpi = cpu.cpi();
        assert!(
            (2.0..=4.0).contains(&cpi),
            "CPI {cpi} outside the paper's 2..4 band"
        );
    }

    #[test]
    fn wait_states_stall_without_losing_the_instruction() {
        /// A bus that answers Wait `stalls` times before every access.
        #[derive(Debug)]
        struct SlowBus {
            ram: RamBus,
            stalls: u32,
            left: u32,
        }
        impl Bus for SlowBus {
            fn read(&mut self, addr: u16) -> BusResponse {
                if self.left > 0 {
                    self.left -= 1;
                    return BusResponse::Wait;
                }
                self.left = self.stalls;
                self.ram.read(addr)
            }
            fn write(&mut self, addr: u16, value: u16) -> BusResponse {
                if self.left > 0 {
                    self.left -= 1;
                    return BusResponse::Wait;
                }
                self.left = self.stalls;
                self.ram.write(addr, value)
            }
        }
        let program = assemble(
            "LIW R1, 0x80\nXOR R0, R0, R0\nLIW R2, 99\nST R2, R1, R0\nLD R3, R1, R0\nHALT",
        )
        .unwrap();
        let mut ram = RamBus::new(256);
        ram.load(0, program.words());
        let mut bus = SlowBus {
            ram,
            stalls: 3,
            left: 0,
        };
        let mut cpu = Cpu::new();
        cpu.run(&mut bus, 100_000).unwrap();
        assert_eq!(cpu.reg(3), 99);
        assert_eq!(bus.ram.peek(0x80), 99);
        // Wait states must have raised the effective CPI above the base.
        assert!(cpu.cpi() > 4.0);
    }

    #[test]
    fn wait_states_are_counted_once() {
        /// A bus that answers Wait `left` times to the first access of
        /// `addr`.
        #[derive(Debug)]
        struct WaitAt {
            ram: RamBus,
            addr: u16,
            left: u32,
        }
        impl Bus for WaitAt {
            fn read(&mut self, addr: u16) -> BusResponse {
                if addr == self.addr && self.left > 0 {
                    self.left -= 1;
                    return BusResponse::Wait;
                }
                self.ram.read(addr)
            }
            fn write(&mut self, addr: u16, value: u16) -> BusResponse {
                self.ram.write(addr, value)
            }
        }
        let program = assemble("LIW R2, 0x100\nLD R1, R2, R0\nHALT").unwrap();
        let mut ram = RamBus::new(512);
        ram.load(0, program.words());
        let mut bus = WaitAt {
            ram,
            addr: 0x100,
            left: 3,
        };
        let mut cpu = Cpu::new();
        let mut retired = Vec::new();
        while !cpu.is_halted() {
            if let StepOutcome::Retired { cycles } = cpu.step(&mut bus).unwrap() {
                retired.push(cycles);
            }
        }
        // LDL, LDH and HALT take 2 cycles, LD 4 plus its 3 wait states.
        assert_eq!(retired, [2, 2, 7, 2]);
        assert_eq!(cpu.cycles(), 13);
        assert_eq!(cpu.retired(), 4);
    }

    #[test]
    fn step_runs_exactly_the_decodable_words_at_their_base_cost() {
        let mut bus = RamBus::new(16);
        for word in 0..=u16::MAX {
            bus.load(0, &[word]);
            let mut cpu = Cpu::new();
            match (Instr::decode(word), cpu.step(&mut bus)) {
                (Ok(instr), Ok(StepOutcome::Retired { cycles })) => {
                    // All flags are clear: only the unconditional jumps
                    // are taken.
                    let taken = matches!(
                        instr,
                        Instr::JmpR {
                            cond: Cond::Always,
                            ..
                        } | Instr::JmpD {
                            cond: Cond::Always,
                            ..
                        }
                    );
                    let cost = instr.base_cycles() + u32::from(taken);
                    assert_eq!(cycles, cost, "{instr}");
                    assert_eq!(cpu.cycles(), u64::from(cost), "{instr}");
                    assert_eq!(cpu.is_halted(), instr == Instr::Halt, "{instr}");
                }
                (Err(expected), Err(CpuError::IllegalInstruction { pc: 0, source })) => {
                    assert_eq!(source, expected);
                    assert_eq!(cpu.image(), Cpu::new().image(), "{word:#06x}");
                }
                (decoded, stepped) => {
                    panic!("{word:#06x}: decode gives {decoded:?}, step gives {stepped:?}")
                }
            }
        }
    }

    #[test]
    fn halt_is_sticky() {
        let (mut cpu, mut bus) = run_asm("HALT");
        assert_eq!(cpu.step(&mut bus).unwrap(), StepOutcome::Halted);
        assert!(cpu.is_halted());
    }

    #[test]
    fn illegal_instruction_reports_pc() {
        let mut bus = RamBus::new(16);
        bus.load(0, &[0x00B0]); // invalid group-0 sub-op
        let mut cpu = Cpu::new();
        match cpu.step(&mut bus) {
            Err(CpuError::IllegalInstruction { pc, .. }) => assert_eq!(pc, 0),
            other => panic!("expected illegal instruction, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_on_infinite_loop() {
        let program = assemble("loop: JMPD loop").unwrap();
        let mut bus = RamBus::new(16);
        bus.load(0, program.words());
        let mut cpu = Cpu::new();
        assert!(matches!(
            cpu.run(&mut bus, 1000),
            Err(CpuError::CycleBudgetExhausted { .. })
        ));
    }

    #[test]
    fn reset_restores_initial_state() {
        let (mut cpu, _) = run_asm("LIW R1, 42\nHALT");
        assert!(cpu.is_halted());
        cpu.reset();
        assert_eq!(cpu.state(), CpuState::Running);
        assert_eq!(cpu.pc(), 0);
        assert_eq!(cpu.reg(1), 0);
        assert_eq!(cpu.cycles(), 0);
    }

    #[test]
    fn image_round_trips_a_core_stalled_mid_instruction() {
        /// A bus that stalls every data access once, so the core can be
        /// caught between decode and retire.
        #[derive(Debug)]
        struct OneStallBus {
            ram: RamBus,
            armed: bool,
        }
        impl Bus for OneStallBus {
            fn read(&mut self, addr: u16) -> BusResponse {
                if self.armed && addr >= 0x80 {
                    self.armed = false;
                    return BusResponse::Wait;
                }
                self.ram.read(addr)
            }
            fn write(&mut self, addr: u16, value: u16) -> BusResponse {
                self.ram.write(addr, value)
            }
        }
        let program =
            assemble("LIW R1, 0x80\nXOR R0, R0, R0\nLD R3, R1, R0\nADDI R3, 5\nHALT").unwrap();
        let mut ram = RamBus::new(256);
        ram.load(0, program.words());
        ram.load(0x80, &[37]);
        let mut bus = OneStallBus { ram, armed: true };
        let mut cpu = Cpu::new();
        // Step until the load stalls: the core now has a decoded
        // instruction and a pending data read in flight.
        while cpu.step(&mut bus).unwrap() != StepOutcome::Stalled {}
        let image = cpu.image();
        assert!(matches!(image.pending, Pending::Read { addr: 0x80 }));
        assert!(image.decoded.is_some());
        let mut restored = Cpu::from_image(image).expect("image decodes");
        cpu.run(&mut bus, 1_000).unwrap();
        let mut bus2 = OneStallBus {
            ram: bus.ram.clone(),
            armed: false,
        };
        restored.run(&mut bus2, 1_000).unwrap();
        assert_eq!(restored.image(), cpu.image());
        assert_eq!(restored.reg(3), 42);
    }

    #[test]
    fn conditional_jump_not_taken_costs_less() {
        let program = assemble("XOR R1, R1, R1\nADDI R1, 1\nJMPZD 0\nHALT").unwrap();
        let mut bus = RamBus::new(16);
        bus.load(0, program.words());
        let mut cpu = Cpu::new();
        // XOR sets Z; ADDI clears it; JMPZD not taken.
        cpu.run(&mut bus, 1000).unwrap();
        assert!(cpu.is_halted());
        assert_eq!(cpu.pc(), 4);
    }
}
