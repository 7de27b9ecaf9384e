//! The clocked AVR-subset core with interrupts, sleep and peripherals.
//!
//! Everything the §4.6 comparison needs from a MICA mote's ATmega128L:
//! a 4 MHz core whose event-driven behaviour must be built from
//! interrupts + software: interrupt entry costs cycles (about 7 — the
//! 4-cycle response plus the vector jump), ISRs must save and restore
//! registers, a software scheduler dispatches tasks, and peripherals
//! (compare timer, ADC, SPI byte interface, LED port) signal
//! completion by interrupt.

use crate::isa::{AvrBranch, AvrInstr, Ptr};

/// SRAM size in bytes (the ATmega128L has 4 KB internal SRAM).
pub const SRAM_BYTES: usize = 4096;

/// Interrupt-entry cost in cycles: 4-cycle response plus the 3-cycle
/// jump in the vector slot.
pub const IRQ_ENTRY_CYCLES: u64 = 7;

/// I/O register addresses used by the simulated peripherals.
pub mod io {
    /// LED port.
    pub const PORTB: u8 = 0x05;
    /// Timer control: bit 0 enables the compare-match timer.
    pub const TCCR: u8 = 0x10;
    /// Timer compare value, low byte (period = OCR × 64 cycles).
    pub const OCRL: u8 = 0x11;
    /// Timer compare value, high byte.
    pub const OCRH: u8 = 0x12;
    /// ADC control: writing 1 starts a conversion.
    pub const ADCSRA: u8 = 0x15;
    /// ADC data (valid after the ADC interrupt).
    pub const ADCD: u8 = 0x16;
    /// SPI data register: writing starts a byte transfer to the radio.
    pub const SPDR: u8 = 0x18;
    /// Stack pointer low byte.
    pub const SPL: u8 = 0x3d;
    /// Stack pointer high byte.
    pub const SPH: u8 = 0x3e;
}

/// Timer prescaler: the compare period is `OCR × 64` CPU cycles.
pub const TIMER_PRESCALE: u64 = 64;

/// Default ADC conversion time in cycles (≈100 µs at 4 MHz).
pub const ADC_CONVERSION_CYCLES: u64 = 400;

/// Default SPI byte time in cycles: 8 bits at the TR1000's serial rate
/// (≈19.2 kbps) under a 4 MHz clock.
pub const SPI_BYTE_CYCLES: u64 = 1667;

/// Interrupt sources, in priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Irq {
    /// Timer compare match.
    Timer,
    /// ADC conversion complete.
    Adc,
    /// SPI byte transfer complete.
    Spi,
}

impl Irq {
    const ALL: [Irq; 3] = [Irq::Timer, Irq::Adc, Irq::Spi];

    fn index(self) -> usize {
        self as usize
    }
}

/// Execution faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AvrCoreError {
    /// PC ran into flash with no instruction.
    NoInstruction {
        /// The word address.
        at: u16,
    },
    /// An interrupt fired with no vector configured.
    NoVector {
        /// The source.
        irq: &'static str,
    },
    /// Asleep with no enabled peripheral that could ever wake the core.
    Stuck,
    /// The active-cycle budget was exhausted before `break`.
    CycleLimit {
        /// The exhausted budget.
        limit: u64,
    },
}

impl std::fmt::Display for AvrCoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AvrCoreError::NoInstruction { at } => write!(f, "no instruction at {at:#06x}"),
            AvrCoreError::NoVector { irq } => write!(f, "unconfigured interrupt vector for {irq}"),
            AvrCoreError::Stuck => write!(f, "asleep forever: no peripheral can wake the core"),
            AvrCoreError::CycleLimit { limit } => write!(f, "exceeded {limit} active cycles"),
        }
    }
}

impl std::error::Error for AvrCoreError {}

#[derive(Debug, Clone, Default)]
pub(crate) struct Timer {
    pub(crate) enabled: bool,
    pub(crate) ocr: u16,
    pub(crate) next_fire: u64,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct Adc {
    pub(crate) done_at: Option<u64>,
    pub(crate) value: u8,
    pub(crate) reading: u8,
}

#[derive(Debug, Clone)]
pub(crate) struct Spi {
    pub(crate) done_at: Option<u64>,
    pub(crate) byte_cycles: u64,
    pub(crate) sent: Vec<u8>,
    /// Wall cycle at which each sent byte was written (parallel to
    /// `sent`): the network adapter turns byte writes into radio words
    /// at their exact write instants.
    pub(crate) sent_at: Vec<u64>,
    /// Last byte delivered by [`AvrCore::post_spi_rx`], readable at
    /// [`io::SPDR`].
    pub(crate) rx: u8,
}

/// Observable peripheral outputs.
#[derive(Debug, Clone, Default)]
pub struct IoPorts {
    /// `(wall cycle, value)` history of PORTB writes.
    pub portb_history: Vec<(u64, u8)>,
}

impl IoPorts {
    /// Current PORTB value.
    pub fn portb(&self) -> u8 {
        self.portb_history.last().map(|&(_, v)| v).unwrap_or(0)
    }
}

/// The AVR-subset core.
#[derive(Debug, Clone)]
pub struct AvrCore {
    pub(crate) regs: [u8; 32],
    pub(crate) sram: Box<[u8; SRAM_BYTES]>,
    pub(crate) flash: Vec<Option<AvrInstr>>,
    pub(crate) pc: u16,
    pub(crate) sp: u16,
    pub(crate) flag_c: bool,
    pub(crate) flag_z: bool,
    pub(crate) flag_n: bool,
    pub(crate) flag_v: bool,
    pub(crate) flag_i: bool,
    pub(crate) sleeping: bool,
    pub(crate) halted: bool,
    pub(crate) wall_cycles: u64,
    pub(crate) active_cycles: u64,
    pub(crate) vectors: [Option<u16>; 3],
    pub(crate) pending: [bool; 3],
    pub(crate) timer: Timer,
    pub(crate) adc: Adc,
    pub(crate) spi: Spi,
    pub(crate) ports: IoPorts,
    pub(crate) irqs_taken: u64,
}

impl AvrCore {
    /// A core with the given flash image (from [`crate::asm::assemble_avr`]).
    pub fn new(flash: Vec<Option<AvrInstr>>) -> AvrCore {
        AvrCore {
            regs: [0; 32],
            sram: Box::new([0; SRAM_BYTES]),
            flash,
            pc: 0,
            sp: (SRAM_BYTES - 1) as u16,
            flag_c: false,
            flag_z: false,
            flag_n: false,
            flag_v: false,
            flag_i: false,
            sleeping: false,
            halted: false,
            wall_cycles: 0,
            active_cycles: 0,
            vectors: [None; 3],
            pending: [false; 3],
            timer: Timer::default(),
            adc: Adc::default(),
            spi: Spi {
                done_at: None,
                byte_cycles: SPI_BYTE_CYCLES,
                sent: Vec::new(),
                sent_at: Vec::new(),
                rx: 0,
            },
            ports: IoPorts::default(),
            irqs_taken: 0,
        }
    }

    /// Configure an interrupt vector (handler word address).
    pub fn set_vector(&mut self, irq: Irq, addr: u16) {
        self.vectors[irq.index()] = Some(addr);
    }

    /// Set the value the next ADC conversion will return.
    pub fn set_adc_reading(&mut self, value: u8) {
        self.adc.reading = value;
    }

    /// Bytes shifted out over SPI so far.
    pub fn spi_sent(&self) -> &[u8] {
        &self.spi.sent
    }

    /// Wall cycle at which each SPI byte write happened (parallel to
    /// [`AvrCore::spi_sent`]).
    pub fn spi_sent_cycles(&self) -> &[u64] {
        &self.spi.sent_at
    }

    /// Deliver a byte *into* the SPI interface (a radio word arriving
    /// at the mote): the byte becomes readable at [`io::SPDR`] and the
    /// SPI interrupt is raised — the same completion interrupt a real
    /// transceiver strobes when a received byte has shifted in.
    pub fn post_spi_rx(&mut self, byte: u8) {
        self.spi.rx = byte;
        self.pending[Irq::Spi.index()] = true;
    }

    /// Is the core in its sleep state?
    pub fn sleeping(&self) -> bool {
        self.sleeping
    }

    /// Is any interrupt pending?
    pub fn irq_pending(&self) -> bool {
        self.pending.iter().any(|&p| p)
    }

    /// Wall cycle of the next peripheral event (timer fire, ADC or SPI
    /// completion), if any peripheral is armed.
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.next_peripheral_event()
    }

    /// Peripheral output ports.
    pub fn ports(&self) -> &IoPorts {
        &self.ports
    }

    /// Current program counter (word address).
    pub fn pc(&self) -> u16 {
        self.pc
    }

    /// Wall-clock cycles elapsed (including sleep).
    pub fn wall_cycles(&self) -> u64 {
        self.wall_cycles
    }

    /// Cycles the core was actively executing (the §4.6 metric).
    pub fn active_cycles(&self) -> u64 {
        self.active_cycles
    }

    /// Interrupts taken so far.
    pub fn irqs_taken(&self) -> u64 {
        self.irqs_taken
    }

    /// `true` after `break`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Read a byte of SRAM (test observability).
    pub fn sram(&self, addr: u16) -> u8 {
        self.sram[addr as usize % SRAM_BYTES]
    }

    /// Write a byte of SRAM (test fixtures).
    pub fn sram_write(&mut self, addr: u16, value: u8) {
        self.sram[addr as usize % SRAM_BYTES] = value;
    }

    fn spend(&mut self, cycles: u64) {
        self.wall_cycles += cycles;
        self.active_cycles += cycles;
        self.poll_peripherals();
    }

    fn poll_peripherals(&mut self) {
        if self.timer.enabled && self.wall_cycles >= self.timer.next_fire {
            self.pending[Irq::Timer.index()] = true;
            let period = (self.timer.ocr as u64).max(1) * TIMER_PRESCALE;
            self.timer.next_fire += period;
        }
        if let Some(at) = self.adc.done_at {
            if self.wall_cycles >= at {
                self.adc.done_at = None;
                self.adc.value = self.adc.reading;
                self.pending[Irq::Adc.index()] = true;
            }
        }
        if let Some(at) = self.spi.done_at {
            if self.wall_cycles >= at {
                self.spi.done_at = None;
                self.pending[Irq::Spi.index()] = true;
            }
        }
    }

    fn next_peripheral_event(&self) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            next = Some(next.map_or(t, |n: u64| n.min(t)));
        };
        if self.timer.enabled {
            consider(self.timer.next_fire);
        }
        if let Some(t) = self.adc.done_at {
            consider(t);
        }
        if let Some(t) = self.spi.done_at {
            consider(t);
        }
        next
    }

    /// Execute until `break`, with an active-cycle budget.
    ///
    /// # Errors
    ///
    /// See [`AvrCoreError`].
    pub fn run_until_break(&mut self, max_active: u64) -> Result<(), AvrCoreError> {
        while !self.halted {
            if self.active_cycles > max_active {
                return Err(AvrCoreError::CycleLimit { limit: max_active });
            }
            self.step()?;
        }
        Ok(())
    }

    /// Execute until the wall-clock cycle counter reaches `deadline`.
    ///
    /// # Errors
    ///
    /// See [`AvrCoreError`] (a fully idle core with no enabled
    /// peripheral reports `Stuck`).
    pub fn run_until_wall(&mut self, deadline: u64) -> Result<(), AvrCoreError> {
        while !self.halted && self.wall_cycles < deadline {
            if self.sleeping && self.pending.iter().all(|&p| !p) {
                match self.next_peripheral_event() {
                    Some(at) if at <= deadline => {
                        self.wall_cycles = at;
                        self.poll_peripherals();
                    }
                    Some(_) | None => {
                        // Idle to the deadline; wall time passes, no
                        // active cycles.
                        self.wall_cycles = deadline;
                        return Ok(());
                    }
                }
                continue;
            }
            self.step()?;
        }
        Ok(())
    }

    /// Like [`AvrCore::run_until_wall`], but also returns control at
    /// every active→idle boundary: the moment the core is asleep with
    /// nothing pending, instead of idling forward internally. A node
    /// layer with its own idle-time policy (battery budgets, external
    /// event calendars) re-evaluates at each such boundary and decides
    /// itself how far to idle.
    ///
    /// # Errors
    ///
    /// See [`AvrCoreError`].
    pub fn run_active_until_wall(&mut self, deadline: u64) -> Result<(), AvrCoreError> {
        while !self.halted && self.wall_cycles < deadline {
            if self.sleeping && self.pending.iter().all(|&p| !p) {
                return Ok(());
            }
            self.step()?;
        }
        Ok(())
    }

    /// Advance the wall clock without executing anything and without
    /// firing peripheral events — terminal bookkeeping for a core whose
    /// node ceased operating mid-sleep (battery exhaustion). The clock
    /// never moves backwards.
    pub fn freeze_at_wall(&mut self, cycle: u64) {
        self.wall_cycles = self.wall_cycles.max(cycle);
    }

    /// One step: take a pending interrupt, wake from sleep, or execute
    /// the instruction at PC.
    ///
    /// # Errors
    ///
    /// See [`AvrCoreError`].
    pub fn step(&mut self) -> Result<(), AvrCoreError> {
        if self.halted {
            return Ok(());
        }
        // Interrupt dispatch (also the wake path out of sleep).
        if self.flag_i {
            if let Some(irq) = Irq::ALL.into_iter().find(|i| self.pending[i.index()]) {
                let Some(target) = self.vectors[irq.index()] else {
                    return Err(AvrCoreError::NoVector { irq: irq_name(irq) });
                };
                self.pending[irq.index()] = false;
                self.sleeping = false;
                self.flag_i = false;
                self.push16(self.pc);
                self.pc = target;
                self.irqs_taken += 1;
                self.spend(IRQ_ENTRY_CYCLES);
                return Ok(());
            }
        }
        if self.sleeping {
            // Nothing pending: advance to the next peripheral event.
            match self.next_peripheral_event() {
                Some(at) => {
                    self.wall_cycles = self.wall_cycles.max(at);
                    self.poll_peripherals();
                    Ok(())
                }
                None => Err(AvrCoreError::Stuck),
            }
        } else {
            self.exec_one()
        }
    }

    fn push8(&mut self, v: u8) {
        self.sram[self.sp as usize % SRAM_BYTES] = v;
        self.sp = self.sp.wrapping_sub(1);
    }

    fn pop8(&mut self) -> u8 {
        self.sp = self.sp.wrapping_add(1);
        self.sram[self.sp as usize % SRAM_BYTES]
    }

    fn push16(&mut self, v: u16) {
        self.push8((v & 0xff) as u8);
        self.push8((v >> 8) as u8);
    }

    fn pop16(&mut self) -> u16 {
        let hi = self.pop8() as u16;
        let lo = self.pop8() as u16;
        (hi << 8) | lo
    }

    fn ptr_read(&self, ptr: Ptr) -> u16 {
        let lo = ptr.lo_reg();
        (self.regs[lo + 1] as u16) << 8 | self.regs[lo] as u16
    }

    fn ptr_write(&mut self, ptr: Ptr, v: u16) {
        let lo = ptr.lo_reg();
        self.regs[lo] = (v & 0xff) as u8;
        self.regs[lo + 1] = (v >> 8) as u8;
    }

    fn set_zn(&mut self, r: u8) {
        self.flag_z = r == 0;
        self.flag_n = r & 0x80 != 0;
    }

    fn do_add(&mut self, a: u8, b: u8, carry_in: bool) -> u8 {
        let c = carry_in as u16;
        let sum = a as u16 + b as u16 + c;
        let r = sum as u8;
        self.flag_c = sum > 0xff;
        self.flag_v = ((a ^ r) & (b ^ r) & 0x80) != 0;
        self.set_zn(r);
        r
    }

    fn do_sub(&mut self, a: u8, b: u8, carry_in: bool, keep_z: bool) -> u8 {
        let diff = a as i16 - b as i16 - carry_in as i16;
        let r = diff as u8;
        self.flag_c = diff < 0;
        self.flag_v = ((a ^ b) & (a ^ r) & 0x80) != 0;
        let old_z = self.flag_z;
        self.set_zn(r);
        if keep_z {
            // cpc/sbc: Z only stays set if it was already set (AVR).
            self.flag_z = self.flag_z && old_z;
        }
        r
    }

    fn branch_taken(&self, cond: AvrBranch) -> bool {
        match cond {
            AvrBranch::Eq => self.flag_z,
            AvrBranch::Ne => !self.flag_z,
            AvrBranch::Cs => self.flag_c,
            AvrBranch::Cc => !self.flag_c,
            AvrBranch::Lt => self.flag_n != self.flag_v,
            AvrBranch::Ge => self.flag_n == self.flag_v,
        }
    }

    fn io_read(&mut self, io: u8) -> u8 {
        match io {
            io::PORTB => self.ports.portb(),
            io::ADCD => self.adc.value,
            io::SPDR => self.spi.rx,
            io::SPL => (self.sp & 0xff) as u8,
            io::SPH => (self.sp >> 8) as u8,
            io::OCRL => (self.timer.ocr & 0xff) as u8,
            io::OCRH => (self.timer.ocr >> 8) as u8,
            _ => 0,
        }
    }

    fn io_write(&mut self, io: u8, v: u8) {
        match io {
            io::PORTB => self.ports.portb_history.push((self.wall_cycles, v)),
            io::TCCR => {
                let enable = v & 1 != 0;
                if enable && !self.timer.enabled {
                    let period = (self.timer.ocr as u64).max(1) * TIMER_PRESCALE;
                    self.timer.next_fire = self.wall_cycles + period;
                }
                self.timer.enabled = enable;
            }
            io::OCRL => self.timer.ocr = (self.timer.ocr & 0xff00) | v as u16,
            io::OCRH => self.timer.ocr = (self.timer.ocr & 0x00ff) | ((v as u16) << 8),
            io::ADCSRA if v & 1 != 0 => {
                self.adc.done_at = Some(self.wall_cycles + ADC_CONVERSION_CYCLES);
            }
            io::SPDR => {
                self.spi.sent.push(v);
                self.spi.sent_at.push(self.wall_cycles);
                self.spi.done_at = Some(self.wall_cycles + self.spi.byte_cycles);
            }
            io::SPL => self.sp = (self.sp & 0xff00) | v as u16,
            io::SPH => self.sp = (self.sp & 0x00ff) | ((v as u16) << 8),
            _ => {}
        }
    }

    fn exec_one(&mut self) -> Result<(), AvrCoreError> {
        use AvrInstr as I;
        let at = self.pc;
        let ins = self
            .flash
            .get(at as usize)
            .copied()
            .flatten()
            .ok_or(AvrCoreError::NoInstruction { at })?;
        let mut cycles = ins.cycles();
        let mut next = at.wrapping_add(ins.words());

        match ins {
            I::Ldi { rd, k } => self.regs[rd as usize] = k,
            I::Mov { rd, rr } => self.regs[rd as usize] = self.regs[rr as usize],
            I::Add { rd, rr } => {
                self.regs[rd as usize] =
                    self.do_add(self.regs[rd as usize], self.regs[rr as usize], false)
            }
            I::Adc { rd, rr } => {
                let c = self.flag_c;
                self.regs[rd as usize] =
                    self.do_add(self.regs[rd as usize], self.regs[rr as usize], c)
            }
            I::Sub { rd, rr } => {
                self.regs[rd as usize] =
                    self.do_sub(self.regs[rd as usize], self.regs[rr as usize], false, false)
            }
            I::Sbc { rd, rr } => {
                let c = self.flag_c;
                self.regs[rd as usize] =
                    self.do_sub(self.regs[rd as usize], self.regs[rr as usize], c, true)
            }
            I::And { rd, rr } => {
                let r = self.regs[rd as usize] & self.regs[rr as usize];
                self.regs[rd as usize] = r;
                self.flag_v = false;
                self.set_zn(r);
            }
            I::Or { rd, rr } => {
                let r = self.regs[rd as usize] | self.regs[rr as usize];
                self.regs[rd as usize] = r;
                self.flag_v = false;
                self.set_zn(r);
            }
            I::Eor { rd, rr } => {
                let r = self.regs[rd as usize] ^ self.regs[rr as usize];
                self.regs[rd as usize] = r;
                self.flag_v = false;
                self.set_zn(r);
            }
            I::Subi { rd, k } => {
                self.regs[rd as usize] = self.do_sub(self.regs[rd as usize], k, false, false)
            }
            I::Sbci { rd, k } => {
                let c = self.flag_c;
                self.regs[rd as usize] = self.do_sub(self.regs[rd as usize], k, c, true)
            }
            I::Andi { rd, k } => {
                let r = self.regs[rd as usize] & k;
                self.regs[rd as usize] = r;
                self.flag_v = false;
                self.set_zn(r);
            }
            I::Ori { rd, k } => {
                let r = self.regs[rd as usize] | k;
                self.regs[rd as usize] = r;
                self.flag_v = false;
                self.set_zn(r);
            }
            I::Inc { rd } => {
                let r = self.regs[rd as usize].wrapping_add(1);
                self.regs[rd as usize] = r;
                self.flag_v = r == 0x80;
                self.set_zn(r);
            }
            I::Dec { rd } => {
                let r = self.regs[rd as usize].wrapping_sub(1);
                self.regs[rd as usize] = r;
                self.flag_v = r == 0x7f;
                self.set_zn(r);
            }
            I::Com { rd } => {
                let r = !self.regs[rd as usize];
                self.regs[rd as usize] = r;
                self.flag_c = true;
                self.flag_v = false;
                self.set_zn(r);
            }
            I::Neg { rd } => {
                let r = self.regs[rd as usize].wrapping_neg();
                self.regs[rd as usize] = r;
                self.flag_c = r != 0;
                self.flag_v = r == 0x80;
                self.set_zn(r);
            }
            I::Lsr { rd } => {
                let a = self.regs[rd as usize];
                let r = a >> 1;
                self.regs[rd as usize] = r;
                self.flag_c = a & 1 != 0;
                self.flag_n = false;
                self.flag_z = r == 0;
                self.flag_v = self.flag_c; // N ^ C with N = 0
            }
            I::Ror { rd } => {
                let a = self.regs[rd as usize];
                let r = (a >> 1) | ((self.flag_c as u8) << 7);
                self.regs[rd as usize] = r;
                self.flag_c = a & 1 != 0;
                self.set_zn(r);
                self.flag_v = self.flag_n != self.flag_c;
            }
            I::Asr { rd } => {
                let a = self.regs[rd as usize];
                let r = ((a as i8) >> 1) as u8;
                self.regs[rd as usize] = r;
                self.flag_c = a & 1 != 0;
                self.set_zn(r);
                self.flag_v = self.flag_n != self.flag_c;
            }
            I::Swap { rd } => {
                let a = self.regs[rd as usize];
                self.regs[rd as usize] = a.rotate_right(4);
            }
            I::Cp { rd, rr } => {
                self.do_sub(self.regs[rd as usize], self.regs[rr as usize], false, false);
            }
            I::Cpc { rd, rr } => {
                let c = self.flag_c;
                self.do_sub(self.regs[rd as usize], self.regs[rr as usize], c, true);
            }
            I::Cpi { rd, k } => {
                self.do_sub(self.regs[rd as usize], k, false, false);
            }
            I::Br { cond, target } => {
                if self.branch_taken(cond) {
                    next = target;
                    cycles += 1;
                }
            }
            I::Rjmp { target } => next = target,
            I::Ijmp => next = self.ptr_read(Ptr::Z),
            I::Rcall { target } => {
                self.push16(next);
                next = target;
            }
            I::Icall => {
                self.push16(next);
                next = self.ptr_read(Ptr::Z);
            }
            I::Ret => next = self.pop16(),
            I::Reti => {
                next = self.pop16();
                self.flag_i = true;
            }
            I::Lds { rd, addr } => self.regs[rd as usize] = self.sram[addr as usize % SRAM_BYTES],
            I::Sts { addr, rr } => self.sram[addr as usize % SRAM_BYTES] = self.regs[rr as usize],
            I::Ld { rd, ptr, post_inc } => {
                let a = self.ptr_read(ptr);
                self.regs[rd as usize] = self.sram[a as usize % SRAM_BYTES];
                if post_inc {
                    self.ptr_write(ptr, a.wrapping_add(1));
                }
            }
            I::St { ptr, rr, post_inc } => {
                let a = self.ptr_read(ptr);
                self.sram[a as usize % SRAM_BYTES] = self.regs[rr as usize];
                if post_inc {
                    self.ptr_write(ptr, a.wrapping_add(1));
                }
            }
            I::Push { rr } => self.push8(self.regs[rr as usize]),
            I::Pop { rd } => self.regs[rd as usize] = self.pop8(),
            I::In { rd, io } => self.regs[rd as usize] = self.io_read(io),
            I::Out { io, rr } => self.io_write(io, self.regs[rr as usize]),
            I::Adiw { pair, k } => {
                let lo = pair as usize;
                let v =
                    ((self.regs[lo + 1] as u16) << 8 | self.regs[lo] as u16).wrapping_add(k as u16);
                self.regs[lo] = (v & 0xff) as u8;
                self.regs[lo + 1] = (v >> 8) as u8;
                self.flag_z = v == 0;
            }
            I::Sbiw { pair, k } => {
                let lo = pair as usize;
                let a = (self.regs[lo + 1] as u16) << 8 | self.regs[lo] as u16;
                let v = a.wrapping_sub(k as u16);
                self.regs[lo] = (v & 0xff) as u8;
                self.regs[lo + 1] = (v >> 8) as u8;
                self.flag_z = v == 0;
                self.flag_c = (k as u16) > a;
            }
            I::Sei => self.flag_i = true,
            I::Cli => self.flag_i = false,
            I::Sleep => self.sleeping = true,
            I::Nop => {}
            I::Break => self.halted = true,
        }

        self.pc = next;
        self.spend(cycles);
        Ok(())
    }
}

fn irq_name(irq: Irq) -> &'static str {
    match irq {
        Irq::Timer => "timer",
        Irq::Adc => "adc",
        Irq::Spi => "spi",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble_avr;

    fn run(src: &str, max: u64) -> AvrCore {
        let p = assemble_avr(src).unwrap();
        let mut core = AvrCore::new(p.flash.clone());
        core.run_until_break(max).unwrap();
        core
    }

    #[test]
    fn arithmetic_and_break() {
        let core = run("ldi r16, 40\nldi r17, 2\nadd r16, r17\nbreak", 100);
        assert_eq!(core.sram(0), 0); // untouched
        assert!(core.halted());
        assert_eq!(core.active_cycles(), 3 + 1); // 3 x 1cy + break
    }

    #[test]
    fn sram_load_store_cycles() {
        let core = run("ldi r16, 7\nsts 0x100, r16\nlds r17, 0x100\nbreak", 100);
        assert_eq!(core.sram(0x100), 7);
        assert_eq!(core.active_cycles(), 1 + 2 + 2 + 1);
    }

    #[test]
    fn carry_chain_16_bit() {
        // 0x00ff + 0x0001 = 0x0100 across two bytes.
        let core = run(
            "ldi r16, 0xff\nldi r17, 0\nldi r18, 1\nldi r19, 0\nadd r16, r18\nadc r17, r19\nbreak",
            100,
        );
        // r16 = 0, r17 = 1 -> store to observe
        // (inspect via another run that stores)
        let core2 = run(
            "ldi r16, 0xff\nldi r17, 0\nldi r18, 1\nldi r19, 0\nadd r16, r18\nadc r17, r19\nsts 0x80, r16\nsts 0x81, r17\nbreak",
            100,
        );
        assert_eq!(core2.sram(0x80), 0);
        assert_eq!(core2.sram(0x81), 1);
        drop(core);
    }

    #[test]
    fn branches_and_loops() {
        // Sum 1..=5 in r20.
        let core = run(
            "ldi r20, 0\nldi r16, 5\nloop:\nadd r20, r16\ndec r16\nbrne loop\nsts 0x90, r20\nbreak",
            200,
        );
        assert_eq!(core.sram(0x90), 15);
    }

    #[test]
    fn taken_branch_costs_extra_cycle() {
        let not_taken = run("ldi r16, 1\ncpi r16, 2\nbreq skip\nskip: break", 100);
        let taken = run("ldi r16, 2\ncpi r16, 2\nbreq skip\nskip: break", 100);
        assert_eq!(taken.active_cycles(), not_taken.active_cycles() + 1);
    }

    #[test]
    fn call_ret_stack() {
        let core = run("rcall f\nsts 0xa0, r16\nbreak\nf:\nldi r16, 9\nret", 100);
        assert_eq!(core.sram(0xa0), 9);
        assert_eq!(core.active_cycles(), 3 + 1 + 4 + 2 + 1);
    }

    #[test]
    fn timer_interrupt_fires_and_counts_entry_cost() {
        let src = "
            ldi r16, 4
            out 0x11, r16      ; OCRL = 4 -> period 256 cycles
            ldi r16, 0
            out 0x12, r16
            ldi r16, 1
            out 0x10, r16      ; enable timer
            sei
        spin:
            rjmp spin
        isr:
            ldi r17, 0xaa
            sts 0xb0, r17
            break
        ";
        let p = assemble_avr(src).unwrap();
        let mut core = AvrCore::new(p.flash.clone());
        core.set_vector(Irq::Timer, p.symbol("isr").unwrap());
        core.run_until_break(5_000).unwrap();
        assert_eq!(core.sram(0xb0), 0xaa);
        assert_eq!(core.irqs_taken(), 1);
        // Fired roughly at the 256-cycle mark, not immediately.
        assert!(core.active_cycles() > 200, "{}", core.active_cycles());
    }

    #[test]
    fn sleep_wakes_on_interrupt_without_active_cycles() {
        let src = "
            ldi r16, 100
            out 0x11, r16      ; period 6400 cycles
            ldi r16, 0
            out 0x12, r16
            ldi r16, 1
            out 0x10, r16
            sei
            sleep
            nop                ; resumed here after reti
            break
        isr:
            reti
        ";
        let p = assemble_avr(src).unwrap();
        let mut core = AvrCore::new(p.flash.clone());
        core.set_vector(Irq::Timer, p.symbol("isr").unwrap());
        core.run_until_break(1_000).unwrap();
        // Wall time covers the sleep; active cycles only the handful of
        // executed instructions.
        assert!(core.wall_cycles() >= 6400, "wall {}", core.wall_cycles());
        assert!(core.active_cycles() < 50, "active {}", core.active_cycles());
    }

    #[test]
    fn adc_conversion_completes_by_interrupt() {
        let src = "
            sei
            ldi r16, 1
            out 0x15, r16      ; start conversion
            sleep
            break              ; (never reached; isr breaks)
        isr:
            in r18, 0x16
            sts 0xc0, r18
            break
        ";
        let p = assemble_avr(src).unwrap();
        let mut core = AvrCore::new(p.flash.clone());
        core.set_vector(Irq::Adc, p.symbol("isr").unwrap());
        core.set_adc_reading(123);
        core.run_until_break(10_000).unwrap();
        assert_eq!(core.sram(0xc0), 123);
        assert!(core.wall_cycles() >= ADC_CONVERSION_CYCLES);
    }

    #[test]
    fn spi_byte_interface() {
        let src = "
            sei
            ldi r16, 0x5a
            out 0x18, r16      ; shift a byte to the radio
            sleep
            break
        isr:
            break
        ";
        let p = assemble_avr(src).unwrap();
        let mut core = AvrCore::new(p.flash.clone());
        core.set_vector(Irq::Spi, p.symbol("isr").unwrap());
        core.run_until_break(10_000).unwrap();
        assert_eq!(core.spi_sent(), &[0x5a]);
        assert!(core.wall_cycles() >= SPI_BYTE_CYCLES);
    }

    #[test]
    fn cli_defers_interrupts_until_sei() {
        // The timer fires while interrupts are masked; the ISR must not
        // run until `sei`, and then exactly once.
        let src = "
            ldi r16, 2
            out 0x11, r16      ; OCRL = 2 -> period 128 cycles
            ldi r16, 0
            out 0x12, r16
            ldi r16, 1
            out 0x10, r16      ; enable timer (interrupts still masked)
            ldi r17, 0
        spin:
            inc r17
            cpi r17, 200       ; ~600 cycles: several timer periods pass
            brne spin
            lds r20, 0xb0      ; ISR must not have run yet
            sts 0xb1, r20
            sei
            nop
            nop
            break
        isr:
            lds r18, 0xb0
            inc r18
            sts 0xb0, r18
            reti
        ";
        let p = assemble_avr(src).unwrap();
        let mut core = AvrCore::new(p.flash.clone());
        core.set_vector(Irq::Timer, p.symbol("isr").unwrap());
        core.run_until_break(10_000).unwrap();
        assert_eq!(
            core.sram(0xb1),
            0,
            "masked: ISR must not have run before sei"
        );
        // Only one pending flag exists per source, so the several missed
        // periods collapse into a single delivery after sei.
        assert_eq!(core.sram(0xb0), 1);
        assert_eq!(core.irqs_taken(), 1);
    }

    #[test]
    fn stuck_sleep_is_detected() {
        let p = assemble_avr("sleep\nbreak").unwrap();
        let mut core = AvrCore::new(p.flash.clone());
        let err = core.run_until_break(100).unwrap_err();
        assert_eq!(err, AvrCoreError::Stuck);
    }

    #[test]
    fn missing_vector_is_detected() {
        let src = "
            ldi r16, 1
            out 0x11, r16
            ldi r16, 1
            out 0x10, r16
            sei
        spin:
            rjmp spin
        ";
        let p = assemble_avr(src).unwrap();
        let mut core = AvrCore::new(p.flash.clone());
        let err = core.run_until_break(10_000).unwrap_err();
        assert_eq!(err, AvrCoreError::NoVector { irq: "timer" });
    }

    #[test]
    fn pointer_post_increment() {
        let src = "
            ldi r26, 0x00      ; X = 0x0120
            ldi r27, 0x01
            ldi r26, 0x20
            ldi r16, 5
            st X+, r16
            ldi r16, 6
            st X, r16
            ldi r26, 0x20
            ld r20, X+
            ld r21, X
            sts 0xd0, r20
            sts 0xd1, r21
            break
        ";
        let core = run(src, 200);
        assert_eq!(core.sram(0xd0), 5);
        assert_eq!(core.sram(0xd1), 6);
    }

    #[test]
    fn led_port_history() {
        let core = run(
            "ldi r16, 1\nout 0x05, r16\nldi r16, 0\nout 0x05, r16\nbreak",
            100,
        );
        assert_eq!(core.ports().portb_history.len(), 2);
        assert_eq!(core.ports().portb(), 0);
    }
}
