//! Byte-exact export/restore of an [`AvrCore`].
//!
//! `snap-snapshot` checkpoints heterogeneous fleets; AVR nodes carry
//! their core state as an *opaque blob* inside the fleet snapshot so
//! the snapshot crate never learns the AVR ISA. This module defines
//! that blob: a fail-closed, little-endian byte format covering every
//! field that influences execution — registers, SRAM, flash (the
//! decoded program, re-encoded instruction by instruction), flags,
//! peripherals, and the cycle counters. The blob has no magic or
//! version of its own: it only travels inside a snapshot, whose header
//! versions every byte of the payload.
//!
//! Restoring a blob and continuing is bit-identical to never having
//! snapshotted: the golden-file and snapshot-equivalence suites in
//! `snap-net` prove this end-to-end for mixed fleets.

use crate::core::{AvrCore, IoPorts, SPI_BYTE_CYCLES, SRAM_BYTES};
use crate::isa::{AvrBranch, AvrInstr, Ptr};

/// Decode failure: the blob is truncated or encodes a state the core
/// cannot represent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvrStateError(pub &'static str);

impl std::fmt::Display for AvrStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "avr state blob: {}", self.0)
    }
}

impl std::error::Error for AvrStateError {}

struct W(Vec<u8>);

impl W {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn flag(&mut self, v: bool) {
        self.0.push(v as u8);
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn opt_u16(&mut self, v: Option<u16>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u16(x);
            }
        }
    }
    fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

struct R<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], AvrStateError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(AvrStateError("truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, AvrStateError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, AvrStateError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, AvrStateError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, AvrStateError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn flag(&mut self) -> Result<bool, AvrStateError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(AvrStateError("flag byte out of range")),
        }
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, AvrStateError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(AvrStateError("option tag out of range")),
        }
    }
    fn opt_u16(&mut self) -> Result<Option<u16>, AvrStateError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u16()?)),
            _ => Err(AvrStateError("option tag out of range")),
        }
    }
    fn len(&mut self) -> Result<usize, AvrStateError> {
        let n = self.u32()? as usize;
        // A length prefix can never promise more data than remains.
        if n > self.bytes.len().saturating_sub(self.pos) {
            return Err(AvrStateError("length prefix exceeds blob"));
        }
        Ok(n)
    }
}

fn branch_code(b: AvrBranch) -> u8 {
    match b {
        AvrBranch::Eq => 0,
        AvrBranch::Ne => 1,
        AvrBranch::Cs => 2,
        AvrBranch::Cc => 3,
        AvrBranch::Lt => 4,
        AvrBranch::Ge => 5,
    }
}

fn branch_from(code: u8) -> Result<AvrBranch, AvrStateError> {
    Ok(match code {
        0 => AvrBranch::Eq,
        1 => AvrBranch::Ne,
        2 => AvrBranch::Cs,
        3 => AvrBranch::Cc,
        4 => AvrBranch::Lt,
        5 => AvrBranch::Ge,
        _ => return Err(AvrStateError("branch condition out of range")),
    })
}

fn ptr_code(p: Ptr) -> u8 {
    match p {
        Ptr::X => 0,
        Ptr::Y => 1,
        Ptr::Z => 2,
    }
}

fn ptr_from(code: u8) -> Result<Ptr, AvrStateError> {
    Ok(match code {
        0 => Ptr::X,
        1 => Ptr::Y,
        2 => Ptr::Z,
        _ => return Err(AvrStateError("pointer register out of range")),
    })
}

fn reg(v: u8) -> Result<u8, AvrStateError> {
    if v < 32 {
        Ok(v)
    } else {
        Err(AvrStateError("register index out of range"))
    }
}

fn pair(v: u8) -> Result<u8, AvrStateError> {
    if matches!(v, 24 | 26 | 28 | 30) {
        Ok(v)
    } else {
        Err(AvrStateError("adiw/sbiw pair out of range"))
    }
}

/// Every flash slot is `tag` then `(a: u8, b: u8, c: u16)` operands;
/// tag 0 marks an empty slot (the second word of a two-word
/// instruction) and carries no operands.
fn encode_instr(w: &mut W, i: AvrInstr) {
    use AvrInstr as I;
    let (tag, a, b, c): (u8, u8, u8, u16) = match i {
        I::Ldi { rd, k } => (1, rd, k, 0),
        I::Mov { rd, rr } => (2, rd, rr, 0),
        I::Add { rd, rr } => (3, rd, rr, 0),
        I::Adc { rd, rr } => (4, rd, rr, 0),
        I::Sub { rd, rr } => (5, rd, rr, 0),
        I::Sbc { rd, rr } => (6, rd, rr, 0),
        I::And { rd, rr } => (7, rd, rr, 0),
        I::Or { rd, rr } => (8, rd, rr, 0),
        I::Eor { rd, rr } => (9, rd, rr, 0),
        I::Subi { rd, k } => (10, rd, k, 0),
        I::Sbci { rd, k } => (11, rd, k, 0),
        I::Andi { rd, k } => (12, rd, k, 0),
        I::Ori { rd, k } => (13, rd, k, 0),
        I::Inc { rd } => (14, rd, 0, 0),
        I::Dec { rd } => (15, rd, 0, 0),
        I::Com { rd } => (16, rd, 0, 0),
        I::Neg { rd } => (17, rd, 0, 0),
        I::Lsr { rd } => (18, rd, 0, 0),
        I::Ror { rd } => (19, rd, 0, 0),
        I::Asr { rd } => (20, rd, 0, 0),
        I::Swap { rd } => (21, rd, 0, 0),
        I::Cp { rd, rr } => (22, rd, rr, 0),
        I::Cpc { rd, rr } => (23, rd, rr, 0),
        I::Cpi { rd, k } => (24, rd, k, 0),
        I::Br { cond, target } => (25, branch_code(cond), 0, target),
        I::Rjmp { target } => (26, 0, 0, target),
        I::Ijmp => (27, 0, 0, 0),
        I::Rcall { target } => (28, 0, 0, target),
        I::Icall => (29, 0, 0, 0),
        I::Ret => (30, 0, 0, 0),
        I::Reti => (31, 0, 0, 0),
        I::Lds { rd, addr } => (32, rd, 0, addr),
        I::Sts { addr, rr } => (33, rr, 0, addr),
        I::Ld { rd, ptr, post_inc } => (34, rd, ptr_code(ptr) | ((post_inc as u8) << 4), 0),
        I::St { ptr, rr, post_inc } => (35, rr, ptr_code(ptr) | ((post_inc as u8) << 4), 0),
        I::Push { rr } => (36, rr, 0, 0),
        I::Pop { rd } => (37, rd, 0, 0),
        I::In { rd, io } => (38, rd, io, 0),
        I::Out { io, rr } => (39, rr, io, 0),
        I::Adiw { pair, k } => (40, pair, k, 0),
        I::Sbiw { pair, k } => (41, pair, k, 0),
        I::Sei => (42, 0, 0, 0),
        I::Cli => (43, 0, 0, 0),
        I::Sleep => (44, 0, 0, 0),
        I::Nop => (45, 0, 0, 0),
        I::Break => (46, 0, 0, 0),
    };
    w.u8(tag);
    w.u8(a);
    w.u8(b);
    w.u16(c);
}

fn decode_instr(r: &mut R<'_>) -> Result<Option<AvrInstr>, AvrStateError> {
    use AvrInstr as I;
    let tag = r.u8()?;
    if tag == 0 {
        return Ok(None);
    }
    let a = r.u8()?;
    let b = r.u8()?;
    let c = r.u16()?;
    let ptr_post = |b: u8| -> Result<(Ptr, bool), AvrStateError> {
        let post = match b >> 4 {
            0 => false,
            1 => true,
            _ => return Err(AvrStateError("post-increment bit out of range")),
        };
        Ok((ptr_from(b & 0x0f)?, post))
    };
    Ok(Some(match tag {
        1 => I::Ldi { rd: reg(a)?, k: b },
        2 => I::Mov {
            rd: reg(a)?,
            rr: reg(b)?,
        },
        3 => I::Add {
            rd: reg(a)?,
            rr: reg(b)?,
        },
        4 => I::Adc {
            rd: reg(a)?,
            rr: reg(b)?,
        },
        5 => I::Sub {
            rd: reg(a)?,
            rr: reg(b)?,
        },
        6 => I::Sbc {
            rd: reg(a)?,
            rr: reg(b)?,
        },
        7 => I::And {
            rd: reg(a)?,
            rr: reg(b)?,
        },
        8 => I::Or {
            rd: reg(a)?,
            rr: reg(b)?,
        },
        9 => I::Eor {
            rd: reg(a)?,
            rr: reg(b)?,
        },
        10 => I::Subi { rd: reg(a)?, k: b },
        11 => I::Sbci { rd: reg(a)?, k: b },
        12 => I::Andi { rd: reg(a)?, k: b },
        13 => I::Ori { rd: reg(a)?, k: b },
        14 => I::Inc { rd: reg(a)? },
        15 => I::Dec { rd: reg(a)? },
        16 => I::Com { rd: reg(a)? },
        17 => I::Neg { rd: reg(a)? },
        18 => I::Lsr { rd: reg(a)? },
        19 => I::Ror { rd: reg(a)? },
        20 => I::Asr { rd: reg(a)? },
        21 => I::Swap { rd: reg(a)? },
        22 => I::Cp {
            rd: reg(a)?,
            rr: reg(b)?,
        },
        23 => I::Cpc {
            rd: reg(a)?,
            rr: reg(b)?,
        },
        24 => I::Cpi { rd: reg(a)?, k: b },
        25 => I::Br {
            cond: branch_from(a)?,
            target: c,
        },
        26 => I::Rjmp { target: c },
        27 => I::Ijmp,
        28 => I::Rcall { target: c },
        29 => I::Icall,
        30 => I::Ret,
        31 => I::Reti,
        32 => I::Lds {
            rd: reg(a)?,
            addr: c,
        },
        33 => I::Sts {
            addr: c,
            rr: reg(a)?,
        },
        34 => {
            let (ptr, post_inc) = ptr_post(b)?;
            I::Ld {
                rd: reg(a)?,
                ptr,
                post_inc,
            }
        }
        35 => {
            let (ptr, post_inc) = ptr_post(b)?;
            I::St {
                ptr,
                rr: reg(a)?,
                post_inc,
            }
        }
        36 => I::Push { rr: reg(a)? },
        37 => I::Pop { rd: reg(a)? },
        38 => I::In { rd: reg(a)?, io: b },
        39 => I::Out { io: b, rr: reg(a)? },
        40 => I::Adiw {
            pair: pair(a)?,
            k: b,
        },
        41 => I::Sbiw {
            pair: pair(a)?,
            k: b,
        },
        42 => I::Sei,
        43 => I::Cli,
        44 => I::Sleep,
        45 => I::Nop,
        46 => I::Break,
        _ => return Err(AvrStateError("instruction tag out of range")),
    }))
}

impl AvrCore {
    /// Serialize the complete core state (program included) to a blob.
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = W(Vec::with_capacity(SRAM_BYTES + self.flash.len() * 5 + 256));
        w.0.extend_from_slice(&self.regs);
        w.0.extend_from_slice(&self.sram[..]);
        w.u16(self.pc);
        w.u16(self.sp);
        w.flag(self.flag_c);
        w.flag(self.flag_z);
        w.flag(self.flag_n);
        w.flag(self.flag_v);
        w.flag(self.flag_i);
        w.flag(self.sleeping);
        w.flag(self.halted);
        w.u64(self.wall_cycles);
        w.u64(self.active_cycles);
        w.u64(self.irqs_taken);
        for v in self.vectors {
            w.opt_u16(v);
        }
        for p in self.pending {
            w.flag(p);
        }
        w.flag(self.timer.enabled);
        w.u16(self.timer.ocr);
        w.u64(self.timer.next_fire);
        w.opt_u64(self.adc.done_at);
        w.u8(self.adc.value);
        w.u8(self.adc.reading);
        w.opt_u64(self.spi.done_at);
        w.u64(self.spi.byte_cycles);
        w.u8(self.spi.rx);
        w.len(self.spi.sent.len());
        for (&b, &at) in self.spi.sent.iter().zip(&self.spi.sent_at) {
            w.u8(b);
            w.u64(at);
        }
        w.len(self.ports.portb_history.len());
        for &(at, v) in &self.ports.portb_history {
            w.u64(at);
            w.u8(v);
        }
        w.len(self.flash.len());
        for slot in &self.flash {
            match slot {
                None => w.u8(0),
                Some(i) => encode_instr(&mut w, *i),
            }
        }
        w.0
    }

    /// Reconstruct a core from an [`AvrCore::export_state`] blob.
    /// Fail-closed: truncation, trailing bytes or range violations are
    /// all errors.
    pub fn restore_state(bytes: &[u8]) -> Result<AvrCore, AvrStateError> {
        let mut r = R { bytes, pos: 0 };
        let mut regs = [0u8; 32];
        regs.copy_from_slice(r.take(32)?);
        let mut sram = Box::new([0u8; SRAM_BYTES]);
        sram.copy_from_slice(r.take(SRAM_BYTES)?);
        let pc = r.u16()?;
        let sp = r.u16()?;
        let flag_c = r.flag()?;
        let flag_z = r.flag()?;
        let flag_n = r.flag()?;
        let flag_v = r.flag()?;
        let flag_i = r.flag()?;
        let sleeping = r.flag()?;
        let halted = r.flag()?;
        let wall_cycles = r.u64()?;
        let active_cycles = r.u64()?;
        let irqs_taken = r.u64()?;
        let mut vectors = [None; 3];
        for v in &mut vectors {
            *v = r.opt_u16()?;
        }
        let mut pending = [false; 3];
        for p in &mut pending {
            *p = r.flag()?;
        }
        let timer = crate::core::Timer {
            enabled: r.flag()?,
            ocr: r.u16()?,
            next_fire: r.u64()?,
        };
        let adc = crate::core::Adc {
            done_at: r.opt_u64()?,
            value: r.u8()?,
            reading: r.u8()?,
        };
        let spi_done_at = r.opt_u64()?;
        let spi_byte_cycles = r.u64()?;
        // Every core shifts a byte in this time, and it is added to the clock.
        if spi_byte_cycles != SPI_BYTE_CYCLES {
            return Err(AvrStateError("spi byte time"));
        }
        let spi_rx = r.u8()?;
        let n = r.len()?;
        let mut sent = Vec::with_capacity(n);
        let mut sent_at = Vec::with_capacity(n);
        for _ in 0..n {
            sent.push(r.u8()?);
            sent_at.push(r.u64()?);
        }
        let n = r.len()?;
        let mut portb_history = Vec::with_capacity(n);
        for _ in 0..n {
            portb_history.push((r.u64()?, r.u8()?));
        }
        let n = r.len()?;
        let mut flash = Vec::with_capacity(n);
        for _ in 0..n {
            flash.push(decode_instr(&mut r)?);
        }
        if r.pos != bytes.len() {
            return Err(AvrStateError("trailing bytes"));
        }
        Ok(AvrCore {
            regs,
            sram,
            flash,
            pc,
            sp,
            flag_c,
            flag_z,
            flag_n,
            flag_v,
            flag_i,
            sleeping,
            halted,
            wall_cycles,
            active_cycles,
            vectors,
            pending,
            timer,
            adc,
            spi: crate::core::Spi {
                done_at: spi_done_at,
                byte_cycles: spi_byte_cycles,
                sent,
                sent_at,
                rx: spi_rx,
            },
            ports: IoPorts { portb_history },
            irqs_taken,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tinyos::radiostack_system;

    fn sample_core() -> AvrCore {
        let (mut core, _) = radiostack_system().unwrap();
        core.run_until_wall(400_000).unwrap();
        core.post_spi_rx(0x5a);
        core
    }

    #[test]
    fn round_trip_is_identity_and_resumes_identically() {
        let core = sample_core();
        let blob = core.export_state();
        let restored = AvrCore::restore_state(&blob).unwrap();
        assert_eq!(restored.pc(), core.pc());
        assert_eq!(restored.wall_cycles(), core.wall_cycles());
        assert_eq!(restored.spi_sent(), core.spi_sent());
        assert_eq!(restored.spi_sent_cycles(), core.spi_sent_cycles());
        // The restored core and the original evolve identically.
        let mut a = core;
        let mut b = restored;
        a.run_until_wall(900_000).unwrap();
        b.run_until_wall(900_000).unwrap();
        assert_eq!(a.export_state(), b.export_state());
    }

    #[test]
    fn truncation_and_corruption_fail_closed() {
        let core = sample_core();
        let blob = core.export_state();
        for cut in [0, 3, 10, blob.len() / 2, blob.len() - 1] {
            assert!(AvrCore::restore_state(&blob[..cut]).is_err());
        }
        let mut extra = blob.clone();
        extra.push(0);
        assert_eq!(
            AvrCore::restore_state(&extra).err(),
            Some(AvrStateError("trailing bytes"))
        );
        // The carry flag follows the registers, SRAM, PC and SP.
        let mut bad_flag = blob.clone();
        bad_flag[32 + SRAM_BYTES + 4] = 2;
        assert_eq!(
            AvrCore::restore_state(&bad_flag).err(),
            Some(AvrStateError("flag byte out of range"))
        );
        // The flash table closes the blob: a tag and four operand bytes
        // per instruction, a lone zero tag per empty slot.
        let flash_bytes: usize = core
            .flash
            .iter()
            .map(|s| 1 + 4 * s.is_some() as usize)
            .sum();
        assert!(core.flash[0].is_some());
        let mut bad_tag = blob;
        let first_tag = bad_tag.len() - flash_bytes;
        bad_tag[first_tag] = 0xee;
        assert_eq!(
            AvrCore::restore_state(&bad_tag).err(),
            Some(AvrStateError("instruction tag out of range"))
        );
    }

    #[test]
    fn every_instruction_survives_the_flash_encoding() {
        use AvrInstr as I;
        let all = vec![
            I::Ldi { rd: 16, k: 0xab },
            I::Mov { rd: 1, rr: 2 },
            I::Add { rd: 3, rr: 4 },
            I::Adc { rd: 5, rr: 6 },
            I::Sub { rd: 7, rr: 8 },
            I::Sbc { rd: 9, rr: 10 },
            I::And { rd: 11, rr: 12 },
            I::Or { rd: 13, rr: 14 },
            I::Eor { rd: 15, rr: 16 },
            I::Subi { rd: 17, k: 1 },
            I::Sbci { rd: 18, k: 2 },
            I::Andi { rd: 19, k: 3 },
            I::Ori { rd: 20, k: 4 },
            I::Inc { rd: 21 },
            I::Dec { rd: 22 },
            I::Com { rd: 23 },
            I::Neg { rd: 24 },
            I::Lsr { rd: 25 },
            I::Ror { rd: 26 },
            I::Asr { rd: 27 },
            I::Swap { rd: 28 },
            I::Cp { rd: 29, rr: 30 },
            I::Cpc { rd: 31, rr: 0 },
            I::Cpi { rd: 16, k: 9 },
            I::Br {
                cond: AvrBranch::Eq,
                target: 0x1234,
            },
            I::Br {
                cond: AvrBranch::Ge,
                target: 7,
            },
            I::Rjmp { target: 0x0fff },
            I::Ijmp,
            I::Rcall { target: 0x55 },
            I::Icall,
            I::Ret,
            I::Reti,
            I::Lds {
                rd: 2,
                addr: 0x0210,
            },
            I::Sts {
                addr: 0x0211,
                rr: 3,
            },
            I::Ld {
                rd: 4,
                ptr: Ptr::X,
                post_inc: false,
            },
            I::Ld {
                rd: 5,
                ptr: Ptr::Y,
                post_inc: true,
            },
            I::St {
                ptr: Ptr::Z,
                rr: 6,
                post_inc: true,
            },
            I::Push { rr: 7 },
            I::Pop { rd: 8 },
            I::In { rd: 9, io: 0x18 },
            I::Out { io: 0x05, rr: 10 },
            I::Adiw { pair: 24, k: 5 },
            I::Sbiw { pair: 30, k: 6 },
            I::Sei,
            I::Cli,
            I::Sleep,
            I::Nop,
            I::Break,
        ];
        let mut flash: Vec<Option<AvrInstr>> = all.iter().map(|&i| Some(i)).collect();
        flash.push(None);
        let mut core = AvrCore::new(flash.clone());
        core.sram_write(0, 0); // touch nothing; just exercise construction
        let blob = core.export_state();
        let restored = AvrCore::restore_state(&blob).unwrap();
        let blob2 = restored.export_state();
        assert_eq!(blob, blob2);
    }
}
