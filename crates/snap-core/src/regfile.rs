//! The register file.
//!
//! Fifteen physical 16-bit registers (`r0`–`r14`) plus the carry flag
//! used by `addc`/`subc` for multi-precision arithmetic (paper §3.4).
//! `r15` is *not* stored here — it is the message-coprocessor port and
//! is handled by the core's operand routing.

use snap_isa::{Reg, Word, NUM_PHYSICAL_REGS};
use snap_snapshot::{Decode, Encode, Reader, SnapshotError, Writer};

/// The fifteen-entry register file and carry flag.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegFile {
    regs: [Word; NUM_PHYSICAL_REGS],
    carry: bool,
}

impl RegFile {
    /// A zeroed register file.
    pub fn new() -> RegFile {
        RegFile::default()
    }

    /// Read a physical register.
    ///
    /// # Panics
    ///
    /// Panics on `r15`; the core must route message-port reads to the
    /// message coprocessor before touching the register file.
    #[inline]
    pub fn read(&self, reg: Reg) -> Word {
        assert!(
            !reg.is_msg_port(),
            "r15 reads go to the message coprocessor"
        );
        self.regs[reg.index() as usize]
    }

    /// Write a physical register.
    ///
    /// # Panics
    ///
    /// Panics on `r15` (see [`RegFile::read`]).
    #[inline]
    pub fn write(&mut self, reg: Reg, value: Word) {
        assert!(
            !reg.is_msg_port(),
            "r15 writes go to the message coprocessor"
        );
        self.regs[reg.index() as usize] = value;
    }

    /// The carry flag.
    #[inline]
    pub fn carry(&self) -> bool {
        self.carry
    }

    /// Set the carry flag.
    #[inline]
    pub fn set_carry(&mut self, carry: bool) {
        self.carry = carry;
    }

    /// Zero all registers and clear carry.
    pub fn clear(&mut self) {
        self.regs.fill(0);
        self.carry = false;
    }
}

impl Encode for RegFile {
    fn encode(&self, w: &mut Writer) {
        w.array_u16(&self.regs);
        w.bool(self.carry);
    }
}

impl Decode for RegFile {
    fn decode(r: &mut Reader) -> Result<RegFile, SnapshotError> {
        Ok(RegFile {
            regs: r.array_u16()?,
            carry: r.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write() {
        let mut rf = RegFile::new();
        rf.write(Reg::R0, 1);
        rf.write(Reg::R14, 0xffff);
        assert_eq!(rf.read(Reg::R0), 1);
        assert_eq!(rf.read(Reg::R14), 0xffff);
        assert_eq!(rf.read(Reg::R7), 0);
    }

    #[test]
    fn carry_flag() {
        let mut rf = RegFile::new();
        assert!(!rf.carry());
        rf.set_carry(true);
        assert!(rf.carry());
        rf.clear();
        assert!(!rf.carry());
        assert_eq!(rf.read(Reg::R14), 0);
    }

    #[test]
    #[should_panic(expected = "message coprocessor")]
    fn r15_read_panics() {
        let rf = RegFile::new();
        let _ = rf.read(Reg::R15);
    }

    #[test]
    #[should_panic(expected = "message coprocessor")]
    fn r15_write_panics() {
        let mut rf = RegFile::new();
        rf.write(Reg::R15, 0);
    }
}
