//! Per-address predecode cache over IMEM.
//!
//! The simulator's hottest loop is fetch → decode → cost lookup →
//! execute. Decoding and the energy/timing model evaluations are pure
//! functions of the IMEM words and the core's fixed operating point,
//! so both are done once per address and replayed on every dynamic
//! execution. SNAP/LE programs self-modify (the paper's bootloader
//! writes handlers into IMEM with `isw`), so the cache tracks IMEM
//! writes: a store to `addr` invalidates the slot at `addr` and the
//! slot at `addr - 1`, where a two-word instruction would have read
//! `addr` as its immediate word. Bulk image loads drop everything.
//!
//! Correctness contract: cached entries hold the *same* decoded
//! instruction and the *same* `f64` energy/latency values a fresh
//! decode would compute, so traces and energy totals are bit-identical
//! to an interpreter that decodes on every fetch. The reference for
//! that is snap-smith's oracle, which shares no code with this crate:
//! a property test in `tests/properties.rs` steps random
//! self-modifying programs on both.

use crate::energy_acct::InstrCosts;
use crate::fuse::{FusedSlot, MAX_TRACE_WORDS};
use snap_isa::{Addr, Instruction, MEM_WORDS};
use std::sync::Arc;

const ADDR_MASK: usize = MEM_WORDS - 1;

/// One predecoded IMEM slot: the instruction starting at that address
/// plus the accounting costs its execution charges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predecoded {
    /// The decoded instruction.
    pub ins: Instruction,
    /// Precomputed energy/latency/attribution per execution.
    pub costs: InstrCosts,
}

/// The cache: one optional [`Predecoded`] slot per IMEM word address.
///
/// Copy-on-write like the memory banks: clones share the slot array, so
/// a fleet built from a template node shares one predecoded image until
/// a node self-modifies its IMEM.
#[derive(Debug, Clone)]
pub struct DecodeCache {
    slots: Arc<[Option<Predecoded>; MEM_WORDS]>,
    /// Tier-1 fusion verdicts, one per possible trace entry address.
    /// Shares the slot array's CoW discipline so a fleet shares one
    /// fused image; invalidated alongside the decode slots (a write at
    /// `addr` clears every entry whose trace could span `addr`).
    fused: Arc<Vec<FusedSlot>>,
}

impl Default for DecodeCache {
    fn default() -> DecodeCache {
        DecodeCache::new()
    }
}

impl DecodeCache {
    /// An empty cache covering all of IMEM.
    pub fn new() -> DecodeCache {
        DecodeCache {
            slots: Arc::new([None; MEM_WORDS]),
            fused: Arc::new(vec![FusedSlot::Unknown; MEM_WORDS]),
        }
    }

    /// The cached entry whose first word is at `at`, if still valid.
    /// Addresses wrap modulo IMEM size, mirroring the banks.
    #[inline]
    pub fn get(&self, at: Addr) -> Option<&Predecoded> {
        self.slots[at as usize & ADDR_MASK].as_ref()
    }

    /// Cache the instruction whose first word is at `at`.
    #[inline]
    pub fn insert(&mut self, at: Addr, entry: Predecoded) {
        Arc::make_mut(&mut self.slots)[at as usize & ADDR_MASK] = Some(entry);
    }

    /// The fusion verdict for a trace entered at `at`.
    #[inline]
    pub(crate) fn fused_get(&self, at: Addr) -> &FusedSlot {
        &self.fused[at as usize & ADDR_MASK]
    }

    /// Record the fusion verdict for traces entered at `at`.
    pub(crate) fn fused_set(&mut self, at: Addr, slot: FusedSlot) {
        Arc::make_mut(&mut self.fused)[at as usize & ADDR_MASK] = slot;
    }

    /// Invalidate after an IMEM word write at `addr`: the instruction
    /// starting there and the two-word instruction starting one word
    /// earlier (whose immediate lives at `addr`), plus every fused
    /// trace whose span could include `addr` (traces cover at most
    /// `MAX_TRACE_WORDS` words, so entries up to that far back).
    #[inline]
    pub fn invalidate_write(&mut self, addr: Addr) {
        let slots = Arc::make_mut(&mut self.slots);
        slots[addr as usize & ADDR_MASK] = None;
        slots[(addr as usize).wrapping_sub(1) & ADDR_MASK] = None;
        let fused = Arc::make_mut(&mut self.fused);
        for back in 0..MAX_TRACE_WORDS {
            fused[(addr as usize).wrapping_sub(back) & ADDR_MASK] = FusedSlot::Unknown;
        }
    }

    /// Drop every entry (bulk IMEM load).
    pub fn invalidate_all(&mut self) {
        Arc::make_mut(&mut self.slots).fill(None);
        Arc::make_mut(&mut self.fused).fill(FusedSlot::Unknown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy_acct::EnergyAccountant;
    use snap_energy::OperatingPoint;
    use snap_isa::{AluImmOp, Reg};

    fn entry() -> Predecoded {
        let ins = Instruction::AluImm {
            op: AluImmOp::Li,
            rd: Reg::R1,
            imm: 1,
        };
        let acct = EnergyAccountant::new(OperatingPoint::V1_8);
        Predecoded {
            ins,
            costs: acct.cost_of(&ins),
        }
    }

    #[test]
    fn insert_get_round_trip() {
        let mut c = DecodeCache::new();
        assert!(c.get(7).is_none());
        c.insert(7, entry());
        assert_eq!(c.get(7), Some(&entry()));
        // Addresses wrap like the memory banks.
        assert_eq!(c.get(7 + MEM_WORDS as Addr), Some(&entry()));
    }

    #[test]
    fn write_invalidates_both_candidate_starts() {
        let mut c = DecodeCache::new();
        c.insert(9, entry());
        c.insert(10, entry());
        c.insert(11, entry());
        c.invalidate_write(10);
        assert!(
            c.get(9).is_none(),
            "two-word instruction at 9 reads word 10"
        );
        assert!(c.get(10).is_none());
        assert!(c.get(11).is_some());
    }

    #[test]
    fn write_at_zero_wraps_to_last_slot() {
        let mut c = DecodeCache::new();
        let last = (MEM_WORDS - 1) as Addr;
        c.insert(last, entry());
        c.invalidate_write(0);
        assert!(
            c.get(last).is_none(),
            "two-word instruction at 2047 wraps to word 0"
        );
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = DecodeCache::new();
        c.insert(3, entry());
        c.fused_set(3, FusedSlot::NoFuse);
        c.invalidate_all();
        assert!(c.get(3).is_none());
        assert_eq!(*c.fused_get(3), FusedSlot::Unknown);
    }

    #[test]
    fn write_invalidates_fused_span() {
        let mut c = DecodeCache::new();
        let entry_at = 40 as Addr;
        c.fused_set(entry_at, FusedSlot::NoFuse);
        // A write at the far end of the maximum span clears the entry…
        c.invalidate_write(entry_at + MAX_TRACE_WORDS as Addr - 1);
        assert_eq!(*c.fused_get(entry_at), FusedSlot::Unknown);
        // …but one word past the span leaves it alone.
        c.fused_set(entry_at, FusedSlot::NoFuse);
        c.invalidate_write(entry_at + MAX_TRACE_WORDS as Addr);
        assert_eq!(*c.fused_get(entry_at), FusedSlot::NoFuse);
    }

    #[test]
    fn fused_span_invalidation_wraps() {
        let mut c = DecodeCache::new();
        let entry_at = (MEM_WORDS - 2) as Addr;
        c.fused_set(entry_at, FusedSlot::NoFuse);
        // A trace entered two words before the top of IMEM can wrap
        // around to low addresses; a write there must clear it.
        c.invalidate_write(3);
        assert_eq!(*c.fused_get(entry_at), FusedSlot::Unknown);
    }
}
