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
//! The cache is copy-on-write per page, like the memory banks: a table
//! of eight `Arc` pages, each holding 256 predecoded slots and the
//! fusion verdicts for traces entered there. Fresh and invalidated
//! caches point every page at one process-wide empty page, so a core
//! pays for the pages its code occupies (~28 KB each) and nothing for
//! the rest, and clones of a predecoded template share its pages until
//! a node self-modifies. An invalidation that finds its slots already
//! empty un-shares nothing.
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
use std::sync::{Arc, LazyLock};

const ADDR_MASK: usize = MEM_WORDS - 1;
/// Slots per copy-on-write page.
const PAGE_SLOTS: usize = 256;
const PAGES: usize = MEM_WORDS / PAGE_SLOTS;

/// One predecoded IMEM slot: the instruction starting at that address
/// plus the accounting costs its execution charges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predecoded {
    /// The decoded instruction.
    pub ins: Instruction,
    /// Precomputed energy/latency/attribution per execution.
    pub costs: InstrCosts,
}

/// 256 consecutive addresses: the instruction cached at each, and the
/// tier-1 fusion verdict for a trace entered there.
#[derive(Debug, Clone)]
struct Page {
    slots: [Option<Predecoded>; PAGE_SLOTS],
    fused: [FusedSlot; PAGE_SLOTS],
}

/// The page every fresh or invalidated slot of every cache shares.
static EMPTY_PAGE: LazyLock<Arc<Page>> = LazyLock::new(|| {
    Arc::new(Page {
        slots: [None; PAGE_SLOTS],
        fused: [const { FusedSlot::Unknown }; PAGE_SLOTS],
    })
});

/// The page index and the slot within it for address `at`, which
/// wraps modulo IMEM size, mirroring the banks.
#[inline]
fn locate(at: usize) -> (usize, usize) {
    let a = at & ADDR_MASK;
    (a / PAGE_SLOTS, a % PAGE_SLOTS)
}

/// The cache: one optional [`Predecoded`] slot and one fusion verdict
/// per IMEM word address, in eight copy-on-write pages.
#[derive(Debug, Clone)]
pub struct DecodeCache {
    pages: [Arc<Page>; PAGES],
}

impl Default for DecodeCache {
    fn default() -> DecodeCache {
        DecodeCache::new()
    }
}

impl DecodeCache {
    /// An empty cache covering all of IMEM. It allocates nothing: every
    /// page is the shared empty page until a slot is filled.
    pub fn new() -> DecodeCache {
        DecodeCache {
            pages: std::array::from_fn(|_| Arc::clone(&EMPTY_PAGE)),
        }
    }

    /// The cached entry whose first word is at `at`, if still valid.
    /// Addresses wrap modulo IMEM size, mirroring the banks.
    #[inline]
    pub fn get(&self, at: Addr) -> Option<&Predecoded> {
        let (page, i) = locate(at as usize);
        self.pages[page].slots[i].as_ref()
    }

    /// Cache the instruction whose first word is at `at`.
    #[inline]
    pub fn insert(&mut self, at: Addr, entry: Predecoded) {
        let (page, i) = locate(at as usize);
        Arc::make_mut(&mut self.pages[page]).slots[i] = Some(entry);
    }

    /// The fusion verdict for a trace entered at `at`.
    #[inline]
    pub(crate) fn fused_get(&self, at: Addr) -> &FusedSlot {
        let (page, i) = locate(at as usize);
        &self.pages[page].fused[i]
    }

    /// Record the fusion verdict for traces entered at `at`.
    pub(crate) fn fused_set(&mut self, at: Addr, slot: FusedSlot) {
        let (page, i) = locate(at as usize);
        Arc::make_mut(&mut self.pages[page]).fused[i] = slot;
    }

    /// Invalidate after an IMEM word write at `addr`: the instruction
    /// starting there and the two-word instruction starting one word
    /// earlier (whose immediate lives at `addr`), plus every fused
    /// trace whose span could include `addr` (traces cover at most
    /// `MAX_TRACE_WORDS` words, so entries up to that far back). Both
    /// spans may reach into the previous page; a page is un-shared only
    /// if one of its cleared slots was filled.
    #[inline]
    pub fn invalidate_write(&mut self, addr: Addr) {
        let addr = addr as usize;
        for at in [addr, addr.wrapping_sub(1)] {
            let (page, i) = locate(at);
            if self.pages[page].slots[i].is_some() {
                Arc::make_mut(&mut self.pages[page]).slots[i] = None;
            }
        }
        for back in 0..MAX_TRACE_WORDS {
            let (page, i) = locate(addr.wrapping_sub(back));
            if !matches!(self.pages[page].fused[i], FusedSlot::Unknown) {
                Arc::make_mut(&mut self.pages[page]).fused[i] = FusedSlot::Unknown;
            }
        }
    }

    /// Drop every entry (bulk IMEM load): every page becomes the shared
    /// empty page again.
    pub fn invalidate_all(&mut self) {
        *self = DecodeCache::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy_acct::EnergyAccountant;
    use crate::fuse;
    use snap_energy::OperatingPoint;
    use snap_isa::{AluImmOp, Reg, Word};

    fn entry_with(imm: Word) -> Predecoded {
        let ins = Instruction::AluImm {
            op: AluImmOp::Li,
            rd: Reg::R1,
            imm,
        };
        let acct = EnergyAccountant::new(OperatingPoint::V1_8);
        Predecoded {
            ins,
            costs: acct.cost_of(&ins),
        }
    }

    fn entry() -> Predecoded {
        entry_with(1)
    }

    /// A fused trace of two `li`s (two words each), told apart from
    /// others by `imm`.
    fn trace(imm: Word) -> FusedSlot {
        let e = entry_with(imm);
        let slot = fuse::build_trace(0, |a| (a < 4).then_some((e.ins, e.costs)));
        assert!(matches!(slot, FusedSlot::Trace(_)));
        slot
    }

    /// How many pages of `a` and `b` point at one allocation.
    fn shared_pages(a: &DecodeCache, b: &DecodeCache) -> usize {
        a.pages
            .iter()
            .zip(&b.pages)
            .filter(|(x, y)| Arc::ptr_eq(x, y))
            .count()
    }

    /// How many pages of `c` are the shared empty page.
    fn empty_pages(c: &DecodeCache) -> usize {
        c.pages
            .iter()
            .filter(|p| Arc::ptr_eq(p, &EMPTY_PAGE))
            .count()
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
        assert_eq!(empty_pages(&c), PAGES);
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

    #[test]
    fn a_fresh_cache_and_processor_hold_only_the_empty_page() {
        assert_eq!(empty_pages(&DecodeCache::new()), PAGES);
        let cpu = crate::Processor::new(crate::CoreConfig::default());
        assert_eq!(empty_pages(&cpu.decode), PAGES);
    }

    #[test]
    fn an_insert_after_a_clone_unshares_exactly_one_page() {
        let mut template = DecodeCache::new();
        for at in 0..MEM_WORDS as Addr {
            template.insert(at, entry());
            template.fused_set(at, FusedSlot::NoFuse);
        }
        let mut node = template.clone();
        assert_eq!(shared_pages(&node, &template), PAGES);
        node.insert(300, entry_with(2));
        node.fused_set(301, trace(2));
        assert_eq!(shared_pages(&node, &template), PAGES - 1);
        assert!(!Arc::ptr_eq(&node.pages[1], &template.pages[1]));
        assert_eq!(
            template.get(300),
            Some(&entry()),
            "the template keeps its page"
        );
        assert_eq!(node.get(300), Some(&entry_with(2)));
        assert_eq!(*template.fused_get(301), FusedSlot::NoFuse);
    }

    #[test]
    fn invalidating_empty_slots_unshares_nothing() {
        let mut c = DecodeCache::new();
        // A write at a page boundary reaches back into the previous
        // page; with nothing cached there, no page is copied.
        c.invalidate_write(256);
        c.invalidate_write(0);
        assert_eq!(empty_pages(&c), PAGES);
        let mut template = DecodeCache::new();
        template.insert(1000, entry());
        let mut node = template.clone();
        node.invalidate_write(520);
        assert_eq!(shared_pages(&node, &template), PAGES);
        node.invalidate_write(1000);
        assert_eq!(shared_pages(&node, &template), PAGES - 1);
    }

    #[test]
    fn a_write_at_a_page_boundary_clears_the_previous_page() {
        let mut c = DecodeCache::new();
        c.insert(255, entry());
        c.fused_set(256 - MAX_TRACE_WORDS as Addr + 1, trace(3));
        c.invalidate_write(256);
        assert!(c.get(255).is_none());
        assert_eq!(
            *c.fused_get(256 - MAX_TRACE_WORDS as Addr + 1),
            FusedSlot::Unknown
        );
    }

    /// The paged cache against a flat model, in the shape of
    /// `tests/membank_model.rs`: random `insert`/`fused_set`/
    /// `invalidate_write`/`invalidate_all`/`clone` sequences run on a
    /// cache and on the clones taken along the way, and every clone is
    /// checked against its own flat 2048-slot arrays after every step.
    /// Addresses cluster on both sides of every page boundary (the
    /// 2047 → 0 wrap included), where the `addr - 1` slot and the
    /// fused back-span of an `invalidate_write` reach into the previous
    /// page. A write that leaks into a sibling clone, or a slot that an
    /// invalidation left stale, shows up as a mismatch.
    mod model {
        use super::*;
        use proptest::prelude::*;

        /// Clones beyond this many are not taken (keeps each case small).
        const MAX_CACHES: usize = 3;

        type Flat = (Vec<Option<Predecoded>>, Vec<FusedSlot>);

        #[derive(Debug, Clone)]
        enum Op {
            Insert(usize, u16, Word),
            /// `None` records `NoFuse`, `Some(imm)` a trace.
            FusedSet(usize, u16, Option<Word>),
            InvalidateWrite(usize, u16),
            InvalidateAll(usize),
            Clone(usize),
        }

        /// An address: anywhere in the `u16` range, within one trace
        /// span of a page boundary, or (half of the time) on either
        /// side of one, where `addr - 1` falls on the previous page.
        fn addr() -> impl Strategy<Value = u16> {
            let near = |span: i32| {
                (0..PAGES as i32, -span..span).prop_map(|(page, off)| {
                    (page * PAGE_SLOTS as i32 + off).rem_euclid(MEM_WORDS as i32) as u16
                })
            };
            prop_oneof![
                any::<u16>(),
                near(MAX_TRACE_WORDS as i32 + 2),
                near(1),
                near(1)
            ]
        }

        fn op() -> impl Strategy<Value = Op> {
            let c = 0usize..MAX_CACHES;
            prop_oneof![
                (c.clone(), addr(), any::<Word>()).prop_map(|(c, a, v)| Op::Insert(c, a, v)),
                (c.clone(), addr(), any::<bool>(), any::<Word>())
                    .prop_map(|(c, a, t, imm)| Op::FusedSet(c, a, t.then_some(imm))),
                (c.clone(), addr()).prop_map(|(c, a)| Op::InvalidateWrite(c, a)),
                c.clone().prop_map(Op::InvalidateAll),
                c.prop_map(Op::Clone),
            ]
        }

        fn apply(caches: &mut Vec<(DecodeCache, Flat)>, op: &Op) {
            let n = caches.len();
            let slot = |a: u16| a as usize % MEM_WORDS;
            match *op {
                Op::Insert(c, a, v) => {
                    let (cache, (slots, _)) = &mut caches[c % n];
                    cache.insert(a, entry_with(v));
                    slots[slot(a)] = Some(entry_with(v));
                }
                Op::FusedSet(c, a, t) => {
                    let (cache, (_, fused)) = &mut caches[c % n];
                    let verdict = t.map_or(FusedSlot::NoFuse, trace);
                    cache.fused_set(a, verdict.clone());
                    fused[slot(a)] = verdict;
                }
                Op::InvalidateWrite(c, a) => {
                    let (cache, (slots, fused)) = &mut caches[c % n];
                    cache.invalidate_write(a);
                    slots[slot(a)] = None;
                    slots[slot(a.wrapping_sub(1))] = None;
                    for back in 0..MAX_TRACE_WORDS {
                        fused[slot(a.wrapping_sub(back as u16))] = FusedSlot::Unknown;
                    }
                }
                Op::InvalidateAll(c) => {
                    let (cache, (slots, fused)) = &mut caches[c % n];
                    cache.invalidate_all();
                    slots.fill(None);
                    fused.fill(FusedSlot::Unknown);
                }
                Op::Clone(c) => {
                    if n < MAX_CACHES {
                        let copy = caches[c % n].clone();
                        caches.push(copy);
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn paged_cache_matches_a_flat_model(ops in prop::collection::vec(op(), 1..192)) {
                let flat = (vec![None; MEM_WORDS], vec![FusedSlot::Unknown; MEM_WORDS]);
                let mut caches = vec![(DecodeCache::new(), flat)];
                for (step, op) in ops.iter().enumerate() {
                    apply(&mut caches, op);
                    for (i, (cache, (slots, fused))) in caches.iter().enumerate() {
                        for at in 0..MEM_WORDS {
                            prop_assert_eq!(
                                cache.get(at as Addr), slots[at].as_ref(),
                                "cache {} slot {} after step {}: {:?}", i, at, step, op
                            );
                            prop_assert_eq!(
                                cache.fused_get(at as Addr), &fused[at],
                                "cache {} verdict {} after step {}: {:?}", i, at, step, op
                            );
                        }
                    }
                }
                for (cache, (slots, _)) in &caches {
                    for (at, want) in slots.iter().enumerate() {
                        // Every alias of the address reads the same slot.
                        prop_assert_eq!(cache.get(at as Addr | 0xf800), want.as_ref());
                    }
                }
            }
        }
    }
}
