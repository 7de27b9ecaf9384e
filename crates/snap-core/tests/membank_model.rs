//! The paged memory bank against a flat model.
//!
//! `MemBank` shares its 256-word pages copy-on-write between clones.
//! This property runs random `read`/`write`/`load`/`clear` sequences on
//! a bank and on the clones taken along the way, and checks every clone
//! against its own flat 2048-word array after every step. Addresses
//! cover the whole `u16` range (the bank decodes only the low eleven
//! bits), and loads straddle page boundaries or run past the end. A
//! write that leaks into a sibling clone, a page that `load` left stale
//! or a rejected load that still wrote words all show up as a mismatch.
//!
//! A bank stores straight into a page it owns. Every clone is therefore
//! taken from a bank that has just written (so it owns that page), and
//! both sides write again right after it, the source on that same page:
//! a clone that left either side owning a shared page leaks the write.

use proptest::prelude::*;
use snap_core::{Bank, MemBank};
use snap_isa::{Word, MEM_WORDS};

/// Clones beyond this many are not taken (keeps each case small).
const MAX_BANKS: usize = 6;

/// One step, applied to bank `index % banks.len()`.
#[derive(Debug, Clone)]
enum Op {
    Read(usize, u16),
    Write(usize, u16, Word),
    Load(usize, u16, Vec<Word>),
    Clear(usize),
    /// Write `(addr, value)` on the source, clone it, then write
    /// `(addr, value2)` on the source and `(addr2, value3)` on the
    /// clone.
    Clone(usize, u16, [Word; 3], u16),
}

fn op() -> impl Strategy<Value = Op> {
    // Sparse images (mostly zeros) often match what a page already
    // holds, which is the path where `load` must leave a page shared.
    let image = prop_oneof![
        prop::collection::vec(0u16..2, 0..600),
        prop::collection::vec(any::<u16>(), 0..600),
    ];
    prop_oneof![
        (0usize..MAX_BANKS, any::<u16>()).prop_map(|(b, a)| Op::Read(b, a)),
        (0usize..MAX_BANKS, any::<u16>(), any::<u16>()).prop_map(|(b, a, v)| Op::Write(b, a, v)),
        (0usize..MAX_BANKS, 0u16..2200, image).prop_map(|(b, at, w)| Op::Load(b, at, w)),
        (0usize..MAX_BANKS).prop_map(Op::Clear),
        (
            (0usize..MAX_BANKS, any::<u16>(), any::<u16>()),
            (any::<u16>(), any::<u16>(), any::<u16>())
        )
            .prop_map(|((b, a, v1), (v2, v3, a2))| Op::Clone(b, a, [v1, v2, v3], a2)),
    ]
}

/// Apply `op` to the bank it names and to that bank's flat model.
fn apply(banks: &mut Vec<(MemBank, Vec<Word>)>, op: &Op) {
    let n = banks.len();
    match op {
        Op::Read(b, addr) => {
            let (bank, flat) = &banks[b % n];
            assert_eq!(
                bank.read(*addr),
                flat[*addr as usize % MEM_WORDS],
                "read {addr:#x}"
            );
        }
        Op::Write(b, addr, value) => {
            let (bank, flat) = &mut banks[b % n];
            bank.write(*addr, *value);
            flat[*addr as usize % MEM_WORDS] = *value;
        }
        Op::Load(b, base, image) => {
            let (bank, flat) = &mut banks[b % n];
            let base = *base as usize;
            let fits = base + image.len() <= MEM_WORDS;
            assert_eq!(
                bank.load(base as u16, image).is_ok(),
                fits,
                "load at {base}"
            );
            if fits {
                flat[base..base + image.len()].copy_from_slice(image);
            }
        }
        Op::Clear(b) => {
            let (bank, flat) = &mut banks[b % n];
            bank.clear();
            flat.fill(0);
        }
        Op::Clone(b, addr, [v1, v2, v3], addr2) => {
            let src = b % n;
            let write = |slot: &mut (MemBank, Vec<Word>), addr: u16, value: Word| {
                slot.0.write(addr, value);
                slot.1[addr as usize % MEM_WORDS] = value;
            };
            write(&mut banks[src], *addr, *v1);
            let copy = banks[src].clone();
            // Past the cap the clone replaces the source's neighbour.
            let dst = if n < MAX_BANKS {
                banks.push(copy);
                n
            } else {
                banks[(src + 1) % n] = copy;
                (src + 1) % n
            };
            write(&mut banks[src], *addr, *v2);
            write(&mut banks[dst], *addr2, *v3);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paged_bank_matches_a_flat_model(ops in prop::collection::vec(op(), 1..64)) {
        let mut banks = vec![(MemBank::new(Bank::Dmem), vec![0; MEM_WORDS])];
        for (step, op) in ops.iter().enumerate() {
            apply(&mut banks, op);
            for (i, (bank, flat)) in banks.iter().enumerate() {
                prop_assert_eq!(&bank.to_vec(), flat, "bank {} after step {}: {:?}", i, step, op);
            }
        }
        for (bank, flat) in &banks {
            for (addr, &word) in flat.iter().enumerate() {
                // Every alias of the address reads the same word.
                prop_assert_eq!(bank.read(addr as u16), word);
                prop_assert_eq!(bank.read(addr as u16 | 0xf800), word);
            }
        }
    }
}
