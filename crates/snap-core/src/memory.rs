//! The on-chip memory banks.
//!
//! SNAP/LE has two 4 KB banks and no caches (paper §3.1): the IMEM holds
//! instructions and the DMEM holds data. Both are word-addressed (2048
//! 16-bit words). Like the hardware, the banks decode only the low
//! eleven address bits — higher bits are ignored, so addresses wrap
//! rather than fault.
//!
//! Banks are copy-on-write per page. A bank is a table of eight
//! 256-word (512 B) pages, each an `Arc` that every clone of the bank
//! shares until one of them writes to it; fresh and cleared banks point
//! every slot at one process-wide zero page. Million-node fleets clone a
//! loaded template node, so identical IMEM/DMEM images cost one copy in
//! total, and a node that writes a few data words pays 512 B for the
//! page they sit on rather than 4 KB for the bank.
//!
//! A bank also keeps one *owned* bit per page: set by the write that
//! made (or found) the page unshared, cleared on both sides by every
//! clone. A write to an owned page is a plain store; only the first
//! write to a page after a clone pays `Arc::make_mut`'s atomic
//! read-modify-write. `load` leaves the bits alone, so a loaded template
//! still hands its clones shared pages.

use snap_isa::{Addr, Word, MEM_WORDS};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, LazyLock};

const ADDR_MASK: usize = MEM_WORDS - 1;
/// Words per copy-on-write page.
const PAGE_WORDS: usize = 256;
const PAGES: usize = MEM_WORDS / PAGE_WORDS;

type Page = [Word; PAGE_WORDS];

/// The page every fresh or cleared slot of every bank shares.
static ZERO_PAGE: LazyLock<Arc<Page>> = LazyLock::new(|| Arc::new([0; PAGE_WORDS]));

/// Which of the core's two banks a [`MemBank`] is (its name in
/// diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bank {
    /// Instruction memory.
    Imem,
    /// Data memory.
    Dmem,
}

impl Bank {
    /// `"imem"` or `"dmem"`.
    pub fn name(self) -> &'static str {
        match self {
            Bank::Imem => "imem",
            Bank::Dmem => "dmem",
        }
    }
}

/// One 4 KB, word-addressed memory bank.
#[derive(Debug)]
pub struct MemBank {
    pages: [Arc<Page>; PAGES],
    /// Bit `p` set: this bank holds the only reference to page `p`.
    /// Atomic only so that `clone(&self)` can clear the source's bits;
    /// `write` reads them through `&mut self`, without an atomic.
    owned: AtomicU8,
    bank: Bank,
}

/// Both sides share every page afterwards, so neither owns any.
impl Clone for MemBank {
    fn clone(&self) -> MemBank {
        self.owned.store(0, Ordering::Relaxed);
        MemBank {
            pages: self.pages.clone(),
            owned: AtomicU8::new(0),
            bank: self.bank,
        }
    }
}

impl MemBank {
    /// A zeroed bank.
    pub fn new(bank: Bank) -> MemBank {
        MemBank {
            pages: std::array::from_fn(|_| Arc::clone(&ZERO_PAGE)),
            owned: AtomicU8::new(0),
            bank,
        }
    }

    /// The bank's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.bank.name()
    }

    /// Read the word at `addr` (the address wraps modulo 2048).
    #[inline]
    pub fn read(&self, addr: Addr) -> Word {
        let a = addr as usize & ADDR_MASK;
        self.pages[a / PAGE_WORDS][a % PAGE_WORDS]
    }

    /// Write the word at `addr` (the address wraps modulo 2048).
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Word) {
        let a = addr as usize & ADDR_MASK;
        let (page, offset) = (a / PAGE_WORDS, a % PAGE_WORDS);
        let owned = self.owned.get_mut();
        if *owned & (1 << page) != 0 {
            let ptr = Arc::as_ptr(&self.pages[page]).cast_mut();
            // SAFETY: bit `page` is set only below, right after
            // `make_mut` left this bank holding the page's only `Arc`
            // (no `Weak` to a page is ever made), and a clone, the only
            // way a second `Arc` can appear, clears the bit on both
            // sides first. So nothing else points at the page, and
            // `&mut self` shuts out readers through this bank.
            unsafe { (*ptr)[offset] = value };
        } else {
            Arc::make_mut(&mut self.pages[page])[offset] = value;
            *owned |= 1 << page;
        }
    }

    /// Copy `image` into the bank starting at word address `base`. A
    /// page that already holds its part of the image stays shared.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] if the image does not fit.
    pub fn load(&mut self, base: Addr, image: &[Word]) -> Result<(), LoadError> {
        let base = base as usize;
        if base + image.len() > MEM_WORDS {
            return Err(LoadError {
                bank: self.name(),
                base,
                len: image.len(),
            });
        }
        let (mut at, mut rest) = (base, image);
        while !rest.is_empty() {
            let (page, offset) = (at / PAGE_WORDS, at % PAGE_WORDS);
            let (part, tail) = rest.split_at(rest.len().min(PAGE_WORDS - offset));
            let span = offset..offset + part.len();
            if self.pages[page][span.clone()] != *part {
                Arc::make_mut(&mut self.pages[page])[span].copy_from_slice(part);
            }
            at += part.len();
            rest = tail;
        }
        Ok(())
    }

    /// Zero the whole bank.
    pub fn clear(&mut self) {
        *self = MemBank::new(self.bank);
    }

    /// Every word of the bank, in address order.
    pub fn words(&self) -> impl Iterator<Item = Word> + '_ {
        self.pages.iter().flat_map(|page| page.iter().copied())
    }

    /// The whole bank as a vector of words, in address order.
    pub fn to_vec(&self) -> Vec<Word> {
        self.words().collect()
    }
}

/// Error returned when a program image does not fit in a bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError {
    bank: &'static str,
    base: usize,
    len: usize,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "image of {} words at base {} does not fit in {} ({} words)",
            self.len, self.base, self.bank, MEM_WORDS
        )
    }
}

impl std::error::Error for LoadError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many page slots of `a` and `b` point at one allocation.
    fn shared_pages(a: &MemBank, b: &MemBank) -> usize {
        a.pages
            .iter()
            .zip(&b.pages)
            .filter(|(x, y)| Arc::ptr_eq(x, y))
            .count()
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = MemBank::new(Bank::Dmem);
        m.write(0, 0xdead);
        m.write(2047, 0xbeef);
        assert_eq!(m.read(0), 0xdead);
        assert_eq!(m.read(2047), 0xbeef);
    }

    #[test]
    fn addresses_wrap_like_hardware() {
        let mut m = MemBank::new(Bank::Dmem);
        m.write(2048, 0x1234); // wraps to 0
        assert_eq!(m.read(0), 0x1234);
        assert_eq!(m.read(0x8000 | 5), m.read(5));
    }

    #[test]
    fn load_image() {
        let mut m = MemBank::new(Bank::Imem);
        m.load(10, &[1, 2, 3]).unwrap();
        assert_eq!(m.read(10), 1);
        assert_eq!(m.read(12), 3);
        assert_eq!(m.read(9), 0);
    }

    #[test]
    fn load_straddles_pages() {
        let mut m = MemBank::new(Bank::Dmem);
        let image: Vec<Word> = (1..=600).collect();
        m.load(200, &image).unwrap();
        assert_eq!(m.read(199), 0);
        assert_eq!(m.read(200), 1);
        assert_eq!(m.read(255), 56);
        assert_eq!(m.read(256), 57);
        assert_eq!(m.read(799), 600);
        assert_eq!(m.read(800), 0);
        assert_eq!(shared_pages(&m, &MemBank::new(Bank::Dmem)), PAGES - 4);
    }

    #[test]
    fn oversized_load_is_rejected() {
        let mut m = MemBank::new(Bank::Imem);
        let image = vec![0u16; 100];
        let err = m.load(2000, &image).unwrap_err();
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut m = MemBank::new(Bank::Dmem);
        m.write(7, 9);
        m.clear();
        assert!(m.words().all(|w| w == 0));
        assert_eq!(shared_pages(&m, &MemBank::new(Bank::Dmem)), PAGES);
    }

    #[test]
    fn fresh_banks_share_the_zero_page() {
        let (a, b) = (MemBank::new(Bank::Imem), MemBank::new(Bank::Dmem));
        assert_eq!(shared_pages(&a, &b), PAGES);
        assert_eq!(a.to_vec(), vec![0; MEM_WORDS]);
    }

    #[test]
    fn a_write_after_a_clone_unshares_exactly_one_page() {
        let mut template = MemBank::new(Bank::Dmem);
        template.load(0, &[7; MEM_WORDS]).unwrap();
        let mut node = template.clone();
        assert_eq!(shared_pages(&node, &template), PAGES);
        node.write(300, 1);
        node.write(301, 2);
        assert_eq!(shared_pages(&node, &template), PAGES - 1);
        assert!(!Arc::ptr_eq(&node.pages[1], &template.pages[1]));
        assert_eq!(template.read(300), 7, "the template keeps its page");
        assert_eq!(node.read(300), 1);
    }

    #[test]
    fn owned_pages_are_stored_in_place_until_a_clone() {
        let mut a = MemBank::new(Bank::Dmem);
        a.write(5, 1);
        assert_eq!(*a.owned.get_mut(), 0b1, "the write that un-shares owns");
        let page = Arc::as_ptr(&a.pages[0]);
        a.write(6, 2);
        assert_eq!(Arc::as_ptr(&a.pages[0]), page, "an owned page stays put");
        // A clone of an owning bank: both sides drop ownership, and a
        // write on either side must not show through the other.
        let mut b = a.clone();
        assert_eq!((*a.owned.get_mut(), *b.owned.get_mut()), (0, 0));
        a.write(5, 10);
        b.write(6, 20);
        assert_eq!((a.read(5), a.read(6)), (10, 2));
        assert_eq!((b.read(5), b.read(6)), (1, 20));
        assert_eq!(shared_pages(&a, &b), PAGES - 1);
        assert_eq!((*a.owned.get_mut(), *b.owned.get_mut()), (0b1, 0b1));
        a.clear();
        assert_eq!(*a.owned.get_mut(), 0, "a cleared bank shares the zero page");
        assert_eq!(a.name(), "dmem");
    }

    #[test]
    fn loading_words_already_present_unshares_nothing() {
        let mut template = MemBank::new(Bank::Dmem);
        template.load(250, &[1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
        let mut node = template.clone();
        node.load(250, &[1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
        node.load(1000, &[0; 600]).unwrap();
        assert_eq!(shared_pages(&node, &template), PAGES);
        let mut restored = MemBank::new(Bank::Dmem);
        restored.load(0, &template.to_vec()).unwrap();
        assert_eq!(
            shared_pages(&restored, &MemBank::new(Bank::Dmem)),
            PAGES - 2,
            "an all-zero page of a loaded image stays the zero page"
        );
    }
}
