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

use snap_isa::{Addr, Word, MEM_WORDS};
use std::sync::{Arc, LazyLock};

const ADDR_MASK: usize = MEM_WORDS - 1;
/// Words per copy-on-write page.
const PAGE_WORDS: usize = 256;
const PAGES: usize = MEM_WORDS / PAGE_WORDS;

type Page = [Word; PAGE_WORDS];

/// The page every fresh or cleared slot of every bank shares.
static ZERO_PAGE: LazyLock<Arc<Page>> = LazyLock::new(|| Arc::new([0; PAGE_WORDS]));

/// One 4 KB, word-addressed memory bank.
#[derive(Debug, Clone)]
pub struct MemBank {
    pages: [Arc<Page>; PAGES],
    name: &'static str,
}

impl MemBank {
    /// A zeroed bank with a name used in diagnostics (`"imem"`/`"dmem"`).
    pub fn new(name: &'static str) -> MemBank {
        MemBank {
            pages: std::array::from_fn(|_| Arc::clone(&ZERO_PAGE)),
            name,
        }
    }

    /// The bank's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
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
        Arc::make_mut(&mut self.pages[a / PAGE_WORDS])[a % PAGE_WORDS] = value;
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
                bank: self.name,
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
        *self = MemBank::new(self.name);
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
        let mut m = MemBank::new("dmem");
        m.write(0, 0xdead);
        m.write(2047, 0xbeef);
        assert_eq!(m.read(0), 0xdead);
        assert_eq!(m.read(2047), 0xbeef);
    }

    #[test]
    fn addresses_wrap_like_hardware() {
        let mut m = MemBank::new("dmem");
        m.write(2048, 0x1234); // wraps to 0
        assert_eq!(m.read(0), 0x1234);
        assert_eq!(m.read(0x8000 | 5), m.read(5));
    }

    #[test]
    fn load_image() {
        let mut m = MemBank::new("imem");
        m.load(10, &[1, 2, 3]).unwrap();
        assert_eq!(m.read(10), 1);
        assert_eq!(m.read(12), 3);
        assert_eq!(m.read(9), 0);
    }

    #[test]
    fn load_straddles_pages() {
        let mut m = MemBank::new("dmem");
        let image: Vec<Word> = (1..=600).collect();
        m.load(200, &image).unwrap();
        assert_eq!(m.read(199), 0);
        assert_eq!(m.read(200), 1);
        assert_eq!(m.read(255), 56);
        assert_eq!(m.read(256), 57);
        assert_eq!(m.read(799), 600);
        assert_eq!(m.read(800), 0);
        assert_eq!(shared_pages(&m, &MemBank::new("dmem")), PAGES - 4);
    }

    #[test]
    fn oversized_load_is_rejected() {
        let mut m = MemBank::new("imem");
        let image = vec![0u16; 100];
        let err = m.load(2000, &image).unwrap_err();
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut m = MemBank::new("dmem");
        m.write(7, 9);
        m.clear();
        assert!(m.words().all(|w| w == 0));
        assert_eq!(shared_pages(&m, &MemBank::new("dmem")), PAGES);
    }

    #[test]
    fn fresh_banks_share_the_zero_page() {
        let (a, b) = (MemBank::new("imem"), MemBank::new("dmem"));
        assert_eq!(shared_pages(&a, &b), PAGES);
        assert_eq!(a.to_vec(), vec![0; MEM_WORDS]);
    }

    #[test]
    fn a_write_after_a_clone_unshares_exactly_one_page() {
        let mut template = MemBank::new("dmem");
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
    fn loading_words_already_present_unshares_nothing() {
        let mut template = MemBank::new("dmem");
        template.load(250, &[1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
        let mut node = template.clone();
        node.load(250, &[1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
        node.load(1000, &[0; 600]).unwrap();
        assert_eq!(shared_pages(&node, &template), PAGES);
        let mut restored = MemBank::new("dmem");
        restored.load(0, &template.to_vec()).unwrap();
        assert_eq!(
            shared_pages(&restored, &MemBank::new("dmem")),
            PAGES - 2,
            "an all-zero page of a loaded image stays the zero page"
        );
    }
}
