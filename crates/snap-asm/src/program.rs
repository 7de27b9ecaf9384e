//! Assembled program images.

use crate::error::AsmError;
use snap_isa::{Addr, Word, MEM_WORDS};
use std::collections::{BTreeMap, BTreeSet};

/// A contiguous run of words at a fixed base address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Segment {
    /// Base word address.
    pub base: Addr,
    /// The words.
    pub words: Vec<Word>,
}

impl Segment {
    /// One-past-the-end address.
    pub fn end(&self) -> usize {
        self.base as usize + self.words.len()
    }
}

/// Source-level provenance of one assembled instruction: where it came
/// from and which lints the author suppressed on that line with a
/// `; lint:allow(id, ...)` comment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourceLine {
    /// Module (file) name the instruction was assembled from.
    pub module: String,
    /// 1-based line number within the module.
    pub line: usize,
    /// Lint ids listed in a `lint:allow(...)` comment on the line.
    pub allowed_lints: Vec<String>,
}

/// A fully assembled and linked program: IMEM and DMEM segments plus the
/// symbol table.
#[derive(Debug, Clone, Default)]
pub struct Program {
    imem: Vec<Segment>,
    dmem: Vec<Segment>,
    symbols: BTreeMap<String, i64>,
    code_symbols: BTreeSet<String>,
    data_symbols: BTreeSet<String>,
    lines: BTreeMap<Addr, SourceLine>,
}

impl Program {
    pub(crate) fn new(
        imem: Vec<Segment>,
        dmem: Vec<Segment>,
        symbols: BTreeMap<String, i64>,
        code_symbols: BTreeSet<String>,
        data_symbols: BTreeSet<String>,
        lines: BTreeMap<Addr, SourceLine>,
    ) -> Result<Program, AsmError> {
        check_overlap(&imem, "imem")?;
        check_overlap(&dmem, "dmem")?;
        Ok(Program {
            imem,
            dmem,
            symbols,
            code_symbols,
            data_symbols,
            lines,
        })
    }

    /// Look up a symbol's value (label address or `.equ` constant).
    pub fn symbol(&self, name: &str) -> Option<Addr> {
        self.symbols.get(name).map(|&v| v as Addr)
    }

    /// The full symbol table.
    pub fn symbols(&self) -> &BTreeMap<String, i64> {
        &self.symbols
    }

    /// True when `name` was defined as a label in a `.text` section,
    /// i.e. its value is an IMEM address rather than a `.equ` constant
    /// or a DMEM data label. (Those share the flat symbol namespace and
    /// small constants collide with low code addresses.)
    pub fn is_code_symbol(&self, name: &str) -> bool {
        self.code_symbols.contains(name)
    }

    /// Address ranges of the named data objects, sorted by base
    /// address: each data label owns the words from its address up to
    /// the next data label or the end of its containing DMEM segment.
    /// Used by the cross-handler DMEM conflict analysis to name the
    /// object a hazardous store hits.
    pub fn data_symbol_ranges(&self) -> Vec<(String, Addr, Addr)> {
        let mut labels: Vec<(Addr, &str)> = self
            .data_symbols
            .iter()
            .filter_map(|name| {
                self.symbols
                    .get(name)
                    .map(|&addr| (addr as Addr, name.as_str()))
            })
            .collect();
        labels.sort();
        let mut out = Vec::with_capacity(labels.len());
        for (i, &(base, name)) in labels.iter().enumerate() {
            let seg_end = self
                .dmem
                .iter()
                .find(|s| s.base <= base && (base as usize) < s.end())
                .map(|s| s.end() as Addr);
            let next_label = labels.get(i + 1).map(|&(a, _)| a);
            let end = match (seg_end, next_label) {
                (Some(se), Some(nl)) => se.min(nl),
                (Some(se), None) => se,
                // Label past every segment (e.g. one-past-the-end
                // marker): give it an empty range.
                (None, _) => base,
            };
            out.push((name.to_string(), base, end.max(base)));
        }
        out
    }

    /// Source provenance of the instruction starting at IMEM address
    /// `addr`, when known. Only instruction start addresses have
    /// entries; immediate words and data do not.
    pub fn source_line(&self, addr: Addr) -> Option<&SourceLine> {
        self.lines.get(&addr)
    }

    /// The full instruction-address → source-line table.
    pub fn source_lines(&self) -> &BTreeMap<Addr, SourceLine> {
        &self.lines
    }

    /// Flattened IMEM image from address 0 to the highest used word,
    /// zero-filled between segments.
    pub fn imem_image(&self) -> Vec<Word> {
        flatten(&self.imem)
    }

    /// Flattened DMEM image (see [`Program::imem_image`]).
    pub fn dmem_image(&self) -> Vec<Word> {
        flatten(&self.dmem)
    }

    /// Total IMEM words actually emitted (code size; the paper reports
    /// handler code sizes in bytes — multiply by two).
    pub fn imem_words_used(&self) -> usize {
        self.imem.iter().map(|s| s.words.len()).sum()
    }

    /// Code size in bytes, as the paper reports it.
    pub fn code_bytes(&self) -> usize {
        self.imem_words_used() * 2
    }
}

fn flatten(segments: &[Segment]) -> Vec<Word> {
    let len = segments.iter().map(Segment::end).max().unwrap_or(0);
    let mut image = vec![0; len];
    for seg in segments {
        image[seg.base as usize..seg.end()].copy_from_slice(&seg.words);
    }
    image
}

fn check_overlap(segments: &[Segment], bank: &str) -> Result<(), AsmError> {
    let mut sorted: Vec<&Segment> = segments.iter().collect();
    sorted.sort_by_key(|s| s.base);
    for pair in sorted.windows(2) {
        if pair[0].end() > pair[1].base as usize {
            return Err(AsmError::new(
                "<link>",
                0,
                format!(
                    "{bank} segments overlap: [{:#05x}..{:#05x}) and [{:#05x}..)",
                    pair[0].base,
                    pair[0].end(),
                    pair[1].base
                ),
            ));
        }
    }
    if let Some(last) = sorted.last() {
        if last.end() > MEM_WORDS {
            return Err(AsmError::new(
                "<link>",
                0,
                format!(
                    "{bank} image ends at {:#x}, beyond the 4KB bank",
                    last.end()
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(base: Addr, words: &[Word]) -> Segment {
        Segment {
            base,
            words: words.to_vec(),
        }
    }

    #[test]
    fn flatten_zero_fills_gaps() {
        let p = Program::new(
            vec![seg(0, &[1, 2]), seg(5, &[9])],
            vec![],
            BTreeMap::new(),
            BTreeSet::new(),
            BTreeSet::new(),
            BTreeMap::new(),
        )
        .unwrap();
        assert_eq!(p.imem_image(), vec![1, 2, 0, 0, 0, 9]);
        assert_eq!(p.imem_words_used(), 3);
        assert_eq!(p.code_bytes(), 6);
    }

    #[test]
    fn overlap_is_rejected() {
        let err = Program::new(
            vec![seg(0, &[1, 2, 3]), seg(2, &[9])],
            vec![],
            BTreeMap::new(),
            BTreeSet::new(),
            BTreeSet::new(),
            BTreeMap::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("overlap"));
    }

    #[test]
    fn beyond_bank_is_rejected() {
        let err = Program::new(
            vec![seg(2047, &[1, 2])],
            vec![],
            BTreeMap::new(),
            BTreeSet::new(),
            BTreeSet::new(),
            BTreeMap::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("beyond"));
    }

    #[test]
    fn empty_program() {
        let p = Program::default();
        assert!(p.imem_image().is_empty());
        assert_eq!(p.symbol("x"), None);
    }
}
