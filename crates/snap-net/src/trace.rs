//! A serializable trace of network-visible events.

use snap_isa::Word;
use snap_node::NodeId;
use snap_snapshot::{Decode, Encode, Reader, SnapshotError, Writer};

/// What happened.
///
/// Snapshots store a pinned discriminant (the variant's position
/// below, `Transmit` = 0 … `NodeDeath` = 5), a payload word
/// (`Transmit`/`Deliver` word, `Led` value) and a peer node
/// (`Deliver`/`Collision` sender); unused fields are 0. See the
/// [`TraceEvent`] codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A word went on the air.
    Transmit {
        /// The word.
        word: Word,
    },
    /// A word was delivered cleanly to this node.
    Deliver {
        /// The word.
        word: Word,
        /// Who sent it.
        from: NodeId,
    },
    /// A word was garbled by a collision at this node.
    Collision {
        /// Who sent the garbled word.
        from: NodeId,
    },
    /// The node drove its LED port.
    Led {
        /// The driven value.
        value: u16,
    },
    /// An injected stimulus fired.
    Stimulus,
    /// The node exhausted its battery budget and froze.
    NodeDeath,
}

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulated time in picoseconds.
    pub at_ps: u64,
    /// The node involved.
    pub node: NodeId,
    /// What happened.
    pub kind: TraceKind,
}

impl Encode for TraceEvent {
    fn encode(&self, w: &mut Writer) {
        let (tag, payload, from) = match self.kind {
            TraceKind::Transmit { word } => (0, word, 0),
            TraceKind::Deliver { word, from } => (1, word, from.0),
            TraceKind::Collision { from } => (2, 0, from.0),
            TraceKind::Led { value } => (3, value, 0),
            TraceKind::Stimulus => (4, 0, 0),
            TraceKind::NodeDeath => (5, 0, 0),
        };
        w.u64(self.at_ps);
        w.u32(self.node.0);
        w.u8(tag);
        w.u16(payload);
        w.u32(from);
    }
}

impl Decode for TraceEvent {
    fn decode(r: &mut Reader) -> Result<TraceEvent, SnapshotError> {
        let at_ps = r.u64()?;
        let node = NodeId(r.u32()?);
        let (tag, word, from) = (r.u8()?, r.u16()?, NodeId(r.u32()?));
        let kind = match tag {
            0 => TraceKind::Transmit { word },
            1 => TraceKind::Deliver { word, from },
            2 => TraceKind::Collision { from },
            3 => TraceKind::Led { value: word },
            4 => TraceKind::Stimulus,
            5 => TraceKind::NodeDeath,
            _ => return Err(SnapshotError::Corrupt("trace kind discriminant")),
        };
        Ok(TraceEvent { at_ps, node, kind })
    }
}

/// How a [`Trace`] stores what it records.
///
/// Long benchmark runs record millions of events; keeping them all
/// ([`TraceMode::Full`], the default) would make trace memory — not
/// simulation — the bottleneck. Count-only mode keeps nothing but the
/// total.
///
/// The discriminants are pinned: snapshots store them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Keep every event (the default; what tests compare).
    #[default]
    Full = 0,
    /// Keep no events, only the running total.
    CountOnly = 1,
}

/// The collected trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    mode: TraceMode,
    recorded: u64,
    /// Buffer index below which events are already in canonical order
    /// (see [`Trace::seal`]).
    sealed: usize,
}

/// Canonical intra-chunk sort key (see [`Trace::seal`]). The `class`
/// component encodes which side of a chunk boundary an event at the
/// boundary instant belongs to: node-produced events (`Transmit`,
/// `Led`) have timestamps strictly inside the chunk that produced them,
/// while channel/stimulus events (`Deliver`, `Collision`, `Stimulus`)
/// are applied at the *start* of the chunk that consumes them. Sorting
/// by `(at_ps, class, …)` therefore orders any concatenation of sealed
/// chunks identically, regardless of where the scheduler happened to
/// place its chunk boundaries. The remaining components cover every
/// event field, so the key is total: equal keys mean equal events.
fn canonical_key(e: &TraceEvent) -> (u64, u8, u32, u8, u32, u16) {
    let (class, rank, from, payload) = match e.kind {
        TraceKind::Transmit { word } => (0, 0, 0, word),
        TraceKind::Led { value } => (0, 1, 0, value),
        TraceKind::NodeDeath => (0, 2, 0, 0),
        TraceKind::Deliver { word, from } => (1, 0, from.0, word),
        TraceKind::Collision { from } => (1, 1, from.0, 0),
        TraceKind::Stimulus => (1, 2, 0, 0),
    };
    (e.at_ps, class, e.node.0, rank, from, payload)
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Switch storage mode. Count-only mode discards the events already
    /// held so the new bound applies immediately.
    pub fn set_mode(&mut self, mode: TraceMode) {
        self.mode = mode;
        if mode == TraceMode::CountOnly {
            self.events = Vec::new();
            self.sealed = 0;
        }
    }

    /// The active storage mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Record an event.
    pub fn record(&mut self, event: TraceEvent) {
        self.recorded += 1;
        if self.mode == TraceMode::Full {
            self.events.push(event);
        }
    }

    /// Total events recorded, including any a count-only trace dropped.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Canonically order the events recorded since the last `seal`.
    ///
    /// Schedulers call this at every chunk boundary (lockstep window or
    /// event-driven epoch). Within a chunk, nodes execute in the order
    /// the scheduler chose — node index in a window, wake order in an
    /// epoch — so raw recording order is scheduler-dependent. Sorting
    /// each chunk by a canonical total key makes the final trace a pure
    /// function of simulated behaviour: every scheduler produces the
    /// identical event vector (the equivalence suite relies on this).
    pub fn seal(&mut self) {
        self.events[self.sealed..].sort_unstable_by_key(canonical_key);
        self.sealed = self.events.len();
    }

    /// Retained events, in recording order (empty in count-only mode).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Retained events involving one node.
    pub fn for_node(&self, node: NodeId) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events().iter().filter(move |e| e.node == node)
    }

    /// Count retained events matching a predicate.
    pub fn count<F: Fn(&TraceEvent) -> bool>(&self, pred: F) -> usize {
        self.events().iter().filter(|e| pred(e)).count()
    }

    /// Render the trace as JSON lines (one event per line) for external
    /// analysis. Hand-rolled writer: the event structure is flat and
    /// the workspace deliberately avoids a JSON dependency.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            let (kind, detail) = match e.kind {
                TraceKind::Transmit { word } => ("transmit", format!(r#","word":{word}"#)),
                TraceKind::Deliver { word, from } => {
                    ("deliver", format!(r#","word":{word},"from":{}"#, from.0))
                }
                TraceKind::Collision { from } => ("collision", format!(r#","from":{}"#, from.0)),
                TraceKind::Led { value } => ("led", format!(r#","value":{value}"#)),
                TraceKind::Stimulus => ("stimulus", String::new()),
                TraceKind::NodeDeath => ("node_death", String::new()),
            };
            out.push_str(&format!(
                r#"{{"at_ps":{},"node":{},"kind":"{kind}"{detail}}}"#,
                e.at_ps, e.node.0
            ));
            out.push('\n');
        }
        out
    }
}

impl Encode for Trace {
    fn encode(&self, w: &mut Writer) {
        w.u8(self.mode as u8);
        w.u64(self.recorded);
        w.u64(self.sealed as u64);
        w.seq(&self.events);
    }
}

/// A sealed prefix longer than the buffer would slice out of bounds at
/// the next [`Trace::seal`], and a count-only trace holds no events.
impl Decode for Trace {
    fn decode(r: &mut Reader) -> Result<Trace, SnapshotError> {
        let modes = [TraceMode::Full, TraceMode::CountOnly];
        let mode = r.variant(&modes, "trace mode discriminant")?;
        let recorded = r.quantity()?;
        let sealed = r.u64()?;
        let events: Vec<TraceEvent> = r.seq()?;
        if sealed > events.len() as u64 {
            return Err(SnapshotError::Corrupt("trace sealed prefix"));
        }
        if mode == TraceMode::CountOnly && !events.is_empty() {
            return Err(SnapshotError::Corrupt("events in a count-only trace"));
        }
        Ok(Trace {
            events,
            mode,
            recorded,
            sealed: sealed as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_output() {
        let mut t = Trace::new();
        t.record(TraceEvent {
            at_ps: 5,
            node: NodeId(2),
            kind: TraceKind::Deliver {
                word: 7,
                from: NodeId(1),
            },
        });
        t.record(TraceEvent {
            at_ps: 9,
            node: NodeId(2),
            kind: TraceKind::Stimulus,
        });
        let json = t.to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"at_ps":5,"node":2,"kind":"deliver","word":7,"from":1}"#
        );
        assert_eq!(lines[1], r#"{"at_ps":9,"node":2,"kind":"stimulus"}"#);
    }

    #[test]
    fn count_only_mode_keeps_nothing() {
        let mut t = Trace::new();
        t.set_mode(TraceMode::CountOnly);
        for i in 0..5u64 {
            t.record(TraceEvent {
                at_ps: i,
                node: NodeId(1),
                kind: TraceKind::Stimulus,
            });
        }
        assert_eq!(t.recorded(), 5);
        assert!(t.events().is_empty());
    }

    #[test]
    fn switching_to_count_only_discards_existing_events() {
        let mut t = Trace::new();
        for i in 0..6u64 {
            t.record(TraceEvent {
                at_ps: i,
                node: NodeId(1),
                kind: TraceKind::Stimulus,
            });
        }
        t.set_mode(TraceMode::CountOnly);
        assert!(t.events().is_empty());
        assert_eq!(t.recorded(), 6);
        t.seal();
        assert!(t.events().is_empty());
    }

    #[test]
    fn seal_orders_within_chunks_only() {
        // Two chunks; the second is recorded out of canonical order.
        let ev = |at_ps, node| TraceEvent {
            at_ps,
            node: NodeId(node),
            kind: TraceKind::Transmit { word: 1 },
        };
        let mut t = Trace::new();
        t.record(ev(5, 1));
        t.seal();
        t.record(ev(9, 2));
        t.record(ev(7, 3));
        t.record(ev(7, 1));
        t.seal();
        let order: Vec<(u64, u32)> = t.events().iter().map(|e| (e.at_ps, e.node.0)).collect();
        assert_eq!(order, vec![(5, 1), (7, 1), (7, 3), (9, 2)]);
        // Same instant: channel-side events sort after node-produced
        // ones — they belong to the chunk that consumes the instant.
        let mut t = Trace::new();
        t.record(TraceEvent {
            at_ps: 7,
            node: NodeId(9),
            kind: TraceKind::Deliver {
                word: 1,
                from: NodeId(1),
            },
        });
        t.record(ev(7, 1));
        t.seal();
        assert!(matches!(t.events()[0].kind, TraceKind::Transmit { .. }));
        assert!(matches!(t.events()[1].kind, TraceKind::Deliver { .. }));
    }

    #[test]
    fn record_and_filter() {
        let mut t = Trace::new();
        t.record(TraceEvent {
            at_ps: 1,
            node: NodeId(1),
            kind: TraceKind::Transmit { word: 5 },
        });
        t.record(TraceEvent {
            at_ps: 2,
            node: NodeId(2),
            kind: TraceKind::Led { value: 1 },
        });
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.for_node(NodeId(1)).count(), 1);
        assert_eq!(t.count(|e| matches!(e.kind, TraceKind::Led { .. })), 1);
    }
}
