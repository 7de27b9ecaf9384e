//! Event tokens and the event-handler table layout.
//!
//! All asynchrony in SNAP is funnelled through the hardware event queue
//! (paper §3.1): the timer coprocessor inserts a token when a timer
//! expires or is cancelled, and the message coprocessor inserts a token
//! when a radio word or sensor reading arrives. Each token indexes the
//! event-handler table; the fetch unit starts executing at the handler's
//! address and runs until `done`.

use std::fmt;

/// Number of entries in the event-handler table.
pub const EVENT_TABLE_ENTRIES: usize = 8;

/// Depth of the hardware event queue in tokens. The paper does not
/// publish it; eight matches the handler-table size. A token arriving
/// at a full queue is dropped.
pub const EVENT_QUEUE_DEPTH: usize = 8;

/// The events SNAP/LE responds to.
///
/// Entries 0–2 belong to the three timer registers; the rest belong to the
/// message coprocessor plus one software event (simulator extension used
/// for TinyOS-style task posting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Timer register 0 expired or was cancelled.
    Timer0,
    /// Timer register 1 expired or was cancelled.
    Timer1,
    /// Timer register 2 expired or was cancelled.
    Timer2,
    /// A 16-bit word arrived from the radio (message coprocessor).
    RadioRx,
    /// The radio finished transmitting the previously queued word.
    RadioTxDone,
    /// A sensor asserted the external-interrupt pin.
    SensorIrq,
    /// A sensor `Query` command completed; the reading is in the `r15`
    /// outgoing FIFO.
    SensorReply,
    /// Software-posted event (`swev` instruction).
    Soft,
}

impl EventKind {
    /// All event kinds in table order.
    pub const ALL: [EventKind; EVENT_TABLE_ENTRIES] = [
        EventKind::Timer0,
        EventKind::Timer1,
        EventKind::Timer2,
        EventKind::RadioRx,
        EventKind::RadioTxDone,
        EventKind::SensorIrq,
        EventKind::SensorReply,
        EventKind::Soft,
    ];

    /// Index into the event-handler table (0–7).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Event kind from a table index.
    ///
    /// Returns `None` if `index >= 8`.
    pub fn from_index(index: usize) -> Option<EventKind> {
        EventKind::ALL.get(index).copied()
    }

    /// The event kind for a timer register number (0–2).
    ///
    /// Returns `None` for numbers ≥ 3.
    pub fn timer(n: u8) -> Option<EventKind> {
        match n {
            0 => Some(EventKind::Timer0),
            1 => Some(EventKind::Timer1),
            2 => Some(EventKind::Timer2),
            _ => None,
        }
    }

    /// `true` for the three timer events.
    pub fn is_timer(self) -> bool {
        matches!(
            self,
            EventKind::Timer0 | EventKind::Timer1 | EventKind::Timer2
        )
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::Timer0 => "timer0",
            EventKind::Timer1 => "timer1",
            EventKind::Timer2 => "timer2",
            EventKind::RadioRx => "radio-rx",
            EventKind::RadioTxDone => "radio-tx-done",
            EventKind::SensorIrq => "sensor-irq",
            EventKind::SensorReply => "sensor-reply",
            EventKind::Soft => "soft",
        };
        f.write_str(s)
    }
}

/// An event token as it sits in the hardware event queue.
///
/// The paper says each token "contains information that indicates which
/// event occurred"; we model that as the [`EventKind`] plus a small
/// payload (e.g. which timer was *cancelled* vs expired is tracked in
/// software per the paper, so the payload carries no such flag — it is
/// used by the simulator for tracing only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken {
    kind: EventKind,
}

impl EventToken {
    /// A token for the given event.
    pub fn new(kind: EventKind) -> EventToken {
        EventToken { kind }
    }

    /// Which event this token signals.
    pub fn kind(self) -> EventKind {
        self.kind
    }

    /// The handler-table index this token selects.
    pub fn table_index(self) -> usize {
        self.kind.index()
    }
}

impl From<EventKind> for EventToken {
    fn from(kind: EventKind) -> EventToken {
        EventToken::new(kind)
    }
}

impl fmt::Display for EventToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event<{}>", self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(EventKind::from_index(i), Some(kind));
        }
        assert_eq!(EventKind::from_index(8), None);
    }

    #[test]
    fn timer_events() {
        assert_eq!(EventKind::timer(0), Some(EventKind::Timer0));
        assert_eq!(EventKind::timer(2), Some(EventKind::Timer2));
        assert_eq!(EventKind::timer(3), None);
        for kind in EventKind::ALL {
            assert_eq!(kind.is_timer(), kind.index() < 3, "{kind}");
        }
    }

    #[test]
    fn token_carries_kind() {
        let t = EventToken::from(EventKind::RadioRx);
        assert_eq!(t.kind(), EventKind::RadioRx);
        assert_eq!(t.table_index(), 3);
        assert_eq!(t.to_string(), "event<radio-rx>");
    }
}
