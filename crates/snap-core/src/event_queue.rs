//! The hardware event queue.
//!
//! The event queue is the centrepiece of SNAP's OS-free design (paper
//! §3.1): a FIFO of event tokens inserted by the timer and message
//! coprocessors and drained by instruction fetch at each `done`. Because
//! handlers run to completion, the queue also guarantees handler
//! atomicity — a new event can never preempt a running handler.
//!
//! The queue is finite; if a handler runs too long, pending events are
//! dropped (paper §4.2 raises exactly this concern when sizing
//! handlers). Drops are counted so benchmarks can report them.

use snap_isa::{EventKind, EventToken};
use snap_snapshot::{Encode, Reader, SnapshotError, Writer};
use std::collections::VecDeque;

/// Default queue capacity in tokens. The paper does not publish the
/// depth; eight matches the handler-table size and is configurable via
/// [`EventQueue::with_capacity`].
pub const DEFAULT_CAPACITY: usize = 8;

/// Stamp value for a token whose enqueue time is unknown (stamping was
/// off, or enabled after the token was queued). Waits computed against
/// it saturate to zero.
pub const UNKNOWN_STAMP: u64 = u64::MAX;

/// The hardware FIFO of pending event tokens.
///
/// When *stamping* is enabled (telemetry), a parallel queue records the
/// enqueue time of each token so the dispatch path can report how long
/// the token waited. Stamps are observation-only: they never affect
/// queue behaviour, ordering, capacity or drop accounting.
#[derive(Debug, Clone)]
pub struct EventQueue {
    fifo: VecDeque<EventToken>,
    capacity: usize,
    dropped: u64,
    inserted: u64,
    /// Highest occupancy ever reached (observation-only; not part of
    /// the snapshot wire format — restore resets it to the restored
    /// queue length).
    max_len: usize,
    /// Enqueue times (ps), parallel to `fifo`; `None` when stamping is
    /// off (the default — zero cost).
    stamps: Option<VecDeque<u64>>,
}

impl EventQueue {
    /// A queue with the default capacity.
    pub fn new() -> EventQueue {
        EventQueue::with_capacity(DEFAULT_CAPACITY)
    }

    /// A queue holding at most `capacity` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> EventQueue {
        assert!(capacity > 0, "event queue capacity must be positive");
        EventQueue {
            fifo: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
            inserted: 0,
            max_len: 0,
            stamps: None,
        }
    }

    /// Start recording enqueue times. Tokens already queued get
    /// [`UNKNOWN_STAMP`] (their waits will read as zero).
    pub fn enable_stamps(&mut self) {
        if self.stamps.is_none() {
            let mut stamps = VecDeque::with_capacity(self.capacity);
            stamps.extend(std::iter::repeat_n(UNKNOWN_STAMP, self.fifo.len()));
            self.stamps = Some(stamps);
        }
    }

    /// Whether enqueue times are being recorded.
    pub fn stamps_enabled(&self) -> bool {
        self.stamps.is_some()
    }

    /// Decode a queue. The capacity is config, so the caller supplies
    /// it; the high-water mark restarts at the restored length.
    pub(crate) fn decode(r: &mut Reader, capacity: usize) -> Result<EventQueue, SnapshotError> {
        let mut fifo = VecDeque::new();
        for _ in 0..r.len()? {
            let kind = EventKind::from_index(usize::from(r.u8()?))
                .ok_or(SnapshotError::Corrupt("event token index"))?;
            fifo.push_back(EventToken::new(kind));
        }
        if fifo.len() > capacity {
            return Err(SnapshotError::Corrupt("event queue overflow"));
        }
        let stamps = if r.bool()? {
            if r.len()? != fifo.len() {
                return Err(SnapshotError::Corrupt("stamp count"));
            }
            Some(fifo.iter().map(|_| r.u64()).collect::<Result<_, _>>()?)
        } else {
            None
        };
        Ok(EventQueue {
            max_len: fifo.len(),
            fifo,
            capacity,
            dropped: r.u64()?,
            inserted: r.u64()?,
            stamps,
        })
    }

    /// Insert a token at the tail. Returns `false` (and counts a drop)
    /// when the queue is full.
    pub fn push(&mut self, token: EventToken) -> bool {
        self.push_at(token, UNKNOWN_STAMP)
    }

    /// Insert a token at the tail, recording `now_ps` as its enqueue
    /// time when stamping is enabled. Returns `false` (and counts a
    /// drop) when the queue is full.
    pub fn push_at(&mut self, token: EventToken, now_ps: u64) -> bool {
        if self.fifo.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.inserted += 1;
        self.fifo.push_back(token);
        self.max_len = self.max_len.max(self.fifo.len());
        if let Some(stamps) = self.stamps.as_mut() {
            stamps.push_back(now_ps);
        }
        true
    }

    /// Remove the head token, if any.
    pub fn pop(&mut self) -> Option<EventToken> {
        self.pop_with_stamp().map(|(token, _)| token)
    }

    /// Remove the head token together with its enqueue time.
    ///
    /// The stamp is [`UNKNOWN_STAMP`] when stamping is disabled or was
    /// enabled after the token was queued.
    pub fn pop_with_stamp(&mut self) -> Option<(EventToken, u64)> {
        let token = self.fifo.pop_front()?;
        let stamp = match self.stamps.as_mut() {
            Some(stamps) => stamps.pop_front().unwrap_or(UNKNOWN_STAMP),
            None => UNKNOWN_STAMP,
        };
        Some((token, stamp))
    }

    /// The head token without removing it.
    pub fn peek(&self) -> Option<EventToken> {
        self.fifo.front().copied()
    }

    /// Number of pending tokens.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// `true` when no tokens are pending.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tokens dropped because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Tokens successfully inserted over the queue's lifetime.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// The high-water mark: the largest number of tokens ever pending
    /// at once. Dropped insertions do not raise it (the queue clips at
    /// capacity), so pair it with [`EventQueue::dropped`] when arguing
    /// about demand rather than occupancy.
    pub fn max_len(&self) -> usize {
        self.max_len
    }
}

impl Encode for EventQueue {
    fn encode(&self, w: &mut Writer) {
        w.len(self.fifo.len());
        for t in &self.fifo {
            w.u8(t.table_index() as u8);
        }
        w.bool(self.stamps.is_some());
        if let Some(stamps) = &self.stamps {
            w.len(stamps.len());
            for &s in stamps {
                w.u64(s);
            }
        }
        w.u64(self.dropped);
        w.u64(self.inserted);
    }
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_isa::EventKind;

    #[test]
    fn fifo_order() {
        let mut q = EventQueue::new();
        q.push(EventKind::Timer0.into());
        q.push(EventKind::RadioRx.into());
        assert_eq!(q.pop().unwrap().kind(), EventKind::Timer0);
        assert_eq!(q.pop().unwrap().kind(), EventKind::RadioRx);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut q = EventQueue::with_capacity(2);
        assert!(q.push(EventKind::Timer0.into()));
        assert!(q.push(EventKind::Timer1.into()));
        assert!(!q.push(EventKind::Timer2.into()));
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.inserted(), 2);
    }

    #[test]
    fn peek_is_nondestructive() {
        let mut q = EventQueue::new();
        q.push(EventKind::SensorIrq.into());
        assert_eq!(q.peek().unwrap().kind(), EventKind::SensorIrq);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = EventQueue::with_capacity(0);
    }

    #[test]
    fn stamps_track_enqueue_times() {
        let mut q = EventQueue::with_capacity(4);
        q.push(EventKind::Timer0.into()); // queued before stamping
        q.enable_stamps();
        q.push_at(EventKind::Timer1.into(), 500);
        q.push_at(EventKind::Timer2.into(), 900);
        let (t, s) = q.pop_with_stamp().unwrap();
        assert_eq!(t.kind(), EventKind::Timer0);
        assert_eq!(s, UNKNOWN_STAMP);
        let (t, s) = q.pop_with_stamp().unwrap();
        assert_eq!(t.kind(), EventKind::Timer1);
        assert_eq!(s, 500);
        // Plain pop keeps the stamp queue aligned.
        assert_eq!(q.pop().unwrap().kind(), EventKind::Timer2);
        assert!(q.pop_with_stamp().is_none());
    }

    #[test]
    fn stamps_not_recorded_on_drop() {
        let mut q = EventQueue::with_capacity(1);
        q.enable_stamps();
        assert!(q.push_at(EventKind::Timer0.into(), 1));
        assert!(!q.push_at(EventKind::Timer1.into(), 2));
        assert_eq!(q.pop_with_stamp().unwrap().1, 1);
        assert!(q.pop_with_stamp().is_none());
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut q = EventQueue::with_capacity(2);
        assert_eq!(q.max_len(), 0);
        q.push(EventKind::Timer0.into());
        q.pop();
        q.push(EventKind::Timer1.into());
        assert_eq!(q.max_len(), 1, "draining does not lower the mark");
        q.push(EventKind::Timer2.into());
        assert!(!q.push(EventKind::Soft.into()), "third push drops");
        assert_eq!(q.max_len(), 2, "drops never raise the mark past capacity");
    }

    #[test]
    fn drained_queue_accepts_again() {
        let mut q = EventQueue::with_capacity(1);
        assert!(q.push(EventKind::Timer0.into()));
        assert!(!q.push(EventKind::Timer1.into()));
        q.pop();
        assert!(q.push(EventKind::Timer2.into()));
        assert_eq!(q.dropped(), 1);
    }
}
