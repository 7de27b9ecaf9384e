//! The hardware event queue.
//!
//! The event queue is the centrepiece of SNAP's OS-free design (paper
//! §3.1): a FIFO of event tokens inserted by the timer and message
//! coprocessors and drained by instruction fetch at each `done`. Because
//! handlers run to completion, the queue also guarantees handler
//! atomicity — a new event can never preempt a running handler.
//!
//! The queue holds [`EVENT_QUEUE_DEPTH`] tokens; if a handler runs too
//! long, pending events are dropped (paper §4.2 raises exactly this
//! concern when sizing handlers). Drops are counted so benchmarks can
//! report them.

use snap_isa::{EventKind, EventToken, EVENT_QUEUE_DEPTH};
use snap_snapshot::{Encode, Reader, SnapshotError, Writer};
use std::collections::VecDeque;

/// Stamp value for a token whose enqueue time is unknown (stamping was
/// off, or enabled after the token was queued). Waits computed against
/// it saturate to zero.
pub const UNKNOWN_STAMP: u64 = u64::MAX;

/// The hardware FIFO of pending event tokens.
///
/// When *stamping* is enabled (telemetry), a parallel queue records the
/// enqueue time of each token so the dispatch path can report how long
/// the token waited. Stamps are observation-only: they never affect
/// queue behaviour, ordering or drop accounting.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    fifo: VecDeque<EventToken>,
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
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Start recording enqueue times. Tokens already queued get
    /// [`UNKNOWN_STAMP`] (their waits will read as zero).
    pub fn enable_stamps(&mut self) {
        if self.stamps.is_none() {
            self.stamps = Some(std::iter::repeat_n(UNKNOWN_STAMP, self.fifo.len()).collect());
        }
    }

    /// Decode a queue; the high-water mark restarts at the restored
    /// length.
    pub(crate) fn decode(r: &mut Reader) -> Result<EventQueue, SnapshotError> {
        let mut fifo = VecDeque::new();
        for _ in 0..r.len()? {
            let kind = EventKind::from_index(usize::from(r.u8()?))
                .ok_or(SnapshotError::Corrupt("event token index"))?;
            fifo.push_back(EventToken::new(kind));
        }
        if fifo.len() > EVENT_QUEUE_DEPTH {
            return Err(SnapshotError::Corrupt("event queue overflow"));
        }
        // One stamp per token: the queue length fixes their count.
        let stamps = if r.bool()? {
            Some(fifo.iter().map(|_| r.u64()).collect::<Result<_, _>>()?)
        } else {
            None
        };
        Ok(EventQueue {
            max_len: fifo.len(),
            fifo,
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
        if self.fifo.len() >= EVENT_QUEUE_DEPTH {
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
    /// its depth), so pair it with [`EventQueue::dropped`] when arguing
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
            for &s in stamps {
                w.u64(s);
            }
        }
        w.u64(self.dropped);
        w.u64(self.inserted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_isa::EventKind;

    /// A queue holding `EVENT_QUEUE_DEPTH` timer-0 tokens, stamped
    /// 0, 1, 2, ... when stamping is on.
    fn full(stamped: bool) -> EventQueue {
        let mut q = EventQueue::new();
        if stamped {
            q.enable_stamps();
        }
        for at in 0..EVENT_QUEUE_DEPTH as u64 {
            assert!(q.push_at(EventKind::Timer0.into(), at));
        }
        q
    }

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
        let mut q = full(false);
        assert!(!q.push(EventKind::Timer2.into()));
        assert_eq!(q.len(), EVENT_QUEUE_DEPTH);
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.inserted(), EVENT_QUEUE_DEPTH as u64);
    }

    #[test]
    fn peek_is_nondestructive() {
        let mut q = EventQueue::new();
        q.push(EventKind::SensorIrq.into());
        assert_eq!(q.peek().unwrap().kind(), EventKind::SensorIrq);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn stamps_track_enqueue_times() {
        let mut q = EventQueue::new();
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
        let mut q = full(true);
        assert!(!q.push_at(EventKind::Timer1.into(), 99));
        for at in 0..EVENT_QUEUE_DEPTH as u64 {
            assert_eq!(q.pop_with_stamp().unwrap().1, at);
        }
        assert!(q.pop_with_stamp().is_none());
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut q = EventQueue::new();
        assert_eq!(q.max_len(), 0);
        q.push(EventKind::Timer0.into());
        q.pop();
        q.push(EventKind::Timer1.into());
        assert_eq!(q.max_len(), 1, "draining does not lower the mark");
        let mut q = full(false);
        assert!(
            !q.push(EventKind::Soft.into()),
            "a push past the depth drops"
        );
        assert_eq!(
            q.max_len(),
            EVENT_QUEUE_DEPTH,
            "drops never raise the mark past the depth"
        );
    }

    #[test]
    fn decode_rejects_more_tokens_than_the_depth() {
        let mut bytes = full(false).encoded();
        // The token count leads, then one byte per token.
        bytes[..8].copy_from_slice(&(EVENT_QUEUE_DEPTH as u64 + 1).to_le_bytes());
        bytes.insert(8, EventKind::Timer1.index() as u8);
        let err = EventQueue::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert_eq!(err, SnapshotError::Corrupt("event queue overflow"));
    }

    #[test]
    fn drained_queue_accepts_again() {
        let mut q = full(false);
        assert!(!q.push(EventKind::Timer1.into()));
        q.pop();
        assert!(q.push(EventKind::Timer2.into()));
        assert_eq!(q.dropped(), 1);
    }
}
