//! The timer coprocessor.
//!
//! Three self-decrementing 24-bit timer registers (paper §3.2). The core
//! schedules a timeout with `schedhi` (top 8 bits) followed by `schedlo`
//! (low 16 bits — this write starts the countdown). When a register
//! reaches zero the coprocessor inserts an event token. Cancelling an
//! *active* register also inserts a token — the paper's rule for
//! avoiding the cancel/expiry race; software tracks which timers it has
//! cancelled. Cancelling an inactive register (one that already expired
//! and whose token is already in flight) inserts nothing, so software
//! always sees exactly one token per scheduled timeout.
//!
//! Idle timer registers have no switching activity; only the countdown
//! itself consumes energy, which the simulator folds into the idle
//! leakage placeholder.

use dess::{SimDuration, SimTime};
use snap_isa::EventKind;
use snap_snapshot::{Encode, Reader, SnapshotError, Writer};

/// Number of timer registers.
pub const NUM_TIMERS: usize = 3;

/// Maximum 24-bit countdown value.
pub const MAX_COUNT: u32 = 0x00ff_ffff;

#[derive(Debug, Clone, Copy, Default)]
struct TimerReg {
    /// Top 8 bits staged by `schedhi`, consumed by the next `schedlo`.
    staged_hi: u8,
    /// Absolute expiry time while the register is decrementing.
    expiry: Option<SimTime>,
}

/// The three-register timer coprocessor.
#[derive(Debug, Clone)]
pub struct TimerCoprocessor {
    tick: SimDuration,
    timers: [TimerReg; NUM_TIMERS],
    scheduled: u64,
    expired: u64,
    cancelled: u64,
}

impl TimerCoprocessor {
    /// A coprocessor whose registers decrement once per `tick`.
    ///
    /// The paper notes the decrement frequency "can be calibrated against
    /// a precise timing reference"; the node default is 1 µs per tick.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero.
    pub fn new(tick: SimDuration) -> TimerCoprocessor {
        assert!(!tick.is_zero(), "timer tick must be positive");
        TimerCoprocessor {
            tick,
            timers: [TimerReg::default(); NUM_TIMERS],
            scheduled: 0,
            expired: 0,
            cancelled: 0,
        }
    }

    /// The decrement period.
    pub fn tick(&self) -> SimDuration {
        self.tick
    }

    /// `schedhi`: stage the top 8 bits of timer `n`'s countdown.
    ///
    /// Returns `false` when `n` is not a valid timer number.
    pub fn sched_hi(&mut self, n: u16, value: u16) -> bool {
        let Some(t) = self.timers.get_mut(n as usize) else {
            return false;
        };
        t.staged_hi = (value & 0xff) as u8;
        true
    }

    /// `schedlo`: set the low 16 bits and start timer `n` counting down
    /// from `(staged_hi << 16) | value` at time `now`.
    ///
    /// A zero count expires on the next poll. Returns `false` when `n` is
    /// not a valid timer number.
    pub fn sched_lo(&mut self, n: u16, value: u16, now: SimTime) -> bool {
        let tick = self.tick;
        let Some(t) = self.timers.get_mut(n as usize) else {
            return false;
        };
        let count = ((t.staged_hi as u32) << 16) | value as u32;
        t.expiry = Some(now + tick * count as u64);
        self.scheduled += 1;
        true
    }

    /// `cancel`: stop timer `n`. Returns the cancellation token's event
    /// kind when the timer was active (the paper's always-token rule);
    /// `None` when it was inactive or `n` is invalid.
    pub fn cancel(&mut self, n: u16) -> Option<EventKind> {
        let t = self.timers.get_mut(n as usize)?;
        if t.expiry.take().is_some() {
            self.cancelled += 1;
            EventKind::timer(n as u8)
        } else {
            None
        }
    }

    /// Collect expiry tokens for every timer whose countdown has reached
    /// zero at `now`. Each expired register is deactivated.
    pub fn poll(&mut self, now: SimTime) -> Vec<EventKind> {
        let mut fired = Vec::new();
        for (n, t) in self.timers.iter_mut().enumerate() {
            if let Some(at) = t.expiry {
                if at <= now {
                    t.expiry = None;
                    self.expired += 1;
                    fired.push(EventKind::timer(n as u8).expect("n < 3"));
                }
            }
        }
        fired
    }

    /// The earliest pending expiry, if any register is active.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.timers.iter().filter_map(|t| t.expiry).min()
    }

    /// `true` when some active timer has expired at or before `now`
    /// (what [`TimerCoprocessor::poll`] would fire), without allocating.
    #[inline]
    pub fn any_due(&self, now: SimTime) -> bool {
        self.timers
            .iter()
            .any(|t| t.expiry.is_some_and(|at| at <= now))
    }

    /// `true` when timer `n` is actively counting down.
    pub fn is_active(&self, n: u16) -> bool {
        self.timers
            .get(n as usize)
            .is_some_and(|t| t.expiry.is_some())
    }

    /// Timeouts scheduled over the coprocessor's lifetime.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Timeouts that expired.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Timeouts that were cancelled while active.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Decode the registers and counters; the tick is config, so the
    /// caller supplies it.
    pub(crate) fn decode(
        r: &mut Reader,
        tick: SimDuration,
    ) -> Result<TimerCoprocessor, SnapshotError> {
        if r.len()? != NUM_TIMERS {
            return Err(SnapshotError::Corrupt("timer register count"));
        }
        let mut cop = TimerCoprocessor::new(tick);
        for t in &mut cop.timers {
            t.staged_hi = r.u8()?;
            t.expiry = r.opt_u64()?.map(SimTime::from_ps);
        }
        cop.scheduled = r.u64()?;
        cop.expired = r.u64()?;
        cop.cancelled = r.u64()?;
        Ok(cop)
    }
}

impl Encode for TimerCoprocessor {
    fn encode(&self, w: &mut Writer) {
        w.len(NUM_TIMERS);
        for t in &self.timers {
            w.u8(t.staged_hi);
            w.opt_u64(t.expiry.map(SimTime::as_ps));
        }
        w.u64(self.scheduled);
        w.u64(self.expired);
        w.u64(self.cancelled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cop() -> TimerCoprocessor {
        TimerCoprocessor::new(SimDuration::from_us(1))
    }

    #[test]
    fn schedule_and_expire() {
        let mut c = cop();
        let t0 = SimTime::ZERO;
        assert!(c.sched_hi(0, 0));
        assert!(c.sched_lo(0, 100, t0)); // 100 us
        assert!(c.is_active(0));
        assert_eq!(c.next_expiry(), Some(t0 + SimDuration::from_us(100)));
        assert!(c.poll(t0 + SimDuration::from_us(99)).is_empty());
        let fired = c.poll(t0 + SimDuration::from_us(100));
        assert_eq!(fired, vec![EventKind::Timer0]);
        assert!(!c.is_active(0));
        assert_eq!(c.expired(), 1);
    }

    #[test]
    fn high_bits_extend_range() {
        let mut c = cop();
        c.sched_hi(1, 0x02); // 0x020000 ticks = 131072 us
        c.sched_lo(1, 0x0000, SimTime::ZERO);
        assert_eq!(
            c.next_expiry(),
            Some(SimTime::ZERO + SimDuration::from_us(0x0002_0000))
        );
    }

    #[test]
    fn staged_hi_survives_until_schedlo() {
        let mut c = cop();
        c.sched_hi(2, 0xff);
        // Unrelated activity on another timer must not disturb timer 2.
        c.sched_hi(0, 1);
        c.sched_lo(0, 0, SimTime::ZERO);
        c.sched_lo(2, 0xffff, SimTime::ZERO);
        // Timer 0 (0x010000 ticks) expires long before timer 2 (0xffffff).
        assert_eq!(
            c.next_expiry().unwrap(),
            SimTime::ZERO + SimDuration::from_us(0x0001_0000)
        );
        let fired = c.poll(SimTime::ZERO + SimDuration::from_us(0x0001_0000));
        assert_eq!(fired, vec![EventKind::Timer0]);
        assert!(c.is_active(2), "timer 2 keeps its staged high bits");
    }

    #[test]
    fn cancel_active_yields_token() {
        let mut c = cop();
        c.sched_lo(0, 500, SimTime::ZERO);
        assert_eq!(c.cancel(0), Some(EventKind::Timer0));
        assert!(!c.is_active(0));
        assert_eq!(c.cancelled(), 1);
        // Cancelled timers never expire.
        assert!(c.poll(SimTime::ZERO + SimDuration::from_secs(1)).is_empty());
    }

    #[test]
    fn cancel_inactive_yields_nothing() {
        let mut c = cop();
        assert_eq!(c.cancel(1), None);
        c.sched_lo(1, 1, SimTime::ZERO);
        c.poll(SimTime::ZERO + SimDuration::from_us(1));
        // Already expired: the expiry token is in flight; no second token.
        assert_eq!(c.cancel(1), None);
    }

    #[test]
    fn invalid_timer_numbers_rejected() {
        let mut c = cop();
        assert!(!c.sched_hi(3, 0));
        assert!(!c.sched_lo(7, 1, SimTime::ZERO));
        assert_eq!(c.cancel(3), None);
        assert!(!c.is_active(3));
    }

    #[test]
    fn zero_count_fires_immediately() {
        let mut c = cop();
        c.sched_lo(0, 0, SimTime::from_ps(5));
        assert_eq!(c.poll(SimTime::from_ps(5)), vec![EventKind::Timer0]);
    }

    #[test]
    fn three_timers_are_independent() {
        let mut c = cop();
        c.sched_lo(0, 30, SimTime::ZERO);
        c.sched_lo(1, 10, SimTime::ZERO);
        c.sched_lo(2, 20, SimTime::ZERO);
        let fired = c.poll(SimTime::ZERO + SimDuration::from_us(20));
        assert_eq!(fired, vec![EventKind::Timer1, EventKind::Timer2]);
        assert!(c.is_active(0));
        assert_eq!(c.scheduled(), 3);
    }
}
