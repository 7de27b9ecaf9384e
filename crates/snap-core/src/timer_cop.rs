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

/// The decrement period of every timer register. The paper notes the
/// decrement frequency "can be calibrated against a precise timing
/// reference"; the simulated hardware ticks once per microsecond.
pub const TICK: SimDuration = SimDuration::from_us(1);

/// The three-register timer coprocessor.
#[derive(Debug, Clone, Default)]
pub struct TimerCoprocessor {
    /// Each register's absolute expiry time while it is decrementing.
    expiry: [Option<SimTime>; NUM_TIMERS],
    /// The earliest of `expiry`. The core asks for it around every
    /// instruction, so every call that changes `expiry` recomputes it
    /// and the asking is one load. Derived state: never encoded.
    next: Option<SimTime>,
    /// Top 8 bits staged by `schedhi`, consumed by the next `schedlo`.
    staged_hi: [u8; NUM_TIMERS],
    scheduled: u64,
    expired: u64,
    cancelled: u64,
}

impl TimerCoprocessor {
    /// `schedhi`: stage the top 8 bits of timer `n`'s countdown.
    ///
    /// Returns `false` when `n` is not a valid timer number.
    pub fn sched_hi(&mut self, n: u16, value: u16) -> bool {
        let Some(hi) = self.staged_hi.get_mut(n as usize) else {
            return false;
        };
        *hi = (value & 0xff) as u8;
        true
    }

    /// `schedlo`: set the low 16 bits and start timer `n` counting down
    /// from `(staged_hi << 16) | value` at time `now`.
    ///
    /// A zero count expires on the next poll. Returns `false` when `n` is
    /// not a valid timer number.
    pub fn sched_lo(&mut self, n: u16, value: u16, now: SimTime) -> bool {
        let n = n as usize;
        if n >= NUM_TIMERS {
            return false;
        }
        let count = ((self.staged_hi[n] as u32) << 16) | value as u32;
        self.expiry[n] = Some(now + TICK * count as u64);
        self.scheduled += 1;
        self.refresh();
        true
    }

    /// `cancel`: stop timer `n`. Returns the cancellation token's event
    /// kind when the timer was active (the paper's always-token rule);
    /// `None` when it was inactive or `n` is invalid.
    pub fn cancel(&mut self, n: u16) -> Option<EventKind> {
        self.expiry.get_mut(n as usize)?.take()?;
        self.cancelled += 1;
        self.refresh();
        EventKind::timer(n as u8)
    }

    /// Fire every timer whose countdown has reached zero at `now`: each
    /// expired register is deactivated and its token handed to `fire`,
    /// in timer-number order. Allocates nothing, and costs one compare
    /// when no timer is due.
    #[inline]
    pub fn poll(&mut self, now: SimTime, mut fire: impl FnMut(EventKind)) {
        if !self.any_due(now) {
            return;
        }
        for (n, slot) in self.expiry.iter_mut().enumerate() {
            if slot.is_some_and(|at| at <= now) {
                *slot = None;
                self.expired += 1;
                fire(EventKind::timer(n as u8).expect("n < 3"));
            }
        }
        self.refresh();
    }

    /// Recompute the cached earliest expiry.
    fn refresh(&mut self) {
        self.next = self.expiry.iter().flatten().min().copied();
    }

    /// The earliest pending expiry, if any register is active.
    #[inline]
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.next
    }

    /// `true` when some active timer has expired at or before `now`
    /// (what [`TimerCoprocessor::poll`] would fire).
    #[inline]
    pub fn any_due(&self, now: SimTime) -> bool {
        self.next.is_some_and(|at| at <= now)
    }

    /// `true` when timer `n` is actively counting down.
    pub fn is_active(&self, n: u16) -> bool {
        self.expiry.get(n as usize).is_some_and(Option::is_some)
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

    /// Decode the registers and counters.
    pub(crate) fn decode(r: &mut Reader) -> Result<TimerCoprocessor, SnapshotError> {
        let mut cop = TimerCoprocessor::default();
        for n in 0..NUM_TIMERS {
            cop.staged_hi[n] = r.u8()?;
            cop.expiry[n] = r.opt_u64()?.map(SimTime::from_ps);
        }
        cop.scheduled = r.quantity()?;
        cop.expired = r.quantity()?;
        cop.cancelled = r.quantity()?;
        cop.refresh();
        Ok(cop)
    }
}

impl Encode for TimerCoprocessor {
    fn encode(&self, w: &mut Writer) {
        for n in 0..NUM_TIMERS {
            w.u8(self.staged_hi[n]);
            w.opt_u64(self.expiry[n].map(SimTime::as_ps));
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
        TimerCoprocessor::default()
    }

    /// The tokens `poll` fires at `now`, in order.
    fn poll(c: &mut TimerCoprocessor, now: SimTime) -> Vec<EventKind> {
        let mut fired = Vec::new();
        c.poll(now, |ev| fired.push(ev));
        fired
    }

    #[test]
    fn schedule_and_expire() {
        let mut c = cop();
        let t0 = SimTime::ZERO;
        assert!(c.sched_hi(0, 0));
        assert!(c.sched_lo(0, 100, t0)); // 100 us
        assert!(c.is_active(0));
        assert_eq!(c.next_expiry(), Some(t0 + SimDuration::from_us(100)));
        assert!(poll(&mut c, t0 + SimDuration::from_us(99)).is_empty());
        let fired = poll(&mut c, t0 + SimDuration::from_us(100));
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
        let fired = poll(&mut c, SimTime::ZERO + SimDuration::from_us(0x0001_0000));
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
        assert!(poll(&mut c, SimTime::ZERO + SimDuration::from_secs(1)).is_empty());
    }

    #[test]
    fn cancel_inactive_yields_nothing() {
        let mut c = cop();
        assert_eq!(c.cancel(1), None);
        c.sched_lo(1, 1, SimTime::ZERO);
        poll(&mut c, SimTime::ZERO + SimDuration::from_us(1));
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
        assert_eq!(poll(&mut c, SimTime::from_ps(5)), vec![EventKind::Timer0]);
    }

    #[test]
    fn three_timers_are_independent() {
        let mut c = cop();
        c.sched_lo(0, 30, SimTime::ZERO);
        c.sched_lo(1, 10, SimTime::ZERO);
        c.sched_lo(2, 20, SimTime::ZERO);
        let fired = poll(&mut c, SimTime::ZERO + SimDuration::from_us(20));
        assert_eq!(fired, vec![EventKind::Timer1, EventKind::Timer2]);
        assert!(c.is_active(0));
        assert_eq!(c.scheduled(), 3);
    }

    #[test]
    fn cached_expiry_matches_a_full_scan() {
        let mut c = cop();
        let mut now = SimTime::ZERO;
        let mut state = 0x9e37_79b9_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..5_000 {
            let n = (next() % 4) as u16; // 3 is invalid: must change nothing
            match next() % 5 {
                0 => {
                    c.sched_hi(n, (next() % 3) as u16);
                }
                1 | 2 => {
                    c.sched_lo(n, (next() % 200) as u16, now);
                }
                3 => {
                    c.cancel(n);
                }
                _ => {
                    now += SimDuration::from_us(next() % 150);
                    let due: Vec<EventKind> = (0..NUM_TIMERS)
                        .filter(|&k| c.expiry[k].is_some_and(|at| at <= now))
                        .map(|k| EventKind::timer(k as u8).unwrap())
                        .collect();
                    assert_eq!(c.any_due(now), !due.is_empty());
                    assert_eq!(poll(&mut c, now), due, "timer-number order");
                }
            }
            let scan = c.expiry.iter().flatten().min().copied();
            assert_eq!(c.next_expiry(), scan);
        }
        assert!(c.expired() > 0 && c.cancelled() > 0);
    }
}
