//! Per-handler profiling.
//!
//! Table 1 reports statistics *per handler task*; this module
//! generalizes that: the core attributes every executed instruction to
//! the event whose handler is running (or to boot code), so a node can
//! report exactly where its instructions and picojoules go — e.g. "the
//! radio-rx handler ran 37 times for 1.2 k instructions and 260 nJ".

use dess::SimDuration;
use snap_energy::Energy;
use snap_isa::{EventKind, EVENT_TABLE_ENTRIES};
use snap_snapshot::{Decode, Encode, Reader, SnapshotError, Writer};

/// Accumulated statistics for one handler (or boot).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HandlerStats {
    /// Times this handler was dispatched.
    pub dispatches: u64,
    /// Dynamic instructions executed in it.
    pub instructions: u64,
    /// Energy it consumed.
    pub energy: Energy,
    /// Execution time it consumed.
    pub busy_time: SimDuration,
}

impl HandlerStats {
    /// Average instructions per dispatch (0 when never dispatched).
    pub fn instructions_per_dispatch(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.instructions as f64 / self.dispatches as f64
        }
    }

    /// Average energy per dispatch.
    pub fn energy_per_dispatch(&self) -> Energy {
        if self.dispatches == 0 {
            Energy::ZERO
        } else {
            self.energy / self.dispatches as f64
        }
    }
}

/// The per-handler profile: one bucket per event kind plus boot code.
#[derive(Debug, Clone, Default)]
pub struct HandlerProfile {
    boot: HandlerStats,
    per_event: [HandlerStats; EVENT_TABLE_ENTRIES],
}

impl HandlerProfile {
    /// A zeroed profile (boot counts as one dispatch).
    pub fn new() -> HandlerProfile {
        let mut p = HandlerProfile::default();
        p.boot.dispatches = 1;
        p
    }

    pub(crate) fn note_dispatch(&mut self, event: EventKind) {
        self.per_event[event.index()].dispatches += 1;
    }

    #[inline]
    pub(crate) fn note_instruction(
        &mut self,
        context: Option<EventKind>,
        energy: Energy,
        latency: SimDuration,
    ) {
        let bucket = match context {
            Some(ev) => &mut self.per_event[ev.index()],
            None => &mut self.boot,
        };
        bucket.instructions += 1;
        bucket.energy += energy;
        bucket.busy_time += latency;
    }

    /// The mutable bucket [`HandlerProfile::note_instruction`] would
    /// charge in `context` — resolved once per fused-trace replay so
    /// the per-instruction path skips the branch.
    #[inline]
    pub(crate) fn bucket_mut(&mut self, context: Option<EventKind>) -> &mut HandlerStats {
        match context {
            Some(ev) => &mut self.per_event[ev.index()],
            None => &mut self.boot,
        }
    }

    /// Statistics for boot code (everything outside any handler).
    pub fn boot(&self) -> HandlerStats {
        self.boot
    }

    /// Statistics for one event's handler.
    pub fn event(&self, event: EventKind) -> HandlerStats {
        self.per_event[event.index()]
    }

    /// Iterate `(event, stats)` for events that were dispatched.
    pub fn dispatched(&self) -> impl Iterator<Item = (EventKind, HandlerStats)> + '_ {
        EventKind::ALL
            .into_iter()
            .map(|ev| (ev, self.event(ev)))
            .filter(|(_, s)| s.dispatches > 0)
    }

    /// Total instructions across boot and all handlers (must equal the
    /// core's instruction count).
    pub fn total_instructions(&self) -> u64 {
        self.boot.instructions + self.per_event.iter().map(|s| s.instructions).sum::<u64>()
    }
}

impl Encode for HandlerStats {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.dispatches);
        w.u64(self.instructions);
        w.u64(self.energy.as_pj().to_bits());
        w.u64(self.busy_time.as_ps());
    }
}

impl Decode for HandlerStats {
    fn decode(r: &mut Reader) -> Result<HandlerStats, SnapshotError> {
        Ok(HandlerStats {
            dispatches: r.u64()?,
            instructions: r.u64()?,
            energy: Energy::from_pj(f64::from_bits(r.u64()?)),
            busy_time: SimDuration::from_ps(r.u64()?),
        })
    }
}

impl Encode for HandlerProfile {
    fn encode(&self, w: &mut Writer) {
        self.boot.encode(w);
        for stats in &self.per_event {
            stats.encode(w);
        }
    }
}

impl Decode for HandlerProfile {
    fn decode(r: &mut Reader) -> Result<HandlerProfile, SnapshotError> {
        let mut profile = HandlerProfile {
            boot: HandlerStats::decode(r)?,
            ..HandlerProfile::default()
        };
        for stats in &mut profile.per_event {
            *stats = HandlerStats::decode(r)?;
        }
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages() {
        let mut s = HandlerStats::default();
        assert_eq!(s.instructions_per_dispatch(), 0.0);
        assert_eq!(s.energy_per_dispatch(), Energy::ZERO);
        s.dispatches = 4;
        s.instructions = 40;
        s.energy = Energy::from_pj(800.0);
        assert_eq!(s.instructions_per_dispatch(), 10.0);
        assert!((s.energy_per_dispatch().as_pj() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn attribution_buckets() {
        let mut p = HandlerProfile::new();
        p.note_instruction(None, Energy::from_pj(1.0), SimDuration::from_ns(1));
        p.note_dispatch(EventKind::RadioRx);
        p.note_instruction(
            Some(EventKind::RadioRx),
            Energy::from_pj(2.0),
            SimDuration::from_ns(1),
        );
        p.note_instruction(
            Some(EventKind::RadioRx),
            Energy::from_pj(2.0),
            SimDuration::from_ns(1),
        );
        assert_eq!(p.boot().instructions, 1);
        assert_eq!(p.event(EventKind::RadioRx).instructions, 2);
        assert_eq!(p.event(EventKind::RadioRx).dispatches, 1);
        assert_eq!(p.total_instructions(), 3);
        assert_eq!(p.dispatched().count(), 1);
    }
}
