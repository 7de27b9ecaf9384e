//! The broadcast radio channel with collision detection.
//!
//! Every transmission occupies the air for one word time (≈833 µs at
//! 19.2 kbps). A receiver hears a word only if exactly one audible
//! transmission overlapped the word's air time — two overlapping
//! audible transmissions garble each other (the standard disc-model
//! collision rule; the MAC's random backoff exists to avoid this).

use dess::{SimTime, SplitMix64};
use snap_isa::Word;
use snap_node::NodeId;
use snap_snapshot::{Decode, Encode, Reader, SnapshotError, Writer};

/// One word on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// The transmitting node.
    pub from: NodeId,
    /// The word.
    pub word: Word,
    /// Serialization start.
    pub start: SimTime,
    /// Serialization end (delivery instant).
    pub end: SimTime,
}

impl Transmission {
    /// `true` when two transmissions overlap in time.
    pub fn overlaps(&self, other: &Transmission) -> bool {
        self.start < other.end && other.start < self.end
    }
}

impl Encode for Transmission {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.from.0);
        w.u16(self.word);
        w.u64(self.start.as_ps());
        w.u64(self.end.as_ps());
    }
}

impl Decode for Transmission {
    fn decode(r: &mut Reader) -> Result<Transmission, SnapshotError> {
        Ok(Transmission {
            from: NodeId(r.u32()?),
            word: r.u16()?,
            start: SimTime::from_ps(r.u64()?),
            end: SimTime::from_ps(r.u64()?),
        })
    }
}

/// The channel: a log of recent transmissions for collision checks,
/// plus an optional random per-word loss (fading) model.
#[derive(Debug, Clone)]
pub struct Channel {
    active: Vec<Transmission>,
    collisions: u64,
    deliveries: u64,
    faded: u64,
    loss_probability: f64,
    rng: SplitMix64,
}

impl Default for Channel {
    fn default() -> Channel {
        Channel::new()
    }
}

impl Channel {
    /// An idle, lossless channel.
    pub fn new() -> Channel {
        Channel {
            active: Vec::new(),
            collisions: 0,
            deliveries: 0,
            faded: 0,
            loss_probability: 0.0,
            rng: SplitMix64::new(0x10_55),
        }
    }

    /// Add independent per-word, per-receiver random loss ("fading").
    /// Deterministic for a given seed.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= probability <= 1.0`.
    pub fn with_loss(mut self, probability: f64, seed: u64) -> Channel {
        self.set_loss(probability, seed);
        self
    }

    /// Enable random per-word loss in place: statistics and in-flight
    /// transmissions are preserved, only the fading model is replaced.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= probability <= 1.0`.
    pub fn set_loss(&mut self, probability: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&probability), "probability in [0, 1]");
        self.loss_probability = probability;
        self.rng = SplitMix64::new(seed);
    }

    /// Draw the fading dice for one word at one receiver. Returns
    /// `true` when the word fades away (and counts it).
    pub fn fades(&mut self) -> bool {
        if self.loss_probability == 0.0 {
            return false;
        }
        let lost = self.rng.next_f64() < self.loss_probability;
        if lost {
            self.faded += 1;
        }
        lost
    }

    /// Words lost to fading.
    pub fn faded(&self) -> u64 {
        self.faded
    }

    /// Record a transmission going on the air.
    pub fn transmit(&mut self, tx: Transmission) {
        self.active.push(tx);
    }

    /// Would `tx` be received cleanly by a listener that hears all of
    /// `audible_from`? Checks for any *other* audible transmission
    /// overlapping `tx` in time. `audible_from` must be id-sorted (the
    /// topology's cached neighbour lists are), so the audibility test
    /// is a binary search instead of a linear scan.
    pub fn is_clean(&self, tx: &Transmission, audible_from: &[NodeId]) -> bool {
        debug_assert!(audible_from.is_sorted());
        !self.active.iter().any(|other| {
            other != tx && audible_from.binary_search(&other.from).is_ok() && tx.overlaps(other)
        })
    }

    /// Account a clean delivery.
    pub fn note_delivery(&mut self) {
        self.deliveries += 1;
    }

    /// Account a collision-garbled word.
    pub fn note_collision(&mut self) {
        self.collisions += 1;
    }

    /// Drop transmissions that ended before `now` (no longer able to
    /// collide with anything in flight).
    pub fn expire(&mut self, now: SimTime) {
        self.active.retain(|t| t.end >= now);
    }

    /// Words delivered cleanly.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Words garbled by collisions.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }
}

impl Encode for Channel {
    fn encode(&self, w: &mut Writer) {
        w.seq(&self.active);
        w.u64(self.collisions);
        w.u64(self.deliveries);
        w.u64(self.faded);
        w.u64(self.loss_probability.to_bits());
        w.u64(self.rng.state());
    }
}

/// `SplitMix64::new` keeps the state verbatim: the fade dice resume
/// exactly.
impl Decode for Channel {
    fn decode(r: &mut Reader) -> Result<Channel, SnapshotError> {
        let active = r.seq()?;
        let collisions = r.u64()?;
        let deliveries = r.u64()?;
        let faded = r.u64()?;
        let loss_probability = f64::from_bits(r.u64()?);
        if !(0.0..=1.0).contains(&loss_probability) {
            return Err(SnapshotError::Corrupt("channel loss probability"));
        }
        Ok(Channel {
            active,
            collisions,
            deliveries,
            faded,
            loss_probability,
            rng: SplitMix64::new(r.u64()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dess::SimDuration;

    fn tx(from: u32, start_us: u64, end_us: u64) -> Transmission {
        Transmission {
            from: NodeId(from),
            word: 0xabcd,
            start: SimTime::ZERO + SimDuration::from_us(start_us),
            end: SimTime::ZERO + SimDuration::from_us(end_us),
        }
    }

    #[test]
    fn overlap_rules() {
        assert!(tx(1, 0, 833).overlaps(&tx(2, 100, 933)));
        assert!(
            !tx(1, 0, 833).overlaps(&tx(2, 833, 1666)),
            "back-to-back is clean"
        );
        assert!(tx(1, 0, 833).overlaps(&tx(2, 832, 1665)));
    }

    #[test]
    fn clean_when_alone() {
        let mut ch = Channel::new();
        let t = tx(1, 0, 833);
        ch.transmit(t);
        assert!(ch.is_clean(&t, &[NodeId(1), NodeId(2)]));
    }

    #[test]
    fn collision_when_overlapping_audible() {
        let mut ch = Channel::new();
        let t1 = tx(1, 0, 833);
        let t2 = tx(2, 400, 1233);
        ch.transmit(t1);
        ch.transmit(t2);
        assert!(!ch.is_clean(&t1, &[NodeId(1), NodeId(2)]));
        assert!(!ch.is_clean(&t2, &[NodeId(1), NodeId(2)]));
    }

    #[test]
    fn hidden_transmitter_does_not_collide() {
        // The overlapping transmitter is out of the receiver's range.
        let mut ch = Channel::new();
        let t1 = tx(1, 0, 833);
        let t2 = tx(3, 400, 1233);
        ch.transmit(t1);
        ch.transmit(t2);
        assert!(ch.is_clean(&t1, &[NodeId(1)]), "node 3 is inaudible here");
    }

    #[test]
    fn expiry_prunes_history() {
        let mut ch = Channel::new();
        ch.transmit(tx(1, 0, 833));
        ch.transmit(tx(2, 2000, 2833));
        ch.expire(SimTime::ZERO + SimDuration::from_us(1500));
        let t3 = tx(3, 100, 933);
        assert!(ch.is_clean(&t3, &[NodeId(1), NodeId(2), NodeId(3)]));
    }
}
