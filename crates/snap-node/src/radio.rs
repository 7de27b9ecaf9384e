//! The RFM TR1000-class radio transceiver model.
//!
//! The paper's first prototype uses the RFM TR1000 (as in the Berkeley
//! Motes): a ≈19.2 kbps serial radio with mode-select control pins. The
//! message coprocessor does all bit/word conversion, so the model works
//! in whole 16-bit words: a transmission occupies the air for
//! `16 / bit_rate` seconds (≈833 µs at 19.2 kbps).

use dess::{SimDuration, SimTime};
use snap_isa::Word;
use snap_snapshot::{Decode, Encode, Reader, SnapshotError, Writer};

/// Bits per radio word (the datapath width).
pub const WORD_BITS: u32 = 16;

/// Default bit rate in bits/second (paper §3.3: "around 19.2kbps").
pub const DEFAULT_BIT_RATE: f64 = 19_200.0;

/// Transceiver mode.
///
/// The discriminants are pinned: snapshots store them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioMode {
    /// Powered down: neither receives nor transmits.
    Off = 0,
    /// Receiver enabled.
    Rx = 1,
    /// Serializing a word onto the air (returns to `Rx` when done).
    Tx = 2,
}

impl Encode for RadioMode {
    fn encode(&self, w: &mut Writer) {
        w.u8(*self as u8);
    }
}

impl Decode for RadioMode {
    fn decode(r: &mut Reader) -> Result<RadioMode, SnapshotError> {
        let variants = [RadioMode::Off, RadioMode::Rx, RadioMode::Tx];
        r.variant(&variants, "radio mode discriminant")
    }
}

/// The radio transceiver.
#[derive(Debug, Clone)]
pub struct Radio {
    bit_rate: f64,
    mode: RadioMode,
    tx_done_at: Option<SimTime>,
    tx_word: Option<Word>,
    words_sent: u64,
    words_heard: u64,
}

impl Radio {
    /// A radio at the default 19.2 kbps, initially off.
    pub fn new() -> Radio {
        Radio::with_bit_rate(DEFAULT_BIT_RATE)
    }

    /// A radio at a custom bit rate.
    ///
    /// # Panics
    ///
    /// Panics unless `bit_rate` is positive.
    pub fn with_bit_rate(bit_rate: f64) -> Radio {
        assert!(bit_rate > 0.0, "bit rate must be positive");
        Radio {
            bit_rate,
            mode: RadioMode::Off,
            tx_done_at: None,
            tx_word: None,
            words_sent: 0,
            words_heard: 0,
        }
    }

    /// Time on air for one 16-bit word.
    pub fn word_time(&self) -> SimDuration {
        SimDuration::from_ns_f64(WORD_BITS as f64 / self.bit_rate * 1e9)
    }

    /// The current mode.
    pub fn mode(&self) -> RadioMode {
        self.mode
    }

    /// Enable the receiver (`RadioRxOn`) or power down (`RadioOff`).
    /// Mode changes during a transmission are ignored; the in-flight
    /// word completes and the radio returns to receive mode.
    pub fn set_enabled(&mut self, enabled: bool) {
        if self.mode != RadioMode::Tx {
            self.mode = if enabled {
                RadioMode::Rx
            } else {
                RadioMode::Off
            };
        }
    }

    /// Begin transmitting `word` at `now`.
    ///
    /// Returns the completion time, or `None` when a transmission is
    /// already in flight (the MAC must wait for `RadioTxDone`).
    pub fn start_tx(&mut self, word: Word, now: SimTime) -> Option<SimTime> {
        if self.tx_done_at.is_some() {
            return None;
        }
        let done = now + self.word_time();
        self.mode = RadioMode::Tx;
        self.tx_done_at = Some(done);
        self.tx_word = Some(word);
        self.words_sent += 1;
        Some(done)
    }

    /// Complete the in-flight transmission; returns the word that was on
    /// the air. The radio returns to receive mode.
    ///
    /// # Panics
    ///
    /// Panics if no transmission is in flight.
    pub fn finish_tx(&mut self) -> Word {
        self.tx_done_at
            .take()
            .expect("finish_tx without a transmission in flight");
        self.mode = RadioMode::Rx;
        self.tx_word.take().expect("tx word recorded at start_tx")
    }

    /// When the in-flight transmission completes, if any.
    pub fn tx_done_at(&self) -> Option<SimTime> {
        self.tx_done_at
    }

    /// `true` when a word arriving now would be heard (receiver on and
    /// not transmitting — the TR1000 is half-duplex).
    pub fn can_hear(&self) -> bool {
        self.mode == RadioMode::Rx
    }

    /// Count a received word (the node calls this when delivering).
    pub fn note_heard(&mut self) {
        self.words_heard += 1;
    }

    /// Words transmitted over the radio's lifetime.
    pub fn words_sent(&self) -> u64 {
        self.words_sent
    }

    /// Words received while listening.
    pub fn words_heard(&self) -> u64 {
        self.words_heard
    }
}

/// The bit rate is not written: the node's kind fixes it.
impl Encode for Radio {
    fn encode(&self, w: &mut Writer) {
        self.mode.encode(w);
        w.opt_u64(self.tx_done_at.map(SimTime::as_ps));
        w.opt_u16(self.tx_word);
        w.u64(self.words_sent);
        w.u64(self.words_heard);
    }
}

impl Radio {
    /// Decode a radio whose transceiver runs at `bit_rate`, the rate its
    /// node's kind fixes.
    pub(crate) fn decode(r: &mut Reader, bit_rate: f64) -> Result<Radio, SnapshotError> {
        let radio = Radio {
            bit_rate,
            mode: RadioMode::decode(r)?,
            tx_done_at: r.opt_u64()?.map(SimTime::from_ps),
            tx_word: r.opt_u16()?,
            words_sent: r.u64()?,
            words_heard: r.u64()?,
        };
        // An in-flight transmission carries both its word and its
        // completion time, or neither, and only while transmitting.
        if radio.tx_done_at.is_some() != radio.tx_word.is_some() {
            return Err(SnapshotError::Corrupt("in-flight transmission"));
        }
        if radio.tx_done_at.is_some() != (radio.mode == RadioMode::Tx) {
            return Err(SnapshotError::Corrupt("radio mode vs in-flight tx"));
        }
        Ok(radio)
    }
}

impl Default for Radio {
    fn default() -> Radio {
        Radio::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_time_is_833us_at_default_rate() {
        let r = Radio::new();
        assert!(
            (r.word_time().as_us() - 833.33).abs() < 0.5,
            "{}",
            r.word_time()
        );
    }

    #[test]
    fn tx_occupies_the_air() {
        let mut r = Radio::new();
        r.set_enabled(true);
        let t0 = SimTime::ZERO;
        let done = r.start_tx(0xabcd, t0).unwrap();
        assert_eq!(done, t0 + r.word_time());
        assert_eq!(r.mode(), RadioMode::Tx);
        assert!(!r.can_hear(), "half duplex: cannot hear while transmitting");
        // Second TX while busy is refused.
        assert_eq!(r.start_tx(0x1111, t0), None);
        assert_eq!(r.finish_tx(), 0xabcd);
        assert_eq!(r.mode(), RadioMode::Rx);
        assert_eq!(r.words_sent(), 1);
    }

    #[test]
    fn off_radio_cannot_hear() {
        let mut r = Radio::new();
        assert!(!r.can_hear());
        r.set_enabled(true);
        assert!(r.can_hear());
        r.set_enabled(false);
        assert!(!r.can_hear());
    }

    #[test]
    #[should_panic(expected = "without a transmission")]
    fn finish_without_start_panics() {
        Radio::new().finish_tx();
    }

    #[test]
    fn custom_bit_rate() {
        let r = Radio::with_bit_rate(38_400.0);
        assert!((r.word_time().as_us() - 416.7).abs() < 0.5);
    }
}
