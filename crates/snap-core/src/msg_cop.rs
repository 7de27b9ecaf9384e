//! The message coprocessor.
//!
//! The interface between the core and the node's radio and sensors
//! (paper §3.3, Fig. 3). Two 16-bit FIFOs map to register `r15`:
//!
//! * a core write to `r15` enters the *incoming* FIFO — either a
//!   [`MsgCommand`] or, immediately after a `RadioTx` command, a payload
//!   word for the radio;
//! * a core read from `r15` pops the *outgoing* FIFO, which holds radio
//!   words and sensor readings delivered by the environment.
//!
//! Arrival of external data (a radio word, a sensor reading, an
//! external-interrupt assertion) raises an event token; the core learns
//! about the data through the event queue and fetches it through `r15`.
//! Word-by-word reception matters because the radio is slow (≈19.2 kbps
//! — almost a millisecond per word): the coprocessor does the bit/word
//! conversion so the core is never stalled on the serial stream.

use snap_isa::{EventKind, MsgCommand, Word};
use snap_snapshot::{Decode, Encode, Reader, SnapshotError, Writer};
use std::collections::VecDeque;

/// An action the message coprocessor asks the node environment to take.
///
/// The processor surfaces these from [`crate::Processor::step`]; the node
/// (crate `snap-node`) carries them out against its radio/sensor models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvAction {
    /// Transmit a 16-bit word over the radio; the environment raises a
    /// `RadioTxDone` event when the word has been serialized.
    TxWord(Word),
    /// Radio receiver enabled (`true`) or radio powered off (`false`).
    RadioMode(bool),
    /// Poll sensor `id`; the environment answers with a sensor reply.
    Query(u16),
    /// A 12-bit value driven onto the output port (LEDs/GPIO).
    PortWrite(u16),
}

/// Error: a word written to `r15` was not a valid command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadCommand {
    /// The offending word.
    pub word: Word,
}

impl std::fmt::Display for BadCommand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "word {:#06x} written to r15 is not a message-coprocessor command",
            self.word
        )
    }
}

impl std::error::Error for BadCommand {}

/// The message coprocessor state.
#[derive(Debug, Clone)]
pub struct MsgCoprocessor {
    outgoing: VecDeque<Word>,
    awaiting_tx_payload: bool,
    rx_enabled: bool,
    port: u16,
    words_tx: u64,
    words_rx: u64,
}

impl MsgCoprocessor {
    /// A coprocessor in its reset state: radio off, FIFOs empty.
    pub fn new() -> MsgCoprocessor {
        MsgCoprocessor {
            outgoing: VecDeque::new(),
            awaiting_tx_payload: false,
            rx_enabled: false,
            port: 0,
            words_tx: 0,
            words_rx: 0,
        }
    }

    // ---- core side (r15) ----

    /// A core write to `r15`.
    ///
    /// # Errors
    ///
    /// Returns [`BadCommand`] when the word is neither transmit payload
    /// nor a valid command.
    pub fn core_write(&mut self, word: Word) -> Result<Option<EnvAction>, BadCommand> {
        if self.awaiting_tx_payload {
            self.awaiting_tx_payload = false;
            self.words_tx += 1;
            return Ok(Some(EnvAction::TxWord(word)));
        }
        match MsgCommand::decode(word) {
            Some(MsgCommand::RadioTx) => {
                self.awaiting_tx_payload = true;
                Ok(None)
            }
            Some(MsgCommand::RadioRxOn) => {
                self.rx_enabled = true;
                Ok(Some(EnvAction::RadioMode(true)))
            }
            Some(MsgCommand::RadioOff) => {
                self.rx_enabled = false;
                Ok(Some(EnvAction::RadioMode(false)))
            }
            Some(MsgCommand::QuerySensor(id)) => Ok(Some(EnvAction::Query(id))),
            Some(MsgCommand::PortWrite(v)) => {
                self.port = v;
                Ok(Some(EnvAction::PortWrite(v)))
            }
            None => Err(BadCommand { word }),
        }
    }

    /// A core read from `r15`: pop the outgoing FIFO.
    pub fn core_read(&mut self) -> Option<Word> {
        self.outgoing.pop_front()
    }

    // ---- environment side ----

    /// A word arrived from the radio. Returns the event to raise, or
    /// `None` when the receiver is disabled (the word is lost).
    pub fn radio_rx_word(&mut self, word: Word) -> Option<EventKind> {
        if !self.rx_enabled {
            return None;
        }
        self.words_rx += 1;
        self.outgoing.push_back(word);
        Some(EventKind::RadioRx)
    }

    /// The radio finished serializing the last transmit word.
    pub fn radio_tx_done(&mut self) -> EventKind {
        EventKind::RadioTxDone
    }

    /// A sensor query completed with `reading`.
    pub fn sensor_reply(&mut self, reading: Word) -> EventKind {
        self.outgoing.push_back(reading);
        EventKind::SensorReply
    }

    /// A sensor asserted the external-interrupt pin.
    pub fn sensor_irq(&mut self) -> EventKind {
        EventKind::SensorIrq
    }

    // ---- observability ----

    /// `true` when the receiver is enabled.
    pub fn rx_enabled(&self) -> bool {
        self.rx_enabled
    }

    /// `true` when the next `r15` write will be treated as transmit
    /// payload.
    pub fn awaiting_tx_payload(&self) -> bool {
        self.awaiting_tx_payload
    }

    /// The last value written to the output port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Words queued for the core to read.
    pub fn outgoing_len(&self) -> usize {
        self.outgoing.len()
    }

    /// Total radio words transmitted.
    pub fn words_transmitted(&self) -> u64 {
        self.words_tx
    }

    /// Total radio words received (receiver enabled).
    pub fn words_received(&self) -> u64 {
        self.words_rx
    }
}

impl Encode for MsgCoprocessor {
    fn encode(&self, w: &mut Writer) {
        w.len(self.outgoing.len());
        for &word in &self.outgoing {
            w.u16(word);
        }
        w.bool(self.awaiting_tx_payload);
        w.bool(self.rx_enabled);
        w.u16(self.port);
        w.u64(self.words_tx);
        w.u64(self.words_rx);
    }
}

impl Decode for MsgCoprocessor {
    fn decode(r: &mut Reader) -> Result<MsgCoprocessor, SnapshotError> {
        Ok(MsgCoprocessor {
            outgoing: r.seq_u16()?.into(),
            awaiting_tx_payload: r.bool()?,
            rx_enabled: r.bool()?,
            port: r.u16()?,
            words_tx: r.u64()?,
            words_rx: r.u64()?,
        })
    }
}

impl Default for MsgCoprocessor {
    fn default() -> MsgCoprocessor {
        MsgCoprocessor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_command_then_payload() {
        let mut m = MsgCoprocessor::new();
        assert_eq!(m.core_write(MsgCommand::RadioTx.encode()).unwrap(), None);
        assert!(m.awaiting_tx_payload());
        assert_eq!(
            m.core_write(0xabcd).unwrap(),
            Some(EnvAction::TxWord(0xabcd))
        );
        assert!(!m.awaiting_tx_payload());
        assert_eq!(m.words_transmitted(), 1);
    }

    #[test]
    fn payload_can_be_any_word() {
        // Even a word that looks like a command is payload in TX state.
        let mut m = MsgCoprocessor::new();
        m.core_write(MsgCommand::RadioTx.encode()).unwrap();
        let cmd_looking = MsgCommand::RadioRxOn.encode();
        assert_eq!(
            m.core_write(cmd_looking).unwrap(),
            Some(EnvAction::TxWord(cmd_looking))
        );
        assert!(!m.rx_enabled());
    }

    #[test]
    fn rx_flow() {
        let mut m = MsgCoprocessor::new();
        // Receiver off: words are lost.
        assert_eq!(m.radio_rx_word(1), None);
        m.core_write(MsgCommand::RadioRxOn.encode()).unwrap();
        assert!(m.rx_enabled());
        assert_eq!(m.radio_rx_word(0x1111), Some(EventKind::RadioRx));
        assert_eq!(m.radio_rx_word(0x2222), Some(EventKind::RadioRx));
        assert_eq!(m.core_read(), Some(0x1111));
        assert_eq!(m.core_read(), Some(0x2222));
        assert_eq!(m.core_read(), None);
        assert_eq!(m.words_received(), 2);
    }

    #[test]
    fn sensor_flow() {
        let mut m = MsgCoprocessor::new();
        assert_eq!(
            m.core_write(MsgCommand::QuerySensor(3).encode()).unwrap(),
            Some(EnvAction::Query(3))
        );
        assert_eq!(m.sensor_reply(0x00ff), EventKind::SensorReply);
        assert_eq!(m.core_read(), Some(0x00ff));
        assert_eq!(m.sensor_irq(), EventKind::SensorIrq);
    }

    #[test]
    fn port_write() {
        let mut m = MsgCoprocessor::new();
        assert_eq!(
            m.core_write(MsgCommand::PortWrite(0x5a).encode()).unwrap(),
            Some(EnvAction::PortWrite(0x5a))
        );
        assert_eq!(m.port(), 0x5a);
    }

    #[test]
    fn bad_command_is_error() {
        let mut m = MsgCoprocessor::new();
        let err = m.core_write(0x0007).unwrap_err();
        assert_eq!(err.word, 0x0007);
        assert!(err.to_string().contains("r15"));
    }

    #[test]
    fn radio_off_disables_rx() {
        let mut m = MsgCoprocessor::new();
        m.core_write(MsgCommand::RadioRxOn.encode()).unwrap();
        assert_eq!(
            m.core_write(MsgCommand::RadioOff.encode()).unwrap(),
            Some(EnvAction::RadioMode(false))
        );
        assert_eq!(m.radio_rx_word(9), None);
    }

    #[test]
    fn rx_and_sensor_share_outgoing_fifo_in_order() {
        let mut m = MsgCoprocessor::new();
        m.core_write(MsgCommand::RadioRxOn.encode()).unwrap();
        m.radio_rx_word(1);
        m.sensor_reply(2);
        m.radio_rx_word(3);
        assert_eq!(m.outgoing_len(), 3);
        assert_eq!(
            (m.core_read(), m.core_read(), m.core_read()),
            (Some(1), Some(2), Some(3))
        );
    }
}
