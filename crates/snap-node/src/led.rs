//! The output port (LEDs).
//!
//! The TinyOS comparison applications blink and display values on LEDs;
//! on SNAP "this operation corresponds to a write to the sensor port"
//! (paper §4.6). The port records its history so benchmarks can count
//! blinks and check displayed values.

use dess::SimTime;
use snap_snapshot::{Decode, Encode, Reader, SnapshotError, Writer};

/// The 12-bit output port with change history.
#[derive(Debug, Clone, Default)]
pub struct LedPort {
    value: u16,
    history: Vec<(SimTime, u16)>,
}

impl LedPort {
    /// A port driving 0 with empty history.
    pub fn new() -> LedPort {
        LedPort::default()
    }

    /// Record a write of `value` at time `at`.
    pub fn write(&mut self, at: SimTime, value: u16) {
        self.value = value & 0x0fff;
        self.history.push((at, self.value));
    }

    /// The currently driven value.
    pub fn value(&self) -> u16 {
        self.value
    }

    /// All writes, in time order.
    pub fn history(&self) -> &[(SimTime, u16)] {
        &self.history
    }

    /// Number of writes.
    pub fn writes(&self) -> usize {
        self.history.len()
    }

    /// Number of value *changes* (a blink toggles, so one blink = one
    /// change).
    pub fn changes(&self) -> usize {
        let mut last = 0u16;
        let mut n = 0;
        for &(_, v) in &self.history {
            if v != last {
                n += 1;
                last = v;
            }
        }
        n
    }
}

impl Encode for LedPort {
    fn encode(&self, w: &mut Writer) {
        w.u16(self.value);
        w.len(self.history.len());
        for &(at, value) in &self.history {
            w.u64(at.as_ps());
            w.u16(value);
        }
    }
}

impl Decode for LedPort {
    fn decode(r: &mut Reader) -> Result<LedPort, SnapshotError> {
        let value = r.u16()?;
        let history = (0..r.len()?)
            .map(|_| Ok((SimTime::from_ps(r.u64()?), r.u16()?)))
            .collect::<Result<_, SnapshotError>>()?;
        Ok(LedPort { value, history })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_history() {
        let mut led = LedPort::new();
        led.write(SimTime::from_ps(1), 1);
        led.write(SimTime::from_ps(2), 0);
        led.write(SimTime::from_ps(3), 0);
        led.write(SimTime::from_ps(4), 1);
        assert_eq!(led.value(), 1);
        assert_eq!(led.writes(), 4);
        assert_eq!(led.changes(), 3); // 0->1, 1->0, 0->1
    }

    #[test]
    fn masks_to_12_bits() {
        let mut led = LedPort::new();
        led.write(SimTime::ZERO, 0xffff);
        assert_eq!(led.value(), 0x0fff);
    }
}
