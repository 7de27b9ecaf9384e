//! Sensors attached to the message coprocessor.
//!
//! The paper supports two interaction styles (§3.3): *active* polling
//! (the core sends a `Query` command; the coprocessor reads the sensor
//! data pins and replies through `r15` with a `SensorReply` event) and
//! *passive* interrupts (a sensor asserts the external-interrupt pin,
//! raising a `SensorIrq` event). The bank models up to 4096 sensor
//! registers (the command word's 12-bit argument).

use dess::SimDuration;
use snap_isa::Word;
use snap_snapshot::{Decode, Encode, Reader, SnapshotError, Writer};
use std::collections::BTreeMap;

/// Default latency between a `Query` command and the reply event:
/// the coprocessor must sample the sensor data pins.
pub const DEFAULT_REPLY_LATENCY: SimDuration = SimDuration::from_us(10);

/// The node's sensor registers.
#[derive(Debug, Clone)]
pub struct SensorBank {
    readings: BTreeMap<u16, Word>,
    reply_latency: SimDuration,
    queries: u64,
}

impl SensorBank {
    /// An empty bank (all sensors read 0) with the default reply latency.
    pub fn new() -> SensorBank {
        SensorBank {
            readings: BTreeMap::new(),
            reply_latency: DEFAULT_REPLY_LATENCY,
            queries: 0,
        }
    }

    /// Override the query-reply latency.
    pub fn with_reply_latency(mut self, latency: SimDuration) -> SensorBank {
        self.reply_latency = latency;
        self
    }

    /// Set sensor `id`'s current reading (the simulated environment).
    pub fn set_reading(&mut self, id: u16, value: Word) {
        self.readings.insert(id & 0x0fff, value);
    }

    /// The current reading of sensor `id` (0 when never set).
    pub fn reading(&self, id: u16) -> Word {
        self.readings.get(&(id & 0x0fff)).copied().unwrap_or(0)
    }

    /// Handle a `Query` command: returns the sampled value and counts
    /// the query. The node delivers the reply after
    /// [`SensorBank::reply_latency`].
    pub fn query(&mut self, id: u16) -> Word {
        self.queries += 1;
        self.reading(id)
    }

    /// Latency between query and reply.
    pub fn reply_latency(&self) -> SimDuration {
        self.reply_latency
    }

    /// Queries served over the bank's lifetime.
    pub fn queries(&self) -> u64 {
        self.queries
    }
}

impl Encode for SensorBank {
    fn encode(&self, w: &mut Writer) {
        w.len(self.readings.len());
        for (&id, &value) in &self.readings {
            w.u16(id);
            w.u16(value);
        }
        w.u64(self.reply_latency.as_ps());
        w.u64(self.queries);
    }
}

/// Ids must be 12-bit and strictly ascending, as the live map keeps
/// them.
impl Decode for SensorBank {
    fn decode(r: &mut Reader) -> Result<SensorBank, SnapshotError> {
        let mut readings = BTreeMap::new();
        for _ in 0..r.len()? {
            let id = r.u16()?;
            let after_last = readings.last_key_value().is_none_or(|(&last, _)| id > last);
            if id > 0x0fff || !after_last {
                return Err(SnapshotError::Corrupt("sensor id"));
            }
            readings.insert(id, r.u16()?);
        }
        Ok(SensorBank {
            readings,
            reply_latency: SimDuration::from_ps(r.u64()?),
            queries: r.u64()?,
        })
    }
}

impl Default for SensorBank {
    fn default() -> SensorBank {
        SensorBank::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_default_to_zero() {
        let bank = SensorBank::new();
        assert_eq!(bank.reading(0), 0);
        assert_eq!(bank.reading(4095), 0);
    }

    #[test]
    fn set_and_query() {
        let mut bank = SensorBank::new();
        bank.set_reading(3, 0x0123);
        assert_eq!(bank.query(3), 0x0123);
        assert_eq!(bank.query(4), 0);
        assert_eq!(bank.queries(), 2);
    }

    #[test]
    fn ids_are_masked_to_12_bits() {
        let mut bank = SensorBank::new();
        bank.set_reading(0x1003, 7); // aliases sensor 3
        assert_eq!(bank.reading(3), 7);
    }

    #[test]
    fn reply_latency_configurable() {
        let bank = SensorBank::new().with_reply_latency(SimDuration::from_us(2));
        assert_eq!(bank.reply_latency(), SimDuration::from_us(2));
    }
}
