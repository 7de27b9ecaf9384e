//! Baseline energy model: the ATmega128L-class microcontroller.
//!
//! The paper's comparisons (Table 2, Fig. 5, §4.6) use the Atmel
//! ATmega128L in the Berkeley MICA motes: a clocked 8-bit AVR RISC core
//! at 4 MIPS and 3 V, consuming about 1500 pJ per instruction. The
//! Fig. 5 blink energy (1960 nJ for 523 cycles) corresponds to a
//! power-based accounting of ≈3.75 nJ per *cycle* of elapsed time at
//! 4 MHz (≈15 mW active power at 3 V), which is what this model uses for
//! whole-task energy. Sleep-to-active transitions take 4–65 ms depending
//! on the sleep state (paper §4.3).

use crate::units::{Energy, Power};
use dess::SimDuration;

/// Energy/timing constants for the ATmega128L-class baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvrEnergyModel {
    clock_hz: f64,
    energy_per_instruction: Energy,
    active_power: Power,
}

impl AvrEnergyModel {
    /// The paper's ATmega128L operating point: 4 MHz, 3 V, ≈1500 pJ/ins,
    /// ≈15 mW active.
    pub fn atmega128l() -> AvrEnergyModel {
        AvrEnergyModel {
            clock_hz: 4.0e6,
            energy_per_instruction: Energy::from_pj(1_500.0),
            active_power: Power::from_mw(15.0),
        }
    }

    /// A custom clocked baseline.
    ///
    /// # Panics
    ///
    /// Panics unless `clock_hz` is positive.
    pub fn new(
        clock_hz: f64,
        energy_per_instruction: Energy,
        active_power: Power,
    ) -> AvrEnergyModel {
        assert!(clock_hz > 0.0, "clock frequency must be positive");
        AvrEnergyModel {
            clock_hz,
            energy_per_instruction,
            active_power,
        }
    }

    /// The clock frequency in hertz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// One clock period.
    pub fn cycle_time(&self) -> SimDuration {
        SimDuration::from_ps((1e12 / self.clock_hz).round() as u64)
    }

    /// Average energy per executed instruction (Table 2's `E/ins`).
    pub fn energy_per_instruction(&self) -> Energy {
        self.energy_per_instruction
    }

    /// Active power while the core is clocked.
    pub fn active_power(&self) -> Power {
        self.active_power
    }

    /// Energy of a task that keeps the core active for `cycles` clock
    /// cycles (the paper's Fig. 5 accounting: power × elapsed time).
    pub fn task_energy(&self, cycles: u64) -> Energy {
        self.active_power.for_duration(self.cycle_time() * cycles)
    }

    /// The fastest sleep→active transition (idle sleep): ≈4 ms.
    pub fn min_wakeup(&self) -> SimDuration {
        SimDuration::from_ms(4)
    }

    /// The slowest sleep→active transition (deepest sleep): ≈65 ms.
    pub fn max_wakeup(&self) -> SimDuration {
        SimDuration::from_ms(65)
    }
}

impl Default for AvrEnergyModel {
    fn default() -> AvrEnergyModel {
        AvrEnergyModel::atmega128l()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blink_energy_matches_fig5() {
        // Paper Fig. 5: 523 cycles per blink cost ≈1960 nJ on the mote.
        let m = AvrEnergyModel::atmega128l();
        let e = m.task_energy(523);
        assert!((e.as_nj() - 1960.0).abs() < 25.0, "{e}");
    }

    #[test]
    fn cycle_time_is_250ns() {
        let m = AvrEnergyModel::atmega128l();
        assert_eq!(m.cycle_time(), SimDuration::from_ns(250));
    }

    #[test]
    fn energy_per_instruction_is_1500pj() {
        let m = AvrEnergyModel::atmega128l();
        assert!((m.energy_per_instruction().as_pj() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn wakeup_band() {
        let m = AvrEnergyModel::atmega128l();
        assert!(m.min_wakeup() < m.max_wakeup());
        assert_eq!(m.min_wakeup(), SimDuration::from_ms(4));
        assert_eq!(m.max_wakeup(), SimDuration::from_ms(65));
    }

    #[test]
    fn atmel_vs_snap_wakeup_gap_is_orders_of_magnitude() {
        use crate::model::SnapTimingModel;
        use crate::voltage::OperatingPoint;
        let avr = AvrEnergyModel::atmega128l().min_wakeup();
        let snap = SnapTimingModel::new(OperatingPoint::V0_6).wakeup_latency();
        let ratio = avr.as_ps() as f64 / snap.as_ps() as f64;
        assert!(ratio > 1e5, "wake-up ratio only {ratio}");
    }
}
