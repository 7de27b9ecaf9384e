//! Per-instruction energy and latency accounting.
//!
//! Every executed instruction is folded into three views:
//!
//! * a running total (energy, busy time, instruction count),
//! * a per-class histogram — the data behind Fig. 4 and the "most
//!   frequently executed instructions" analysis of §4.5,
//! * a per-component attribution — the data behind the §4.4 energy
//!   distribution.

use dess::SimDuration;
use snap_energy::model::{BusModel, InstrShape, SnapEnergyModel, SnapTimingModel};
use snap_energy::{ComponentEnergy, Energy, OperatingPoint};
use snap_isa::{Instruction, InstructionClass};
use snap_snapshot::{Encode, Reader, SnapshotError, Writer};

/// Derive the energy-model shape of an instruction.
pub fn shape_of(ins: &Instruction) -> InstrShape {
    InstrShape {
        class: ins.class(),
        words: ins.word_count(),
        dmem: ins.accesses_dmem(),
        imem_data: ins.accesses_imem_data(),
    }
}

/// Everything [`EnergyAccountant::record`] derives from the instruction
/// alone: a pure function of the instruction and the accountant's fixed
/// models, so callers may compute it once (e.g. per IMEM address) and
/// replay it per dynamic execution. Replaying accumulates the exact
/// `f64` values the uncached path would, keeping totals bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrCosts {
    /// Instruction class (the per-class histogram key).
    pub class: InstructionClass,
    /// Energy charged per execution.
    pub energy: Energy,
    /// Latency charged per execution.
    pub latency: SimDuration,
    /// Per-component attribution per execution.
    pub components: ComponentEnergy,
    /// Occupancy cycles per execution (IMEM words + memory accesses).
    pub cycles: u64,
}

/// Count and energy for one instruction class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassStats {
    /// Dynamic instructions of this class.
    pub count: u64,
    /// Total energy spent by this class.
    pub energy: Energy,
}

/// The core's energy/latency accountant.
#[derive(Debug, Clone)]
pub struct EnergyAccountant {
    energy_model: SnapEnergyModel,
    timing_model: SnapTimingModel,
    components: ComponentEnergy,
    per_class: [ClassStats; InstructionClass::ALL.len()],
    total_energy: Energy,
    busy_time: SimDuration,
    instructions: u64,
    cycles: u64,
}

impl EnergyAccountant {
    /// An accountant at the given operating point.
    pub fn new(point: OperatingPoint) -> EnergyAccountant {
        EnergyAccountant::with_bus(point, BusModel::default())
    }

    /// An accountant with an explicit bus organization (ablations).
    pub fn with_bus(point: OperatingPoint, bus: BusModel) -> EnergyAccountant {
        EnergyAccountant {
            energy_model: SnapEnergyModel::new(point).with_bus(bus),
            timing_model: SnapTimingModel::new(point).with_bus(bus),
            components: ComponentEnergy::new(),
            per_class: [ClassStats::default(); InstructionClass::ALL.len()],
            total_energy: Energy::ZERO,
            busy_time: SimDuration::ZERO,
            instructions: 0,
            cycles: 0,
        }
    }

    /// The underlying energy model.
    pub fn energy_model(&self) -> &SnapEnergyModel {
        &self.energy_model
    }

    /// The underlying timing model.
    pub fn timing_model(&self) -> &SnapTimingModel {
        &self.timing_model
    }

    /// Record one executed instruction; returns its latency so the core
    /// can advance simulated time.
    pub fn record(&mut self, ins: &Instruction) -> SimDuration {
        self.record_costs(&self.cost_of(ins))
    }

    /// The costs [`EnergyAccountant::record`] would charge for `ins`.
    pub fn cost_of(&self, ins: &Instruction) -> InstrCosts {
        let shape = shape_of(ins);
        InstrCosts {
            class: shape.class,
            energy: self.energy_model.instruction_energy(shape),
            latency: self.timing_model.instruction_latency(shape),
            components: self.energy_model.instruction_energy_by_component(shape),
            cycles: shape.words as u64 + shape.dmem as u64 + shape.imem_data as u64,
        }
    }

    /// Record one executed instruction from precomputed costs.
    #[inline]
    pub fn record_costs(&mut self, costs: &InstrCosts) -> SimDuration {
        self.components.merge(&costs.components);
        let entry = &mut self.per_class[costs.class as usize];
        entry.count += 1;
        entry.energy += costs.energy;
        self.total_energy += costs.energy;
        self.busy_time += costs.latency;
        self.instructions += 1;
        self.cycles += costs.cycles;
        costs.latency
    }

    /// The integer half of `reps` identical runs of
    /// [`EnergyAccountant::record_costs`] calls, batched: per-class
    /// dynamic counts, busy time, instruction and cycle totals.
    /// Integer sums are associative, so `reps ×` the per-run totals is
    /// identical to recording serially.
    #[inline]
    pub(crate) fn record_batch(
        &mut self,
        counts: &[(InstructionClass, u32)],
        latency: SimDuration,
        cycles: u64,
        instructions: u64,
        reps: u64,
    ) {
        for &(class, n) in counts {
            self.per_class[class as usize].count += n as u64 * reps;
        }
        self.busy_time += latency * reps;
        self.instructions += instructions * reps;
        self.cycles += cycles * reps;
    }

    /// The mutable accumulator fields the fused hot loop keeps in
    /// registers across a back-edge loop: component attribution,
    /// per-class stats, and the running energy total.
    #[inline]
    pub(crate) fn hot_parts(
        &mut self,
    ) -> (
        &mut ComponentEnergy,
        &mut [ClassStats; InstructionClass::ALL.len()],
        &mut Energy,
    ) {
        (
            &mut self.components,
            &mut self.per_class,
            &mut self.total_energy,
        )
    }

    /// Total energy of all recorded instructions.
    #[inline]
    pub fn total_energy(&self) -> Energy {
        self.total_energy
    }

    /// Total execution (busy) time of all recorded instructions.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Number of recorded (dynamic) instructions.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Asynchronous "cycles": IMEM words fetched plus data-memory
    /// accesses. The paper's TinyOS comparisons (§4.6) count cycles on
    /// both platforms; for the clockless SNAP/LE this occupancy count is
    /// the natural equivalent (a two-word instruction takes two cycles,
    /// paper §3.1).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average energy per instruction; zero when nothing was recorded.
    pub fn energy_per_instruction(&self) -> Energy {
        if self.instructions == 0 {
            return Energy::ZERO;
        }
        self.total_energy / self.instructions as f64
    }

    /// Average throughput in MIPS over the busy time; zero when nothing
    /// was recorded.
    pub fn mips(&self) -> f64 {
        if self.busy_time.is_zero() {
            return 0.0;
        }
        self.instructions as f64 / self.busy_time.as_us()
    }

    /// Per-class statistics for recorded classes, ordered by class.
    pub fn per_class(&self) -> impl Iterator<Item = (InstructionClass, ClassStats)> + '_ {
        InstructionClass::ALL
            .into_iter()
            .map(|c| (c, self.per_class[c as usize]))
            .filter(|(_, s)| s.count > 0)
    }

    /// Statistics for one class.
    pub fn class_stats(&self, class: InstructionClass) -> ClassStats {
        self.per_class[class as usize]
    }

    /// The per-component energy attribution.
    pub fn components(&self) -> &ComponentEnergy {
        &self.components
    }

    /// Decode the accumulators. The models are pure functions of the
    /// operating point and bus, which are config, so the caller supplies
    /// those; energy comes back as the exact running `f64`s.
    pub(crate) fn decode(
        r: &mut Reader,
        point: OperatingPoint,
        bus: BusModel,
    ) -> Result<EnergyAccountant, SnapshotError> {
        let mut acct = EnergyAccountant::with_bus(point, bus);
        for slot in acct.components.as_array_mut() {
            *slot = Energy::from_pj(f64::from_bits(r.u64()?));
        }
        for class in &mut acct.per_class {
            class.count = r.u64()?;
            class.energy = Energy::from_pj(f64::from_bits(r.u64()?));
        }
        acct.total_energy = Energy::from_pj(f64::from_bits(r.u64()?));
        acct.busy_time = SimDuration::from_ps(r.u64()?);
        acct.instructions = r.u64()?;
        acct.cycles = r.u64()?;
        Ok(acct)
    }

    /// Reset all counters (the models are kept).
    pub fn reset(&mut self) {
        self.components = ComponentEnergy::new();
        self.per_class = [ClassStats::default(); InstructionClass::ALL.len()];
        self.total_energy = Energy::ZERO;
        self.busy_time = SimDuration::ZERO;
        self.instructions = 0;
        self.cycles = 0;
    }
}

/// The accumulators, not the models; every class, zero counts included.
impl Encode for EnergyAccountant {
    fn encode(&self, w: &mut Writer) {
        for e in self.components.as_array() {
            w.u64(e.as_pj().to_bits());
        }
        for class in &self.per_class {
            w.u64(class.count);
            w.u64(class.energy.as_pj().to_bits());
        }
        w.u64(self.total_energy.as_pj().to_bits());
        w.u64(self.busy_time.as_ps());
        w.u64(self.instructions);
        w.u64(self.cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_isa::{AluImmOp, AluOp, Reg};

    fn add() -> Instruction {
        Instruction::AluReg {
            op: AluOp::Add,
            rd: Reg::R1,
            rs: Reg::R2,
        }
    }

    fn li() -> Instruction {
        Instruction::AluImm {
            op: AluImmOp::Li,
            rd: Reg::R1,
            imm: 5,
        }
    }

    fn load() -> Instruction {
        Instruction::Load {
            rd: Reg::R1,
            base: Reg::R2,
            offset: 0,
        }
    }

    #[test]
    fn recording_accumulates() {
        let mut a = EnergyAccountant::new(OperatingPoint::V1_8);
        let lat = a.record(&add());
        assert!(!lat.is_zero());
        a.record(&li());
        a.record(&load());
        assert_eq!(a.instructions(), 3);
        assert!(a.total_energy().as_pj() > 0.0);
        assert_eq!(a.class_stats(InstructionClass::ArithReg).count, 1);
        assert_eq!(a.class_stats(InstructionClass::ArithImm).count, 1);
        assert_eq!(a.class_stats(InstructionClass::Load).count, 1);
        assert_eq!(a.class_stats(InstructionClass::Nop).count, 0);
    }

    #[test]
    fn component_total_matches_energy_total() {
        let mut a = EnergyAccountant::new(OperatingPoint::V0_6);
        for _ in 0..10 {
            a.record(&add());
            a.record(&load());
        }
        assert!((a.components().total().as_pj() - a.total_energy().as_pj()).abs() < 1e-6);
    }

    #[test]
    fn averages() {
        let mut a = EnergyAccountant::new(OperatingPoint::V1_8);
        assert_eq!(a.energy_per_instruction(), Energy::ZERO);
        assert_eq!(a.mips(), 0.0);
        for _ in 0..100 {
            a.record(&add());
        }
        let per = a.energy_per_instruction();
        assert!((per.as_pj() - a.total_energy().as_pj() / 100.0).abs() < 1e-9);
        assert!(a.mips() > 100.0, "{}", a.mips());
    }

    #[test]
    fn reset_clears_counters() {
        let mut a = EnergyAccountant::new(OperatingPoint::V0_9);
        a.record(&add());
        a.reset();
        assert_eq!(a.instructions(), 0);
        assert_eq!(a.total_energy(), Energy::ZERO);
        assert!(a.busy_time().is_zero());
        assert_eq!(a.per_class().count(), 0);
    }

    #[test]
    fn shape_of_derives_memory_flags() {
        let s = shape_of(&load());
        assert!(s.dmem && !s.imem_data);
        assert_eq!(s.words, 2);
        let s = shape_of(&Instruction::ImemStore {
            rs: Reg::R1,
            base: Reg::R2,
            offset: 0,
        });
        assert!(s.imem_data && !s.dmem);
    }
}
