//! Processor checkpoints in the `snap-snapshot` format.
//!
//! [`Processor::export_snapshot`] captures the complete observable
//! state of a core; [`Processor::from_snapshot`] rebuilds a core that
//! resumes **bit-identically** — registers, memories, event order,
//! timing and energy `f64` bits all match a never-snapshotted run.
//!
//! Each component encodes itself in the module that owns it (the
//! config in `processor`, then `regfile`, `event_queue`, `timer_cop`,
//! `msg_cop`, `energy_acct`, `profile`); this module writes the
//! processor's own scalars and the order of the sections. Fixed-size
//! state — the register file, both 4 KB banks, the handler table, the
//! timer registers, the energy components and classes and the profile
//! buckets — is written without a length, which its type fixes.
//!
//! Two classes of state are deliberately *not* captured:
//!
//! * **Caches** (predecode verdicts, fused traces): pure functions of
//!   IMEM and the config. The restored core starts with cold caches and
//!   refills them lazily; because both execution tiers are
//!   bit-identical, warm-vs-cold is observationally invisible.
//! * **Telemetry** (the per-dispatch sampler, the `swev` counters and
//!   the queue high-water mark): observation-only by construction. A
//!   restored core has sampling off; queue stamps are preserved so
//!   re-enabling it keeps exact queue waits.

use crate::energy_acct::EnergyAccountant;
use crate::event_queue::EventQueue;
use crate::memory::MemBank;
use crate::msg_cop::MsgCoprocessor;
use crate::processor::{CoreConfig, CoreState, Processor};
use crate::profile::HandlerProfile;
use crate::regfile::RegFile;
use crate::timer_cop::TimerCoprocessor;
use dess::{Lfsr16, SimDuration, SimTime};
use snap_isa::{EventKind, MEM_WORDS};
use snap_snapshot::{CoreSnapshot, Decode, Encode, Reader, SnapshotError, Writer};

impl Processor {
    /// Capture the complete observable core state.
    pub fn export_snapshot(&self) -> CoreSnapshot {
        CoreSnapshot::encode(self)
    }

    /// Rebuild a core from a snapshot. The restored core resumes
    /// bit-identically to the original; simulator caches start cold and
    /// refill lazily (see the module docs).
    ///
    /// # Errors
    ///
    /// Rejects structurally invalid snapshots ([`SnapshotError::Corrupt`]).
    pub fn from_snapshot(snap: &CoreSnapshot) -> Result<Processor, SnapshotError> {
        snap.decode()
    }
}

/// The config comes first: it is the header `snap-smith`'s bisector
/// skips when comparing architectural state.
impl Encode for Processor {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        self.regs.encode(w);
        write_bank(w, &self.imem);
        write_bank(w, &self.dmem);
        w.u16(self.pc);
        self.state.encode(w);
        w.u64(self.now.as_ps());
        w.array_u16(&self.handler_table);
        w.u16(self.lfsr.state());
        w.opt_u8(self.current_event.map(|e| e.index() as u8));
        self.event_queue.encode(w);
        self.timer.encode(w);
        self.msg.encode(w);
        self.acct.encode(w);
        self.profile.encode(w);
        w.u64(self.sleep_time.as_ps());
        w.u64(self.wakeup_time.as_ps());
        w.u64(self.wakeups);
        w.u64(self.handlers_dispatched);
    }
}

impl Decode for Processor {
    fn decode(r: &mut Reader) -> Result<Processor, SnapshotError> {
        let config = CoreConfig::decode(r)?;
        let mut cpu = Processor::new(config);
        cpu.regs = RegFile::decode(r)?;
        // The loaders leave every cache cold against the restored IMEM.
        cpu.load_image(0, &r.array_u16::<MEM_WORDS>()?)
            .map_err(|_| SnapshotError::Corrupt("imem image"))?;
        cpu.load_data(0, &r.array_u16::<MEM_WORDS>()?)
            .map_err(|_| SnapshotError::Corrupt("dmem image"))?;
        cpu.pc = r.u16()?;
        cpu.state = CoreState::decode(r)?;
        cpu.now = SimTime::from_ps(r.quantity()?);
        cpu.handler_table = r.array_u16()?;
        cpu.lfsr = Lfsr16::new(r.u16()?);
        cpu.current_event = match r.opt_u8()? {
            Some(i) => Some(
                EventKind::from_index(usize::from(i))
                    .ok_or(SnapshotError::Corrupt("current event index"))?,
            ),
            None => None,
        };
        cpu.event_queue = EventQueue::decode(r)?;
        cpu.timer = TimerCoprocessor::decode(r)?;
        cpu.msg = MsgCoprocessor::decode(r)?;
        cpu.acct = EnergyAccountant::decode(r, config.operating_point, config.bus)?;
        cpu.profile = HandlerProfile::decode(r)?;
        cpu.sleep_time = SimDuration::from_ps(r.quantity()?);
        cpu.wakeup_time = SimDuration::from_ps(r.quantity()?);
        cpu.wakeups = r.quantity()?;
        cpu.handlers_dispatched = r.quantity()?;
        Ok(cpu)
    }
}

/// One full memory bank image.
fn write_bank(w: &mut Writer, bank: &MemBank) {
    for word in bank.words() {
        w.u16(word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::Engine;
    use snap_energy::OperatingPoint;
    use snap_isa::EVENT_TABLE_ENTRIES;
    use snap_snapshot::Snapshot;

    /// Boot installs a sensor-IRQ handler, arms timer 0 and draws
    /// from the LFSR.
    const BUSY: &str = "
            li      r1, 5           ; sensor IRQ
            li      r2, irq
            setaddr r1, r2
            li      r3, 0
            li      r4, 50
            schedlo r3, r4
            seed    r2
            rand    r5
            done
        irq:
            addi    r6, 1
            done
    ";

    /// A core mid-flight: handler installed, timer armed, two tokens
    /// queued, energy accumulated.
    fn busy_core(engine: Engine) -> Processor {
        let program = snap_asm::assemble(BUSY).unwrap();
        let mut cpu = Processor::new(CoreConfig {
            engine,
            ..CoreConfig::default()
        });
        cpu.load_image(0, &program.imem_image()).unwrap();
        cpu.run_until_idle(100).unwrap();
        cpu.post_sensor_irq();
        cpu.post_sensor_irq();
        cpu
    }

    /// `Engine::Aot` (discriminant 2) stays in both tests: format v3
    /// snapshots may carry it, and it must decode, re-encode to its own
    /// bytes and resume bit-identically on the fused loop.
    #[test]
    fn round_trip_through_bytes_is_exact() {
        for engine in [Engine::Interp, Engine::Fused, Engine::Aot] {
            let snap = busy_core(engine).export_snapshot();
            let bytes = Snapshot::Core(Box::new(snap.clone())).to_bytes();
            let back = Snapshot::from_bytes(&bytes).unwrap();
            assert_eq!(back.as_core(), Some(&snap));
            let restored = Processor::from_snapshot(&snap).unwrap();
            assert_eq!(restored.export_snapshot(), snap);
        }
    }

    #[test]
    fn restored_core_resumes_bit_identically() {
        for engine in [Engine::Interp, Engine::Fused, Engine::Aot] {
            let mut straight = busy_core(engine);
            let mut restored =
                Processor::from_snapshot(&busy_core(engine).export_snapshot()).unwrap();
            straight.run_until_idle(1000).unwrap();
            restored.run_until_idle(1000).unwrap();
            // Drain the armed timer identically on both.
            let t = straight.next_timer_expiry().unwrap();
            straight.advance_idle(t);
            restored.advance_idle(t);
            straight.run_until_idle(1000).unwrap();
            restored.run_until_idle(1000).unwrap();
            assert_eq!(
                straight.export_snapshot(),
                restored.export_snapshot(),
                "divergence under {engine:?}"
            );
            // Energy f64 bits, explicitly.
            assert_eq!(
                straight.acct().total_energy().as_pj().to_bits(),
                restored.acct().total_energy().as_pj().to_bits()
            );
        }
    }

    type Patch<'a> = &'a dyn Fn(&mut Vec<u8>);

    /// Decode `cpu`'s encoding with `patch` applied; the error, if any.
    fn rejection(cpu: &Processor, patch: Patch) -> Option<SnapshotError> {
        let mut bytes = cpu.encoded();
        patch(&mut bytes);
        Processor::decode(&mut Reader::new(&bytes)).err()
    }

    #[test]
    fn corrupt_fields_are_rejected() {
        let corrupt = |what| Some(SnapshotError::Corrupt(what));
        let cpu = busy_core(Engine::Fused);
        // The config is vdd, delay factor, flat-bus flag and, at 17,
        // the engine. The 16 registers and the carry flag follow it,
        // then both banks, the PC and the state.
        let regs_at = cpu.config.encoded().len();
        let imem_at = regs_at + cpu.regs.encoded().len();
        let state_at = imem_at + 2 * 2 * MEM_WORDS + 2;
        let cases: [(Patch, _); 4] = [
            (
                &|b| b[..8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes()),
                "operating point vdd",
            ),
            (&|b| b[17] = 3, "engine discriminant"),
            (&|b| b[imem_at - 1] = 2, "bool flag"),
            (&|b| b[state_at] = 3, "core state discriminant"),
        ];
        for (patch, want) in cases {
            assert_eq!(rejection(&cpu, patch), corrupt(want));
        }

        // Mid-handler. Past the state come the clock, handler table
        // and LFSR, then the current event's presence byte and index.
        let mut mid = busy_core(Engine::Fused);
        mid.step().unwrap();
        let event_at = state_at + 1 + 8 + 2 * EVENT_TABLE_ENTRIES + 2 + 1;
        let event = mid.current_event.unwrap().index() as u8;
        assert_eq!(mid.encoded()[event_at], event);
        let bad_event = rejection(&mid, &|b| b[event_at] = 9);
        assert_eq!(bad_event, corrupt("current event index"));
    }

    #[test]
    fn config_round_trips_at_every_paper_point() {
        for point in OperatingPoint::PAPER_POINTS {
            let config = CoreConfig::at(point);
            let back = CoreConfig::decode(&mut Reader::new(&config.encoded())).unwrap();
            assert_eq!(back, config);
        }
    }
}
