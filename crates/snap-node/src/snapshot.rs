//! Node checkpoints in the `snap-snapshot` format.
//!
//! A node snapshot is the core snapshot ([`snap_core::snapshot`])
//! plus the node's peripherals: radio (including an in-flight
//! transmission), sensor bank, output port history, the pending-event
//! calendar, and the runaway-handler budget. Format v2 adds the
//! fleet-heterogeneity state: the node kind, the opaque AVR core blob
//! for [`NodeKind::Avr`] motes (its own versioned format, see
//! [`atmega::state`]), the battery budget, the death instant, and the
//! gateway uplink queue. A restored node resumes bit-identically — see
//! the format crate's docs for the invariant.
//!
//! The radio, sensors, LED port, node kind, pending events and uplink
//! frames encode themselves in their own modules; this module writes
//! the node's fields in order. [`BatteryConfig`] and the calendar come
//! from crates that know nothing of snapshots, so they are written
//! field by field here.
//!
//! AOT artifacts are caches, not state: for [`Engine::Aot`] cores the
//! restore re-runs snap-lint's proof over the restored IMEM and
//! recompiles, exactly as loading the program did. All tiers are
//! bit-identical, so this only restores speed.

use crate::avr::AvrMote;
use crate::led::LedPort;
use crate::node::{Node, NodeCpu, NodeKind, Pending};
use crate::radio::Radio;
use crate::sensor::SensorBank;
use crate::NodeId;
use atmega::AvrCore;
use dess::{Calendar, SimTime};
use snap_core::{AotRegion, Engine, Processor};
use snap_energy::BatteryConfig;
use snap_snapshot::{Decode, Encode, NodeSnapshot, Reader, SnapshotError, Writer};

impl Node {
    /// Capture the complete observable node state.
    pub fn export_snapshot(&self) -> NodeSnapshot {
        NodeSnapshot::encode(self)
    }

    /// Rebuild a node from a snapshot. The restored node resumes
    /// bit-identically to the original; a tier-2 core gets its AOT
    /// image recompiled (see the module docs).
    ///
    /// # Errors
    ///
    /// Rejects structurally invalid snapshots ([`SnapshotError::Corrupt`]).
    pub fn from_snapshot(snap: &NodeSnapshot) -> Result<Node, SnapshotError> {
        snap.decode()
    }
}

/// A SNAP core is present exactly when the kind is not AVR; the AVR
/// blob, drain cursor and listen flag are empty, 0 and `false` on SNAP
/// nodes.
impl Encode for Node {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.id.0);
        self.kind.encode(w);
        match &self.cpu {
            NodeCpu::Snap(cpu) => {
                w.bool(true);
                cpu.encode(w);
                w.bytes(&[]);
                w.u64(0);
                w.bool(false);
            }
            NodeCpu::Avr(mote) => {
                w.bool(false);
                w.bytes(&mote.core.export_state());
                w.u64(mote.tx_emitted as u64);
                w.bool(mote.listen);
            }
        }
        self.radio.encode(w);
        self.sensors.encode(w);
        self.led.encode(w);
        let pending = self.pending.snapshot_entries();
        w.len(pending.len());
        for (at, event) in &pending {
            w.u64(at.as_ps());
            event.encode(w);
        }
        w.u64(self.step_limit);
        w.u64(self.run_steps);
        w.bool(self.battery.is_some());
        if let Some(b) = &self.battery {
            for v in [b.capacity_uah, b.voltage_v, b.sleep_ua, b.tx_pj_per_word] {
                w.u64(v.to_bits());
            }
        }
        w.opt_u64(self.died_at.map(SimTime::as_ps));
        w.seq(&self.uplink);
    }
}

impl Decode for Node {
    fn decode(r: &mut Reader) -> Result<Node, SnapshotError> {
        let id = NodeId(r.u32()?);
        let kind = NodeKind::decode(r)?;
        let core = if r.bool()? {
            Some(Processor::decode(r)?)
        } else {
            None
        };
        let avr_state = r.bytes()?;
        let avr_tx_emitted = r.u64()?;
        let avr_listen = r.bool()?;
        let cpu = match (kind, core) {
            (NodeKind::Avr, None) => {
                let core = AvrCore::restore_state(&avr_state)
                    .map_err(|_| SnapshotError::Corrupt("avr core state blob"))?;
                if avr_tx_emitted > core.spi_sent().len() as u64 {
                    return Err(SnapshotError::Corrupt("avr tx drain cursor"));
                }
                let mut mote = AvrMote::new(core);
                mote.tx_emitted = avr_tx_emitted as usize;
                mote.listen = avr_listen;
                NodeCpu::Avr(mote)
            }
            (NodeKind::Snap | NodeKind::Gateway, Some(mut cpu)) => {
                if cpu.config().engine == Engine::Aot {
                    let point = cpu.config().operating_point;
                    let analysis = snap_lint::analyze_image(cpu.imem().as_words(), point);
                    let regions: Vec<AotRegion> = analysis
                        .regions
                        .iter()
                        .map(|r| AotRegion {
                            entry: r.entry,
                            addrs: r.addrs.clone(),
                        })
                        .collect();
                    cpu.install_aot(&regions);
                }
                NodeCpu::Snap(cpu)
            }
            _ => return Err(SnapshotError::Corrupt("node kind / core presence mismatch")),
        };
        let radio = Radio::decode(r)?;
        let sensors = SensorBank::decode(r)?;
        let led = LedPort::decode(r)?;
        // Re-scheduling in pop order reassigns fresh but ordered
        // sequence numbers, so FIFO order among equal times survives.
        let mut pending = Calendar::new();
        for _ in 0..r.len()? {
            let at = SimTime::from_ps(r.u64()?);
            pending.schedule(at, Pending::decode(r)?);
        }
        let step_limit = r.u64()?;
        let run_steps = r.u64()?;
        let battery = if r.bool()? {
            Some(decode_battery(r)?)
        } else {
            None
        };
        let died_at = r.opt_u64()?.map(SimTime::from_ps);
        let uplink = r.seq()?;
        if kind == NodeKind::Gateway && battery.is_some() {
            return Err(SnapshotError::Corrupt("battery on mains-powered gateway"));
        }
        if kind != NodeKind::Gateway && !uplink.is_empty() {
            return Err(SnapshotError::Corrupt("uplink frames on non-gateway node"));
        }
        Ok(Node {
            id,
            kind,
            cpu,
            radio,
            sensors,
            led,
            pending,
            step_limit,
            run_steps,
            battery,
            died_at,
            uplink,
        })
    }
}

/// The four [`BatteryConfig`] fields as `f64` bit patterns, each finite
/// and non-negative.
fn decode_battery(r: &mut Reader) -> Result<BatteryConfig, SnapshotError> {
    let mut field = || -> Result<f64, SnapshotError> {
        let v = f64::from_bits(r.u64()?);
        if v.is_finite() && v >= 0.0 {
            Ok(v)
        } else {
            Err(SnapshotError::Corrupt("battery config field"))
        }
    };
    Ok(BatteryConfig {
        capacity_uah: field()?,
        voltage_v: field()?,
        sleep_ua: field()?,
        tx_pj_per_word: field()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::RadioMode;
    use crate::{NodeConfig, UplinkFrame};
    use dess::SimDuration;
    use snap_asm::assemble;
    use snap_snapshot::Snapshot;

    /// A node frozen mid-transmission with a sensor reply pending and
    /// port history accumulated.
    fn busy_node() -> Node {
        let src = r"
            .equ EV_TXDONE, 4
            .equ EV_REPLY, 6
                li      r1, EV_TXDONE
                li      r2, sent
                setaddr r1, r2
                li      r1, EV_REPLY
                li      r2, got
                setaddr r1, r2
                li      r15, 0x4005     ; port <- 5
                li      r15, 0x3002     ; query sensor 2
                li      r15, 0x2000     ; TX command
                li      r15, 0xbeef     ; payload
                done
            sent:
                li      r15, 0x4006
                done
            got:
                mov     r3, r15
                done
        ";
        let mut node = Node::new(NodeConfig::default());
        node.load(&assemble(src).unwrap()).unwrap();
        node.sensors_mut().set_reading(2, 0x7777);
        // Stop while the word is still on the air (~833 us) and the
        // sensor reply (~10 us) is still pending.
        node.run_for(SimDuration::from_us(5)).unwrap();
        node
    }

    /// An AVR beacon mote frozen a few periods in, with a battery.
    fn busy_avr_node() -> Node {
        let (core, _) = atmega::tinyos::beacon_system(3, 4).unwrap();
        let mut node = Node::new_avr(NodeId(2), core);
        node.set_battery(Some(BatteryConfig::coin_cell_avr()));
        node.run_for(SimDuration::from_ms(5)).unwrap();
        node
    }

    #[test]
    fn round_trip_through_bytes_is_exact() {
        for node in [busy_node(), busy_avr_node()] {
            let snap = node.export_snapshot();
            let bytes = Snapshot::Node(Box::new(snap.clone())).to_bytes();
            assert_eq!(Snapshot::from_bytes(&bytes).unwrap().as_node(), Some(&snap));
            let restored = Node::from_snapshot(&snap).unwrap();
            assert_eq!(restored.export_snapshot(), snap);
        }
    }

    #[test]
    fn avr_round_trip_is_exact_and_resumes() {
        let snap = busy_avr_node().export_snapshot();
        let restored = Node::from_snapshot(&snap).unwrap();
        assert_eq!(restored.kind(), NodeKind::Avr);
        assert!(restored.avr().is_some());

        let mut straight = busy_avr_node();
        let mut resumed = Node::from_snapshot(&snap).unwrap();
        let out_a = straight.run_for(SimDuration::from_ms(10)).unwrap();
        let out_b = resumed.run_for(SimDuration::from_ms(10)).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(straight.export_snapshot(), resumed.export_snapshot());
    }

    #[test]
    fn gateway_uplink_round_trips() {
        let mut node = Node::new_gateway(NodeConfig::default());
        node.load(&assemble("halt").unwrap()).unwrap();
        node.deliver_rx(0xabcd);
        let snap = node.export_snapshot();
        let restored = Node::from_snapshot(&snap).unwrap();
        assert_eq!(restored.kind(), NodeKind::Gateway);
        assert_eq!(restored.uplink(), node.uplink());
        assert_eq!(restored.uplink().len(), 1);
        assert_eq!(restored.export_snapshot(), snap);
    }

    #[test]
    fn restored_node_resumes_bit_identically() {
        let mut straight = busy_node();
        let mut restored = Node::from_snapshot(&busy_node().export_snapshot()).unwrap();
        // Run both through the pending sensor reply AND the tx-done.
        let out_a = straight.run_for(SimDuration::from_ms(2)).unwrap();
        let out_b = restored.run_for(SimDuration::from_ms(2)).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(straight.export_snapshot(), restored.export_snapshot());
        assert!(straight.radio().words_sent() == 1);
        assert_eq!(
            straight.cpu().regs().read(snap_isa::Reg::R3),
            0x7777,
            "sensor reply must survive the snapshot"
        );
    }

    type Patch = fn(&mut Vec<u8>);

    /// Decode `value`'s encoding with `patch` applied; the error, if any.
    fn rejection<T: Encode + Decode>(value: &T, patch: Patch) -> Option<SnapshotError> {
        let mut bytes = value.encoded();
        patch(&mut bytes);
        T::decode(&mut Reader::new(&bytes)).err()
    }

    #[test]
    fn corrupt_fields_are_rejected() {
        let corrupt = |what| Some(SnapshotError::Corrupt(what));
        let node = busy_node();
        let mut foreign_uplink = busy_node();
        foreign_uplink.uplink.push(UplinkFrame {
            at: SimTime::ZERO,
            word: 2,
        });
        let mut nan_battery = busy_node();
        nan_battery.battery = Some(BatteryConfig {
            capacity_uah: f64::NAN,
            ..BatteryConfig::coin_cell_avr()
        });
        let mut runaway_cursor = busy_avr_node();
        if let NodeCpu::Avr(mote) = &mut runaway_cursor.cpu {
            mote.tx_emitted = usize::MAX;
        }
        let unchanged = |_: &mut Vec<u8>| {};
        // Node: [0..4) id, [4] kind, [5] core present; an AVR blob's
        // own bytes start at 14.
        let cases: [(&Node, Patch, _); 6] = [
            (&node, |b| b[4] = 9, "node kind discriminant"),
            (
                &node,
                |b| b[4] = NodeKind::Avr as u8,
                "node kind / core presence mismatch",
            ),
            (
                &foreign_uplink,
                unchanged,
                "uplink frames on non-gateway node",
            ),
            (&nan_battery, unchanged, "battery config field"),
            (&busy_avr_node(), |b| b[14] ^= 0xff, "avr core state blob"),
            (&runaway_cursor, unchanged, "avr tx drain cursor"),
        ];
        for (node, patch, want) in cases {
            assert_eq!(rejection(node, patch), corrupt(want));
        }
        // Radio: [0..8) bit rate, [8] mode, [9..18) tx end, [18..21)
        // the in-flight word.
        let cases: [(Patch, _); 4] = [
            (
                |b| b[..8].copy_from_slice(&(-1f64).to_bits().to_le_bytes()),
                "radio bit rate",
            ),
            (|b| b[8] = 9, "radio mode discriminant"),
            (|b| b[8] = RadioMode::Rx as u8, "radio mode vs in-flight tx"),
            (
                |b| {
                    b.drain(19..21);
                    b[18] = 0;
                },
                "in-flight transmission",
            ),
        ];
        for (patch, want) in cases {
            assert_eq!(rejection(&node.radio, patch), corrupt(want));
        }
        assert_eq!(
            rejection(&Pending::TxDone, |b| b[0] = 7),
            corrupt("pending event discriminant")
        );
    }
}
