//! Golden snapshot: the on-disk format is a compatibility contract.
//!
//! Two checked-in, byte-exact fleet snapshots pin `snap-snapshot`'s
//! wire format: the SNAP-only `mac` demo at a fixed tick, and a mixed
//! fleet (SNAP MAC ring, ATmega motes, a gateway, batteries,
//! `Scheduler::Sharded` with a stored shard count of 2, a count-only
//! trace and a pending sensor-reading stimulus) that covers every
//! section the first one leaves at its defaults. If this
//! test fails, you changed the serialized representation — which breaks
//! every snapshot already sitting on disk (`srun --restore`,
//! `snap-serve` forks).
//!
//! The rules, from DESIGN.md §11:
//!
//! 1. If the change is **intentional**, bump
//!    [`snap_snapshot::FORMAT_VERSION`] so old bytes are rejected
//!    loudly instead of misdecoded, then re-bless both golden files:
//!    `SNAP_BLESS=1 cargo test -p snap-net --test snapshot_golden`.
//! 2. If you did **not** mean to change the format, fix your change —
//!    do not re-bless.
//!
//! The golden bytes must also keep *decoding and resuming*: format
//! stability is pointless if the decoder drifts semantically while the
//! bytes stay put.

use dess::{SimDuration, SimTime};
use snap_apps::mac::{mac_program, send_on_irq_app, RX_DISPATCH_STUB};
use snap_apps::prelude::install_handler;
use snap_core::{CoreConfig, Engine};
use snap_net::{NetworkSim, Position, Scheduler, Stimulus, TraceMode};
use snap_node::atmega::tinyos::beacon_system;
use snap_node::{BatteryConfig, NodeId};
use snap_snapshot::{Snapshot, FORMAT_VERSION};
use std::path::PathBuf;

/// Fixed scenario: everything here is deterministic, so the exported
/// bytes are a pure function of the wire format. Do not edit — editing
/// the scenario invalidates the golden file just like a format change.
fn golden_fleet() -> NetworkSim {
    let core = CoreConfig {
        engine: Engine::Fused,
        ..CoreConfig::default()
    };
    let mut sim = NetworkSim::new(12.0);
    sim.set_scheduler(Scheduler::EventDriven);
    sim.set_loss(0.15, 42);
    for i in 0..3u8 {
        let dst = if i + 1 == 3 { 1 } else { i + 2 };
        let extra = install_handler("EV_IRQ", "app_send_irq");
        let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
        let program = mac_program(i + 1, &extra, &app).unwrap();
        let id = sim.add_node_with_core(&program, Position::new(f64::from(i) * 8.0, 0.0), core);
        sim.schedule(
            id,
            SimTime::ZERO + SimDuration::from_us(1_000 + 700 * u64::from(i)),
            Stimulus::SensorIrq,
        );
    }
    sim
}

/// The `fleet_death.rs` scenario frozen mid-run: a 2-node SNAP MAC
/// ring and 2 ATmega beacon motes on micro batteries, plus a
/// mains-powered gateway, under `Scheduler::Sharded` (the header
/// stores it and the shard count) with a count-only trace. Same rule as
/// [`golden_fleet`]: do not edit.
fn mixed_fleet() -> NetworkSim {
    let core = CoreConfig {
        engine: Engine::Fused,
        ..CoreConfig::default()
    };
    let mut sim = NetworkSim::new(12.0);
    sim.set_scheduler(Scheduler::Sharded);
    sim.set_shards(2);
    sim.set_trace_mode(TraceMode::CountOnly);
    for i in 0..2u8 {
        let dst = if i + 1 == 2 { 1 } else { i + 2 };
        let extra = install_handler("EV_IRQ", "app_send_irq");
        let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
        let program = mac_program(i + 1, &extra, &app).unwrap();
        let id = sim.add_node_with_core(&program, Position::new(f64::from(i) * 8.0, 0.0), core);
        sim.schedule(
            id,
            SimTime::ZERO + SimDuration::from_us(1_000 + 900 * u64::from(i)),
            Stimulus::SensorIrq,
        );
        sim.set_battery(
            id,
            Some(BatteryConfig {
                capacity_uah: 3.0e-5,
                voltage_v: 3.0,
                sleep_ua: 6.0,
                tx_pj_per_word: 50.0,
            }),
        );
    }
    for i in 0..2u8 {
        let (avr, _) = beacon_system(i + 1, 2 + u16::from(i)).unwrap();
        let id = sim.add_avr_node(avr, Position::new(f64::from(i) * 8.0, -8.0));
        sim.set_battery(
            id,
            Some(BatteryConfig {
                capacity_uah: 8.4e-4,
                ..BatteryConfig::coin_cell_avr()
            }),
        );
    }
    let done = snap_asm::assemble("done").unwrap();
    sim.add_gateway_with_core(&done, Position::new(4.0, 4.0), core);
    // Still pending at the golden tick.
    sim.schedule(
        NodeId(1),
        SimTime::ZERO + SimDuration::from_us(MIXED_TICK_US + 1_500),
        Stimulus::SensorReading {
            id: 3,
            value: 0x0abc,
        },
    );
    sim
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}_v{FORMAT_VERSION}.snap"))
}

/// The fixed tick. Chosen so words have flown, LEDs have blinked and a
/// fade-RNG draw has happened — the snapshot exercises every section.
const GOLDEN_TICK_US: u64 = 6_000;

/// The mixed fleet's tick: both ATmega motes have died (about 7.0 and
/// 9.0 ms), the SNAP ring runs until about 16.2 ms, the gateway holds
/// undrained uplink frames, and the count-only trace has dropped every
/// event it counted.
const MIXED_TICK_US: u64 = 10_000;

#[test]
fn golden_snapshot_bytes_are_stable() {
    check_bytes_are_stable("mac_fleet", golden_fleet(), GOLDEN_TICK_US);
}

#[test]
fn golden_snapshot_still_restores_and_runs() {
    check_restores_and_runs("mac_fleet", golden_fleet, GOLDEN_TICK_US);
}

#[test]
fn mixed_golden_snapshot_bytes_are_stable() {
    check_bytes_are_stable("mixed_fleet", mixed_fleet(), MIXED_TICK_US);
}

#[test]
fn mixed_golden_snapshot_still_restores_and_runs() {
    check_restores_and_runs("mixed_fleet", mixed_fleet, MIXED_TICK_US);
}

fn check_bytes_are_stable(name: &str, mut sim: NetworkSim, tick_us: u64) {
    sim.run_until(SimTime::ZERO + SimDuration::from_us(tick_us))
        .unwrap();
    let bytes = Snapshot::Fleet(Box::new(sim.export_snapshot())).to_bytes();

    let path = golden_path(name);
    if std::env::var_os("SNAP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        eprintln!("blessed {} ({} bytes)", path.display(), bytes.len());
        return;
    }

    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             run `SNAP_BLESS=1 cargo test -p snap-net --test snapshot_golden` to create it",
            path.display()
        )
    });
    if bytes != golden {
        let first_diff = bytes
            .iter()
            .zip(&golden)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| bytes.len().min(golden.len()));
        panic!(
            "SNAPSHOT WIRE FORMAT DRIFT\n\
             \n\
             the serialized fleet snapshot no longer matches the checked-in\n\
             golden file ({}).\n\
             got {} bytes, expected {}; first difference at offset {}.\n\
             \n\
             Every snapshot on disk (srun --restore, snap-serve forks) decodes\n\
             with this format. If the change is intentional:\n\
               1. bump snap_snapshot::FORMAT_VERSION (currently {FORMAT_VERSION}),\n\
               2. re-bless: SNAP_BLESS=1 cargo test -p snap-net --test snapshot_golden\n\
             If it is not intentional, fix the encoding — do NOT re-bless.",
            path.display(),
            bytes.len(),
            golden.len(),
            first_diff,
        );
    }
}

/// The checked-in bytes must keep decoding and *resuming*: a format
/// that is byte-stable but semantically drifted would still strand old
/// snapshots. Restores the golden file and runs it 4 ms further.
fn check_restores_and_runs(name: &str, build: fn() -> NetworkSim, tick_us: u64) {
    let path = golden_path(name);
    let golden = match std::fs::read(&path) {
        Ok(b) => b,
        // The bless workflow creates the file; the stability test above
        // reports it missing with instructions.
        Err(_) => return,
    };
    let snap = Snapshot::from_bytes(&golden).expect("golden bytes decode");
    let fleet = snap.as_fleet().expect("golden snapshot is a fleet");
    let mut sim = NetworkSim::from_snapshot(fleet).expect("golden fleet restores");
    assert_eq!(sim.now().as_ps(), tick_us * 1_000_000);
    assert!(
        Snapshot::Fleet(Box::new(sim.export_snapshot())).to_bytes() == golden,
        "the restored golden re-encodes to different bytes"
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_us(tick_us + 4_000))
        .unwrap();

    // And it must land exactly where a straight run lands.
    let mut straight = build();
    straight
        .run_until(SimTime::ZERO + SimDuration::from_us(tick_us + 4_000))
        .unwrap();
    assert_eq!(
        sim.export_snapshot(),
        straight.export_snapshot(),
        "golden restore diverged from a straight run"
    );
}
