//! Restore fails closed, proven by mutation.
//!
//! Starting from each blessed golden snapshot, every case mutates the
//! payload (set a byte, flip a bit, truncate, or overwrite a run with
//! 0xff) and re-frames it with a correct FNV-1a checksum, so the
//! mutant gets past the framing and into the payload decoder. Two
//! properties must hold for every mutant:
//!
//! * neither [`Snapshot::from_bytes`] nor [`NetworkSim::from_snapshot`]
//!   panics, and
//! * a mutant that restores re-encodes to exactly its own bytes:
//!   restore rejects what the live state cannot hold instead of
//!   normalising it into a different simulation.
//!
//! The regression cases below pin one mutant for each class of input
//! restore must reject rather than normalise or crash on.

use dess::{SimDuration, SimTime};
use proptest::prelude::*;
use snap_net::{NetworkSim, Position, Stimulus};
use snap_node::NodeId;
use snap_snapshot::{fnv1a, Snapshot, SnapshotError, FORMAT_VERSION};
use std::path::PathBuf;

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}_v{FORMAT_VERSION}.snap"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `payload` framed as a fleet snapshot with a matching checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = b"SNPS".to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.push(3);
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

fn payload(sim: &NetworkSim) -> Vec<u8> {
    Snapshot::Fleet(Box::new(sim.export_snapshot())).to_bytes()[17..].to_vec()
}

fn restore(payload: &[u8]) -> Result<NetworkSim, SnapshotError> {
    let snap = Snapshot::from_bytes(&frame(payload))?;
    NetworkSim::from_snapshot(snap.as_fleet().expect("fleet kind"))
}

/// One payload mutation. Positions are taken modulo the payload
/// length when applied.
#[derive(Debug, Clone)]
enum Mutation {
    Set { at: u64, byte: u8 },
    Flip { at: u64, bit: u8 },
    Truncate { len: u64 },
    Ones { at: u64, len: usize },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<u64>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Set { at, byte }),
        (any::<u64>(), 0u8..8).prop_map(|(at, bit)| Mutation::Flip { at, bit }),
        any::<u64>().prop_map(|len| Mutation::Truncate { len }),
        (any::<u64>(), 1usize..=16).prop_map(|(at, len)| Mutation::Ones { at, len }),
    ]
}

fn mutate(payload: &[u8], m: &Mutation) -> Vec<u8> {
    let mut out = payload.to_vec();
    let n = out.len() as u64;
    match *m {
        Mutation::Set { at, byte } => out[(at % n) as usize] = byte,
        Mutation::Flip { at, bit } => out[(at % n) as usize] ^= 1 << bit,
        Mutation::Truncate { len } => out.truncate((len % n) as usize),
        Mutation::Ones { at, len } => {
            let at = (at % n) as usize;
            let end = (at + len).min(out.len());
            out[at..end].fill(0xff);
        }
    }
    out
}

/// The two properties, for one mutant of `golden_bytes`.
fn check(golden_bytes: &[u8], m: &Mutation) {
    let mutant = frame(&mutate(&golden_bytes[17..], m));
    let Ok(snap) = Snapshot::from_bytes(&mutant) else {
        return;
    };
    if let Ok(sim) = NetworkSim::from_snapshot(snap.as_fleet().expect("fleet kind")) {
        let again = Snapshot::Fleet(Box::new(sim.export_snapshot())).to_bytes();
        assert!(
            again == mutant,
            "accepted mutant {m:?} re-encodes to different bytes"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn mac_golden_mutants_fail_closed(m in mutation()) {
        thread_local!(static GOLDEN: Vec<u8> = golden("mac_fleet"));
        GOLDEN.with(|g| check(g, &m));
    }

    #[test]
    fn mixed_golden_mutants_fail_closed(m in mutation()) {
        thread_local!(static GOLDEN: Vec<u8> = golden("mixed_fleet"));
        GOLDEN.with(|g| check(g, &m));
    }
}

/// Payload layout offsets used by the regression cases: the fleet
/// header is `now` (8), scheduler (1), shard count (8), explicit-trace
/// flag (1), range (8), node count (8), then per node x (8), y (8)
/// and the node itself.
const SHARDS_AT: usize = 9;
const FIRST_X_AT: usize = 34;
/// A trace ends the payload: mode (1), recorded (8), sealed (8), event
/// count (8), then 19 bytes per event — time (8), node (4), kind (1),
/// payload word (2), peer node (4).
const TRACE_HEADER: usize = 25;
const TRACE_EVENT: usize = 19;

fn corrupt(what: &'static str) -> Result<(), SnapshotError> {
    Err(SnapshotError::Corrupt(what))
}

fn verdict(payload: &[u8]) -> Result<(), SnapshotError> {
    restore(payload).map(drop)
}

/// A finite but huge position is rejected: the topology's 3×3 cell
/// scan around it would overflow `i64`.
#[test]
fn huge_position_is_rejected() {
    let mut p = golden("mac_fleet")[17..].to_vec();
    p[FIRST_X_AT..FIRST_X_AT + 8].copy_from_slice(&1e300f64.to_bits().to_le_bytes());
    assert_eq!(verdict(&p), corrupt("node position"));
}

/// A zero shard count is rejected, not clamped to 1.
#[test]
fn zero_shard_count_is_rejected() {
    let mut p = golden("mac_fleet")[17..].to_vec();
    p[SHARDS_AT..SHARDS_AT + 8].copy_from_slice(&0u64.to_le_bytes());
    assert_eq!(verdict(&p), corrupt("shard count"));
}

/// The mac golden keeps a full trace; its events close the payload.
fn trace_at(p: &[u8]) -> usize {
    let sim = restore(p).unwrap();
    p.len() - TRACE_HEADER - TRACE_EVENT * sim.trace().events().len()
}

/// A sealed prefix past the event buffer is rejected, not clamped.
#[test]
fn oversized_trace_seal_is_rejected() {
    let mut p = golden("mac_fleet")[17..].to_vec();
    let sealed_at = trace_at(&p) + 9;
    p[sealed_at..sealed_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(verdict(&p), corrupt("trace sealed prefix"));
}

/// A peer node on an event kind that has none is rejected, not
/// dropped.
#[test]
fn unused_trace_field_is_rejected() {
    let mut p = golden("mac_fleet")[17..].to_vec();
    let first = trace_at(&p) + TRACE_HEADER;
    let (deliver, collision) = (1, 2);
    assert!(
        ![deliver, collision].contains(&p[first + 12]),
        "the first event has no peer"
    );
    p[first + 15] = 1;
    assert_eq!(verdict(&p), corrupt("non-canonical encoding"));
}

/// A one-node fleet with a pending sensor IRQ and one sensor reading,
/// snapshotted before it runs.
fn small_fleet() -> NetworkSim {
    let mut sim = NetworkSim::new(10.0);
    let program = snap_asm::assemble("done").unwrap();
    let id = sim.add_node(&program, Position::new(0.0, 0.0));
    sim.node_mut(id).sensors_mut().set_reading(0x0123, 0xbeef);
    sim.schedule(
        NodeId(1),
        SimTime::ZERO + SimDuration::from_ms(1),
        Stimulus::SensorIrq,
    );
    sim
}

/// A sensor id on a stimulus kind that has none is rejected, not
/// dropped.
#[test]
fn unused_stimulus_field_is_rejected() {
    let mut p = payload(&small_fleet());
    // The empty trace ends the payload; before it, the one stimulus:
    // time (8), node (4), kind (1), sensor id (2), value (2).
    let id_at = p.len() - TRACE_HEADER - 4;
    assert_eq!(p[id_at - 1], 0, "the stimulus is a sensor IRQ");
    p[id_at] = 7;
    assert_eq!(verdict(&p), corrupt("non-canonical encoding"));
}

/// Sensor ids beyond 12 bits are rejected, not masked, and
/// out-of-order ids are rejected, not re-sorted.
#[test]
fn unmasked_or_unsorted_sensor_ids_are_rejected() {
    let p = payload(&small_fleet());
    // One reading: count 1, id 0x0123, value 0xbeef.
    let pattern = [1, 0, 0, 0, 0, 0, 0, 0, 0x23, 0x01, 0xef, 0xbe];
    let at = p
        .windows(pattern.len())
        .position(|w| w == pattern)
        .expect("sensor bank in payload")
        + 8;

    let mut masked = p.clone();
    masked[at + 1] = 0x11;
    assert_eq!(verdict(&masked), corrupt("sensor id"));

    // Two readings, the second id below the first.
    let mut unsorted = p.clone();
    unsorted[at - 8] = 2;
    unsorted.splice(at + 4..at + 4, [0x22, 0x01, 0, 0]);
    assert_eq!(verdict(&unsorted), corrupt("sensor id"));
}
