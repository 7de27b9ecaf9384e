//! # snap-snapshot — versioned, deterministic simulator checkpoints
//!
//! A snapshot captures the *complete* observable state of a simulation
//! — a single core, a node, or a whole fleet — such that
//! `restore(snapshot(S))` followed by running to time `T` is
//! **bit-identical** to running `S` straight to `T`: same registers,
//! same memories, same event order, same trace, same energy `f64`
//! bits. That property is enforced by `snap-net/tests/snapshot_equiv.rs`
//! across every engine × scheduler combination.
//!
//! ## Design rules
//!
//! * **The live types encode themselves.** This crate depends on
//!   nothing and knows no simulator type. It provides the wire codec
//!   ([`Writer`], [`Reader`]), the [`Encode`]/[`Decode`] trait pair, the
//!   framing below, and three opaque payloads ([`CoreSnapshot`],
//!   [`NodeSnapshot`], [`FleetSnapshot`]). Each simulator component
//!   implements the traits in the module that owns its state, so
//!   private fields stay private and each byte layout is written
//!   exactly once. Enum discriminants are pinned `u8` values beside the
//!   enum they encode, floats travel as [`f64::to_bits`] patterns,
//!   times as picoseconds.
//! * **Only state.** Every payload byte is state or framing. A constant
//!   of the hardware, the length of a fixed-size array, a count or id
//!   that another field already fixes, and a placeholder for a section
//!   a node's kind lacks are not written.
//! * **Caches are not state.** Predecode and fusion artifacts are pure
//!   functions of IMEM + config; they rebuild on restore. Both
//!   execution tiers are bit-identical, so this is invisible.
//! * **Fail closed.** Decoding foreign bytes never panics; every
//!   discriminant, length and checksum is validated. A payload that
//!   decodes but would re-encode to different bytes is rejected too:
//!   restore never normalises a value the live state cannot hold.
//! * **Versioned.** The header carries [`FORMAT_VERSION`]. Any change
//!   to the byte layout — even adding a field — must bump it; readers
//!   reject versions they don't understand rather than guessing. The
//!   golden-snapshot tests pin the current layout.
//!
//! ## File format
//!
//! ```text
//! [0..4)   magic  "SNPS"
//! [4..8)   format version, u32 LE
//! [8..9)   payload kind: 1 = core, 2 = node, 3 = fleet
//! [9..17)  FNV-1a 64 checksum of the payload, u64 LE
//! [17..]   payload: the `Encode` output of the processor, node or
//!          network simulation
//! ```

#![warn(missing_docs)]

pub mod wire;

pub use crate::wire::{fnv1a, Decode, Encode, Reader, SnapshotError, Writer, MAX_QUANTITY};
use std::fmt;

/// The four magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"SNPS";

/// Current snapshot format version. Bump on **any** byte-layout change;
/// see the crate docs for the versioning rules.
pub const FORMAT_VERSION: u32 = 3;

const KIND_CORE: u8 = 1;
const KIND_NODE: u8 = 2;
const KIND_FLEET: u8 = 3;

macro_rules! payloads {
    ($($(#[$doc:meta])* $name:ident;)*) => {$(
        $(#[$doc])*
        ///
        /// Opaque: the bytes are the live state's [`Encode`] output, and
        /// only the owning type can [`decode`](Self::decode) them.
        #[derive(Clone, PartialEq, Eq)]
        pub struct $name(Vec<u8>);

        impl $name {
            /// Encode `state` as a payload.
            pub fn encode<T: Encode>(state: &T) -> $name {
                $name(state.encoded())
            }

            /// Decode the payload back into live state. A payload that
            /// decodes but re-encodes differently holds a value the live
            /// type cannot represent (a field its variant does not use,
            /// an out-of-order key, a clamped count): it is rejected, not
            /// resumed as a different simulation.
            ///
            /// # Errors
            ///
            /// Any malformed payload yields a [`SnapshotError`].
            pub fn decode<T: Encode + Decode>(&self) -> Result<T, SnapshotError> {
                let mut r = Reader::new(&self.0);
                let state = T::decode(&mut r)?;
                if !r.is_empty() {
                    return Err(SnapshotError::Corrupt("trailing bytes"));
                }
                if state.encoded() != self.0 {
                    return Err(SnapshotError::Corrupt("non-canonical encoding"));
                }
                Ok(state)
            }

            /// The encoded payload, without header or checksum.
            pub fn as_bytes(&self) -> &[u8] {
                &self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct(stringify!($name))
                    .field("len", &self.0.len())
                    .field("fnv1a", &format_args!("{:#018x}", fnv1a(&self.0)))
                    .finish()
            }
        }
    )*};
}

payloads! {
    /// The encoded state of one processor.
    CoreSnapshot;
    /// The encoded state of one network node.
    NodeSnapshot;
    /// The encoded state of a whole network simulation.
    FleetSnapshot;
}

/// A snapshot of any granularity. The payloads stay boxed so callers
/// that build the variants keep compiling.
#[derive(Debug, Clone, PartialEq)]
pub enum Snapshot {
    /// A single processor.
    Core(Box<CoreSnapshot>),
    /// A single network node.
    Node(Box<NodeSnapshot>),
    /// A whole fleet.
    Fleet(Box<FleetSnapshot>),
}

impl Snapshot {
    /// Serialize with header and checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (kind, payload) = match self {
            Snapshot::Core(c) => (KIND_CORE, c.as_bytes()),
            Snapshot::Node(n) => (KIND_NODE, n.as_bytes()),
            Snapshot::Fleet(f) => (KIND_FLEET, f.as_bytes()),
        };
        let mut out = Vec::with_capacity(17 + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(kind);
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Parse a snapshot, validating magic, version, kind and checksum.
    /// The payload itself is decoded by the owning type's
    /// `from_snapshot`.
    ///
    /// # Errors
    ///
    /// Any malformed input yields a [`SnapshotError`]; this never
    /// panics on foreign bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < 17 {
            return Err(SnapshotError::Truncated { at: bytes.len() });
        }
        if bytes[0..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != FORMAT_VERSION {
            return Err(SnapshotError::BadVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let kind = bytes[8];
        let checksum = u64::from_le_bytes([
            bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15], bytes[16],
        ]);
        let payload = bytes[17..].to_vec();
        if fnv1a(&payload) != checksum {
            return Err(SnapshotError::BadChecksum);
        }
        Ok(match kind {
            KIND_CORE => Snapshot::Core(Box::new(CoreSnapshot(payload))),
            KIND_NODE => Snapshot::Node(Box::new(NodeSnapshot(payload))),
            KIND_FLEET => Snapshot::Fleet(Box::new(FleetSnapshot(payload))),
            _ => return Err(SnapshotError::Corrupt("payload kind")),
        })
    }

    /// The fleet payload, if this is a fleet snapshot.
    pub fn as_fleet(&self) -> Option<&FleetSnapshot> {
        match self {
            Snapshot::Fleet(f) => Some(f.as_ref()),
            _ => None,
        }
    }

    /// The core payload, if this is a core snapshot.
    pub fn as_core(&self) -> Option<&CoreSnapshot> {
        match self {
            Snapshot::Core(c) => Some(c.as_ref()),
            _ => None,
        }
    }

    /// The node payload, if this is a node snapshot.
    pub fn as_node(&self) -> Option<&NodeSnapshot> {
        match self {
            Snapshot::Node(n) => Some(n.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in for live state: a float, a sequence, and a port
    /// whose decoder masks instead of rejecting.
    #[derive(Debug, PartialEq)]
    struct Sample {
        energy: f64,
        words: Vec<u16>,
        port: u16,
    }

    impl Encode for Sample {
        fn encode(&self, w: &mut Writer) {
            w.u64(self.energy.to_bits());
            w.seq_u16(&self.words);
            w.u16(self.port);
        }
    }

    impl Decode for Sample {
        fn decode(r: &mut Reader) -> Result<Sample, SnapshotError> {
            Ok(Sample {
                energy: f64::from_bits(r.u64()?),
                words: r.seq_u16()?,
                port: r.u16()? & 0x0fff,
            })
        }
    }

    fn sample(port: u16) -> Sample {
        Sample {
            energy: f64::from_bits(0x7ff8_0000_dead_beef), // a NaN payload
            words: vec![0x1234; 64],
            port,
        }
    }

    fn core_bytes() -> Vec<u8> {
        Snapshot::Core(Box::new(CoreSnapshot::encode(&sample(0x2a)))).to_bytes()
    }

    #[test]
    fn every_kind_round_trips_through_bytes() {
        let snaps = [
            Snapshot::Core(Box::new(CoreSnapshot::encode(&sample(1)))),
            Snapshot::Node(Box::new(NodeSnapshot::encode(&sample(2)))),
            Snapshot::Fleet(Box::new(FleetSnapshot::encode(&sample(3)))),
        ];
        for (snap, kind) in snaps.iter().zip([KIND_CORE, KIND_NODE, KIND_FLEET]) {
            let bytes = snap.to_bytes();
            assert_eq!((&bytes[0..4], bytes[8]), (&b"SNPS"[..], kind));
            assert_eq!(bytes[4..8], FORMAT_VERSION.to_le_bytes());
            assert_eq!(&Snapshot::from_bytes(&bytes).unwrap(), snap);
        }
        let back = Snapshot::from_bytes(&core_bytes()).unwrap();
        assert!(back.as_node().is_none() && back.as_fleet().is_none());
        let decoded: Sample = back.as_core().unwrap().decode().unwrap();
        assert_eq!(decoded.energy.to_bits(), sample(0).energy.to_bits());
    }

    #[test]
    fn bad_framing_is_rejected() {
        let edit = |f: fn(&mut Vec<u8>)| {
            let mut bytes = core_bytes();
            f(&mut bytes);
            Snapshot::from_bytes(&bytes)
        };
        assert_eq!(edit(|b| b[0] = b'X'), Err(SnapshotError::BadMagic));
        assert_eq!(
            edit(|b| b[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes())),
            Err(SnapshotError::BadVersion {
                found: FORMAT_VERSION + 1,
                expected: FORMAT_VERSION
            })
        );
        assert_eq!(
            edit(|b| b[8] = 9),
            Err(SnapshotError::Corrupt("payload kind"))
        );
        assert_eq!(
            edit(|b| *b.last_mut().unwrap() ^= 1),
            Err(SnapshotError::BadChecksum)
        );
        assert_eq!(
            edit(|b| b.truncate(b.len() - 3)),
            Err(SnapshotError::BadChecksum)
        );
        assert_eq!(
            edit(|b| b.truncate(10)),
            Err(SnapshotError::Truncated { at: 10 })
        );
    }

    #[test]
    fn bad_payloads_are_rejected() {
        let payload = CoreSnapshot::encode(&sample(0x2a)).as_bytes().to_vec();
        let decode = |bytes: &[u8]| CoreSnapshot(bytes.to_vec()).decode::<Sample>();
        assert!(matches!(
            decode(&payload[..10]),
            Err(SnapshotError::Truncated { .. })
        ));
        let trailing = [&payload[..], &[0]].concat();
        assert_eq!(
            decode(&trailing),
            Err(SnapshotError::Corrupt("trailing bytes"))
        );
        // High port bits decode, but to state that re-encodes without
        // them: rejected rather than silently masked.
        let masked = CoreSnapshot::encode(&sample(0xf02a));
        assert_eq!(
            masked.decode::<Sample>(),
            Err(SnapshotError::Corrupt("non-canonical encoding"))
        );
    }

    #[test]
    fn garbage_never_panics() {
        let bytes = core_bytes();
        let mut garbage = bytes.clone();
        for i in 0..bytes.len() {
            let _ = Snapshot::from_bytes(&bytes[..i]);
            let _ = CoreSnapshot(bytes[17..i.max(17)].to_vec()).decode::<Sample>();
            garbage[i] = garbage[i].wrapping_add(0x5a);
            let _ = Snapshot::from_bytes(&garbage);
        }
    }
}
