//! Fleet checkpoints in the `snap-snapshot` format.
//!
//! [`NetworkSim::export_snapshot`] captures a whole network — every
//! node (via [`snap_node::snapshot`]), the topology, the channel with
//! its fade RNG, the delivery and stimulus calendars, and the trace —
//! such that a restored fleet resumes **bit-identically** under every
//! scheduler. `snap-net/tests/snapshot_equiv.rs` enforces that across
//! the full engine × scheduler matrix.
//!
//! The channel, transmissions, trace, scheduler and stimuli encode
//! themselves in their own modules; this module writes the fleet's
//! fields in order. Positions and the calendars come from types that
//! know nothing of snapshots, so they are written field by field here.
//! Each node's position precedes the node: node `i` has id `i + 1`, so
//! the node sequence fixes both the count and the ids of the positions.
//!
//! ## Why snapshots compose with every scheduler
//!
//! A snapshot is only taken between [`NetworkSim::run_until`] calls
//! (`export_snapshot` takes `&self`; a run holds `&mut self`). At that
//! boundary the event-driven engine may keep its wake calendar from the
//! last call, but it holds nothing this module does not write: every
//! calendar entry equals its node's `next_activity()`, and the epoch's
//! stimulus queue and output buffer are empty (pending stimuli wait in
//! the stimulus calendar, which is written). A restored fleet builds
//! the same wake calendar on its first run. The observable state is
//! exactly {nodes, topology, channel, calendars, trace, clock} — what
//! this module serializes. In particular a *mid-epoch* snapshot cannot
//! exist, which is the safety argument for the event-driven engine
//! (DESIGN.md §11). No engine reads the header's shard count; it is
//! kept so a restored fleet re-encodes to its own bytes.
//!
//! Calendar FIFO order survives the round trip: entries are exported
//! sorted by `(time, insertion seq)` and re-`schedule`d in that order,
//! which reassigns fresh-but-ordered sequence numbers.
//!
//! Not captured, by design: telemetry (observation-only — call
//! [`NetworkSim::enable_telemetry`] again after restore).

use crate::channel::{Channel, Transmission};
use crate::sim::{NetworkSim, Scheduler, Stimulus};
use crate::topology::Position;
use crate::trace::Trace;
use dess::SimTime;
use snap_node::{Node, NodeId};
use snap_snapshot::{Decode, Encode, FleetSnapshot, Reader, SnapshotError, Writer};

impl NetworkSim {
    /// Capture the complete observable fleet state. Call between runs —
    /// the borrow checker already guarantees no run is in progress.
    pub fn export_snapshot(&self) -> FleetSnapshot {
        FleetSnapshot::encode(self)
    }

    /// Rebuild a fleet from a snapshot. The restored simulation resumes
    /// bit-identically under every scheduler.
    ///
    /// # Errors
    ///
    /// Rejects structurally invalid snapshots ([`SnapshotError::Corrupt`]).
    pub fn from_snapshot(snap: &FleetSnapshot) -> Result<NetworkSim, SnapshotError> {
        snap.decode()
    }
}

impl Encode for NetworkSim {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.now.as_ps());
        self.scheduler.encode(w);
        w.u64(self.num_shards as u64);
        w.bool(self.trace_mode_explicit);
        w.u64(self.topology.range().to_bits());
        w.len(self.nodes.len());
        for node in &self.nodes {
            let p = self
                .topology
                .position(node.id())
                .expect("every node is placed");
            w.u64(p.x.to_bits());
            w.u64(p.y.to_bits());
            node.encode(w);
        }
        self.channel.encode(w);
        let deliveries = self.deliveries.snapshot_entries();
        w.len(deliveries.len());
        for (at, tx) in &deliveries {
            w.u64(at.as_ps());
            tx.encode(w);
        }
        let stimuli = self.stimuli.snapshot_entries();
        w.len(stimuli.len());
        for (at, (node, stimulus)) in &stimuli {
            w.u64(at.as_ps());
            w.u32(node.0);
            stimulus.encode(w);
        }
        self.trace.encode(w);
    }
}

/// Node ids run 1..=n in slot order (they index the node vector), every
/// position is finite and in [`Topology`](crate::Topology) bounds, and
/// every stimulus targets an existing node.
impl Decode for NetworkSim {
    fn decode(r: &mut Reader) -> Result<NetworkSim, SnapshotError> {
        let now = SimTime::from_ps(r.quantity()?);
        let scheduler = Scheduler::decode(r)?;
        let num_shards = r.u64()?;
        if num_shards == 0 {
            return Err(SnapshotError::Corrupt("shard count"));
        }
        let trace_mode_explicit = r.bool()?;
        let range = f64::from_bits(r.u64()?);
        if !range.is_finite() || range <= 0.0 {
            return Err(SnapshotError::Corrupt("radio range"));
        }
        let mut sim = NetworkSim::new(range);
        sim.now = now;
        sim.scheduler = scheduler;
        sim.num_shards = num_shards as usize;
        sim.trace_mode_explicit = trace_mode_explicit;

        let mut placed = Vec::new();
        for slot in 0..r.len()? {
            let p = Position::new(f64::from_bits(r.u64()?), f64::from_bits(r.u64()?));
            if !sim.topology.in_bounds(p) {
                return Err(SnapshotError::Corrupt("node position"));
            }
            let node = Node::decode(r)?;
            if node.id().0 as usize != slot + 1 {
                return Err(SnapshotError::Corrupt("node id sequence"));
            }
            placed.push((node.id(), p));
            sim.nodes.push(node);
        }
        sim.topology.place_many(placed);

        sim.channel = Channel::decode(r)?;
        for _ in 0..r.len()? {
            let at = SimTime::from_ps(r.u64()?);
            sim.deliveries.schedule(at, Transmission::decode(r)?);
        }
        for _ in 0..r.len()? {
            let at = SimTime::from_ps(r.u64()?);
            let node = NodeId(r.u32()?);
            if node.0 == 0 || node.0 as usize > sim.nodes.len() {
                return Err(SnapshotError::Corrupt("stimulus target node"));
            }
            sim.stimuli.schedule(at, (node, Stimulus::decode(r)?));
        }
        sim.trace = Trace::decode(r)?;
        Ok(sim)
    }
}
