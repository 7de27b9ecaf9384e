//! # snap-net — multi-node sensor-network simulation
//!
//! Runs many [`snap_node::Node`]s against a shared broadcast radio
//! channel, reproducing the network context of the paper's §4.2
//! benchmarks: nodes exchange MAC packets, answer AODV route requests
//! and forward data across hops, all driven by the handlers in
//! `snap-apps` executing on simulated SNAP/LE cores.
//!
//! * [`topology`] — node positions and radio range.
//! * [`channel`] — the broadcast channel: a word transmitted by one
//!   node is heard by every in-range node whose receiver is on, unless
//!   another audible transmission overlaps in time (collision).
//! * [`sim`] — the network simulator: one sleep-aware, spatially
//!   sharded conservative-lookahead engine (per-shard wake calendars
//!   pop only the nodes that are due; idle nodes cost nothing; one
//!   shard below 10⁵ nodes), with the original lockstep scheduler kept
//!   as a bit-identical reference. Transmissions become deliveries;
//!   external stimuli (sensor interrupts, sensor readings) are injected
//!   on schedule.
//! * [`trace`] — a serializable event trace for analysis/debugging.
//! * [`telemetry`] — observability export: the `snap-metrics-v1`
//!   report and a Chrome `trace_event` view (one Perfetto track per
//!   node) of a run, via `snap-telemetry`.
//!
//! ## Example: two nodes, one packet
//!
//! ```
//! use snap_net::{NetworkSim, Position};
//! use snap_apps::aodv::relay_program;
//! use dess::{SimDuration, SimTime};
//!
//! let mut sim = NetworkSim::new(10.0); // radio range
//! let a = sim.add_node(&relay_program(1, &[]).unwrap(), Position::new(0.0, 0.0));
//! let _b = sim.add_node(&relay_program(2, &[]).unwrap(), Position::new(5.0, 0.0));
//! sim.run_until(SimTime::ZERO + SimDuration::from_ms(5)).unwrap();
//! assert!(sim.node(a).cpu().stats().instructions > 0);
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod sim;
pub mod snapshot;
pub mod telemetry;
pub mod topology;
pub mod trace;

pub use channel::Transmission;
pub use sim::{NetworkSim, Scheduler, Stimulus};
pub use topology::{Position, Topology};
pub use trace::{Trace, TraceEvent, TraceKind, TraceMode};
