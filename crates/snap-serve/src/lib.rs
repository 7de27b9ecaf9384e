//! # snap-serve — netsim as a service
//!
//! A multi-tenant simulation server over the `snap-net` fleet
//! simulator: submit a scenario, watch it advance over a live stream,
//! pause it on a deterministic boundary, download a `snap-snapshot`
//! checkpoint, fork it into a parallel universe, and resume either —
//! with the guarantee that none of this is observable in the results.
//! A served sim that is paused, forked and resumed produces
//! bit-identical traces and energy `f64` bits to an uninterrupted run
//! (enforced by `server::tests::fork_resume_is_bit_identical` and the
//! end-to-end `tests/smoke.rs`).
//!
//! Three layers:
//!
//! * [`scenario`] — the JSON scenario spec (`POST /sims` body) and its
//!   deterministic fleet builder.
//! * [`server`] — the registry: one runner thread per sim advancing it
//!   slice by slice; every control operation lands on a slice boundary,
//!   which is exactly where `snap_net` snapshots are defined.
//! * [`http`] — a dependency-free `std::net` HTTP/1.1 front end with
//!   SSE streaming (the workspace builds offline; there is no async
//!   runtime, and this server does not need one — see DESIGN.md §11).
//!   One accept thread blocks in `accept` and hands each connection a
//!   thread of its own, at most [`http::MAX_CONNECTIONS`] at once;
//!   past that it answers 503.
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! let server = Arc::new(snap_serve::SimServer::new());
//! let handle = snap_serve::serve(server, "127.0.0.1:7878").unwrap();
//! println!("listening on http://{}", handle.addr());
//! # drop(handle);
//! ```
//!
//! Then, from a shell:
//!
//! ```text
//! curl -s localhost:7878/sims -d '{"mac_nodes":3,"loss":0.15,"run_to_us":100000}'
//! curl -sN localhost:7878/sims/1/stream          # live status events
//! curl -s  localhost:7878/sims/1/snapshot -o s.snap
//! curl -s -X POST localhost:7878/sims/1/fork     # → {"id": 2}, paused
//! curl -s -X POST localhost:7878/sims/2/resume
//! ```

#![warn(missing_docs)]

pub mod http;
pub mod scenario;
pub mod server;

pub use http::{serve, ServeHandle};
pub use scenario::{parse_scenario, Scenario};
pub use server::{wait_terminal, SimHandle, SimId, SimServer, SimStatus};
