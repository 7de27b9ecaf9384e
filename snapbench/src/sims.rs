//! The simulation workloads: build a seeded fleet, run it in simulated
//! slices, repeat for the measured time, then check the output against
//! other engines or schedulers.

use crate::fleets::{self, Fingerprint, GridSpec};
use crate::stats::{median, percentile, Checks, Metric};
use crate::trace::Tracer;
use dess::{SimDuration, SimTime};
use snap_core::Engine;
use snap_net::{NetworkSim, Scheduler};
use std::time::Instant;

type Build = Box<dyn Fn(&mut Tracer) -> NetworkSim>;

/// A fleet workload: how to build it, how far one rep runs, and which
/// differently configured fleets must reproduce its output.
pub struct FleetWorkload {
    /// Simulated span of one rep.
    pub horizon: SimDuration,
    /// Simulated span of one `run_until` call: the operation whose
    /// latency the workload reports.
    pub slice: SimDuration,
    /// Builds the measured fleet (assembly included: it is set-up).
    pub build: Build,
    /// The instant the oracle fleets are compared at.
    pub oracle_at: SimDuration,
    /// `(metric-name stem, fleet)`: each runs to `oracle_at` in one
    /// call and must match the measured configuration there.
    pub oracles: Vec<(&'static str, Build)>,
}

fn t(d: SimDuration) -> SimTime {
    SimTime::ZERO + d
}

/// `core_compute`: 16 compute-bound nodes under the default engine;
/// Interp and Aot must reproduce Fused over one simulated second.
pub fn core_compute(seed: u64, quick: bool) -> FleetWorkload {
    let fleet = move |engine: Engine| -> Build {
        Box::new(move |tr: &mut Tracer| {
            let programs = tr.span("snap-asm.assemble", 0, |_| fleets::compute_programs(seed));
            tr.span("snap-net.build", 0, |_| {
                fleets::compute_fleet(&programs, engine)
            })
        })
    };
    FleetWorkload {
        horizon: SimDuration::from_ms(if quick { 20 } else { 1_000 }),
        slice: SimDuration::from_ms(1),
        build: fleet(Engine::Fused),
        oracle_at: SimDuration::from_ms(if quick { 20 } else { 1_000 }),
        oracles: vec![
            ("interp", fleet(Engine::Interp)),
            ("aot", fleet(Engine::Aot)),
        ],
    }
}

/// A grid workload of `width × height` nodes under the `Auto`
/// scheduler, with the given oracle schedulers.
pub fn grid(
    (width, height): (usize, usize),
    horizon: SimDuration,
    slice: SimDuration,
    oracle_at: SimDuration,
    oracles: &[(&'static str, Scheduler, usize)],
    seed: u64,
) -> FleetWorkload {
    let fleet = move |scheduler: Scheduler, shards: usize| -> Build {
        Box::new(move |tr: &mut Tracer| {
            let spec = tr.span("snap-asm.assemble", 0, |_| {
                GridSpec::new(width, height, seed)
            });
            tr.span("snap-net.build", 0, |_| {
                spec.build(scheduler, shards, horizon)
            })
        })
    };
    FleetWorkload {
        horizon,
        slice,
        build: fleet(Scheduler::Auto, snap_net::sim::DEFAULT_SHARDS),
        oracle_at,
        oracles: oracles
            .iter()
            .map(|&(name, scheduler, shards)| (name, fleet(scheduler, shards)))
            .collect(),
    }
}

/// One rep: a fresh fleet run to the horizon. Every rep of a workload
/// simulates exactly the same thing, slice for slice.
pub struct Rep {
    pub setup_s: f64,
    pub instructions: u64,
    pub dispatches: u64,
    /// Nodes × simulated ms.
    pub node_ms: f64,
    pub slices_ms: Vec<f64>,
}

/// The measured reps.
#[derive(Default)]
pub struct RepStats {
    pub reps: Vec<Rep>,
}

impl RepStats {
    /// For each slice of a rep, the fastest time any rep took over it.
    ///
    /// A shared virtual machine alternates, seconds at a time, between a
    /// fast state and one where a neighbour contends for the physical
    /// core; on a 2-vCPU KVM guest the simulator's branchy interpreter
    /// code ran about 40% slower in the slow state, and medians over
    /// reps swung by 30% between runs. Interference only ever adds
    /// time, and every rep repeats identical work, so the minimum over
    /// reps of each slice measures the program rather than the
    /// neighbour.
    pub fn best_slices_ms(&self) -> Vec<f64> {
        let n = self
            .reps
            .iter()
            .map(|r| r.slices_ms.len())
            .min()
            .unwrap_or(0);
        (0..n)
            .map(|i| {
                self.reps
                    .iter()
                    .map(|r| r.slices_ms[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Host ns of one rep made of the fastest slices.
    pub fn best_run_ns(&self) -> f64 {
        self.best_slices_ms().iter().sum::<f64>() * 1e6
    }

    /// Simulated instructions per host µs of that best rep.
    pub fn sim_mips(&self) -> f64 {
        self.reps
            .first()
            .map_or(f64::NAN, |r| r.instructions as f64)
            / (self.best_run_ns() / 1e3)
    }
}

/// Run `fleet` once to its horizon in slices, returning the run's
/// fingerprint at `oracle_at` and at the end.
fn run_rep(
    w: &FleetWorkload,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (Rep, Fingerprint, Fingerprint) {
    let start = Instant::now();
    let mut sim = tr.span("bench.setup", 0, |tr| (w.build)(tr));
    let setup_s = start.elapsed().as_secs_f64();
    let mut at_oracle = None;
    let mut slices_ms = Vec::new();
    while sim.now() < t(w.horizon) {
        let next = (sim.now() + w.slice).min(t(w.horizon));
        let s = Instant::now();
        let r = tr.span("snap-net.run_until", 0, |_| sim.run_until(next));
        slices_ms.push(s.elapsed().as_secs_f64() * 1e3);
        if !checks.check(r.is_ok(), || format!("run_until({next:?}): {r:?}")) {
            break;
        }
        if sim.now() == t(w.oracle_at) {
            at_oracle = Some(tr.span("bench.check", 0, |_| Fingerprint::of(&sim)));
        }
    }
    let end = tr.span("bench.check", 0, |_| Fingerprint::of(&sim));
    let rep = Rep {
        setup_s,
        instructions: Fingerprint::instructions(&sim),
        dispatches: Fingerprint::dispatches(&sim),
        node_ms: sim.node_count() as f64 * w.horizon.as_ms(),
        slices_ms,
    };
    let at_oracle = at_oracle.unwrap_or_else(|| end.clone());
    tr.span("bench.teardown", 0, |_| drop(sim));
    (rep, at_oracle, end)
}

/// The first warm-up rep's output: every later rep and every oracle
/// must reproduce it.
pub struct Reference {
    pub at_oracle: Fingerprint,
    pub end: Fingerprint,
}

/// Warm-up reps for at least `seconds` (one at least), so caches,
/// allocator arenas and clock frequency settle before timing starts.
pub fn warm_up(w: &FleetWorkload, seconds: f64, checks: &mut Checks) -> Reference {
    let start = Instant::now();
    let (_, at_oracle, end) = run_rep(w, &mut Tracer::off(), checks);
    while start.elapsed().as_secs_f64() < seconds {
        let (_, _, again) = run_rep(w, &mut Tracer::off(), checks);
        checks.check(again == end, || {
            format!("warm-up reps disagree: {}", end.diff(&again))
        });
    }
    Reference { at_oracle, end }
}

/// Measured reps until `seconds` have passed (at least one rep).
pub fn measure(
    w: &FleetWorkload,
    reference: &Reference,
    seconds: f64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> RepStats {
    let mut stats = RepStats::default();
    let start = Instant::now();
    while stats.reps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (rep, _, end) = run_rep(w, tr, checks);
        checks.check(end == reference.end, || {
            format!(
                "rep {} diverged from the warm-up rep: {}",
                stats.reps.len(),
                reference.end.diff(&end)
            )
        });
        stats.reps.push(rep);
    }
    stats
}

/// Run every oracle fleet to `oracle_at` in one call and compare it
/// with the reference. Returns each oracle's host µs per simulated ms.
pub fn check_oracles(w: &FleetWorkload, reference: &Reference, checks: &mut Checks) -> Vec<Metric> {
    let mut timings = Vec::new();
    for (name, build) in &w.oracles {
        let mut sim = build(&mut Tracer::off());
        let start = Instant::now();
        let r = sim.run_until(t(w.oracle_at));
        let us = start.elapsed().as_secs_f64() * 1e6;
        if checks.check(r.is_ok(), || format!("oracle {name}: {r:?}")) {
            let got = Fingerprint::of(&sim);
            checks.check(got == reference.at_oracle, || {
                format!(
                    "oracle {name} disagrees with the measured run: {}",
                    reference.at_oracle.diff(&got)
                )
            });
        }
        timings.push(Metric::new(
            &format!("snap-net.{name}_us_per_sim_ms"),
            "us",
            us / w.oracle_at.as_ms(),
            1,
        ));
    }
    timings
}

/// The end-to-end metrics of a fleet workload: set-up over every rep,
/// run time over the fastest time of each slice.
pub fn end_to_end(stats: &RepStats) -> Vec<Metric> {
    let setup: Vec<f64> = stats.reps.iter().map(|r| r.setup_s).collect();
    let slices = stats.best_slices_ms();
    vec![
        Metric::new("setup_s", "s", median(&setup), setup.len()),
        Metric::new("sim_mips", "instr/us", stats.sim_mips(), stats.reps.len()),
        Metric::new("op_p50_ms", "ms", percentile(&slices, 0.5), slices.len()),
        Metric::new("op_p99_ms", "ms", percentile(&slices, 0.99), slices.len()),
    ]
}
