//! Scenario specification — the JSON body of `POST /sims`.
//!
//! A scenario describes a fleet the server can build from scratch: how
//! many MAC ring nodes, blink background nodes, ATmega beacon motes
//! and gateways, the channel (range, loss probability, fade seed), the
//! core engine and network scheduler, battery budgets, and the
//! stimulus schedule. Parsing is strict about types and ranges — a bad
//! request must come back as HTTP 400, never a panic in a runner
//! thread.
//!
//! ```json
//! {
//!   "name": "demo",
//!   "mac_nodes": 3,
//!   "blink_nodes": 1,
//!   "avr_nodes": 2,
//!   "avr_period_ms": 50,
//!   "gateway": true,
//!   "battery": true,
//!   "battery_capacity_uah": 620.0,
//!   "range": 12.0,
//!   "loss": 0.15,
//!   "loss_seed": 42,
//!   "engine": "fused",
//!   "scheduler": "event",
//!   "stagger_us": 700,
//!   "irqs": [{"node": 1, "at_us": 5000}],
//!   "run_to_us": 10000,
//!   "slice_us": 1000,
//!   "start_paused": false
//! }
//! ```
//!
//! Every field except `run_to_us` has a default. Node ids are assigned
//! MAC ring first, then blink, then AVR motes, then the gateway — see
//! `docs/FLEETS.md` for the full schema and placement rules.

use dess::{SimDuration, SimTime};
use snap_apps::blink::blink_program;
use snap_apps::mac::{mac_program, send_on_irq_app, RX_DISPATCH_STUB};
use snap_apps::prelude::install_handler;
use snap_core::{CoreConfig, Engine};
use snap_net::{NetworkSim, Position, Scheduler, Stimulus};
use snap_node::atmega::tinyos::beacon_system;
use snap_node::{BatteryConfig, NodeId, NodeKind};
use snap_telemetry::{parse, Value};

/// Hard cap on fleet size per submitted sim: the server is a
/// multi-tenant frontend, not the 10⁵-node batch path (use `netsim`
/// directly for that).
pub const MAX_NODES: u32 = 512;

/// Hard cap on the run target: one simulated minute.
pub const MAX_RUN_US: u64 = 60_000_000;

/// A buildable fleet description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name echoed in status reports.
    pub name: String,
    /// CSMA/MAC ring nodes (node `i` sends to `i+1`, wrapping).
    pub mac_nodes: u8,
    /// Timer-periodic blink nodes placed out of radio range.
    pub blink_nodes: u8,
    /// ATmega beacon motes placed in radio range of the MAC grid.
    pub avr_nodes: u8,
    /// Beacon period per AVR mote, in ≈1 ms timer ticks.
    pub avr_period_ms: u16,
    /// Add one mains-powered gateway that logs every heard word to its
    /// uplink buffer (`GET /sims/{id}/uplink`).
    pub gateway: bool,
    /// Attach chemistry-matched coin-cell budgets (SNAP vs AVR) to
    /// every non-gateway node; exhausted nodes die mid-run.
    pub battery: bool,
    /// Capacity override in µAh for every attached battery (tests use
    /// tiny values to exercise node death quickly).
    pub battery_capacity_uah: Option<f64>,
    /// Radio range (topology units).
    pub range: f64,
    /// Per-word loss probability in `[0, 1]`; 0 disables fading.
    pub loss: f64,
    /// Fade RNG seed (meaningful only when `loss > 0`).
    pub loss_seed: u64,
    /// Core execution engine for every node.
    pub engine: Engine,
    /// Network scheduler.
    pub scheduler: Scheduler,
    /// Gap between successive nodes' kick-off IRQs.
    pub stagger_us: u64,
    /// Extra sensor IRQs: `(node id, microseconds)`.
    pub irqs: Vec<(u32, u64)>,
    /// Simulated time the runner advances to.
    pub run_to_us: u64,
    /// Runner time slice: control operations (pause/snapshot/fork)
    /// land on slice boundaries.
    pub slice_us: u64,
    /// Submit in the paused state; `POST /sims/{id}/resume` starts it.
    pub start_paused: bool,
    /// Custom SNAP assembly. When present, one extra node running this
    /// image joins the fleet, placed out of radio range, with the last
    /// node id (after the gateway).
    pub asm: Option<String>,
    /// Run the strict `snap-lint` preflight over the custom image
    /// before accepting the submission (the default). `"lint": "skip"`
    /// opts out — the built-in apps are lint-clean by construction, so
    /// only `asm` is ever gated.
    pub lint_strict: bool,
}

impl Default for Scenario {
    fn default() -> Scenario {
        Scenario {
            name: "sim".to_string(),
            mac_nodes: 3,
            blink_nodes: 0,
            avr_nodes: 0,
            avr_period_ms: 50,
            gateway: false,
            battery: false,
            battery_capacity_uah: None,
            range: 12.0,
            loss: 0.0,
            loss_seed: 1,
            engine: Engine::Fused,
            scheduler: Scheduler::Auto,
            stagger_us: 700,
            irqs: Vec::new(),
            run_to_us: 10_000,
            slice_us: 1_000,
            start_paused: false,
            asm: None,
            lint_strict: true,
        }
    }
}

fn get_u64(v: &Value, key: &str, max: u64) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => {
            let n = f
                .as_i64()
                .ok_or_else(|| format!("{key}: expected integer"))?;
            if n < 0 || n as u64 > max {
                return Err(format!("{key}: out of range (0..={max})"));
            }
            Ok(Some(n as u64))
        }
    }
}

fn get_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => Ok(Some(
            f.as_f64()
                .ok_or_else(|| format!("{key}: expected number"))?,
        )),
    }
}

/// Parse a scenario from its JSON text.
///
/// # Errors
///
/// A human-readable message naming the offending field (the HTTP layer
/// wraps it in a 400 response).
pub fn parse_scenario(text: &str) -> Result<Scenario, String> {
    let v = parse(text)?;
    let mut s = Scenario::default();
    if let Some(name) = v.get("name") {
        s.name = name
            .as_str()
            .ok_or("name: expected string")?
            .chars()
            .take(64)
            .collect();
    }
    if let Some(n) = get_u64(&v, "mac_nodes", u64::from(MAX_NODES))? {
        s.mac_nodes = u8::try_from(n).map_err(|_| "mac_nodes: at most 255")?;
    }
    if let Some(n) = get_u64(&v, "blink_nodes", u64::from(MAX_NODES))? {
        s.blink_nodes = u8::try_from(n).map_err(|_| "blink_nodes: at most 255")?;
    }
    if let Some(n) = get_u64(&v, "avr_nodes", u64::from(MAX_NODES))? {
        s.avr_nodes = u8::try_from(n).map_err(|_| "avr_nodes: at most 255")?;
    }
    if let Some(n) = get_u64(&v, "avr_period_ms", 60_000)? {
        if n == 0 {
            return Err("avr_period_ms: must be positive".to_string());
        }
        s.avr_period_ms = n as u16;
    }
    if let Some(p) = v.get("gateway") {
        s.gateway = match p {
            Value::Bool(b) => *b,
            _ => return Err("gateway: expected bool".to_string()),
        };
    }
    if let Some(p) = v.get("battery") {
        s.battery = match p {
            Value::Bool(b) => *b,
            _ => return Err("battery: expected bool".to_string()),
        };
    }
    if let Some(c) = get_f64(&v, "battery_capacity_uah")? {
        if !c.is_finite() || c <= 0.0 {
            return Err("battery_capacity_uah: must be finite and positive".to_string());
        }
        s.battery_capacity_uah = Some(c);
    }
    if let Some(a) = v.get("asm") {
        s.asm = Some(a.as_str().ok_or("asm: expected string")?.to_string());
    }
    if let Some(l) = v.get("lint") {
        s.lint_strict = match l.as_str() {
            Some("strict") => true,
            Some("skip") => false,
            _ => return Err("lint: expected \"strict\" or \"skip\"".to_string()),
        };
    }
    let total = u32::from(s.mac_nodes)
        + u32::from(s.blink_nodes)
        + u32::from(s.avr_nodes)
        + u32::from(s.gateway)
        + u32::from(s.asm.is_some());
    if total == 0 {
        return Err("scenario has zero nodes".to_string());
    }
    if total > MAX_NODES {
        return Err(format!(
            "scenario has {total} nodes; the cap is {MAX_NODES}"
        ));
    }
    if let Some(r) = get_f64(&v, "range")? {
        if !r.is_finite() || r <= 0.0 {
            return Err("range: must be finite and positive".to_string());
        }
        s.range = r;
    }
    if let Some(l) = get_f64(&v, "loss")? {
        if !l.is_finite() || !(0.0..=1.0).contains(&l) {
            return Err("loss: must be in [0, 1]".to_string());
        }
        s.loss = l;
    }
    if let Some(seed) = get_u64(&v, "loss_seed", u64::MAX - 1)? {
        s.loss_seed = seed;
    }
    if let Some(e) = v.get("engine") {
        s.engine = match e.as_str() {
            Some("interp") => Engine::Interp,
            Some("fused") => Engine::Fused,
            // Kept so scenarios written for the removed AOT tier still
            // parse; `Engine::Aot` runs the fused tier.
            Some("aot") => Engine::Aot,
            _ => return Err("engine: expected \"interp\", \"fused\" or \"aot\"".to_string()),
        };
    }
    if let Some(sc) = v.get("scheduler") {
        s.scheduler = match sc.as_str() {
            Some("lockstep") => Scheduler::Lockstep,
            Some("event") => Scheduler::EventDriven,
            Some("sharded") => Scheduler::Sharded,
            Some("auto") => Scheduler::Auto,
            _ => {
                return Err(
                    "scheduler: expected \"lockstep\", \"event\", \"sharded\" or \"auto\""
                        .to_string(),
                )
            }
        };
    }
    if let Some(us) = get_u64(&v, "stagger_us", MAX_RUN_US)? {
        s.stagger_us = us;
    }
    if let Some(irqs) = v.get("irqs") {
        for (i, irq) in irqs
            .elements()
            .ok_or("irqs: expected array")?
            .iter()
            .enumerate()
        {
            let node = get_u64(irq, "node", u64::from(MAX_NODES))?
                .ok_or_else(|| format!("irqs[{i}]: missing node"))?;
            let at_us = get_u64(irq, "at_us", MAX_RUN_US)?
                .ok_or_else(|| format!("irqs[{i}]: missing at_us"))?;
            if node == 0 || node > u64::from(total) {
                return Err(format!("irqs[{i}].node: no such node"));
            }
            // AVR motes have no SNAP sensor-IRQ pin; ids land after
            // the MAC + blink block (see `build`).
            let first_avr = u64::from(s.mac_nodes) + u64::from(s.blink_nodes) + 1;
            if s.avr_nodes > 0 && node >= first_avr && node < first_avr + u64::from(s.avr_nodes) {
                return Err(format!("irqs[{i}].node: AVR motes take no sensor IRQ"));
            }
            s.irqs.push((node as u32, at_us));
        }
    }
    s.run_to_us = get_u64(&v, "run_to_us", MAX_RUN_US)?.ok_or("missing field: run_to_us")?;
    if let Some(us) = get_u64(&v, "slice_us", 1_000_000)? {
        if us == 0 {
            return Err("slice_us: must be positive".to_string());
        }
        s.slice_us = us;
    }
    if let Some(p) = v.get("start_paused") {
        s.start_paused = match p {
            Value::Bool(b) => *b,
            _ => return Err("start_paused: expected bool".to_string()),
        };
    }
    Ok(s)
}

/// Build the fleet a scenario describes. Deterministic: the same
/// scenario always yields the same initial state (this is what makes
/// the smoke test's straight-run comparison meaningful).
///
/// # Errors
///
/// Program assembly failures (should not happen for the built-in apps;
/// surfaced rather than unwrapped so a server never panics).
pub fn build(s: &Scenario) -> Result<NetworkSim, String> {
    let core = CoreConfig {
        engine: s.engine,
        ..CoreConfig::default()
    };
    let mut sim = NetworkSim::new(s.range);
    sim.set_scheduler(s.scheduler);
    if s.loss > 0.0 {
        sim.set_loss(s.loss, s.loss_seed);
    }
    for i in 0..s.mac_nodes {
        let dst = if i + 1 == s.mac_nodes { 1 } else { i + 2 };
        let extra = install_handler("EV_IRQ", "app_send_irq");
        let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
        let program = mac_program(i + 1, &extra, &app).map_err(|e| e.to_string())?;
        let (col, row) = (f64::from(i % 5), f64::from(i / 5));
        let id = sim.add_node_with_core(&program, Position::new(col * 8.0, row * 8.0), core);
        sim.schedule(
            id,
            SimTime::ZERO + SimDuration::from_us(1_000 + s.stagger_us * u64::from(i)),
            Stimulus::SensorIrq,
        );
    }
    for i in 0..s.blink_nodes {
        sim.add_node_with_core(
            &blink_program().map_err(|e| e.to_string())?,
            Position::new(10_000.0 + f64::from(i) * 100.0, 0.0),
            core,
        );
    }
    // AVR beacon motes go on a row below the MAC grid, in radio range
    // of its first column cells: heterogeneous traffic on shared air.
    for i in 0..s.avr_nodes {
        let (avr_core, _) =
            beacon_system(i + 1, s.avr_period_ms.max(1)).map_err(|e| e.to_string())?;
        let (col, row) = (f64::from(i % 5), f64::from(i / 5));
        sim.add_avr_node(avr_core, Position::new(col * 8.0, -8.0 - row * 8.0));
    }
    if s.gateway {
        // The gateway bridges from boot regardless of its program; a
        // boot-and-sleep image keeps its core out of the airtime.
        let program = snap_asm::assemble("done").map_err(|e| e.to_string())?;
        sim.add_gateway_with_core(&program, Position::new(4.0, 4.0), core);
    }
    if s.battery {
        for n in 1..=sim.node_count() as u32 {
            let id = NodeId(n);
            let mut battery = match sim.node(id).kind() {
                NodeKind::Snap => BatteryConfig::coin_cell_snap(),
                NodeKind::Avr => BatteryConfig::coin_cell_avr(),
                NodeKind::Gateway => continue, // mains-powered
            };
            if let Some(c) = s.battery_capacity_uah {
                battery.capacity_uah = c;
            }
            sim.set_battery(id, Some(battery));
        }
    }
    if let Some(src) = &s.asm {
        let program = snap_asm::assemble(src).map_err(|e| format!("asm: {e}"))?;
        // Out of radio range of the MAC grid and the blink row: custom
        // images share the clock, not the air.
        sim.add_node_with_core(&program, Position::new(-10_000.0, 0.0), core);
    }
    for &(node, at_us) in &s.irqs {
        sim.schedule(
            NodeId(node),
            SimTime::ZERO + SimDuration::from_us(at_us),
            Stimulus::SensorIrq,
        );
    }
    Ok(sim)
}

/// The strict-lint preflight for `POST /sims`: a custom image that
/// fails `snap-lint --strict` (any warning-or-error finding, including
/// the whole-image event-flow lints) is rejected before a runner
/// thread ever sees it, unless the scenario opted out with
/// `"lint": "skip"`. The error is a structured JSON body listing every
/// gating diagnostic.
///
/// # Errors
///
/// The response body to return with HTTP 400.
pub fn lint_preflight(s: &Scenario) -> Result<(), Value> {
    let (Some(src), true) = (&s.asm, s.lint_strict) else {
        return Ok(());
    };
    let fail = |msg: String, diags: Vec<Value>| {
        let mut v = Value::obj();
        v.set("error", Value::Str(msg))
            .set("lint", Value::Str("strict".to_string()))
            .set(
                "hint",
                Value::Str("fix the findings or resubmit with \"lint\": \"skip\"".to_string()),
            )
            .set("diagnostics", Value::Arr(diags));
        v
    };
    let program = match snap_asm::assemble(src) {
        Ok(p) => p,
        // `build` would also refuse; failing here keeps the error shape
        // uniform for clients that always inspect `diagnostics`.
        Err(e) => return Err(fail(format!("asm does not assemble: {e}"), Vec::new())),
    };
    // Lint at the operating point the fleet actually runs
    // (`CoreConfig::default()` is the 1.8 V bring-up point).
    let analysis = snap_lint::analyze_program(&program, snap_energy::OperatingPoint::V1_8);
    let gating: Vec<&snap_lint::Diagnostic> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.severity >= snap_lint::Severity::Warning)
        .collect();
    if gating.is_empty() {
        return Ok(());
    }
    let diags = gating
        .iter()
        .map(|d| {
            let mut v = Value::obj();
            v.set("lint", Value::Str(d.lint.to_string()))
                .set("severity", Value::Str(d.severity.label().to_string()))
                .set("message", Value::Str(d.message.clone()));
            if let Some(pc) = d.pc {
                v.set("pc", Value::Int(i64::from(pc)));
            }
            v
        })
        .collect();
    Err(fail(
        format!("asm fails strict lint with {} finding(s)", gating.len()),
        diags,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = parse_scenario(r#"{"run_to_us": 5000}"#).unwrap();
        assert_eq!(s.mac_nodes, 3);
        assert_eq!(s.run_to_us, 5_000);
        assert!(!s.start_paused);
        assert!(build(&s).is_ok());
    }

    /// Also pins that the kept `"aot"` value still parses and builds.
    #[test]
    fn full_scenario_parses() {
        let s = parse_scenario(
            r#"{"name":"x","mac_nodes":4,"blink_nodes":2,"range":20.0,
                "loss":0.3,"loss_seed":9,"engine":"aot","scheduler":"sharded",
                "stagger_us":500,"irqs":[{"node":2,"at_us":4000}],
                "run_to_us":9000,"slice_us":250,"start_paused":true}"#,
        )
        .unwrap();
        assert_eq!(s.mac_nodes, 4);
        assert_eq!(s.engine, Engine::Aot);
        assert_eq!(s.irqs, vec![(2, 4_000)]);
        assert!(s.start_paused);
        let sim = build(&s).unwrap();
        assert_eq!(sim.node_count(), 6);
    }

    #[test]
    fn mixed_fleet_scenario_builds_and_validates() {
        let s = parse_scenario(
            r#"{"mac_nodes":2,"avr_nodes":2,"gateway":true,"battery":true,
                "run_to_us":1000}"#,
        )
        .unwrap();
        assert_eq!(s.avr_nodes, 2);
        assert!(s.gateway && s.battery);
        let sim = build(&s).unwrap();
        assert_eq!(sim.node_count(), 5);
        assert_eq!(sim.node(NodeId(1)).kind(), NodeKind::Snap);
        assert_eq!(sim.node(NodeId(3)).kind(), NodeKind::Avr);
        assert_eq!(sim.node(NodeId(5)).kind(), NodeKind::Gateway);
        assert!(sim.node(NodeId(1)).battery().is_some());
        assert!(sim.node(NodeId(3)).battery().is_some());
        // The gateway is mains-powered: no budget even when the fleet
        // has batteries.
        assert!(sim.node(NodeId(5)).battery().is_none());
    }

    #[test]
    fn avr_irq_targets_are_rejected() {
        let err = parse_scenario(
            r#"{"mac_nodes":2,"avr_nodes":1,"run_to_us":1000,
                "irqs":[{"node":3,"at_us":1}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("sensor IRQ"), "{err}");
    }

    #[test]
    fn bad_scenarios_are_rejected_with_field_names() {
        for (body, needle) in [
            (r#"{}"#, "run_to_us"),
            (r#"{"run_to_us":1000,"engine":"jit"}"#, "engine"),
            (r#"{"run_to_us":1000,"loss":1.5}"#, "loss"),
            (
                r#"{"run_to_us":1000,"mac_nodes":0,"blink_nodes":0}"#,
                "zero",
            ),
            (
                r#"{"run_to_us":1000,"irqs":[{"node":9,"at_us":1}]}"#,
                "node",
            ),
            (r#"{"run_to_us":999999999999}"#, "run_to_us"),
            (r#"not json"#, "invalid"),
        ] {
            let err = parse_scenario(body).unwrap_err();
            assert!(err.contains(needle), "body {body:?}: error {err:?}");
        }
    }
}
