//! Building `snap-metrics-v1` reports from simulator state.
//!
//! One report covers one run: a `meta` header (tool, voltage, duration),
//! one entry per node with its counters, energy attribution and —
//! when per-dispatch sampling was enabled — handler distributions, and
//! an optional `network` section (filled by `snap-net`). The complete
//! field-by-field schema is documented in `docs/OBSERVABILITY.md`; the
//! validator in [`crate::schema`] enforces it.

use crate::hist::Histogram;
use crate::json::Value;
use snap_core::{CoreState, Processor};
use snap_isa::{EventKind, InstructionClass};

/// The schema identifier stamped into every report.
pub const SCHEMA: &str = "snap-metrics-v1";

/// kebab-case slug of an instruction class ("Arith Reg" → "arith-reg").
pub fn class_slug(class: InstructionClass) -> String {
    class.label().to_lowercase().replace(' ', "-")
}

/// The core state as a lowercase schema string.
fn state_str(state: CoreState) -> &'static str {
    match state {
        CoreState::Running => "running",
        CoreState::Asleep => "asleep",
        CoreState::Halted => "halted",
    }
}

/// Collect one node's metrics object from its processor.
///
/// Counters and energy attribution are always present (they come from
/// the core's always-on accounting); the `histograms` section appears
/// only when [`snap_core::Processor::enable_sampling`] was called
/// before the run.
pub fn node_metrics(node: i64, cpu: &Processor) -> Value {
    let stats = cpu.stats();
    let mut o = Value::obj();
    o.set("node", Value::Int(node));
    o.set("state", Value::Str(state_str(cpu.state()).to_string()));

    let mut counters = Value::obj();
    counters.set("instructions", Value::Int(stats.instructions as i64));
    counters.set("cycles", Value::Int(stats.cycles as i64));
    counters.set(
        "handlers_dispatched",
        Value::Int(stats.handlers_dispatched as i64),
    );
    counters.set("wakeups", Value::Int(stats.wakeups as i64));
    counters.set("events_inserted", Value::Int(stats.events_inserted as i64));
    counters.set("events_dropped", Value::Int(stats.events_dropped as i64));
    counters.set("busy_ps", Value::Int(stats.busy_time.as_ps() as i64));
    counters.set("sleep_ps", Value::Int(stats.sleep_time.as_ps() as i64));
    counters.set("now_ps", Value::Int(stats.now.as_ps() as i64));
    let mut by_event = Value::obj();
    for ev in EventKind::ALL {
        let s = cpu.profile().event(ev);
        if s.dispatches > 0 {
            by_event.set(&ev.to_string(), Value::Int(s.dispatches as i64));
        }
    }
    counters.set("dispatches_by_event", by_event);
    o.set("counters", counters);

    let mut energy = Value::obj();
    energy.set("total_pj", Value::Float(stats.energy.as_pj()));
    energy.set(
        "pj_per_instruction",
        Value::Float(stats.energy_per_instruction().as_pj()),
    );
    let mut by_component = Value::obj();
    for (component, e) in cpu.acct().components().iter() {
        by_component.set(component.label(), Value::Float(e.as_pj()));
    }
    energy.set("by_component_pj", by_component);
    let mut by_class = Vec::new();
    for (class, s) in cpu.acct().per_class() {
        let mut c = Value::obj();
        c.set("class", Value::Str(class_slug(class)));
        c.set("count", Value::Int(s.count as i64));
        c.set("pj", Value::Float(s.energy.as_pj()));
        by_class.push(c);
    }
    energy.set("by_class", Value::Arr(by_class));
    let mut by_handler = Vec::new();
    let boot = cpu.profile().boot();
    let mut push_handler = |event: &str, s: snap_core::HandlerStats| {
        let mut h = Value::obj();
        h.set("event", Value::Str(event.to_string()));
        h.set("dispatches", Value::Int(s.dispatches as i64));
        h.set("instructions", Value::Int(s.instructions as i64));
        h.set("pj", Value::Float(s.energy.as_pj()));
        h.set("busy_ps", Value::Int(s.busy_time.as_ps() as i64));
        by_handler.push(h);
    };
    push_handler("boot", boot);
    for (ev, s) in cpu.profile().dispatched() {
        push_handler(&ev.to_string(), s);
    }
    energy.set("by_handler", Value::Arr(by_handler));
    o.set("energy", energy);

    if let Some(sampler) = cpu.sampler() {
        let mut instructions = Histogram::new();
        let mut energy_pj = Histogram::new();
        let mut queue_wait = Histogram::new();
        for s in sampler.samples() {
            instructions.record(s.instructions as f64);
            energy_pj.record(s.energy.as_pj());
            queue_wait.record(s.queue_wait.as_ps() as f64);
        }
        let mut hists = Value::obj();
        hists.set("handler_instructions", instructions.to_json());
        hists.set("handler_energy_pj", energy_pj.to_json());
        hists.set("queue_wait_ps", queue_wait.to_json());
        hists.set(
            "samples_retained",
            Value::Int(sampler.samples().len() as i64),
        );
        hists.set("samples_truncated", Value::Int(sampler.truncated() as i64));
        o.set("histograms", hists);
    }
    o
}

/// Network-wide counters and the per-window activity distribution.
/// `snap-net` fills one of these during a run; plain data so the
/// dependency points from `snap-net` to this crate only.
#[derive(Debug, Clone, Default)]
pub struct NetworkCounters {
    /// Words delivered cleanly to a receiver.
    pub deliveries: u64,
    /// Words garbled by collision at a receiver.
    pub collisions: u64,
    /// Words lost to simulated fading.
    pub faded: u64,
    /// Trace events recorded (any [`crate::chrome`]/JSONL export
    /// covers at most this many).
    pub trace_recorded: u64,
    /// Nodes advanced per epoch, or per window under lockstep (a
    /// direct measure of how event-driven the network is).
    pub window_active_nodes: Histogram,
}

impl NetworkCounters {
    /// Render the `network` section of a report.
    pub fn to_json(&self) -> Value {
        let mut o = Value::obj();
        o.set("deliveries", Value::Int(self.deliveries as i64));
        o.set("collisions", Value::Int(self.collisions as i64));
        o.set("faded", Value::Int(self.faded as i64));
        o.set("trace_recorded", Value::Int(self.trace_recorded as i64));
        o.set("window_active_nodes", self.window_active_nodes.to_json());
        o
    }
}

/// Assemble a complete `snap-metrics-v1` report.
///
/// `tool` names the producer (`srun`, `netsim`, `bench`), `vdd_v` the
/// operating voltage, `duration_ps` the simulated span, `nodes` the
/// [`node_metrics`] objects, and `network` the optional
/// [`NetworkCounters::to_json`] section.
pub fn report(
    tool: &str,
    vdd_v: f64,
    duration_ps: u64,
    nodes: Vec<Value>,
    network: Option<Value>,
) -> Value {
    let mut o = Value::obj();
    o.set("schema", Value::Str(SCHEMA.to_string()));
    o.set("tool", Value::Str(tool.to_string()));
    o.set("vdd_v", Value::Float(vdd_v));
    o.set("duration_ps", Value::Int(duration_ps as i64));
    o.set("nodes", Value::Arr(nodes));
    if let Some(network) = network {
        o.set("network", network);
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::{CoreConfig, Processor};
    use snap_isa::{AluImmOp, Instruction, Reg, Word};

    fn sampled_cpu() -> Processor {
        let li = |rd, imm| Instruction::AluImm {
            op: AluImmOp::Li,
            rd,
            imm,
        };
        let boot = [
            li(Reg::R1, EventKind::SensorIrq.index() as Word),
            li(Reg::R2, 100),
            Instruction::SetAddr {
                rev: Reg::R1,
                raddr: Reg::R2,
            },
            Instruction::Done,
        ];
        let handler = [li(Reg::R5, 7), Instruction::Done];
        let mut cpu = Processor::new(CoreConfig::default());
        cpu.enable_sampling(1024);
        cpu.load_program(&boot).unwrap();
        let img: Vec<Word> = handler.iter().flat_map(|i| i.encode()).collect();
        cpu.load_image(100, &img).unwrap();
        cpu.run_until_idle(100).unwrap();
        cpu.post_sensor_irq();
        cpu.run_until_idle(100).unwrap();
        cpu
    }

    #[test]
    fn node_metrics_has_documented_sections() {
        let cpu = sampled_cpu();
        let m = node_metrics(1, &cpu);
        assert_eq!(m.get("node").unwrap().as_i64(), Some(1));
        assert_eq!(m.get("state").unwrap().as_str(), Some("asleep"));
        let counters = m.get("counters").unwrap();
        assert_eq!(counters.get("instructions").unwrap().as_i64(), Some(6));
        assert_eq!(
            counters
                .get("dispatches_by_event")
                .unwrap()
                .get("sensor-irq")
                .unwrap()
                .as_i64(),
            Some(1)
        );
        let energy = m.get("energy").unwrap();
        assert!(energy.get("total_pj").unwrap().as_f64().unwrap() > 0.0);
        let components = energy.get("by_component_pj").unwrap();
        for label in [
            "datapath",
            "fetch",
            "decode",
            "mem-interface",
            "misc",
            "imem",
            "dmem",
        ] {
            assert!(components.get(label).is_some(), "missing {label}");
        }
        let hists = m.get("histograms").unwrap();
        assert_eq!(
            hists
                .get("handler_instructions")
                .unwrap()
                .get("count")
                .unwrap()
                .as_i64(),
            Some(1)
        );
        // Handler: li + done = 2 instructions.
        assert_eq!(
            hists
                .get("handler_instructions")
                .unwrap()
                .get("max")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn sampling_off_omits_histograms() {
        let mut cpu = Processor::new(CoreConfig::default());
        cpu.load_program(&[Instruction::Halt]).unwrap();
        cpu.run_to_halt(10).unwrap();
        let m = node_metrics(1, &cpu);
        assert!(m.get("histograms").is_none());
        assert_eq!(m.get("state").unwrap().as_str(), Some("halted"));
    }

    #[test]
    fn report_assembles_and_round_trips() {
        let cpu = sampled_cpu();
        let nodes = vec![node_metrics(1, &cpu)];
        let mut net = NetworkCounters {
            deliveries: 3,
            ..Default::default()
        };
        net.window_active_nodes.record(1.0);
        let r = report("test", 0.6, 1_000_000, nodes, Some(net.to_json()));
        let text = r.to_pretty();
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(parsed.get("vdd_v").unwrap().as_f64(), Some(0.6));
        assert_eq!(
            parsed
                .get("network")
                .unwrap()
                .get("deliveries")
                .unwrap()
                .as_i64(),
            Some(3)
        );
    }

    #[test]
    fn class_slugs_are_kebab_case() {
        assert_eq!(class_slug(InstructionClass::ArithReg), "arith-reg");
        assert_eq!(class_slug(InstructionClass::ImemLoad), "imem-load");
    }
}
