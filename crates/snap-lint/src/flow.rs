//! Whole-image event-flow analysis.
//!
//! Builds the event-flow graph — nodes are installed handlers (plus
//! boot), edges the `swev` posts, timer arms and message commands each
//! can issue (extracted by [`crate::absint`]) — and proves three
//! whole-image properties on top of it:
//!
//! 1. **Queue-depth bounds.** For each wake event, the burst of
//!    dispatches its `swev` posts alone can trigger is explored as a
//!    multiset of pending tokens under *adversarial dispatch order*:
//!    from any state, any pending event may be dispatched next. That
//!    is a strict superset of the hardware's FIFO behaviors (the post
//!    order within a handler, which fixes the FIFO's future pops, is
//!    not tracked statically), so the worst occupancy found bounds
//!    every real burst. A state whose dispatch would push occupancy
//!    past the 8-entry capacity is an overflow proof
//!    (`queue-overflow`); a revisited state means the chain never
//!    drains (dispatches unbounded, occupancy still bounded).
//! 2. **Cross-handler DMEM hazards.** Handlers of different events
//!    interleave at dispatch granularity (run-to-completion): two
//!    roots that both blind-write the same DMEM word — neither ever
//!    reads it — lose one of the writes with no reader ordering to
//!    save them (`dmem-hazard`).
//! 3. **Per-wake energy / events-per-wake.** The per-handler worst
//!    case activation energies (PR-5 bounds) composed along the worst
//!    chain give a statically derived nJ-per-wake, checked dynamically
//!    by `snap-smith --soundness`.
//!
//! Timer arms and message commands appear as graph edges but are
//! excluded from the chain exploration: their tokens arrive by
//! environment action (expiry, radio completion, sensor latency), not
//! inside the software burst — and the dynamic oracle's burst-purity
//! filter excludes exactly those interleavings too.

use crate::absint::{root_effects, RootEffects};
use crate::analyzer::{ctx_handler_name, Ctx, CtxKind};
use crate::{ChainReport, Diagnostic, FlowEdge, FlowEdgeKind, FlowReport, Severity};
use snap_isa::{Addr, EventKind, EVENT_QUEUE_DEPTH, EVENT_TABLE_ENTRIES};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Safety valve on the multiset exploration. The true state space is
/// small (multisets of ≤ 8 tokens over 8 kinds), so hitting this means
/// a bug — claims degrade to unknown rather than trusting a partial
/// sweep.
const MAX_CHAIN_STATES: usize = 100_000;

/// A multiset of pending event tokens, by event index.
type QState = [u8; EVENT_TABLE_ENTRIES];

fn occupancy(s: &QState) -> u64 {
    s.iter().map(|&c| u64::from(c)).sum()
}

/// The merged per-event dispatch model: what dispatching event `e` can
/// post back into the queue, joined (elementwise max) over every root
/// installed for `e`.
struct DispatchModel {
    /// Worst-case `swev` post vector per dispatch of each event;
    /// `None` = uninstalled event or a root with unknown posts.
    p: [Option<[u64; 8]>; 8],
    /// Worst-case activation energy per dispatch of each event (pJ).
    energy: [Option<f64>; 8],
}

struct ChainResult {
    /// Worst occupancy over every dispatch in the chain (raw: on an
    /// overflowing dispatch this exceeds the capacity the hardware
    /// would clip it to).
    peak: u64,
    overflow: bool,
    /// Some reachable dispatch had an unknown post vector (or the
    /// state cap tripped): no claims.
    unknown: bool,
    /// Worst-case dispatch count until the queue drains; `None` when a
    /// state repeats (the chain sustains itself forever).
    dispatches: Option<u64>,
    energy_pj: Option<f64>,
    /// Worst-case `swev` posts by any single dispatch in the chain.
    max_swev_posts: u64,
}

/// Explore every burst the start state can produce under adversarial
/// dispatch order. `initial_peak` accounts for the tokens pending
/// before the first dispatch (boot's own posts).
fn simulate_chain(start: QState, model: &DispatchModel, initial_peak: u64) -> ChainResult {
    let cap = EVENT_QUEUE_DEPTH as u64;
    let mut result = ChainResult {
        peak: initial_peak,
        overflow: initial_peak > cap,
        unknown: false,
        dispatches: None,
        energy_pj: None,
        max_swev_posts: 0,
    };
    let mut transitions: HashMap<QState, Vec<(usize, QState)>> = HashMap::new();
    let mut work: VecDeque<QState> = VecDeque::new();
    let mut seen: BTreeSet<QState> = BTreeSet::new();
    if occupancy(&start) > 0 {
        seen.insert(start);
        work.push_back(start);
    }
    while let Some(s) = work.pop_front() {
        if seen.len() > MAX_CHAIN_STATES {
            result.unknown = true;
            break;
        }
        let out = transitions.entry(s).or_default();
        for e in 0..EVENT_TABLE_ENTRIES {
            if s[e] == 0 {
                continue;
            }
            let Some(pv) = model.p[e] else {
                // Unknown posts (or an uninstalled event, which would
                // run boot code under arbitrary registers): no claims.
                result.unknown = true;
                continue;
            };
            let posts: u64 = pv.iter().sum();
            result.max_swev_posts = result.max_swev_posts.max(posts);
            let occ = occupancy(&s) - 1 + posts;
            result.peak = result.peak.max(occ);
            if occ > cap {
                result.overflow = true;
                continue;
            }
            // occ ≤ 8, so every count fits the u8 state.
            let mut s2 = s;
            s2[e] -= 1;
            for (slot, &n) in s2.iter_mut().zip(pv.iter()) {
                *slot += n as u8;
            }
            out.push((e, s2));
            if occupancy(&s2) > 0 && seen.insert(s2) {
                work.push_back(s2);
            }
        }
    }
    if result.overflow || result.unknown {
        return result;
    }

    // Longest dispatch/energy path over the (finite) transition graph.
    // Kahn's algorithm doubles as the cycle check: a leftover state
    // means the chain can revisit it and never drain.
    let mut indegree: HashMap<QState, usize> = HashMap::new();
    for (s, outs) in &transitions {
        indegree.entry(*s).or_insert(0);
        for (_, s2) in outs {
            if occupancy(s2) > 0 {
                *indegree.entry(*s2).or_insert(0) += 1;
            }
        }
    }
    let mut ready: VecDeque<QState> = indegree
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(s, _)| *s)
        .collect();
    let mut topo: Vec<QState> = Vec::with_capacity(indegree.len());
    while let Some(s) = ready.pop_front() {
        topo.push(s);
        if let Some(outs) = transitions.get(&s) {
            for (_, s2) in outs {
                if occupancy(s2) > 0 {
                    let d = indegree.get_mut(s2).expect("indexed above");
                    *d -= 1;
                    if *d == 0 {
                        ready.push_back(*s2);
                    }
                }
            }
        }
    }
    if topo.len() < indegree.len() {
        return result; // cyclic: dispatches/energy unbounded
    }
    let mut best_n: HashMap<QState, u64> = HashMap::new();
    let mut best_pj: HashMap<QState, f64> = HashMap::new();
    for s in topo.iter().rev() {
        let (mut n, mut pj) = (0u64, 0.0f64);
        if let Some(outs) = transitions.get(s) {
            for (e, s2) in outs {
                let tail_n = best_n.get(s2).copied().unwrap_or(0);
                let tail_pj = best_pj.get(s2).copied().unwrap_or(0.0);
                // p[e] was known for every expanded dispatch, so the
                // energy bound is too (both come from a bounded cost).
                let epj = model.energy[*e].unwrap_or(0.0);
                n = n.max(1 + tail_n);
                pj = pj.max(epj + tail_pj);
            }
        }
        best_n.insert(*s, n);
        best_pj.insert(*s, pj);
    }
    result.dispatches = Some(best_n.get(&start).copied().unwrap_or(0));
    result.energy_pj = Some(best_pj.get(&start).copied().unwrap_or(0.0));
    result
}

/// Name the data object containing DMEM word `addr`, when the symbol
/// table has one.
fn data_object_name(addr: u16, data_ranges: &[(String, Addr, Addr)]) -> Option<String> {
    for (name, base, end) in data_ranges {
        let (base, end) = (*base, *end);
        if base <= addr && (addr < end || addr == base) {
            return Some(if addr == base {
                name.clone()
            } else {
                format!("{name}+{}", addr - base)
            });
        }
    }
    None
}

fn event_name(i: usize) -> String {
    EventKind::from_index(i)
        .map(|k| k.to_string())
        .unwrap_or_default()
}

/// One root's contribution to the merged flow picture.
struct Root<'a> {
    event: Option<usize>,
    entry: Addr,
    fx: &'a RootEffects,
}

/// Run the whole-image flow analysis: graph, chain proofs, and the
/// three interprocedural lints.
pub(crate) fn analyze_flow(
    ctxs: &[Ctx],
    table: &BTreeMap<usize, BTreeSet<Addr>>,
    global_degraded: bool,
    poison: &BTreeSet<Addr>,
    data_ranges: &[(String, Addr, Addr)],
) -> (FlowReport, Vec<Diagnostic>) {
    let effects = root_effects(ctxs, poison);
    let mut diags: Vec<Diagnostic> = Vec::new();

    // Collect roots: boot plus every explored handler root. A root in
    // the final-round table that was never explored leaves its event
    // without a dispatch model (claims degrade to unknown).
    let mut roots: Vec<Root> = Vec::new();
    let mut explored: BTreeMap<(usize, Addr), usize> = BTreeMap::new();
    for (idx, (ctx, fx)) in ctxs.iter().zip(&effects).enumerate() {
        let Some(fx) = fx else { continue };
        match ctx.kind {
            CtxKind::Boot => roots.push(Root {
                event: None,
                entry: ctx.entry,
                fx,
            }),
            CtxKind::Handler(ev) => {
                explored.insert((ev, ctx.entry), idx);
                roots.push(Root {
                    event: Some(ev),
                    entry: ctx.entry,
                    fx,
                });
            }
            CtxKind::Sub => {}
        }
    }
    let installed: Vec<usize> = (0..EVENT_TABLE_ENTRIES)
        .filter(|i| table.get(i).is_some_and(|r| !r.is_empty()))
        .collect();

    // ---- the merged dispatch model ----
    let mut model = DispatchModel {
        p: [None; 8],
        energy: [None; 8],
    };
    for &ev in &installed {
        let mut p: Option<[u64; 8]> = None;
        let mut energy: Option<f64> = None;
        let mut complete = true;
        for &root in &table[&ev] {
            let Some(&idx) = explored.get(&(ev, root)) else {
                complete = false;
                break;
            };
            let fx = effects[idx].as_ref().expect("explored roots have effects");
            match (fx.posts, fx.energy_pj) {
                (Some(pv), Some(pj)) => {
                    let acc = p.get_or_insert([0; 8]);
                    for (a, b) in acc.iter_mut().zip(pv.iter()) {
                        *a = (*a).max(*b);
                    }
                    let e = energy.get_or_insert(0.0);
                    *e = e.max(pj);
                }
                _ => {
                    complete = false;
                    break;
                }
            }
        }
        if complete && !global_degraded {
            model.p[ev] = p;
            model.energy[ev] = energy;
        }
    }

    // ---- graph edges ----
    // Keyed for dedup across multiple roots of the same event:
    // Some(count) merges by max, None (existence-only) stays None.
    let mut edge_map: BTreeMap<(Option<usize>, usize, FlowEdgeKind), Option<u64>> = BTreeMap::new();
    for r in &roots {
        let mut add = |to: usize, kind: FlowEdgeKind, count: Option<u64>| {
            let slot = edge_map.entry((r.event, to, kind)).or_insert(count);
            *slot = match (*slot, count) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        };
        match r.fx.posts {
            Some(pv) => {
                for (j, &n) in pv.iter().enumerate() {
                    if n > 0 {
                        add(j, FlowEdgeKind::Swev, Some(n));
                    }
                }
            }
            None => {
                for (j, &t) in r.fx.swev_targets.iter().enumerate() {
                    if t {
                        add(j, FlowEdgeKind::Swev, None);
                    }
                }
            }
        }
        for t in 0..3 {
            if r.fx.timer_arms[t] {
                add(t, FlowEdgeKind::TimerArm, None);
            }
            if r.fx.timer_cancels[t] {
                add(t, FlowEdgeKind::TimerCancel, None);
            }
        }
        if r.fx.rx_enable {
            add(
                EventKind::RadioRx.index(),
                FlowEdgeKind::RadioRxEnable,
                None,
            );
        }
        if r.fx.radio_tx {
            add(EventKind::RadioTxDone.index(), FlowEdgeKind::RadioTx, None);
        }
        if r.fx.sensor_query {
            add(
                EventKind::SensorReply.index(),
                FlowEdgeKind::SensorQuery,
                None,
            );
        }
    }
    let edges: Vec<FlowEdge> = edge_map
        .into_iter()
        .map(|((from, to, kind), count)| FlowEdge {
            from: from.and_then(EventKind::from_index),
            to: EventKind::from_index(to).expect("index < 8"),
            kind,
            count,
        })
        .collect();

    // ---- chain proofs ----
    let mut chains: Vec<ChainReport> = Vec::new();
    let boot = roots.iter().find(|r| r.event.is_none());
    let boot_chain = boot.and_then(|b| {
        let pv = b.fx.posts?;
        if global_degraded {
            return None;
        }
        let mut start = [0u8; 8];
        let boot_occ: u64 = pv.iter().sum();
        if boot_occ > EVENT_QUEUE_DEPTH as u64 {
            // Boot alone floods the queue; don't build the (invalid,
            // >capacity) start state.
            return Some((
                b.entry,
                ChainResult {
                    peak: boot_occ,
                    overflow: true,
                    unknown: false,
                    dispatches: None,
                    energy_pj: None,
                    max_swev_posts: 0,
                },
            ));
        }
        for (slot, &n) in start.iter_mut().zip(pv.iter()) {
            *slot = n as u8;
        }
        Some((b.entry, simulate_chain(start, &model, boot_occ)))
    });
    // A root whose own activation already posts past capacity is
    // `swev-flood`'s case; `queue-overflow` reports only floods that
    // need the chain (several dispatches' leftovers adding up).
    let root_floods = |event: Option<usize>| -> bool {
        let pv = match event {
            Some(ev) => model.p[ev],
            None => boot.and_then(|b| b.fx.posts),
        };
        pv.is_some_and(|pv| pv.iter().sum::<u64>() > EVENT_QUEUE_DEPTH as u64)
    };
    let mut push_chain = |event: Option<usize>, entry: Addr, r: Option<ChainResult>| {
        let claims_ok = |r: &ChainResult| !r.overflow && !r.unknown && !global_degraded;
        if let Some(r) = &r {
            if r.overflow && !global_degraded && !root_floods(event) {
                diags.push(Diagnostic {
                    lint: "queue-overflow",
                    severity: Severity::Warning,
                    pc: Some(entry),
                    line: None,
                    handler: event
                        .map(|e| ctx_handler_name(CtxKind::Handler(e)))
                        .unwrap_or_else(|| ctx_handler_name(CtxKind::Boot)),
                    message: format!(
                        "the {} activation chain can have {} events pending at once; the queue holds {}",
                        event.map(event_name).unwrap_or_else(|| "boot".into()),
                        r.peak,
                        EVENT_QUEUE_DEPTH
                    ),
                    hint: "events posted past capacity are dropped; shorten the swev chain or batch work"
                        .to_string(),
                });
            }
        }
        chains.push(ChainReport {
            event: event.and_then(EventKind::from_index),
            peak_queue: r.as_ref().filter(|r| claims_ok(r)).map(|r| r.peak),
            overflow: r.as_ref().is_some_and(|r| r.overflow),
            events_per_wake: r
                .as_ref()
                .filter(|r| claims_ok(r))
                .and_then(|r| r.dispatches),
            energy_pj_per_wake: r
                .as_ref()
                .filter(|r| claims_ok(r))
                .and_then(|r| r.energy_pj),
            max_swev_posts: r
                .as_ref()
                .filter(|r| claims_ok(r))
                .map(|r| r.max_swev_posts),
        });
    };
    match boot_chain {
        Some((entry, r)) => push_chain(None, entry, Some(r)),
        None => {
            if let Some(b) = boot {
                push_chain(None, b.entry, None);
            }
        }
    }
    for &ev in &installed {
        let entry = table[&ev].iter().next().copied().unwrap_or(0);
        if model.p[ev].is_none() || global_degraded {
            push_chain(Some(ev), entry, None);
            continue;
        }
        let mut start = [0u8; 8];
        start[ev] = 1;
        push_chain(Some(ev), entry, Some(simulate_chain(start, &model, 1)));
    }

    // ---- cross-handler DMEM hazards ----
    let handler_roots: Vec<&Root> = roots.iter().filter(|r| r.event.is_some()).collect();
    for (i, a) in handler_roots.iter().enumerate() {
        for b in handler_roots.iter().skip(i + 1) {
            if a.event == b.event || a.entry == b.entry {
                continue; // alternatives for one event, or shared code
            }
            if a.fx.reads_unknown || b.fx.reads_unknown {
                continue; // cannot establish "never read"
            }
            let conflict =
                a.fx.writes
                    .intersection(&b.fx.writes)
                    .find(|w| !a.fx.reads.contains(w) && !b.fx.reads.contains(w));
            let Some(&w) = conflict else { continue };
            let pc = a.fx.store_pcs.get(&w).copied();
            let object = data_object_name(w, data_ranges)
                .map(|n| format!(" ({n})"))
                .unwrap_or_default();
            diags.push(Diagnostic {
                lint: "dmem-hazard",
                severity: Severity::Warning,
                pc,
                line: None,
                handler: a.event.map(event_name),
                message: format!(
                    "{} and {} handlers both write DMEM word {w:#05x}{object} and neither reads it",
                    event_name(a.event.expect("handler root")),
                    event_name(b.event.expect("handler root")),
                ),
                hint: "dispatch order decides which write survives; read-modify-write or split the locations"
                    .to_string(),
            });
        }
    }

    // ---- unreachable handlers ----
    // Events only become pending through an effect the graph saw:
    // externally (the sensor-interrupt pin needs no software arming),
    // from boot, or from a reachable handler. Any unknown effect — or
    // a reachable *uninstalled* event, which would run boot code under
    // arbitrary registers — voids the whole argument, so report
    // nothing in that case.
    let sound = !global_degraded
        && roots.iter().all(|r| {
            !r.fx.scan_degraded && !r.fx.swev_unknown && !r.fx.timer_unknown && !r.fx.r15_unknown
        })
        && installed
            .iter()
            .all(|ev| table[ev].iter().all(|&a| explored.contains_key(&(*ev, a))));
    if sound && !installed.is_empty() {
        let mut reachable = [false; EVENT_TABLE_ENTRIES];
        reachable[EventKind::SensorIrq.index()] = true;
        let fx_events = |fx: &RootEffects, reach: &mut [bool; EVENT_TABLE_ENTRIES]| {
            for (j, &t) in fx.swev_targets.iter().enumerate() {
                reach[j] |= t;
            }
            for (t, r) in reach.iter_mut().take(3).enumerate() {
                *r |= fx.timer_arms[t] || fx.timer_cancels[t];
            }
            reach[EventKind::RadioRx.index()] |= fx.rx_enable;
            reach[EventKind::RadioTxDone.index()] |= fx.radio_tx;
            reach[EventKind::SensorReply.index()] |= fx.sensor_query;
        };
        if let Some(b) = boot {
            fx_events(b.fx, &mut reachable);
        }
        loop {
            let mut next = reachable;
            for r in &handler_roots {
                let ev = r.event.expect("handler root");
                if reachable[ev] {
                    fx_events(r.fx, &mut next);
                }
            }
            if next == reachable {
                break;
            }
            reachable = next;
        }
        let escaped = reachable
            .iter()
            .enumerate()
            .any(|(i, &r)| r && !installed.contains(&i));
        if !escaped {
            let dead: Vec<usize> = installed
                .iter()
                .copied()
                .filter(|&i| !reachable[i])
                .collect();
            if let Some(&first) = dead.first() {
                let names: Vec<String> = dead.iter().map(|&i| event_name(i)).collect();
                let pc = table[&first].iter().next().copied();
                diags.push(Diagnostic {
                    lint: "unreachable-handler",
                    severity: Severity::Warning,
                    pc,
                    line: None,
                    handler: None,
                    message: format!(
                        "handlers installed for {} can never be dispatched: nothing arms, posts, or commands those events",
                        names.join(", ")
                    ),
                    hint: "delete the dead handlers, or add the swev/timer/message path meant to raise them"
                        .to_string(),
                });
            }
        }
    }

    (
        FlowReport {
            degraded: global_degraded,
            queue_capacity: EVENT_QUEUE_DEPTH as u64,
            edges,
            chains,
        },
        diags,
    )
}
