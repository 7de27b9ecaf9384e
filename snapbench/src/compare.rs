//! Comparing two run sets, and summarizing run sets for the recorded
//! baseline.
//!
//! A run set is a file of JSON lines, one per run:
//! `{"workload": "...", "seed": N, "result": {...}}`, where `result` is
//! the last line the benchmark printed (`--record FILE` appends it).

use crate::stats::quartiles;
use snap_telemetry::{parse, Value};
use std::collections::BTreeMap;

/// Metric values per (metric, workload), in run order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

pub fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{path}:{}: no workload", i + 1))?;
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::fields)
            .ok_or(format!("{path}:{}: no result metrics", i + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("{path}:{}: {name}", i + 1))?;
            runs.entry((name.clone(), workload.to_string()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// A gated metric of `BENCHMARK.json`: name, lower-is-better, bound.
pub struct Gate {
    name: String,
    lower: bool,
    bound: f64,
}

pub fn gates(benchmark_json: &str) -> Result<Vec<Gate>, String> {
    let v = parse(benchmark_json)?;
    v.get("end_to_end")
        .and_then(Value::elements)
        .ok_or("BENCHMARK.json: no end_to_end")?
        .iter()
        .map(|m| {
            Some(Gate {
                name: m.get("name")?.as_str()?.to_string(),
                lower: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// The verdict for one (metric, workload) row under the rule: at least
/// ten alternating pairs; a gain needs nine wins in ten and a median
/// difference beyond the parent's quartile spread; a regression is a
/// median worse by more than the bound; a row whose parent spread
/// exceeds the bound is unresolved unless every change run beats every
/// parent run.
pub fn verdict(gate: &Gate, parent: &[f64], change: &[f64]) -> String {
    let pairs = parent.len().min(change.len());
    if pairs < 10 {
        return format!("too few pairs ({pairs} < 10)");
    }
    let better = |c: f64, p: f64| if gate.lower { c < p } else { c > p };
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (p1, pm, p3) = quartiles(&parent[..pairs]);
    let (_, cm, _) = quartiles(&change[..pairs]);
    let worse_by = if gate.lower {
        (cm - pm) / pm
    } else {
        (pm - cm) / pm
    };
    let all_better = change[..pairs]
        .iter()
        .all(|&c| parent[..pairs].iter().all(|&p| better(c, p)));
    if 10 * wins >= 9 * pairs && (cm - pm).abs() > p3 - p1 && better(cm, pm) {
        format!("improved ({wins}/{pairs} wins, {:+.1}%)", -worse_by * 100.0)
    } else if worse_by > gate.bound {
        format!(
            "regressed ({:+.1}% worse, bound {:.0}%)",
            worse_by * 100.0,
            gate.bound * 100.0
        )
    } else if (p3 - p1) / pm > gate.bound && !all_better {
        format!(
            "unresolved (parent spread {:.1}% > bound)",
            (p3 - p1) / pm * 100.0
        )
    } else {
        format!("within bound ({wins}/{pairs} wins)")
    }
}

/// `--compare PARENT CHANGE`: one row per gated (metric, workload).
/// Returns whether any row regressed.
pub fn compare(gates: &[Gate], parent: &Runs, change: &Runs) -> bool {
    let mut regressed = false;
    println!(
        "{:<14} {:<13} {:>35} {:>35}  verdict",
        "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]"
    );
    for ((name, workload), p) in parent {
        let Some(gate) = gates.iter().find(|g| &g.name == name) else {
            continue;
        };
        let Some(c) = change.get(&(name.clone(), workload.clone())) else {
            println!("{name:<14} {workload:<13} missing from the change's runs");
            regressed = true;
            continue;
        };
        let show = |v: &[f64]| {
            let (q1, m, q3) = quartiles(v);
            format!("{m:.4e} [{q1:.4e}, {q3:.4e}]")
        };
        let v = verdict(gate, p, c);
        regressed |= v.starts_with("regressed");
        println!(
            "{name:<14} {workload:<13} {:>35} {:>35}  {v}",
            show(p),
            show(c)
        );
    }
    regressed
}

/// `--summarize SET...`: median, quartiles and count per (metric,
/// workload) of each run set, as JSON.
pub fn summarize(sets: &[(String, Runs)]) -> Value {
    let mut out = Value::obj();
    for (path, runs) in sets {
        let mut by_workload: BTreeMap<&str, Value> = BTreeMap::new();
        for ((name, workload), v) in runs {
            let (q1, m, q3) = quartiles(v);
            let mut row = Value::obj();
            row.set("median", Value::Float(m))
                .set("q1", Value::Float(q1))
                .set("q3", Value::Float(q3))
                .set("spread", Value::Float((q3 - q1) / m))
                .set("n", Value::Int(v.len() as i64));
            by_workload
                .entry(workload)
                .or_insert_with(Value::obj)
                .set(name, row);
        }
        out.set(
            path,
            Value::Obj(
                by_workload
                    .into_iter()
                    .map(|(w, v)| (w.to_string(), v))
                    .collect(),
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(lower: bool) -> Gate {
        Gate {
            name: "m".into(),
            lower,
            bound: 0.1,
        }
    }

    #[test]
    fn clear_gain_is_improved() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let change: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert!(verdict(&gate(true), &parent, &change).starts_with("improved"));
        assert!(verdict(&gate(false), &parent, &change).starts_with("regressed"));
    }

    #[test]
    fn noise_is_within_bound_and_wide_spread_is_unresolved() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + (i % 3) as f64).collect();
        let change: Vec<f64> = (0..10).map(|i| 100.0 + ((i + 1) % 3) as f64).collect();
        assert!(verdict(&gate(true), &parent, &change).starts_with("within"));
        let wide: Vec<f64> = (0..10).map(|i| 50.0 + 20.0 * i as f64).collect();
        assert!(verdict(&gate(true), &wide, &wide).starts_with("unresolved"));
        assert!(verdict(&gate(true), &parent[..5], &change[..5]).starts_with("too few"));
    }
}
