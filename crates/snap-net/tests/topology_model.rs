//! The dense topology against brute force.
//!
//! `Topology` keeps positions and neighbour lists in vectors indexed by
//! node id and finds neighbours through a grid of range-sized cells.
//! This property places random layouts through `place` and `place_many`
//! (mixed, with re-placements, gaps in the ids and ids repeated inside
//! one batch) and after every step checks `nodes()`, `position`, `cell`,
//! `in_range` and every neighbour list against an O(n²) disc check over
//! a map of last-placed positions. Coordinates sit on a quarter-unit
//! lattice around the origin, so layouts include negative coordinates,
//! points exactly on cell edges and pairs exactly one radio range apart.

use proptest::prelude::*;
use snap_net::{Position, Topology};
use snap_node::NodeId;
use std::collections::BTreeMap;

/// Node ids drawn from `1..MAX_ID`; some stay unplaced.
const MAX_ID: u32 = 40;

/// A lattice point: quarter units in [-15, 15].
fn point() -> impl Strategy<Value = (i32, i32)> {
    (-60i32..=60, -60i32..=60)
}

fn position((x, y): (i32, i32)) -> Position {
    Position::new(f64::from(x) * 0.25, f64::from(y) * 0.25)
}

#[derive(Debug, Clone)]
enum Step {
    Place(u32, (i32, i32)),
    PlaceMany(Vec<(u32, (i32, i32))>),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u32..MAX_ID, point()).prop_map(|(id, p)| Step::Place(id, p)),
        prop::collection::vec((1u32..MAX_ID, point()), 0..16).prop_map(Step::PlaceMany),
    ]
}

/// Check every query of `topo` against brute force over `model`.
fn check(topo: &Topology, model: &BTreeMap<u32, Position>) {
    let range = topo.range();
    let placed: Vec<NodeId> = model.keys().map(|&id| NodeId(id)).collect();
    assert_eq!(topo.nodes().collect::<Vec<_>>(), placed, "nodes()");
    for id in 0..=MAX_ID + 1 {
        let node = NodeId(id);
        let at = model.get(&id).copied();
        assert_eq!(topo.position(node), at, "position of {id}");
        let cell = at.map(|p| ((p.x / range).floor() as i64, (p.y / range).floor() as i64));
        assert_eq!(topo.cell(node), cell, "cell of {id}");
        let expected: Vec<NodeId> = match at {
            Some(p) => (model.iter())
                .filter(|&(&other, q)| other != id && p.distance(q) <= range)
                .map(|(&other, _)| NodeId(other))
                .collect(),
            None => Vec::new(),
        };
        assert_eq!(topo.neighbours(node), expected, "neighbours of {id}");
        for &other in &expected {
            let (cx, cy) = cell.expect("placed");
            let (ox, oy) = topo.cell(other).expect("placed");
            assert!(
                (cx - ox).abs() <= 1 && (cy - oy).abs() <= 1,
                "neighbours {id} and {} are more than one cell apart",
                other.0
            );
        }
        for other in 0..=MAX_ID + 1 {
            let heard = match (at, model.get(&other)) {
                (Some(p), Some(q)) => other != id && p.distance(q) <= range,
                _ => false,
            };
            assert_eq!(
                topo.in_range(node, NodeId(other)),
                heard,
                "{id} hears {other}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_topology_matches_brute_force(
        range in prop::sample::select(vec![1.0, 2.5, 5.0]),
        steps in prop::collection::vec(step(), 1..24),
    ) {
        let mut topo = Topology::new(range);
        let mut model = BTreeMap::new();
        for step in &steps {
            match step {
                Step::Place(id, p) => {
                    topo.place(NodeId(*id), position(*p));
                    model.insert(*id, position(*p));
                }
                Step::PlaceMany(batch) => {
                    topo.place_many(batch.iter().map(|&(id, p)| (NodeId(id), position(p))));
                    for &(id, p) in batch {
                        model.insert(id, position(p));
                    }
                }
            }
            check(&topo, &model);
        }
    }
}
