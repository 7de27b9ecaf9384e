//! Node positions and radio connectivity.

use snap_node::NodeId;
use std::collections::{BTreeMap, HashMap};

/// A 2-D node position (unit-free; range uses the same unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Position {
    /// A position.
    pub fn new(x: f64, y: f64) -> Position {
        Position { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Placement of nodes plus the (disc-model) radio range.
///
/// Connectivity is queried far more often than it changes (every
/// delivery consults it; placement happens at setup), so each node's
/// neighbour list is cached sorted and rebuilt whenever a node is
/// placed or moved. The disc model is symmetric, so one list per node
/// doubles as both "who hears `n`" and "who `n` hears".
///
/// Positions are additionally hashed into square grid cells whose side
/// equals the radio range, so every in-range candidate for a node lives
/// in the 3×3 block of cells around it. Placement and neighbour-list
/// construction scan that block instead of every placed node, which is
/// what makes 10⁵–10⁶-node topologies constructible: [`place_many`]
/// bulk-inserts the whole fleet and then derives each neighbour list
/// from cell-local candidates only.
///
/// [`place_many`]: Topology::place_many
#[derive(Debug, Clone)]
pub struct Topology {
    positions: BTreeMap<NodeId, Position>,
    range: f64,
    neighbours: BTreeMap<NodeId, Vec<NodeId>>,
    /// Spatial hash: cell coordinate → placed nodes in that cell,
    /// id-sorted. Cell side length is exactly `range`.
    cells: HashMap<(i64, i64), Vec<NodeId>>,
}

impl Topology {
    /// An empty topology with the given radio range.
    ///
    /// # Panics
    ///
    /// Panics unless `range` is positive.
    pub fn new(range: f64) -> Topology {
        assert!(range > 0.0, "radio range must be positive");
        Topology {
            positions: BTreeMap::new(),
            range,
            neighbours: BTreeMap::new(),
            cells: HashMap::new(),
        }
    }

    /// Whether `position` lies within 2^52 cells of the origin, so its
    /// 3×3 cell neighbourhood fits `i64` (checked on restore).
    pub(crate) fn in_bounds(&self, position: Position) -> bool {
        const MAX_CELLS: f64 = (1u64 << 52) as f64;
        let ok = |v: f64| (v / self.range).abs() < MAX_CELLS;
        ok(position.x) && ok(position.y)
    }

    /// The grid cell containing `position` (cell side = radio range).
    fn cell_of(&self, position: Position) -> (i64, i64) {
        (
            (position.x / self.range).floor() as i64,
            (position.y / self.range).floor() as i64,
        )
    }

    /// The grid cell a placed node occupies, if placed. Cells have side
    /// length equal to the radio range, so all of a node's neighbours
    /// live in the 3×3 block centred on its cell — the property the
    /// sharded scheduler's spatial partitioning relies on.
    pub fn cell(&self, node: NodeId) -> Option<(i64, i64)> {
        self.positions.get(&node).map(|&p| self.cell_of(p))
    }

    /// Remove `node` from its cell list.
    fn cell_remove(&mut self, node: NodeId, position: Position) {
        let key = self.cell_of(position);
        if let Some(list) = self.cells.get_mut(&key) {
            if let Ok(i) = list.binary_search(&node) {
                list.remove(i);
            }
            if list.is_empty() {
                self.cells.remove(&key);
            }
        }
    }

    /// Insert `node` into its cell list (id-sorted).
    fn cell_insert(&mut self, node: NodeId, position: Position) {
        let key = self.cell_of(position);
        let list = self.cells.entry(key).or_default();
        if let Err(i) = list.binary_search(&node) {
            list.insert(i, node);
        }
    }

    /// In-range peers of `position` (excluding `node` itself), id-sorted,
    /// found by scanning the 3×3 cell block around `position`.
    fn in_range_peers(&self, node: NodeId, position: Position) -> Vec<NodeId> {
        let (cx, cy) = self.cell_of(position);
        let mut peers = Vec::new();
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(list) = self.cells.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &other in list {
                    if other == node {
                        continue;
                    }
                    let other_pos = self.positions[&other];
                    if position.distance(&other_pos) <= self.range {
                        peers.push(other);
                    }
                }
            }
        }
        peers.sort_unstable();
        peers
    }

    /// Place (or move) a node; updates the neighbour cache
    /// incrementally. Candidate neighbours come from the 3×3 grid-cell
    /// block around the position, so each placement costs O(local
    /// density) rather than O(n).
    pub fn place(&mut self, node: NodeId, position: Position) {
        if let Some(old) = self.positions.insert(node, position) {
            // The node's old in-range set is exactly its cached
            // neighbour list; drop it from each of those lists and
            // re-derive from the new position.
            let old_neighbours = self.neighbours.remove(&node).unwrap_or_default();
            for other in old_neighbours {
                if let Some(list) = self.neighbours.get_mut(&other) {
                    if let Ok(i) = list.binary_search(&node) {
                        list.remove(i);
                    }
                }
            }
            self.cell_remove(node, old);
        }
        self.cell_insert(node, position);
        let mine = self.in_range_peers(node, position);
        for &other in &mine {
            let list = self.neighbours.entry(other).or_default();
            if let Err(i) = list.binary_search(&node) {
                list.insert(i, node);
            }
        }
        self.neighbours.insert(node, mine);
    }

    /// Place a batch of nodes at once.
    ///
    /// Equivalent to calling [`place`](Topology::place) for each entry,
    /// but neighbour lists are derived once after all positions land
    /// instead of being patched incrementally per placement — the fast
    /// path for constructing 10⁵–10⁶-node fleets.
    pub fn place_many<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (NodeId, Position)>,
    {
        let mut placed = Vec::new();
        for (node, position) in batch {
            if let Some(old) = self.positions.insert(node, position) {
                // Re-placement falls back to the incremental move path
                // for the removal half; rare in bulk construction.
                let old_neighbours = self.neighbours.remove(&node).unwrap_or_default();
                for other in old_neighbours {
                    if let Some(list) = self.neighbours.get_mut(&other) {
                        if let Ok(i) = list.binary_search(&node) {
                            list.remove(i);
                        }
                    }
                }
                self.cell_remove(node, old);
            }
            self.cell_insert(node, position);
            placed.push((node, position));
        }
        // All positions are in the spatial hash now: derive each batch
        // node's full list in one cell-local scan, and splice the batch
        // node into the lists of in-range nodes from outside the batch.
        placed.sort_unstable_by_key(|&(node, _)| node);
        for &(node, position) in &placed {
            let mine = self.in_range_peers(node, position);
            for &other in &mine {
                if placed.binary_search_by_key(&other, |&(n, _)| n).is_ok() {
                    continue; // the batch peer derives its own full list
                }
                let list = self.neighbours.entry(other).or_default();
                if let Err(i) = list.binary_search(&node) {
                    list.insert(i, node);
                }
            }
            self.neighbours.insert(node, mine);
        }
    }

    /// The node's position, if placed.
    pub fn position(&self, node: NodeId) -> Option<Position> {
        self.positions.get(&node).copied()
    }

    /// The radio range.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// `true` when `b` can hear `a` (disc model; a node never hears
    /// itself).
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        match (self.positions.get(&a), self.positions.get(&b)) {
            (Some(pa), Some(pb)) => pa.distance(pb) <= self.range,
            _ => false,
        }
    }

    /// All placed nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.positions.keys().copied()
    }

    /// Nodes within range of `from` (excluding `from`), in id order.
    /// By radio symmetry this is also the set of nodes `from` hears.
    pub fn neighbours(&self, from: NodeId) -> &[NodeId] {
        self.neighbours.get(&from).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn disc_connectivity() {
        let mut t = Topology::new(10.0);
        t.place(NodeId(1), Position::new(0.0, 0.0));
        t.place(NodeId(2), Position::new(6.0, 8.0)); // distance 10: in range
        t.place(NodeId(3), Position::new(20.0, 0.0));
        assert!(t.in_range(NodeId(1), NodeId(2)));
        assert!(t.in_range(NodeId(2), NodeId(1)));
        assert!(!t.in_range(NodeId(1), NodeId(3)));
        assert!(!t.in_range(NodeId(1), NodeId(1)), "no self-hearing");
        assert_eq!(t.neighbours(NodeId(1)), vec![NodeId(2)]);
    }

    #[test]
    fn neighbour_cache_rebuilds_on_move() {
        let mut t = Topology::new(10.0);
        t.place(NodeId(1), Position::new(0.0, 0.0));
        t.place(NodeId(2), Position::new(5.0, 0.0));
        assert_eq!(t.neighbours(NodeId(1)), vec![NodeId(2)]);
        // Re-placing a node must refresh every cached neighbourhood.
        t.place(NodeId(2), Position::new(50.0, 0.0));
        assert!(t.neighbours(NodeId(1)).is_empty());
        assert!(t.neighbours(NodeId(2)).is_empty());
        t.place(NodeId(3), Position::new(45.0, 0.0));
        assert_eq!(t.neighbours(NodeId(2)), vec![NodeId(3)]);
        assert_eq!(t.neighbours(NodeId(3)), vec![NodeId(2)]);
        assert!(
            t.neighbours(NodeId(9)).is_empty(),
            "unknown id has no neighbours"
        );
    }

    #[test]
    fn unplaced_nodes_unreachable() {
        let mut t = Topology::new(5.0);
        t.place(NodeId(1), Position::new(0.0, 0.0));
        assert!(!t.in_range(NodeId(1), NodeId(9)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_range_rejected() {
        let _ = Topology::new(0.0);
    }

    #[test]
    fn place_many_matches_incremental_place() {
        // A crowded cluster straddling several grid cells, plus an
        // isolated outlier: bulk and incremental construction must
        // produce identical neighbour caches.
        let layout: Vec<(NodeId, Position)> = (0..40)
            .map(|i| {
                let (col, row) = (i % 8, i / 8);
                (
                    NodeId(i + 1),
                    Position::new(f64::from(col) * 4.0, f64::from(row) * 4.0),
                )
            })
            .chain([(NodeId(99), Position::new(500.0, -500.0))])
            .collect();
        let mut incremental = Topology::new(6.5);
        for &(node, pos) in &layout {
            incremental.place(node, pos);
        }
        let mut bulk = Topology::new(6.5);
        bulk.place_many(layout.iter().copied());
        for &(node, _) in &layout {
            assert_eq!(bulk.neighbours(node), incremental.neighbours(node));
            assert_eq!(bulk.position(node), incremental.position(node));
            assert_eq!(bulk.cell(node), incremental.cell(node));
        }
        assert!(bulk.neighbours(NodeId(99)).is_empty());
    }

    #[test]
    fn place_many_splices_into_existing_lists() {
        let mut t = Topology::new(10.0);
        t.place(NodeId(1), Position::new(0.0, 0.0));
        t.place_many([
            (NodeId(2), Position::new(3.0, 0.0)),
            (NodeId(3), Position::new(200.0, 0.0)),
        ]);
        assert_eq!(t.neighbours(NodeId(1)), vec![NodeId(2)]);
        assert_eq!(t.neighbours(NodeId(2)), vec![NodeId(1)]);
        assert!(t.neighbours(NodeId(3)).is_empty());
    }

    #[test]
    fn cells_span_the_radio_range() {
        let mut t = Topology::new(10.0);
        t.place(NodeId(1), Position::new(-0.5, 0.0));
        t.place(NodeId(2), Position::new(0.5, 0.0));
        assert_eq!(t.cell(NodeId(1)), Some((-1, 0)));
        assert_eq!(t.cell(NodeId(2)), Some((0, 0)));
        // Different cells, still neighbours: the 3×3 scan covers it.
        assert_eq!(t.neighbours(NodeId(1)), vec![NodeId(2)]);
        assert_eq!(t.cell(NodeId(9)), None);
    }
}
