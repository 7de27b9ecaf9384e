//! Node positions and radio connectivity.
//!
//! [`Topology`] keeps each node's position and cached neighbour list in
//! plain vectors indexed by node id, so looking up a node's position,
//! grid cell or neighbours is one index. A hash of grid cells one radio
//! range wide bounds every neighbour search to the 3×3 cells around a
//! node, so placement costs O(local density), not O(n).

use snap_node::NodeId;
use std::collections::HashMap;

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
/// Storage is dense: node id `i + 1` lives at index `i` of plain
/// vectors (the ids [`NetworkSim`](crate::NetworkSim) hands out run
/// 1, 2, 3, …), so a node's position, cell and neighbour list are one
/// index away. Placing id `n` reserves slots for every id up to `n`;
/// `NodeId(0)` has no slot and cannot be placed.
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
    range: f64,
    /// Node id `i + 1`'s position at index `i`; `None` until placed.
    positions: Vec<Option<Position>>,
    /// Node id `i + 1`'s in-range peers at index `i`, id-sorted.
    neighbours: Vec<Vec<NodeId>>,
    /// Spatial hash: cell coordinate → placed nodes in that cell,
    /// id-sorted. Cell side length is exactly `range`.
    cells: HashMap<(i64, i64), Vec<NodeId>>,
}

/// `node`'s dense index, or `None` for `NodeId(0)`.
fn index(node: NodeId) -> Option<usize> {
    (node.0 as usize).checked_sub(1)
}

/// The dense index of a node known to be placed.
fn slot(node: NodeId) -> usize {
    node.0 as usize - 1
}

/// Insert `node` into the id-sorted `list` (no duplicates).
fn insert_sorted(list: &mut Vec<NodeId>, node: NodeId) {
    if let Err(i) = list.binary_search(&node) {
        list.insert(i, node);
    }
}

/// Remove `node` from the id-sorted `list`, if present.
fn remove_sorted(list: &mut Vec<NodeId>, node: NodeId) {
    if let Ok(i) = list.binary_search(&node) {
        list.remove(i);
    }
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
            range,
            positions: Vec::new(),
            neighbours: Vec::new(),
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
        self.position(node).map(|p| self.cell_of(p))
    }

    /// Store `position` for `node`, growing the dense vectors to reach
    /// its slot, and move it between cell lists. A node that was placed
    /// before is first unlinked from every cached neighbour list.
    ///
    /// # Panics
    ///
    /// Panics for `NodeId(0)`.
    fn set_position(&mut self, node: NodeId, position: Position) {
        let i = index(node).expect("NodeId(0) cannot be placed: topology ids start at 1");
        if i >= self.positions.len() {
            self.positions.resize(i + 1, None);
            self.neighbours.resize_with(i + 1, Vec::new);
        }
        if let Some(old) = self.positions[i].replace(position) {
            for other in std::mem::take(&mut self.neighbours[i]) {
                remove_sorted(&mut self.neighbours[slot(other)], node);
            }
            let key = self.cell_of(old);
            if let Some(list) = self.cells.get_mut(&key) {
                remove_sorted(list, node);
                if list.is_empty() {
                    self.cells.remove(&key);
                }
            }
        }
        let key = self.cell_of(position);
        insert_sorted(self.cells.entry(key).or_default(), node);
    }

    /// In-range peers of placed `node` (excluding itself), id-sorted,
    /// found by scanning the 3×3 cell block around its position.
    fn in_range_peers(&self, node: NodeId) -> Vec<NodeId> {
        let position = self.position(node).expect("node is placed");
        let (cx, cy) = self.cell_of(position);
        let mut peers = Vec::new();
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(list) = self.cells.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &other in list {
                    let at = self.positions[slot(other)].expect("cell members are placed");
                    if other != node && position.distance(&at) <= self.range {
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
    ///
    /// # Panics
    ///
    /// Panics for `NodeId(0)`: ids start at 1.
    pub fn place(&mut self, node: NodeId, position: Position) {
        self.set_position(node, position);
        let mine = self.in_range_peers(node);
        for &other in &mine {
            insert_sorted(&mut self.neighbours[slot(other)], node);
        }
        self.neighbours[slot(node)] = mine;
    }

    /// Place a batch of nodes at once.
    ///
    /// Equivalent to calling [`place`](Topology::place) for each entry
    /// (a node listed twice ends up at its last position), but
    /// neighbour lists are derived once after all positions land
    /// instead of being patched incrementally per placement — the fast
    /// path for constructing 10⁵–10⁶-node fleets.
    ///
    /// # Panics
    ///
    /// Panics for `NodeId(0)`: ids start at 1.
    pub fn place_many<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (NodeId, Position)>,
    {
        let mut placed = Vec::new();
        for (node, position) in batch {
            self.set_position(node, position);
            placed.push(node);
        }
        placed.sort_unstable();
        placed.dedup();
        let mut in_batch = vec![false; self.positions.len()];
        for &node in &placed {
            in_batch[slot(node)] = true;
        }
        // All positions are in the spatial hash now: derive each batch
        // node's full list in one cell-local scan, and splice the batch
        // node into the lists of in-range nodes from outside the batch.
        for &node in &placed {
            let mine = self.in_range_peers(node);
            for &other in &mine {
                if !in_batch[slot(other)] {
                    insert_sorted(&mut self.neighbours[slot(other)], node);
                }
            }
            self.neighbours[slot(node)] = mine;
        }
    }

    /// The node's position, if placed.
    pub fn position(&self, node: NodeId) -> Option<Position> {
        *self.positions.get(index(node)?)?
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
        match (self.position(a), self.position(b)) {
            (Some(pa), Some(pb)) => pa.distance(&pb) <= self.range,
            _ => false,
        }
    }

    /// All placed nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.positions.iter().enumerate())
            .filter(|(_, p)| p.is_some())
            .map(|(i, _)| NodeId(i as u32 + 1))
    }

    /// Nodes within range of `from` (excluding `from`), in id order.
    /// By radio symmetry this is also the set of nodes `from` hears.
    pub fn neighbours(&self, from: NodeId) -> &[NodeId] {
        index(from)
            .and_then(|i| self.neighbours.get(i))
            .map_or(&[], Vec::as_slice)
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
    #[should_panic(expected = "NodeId(0) cannot be placed")]
    fn node_zero_is_rejected_by_place() {
        Topology::new(10.0).place(NodeId(0), Position::new(0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "NodeId(0) cannot be placed")]
    fn node_zero_is_rejected_by_place_many() {
        Topology::new(10.0).place_many([(NodeId(0), Position::new(0.0, 0.0))]);
    }

    #[test]
    fn ids_are_dense_slots() {
        let mut t = Topology::new(10.0);
        t.place(NodeId(3), Position::new(0.0, 0.0));
        t.place(NodeId(1), Position::new(5.0, 0.0));
        assert_eq!(t.nodes().collect::<Vec<_>>(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(t.position(NodeId(2)), None, "a skipped id stays unplaced");
        assert_eq!(t.position(NodeId(0)), None);
        assert!(t.neighbours(NodeId(0)).is_empty());
        assert_eq!(t.neighbours(NodeId(3)), vec![NodeId(1)]);
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
