//! A re-keyable wake calendar for entity scheduling.
//!
//! [`Calendar`](crate::Calendar) is a plain pending-event queue: entries
//! are immutable once scheduled. An event-driven network simulator needs
//! something stronger for its *nodes*: each node has at most one "next
//! activity" instant, and that instant moves every time the node runs a
//! handler, schedules or cancels a timer, or receives a delivery.
//! [`WakeQueue`] is an indexed binary min-heap over small-integer keys
//! (node indices) supporting `set` (insert or re-key, both directions),
//! `remove`, `peek` and `pop` in `O(log n)`.
//!
//! The heap holds `(time, key)` pairs inline, so a comparison reads the
//! two entries it compares and nothing else. The usual per-wake cycle —
//! [`WakeQueue::peek`] the due key, run it, [`WakeQueue::set`] its new
//! instant — re-keys the root in place: one sift, where a pop followed by
//! a push would take two.
//!
//! Determinism: entries order by `(time, key)`, so two runs of the same
//! simulation pop identical sequences regardless of the insertion or
//! re-key history. There is no FIFO sequence number — a key has at most
//! one entry, and the key itself is the stable tie-break.

use crate::time::SimTime;

/// Sentinel position for "key not in the heap".
const ABSENT: usize = usize::MAX;

/// An indexed min-heap of `(SimTime, key)` entries, at most one entry
/// per key, with `O(log n)` re-keying.
///
/// # Example
///
/// ```
/// use dess::{SimTime, WakeQueue};
///
/// let mut q = WakeQueue::new();
/// q.set(0, SimTime::from_ps(30));
/// q.set(1, SimTime::from_ps(10));
/// q.set(0, SimTime::from_ps(5)); // re-key (decrease)
/// assert_eq!(q.peek(), Some((SimTime::from_ps(5), 0)));
/// q.remove(1);
/// assert_eq!(q.pop(), Some((SimTime::from_ps(5), 0)));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WakeQueue {
    /// Entries in heap order by `(time, key)`.
    heap: Vec<(SimTime, usize)>,
    /// `pos[key]` = index into `heap`, or [`ABSENT`].
    pos: Vec<usize>,
}

impl WakeQueue {
    /// An empty queue.
    pub fn new() -> WakeQueue {
        WakeQueue::default()
    }

    /// An empty queue with room for keys `0..keys` pre-allocated.
    pub fn with_keys(keys: usize) -> WakeQueue {
        WakeQueue {
            heap: Vec::with_capacity(keys),
            pos: vec![ABSENT; keys],
        }
    }

    /// Number of scheduled keys.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` when `key` currently has an entry.
    pub fn contains(&self, key: usize) -> bool {
        self.pos.get(key).is_some_and(|&p| p != ABSENT)
    }

    /// The scheduled instant for `key`, if present.
    pub fn time_of(&self, key: usize) -> Option<SimTime> {
        match self.pos.get(key) {
            Some(&p) if p != ABSENT => Some(self.heap[p].0),
            _ => None,
        }
    }

    /// The earliest entry without removing it.
    pub fn peek(&self) -> Option<(SimTime, usize)> {
        self.heap.first().copied()
    }

    /// Remove and return the earliest entry.
    pub fn pop(&mut self) -> Option<(SimTime, usize)> {
        let first = self.peek()?;
        self.remove(first.1);
        Some(first)
    }

    /// Schedule `key` at `at`, inserting it or moving its existing entry
    /// (either direction). Grows the key space as needed.
    pub fn set(&mut self, key: usize, at: SimTime) {
        if key >= self.pos.len() {
            self.pos.resize(key + 1, ABSENT);
        }
        let p = self.pos[key];
        if p == ABSENT {
            self.pos[key] = self.heap.len();
            self.heap.push((at, key));
            self.sift_up(self.heap.len() - 1);
        } else {
            // Re-key in place: only one direction can move the entry.
            let old = self.heap[p].0;
            self.heap[p].0 = at;
            if at < old {
                self.sift_up(p);
            } else {
                self.sift_down(p);
            }
        }
    }

    /// Remove `key`'s entry, if any.
    pub fn remove(&mut self, key: usize) {
        let Some(&p) = self.pos.get(key) else {
            return;
        };
        if p == ABSENT {
            return;
        }
        let removed = self.heap.swap_remove(p);
        debug_assert_eq!(removed.1, key);
        self.pos[key] = ABSENT;
        // The last entry moved into the hole: restore its place.
        if p < self.heap.len() {
            self.pos[self.heap[p].1] = p;
            let p = self.sift_up(p);
            self.sift_down(p);
        }
    }

    /// Drop every entry (the key space stays allocated).
    pub fn clear(&mut self) {
        for &(_, k) in &self.heap {
            self.pos[k] = ABSENT;
        }
        self.heap.clear();
    }

    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] < self.heap[parent] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (left, right) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if left < self.heap.len() && self.heap[left] < self.heap[best] {
                best = left;
            }
            if right < self.heap.len() && self.heap[right] < self.heap[best] {
                best = right;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    /// Swap two heap slots and fix both keys' positions.
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1] = a;
        self.pos[self.heap[b].1] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(n: u64) -> SimTime {
        SimTime::from_ps(n)
    }

    #[test]
    fn pops_in_time_then_key_order() {
        let mut q = WakeQueue::new();
        q.set(3, ps(20));
        q.set(1, ps(10));
        q.set(2, ps(10));
        q.set(0, ps(30));
        let order: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, k)| (t.as_ps(), k))).collect();
        assert_eq!(order, vec![(10, 1), (10, 2), (20, 3), (30, 0)]);
    }

    #[test]
    fn rekey_moves_both_directions() {
        let mut q = WakeQueue::new();
        for k in 0..8 {
            q.set(k, ps(100 + k as u64));
        }
        q.set(7, ps(1)); // decrease-key to the front
        assert_eq!(q.peek(), Some((ps(1), 7)));
        q.set(7, ps(1_000)); // increase-key to the back
        assert_eq!(q.peek(), Some((ps(100), 0)));
        assert_eq!(q.time_of(7), Some(ps(1_000)));
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn remove_keeps_heap_consistent() {
        let mut q = WakeQueue::new();
        for k in 0..16 {
            q.set(k, ps((k as u64 * 7) % 13));
        }
        q.remove(0);
        q.remove(15);
        q.remove(9);
        q.remove(9); // double-remove is a no-op
        assert!(!q.contains(9));
        let mut last = None;
        let mut n = 0;
        while let Some((t, k)) = q.pop() {
            if let Some(prev) = last {
                assert!(prev <= (t, k), "heap order violated");
            }
            last = Some((t, k));
            n += 1;
        }
        assert_eq!(n, 13);
    }

    #[test]
    fn set_is_idempotent_per_key() {
        let mut q = WakeQueue::with_keys(4);
        q.set(2, ps(5));
        q.set(2, ps(5));
        q.set(2, ps(9));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((ps(9), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clear_and_unknown_key_queries() {
        let mut q = WakeQueue::new();
        q.set(1, ps(4));
        q.clear();
        assert!(q.is_empty());
        assert!(!q.contains(99));
        assert_eq!(q.time_of(99), None);
        q.remove(99); // out-of-range remove is a no-op
        q.set(1, ps(6)); // reusable after clear
        assert_eq!(q.peek(), Some((ps(6), 1)));
    }

    #[test]
    fn randomized_against_reference() {
        // Mirror every operation into a naive Vec-based model: check
        // `time_of` and the head after every step, re-key the head in
        // place the way a wake loop does (peek, run, set), and compare
        // the final pop sequence.
        let mut q = WakeQueue::new();
        let mut model: Vec<Option<SimTime>> = vec![None; 32];
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let head = |model: &[Option<SimTime>]| {
            model
                .iter()
                .enumerate()
                .filter_map(|(k, t)| t.map(|t| (t, k)))
                .min()
        };
        for _ in 0..4_000 {
            let key = (next() % 32) as usize;
            match next() % 5 {
                0 | 1 => {
                    let t = ps(next() % 50);
                    q.set(key, t);
                    model[key] = Some(t);
                }
                2 => {
                    q.remove(key);
                    model[key] = None;
                }
                _ => {
                    // Peek the due key and move it in place: later,
                    // earlier, to the same instant, or out.
                    let Some((t, k)) = q.peek() else { continue };
                    assert_eq!(Some((t, k)), head(&model));
                    match next() % 4 {
                        0 => {
                            q.remove(k);
                            model[k] = None;
                        }
                        step => {
                            let to = match step {
                                1 => ps(t.as_ps() + next() % 20),
                                2 => ps(t.as_ps().saturating_sub(next() % 5)),
                                _ => t,
                            };
                            q.set(k, to);
                            model[k] = Some(to);
                        }
                    }
                }
            }
            assert_eq!(q.peek(), head(&model));
            assert_eq!(q.len(), model.iter().flatten().count());
            for (k, t) in model.iter().enumerate() {
                assert_eq!(q.time_of(k), *t, "time_of({k})");
                assert_eq!(q.contains(k), t.is_some());
            }
        }
        let mut expect: Vec<(SimTime, usize)> = model
            .iter()
            .enumerate()
            .filter_map(|(k, t)| t.map(|t| (t, k)))
            .collect();
        expect.sort();
        let got: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, expect);
    }
}
