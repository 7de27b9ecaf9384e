//! A persistent worker pool for shard epochs.
//!
//! Inside a conservative epoch shards are independent, so
//! [`crate::NetworkSim`] runs them on worker threads. Spawning threads
//! per epoch would cost more than the work in one; this pool spawns its
//! threads once, on first use, and reuses them for every epoch. It runs
//! shard epochs only: everything else in snap-net runs in node-index
//! order on the calling thread.
//!
//! Determinism: the pool only runs epochs. The barrier merges their
//! outputs by (instant, node index), never by completion order.

use crate::sim::Shard;
use dess::SimTime;
use snap_node::Node;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// One shard's conservative epoch: run `shard` over the node slice at
/// `base` to `to`, then report on `done`.
struct Epoch {
    shard: *mut Shard,
    base: *mut Node,
    to: SimTime,
    done: mpsc::Sender<()>,
}

// SAFETY: `to` and `done` are `Send`. The two pointers may cross
// threads because every shard in a batch is distinct and owns a
// disjoint member set of the slice at `base`, and `run_shards` blocks
// until every epoch reports done before it returns the borrows of the
// shards and nodes.
unsafe impl Send for Epoch {}

/// The persistent pool. Threads start lazily on the first epoch batch
/// and exit when the pool is dropped (the job senders hang up).
#[derive(Default)]
pub(crate) struct WorkerPool {
    senders: Vec<mpsc::Sender<Epoch>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// How many workers the pool runs (without forcing the threads to
    /// spawn yet). The sharded scheduler runs epochs inline when this
    /// is 1 — a single worker would only add channel hops.
    pub(crate) fn parallelism(&self) -> usize {
        if self.handles.is_empty() {
            std::thread::available_parallelism()
                .map_or(2, usize::from)
                .clamp(1, 8)
        } else {
            self.handles.len()
        }
    }

    fn ensure_workers(&mut self) {
        if !self.handles.is_empty() {
            return;
        }
        for i in 0..self.parallelism() {
            let (tx, rx) = mpsc::channel::<Epoch>();
            let handle = std::thread::Builder::new()
                .name(format!("snap-net-worker-{i}"))
                .spawn(move || {
                    while let Ok(epoch) = rx.recv() {
                        // SAFETY: each shard in a batch is distinct and
                        // owns a disjoint member set; the caller blocks
                        // on `done` before touching shards or nodes.
                        unsafe { (*epoch.shard).run_epoch(epoch.base, epoch.to) };
                        // A send error means the caller died mid-run;
                        // nothing useful is left to report.
                        let _ = epoch.done.send(());
                    }
                })
                .expect("spawn pool worker");
            self.senders.push(tx);
            self.handles.push(handle);
        }
    }

    /// Run every shard's epoch to `to` on the pool (round-robin over
    /// workers), blocking until all complete. Shard state and node
    /// mutations are the workers'; this only dispatches and joins.
    pub(crate) fn run_shards(&mut self, nodes: &mut [Node], shards: &mut [Shard], to: SimTime) {
        self.ensure_workers();
        let base = nodes.as_mut_ptr();
        let (done_tx, done_rx) = mpsc::channel();
        for (i, shard) in shards.iter_mut().enumerate() {
            let epoch = Epoch {
                shard,
                base,
                to,
                done: done_tx.clone(),
            };
            self.senders[i % self.senders.len()]
                .send(epoch)
                .expect("pool worker alive");
        }
        drop(done_tx);
        for _ in 0..shards.len() {
            done_rx.recv().expect("pool worker panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.senders.clear(); // hang up: workers see Err(recv) and exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
