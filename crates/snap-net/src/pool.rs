//! A persistent worker pool for parallel node windows.
//!
//! Between synchronization points nodes are independent, so
//! [`crate::NetworkSim`] advances them on worker threads. Spawning a
//! thread per node per 100 µs quantum (the old `scope`-based approach)
//! costs far more than the work in each window; this pool spawns its
//! threads once, on first use, and reuses them for every quantum.
//!
//! Determinism: [`WorkerPool::run`] partitions the node slice into
//! contiguous chunks, one per worker, and each worker advances its
//! chunk in order. Results are reassembled by chunk index — never by
//! completion order — so the fold over node outputs observes exactly
//! the sequence the sequential path would produce.

use crate::sim::Shard;
use dess::SimTime;
use snap_node::{Node, NodeError, NodeOutput};
use std::sync::mpsc;
use std::thread::JoinHandle;

type NodeResult = Result<Vec<NodeOutput>, NodeError>;

/// A raw pointer to the base of the caller's node slice, asserted safe
/// to move across threads: each job touches a disjoint set of node
/// indices and the caller blocks until every worker reports back before
/// touching the nodes.
struct BasePtr(*mut Node);
unsafe impl Send for BasePtr {}

/// A raw pointer to one [`Shard`], asserted safe to move across
/// threads: every shard in a batch is distinct and owns a disjoint
/// member set, and the caller blocks until every epoch reports done.
struct ShardPtr(*mut Shard);
unsafe impl Send for ShardPtr {}

enum Job {
    /// Advance nodes `offset..offset + len` to a common deadline.
    Nodes {
        chunk: usize,
        base: BasePtr,
        offset: usize,
        len: usize,
        deadline: SimTime,
        results: mpsc::Sender<(usize, Vec<NodeResult>)>,
    },
    /// Run one shard's conservative epoch.
    Epoch {
        shard: ShardPtr,
        base: BasePtr,
        to: SimTime,
        done: mpsc::Sender<()>,
    },
}

/// The persistent pool. Threads start lazily on the first parallel run
/// and exit when the pool is dropped (the job senders hang up).
pub struct WorkerPool {
    senders: Vec<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// A pool with no threads yet; they spawn on the first `run`.
    pub fn new() -> WorkerPool {
        WorkerPool {
            senders: Vec::new(),
            handles: Vec::new(),
        }
    }

    /// Worker threads currently alive (0 before the first `run`).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    fn spawn_workers(&mut self, count: usize) {
        for i in 0..count {
            let (tx, rx) = mpsc::channel::<Job>();
            let handle = std::thread::Builder::new()
                .name(format!("snap-net-worker-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        match job {
                            Job::Nodes {
                                chunk,
                                base,
                                offset,
                                len,
                                deadline,
                                results,
                            } => {
                                // SAFETY: jobs in one batch carry
                                // disjoint node ranges, and the
                                // dispatching caller joins on every
                                // result before using the nodes again.
                                let out: Vec<NodeResult> = (offset..offset + len)
                                    .map(|i| unsafe { &mut *base.0.add(i) }.run_until(deadline))
                                    .collect();
                                // A send error means the caller died
                                // mid-run; nothing useful left to do
                                // with the result.
                                let _ = results.send((chunk, out));
                            }
                            Job::Epoch {
                                shard,
                                base,
                                to,
                                done,
                            } => {
                                // SAFETY: each shard in a batch is
                                // distinct and owns a disjoint member
                                // set; the caller blocks on `done`
                                // before touching shards or nodes.
                                unsafe { (*shard.0).run_epoch(base.0, to) };
                                let _ = done.send(());
                            }
                        }
                    }
                })
                .expect("spawn pool worker");
            self.senders.push(tx);
            self.handles.push(handle);
        }
    }

    fn ensure_workers(&mut self) {
        if self.handles.is_empty() {
            let workers = std::thread::available_parallelism()
                .map_or(2, usize::from)
                .min(8);
            self.spawn_workers(workers.max(1));
        }
    }

    /// Advance every node to `deadline` on the pool, returning each
    /// node's result in node-index order.
    pub fn run(&mut self, nodes: &mut [Node], deadline: SimTime) -> Vec<NodeResult> {
        self.ensure_workers();
        let chunk_len = nodes.len().div_ceil(self.handles.len()).max(1);
        let base = nodes.as_mut_ptr();
        let (results_tx, results_rx) = mpsc::channel();
        let mut jobs = 0;
        let mut offset = 0;
        while offset < nodes.len() {
            let len = chunk_len.min(nodes.len() - offset);
            let job = Job::Nodes {
                chunk: jobs,
                base: BasePtr(base),
                offset,
                len,
                deadline,
                results: results_tx.clone(),
            };
            self.senders[jobs].send(job).expect("pool worker alive");
            jobs += 1;
            offset += len;
        }
        drop(results_tx);
        Self::collect(results_rx, jobs)
    }

    /// How many workers a parallel run would use (without forcing the
    /// threads to spawn yet). The sharded scheduler runs epochs inline
    /// when this is 1 — a single worker would only add channel hops.
    pub fn parallelism(&self) -> usize {
        if self.handles.is_empty() {
            std::thread::available_parallelism()
                .map_or(2, usize::from)
                .clamp(1, 8)
        } else {
            self.handles.len()
        }
    }

    /// Run every shard's epoch to `to` on the pool (round-robin over
    /// workers), blocking until all complete. Shard state and node
    /// mutations are the workers'; this only dispatches and joins.
    pub(crate) fn run_shards(&mut self, nodes: &mut [Node], shards: &mut [Shard], to: SimTime) {
        self.ensure_workers();
        let base = nodes.as_mut_ptr();
        let (done_tx, done_rx) = mpsc::channel();
        let mut jobs = 0;
        for shard in shards.iter_mut() {
            let job = Job::Epoch {
                shard: ShardPtr(shard as *mut Shard),
                base: BasePtr(base),
                to,
                done: done_tx.clone(),
            };
            self.senders[jobs % self.senders.len()]
                .send(job)
                .expect("pool worker alive");
            jobs += 1;
        }
        drop(done_tx);
        for _ in 0..jobs {
            done_rx.recv().expect("pool worker panicked");
        }
    }

    fn collect(
        results_rx: mpsc::Receiver<(usize, Vec<NodeResult>)>,
        jobs: usize,
    ) -> Vec<NodeResult> {
        let mut by_chunk: Vec<Option<Vec<NodeResult>>> = (0..jobs).map(|_| None).collect();
        for _ in 0..jobs {
            let (chunk, out) = results_rx.recv().expect("pool worker panicked");
            by_chunk[chunk] = Some(out);
        }
        by_chunk
            .into_iter()
            .flat_map(|r| r.expect("every chunk reported"))
            .collect()
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
