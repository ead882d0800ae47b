//! The multi-tenant serving layer: many client threads, one shared
//! graph, a pool of worker sessions.
//!
//! A [`GraphService`] accepts queries (arbitrary closures over a
//! [`CoSparse`] session — BFS/SSSP sources, PageRank snapshots, raw
//! SpMVs) from any number of threads and executes them on a fixed pool
//! of worker threads, each owning one long-lived session over the same
//! `Arc`-shared [`SharedGraph`]. Because sessions are cheap and the
//! expensive per-matrix artifacts (formats, layout, partitions,
//! compiled dense-IP programs) live in the graph, N workers serving
//! thousands of queries build each artifact once — the amortization is
//! visible in [`SharedGraph::cache_stats`] and is what the
//! `cosparse-perf` serve workload measures as queries/sec.
//!
//! Same-graph queries are *batched*: a worker drains up to
//! [`ServeConfig::batch`] queued queries in one lock acquisition and
//! runs them back-to-back on its warm session, so consecutive queries
//! reuse the session's frontier scratch and builder without returning
//! to the queue lock in between.
//!
//! ```
//! use cosparse::{Frontier, GraphService, ServeConfig, SharedGraph};
//! use transmuter::{Geometry, MicroArch};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let matrix = sparse::generate::uniform(512, 512, 4000, 7)?;
//! let graph = SharedGraph::new(&matrix, Geometry::new(2, 4), MicroArch::paper());
//! let service = GraphService::start(graph, ServeConfig::default());
//!
//! // Submit from any thread; `wait` blocks for this query's answer.
//! let frontier = Frontier::Dense(sparse::generate::random_dense_vector(512, 3));
//! let ticket = service.submit(move |session| session.spmv(&frontier));
//! let outcome = ticket.wait()?;
//! println!("served under {}/{}", outcome.software, outcome.hardware);
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

use crate::host::{host_cpus, ExecBackend};
use crate::runtime::CoSparse;
use crate::shared::SharedGraph;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A boxed query: runs on a worker's session, produces the answer sent
/// back through the ticket.
type QueryFn<T> = Box<dyn FnOnce(&mut CoSparse) -> T + Send + 'static>;

struct Job<T> {
    run: QueryFn<T>,
    reply: mpsc::Sender<T>,
}

struct QueueState<T> {
    jobs: VecDeque<Job<T>>,
    shutdown: bool,
}

/// Cumulative counters of a running service (all relaxed atomics;
/// consistent once the submitting threads have joined).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Queries accepted by [`GraphService::submit`] or
    /// [`GraphService::try_submit`].
    pub submitted: u64,
    /// Queries whose closure ran to completion on a worker.
    pub completed: u64,
    /// Queue drains — each drain ran 1..=batch queries back-to-back on
    /// one warm session. `completed / batches` is the achieved batching
    /// factor.
    pub batches: u64,
    /// Queries shed by [`GraphService::try_submit`] because the queue
    /// sat at [`ServeConfig::queue_cap`].
    pub rejected: u64,
    /// [`GraphService::submit_cached`] submissions answered from the
    /// same-source memo without running on a worker (counted in
    /// `submitted`, never in `completed` or `batches`).
    pub cache_hits: u64,
}

#[derive(Default)]
struct ServeCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    rejected: AtomicU64,
    cache_hits: AtomicU64,
}

/// The same-source query memo behind [`GraphService::submit_cached`]:
/// answers keyed by the caller's query key, valid for exactly one graph
/// content epoch — the whole map is dropped the first time an access
/// sees a newer [`SharedGraph::epoch`].
struct QueryCache<T> {
    epoch: u64,
    answers: HashMap<u64, T>,
}

impl<T> Default for QueryCache<T> {
    fn default() -> Self {
        QueryCache {
            epoch: 0,
            answers: HashMap::new(),
        }
    }
}

struct ServeShared<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    /// Signalled whenever a drain frees queue slots; blocking
    /// [`GraphService::submit`] callers wait here under backpressure.
    space: Condvar,
    queue_cap: usize,
    counters: ServeCounters,
    cache: Mutex<QueryCache<T>>,
}

/// Why a non-blocking submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The queue already holds [`ServeConfig::queue_cap`] undrained
    /// queries; the caller should back off, retry, or fall back to the
    /// blocking [`GraphService::submit`].
    Overloaded,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "service queue is at capacity"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Locks the queue, recovering from poison: the queue state is a plain
/// job list that is never left half-mutated by the panicking sections
/// (a submit assert, a query closure), so the service keeps draining
/// and shutting down cleanly after a client panic.
fn lock_queue<T>(mutex: &Mutex<QueueState<T>>) -> std::sync::MutexGuard<'_, QueueState<T>> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Locks the query memo, recovering from poison for the same reason as
/// [`lock_queue`]: a clone/insert never leaves the map half-mutated.
fn lock_cache<T>(mutex: &Mutex<QueryCache<T>>) -> std::sync::MutexGuard<'_, QueryCache<T>> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Configuration of a [`GraphService`] worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads (each owns one session). Default: the host's
    /// available parallelism, capped at 8.
    pub workers: usize,
    /// Maximum queries a worker drains per queue lock acquisition.
    /// Default 16.
    pub batch: usize,
    /// Maximum undrained queries the queue holds before backpressure
    /// kicks in: [`GraphService::submit`] blocks for a slot,
    /// [`GraphService::try_submit`] sheds the query with
    /// [`ServeError::Overloaded`]. Default 256.
    pub queue_cap: usize,
    /// Backend every worker session runs under. Default
    /// [`ExecBackend::Host`] — the serving layer exists to answer real
    /// queries fast; pick [`ExecBackend::Simulate`] to serve simulated
    /// timings.
    pub backend: ExecBackend,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = host_cpus().min(8);
        ServeConfig {
            workers,
            batch: 16,
            queue_cap: 256,
            backend: ExecBackend::Host,
        }
    }
}

/// A pending query's handle: [`Ticket::wait`] blocks until a worker has
/// run the query and returns its answer.
#[derive(Debug)]
pub struct Ticket<T> {
    rx: mpsc::Receiver<T>,
}

impl<T> Ticket<T> {
    /// Blocks until the query's answer arrives.
    ///
    /// # Panics
    ///
    /// Panics if the service shut down (or a worker died) before
    /// answering — submitting after [`GraphService::shutdown`] began,
    /// or a query closure that panicked on the worker.
    pub fn wait(self) -> T {
        self.rx
            .recv()
            .expect("query dropped: service shut down or worker panicked before answering")
    }
}

/// A multi-tenant query service over one shared graph: a pool of worker
/// threads, each owning a warm [`CoSparse`] session, draining a shared
/// queue in batches. See the module docs for the contract, and
/// [`GraphService::submit`] for the query form.
///
/// All answers are produced by ordinary sessions over the same
/// [`SharedGraph`], so per-query results are bit-identical to a
/// dedicated single-session runtime under every backend.
pub struct GraphService<T: Send + 'static> {
    graph: Arc<SharedGraph>,
    shared: Arc<ServeShared<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> std::fmt::Debug for GraphService<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphService")
            .field("workers", &self.workers.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> GraphService<T> {
    /// Spawns the worker pool: `config.workers` threads, each opening
    /// one session over `graph` (fresh machine, `config.backend`) and
    /// looping on the shared queue until [`GraphService::shutdown`].
    pub fn start(graph: Arc<SharedGraph>, config: ServeConfig) -> Self {
        let workers = config.workers.max(1);
        let batch = config.batch.max(1);
        let shared = Arc::new(ServeShared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
            queue_cap: config.queue_cap.max(1),
            counters: ServeCounters::default(),
            cache: Mutex::new(QueryCache::default()),
        });
        let handles = (0..workers)
            .map(|i| {
                let mut session = graph.session();
                session.set_backend(config.backend);
                // The pool is the parallelism: host steps run inline.
                session.set_host_threads(1);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cosparse-serve-{i}"))
                    .spawn(move || worker_loop(session, &shared, batch))
                    .expect("spawn serve worker")
            })
            .collect();
        GraphService {
            graph,
            shared,
            workers: handles,
        }
    }

    /// Enqueues a query — any closure over a worker's session — and
    /// returns its [`Ticket`]. The closure sets whatever per-query
    /// session state it needs (policy, thresholds, verification) and
    /// runs steps/SpMVs; session scratch persists across queries on the
    /// same worker, shared artifacts across all of them.
    ///
    /// When the queue sits at [`ServeConfig::queue_cap`] this call
    /// *blocks* until a worker drain frees a slot — backpressure
    /// propagates to the submitting thread instead of letting the queue
    /// grow without bound. Use [`GraphService::try_submit`] to shed
    /// load instead of waiting.
    pub fn submit<F>(&self, query: F) -> Ticket<T>
    where
        F: FnOnce(&mut CoSparse) -> T + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        {
            let mut state = lock_queue(&self.shared.state);
            while state.jobs.len() >= self.shared.queue_cap && !state.shutdown {
                state = self
                    .shared
                    .space
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            assert!(!state.shutdown, "submit after GraphService::shutdown");
            state.jobs.push_back(Job {
                run: Box::new(query),
                reply: tx,
            });
        }
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.available.notify_one();
        Ticket { rx }
    }

    /// Non-blocking [`GraphService::submit`]: enqueues the query if the
    /// queue has room, otherwise returns [`ServeError::Overloaded`]
    /// immediately (counted in [`ServeStats::rejected`]) so the caller
    /// can shed or defer the work.
    pub fn try_submit<F>(&self, query: F) -> Result<Ticket<T>, ServeError>
    where
        F: FnOnce(&mut CoSparse) -> T + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        {
            let mut state = lock_queue(&self.shared.state);
            assert!(!state.shutdown, "submit after GraphService::shutdown");
            if state.jobs.len() >= self.shared.queue_cap {
                drop(state);
                self.shared
                    .counters
                    .rejected
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded);
            }
            state.jobs.push_back(Job {
                run: Box::new(query),
                reply: tx,
            });
        }
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.available.notify_one();
        Ok(Ticket { rx })
    }

    /// [`GraphService::submit`] with a same-source memo: submissions
    /// sharing `key` on the same graph content epoch run once — later
    /// ones are answered from the cached value without touching a
    /// worker, resolving the [`Ticket`] immediately. The caller
    /// guarantees `key` fully identifies the query's answer over the
    /// current graph (deterministic closure, key covering every input);
    /// a [`SharedGraph::bump_epoch`] invalidates every cached answer.
    ///
    /// Hits count in [`ServeStats::submitted`] and
    /// [`ServeStats::cache_hits`] but not in [`ServeStats::completed`]
    /// or [`ServeStats::batches`] — no query ran. Concurrent misses on
    /// one key may each run the query (a memo, not a deduplicator);
    /// last completion wins the cache slot.
    pub fn submit_cached<F>(&self, key: u64, query: F) -> Ticket<T>
    where
        T: Clone,
        F: FnOnce(&mut CoSparse) -> T + Send + 'static,
    {
        let epoch = self.graph.epoch();
        {
            let cache = lock_cache(&self.shared.cache);
            if cache.epoch == epoch {
                if let Some(answer) = cache.answers.get(&key) {
                    let answer = answer.clone();
                    drop(cache);
                    let c = &self.shared.counters;
                    c.submitted.fetch_add(1, Ordering::Relaxed);
                    c.cache_hits.fetch_add(1, Ordering::Relaxed);
                    // Resolve the ticket directly: the cached answer
                    // travels on a fresh channel, no worker involved.
                    let (tx, rx) = mpsc::channel();
                    tx.send(answer).expect("receiver held");
                    return Ticket { rx };
                }
            }
        }
        let shared = Arc::clone(&self.shared);
        self.submit(move |session| {
            let answer = query(session);
            let epoch = session.shared().epoch();
            let mut cache = lock_cache(&shared.cache);
            if cache.epoch != epoch {
                cache.answers.clear();
                cache.epoch = epoch;
            }
            cache.answers.insert(key, answer.clone());
            answer
        })
    }

    /// The shared graph the workers serve.
    pub fn graph(&self) -> &Arc<SharedGraph> {
        &self.graph
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Current service counters.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
        }
    }

    /// Drains the queue, stops the workers and joins them, returning
    /// the final counters.
    ///
    /// # Panics
    ///
    /// Propagates a worker thread's panic (a panicking query closure).
    pub fn shutdown(mut self) -> ServeStats {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        self.stats()
    }

    fn begin_shutdown(&self) {
        let mut state = lock_queue(&self.shared.state);
        state.shutdown = true;
        drop(state);
        self.shared.available.notify_all();
        // Submitters blocked on a full queue wake into the
        // submit-after-shutdown panic rather than hanging forever.
        self.shared.space.notify_all();
    }
}

impl<T: Send + 'static> Drop for GraphService<T> {
    fn drop(&mut self) {
        // Explicit `shutdown` already drained `workers`; otherwise stop
        // and join quietly (worker panics surface as poisoned tickets).
        if self.workers.is_empty() {
            return;
        }
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: wait for work, drain up to `batch` jobs in one lock
/// acquisition, run them back-to-back on the warm session, repeat.
/// Exits once shutdown is flagged and the queue is empty.
fn worker_loop<T: Send + 'static>(mut session: CoSparse, shared: &ServeShared<T>, batch: usize) {
    let mut drained: Vec<Job<T>> = Vec::with_capacity(batch);
    loop {
        {
            let mut state = lock_queue(&shared.state);
            while state.jobs.is_empty() && !state.shutdown {
                state = shared
                    .available
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            if state.jobs.is_empty() {
                return; // shutdown with nothing left to do
            }
            let take = state.jobs.len().min(batch);
            drained.extend(state.jobs.drain(..take));
            // More work may remain for the other workers.
            if !state.jobs.is_empty() {
                shared.available.notify_one();
            }
            // The drain freed `take` slots; wake every submitter blocked
            // on backpressure (they re-check capacity under the lock).
            shared.space.notify_all();
        }
        shared.counters.batches.fetch_add(1, Ordering::Relaxed);
        for job in drained.drain(..) {
            let answer = (job.run)(&mut session);
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            // A dropped Ticket (client gave up) is fine; the work is done.
            let _ = job.reply.send(answer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Frontier;
    use transmuter::{Geometry, MicroArch};

    fn graph(n: usize, nnz: usize) -> Arc<SharedGraph> {
        let m = sparse::generate::uniform(n, n, nnz, 11).unwrap();
        SharedGraph::new(&m, Geometry::new(2, 4), MicroArch::paper())
    }

    fn config(workers: usize, backend: ExecBackend) -> ServeConfig {
        ServeConfig {
            workers,
            batch: 4,
            queue_cap: 256,
            backend,
        }
    }

    #[test]
    fn serves_queries_and_counts_them() {
        let g = graph(256, 2000);
        let service = GraphService::start(Arc::clone(&g), config(2, ExecBackend::Host));
        let tickets: Vec<_> = (0..10)
            .map(|_| {
                service.submit(|session| {
                    let x = Frontier::Dense(sparse::generate::random_dense_vector(256, 5));
                    session.spmv(&x).map(|out| out.result)
                })
            })
            .collect();
        let answers: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        assert!(answers.iter().all(|a| a.is_ok()));
        let first = answers[0].as_ref().unwrap();
        assert!(answers.iter().all(|a| a.as_ref().unwrap() == first));
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10);
        assert!(stats.batches >= 1 && stats.batches <= 10);
    }

    #[test]
    fn workers_share_one_plan_cache() {
        let g = graph(256, 2000);
        let service = GraphService::start(Arc::clone(&g), config(4, ExecBackend::Simulate));
        let tickets: Vec<_> = (0..8)
            .map(|_| {
                service.submit(|session| {
                    let x = Frontier::Dense(sparse::generate::random_dense_vector(256, 5));
                    session.spmv(&x).map(|out| out.report.cycles)
                })
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        service.shutdown();
        let cs = g.cache_stats();
        assert_eq!(cs.plan_builds, 1, "one plan for every worker");
        // Auto policy on a dense frontier always lands on one (sw, hw),
        // so exactly one dense program exists no matter the interleave.
        assert_eq!(cs.dense_program_builds, 1);
        assert_eq!(cs.dense_program_builds + cs.dense_program_hits, 8);
    }

    #[test]
    #[should_panic(expected = "submit after GraphService::shutdown")]
    fn submit_after_shutdown_panics() {
        let g = graph(64, 300);
        let service: GraphService<u32> =
            GraphService::start(Arc::clone(&g), config(1, ExecBackend::Host));
        service.begin_shutdown();
        let _ = service.submit(|_| 1);
    }

    #[test]
    fn try_submit_sheds_when_full_and_recovers() {
        let g = graph(64, 300);
        let service: GraphService<usize> = GraphService::start(
            Arc::clone(&g),
            ServeConfig {
                workers: 1,
                batch: 1,
                queue_cap: 2,
                backend: ExecBackend::Host,
            },
        );
        // Park the lone worker inside a gated query; once `batches`
        // ticks the queue itself is empty again.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = service.submit(move |_| {
            gate_rx.recv().unwrap();
            0usize
        });
        while service.stats().batches == 0 {
            std::thread::yield_now();
        }
        let q1 = service.try_submit(|s| s.matrix().nnz()).expect("slot 1");
        let q2 = service.try_submit(|s| s.matrix().nnz()).expect("slot 2");
        let overflow = service.try_submit(|_| 0usize);
        assert_eq!(overflow.unwrap_err(), ServeError::Overloaded);
        gate_tx.send(()).unwrap();
        assert_eq!(blocker.wait(), 0);
        assert_eq!(q1.wait(), 300);
        assert_eq!(q2.wait(), 300);
        // The queue drained; capacity is available again.
        let q3 = service.try_submit(|s| s.matrix().nnz()).expect("recovered");
        assert_eq!(q3.wait(), 300);
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 4);
    }

    #[test]
    fn blocking_submit_waits_for_space() {
        let g = graph(64, 300);
        let service: GraphService<usize> = GraphService::start(
            Arc::clone(&g),
            ServeConfig {
                workers: 1,
                batch: 1,
                queue_cap: 1,
                backend: ExecBackend::Host,
            },
        );
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = service.submit(move |_| {
            gate_rx.recv().unwrap();
            1usize
        });
        while service.stats().batches == 0 {
            std::thread::yield_now();
        }
        // Fill the single slot, then submit from another thread: it
        // must block (not panic, not shed) until the worker drains.
        let filler = service.try_submit(|_| 2usize).expect("slot");
        std::thread::scope(|s| {
            let late = s.spawn(|| service.submit(|_| 3usize).wait());
            gate_tx.send(()).unwrap();
            assert_eq!(late.join().expect("late submitter"), 3);
        });
        assert_eq!(blocker.wait(), 1);
        assert_eq!(filler.wait(), 2);
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn submit_cached_memoizes_per_epoch() {
        let g = graph(256, 2000);
        let service: GraphService<usize> =
            GraphService::start(Arc::clone(&g), config(2, ExecBackend::Host));
        let ran = Arc::new(AtomicU64::new(0));
        let run = |ran: &Arc<AtomicU64>| {
            let ran = Arc::clone(ran);
            move |s: &mut CoSparse| {
                ran.fetch_add(1, Ordering::Relaxed);
                s.matrix().nnz()
            }
        };
        assert_eq!(service.submit_cached(7, run(&ran)).wait(), 2000);
        for _ in 0..5 {
            assert_eq!(service.submit_cached(7, run(&ran)).wait(), 2000);
        }
        // A different key misses.
        assert_eq!(service.submit_cached(8, run(&ran)).wait(), 2000);
        assert_eq!(ran.load(Ordering::Relaxed), 2, "two keys, two runs");
        // Bumping the content epoch invalidates every cached answer.
        g.bump_epoch();
        assert_eq!(service.submit_cached(7, run(&ran)).wait(), 2000);
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 3, "hits never reach a worker");
        assert_eq!(stats.cache_hits, 5);
    }

    #[test]
    fn drop_joins_workers() {
        let g = graph(64, 300);
        let service: GraphService<usize> =
            GraphService::start(Arc::clone(&g), config(2, ExecBackend::Host));
        let t = service.submit(|session| session.matrix().nnz());
        assert_eq!(t.wait(), 300);
        drop(service); // must not hang or leak threads
    }
}
