//! The batch executor: drains a stage-task graph on up to N workers.
//!
//! The unit of scheduling is a *node* of a [`StageGraph`]: an opaque index
//! whose work is supplied by the caller as a closure. Edges express
//! artifact dependencies — a node becomes ready when its `pending` count
//! reaches zero — so the engine can run every distinct artifact build as
//! its own task and start a check the moment its inputs exist, instead of
//! fanning out whole checks that serialize on shared compilations.
//!
//! All workers share one ready stack behind one `Mutex`, and idle workers
//! wait on one `Condvar`. A worker pops the most recently freed node, so
//! a check usually runs right after the artifact that freed it, while its
//! inputs are warm. Completing a node pushes its newly ready dependents
//! and wakes one waiting sibling per dependent beyond the one the
//! completing worker will pop itself. Pushes and wakes happen under the
//! stack's lock, so no wakeup is lost and no worker polls. The drain ends
//! when the stack is empty and no node is running.
//!
//! With one worker the loop runs on the calling thread, in a deterministic
//! order; with more, it runs on `std::thread::scope` threads. The executor
//! makes no ordering promises beyond the dependency edges; callers that
//! need deterministic *output* must index results by node (as
//! [`crate::Engine::check_many`] does) rather than rely on completion
//! order.

use std::sync::{Condvar, Mutex, PoisonError};

/// A dependency graph over nodes `0..n`. Node `d` in `dependents[n]` means
/// `d` cannot start until `n` completes; `pending[d]` counts how many such
/// prerequisites `d` still has (nodes with `pending == 0` are roots).
pub(crate) struct StageGraph {
    dependents: Vec<Vec<usize>>,
    pending: Vec<usize>,
}

impl StageGraph {
    /// A graph of `n` independent nodes (no edges).
    pub(crate) fn new(n: usize) -> Self {
        StageGraph {
            dependents: vec![Vec::new(); n],
            pending: vec![0; n],
        }
    }

    /// Declares that `dependent` must wait for `prerequisite`.
    pub(crate) fn add_edge(&mut self, prerequisite: usize, dependent: usize) {
        self.dependents[prerequisite].push(dependent);
        self.pending[dependent] += 1;
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }
}

/// The executor's shared state, all behind one lock.
struct Ready {
    /// Nodes whose prerequisites have all completed, most recent last.
    stack: Vec<usize>,
    /// Prerequisites each node still waits for.
    pending: Vec<usize>,
    /// Nodes popped but not yet completed.
    running: usize,
}

/// Drains `graph` by calling `run(node, worker)` exactly once per node,
/// never before the node's prerequisites completed, on up to `workers`
/// workers (clamped to the node count; one worker runs on the caller).
///
/// `run` must not panic — a panicking node unwinds its worker and aborts
/// the drain. The engine wraps every node body in `catch_unwind` before it
/// gets here.
pub(crate) fn execute<F>(graph: &StageGraph, workers: usize, run: F)
where
    F: Fn(usize, usize) + Sync,
{
    let workers = workers.max(1).min(graph.len());
    let ready = Mutex::new(Ready {
        stack: (0..graph.len())
            .filter(|&i| graph.pending[i] == 0)
            .collect(),
        pending: graph.pending.clone(),
        running: 0,
    });
    let wake = Condvar::new();
    let lock = || ready.lock().unwrap_or_else(PoisonError::into_inner);
    let work = |worker: usize| {
        let mut state = lock();
        loop {
            let Some(node) = state.stack.pop() else {
                if state.running == 0 {
                    // Nothing ready and nothing running: the drain is done.
                    wake.notify_all();
                    return;
                }
                state = wake.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            state.running += 1;
            drop(state);
            run(node, worker);
            state = lock();
            state.running -= 1;
            let before = state.stack.len();
            for &d in &graph.dependents[node] {
                state.pending[d] -= 1;
                if state.pending[d] == 0 {
                    state.stack.push(d);
                }
            }
            // This worker pops one freed node itself; wake a sibling for
            // each of the others.
            for _ in 1..state.stack.len() - before {
                wake.notify_one();
            }
        }
    };
    if workers <= 1 {
        work(0);
    } else {
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let work = &work;
                scope.spawn(move || work(worker));
            }
        });
    }
    debug_assert!(
        lock().pending.iter().all(|&p| p == 0),
        "stage graph has a dependency cycle"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// Builds the bipartite shape the engine uses: `n_stages` roots, each
    /// blocking some of the `n_checks` sinks.
    fn bipartite(n_stages: usize, edges: &[(usize, usize)], n_checks: usize) -> StageGraph {
        let mut g = StageGraph::new(n_stages + n_checks);
        for &(s, c) in edges {
            g.add_edge(s, n_stages + c);
        }
        g
    }

    #[test]
    fn one_worker_runs_on_the_caller_most_recently_freed_first() {
        let g = bipartite(2, &[(0, 0), (1, 0), (1, 1)], 2);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        execute(&g, 1, |node, worker| {
            assert_eq!(worker, 0);
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(node);
        });
        // The roots are stacked in index order, so stage 1 runs first. It
        // frees check 1 (node 3), which runs next; check 0 (node 2) also
        // waits for stage 0, the last root, and runs after it.
        assert_eq!(*order.lock().unwrap(), vec![1, 3, 0, 2]);
    }

    #[test]
    fn every_node_runs_exactly_once_across_workers() {
        let n_stages = 10;
        let n_checks = 40;
        let edges: Vec<(usize, usize)> = (0..n_checks)
            .flat_map(|c| [(c % n_stages, c), ((c + 3) % n_stages, c)])
            .collect();
        let g = bipartite(n_stages, &edges, n_checks);
        let ran: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
        execute(&g, 4, |node, _| {
            ran[node].fetch_add(1, Ordering::SeqCst);
        });
        for (i, r) in ran.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::SeqCst),
                1,
                "node {i} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn dependencies_complete_before_dependents_start() {
        let g = bipartite(3, &[(0, 0), (1, 0), (2, 0)], 1);
        let stages_done: Vec<AtomicBool> = (0..3).map(|_| AtomicBool::new(false)).collect();
        execute(&g, 3, |node, _| {
            if node < 3 {
                stages_done[node].store(true, Ordering::SeqCst);
            } else {
                for (i, d) in stages_done.iter().enumerate() {
                    assert!(
                        d.load(Ordering::SeqCst),
                        "check ran before its stage {i} completed"
                    );
                }
            }
        });
    }

    #[test]
    fn waiting_workers_wake_for_freed_nodes_and_all_return() {
        // A chain keeps all but one worker waiting; its last link frees a
        // fan that the waiting workers must be woken to share. The drain
        // returns only once every worker has seen the end.
        let (chain, fan) = (16, 32);
        let mut g = StageGraph::new(chain + fan);
        for i in 1..chain {
            g.add_edge(i - 1, i);
        }
        for f in 0..fan {
            g.add_edge(chain - 1, chain + f);
        }
        let ran: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
        execute(&g, 4, |node, _| {
            if (1..chain).contains(&node) {
                assert_eq!(ran[node - 1].load(Ordering::SeqCst), 1, "chain order");
            }
            if node >= chain {
                assert_eq!(ran[chain - 1].load(Ordering::SeqCst), 1, "fan order");
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            ran[node].fetch_add(1, Ordering::SeqCst);
        });
        assert!(ran.iter().all(|r| r.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = StageGraph::new(0);
        execute(&g, 4, |_, _| panic!("no nodes to run"));
    }

    #[test]
    fn workers_clamp_to_node_count() {
        // 1 node + 8 workers must run on the caller (worker index 0).
        let g = StageGraph::new(1);
        execute(&g, 8, |node, worker| {
            assert_eq!((node, worker), (0, 0));
        });
    }
}
