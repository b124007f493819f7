//! A std-only scoped fan-out over one shared cursor.
//!
//! The paper's validation units are independent, so scheduling only has
//! to hand items out and put the results back in order. The validation
//! engine, the fuzzing campaign's per-seed fan-out and `crellvm check`'s
//! per-file fan-out all run on this one scheduler, with one determinism
//! contract:
//!
//! * **The caller is worker 0.** Only workers `1..workers` get threads,
//!   so a one-worker run is a plain loop on the calling thread. On small
//!   hosts this matters: on a 2-vCPU VM with about one effective core,
//!   the same allocation-heavy work ran 1.25–1.47× slower on a freshly
//!   spawned thread than on the caller.
//! * **Largest first.** Items are ranked by a caller weight (largest
//!   first, original index as tie-break) and every worker takes the next
//!   rank from one atomic cursor, so the heavy items start early and a
//!   worker is never idle while items remain. At one worker the items run
//!   in exactly the rank order.
//! * **Private telemetry.** Each worker records into its own registry,
//!   which carries the caller's trace sink, and owns its own scratch
//!   state; workers share only the ranked order, its cursor and the
//!   caller's closure.
//! * **Deterministic reassembly.** Results are scattered back by item
//!   index, and the worker registries are merged into the caller's in
//!   worker order, so any caller whose per-item work is deterministic and
//!   whose metrics are sums gets schedule-independent output at every
//!   thread count.

use crellvm_telemetry::{Registry, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Run `work` on `n` items over `workers` workers and return the results
/// in item order.
///
/// * `weight(i)` — scheduling weight of item `i` (e.g. statement count);
///   only the *relative order* matters.
/// * `work(tel, scratch, i)` — process item `i`, recording into the
///   worker's telemetry `tel` and reusing its `scratch` state (built with
///   `Default`).
///
/// The worker count is clamped to `1..=n`. The calling thread is worker
/// 0; only workers `1..workers` get threads of their own, so a one-worker
/// run spawns nothing and runs every item inline on the caller. Every
/// worker's registry is merged into `tel`'s registry, in worker order,
/// before this returns.
///
/// # Panics
///
/// Propagates panics from `work`.
pub fn fan_out<R, S>(
    n: usize,
    workers: usize,
    tel: &Telemetry,
    weight: impl Fn(usize) -> usize,
    work: impl Fn(&Telemetry, &mut S, usize) -> R + Sync,
) -> Vec<R>
where
    R: Send,
    S: Default,
{
    let workers = workers.clamp(1, n.max(1));
    let mut ranked: Vec<usize> = (0..n).collect();
    ranked.sort_by_key(|&i| (std::cmp::Reverse(weight(i)), i));
    // Relaxed is enough: the cursor publishes no data. `ranked` is built
    // before any worker starts, and results come back through the join.
    let cursor = AtomicUsize::new(0);

    let run_worker = || {
        let registry = Arc::new(Registry::new());
        let mut wtel = Telemetry::with_registry(Arc::clone(&registry));
        if let Some(trace) = tel.trace_handle() {
            wtel = wtel.with_trace(trace);
        }
        let mut scratch = S::default();
        let mut produced = Vec::new();
        while let Some(&i) = ranked.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            produced.push((i, work(&wtel, &mut scratch, i)));
        }
        (produced, registry.snapshot())
    };
    let outputs = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(run_worker)).collect();
        let mut outputs = vec![run_worker()];
        outputs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked")),
        );
        outputs
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (produced, snapshot) in outputs {
        tel.registry().merge_snapshot(&snapshot);
        for (i, r) in produced {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item runs exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn every_item_processed_exactly_once_in_order() {
        for workers in [1, 2, 8] {
            let calls: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
            let results = fan_out(
                50,
                workers,
                &Telemetry::disabled(),
                |i| i % 7,
                |_, _: &mut (), i| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    i * 2
                },
            );
            assert_eq!(results, (0..50).map(|i| i * 2).collect::<Vec<_>>());
            for (i, c) in calls.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::Relaxed),
                    1,
                    "item {i} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn worker_zero_runs_on_the_calling_thread() {
        // At one worker nothing is spawned: every item runs on the caller.
        let caller = std::thread::current().id();
        let threads = fan_out(
            24,
            1,
            &Telemetry::disabled(),
            |_| 1,
            |_, _: &mut (), _| std::thread::current().id(),
        );
        assert!(threads.iter().all(|&id| id == caller));
    }

    #[test]
    fn empty_input_yields_one_idle_worker() {
        // The worker count clamps to one, which runs and merges nothing.
        let tel = Telemetry::disabled();
        let results: Vec<usize> = fan_out(0, 8, &tel, |_| 0, |_, _: &mut (), i| i);
        assert!(results.is_empty());
        assert!(tel.registry().snapshot().counters.is_empty());
    }

    #[test]
    fn worker_state_is_private_and_summarized_in_order() {
        for workers in [1, 2, 8] {
            let tel = Telemetry::disabled();
            tel.count("items", 5);
            fan_out(
                100,
                workers,
                &tel,
                |_| 1,
                |wtel, seen: &mut u64, _| {
                    // Each worker records into its own registry and keeps
                    // its own scratch across its items.
                    assert!(!Arc::ptr_eq(wtel.registry(), tel.registry()));
                    *seen += 1;
                    wtel.count("items", 1);
                    wtel.observe("seen", *seen);
                },
            );
            // Merged, the workers' counts sum to n on top of what the
            // caller held.
            let snap = tel.registry().snapshot();
            assert_eq!(snap.counters["items"], 105, "{workers} workers");
            assert_eq!(snap.histograms["seen"].count, 100, "{workers} workers");
            if workers == 1 {
                assert_eq!(snap.histograms["seen"].sum, 5050);
            }
        }
    }

    #[test]
    fn heavier_items_are_dealt_first() {
        // With one worker the cursor walks exactly the weight rank.
        let seen = Mutex::new(Vec::new());
        fan_out(
            4,
            1,
            &Telemetry::disabled(),
            |i| [5, 20, 10, 1][i],
            |_, _: &mut (), i| seen.lock().unwrap().push(i),
        );
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 0, 3]);
    }
}
