//! Deterministic fan-out of independent analysis units over scoped worker
//! threads.
//!
//! The analyzers split their work into units numbered in enumeration order
//! (an address, a cell, a row of candidate pairs). Workers claim contiguous
//! blocks of units from a shared counter, so which worker runs a unit
//! varies from run to run; callers therefore merge worker states with
//! operations that depend only on the units' results: sums, keyed inserts,
//! or a minimum over unit numbers.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Blocks each worker claims on average: small enough to balance uneven
/// units, large enough that neighbouring units (which share memo keys)
/// mostly stay on one worker.
const BLOCKS_PER_WORKER: usize = 16;

/// Run `work(state, unit)` for every unit in `0..units` on up to `threads`
/// workers, each with its own state from `init`, and return the states.
/// A worker sees its units in increasing order. With one worker (or at
/// most one unit) everything runs on the calling thread, in order, with
/// no thread spawned.
pub(crate) fn fan_out<S: Send>(
    threads: usize,
    units: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) + Sync,
) -> Vec<S> {
    let workers = threads.min(units).max(1);
    if workers == 1 {
        let mut state = init();
        for unit in 0..units {
            work(&mut state, unit);
        }
        return vec![state];
    }
    let block = (units / (workers * BLOCKS_PER_WORKER)).max(1);
    // The counter only hands out unit numbers; results travel through the
    // joins, so relaxed ordering suffices.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        loop {
            let start = next.fetch_add(block, Ordering::Relaxed);
            if start >= units {
                return state;
            }
            for unit in start..(start + block).min(units) {
                work(&mut state, unit);
            }
        }
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let mut states = vec![worker()];
        states.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("an analysis worker panicked")),
        );
        states
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_unit_runs_once_in_increasing_order_per_worker() {
        for threads in [0, 1, 2, 8] {
            for units in [0, 1, 2, 7, 1000] {
                let states = fan_out(threads, units, Vec::new, |seen: &mut Vec<usize>, u| {
                    seen.push(u);
                });
                assert!(states.len() <= threads.max(1));
                assert!(states.iter().all(|s| s.is_sorted()));
                let mut all: Vec<usize> = states.into_iter().flatten().collect();
                all.sort_unstable();
                assert_eq!(all, (0..units).collect::<Vec<_>>(), "{threads}/{units}");
            }
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let states = fan_out(
            1,
            5,
            || 0,
            |n: &mut usize, _| {
                assert_eq!(std::thread::current().id(), caller);
                *n += 1;
            },
        );
        assert_eq!(states, vec![5]);
    }
}
