//! Per-rank comm progress engine: the handle-based variable AlltoAll.
//!
//! The blocking [`all_to_all_v`](crate::RankCtx::all_to_all_v)
//! rendezvouses at two shared barriers per call, and every nanosecond a
//! fast rank spends there is idle time. The engine replaces the
//! rendezvous with *completion*: a rank posts its payloads
//! ([`all_to_all_v_async`](crate::RankCtx::all_to_all_v_async)) and
//! blocks only in the matching wait — on a condvar keyed to data
//! arrival, not a barrier — until one payload from every peer is there.
//! The cd-0 clone syncs exchange through it.
//!
//! Per-link FIFO queues make matching deterministic: the n-th post on a
//! link pairs with the n-th wait on it, which is well defined because
//! every rank runs the same SPMD program. Payloads are handed back in
//! ascending source order, so a fault-free exchange returns exactly
//! what the blocking AlltoAllv returns. Posts cross no barrier.
//!
//! Fault injection: the engine exists for the fault-free case. An
//! AlltoAllv posted under an active [`FaultPlan`](crate::FaultPlan)
//! never reaches it: the handle captures its payloads and completes
//! through the blocking retry/abort ladder at wait time — same
//! barriers, same fault decisions, same typed errors.

use std::collections::VecDeque;
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// The shared progress engine of one cluster run. Owned by the
/// cluster's `Shared` state; ranks reach it through their `RankCtx`.
pub(crate) struct ProgressEngine {
    size: usize,
    /// Per-link FIFOs, `a2a[src][dst]`: the n-th payload pushed on a
    /// link is consumed by the n-th wait on it.
    a2a: Mutex<Vec<Vec<VecDeque<Vec<f32>>>>>,
    arrived: Condvar,
    /// Waits entered on `arrived`, counted under the links lock just
    /// before the wait releases it; tests read it to post only once a
    /// waiter is really blocked.
    #[cfg(test)]
    waits: AtomicUsize,
}

impl ProgressEngine {
    pub(crate) fn new(size: usize) -> Self {
        ProgressEngine {
            size,
            a2a: Mutex::new(
                (0..size).map(|_| (0..size).map(|_| VecDeque::new()).collect()).collect(),
            ),
            arrived: Condvar::new(),
            #[cfg(test)]
            waits: AtomicUsize::new(0),
        }
    }

    /// Queues `outgoing[dst]` on link `src → dst` for every peer `dst`;
    /// the own slot `outgoing[src]` is ignored.
    pub(crate) fn post_exchange(&self, src: usize, outgoing: Vec<Vec<f32>>) {
        let mut a2a = self.links();
        for (dst, payload) in outgoing.into_iter().enumerate() {
            if dst != src {
                a2a[src][dst].push_back(payload);
            }
        }
        drop(a2a);
        self.arrived.notify_all();
    }

    /// Blocks until one payload from each peer is available, then pops
    /// them in ascending source order. `own` re-enters at `incoming[rank]`.
    pub(crate) fn wait_exchange(&self, rank: usize, own: Vec<f32>) -> Vec<Vec<f32>> {
        let mut incoming: Vec<Vec<f32>> = (0..self.size).map(|_| Vec::new()).collect();
        incoming[rank] = own;
        let mut a2a = self.links();
        for (src, slot) in incoming.iter_mut().enumerate() {
            if src == rank {
                continue;
            }
            while a2a[src][rank].is_empty() {
                #[cfg(test)]
                self.waits.fetch_add(1, Ordering::SeqCst);
                a2a = self.arrived.wait(a2a).expect("engine lock poisoned");
            }
            *slot = a2a[src][rank].pop_front().expect("non-empty checked above");
        }
        incoming
    }

    fn links(&self) -> MutexGuard<'_, Vec<Vec<VecDeque<Vec<f32>>>>> {
        self.a2a.lock().expect("engine lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exchange_queues_are_fifo_per_link() {
        let eng = ProgressEngine::new(2);
        eng.post_exchange(0, vec![Vec::new(), vec![1.0]]);
        eng.post_exchange(0, vec![Vec::new(), vec![2.0]]);
        eng.post_exchange(1, vec![vec![9.0], Vec::new()]);
        eng.post_exchange(1, vec![vec![8.0], Vec::new()]);
        let first = eng.wait_exchange(1, vec![0.5]);
        assert_eq!(first, vec![vec![1.0], vec![0.5]]);
        let second = eng.wait_exchange(1, vec![0.6]);
        assert_eq!(second, vec![vec![2.0], vec![0.6]]);
        let at0 = eng.wait_exchange(0, vec![0.0]);
        assert_eq!(at0, vec![vec![0.0], vec![9.0]]);
    }

    #[test]
    fn wait_blocks_until_peer_posts() {
        let eng = Arc::new(ProgressEngine::new(2));
        std::thread::scope(|s| {
            let e = Arc::clone(&eng);
            let waiter = s.spawn(move || e.wait_exchange(1, vec![0.5]));
            // The count rises under the links lock, which the condvar
            // wait releases, so once it reads 1 the post below can only
            // land after the waiter has blocked.
            while eng.waits.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            eng.post_exchange(0, vec![Vec::new(), vec![3.0]]);
            assert_eq!(waiter.join().unwrap(), vec![vec![3.0], vec![0.5]]);
        });
    }
}
