//! Epoch-swapped snapshot publication: a hand-rolled arc-swap.
//!
//! The sharded serving tier decouples writes from reads with a
//! single-writer / many-reader snapshot cell. The writer builds the next
//! graph version off to the side and *publishes* it; readers *load* the
//! current version as an `Arc` and keep scoring against it for as long as
//! they like — a publish never mutates a snapshot a reader already holds.
//!
//! The workspace takes no dependencies, so this is the `arc-swap` idea
//! hand-rolled from std parts: two slots and an epoch counter. The writer
//! always overwrites the slot readers are *not* directed at, then flips
//! the epoch with a release store; readers pick their slot from an acquire
//! load of the epoch. The slot locks exist only to make the `Arc` clone
//! itself atomic — they are uncontended in steady state (the reader's slot
//! is never the one being written), held for nanoseconds, and **never**
//! held across an ingest, a graph build, or any other long operation. The
//! hot path for a reader that is already up to date is a single atomic
//! load ([`EpochCell::epoch`]); the slot lock is touched only when the
//! epoch actually moved.
//!
//! A reader that stalls between its epoch load and its slot clone can be
//! lapped: the writer may refill that very slot for epoch `e+2` before
//! storing `e+2`, so the clone would hand out a version the cell does not
//! yet publish, and the reader's next load would step back to `e+1`.
//! [`EpochCell::load`] therefore re-reads the epoch after the clone and
//! retries if it moved: a slot can only be refilled after the writer has
//! stored the epoch in between, so an unchanged epoch proves the clone is
//! the snapshot published at it. Every load is a published version, and
//! one reader's loads never go backwards (asserted under load by the tests
//! below and by the concurrency battery in `crates/serve/tests/sharded.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A single-writer, many-reader cell holding the current snapshot version.
pub struct EpochCell<T> {
    epoch: AtomicU64,
    slots: [RwLock<Arc<T>>; 2],
}

impl<T> EpochCell<T> {
    /// A cell whose epoch 0 holds `initial`.
    pub fn new(initial: Arc<T>) -> Self {
        EpochCell {
            epoch: AtomicU64::new(0),
            slots: [RwLock::new(initial.clone()), RwLock::new(initial)],
        }
    }

    /// The epoch of the most recently published snapshot. One atomic
    /// load — this is the staleness check readers run per batch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot: the one published at an epoch at least
    /// [`epoch`](Self::epoch) just returned, and never older than what an
    /// earlier `load` returned. Touches a slot lock only long enough to
    /// clone the `Arc`; retries only when a publish landed during the
    /// clone.
    pub fn load(&self) -> Arc<T> {
        loop {
            let e = self.epoch.load(Ordering::Acquire);
            #[cfg(test)]
            tests::between_epoch_and_clone();
            let snap = self.slots[(e & 1) as usize]
                .read()
                .unwrap_or_else(|p| p.into_inner())
                .clone();
            if self.epoch.load(Ordering::Acquire) == e {
                return snap;
            }
        }
    }

    /// Publish `next` as the new current snapshot and return its epoch.
    ///
    /// Callers must serialize publishes (the serving tier's writer state
    /// mutex does); concurrent readers are fine. The write lock below only
    /// ever contends with a reader that loaded an epoch two generations
    /// old and has not yet finished its `Arc` clone — it waits those
    /// nanoseconds out, not the other way around.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        let e = self.epoch.load(Ordering::Relaxed) + 1;
        *self.slots[(e & 1) as usize]
            .write()
            .unwrap_or_else(|p| p.into_inner()) = next;
        self.epoch.store(e, Ordering::Release);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::AtomicBool;

    thread_local! {
        /// Run once, on this thread, between a `load`'s epoch read and its
        /// slot clone: stands in for a reader descheduled there.
        static PAUSE: RefCell<Option<Box<dyn FnOnce()>>> = const { RefCell::new(None) };
    }

    pub(super) fn between_epoch_and_clone() {
        if let Some(hook) = PAUSE.with(|p| p.borrow_mut().take()) {
            hook();
        }
    }

    /// The lapped reader, step by step: it reads epoch 1, then (paused)
    /// the writer publishes 2 and fills slot 1 for 3 without yet storing
    /// the epoch. The clone sees the unpublished 3; the load must not
    /// return it, or the next load would step back to 2.
    #[test]
    fn lapped_reader_never_runs_ahead_of_publish() {
        let cell = Arc::new(EpochCell::new(Arc::new(0u64)));
        cell.publish(Arc::new(1));
        let writer = Arc::clone(&cell);
        PAUSE.with(|p| {
            *p.borrow_mut() = Some(Box::new(move || {
                writer.publish(Arc::new(2));
                // Publish 3 stopped between its slot write and its store.
                *writer.slots[1].write().unwrap() = Arc::new(3);
            }))
        });
        let first = *cell.load();
        let second = *cell.load();
        assert_eq!(cell.epoch(), 2);
        assert_eq!((first, second), (2, 2), "a load ran ahead of publish");
        cell.epoch.store(3, Ordering::Release); // publish 3 completes
        assert_eq!(*cell.load(), 3);
    }

    #[test]
    fn load_returns_latest_publish() {
        let cell = EpochCell::new(Arc::new(0u64));
        assert_eq!(cell.epoch(), 0);
        assert_eq!(*cell.load(), 0);
        for v in 1..=10u64 {
            let e = cell.publish(Arc::new(v));
            assert_eq!(e, v);
            assert_eq!(cell.epoch(), v);
            assert_eq!(*cell.load(), v);
        }
    }

    #[test]
    fn old_snapshots_survive_later_publishes() {
        let cell = EpochCell::new(Arc::new(7u64));
        let held = cell.load();
        for v in 1..=5u64 {
            cell.publish(Arc::new(v * 100));
        }
        assert_eq!(*held, 7, "a held Arc is immutable across publishes");
        assert_eq!(*cell.load(), 500);
    }

    /// Readers hammering `load` while a writer publishes must only ever
    /// see internally consistent snapshots (both halves equal) and a
    /// non-decreasing version per reader thread.
    #[test]
    fn concurrent_loads_never_observe_torn_or_regressing_state() {
        let cell = Arc::new(EpochCell::new(Arc::new((0u64, 0u64))));
        let stop = Arc::new(AtomicBool::new(false));
        // Readers and writer leave one barrier together, and every reader
        // loads at least once before it looks at `stop` — on a host with
        // fewer cores than threads the writer can otherwise finish before
        // any reader is scheduled.
        let start = Arc::new(std::sync::Barrier::new(5));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut loads = 0u64;
                    start.wait();
                    loop {
                        let snap = cell.load();
                        assert_eq!(snap.0, snap.1, "torn snapshot observed");
                        assert!(snap.0 >= last, "snapshot version regressed");
                        last = snap.0;
                        loads += 1;
                        if stop.load(Ordering::Relaxed) {
                            break loads;
                        }
                    }
                })
            })
            .collect();
        start.wait();
        for v in 1..=2000u64 {
            cell.publish(Arc::new((v, v)));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(cell.load().0, 2000);
    }
}
