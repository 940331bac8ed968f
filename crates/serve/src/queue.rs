//! Bounded multi-producer admission queue.
//!
//! Admission control is *lossy by design*: when the queue is at
//! capacity, [`BoundedQueue::try_push`] fails immediately with
//! [`AdmissionError::QueueFull`] instead of blocking the producer —
//! the explicit backpressure/shed contract the serving runtime exposes
//! to clients. Consumers block on [`BoundedQueue::pop_wait`] with a
//! deadline so the batcher can wake exactly at its flush tick.

use std::collections::{TryReserveError, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::request::AdmissionError;

/// What a consumer got back from a timed pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped<T> {
    /// An item was dequeued.
    Item(T),
    /// The wait deadline elapsed with the queue still empty.
    TimedOut,
    /// The queue is closed and fully drained — consumers should exit.
    Closed,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO queue shared by many producers and consumers.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items, with storage
    /// for all of them reserved up front.
    ///
    /// # Errors
    ///
    /// The reservation error when `capacity` items cannot be allocated.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Result<Self, TryReserveError> {
        assert!(capacity >= 1, "queue capacity must be >= 1");
        let mut items = VecDeque::new();
        items.try_reserve_exact(capacity)?;
        Ok(BoundedQueue {
            inner: Mutex::new(Inner {
                items,
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        })
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (racy snapshot; exact under external locking only).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// True when no items are waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission: enqueues or sheds.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::ShuttingDown`] once [`BoundedQueue::close`] has
    /// been called, [`AdmissionError::QueueFull`] when at capacity.
    pub fn try_push(&self, item: T) -> Result<usize, AdmissionError> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(AdmissionError::ShuttingDown);
        }
        if inner.items.len() >= self.capacity {
            return Err(AdmissionError::QueueFull {
                capacity: self.capacity,
            });
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.available.notify_one();
        Ok(depth)
    }

    /// Blocks until an item arrives, `timeout` elapses, or the queue is
    /// closed *and* drained. Closing does not discard queued items —
    /// they keep being handed out until the queue is empty (graceful
    /// drain).
    pub fn pop_wait(&self, timeout: Duration) -> Popped<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Popped::Item(item);
            }
            if inner.closed {
                return Popped::Closed;
            }
            let (guard, result) = self
                .available
                .wait_timeout(inner, timeout)
                .expect("queue poisoned");
            inner = guard;
            if result.timed_out() {
                return if let Some(item) = inner.items.pop_front() {
                    Popped::Item(item)
                } else if inner.closed {
                    Popped::Closed
                } else {
                    Popped::TimedOut
                };
            }
        }
    }

    /// Rejects future producers and wakes all blocked consumers.
    /// Already-queued items remain poppable (drain semantics).
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_at_capacity() {
        let q = BoundedQueue::new(2).unwrap();
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(
            q.try_push(3),
            Err(AdmissionError::QueueFull { capacity: 2 })
        );
        assert_eq!(q.pop_wait(Duration::ZERO), Popped::Item(1));
        assert_eq!(q.try_push(3), Ok(2));
    }

    #[test]
    fn close_drains_then_signals_closed() {
        let q = BoundedQueue::new(4).unwrap();
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(AdmissionError::ShuttingDown));
        assert_eq!(q.pop_wait(Duration::from_millis(1)), Popped::Item(7));
        assert_eq!(q.pop_wait(Duration::from_millis(1)), Popped::<i32>::Closed);
    }

    #[test]
    fn pop_wait_times_out_when_empty() {
        let q: BoundedQueue<i32> = BoundedQueue::new(1).unwrap();
        assert_eq!(q.pop_wait(Duration::from_millis(1)), Popped::TimedOut);
    }

    #[test]
    fn producers_on_many_threads_all_land() {
        let q = std::sync::Arc::new(BoundedQueue::new(64).unwrap());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let q = std::sync::Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..8 {
                        q.try_push(t * 8 + i).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = Vec::new();
        while let Popped::Item(v) = q.pop_wait(Duration::ZERO) {
            seen.push(v);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }
}
