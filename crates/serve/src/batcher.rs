//! Dynamic batcher: flush on size or deadline.
//!
//! The batcher is a **clock-agnostic synchronous state machine** — it
//! never reads a clock itself; callers pass the current tick into every
//! operation. That is what lets the same code run under the threaded
//! wall-clock server, the cycle-accurate virtual-time simulator
//! ([`crate::simlab`]) and the deterministic unit tests.
//!
//! Flush rules (the standard dynamic-batching contract):
//!
//! - **Size**: the moment the pending set reaches
//!   [`BatchPolicy::max_batch`], a full batch is emitted.
//! - **Deadline**: otherwise, a partial batch is emitted once the
//!   *oldest* pending request has waited [`BatchPolicy::max_wait`]
//!   ticks. An empty pending set never emits.

use std::collections::TryReserveError;

use crate::request::Request;

/// Batch-formation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests per batch (size flush threshold). Must be ≥ 1.
    pub max_batch: usize,
    /// Maximum ticks the oldest pending request may wait before a
    /// partial batch is flushed.
    pub max_wait: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_wait: 1_000,
        }
    }
}

/// A formed batch, ready for execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Requests in admission order.
    pub requests: Vec<Request>,
    /// Tick at which the batch was formed.
    pub formed_at: u64,
}

impl Batch {
    /// Number of requests in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the batch carries no requests (never produced by the
    /// batcher; useful for callers building synthetic batches).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// The dynamic batcher state machine.
#[derive(Debug, Clone)]
pub struct Batcher {
    policy: BatchPolicy,
    pending: Vec<Request>,
    /// Tick the oldest pending request entered the batcher.
    oldest_since: Option<u64>,
}

impl Batcher {
    /// Creates a batcher with the given policy, with room for one full
    /// batch reserved up front. Every flush hands its vector to the
    /// batch and reserves a full batch's room for the next one.
    ///
    /// # Errors
    ///
    /// The reservation error when `policy.max_batch` requests cannot
    /// be allocated.
    ///
    /// # Panics
    ///
    /// Panics if `policy.max_batch == 0`.
    pub fn new(policy: BatchPolicy) -> Result<Self, TryReserveError> {
        assert!(policy.max_batch >= 1, "max_batch must be >= 1");
        let mut pending = Vec::new();
        pending.try_reserve_exact(policy.max_batch)?;
        Ok(Batcher {
            policy,
            pending,
            oldest_since: None,
        })
    }

    /// Requests currently waiting for a flush.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Adds a request at tick `now`; returns a full batch if the size
    /// threshold is reached.
    pub fn offer(&mut self, request: Request, now: u64) -> Option<Batch> {
        if self.pending.is_empty() {
            self.oldest_since = Some(now);
        }
        self.pending.push(request);
        if self.pending.len() >= self.policy.max_batch {
            return self.take(now);
        }
        None
    }

    /// Deadline check at tick `now`: emits a partial batch if the oldest
    /// pending request has waited `max_wait` or longer.
    ///
    /// A deadline reached with an **empty** pending set is a no-op:
    /// `poll` returns `None`, never an empty batch. (`oldest_since` is
    /// cleared on every flush, so an empty accumulator has no deadline
    /// to trigger in the first place.)
    pub fn poll(&mut self, now: u64) -> Option<Batch> {
        let since = self.oldest_since?;
        if now.saturating_sub(since) >= self.policy.max_wait {
            self.take(now)
        } else {
            None
        }
    }

    /// Unconditionally drains the pending set (shutdown path). Returns
    /// `None` when nothing is pending — so after the queue closes, a
    /// final `flush` drains the accumulator **exactly once**: the first
    /// call takes everything, every subsequent call is a no-op
    /// returning `None`.
    pub fn flush(&mut self, now: u64) -> Option<Batch> {
        if self.pending.is_empty() {
            None
        } else {
            self.take(now)
        }
    }

    /// The tick at which [`Batcher::poll`] would next flush, or `None`
    /// when nothing is pending. Lets schedulers sleep exactly until the
    /// deadline instead of busy-polling.
    #[must_use]
    pub fn next_deadline(&self) -> Option<u64> {
        self.oldest_since
            .map(|since| since.saturating_add(self.policy.max_wait))
    }

    fn take(&mut self, now: u64) -> Option<Batch> {
        if self.pending.is_empty() {
            return None;
        }
        self.oldest_since = None;
        let next = Vec::with_capacity(self.policy.max_batch);
        Some(Batch {
            requests: std::mem::replace(&mut self.pending, next),
            formed_at: now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WorkloadKind;

    fn req(id: u64, arrival: u64) -> Request {
        Request::new(id, WorkloadKind::Nvsa, id, arrival)
    }

    #[test]
    fn size_flush_at_threshold() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 3,
            max_wait: 100,
        })
        .unwrap();
        assert!(b.offer(req(0, 0), 0).is_none());
        assert!(b.offer(req(1, 1), 1).is_none());
        let batch = b.offer(req(2, 2), 2).expect("size flush");
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.formed_at, 2);
        assert_eq!(b.pending(), 0);
        assert!(b.next_deadline().is_none());
    }

    #[test]
    fn deadline_flush_is_partial() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_wait: 10,
        })
        .unwrap();
        assert!(b.offer(req(0, 5), 5).is_none());
        assert_eq!(b.next_deadline(), Some(15));
        assert!(b.poll(14).is_none());
        let batch = b.poll(15).expect("deadline flush");
        assert_eq!(batch.len(), 1);
        assert!(b.poll(100).is_none(), "empty set never flushes");
    }

    #[test]
    fn every_flush_leaves_room_for_a_full_batch() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 4,
            max_wait: 10,
        })
        .unwrap();
        for i in 0..4 {
            b.offer(req(i, 0), 0);
        }
        assert!(b.pending.capacity() >= 4, "after a size flush");
        b.offer(req(4, 1), 1);
        assert_eq!(b.poll(11).map(|batch| batch.len()), Some(1));
        assert!(b.pending.capacity() >= 4, "after a deadline flush");
    }

    #[test]
    fn deadline_tracks_oldest_request() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_wait: 10,
        })
        .unwrap();
        b.offer(req(0, 0), 0);
        b.offer(req(1, 9), 9);
        // Deadline comes from the oldest (t=0), not the newest.
        assert_eq!(b.next_deadline(), Some(10));
        assert_eq!(b.poll(10).map(|batch| batch.len()), Some(2));
    }
}
