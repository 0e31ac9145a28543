//! Adaptive batching policy: flush on size **or** age.
//!
//! Workers drain the ingress queue in batches so the per-item
//! synchronization cost (queue lock, response push, metrics merge) is paid
//! once per batch instead of once per request — the same amortization the
//! paper's GEMM formulation applies to partial-distance evaluation. Under
//! load the queue is never empty and batches fill to [`BatchPolicy::max_batch`]
//! instantly; when traffic is sparse, a batch closes after
//! [`BatchPolicy::max_wait`] so batching never adds more than that to
//! latency. `max_wait = 0` degenerates to take-what's-there, which keeps a
//! lock-step single-client loop latency-optimal.
//!
//! `max_batch` counts **decisions**, not queue items: a vector is one
//! decision, a frame is one per subcarrier ([`crate::queue::Weighted`]).
//! A frame at least `max_batch` subcarriers wide is therefore a full batch
//! by itself — it goes to the first free worker at once, and the next
//! frame goes to the next worker, instead of one worker collecting several
//! frames while the others idle.

use std::time::Duration;

/// When a worker stops accumulating a batch.
#[derive(Copy, Clone, Debug)]
pub struct BatchPolicy {
    /// Flush once this many decisions are in hand (vectors count 1,
    /// frames count their subcarriers; the item that crosses the limit is
    /// still taken).
    pub max_batch: usize,
    /// Flush once the oldest request in the batch has waited this long
    /// after being picked up.
    pub max_wait: Duration,
}

impl BatchPolicy {
    /// Batch-of-one: every request is its own batch (the baseline the
    /// serve benchmark compares against).
    pub fn unbatched() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::ZERO,
        }
    }

    /// Validate the policy.
    pub(crate) fn check(&self) {
        assert!(self.max_batch >= 1, "max_batch must be positive");
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 16,
            max_wait: Duration::from_micros(200),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::BoundedQueue;

    #[test]
    fn default_policy_is_sane() {
        let p = BatchPolicy::default();
        p.check();
        assert!(p.max_batch > 1);
        assert!(p.max_wait < Duration::from_millis(1));
    }

    #[test]
    fn policy_drives_queue_batches() {
        let q = BoundedQueue::new(32);
        for i in 0..9 {
            q.try_push(i).unwrap();
        }
        let p = BatchPolicy {
            max_batch: 4,
            max_wait: Duration::ZERO,
        };
        let mut batch = Vec::new();
        let mut sizes = Vec::new();
        q.close();
        while q.pop_batch(&mut batch, p.max_batch, p.max_wait) {
            sizes.push(batch.len());
            batch.clear();
        }
        assert_eq!(sizes, vec![4, 4, 1], "size flush, then the remainder");
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn zero_batch_rejected() {
        BatchPolicy {
            max_batch: 0,
            max_wait: Duration::ZERO,
        }
        .check();
    }
}
