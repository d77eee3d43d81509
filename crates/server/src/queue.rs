//! Bounded MPMC request queue with explicit backpressure.
//!
//! The serving layer never buffers without bound: beyond the configured
//! depth, `BoundedQueue::try_push` fails with `PushError::Busy` and
//! the connection layer answers BUSY instead of queueing. Workers block
//! in `BoundedQueue::pop` on a condvar; `BoundedQueue::close` starts
//! the drain — already-queued items are still handed out, then every
//! popper unblocks with `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Rejection from [`BoundedQueue::try_push`], returning the item.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// The queue is at capacity — the caller must shed load.
    Busy(T),
    /// The queue has been closed for shutdown.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub(crate) struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (`capacity ≥ 1`).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Current queue depth.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Enqueues without blocking. Fails with [`PushError::Busy`] at
    /// capacity (the backpressure signal) and [`PushError::Closed`] after
    /// [`BoundedQueue::close`].
    pub(crate) fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut s = self.state.lock().unwrap();
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.capacity {
            return Err(PushError::Busy(item));
        }
        s.items.push_back(item);
        let depth = s.items.len();
        drop(s);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` signals the consumer to exit.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).unwrap();
        }
    }

    /// Closes the queue: future pushes fail, queued items still drain,
    /// then poppers unblock with `None`.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn busy_beyond_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert_eq!(q.try_push(3), Err(PushError::Busy(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4).unwrap(), 2, "space frees after a pop");
    }

    #[test]
    fn close_drains_then_unblocks() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err(PushError::Closed("c")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays closed");
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn mpmc_transfers_every_item_exactly_once() {
        let q = Arc::new(BoundedQueue::<u64>::new(8));
        let sum = Arc::new(AtomicU64::new(0));
        let received = Arc::new(AtomicU64::new(0));
        const PER_PRODUCER: u64 = 2_000;
        const PRODUCERS: u64 = 4;
        std::thread::scope(|s| {
            for _ in 0..3 {
                let q = Arc::clone(&q);
                let sum = Arc::clone(&sum);
                let received = Arc::clone(&received);
                s.spawn(move || {
                    while let Some(v) = q.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        received.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // Inner scope joins the producers before the queue closes, so
            // consumers drain everything and then exit on `None`.
            std::thread::scope(|p| {
                for producer in 0..PRODUCERS {
                    let q = Arc::clone(&q);
                    p.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            let mut v = producer * PER_PRODUCER + i + 1;
                            loop {
                                match q.try_push(v) {
                                    Ok(_) => break,
                                    Err(PushError::Busy(back)) => {
                                        v = back;
                                        std::thread::yield_now();
                                    }
                                    Err(PushError::Closed(_)) => panic!("closed early"),
                                }
                            }
                        }
                    });
                }
            });
            q.close();
        });
        // Distinct values 1..=n, each delivered exactly once.
        let n = PRODUCERS * PER_PRODUCER;
        assert_eq!(received.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }
}
