//! Bounded multi-producer admission queue on std sync primitives.
//!
//! Connection threads push; the single inference thread pops. The queue
//! is the server's load-shedding valve: a push against a full queue
//! fails *immediately* with the rejected item handed back (the HTTP
//! layer turns that into a 429), it never blocks a producer. Capacity is
//! fixed at construction, so admission is O(1) and the memory held by
//! queued requests is bounded.
//!
//! Shutdown semantics: [`Bounded::close`] stops new pushes but lets
//! consumers drain what was already admitted — [`Bounded::pop`] returns
//! `None` only once the queue is both closed *and* empty, so no admitted
//! request is ever dropped on the floor.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused; the rejected item is handed back so the
/// caller can answer its client.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity (shed: HTTP 429).
    Full(T),
    /// The queue is closed for new work (shutdown: HTTP 503).
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded MPSC queue: non-blocking producers, one blocking consumer.
pub struct Bounded<T> {
    cap: usize,
    state: Mutex<State<T>>,
    available: Condvar,
}

impl<T> Bounded<T> {
    /// A queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be at least 1");
        Bounded {
            cap,
            state: Mutex::new(State { items: VecDeque::with_capacity(cap), closed: false }),
            available: Condvar::new(),
        }
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Non-blocking admission. On success returns the queue depth
    /// *including* the pushed item (the admission counter's high-water
    /// input); a full or closed queue hands the item back untouched.
    pub fn push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        let depth = s.items.len();
        drop(s);
        self.available.notify_one();
        Ok(depth)
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.items.pop_front()
    }

    /// Blocks until an item arrives or the queue is closed. Returns
    /// `None` only once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.available.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops new admissions and wakes the consumer; queued items remain
    /// poppable, and `pop` returns `None` once the queue is closed and
    /// empty.
    pub fn close(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.closed = true;
        drop(s);
        self.available.notify_all();
    }

    /// Current depth (racy the instant it returns; for reporting).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).items.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once [`Bounded::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_and_depth_reporting() {
        let q = Bounded::new(4);
        assert_eq!(q.push(10).unwrap(), 1);
        assert_eq!(q.push(11).unwrap(), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(10));
        assert_eq!(q.try_pop(), Some(11));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn shed_exactly_when_full() {
        // The 429 contract: pushes succeed up to exactly `cap`, the next
        // push fails with the item handed back, and popping one slot
        // makes exactly one more push succeed.
        let q = Bounded::new(3);
        for i in 0..3 {
            assert!(q.push(i).is_ok());
        }
        match q.push(99) {
            Err(PushError::Full(v)) => assert_eq!(v, 99),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.try_pop(), Some(0));
        assert_eq!(q.push(99).unwrap(), 3);
        assert!(matches!(q.push(100), Err(PushError::Full(100))));
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = Bounded::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert!(matches!(q.push(3), Err(PushError::Closed(3))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_a_blocked_pop() {
        let q: Arc<Bounded<u8>> = Arc::new(Bounded::new(1));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        // The popper may or may not be waiting yet; either way close
        // must end its pop with `None`.
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }

    #[test]
    fn pop_wakes_on_push_from_another_thread() {
        let q = Arc::new(Bounded::new(1));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        // The popper may or may not be waiting yet; either way the item
        // must be delivered.
        std::thread::sleep(Duration::from_millis(5));
        q.push(7u8).unwrap();
        assert_eq!(popper.join().unwrap(), Some(7));
    }

    /// Loom-style interleaving stress: many producers race a draining
    /// consumer through every admission outcome. The invariant is
    /// conservation — every produced item is either delivered exactly
    /// once or handed back by the shed path exactly once, and the
    /// delivered multiset has no duplicates or losses.
    #[test]
    fn stress_no_lost_or_duplicated_items() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 500;
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(4));
        let consumed = Arc::new(Mutex::new(Vec::new()));

        let consumer = {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            std::thread::spawn(move || {
                while let Some(v) = q.pop() {
                    consumed.lock().unwrap().push(v);
                }
            })
        };

        let producers: Vec<_> = (0..PRODUCERS as u32)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    // Retry-until-accepted: every item must eventually land.
                    for i in 0..PER_PRODUCER as u32 {
                        let mut item = p * PER_PRODUCER as u32 + i;
                        loop {
                            match q.push(item) {
                                Ok(_) => break,
                                Err(PushError::Full(back)) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        consumer.join().unwrap();

        let mut got = consumed.lock().unwrap().clone();
        got.sort_unstable();
        let want: Vec<u32> = (0..(PRODUCERS * PER_PRODUCER) as u32).collect();
        assert_eq!(got, want, "items lost or duplicated under contention");
    }

    /// Shed accounting under contention: with no retries, accepted +
    /// shed must equal produced, and the consumer must see exactly the
    /// accepted items.
    #[test]
    fn stress_shed_accounting_is_exact() {
        const PRODUCERS: usize = 6;
        const PER_PRODUCER: usize = 400;
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(2));
        let consumed = Arc::new(Mutex::new(Vec::new()));

        let consumer = {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            std::thread::spawn(move || {
                while let Some(v) = q.pop() {
                    consumed.lock().unwrap().push(v);
                }
            })
        };

        let producers: Vec<_> = (0..PRODUCERS as u32)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut accepted = Vec::new();
                    for i in 0..PER_PRODUCER as u32 {
                        let item = p * PER_PRODUCER as u32 + i;
                        if q.push(item).is_ok() {
                            accepted.push(item);
                        }
                    }
                    accepted
                })
            })
            .collect();
        let mut accepted = Vec::new();
        for p in producers {
            accepted.extend(p.join().unwrap());
        }
        q.close();
        consumer.join().unwrap();

        let mut got = consumed.lock().unwrap().clone();
        got.sort_unstable();
        accepted.sort_unstable();
        assert_eq!(got, accepted, "consumer saw a different set than the accepted pushes");
    }
}
