//! A bandwidth- and latency-limited FIFO pipe.
//!
//! [`Pipe`] is the single queueing primitive every bandwidth-limited resource
//! in the simulator is built from: NoC ports, inter-chip links, LLC slice
//! ports and DRAM channels. Items enter a bounded waiting queue, start
//! "transmission" when the [`BandwidthBudget`]
//! admits their size, and become available `latency` cycles later.

use crate::budget::BandwidthBudget;
use std::collections::VecDeque;

/// A FIFO with a per-cycle byte budget and a fixed traversal latency.
///
/// The optional capacity bounds the waiting queue in *entries*, not bytes,
/// and only [`Pipe::tick`] removes waiting entries. So once
/// [`Pipe::try_push`] fails on a bounded pipe, every later `try_push`
/// before the next `tick` fails too, whatever the item's byte size.
/// `mcgpu_noc::FabricNetwork` relies on this: it re-injects a slot's
/// waiting transit packets as a prefix of one FIFO and stops at the first
/// refusal. A byte-based capacity would break that design.
///
/// # Example
/// ```
/// use mcgpu_types::pipe::Pipe;
///
/// // 16 B/cycle, 10-cycle latency, queue of 4 entries.
/// let mut link: Pipe<&str> = Pipe::new(16.0, 10, Some(4));
/// link.try_push("hello", 16).unwrap();
/// for now in 0..=10 {
///     link.tick(now);
///     if let Some(msg) = link.pop_ready(now) {
///         assert_eq!(msg, "hello");
///         assert!(now >= 10);
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Pipe<T> {
    budget: BandwidthBudget,
    latency: u64,
    capacity: Option<usize>,
    waiting: VecDeque<(T, u64)>,
    in_flight: VecDeque<(u64, T)>,
}

impl<T> Pipe<T> {
    /// Create a pipe with `rate` bytes/cycle, `latency` cycles and an
    /// optional waiting-queue bound (`None` = unbounded).
    pub fn new(rate: f64, latency: u64, capacity: Option<usize>) -> Self {
        Pipe {
            budget: BandwidthBudget::new(rate),
            latency,
            capacity,
            waiting: VecDeque::new(),
            in_flight: VecDeque::new(),
        }
    }

    /// Create a pipe that is latency-only (unlimited bandwidth).
    pub fn latency_only(latency: u64) -> Self {
        Pipe {
            budget: BandwidthBudget::unlimited(),
            latency,
            capacity: None,
            waiting: VecDeque::new(),
            in_flight: VecDeque::new(),
        }
    }

    /// Enqueue an item of `bytes` size.
    ///
    /// # Errors
    /// Returns the item back if the waiting queue is full (backpressure).
    pub fn try_push(&mut self, item: T, bytes: u64) -> Result<(), T> {
        if let Some(cap) = self.capacity {
            if self.waiting.len() >= cap {
                return Err(item);
            }
        }
        self.waiting.push_back((item, bytes));
        Ok(())
    }

    /// Whether a push would currently succeed.
    pub fn can_push(&self) -> bool {
        self.capacity.is_none_or(|cap| self.waiting.len() < cap)
    }

    /// Advance one cycle: replenish bandwidth and start transmitting queued
    /// items whose bytes fit. Call exactly once per cycle with the current
    /// cycle number.
    pub fn tick(&mut self, now: u64) {
        self.budget.refill();
        while let Some(&(_, bytes)) = self.waiting.front() {
            if !self.budget.try_consume(bytes) {
                break;
            }
            let (item, _) = self.waiting.pop_front().expect("front checked");
            self.in_flight.push_back((now + self.latency, item));
        }
    }

    /// Pop the next item whose latency has elapsed, if any.
    pub fn pop_ready(&mut self, now: u64) -> Option<T> {
        match self.in_flight.front() {
            Some(&(ready, _)) if ready <= now => self.in_flight.pop_front().map(|(_, t)| t),
            _ => None,
        }
    }

    /// Items still waiting to start transmission.
    pub fn queued(&self) -> usize {
        self.waiting.len()
    }

    /// Items in flight (transmitted, latency not yet elapsed).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether the pipe holds no items at all.
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty() && self.in_flight.is_empty()
    }

    /// Total items inside the pipe.
    pub fn len(&self) -> usize {
        self.waiting.len() + self.in_flight.len()
    }

    /// The configured bandwidth in bytes/cycle.
    pub fn rate(&self) -> f64 {
        self.budget.rate()
    }

    /// Rescale the pipe's bandwidth at runtime (fault injection). Queued
    /// and in-flight items are unaffected; only the admission rate of
    /// future items changes. A rate of `0.0` stalls the pipe's waiting
    /// queue entirely while still delivering what is already in flight.
    pub fn set_rate(&mut self, rate: f64) {
        self.budget.set_rate(rate);
    }

    /// Drain every item (used when reconfiguring; items are returned in
    /// queue order, in-flight first).
    pub fn drain(&mut self) -> Vec<T> {
        let mut out: Vec<T> = self.in_flight.drain(..).map(|(_, t)| t).collect();
        out.extend(self.waiting.drain(..).map(|(t, _)| t));
        out
    }

    /// Iterate over every item inside the pipe (in-flight first, then
    /// waiting), without disturbing state. Used by conservation audits to
    /// classify queue contents.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.in_flight
            .iter()
            .map(|(_, t)| t)
            .chain(self.waiting.iter().map(|(t, _)| t))
    }

    /// Whether ticking this pipe is a state no-op: it holds no items and
    /// its budget's credit has saturated at the cap (so the per-cycle
    /// [`BandwidthBudget::refill`] no longer changes the stored bits).
    /// This is the per-pipe precondition for idle-cycle skipping.
    #[inline]
    pub fn tick_is_noop(&self) -> bool {
        self.is_empty() && self.budget.refill_is_noop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_latency() {
        let mut p: Pipe<u32> = Pipe::new(100.0, 5, None);
        p.try_push(42, 10).unwrap();
        p.tick(0);
        for now in 0..5 {
            assert_eq!(p.pop_ready(now), None, "at {now}");
        }
        assert_eq!(p.pop_ready(5), Some(42));
        assert!(p.is_empty());
    }

    #[test]
    fn respects_bandwidth() {
        // 10 B/cycle, packets of 100 B: one packet starts roughly every 10
        // cycles.
        let mut p: Pipe<u32> = Pipe::new(10.0, 0, None);
        for i in 0..10 {
            p.try_push(i, 100).unwrap();
        }
        let mut done = Vec::new();
        for now in 0..100 {
            p.tick(now);
            while let Some(x) = p.pop_ready(now) {
                done.push((now, x));
            }
        }
        assert_eq!(done.len(), 10);
        // The last packet cannot complete before ~90 cycles.
        assert!(done.last().unwrap().0 >= 85, "{:?}", done.last());
        // FIFO order preserved.
        let order: Vec<u32> = done.iter().map(|&(_, x)| x).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn backpressure_on_full_queue() {
        let mut p: Pipe<u32> = Pipe::new(1.0, 0, Some(2));
        assert!(p.try_push(1, 8).is_ok());
        assert!(p.try_push(2, 8).is_ok());
        assert_eq!(p.try_push(3, 8), Err(3));
        assert!(!p.can_push());
        p.tick(0); // starts transmitting item 1
        assert!(p.can_push());
    }

    /// The contract `FabricNetwork`'s per-slot transit FIFOs rest on: a
    /// refused push stays refused until the next `tick`, whatever the
    /// byte size, even when items in flight are popped in between.
    #[test]
    fn refused_push_stays_refused_until_tick() {
        let sizes = [0u64, 1, 16, 144, 4096, 1 << 20];
        for cap in 1..=4 {
            for rate in [0.0, 16.0, 1e9] {
                let mut p: Pipe<u32> = Pipe::new(rate, 2, Some(cap));
                p.try_push(7, 16).unwrap();
                p.tick(0);
                let mut pushed = 0;
                while p
                    .try_push(pushed, sizes[pushed as usize % sizes.len()])
                    .is_ok()
                {
                    pushed += 1;
                }
                assert_eq!(p.queued(), cap, "capacity counts entries");
                for &bytes in &sizes {
                    assert!(!p.can_push(), "cap {cap} rate {rate}");
                    assert_eq!(
                        p.try_push(99, bytes),
                        Err(99),
                        "cap {cap} rate {rate} bytes {bytes}"
                    );
                    while p.pop_ready(u64::MAX).is_some() {}
                }
                assert_eq!(p.queued(), cap);
            }
        }
    }

    #[test]
    fn latency_only_is_unthrottled() {
        let mut p: Pipe<u32> = Pipe::latency_only(3);
        for i in 0..1000 {
            p.try_push(i, 1 << 20).unwrap();
        }
        p.tick(0);
        assert_eq!(p.in_flight(), 1000);
        let mut n = 0;
        while p.pop_ready(3).is_some() {
            n += 1;
        }
        assert_eq!(n, 1000);
    }

    #[test]
    fn drain_returns_everything() {
        let mut p: Pipe<u32> = Pipe::new(8.0, 10, None);
        p.try_push(1, 8).unwrap();
        p.try_push(2, 8).unwrap();
        p.tick(0);
        p.try_push(3, 8).unwrap();
        let all = p.drain();
        assert_eq!(all.len(), 3);
        assert!(p.is_empty());
    }

    #[test]
    fn iter_sees_in_flight_and_waiting() {
        let mut p: Pipe<u32> = Pipe::new(8.0, 10, None);
        p.try_push(1, 8).unwrap();
        p.tick(0); // 1 goes in flight
        p.try_push(2, 8).unwrap();
        let seen: Vec<u32> = p.iter().copied().collect();
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(p.len(), 2); // non-destructive
    }
}
