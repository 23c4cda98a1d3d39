//! Output-queued crossbar with a bisection-bandwidth cap.

use mcgpu_types::{BandwidthBudget, Pipe};

/// An output-queued crossbar: every output port is a bandwidth- and
/// latency-limited FIFO, and a chip-wide bisection budget caps the total
/// bytes that may be injected per cycle across all ports.
///
/// This is the standard first-order model of a concentrated (hierarchical)
/// crossbar: internal contention shows up as the bisection cap, per-output
/// contention as the port queues. See the [crate docs](crate) for an
/// example.
#[derive(Debug, Clone)]
pub struct Crossbar<T> {
    outputs: Vec<Pipe<T>>,
    bisection: BandwidthBudget,
    injected_bytes: u64,
    rejected: u64,
}

impl<T> Crossbar<T> {
    /// Create a crossbar with `ports` output ports of `port_gbs` GB/s each,
    /// a total `bisection_gbs` injection cap, a per-hop `latency`, and a
    /// per-port queue depth of `queue_depth` packets.
    ///
    /// # Panics
    /// Panics if `ports` is zero.
    pub fn new(
        ports: usize,
        port_gbs: f64,
        bisection_gbs: f64,
        latency: u64,
        queue_depth: usize,
    ) -> Self {
        assert!(ports > 0);
        Crossbar {
            outputs: (0..ports)
                .map(|_| Pipe::new(port_gbs, latency, Some(queue_depth)))
                .collect(),
            bisection: BandwidthBudget::new(bisection_gbs),
            injected_bytes: 0,
            rejected: 0,
        }
    }

    /// Number of output ports.
    pub fn ports(&self) -> usize {
        self.outputs.len()
    }

    /// Try to inject `item` of `bytes` towards output `port`.
    ///
    /// # Errors
    /// Returns the item back when either the bisection budget for this cycle
    /// is exhausted or the port queue is full; the caller must retry next
    /// cycle (backpressure).
    ///
    /// # Panics
    /// Panics if `port` is out of range.
    pub fn try_push(&mut self, port: usize, item: T, bytes: u64) -> Result<(), T> {
        if !self.outputs[port].can_push() {
            self.rejected += 1;
            return Err(item);
        }
        if !self.bisection.try_consume(bytes) {
            self.rejected += 1;
            return Err(item);
        }
        self.injected_bytes += bytes;
        self.outputs[port].try_push(item, bytes) // cannot happen: can_push checked
    }

    /// Whether output `port` can currently accept a packet (ignoring the
    /// bisection budget).
    pub fn can_push(&self, port: usize) -> bool {
        self.outputs[port].can_push()
    }

    /// Advance one cycle.
    pub fn tick(&mut self, now: u64) {
        self.bisection.refill();
        for out in &mut self.outputs {
            out.tick(now);
        }
    }

    /// Pop the next delivered packet at output `port`, if any.
    pub fn pop_ready(&mut self, port: usize, now: u64) -> Option<T> {
        self.outputs[port].pop_ready(now)
    }

    /// Total packets currently inside the crossbar.
    pub fn len(&self) -> usize {
        self.outputs.iter().map(|o| o.len()).sum()
    }

    /// Whether the crossbar holds no packets.
    pub fn is_empty(&self) -> bool {
        self.outputs.iter().all(|o| o.is_empty())
    }

    /// Total bytes accepted since construction.
    pub fn injected_bytes(&self) -> u64 {
        self.injected_bytes
    }

    /// Number of rejected (back-pressured) injection attempts.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Whether ticking this crossbar is a state no-op: no packets anywhere
    /// and every budget (the bisection cap and each output port's pipe) has
    /// saturated at its credit cap. The engine's idle-cycle skip requires
    /// this on every crossbar before jumping the clock.
    pub fn tick_is_noop(&self) -> bool {
        self.bisection.refill_is_noop() && self.outputs.iter().all(Pipe::tick_is_noop)
    }

    /// Drain all packets (LLC reconfiguration drains in-flight traffic).
    pub fn drain(&mut self) -> Vec<T> {
        self.outputs.iter_mut().flat_map(|o| o.drain()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_after_latency_to_right_port() {
        let mut x: Crossbar<u32> = Crossbar::new(3, 64.0, 1024.0, 7, 8);
        x.try_push(2, 99, 16).unwrap();
        x.tick(0);
        for now in 0..7 {
            assert!(x.pop_ready(2, now).is_none());
        }
        assert!(x.pop_ready(0, 7).is_none());
        assert!(x.pop_ready(1, 7).is_none());
        assert_eq!(x.pop_ready(2, 7), Some(99));
    }

    #[test]
    fn bisection_caps_total_injection() {
        // 4 ports x 1000 B/cy each but only 100 B/cy bisection.
        let mut x: Crossbar<u32> = Crossbar::new(4, 1000.0, 100.0, 0, 64);
        let mut accepted = 0;
        for now in 0..10 {
            x.tick(now);
            for i in 0..40 {
                if x.try_push((i % 4) as usize, i, 100).is_ok() {
                    accepted += 1;
                }
            }
        }
        // 10 cycles x 100 B/cy = ~1000 B => ~10 packets of 100 B.
        assert!((8..=14).contains(&accepted), "accepted {accepted}");
        assert!(x.rejected() > 0);
    }

    #[test]
    fn port_queue_backpressure() {
        let mut x: Crossbar<u32> = Crossbar::new(1, 0.0, 1e9, 0, 2);
        // Port bandwidth is zero: nothing ever drains, queue fills at 2.
        x.tick(0);
        assert!(x.try_push(0, 1, 8).is_ok());
        assert!(x.try_push(0, 2, 8).is_ok());
        assert_eq!(x.try_push(0, 3, 8), Err(3));
        assert!(!x.can_push(0));
        assert_eq!(x.len(), 2);
    }

    #[test]
    fn drain_empties() {
        let mut x: Crossbar<u32> = Crossbar::new(2, 64.0, 1024.0, 10, 8);
        x.try_push(0, 1, 16).unwrap();
        x.try_push(1, 2, 16).unwrap();
        x.tick(0);
        let drained = x.drain();
        assert_eq!(drained.len(), 2);
        assert!(x.is_empty());
    }
}
