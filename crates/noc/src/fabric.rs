//! Inter-chip fabric: topology-generic packet transport.
//!
//! The fabric keeps one directed bandwidth/latency [`Pipe`] per (chip,
//! neighbor-slot) of the configured [`Topology`] and re-injects multi-hop
//! packets hop by hop in [`FabricNetwork::tick`]. A packet that lands at an
//! intermediate chip is routed once, on arrival, and waits in that chip's
//! FIFO for the chosen slot; [`FabricNetwork::fail_link`] re-routes every
//! waiting packet, so traffic steers around failed links. On the paper's
//! ring (Table 3: 12 bidirectional NVLink-class links in total, 3 per
//! adjacent pair, 96 GB/s per direction per pair) this reproduces the
//! original hard-wired ring fabric bit-for-bit: slot 0 is clockwise, slot 1
//! counter-clockwise, and the [`Ring`](crate::topology::Ring) routing
//! policy is the original shortest-path/balanced-tie-break/long-way-around
//! logic.

use crate::topology::{build_topology, Topology};
use mcgpu_types::{ChipId, MachineConfig, Pipe};
use std::collections::VecDeque;

/// A packet travelling on the fabric towards `dest`.
#[derive(Debug, Clone)]
struct FabricPacket<T> {
    dest: ChipId,
    bytes: u64,
    payload: T,
}

/// A packet waiting at an intermediate chip, stamped with the fabric-wide
/// arrival sequence number that orders the chip's waiting packets.
type Parked<T> = (u64, FabricPacket<T>);

/// The packets waiting at one intermediate chip for re-injection.
///
/// Each packet is routed once, when it arrives, and queued on the FIFO of
/// its outgoing slot. Routes only change in [`FabricNetwork::fail_link`],
/// which re-buckets every packet in arrival order.
#[derive(Debug)]
struct Transit<T> {
    /// `by_slot[slot]`: packets routed onto `slot`, oldest first.
    by_slot: Vec<VecDeque<Parked<T>>>,
    /// Packets with no live route to their destination, oldest first.
    unrouted: Vec<Parked<T>>,
}

impl<T> Transit<T> {
    fn new(slots: usize) -> Self {
        Transit {
            by_slot: (0..slots).map(|_| VecDeque::new()).collect(),
            unrouted: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.by_slot.iter().map(VecDeque::len).sum::<usize>() + self.unrouted.len()
    }

    fn is_empty(&self) -> bool {
        self.unrouted.is_empty() && self.by_slot.iter().all(VecDeque::is_empty)
    }

    /// Every waiting packet, in no particular order.
    fn iter(&self) -> impl Iterator<Item = &Parked<T>> {
        self.by_slot.iter().flatten().chain(&self.unrouted)
    }

    /// Remove every waiting packet and return them in arrival order.
    fn take_in_arrival_order(&mut self) -> Vec<Parked<T>> {
        let mut all = std::mem::take(&mut self.unrouted);
        for queue in &mut self.by_slot {
            all.extend(queue.drain(..));
        }
        all.sort_unstable_by_key(|(seq, _)| *seq);
        all
    }
}

/// Why [`FabricNetwork::try_send`] returned the payload to the caller.
/// Both cases are backpressure — the caller retries — but a `NoRoute`
/// signals a typed dead-route condition (link failures disconnected the
/// destination), never a silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError<T> {
    /// The outgoing link queue is full this cycle.
    Full(T),
    /// Link failures have left no live path to the destination.
    NoRoute(T),
}

impl<T> SendError<T> {
    /// Recover the payload for a retry.
    pub fn into_payload(self) -> T {
        match self {
            SendError::Full(p) | SendError::NoRoute(p) => p,
        }
    }
}

/// The inter-chip fabric: one directed [`Pipe`] per (chip, neighbor slot)
/// of the configured topology.
///
/// # Example
/// ```
/// use mcgpu_noc::FabricNetwork;
/// use mcgpu_types::{ChipId, MachineConfig};
///
/// let cfg = MachineConfig::paper_baseline(); // 4-chip ring
/// let mut fabric: FabricNetwork<&str> = FabricNetwork::new(&cfg, 20);
/// fabric.try_send(ChipId(0), ChipId(2), "two hops", 16).unwrap();
/// let mut arrived = Vec::new();
/// for now in 0..200 {
///     fabric.tick(now);
///     arrived.extend(fabric.pop_arrivals(ChipId(2), now));
/// }
/// assert_eq!(arrived, vec!["two hops"]);
/// ```
#[derive(Debug)]
pub struct FabricNetwork<T> {
    chips: usize,
    topo: Box<dyn Topology>,
    /// `links[from][slot]` carries traffic from `from` to its `slot`-th
    /// neighbor. On a ring, slot 0 = clockwise (to chip+1), slot 1 =
    /// counter-clockwise.
    links: Vec<Vec<Pipe<FabricPacket<T>>>>,
    /// `alive[from][slot]`: whether that directed link can carry traffic.
    /// Links die in pairs (both directions of an adjacency) via
    /// [`FabricNetwork::fail_link`].
    alive: Vec<Vec<bool>>,
    /// Packets that completed a hop and wait at an intermediate chip for
    /// re-injection, per chip.
    transit: Vec<Transit<T>>,
    /// The next arrival sequence number stamped on a parked packet.
    next_seq: u64,
    /// Packets that reached their destination, per chip.
    arrived: Vec<Vec<FabricPacket<T>>>,
    delivered: u64,
    bytes_sent: u64,
    /// Bytes injected per source chip (observability tap).
    sent_from: Vec<u64>,
}

impl<T> FabricNetwork<T> {
    /// Build the fabric for `cfg.topology` over `cfg.chips` chips with
    /// per-link bandwidth `cfg.interchip_pair_gbs` and per-hop latency
    /// `cfg.link_latency`; `queue_depth` bounds each link's injection
    /// queue.
    pub fn new(cfg: &MachineConfig, queue_depth: usize) -> Self {
        let topo = build_topology(cfg);
        let n = cfg.chips;
        let links: Vec<Vec<Pipe<FabricPacket<T>>>> = ChipId::all(n)
            .map(|c| {
                topo.neighbors(c)
                    .iter()
                    .map(|_| Pipe::new(topo.link_gbs(), topo.link_latency(), Some(queue_depth)))
                    .collect()
            })
            .collect();
        let alive = ChipId::all(n)
            .map(|c| vec![true; topo.neighbors(c).len()])
            .collect();
        let transit = ChipId::all(n)
            .map(|c| Transit::new(topo.neighbors(c).len()))
            .collect();
        FabricNetwork {
            chips: n,
            topo,
            links,
            alive,
            transit,
            next_seq: 0,
            arrived: (0..n).map(|_| Vec::new()).collect(),
            delivered: 0,
            bytes_sent: 0,
            sent_from: vec![0; n],
        }
    }

    /// The outgoing slot at `a` of the adjacency `a <-> b` (the first slot
    /// pointing at `b`, matching the original ring's direction mapping on
    /// a 2-chip ring where both slots reach the same chip).
    ///
    /// # Panics
    /// Panics if `a` and `b` are not adjacent — callers must hand in a
    /// validated fault plan.
    fn slot_towards(&self, a: ChipId, b: ChipId) -> usize {
        self.topo
            .neighbors(a)
            .iter()
            .position(|&n| n == b)
            .unwrap_or_else(|| {
                panic!("invariant violated: link fault endpoints {a:?} and {b:?} are not adjacent")
            })
    }

    /// Queue a stamped packet waiting at `chip` on the FIFO of its next
    /// hop, or with the unrouted packets when no live path remains.
    fn enqueue(&mut self, chip: usize, parked: Parked<T>) {
        let from = ChipId(chip as u8);
        let transit = &mut self.transit[chip];
        match self.topo.route(from, parked.1.dest, &self.alive) {
            Some(slot) => transit.by_slot[slot].push_back(parked),
            None => transit.unrouted.push(parked),
        }
    }

    /// Stamp a packet that just landed at intermediate `chip` with the
    /// next arrival sequence number and queue it for its next hop.
    fn park(&mut self, chip: usize, pkt: FabricPacket<T>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.enqueue(chip, (seq, pkt));
    }

    /// Degrade the adjacency `a <-> b` to `factor` of its configured
    /// bandwidth, in both directions. Queued and in-flight packets are
    /// unaffected; future packets transmit at the reduced rate.
    pub fn degrade_link(&mut self, a: ChipId, b: ChipId, factor: f64) {
        let rate = self.topo.link_gbs() * factor;
        let s_ab = self.slot_towards(a, b);
        let s_ba = self.slot_towards(b, a);
        self.links[a.index()][s_ab].set_rate(rate);
        self.links[b.index()][s_ba].set_rate(rate);
    }

    /// Fail the adjacency `a <-> b` in both directions. Packets queued or
    /// in flight on the dead links are returned to their sending chip and
    /// re-routed along surviving links — conserved, not dropped.
    ///
    /// This is the only place a route can change, so it re-routes every
    /// waiting packet on every chip, in arrival order.
    pub fn fail_link(&mut self, a: ChipId, b: ChipId) {
        let mut waiting: Vec<Vec<Parked<T>>> = self
            .transit
            .iter_mut()
            .map(Transit::take_in_arrival_order)
            .collect();
        for (from, to) in [(a, b), (b, a)] {
            let slot = self.slot_towards(from, to);
            self.alive[from.index()][slot] = false;
            for pkt in self.links[from.index()][slot].drain() {
                waiting[from.index()].push((self.next_seq, pkt));
                self.next_seq += 1;
            }
        }
        for (chip, parked) in waiting.into_iter().enumerate() {
            for p in parked {
                self.enqueue(chip, p);
            }
        }
    }

    /// Whether the adjacency `a <-> b` is alive (in the `a -> b` direction;
    /// failures always take both).
    pub fn link_alive(&self, a: ChipId, b: ChipId) -> bool {
        self.alive[a.index()][self.slot_towards(a, b)]
    }

    /// Inject a packet at `from` destined for `to`.
    ///
    /// # Errors
    /// Returns the payload back as [`SendError::Full`] when the outgoing
    /// link queue is full, or [`SendError::NoRoute`] when link failures
    /// have left no live path from `from` to `to` (backpressure either way
    /// — the caller retries).
    ///
    /// # Panics
    /// Panics if `from == to`.
    pub fn try_send(
        &mut self,
        from: ChipId,
        to: ChipId,
        payload: T,
        bytes: u64,
    ) -> Result<(), SendError<T>> {
        assert_ne!(from, to, "fabric packets must cross chips");
        let Some(slot) = self.topo.route(from, to, &self.alive) else {
            return Err(SendError::NoRoute(payload));
        };
        let pkt = FabricPacket {
            dest: to,
            bytes,
            payload,
        };
        self.links[from.index()][slot]
            .try_push(pkt, bytes)
            .map(|()| {
                self.bytes_sent += bytes;
                self.sent_from[from.index()] += bytes;
            })
            .map_err(|pkt| SendError::Full(pkt.payload))
    }

    /// Whether `from` can currently inject a packet towards `to`.
    pub fn can_send(&self, from: ChipId, to: ChipId) -> bool {
        match self.topo.route(from, to, &self.alive) {
            Some(slot) => self.links[from.index()][slot].can_push(),
            None => false,
        }
    }

    /// Advance one cycle: move link traffic, land arrivals, and re-inject
    /// transit packets onto their next hop.
    pub fn tick(&mut self, now: u64) {
        // Re-inject packets waiting at intermediate chips first so they get
        // this cycle's bandwidth. A link's capacity counts entries and
        // nothing drains it before its `tick`, so once one push fails every
        // later push to it this cycle fails too: each slot admits a prefix
        // of its FIFO. Unrouted packets wait (conserved) until the engine's
        // watchdog declares the machine wedged.
        for (transit, links) in self.transit.iter_mut().zip(&mut self.links) {
            for (queue, link) in transit.by_slot.iter_mut().zip(links.iter_mut()) {
                while link.can_push() {
                    let Some((_, pkt)) = queue.pop_front() else {
                        break;
                    };
                    let bytes = pkt.bytes;
                    assert!(
                        link.try_push(pkt, bytes).is_ok(),
                        "invariant violated: a link that can push refused a packet"
                    );
                }
            }
        }
        for chip in 0..self.chips {
            for pipe in &mut self.links[chip] {
                pipe.tick(now);
            }
        }
        // Land completed hops.
        for chip in 0..self.chips {
            for slot in 0..self.links[chip].len() {
                let next = self.topo.neighbors(ChipId(chip as u8))[slot];
                while let Some(pkt) = self.links[chip][slot].pop_ready(now) {
                    if pkt.dest == next {
                        self.delivered += 1;
                        self.arrived[next.index()].push(pkt);
                    } else {
                        self.park(next.index(), pkt);
                    }
                }
            }
        }
    }

    /// Take the packets that arrived at `chip`.
    pub fn pop_arrivals(&mut self, chip: ChipId, now: u64) -> Vec<T> {
        let mut out = Vec::new();
        self.pop_arrivals_into(chip, now, &mut out);
        out
    }

    /// Like [`pop_arrivals`](FabricNetwork::pop_arrivals), but appends into
    /// a caller-owned buffer — the per-cycle simulator loop reuses one
    /// scratch `Vec` instead of allocating each cycle.
    pub fn pop_arrivals_into(&mut self, chip: ChipId, _now: u64, out: &mut Vec<T>) {
        out.extend(self.arrived[chip.index()].drain(..).map(|p| p.payload));
    }

    /// Packets still anywhere in the network.
    pub fn len(&self) -> usize {
        self.links
            .iter()
            .flat_map(|l| l.iter())
            .map(|p| p.len())
            .sum::<usize>()
            + self.transit.iter().map(Transit::len).sum::<usize>()
            + self.arrived.iter().map(|a| a.len()).sum::<usize>()
    }

    /// Whether the network is completely idle.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether ticking the fabric is a state no-op: no packets anywhere
    /// (see [`is_empty`](FabricNetwork::is_empty)) and every link pipe's
    /// bandwidth budget has saturated at its credit cap. The engine's
    /// idle-cycle skip requires this before jumping the clock.
    pub fn tick_is_noop(&self) -> bool {
        self.transit.iter().all(Transit::is_empty)
            && self.arrived.iter().all(Vec::is_empty)
            && self
                .links
                .iter()
                .flat_map(|l| l.iter())
                .all(Pipe::tick_is_noop)
    }

    /// Packets currently held at `chip`: queued or in flight on its
    /// outgoing links, waiting in transit, or landed but not yet popped.
    /// Used for deadlock diagnostics.
    pub fn chip_load(&self, chip: ChipId) -> usize {
        let i = chip.index();
        self.links[i].iter().map(|p| p.len()).sum::<usize>()
            + self.transit[i].len()
            + self.arrived[i].len()
    }

    /// Count payloads anywhere in the fabric (link pipes, transit buffers,
    /// landed-but-unpopped arrivals) matching `pred`. Used by the engine's
    /// request-conservation audit to count request-carrying packets while
    /// ignoring writeback/invalidate traffic.
    pub fn count_matching(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        self.links
            .iter()
            .flat_map(|l| l.iter())
            .flat_map(|p| p.iter())
            .chain(self.transit.iter().flat_map(Transit::iter).map(|(_, p)| p))
            .chain(self.arrived.iter().flatten())
            .filter(|pkt| pred(&pkt.payload))
            .count()
    }

    /// Packets delivered to their final destination so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total bytes injected so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Bytes injected so far by `chip` (observability tap).
    pub fn bytes_sent_from(&self, chip: ChipId) -> u64 {
        self.sent_from[chip.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgpu_types::TopologyKind;

    fn cfg() -> MachineConfig {
        MachineConfig::paper_baseline()
    }

    fn run_until_empty<T>(fab: &mut FabricNetwork<T>, sink: &mut Vec<(usize, T)>, max: u64) {
        for now in 0..max {
            fab.tick(now);
            for chip in 0..fab.chips {
                for p in fab.pop_arrivals(ChipId(chip as u8), now) {
                    sink.push((chip, p));
                }
            }
            if fab.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn adjacent_delivery() {
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&cfg(), 16);
        ring.try_send(ChipId(0), ChipId(1), 7, 16).unwrap();
        let mut got = Vec::new();
        run_until_empty(&mut ring, &mut got, 1000);
        assert_eq!(got, vec![(1, 7)]);
        assert_eq!(ring.delivered(), 1);
    }

    #[test]
    fn two_hop_delivery_takes_two_latencies() {
        let c = cfg();
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        ring.try_send(ChipId(0), ChipId(2), 9, 16).unwrap();
        let mut arrival_cycle = None;
        for now in 0..1000 {
            ring.tick(now);
            if !ring.pop_arrivals(ChipId(2), now).is_empty() {
                arrival_cycle = Some(now);
                break;
            }
        }
        let t = arrival_cycle.expect("delivered");
        assert!(
            t >= 2 * c.link_latency,
            "two hops must cost two link latencies, got {t}"
        );
    }

    #[test]
    fn bandwidth_limits_throughput() {
        let mut c = cfg();
        c.interchip_pair_gbs = 16.0; // 16 B/cycle per direction
        c.link_latency = 0;
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 4);
        let mut sent = 0u32;
        let mut delivered = 0;
        for now in 0..1000 {
            ring.tick(now);
            // Saturate chip0 -> chip1 with 128 B packets.
            if ring.try_send(ChipId(0), ChipId(1), sent, 128).is_ok() {
                sent += 1;
            }
            delivered += ring.pop_arrivals(ChipId(1), now).len();
        }
        // 16 B/cy x 1000 cy / 128 B = ~125 packets.
        assert!((110..=140).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn opposite_chips_balance_directions() {
        let c = cfg();
        // chip0 -> chip2 ties: even source goes clockwise; chip1 -> chip3
        // (odd source) goes counter-clockwise.
        let mut ring: FabricNetwork<&str> = FabricNetwork::new(&c, 16);
        ring.try_send(ChipId(0), ChipId(2), "a", 16).unwrap();
        ring.try_send(ChipId(1), ChipId(3), "b", 16).unwrap();
        let mut got = Vec::new();
        run_until_empty(&mut ring, &mut got, 2000);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn failed_link_reroutes_the_long_way() {
        let c = cfg();
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        ring.fail_link(ChipId(0), ChipId(1));
        assert!(!ring.link_alive(ChipId(0), ChipId(1)));
        // 0 -> 1 must now take 0 -> 3 -> 2 -> 1: three hops instead of one.
        ring.try_send(ChipId(0), ChipId(1), 42, 16).unwrap();
        let mut arrival = None;
        for now in 0..2000 {
            ring.tick(now);
            if !ring.pop_arrivals(ChipId(1), now).is_empty() {
                arrival = Some(now);
                break;
            }
        }
        let t = arrival.expect("rerouted packet must still arrive");
        assert!(
            t >= 3 * c.link_latency,
            "long way around is three hops, got {t}"
        );
        assert_eq!(ring.delivered(), 1);
    }

    #[test]
    fn fail_link_conserves_queued_packets() {
        let mut c = cfg();
        c.interchip_pair_gbs = 16.0;
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        // Queue several packets on 0 -> 1, then kill the link before they move.
        for i in 0..8 {
            ring.try_send(ChipId(0), ChipId(1), i, 128).unwrap();
        }
        ring.fail_link(ChipId(0), ChipId(1));
        let mut got = Vec::new();
        run_until_empty(&mut ring, &mut got, 5000);
        assert_eq!(got.len(), 8, "every stranded packet must be re-delivered");
        assert!(got.iter().all(|&(chip, _)| chip == 1));
    }

    #[test]
    fn partitioned_ring_refuses_injection_but_holds_packets() {
        let c = cfg();
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        ring.try_send(ChipId(0), ChipId(2), 5, 16).unwrap();
        // Cut both directions out of the packet's current region.
        ring.fail_link(ChipId(0), ChipId(1));
        ring.fail_link(ChipId(3), ChipId(0));
        assert!(!ring.can_send(ChipId(0), ChipId(2)));
        assert_eq!(
            ring.try_send(ChipId(0), ChipId(2), 6, 16),
            Err(SendError::NoRoute(6))
        );
        for now in 0..500 {
            ring.tick(now);
        }
        // The stranded packet is conserved, not silently dropped.
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.delivered(), 0);
    }

    #[test]
    fn degraded_link_halves_throughput() {
        let mut c = cfg();
        c.interchip_pair_gbs = 16.0;
        c.link_latency = 0;
        let mut full: FabricNetwork<u32> = FabricNetwork::new(&c, 4);
        let mut degraded: FabricNetwork<u32> = FabricNetwork::new(&c, 4);
        degraded.degrade_link(ChipId(0), ChipId(1), 0.5);
        let mut counts = [0usize; 2];
        for (k, ring) in [&mut full, &mut degraded].into_iter().enumerate() {
            let mut sent = 0;
            for now in 0..1000 {
                ring.tick(now);
                if ring.try_send(ChipId(0), ChipId(1), sent, 128).is_ok() {
                    sent += 1;
                }
                counts[k] += ring.pop_arrivals(ChipId(1), now).len();
            }
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!(
            (0.4..=0.6).contains(&ratio),
            "half-rate link should move ~half the packets: {counts:?}"
        );
    }

    #[test]
    fn backpressure_on_full_link() {
        let mut c = cfg();
        c.interchip_pair_gbs = 0.0;
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 1);
        assert!(ring.try_send(ChipId(0), ChipId(1), 1, 16).is_ok());
        assert_eq!(
            ring.try_send(ChipId(0), ChipId(1), 2, 16),
            Err(SendError::Full(2))
        );
        assert!(!ring.can_send(ChipId(0), ChipId(1)));
    }

    #[test]
    fn mesh_delivers_across_the_diagonal() {
        let mut c = cfg();
        c.topology = TopologyKind::Mesh2D;
        let mut mesh: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        // 2x2 mesh: 0 and 3 are diagonal, two hops apart.
        mesh.try_send(ChipId(0), ChipId(3), 11, 16).unwrap();
        let mut got = Vec::new();
        run_until_empty(&mut mesh, &mut got, 2000);
        assert_eq!(got, vec![(3, 11)]);
    }

    #[test]
    fn fully_connected_is_single_hop_between_any_pair() {
        let mut c = cfg();
        c.topology = TopologyKind::FullyConnected;
        c.chips = 8;
        let mut fc: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        fc.try_send(ChipId(0), ChipId(5), 3, 16).unwrap();
        let mut arrival = None;
        for now in 0..1000 {
            fc.tick(now);
            if !fc.pop_arrivals(ChipId(5), now).is_empty() {
                arrival = Some(now);
                break;
            }
        }
        let t = arrival.expect("delivered");
        assert!(
            t < 2 * c.link_latency,
            "all-to-all should deliver in one hop, got {t}"
        );
    }

    #[test]
    fn two_chip_ring_survives_single_link_failure() {
        let mut c = cfg();
        c.chips = 2;
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        // fail_link takes the slot-0 parallel links on both sides; the
        // slot-1 pair survives and traffic reroutes onto it.
        ring.fail_link(ChipId(0), ChipId(1));
        ring.try_send(ChipId(0), ChipId(1), 9, 16).unwrap();
        let mut got = Vec::new();
        run_until_empty(&mut ring, &mut got, 1000);
        assert_eq!(got, vec![(1, 9)]);
    }
}
