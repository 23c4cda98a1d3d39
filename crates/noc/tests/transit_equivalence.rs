//! Differential oracle for the fabric's transit queues.
//!
//! `FabricNetwork` routes a packet once when it lands at an intermediate
//! chip and keeps one FIFO per (chip, outgoing slot). [`ScanFabric`] below
//! is the straightforward model it must match: one arrival-ordered list per
//! chip that is re-routed and retried packet by packet on every cycle. The
//! property drives both with the same random injections and link failures
//! on ring, mesh and fully-connected fabrics of 2–16 chips and requires
//! the same send results, the same `(cycle, chip, payload)` arrivals, the
//! same `len()`, `chip_load(c)`, delivered count and bytes sent (in total
//! and per chip) every cycle. Each case ends by ticking both sides until
//! they empty; a fabric that link failures partitioned never empties, so
//! the payloads stranded in it must then be the same on both sides.

use mcgpu_noc::{build_topology, FabricNetwork, SendError, Topology};
use mcgpu_types::{ChipId, MachineConfig, Pipe, TopologyKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A packet on the oracle fabric: destination, size, payload.
type Packet = (ChipId, u64, u32);

/// The scan-every-packet fabric: every cycle each chip's whole transit
/// list is re-routed and retried in arrival order.
struct ScanFabric {
    topo: Box<dyn Topology>,
    links: Vec<Vec<Pipe<Packet>>>,
    alive: Vec<Vec<bool>>,
    transit: Vec<Vec<Packet>>,
    arrived: Vec<Vec<Packet>>,
    delivered: u64,
    bytes_sent: u64,
    sent_from: Vec<u64>,
}

impl ScanFabric {
    fn new(cfg: &MachineConfig, queue_depth: usize) -> Self {
        let topo = build_topology(cfg);
        let n = cfg.chips;
        let links = ChipId::all(n)
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
        ScanFabric {
            topo,
            links,
            alive,
            transit: vec![Vec::new(); n],
            arrived: vec![Vec::new(); n],
            delivered: 0,
            bytes_sent: 0,
            sent_from: vec![0; n],
        }
    }

    fn slot_towards(&self, a: ChipId, b: ChipId) -> usize {
        let pos = self.topo.neighbors(a).iter().position(|&n| n == b);
        pos.expect("adjacent")
    }

    fn fail_link(&mut self, a: ChipId, b: ChipId) {
        for (from, to) in [(a, b), (b, a)] {
            let slot = self.slot_towards(from, to);
            self.alive[from.index()][slot] = false;
            let stranded = self.links[from.index()][slot].drain();
            self.transit[from.index()].extend(stranded);
        }
    }

    fn can_send(&self, from: ChipId, to: ChipId) -> bool {
        match self.topo.route(from, to, &self.alive) {
            Some(slot) => self.links[from.index()][slot].can_push(),
            None => false,
        }
    }

    fn try_send(
        &mut self,
        from: ChipId,
        to: ChipId,
        payload: u32,
        bytes: u64,
    ) -> Result<(), SendError<u32>> {
        let Some(slot) = self.topo.route(from, to, &self.alive) else {
            return Err(SendError::NoRoute(payload));
        };
        match self.links[from.index()][slot].try_push((to, bytes, payload), bytes) {
            Ok(()) => {
                self.bytes_sent += bytes;
                self.sent_from[from.index()] += bytes;
                Ok(())
            }
            Err((_, _, p)) => Err(SendError::Full(p)),
        }
    }

    fn tick(&mut self, now: u64) {
        for chip in 0..self.links.len() {
            let waiting = std::mem::take(&mut self.transit[chip]);
            for pkt in waiting {
                match self.topo.route(ChipId(chip as u8), pkt.0, &self.alive) {
                    Some(slot) => {
                        if let Err(p) = self.links[chip][slot].try_push(pkt, pkt.1) {
                            self.transit[chip].push(p);
                        }
                    }
                    None => self.transit[chip].push(pkt),
                }
            }
        }
        for links in &mut self.links {
            for pipe in links {
                pipe.tick(now);
            }
        }
        for chip in 0..self.links.len() {
            for slot in 0..self.links[chip].len() {
                let next = self.topo.neighbors(ChipId(chip as u8))[slot];
                while let Some(pkt) = self.links[chip][slot].pop_ready(now) {
                    if pkt.0 == next {
                        self.delivered += 1;
                        self.arrived[next.index()].push(pkt);
                    } else {
                        self.transit[next.index()].push(pkt);
                    }
                }
            }
        }
    }

    fn pop_arrivals(&mut self, chip: ChipId) -> Vec<u32> {
        self.arrived[chip.index()].drain(..).map(|p| p.2).collect()
    }

    fn chip_load(&self, chip: ChipId) -> usize {
        let i = chip.index();
        self.links[i].iter().map(Pipe::len).sum::<usize>()
            + self.transit[i].len()
            + self.arrived[i].len()
    }

    fn len(&self) -> usize {
        (0..self.links.len())
            .map(|c| self.chip_load(ChipId(c as u8)))
            .sum()
    }

    /// Every payload still in the fabric, sorted.
    fn stranded(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self
            .links
            .iter()
            .flatten()
            .flat_map(|pipe| pipe.iter().map(|p| p.2))
            .chain(
                self.transit
                    .iter()
                    .chain(&self.arrived)
                    .flatten()
                    .map(|p| p.2),
            )
            .collect();
        all.sort_unstable();
        all
    }
}

fn topology_kind() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![
        Just(TopologyKind::Ring),
        Just(TopologyKind::Mesh2D),
        Just(TopologyKind::FullyConnected),
    ]
}

/// Cycles of random injection; the fabrics then drain for up to
/// `DRAIN_CYCLES` more (a partitioned fabric never empties).
const INJECT_CYCLES: u64 = 300;
const DRAIN_CYCLES: u64 = 3_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-slot FIFO fabric and the scan-every-packet oracle agree on
    /// every observable, every cycle, through link failures, and hold the
    /// same packets once drained.
    #[test]
    fn per_slot_fifos_match_the_scan_every_packet_oracle(
        kind in topology_kind(),
        chips in 2usize..=16,
        queue_depth in 1usize..=32,
        link_gbs in 4.0f64..64.0,
        link_latency in 1u64..=6,
        schedule in (1usize..=8, 0usize..=3, any::<u64>()),
    ) {
        let (load, failures, seed) = schedule;
        let mut cfg = MachineConfig::paper_baseline();
        cfg.topology = kind;
        cfg.chips = chips;
        cfg.interchip_pair_gbs = link_gbs;
        cfg.link_latency = link_latency;
        let mut rng = SmallRng::seed_from_u64(seed);
        let links = cfg.link_pairs();
        let fail_at: Vec<(u64, (ChipId, ChipId))> = (0..failures)
            .map(|_| {
                let cycle = rng.gen_range(0..INJECT_CYCLES);
                (cycle, links[rng.gen_range(0..links.len())])
            })
            .collect();

        let mut fabric: FabricNetwork<u32> = FabricNetwork::new(&cfg, queue_depth);
        let mut oracle = ScanFabric::new(&cfg, queue_depth);
        let mut next_payload = 0u32;
        for now in 0..INJECT_CYCLES + DRAIN_CYCLES {
            if now < INJECT_CYCLES {
                for _ in 0..rng.gen_range(0..=load) {
                    let from = ChipId(rng.gen_range(0..chips) as u8);
                    let to = ChipId(rng.gen_range(0..chips - 1) as u8);
                    let to = if to >= from { ChipId(to.0 + 1) } else { to };
                    let bytes = rng.gen_range(1..=256u64);
                    prop_assert_eq!(fabric.can_send(from, to), oracle.can_send(from, to));
                    let sent = fabric.try_send(from, to, next_payload, bytes);
                    prop_assert_eq!(sent, oracle.try_send(from, to, next_payload, bytes));
                    next_payload += 1;
                }
            }
            for &(_, (a, b)) in fail_at.iter().filter(|(cycle, _)| *cycle == now) {
                fabric.fail_link(a, b);
                oracle.fail_link(a, b);
                prop_assert_eq!(fabric.link_alive(a, b), oracle.alive[a.index()][oracle.slot_towards(a, b)]);
            }
            fabric.tick(now);
            oracle.tick(now);
            for chip in ChipId::all(chips) {
                prop_assert_eq!(fabric.pop_arrivals(chip, now), oracle.pop_arrivals(chip), "arrivals at chip {} cycle {}", chip.0, now);
                prop_assert_eq!(fabric.chip_load(chip), oracle.chip_load(chip));
                prop_assert_eq!(fabric.bytes_sent_from(chip), oracle.sent_from[chip.index()]);
            }
            prop_assert_eq!(fabric.len(), oracle.len());
            prop_assert_eq!(fabric.delivered(), oracle.delivered);
            prop_assert_eq!(fabric.bytes_sent(), oracle.bytes_sent);
            if now >= INJECT_CYCLES && oracle.len() == 0 {
                prop_assert!(fabric.is_empty());
                break;
            }
        }
        // Payloads are unique, so equal counts of each stranded payload
        // mean both sides hold the same packets.
        let stranded = oracle.stranded();
        prop_assert_eq!(fabric.len(), stranded.len());
        for p in stranded {
            prop_assert_eq!(fabric.count_matching(|&x| x == p), 1, "payload {} stranded in the oracle only", p);
        }
    }
}
