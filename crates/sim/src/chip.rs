//! Per-chip hardware: clusters, NoCs, LLC slices, memory partition.

use crate::cluster::Cluster;
use crate::mshr::PendingFetches;
use crate::packet::{FabricPayload, ReqEnvelope, RspEnvelope};
use mcgpu_cache::{CacheConfig, SetAssocCache};
use mcgpu_mem::MemoryPartition;
use mcgpu_noc::Crossbar;
use mcgpu_types::{AccessKind, ChipId, ClusterId, MachineConfig, Pipe};
use std::collections::VecDeque;

/// Queue depth of each crossbar output port and the fabric egress.
const PORT_QUEUE: usize = 32;
/// Queue depth in front of each LLC slice.
const SLICE_QUEUE: usize = 48;

/// One LLC slice: the cache array behind a bandwidth/latency service pipe.
#[derive(Debug)]
pub struct LlcSlice {
    /// The cache array.
    pub cache: SetAssocCache,
    /// Service pipe modelling slice lookup bandwidth (`B_LLC / N`) and
    /// latency.
    pub service: Pipe<ReqEnvelope>,
    /// Slice MSHRs: requests merged onto an in-flight line fetch, keyed by
    /// line index. An entry is inserted when the fetch is initiated and
    /// drained when the line arrives.
    pub pending: PendingFetches,
    /// Fused off by fault injection: the slice no longer holds or allocates
    /// lines (every lookup misses, fills are dropped), but its service pipe
    /// and MSHRs keep draining so no request is lost.
    pub disabled: bool,
    line_size: u64,
}

impl LlcSlice {
    fn new(cfg: &MachineConfig) -> Self {
        let mut ccfg = CacheConfig::llc_slice(cfg.llc_slice_bytes(), cfg.llc_assoc, cfg.line_size);
        if cfg.sectored {
            ccfg = ccfg.with_sectors(cfg.sectors_per_line);
        }
        LlcSlice {
            cache: SetAssocCache::new(ccfg),
            service: Pipe::new(cfg.llc_slice_gbs, cfg.llc_latency, Some(SLICE_QUEUE)),
            pending: PendingFetches::default(),
            disabled: false,
            line_size: cfg.line_size,
        }
    }

    /// Bytes a request charges against the slice's lookup bandwidth: a full
    /// line for reads (data array read-out), the coalesced sector for
    /// writes.
    pub fn charge_bytes(&self, env: &ReqEnvelope) -> u64 {
        match env.req.access.kind {
            AccessKind::Read => self.line_size,
            AccessKind::Write => mcgpu_types::packet::WRITE_PAYLOAD_BYTES,
        }
    }
}

/// One GPU chip of the multi-chip package.
#[derive(Debug)]
pub struct Chip {
    /// This chip's id.
    pub id: ChipId,
    /// SM clusters with their private L1s.
    pub clusters: Vec<Cluster>,
    /// Request network: SM clusters (+ fabric ingress) → LLC slices.
    pub xbar_req: Crossbar<ReqEnvelope>,
    /// Response network: slices/memory (+ fabric ingress) → SM clusters.
    pub xbar_rsp: Crossbar<RspEnvelope>,
    /// The LLC slices.
    pub slices: Vec<LlcSlice>,
    /// The chip's memory partition.
    pub memory: MemoryPartition,
    /// NoC leg carrying traffic towards the inter-chip links.
    pub fabric_egress: Pipe<FabricPayload>,
    /// Payloads waiting to enter `fabric_egress`.
    pub pending_fabric: VecDeque<FabricPayload>,
    /// Payload that left `fabric_egress` but found the fabric link full.
    pub fabric_retry: Option<FabricPayload>,
    /// Requests (from the fabric) waiting to enter `xbar_req`.
    pub pending_req: VecDeque<ReqEnvelope>,
    /// Responses waiting to enter `xbar_rsp`.
    pub pending_rsp: VecDeque<RspEnvelope>,
    /// SM-side bypass path: fabric → memory controller (Fig. 6, path 4).
    pub bypass_to_mem: Pipe<ReqEnvelope>,
}

impl Chip {
    /// Build one chip of the configured machine.
    pub fn new(cfg: &MachineConfig, id: ChipId) -> Self {
        let clusters = (0..cfg.clusters_per_chip)
            .map(|i| Cluster::new(cfg, ClusterId::new(id, i)))
            .collect();
        let slices = (0..cfg.slices_per_chip)
            .map(|_| LlcSlice::new(cfg))
            .collect();
        // Request ports feed the slices at slice intake bandwidth; response
        // ports share the bisection evenly over clusters.
        let req_port_gbs = cfg.llc_slice_gbs;
        let rsp_port_gbs = cfg.noc_bisection_gbs / cfg.clusters_per_chip as f64;
        Chip {
            id,
            clusters,
            xbar_req: Crossbar::new(
                cfg.slices_per_chip,
                req_port_gbs,
                cfg.noc_bisection_gbs,
                cfg.noc_latency,
                PORT_QUEUE,
            ),
            xbar_rsp: Crossbar::new(
                cfg.clusters_per_chip,
                rsp_port_gbs,
                cfg.noc_bisection_gbs,
                cfg.noc_latency,
                PORT_QUEUE,
            ),
            slices,
            memory: MemoryPartition::new(
                cfg.channels_per_chip,
                cfg.dram_channel_gbs,
                cfg.dram_latency,
                cfg.line_size,
            ),
            fabric_egress: Pipe::new(cfg.egress_gbs(id), 4, Some(PORT_QUEUE)),
            pending_fabric: VecDeque::new(),
            fabric_retry: None,
            pending_req: VecDeque::new(),
            pending_rsp: VecDeque::new(),
            bypass_to_mem: Pipe::latency_only(8),
        }
    }

    /// Whether every queue, pipe, network and memory channel on this chip
    /// is empty (used for drain detection).
    pub fn is_quiescent(&self) -> bool {
        self.xbar_req.is_empty()
            && self.xbar_rsp.is_empty()
            && self
                .slices
                .iter()
                .all(|s| s.service.is_empty() && s.pending.is_empty())
            && self.memory.is_empty()
            && self.fabric_egress.is_empty()
            && self.pending_fabric.is_empty()
            && self.fabric_retry.is_none()
            && self.pending_req.is_empty()
            && self.pending_rsp.is_empty()
            && self.bypass_to_mem.is_empty()
    }

    /// Whether ticking every datapath element on this chip is a state
    /// no-op: [`is_quiescent`](Chip::is_quiescent) plus every bandwidth
    /// budget (crossbar bisections and ports, slice service pipes, memory
    /// channels, fabric egress, the bypass pipe) saturated at its credit cap,
    /// so the per-cycle refills no longer change any stored bits. This is
    /// the per-chip precondition for the engine's idle-cycle skip.
    pub fn tick_is_noop(&self) -> bool {
        self.is_quiescent()
            && self.xbar_req.tick_is_noop()
            && self.xbar_rsp.tick_is_noop()
            && self.slices.iter().all(|s| s.service.tick_is_noop())
            && self.memory.tick_is_noop()
            && self.fabric_egress.tick_is_noop()
            && self.bypass_to_mem.tick_is_noop()
    }

    /// Aggregate LLC statistics over this chip's slices.
    pub fn llc_stats(&self) -> mcgpu_cache::CacheStats {
        let mut s = mcgpu_cache::CacheStats::default();
        for slice in &self.slices {
            s.merge(slice.cache.stats());
        }
        s
    }

    /// Aggregate L1 statistics over this chip's clusters.
    pub fn l1_stats(&self) -> mcgpu_cache::CacheStats {
        let mut s = mcgpu_cache::CacheStats::default();
        for c in &self.clusters {
            s.merge(c.l1_stats());
        }
        s
    }

    /// LLC occupancy by home across all slices `(local, remote, capacity)`.
    pub fn llc_occupancy(&self) -> (usize, usize, usize) {
        let mut local = 0;
        let mut remote = 0;
        let mut cap = 0;
        for s in &self.slices {
            let (l, r) = s.cache.occupancy_by_home();
            local += l;
            remote += r;
            cap += s.cache.config().capacity_lines();
        }
        (local, remote, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_matches_configuration() {
        let cfg = MachineConfig::experiment_baseline();
        let chip = Chip::new(&cfg, ChipId(2));
        assert_eq!(chip.clusters.len(), cfg.clusters_per_chip);
        assert_eq!(chip.slices.len(), cfg.slices_per_chip);
        assert_eq!(chip.memory.num_channels(), cfg.channels_per_chip);
        assert_eq!(chip.xbar_req.ports(), cfg.slices_per_chip);
        assert_eq!(chip.xbar_rsp.ports(), cfg.clusters_per_chip);
        assert!(chip.is_quiescent());
    }

    #[test]
    fn slice_charges_line_for_reads() {
        let cfg = MachineConfig::experiment_baseline();
        let chip = Chip::new(&cfg, ChipId(0));
        let read = ReqEnvelope {
            req: mcgpu_types::Request {
                id: mcgpu_types::RequestId(1),
                origin: ClusterId::new(ChipId(0), 0),
                access: mcgpu_types::MemAccess::read(0u64),
                home: ChipId(0),
            },
            stage: crate::packet::ReqStage::ToHomeSlice,
        };
        assert_eq!(chip.slices[0].charge_bytes(&read), cfg.line_size);
        let write = ReqEnvelope {
            req: mcgpu_types::Request {
                access: mcgpu_types::MemAccess::write(0u64),
                ..read.req
            },
            ..read
        };
        assert_eq!(chip.slices[0].charge_bytes(&write), 32);
    }
}
