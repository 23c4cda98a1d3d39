//! Replay drivers: a cell's own generated workload pushed straight through
//! one layer's public API, to time the host cost that `Simulator::run`
//! hides inside its tick loop. They are host-cost probes, not models: the
//! cache replay skips the L1s and the way partitions, the DRAM replay is fed
//! the cache replay's misses and dirty evictions, and the fabric replay
//! carries a prefix of the cross-chip accesses with no LLC in front. Each checks
//! conservation: every request or packet injected is delivered.

use mcgpu_cache::{CacheConfig, DataHome, LookupOutcome, SetAssocCache};
use mcgpu_mem::{interleave::slice_index, DramRequest, MemoryPartition};
use mcgpu_noc::{FabricNetwork, SendError};
use mcgpu_trace::Workload;
use mcgpu_types::packet::{REQ_HEADER_BYTES, RSP_HEADER_BYTES, WRITE_PAYLOAD_BYTES};
use mcgpu_types::{
    AccessKind, ChipId, ClusterId, LineAddr, LlcOrgKind, MachineConfig, MemAccess, Pipe, Request,
    RequestId,
};
use std::collections::VecDeque;
use std::time::Instant;

/// Injection queue depth of each fabric link, as the engine builds it.
const FABRIC_QUEUE_DEPTH: usize = 32;

/// Cross-chip requests per fabric replay. A packet's host cost grows with
/// the fabric's backlog, so this bounds the replay's cost on multi-hop
/// fabrics while the backlog still builds.
const NOC_REPLAY_REQUESTS: usize = 8192;

/// Admission bound of a chip's pending fabric queue, and latency and queue
/// bound of its egress pipe, as the engine builds them.
const PENDING_LIMIT: usize = 64;
const EGRESS_LATENCY: u64 = 4;
const EGRESS_QUEUE: usize = 32;

/// Cycle cap of the closed-loop replays; reaching it means the layer lost
/// work.
const MAX_REPLAY_CYCLES: u64 = 200_000_000;

/// Host cost of one replay.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Operations pushed through the layer (lookups, requests or packets).
    pub ops: u64,
    pub ns: u64,
}

/// One DRAM operation the cache replay sent to a memory partition.
#[derive(Debug, Clone, Copy)]
pub struct DramOp {
    chip: usize,
    line: LineAddr,
    /// A dirty eviction: consumes bandwidth, has no response.
    writeback: bool,
    kind: AccessKind,
}

fn chip_of(cfg: &MachineConfig, flat_cluster: usize) -> usize {
    flat_cluster / cfg.clusters_per_chip
}

fn home_of(cfg: &MachineConfig, wl: &Workload, issuer: usize, a: &MemAccess) -> usize {
    wl.layout
        .natural_home(a.addr.page(cfg.page_size))
        .map_or(issuer, ChipId::index)
}

/// The cell's access stream through `SetAssocCache` LLC slices chosen by
/// `interleave::slice_index`: at the data's home chip for memory-side,
/// at the issuing chip for every other organization. Returns the replay
/// and the DRAM operations it produced.
pub fn cache(
    cfg: &MachineConfig,
    wl: &Workload,
    org: LlcOrgKind,
) -> Result<(Replay, Vec<DramOp>), String> {
    let spc = cfg.slices_per_chip;
    let mut ccfg = CacheConfig::llc_slice(cfg.llc_slice_bytes(), cfg.llc_assoc, cfg.line_size);
    if cfg.sectored {
        ccfg = ccfg.with_sectors(cfg.sectors_per_line);
    }
    let mut slices: Vec<SetAssocCache> = (0..cfg.chips * spc)
        .map(|_| SetAssocCache::new(ccfg.clone()))
        .collect();
    let mut dram = Vec::new();
    let mut lookups = 0u64;
    let start = Instant::now();
    for (flat, a) in wl.merged_stream() {
        let issuer = chip_of(cfg, flat);
        let home = home_of(cfg, wl, issuer, &a);
        let chip = if org == LlcOrgKind::MemorySide {
            home
        } else {
            issuer
        };
        let line = a.addr.line(cfg.line_size);
        let sector = cfg
            .sectored
            .then(|| LineAddr::sector_of(a.addr, cfg.line_size, cfg.sectors_per_line));
        let write = a.kind == AccessKind::Write;
        let slice = &mut slices[chip * spc + slice_index(line, spc)];
        lookups += 1;
        if slice.lookup(line, sector, write) == LookupOutcome::Hit {
            continue;
        }
        dram.push(DramOp {
            chip: home,
            line,
            writeback: false,
            kind: a.kind,
        });
        let data_home = if home == chip {
            DataHome::Local
        } else {
            DataHome::Remote
        };
        if let Some(ev) = slice.fill(line, sector, data_home, write) {
            if ev.dirty {
                dram.push(DramOp {
                    chip,
                    line: ev.line,
                    writeback: true,
                    kind: AccessKind::Write,
                });
            }
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    let counted: u64 = slices.iter().map(|s| s.stats().accesses).sum();
    let resolved: u64 = slices
        .iter()
        .map(|s| s.stats().hits + s.stats().misses + s.stats().sector_misses)
        .sum();
    if counted != lookups || resolved != lookups || lookups != wl.total_accesses() as u64 {
        return Err(format!(
            "cache replay lost lookups: {lookups} issued, {counted} counted, {resolved} resolved, {} in the workload",
            wl.total_accesses()
        ));
    }
    Ok((Replay { ops: lookups, ns }, dram))
}

/// The cache replay's DRAM operations through one `MemoryPartition` per
/// chip (push / tick / pop), closed-loop with at most `window / chips`
/// requests outstanding per chip.
pub fn mem(cfg: &MachineConfig, ops: &[DramOp], window: u64) -> Result<Replay, String> {
    let per_chip = (window as usize / cfg.chips).max(1);
    let mut parts: Vec<MemoryPartition> = (0..cfg.chips)
        .map(|_| {
            MemoryPartition::new(
                cfg.channels_per_chip,
                cfg.dram_channel_gbs,
                cfg.dram_latency,
                cfg.line_size,
            )
        })
        .collect();
    let mut queues: Vec<VecDeque<&DramOp>> = vec![VecDeque::new(); cfg.chips];
    for op in ops {
        queues[op.chip].push_back(op);
    }
    let requests = ops.iter().filter(|o| !o.writeback).count() as u64;
    let mut outstanding = vec![0usize; cfg.chips];
    let mut ready = Vec::new();
    let (mut delivered, mut next_id, mut now) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while delivered < requests
        || queues.iter().any(|q| !q.is_empty())
        || !parts.iter().all(MemoryPartition::is_empty)
    {
        for (chip, part) in parts.iter_mut().enumerate() {
            while outstanding[chip] < per_chip {
                let Some(op) = queues[chip].pop_front() else {
                    break;
                };
                if op.writeback {
                    part.push_writeback(op.line);
                    continue;
                }
                let access = MemAccess {
                    addr: op.line.base(cfg.line_size),
                    kind: op.kind,
                };
                part.push(DramRequest {
                    request: Request {
                        id: RequestId(next_id),
                        origin: ClusterId::new(ChipId(chip as u8), 0),
                        access,
                        home: ChipId(chip as u8),
                    },
                    from_local_slice: true,
                    slice: None,
                });
                next_id += 1;
                outstanding[chip] += 1;
            }
            part.tick(now);
            ready.clear();
            part.pop_ready_into(now, &mut ready);
            outstanding[chip] -= ready.len();
            delivered += ready.len() as u64;
        }
        now += 1;
        if now > MAX_REPLAY_CYCLES {
            return Err(format!(
                "DRAM replay stalled: {delivered} of {requests} requests delivered"
            ));
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    let served: u64 = parts
        .iter()
        .map(|p| p.served_reads() + p.served_writes())
        .sum();
    if served != requests || delivered != requests {
        return Err(format!(
            "DRAM replay lost requests: {requests} pushed, {delivered} delivered, {served} served"
        ));
    }
    Ok(Replay {
        ops: ops.len() as u64,
        ns,
    })
}

/// The cell's cross-chip accesses (issuer chip → `layout.natural_home`) as
/// request packets, each answered by a response packet, through a
/// `FabricNetwork` on the cell's topology. The replay takes the stream's
/// first [`NOC_REPLAY_REQUESTS`] cross-chip accesses, fewer if the cell
/// moved fewer fabric bytes. Each chip injects as the engine does: a new
/// request enters the chip's pending queue only while that queue holds
/// fewer than 64 packets, and the queue drains through an egress pipe
/// (`egress_gbs`, 4-cycle latency, 32 entries) that holds one packet for
/// retry when its link is full. Closed loop: at most `window` requests are
/// outstanding machine-wide. Returns the replay and the mean number of
/// packets inside the fabric per cycle.
pub fn noc(
    cfg: &MachineConfig,
    wl: &Workload,
    window: u64,
    fabric_bytes: u64,
) -> Result<(Replay, f64), String> {
    // (issuer, home, request bytes, response bytes), in stream order.
    let mut reqs: Vec<(u8, u8, u64, u64)> = Vec::new();
    let mut replay_bytes = 0;
    for (flat, a) in wl.merged_stream() {
        if replay_bytes >= fabric_bytes || reqs.len() == NOC_REPLAY_REQUESTS {
            break;
        }
        let issuer = chip_of(cfg, flat);
        let home = home_of(cfg, wl, issuer, &a);
        if home != issuer {
            let (req, rsp) = match a.kind {
                AccessKind::Read => (REQ_HEADER_BYTES, RSP_HEADER_BYTES + cfg.line_size),
                AccessKind::Write => (REQ_HEADER_BYTES + WRITE_PAYLOAD_BYTES, RSP_HEADER_BYTES),
            };
            reqs.push((issuer as u8, home as u8, req, rsp));
            replay_bytes += req + rsp;
        }
    }
    // Payload: request index << 1, low bit set on the response.
    let dest = |p: u64| {
        let (issuer, home, _, _) = reqs[(p >> 1) as usize];
        ChipId(if p & 1 == 0 { home } else { issuer })
    };
    let bytes = |p: u64| {
        let (_, _, req, rsp) = reqs[(p >> 1) as usize];
        if p & 1 == 0 {
            req
        } else {
            rsp
        }
    };
    let total = reqs.len() as u64;
    let window = window.max(1);
    let mut fabric: FabricNetwork<u64> = FabricNetwork::new(cfg, FABRIC_QUEUE_DEPTH);
    let mut unsent: Vec<VecDeque<u64>> = vec![VecDeque::new(); cfg.chips];
    for (i, r) in reqs.iter().enumerate() {
        unsent[r.0 as usize].push_back((i as u64) << 1);
    }
    let mut pending: Vec<VecDeque<u64>> = vec![VecDeque::new(); cfg.chips];
    let mut egress: Vec<Pipe<u64>> = ChipId::all(cfg.chips)
        .map(|c| Pipe::new(cfg.egress_gbs(c), EGRESS_LATENCY, Some(EGRESS_QUEUE)))
        .collect();
    let mut retry: Vec<Option<u64>> = vec![None; cfg.chips];
    let mut arrivals = Vec::new();
    let (mut outstanding, mut completed, mut in_network, mut now) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    while completed < total {
        // Rotate the first issuer so no chip owns the window.
        for k in 0..cfg.chips {
            let chip = (now as usize + k) % cfg.chips;
            while outstanding < window && pending[chip].len() < PENDING_LIMIT {
                let Some(p) = unsent[chip].pop_front() else {
                    break;
                };
                pending[chip].push_back(p);
                outstanding += 1;
            }
        }
        for chip in 0..cfg.chips {
            let from = ChipId(chip as u8);
            if let Some(p) = retry[chip].take() {
                retry[chip] = fabric
                    .try_send(from, dest(p), p, bytes(p))
                    .err()
                    .map(SendError::into_payload);
            }
            while let Some(&p) = pending[chip].front() {
                if egress[chip].try_push(p, bytes(p)).is_err() {
                    break;
                }
                pending[chip].pop_front();
            }
            egress[chip].tick(now);
            while retry[chip].is_none() {
                let Some(p) = egress[chip].pop_ready(now) else {
                    break;
                };
                retry[chip] = fabric
                    .try_send(from, dest(p), p, bytes(p))
                    .err()
                    .map(SendError::into_payload);
            }
        }
        fabric.tick(now);
        for (chip, queue) in pending.iter_mut().enumerate() {
            arrivals.clear();
            fabric.pop_arrivals_into(ChipId(chip as u8), now, &mut arrivals);
            for &p in &arrivals {
                if p & 1 == 0 {
                    queue.push_back(p | 1);
                } else {
                    outstanding -= 1;
                    completed += 1;
                }
            }
        }
        in_network += fabric.len() as u64;
        now += 1;
        if now > MAX_REPLAY_CYCLES {
            return Err(format!(
                "fabric replay stalled: {completed} of {total} requests answered"
            ));
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    if fabric.delivered() != 2 * total || !fabric.is_empty() {
        return Err(format!(
            "fabric replay lost packets: {} injected, {} delivered, {} left inside",
            2 * total,
            fabric.delivered(),
            fabric.len()
        ));
    }
    Ok((
        Replay { ops: 2 * total, ns },
        in_network as f64 / now.max(1) as f64,
    ))
}
