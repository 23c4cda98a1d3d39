//! Engine checkpoint/restore: the `mcgpu-ckpt-v1` snapshot of the full
//! live machine state, for cycle-granular crash recovery of long runs.
//!
//! A snapshot captures *everything the simulation's future depends on*:
//! per-cluster issue cursors and MSHRs, every LLC slice (tags, sector
//! bits, LRU, partition, stats), slice service pipes and pending-fetch
//! tables, crossbar and ring packets in flight, DRAM channel state, the
//! coherence sharer directory, the organization policy's controller
//! state, the fault-plan cursor, watchdog state, accumulated statistics
//! and the observability recorders. Restoring a snapshot into a freshly
//! built [`Simulator`] (same [`MachineConfig`], same organization, same
//! workload) and running to completion is **byte-identical** to the
//! uninterrupted run — including the observability report.
//!
//! What is deliberately *not* serialized:
//!
//! * the access traces themselves (an [`Arc<[MemAccess]>`] per cluster)
//!   — the restoring side regenerates the workload deterministically and
//!   [`Simulator::restore`] re-attaches the in-progress kernel's streams
//!   before decoding cursor state. A fingerprint over every access
//!   guards against re-attaching a different workload;
//! * builder-provided run limits (`max_cycles`, watchdog window, audit
//!   period) — the caller configures the new simulator identically, and a
//!   restore under *different* limits is a feature (e.g. extending the
//!   cycle budget of a run that hit its limit);
//! * per-cycle scratch buffers and spare-entry pools — allocation reuse
//!   only, no simulation-visible state.
//!
//! Snapshots are framed by [`mcgpu_types::ckpt`] (magic, version,
//! length, FNV-1a checksum) and written atomically via
//! [`mcgpu_types::fsio`], so a crash mid-write leaves the previous
//! snapshot readable and a torn file is detected, never misparsed.

use super::coherence::SharerDirectory;
use super::diagnostics::SimError;
use super::Simulator;
use crate::org::Pause;
use crate::packet::RingPayload;
use crate::stats::KernelStats;
use mcgpu_mem::PageTable;
use mcgpu_trace::Workload;
use mcgpu_types::ckpt::{fnv1a64, read_snapshot, write_snapshot};
use mcgpu_types::{CkptError, CkptResult, Dec, Enc, FaultPlan};
use std::path::Path;

/// Grid of periodic checkpoint writes: they land on cycles ≡ 1 mod this.
pub(super) const CKPT_WRITE_PERIOD: u64 = 65_536;

/// Fingerprint of a workload's complete access stream (name, kernel
/// structure, every address and access kind), stamped into snapshots so
/// a restore against a different workload fails loudly with
/// [`CkptError::FingerprintMismatch`] instead of silently replaying the
/// wrong traces.
pub fn workload_fingerprint(wl: &Workload) -> u64 {
    let mut e = Enc::new();
    e.put_str(&wl.name);
    e.put_seq_len(wl.kernels.len());
    for kernel in &wl.kernels {
        e.put_u32(kernel.behavior.compute_gap);
        e.put_seq_len(kernel.per_cluster.len());
        for stream in &kernel.per_cluster {
            e.put_seq_len(stream.len());
            for a in stream.iter() {
                e.put_u64(a.addr.0);
                e.put_u8(a.kind.is_write() as u8);
            }
        }
    }
    fnv1a64(&e.into_bytes())
}

fn save_pause(e: &mut Enc, pause: Pause) {
    e.put_u8(match pause {
        Pause::Running => 0,
        Pause::SacDrain => 1,
        Pause::SacFlush => 2,
    });
}

fn load_pause(d: &mut Dec<'_>) -> CkptResult<Pause> {
    match d.get_u8()? {
        0 => Ok(Pause::Running),
        1 => Ok(Pause::SacDrain),
        2 => Ok(Pause::SacFlush),
        t => Err(CkptError::Decode(format!("invalid Pause tag {t}"))),
    }
}

impl Simulator {
    /// Fingerprint of the machine configuration this simulator was built
    /// for, stamped into snapshots so a restore into a differently
    /// configured machine fails loudly.
    fn config_fingerprint(&self) -> u64 {
        // `MachineConfig` derives `Debug` over plain-data fields, so its
        // debug rendering is a complete, deterministic serialization.
        fnv1a64(format!("{:?}", self.cfg).as_bytes())
    }

    /// The current simulation cycle (the restore point after
    /// [`Simulator::restore`], `0` on a fresh simulator).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Serialize the complete live machine state into a `mcgpu-ckpt-v1`
    /// payload (unframed; [`Simulator::write_checkpoint`] adds framing
    /// and durability). Read-only with respect to simulation state.
    pub fn checkpoint(&self, wl: &Workload) -> Vec<u8> {
        self.checkpoint_payload(workload_fingerprint(wl))
    }

    pub(super) fn checkpoint_payload(&self, wl_fp: u64) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u64(self.config_fingerprint());
        e.put_u64(wl_fp);

        // Kernel-loop cursor.
        e.put_usize(self.kernel_index);
        e.put_u64(self.kernel_start_cycle);
        e.put_u64(self.work_before);

        // Engine scalars.
        e.put_u64(self.cycle);
        e.put_u64(self.next_id);
        e.put_u64(self.in_flight);
        e.put_u64(self.max_in_flight);
        save_pause(&mut e, self.pause);
        e.put_u64(self.watchdog_sig);
        e.put_u64(self.watchdog_cycle);
        e.put_seq_len(self.link_factor.len());
        for &f in &self.link_factor {
            e.put_f64(f);
        }
        e.put_seq_len(self.dram_factor.len());
        for &f in &self.dram_factor {
            e.put_f64(f);
        }

        // Accumulators.
        e.put_u64(self.writes_done);
        for &r in &self.responses_by_origin {
            e.put_u64(r);
        }
        e.put_u64(self.overhead_cycles);
        e.put_u64(self.occ_samples);
        e.put_f64(self.occ_local);
        e.put_f64(self.occ_fill);

        // Resilience state.
        self.fault_plan.save(&mut e);
        self.directory.save(&mut e);

        // Completed-kernel statistics.
        e.put_seq_len(self.kernels.len());
        for k in &self.kernels {
            k.save(&mut e);
        }

        // Memory-system and network state.
        self.page_table.save(&mut e);
        self.ring.save_with(&mut e, |e, p| p.save(e));
        e.put_seq_len(self.chips.len());
        for chip in &self.chips {
            chip.save(&mut e);
        }

        // Organization policy (kind label guards cross-org restores).
        e.put_str(self.policy.kind().label());
        self.policy.save_state(&mut e);

        // Observability recorders (byte-identical reports after resume).
        match self.obs.as_deref() {
            Some(o) => {
                e.put_bool(true);
                o.save(&mut e);
            }
            None => e.put_bool(false),
        }

        e.into_bytes()
    }

    /// Write a framed snapshot to `path` atomically (write temp file,
    /// fsync, rename, fsync parent directory).
    ///
    /// # Errors
    /// [`SimError::Checkpoint`] if the file cannot be written; the
    /// previous snapshot at `path`, if any, is left intact.
    pub fn write_checkpoint(&self, path: &Path, wl: &Workload) -> Result<(), SimError> {
        let payload = self.checkpoint(wl);
        write_snapshot(path, &payload).map_err(|e| SimError::Checkpoint {
            detail: format!("writing {}: {e}", path.display()),
        })
    }

    /// Overwrite this simulator's state from a snapshot payload, resuming
    /// mid-kernel at the snapshot's exact cycle. The simulator must have
    /// been built with the same [`MachineConfig`](mcgpu_types::MachineConfig)
    /// and organization as the one that wrote the snapshot, and `wl` must
    /// be the same workload — both are fingerprint-checked. The next
    /// [`run`](Simulator::run) continues from the restore point and
    /// produces byte-identical results to the uninterrupted run.
    ///
    /// # Errors
    /// [`CkptError::FingerprintMismatch`] on a config/workload mismatch,
    /// [`CkptError::Decode`] on truncated or inconsistent payloads. On
    /// error the simulator may be partially overwritten: discard it and
    /// build a fresh one (the callers' fallback is a full re-run).
    pub fn restore(&mut self, payload: &[u8], wl: &Workload) -> CkptResult<()> {
        let mut d = Dec::new(payload);

        let snap_cfg = d.get_u64()?;
        let expected_cfg = self.config_fingerprint();
        if snap_cfg != expected_cfg {
            return Err(CkptError::FingerprintMismatch {
                snapshot: snap_cfg,
                expected: expected_cfg,
            });
        }
        let snap_wl = d.get_u64()?;
        let expected_wl = workload_fingerprint(wl);
        if snap_wl != expected_wl {
            return Err(CkptError::FingerprintMismatch {
                snapshot: snap_wl,
                expected: expected_wl,
            });
        }

        let kernel_index = d.get_usize()?;
        if kernel_index >= wl.kernels.len() {
            return Err(CkptError::Decode(format!(
                "snapshot kernel index {kernel_index} out of range ({} kernels)",
                wl.kernels.len()
            )));
        }
        self.kernel_index = kernel_index;
        self.kernel_start_cycle = d.get_u64()?;
        self.work_before = d.get_u64()?;

        self.cycle = d.get_u64()?;
        self.next_id = d.get_u64()?;
        self.in_flight = d.get_u64()?;
        self.max_in_flight = d.get_u64()?;
        self.pause = load_pause(&mut d)?;
        self.watchdog_sig = d.get_u64()?;
        self.watchdog_cycle = d.get_u64()?;
        for factors in [&mut self.link_factor, &mut self.dram_factor] {
            let n = d.get_seq_len()?;
            if n != factors.len() {
                return Err(CkptError::Decode(format!(
                    "bandwidth factor count mismatch: snapshot {n}, machine {}",
                    factors.len()
                )));
            }
            for f in factors.iter_mut() {
                *f = d.get_f64()?;
            }
        }

        self.writes_done = d.get_u64()?;
        for r in &mut self.responses_by_origin {
            *r = d.get_u64()?;
        }
        self.overhead_cycles = d.get_u64()?;
        self.occ_samples = d.get_u64()?;
        self.occ_local = d.get_f64()?;
        self.occ_fill = d.get_f64()?;

        self.fault_plan = FaultPlan::load(&mut d)?;
        self.directory = SharerDirectory::load(&mut d)?;

        let nk = d.get_seq_len()?;
        self.kernels.clear();
        for _ in 0..nk {
            self.kernels.push(KernelStats::load(&mut d)?);
        }

        self.page_table = PageTable::load(&mut d)?;
        self.ring.load_into(&mut d, RingPayload::load)?;

        // Re-attach the in-progress kernel's access streams *before*
        // decoding the chips: cluster cursor validation needs the real
        // trace lengths, and the workload fingerprint above guarantees
        // these are the very streams the snapshot's cursors index into.
        let kernel = &wl.kernels[kernel_index];
        let gap = kernel.behavior.compute_gap;
        for (flat, chip) in self.chips.iter_mut().enumerate() {
            for (ci, cluster) in chip.clusters.iter_mut().enumerate() {
                let idx = flat * self.cfg.clusters_per_chip + ci;
                cluster.load_kernel(kernel.per_cluster[idx].clone(), gap);
            }
        }
        let nchips = d.get_seq_len()?;
        if nchips != self.chips.len() {
            return Err(CkptError::Decode(format!(
                "chip count mismatch: snapshot {nchips}, machine {}",
                self.chips.len()
            )));
        }
        for chip in &mut self.chips {
            chip.load_into(&mut d)?;
        }

        let kind = d.get_str()?;
        let live = self.policy.kind().label();
        if kind != live {
            return Err(CkptError::Decode(format!(
                "organization mismatch: snapshot {kind:?}, simulator {live:?}"
            )));
        }
        self.policy.load_state(&mut d)?;

        let has_obs = d.get_bool()?;
        match (self.obs.as_deref_mut(), has_obs) {
            (Some(o), true) => o.load_into(&mut d)?,
            (None, false) => {}
            (live_obs, snap_obs) => {
                return Err(CkptError::Decode(format!(
                    "observability mismatch: snapshot {}, simulator {}",
                    if snap_obs { "recorded" } else { "off" },
                    if live_obs.is_some() { "on" } else { "off" },
                )));
            }
        }

        if d.remaining() != 0 {
            return Err(CkptError::Decode(format!(
                "{} trailing bytes after snapshot payload",
                d.remaining()
            )));
        }

        // The cache partition split was restored with the slices; do NOT
        // reapply the policy's split (a mid-epoch Dynamic adjustment or a
        // mid-switch SAC would be clobbered). Arm the resume cursor and
        // align the periodic-write clock with the uninterrupted run's.
        self.resume_kernel = Some(kernel_index);
        self.wl_fingerprint = Some(snap_wl);
        self.last_ckpt_cycle = self.cycle;
        Ok(())
    }

    /// Read, validate and adopt the framed snapshot at `path`. See
    /// [`Simulator::restore`].
    ///
    /// # Errors
    /// Any framing error (missing/torn/corrupt file) or restore error.
    pub fn restore_from_file(&mut self, path: &Path, wl: &Workload) -> CkptResult<()> {
        let payload = read_snapshot(path)?;
        self.restore(&payload, wl)
    }

    /// Periodic-trigger hook, called once per cycle from the run loop.
    /// Fires on the [`CKPT_WRITE_PERIOD`] grid once `ckpt_interval`
    /// cycles have elapsed since the last write; no-ops (one branch) when
    /// checkpointing is off.
    pub(super) fn maybe_checkpoint(&mut self) -> Result<(), SimError> {
        if self.ckpt_interval == 0 {
            return Ok(());
        }
        if self.cycle % CKPT_WRITE_PERIOD != 1
            || self.cycle.saturating_sub(self.last_ckpt_cycle) < self.ckpt_interval
        {
            return Ok(());
        }
        let Some(path) = self.ckpt_path.clone() else {
            return Ok(());
        };
        let wl_fp = self.wl_fingerprint.ok_or_else(|| SimError::Checkpoint {
            detail: "workload fingerprint missing at periodic checkpoint".to_string(),
        })?;
        let payload = self.checkpoint_payload(wl_fp);
        write_snapshot(&path, &payload).map_err(|e| SimError::Checkpoint {
            detail: format!("writing {}: {e}", path.display()),
        })?;
        self.last_ckpt_cycle = self.cycle;
        Ok(())
    }
}
