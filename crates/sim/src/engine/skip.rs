//! Event-driven idle-cycle skipping (tier one of the two-tier engine).
//!
//! When the machine is completely quiescent — no request in flight, every
//! queue and pipe empty, every bandwidth credit saturated at its cap — a
//! stepped tick is a pure clock increment: nothing moves, nothing is
//! sampled off-grid, and the only state that evolves is each cluster's
//! compute-gap countdown. This module detects that condition, asks every
//! component for the next cycle at which it could act, and jumps the clock
//! to one cycle before the minimum so the next real [`tick`] executes the
//! event at exactly the cycle the stepped loop would have.
//!
//! The contract is *byte identity*: with skipping enabled, a run must
//! produce the same [`RunStats`](crate::stats::RunStats), the same
//! observability report, and the same checkpoint bytes at the same cut
//! points as the stepped loop. The scan therefore stops at every cycle
//! where the stepped loop does anything at all, however small:
//!
//! * **Clusters** — an eligible cluster (within the CTA wave-lead bound)
//!   issues when its gap countdown expires, or immediately when it holds a
//!   deferred access; done clusters still drain their gap counter, which is
//!   checkpointed state, so the jump replays the decrements in bulk.
//! * **Fault plan** — the next scheduled hardware fault.
//! * **Policy** — [`LlcOrgPolicy::next_policy_event`] bounds when the
//!   organization's `on_cycle` hook can next act (SAC profiling deadlines,
//!   divergence-monitor expiry, Dynamic epoch boundaries).
//! * **Sampling grids** — LLC occupancy every [`OCC_SAMPLE_PERIOD`]
//!   cycles, the observability epoch window, and the caller's throughput
//!   observer cadence. Occupancy sampling accumulates `f64` state even
//!   when idle, so the real tick must run at each grid point.
//! * **Guard grids** — the checkpoint-write grid ([`CKPT_WRITE_PERIOD`])
//!   and the conservation-audit period.
//! * **Watchdog** — the forward-progress deadline. The stepped loop checks
//!   the watchdog every cycle; folding `watchdog_cycle + watchdog_window`
//!   into the scan means a quiescent-but-wedged machine still reports
//!   [`SimError::Deadlock`](super::SimError::Deadlock) at exactly the same
//!   cycle, so skipping can never mask a deadlock.
//! * **Cycle budget** — `max_cycles`, so `CycleLimit` fires identically.
//!
//! If the minimum event is `now + 1` the scan is a no-op and the stepped
//! loop proceeds; skipping only ever removes ticks that provably do
//! nothing.
//!
//! [`tick`]: Simulator::tick
//! [`LlcOrgPolicy::next_policy_event`]: crate::org::LlcOrgPolicy::next_policy_event

use super::ckpt::CKPT_WRITE_PERIOD;
use super::tick::{CTA_WAVE_LEAD, OCC_SAMPLE_PERIOD};
use super::Simulator;
use crate::chip::Chip;
use crate::cluster::Cluster;
use crate::org::Pause;

/// Smallest cycle strictly greater than `now` congruent to `phase`
/// modulo `period`. Returns `u64::MAX` for a zero period (no such grid).
fn next_on_grid(now: u64, period: u64, phase: u64) -> u64 {
    if period == 0 {
        return u64::MAX;
    }
    let r = now % period;
    let delta = (phase + period - r - 1) % period + 1;
    now.saturating_add(delta)
}

impl Simulator {
    /// Attempt one idle jump: if the machine is quiescent and every
    /// component's next event is more than one cycle away, advance the
    /// clock to one cycle before the earliest event and replay the
    /// cluster gap countdowns in bulk. Called from the main run loop
    /// before each tick when idle skipping is enabled; `every` is the
    /// caller's throughput-observer cadence (`u64::MAX` = none).
    pub(super) fn skip_quiescent_cycles(&mut self, every: u64) {
        // Cheap gate first, then the full no-op proof: every queue empty
        // and every bandwidth credit bitwise saturated, so the skipped
        // refills would not have changed checkpointed state.
        if self.in_flight != 0 || self.pause != Pause::Running {
            return;
        }
        if !self.ring.is_empty()
            || !self.ring.tick_is_noop()
            || !self.chips.iter().all(Chip::tick_is_noop)
        {
            return;
        }

        let now = self.cycle;
        let mut event = u64::MAX;

        // Clusters. Mirror `issue_phase` exactly: the wave-lead filter is
        // computed against the slowest unfinished cluster, and `issue()`
        // (which decrements the gap counter even on finished clusters) is
        // only reached by clusters inside the lead bound. During a
        // quiescent window no cluster's progress changes, so eligibility
        // is frozen for the whole jump.
        let Some(min_progress) = self
            .chips
            .iter()
            .flat_map(|ch| ch.clusters.iter())
            .filter(|cl| !cl.done())
            .map(Cluster::progress)
            .min()
        else {
            // Every cluster done with nothing in flight: the loop's
            // `kernel_done` check ends the kernel, nothing to skip.
            return;
        };
        let lead_cap = min_progress + CTA_WAVE_LEAD;
        for cl in self.chips.iter().flat_map(|ch| ch.clusters.iter()) {
            if cl.progress() > lead_cap {
                continue;
            }
            if cl.has_deferred() {
                // A deferred access re-issues on the very next tick.
                return;
            }
            if !cl.done() {
                event = event.min(now + u64::from(cl.gap_remaining()) + 1);
            }
        }

        // Scheduled hardware faults.
        if let Some(due) = self.fault_plan.next_due() {
            event = event.min(due.max(now + 1));
        }

        // The organization's next possible action.
        event = event.min(self.policy.next_policy_event(now).max(now + 1));

        // Sampling grids: occupancy, observability epochs, the caller's
        // throughput observer.
        event = event.min(next_on_grid(now, OCC_SAMPLE_PERIOD, 0));
        if let Some(o) = self.obs.as_deref() {
            event = event.min(next_on_grid(now, o.epoch_window(), 0));
        }
        if every != u64::MAX {
            event = event.min(next_on_grid(now, every, 0));
        }

        // Guard grids: checkpoint writes and the conservation audit.
        if self.ckpt_interval != 0 {
            event = event.min(next_on_grid(now, CKPT_WRITE_PERIOD, 1));
        }
        if self.audit_period != 0 {
            event = event.min(next_on_grid(now, self.audit_period, 0));
        }

        // The forward-progress watchdog: the stepped loop would abort with
        // `Deadlock` once `cycle - watchdog_cycle >= watchdog_window`, so
        // the jump may not pass the deadline cycle. Progress is frozen
        // while quiescent, so clamping here makes the deadlock fire at the
        // identical cycle with skipping on.
        if self.watchdog_window != u64::MAX {
            let deadline = self.watchdog_cycle.saturating_add(self.watchdog_window);
            event = event.min(deadline.max(now + 1));
        }

        // The cycle budget: `CycleLimit` must trigger at the same cycle.
        event = event.min(self.max_cycles.max(now + 1));

        if event <= now + 1 {
            return;
        }
        let jumped = event - 1 - now;
        self.cycle = event - 1;
        // Replay the per-tick gap decrements the skipped `issue_phase`
        // calls would have performed. Saturating matches the stepped loop:
        // a finished cluster's counter floors at zero and stays there.
        for chip in &mut self.chips {
            for cl in &mut chip.clusters {
                if cl.progress() <= lead_cap {
                    cl.skip_gap(jumped);
                }
            }
        }
        self.skip_jumps += 1;
        self.skipped_cycles += jumped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_arithmetic() {
        // Next multiple of 256 strictly after `now`.
        assert_eq!(next_on_grid(0, 256, 0), 256);
        assert_eq!(next_on_grid(255, 256, 0), 256);
        assert_eq!(next_on_grid(256, 256, 0), 512);
        // Next cycle == 1 (mod 65_536) strictly after `now`.
        assert_eq!(next_on_grid(0, 65_536, 1), 1);
        assert_eq!(next_on_grid(1, 65_536, 1), 65_537);
        assert_eq!(next_on_grid(2, 65_536, 1), 65_537);
        assert_eq!(next_on_grid(65_536, 65_536, 1), 65_537);
        // Degenerate period.
        assert_eq!(next_on_grid(7, 0, 0), u64::MAX);
    }
}
