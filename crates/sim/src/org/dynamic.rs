//! The Dynamic LLC organization of Milic et al. (MICRO 2017).

use super::{BoundaryAction, EpochActions, EpochCtx, LlcOrgPolicy, Pause, RouteMode};
use crate::dynamic::DynamicCtl;
use crate::packet::FillAction;
use mcgpu_types::{CoherenceKind, ConfigError, LlcOrgKind, PolicyCtx};

/// Dynamic-split policy: the structure of [`StaticHalfPolicy`]
/// (tiered routing, replicate-on-return, remote-pool flush at boundaries)
/// with the local/remote way split re-balanced every epoch by the
/// [`DynamicCtl`] bandwidth heuristic — policy-internal state the engine
/// never sees directly.
///
/// [`StaticHalfPolicy`]: super::StaticHalfPolicy
#[derive(Debug)]
pub struct DynamicPolicy {
    ctl: DynamicCtl,
}

impl DynamicPolicy {
    /// Create the dynamic-split policy, re-evaluating every `epoch_cycles`.
    ///
    /// # Errors
    /// [`ConfigError`] when the LLC has fewer than 2 ways (both pools need
    /// at least one way).
    pub fn new(ctx: &PolicyCtx, epoch_cycles: u64) -> Result<Self, ConfigError> {
        if ctx.llc_assoc < 2 {
            return Err(ConfigError::new(
                "way-partitioned organizations need an LLC with at least 2 ways",
            ));
        }
        Ok(DynamicPolicy {
            ctl: DynamicCtl::new(ctx.llc_assoc, epoch_cycles),
        })
    }
}

impl LlcOrgPolicy for DynamicPolicy {
    fn kind(&self) -> LlcOrgKind {
        LlcOrgKind::Dynamic
    }

    fn route_mode(&self) -> RouteMode {
        RouteMode::Tiered
    }

    fn remote_fill_action(&self) -> FillAction {
        FillAction::FillLocalSlice
    }

    fn way_split(&self) -> Option<usize> {
        Some(self.ctl.local_ways())
    }

    fn boundary_action(&self, coherence: CoherenceKind) -> BoundaryAction {
        match coherence {
            CoherenceKind::Software => BoundaryAction::FlushRemoteDirty,
            CoherenceKind::Hardware => BoundaryAction::DropRemoteReplicas,
        }
    }

    fn begin_kernel(&mut self, now: u64, ring_bytes: u64, mem_bytes: u64) {
        self.ctl.new_kernel(now, ring_bytes, mem_bytes);
    }

    fn on_cycle(&mut self, ctx: &EpochCtx<'_>, _pause: Pause) -> EpochActions {
        EpochActions {
            set_local_ways: self
                .ctl
                .maybe_adjust(ctx.now, ctx.ring_bytes, ctx.mem_bytes),
            ..EpochActions::default()
        }
    }

    fn next_policy_event(&self, _now: u64) -> u64 {
        // `maybe_adjust` is a pure no-op until the controller's next epoch
        // boundary; the skip clamps there so the adjustment still happens
        // at exactly the stepped loop's cycle.
        self.ctl.next_epoch()
    }
}
