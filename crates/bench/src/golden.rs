//! The fixed golden-stats suite, shared between the byte-exact regression
//! test (`tests/golden.rs`) and the `golden_sweep` binary the CI
//! kill/resume job drives. One definition of the cases guarantees the
//! journaled sweep reproduces exactly the snapshots the test checks.

use mcgpu_trace::{generate, profiles, TraceParams};
use mcgpu_types::{CoherenceKind, LlcOrgKind, MachineConfig};

/// One golden case: a machine variant, a benchmark, and an organization.
pub struct Case {
    /// Snapshot file stem under `tests/golden/`.
    pub name: &'static str,
    /// Benchmark profile name.
    pub bench: &'static str,
    /// LLC organization.
    pub org: LlcOrgKind,
    /// Run with hardware coherence instead of the software default.
    pub hardware_coherence: bool,
    /// Run with sectored caches.
    pub sectored: bool,
}

const fn case(name: &'static str, bench: &'static str, org: LlcOrgKind) -> Case {
    Case {
        name,
        bench,
        org,
        hardware_coherence: false,
        sectored: false,
    }
}

/// The fixed suite. Kept small enough for every-PR CI (quick trace volume)
/// while covering each organization, both coherence schemes, and sectored
/// caches.
pub fn suite() -> Vec<Case> {
    vec![
        case("sn_memside", "SN", LlcOrgKind::MemorySide),
        case("sn_smside", "SN", LlcOrgKind::SmSide),
        case("sn_sac", "SN", LlcOrgKind::Sac),
        case("cfd_static", "CFD", LlcOrgKind::StaticHalf),
        case("cfd_dynamic", "CFD", LlcOrgKind::Dynamic),
        case("srad_sac", "SRAD", LlcOrgKind::Sac),
        Case {
            hardware_coherence: true,
            ..case("rn_smside_hwcoh", "RN", LlcOrgKind::SmSide)
        },
        Case {
            sectored: true,
            ..case("gemm_sac_sectored", "GEMM", LlcOrgKind::Sac)
        },
    ]
}

impl Case {
    /// The machine variant this case runs on.
    pub fn config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::experiment_baseline();
        if self.hardware_coherence {
            cfg.coherence = CoherenceKind::Hardware;
        }
        if self.sectored {
            cfg.sectored = true;
        }
        cfg
    }

    /// The trace volume every golden case uses.
    pub fn params() -> TraceParams {
        TraceParams {
            total_accesses: 15_000,
            ..TraceParams::quick()
        }
    }

    /// Run the case and serialize its stats to canonical JSON.
    ///
    /// # Panics
    /// Panics on any simulation error (golden cases are known-good).
    pub fn run(&self) -> String {
        self.try_run().expect("golden case completes")
    }

    /// Run the case, returning typed errors instead of panicking.
    ///
    /// # Errors
    /// [`crate::CellError`] on any simulation failure.
    pub fn try_run(&self) -> Result<String, crate::CellError> {
        let cfg = self.config();
        let profile = profiles::by_name(self.bench).expect("known benchmark");
        let wl = generate(&cfg, &profile, &Self::params());
        Ok(crate::try_run_one(&cfg, &wl, self.org)?.to_canonical_json())
    }

    /// Journal key for this case (see [`crate::cell_config_hash`]).
    pub fn config_hash(&self) -> u64 {
        crate::cell_config_hash(&self.config(), &Self::params(), self.bench, self.org)
    }

    /// Full canonical configuration description whose hash is
    /// [`Case::config_hash`]; stored in the journal as the collision guard.
    pub fn config_desc(&self) -> String {
        crate::cell_config_desc(&self.config(), &Self::params(), self.bench, self.org)
    }
}
