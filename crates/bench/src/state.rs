//! Checkpoint state directories: snapshot naming and stale-state GC.
//!
//! A sweep with mid-cell checkpointing enabled keeps one `mcgpu-ckpt-v1`
//! snapshot per in-flight cell in a *state directory*, named
//! `<cell>-<config-hash>.ckpt` (see [`cell_snapshot_path`]). Snapshots
//! are removed the moment their cell reaches a terminal outcome, but a
//! crash between the journal append and the unlink — or an interrupted
//! [`mcgpu_types::fsio::atomic_write`] — can strand files. [`gc_state`]
//! reclaims them:
//!
//! * `*.tmp` files ([`fsio::TMP_SUFFIX`]) are debris from interrupted
//!   atomic writes and are always reclaimable;
//! * `*.ckpt` files that no longer frame-verify are corrupt (torn write
//!   that was never renamed over, bit rot) — a restore would reject them
//!   anyway, so they are reclaimable;
//! * `*.ckpt` files whose config hash has a terminal record in the run
//!   journal are superseded — the cell already completed (replayed from
//!   the journal on resume) or exhausted its retries;
//! * everything else is kept: a live snapshot of an in-flight cell, or a
//!   file this module does not understand.
//!
//! `sacsim --gc-state` exposes this directly (with `--dry-run` for a
//! listing).

use crate::journal::{Journal, RecordOutcome};
use mcgpu_types::ckpt::read_snapshot;
use mcgpu_types::fsio;
use std::path::{Path, PathBuf};

/// The on-disk snapshot path for one sweep cell: `dir/<cell>-<hash>.ckpt`
/// with path separators in the cell name (`"BENCH/org"`) flattened to
/// `_`. The 16-hex-digit config hash keys the snapshot to the exact
/// machine configuration, trace parameters, benchmark and organization
/// that produced it, so a changed experiment never resumes from a stale
/// cell's state (the engine's config fingerprint would reject it anyway;
/// the name makes the miss cheap and the directory self-describing).
pub fn cell_snapshot_path(dir: &Path, cell: &str, config_hash: u64) -> PathBuf {
    let safe: String = cell
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{safe}-{config_hash:016x}.ckpt"))
}

/// Why [`gc_state`] classified a file as reclaimable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcReason {
    /// `*.tmp` debris from an interrupted atomic write.
    OrphanedTmp,
    /// A snapshot that fails frame verification (torn or corrupt).
    Corrupt,
    /// A snapshot whose cell already has a terminal journal record.
    Superseded,
}

impl std::fmt::Display for GcReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GcReason::OrphanedTmp => "orphaned-tmp",
            GcReason::Corrupt => "corrupt",
            GcReason::Superseded => "superseded",
        })
    }
}

/// What one [`gc_state`] pass found.
#[derive(Debug, Default)]
pub struct GcReport {
    /// Reclaimable files, with why. In dry-run mode they are still on
    /// disk; otherwise they have been removed.
    pub reclaimable: Vec<(PathBuf, GcReason)>,
    /// Files kept: live snapshots and anything unrecognized.
    pub kept: Vec<PathBuf>,
    /// Whether this was a dry run (nothing was deleted).
    pub dry_run: bool,
}

impl GcReport {
    /// Human-readable listing, one line per file.
    pub fn render(&self) -> String {
        let verb = if self.dry_run {
            "would remove"
        } else {
            "removed"
        };
        let mut s = String::new();
        for (path, reason) in &self.reclaimable {
            s.push_str(&format!("{verb} {} ({reason})\n", path.display()));
        }
        for path in &self.kept {
            s.push_str(&format!("kept    {} (live)\n", path.display()));
        }
        s.push_str(&format!(
            "{} reclaimable, {} kept\n",
            self.reclaimable.len(),
            self.kept.len()
        ));
        s
    }
}

/// The `-<16 hex digits>.ckpt` suffix parsed off a snapshot file name.
fn snapshot_hash(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".ckpt")?;
    let (_, hex) = stem.rsplit_once('-')?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Whether the journal holds a terminal record for a snapshot's config
/// hash. Completed cells replay from the journal on resume; quarantined
/// cells re-execute from scratch with a *different* (escalated-watchdog)
/// configuration the snapshot's engine fingerprint would reject — either
/// way the snapshot can never be consumed again.
fn is_superseded(journal: Option<&Journal>, hash: u64) -> bool {
    journal.is_some_and(|j| {
        j.records().iter().any(|r| {
            r.config_hash == hash
                && matches!(
                    r.outcome,
                    RecordOutcome::Completed { .. } | RecordOutcome::Quarantined { .. }
                )
        })
    })
}

/// Sweep `dir` for stale checkpoint state, removing (or with `dry_run`,
/// only listing) everything reclaimable. See the module docs for the
/// classification. A missing directory yields an empty report. Results
/// are sorted by path so listings are deterministic.
///
/// # Errors
/// I/O errors reading the directory or deleting a file; classification
/// itself never fails (an unreadable snapshot is simply corrupt).
pub fn gc_state(dir: &Path, journal: Option<&Journal>, dry_run: bool) -> std::io::Result<GcReport> {
    let mut report = GcReport {
        dry_run,
        ..GcReport::default()
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let reason = if name.ends_with(fsio::TMP_SUFFIX) {
            Some(GcReason::OrphanedTmp)
        } else if name.ends_with(".ckpt") {
            if read_snapshot(&path).is_err() {
                Some(GcReason::Corrupt)
            } else if snapshot_hash(&name).is_some_and(|h| is_superseded(journal, h)) {
                Some(GcReason::Superseded)
            } else {
                None
            }
        } else {
            None
        };
        match reason {
            Some(r) => {
                if !dry_run {
                    std::fs::remove_file(&path)?;
                }
                report.reclaimable.push((path, r));
            }
            None => report.kept.push(path),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalRecord;
    use mcgpu_types::ckpt::write_snapshot;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sac-state-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn snapshot_path_is_flat_and_keyed_by_hash() {
        let p = cell_snapshot_path(Path::new("/s"), "SN/SAC", 0xabcd);
        assert_eq!(p, Path::new("/s/SN_SAC-000000000000abcd.ckpt"));
        assert_eq!(snapshot_hash("SN_SAC-000000000000abcd.ckpt"), Some(0xabcd));
        assert_eq!(snapshot_hash("junk.ckpt"), None);
    }

    #[test]
    fn gc_classifies_tmp_corrupt_superseded_and_live() {
        let d = tdir("classify");
        // Orphaned tmp debris.
        std::fs::write(d.join("x.ckpt.tmp"), b"partial").unwrap();
        // Corrupt snapshot (not a valid frame).
        std::fs::write(d.join("bad-0000000000000001.ckpt"), b"garbage").unwrap();
        // Valid snapshots: one superseded by a journal record, one live.
        write_snapshot(&cell_snapshot_path(&d, "SN/SAC", 2), b"payload").unwrap();
        write_snapshot(&cell_snapshot_path(&d, "CFD/mem", 3), b"payload").unwrap();
        // A file GC does not understand stays put.
        std::fs::write(d.join("README"), b"hands off").unwrap();

        let jpath = d.join("journal.jsonl");
        let mut j = Journal::create(&jpath).unwrap();
        j.append(JournalRecord {
            cell: "SN/SAC".to_string(),
            config_hash: 2,
            config: None,
            mode: None,
            attempts: 1,
            outcome: RecordOutcome::Completed {
                stats_json: "{}".to_string(),
            },
        })
        .unwrap();

        let dry = gc_state(&d, Some(&j), true).unwrap();
        assert_eq!(dry.reclaimable.len(), 3, "{:?}", dry.reclaimable);
        assert!(dry
            .reclaimable
            .iter()
            .all(|(p, _)| p.exists() || p.file_name().is_some()));
        assert!(
            d.join("x.ckpt.tmp").exists(),
            "dry run must not delete anything"
        );
        let listing = dry.render();
        assert!(listing.contains("would remove"), "{listing}");
        assert!(listing.contains("orphaned-tmp"), "{listing}");
        assert!(listing.contains("corrupt"), "{listing}");
        assert!(listing.contains("superseded"), "{listing}");

        let real = gc_state(&d, Some(&j), false).unwrap();
        assert_eq!(real.reclaimable.len(), 3);
        assert!(!d.join("x.ckpt.tmp").exists());
        assert!(!d.join("bad-0000000000000001.ckpt").exists());
        assert!(!cell_snapshot_path(&d, "SN/SAC", 2).exists());
        assert!(
            cell_snapshot_path(&d, "CFD/mem", 3).exists(),
            "a live snapshot with no terminal record survives"
        );
        assert!(d.join("README").exists());
        // The journal itself lives outside the classification (it is a
        // .jsonl, not a .ckpt) and must survive.
        assert!(jpath.exists());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn gc_of_a_missing_directory_is_empty_not_an_error() {
        let report = gc_state(Path::new("/nonexistent/sac-state"), None, false).unwrap();
        assert!(report.reclaimable.is_empty());
        assert!(report.kept.is_empty());
    }
}
