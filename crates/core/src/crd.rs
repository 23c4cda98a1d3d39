//! The Chip Request Directory (CRD) — §3.4, Fig. 7.
//!
//! While the LLC runs in the memory-side configuration during the profiling
//! window, the CRD at each memory partition predicts what the **SM-side**
//! hit rate *would have been*. It is a tiny set-sampled tag directory
//! (8 sets × 16 ways in the paper) whose blocks carry one presence bit per
//! chip (or one per chip per sector for sectored caches): the first access
//! by chip *i* sets bit *i* (a would-be miss that would install a replica in
//! chip *i*'s SM-side LLC); subsequent accesses by chip *i* with the bit set
//! are counted as would-be hits. Because profiling runs memory-side, the
//! CRD at a partition observes *every* request whose data is homed there.
//!
//! The paper's machine has 4 chips and a 4-bit presence field; the
//! directory here sizes its presence vector from the configured chip count
//! (up to 128 presence bits — `chips × sectors`), and its storage-overhead
//! accounting scales with it.

use mcgpu_types::{ChipId, LineAddr, SectorId};

#[derive(Debug, Clone, Copy)]
struct CrdBlock {
    tag: u64,
    valid: bool,
    /// Per-chip presence; for sectored caches, per chip *and* sector
    /// (chip-major groups: bit `chip * sectors + sector`).
    presence: u128,
    stamp: u64,
}

impl CrdBlock {
    const EMPTY: CrdBlock = CrdBlock {
        tag: 0,
        valid: false,
        presence: 0,
        stamp: 0,
    };
}

/// The set-sampled Chip Request Directory. See the [module docs](self).
///
/// # Example
/// ```
/// use sac::Crd;
/// use mcgpu_types::{ChipId, LineAddr};
///
/// // Sampling an 8-set LLC with the 8-set CRD: every request is sampled.
/// let mut crd = Crd::paper_default(8);
/// // First touch by chip 0: predicted SM-side miss. Second: predicted hit.
/// for _ in 0..2 {
///     crd.observe(LineAddr(42), None, ChipId(0));
/// }
/// assert_eq!(crd.predicted_hit_rate(), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct Crd {
    sets: Vec<Vec<CrdBlock>>,
    ways: usize,
    /// Chips tracked: one presence bit (per sector) each.
    chips: usize,
    /// Sectors per line (1 = conventional).
    sectors: u32,
    /// Total sets of the modelled per-chip LLC; requests are sampled when
    /// their LLC set index falls on a sampled set.
    llc_sets: usize,
    clock: u64,
    hits: u64,
    requests: u64,
}

impl Crd {
    /// The paper's configuration: 8 sets × 16 ways tracking the paper's 4
    /// chips, conventional lines, sampling a per-chip LLC with `llc_sets`
    /// sets.
    pub fn paper_default(llc_sets: usize) -> Self {
        Self::new(4, 8, 16, 1, llc_sets)
    }

    /// The paper's sectored-cache configuration (4 sectors per line).
    pub fn paper_sectored(llc_sets: usize) -> Self {
        Self::new(4, 8, 16, 4, llc_sets)
    }

    /// The paper's 8×16 directory geometry sized for a `chips`-chip
    /// machine — what the profiling collector instantiates per chip.
    pub fn for_chips(chips: usize, llc_sets: usize, sectored: bool) -> Self {
        Self::new(chips, 8, 16, if sectored { 4 } else { 1 }, llc_sets)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    /// Panics if `chips * sectors` exceeds the 128 presence bits, or any
    /// dimension is zero.
    pub fn new(chips: usize, sets: usize, ways: usize, sectors: u32, llc_sets: usize) -> Self {
        assert!(chips > 0 && sets > 0 && ways > 0 && sectors > 0 && llc_sets > 0);
        assert!(
            chips as u32 * sectors <= 128,
            "presence bits limited to 128 (chips x sectors)"
        );
        Crd {
            sets: vec![vec![CrdBlock::EMPTY; ways]; sets],
            ways,
            chips,
            sectors,
            llc_sets: llc_sets.max(sets),
            clock: 0,
            hits: 0,
            requests: 0,
        }
    }

    #[inline]
    fn llc_set_of(&self, line: LineAddr) -> usize {
        // Same mixing as the LLC slice uses, so sampling matches real sets.
        let mut x = line.index();
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x % self.llc_sets as u64) as usize
    }

    #[inline]
    fn presence_bit(&self, chip: ChipId, sector: Option<SectorId>) -> u128 {
        let s = if self.sectors > 1 {
            sector.map(|s| s.0 as u32).unwrap_or(0)
        } else {
            0
        };
        1u128 << (chip.index() as u32 * self.sectors + s)
    }

    /// Observe one request to this memory partition. Returns `Some(hit)`
    /// when the request fell on a sampled set (`None` = not sampled).
    ///
    /// # Panics
    /// Panics if `chip` exceeds the configured chip count.
    pub fn observe(
        &mut self,
        line: LineAddr,
        sector: Option<SectorId>,
        chip: ChipId,
    ) -> Option<bool> {
        assert!(
            chip.index() < self.chips,
            "chip {} outside the directory's {}-chip presence vector",
            chip.index(),
            self.chips
        );
        let llc_set = self.llc_set_of(line);
        // Sample the first `sets.len()` LLC sets (a fixed 1/N sample).
        if llc_set >= self.sets.len() {
            return None;
        }
        self.clock += 1;
        self.requests += 1;
        let bit = self.presence_bit(chip, sector);
        let set = &mut self.sets[llc_set];

        if let Some(block) = set.iter_mut().find(|b| b.valid && b.tag == line.index()) {
            block.stamp = self.clock;
            let hit = block.presence & bit != 0;
            block.presence |= bit;
            if hit {
                self.hits += 1;
            }
            return Some(hit);
        }

        // Install a new block (LRU victim).
        let victim = set
            .iter_mut()
            .min_by_key(|b| if b.valid { b.stamp } else { 0 })
            .expect("ways > 0");
        *victim = CrdBlock {
            tag: line.index(),
            valid: true,
            presence: bit,
            stamp: self.clock,
        };
        Some(false)
    }

    /// Predicted SM-side LLC hit rate: `CRD hits / CRD requests` (Fig. 7).
    /// Returns 0 when nothing was sampled.
    pub fn predicted_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Sampled requests so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Predicted hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Chips this directory tracks (presence-vector width in chip units).
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// Valid blocks currently held in the directory (observability gauge).
    pub fn occupied(&self) -> u64 {
        self.sets
            .iter()
            .map(|set| set.iter().filter(|b| b.valid).count() as u64)
            .sum()
    }

    /// Total block capacity (`sets × ways`).
    pub fn capacity(&self) -> u64 {
        (self.sets.len() * self.ways) as u64
    }

    /// Reset only the hit/request counters, keeping the directory contents
    /// warm (used by the mid-window warm-up reset).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.requests = 0;
    }

    /// Clear contents and counters (new profiling window).
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            for b in set {
                *b = CrdBlock::EMPTY;
            }
        }
        self.clock = 0;
        self.hits = 0;
        self.requests = 0;
    }

    /// Storage cost in bytes (§3.6): each block holds a 30-bit tag plus
    /// `chips × sectors` presence bits — 544 B conventional, 736 B
    /// sectored for the paper's 4-chip 8×16 configuration, and growing
    /// with chip count (e.g. 608 B conventional at 8 chips).
    pub fn storage_bytes(&self) -> usize {
        let bits_per_block = 30 + self.chips * self.sectors as usize;
        self.sets.len() * self.ways * bits_per_block / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line that is guaranteed to fall on a sampled set.
    fn sampled_line(crd: &Crd) -> LineAddr {
        (0..10_000u64)
            .map(LineAddr)
            .find(|&l| crd.llc_set_of(l) < crd.sets.len())
            .expect("some line is sampled")
    }

    #[test]
    fn storage_matches_paper() {
        assert_eq!(Crd::paper_default(2048).storage_bytes(), 544);
        assert_eq!(Crd::paper_sectored(2048).storage_bytes(), 736);
    }

    #[test]
    fn storage_scales_with_chip_count() {
        // bits/block = 30 + chips x sectors over the 8x16 geometry.
        assert_eq!(Crd::for_chips(4, 2048, false).storage_bytes(), 544);
        assert_eq!(Crd::for_chips(8, 2048, false).storage_bytes(), 608);
        assert_eq!(Crd::for_chips(16, 2048, false).storage_bytes(), 736);
        assert_eq!(Crd::for_chips(4, 2048, true).storage_bytes(), 736);
        assert_eq!(Crd::for_chips(8, 2048, true).storage_bytes(), 992);
    }

    #[test]
    fn repeat_access_by_same_chip_predicts_hit() {
        let mut crd = Crd::paper_default(64);
        let l = sampled_line(&crd);
        assert_eq!(crd.observe(l, None, ChipId(1)), Some(false));
        assert_eq!(crd.observe(l, None, ChipId(1)), Some(true));
        assert_eq!(crd.hits(), 1);
        assert_eq!(crd.requests(), 2);
    }

    #[test]
    fn first_access_by_each_chip_is_a_miss() {
        // Truly-shared line: every chip pays one cold miss (one replica per
        // chip under SM-side), then hits.
        let mut crd = Crd::paper_default(64);
        let l = sampled_line(&crd);
        for chip in 0..4u8 {
            assert_eq!(crd.observe(l, None, ChipId(chip)), Some(false));
        }
        for chip in 0..4u8 {
            assert_eq!(crd.observe(l, None, ChipId(chip)), Some(true));
        }
        assert!((crd.predicted_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wide_presence_tracks_many_chips_independently() {
        // A 16-chip directory: every chip pays its own cold miss on a
        // shared line, then hits — presence bits beyond the paper's 4-bit
        // field must not alias.
        let mut crd = Crd::for_chips(16, 64, false);
        let l = sampled_line(&crd);
        for chip in 0..16u8 {
            assert_eq!(crd.observe(l, None, ChipId(chip)), Some(false));
        }
        for chip in 0..16u8 {
            assert_eq!(crd.observe(l, None, ChipId(chip)), Some(true));
        }
    }

    #[test]
    #[should_panic(expected = "presence vector")]
    fn observe_rejects_out_of_range_chip() {
        let mut crd = Crd::paper_default(64);
        let l = sampled_line(&crd);
        crd.observe(l, None, ChipId(4));
    }

    #[test]
    fn sectored_tracks_per_sector() {
        let mut crd = Crd::paper_sectored(64);
        let l = sampled_line(&crd);
        assert_eq!(crd.observe(l, Some(SectorId(0)), ChipId(0)), Some(false));
        // Different sector, same chip: still a (sector) miss.
        assert_eq!(crd.observe(l, Some(SectorId(1)), ChipId(0)), Some(false));
        assert_eq!(crd.observe(l, Some(SectorId(0)), ChipId(0)), Some(true));
    }

    #[test]
    fn capacity_pressure_evicts_lru() {
        // 1 set x 2 ways sampling a 1-set LLC: every line sampled into set 0.
        let mut crd = Crd::new(4, 1, 2, 1, 1);
        crd.observe(LineAddr(1), None, ChipId(0));
        crd.observe(LineAddr(2), None, ChipId(0));
        crd.observe(LineAddr(3), None, ChipId(0)); // evicts line 1
        assert_eq!(crd.observe(LineAddr(1), None, ChipId(0)), Some(false));
    }

    #[test]
    fn reset_clears_everything() {
        let mut crd = Crd::paper_default(64);
        let l = sampled_line(&crd);
        crd.observe(l, None, ChipId(0));
        crd.observe(l, None, ChipId(0));
        crd.reset();
        assert_eq!(crd.requests(), 0);
        assert_eq!(crd.predicted_hit_rate(), 0.0);
        assert_eq!(crd.observe(l, None, ChipId(0)), Some(false));
    }

    #[test]
    fn occupancy_counts_valid_blocks() {
        let mut crd = Crd::paper_default(64);
        assert_eq!(crd.occupied(), 0);
        assert_eq!(crd.capacity(), 8 * 16);
        let l = sampled_line(&crd);
        crd.observe(l, None, ChipId(0));
        assert_eq!(crd.occupied(), 1);
        crd.reset_counters();
        assert_eq!(crd.occupied(), 1, "counter reset keeps the directory warm");
        crd.reset();
        assert_eq!(crd.occupied(), 0);
    }

    #[test]
    fn sampling_rate_is_roughly_sets_over_llc_sets() {
        let mut crd = Crd::paper_default(128); // 8/128 = 1/16 sampled
        let mut sampled = 0;
        let n = 50_000u64;
        for i in 0..n {
            if crd.observe(LineAddr(i), None, ChipId(0)).is_some() {
                sampled += 1;
            }
        }
        let rate = sampled as f64 / n as f64;
        assert!((rate - 1.0 / 16.0).abs() < 0.01, "sampling rate {rate}");
    }
}
