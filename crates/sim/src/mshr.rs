//! Miss-status tables: the SM cluster's MSHR file and the LLC slice's
//! outstanding-fetch table. Both are looked up by line on every miss and
//! every fill, and both grow large at figure volume — an L1 MSHR file holds
//! up to `mshrs_per_cluster` entries (256 in the experiment baseline), and a
//! slice's table is unbounded (thousands of fetches wait behind deep DRAM
//! queues). Each keeps its entries in one `Vec` plus an index from line to
//! position, so every operation is O(1). Nothing reads the entries in
//! order, so the order itself is not observable.

use crate::packet::ReqEnvelope;

/// Marks an unused [`LineIndex`] slot.
const EMPTY: u32 = u32::MAX;
/// Fewest slots an allocated [`LineIndex`] holds.
const MIN_SLOTS: usize = 16;

/// An open-addressed, linear-probing map from a line index to that line's
/// position in an entry `Vec` owned by the caller. A slot holds only a
/// `u32` position; probes read the key back through the owner's entries,
/// so the index costs four bytes per slot and the `Vec` stays the single
/// record of contents and order. The table starts unallocated, doubles to
/// stay at most half full, and deletes by shifting the rest of the probe
/// run back (no tombstones).
#[derive(Debug, Default)]
struct LineIndex {
    slots: Vec<u32>,
}

impl LineIndex {
    /// The slot a probe for `line` starts at (Fibonacci hashing: the top
    /// bits of a multiplicative hash). Only called on an allocated table.
    #[inline]
    fn home(&self, line: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    /// The slot holding `line`'s position, if `line` is indexed.
    #[inline]
    fn slot_of<T>(&self, line: u64, entries: &[(u64, T)]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut s = self.home(line);
        loop {
            match self.slots[s] {
                EMPTY => return None,
                p if entries[p as usize].0 == line => return Some(s),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// `line`'s position in `entries`, if present.
    #[inline]
    fn find<T>(&self, line: u64, entries: &[(u64, T)]) -> Option<usize> {
        self.slot_of(line, entries).map(|s| self.slots[s] as usize)
    }

    /// Index the entry just pushed onto the end of `entries`.
    fn push<T>(&mut self, entries: &[(u64, T)]) {
        let pos = entries.len() - 1;
        if 2 * entries.len() > self.slots.len() {
            self.rebuild(entries);
        } else {
            self.place(entries[pos].0, pos);
        }
    }

    /// Store `pos` in the first free slot of `line`'s probe run.
    fn place(&mut self, line: u64, pos: usize) {
        let mask = self.slots.len() - 1;
        let mut s = self.home(line);
        while self.slots[s] != EMPTY {
            s = (s + 1) & mask;
        }
        self.slots[s] = u32::try_from(pos).expect("miss-status table exceeds u32 positions");
    }

    /// Re-index every entry from scratch, growing (never shrinking) the
    /// table so it stays at most half full.
    fn rebuild<T>(&mut self, entries: &[(u64, T)]) {
        let size = (2 * entries.len())
            .next_power_of_two()
            .max(MIN_SLOTS)
            .max(self.slots.len());
        self.slots.clear();
        self.slots.resize(size, EMPTY);
        for (pos, (line, _)) in entries.iter().enumerate() {
            self.place(*line, pos);
        }
    }

    /// Mirror `entries.swap_remove(pos)`: unindex the entry at `pos` and
    /// re-point the last entry, which the removal moves into `pos`. Call
    /// *before* the owner's `swap_remove`, while `entries` still has the
    /// old layout.
    fn swap_remove<T>(&mut self, pos: usize, entries: &[(u64, T)]) {
        let hole = self
            .slot_of(entries[pos].0, entries)
            .expect("entry is indexed");
        self.delete(hole, entries);
        let last = entries.len() - 1;
        if pos != last {
            let s = self
                .slot_of(entries[last].0, entries)
                .expect("entry is indexed");
            self.slots[s] = pos as u32;
        }
    }

    /// Backward-shift deletion: empty slot `hole`, then walk the rest of
    /// its probe run and pull back every entry whose home does not lie
    /// (cyclically) between the hole and its current slot.
    fn delete<T>(&mut self, mut hole: usize, entries: &[(u64, T)]) {
        let mask = self.slots.len() - 1;
        let mut s = (hole + 1) & mask;
        loop {
            let p = self.slots[s];
            if p == EMPTY {
                break;
            }
            let home = self.home(entries[p as usize].0);
            if s.wrapping_sub(home) & mask >= s.wrapping_sub(hole) & mask {
                self.slots[hole] = p;
                hole = s;
            }
            s = (s + 1) & mask;
        }
        self.slots[hole] = EMPTY;
    }
}

/// An SM cluster's MSHR file: the read misses in flight, as
/// `(line index, merged accesses)` entries in allocation order (with
/// `swap_remove`'s reordering on retirement), plus a line index over them.
/// The entry `Vec` is preallocated to the cluster's MSHR limit; the index
/// grows lazily.
#[derive(Debug)]
pub struct MshrFile {
    entries: Vec<(u64, u32)>,
    index: LineIndex,
}

impl MshrFile {
    /// An empty file with room for `limit` entries.
    pub fn with_capacity(limit: usize) -> Self {
        MshrFile {
            entries: Vec::with_capacity(limit),
            index: LineIndex::default(),
        }
    }

    /// Merge another access onto an outstanding miss. Returns `false` when
    /// no fetch for `line` is in flight.
    pub fn merge(&mut self, line: u64) -> bool {
        match self.index.find(line, &self.entries) {
            Some(i) => {
                self.entries[i].1 += 1;
                true
            }
            None => false,
        }
    }

    /// Allocate a new entry for `line` with one merged access.
    pub fn allocate(&mut self, line: u64) {
        debug_assert!(self.index.find(line, &self.entries).is_none());
        self.entries.push((line, 1));
        self.index.push(&self.entries);
    }

    /// Retire the entry for `line`, returning its merged count (1 when the
    /// fill had no registered miss, e.g. an L1 refill after a flush).
    pub fn retire(&mut self, line: u64) -> u32 {
        match self.index.find(line, &self.entries) {
            Some(i) => {
                self.index.swap_remove(i, &self.entries);
                self.entries.swap_remove(i).1
            }
            None => 1,
        }
    }

    /// Entries in use.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no miss is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Slice MSHRs: outstanding line fetches with the requests merged onto
/// them, as `(line index, waiters)` entries in the order the fetches began
/// (with `swap_remove`'s reordering on completion), a line index over them,
/// and a recycled waiter-list pool: completed entries return their `Vec`
/// to the pool, so steady-state operation does not allocate.
#[derive(Debug, Default)]
pub struct PendingFetches {
    entries: Vec<(u64, Vec<ReqEnvelope>)>,
    index: LineIndex,
    spare: Vec<Vec<ReqEnvelope>>,
}

impl PendingFetches {
    /// Whether a fetch for `line` is outstanding.
    pub fn contains(&self, line: u64) -> bool {
        self.index.find(line, &self.entries).is_some()
    }

    /// Merge `env` onto the outstanding fetch for `line`, if one exists.
    pub fn merge(&mut self, line: u64, env: ReqEnvelope) -> bool {
        match self.index.find(line, &self.entries) {
            Some(i) => {
                self.entries[i].1.push(env);
                true
            }
            None => false,
        }
    }

    /// Register a new outstanding fetch for `line` with no waiters yet (the
    /// initiating request rides the memory path itself).
    pub fn begin(&mut self, line: u64) {
        debug_assert!(!self.contains(line));
        let waiters = self.spare.pop().unwrap_or_default();
        self.entries.push((line, waiters));
        self.index.push(&self.entries);
    }

    /// Complete the fetch for `line`, returning its merged waiters. Give
    /// the `Vec` back via [`recycle`](PendingFetches::recycle) once drained.
    pub fn take(&mut self, line: u64) -> Option<Vec<ReqEnvelope>> {
        let i = self.index.find(line, &self.entries)?;
        self.index.swap_remove(i, &self.entries);
        Some(self.entries.swap_remove(i).1)
    }

    /// Return a drained waiter list to the pool.
    pub fn recycle(&mut self, mut waiters: Vec<ReqEnvelope>) {
        waiters.clear();
        self.spare.push(waiters);
    }

    /// Total requests waiting on outstanding fetches.
    pub fn waiting(&self) -> usize {
        self.entries.iter().map(|(_, w)| w.len()).sum()
    }

    /// Whether no fetch is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}
