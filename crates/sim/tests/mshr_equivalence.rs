//! Differential oracle for the line-indexed miss-status tables.
//!
//! `MshrFile` (an SM cluster's L1 MSHRs) and `PendingFetches` (an LLC
//! slice's outstanding fetches) keep their entries in a `Vec` and find a
//! line through an open-addressed index of positions. [`ScanMshrs`] and
//! [`ScanFetches`] below are the straightforward models they must match:
//! the same `Vec`, searched by a linear scan. The properties drive each
//! pair with the same random operation sequences — over line sets small
//! enough to merge often and large enough to grow the index several times
//! and build long probe runs — and require the same return values, `len`
//! and `waiting` after every step. Each case ends by retiring (or taking)
//! every line of the universe on both sides: each must return the same
//! merged count (or waiter list), and both sides must end empty, so an
//! index that loses or mis-points an entry cannot hide in lines the random
//! sequence never came back to.

use mcgpu_sim::mshr::{MshrFile, PendingFetches};
use mcgpu_sim::packet::{ReqEnvelope, ReqStage};
use mcgpu_types::{ChipId, ClusterId, MemAccess, Request, RequestId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The linear-scan MSHR file.
#[derive(Default)]
struct ScanMshrs {
    entries: Vec<(u64, u32)>,
}

impl ScanMshrs {
    fn merge(&mut self, line: u64) -> bool {
        if let Some((_, merged)) = self.entries.iter_mut().find(|(l, _)| *l == line) {
            *merged += 1;
            true
        } else {
            false
        }
    }

    fn allocate(&mut self, line: u64) {
        self.entries.push((line, 1));
    }

    fn retire(&mut self, line: u64) -> u32 {
        match self.entries.iter().position(|(l, _)| *l == line) {
            Some(i) => self.entries.swap_remove(i).1,
            None => 1,
        }
    }
}

/// The linear-scan slice MSHR table.
#[derive(Default)]
struct ScanFetches {
    entries: Vec<(u64, Vec<ReqEnvelope>)>,
}

impl ScanFetches {
    fn contains(&self, line: u64) -> bool {
        self.entries.iter().any(|(l, _)| *l == line)
    }

    fn merge(&mut self, line: u64, env: ReqEnvelope) -> bool {
        if let Some((_, waiters)) = self.entries.iter_mut().find(|(l, _)| *l == line) {
            waiters.push(env);
            true
        } else {
            false
        }
    }

    fn begin(&mut self, line: u64) {
        self.entries.push((line, Vec::new()));
    }

    fn take(&mut self, line: u64) -> Option<Vec<ReqEnvelope>> {
        let i = self.entries.iter().position(|(l, _)| *l == line)?;
        Some(self.entries.swap_remove(i).1)
    }

    fn waiting(&self) -> usize {
        self.entries.iter().map(|(_, w)| w.len()).sum()
    }
}

/// The `i`-th line of a universe spread by `stride`, so keys share low
/// bits (strided traffic) as well as high ones.
fn nth_line(i: u64, stride: u64) -> u64 {
    i.wrapping_mul(stride) ^ 0x5a5a
}

/// A line drawn from the first `universe` lines.
fn line(rng: &mut SmallRng, universe: u64, stride: u64) -> u64 {
    nth_line(rng.gen_range(0..universe), stride)
}

fn envelope(id: u64, line: u64) -> ReqEnvelope {
    ReqEnvelope {
        req: Request {
            id: RequestId(id),
            origin: ClusterId::new(ChipId((id % 4) as u8), (id % 32) as usize),
            access: if id.is_multiple_of(3) {
                MemAccess::write(line.wrapping_mul(128))
            } else {
                MemAccess::read(line.wrapping_mul(128))
            },
            home: ChipId((line % 4) as u8),
        },
        stage: if id.is_multiple_of(2) {
            ReqStage::ToHomeSlice
        } else {
            ReqStage::ToLocalSlice
        },
    }
}

fn stride() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(1u64),
        Just(64),
        Just(1 << 20),
        Just(1 << 40),
        any::<u64>()
    ]
}

const STEPS: usize = 3_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The indexed MSHR file and the linear-scan file agree on every
    /// `merge` and `retire` result and `len`, and drain identically.
    #[test]
    fn indexed_mshr_file_matches_the_linear_scan(
        universe in 1u64..=700,
        stride in stride(),
        limit in 1usize..=300,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut file = MshrFile::with_capacity(limit);
        let mut oracle = ScanMshrs::default();
        for step in 0..STEPS {
            let l = line(&mut rng, universe, stride);
            if rng.gen_bool(0.55) {
                // Issue a read miss: merge, else allocate if a register is
                // free (the cluster's calling pattern).
                let merged = file.merge(l);
                prop_assert_eq!(merged, oracle.merge(l), "merge {} at step {}", l, step);
                if !merged && file.len() < limit {
                    file.allocate(l);
                    oracle.allocate(l);
                }
            } else {
                // A fill: usually for an outstanding line, sometimes for one
                // with no registered miss.
                let l = if !oracle.entries.is_empty() && rng.gen_bool(0.8) {
                    oracle.entries[rng.gen_range(0..oracle.entries.len())].0
                } else {
                    l
                };
                prop_assert_eq!(file.retire(l), oracle.retire(l), "retire {} at step {}", l, step);
            }
            prop_assert_eq!(file.len(), oracle.entries.len());
            prop_assert_eq!(file.is_empty(), oracle.entries.is_empty());
        }
        for i in 0..universe {
            let l = nth_line(i, stride);
            prop_assert_eq!(file.retire(l), oracle.retire(l), "draining retire {}", l);
        }
        prop_assert!(file.is_empty() && oracle.entries.is_empty());
    }

    /// The indexed slice table and the linear-scan table agree on every
    /// `contains`, `merge` and `take` result and `waiting`, with drained
    /// lists recycled early or late, and drain identically.
    #[test]
    fn indexed_pending_fetches_match_the_linear_scan(
        universe in 1u64..=3_000,
        stride in stride(),
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut table = PendingFetches::default();
        let mut oracle = ScanFetches::default();
        let mut held: Vec<Vec<ReqEnvelope>> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..STEPS {
            let l = line(&mut rng, universe, stride);
            match rng.gen_range(0..10u32) {
                // A slice miss: merge onto the fetch in flight, else begin
                // one (the engine's calling pattern).
                0..=5 => {
                    prop_assert_eq!(table.contains(l), oracle.contains(l));
                    let env = envelope(next_id, l);
                    next_id += 1;
                    let merged = table.merge(l, env);
                    prop_assert_eq!(merged, oracle.merge(l, env), "merge {} at step {}", l, step);
                    if !merged {
                        table.begin(l);
                        oracle.begin(l);
                    }
                }
                // A fill: usually for a pending line.
                _ => {
                    let l = if !oracle.entries.is_empty() && rng.gen_bool(0.8) {
                        oracle.entries[rng.gen_range(0..oracle.entries.len())].0
                    } else {
                        l
                    };
                    let got = table.take(l);
                    prop_assert_eq!(&got, &oracle.take(l), "take {} at step {}", l, step);
                    if let Some(waiters) = got {
                        held.push(waiters);
                    }
                }
            }
            // Give drained lists back in a shuffled, delayed order.
            while !held.is_empty() && rng.gen_bool(0.5) {
                let i = rng.gen_range(0..held.len());
                table.recycle(held.swap_remove(i));
            }
            prop_assert_eq!(table.is_empty(), oracle.entries.is_empty());
            prop_assert_eq!(table.waiting(), oracle.waiting());
        }
        for i in 0..universe {
            let l = nth_line(i, stride);
            prop_assert_eq!(table.take(l), oracle.take(l), "draining take {}", l);
        }
        prop_assert!(table.is_empty() && oracle.entries.is_empty());
        prop_assert_eq!(table.waiting(), 0);
    }
}
