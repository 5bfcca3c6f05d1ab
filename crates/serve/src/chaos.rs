//! Thread-level chaos injection for the serving layer.
//!
//! `treenum-wal`'s [`FailpointFs`](treenum_wal::FailpointFs) faults the
//! *filesystem*; this module faults the *writer thread*: a
//! [`ChaosSchedule`] is attached to a [`TreeServer`](crate::TreeServer) at
//! construction and fires deterministic faults at chosen batch numbers —
//! a panic inside `apply_batch` (exercising the supervisor's retry/heal
//! ladder), a panic inside the off-path catch-up of the retired copy
//! (exercising its contained rebuild), or a stall inside the publication
//! swap (exercising
//! [`read_with_deadline`](crate::TreeServer::read_with_deadline)).
//!
//! Determinism is the point: a fault is keyed to the shard's batch counter,
//! not to wall-clock time, so the same schedule against the same ingest
//! sequence (with barrier-delimited batches) reproduces the same
//! fault/heal trace — `tests/chaos.rs` asserts exactly that.  Injected
//! panics carry the `"chaos: "` payload prefix so test harnesses can
//! silence them in the panic hook.
//!
//! Production code never constructs a schedule; a server built without one
//! pays a single `Option` check per flush.

use crate::lock::lock_unpoisoned;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One deterministic fault, keyed to a shard's batch counter (the counter
/// starts at 1 and increments once per flush attempt; a supervised retry of
/// the same batch re-fires the same batch number).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFault {
    /// Panic inside the guarded `apply_batch` of batch `batch`, `times`
    /// times in a row (1 = the in-place retry succeeds; 2 = the retry also
    /// panics and the supervisor heals from storage).
    PanicOnApply { batch: u64, times: u32 },
    /// Panic once inside the off-path catch-up that follows the publish of
    /// batch `batch` (the lag replay of the retired copy).  The writer
    /// discards that copy and rebuilds from the published tree; no op is
    /// lost and the shard does not heal.
    PanicOnCatchUp { batch: u64 },
    /// Hold the publication swap of batch `batch` for `stall` — readers
    /// blocking on the front lock park for the duration, which is what
    /// deadline reads exist to bound.
    StallPublish { batch: u64, stall: Duration },
}

#[derive(Clone, Debug)]
struct FaultCell {
    fault: ChaosFault,
    /// Firings remaining (counts down to 0).
    left: u32,
}

/// A deterministic schedule of thread-level faults (see the module docs).
///
/// Shared by `Arc` between the test driver and the shard writer; all state
/// is interior-mutable and poison-tolerant.
#[derive(Debug, Default)]
pub struct ChaosSchedule {
    faults: Mutex<Vec<FaultCell>>,
    fired: AtomicU64,
    log: Mutex<Vec<String>>,
}

impl ChaosSchedule {
    /// An empty schedule (no faults fire).
    pub fn new() -> Self {
        ChaosSchedule::default()
    }

    /// Adds one fault (builder style).
    pub fn with(self, fault: ChaosFault) -> Self {
        let left = match fault {
            ChaosFault::PanicOnApply { times, .. } => times,
            ChaosFault::PanicOnCatchUp { .. } | ChaosFault::StallPublish { .. } => 1,
        };
        lock_unpoisoned(&self.faults).push(FaultCell { fault, left });
        self
    }

    /// A deterministic pseudo-random schedule: `count` faults at batch
    /// numbers in `1..=max_batch`, kinds and positions derived from `seed`
    /// alone (xorshift64*; no wall clock, no OS entropy).  Identical seeds
    /// produce identical schedules — the chaos-determinism test's input.
    pub fn seeded(seed: u64, count: usize, max_batch: u64, stall: Duration) -> Self {
        // XOR with a non-trivial constant so adjacent seeds (or zero) don't
        // collapse to the same xorshift state.
        let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut sched = ChaosSchedule::new();
        for _ in 0..count {
            let batch = 1 + next() % max_batch.max(1);
            sched = match next() % 3 {
                0 => sched.with(ChaosFault::PanicOnApply { batch, times: 1 }),
                1 => sched.with(ChaosFault::PanicOnApply { batch, times: 2 }),
                _ => sched.with(ChaosFault::StallPublish { batch, stall }),
            };
        }
        sched
    }

    /// Total faults fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Acquire)
    }

    /// The fault events fired so far, in firing order (deterministic for a
    /// barrier-delimited ingest sequence).
    pub fn events(&self) -> Vec<String> {
        lock_unpoisoned(&self.log).clone()
    }

    fn record(&self, event: String) {
        self.fired.fetch_add(1, Ordering::AcqRel);
        lock_unpoisoned(&self.log).push(event);
    }

    /// Takes one firing of the first armed fault `is` selects.
    fn take_firing(&self, is: impl Fn(&ChaosFault) -> bool) -> bool {
        let mut faults = lock_unpoisoned(&self.faults);
        faults.iter_mut().any(|c| {
            let fire = c.left > 0 && is(&c.fault);
            if fire {
                c.left -= 1;
            }
            fire
        })
    }

    /// Writer hook: called (inside the supervisor's `catch_unwind` guard)
    /// before `apply_batch` of batch `batch`.  Panics iff a matching
    /// [`ChaosFault::PanicOnApply`] has firings left.
    pub(crate) fn on_apply(&self, batch: u64) {
        if self
            .take_firing(|f| matches!(f, ChaosFault::PanicOnApply { batch: b, .. } if *b == batch))
        {
            self.record(format!("panic-on-apply batch {batch}"));
            panic!("chaos: injected panic at batch {batch}");
        }
    }

    /// Writer hook: called (inside the catch-up's own guard) before the
    /// off-path lag replay that follows batch `batch`.  Panics iff a
    /// matching [`ChaosFault::PanicOnCatchUp`] has its firing left.
    pub(crate) fn on_catch_up(&self, batch: u64) {
        if self.take_firing(|f| matches!(f, ChaosFault::PanicOnCatchUp { batch: b } if *b == batch))
        {
            self.record(format!("panic-on-catch-up batch {batch}"));
            panic!("chaos: injected catch-up panic after batch {batch}");
        }
    }

    /// Writer hook: called while the front write lock is held, before the
    /// publication swap of batch `batch`.  Sleeps iff a matching
    /// [`ChaosFault::StallPublish`] has a firing left.
    pub(crate) fn on_publish(&self, batch: u64) {
        let stall = {
            let mut faults = lock_unpoisoned(&self.faults);
            faults.iter_mut().find_map(|c| match c.fault {
                ChaosFault::StallPublish { batch: b, stall } if b == batch && c.left > 0 => {
                    c.left -= 1;
                    Some(stall)
                }
                _ => None,
            })
        };
        if let Some(d) = stall {
            self.record(format!("stall-publish batch {batch} for {d:?}"));
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_are_reproducible_and_seed_sensitive() {
        let a = ChaosSchedule::seeded(42, 6, 20, Duration::from_millis(1));
        let b = ChaosSchedule::seeded(42, 6, 20, Duration::from_millis(1));
        let c = ChaosSchedule::seeded(43, 6, 20, Duration::from_millis(1));
        let cells = |s: &ChaosSchedule| lock_unpoisoned(&s.faults).clone();
        assert_eq!(
            cells(&a).iter().map(|c| c.fault).collect::<Vec<_>>(),
            cells(&b).iter().map(|c| c.fault).collect::<Vec<_>>()
        );
        assert_ne!(
            cells(&a).iter().map(|c| c.fault).collect::<Vec<_>>(),
            cells(&c).iter().map(|c| c.fault).collect::<Vec<_>>()
        );
    }

    #[test]
    fn panic_fault_fires_exactly_its_times_budget() {
        let sched = ChaosSchedule::new().with(ChaosFault::PanicOnApply { batch: 3, times: 2 });
        sched.on_apply(1);
        sched.on_apply(2);
        assert_eq!(sched.fired(), 0);
        for _ in 0..2 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sched.on_apply(3);
            }));
            assert!(caught.is_err());
        }
        sched.on_apply(3); // budget exhausted: no panic
        assert_eq!(sched.fired(), 2);
        assert_eq!(sched.events().len(), 2);
    }

    #[test]
    fn stall_fault_sleeps_once() {
        let sched = ChaosSchedule::new().with(ChaosFault::StallPublish {
            batch: 1,
            stall: Duration::from_millis(1),
        });
        sched.on_publish(1);
        sched.on_publish(1);
        assert_eq!(sched.fired(), 1);
        assert!(sched.events()[0].contains("stall-publish"));
    }
}
