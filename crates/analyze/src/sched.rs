//! An exhaustive bounded interleaving checker for the left-right publication
//! protocol of `treenum-serve` (`crates/serve/src/shard.rs`).
//!
//! The serving layer's correctness argument is a protocol: a shard owns two
//! structurally independent engine copies; a flush applies a batch to the
//! *writable* copy, publishes it, retires the previously published copy, and
//! only writes into a retired copy again once no reader holds it (or abandons
//! it to its holders after bounded patience and rebuilds from the published
//! state).  Right after a flush's acks the writer catches the retired copy up
//! *off the visible path* when no reader holds it; when one does, the last
//! reader's release wakes the writer instead.  `tests/serve_invariants.rs`
//! exercises that protocol under real schedulers — which probes a vanishing
//! fraction of interleavings.  This module instead drives a **small-model
//! instrumented replica** of the protocol through *every* interleaving up to
//! a configured bound, the way `loom` would if crates.io were reachable.
//!
//! # The model
//!
//! Engine copies are modeled as `(value, refcount, retired)` triples where the
//! value is the list of op ids applied to the copy — structural equality of
//! two copies at the same generation is then list equality, and "applying a
//! batch" is appending its ops one *separately scheduled* step at a time (so
//! a protocol that leaked a half-applied batch to a reader would be caught).
//! Arc reference counting is replicated by hand: the published slot, the
//! writer's retired handle and every reader hold one countable reference
//! each.  `retired` is the flag the writer sets on a generation when it
//! leaves the front.
//!
//! Writer steps per flush: `take` (reuse the held writable copy, reclaim the
//! retired copy and replay its lag, or — when readers still hold it — abandon
//! it and rebuild from the published value; the batch is also appended to the
//! durable `wal` here, mirroring WAL-before-apply in `shard.rs`), `apply`
//! (one op per step), `publish` (swap the front slot, bump the generation,
//! append to the flush log, retire the old front), then the **off-path
//! catch-up**: `catch-up` reclaims the retired copy only at `refs == 1` (the
//! writer's own handle) and `replay` applies the lag one op per step; a held
//! copy parks the writer instead.  A parked writer moves on when the next
//! flush arrives or when it receives the release wake (`wake`, its own
//! scheduled action).  Reader steps per cycle: `acquire` (ref the front copy
//! and record its value), `enumerate` (re-read the held copy and compare
//! against the recorded value), `release` (drop the reference), and
//! `wake-check` (a release that left a retired copy with no reader wakes the
//! writer — the last `Snapshot` drop of `shard.rs`, whose reader-count
//! decrement and retired-flag load are separate atomics, hence separate
//! steps).
//!
//! When `crashes > 0`, the scheduler may additionally kill the writer in the
//! middle of a flush (after the batch is durable, before or after it is
//! applied but before the protocol settles).  A crash drops the writer's
//! writable and retired handles; the supervisor then runs a `recover` step
//! that rebuilds state from the durable log and atomically republishes it as
//! the next generation — the model of `heal_from_storage` in `shard.rs`.
//!
//! # Checked invariants
//!
//! 1. **Snapshot immutability** — a held snapshot's value never changes
//!    between `acquire` and `enumerate`, and more fundamentally the writer
//!    never applies an op (batch or lag replay) to a copy whose refcount is
//!    nonzero (nobody can *observe* the writable copy).
//! 2. **Gapless flush log** — the published generations form the exact
//!    sequence `1, 2, …, flushes`: no generation is ever skipped or
//!    duplicated in the flush log.
//! 3. **Refcount-correct reclamation** — reclaiming a retired copy requires
//!    its refcount to drop to the writer's own handle first; at termination
//!    exactly one reference remains (the published slot) and every abandoned
//!    copy has been fully released.
//! 4. **Reader-visible generation monotonicity** — consecutive snapshots
//!    acquired by one reader never go backwards in generation.
//! 5. **Durable–published agreement across restart** — every published value
//!    (normal publish or crash recovery) equals the durable log exactly, and
//!    the flush log stays gapless across a writer restart: no generation is
//!    skipped or duplicated by the heal, and no durably-logged op is lost.
//! 6. **No lost wake-up** — once every reader is idle and no flush is
//!    pending, the writer ends up holding a writable copy that is caught up
//!    with the published one: a writer parked on a held copy must be woken
//!    by that copy's last release.
//!
//! # Exhaustiveness and the schedule count
//!
//! The explorer is a depth-first search over scheduler choices with
//! memoization on the full model state: every distinct reachable state is
//! visited (and checked) exactly once, and the number of *complete schedules*
//! is counted exactly by summing over choices — the count the CLI prints is
//! the number of distinct interleavings the bound admits, even when it is far
//! too large to replay one by one.  Violations carry the exact schedule
//! prefix that produced them.
//!
//! The checker checks the *protocol as modeled*, not the shard code itself —
//! the model must be kept in sync with `shard.rs` by review (the module docs
//! there point back here).  Self-tests keep the checker honest in the other
//! direction: seeded protocol mutations (publish mid-batch, reclaim while
//! held, generation skip, skipped WAL replay on restart, an off-path
//! catch-up into a held copy, a dropped release wake) must each be caught.

use std::collections::HashMap;
use std::fmt;

/// Bounds of the exploration and the optional seeded protocol bug.
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// Number of concurrent reader threads.
    pub readers: usize,
    /// Acquire/enumerate/release cycles each reader performs.
    pub reader_cycles: usize,
    /// Number of writer flush cycles.
    pub flushes: usize,
    /// Ops coalesced into each flush (each op is its own scheduled step).
    pub ops_per_flush: usize,
    /// Writer crashes the scheduler may inject mid-flush (each crash is
    /// followed by a supervisor recovery step that republishes from the
    /// durable log).
    pub crashes: usize,
    /// A deliberate protocol bug for checker self-tests.
    pub mutation: Option<Mutation>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            readers: 2,
            reader_cycles: 2,
            flushes: 3,
            ops_per_flush: 2,
            crashes: 1,
            mutation: None,
        }
    }
}

/// Seeded protocol bugs the checker must catch (self-test support).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Publish the writable copy after the first op of a batch, then keep
    /// applying the rest to the now-visible copy.
    PublishMidBatch,
    /// Reclaim the retired copy even while readers still hold references.
    ReclaimWhileHeld,
    /// Skip a generation number on the first publish.
    SkipGeneration,
    /// Recover from a crash by republishing the *pre-crash* front value
    /// instead of replaying the durable log — the heal silently drops the
    /// WAL tail of the interrupted flush.
    SkipWalReplay,
    /// Run the off-path catch-up after publish even while readers still
    /// hold the retired copy.
    EagerCatchUpWhileHeld,
    /// The last release of a retired copy never wakes the writer (the
    /// notify is dropped).
    DropReleaseWake,
}

/// Result of a clean exhaustive run.
#[derive(Clone, Copy, Debug)]
pub struct SchedReport {
    /// Distinct reachable model states visited (each checked once).
    pub states: u64,
    /// Exact number of complete schedules within the bound.
    pub schedules: u128,
    /// Flush-log length at termination (= configured flushes).
    pub flushes_logged: usize,
}

/// A violation with the schedule prefix that reached it.
#[derive(Clone, Debug)]
pub struct SchedViolation {
    pub msg: String,
    pub trace: Vec<String>,
}

impl fmt::Display for SchedViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "protocol violation: {}", self.msg)?;
        writeln!(f, "schedule prefix ({} steps):", self.trace.len())?;
        for (i, s) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3}. {s}")?;
        }
        Ok(())
    }
}

type CopyId = u8;

#[derive(Clone, PartialEq, Eq, Hash)]
struct CopySt {
    /// Op ids applied to this copy, in order (the model's "tree state").
    val: Vec<u16>,
    /// Countable references: published slot + writer's retired handle +
    /// readers.  The writer's *writable* handle is deliberately not counted —
    /// "refs == 0" is exactly "no one but the writer can observe this copy".
    refs: u8,
    /// Set when the copy leaves the front, cleared when it is published
    /// again (the retired flag of a generation's reader gate).
    retired: bool,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum RPhase {
    Idle,
    /// Holding a snapshot whose value at acquire time was `seen`.
    Holding {
        copy: CopyId,
        seen: Vec<u16>,
    },
    /// Enumerated (immutability already checked); still holding `copy`.
    Enumerated {
        copy: CopyId,
    },
    /// Released `copy`; `last` iff no other reader held it.  The next step
    /// loads the copy's retired flag and wakes the writer if both hold.
    Released {
        copy: CopyId,
        last: bool,
    },
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct ReaderSt {
    cycles_left: u8,
    last_gen: u8,
    phase: RPhase,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum WPhase {
    /// Acquire a writable copy (reuse / reclaim+catch-up / rebuild fallback).
    Take,
    /// Apply the remaining ops of the current batch, one per step.
    Apply {
        left: u8,
    },
    /// Publish the writable copy as the next generation.
    Publish,
    /// After the acks: reclaim the retired copy if no reader holds it, else
    /// park.
    CatchUp,
    /// Replay the reclaimed copy's lag, one op per step.
    Replay,
    /// Waiting for the release wake or the next flush.
    Parked,
    /// (After a crash) supervisor heal: rebuild from the durable log and
    /// republish it atomically as the next generation.
    Recover,
    Done,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct WriterSt {
    phase: WPhase,
    writable: Option<CopyId>,
    retired: Option<CopyId>,
    /// Ops applied to the published lineage that the retired copy missed.
    lag: Vec<u16>,
    flushes_left: u8,
    next_op: u16,
    /// Ops the `PublishMidBatch` mutation still owes after its early publish.
    mid_pending: u8,
    /// Writer crashes the scheduler may still inject.
    crashes_left: u8,
    /// A release wake is pending (merged: several wakes before the writer
    /// receives one are one wake-up).
    woken: bool,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    copies: Vec<CopySt>,
    front: CopyId,
    gen: u8,
    log: Vec<u8>,
    /// The durable log: every op a flush has WAL-appended (at `take`, before
    /// any apply — the model of WAL-before-ack in `shard.rs`).
    wal: Vec<u16>,
    writer: WriterSt,
    readers: Vec<ReaderSt>,
}

impl State {
    fn initial(cfg: &SchedConfig) -> State {
        State {
            // Copy 0 is published (one ref: the front slot); copy 1 is the
            // writer's initial writable copy over the same (empty) value.
            copies: vec![
                CopySt {
                    val: Vec::new(),
                    refs: 1,
                    retired: false,
                },
                CopySt {
                    val: Vec::new(),
                    refs: 0,
                    retired: false,
                },
            ],
            front: 0,
            gen: 0,
            log: Vec::new(),
            wal: Vec::new(),
            writer: WriterSt {
                phase: if cfg.flushes > 0 {
                    WPhase::Take
                } else {
                    WPhase::Done
                },
                writable: Some(1),
                retired: None,
                lag: Vec::new(),
                flushes_left: cfg.flushes as u8,
                next_op: 0,
                mid_pending: 0,
                crashes_left: cfg.crashes as u8,
                woken: false,
            },
            readers: vec![
                ReaderSt {
                    cycles_left: cfg.reader_cycles as u8,
                    last_gen: 0,
                    phase: RPhase::Idle,
                };
                cfg.readers
            ],
        }
    }

    fn done(&self) -> bool {
        self.writer.phase == WPhase::Done
            && self
                .readers
                .iter()
                .all(|r| r.cycles_left == 0 && r.phase == RPhase::Idle)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Action {
    Writer,
    /// A parked writer receives the pending release wake.
    Wake,
    Reader(usize),
    /// Kill the writer mid-flush; the supervisor recovers on the next
    /// writer step.
    Crash,
}

/// The flush log must be exactly `1, 2, …` — gapless and duplicate-free,
/// including entries appended by crash recovery.
fn check_log_gapless(log: &[u8]) -> Result<(), String> {
    for (i, &g) in log.iter().enumerate() {
        if g as usize != i + 1 {
            return Err(format!(
                "flush log is not gapless: entry {i} records generation {g} (expected {})",
                i + 1
            ));
        }
    }
    Ok(())
}

/// Every publish — normal or heal — must expose exactly the durable log.
fn check_published_matches_wal(published: &[u16], wal: &[u16]) -> Result<(), String> {
    if published != wal {
        return Err(format!(
            "published value {published:?} does not equal the durable log {wal:?} \
             (a durably-logged op was lost or an undurable op became visible)"
        ));
    }
    Ok(())
}

/// Applies `action` to a copy of `state`, checking every invariant the step
/// can affect.  Returns the successor state and a human-readable step label.
fn step(cfg: &SchedConfig, state: &State, action: Action) -> Result<(State, String), String> {
    let mut s = state.clone();
    let label;
    match action {
        Action::Writer => match s.writer.phase.clone() {
            WPhase::Done => unreachable!("writer scheduled after Done"),
            WPhase::Take => {
                if let Some(w) = s.writer.writable {
                    label = format!("writer: take (writable copy {w} already held)");
                } else {
                    let r = s.writer.retired.expect(
                        "protocol invariant: the writer always holds the writable or the retired copy",
                    ) as usize;
                    let reclaim_ok = s.copies[r].refs == 1;
                    if reclaim_ok || cfg.mutation == Some(Mutation::ReclaimWhileHeld) {
                        // Reclaim: drop the retired handle, replay the lag.
                        s.copies[r].refs -= 1;
                        let lag = std::mem::take(&mut s.writer.lag);
                        if !lag.is_empty() && s.copies[r].refs > 0 {
                            return Err(format!(
                                "writer replays catch-up lag into copy {r} while {} reference(s) \
                                 still observe it",
                                s.copies[r].refs
                            ));
                        }
                        s.copies[r].val.extend(lag);
                        s.writer.writable = Some(r as CopyId);
                        s.writer.retired = None;
                        label = format!("writer: take (reclaim retired copy {r} + catch-up)");
                    } else {
                        // Bounded patience expired: abandon the retired copy
                        // to its holders, rebuild from the published value.
                        s.copies[r].refs -= 1;
                        let fresh = CopySt {
                            val: s.copies[s.front as usize].val.clone(),
                            refs: 0,
                            retired: false,
                        };
                        s.copies.push(fresh);
                        s.writer.writable = Some((s.copies.len() - 1) as CopyId);
                        s.writer.retired = None;
                        s.writer.lag.clear();
                        label = format!(
                            "writer: take (abandon held copy {r}, rebuild fallback -> copy {})",
                            s.copies.len() - 1
                        );
                    }
                }
                // The whole batch becomes durable before any op is applied
                // (`log_batch` precedes `apply_batch` in `shard.rs`), so a
                // crash at any later step can lose nothing acked.
                let first = s.writer.next_op;
                s.wal.extend(first..first + cfg.ops_per_flush as u16);
                s.writer.phase = WPhase::Apply {
                    left: cfg.ops_per_flush as u8,
                };
            }
            WPhase::Apply { left } => {
                let w = s.writer.writable.expect("apply without a writable copy") as usize;
                if s.copies[w].refs > 0 {
                    return Err(format!(
                        "writer applies op {} to copy {w} while {} reference(s) observe it \
                         (snapshot immutability broken)",
                        s.writer.next_op, s.copies[w].refs
                    ));
                }
                let op = s.writer.next_op;
                s.copies[w].val.push(op);
                s.writer.next_op += 1;
                label = format!("writer: apply op {op} to copy {w}");
                let left = left - 1;
                if left == 0 {
                    s.writer.phase = WPhase::Publish;
                } else if cfg.mutation == Some(Mutation::PublishMidBatch)
                    && left == cfg.ops_per_flush as u8 - 1
                {
                    // Bug: publish after the first op, finish the batch later.
                    s.writer.mid_pending = left;
                    s.writer.phase = WPhase::Publish;
                } else {
                    s.writer.phase = WPhase::Apply { left };
                }
            }
            WPhase::Publish => {
                let w = s.writer.writable.take().expect("publish without writable") as usize;
                let old = s.front as usize;
                s.copies[w].refs += 1; // the front slot's reference
                s.copies[w].retired = false;
                // Set under the front lock, before any catch-up looks at the
                // old front's readers.
                s.copies[old].retired = true;
                s.front = w as CopyId;
                // The old front's slot reference transfers to the writer's
                // retired handle (net zero, mirroring `self.retired = Some(old)`).
                s.writer.retired = Some(old as CopyId);
                let bump = if cfg.mutation == Some(Mutation::SkipGeneration) && s.log.is_empty() {
                    2
                } else {
                    1
                };
                s.gen += bump;
                s.log.push(s.gen);
                check_log_gapless(&s.log)?;
                check_published_matches_wal(&s.copies[w].val, &s.wal)?;
                // The batch just published becomes catch-up lag for the
                // retired copy.
                let batch_len = cfg.ops_per_flush - s.writer.mid_pending as usize;
                let first = s.writer.next_op - batch_len as u16;
                s.writer.lag.extend(first..s.writer.next_op);
                label = format!("writer: publish copy {w} as generation {}", s.gen);
                if s.writer.mid_pending > 0 {
                    // (Mutation path) keep mutating the now-published copy.
                    s.writer.writable = Some(w as CopyId);
                    s.writer.phase = WPhase::Apply {
                        left: std::mem::take(&mut s.writer.mid_pending),
                    };
                } else {
                    s.writer.flushes_left -= 1;
                    s.writer.phase = WPhase::CatchUp;
                }
            }
            WPhase::CatchUp => {
                // Off-path catch-up after the acks (or a wake): reclaim only
                // when the writer's retired handle is the last reference.
                let r =
                    s.writer.retired.expect(
                        "a publish or a park leaves the writer holding only the retired copy",
                    ) as usize;
                if s.copies[r].refs == 1 || cfg.mutation == Some(Mutation::EagerCatchUpWhileHeld) {
                    s.copies[r].refs -= 1;
                    s.writer.writable = Some(r as CopyId);
                    s.writer.retired = None;
                    label = format!("writer: catch-up (reclaim retired copy {r})");
                    s.writer.phase = if s.writer.lag.is_empty() {
                        next_flush(&s)
                    } else {
                        WPhase::Replay
                    };
                } else {
                    label = format!(
                        "writer: catch-up (retired copy {r} held by {} reader(s): park)",
                        s.copies[r].refs - 1
                    );
                    s.writer.phase = WPhase::Parked;
                }
            }
            WPhase::Replay => {
                let w = s.writer.writable.expect("replay without a writable copy") as usize;
                let op = s.writer.lag.remove(0);
                if s.copies[w].refs > 0 {
                    return Err(format!(
                        "writer replays catch-up lag op {op} into copy {w} while {} reference(s) \
                         observe it (snapshot immutability broken)",
                        s.copies[w].refs
                    ));
                }
                s.copies[w].val.push(op);
                label = format!("writer: replay lag op {op} into copy {w}");
                if s.writer.lag.is_empty() {
                    s.writer.phase = next_flush(&s);
                }
            }
            WPhase::Parked => {
                // The next flush arrives before the release wake: its `take`
                // reclaims on the visible path or falls back.
                label = "writer: next flush arrives while parked".to_string();
                s.writer.phase = WPhase::Take;
            }
            WPhase::Recover => {
                // Supervisor heal (`heal_from_storage`): rebuild the shard
                // state from the durable log — or, under the `SkipWalReplay`
                // mutation, from the stale pre-crash front — and republish
                // it atomically as the next generation.  The old front is
                // dropped entirely (no retire), and the writer gets a fresh
                // writable copy rebuilt from the healed published value.
                let healed_val = if cfg.mutation == Some(Mutation::SkipWalReplay) {
                    s.copies[s.front as usize].val.clone()
                } else {
                    s.wal.clone()
                };
                s.copies.push(CopySt {
                    val: healed_val,
                    refs: 1, // the front slot's reference
                    retired: false,
                });
                let healed = (s.copies.len() - 1) as CopyId;
                let old = s.front as usize;
                s.copies[old].refs -= 1; // old front abandoned to its holders
                s.front = healed;
                s.gen += 1;
                s.log.push(s.gen);
                check_log_gapless(&s.log)?;
                check_published_matches_wal(&s.copies[healed as usize].val, &s.wal)?;
                let fresh = CopySt {
                    val: s.copies[healed as usize].val.clone(),
                    refs: 0,
                    retired: false,
                };
                s.copies.push(fresh);
                s.writer.writable = Some((s.copies.len() - 1) as CopyId);
                s.writer.next_op = s.wal.len() as u16;
                // The interrupted flush's batch was durable, so the heal
                // completes it: it counts as the flush it interrupted.  The
                // fresh writable copy is already caught up.
                s.writer.flushes_left -= 1;
                s.writer.phase = next_flush(&s);
                label = format!(
                    "writer: recover (republish durable log as generation {} -> copy {healed})",
                    s.gen
                );
            }
        },
        Action::Wake => {
            s.writer.woken = false;
            s.writer.phase = WPhase::CatchUp;
            label = "writer: release wake received".to_string();
        }
        Action::Crash => {
            // The writer thread dies mid-flush: its writable handle is
            // dropped (never counted — nobody else could observe it) and its
            // retired handle releases its reference.  Readers keep serving
            // the published front; the supervisor recovers on the next
            // writer step.
            if let Some(r) = s.writer.retired.take() {
                s.copies[r as usize].refs -= 1;
            }
            s.writer.writable = None;
            s.writer.lag.clear();
            s.writer.mid_pending = 0;
            s.writer.crashes_left -= 1;
            s.writer.phase = WPhase::Recover;
            label = "writer: crash mid-flush (writable + retired handles dropped)".to_string();
        }
        Action::Reader(i) => {
            let r = &mut s.readers[i];
            match r.phase.clone() {
                RPhase::Idle => {
                    let c = s.front as usize;
                    s.copies[c].refs += 1;
                    if s.gen < r.last_gen {
                        return Err(format!(
                            "reader {i} acquired generation {} after having seen {} \
                             (snapshot generations went backwards)",
                            s.gen, r.last_gen
                        ));
                    }
                    r.last_gen = s.gen;
                    r.phase = RPhase::Holding {
                        copy: c as CopyId,
                        seen: s.copies[c].val.clone(),
                    };
                    label = format!("reader {i}: acquire copy {c} (generation {})", s.gen);
                }
                RPhase::Holding { copy, seen } => {
                    let c = copy as usize;
                    if s.copies[c].val != seen {
                        return Err(format!(
                            "reader {i} observed its held snapshot (copy {c}) change from \
                             {seen:?} to {:?} (snapshot immutability broken)",
                            s.copies[c].val
                        ));
                    }
                    r.phase = RPhase::Enumerated { copy };
                    label = format!("reader {i}: enumerate copy {c}");
                }
                RPhase::Enumerated { copy } => {
                    // Dropping the handle and decrementing the generation's
                    // reader count; `last` iff no other reader holds it.
                    let c = copy as usize;
                    let last = !s.readers.iter().enumerate().any(|(j, o)| {
                        j != i
                            && matches!(o.phase, RPhase::Holding { copy: h, .. }
                                | RPhase::Enumerated { copy: h } if h == copy)
                    });
                    s.copies[c].refs -= 1;
                    s.readers[i].phase = RPhase::Released { copy, last };
                    label = format!("reader {i}: release copy {c}");
                }
                RPhase::Released { copy, last } => {
                    let c = copy as usize;
                    let wake = last && s.copies[c].retired;
                    if wake && cfg.mutation != Some(Mutation::DropReleaseWake) {
                        s.writer.woken = true;
                    }
                    r.cycles_left -= 1;
                    r.phase = RPhase::Idle;
                    label = if wake {
                        format!("reader {i}: last release of retired copy {c} wakes the writer")
                    } else {
                        format!("reader {i}: wake-check on copy {c} (no wake)")
                    };
                }
            }
        }
    }
    Ok((s, label))
}

/// Where the writer goes once a flush has settled and its copy is caught up.
fn next_flush(s: &State) -> WPhase {
    if s.writer.flushes_left > 0 {
        WPhase::Take
    } else {
        WPhase::Done
    }
}

fn enabled_actions(state: &State) -> Vec<Action> {
    let mut out = Vec::new();
    match state.writer.phase {
        WPhase::Done => {}
        // A parked writer runs again only for the next flush or the wake.
        WPhase::Parked => {
            if state.writer.flushes_left > 0 {
                out.push(Action::Writer);
            }
            if state.writer.woken {
                out.push(Action::Wake);
            }
        }
        _ => out.push(Action::Writer),
    }
    // A crash may strike mid-flush: after the batch is durable (`take` ran)
    // and before the flush settles.  Recovery itself is modeled as atomic —
    // the real heal publishes with the front lock held.
    if state.writer.crashes_left > 0
        && matches!(state.writer.phase, WPhase::Apply { .. } | WPhase::Publish)
    {
        out.push(Action::Crash);
    }
    for (i, r) in state.readers.iter().enumerate() {
        if !(r.phase == RPhase::Idle && r.cycles_left == 0) {
            out.push(Action::Reader(i));
        }
    }
    out
}

fn check_terminal(cfg: &SchedConfig, state: &State) -> Result<(), String> {
    if state.log.len() != cfg.flushes {
        return Err(format!(
            "terminated with {} flush-log entries (expected {})",
            state.log.len(),
            cfg.flushes
        ));
    }
    // No lost wake-up: with every reader idle and no flush pending, the
    // writer holds a writable copy caught up with the published one.
    let w = state.writer.writable.map(|w| w as usize);
    if state.writer.retired.is_some()
        || !state.writer.lag.is_empty()
        || w.is_none_or(|w| state.copies[w].val != state.copies[state.front as usize].val)
    {
        return Err(
            "terminated without a caught-up writable copy (lost wake-up or missed catch-up)".into(),
        );
    }
    let total_refs: u32 = state.copies.iter().map(|c| c.refs as u32).sum();
    let front_refs = state.copies[state.front as usize].refs;
    // The published slot is the only reference that may remain.
    let expected = 1;
    if total_refs != expected || front_refs < 1 {
        return Err(format!(
            "terminated with {total_refs} outstanding reference(s) (expected {expected}); \
             abandoned copies were not fully released"
        ));
    }
    Ok(())
}

struct Explorer<'a> {
    cfg: &'a SchedConfig,
    memo: HashMap<State, u128>,
    trace: Vec<String>,
}

impl Explorer<'_> {
    /// Returns the number of complete schedules reachable from `state`, or a
    /// violation carrying the current schedule prefix.
    fn explore(&mut self, state: &State) -> Result<u128, SchedViolation> {
        if let Some(&n) = self.memo.get(state) {
            return Ok(n);
        }
        if state.done() {
            check_terminal(self.cfg, state).map_err(|msg| SchedViolation {
                msg,
                trace: self.trace.clone(),
            })?;
            self.memo.insert(state.clone(), 1);
            return Ok(1);
        }
        let actions = enabled_actions(state);
        if actions.is_empty() {
            let msg = if state.writer.phase == WPhase::Parked {
                "lost wake-up: every reader is idle and no flush is pending, but the writer \
                 stays parked on its retired copy without a caught-up writable copy"
            } else {
                "deadlock: no thread can make progress"
            };
            return Err(SchedViolation {
                msg: msg.into(),
                trace: self.trace.clone(),
            });
        }
        let mut total: u128 = 0;
        for a in actions {
            let (next, label) = step(self.cfg, state, a).map_err(|msg| SchedViolation {
                msg,
                trace: self.trace.clone(),
            })?;
            self.trace.push(label);
            let n = self.explore(&next)?;
            self.trace.pop();
            total += n;
        }
        self.memo.insert(state.clone(), total);
        Ok(total)
    }
}

/// Exhaustively explores every interleaving within `cfg`'s bound.
pub fn check_all_interleavings(cfg: &SchedConfig) -> Result<SchedReport, Box<SchedViolation>> {
    let mut ex = Explorer {
        cfg,
        memo: HashMap::new(),
        trace: Vec::new(),
    };
    let initial = State::initial(cfg);
    let schedules = ex.explore(&initial).map_err(Box::new)?;
    Ok(SchedReport {
        states: ex.memo.len() as u64,
        schedules,
        flushes_logged: cfg.flushes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_bound_has_the_hand_countable_schedule_count() {
        // 1 writer and 1 reader over one flush of one op.  Writer: take (T),
        // apply (A), publish (P), catch-up (C), then either replay (R) or —
        // when the reader still holds the retired copy — park, wake (W),
        // catch-up again and replay.  Reader: acquire (a), enumerate (e),
        // release (l), wake-check (w).  With i, k, j, m the writer steps
        // before a, e, l, w (0 ≤ i ≤ k ≤ j ≤ m):
        // * a after P (the reader holds the new front): T A P, then C R
        //   merged with a e l w: C(6, 2) = 15;
        // * a before P, l before C (i ≤ 2, j ≤ 3, writer T A P C R):
        //   Σ (j − i + 1)(6 − j) = 40 + 22 + 10 = 72;
        // * a before P, l after C (the writer parks; W needs the wake, so
        //   j = m = 4 and W C R follow): Σ_{i ≤ 2} (5 − i) = 12.
        let cfg = SchedConfig {
            readers: 1,
            reader_cycles: 1,
            flushes: 1,
            ops_per_flush: 1,
            crashes: 0,
            mutation: None,
        };
        let rep = check_all_interleavings(&cfg).expect("protocol must pass");
        assert_eq!(rep.schedules, 15 + 72 + 12);
        assert_eq!(rep.flushes_logged, 1);
    }

    #[test]
    fn default_bound_passes_and_is_nontrivial() {
        let rep = check_all_interleavings(&SchedConfig::default()).expect("protocol must pass");
        assert!(rep.schedules > 1_000_000, "bound too small to mean much");
        assert!(rep.states > 1_000);
    }

    #[test]
    fn publish_mid_batch_is_caught() {
        let cfg = SchedConfig {
            mutation: Some(Mutation::PublishMidBatch),
            ..SchedConfig::default()
        };
        let v = check_all_interleavings(&cfg).expect_err("mutation must be caught");
        // The early publish exposes a value missing the durably-logged tail
        // of its batch, so the durable-agreement invariant fires first; the
        // immutability check backstops it on other schedules.
        assert!(
            v.msg.contains("durable")
                || v.msg.contains("immutability")
                || v.msg.contains("observe"),
            "unexpected violation: {}",
            v.msg
        );
        assert!(!v.trace.is_empty());
    }

    #[test]
    fn reclaim_while_held_is_caught() {
        let cfg = SchedConfig {
            mutation: Some(Mutation::ReclaimWhileHeld),
            ..SchedConfig::default()
        };
        let v = check_all_interleavings(&cfg).expect_err("mutation must be caught");
        assert!(
            v.msg.contains("observe") || v.msg.contains("immutability"),
            "unexpected violation: {}",
            v.msg
        );
    }

    #[test]
    fn generation_skip_is_caught() {
        let cfg = SchedConfig {
            mutation: Some(Mutation::SkipGeneration),
            ..SchedConfig::default()
        };
        let v = check_all_interleavings(&cfg).expect_err("mutation must be caught");
        assert!(v.msg.contains("gapless"), "unexpected violation: {}", v.msg);
    }

    #[test]
    fn crash_recovery_passes_with_no_generation_gap_and_no_durable_loss() {
        // A tight crash-enabled bound: every schedule that kills the writer
        // mid-flush must still terminate with the full gapless flush log and
        // a published value equal to the durable log at every publish.
        let cfg = SchedConfig {
            readers: 1,
            reader_cycles: 2,
            flushes: 2,
            ops_per_flush: 2,
            crashes: 1,
            mutation: None,
        };
        let rep = check_all_interleavings(&cfg).expect("crash recovery must preserve the protocol");
        assert_eq!(rep.flushes_logged, 2);
        assert!(rep.schedules > 0);
    }

    #[test]
    fn skip_wal_replay_is_caught() {
        // A heal that republishes the stale pre-crash front instead of
        // replaying the WAL silently drops the interrupted flush's durable
        // batch — the durable-agreement invariant must catch it.
        let cfg = SchedConfig {
            mutation: Some(Mutation::SkipWalReplay),
            ..SchedConfig::default()
        };
        assert!(cfg.crashes > 0, "mutation only fires on a crash schedule");
        let v = check_all_interleavings(&cfg).expect_err("mutation must be caught");
        assert!(v.msg.contains("durable"), "unexpected violation: {}", v.msg);
        assert!(
            v.trace.iter().any(|s| s.contains("crash")),
            "violating schedule must include the crash step: {v}"
        );
    }

    #[test]
    fn eager_catch_up_while_held_is_caught() {
        // Reclaiming the retired copy for the off-path catch-up while a
        // reader still holds it replays the lag into an observed copy.
        let cfg = SchedConfig {
            mutation: Some(Mutation::EagerCatchUpWhileHeld),
            ..SchedConfig::default()
        };
        let v = check_all_interleavings(&cfg).expect_err("mutation must be caught");
        assert!(
            v.msg.contains("observe") || v.msg.contains("immutability"),
            "unexpected violation: {}",
            v.msg
        );
        assert!(
            v.trace.iter().any(|s| s.contains("catch-up (reclaim")),
            "violating schedule must include the eager catch-up: {v}"
        );
    }

    #[test]
    fn dropped_release_wake_is_caught() {
        // A writer parked on a held retired copy after the last flush is
        // never woken when the release drops its notify.
        let cfg = SchedConfig {
            mutation: Some(Mutation::DropReleaseWake),
            ..SchedConfig::default()
        };
        let v = check_all_interleavings(&cfg).expect_err("mutation must be caught");
        assert!(
            v.msg.contains("lost wake-up"),
            "unexpected violation: {}",
            v.msg
        );
        assert!(
            v.trace.iter().any(|s| s.contains("park")),
            "violating schedule must park the writer: {v}"
        );
    }
}
