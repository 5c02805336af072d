//! The model-checker world: every rank's [`RankMachine`] plus the
//! message pool, fault budgets, and the correctness oracles.
//!
//! The world is a deterministic transition system. A state is the tuple
//! (machine states, per-ordered-pair FIFO channels, crash flags, fault
//! budgets, coverage ledgers); an [`Action`] is one schedule decision —
//! start a rank, deliver the head frame of the channel a rank is
//! blocked on, time a receive out, crash a rank, or drop/duplicate a
//! frame in flight. [`World::enabled`] enumerates the decisions that
//! are *physically possible* in the real fabric:
//!
//! * a receive can only return a frame that is actually buffered
//!   (`Deliver` requires a non-empty channel);
//! * a timeout can only fire on an *empty* channel — it is "free" when
//!   the awaited sender can provably never send again (crashed, or
//!   protocol-complete) or when the expected frame was dropped, and
//!   otherwise costs one unit of the spurious-timeout budget (modelling
//!   a frame delayed past `DEFAULT_PEER_TIMEOUT`: the timeout fires,
//!   the frame stays in flight and arrives stale later);
//! * rank 0 never crashes — the real driver treats coordinator loss as
//!   job loss, so schedules that crash it check nothing.
//!
//! Coverage is tracked exactly the way the interpreter accumulates
//! results, in [`WorkUnit`]s: each rank's phase-1 units
//! ([`Effect::ComputeDiag`] / [`Effect::ComputeCross`], the latter
//! naming its half) and supplement units ([`Effect::ComputeAssigned`])
//! are ledgered per rank, and enter the *merged* multiset only when the
//! coordinator actually merges that rank's frame
//! ([`Effect::AcceptResults`] / [`Effect::AcceptSupplement`]) or
//! recomputes its share ([`Effect::RecomputeShare`]). At
//! [`Effect::Finalize`] the coordinator's own ledgers join, and the
//! merged multiset must be *exactly* every work unit once — anything
//! missing, duplicated, or not a unit of the ring is a protocol
//! violation.

use gnet_cluster::protocol::{
    work_units, Effect, Event, Frame, Half, Mutation, RankMachine, Wait, WorkUnit,
};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use super::{Action, Violation};

/// Fault budgets for one exploration (and one replay): how many of each
/// adversarial event a schedule may contain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Budgets {
    /// Rank crashes (rank 0 excluded).
    pub crashes: usize,
    /// Spurious timeouts: receives that give up on a frame that is
    /// merely delayed, not lost.
    pub timeouts: usize,
    /// Frames dropped in flight.
    pub drops: usize,
    /// Frames duplicated in flight.
    pub dups: usize,
}

/// What a machine is blocked on, from the world's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Block {
    /// `Event::Start` not yet delivered.
    NotStarted,
    /// Blocked in a bounded receive on the channel from this rank.
    Recv(usize),
    /// Protocol complete.
    Done,
}

/// One explorable state of the whole ring. See the module docs.
#[derive(Clone, Debug)]
pub struct World {
    p: usize,
    machines: Vec<RankMachine>,
    blocks: Vec<Block>,
    crashed: Vec<bool>,
    /// `chans[from][to]`: reliable ordered channel, like the fabric's.
    chans: Vec<Vec<VecDeque<Frame>>>,
    /// Frames dropped from `chans[from][to]` whose timeout has not yet
    /// fired; justifies a free timeout on that channel.
    dropped: Vec<Vec<usize>>,
    left: Budgets,
    steps: usize,
    /// Phase-1 units each rank computed (diag + owned cross units).
    phase1: Vec<Vec<WorkUnit>>,
    /// Reassigned units each rank recomputed into its supplement.
    supp: Vec<Vec<WorkUnit>>,
    /// Units the coordinator actually merged, as a multiset.
    merged: Vec<WorkUnit>,
    /// Which ranks' phase-1 results the coordinator merged.
    results_merged: Vec<bool>,
    /// Dead set reported by `Effect::Finalize`, once it happens.
    finalized: Option<Vec<usize>>,
}

impl World {
    /// Fresh world of `ranks` machines with the given budgets.
    #[must_use]
    pub fn new(ranks: usize, mutation: Mutation, budgets: Budgets) -> Self {
        Self {
            p: ranks,
            machines: (0..ranks)
                .map(|r| RankMachine::new(r, ranks, mutation))
                .collect(),
            blocks: vec![Block::NotStarted; ranks],
            crashed: vec![false; ranks],
            chans: vec![vec![VecDeque::new(); ranks]; ranks],
            dropped: vec![vec![0; ranks]; ranks],
            left: budgets,
            steps: 0,
            phase1: vec![Vec::new(); ranks],
            supp: vec![Vec::new(); ranks],
            merged: Vec::new(),
            results_merged: vec![false; ranks],
            finalized: None,
        }
    }

    /// Number of ranks.
    #[must_use]
    pub fn ranks(&self) -> usize {
        self.p
    }

    /// Actions applied so far (the livelock step counter).
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// A timeout needs no budget when the awaited sender can provably
    /// never send again, or the expected frame was dropped.
    fn timeout_is_free(&self, from: usize, to: usize) -> bool {
        self.crashed[from] || self.blocks[from] == Block::Done || self.dropped[from][to] > 0
    }

    /// Whether frames sent to `to` can still be observed by anyone.
    fn receiver_live(&self, to: usize) -> bool {
        !self.crashed[to] && self.blocks[to] != Block::Done
    }

    /// Every action possible in this state, in a canonical order (the
    /// exploration and the determinism guarantee depend on the order
    /// being a pure function of the state).
    #[must_use]
    pub fn enabled(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for m in 0..self.p {
            if !self.crashed[m] && self.blocks[m] == Block::NotStarted {
                out.push(Action::Start { rank: m });
            }
        }
        for m in 0..self.p {
            if let (false, Block::Recv(from)) = (self.crashed[m], self.blocks[m]) {
                if !self.chans[from][m].is_empty() {
                    out.push(Action::Deliver { rank: m });
                }
            }
        }
        for m in 0..self.p {
            if let (false, Block::Recv(from)) = (self.crashed[m], self.blocks[m]) {
                if self.chans[from][m].is_empty()
                    && (self.timeout_is_free(from, m) || self.left.timeouts > 0)
                {
                    out.push(Action::Timeout { rank: m });
                }
            }
        }
        if self.left.crashes > 0 {
            for m in 1..self.p {
                if !self.crashed[m] && self.blocks[m] != Block::Done {
                    out.push(Action::Crash { rank: m });
                }
            }
        }
        for (kind, budget) in [(0u8, self.left.drops), (1u8, self.left.dups)] {
            if budget == 0 {
                continue;
            }
            for from in 0..self.p {
                for to in 0..self.p {
                    if !self.chans[from][to].is_empty() && self.receiver_live(to) {
                        out.push(if kind == 0 {
                            Action::Drop { from, to }
                        } else {
                            Action::Dup { from, to }
                        });
                    }
                }
            }
        }
        out
    }

    /// Whether `a` is enabled right now (used by strict replay).
    #[must_use]
    pub fn action_enabled(&self, a: Action) -> bool {
        self.enabled().contains(&a)
    }

    /// Apply one action. The caller must ensure it is enabled.
    pub fn apply(&mut self, a: Action) {
        self.steps += 1;
        match a {
            Action::Start { rank } => {
                let (fx, wait) = self.machines[rank].step(Event::Start);
                self.post(rank, &fx, wait);
            }
            Action::Deliver { rank } => {
                let Block::Recv(from) = self.blocks[rank] else {
                    unreachable!("deliver to rank {rank} which is not receiving")
                };
                let frame = self.chans[from][rank]
                    .pop_front()
                    .expect("deliver requires a buffered frame");
                let (fx, wait) = self.machines[rank].step(Event::Frame(frame));
                self.post(rank, &fx, wait);
            }
            Action::Timeout { rank } => {
                let Block::Recv(from) = self.blocks[rank] else {
                    unreachable!("timeout at rank {rank} which is not receiving")
                };
                if self.dropped[from][rank] > 0 {
                    // The awaited frame was dropped: this is the real
                    // DEFAULT_PEER_TIMEOUT expiring, not an injected one.
                    self.dropped[from][rank] -= 1;
                } else if !self.crashed[from] && self.blocks[from] != Block::Done {
                    self.left.timeouts = self.left.timeouts.saturating_sub(1);
                }
                let (fx, wait) = self.machines[rank].step(Event::Timeout);
                self.post(rank, &fx, wait);
            }
            Action::Crash { rank } => {
                self.crashed[rank] = true;
                self.left.crashes = self.left.crashes.saturating_sub(1);
            }
            Action::Drop { from, to } => {
                self.chans[from][to].pop_front();
                self.dropped[from][to] += 1;
                self.left.drops = self.left.drops.saturating_sub(1);
            }
            Action::Dup { from, to } => {
                if let Some(head) = self.chans[from][to].front().cloned() {
                    self.chans[from][to].insert(1, head);
                }
                self.left.dups = self.left.dups.saturating_sub(1);
            }
        }
    }

    /// Execute a step's effects against the world (the model-checking
    /// analogue of the interpreter in `gnet_cluster::distributed`).
    fn post(&mut self, m: usize, fx: &[Effect], wait: Wait) {
        for e in fx {
            match e {
                Effect::Send { to, frame } => {
                    // The armed fabric discards sends to crashed peers.
                    if !self.crashed[*to] {
                        self.chans[m][*to].push_back(frame.clone());
                    }
                }
                Effect::ComputeDiag => self.phase1[m].push(WorkUnit::new(m, m, Half::Whole)),
                Effect::ComputeCross { block, half } => {
                    self.phase1[m].push(WorkUnit::new(m, *block, *half));
                }
                Effect::ComputeAssigned { units } => self.supp[m].extend(units.iter().copied()),
                Effect::AcceptResults { from } => {
                    let part = self.phase1[*from].clone();
                    self.merged.extend(part);
                    self.results_merged[*from] = true;
                }
                Effect::AcceptSupplement { from } => {
                    let part = self.supp[*from].clone();
                    self.merged.extend(part);
                }
                Effect::RecomputeShare { units, .. } => self.merged.extend(units.iter().copied()),
                Effect::Finalize { dead } => {
                    let own = self.phase1[m].clone();
                    self.merged.extend(own);
                    let own_supp = self.supp[m].clone();
                    self.merged.extend(own_supp);
                    self.finalized = Some(dead.clone());
                }
                Effect::AcceptBlock
                | Effect::Heal { .. }
                | Effect::PresumeDead { .. }
                | Effect::Redistributed { .. } => {}
            }
        }
        self.blocks[m] = match wait {
            Wait::Recv { from } => Block::Recv(from),
            Wait::Done => Block::Done,
        };
    }

    /// All machines finished or crashed: the run is over.
    #[must_use]
    pub fn terminal(&self) -> bool {
        (0..self.p).all(|m| self.crashed[m] || self.blocks[m] == Block::Done)
    }

    /// Ranks blocked in a receive (for deadlock diagnostics).
    #[must_use]
    pub fn blocked_ranks(&self) -> Vec<usize> {
        (0..self.p)
            .filter(|&m| !self.crashed[m] && matches!(self.blocks[m], Block::Recv(_)))
            .collect()
    }

    /// Correctness oracles for a terminal state: census consistency
    /// first (better diagnosis), then exact pair coverage.
    #[must_use]
    pub fn check_terminal(&self) -> Option<Violation> {
        let Some(dead) = &self.finalized else {
            return Some(Violation::CensusDivergence {
                detail: "coordinator terminated without finalizing".to_string(),
            });
        };
        for m in 1..self.p {
            let presumed_dead = dead.contains(&m);
            if presumed_dead && self.results_merged[m] {
                return Some(Violation::CensusDivergence {
                    detail: format!("rank {m} presumed dead but its results were merged"),
                });
            }
            if !presumed_dead && !self.results_merged[m] {
                return Some(Violation::CensusDivergence {
                    detail: format!("rank {m} counted alive but its results were never merged"),
                });
            }
        }
        let mut got = self.merged.clone();
        got.sort_unstable();
        let mut missing = Vec::new();
        let mut duplicated = Vec::new();
        let mut i = 0;
        for unit in work_units(self.p) {
            let mut count = 0;
            while i < got.len() && got[i] < unit {
                // A unit outside the ring's universe (e.g. a whole
                // antipodal pair) overlaps the units it should have
                // been split into: count it as duplicated work.
                duplicated.push(got[i]);
                i += 1;
            }
            while i < got.len() && got[i] == unit {
                count += 1;
                i += 1;
            }
            match count {
                0 => missing.push(unit),
                1 => {}
                _ => duplicated.push(unit),
            }
        }
        duplicated.extend(got[i..].iter().copied());
        if missing.is_empty() && duplicated.is_empty() {
            None
        } else {
            Some(Violation::Coverage {
                missing,
                duplicated,
            })
        }
    }

    /// Deterministic 64-bit fingerprint of the protocol-relevant state,
    /// for visited-state deduplication. Two states with equal
    /// fingerprints are treated as explored; coverage ledgers are
    /// hashed as sorted multisets because the oracles only compare
    /// multisets. The step counter is deliberately excluded — depth
    /// does not change future behaviour.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::default();
        self.machines.hash(&mut h);
        self.blocks.hash(&mut h);
        self.crashed.hash(&mut h);
        self.chans.hash(&mut h);
        self.dropped.hash(&mut h);
        self.left.hash(&mut h);
        for ledger in [&self.phase1, &self.supp] {
            for per_rank in ledger {
                let mut sorted = per_rank.clone();
                sorted.sort_unstable();
                sorted.hash(&mut h);
            }
        }
        let mut merged = self.merged.clone();
        merged.sort_unstable();
        merged.hash(&mut h);
        self.results_merged.hash(&mut h);
        self.finalized.hash(&mut h);
        h.finish()
    }
}

/// FNV-1a, fixed offset/prime — a deterministic `Hasher` so fingerprints
/// are stable across runs and platforms (unlike `RandomState`).
struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_faults() -> Budgets {
        Budgets {
            crashes: 0,
            timeouts: 0,
            drops: 0,
            dups: 0,
        }
    }

    /// Drive the world by always taking the first enabled action; with
    /// no fault budget this is a fault-free schedule and must cover
    /// every pair exactly once.
    #[test]
    fn fault_free_schedule_reaches_clean_terminal() {
        for p in [1, 2, 3, 4, 5] {
            let mut w = World::new(p, Mutation::None, no_faults());
            while let Some(&a) = w.enabled().first() {
                w.apply(a);
                assert!(w.steps() < 500, "runaway at p={p}");
            }
            assert!(w.terminal(), "p={p} did not terminate");
            assert_eq!(w.check_terminal(), None, "p={p} violated");
        }
    }

    #[test]
    fn whole_antipodal_mutant_double_counts_the_split_pair() {
        let mut w = World::new(2, Mutation::WholeAntipodal, no_faults());
        while let Some(&a) = w.enabled().first() {
            w.apply(a);
        }
        assert!(w.terminal());
        let whole = WorkUnit::new(0, 1, Half::Whole);
        assert_eq!(
            w.check_terminal(),
            Some(Violation::Coverage {
                missing: vec![
                    WorkUnit::new(0, 1, Half::First),
                    WorkUnit::new(0, 1, Half::Second)
                ],
                duplicated: vec![whole, whole],
            })
        );
    }

    #[test]
    fn fingerprint_distinguishes_and_matches() {
        let a = World::new(3, Mutation::None, no_faults());
        let b = World::new(3, Mutation::None, no_faults());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = World::new(3, Mutation::None, no_faults());
        c.apply(Action::Start { rank: 0 });
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn crash_disables_rank_and_frees_timeouts() {
        let mut w = World::new(
            3,
            Mutation::None,
            Budgets {
                crashes: 1,
                ..no_faults()
            },
        );
        for r in 0..3 {
            w.apply(Action::Start { rank: r });
        }
        w.apply(Action::Crash { rank: 2 });
        let en = w.enabled();
        assert!(!en
            .iter()
            .any(|a| matches!(a, Action::Start { rank } | Action::Deliver { rank } if *rank == 2)));
        // Rank 0 awaits rank 2's (never-sent... actually sent at start)
        // frames; once drained, timeouts on the dead channel are free.
        assert!(en.contains(&Action::Deliver { rank: 0 }));
    }

    #[test]
    fn drop_makes_the_timeout_free() {
        let mut w = World::new(
            2,
            Mutation::None,
            Budgets {
                drops: 1,
                ..no_faults()
            },
        );
        w.apply(Action::Start { rank: 0 });
        w.apply(Action::Start { rank: 1 });
        // p=2: one round; rank 1 waits on rank 0's block frame.
        w.apply(Action::Drop { from: 0, to: 1 });
        assert!(w.enabled().contains(&Action::Timeout { rank: 1 }));
        w.apply(Action::Timeout { rank: 1 });
        // The budgetless world had no spurious timeouts to spend; the
        // drop justified it.
        assert!(w.terminal() || !w.enabled().is_empty());
    }
}
