//! The ring protocol as a pure step function.
//!
//! [`distributed`](crate::distributed) used to interleave the protocol
//! decisions (which frame to accept, who owns a block pair, how a dead
//! rank's work is redistributed) with the compute and I/O that act on
//! them. This module lifts every decision into [`RankMachine`] — a
//! deterministic state machine with no clocks, threads, or byte buffers
//! — so that the *same code* can be driven two ways:
//!
//! * by the real interpreter in [`crate::distributed`], which feeds it
//!   parsed frames and executes its [`Effect`]s against the fabric and
//!   the MI kernels; and
//! * by the model checker in `gnet-analysis`, which feeds it schedules
//!   (delivery orders, delays, duplicates, crashes) and checks the
//!   emitted effects against the protocol's correctness oracles.
//!
//! A machine is always blocked on a [`Wait`]; [`RankMachine::step`]
//! consumes one [`Event`] and returns the [`Effect`]s to perform plus
//! the next wait. Frames carry *identities* (block index, assigned work
//! units), never payload bytes — the interpreter owns the bytes.
//!
//! The unit of work is a [`WorkUnit`]: a block pair, or — for the
//! antipodal pairs of an even ring, which both of their ranks meet in
//! the last round — half of one, so every rank computes the same number
//! of gene pairs ([`unit_owner`]).
//!
//! [`Mutation`] deliberately re-introduces four protocol bugs.
//! Production always runs [`Mutation::None`]; the mutants exist so the
//! model checker can prove, in its self-check, that it detects each
//! class of bug with a shrunk, replayable schedule.

use std::fmt;

/// Contiguous block bounds of rank `r` among `p` ranks over `n` genes.
#[must_use]
pub fn block_range(n: usize, p: usize, r: usize) -> (usize, usize) {
    let base = n / p;
    let extra = n % p;
    let start = r * base + r.min(extra);
    let len = base + usize::from(r < extra);
    (start, start + len)
}

/// Which of a block pair's y-side genes — the genes of the higher
/// block, the dense side of the kernel — a [`WorkUnit`] covers. Only
/// antipodal pairs ([`is_antipodal`]) are split; every other pair is
/// one [`Half::Whole`] unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Half {
    /// All of the higher block's genes.
    Whole,
    /// The higher block's genes `[0, ⌈len/2⌉)`.
    First,
    /// The higher block's genes `[⌈len/2⌉, len)`.
    Second,
}

impl Half {
    /// The `[start, end)` positions of a `len`-gene block this half covers.
    #[must_use]
    pub fn range(self, len: usize) -> (usize, usize) {
        let mid = len.div_ceil(2);
        match self {
            Self::Whole => (0, len),
            Self::First => (0, mid),
            Self::Second => (mid, len),
        }
    }

    /// Wire byte of this half.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Self::Whole => 0,
            Self::First => 1,
            Self::Second => 2,
        }
    }

    /// Inverse of [`Half::code`]; `None` for any other byte.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Whole),
            1 => Some(Self::First),
            2 => Some(Self::Second),
            _ => None,
        }
    }
}

/// One unit of ring work: the genes of block `lo` (the x side) against
/// the `half` of block `hi`'s genes (the y side), `lo ≤ hi`. For
/// `lo == hi` the unit is the pairs within the block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkUnit {
    /// Lower block index (x side).
    pub lo: usize,
    /// Higher block index (y side).
    pub hi: usize,
    /// Which of block `hi`'s genes the unit covers.
    pub half: Half,
}

impl WorkUnit {
    /// The unit `half` of the unordered block pair `{a, b}`.
    #[must_use]
    pub fn new(a: usize, b: usize, half: Half) -> Self {
        Self {
            lo: a.min(b),
            hi: a.max(b),
            half,
        }
    }

    /// Whether this is one of [`work_units`]`(p)`: both blocks exist,
    /// and the pair is split exactly when it is antipodal.
    #[must_use]
    pub fn is_unit_of(&self, p: usize) -> bool {
        self.lo <= self.hi && self.hi < p && halves(self.lo, self.hi, p).contains(&self.half)
    }
}

impl fmt::Display for WorkUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.lo, self.hi)?;
        match self.half {
            Half::Whole => Ok(()),
            Half::First => f.write_str("/first"),
            Half::Second => f.write_str("/second"),
        }
    }
}

/// Whether blocks `a` and `b` are antipodal in a `p`-rank ring: `p` is
/// even and each of the two ranks meets the other's block in the same
/// (last) round, `p/2`.
#[must_use]
pub fn is_antipodal(a: usize, b: usize, p: usize) -> bool {
    a != b && p.is_multiple_of(2) && (a + p - b) % p == p / 2
}

/// The halves the block pair `{a, b}` is cut into.
fn halves(a: usize, b: usize, p: usize) -> &'static [Half] {
    if is_antipodal(a, b, p) {
        &[Half::First, Half::Second]
    } else {
        &[Half::Whole]
    }
}

/// Every work unit of a `p`-rank ring, in canonical (sorted) order:
/// each unordered block pair whole, except antipodal pairs, which
/// appear as their two halves.
#[must_use]
pub fn work_units(p: usize) -> Vec<WorkUnit> {
    let mut units = Vec::with_capacity(p * (p + 1) / 2 + p / 2);
    for a in 0..p {
        for b in a..p {
            units.extend(halves(a, b, p).iter().map(|&h| WorkUnit::new(a, b, h)));
        }
    }
    units
}

/// Owner of a work unit among `p` ranks: a diagonal unit belongs to its
/// block's rank; a whole cross pair to the rank that meets the partner
/// block in the earlier ring round; an antipodal pair — met by both of
/// its ranks in round `p/2` — gives its first half to the lower rank
/// and its second half to the higher one, so every rank computes the
/// same number of gene pairs.
#[must_use]
pub fn unit_owner(unit: WorkUnit, p: usize) -> usize {
    let WorkUnit { lo, hi, half } = unit;
    match half {
        Half::First => lo,
        Half::Second => hi,
        // Rank `hi` holds block `lo` after `hi − lo` rounds; rank `lo`
        // holds block `hi` after `p − (hi − lo)`.
        Half::Whole if lo != hi && hi - lo < p - (hi - lo) => hi,
        Half::Whole => lo,
    }
}

/// Redistribute every work unit owned by a rank in `dead`, round-robin
/// over the survivors in canonical unit order, starting with the first
/// survivor after rank 0 (the coordinator also merges) — deterministic
/// given the dead set. A dead rank's half of an antipodal pair moves
/// alone; its partner's half stays where it was computed. Returns one
/// assignment list per rank; dead ranks get empty lists.
#[must_use]
pub fn redistribute(p: usize, dead: &[usize]) -> Vec<Vec<WorkUnit>> {
    redistribute_mutated(p, dead, false)
}

/// [`redistribute`], optionally mutated ([`Mutation::DoubleRedistribute`])
/// to hand each dead-owned unit to *two* survivors — the double-counting
/// bug the model checker's self-check must catch.
fn redistribute_mutated(p: usize, dead: &[usize], double: bool) -> Vec<Vec<WorkUnit>> {
    let mut assignments: Vec<Vec<WorkUnit>> = vec![Vec::new(); p];
    if dead.is_empty() {
        return assignments;
    }
    let survivors: Vec<usize> = (0..p).filter(|x| !dead.contains(x)).collect();
    let mut cursor = 1usize;
    for unit in work_units(p) {
        if dead.contains(&unit_owner(unit, p)) {
            assignments[survivors[cursor % survivors.len()]].push(unit);
            if double {
                assignments[survivors[(cursor + 1) % survivors.len()]].push(unit);
            }
            cursor += 1;
        }
    }
    assignments
}

/// A protocol frame, by identity. The wire encoding (tag byte, round
/// stamp, payload bytes) lives in the interpreter; the machine sees
/// only what the protocol *decides on*.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Frame {
    /// A travelling gene block: the ring round it belongs to and the
    /// global index of the block it carries.
    Block {
        /// Ring round this frame was sent for.
        round: u32,
        /// Which of the `p` blocks the payload is.
        block: usize,
    },
    /// A rank's phase-1 results (pooled nulls + candidates).
    Results,
    /// The coordinator's reassignment of dead ranks' work units.
    Assign {
        /// Work units the receiving rank must recompute.
        units: Vec<WorkUnit>,
    },
    /// A rank's recomputed share of reassigned work.
    Supplement,
}

/// One input to [`RankMachine::step`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Begin the protocol (local block is prepared).
    Start,
    /// A frame arrived on the channel the machine is waiting on.
    Frame(Frame),
    /// The bounded receive failed: timeout, peer disconnect, or an
    /// unparseable frame. The protocol treats all three identically.
    Timeout,
}

/// What the machine is blocked on after a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Wait {
    /// Blocked in a bounded receive on the channel from `from`.
    Recv {
        /// Peer rank being awaited.
        from: usize,
    },
    /// Protocol complete; the machine will not step again.
    Done,
}

/// A side effect the interpreter (or model-checker world) must perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Send `frame` to rank `to`.
    Send {
        /// Destination rank.
        to: usize,
        /// Frame to encode and send.
        frame: Frame,
    },
    /// Compute all pairs within the rank's own block.
    ComputeDiag,
    /// The incoming frame was accepted as this round's travelling
    /// block; the interpreter adopts its payload.
    AcceptBlock,
    /// Compute the cross pairs between the rank's own block and `block`
    /// (the travelling block just accepted or healed), restricted to
    /// `half` of the higher block's genes.
    ComputeCross {
        /// Foreign block index.
        block: usize,
        /// Which of the higher block's genes this rank owns.
        half: Half,
    },
    /// The expected frame was lost: rebuild `block` from the shared
    /// matrix and adopt it as the new travelling block (ring healing).
    Heal {
        /// Block index the rank was due this round.
        block: usize,
    },
    /// Recompute the given reassigned work units and add them to this
    /// rank's supplement.
    ComputeAssigned {
        /// Work units to recompute, in order.
        units: Vec<WorkUnit>,
    },
    /// Coordinator: rank `from`'s phase-1 results arrived; merge them.
    AcceptResults {
        /// Reporting rank.
        from: usize,
    },
    /// Coordinator: rank `rank` failed the census and is presumed dead.
    PresumeDead {
        /// Rank that never reported.
        rank: usize,
    },
    /// Coordinator: the census found dead ranks and redistributed their
    /// work units over the survivors.
    Redistributed {
        /// Number of ranks presumed dead.
        dead_ranks: usize,
        /// Total work units reassigned.
        units: usize,
        /// Number of surviving ranks.
        survivors: usize,
    },
    /// Coordinator: rank `from`'s supplement arrived; merge it.
    AcceptSupplement {
        /// Supplementing rank.
        from: usize,
    },
    /// Coordinator backstop: a survivor's supplement never arrived —
    /// recompute its share locally.
    RecomputeShare {
        /// Rank whose share is being recomputed.
        from: usize,
        /// That rank's assigned work units.
        units: Vec<WorkUnit>,
    },
    /// Coordinator: all parts collected; merge and threshold.
    Finalize {
        /// Ranks presumed dead by the census.
        dead: Vec<usize>,
    },
}

/// Coarse protocol phase, for the interpreter's tracing spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Local prep, diagonal block, and ring rotation.
    Ring,
    /// Census / assignment / supplement endgame.
    Endgame,
    /// Protocol complete.
    Done,
}

/// Deliberately re-introduced protocol bugs for the model checker's
/// self-check. Production code always uses [`Mutation::None`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// The faithful protocol.
    #[default]
    None,
    /// Drop the stale-frame round check in the ring receive: any
    /// `Block` frame is accepted as the current round's (the PR-5
    /// never-looping-receive bug, in its harmful form — a delayed
    /// frame corrupts the travelling-block identity).
    AcceptAnyRound,
    /// Redistribute each dead rank's work unit to *two* survivors,
    /// double-counting its nulls and candidates.
    DoubleRedistribute,
    /// Skip the coordinator's supplement backstop: a survivor whose
    /// supplement is lost silently loses its share.
    SkipSupplementBackstop,
    /// Both ranks of an antipodal pair compute the *whole* pair instead
    /// of their half, so the pair's nulls and candidates are counted
    /// twice.
    WholeAntipodal,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum State {
    Idle,
    Ring { d: usize },
    Census { from: usize },
    AwaitAssign,
    AwaitSupplement { from: usize },
    Done,
}

/// One rank's protocol state machine. See the module docs for the
/// driving contract. `Hash`/`Eq` cover the complete protocol state,
/// which is what lets the model checker deduplicate world states.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RankMachine {
    r: usize,
    p: usize,
    rounds: usize,
    next: usize,
    prev: usize,
    /// Identity of the block this rank is currently forwarding.
    travelling: usize,
    dead: Vec<usize>,
    assignments: Vec<Vec<WorkUnit>>,
    mutation: Mutation,
    state: State,
}

impl RankMachine {
    /// Machine for rank `r` of `p`, optionally mutated.
    ///
    /// # Panics
    /// Panics if `r >= p` or `p == 0`.
    #[must_use]
    pub fn new(r: usize, p: usize, mutation: Mutation) -> Self {
        assert!(p >= 1 && r < p, "rank {r} out of range for {p} ranks");
        Self {
            r,
            p,
            rounds: p / 2,
            next: (r + 1) % p,
            prev: (r + p - 1) % p,
            travelling: r,
            dead: Vec::new(),
            assignments: Vec::new(),
            mutation,
            state: State::Idle,
        }
    }

    /// This machine's rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.r
    }

    /// Coarse phase, for tracing-span management in the interpreter.
    #[must_use]
    pub fn phase(&self) -> Phase {
        match self.state {
            State::Idle | State::Ring { .. } => Phase::Ring,
            State::Done => Phase::Done,
            _ => Phase::Endgame,
        }
    }

    /// Consume one event; return the effects to perform and the next
    /// wait. Stepping a [`Wait::Done`] machine is a no-op.
    pub fn step(&mut self, event: Event) -> (Vec<Effect>, Wait) {
        let mut fx = Vec::new();
        let wait = match (self.state.clone(), event) {
            (State::Idle, Event::Start) => {
                fx.push(Effect::ComputeDiag);
                self.travelling = self.r;
                self.begin_round(1, &mut fx)
            }
            (State::Ring { d }, Event::Frame(Frame::Block { round, block })) => {
                let d32 = d as u32;
                if self.mutation != Mutation::AcceptAnyRound && round < d32 {
                    // Stale delayed frame: discard and keep waiting.
                    Wait::Recv { from: self.prev }
                } else if round > d32 {
                    // A frame from a future round on the ring channel is
                    // "unexpected" to the bounded receive — same cure as
                    // a loss: heal and move on. (The frame is consumed.)
                    self.heal_and_advance(d, &mut fx)
                } else {
                    // Accepted as this round's block. Under the faithful
                    // protocol `block == (r − d) mod p`; the mutant may
                    // adopt a stale frame's wrong identity here.
                    self.travelling = block;
                    fx.push(Effect::AcceptBlock);
                    self.compute_cross_if_owner(d, block, &mut fx);
                    self.begin_round(d + 1, &mut fx)
                }
            }
            (State::Ring { d }, Event::Timeout) => self.heal_and_advance(d, &mut fx),
            (State::Ring { d }, Event::Frame(_)) => {
                // A results/assign/supplement frame on the ring channel
                // (possible only from rank p−1 to rank 0 after a block
                // loss): "unexpected" to the bounded receive — the
                // frame is consumed and the ring heals.
                self.heal_and_advance(d, &mut fx)
            }
            (State::Census { from }, Event::Frame(Frame::Results)) => {
                fx.push(Effect::AcceptResults { from });
                self.next_census(from + 1, &mut fx)
            }
            (State::Census { from }, Event::Frame(Frame::Block { .. })) => {
                // Stale ring traffic on the results channel: skip it.
                Wait::Recv { from }
            }
            (State::Census { from }, _) => {
                // Timeout, disconnect, or a frame the census has no
                // business seeing: the rank is presumed dead.
                self.dead.push(from);
                fx.push(Effect::PresumeDead { rank: from });
                self.next_census(from + 1, &mut fx)
            }
            (State::AwaitSupplement { from }, Event::Frame(Frame::Supplement)) => {
                fx.push(Effect::AcceptSupplement { from });
                self.await_supplement(from + 1, &mut fx)
            }
            (State::AwaitSupplement { from }, Event::Frame(Frame::Block { .. })) => {
                Wait::Recv { from }
            }
            (State::AwaitSupplement { from }, _) => {
                // Supplement lost. The backstop recomputes the share
                // locally — unless the mutant under test removed it.
                if self.mutation != Mutation::SkipSupplementBackstop {
                    fx.push(Effect::RecomputeShare {
                        from,
                        units: self.assignments[from].clone(),
                    });
                }
                self.await_supplement(from + 1, &mut fx)
            }
            (State::AwaitAssign, Event::Frame(Frame::Assign { units })) => {
                if !units.is_empty() {
                    fx.push(Effect::ComputeAssigned { units });
                }
                fx.push(Effect::Send {
                    to: 0,
                    frame: Frame::Supplement,
                });
                self.state = State::Done;
                Wait::Done
            }
            (State::AwaitAssign, Event::Frame(Frame::Block { .. })) => Wait::Recv { from: 0 },
            (State::AwaitAssign, _) => {
                // Assignment lost or coordinator gone: terminate. The
                // coordinator's backstop covers our share if it was real.
                self.state = State::Done;
                Wait::Done
            }
            (State::Done, _) => Wait::Done,
            (state, event) => {
                // Machine-driving bug, not a protocol decision: the
                // interpreter/world delivered an impossible event.
                unreachable!("rank {} cannot take {event:?} in {state:?}", self.r)
            }
        };
        (fx, wait)
    }

    /// Owner check for round `d`, computing against the block the frame
    /// *claims* to be (`block`) while ownership follows the arithmetic
    /// identity — exactly the real code's split, which is what makes
    /// the `AcceptAnyRound` mutant observable.
    fn compute_cross_if_owner(&self, d: usize, block: usize, fx: &mut Vec<Effect>) {
        let held = (self.r + self.p - d) % self.p;
        if self.mutation == Mutation::WholeAntipodal && is_antipodal(self.r, held, self.p) {
            fx.push(Effect::ComputeCross {
                block,
                half: Half::Whole,
            });
            return;
        }
        let owned = halves(self.r, held, self.p)
            .iter()
            .find(|&&h| unit_owner(WorkUnit::new(self.r, held, h), self.p) == self.r);
        if let Some(&half) = owned {
            fx.push(Effect::ComputeCross { block, half });
        }
    }

    fn heal_and_advance(&mut self, d: usize, fx: &mut Vec<Effect>) -> Wait {
        let held = (self.r + self.p - d) % self.p;
        fx.push(Effect::Heal { block: held });
        self.travelling = held;
        self.compute_cross_if_owner(d, held, fx);
        self.begin_round(d + 1, fx)
    }

    fn begin_round(&mut self, d: usize, fx: &mut Vec<Effect>) -> Wait {
        if d <= self.rounds {
            fx.push(Effect::Send {
                to: self.next,
                frame: Frame::Block {
                    round: d as u32,
                    block: self.travelling,
                },
            });
            self.state = State::Ring { d };
            Wait::Recv { from: self.prev }
        } else if self.r == 0 {
            self.next_census(1, fx)
        } else {
            fx.push(Effect::Send {
                to: 0,
                frame: Frame::Results,
            });
            self.state = State::AwaitAssign;
            Wait::Recv { from: 0 }
        }
    }

    fn next_census(&mut self, from: usize, fx: &mut Vec<Effect>) -> Wait {
        if from < self.p {
            self.state = State::Census { from };
            return Wait::Recv { from };
        }
        // Census complete: redistribute, assign, compute own share.
        self.assignments = redistribute_mutated(
            self.p,
            &self.dead,
            self.mutation == Mutation::DoubleRedistribute,
        );
        if !self.dead.is_empty() {
            fx.push(Effect::Redistributed {
                dead_ranks: self.dead.len(),
                units: self.assignments.iter().map(Vec::len).sum(),
                survivors: self.p - self.dead.len(),
            });
        }
        for (to, units) in self.assignments.iter().enumerate().skip(1) {
            fx.push(Effect::Send {
                to,
                frame: Frame::Assign {
                    units: units.clone(),
                },
            });
        }
        if !self.assignments[0].is_empty() {
            fx.push(Effect::ComputeAssigned {
                units: self.assignments[0].clone(),
            });
        }
        self.await_supplement(1, fx)
    }

    fn await_supplement(&mut self, from: usize, fx: &mut Vec<Effect>) -> Wait {
        let mut f = from;
        while f < self.p && self.dead.contains(&f) {
            f += 1;
        }
        if f < self.p {
            self.state = State::AwaitSupplement { from: f };
            return Wait::Recv { from: f };
        }
        fx.push(Effect::Finalize {
            dead: self.dead.clone(),
        });
        self.state = State::Done;
        Wait::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sends(fx: &[Effect]) -> Vec<(usize, Frame)> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::Send { to, frame } => Some((*to, frame.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_rank_finalizes_immediately() {
        let mut m = RankMachine::new(0, 1, Mutation::None);
        let (fx, wait) = m.step(Event::Start);
        assert_eq!(wait, Wait::Done);
        assert!(matches!(fx[0], Effect::ComputeDiag));
        assert!(matches!(fx.last(), Some(Effect::Finalize { dead }) if dead.is_empty()));
    }

    #[test]
    fn faithful_ring_computes_each_unit_once() {
        // Drive a p-rank ring by hand with perfect delivery and check
        // the union of computed units is exactly every work unit once.
        for p in 1..=6 {
            let mut machines: Vec<_> = (0..p)
                .map(|r| RankMachine::new(r, p, Mutation::None))
                .collect();
            let mut computed: Vec<WorkUnit> = Vec::new();
            let mut inflight: Vec<Vec<(usize, Frame)>> = vec![Vec::new(); p]; // per-sender
            for (r, m) in machines.iter_mut().enumerate() {
                let (fx, _) = m.step(Event::Start);
                for e in &fx {
                    match e {
                        Effect::ComputeDiag => computed.push(WorkUnit::new(r, r, Half::Whole)),
                        Effect::Send { to, frame } => inflight[r].push((*to, frame.clone())),
                        _ => {}
                    }
                }
            }
            // ⌊p/2⌋ synchronous ring rounds.
            for _ in 0..p / 2 {
                let mut next_inflight: Vec<Vec<(usize, Frame)>> = vec![Vec::new(); p];
                for sent in &mut inflight {
                    for (to, frame) in std::mem::take(sent) {
                        if matches!(frame, Frame::Block { .. }) {
                            let (fx, _) = machines[to].step(Event::Frame(frame));
                            for e in &fx {
                                match e {
                                    Effect::ComputeCross { block, half } => {
                                        let unit = WorkUnit::new(to, *block, *half);
                                        assert_eq!(unit_owner(unit, p), to, "p={p} {unit}");
                                        computed.push(unit);
                                    }
                                    Effect::Send { to: t, frame: f } => {
                                        next_inflight[to].push((*t, f.clone()));
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                }
                inflight = next_inflight;
            }
            computed.sort_unstable();
            assert_eq!(computed, work_units(p), "p={p}");
        }
    }

    #[test]
    fn antipodal_pairs_split_between_their_two_ranks() {
        for p in 1..=9 {
            let units = work_units(p);
            assert!(
                units.windows(2).all(|w| w[0] < w[1]),
                "p={p}: canonical order"
            );
            assert!(units.iter().all(|u| u.is_unit_of(p)));
            let split = units.iter().filter(|u| u.half != Half::Whole).count();
            assert_eq!(split, if p % 2 == 0 { p } else { 0 }, "p={p}");
            for u in units {
                let owner = unit_owner(u, p);
                assert!(owner == u.lo || owner == u.hi, "p={p} {u}: owner {owner}");
                if u.lo != u.hi {
                    // The owner meets the partner block within ⌊p/2⌋ rounds.
                    let partner = u.lo + u.hi - owner;
                    let round = (owner + p - partner) % p;
                    assert!((1..=p / 2).contains(&round), "p={p} {u}: round {round}");
                }
            }
        }
        assert_eq!(unit_owner(WorkUnit::new(2, 0, Half::First), 4), 0);
        assert_eq!(unit_owner(WorkUnit::new(2, 0, Half::Second), 4), 2);
        assert!(!WorkUnit::new(0, 2, Half::Whole).is_unit_of(4));
        assert!(!WorkUnit::new(0, 1, Half::First).is_unit_of(4));
        assert!(!WorkUnit::new(0, 4, Half::Whole).is_unit_of(4));
    }

    #[test]
    fn halves_partition_the_higher_block() {
        for len in 0..9 {
            let (s1, e1) = Half::First.range(len);
            let (s2, e2) = Half::Second.range(len);
            assert_eq!((s1, e1, e2), (0, s2, len), "len={len}");
            assert_eq!(e1, len.div_ceil(2));
            assert_eq!(Half::Whole.range(len), (0, len));
        }
        for h in [Half::Whole, Half::First, Half::Second] {
            assert_eq!(Half::from_code(h.code()), Some(h));
        }
        assert_eq!(Half::from_code(3), None);
    }

    #[test]
    fn whole_antipodal_mutant_computes_the_whole_pair() {
        for r in 0..2 {
            let mut m = RankMachine::new(r, 2, Mutation::WholeAntipodal);
            let _ = m.step(Event::Start);
            let (fx, _) = m.step(Event::Frame(Frame::Block {
                round: 1,
                block: 1 - r,
            }));
            assert!(
                fx.contains(&Effect::ComputeCross {
                    block: 1 - r,
                    half: Half::Whole
                }),
                "rank {r}: {fx:?}"
            );
        }
    }

    #[test]
    fn stale_frames_are_skipped_without_effects() {
        let mut m = RankMachine::new(1, 4, Mutation::None);
        let (_, w) = m.step(Event::Start);
        assert_eq!(w, Wait::Recv { from: 0 });
        // Accept round 1 normally, then a stale round-1 frame in round 2.
        let (_, _) = m.step(Event::Frame(Frame::Block { round: 1, block: 0 }));
        let (fx, w) = m.step(Event::Frame(Frame::Block { round: 1, block: 0 }));
        assert!(fx.is_empty(), "stale frame must have no effects: {fx:?}");
        assert_eq!(w, Wait::Recv { from: 0 });
    }

    #[test]
    fn accept_any_round_mutant_adopts_stale_identity() {
        let mut m = RankMachine::new(1, 4, Mutation::AcceptAnyRound);
        let _ = m.step(Event::Start);
        let _ = m.step(Event::Timeout); // round 1 lost: heal block 0
        let (fx, _) = m.step(Event::Frame(Frame::Block { round: 1, block: 0 }));
        // Round 2: the stale round-1 frame is adopted, so the mutant
        // recomputes half of {0,1} instead of its owed half of {1,3}.
        assert!(
            fx.contains(&Effect::ComputeCross {
                block: 0,
                half: Half::First
            }),
            "mutant must compute against the stale identity: {fx:?}"
        );
    }

    #[test]
    fn timeout_heals_the_due_block() {
        let mut m = RankMachine::new(2, 4, Mutation::None);
        let _ = m.step(Event::Start);
        let (fx, _) = m.step(Event::Timeout);
        assert!(fx.contains(&Effect::Heal { block: 1 }));
        // Rank 2 owns {1,2} (meets block 1 in round 1).
        assert!(fx.contains(&Effect::ComputeCross {
            block: 1,
            half: Half::Whole
        }));
        // Healing forwards the rebuilt block as round 2's travelling.
        assert!(sends(&fx)
            .iter()
            .any(|(to, f)| *to == 3 && matches!(f, Frame::Block { round: 2, block: 1 })));
    }

    #[test]
    fn census_presumes_silent_ranks_dead_and_redistributes() {
        let p = 3;
        let mut m = RankMachine::new(0, p, Mutation::None);
        let _ = m.step(Event::Start);
        let _ = m.step(Event::Frame(Frame::Block { round: 1, block: 2 })); // ring round
        let (_, w) = m.step(Event::Frame(Frame::Results)); // rank 1 reports
        assert_eq!(w, Wait::Recv { from: 2 });
        let (fx, w) = m.step(Event::Timeout); // rank 2 dead
        assert!(fx.contains(&Effect::PresumeDead { rank: 2 }));
        let expected = redistribute(p, &[2]);
        let total: usize = expected.iter().map(Vec::len).sum();
        assert!(total > 0, "rank 2 owns units that must be reassigned");
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Redistributed { dead_ranks: 1, units, survivors: 2 } if *units == total
        )));
        // Assignments go to every nonzero rank, dead or not.
        assert_eq!(sends(&fx).len(), p - 1);
        // Rank 1 is the only live supplement to wait for.
        assert_eq!(w, Wait::Recv { from: 1 });
        let (fx, w) = m.step(Event::Timeout); // rank 1's supplement lost
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::RecomputeShare { from: 1, units } if *units == expected[1]
        )));
        assert!(matches!(fx.last(), Some(Effect::Finalize { dead }) if dead == &vec![2]));
        assert_eq!(w, Wait::Done);
    }

    #[test]
    fn a_dead_ranks_half_is_reassigned_alone() {
        // Rank 1 of 2 owns its diagonal and the second half of {0,1};
        // rank 2 of 4 owns its diagonal, {1,2}, and the second half of
        // {0,2}. Exactly those units move, round-robin from rank 1.
        let a = redistribute(2, &[1]);
        assert_eq!(
            a,
            vec![
                vec![
                    WorkUnit::new(0, 1, Half::Second),
                    WorkUnit::new(1, 1, Half::Whole)
                ],
                vec![]
            ]
        );
        let a = redistribute(4, &[2]);
        assert_eq!(
            a,
            vec![
                vec![WorkUnit::new(2, 2, Half::Whole)],
                vec![WorkUnit::new(0, 2, Half::Second)],
                vec![],
                vec![WorkUnit::new(1, 2, Half::Whole)]
            ]
        );
    }

    #[test]
    fn double_redistribute_mutant_assigns_pairs_twice() {
        let plain = redistribute(4, &[3]);
        let doubled = redistribute_mutated(4, &[3], true);
        let n: usize = plain.iter().map(Vec::len).sum();
        let d: usize = doubled.iter().map(Vec::len).sum();
        assert_eq!(d, 2 * n);
    }

    #[test]
    fn skip_backstop_mutant_drops_lost_shares() {
        let mut m = RankMachine::new(0, 2, Mutation::SkipSupplementBackstop);
        let _ = m.step(Event::Start);
        let _ = m.step(Event::Frame(Frame::Block { round: 1, block: 1 }));
        let _ = m.step(Event::Frame(Frame::Results));
        let (fx, w) = m.step(Event::Timeout); // supplement lost
        assert!(
            !fx.iter()
                .any(|e| matches!(e, Effect::RecomputeShare { .. })),
            "mutant must skip the backstop: {fx:?}"
        );
        assert_eq!(w, Wait::Done);
    }

    #[test]
    fn redistribution_is_balanced_and_deterministic() {
        let a = redistribute(5, &[2, 4]);
        let b = redistribute(5, &[2, 4]);
        assert_eq!(a, b);
        assert!(a[2].is_empty() && a[4].is_empty());
        let loads: Vec<usize> = [0, 1, 3].iter().map(|&r| a[r].len()).collect();
        let max = loads.iter().max().unwrap();
        let min = loads.iter().min().unwrap();
        assert!(max - min <= 1, "unbalanced: {loads:?}");
    }
}
