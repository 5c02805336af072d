//! Model checking for the cluster ring protocol.
//!
//! `gnet-cluster` exposes its ring protocol as a pure step function
//! ([`gnet_cluster::RankMachine`]); this module drives *that exact
//! code* — not a re-model of it — through every schedule a bounded
//! adversary can produce: delivery orders, delayed and duplicated
//! frames, dropped frames, and rank crashes at every protocol step.
//!
//! * [`world`] — the transition system: machines × per-channel FIFO
//!   message pools × fault budgets, plus the correctness oracles
//!   (deadlock, census divergence, exact work-unit coverage).
//! * [`explore`] — bounded stateful DFS with FNV fingerprint
//!   deduplication (commuting interleavings collapse to one state, the
//!   partial-order reduction that makes exhaustive bounds tractable)
//!   and a seeded random-walk fallback once the state cap is hit.
//! * [`self_check`] — proves the checker catches real bugs: four
//!   protocol mutations are injected ([`Mutation::AcceptAnyRound`],
//!   [`Mutation::DoubleRedistribute`],
//!   [`Mutation::SkipSupplementBackstop`], [`Mutation::WholeAntipodal`])
//!   and each must be detected with a shrunk, replayable schedule, while
//!   the faithful protocol must explore clean.
//!
//! Failures shrink to a minimal [`Schedule`] string — same UX as the
//! conformance harness's replay specs — e.g.:
//!
//! ```text
//! ranks=4;crashes=1;timeouts=1;drops=1;dups=1;mutation=accept-any-round;trace=s1,t1,s0,d1,...
//! ```
//!
//! which [`replay`] re-executes deterministically.

pub mod explore;
pub mod self_check;
pub mod world;

pub use explore::{explore, ExploreReport, FoundViolation};
pub use gnet_cluster::protocol::Mutation;
use gnet_cluster::protocol::WorkUnit;
pub use self_check::{self_check, SelfCheckEntry, SelfCheckReport};
pub use world::{Budgets, World};

/// Exploration bounds: which ring sizes to check and how much
/// adversarial behaviour the schedule may contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bounds {
    /// Ring sizes to explore, each exhaustively (within the caps).
    pub ranks: Vec<usize>,
    /// Fault budgets per schedule.
    pub budgets: Budgets,
    /// Livelock oracle: a single schedule longer than this is reported.
    pub max_steps: usize,
    /// Cap on distinct states per (ranks, mutation) exploration; when
    /// hit, the DFS is truncated and random walks probe the remainder.
    pub max_states: usize,
    /// Random walks to run after a capped DFS.
    pub walks: usize,
    /// Seed for the random-walk schedule generator.
    pub seed: u64,
}

impl Bounds {
    /// PR-gate bounds: small rings, one fault of each kind — minutes of
    /// CI, yet every known mutation class is reachable (see
    /// [`self_check`]).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            ranks: vec![2, 3, 4],
            budgets: Budgets {
                crashes: 1,
                timeouts: 1,
                drops: 1,
                dups: 1,
            },
            max_steps: 200,
            max_states: 250_000,
            walks: 256,
            seed: 0x676e_6574, // "gnet"
        }
    }

    /// Nightly bounds: larger rings and fault budgets. The DFS will hit
    /// the state cap on the big configurations; the seeded random walks
    /// then probe the deep schedules the cap excluded.
    #[must_use]
    pub fn full() -> Self {
        Self {
            ranks: vec![2, 3, 4, 5, 6],
            budgets: Budgets {
                crashes: 2,
                timeouts: 2,
                drops: 2,
                dups: 2,
            },
            max_steps: 400,
            max_states: 1_500_000,
            walks: 4096,
            seed: 0x676e_6574,
        }
    }
}

/// One schedule decision. Rendered as a compact token in schedule
/// strings: `s1` start, `d1` deliver, `t1` timeout, `x1` crash,
/// `D0-1` drop, `u0-1` duplicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// Deliver `Event::Start` to a rank (its input block is prepared).
    Start {
        /// Rank starting.
        rank: usize,
    },
    /// Deliver the head frame of the channel `rank` is blocked on.
    Deliver {
        /// Receiving rank.
        rank: usize,
    },
    /// Fire `rank`'s receive timeout (free if the awaited sender is
    /// gone or the frame was dropped; otherwise a budgeted delay).
    Timeout {
        /// Rank whose receive times out.
        rank: usize,
    },
    /// Crash a rank (never rank 0 — coordinator loss is job loss).
    Crash {
        /// Rank to crash.
        rank: usize,
    },
    /// Drop the head frame of channel `from → to`.
    Drop {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
    },
    /// Duplicate the head frame of channel `from → to`.
    Dup {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
    },
}

impl Action {
    /// Compact schedule-string token.
    #[must_use]
    pub fn token(&self) -> String {
        match self {
            Self::Start { rank } => format!("s{rank}"),
            Self::Deliver { rank } => format!("d{rank}"),
            Self::Timeout { rank } => format!("t{rank}"),
            Self::Crash { rank } => format!("x{rank}"),
            Self::Drop { from, to } => format!("D{from}-{to}"),
            Self::Dup { from, to } => format!("u{from}-{to}"),
        }
    }

    /// Parse one token produced by [`Action::token`].
    ///
    /// # Errors
    /// Returns a message when the token is malformed.
    pub fn parse_token(tok: &str) -> Result<Self, String> {
        let bad = || format!("bad schedule token {tok:?}");
        let mut chars = tok.chars();
        let head = chars.next().ok_or_else(bad)?;
        let rest = chars.as_str();
        let rank = |s: &str| s.parse::<usize>().map_err(|_| bad());
        let channel = |s: &str| -> Result<(usize, usize), String> {
            let (f, t) = s.split_once('-').ok_or_else(bad)?;
            Ok((rank(f)?, rank(t)?))
        };
        match head {
            's' => Ok(Self::Start { rank: rank(rest)? }),
            'd' => Ok(Self::Deliver { rank: rank(rest)? }),
            't' => Ok(Self::Timeout { rank: rank(rest)? }),
            'x' => Ok(Self::Crash { rank: rank(rest)? }),
            'D' => channel(rest).map(|(from, to)| Self::Drop { from, to }),
            'u' => channel(rest).map(|(from, to)| Self::Dup { from, to }),
            _ => Err(bad()),
        }
    }
}

/// A protocol property violation found by exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Every live rank is blocked in a bounded receive with an empty
    /// channel and no justification to time out.
    Deadlock {
        /// Ranks stuck in a receive.
        blocked: Vec<usize>,
    },
    /// A single schedule exceeded the step budget without terminating.
    Livelock {
        /// Steps taken when the budget ran out.
        steps: usize,
    },
    /// The merged result is not exactly every work unit once.
    Coverage {
        /// Units never merged (lost work).
        missing: Vec<WorkUnit>,
        /// Units merged more than once, or not units of the ring at all
        /// (double-counted work).
        duplicated: Vec<WorkUnit>,
    },
    /// The coordinator's dead set disagrees with what it merged.
    CensusDivergence {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl Violation {
    /// Stable kind string (used in reports and shrink equivalence).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Deadlock { .. } => "deadlock",
            Self::Livelock { .. } => "livelock",
            Self::Coverage { .. } => "coverage",
            Self::CensusDivergence { .. } => "census-divergence",
        }
    }

    /// One-line human-readable description.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Self::Deadlock { blocked } => {
                format!("deadlock: ranks {blocked:?} blocked in recv with empty channels")
            }
            Self::Livelock { steps } => {
                format!("livelock: schedule exceeded {steps} steps without terminating")
            }
            Self::Coverage {
                missing,
                duplicated,
            } => {
                let list = |units: &[WorkUnit]| {
                    let items: Vec<String> = units.iter().map(ToString::to_string).collect();
                    format!("[{}]", items.join(", "))
                };
                format!(
                    "coverage: {} work unit(s) lost {}, {} duplicated {}",
                    missing.len(),
                    list(missing),
                    duplicated.len(),
                    list(duplicated)
                )
            }
            Self::CensusDivergence { detail } => format!("census divergence: {detail}"),
        }
    }
}

/// A self-contained, replayable schedule: ring size, fault budgets,
/// mutation, and the action trace. Rendered/parsed as a one-line spec
/// (see the module docs for the format).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Ring size.
    pub ranks: usize,
    /// Fault budgets the trace was found under (replay enforces them,
    /// so a spec cannot smuggle in more faults than the exploration
    /// allowed).
    pub budgets: Budgets,
    /// Protocol mutation under test.
    pub mutation: Mutation,
    /// For livelock specs only: declare the violation after this many
    /// steps (livelock has no terminal state to check).
    pub livelock_after: Option<usize>,
    /// The schedule itself.
    pub trace: Vec<Action>,
}

/// Stable name for a mutation, used in schedule specs and reports.
#[must_use]
pub fn mutation_name(m: Mutation) -> &'static str {
    match m {
        Mutation::None => "none",
        Mutation::AcceptAnyRound => "accept-any-round",
        Mutation::DoubleRedistribute => "double-redistribute",
        Mutation::SkipSupplementBackstop => "skip-supplement-backstop",
        Mutation::WholeAntipodal => "whole-antipodal",
    }
}

/// Parse a name produced by [`mutation_name`].
///
/// # Errors
/// Returns a message listing the valid names on a mismatch.
pub fn parse_mutation(s: &str) -> Result<Mutation, String> {
    match s {
        "none" => Ok(Mutation::None),
        "accept-any-round" => Ok(Mutation::AcceptAnyRound),
        "double-redistribute" => Ok(Mutation::DoubleRedistribute),
        "skip-supplement-backstop" => Ok(Mutation::SkipSupplementBackstop),
        "whole-antipodal" => Ok(Mutation::WholeAntipodal),
        other => Err(format!(
            "unknown mutation {other:?} (expected none, accept-any-round, \
             double-redistribute, skip-supplement-backstop, or whole-antipodal)"
        )),
    }
}

impl Schedule {
    /// Render the one-line replay spec.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "ranks={};crashes={};timeouts={};drops={};dups={};mutation={}",
            self.ranks,
            self.budgets.crashes,
            self.budgets.timeouts,
            self.budgets.drops,
            self.budgets.dups,
            mutation_name(self.mutation)
        );
        if let Some(n) = self.livelock_after {
            out.push_str(&format!(";livelock-after={n}"));
        }
        out.push_str(";trace=");
        let toks: Vec<String> = self.trace.iter().map(Action::token).collect();
        out.push_str(&toks.join(","));
        out
    }

    /// Parse a spec produced by [`Schedule::render`].
    ///
    /// # Errors
    /// Returns a message naming the malformed or missing field.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut ranks = None;
        let mut budgets = Budgets {
            crashes: 0,
            timeouts: 0,
            drops: 0,
            dups: 0,
        };
        let mut mutation = Mutation::None;
        let mut livelock_after = None;
        let mut trace = None;
        for part in spec.trim().split(';') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("schedule field {part:?} is not key=value"))?;
            let num = |v: &str| -> Result<usize, String> {
                v.parse().map_err(|_| format!("bad number {v:?} for {key}"))
            };
            match key {
                "ranks" => ranks = Some(num(value)?),
                "crashes" => budgets.crashes = num(value)?,
                "timeouts" => budgets.timeouts = num(value)?,
                "drops" => budgets.drops = num(value)?,
                "dups" => budgets.dups = num(value)?,
                "mutation" => mutation = parse_mutation(value)?,
                "livelock-after" => livelock_after = Some(num(value)?),
                "trace" => {
                    let mut actions = Vec::new();
                    for tok in value.split(',').filter(|t| !t.is_empty()) {
                        actions.push(Action::parse_token(tok)?);
                    }
                    trace = Some(actions);
                }
                other => return Err(format!("unknown schedule field {other:?}")),
            }
        }
        Ok(Self {
            ranks: ranks.ok_or("schedule spec missing ranks=")?,
            budgets,
            mutation,
            livelock_after,
            trace: trace.ok_or("schedule spec missing trace=")?,
        })
    }
}

/// Re-execute a schedule spec deterministically. Returns the violation
/// the schedule exhibits, or `None` if it runs clean (including traces
/// that merely stop mid-protocol with actions still available).
///
/// # Errors
/// Returns a message if an action in the trace is not enabled at its
/// step — the spec does not describe a physically possible schedule.
pub fn replay(schedule: &Schedule) -> Result<Option<Violation>, String> {
    let mut w = World::new(schedule.ranks, schedule.mutation, schedule.budgets);
    for (i, &a) in schedule.trace.iter().enumerate() {
        if !w.action_enabled(a) {
            return Err(format!(
                "replay step {}: action {} is not enabled",
                i + 1,
                a.token()
            ));
        }
        w.apply(a);
        if let Some(after) = schedule.livelock_after {
            if w.steps() >= after {
                return Ok(Some(Violation::Livelock { steps: w.steps() }));
            }
        }
    }
    if w.terminal() {
        Ok(w.check_terminal())
    } else if w.enabled().is_empty() {
        Ok(Some(Violation::Deadlock {
            blocked: w.blocked_ranks(),
        }))
    } else {
        Ok(None)
    }
}

/// Explore the *unmutated* protocol at every ring size in `bounds` and
/// aggregate the per-size reports.
#[must_use]
pub fn check_protocol(bounds: &Bounds) -> ProtocolReport {
    let explorations: Vec<ExploreReport> = bounds
        .ranks
        .iter()
        .map(|&p| explore(p, Mutation::None, bounds))
        .collect();
    let ok = explorations.iter().all(|e| e.violation.is_none());
    ProtocolReport { explorations, ok }
}

/// Aggregated result of [`check_protocol`].
#[derive(Clone, Debug)]
pub struct ProtocolReport {
    /// One exploration per ring size in the bounds.
    pub explorations: Vec<ExploreReport>,
    /// Whether every exploration ran clean.
    pub ok: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_roundtrip() {
        let actions = [
            Action::Start { rank: 3 },
            Action::Deliver { rank: 0 },
            Action::Timeout { rank: 12 },
            Action::Crash { rank: 2 },
            Action::Drop { from: 0, to: 1 },
            Action::Dup { from: 4, to: 0 },
        ];
        for a in actions {
            let parsed = Action::parse_token(&a.token()).expect("token roundtrips");
            assert_eq!(parsed, a);
        }
        assert!(Action::parse_token("z9").is_err());
        assert!(Action::parse_token("D3").is_err());
        assert!(Action::parse_token("").is_err());
    }

    #[test]
    fn schedule_spec_roundtrips() {
        let s = Schedule {
            ranks: 4,
            budgets: Budgets {
                crashes: 1,
                timeouts: 1,
                drops: 0,
                dups: 0,
            },
            mutation: Mutation::AcceptAnyRound,
            livelock_after: None,
            trace: vec![
                Action::Start { rank: 1 },
                Action::Timeout { rank: 1 },
                Action::Start { rank: 0 },
                Action::Deliver { rank: 1 },
            ],
        };
        let spec = s.render();
        assert_eq!(Schedule::parse(&spec).expect("spec roundtrips"), s);
        assert!(spec.contains("mutation=accept-any-round"));
        assert!(spec.ends_with("trace=s1,t1,s0,d1"), "{spec}");
    }

    #[test]
    fn replay_rejects_impossible_schedules() {
        let s = Schedule {
            ranks: 2,
            budgets: Budgets {
                crashes: 0,
                timeouts: 0,
                drops: 0,
                dups: 0,
            },
            mutation: Mutation::None,
            livelock_after: None,
            // Deliver before anything was sent.
            trace: vec![Action::Deliver { rank: 0 }],
        };
        let err = replay(&s).expect_err("impossible schedule must be rejected");
        assert!(err.contains("not enabled"), "{err}");
    }

    #[test]
    fn replay_of_fault_free_terminal_schedule_is_clean() {
        // Drive a 2-rank world to termination by always taking the
        // first enabled action, then replay the recorded trace.
        let budgets = Budgets {
            crashes: 0,
            timeouts: 0,
            drops: 0,
            dups: 0,
        };
        let mut w = World::new(2, Mutation::None, budgets);
        let mut trace = Vec::new();
        while let Some(&a) = w.enabled().first() {
            w.apply(a);
            trace.push(a);
        }
        let s = Schedule {
            ranks: 2,
            budgets,
            mutation: Mutation::None,
            livelock_after: None,
            trace,
        };
        assert_eq!(replay(&s).expect("recorded trace replays"), None);
    }
}
