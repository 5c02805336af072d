//! Bounded schedule exploration and failure shrinking.
//!
//! The explorer is a stateful depth-first search over [`World`]
//! states. Every enabled action is tried from every *newly discovered*
//! state; states are deduplicated by [`World::fingerprint`], which is
//! what makes the search tractable — schedules that merely permute
//! commuting actions converge on the same fingerprint and are explored
//! once (the stateful cousin of DPOR's partial-order reduction). The
//! search is exhaustive within the bounds unless the state cap is hit;
//! a capped search falls back to seeded random walks, which probe the
//! deep interleavings the cap excluded and keep the result
//! deterministic for a given seed.
//!
//! A violating trace is shrunk greedily: every action is tentatively
//! removed, the remainder strictly replayed (an action that is no
//! longer enabled invalidates the candidate), and the removal kept if
//! the same violation kind still occurs — repeated until no single
//! removal survives. The result is the minimal replayable
//! [`Schedule`] reported to the user.

use super::world::World;
use super::{Action, Bounds, Schedule, Violation};
use gnet_cluster::protocol::Mutation;
use std::collections::HashSet;

/// Outcome of exploring one (ring size, mutation) configuration.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Ring size explored.
    pub ranks: usize,
    /// Mutation under test.
    pub mutation: Mutation,
    /// Distinct states discovered.
    pub states: usize,
    /// Clean terminal states reached.
    pub terminals: usize,
    /// Whether the DFS hit the state cap (random walks then ran).
    pub capped: bool,
    /// Random walks executed after a capped DFS.
    pub walks_run: usize,
    /// First violation found, if any, with its shrunk schedule.
    pub violation: Option<FoundViolation>,
}

/// A violation plus the evidence to reproduce it.
#[derive(Clone, Debug)]
pub struct FoundViolation {
    /// What went wrong.
    pub violation: Violation,
    /// Minimal replayable schedule exhibiting it.
    pub schedule: Schedule,
    /// Trace length as first found.
    pub original_len: usize,
    /// Trace length after shrinking.
    pub shrunk_len: usize,
}

/// One DFS node: a state, its enabled actions, the next action index
/// to try, and the action that led here (None for the root).
struct Node {
    world: World,
    actions: Vec<Action>,
    next: usize,
    via: Option<Action>,
}

/// Explore one configuration to the given bounds. Deterministic: the
/// same inputs produce the same report, byte for byte.
#[must_use]
pub fn explore(ranks: usize, mutation: Mutation, bounds: &Bounds) -> ExploreReport {
    let mut report = ExploreReport {
        ranks,
        mutation,
        states: 0,
        terminals: 0,
        capped: false,
        walks_run: 0,
        violation: None,
    };
    let root = World::new(ranks, mutation, bounds.budgets);
    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(root.fingerprint());
    let actions = root.enabled();
    let mut stack = vec![Node {
        world: root,
        actions,
        next: 0,
        via: None,
    }];
    let mut found: Option<(Violation, Vec<Action>)> = None;

    'dfs: while let Some(depth) = stack.len().checked_sub(1) {
        if stack[depth].next >= stack[depth].actions.len() {
            stack.pop();
            continue;
        }
        let a = stack[depth].actions[stack[depth].next];
        stack[depth].next += 1;
        let mut next = stack[depth].world.clone();
        next.apply(a);
        let path = || -> Vec<Action> {
            stack
                .iter()
                .filter_map(|n| n.via)
                .chain(std::iter::once(a))
                .collect()
        };
        if next.steps() >= bounds.max_steps {
            found = Some((
                Violation::Livelock {
                    steps: next.steps(),
                },
                path(),
            ));
            break 'dfs;
        }
        let enabled = next.enabled();
        if enabled.is_empty() {
            if next.terminal() {
                match next.check_terminal() {
                    Some(v) => {
                        found = Some((v, path()));
                        break 'dfs;
                    }
                    None => report.terminals += 1,
                }
            } else {
                found = Some((
                    Violation::Deadlock {
                        blocked: next.blocked_ranks(),
                    },
                    path(),
                ));
                break 'dfs;
            }
            continue;
        }
        if visited.insert(next.fingerprint()) {
            if visited.len() >= bounds.max_states {
                report.capped = true;
                break 'dfs;
            }
            stack.push(Node {
                world: next,
                actions: enabled,
                next: 0,
                via: Some(a),
            });
        }
    }
    report.states = visited.len();

    if found.is_none() && report.capped {
        let mut rng = SplitMix64::new(
            bounds.seed
                ^ (ranks as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ mutation_ordinal(mutation),
        );
        for _ in 0..bounds.walks {
            report.walks_run += 1;
            if let Some(hit) = random_walk(ranks, mutation, bounds, &mut rng) {
                found = Some(hit);
                break;
            }
        }
    }

    report.violation = found.map(|(violation, trace)| {
        let original_len = trace.len();
        let shrunk = if matches!(violation, Violation::Livelock { .. }) {
            // Livelock traces are *defined* by their length; removal
            // always "fixes" them, so they are reported unshrunk.
            trace
        } else {
            shrink(ranks, mutation, bounds, violation.kind(), trace)
        };
        let shrunk_len = shrunk.len();
        let schedule = Schedule {
            ranks,
            budgets: bounds.budgets,
            mutation,
            livelock_after: matches!(violation, Violation::Livelock { .. })
                .then_some(bounds.max_steps),
            trace: shrunk,
        };
        FoundViolation {
            violation,
            schedule,
            original_len,
            shrunk_len,
        }
    });
    report
}

/// Stable per-mutation stream selector for the walk RNG.
fn mutation_ordinal(m: Mutation) -> u64 {
    match m {
        Mutation::None => 0,
        Mutation::AcceptAnyRound => 1,
        Mutation::DoubleRedistribute => 2,
        Mutation::SkipSupplementBackstop => 3,
        Mutation::WholeAntipodal => 4,
    }
}

/// One random schedule from the initial state to termination (or a
/// violation, or the step budget).
fn random_walk(
    ranks: usize,
    mutation: Mutation,
    bounds: &Bounds,
    rng: &mut SplitMix64,
) -> Option<(Violation, Vec<Action>)> {
    let mut w = World::new(ranks, mutation, bounds.budgets);
    let mut trace = Vec::new();
    loop {
        if w.steps() >= bounds.max_steps {
            return Some((Violation::Livelock { steps: w.steps() }, trace));
        }
        let enabled = w.enabled();
        if enabled.is_empty() {
            return if w.terminal() {
                w.check_terminal().map(|v| (v, trace))
            } else {
                Some((
                    Violation::Deadlock {
                        blocked: w.blocked_ranks(),
                    },
                    trace,
                ))
            };
        }
        let a = enabled[rng.below(enabled.len())];
        w.apply(a);
        trace.push(a);
    }
}

/// Greedy delta-debugging: drop one action at a time and replay the
/// remainder *tolerantly* — actions no longer enabled are skipped
/// rather than failing the candidate, so removing a fault action also
/// sheds the whole chain that depended on it. A candidate is adopted
/// when the actions that actually applied still exhibit the same
/// violation kind; the adopted trace is exactly that applied sequence,
/// which is strictly replayable by construction. Repeats until no
/// single removal survives.
fn shrink(
    ranks: usize,
    mutation: Mutation,
    bounds: &Bounds,
    kind: &str,
    trace: Vec<Action>,
) -> Vec<Action> {
    let run = |cand: &[Action]| -> Option<Vec<Action>> {
        let mut w = World::new(ranks, mutation, bounds.budgets);
        let mut applied = Vec::new();
        for &a in cand {
            if w.action_enabled(a) {
                w.apply(a);
                applied.push(a);
            }
        }
        let violation = if w.terminal() {
            w.check_terminal()
        } else if w.enabled().is_empty() {
            Some(Violation::Deadlock {
                blocked: w.blocked_ranks(),
            })
        } else {
            None
        };
        match violation {
            Some(v) if v.kind() == kind => Some(applied),
            _ => None,
        }
    };
    let mut best = run(&trace).unwrap_or(trace);
    loop {
        let mut improved = false;
        for i in 0..best.len() {
            let mut cand = best.clone();
            cand.remove(i);
            if let Some(applied) = run(&cand) {
                best = applied;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// `SplitMix64` — tiny seeded PRNG, good enough for schedule sampling
/// and dependency-free (the vendored `rand` stays out of library code).
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeded generator; equal seeds give equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish index below `n` (modulo bias irrelevant at our n).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "below(0) is meaningless");
        usize::try_from(self.next_u64() % n as u64).expect("modulo result fits usize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_varied() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut dedup = xs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), xs.len(), "stream should not repeat: {xs:?}");
    }

    #[test]
    fn tiny_ring_explores_clean_and_counts_terminals() {
        let bounds = Bounds {
            ranks: vec![2],
            ..Bounds::quick()
        };
        let report = explore(2, Mutation::None, &bounds);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(!report.capped, "2-rank quick bounds must be exhaustive");
        assert!(report.terminals > 0);
        assert!(report.states > 10);
    }
}
