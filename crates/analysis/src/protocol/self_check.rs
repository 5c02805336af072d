//! The model checker's proof of usefulness.
//!
//! A checker that has never caught a bug is indistinguishable from one
//! that cannot. The self-check injects four protocol bugs (see
//! [`Mutation`]) into the *real* [`gnet_cluster::RankMachine`] and
//! requires that exploration under the same bounds as the faithful run:
//!
//! 1. finds a violation for every mutant,
//! 2. shrinks it to a minimal schedule, and
//! 3. replays that schedule to the same violation kind
//!    (the spec is evidence, not prose);
//!
//! while the unmutated protocol explores clean. Any failure of these
//! obligations fails `gnet analyze --protocol --self-check`.

use super::explore::explore;
use super::{mutation_name, replay, Bounds, Mutation};

/// The injected bugs, in report order.
const MUTATIONS: [Mutation; 4] = [
    Mutation::AcceptAnyRound,
    Mutation::DoubleRedistribute,
    Mutation::SkipSupplementBackstop,
    Mutation::WholeAntipodal,
];

/// Result of one self-check obligation.
#[derive(Clone, Debug)]
pub struct SelfCheckEntry {
    /// Mutation under test ([`Mutation::None`] for the clean run).
    pub mutation: Mutation,
    /// Whether the obligation is "explore clean" (true only for
    /// [`Mutation::None`]) as opposed to "catch the bug".
    pub expect_clean: bool,
    /// Whether the obligation held.
    pub passed: bool,
    /// Total distinct states across the ring sizes explored.
    pub states: usize,
    /// Ring size at which the violation was found (mutants only).
    pub caught_at_ranks: Option<usize>,
    /// Violation kind found (mutants only).
    pub violation: Option<String>,
    /// Shrunk replayable schedule spec (mutants only).
    pub schedule: Option<String>,
    /// Trace length when first found.
    pub original_len: usize,
    /// Trace length after shrinking.
    pub shrunk_len: usize,
    /// Whether replaying the shrunk spec reproduced the violation.
    pub replay_ok: bool,
}

/// Aggregated self-check result.
#[derive(Clone, Debug)]
pub struct SelfCheckReport {
    /// One entry per obligation, clean run first.
    pub entries: Vec<SelfCheckEntry>,
    /// Whether every obligation held.
    pub ok: bool,
}

/// Run the full self-check under `bounds`. Mutants are explored at
/// each ring size in order until one catches the bug; the clean run
/// must stay clean at *every* size.
#[must_use]
pub fn self_check(bounds: &Bounds) -> SelfCheckReport {
    let mut entries = Vec::new();

    // Obligation 0: the faithful protocol explores clean everywhere.
    let clean = super::check_protocol(bounds);
    entries.push(SelfCheckEntry {
        mutation: Mutation::None,
        expect_clean: true,
        passed: clean.ok,
        states: clean.explorations.iter().map(|e| e.states).sum(),
        caught_at_ranks: None,
        violation: clean
            .explorations
            .iter()
            .find_map(|e| e.violation.as_ref().map(|v| v.violation.kind().to_string())),
        schedule: clean
            .explorations
            .iter()
            .find_map(|e| e.violation.as_ref().map(|v| v.schedule.render())),
        original_len: 0,
        shrunk_len: 0,
        replay_ok: clean.ok,
    });

    // Obligations 1–4: each injected bug is caught, shrunk, replayed.
    for mutation in MUTATIONS {
        let mut states = 0;
        let mut entry = SelfCheckEntry {
            mutation,
            expect_clean: false,
            passed: false,
            states: 0,
            caught_at_ranks: None,
            violation: None,
            schedule: None,
            original_len: 0,
            shrunk_len: 0,
            replay_ok: false,
        };
        for &ranks in &bounds.ranks {
            let report = explore(ranks, mutation, bounds);
            states += report.states;
            if let Some(found) = report.violation {
                let replay_ok = matches!(
                    replay(&found.schedule),
                    Ok(Some(v)) if v.kind() == found.violation.kind()
                );
                entry.caught_at_ranks = Some(ranks);
                entry.violation = Some(found.violation.kind().to_string());
                entry.schedule = Some(found.schedule.render());
                entry.original_len = found.original_len;
                entry.shrunk_len = found.shrunk_len;
                entry.replay_ok = replay_ok;
                entry.passed = replay_ok;
                break;
            }
        }
        entry.states = states;
        entries.push(entry);
    }

    let ok = entries.iter().all(|e| e.passed);
    SelfCheckReport { entries, ok }
}

/// Render a self-check report for the terminal.
#[must_use]
pub fn render_text(report: &SelfCheckReport) -> String {
    let mut out = String::new();
    for e in &report.entries {
        let status = if e.passed { "ok" } else { "FAIL" };
        if e.expect_clean {
            out.push_str(&format!(
                "self-check [{status}] {}: {} state(s), expected clean\n",
                mutation_name(e.mutation),
                e.states
            ));
        } else {
            out.push_str(&format!(
                "self-check [{status}] {}: {}\n",
                mutation_name(e.mutation),
                match (&e.violation, &e.schedule) {
                    (Some(kind), Some(spec)) => format!(
                        "caught as {kind} at {} rank(s), shrunk {} -> {} action(s), replay {}\n  {spec}",
                        e.caught_at_ranks.unwrap_or(0),
                        e.original_len,
                        e.shrunk_len,
                        if e.replay_ok { "ok" } else { "FAILED" }
                    ),
                    _ => "NOT CAUGHT".to_string(),
                }
            ));
        }
    }
    if report.ok {
        let n = MUTATIONS.len();
        out.push_str(&format!(
            "self-check passed: {n}/{n} mutations caught, faithful protocol clean\n"
        ));
    } else {
        out.push_str("self-check FAILED\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline acceptance test: all four injected protocol bugs
    /// are detected under PR bounds, each with a shrunk schedule that
    /// replays to the same violation, and the faithful ring is clean.
    #[test]
    fn quick_bounds_catch_all_four_mutations_and_pass_clean() {
        let report = self_check(&Bounds::quick());
        assert!(report.ok, "{}", render_text(&report));
        assert_eq!(report.entries.len(), 5);
        assert!(
            render_text(&report).contains("4/4 mutations caught"),
            "{}",
            render_text(&report)
        );
        for e in &report.entries[1..] {
            assert!(e.caught_at_ranks.is_some(), "{:?} not caught", e.mutation);
            assert!(e.shrunk_len <= e.original_len);
            assert!(e.replay_ok, "{:?} schedule did not replay", e.mutation);
            let spec = e.schedule.as_ref().expect("caught entries carry a spec");
            assert!(
                spec.contains(&format!("mutation={}", mutation_name(e.mutation))),
                "{spec}"
            );
        }
    }
}
