//! Checkpoint/resume for multi-hour whole-genome runs.
//!
//! A full-scale run is tens of minutes on the paper's hardware and many
//! hours on a workstation; production deployments need to survive
//! preemption. Because the pipeline's per-thread state is *mergeable*
//! (pooled-null moments merge exactly, candidates concatenate) and the
//! tile list is deterministic, progress can be captured as a compact
//! [`Checkpoint`]: a prefix length into the tile list plus the merged
//! accumulators over that prefix. Resuming replays nothing.
//!
//! Only the exact (paper-faithful) null strategy is supported — the
//! early-exit pre-pass would have to be re-estimated on resume, changing
//! decisions mid-run.

use crate::config::{InferenceConfig, NullStrategy};
use crate::pipeline::{process_tile, GeneSpan, TileState};
use crate::result::{InferenceResult, RunStats};
use gnet_bspline::BsplineBasis;
use gnet_expr::ExpressionMatrix;
use gnet_graph::{Edge, GeneNetwork};
use gnet_mi::{prepare_gene, MiScratch, PreparedGene};
use gnet_parallel::{execute_tiles_traced, ExecutionReport, TileSpace};
use gnet_permute::{PermutationSet, PooledNull};
use gnet_trace::Recorder;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Resumable progress over the deterministic tile list.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Digest binding the checkpoint to (config, matrix shape, tiling);
    /// resuming with anything else is rejected.
    pub digest: u64,
    /// Tiles `0..tiles_done` are fully accounted for below.
    pub tiles_done: usize,
    /// Pooled null over the completed prefix.
    pub pooled: PooledNull,
    /// Candidate edges found in the completed prefix.
    pub candidates: Vec<(u32, u32, f64)>,
    /// Joint evaluations performed in the completed prefix.
    pub joints: u64,
}

fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

fn run_digest(config: &InferenceConfig, matrix: &ExpressionMatrix, tiles: usize) -> u64 {
    let mut h = 0xD16E_5700_0000_0001u64;
    h = mix(h, matrix.genes() as u64);
    h = mix(h, matrix.samples() as u64);
    h = mix(h, tiles as u64);
    h = mix(h, config.bins as u64);
    h = mix(h, config.spline_order as u64);
    h = mix(h, config.permutations as u64);
    h = mix(h, config.seed);
    h = mix(h, config.alpha.to_bits());
    h = mix(h, config.mi_threshold.map_or(0, f64::to_bits));
    h
}

/// The digest binding checkpoints to `(config, matrix shape, tiling)`,
/// computed without running the pipeline.
///
/// [`infer_network_resumable`] derives the same value internally; the
/// durable store ([`crate::durable::CheckpointStore`]) uses this to
/// reject stale or foreign checkpoints with a typed error *before* the
/// run starts, instead of panicking mid-resume.
///
/// # Panics
/// Panics on config/matrix violations (fewer than two genes).
#[must_use]
pub fn run_digest_for(matrix: &ExpressionMatrix, config: &InferenceConfig) -> u64 {
    config.validate();
    assert!(matrix.genes() >= 2, "need at least two genes");
    let basis = BsplineBasis::new(config.spline_order, config.bins);
    let probe = prepare_gene(matrix.gene(0), &basis);
    let tile_size = config.resolved_tile_size(matrix.genes(), probe.heap_bytes());
    let space = TileSpace::new(matrix.genes(), tile_size);
    run_digest(config, matrix, space.tiles().len())
}

/// Outcome of a resumable run: finished, or interrupted with the progress
/// needed to continue.
pub type ResumableOutcome = Result<InferenceResult, Checkpoint>;

/// Run the pipeline processing tiles in chunks of `chunk_tiles`; after
/// each chunk, `on_checkpoint` receives the cumulative progress and may
/// return `false` to interrupt (the checkpoint comes back as `Err`).
/// Passing a prior checkpoint resumes exactly where it stopped.
///
/// The final network is identical to [`crate::infer_network`]'s modulo
/// accumulator-merge rounding in the estimated threshold (bit-identical
/// with an explicit `mi_threshold`).
///
/// # Panics
/// Panics on config/matrix violations, a digest mismatch, a non-exact
/// null strategy, or `chunk_tiles == 0`.
pub fn infer_network_resumable(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    resume_from: Option<Checkpoint>,
    chunk_tiles: usize,
    on_checkpoint: impl FnMut(&Checkpoint) -> bool,
) -> ResumableOutcome {
    infer_network_resumable_traced(
        matrix,
        config,
        resume_from,
        chunk_tiles,
        on_checkpoint,
        &Recorder::disabled(),
    )
}

/// [`infer_network_resumable`] with an instrumentation hook: stage spans,
/// the scheduler's per-tile/per-thread telemetry, and one
/// `checkpoint.chunk` event per completed chunk (tiles done, total tiles,
/// joints and candidates so far).
pub fn infer_network_resumable_traced(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    resume_from: Option<Checkpoint>,
    chunk_tiles: usize,
    mut on_checkpoint: impl FnMut(&Checkpoint) -> bool,
    rec: &Recorder,
) -> ResumableOutcome {
    config.validate();
    assert!(chunk_tiles >= 1, "chunk size must be positive");
    assert!(matrix.genes() >= 2, "need at least two genes");
    assert_eq!(
        config.null_strategy,
        NullStrategy::ExactFull,
        "checkpointing supports the exact null strategy only"
    );

    let t0 = Instant::now();
    let span_prep = rec.span("stage.prep");
    let basis = BsplineBasis::new(config.spline_order, config.bins);
    let prepared: Vec<PreparedGene> = (0..matrix.genes())
        .map(|g| prepare_gene(matrix.gene(g), &basis))
        .collect();
    let perms = PermutationSet::generate(matrix.samples(), config.permutations, config.seed);
    let tile_size = config.resolved_tile_size(matrix.genes(), prepared[0].heap_bytes());
    let space = TileSpace::new(matrix.genes(), tile_size);
    let digest = run_digest(config, matrix, space.tiles().len());
    drop(span_prep);
    let prep_time = t0.elapsed();

    let mut progress = match resume_from {
        Some(cp) => {
            assert_eq!(cp.digest, digest, "checkpoint does not match this run");
            assert!(
                cp.tiles_done <= space.tiles().len(),
                "corrupt checkpoint prefix"
            );
            cp
        }
        None => Checkpoint {
            digest,
            tiles_done: 0,
            pooled: PooledNull::new(),
            candidates: Vec::new(),
            joints: 0,
        },
    };

    let threads = config.resolved_threads();
    let t1 = Instant::now();
    let span_mi = rec.span("stage.mi");
    // The execution report must cover *every* chunk of this invocation.
    // The old code kept only the last chunk's report, so `RunStats::
    // execution` under-counted tiles/pairs/busy for any multi-chunk run.
    let mut execution = ExecutionReport::default();
    while progress.tiles_done < space.tiles().len() {
        let hi = (progress.tiles_done + chunk_tiles).min(space.tiles().len());
        let chunk = &space.tiles()[progress.tiles_done..hi];
        let (states, report) = execute_tiles_traced(
            chunk,
            threads,
            config.scheduler,
            |_tid| TileState::new(MiScratch::for_basis(&basis)),
            |state, tile| {
                process_tile(
                    tile,
                    GeneSpan::all(&prepared),
                    GeneSpan::all(&prepared),
                    &perms,
                    config.kernel,
                    config.mi_threshold,
                    state,
                );
            },
            rec,
        );
        for s in states {
            progress.pooled.merge(&s.pooled);
            progress
                .candidates
                .extend(s.candidates.into_iter().map(|c| (c.i, c.j, c.observed)));
            progress.joints += s.joints;
        }
        progress.tiles_done = hi;
        execution.absorb(&report);
        if rec.is_enabled() {
            rec.event(
                "checkpoint.chunk",
                &[
                    ("tiles_done", (progress.tiles_done as u64).into()),
                    ("total_tiles", (space.tiles().len() as u64).into()),
                    ("joints", progress.joints.into()),
                    ("candidates", (progress.candidates.len() as u64).into()),
                ],
            );
            rec.progress(progress.tiles_done, space.tiles().len());
        }
        if !on_checkpoint(&progress) {
            return Err(progress);
        }
    }
    drop(span_mi);
    let mi_time = t1.elapsed();

    // Finalize exactly as the one-shot pipeline does.
    let t2 = Instant::now();
    let span_finalize = rec.span("stage.finalize");
    let pairs = space.total_pairs();
    let threshold = match config.mi_threshold {
        Some(t) => t,
        None => progress.pooled.global_threshold(config.alpha, pairs.max(1)),
    };
    let candidate_count = progress.candidates.len() as u64;
    let mut sorted = progress.candidates;
    sorted.sort_by_key(|c| (c.0, c.1));
    let network = GeneNetwork::from_edges(
        matrix.genes(),
        matrix.gene_names().to_vec(),
        sorted
            .into_iter()
            .filter(|&(_, _, v)| v > threshold)
            .map(|(i, j, v)| Edge::new(i, j, v as f32)),
    );
    let stats = RunStats {
        prep_time,
        mi_time,
        finalize_time: t2.elapsed(),
        pairs,
        candidates: candidate_count,
        joints_evaluated: progress.joints,
        threshold,
        null_mean: progress.pooled.mean(),
        null_sd: if progress.pooled.count() >= 2 {
            progress.pooled.std_dev()
        } else {
            0.0
        },
        tile_size,
        threads,
        execution,
    };
    drop(span_finalize);
    Ok(InferenceResult { network, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer_network;
    use gnet_expr::synth::{coupled_pairs, Coupling};

    fn cfg() -> InferenceConfig {
        InferenceConfig {
            permutations: 10,
            threads: Some(2),
            tile_size: Some(6),
            ..InferenceConfig::default()
        }
    }

    #[test]
    fn uninterrupted_resumable_run_matches_one_shot() {
        let (matrix, _) = coupled_pairs(5, 220, Coupling::Linear(0.85), 61);
        let one_shot = infer_network(&matrix, &cfg());
        let mut checkpoints = 0;
        let resumable = infer_network_resumable(&matrix, &cfg(), None, 1, |_| {
            checkpoints += 1;
            true
        })
        .expect("must finish");
        assert!(checkpoints >= 2, "chunking must actually checkpoint");
        assert_eq!(
            resumable.network.edges().len(),
            one_shot.network.edges().len()
        );
        for (a, b) in resumable
            .network
            .edges()
            .iter()
            .zip(one_shot.network.edges())
        {
            assert_eq!(a.key(), b.key());
        }
        assert_eq!(resumable.stats.pairs, one_shot.stats.pairs);
        assert_eq!(
            resumable.stats.joints_evaluated,
            one_shot.stats.joints_evaluated
        );
    }

    #[test]
    fn interrupt_and_resume_reproduces_the_run() {
        let (matrix, _) = coupled_pairs(6, 200, Coupling::Linear(0.8), 13);
        let reference = infer_network_resumable(&matrix, &cfg(), None, 4, |_| true)
            .expect("reference finishes");

        // Interrupt after the second of the per-tile checkpoints.
        let mut seen = 0;
        let interrupted = infer_network_resumable(&matrix, &cfg(), None, 1, |_| {
            seen += 1;
            seen < 2
        });
        let checkpoint = interrupted.expect_err("must be interrupted");
        assert!(checkpoint.tiles_done > 0);
        assert!(checkpoint.tiles_done < TileSpace::new(12, 6).tiles().len() * 100); // sanity

        // Resume to completion.
        let resumed = infer_network_resumable(&matrix, &cfg(), Some(checkpoint), 4, |_| true)
            .expect("resume finishes");
        assert_eq!(
            resumed
                .network
                .edges()
                .iter()
                .map(|e| e.key())
                .collect::<Vec<_>>(),
            reference
                .network
                .edges()
                .iter()
                .map(|e| e.key())
                .collect::<Vec<_>>()
        );
        assert_eq!(resumed.stats.candidates, reference.stats.candidates);
    }

    #[test]
    #[should_panic(expected = "does not match this run")]
    fn foreign_checkpoint_rejected() {
        let (matrix, _) = coupled_pairs(4, 100, Coupling::Linear(0.8), 1);
        let (other, _) = coupled_pairs(5, 100, Coupling::Linear(0.8), 1);
        let cp =
            infer_network_resumable(&other, &cfg(), None, 2, |_| false).expect_err("interrupted");
        let _ = infer_network_resumable(&matrix, &cfg(), Some(cp), 2, |_| true);
    }

    #[test]
    fn checkpoint_serde_roundtrip() {
        let (matrix, _) = coupled_pairs(4, 120, Coupling::Linear(0.9), 3);
        let cp =
            infer_network_resumable(&matrix, &cfg(), None, 2, |_| false).expect_err("interrupted");
        let json = serde_json::to_string(&cp).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cp);
        // And the deserialized checkpoint actually resumes.
        let done =
            infer_network_resumable(&matrix, &cfg(), Some(back), 2, |_| true).expect("finishes");
        assert_eq!(done.stats.pairs, 28); // C(8,2) — 4 coupled pairs = 8 genes
    }

    #[test]
    fn execution_report_covers_every_chunk() {
        // Regression: the report used to be overwritten per chunk, so a
        // multi-chunk run reported only the *final* chunk's tiles/pairs.
        let (matrix, _) = coupled_pairs(6, 150, Coupling::Linear(0.8), 5);
        let r = infer_network_resumable(&matrix, &cfg(), None, 1, |_| true).expect("finishes");
        let tiles = TileSpace::new(12, 6).tiles().len();
        assert!(tiles > 1, "test must span multiple chunks");
        assert_eq!(
            r.stats.execution.total_pairs(),
            r.stats.pairs,
            "execution report must account for all pairs, not the last chunk"
        );
        assert_eq!(r.stats.execution.total_tiles(), tiles);
        assert!(r.stats.execution.elapsed > std::time::Duration::ZERO);
    }

    #[test]
    fn resumed_run_reports_only_its_own_tiles() {
        // A resumed invocation accounts for the tiles *it* processed; the
        // interrupted prefix was accounted by the first invocation.
        let (matrix, _) = coupled_pairs(6, 150, Coupling::Linear(0.8), 5);
        let mut seen = 0;
        let cp = infer_network_resumable(&matrix, &cfg(), None, 1, |_| {
            seen += 1;
            seen < 2
        })
        .expect_err("interrupted");
        let done_before = cp.tiles_done;
        let total_tiles = TileSpace::new(12, 6).tiles().len();
        let resumed =
            infer_network_resumable(&matrix, &cfg(), Some(cp), 1, |_| true).expect("finishes");
        assert_eq!(
            resumed.stats.execution.total_tiles(),
            total_tiles - done_before
        );
    }

    #[test]
    fn traced_resumable_run_emits_chunk_events() {
        let (matrix, _) = coupled_pairs(5, 120, Coupling::Linear(0.85), 17);
        let rec = Recorder::enabled();
        let r = infer_network_resumable_traced(&matrix, &cfg(), None, 1, |_| true, &rec)
            .expect("finishes");
        let tiles = r.stats.execution.total_tiles();
        assert_eq!(rec.event_count("checkpoint.chunk"), tiles); // chunk_tiles=1
        assert_eq!(
            rec.histogram(gnet_parallel::HIST_TILE_US)
                .expect("tile histogram recorded")
                .count(),
            tiles as u64
        );
        assert!(rec.span_count() >= 3);
    }

    #[test]
    #[should_panic(expected = "exact null strategy")]
    fn early_exit_strategy_rejected() {
        let (matrix, _) = coupled_pairs(3, 60, Coupling::Linear(0.5), 2);
        let bad = InferenceConfig {
            null_strategy: NullStrategy::EarlyExit,
            mi_threshold: Some(0.1),
            ..cfg()
        };
        let _ = infer_network_resumable(&matrix, &bad, None, 2, |_| true);
    }
}
