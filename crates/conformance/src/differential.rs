//! Differential oracle families: kernel, scheduler, distributed, recovery.
//!
//! Each oracle runs one dataset through two (or more) execution paths the
//! repo promises are equivalent and reports the first divergence. The
//! equivalence grades are deliberate:
//!
//! * **Kernel** (`ScalarSparse` vs `VectorDense`): *tolerance*-equal. The
//!   two kernels accumulate the same joint histogram in different f32
//!   summation orders, so last-ulp drift is expected; the bound is the
//!   stated [`crate::TolerancePolicy::kernel_abs`]. The differential is
//!   repeated with the vector kernel forced onto every SIMD backend this
//!   host supports, so each set of intrinsics is held to the grade
//!   independently of what runtime dispatch would pick.
//! * **Scheduler** (4 policies × thread counts vs the serial baseline):
//!   *bit*-equal. Scheduling only changes which thread computes a pair,
//!   never the per-pair arithmetic, so the packed MI array must match the
//!   single-threaded reference bit for bit — this is the repo's core
//!   determinism claim (`gnet analyze --concurrency` spot-checks it; this
//!   oracle sweeps it over the corpus). The full-pipeline variant pins an
//!   explicit `mi_threshold` so the pooled-null merge order (the one
//!   legitimately order-dependent reduction) is out of the picture, and
//!   then demands bit-identical edge weights and thresholds.
//! * **Distributed** (`{1,2,4,8}` ranks): *byte*-equal serialized edge
//!   lists, per the gnet-cluster contract; the pooled threshold alone is
//!   only tolerance-equal (see [`distributed_oracle`]).
//! * **Recovery** (resume-from-checkpoint, rank-crash): bit-identical
//!   results versus the clean run, per DESIGN.md §10.

use crate::corpus::DatasetSpec;
use crate::TolerancePolicy;
use gnet_bspline::{BsplineBasis, DenseWeights};
use gnet_cluster::{
    infer_network_distributed, infer_network_distributed_tcp, infer_network_distributed_with,
    DistributedOptions, DistributedResult,
};
use gnet_core::checkpoint::infer_network_resumable;
use gnet_core::{infer_network, InferenceConfig, InferenceResult};
use gnet_fault::{FaultInjector, FaultPlan};
use gnet_graph::GeneNetwork;
use gnet_mi::gene::{mi_vector, mi_with_nulls, prepare_matrix, MiKernel, MiScratch};
use gnet_mi::{PairMi, PreparedGene};
use gnet_parallel::{compute_pairwise, pair_index, SchedulerPolicy};
use gnet_permute::PermutationSet;
use gnet_simd::dispatch::{with_forced, Backend};
use gnet_simd::RowPerms;

/// What one oracle found on one dataset.
pub(crate) struct OracleOutcome {
    /// Individual comparisons performed (pairs, run pairs, …).
    pub checks: usize,
    /// First divergence, rendered for the report; `None` when clean.
    pub violation: Option<String>,
}

impl OracleOutcome {
    pub(crate) fn clean(checks: usize) -> Self {
        Self {
            checks,
            violation: None,
        }
    }

    pub(crate) fn fail(checks: usize, detail: String) -> Self {
        Self {
            checks,
            violation: Some(detail),
        }
    }
}

fn basis() -> BsplineBasis {
    BsplineBasis::tinge_default()
}

/// Null permutations per pair in the kernel differential: the vector
/// kernel's null loop then runs one full batch of `gnet_simd::BATCH`
/// evaluations (the observed pass and three nulls) plus a one-grid tail.
const KERNEL_NULLS: usize = 4;

/// Scalar-vs-vector differential with an injectable vector evaluator,
/// over each pair's observed value and its [`KERNEL_NULLS`] nulls — the
/// self-check swaps in a [`gnet_mi::mutation::MutatedVectorKernel`] here,
/// which is how the harness proves it would catch a broken kernel.
pub(crate) fn kernel_oracle_with<F>(
    spec: &DatasetSpec,
    tol: &TolerancePolicy,
    vector: &mut F,
) -> OracleOutcome
where
    F: FnMut(&PreparedGene, &PreparedGene, &DenseWeights, &RowPerms) -> PairMi,
{
    let matrix = spec.build();
    let prepared = prepare_matrix(&matrix, &basis());
    let perms = PermutationSet::generate(matrix.samples(), KERNEL_NULLS, spec.seed ^ 0x7065_726D); // "perm"
    let mut scratch = MiScratch::for_basis(&basis());
    let mut checks = 0;
    for j in 1..prepared.len() {
        let yd = prepared[j].to_dense();
        for i in 0..j {
            let s = mi_with_nulls(
                MiKernel::ScalarSparse,
                &prepared[i],
                &prepared[j],
                None,
                perms.as_vecs(),
                &mut scratch,
            );
            let v = vector(&prepared[i], &prepared[j], &yd, perms.as_vecs());
            let scalar = std::iter::once(s.observed).chain(s.null);
            let vector = std::iter::once(v.observed).chain(v.null);
            for (q, (a, b)) in scalar.zip(vector).enumerate() {
                checks += 1;
                let delta = (a - b).abs();
                if delta > tol.kernel_abs {
                    let which = match q {
                        0 => "observed".to_owned(),
                        _ => format!("null {}", q - 1),
                    };
                    return OracleOutcome::fail(
                        checks,
                        format!(
                            "pair ({i},{j}) {which}: scalar MI {a:.9} vs vector MI {b:.9} \
                             — |Δ| {delta:.3e} exceeds {:.1e} nats",
                            tol.kernel_abs
                        ),
                    );
                }
            }
        }
    }
    OracleOutcome::clean(checks)
}

/// Kernel differential on the real kernels, run once per supported SIMD
/// dispatch backend (emulated / AVX2 / AVX-512): the scalar oracle must
/// hold whichever backend the vector kernel lands on, so a backend whose
/// intrinsics drift out of grade is caught here, not just on the machine
/// that happens to dispatch to it by default. Violations name the
/// backend that produced them.
pub(crate) fn kernel_oracle(spec: &DatasetSpec, tol: &TolerancePolicy) -> OracleOutcome {
    let mut checks = 0;
    for backend in Backend::supported() {
        let outcome = with_forced(backend, || kernel_oracle_one_backend(spec, tol))
            .unwrap_or_else(|e| unreachable!("supported backend must force cleanly: {e}"));
        checks += outcome.checks;
        if let Some(detail) = outcome.violation {
            return OracleOutcome::fail(checks, format!("[backend {backend}] {detail}"));
        }
    }
    OracleOutcome::clean(checks)
}

/// One backend's scalar-vs-vector differential through the batched null
/// loop the pipeline runs per pair. Runs under whatever dispatch backend
/// is active when called.
fn kernel_oracle_one_backend(spec: &DatasetSpec, tol: &TolerancePolicy) -> OracleOutcome {
    let mut scratch = MiScratch::for_basis(&basis());
    kernel_oracle_with(spec, tol, &mut |x, y, yd, perms| {
        mi_with_nulls(MiKernel::VectorDense, x, y, Some(yd), perms, &mut scratch)
    })
}

/// Serial reference for the packed pairwise MI array: a plain nested loop,
/// same arithmetic and same f32 narrowing as the parallel executors.
#[allow(clippy::cast_possible_truncation)] // cast-ok: pipeline stores pairwise MI as f32 by design
fn serial_packed(prepared: &[PreparedGene], dense: &[DenseWeights]) -> Vec<f32> {
    let n = prepared.len();
    let mut scratch = MiScratch::for_basis(&basis());
    let mut packed = vec![0.0f32; n * (n - 1) / 2];
    for i in 0..n {
        for j in i + 1..n {
            // cast-ok: pipeline stores pairwise MI as f32 by design
            packed[pair_index(n, i, j)] =
                mi_vector(&prepared[i], &prepared[j], &dense[j], &mut scratch) as f32;
        }
    }
    packed
}

/// Scheduler differential: every policy × thread count must reproduce the
/// serial packed MI array bit for bit, and the full pipeline (with an
/// explicit threshold) must emit bit-identical edges.
#[allow(clippy::cast_possible_truncation)] // cast-ok: pipeline stores pairwise MI as f32 by design
pub(crate) fn scheduler_oracle(spec: &DatasetSpec, _tol: &TolerancePolicy) -> OracleOutcome {
    let matrix = spec.build();
    let n = matrix.genes();
    let prepared = prepare_matrix(&matrix, &basis());
    let dense: Vec<DenseWeights> = prepared.iter().map(PreparedGene::to_dense).collect();
    let reference = serial_packed(&prepared, &dense);
    let mut checks = 0;

    for policy in SchedulerPolicy::ALL {
        for threads in [1usize, 2, 4, 8] {
            let (packed, _) = compute_pairwise(
                n,
                3,
                threads,
                policy,
                |_| MiScratch::for_basis(&basis()),
                // cast-ok: pipeline stores pairwise MI as f32 by design
                |scratch, i, j| mi_vector(&prepared[i], &prepared[j], &dense[j], scratch) as f32,
            );
            checks += 1;
            for (idx, (a, b)) in reference.iter().zip(&packed).enumerate() {
                if a.to_bits() != b.to_bits() {
                    return OracleOutcome::fail(
                        checks,
                        format!(
                            "policy {} × {threads} threads: packed MI[{idx}] \
                             {b} != serial {a} (bitwise)",
                            policy.name()
                        ),
                    );
                }
            }
        }
    }

    // Full pipeline under an explicit threshold: per-pair decisions are
    // independent of merge order, so the edge lists must match bitwise.
    let cfg = |policy, threads| InferenceConfig {
        permutations: 6,
        mi_threshold: Some(0.02),
        threads: Some(threads),
        tile_size: Some(3),
        scheduler: policy,
        ..InferenceConfig::default()
    };
    let serial = infer_network(&matrix, &cfg(SchedulerPolicy::DynamicCounter, 1));
    for policy in SchedulerPolicy::ALL {
        for threads in [1usize, 2, 4] {
            let run = infer_network(&matrix, &cfg(policy, threads));
            checks += 1;
            if let Some(diff) = diff_results(&serial, &run) {
                return OracleOutcome::fail(
                    checks,
                    format!("policy {} × {threads} threads: {diff}", policy.name()),
                );
            }
        }
    }
    OracleOutcome::clean(checks)
}

/// Distributed differential: `{1,2,4,8}`-rank runs must serialize to
/// byte-identical edge lists; the pooled threshold is held to
/// [`POOLED_THRESHOLD_ABS`] instead of bitwise (merge order varies with
/// the rank count — see the constant's doc). The same grade is then
/// demanded of `{2,4}`-rank runs over the loopback-TCP transport: real
/// sockets, framing, and drain-then-FIN shutdown must be invisible in
/// the serialized output.
pub(crate) fn distributed_oracle(spec: &DatasetSpec, _tol: &TolerancePolicy) -> OracleOutcome {
    let matrix = spec.build();
    let cfg = dist_config();
    let reference = infer_network_distributed(&matrix, &cfg, 1);
    let ref_bytes = edge_bytes(&reference.network);
    let mut checks = 0;
    for ranks in [2usize, 4, 8] {
        if ranks > matrix.genes() {
            continue;
        }
        let run = infer_network_distributed(&matrix, &cfg, ranks);
        checks += 1;
        if let Some(diff) = diff_distributed(&reference, &run, &ref_bytes) {
            return OracleOutcome::fail(checks, format!("{ranks} ranks vs 1 rank: {diff}"));
        }
    }
    for ranks in [2usize, 4] {
        if ranks > matrix.genes() {
            continue;
        }
        let run = match infer_network_distributed_tcp(&matrix, &cfg, ranks) {
            Ok(r) => r,
            Err(e) => {
                return OracleOutcome::fail(
                    checks + 1,
                    format!("{ranks}-rank loopback-TCP mesh failed to establish: {e}"),
                )
            }
        };
        checks += 1;
        if let Some(diff) = diff_distributed(&reference, &run, &ref_bytes) {
            return OracleOutcome::fail(checks, format!("{ranks} TCP ranks vs 1 rank: {diff}"));
        }
    }
    OracleOutcome::clean(checks)
}

/// Recovery differential: an interrupted-then-resumed run and a
/// rank-crash run must both reproduce the clean result exactly.
pub(crate) fn recovery_oracle(spec: &DatasetSpec, _tol: &TolerancePolicy) -> OracleOutcome {
    let matrix = spec.build();
    // Deterministic-merge configuration (single worker, static partition):
    // resume is bit-identical here even for the pooled threshold.
    let cfg = InferenceConfig {
        permutations: 8,
        threads: Some(1),
        tile_size: Some(3),
        scheduler: SchedulerPolicy::StaticCyclic,
        ..InferenceConfig::default()
    };
    let mut checks = 0;

    let clean = infer_network_resumable(&matrix, &cfg, None, 2, |_| true)
        .unwrap_or_else(|_| unreachable!("uninterrupted run cannot yield a checkpoint"));
    // Interrupt at the first chunk boundary, then resume from the
    // persisted state.
    match infer_network_resumable(&matrix, &cfg, None, 2, |_| false) {
        Ok(_) => {
            // Fewer tiles than one chunk: nothing to resume; the clean
            // run above already covers this dataset.
        }
        Err(cp) => {
            let tiles_done = cp.tiles_done;
            let resumed = match infer_network_resumable(&matrix, &cfg, Some(cp), 2, |_| true) {
                Ok(r) => r,
                Err(_) => {
                    return OracleOutcome::fail(
                        checks + 1,
                        format!("resume from tile {tiles_done} was interrupted again"),
                    )
                }
            };
            checks += 1;
            if let Some(diff) = diff_results(&clean, &resumed) {
                return OracleOutcome::fail(
                    checks,
                    format!("resume from tile {tiles_done} diverged: {diff}"),
                );
            }
        }
    }

    // Rank-crash recovery: killing rank 2 in round 1 must not change the
    // edge set (dead-rank pairs are redistributed deterministically).
    if matrix.genes() >= 4 {
        let dcfg = dist_config();
        let clean_d = infer_network_distributed(&matrix, &dcfg, 4);
        let plan = FaultPlan::parse("seed=1;crash(rank=2,round=1)")
            .unwrap_or_else(|e| unreachable!("static plan parses: {e}"));
        let options = DistributedOptions {
            faults: FaultInjector::from_plan(&plan),
            ..DistributedOptions::default()
        };
        let crashed = match infer_network_distributed_with(&matrix, &dcfg, 4, &options) {
            Ok(r) => r,
            Err(e) => {
                return OracleOutcome::fail(
                    checks + 1,
                    format!("rank-crash run failed instead of recovering: {e}"),
                )
            }
        };
        checks += 1;
        if let Some(diff) = diff_distributed(&clean_d, &crashed, &edge_bytes(&clean_d.network)) {
            return OracleOutcome::fail(checks, format!("rank-crash recovery diverged: {diff}"));
        }
    }
    OracleOutcome::clean(checks)
}

fn dist_config() -> InferenceConfig {
    InferenceConfig {
        permutations: 8,
        threads: Some(1),
        tile_size: Some(4),
        ..InferenceConfig::default()
    }
}

/// Serialize a network exactly as `gnet infer --output` would — the byte
/// string the distributed (and incremental, family 6) equivalences are
/// stated over.
pub(crate) fn edge_bytes(net: &GeneNetwork) -> Vec<u8> {
    let mut bytes = Vec::new();
    gnet_graph::io::write_edge_list(net, &mut bytes)
        .unwrap_or_else(|e| unreachable!("in-memory serialization cannot fail: {e}"));
    bytes
}

/// Bitwise comparison of two shared-memory results.
fn diff_results(a: &InferenceResult, b: &InferenceResult) -> Option<String> {
    if a.stats.threshold.to_bits() != b.stats.threshold.to_bits() {
        return Some(format!(
            "threshold {} != {} (bitwise)",
            b.stats.threshold, a.stats.threshold
        ));
    }
    diff_networks(&a.network, &b.network)
}

fn diff_networks(a: &GeneNetwork, b: &GeneNetwork) -> Option<String> {
    if a.edge_count() != b.edge_count() {
        return Some(format!(
            "edge count {} != {}",
            b.edge_count(),
            a.edge_count()
        ));
    }
    for (ea, eb) in a.edges().iter().zip(b.edges()) {
        if ea.key() != eb.key() || ea.weight.to_bits() != eb.weight.to_bits() {
            return Some(format!(
                "edge ({},{},{}) != ({},{},{})",
                eb.a, eb.b, eb.weight, ea.a, ea.b, ea.weight
            ));
        }
    }
    None
}

/// Drift budget for the pooled-null threshold across distributed merge
/// orders. The pooled moments merge in rank order (fault-free) or with
/// recomputed supplements appended (after a crash), so the f64 summation
/// order — and hence the last ulp of the threshold — depends on the rank
/// count and crash history. gnet-cluster's own contract
/// (`knife_edge_pairs_do_not_flip_across_rank_counts`,
/// `one_crashed_rank_yields_the_same_edge_set`) is therefore: identical
/// edge sets with bit-identical weights, threshold equal only up to
/// merge-order round-off. `1e-9` nats is six orders looser than observed
/// ulp drift and six tighter than any real pooling bug.
pub(crate) const POOLED_THRESHOLD_ABS: f64 = 1e-9;

fn diff_distributed(
    a: &DistributedResult,
    b: &DistributedResult,
    a_bytes: &[u8],
) -> Option<String> {
    let drift = (a.threshold - b.threshold).abs();
    if drift > POOLED_THRESHOLD_ABS {
        return Some(format!(
            "pooled threshold {} vs {} — |Δ| {drift:.3e} exceeds {POOLED_THRESHOLD_ABS:.1e}",
            b.threshold, a.threshold
        ));
    }
    if edge_bytes(&b.network) != a_bytes {
        return diff_networks(&a.network, &b.network)
            .or_else(|| Some("serialized edge lists differ".into()));
    }
    None
}
