//! The traced run: per-layer numbers from spans the benchmark records
//! around its own calls into each crate's public functions, plus probes
//! that time those functions over the workload's own inputs.
//!
//! Every traced run emits every per-layer metric. Where a workload's
//! operation does not pass through a layer (the ring on `batch-exact`, the
//! state bundle everywhere), the layer is probed on a slice of the
//! workload's matrix instead; `README.md` lists the source of each metric.

use crate::metrics::{median, quantile, Metrics};
use crate::trace::{Ctx, SpanRec, Tracer};
use crate::workload::{edge_digest, read_matrix, run_op, write_edges, Inputs, Reference, Workload};
use bytes::Bytes;
use gnet_bspline::{BsplineBasis, DenseWeights, SparseWeights};
use gnet_cluster::codec::{decode_block, encode_block, GeneBlock};
use gnet_cluster::protocol::block_range;
use gnet_cluster::{infer_network_distributed_tcp, run_ranks_tcp, RankStats, Transport};
use gnet_core::{
    apply_update, build_state, infer_network, InferenceConfig, RunStats, StateStore, UpdateMode,
};
use gnet_expr::normalize::rank_transform_profile;
use gnet_expr::ExpressionMatrix;
use gnet_fault::FaultInjector;
use gnet_graph::{Edge, GeneNetwork};
use gnet_mi::entropy::{entropy_from_counts, entropy_nats};
use gnet_mi::vector_kernel::{joint_counts, joint_counts_permuted, VectorGrid};
use gnet_mi::{
    mi_with_nulls, mi_with_nulls_early_exit, prepare_matrix, MiKernel, MiScratch, PreparedGene,
};
use gnet_parallel::{execute_tiles, ExecutionReport, TileSpace};
use gnet_permute::{PermutationSet, PooledNull};
use gnet_simd::slice_ops::{axpy, joint_accumulate_w16};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit; a traced run emits exactly these.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("expr.read_tsv.ms", "ms"),
    ("expr.rank.ns_per_value", "ns"),
    ("bspline.weights.ns_per_value", "ns"),
    ("bspline.to_dense.us", "us"),
    ("bspline.to_dense.per_gene", "count"),
    ("mi.prepare.us_per_gene", "us"),
    ("mi.pair_nulls.us_p50", "us"),
    ("mi.pair_nulls.us_p99", "us"),
    ("mi.pair_early_exit.us_p50", "us"),
    ("mi.pair_early_exit.us_p99", "us"),
    ("mi.joint.ns_per_row_fma", "ns"),
    ("mi.joint_permuted.ns_per_row_fma", "ns"),
    ("mi.entropy.ns_per_grid", "ns"),
    ("mi.joints_per_pair", "count"),
    ("mi.candidate_frac", "ratio"),
    ("simd.joint_w16.ns_per_row", "ns"),
    ("simd.axpy_l1.ns_per_row", "ns"),
    ("simd.gap_to_axpy", "ratio"),
    ("simd.bytes_per_row_fma", "B_computed"),
    ("simd.flop_per_row_fma", "flop_computed"),
    ("permute.generate.ms", "ms"),
    ("permute.threshold.us", "us"),
    ("parallel.imbalance", "ratio"),
    ("parallel.busy_frac", "ratio"),
    ("parallel.tile_overhead.ns_per_pair", "ns"),
    ("parallel.speedup_2t", "ratio"),
    ("parallel.op_1t_s", "s"),
    ("core.prep_s", "s"),
    ("core.mi_s", "s"),
    ("core.finalize_s", "s"),
    ("core.state.load_ms", "ms"),
    ("core.state.save_ms", "ms"),
    ("core.state.bytes", "B"),
    ("core.update.apply_s", "s"),
    ("core.update.frontier_pairs", "count"),
    ("graph.from_edges.ms", "ms"),
    ("graph.write_edges.ms", "ms"),
    ("graph.edges", "count"),
    ("cluster.busy_frac", "ratio"),
    ("cluster.wait_s", "s"),
    ("cluster.messages", "count"),
    ("cluster.bytes_sent", "B"),
    ("cluster.codec.encode_us", "us"),
    ("cluster.codec.decode_us", "us"),
    ("cluster.tcp.rtt_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans_per_op", "count"),
];

/// Genes whose pairs the per-pair and kernel probes time.
const PROBE_GENES: usize = 48;
/// Genes of the matrix slice the cluster probe runs the ring over.
const RING_PROBE_GENES: usize = 100;
/// Base genes and appended genes of the state probe.
const STATE_PROBE_GENES: (usize, usize) = (64, 8);
/// Ping-pongs the TCP round-trip probe times.
const RTT_ROUNDS: usize = 40;

/// Operations attempted and failed (error, panic or wrong edge set).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation: `got` is its edge digest, or why it failed.
    pub fn check(&mut self, what: &str, got: Result<u64, String>, want: u64) {
        self.attempted += 1;
        let err = match got {
            Ok(d) if d == want => return,
            Ok(d) => format!("edge digest {d:016x} != reference {want:016x}"),
            Err(e) => e,
        };
        eprintln!("perfbench: {what} failed: {err}");
        self.failed += 1;
    }
}

/// Run `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(&p))))
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".to_string())
}

/// Where the traced rebuild reads its matrix from.
enum Source<'a> {
    File(&'a Path),
    Memory(&'a ExpressionMatrix),
}

struct TileState {
    scratch: MiScratch,
    pooled: PooledNull,
    candidates: Vec<(u32, u32, f64)>,
}

/// The shared-memory pipeline rebuilt from public calls, with a span
/// around each layer: `prepare_gene` split into rank transform and
/// B-spline weights, `PermutationSet::generate`, `execute_tiles` over
/// `to_dense` + `mi_with_nulls`, the pooled-null merge and threshold, and
/// `GeneNetwork::from_edges`. Its edge set must equal `infer_network`'s.
fn rebuild_traced(
    tracer: &Tracer,
    ctx: Ctx,
    src: Source<'_>,
    cfg: &InferenceConfig,
) -> Result<GeneNetwork, String> {
    assert_eq!(
        cfg.kernel,
        MiKernel::VectorDense,
        "rebuild covers the vector kernel"
    );
    let owned;
    let matrix = match src {
        Source::File(path) => {
            let _s = tracer.span("expr.read_tsv", ctx);
            owned = read_matrix(path)?;
            &owned
        }
        Source::Memory(m) => m,
    };
    let basis = BsplineBasis::new(cfg.spline_order, cfg.bins);
    let prepared = prepare_traced(tracer, ctx, matrix, &basis);
    let perms = {
        let _s = tracer.span("permute.generate", ctx);
        PermutationSet::generate(matrix.samples(), cfg.permutations, cfg.seed)
    };
    let space = TileSpace::new(
        matrix.genes(),
        cfg.resolved_tile_size(matrix.genes(), prepared[0].heap_bytes()),
    );
    let exec = tracer.span("parallel.execute_tiles", ctx);
    let ectx = exec.ctx();
    let (states, _) = execute_tiles(
        space.tiles(),
        cfg.resolved_threads(),
        cfg.scheduler,
        |_| TileState {
            scratch: MiScratch::for_basis(&basis),
            pooled: PooledNull::new(),
            candidates: Vec::new(),
        },
        |st, tile| {
            let t = tracer.span("parallel.tile", ectx);
            let dense: Vec<DenseWeights> = (tile.col_start..tile.col_end)
                .map(|j| {
                    let _s = tracer.span("bspline.to_dense", t.ctx());
                    prepared[j as usize].to_dense()
                })
                .collect();
            let _s = tracer.span("mi.pairs", t.ctx());
            for (i, j) in tile.pairs() {
                let (x, y) = (&prepared[i as usize], &prepared[j as usize]);
                let yd = Some(&dense[(j - tile.col_start) as usize]);
                let r = mi_with_nulls(cfg.kernel, x, y, yd, perms.as_vecs(), &mut st.scratch);
                st.pooled.extend(&r.null);
                if r.exceed_count() == 0 {
                    st.candidates.push((i, j, r.observed));
                }
            }
        },
    );
    drop(exec);
    let threshold = {
        let _s = tracer.span("permute.threshold", ctx);
        let mut pooled = PooledNull::new();
        for s in &states {
            pooled.merge(&s.pooled);
        }
        pooled.global_threshold(cfg.alpha, space.total_pairs().max(1))
    };
    let _s = tracer.span("graph.from_edges", ctx);
    let edges = states
        .into_iter()
        .flat_map(|s| s.candidates)
        .filter(|&(_, _, v)| v > threshold)
        .map(|(i, j, v)| Edge::new(i, j, v as f32));
    Ok(GeneNetwork::from_edges(
        matrix.genes(),
        matrix.gene_names().to_vec(),
        edges,
    ))
}

/// `prepare_gene` for every gene, with the rank transform, the B-spline
/// weights and the marginal entropy in spans of their own. Builds exactly
/// what `PreparedGene::from_raw` builds.
fn prepare_traced(
    tracer: &Tracer,
    ctx: Ctx,
    matrix: &ExpressionMatrix,
    basis: &BsplineBasis,
) -> Vec<PreparedGene> {
    let s = tracer.span("mi.prepare", ctx);
    (0..matrix.genes())
        .map(|g| {
            let norm = {
                let _r = tracer.span("expr.rank", s.ctx());
                rank_transform_profile(matrix.gene(g))
            };
            let sparse = {
                let _w = tracer.span("bspline.weights", s.ctx());
                SparseWeights::from_normalized(&norm, basis)
            };
            let _e = tracer.span("mi.marginal_entropy", s.ctx());
            let h_marginal = entropy_nats(&sparse.marginal());
            PreparedGene { sparse, h_marginal }
        })
        .collect()
}

/// What a traced operation yields beyond its digest.
#[derive(Default)]
struct TracedOut {
    digest: u64,
    /// Wall time of the ring call and its rank statistics.
    ring: Option<(f64, Vec<RankStats>)>,
}

/// Load / apply / save times (s) of the state probe, the saved bundle's
/// bytes and the appended frontier's pairs.
struct StateSample {
    load_s: f64,
    apply_s: f64,
    save_s: f64,
    bytes: u64,
    frontier: u64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One operation of `w` with spans around each layer call.
fn traced_op(
    w: Workload,
    inputs: &Inputs,
    cfg: &InferenceConfig,
    tracer: &Tracer,
    op: u32,
) -> Result<TracedOut, String> {
    let root = tracer.span("op", Ctx::op(op));
    let ctx = root.ctx();
    let mut out = TracedOut::default();
    let net = match w {
        Workload::BatchExact => rebuild_traced(tracer, ctx, Source::File(&inputs.matrix_tsv), cfg)?,
        Workload::RingTcp2 => {
            let m = {
                let _s = tracer.span("expr.read_tsv", ctx);
                read_matrix(&inputs.matrix_tsv)?
            };
            let _s = tracer.span("cluster.infer_distributed_tcp", ctx);
            let t = Instant::now();
            let r = infer_network_distributed_tcp(&m, cfg, 2).map_err(|e| e.to_string())?;
            out.ring = Some((secs(t), r.rank_stats));
            r.network
        }
    };
    {
        let _s = tracer.span("graph.write_edges", ctx);
        write_edges(&net, &inputs.edges_tsv)?;
    }
    out.digest = edge_digest(&net);
    Ok(out)
}

/// Span durations named `name` in operation `op`, in ns.
fn durs(spans: &[SpanRec], op: u32, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.op == op && s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// Median ns of one call of `f` over `reps` calls (after one warm-up).
fn median_call_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

pub struct TracedRun {
    pub metrics: Metrics,
    pub tally: Tally,
}

/// The traced run of `w`: untraced and traced operations alternate for
/// half of `seconds` (the difference is the tracing overhead), then the
/// shared-memory pipeline runs once on one thread, then the probes.
pub fn traced_run(
    w: Workload,
    inputs: &Inputs,
    matrix: &ExpressionMatrix,
    cfg: &InferenceConfig,
    seconds: f64,
    reference: &Reference,
    tracer: &Tracer,
) -> TracedRun {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let want = reference.digest;

    // Untraced operations give the baseline for the tracing overhead.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut shared: Vec<RunStats> = Vec::new();
    let mut edges = reference.edges as f64;
    let mut rings = Vec::new();
    let mut op_ids = Vec::new();
    let phase = Instant::now();
    while untraced.len() < 2 || phase.elapsed().as_secs_f64() < seconds / 2.0 {
        let t = Instant::now();
        let r = guarded(|| run_op(w, inputs, cfg));
        untraced.push(secs(t));
        if let Ok(out) = &r {
            edges = out.edges as f64;
            shared.extend(out.run.clone());
        }
        tally.check("untraced op", r.map(|o| o.digest), want);

        let op = op_ids.len() as u32 + 1;
        let t = Instant::now();
        let r = guarded(|| traced_op(w, inputs, cfg, tracer, op));
        traced.push(secs(t));
        op_ids.push(op);
        if let Ok(out) = &r {
            rings.extend(out.ring.clone());
        }
        tally.check("traced op", r.map(|o| o.digest), want);
    }

    // The ring's matrix through the shared-memory pipeline: rebuilt with
    // spans, and two untraced 2-thread runs.
    let rebuild_op = if w == Workload::BatchExact {
        None
    } else {
        for _ in 0..2 {
            shared.push(infer_network(matrix, cfg).stats);
        }
        let op = op_ids.len() as u32 + 1;
        let r = guarded(|| {
            rebuild_traced(tracer, Ctx::op(op), Source::Memory(matrix), cfg)
                .map(|net| edge_digest(&net))
        });
        tally.check("traced rebuild", r, want);
        Some(op)
    };
    let spans = tracer.spans();
    let rebuild_ops: Vec<u32> = rebuild_op.map_or(op_ids.clone(), |op| vec![op]);

    let genes = matrix.genes() as f64;
    let values = genes * matrix.samples() as f64;
    let per_op = |ops: &[u32], f: &dyn Fn(u32) -> f64| -> f64 {
        median(&ops.iter().map(|&op| f(op)).collect::<Vec<_>>())
    };
    m.set(
        "expr.read_tsv.ms",
        per_op(&op_ids, &|op| sum(&durs(&spans, op, "expr.read_tsv")) / 1e6),
        "ms",
    );
    m.set(
        "graph.write_edges.ms",
        per_op(&op_ids, &|op| {
            sum(&durs(&spans, op, "graph.write_edges")) / 1e6
        }),
        "ms",
    );
    m.set(
        "expr.rank.ns_per_value",
        per_op(&rebuild_ops, &|op| {
            sum(&durs(&spans, op, "expr.rank")) / values
        }),
        "ns",
    );
    m.set(
        "bspline.weights.ns_per_value",
        per_op(&rebuild_ops, &|op| {
            sum(&durs(&spans, op, "bspline.weights")) / values
        }),
        "ns",
    );
    m.set(
        "mi.prepare.us_per_gene",
        per_op(&rebuild_ops, &|op| {
            sum(&durs(&spans, op, "mi.prepare")) / 1e3 / genes
        }),
        "us",
    );
    let dense: Vec<f64> = rebuild_ops
        .iter()
        .flat_map(|&op| durs(&spans, op, "bspline.to_dense"))
        .collect();
    m.set("bspline.to_dense.us", median(&dense) / 1e3, "us");
    m.set(
        "bspline.to_dense.per_gene",
        durs(&spans, rebuild_ops[0], "bspline.to_dense").len() as f64 / genes,
        "count",
    );
    m.set(
        "graph.from_edges.ms",
        per_op(&rebuild_ops, &|op| {
            sum(&durs(&spans, op, "graph.from_edges")) / 1e6
        }),
        "ms",
    );
    m.set(
        "trace.spans_per_op",
        spans.iter().filter(|s| s.op == op_ids[0]).count() as f64,
        "count",
    );
    m.set(
        "trace.overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
        "ratio",
    );
    m.set("graph.edges", edges, "count");

    // Stage times and scheduling from the 2-thread untraced runs.
    let stat = |f: &dyn Fn(&RunStats) -> f64| median(&shared.iter().map(f).collect::<Vec<_>>());
    let two_thread = stat(&|s| s.total_time().as_secs_f64());
    m.set("core.prep_s", stat(&|s| s.prep_time.as_secs_f64()), "s");
    m.set("core.mi_s", stat(&|s| s.mi_time.as_secs_f64()), "s");
    m.set(
        "core.finalize_s",
        stat(&|s| s.finalize_time.as_secs_f64()),
        "s",
    );
    m.set(
        "parallel.imbalance",
        stat(&|s| s.execution.imbalance()),
        "ratio",
    );
    m.set(
        "parallel.busy_frac",
        stat(&|s| busy_frac(&s.execution)),
        "ratio",
    );
    let last = shared.last().expect("at least one shared-memory run");
    m.set(
        "mi.joints_per_pair",
        last.joints_evaluated as f64 / last.pairs as f64,
        "count",
    );
    m.set(
        "mi.candidate_frac",
        last.candidates as f64 / last.pairs as f64,
        "ratio",
    );
    let threshold = last.threshold;

    // The single-thread run of the same matrix behind the speed-up.
    let one = infer_network(
        matrix,
        &InferenceConfig {
            threads: Some(1),
            ..*cfg
        },
    );
    let one_s = one.stats.total_time().as_secs_f64();
    m.set("parallel.op_1t_s", one_s, "s");
    m.set("parallel.speedup_2t", one_s / two_thread, "ratio");

    // Ring numbers from the ring operations, else from a probe on a slice
    // of the matrix; state numbers from the state probe.
    if rings.is_empty() {
        rings.push(ring_probe(matrix, cfg));
    }
    ring_metrics(&mut m, &rings);
    let st = state_probe(matrix, cfg, &inputs.dir);
    m.set("core.state.load_ms", st.load_s * 1e3, "ms");
    m.set("core.state.save_ms", st.save_s * 1e3, "ms");
    m.set("core.state.bytes", st.bytes as f64, "B");
    m.set("core.update.apply_s", st.apply_s, "s");
    m.set("core.update.frontier_pairs", st.frontier as f64, "count");

    kernel_probes(&mut m, matrix, cfg, threshold);
    TracedRun { metrics: m, tally }
}

fn busy_frac(e: &ExecutionReport) -> f64 {
    let busy: f64 = e.per_thread.iter().map(|t| t.busy.as_secs_f64()).sum();
    busy / (e.per_thread.len().max(1) as f64 * e.elapsed.as_secs_f64())
}

fn ring_metrics(m: &mut Metrics, rings: &[(f64, Vec<RankStats>)]) {
    let busy = |r: &[RankStats]| -> Vec<f64> { r.iter().map(|s| s.busy.as_secs_f64()).collect() };
    let frac: Vec<f64> = rings
        .iter()
        .map(|(wall, r)| sum(&busy(r)) / (r.len() as f64 * wall))
        .collect();
    let wait: Vec<f64> = rings
        .iter()
        .map(|(wall, r)| wall - busy(r).into_iter().fold(0.0, f64::max))
        .collect();
    m.set("cluster.busy_frac", median(&frac), "ratio");
    m.set("cluster.wait_s", median(&wait), "s");
    let first = &rings[0].1;
    m.set(
        "cluster.messages",
        first.iter().map(|s| s.messages).sum::<u64>() as f64,
        "count",
    );
    m.set(
        "cluster.bytes_sent",
        first.iter().map(|s| s.bytes_sent).sum::<u64>() as f64,
        "B",
    );
}

/// The 2-rank loopback ring over the first genes of the matrix.
fn ring_probe(matrix: &ExpressionMatrix, cfg: &InferenceConfig) -> (f64, Vec<RankStats>) {
    let genes: Vec<usize> = (0..RING_PROBE_GENES.min(matrix.genes())).collect();
    let slice = matrix.select_genes(&genes);
    let t = Instant::now();
    let r = infer_network_distributed_tcp(&slice, cfg, 2).expect("loopback ring probe");
    (secs(t), r.rank_stats)
}

/// Build a state over the first genes of the matrix, save it, then time
/// load → append → save as `gnet update` does.
fn state_probe(matrix: &ExpressionMatrix, cfg: &InferenceConfig, dir: &Path) -> StateSample {
    let (base_n, add_n) = STATE_PROBE_GENES;
    let base = matrix.select_genes(&(0..base_n).collect::<Vec<_>>());
    let append = matrix.select_genes(&(base_n..base_n + add_n).collect::<Vec<_>>());
    let (a, b) = (dir.join("probe-state-a"), dir.join("probe-state-b"));
    StateStore::new(&a)
        .save(&build_state(&base, cfg))
        .expect("state probe save");
    let t = Instant::now();
    let state = StateStore::new(&a).load().expect("state probe load");
    let load_s = secs(t);
    let t = Instant::now();
    let (updated, stats) = apply_update(&state, &append, UpdateMode::Genes).expect("state probe");
    let apply_s = secs(t);
    let t = Instant::now();
    let store = StateStore::new(&b);
    store.save(&updated).expect("state probe save");
    let save_s = secs(t);
    let bytes = std::fs::metadata(store.path()).map_or(0, |md| md.len());
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
    StateSample {
        load_s,
        apply_s,
        save_s,
        bytes,
        frontier: stats.pairs_scanned,
    }
}

/// Single-thread probes of the kernels, the scheduler, the permutation
/// layer and the cluster codec and transport, over the matrix's genes.
fn kernel_probes(
    m: &mut Metrics,
    matrix: &ExpressionMatrix,
    cfg: &InferenceConfig,
    threshold: f64,
) {
    let basis = BsplineBasis::new(cfg.spline_order, cfg.bins);
    let prepared = prepare_matrix(matrix, &basis);
    let perms = PermutationSet::generate(matrix.samples(), cfg.permutations, cfg.seed);
    let n = PROBE_GENES.min(prepared.len());
    let dense: Vec<DenseWeights> = prepared[..n].iter().map(PreparedGene::to_dense).collect();
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect();
    let samples = matrix.samples();
    let k = cfg.spline_order;
    let row_fmas = (pairs.len() * samples * k) as f64;

    // Per-pair latency of the two null strategies.
    let mut scratch = MiScratch::for_basis(&basis);
    let mut pooled = [PooledNull::new(), PooledNull::new()];
    let mut exact_us = Vec::with_capacity(pairs.len());
    let mut early_us = Vec::with_capacity(pairs.len());
    for (p, &(i, j)) in pairs.iter().enumerate() {
        let (x, y, yd) = (&prepared[i], &prepared[j], Some(&dense[j]));
        let t = Instant::now();
        let r = mi_with_nulls(cfg.kernel, x, y, yd, perms.as_vecs(), &mut scratch);
        exact_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        pooled[p % 2].extend(&r.null);
        let t = Instant::now();
        black_box(mi_with_nulls_early_exit(
            cfg.kernel,
            x,
            y,
            yd,
            perms.as_vecs(),
            threshold,
            &mut scratch,
        ));
        early_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    m.set("mi.pair_nulls.us_p50", median(&exact_us), "us");
    m.set("mi.pair_nulls.us_p99", quantile(&exact_us, 0.99), "us");
    m.set("mi.pair_early_exit.us_p50", median(&early_us), "us");
    m.set("mi.pair_early_exit.us_p99", quantile(&early_us, 0.99), "us");
    let total_pairs = (matrix.genes() * (matrix.genes() - 1) / 2) as u64;
    let merge_ns = median_call_ns(21, || {
        for _ in 0..100 {
            let mut p = pooled[0];
            p.merge(&pooled[1]);
            black_box(p.global_threshold(cfg.alpha, total_pairs));
        }
    });
    m.set("permute.threshold.us", merge_ns / 1e5, "us");

    // Joint-grid accumulation, straight and permuted, per row FMA.
    let mut grid = VectorGrid::for_dense(&dense[0]);
    let joint = median_call_ns(9, || {
        for &(i, j) in &pairs {
            joint_counts(&prepared[i].sparse, &dense[j], &mut grid);
        }
        black_box(grid.as_slice());
    });
    let joint_perm = median_call_ns(9, || {
        for (p, &(i, j)) in pairs.iter().enumerate() {
            let perm = perms.get(p % perms.len());
            joint_counts_permuted(&prepared[i].sparse, &dense[j], perm, &mut grid);
        }
        black_box(grid.as_slice());
    });
    m.set("mi.joint.ns_per_row_fma", joint / row_fmas, "ns");
    m.set(
        "mi.joint_permuted.ns_per_row_fma",
        joint_perm / row_fmas,
        "ns",
    );
    let entropy = median_call_ns(9, || {
        for _ in 0..1_000 {
            black_box(entropy_from_counts(
                black_box(grid.as_slice()),
                samples as f64,
            ));
        }
    });
    m.set("mi.entropy.ns_per_grid", entropy / 1e3, "ns");

    // The dispatched slice kernel on its own, permuted, and the axpy
    // ceiling over an L1-resident buffer (2 × 16 KiB).
    let mut raw_grid = vec![0.0f32; cfg.bins * 16];
    let w16 = median_call_ns(9, || {
        for (p, &(i, j)) in pairs.iter().enumerate() {
            let x = &prepared[i].sparse;
            let perm = perms.get(p % perms.len());
            joint_accumulate_w16(
                &mut raw_grid,
                x.first_bins_flat(),
                x.weights_flat(),
                k,
                dense[j].as_slice(),
                Some(perm),
            );
        }
        black_box(&raw_grid);
    });
    m.set("simd.joint_w16.ns_per_row", w16 / row_fmas, "ns");
    let xs = vec![1.0f32; 4096];
    let mut ys = vec![0.0f32; 4096];
    let axpy_ns = median_call_ns(15, || {
        for _ in 0..200 {
            axpy(1e-3, black_box(&xs), &mut ys);
        }
        black_box(&ys);
    });
    let axpy_row = axpy_ns / (200.0 * 4096.0 / 16.0);
    m.set("simd.axpy_l1.ns_per_row", axpy_row, "ns");
    m.set(
        "simd.gap_to_axpy",
        joint_perm / row_fmas / axpy_row,
        "ratio",
    );
    // Computed from array sizes, not measured: per permuted row FMA the
    // kernel streams one 64 B padded y row, 2 B first bin and 4 B
    // permutation index per sample (shared by its k rows) and one 4 B
    // weight; the grid stays in L1 and is not counted. One 16-lane FMA
    // is 32 flops.
    m.set(
        "simd.bytes_per_row_fma",
        (64.0 + 2.0 + 4.0) / k as f64 + 4.0,
        "B_computed",
    );
    m.set("simd.flop_per_row_fma", 32.0, "flop_computed");

    // Scheduler cost around a no-op pair, on the matrix's own tiling.
    let space = TileSpace::new(
        prepared.len(),
        cfg.resolved_tile_size(prepared.len(), prepared[0].heap_bytes()),
    );
    let tiles_ns = median_call_ns(15, || {
        let (counts, _) = execute_tiles(
            space.tiles(),
            cfg.resolved_threads(),
            cfg.scheduler,
            |_| 0u64,
            |acc, tile| {
                for (i, j) in tile.pairs() {
                    *acc += u64::from(black_box(i ^ j));
                }
            },
        );
        black_box(counts);
    });
    m.set(
        "parallel.tile_overhead.ns_per_pair",
        tiles_ns / space.total_pairs() as f64,
        "ns",
    );
    let gen_ns = median_call_ns(5, || {
        black_box(PermutationSet::generate(
            samples,
            cfg.permutations,
            cfg.seed,
        ));
    });
    m.set("permute.generate.ms", gen_ns / 1e6, "ms");

    // Codec and transport on one rank's block of a 2-rank ring.
    let (s, e) = block_range(prepared.len(), 2, 0);
    let block = GeneBlock {
        indices: (s as u32..e as u32).collect(),
        genes: prepared[s..e].to_vec(),
    };
    let encoded = encode_block(&block);
    let enc = median_call_ns(9, || {
        black_box(encode_block(&block));
    });
    let dec = median_call_ns(9, || {
        black_box(decode_block(encoded.clone()).expect("block round-trips"));
    });
    m.set("cluster.codec.encode_us", enc / 1e3, "us");
    m.set("cluster.codec.decode_us", dec / 1e3, "us");
    m.set("cluster.tcp.rtt_us", tcp_rtt_us(&encoded), "us");
}

/// Median round trip of `frame` between two ranks over loopback TCP.
fn tcp_rtt_us(frame: &Bytes) -> f64 {
    let timeout = Duration::from_secs(10);
    let per_rank = run_ranks_tcp(2, &FaultInjector::none(), |t| {
        let mut rtts = Vec::with_capacity(RTT_ROUNDS);
        for _ in 0..RTT_ROUNDS {
            if t.rank() == 0 {
                let start = Instant::now();
                t.send(1, frame.clone());
                t.recv_timeout(1, timeout).expect("pong");
                rtts.push(start.elapsed().as_nanos() as f64 / 1e3);
            } else {
                let ping = t.recv_timeout(0, timeout).expect("ping");
                t.send(0, ping);
            }
        }
        rtts
    })
    .expect("loopback mesh");
    median(&per_rank[0])
}
