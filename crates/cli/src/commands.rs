//! The five `gnet` subcommands.

use crate::args::{ArgError, ArgMap};
use gnet_cluster::{
    infer_network_distributed_with, run_worker, serve_coordinator, DistributedOptions,
    TelemetryPlane, TelemetrySpec, DEFAULT_PEER_TIMEOUT,
};
use gnet_core::config::NullStrategy;
use gnet_core::{
    build_state, infer_network_durable, infer_network_traced, update_durable, CheckpointStore,
    InferenceConfig, StateError, StateStore, UpdateMode,
};
use gnet_expr::io as expr_io;
use gnet_expr::{ExpressionMatrix, MissingPolicy};
use gnet_graph::dpi::dpi_prune;
use gnet_graph::io as graph_io;
use gnet_graph::{recovery_score, Edge, GeneNetwork};
use gnet_grnsim::{GrnConfig, SyntheticDataset, TopologyKind};
use gnet_mi::MiKernel;
use gnet_parallel::SchedulerPolicy;
use gnet_phi::scenarios;
use gnet_trace::{diag_chunk, EwmaEta, Progress, Recorder};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};

/// Any failure a command can produce, rendered for the terminal.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        Self(e.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        Self(format!("I/O error: {e}"))
    }
}

fn fail<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Create an output file, naming the path in the error — a bare
/// "permission denied" with no path is useless in a pipeline log.
fn create_file(path: &str) -> Result<File, CliError> {
    File::create(path).map_err(|e| CliError(format!("cannot create {path}: {e}")))
}

/// `gnet generate` — synthesize a ground-truth GRN dataset.
///
/// Options: `--genes` `--samples` `--seed` `--avg-degree`
/// `--topology scale-free|erdos-renyi` `--out FILE` `--truth FILE`.
pub fn cmd_generate(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let genes = args.get_or("genes", 200usize)?;
    let samples = args.get_or("samples", 300usize)?;
    let seed = args.get_or("seed", 42u64)?;
    let avg_degree = args.get_or("avg-degree", 3.0f64)?;
    let topology = match args.get("topology").unwrap_or("scale-free") {
        "scale-free" => TopologyKind::ScaleFree,
        "erdos-renyi" => TopologyKind::ErdosRenyi,
        other => return fail(format!("unknown topology {other:?}")),
    };
    let batches = args.get_or("batches", 1usize)?;
    let batch_sd = args.get_or("batch-sd", 0.0f32)?;
    let matrix_path = args.require("out")?.to_string();
    let truth_path = args.get("truth").map(str::to_string);
    args.reject_unknown()?;

    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes,
            samples,
            topology,
            avg_degree,
            batches,
            batch_sd,
            ..GrnConfig::small()
        },
        seed,
    );
    expr_io::write_tsv(&ds.matrix, BufWriter::new(create_file(&matrix_path)?))
        .map_err(|e| CliError(format!("cannot write {matrix_path}: {e}")))?;
    writeln!(out, "wrote {genes}×{samples} matrix to {matrix_path}")?;

    if let Some(path) = truth_path {
        let truth_net = GeneNetwork::from_edges(
            genes,
            ds.matrix.gene_names().to_vec(),
            ds.truth_edges()
                .into_iter()
                .map(|(a, b)| Edge::new(a, b, 1.0)),
        );
        graph_io::write_edge_list(&truth_net, BufWriter::new(create_file(&path)?))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        writeln!(
            out,
            "wrote {} ground-truth edges to {path}",
            truth_net.edge_count()
        )?;
    }
    Ok(())
}

fn load_matrix(path: &str) -> Result<ExpressionMatrix, CliError> {
    let file = File::open(path).map_err(|e| CliError(format!("cannot open {path}: {e}")))?;
    expr_io::read_tsv(file, true, MissingPolicy::MeanImpute)
        .map_err(|e| CliError(format!("cannot read {path}: {e}")))
}

fn config_from_args(args: &ArgMap) -> Result<InferenceConfig, CliError> {
    let mut cfg = InferenceConfig {
        bins: args.get_or("bins", 10usize)?,
        spline_order: args.get_or("order", 3usize)?,
        permutations: args.get_or("q", 30usize)?,
        alpha: args.get_or("alpha", 0.01f64)?,
        seed: args.get_or("seed", InferenceConfig::default().seed)?,
        ..InferenceConfig::default()
    };
    if let Some(t) = args.get("threshold") {
        cfg.mi_threshold = Some(
            t.parse()
                .map_err(|_| CliError(format!("bad --threshold {t:?}")))?,
        );
    }
    if let Some(t) = args.get("threads") {
        cfg.threads = Some(
            t.parse()
                .map_err(|_| CliError(format!("bad --threads {t:?}")))?,
        );
    }
    if let Some(t) = args.get("tile") {
        cfg.tile_size = Some(
            t.parse()
                .map_err(|_| CliError(format!("bad --tile {t:?}")))?,
        );
    }
    cfg.kernel = match args.get("kernel").unwrap_or("vector") {
        "vector" => MiKernel::VectorDense,
        "scalar" => MiKernel::ScalarSparse,
        other => return fail(format!("unknown kernel {other:?} (vector|scalar)")),
    };
    let slug = args.get("scheduler").unwrap_or("dynamic");
    cfg.scheduler = SchedulerPolicy::from_slug(slug)
        .ok_or_else(|| CliError(format!("unknown scheduler {slug:?}")))?;
    if args.flag("early-exit") {
        cfg.null_strategy = NullStrategy::EarlyExit;
    }
    Ok(cfg)
}

/// Build the progress sink installed behind `gnet infer --progress`: a
/// single stderr status line (tiles done / total / percent / ETA),
/// rewritten in place and rate-limited to ~5 updates per second. The
/// final update (done == total) is always printed.
///
/// The ETA is EWMA-smoothed over per-chunk durations ([`EwmaEta`]) so a
/// rate change mid-run — early-exit pruning kicking in, a machine that
/// warms up or gets loaded — moves the estimate toward the *recent*
/// rate instead of the whole-run mean the raw `Progress::eta` reports.
///
/// Each repaint goes through [`gnet_trace::diag_chunk`], the process-wide
/// line-buffered stderr writer, so a concurrently-printing rank or thread
/// can never splice its output into the middle of the progress line.
fn progress_sink() -> impl Fn(Progress) + Send + Sync + 'static {
    let state = std::sync::Mutex::new((EwmaEta::new(), None::<std::time::Instant>));
    move |p: Progress| {
        let mut state = state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let eta_estimate = state.0.update(p);
        let due = p.done >= p.total
            || state
                .1
                .is_none_or(|t| t.elapsed() >= std::time::Duration::from_millis(200));
        if !due {
            return;
        }
        state.1 = Some(std::time::Instant::now());
        let eta = match eta_estimate {
            Some(d) => format!("{d:.0?}"),
            None => "?".to_string(),
        };
        let mut line = format!(
            "\rtiles {}/{} ({:3.0}%)  ETA {eta}    ",
            p.done,
            p.total,
            p.fraction() * 100.0
        );
        if p.done >= p.total {
            line.push('\n');
        }
        diag_chunk(&line);
    }
}

/// `gnet infer` — run the pipeline on a TSV matrix.
///
/// Options: `--input FILE` `--output FILE` plus the config options of
/// `config_from_args`, `--dpi EPS` for post-pruning, `--ranks P`
/// to run over the simulated cluster instead of shared memory, and the
/// observability options `--trace FILE` (NDJSON event stream),
/// `--metrics FILE` (metrics summary JSON), `--progress` (live stderr
/// status line with an EWMA-smoothed ETA). With `--ranks`,
/// `--trace-dir DIR` writes one NDJSON stream per rank plus a
/// `manifest.json` (analyse with `gnet trace-report --trace-dir DIR`).
///
/// Fault tolerance: `--checkpoint-dir DIR` enables durable checkpoints
/// every `--checkpoint-every N` tiles (shared-memory path), `--resume`
/// continues from the checkpoint in that directory, and
/// `--fault-plan PLAN` injects a deterministic, replayable fault plan
/// (see `gnet_fault`) into either execution path.
///
/// Multi-process: `--listen ADDR` (with `--ranks P`, `P ≥ 2`) binds a
/// TCP coordinator instead of running all ranks in-process; it prints
/// `listening on IP:PORT`, waits for `P − 1` `gnet worker --connect`
/// processes, and produces the byte-identical edge set.
///
/// Live telemetry (with `--ranks`, in-process or `--listen`, traced or
/// not):
/// `--status-addr ADDR` serves `/status` (gnet-status/1 JSON) and
/// `/metrics` (Prometheus text) over HTTP and prints
/// `status listening on IP:PORT`; `--status-file FILE` atomically
/// rewrites the same JSON document on every heartbeat interval;
/// `--status-interval-ms N` tunes the heartbeat cadence (default 250).
/// Read either surface with `gnet status`. Telemetry is observational
/// only: the edge set is byte-identical with it on or off.
///
/// Incremental: `--save-state DIR` runs the canonical serial scan and
/// persists an updatable state bundle alongside the edge list, so later
/// appends go through `gnet update` instead of a rebuild. Incompatible
/// with `--ranks`, `--checkpoint-dir`, and `--early-exit`.
pub fn cmd_infer(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.require("input")?.to_string();
    let output = args.require("output")?.to_string();
    let dpi: Option<f32> = match args.get("dpi") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| CliError(format!("bad --dpi {raw:?}")))?,
        ),
        None => None,
    };
    let ranks: Option<usize> = match args.get("ranks") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| CliError(format!("bad --ranks {raw:?}")))?,
        ),
        None => None,
    };
    let trace_path = args.get("trace").map(str::to_string);
    let metrics_path = args.get("metrics").map(str::to_string);
    let progress = args.flag("progress");
    if ranks.is_some() && (trace_path.is_some() || metrics_path.is_some() || progress) {
        return fail("--trace/--metrics/--progress instrument the shared-memory pipeline and cannot be combined with --ranks");
    }
    let trace_dir = args.get("trace-dir").map(str::to_string);
    if trace_dir.is_some() && ranks.is_none() {
        return fail("--trace-dir writes one stream per rank and needs --ranks; use --trace FILE for the shared-memory pipeline");
    }
    let listen = args.get("listen").map(str::to_string);
    if listen.is_some() && ranks.is_none_or(|p| p < 2) {
        return fail("--listen starts a multi-process coordinator and needs --ranks P with P >= 2");
    }
    let status_addr = args.get("status-addr").map(str::to_string);
    let status_file = args.get("status-file").map(str::to_string);
    let status_interval_ms = args.get_or("status-interval-ms", 250u64)?;
    let telemetry = status_addr.is_some() || status_file.is_some();
    if telemetry && ranks.is_none() {
        return fail("--status-addr/--status-file stream live telemetry from the distributed path and need --ranks");
    }
    if args.get("status-interval-ms").is_some() && !telemetry {
        return fail("--status-interval-ms needs --status-addr or --status-file");
    }
    if status_interval_ms == 0 {
        return fail("--status-interval-ms must be at least 1");
    }
    let checkpoint_dir = args.get("checkpoint-dir").map(str::to_string);
    let checkpoint_every = args.get_or("checkpoint-every", 8usize)?;
    let resume = args.flag("resume");
    if checkpoint_every == 0 {
        return fail("--checkpoint-every must be at least 1 tile");
    }
    if (resume || args.get("checkpoint-every").is_some()) && checkpoint_dir.is_none() {
        return fail("--resume/--checkpoint-every need --checkpoint-dir");
    }
    if ranks.is_some() && checkpoint_dir.is_some() {
        return fail("checkpoints cover the shared-memory pipeline; the distributed path (--ranks) recovers via rank failover instead");
    }
    let save_state = args.get("save-state").map(str::to_string);
    if save_state.is_some() && ranks.is_some() {
        return fail("--save-state builds the canonical serial state bundle and cannot be combined with --ranks");
    }
    if save_state.is_some() && checkpoint_dir.is_some() {
        return fail("--save-state is itself durable; drop --checkpoint-dir");
    }
    let fault_plan = match args.get("fault-plan") {
        Some(raw) => Some(
            gnet_fault::FaultPlan::parse(raw)
                .map_err(|e| CliError(format!("bad --fault-plan: {e}")))?,
        ),
        None => None,
    };
    let quantile = args.flag("quantile-normalize");
    let center_batches: Option<usize> = match args.get("center-batches") {
        Some(raw) => {
            let b: usize = raw
                .parse()
                .map_err(|_| CliError(format!("bad --center-batches {raw:?}")))?;
            if b < 1 {
                return fail("--center-batches needs at least one batch");
            }
            Some(b)
        }
        None => None,
    };
    let cfg = config_from_args(args)?;
    if save_state.is_some() && !matches!(cfg.null_strategy, NullStrategy::ExactFull) {
        return fail("--save-state needs the exact-full pooled null (drop --early-exit): an updatable state must keep the pooled moments");
    }
    args.reject_unknown()?;

    let mut matrix = load_matrix(&input)?;
    writeln!(
        out,
        "loaded {} genes × {} samples from {input}",
        matrix.genes(),
        matrix.samples()
    )?;

    if quantile {
        matrix = gnet_expr::normalize::quantile_normalize(&matrix);
        writeln!(out, "quantile-normalized {} samples", matrix.samples())?;
    }
    if let Some(batches) = center_batches {
        // Contiguous equal batches, matching `gnet generate`'s layout.
        let per = matrix.samples().div_ceil(batches);
        let labels: Vec<u32> = (0..matrix.samples())
            .map(|s| {
                u32::try_from((s / per).min(batches - 1)).expect("batch count fits the u32 label")
            })
            .collect();
        matrix = gnet_expr::normalize::center_batches(&matrix, &labels);
        writeln!(out, "centered {batches} contiguous batches")?;
    }

    // One recorder serves all three observability options; without any of
    // them it is the inert handle and the run is uninstrumented.
    let rec = if trace_path.is_some() || metrics_path.is_some() || progress {
        if progress {
            Recorder::enabled_with_progress(progress_sink())
        } else {
            Recorder::enabled()
        }
    } else {
        Recorder::disabled()
    };

    let injector = match &fault_plan {
        Some(plan) => gnet_fault::FaultInjector::from_plan_traced(plan, &rec),
        None => gnet_fault::FaultInjector::none(),
    };

    // The live telemetry plane (ISSUE 10): a `--status-file` JSON
    // document and/or a `/status` + `/metrics` HTTP listener, fed by
    // in-band worker heartbeats. Purely observational — the edge set is
    // byte-identical with or without it.
    let mut plane = if telemetry {
        let spec = TelemetrySpec {
            status_addr: status_addr.clone(),
            status_file: status_file.as_ref().map(std::path::PathBuf::from),
            interval: std::time::Duration::from_millis(status_interval_ms),
        };
        let genes = matrix.genes() as u64;
        let p = ranks.expect("telemetry requires --ranks (validated above)");
        let plane = TelemetryPlane::start(&spec, p, genes * genes.saturating_sub(1) / 2)
            .map_err(|e| CliError(format!("cannot start the status plane: {e}")))?;
        if let Some(addr) = plane.status_addr() {
            // Announced on stdout (and flushed) so a harness scraping
            // mid-run can learn the ephemeral port, mirroring the
            // `listening on` line of the --listen coordinator.
            writeln!(out, "status listening on {addr}")?;
            out.flush()?;
        }
        Some(plane)
    } else {
        None
    };

    let (mut network, summary) = match ranks {
        Some(p) => {
            let r = if let Some(addr) = &listen {
                let listener = std::net::TcpListener::bind(addr.as_str())
                    .map_err(|e| CliError(format!("cannot bind {addr}: {e}")))?;
                let local = listener
                    .local_addr()
                    .map_err(|e| CliError(format!("cannot resolve bound address: {e}")))?;
                // Announced before the accept loop blocks, and flushed so
                // a launcher reading this pipe can start the workers.
                writeln!(out, "listening on {local}")?;
                out.flush()?;
                serve_coordinator(
                    &listener,
                    &matrix,
                    &cfg,
                    p,
                    fault_plan.as_ref(),
                    &rec,
                    DEFAULT_PEER_TIMEOUT,
                    trace_dir.as_deref().map(std::path::Path::new),
                    plane.as_ref(),
                )
            } else {
                let options = DistributedOptions {
                    faults: injector.clone(),
                    recorder: rec.clone(),
                    trace_dir: trace_dir.as_deref().map(std::path::Path::new),
                    live: plane.as_ref(),
                    ..DistributedOptions::default()
                };
                infer_network_distributed_with(&matrix, &cfg, p, &options)
            }
            .map_err(|e| CliError(e.to_string()))?;
            if let Some(dir) = &trace_dir {
                writeln!(out, "wrote {p} per-rank trace streams + manifest to {dir}")?;
            }
            let pairs: u64 = r.rank_stats.iter().map(|s| s.pairs).sum();
            let mut summary = format!("{} ranks, {} pairs, I* = {:.4}", p, pairs, r.threshold);
            if !r.crashed_ranks.is_empty() {
                summary.push_str(&format!(
                    " (recovered from {} lost rank(s): {:?})",
                    r.crashed_ranks.len(),
                    r.crashed_ranks
                ));
            }
            (r.network, summary)
        }
        None if save_state.is_some() => {
            let dir = save_state.as_deref().expect("guarded by the match arm");
            let t0 = std::time::Instant::now();
            let state = build_state(&matrix, &cfg);
            let store = StateStore::with_faults(dir, injector.clone(), &rec);
            store.save(&state).map_err(|e| CliError(e.to_string()))?;
            let summary = format!(
                "{} pairs in {:?}, I* = {:.4} [updatable state saved to {dir}]",
                state.total_pairs(),
                t0.elapsed(),
                state.threshold()
            );
            (state.network(), summary)
        }
        None => match &checkpoint_dir {
            Some(dir) => {
                let store = CheckpointStore::with_faults(dir, injector.clone(), &rec);
                let r = infer_network_durable(&matrix, &cfg, &store, checkpoint_every, resume, &rec)
                    .map_err(|e| match e {
                        gnet_core::CheckpointError::Interrupted { tiles_done } => CliError(format!(
                            "run interrupted after {tiles_done} tile(s); checkpoint saved in {dir} — rerun with --resume to continue"
                        )),
                        other => CliError(other.to_string()),
                    })?;
                (
                    r.network,
                    format!(
                        "{} pairs in {:?} ({:.0} pairs/s), I* = {:.4} [checkpointed every {checkpoint_every} tiles]",
                        r.stats.pairs,
                        r.stats.total_time(),
                        r.stats.pair_rate(),
                        r.stats.threshold
                    ),
                )
            }
            None => {
                let r = infer_network_traced(&matrix, &cfg, &rec);
                (
                    r.network,
                    format!(
                        "{} pairs in {:?} ({:.0} pairs/s), I* = {:.4}",
                        r.stats.pairs,
                        r.stats.total_time(),
                        r.stats.pair_rate(),
                        r.stats.threshold
                    ),
                )
            }
        },
    };
    writeln!(out, "{summary}")?;

    if let Some(mut live) = plane.take() {
        live.finish()
            .map_err(|e| CliError(format!("cannot finalize the status plane: {e}")))?;
        if let Some(path) = &status_file {
            writeln!(out, "final status snapshot in {path}")?;
        }
    }

    if let Some(path) = &trace_path {
        let mut w = BufWriter::new(create_file(path)?);
        rec.write_ndjson(&mut w)?;
        w.flush()?;
        writeln!(out, "wrote trace events to {path}")?;
    }
    if let Some(path) = &metrics_path {
        let mut w = BufWriter::new(create_file(path)?);
        rec.write_metrics_json(&mut w)?;
        w.flush()?;
        writeln!(out, "wrote metrics to {path}")?;
    }

    if let Some(eps) = dpi {
        let before = network.edge_count();
        network = dpi_prune(&network, eps);
        writeln!(
            out,
            "DPI(ε={eps}): {before} → {} edges",
            network.edge_count()
        )?;
    }

    graph_io::write_edge_list(&network, BufWriter::new(create_file(&output)?))
        .map_err(|e| CliError(format!("cannot write {output}: {e}")))?;
    writeln!(out, "wrote {} edges to {output}", network.edge_count())?;
    Ok(())
}

/// `gnet update` — apply an incremental append to a saved state bundle.
///
/// Options: `--state DIR` (bundle written by `gnet infer --save-state`),
/// `--append FILE` (TSV holding the appended genes or samples),
/// `--output FILE` (updated edge list), `--mode genes|samples`
/// (auto-detected from the append's shape when unambiguous),
/// `--checkpoint-every N` (durable progress every N evaluated pairs,
/// default 64), `--resume` (continue an interrupted update from its
/// progress file), and `--fault-plan PLAN` (deterministic fault
/// injection, e.g. `update-crash(boundary=B)`).
///
/// The updated bundle and edge list are byte-identical to a from-scratch
/// `gnet infer --save-state` over the concatenated dataset — the
/// batch-equivalence contract pinned by conformance family 6 — but a
/// gene append scans only the `g·(N−g) + g·(g−1)/2` new-pair frontier.
pub fn cmd_update(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let state_dir = args.require("state")?.to_string();
    let append_path = args.require("append")?.to_string();
    let output = args.require("output")?.to_string();
    let mode = match args.get("mode") {
        None => None,
        Some("genes") => Some(UpdateMode::Genes),
        Some("samples") => Some(UpdateMode::Samples),
        Some(other) => return fail(format!("unknown --mode {other:?} (genes|samples)")),
    };
    let checkpoint_every = args.get_or("checkpoint-every", 64usize)?;
    if checkpoint_every == 0 {
        return fail("--checkpoint-every must be at least 1 pair");
    }
    let resume = args.flag("resume");
    let fault_plan = match args.get("fault-plan") {
        Some(raw) => Some(
            gnet_fault::FaultPlan::parse(raw)
                .map_err(|e| CliError(format!("bad --fault-plan: {e}")))?,
        ),
        None => None,
    };
    args.reject_unknown()?;

    let append = load_matrix(&append_path)?;
    writeln!(
        out,
        "loaded {} genes × {} samples to append from {append_path}",
        append.genes(),
        append.samples()
    )?;

    let rec = Recorder::disabled();
    let injector = match &fault_plan {
        Some(plan) => gnet_fault::FaultInjector::from_plan_traced(plan, &rec),
        None => gnet_fault::FaultInjector::none(),
    };
    let store = StateStore::with_faults(&state_dir, injector, &rec);
    let t0 = std::time::Instant::now();
    let (state, stats) = update_durable(&store, &append, mode, checkpoint_every, resume, &rec)
        .map_err(|e| match e {
            StateError::Interrupted { pairs_done } => CliError(format!(
                "update interrupted after {pairs_done} pair(s); progress saved in {state_dir} — rerun with --resume to continue"
            )),
            other => CliError(other.to_string()),
        })?;
    let resumed_note = if stats.pairs_resumed > 0 {
        format!(" ({} resumed from progress)", stats.pairs_resumed)
    } else {
        String::new()
    };
    writeln!(
        out,
        "appended {} {}: scanned {} pairs{resumed_note} in {:?}, state now {} genes × {} samples, I* = {:.4}",
        stats.appended,
        match stats.mode {
            UpdateMode::Genes => "gene(s)",
            UpdateMode::Samples => "sample(s)",
        },
        stats.pairs_scanned,
        t0.elapsed(),
        state.gene_count(),
        state.samples,
        stats.threshold
    )?;

    let network = state.network();
    graph_io::write_edge_list(&network, BufWriter::new(create_file(&output)?))
        .map_err(|e| CliError(format!("cannot write {output}: {e}")))?;
    writeln!(out, "wrote {} edges to {output}", network.edge_count())?;
    Ok(())
}

/// `gnet worker` — join a multi-process distributed run as one rank.
///
/// Options: `--connect ADDR` (the `IP:PORT` printed by
/// `gnet infer --listen`) and `--trace-dir DIR` to override the
/// coordinator-announced trace directory on this machine. Everything
/// else — rank, matrix, config, fault plan — arrives from the
/// coordinator over the wire.
pub fn cmd_worker(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let addr_raw = args.require("connect")?.to_string();
    let trace_dir = args.get("trace-dir").map(str::to_string);
    args.reject_unknown()?;
    let addr: std::net::SocketAddr = addr_raw
        .parse()
        .map_err(|_| CliError(format!("bad --connect address {addr_raw:?} (need IP:PORT)")))?;
    let report = run_worker(addr, trace_dir.as_deref().map(std::path::Path::new))
        .map_err(|e| CliError(e.to_string()))?;
    if report.crashed {
        writeln!(
            out,
            "rank {} of {}: killed by the fault plan (simulated crash)",
            report.rank, report.ranks
        )?;
    } else {
        writeln!(out, "rank {} of {} done", report.rank, report.ranks)?;
    }
    Ok(())
}

/// Plain HTTP/1.0 GET against the status listener: one request, read to
/// EOF, no keep-alive — exactly what `StatusServer` serves.
fn http_get(addr: &str, path: &str) -> Result<String, CliError> {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| CliError(format!("cannot arm the read timeout: {e}")))?;
    write!(
        stream,
        "GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| CliError(format!("cannot send the request to {addr}: {e}")))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| CliError(format!("cannot read the response from {addr}: {e}")))?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return fail(format!("malformed HTTP response from {addr}"));
    };
    let status_line = head.lines().next().unwrap_or_default();
    if !status_line.contains(" 200 ") {
        return fail(format!("{addr}{path} answered: {status_line}"));
    }
    Ok(body.to_string())
}

fn render_status_summary(s: &gnet_obs::StatusSummary, out: &mut dyn Write) -> Result<(), CliError> {
    #[allow(clippy::cast_precision_loss)] // cast-ok: display percentage only
    let pct = if s.pairs_total > 0 {
        s.pairs_done as f64 / s.pairs_total as f64 * 100.0
    } else {
        0.0
    };
    let eta = match s.eta_us {
        Some(us) => format!("{:.0?}", std::time::Duration::from_micros(us)),
        None => "?".to_string(),
    };
    writeln!(
        out,
        "gnet-status/1: {} — {} ranks, round {}, elapsed {:.0?}",
        s.state,
        s.ranks,
        s.round_max,
        std::time::Duration::from_micros(s.elapsed_us),
    )?;
    writeln!(
        out,
        "pairs {}/{} ({pct:.1}%) at {:.0} pairs/s, ETA {eta}",
        s.pairs_done, s.pairs_total, s.pairs_per_s,
    )?;
    if !s.stragglers.is_empty() || !s.stragglers_seen.is_empty() {
        writeln!(
            out,
            "stragglers now {:?}, ever {:?}",
            s.stragglers, s.stragglers_seen
        )?;
    }
    writeln!(
        out,
        "{:>5} {:>9} {:>6} {:>10} {:>10} {:>10} {:>6} {:>6}",
        "rank", "state", "round", "pairs", "pairs/s", "beat_age", "beats", "queue"
    )?;
    for r in &s.per_rank {
        let state = if r.dead {
            "dead"
        } else if r.done {
            "done"
        } else if r.straggler {
            "straggler"
        } else if r.suspect {
            "suspect"
        } else {
            "running"
        };
        let age = match r.beat_age_us {
            Some(us) => format!("{:.0?}", std::time::Duration::from_micros(us)),
            None => "-".to_string(),
        };
        writeln!(
            out,
            "{:>5} {:>9} {:>6} {:>10} {:>10.0} {:>10} {:>6} {:>6}",
            r.rank, state, r.round, r.pairs, r.pairs_per_s, age, r.beats, r.queue_depth,
        )?;
    }
    Ok(())
}

/// `gnet status` — render a running (or finished) inference's live
/// telemetry as a one-screen summary.
///
/// The target is either the `IP:PORT` a coordinator announced with
/// `status listening on …` (scraped over HTTP) or the path of a
/// `--status-file` JSON document. Options: `--metrics` fetches the
/// Prometheus exposition instead of the status document (listener
/// targets only), `--json` prints the raw `gnet-status/1` document.
/// Every fetched document is validated against the pinned closed-world
/// schema first, so a drifted producer fails loudly here and in CI.
pub fn cmd_status(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let target = args.require("target")?.to_string();
    let metrics = args.flag("metrics");
    let json = args.flag("json");
    args.reject_unknown()?;
    if metrics && json {
        return fail("--metrics is the Prometheus text form; drop --json");
    }
    let is_addr = target.parse::<std::net::SocketAddr>().is_ok();
    if metrics && !is_addr {
        return fail(
            "--metrics scrapes the HTTP listener; a --status-file holds only the JSON document",
        );
    }
    if metrics {
        let body = http_get(&target, "/metrics")?;
        let samples = gnet_obs::validate_prometheus(&body).map_err(|e| CliError(e.to_string()))?;
        write!(out, "{body}")?;
        writeln!(out, "# {samples} samples, schema ok")?;
        return Ok(());
    }
    let body = if is_addr {
        http_get(&target, "/status")?
    } else {
        std::fs::read_to_string(&target)
            .map_err(|e| CliError(format!("cannot read {target}: {e}")))?
    };
    let summary = gnet_obs::validate_status_json(&body).map_err(|e| CliError(e.to_string()))?;
    if json {
        writeln!(out, "{body}")?;
    } else {
        render_status_summary(&summary, out)?;
    }
    Ok(())
}

fn load_edges(path: &str, genes: usize, names: Vec<String>) -> Result<GeneNetwork, CliError> {
    let file = File::open(path).map_err(|e| CliError(format!("cannot open {path}: {e}")))?;
    graph_io::read_edge_list(file, genes, names)
        .map_err(|e| CliError(format!("cannot read {path}: {e}")))
}

/// `gnet score` — precision/recall of an inferred edge list against a
/// ground-truth edge list.
///
/// Options: `--edges FILE` `--truth FILE` `--matrix FILE` (for gene names
/// and count).
pub fn cmd_score(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let edges_path = args.require("edges")?.to_string();
    let truth_path = args.require("truth")?.to_string();
    let matrix_path = args.require("matrix")?.to_string();
    args.reject_unknown()?;

    let matrix = load_matrix(&matrix_path)?;
    let names = matrix.gene_names().to_vec();
    let inferred = load_edges(&edges_path, matrix.genes(), names.clone())?;
    let truth_net = load_edges(&truth_path, matrix.genes(), names)?;
    let truth: Vec<(u32, u32)> = truth_net.edges().iter().map(|e| e.key()).collect();

    let score = recovery_score(&inferred, &truth);
    writeln!(out, "edges      {}", inferred.edge_count())?;
    writeln!(out, "truth      {}", truth.len())?;
    writeln!(out, "precision  {:.4}", score.precision())?;
    writeln!(out, "recall     {:.4}", score.recall())?;
    writeln!(out, "F1         {:.4}", score.f1())?;
    Ok(())
}

/// `gnet stats` — summary of an expression matrix.
pub fn cmd_stats(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.require("input")?.to_string();
    args.reject_unknown()?;
    let matrix = load_matrix(&input)?;
    writeln!(out, "genes    {}", matrix.genes())?;
    writeln!(out, "samples  {}", matrix.samples())?;
    writeln!(out, "bytes    {}", matrix.heap_bytes())?;
    let mut grand = gnet_expr::stats::summarize(matrix.gene(0));
    for g in 1..matrix.genes() {
        let s = gnet_expr::stats::summarize(matrix.gene(g));
        grand.min = grand.min.min(s.min);
        grand.max = grand.max.max(s.max);
    }
    writeln!(out, "range    [{:.4}, {:.4}]", grand.min, grand.max)?;
    let low_var = gnet_expr::stats::low_variance_genes(&matrix, 1e-9).len();
    writeln!(out, "constant genes (var < 1e-9): {low_var}")?;
    Ok(())
}

/// `gnet topology` — topology report of an inferred network.
///
/// Options: `--edges FILE` `--matrix FILE` (for gene names/count)
/// `[--hubs N]`.
pub fn cmd_topology(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    use gnet_graph::{analysis, connected_components};
    let edges_path = args.require("edges")?.to_string();
    let matrix_path = args.require("matrix")?.to_string();
    let hub_count = args.get_or("hubs", 10usize)?;
    args.reject_unknown()?;

    let matrix = load_matrix(&matrix_path)?;
    let net = load_edges(&edges_path, matrix.genes(), matrix.gene_names().to_vec())?;

    writeln!(out, "genes            {}", net.genes())?;
    writeln!(out, "edges            {}", net.edge_count())?;
    writeln!(out, "density          {:.6}", net.density())?;
    let comps = connected_components(&net);
    writeln!(
        out,
        "components       {} (largest: {})",
        comps.len(),
        comps[0].len()
    )?;
    match analysis::degree_assortativity(&net) {
        Some(r) => writeln!(out, "assortativity    {r:.4}")?,
        None => writeln!(out, "assortativity    undefined")?,
    }
    let core = analysis::core_numbers(&net);
    let max_core = core.iter().copied().max().unwrap_or(0);
    let in_max_core = core.iter().filter(|&&c| c == max_core).count();
    writeln!(out, "max k-core       {max_core} ({in_max_core} genes)")?;

    writeln!(out, "\ntop hubs:")?;
    for (g, d) in analysis::top_hubs(&net, hub_count) {
        writeln!(out, "  {:24} degree {d}", net.gene_names()[g as usize])?;
    }
    Ok(())
}

/// The lint names making up the unsafe-audit family, for
/// `gnet analyze --unsafe-audit` scoping.
const UNSAFE_AUDIT_LINTS: [&str; 3] = ["unsafe-justified", "send-sync-audit", "atomic-ordering"];

/// `gnet analyze` — workspace static analysis, the scheduler race
/// checker, and the ring-protocol model checker.
///
/// Options: `--root DIR` (workspace root, default `.`),
/// `--allowlist FILE` (vetted exceptions), `--json` (versioned
/// machine-readable document, schema `gnet-analyze/2`), `--deny` (exit
/// non-zero on any lint violation), `--deny-stale` (exit non-zero on
/// stale allowlist entries), `--unsafe-audit` (restrict lint findings
/// to the unsafe-audit family), `--concurrency` (deterministic
/// interleaving checker) with `--runs N` (default 25), `--protocol`
/// (explore the unmutated ring protocol), `--self-check` (prove the
/// checker catches four injected protocol mutations), `--full`
/// (nightly-depth protocol bounds instead of the quick PR bounds),
/// `--max-ranks N` (drop ring sizes above N from the bounds),
/// `--replay SPEC` (re-execute one schedule string and exit).
pub fn cmd_analyze(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    use gnet_analysis::report::{AnalyzeDocument, ConcurrencySection};
    use gnet_analysis::{check_determinism, protocol, run_lints, Allowlist, InterleaveConfig};

    let root = std::path::PathBuf::from(args.get("root").unwrap_or("."));
    let allowlist = match args.get("allowlist") {
        Some(path) => Allowlist::load(std::path::Path::new(path)).map_err(CliError)?,
        None => Allowlist::default(),
    };
    let json = args.flag("json");
    let deny = args.flag("deny");
    let deny_stale = args.flag("deny-stale");
    let unsafe_audit = args.flag("unsafe-audit");
    let concurrency = args.flag("concurrency");
    let runs = args.get_or("runs", 25usize)?;
    let do_protocol = args.flag("protocol");
    let do_self_check = args.flag("self-check");
    let full = args.flag("full");
    let max_ranks = args.get("max-ranks").map(str::to_string);
    let replay_spec = args.get("replay").map(str::to_string);
    if concurrency && runs == 0 {
        return fail("--runs must be at least 1: zero runs would verify nothing");
    }
    args.reject_unknown()?;

    // Replay is a standalone mode: parse the spec, re-execute it
    // deterministically, report what it exhibits.
    if let Some(spec) = replay_spec {
        let schedule = protocol::Schedule::parse(&spec).map_err(CliError)?;
        match protocol::replay(&schedule).map_err(CliError)? {
            Some(v) => writeln!(out, "replay: reproduced {} — {}", v.kind(), v.render())?,
            None => writeln!(out, "replay: schedule ran clean (no violation)")?,
        }
        return Ok(());
    }

    let mut report = run_lints(&root, &allowlist)
        .map_err(|e| CliError(format!("cannot scan {}: {e}", root.display())))?;
    if report.files_scanned == 0 {
        return fail(format!(
            "no sources under {} — is --root the workspace?",
            root.display()
        ));
    }
    if unsafe_audit {
        report
            .diagnostics
            .retain(|d| UNSAFE_AUDIT_LINTS.contains(&d.lint.as_str()));
        report
            .stale
            .retain(|d| d.lint == "*" || UNSAFE_AUDIT_LINTS.contains(&d.lint.as_str()));
    }

    let interleave = if concurrency {
        let cfg = InterleaveConfig {
            runs,
            ..InterleaveConfig::default()
        };
        Some(check_determinism(&cfg).map(|ok| (ok, cfg)))
    } else {
        None
    };

    let mut bounds = if full {
        protocol::Bounds::full()
    } else {
        protocol::Bounds::quick()
    };
    if let Some(cap) = max_ranks {
        let cap: usize = cap
            .parse()
            .map_err(|_| CliError(format!("bad --max-ranks {cap:?}")))?;
        bounds.ranks.retain(|&r| r <= cap);
        if bounds.ranks.is_empty() {
            return fail(format!("--max-ranks {cap} leaves no ring sizes to explore"));
        }
    }
    let protocol_report = do_protocol.then(|| protocol::check_protocol(&bounds));
    let self_check_report = do_self_check.then(|| protocol::self_check(&bounds));

    if json {
        let document = AnalyzeDocument {
            lints: report.clone(),
            concurrency: interleave.as_ref().map(|r| match r {
                Ok((o, _)) => ConcurrencySection::Passed {
                    runs: o.runs,
                    checks: o.checks,
                    pairs: o.pairs,
                },
                Err(e) => ConcurrencySection::Failed {
                    error: e.to_string(),
                },
            }),
            protocol: protocol_report.clone(),
            self_check: self_check_report.clone(),
        };
        writeln!(out, "{}", document.render_json())?;
    } else {
        write!(out, "{}", report.render_text())?;
        match &interleave {
            None => {}
            Some(Ok((o, cfg))) => writeln!(
                out,
                "concurrency: {} scheduler executions ({} runs × 4 policies × {:?} threads), \
                 {} pairs each, all bitwise identical to the single-threaded reference",
                o.checks, o.runs, cfg.threads, o.pairs
            )?,
            Some(Err(e)) => writeln!(out, "concurrency: FAILED — {e}")?,
        }
        if let Some(p) = &protocol_report {
            for e in &p.explorations {
                let tail = match &e.violation {
                    None if e.capped => {
                        format!(", capped ({} random walks clean)", e.walks_run)
                    }
                    None => String::new(),
                    Some(v) => format!(
                        "\n  VIOLATION ({}): {}\n  replay spec: {}",
                        v.violation.kind(),
                        v.violation.render(),
                        v.schedule.render()
                    ),
                };
                writeln!(
                    out,
                    "protocol: ranks={} — {} states, {} clean terminals{tail}",
                    e.ranks, e.states, e.terminals
                )?;
            }
            writeln!(
                out,
                "protocol: {}",
                if p.ok { "ok" } else { "VIOLATION FOUND" }
            )?;
        }
        if let Some(s) = &self_check_report {
            write!(out, "{}", protocol::self_check::render_text(s))?;
        }
    }

    if let Some(Err(e)) = interleave {
        return fail(e.to_string());
    }
    if let Some(p) = &protocol_report {
        if !p.ok {
            return fail("protocol model checker found a violation (replay spec above)");
        }
    }
    if let Some(s) = &self_check_report {
        if !s.ok {
            return fail("protocol self-check failed: a known mutation went undetected");
        }
    }
    if deny_stale && !report.stale.is_empty() {
        return fail(format!(
            "{} stale allowlist entr{} (--deny-stale)",
            report.stale.len(),
            if report.stale.len() == 1 { "y" } else { "ies" }
        ));
    }
    if deny && !report.is_clean() {
        return fail(format!(
            "{} static-analysis violation(s)",
            report.diagnostics.len()
        ));
    }
    Ok(())
}

/// `gnet conformance` — differential & metamorphic conformance harness.
///
/// Options: `--level quick|full` `--seed S` `--json` `--report FILE`
/// `--self-check` `--replay SPEC`.
///
/// Exit is nonzero whenever the report's overall `pass` verdict is
/// false, so CI can gate on the command directly; `--report` always
/// writes the JSON document first, pass or fail.
pub fn cmd_conformance(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    use gnet_conformance::{
        run_conformance, run_replay, run_self_check, ConformanceOptions, DatasetSpec, Level,
    };

    let opts = ConformanceOptions {
        seed: args.get_or("seed", ConformanceOptions::default().seed)?,
        level: match args.get("level") {
            None => Level::Quick,
            Some(s) => Level::from_slug(s)
                .ok_or_else(|| CliError(format!("unknown --level {s:?} (quick|full)")))?,
        },
        ..ConformanceOptions::default()
    };
    let json = args.flag("json");
    let self_check = args.flag("self-check");
    let replay = args.get("replay").map(str::to_owned);
    let report_path = args.get("report").map(str::to_owned);
    args.reject_unknown()?;
    if self_check && replay.is_some() {
        return fail("--self-check and --replay are mutually exclusive");
    }

    let report = match replay {
        Some(spec_text) => {
            let spec = DatasetSpec::parse(&spec_text)
                .map_err(|e| CliError(format!("bad --replay: {e}")))?;
            run_replay(&opts, spec)
        }
        None if self_check => run_self_check(&opts),
        None => run_conformance(&opts),
    };

    if let Some(path) = report_path {
        std::fs::write(&path, report.render_json())
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    }
    if json {
        writeln!(out, "{}", report.render_json())?;
    } else {
        write!(out, "{}", report.render_text())?;
    }
    if !report.pass {
        return fail("conformance violations found (see report)");
    }
    Ok(())
}

/// `gnet predict` — modeled platform runtimes for a problem size.
///
/// Options: `--genes` `--samples` `--q`.
pub fn cmd_predict(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let genes = args.get_or("genes", 15_575usize)?;
    let samples = args.get_or("samples", 3_137usize)?;
    let q = args.get_or("q", 30usize)?;
    args.reject_unknown()?;

    let workload = gnet_phi::WorkloadModel {
        genes,
        samples,
        q,
        ..gnet_phi::WorkloadModel::arabidopsis_headline()
    };
    writeln!(out, "workload: {genes} genes × {samples} samples, q = {q}")?;
    for machine in [
        gnet_phi::MachineModel::xeon_phi_5110p(),
        gnet_phi::MachineModel::xeon_e5_2670_2s(),
        gnet_phi::MachineModel::bluegene_l_1024(),
    ] {
        let rep = scenarios::simulate_scenario(
            &machine,
            &workload,
            scenarios::tile_size_for(genes, machine.max_threads()),
            machine.max_threads(),
            SchedulerPolicy::DynamicCounter,
        );
        writeln!(
            out,
            "{:55} {:9.2} min",
            machine.name,
            rep.wall_seconds / 60.0
        )?;
    }
    let offload = gnet_phi::OffloadModel::paper_system();
    let tiles = gnet_parallel::TileSpace::new(genes, scenarios::tile_size_for(genes, 244));
    let (share, wall) = offload.optimal_split(tiles.tiles(), &workload, 20);
    writeln!(
        out,
        "{:55} {:9.2} min  (device share {:.0}%)",
        "host + coprocessor offload (optimal split)",
        wall / 60.0,
        share * 100.0
    )?;
    Ok(())
}

/// `gnet trace-report` — offline analysis of recorded trace streams.
///
/// Options: exactly one of `--trace FILE` (single-process NDJSON
/// stream) or `--trace-dir DIR` (per-rank streams + manifest from a
/// distributed `gnet infer --ranks P --trace-dir DIR` run); `--chrome
/// FILE` additionally writes Chrome trace-event JSON (load in Perfetto
/// or `chrome://tracing`); `--flame FILE` writes folded flamegraph
/// stacks (`flamegraph.pl` / speedscope); `--no-calibrate` skips the
/// short live kernel measurement that fills the percent-of-modeled-peak
/// column.
pub fn cmd_trace_report(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    use gnet_obs::model::RunModel;
    use gnet_obs::report;

    let trace = args.get("trace").map(str::to_string);
    let dir = args.get("trace-dir").map(str::to_string);
    let chrome_path = args.get("chrome").map(str::to_string);
    let flame_path = args.get("flame").map(str::to_string);
    let no_calibrate = args.flag("no-calibrate");
    args.reject_unknown()?;

    let model = match (&trace, &dir) {
        (Some(f), None) => RunModel::from_file(std::path::Path::new(f)),
        (None, Some(d)) => RunModel::from_dir(std::path::Path::new(d)),
        _ => return fail("pass exactly one of --trace FILE or --trace-dir DIR"),
    }
    .map_err(|e| CliError(e.to_string()))?;

    let config = report::RunConfig::from_model(&model);
    let kernel_model = if no_calibrate {
        None
    } else {
        config.as_ref().map(report::calibrate_model)
    };
    let rep = report::analyze(&model, kernel_model);
    write!(out, "{}", rep.render_text())?;

    if let Some(path) = chrome_path {
        std::fs::write(&path, gnet_obs::chrome::to_chrome_json(&model))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote Chrome trace-event JSON to {path}")?;
    }
    if let Some(path) = flame_path {
        std::fs::write(&path, gnet_obs::flame::to_folded(&model))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote folded flamegraph stacks to {path}")?;
    }
    Ok(())
}

/// `gnet bench` — the seeded fixed-shape benchmark suite and its
/// regression gate.
///
/// Options: `--quick` (smaller shapes, 3 reps — the PR-CI mode),
/// `--reps K` (override repetitions), `--out FILE` (artifact path,
/// default `BENCH_7.json`), `--baseline FILE` (compare against a
/// committed artifact and exit nonzero on statistically significant
/// regressions), `--update-baseline` (with `--baseline`: overwrite the
/// baseline file with this run instead of gating against it — the
/// re-baselining path after a real speedup), `--inject-slowdown F`
/// (artificially slow the vector kernel by F× — the gate's self-test
/// hook).
///
/// When a candidate minimum undercuts the baseline by more than the
/// stale gate (`min < base × 0.5`), the command prints a warning: the
/// committed numbers no longer anchor the regression gate and should be
/// refreshed with `--update-baseline`.
pub fn cmd_bench(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    use gnet_obs::bench;

    let quick = args.flag("quick");
    let reps: Option<usize> = match args.get("reps") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| CliError(format!("bad --reps {raw:?}")))?,
        ),
        None => None,
    };
    let out_path = args.get("out").unwrap_or("BENCH_7.json").to_string();
    let baseline_path = args.get("baseline").map(str::to_string);
    let update_baseline = args.flag("update-baseline");
    let slowdown = args.get_or("inject-slowdown", 1.0f64)?;
    if !(1.0..=64.0).contains(&slowdown) {
        return fail("--inject-slowdown must be in [1, 64]");
    }
    if update_baseline && baseline_path.is_none() {
        return fail("--update-baseline needs --baseline FILE (the artifact to refresh)");
    }
    args.reject_unknown()?;

    let opts = bench::BenchOptions {
        quick,
        reps,
        slowdown,
    };
    writeln!(
        out,
        "gnet bench: {} mode, min of {} reps{}",
        if quick { "quick" } else { "full" },
        opts.effective_reps(),
        if slowdown > 1.0 {
            format!(", injected {slowdown}x vector-kernel slowdown")
        } else {
            String::new()
        }
    )?;
    let suite = bench::run_suite(&opts);
    for e in &suite.entries {
        writeln!(
            out,
            "  {:<24} min {:>12.1} {u}   median {:>12.1} {u}   mad {:>10.1} {u}",
            e.id,
            e.min_us,
            e.median_us,
            e.mad_us,
            u = e.unit
        )?;
    }
    std::fs::write(&out_path, bench::to_json(&suite))
        .map_err(|e| CliError(format!("cannot write {out_path}: {e}")))?;
    writeln!(out, "wrote {out_path}")?;

    if let Some(bp) = baseline_path {
        let text = std::fs::read_to_string(&bp)
            .map_err(|e| CliError(format!("cannot read baseline {bp}: {e}")))?;
        let base = bench::parse_suite(&text).map_err(|e| CliError(format!("{bp}: {e}")))?;
        if base.quick != suite.quick {
            // Quick and full shapes share ids but not workloads; a
            // quick candidate would "pass" against a full baseline by
            // construction.
            return fail(format!(
                "baseline {bp} is a {} suite but this run is {} — modes must match",
                if base.quick { "quick" } else { "full" },
                if suite.quick { "quick" } else { "full" },
            ));
        }
        for w in bench::improvements(&base, &suite) {
            writeln!(
                out,
                "WARNING {:<20} {:.1} us -> {:.1} us ({:.2}x faster): baseline is stale \
                 — refresh it with --update-baseline",
                w.id, w.base_min_us, w.cand_min_us, w.speedup
            )?;
        }
        for id in bench::ungated(&base, &suite) {
            writeln!(
                out,
                "WARNING {id:<20} has no entry in {bp}: not gated \
                 — add it with --update-baseline"
            )?;
        }
        if update_baseline {
            // Re-baselining: this run *becomes* the committed numbers, so
            // gating it against the numbers it replaces would be circular.
            std::fs::write(&bp, bench::to_json(&suite))
                .map_err(|e| CliError(format!("cannot update baseline {bp}: {e}")))?;
            writeln!(out, "updated baseline {bp} from this run")?;
            return Ok(());
        }
        let regressions = bench::compare(&base, &suite);
        if regressions.is_empty() {
            writeln!(out, "no significant regressions vs {bp}")?;
        } else {
            for r in &regressions {
                writeln!(
                    out,
                    "REGRESSION {:<20} {:.1} us -> {:.1} us ({:.2}x, gate {:.1} us)",
                    r.id, r.base_min_us, r.cand_min_us, r.ratio, r.threshold_us
                )?;
            }
            return fail(format!(
                "{} benchmark regression(s) vs {bp}",
                regressions.len()
            ));
        }
    }
    Ok(())
}

/// `gnet simd` — report which SIMD backend the kernel dispatcher picked.
///
/// Prints the detected-best backend, the active backend, every backend
/// this host supports, and — when `GNET_SIMD_FORCE` was set — whether
/// the request was honored.
///
/// Options: `--verify` — exit nonzero unless the dispatch is healthy:
/// an env force must have been honored, and without one the active
/// backend must be the detected best (a host that claims AVX-512 but
/// dispatches a fallback is exactly the silent inversion this command
/// exists to catch).
pub fn cmd_simd(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let verify = args.flag("verify");
    args.reject_unknown()?;

    let report = gnet_simd::dispatch_report();
    writeln!(out, "detected  {}", report.detected)?;
    writeln!(out, "active    {}", report.active)?;
    let supported = report
        .supported
        .iter()
        .map(|b| b.name())
        .collect::<Vec<_>>()
        .join(" ");
    writeln!(out, "supported {supported}")?;
    match &report.env_request {
        Some(req) => writeln!(
            out,
            "forced    GNET_SIMD_FORCE={req} ({})",
            if report.env_honored {
                "honored"
            } else {
                "NOT honored"
            }
        )?,
        None => writeln!(out, "forced    (GNET_SIMD_FORCE unset)")?,
    }

    if verify {
        if !report.env_honored {
            return fail(format!(
                "GNET_SIMD_FORCE={} was not honored — active backend is {}",
                report.env_request.as_deref().unwrap_or("?"),
                report.active
            ));
        }
        if report.env_request.is_none() && report.active != report.detected {
            return fail(format!(
                "dispatch selected {} but this host supports {} — the fast backend was \
                 silently skipped",
                report.active, report.detected
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ArgMap;

    fn argmap(tokens: &[&str]) -> ArgMap {
        ArgMap::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    /// Held by every test that runs the bench suite, so two suites never
    /// time their kernels while competing for the same cores.
    static BENCH_SUITE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn bench_suite_lock() -> std::sync::MutexGuard<'static, ()> {
        BENCH_SUITE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gnet_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generate_infer_score_roundtrip() {
        let dir = tmpdir("roundtrip");
        let matrix = dir.join("m.tsv");
        let truth = dir.join("t.tsv");
        let edges = dir.join("e.tsv");
        let mut sink = Vec::new();

        cmd_generate(
            &argmap(&[
                "--genes",
                "40",
                "--samples",
                "250",
                "--seed",
                "9",
                "--out",
                matrix.to_str().unwrap(),
                "--truth",
                truth.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        assert!(matrix.exists() && truth.exists());

        cmd_infer(
            &argmap(&[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "10",
                "--threads",
                "2",
                "--dpi",
                "0.05",
            ]),
            &mut sink,
        )
        .unwrap();
        assert!(edges.exists());

        let mut score_out = Vec::new();
        cmd_score(
            &argmap(&[
                "--edges",
                edges.to_str().unwrap(),
                "--truth",
                truth.to_str().unwrap(),
                "--matrix",
                matrix.to_str().unwrap(),
            ]),
            &mut score_out,
        )
        .unwrap();
        let text = String::from_utf8(score_out).unwrap();
        assert!(text.contains("precision"), "{text}");
        let recall_line = text.lines().find(|l| l.starts_with("recall")).unwrap();
        let recall: f64 = recall_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(recall > 0.2, "recall {recall} suspiciously low\n{text}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn infer_distributed_ranks() {
        let dir = tmpdir("ranks");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let mut sink = Vec::new();
        cmd_generate(
            &argmap(&[
                "--genes",
                "18",
                "--samples",
                "120",
                "--out",
                matrix.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        cmd_infer(
            &argmap(&[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "8",
                "--ranks",
                "3",
            ]),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("3 ranks"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_reports_topology() {
        let dir = tmpdir("analyze");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let mut sink = Vec::new();
        cmd_generate(
            &argmap(&[
                "--genes",
                "30",
                "--samples",
                "200",
                "--out",
                matrix.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        cmd_infer(
            &argmap(&[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "10",
            ]),
            &mut sink,
        )
        .unwrap();
        let mut report = Vec::new();
        cmd_topology(
            &argmap(&[
                "--edges",
                edges.to_str().unwrap(),
                "--matrix",
                matrix.to_str().unwrap(),
                "--hubs",
                "3",
            ]),
            &mut report,
        )
        .unwrap();
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("components"), "{text}");
        assert!(text.contains("top hubs"), "{text}");
        assert!(text.contains("max k-core"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Workspace root relative to this crate, for `cmd_analyze` tests.
    fn workspace_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap()
    }

    #[test]
    fn analyze_scans_the_workspace() {
        let mut out = Vec::new();
        cmd_analyze(
            &argmap(&["--root", workspace_root().to_str().unwrap(), "--deny"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("file(s) scanned"), "{text}");
        assert!(text.contains("0 violation(s)"), "{text}");
    }

    #[test]
    fn analyze_json_is_machine_readable_and_schema_pinned() {
        let mut out = Vec::new();
        cmd_analyze(
            &argmap(&["--root", workspace_root().to_str().unwrap(), "--json"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let expect = format!("{{\"schema\":\"{}\"", gnet_analysis::report::SCHEMA);
        assert!(text.starts_with(&expect), "{text}");
        assert!(text.contains("\"files_scanned\""), "{text}");
        assert!(text.contains("\"concurrency\":null"), "{text}");
        gnet_analysis::report::validate_json(text.trim()).expect("document validates");
    }

    #[test]
    fn analyze_unsafe_audit_and_deny_stale_run_clean_on_the_workspace() {
        let mut out = Vec::new();
        cmd_analyze(
            &argmap(&[
                "--root",
                workspace_root().to_str().unwrap(),
                "--unsafe-audit",
                "--deny",
                "--deny-stale",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("0 violation(s)"), "{text}");
        assert!(text.contains("0 stale entries"), "{text}");
    }

    #[test]
    fn analyze_protocol_explores_a_small_ring_clean() {
        let mut out = Vec::new();
        cmd_analyze(
            &argmap(&[
                "--root",
                workspace_root().to_str().unwrap(),
                "--protocol",
                "--max-ranks",
                "3",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("protocol: ranks=2"), "{text}");
        assert!(text.contains("protocol: ranks=3"), "{text}");
        assert!(text.contains("protocol: ok"), "{text}");
    }

    #[test]
    fn analyze_protocol_json_emits_the_protocol_section() {
        let mut out = Vec::new();
        cmd_analyze(
            &argmap(&[
                "--root",
                workspace_root().to_str().unwrap(),
                "--protocol",
                "--max-ranks",
                "2",
                "--json",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"protocol\":{\"ok\":true"), "{text}");
        gnet_analysis::report::validate_json(text.trim()).expect("document validates");
    }

    #[test]
    fn analyze_replay_rejects_malformed_and_impossible_specs() {
        let mut out = Vec::new();
        let err = cmd_analyze(&argmap(&["--replay", "not-a-spec"]), &mut out).unwrap_err();
        assert!(err.0.contains("key=value"), "{}", err.0);
        // Well-formed but impossible: rank 1 cannot deliver before
        // anything was sent.
        let spec = "ranks=2;crashes=0;timeouts=0;drops=0;dups=0;mutation=none;trace=d1";
        let err = cmd_analyze(&argmap(&["--replay", spec]), &mut out).unwrap_err();
        assert!(err.0.contains("not enabled"), "{}", err.0);
    }

    #[test]
    fn analyze_max_ranks_cannot_empty_the_bounds() {
        let mut out = Vec::new();
        let err = cmd_analyze(
            &argmap(&[
                "--root",
                workspace_root().to_str().unwrap(),
                "--protocol",
                "--max-ranks",
                "1",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert!(err.0.contains("no ring sizes"), "{}", err.0);
    }

    #[test]
    fn analyze_rejects_a_rootless_directory() {
        let dir = tmpdir("analyze_empty");
        let mut out = Vec::new();
        let err = cmd_analyze(&argmap(&["--root", dir.to_str().unwrap()]), &mut out).unwrap_err();
        assert!(
            err.0.contains("cannot scan") || err.0.contains("no sources"),
            "{}",
            err.0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn preprocessing_flags_run_end_to_end() {
        let dir = tmpdir("preproc");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let mut sink = Vec::new();
        cmd_generate(
            &argmap(&[
                "--genes",
                "24",
                "--samples",
                "120",
                "--batches",
                "4",
                "--batch-sd",
                "1.5",
                "--out",
                matrix.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        cmd_infer(
            &argmap(&[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "8",
                "--quantile-normalize",
                "--center-batches",
                "4",
            ]),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("quantile-normalized"), "{text}");
        assert!(text.contains("centered 4"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_reports_shape() {
        let dir = tmpdir("stats");
        let matrix = dir.join("m.tsv");
        let mut sink = Vec::new();
        cmd_generate(
            &argmap(&[
                "--genes",
                "12",
                "--samples",
                "30",
                "--out",
                matrix.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        let mut out = Vec::new();
        cmd_stats(&argmap(&["--input", matrix.to_str().unwrap()]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("genes    12"), "{text}");
        assert!(text.contains("samples  30"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn predict_prints_every_platform() {
        let mut out = Vec::new();
        cmd_predict(
            &argmap(&["--genes", "2048", "--samples", "1024", "--q", "10"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Phi"), "{text}");
        assert!(text.contains("Blue Gene"), "{text}");
        assert!(text.contains("offload"), "{text}");
    }

    #[test]
    fn unknown_option_is_an_error() {
        let mut out = Vec::new();
        let err = cmd_predict(&argmap(&["--bogus", "7"]), &mut out).unwrap_err();
        assert!(err.0.contains("--bogus"));
    }

    #[test]
    fn simd_reports_dispatch_and_verifies_clean() {
        // No GNET_SIMD_FORCE in the test environment, so active must be
        // the detected best and --verify must pass.
        let mut out = Vec::new();
        cmd_simd(&argmap(&["--verify"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("detected"), "{text}");
        assert!(text.contains("active"), "{text}");
        assert!(text.contains("supported"), "{text}");
        // Every host supports at least the emulated backend.
        assert!(text.contains("emulated"), "{text}");
    }

    #[test]
    fn bench_update_baseline_needs_a_baseline() {
        let mut out = Vec::new();
        let err = cmd_bench(&argmap(&["--update-baseline", "--quick"]), &mut out).unwrap_err();
        assert!(err.0.contains("--baseline"), "{}", err.0);
    }

    #[test]
    fn bad_kernel_name_rejected() {
        let args = argmap(&["--input", "x", "--output", "y", "--kernel", "gpu"]);
        let mut out = Vec::new();
        let err = cmd_infer(&args, &mut out).unwrap_err();
        assert!(err.0.contains("gpu"));
    }

    #[test]
    fn infer_writes_trace_and_metrics_files() {
        let dir = tmpdir("trace");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let trace = dir.join("run.ndjson");
        let metrics = dir.join("run.metrics.json");
        let mut sink = Vec::new();
        cmd_generate(
            &argmap(&[
                "--genes",
                "20",
                "--samples",
                "150",
                "--out",
                matrix.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        cmd_infer(
            &argmap(&[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "8",
                "--threads",
                "2",
                "--tile",
                "5",
                "--trace",
                trace.to_str().unwrap(),
                "--metrics",
                metrics.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("wrote trace events"), "{text}");
        assert!(text.contains("wrote metrics"), "{text}");

        let ndjson = std::fs::read_to_string(&trace).unwrap();
        assert!(ndjson.lines().count() > 4, "{ndjson}");
        assert!(ndjson.contains("\"type\":\"meta\""));
        assert!(ndjson.contains("\"name\":\"stage.mi\""));
        assert!(ndjson.contains("\"name\":\"scheduler.tile_us\""));
        assert!(ndjson.contains("\"name\":\"mi.pairs\""));

        let summary = std::fs::read_to_string(&metrics).unwrap();
        assert!(summary.contains("\"format\":\"gnet-trace-metrics\""));
        assert!(summary.contains("\"mi.pairs\":190"), "{summary}"); // C(20,2)
        assert!(summary.contains("\"version\":1"), "{summary}");
        assert!(summary.trim_end().ends_with('}'), "{summary}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_flags_rejected_with_ranks() {
        let args = argmap(&[
            "--input",
            "x",
            "--output",
            "y",
            "--ranks",
            "2",
            "--progress",
        ]);
        let mut out = Vec::new();
        let err = cmd_infer(&args, &mut out).unwrap_err();
        assert!(err.0.contains("--ranks"), "{}", err.0);
    }

    #[test]
    fn checkpoint_crash_then_resume_roundtrip() {
        let dir = tmpdir("ckpt");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let ckpt = dir.join("ckpt");
        let mut sink = Vec::new();
        cmd_generate(
            &argmap(&[
                "--genes",
                "24",
                "--samples",
                "120",
                "--out",
                matrix.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        // StaticCyclic + 1 thread: deterministic merge order, so the
        // resumed run must reproduce the uninterrupted one exactly.
        let common = [
            "--input",
            matrix.to_str().unwrap(),
            "--output",
            edges.to_str().unwrap(),
            "--q",
            "8",
            "--threads",
            "1",
            "--scheduler",
            "static-cyclic",
            "--tile",
            "5",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "2",
        ];
        let mut crash_args: Vec<&str> = common.to_vec();
        crash_args.extend(["--fault-plan", "seed=1;chunk-crash(boundary=2)"]);
        let err = cmd_infer(&argmap(&crash_args), &mut sink).unwrap_err();
        assert!(err.0.contains("--resume"), "{}", err.0);
        assert!(ckpt.join("gnet.ckpt").exists(), "checkpoint must survive");

        let mut resume_args: Vec<&str> = common.to_vec();
        resume_args.push("--resume");
        let mut out = Vec::new();
        cmd_infer(&argmap(&resume_args), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("checkpointed every 2 tiles"), "{text}");
        assert!(edges.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_flags_need_a_directory() {
        let args = argmap(&["--input", "x", "--output", "y", "--resume"]);
        let mut out = Vec::new();
        let err = cmd_infer(&args, &mut out).unwrap_err();
        assert!(err.0.contains("--checkpoint-dir"), "{}", err.0);
    }

    #[test]
    fn checkpoints_rejected_with_ranks() {
        let args = argmap(&[
            "--input",
            "x",
            "--output",
            "y",
            "--ranks",
            "2",
            "--checkpoint-dir",
            "d",
        ]);
        let mut out = Vec::new();
        let err = cmd_infer(&args, &mut out).unwrap_err();
        assert!(err.0.contains("--ranks"), "{}", err.0);
    }

    #[test]
    fn bad_fault_plan_is_a_typed_cli_error() {
        let args = argmap(&["--input", "x", "--output", "y", "--fault-plan", "nonsense"]);
        let mut out = Vec::new();
        let err = cmd_infer(&args, &mut out).unwrap_err();
        assert!(err.0.contains("--fault-plan"), "{}", err.0);
    }

    #[test]
    fn distributed_rank_crash_recovers_end_to_end() {
        let dir = tmpdir("rank_crash");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let edges_ok = dir.join("e_ok.tsv");
        let mut sink = Vec::new();
        cmd_generate(
            &argmap(&[
                "--genes",
                "16",
                "--samples",
                "120",
                "--out",
                matrix.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        cmd_infer(
            &argmap(&[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges_ok.to_str().unwrap(),
                "--q",
                "8",
                "--ranks",
                "4",
            ]),
            &mut sink,
        )
        .unwrap();
        let mut out = Vec::new();
        cmd_infer(
            &argmap(&[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "8",
                "--ranks",
                "4",
                "--fault-plan",
                "seed=1;crash(rank=2,round=1)",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("recovered from 1 lost rank"), "{text}");
        let a = std::fs::read_to_string(&edges).unwrap();
        let b = std::fs::read_to_string(&edges_ok).unwrap();
        assert_eq!(a, b, "recovered run must emit the same edge list");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coordinator_crash_plan_is_a_clean_error() {
        let dir = tmpdir("rank0_crash");
        let matrix = dir.join("m.tsv");
        let mut sink = Vec::new();
        cmd_generate(
            &argmap(&[
                "--genes",
                "12",
                "--samples",
                "100",
                "--out",
                matrix.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        let err = cmd_infer(
            &argmap(&[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                dir.join("e.tsv").to_str().unwrap(),
                "--q",
                "8",
                "--ranks",
                "3",
                "--fault-plan",
                "seed=1;crash(rank=0,round=1)",
            ]),
            &mut sink,
        )
        .unwrap_err();
        assert!(err.0.contains("rank 0"), "{}", err.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_dir_requires_ranks() {
        let args = argmap(&["--input", "x", "--output", "y", "--trace-dir", "d"]);
        let mut out = Vec::new();
        let err = cmd_infer(&args, &mut out).unwrap_err();
        assert!(err.0.contains("--ranks"), "{}", err.0);
    }

    #[test]
    fn distributed_trace_dir_feeds_trace_report() {
        let dir = tmpdir("trace_report");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let traces = dir.join("traces");
        let chrome = dir.join("run.chrome.json");
        let flame = dir.join("run.folded");
        let mut sink = Vec::new();
        cmd_generate(
            &argmap(&[
                "--genes",
                "16",
                "--samples",
                "120",
                "--out",
                matrix.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        cmd_infer(
            &argmap(&[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "8",
                "--ranks",
                "4",
                "--trace-dir",
                traces.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("per-rank trace streams"), "{text}");
        assert!(traces.join("manifest.json").exists());
        assert!(traces.join("rank-3.ndjson").exists());

        let mut report = Vec::new();
        cmd_trace_report(
            &argmap(&[
                "--trace-dir",
                traces.to_str().unwrap(),
                "--chrome",
                chrome.to_str().unwrap(),
                "--flame",
                flame.to_str().unwrap(),
                "--no-calibrate",
            ]),
            &mut report,
        )
        .unwrap();
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("per-rank load"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("perf attribution"), "{text}");
        assert!(chrome.exists() && flame.exists());
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        assert!(
            chrome_text.starts_with("{\"traceEvents\":["),
            "{chrome_text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_report_reads_single_process_streams_too() {
        let dir = tmpdir("trace_report_single");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let trace = dir.join("run.ndjson");
        let mut sink = Vec::new();
        cmd_generate(
            &argmap(&[
                "--genes",
                "14",
                "--samples",
                "100",
                "--out",
                matrix.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        cmd_infer(
            &argmap(&[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "6",
                "--trace",
                trace.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        let mut report = Vec::new();
        cmd_trace_report(
            &argmap(&["--trace", trace.to_str().unwrap(), "--no-calibrate"]),
            &mut report,
        )
        .unwrap();
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("stage.mi"), "{text}");
        assert!(text.contains("run:"), "run.config line must render: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_report_needs_exactly_one_source() {
        let mut out = Vec::new();
        let err = cmd_trace_report(&argmap(&[]), &mut out).unwrap_err();
        assert!(err.0.contains("exactly one"), "{}", err.0);
        let err =
            cmd_trace_report(&argmap(&["--trace", "a", "--trace-dir", "b"]), &mut out).unwrap_err();
        assert!(err.0.contains("exactly one"), "{}", err.0);
    }

    #[test]
    fn bench_writes_artifact_and_gates_on_baseline() {
        // Two runs' wall-clock timings on a shared machine may differ by
        // any factor, so the baseline plumbing is exercised on the
        // suite's counted-work entries (`unit: "pairs"`), which repeat
        // exactly. The gate arithmetic itself is pinned by
        // `gnet_obs::bench`'s own tests.
        use gnet_obs::bench;
        let _suite = bench_suite_lock();
        let dir = tmpdir("bench");
        let artifact = dir.join("BENCH_7.json");
        let baseline = dir.join("BENCH_7.base.json");
        let candidate = dir.join("BENCH_7.cand.json");
        let mut out = Vec::new();
        cmd_bench(
            &argmap(&[
                "--quick",
                "--reps",
                "1",
                "--out",
                artifact.to_str().unwrap(),
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("kernel.vector"), "{text}");
        assert!(text.contains("ring.4"), "{text}");
        let run = bench::parse_suite(&std::fs::read_to_string(&artifact).unwrap()).unwrap();
        let counted: Vec<bench::BenchEntry> = run
            .entries
            .into_iter()
            .filter(|e| e.unit == "pairs")
            .collect();
        assert!(!counted.is_empty(), "the suite has counted-work entries");
        let write_baseline = |entries: Vec<bench::BenchEntry>| {
            let suite = bench::BenchSuite {
                quick: true,
                entries,
            };
            std::fs::write(&baseline, bench::to_json(&suite)).unwrap();
        };
        let gate = || {
            let mut out = Vec::new();
            let res = cmd_bench(
                &argmap(&[
                    "--quick",
                    "--reps",
                    "1",
                    "--out",
                    candidate.to_str().unwrap(),
                    "--baseline",
                    baseline.to_str().unwrap(),
                ]),
                &mut out,
            );
            (res, String::from_utf8(out).unwrap())
        };

        // The same work as the baseline: the gate passes.
        write_baseline(counted.clone());
        let (res, text) = gate();
        res.unwrap();
        assert!(text.contains("no significant regressions"), "{text}");
        // The timed ids the counted-only baseline lacks are named.
        assert!(
            text.lines()
                .any(|l| l.starts_with("WARNING kernel.vector ") && l.contains("not gated")),
            "{text}"
        );

        // A baseline recording half the work: the gate trips on it.
        write_baseline(
            counted
                .into_iter()
                .map(|mut e| {
                    e.values_us.iter_mut().for_each(|v| *v /= 2.0);
                    e.min_us /= 2.0;
                    e.median_us /= 2.0;
                    e
                })
                .collect(),
        );
        let (res, text) = gate();
        assert!(res.unwrap_err().0.contains("regression"), "{text}");
        assert!(
            text.contains("REGRESSION update.gene_append.pairs"),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_gate_trips_on_injected_vector_slowdown() {
        let _suite = bench_suite_lock();
        let dir = tmpdir("bench_slow");
        let artifact = dir.join("BENCH_7.json");
        let candidate = dir.join("BENCH_7.cand.json");
        let mut out = Vec::new();
        cmd_bench(
            &argmap(&[
                "--quick",
                "--reps",
                "1",
                "--out",
                artifact.to_str().unwrap(),
            ]),
            &mut out,
        )
        .unwrap();
        let mut out = Vec::new();
        let err = cmd_bench(
            &argmap(&[
                "--quick",
                "--reps",
                "1",
                "--out",
                candidate.to_str().unwrap(),
                "--baseline",
                artifact.to_str().unwrap(),
                "--inject-slowdown",
                "3",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert!(err.0.contains("regression"), "{}", err.0);
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("REGRESSION kernel.vector"),
            "the vector kernel must be the flagged series: {text}"
        );
        // The scalar series is the control: the injection adds no work
        // to it. Checked on the plumbing, not on a reps-1 timing of it,
        // which a loaded machine can push past the gate by itself.
        assert!(gnet_obs::bench::slowdown_injected(
            MiKernel::VectorDense,
            3.0
        ));
        assert!(!gnet_obs::bench::slowdown_injected(
            MiKernel::ScalarSparse,
            3.0
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_rejects_mode_mismatched_baseline() {
        let _suite = bench_suite_lock();
        let dir = tmpdir("bench_mode");
        let baseline = dir.join("full.json");
        // A minimal *full* baseline; the candidate runs --quick.
        std::fs::write(
            &baseline,
            "{\n  \"format\": \"gnet-bench\",\n  \"version\": 1,\n  \"issue\": 5,\n  \
             \"quick\": false,\n  \"entries\": []\n}",
        )
        .unwrap();
        let mut out = Vec::new();
        let err = cmd_bench(
            &argmap(&[
                "--quick",
                "--reps",
                "1",
                "--out",
                dir.join("cand.json").to_str().unwrap(),
                "--baseline",
                baseline.to_str().unwrap(),
            ]),
            &mut out,
        )
        .unwrap_err();
        assert!(err.0.contains("modes must match"), "{}", err.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_rejects_bad_slowdown() {
        let mut out = Vec::new();
        let err = cmd_bench(&argmap(&["--inject-slowdown", "0.5"]), &mut out).unwrap_err();
        assert!(err.0.contains("inject-slowdown"), "{}", err.0);
    }

    #[test]
    fn early_exit_flag_switches_strategy() {
        let args = argmap(&["--early-exit", "--q", "5"]);
        let cfg = config_from_args(&args).unwrap();
        assert_eq!(cfg.null_strategy, NullStrategy::EarlyExit);
        assert_eq!(cfg.permutations, 5);
    }

    /// Write `matrix` as a TSV the commands can reload.
    fn write_matrix(matrix: &ExpressionMatrix, path: &std::path::Path) {
        let f = std::fs::File::create(path).unwrap();
        expr_io::write_tsv(matrix, BufWriter::new(f)).unwrap();
    }

    /// Split a synthetic dataset three ways: the full TSV, a gene-prefix
    /// TSV, and the appended-genes TSV.
    fn update_fixture(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
        let (full, _) =
            gnet_expr::synth::coupled_pairs(3, 60, gnet_expr::synth::Coupling::Linear(0.9), 5);
        let old = full.select_genes(&[0, 1, 2, 3]);
        let append = full.select_genes(&[4, 5]);
        write_matrix(&full, &dir.join("full.tsv"));
        write_matrix(&old, &dir.join("old.tsv"));
        write_matrix(&append, &dir.join("append.tsv"));
        (dir.join("old.tsv"), dir.join("append.tsv"))
    }

    #[test]
    fn update_reproduces_the_batch_edge_list_byte_for_byte() {
        let dir = tmpdir("update_equiv");
        let (old_tsv, append_tsv) = update_fixture(&dir);
        let state_dir = dir.join("state");
        let mut sink = Vec::new();

        let base = ["--q", "8", "--threads", "1", "--seed", "7"];
        let old_edges = dir.join("old_edges.tsv");
        let mut infer_args = vec![
            "--input",
            old_tsv.to_str().unwrap(),
            "--output",
            old_edges.to_str().unwrap(),
            "--save-state",
            state_dir.to_str().unwrap(),
        ];
        infer_args.extend_from_slice(&base);
        cmd_infer(&argmap(&infer_args), &mut sink).unwrap();

        cmd_update(
            &argmap(&[
                "--state",
                state_dir.to_str().unwrap(),
                "--append",
                append_tsv.to_str().unwrap(),
                "--output",
                dir.join("updated_edges.tsv").to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();

        // Batch over the concatenated dataset, through the same save-state
        // path, must yield byte-identical edges.
        let full_tsv = dir.join("full.tsv");
        let batch_edges = dir.join("batch_edges.tsv");
        let batch_state = dir.join("batch_state");
        let mut batch_args = vec![
            "--input",
            full_tsv.to_str().unwrap(),
            "--output",
            batch_edges.to_str().unwrap(),
            "--save-state",
            batch_state.to_str().unwrap(),
        ];
        batch_args.extend_from_slice(&base);
        cmd_infer(&argmap(&batch_args), &mut sink).unwrap();

        let updated = std::fs::read(dir.join("updated_edges.tsv")).unwrap();
        let batch = std::fs::read(dir.join("batch_edges.tsv")).unwrap();
        assert!(!updated.is_empty());
        assert_eq!(updated, batch, "incremental and batch edge lists differ");

        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("appended 2 gene(s)"), "{text}");
        assert!(text.contains("scanned 9 pairs"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_boundary_kill_resumes_to_the_same_bytes() {
        let dir = tmpdir("update_kill");
        let (old_tsv, append_tsv) = update_fixture(&dir);
        let state_dir = dir.join("state");
        let mut sink = Vec::new();

        cmd_infer(
            &argmap(&[
                "--input",
                old_tsv.to_str().unwrap(),
                "--output",
                dir.join("old_edges.tsv").to_str().unwrap(),
                "--save-state",
                state_dir.to_str().unwrap(),
                "--q",
                "8",
                "--threads",
                "1",
            ]),
            &mut sink,
        )
        .unwrap();
        let bundle = state_dir.join(gnet_core::state::STATE_FILE);
        let before = std::fs::read(&bundle).unwrap();

        let err = cmd_update(
            &argmap(&[
                "--state",
                state_dir.to_str().unwrap(),
                "--append",
                append_tsv.to_str().unwrap(),
                "--output",
                dir.join("updated_edges.tsv").to_str().unwrap(),
                "--checkpoint-every",
                "2",
                "--fault-plan",
                "seed=1;update-crash(boundary=2)",
            ]),
            &mut sink,
        )
        .unwrap_err();
        assert!(err.0.contains("--resume"), "{}", err.0);
        // The kill left the bundle untouched and the progress durable.
        assert_eq!(std::fs::read(&bundle).unwrap(), before);
        assert!(state_dir.join(gnet_core::state::PROGRESS_FILE).exists());

        cmd_update(
            &argmap(&[
                "--state",
                state_dir.to_str().unwrap(),
                "--append",
                append_tsv.to_str().unwrap(),
                "--output",
                dir.join("resumed_edges.tsv").to_str().unwrap(),
                "--checkpoint-every",
                "2",
                "--resume",
            ]),
            &mut sink,
        )
        .unwrap();

        // A clean, uninterrupted update in a copied state dir must produce
        // the same bundle and edges.
        let clean_dir = dir.join("clean_state");
        std::fs::create_dir_all(&clean_dir).unwrap();
        std::fs::write(clean_dir.join(gnet_core::state::STATE_FILE), &before).unwrap();
        cmd_update(
            &argmap(&[
                "--state",
                clean_dir.to_str().unwrap(),
                "--append",
                append_tsv.to_str().unwrap(),
                "--output",
                dir.join("clean_edges.tsv").to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        assert_eq!(
            std::fs::read(dir.join("resumed_edges.tsv")).unwrap(),
            std::fs::read(dir.join("clean_edges.tsv")).unwrap()
        );
        assert_eq!(
            std::fs::read(&bundle).unwrap(),
            std::fs::read(clean_dir.join(gnet_core::state::STATE_FILE)).unwrap(),
            "resumed and clean bundles must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_state_rejects_incompatible_modes() {
        let dir = tmpdir("save_state_reject");
        let (old_tsv, _) = update_fixture(&dir);
        let mut sink = Vec::new();
        let out_tsv = dir.join("e.tsv");
        let s_dir = dir.join("s");
        for extra in [&["--early-exit"][..], &["--ranks", "2"][..]] {
            let mut args = vec![
                "--input",
                old_tsv.to_str().unwrap(),
                "--output",
                out_tsv.to_str().unwrap(),
                "--save-state",
                s_dir.to_str().unwrap(),
            ];
            args.extend_from_slice(extra);
            let err = cmd_infer(&argmap(&args), &mut sink).unwrap_err();
            assert!(err.0.contains("--save-state"), "{}", err.0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_rejects_bad_mode_and_shape() {
        let dir = tmpdir("update_reject");
        let (old_tsv, append_tsv) = update_fixture(&dir);
        let state_dir = dir.join("state");
        let mut sink = Vec::new();
        cmd_infer(
            &argmap(&[
                "--input",
                old_tsv.to_str().unwrap(),
                "--output",
                dir.join("e.tsv").to_str().unwrap(),
                "--save-state",
                state_dir.to_str().unwrap(),
                "--q",
                "6",
            ]),
            &mut sink,
        )
        .unwrap();

        let err = cmd_update(
            &argmap(&[
                "--state",
                state_dir.to_str().unwrap(),
                "--append",
                append_tsv.to_str().unwrap(),
                "--output",
                dir.join("u.tsv").to_str().unwrap(),
                "--mode",
                "sideways",
            ]),
            &mut sink,
        )
        .unwrap_err();
        assert!(err.0.contains("genes|samples"), "{}", err.0);

        // A gene-shaped append forced into sample mode is a shape error.
        let err = cmd_update(
            &argmap(&[
                "--state",
                state_dir.to_str().unwrap(),
                "--append",
                append_tsv.to_str().unwrap(),
                "--output",
                dir.join("u.tsv").to_str().unwrap(),
                "--mode",
                "samples",
            ]),
            &mut sink,
        )
        .unwrap_err();
        assert!(err.0.contains("genes"), "{}", err.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_flags_need_the_distributed_path() {
        let mut sink = Vec::new();
        let err = cmd_infer(
            &argmap(&[
                "--input",
                "m.tsv",
                "--output",
                "e.tsv",
                "--status-addr",
                "127.0.0.1:0",
            ]),
            &mut sink,
        )
        .unwrap_err();
        assert!(err.0.contains("--ranks"), "{}", err.0);

        let err = cmd_infer(
            &argmap(&[
                "--input",
                "m.tsv",
                "--output",
                "e.tsv",
                "--status-interval-ms",
                "50",
            ]),
            &mut sink,
        )
        .unwrap_err();
        assert!(err.0.contains("--status-addr"), "{}", err.0);
    }

    /// End-to-end live telemetry through the CLI: a 2-rank in-process
    /// run maintaining a --status-file, `gnet status` on the final
    /// snapshot, and the byte-identity invariant vs a telemetry-off run.
    #[test]
    fn live_status_file_flows_into_gnet_status() {
        let dir = tmpdir("live_status");
        let matrix = dir.join("m.tsv");
        let edges_live = dir.join("live.tsv");
        let edges_off = dir.join("off.tsv");
        let status = dir.join("status.json");
        let mut sink = Vec::new();
        cmd_generate(
            &argmap(&[
                "--genes",
                "24",
                "--samples",
                "120",
                "--seed",
                "3",
                "--out",
                matrix.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        for (out_path, telem) in [(&edges_live, true), (&edges_off, false)] {
            let mut tokens = vec![
                "--input".to_string(),
                matrix.to_str().unwrap().to_string(),
                "--output".to_string(),
                out_path.to_str().unwrap().to_string(),
                "--q".to_string(),
                "8".to_string(),
                "--ranks".to_string(),
                "2".to_string(),
            ];
            if telem {
                tokens.extend([
                    "--status-file".to_string(),
                    status.to_str().unwrap().to_string(),
                    "--status-interval-ms".to_string(),
                    "5".to_string(),
                ]);
            }
            cmd_infer(&ArgMap::parse(tokens).unwrap(), &mut sink).unwrap();
        }
        assert_eq!(
            std::fs::read(&edges_live).unwrap(),
            std::fs::read(&edges_off).unwrap(),
            "telemetry must never perturb the edge set"
        );

        let mut status_out = Vec::new();
        cmd_status(
            &argmap(&["--target", status.to_str().unwrap()]),
            &mut status_out,
        )
        .unwrap();
        let text = String::from_utf8(status_out).unwrap();
        assert!(text.contains("gnet-status/1: done"), "{text}");
        assert!(text.lines().count() >= 5, "per-rank table present: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A traced in-process ring with a status file gets both: the
    /// per-rank streams + manifest, and rank beats in the status
    /// snapshot from every rank.
    #[test]
    fn traced_ring_also_feeds_the_status_file() {
        let dir = tmpdir("traced_live");
        let matrix = dir.join("m.tsv");
        let edges = dir.join("e.tsv");
        let traces = dir.join("traces");
        let status = dir.join("status.json");
        let mut sink = Vec::new();
        cmd_generate(
            &argmap(&[
                "--genes",
                "24",
                "--samples",
                "120",
                "--seed",
                "5",
                "--out",
                matrix.to_str().unwrap(),
            ]),
            &mut sink,
        )
        .unwrap();
        cmd_infer(
            &argmap(&[
                "--input",
                matrix.to_str().unwrap(),
                "--output",
                edges.to_str().unwrap(),
                "--q",
                "8",
                "--ranks",
                "3",
                "--trace-dir",
                traces.to_str().unwrap(),
                "--status-file",
                status.to_str().unwrap(),
                "--status-interval-ms",
                "5",
            ]),
            &mut sink,
        )
        .unwrap();
        let manifest = std::fs::read_to_string(traces.join("manifest.json")).unwrap();
        let doc = std::fs::read_to_string(&status).unwrap();
        assert!(doc.contains("\"state\":\"done\""), "{doc}");
        for r in 0..3 {
            assert!(
                manifest.contains(&format!("\"rank-{r}.ndjson\"")),
                "{manifest}"
            );
            assert!(traces.join(format!("rank-{r}.ndjson")).exists());
            // This rank's entry of the `per_rank` table.
            let entry = doc
                .split(&format!("{{\"rank\":{r},"))
                .nth(1)
                .and_then(|rest| rest.split("{\"rank\":").next())
                .unwrap_or_else(|| panic!("rank {r} missing from the status: {doc}"));
            assert!(entry.contains("\"beats\":"), "{entry}");
            assert!(
                !entry.contains("\"beats\":0,"),
                "rank {r} never beat: {entry}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
