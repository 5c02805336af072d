//! Distributed TINGe-style network construction over the simulated
//! cluster.
//!
//! Genes are block-distributed over `P` ranks. Every rank prepares its
//! own block (rank transform + B-spline weights) and computes the pairs
//! *within* it; the cross-block pairs are covered by rotating blocks
//! around a ring for `⌊P/2⌋` rounds — after round `d` rank `r` holds
//! block `(r − d) mod P`. The work is cut into [`WorkUnit`]s, each with
//! exactly one *owner* ([`crate::protocol::unit_owner`]): a block pair
//! belongs to the rank that meets the partner block in the earlier
//! round, except that an antipodal pair of an even ring — met by both
//! of its ranks in round `P/2` — is split by the higher block's genes,
//! the lower rank taking the first half and the higher rank the rest.
//! Every gene pair is computed exactly once across the cluster, and
//! every rank computes the same number of them (up to uneven block
//! sizes). Pooled-null moments and candidate edges are then collected
//! on rank 0, which applies the global threshold — the same statistics
//! as the shared-memory pipeline.
//!
//! A rank evaluates each of its work units with the shared-memory
//! pipeline's pair loop, [`gnet_core::pipeline::process_tile`]: the unit
//! (x block × y block or half, or the diagonal triangle) is cut into
//! tiles of `config.resolved_tile_size` genes — the paper's L2 rule, a
//! tile's 2·T weight matrices fit in cache — and each tile expands its
//! dense y columns once. The ring has no pair loop of its own.
//!
//! This is the structure of the original TINGe MPI implementation (the
//! cluster baseline the paper compares against), realized over the
//! in-process fabric of [`crate::comm`] or loopback TCP.
//!
//! ## Entry points
//!
//! [`infer_network_distributed_with`] is the one in-process driver: a
//! [`DistributedOptions`] value picks the transport ([`RingTransport`]),
//! fault injector, recorder, peer timeout, trace directory and live
//! plane, in any combination. [`infer_network_distributed`] (channels)
//! and [`infer_network_distributed_tcp`] (loopback TCP) are its
//! fault-free conveniences. Every driver — these and the multi-process
//! coordinator and worker of [`crate::process`] — sets each rank up the
//! same way (its recorder, live duty, TCP counters and trace stream).
//!
//! ## Failure awareness
//!
//! The driver survives the loss of any non-coordinator rank, with the
//! same edge set as the fault-free run (degraded wall time only):
//!
//! * **Self-healing ring.** Every frame carries a tag and round number,
//!   and every ring receive is bounded by a timeout. When a rank's
//!   predecessor dies (or a frame is dropped/late), the rank
//!   *reconstructs* the block it expected — block `(r − d) mod P` —
//!   directly from the shared expression matrix and forwards it as its
//!   own travelling block, so only the immediate successor pays the
//!   detection latency and the ring stays whole downstream.
//! * **Census + redistribution.** Rank 0 collects per-rank results with
//!   bounded receives; ranks that never report are presumed dead. All
//!   work units owned by dead ranks — a dead rank's half of an antipodal
//!   pair alone — are redistributed round-robin over the survivors
//!   (rank 0 included), recomputed from scratch in the same canonical
//!   orientation, and merged as *supplements*. A rank
//!   falsely presumed dead (its results frame was dropped) receives an
//!   empty assignment and terminates; a survivor whose supplement never
//!   arrives has its share recomputed by rank 0 — the ultimate backstop.
//! * **Coordinator loss is job loss.** A fault plan that kills rank 0 is
//!   rejected up front with [`ClusterError::CoordinatorCrash`] (MPI
//!   semantics: the job cannot outlive its root).
//!
//! In a fault-free run the recovery protocol is pure bookkeeping: every
//! assignment is empty, merging empty supplements is an exact no-op, and
//! results merge in rank order.

use crate::codec::{decode_block, encode_block, GeneBlock};
use crate::comm::{run_ranks_on, Fabric, RecvTimeoutError};
use crate::live::{live_mark_dead, live_tick, BeatState, LiveDuty, TelemetryPlane};
use crate::protocol::{
    block_range, Effect, Event as ProtoEvent, Frame as ProtoFrame, Half, Mutation, Phase,
    RankMachine, Wait, WorkUnit,
};
use crate::tcp::TcpCounters;
use crate::transport::Transport;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gnet_bspline::BsplineBasis;
use gnet_core::config::NullStrategy;
use gnet_core::pipeline::{process_tile, Candidate, GeneSpan, Tile, TileState};
use gnet_core::InferenceConfig;
use gnet_expr::ExpressionMatrix;
use gnet_fault::{names, Fault, FaultInjector};
use gnet_graph::{Edge, GeneNetwork};
use gnet_mi::{prepare_gene, MiKernel, MiScratch};
use gnet_permute::{PermutationSet, PooledNull};
use gnet_trace::{MetricsSink, Recorder, Span, Value};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a rank waits on a peer before presuming it dead. Generous
/// relative to any real round time; a crashed rank's dropped endpoint is
/// detected near-instantly anyway (channel disconnect), so this bound
/// matters only for dropped or delayed frames.
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_secs(5);

/// Frame tags: every message on the fabric is `tag (1B) ‖ round (u32 LE)
/// ‖ payload`. The round field is meaningful for `BLOCK` frames only
/// (zero elsewhere) and lets a receiver discard a stale, delayed block
/// instead of mistaking it for the current round's.
const TAG_BLOCK: u8 = 1;
const TAG_RESULTS: u8 = 3;
const TAG_ASSIGN: u8 = 4;
const TAG_SUPPLEMENT: u8 = 5;
/// Clock-sync stamp, circulated 0 → 1 → … → P−1 before compute when
/// per-rank tracing is armed. Payload: estimated rank-0 time (µs since
/// rank 0's trace epoch) at send, as `i64` LE.
const TAG_CLOCK: u8 = 6;
/// Post-protocol stats report from a worker process to the coordinator
/// (multi-process runs only; see [`crate::process`]). Per-edge FIFO
/// guarantees it never overtakes the worker's protocol frames.
pub(crate) const TAG_STATS: u8 = 7;

pub(crate) const FRAME_HEADER: usize = 5;

/// A distributed run that cannot proceed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// The fault plan kills rank 0. The coordinator owns the census, the
    /// redistribution, and the final merge — its loss is job loss, and
    /// the driver refuses up front rather than hanging every survivor.
    CoordinatorCrash {
        /// Ring round at which the plan would kill rank 0.
        round: usize,
    },
    /// Writing a per-rank trace file or the manifest failed. The network
    /// was still inferred; only the observability output is missing.
    TraceIo {
        /// Path being written when the error hit.
        path: String,
        /// OS error rendering.
        message: String,
    },
    /// The transport could not be established (socket bind/dial/accept
    /// failure) — the run never started.
    Transport {
        /// OS error rendering.
        message: String,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CoordinatorCrash { round } => write!(
                f,
                "fault plan kills rank 0 at round {round}: coordinator loss is job loss \
                 (no recovery path); rerun without the rank-0 crash"
            ),
            Self::TraceIo { path, message } => {
                write!(f, "cannot write rank trace {path}: {message}")
            }
            Self::Transport { message } => {
                write!(f, "cannot establish cluster transport: {message}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Per-rank execution statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankStats {
    /// Rank id.
    pub rank: usize,
    /// Gene pairs this rank evaluated.
    pub pairs: u64,
    /// Work units (block pairs or antipodal halves, incl. its diagonal
    /// block) this rank computed.
    pub block_pairs: usize,
    /// Messages this rank sent.
    pub messages: u64,
    /// Payload bytes this rank sent.
    pub bytes_sent: u64,
    /// Wall time this rank spent computing (excludes waiting).
    pub busy: Duration,
    /// True when an injected fault killed this rank mid-run.
    pub crashed: bool,
    /// Work units recomputed by this rank on behalf of dead ranks.
    pub reassigned_block_pairs: usize,
    /// This rank's trace-clock offset relative to rank 0 (µs): subtract
    /// it from a local trace timestamp to land on rank 0's timebase.
    /// Zero unless the run was traced (clock exchange only happens when
    /// per-rank recording is armed).
    pub clock_offset_us: i64,
}

/// Output of a distributed run.
#[derive(Clone, Debug)]
pub struct DistributedResult {
    /// The inferred network (identical in structure to the shared-memory
    /// pipeline's output).
    pub network: GeneNetwork,
    /// Global threshold applied.
    pub threshold: f64,
    /// Per-rank statistics, in rank order.
    pub rank_stats: Vec<RankStats>,
    /// Ranks rank 0 presumed dead during the census (crashed, or their
    /// results frame was lost). Empty on a fault-free run.
    pub crashed_ranks: Vec<usize>,
}

/// The wire a distributed run's ranks talk over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingTransport {
    /// The in-process channel fabric of [`crate::comm`]: a rank's death
    /// is its dropped endpoint.
    Channel,
    /// Loopback TCP, one connection per rank pair ([`crate::tcp`]): a
    /// rank's death is its FIN, and wire faults act on real sockets.
    Tcp,
}

/// How [`infer_network_distributed_with`] carries a run out, apart from
/// what it computes. [`Default`] is the fault-free, untraced channel ring
/// with [`DEFAULT_PEER_TIMEOUT`].
#[derive(Clone)]
pub struct DistributedOptions<'a> {
    /// Channel fabric or loopback TCP. The edge file and threshold are
    /// bit-identical between the two.
    pub transport: RingTransport,
    /// Injected faults: rank crashes, dropped or delayed frames, and —
    /// over TCP — wire faults (`refuse`/`cut`/`stall`/`trunc`).
    pub faults: FaultInjector,
    /// Receives the recovery counters and events (crash detected, ring
    /// healed, work redistributed).
    pub recorder: Recorder,
    /// How long a rank waits on a peer before presuming it dead.
    pub peer_timeout: Duration,
    /// Per-rank trace capture: every rank records into a private
    /// [`Recorder`] whose stream is written to `rank-<r>.ndjson` here
    /// after the run, next to a `manifest.json` listing them. Ranks first
    /// run a clock exchange (a stamp circulated 0 → 1 → … → P−1) so each
    /// learns its trace-epoch offset from rank 0
    /// ([`RankStats::clock_offset_us`], also in its stream's meta line);
    /// a lost stamp degrades the offset to zero, never the run.
    pub trace_dir: Option<&'a Path>,
    /// Live telemetry plane: every rank carries a metrics registry and
    /// beats rank 0 on the plane's cadence; rank 0 folds the beats — its
    /// own included — into the plane's cluster view.
    pub live: Option<&'a TelemetryPlane>,
}

impl Default for DistributedOptions<'_> {
    fn default() -> Self {
        Self {
            transport: RingTransport::Channel,
            faults: FaultInjector::none(),
            recorder: Recorder::disabled(),
            peer_timeout: DEFAULT_PEER_TIMEOUT,
            trace_dir: None,
            live: None,
        }
    }
}

/// Run the full inference distributed over `ranks` simulated cluster
/// ranks (fault-free channel fabric).
///
/// # Panics
/// Panics if `ranks` is zero or exceeds the gene count, or if the config
/// requests the early-exit strategy (the distributed path implements the
/// paper-faithful exact test only).
pub fn infer_network_distributed(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
) -> DistributedResult {
    infer_network_distributed_with(matrix, config, ranks, &DistributedOptions::default())
        .expect("fault-free distributed run cannot fail")
}

/// Run the full inference distributed over `ranks` ranks talking TCP
/// over loopback (fault-free). The result is byte-identical to
/// [`infer_network_distributed`] — the conformance suite pins this.
///
/// # Errors
/// [`ClusterError::Transport`] when the loopback mesh cannot be bound.
///
/// # Panics
/// Same validation panics as [`infer_network_distributed`].
pub fn infer_network_distributed_tcp(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
) -> Result<DistributedResult, ClusterError> {
    let options = DistributedOptions {
        transport: RingTransport::Tcp,
        ..DistributedOptions::default()
    };
    infer_network_distributed_with(matrix, config, ranks, &options)
}

/// Run the distributed inference over `ranks` in-process ranks as
/// `options` says: over channels or loopback TCP, with faults injected,
/// traced, and/or with the live plane attached — in any combination.
///
/// Any non-coordinator rank may crash, and messages may be dropped or
/// delayed; the run still completes with the same edge set as the
/// fault-free run (wall time degrades, never the result). Neither
/// tracing nor the live plane changes the edge set.
///
/// # Errors
/// [`ClusterError::CoordinatorCrash`] for plans that kill rank 0,
/// [`ClusterError::Transport`] when the TCP mesh cannot be established,
/// and [`ClusterError::TraceIo`] when a trace file cannot be written.
///
/// # Panics
/// Same validation panics as [`infer_network_distributed`].
pub fn infer_network_distributed_with(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
    options: &DistributedOptions<'_>,
) -> Result<DistributedResult, ClusterError> {
    validate_run(matrix, config, ranks, &options.faults)?;
    let setups: Vec<RankSetup> = (0..ranks)
        .map(|r| {
            let duty = options
                .live
                .map(|plane| LiveDuty::new(plane.interval(), (r == 0).then(|| plane.view())));
            RankSetup::new(r, ranks, options.trace_dir.is_some(), duty)
        })
        .collect();
    let run = |tp: &dyn Transport| {
        setups[tp.rank()].run(tp, matrix, config, &options.recorder, options.peer_timeout)
    };
    let outputs: Vec<(RankOutput, Option<Arc<TcpCounters>>)> = match options.transport {
        RingTransport::Channel => {
            run_ranks_on(Fabric::with_faults(ranks, options.faults.clone()), |ep| {
                let out = run(&ep);
                // Closing this rank's channels is the death signal the
                // survivors' bounded receives detect.
                drop(ep);
                (out, None)
            })
        }
        RingTransport::Tcp => crate::tcp::run_ranks_tcp(ranks, &options.faults, |tp| {
            let out = run(&tp);
            // Drain-then-FIN before the counters are read: survivors see
            // this rank's death (crash or completion) exactly when a
            // channel-fabric rank would have dropped its endpoint.
            tp.shutdown();
            (out, Some(Arc::clone(tp.counters())))
        })
        .map_err(|e| ClusterError::Transport {
            message: e.to_string(),
        })?,
    };
    let mut rank_outputs = Vec::with_capacity(ranks);
    for (setup, (out, counters)) in setups.iter().zip(outputs) {
        setup.finish(
            counters.as_deref(),
            options.trace_dir,
            out.stats.clock_offset_us,
        )?;
        rank_outputs.push(out);
    }
    let result = assemble_result(rank_outputs);
    if let Some(dir) = options.trace_dir {
        write_manifest(dir, ranks, &result.crashed_ranks)?;
    }
    Ok(result)
}

/// Shared up-front validation of every distributed entry point.
pub(crate) fn validate_run(
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    ranks: usize,
    faults: &FaultInjector,
) -> Result<(), ClusterError> {
    config.validate();
    assert!(ranks >= 1, "need at least one rank");
    assert!(ranks <= matrix.genes(), "more ranks than genes");
    assert_eq!(
        config.null_strategy,
        NullStrategy::ExactFull,
        "distributed path implements the exact strategy only"
    );
    if let Some(plan) = faults.plan() {
        for f in &plan.faults {
            if let Fault::CrashRank { rank: 0, round } = *f {
                return Err(ClusterError::CoordinatorCrash { round });
            }
        }
    }
    Ok(())
}

/// Fold the per-rank outputs, in rank order, into the run result.
fn assemble_result(outputs: Vec<RankOutput>) -> DistributedResult {
    let mut network = None;
    let mut threshold = 0.0;
    let mut crashed_ranks = Vec::new();
    let mut rank_stats = Vec::with_capacity(outputs.len());
    for out in outputs {
        if let Some(net) = out.network {
            network = Some(net);
            threshold = out.threshold;
            crashed_ranks = out.dead;
        }
        rank_stats.push(out.stats);
    }
    DistributedResult {
        network: network.expect("rank 0 produces the network"),
        threshold,
        rank_stats,
        crashed_ranks,
    }
}

/// One rank's set-up, the same in every driver — the in-process channel
/// and TCP rings, and the multi-process coordinator and worker
/// ([`crate::process`]): a private recorder, enabled only on traced runs,
/// with the live plane's metrics registry installed as its sink; the
/// rank's heartbeat duty; and, after the protocol, its closing TCP
/// counters and trace stream.
pub(crate) struct RankSetup {
    rank: usize,
    ranks: usize,
    /// The rank's own recorder: spans, counters and events of this rank
    /// only.
    pub(crate) rec: Recorder,
    duty: Option<LiveDuty>,
}

impl RankSetup {
    pub(crate) fn new(rank: usize, ranks: usize, traced: bool, duty: Option<LiveDuty>) -> Self {
        let mut rec = if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        if let Some(d) = &duty {
            rec = rec.with_metrics(Arc::clone(&d.registry) as Arc<dyn MetricsSink>);
        }
        Self {
            rank,
            ranks,
            rec,
            duty,
        }
    }

    /// This rank's protocol run over `tp`, recovery events going to
    /// `rec` (see [`rank_main`]).
    pub(crate) fn run(
        &self,
        tp: &dyn Transport,
        matrix: &ExpressionMatrix,
        config: &InferenceConfig,
        rec: &Recorder,
        peer_timeout: Duration,
    ) -> RankOutput {
        let live = self.duty.as_ref();
        rank_main(tp, matrix, config, rec, &self.rec, peer_timeout, live)
    }

    /// Close the rank's stream once its transport is drained: publish
    /// its `tcp.*` counters (TCP runs) and, when `trace_dir` is set,
    /// write the stream, stamped with the rank's clock offset, to
    /// `trace_dir/rank-<r>.ndjson`.
    pub(crate) fn finish(
        &self,
        counters: Option<&TcpCounters>,
        trace_dir: Option<&Path>,
        clock_offset_us: i64,
    ) -> Result<(), ClusterError> {
        use std::io::Write as _;
        if let Some(c) = counters {
            c.publish(&self.rec);
        }
        let Some(dir) = trace_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir).map_err(|e| trace_io_err(dir, &e))?;
        let path = dir.join(rank_trace_name(self.rank));
        let file = std::fs::File::create(&path).map_err(|e| trace_io_err(&path, &e))?;
        let mut w = std::io::BufWriter::new(file);
        self.rec
            .write_ndjson_with_meta(
                &mut w,
                &[
                    ("rank", Value::from(self.rank)),
                    ("ranks", Value::from(self.ranks)),
                    ("clock_offset_us", Value::I64(clock_offset_us)),
                ],
            )
            .and_then(|()| w.flush())
            .map_err(|e| trace_io_err(&path, &e))
    }
}

fn trace_io_err(path: &Path, e: &std::io::Error) -> ClusterError {
    ClusterError::TraceIo {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn rank_trace_name(rank: usize) -> String {
    format!("rank-{rank}.ndjson")
}

/// Write the coordinator manifest into `dir`, listing every rank stream
/// present there (in a multi-process run, workers on another filesystem
/// write theirs elsewhere).
pub(crate) fn write_manifest(
    dir: &Path,
    ranks: usize,
    crashed_ranks: &[usize],
) -> Result<(), ClusterError> {
    use gnet_trace::escape_json;
    let mut manifest = String::with_capacity(256);
    manifest.push_str("{\"format\":\"gnet-trace-manifest\",\"version\":1");
    let _ = std::fmt::Write::write_fmt(&mut manifest, format_args!(",\"ranks\":{ranks}"));
    manifest.push_str(",\"crashed_ranks\":[");
    for (i, r) in crashed_ranks.iter().enumerate() {
        if i > 0 {
            manifest.push(',');
        }
        let _ = std::fmt::Write::write_fmt(&mut manifest, format_args!("{r}"));
    }
    manifest.push_str("],\"files\":[");
    let files = (0..ranks)
        .map(rank_trace_name)
        .filter(|name| dir.join(name).exists());
    for (i, f) in files.enumerate() {
        if i > 0 {
            manifest.push(',');
        }
        escape_json(&mut manifest, &f);
    }
    manifest.push_str("]}\n");
    let path = dir.join("manifest.json");
    std::fs::write(&path, manifest).map_err(|e| trace_io_err(&path, &e))
}

/// One rank's share of reassigned work: pooled nulls plus candidates.
type Share = (PooledNull, Vec<Candidate>);

pub(crate) struct RankOutput {
    pub(crate) network: Option<GeneNetwork>,
    pub(crate) threshold: f64,
    pub(crate) stats: RankStats,
    /// Ranks presumed dead by the census (rank 0 only).
    pub(crate) dead: Vec<usize>,
}

pub(crate) fn frame(tag: u8, round: u32, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(FRAME_HEADER + payload.len());
    buf.put_u8(tag);
    buf.put_u32_le(round);
    buf.put_slice(payload);
    buf.freeze()
}

pub(crate) fn parse_frame(mut bytes: Bytes) -> Option<(u8, u32, Bytes)> {
    if bytes.len() < FRAME_HEADER {
        return None;
    }
    let tag = bytes.get_u8();
    let round = bytes.get_u32_le();
    Some((tag, round, bytes))
}

/// Identity of the block carried by a round-`rd` `TAG_BLOCK` frame from
/// rank `from`: the sender's travelling block after round `rd − 1`. The
/// wire format does not repeat the identity in the payload — the round
/// stamp determines it, and healing preserves the invariant (a healer
/// forwards exactly the block the arithmetic says it holds).
fn block_identity(from: usize, rd: u32, p: usize) -> usize {
    let back = (rd as usize).saturating_sub(1) % p;
    (from + p - back) % p
}

/// What a blocked receive does while it waits: run the callback every
/// slice. Ranks with a live telemetry plane use it to keep beating (and
/// rank 0 to keep folding the beats it receives) while blocked on a
/// peer, so waiting is never mistaken for silence.
type Idle<'a> = Option<(Duration, &'a mut dyn FnMut())>;

/// `tp.recv_timeout(from, timeout)`, cut into `idle`'s slices with its
/// callback run between them; the total wait is unchanged.
fn recv_idling(
    tp: &dyn Transport,
    from: usize,
    timeout: Duration,
    idle: &mut Idle<'_>,
) -> Result<Bytes, RecvTimeoutError> {
    let Some((slice, on_idle)) = idle else {
        return tp.recv_timeout(from, timeout);
    };
    let deadline = Instant::now() + timeout;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left <= *slice {
            return tp.recv_timeout(from, left);
        }
        match tp.recv_timeout(from, *slice) {
            Err(RecvTimeoutError::Timeout) => on_idle(),
            other => return other,
        }
    }
}

/// Receive one frame from `from` and translate it into a protocol
/// event. Delayed clock stamps are consumed here (harmless at any
/// protocol point); everything else — including stale ring blocks,
/// which the [`RankMachine`] discards by round stamp — is surfaced to
/// the machine. Failures (timeout, disconnect, unparseable frame)
/// become [`ProtoEvent::Timeout`] with `fail_reason` set for the
/// recovery trace events.
#[allow(clippy::too_many_arguments)]
fn recv_event(
    tp: &dyn Transport,
    from: usize,
    timeout: Duration,
    mut idle: Idle<'_>,
    in_ring: bool,
    block_payload: &mut Option<Bytes>,
    pending_payload: &mut Option<Bytes>,
    fail_reason: &mut &'static str,
) -> ProtoEvent {
    let unexpected = if in_ring {
        "unexpected frame on ring channel"
    } else {
        "unexpected frame"
    };
    loop {
        return match recv_idling(tp, from, timeout, &mut idle) {
            Ok(raw) => match parse_frame(raw) {
                Some((TAG_CLOCK, _, _)) => continue, // delayed clock stamp: harmless
                // Defensive only: transports divert TELEM frames before
                // they reach a protocol queue; tolerate a stray one the
                // same way rather than mistaking it for a protocol error.
                Some((crate::live::TAG_TELEM, _, _)) => continue,
                Some((TAG_BLOCK, rd, payload)) => {
                    *block_payload = Some(payload);
                    *fail_reason = unexpected;
                    ProtoEvent::Frame(ProtoFrame::Block {
                        round: rd,
                        block: block_identity(from, rd, tp.size()),
                    })
                }
                Some((TAG_RESULTS, _, payload)) => {
                    *pending_payload = Some(payload);
                    *fail_reason = unexpected;
                    ProtoEvent::Frame(ProtoFrame::Results)
                }
                Some((TAG_ASSIGN, _, payload)) => match decode_assignment(payload, tp.size()) {
                    Ok(units) => {
                        *fail_reason = unexpected;
                        ProtoEvent::Frame(ProtoFrame::Assign { units })
                    }
                    Err(reason) => {
                        *fail_reason = reason;
                        ProtoEvent::Timeout
                    }
                },
                Some((TAG_SUPPLEMENT, _, payload)) => {
                    *pending_payload = Some(payload);
                    *fail_reason = unexpected;
                    ProtoEvent::Frame(ProtoFrame::Supplement)
                }
                _ => {
                    *fail_reason = unexpected;
                    ProtoEvent::Timeout
                }
            },
            Err(RecvTimeoutError::Timeout) => {
                *fail_reason = "peer timed out";
                ProtoEvent::Timeout
            }
            Err(RecvTimeoutError::Disconnected) => {
                *fail_reason = "peer disconnected";
                ProtoEvent::Timeout
            }
        };
    }
}

/// Microseconds since `rec`'s trace epoch, as `i64` (saturating — traces
/// never approach 2^63 µs).
fn trace_now_us(rec: &Recorder) -> i64 {
    i64::try_from(rec.elapsed().as_micros()).unwrap_or(i64::MAX)
}

/// Chain clock exchange: rank 0 stamps its trace time and sends it to
/// rank 1; each rank `r ≥ 1` measures `offset = local − stamp` on
/// receipt, then forwards its own *rank-0-timebase* estimate
/// (`local − offset`) to `r + 1`. The chain stops at `P−1` (nothing
/// wraps back to rank 0, so no stray frame outlives the exchange).
///
/// Returns the offset plus any ring-block frame that arrived while
/// waiting (possible only when the clock frame itself was dropped by an
/// injected fault) — the caller must feed that frame back into the ring
/// loop instead of losing it. A lost stamp degrades the offset to 0,
/// recorded as `clock.sync` with `ok:false`.
fn exchange_clock(
    tp: &dyn Transport,
    rank_rec: &Recorder,
    timeout: Duration,
) -> (i64, Option<(u32, Bytes)>) {
    let p = tp.size();
    let r = tp.rank();
    let mut offset = 0i64;
    let mut ok = true;
    let mut leftover = None;
    if r == 0 {
        if p > 1 {
            let stamp = trace_now_us(rank_rec);
            tp.send(1, frame(TAG_CLOCK, 0, &stamp.to_le_bytes()));
        }
    } else {
        ok = false;
        if let Ok(raw) = tp.recv_timeout(r - 1, timeout) {
            match parse_frame(raw) {
                Some((TAG_CLOCK, _, payload)) if payload.len() == 8 => {
                    let mut stamp_bytes = [0u8; 8];
                    stamp_bytes.copy_from_slice(&payload);
                    let stamp = i64::from_le_bytes(stamp_bytes);
                    offset = trace_now_us(rank_rec) - stamp;
                    ok = true;
                }
                Some((TAG_BLOCK, round, payload)) => {
                    // The stamp was dropped and ring traffic overtook
                    // it; hand the block back to the caller.
                    leftover = Some((round, payload));
                }
                _ => {}
            }
        }
        if r + 1 < p {
            let estimate = trace_now_us(rank_rec) - offset;
            tp.send(r + 1, frame(TAG_CLOCK, 0, &estimate.to_le_bytes()));
        }
    }
    rank_rec.event(
        "clock.sync",
        &[
            ("rank", Value::from(r)),
            ("offset_us", Value::I64(offset)),
            ("ok", Value::Bool(ok)),
        ],
    );
    (offset, leftover)
}

/// Prepare block `idx` of the `p`-way partition directly from the shared
/// expression matrix — the reconstruction primitive behind ring healing
/// and redistribution.
fn build_block(
    matrix: &ExpressionMatrix,
    basis: &BsplineBasis,
    n: usize,
    p: usize,
    idx: usize,
) -> GeneBlock {
    let (s, e) = block_range(n, p, idx);
    GeneBlock {
        indices: (s as u32..e as u32).collect(),
        genes: (s..e)
            .map(|g| prepare_gene(matrix.gene(g), basis))
            .collect(),
    }
}

/// One rank's protocol run over any [`Transport`]. The caller owns the
/// transport and must drop (or shut down) it after this returns — that
/// drop is the rank-death signal survivors detect, both for the channel
/// fabric (closed channels) and for TCP (FIN after drain).
fn rank_main(
    tp: &dyn Transport,
    matrix: &ExpressionMatrix,
    config: &InferenceConfig,
    rec: &Recorder,
    rank_rec: &Recorder,
    peer_timeout: Duration,
    live: Option<&LiveDuty>,
) -> RankOutput {
    let p = tp.size();
    let r = tp.rank();
    let n = matrix.genes();
    let faults = tp.faults().clone();
    let basis = BsplineBasis::new(config.spline_order, config.bins);
    let perms = PermutationSet::generate(matrix.samples(), config.permutations, config.seed);
    let mut stats = RankStats {
        rank: r,
        ..Default::default()
    };
    let mut busy = Duration::ZERO;

    macro_rules! die {
        () => {{
            stats.crashed = true;
            stats.messages = tp.messages_sent();
            stats.bytes_sent = tp.bytes_sent();
            stats.busy = busy;
            rank_rec.event(
                "rank.crashed",
                &[
                    ("rank", Value::from(r)),
                    ("pairs", Value::from(stats.pairs)),
                ],
            );
            // Returning hands the transport back to the caller, which
            // drops it — closed channels / TCP FIN is exactly how the
            // survivors detect the death.
            return RankOutput {
                network: None,
                threshold: 0.0,
                stats,
                dead: Vec::new(),
            };
        }};
    }

    if faults.should_crash_rank(r, 0) {
        die!();
    }

    // Clock exchange (traced runs only): learn this rank's trace-epoch
    // offset from rank 0 before any compute, so every span below can be
    // re-based onto one cluster-wide timebase offline.
    let mut leftover: Option<(u32, Bytes)> = None;
    if rank_rec.is_enabled() {
        let (offset, lo) = exchange_clock(tp, rank_rec, peer_timeout);
        stats.clock_offset_us = offset;
        leftover = lo;
    }
    // Prepare the local block.
    let t0 = Instant::now();
    let own = {
        let _prep_span = rank_rec.span("rank.prep");
        build_block(matrix, &basis, n, p, r)
    };
    busy += t0.elapsed();
    // Every work unit runs through the shared-memory pipeline's tile
    // loop, on tiles sized by the same L2 rule.
    let tile_size = config.resolved_tile_size(n, own.genes[0].heap_bytes());
    let pair_loop = UnitLoop {
        perms: &perms,
        kernel: config.kernel,
        threshold: config.mi_threshold,
        tile_size: tile_size as u32,
    };
    let mut state = TileState::new(MiScratch::for_basis(&basis));

    if r == 0 {
        // Run-shape stamp for offline perf attribution (`gnet
        // trace-report` matches it against a calibrated kernel model).
        // Each rank's compute is single-threaded, so threads=1 stands in
        // for the shared-memory pipeline's pool width.
        rank_rec.event(
            "run.config",
            &[
                ("genes", Value::from(n)),
                ("samples", Value::from(matrix.samples())),
                ("permutations", Value::from(config.permutations)),
                (
                    "kernel",
                    match config.kernel {
                        MiKernel::ScalarSparse => "scalar",
                        MiKernel::VectorDense => "vector",
                    }
                    .into(),
                ),
                ("threads", Value::from(1u64)),
                ("tile_size", Value::from(tile_size)),
                ("scheduler", Value::from("ring")),
            ],
        );
    }

    // ---- Protocol interpreter ----
    //
    // Every protocol decision below is made by the RankMachine step
    // function (the same one the gnet-analysis model checker explores);
    // this loop owns the bytes, the kernels, the clocks, and the trace
    // events, and executes whatever effects the machine emits.
    let mut travelling = encode_block(&own);
    let mut own = Some(own);
    let prev = (r + p - 1) % p;
    // Payload of the last-delivered BLOCK frame (adopted on AcceptBlock)
    // and of the last RESULTS/SUPPLEMENT frame (consumed on accept).
    let mut block_payload: Option<Bytes> = None;
    let mut pending_payload: Option<Bytes> = None;
    // Low-level cause of the last receive failure, for recovery events.
    let mut fail_reason: &'static str = "peer timed out";
    // A healed block, decoded once and reused by the compute effect.
    let mut rebuilt: Option<GeneBlock> = None;
    let mut cur_round = 0usize;
    // Live-telemetry beat clock: armed only when a plane is attached.
    // Ticks between effects and receives — cheap (one clock compare
    // when nothing is due) and strictly outside the protocol's own
    // send/receive schedule, so telemetry can never reorder it.
    let mut beat = live.map(|d| BeatState::new(d.interval));
    macro_rules! tick {
        ($done:expr) => {
            if let (Some(duty), Some(b)) = (live, beat.as_mut()) {
                live_tick(duty, b, tp, cur_round as u32, $done, stats.pairs);
            }
        };
    }
    let mut parts: Vec<Option<Bytes>> = vec![None; p];
    let mut supplements: Vec<Option<Share>> = vec![None; p];
    let mut cache: HashMap<usize, GeneBlock> = HashMap::new();
    let mut sup: Share = (PooledNull::new(), Vec::new());
    let mut output: Option<(GeneNetwork, f64, Vec<usize>)> = None;
    let mut ring_span: Option<Span> = None;
    let mut finalize_span: Option<Span> = None;

    let mut machine = RankMachine::new(r, p, Mutation::None);
    let (mut fx, mut wait) = machine.step(ProtoEvent::Start);
    loop {
        for effect in std::mem::take(&mut fx) {
            match effect {
                Effect::ComputeDiag => {
                    let t = Instant::now();
                    {
                        let _diag_span = rank_rec.span("rank.diag");
                        stats.pairs += pair_loop.compute(
                            own.as_ref().expect("own block is live in the ring"),
                            None,
                            &mut state,
                        );
                    }
                    stats.block_pairs += 1;
                    busy += t.elapsed();
                }
                Effect::Send {
                    to,
                    frame: ProtoFrame::Block { round, .. },
                } => {
                    let d = round as usize;
                    if faults.should_crash_rank(r, d) {
                        die!();
                    }
                    ring_span = Some(rank_rec.span(&format!("rank.round.{d}")));
                    cur_round = d;
                    tp.send(to, frame(TAG_BLOCK, round, &travelling));
                }
                Effect::Send {
                    to,
                    frame: ProtoFrame::Results,
                } => {
                    let results = encode_rank_results(&state.pooled, &state.candidates);
                    tp.send(to, frame(TAG_RESULTS, 0, &results));
                }
                Effect::Send {
                    to,
                    frame: ProtoFrame::Assign { units },
                } => {
                    tp.send(to, frame(TAG_ASSIGN, 0, &encode_assignment(&units)));
                }
                Effect::Send {
                    to,
                    frame: ProtoFrame::Supplement,
                } => {
                    let sup = encode_rank_results(&sup.0, &sup.1);
                    tp.send(to, frame(TAG_SUPPLEMENT, 0, &sup));
                }
                Effect::AcceptBlock => {
                    travelling = block_payload
                        .take()
                        .expect("accepted BLOCK frame has a payload");
                    rebuilt = None;
                }
                Effect::Heal { block } => {
                    // The expected frame was lost (timeout, disconnect,
                    // or an unexpected frame consumed in its place):
                    // rebuild the block we know we are due and forward
                    // it, so downstream ranks never notice.
                    let t = Instant::now();
                    block_payload = None;
                    rec.counter_add(names::CNT_CRASHES_DETECTED, 1);
                    rec.event(
                        names::EVT_CRASH_DETECTED,
                        &[
                            ("rank", Value::from(r)),
                            ("peer", Value::from(prev)),
                            ("round", Value::from(cur_round)),
                            ("reason", Value::from(fail_reason)),
                        ],
                    );
                    let b = build_block(matrix, &basis, n, p, block);
                    travelling = encode_block(&b);
                    rebuilt = Some(b);
                    let latency = t.elapsed();
                    busy += latency;
                    rec.observe(names::HIST_RECOVERY_LATENCY_US, latency);
                    rec.event(
                        names::EVT_RING_HEALED,
                        &[("rank", Value::from(r)), ("block", Value::from(block))],
                    );
                }
                Effect::ComputeCross { block, half } => {
                    let t = Instant::now();
                    let own_ref = own.as_ref().expect("own block is live in the ring");
                    let foreign = match rebuilt.take() {
                        Some(b) => b,
                        None => match decode_block(travelling.clone()) {
                            Ok(b) => b,
                            Err(_) => {
                                // Corrupt frame: same cure as a lost one
                                // — rebuild from the source matrix and
                                // forward the good copy.
                                rec.counter_add(names::CNT_CRASHES_DETECTED, 1);
                                let b = build_block(matrix, &basis, n, p, block);
                                travelling = encode_block(&b);
                                rec.event(
                                    names::EVT_RING_HEALED,
                                    &[("rank", Value::from(r)), ("block", Value::from(block))],
                                );
                                b
                            }
                        },
                    };
                    // Canonical orientation: the block with the lower
                    // global indices is always the x (row) side, exactly
                    // as in the shared-memory tiles. MI is symmetric,
                    // but the permutation null I(x, π(y)) is a
                    // *different draw* under role swap, so orientation
                    // must match for bit-identical candidate decisions.
                    // The half selects the higher block's genes.
                    let (lo, hi) = if foreign.indices[0] < own_ref.indices[0] {
                        (&foreign, own_ref)
                    } else {
                        (own_ref, &foreign)
                    };
                    stats.pairs += pair_loop.compute(lo, Some((hi, half)), &mut state);
                    stats.block_pairs += 1;
                    busy += t.elapsed();
                }
                Effect::AcceptResults { from } => {
                    parts[from] = Some(
                        pending_payload
                            .take()
                            .expect("accepted RESULTS frame has a payload"),
                    );
                }
                Effect::PresumeDead { rank } => {
                    if let Some(duty) = live {
                        live_mark_dead(duty, rank);
                    }
                    rec.counter_add(names::CNT_CRASHES_DETECTED, 1);
                    rec.event(
                        names::EVT_CRASH_DETECTED,
                        &[
                            ("rank", Value::from(0usize)),
                            ("peer", Value::from(rank)),
                            ("reason", Value::from(fail_reason)),
                        ],
                    );
                }
                Effect::Redistributed {
                    dead_ranks,
                    units,
                    survivors,
                } => {
                    rec.counter_add(names::CNT_PAIRS_REASSIGNED, units as u64);
                    rec.event(
                        names::EVT_REDISTRIBUTED,
                        &[
                            ("dead_ranks", Value::from(dead_ranks)),
                            ("units", Value::from(units)),
                            ("survivors", Value::from(survivors)),
                        ],
                    );
                }
                Effect::ComputeAssigned { units } => {
                    let t = Instant::now();
                    if let Some(own_block) = own.take() {
                        cache.insert(r, own_block);
                    }
                    let share = pair_loop.compute_assigned(
                        &units,
                        matrix,
                        &basis,
                        p,
                        &mut cache,
                        &mut stats.pairs,
                    );
                    if r == 0 {
                        supplements[0] = Some(share);
                    } else {
                        sup = share;
                    }
                    stats.reassigned_block_pairs += units.len();
                    stats.block_pairs += units.len();
                    busy += t.elapsed();
                }
                Effect::AcceptSupplement { from } => {
                    let (sp, sc) = decode_rank_results(
                        pending_payload
                            .take()
                            .expect("accepted SUPPLEMENT frame has a payload"),
                    );
                    supplements[from] = Some((sp, sc));
                }
                Effect::RecomputeShare { from, units } => {
                    // Survivor went silent after the census — recompute
                    // its share locally so the result never depends on
                    // it.
                    let t = Instant::now();
                    rec.counter_add(names::CNT_CRASHES_DETECTED, 1);
                    if let Some(own_block) = own.take() {
                        cache.insert(r, own_block);
                    }
                    supplements[from] = Some(pair_loop.compute_assigned(
                        &units,
                        matrix,
                        &basis,
                        p,
                        &mut cache,
                        &mut stats.pairs,
                    ));
                    stats.reassigned_block_pairs += units.len();
                    stats.block_pairs += units.len();
                    busy += t.elapsed();
                }
                Effect::Finalize { dead } => {
                    // Merge: phase-1 results in rank order, then
                    // supplements in rank order. Fault-free, every
                    // supplement is empty and this reduces to the
                    // historical gather-merge bit for bit.
                    parts[0] = Some(encode_rank_results(&state.pooled, &state.candidates));
                    let mut merged = PooledNull::new();
                    let mut all_candidates: Vec<Candidate> = Vec::new();
                    for part in std::mem::take(&mut parts).into_iter().flatten() {
                        let (pp, cc) = decode_rank_results(part);
                        merged.merge(&pp);
                        all_candidates.extend(cc);
                    }
                    for (sp, sc) in std::mem::take(&mut supplements).into_iter().flatten() {
                        merged.merge(&sp);
                        all_candidates.extend(sc);
                    }
                    let total_pairs = (n as u64) * (n as u64 - 1) / 2;
                    let threshold = match config.mi_threshold {
                        Some(t) => t,
                        None => merged.global_threshold(config.alpha, total_pairs.max(1)),
                    };
                    all_candidates.sort_by_key(|c| (c.i, c.j));
                    let network = GeneNetwork::from_edges(
                        n,
                        matrix.gene_names().to_vec(),
                        all_candidates
                            .into_iter()
                            .filter(|c| c.observed > threshold)
                            .map(|c| Edge::new(c.i, c.j, c.observed as f32)),
                    );
                    output = Some((network, threshold, dead));
                }
            }
            tick!(false);
        }
        if finalize_span.is_none() && machine.phase() == Phase::Endgame {
            drop(ring_span.take());
            finalize_span = Some(rank_rec.span(if r == 0 {
                "rank.coordinate"
            } else {
                "rank.report"
            }));
        }
        let from = match wait {
            Wait::Done => break,
            Wait::Recv { from } => from,
        };
        let in_ring = machine.phase() == Phase::Ring;
        // A block the clock exchange captured while waiting for its
        // stamp takes precedence (it IS a ring frame, already
        // received); otherwise receive from the fabric.
        let event = match leftover.take() {
            Some((lr, payload)) => {
                block_payload = Some(payload);
                fail_reason = "unexpected frame on ring channel";
                ProtoEvent::Frame(ProtoFrame::Block {
                    round: lr,
                    block: block_identity(prev, lr, p),
                })
            }
            None => {
                let (round, pairs) = (cur_round as u32, stats.pairs);
                let mut beat_while_waiting = || {
                    if let (Some(duty), Some(b)) = (live, beat.as_mut()) {
                        live_tick(duty, b, tp, round, false, pairs);
                    }
                };
                recv_event(
                    tp,
                    from,
                    peer_timeout,
                    live.map(|d| (d.interval, &mut beat_while_waiting as &mut dyn FnMut())),
                    in_ring,
                    &mut block_payload,
                    &mut pending_payload,
                    &mut fail_reason,
                )
            }
        };
        let stepped = machine.step(event);
        fx = stepped.0;
        wait = stepped.1;
    }

    drop(ring_span.take());
    drop(finalize_span.take());
    stats.messages = tp.messages_sent();
    stats.bytes_sent = tp.bytes_sent();
    stats.busy = busy;
    rank_rec.counter_add("rank.pairs", stats.pairs);
    rank_rec.counter_add("rank.block_pairs", stats.block_pairs as u64);
    rank_rec.event(
        "rank.done",
        &[
            ("rank", Value::from(r)),
            ("pairs", Value::from(stats.pairs)),
            ("block_pairs", Value::from(stats.block_pairs)),
            ("messages", Value::from(stats.messages)),
            ("bytes_sent", Value::from(stats.bytes_sent)),
        ],
    );
    // Final beat, forced: carries `done` and the rank's closing
    // counters (the `rank.pairs` counter_add above reached the registry
    // through the recorder's metrics sink). On rank 0 this also drains
    // any last remote beats into the view.
    tick!(true);

    match output {
        Some((network, threshold, dead)) => RankOutput {
            network: Some(network),
            threshold,
            stats,
            dead,
        },
        None => RankOutput {
            network: None,
            threshold: 0.0,
            stats,
            dead: Vec::new(),
        },
    }
}

/// What every work unit of a rank is evaluated with: the shared
/// pipeline's tile loop ([`process_tile`]) over tiles of `tile_size`
/// genes.
struct UnitLoop<'a> {
    perms: &'a PermutationSet,
    kernel: MiKernel,
    /// `config.mi_threshold`: the same `observed > t` filter rank 0
    /// applies, so dropping candidates early changes no edge.
    threshold: Option<f64>,
    tile_size: u32,
}

impl UnitLoop<'_> {
    /// Evaluate all pairs between `x_block` and the `half` of the y
    /// block's genes (or within `x_block` when `y_side` is `None`) tile
    /// by tile, into `state`. Returns the number of gene pairs
    /// evaluated.
    fn compute(
        &self,
        x_block: &GeneBlock,
        y_side: Option<(&GeneBlock, Half)>,
        state: &mut TileState,
    ) -> u64 {
        let rows = span(x_block);
        let cols = match y_side {
            Some((y, half)) => {
                let (s, e) = half.range(y.genes.len());
                GeneSpan {
                    genes: &y.genes[s..e],
                    first: y.indices[0] + s as u32,
                }
            }
            None => rows,
        };
        let range = |g: GeneSpan<'_>| g.first..g.first + g.genes.len() as u32;
        let mut pairs = 0;
        for tile in Tile::cover(range(rows), range(cols), self.tile_size) {
            process_tile(
                &tile,
                rows,
                cols,
                self.perms,
                self.kernel,
                self.threshold,
                state,
            );
            pairs += tile.pair_count();
        }
        pairs
    }

    /// Recompute reassigned work units from the shared matrix into a
    /// fresh share, each in the same canonical orientation (lower block
    /// on the x side) and over the same half of the higher block as its
    /// original owner — so the recomputed null draws and candidate
    /// decisions are identical to the lost ones.
    fn compute_assigned(
        &self,
        units: &[WorkUnit],
        matrix: &ExpressionMatrix,
        basis: &BsplineBasis,
        p: usize,
        cache: &mut HashMap<usize, GeneBlock>,
        pair_counter: &mut u64,
    ) -> Share {
        let mut share = TileState::new(MiScratch::for_basis(basis));
        for &unit in units {
            for idx in [unit.lo, unit.hi] {
                cache
                    .entry(idx)
                    .or_insert_with(|| build_block(matrix, basis, matrix.genes(), p, idx));
            }
            let y_side = (unit.lo != unit.hi).then(|| (&cache[&unit.hi], unit.half));
            *pair_counter += self.compute(&cache[&unit.lo], y_side, &mut share);
        }
        (share.pooled, share.candidates)
    }
}

/// A block's genes as a span of global gene indices (blocks are
/// contiguous: see [`block_range`]).
fn span(block: &GeneBlock) -> GeneSpan<'_> {
    GeneSpan {
        genes: &block.genes,
        first: block.indices[0],
    }
}

/// Bytes per encoded work unit: `lo` and `hi` as `u32` LE, then the
/// [`Half::code`] byte.
const UNIT_BYTES: usize = 9;

fn encode_assignment(units: &[WorkUnit]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + units.len() * UNIT_BYTES);
    buf.put_u32_le(units.len() as u32);
    for unit in units {
        buf.put_u32_le(unit.lo as u32);
        buf.put_u32_le(unit.hi as u32);
        buf.put_u8(unit.half.code());
    }
    buf.freeze()
}

/// Decode an assignment frame for a `p`-rank ring. A malformed frame —
/// wrong length, an unknown half byte, or a unit that is not one of the
/// ring's work units — is an error naming the defect, never a panic:
/// the receiver treats it like a lost frame.
fn decode_assignment(mut bytes: Bytes, p: usize) -> Result<Vec<WorkUnit>, &'static str> {
    if bytes.remaining() < 4 {
        return Err("assignment frame too short");
    }
    let count = bytes.get_u32_le() as usize;
    if bytes.remaining() != count.saturating_mul(UNIT_BYTES) {
        return Err("assignment frame length mismatch");
    }
    (0..count)
        .map(|_| {
            let lo = bytes.get_u32_le() as usize;
            let hi = bytes.get_u32_le() as usize;
            let half = Half::from_code(bytes.get_u8()).ok_or("assignment names an invalid half")?;
            let unit = WorkUnit { lo, hi, half };
            if unit.is_unit_of(p) {
                Ok(unit)
            } else {
                Err("assignment names a unit outside the ring")
            }
        })
        .collect()
}

fn encode_rank_results(pooled: &PooledNull, candidates: &[Candidate]) -> Bytes {
    let (count, mean, m2, max) = pooled.raw_parts();
    let mut buf = BytesMut::with_capacity(32 + 4 + candidates.len() * 16);
    buf.put_u64_le(count);
    buf.put_f64_le(mean);
    buf.put_f64_le(m2);
    buf.put_f64_le(max);
    buf.put_u32_le(candidates.len() as u32);
    for c in candidates {
        buf.put_u32_le(c.i);
        buf.put_u32_le(c.j);
        buf.put_f64_le(c.observed);
    }
    buf.freeze()
}

fn decode_rank_results(mut bytes: Bytes) -> Share {
    let count = bytes.get_u64_le();
    let mean = bytes.get_f64_le();
    let m2 = bytes.get_f64_le();
    let max = bytes.get_f64_le();
    let pooled = PooledNull::from_raw_parts(count, mean, m2, max);
    let c = bytes.get_u32_le() as usize;
    let mut candidates = Vec::with_capacity(c);
    for _ in 0..c {
        let i = bytes.get_u32_le();
        let j = bytes.get_u32_le();
        let observed = bytes.get_f64_le();
        candidates.push(Candidate { i, j, observed });
    }
    assert!(!bytes.has_remaining(), "trailing bytes in rank results");
    (pooled, candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Endpoint;
    use crate::live::TelemetrySpec;
    use crate::protocol::{redistribute, unit_owner, work_units};
    use gnet_core::infer_network;
    use gnet_expr::synth::{coupled_pairs, Coupling};
    use gnet_fault::FaultPlan;
    use gnet_grnsim::{GrnConfig, SyntheticDataset};

    fn cfg() -> InferenceConfig {
        InferenceConfig {
            permutations: 12,
            threads: Some(1),
            tile_size: Some(8),
            ..InferenceConfig::default()
        }
    }

    #[test]
    fn block_ranges_partition_the_genes() {
        for (n, p) in [(10usize, 3usize), (7, 7), (100, 8), (5, 5), (16, 4)] {
            let mut covered = 0;
            let mut prev_end = 0;
            for r in 0..p {
                let (s, e) = block_range(n, p, r);
                assert_eq!(s, prev_end, "blocks must be contiguous");
                assert!(e > s, "every rank needs at least one gene (n={n}, p={p})");
                covered += e - s;
                prev_end = e;
            }
            assert_eq!(covered, n);
        }
    }

    /// The gene pairs `(i, j)`, `i < j`, a work unit covers among `n`
    /// genes on `p` ranks.
    fn unit_gene_pairs(unit: WorkUnit, n: usize, p: usize) -> Vec<(usize, usize)> {
        let (xs, xe) = block_range(n, p, unit.lo);
        if unit.lo == unit.hi {
            return (xs..xe)
                .flat_map(|i| (i + 1..xe).map(move |j| (i, j)))
                .collect();
        }
        let (ys, ye) = block_range(n, p, unit.hi);
        let (hs, he) = unit.half.range(ye - ys);
        (xs..xe)
            .flat_map(|i| (ys + hs..ys + he).map(move |j| (i, j)))
            .collect()
    }

    #[test]
    fn work_units_cover_every_gene_pair_once_with_equal_load() {
        for p in 1..=8usize {
            for n in [p, 2 * p + 1, 97, 300] {
                let mut seen = vec![0u8; n * n];
                let mut load = vec![0usize; p];
                for unit in work_units(p) {
                    let owner = unit_owner(unit, p);
                    for (i, j) in unit_gene_pairs(unit, n, p) {
                        assert!(i < j, "p={p} n={n} {unit}: ({i},{j})");
                        seen[i * n + j] += 1;
                        load[owner] += 1;
                    }
                }
                for i in 0..n {
                    for j in i + 1..n {
                        assert_eq!(seen[i * n + j], 1, "p={p} n={n}: pair ({i},{j})");
                    }
                }
                // Equal even blocks give equal loads; an odd block
                // splits one gene off-centre, and a block one gene
                // larger than another adds at most that gene's pairs.
                let skew = load.iter().max().unwrap() - load.iter().min().unwrap();
                let bound = match (n % p, n / p % 2, p % 2) {
                    (0, 1, 0) => n / p,
                    (0, _, _) => 0,
                    _ => n,
                };
                assert!(skew <= bound, "p={p} n={n}: gene-pair loads {load:?}");
            }
        }
    }

    #[test]
    fn two_rank_ring_computes_equal_gene_pairs_per_rank() {
        let (matrix, _) = coupled_pairs(150, 40, Coupling::Linear(0.8), 13);
        let config = InferenceConfig {
            permutations: 2,
            ..cfg()
        };
        let dist = infer_network_distributed(&matrix, &config, 2);
        let pairs: Vec<u64> = dist.rank_stats.iter().map(|s| s.pairs).collect();
        assert_eq!(pairs, vec![22_425, 22_425]);
    }

    #[test]
    fn distributed_matches_shared_memory_pipeline() {
        let (matrix, _) = coupled_pairs(6, 260, Coupling::Linear(0.85), 77);
        let shared = infer_network(&matrix, &cfg());
        for ranks in [1usize, 2, 3, 4, 6] {
            let dist = infer_network_distributed(&matrix, &cfg(), ranks);
            assert_eq!(
                dist.network.edge_count(),
                shared.network.edge_count(),
                "{ranks} ranks changed the edge count"
            );
            for (a, b) in dist.network.edges().iter().zip(shared.network.edges()) {
                assert_eq!(a.key(), b.key(), "{ranks} ranks changed the edges");
                assert!((a.weight - b.weight).abs() < 1e-5);
            }
            let total_pairs: u64 = dist.rank_stats.iter().map(|s| s.pairs).sum();
            assert_eq!(
                total_pairs, shared.stats.pairs,
                "{ranks} ranks: pair coverage"
            );
            assert!(dist.crashed_ranks.is_empty());
        }
    }

    #[test]
    fn knife_edge_pairs_do_not_flip_across_rank_counts() {
        // Weak couplings put many pairs near the threshold; any role-swap
        // in the permutation null (a bug this test exists to catch) flips
        // some of them between rank counts.
        let (matrix, _) = coupled_pairs(12, 180, Coupling::Linear(0.35), 321);
        let shared = infer_network(&matrix, &cfg());
        for ranks in [2usize, 3, 5, 8] {
            let dist = infer_network_distributed(&matrix, &cfg(), ranks);
            let a: Vec<_> = dist.network.edges().iter().map(|e| e.key()).collect();
            let b: Vec<_> = shared.network.edges().iter().map(|e| e.key()).collect();
            assert_eq!(a, b, "{ranks} ranks flipped a knife-edge pair");
            for (x, y) in dist.network.edges().iter().zip(shared.network.edges()) {
                assert_eq!(
                    x.weight, y.weight,
                    "{ranks} ranks: weights must be bit-identical under canonical orientation"
                );
            }
        }
    }

    #[test]
    fn distributed_works_on_grn_data_with_odd_ranks() {
        let ds = SyntheticDataset::generate(
            GrnConfig {
                genes: 21,
                samples: 150,
                ..GrnConfig::small()
            },
            5,
        );
        let shared = infer_network(&ds.matrix, &cfg());
        let dist = infer_network_distributed(&ds.matrix, &cfg(), 5);
        let a: Vec<_> = dist.network.edges().iter().map(|e| e.key()).collect();
        let b: Vec<_> = shared.network.edges().iter().map(|e| e.key()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn communication_volume_scales_with_rounds_not_pairs() {
        let (matrix, _) = coupled_pairs(8, 100, Coupling::Linear(0.8), 3);
        let dist = infer_network_distributed(&matrix, &cfg(), 4);
        for s in &dist.rank_stats {
            // Each rank ships its travelling block ⌊P/2⌋ times plus the
            // census/assignment traffic — single-digit message counts.
            assert!(
                s.messages <= 8,
                "rank {} sent {} messages",
                s.rank,
                s.messages
            );
            assert!(s.bytes_sent > 0);
        }
    }

    #[test]
    fn scalar_kernel_path_matches_too() {
        let (matrix, _) = coupled_pairs(4, 120, Coupling::Linear(0.9), 9);
        let scalar_cfg = InferenceConfig {
            kernel: MiKernel::ScalarSparse,
            ..cfg()
        };
        let shared = infer_network(&matrix, &scalar_cfg);
        let dist = infer_network_distributed(&matrix, &scalar_cfg, 3);
        let a: Vec<_> = dist.network.edges().iter().map(|e| e.key()).collect();
        let b: Vec<_> = shared.network.edges().iter().map(|e| e.key()).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "more ranks than genes")]
    fn too_many_ranks_rejected() {
        let (matrix, _) = coupled_pairs(2, 50, Coupling::Linear(0.5), 1);
        let _ = infer_network_distributed(&matrix, &cfg(), 10);
    }

    #[test]
    fn stale_block_frame_is_consumed_not_fatal() {
        // Regression pin for the PR-5 never-looping-receive bug: a
        // stale (earlier-round) TAG_BLOCK frame queued ahead of the
        // real one must be consumed by the receive loop, not mistaken
        // for a protocol failure (which would spuriously heal the ring
        // and abandon the real frame).
        let fabric = Fabric::new(2);
        let outputs = run_ranks_on(fabric, |ep| {
            if ep.rank() == 0 {
                // A delayed round-1 frame arrives ahead of round 2's.
                ep.send(1, frame(TAG_BLOCK, 1, b"stale"));
                ep.send(1, frame(TAG_BLOCK, 2, b"real"));
                return true;
            }
            // Rank 1 of a (virtual) 4-rank ring, already past round 1
            // and waiting on its round-2 block from rank 0.
            let mut machine = RankMachine::new(1, 4, Mutation::None);
            let (_, wait) = machine.step(ProtoEvent::Start);
            assert_eq!(wait, Wait::Recv { from: 0 });
            let (_, wait) =
                machine.step(ProtoEvent::Frame(ProtoFrame::Block { round: 1, block: 0 }));
            assert_eq!(wait, Wait::Recv { from: 0 });

            let mut block_payload = None;
            let mut pending_payload = None;
            let mut reason = "";
            let timeout = Duration::from_secs(5);
            // First receive surfaces the stale frame; the machine must
            // discard it silently and keep waiting on the same channel.
            let ev = recv_event(
                &ep,
                0,
                timeout,
                None,
                true,
                &mut block_payload,
                &mut pending_payload,
                &mut reason,
            );
            assert_eq!(
                ev,
                ProtoEvent::Frame(ProtoFrame::Block { round: 1, block: 0 })
            );
            let (fx, wait) = machine.step(ev);
            assert!(fx.is_empty(), "stale frame must have no effects: {fx:?}");
            assert_eq!(wait, Wait::Recv { from: 0 });
            // Second receive is the real round-2 frame — accepted.
            let ev = recv_event(
                &ep,
                0,
                timeout,
                None,
                true,
                &mut block_payload,
                &mut pending_payload,
                &mut reason,
            );
            // (Identity derives from the round stamp and the *fabric*
            // size — 2 ranks here — so it is 1, not the virtual ring's
            // 3; the machine only checks the round stamp.)
            assert_eq!(
                ev,
                ProtoEvent::Frame(ProtoFrame::Block { round: 2, block: 1 })
            );
            let (fx, _) = machine.step(ev);
            assert!(
                fx.contains(&Effect::AcceptBlock),
                "real frame must be accepted: {fx:?}"
            );
            assert_eq!(block_payload.as_deref(), Some(&b"real"[..]));
            true
        });
        assert_eq!(outputs, vec![true, true]);
    }

    // ---- failure-aware paths ----

    fn faulty_timeout() -> Duration {
        // Short enough to keep tests fast, long enough that a loaded CI
        // machine never times out a live peer.
        Duration::from_millis(500)
    }

    fn run_with_plan(
        matrix: &ExpressionMatrix,
        config: &InferenceConfig,
        ranks: usize,
        plan: &str,
        rec: &Recorder,
    ) -> Result<DistributedResult, ClusterError> {
        let options = DistributedOptions {
            faults: FaultInjector::from_plan(&FaultPlan::parse(plan).expect("test plan parses")),
            recorder: rec.clone(),
            peer_timeout: faulty_timeout(),
            ..DistributedOptions::default()
        };
        infer_network_distributed_with(matrix, config, ranks, &options)
    }

    fn edge_keys(net: &GeneNetwork) -> Vec<(u32, u32)> {
        net.edges().iter().map(|e| e.key()).collect()
    }

    #[test]
    fn one_crashed_rank_yields_the_same_edge_set() {
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 42);
        let baseline = infer_network_distributed(&matrix, &cfg(), 4);
        let rec = Recorder::enabled();
        // Rank 2 dies at the first ring round, before sending anything.
        let dist = run_with_plan(&matrix, &cfg(), 4, "seed=7;crash(rank=2,round=1)", &rec)
            .expect("non-coordinator crash must be survivable");
        assert_eq!(dist.crashed_ranks, vec![2]);
        assert!(dist.rank_stats[2].crashed);
        assert_eq!(
            edge_keys(&dist.network),
            edge_keys(&baseline.network),
            "recovery changed the inferred network"
        );
        // Coverage is preserved: the survivors' pairs plus the crashed
        // rank's wasted (recomputed) pairs add up to full coverage plus
        // exactly that waste — nothing is skipped, nothing double-counted.
        let n_pairs: u64 = baseline.rank_stats.iter().map(|s| s.pairs).sum();
        let wasted = dist.rank_stats[2].pairs;
        let total: u64 = dist.rank_stats.iter().map(|s| s.pairs).sum();
        assert_eq!(total, n_pairs + wasted, "pair coverage under recovery");
        let reassigned: usize = dist
            .rank_stats
            .iter()
            .map(|s| s.reassigned_block_pairs)
            .sum();
        assert!(reassigned > 0, "dead rank's block pairs must be reassigned");
        assert!(rec.counter(names::CNT_CRASHES_DETECTED).unwrap_or(0) >= 1);
        assert_eq!(rec.event_count(names::EVT_REDISTRIBUTED), 1);
    }

    #[test]
    fn crash_in_a_later_round_is_survivable_too() {
        let (matrix, _) = coupled_pairs(12, 120, Coupling::Linear(0.7), 5);
        let baseline = infer_network_distributed(&matrix, &cfg(), 6);
        let rec = Recorder::enabled();
        // Rank 5 completes round 1, then dies entering round 2: survivors
        // must heal the ring mid-rotation and recover its finished and
        // unfinished work alike.
        let dist = run_with_plan(&matrix, &cfg(), 6, "seed=7;crash(rank=5,round=2)", &rec)
            .expect("late crash must be survivable");
        assert_eq!(dist.crashed_ranks, vec![5]);
        assert_eq!(edge_keys(&dist.network), edge_keys(&baseline.network));
        assert!(rec.event_count(names::EVT_RING_HEALED) >= 1);
    }

    /// Forwards to a channel endpoint and records every frame sent.
    struct Tap {
        inner: Endpoint,
        sent: std::sync::Mutex<Vec<(usize, Bytes)>>,
    }

    impl Transport for Tap {
        fn rank(&self) -> usize {
            self.inner.rank()
        }

        fn size(&self) -> usize {
            self.inner.size()
        }

        fn send(&self, to: usize, payload: Bytes) {
            self.sent
                .lock()
                .expect("tap lock")
                .push((to, payload.clone()));
            self.inner.send(to, payload);
        }

        fn recv_timeout(&self, from: usize, timeout: Duration) -> Result<Bytes, RecvTimeoutError> {
            self.inner.recv_timeout(from, timeout)
        }

        fn faults(&self) -> &FaultInjector {
            self.inner.faults()
        }

        fn messages_sent(&self) -> u64 {
            Transport::messages_sent(&self.inner)
        }

        fn bytes_sent(&self) -> u64 {
            Transport::bytes_sent(&self.inner)
        }
    }

    /// The `Assign` frames one rank sent: destination and work units.
    type AssignLog = Vec<(usize, Vec<WorkUnit>)>;

    /// A channel-fabric run under `plan` that also returns, per rank,
    /// the work units of every `Assign` frame that rank sent.
    fn run_tapped(
        matrix: &ExpressionMatrix,
        ranks: usize,
        plan: &str,
    ) -> (DistributedResult, Vec<AssignLog>) {
        let faults = FaultInjector::from_plan(&FaultPlan::parse(plan).expect("test plan parses"));
        let outputs = run_ranks_on(Fabric::with_faults(ranks, faults), |ep| {
            let tap = Tap {
                inner: ep,
                sent: std::sync::Mutex::new(Vec::new()),
            };
            let out = RankSetup::new(tap.rank(), ranks, false, None).run(
                &tap,
                matrix,
                &cfg(),
                &Recorder::disabled(),
                faulty_timeout(),
            );
            let assigns: AssignLog = tap
                .sent
                .into_inner()
                .expect("tap lock")
                .into_iter()
                .filter_map(|(to, raw)| match parse_frame(raw) {
                    Some((TAG_ASSIGN, _, payload)) => Some((
                        to,
                        decode_assignment(payload, ranks).expect("sent assignments decode"),
                    )),
                    _ => None,
                })
                .collect();
            // Returning drops the endpoint: the death signal survivors see.
            (out, assigns)
        });
        let (outs, assigns): (Vec<_>, Vec<_>) = outputs.into_iter().unzip();
        (assemble_result(outs), assigns)
    }

    fn edge_file(net: &GeneNetwork) -> Vec<u8> {
        let mut bytes = Vec::new();
        gnet_graph::io::write_edge_list(net, &mut bytes).expect("edge list writes to memory");
        bytes
    }

    /// Kill `dead`, the higher rank of an antipodal pair, before it
    /// sends anything: the edge file must match the fault-free run byte
    /// for byte, and exactly the dead rank's work units — its half of
    /// the antipodal pair included, still a half — must be reassigned.
    fn antipodal_crash_recovers(ranks: usize, dead: usize) {
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 42);
        let baseline = infer_network_distributed(&matrix, &cfg(), ranks);
        let plan = format!("seed=7;crash(rank={dead},round=1)");
        let (dist, assigns) = run_tapped(&matrix, ranks, &plan);
        assert_eq!(dist.crashed_ranks, vec![dead]);
        assert_eq!(edge_file(&dist.network), edge_file(&baseline.network));

        let mut owned: Vec<WorkUnit> = work_units(ranks)
            .into_iter()
            .filter(|&u| unit_owner(u, ranks) == dead)
            .collect();
        assert!(owned.iter().any(|u| u.half == Half::Second), "{owned:?}");
        let expected = redistribute(ranks, &[dead]);
        let mut reassigned = expected.concat();
        reassigned.sort_unstable();
        owned.sort_unstable();
        assert_eq!(reassigned, owned, "exactly the dead rank's units move");
        // Rank 0 sends every other rank its list on the wire, halves
        // intact; its own list it computes in place.
        let sent: AssignLog = (1..ranks).map(|r| (r, expected[r].clone())).collect();
        assert_eq!(assigns[0], sent);
        if ranks > 2 {
            let on_wire = sent.iter().flat_map(|(_, units)| units);
            assert!(
                on_wire.into_iter().any(|u| u.half == Half::Second),
                "{sent:?}"
            );
        }
        for s in &dist.rank_stats {
            if s.rank != dead {
                assert_eq!(
                    s.reassigned_block_pairs,
                    expected[s.rank].len(),
                    "rank {}",
                    s.rank
                );
            }
        }
        // Gene-pair coverage: the survivors recompute exactly the dead
        // rank's pairs (a half stays a half), plus nothing else.
        let n = matrix.genes();
        let total: u64 = dist.rank_stats.iter().map(|s| s.pairs).sum();
        let wasted = dist.rank_stats[dead].pairs;
        assert_eq!(total, (n * (n - 1) / 2) as u64 + wasted);
    }

    #[test]
    fn crash_of_the_higher_antipodal_rank_of_two_reassigns_its_half() {
        antipodal_crash_recovers(2, 1);
    }

    #[test]
    fn crash_of_the_higher_antipodal_rank_of_four_reassigns_its_half() {
        antipodal_crash_recovers(4, 2);
    }

    #[test]
    fn assignment_codec_keeps_halves_and_rejects_malformed_frames() {
        let units = redistribute(4, &[2]).concat();
        let bytes = encode_assignment(&units);
        assert_eq!(decode_assignment(bytes.clone(), 4), Ok(units));
        let mut raw = bytes.to_vec();
        raw[4 + 8] = 7; // first unit's half byte
        assert_eq!(
            decode_assignment(Bytes::from(raw.clone()), 4),
            Err("assignment names an invalid half")
        );
        raw.pop();
        assert_eq!(
            decode_assignment(Bytes::from(raw), 4),
            Err("assignment frame length mismatch")
        );
        assert_eq!(
            decode_assignment(Bytes::from_static(&[1, 0]), 4),
            Err("assignment frame too short")
        );
        assert_eq!(
            decode_assignment(Bytes::from_static(&[0xff, 0xff, 0xff, 0xff]), 4),
            Err("assignment frame length mismatch")
        );
        // A whole antipodal pair, a half of a pair that is not split,
        // and a block past the ring are not units of a 4-rank ring.
        for unit in [
            WorkUnit::new(0, 2, Half::Whole),
            WorkUnit::new(0, 1, Half::First),
            WorkUnit::new(0, 4, Half::Whole),
        ] {
            assert_eq!(
                decode_assignment(encode_assignment(&[unit]), 4),
                Err("assignment names a unit outside the ring"),
                "{unit}"
            );
        }
        // On the wire, a malformed assignment is a lost frame, not a
        // panic: the receiver times out and the coordinator's backstop
        // recomputes the share.
        let mut eps = Fabric::new(2).into_endpoints();
        let (e1, e0) = (eps.pop().expect("rank 1"), eps.pop().expect("rank 0"));
        let mut bad = encode_assignment(&[WorkUnit::new(0, 1, Half::First)]).to_vec();
        bad[12] = 9;
        e0.send(1, frame(TAG_ASSIGN, 0, &bad));
        let (mut block_payload, mut pending_payload, mut reason) = (None, None, "");
        let ev = recv_event(
            &e1,
            0,
            Duration::from_secs(5),
            None,
            false,
            &mut block_payload,
            &mut pending_payload,
            &mut reason,
        );
        assert_eq!(ev, ProtoEvent::Timeout);
        assert_eq!(reason, "assignment names an invalid half");
    }

    #[test]
    fn two_dead_ranks_still_converge() {
        let (matrix, _) = coupled_pairs(8, 140, Coupling::Linear(0.75), 11);
        let baseline = infer_network_distributed(&matrix, &cfg(), 4);
        let rec = Recorder::enabled();
        let dist = run_with_plan(
            &matrix,
            &cfg(),
            4,
            "seed=7;crash(rank=1,round=1);crash(rank=3,round=2)",
            &rec,
        )
        .expect("two non-coordinator crashes must be survivable");
        assert_eq!(dist.crashed_ranks, vec![1, 3]);
        assert_eq!(edge_keys(&dist.network), edge_keys(&baseline.network));
    }

    #[test]
    fn dropped_results_frame_degrades_to_recomputation_not_corruption() {
        let (matrix, _) = coupled_pairs(6, 160, Coupling::Linear(0.8), 23);
        let baseline = infer_network_distributed(&matrix, &cfg(), 3);
        let rec = Recorder::enabled();
        // Rank 2's ring frame (its 1st message on the 2→0 edge) survives
        // but its RESULTS frame (the 2nd) is dropped — it is presumed
        // dead while alive, and its work is recomputed by the survivors.
        let dist = run_with_plan(&matrix, &cfg(), 3, "seed=7;drop(from=2,to=0,nth=1)", &rec)
            .expect("a lost results frame must be survivable");
        assert_eq!(dist.crashed_ranks, vec![2]);
        assert!(!dist.rank_stats[2].crashed, "rank 2 never actually died");
        assert_eq!(edge_keys(&dist.network), edge_keys(&baseline.network));
    }

    #[test]
    fn coordinator_crash_plans_are_rejected_up_front() {
        let (matrix, _) = coupled_pairs(4, 100, Coupling::Linear(0.8), 2);
        let rec = Recorder::disabled();
        let err = run_with_plan(&matrix, &cfg(), 4, "seed=7;crash(rank=0,round=1)", &rec)
            .expect_err("rank-0 crash has no recovery path");
        assert_eq!(err, ClusterError::CoordinatorCrash { round: 1 });
        let msg = err.to_string();
        assert!(msg.contains("rank 0"), "error must name the coordinator");
    }

    // ---- per-rank tracing ----

    #[test]
    fn traced_run_writes_per_rank_streams_and_manifest() {
        let (matrix, _) = coupled_pairs(8, 120, Coupling::Linear(0.8), 17);
        let dir = std::env::temp_dir().join(format!(
            "gnet-cluster-trace-{}-{}",
            std::process::id(),
            line!()
        ));
        let baseline = infer_network_distributed(&matrix, &cfg(), 4);
        let options = DistributedOptions {
            trace_dir: Some(&dir),
            ..DistributedOptions::default()
        };
        let dist = infer_network_distributed_with(&matrix, &cfg(), 4, &options)
            .expect("traced fault-free run succeeds");
        // Tracing must not perturb the result.
        assert_eq!(edge_keys(&dist.network), edge_keys(&baseline.network));

        let manifest =
            std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
        assert!(manifest.contains("\"gnet-trace-manifest\""), "{manifest}");
        assert!(manifest.contains("\"ranks\":4"), "{manifest}");
        for r in 0..4 {
            assert!(
                manifest.contains(&format!("\"rank-{r}.ndjson\"")),
                "{manifest}"
            );
            let text = std::fs::read_to_string(dir.join(format!("rank-{r}.ndjson")))
                .expect("rank stream written");
            let meta = text.lines().next().expect("meta line");
            assert!(meta.contains(&format!("\"rank\":{r}")), "{meta}");
            assert!(meta.contains("\"clock_offset_us\":"), "{meta}");
            assert!(text.contains("\"rank.prep\""), "rank {r}: {text}");
            assert!(text.contains("\"rank.diag\""), "rank {r}");
            assert!(text.contains("\"clock.sync\""), "rank {r}");
            assert!(text.contains("\"rank.done\""), "rank {r}");
            // 4 ranks → 2 ring rounds, each a span.
            assert!(text.contains("\"rank.round.1\""), "rank {r}");
            assert!(text.contains("\"rank.round.2\""), "rank {r}");
        }
        // Rank 0 anchors the timebase.
        assert_eq!(dist.rank_stats[0].clock_offset_us, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_run_survives_a_crash_and_still_writes_all_streams() {
        let (matrix, _) = coupled_pairs(6, 160, Coupling::Linear(0.8), 42);
        let dir = std::env::temp_dir().join(format!(
            "gnet-cluster-trace-{}-{}",
            std::process::id(),
            line!()
        ));
        let baseline = infer_network_distributed(&matrix, &cfg(), 4);
        let plan = FaultPlan::parse("seed=7;crash(rank=2,round=1)").expect("plan parses");
        let options = DistributedOptions {
            faults: FaultInjector::from_plan(&plan),
            recorder: Recorder::enabled(),
            peer_timeout: faulty_timeout(),
            trace_dir: Some(&dir),
            ..DistributedOptions::default()
        };
        let dist = infer_network_distributed_with(&matrix, &cfg(), 4, &options)
            .expect("crash is survivable under tracing");
        assert_eq!(dist.crashed_ranks, vec![2]);
        assert_eq!(edge_keys(&dist.network), edge_keys(&baseline.network));
        // The crashed rank still leaves a (partial) stream behind.
        let text =
            std::fs::read_to_string(dir.join("rank-2.ndjson")).expect("partial stream written");
        assert!(text.contains("\"rank.crashed\""), "{text}");
        let manifest =
            std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
        assert!(manifest.contains("\"crashed_ranks\":[2]"), "{manifest}");
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- TCP transport acceptance ----

    #[test]
    fn tcp_survives_the_acceptance_plan_crash_plus_midframe_cut() {
        // The PR's acceptance scenario: a 4-rank loopback-TCP run where
        // one rank is killed mid-round AND a first frame on the 3→0 edge
        // is cut mid-frame (truncated, connection severed) must still be
        // byte-identical to the fault-free run.
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 42);
        let baseline = infer_network_distributed(&matrix, &cfg(), 4);
        let plan = FaultPlan::parse("seed=7;crash(rank=2,round=1);cut(from=3,to=0,nth=1)")
            .expect("acceptance plan parses");
        let rec = Recorder::enabled();
        let options = DistributedOptions {
            transport: RingTransport::Tcp,
            faults: FaultInjector::from_plan_traced(&plan, &rec),
            recorder: rec.clone(),
            peer_timeout: faulty_timeout(),
            ..DistributedOptions::default()
        };
        let dist = infer_network_distributed_with(&matrix, &cfg(), 4, &options)
            .expect("crash + mid-frame cut must be survivable over TCP");
        // Rank 2 died; rank 3's severed edge makes the census presume it
        // dead too (its RESULTS can never reach rank 0).
        assert_eq!(dist.crashed_ranks, vec![2, 3]);
        assert_eq!(
            edge_keys(&dist.network),
            edge_keys(&baseline.network),
            "recovery under TCP faults changed the inferred network"
        );
        for (x, y) in dist.network.edges().iter().zip(baseline.network.edges()) {
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
        assert!(
            rec.event_count(names::EVT_FRAME_CUT) >= 1,
            "the cut must have fired"
        );
    }

    /// One scenario of the single driver, run over both transports.
    struct Case {
        ranks: usize,
        plan: &'static str,
        crashed: &'static [usize],
        traced: bool,
        live: bool,
    }

    #[test]
    fn one_driver_gives_identical_results_over_both_transports() {
        let (matrix, _) = coupled_pairs(6, 220, Coupling::Linear(0.8), 42);
        let root = std::env::temp_dir().join(format!(
            "gnet-cluster-driver-{}-{}",
            std::process::id(),
            line!()
        ));
        let plain = |ranks| Case {
            ranks,
            plan: "",
            crashed: &[],
            traced: false,
            live: false,
        };
        let cases = [
            plain(1),
            plain(2),
            plain(3),
            plain(4),
            Case {
                plan: "seed=7;crash(rank=1,round=1)",
                crashed: &[1],
                ..plain(2)
            },
            Case {
                plan: "seed=7;crash(rank=2,round=1)",
                crashed: &[2],
                ..plain(4)
            },
            Case {
                traced: true,
                ..plain(4)
            },
            Case {
                live: true,
                ..plain(3)
            },
        ];
        let pairs = (matrix.genes() * (matrix.genes() - 1) / 2) as u64;
        for (k, case) in cases.iter().enumerate() {
            let plain_run = infer_network_distributed(&matrix, &cfg(), case.ranks);
            let baseline = edge_file(&plain_run.network);
            let mut thresholds = Vec::new();
            for transport in [RingTransport::Channel, RingTransport::Tcp] {
                let label = format!("case {k} ({} ranks) over {transport:?}", case.ranks);
                let dir = root.join(format!("{k}-{transport:?}"));
                let spec = TelemetrySpec::with_interval(Duration::from_millis(5));
                let mut plane = case.live.then(|| {
                    TelemetryPlane::start(&spec, case.ranks, pairs).expect("plane starts")
                });
                let faults = if case.plan.is_empty() {
                    FaultInjector::none()
                } else {
                    FaultInjector::from_plan(&FaultPlan::parse(case.plan).expect("plan parses"))
                };
                let options = DistributedOptions {
                    transport,
                    faults,
                    peer_timeout: if case.plan.is_empty() {
                        DEFAULT_PEER_TIMEOUT
                    } else {
                        faulty_timeout()
                    },
                    trace_dir: case.traced.then_some(dir.as_path()),
                    live: plane.as_ref(),
                    ..DistributedOptions::default()
                };
                let run = infer_network_distributed_with(&matrix, &cfg(), case.ranks, &options)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(edge_file(&run.network), baseline, "{label}: edge file");
                assert_eq!(run.crashed_ranks, case.crashed, "{label}");
                if case.plan.is_empty() {
                    // Neither tracing nor the live plane perturbs the
                    // pooled null.
                    assert_eq!(
                        run.threshold.to_bits(),
                        plain_run.threshold.to_bits(),
                        "{label}"
                    );
                }
                thresholds.push(run.threshold.to_bits());
                if case.traced {
                    let manifest = std::fs::read_to_string(dir.join("manifest.json"))
                        .expect("manifest written");
                    for r in 0..case.ranks {
                        assert!(
                            manifest.contains(&format!("\"rank-{r}.ndjson\"")),
                            "{label}"
                        );
                        let text = std::fs::read_to_string(dir.join(format!("rank-{r}.ndjson")))
                            .expect("rank stream written");
                        // TCP streams also carry the rank's transport
                        // counters, for attributing network stalls.
                        for counter in
                            ["tcp.frames_sent", "tcp.frames_recv", "tcp.frame_bytes_sent"]
                        {
                            let present = text.contains(&format!("\"name\":\"{counter}\""));
                            assert_eq!(
                                present,
                                transport == RingTransport::Tcp,
                                "{label}: {counter}"
                            );
                        }
                    }
                }
                if let Some(plane) = plane.as_mut() {
                    plane.finish().expect("no status file to fail on");
                    let view = plane.view();
                    let v = crate::live::lock_view(&view);
                    assert!(v.is_done(), "{label}: finish freezes the view as done");
                    assert!(v.pairs_done() > 0, "{label}: beats carried pair progress");
                    for r in v.ranks() {
                        assert!(r.beats >= 1, "{label}: rank {} never beat", r.rank);
                    }
                }
            }
            assert_eq!(thresholds[0], thresholds[1], "case {k}: thresholds differ");
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
