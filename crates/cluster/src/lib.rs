//! Simulated cluster substrate and the distributed network construction.
//!
//! The paper positions its single-chip solution against the original
//! distributed TINGe, which reconstructed the same Arabidopsis network on
//! 1,024 Blue Gene/L cores using MPI. No MPI (or second machine) exists
//! in this environment, so — per the substitution rule in DESIGN.md — this
//! crate builds the closest synthetic equivalent:
//!
//! * [`comm`] — an in-process message-passing fabric: `P` ranks as
//!   threads, reliable ordered point-to-point byte channels between every
//!   pair, and the collectives the algorithm needs (barrier, broadcast,
//!   gather, ring shift), with per-endpoint traffic accounting;
//! * [`codec`] — a compact wire format for blocks of prepared genes
//!   (the sparse B-spline weight matrices TINGe ships between ranks);
//! * [`distributed`] — the TINGe-style algorithm: genes block-distributed
//!   over ranks, ring-pass of gene blocks so each work unit (a block
//!   pair, or half of an antipodal one) is computed by exactly one owner
//!   rank, through the shared-memory pipeline's L2 tile loop
//!   ([`gnet_core::pipeline::process_tile`]), mergeable pooled-null
//!   reduction to rank 0, and a final gather of candidate edges.
//!
//! There are three in-process entry points: the fault-free
//! [`infer_network_distributed`] (channels) and
//! [`infer_network_distributed_tcp`] (loopback TCP), and
//! [`infer_network_distributed_with`], which takes one
//! [`DistributedOptions`] value — transport, fault injector, recorder,
//! peer timeout, trace directory and live plane — and is the single
//! driver both conveniences call. [`process`] runs the same rank loop
//! across processes ([`serve_coordinator`], [`run_worker`]).
//!
//! The distributed result is bit-identical in edge structure to the
//! shared-memory pipeline (asserted in tests across rank counts), which
//! is the property that makes the paper's single-chip-vs-cluster
//! comparison an apples-to-apples one.
//!
//! The fabric and driver are failure-aware: receives are bounded
//! ([`Endpoint::recv_timeout`]), a [`gnet_fault::FaultInjector`] can
//! crash ranks and drop or delay frames ([`Fabric::with_faults`]), and
//! the driver recovers from any non-coordinator loss with the same edge
//! set as the fault-free run (see [`distributed`] module docs).

// cast-ok (crate-wide): the wire format carries u32 lengths/ids and f32
// edge weights by design; block sizes and gene counts are bounded far
// below u32::MAX, so the narrowing casts are the intended representation.
#![allow(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

pub mod codec;
pub mod comm;
pub mod distributed;
pub mod live;
pub mod process;
pub mod protocol;
pub mod tcp;
pub mod transport;

pub use codec::CodecError;
pub use comm::{run_ranks, run_ranks_on, CommStats, Endpoint, Fabric, RecvTimeoutError};
pub use distributed::{
    infer_network_distributed, infer_network_distributed_tcp, infer_network_distributed_with,
    ClusterError, DistributedOptions, DistributedResult, RankStats, RingTransport,
    DEFAULT_PEER_TIMEOUT,
};
pub use live::{TelemetryPlane, TelemetrySpec};
pub use process::{run_worker, serve_coordinator, WorkerReport};
pub use protocol::{
    block_range, redistribute, unit_owner, work_units, Effect, Event, Frame, Half, Mutation, Phase,
    RankMachine, Wait, WorkUnit,
};
pub use tcp::{run_ranks_tcp, RetryPolicy, TcpCounters, TcpTransport};
pub use transport::Transport;
