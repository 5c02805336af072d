//! The two workloads: shapes, set-up, the measured operation, and the
//! reference each operation's edge set is checked against.
//!
//! Every workload is a closed loop with one client: operations run back
//! to back, one at a time, each from input file to output file. Inputs
//! come from a `gnet-grnsim` scale-free matrix (the `arabidopsis_like`
//! topology and kinetics at a reduced shape) drawn from the seed given on
//! the command line; the program receives only the generated file. Every
//! workload evaluates all `q` nulls of every pair, so the work an
//! operation does depends on its shape, not on the seed.

use gnet_cluster::infer_network_distributed_tcp;
use gnet_core::{build_state, infer_network, InferenceConfig, RunStats};
use gnet_expr::io::{read_tsv, write_tsv};
use gnet_expr::{ExpressionMatrix, MissingPolicy};
use gnet_graph::io::write_edge_list;
use gnet_graph::GeneNetwork;
use gnet_grnsim::{GrnConfig, SyntheticDataset};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `read_tsv` → `infer_network` (exact nulls) → `write_edge_list`: the
    /// q+1 joint/entropy loop is ~97 % of the time.
    BatchExact,
    /// `read_tsv` → 2-rank ring over loopback TCP → `write_edge_list`: the
    /// only workload through the cluster codec, ring and framing.
    RingTcp2,
}

/// Matrix shape and permutation count of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub genes: usize,
    pub samples: usize,
    pub permutations: usize,
}

impl Shape {
    /// Pairs one operation evaluates: all `n(n−1)/2`.
    pub fn pairs_per_op(&self) -> u64 {
        let n = self.genes as u64;
        n * (n - 1) / 2
    }
}

impl Workload {
    pub const ALL: [Workload; 2] = [Self::BatchExact, Self::RingTcp2];

    pub fn name(self) -> &'static str {
        match self {
            Self::BatchExact => "batch-exact",
            Self::RingTcp2 => "ring-tcp-2",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn shape(self) -> Shape {
        match self {
            Self::BatchExact => Shape {
                genes: 150,
                samples: 1_000,
                permutations: 30,
            },
            Self::RingTcp2 => Shape {
                genes: 300,
                samples: 600,
                permutations: 10,
            },
        }
    }

    /// The paper's operating point (b = 10, k = 3, α = 0.01, exact nulls,
    /// vector kernel, dynamic scheduler) at this workload's `q`.
    pub fn config(self, threads: usize) -> InferenceConfig {
        InferenceConfig {
            permutations: self.shape().permutations,
            threads: Some(threads),
            ..InferenceConfig::default()
        }
    }
}

/// The files of one run, in its work directory.
pub struct Inputs {
    pub dir: PathBuf,
    /// The generated matrix.
    pub matrix_tsv: PathBuf,
    /// Where each operation writes its edge list.
    pub edges_tsv: PathBuf,
}

impl Inputs {
    pub fn in_dir(dir: &Path) -> Self {
        Self {
            dir: dir.to_path_buf(),
            matrix_tsv: dir.join("matrix.tsv"),
            edges_tsv: dir.join("edges.tsv"),
        }
    }
}

/// Generate the matrix of `w` from `seed` and write it as a TSV into
/// `inputs.dir`.
pub fn setup(w: Workload, seed: u64, inputs: &Inputs) -> Result<(), String> {
    std::fs::create_dir_all(&inputs.dir).map_err(|e| format!("create work dir: {e}"))?;
    let shape = w.shape();
    let ds = SyntheticDataset::generate(
        GrnConfig {
            genes: shape.genes,
            samples: shape.samples,
            ..GrnConfig::arabidopsis_like()
        },
        seed,
    );
    let path = &inputs.matrix_tsv;
    let f = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = BufWriter::new(f);
    write_tsv(&ds.matrix, &mut out).map_err(|e| format!("write {}: {e}", path.display()))?;
    out.flush()
        .map_err(|e| format!("flush {}: {e}", path.display()))
}

/// Read a matrix TSV the way the `gnet` CLI does.
pub fn read_matrix(path: &Path) -> Result<ExpressionMatrix, String> {
    let f = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_tsv(f, true, MissingPolicy::MeanImpute)
        .map_err(|e| format!("read {}: {e}", path.display()))
}

pub fn write_edges(net: &GeneNetwork, path: &Path) -> Result<(), String> {
    let f = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(f);
    write_edge_list(net, &mut w).map_err(|e| format!("write {}: {e}", path.display()))?;
    w.flush()
        .map_err(|e| format!("flush {}: {e}", path.display()))
}

/// What one operation produced.
pub struct OpOut {
    pub digest: u64,
    pub edges: usize,
    /// Pairs evaluated.
    pub pairs: u64,
    /// Run statistics of the shared-memory pipeline (`BatchExact`).
    pub run: Option<RunStats>,
}

impl OpOut {
    fn new(network: &GeneNetwork, pairs: u64, run: Option<RunStats>) -> Self {
        Self {
            digest: edge_digest(network),
            edges: network.edge_count(),
            pairs,
            run,
        }
    }
}

/// One operation of `w`, from input file to output file, through the
/// public API `gnet infer` calls.
pub fn run_op(w: Workload, inputs: &Inputs, cfg: &InferenceConfig) -> Result<OpOut, String> {
    let m = read_matrix(&inputs.matrix_tsv)?;
    let (net, pairs, run) = match w {
        Workload::BatchExact => {
            let r = infer_network(&m, cfg);
            (r.network, r.stats.pairs, Some(r.stats))
        }
        Workload::RingTcp2 => {
            let r = infer_network_distributed_tcp(&m, cfg, 2).map_err(|e| e.to_string())?;
            let pairs = r.rank_stats.iter().map(|s| s.pairs).sum();
            (r.network, pairs, None)
        }
    };
    write_edges(&net, &inputs.edges_tsv)?;
    Ok(OpOut::new(&net, pairs, run))
}

/// The reference edge set of `w` on `matrix`, from a different driver
/// than the measured one. Same kernel, so the values — and hence the edge
/// set — match bit for bit:
/// - `BatchExact`: the serial canonical-order scan of `build_state`;
/// - `RingTcp2`: the shared-memory pipeline on the same matrix.
pub fn reference(w: Workload, matrix: &ExpressionMatrix, cfg: &InferenceConfig) -> Reference {
    let net = match w {
        Workload::BatchExact => build_state(matrix, cfg).network(),
        Workload::RingTcp2 => infer_network(matrix, cfg).network,
    };
    Reference {
        digest: edge_digest(&net),
        edges: net.edge_count(),
    }
}

pub struct Reference {
    pub digest: u64,
    pub edges: usize,
}

/// FNV-1a 64 over the sorted `(a, b)` endpoints, little-endian u32 each.
/// Weights are left out: they differ in the last digits across SIMD
/// backends, while the edge set does not.
pub fn edge_digest(net: &GeneNetwork) -> u64 {
    let mut keys: Vec<(u32, u32)> = net.edges().iter().map(|e| (e.a, e.b)).collect();
    keys.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (a, b) in keys {
        for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Reference digests recorded per workload and seed (see
/// `references.txt`): `(digest, edges)`.
pub fn recorded(w: Workload, seed: u64) -> Option<(u64, usize)> {
    include_str!("../references.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (name, s, digest, edges) = (f.next()?, f.next()?, f.next()?, f.next()?);
        if name != w.name() || s.parse::<u64>().ok()? != seed {
            return None;
        }
        let digest = u64::from_str_radix(digest.trim_start_matches("0x"), 16).ok()?;
        Some((digest, edges.parse().ok()?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnet_graph::Edge;

    #[test]
    fn digest_covers_endpoints_not_weights_or_order() {
        let net = |edges: Vec<Edge>| GeneNetwork::from_edges(4, Vec::new(), edges);
        let a = net(vec![Edge::new(0, 1, 0.5), Edge::new(2, 3, 0.25)]);
        let b = net(vec![Edge::new(3, 2, 0.9), Edge::new(1, 0, 0.1)]);
        let c = net(vec![Edge::new(0, 2, 0.5), Edge::new(2, 3, 0.25)]);
        assert_eq!(edge_digest(&a), edge_digest(&b));
        assert_ne!(edge_digest(&a), edge_digest(&c));
        // FNV-1a 64 of no bytes is its offset basis.
        assert_eq!(edge_digest(&net(Vec::new())), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn pairs_per_op_follow_the_shapes() {
        assert_eq!(Workload::BatchExact.shape().pairs_per_op(), 11_175);
        assert_eq!(Workload::RingTcp2.shape().pairs_per_op(), 44_850);
    }

    #[test]
    fn default_and_held_out_seeds_are_recorded() {
        for w in Workload::ALL {
            for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
                assert!(recorded(w, seed).is_some(), "{} seed {seed}", w.name());
            }
        }
    }
}
