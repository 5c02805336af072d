//! End-to-end backend equivalence for the MI kernels: the vector kernel
//! forced onto each supported dispatch backend (emulated / AVX2 / AVX-512)
//! must agree with the scalar sparse kernel within the conformance
//! harness's kernel-oracle grade (≤ 2e-4 nats), and the backends must
//! agree with *each other* even more tightly (the only cross-backend
//! difference is `xlogx_sum`'s vectorized `ln`, a few ULP per grid cell).

use gnet_bspline::BsplineBasis;
use gnet_expr::normalize::rank_transform_profile;
use gnet_mi::entropy::entropy_nats;
use gnet_mi::sparse_kernel;
use gnet_mi::vector_kernel::{mi, mi_permuted, VectorGrid};
use gnet_simd::dispatch::{with_forced, Backend};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// End-to-end agreement bound between any two backends (nats). Tighter
/// than the 2e-4 scalar-vs-vector oracle: the joint grids are bitwise
/// identical, only the entropy's log differs.
const CROSS_BACKEND_TOL: f64 = 1e-5;

/// Scalar-vs-vector grade, from the conformance kernel oracle.
const SCALAR_ORACLE_TOL: f64 = 2e-4;

fn profiles(seed: u64, m: usize) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<f32> = (0..m).map(|_| rng.gen::<f32>()).collect();
    let b: Vec<f32> = (0..m).map(|_| rng.gen::<f32>()).collect();
    (a, b)
}

fn mi_all_backends(
    seed: u64,
    m: usize,
    order: usize,
    permuted: bool,
) -> (f64, Vec<(Backend, f64)>) {
    let basis = BsplineBasis::new(order, 10);
    let (a, b) = profiles(seed, m);
    let x = gnet_bspline::SparseWeights::from_normalized(&rank_transform_profile(&a), &basis);
    let y = gnet_bspline::SparseWeights::from_normalized(&rank_transform_profile(&b), &basis);
    let hx = entropy_nats(&x.marginal());
    let hy = entropy_nats(&y.marginal());
    let perm: Vec<u32> = (0..u32::try_from(m).expect("m fits u32")).rev().collect();

    let mut sgrid = vec![0.0; 100];
    let scalar = if permuted {
        sparse_kernel::mi_permuted(&x, &y, &perm, hx, hy, &mut sgrid)
    } else {
        sparse_kernel::mi(&x, &y, hx, hy, &mut sgrid)
    };

    let yd = y.to_dense();
    let per_backend = Backend::supported()
        .into_iter()
        .map(|backend| {
            let v = with_forced(backend, || {
                let mut vgrid = VectorGrid::for_dense(&yd);
                if permuted {
                    mi_permuted(&x, &yd, &perm, hx, hy, &mut vgrid)
                } else {
                    mi(&x, &yd, hx, hy, &mut vgrid)
                }
            })
            .expect("supported backend must force cleanly");
            (backend, v)
        })
        .collect();
    (scalar, per_backend)
}

#[test]
fn every_backend_matches_scalar_within_oracle_grade() {
    for (seed, m, order) in [
        (1u64, 100, 3),
        (2, 333, 3),
        (3, 64, 4),
        (4, 17, 1),
        (5, 128, 2),
    ] {
        for permuted in [false, true] {
            let (scalar, per_backend) = mi_all_backends(seed, m, order, permuted);
            for &(backend, v) in &per_backend {
                assert!(
                    (scalar - v).abs() < SCALAR_ORACLE_TOL,
                    "m={m} order={order} permuted={permuted}: scalar {scalar} vs {backend} {v}"
                );
            }
            for w in per_backend.windows(2) {
                assert!(
                    (w[0].1 - w[1].1).abs() < CROSS_BACKEND_TOL,
                    "m={m} order={order} permuted={permuted}: {} {} vs {} {}",
                    w[0].0,
                    w[0].1,
                    w[1].0,
                    w[1].1
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24)
        .with_persistence("proptest-regressions/backend_equivalence.txt"))]

    #[test]
    fn prop_backends_agree_end_to_end(
        seed in 0u64..500,
        m in 2usize..150,
        order in 1usize..=4,
    ) {
        let (scalar, per_backend) = mi_all_backends(seed, m, order, false);
        for &(backend, v) in &per_backend {
            prop_assert!(
                (scalar - v).abs() < SCALAR_ORACLE_TOL,
                "scalar {} vs {} {}", scalar, backend, v
            );
        }
        for w in per_backend.windows(2) {
            prop_assert!(
                (w[0].1 - w[1].1).abs() < CROSS_BACKEND_TOL,
                "{} {} vs {} {}", w[0].0, w[0].1, w[1].0, w[1].1
            );
        }
    }
}
