//! Property-style tests of the tensor substrate: algebraic identities
//! checked over many seeded random cases. The case generator is the
//! repo's own deterministic [`Rng`], so every run exercises exactly the
//! same inputs — a failure here reproduces on the first rerun.

use mtsr_tensor::conv::{
    conv2d_backward_data, conv2d_forward, conv_transpose2d_forward, Conv2dSpec,
};
use mtsr_tensor::matmul::{matmul, matmul_naive, sgemm, sgemm_acc};
use mtsr_tensor::pack::{MR, NR};
use mtsr_tensor::{Rng, Shape, Tensor};

const CASES: u64 = 48;

/// One deterministic generator per (test, case) pair so tests stay
/// independent of each other and of execution order.
fn case_rng(test_id: u64, case: u64) -> Rng {
    Rng::seed_from(test_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case)
}

fn uniform_vec(rng: &mut Rng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.uniform(lo, hi)).collect()
}

/// Elementwise addition is commutative and subtraction its inverse.
#[test]
fn add_commutes_and_sub_inverts() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let n = rng.below(63) + 1;
        let a = Tensor::from_vec([n], uniform_vec(&mut rng, n, -1e3, 1e3)).expect("shape");
        let b = Tensor::from_vec([n], uniform_vec(&mut rng, n, -1e3, 1e3)).expect("shape");
        let ab = a.add(&b).expect("add");
        let ba = b.add(&a).expect("add");
        assert_eq!(ab.as_slice(), ba.as_slice());
        let back = ab.sub(&b).expect("sub");
        for (x, y) in back.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-3, "case {case}: {x} vs {y}");
        }
    }
}

/// Scaling distributes over addition.
#[test]
fn scale_distributes() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let n = rng.below(63) + 1;
        let a = Tensor::from_vec([n], uniform_vec(&mut rng, n, -100.0, 100.0)).expect("shape");
        let k = rng.uniform(-10.0, 10.0);
        let lhs = a.add(&a).expect("add").scale(k);
        let rhs = a.scale(k).add(&a.scale(k)).expect("add");
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!(
                (x - y).abs() < 1e-2 + 1e-4 * x.abs(),
                "case {case}: {x} vs {y}"
            );
        }
    }
}

/// Blocked GEMM agrees with the naive reference on random shapes.
#[test]
fn matmul_matches_naive() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let (m, k, n) = (rng.below(11) + 1, rng.below(11) + 1, rng.below(11) + 1);
        let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
        let fast = matmul(&a, &b).expect("matmul");
        let slow = matmul_naive(&a, &b).expect("naive");
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!(
                (x - y).abs() < 1e-3 * (1.0 + y.abs()),
                "case {case}: {x} vs {y}"
            );
        }
    }
}

/// `sgemm` / `sgemm_acc` handle the degenerate and tile-boundary shapes
/// correctly: empty result (`m = 0`), empty inner dimension (`k = 0`,
/// must zero / preserve C), single columns (`n = 1`), and row/column
/// counts that straddle the packed kernel's `MR`×`NR` register tile.
/// Oracle: the f64 accumulating naive GEMM.
#[test]
fn sgemm_edge_shapes_match_naive_oracle() {
    let shapes: &[(usize, usize, usize)] = &[
        (0, 3, 4),                   // m = 0: no output rows
        (3, 0, 4),                   // k = 0: C must become zero
        (5, 4, 1),                   // n = 1: single-column C
        (1, 1, 1),                   // minimal non-empty problem
        (MR - 1, 6, 5),              // just below one row tile
        (MR, 6, NR),                 // exactly one register tile
        (MR + 1, 6, NR + 1),         // one tile plus remainder row/col
        (2 * MR + 3, 7, 2 * NR + 1), // several tiles plus remainder
        (3 * MR, 2, NR - 1),         // exact row tiles, partial col tile
        (37, 41, 43),                // odd primes, forces the packed path
    ];
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        let mut rng = case_rng(4, case as u64);
        let a = uniform_vec(&mut rng, m * k, -2.0, 2.0);
        let b = uniform_vec(&mut rng, k * n, -2.0, 2.0);

        // Oracle via matmul_naive (needs rank-2 tensors, so skip the
        // degenerate m/k = 0 cases and compute those by hand: the result
        // is all zeros).
        let want: Vec<f32> = if m == 0 || k == 0 {
            vec![0.0; m * n]
        } else {
            let at = Tensor::from_vec([m, k], a.clone()).expect("A");
            let bt = Tensor::from_vec([k, n], b.clone()).expect("B");
            matmul_naive(&at, &bt).expect("naive").as_slice().to_vec()
        };

        // sgemm overwrites C — pre-poison to catch missed writes.
        let mut c = vec![7.25f32; m * n];
        sgemm(&a, &b, &mut c, m, k, n);
        for (i, (x, y)) in c.iter().zip(&want).enumerate() {
            assert!(
                (x - y).abs() < 1e-4 * (1.0 + y.abs()),
                "sgemm ({m},{k},{n}) elem {i}: {x} vs {y}"
            );
        }

        // sgemm_acc accumulates: C = bias + A·B. With k = 0 the product
        // term is empty and C must be left untouched.
        let bias = 0.5f32;
        let mut c_acc = vec![bias; m * n];
        sgemm_acc(&a, &b, &mut c_acc, m, k, n);
        for (i, (x, y)) in c_acc.iter().zip(&want).enumerate() {
            let expect = if k == 0 { bias } else { bias + y };
            assert!(
                (x - expect).abs() < 1e-4 * (1.0 + expect.abs()),
                "sgemm_acc ({m},{k},{n}) elem {i}: {x} vs {expect}"
            );
        }
    }
}

/// Matmul is linear in its first argument.
#[test]
fn matmul_linearity() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let alpha = rng.uniform(-5.0, 5.0);
        let a1 = Tensor::rand_normal([4, 5], 0.0, 1.0, &mut rng);
        let a2 = Tensor::rand_normal([4, 5], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([5, 3], 0.0, 1.0, &mut rng);
        let lhs = matmul(&a1.scale(alpha).add(&a2).expect("add"), &b).expect("matmul");
        let rhs = matmul(&a1, &b)
            .expect("matmul")
            .scale(alpha)
            .add(&matmul(&a2, &b).expect("matmul"))
            .expect("add");
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!(
                (x - y).abs() < 1e-2 + 1e-3 * y.abs(),
                "case {case}: {x} vs {y}"
            );
        }
    }
}

/// Transpose is an involution.
#[test]
fn transpose_involution() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let (r, c) = (rng.below(9) + 1, rng.below(9) + 1);
        let a = Tensor::rand_normal([r, c], 0.0, 1.0, &mut rng);
        let tt = a.transpose2d().expect("t").transpose2d().expect("tt");
        assert_eq!(tt, a, "case {case}");
    }
}

/// Convolution is linear in the input.
#[test]
fn conv2d_linearity() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let alpha = rng.uniform(-3.0, 3.0);
        let x1 = Tensor::rand_normal([1, 2, 6, 6], 0.0, 1.0, &mut rng);
        let x2 = Tensor::rand_normal([1, 2, 6, 6], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([3, 2, 3, 3], 0.0, 0.5, &mut rng);
        let spec = Conv2dSpec::same(3);
        let lhs =
            conv2d_forward(&x1.scale(alpha).add(&x2).expect("add"), &w, &spec, None).expect("conv");
        let rhs = conv2d_forward(&x1, &w, &spec, None)
            .expect("conv")
            .scale(alpha)
            .add(&conv2d_forward(&x2, &w, &spec, None).expect("conv"))
            .expect("add");
        for (a, b) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!(
                (a - b).abs() < 1e-2 + 1e-3 * b.abs(),
                "case {case}: {a} vs {b}"
            );
        }
    }
}

/// deconv(x, W) is the exact adjoint of conv(·, W):
/// ⟨conv(y, W), x⟩ = ⟨y, deconv(x, W)⟩ for random strides/pads.
#[test]
fn deconv_is_conv_adjoint() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let stride = rng.below(2) + 1;
        let pad = rng.below(2);
        let w = Tensor::rand_normal([2, 3, 3, 3], 0.0, 0.5, &mut rng); // [Ci_d, Co_d, k, k]
        let x = Tensor::rand_normal([1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let spec = Conv2dSpec::new(stride, pad);
        let dx = match conv_transpose2d_forward(&x, &w, &spec, None) {
            Ok(t) => t,
            Err(_) => continue, // geometry impossible for this draw
        };
        let y = Tensor::rand_normal(dx.dims().to_vec(), 0.0, 1.0, &mut rng);
        let cy = conv2d_forward(&y, &w, &spec, None).expect("conv");
        let lhs: f64 = cy
            .as_slice()
            .iter()
            .zip(x.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let rhs: f64 = dx
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + rhs.abs()),
            "case {case}: {lhs} vs {rhs}"
        );
    }
}

/// backward-data really is the adjoint of forward for random geometry.
#[test]
fn conv_backward_data_adjoint() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        let stride = rng.below(2) + 1;
        let x = Tensor::rand_normal([1, 2, 6, 6], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([3, 2, 3, 3], 0.0, 0.5, &mut rng);
        let spec = Conv2dSpec {
            stride: (stride, stride),
            pad: (1, 1),
        };
        let y = conv2d_forward(&x, &w, &spec, None).expect("conv");
        let g = Tensor::rand_normal(y.dims().to_vec(), 0.0, 1.0, &mut rng);
        let gx = conv2d_backward_data(&g, &w, &spec, (6, 6)).expect("bwd");
        let lhs: f64 = y
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(gx.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + rhs.abs()),
            "case {case}: {lhs} vs {rhs}"
        );
    }
}

/// Reshape preserves every element in order for any valid factoring.
#[test]
fn reshape_preserves_order() {
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        let n = rng.below(47) + 1;
        let v = uniform_vec(&mut rng, n, -1e3, 1e3);
        let t = Tensor::from_vec([n], v.clone()).expect("shape");
        for a in 1..=n {
            if n.is_multiple_of(a) {
                let r = t.reshaped([a, n / a]).expect("reshape");
                assert_eq!(r.as_slice(), &v[..], "case {case}, factor {a}");
                assert_eq!(r.shape(), &Shape::new([a, n / a]));
            }
        }
    }
}

/// Statistics: variance is translation-invariant and scales quadratically.
#[test]
fn variance_affine_rules() {
    for case in 0..CASES {
        let mut rng = case_rng(11, case);
        let n = rng.below(63) + 1;
        let a = Tensor::from_vec([n], uniform_vec(&mut rng, n, -100.0, 100.0)).expect("shape");
        let shift = rng.uniform(-100.0, 100.0);
        let k = rng.uniform(-5.0, 5.0);
        let v0 = a.variance();
        let shifted = a.add_scalar(shift).variance();
        assert!(
            (v0 - shifted).abs() < 1e-2 * (1.0 + v0.abs()),
            "case {case}: {v0} vs {shifted}"
        );
        let scaled = a.scale(k).variance();
        assert!(
            (scaled - k * k * v0).abs() < 1e-2 * (1.0 + (k * k * v0).abs()),
            "case {case}"
        );
    }
}
