//! Bit-exact determinism across worker counts.
//!
//! The whole reproduction promises "same seed → same bytes", and that must
//! hold regardless of how many pool workers execute the kernels (laptop vs
//! CI vs a pinned `MTSR_NUM_THREADS`). The parallel substrate guarantees it
//! structurally — contiguous output partitions, a fixed reduction tree in
//! `par_fold_sum`, and kernel selection by full problem shape only — and
//! this test pins the guarantee down for every conv entry point, forward
//! and backward, 2D and 3D, by comparing raw `f32` bit patterns.
//!
//! Since ISA dispatch landed, the guarantee is *per selected ISA*: the
//! whole scenario sweep runs once for every tier this host can execute
//! (scalar fallback, AVX2+FMA, AVX-512), each forced via the same
//! override hook `MTSR_FORCE_ISA` uses. Bit-identity must hold across
//! worker counts within each tier; tiers differ from each other in the
//! last ulps (FMA contraction), which is exactly the documented contract.
//!
//! One `#[test]` fn (not one per case): the worker-count and ISA
//! overrides are process-global, so the scenarios must not run
//! concurrently.

use mtsr_tensor::conv::{
    conv2d_backward_data, conv2d_backward_weights, conv2d_forward, conv3d_backward_data,
    conv3d_backward_weights, conv3d_forward, conv_transpose3d_forward, Conv2dSpec, Conv3dSpec,
};
use mtsr_tensor::isa::{dispatchable_isas, set_forced_isa};
use mtsr_tensor::matmul::{sgemm, sgemm_nt, sgemm_tn};
use mtsr_tensor::parallel::set_num_threads;
use mtsr_tensor::{Rng, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn conv_and_gemm_outputs_are_bit_identical_across_worker_counts() {
    let mut rng = Rng::seed_from(77);

    // 2D: batch 4 so the batch-parallel loops actually split.
    let x2 = Tensor::rand_normal([4, 3, 10, 11], 0.0, 1.0, &mut rng);
    let w2 = Tensor::rand_normal([6, 3, 3, 3], 0.0, 0.5, &mut rng);
    let spec2 = Conv2dSpec::new(2, 1);
    // 3D: the ZipNet upscale-block geometry.
    let x3 = Tensor::rand_normal([4, 2, 5, 6, 6], 0.0, 1.0, &mut rng);
    let w3 = Tensor::rand_normal([4, 2, 3, 3, 3], 0.0, 0.5, &mut rng);
    let wt3 = Tensor::rand_normal([2, 4, 3, 2, 2], 0.0, 0.5, &mut rng);
    let spec3 = Conv3dSpec::same(3, 3);
    let tspec3 = Conv3dSpec {
        stride: (1, 2, 2),
        pad: (1, 0, 0),
    };
    // GEMM shapes big enough to split across several row slabs.
    let (m, k, n) = (67, 43, 59);
    let ga: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let gb: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();

    let run_all = || {
        let y2 = conv2d_forward(&x2, &w2, &spec2, None).unwrap();
        let g2 = Tensor::rand_normal(y2.dims().to_vec(), 0.0, 1.0, &mut Rng::seed_from(5));
        let y3 = conv3d_forward(&x3, &w3, &spec3, None).unwrap();
        let g3 = Tensor::rand_normal(y3.dims().to_vec(), 0.0, 1.0, &mut Rng::seed_from(6));
        let mut out = vec![
            bits(&y2),
            bits(&conv2d_backward_data(&g2, &w2, &spec2, (10, 11)).unwrap()),
            bits(&conv2d_backward_weights(&x2, &g2, &spec2, (3, 3)).unwrap()),
            bits(&y3),
            bits(&conv3d_backward_data(&g3, &w3, &spec3, (5, 6, 6)).unwrap()),
            bits(&conv3d_backward_weights(&x3, &g3, &spec3, (3, 3, 3)).unwrap()),
            bits(&conv_transpose3d_forward(&x3, &wt3, &tspec3, None).unwrap()),
        ];
        let mut c = vec![0.0f32; m * n];
        sgemm(&ga, &gb, &mut c, m, k, n);
        out.push(c.iter().map(|v| v.to_bits()).collect());
        let mut c = vec![0.0f32; m * n];
        sgemm_tn(&ga, &gb, &mut c, m, k, n);
        out.push(c.iter().map(|v| v.to_bits()).collect());
        let bt: Vec<f32> = gb[..n * k].to_vec();
        let mut c = vec![0.0f32; m * n];
        sgemm_nt(&ga, &bt, &mut c, m, k, n);
        out.push(c.iter().map(|v| v.to_bits()).collect());
        out
    };

    // 2 and 8 bracket the realistic range; the max available count catches
    // whatever this machine would pick by default.
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![2usize, 8];
    if !counts.contains(&max) {
        counts.push(max);
    }

    for isa in dispatchable_isas() {
        set_forced_isa(Some(isa));
        set_num_threads(1);
        let reference = run_all();
        for &workers in &counts {
            set_num_threads(workers);
            let got = run_all();
            set_num_threads(0);
            for (op, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    g,
                    r,
                    "[{}] op {op} produced different bits at {workers} workers vs 1",
                    isa.name()
                );
            }
        }
        set_num_threads(0);
    }
    set_forced_isa(None);
}
