//! Elementwise arithmetic, scalar ops and axis reductions.
//!
//! All binary ops require identical shapes (explicitness over silent
//! broadcasting — the handful of places that need broadcasting, e.g. conv
//! bias addition and batch-norm affine transforms, use the dedicated
//! channel-wise helpers at the bottom of this module, which document the
//! `[N, C, spatial...]` layout they assume).

use crate::error::{Result, TensorError};
use crate::parallel::{num_threads, par_chunks_mut};
use crate::tensor::Tensor;

/// Element count below which the kernels in this module, and batch
/// norm's per-plane passes, stay on the calling thread: under ~10⁵
/// floats, waking the pool costs more than splitting a streaming pass
/// saves (DESIGN.md, "Training elementwise kernels", has the
/// measurement). Every kernel that uses it is partition-invariant, so
/// the threshold only trades wall-clock — results are bit-identical on
/// either side of it.
pub const PAR_MIN_LEN: usize = 128 * 1024;

/// `data.chunks_mut(chunk_len).enumerate().for_each(f)`, split across
/// the worker pool when the job touches at least [`PAR_MIN_LEN`]
/// elements (`work`) and serial otherwise.
pub fn par_chunks_if_large<T, F>(work: usize, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if work < PAR_MIN_LEN {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
    } else {
        par_chunks_mut(data, chunk_len, f);
    }
}

/// Planes [`channel_sums`] advances together: their chains are
/// independent, so interleaving them hides the f64 add latency that
/// bounds a single chain.
const PLANE_GROUP: usize = 4;

/// Per-channel f64 sums over `[N, C, spatial]` inputs: the one reduction
/// behind the channel statistics below, the bias gradients and batch
/// norm's backward.
///
/// `terms(c)` returns channel `c`'s per-element function, which maps the
/// `M` inputs' values at one position to `K` terms; the result holds the
/// per-channel sums of each term. Every `(n, c)` plane is one sequential
/// f64 chain from 0.0 in ascending element order, and the plane sums are
/// folded per channel in ascending `n`, again from 0.0. Planes are
/// independent, so they run in parallel and interleaved; neither the
/// chain order nor the fold order depends on the worker count, so the
/// result is bit-identical on any pool size.
pub fn channel_sums<const M: usize, const K: usize, T, F>(
    inputs: [&[f32]; M],
    (n, c, spatial): (usize, usize, usize),
    terms: F,
) -> Vec<[f64; K]>
where
    T: Fn([f32; M]) -> [f64; K],
    F: Fn(usize) -> T + Sync,
{
    for x in inputs {
        assert_eq!(x.len(), n * c * spatial, "channel_sums: length mismatch");
    }
    let mut planes = vec![[0.0f64; K]; n * c];
    par_chunks_if_large(M * n * c * spatial, &mut planes, PLANE_GROUP, |g, out| {
        let first = g * PLANE_GROUP;
        if let Ok(out) = <&mut [[f64; K]; PLANE_GROUP]>::try_from(&mut *out) {
            *out = plane_sums(
                &inputs,
                first,
                spatial,
                std::array::from_fn(|k| terms((first + k) % c)),
            );
        } else {
            for (k, o) in out.iter_mut().enumerate() {
                [*o] = plane_sums(&inputs, first + k, spatial, [terms((first + k) % c)]);
            }
        }
    });
    let mut acc = vec![[0.0f64; K]; c];
    for batch in planes.chunks_exact(c.max(1)) {
        for (a, s) in acc.iter_mut().zip(batch) {
            for (a, s) in a.iter_mut().zip(s) {
                *a += s;
            }
        }
    }
    acc
}

/// The sums of `P` consecutive planes from `first`, advanced in lockstep.
fn plane_sums<const M: usize, const K: usize, const P: usize, T>(
    inputs: &[&[f32]; M],
    first: usize,
    spatial: usize,
    terms: [T; P],
) -> [[f64; K]; P]
where
    T: Fn([f32; M]) -> [f64; K],
{
    let planes: [[&[f32]; M]; P] =
        std::array::from_fn(|k| inputs.map(|x| &x[(first + k) * spatial..][..spatial]));
    let mut acc = [[0.0f64; K]; P];
    for j in 0..spatial {
        for ((a, t), x) in acc.iter_mut().zip(&terms).zip(&planes) {
            for (a, v) in a.iter_mut().zip(t(x.map(|x| x[j]))) {
                *a += v;
            }
        }
    }
    acc
}

/// `out[i] = x[i] > 0 ? x[i] : alpha * x[i]`, split across the worker
/// pool for large slices. The forward kernel of the `LeakyReLU` layer
/// (the planned inference executor fuses the activation into its conv
/// epilogues instead).
pub fn leaky_relu_slice(x: &[f32], out: &mut [f32], alpha: f32) {
    assert_eq!(x.len(), out.len(), "leaky_relu_slice: length mismatch");
    let chunk = x.len().div_ceil(num_threads()).max(1);
    // `move`: a by-reference `alpha` is re-read on every iteration (the
    // compiler cannot prove it does not alias `o`), which stops the loop
    // from vectorising.
    par_chunks_if_large(x.len(), out, chunk, move |i, o| {
        let xs = &x[i * chunk..][..o.len()];
        for (o, &v) in o.iter_mut().zip(xs) {
            *o = if v > 0.0 { v } else { alpha * v };
        }
    });
}

/// LeakyReLU backward: `grad_in[i] = x[i] > 0 ? g[i] : alpha * g[i]`
/// where `x` is the activation's *input*. Partitioned like the forward
/// kernel; any partition yields bit-identical results.
pub fn leaky_relu_bwd_slice(grad_out: &[f32], x: &[f32], grad_in: &mut [f32], alpha: f32) {
    assert_eq!(
        grad_out.len(),
        x.len(),
        "leaky_relu_bwd_slice: length mismatch"
    );
    assert_eq!(
        grad_out.len(),
        grad_in.len(),
        "leaky_relu_bwd_slice: length mismatch"
    );
    let chunk = x.len().div_ceil(num_threads()).max(1);
    par_chunks_if_large(x.len(), grad_in, chunk, move |i, gi| {
        let gs = &grad_out[i * chunk..][..gi.len()];
        let xs = &x[i * chunk..][..gi.len()];
        for ((gi, &g), &v) in gi.iter_mut().zip(gs).zip(xs) {
            *gi = if v > 0.0 { g } else { alpha * g };
        }
    });
}

impl Tensor {
    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, "add", |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, "mul", |a, b| a * b)
    }

    /// Elementwise quotient.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, "div", |a, b| a / b)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += alpha * other` (the BLAS axpy), used by optimizers
    /// to avoid allocating in the update loop.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.shape().check_same(other.shape(), "axpy")?;
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// In-place elementwise addition.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.axpy(1.0, other)
    }

    /// Squared L2 norm `Σ x²` (f64 accumulator).
    pub fn sq_norm(&self) -> f32 {
        self.as_slice()
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>() as f32
    }

    /// Mean squared difference `mean((a-b)²)` — the workhorse of Eq. 10.
    pub fn mse(&self, other: &Tensor) -> Result<f32> {
        self.shape().check_same(other.shape(), "mse")?;
        let n = self.numel().max(1) as f64;
        let s: f64 = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum();
        Ok((s / n) as f32)
    }

    /// `(N, C, spatial)` of an `[N, C, ...spatial]` tensor; rank-2
    /// tensors have a spatial extent of one.
    pub fn channel_geometry(&self, op: &'static str) -> Result<(usize, usize, usize)> {
        let dims = self.dims();
        if dims.len() < 2 {
            return Err(TensorError::InvalidShape {
                op,
                reason: format!("need rank >= 2, got {}", self.shape()),
            });
        }
        Ok((dims[0], dims[1], dims[2..].iter().product::<usize>().max(1)))
    }

    /// Per-channel mean over batch and spatial dims.
    ///
    /// Input layout `[N, C, ...spatial]`; returns a `[C]` tensor. This is
    /// the reduction batch-norm uses.
    pub fn mean_per_channel(&self) -> Result<Tensor> {
        let (n, c, spatial) = self.channel_geometry("mean_per_channel")?;
        let sums = channel_sums([self.as_slice()], (n, c, spatial), |_| {
            |[v]: [f32; 1]| [v as f64]
        });
        let denom = (n * spatial).max(1) as f64;
        Tensor::from_vec([c], sums.iter().map(|s| (s[0] / denom) as f32).collect())
    }

    /// Per-channel biased variance over batch and spatial dims, given the
    /// per-channel mean. Layout as in [`Tensor::mean_per_channel`].
    pub fn var_per_channel(&self, mean: &Tensor) -> Result<Tensor> {
        let (n, c, spatial) = self.channel_geometry("var_per_channel")?;
        if mean.dims() != [c] {
            return Err(TensorError::ShapeMismatch {
                op: "var_per_channel",
                lhs: self.dims().to_vec(),
                rhs: mean.dims().to_vec(),
            });
        }
        let m = mean.as_slice();
        let sums = channel_sums([self.as_slice()], (n, c, spatial), |ci| {
            let mu = m[ci] as f64;
            move |[v]: [f32; 1]| {
                let d = v as f64 - mu;
                [d * d]
            }
        });
        let denom = (n * spatial).max(1) as f64;
        Tensor::from_vec([c], sums.iter().map(|s| (s[0] / denom) as f32).collect())
    }

    /// Applies `x ↦ f(x, p[c])` per channel, where `p` is a `[C]` tensor and
    /// `self` is `[N, C, ...spatial]`. Covers bias-add (`f = +`) without
    /// general broadcasting machinery.
    pub fn apply_per_channel(&self, p: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        let (n, c, spatial) = self.channel_geometry("apply_per_channel")?;
        if p.dims() != [c] {
            return Err(TensorError::ShapeMismatch {
                op: "apply_per_channel",
                lhs: self.dims().to_vec(),
                rhs: p.dims().to_vec(),
            });
        }
        let mut out = self.clone();
        let ps = p.as_slice().to_vec();
        let o = out.as_mut_slice();
        for ni in 0..n {
            for (ci, &pv) in ps.iter().enumerate() {
                let base = (ni * c + ci) * spatial;
                for v in &mut o[base..base + spatial] {
                    *v = f(*v, pv);
                }
            }
        }
        Ok(out)
    }

    /// Reduces `[N, C, ...spatial]` to `[C]` by summing `g(x)` over batch
    /// and spatial positions — the gradient-side companion of
    /// [`Tensor::apply_per_channel`] (e.g. bias gradients are
    /// `sum_per_channel` of the output gradient with `g = identity`).
    pub fn sum_per_channel(&self) -> Result<Tensor> {
        let (n, c, spatial) = self.channel_geometry("sum_per_channel")?;
        let sums = channel_sums([self.as_slice()], (n, c, spatial), |_| {
            |[v]: [f32; 1]| [v as f64]
        });
        Tensor::from_vec([c], sums.iter().map(|s| s[0] as f32).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec([n], v).unwrap()
    }

    #[test]
    fn binary_ops() {
        let a = t(vec![1.0, 2.0, 3.0]);
        let b = t(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().as_slice(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = t(vec![1.0, -1.0]);
        assert_eq!(a.add_scalar(2.0).as_slice(), &[3.0, 1.0]);
        assert_eq!(a.scale(-3.0).as_slice(), &[-3.0, 3.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = t(vec![1.0, 2.0]);
        let g = t(vec![10.0, 20.0]);
        a.axpy(-0.1, &g).unwrap();
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
        let wrong = t(vec![1.0]);
        assert!(a.axpy(1.0, &wrong).is_err());
    }

    #[test]
    fn mse_matches_hand_computation() {
        let a = t(vec![0.0, 0.0]);
        let b = t(vec![3.0, 4.0]);
        assert_eq!(a.mse(&b).unwrap(), 12.5); // (9+16)/2
        assert_eq!(a.mse(&a).unwrap(), 0.0);
    }

    #[test]
    fn sq_norm() {
        assert_eq!(t(vec![3.0, 4.0]).sq_norm(), 25.0);
    }

    #[test]
    fn channel_mean_var() {
        // [N=2, C=2, spatial=2]; channel 0 holds {1,2,3,4}, channel 1 {10,10,10,10}
        let x =
            Tensor::from_vec([2, 2, 2], vec![1.0, 2.0, 10.0, 10.0, 3.0, 4.0, 10.0, 10.0]).unwrap();
        let m = x.mean_per_channel().unwrap();
        assert_eq!(m.as_slice(), &[2.5, 10.0]);
        let v = x.var_per_channel(&m).unwrap();
        assert_eq!(v.as_slice(), &[1.25, 0.0]);
    }

    #[test]
    fn apply_and_sum_per_channel() {
        let x = Tensor::ones([1, 2, 3]);
        let bias = t(vec![1.0, -1.0]);
        let y = x.apply_per_channel(&bias, |a, b| a + b).unwrap();
        assert_eq!(y.as_slice(), &[2.0, 2.0, 2.0, 0.0, 0.0, 0.0]);
        let s = y.sum_per_channel().unwrap();
        assert_eq!(s.as_slice(), &[6.0, 0.0]);
    }

    #[test]
    fn channel_helpers_reject_bad_shapes() {
        let x = Tensor::ones([4]);
        assert!(x.mean_per_channel().is_err());
        let x = Tensor::ones([1, 2, 2]);
        let badp = Tensor::ones([3]);
        assert!(x.apply_per_channel(&badp, |a, _| a).is_err());
        assert!(x.var_per_channel(&badp).is_err());
    }

    /// The per-channel loop the plane-parallel kernel replaced, kept as
    /// the serial reference: one f64 chain per `(n, c)` plane, folded per
    /// channel in ascending `n`.
    fn serial_channel_sums(x: &Tensor, term: impl Fn(usize, f32) -> f64) -> Vec<f64> {
        let (n, c, spatial) = x.channel_geometry("test").unwrap();
        let data = x.as_slice();
        let mut acc = vec![0.0f64; c];
        for ni in 0..n {
            for (ci, a) in acc.iter_mut().enumerate() {
                let base = (ni * c + ci) * spatial;
                let mut s = 0.0f64;
                for &v in &data[base..base + spatial] {
                    s += term(ci, v);
                }
                *a += s;
            }
        }
        acc
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn channel_reductions_match_serial_reference_at_any_worker_count() {
        use crate::parallel::{set_num_threads, tests::lock_override};
        use crate::rng::Rng;
        let _guard = lock_override();
        let mut rng = Rng::seed_from(21);
        let shapes: [&[usize]; 5] = [
            &[8, 6, 3, 40, 40],
            &[8, 24, 40, 40],
            &[3, 5, 7],
            &[2, 3],
            &[1, 4, 1, 1],
        ];
        for dims in shapes {
            let x = Tensor::rand_normal(dims.to_vec(), 0.3, 2.0, &mut rng);
            let (n, _, spatial) = x.channel_geometry("test").unwrap();
            let denom = (n * spatial) as f64;
            let sum: Vec<f32> = serial_channel_sums(&x, |_, v| v as f64)
                .iter()
                .map(|&s| s as f32)
                .collect();
            let mean: Vec<f32> = serial_channel_sums(&x, |_, v| v as f64)
                .iter()
                .map(|&s| (s / denom) as f32)
                .collect();
            let var: Vec<f32> = serial_channel_sums(&x, |ci, v| {
                let d = v as f64 - mean[ci] as f64;
                d * d
            })
            .iter()
            .map(|&s| (s / denom) as f32)
            .collect();
            let want = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for workers in [1usize, 2, 4] {
                set_num_threads(workers);
                let m = x.mean_per_channel().unwrap();
                assert_eq!(
                    bits(&x.sum_per_channel().unwrap()),
                    want(&sum),
                    "sum {dims:?} at {workers}"
                );
                assert_eq!(bits(&m), want(&mean), "mean {dims:?} at {workers}");
                assert_eq!(
                    bits(&x.var_per_channel(&m).unwrap()),
                    want(&var),
                    "var {dims:?} at {workers}"
                );
            }
        }
        set_num_threads(0);
    }

    #[test]
    fn leaky_relu_kernels_match_scalar_reference() {
        use crate::rng::Rng;
        let mut rng = Rng::seed_from(9);
        // Straddle PAR_MIN_LEN so both the serial and partitioned paths run.
        for len in [0usize, 7, 1000, PAR_MIN_LEN + 131] {
            let x: Vec<f32> = (0..len).map(|_| rng.normal(0.0, 1.0)).collect();
            let g: Vec<f32> = (0..len).map(|_| rng.normal(0.0, 1.0)).collect();
            let alpha = 0.1f32;
            let want_f: Vec<f32> = x
                .iter()
                .map(|&v| if v > 0.0 { v } else { alpha * v })
                .collect();
            let want_b: Vec<f32> = x
                .iter()
                .zip(&g)
                .map(|(&v, &gv)| if v > 0.0 { gv } else { alpha * gv })
                .collect();

            let mut out = vec![0.0f32; len];
            leaky_relu_slice(&x, &mut out, alpha);
            assert_eq!(out, want_f, "forward len={len}");

            let mut gi = vec![0.0f32; len];
            leaky_relu_bwd_slice(&g, &x, &mut gi, alpha);
            assert_eq!(gi, want_b, "backward len={len}");
        }
    }

    #[test]
    fn rank2_channel_reduction_treats_spatial_as_one() {
        // [N=3, C=2] without spatial dims: mean over batch only.
        let x = Tensor::from_vec([3, 2], vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]).unwrap();
        let m = x.mean_per_channel().unwrap();
        assert_eq!(m.as_slice(), &[2.0, 0.0]);
    }
}
