//! Batch normalisation \[20\], over the channel axis of `[N, C, ...]`
//! activations (2D and 3D feature maps alike).

use crate::layer::Layer;
use crate::param::Param;
use mtsr_tensor::{ops, Result, Tensor, TensorError};
use std::ops::Range;

/// The ε every [`BatchNorm`] in the workspace uses. Public so the
/// inference fast path (BN folding, fused epilogues) can reproduce
/// `1/√(σ² + ε)` with the exact same constant the layer forward uses.
pub const BN_EPS: f32 = 1e-5;

/// Batch normalisation with learnable affine (γ, β) and running statistics
/// for inference.
///
/// Training mode normalises with batch statistics and updates the running
/// mean/variance with exponential momentum; inference mode uses the
/// running statistics (and backward through inference mode is supported —
/// the Fig. 15 saliency probe backpropagates through a frozen net).
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    /// Running mean (buffer, not trained).
    running_mean: Param,
    /// Running variance (buffer, not trained).
    running_var: Param,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

struct BnCache {
    /// Normalised activations x̂.
    x_hat: Tensor,
    /// Per-channel 1/√(σ²+ε) used in the forward pass.
    inv_std: Tensor,
    /// Whether batch statistics (training) were used.
    used_batch_stats: bool,
}

impl BatchNorm {
    /// Creates a batch-norm layer over `channels` feature maps.
    pub fn new(name: &str, channels: usize) -> Self {
        BatchNorm {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones([channels])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros([channels])),
            running_mean: Param::new(format!("{name}.running_mean"), Tensor::zeros([channels])),
            running_var: Param::new(format!("{name}.running_var"), Tensor::ones([channels])),
            momentum: 0.1,
            eps: BN_EPS,
            cache: None,
        }
    }

    /// Overrides the running-statistics momentum (default 0.1).
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }
}

/// Runs `f(c, range, out_plane)` for every `(n, c)` plane of `out`, where
/// `range` locates the plane in same-shaped inputs. Planes are written
/// independently, so the pool partition never changes a result.
fn for_each_plane<F>(out: &mut Tensor, c: usize, spatial: usize, f: F)
where
    F: Fn(usize, Range<usize>, &mut [f32]) + Sync,
{
    let len = out.numel();
    ops::par_chunks_if_large(len, out.as_mut_slice(), spatial, move |p, o| {
        let start = p * spatial;
        f(p % c, start..start + o.len(), o)
    });
}

impl Layer for BatchNorm {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        if x.dims().len() < 2 || x.dims()[1] != self.gamma.value.dims()[0] {
            return Err(TensorError::InvalidShape {
                op: "BatchNorm",
                reason: format!(
                    "expected [N, {}, ...], got {}",
                    self.gamma.value.dims()[0],
                    x.shape()
                ),
            });
        }
        let (_, c, spatial) = x.channel_geometry("BatchNorm")?;
        let (mean, var) = if train {
            let m = x.mean_per_channel()?;
            let v = x.var_per_channel(&m)?;
            // running = (1 − momentum)·running + momentum·batch
            let mom = self.momentum;
            self.running_mean.value = self
                .running_mean
                .value
                .scale(1.0 - mom)
                .add(&m.scale(mom))?;
            self.running_var.value = self.running_var.value.scale(1.0 - mom).add(&v.scale(mom))?;
            (m, v)
        } else {
            (
                self.running_mean.value.clone(),
                self.running_var.value.clone(),
            )
        };
        let eps = self.eps;
        let inv_std = var.map(|v| 1.0 / (v + eps).sqrt());
        // x̂ = (x − μ)·s, then y = x̂·γ + β, each rounded to f32 in that
        // order (no fused multiply-add): the inference planner's Exact
        // policy reproduces exactly these roundings.
        let (xs, mu, s) = (x.as_slice(), mean.as_slice(), inv_std.as_slice());
        let mut x_hat = Tensor::zeros(x.dims().to_vec());
        for_each_plane(&mut x_hat, c, spatial, move |ci, r, o| {
            let (mu, s) = (mu[ci], s[ci]);
            for (o, &v) in o.iter_mut().zip(&xs[r]) {
                *o = (v - mu) * s;
            }
        });
        let (xh, gamma, beta) = (
            x_hat.as_slice(),
            self.gamma.value.as_slice(),
            self.beta.value.as_slice(),
        );
        let mut y = Tensor::zeros(x.dims().to_vec());
        for_each_plane(&mut y, c, spatial, move |ci, r, o| {
            let (g, b) = (gamma[ci], beta[ci]);
            for (o, &v) in o.iter_mut().zip(&xh[r]) {
                *o = v * g + b;
            }
        });
        self.cache = Some(BnCache {
            x_hat,
            inv_std,
            used_batch_stats: train,
        });
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self.cache.as_ref().ok_or(TensorError::InvalidShape {
            op: "BatchNorm",
            reason: "backward called before forward".into(),
        })?;
        grad_out
            .shape()
            .check_same(cache.x_hat.shape(), "BatchNorm.backward")?;
        let (n, c, spatial) = grad_out.channel_geometry("BatchNorm.backward")?;
        let (gs, xh) = (grad_out.as_slice(), cache.x_hat.as_slice());
        let (gamma, inv_std) = (self.gamma.value.as_slice(), cache.inv_std.as_slice());

        // One pass over g and x̂ yields every per-channel sum: Σg (β
        // gradient), Σg·x̂ (γ gradient), and Σdx̂, Σdx̂·x̂ with dx̂ = g·γ.
        let sums = ops::channel_sums([gs, xh], (n, c, spatial), |ci| {
            let ga = gamma[ci];
            move |[g, xh]: [f32; 2]| {
                let dxh = g * ga;
                [g as f64, (g * xh) as f64, dxh as f64, (dxh * xh) as f64]
            }
        });
        let grads = self.gamma.grad.as_mut_slice().iter_mut();
        for ((dg, db), s) in grads.zip(self.beta.grad.as_mut_slice()).zip(&sums) {
            *dg += s[1] as f32;
            *db += s[0] as f32;
        }

        let mut dx = Tensor::zeros(grad_out.dims().to_vec());
        if !cache.used_batch_stats {
            // Inference statistics are constants w.r.t. x:
            // dx = dx̂ / √(σ²_run + ε).
            for_each_plane(&mut dx, c, spatial, move |ci, r, o| {
                let (ga, s) = (gamma[ci], inv_std[ci]);
                for (o, &g) in o.iter_mut().zip(&gs[r]) {
                    *o = g * ga * s;
                }
            });
            return Ok(dx);
        }

        // Batch statistics: the mean and variance depend on x, giving the
        // classic three-term formula
        //   dx = inv_std · (dx̂ − mean(dx̂) − x̂ · mean(dx̂ ⊙ x̂))
        // with means taken per channel over N·spatial.
        let inv_n = 1.0 / (n * spatial) as f32;
        let means: Vec<[f32; 2]> = sums
            .iter()
            .map(|s| [s[2] as f32 * inv_n, s[3] as f32 * inv_n])
            .collect();
        let means = means.as_slice();
        for_each_plane(&mut dx, c, spatial, move |ci, r, o| {
            let ([m1, m2], ga, s) = (means[ci], gamma[ci], inv_std[ci]);
            for ((o, &g), &xh) in o.iter_mut().zip(&gs[r.clone()]).zip(&xh[r]) {
                *o = ((g * ga - m1) - xh * m2) * s;
            }
        });
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    /// Running statistics must survive checkpointing so inference after
    /// load matches inference before save.
    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn name(&self) -> &'static str {
        "BatchNorm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsr_tensor::Rng;

    #[test]
    fn training_forward_normalises_per_channel() {
        let mut rng = Rng::seed_from(1);
        let mut bn = BatchNorm::new("bn", 3);
        let x = Tensor::rand_normal([4, 3, 5, 5], 7.0, 3.0, &mut rng);
        let y = bn.forward(&x, true).unwrap();
        let m = y.mean_per_channel().unwrap();
        let v = y.var_per_channel(&m).unwrap();
        for c in 0..3 {
            assert!(m.as_slice()[c].abs() < 1e-4, "mean ch{c}");
            assert!((v.as_slice()[c] - 1.0).abs() < 1e-3, "var ch{c}");
        }
    }

    #[test]
    fn running_stats_converge_to_data_moments() {
        let mut rng = Rng::seed_from(2);
        let mut bn = BatchNorm::new("bn", 2).with_momentum(0.5);
        for _ in 0..50 {
            let x = Tensor::rand_normal([8, 2, 4, 4], 5.0, 2.0, &mut rng);
            bn.forward(&x, true).unwrap();
        }
        let mut rm = None;
        bn.visit_buffers(&mut |p| {
            if p.name.ends_with("running_mean") {
                rm = Some(p.value.clone());
            }
        });
        let rm = rm.unwrap();
        for c in 0..2 {
            assert!((rm.as_slice()[c] - 5.0).abs() < 0.3, "running mean ch{c}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm::new("bn", 1);
        // Without any training step, running stats are (0, 1): eval output
        // equals input (γ=1, β=0, ε tiny).
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = bn.forward(&x, false).unwrap();
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_match_finite_difference() {
        // Full-layer gradient check including the batch-stat coupling.
        crate::grad_check::check_layer_gradients(
            Box::new(BatchNorm::new("bn", 2)),
            &[3, 2, 4, 4],
            7,
        );
    }

    #[test]
    fn inference_backward_is_plain_scaling() {
        let mut bn = BatchNorm::new("bn", 1);
        let x = Tensor::from_vec([1, 1, 1, 2], vec![3.0, -1.0]).unwrap();
        bn.forward(&x, false).unwrap();
        let g = bn.backward(&Tensor::ones([1, 1, 1, 2])).unwrap();
        // running var = 1, γ = 1 → dx ≈ g.
        for v in g.as_slice() {
            assert!((v - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn rejects_channel_mismatch() {
        let mut bn = BatchNorm::new("bn", 4);
        assert!(bn.forward(&Tensor::zeros([1, 3, 2, 2]), true).is_err());
        assert!(bn.backward(&Tensor::zeros([1, 4, 2, 2])).is_err());
    }

    /// The multi-pass BatchNorm the single-pass kernels replaced, rebuilt
    /// from `Tensor` per-channel ops: the bit-level reference.
    struct Reference {
        gamma: Tensor,
        beta: Tensor,
        running_mean: Tensor,
        running_var: Tensor,
        dgamma: Tensor,
        dbeta: Tensor,
    }

    impl Reference {
        fn forward_backward(&mut self, x: &Tensor, g: &Tensor, train: bool) -> (Tensor, Tensor) {
            let (mean, var) = if train {
                let m = x.mean_per_channel().unwrap();
                let v = x.var_per_channel(&m).unwrap();
                let mom = 0.1f32;
                self.running_mean = self
                    .running_mean
                    .scale(1.0 - mom)
                    .add(&m.scale(mom))
                    .unwrap();
                self.running_var = self
                    .running_var
                    .scale(1.0 - mom)
                    .add(&v.scale(mom))
                    .unwrap();
                (m, v)
            } else {
                (self.running_mean.clone(), self.running_var.clone())
            };
            let inv_std = var.map(|v| 1.0 / (v + BN_EPS).sqrt());
            let x_hat = x
                .apply_per_channel(&mean, |v, mu| v - mu)
                .unwrap()
                .apply_per_channel(&inv_std, |v, s| v * s)
                .unwrap();
            let y = x_hat
                .apply_per_channel(&self.gamma, |v, ga| v * ga)
                .unwrap()
                .apply_per_channel(&self.beta, |v, b| v + b)
                .unwrap();
            let dgamma = g.mul(&x_hat).unwrap().sum_per_channel().unwrap();
            self.dgamma.add_assign(&dgamma).unwrap();
            self.dbeta
                .add_assign(&g.sum_per_channel().unwrap())
                .unwrap();
            let dx_hat = g.apply_per_channel(&self.gamma, |g, ga| g * ga).unwrap();
            if !train {
                return (y, dx_hat.apply_per_channel(&inv_std, |g, s| g * s).unwrap());
            }
            let dims = g.dims();
            let reduce_n = (dims[0] * dims[2..].iter().product::<usize>().max(1)) as f32;
            let m1 = dx_hat.sum_per_channel().unwrap().scale(1.0 / reduce_n);
            let m2 = dx_hat
                .mul(&x_hat)
                .unwrap()
                .sum_per_channel()
                .unwrap()
                .scale(1.0 / reduce_n);
            let centered = dx_hat.apply_per_channel(&m1, |g, m| g - m).unwrap();
            let correction = x_hat.apply_per_channel(&m2, |xh, m| xh * m).unwrap();
            let dx = centered
                .sub(&correction)
                .unwrap()
                .apply_per_channel(&inv_std, |g, s| g * s)
                .unwrap();
            (y, dx)
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn single_pass_kernels_are_bit_identical_to_reference_at_any_worker_count() {
        use mtsr_tensor::parallel::set_num_threads;
        let shapes: [&[usize]; 5] = [
            &[8, 6, 3, 40, 40],
            &[8, 24, 40, 40],
            &[3, 5, 7],
            &[2, 3],
            &[1, 4, 1, 1],
        ];
        for dims in shapes {
            let c = dims[1];
            let mut rng = Rng::seed_from(dims.iter().product::<usize>() as u64);
            let gamma = Tensor::rand_normal([c], 1.0, 0.5, &mut rng);
            let beta = Tensor::rand_normal([c], 0.0, 0.5, &mut rng);
            // Two training steps (running stats move), then one in eval
            // mode; gradients accumulate across all three.
            let steps: Vec<(Tensor, Tensor, bool)> = [true, true, false]
                .into_iter()
                .map(|train| {
                    let x = Tensor::rand_normal(dims.to_vec(), 0.7, 3.0, &mut rng);
                    let g = Tensor::rand_normal(dims.to_vec(), 0.0, 1.0, &mut rng);
                    (x, g, train)
                })
                .collect();
            let mut reference = Reference {
                gamma: gamma.clone(),
                beta: beta.clone(),
                running_mean: Tensor::zeros([c]),
                running_var: Tensor::ones([c]),
                dgamma: Tensor::zeros([c]),
                dbeta: Tensor::zeros([c]),
            };
            set_num_threads(1);
            let want: Vec<(Tensor, Tensor)> = steps
                .iter()
                .map(|(x, g, train)| reference.forward_backward(x, g, *train))
                .collect();
            for workers in [1usize, 2, 4] {
                set_num_threads(workers);
                let mut bn = BatchNorm::new("bn", c);
                bn.gamma.value = gamma.clone();
                bn.beta.value = beta.clone();
                for (i, ((x, g, train), (y_ref, dx_ref))) in steps.iter().zip(&want).enumerate() {
                    let y = bn.forward(x, *train).unwrap();
                    let dx = bn.backward(g).unwrap();
                    let at = format!("{dims:?} step {i} at {workers} workers");
                    assert_eq!(bits(&y), bits(y_ref), "forward {at}");
                    assert_eq!(bits(&dx), bits(dx_ref), "backward {at}");
                }
                let at = format!("{dims:?} at {workers} workers");
                assert_eq!(
                    bits(&bn.gamma.grad),
                    bits(&reference.dgamma),
                    "gamma.grad {at}"
                );
                assert_eq!(
                    bits(&bn.beta.grad),
                    bits(&reference.dbeta),
                    "beta.grad {at}"
                );
                assert_eq!(
                    bits(&bn.running_mean.value),
                    bits(&reference.running_mean),
                    "running_mean {at}"
                );
                assert_eq!(
                    bits(&bn.running_var.value),
                    bits(&reference.running_var),
                    "running_var {at}"
                );
            }
        }
        set_num_threads(0);
    }

    #[test]
    fn works_on_3d_feature_maps() {
        let mut rng = Rng::seed_from(3);
        let mut bn = BatchNorm::new("bn", 2);
        let x = Tensor::rand_normal([2, 2, 3, 4, 4], 1.0, 2.0, &mut rng);
        let y = bn.forward(&x, true).unwrap();
        assert_eq!(y.dims(), x.dims());
        let m = y.mean_per_channel().unwrap();
        assert!(m.as_slice().iter().all(|v| v.abs() < 1e-4));
    }
}
