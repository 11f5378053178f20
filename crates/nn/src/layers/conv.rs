//! Convolution layers (2D/3D, plain and transposed) with bias.
//!
//! All six lowerings (forward / backward-data / backward-weights, plain
//! and transposed) run on the shared compute substrate in `mtsr-tensor`:
//! im2col into a thread-local scratch arena, then the packed GEMM, with
//! batch-level parallelism on the persistent worker pool. Layers hold no
//! workspace state of their own — every temporary is checked out of the
//! arena for the duration of the call.

use crate::init::{conv_fan_in, he_normal};
use crate::layer::Layer;
use crate::param::Param;
use mtsr_tensor::conv::{
    conv2d_backward_data, conv2d_backward_weights, conv2d_forward, conv3d_backward_data,
    conv3d_backward_weights, conv3d_forward, conv_transpose2d_backward_data,
    conv_transpose2d_backward_weights, conv_transpose2d_forward, conv_transpose3d_backward_data,
    conv_transpose3d_backward_weights, conv_transpose3d_forward, Conv2dSpec, Conv3dSpec,
};
use mtsr_tensor::matmul::Epilogue;
use mtsr_tensor::{Result, Rng, Tensor, TensorError};

/// Default LeakyReLU slope assumed by the He-init gain (matches the
/// paper's α, "a small positive constant (e.g. 0.1)").
const INIT_LEAKY_ALPHA: f32 = 0.1;

fn missing_cache(op: &'static str) -> TensorError {
    TensorError::InvalidShape {
        op,
        reason: "backward called before forward".into(),
    }
}

/// 2D convolution layer: `[N,Ci,H,W] → [N,Co,OH,OW]`, He-initialised,
/// with a per-output-channel bias.
pub struct Conv2d {
    w: Param,
    b: Param,
    spec: Conv2dSpec,
    cached_x: Option<Tensor>,
}

impl Conv2d {
    /// Builds the layer. `name` prefixes the parameter names
    /// (`{name}.weight`, `{name}.bias`) in checkpoints.
    pub fn new(
        name: &str,
        c_in: usize,
        c_out: usize,
        kernel: (usize, usize),
        spec: Conv2dSpec,
        rng: &mut Rng,
    ) -> Self {
        let w_dims = [c_out, c_in, kernel.0, kernel.1];
        let w = he_normal(w_dims, conv_fan_in(&w_dims), INIT_LEAKY_ALPHA, rng);
        Conv2d {
            w: Param::new(format!("{name}.weight"), w),
            b: Param::new(format!("{name}.bias"), Tensor::zeros([c_out])),
            spec,
            cached_x: None,
        }
    }

    /// The convolution stride/padding spec.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        // Bias rides the fused GEMM epilogue: bit-identical to a separate
        // per-channel sweep, one fewer pass over the output.
        let ep = Epilogue::new(self.b.value.as_slice());
        let y = conv2d_forward(x, &self.w.value, &self.spec, Some(&ep))?;
        self.cached_x = Some(x.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cached_x.as_ref().ok_or(missing_cache("Conv2d"))?;
        let kernel = (self.w.value.dims()[2], self.w.value.dims()[3]);
        self.b.grad.add_assign(&grad_out.sum_per_channel()?)?;
        let dw = conv2d_backward_weights(x, grad_out, &self.spec, kernel)?;
        self.w.grad.add_assign(&dw)?;
        conv2d_backward_data(
            grad_out,
            &self.w.value,
            &self.spec,
            (x.dims()[2], x.dims()[3]),
        )
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

/// Transposed 2D convolution layer (learned upsampling).
pub struct ConvTranspose2d {
    w: Param,
    b: Param,
    spec: Conv2dSpec,
    cached_x: Option<Tensor>,
}

impl ConvTranspose2d {
    /// Builds the layer; weight layout `[Ci, Co, KH, KW]`.
    pub fn new(
        name: &str,
        c_in: usize,
        c_out: usize,
        kernel: (usize, usize),
        spec: Conv2dSpec,
        rng: &mut Rng,
    ) -> Self {
        let w_dims = [c_in, c_out, kernel.0, kernel.1];
        // For a deconv the effective fan-in per output tap is
        // Ci·k²/stride², but the simple Ci·k² estimate is standard.
        let fan_in = c_in * kernel.0 * kernel.1;
        let w = he_normal(w_dims, fan_in, INIT_LEAKY_ALPHA, rng);
        ConvTranspose2d {
            w: Param::new(format!("{name}.weight"), w),
            b: Param::new(format!("{name}.bias"), Tensor::zeros([c_out])),
            spec,
            cached_x: None,
        }
    }
}

impl Layer for ConvTranspose2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        let ep = Epilogue::new(self.b.value.as_slice());
        let y = conv_transpose2d_forward(x, &self.w.value, &self.spec, Some(&ep))?;
        self.cached_x = Some(x.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cached_x
            .as_ref()
            .ok_or(missing_cache("ConvTranspose2d"))?;
        let kernel = (self.w.value.dims()[2], self.w.value.dims()[3]);
        self.b.grad.add_assign(&grad_out.sum_per_channel()?)?;
        let dw = conv_transpose2d_backward_weights(x, grad_out, &self.spec, kernel)?;
        self.w.grad.add_assign(&dw)?;
        conv_transpose2d_backward_data(grad_out, &self.w.value, &self.spec)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn name(&self) -> &'static str {
        "ConvTranspose2d"
    }
}

/// 3D convolution layer: `[N,Ci,D,H,W] → [N,Co,OD,OH,OW]`.
///
/// These are the layers ZipNet's 3D upscaling blocks use to jointly
/// extract spatial and temporal traffic features (§3.2).
pub struct Conv3d {
    w: Param,
    b: Param,
    spec: Conv3dSpec,
    cached_x: Option<Tensor>,
}

impl Conv3d {
    /// Builds the layer; kernel is `(kd, kh, kw)`.
    pub fn new(
        name: &str,
        c_in: usize,
        c_out: usize,
        kernel: (usize, usize, usize),
        spec: Conv3dSpec,
        rng: &mut Rng,
    ) -> Self {
        let w_dims = [c_out, c_in, kernel.0, kernel.1, kernel.2];
        let w = he_normal(w_dims, conv_fan_in(&w_dims), INIT_LEAKY_ALPHA, rng);
        Conv3d {
            w: Param::new(format!("{name}.weight"), w),
            b: Param::new(format!("{name}.bias"), Tensor::zeros([c_out])),
            spec,
            cached_x: None,
        }
    }
}

impl Layer for Conv3d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        let ep = Epilogue::new(self.b.value.as_slice());
        let y = conv3d_forward(x, &self.w.value, &self.spec, Some(&ep))?;
        self.cached_x = Some(x.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cached_x.as_ref().ok_or(missing_cache("Conv3d"))?;
        let wd = self.w.value.dims();
        let kernel = (wd[2], wd[3], wd[4]);
        self.b.grad.add_assign(&grad_out.sum_per_channel()?)?;
        let dw = conv3d_backward_weights(x, grad_out, &self.spec, kernel)?;
        self.w.grad.add_assign(&dw)?;
        conv3d_backward_data(
            grad_out,
            &self.w.value,
            &self.spec,
            (x.dims()[2], x.dims()[3], x.dims()[4]),
        )
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn name(&self) -> &'static str {
        "Conv3d"
    }
}

/// Transposed 3D convolution layer — the upsampling deconvolution of the
/// paper's 3D upscaling blocks.
pub struct ConvTranspose3d {
    w: Param,
    b: Param,
    spec: Conv3dSpec,
    cached_x: Option<Tensor>,
}

impl ConvTranspose3d {
    /// Builds the layer; weight layout `[Ci, Co, KD, KH, KW]`.
    pub fn new(
        name: &str,
        c_in: usize,
        c_out: usize,
        kernel: (usize, usize, usize),
        spec: Conv3dSpec,
        rng: &mut Rng,
    ) -> Self {
        let w_dims = [c_in, c_out, kernel.0, kernel.1, kernel.2];
        let fan_in = c_in * kernel.0 * kernel.1 * kernel.2;
        let w = he_normal(w_dims, fan_in, INIT_LEAKY_ALPHA, rng);
        ConvTranspose3d {
            w: Param::new(format!("{name}.weight"), w),
            b: Param::new(format!("{name}.bias"), Tensor::zeros([c_out])),
            spec,
            cached_x: None,
        }
    }
}

impl Layer for ConvTranspose3d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        let ep = Epilogue::new(self.b.value.as_slice());
        let y = conv_transpose3d_forward(x, &self.w.value, &self.spec, Some(&ep))?;
        self.cached_x = Some(x.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cached_x
            .as_ref()
            .ok_or(missing_cache("ConvTranspose3d"))?;
        let wd = self.w.value.dims();
        let kernel = (wd[2], wd[3], wd[4]);
        self.b.grad.add_assign(&grad_out.sum_per_channel()?)?;
        let dw = conv_transpose3d_backward_weights(x, grad_out, &self.spec, kernel)?;
        self.w.grad.add_assign(&dw)?;
        conv_transpose3d_backward_data(grad_out, &self.w.value, &self.spec)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn name(&self) -> &'static str {
        "ConvTranspose3d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_layer_gradients;
    use crate::layer::LayerExt;

    #[test]
    fn conv2d_shapes_and_bias() {
        let mut rng = Rng::seed_from(1);
        let mut layer = Conv2d::new("c", 3, 8, (3, 3), Conv2dSpec::same(3), &mut rng);
        let x = Tensor::rand_normal([2, 3, 10, 10], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 8, 10, 10]);
        assert_eq!(layer.num_params(), 8 * 3 * 9 + 8);
    }

    #[test]
    fn conv2d_gradients_match_finite_difference() {
        let mut rng = Rng::seed_from(2);
        let layer = Conv2d::new("c", 2, 3, (3, 3), Conv2dSpec::same(3), &mut rng);
        check_layer_gradients(Box::new(layer), &[1, 2, 5, 5], 42);
    }

    #[test]
    fn conv_transpose2d_upscales_and_grads() {
        let mut rng = Rng::seed_from(3);
        let mut layer = ConvTranspose2d::new("d", 3, 2, (2, 2), Conv2dSpec::new(2, 0), &mut rng);
        let x = Tensor::rand_normal([1, 3, 4, 4], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 2, 8, 8]);
        let layer = ConvTranspose2d::new("d", 2, 2, (2, 2), Conv2dSpec::new(2, 0), &mut rng);
        check_layer_gradients(Box::new(layer), &[1, 2, 3, 3], 43);
    }

    #[test]
    fn conv3d_gradients_match_finite_difference() {
        let mut rng = Rng::seed_from(4);
        let layer = Conv3d::new("c3", 2, 2, (3, 3, 3), Conv3dSpec::same(3, 3), &mut rng);
        check_layer_gradients(Box::new(layer), &[1, 2, 3, 4, 4], 44);
    }

    #[test]
    fn conv_transpose3d_spatial_only_upscale() {
        let mut rng = Rng::seed_from(5);
        let spec = Conv3dSpec {
            stride: (1, 2, 2),
            pad: (1, 0, 0),
        };
        let mut layer = ConvTranspose3d::new("d3", 4, 2, (3, 2, 2), spec, &mut rng);
        let x = Tensor::rand_normal([1, 4, 6, 3, 3], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 2, 6, 6, 6]);
        let layer2 = ConvTranspose3d::new("d3", 2, 2, (3, 2, 2), spec, &mut rng);
        check_layer_gradients(Box::new(layer2), &[1, 2, 3, 2, 2], 45);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = Rng::seed_from(6);
        let mut layer = Conv2d::new("c", 1, 1, (3, 3), Conv2dSpec::same(3), &mut rng);
        assert!(layer.backward(&Tensor::zeros([1, 1, 4, 4])).is_err());
    }

    #[test]
    fn conv2d_rejects_wrong_channels() {
        let mut rng = Rng::seed_from(7);
        let mut layer = Conv2d::new("c", 3, 4, (3, 3), Conv2dSpec::same(3), &mut rng);
        let x = Tensor::zeros([1, 2, 8, 8]);
        assert!(layer.forward(&x, true).is_err());
    }
}
