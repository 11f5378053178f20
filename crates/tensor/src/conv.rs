//! Convolution primitives: forward, backward-data and backward-weights for
//! 2D and 3D convolutions, plus transposed convolutions.
//!
//! All six transposed-convolution functions are *derived* from the three
//! plain-convolution primitives through the adjoint identities
//!
//! ```text
//! deconv_fwd(x, W)          =  conv_bwd_data(x, W)
//! deconv_bwd_data(gy, W)    =  conv_fwd(gy, W)
//! deconv_bwd_weights(x, gy) =  conv_bwd_weights(input = gy, gout = x)
//! ```
//!
//! so a single adjoint-consistency test of the conv triple covers the
//! deconvolutions ZipNet's 3D upscaling blocks rely on.
//!
//! Layouts (row-major):
//! * 2D activations `[N, C, H, W]`, conv weights `[Cout, Cin, KH, KW]`,
//!   transposed-conv weights `[Cin, Cout, KH, KW]` (PyTorch convention);
//! * 3D activations `[N, C, D, H, W]`, weights gain a leading kernel-depth
//!   axis after the channel pair.

use crate::error::{Result, TensorError};
use crate::im2col::{col2im2d, col2im3d, with_im2col2d, with_im2col3d, Geom2d, Geom3d};
use crate::matmul::{sgemm_nt_serial, sgemm_serial, sgemm_serial_fused, sgemm_tn_serial, Epilogue};
use crate::parallel::{par_chunks_mut, par_fold_sum};
use crate::qmatmul::{
    encode_panel, max_abs, quant_scale, sgemm_q_serial_fused, sgemm_q_view_fused, QuantizedMat,
};
use crate::scratch::{with_scratch, with_scratch_i16, with_scratch_i32};
use crate::tensor::Tensor;

/// Validates that every per-channel epilogue array has one entry per
/// output channel before it reaches the per-row indexing in the kernels.
fn check_epilogue(ep: Option<&Epilogue<'_>>, co: usize, op: &'static str) -> Result<()> {
    if let Some(e) = ep {
        let mut ok = e.bias.len() == co;
        if let Some(bn) = &e.bn {
            ok = ok
                && bn.mean.len() == co
                && bn.inv_std.len() == co
                && bn.gamma.len() == co
                && bn.beta.len() == co;
        }
        if !ok {
            return Err(TensorError::InvalidShape {
                op,
                reason: format!("epilogue arrays need one entry per output channel ({co})"),
            });
        }
    }
    Ok(())
}

/// Stride/padding pair for 2D convolutions, `(vertical, horizontal)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// `(sh, sw)` stride.
    pub stride: (usize, usize),
    /// `(ph, pw)` symmetric zero-padding.
    pub pad: (usize, usize),
}

impl Conv2dSpec {
    /// Unit-stride convolution with "same" padding for odd kernels.
    pub fn same(kernel: usize) -> Self {
        Conv2dSpec {
            stride: (1, 1),
            pad: (kernel / 2, kernel / 2),
        }
    }

    /// Uniform stride/pad constructor.
    pub fn new(stride: usize, pad: usize) -> Self {
        Conv2dSpec {
            stride: (stride, stride),
            pad: (pad, pad),
        }
    }
}

/// Stride/padding triple for 3D convolutions, `(temporal, vertical, horizontal)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv3dSpec {
    /// `(sd, sh, sw)` stride.
    pub stride: (usize, usize, usize),
    /// `(pd, ph, pw)` symmetric zero-padding.
    pub pad: (usize, usize, usize),
}

impl Conv3dSpec {
    /// Unit-stride, "same" padding for odd kernels on every axis.
    pub fn same(kd: usize, k: usize) -> Self {
        Conv3dSpec {
            stride: (1, 1, 1),
            pad: (kd / 2, k / 2, k / 2),
        }
    }
}

fn geom2d(x_dims: &[usize], w_dims: &[usize], spec: &Conv2dSpec) -> Result<Geom2d> {
    if x_dims.len() != 4 || w_dims.len() != 4 {
        return Err(TensorError::InvalidShape {
            op: "conv2d",
            reason: format!(
                "expected input [N,C,H,W] and weight [Co,Ci,KH,KW], got {x_dims:?} / {w_dims:?}"
            ),
        });
    }
    if x_dims[1] != w_dims[1] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d(channels)",
            lhs: x_dims.to_vec(),
            rhs: w_dims.to_vec(),
        });
    }
    let g = Geom2d {
        c: x_dims[1],
        h: x_dims[2],
        w: x_dims[3],
        kh: w_dims[2],
        kw: w_dims[3],
        sh: spec.stride.0,
        sw: spec.stride.1,
        ph: spec.pad.0,
        pw: spec.pad.1,
    };
    g.validate()?;
    Ok(g)
}

/// 2D convolution forward: `[N,Ci,H,W] ⊛ [Co,Ci,KH,KW] → [N,Co,OH,OW]`,
/// with an optional bias/BN/LReLU [`Epilogue`] fused into the per-sample
/// GEMM's store phase (row = output channel).
pub fn conv2d_forward(
    x: &Tensor,
    w: &Tensor,
    spec: &Conv2dSpec,
    ep: Option<&Epilogue<'_>>,
) -> Result<Tensor> {
    let g = geom2d(x.dims(), w.dims(), spec)?;
    let (n, co) = (x.dims()[0], w.dims()[0]);
    let mut out = Tensor::zeros([n, co, g.out_h(), g.out_w()]);
    conv2d_forward_into(
        x.as_slice(),
        x.dims(),
        w.as_slice(),
        w.dims(),
        spec,
        out.as_mut_slice(),
        ep,
    )?;
    Ok(out)
}

/// Slice-based [`conv2d_forward`] writing into a caller-owned
/// buffer: the allocation-free entry point the planned inference executor
/// drives arena slots through. `out` must hold exactly
/// `N · Co · OH · OW` elements.
pub fn conv2d_forward_into(
    x: &[f32],
    x_dims: &[usize],
    w: &[f32],
    w_dims: &[usize],
    spec: &Conv2dSpec,
    out: &mut [f32],
    ep: Option<&Epilogue<'_>>,
) -> Result<()> {
    let g = geom2d(x_dims, w_dims, spec)?;
    let (n, co) = (x_dims[0], w_dims[0]);
    check_epilogue(ep, co, "conv2d_forward")?;
    let in_sz = g.c * g.h * g.w;
    let out_sz = co * g.out_h() * g.out_w();
    assert_eq!(x.len(), n * in_sz, "conv2d_forward_into: bad x length");
    assert_eq!(
        w.len(),
        co * g.col_rows(),
        "conv2d_forward_into: bad w length"
    );
    assert_eq!(out.len(), n * out_sz, "conv2d_forward_into: bad out length");
    let _span = mtsr_telemetry::span("tensor.conv2d.forward");
    mtsr_telemetry::add_counter("tensor.im2col2d.calls", n as u64);
    par_chunks_mut(out, out_sz, |ni, o| {
        with_im2col2d(&x[ni * in_sz..(ni + 1) * in_sz], &g, |cols| match ep {
            Some(e) => sgemm_serial_fused(w, cols, o, co, g.col_rows(), g.col_cols(), e),
            None => sgemm_serial(w, cols, o, co, g.col_rows(), g.col_cols(), false),
        });
    });
    Ok(())
}

/// Quantized-weight variant of [`conv2d_forward_into`]: the folded
/// weight matrix arrives as a plan-time [`QuantizedMat`] (`co` rows ×
/// `col_rows` columns, one int8 scale per output channel) and each
/// per-sample product runs the integer GEMM with the f32 dequantizing
/// epilogue. `w_dims` is the original `[Co,Ci,KH,KW]` (the codes alone
/// cannot recover the kernel geometry).
///
/// Inference-only: there is no quantized backward pass, and unlike the
/// exact route the result is *not* bit-identical to the layer stack —
/// it is NRMSE-gated against it instead.
pub fn conv2d_forward_q_into(
    x: &[f32],
    x_dims: &[usize],
    wq: &QuantizedMat,
    w_dims: &[usize],
    spec: &Conv2dSpec,
    out: &mut [f32],
    ep: &Epilogue<'_>,
) -> Result<()> {
    let g = geom2d(x_dims, w_dims, spec)?;
    let (n, co) = (x_dims[0], w_dims[0]);
    check_epilogue(Some(ep), co, "conv2d_forward_q")?;
    let in_sz = g.c * g.h * g.w;
    let out_sz = co * g.out_h() * g.out_w();
    assert_eq!(x.len(), n * in_sz, "conv2d_forward_q_into: bad x length");
    assert_eq!(
        (wq.m(), wq.k()),
        (co, g.col_rows()),
        "conv2d_forward_q_into: quantized W does not match geometry"
    );
    assert_eq!(
        out.len(),
        n * out_sz,
        "conv2d_forward_q_into: bad out length"
    );
    let _span = mtsr_telemetry::span("tensor.conv2d.forward_q");
    mtsr_telemetry::add_counter("tensor.im2col2d.calls", n as u64);
    par_chunks_mut(out, out_sz, |ni, o| {
        with_im2col2d(&x[ni * in_sz..(ni + 1) * in_sz], &g, |cols| {
            sgemm_q_serial_fused(wq, cols, o, g.col_cols(), ep);
        });
    });
    Ok(())
}

/// 2D convolution backward-data: gradient w.r.t. the input.
///
/// `input_hw` is the original `(H, W)` (not always recoverable from the
/// output size when strides don't divide evenly).
pub fn conv2d_backward_data(
    gout: &Tensor,
    w: &Tensor,
    spec: &Conv2dSpec,
    input_hw: (usize, usize),
) -> Result<Tensor> {
    let (n, ci) = (gout.dims()[0], w.dims()[1]);
    let mut gx = Tensor::zeros([n, ci, input_hw.0, input_hw.1]);
    conv2d_backward_data_into(
        gout.as_slice(),
        gout.dims(),
        w.as_slice(),
        w.dims(),
        spec,
        input_hw,
        gx.as_mut_slice(),
        None,
    )?;
    Ok(gx)
}

/// Slice-based [`conv2d_backward_data`]. The optional [`Epilogue`] exists
/// for the transposed-convolution *forward* built on this adjoint: the
/// col2im scatter-add must finish before any non-linear epilogue may run,
/// so it is swept per sample after the scatter (row = the produced
/// channel `Ci`, which is the deconv's output channel). The per-element
/// op order matches the fused GEMM store exactly.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_data_into(
    gout: &[f32],
    gout_dims: &[usize],
    w: &[f32],
    w_dims: &[usize],
    spec: &Conv2dSpec,
    input_hw: (usize, usize),
    gx: &mut [f32],
    ep: Option<&Epilogue<'_>>,
) -> Result<()> {
    if gout_dims.len() != 4 {
        return Err(TensorError::InvalidShape {
            op: "conv2d_backward_data",
            reason: format!("expected rank-4 gradient, got {gout_dims:?}"),
        });
    }
    let (n, co) = (gout_dims[0], gout_dims[1]);
    let ci = w_dims[1];
    let g = geom2d(&[n, ci, input_hw.0, input_hw.1], w_dims, spec)?;
    if gout_dims != [n, co, g.out_h(), g.out_w()] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward_data",
            lhs: gout_dims.to_vec(),
            rhs: vec![n, co, g.out_h(), g.out_w()],
        });
    }
    if w_dims[0] != co {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward_data(channels)",
            lhs: gout_dims.to_vec(),
            rhs: w_dims.to_vec(),
        });
    }
    check_epilogue(ep, ci, "conv2d_backward_data")?;
    let in_sz = ci * input_hw.0 * input_hw.1;
    let out_sz = co * g.out_h() * g.out_w();
    let col_sz = g.col_rows() * g.col_cols();
    assert_eq!(
        gout.len(),
        n * out_sz,
        "conv2d_backward_data_into: bad gout length"
    );
    assert_eq!(
        gx.len(),
        n * in_sz,
        "conv2d_backward_data_into: bad gx length"
    );
    let _span = mtsr_telemetry::span("tensor.conv2d.backward_data");
    par_chunks_mut(gx, in_sz, |ni, gxi| {
        // Scratch contents are stale; the non-accumulating GEMM overwrites
        // every element before col2im reads it.
        with_scratch(col_sz, |cols| {
            // cols = Wᵀ · gout_n  ([Ci·KH·KW, Co] x [Co, OH·OW])
            sgemm_tn_serial(
                w,
                &gout[ni * out_sz..(ni + 1) * out_sz],
                cols,
                g.col_rows(),
                co,
                g.col_cols(),
                false,
            );
            gxi.fill(0.0);
            col2im2d(cols, &g, gxi);
            if let Some(e) = ep {
                e.apply_rows(gxi, input_hw.0 * input_hw.1);
            }
        });
    });
    Ok(())
}

/// 2D convolution backward-weights: gradient w.r.t. the kernel, summed over
/// the batch.
pub fn conv2d_backward_weights(
    x: &Tensor,
    gout: &Tensor,
    spec: &Conv2dSpec,
    kernel_hw: (usize, usize),
) -> Result<Tensor> {
    let (n, ci) = (x.dims()[0], x.dims()[1]);
    let co = gout.dims()[1];
    let w_dims = [co, ci, kernel_hw.0, kernel_hw.1];
    let g = geom2d(x.dims(), &w_dims, spec)?;
    if gout.dims() != [n, co, g.out_h(), g.out_w()] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward_weights",
            lhs: gout.dims().to_vec(),
            rhs: vec![n, co, g.out_h(), g.out_w()],
        });
    }
    let in_sz = ci * g.h * g.w;
    let out_sz = co * g.out_h() * g.out_w();
    let xs = x.as_slice();
    let gs = gout.as_slice();
    // Per-sample partial gradients summed into fixed-partition accumulators.
    let wlen = co * g.col_rows();
    let _span = mtsr_telemetry::span("tensor.conv2d.backward_weights");
    mtsr_telemetry::add_counter("tensor.im2col2d.calls", n as u64);
    let dw = par_fold_sum(n, wlen, |acc, ni| {
        with_im2col2d(&xs[ni * in_sz..(ni + 1) * in_sz], &g, |cols| {
            // dW += gout_n · colsᵀ  ([Co, OH·OW] x [OH·OW, Ci·KH·KW])
            sgemm_nt_serial(
                &gs[ni * out_sz..(ni + 1) * out_sz],
                cols,
                acc,
                co,
                g.col_cols(),
                g.col_rows(),
                true,
            );
        });
    });
    Tensor::from_vec(w_dims.to_vec(), dw)
}

/// Output spatial size of a transposed 2D convolution:
/// `(H−1)·s − 2·p + K` per axis.
pub fn deconv2d_out_hw(
    in_hw: (usize, usize),
    kernel: (usize, usize),
    spec: &Conv2dSpec,
) -> Result<(usize, usize)> {
    let oh = (in_hw.0 - 1) * spec.stride.0 + kernel.0;
    let ow = (in_hw.1 - 1) * spec.stride.1 + kernel.1;
    if oh < 2 * spec.pad.0 || ow < 2 * spec.pad.1 {
        return Err(TensorError::InvalidConv {
            reason: format!("deconv output {oh}x{ow} smaller than padding crop"),
        });
    }
    Ok((oh - 2 * spec.pad.0, ow - 2 * spec.pad.1))
}

/// Transposed 2D convolution forward:
/// `[N,Ci,H,W] ⊛ᵀ [Ci,Co,KH,KW] → [N,Co,OH,OW]`, with an optional fused
/// [`Epilogue`] (swept per sample after the col2im scatter-add; see
/// [`conv2d_backward_data_into`]).
pub fn conv_transpose2d_forward(
    x: &Tensor,
    w: &Tensor,
    spec: &Conv2dSpec,
    ep: Option<&Epilogue<'_>>,
) -> Result<Tensor> {
    let d = x.dims();
    if d.len() != 4 || w.dims().len() != 4 {
        return Err(TensorError::InvalidShape {
            op: "conv_transpose2d",
            reason: format!(
                "expected input [N,Ci,H,W] and weight [Ci,Co,KH,KW], got {:?} / {:?}",
                d,
                w.dims()
            ),
        });
    }
    let (oh, ow) = deconv2d_out_hw((d[2], d[3]), (w.dims()[2], w.dims()[3]), spec)?;
    let (n, co) = (d[0], w.dims()[1]);
    let mut out = Tensor::zeros([n, co, oh, ow]);
    conv_transpose2d_forward_into(
        x.as_slice(),
        d,
        w.as_slice(),
        w.dims(),
        spec,
        out.as_mut_slice(),
        ep,
    )?;
    Ok(out)
}

/// Slice-based [`conv_transpose2d_forward`] writing into a
/// caller-owned buffer of `N · Co · OH · OW` elements.
pub fn conv_transpose2d_forward_into(
    x: &[f32],
    x_dims: &[usize],
    w: &[f32],
    w_dims: &[usize],
    spec: &Conv2dSpec,
    out: &mut [f32],
    ep: Option<&Epilogue<'_>>,
) -> Result<()> {
    if x_dims.len() != 4 || w_dims.len() != 4 {
        return Err(TensorError::InvalidShape {
            op: "conv_transpose2d",
            reason: format!(
                "expected input [N,Ci,H,W] and weight [Ci,Co,KH,KW], got {x_dims:?} / {w_dims:?}"
            ),
        });
    }
    let (oh, ow) = deconv2d_out_hw((x_dims[2], x_dims[3]), (w_dims[2], w_dims[3]), spec)?;
    // x plays the role of the conv output-gradient; the adjoint conv runs
    // over the *deconv output* geometry.
    conv2d_backward_data_into(x, x_dims, w, w_dims, spec, (oh, ow), out, ep)
}

/// Transposed 2D convolution backward-data (= plain conv forward of the
/// output gradient).
pub fn conv_transpose2d_backward_data(
    gout: &Tensor,
    w: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    conv2d_forward(gout, w, spec, None)
}

/// Transposed 2D convolution backward-weights.
pub fn conv_transpose2d_backward_weights(
    x: &Tensor,
    gout: &Tensor,
    spec: &Conv2dSpec,
    kernel_hw: (usize, usize),
) -> Result<Tensor> {
    // Roles swap: the deconv *output gradient* is the conv input, the deconv
    // *input* is the conv output-gradient.
    conv2d_backward_weights(gout, x, spec, kernel_hw)
}

fn geom3d(x_dims: &[usize], w_dims: &[usize], spec: &Conv3dSpec) -> Result<Geom3d> {
    if x_dims.len() != 5 || w_dims.len() != 5 {
        return Err(TensorError::InvalidShape {
            op: "conv3d",
            reason: format!(
                "expected input [N,C,D,H,W] and weight [Co,Ci,KD,KH,KW], got {x_dims:?} / {w_dims:?}"
            ),
        });
    }
    if x_dims[1] != w_dims[1] {
        return Err(TensorError::ShapeMismatch {
            op: "conv3d(channels)",
            lhs: x_dims.to_vec(),
            rhs: w_dims.to_vec(),
        });
    }
    let g = Geom3d {
        c: x_dims[1],
        d: x_dims[2],
        h: x_dims[3],
        w: x_dims[4],
        kd: w_dims[2],
        kh: w_dims[3],
        kw: w_dims[4],
        sd: spec.stride.0,
        sh: spec.stride.1,
        sw: spec.stride.2,
        pd: spec.pad.0,
        ph: spec.pad.1,
        pw: spec.pad.2,
    };
    g.validate()?;
    Ok(g)
}

/// 3D convolution forward: `[N,Ci,D,H,W] ⊛ [Co,Ci,KD,KH,KW] →
/// [N,Co,OD,OH,OW]`, with an optional [`Epilogue`] fused into the
/// per-sample GEMM's store phase (row = output channel).
pub fn conv3d_forward(
    x: &Tensor,
    w: &Tensor,
    spec: &Conv3dSpec,
    ep: Option<&Epilogue<'_>>,
) -> Result<Tensor> {
    let g = geom3d(x.dims(), w.dims(), spec)?;
    let (n, co) = (x.dims()[0], w.dims()[0]);
    let mut out = Tensor::zeros([n, co, g.out_d(), g.out_h(), g.out_w()]);
    conv3d_forward_into(
        x.as_slice(),
        x.dims(),
        w.as_slice(),
        w.dims(),
        spec,
        out.as_mut_slice(),
        ep,
    )?;
    Ok(out)
}

/// Slice-based [`conv3d_forward`] writing into a caller-owned
/// buffer of `N · Co · OD · OH · OW` elements.
pub fn conv3d_forward_into(
    x: &[f32],
    x_dims: &[usize],
    w: &[f32],
    w_dims: &[usize],
    spec: &Conv3dSpec,
    out: &mut [f32],
    ep: Option<&Epilogue<'_>>,
) -> Result<()> {
    let g = geom3d(x_dims, w_dims, spec)?;
    let (n, co) = (x_dims[0], w_dims[0]);
    check_epilogue(ep, co, "conv3d_forward")?;
    let in_sz = g.c * g.d * g.h * g.w;
    let out_sz = co * g.out_d() * g.out_h() * g.out_w();
    assert_eq!(x.len(), n * in_sz, "conv3d_forward_into: bad x length");
    assert_eq!(
        w.len(),
        co * g.col_rows(),
        "conv3d_forward_into: bad w length"
    );
    assert_eq!(out.len(), n * out_sz, "conv3d_forward_into: bad out length");
    let _span = mtsr_telemetry::span("tensor.conv3d.forward");
    mtsr_telemetry::add_counter("tensor.im2col3d.calls", n as u64);
    // Valid temporal-tap range per output depth. Same-padding over a
    // short D axis clips the range at the edges, making whole depth-tap
    // row blocks of the im2col matrix identically zero; the per-oz route
    // below skips that structurally-zero work (a `w·0` term contributes
    // exactly nothing to an ascending-k accumulation, so dropping it is
    // bit-identical). Degenerate geometries where some oz has *no* valid
    // tap keep the full route, whose zero-filled columns handle them.
    let clipped = (0..g.out_d()).any(|oz| {
        let (lo, hi) = tap_range3d(&g, oz);
        lo > 0 || hi < g.kd
    });
    // Restrict to geometries where every per-oz product still takes the
    // packed kernel: GEMM-path selection is by shape, and the packed and
    // small-product kernels round differently, so crossing the threshold
    // would break the route's bit-identity to the full lowering.
    let ohw = g.out_h() * g.out_w();
    let per_oz = clipped
        && (0..g.out_d()).all(|oz| {
            let (lo, hi) = tap_range3d(&g, oz);
            hi > lo && !crate::matmul::is_small(co, g.c * (hi - lo) * g.kh * g.kw, ohw)
        });
    par_chunks_mut(out, out_sz, |ni, o| {
        let xs = &x[ni * in_sz..(ni + 1) * in_sz];
        if per_oz {
            conv3d_sample_per_oz(xs, w, &g, co, o, ep);
        } else {
            conv3d_sample_full(xs, w, &g, co, o, ep);
        }
    });
    Ok(())
}

/// One conv3d sample as a single GEMM over the full im2col lowering.
fn conv3d_sample_full(
    xs: &[f32],
    w: &[f32],
    g: &Geom3d,
    co: usize,
    o: &mut [f32],
    ep: Option<&Epilogue<'_>>,
) {
    with_im2col3d(xs, g, |cols| match ep {
        Some(e) => sgemm_serial_fused(w, cols, o, co, g.col_rows(), g.col_cols(), e),
        None => sgemm_serial(w, cols, o, co, g.col_rows(), g.col_cols(), false),
    });
}

/// Quantized-weight variant of [`conv3d_forward_into`]; see
/// [`conv2d_forward_q_into`] for the quantization contract.
///
/// Unlike the exact route, which lowers the full 3-D window, this path
/// *decomposes the depth axis*: `conv3d = Σ_kd conv2d(x[·, iz], W[·, kd])`
/// with `iz = oz·sd + kd − pd`. Exact integer accumulation makes the
/// decomposition free of rounding drift — partial i32 products over any
/// subset of `kd` blocks sum to exactly the full product minus the
/// skipped terms — so the route both shrinks the lowering (each depth
/// slice is encoded once instead of copied into up to `kd` panel row
/// blocks) and skips the structurally-zero temporal taps at the clipped
/// `oz` edges for free. Per sample: one [`max_abs`] scan of `x` fixes a
/// single activation scale (legal because every panel value is either a
/// copy of an `x` value or zero, and required so partial products from
/// different depth slices share one dequantization), then each of the
/// `d` depth slices is 2-D-lowered and encoded into one pair-interleaved
/// panel, and each output depth runs one narrow GEMM over its valid-tap
/// range against the regrouped per-`kd` weight blocks
/// ([`QuantizedMat::regroup_mid_axis`]).
pub fn conv3d_forward_q_into(
    x: &[f32],
    x_dims: &[usize],
    wq: &QuantizedMat,
    w_dims: &[usize],
    spec: &Conv3dSpec,
    out: &mut [f32],
    ep: &Epilogue<'_>,
) -> Result<()> {
    let g = geom3d(x_dims, w_dims, spec)?;
    let (n, co) = (x_dims[0], w_dims[0]);
    check_epilogue(Some(ep), co, "conv3d_forward_q")?;
    let in_sz = g.c * g.d * g.h * g.w;
    let (od, oh, ow) = (g.out_d(), g.out_h(), g.out_w());
    let ohw = oh * ow;
    let out_sz = co * od * ohw;
    assert_eq!(x.len(), n * in_sz, "conv3d_forward_q_into: bad x length");
    assert_eq!(
        (wq.m(), wq.k()),
        (co, g.col_rows()),
        "conv3d_forward_q_into: quantized W does not match geometry"
    );
    assert_eq!(
        out.len(),
        n * out_sz,
        "conv3d_forward_q_into: bad out length"
    );
    let _span = mtsr_telemetry::span("tensor.conv3d.forward_q");
    let g2 = Geom2d {
        c: g.c,
        h: g.h,
        w: g.w,
        kh: g.kh,
        kw: g.kw,
        sh: g.sh,
        sw: g.sw,
        ph: g.ph,
        pw: g.pw,
    };
    let khw = g.kh * g.kw;
    // Codes / pair words per kd block, and i16 panel elements per slice.
    let k2 = g2.col_rows();
    let bw = k2.div_ceil(2);
    let row_words = g.kd * bw;
    let chunk = bw * 2 * ohw;
    let plane = g.h * g.w;
    mtsr_telemetry::add_counter("tensor.im2col2d.calls", (n * g.d) as u64);
    with_scratch_i32(co * row_words, |wkd| {
        wq.regroup_mid_axis(g.c, g.kd, khw, wkd);
        let wkd = &*wkd;
        par_chunks_mut(out, out_sz, |ni, o| {
            let xs = &x[ni * in_sz..(ni + 1) * in_sz];
            let (bscale, inv) = quant_scale(max_abs(xs));
            with_scratch_i16(g.d * chunk, |bt| {
                // One encoded panel per input depth slice. The slice is
                // gathered to contiguous [C, H, W] first (depth is the
                // second axis of the sample, so channels are strided).
                with_scratch(g.c * plane, |slice| {
                    for (iz, pt) in bt.chunks_exact_mut(chunk).enumerate() {
                        for c in 0..g.c {
                            slice[c * plane..(c + 1) * plane]
                                .copy_from_slice(&xs[(c * g.d + iz) * plane..][..plane]);
                        }
                        with_im2col2d(slice, &g2, |cols| {
                            encode_panel(cols, pt, k2, ohw, inv);
                        });
                    }
                });
                for oz in 0..od {
                    let (lo, hi) = tap_range3d(&g, oz);
                    if hi <= lo {
                        // No valid temporal tap: the product is the zero
                        // matrix; the epilogue still applies per row.
                        for r in 0..co {
                            let z = ep.apply(r, 0.0);
                            o[(r * od + oz) * ohw..][..ohw].fill(z);
                        }
                        continue;
                    }
                    let iz0 = oz * g.sd + lo - g.pd;
                    sgemm_q_view_fused(
                        wkd,
                        lo * bw,
                        row_words,
                        (hi - lo) * bw,
                        wq.scales(),
                        bscale,
                        &bt[iz0 * chunk..(iz0 + hi - lo) * chunk],
                        &mut o[oz * ohw..],
                        od * ohw,
                        co,
                        ohw,
                        ep,
                    );
                }
            });
        });
    });
    Ok(())
}

/// Valid temporal-tap range `[lo, hi)` for output depth `oz`: the `kd`
/// indices whose input depth `oz·sd + kd − pd` lands inside `[0, d)`.
#[inline]
fn tap_range3d(g: &Geom3d, oz: usize) -> (usize, usize) {
    let lo = g.pd.saturating_sub(oz * g.sd);
    let hi = (g.d + g.pd).saturating_sub(oz * g.sd).min(g.kd);
    (lo, hi)
}

/// One conv3d sample as `out_d` narrow GEMMs, each over only the valid
/// temporal taps of its output depth (see the range computation in
/// [`conv3d_forward_into`]). Rows keep the full matrix's `(c, kd, kh,
/// kw)` order, so each GEMM performs the full lowering's exact
/// contraction sequence — whatever the active ISA tier's kernel emits —
/// minus the zero terms, and results are bit-identical to it.
fn conv3d_sample_per_oz(
    xs: &[f32],
    w: &[f32],
    g: &Geom3d,
    co: usize,
    o: &mut [f32],
    ep: Option<&Epilogue<'_>>,
) {
    let (od, oh, ow) = (g.out_d(), g.out_h(), g.out_w());
    let ohw = oh * ow;
    let khw = g.kh * g.kw;
    for oz in 0..od {
        let (lo, hi) = tap_range3d(g, oz);
        let taps = hi - lo;
        let k_valid = g.c * taps * khw;
        // Weight columns for kd ∈ [lo, hi): per (co, c) block one
        // contiguous span, preserving the original row order.
        crate::scratch::with_scratch(co * k_valid, |wv| {
            for coi in 0..co {
                for ci in 0..g.c {
                    let src = ((coi * g.c + ci) * g.kd + lo) * khw;
                    let dst = (coi * g.c + ci) * taps * khw;
                    wv[dst..dst + taps * khw].copy_from_slice(&w[src..src + taps * khw]);
                }
            }
            crate::scratch::with_scratch(k_valid * ohw, |cols| {
                crate::im2col::im2col3d_oz(xs, g, oz, lo, hi, cols);
                crate::scratch::with_scratch(co * ohw, |oz_out| {
                    match ep {
                        Some(e) => sgemm_serial_fused(wv, cols, oz_out, co, k_valid, ohw, e),
                        None => sgemm_serial(wv, cols, oz_out, co, k_valid, ohw, false),
                    }
                    for coi in 0..co {
                        o[(coi * od + oz) * ohw..(coi * od + oz + 1) * ohw]
                            .copy_from_slice(&oz_out[coi * ohw..(coi + 1) * ohw]);
                    }
                });
            });
        });
    }
}

/// 3D convolution backward-data. `input_dhw` is the original `(D, H, W)`.
pub fn conv3d_backward_data(
    gout: &Tensor,
    w: &Tensor,
    spec: &Conv3dSpec,
    input_dhw: (usize, usize, usize),
) -> Result<Tensor> {
    let (n, ci) = (gout.dims()[0], w.dims()[1]);
    let mut gx = Tensor::zeros([n, ci, input_dhw.0, input_dhw.1, input_dhw.2]);
    conv3d_backward_data_into(
        gout.as_slice(),
        gout.dims(),
        w.as_slice(),
        w.dims(),
        spec,
        input_dhw,
        gx.as_mut_slice(),
        None,
    )?;
    Ok(gx)
}

/// Slice-based [`conv3d_backward_data`]; the optional [`Epilogue`] serves
/// the transposed-convolution forward exactly as in
/// [`conv2d_backward_data_into`].
#[allow(clippy::too_many_arguments)]
pub fn conv3d_backward_data_into(
    gout: &[f32],
    gout_dims: &[usize],
    w: &[f32],
    w_dims: &[usize],
    spec: &Conv3dSpec,
    input_dhw: (usize, usize, usize),
    gx: &mut [f32],
    ep: Option<&Epilogue<'_>>,
) -> Result<()> {
    if gout_dims.len() != 5 {
        return Err(TensorError::InvalidShape {
            op: "conv3d_backward_data",
            reason: format!("expected rank-5 gradient, got {gout_dims:?}"),
        });
    }
    let (n, co) = (gout_dims[0], gout_dims[1]);
    let ci = w_dims[1];
    let g = geom3d(
        &[n, ci, input_dhw.0, input_dhw.1, input_dhw.2],
        w_dims,
        spec,
    )?;
    if gout_dims != [n, co, g.out_d(), g.out_h(), g.out_w()] || w_dims[0] != co {
        return Err(TensorError::ShapeMismatch {
            op: "conv3d_backward_data",
            lhs: gout_dims.to_vec(),
            rhs: vec![n, co, g.out_d(), g.out_h(), g.out_w()],
        });
    }
    check_epilogue(ep, ci, "conv3d_backward_data")?;
    let in_sz = ci * g.d * g.h * g.w;
    let out_sz = co * g.out_d() * g.out_h() * g.out_w();
    let col_sz = g.col_rows() * g.col_cols();
    assert_eq!(
        gout.len(),
        n * out_sz,
        "conv3d_backward_data_into: bad gout length"
    );
    assert_eq!(
        gx.len(),
        n * in_sz,
        "conv3d_backward_data_into: bad gx length"
    );
    let _span = mtsr_telemetry::span("tensor.conv3d.backward_data");
    par_chunks_mut(gx, in_sz, |ni, gxi| {
        with_scratch(col_sz, |cols| {
            sgemm_tn_serial(
                w,
                &gout[ni * out_sz..(ni + 1) * out_sz],
                cols,
                g.col_rows(),
                co,
                g.col_cols(),
                false,
            );
            gxi.fill(0.0);
            col2im3d(cols, &g, gxi);
            if let Some(e) = ep {
                e.apply_rows(gxi, g.d * g.h * g.w);
            }
        });
    });
    Ok(())
}

/// 3D convolution backward-weights, summed over the batch.
pub fn conv3d_backward_weights(
    x: &Tensor,
    gout: &Tensor,
    spec: &Conv3dSpec,
    kernel_dhw: (usize, usize, usize),
) -> Result<Tensor> {
    let (n, ci) = (x.dims()[0], x.dims()[1]);
    let co = gout.dims()[1];
    let w_dims = [co, ci, kernel_dhw.0, kernel_dhw.1, kernel_dhw.2];
    let g = geom3d(x.dims(), &w_dims, spec)?;
    if gout.dims() != [n, co, g.out_d(), g.out_h(), g.out_w()] {
        return Err(TensorError::ShapeMismatch {
            op: "conv3d_backward_weights",
            lhs: gout.dims().to_vec(),
            rhs: vec![n, co, g.out_d(), g.out_h(), g.out_w()],
        });
    }
    let in_sz = ci * g.d * g.h * g.w;
    let out_sz = co * g.out_d() * g.out_h() * g.out_w();
    let xs = x.as_slice();
    let gs = gout.as_slice();
    let wlen = co * g.col_rows();
    let _span = mtsr_telemetry::span("tensor.conv3d.backward_weights");
    mtsr_telemetry::add_counter("tensor.im2col3d.calls", n as u64);
    let dw = par_fold_sum(n, wlen, |acc, ni| {
        with_im2col3d(&xs[ni * in_sz..(ni + 1) * in_sz], &g, |cols| {
            sgemm_nt_serial(
                &gs[ni * out_sz..(ni + 1) * out_sz],
                cols,
                acc,
                co,
                g.col_cols(),
                g.col_rows(),
                true,
            );
        });
    });
    Tensor::from_vec(w_dims.to_vec(), dw)
}

/// Output `(D, H, W)` of a transposed 3D convolution.
pub fn deconv3d_out_dhw(
    in_dhw: (usize, usize, usize),
    kernel: (usize, usize, usize),
    spec: &Conv3dSpec,
) -> Result<(usize, usize, usize)> {
    let od = (in_dhw.0 - 1) * spec.stride.0 + kernel.0;
    let oh = (in_dhw.1 - 1) * spec.stride.1 + kernel.1;
    let ow = (in_dhw.2 - 1) * spec.stride.2 + kernel.2;
    if od < 2 * spec.pad.0 || oh < 2 * spec.pad.1 || ow < 2 * spec.pad.2 {
        return Err(TensorError::InvalidConv {
            reason: format!("deconv3d output {od}x{oh}x{ow} smaller than padding crop"),
        });
    }
    Ok((
        od - 2 * spec.pad.0,
        oh - 2 * spec.pad.1,
        ow - 2 * spec.pad.2,
    ))
}

/// Transposed 3D convolution forward:
/// `[N,Ci,D,H,W] ⊛ᵀ [Ci,Co,KD,KH,KW] → [N,Co,OD,OH,OW]`, with an optional
/// fused [`Epilogue`] (swept per sample after the col2im scatter-add).
///
/// This is the upsampling operation of ZipNet's 3D upscaling blocks.
pub fn conv_transpose3d_forward(
    x: &Tensor,
    w: &Tensor,
    spec: &Conv3dSpec,
    ep: Option<&Epilogue<'_>>,
) -> Result<Tensor> {
    let d = x.dims();
    if d.len() != 5 || w.dims().len() != 5 {
        return Err(TensorError::InvalidShape {
            op: "conv_transpose3d",
            reason: format!(
                "expected input [N,Ci,D,H,W] and weight [Ci,Co,KD,KH,KW], got {:?} / {:?}",
                d,
                w.dims()
            ),
        });
    }
    let (od, oh, ow) = deconv3d_out_dhw(
        (d[2], d[3], d[4]),
        (w.dims()[2], w.dims()[3], w.dims()[4]),
        spec,
    )?;
    let (n, co) = (d[0], w.dims()[1]);
    let mut out = Tensor::zeros([n, co, od, oh, ow]);
    conv_transpose3d_forward_into(
        x.as_slice(),
        d,
        w.as_slice(),
        w.dims(),
        spec,
        out.as_mut_slice(),
        ep,
    )?;
    Ok(out)
}

/// Slice-based [`conv_transpose3d_forward`] writing into a
/// caller-owned buffer of `N · Co · OD · OH · OW` elements.
pub fn conv_transpose3d_forward_into(
    x: &[f32],
    x_dims: &[usize],
    w: &[f32],
    w_dims: &[usize],
    spec: &Conv3dSpec,
    out: &mut [f32],
    ep: Option<&Epilogue<'_>>,
) -> Result<()> {
    if x_dims.len() != 5 || w_dims.len() != 5 {
        return Err(TensorError::InvalidShape {
            op: "conv_transpose3d",
            reason: format!(
                "expected input [N,Ci,D,H,W] and weight [Ci,Co,KD,KH,KW], got {x_dims:?} / {w_dims:?}"
            ),
        });
    }
    let dhw = deconv3d_out_dhw(
        (x_dims[2], x_dims[3], x_dims[4]),
        (w_dims[2], w_dims[3], w_dims[4]),
        spec,
    )?;
    conv3d_backward_data_into(x, x_dims, w, w_dims, spec, dhw, out, ep)
}

/// Transposed 3D convolution backward-data.
pub fn conv_transpose3d_backward_data(
    gout: &Tensor,
    w: &Tensor,
    spec: &Conv3dSpec,
) -> Result<Tensor> {
    conv3d_forward(gout, w, spec, None)
}

/// Transposed 3D convolution backward-weights.
pub fn conv_transpose3d_backward_weights(
    x: &Tensor,
    gout: &Tensor,
    spec: &Conv3dSpec,
    kernel_dhw: (usize, usize, usize),
) -> Result<Tensor> {
    conv3d_backward_weights(gout, x, spec, kernel_dhw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Direct 6-loop reference convolution.
    fn conv2d_naive(x: &Tensor, w: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let (n, ci, h, wid) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (co, kh, kw) = (w.dims()[0], w.dims()[2], w.dims()[3]);
        let (sh, sw) = spec.stride;
        let (ph, pw) = spec.pad;
        let oh = (h + 2 * ph - kh) / sh + 1;
        let ow = (wid + 2 * pw - kw) / sw + 1;
        let mut out = Tensor::zeros([n, co, oh, ow]);
        for ni in 0..n {
            for coi in 0..co {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut s = 0.0f64;
                        for cii in 0..ci {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = (oy * sh + ky) as isize - ph as isize;
                                    let ix = (ox * sw + kx) as isize - pw as isize;
                                    if iy < 0 || iy >= h as isize || ix < 0 || ix >= wid as isize {
                                        continue;
                                    }
                                    let xv = x.get(&[ni, cii, iy as usize, ix as usize]).unwrap();
                                    let wv = w.get(&[coi, cii, ky, kx]).unwrap();
                                    s += xv as f64 * wv as f64;
                                }
                            }
                        }
                        out.set(&[ni, coi, oy, ox], s as f32).unwrap();
                    }
                }
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
        assert_eq!(a.dims(), b.dims(), "{what}: dims");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!((x - y).abs() < tol, "{what}: elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn conv2d_matches_naive() {
        let mut rng = Rng::seed_from(1);
        for &(s, p, k) in &[(1usize, 1usize, 3usize), (2, 1, 3), (1, 0, 1), (2, 0, 2)] {
            let x = Tensor::rand_normal([2, 3, 8, 9], 0.0, 1.0, &mut rng);
            let w = Tensor::rand_normal([4, 3, k, k], 0.0, 0.5, &mut rng);
            let spec = Conv2dSpec::new(s, p);
            let fast = conv2d_forward(&x, &w, &spec, None).unwrap();
            let slow = conv2d_naive(&x, &w, &spec);
            assert_close(&fast, &slow, 1e-3, &format!("s={s} p={p} k={k}"));
        }
    }

    /// Adjoint test: <conv(x), y> == <x, conv_bwd_data(y)> for random x, y.
    #[test]
    fn conv2d_backward_data_is_adjoint() {
        let mut rng = Rng::seed_from(2);
        let spec = Conv2dSpec::new(2, 1);
        let x = Tensor::rand_normal([2, 3, 7, 7], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([5, 3, 3, 3], 0.0, 0.5, &mut rng);
        let y_shape_probe = conv2d_forward(&x, &w, &spec, None).unwrap();
        let y = Tensor::rand_normal(y_shape_probe.dims().to_vec(), 0.0, 1.0, &mut rng);
        let lhs: f64 = conv2d_forward(&x, &w, &spec, None)
            .unwrap()
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let gx = conv2d_backward_data(&y, &w, &spec, (7, 7)).unwrap();
        let rhs: f64 = gx
            .as_slice()
            .iter()
            .zip(x.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    /// Gradient-of-weights test against finite differences on a tiny conv.
    #[test]
    fn conv2d_backward_weights_finite_difference() {
        let mut rng = Rng::seed_from(3);
        let spec = Conv2dSpec::new(1, 1);
        let x = Tensor::rand_normal([1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let mut w = Tensor::rand_normal([2, 2, 3, 3], 0.0, 0.5, &mut rng);
        // Loss = sum(conv(x, w)); dL/dout = ones.
        let out = conv2d_forward(&x, &w, &spec, None).unwrap();
        let gout = Tensor::ones(out.dims().to_vec());
        let dw = conv2d_backward_weights(&x, &gout, &spec, (3, 3)).unwrap();
        let eps = 1e-2f32;
        for &idx in &[0usize, 7, 17, 35] {
            let orig = w.as_slice()[idx];
            w.as_mut_slice()[idx] = orig + eps;
            let lp = conv2d_forward(&x, &w, &spec, None).unwrap().sum();
            w.as_mut_slice()[idx] = orig - eps;
            let lm = conv2d_forward(&x, &w, &spec, None).unwrap().sum();
            w.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dw.as_slice()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "idx {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn deconv2d_shapes_and_exact_upscale() {
        // kernel == stride, pad 0: exact integer upscaling.
        let spec = Conv2dSpec::new(2, 0);
        assert_eq!(deconv2d_out_hw((5, 5), (2, 2), &spec).unwrap(), (10, 10));
        let mut rng = Rng::seed_from(4);
        let x = Tensor::rand_normal([1, 3, 5, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([3, 4, 2, 2], 0.0, 0.5, &mut rng);
        let y = conv_transpose2d_forward(&x, &w, &spec, None).unwrap();
        assert_eq!(y.dims(), &[1, 4, 10, 10]);
    }

    #[test]
    fn deconv2d_is_adjoint_of_conv2d() {
        // deconv_W and conv_W must be exact adjoints by construction.
        let mut rng = Rng::seed_from(5);
        let spec = Conv2dSpec::new(2, 1);
        let w = Tensor::rand_normal([3, 4, 3, 3], 0.0, 0.5, &mut rng); // [Ci_d=3, Co_d=4]
        let x = Tensor::rand_normal([2, 3, 5, 5], 0.0, 1.0, &mut rng);
        let y = conv_transpose2d_forward(&x, &w, &spec, None).unwrap();
        let z = Tensor::rand_normal(y.dims().to_vec(), 0.0, 1.0, &mut rng);
        let lhs: f64 = y
            .as_slice()
            .iter()
            .zip(z.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        // adjoint of deconv = conv with the same weight
        let back = conv2d_forward(&z, &w, &spec, None).unwrap();
        let rhs: f64 = back
            .as_slice()
            .iter()
            .zip(x.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn deconv2d_backward_weights_finite_difference() {
        let mut rng = Rng::seed_from(6);
        let spec = Conv2dSpec::new(2, 0);
        let x = Tensor::rand_normal([1, 2, 3, 3], 0.0, 1.0, &mut rng);
        let mut w = Tensor::rand_normal([2, 3, 2, 2], 0.0, 0.5, &mut rng);
        let out = conv_transpose2d_forward(&x, &w, &spec, None).unwrap();
        let gout = Tensor::ones(out.dims().to_vec());
        let dw = conv_transpose2d_backward_weights(&x, &gout, &spec, (2, 2)).unwrap();
        assert_eq!(dw.dims(), w.dims());
        let eps = 1e-2f32;
        for &idx in &[0usize, 5, 11, 23] {
            let orig = w.as_slice()[idx];
            w.as_mut_slice()[idx] = orig + eps;
            let lp = conv_transpose2d_forward(&x, &w, &spec, None).unwrap().sum();
            w.as_mut_slice()[idx] = orig - eps;
            let lm = conv_transpose2d_forward(&x, &w, &spec, None).unwrap().sum();
            w.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dw.as_slice()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "idx {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// The per-output-depth conv3d route (structurally-zero temporal
    /// taps skipped, one narrow GEMM per `oz`) must be bit-identical to
    /// the full im2col lowering, plain and with a fused epilogue. The
    /// geometry makes every per-oz GEMM large enough to take the packed
    /// kernel, so [`conv3d_forward_into`] takes the per-oz route.
    #[test]
    fn conv3d_per_oz_route_matches_full_lowering_bitwise() {
        let mut rng = Rng::seed_from(11);
        let x = Tensor::rand_normal([2, 3, 3, 6, 7], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([4, 3, 3, 3, 3], 0.0, 0.5, &mut rng);
        let bias: Vec<f32> = (0..4).map(|i| 0.1 * i as f32 - 0.15).collect();
        let spec = Conv3dSpec::same(3, 3);
        let g = geom3d(x.dims(), w.dims(), &spec).unwrap();
        let (in_sz, out_sz) = (x.numel() / 2, 4 * 3 * 6 * 7);
        for ep in [None, Some(Epilogue::new(&bias).leaky(0.2))] {
            let forward = conv3d_forward(&x, &w, &spec, ep.as_ref()).unwrap();
            for (ni, o) in forward.as_slice().chunks_exact(out_sz).enumerate() {
                let xs = &x.as_slice()[ni * in_sz..(ni + 1) * in_sz];
                let mut per_oz = vec![0.0; out_sz];
                let mut full = vec![0.0; out_sz];
                conv3d_sample_per_oz(xs, w.as_slice(), &g, 4, &mut per_oz, ep.as_ref());
                conv3d_sample_full(xs, w.as_slice(), &g, 4, &mut full, ep.as_ref());
                assert_eq!(
                    per_oz,
                    full,
                    "per-oz conv3d diverges from the full lowering (ep: {})",
                    ep.is_some()
                );
                assert_eq!(o, &per_oz[..], "forward diverges from the per-oz route");
            }
        }
    }

    #[test]
    fn conv3d_reduces_to_conv2d_when_depth_one() {
        // A [N,C,1,H,W] conv3d with kd=1 must equal the conv2d result.
        let mut rng = Rng::seed_from(7);
        let x2 = Tensor::rand_normal([2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let w2 = Tensor::rand_normal([4, 3, 3, 3], 0.0, 0.5, &mut rng);
        let spec2 = Conv2dSpec::new(1, 1);
        let ref2 = conv2d_forward(&x2, &w2, &spec2, None).unwrap();

        let x3 = x2.reshaped([2, 3, 1, 6, 6]).unwrap();
        let w3 = w2.reshaped([4, 3, 1, 3, 3]).unwrap();
        let spec3 = Conv3dSpec {
            stride: (1, 1, 1),
            pad: (0, 1, 1),
        };
        let out3 = conv3d_forward(&x3, &w3, &spec3, None).unwrap();
        assert_eq!(out3.dims(), &[2, 4, 1, 6, 6]);
        let flat = out3.reshaped([2, 4, 6, 6]).unwrap();
        for (a, b) in flat.as_slice().iter().zip(ref2.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn conv3d_backward_data_is_adjoint() {
        let mut rng = Rng::seed_from(8);
        let spec = Conv3dSpec::same(3, 3);
        let x = Tensor::rand_normal([1, 2, 4, 5, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([3, 2, 3, 3, 3], 0.0, 0.5, &mut rng);
        let y = conv3d_forward(&x, &w, &spec, None).unwrap();
        let z = Tensor::rand_normal(y.dims().to_vec(), 0.0, 1.0, &mut rng);
        let lhs: f64 = y
            .as_slice()
            .iter()
            .zip(z.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let gx = conv3d_backward_data(&z, &w, &spec, (4, 5, 5)).unwrap();
        let rhs: f64 = gx
            .as_slice()
            .iter()
            .zip(x.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv3d_backward_weights_finite_difference() {
        let mut rng = Rng::seed_from(9);
        let spec = Conv3dSpec::same(3, 3);
        let x = Tensor::rand_normal([1, 2, 3, 4, 4], 0.0, 1.0, &mut rng);
        let mut w = Tensor::rand_normal([2, 2, 3, 3, 3], 0.0, 0.5, &mut rng);
        let out = conv3d_forward(&x, &w, &spec, None).unwrap();
        let gout = Tensor::ones(out.dims().to_vec());
        let dw = conv3d_backward_weights(&x, &gout, &spec, (3, 3, 3)).unwrap();
        let eps = 1e-2f32;
        for &idx in &[0usize, 13, 54, 107] {
            let orig = w.as_slice()[idx];
            w.as_mut_slice()[idx] = orig + eps;
            let lp = conv3d_forward(&x, &w, &spec, None).unwrap().sum();
            w.as_mut_slice()[idx] = orig - eps;
            let lm = conv3d_forward(&x, &w, &spec, None).unwrap().sum();
            w.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = dw.as_slice()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "idx {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn deconv3d_upscales_spatially_only() {
        // ZipNet upscale block: temporal axis preserved (kd=3, sd=1, pd=1),
        // spatial axes doubled (k=s=2, p=0).
        let spec = Conv3dSpec {
            stride: (1, 2, 2),
            pad: (1, 0, 0),
        };
        assert_eq!(
            deconv3d_out_dhw((6, 5, 5), (3, 2, 2), &spec).unwrap(),
            (6, 10, 10)
        );
        let mut rng = Rng::seed_from(10);
        let x = Tensor::rand_normal([1, 4, 6, 5, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([4, 8, 3, 2, 2], 0.0, 0.5, &mut rng);
        let y = conv_transpose3d_forward(&x, &w, &spec, None).unwrap();
        assert_eq!(y.dims(), &[1, 8, 6, 10, 10]);
    }

    #[test]
    fn shape_errors_are_reported() {
        let x = Tensor::zeros([1, 3, 4, 4]);
        let w_bad_ci = Tensor::zeros([2, 5, 3, 3]);
        assert!(conv2d_forward(&x, &w_bad_ci, &Conv2dSpec::new(1, 1), None).is_err());
        let w_bad_rank = Tensor::zeros([2, 3, 3]);
        assert!(conv2d_forward(&x, &w_bad_rank, &Conv2dSpec::new(1, 1), None).is_err());
        let gout_bad = Tensor::zeros([1, 2, 9, 9]);
        let w = Tensor::zeros([2, 3, 3, 3]);
        assert!(conv2d_backward_data(&gout_bad, &w, &Conv2dSpec::new(1, 1), (4, 4)).is_err());
    }

    /// Bias sweep + LeakyReLU sweep, per channel, in the exact op order
    /// the layer path uses — the unfused reference for the fused forwards.
    fn sweep_bias_lrelu(y: &Tensor, bias: &[f32], alpha: f32) -> Tensor {
        let d = y.dims();
        let c = d[1];
        let spatial: usize = d[2..].iter().product();
        let mut out = y.clone();
        let o = out.as_mut_slice();
        for ni in 0..d[0] {
            for (ci, &b) in bias.iter().enumerate().take(c) {
                for v in &mut o[(ni * c + ci) * spatial..(ni * c + ci + 1) * spatial] {
                    *v += b;
                }
            }
        }
        for v in out.as_mut_slice() {
            *v = if *v > 0.0 { *v } else { alpha * *v };
        }
        out
    }

    #[test]
    fn fused_forwards_bitexact_vs_unfused_sweeps() {
        let mut rng = Rng::seed_from(12);
        let alpha = 0.1f32;

        // conv2d (big enough to exit the small-GEMM fallback) and conv3d.
        let x2 = Tensor::rand_normal([2, 3, 10, 10], 0.0, 1.0, &mut rng);
        let w2 = Tensor::rand_normal([6, 3, 3, 3], 0.0, 0.5, &mut rng);
        let b2: Vec<f32> = (0..6).map(|_| rng.normal(0.0, 0.5)).collect();
        let spec2 = Conv2dSpec::same(3);
        let plain = conv2d_forward(&x2, &w2, &spec2, None).unwrap();
        let fused =
            conv2d_forward(&x2, &w2, &spec2, Some(&Epilogue::new(&b2).leaky(alpha))).unwrap();
        assert_eq!(
            fused.as_slice(),
            sweep_bias_lrelu(&plain, &b2, alpha).as_slice()
        );

        let x3 = Tensor::rand_normal([1, 2, 4, 6, 6], 0.0, 1.0, &mut rng);
        let w3 = Tensor::rand_normal([5, 2, 3, 3, 3], 0.0, 0.5, &mut rng);
        let b3: Vec<f32> = (0..5).map(|_| rng.normal(0.0, 0.5)).collect();
        let spec3 = Conv3dSpec::same(3, 3);
        let plain = conv3d_forward(&x3, &w3, &spec3, None).unwrap();
        let fused =
            conv3d_forward(&x3, &w3, &spec3, Some(&Epilogue::new(&b3).leaky(alpha))).unwrap();
        assert_eq!(
            fused.as_slice(),
            sweep_bias_lrelu(&plain, &b3, alpha).as_slice()
        );

        // Transposed variants: epilogue applied after the col2im scatter.
        let xd = Tensor::rand_normal([2, 3, 5, 5], 0.0, 1.0, &mut rng);
        let wd = Tensor::rand_normal([3, 4, 2, 2], 0.0, 0.5, &mut rng);
        let bd: Vec<f32> = (0..4).map(|_| rng.normal(0.0, 0.5)).collect();
        let specd = Conv2dSpec::new(2, 0);
        let plain = conv_transpose2d_forward(&xd, &wd, &specd, None).unwrap();
        let fused =
            conv_transpose2d_forward(&xd, &wd, &specd, Some(&Epilogue::new(&bd).leaky(alpha)))
                .unwrap();
        assert_eq!(
            fused.as_slice(),
            sweep_bias_lrelu(&plain, &bd, alpha).as_slice()
        );

        let xd3 = Tensor::rand_normal([1, 4, 3, 5, 5], 0.0, 1.0, &mut rng);
        let wd3 = Tensor::rand_normal([4, 6, 3, 2, 2], 0.0, 0.5, &mut rng);
        let bd3: Vec<f32> = (0..6).map(|_| rng.normal(0.0, 0.5)).collect();
        let specd3 = Conv3dSpec {
            stride: (1, 2, 2),
            pad: (1, 0, 0),
        };
        let plain = conv_transpose3d_forward(&xd3, &wd3, &specd3, None).unwrap();
        let fused =
            conv_transpose3d_forward(&xd3, &wd3, &specd3, Some(&Epilogue::new(&bd3).leaky(alpha)))
                .unwrap();
        assert_eq!(
            fused.as_slice(),
            sweep_bias_lrelu(&plain, &bd3, alpha).as_slice()
        );

        // Epilogue shape errors surface, not panic.
        let short = vec![0.0f32; 2];
        assert!(conv2d_forward(&x2, &w2, &spec2, Some(&Epilogue::new(&short))).is_err());
    }
}
