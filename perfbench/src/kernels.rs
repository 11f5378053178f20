//! The generator's conv layers as a list of kernel calls, with computed
//! FLOPs and bytes, and a replay that times each group of calls through
//! the public `mtsr_tensor::conv` entry points.
//!
//! Shapes come from the network's configuration and weight tensors, the
//! way `plan_zipnet` lays out the inference plan: 3-D upscaling blocks
//! (a deconv then three 3×3×3 convs each), the temporal collapse, the
//! zipper's 3×3 conv2d modules and the three-conv tail.

use mtsr_nn::layer::Layer;
use mtsr_tensor::conv::{
    conv2d_forward_into, conv2d_forward_q_into, conv3d_forward_into, conv3d_forward_q_into,
    conv_transpose3d_forward_into, deconv3d_out_dhw, Conv2dSpec, Conv3dSpec,
};
use mtsr_tensor::matmul::Epilogue;
use mtsr_tensor::qmatmul::QuantizedMat;
use mtsr_tensor::{Rng, Tensor};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use zipnet_core::{upscale_blocks, ZipNet};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Deconv3d(Conv3dSpec),
    Conv3d(Conv3dSpec),
    Conv2d(Conv2dSpec),
}

/// One conv call of the generator's eval forward.
#[derive(Debug, Clone)]
pub struct Call {
    /// Replay group (`up_deconv3d`, `up_conv3d`, `zipper_conv2d`,
    /// `tail_conv2d`, `out_conv2d`).
    pub group: &'static str,
    pub layer: String,
    pub op: Op,
    pub x_dims: Vec<usize>,
    pub w_dims: Vec<usize>,
    pub out_dims: Vec<usize>,
    /// LeakyReLU slope; every layer but the output conv has one.
    pub leaky: Option<f32>,
}

impl Call {
    fn numel(d: &[usize]) -> usize {
        d.iter().product()
    }

    /// Multiply-adds × 2, from tensor sizes: every output element of a
    /// conv (every input element of a deconv) meets `Ci·k` (`Co·k`)
    /// weights. Structurally-zero taps that a kernel may skip still count.
    pub fn flops(&self) -> f64 {
        // Weights are [Co, Ci, k..] for convs and [Ci, Co, k..] for the
        // deconv, so axis 1 is the channel count each element meets.
        let k: usize = self.w_dims[2..].iter().product();
        let per = self.w_dims[1] * k;
        match self.op {
            Op::Deconv3d(_) => 2.0 * (Self::numel(&self.x_dims) * per) as f64,
            _ => 2.0 * (Self::numel(&self.out_dims) * per) as f64,
        }
    }

    /// Elements of the lowered (im2col / deconv column) matrix.
    fn lowered(&self) -> usize {
        let n = self.x_dims[0];
        let k: usize = self.w_dims[2..].iter().product();
        match self.op {
            Op::Deconv3d(_) => Self::numel(&self.x_dims) / self.x_dims[1] * self.w_dims[1] * k,
            _ => n * self.w_dims[1] * k * Self::numel(&self.out_dims[2..]),
        }
    }

    /// Bytes moved, computed from tensor sizes: input, weights and output
    /// once each, plus the lowered matrix written once and read once
    /// (f32 everywhere; the int8 route stores weights and lowered panels
    /// as 16-bit codes).
    pub fn bytes(&self, quantized: bool) -> f64 {
        let (x, w, o) = (
            Self::numel(&self.x_dims),
            Self::numel(&self.w_dims),
            Self::numel(&self.out_dims),
        );
        let code = if quantized { 2 } else { 4 };
        (4 * x + code * w + 4 * o + 2 * code * self.lowered()) as f64
    }
}

/// Clones every parameter of `net` into a name → tensor map.
pub fn params(net: &mut ZipNet) -> HashMap<String, Tensor> {
    let mut map = HashMap::new();
    net.visit_params(&mut |p| {
        map.insert(p.name.clone(), p.value.clone());
    });
    map
}

fn weight_dims(params: &HashMap<String, Tensor>, layer: &str) -> Vec<usize> {
    params
        .get(&format!("{layer}.weight"))
        .unwrap_or_else(|| panic!("generator has no {layer}.weight"))
        .dims()
        .to_vec()
}

/// The conv calls of one eval forward over `[batch, 1, S, cw, cw]` crops.
pub fn generator_calls(net: &mut ZipNet, batch: usize, cw: usize) -> Vec<Call> {
    let cfg = net.config().clone();
    let p = params(net);
    let (s, c, alpha) = (cfg.s, cfg.channels, Some(cfg.leaky_alpha));
    let mut calls = Vec::new();
    let (mut ch, mut d, mut h) = (1, s, cw);
    let factors = upscale_blocks(cfg.upscale).expect("validated config");
    for (i, &f) in factors.iter().enumerate() {
        let layer = format!("up{i}.deconv");
        let w_dims = weight_dims(&p, &layer);
        let spec = Conv3dSpec {
            stride: (1, f, f),
            pad: (if f == 1 { 0 } else { 1 }, 0, 0),
        };
        let (od, oh, _) = deconv3d_out_dhw((d, h, h), (w_dims[2], w_dims[3], w_dims[4]), &spec)
            .expect("deconv geometry");
        let out_dims = vec![batch, c, od, oh, oh];
        calls.push(Call {
            group: "up_deconv3d",
            layer,
            op: Op::Deconv3d(spec),
            x_dims: vec![batch, ch, d, h, h],
            w_dims,
            out_dims,
            leaky: alpha,
        });
        (ch, d, h) = (c, od, oh);
        for j in 0..3 {
            let layer = format!("up{i}.conv{j}");
            calls.push(Call {
                group: "up_conv3d",
                w_dims: weight_dims(&p, &layer),
                layer,
                op: Op::Conv3d(Conv3dSpec::same(3, 3)),
                x_dims: vec![batch, ch, d, h, h],
                out_dims: vec![batch, ch, d, h, h],
                leaky: alpha,
            });
        }
    }
    let w_dims = weight_dims(&p, "collapse");
    let od = d + 1 - w_dims[2];
    calls.push(Call {
        group: "up_conv3d",
        layer: "collapse".into(),
        op: Op::Conv3d(Conv3dSpec {
            stride: (1, 1, 1),
            pad: (0, 0, 0),
        }),
        x_dims: vec![batch, ch, d, h, h],
        w_dims,
        out_dims: vec![batch, ch, od, h, h],
        leaky: alpha,
    });
    let conv2d = |group, layer: String, ci: usize, leaky: Option<f32>| {
        let w_dims = weight_dims(&p, &layer);
        Call {
            group,
            op: Op::Conv2d(Conv2dSpec::same(w_dims[2])),
            x_dims: vec![batch, ci, h, h],
            out_dims: vec![batch, w_dims[0], h, h],
            w_dims,
            layer,
            leaky,
        }
    };
    for i in 0..cfg.zipper_modules {
        calls.push(conv2d("zipper_conv2d", format!("zip{i}.conv"), c, alpha));
    }
    calls.push(conv2d("tail_conv2d", "tail0".into(), c, alpha));
    calls.push(conv2d("tail_conv2d", "tail1".into(), 2 * c, alpha));
    calls.push(conv2d("out_conv2d", "tail2".into(), 4 * c, None));
    calls
}

/// Timing of one replayed group.
#[derive(Debug, Clone, Copy)]
pub struct GroupTiming {
    /// Median wall time of one pass over the group's calls.
    pub ms: f64,
    pub flops: f64,
    pub bytes: f64,
}

impl GroupTiming {
    pub fn gflops(&self) -> f64 {
        self.flops / (self.ms * 1e6)
    }
}

enum Weights {
    F32(Vec<f32>),
    Quant(QuantizedMat),
}

struct Prepared<'a> {
    call: &'a Call,
    x: Vec<f32>,
    w: Weights,
    bias: Vec<f32>,
    out: Vec<f32>,
}

impl Prepared<'_> {
    fn run(&mut self) {
        let ep = Epilogue::new(&self.bias);
        let ep = match self.call.leaky {
            Some(alpha) => ep.leaky(alpha),
            None => ep,
        };
        let c = self.call;
        let (x, xd, wd, out) = (&self.x, &c.x_dims, &c.w_dims, &mut self.out);
        let r = match (&self.w, c.op) {
            (Weights::F32(w), Op::Deconv3d(s)) => {
                conv_transpose3d_forward_into(x, xd, w, wd, &s, out, Some(&ep))
            }
            (Weights::F32(w), Op::Conv3d(s)) => {
                conv3d_forward_into(x, xd, w, wd, &s, out, Some(&ep))
            }
            (Weights::F32(w), Op::Conv2d(s)) => {
                conv2d_forward_into(x, xd, w, wd, &s, out, Some(&ep))
            }
            (Weights::Quant(q), Op::Conv3d(s)) => conv3d_forward_q_into(x, xd, q, wd, &s, out, &ep),
            (Weights::Quant(q), Op::Conv2d(s)) => conv2d_forward_q_into(x, xd, q, wd, &s, out, &ep),
            (Weights::Quant(_), Op::Deconv3d(_)) => unreachable!("deconv has no int8 kernel"),
        };
        r.expect("replayed kernel call");
        black_box(&self.out);
    }
}

/// Replays every call of `group` (in plan order) with the model's own
/// weights on random activations, `reps` timed passes after one warm-up
/// pass, and returns the median pass time. `quantized` uses the int8
/// kernels with plan-time per-channel weight quantization.
pub fn replay(
    net: &mut ZipNet,
    calls: &[Call],
    group: &str,
    quantized: bool,
    reps: usize,
    rng: &mut Rng,
) -> GroupTiming {
    let p = params(net);
    let mut prepared: Vec<Prepared> = calls
        .iter()
        .filter(|c| c.group == group)
        .map(|call| {
            let w = p[&format!("{}.weight", call.layer)].as_slice().to_vec();
            let w = if quantized {
                let co = call.w_dims[0];
                Weights::Quant(QuantizedMat::quantize_rows(&w, co, w.len() / co))
            } else {
                Weights::F32(w)
            };
            let x = Tensor::rand_normal(call.x_dims.clone(), 0.0, 1.0, rng);
            Prepared {
                call,
                x: x.as_slice().to_vec(),
                w,
                bias: p[&format!("{}.bias", call.layer)].as_slice().to_vec(),
                out: vec![0.0; call.out_dims.iter().product()],
            }
        })
        .collect();
    assert!(!prepared.is_empty(), "no calls in group {group}");
    let flops = prepared.iter().map(|p| p.call.flops()).sum();
    let bytes = prepared.iter().map(|p| p.call.bytes(quantized)).sum();
    let mut pass = || {
        let t0 = Instant::now();
        for p in prepared.iter_mut() {
            p.run();
        }
        t0.elapsed().as_secs_f64() * 1e3
    };
    pass();
    let times: Vec<f64> = (0..reps.max(1)).map(|_| pass()).collect();
    GroupTiming {
        ms: crate::stats::median(&times),
        flops,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipnet_core::ZipNetConfig;

    #[test]
    fn paper_plan_layout_and_flops() {
        let mut net = ZipNet::new(&ZipNetConfig::paper(4, 6), &mut Rng::seed_from(1)).unwrap();
        let calls = generator_calls(&mut net, 1, 20);
        let count = |g| calls.iter().filter(|c| c.group == g).count();
        assert_eq!(count("up_deconv3d"), 2);
        assert_eq!(count("up_conv3d"), 7);
        assert_eq!(count("zipper_conv2d"), 24);
        assert_eq!(count("tail_conv2d"), 2);
        assert_eq!(count("out_conv2d"), 1);
        let out = calls.last().unwrap();
        assert_eq!(out.out_dims, vec![1, 1, 80, 80]);
        // One 32→32 3×3 zipper conv at 80×80: 2·32·32·9·6400 FLOPs.
        let zip = calls.iter().find(|c| c.group == "zipper_conv2d").unwrap();
        assert_eq!(zip.flops(), 2.0 * 32.0 * 32.0 * 9.0 * 6400.0);
        let total: f64 = calls.iter().map(Call::flops).sum();
        assert!((11e9..13e9).contains(&total), "crop FLOPs {total}");
    }
}
