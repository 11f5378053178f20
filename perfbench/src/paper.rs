//! Paper-geometry probe for the traced run: full-grid frames at the
//! paper's own geometry — a 100×100 city, uniform up-4 probes, S=6, the
//! 32-channel 24-module ZipNet, 80-cell windows at stride 20 (four crops
//! per frame) — through `InferSession` at batch 1, on the folded and the
//! int8 route, with the paper-depth output checks.
//!
//! The weights are seeded and BatchNorm-warmed, not trained: kernel speed
//! does not depend on weight values, and training the paper preset is
//! out of reach on a small CPU host. These frames are per-layer figures,
//! not a workload: on a shared 2-vCPU host their run-to-run spread is
//! wider than any bound an end-to-end metric may carry (see NOTES.md).

use crate::common::*;
use mtsr_tensor::Rng;
use mtsr_traffic::{CityConfig, Split};
use std::time::Instant;
use zipnet_core::{plan_zipnet, FusePolicy, MtsrPipeline, ZipNet, ZipNetConfig};

pub const UPSCALE: usize = 4;
pub const S: usize = 6;
pub const WINDOW: usize = 80;
const STRIDE: usize = 20;
const BATCH: usize = 1;
/// Folded may differ from Exact by at most this much per cell (the bound
/// of the crates' fused-inference tests).
const FOLDED_MAX_ABS: f64 = 1e-3;

/// `infer.paper_frame_ms`, `infer.paper_q_frame_ms` and
/// `quality.paper_q_rel_rms`, with the checks: the folded frame is
/// bit-identical to a rerun and within max-abs 1e-3 of the Exact route,
/// the Exact frame equals the layer stack (`MtsrPipeline::predict_full`)
/// bit for bit, and the int8 frame is bit-identical to a rerun and finite.
pub fn probe(seed: u64, out: &mut Outcome) {
    let city = CityConfig::paper();
    let grid = city.grid;
    let ds = dataset(city, grid, splits(S, 144, 24, 24), seed);
    let upscale = ds.layout().grid / ds.layout().square;
    assert_eq!(upscale, UPSCALE, "uniform up-4 probes");
    let mut rng = Rng::seed_from(seed ^ MODEL_STREAM);
    let mut net = ZipNet::new(&ZipNetConfig::paper(upscale, S), &mut rng).expect("paper config");
    warm_batchnorm(&mut net, &mut rng);
    let pipe = MtsrPipeline::new(WINDOW, STRIDE);
    let t = ds.usable_indices(Split::Test)[0];
    let input = &coarse_inputs(&ds, &[t])[0];
    let sq = ds.layout().square;

    let frame = |net: &mut ZipNet, policy| {
        let mut session = pipe.session(net, &ds, policy, BATCH).expect("session");
        // Warm the kernels' per-worker scratch with one crop first.
        let cw = session.coarse_window();
        let mut warm = plan_zipnet(net, policy, BATCH, cw, cw).expect("plan");
        let crop = vec![0.5f32; warm.input_dims().iter().product()];
        let mut y = vec![0.0f32; warm.output_dims().iter().product()];
        warm.run_into(&crop, &mut y).expect("warm-up crop");
        let t0 = Instant::now();
        let f = session.predict_frame(input, sq).expect("frame");
        let ms = ms_since(t0);
        let again = session.predict_frame(input, sq).expect("rerun");
        let rerun_ok = bits_equal(f.as_slice(), again.as_slice());
        (f.as_slice().to_vec(), ms, rerun_ok)
    };
    let (folded, folded_ms, folded_rerun) = frame(&mut net, FusePolicy::Folded);
    let (quant, quant_ms, quant_rerun) = frame(&mut net, FusePolicy::Quantized);
    let mut exact = pipe
        .session(&mut net, &ds, FusePolicy::Exact, BATCH)
        .expect("exact session");
    let exact = exact.predict_frame(input, sq).expect("exact frame");
    let exact = exact.as_slice();
    let layer = pipe
        .predict_full(&mut net, &ds, t)
        .expect("layer-stack frame");

    let diff = max_abs_diff(&folded, exact);
    let checks = [
        (
            folded_rerun,
            "paper folded frame is not bit-identical to a rerun",
        ),
        (
            quant_rerun,
            "paper int8 frame is not bit-identical to a rerun",
        ),
        (
            all_finite(&folded) && all_finite(&quant),
            "paper frame has non-finite values",
        ),
        (
            bits_equal(layer.as_slice(), exact),
            "paper Exact-route frame differs from the layer stack (predict_full)",
        ),
        (
            diff <= FOLDED_MAX_ABS,
            "paper Folded frame differs from Exact by more than 1e-3",
        ),
    ];
    out.attempted += 1;
    let mut ok = true;
    for (pass, what) in checks {
        ok &= out.check(pass, || what.to_string());
    }
    if !ok {
        out.failed += 1;
    }
    let q_rel_rms = rel_rms(&quant, exact);
    out.info.push(format!(
        "paper: frame folded {folded_ms:.0} ms, int8 {quant_ms:.0} ms; vs Exact: folded max-abs {diff:e} rel-RMS {:e}, int8 rel-RMS {q_rel_rms:.6}",
        rel_rms(&folded, exact)
    ));
    let m = &mut out.metrics;
    m.push("infer.paper_frame_ms", folded_ms, "ms");
    m.push("infer.paper_q_frame_ms", quant_ms, "ms");
    m.push("quality.paper_q_rel_rms", q_rel_rms, "ratio");
}
