//! End-to-end guarantees for the fused inference fast path:
//!
//! * [`FusePolicy::Exact`] plans are **bit-identical** to the layer
//!   stack's eval forward — for ZipNet at every supported upscaling
//!   factor, for the discriminator, and at 1 / 2 / all worker threads.
//! * Batched execution equals one-at-a-time execution bit-for-bit.
//! * A planned [`InferSession`] reproduces `MtsrPipeline::predict_full`
//!   exactly (Exact) or to f32 round-off (Folded).
//! * `fold_batchnorms` survives an `mtsr_nn::io` save/reload round-trip
//!   and stays within f32 round-off of the unfolded eval model.

use mtsr_metrics::nrmse;
use mtsr_nn::layer::Layer;
use mtsr_tensor::parallel::set_num_threads;
use mtsr_tensor::{Rng, Tensor};
use mtsr_traffic::{
    CityConfig, Dataset, DatasetConfig, MilanGenerator, MtsrInstance, ProbeLayout, Split,
    SuperResolver,
};
use zipnet_core::{
    plan_discriminator, plan_zipnet, ArchScale, Discriminator, DiscriminatorConfig, FusePolicy,
    GanTrainingConfig, InferExec, MtsrModel, MtsrPipeline, ZipNet, ZipNetConfig,
};

/// A ZipNet with non-trivial BN running statistics.
fn warmed_zipnet(cfg: &ZipNetConfig, seed: u64, h: usize) -> ZipNet {
    let mut rng = Rng::seed_from(seed);
    let mut net = ZipNet::new(cfg, &mut rng).unwrap();
    for _ in 0..2 {
        let x = Tensor::rand_normal([2, 1, cfg.s, h, h], 0.2, 1.0, &mut rng);
        net.forward(&x, true).unwrap();
    }
    net
}

fn warmed_discriminator(seed: u64, h: usize) -> Discriminator {
    let mut rng = Rng::seed_from(seed);
    let mut net = Discriminator::new(&DiscriminatorConfig::tiny(), &mut rng).unwrap();
    for _ in 0..2 {
        let x = Tensor::rand_normal([2, 1, h, h], 0.1, 0.9, &mut rng);
        net.forward(&x, true).unwrap();
    }
    net
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Runs `exec` on `x` at 1 / 2 / all worker threads and asserts every
/// output equals `y_ref` bit for bit.
fn assert_exact_across_workers(exec: &mut InferExec, x: &Tensor, y_ref: &Tensor, what: &str) {
    for workers in [1usize, 2, 0] {
        set_num_threads(workers);
        let y = exec.run(x).unwrap();
        assert_eq!(y.as_slice(), y_ref.as_slice(), "{what}, workers {workers}");
    }
}

/// Satellite (c): fused-vs-layer-by-layer bit-exactness for ZipNet at all
/// three paper upscaling configurations, at the paper's own depth, and
/// for the discriminator, swept over 1 / 2 / all worker threads. One
/// test so the global thread override is set and restored in a single
/// place; GEMM results are partition-invariant, so concurrently running
/// tests stay correct.
#[test]
fn exact_plans_bit_identical_across_configs_and_workers() {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_num_threads(0);
        }
    }
    let _restore = Restore;

    let mut rng = Rng::seed_from(41);
    for upscale in [2usize, 4, 10] {
        let h = if upscale == 10 { 2 } else { 3 };
        let cfg = ZipNetConfig::tiny(upscale, 2);
        let mut net = warmed_zipnet(&cfg, 100 + upscale as u64, h);
        let x = Tensor::rand_normal([2, 1, 2, h, h], 0.0, 1.0, &mut rng);
        let y_ref = net.forward(&x, false).unwrap();
        let mut exec = plan_zipnet(&mut net, FusePolicy::Exact, 2, h, h).unwrap();
        assert_exact_across_workers(&mut exec, &x, &y_ref, &format!("upscale {upscale}"));
    }

    // The paper's depth: 32 channels and 24 zipper modules with the
    // staggered skip wiring of §3.2, S = 6, on a 4×4 coarse crop. The
    // Folded plan must stay within f32 round-off of the layer stack.
    let cfg = ZipNetConfig::paper(4, 6);
    let mut net = warmed_zipnet(&cfg, 144, 4);
    let x = Tensor::rand_normal([1, 1, 6, 4, 4], 0.0, 1.0, &mut Rng::seed_from(145));
    let y_ref = net.forward(&x, false).unwrap();
    let mut exec = plan_zipnet(&mut net, FusePolicy::Exact, 1, 4, 4).unwrap();
    assert_exact_across_workers(&mut exec, &x, &y_ref, "paper preset");
    let folded = plan_zipnet(&mut net, FusePolicy::Folded, 1, 4, 4)
        .unwrap()
        .run(&x)
        .unwrap();
    let diff = max_abs_diff(&folded, &y_ref);
    assert!(diff < 1e-3, "paper preset: folded drifted by {diff}");

    let mut disc = warmed_discriminator(43, 12);
    let x = Tensor::rand_normal([3, 1, 12, 12], 0.0, 1.0, &mut rng);
    let y_ref = disc.forward(&x, false).unwrap();
    let mut exec = plan_discriminator(&mut disc, FusePolicy::Exact, 3, 12, 12).unwrap();
    assert_exact_across_workers(&mut exec, &x, &y_ref, "discriminator");
}

/// Batched executor runs are bit-identical to one-crop-at-a-time runs.
#[test]
fn batched_execution_equals_single() {
    let cfg = ZipNetConfig::tiny(4, 2);
    let mut net = warmed_zipnet(&cfg, 51, 3);
    let batch = 3usize;
    let x = Tensor::rand_normal([batch, 1, 2, 3, 3], 0.0, 1.0, &mut Rng::seed_from(52));
    let mut big = plan_zipnet(&mut net, FusePolicy::Exact, batch, 3, 3).unwrap();
    let y_big = big.run(&x).unwrap();
    let mut one = plan_zipnet(&mut net, FusePolicy::Exact, 1, 3, 3).unwrap();
    let sample = 2 * 3 * 3;
    let out = 12 * 12;
    for b in 0..batch {
        let xb = Tensor::from_vec(
            [1, 1, 2, 3, 3],
            x.as_slice()[b * sample..(b + 1) * sample].to_vec(),
        )
        .unwrap();
        let yb = one.run(&xb).unwrap();
        assert_eq!(
            yb.as_slice(),
            &y_big.as_slice()[b * out..(b + 1) * out],
            "batch lane {b}"
        );
    }
}

fn fitted_tiny_model(seed: u64) -> (Dataset, MtsrModel, usize) {
    let mut rng = Rng::seed_from(seed);
    let gen = MilanGenerator::new(&CityConfig::tiny(), &mut rng).unwrap();
    let movie = gen
        .generate(DatasetConfig::tiny().total(), &mut rng)
        .unwrap();
    let layout = ProbeLayout::for_instance(gen.city(), MtsrInstance::Up4).unwrap();
    let ds = Dataset::build(&movie, layout, DatasetConfig::tiny()).unwrap();
    let mut cfg = GanTrainingConfig::tiny();
    cfg.pretrain_steps = 3;
    let mut m = MtsrModel::zipnet(ArchScale::Tiny, cfg);
    m.fit(&ds, &mut rng).unwrap();
    let t = ds.usable_indices(Split::Test)[0];
    (ds, m, t)
}

/// The planned + batched session reproduces the reference sliding-window
/// path bit-for-bit under `Exact`, including a partial final chunk.
#[test]
fn exact_session_matches_predict_full_bit_exactly() {
    let (ds, mut m, t) = fitted_tiny_model(61);
    let pipe = MtsrPipeline::new(12, 4); // 9 windows on the 20×20 grid
    let reference = pipe
        .predict_full(m.generator_mut().unwrap(), &ds, t)
        .unwrap();
    for batch in [1usize, 4, 16] {
        let mut session = m
            .infer_session(&pipe, &ds, FusePolicy::Exact, batch)
            .unwrap();
        assert_eq!(session.windows_per_frame(), 9);
        let out = session.predict_full(&ds, t).unwrap();
        assert_eq!(out.as_slice(), reference.as_slice(), "batch {batch}");
        // Plan-once / execute-many: the second frame through the same
        // session must be identical too.
        let out2 = session.predict_full(&ds, t).unwrap();
        assert_eq!(
            out2.as_slice(),
            reference.as_slice(),
            "rerun, batch {batch}"
        );
    }
}

/// The folded fast path stays within f32 round-off of the reference.
#[test]
fn folded_session_within_roundoff() {
    let (ds, mut m, t) = fitted_tiny_model(67);
    let pipe = MtsrPipeline::new(12, 4);
    let reference = pipe
        .predict_full(m.generator_mut().unwrap(), &ds, t)
        .unwrap();
    let mut session = m.infer_session(&pipe, &ds, FusePolicy::Folded, 4).unwrap();
    let out = session.predict_full(&ds, t).unwrap();
    let diff = max_abs_diff(&out, &reference);
    assert!(diff < 1e-3, "folded full-grid drifted by {diff}");
}

/// Relative RMS error of `got` against `reference` — scale-free, defined
/// even when the reference mean is ~0 (unlike the traffic NRMSE).
fn rel_rms(got: &Tensor, reference: &Tensor) -> f64 {
    let (mut se, mut sr) = (0.0f64, 0.0f64);
    for (g, r) in got.as_slice().iter().zip(reference.as_slice()) {
        se += ((g - r) as f64).powi(2);
        sr += (*r as f64).powi(2);
    }
    (se / sr.max(1e-30)).sqrt()
}

/// The quantized policy tracks the exact plan within a small relative
/// error at every paper upscaling factor (up-2 / up-4 / up-10), and its
/// integer accumulation makes reruns bit-identical.
#[test]
fn quantized_plans_track_exact_at_all_upscales() {
    for upscale in [2usize, 4, 10] {
        let h = if upscale == 10 { 2 } else { 3 };
        let cfg = ZipNetConfig::tiny(upscale, 2);
        let mut net = warmed_zipnet(&cfg, 200 + upscale as u64, h);
        let x = Tensor::rand_normal([2, 1, 2, h, h], 0.0, 1.0, &mut Rng::seed_from(201));
        let y_ref = plan_zipnet(&mut net, FusePolicy::Exact, 2, h, h)
            .unwrap()
            .run(&x)
            .unwrap();
        let mut quant = plan_zipnet(&mut net, FusePolicy::Quantized, 2, h, h).unwrap();
        let y_q = quant.run(&x).unwrap();
        let rel = rel_rms(&y_q, &y_ref);
        assert!(
            rel < 0.05,
            "upscale {upscale}: quantized rel RMS {rel} vs exact"
        );
        assert_eq!(
            quant.run(&x).unwrap().as_slice(),
            y_q.as_slice(),
            "upscale {upscale}: quantized rerun must be bit-identical"
        );
    }
}

/// End-to-end NRMSE-delta acceptance: on a fitted model, the quantized
/// session's full-grid NRMSE against ground truth may exceed the exact
/// session's by at most a small margin. This is the gate the int8 route
/// must clear to be a legitimate serving policy.
#[test]
fn quantized_session_nrmse_delta_is_bounded() {
    let (ds, mut m, t) = fitted_tiny_model(73);
    let pipe = MtsrPipeline::new(12, 4);
    let truth = ds.fine_frame_raw(t).unwrap();
    let mut exact = m.infer_session(&pipe, &ds, FusePolicy::Exact, 4).unwrap();
    let pred_e = exact.predict_full(&ds, t).unwrap();
    let e_exact = nrmse(&ds.denormalize(&pred_e), &truth).unwrap();
    let mut quant = m
        .infer_session(&pipe, &ds, FusePolicy::Quantized, 4)
        .unwrap();
    let pred_q = quant.predict_full(&ds, t).unwrap();
    let e_quant = nrmse(&ds.denormalize(&pred_q), &truth).unwrap();
    assert!(
        e_quant - e_exact < 0.05,
        "quantized NRMSE {e_quant} vs exact {e_exact}: delta too large"
    );
}

/// Satellite (d): `fold_batchnorms` + `mtsr_nn::io` round-trip. The
/// folded generator is saved, reloaded into a freshly initialised
/// network, and must match the *original* (unfolded) eval output to f32
/// round-off — and the reload must be bit-identical to the in-memory
/// folded model.
#[test]
fn bn_fold_survives_io_roundtrip() {
    let cfg = ZipNetConfig::tiny(2, 3);
    let mut net = warmed_zipnet(&cfg, 71, 4);
    let x = Tensor::rand_normal([1, 1, 3, 4, 4], 0.0, 1.0, &mut Rng::seed_from(72));
    let y_ref = net.forward(&x, false).unwrap();

    net.fold_batchnorms().unwrap();
    let y_folded = net.forward(&x, false).unwrap();
    let diff = max_abs_diff(&y_folded, &y_ref);
    assert!(diff < 1e-3, "folded eval drifted by {diff}");

    let bytes = mtsr_nn::io::to_bytes(&mut net);
    let mut reloaded = ZipNet::new(&cfg, &mut Rng::seed_from(9999)).unwrap();
    mtsr_nn::io::from_bytes(&mut reloaded, &bytes).unwrap();
    let y_reload = reloaded.forward(&x, false).unwrap();
    assert_eq!(y_reload.as_slice(), y_folded.as_slice());
    let diff = max_abs_diff(&y_reload, &y_ref);
    assert!(diff < 1e-3, "reloaded folded model drifted by {diff}");
}

/// Discriminator BN folding preserves eval outputs to f32 round-off.
#[test]
fn discriminator_fold_matches_eval() {
    let mut disc = warmed_discriminator(81, 12);
    let x = Tensor::rand_normal([2, 1, 12, 12], 0.0, 1.0, &mut Rng::seed_from(82));
    let y_ref = disc.forward(&x, false).unwrap();
    disc.fold_batchnorms().unwrap();
    let y = disc.forward(&x, false).unwrap();
    let diff = max_abs_diff(&y, &y_ref);
    assert!(diff < 1e-3, "folded discriminator drifted by {diff}");
}
