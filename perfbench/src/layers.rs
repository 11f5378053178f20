//! Per-layer metrics for the traced run.
//!
//! Every traced run reports the same per-layer metric set. The traffic,
//! infer, pipeline, telemetry and trace metrics are taken in the
//! workload's own context (its data, model, route and batch). The
//! paper-geometry frames, the kernel replays at paper shapes, the
//! training-layer probes at tiny-train shapes, and — on the workload that
//! does not serve — a short low-rate serving probe run identically in
//! every workload.

use crate::common::*;
use crate::kernels::{self, Call};
use crate::serve;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::Ctx;
use mtsr_nn::layer::Layer;
use mtsr_nn::{bce_with_logits, mse_loss, Adam, Optimizer};
use mtsr_tensor::conv::{conv2d_backward_data, conv2d_backward_weights, Conv2dSpec};
use mtsr_tensor::parallel::set_num_threads;
use mtsr_tensor::{Rng, Tensor};
use mtsr_traffic::{CityConfig, Dataset, Split};
use std::hint::black_box;
use std::time::Instant;
use zipnet_core::{
    plan_zipnet, Discriminator, DiscriminatorConfig, FusePolicy, GanTrainer, MtsrPipeline, ZipNet,
    ZipNetConfig,
};

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            ms_since(t0)
        })
        .collect();
    stats::median(&times)
}

/// `traffic.*`: dataset build time (median over the run's set-ups) and
/// one training minibatch draw.
pub fn traffic_metrics(ds: &Dataset, build_s: &[f64], out: &mut Outcome, seed: u64) {
    let mut rng = Rng::seed_from(seed);
    let sample = median_ms(9, || {
        black_box(
            ds.sample_batch(Split::Train, 8, &mut rng)
                .expect("minibatch"),
        );
    });
    out.metrics
        .push("traffic.build_s", stats::median(build_s), "s");
    out.metrics.push("traffic.sample_batch_ms", sample, "ms");
}

/// `infer.*`, `pipeline.*`, `telemetry.*` and `trace.*` in the workload's
/// context. Each round runs one frame three ways: the session untraced,
/// the session with the crates' telemetry on, and the session's loop
/// taken apart with a span around every layer call. The traced frame
/// must equal the session's frame bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn frame_layers(
    gen: &mut ZipNet,
    ds: &Dataset,
    pipe: MtsrPipeline,
    policy: FusePolicy,
    batch: usize,
    inputs: &[Vec<f32>],
    rounds: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let sq = ds.layout().square;
    let mut session = None;
    let plan_ms = median_ms(3, || {
        session = Some(pipe.session(gen, ds, policy, batch).expect("session"));
    });
    let mut session = session.expect("planned");
    let cw = session.coarse_window();
    let exec = plan_zipnet(gen, policy, batch, cw, cw).expect("plan");
    let flops: f64 = kernels::generator_calls(gen, batch, cw)
        .iter()
        .map(Call::flops)
        .sum();
    let mut runner = FrameRunner::new(exec, &pipe, ds);
    let mut untraced = Tracer::new(false, Instant::now());
    session.predict_frame(&inputs[0], sq).expect("warm-up");
    runner.run(&inputs[0], sq, &mut untraced, 0);

    let (mut off, mut on, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..rounds {
        let x = &inputs[r % inputs.len()];
        let t0 = Instant::now();
        let frame = session.predict_frame(x, sq).expect("frame");
        off.push(ms_since(t0));
        mtsr_telemetry::set_enabled(true);
        let t0 = Instant::now();
        black_box(session.predict_frame(x, sq).expect("frame"));
        on.push(ms_since(t0));
        mtsr_telemetry::set_enabled(false);
        let t0 = Instant::now();
        let sp = tr.begin("frame", r as u64);
        let got = runner.run(x, sq, tr, r as u64);
        tr.end(sp);
        traced.push(ms_since(t0));
        out.attempted += 1;
        if !out.check(bits_equal(got, frame.as_slice()), || {
            format!("traced frame {r} differs from the session's frame")
        }) {
            out.failed += 1;
        }
    }
    // These span names are recorded nowhere else in a run.
    let tot = trace::totals(tr.spans());
    let self_ms = |name: &str| tot.get(name).map_or(f64::NAN, |t| t.self_ns as f64 / 1e6);
    let count = |name: &str| tot.get(name).map_or(0, |t| t.count) as f64;
    let exec_ms = self_ms("infer.exec") / count("infer.exec");
    let frame_ms = stats::median(&off);
    let m = &mut out.metrics;
    m.push("infer.plan_ms", plan_ms, "ms");
    m.push("infer.exec_ms", exec_ms, "ms");
    m.push("infer.gflops", flops / (exec_ms * 1e6), "GFLOP/s");
    // Share of the traced frame spent in the executor.
    m.push(
        "infer.share",
        runner.calls_per_frame() as f64 * exec_ms / stats::median(&traced),
        "frac",
    );
    let arena = runner.exec().arena_elems() as f64 * 4.0 / (1 << 20) as f64;
    m.push("infer.arena_mb", arena, "MB");
    let frames = rounds as f64;
    m.push("pipeline.crop_ms", self_ms("pipeline.crop") / frames, "ms");
    m.push(
        "pipeline.reassemble_ms",
        self_ms("pipeline.reassemble") / frames,
        "ms",
    );
    m.push(
        "telemetry.on_overhead_frac",
        stats::median(&on) / frame_ms - 1.0,
        "frac",
    );
    m.push(
        "trace.overhead_frac",
        stats::median(&traced) / frame_ms - 1.0,
        "frac",
    );
}

/// `tensor.*` at the paper plan's shapes (batch 1, one crop), replaying
/// each group of layers with the model's weights.
fn kernel_probe(seed: u64, out: &mut Outcome) {
    let mut rng = Rng::seed_from(seed ^ MODEL_STREAM);
    let cfg = ZipNetConfig::paper(crate::paper::UPSCALE, crate::paper::S);
    let mut net = ZipNet::new(&cfg, &mut rng).expect("paper config");
    let cw = crate::paper::WINDOW / cfg.upscale;
    let calls = kernels::generator_calls(&mut net, 1, cw);
    let reps = 3;
    let m = &mut out.metrics;
    let mut zipper_2w = f64::NAN;
    let groups = [
        ("up_deconv3d", false),
        ("up_conv3d", false),
        ("zipper_conv2d", false),
        ("tail_conv2d", false),
        ("out_conv2d", false),
        ("up_conv3d", true),
        ("zipper_conv2d", true),
    ];
    for (group, quantized) in groups {
        let t = kernels::replay(&mut net, &calls, group, quantized, reps, &mut rng);
        let name = if quantized {
            format!("tensor.q_{group}")
        } else {
            format!("tensor.{group}")
        };
        if group == "zipper_conv2d" && !quantized {
            zipper_2w = t.ms;
        }
        m.push(format!("{name}.ms"), t.ms, "ms");
        m.push(format!("{name}.gflops"), t.gflops(), "GFLOP/s");
        m.push(format!("{name}.bytes"), t.bytes, "B");
    }
    // The plain single-threaded baseline behind the two-worker speed-up.
    set_num_threads(1);
    let one = kernels::replay(&mut net, &calls, "zipper_conv2d", false, reps, &mut rng);
    set_num_threads(KERNEL_WORKERS);
    m.push("tensor.zipper_conv2d.ms_1w", one.ms, "ms");
    m.push("tensor.zipper_conv2d.speedup_2w", one.ms / zipper_2w, "x");
}

/// Training shapes of the tiny-train workload.
pub const TRAIN_GRID: usize = 40;
pub const TRAIN_S: usize = 3;
pub const TRAIN_BATCH: usize = 8;

pub fn train_dataset(seed: u64, train: usize, test: usize) -> Dataset {
    dataset(
        CityConfig::small(),
        TRAIN_GRID,
        splits(TRAIN_S, train, test, test),
        seed,
    )
}

/// `tensor.conv2d_bwd_*`, `nn.*` and `gan.*` at tiny-train shapes.
fn train_probe(seed: u64, out: &mut Outcome) {
    let ds = train_dataset(seed, 144, 16);
    let upscale = ds.layout().grid / ds.layout().square;
    let mut rng = Rng::seed_from(seed ^ MODEL_STREAM);
    let cfg = ZipNetConfig::tiny(upscale, TRAIN_S);
    let mut gen = ZipNet::new(&cfg, &mut rng).expect("tiny config");
    let mut disc = Discriminator::new(&DiscriminatorConfig::tiny(), &mut rng).expect("tiny disc");
    let (x, y) = ds
        .sample_batch(Split::Train, TRAIN_BATCH, &mut rng)
        .expect("minibatch");
    let mut adam = Adam::new(1e-3);
    let reps = 7;
    let m = &mut out.metrics;
    let mut grad = None;
    let fwd = median_ms(reps, || {
        let pred = gen.forward(&x, true).expect("forward");
        grad = Some(mse_loss(&pred, &y).expect("loss").1);
    });
    let grad = grad.expect("ran");
    let bwd: Vec<f64> = (0..reps)
        .map(|_| {
            gen.forward(&x, true).expect("forward");
            let t0 = Instant::now();
            gen.backward(&grad).expect("backward");
            ms_since(t0)
        })
        .collect();
    let bwd = stats::median(&bwd);
    let ones = Tensor::ones([TRAIN_BATCH, 1]);
    let disc_ms = median_ms(reps, || {
        let z = disc.forward(&y, true).expect("disc forward");
        let (_, g) = bce_with_logits(&z, &ones).expect("bce");
        disc.backward(&g).expect("disc backward");
    });
    let adam_ms = median_ms(reps, || adam.step(&mut gen));
    m.push("nn.gen_forward_ms", fwd, "ms");
    m.push("nn.gen_backward_ms", bwd, "ms");
    m.push("nn.disc_fwd_bwd_ms", disc_ms, "ms");
    m.push("nn.adam_step_ms", adam_ms, "ms");

    // One zipper conv's backward kernels at the training batch.
    let w = kernels::params(&mut gen)["zip0.conv.weight"].clone();
    let (c, k) = (w.dims()[0], w.dims()[2]);
    let side = TRAIN_GRID;
    let spec = Conv2dSpec::same(k);
    let xa = Tensor::rand_normal([TRAIN_BATCH, c, side, side], 0.0, 1.0, &mut rng);
    let gout = Tensor::rand_normal([TRAIN_BATCH, c, side, side], 0.0, 1.0, &mut rng);
    let flops = 2.0 * (TRAIN_BATCH * c * side * side * c * k * k) as f64;
    let bw = median_ms(reps, || {
        black_box(conv2d_backward_weights(&xa, &gout, &spec, (k, k)).expect("bwd weights"));
    });
    let bd = median_ms(reps, || {
        black_box(conv2d_backward_data(&gout, &w, &spec, (side, side)).expect("bwd data"));
    });
    m.push("tensor.conv2d_bwd_weights.ms", bw, "ms");
    m.push(
        "tensor.conv2d_bwd_weights.gflops",
        flops / (bw * 1e6),
        "GFLOP/s",
    );
    m.push("tensor.conv2d_bwd_data.ms", bd, "ms");
    m.push(
        "tensor.conv2d_bwd_data.gflops",
        flops / (bd * 1e6),
        "GFLOP/s",
    );

    // Per-step wall time of Algorithm 1 as `TrainingReport` records it.
    let gen = ZipNet::new(&cfg, &mut rng).expect("tiny config");
    let disc = Discriminator::new(&DiscriminatorConfig::tiny(), &mut rng).expect("tiny disc");
    let mut trainer = GanTrainer::new(gen, disc, train_config(5, 5));
    let report = trainer.train(&ds, &mut rng).expect("probe training");
    let step_ms = |phase: &str| {
        let walls: Vec<f64> = report
            .phases
            .iter()
            .filter(|p| p.name == phase)
            .flat_map(|p| p.epochs.iter().map(|e| e.wall_ms))
            .collect();
        stats::median(&walls)
    };
    m.push("gan.pretrain_step_ms", step_ms("pretrain"), "ms");
    m.push("gan.adv_step_ms", step_ms("adversarial"), "ms");
}

/// A short low-rate serving run against a daemon holding an untrained
/// tiny model, for the workloads that do not serve.
fn serve_probe(seed: u64, out: &mut Outcome) {
    let (mut served, _) = serve::setup_reps(seed, false, 1);
    let mut off = Tracer::new(false, Instant::now());
    let (name, rate, _) = serve::LADDER[0];
    let runs = serve::run_ladder(&served, &[(name, rate, 1.5)], &mut off);
    serve::serve_layers(&mut served, &runs, out);
    serve::shutdown(served.handle);
}

/// The probes every traced run reports.
pub fn probes(ctx: &Ctx, out: &mut Outcome, with_serve: bool) {
    crate::paper::probe(ctx.seed, out);
    kernel_probe(ctx.seed, out);
    train_probe(ctx.seed, out);
    if with_serve {
        serve_probe(ctx.seed, out);
    }
}
