//! tiny-train: Algorithm 1 with the Eq. 9 loss at the tiny preset —
//! grid 40, up-4, S=3, batch 8, the `mtsr train --gan` training plan —
//! as repeated rounds of a fixed number of pre-training and adversarial
//! steps, each round from the same seeded initial networks.

use crate::common::*;
use crate::layers::{self, train_dataset, TRAIN_S};
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;
use mtsr_nn::layer::Layer;
use mtsr_tensor::{Rng, Tensor};
use mtsr_traffic::{Dataset, Split};
use std::time::Instant;
use zipnet_core::{
    Discriminator, DiscriminatorConfig, FusePolicy, GanTrainer, MtsrPipeline, TrainingReport,
    ZipNet, ZipNetConfig,
};

const PRETRAIN_STEPS: usize = 16;
const ADV_STEPS: usize = 8;
/// Fixed test frames the trained generator is scored on.
const EVAL_FRAMES: usize = 8;
const TRAIN_STREAM: u64 = 0x7a1e;
/// Set-up is short here, so more repetitions steady its median cheaply.
const SETUP_REPS: usize = 5;

fn nets(ds: &Dataset, seed: u64) -> (ZipNet, Discriminator) {
    let upscale = ds.layout().grid / ds.layout().square;
    let mut rng = Rng::seed_from(seed ^ MODEL_STREAM);
    let gen = ZipNet::new(&ZipNetConfig::tiny(upscale, TRAIN_S), &mut rng).expect("tiny config");
    let disc = Discriminator::new(&DiscriminatorConfig::tiny(), &mut rng).expect("tiny disc");
    (gen, disc)
}

/// Mean NRMSE of the generator's frames against the true fine frames.
fn nrmse_vs_truth(gen: &mut ZipNet, ds: &Dataset, frames: &[usize]) -> f64 {
    let g = ds.layout().grid;
    let vals: Vec<f64> = frames
        .iter()
        .map(|&t| {
            let s = ds.sample_at(t).expect("test frame");
            let d = s.input.dims().to_vec();
            let x = s
                .input
                .reshaped([1, d[0], d[1], d[2], d[3]])
                .expect("batch of one");
            let pred = gen.forward(&x, false).expect("forward");
            let pred = Tensor::from_vec([g, g], pred.as_slice().to_vec()).expect("frame");
            let truth = ds.fine_frame_raw(t).expect("truth");
            mtsr_metrics::nrmse(&ds.denormalize(&pred), &truth).expect("nrmse") as f64
        })
        .collect();
    vals.iter().sum::<f64>() / vals.len() as f64
}

fn losses(r: &TrainingReport) -> Vec<f32> {
    [&r.pretrain_mse, &r.g_loss, &r.d_loss]
        .into_iter()
        .flatten()
        .copied()
        .collect()
}

fn step_walls(r: &TrainingReport) -> Vec<f64> {
    r.phases
        .iter()
        .flat_map(|p| p.epochs.iter().map(|e| e.wall_ms))
        .collect()
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, mut build) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let ds = train_dataset(ctx.seed, 288, 144);
        build.push(secs_since(t0));
        let (gen, _) = nets(&ds, ctx.seed);
        // Warm-up: one step of each phase on a throwaway copy of the
        // networks, so scratch arenas are sized before the first timed round.
        let (warm_gen, warm_disc) = nets(&ds, ctx.seed);
        let mut warm = GanTrainer::new(warm_gen, warm_disc, train_config(1, 1));
        let mut rng = Rng::seed_from(ctx.seed ^ TRAIN_STREAM);
        warm.train(&ds, &mut rng).expect("warm-up step");
        setup.push(secs_since(t0));
        kept = Some((ds, gen));
    }
    let (ds, mut untrained) = kept.expect("set up");
    let test = ds.usable_indices(Split::Test);
    let eval: Vec<usize> = (0..EVAL_FRAMES)
        .map(|i| test[i * (test.len() - 1) / (EVAL_FRAMES - 1)])
        .collect();
    let before = nrmse_vs_truth(&mut untrained, &ds, &eval);

    let steps_per_round = PRETRAIN_STEPS + ADV_STEPS;
    let mut walls = Vec::new();
    let mut first: Option<(Vec<f32>, ZipNet)> = None;
    let mut train_s = 0.0;
    let mut rounds = 0;
    while rounds == 0 || (!ctx.trace && train_s < ctx.seconds) {
        let (gen, disc) = nets(&ds, ctx.seed);
        let mut rng = Rng::seed_from(ctx.seed ^ TRAIN_STREAM);
        let mut trainer = GanTrainer::new(gen, disc, train_config(PRETRAIN_STEPS, ADV_STEPS));
        let t0 = Instant::now();
        let sp = tr.begin("gan.round", rounds as u64);
        let report = trainer.train(&ds, &mut rng).expect("training");
        tr.end(sp);
        train_s += secs_since(t0);
        walls.extend(step_walls(&report));
        let loss = losses(&report);
        let r = rounds;
        let mut ok = out.check(!report.diverged, || format!("round {r} diverged"));
        ok &= out.check(loss.iter().all(|l| l.is_finite()), || {
            format!("round {r} has a non-finite loss")
        });
        ok &= out.check(
            report.pretrain_mse.len() == PRETRAIN_STEPS && report.g_loss.len() == ADV_STEPS,
            || format!("round {r} stopped early"),
        );
        match &first {
            None => first = Some((loss, trainer.into_generator())),
            Some((loss0, _)) => {
                let same = loss0.len() == loss.len()
                    && loss0
                        .iter()
                        .zip(&loss)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                ok &= out.check(same, || format!("round {r} losses differ from round 0"));
            }
        }
        out.attempted += steps_per_round as u64;
        if !ok {
            out.failed += steps_per_round as u64;
        }
        rounds += 1;
    }
    let (_, mut trained) = first.expect("one round");
    let after = nrmse_vs_truth(&mut trained, &ds, &eval);
    if !out.check(after < before, || {
        format!("trained NRMSE {after:.4} does not beat the untrained {before:.4}")
    }) {
        out.failed = out.failed.max(steps_per_round as u64);
    }
    out.info.push(format!(
        "train: {rounds} rounds of {PRETRAIN_STEPS}+{ADV_STEPS} steps, batch 8; nrmse_vs_truth untrained {before:.4} -> trained {after:.4}"
    ));

    if ctx.trace {
        out.metrics.push("quality.nrmse", after, "ratio");
        layers::traffic_metrics(&ds, &build, &mut out, ctx.seed);
        let pipe = MtsrPipeline::new(ds.layout().grid / 2, ds.layout().grid / ds.layout().square);
        let inputs = coarse_inputs(&ds, &test);
        layers::frame_layers(
            &mut trained,
            &ds,
            pipe,
            FusePolicy::Folded,
            4,
            &inputs,
            20,
            tr,
            &mut out,
        );
        layers::probes(ctx, &mut out, true);
        return out;
    }
    let m = &mut out.metrics;
    m.push("setup_s", stats::median(&setup), "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m.push(
        "throughput_per_s",
        (rounds * steps_per_round) as f64 / train_s,
        "1/s",
    );
    m.push("latency_p50_ms", stats::median(&walls), "ms");
    out
}
