//! Shared pieces: result collection, data and model construction, output
//! comparisons, and the frame loop decomposed into layer calls.

use crate::trace::Tracer;
use mtsr_nn::layer::Layer;
use mtsr_tensor::{Rng, Tensor};
use mtsr_traffic::augment::ReassemblePlan;
use mtsr_traffic::{CityConfig, Dataset, DatasetConfig, MilanGenerator, MtsrInstance, ProbeLayout};
use std::time::Instant;
use zipnet_core::pipeline::crop_coarse;
use zipnet_core::{GanTrainingConfig, InferExec, MtsrPipeline, ZipNet};

/// Kernel-pool size every run pins, instead of inheriting
/// `MTSR_NUM_THREADS` or the host's core count.
pub const KERNEL_WORKERS: usize = 2;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Seed offsets, so the traffic data and the model weights of one run
/// draw from separate streams of the same `--seed`.
pub const DATA_STREAM: u64 = 0x0da7a;
pub const MODEL_STREAM: u64 = 0x30de1;

/// Wall time of one set-up and of its dataset build.
pub struct SetupTimes {
    pub total_s: f64,
    pub build_s: f64,
}

/// Metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub info: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed check; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(what());
        }
        ok
    }
}

pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Synthetic Milan-like traffic with uniform up-4 probes.
pub fn dataset(mut city: CityConfig, grid: usize, cfg: DatasetConfig, seed: u64) -> Dataset {
    city.grid = grid;
    let mut rng = Rng::seed_from(seed ^ DATA_STREAM);
    let gen = MilanGenerator::new(&city, &mut rng).expect("city config");
    let movie = gen.generate(cfg.total(), &mut rng).expect("traffic movie");
    let layout = ProbeLayout::for_instance(gen.city(), MtsrInstance::Up4).expect("up-4 layout");
    Dataset::build(&movie, layout, cfg).expect("dataset")
}

/// Dataset splits with `test` frames held out and no augmentation.
pub fn splits(s: usize, train: usize, valid: usize, test: usize) -> DatasetConfig {
    DatasetConfig {
        s,
        train,
        valid,
        test,
        augment: None,
    }
}

/// Runs two training-mode forwards on random input so the BatchNorm
/// running statistics differ from their identity initialisation and
/// folding does real work.
pub fn warm_batchnorm(net: &mut ZipNet, rng: &mut Rng) {
    let s = net.config().s;
    for _ in 0..2 {
        let x = Tensor::rand_normal([2, 1, s, 5, 5], 0.2, 1.0, rng);
        net.forward(&x, true).expect("warm-up forward");
    }
}

/// The training plan of `mtsr train --gan` (Algorithm 1, Eq. 9 loss,
/// batch 8, decayed 1e-3 rate, clipped gradients) with the given step
/// counts.
pub fn train_config(pretrain: usize, adversarial: usize) -> GanTrainingConfig {
    let mut cfg = GanTrainingConfig::paper(pretrain, adversarial, 8);
    cfg.lr = 1e-3;
    cfg.schedule = Some(mtsr_nn::LrSchedule::Exponential {
        lr: 1e-3,
        period: 200,
        factor: 0.5,
    });
    cfg.clip_norm = Some(5.0);
    cfg
}

/// Normalised coarse input stacks `[S, sq, sq]` of the given frames.
pub fn coarse_inputs(ds: &Dataset, frames: &[usize]) -> Vec<Vec<f32>> {
    frames
        .iter()
        .map(|&t| {
            ds.sample_at(t)
                .expect("test frame")
                .input
                .as_slice()
                .to_vec()
        })
        .collect()
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x as f64 - *y as f64).abs())
        .fold(0.0, f64::max)
}

/// Root-mean-square difference relative to the reference's RMS.
pub fn rel_rms(a: &[f32], reference: &[f32]) -> f64 {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (x, r) in a.iter().zip(reference) {
        num += (*x as f64 - *r as f64).powi(2);
        den += (*r as f64).powi(2);
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

pub fn all_finite(a: &[f32]) -> bool {
    a.iter().all(|v| v.is_finite())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `InferSession::predict_frame` taken apart into its layer calls —
/// `crop_coarse`, `InferExec::run_into` and `ReassemblePlan` — in the
/// same order and chunking, so each can carry its own span. Its frames
/// must equal the session's bit for bit.
pub struct FrameRunner {
    exec: InferExec,
    plan: ReassemblePlan,
    origins: Vec<(usize, usize)>,
    probe: usize,
    window: usize,
    s: usize,
    cw: usize,
    batch: usize,
    input: Vec<f32>,
    output: Vec<f32>,
    frame: Vec<f32>,
}

impl FrameRunner {
    pub fn new(exec: InferExec, pipe: &MtsrPipeline, ds: &Dataset) -> FrameRunner {
        let geo = pipe.geometry(ds).expect("sliding-window geometry");
        let dims = exec.input_dims().to_vec(); // [batch, 1, S, cw, cw]
        let (batch, s, cw) = (dims[0], dims[2], dims[3]);
        FrameRunner {
            plan: ReassemblePlan::new(&geo.origins, pipe.window, geo.grid).expect("coverage"),
            origins: geo.origins,
            probe: geo.probe,
            window: pipe.window,
            s,
            cw,
            batch,
            input: vec![0.0; batch * s * cw * cw],
            output: vec![0.0; batch * pipe.window * pipe.window],
            frame: vec![0.0; geo.grid * geo.grid],
            exec,
        }
    }

    pub fn exec(&self) -> &InferExec {
        &self.exec
    }

    /// Executor invocations per frame.
    pub fn calls_per_frame(&self) -> usize {
        self.origins.len().div_ceil(self.batch)
    }

    pub fn run(&mut self, coarse: &[f32], sq: usize, tr: &mut Tracer, req: u64) -> &[f32] {
        let crop_len = self.s * self.cw * self.cw;
        let win_len = self.window * self.window;
        self.plan.begin();
        for start in (0..self.origins.len()).step_by(self.batch) {
            let end = (start + self.batch).min(self.origins.len());
            let sp = tr.begin("pipeline.crop", req);
            for (bi, &(y0, x0)) in self.origins[start..end].iter().enumerate() {
                let dst = &mut self.input[bi * crop_len..(bi + 1) * crop_len];
                let origin = (y0 / self.probe, x0 / self.probe);
                crop_coarse(coarse, self.s, sq, origin, self.cw, dst);
            }
            tr.end(sp);
            let sp = tr.begin("infer.exec", req);
            self.exec
                .run_into(&self.input, &mut self.output)
                .expect("planned executor run");
            tr.end(sp);
            let sp = tr.begin("pipeline.reassemble", req);
            for (bi, &origin) in self.origins[start..end].iter().enumerate() {
                let win = &self.output[bi * win_len..(bi + 1) * win_len];
                self.plan.add_window(origin, win).expect("window fits");
            }
            tr.end(sp);
        }
        let sp = tr.begin("pipeline.reassemble", req);
        self.plan.finish_into(&mut self.frame).expect("frame size");
        tr.end(sp);
        &self.frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons() {
        assert!(bits_equal(&[1.0, -0.0], &[1.0, -0.0]));
        assert!(!bits_equal(&[0.0], &[-0.0]));
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
        assert!((rel_rms(&[1.1, 2.2], &[1.0, 2.0]) - 0.1).abs() < 1e-6);
    }
}
