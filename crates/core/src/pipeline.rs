//! End-to-end MTSR inference: the [`MtsrModel`] wrapper that makes
//! ZipNet and ZipNet-GAN drop-in [`SuperResolver`]s, and the sliding
//! window + moving-average reassembly pipeline of §4.

use crate::checkpoint::{CheckpointPolicy, TrainState};
use crate::config::{DiscriminatorConfig, ZipNetConfig};
use crate::discriminator::Discriminator;
use crate::gan::{GanTrainer, GanTrainingConfig, TrainingReport};
use crate::infer::{plan_zipnet, FusePolicy, InferExec};
use crate::zipnet::ZipNet;
use mtsr_nn::layer::Layer;
use mtsr_tensor::{Result, Rng, Tensor, TensorError};
use mtsr_traffic::augment::{reassemble, ReassemblePlan};
use mtsr_traffic::{Dataset, SuperResolver};

/// Architecture scale presets (see `ZipNetConfig`). The paper scale is a
/// GPU-days budget; the scaled presets keep the exact topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchScale {
    /// §3.2 architecture verbatim (24 zipper modules, 32 channels, VGG-6).
    Paper,
    /// Reduced widths for CPU experiments.
    Small,
    /// Minimal preset for unit tests.
    Tiny,
}

impl ArchScale {
    /// The generator configuration of this preset for a given upscaling
    /// factor and temporal length (public so checkpoint consumers — the
    /// online fine-tune driver, external tools — can rebuild the exact
    /// network a container was trained with).
    pub fn gen_config(&self, upscale: usize, s: usize) -> ZipNetConfig {
        match self {
            ArchScale::Paper => ZipNetConfig::paper(upscale, s),
            ArchScale::Small => ZipNetConfig::small(upscale, s),
            ArchScale::Tiny => ZipNetConfig::tiny(upscale, s),
        }
    }

    /// The discriminator configuration of this preset.
    pub fn disc_config(&self) -> DiscriminatorConfig {
        match self {
            ArchScale::Paper => DiscriminatorConfig::paper(),
            ArchScale::Small => DiscriminatorConfig::small(),
            ArchScale::Tiny => DiscriminatorConfig::tiny(),
        }
    }
}

/// ZipNet or ZipNet-GAN packaged as a [`SuperResolver`].
///
/// `fit` builds the generator for the dataset's geometry (upscale factor
/// `grid/square`, temporal length `S`), pre-trains it on Eq. 10 and — in
/// GAN mode — runs the adversarial phase of Algorithm 1. The trained
/// discriminator is kept for saliency analysis but, per §5.4, plays no
/// part in prediction.
pub struct MtsrModel {
    scale: ArchScale,
    train_cfg: GanTrainingConfig,
    adversarial: bool,
    gen: Option<ZipNet>,
    disc: Option<Discriminator>,
    /// Training traces from the last `fit` (loss curves, divergence flag).
    pub report: Option<TrainingReport>,
}

impl MtsrModel {
    /// Plain ZipNet: generator trained with MSE only (Eq. 10) — the
    /// paper's "ZipNet" bar in Fig. 9.
    pub fn zipnet(scale: ArchScale, train_cfg: GanTrainingConfig) -> Self {
        MtsrModel {
            scale,
            train_cfg,
            adversarial: false,
            gen: None,
            disc: None,
            report: None,
        }
    }

    /// Full ZipNet-GAN: pre-training plus the adversarial phase.
    pub fn zipnet_gan(scale: ArchScale, train_cfg: GanTrainingConfig) -> Self {
        MtsrModel {
            adversarial: true,
            ..Self::zipnet(scale, train_cfg)
        }
    }

    /// The trained generator, if `fit` has run.
    pub fn generator_mut(&mut self) -> Option<&mut ZipNet> {
        self.gen.as_mut()
    }

    /// The trained discriminator (GAN mode only).
    pub fn discriminator_mut(&mut self) -> Option<&mut Discriminator> {
        self.disc.as_mut()
    }

    /// Installs an externally trained generator (checkpoint restore).
    pub fn with_generator(mut self, gen: ZipNet) -> Self {
        self.gen = Some(gen);
        self
    }

    /// Builds a planned, batched full-grid inference session over the
    /// trained generator (see [`MtsrPipeline::session`]).
    pub fn infer_session(
        &mut self,
        pipe: &MtsrPipeline,
        ds: &Dataset,
        policy: FusePolicy,
        batch: usize,
    ) -> Result<InferSession> {
        let gen = self.gen.as_mut().ok_or(TensorError::InvalidShape {
            op: "MtsrModel::infer_session",
            reason: "fit() must be called before infer_session()".into(),
        })?;
        pipe.session(gen, ds, policy, batch)
    }

    /// Simultaneous mutable access to the generator and (if present) the
    /// discriminator — the saliency analysis needs both at once.
    pub fn parts_mut(&mut self) -> Option<(&mut ZipNet, Option<&mut Discriminator>)> {
        match (&mut self.gen, &mut self.disc) {
            (Some(g), d) => Some((g, d.as_mut())),
            (None, _) => None,
        }
    }

    /// [`SuperResolver::fit`] with crash-safe checkpointing: `policy`
    /// enables periodic snapshots plus a final container, `resume`
    /// continues a previous run from its snapshot — bit-identically to a
    /// run that was never interrupted.
    pub fn fit_with(
        &mut self,
        ds: &Dataset,
        rng: &mut Rng,
        policy: Option<CheckpointPolicy>,
        resume: Option<&TrainState>,
    ) -> Result<()> {
        let layout = ds.layout();
        if !layout.grid.is_multiple_of(layout.square) {
            return Err(TensorError::InvalidShape {
                op: "MtsrModel::fit",
                reason: format!(
                    "grid {} not an integer multiple of projection square {}",
                    layout.grid, layout.square
                ),
            });
        }
        let upscale = layout.grid / layout.square;
        let gen_cfg = self.scale.gen_config(upscale, ds.s());
        let gen = ZipNet::new(&gen_cfg, rng)?;
        let disc = Discriminator::new(&self.scale.disc_config(), rng)?;
        let mut trainer = GanTrainer::new(gen, disc, self.train_cfg);
        if let Some(p) = policy {
            trainer.set_checkpoint_policy(p);
        }
        if let Some(st) = resume {
            trainer.restore(st)?;
            // Network construction above consumed RNG draws to initialise
            // weights (which `restore` then overwrote); the checkpointed
            // data-sampling stream position must win.
            *rng = st.rng();
        }
        let mut report = if self.adversarial {
            trainer.train(ds, rng)?
        } else {
            let mut r = TrainingReport::default();
            let (trace, phase) = trainer.pretrain_with_telemetry(ds, rng)?;
            r.pretrain_mse = trace;
            r.phases.push(phase);
            r.halted = trainer.halted();
            r
        };
        report.halted = trainer.halted();
        if report.diverged {
            return Err(TensorError::NonFinite {
                op: "MtsrModel::fit",
            });
        }
        // A halted (crash-simulated) run keeps its periodic snapshot as
        // the resume point; only completed runs write the final container.
        if !trainer.halted() {
            trainer.write_final_checkpoint(rng)?;
        }
        let (gen, disc) = trainer.into_parts();
        self.gen = Some(gen);
        self.disc = Some(disc);
        self.report = Some(report);
        Ok(())
    }
}

impl SuperResolver for MtsrModel {
    fn name(&self) -> &'static str {
        if self.adversarial {
            "ZipNet-GAN"
        } else {
            "ZipNet"
        }
    }

    fn fit(&mut self, ds: &Dataset, rng: &mut Rng) -> Result<()> {
        self.fit_with(ds, rng, None, None)
    }

    fn predict(&mut self, ds: &Dataset, t: usize) -> Result<Tensor> {
        let gen = self.gen.as_mut().ok_or(TensorError::InvalidShape {
            op: "MtsrModel::predict",
            reason: "fit() must be called before predict()".into(),
        })?;
        let s = ds.sample_at(t)?;
        let dims = s.input.dims().to_vec(); // [1, S, h, w]
        let x = s.input.reshaped([1, dims[0], dims[1], dims[2], dims[3]])?;
        // ZipNet is fully convolutional, so the full coarse frame maps to
        // the full fine frame in one shot.
        let pred = gen.forward(&x, false)?;
        let g = ds.layout().grid;
        pred.reshape([g, g])
    }
}

/// The §4 sliding-window inference procedure: predict overlapping
/// `window`-sized sub-frames and reassemble the city-wide map with the
/// moving-average filter.
///
/// This is how a generator trained on cropped sub-frames (the paper's
/// 80×80) serves the full 100×100 grid. Window origins step by `stride`
/// sub-cells; both must align with the probe lattice so coarse crops are
/// exact probe measurements.
#[derive(Debug, Clone, Copy)]
pub struct MtsrPipeline {
    /// Fine-grid window side (paper: 80).
    pub window: usize,
    /// Fine-grid origin stride (paper: 1-cell offsets in training; larger
    /// strides trade accuracy for speed at inference).
    pub stride: usize,
}

/// Validated sliding-window geometry shared by the reference and
/// planned inference paths — and by remote clients, which must crop the
/// same origins in the same order for bit-identical reassembly.
pub struct SlidingGeometry {
    /// Fine-grid side length.
    pub grid: usize,
    /// Uniform probe size (window/stride alignment unit).
    pub probe: usize,
    /// Fine-grid window origins, clamped to cover the edges.
    pub origins: Vec<(usize, usize)>,
}

impl MtsrPipeline {
    /// Creates a pipeline configuration.
    pub fn new(window: usize, stride: usize) -> Self {
        MtsrPipeline { window, stride }
    }

    /// Validates geometry against the dataset and returns
    /// `(grid, probe_size, window origins)`.
    pub fn geometry(&self, ds: &Dataset) -> Result<SlidingGeometry> {
        let layout = ds.layout();
        let g = layout.grid;
        let n = layout.uniform_size().ok_or(TensorError::InvalidShape {
            op: "MtsrPipeline",
            reason: "sliding-window inference requires a homogeneous probe layout".into(),
        })?;
        if self.window == 0 || self.window > g || !self.window.is_multiple_of(n) {
            return Err(TensorError::InvalidShape {
                op: "MtsrPipeline",
                reason: format!(
                    "window {} must be a positive multiple of probe size {n} within grid {g}",
                    self.window
                ),
            });
        }
        if self.stride == 0 || !self.stride.is_multiple_of(n) {
            return Err(TensorError::InvalidShape {
                op: "MtsrPipeline",
                reason: format!("stride {} must be a positive multiple of {n}", self.stride),
            });
        }
        // Window origins on the fine grid (clamped to cover the edge).
        let mut origins = Vec::new();
        let mut y = 0;
        loop {
            let y0 = y.min(g - self.window);
            let mut x = 0;
            loop {
                let x0 = x.min(g - self.window);
                origins.push((y0, x0));
                if x0 == g - self.window {
                    break;
                }
                x += self.stride;
            }
            if y0 == g - self.window {
                break;
            }
            y += self.stride;
        }
        Ok(SlidingGeometry {
            grid: g,
            probe: n,
            origins,
        })
    }

    /// Predicts the full fine-grained frame at target index `t` by
    /// sliding the generator over aligned windows, one `forward` per
    /// window through the layer stack. The reference path; see
    /// [`MtsrPipeline::session`] for the planned fast path.
    pub fn predict_full(&self, gen: &mut ZipNet, ds: &Dataset, t: usize) -> Result<Tensor> {
        let SlidingGeometry {
            grid: g,
            probe: n,
            origins,
        } = self.geometry(ds)?;
        let sample = ds.sample_at(t)?;
        let in_dims = sample.input.dims().to_vec(); // [1, S, sq, sq]
        let (s, sq) = (in_dims[1], in_dims[2]);

        let cw = self.window / n; // coarse window side
        let mut predictions = Vec::with_capacity(origins.len());
        for &(y0, x0) in &origins {
            let mut win = Tensor::zeros([1, 1, s, cw, cw]);
            crop_coarse(
                sample.input.as_slice(),
                s,
                sq,
                (y0 / n, x0 / n),
                cw,
                win.as_mut_slice(),
            );
            let pred = gen.forward(&win, false)?;
            predictions.push(((y0, x0), pred.reshape([self.window, self.window])?));
        }
        reassemble(&predictions, g)
    }

    /// Plans a reusable batched inference session for this pipeline
    /// geometry: the generator's eval forward is compiled once into an
    /// [`InferExec`] for `[batch, 1, S, cw, cw]` crops, and reassembly
    /// divisors are precomputed ([`ReassemblePlan`]). Call
    /// [`InferSession::predict_full`] per frame; steady-state runs do not
    /// allocate.
    pub fn session(
        &self,
        gen: &mut ZipNet,
        ds: &Dataset,
        policy: FusePolicy,
        batch: usize,
    ) -> Result<InferSession> {
        let SlidingGeometry {
            grid: g,
            probe: n,
            origins,
        } = self.geometry(ds)?;
        if batch == 0 {
            return Err(TensorError::InvalidShape {
                op: "MtsrPipeline::session",
                reason: "batch must be positive".into(),
            });
        }
        let s = ds.s();
        let cw = self.window / n;
        let exec = plan_zipnet(gen, policy, batch, cw, cw)?;
        let plan = ReassemblePlan::new(&origins, self.window, g)?;
        Ok(InferSession {
            exec,
            plan,
            origins,
            window: self.window,
            batch,
            n,
            s,
            cw,
            input_buf: vec![0.0; batch * s * cw * cw],
            output_buf: vec![0.0; batch * self.window * self.window],
        })
    }
}

/// Copies an `S × cw × cw` coarse crop at coarse origin `(cy, cx)` out of
/// the `[S, sq, sq]` coarse frame stack into `dst` (row-major).
///
/// Public because remote clients (`mtsr-serve`) crop windows with exactly
/// this routine so that a reassembled remote prediction is bit-identical
/// to the local [`InferSession::predict_full`] path.
pub fn crop_coarse(
    src: &[f32],
    s: usize,
    sq: usize,
    (cy, cx): (usize, usize),
    cw: usize,
    dst: &mut [f32],
) {
    let per = sq * sq;
    for si in 0..s {
        for r in 0..cw {
            let src_off = si * per + (cy + r) * sq + cx;
            let dst_off = (si * cw + r) * cw;
            dst[dst_off..dst_off + cw].copy_from_slice(&src[src_off..src_off + cw]);
        }
    }
}

/// A planned full-grid predictor: batches of window crops stream through
/// a compiled [`InferExec`] and into a [`ReassemblePlan`]. Built by
/// [`MtsrPipeline::session`]; reuse it across frames — all buffers are
/// allocated up front.
///
/// With [`FusePolicy::Exact`] the output is bit-identical to
/// [`MtsrPipeline::predict_full`]: batched kernels are per-sample, crops
/// feed the averager in the same order, and the precomputed divisors
/// perform the same arithmetic.
pub struct InferSession {
    exec: InferExec,
    plan: ReassemblePlan,
    origins: Vec<(usize, usize)>,
    window: usize,
    batch: usize,
    n: usize,
    s: usize,
    cw: usize,
    input_buf: Vec<f32>,
    output_buf: Vec<f32>,
}

impl InferSession {
    /// Windows per executor invocation.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Number of sliding-window crops per frame.
    pub fn windows_per_frame(&self) -> usize {
        self.origins.len()
    }

    /// Fine-grid window origins, in prediction order.
    pub fn origins(&self) -> &[(usize, usize)] {
        &self.origins
    }

    /// Fine-grid window side length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Uniform probe size (fine cells per coarse cell).
    pub fn probe(&self) -> usize {
        self.n
    }

    /// Temporal length `S` the session was planned for.
    pub fn s(&self) -> usize {
        self.s
    }

    /// Coarse window side (`window / probe`).
    pub fn coarse_window(&self) -> usize {
        self.cw
    }

    /// A new session over the *same* shared [`crate::infer::InferPlan`]
    /// with private buffers, for running full-grid predictions on another
    /// thread. Forked sessions produce bit-identical frames.
    pub fn fork(&self) -> InferSession {
        InferSession {
            exec: self.exec.fork(),
            plan: self.plan.clone(),
            origins: self.origins.clone(),
            window: self.window,
            batch: self.batch,
            n: self.n,
            s: self.s,
            cw: self.cw,
            input_buf: vec![0.0; self.input_buf.len()],
            output_buf: vec![0.0; self.output_buf.len()],
        }
    }

    /// Predicts the full fine-grained frame at target index `t`.
    pub fn predict_full(&mut self, ds: &Dataset, t: usize) -> Result<Tensor> {
        let sample = ds.sample_at(t)?;
        let in_dims = sample.input.dims(); // [1, S, sq, sq]
        let (s, sq) = (in_dims[1], in_dims[2]);
        if s != self.s {
            return Err(TensorError::InvalidShape {
                op: "InferSession::predict_full",
                reason: format!("session planned for S={}, frame has S={s}", self.s),
            });
        }
        self.predict_frame(sample.input.as_slice(), sq)
    }

    /// Predicts the full fine-grained frame from a raw normalized coarse
    /// stack `[S, sq, sq]` (row-major). This is the dataset-free entry
    /// point the serving daemon's full-frame path and [`predict_full`]
    /// share; identical inputs produce bit-identical frames.
    ///
    /// [`predict_full`]: InferSession::predict_full
    pub fn predict_frame(&mut self, coarse: &[f32], sq: usize) -> Result<Tensor> {
        // Origins and reassembly divisors are fixed for one grid, so the
        // frame side must be exactly the planned one.
        let planned_sq = self.plan.grid() / self.n;
        if sq != planned_sq || coarse.len() != self.s * sq * sq {
            return Err(TensorError::InvalidShape {
                op: "InferSession::predict_frame",
                reason: format!(
                    "session planned for S={} sq={planned_sq}, got {} values for sq={sq}",
                    self.s,
                    coarse.len()
                ),
            });
        }
        let crop_len = self.s * self.cw * self.cw;
        let win_len = self.window * self.window;
        self.plan.begin();
        let mut start = 0;
        while start < self.origins.len() {
            let end = (start + self.batch).min(self.origins.len());
            {
                let _t = mtsr_telemetry::span("infer.crop");
                // A partial final chunk leaves stale crops in the tail
                // batch lanes; kernels are per-sample, so the live lanes
                // are unaffected and the tail outputs are discarded.
                for (bi, i) in (start..end).enumerate() {
                    let (y0, x0) = self.origins[i];
                    crop_coarse(
                        coarse,
                        self.s,
                        sq,
                        (y0 / self.n, x0 / self.n),
                        self.cw,
                        &mut self.input_buf[bi * crop_len..(bi + 1) * crop_len],
                    );
                }
            }
            {
                let _t = mtsr_telemetry::span("infer.forward");
                self.exec.run_into(&self.input_buf, &mut self.output_buf)?;
            }
            {
                let _t = mtsr_telemetry::span("infer.reassemble");
                for (bi, i) in (start..end).enumerate() {
                    self.plan.add_window(
                        self.origins[i],
                        &self.output_buf[bi * win_len..(bi + 1) * win_len],
                    )?;
                }
            }
            start = end;
        }
        self.plan.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsr_metrics::nrmse;
    use mtsr_traffic::{
        CityConfig, DatasetConfig, MilanGenerator, MtsrInstance, ProbeLayout, Split,
    };

    fn tiny_dataset(seed: u64) -> Dataset {
        let mut rng = Rng::seed_from(seed);
        let gen = MilanGenerator::new(&CityConfig::tiny(), &mut rng).unwrap();
        let movie = gen
            .generate(DatasetConfig::tiny().total(), &mut rng)
            .unwrap();
        let layout = ProbeLayout::for_instance(gen.city(), MtsrInstance::Up4).unwrap();
        Dataset::build(&movie, layout, DatasetConfig::tiny()).unwrap()
    }

    #[test]
    fn model_names() {
        let cfg = GanTrainingConfig::tiny();
        assert_eq!(MtsrModel::zipnet(ArchScale::Tiny, cfg).name(), "ZipNet");
        assert_eq!(
            MtsrModel::zipnet_gan(ArchScale::Tiny, cfg).name(),
            "ZipNet-GAN"
        );
    }

    #[test]
    fn predict_requires_fit() {
        let ds = tiny_dataset(1);
        let t = ds.usable_indices(Split::Test)[0];
        let mut m = MtsrModel::zipnet(ArchScale::Tiny, GanTrainingConfig::tiny());
        assert!(m.predict(&ds, t).is_err());
    }

    #[test]
    fn zipnet_beats_uninitialised_scale_after_fit() {
        let ds = tiny_dataset(2);
        let mut cfg = GanTrainingConfig::tiny();
        cfg.pretrain_steps = 60;
        let mut m = MtsrModel::zipnet(ArchScale::Tiny, cfg);
        m.fit(&ds, &mut Rng::seed_from(3)).unwrap();
        let t = ds.usable_indices(Split::Test)[0];
        let pred = m.predict(&ds, t).unwrap();
        assert_eq!(pred.dims(), &[20, 20]);
        let truth = ds.fine_frame_raw(t).unwrap();
        let e = nrmse(&ds.denormalize(&pred), &truth).unwrap();
        assert!(e < 1.5, "trained ZipNet NRMSE {e}");
        assert!(m.report.as_ref().unwrap().pretrain_mse.len() == 60);
    }

    #[test]
    fn gan_mode_fit_records_adversarial_losses() {
        let ds = tiny_dataset(4);
        let mut cfg = GanTrainingConfig::tiny();
        cfg.pretrain_steps = 10;
        cfg.adversarial_steps = 4;
        let mut m = MtsrModel::zipnet_gan(ArchScale::Tiny, cfg);
        m.fit(&ds, &mut Rng::seed_from(5)).unwrap();
        let r = m.report.as_ref().unwrap();
        assert_eq!(r.g_loss.len(), 4);
        assert!(m.discriminator_mut().is_some());
    }

    #[test]
    fn pipeline_matches_full_frame_on_single_window() {
        // window == grid: the pipeline must agree with direct prediction.
        let ds = tiny_dataset(6);
        let mut cfg = GanTrainingConfig::tiny();
        cfg.pretrain_steps = 5;
        let mut m = MtsrModel::zipnet(ArchScale::Tiny, cfg);
        m.fit(&ds, &mut Rng::seed_from(7)).unwrap();
        let t = ds.usable_indices(Split::Test)[0];
        let direct = m.predict(&ds, t).unwrap();
        let pipe = MtsrPipeline::new(20, 20);
        let windowed = pipe
            .predict_full(m.generator_mut().unwrap(), &ds, t)
            .unwrap();
        for (a, b) in windowed.as_slice().iter().zip(direct.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn pipeline_overlapping_windows_cover_grid() {
        let ds = tiny_dataset(8);
        let mut cfg = GanTrainingConfig::tiny();
        cfg.pretrain_steps = 5;
        let mut m = MtsrModel::zipnet(ArchScale::Tiny, cfg);
        m.fit(&ds, &mut Rng::seed_from(9)).unwrap();
        let t = ds.usable_indices(Split::Test)[0];
        let pipe = MtsrPipeline::new(12, 4);
        let out = pipe
            .predict_full(m.generator_mut().unwrap(), &ds, t)
            .unwrap();
        assert_eq!(out.dims(), &[20, 20]);
        assert!(out.is_finite());
    }

    /// A frame side other than the planned grid's is rejected, not
    /// silently cropped (too large) or panicking (too small).
    #[test]
    fn predict_frame_rejects_unplanned_frame_side() {
        let ds = tiny_dataset(12);
        let mut gen = ZipNet::new(&ZipNetConfig::tiny(4, ds.s()), &mut Rng::seed_from(13)).unwrap();
        let mut session = MtsrPipeline::new(12, 4)
            .session(&mut gen, &ds, FusePolicy::Exact, 2)
            .unwrap();
        let s = ds.s();
        assert!(session.predict_frame(&vec![0.5; s * 25], 5).is_ok());
        for sq in [6, 4] {
            let err = session.predict_frame(&vec![0.5; s * sq * sq], sq);
            assert!(err.is_err(), "sq={sq} must be rejected");
        }
    }

    #[test]
    fn pipeline_validates_alignment() {
        let ds = tiny_dataset(10);
        let mut cfg = GanTrainingConfig::tiny();
        cfg.pretrain_steps = 2;
        let mut m = MtsrModel::zipnet(ArchScale::Tiny, cfg);
        m.fit(&ds, &mut Rng::seed_from(11)).unwrap();
        let t = ds.usable_indices(Split::Test)[0];
        let gen = m.generator_mut().unwrap();
        // window not a multiple of probe size 4
        assert!(MtsrPipeline::new(10, 4).predict_full(gen, &ds, t).is_err());
        // stride not a multiple
        assert!(MtsrPipeline::new(12, 3).predict_full(gen, &ds, t).is_err());
        // window larger than grid
        assert!(MtsrPipeline::new(24, 4).predict_full(gen, &ds, t).is_err());
    }
}
