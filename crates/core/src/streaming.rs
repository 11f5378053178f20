//! Streaming inference — §6: "once trained, the proposed technique can
//! continuously perform inferences on live streams, unlike
//! post-processing approaches that only work off-line".
//!
//! [`StreamingPredictor`] keeps the last `S` coarse frames in a sliding
//! input buffer: a gateway feeds each new probe report as it arrives and
//! receives the fine-grained city map as soon as the history is warm.
//! The generator is planned once at construction
//! ([`plan_zipnet`] under [`FusePolicy::Exact`]) for the coarse frame
//! side the stream carries, so every streamed map is bit-identical to
//! the layer stack's eval forward on the same window, and steady-state
//! pushes run on preallocated buffers.

use crate::infer::{plan_zipnet, FusePolicy, InferExec};
use crate::zipnet::ZipNet;
use mtsr_tensor::stats::Moments;
use mtsr_tensor::{Result, Tensor, TensorError};

/// Online MTSR over a live coarse-measurement stream.
pub struct StreamingPredictor {
    exec: InferExec,
    moments: Moments,
    /// Frames pushed since the last reset, capped at `S`.
    filled: usize,
    /// Planned `[1, 1, S, sq, sq]` input: the last `S` normalised coarse
    /// frames, oldest first, once `filled == S`.
    input: Vec<f32>,
    /// Planned `[1, 1, H, W]` output.
    output: Vec<f32>,
}

impl StreamingPredictor {
    /// Plans a trained generator for a stream of `[sq, sq]` coarse
    /// frames. `moments` must be the normalisation moments of the
    /// dataset the generator was trained on (available from
    /// `Dataset::moments()`). The generator itself is not modified.
    pub fn new(gen: &mut ZipNet, moments: Moments, sq: usize) -> Result<Self> {
        if moments.std.is_nan() || moments.std <= 0.0 {
            return Err(TensorError::InvalidShape {
                op: "StreamingPredictor",
                reason: "moments.std must be positive".into(),
            });
        }
        let exec = plan_zipnet(gen, FusePolicy::Exact, 1, sq, sq)?;
        Ok(StreamingPredictor {
            input: vec![0.0; exec.input_dims().iter().product()],
            output: vec![0.0; exec.output_dims().iter().product()],
            exec,
            moments,
            filled: 0,
        })
    }

    /// Temporal window length `S` required before predictions start.
    pub fn required_history(&self) -> usize {
        self.exec.input_dims()[2]
    }

    /// True once enough frames have been pushed to predict.
    pub fn ready(&self) -> bool {
        self.filled == self.required_history()
    }

    /// Discards the buffered history (e.g. after a probe outage).
    pub fn reset(&mut self) {
        self.filled = 0;
    }

    /// Pushes the newest coarse frame (raw MB scale, `[sq, sq]` with the
    /// side given at construction) and, once warm, returns the inferred
    /// fine-grained map in MB (`[sq·n_f, sq·n_f]`).
    pub fn push(&mut self, coarse_mb: &Tensor) -> Result<Option<Tensor>> {
        let sq = self.exec.input_dims()[3];
        if coarse_mb.dims() != [sq, sq] {
            return Err(TensorError::InvalidShape {
                op: "StreamingPredictor::push",
                reason: format!("planned for [{sq}, {sq}] frames, got {}", coarse_mb.shape()),
            });
        }
        coarse_mb.check_finite("StreamingPredictor::push")?;
        mtsr_telemetry::add_counter("stream.frames_pushed", 1);
        // Slide the history one frame towards the front and normalise
        // the newest frame into the last slot.
        let (frame, m) = (sq * sq, self.moments);
        self.input.copy_within(frame.., 0);
        let newest = self.input.len() - frame;
        for (d, &v) in self.input[newest..].iter_mut().zip(coarse_mb.as_slice()) {
            *d = (v - m.mean) / m.std;
        }
        self.filled = (self.filled + 1).min(self.required_history());
        if !self.ready() {
            return Ok(None);
        }
        {
            let _span = mtsr_telemetry::span("stream.predict");
            self.exec.run_into(&self.input, &mut self.output)?;
        }
        mtsr_telemetry::add_counter("stream.predictions", 1);
        let side = self.exec.output_dims()[2];
        let fine = self.output.iter().map(|&v| v * m.std + m.mean).collect();
        Ok(Some(Tensor::from_vec([side, side], fine)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZipNetConfig;
    use crate::gan::GanTrainingConfig;
    use crate::pipeline::{ArchScale, MtsrModel};
    use mtsr_nn::layer::Layer;
    use mtsr_tensor::Rng;
    use mtsr_traffic::{
        CityConfig, Dataset, DatasetConfig, MilanGenerator, MtsrInstance, ProbeLayout, Split,
        SuperResolver,
    };

    fn fitted_model_and_dataset() -> (MtsrModel, Dataset) {
        let mut rng = Rng::seed_from(1);
        let gen = MilanGenerator::new(&CityConfig::tiny(), &mut rng).unwrap();
        let cfg = DatasetConfig::tiny();
        let movie = gen.generate(cfg.total(), &mut rng).unwrap();
        let layout = ProbeLayout::for_instance(gen.city(), MtsrInstance::Up4).unwrap();
        let ds = Dataset::build(&movie, layout, cfg).unwrap();
        let mut model = MtsrModel::zipnet(
            ArchScale::Tiny,
            GanTrainingConfig {
                pretrain_steps: 20,
                adversarial_steps: 0,
                ..GanTrainingConfig::tiny()
            },
        );
        model.fit(&ds, &mut Rng::seed_from(2)).unwrap();
        (model, ds)
    }

    /// Streamed maps are bit-identical to the layer stack's eval forward
    /// on the same packed, normalised window.
    #[test]
    fn streaming_matches_batch_prediction() {
        let (mut model, ds) = fitted_model_and_dataset();
        let gen = model.generator_mut().unwrap();
        let m = ds.moments();
        let sq = ds.layout().square;
        let mut stream = StreamingPredictor::new(gen, m, sq).unwrap();
        let t = ds.usable_indices(Split::Test)[3];

        // Feed the raw coarse frames t-2, t-1, t.
        let mut out = None;
        let mut x = Tensor::zeros([1, 1, 3, sq, sq]);
        for (i, ft) in (t + 1 - 3..=t).enumerate() {
            let frame = ds.coarse_frame_raw(ft).unwrap();
            x.as_mut_slice()[i * sq * sq..(i + 1) * sq * sq]
                .copy_from_slice(frame.normalize(&m).unwrap().as_slice());
            out = stream.push(&frame).unwrap();
        }
        let stream_pred = out.expect("ready after S frames");
        let g = ds.layout().grid;
        let layer_pred = gen.forward(&x, false).unwrap().reshape([g, g]).unwrap();
        assert_eq!(stream_pred, layer_pred.denormalize(&m));
    }

    #[test]
    fn warmup_and_reset_behaviour() {
        let (mut model, ds) = fitted_model_and_dataset();
        let gen = model.generator_mut().unwrap();
        let mut stream = StreamingPredictor::new(gen, ds.moments(), ds.layout().square).unwrap();
        assert_eq!(stream.required_history(), 3);
        assert!(!stream.ready());
        let f = ds.coarse_frame_raw(4).unwrap();
        assert!(stream.push(&f).unwrap().is_none());
        assert!(stream.push(&f).unwrap().is_none());
        assert!(stream.push(&f).unwrap().is_some()); // warm
        assert!(stream.ready());
        stream.reset();
        assert!(!stream.ready());
        assert!(stream.push(&f).unwrap().is_none());
    }

    #[test]
    fn rejects_bad_frames() {
        let (mut model, ds) = fitted_model_and_dataset();
        let gen = model.generator_mut().unwrap();
        assert_eq!(ds.layout().square, 5);
        let mut stream = StreamingPredictor::new(gen, ds.moments(), 5).unwrap();
        // A frame of the wrong side, before and after a good one.
        assert!(stream.push(&Tensor::ones([4, 4])).is_err());
        // Non-square frame.
        assert!(stream.push(&Tensor::zeros([3, 5])).is_err());
        // NaN frame.
        let mut bad = Tensor::zeros([5, 5]);
        bad.as_mut_slice()[0] = f32::NAN;
        assert!(stream.push(&bad).is_err());
        stream.push(&Tensor::ones([5, 5])).unwrap();
        assert!(stream.push(&Tensor::ones([6, 6])).is_err());
    }

    #[test]
    fn constructor_validates_moments() {
        let mut rng = Rng::seed_from(7);
        let mut gen = crate::zipnet::ZipNet::new(&ZipNetConfig::tiny(2, 3), &mut rng).unwrap();
        let bad = Moments {
            mean: 0.0,
            std: 0.0,
        };
        assert!(StreamingPredictor::new(&mut gen, bad, 5).is_err());
    }
}
