//! Bit-exact determinism of whole training steps across worker counts.
//!
//! `mtsr-tensor`'s `worker_determinism.rs` pins the conv and GEMM
//! kernels; this test pins everything else a training step runs —
//! batch norm's plane-parallel statistics and backward sums, LeakyReLU,
//! the losses, gradient clipping and Adam — by running Algorithm 1
//! (pre-training, then adversarial steps) from the same seeds at 1 and 4
//! workers and comparing raw `f32` bits of every loss and of every
//! generator parameter and buffer.
//!
//! Batch 16 at grid 20 puts the widest maps (`[16, 24, 20, 20]`, the
//! tail's second stage) above `mtsr_tensor::ops::PAR_MIN_LEN`, so both
//! the serial and the pool-split branches of the elementwise kernels run.
//!
//! One `#[test]` fn: the worker-count override is process-global.

use mtsr_nn::layer::Layer;
use mtsr_tensor::ops::PAR_MIN_LEN;
use mtsr_tensor::parallel::set_num_threads;
use mtsr_tensor::Rng;
use mtsr_traffic::{CityConfig, Dataset, DatasetConfig, MilanGenerator, MtsrInstance, ProbeLayout};
use zipnet_core::{
    Discriminator, DiscriminatorConfig, GanTrainer, GanTrainingConfig, ZipNet, ZipNetConfig,
};

const BATCH: usize = 16;
// The tail's second stage, `[BATCH, 24, 20, 20]`, must reach the pool.
const _: () = assert!(BATCH * 24 * 20 * 20 >= PAR_MIN_LEN);

fn dataset() -> Dataset {
    let mut rng = Rng::seed_from(71);
    let gen = MilanGenerator::new(&CityConfig::tiny(), &mut rng).expect("generator");
    let cfg = DatasetConfig::tiny();
    let movie = gen.generate(cfg.total(), &mut rng).expect("movie");
    let layout = ProbeLayout::for_instance(gen.city(), MtsrInstance::Up4).expect("layout");
    Dataset::build(&movie, layout, cfg).expect("dataset")
}

/// Loss bits, then generator parameter and buffer bits, after three
/// pre-training and two adversarial steps at `workers` workers.
fn train_bits(ds: &Dataset, workers: usize) -> (Vec<u32>, Vec<u32>) {
    set_num_threads(workers);
    let mut rng = Rng::seed_from(72);
    let gen = ZipNet::new(&ZipNetConfig::tiny(4, 3), &mut rng).expect("generator");
    let disc = Discriminator::new(&DiscriminatorConfig::tiny(), &mut rng).expect("discriminator");
    let mut cfg = GanTrainingConfig::paper(3, 2, BATCH);
    cfg.lr = 1e-3;
    cfg.clip_norm = Some(5.0);
    let mut trainer = GanTrainer::new(gen, disc, cfg);
    let report = trainer.train(ds, &mut rng).expect("training");
    assert!(!report.diverged, "training diverged at {workers} workers");
    let losses = [&report.pretrain_mse, &report.g_loss, &report.d_loss]
        .into_iter()
        .flatten()
        .map(|l| l.to_bits())
        .collect();
    let mut weights = Vec::new();
    let net = trainer.generator_mut();
    net.visit_params(&mut |p| weights.extend(p.value.as_slice().iter().map(|v| v.to_bits())));
    net.visit_buffers(&mut |p| weights.extend(p.value.as_slice().iter().map(|v| v.to_bits())));
    (losses, weights)
}

#[test]
fn gan_training_is_bit_identical_at_1_and_4_workers() {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_num_threads(0);
        }
    }
    let _restore = Restore;

    let ds = dataset();
    let (losses1, weights1) = train_bits(&ds, 1);
    let (losses4, weights4) = train_bits(&ds, 4);
    assert_eq!(losses1.len(), 3 + 2 + 2, "one loss per step and phase");
    assert_eq!(losses1, losses4, "loss trace differs at 4 workers vs 1");
    assert_eq!(weights1.len(), weights4.len());
    let first_diff = weights1.iter().zip(&weights4).position(|(a, b)| a != b);
    assert_eq!(first_diff, None, "generator bits differ at 4 workers vs 1");
}
