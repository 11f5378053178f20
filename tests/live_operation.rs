//! Integration test of the §6 live-operation story: a trained generator
//! serving a coarse-measurement stream, with the anomaly detector
//! profiling its inferences — the full gateway-deployment loop across
//! `mtsr-traffic`, `mtsr-nn` and `zipnet-core`.

use zipnet_gan::core::{
    ArchScale, GanTrainingConfig, MtsrModel, StreamingPredictor, TrafficAnomalyDetector, ZipNet,
    ZipNetConfig,
};
use zipnet_gan::nn::io;
use zipnet_gan::prelude::*;
use zipnet_gan::traffic::{AnomalyEvent, Dataset, Split, SuperResolver};

fn trained_setup(seed: u64) -> (Dataset, ZipNet) {
    let mut rng = Rng::seed_from(seed);
    let mut city = CityConfig::small();
    city.grid = 20;
    let generator = MilanGenerator::new(&city, &mut rng).expect("generator");
    let cfg = DatasetConfig {
        s: 3,
        train: 160,
        valid: 40,
        test: 60,
        augment: None,
    };
    let movie = generator.generate(cfg.total(), &mut rng).expect("movie");
    let layout = ProbeLayout::for_instance(generator.city(), MtsrInstance::Up4).expect("layout");
    let ds = Dataset::build(&movie, layout, cfg).expect("dataset");
    let mut train_cfg = GanTrainingConfig::paper(120, 0, 8);
    train_cfg.lr = 1e-3;
    let mut model = MtsrModel::zipnet(ArchScale::Tiny, train_cfg);
    model.fit(&ds, &mut rng).expect("fit");
    // Round-trip through a checkpoint, as a deployment would.
    let bytes = io::to_bytes(model.generator_mut().expect("fitted"));
    let mut gen = ZipNet::new(&ZipNetConfig::tiny(4, 3), &mut Rng::seed_from(0)).expect("fresh");
    io::from_bytes(&mut gen, &bytes).expect("load");
    (ds, gen)
}

/// The stream loop produces one fine map per incoming coarse frame once
/// warm, and the maps track ground truth.
#[test]
fn stream_serving_tracks_ground_truth() {
    let (ds, mut gen) = trained_setup(51);
    let mut stream =
        StreamingPredictor::new(&mut gen, ds.moments(), ds.layout().square).expect("stream");
    let start = ds.range(Split::Test).start;
    let mut produced = 0;
    let mut err = 0.0f64;
    for i in 0..12 {
        let t = start + i;
        let coarse = ds.coarse_frame_raw(t).expect("coarse");
        if let Some(fine) = stream.push(&coarse).expect("push") {
            produced += 1;
            let truth = ds.fine_frame_raw(t).expect("truth");
            err += zipnet_gan::metrics::nrmse(&fine, &truth).expect("nrmse") as f64;
        }
    }
    assert_eq!(produced, 10); // 12 frames, S = 3 warm-up costs 2
    let mean_nrmse = err / produced as f64;
    assert!(mean_nrmse < 1.5, "stream NRMSE {mean_nrmse}");
}

/// Feeding the detector inferred maps flags an injected event — the
/// "anomaly detector operating only with coarse measurements" of §5.5.
#[test]
fn detector_on_inferred_maps_flags_an_event() {
    let (ds, mut gen) = trained_setup(52);
    let mut stream =
        StreamingPredictor::new(&mut gen, ds.moments(), ds.layout().square).expect("stream");
    // One profile bucket over a drifting diurnal ramp: some baseline
    // z-score noise is expected; the injected event must stand far above
    // the drift, not above zero.
    let mut detector = TrafficAnomalyDetector::new(20, 1, 0.4, 6.0).expect("detector");
    let start = ds.range(Split::Test).start;

    // Warm both the stream and the detector profile on clean inferences,
    // recording the worst drift-induced z-score.
    let mut worst_drift = 0.0f32;
    for i in 0..12 {
        let coarse = ds.coarse_frame_raw(start + i).expect("coarse");
        if let Some(fine) = stream.push(&coarse).expect("push") {
            let drift = detector.score(0, &fine).expect("score").max();
            worst_drift = worst_drift.max(drift);
            detector.observe(0, &fine).expect("observe");
        }
    }

    // Inject a surge into the next coarse frame, as an unexpected event
    // at a location covered by one probe.
    let mut event_frame = ds.fine_frame_raw(start + 12).expect("truth");
    let event = AnomalyEvent {
        y: 6,
        x: 6,
        radius: 1.5,
        magnitude_mb: 6000.0,
    };
    event.apply(&mut event_frame).expect("inject");
    let coarse_event = ds.layout().coarse_frame(&event_frame).expect("aggregate");
    let fine = stream
        .push(&coarse_event)
        .expect("push")
        .expect("stream is warm");
    let hits = detector.observe(0, &fine).expect("observe");
    assert!(!hits.is_empty(), "the surge must be flagged");
    // The event's score dominates ordinary diurnal drift...
    let best = hits[0];
    assert!(
        best.score > 1.5 * worst_drift.max(1.0),
        "event score {:.1} vs worst drift {:.1}",
        best.score,
        worst_drift
    );
    // ...and lands near the event (within the probe's 4-cell footprint +1).
    let dist = ((best.y as f32 - 6.0).powi(2) + (best.x as f32 - 6.0).powi(2)).sqrt();
    assert!(
        dist <= 5.0,
        "flag at ({}, {}), {dist:.1} cells away",
        best.y,
        best.x
    );
}
