//! `mtsr` — command-line front-end for the ZipNet-GAN reproduction.
//!
//! ```text
//! mtsr simulate --grid 40 --days 4 --seed 42 --out movie.csv
//! mtsr train    --instance up4 --grid 40 --steps 300 --gan --seed 42 --out model.ckpt
//! mtsr eval     --instance up4 --grid 40 --seed 42 --model model.ckpt
//! mtsr stream   --instance up4 --grid 40 --seed 42 --model model.ckpt --frames 12
//! ```
//!
//! Deterministic: the same `--seed` regenerates the same city, traffic and
//! splits, so a model trained by `train` is evaluated by `eval` on exactly
//! the data it expects. Argument parsing is hand-rolled to keep the
//! dependency set minimal.
//!
//! Every subcommand accepts `--telemetry <path>`: the metrics registry is
//! enabled for the run and a [`TelemetryReport`] (JSON) is written on
//! success — per-epoch losses for each training phase, per-layer
//! forward/backward timings, and kernel span statistics.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use zipnet_gan::core::checkpoint::{self, CheckpointPolicy};
use zipnet_gan::core::{
    fine_tune_container, plan_zipnet, ArchScale, FusePolicy, GanTrainingConfig, MtsrModel,
    MtsrPipeline, OnlineTuneConfig, StreamingPredictor, TrafficAnomalyDetector, ZipNet,
    ZipNetConfig,
};
use zipnet_gan::metrics::{nrmse, psnr, ssim, MILAN_PEAK_MB};
use zipnet_gan::prelude::*;
use zipnet_gan::serve::{
    signals, window_nrmse, AdaptConfig, InferOutcome, InferRequest, ModelSpec, Planner,
    RemotePredictor, ServeClient, ServeConfig, Server, TruthRequest, TunedModel, Tuner,
};
use zipnet_gan::telemetry::{PhaseReport, TelemetryReport};
use zipnet_gan::tensor::TensorError;
use zipnet_gan::traffic::{AnomalyEvent, Dataset, RegimeShift, Split, SuperResolver};

/// What a subcommand hands back for the optional telemetry report:
/// training phases when it trained, nothing otherwise.
type CmdOutcome = Result<Vec<PhaseReport>, String>;

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `--name value` / `--name` (boolean) pairs. Stray positional
    /// tokens are an error — they are invariably a typo (`--steps300`) and
    /// used to be silently ignored.
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let Some(name) = argv[i].strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument `{}` (flags are written --name value)",
                    argv[i]
                ));
            };
            if name.is_empty() {
                return Err("empty flag `--`".to_string());
            }
            let value = if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                i += 1;
                argv[i].clone()
            } else {
                "true".to_string() // boolean flag
            };
            flags.insert(name.to_string(), value);
            i += 1;
        }
        Ok(Args { flags })
    }

    /// Rejects flags a subcommand does not know, instead of silently
    /// ignoring them (a misspelt `--step 500` used to train with the
    /// default step count).
    fn expect_known(&self, cmd: &str, known: &[&str]) -> Result<(), String> {
        for name in self.flags.keys() {
            if !known.contains(&name.as_str()) {
                return Err(format!(
                    "unknown flag --{name} for `mtsr {cmd}` (known: {})",
                    known
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
        }
        Ok(())
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// `--name N` with a default; a malformed value is a usage error
    /// (`--steps 3OO` used to silently fall back to the default).
    fn usize_flag(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                format!("invalid value `{v}` for --{name}: expected an unsigned integer")
            }),
        }
    }

    /// Optional `--name N` without a default.
    fn usize_opt(&self, name: &str) -> Result<Option<usize>, String> {
        self.get(name)
            .map(|v| {
                v.parse().map_err(|_| {
                    format!("invalid value `{v}` for --{name}: expected an unsigned integer")
                })
            })
            .transpose()
    }

    fn u64_flag(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                format!("invalid value `{v}` for --{name}: expected an unsigned integer")
            }),
        }
    }

    fn f32_flag(&self, name: &str, default: f32) -> Result<f32, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for --{name}: expected a number")),
        }
    }

    fn bool_flag(&self, name: &str) -> Result<bool, String> {
        match self.get(name) {
            None => Ok(false),
            Some("true") => Ok(true),
            Some(v) => Err(format!(
                "--{name} is a boolean flag and takes no value (got `{v}`)"
            )),
        }
    }
}

fn parse_instance(s: Option<&str>) -> Result<MtsrInstance, String> {
    match s.unwrap_or("up4") {
        "up2" => Ok(MtsrInstance::Up2),
        "up4" => Ok(MtsrInstance::Up4),
        "up10" => Ok(MtsrInstance::Up10),
        "mixture" => Ok(MtsrInstance::Mixture),
        other => Err(format!("unknown instance `{other}` (up2|up4|up10|mixture)")),
    }
}

/// City + traffic movie, deterministic in (grid, days, instance, seed).
/// The last two days are held out as validation and test.
fn generate_movie(
    grid: usize,
    days: usize,
    instance: MtsrInstance,
    s: usize,
    seed: u64,
) -> Result<(Tensor, ProbeLayout, DatasetConfig), TensorError> {
    let mut rng = Rng::seed_from(seed);
    let mut city = CityConfig::small();
    city.grid = grid;
    let gen = MilanGenerator::new(&city, &mut rng)?;
    let frames_per_day = 144;
    let total = days.max(3) * frames_per_day;
    let cfg = DatasetConfig {
        s,
        train: total - 2 * frames_per_day,
        valid: frames_per_day,
        test: frames_per_day,
        augment: None,
    };
    let movie = gen.generate(cfg.total(), &mut rng)?;
    let layout = ProbeLayout::for_instance(gen.city(), instance)?;
    Ok((movie, layout, cfg))
}

/// City + traffic + dataset, deterministic in (grid, days, instance, seed).
fn build_dataset(
    grid: usize,
    days: usize,
    instance: MtsrInstance,
    s: usize,
    seed: u64,
) -> Result<Dataset, TensorError> {
    let (movie, layout, cfg) = generate_movie(grid, days, instance, s, seed)?;
    Dataset::build(&movie, layout, cfg)
}

/// The training plan shared by `train` and the online fine-tune behind
/// `serve --adapt`: a container written by one must restore under the
/// other's config (the LR schedule is part of the container, and a
/// schedule mismatch is rejected on restore).
fn train_config(steps: usize, adv: usize) -> GanTrainingConfig {
    let mut cfg = GanTrainingConfig::paper(steps, adv, 8);
    cfg.lr = 1e-3;
    cfg.schedule = Some(zipnet_gan::nn::LrSchedule::Exponential {
        lr: 1e-3,
        period: 200,
        factor: 0.5,
    });
    cfg.clip_norm = Some(5.0);
    cfg
}

/// The container fingerprint for a training run. Everything that shapes
/// the data or the training plan goes in — resuming against different
/// data is rejected, while online fine-tuning only insists on the
/// geometry keys (instance/grid/s/arch).
#[allow(clippy::too_many_arguments)]
fn train_fingerprint(
    instance: MtsrInstance,
    grid: usize,
    days: usize,
    s: usize,
    seed: u64,
    steps: usize,
    adv: usize,
    gan: bool,
) -> String {
    format!(
        "mtsr-train/v1 instance={} grid={grid} days={days} s={s} seed={seed} \
         steps={steps} adv={adv} gan={gan} batch=8 arch=tiny",
        instance.label()
    )
}

fn cmd_simulate(args: &Args) -> CmdOutcome {
    args.expect_known("simulate", &["grid", "days", "seed", "out", "telemetry"])?;
    let grid = args.usize_flag("grid", 40)?;
    let days = args.usize_flag("days", 2)?;
    let seed = args.u64_flag("seed", 42)?;
    let out = args.get("out").unwrap_or("traffic.csv").to_string();
    let mut rng = Rng::seed_from(seed);
    let mut city = CityConfig::small();
    city.grid = grid;
    let gen = MilanGenerator::new(&city, &mut rng).map_err(|e| e.to_string())?;
    let movie = gen
        .generate(days * 144, &mut rng)
        .map_err(|e| e.to_string())?;
    let mut csv = String::from("t,y,x,traffic_mb\n");
    let d = movie.dims();
    for t in 0..d[0] {
        for y in 0..d[1] {
            for x in 0..d[2] {
                let v = movie.get(&[t, y, x]).expect("in range");
                csv.push_str(&format!("{t},{y},{x},{v:.2}\n"));
            }
        }
    }
    std::fs::write(&out, csv).map_err(|e| e.to_string())?;
    println!(
        "wrote {} frames of a {grid}x{grid} city to {out} ({:.0}..{:.0} MB per cell)",
        d[0],
        movie.min(),
        movie.max()
    );
    Ok(Vec::new())
}

fn cmd_train(args: &Args) -> CmdOutcome {
    args.expect_known(
        "train",
        &[
            "instance",
            "grid",
            "days",
            "s",
            "steps",
            "gan",
            "adv",
            "seed",
            "out",
            "telemetry",
            "resume",
            "checkpoint-every",
            "keep",
            "halt-after",
        ],
    )?;
    let grid = args.usize_flag("grid", 40)?;
    let days = args.usize_flag("days", 4)?;
    let s = args.usize_flag("s", 3)?;
    let seed = args.u64_flag("seed", 42)?;
    let steps = args.usize_flag("steps", 300)?;
    let gan = args.bool_flag("gan")?;
    let adv = args.usize_flag("adv", if gan { 40 } else { 0 })?;
    let out = args.get("out").unwrap_or("model.ckpt").to_string();
    let every = args.usize_opt("checkpoint-every")?;
    let keep = args.usize_flag("keep", 3)?;
    let halt_after = args.usize_opt("halt-after")?;
    let instance = parse_instance(args.get("instance"))?;
    let ds = build_dataset(grid, days, instance, s, seed).map_err(|e| e.to_string())?;

    // The checkpoint cadence flags deliberately stay out of the
    // fingerprint: an interrupted run and its uninterrupted twin must
    // share one.
    let fingerprint = train_fingerprint(instance, grid, days, s, seed, steps, adv, gan);
    let policy = CheckpointPolicy {
        path: PathBuf::from(&out),
        every,
        keep,
        fingerprint: fingerprint.clone(),
        halt_after,
    };
    let resume = match args.get("resume") {
        Some(path) => {
            let st = checkpoint::load_train_state(path).map_err(|e| e.to_string())?;
            st.validate_fingerprint(&fingerprint)
                .map_err(|e| e.to_string())?;
            println!(
                "resuming from {path} ({}+{} of {steps}+{adv} steps already done)",
                st.pretrain_done, st.adversarial_done
            );
            Some(st)
        }
        None => None,
    };

    let cfg = train_config(steps, adv);
    let mut model = if gan {
        MtsrModel::zipnet_gan(ArchScale::Tiny, cfg)
    } else {
        MtsrModel::zipnet(ArchScale::Tiny, cfg)
    };
    println!(
        "training {} on {} ({grid}x{grid}, S={s}, {steps}+{adv} steps)...",
        model.name(),
        instance.label()
    );
    let mut rng = Rng::seed_from(seed ^ 0x5eed);
    model
        .fit_with(&ds, &mut rng, Some(policy), resume.as_ref())
        .map_err(|e| e.to_string())?;
    let report = model.report.as_ref().expect("fit stores report");
    println!(
        "pre-train MSE {:.4} -> {:.4}{}",
        report.pretrain_mse.first().copied().unwrap_or(f32::NAN),
        report.pretrain_mse.last().copied().unwrap_or(f32::NAN),
        if adv > 0 {
            format!(", {} adversarial iterations", report.g_loss.len())
        } else {
            String::new()
        }
    );
    let phases = report.phases.clone();
    if report.halted {
        println!("halted by --halt-after; continue with --resume {out}.<NNNNNN> (latest snapshot)");
    } else {
        println!("saved training checkpoint to {out}");
    }
    Ok(phases)
}

/// Rebuilds the generator architecture for a dataset and loads weights
/// from either a training container or a legacy weights-only checkpoint.
fn load_generator(ds: &Dataset, path: &str, s: usize) -> Result<ZipNet, String> {
    load_generator_at(ds.layout().grid / ds.layout().square, path, s)
}

/// Geometry-only variant of [`load_generator`], used by the serve
/// planner to re-plan checkpoints without rebuilding the dataset.
fn load_generator_at(upscale: usize, path: &str, s: usize) -> Result<ZipNet, String> {
    let mut gen = ZipNet::new(&ZipNetConfig::tiny(upscale, s), &mut Rng::seed_from(0))
        .map_err(|e| e.to_string())?;
    checkpoint::load_generator_into(&mut gen, path).map_err(|e| e.to_string())?;
    Ok(gen)
}

fn cmd_eval(args: &Args) -> CmdOutcome {
    args.expect_known(
        "eval",
        &[
            "model",
            "instance",
            "grid",
            "days",
            "s",
            "seed",
            "telemetry",
        ],
    )?;
    let grid = args.usize_flag("grid", 40)?;
    let days = args.usize_flag("days", 4)?;
    let s = args.usize_flag("s", 3)?;
    let seed = args.u64_flag("seed", 42)?;
    let model_path = args.get("model").ok_or("--model <ckpt> required")?;
    let instance = parse_instance(args.get("instance"))?;
    let ds = build_dataset(grid, days, instance, s, seed).map_err(|e| e.to_string())?;
    let gen = load_generator(&ds, model_path, s)?;
    let mut model =
        MtsrModel::zipnet(ArchScale::Tiny, GanTrainingConfig::tiny()).with_generator(gen);

    let idx = ds.usable_indices(Split::Test);
    let take: Vec<usize> = idx
        .iter()
        .step_by((idx.len() / 12).max(1))
        .copied()
        .collect();
    let (mut se, mut sp, mut ss) = (0.0f64, 0.0f64, 0.0f64);
    for &t in &take {
        let pred = ds.denormalize(&model.predict(&ds, t).map_err(|e| e.to_string())?);
        let truth = ds.fine_frame_raw(t).map_err(|e| e.to_string())?;
        se += nrmse(&pred, &truth).map_err(|e| e.to_string())? as f64;
        sp += psnr(&pred, &truth, MILAN_PEAK_MB).map_err(|e| e.to_string())? as f64;
        ss += ssim(&pred, &truth, MILAN_PEAK_MB).map_err(|e| e.to_string())? as f64;
    }
    let n = take.len() as f64;
    println!(
        "{} on {} ({} test frames): NRMSE {:.3}  PSNR {:.2} dB  SSIM {:.3}",
        model_path,
        instance.label(),
        take.len(),
        se / n,
        sp / n,
        ss / n
    );
    Ok(Vec::new())
}

fn cmd_stream(args: &Args) -> CmdOutcome {
    args.expect_known(
        "stream",
        &[
            "model",
            "frames",
            "instance",
            "grid",
            "days",
            "s",
            "seed",
            "telemetry",
        ],
    )?;
    let grid = args.usize_flag("grid", 40)?;
    let days = args.usize_flag("days", 4)?;
    let s = args.usize_flag("s", 3)?;
    let seed = args.u64_flag("seed", 42)?;
    let frames = args.usize_flag("frames", 12)?;
    let model_path = args.get("model").ok_or("--model <ckpt> required")?;
    let instance = parse_instance(args.get("instance"))?;
    let ds = build_dataset(grid, days, instance, s, seed).map_err(|e| e.to_string())?;
    let mut gen = load_generator(&ds, model_path, s)?;
    let mut stream = StreamingPredictor::new(&mut gen, ds.moments(), ds.layout().square)
        .map_err(|e| e.to_string())?;
    let mut detector =
        TrafficAnomalyDetector::new(grid, 24, 0.3, 6.0).map_err(|e| e.to_string())?;

    let start = ds.range(Split::Test).start;
    println!("live stream: feeding {frames} coarse frames (S = {s} warm-up)...");
    for i in 0..frames {
        let t = start + i;
        let coarse = ds.coarse_frame_raw(t).map_err(|e| e.to_string())?;
        match stream.push(&coarse).map_err(|e| e.to_string())? {
            None => println!("t={t}: warming up"),
            Some(fine) => {
                let bucket = (t / 6) % 24; // hourly profile buckets
                let hits = detector.observe(bucket, &fine).map_err(|e| e.to_string())?;
                println!(
                    "t={t}: inferred {}x{} map, total {:.0} MB, {} anomaly flags",
                    fine.dims()[0],
                    fine.dims()[1],
                    fine.sum(),
                    hits.len()
                );
            }
        }
    }
    Ok(Vec::new())
}

/// Shared by `serve` and `client`: dataset-derived sliding-window
/// geometry for the given flags. Defaults cover the frame in aligned
/// `grid/2`-sided windows.
fn sliding_setup(
    args: &Args,
    ds: &Dataset,
    grid: usize,
) -> Result<(MtsrPipeline, zipnet_gan::core::SlidingGeometry), String> {
    let window = args.usize_flag("window", grid / 2)?;
    let stride = args.usize_flag("stride", window)?;
    let pipe = MtsrPipeline::new(window, stride);
    let geo = pipe.geometry(ds).map_err(|e| e.to_string())?;
    Ok((pipe, geo))
}

fn cmd_serve(args: &Args) -> CmdOutcome {
    args.expect_known(
        "serve",
        &[
            "model",
            "models",
            "addr",
            "instance",
            "grid",
            "days",
            "s",
            "seed",
            "window",
            "stride",
            "batch",
            "workers",
            "queue",
            "deadline-ms",
            "linger-ms",
            "max-conns",
            "fuse",
            "adapt",
            "drift-threshold",
            "drift-window",
            "adapt-pairs",
            "adapt-holdout",
            "adapt-steps",
            "telemetry",
        ],
    )?;
    let grid = args.usize_flag("grid", 40)?;
    let days = args.usize_flag("days", 4)?;
    let s = args.usize_flag("s", 3)?;
    let seed = args.u64_flag("seed", 42)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let instance = parse_instance(args.get("instance"))?;
    let ds = build_dataset(grid, days, instance, s, seed).map_err(|e| e.to_string())?;
    let (_pipe, geo) = sliding_setup(args, &ds, grid)?;
    let cw = args.usize_flag("window", grid / 2)? / geo.probe;
    let upscale = ds.layout().grid / ds.layout().square;

    // Tenants: one model id per `name=ckpt` entry of --models (ids in
    // listed order), or a single model 0 named `default` from --model.
    let mut tenants: Vec<(String, String)> = Vec::new();
    if let Some(spec) = args.get("models") {
        for item in spec.split(',') {
            let (name, path) = item.split_once('=').ok_or_else(|| {
                format!("--models expects comma-separated name=ckpt entries, got `{item}`")
            })?;
            if name.is_empty() || path.is_empty() {
                return Err(format!("--models entry `{item}` has an empty name or path"));
            }
            tenants.push((name.to_string(), path.to_string()));
        }
    } else if let Some(path) = args.get("model") {
        tenants.push(("default".to_string(), path.to_string()));
    } else {
        return Err("--model <ckpt> or --models name=ckpt[,name=ckpt...] required".to_string());
    }

    let batch = args.usize_flag("batch", 4)?;
    // BN folded into the weights by default (fastest f32 route); --fuse
    // selects exact (bit-identical to the eval forward), folded, or
    // quantized (int8 conv weights).
    let policy = match args.get("fuse") {
        Some(name) => FusePolicy::parse(name)
            .ok_or_else(|| format!("--fuse must be exact|folded|quantized, got `{name}`"))?,
        None => FusePolicy::Folded,
    };

    // The planner both builds the initial plans and re-plans checkpoints
    // for hot reload (RELOAD frames and SIGHUP), off the event loop.
    let planner: Planner = Arc::new(move |_model, source| {
        let mut gen = load_generator_at(upscale, source, s).map_err(std::io::Error::other)?;
        let exec = plan_zipnet(&mut gen, policy, batch, cw, cw)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(Arc::clone(exec.plan()))
    });
    let mut specs = Vec::new();
    for (name, path) in &tenants {
        specs.push(ModelSpec {
            name: name.clone(),
            source: path.clone(),
            plan: planner(0, path).map_err(|e| format!("planning `{name}` ({path}): {e}"))?,
        });
    }

    // Online adaptation: TRUTH frames feed a rolling drift gauge; past
    // the threshold the daemon fine-tunes the recorded container on the
    // buffered pairs in a sidecar thread and hot-promotes the candidate
    // through the acceptance gate. The adapted container is written
    // next to the original (`<ckpt>.adapt`) so a promotion survives a
    // later RELOAD of the slot.
    let adapt = args.bool_flag("adapt")?;
    let adapt_cfg = AdaptConfig {
        threshold: args.f32_flag("drift-threshold", 0.5)?,
        window: args.usize_flag("drift-window", 32)?,
        min_pairs: args.usize_flag("adapt-pairs", 32)?,
        holdout: args.usize_flag("adapt-holdout", 8)?,
    };
    let adapt_steps = args.usize_flag("adapt-steps", 300)?;
    let tuner: Option<Tuner> = if adapt {
        let geometry = train_fingerprint(instance, grid, days, s, seed, 0, 0, false);
        Some(Arc::new(move |_model, source, pairs| {
            let out = format!("{}.adapt", source.trim_end_matches(".adapt"));
            let tune = OnlineTuneConfig {
                scale: ArchScale::Tiny,
                base: train_config(0, 0),
                upscale,
                s,
                steps: adapt_steps,
                expected_fingerprint: Some(geometry.clone()),
            };
            let outcome =
                fine_tune_container(source, Some(std::path::Path::new(&out)), &tune, pairs)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
            let mut gen = outcome.generator;
            let exec = plan_zipnet(&mut gen, policy, batch, cw, cw)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            Ok(TunedModel {
                plan: Arc::clone(exec.plan()),
                source: out,
            })
        }))
    } else {
        None
    };

    let cfg = ServeConfig {
        addr,
        queue_cap: args.usize_flag("queue", 64)?,
        workers: args.usize_flag("workers", 2)?,
        deadline: Duration::from_millis(args.u64_flag("deadline-ms", 2_000)?),
        linger: Duration::from_millis(args.u64_flag("linger-ms", 2)?),
        max_conns: args.usize_flag("max-conns", 4096)?,
        adapt: adapt.then_some(adapt_cfg),
        ..ServeConfig::default()
    };
    let handle =
        Server::start_adaptive(&cfg, specs, Some(planner), tuner).map_err(|e| e.to_string())?;
    signals::install();
    println!(
        "serving {} model(s) on {} (fuse policy {}, {} windows [S={s}, {cw}x{cw}] -> [{}x{}] \
         per replay, queue {}, {} workers, {} conns max; SIGHUP hot-reloads checkpoints, \
         SIGTERM or a SHUTDOWN frame drains gracefully)",
        tenants.len(),
        handle.local_addr(),
        policy.name(),
        batch,
        cw * geo.probe,
        cw * geo.probe,
        cfg.queue_cap,
        cfg.workers,
        cfg.max_conns,
    );
    for (id, (name, path)) in tenants.iter().enumerate() {
        println!("  model {id}: {name} <- {path}");
    }
    if let Some(ac) = &cfg.adapt {
        println!(
            "online adaptation on: drift threshold {:.4} over a {}-window rolling NRMSE \
             gauge; fine-tune {adapt_steps} steps from {} buffered pairs (+{} holdout), \
             promotion gated on beating the live model",
            ac.threshold, ac.window, ac.min_pairs, ac.holdout
        );
    }
    loop {
        if signals::triggered() {
            println!("termination signal: draining in-flight work...");
            handle.request_shutdown();
            break;
        }
        if handle.draining() {
            println!("shutdown frame received: draining in-flight work...");
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.join();
    println!("drain complete; all admitted requests answered");
    Ok(Vec::new())
}

fn cmd_client(args: &Args) -> CmdOutcome {
    args.expect_known(
        "client",
        &[
            "addr",
            "status",
            "shutdown",
            "reload",
            "stress",
            "requests",
            "model-id",
            "truth",
            "shift-at",
            "shift-gain",
            "shift-hotspot",
            "interval-ms",
            "drift-out",
            "frames",
            "instance",
            "grid",
            "days",
            "s",
            "seed",
            "window",
            "stride",
            "telemetry",
        ],
    )?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let model_id = args.usize_flag("model-id", 0)? as u32;
    let mut client = ServeClient::connect(&addr).map_err(|e| e.to_string())?;

    if args.bool_flag("status")? {
        print!("{}", client.status().map_err(|e| e.to_string())?);
        return Ok(Vec::new());
    }
    if args.bool_flag("shutdown")? {
        client.shutdown().map_err(|e| e.to_string())?;
        println!("shutdown acknowledged by {addr}; daemon is draining");
        return Ok(Vec::new());
    }
    if let Some(spec) = args.get("reload") {
        // Bare `--reload` re-plans the recorded checkpoint; a value
        // swaps in a new checkpoint path. `--model-id` picks the slot.
        let source = if spec == "true" { "" } else { spec };
        let generation = client.reload(model_id, source).map_err(|e| e.to_string())?;
        println!("model {model_id} reloaded; now serving plan generation {generation}");
        return Ok(Vec::new());
    }
    if let Some(conns) = args.usize_opt("stress")? {
        drop(client);
        return cmd_stress(&addr, model_id, conns, args.usize_flag("requests", 4)?);
    }
    if let Some(windows) = args.usize_opt("truth")? {
        return cmd_truth_stream(args, client, model_id, windows);
    }

    // Prediction mode: regenerate the dataset the daemon was started
    // with (same flags, same seed) and stream test frames through it.
    let grid = args.usize_flag("grid", 40)?;
    let days = args.usize_flag("days", 4)?;
    let s = args.usize_flag("s", 3)?;
    let seed = args.u64_flag("seed", 42)?;
    let frames = args.usize_flag("frames", 1)?;
    let instance = parse_instance(args.get("instance"))?;
    let ds = build_dataset(grid, days, instance, s, seed).map_err(|e| e.to_string())?;
    let (_pipe, geo) = sliding_setup(args, &ds, grid)?;
    let window = args.usize_flag("window", grid / 2)?;
    let mut remote =
        RemotePredictor::for_model(client, model_id, geo.origins, window, geo.grid, geo.probe)
            .map_err(|e| e.to_string())?;

    let idx = ds.usable_indices(Split::Test);
    let take = frames.min(idx.len());
    for &t in idx.iter().take(take) {
        let sample = ds.sample_at(t).map_err(|e| e.to_string())?;
        let sq = sample.input.dims()[2];
        let pred = remote
            .predict_frame(sample.input.as_slice(), sq)
            .map_err(|e| e.to_string())?;
        let pred = ds.denormalize(&pred);
        let truth = ds.fine_frame_raw(t).map_err(|e| e.to_string())?;
        let e = nrmse(&pred, &truth).map_err(|e| e.to_string())?;
        println!(
            "t={t}: remote {}x{} frame, total {:.0} MB, NRMSE {e:.3}",
            pred.dims()[0],
            pred.dims()[1],
            pred.sum()
        );
    }
    println!("predicted {take} frame(s) via {addr}");
    Ok(Vec::new())
}

/// Drift-scenario driver behind `client --truth N`: streams `N` coarse
/// test frames as INFER requests. The first `--shift-at` windows are
/// scored client-side (pre-shift baseline); from `--shift-at` onward
/// the frames come from a regime-shifted twin of the dataset
/// (multiplicative gain plus a sustained central hotspot) and each is
/// followed by a TRUTH frame under the same request id, so the
/// daemon's rolling gauge degrades on the new regime only, trips the
/// background fine-tune, and — the stream extends itself until the
/// promotion decision resolves — the gated candidate is hot-promoted.
/// Reports pre-shift / peak / final NRMSE and whether accuracy
/// recovered.
fn cmd_truth_stream(
    args: &Args,
    mut client: ServeClient,
    model_id: u32,
    windows: usize,
) -> CmdOutcome {
    let grid = args.usize_flag("grid", 40)?;
    let days = args.usize_flag("days", 4)?;
    let s = args.usize_flag("s", 3)?;
    let seed = args.u64_flag("seed", 42)?;
    let shift_at = args.usize_flag("shift-at", windows / 3)?;
    let gain = args.f32_flag("shift-gain", 1.0)?;
    let hotspot_mb = args.f32_flag("shift-hotspot", 20_000.0)?;
    // A live feed has inter-frame spacing; pacing the stream gives the
    // background fine-tune wall-clock time to land mid-stream.
    let interval = Duration::from_millis(args.u64_flag("interval-ms", 0)?);
    let instance = parse_instance(args.get("instance"))?;
    if shift_at == 0 || shift_at >= windows {
        return Err(format!(
            "--truth {windows} needs 0 < --shift-at < {windows} (got {shift_at}): the stream \
             must cover both regimes"
        ));
    }

    let (movie, layout, dcfg) =
        generate_movie(grid, days, instance, s, seed).map_err(|e| e.to_string())?;
    let base = Dataset::build(&movie, layout.clone(), dcfg).map_err(|e| e.to_string())?;
    // The shift starts at the test range, so the daemon's normalisation
    // (training moments) never saw it — the production drift situation.
    let mut shifted_movie = movie.clone();
    RegimeShift {
        from: base.range(Split::Test).start,
        gain,
        hotspot: (hotspot_mb != 0.0).then_some(AnomalyEvent {
            y: grid / 2,
            x: grid / 2,
            radius: grid as f32 * 0.3,
            magnitude_mb: hotspot_mb,
        }),
    }
    .apply(&mut shifted_movie)
    .map_err(|e| e.to_string())?;
    let shifted = Dataset::build(&shifted_movie, layout, dcfg).map_err(|e| e.to_string())?;

    // The stream serves whole coarse frames, one window per frame, so
    // prediction and truth line up one-to-one for the drift gauge.
    let sq = base.layout().square;
    let info = client.info_for(model_id).map_err(|e| e.to_string())?;
    if (info.s as usize, info.h as usize, info.w as usize) != (s, sq, sq) {
        return Err(format!(
            "daemon serves [{}, {}, {}] windows but --truth streams whole [{s}, {sq}, {sq}] \
             coarse frames; start `mtsr serve` with --window {grid}",
            info.s, info.h, info.w
        ));
    }
    println!(
        "truth stream: {windows} frames to {} (regime shift at {shift_at}: gain {gain}, \
         hotspot {hotspot_mb} MB)...",
        info.model
    );

    let idx = base.usable_indices(Split::Test);
    if idx.is_empty() {
        return Err("dataset has no usable test frames".to_string());
    }
    let mut scores: Vec<f32> = Vec::with_capacity(windows);
    let mut misses = 0usize;
    let mut shed = 0u64;
    // Pre-shift windows are scored client-side from the INFER reply
    // (no TRUTH frame), so the daemon's fine-tune corpus only ever
    // holds post-shift pairs — the fine-tune trains on the regime it
    // must adapt to, not on a mixture diluted by the old one. The
    // scoring function is the same `window_nrmse` the daemon applies
    // server-side, so the pre/post numbers are directly comparable.
    let mut stream_one = |client: &mut ServeClient,
                          ds: &Dataset,
                          frame: usize,
                          send_truth: bool,
                          scores: &mut Vec<f32>|
     -> Result<(), String> {
        let sample = ds
            .sample_at(idx[frame % idx.len()])
            .map_err(|e| e.to_string())?;
        let req = InferRequest {
            model: model_id,
            deadline_ms: 10_000,
            s: s as u32,
            h: sq as u32,
            w: sq as u32,
            data: sample.input.as_slice().to_vec(),
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        let pred = loop {
            if std::time::Instant::now() > deadline {
                return Err(format!("window {frame}: no reply within 120s"));
            }
            match client.infer(&req).map_err(|e| e.to_string())? {
                InferOutcome::Ok(data) => break data,
                // Explicit shedding: back off and resubmit.
                InferOutcome::Busy | InferOutcome::Timeout => {
                    shed += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => return Err(format!("window {frame}: {other:?}")),
            }
        };
        if send_truth {
            let truth = TruthRequest {
                model: model_id,
                h: grid as u32,
                w: grid as u32,
                data: sample.target.as_slice().to_vec(),
            };
            match client
                .truth(client.last_id(), &truth)
                .map_err(|e| e.to_string())?
            {
                Some(ack) => scores.push(ack.window_nrmse),
                None => {
                    misses += 1;
                    scores.push(f32::NAN);
                }
            }
        } else {
            scores.push(window_nrmse(&pred.data, sample.target.as_slice()));
        }
        if !interval.is_zero() {
            std::thread::sleep(interval);
        }
        Ok(())
    };
    for k in 0..windows {
        let ds = if k < shift_at { &base } else { &shifted };
        stream_one(&mut client, ds, k, k >= shift_at, &mut scores)?;
    }

    // A fine-tune takes wall-clock seconds, so the scheduled stream
    // usually ends before the promotion decision lands. Keep the
    // shifted feed alive while the daemon is still resolving the drift
    // — fine-tune in flight, or a trigger that has not produced a
    // promotion yet (a rejected candidate refills the gauge and
    // retries) — then measure a fresh tail on whichever model is live
    // afterwards. Bounded by wall clock, not by guessing how many
    // windows a fine-tune spans.
    let adapt_state = |client: &mut ServeClient| -> Result<(bool, u64, u64, u64), String> {
        let status = client.status().map_err(|e| e.to_string())?;
        let line = status
            .lines()
            .find(|l| l.starts_with(&format!("model[{model_id}]")))
            .unwrap_or("")
            .to_string();
        let num = |key: &str| -> u64 {
            line.split_whitespace()
                .find_map(|tok| tok.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        Ok((
            line.contains("adapting=true"),
            num("drift_triggers="),
            num("promotions_ok="),
            num("promotions_rejected="),
        ))
    };
    let mut extended = 0usize;
    let ext_deadline = std::time::Instant::now() + Duration::from_secs(180);
    loop {
        let (adapting, triggers, promoted, rejected) = adapt_state(&mut client)?;
        let unresolved = adapting || (triggers > 0 && promoted == 0 && rejected < 3);
        if !unresolved || std::time::Instant::now() > ext_deadline {
            break;
        }
        stream_one(&mut client, &shifted, windows + extended, true, &mut scores)?;
        if interval.is_zero() {
            // Pace the extension even when the main stream was unpaced:
            // its purpose is to span fine-tune wall time, not bandwidth.
            std::thread::sleep(Duration::from_millis(25));
        }
        extended += 1;
    }
    if extended > 0 {
        for j in 0..8 {
            stream_one(
                &mut client,
                &shifted,
                windows + extended + j,
                true,
                &mut scores,
            )?;
        }
    }

    let mean = |xs: &[f32]| {
        let good: Vec<f32> = xs.iter().copied().filter(|v| v.is_finite()).collect();
        good.iter().sum::<f32>() / good.len().max(1) as f32
    };
    let total = scores.len();
    let pre = mean(&scores[..shift_at]);
    let peak = scores[shift_at..]
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(0.0f32, f32::max);
    let tail = (total - shift_at).min(8);
    let fin = mean(&scores[total - tail..]);
    let recovered = fin <= pre * 1.10;
    println!("drift scenario: pre={pre:.4} peak={peak:.4} final={fin:.4} recovered={recovered}");
    println!(
        "truth stream complete: {total} windows ({shift_at} pre-shift, {extended} extended while \
         adapting), {misses} unmatched, {shed} shed-and-retried, 0 dropped"
    );

    if let Some(path) = args.get("drift-out") {
        let nums = |xs: &[f32]| {
            xs.iter()
                .map(|v| {
                    if v.is_finite() {
                        format!("{v}")
                    } else {
                        "null".to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let json = format!(
            "{{\n  \"windows\": {total},\n  \"shift_at\": {shift_at},\n  \
             \"extended\": {extended},\n  \"gain\": {gain},\n  \"hotspot_mb\": {hotspot_mb},\n  \
             \"pre\": {pre},\n  \"peak\": {peak},\n  \"final\": {fin},\n  \
             \"recovered\": {recovered},\n  \"unmatched\": {misses},\n  \"shed\": {shed},\n  \
             \"scores\": [{}]\n}}\n",
            nums(&scores)
        );
        std::fs::write(path, json)
            .map_err(|e| format!("writing drift telemetry to {path}: {e}"))?;
        println!("wrote drift telemetry to {path}");
    }
    Ok(Vec::new())
}

/// Stress driver for the serving daemon: `conns` concurrent
/// connections each submit `requests` random windows of the daemon's
/// own reported geometry, retrying explicit shedding (`BUSY`/`TIMEOUT`)
/// until served, while one extra slow-loris connection trickles a
/// partial frame and then disconnects mid-frame. Fails unless every
/// submitted request reaches a served reply — admitted work must never
/// be dropped, reloads and signals included.
fn cmd_stress(addr: &str, model: u32, conns: usize, requests: usize) -> CmdOutcome {
    use std::io::Write as _;

    let mut probe = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    let info = probe.info_for(model).map_err(|e| e.to_string())?;
    let elems = (info.s * info.h * info.w) as usize;
    println!(
        "stressing {addr} model {model} (geometry [{}, {}, {}], generation {}) with \
         {conns} connections x {requests} requests + 1 slow-loris...",
        info.s, info.h, info.w, info.generation
    );

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let loris = {
        let addr = addr.to_string();
        let stop = Arc::clone(&stop);
        let (s, h, w) = (info.s, info.h, info.w);
        std::thread::spawn(move || {
            let Ok(mut stream) = std::net::TcpStream::connect(&addr) else {
                return;
            };
            let req = InferRequest {
                model,
                deadline_ms: 0,
                s,
                h,
                w,
                data: vec![0.0; (s * h * w) as usize],
            };
            let mut frame = Vec::new();
            zipnet_gan::serve::protocol::write_request(
                &mut frame,
                zipnet_gan::serve::protocol::Opcode::Infer,
                1,
                &req.encode(),
            )
            .expect("Vec write");
            // Trickle a prefix one byte at a time, hold the socket open
            // until the stress ends, then drop it mid-frame.
            for b in &frame[..64.min(frame.len() - 1)] {
                if stop.load(std::sync::atomic::Ordering::SeqCst)
                    || stream.write_all(std::slice::from_ref(b)).is_err()
                {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let mut workers = Vec::with_capacity(conns);
    for c in 0..conns {
        let addr = addr.to_string();
        let (s, h, w) = (info.s, info.h, info.w);
        workers.push(std::thread::spawn(move || -> Result<(u64, u64), String> {
            let mut client = ServeClient::connect(&addr).map_err(|e| e.to_string())?;
            let mut rng = Rng::seed_from(0xbeef ^ c as u64);
            let (mut served, mut shed) = (0u64, 0u64);
            for r in 0..requests {
                let req = InferRequest {
                    model,
                    deadline_ms: 10_000,
                    s,
                    h,
                    w,
                    data: (0..elems).map(|_| rng.next_f32()).collect(),
                };
                let deadline = std::time::Instant::now() + Duration::from_secs(120);
                loop {
                    if std::time::Instant::now() > deadline {
                        return Err(format!("conn {c} request {r}: no reply within 120s"));
                    }
                    match client.infer(&req).map_err(|e| e.to_string())? {
                        InferOutcome::Ok(_) => {
                            served += 1;
                            break;
                        }
                        // Explicit shedding: back off and resubmit.
                        InferOutcome::Busy | InferOutcome::Timeout => {
                            shed += 1;
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        other => return Err(format!("conn {c} request {r}: {other:?}")),
                    }
                }
            }
            Ok((served, shed))
        }));
    }

    let (mut served, mut shed) = (0u64, 0u64);
    let mut failures = Vec::new();
    for worker in workers {
        match worker.join().map_err(|_| "stress worker panicked")? {
            Ok((ok, re)) => {
                served += ok;
                shed += re;
            }
            Err(e) => failures.push(e),
        }
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    loris.join().map_err(|_| "slow-loris thread panicked")?;
    if !failures.is_empty() {
        return Err(format!(
            "stress dropped requests: {} failure(s), first: {}",
            failures.len(),
            failures[0]
        ));
    }
    let want = (conns * requests) as u64;
    if served != want {
        return Err(format!("stress served {served} of {want} requests"));
    }
    println!(
        "stress complete: {served}/{want} requests served ({shed} shed-and-retried), \
         0 dropped"
    );
    Ok(Vec::new())
}

/// Assembles and writes the `TelemetryReport` for a finished run: the
/// command line as run metadata (sorted for byte-stable output), the
/// training phases the subcommand produced, and the span/counter/gauge
/// snapshot accumulated by the registry.
fn write_telemetry(
    path: &str,
    cmd: &str,
    args: &Args,
    phases: Vec<PhaseReport>,
) -> Result<(), String> {
    let mut run = vec![("command".to_string(), cmd.to_string())];
    let mut keys: Vec<&String> = args.flags.keys().collect();
    keys.sort();
    for k in keys {
        if k != "telemetry" {
            run.push((k.clone(), args.flags[k].clone()));
        }
    }
    let mut report = TelemetryReport::new(run);
    report.phases = phases;
    report.attach_snapshot(&zipnet_gan::telemetry::snapshot());
    std::fs::write(path, report.to_json_string())
        .map_err(|e| format!("writing telemetry report to {path}: {e}"))?;
    println!("wrote telemetry report to {path}");
    Ok(())
}

fn usage() -> &'static str {
    "mtsr — ZipNet-GAN mobile-traffic super-resolution\n\
     \n\
     USAGE:\n\
       mtsr simulate [--grid N] [--days D] [--seed S] [--out FILE]\n\
       mtsr train    [--instance up2|up4|up10|mixture] [--grid N] [--days D]\n\
                     [--s S] [--steps N] [--gan] [--adv N] [--seed S] [--out CKPT]\n\
                     [--checkpoint-every N] [--keep K] [--resume SNAPSHOT]\n\
                     [--halt-after N]\n\
       mtsr eval     --model CKPT [--instance ...] [--grid N] [--seed S]\n\
       mtsr stream   --model CKPT [--frames N] [--instance ...] [--grid N] [--seed S]\n\
       mtsr serve    (--model CKPT | --models NAME=CKPT[,NAME=CKPT...])\n\
                     [--addr HOST:PORT] [--batch B] [--workers W] [--queue N]\n\
                     [--deadline-ms MS] [--linger-ms MS] [--max-conns N]\n\
                     [--fuse exact|folded|quantized]\n\
                     [--adapt] [--drift-threshold T] [--drift-window N]\n\
                     [--adapt-pairs N] [--adapt-holdout N] [--adapt-steps N]\n\
                     [--window N] [--stride N] [--instance ...] [--grid N] [--seed S]\n\
       mtsr client   [--addr HOST:PORT] [--model-id N] (--status | --shutdown |\n\
                     --reload [CKPT] | --stress CONNS [--requests R] |\n\
                     --truth N [--shift-at K] [--shift-gain G] [--shift-hotspot MB]\n\
                     [--interval-ms MS]
                     [--drift-out REPORT.json] | [--frames N]\n\
                     [--window N] [--stride N] [--instance ...] [--grid N] [--seed S])\n\
     \n\
     Serving: `serve` compiles each checkpoint into a batched inference plan\n\
     and answers low-res windows over a length-prefixed TCP protocol. A\n\
     single epoll/poll event loop fronts thousands of connections with a\n\
     fixed thread count; a shared batcher pool routes requests to the model\n\
     id in each INFER header, with BUSY backpressure when the bounded queue\n\
     is full, per-request deadlines and graceful drain on SIGTERM/SHUTDOWN.\n\
     Hot reload: `client --reload [CKPT]` (or SIGHUP for every model) swaps\n\
     a freshly planned checkpoint atomically — in-flight batches finish on\n\
     the old plan, replies are stamped with the plan generation, and each\n\
     generation stays bit-identical to offline inference under its plan.\n\
     `client --frames N` reconstructs full test frames remotely (bit-\n\
     identical to local inference when the policies match); `--status`\n\
     prints global and per-model counters plus lifetime and since-last-\n\
     STATUS latency percentiles; `--stress CONNS` hammers the daemon and\n\
     fails on any dropped request.\n\
     \n\
     Online adaptation: with `serve --adapt`, clients follow each served\n\
     prediction with a TRUTH frame under the same request id; the daemon\n\
     scores every pair into a rolling per-model NRMSE gauge (STATUS:\n\
     drift=). Past --drift-threshold, a sidecar thread resumes the\n\
     recorded training container, fine-tunes --adapt-steps on the last\n\
     --adapt-pairs buffered pairs, and hot-promotes the result through\n\
     the RELOAD path — only if it beats the live model on the freshest\n\
     --adapt-holdout pairs (else promotions_rejected counts it and the\n\
     live plan is untouched). `client --truth N` drives the whole drift\n\
     scenario: healthy windows, then a regime-shifted workload from\n\
     --shift-at onward, reporting pre/peak/final NRMSE and recovery.\n\
     \n\
     Checkpointing: --out receives a crash-safe training container (weights,\n\
     Adam moments, RNG and schedule state). --checkpoint-every N also writes\n\
     rolling snapshots CKPT.NNNNNN (newest --keep kept); after a crash,\n\
     --resume CKPT.NNNNNN continues bit-identically to an uninterrupted run\n\
     when given the same data/plan flags. eval and stream accept both\n\
     containers and legacy weights-only checkpoints.\n\
     \n\
     Every subcommand also accepts --telemetry REPORT.json: enables the\n\
     metrics registry and writes a TelemetryReport (per-epoch losses,\n\
     per-layer and kernel span timings) when the command succeeds.\n\
     \n\
     The same --seed regenerates identical data across subcommands."
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(&argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let telemetry_path = match args.get("telemetry") {
        // A bare `--telemetry` parses as the boolean value "true".
        Some("true") => {
            eprintln!("error: --telemetry requires a report path (e.g. --telemetry report.json)");
            return ExitCode::FAILURE;
        }
        p => p.map(str::to_string),
    };
    if telemetry_path.is_some() {
        zipnet_gan::telemetry::set_enabled(true);
        zipnet_gan::telemetry::reset();
    }
    let result = match cmd.as_str() {
        "simulate" => cmd_simulate(&args),
        "train" => cmd_train(&args),
        "eval" => cmd_eval(&args),
        "stream" => cmd_stream(&args),
        "serve" => cmd_serve(&args),
        "client" => cmd_client(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(Vec::new())
        }
        other => Err(format!("unknown subcommand `{other}`\n\n{}", usage())),
    };
    let result = result.and_then(|phases| {
        if let Some(path) = &telemetry_path {
            write_telemetry(path, &cmd, &args, phases)?;
        }
        Ok(())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
