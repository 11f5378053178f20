//! tiny-serve: an in-process daemon driven open-loop over TCP.
//!
//! One generator thread sends each frame's windows at the frame's due
//! time on one connection while a reader thread collects the replies on
//! the same socket; a second connection reads STATUS between ladder steps.
//! The client reassembles every frame and compares it, bit for bit, with
//! the in-process `InferSession` frame of the same input.

use crate::common::*;
use crate::layers;
use crate::loadgen::{self, FrameRecord, StepSummary};
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;
use mtsr_serve::protocol::{read_response, write_request};
use mtsr_serve::{
    InferRequest, InferResponse, Opcode, RemotePredictor, RespStatus, ServeClient, ServeConfig,
    Server, ServerHandle,
};
use mtsr_tensor::{Rng, Tensor};
use mtsr_traffic::augment::ReassemblePlan;
use mtsr_traffic::{CityConfig, Dataset, Split};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use zipnet_core::pipeline::crop_coarse;
use zipnet_core::{
    plan_zipnet, Discriminator, DiscriminatorConfig, FusePolicy, GanTrainer, InferSession,
    MtsrPipeline, ZipNet, ZipNetConfig,
};

/// The BENCH_INFER geometry: 20×20 grid, up-4, S=3, 12-cell windows at
/// stride 4 (nine windows per frame).
const GRID: usize = 20;
const S: usize = 3;
const WINDOW: usize = 12;
const STRIDE: usize = 4;
/// Daemon shape: executor batch and batcher threads (the default route,
/// folded).
pub const BATCH: usize = 4;
pub const WORKERS: usize = 2;
/// Training in set-up: Algorithm 1 steps of the tiny preset.
const PRETRAIN_STEPS: usize = 40;
const ADV_STEPS: usize = 10;
/// The load ladder: name, frame rate, and share of the run's seconds.
/// The first two steps sit well below the daemon's capacity on a 2-core
/// host; the last is above it and gets the longest share, because its
/// goodput is the capacity figure.
pub const LADDER: [(&str, f64, f64); 3] = [
    ("low", 40.0, 0.25),
    ("mid", 120.0, 0.25),
    ("high", 600.0, 0.5),
];
/// Steps whose failures count in `failed`: those meant to be below
/// capacity.
const BELOW_CAPACITY: usize = 2;
/// Tail-latency limit a ladder step must meet.
pub const LIMIT_MS: f64 = 25.0;
/// A window whose reply takes longer than this is dropped; a send that
/// blocks this long ends the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

pub struct Geometry {
    origins: Vec<(usize, usize)>,
    window: usize,
    grid: usize,
    probe: usize,
    s: usize,
    cw: usize,
    sq: usize,
}

/// A served model with its inputs and the in-process reference frames.
pub struct Served {
    pub ds: Dataset,
    pub gen: ZipNet,
    pub session: InferSession,
    pub handle: ServerHandle,
    pub geo: Geometry,
    pub test: Vec<usize>,
    pub inputs: Vec<Vec<f32>>,
    pub expected: Vec<Vec<f32>>,
}

pub fn pipeline() -> MtsrPipeline {
    MtsrPipeline::new(WINDOW, STRIDE)
}

/// Data, model (trained when `train` is set), plan, daemon start and one
/// warm-up frame through the daemon.
fn setup(seed: u64, train: bool) -> (Served, SetupTimes) {
    let t0 = Instant::now();
    let ds = dataset(CityConfig::tiny(), GRID, splits(S, 48, 16, 16), seed);
    let build_s = secs_since(t0);
    let upscale = ds.layout().grid / ds.layout().square;
    let mut rng = Rng::seed_from(seed ^ MODEL_STREAM);
    let mut gen = ZipNet::new(&ZipNetConfig::tiny(upscale, S), &mut rng).expect("tiny config");
    if train {
        let disc = Discriminator::new(&DiscriminatorConfig::tiny(), &mut rng).expect("tiny disc");
        let mut trainer = GanTrainer::new(gen, disc, train_config(PRETRAIN_STEPS, ADV_STEPS));
        let report = trainer.train(&ds, &mut rng).expect("set-up training");
        assert!(!report.diverged, "set-up training diverged");
        gen = trainer.into_generator();
    } else {
        warm_batchnorm(&mut gen, &mut rng);
    }
    let pipe = pipeline();
    let session = pipe
        .session(&mut gen, &ds, FusePolicy::Folded, BATCH)
        .expect("session");
    let geo = pipe.geometry(&ds).expect("geometry");
    let geo = Geometry {
        origins: geo.origins,
        window: WINDOW,
        grid: geo.grid,
        probe: geo.probe,
        s: S,
        cw: WINDOW / geo.probe,
        sq: geo.grid / geo.probe,
    };
    let exec = plan_zipnet(&mut gen, FusePolicy::Folded, BATCH, geo.cw, geo.cw).expect("plan");
    let cfg = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let handle = Server::start_single(&cfg, exec).expect("daemon start");
    let test = ds.usable_indices(Split::Test);
    let inputs = coarse_inputs(&ds, &test);
    let client = ServeClient::connect(handle.local_addr()).expect("connect");
    let mut remote = RemotePredictor::new(client, geo.origins.clone(), WINDOW, GRID, geo.probe)
        .expect("daemon geometry");
    remote
        .predict_frame(&inputs[0], geo.sq)
        .expect("warm-up frame");
    let total_s = secs_since(t0);
    let served = Served {
        ds,
        gen,
        session,
        handle,
        geo,
        test,
        inputs,
        expected: Vec::new(),
    };
    (served, SetupTimes { total_s, build_s })
}

/// Repeats set-up, keeping the last daemon, then computes the reference
/// frames (outside the set-up timing).
pub fn setup_reps(seed: u64, train: bool, reps: usize) -> (Served, Vec<SetupTimes>) {
    let mut times = Vec::new();
    let mut kept: Option<Served> = None;
    for _ in 0..reps {
        if let Some(old) = kept.take() {
            shutdown(old.handle);
        }
        let (s, t) = setup(seed, train);
        kept = Some(s);
        times.push(t);
    }
    let mut served = kept.expect("at least one set-up");
    let sq = served.geo.sq;
    served.expected = served
        .inputs
        .iter()
        .map(|x| {
            let f = served
                .session
                .predict_frame(x, sq)
                .expect("reference frame");
            f.as_slice().to_vec()
        })
        .collect();
    (served, times)
}

pub fn shutdown(handle: ServerHandle) {
    handle.request_shutdown();
    handle.join();
}

fn status_counter(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(": "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// One ladder step's raw observations.
pub struct StepRun {
    pub name: &'static str,
    pub summary: StepSummary,
    pub records: Vec<FrameRecord>,
    pub rtt_ms: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub windows_sent: u64,
    pub busy: u64,
    pub timeouts: u64,
    pub errors: u64,
    /// Frames whose replies were all OK but reassembled to a wrong frame.
    pub wrong: usize,
}

struct Reply {
    at: Instant,
    status: RespStatus,
    data: Vec<f32>,
}

fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_millis(1) {
            std::thread::sleep(left - Duration::from_micros(500));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs one open-loop step: `rate` frames per second for `seconds`,
/// cycling through the served inputs.
pub fn run_step(
    served: &Served,
    status: &mut ServeClient,
    (name, rate, seconds): (&'static str, f64, f64),
    tr: &mut Tracer,
) -> StepRun {
    let geo = &served.geo;
    let wpf = geo.origins.len();
    let frames = ((rate * seconds).round() as usize).max(1);
    let total = frames * wpf;
    let before = status.status().expect("STATUS");
    let mut stream = TcpStream::connect(served.handle.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_write_timeout(Some(REPLY_TIMEOUT))
        .expect("write timeout");
    let mut reader = stream.try_clone().expect("clone socket");
    reader
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("read timeout");

    let mut sent_at = vec![None::<Instant>; total];
    let mut encode_us = Vec::with_capacity(total);
    let crop_len = geo.s * geo.cw * geo.cw;
    let mut crop = vec![0.0f32; crop_len];
    let start = Instant::now() + Duration::from_millis(5);
    let (replies, decode_us) = std::thread::scope(|scope| {
        let rx = scope.spawn(move || {
            let mut replies: Vec<Option<Reply>> = (0..total).map(|_| None).collect();
            let mut decode_us = Vec::with_capacity(total);
            for _ in 0..total {
                let Ok(resp) = read_response(&mut reader) else {
                    break;
                };
                let at = Instant::now();
                let data = if resp.status == RespStatus::Ok {
                    let t0 = Instant::now();
                    let r = InferResponse::decode(&resp.payload).expect("INFER reply");
                    decode_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    r.data
                } else {
                    Vec::new()
                };
                if let Some(slot) = replies.get_mut(resp.id as usize) {
                    *slot = Some(Reply {
                        at,
                        status: resp.status,
                        data,
                    });
                }
            }
            (replies, decode_us)
        });
        for f in 0..frames {
            wait_until(start + loadgen::due(f, rate));
            let input = &served.inputs[f % served.inputs.len()];
            for (w, &(y0, x0)) in geo.origins.iter().enumerate() {
                let origin = (y0 / geo.probe, x0 / geo.probe);
                crop_coarse(input, geo.s, geo.sq, origin, geo.cw, &mut crop);
                let t0 = Instant::now();
                let payload = InferRequest {
                    model: 0,
                    deadline_ms: 0,
                    s: geo.s as u32,
                    h: geo.cw as u32,
                    w: geo.cw as u32,
                    data: crop.clone(),
                }
                .encode();
                encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
                let id = f * wpf + w;
                sent_at[id] = Some(Instant::now());
                write_request(&mut stream, Opcode::Infer, id as u64, &payload).expect("send");
            }
        }
        rx.join().expect("reader thread")
    });
    let after = status.status().expect("STATUS");
    let delta = |k: &str| status_counter(&after, k).saturating_sub(status_counter(&before, k));

    let mut plan = ReassemblePlan::new(&geo.origins, geo.window, geo.grid).expect("coverage");
    let mut frame = vec![0.0f32; geo.grid * geo.grid];
    let mut records = Vec::with_capacity(frames);
    let mut rtt_ms = Vec::with_capacity(total);
    let mut wrong = 0;
    for f in 0..frames {
        let due = start + loadgen::due(f, rate);
        let ids = f * wpf..(f + 1) * wpf;
        let first_sent = sent_at[ids.start].expect("every window was sent");
        let mut all_ok = true;
        let mut done = None::<Instant>;
        for id in ids.clone() {
            match &replies[id] {
                Some(r) if r.status == RespStatus::Ok => {
                    done = Some(done.map_or(r.at, |d| d.max(r.at)));
                    rtt_ms.push((r.at - sent_at[id].expect("sent")).as_secs_f64() * 1e3);
                }
                _ => all_ok = false,
            }
        }
        let frame_span = match (all_ok, done) {
            (true, Some(d)) => tr.record("loadgen.frame", f as u64, (due, d), None),
            _ => None,
        };
        if all_ok {
            plan.begin();
            for (id, &origin) in ids.clone().zip(&geo.origins) {
                let r = replies[id].as_ref().expect("checked above");
                plan.add_window(origin, &r.data).expect("window fits");
                let window = (sent_at[id].expect("sent"), r.at);
                tr.record("serve.window", f as u64, window, frame_span);
            }
            plan.finish_into(&mut frame).expect("frame size");
            if !bits_equal(&frame, &served.expected[f % served.expected.len()]) {
                wrong += 1;
                all_ok = false;
            }
        }
        records.push(FrameRecord {
            due: due - start,
            sent: first_sent - start,
            done: done.map(|d| d - start),
            ok: all_ok,
        });
    }
    StepRun {
        name,
        summary: loadgen::summarize(rate, &records, LIMIT_MS),
        records,
        rtt_ms,
        encode_us,
        decode_us,
        windows_sent: total as u64,
        busy: delta("busy"),
        timeouts: delta("timeouts"),
        errors: delta("errors"),
        wrong,
    }
}

/// Runs the given ladder steps (name, frames per second, seconds).
pub fn run_ladder(
    served: &Served,
    steps: &[(&'static str, f64, f64)],
    tr: &mut Tracer,
) -> Vec<StepRun> {
    let mut status = ServeClient::connect(served.handle.local_addr()).expect("connect");
    steps
        .iter()
        .map(|&step| run_step(served, &mut status, step, tr))
        .collect()
}

fn fmt_tail(t: Option<(f64, f64)>) -> String {
    t.map_or("n/a".into(), |(p, v)| format!("{v:.3} (p{p:.1})"))
}

/// Mean NRMSE of the served frames against the true fine frames.
pub fn nrmse_vs_truth(served: &Served) -> f64 {
    let g = served.geo.grid;
    let vals: Vec<f64> = served
        .test
        .iter()
        .zip(&served.expected)
        .map(|(&t, f)| {
            let pred = Tensor::from_vec([g, g], f.clone()).expect("frame");
            let truth = served.ds.fine_frame_raw(t).expect("truth");
            mtsr_metrics::nrmse(&served.ds.denormalize(&pred), &truth).expect("nrmse") as f64
        })
        .collect();
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// In-process `predict_frame` p50 at the daemon's batch and route.
fn in_process_p50_ms(served: &mut Served, frames: usize) -> f64 {
    let sq = served.geo.sq;
    let times: Vec<f64> = (0..frames)
        .map(|i| {
            let x = &served.inputs[i % served.inputs.len()];
            let t0 = Instant::now();
            served.session.predict_frame(x, sq).expect("frame");
            ms_since(t0)
        })
        .collect();
    stats::median(&times)
}

/// The serve, protocol and load-generator layer metrics of a ladder run.
pub fn serve_layers(served: &mut Served, runs: &[StepRun], out: &mut Outcome) {
    let m = &mut out.metrics;
    let low = &runs[0];
    let inproc = in_process_p50_ms(served, 50);
    m.push("serve.overhead_ms", low.summary.p50_ms - inproc, "ms");
    m.push("serve.window_rtt_ms.p50", stats::median(&low.rtt_ms), "ms");
    m.push(
        "serve.window_rtt_ms.tail",
        stats::tail(&low.rtt_ms).map_or(f64::NAN, |t| t.1),
        "ms",
    );
    let sent: u64 = runs.iter().map(|r| r.windows_sent).sum();
    let busy: u64 = runs.iter().map(|r| r.busy).sum();
    m.push("serve.busy_frac", busy as f64 / sent as f64, "frac");
    m.push(
        "serve.timeouts",
        runs.iter().map(|r| r.timeouts).sum::<u64>() as f64,
        "count",
    );
    m.push(
        "serve.errors",
        runs.iter().map(|r| r.errors).sum::<u64>() as f64,
        "count",
    );
    let enc: Vec<f64> = runs.iter().flat_map(|r| r.encode_us.clone()).collect();
    let dec: Vec<f64> = runs.iter().flat_map(|r| r.decode_us.clone()).collect();
    m.push("protocol.encode_us", stats::median(&enc), "us");
    m.push("protocol.decode_us", stats::median(&dec), "us");
    let late = runs
        .iter()
        .filter_map(|r| r.summary.late_tail_ms.map(|t| t.1))
        .fold(0.0, f64::max);
    m.push("loadgen.late_ms.tail", late, "ms");
    let frames: usize = runs.iter().map(|r| r.records.len()).sum();
    let completed = runs
        .iter()
        .flat_map(|r| &r.records)
        .filter(|r| r.ok)
        .count();
    m.push("loadgen.sent", frames as f64, "count");
    m.push("loadgen.completed", completed as f64, "count");
    out.info.push(format!(
        "serve: in-process predict_frame p50 {inproc:.3} ms at batch {BATCH}, folded"
    ));
}

/// Counts frames and failures: every wrong frame fails, and on the
/// steps below capacity so does every frame with a BUSY, TIMEOUT or ERR
/// reply or a dropped window.
fn account(runs: &[StepRun], out: &mut Outcome) {
    for (i, r) in runs.iter().enumerate() {
        let counted = i < BELOW_CAPACITY;
        if counted {
            out.attempted += r.records.len() as u64;
            out.failed += r.summary.failed as u64;
            out.check(r.summary.failed == 0, || {
                format!(
                    "{}: {} of {} frames failed below capacity",
                    r.name,
                    r.summary.failed,
                    r.records.len()
                )
            });
        } else {
            out.attempted += r.wrong as u64;
            out.failed += r.wrong as u64;
        }
        out.check(r.wrong == 0, || {
            format!(
                "{}: {} served frames differ from in-process frames",
                r.name, r.wrong
            )
        });
        let s = &r.summary;
        out.info.push(format!(
            "serve step {:<4} {:>6.1} fps: frames {} failed {} wrong {} | lat p50 {:.3} ms tail {} | late tail {} | busy {} timeouts {} errors {} | backlog {} | meets {LIMIT_MS} ms: {}",
            r.name,
            s.rate_hz,
            s.frames,
            s.failed,
            r.wrong,
            s.p50_ms,
            fmt_tail(s.tail_ms),
            fmt_tail(s.late_tail_ms),
            r.busy,
            r.timeouts,
            r.errors,
            s.backlog_growing,
            s.meets_limit
        ));
    }
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut served, times) = setup_reps(ctx.seed, true, SETUP_REPS);
    let steps: Vec<_> = LADDER
        .iter()
        .map(|&(name, rate, share)| (name, rate, share * ctx.seconds))
        .collect();
    let runs = run_ladder(&served, &steps, tr);
    account(&runs, &mut out);
    let summaries: Vec<StepSummary> = runs.iter().map(|r| r.summary.clone()).collect();
    let max_rate = loadgen::max_rate(&summaries);
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.info.push(format!(
        "serve: batch {BATCH}, workers {WORKERS}, {} windows/frame, limit {LIMIT_MS} ms; max_rate_fps {}; fail_frac {fail_frac}",
        served.geo.origins.len(),
        max_rate.map_or("none".into(), |r| format!("{r}")),
    ));
    let high = runs.last().expect("ladder");
    let ok_windows = high.rtt_ms.len() as f64;
    let high_s = high
        .records
        .iter()
        .filter_map(|r| r.done)
        .max()
        .map_or(f64::NAN, |d| d.as_secs_f64());
    let quality = nrmse_vs_truth(&served);
    out.info.push(format!(
        "serve: nrmse_vs_truth of the served frames {quality:.4}"
    ));
    if ctx.trace {
        out.metrics.push("quality.nrmse", quality, "ratio");
        let build: Vec<f64> = times.iter().map(|t| t.build_s).collect();
        layers::traffic_metrics(&served.ds, &build, &mut out, ctx.seed);
        serve_layers(&mut served, &runs, &mut out);
        let pipe = pipeline();
        let (gen, ds, inputs) = (&mut served.gen, &served.ds, &served.inputs);
        layers::frame_layers(
            gen,
            ds,
            pipe,
            FusePolicy::Folded,
            BATCH,
            inputs,
            20,
            tr,
            &mut out,
        );
        layers::probes(ctx, &mut out, false);
    } else {
        let m = &mut out.metrics;
        let setup: Vec<f64> = times.iter().map(|t| t.total_s).collect();
        m.push("setup_s", stats::median(&setup), "s");
        m.push("peak_rss_mb", peak_rss_mb(), "MB");
        m.push(
            "throughput_per_s",
            ok_windows / served.geo.origins.len() as f64 / high_s,
            "1/s",
        );
        m.push("latency_p50_ms", runs[0].summary.p50_ms, "ms");
    }
    shutdown(served.handle);
    out
}
