//! End-to-end tests for the serving daemon, each over a real TCP socket
//! on an OS-assigned port (bind to port 0).
//!
//! Covers the ISSUE acceptance criteria directly: served predictions
//! bit-identical to the local planned session, `BUSY` under burst
//! (explicit shedding, no silent drops), per-request deadline timeouts,
//! and graceful drain answering every admitted request before exit.

use std::sync::Arc;
use std::time::Duration;

use mtsr_serve::{
    InferOutcome, InferRequest, ModelSpec, RemotePredictor, ServeClient, ServeConfig, Server,
};
use mtsr_tensor::Rng;
use mtsr_traffic::{
    CityConfig, Dataset, DatasetConfig, MilanGenerator, MtsrInstance, ProbeLayout, Split,
};
use zipnet_core::{plan_zipnet, FusePolicy, MtsrPipeline, ZipNet, ZipNetConfig};

/// A small generator whose plan serves `[batch, 1, S, 3, 3]` windows.
fn tiny_generator(s: usize) -> ZipNet {
    ZipNet::new(&ZipNetConfig::tiny(4, s), &mut Rng::seed_from(11)).unwrap()
}

fn serve_tiny(cfg: &ServeConfig, s: usize, batch: usize) -> mtsr_serve::ServerHandle {
    let mut gen = tiny_generator(s);
    let exec = plan_zipnet(&mut gen, FusePolicy::Exact, batch, 3, 3).unwrap();
    Server::start_single(cfg, exec).unwrap()
}

fn window_request(s: usize, deadline_ms: u32, seed: u64) -> InferRequest {
    let mut rng = Rng::seed_from(seed);
    InferRequest {
        model: 0,
        deadline_ms,
        s: s as u32,
        h: 3,
        w: 3,
        data: (0..s * 9).map(|_| rng.next_f32()).collect(),
    }
}

fn tiny_dataset(seed: u64) -> Dataset {
    let mut rng = Rng::seed_from(seed);
    let gen = MilanGenerator::new(&CityConfig::tiny(), &mut rng).unwrap();
    let movie = gen
        .generate(DatasetConfig::tiny().total(), &mut rng)
        .unwrap();
    let layout = ProbeLayout::for_instance(gen.city(), MtsrInstance::Up4).unwrap();
    Dataset::build(&movie, layout, DatasetConfig::tiny()).unwrap()
}

/// The headline guarantee: a frame reconstructed over the wire is
/// bit-identical to the local planned session, with multiple batcher
/// threads racing over the shared plan.
#[test]
fn served_frame_is_bit_identical_to_local_session() {
    let ds = tiny_dataset(3);
    let mut gen = ZipNet::new(&ZipNetConfig::tiny(4, ds.s()), &mut Rng::seed_from(7)).unwrap();
    let pipe = MtsrPipeline::new(12, 4);
    let mut session = pipe.session(&mut gen, &ds, FusePolicy::Exact, 3).unwrap();

    let cfg = ServeConfig {
        workers: 3,
        queue_cap: 8,
        ..ServeConfig::default()
    };
    let exec = plan_zipnet(&mut gen, FusePolicy::Exact, 3, 3, 3).unwrap();
    let handle = Server::start_single(&cfg, exec).unwrap();

    let t = ds.usable_indices(Split::Test)[0];
    let sample = ds.sample_at(t).unwrap();
    let sq = sample.input.dims()[2];
    let coarse = sample.input.as_slice();
    let local = session.predict_frame(coarse, sq).unwrap();

    let client = ServeClient::connect(handle.local_addr()).unwrap();
    let mut remote = RemotePredictor::new(
        client,
        session.origins().to_vec(),
        session.window(),
        sq * session.probe(),
        session.probe(),
    )
    .unwrap();
    // Two frames back to back: buffers and the shared plan are reused.
    for _ in 0..2 {
        let served = remote.predict_frame(coarse, sq).unwrap();
        assert_eq!(served.dims(), local.dims());
        for (i, (a, b)) in served.as_slice().iter().zip(local.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "cell {i}: served {a} != local {b}"
            );
        }
    }

    let mut client = remote.into_client();
    client.shutdown().unwrap();
    handle.join();
}

/// A coarse frame whose side differs from the geometry the predictor
/// was built for is rejected as invalid input, never cropped or sliced
/// out of range.
#[test]
fn remote_predict_frame_rejects_unplanned_frame_side() {
    let ds = tiny_dataset(5);
    let mut gen = ZipNet::new(&ZipNetConfig::tiny(4, ds.s()), &mut Rng::seed_from(9)).unwrap();
    let session = MtsrPipeline::new(12, 4)
        .session(&mut gen, &ds, FusePolicy::Exact, 1)
        .unwrap();
    let exec = plan_zipnet(&mut gen, FusePolicy::Exact, 1, 3, 3).unwrap();
    let handle = Server::start_single(&ServeConfig::default(), exec).unwrap();
    let client = ServeClient::connect(handle.local_addr()).unwrap();
    let grid = ds.layout().grid;
    let mut remote = RemotePredictor::new(
        client,
        session.origins().to_vec(),
        session.window(),
        grid,
        session.probe(),
    )
    .unwrap();
    let s = ds.s();
    for sq in [6, 4] {
        let err = remote
            .predict_frame(&vec![0.5; s * sq * sq], sq)
            .expect_err("unplanned frame side must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "sq={sq}");
    }
    let sq = grid / session.probe();
    assert!(remote.predict_frame(&vec![0.5; s * sq * sq], sq).is_ok());

    let mut client = remote.into_client();
    client.shutdown().unwrap();
    handle.join();
}

/// A burst beyond queue capacity is shed with immediate `BUSY` replies
/// while every admitted request is still served — nothing is dropped
/// silently and nothing buffers without bound.
#[test]
fn burst_beyond_queue_capacity_answers_busy() {
    let s = 2;
    // One worker, batch 2, a long linger and a single queue slot: the
    // worker pops request 1 and lingers, request 2 fills the queue, and
    // requests 3 and 4 must be shed at admission.
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        linger: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg, s, 2);
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    client.send_infer(1, &window_request(s, 0, 1)).unwrap();
    // Let the batcher pop request 1 and enter its linger window.
    std::thread::sleep(Duration::from_millis(150));
    for id in 2..=4u64 {
        client.send_infer(id, &window_request(s, 0, id)).unwrap();
    }

    let mut ok = Vec::new();
    let mut busy = Vec::new();
    for _ in 0..4 {
        let (id, outcome) = client.recv().unwrap();
        match outcome {
            InferOutcome::Ok(resp) => {
                assert_eq!((resp.h, resp.w), (12, 12));
                ok.push(id);
            }
            InferOutcome::Busy => busy.push(id),
            other => panic!("request {id}: unexpected {other:?}"),
        }
    }
    ok.sort_unstable();
    busy.sort_unstable();
    assert_eq!(ok, vec![1, 2], "admitted requests are always served");
    assert_eq!(busy, vec![3, 4], "overflow is shed with BUSY");

    let status = client.status().unwrap();
    assert!(
        status.contains("busy: 2"),
        "status reports shed load:\n{status}"
    );
    client.shutdown().unwrap();
    handle.join();
}

/// A request whose deadline expires while queued is answered `TIMEOUT`
/// and never occupies an executor lane.
#[test]
fn queued_request_past_deadline_gets_timeout() {
    let s = 2;
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 8,
        linger: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg, s, 2);
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    client.send_infer(1, &window_request(s, 0, 1)).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // Expires ~1ms after admission, long before the linger window ends.
    client.send_infer(2, &window_request(s, 1, 2)).unwrap();

    let mut outcomes = std::collections::HashMap::new();
    for _ in 0..2 {
        let (id, outcome) = client.recv().unwrap();
        outcomes.insert(id, outcome);
    }
    assert!(matches!(outcomes.get(&1), Some(InferOutcome::Ok(_))));
    assert!(matches!(outcomes.get(&2), Some(InferOutcome::Timeout)));
    client.shutdown().unwrap();
    handle.join();
}

/// Shutdown during load: every admitted request is answered before the
/// daemon exits, later submissions see `DRAINING`, and `join` returns.
#[test]
fn graceful_drain_answers_all_admitted_requests() {
    let s = 2;
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 8,
        linger: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg, s, 2);
    let mut submitter = ServeClient::connect(handle.local_addr()).unwrap();
    let mut controller = ServeClient::connect(handle.local_addr()).unwrap();

    submitter.send_infer(1, &window_request(s, 0, 1)).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // Queued behind the lingering batch; must still be answered.
    submitter.send_infer(2, &window_request(s, 0, 2)).unwrap();
    submitter.send_infer(3, &window_request(s, 0, 3)).unwrap();

    controller.shutdown().unwrap();
    assert!(handle.draining());
    // Admission is closed from the moment the drain begins.
    submitter.send_infer(4, &window_request(s, 0, 4)).unwrap();

    let mut ok = Vec::new();
    let mut draining = Vec::new();
    for _ in 0..4 {
        let (id, outcome) = submitter.recv().unwrap();
        match outcome {
            InferOutcome::Ok(_) => ok.push(id),
            InferOutcome::Draining => draining.push(id),
            other => panic!("request {id}: unexpected {other:?}"),
        }
    }
    ok.sort_unstable();
    assert_eq!(ok, vec![1, 2, 3], "admitted work drains to completion");
    assert_eq!(draining, vec![4], "post-drain submissions are refused");

    handle.join();
}

/// Multi-model tenancy: one daemon serves two differently-shaped
/// tenants over the shared batcher pool, routes by the model id in each
/// INFER header, reports per-model geometry via INFO and per-model
/// counters via STATUS, and rejects unknown model ids with ERR.
#[test]
fn two_tenants_route_by_model_id() {
    let specs = [2usize, 3]
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let mut gen = tiny_generator(s);
            let exec = plan_zipnet(&mut gen, FusePolicy::Exact, 2, 3, 3).unwrap();
            ModelSpec {
                name: format!("tenant{i}"),
                source: String::new(),
                plan: Arc::clone(exec.plan()),
            }
        })
        .collect::<Vec<_>>();
    let cfg = ServeConfig {
        workers: 2,
        queue_cap: 8,
        linger: Duration::ZERO,
        ..ServeConfig::default()
    };
    let handle = Server::start(&cfg, specs, None).unwrap();
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    // Per-model INFO reports each tenant's own geometry.
    for (model, s) in [(0u32, 2u32), (1, 3)] {
        let info = client.info_for(model).unwrap();
        assert_eq!((info.model, info.model_count), (model, 2));
        assert_eq!((info.s, info.h, info.w), (s, 3, 3));
        assert_eq!(info.generation, 0);
        assert_eq!(info.fuse_name(), "exact");
    }

    // Requests route by the id in their header: an s=3 window is valid
    // for model 1 and a geometry error for model 0.
    let mut req = window_request(3, 0, 21);
    req.model = 1;
    match client.infer(&req).unwrap() {
        InferOutcome::Ok(resp) => {
            assert_eq!((resp.model, resp.generation), (1, 0));
            assert_eq!(resp.data.len(), 144);
        }
        other => panic!("unexpected {other:?}"),
    }
    req.model = 0;
    match client.infer(&req).unwrap() {
        InferOutcome::Err(msg) => assert!(msg.contains("does not match"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    match client.infer(&window_request(2, 0, 22)).unwrap() {
        InferOutcome::Ok(resp) => assert_eq!((resp.model, resp.generation), (0, 0)),
        other => panic!("unexpected {other:?}"),
    }
    // Unknown tenant: ERR, connection stays usable.
    req.model = 9;
    match client.infer(&req).unwrap() {
        InferOutcome::Err(msg) => assert!(msg.contains("unknown model id 9"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
    assert!(client.info_for(9).is_err());

    let mut status = String::new();
    for _ in 0..100 {
        status = client.status().unwrap();
        if status.contains("in_flight: 0") && status.contains("served: 2") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for needle in [
        "models: 2",
        "model[0]: name=tenant0 fuse=exact generation=0 served=1 errors=1",
        "model[1]: name=tenant1 fuse=exact generation=0 served=1 errors=0",
    ] {
        assert!(status.contains(needle), "missing `{needle}` in:\n{status}");
    }

    client.shutdown().unwrap();
    handle.join();
}

/// A quantized plan serves over the wire like any other policy, INFO
/// reports `quantized`, and repeated requests for the same window are
/// bit-identical (integer accumulation is deterministic).
#[test]
fn quantized_plan_serves_and_reports_policy() {
    let mut gen = tiny_generator(2);
    let exec = plan_zipnet(&mut gen, FusePolicy::Quantized, 2, 3, 3).unwrap();
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = Server::start_single(&cfg, exec).unwrap();
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();
    let info = client.info().unwrap();
    assert_eq!(info.fuse_name(), "quantized");

    let req = window_request(2, 0, 33);
    let first = match client.infer(&req).unwrap() {
        InferOutcome::Ok(resp) => {
            assert_eq!(resp.data.len(), 144);
            resp.data
        }
        other => panic!("unexpected {other:?}"),
    };
    match client.infer(&req).unwrap() {
        InferOutcome::Ok(resp) => assert_eq!(resp.data, first, "quantized replay must be stable"),
        other => panic!("unexpected {other:?}"),
    }

    client.shutdown().unwrap();
    handle.join();
}

/// STATUS exposes queue depth, in-flight count and latency percentiles;
/// mismatched geometry is rejected with an ERR reply, not a dropped
/// connection.
#[test]
fn status_and_validation_replies() {
    let s = 2;
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 4,
        linger: Duration::ZERO,
        ..ServeConfig::default()
    };
    let handle = serve_tiny(&cfg, s, 2);
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    let info = client.info().unwrap();
    assert_eq!((info.s, info.h, info.w), (2, 3, 3));
    assert_eq!((info.out_h, info.out_w), (12, 12));
    assert_eq!(info.queue_cap, 4);

    match client.infer(&window_request(s, 0, 5)).unwrap() {
        InferOutcome::Ok(resp) => assert_eq!(resp.data.len(), 144),
        other => panic!("unexpected {other:?}"),
    }
    // Wrong temporal length: rejected before admission.
    match client.infer(&window_request(s + 1, 0, 6)).unwrap() {
        InferOutcome::Err(msg) => assert!(msg.contains("does not match"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }

    // The OK reply precedes the finished-counter increment by one send,
    // so poll briefly for the settled report.
    let mut status = String::new();
    for _ in 0..100 {
        status = client.status().unwrap();
        if status.contains("in_flight: 0") && status.contains("served: 1") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for needle in [
        "queue_depth: 0",
        "in_flight: 0",
        "served: 1",
        "errors: 1",
        "latency_count: 1",
        "latency_p50_ns:",
        "latency_p99_ns:",
    ] {
        assert!(status.contains(needle), "missing `{needle}` in:\n{status}");
    }

    client.shutdown().unwrap();
    handle.join();
}
