//! Fast-inference-path benchmark: full-grid sliding-window prediction
//! through the planned, fused, batched executor versus the layer-by-layer
//! reference path.
//!
//! Four measurements of the same §4 workload (tiny Milan instance,
//! 20×20 grid, window 12, stride 4 → 9 overlapping windows per frame):
//!
//! 1. `layerwise` — [`MtsrPipeline::predict_full`], one `Layer::forward`
//!    per window with per-layer output allocations and separate BN /
//!    activation sweeps;
//! 2. `fused_exact` — the planned executor with the BN constants riding
//!    the GEMM epilogue (bit-identical outputs);
//! 3. `fused_folded` — BN folded into the weights at plan time (the
//!    production default);
//! 4. `quantized` — folded, then conv weights quantized to per-channel
//!    int8 with integer-accumulating GEMMs (`FusePolicy::Quantized`).
//!
//! The headline is full-grid **snapshots/sec** (from the per-route
//! minimum — see [`bench`] for why minima, not medians, drive the
//! comparisons), written to `BENCH_INFER.json` at the repository root.
//! The process exits non-zero if the fused-folded minimum is slower than
//! the layer-by-layer minimum, so CI catches fast-path regressions. A counting global allocator
//! additionally asserts that steady-state executor runs perform **zero**
//! heap allocations (single worker: the worker pool's task dispatch
//! boxes closures, the serial path must not).

use mtsr_nn::layer::Layer;
use mtsr_tensor::parallel::set_num_threads;
use mtsr_tensor::{Rng, Tensor};
use mtsr_traffic::{
    CityConfig, Dataset, DatasetConfig, MilanGenerator, MtsrInstance, ProbeLayout, Split,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use zipnet_core::{plan_zipnet, FusePolicy, MtsrPipeline, ZipNet, ZipNetConfig};

/// Heap-allocation counter wrapping the system allocator, for the
/// zero-allocation steady-state assertion below.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(minimum, median)` per-iteration nanoseconds of `f` over ~`budget`
/// (min 10 iters), with warm-up outside the measurement. Route
/// comparisons and the regression gate use the **minimum**: it needs only
/// one interference-free iteration, so it is robust to bursty background
/// load that can shift a median by tens of percent on a busy host.
fn bench(budget: Duration, mut f: impl FnMut()) -> (u64, u64) {
    for _ in 0..3 {
        f();
    }
    let start = Instant::now();
    let mut samples: Vec<u64> = Vec::new();
    while start.elapsed() < budget || samples.len() < 10 {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    (samples[0], samples[samples.len() / 2])
}

struct Entry {
    name: String,
    min_ns: u64,
    median_ns: u64,
    snapshots_per_sec: f64,
}

fn write_json(entries: &[Entry], speedup_layerwise: f64, speedup_quantized: f64) {
    // crates/bench → repo root.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, r#"  "schema": "mtsr-bench-infer/v1","#);
    let _ = writeln!(
        s,
        r#"  "workload": "tiny Milan up4, 20x20 grid, window 12, stride 4, 9 windows/frame","#
    );
    let _ = writeln!(
        s,
        r#"  "speedup_folded_vs_layerwise": {speedup_layerwise:.3},"#
    );
    let _ = writeln!(
        s,
        r#"  "speedup_quantized_vs_folded": {speedup_quantized:.3},"#
    );
    let _ = writeln!(s, r#"  "entries": ["#);
    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                r#"    {{"name": "{}", "min_ns": {}, "median_ns": {}, "snapshots_per_sec": {:.3}}}"#,
                e.name, e.min_ns, e.median_ns, e.snapshots_per_sec
            )
        })
        .collect();
    let _ = writeln!(s, "{}", rows.join(",\n"));
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    let path = root.join("BENCH_INFER.json");
    match std::fs::write(&path, &s) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn build_workload() -> (Dataset, ZipNet, usize) {
    let mut rng = Rng::seed_from(90);
    let city = MilanGenerator::new(&CityConfig::tiny(), &mut rng).unwrap();
    let movie = city
        .generate(DatasetConfig::tiny().total(), &mut rng)
        .unwrap();
    let layout = ProbeLayout::for_instance(city.city(), MtsrInstance::Up4).unwrap();
    let ds = Dataset::build(&movie, layout, DatasetConfig::tiny()).unwrap();
    let cfg = ZipNetConfig::tiny(ds.layout().grid / ds.layout().square, ds.s());
    let mut net = ZipNet::new(&cfg, &mut rng).unwrap();
    // Warm the BN running statistics so folding is non-trivial; trained
    // weights would not change the arithmetic being timed.
    for _ in 0..2 {
        let x = Tensor::rand_normal([2, 1, ds.s(), 5, 5], 0.2, 1.0, &mut rng);
        net.forward(&x, true).unwrap();
    }
    let t = ds.usable_indices(Split::Test)[0];
    (ds, net, t)
}

/// Steady-state executor runs must not touch the heap. Pinned to one
/// worker: multi-worker dispatch boxes tasks by design, the serial
/// compute path must not allocate at all.
fn assert_zero_alloc(net: &mut ZipNet, ds: &Dataset) {
    set_num_threads(1);
    let s = ds.s();
    let mut exec = plan_zipnet(net, FusePolicy::Folded, 4, 3, 3).unwrap();
    let x = vec![0.5f32; 4 * s * 3 * 3];
    let mut out = vec![0.0f32; exec.output_dims().iter().product()];
    // Warm-up run populates the im2col scratch arenas.
    exec.run_into(&x, &mut out).unwrap();
    let before = ALLOC_COUNT.load(Ordering::Relaxed);
    for _ in 0..10 {
        exec.run_into(&x, &mut out).unwrap();
    }
    let allocs = ALLOC_COUNT.load(Ordering::Relaxed) - before;
    set_num_threads(0);
    assert_eq!(
        allocs, 0,
        "steady-state InferExec::run_into made {allocs} heap allocations"
    );
    println!("executor steady-state allocations over 10 runs: {allocs} (asserted 0)");
}

fn report_phase_spans() {
    let snap = mtsr_telemetry::snapshot();
    println!("{:<24} {:>10} {:>12}", "phase", "count", "mean");
    for (name, s) in &snap.spans {
        if !name.starts_with("infer.") {
            continue;
        }
        println!(
            "{:<24} {:>10} {:>9.1} us",
            name,
            s.count,
            s.total_ns as f64 / s.count.max(1) as f64 / 1e3
        );
    }
}

fn main() {
    let ms = std::env::var("MTSR_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000u64);
    let budget = Duration::from_millis(ms);
    let (ds, mut net, t) = build_workload();
    let pipe = MtsrPipeline::new(12, 4);
    // The batching knob: windows per executor invocation. 9 windows per
    // frame → batch 9 is one invocation with no idle lanes.
    let batch = std::env::var("MTSR_INFER_BATCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9usize);

    assert_zero_alloc(&mut net, &ds);

    mtsr_telemetry::set_enabled(true);
    mtsr_telemetry::reset();

    let layer = bench(budget, || {
        pipe.predict_full(&mut net, &ds, t).unwrap();
    });
    let mut exact = pipe
        .session(&mut net, &ds, FusePolicy::Exact, batch)
        .unwrap();
    let exact_t = bench(budget, || {
        exact.predict_full(&ds, t).unwrap();
    });
    let mut folded = pipe
        .session(&mut net, &ds, FusePolicy::Folded, batch)
        .unwrap();
    mtsr_telemetry::reset();
    let folded_t = bench(budget, || {
        folded.predict_full(&ds, t).unwrap();
    });
    let mut quantized = pipe
        .session(&mut net, &ds, FusePolicy::Quantized, batch)
        .unwrap();
    let quantized_t = bench(budget, || {
        quantized.predict_full(&ds, t).unwrap();
    });

    let entries: Vec<Entry> = [
        ("layerwise.full_grid", layer),
        ("fused_exact.full_grid", exact_t),
        ("fused_folded.full_grid", folded_t),
        ("quantized.full_grid", quantized_t),
    ]
    .into_iter()
    .map(|(name, (min_ns, median_ns))| Entry {
        name: name.into(),
        min_ns,
        median_ns,
        snapshots_per_sec: 1e9 / min_ns as f64,
    })
    .collect();
    let speedup_layerwise = layer.0 as f64 / folded_t.0 as f64;
    let speedup_quantized = folded_t.0 as f64 / quantized_t.0 as f64;
    for e in &entries {
        println!(
            "{:<28} min {:>9.2} ms  median {:>9.2} ms  {:>8.1} snapshots/sec",
            e.name,
            e.min_ns as f64 / 1e6,
            e.median_ns as f64 / 1e6,
            e.snapshots_per_sec
        );
    }
    println!("fused-folded speedup over current layer-by-layer: {speedup_layerwise:.2}x");
    println!("quantized speedup over fused-folded: {speedup_quantized:.2}x");
    report_phase_spans();
    write_json(&entries, speedup_layerwise, speedup_quantized);

    if folded_t.0 > layer.0 {
        eprintln!(
            "REGRESSION: fused full-grid minimum ({} ns) slower than \
             layer-by-layer ({} ns)",
            folded_t.0, layer.0
        );
        std::process::exit(1);
    }
    if quantized_t.0 > folded_t.0 {
        eprintln!(
            "REGRESSION: quantized full-grid minimum ({} ns) slower than \
             fused-folded ({} ns)",
            quantized_t.0, folded_t.0
        );
        std::process::exit(1);
    }
}
