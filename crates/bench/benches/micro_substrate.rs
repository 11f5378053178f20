//! Micro-benchmarks of the numerical substrate: GEMM, 2D/3D convolution
//! forward/backward, a full ZipNet forward pass and a forward+backward
//! step. These are throughput benches (no paper counterpart) used to
//! track the cost of the hot kernels.
//!
//! Two outputs:
//!
//! 1. the human-readable telemetry table (as before — timing goes through
//!    the `mtsr-telemetry` span registry, the same instrumentation the
//!    training loop uses);
//! 2. machine-readable `BENCH_GEMM.json` / `BENCH_CONV.json` written to
//!    the repository root, recording per-shape **median** latency and
//!    GFLOP/s so the perf trajectory is tracked across PRs.
//!
//! Budget per case is `MTSR_BENCH_MS` milliseconds (default 2000); medians
//! over per-iteration samples make the numbers robust to the noisy shared
//! runners this repo builds on.

use mtsr_tensor::conv::{
    conv2d_backward_weights, conv2d_forward, conv3d_forward, conv_transpose3d_forward, Conv2dSpec,
    Conv3dSpec,
};
use mtsr_tensor::matmul::{matmul, sgemm_serial};
use mtsr_tensor::{Rng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Heap-allocation counter wrapping the system allocator, for the
/// optimizer zero-allocation regression assertion below. Counting is a
/// single relaxed atomic increment — negligible next to the kernels being
/// timed.
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

/// Runs `f` repeatedly for ~`budget` (min 10 iterations), recording each
/// iteration under an owned telemetry span *and* returning the median
/// per-iteration nanoseconds, after a few warm-up calls outside the
/// registry.
fn bench(name: &str, budget: Duration, mut f: impl FnMut()) -> u64 {
    for _ in 0..3 {
        f();
    }
    let start = Instant::now();
    let mut samples: Vec<u64> = Vec::new();
    while start.elapsed() < budget || samples.len() < 10 {
        let _span = mtsr_telemetry::span_owned(format!("bench.{name}"));
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn report() {
    let snap = mtsr_telemetry::snapshot();
    println!(
        "{:<40} {:>8} {:>12} {:>12}",
        "bench", "iters", "mean", "min"
    );
    for (name, s) in &snap.spans {
        // Kernel spans (tensor.*, layer.*) are recorded too; the table
        // keeps only the top-level benched closures.
        if !name.starts_with("bench.") {
            continue;
        }
        let mean_us = s.total_ns as f64 / s.count.max(1) as f64 / 1e3;
        println!(
            "{:<40} {:>8} {:>9.1} us {:>9.1} us",
            name.trim_start_matches("bench."),
            s.count,
            mean_us,
            s.min_ns as f64 / 1e3,
        );
    }
}

/// One row of a `BENCH_*.json` file.
struct Entry {
    name: String,
    shape: String,
    median_ns: u64,
    gflops: f64,
}

impl Entry {
    fn json(&self) -> String {
        format!(
            r#"    {{"name": "{}", "shape": "{}", "median_ns": {}, "gflops": {:.3}}}"#,
            self.name, self.shape, self.median_ns, self.gflops
        )
    }
}

/// Writes `{ "schema": …, "entries": [...] }` by hand — the workspace has
/// no JSON dependency and these files are flat enough not to need one.
fn write_json(file: &str, schema: &str, entries: &[Entry]) {
    // crates/bench → repo root.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, r#"  "schema": "{schema}","#);
    let _ = writeln!(s, r#"  "entries": ["#);
    let rows: Vec<String> = entries.iter().map(Entry::json).collect();
    let _ = writeln!(s, "{}", rows.join(",\n"));
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    let path = root.join(file);
    match std::fs::write(&path, &s) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// GEMM sweep of the packed kernel on the shapes that matter — square
/// sanity points plus the im2col lowering of a `Conv2dSpec::same(3)`,
/// 16-channel layer on the paper's 80×80 Milan grid: m = co = 16,
/// k = ci·kh·kw = 144, n = oh·ow = 6400.
fn bench_gemm_json(budget: Duration) -> Vec<Entry> {
    let shapes: &[(usize, usize, usize, &str)] = &[
        (16, 144, 6400, "conv3x3_16ch_80x80_lowering"),
        (64, 64, 64, "square_64"),
        (128, 128, 128, "square_128"),
        (256, 256, 256, "square_256"),
    ];
    let mut rng = Rng::seed_from(9);
    let mut entries = Vec::new();
    for &(m, k, n, tag) in shapes {
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut c = vec![0.0f32; m * n];
        let flops = 2.0 * (m * k * n) as f64;
        let packed_ns = bench(&format!("sgemm_packed.{tag}"), budget, || {
            sgemm_serial(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                &mut c,
                m,
                k,
                n,
                false,
            );
        });
        entries.push(Entry {
            name: format!("packed.{tag}"),
            shape: format!("{m}x{k}x{n}"),
            median_ns: packed_ns,
            gflops: flops / packed_ns as f64,
        });
        println!("gemm {tag}: packed {:.2} GFLOP/s", flops / packed_ns as f64);
    }
    entries
}

fn bench_matmul(budget: Duration) {
    let mut rng = Rng::seed_from(1);
    for &n in &[64usize, 128, 256] {
        let a = Tensor::rand_normal([n, n], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([n, n], 0.0, 1.0, &mut rng);
        bench(&format!("matmul.{n}x{n}x{n}"), budget, || {
            matmul(std::hint::black_box(&a), std::hint::black_box(&b)).unwrap();
        });
    }
}

/// 2D conv flops: 2 · batch · co · ci · kh · kw · oh · ow.
fn conv2d_flops(b: usize, co: usize, ci: usize, kh: usize, kw: usize, oh: usize, ow: usize) -> f64 {
    2.0 * (b * co * ci * kh * kw * oh * ow) as f64
}

fn bench_conv_json(budget: Duration) -> Vec<Entry> {
    let mut rng = Rng::seed_from(2);
    let mut entries = Vec::new();

    // The acceptance-relevant geometry: 16-channel 3×3 on the 80×80 grid.
    let x80 = Tensor::rand_normal([1, 16, 80, 80], 0.0, 1.0, &mut rng);
    let w80 = Tensor::rand_normal([16, 16, 3, 3], 0.0, 0.2, &mut rng);
    let spec = Conv2dSpec::same(3);
    let fl80 = conv2d_flops(1, 16, 16, 3, 3, 80, 80);
    let ns = bench("conv2d_16ch_80x80_b1.forward", budget, || {
        conv2d_forward(std::hint::black_box(&x80), &w80, &spec, None).unwrap();
    });
    entries.push(Entry {
        name: "conv2d_forward.16ch_3x3_80x80_b1".into(),
        shape: "x[1,16,80,80] w[16,16,3,3] same".into(),
        median_ns: ns,
        gflops: fl80 / ns as f64,
    });
    let g80 = conv2d_forward(&x80, &w80, &spec, None).unwrap();
    let ns = bench("conv2d_16ch_80x80_b1.backward_weights", budget, || {
        conv2d_backward_weights(&x80, std::hint::black_box(&g80), &spec, (3, 3)).unwrap();
    });
    entries.push(Entry {
        name: "conv2d_backward_weights.16ch_3x3_80x80_b1".into(),
        shape: "x[1,16,80,80] g[1,16,80,80] same".into(),
        median_ns: ns,
        gflops: fl80 / ns as f64,
    });

    // The batched 40×40 case the table has always tracked.
    let x = Tensor::rand_normal([4, 16, 40, 40], 0.0, 1.0, &mut rng);
    let w = Tensor::rand_normal([16, 16, 3, 3], 0.0, 0.2, &mut rng);
    let fl40 = conv2d_flops(4, 16, 16, 3, 3, 40, 40);
    let ns = bench("conv2d_16ch_40x40_b4.forward", budget, || {
        conv2d_forward(std::hint::black_box(&x), &w, &spec, None).unwrap();
    });
    entries.push(Entry {
        name: "conv2d_forward.16ch_3x3_40x40_b4".into(),
        shape: "x[4,16,40,40] w[16,16,3,3] same".into(),
        median_ns: ns,
        gflops: fl40 / ns as f64,
    });
    let gout = conv2d_forward(&x, &w, &spec, None).unwrap();
    let ns = bench("conv2d_16ch_40x40_b4.backward_weights", budget, || {
        conv2d_backward_weights(&x, std::hint::black_box(&gout), &spec, (3, 3)).unwrap();
    });
    entries.push(Entry {
        name: "conv2d_backward_weights.16ch_3x3_40x40_b4".into(),
        shape: "x[4,16,40,40] g[4,16,40,40] same".into(),
        median_ns: ns,
        gflops: fl40 / ns as f64,
    });

    // 3D conv + the ZipNet upscaling deconvolution.
    let x3 = Tensor::rand_normal([2, 8, 3, 20, 20], 0.0, 1.0, &mut rng);
    let w3 = Tensor::rand_normal([8, 8, 3, 3, 3], 0.0, 0.2, &mut rng);
    let spec3 = Conv3dSpec::same(3, 3);
    let fl3 = 2.0 * (2 * 8 * 8 * 3 * 3 * 3 * 3 * 20 * 20) as f64;
    let ns = bench("conv3d_8ch_3x20x20_b2.forward", budget, || {
        conv3d_forward(std::hint::black_box(&x3), &w3, &spec3, None).unwrap();
    });
    entries.push(Entry {
        name: "conv3d_forward.8ch_3x3x3_3x20x20_b2".into(),
        shape: "x[2,8,3,20,20] w[8,8,3,3,3] same".into(),
        median_ns: ns,
        gflops: fl3 / ns as f64,
    });
    let wd = Tensor::rand_normal([8, 8, 3, 2, 2], 0.0, 0.2, &mut rng);
    let dspec = Conv3dSpec {
        stride: (1, 2, 2),
        pad: (1, 0, 0),
    };
    let fld = 2.0 * (2 * 8 * 8 * 3 * 2 * 2 * 3 * 40 * 40) as f64;
    let ns = bench("conv3d_8ch_3x20x20_b2.deconv_2x_forward", budget, || {
        conv_transpose3d_forward(std::hint::black_box(&x3), &wd, &dspec, None).unwrap();
    });
    entries.push(Entry {
        name: "conv_transpose3d_forward.8ch_2x_3x20x20_b2".into(),
        shape: "x[2,8,3,20,20] w[8,8,3,2,2] s(1,2,2)".into(),
        median_ns: ns,
        gflops: fld / ns as f64,
    });
    entries
}

fn bench_zipnet(budget: Duration) {
    use mtsr_nn::layer::Layer;
    use zipnet_core::{ZipNet, ZipNetConfig};
    let mut rng = Rng::seed_from(4);
    let cfg = ZipNetConfig::tiny(4, 3);
    let mut net = ZipNet::new(&cfg, &mut rng).unwrap();
    let x = Tensor::rand_normal([2, 1, 3, 10, 10], 0.0, 1.0, &mut rng);
    bench("zipnet_tiny_up4_10to40_b2.forward", budget, || {
        net.forward(std::hint::black_box(&x), false).unwrap();
    });
    let y = net.forward(&x, true).unwrap();
    let g = Tensor::rand_normal(y.dims().to_vec(), 0.0, 1.0, &mut rng);
    bench("zipnet_tiny_up4_10to40_b2.forward_backward", budget, || {
        net.forward(std::hint::black_box(&x), true).unwrap();
        net.backward(&g).unwrap();
    });
}

/// Optimizer micro-bench plus the allocation regression guard: a steady-
/// state Adam or SGD-momentum step over every ZipNet-tiny parameter must
/// make **zero** heap allocations. (The update used to clone the whole
/// optimizer per `step` and the grad/m/v tensors per parameter — that
/// regression now fails this bench instead of silently slowing training.)
fn bench_optimizer(budget: Duration) {
    use mtsr_nn::layer::Layer;
    use mtsr_nn::{Adam, Optimizer, Sgd};
    use zipnet_core::{ZipNet, ZipNetConfig};
    let mut rng = Rng::seed_from(5);
    let mut net = ZipNet::new(&ZipNetConfig::tiny(4, 3), &mut rng).unwrap();
    let fill_grads = |net: &mut ZipNet| {
        net.visit_params(&mut |p| p.grad.as_mut_slice().fill(0.01));
    };
    let mut adam = Adam::new(1e-3);
    let mut sgd = Sgd::with_momentum(1e-3, 0.9);
    // Warm up once, then assert the steady state is allocation-free.
    fill_grads(&mut net);
    adam.step(&mut net);
    fill_grads(&mut net);
    sgd.step(&mut net);
    let before = ALLOC_COUNT.load(Ordering::Relaxed);
    for _ in 0..10 {
        fill_grads(&mut net);
        adam.step(&mut net);
        fill_grads(&mut net);
        sgd.step(&mut net);
    }
    let allocs = ALLOC_COUNT.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "optimizer steps made {allocs} heap allocations; \
         Adam::update / Sgd::update must stay in-place"
    );
    println!("optimizer steady-state allocations over 20 steps: {allocs} (asserted 0)");
    bench("adam_step.zipnet_tiny", budget, || {
        fill_grads(&mut net);
        adam.step(&mut net);
    });
}

fn main() {
    // Single-core CI budget: short measurement windows. Override the
    // per-case budget (milliseconds) with MTSR_BENCH_MS.
    let ms = std::env::var("MTSR_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000u64);
    let budget = Duration::from_millis(ms);
    mtsr_telemetry::set_enabled(true);
    mtsr_telemetry::reset();
    let gemm = bench_gemm_json(budget);
    bench_matmul(budget);
    let conv = bench_conv_json(budget);
    bench_zipnet(budget);
    bench_optimizer(budget);
    report();
    write_json("BENCH_GEMM.json", "mtsr-bench-gemm/v1", &gemm);
    write_json("BENCH_CONV.json", "mtsr-bench-conv/v1", &conv);
}
