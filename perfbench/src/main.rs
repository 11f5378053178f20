//! The repository benchmark. Run it through `perfbench/run.py`, which
//! builds this package and passes the arguments on:
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `tiny-serve`, `tiny-train` (see `perfbench/NOTES.md`).
//! Traced runs add paper-geometry frames and kernel replays as per-layer
//! figures. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; the
//! lines before it give the environment and per-workload detail. Any
//! failed output check makes the exit code 1.

mod common;
mod kernels;
mod layers;
mod loadgen;
mod paper;
mod serve;
mod stats;
mod trace;
mod train;

use common::{Outcome, KERNEL_WORKERS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_dir: PathBuf,
}

const WORKLOADS: [&str; 2] = ["tiny-serve", "tiny-train"];

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("--workload <name> is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed").unwrap_or_else(|| "1".into());
    let seed = seed
        .parse::<u64>()
        .map_err(|e| format!("--seed {seed:?}: {e}"))?;
    let seconds = get("--seconds").unwrap_or_else(|| "10".into());
    let seconds = match seconds.parse::<f64>() {
        Ok(s) if s > 0.0 && s.is_finite() => s,
        _ => return Err(format!("--seconds {seconds:?}: expected a positive number")),
    };
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace {t:?}: expected 0 or 1")),
    };
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        trace_dir: PathBuf::from(get("--trace-dir").unwrap_or_else(|| ".".into())),
    })
}

fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads_env = std::env::var("MTSR_NUM_THREADS").unwrap_or_default();
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "env: isa={} pool={} nproc={nproc} rustc=\"{}\" source={}{}",
        mtsr_tensor::isa::active_isa().name(),
        mtsr_tensor::parallel::num_threads(),
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_SOURCE"),
        if threads_env.is_empty() {
            String::new()
        } else {
            format!(" (MTSR_NUM_THREADS={threads_env} ignored)")
        }
    )
}

fn json_result(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var("MTSR_FORCE_ISA").is_ok_and(|v| !v.trim().is_empty()) {
        eprintln!("perfbench: MTSR_FORCE_ISA is set; refusing to measure a forced ISA tier");
        return ExitCode::from(2);
    }
    mtsr_tensor::parallel::set_num_threads(KERNEL_WORKERS);
    mtsr_telemetry::set_enabled(false);
    println!("{}", environment());
    println!(
        "workload: {} seed={} seconds={} trace={}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
    );

    let mut tr = trace::Tracer::new(ctx.trace, Instant::now());
    let mut out = match ctx.workload.as_str() {
        "tiny-serve" => serve::run(&ctx, &mut tr),
        "tiny-train" => train::run(&ctx, &mut tr),
        _ => unreachable!("validated in parse_args"),
    };
    if ctx.trace {
        let path = ctx
            .trace_dir
            .join(format!("trace-{}-{}.jsonl", ctx.workload, ctx.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("trace: {} spans -> {}", tr.spans().len(), path.display()),
            Err(e) => out
                .failures
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    let bad: Vec<String> = out
        .metrics
        .0
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(n, _, _)| format!("metric {n} is not finite"))
        .collect();
    out.failures.extend(bad);
    for (_, v, _) in &mut out.metrics.0 {
        if !v.is_finite() {
            *v = -1.0;
        }
    }
    for line in &out.info {
        println!("{line}");
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", json_result(&out));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
