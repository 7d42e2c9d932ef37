//! The repository benchmark. One command runs one workload against the
//! real fronts over loopback TCP, checks every answer, and prints the
//! end-to-end metrics (or, with `--trace 1`, the per-layer metrics of a
//! separate traced run) as the last line of standard output:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload seq_search --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads and the reasons for each are in `perfbench/README.md`. A
//! provenance line (host, kernel backend, source revision, seed, index
//! geometry) precedes the result, and the full detail of the run — every
//! rate step, sample counts, checks — is written to
//! `$CARGO_TARGET_DIR/perfbench/` (default `.bench_build/perfbench/`),
//! along with the spans of a traced run.

mod corpus;
mod hot_membership;
mod ladder;
mod live_ingest;
mod openloop;
mod report;
mod schedule;
mod seq_search;
mod stats;
mod trace;
mod wire;

use report::{json_str, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

/// Source revision: the git commit when run from the root of a git
/// checkout, otherwise a digest of the Rust sources the benchmark was
/// built from (git is not asked outside a checkout, where it would search
/// the parent directories).
fn source_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return source_digest();
    }
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
    {
        if out.status.success() {
            return format!("git:{}", String::from_utf8_lossy(&out.stdout).trim());
        }
    }
    source_digest()
}

/// FNV-1a over the paths and contents of the Rust sources.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "src", "perfbench/src"] {
        collect_rs(&PathBuf::from(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("src-fnv:{h:016x}")
}

fn collect_rs(dir: &PathBuf, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench")
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <seq_search|hot_membership|live_ingest> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(opts.trace);
    let run = match opts.workload.as_str() {
        "seq_search" => seq_search::run,
        "hot_membership" => hot_membership::run,
        "live_ingest" => live_ingest::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&opts, &tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let attempted = report.attempted.max(1);
    report.set("error_rate", report.failed as f64 / attempted as f64);

    let provenance = format!(
        "{{\"nproc\": {}, \"kernel_backend\": {}, \"revision\": {}, \"seed\": {}, \"workload\": {}, \"seconds\": {}, \"trace\": {}, \"geometry\": {}}}",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        json_str(rambo_core::kernel::Kernel::auto().backend().name()),
        json_str(&source_revision()),
        opts.seed,
        json_str(&opts.workload),
        opts.seconds,
        u8::from(opts.trace),
        report
            .details
            .get("geometry")
            .cloned()
            .unwrap_or_else(|| "null".into()),
    );
    report.detail("provenance", provenance.clone());
    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    let line = report.result_line(catalogue);

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.json")), report.detail_json())?;
        if opts.trace {
            std::fs::write(dir.join(format!("{stem}-spans.json")), tracer.to_json())?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write run detail to {}: {e}",
            dir.display()
        );
    }
    for failure in &report.checks.first {
        eprintln!("perfbench: answer check failed: {failure}");
    }
    println!("{{\"provenance\": {provenance}}}");
    println!("{line}");
    ExitCode::SUCCESS
}
