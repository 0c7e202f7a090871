//! Wall-clock benchmark of the DLRM reproduction: training and serving end
//! to end, and every layer timed from outside through its crate's public
//! functions. See `README.md` next to this crate for the workloads, the
//! metrics and how to run it.
//!
//! Usage:
//! `dlrm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--git-rev <rev>] [--out-dir <dir>]`
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics and writes a Chrome trace of
//! the benchmark's own spans to `--out-dir`. The last line of standard
//! output is one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`.

mod e2e;
mod layers;
mod output;
mod stats;
mod trace;

use e2e::Workload;
use output::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    git_rev: String,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut git_rev = "unknown".to_string();
    let mut out_dir = PathBuf::from("perfbench/results");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--git-rev" => git_rev = value,
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        git_rev,
        out_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dlrm-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host available_parallelism={parallelism} profile={} rustc=\"{}\" git_rev={} \
         workload={} seed={} seconds={} trace={}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env!("PERFBENCH_RUSTC_VERSION"),
        args.git_rev,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut report = Report::new();
    let seeds = e2e::Seeds::derive(args.seed);
    let mut tracer = trace::Tracer::new(args.workload.id(), args.trace);
    let e2e = e2e::run(
        args.workload,
        &seeds,
        budget,
        args.trace,
        &mut tracer,
        &mut report,
    );
    if args.trace {
        // The probe rounds get what is left of the budget after the
        // end-to-end calls the traced run needs.
        layers::run(
            args.workload,
            &seeds,
            &e2e,
            budget.saturating_sub(started.elapsed()),
            &args.out_dir.join(format!(
                "trace-{}-seed{}.json",
                args.workload.name(),
                args.seed
            )),
            tracer,
            &mut report,
        );
    } else {
        e2e.publish(&mut report);
        // Codec round trips on the workload's own payloads: correctness
        // only, untimed, so failures count in every run.
        layers::check_codecs(args.workload, &seeds, &e2e, &mut report);
    }
    println!(
        "run wall {:.3} s, checks attempted {} failed {} (failed_share {:.6})",
        started.elapsed().as_secs_f64(),
        report.attempted(),
        report.failed(),
        report.failed_share()
    );
    let (extra, extra_failed) = report.extra_probes();
    if extra > 0 {
        println!("codec probes on further rounds (not counted): {extra_failed} of {extra} failed");
    }
    println!("{}", report.to_json());
}
