//! The flowc benchmark.
//!
//! ```text
//! flowcbench --workload <sweep|budgeted|verify|serve> --seed <n>
//!            --seconds <s> --trace <0|1> [--out-dir <dir>] [--rate <jobs/s>]
//! flowcbench compare --bounds BENCHMARK.json <before.jsonl> <after.jsonl>
//! ```
//!
//! A run sets its workload up several times (reporting the fastest
//! set-up wall), measures for `--seconds`, checks every output against the
//! reference, and prints as its last stdout line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it is the run's record (seed, machine, commit, notes). A traced
//! run also writes its spans as JSON lines under `--out-dir`. The process
//! exits 1 when any correctness check failed.
//!
//! `compare` applies the run-to-run rule to two sets of result lines of
//! one workload: each end-to-end metric's median may not get worse by
//! more than its bound.

mod budgeted;
mod calib;
mod check;
mod label;
mod outcome;
mod serve;
mod stats;
mod sweep;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::{exit, Command};

use flowc_report::Json;

use crate::outcome::{Outcome, END_TO_END, PER_LAYER};
use crate::stats::Better;
use crate::trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sweep", "budgeted", "verify", "serve"];

/// The longest measurement a run accepts.
pub const MAX_SECONDS: f64 = 600.0;

/// Command-line options of a run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Where spans, run records and scratch files go.
    pub out_dir: PathBuf,
    /// `serve` only: the offered rate in jobs/s, for locating the knee
    /// (default [`serve::RATE`]).
    pub rate: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: flowcbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--rate <jobs/s>]\n\
         \x20      flowcbench compare --bounds BENCHMARK.json <before.jsonl> <after.jsonl>",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let default_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
        .join("flowcbench");
    let mut out_dir = default_dir;
    let mut rate = serve::RATE;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= MAX_SECONDS) {
                    return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--rate" => {
                rate = value()?.parse().map_err(|e| format!("--rate: {e}"))?;
                if !(rate > 0.0 && rate <= serve::MAX_RATE) {
                    return Err(format!("--rate must be in (0, {}]", serve::MAX_RATE));
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out_dir,
        rate,
    })
}

/// Output of a short command, trimmed, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn record(args: &Args, out: &Outcome) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (threads, connections) = if args.workload == "serve" {
        (serve::LOAD_THREADS, serve::CONNECTIONS)
    } else {
        (1, 0)
    };
    let mut fields = vec![
        ("workload".into(), Json::str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::int(nproc)),
        ("load_threads".into(), Json::int(threads)),
        ("connections".into(), Json::int(connections)),
        ("label_threads".into(), Json::int(1)),
        (
            "commit".into(),
            Json::str(command_line("git", &["rev-parse", "--short=12", "HEAD"])),
        ),
        (
            "rustc".into(),
            Json::str(command_line("rustc", &["--version"])),
        ),
        (
            "failures".into(),
            Json::Arr(out.failures.iter().cloned().map(Json::str).collect()),
        ),
    ];
    fields.extend(out.info.iter().cloned());
    Json::Obj(fields)
}

/// Formats the final result line.
fn result_line(out: &Outcome, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = if trace {
                out.layers.get(*name).copied()
            } else {
                out.end_to_end.get(name).copied()
            }
            .unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> i32 {
    let mut tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "sweep" => sweep::run(args, &mut tracer, &mut out),
        "budgeted" => budgeted::run(args, &mut tracer, &mut out),
        "verify" => verify::run(args, &mut tracer, &mut out),
        "serve" => serve::run(args, &mut tracer, &mut out),
        _ => unreachable!("validated in parse_args"),
    }
    out.end_to_end.insert("peak_rss_mb", outcome::peak_rss_mb());
    if args.trace {
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => out.note("spans", Json::str(path.display().to_string())),
            Err(e) => eprintln!("flowcbench: writing spans to {}: {e}", path.display()),
        }
    }
    for (name, unit) in END_TO_END.iter().filter(|_| !args.trace) {
        eprintln!(
            "{:<20} {:>14.4} {unit}",
            name,
            out.end_to_end.get(name).copied().unwrap_or(0.0)
        );
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", record(args, &out).to_compact());
    println!("{}", result_line(&out, args.trace));
    i32::from(!out.correct())
}

/// `compare --bounds BENCHMARK.json before after`: the run-to-run rule.
fn compare(raw: &[String]) -> Result<bool, String> {
    let [flag, bounds, before, after] = raw else {
        usage();
    };
    if flag != "--bounds" {
        usage();
    }
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let spec = Json::parse(&read(bounds)?).map_err(|e| format!("{bounds}: {e}"))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("bounds file has no `end_to_end` list")?;
    let values = |text: &str, name: &str| -> Vec<f64> {
        text.lines()
            .filter_map(|l| Json::parse(l).ok())
            .filter_map(|j| j.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect()
    };
    let (before, after) = (read(before)?, read(after)?);
    let mut ok = true;
    for m in metrics {
        let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
        let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        let better = match m.get("better").and_then(Json::as_str) {
            Some("higher") => Better::Higher,
            _ => Better::Lower,
        };
        let (b, a) = (values(&before, name), values(&after, name));
        let pass = stats::within_bound(&b, &a, better, bound);
        ok &= pass;
        println!(
            "{name:<20} before {:>12.4} (spread {:>6.3})  after {:>12.4} (spread {:>6.3})  bound {bound:.2}  {}",
            stats::median(&b).unwrap_or(f64::NAN),
            stats::quartile_spread(&b).unwrap_or(f64::NAN),
            stats::median(&a).unwrap_or(f64::NAN),
            stats::quartile_spread(&a).unwrap_or(f64::NAN),
            if pass { "ok" } else { "WORSE" }
        );
    }
    Ok(ok)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        match compare(&raw[1..]) {
            Ok(ok) => exit(i32::from(!ok)),
            Err(e) => {
                eprintln!("flowcbench compare: {e}");
                exit(2);
            }
        }
    }
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("flowcbench: {e}");
        usage();
    });
    exit(run(&args));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_run_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "verify",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, "verify");
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert_eq!(a.rate, serve::RATE);
        let rated = |r: &str| {
            parse_args(&strings(&[
                "--workload",
                "serve",
                "--seed",
                "1",
                "--seconds",
                "5",
                "--trace",
                "0",
                "--rate",
                r,
            ]))
        };
        assert_eq!(rated("30").unwrap().rate, 30.0);
        assert!(rated("0").is_err());
        assert!(rated("1000").is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "sweep",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.end_to_end.insert("setup_s", 0.5);
        let line = result_line(&out, false);
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = json.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        }
        let traced = Json::parse(&result_line(&out, true)).unwrap();
        assert!(traced
            .get("metrics")
            .unwrap()
            .get("label.solve_ms")
            .is_some());
    }
}
