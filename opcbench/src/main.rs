//! `opcbench`: the end-to-end benchmark of the compile → pulse → execute
//! stack, with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path opcbench/Cargo.toml -- \
//!     --workload compile_corpus --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path opcbench/Cargo.toml -- --all --seed 1
//! ```
//!
//! Each workload runs in a child process of this binary, so peak memory
//! is per workload, with every `OPC_*` variable removed from its
//! environment except `OPC_CAL_CACHE=off` (every calibration is cold and
//! repeatable). With `--trace 1` a first child measures the production
//! path for half the window and a second child replays the same inputs
//! through each layer with spans recorded; the two must agree on the
//! output checksum. The last line of stdout is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! See README.md for the metric and workload tables.

mod child;
mod closed;
mod inputs;
mod service;
mod stats;
mod trace;

use child::{per_layer_names, Report};
use inputs::{Scale, Sizes, Workload};
use quant_device::ShotPool;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The end-to-end metrics every workload reports, with their units.
/// The tail is p95: a closed loop's latency samples are its 38 or 98
/// cells, too few for a p99 that is not simply the maximum.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("duration_ratio_geomean", "ratio"),
];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    runs: usize,
    /// Hidden: `measure` or `replay` when this process is a child.
    child: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        trace_dir: None,
        runs: 1,
        child: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("bad value `{v}` for {flag}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads
                    .push(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--all" => args.workloads = Workload::ALL.to_vec(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                // `--trace 1` / `--trace 0`, or `--trace DIR` to also keep
                // the spans as JSON lines under DIR.
                let v = value()?;
                match v.as_str() {
                    "0" => args.trace = false,
                    "1" => args.trace = true,
                    dir => {
                        args.trace = true;
                        args.trace_dir = Some(PathBuf::from(dir));
                    }
                }
            }
            "--runs" => args.runs = value()?.parse().map_err(|_| "bad --runs")?,
            "--child" => args.child = Some(value()?.clone()),
            "--help" | "-h" => {
                return Err(
                    "usage: opcbench (--workload NAME | --all) [--seed N] [--seconds S] \
                            [--trace 0|1|DIR] [--runs K]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("name a --workload or pass --all".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one pass of `workload` in a child process with a scrubbed
/// environment and returns its report.
fn spawn_child(
    workload: Workload,
    pass: &str,
    seed: u64,
    seconds: f64,
    trace_dir: Option<&PathBuf>,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--child", pass])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]);
    if let Some(dir) = trace_dir {
        cmd.arg("--trace").arg(dir);
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("OPC_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("OPC_CAL_CACHE", "off");
    if pass == "replay" {
        // The replay verifies as a layer of its own; skip the copy inside
        // lowering so the traced work equals the measured work.
        cmd.env("OPC_VERIFY", "0");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {pass} child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{pass} child for {} failed: {}",
            workload.name(),
            out.status
        ));
    }
    Report::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Entry point of a child process: runs its pass and prints the report.
fn run_child(args: &Args, pass: &str) -> Result<Report, String> {
    let workload = args.workloads[0];
    let sizes = Sizes::of(Scale::Full);
    let pool = ShotPool::new(nproc());
    match pass {
        "measure" => Ok(child::measure(
            workload,
            &sizes,
            args.seed,
            args.seconds,
            &pool,
        )),
        "replay" => {
            let path = args
                .trace_dir
                .as_ref()
                .map(|d| d.join(format!("{}-seed{}.jsonl", workload.name(), args.seed)));
            Ok(child::replay(
                workload,
                &sizes,
                args.seed,
                args.seconds,
                &pool,
                path.as_deref(),
            ))
        }
        other => Err(format!("unknown child pass `{other}`")),
    }
}

/// One run of one workload: the measured child, plus the traced one when
/// `trace` is set. Returns the merged report of metrics to print.
fn run_workload(workload: Workload, args: &Args, seed: u64) -> Result<Report, String> {
    if !args.trace {
        return spawn_child(workload, "measure", seed, args.seconds, None);
    }
    let half = args.seconds / 2.0;
    let measured = spawn_child(workload, "measure", seed, half, None)?;
    let traced = spawn_child(workload, "replay", seed, half, args.trace_dir.as_ref())?;
    let mut merged = traced.clone();
    merged.gates.extend(measured.gates.iter().cloned());
    merged.gates.push((
        "traced_checksum_matches".into(),
        traced.checksum == measured.checksum && traced.attempted == measured.attempted,
        format!("{:016x} vs {:016x}", traced.checksum, measured.checksum),
    ));
    // Open-loop pacing has no closed-loop equivalent to compare with.
    let overhead = if workload == Workload::ServiceOpenLoop {
        0.0
    } else {
        (traced.pass_s / measured.pass_s - 1.0) * 100.0
    };
    // The measured pass alone reports the service, load-generator and
    // fidelity counters.
    for m in measured.metrics {
        if traced.get(&m.0).is_none() {
            merged.metrics.push(m);
        }
    }
    merged
        .metrics
        .push(("trace.overhead_pct".into(), overhead, "%".into()));
    (merged.attempted, merged.failed) = (measured.attempted, measured.failed.max(traced.failed));
    Ok(merged)
}

/// The metrics the run prints, in the declared order (absent ones are 0:
/// a layer the workload never reaches).
fn selected(report: &Report, trace: bool) -> Vec<(String, f64, String)> {
    let names: Vec<(String, &str)> = if trace {
        per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    names
        .into_iter()
        .map(|(name, unit)| {
            let value = report.get(&name).unwrap_or(0.0);
            (name, value, unit.to_string())
        })
        .collect()
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(report: &Report, metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                trace::json_escape(name),
                json_number(*value),
                trace::json_escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct() && report.failed == 0,
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

/// Best-effort commit id of the checkout (absent outside a git tree).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().chars().take(12).collect())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.chars().take(12).collect(),
        None => "unknown".into(),
    }
}

/// First line a tool prints, or "unknown".
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn header(args: &Args) {
    let n = nproc();
    let sizes = Sizes::of(Scale::Full);
    eprintln!(
        "opcbench  commit {}  {}",
        commit(),
        tool_output("rustc", &["--version"])
    );
    eprintln!(
        "  nproc {}  available_parallelism {n}  seed {}  seconds {}  trace {}",
        tool_output("nproc", &[]),
        args.seed,
        args.seconds,
        args.trace
    );
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let rounds: Vec<String> = [Workload::CompileCorpus, Workload::Fig12Density]
        .iter()
        .map(|&w| format!("{} {}", w.name(), inputs::rounds_for(w, seconds)))
        .collect();
    eprintln!("  rounds per pass: {}", rounds.join(", "));
    eprintln!(
        "  sizes: compile device {}q (circuits 2-{}q), density 2-{}q x {} shots, \
         service 2-{}q x {} shots at {}x{:.0}/s",
        sizes.compile_device,
        sizes.compile_max_width,
        sizes.density_max_width,
        sizes.density_shots,
        sizes.service_max_width,
        sizes.service_shots,
        service::LADDER.map(|(m, _)| m.to_string()).join("/"),
        service::CAPACITY_PER_S,
    );
    eprintln!(
        "  calibration pool threads = service workers = {n}; speed-up from more threads: unmeasured here \
         (needs more than {n} cores)"
    );
}

fn print_report(workload: Workload, report: &Report, metrics: &[(String, f64, String)]) {
    eprintln!("== {}", workload.name());
    for (name, value, unit) in metrics {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    for (name, ok, detail) in &report.gates {
        eprintln!(
            "  gate {name:<30} {}  {detail}",
            if *ok { "ok" } else { "FAIL" }
        );
    }
    eprintln!(
        "  checksum {:016x}  attempted {}  failed {}",
        report.checksum, report.attempted, report.failed
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("opcbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(pass) = &args.child {
        return match run_child(&args, pass) {
            Ok(report) => {
                print!("{}", report.to_lines());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("opcbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    header(&args);
    let mut all_ok = true;
    for &workload in &args.workloads {
        let mut per_seed: Vec<Vec<(String, f64, String)>> = Vec::new();
        for k in 0..args.runs.max(1) {
            let seed = args.seed + k as u64;
            match run_workload(workload, &args, seed) {
                Ok(report) => {
                    let metrics = selected(&report, args.trace);
                    print_report(workload, &report, &metrics);
                    all_ok &= report.correct() && report.failed == 0;
                    println!("{}", result_json(&report, &metrics));
                    per_seed.push(metrics);
                }
                Err(e) => {
                    eprintln!("opcbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if per_seed.len() > 1 {
            eprintln!(
                "== {} over {} seeds: median, IQR/median",
                workload.name(),
                per_seed.len()
            );
            for (i, (name, _, unit)) in per_seed[0].iter().enumerate() {
                let values: Vec<f64> = per_seed.iter().map(|m| m[i].1).collect();
                let med = stats::median(&values).unwrap_or(f64::NAN);
                let spread = stats::iqr(&values).unwrap_or(f64::NAN) / med;
                eprintln!("  {name:<28} {med:>14.4} {unit:<6} {spread:>8.4}");
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("opcbench: a correctness gate failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_device::ShotPool;

    /// Every workload at toy size, both passes, every gate on.
    #[test]
    fn smoke_all_workloads_pass_their_gates() {
        let sizes = Sizes::of(Scale::Toy);
        let pool = ShotPool::new(2);
        for workload in Workload::ALL {
            let measured = child::measure(workload, &sizes, 3, 0.4, &pool);
            assert!(
                measured.correct(),
                "{}: {:?}",
                workload.name(),
                measured.gates
            );
            assert_eq!(measured.failed, 0, "{}", workload.name());
            let traced = child::replay(workload, &sizes, 3, 0.4, &pool, None);
            assert!(traced.correct(), "{}: {:?}", workload.name(), traced.gates);
            assert_eq!(traced.checksum, measured.checksum, "{}", workload.name());
            for (name, _) in END_TO_END {
                let v = measured.get(name).unwrap_or(f64::NAN);
                assert!(
                    v.is_finite() && v > 0.0,
                    "{}: {name} = {v}",
                    workload.name()
                );
            }
            let coverage = traced.get("trace.coverage").unwrap_or(0.0);
            assert!(coverage > 0.5, "{}: coverage {coverage}", workload.name());
        }
    }

    #[test]
    fn child_report_round_trips() {
        let report = Report {
            metrics: vec![("lower.ms".into(), 1.25e-3, "ms".into())],
            checksum: 0xdead_beef,
            attempted: 7,
            failed: 1,
            gates: vec![("g".into(), false, "why not".into())],
            pass_s: 2.5,
        };
        assert_eq!(Report::parse(&report.to_lines()), Ok(report));
    }

    #[test]
    fn args_parse_the_run_command_line() {
        let argv: Vec<String> = "--workload fig12_density --seed 4 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(args.workloads, vec![Workload::Fig12Density]);
        assert_eq!((args.seed, args.seconds, args.trace), (4, 10.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
