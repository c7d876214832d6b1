//! `opc` — the OpenPulse-optimizing compiler, as a command-line tool.
//!
//! Reads an OpenQASM 2.0 program (file argument or stdin), routes and
//! compiles it for a simulated Almaden-like device in both the standard
//! and optimized flows (`quant_corpus::compile_circuit`, as `opc compile`
//! does), and reports every stage: the transpiled assembly, the
//! basis-gate program, the pulse schedule (duration, pulse count, ASCII
//! timeline) and optionally a noisy execution
//! (`quant_corpus::execute_compiled`).
//!
//! ```text
//! opc [FLAGS] [program.qasm]
//!   --run             execute with the full noise model (4000 shots)
//!   --shots N         shot count for --run
//!   --seed N          device, calibration and execution seed (default 7)
//!   --standard-only   only the baseline flow
//!   --optimized-only  only the pulse-optimized flow
//! ```
//!
//! Example: `cargo run --release -p repro-bench --bin opc -- --run bell.qasm`
//!
//! The one-command pipeline and the benchmark corpus live behind two
//! subcommands (see `quant-corpus`):
//!
//! ```text
//! opc compile [--mode standard|optimized] [--shots N] [--seed N]
//!             [--noiseless] [--trajectories N] program.qasm
//! opc corpus  [--tier smoke|full] [--shots N] [--seed N]
//!             [--device-seed N] [--out DIR] [--check]
//! opc verify  [--tier smoke|full] [--device-seed N]
//! ```
//!
//! `opc compile` runs QASM → routing → compilation → pulse schedule →
//! simulated execution → counts + Hellinger fidelity in one shot
//! (`quant_corpus::run_qasm`). `opc corpus` runs the generated benchmark
//! corpus under both compilation flows and writes `CORPUS_REPORT.json` +
//! `CORPUS_REPORT.md`; `--check` exits nonzero unless pulse-level
//! compilation beats gate-level on schedule duration for ≥ 3 families.
//! `opc verify` compiles every corpus circuit (full tier by default) in
//! both flows without executing it and runs `pulse::verify` on each
//! schedule; it exits 1 on a compile failure or any finding, 2 on a
//! usage error.
//!
//! Two service subcommands turn the same pipeline into a job engine
//! (see `quant-service`):
//!
//! ```text
//! opc serve  [--addr HOST:PORT] [--workers N] [--queue N]
//! opc submit [--addr HOST:PORT] [--device armonk|almaden] [--qubits N]
//!            [--device-seed N] [--seed N] [--shots N] [--noiseless]
//!            [--standard] program.qasm [more.qasm ...]
//! ```
//!
//! `opc serve` runs a `CompileService` behind a line-oriented TCP
//! protocol (one thread per connection, the service's own worker pool
//! and queue behind it). `opc submit` sends jobs to such a server — or,
//! without `--addr`, runs them through an in-process service, so the
//! request path is testable with no socket at all.

use pulse_compiler::CompileMode;
use quant_circuit::qasm;
use quant_corpus::{compile_circuit, execute_compiled, CorpusOptions, PipelineConfig, Tier};
use quant_device::{calibrate, Calibration, DeviceModel, ShotPool, DT};
use quant_math::{seeded, stream_seed};
use quant_service::{wire, CompileService, DeviceKind, DeviceSpec, JobSpec, ServiceConfig};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

struct Args {
    path: Option<String>,
    run: bool,
    shots: usize,
    seed: u64,
    modes: Vec<CompileMode>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        path: None,
        run: false,
        shots: 4000,
        seed: 7,
        modes: vec![CompileMode::Standard, CompileMode::Optimized],
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--run" => args.run = true,
            "--shots" => {
                args.shots = iter
                    .next()
                    .ok_or("--shots needs a value")?
                    .parse()
                    .map_err(|_| "--shots needs an integer")?;
            }
            "--seed" => {
                args.seed = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
            }
            "--standard-only" => args.modes = vec![CompileMode::Standard],
            "--optimized-only" => args.modes = vec![CompileMode::Optimized],
            "--help" | "-h" => {
                return Err("usage: opc [--run] [--shots N] [--seed N] \
                            [--standard-only|--optimized-only] [program.qasm]"
                    .to_string())
            }
            other if !other.starts_with('-') => args.path = Some(other.to_string()),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// `opc serve`: a `CompileService` behind the wire protocol.
fn cmd_serve(rest: &[String]) -> ! {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = ServiceConfig::default();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let take = |it: &mut std::slice::Iter<'_, String>, what: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => {
                    eprintln!("opc serve: {what} needs a value");
                    std::process::exit(2);
                }
            }
        };
        match arg.as_str() {
            "--addr" => addr = take(&mut iter, "--addr"),
            "--workers" => match take(&mut iter, "--workers").parse() {
                Ok(n) => cfg.workers = n,
                Err(_) => {
                    eprintln!("opc serve: --workers needs an integer");
                    std::process::exit(2);
                }
            },
            "--queue" => match take(&mut iter, "--queue").parse() {
                Ok(n) => cfg.queue_capacity = n,
                Err(_) => {
                    eprintln!("opc serve: --queue needs an integer");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("opc serve: unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    let service = match CompileService::new(cfg) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("opc serve: {e}");
            std::process::exit(1);
        }
    };
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("opc serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "opc serve: listening on {addr} ({} workers, queue {})",
        service.config().workers,
        service.config().queue_capacity
    );
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("opc serve: accept failed: {e}");
                continue;
            }
        };
        let service = Arc::clone(&service);
        let handle = std::thread::Builder::new()
            .name("opc-conn".into())
            .spawn(move || {
                let peer = stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".into());
                let reader_stream = match stream.try_clone() {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("opc serve [{peer}]: clone failed: {e}");
                        return;
                    }
                };
                let mut reader = BufReader::new(reader_stream);
                let mut writer = BufWriter::new(stream);
                if let Err(e) = wire::serve_connection(&mut reader, &mut writer, &service) {
                    eprintln!("opc serve [{peer}]: {e}");
                }
            });
        if let Err(e) = handle {
            eprintln!("opc serve: spawn failed: {e}");
        }
    }
    std::process::exit(0);
}

struct SubmitArgs {
    addr: Option<String>,
    device: DeviceKind,
    qubits: Option<u32>,
    device_seed: u64,
    seed: u64,
    shots: usize,
    noisy: bool,
    mode: CompileMode,
    paths: Vec<String>,
}

fn parse_submit_args(rest: &[String]) -> Result<SubmitArgs, String> {
    let mut args = SubmitArgs {
        addr: None,
        device: DeviceKind::Almaden,
        qubits: None,
        device_seed: 7,
        seed: 7,
        shots: 4000,
        noisy: true,
        mode: CompileMode::Optimized,
        paths: Vec::new(),
    };
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--addr" => args.addr = Some(take("--addr")?),
            "--device" => {
                let v = take("--device")?;
                args.device = DeviceKind::parse(&v)
                    .ok_or_else(|| format!("unknown device `{v}` (armonk|almaden)"))?;
            }
            "--qubits" => {
                args.qubits = Some(
                    take("--qubits")?
                        .parse()
                        .map_err(|_| "--qubits needs an integer".to_string())?,
                )
            }
            "--device-seed" => {
                args.device_seed = take("--device-seed")?
                    .parse()
                    .map_err(|_| "--device-seed needs an integer".to_string())?
            }
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--shots" => {
                args.shots = take("--shots")?
                    .parse()
                    .map_err(|_| "--shots needs an integer".to_string())?
            }
            "--noiseless" => args.noisy = false,
            "--standard" => args.mode = CompileMode::Standard,
            other if !other.starts_with('-') => args.paths.push(other.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.paths.is_empty() {
        return Err("opc submit needs at least one .qasm file".to_string());
    }
    Ok(args)
}

fn print_output(path: &str, out: &quant_service::JobOutput) {
    println!(
        "{path}: ok — key {:016x}, {} pulses, {} dt, fidelity {:.4}",
        out.key, out.pulse_count, out.duration_dt, out.fidelity
    );
    for (idx, &c) in out.counts.iter().enumerate() {
        if c > 0 {
            let bits: String = (0..out.num_qubits)
                .map(|q| if (idx >> q) & 1 == 1 { '1' } else { '0' })
                .collect();
            println!("  |{bits}⟩ (q0 first): {c}");
        }
    }
}

/// `opc submit`: jobs to a remote server, or through an in-process
/// service when no `--addr` is given.
fn cmd_submit(rest: &[String]) -> ! {
    let args = match parse_submit_args(rest) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("opc submit: {msg}");
            std::process::exit(2);
        }
    };
    let mut failed = false;
    let jobs: Vec<(String, JobSpec)> = args
        .paths
        .iter()
        .filter_map(|path| match std::fs::read_to_string(path) {
            Ok(source) => {
                // Width defaults to the parsed register size so small
                // programs do not pay for a 10-qubit tune-up.
                let qubits = args
                    .qubits
                    .or_else(|| qasm::parse(&source).ok().map(|c| c.num_qubits()));
                let device = DeviceSpec::new(args.device, qubits.unwrap_or(1), args.device_seed);
                let spec = JobSpec {
                    device,
                    circuit: quant_service::CircuitSource::Qasm(source),
                    mode: args.mode,
                    shots: args.shots,
                    seed: args.seed,
                    noisy: args.noisy,
                };
                Some((path.clone(), spec))
            }
            Err(e) => {
                eprintln!("opc submit: cannot read {path}: {e}");
                failed = true;
                None
            }
        })
        .collect();

    match &args.addr {
        Some(addr) => {
            let stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("opc submit: cannot connect to {addr}: {e}");
                    std::process::exit(1);
                }
            };
            let reader_stream = match stream.try_clone() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("opc submit: clone failed: {e}");
                    std::process::exit(1);
                }
            };
            let mut reader = BufReader::new(reader_stream);
            let mut writer = BufWriter::new(stream);
            for (path, spec) in &jobs {
                let sent = wire::write_request(&mut writer, spec)
                    .and_then(|()| writer.flush())
                    .and_then(|()| wire::read_response(&mut reader));
                match sent {
                    Ok(wire::WireResponse::Ok(out)) => print_output(path, &out),
                    Ok(wire::WireResponse::Error(kind, msg)) => {
                        eprintln!("{path}: {kind} error — {msg}");
                        failed = true;
                    }
                    Err(e) => {
                        eprintln!("{path}: transport error — {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        None => {
            let service = match CompileService::new(ServiceConfig::default()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("opc submit: {e}");
                    std::process::exit(1);
                }
            };
            let tickets: Vec<_> = jobs
                .iter()
                .map(|(path, spec)| (path, service.submit(spec.clone())))
                .collect();
            for (path, ticket) in tickets {
                match ticket.and_then(|t| t.wait().map(|out| (*out).clone())) {
                    Ok(out) => print_output(path, &out),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        failed = true;
                    }
                }
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// Prints measurement counts as little-endian bit strings.
fn print_counts(counts: &[u64], width: u32) {
    for (idx, &c) in counts.iter().enumerate() {
        if c > 0 {
            let bits: String = (0..width)
                .map(|q| if (idx >> q) & 1 == 1 { '1' } else { '0' })
                .collect();
            println!("  |{bits}⟩ (q0 first): {c}");
        }
    }
}

/// `opc compile`: the one-command QASM → pulses → counts pipeline.
fn die_compile(msg: &str) -> ! {
    eprintln!("opc compile: {msg}");
    std::process::exit(2);
}

fn cmd_compile(rest: &[String]) -> ! {
    let die = die_compile;
    let mut config = PipelineConfig::default();
    let mut path: Option<String> = None;
    let mut device_seed = 7u64;
    let mut trajectories_requested = false;
    let mut verify = true;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| -> String {
            iter.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--mode" => {
                config.mode = match take("--mode").as_str() {
                    "standard" => CompileMode::Standard,
                    "optimized" => CompileMode::Optimized,
                    other => die(&format!("unknown mode `{other}`")),
                }
            }
            "--shots" => {
                config.shots = take("--shots")
                    .parse()
                    .unwrap_or_else(|_| die("--shots needs an integer"))
            }
            "--seed" => {
                config.seed = take("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"));
                device_seed = config.seed;
            }
            "--trajectories" => {
                config.trajectories = take("--trajectories")
                    .parse()
                    .unwrap_or_else(|_| die("--trajectories needs an integer"));
                trajectories_requested = true;
            }
            "--noiseless" => config.noisy = false,
            "--verify" => verify = true,
            "--no-verify" => verify = false,
            "--help" | "-h" => die(
                "usage: opc compile [--mode standard|optimized] [--shots N] \
                 [--seed N] [--noiseless] [--trajectories N] [--no-verify] program.qasm",
            ),
            other if !other.starts_with('-') => path = Some(other.to_string()),
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    let Some(path) = path else {
        die("pass a program.qasm")
    };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("opc compile: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let circuit = match qasm::parse(&source) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("opc compile: parse error: {e}");
            std::process::exit(1);
        }
    };
    let mut rng = seeded(device_seed);
    let device = DeviceModel::almaden_like(circuit.num_qubits() as usize, &mut rng);
    let calibration = calibrate(&device, &mut rng);
    let run = match quant_corpus::run_circuit(
        &device,
        &calibration,
        &circuit,
        &config,
        &ShotPool::from_env(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("opc compile: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "compiled {} ({:?} flow): {} ops on {} qubits, {} swaps inserted, routed depth {}",
        path,
        run.mode,
        circuit.len(),
        circuit.num_qubits(),
        run.swaps_inserted,
        run.routed_depth,
    );
    println!(
        "pulse schedule: {} pulses, {} dt = {:.2} µs",
        run.pulse_count,
        run.duration_dt,
        run.duration_dt as f64 * DT * 1e6
    );
    if verify {
        let findings = quant_pulse::verify(&run.compiled.program.schedule, &device.verify_spec());
        if findings.is_empty() {
            println!(
                "schedule verified clean ({} static rules)",
                quant_pulse::VERIFY_RULES.len()
            );
        } else {
            eprintln!("opc compile: schedule failed verification:");
            for f in &findings {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
    println!("{}", run.compiled.program.schedule.ascii_art(72));
    if trajectories_requested && run.executor == quant_corpus::ExecutorKind::Density {
        eprintln!(
            "opc compile: warning: --trajectories {} ignored — {} qubits fits the exact \
             density-matrix executor, which takes no trajectory count",
            config.trajectories,
            circuit.num_qubits(),
        );
    }
    println!(
        "execution ({} shots, {}, {} backend): Hellinger fidelity {:.4}",
        config.shots,
        if config.noisy { "noisy" } else { "noiseless" },
        run.executor.name(),
        run.fidelity
    );
    print_counts(&run.counts, circuit.num_qubits());
    std::process::exit(0);
}

fn parse_tier(name: &str, die: fn(&str) -> !) -> Tier {
    Tier::parse(name).unwrap_or_else(|| die(&format!("unknown tier `{name}`")))
}

/// `opc corpus`: the comparative benchmark platform.
fn die_corpus(msg: &str) -> ! {
    eprintln!("opc corpus: {msg}");
    std::process::exit(2);
}

fn cmd_corpus(rest: &[String]) -> ! {
    let die = die_corpus;
    let mut options = CorpusOptions::default();
    let mut out_dir = String::from(".");
    let mut check = false;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| -> String {
            iter.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--tier" => options.tier = parse_tier(&take("--tier"), die),
            "--shots" => {
                options.shots = take("--shots")
                    .parse()
                    .unwrap_or_else(|_| die("--shots needs an integer"))
            }
            "--seed" => {
                options.seed = take("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"))
            }
            "--device-seed" => {
                options.device_seed = take("--device-seed")
                    .parse()
                    .unwrap_or_else(|_| die("--device-seed needs an integer"))
            }
            "--out" => out_dir = take("--out"),
            "--check" => check = true,
            "--help" | "-h" => die(
                "usage: opc corpus [--tier smoke|full] [--shots N] [--seed N] \
                 [--device-seed N] [--out DIR] [--check]",
            ),
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    // Create the output directory up front, so a bad path fails before the
    // corpus run rather than after it.
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("opc corpus: create {out_dir}: {e}");
        std::process::exit(1);
    }
    // Wall-clock columns come from an injected clock: the corpus library
    // itself is clock-free per the determinism lint.
    // opclint: allow(nondeterminism): the report's wall-clock columns only; golden summaries exclude them.
    let t0 = std::time::Instant::now();
    options.clock = Some(Arc::new(move || t0.elapsed().as_millis() as u64));
    let report = match quant_corpus::run_corpus(&options, &ShotPool::from_env()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("opc corpus: {e}");
            std::process::exit(1);
        }
    };
    let json_path = format!("{out_dir}/CORPUS_REPORT.json");
    let md_path = format!("{out_dir}/CORPUS_REPORT.md");
    if let Err(e) = std::fs::write(&json_path, report.to_json()) {
        eprintln!("opc corpus: write {json_path}: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&md_path, report.to_markdown()) {
        eprintln!("opc corpus: write {md_path}: {e}");
        std::process::exit(1);
    }
    print!("{}", report.to_markdown());
    println!("\nwrote {json_path} and {md_path}");
    let wins = report.families_where_pulse_wins();
    if check && wins < 3 {
        eprintln!(
            "opc corpus: CHECK FAILED — pulse-level compilation beats gate-level \
             on duration for only {wins}/5 families (need ≥ 3)"
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `opc verify`: static schedule verification over the corpus.
fn die_verify(msg: &str) -> ! {
    eprintln!("opc verify: {msg}");
    std::process::exit(2);
}

fn cmd_verify(rest: &[String]) -> ! {
    let die = die_verify;
    let mut tier = Tier::Full;
    let mut device_seed = 7u64;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| -> String {
            iter.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--tier" => tier = parse_tier(&take("--tier"), die),
            "--device-seed" => {
                device_seed = take("--device-seed")
                    .parse()
                    .unwrap_or_else(|_| die("--device-seed needs an integer"))
            }
            "--help" | "-h" => die("usage: opc verify [--tier smoke|full] [--device-seed N]"),
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    let entries = quant_corpus::generate(tier);
    let mut backends: BTreeMap<u32, (DeviceModel, Calibration)> = BTreeMap::new();
    let mut schedules = 0usize;
    let mut total_findings = 0usize;
    for entry in &entries {
        let (device, calibration) = backends.entry(entry.width).or_insert_with(|| {
            let mut rng = seeded(stream_seed(device_seed, entry.width as u64));
            let device = DeviceModel::almaden_like(entry.width as usize, &mut rng);
            let calibration = calibrate(&device, &mut rng);
            (device, calibration)
        });
        let spec = device.verify_spec();
        for mode in [CompileMode::Standard, CompileMode::Optimized] {
            let cc = match quant_corpus::compile_circuit(device, calibration, &entry.circuit, mode)
            {
                Ok(cc) => cc,
                Err(e) => {
                    eprintln!("opc verify: {} ({mode:?}): compile failed: {e}", entry.name);
                    std::process::exit(1);
                }
            };
            schedules += 1;
            let findings = quant_pulse::verify(&cc.compiled.program.schedule, &spec);
            if !findings.is_empty() {
                total_findings += findings.len();
                println!(
                    "FAIL {} ({mode:?}): {} finding(s)",
                    entry.name,
                    findings.len()
                );
                for f in &findings {
                    println!("  {f}");
                }
            }
        }
    }
    let tier_name = tier.name();
    if total_findings > 0 {
        println!(
            "opc verify: {total_findings} finding(s) across {schedules} schedule(s) \
             ({tier_name} tier)"
        );
        std::process::exit(1);
    }
    println!(
        "opc verify: {schedules} schedule(s) across {} {tier_name}-tier circuit(s) \
         verify clean ({} static rules)",
        entries.len(),
        quant_pulse::VERIFY_RULES.len()
    );
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => cmd_serve(&argv[1..]),
        Some("submit") => cmd_submit(&argv[1..]),
        Some("compile") => cmd_compile(&argv[1..]),
        Some("corpus") => cmd_corpus(&argv[1..]),
        Some("verify") => cmd_verify(&argv[1..]),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let source = match &args.path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("opc: cannot read {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            let mut buf = String::new();
            if std::io::stdin().read_to_string(&mut buf).is_err() || buf.trim().is_empty() {
                eprintln!("opc: no input (pass a .qasm file or pipe a program on stdin)");
                std::process::exit(1);
            }
            buf
        }
    };

    let circuit = match qasm::parse(&source) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("opc: parse error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "parsed {} operations on {} qubits",
        circuit.len(),
        circuit.num_qubits()
    );

    let mut rng = seeded(args.seed);
    let device = DeviceModel::almaden_like(circuit.num_qubits() as usize, &mut rng);
    let calibration = calibrate(&device, &mut rng);

    let pool = ShotPool::from_env();
    for &mode in &args.modes {
        let cc = match compile_circuit(&device, &calibration, &circuit, mode) {
            Ok(cc) => cc,
            Err(e) => {
                eprintln!("opc: {mode:?} compile error: {e}");
                std::process::exit(1);
            }
        };
        let compiled = &cc.compiled;
        println!("\n================ {mode:?} ================");
        if cc.routed.swaps_inserted > 0 {
            // Counts below are indexed by physical qubit.
            println!(
                "-- routed: {} swaps inserted, final layout (logical → physical) {:?} --",
                cc.routed.swaps_inserted, cc.routed.final_layout
            );
        }
        println!(
            "-- assembly (after passes) --\n{}",
            qasm::print(&compiled.assembly)
        );
        println!(
            "-- pulse schedule: {} pulses, {} dt = {:.2} µs --",
            compiled.pulse_count(),
            compiled.duration(),
            compiled.duration() as f64 * DT * 1e6
        );
        println!("{}", compiled.program.schedule.ascii_art(72));
        if args.run {
            let config = PipelineConfig {
                mode,
                shots: args.shots,
                seed: args.seed,
                ..PipelineConfig::default()
            };
            let counts = match execute_compiled(&device, &cc, &config, &pool) {
                Ok((_, counts)) => counts,
                Err(e) => {
                    eprintln!("opc: {mode:?} execution error: {e}");
                    std::process::exit(1);
                }
            };
            println!("-- execution ({} shots, noisy) --", args.shots);
            for (idx, &c) in counts.iter().enumerate() {
                if c > 0 {
                    let bits: String = (0..circuit.num_qubits())
                        .map(|q| if (idx >> q) & 1 == 1 { '1' } else { '0' })
                        .collect();
                    println!("  |{bits}⟩ (q0 first): {c}");
                }
            }
        }
    }
}
