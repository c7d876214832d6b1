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
//!             [--noiseless] [--trajectories N] [--no-verify] program.qasm
//! opc corpus  [--tier smoke|full] [--shots N] [--seed N]
//!             [--device-seed N] [--out DIR] [--check]
//! opc verify  [--tier smoke|full] [--device-seed N]
//! ```
//!
//! `opc compile` runs QASM → routing → compilation → pulse schedule →
//! simulated execution → counts + Hellinger fidelity in one shot
//! (`qasm::parse`, then `quant_corpus::run_circuit`). `opc corpus` runs
//! the generated benchmark corpus under both compilation flows and writes
//! `CORPUS_REPORT.json` + `CORPUS_REPORT.md`; `--check` exits nonzero
//! unless pulse-level
//! compilation beats gate-level on schedule duration for ≥ 3 families.
//! `opc verify` compiles every corpus circuit (full tier by default) in
//! both flows without executing it; each compile runs `pulse::verify` on
//! its schedule. It exits 1 on a compile failure or any finding, 2 on a
//! usage error. `opc compile` is verified the same way; its
//! `--no-verify` only omits the line that confirms it.
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

use pulse_compiler::{CompileMode, LowerError};
use quant_circuit::qasm;
use quant_corpus::{
    compile_circuit, execute_compiled, CorpusOptions, PipelineConfig, PipelineError, Tier,
};
use quant_device::{calibrate, Calibration, DeviceModel, ShotPool, DT};
use quant_math::{seeded, stream_seed};
use quant_service::{wire, CompileService, DeviceKind, DeviceSpec, JobSpec, ServiceConfig};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

/// Reads one command's arguments in order. Every malformed argument is a
/// usage error: `prefix` (the command's `opc <sub>: `, empty for bare
/// `opc`) and the message go to stderr, and the process exits 2.
struct Flags<'a> {
    prefix: &'static str,
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn new(prefix: &'static str, args: &'a [String]) -> Self {
        Flags {
            prefix,
            args: args.iter(),
        }
    }

    /// The next argument, flag or not.
    fn next(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    /// The value that follows `flag`.
    fn value(&mut self, flag: &str) -> &'a str {
        self.next()
            .unwrap_or_else(|| self.usage(&format!("{flag} needs a value")))
    }

    /// The integer that follows `flag`.
    fn int<T: FromStr>(&mut self, flag: &str) -> T {
        self.value(flag)
            .parse()
            .unwrap_or_else(|_| self.usage(&format!("{flag} needs an integer")))
    }

    /// The corpus tier that follows `flag`.
    fn tier(&mut self, flag: &str) -> Tier {
        let name = self.value(flag);
        Tier::parse(name).unwrap_or_else(|| self.usage(&format!("unknown tier `{name}`")))
    }

    fn usage(&self, msg: &str) -> ! {
        eprintln!("{}{msg}", self.prefix);
        std::process::exit(2);
    }
}

/// Reports a run that could not finish (exit 1; usage errors exit 2).
fn fail(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
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

/// The service's defaults, with `workers` (which also sizes each shard's
/// tune-up pool) from `OPC_THREADS` like every other pool in `opc`.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: ShotPool::from_env().threads(),
        ..ServiceConfig::default()
    }
}

/// `opc serve`: a `CompileService` behind the wire protocol.
fn cmd_serve(rest: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:7878";
    let mut cfg = service_config();
    let mut flags = Flags::new("opc serve: ", rest);
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => addr = flags.value("--addr"),
            "--workers" => cfg.workers = flags.int("--workers"),
            "--queue" => cfg.queue_capacity = flags.int("--queue"),
            other => flags.usage(&format!("unknown flag `{other}`")),
        }
    }
    let service =
        Arc::new(CompileService::new(cfg).unwrap_or_else(|e| fail(format!("opc serve: {e}"))));
    let listener = TcpListener::bind(addr)
        .unwrap_or_else(|e| fail(format!("opc serve: cannot bind {addr}: {e}")));
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
    ExitCode::SUCCESS
}

fn print_output(path: &str, out: &quant_service::JobOutput) {
    println!(
        "{path}: ok — key {:016x}, {} pulses, {} dt, fidelity {:.4}",
        out.key, out.pulse_count, out.duration_dt, out.fidelity
    );
    print_counts(&out.counts, out.num_qubits);
}

/// `opc submit`: jobs to a remote server, or through an in-process
/// service when no `--addr` is given.
fn cmd_submit(rest: &[String]) -> ExitCode {
    let mut addr = None;
    let mut device_kind = DeviceKind::Almaden;
    let mut qubits: Option<u32> = None;
    let mut device_seed = 7;
    let mut seed = 7;
    let mut shots = 4000;
    let mut noisy = true;
    let mut mode = CompileMode::Optimized;
    let mut paths = Vec::new();
    let mut flags = Flags::new("opc submit: ", rest);
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => addr = Some(flags.value("--addr")),
            "--device" => {
                let v = flags.value("--device");
                device_kind = DeviceKind::parse(v).unwrap_or_else(|| {
                    flags.usage(&format!("unknown device `{v}` (armonk|almaden)"))
                });
            }
            "--qubits" => qubits = Some(flags.int("--qubits")),
            "--device-seed" => device_seed = flags.int("--device-seed"),
            "--seed" => seed = flags.int("--seed"),
            "--shots" => shots = flags.int("--shots"),
            "--noiseless" => noisy = false,
            "--standard" => mode = CompileMode::Standard,
            other if !other.starts_with('-') => paths.push(other),
            other => flags.usage(&format!("unknown flag `{other}`")),
        }
    }
    if paths.is_empty() {
        flags.usage("pass at least one program.qasm");
    }
    let mut failed = false;
    let jobs: Vec<(&str, JobSpec)> = paths
        .iter()
        .filter_map(|&path| match std::fs::read_to_string(path) {
            Ok(source) => {
                // Width defaults to the parsed register size so small
                // programs do not pay for a 10-qubit tune-up.
                let width = qubits.or_else(|| qasm::parse(&source).ok().map(|c| c.num_qubits()));
                let spec = JobSpec {
                    device: DeviceSpec::new(device_kind, width.unwrap_or(1), device_seed),
                    circuit: quant_service::CircuitSource::Qasm(source),
                    mode,
                    shots,
                    seed,
                    noisy,
                };
                Some((path, spec))
            }
            Err(e) => {
                eprintln!("opc submit: cannot read {path}: {e}");
                failed = true;
                None
            }
        })
        .collect();

    match addr {
        Some(addr) => {
            let stream = TcpStream::connect(addr)
                .unwrap_or_else(|e| fail(format!("opc submit: cannot connect to {addr}: {e}")));
            let reader_stream = stream
                .try_clone()
                .unwrap_or_else(|e| fail(format!("opc submit: clone failed: {e}")));
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
                    Err(e) => fail(format!("{path}: transport error — {e}")),
                }
            }
        }
        None => {
            let service = CompileService::new(service_config())
                .unwrap_or_else(|e| fail(format!("opc submit: {e}")));
            let tickets: Vec<_> = jobs
                .iter()
                .map(|(path, spec)| (path, service.submit(spec.clone())))
                .collect();
            for (path, ticket) in tickets {
                match ticket.and_then(|t| t.wait()) {
                    Ok(out) => print_output(path, &out),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        failed = true;
                    }
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `opc compile`: the one-command QASM → pulses → counts pipeline.
fn cmd_compile(rest: &[String]) -> ExitCode {
    let mut config = PipelineConfig::default();
    let mut path = None;
    let mut device_seed = 7u64;
    let mut trajectories_requested = false;
    let mut verify = true;
    let mut flags = Flags::new("opc compile: ", rest);
    while let Some(arg) = flags.next() {
        match arg {
            "--mode" => {
                config.mode = match flags.value("--mode") {
                    "standard" => CompileMode::Standard,
                    "optimized" => CompileMode::Optimized,
                    other => flags.usage(&format!("unknown mode `{other}`")),
                }
            }
            "--shots" => config.shots = flags.int("--shots"),
            "--seed" => {
                config.seed = flags.int("--seed");
                device_seed = config.seed;
            }
            "--trajectories" => {
                config.trajectories = flags.int("--trajectories");
                trajectories_requested = true;
            }
            "--noiseless" => config.noisy = false,
            "--verify" => verify = true,
            "--no-verify" => verify = false,
            "--help" | "-h" => flags.usage(
                "usage: opc compile [--mode standard|optimized] [--shots N] \
                 [--seed N] [--noiseless] [--trajectories N] [--no-verify] program.qasm",
            ),
            other if !other.starts_with('-') => path = Some(other),
            other => flags.usage(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    let Some(path) = path else {
        flags.usage("pass a program.qasm")
    };
    let source = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("opc compile: cannot read {path}: {e}")));
    let circuit =
        qasm::parse(&source).unwrap_or_else(|e| fail(format!("opc compile: parse error: {e}")));
    let mut rng = seeded(device_seed);
    let device = DeviceModel::almaden_like(circuit.num_qubits() as usize, &mut rng);
    let calibration = calibrate(&device, &mut rng);
    let run = quant_corpus::run_circuit(
        &device,
        &calibration,
        &circuit,
        &config,
        &ShotPool::from_env(),
    )
    .unwrap_or_else(|e| fail(format!("opc compile: {e}")));
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
    // The compile verified the schedule; `--no-verify` only omits this line.
    if verify {
        println!(
            "schedule verified clean ({} static rules)",
            quant_pulse::VERIFY_RULES.len()
        );
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
    ExitCode::SUCCESS
}

/// `opc corpus`: the comparative benchmark platform.
fn cmd_corpus(rest: &[String]) -> ExitCode {
    let mut options = CorpusOptions::default();
    let mut out_dir = ".";
    let mut check = false;
    let mut flags = Flags::new("opc corpus: ", rest);
    while let Some(arg) = flags.next() {
        match arg {
            "--tier" => options.tier = flags.tier("--tier"),
            "--shots" => options.shots = flags.int("--shots"),
            "--seed" => options.seed = flags.int("--seed"),
            "--device-seed" => options.device_seed = flags.int("--device-seed"),
            "--out" => out_dir = flags.value("--out"),
            "--check" => check = true,
            "--help" | "-h" => flags.usage(
                "usage: opc corpus [--tier smoke|full] [--shots N] [--seed N] \
                 [--device-seed N] [--out DIR] [--check]",
            ),
            other => flags.usage(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    // Create the output directory up front, so a bad path fails before the
    // corpus run rather than after it.
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        fail(format!("opc corpus: create {out_dir}: {e}"));
    }
    // Wall-clock columns come from an injected clock: the corpus library
    // itself is clock-free per the determinism lint.
    // opclint: allow(nondeterminism): the report's wall-clock columns only; golden summaries exclude them.
    let t0 = std::time::Instant::now();
    options.clock = Some(Arc::new(move || t0.elapsed().as_millis() as u64));
    let report = quant_corpus::run_corpus(&options, &ShotPool::from_env())
        .unwrap_or_else(|e| fail(format!("opc corpus: {e}")));
    let json_path = format!("{out_dir}/CORPUS_REPORT.json");
    let md_path = format!("{out_dir}/CORPUS_REPORT.md");
    for (path, text) in [
        (&json_path, report.to_json()),
        (&md_path, report.to_markdown()),
    ] {
        if let Err(e) = std::fs::write(path, text) {
            fail(format!("opc corpus: write {path}: {e}"));
        }
    }
    print!("{}", report.to_markdown());
    println!("\nwrote {json_path} and {md_path}");
    let wins = report.families_where_pulse_wins();
    if check && wins < 3 {
        eprintln!(
            "opc corpus: CHECK FAILED — pulse-level compilation beats gate-level \
             on duration for only {wins}/5 families (need ≥ 3)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `opc verify`: static schedule verification over the corpus.
fn cmd_verify(rest: &[String]) -> ExitCode {
    let mut tier = Tier::Full;
    let mut device_seed = 7u64;
    let mut flags = Flags::new("opc verify: ", rest);
    while let Some(arg) = flags.next() {
        match arg {
            "--tier" => tier = flags.tier("--tier"),
            "--device-seed" => device_seed = flags.int("--device-seed"),
            "--help" | "-h" => {
                flags.usage("usage: opc verify [--tier smoke|full] [--device-seed N]")
            }
            other => flags.usage(&format!("unknown flag `{other}` (try --help)")),
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
        for mode in [CompileMode::Standard, CompileMode::Optimized] {
            // `Compiler::compile` verifies each schedule; its findings come
            // back as the compile's error.
            let findings = match compile_circuit(device, calibration, &entry.circuit, mode) {
                Ok(_) => Vec::new(),
                Err(PipelineError::Lower(LowerError::InvalidSchedule(findings))) => findings,
                Err(e) => fail(format!(
                    "opc verify: {} ({mode:?}): compile failed: {e}",
                    entry.name
                )),
            };
            schedules += 1;
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
        return ExitCode::FAILURE;
    }
    println!(
        "opc verify: {schedules} schedule(s) across {} {tier_name}-tier circuit(s) \
         verify clean ({} static rules)",
        entries.len(),
        quant_pulse::VERIFY_RULES.len()
    );
    ExitCode::SUCCESS
}

/// Bare `opc`: every stage of both flows, optionally executed.
fn cmd_stages(argv: &[String]) -> ExitCode {
    let mut path = None;
    let mut run = false;
    let mut shots = 4000;
    let mut seed = 7;
    let mut modes = vec![CompileMode::Standard, CompileMode::Optimized];
    let mut flags = Flags::new("", argv);
    while let Some(arg) = flags.next() {
        match arg {
            "--run" => run = true,
            "--shots" => shots = flags.int("--shots"),
            "--seed" => seed = flags.int("--seed"),
            "--standard-only" => modes = vec![CompileMode::Standard],
            "--optimized-only" => modes = vec![CompileMode::Optimized],
            "--help" | "-h" => flags.usage(
                "usage: opc [--run] [--shots N] [--seed N] \
                 [--standard-only|--optimized-only] [program.qasm]",
            ),
            other if !other.starts_with('-') => path = Some(other),
            other => flags.usage(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    let source = match path {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("opc: cannot read {path}: {e}"))),
        None => {
            let mut buf = String::new();
            if std::io::stdin().read_to_string(&mut buf).is_err() || buf.trim().is_empty() {
                fail("opc: no input (pass a .qasm file or pipe a program on stdin)");
            }
            buf
        }
    };
    let circuit = qasm::parse(&source).unwrap_or_else(|e| fail(format!("opc: parse error: {e}")));
    println!(
        "parsed {} operations on {} qubits",
        circuit.len(),
        circuit.num_qubits()
    );

    let mut rng = seeded(seed);
    let device = DeviceModel::almaden_like(circuit.num_qubits() as usize, &mut rng);
    let calibration = calibrate(&device, &mut rng);

    let pool = ShotPool::from_env();
    for mode in modes {
        let cc = compile_circuit(&device, &calibration, &circuit, mode)
            .unwrap_or_else(|e| fail(format!("opc: {mode:?} compile error: {e}")));
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
        if run {
            let config = PipelineConfig {
                mode,
                shots,
                seed,
                ..PipelineConfig::default()
            };
            let (_, counts) = execute_compiled(&device, &cc, &config, &pool)
                .unwrap_or_else(|e| fail(format!("opc: {mode:?} execution error: {e}")));
            println!("-- execution ({shots} shots, noisy) --");
            print_counts(&counts, circuit.num_qubits());
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    match argv.first().map(String::as_str) {
        Some("serve") => cmd_serve(rest),
        Some("submit") => cmd_submit(rest),
        Some("compile") => cmd_compile(rest),
        Some("corpus") => cmd_corpus(rest),
        Some("verify") => cmd_verify(rest),
        _ => cmd_stages(&argv),
    }
}
