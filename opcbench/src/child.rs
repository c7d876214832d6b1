//! The two child-process passes of a run.
//!
//! * `measure` sets up (several times; `setup_s` is the median), runs the
//!   workload through the production entry points for the measured
//!   window, and checks its outputs.
//! * `replay` runs the same inputs once more through each layer's public
//!   functions with spans recorded, and reports the per-layer breakdown
//!   and the checksum the measured pass must match.

use crate::closed::{
    self, integrate_estimate, Counters, Executed, TRANSLATION_MAX_TWO_QUBIT,
    TRANSLATION_MIN_FIDELITY,
};
use crate::inputs::{
    backend_widths, calibrate, round_jobs, rounds_for, Backend, Payload, Sizes, Workload,
};
use crate::service::{self, OpenRun};
use crate::stats::{geomean, median, percentile, sorted};
use crate::trace::{coverage, layer_totals, Tracer, LAYERS, SETUP_REQUEST};
use quant_circuit::qasm;
use quant_device::{ProbeCache, ShotPool};
use quant_service::CompileService;
use std::fmt::Write as _;
use std::time::Instant;

/// Everything a pass reports back to the parent.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, String)>,
    /// Fold of every output of the pass.
    pub checksum: u64,
    /// Jobs or requests attempted.
    pub attempted: usize,
    /// Jobs or requests that failed.
    pub failed: usize,
    /// Correctness gates: `(name, passed, detail)`.
    pub gates: Vec<(String, bool, String)>,
    /// Wall seconds of the job loop (setup excluded).
    pub pass_s: f64,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    fn gate(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.gates.push((name.to_string(), passed, detail.into()));
    }

    /// Value of a metric, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.1)
    }

    /// The line protocol a child prints on stdout.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "metric {name} {value:e} {unit}");
        }
        for (name, ok, detail) in &self.gates {
            let _ = writeln!(
                out,
                "gate {name} {} {detail}",
                if *ok { "ok" } else { "FAIL" }
            );
        }
        let _ = writeln!(out, "checksum {:016x}", self.checksum);
        let _ = writeln!(out, "attempted {}", self.attempted);
        let _ = writeln!(out, "failed {}", self.failed);
        let _ = writeln!(out, "pass_s {:e}", self.pass_s);
        out
    }

    /// Parses [`Report::to_lines`].
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        for line in text.lines() {
            let mut it = line.splitn(2, ' ');
            let (key, rest) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            let bad = || format!("malformed child line `{line}`");
            match key {
                "metric" => {
                    let f: Vec<&str> = rest.splitn(3, ' ').collect();
                    let [name, value, unit] = f.as_slice() else {
                        return Err(bad());
                    };
                    let value = value.parse().map_err(|_| bad())?;
                    r.metric(name, value, unit);
                }
                "gate" => {
                    let f: Vec<&str> = rest.splitn(3, ' ').collect();
                    let (name, ok) = (f.first().ok_or_else(bad)?, f.get(1).ok_or_else(bad)?);
                    r.gate(name, *ok == "ok", f.get(2).copied().unwrap_or(""));
                }
                "checksum" => r.checksum = u64::from_str_radix(rest, 16).map_err(|_| bad())?,
                "attempted" => r.attempted = rest.parse().map_err(|_| bad())?,
                "failed" => r.failed = rest.parse().map_err(|_| bad())?,
                "pass_s" => r.pass_s = rest.parse().map_err(|_| bad())?,
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The latency and throughput metrics every workload reports.
fn end_to_end(
    r: &mut Report,
    setup_s: &[f64],
    jobs_per_s: f64,
    latencies_ms: &[f64],
    ratios: &[f64],
) {
    r.metric("setup_s", median(setup_s).unwrap_or(f64::NAN), "s");
    r.metric("jobs_per_s", jobs_per_s, "1/s");
    let latencies_ms = sorted(latencies_ms);
    for (name, p) in [("latency_p50_ms", 50.0), ("latency_p95_ms", 95.0)] {
        r.metric(name, percentile(&latencies_ms, p).unwrap_or(f64::NAN), "ms");
    }
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric(
        "duration_ratio_geomean",
        geomean(ratios).unwrap_or(f64::NAN),
        "ratio",
    );
}

fn seconds_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Circuits of round 0 the translation gate checks: up to three of at
/// most 5 qubits and [`TRANSLATION_MAX_TWO_QUBIT`] two-qubit gates.
fn translation_subset(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
) -> Vec<(usize, quant_circuit::Circuit, pulse_compiler::CompileMode)> {
    round_jobs(workload, sizes, seed, 0, 0)
        .into_iter()
        .filter_map(|job| {
            let circuit = match job.payload {
                Payload::Qasm(text) => qasm::parse(&text).ok()?,
                Payload::Ir(c) => c,
            };
            let small =
                circuit.num_qubits() <= 5 && circuit.two_qubit_count() <= TRANSLATION_MAX_TWO_QUBIT;
            small.then_some((job.backend, circuit, job.mode))
        })
        .take(3)
        .collect()
}

/// Sets up a closed-loop workload: cold-calibrates its devices.
fn closed_setup(workload: Workload, sizes: &Sizes, pool: &ShotPool) -> Vec<Backend> {
    let probes = ProbeCache::with_enabled(true);
    backend_widths(workload, sizes)
        .into_iter()
        .map(|w| calibrate(w, pool, &probes))
        .collect()
}

/// The measured pass.
pub fn measure(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    pool: &ShotPool,
) -> Report {
    if workload == Workload::ServiceOpenLoop {
        return measure_service(sizes, seed, seconds, pool.threads());
    }
    let mut r = Report::default();
    let mut setup_s = Vec::new();
    let mut setups = Vec::new();
    for _ in 0..sizes.setup_reps.max(1) {
        // opclint: allow(nondeterminism): benchmark setup timing
        let t0 = Instant::now();
        setups.push(closed_setup(workload, sizes, pool));
        setup_s.push(seconds_since(t0));
    }
    let (first_setup, backends) = (&setups[0], &setups[setups.len() - 1]);
    let rounds = rounds_for(workload, seconds);
    let run = closed::measure(workload, sizes, seed, rounds, |_, job| {
        closed::run_job(backends, job, sizes, pool)
    });
    // A round's jobs back to back at each cell's fastest latency.
    let jobs_per_s = run.best_ms.len() as f64 / run.best_ms.iter().sum::<f64>() * 1e3;
    let ratios = closed::duration_ratios(workload, sizes, seed, backends);
    end_to_end(
        &mut r,
        &setup_s,
        jobs_per_s,
        &run.best_ms,
        ratios.as_deref().unwrap_or(&[]),
    );
    r.metric("fidelity_std_mean", mean(&run.fidelity_std), "ratio");
    r.metric("fidelity_opt_mean", mean(&run.fidelity_opt), "ratio");
    (r.checksum, r.attempted, r.failed, r.pass_s) =
        (run.checksum, run.attempted, run.failed, run.wall_s);
    r.gate(
        "every_job_ok",
        run.failed == 0 && ratios.is_ok(),
        match (&run.first_error, &ratios) {
            (Some(e), _) | (None, Err(e)) => e.clone(),
            (None, Ok(_)) => format!("{} jobs", run.attempted),
        },
    );
    // Same seed, same output: rerun the first job on the first,
    // independently calibrated setup.
    let rerun = run
        .first
        .as_ref()
        .map(|(job, out)| (closed::run_job(first_setup, job, sizes, pool), *out));
    let detail = match &rerun {
        Some((Ok(again), out)) => format!("{:016x} vs {:016x}", again.checksum, out.checksum),
        Some((Err(e), _)) => e.clone(),
        None => "no job completed".into(),
    };
    r.gate(
        "same_seed_same_checksum",
        matches!(&rerun, Some((Ok(again), out)) if again == out),
        detail,
    );
    let mut worst = f64::INFINITY;
    let mut detail = String::new();
    for (backend, circuit, mode) in translation_subset(workload, sizes, seed) {
        let b = &backends[backend.min(backends.len() - 1)];
        match closed::translation_fidelity(b, &circuit, mode) {
            Ok(f) => worst = worst.min(f),
            Err(e) => {
                worst = f64::NEG_INFINITY;
                detail = e;
            }
        }
    }
    r.gate(
        "noiseless_matches_gate_level",
        worst >= TRANSLATION_MIN_FIDELITY,
        if detail.is_empty() {
            format!("worst hellinger fidelity {worst:.4}")
        } else {
            detail
        },
    );
    r
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The measured pass of the service workload.
fn measure_service(sizes: &Sizes, seed: u64, seconds: f64, workers: usize) -> Report {
    let mut r = Report::default();
    let mut setup_s = Vec::new();
    let mut services: Vec<(CompileService, Instant)> = Vec::new();
    for i in 0..sizes.setup_reps.max(1) {
        // opclint: allow(nondeterminism): benchmark setup timing and the service's latency clock
        let origin = Instant::now();
        match service::start(sizes, workers, origin) {
            Ok(s) => {
                setup_s.push(seconds_since(origin));
                // Keep the first instance for the determinism gate and
                // the newest for the measurement.
                if i >= 2 {
                    services.pop();
                }
                services.push((s, origin));
            }
            Err(e) => {
                r.gate("service_starts", false, e);
                return r;
            }
        }
    }
    let requests = service::requests(sizes, seed, seconds);
    let Some((svc, origin)) = services.last() else {
        return r;
    };
    let run: OpenRun = service::open_loop(svc, *origin, &requests, seconds);
    let latencies = run.reference_latencies(&requests);
    end_to_end(
        &mut r,
        &setup_s,
        run.served_per_s(),
        &latencies,
        &run.ratios,
    );
    let lag = sorted(&run.lag_ms);
    let stats = run.stats;
    let attempted = run.attempted.max(1) as f64;
    r.metric(
        "service.dedup_hit_ratio",
        stats.dedup_hits as f64 / attempted,
        "ratio",
    );
    r.metric("service.capacity_per_s", run.capacity(seconds), "1/s");
    r.metric("service.compiles", stats.compiles as f64, "count");
    r.metric("service.batches", stats.batches as f64, "count");
    r.metric("service.overloads", stats.overloads as f64, "count");
    r.metric(
        "service.submit_us_p99",
        percentile(&sorted(&run.submit_us), 99.0).unwrap_or(0.0),
        "us",
    );
    r.metric(
        "loadgen.lag_p99_ms",
        percentile(&lag, 99.0).unwrap_or(0.0),
        "ms",
    );
    r.metric(
        "loadgen.late_frac",
        lag.iter().filter(|&&l| l > 1.0).count() as f64 / attempted,
        "ratio",
    );
    r.metric("loadgen.max_rate_ok_per_s", run.max_rate_ok(), "1/s");
    (r.checksum, r.attempted, r.failed, r.pass_s) =
        (run.checksum, run.attempted, run.failed, run.wall_s);
    r.gate(
        "every_job_ok",
        run.failed == 0,
        run.first_error
            .clone()
            .unwrap_or_else(|| format!("{} requests", run.attempted)),
    );
    // Same seed, same output: the first, independently calibrated
    // instance recomputes the first request.
    let same = requests.first().map(|req| {
        let a = svc.submit(req.spec.clone()).and_then(|t| t.wait());
        let b = services[0].0.submit(req.spec.clone()).and_then(|t| t.wait());
        matches!((&a, &b), (Ok(a), Ok(b)) if a.counts == b.counts && a.duration_dt == b.duration_dt && a.fidelity.to_bits() == b.fidelity.to_bits())
    });
    r.gate(
        "same_seed_same_checksum",
        same.unwrap_or(false),
        "first request on two instances",
    );
    // Noiseless pulse execution through the service must reproduce the
    // gate-level distribution (the service does not route, so the
    // layout is the identity).
    let mut worst = f64::INFINITY;
    for req in requests.iter().filter(|q| q.new_index.is_some()).take(3) {
        let mut spec = req.spec.clone();
        spec.noisy = false;
        match svc.submit(spec).and_then(|t| t.wait()) {
            Ok(out) => worst = worst.min(out.fidelity),
            Err(_) => worst = f64::NEG_INFINITY,
        }
    }
    r.gate(
        "noiseless_matches_gate_level",
        worst >= TRANSLATION_MIN_FIDELITY,
        format!("worst hellinger fidelity {worst:.4}"),
    );
    r
}

/// Per-layer metric names with their units, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for layer in LAYERS.iter().chain(["integrate_est"].iter()) {
        names.push((format!("{layer}.calls"), "count"));
        names.push((format!("{layer}.ms"), "ms"));
        names.push((format!("{layer}.share"), "ratio"));
    }
    for (name, unit) in [
        ("parse.ops_per_s", "1/s"),
        ("route.swaps", "count"),
        ("passes.ops_in", "count"),
        ("passes.ops_out", "count"),
        ("translate.ops_out", "count"),
        ("lower.pulses", "count"),
        ("lower.duration_dt", "dt"),
        ("verify.findings", "count"),
        ("calibration.probe_hits", "count"),
        ("calibration.probe_misses", "count"),
        ("pulse_cache.hits", "count"),
        ("pulse_cache.misses", "count"),
        ("pulse_cache.hit_ratio", "ratio"),
        ("fidelity_std_mean", "ratio"),
        ("fidelity_opt_mean", "ratio"),
        ("service.dedup_hit_ratio", "ratio"),
        ("service.capacity_per_s", "1/s"),
        ("service.compiles", "count"),
        ("service.batches", "count"),
        ("service.overloads", "count"),
        ("service.submit_us_p99", "us"),
        ("loadgen.lag_p99_ms", "ms"),
        ("loadgen.late_frac", "ratio"),
        ("loadgen.max_rate_ok_per_s", "1/s"),
        ("trace.overhead_pct", "%"),
        ("trace.coverage", "ratio"),
    ] {
        names.push((name.to_string(), unit));
    }
    names
}

/// The traced pass: replays the jobs (closed loop) or the request
/// schedule (service) of a measured run of `seconds` through each layer
/// with spans.
pub fn replay(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    pool: &ShotPool,
    trace_out: Option<&std::path::Path>,
) -> Report {
    let mut r = Report::default();
    let mut tracer = Tracer::new();
    let probes = ProbeCache::with_enabled(true);
    let mut counters = Counters::default();
    let mut executed: Vec<Executed> = Vec::new();
    let mut backends: Vec<Backend> = Vec::new();
    let start_ns = tracer.now_ns();
    let (checksum, attempted, failed, pass_ns) = if workload == Workload::ServiceOpenLoop {
        let requests = service::requests(sizes, seed, seconds);
        let pass0 = tracer.now_ns();
        let result = service::traced_replay(
            &mut tracer,
            &requests,
            pool,
            &probes,
            &mut counters,
            &mut backends,
            &mut executed,
        );
        let pass_ns = tracer.now_ns() - pass0;
        match result {
            Ok(c) => (c, requests.len(), 0, pass_ns),
            Err(e) => {
                r.gate("every_job_ok", false, e);
                (0, requests.len(), requests.len(), pass_ns)
            }
        }
    } else {
        let setup = tracer.open(SETUP_REQUEST, "setup", None);
        for w in backend_widths(workload, sizes) {
            let b = tracer.span(SETUP_REQUEST, "calibration", Some(setup), || {
                calibrate(w, pool, &probes)
            });
            backends.push(b);
        }
        tracer.close(setup);
        let pass0 = tracer.now_ns();
        let run = {
            let tracer = &mut tracer;
            let (counters, executed, backends) = (&mut counters, &mut executed, &backends);
            closed::measure(
                workload,
                sizes,
                seed,
                rounds_for(workload, seconds),
                |i, job| closed::traced_job(tracer, i, backends, job, sizes, counters, executed),
            )
        };
        let pass_ns = tracer.now_ns() - pass0;
        if let Some(e) = &run.first_error {
            r.gate("every_job_ok", false, e.clone());
        }
        (run.checksum, run.attempted, run.failed, pass_ns)
    };
    let wall_ns = tracer.now_ns() - start_ns;
    let wall_ms = wall_ns as f64 / 1e6;
    (r.checksum, r.attempted, r.failed, r.pass_s) =
        (checksum, attempted, failed, pass_ns as f64 / 1e9);

    // Integration estimate, outside the traced wall and the request spans.
    let mut integrate_s = 0.0;
    for e in &executed {
        match integrate_estimate(&backends, e) {
            Ok(s) => integrate_s += s,
            Err(err) => r.gate("integrate_estimate", false, err),
        }
    }

    let spans = tracer.spans();
    let totals = layer_totals(spans);
    for (layer, (calls, ns)) in LAYERS.iter().zip(&totals) {
        let ms = *ns as f64 / 1e6;
        r.metric(&format!("{layer}.calls"), *calls as f64, "count");
        r.metric(&format!("{layer}.ms"), ms, "ms");
        r.metric(&format!("{layer}.share"), ms / wall_ms, "ratio");
    }
    r.metric("integrate_est.calls", executed.len() as f64, "count");
    r.metric("integrate_est.ms", integrate_s * 1e3, "ms");
    r.metric("integrate_est.share", integrate_s * 1e3 / wall_ms, "ratio");
    let parse_s = r.get("parse.ms").unwrap_or(0.0) / 1e3;
    r.metric(
        "parse.ops_per_s",
        if parse_s > 0.0 {
            counters.parsed_ops as f64 / parse_s
        } else {
            0.0
        },
        "1/s",
    );
    r.metric("route.swaps", counters.swaps as f64, "count");
    r.metric("passes.ops_in", counters.passes_in as f64, "count");
    r.metric("passes.ops_out", counters.passes_out as f64, "count");
    r.metric("translate.ops_out", counters.translate_out as f64, "count");
    r.metric("lower.pulses", counters.pulses as f64, "count");
    r.metric("lower.duration_dt", counters.duration_dt as f64, "dt");
    r.metric("verify.findings", counters.findings as f64, "count");
    let probe = probes.stats();
    r.metric("calibration.probe_hits", probe.hits as f64, "count");
    r.metric("calibration.probe_misses", probe.misses as f64, "count");
    let (hits, misses) = backends.iter().fold((0, 0), |(h, m), b| {
        let s = b.device.pulse_cache().stats();
        (h + s.hits, m + s.misses)
    });
    r.metric("pulse_cache.hits", hits as f64, "count");
    r.metric("pulse_cache.misses", misses as f64, "count");
    r.metric(
        "pulse_cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    r.metric("trace.coverage", coverage(spans, wall_ns), "ratio");
    r.gate(
        "verify_findings_zero",
        counters.findings == 0,
        format!("{} findings", counters.findings),
    );
    if let Some(path) = trace_out {
        if let Err(e) = tracer.write_jsonl(path) {
            r.gate("trace_written", false, e.to_string());
        }
    }
    r
}
