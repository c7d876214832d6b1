//! The corpus platform: run every generated circuit through the pipeline
//! under both compilation flows and emit a comparative report.
//!
//! Determinism contract: the report's metric fields (depths, durations,
//! pulse counts, fidelities, counts checksums) are a pure function of
//! [`CorpusOptions`]' seeds — never of the thread count, the wall clock,
//! or the calibration snapshot store's temperature. Wall-clock columns
//! come only from an *injected* clock (the [`CorpusOptions::clock`]
//! closure, same pattern as `quant-service`'s latency clock) so this
//! library stays free of `Instant::now` per the opclint nondeterminism
//! rule; timings are reported but excluded from golden summaries.

use crate::generators::{generate, CorpusEntry, Family, Tier};
use crate::pipeline::{
    compile_circuit, execute_compiled, ExecutorKind, PipelineConfig, PipelineError,
};
use pulse_compiler::CompileMode;
use quant_char::{counts_to_distribution, hellinger_fidelity};
use quant_device::{Calibration, CalibrationOptions, DeviceModel, ShotPool};
use quant_math::{fnv1a, seeded, stream_seed, FNV_OFFSET};
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// Milliseconds-since-some-epoch clock, injected by binaries that may
/// legitimately read wall time (`repro-bench`). `None` leaves every
/// `wall_ms` field empty.
pub type Clock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Corpus run options.
#[derive(Clone)]
pub struct CorpusOptions {
    /// Which corpus tier to run.
    pub tier: Tier,
    /// Measurement shots per circuit per flow.
    pub shots: usize,
    /// Root seed for jitter/sampling/trajectory streams; circuit `i` runs
    /// on `stream_seed(seed, i)`.
    pub seed: u64,
    /// Root seed for device physics + calibration; width `w` gets
    /// `stream_seed(device_seed, w)`.
    pub device_seed: u64,
    /// Optional wall clock for compile-time columns.
    pub clock: Option<Clock>,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            tier: Tier::Smoke,
            shots: 2048,
            seed: 7,
            device_seed: 7,
            clock: None,
        }
    }
}

impl fmt::Debug for CorpusOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CorpusOptions")
            .field("tier", &self.tier)
            .field("shots", &self.shots)
            .field("seed", &self.seed)
            .field("device_seed", &self.device_seed)
            .field("clock", &self.clock.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// A corpus run failure, tagged with the circuit that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusError {
    /// The failing circuit's name.
    pub circuit: String,
    /// The underlying pipeline failure.
    pub error: PipelineError,
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.circuit, self.error)
    }
}

impl std::error::Error for CorpusError {}

/// Metrics for one circuit under one compilation flow.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowMetrics {
    /// SWAPs inserted by routing.
    pub swaps: usize,
    /// Depth of the routed physical circuit.
    pub depth: usize,
    /// Two-qubit gates after routing.
    pub two_qubit_gates: usize,
    /// Schedule duration in `dt` units.
    pub duration_dt: u64,
    /// Pulses played.
    pub pulse_count: usize,
    /// Backend that executed it.
    pub executor: ExecutorKind,
    /// Hellinger fidelity against the routed circuit's ideal distribution.
    pub fidelity: f64,
    /// FNV-1a checksum of the measured counts (thread-identity witness).
    pub counts_checksum: u64,
    /// `pulse::verify` found zero issues in the compiled schedule.
    pub verified: bool,
    /// Compile wall-clock, when a clock was injected.
    pub wall_ms: Option<u64>,
}

/// One corpus circuit, both flows.
#[derive(Clone, Debug, PartialEq)]
pub struct CircuitReport {
    /// Family.
    pub family: Family,
    /// Unique circuit name.
    pub name: String,
    /// Register width.
    pub width: u32,
    /// The gate-level (standard) flow.
    pub standard: FlowMetrics,
    /// The pulse-level (optimized) flow.
    pub optimized: FlowMetrics,
}

impl CircuitReport {
    /// Optimized-over-standard schedule duration (< 1 means pulse-level
    /// compilation produced a shorter schedule).
    pub fn duration_ratio(&self) -> f64 {
        self.optimized.duration_dt as f64 / self.standard.duration_dt as f64
    }

    /// Optimized-minus-standard fidelity.
    pub fn fidelity_delta(&self) -> f64 {
        self.optimized.fidelity - self.standard.fidelity
    }
}

/// Aggregates for one family.
#[derive(Clone, Debug, PartialEq)]
pub struct FamilySummary {
    /// Family.
    pub family: Family,
    /// Circuits in this family.
    pub circuits: usize,
    /// Geometric mean of the per-circuit duration ratios.
    pub mean_duration_ratio: f64,
    /// Arithmetic mean standard-flow fidelity.
    pub mean_fidelity_standard: f64,
    /// Arithmetic mean optimized-flow fidelity.
    pub mean_fidelity_optimized: f64,
}

impl FamilySummary {
    /// Whether pulse-level compilation beat gate-level on duration for
    /// this family (the paper's headline claim, per family).
    pub fn pulse_wins_duration(&self) -> bool {
        self.mean_duration_ratio < 1.0
    }
}

/// The full comparative report.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusReport {
    /// Tier that was run.
    pub tier: Tier,
    /// Shots per circuit per flow.
    pub shots: usize,
    /// Pipeline seed root.
    pub seed: u64,
    /// Device seed root.
    pub device_seed: u64,
    /// Per-circuit results, in generation order.
    pub circuits: Vec<CircuitReport>,
}

/// FNV-1a checksum of a counts vector.
pub fn counts_checksum(counts: &[u64]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, counts.len() as u64);
    for &c in counts {
        h = fnv1a(h, c);
    }
    h
}

impl CorpusReport {
    /// Family aggregates, in [`Family::all`] order.
    pub fn family_summaries(&self) -> Vec<FamilySummary> {
        Family::all()
            .into_iter()
            .filter_map(|family| {
                let rows: Vec<&CircuitReport> = self
                    .circuits
                    .iter()
                    .filter(|c| c.family == family)
                    .collect();
                if rows.is_empty() {
                    return None;
                }
                let n = rows.len() as f64;
                let log_ratio: f64 = rows.iter().map(|r| r.duration_ratio().ln()).sum();
                Some(FamilySummary {
                    family,
                    circuits: rows.len(),
                    mean_duration_ratio: (log_ratio / n).exp(),
                    mean_fidelity_standard: rows.iter().map(|r| r.standard.fidelity).sum::<f64>()
                        / n,
                    mean_fidelity_optimized: rows.iter().map(|r| r.optimized.fidelity).sum::<f64>()
                        / n,
                })
            })
            .collect()
    }

    /// How many families pulse-level compilation beats gate-level on
    /// duration (the acceptance bar is ≥ 3).
    pub fn families_where_pulse_wins(&self) -> usize {
        self.family_summaries()
            .iter()
            .filter(|s| s.pulse_wins_duration())
            .count()
    }

    /// One checksum over every deterministic field — bit-identical runs
    /// (across thread counts, machines, cache temperatures) fold to the
    /// same value. Wall-clock columns are excluded.
    pub fn checksum(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.shots as u64);
        h = fnv1a(h, self.seed);
        h = fnv1a(h, self.device_seed);
        for c in &self.circuits {
            for byte in c.name.bytes() {
                h = fnv1a(h, byte as u64);
            }
            for flow in [&c.standard, &c.optimized] {
                h = fnv1a(h, flow.swaps as u64);
                h = fnv1a(h, flow.depth as u64);
                h = fnv1a(h, flow.two_qubit_gates as u64);
                h = fnv1a(h, flow.duration_dt);
                h = fnv1a(h, flow.pulse_count as u64);
                h = fnv1a(h, flow.fidelity.to_bits());
                h = fnv1a(h, flow.counts_checksum);
                h = fnv1a(h, flow.verified as u64);
            }
        }
        h
    }

    /// The report as a JSON document (hand-rolled; no serde in-tree).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + 512 * self.circuits.len());
        let tier = self.tier.name();
        out.push_str("{\n");
        out.push_str(&format!("  \"tier\": \"{tier}\",\n"));
        out.push_str(&format!("  \"shots\": {},\n", self.shots));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"device_seed\": {},\n", self.device_seed));
        out.push_str(&format!("  \"checksum\": \"{:016x}\",\n", self.checksum()));
        out.push_str(&format!(
            "  \"families_where_pulse_wins_duration\": {},\n",
            self.families_where_pulse_wins()
        ));
        out.push_str("  \"families\": [\n");
        let summaries = self.family_summaries();
        for (i, s) in summaries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"family\": \"{}\", \"circuits\": {}, \"mean_duration_ratio\": {:?}, \
                 \"mean_fidelity_standard\": {:?}, \"mean_fidelity_optimized\": {:?}, \
                 \"pulse_wins_duration\": {}}}{}\n",
                s.family,
                s.circuits,
                s.mean_duration_ratio,
                s.mean_fidelity_standard,
                s.mean_fidelity_optimized,
                s.pulse_wins_duration(),
                if i + 1 < summaries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"circuits\": [\n");
        for (i, c) in self.circuits.iter().enumerate() {
            let flow = |f: &FlowMetrics| {
                format!(
                    "{{\"swaps\": {}, \"depth\": {}, \"two_qubit_gates\": {}, \
                     \"duration_dt\": {}, \"pulse_count\": {}, \"executor\": \"{}\", \
                     \"fidelity\": {:?}, \"counts_checksum\": \"{:016x}\", \
                     \"verified\": {}, \"wall_ms\": {}}}",
                    f.swaps,
                    f.depth,
                    f.two_qubit_gates,
                    f.duration_dt,
                    f.pulse_count,
                    f.executor.name(),
                    f.fidelity,
                    f.counts_checksum,
                    f.verified,
                    f.wall_ms.map_or("null".to_string(), |w| w.to_string()),
                )
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"family\": \"{}\", \"width\": {}, \
                 \"duration_ratio\": {:?}, \"fidelity_delta\": {:?},\n     \
                 \"standard\": {},\n     \"optimized\": {}}}{}\n",
                c.name,
                c.family,
                c.width,
                c.duration_ratio(),
                c.fidelity_delta(),
                flow(&c.standard),
                flow(&c.optimized),
                if i + 1 < self.circuits.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The report as a markdown document: a family summary table, the
    /// verdict line, and the full per-circuit table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::with_capacity(2048 + 256 * self.circuits.len());
        let tier = self.tier.name();
        out.push_str(&format!(
            "# Corpus report ({tier} tier, {} circuits, {} shots, seed {})\n\n",
            self.circuits.len(),
            self.shots,
            self.seed
        ));
        out.push_str(
            "Gate-level (`Standard`) vs pulse-level (`Optimized`) compilation, per family.\n\
             `duration ratio` is optimized/standard schedule length — below 1.0 means the\n\
             pulse-level flow produced a shorter schedule.\n\n",
        );
        out.push_str("| family | circuits | mean duration ratio | mean fid (std) | mean fid (opt) | pulse wins duration |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for s in self.family_summaries() {
            out.push_str(&format!(
                "| {} | {} | {:.3} | {:.4} | {:.4} | {} |\n",
                s.family,
                s.circuits,
                s.mean_duration_ratio,
                s.mean_fidelity_standard,
                s.mean_fidelity_optimized,
                if s.pulse_wins_duration() { "yes" } else { "no" }
            ));
        }
        out.push_str(&format!(
            "\n**Verdict:** pulse-level compilation beats gate-level on schedule duration \
             for {}/{} families. Report checksum `{:016x}`.\n\n",
            self.families_where_pulse_wins(),
            self.family_summaries().len(),
            self.checksum()
        ));
        out.push_str("## Per-circuit results\n\n");
        out.push_str(
            "| circuit | n | exec | swaps | depth s/o | duration dt s/o | ratio | pulses s/o | fid s | fid o | verified s/o | wall ms s/o |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|\n");
        for c in &self.circuits {
            let wall = |f: &FlowMetrics| f.wall_ms.map_or("-".to_string(), |w| w.to_string());
            let verified = |f: &FlowMetrics| if f.verified { "yes" } else { "NO" };
            out.push_str(&format!(
                "| {} | {} | {} | {}/{} | {}/{} | {}/{} | {:.3} | {}/{} | {:.4} | {:.4} | {}/{} | {}/{} |\n",
                c.name,
                c.width,
                c.optimized.executor.name(),
                c.standard.swaps,
                c.optimized.swaps,
                c.standard.depth,
                c.optimized.depth,
                c.standard.duration_dt,
                c.optimized.duration_dt,
                c.duration_ratio(),
                c.standard.pulse_count,
                c.optimized.pulse_count,
                c.standard.fidelity,
                c.optimized.fidelity,
                verified(&c.standard),
                verified(&c.optimized),
                wall(&c.standard),
                wall(&c.optimized),
            ));
        }
        out
    }
}

/// One calibrated backend per register width (devices are built lazily and
/// reused across same-width circuits).
struct Backends {
    device_seed: u64,
    setups: Vec<(u32, DeviceModel, Calibration)>,
}

impl Backends {
    fn new(device_seed: u64) -> Self {
        Backends {
            device_seed,
            setups: Vec::new(),
        }
    }

    /// Index of the setup for `width`, building it on first use.
    fn index_of(&mut self, width: u32) -> usize {
        if let Some(i) = self.setups.iter().position(|(w, _, _)| *w == width) {
            return i;
        }
        let mut rng = seeded(stream_seed(self.device_seed, width as u64));
        let device = DeviceModel::almaden_like(width as usize, &mut rng);
        let root = rng.gen::<u64>();
        let calibration = Calibration::run_seeded(&device, &CalibrationOptions::default(), root);
        self.setups.push((width, device, calibration));
        self.setups.len() - 1
    }
}

/// Runs one corpus entry under one mode.
fn run_flow(
    entry: &CorpusEntry,
    device: &DeviceModel,
    calibration: &Calibration,
    config: &PipelineConfig,
    pool: &ShotPool,
    clock: &Option<Clock>,
) -> Result<FlowMetrics, CorpusError> {
    let tag = |error: PipelineError| CorpusError {
        circuit: entry.name.clone(),
        error,
    };
    let t0 = clock.as_ref().map(|c| c());
    let cc = compile_circuit(device, calibration, &entry.circuit, config.mode).map_err(tag)?;
    let wall_ms = t0.map(|t0| {
        let t1 = clock.as_ref().map(|c| c()).unwrap_or(t0);
        t1.saturating_sub(t0)
    });
    // Re-run the static verifier explicitly (the in-compiler pass would
    // already have failed the compile) so the report records the result
    // as data even under `OPC_VERIFY=0`.
    let verified =
        quant_pulse::verify(&cc.compiled.program.schedule, &device.verify_spec()).is_empty();
    let (executor, counts) = execute_compiled(device, &cc, config, pool).map_err(tag)?;
    let ideal = cc.routed.circuit.output_distribution();
    let fidelity = hellinger_fidelity(&ideal, &counts_to_distribution(&counts));
    Ok(FlowMetrics {
        swaps: cc.routed.swaps_inserted,
        depth: cc.routed.circuit.depth(),
        two_qubit_gates: cc.routed.circuit.two_qubit_count(),
        duration_dt: cc.compiled.duration(),
        pulse_count: cc.compiled.pulse_count(),
        executor,
        fidelity,
        counts_checksum: counts_checksum(&counts),
        verified,
        wall_ms,
    })
}

/// Runs the corpus: every circuit of the tier, both flows, one report.
pub fn run_corpus(options: &CorpusOptions, pool: &ShotPool) -> Result<CorpusReport, CorpusError> {
    let entries = generate(options.tier);
    let mut backends = Backends::new(options.device_seed);
    let mut circuits = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let base = PipelineConfig {
            shots: options.shots,
            seed: stream_seed(options.seed, i as u64),
            ..PipelineConfig::default()
        };
        let idx = backends.index_of(entry.width);
        let (_, device, calibration) = &backends.setups[idx];
        let standard = run_flow(
            entry,
            device,
            calibration,
            &PipelineConfig {
                mode: CompileMode::Standard,
                ..base.clone()
            },
            pool,
            &options.clock,
        )?;
        let optimized = run_flow(
            entry,
            device,
            calibration,
            &PipelineConfig {
                mode: CompileMode::Optimized,
                ..base
            },
            pool,
            &options.clock,
        )?;
        circuits.push(CircuitReport {
            family: entry.family,
            name: entry.name.clone(),
            width: entry.width,
            standard,
            optimized,
        });
    }
    Ok(CorpusReport {
        tier: options.tier,
        shots: options.shots,
        seed: options.seed,
        device_seed: options.device_seed,
        circuits,
    })
}
