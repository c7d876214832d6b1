//! quant-corpus — the benchmark corpus platform and the compile →
//! execute pipeline under it.
//!
//! Three layers:
//!
//! 1. [`generators`] — deterministic circuit families (QFT, Cuccaro
//!    adders, random Cliffords, QAOA and VQE lines) at growing widths;
//!    [`generators::generate`] yields the fixed corpus for a
//!    [`generators::Tier`].
//! 2. [`pipeline`] — a parsed or built circuit → linear-chain routing →
//!    gate-level or pulse-level compilation (`pulse-compiler`) → density
//!    or trajectory execution (`quant-device`) → counts + Hellinger
//!    fidelity. The one path from a circuit to counts outside the
//!    service: `opc compile`, bare `opc`, the corpus runner, the
//!    experiment harness (`repro-bench`) and the examples all run on it.
//! 3. [`report`] + [`golden`] — run every corpus circuit under both
//!    flows ([`report::run_corpus`]), emit the comparative JSON/markdown
//!    report, and render/diff the bit-exact golden summaries that back
//!    the `corpus_regression` ratchet in CI.
//!
//! Everything downstream of the seeds is bit-deterministic: no wall
//! clocks (timing comes from an injected [`report::Clock`]), no entropy,
//! and thread-count independence inherited from `ShotPool`'s seed-stream
//! contract — the regression test runs against the same golden file at
//! `OPC_THREADS=1` and `4`.

#![warn(missing_docs)]

pub mod generators;
pub mod golden;
pub mod pipeline;
pub mod report;

pub use generators::{generate, CorpusEntry, Family, Tier};
pub use pipeline::{
    compile_circuit, execute_compiled, run_circuit, CompiledCircuit, ExecutorKind, PipelineConfig,
    PipelineError, PipelineRun,
};
pub use report::{
    run_corpus, CircuitReport, Clock, CorpusError, CorpusOptions, CorpusReport, FamilySummary,
    FlowMetrics,
};
