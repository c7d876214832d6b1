//! Compilation-as-a-service: a batched, deduplicating, sharded job engine.
//!
//! The paper's premise is that pulse-level compilation pays off only when
//! the full compile→calibrate→execute loop is fast enough to run
//! per-program. This crate turns the workspace's compiler + simulator into
//! a request-level system: [`CompileService`] accepts compile+simulate
//! jobs (OpenQASM text or circuit IR in; compiled program summary +
//! sampled counts / duration / fidelity out) and sustains concurrent
//! traffic through four mechanisms:
//!
//! * **Bounded queue + worker pool.** Jobs wait in a FIFO queue drained by
//!   `workers` OS threads. `workers` also bounds the cores a job may
//!   borrow: a job's execution fans its pulse integrations out over its
//!   own worker plus the cores idle workers leave free, so a lone job
//!   uses the whole budget and a saturated service runs each job
//!   serially. A full queue rejects with [`ServiceError::Overloaded`]
//!   instead of growing without bound — the service never panics on load
//!   (building on the executor's `try_run_pooled → Result` path).
//! * **Content-addressed dedup.** Every job is keyed by an FNV-1a hash of
//!   its full semantic content (device spec, circuit ops, compile mode,
//!   shots, seed, noise flag — like the calibration `snapshot_key`).
//!   A job identical to one already in flight coalesces onto the same
//!   computation; a job identical to one of the last 512 completed ones
//!   is answered from the result memo without queueing at all.
//! * **Per-device calibration shards.** The expensive per-device state
//!   (the [`DeviceModel`](quant_device::DeviceModel) and its
//!   [`Calibration`](quant_device::Calibration)) is built once per device
//!   spec in a shard keyed like the jobs. Shard construction goes through
//!   a `OnceLock`, so no two workers ever recalibrate the same device —
//!   late arrivals block on the one in-progress tune-up and then share it
//!   (which also shares the device's pulse cache across all jobs on that
//!   shard).
//! * **Same-device batching.** A worker that pops a job also claims up to
//!   seven more queued jobs for the *same* device shard, so a
//!   burst of traffic against one device amortizes the shard lookup and
//!   keeps its caches hot instead of interleaving devices across workers.
//!
//! **Determinism contract.** Every job's result is a pure function of its
//! spec: execution randomness comes from `seeded(stream_seed(job.seed,
//! EXEC_STREAM))`, sampling from `sample_counts_deterministic(job.seed,
//! shots)`, and shard state from the device spec alone. Scheduling,
//! batching and worker count therefore cannot change any output —
//! results are bit-identical at any `workers` setting for a fixed spec,
//! the same contract `ShotPool` gives shot fan-out.
//!
//! ```
//! use quant_service::{CompileService, DeviceKind, DeviceSpec, JobSpec, ServiceConfig};
//!
//! let service = CompileService::new(ServiceConfig {
//!     workers: 2,
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//! let ticket = service
//!     .submit(JobSpec::qasm(
//!         DeviceSpec::new(DeviceKind::Almaden, 2, 7),
//!         "qreg q[2]; h q[0]; cx q[0], q[1];",
//!     ))
//!     .unwrap();
//! let out = ticket.wait().unwrap();
//! assert_eq!(out.counts.iter().sum::<u64>(), 4000);
//! ```

mod service;
mod spec;
pub mod wire;

pub use service::{CompileService, JobOutput, ServiceConfig, ServiceError, StatsSnapshot, Ticket};
pub use spec::{job_key, CircuitSource, DeviceKind, DeviceSpec, JobSpec, SERVICE_ALGO_VERSION};
