//! The job engine: bounded queue, worker pool, dedup, shards, batching.

use crate::spec::{job_key, CircuitSource, DeviceSpec, JobSpec};
use pulse_compiler::Compiler;
use quant_char::{counts_to_distribution, hellinger_fidelity};
use quant_circuit::qasm::{self, QasmError};
use quant_circuit::Circuit;
use quant_device::{
    CalStore, Calibration, CalibrationOptions, DeviceModel, ExecError, ProbeCache, PulseExecutor,
    ShotPool,
};
use quant_math::{seeded, stream_seed};
use quant_pulse::ScheduleFinding;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// The RNG stream index jobs draw execution randomness from
/// (`seeded(stream_seed(job.seed, EXEC_STREAM))`), held apart from index 0
/// so a job seed never aliases its own raw `seeded(seed)` stream.
const EXEC_STREAM: u64 = 0x5eb;

/// Maximum jobs a worker claims per batch (all on one device shard).
const BATCH_MAX: usize = 8;

/// Completed results kept for memo hits (FIFO eviction).
const MEMO_ENTRIES: usize = 512;

/// Largest register a job may target — a cap on untrusted input, not a
/// simulator limit (the ideal-distribution check is `O(2ⁿ)`).
const MAX_QUBITS: u32 = 10;

/// Largest shot count a job may request.
const MAX_SHOTS: usize = 1 << 20;

/// Everything that can go wrong with a job, as a value. The service never
/// panics on untrusted input or load: malformed programs come back as
/// [`ServiceError::Parse`]/[`ServiceError::InvalidRequest`] (the 4xx
/// class), a full queue as [`ServiceError::Overloaded`] (the 429/503
/// class), and backend failures as typed compile/execute errors.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The bounded queue is full; retry later (carries the configured
    /// capacity so clients can size their backoff).
    Overloaded {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The QASM payload did not parse.
    Parse(QasmError),
    /// The request is structurally invalid for the target device.
    InvalidRequest(String),
    /// Lowering failed (e.g. a two-qubit gate on an uncoupled pair).
    Compile(String),
    /// The compiled schedule failed static verification; the job is
    /// rejected before any simulation work is spent on it.
    Verify(Vec<ScheduleFinding>),
    /// Pulse execution failed.
    Exec(ExecError),
    /// The service is shutting down; queued work was abandoned.
    ShutDown,
    /// A worker thread could not be spawned at construction.
    Spawn(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { capacity } => {
                write!(f, "service overloaded (queue capacity {capacity})")
            }
            ServiceError::Parse(e) => write!(f, "parse error: {e}"),
            ServiceError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::Compile(msg) => write!(f, "compile error: {msg}"),
            ServiceError::Verify(findings) => {
                write!(
                    f,
                    "schedule verification failed ({} finding(s)",
                    findings.len()
                )?;
                match findings.first() {
                    Some(first) => write!(f, "; first: {first})"),
                    None => write!(f, ")"),
                }
            }
            ServiceError::Exec(e) => write!(f, "execution error: {e}"),
            ServiceError::ShutDown => write!(f, "service shut down"),
            ServiceError::Spawn(msg) => write!(f, "worker spawn failed: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Service tuning knobs.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads, and the service's core budget: a job borrows the
    /// cores idle workers leave free to fan its pulse integrations out
    /// over, and each shard's tune-up fans out over `ShotPool::new(workers)`
    /// (results depend on neither). The default is the host's core count.
    /// `0` spawns none — jobs queue until the caller drives them with
    /// [`CompileService::run_pending`] (deterministic single-threaded mode,
    /// used by tests and `opc submit` without a server), each job runs on
    /// the calling thread alone, and shards tune up on one thread.
    pub workers: usize,
    /// Maximum queued (not yet claimed) jobs before submissions are
    /// rejected with [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Optional monotonic tick source (e.g. microseconds since service
    /// start). Library code takes no wall clock of its own — the
    /// determinism lint bans it — so latency accounting is injected:
    /// outputs carry `completed_tick` from this closure, `0` without one.
    pub clock: Option<Arc<dyn Fn() -> u64 + Send + Sync>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 256,
            clock: None,
        }
    }
}

impl fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("clock", &self.clock.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// A finished job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutput {
    /// The job's content-addressed key.
    pub key: u64,
    /// Register width.
    pub num_qubits: u32,
    /// The compiled basis-stage program, printed as OpenQASM.
    pub assembly_qasm: String,
    /// Pulse schedule duration in `dt` units.
    pub duration_dt: u64,
    /// Pulses played by the schedule.
    pub pulse_count: usize,
    /// Sampled measurement counts (index = bitstring, q0 least
    /// significant).
    pub counts: Vec<u64>,
    /// Hellinger fidelity of the sampled counts against the circuit's
    /// ideal output distribution.
    pub fidelity: f64,
    /// Tick from the injected [`ServiceConfig::clock`] at completion
    /// (`0` when no clock is configured).
    pub completed_tick: u64,
}

/// A claim on a submitted job's eventual result.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<JobSlot>,
    key: u64,
    deduped: bool,
}

impl Ticket {
    /// The job's content-addressed key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Whether this submission coalesced onto an existing computation or
    /// memoized result instead of enqueueing new work.
    pub fn deduped(&self) -> bool {
        self.deduped
    }

    /// Blocks until the job completes and returns its result. Multiple
    /// deduped tickets for one computation all receive the same
    /// `Arc<JobOutput>`.
    pub fn wait(&self) -> Result<Arc<JobOutput>, ServiceError> {
        let mut done = lock(&self.slot.done);
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = self.slot.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Counters exported by [`CompileService::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs accepted into the queue (dedup hits excluded).
    pub submitted: u64,
    /// Jobs whose computation ran to a result (ok or error).
    pub completed: u64,
    /// Submissions answered by coalescing (in-flight or memo).
    pub dedup_hits: u64,
    /// Compile+execute passes actually performed.
    pub compiles: u64,
    /// Worker claims that batched more than one job.
    pub batches: u64,
    /// Submissions rejected with [`ServiceError::Overloaded`].
    pub overloads: u64,
}

struct JobSlot {
    done: Mutex<Option<Result<Arc<JobOutput>, ServiceError>>>,
    cv: Condvar,
}

impl fmt::Debug for JobSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JobSlot")
    }
}

impl JobSlot {
    fn empty() -> Self {
        JobSlot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fill(&self, result: Result<Arc<JobOutput>, ServiceError>) {
        let mut done = lock(&self.done);
        if done.is_none() {
            *done = Some(result);
        }
        self.cv.notify_all();
    }
}

/// A job whose QASM has been parsed and whose request limits have been
/// checked — the form workers execute.
struct ResolvedJob {
    device: DeviceSpec,
    circuit: Circuit,
    mode: pulse_compiler::CompileMode,
    shots: usize,
    seed: u64,
    noisy: bool,
}

struct Pending {
    key: u64,
    job: ResolvedJob,
    slot: Arc<JobSlot>,
}

/// Warm per-device state shared by every job on one shard.
struct ShardData {
    device: DeviceModel,
    calibration: Calibration,
}

/// A shard's data, built once by whichever worker first needs it.
type Shard = OnceLock<Arc<ShardData>>;

struct QueueState {
    queue: VecDeque<Pending>,
    // Key → slot of every job in flight and of the last `MEMO_ENTRIES`
    // that completed `Ok`, for coalescing; `memo_order` (oldest first)
    // evicts the latter, so the map itself is never iterated.
    // opclint: allow(unordered-iter): dedup index; per-key lookups only, eviction via `memo_order`
    slots: HashMap<u64, Arc<JobSlot>>,
    memo_order: VecDeque<u64>,
    shutdown: bool,
}

/// The service's `cfg.workers` cores, shared between the workers and the
/// helper threads a job's execution borrows. A worker that starts
/// executing a job counts itself and claims every core still free, at
/// most `workers − 1` helpers; at saturation each job runs serially on
/// its own core, so the service never runs more than `2·workers − 1`
/// integrating threads.
struct CoreBudget {
    cores: usize,
    in_use: AtomicUsize,
}

impl CoreBudget {
    fn new(cores: usize) -> Self {
        CoreBudget {
            cores,
            in_use: AtomicUsize::new(0),
        }
    }

    /// Claims the calling thread's own core plus every free one. The
    /// count publishes no other data, so `Relaxed` suffices.
    fn claim(&self) -> CoreGrant<'_> {
        // Counting itself takes `in_use` to `in_use + 1`; the free cores
        // beyond that take it to `cores`.
        let claimed = |in_use: usize| (in_use + 1).max(self.cores);
        let before = self
            .in_use
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| Some(claimed(n)))
            .unwrap_or_else(|n| n);
        CoreGrant {
            budget: self,
            cores: claimed(before) - before,
        }
    }
}

/// Cores claimed from a [`CoreBudget`] (at least the claimant's own);
/// dropping the grant hands them all back.
struct CoreGrant<'a> {
    budget: &'a CoreBudget,
    cores: usize,
}

impl Drop for CoreGrant<'_> {
    fn drop(&mut self) {
        self.budget.in_use.fetch_sub(self.cores, Ordering::Relaxed);
    }
}

struct ServiceInner {
    cfg: ServiceConfig,
    cores: CoreBudget,
    state: Mutex<QueueState>,
    /// Signals workers that the queue gained work (or shutdown began).
    /// Idle workers are its only waiters: each submission wakes one, and
    /// `Drop` wakes them all.
    work_cv: Condvar,
    // Device-spec key → shard. Lookup/insert by key only — never iterated.
    // opclint: allow(unordered-iter): shard index; per-key lookups only, no iteration
    shards: Mutex<HashMap<u64, Arc<Shard>>>,
    /// Noiseless tune-up probes shared across all shards, so two devices
    /// drawn with overlapping parameters reuse each other's integrations.
    probes: ProbeCache,
    submitted: AtomicU64,
    completed: AtomicU64,
    dedup_hits: AtomicU64,
    compiles: AtomicU64,
    batches: AtomicU64,
    overloads: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The job engine. See the crate docs for the architecture; construction
/// spawns the worker pool, drop drains it (failing still-queued jobs with
/// [`ServiceError::ShutDown`]).
pub struct CompileService {
    inner: Arc<ServiceInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for CompileService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileService")
            .field("cfg", &self.inner.cfg)
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl CompileService {
    /// Starts a service: validates the config and spawns `workers`
    /// threads. Spawn failure tears down cleanly and returns
    /// [`ServiceError::Spawn`].
    pub fn new(cfg: ServiceConfig) -> Result<Self, ServiceError> {
        if cfg.queue_capacity == 0 {
            return Err(ServiceError::InvalidRequest(
                "queue_capacity must be at least 1".into(),
            ));
        }
        let workers = cfg.workers;
        let inner = Arc::new(ServiceInner {
            cfg,
            cores: CoreBudget::new(workers),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                // opclint: allow(unordered-iter): constructor of the lookup-only dedup index declared above.
                slots: HashMap::new(),
                memo_order: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            // opclint: allow(unordered-iter): constructor of the lookup-only shard index declared above.
            shards: Mutex::new(HashMap::new()),
            probes: ProbeCache::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            overloads: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_inner = Arc::clone(&inner);
            let spawned = std::thread::Builder::new()
                .name(format!("opc-svc-{i}"))
                .spawn(move || worker_loop(&worker_inner));
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    let service = CompileService { inner, handles };
                    drop(service); // joins the workers already running
                    return Err(ServiceError::Spawn(e.to_string()));
                }
            }
        }
        Ok(CompileService { inner, handles })
    }

    /// Submits a job without blocking. Parse and validation errors come
    /// back immediately; a full queue returns
    /// [`ServiceError::Overloaded`]; otherwise the returned [`Ticket`]
    /// resolves when a worker (or [`CompileService::run_pending`])
    /// completes the computation.
    pub fn submit(&self, spec: JobSpec) -> Result<Ticket, ServiceError> {
        let job = self.resolve(spec)?;
        let key = job_key(
            &job.device,
            &job.circuit,
            job.mode,
            job.shots,
            job.seed,
            job.noisy,
        );
        let mut st = lock(&self.inner.state);
        if st.shutdown {
            return Err(ServiceError::ShutDown);
        }
        if let Some(slot) = st.slots.get(&key) {
            self.inner.dedup_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Ticket {
                slot: Arc::clone(slot),
                key,
                deduped: true,
            });
        }
        if st.queue.len() >= self.inner.cfg.queue_capacity {
            self.inner.overloads.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Overloaded {
                capacity: self.inner.cfg.queue_capacity,
            });
        }
        let slot = Arc::new(JobSlot::empty());
        st.slots.insert(key, Arc::clone(&slot));
        st.queue.push_back(Pending {
            key,
            job,
            slot: Arc::clone(&slot),
        });
        drop(st);
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        // Only idle workers wait on `work_cv` (a full queue refuses a
        // submission instead of blocking it), and one job needs one of
        // them; a busy worker re-checks the queue before it waits.
        self.inner.work_cv.notify_one();
        Ok(Ticket {
            slot,
            key,
            deduped: false,
        })
    }

    /// Drains the queue on the calling thread until it is empty, using
    /// the same claim/batch/execute path as a worker. This is how a
    /// `workers: 0` service makes progress, and it lets tests drive the
    /// engine with fully deterministic interleaving. Returns the number
    /// of jobs completed.
    pub fn run_pending(&self) -> usize {
        let mut done = 0;
        while drain_one(&self.inner) {
            done += 1;
        }
        done
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            dedup_hits: self.inner.dedup_hits.load(Ordering::Relaxed),
            compiles: self.inner.compiles.load(Ordering::Relaxed),
            batches: self.inner.batches.load(Ordering::Relaxed),
            overloads: self.inner.overloads.load(Ordering::Relaxed),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }

    /// Parses + validates a spec into the executable form. All untrusted
    /// input is rejected here, before the job consumes queue space.
    fn resolve(&self, spec: JobSpec) -> Result<ResolvedJob, ServiceError> {
        let circuit = match spec.circuit {
            CircuitSource::Qasm(src) => qasm::parse(&src).map_err(ServiceError::Parse)?,
            CircuitSource::Ir(c) => c,
        };
        let n = circuit.num_qubits();
        if n == 0 {
            return Err(ServiceError::InvalidRequest("circuit has no qubits".into()));
        }
        if n > MAX_QUBITS {
            return Err(ServiceError::InvalidRequest(format!(
                "circuit uses {n} qubits; service limit is {MAX_QUBITS}"
            )));
        }
        let device_qubits = spec.device.num_qubits();
        if device_qubits < n {
            return Err(ServiceError::InvalidRequest(format!(
                "circuit uses {n} qubits but device `{}` has {device_qubits}",
                spec.device.kind.name()
            )));
        }
        if device_qubits > MAX_QUBITS {
            return Err(ServiceError::InvalidRequest(format!(
                "device width {device_qubits} exceeds service limit {MAX_QUBITS}"
            )));
        }
        if spec.shots == 0 || spec.shots > MAX_SHOTS {
            return Err(ServiceError::InvalidRequest(format!(
                "shots must be in 1..={MAX_SHOTS}, got {}",
                spec.shots
            )));
        }
        if circuit
            .ops()
            .iter()
            .any(|op| op.gate.name().starts_with("qutrit"))
        {
            return Err(ServiceError::InvalidRequest(
                "qutrit subspace gates are not servable (no ideal qubit distribution)".into(),
            ));
        }
        Ok(ResolvedJob {
            device: spec.device,
            circuit,
            mode: spec.mode,
            shots: spec.shots,
            seed: spec.seed,
            noisy: spec.noisy,
        })
    }
}

impl Drop for CompileService {
    fn drop(&mut self) {
        let abandoned: Vec<Pending> = {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
            st.queue.drain(..).collect()
        };
        self.inner.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        for pending in abandoned {
            let mut st = lock(&self.inner.state);
            st.slots.remove(&pending.key);
            drop(st);
            pending.slot.fill(Err(ServiceError::ShutDown));
        }
    }
}

/// Worker thread body: block for work, then drain until the queue is
/// empty again.
fn worker_loop(inner: &ServiceInner) {
    loop {
        {
            let mut st = lock(&inner.state);
            loop {
                if st.shutdown {
                    return;
                }
                if !st.queue.is_empty() {
                    break;
                }
                st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        while drain_one(inner) {}
    }
}

/// Claims one batch (a front job plus queued same-shard followers) and
/// executes it. Returns `false` when the queue was empty.
fn drain_one(inner: &ServiceInner) -> bool {
    let batch = {
        let mut st = lock(&inner.state);
        let Some(first) = st.queue.pop_front() else {
            return false;
        };
        let shard_key = first.job.device.shard_key();
        let mut batch = vec![first];
        let mut i = 0;
        while i < st.queue.len() && batch.len() < BATCH_MAX {
            if st.queue[i].job.device.shard_key() == shard_key {
                if let Some(claimed) = st.queue.remove(i) {
                    batch.push(claimed);
                    continue;
                }
            }
            i += 1;
        }
        batch
    };
    if batch.len() > 1 {
        inner.batches.fetch_add(1, Ordering::Relaxed);
    }
    let shard = shard_for(inner, &batch[0].job.device);
    for pending in batch {
        let result = execute(inner, &shard, &pending.job, pending.key);
        inner.completed.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = lock(&inner.state);
            if result.is_ok() {
                st.memo_order.push_back(pending.key);
                while st.memo_order.len() > MEMO_ENTRIES {
                    if let Some(evicted) = st.memo_order.pop_front() {
                        st.slots.remove(&evicted);
                    }
                }
            } else {
                st.slots.remove(&pending.key);
            }
        }
        pending.slot.fill(result);
    }
    true
}

/// Gets or builds the calibration shard for a device spec. The map lock
/// covers only the `Arc<Shard>` lookup; the expensive build runs inside
/// the shard's own `OnceLock`, so concurrent workers needing the same
/// device block on one tune-up instead of racing duplicates, while
/// workers on other shards proceed untouched. The tune-up fans out over
/// `cfg.workers` threads and keeps no snapshot on disk, so no setting of
/// the service comes from the environment.
fn shard_for(inner: &ServiceInner, spec: &DeviceSpec) -> Arc<ShardData> {
    let key = spec.shard_key();
    let shard = Arc::clone(lock(&inner.shards).entry(key).or_default());
    let data = shard.get_or_init(|| {
        let (device, root) = spec.build();
        let calibration = Calibration::run_seeded_with(
            &device,
            &CalibrationOptions::default(),
            root,
            &CalStore::disabled(),
            &ShotPool::new(inner.cfg.workers),
            &inner.probes,
        );
        Arc::new(ShardData {
            device,
            calibration,
        })
    });
    Arc::clone(data)
}

/// Compile + execute + sample one job against its shard; `key` is the
/// job's key from submission. Pure function of `(shard data, job)`:
/// randomness comes from the job's own seed streams, so the result is
/// independent of which worker runs it, when, and in which batch.
fn execute(
    inner: &ServiceInner,
    data: &ShardData,
    job: &ResolvedJob,
    key: u64,
) -> Result<Arc<JobOutput>, ServiceError> {
    inner.compiles.fetch_add(1, Ordering::Relaxed);
    let compiled = Compiler::new(&data.device, &data.calibration, job.mode)
        .compile(&job.circuit)
        .map_err(|e| match e {
            pulse_compiler::LowerError::InvalidSchedule(findings) => ServiceError::Verify(findings),
            other => ServiceError::Compile(other.to_string()),
        })?;
    let executor = if job.noisy {
        PulseExecutor::new(&data.device)
    } else {
        PulseExecutor::noiseless(&data.device)
    };
    let mut rng = seeded(stream_seed(job.seed, EXEC_STREAM));
    // The integrations fan out over the cores idle workers leave free
    // (none at saturation); the grant hands them back however the run
    // ends. Counts are bit-identical at every pool size.
    let outcome = {
        let grant = inner.cores.claim();
        executor.try_run_pooled(&compiled.program, &mut rng, &ShotPool::new(grant.cores))
    }
    .map_err(ServiceError::Exec)?;
    let counts = outcome.sample_counts_deterministic(job.seed, job.shots);
    let ideal = job.circuit.output_distribution();
    let measured = counts_to_distribution(&counts);
    let fidelity = hellinger_fidelity(&ideal, &measured);
    Ok(Arc::new(JobOutput {
        key,
        num_qubits: job.circuit.num_qubits(),
        assembly_qasm: qasm::print(&compiled.basis),
        duration_dt: compiled.duration(),
        pulse_count: compiled.pulse_count(),
        counts,
        fidelity,
        completed_tick: inner.cfg.clock.as_ref().map_or(0, |clock| clock()),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_use(budget: &CoreBudget) -> usize {
        budget.in_use.load(Ordering::Relaxed)
    }

    #[test]
    fn claims_borrow_only_the_cores_no_running_job_counts() {
        let budget = CoreBudget::new(4);
        let first = budget.claim();
        assert_eq!(first.cores, 4, "a lone job borrows every other core");
        let second = budget.claim();
        assert_eq!(second.cores, 1, "a job always gets its own core");
        assert_eq!(in_use(&budget), 5);
        drop(first);
        let third = budget.claim();
        assert_eq!(third.cores, 3, "the running job keeps its core");
        assert_eq!(in_use(&budget), 4);
        drop((second, third));
        assert_eq!(in_use(&budget), 0);
    }

    #[test]
    fn concurrent_claims_never_borrow_more_than_the_free_cores() {
        const WORKERS: usize = 4;
        let budget = CoreBudget::new(WORKERS);
        let borrowed = AtomicUsize::new(0);
        // Each round every worker claims at once and holds its grant until
        // all have claimed: whatever the order, one grant borrows the
        // three free cores and the rest get their own core alone. The
        // threads only record what they see, so a failure cannot strand
        // the others at the barrier.
        let all = std::sync::Barrier::new(WORKERS);
        let seen: Vec<(usize, usize, usize)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..WORKERS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut seen = Vec::new();
                        for _ in 0..200 {
                            let grant = budget.claim();
                            let helpers = grant.cores.saturating_sub(1);
                            borrowed.fetch_add(helpers, Ordering::Relaxed);
                            all.wait();
                            let held = borrowed.load(Ordering::Relaxed);
                            seen.push((grant.cores, held, in_use(&budget)));
                            all.wait();
                            borrowed.fetch_sub(helpers, Ordering::Relaxed);
                            drop(grant);
                            all.wait();
                        }
                        seen
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("claiming thread"))
                .collect()
        });
        for (cores, held, in_use) in seen {
            assert!(cores >= 1, "a job always gets its own core");
            assert_eq!(held, WORKERS - 1, "helpers held at once");
            assert_eq!(in_use, 2 * WORKERS - 1);
        }
        assert_eq!(in_use(&budget), 0, "every grant handed its cores back");
    }

    #[test]
    fn a_grant_hands_its_cores_back_on_an_early_return() {
        fn run(budget: &CoreBudget, outcome: Result<(), ExecError>) -> Result<usize, ExecError> {
            let grant = budget.claim();
            outcome?;
            Ok(grant.cores)
        }
        let budget = CoreBudget::new(3);
        assert_eq!(run(&budget, Ok(())).ok(), Some(3));
        assert_eq!(in_use(&budget), 0);
        let failed = ExecError::RegisterWidth {
            program: 2,
            device: 1,
        };
        assert!(run(&budget, Err(failed)).is_err());
        assert_eq!(in_use(&budget), 0);
    }

    #[test]
    fn a_workerless_service_grants_no_helpers() {
        let svc = CompileService::new(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        })
        .expect("service start");
        let first = svc.inner.cores.claim();
        let second = svc.inner.cores.claim();
        assert_eq!((first.cores, second.cores), (1, 1));
    }
}
