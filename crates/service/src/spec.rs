//! Job specifications and their content-addressed keys.

use pulse_compiler::CompileMode;
use quant_circuit::{Circuit, Gate};
use quant_device::DeviceModel;
use quant_math::{fnv1a, fnv1a_bytes, seeded, FNV_OFFSET};

/// Bumped whenever the service's execution semantics change, so stale
/// dedup keys from older algorithm versions can never alias new results
/// (mirrors `CAL_ALGO_VERSION` on calibration snapshots).
pub const SERVICE_ALGO_VERSION: u64 = 2;

/// Which simulated backend family a job targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// Single-qubit Armonk-like device (`qubits` must be 1).
    Armonk,
    /// Almaden-like line topology at the requested width.
    Almaden,
}

impl DeviceKind {
    /// Stable lower-case name (used by the wire protocol and CLI).
    pub fn name(&self) -> &'static str {
        match self {
            DeviceKind::Armonk => "armonk",
            DeviceKind::Almaden => "almaden",
        }
    }

    /// Parses [`DeviceKind::name`] back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "armonk" => Some(DeviceKind::Armonk),
            "almaden" => Some(DeviceKind::Almaden),
            _ => None,
        }
    }
}

/// A deterministic device description: kind + width + parameter-draw seed.
///
/// Two jobs with equal specs share one calibration shard; the spec is the
/// whole identity of the device (the model is rebuilt from it bit-for-bit
/// on any worker).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Backend family.
    pub kind: DeviceKind,
    /// Register width (ignored for Armonk, which is always 1 qubit).
    pub qubits: u32,
    /// Seed for the device parameter draws *and* the calibration root.
    pub seed: u64,
}

impl DeviceSpec {
    /// Creates a spec.
    pub fn new(kind: DeviceKind, qubits: u32, seed: u64) -> Self {
        DeviceSpec { kind, qubits, seed }
    }

    /// The shard key: FNV-1a over the spec's identity. Equal specs — and
    /// only equal specs — land on the same calibration shard.
    pub fn shard_key(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, SERVICE_ALGO_VERSION);
        h = fnv1a(
            h,
            match self.kind {
                DeviceKind::Armonk => 1,
                DeviceKind::Almaden => 2,
            },
        );
        h = fnv1a(h, self.qubits as u64);
        fnv1a(h, self.seed)
    }

    /// Effective register width.
    pub fn num_qubits(&self) -> u32 {
        match self.kind {
            DeviceKind::Armonk => 1,
            DeviceKind::Almaden => self.qubits,
        }
    }

    /// Builds the device model and the calibration root seed. The RNG
    /// draw order matches the `opc` CLI (device parameters first, then
    /// one `u64` for the calibration root), so a service job on
    /// `(Almaden, n, seed)` sees exactly the device `opc --seed seed`
    /// builds.
    pub fn build(&self) -> (DeviceModel, u64) {
        use rand::Rng;
        let mut rng = seeded(self.seed);
        let device = match self.kind {
            DeviceKind::Armonk => DeviceModel::armonk_like(&mut rng),
            DeviceKind::Almaden => DeviceModel::almaden_like(self.qubits as usize, &mut rng),
        };
        let root = rng.gen::<u64>();
        (device, root)
    }
}

/// The program payload of a job.
#[derive(Clone, Debug, PartialEq)]
pub enum CircuitSource {
    /// OpenQASM 2.0 text (parsed — and rejected with a typed error — at
    /// submit time, before the job consumes queue space).
    Qasm(String),
    /// Already-constructed circuit IR.
    Ir(Circuit),
}

/// A compile+simulate request.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Target device.
    pub device: DeviceSpec,
    /// Program.
    pub circuit: CircuitSource,
    /// Compilation flow.
    pub mode: CompileMode,
    /// Measurement shots to sample.
    pub shots: usize,
    /// Root seed for execution randomness and shot sampling.
    pub seed: u64,
    /// Full noise model (`true`) or noiseless pulse physics (`false`).
    pub noisy: bool,
}

impl JobSpec {
    /// A QASM job with the service defaults: optimized flow, 4000 noisy
    /// shots, seed 7.
    pub fn qasm(device: DeviceSpec, source: impl Into<String>) -> Self {
        JobSpec {
            device,
            circuit: CircuitSource::Qasm(source.into()),
            mode: CompileMode::Optimized,
            shots: 4000,
            seed: 7,
            noisy: true,
        }
    }

    /// An IR job with the same defaults as [`JobSpec::qasm`].
    pub fn ir(device: DeviceSpec, circuit: Circuit) -> Self {
        JobSpec {
            device,
            circuit: CircuitSource::Ir(circuit),
            mode: CompileMode::Optimized,
            shots: 4000,
            seed: 7,
            noisy: true,
        }
    }
}

/// Parameter words of a gate, by exact bit pattern (the same "floats enter
/// the key verbatim" rule the pulse cache uses — dedup must never equate
/// almost-equal angles).
fn gate_params(gate: &Gate) -> [u64; 3] {
    match *gate {
        Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) | Gate::DirectRx(a) | Gate::Cr(a) | Gate::Zz(a) => {
            [a.to_bits(), 0, 0]
        }
        Gate::FSim(a, b) => [a.to_bits(), b.to_bits(), 0],
        Gate::U3(a, b, c) => [a.to_bits(), b.to_bits(), c.to_bits()],
        _ => [0, 0, 0],
    }
}

/// The content-addressed job key: FNV-1a over everything that can change
/// the result — algorithm version, device spec, compile mode, shot count,
/// execution seed, noise flag, and the full resolved op list (gate
/// mnemonic, exact parameter bits, operand qubits). Two submissions with
/// equal keys are the same computation and may share one result.
pub fn job_key(
    device: &DeviceSpec,
    circuit: &Circuit,
    mode: CompileMode,
    shots: usize,
    seed: u64,
    noisy: bool,
) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, SERVICE_ALGO_VERSION);
    h = fnv1a(h, device.shard_key());
    h = fnv1a(
        h,
        match mode {
            CompileMode::Standard => 1,
            CompileMode::Optimized => 2,
        },
    );
    h = fnv1a(h, shots as u64);
    h = fnv1a(h, seed);
    h = fnv1a(h, noisy as u64);
    h = fnv1a(h, circuit.num_qubits() as u64);
    h = fnv1a(h, circuit.len() as u64);
    for op in circuit.ops() {
        h = fnv1a_bytes(h, op.gate.name().as_bytes());
        for w in gate_params(&op.gate) {
            h = fnv1a(h, w);
        }
        for &q in &op.qubits {
            h = fnv1a(h, q as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        c
    }

    #[test]
    fn key_value_is_pinned() {
        // Dedup keys must not move silently: pin one value, covering the
        // word fold, the gate-name byte fold and the parameter bits.
        let d = DeviceSpec::new(DeviceKind::Almaden, 2, 7);
        let mut c = bell();
        c.rx(1, 0.25);
        let key = job_key(&d, &c, CompileMode::Optimized, 4000, 7, true);
        assert_eq!(key, 0x3475_6b19_b408_cc81);
    }

    #[test]
    fn equal_jobs_share_a_key() {
        let d = DeviceSpec::new(DeviceKind::Almaden, 2, 7);
        let a = job_key(&d, &bell(), CompileMode::Optimized, 4000, 7, true);
        let b = job_key(&d, &bell(), CompileMode::Optimized, 4000, 7, true);
        assert_eq!(a, b);
    }

    #[test]
    fn every_field_discriminates() {
        let d = DeviceSpec::new(DeviceKind::Almaden, 2, 7);
        let base = job_key(&d, &bell(), CompileMode::Optimized, 4000, 7, true);
        let d2 = DeviceSpec::new(DeviceKind::Almaden, 2, 8);
        assert_ne!(
            base,
            job_key(&d2, &bell(), CompileMode::Optimized, 4000, 7, true)
        );
        assert_ne!(
            base,
            job_key(&d, &bell(), CompileMode::Standard, 4000, 7, true)
        );
        assert_ne!(
            base,
            job_key(&d, &bell(), CompileMode::Optimized, 4001, 7, true)
        );
        assert_ne!(
            base,
            job_key(&d, &bell(), CompileMode::Optimized, 4000, 8, true)
        );
        assert_ne!(
            base,
            job_key(&d, &bell(), CompileMode::Optimized, 4000, 7, false)
        );
        let mut other = bell();
        other.x(1);
        assert_ne!(
            base,
            job_key(&d, &other, CompileMode::Optimized, 4000, 7, true)
        );
    }

    #[test]
    fn parameter_bits_discriminate() {
        let d = DeviceSpec::new(DeviceKind::Almaden, 1, 7);
        let mut a = Circuit::new(1);
        a.rx(0, 0.5);
        let mut b = Circuit::new(1);
        b.rx(0, 0.5 + 1e-17);
        let ka = job_key(&d, &a, CompileMode::Optimized, 100, 7, true);
        let kb = job_key(&d, &b, CompileMode::Optimized, 100, 7, true);
        // 0.5 + 1e-17 rounds back to 0.5 in f64 — same bits, same key.
        assert_eq!(ka, kb);
        let mut c = Circuit::new(1);
        c.rx(0, 0.5000001);
        assert_ne!(ka, job_key(&d, &c, CompileMode::Optimized, 100, 7, true));
    }

    #[test]
    fn device_build_matches_width() {
        let (dev, _) = DeviceSpec::new(DeviceKind::Almaden, 3, 5).build();
        assert_eq!(dev.num_qubits(), 3);
        let (dev, _) = DeviceSpec::new(DeviceKind::Armonk, 1, 5).build();
        assert_eq!(dev.num_qubits(), 1);
    }
}
