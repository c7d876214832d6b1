//! The top-level compiler: the paper's Figure 1 flow.
//!
//! ```text
//!   program (Circuit)
//!      │  transpiler passes (optimized mode: CD, ABGD, cancellation, merge)
//!      ▼
//!   assembly (Circuit)
//!      │  basis translation (standard: {Rz, U3, CNOT};
//!      ▼   optimized: {Rz, DirectRx, DirectX, CR(θ), CNOT})
//!   basis gates (Circuit)
//!      │  lowering (virtual-Z frames, cmd_def pulses, cancellation peephole)
//!      ▼
//!   pulse schedule (LoweredProgram)
//! ```
//!
//! [`CompileMode::Standard`] reproduces the stock Qiskit flow the paper
//! compares against; [`CompileMode::Optimized`] enables all four of the
//! paper's optimizations.

use crate::lower::{LowerError, LowerOptions, Lowering};
use crate::passes::{baseline_optimize, optimize};
use crate::translate::{to_basis, BasisKind};
use quant_circuit::Circuit;
use quant_device::{Calibration, DeviceModel, LoweredProgram};

/// Compilation mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileMode {
    /// The stock gate-based flow: every 1-qubit gate becomes a two-pulse
    /// U3; every two-qubit operation goes through full CNOTs.
    Standard,
    /// The paper's pulse-optimized flow: direct rotations, cross-gate
    /// pulse cancellation, stretched-CR two-qubit decompositions.
    Optimized,
}

/// The output of compilation, keeping every intermediate stage for
/// inspection (Table 1's rows).
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The input, after transpiler passes (assembly stage).
    pub assembly: Circuit,
    /// The basis-gate stage.
    pub basis: Circuit,
    /// The executable pulse program.
    pub program: LoweredProgram,
}

impl Compiled {
    /// Total schedule duration in `dt` units.
    pub fn duration(&self) -> u64 {
        self.program.duration()
    }

    /// Total pulses played.
    pub fn pulse_count(&self) -> usize {
        self.program.pulse_count()
    }
}

/// The compiler.
pub struct Compiler<'a> {
    device: &'a DeviceModel,
    calibration: &'a Calibration,
    mode: CompileMode,
}

impl<'a> Compiler<'a> {
    /// Creates a compiler for a calibrated device.
    pub fn new(device: &'a DeviceModel, calibration: &'a Calibration, mode: CompileMode) -> Self {
        Compiler {
            device,
            calibration,
            mode,
        }
    }

    /// The active mode.
    pub fn mode(&self) -> CompileMode {
        self.mode
    }

    /// Compiles a circuit down to a pulse program.
    pub fn compile(&self, circuit: &Circuit) -> Result<Compiled, LowerError> {
        let (assembly, kind, lower_opts) = match self.mode {
            CompileMode::Standard => (
                baseline_optimize(circuit),
                BasisKind::Standard,
                LowerOptions {
                    pulse_cancellation: false,
                },
            ),
            CompileMode::Optimized => (
                optimize(circuit),
                BasisKind::Augmented,
                LowerOptions {
                    pulse_cancellation: true,
                },
            ),
        };
        let basis = to_basis(&assembly, kind);
        let lowering = Lowering::new(self.device, self.calibration, lower_opts);
        let program = lowering.lower(&basis)?;
        Ok(Compiled {
            assembly,
            basis,
            program,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_device::{calibrate, PulseExecutor};
    use quant_math::seeded;

    fn setup(n: usize) -> (DeviceModel, Calibration) {
        let device = DeviceModel::ideal(n);
        let mut rng = seeded(5);
        let cal = calibrate(&device, &mut rng);
        (device, cal)
    }

    fn hellinger(p: &[f64], q: &[f64]) -> f64 {
        let s: f64 = p
            .iter()
            .zip(q)
            .map(|(a, b)| (a.sqrt() - b.sqrt()).powi(2))
            .sum();
        (s / 2.0).sqrt()
    }

    #[test]
    fn both_modes_agree_with_ideal() {
        let (device, cal) = setup(2);
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).rz(1, 0.6).cnot(0, 1).h(1);
        let ideal = c.output_distribution();
        for mode in [CompileMode::Standard, CompileMode::Optimized] {
            let compiled = Compiler::new(&device, &cal, mode).compile(&c).unwrap();
            let exec = PulseExecutor::noiseless(&device);
            let mut rng = seeded(9);
            let out = exec
                .try_run(&compiled.program, &mut rng)
                .expect("program runs");
            let h = hellinger(&ideal, &out.probabilities);
            assert!(h < 0.08, "{mode:?}: Hellinger {h}");
        }
    }

    #[test]
    fn optimized_is_faster_on_zz_workloads() {
        let (device, cal) = setup(3);
        // A Trotter-ish layer: chain of textbook ZZ interactions.
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.h(q);
        }
        for e in 0..2u32 {
            c.cnot(e, e + 1).rz(e + 1, 0.7).cnot(e, e + 1);
        }
        let std = Compiler::new(&device, &cal, CompileMode::Standard)
            .compile(&c)
            .unwrap();
        let opt = Compiler::new(&device, &cal, CompileMode::Optimized)
            .compile(&c)
            .unwrap();
        assert!(
            opt.duration() * 3 <= std.duration() * 2,
            "expected ≥1.5× speedup: {} vs {} dt",
            std.duration(),
            opt.duration()
        );
        assert!(opt.pulse_count() < std.pulse_count());
        // The optimized assembly rediscovered the ZZ interactions.
        assert_eq!(opt.assembly.count_gate("zz"), 2);
    }

    #[test]
    fn compiled_stages_are_consistent() {
        let (device, cal) = setup(2);
        let mut c = Circuit::new(2);
        c.x(0).cnot(0, 1).x(0);
        let compiled = Compiler::new(&device, &cal, CompileMode::Optimized)
            .compile(&c)
            .unwrap();
        // Assembly and basis stages stay unitarily equivalent.
        assert!(
            compiled
                .assembly
                .unitary()
                .phase_invariant_diff(&compiled.basis.unitary())
                < 1e-9
        );
    }

    #[test]
    fn error_surfaces_for_uncoupled_pairs() {
        let (device, cal) = setup(3);
        let mut c = Circuit::new(3);
        c.cnot(0, 2);
        let err = Compiler::new(&device, &cal, CompileMode::Standard)
            .compile(&c)
            .unwrap_err();
        assert!(err.to_string().contains("not coupled"));
    }
}
