//! Lowered-sample digest: pins every bit `Lowering::lower` emits.
//!
//! The corpus golden sees a schedule only through its duration, pulse
//! count, counts and fidelity. This test folds the lowered programs of the
//! whole smoke-tier corpus, in both compile modes, into one FNV-1a digest
//! over every instruction start, the bits of every sample's real and
//! imaginary part, and the bits of every `ShiftPhase`. Any change to how
//! pulses are rendered, scaled, shared or placed — down to one ulp of one
//! sample — moves the digest.
//!
//! The pinned value was computed before lowering shared its renders
//! between gates. A deliberate change to the emitted pulses, such as a new
//! tune-up that calibrates different amplitudes, re-pins it.
//!
//! Re-pinned once, `0x4a2a_bd18_aaad_d25e` → `0x5574_7855_268f_e39e`, when
//! the 3×3 block exponentials moved to kernels that use Hermiticity (a
//! `cos − i·sin` series and a closed-form 2×2⊕1 block). The tune-up
//! integrates its probes on them, so calibrated amplitudes moved by ulps;
//! no count-level output moved.

use pulse_compiler::CompileMode;
use quant_corpus::{compile_circuit, generate, Tier};
use quant_device::{
    Block, CalStore, Calibration, CalibrationOptions, DeviceModel, LoweredProgram, ProbeCache,
    ShotPool,
};
use quant_math::{fnv1a, seeded, stream_seed, FNV_OFFSET};
use quant_pulse::{Instruction, Schedule};
use rand::Rng;

/// Digest of the smoke tier lowered on the corpus's default device seed.
const PINNED: u64 = 0x5574_7855_268f_e39e;

fn fold_schedule(mut h: u64, schedule: &Schedule) -> u64 {
    h = fnv1a(h, schedule.instructions().len() as u64);
    for ti in schedule.instructions() {
        h = fnv1a(h, ti.start);
        match &ti.instruction {
            Instruction::Play { waveform, .. } => {
                h = fnv1a(h, waveform.duration());
                for s in waveform.samples() {
                    h = fnv1a(h, s.re.to_bits());
                    h = fnv1a(h, s.im.to_bits());
                }
            }
            Instruction::ShiftPhase { phase, .. } => h = fnv1a(h, phase.to_bits()),
            other => h = fnv1a(h, other.duration()),
        }
    }
    h
}

fn fold_program(mut h: u64, program: &LoweredProgram) -> u64 {
    for block in &program.blocks {
        match block {
            Block::Gate1Q { waveforms, .. } => {
                for w in waveforms {
                    for s in w.samples() {
                        h = fnv1a(h, s.re.to_bits());
                        h = fnv1a(h, s.im.to_bits());
                    }
                }
            }
            Block::Gate2Q { schedule, .. } => h = fold_schedule(h, schedule),
            Block::Idle { duration, .. } => h = fnv1a(h, *duration),
        }
    }
    fold_schedule(h, &program.schedule)
}

/// The corpus report's backend for one register width, calibrated
/// without the snapshot store or a thread pool (neither changes a bit).
fn backend(width: u32) -> (DeviceModel, Calibration) {
    let mut rng = seeded(stream_seed(7, width as u64));
    let device = DeviceModel::almaden_like(width as usize, &mut rng);
    let root = rng.gen::<u64>();
    let calibration = Calibration::run_seeded_with(
        &device,
        &CalibrationOptions::default(),
        root,
        &CalStore::disabled(),
        &ShotPool::serial(),
        &ProbeCache::new(),
    );
    (device, calibration)
}

#[test]
fn smoke_tier_lowering_is_bit_identical() {
    let mut backends: Vec<(u32, DeviceModel, Calibration)> = Vec::new();
    let mut h = FNV_OFFSET;
    for entry in generate(Tier::Smoke) {
        let i = match backends.iter().position(|(w, _, _)| *w == entry.width) {
            Some(i) => i,
            None => {
                let (device, calibration) = backend(entry.width);
                backends.push((entry.width, device, calibration));
                backends.len() - 1
            }
        };
        let (_, device, calibration) = &backends[i];
        for mode in [CompileMode::Standard, CompileMode::Optimized] {
            let cc = compile_circuit(device, calibration, &entry.circuit, mode)
                .unwrap_or_else(|e| panic!("{} ({mode:?}): {e}", entry.name));
            h = fold_program(h, &cc.compiled.program);
        }
    }
    assert_eq!(h, PINNED, "lowered-sample digest moved: {h:#018x}");
}
