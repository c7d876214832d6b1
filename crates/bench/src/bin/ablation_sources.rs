//! Ablation: which noise mechanism pays for which optimization?
//!
//! §8.3 of the paper attributes the fidelity gains to (1) shorter pulses
//! (less decoherence), (2) fewer calibrated pulses (less calibration-error
//! exposure), and (3) smaller amplitudes (less leakage). Our simulator lets
//! us do what hardware cannot: switch the mechanisms off one at a time and
//! rerun the comparison. For each configuration we report the
//! standard-vs-optimized Hellinger errors on a ZZ-heavy benchmark.
//!
//! ```text
//! cargo run --release -p repro-bench --bin ablation_sources
//! ```

use pulse_compiler::{CompileMode, Compiler};
use quant_char::hellinger_distance;
use quant_circuit::Circuit;
use quant_corpus::PipelineError;
use quant_device::{calibrate, DeviceModel, DriftParams, PulseExecutor};
use quant_math::seeded;

fn benchmark_circuit() -> Circuit {
    // Three textbook ZZ layers with mixers — QAOA-flavoured.
    let mut c = Circuit::new(3);
    for q in 0..3 {
        c.h(q);
    }
    for _ in 0..2 {
        for e in 0..2u32 {
            c.cnot(e, e + 1).rz(e + 1, 0.9).cnot(e, e + 1);
        }
        for q in 0..3 {
            c.rx(q, 0.7);
        }
    }
    c
}

struct Config {
    name: &'static str,
    drift: bool,
    jitter: bool,
    decoherence: bool,
    spam_readout: bool,
}

fn main() -> Result<(), PipelineError> {
    let configs = [
        Config {
            name: "full noise model",
            drift: true,
            jitter: true,
            decoherence: true,
            spam_readout: true,
        },
        Config {
            name: "no calibration drift",
            drift: false,
            jitter: true,
            decoherence: true,
            spam_readout: true,
        },
        Config {
            name: "no pulse jitter",
            drift: true,
            jitter: false,
            decoherence: true,
            spam_readout: true,
        },
        Config {
            name: "no decoherence",
            drift: true,
            jitter: true,
            decoherence: false,
            spam_readout: true,
        },
        Config {
            name: "no SPAM/readout",
            drift: true,
            jitter: true,
            decoherence: true,
            spam_readout: false,
        },
        Config {
            name: "coherent sources only",
            drift: true,
            jitter: true,
            decoherence: false,
            spam_readout: false,
        },
        Config {
            name: "decoherence only",
            drift: false,
            jitter: false,
            decoherence: true,
            spam_readout: false,
        },
    ];
    let circuit = benchmark_circuit();
    let ideal = circuit.output_distribution();

    println!("Ablation — noise mechanisms vs optimization gains (3q ZZ benchmark)\n");
    println!(
        "{:<24} {:>10} {:>10} {:>9}",
        "configuration", "std err", "opt err", "err red."
    );
    for (i, cfg) in configs.iter().enumerate() {
        let mut rng = seeded(3_000 + i as u64);
        let mut device = DeviceModel::almaden_like(3, &mut rng);
        if !cfg.drift {
            device.set_drift(DriftParams::ideal(), &mut rng);
        }
        if !cfg.jitter {
            device.set_pulse_amp_jitter(0.0);
        }
        if !cfg.decoherence {
            // Replace with an effectively decoherence-free twin: rebuild
            // from the ideal preset but keep the other knobs.
            let mut fresh = DeviceModel::ideal(3);
            if cfg.drift {
                fresh.set_drift(DriftParams::almaden_like(), &mut rng);
            }
            fresh.set_pulse_amp_jitter(if cfg.jitter { 6.0e-4 } else { 0.0 });
            if cfg.spam_readout {
                fresh.set_reset_excited_prob(0.012);
            }
            device = fresh;
        }
        if !cfg.spam_readout {
            device.set_reset_excited_prob(0.0);
        }
        let cal = calibrate(&device, &mut rng);
        let mut errs = [0.0_f64; 2];
        for (m, mode) in [CompileMode::Standard, CompileMode::Optimized]
            .into_iter()
            .enumerate()
        {
            let compiled = Compiler::new(&device, &cal, mode).compile(&circuit)?;
            let exec = PulseExecutor::new(&device);
            // Average a few drift/jitter realizations.
            let mut dist = vec![0.0; ideal.len()];
            let runs = 6;
            for _ in 0..runs {
                let out = exec.try_run(&compiled.program, &mut rng)?;
                let probs = if cfg.spam_readout {
                    out.probabilities
                } else {
                    out.true_probabilities
                };
                for (d, p) in dist.iter_mut().zip(&probs) {
                    *d += p / runs as f64;
                }
            }
            errs[m] = hellinger_distance(&ideal, &dist);
        }
        println!(
            "{:<24} {:>9.2}% {:>9.2}% {:>8.2}x",
            cfg.name,
            100.0 * errs[0],
            100.0 * errs[1],
            errs[0] / errs[1].max(1e-9)
        );
    }
    println!("\nReading: decoherence (duration-scaled) is the mechanism the paper's");
    println!("shorter schedules attack; drift/jitter exposure falls with pulse count;");
    println!("SPAM/readout residuals are flow-independent and cap the achievable gain.");
    Ok(())
}
