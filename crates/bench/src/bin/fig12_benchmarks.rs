//! Figure 12: error (Hellinger distance) reduction across the six
//! near-term algorithm benchmarks.
//!
//! Paper result (96 k shots on Almaden): mean error reduction 1.55×; the
//! largest benchmark (5-qubit QAOA) improves 2.32× (33.7 % → 14.5 %).
//!
//! ```text
//! cargo run --release -p repro-bench --bin fig12_benchmarks
//! ```

use quant_algos::{molecules, trotter, vqe, LineGraph};
use quant_circuit::Circuit;
use quant_corpus::{PipelineConfig, PipelineError};
use quant_device::ShotPool;
use repro_bench::{compare_flows, qaoa_line_circuit, write_json, ExperimentRecord, Setup};

fn vqe_benchmark(m: &quant_algos::Molecule) -> Circuit {
    let r = vqe::solve(&m.hamiltonian);
    vqe::ucc_ansatz(r.theta)
}

fn qaoa_benchmark(n: usize) -> Circuit {
    let g = LineGraph::new(n);
    let ((gamma, beta), _) = g.solve_p1();
    g.qaoa_circuit(&[(gamma, beta)])
}

fn dynamics_benchmark(m: &quant_algos::Molecule) -> Circuit {
    // 6 Trotter steps, as in the paper.
    trotter::trotter_circuit(&m.hamiltonian, 3.0, 6)
}

/// Trajectories for the 12-qubit row. The count was fixed from a target
/// set before the verdict was read: a standard error of at most 0.5
/// percentage points on each flow's Hellinger error, estimated as the
/// spread over 8 independent trajectory roots at this row's jitter lane.
/// Measured: 0.96 / 0.39 pp (standard / optimized) at 128 trajectories,
/// 0.66 / 0.34 pp at 512, 0.40 / 0.38 pp at 1024.
const TRAJECTORIES_12Q: usize = 1024;

fn main() -> Result<(), PipelineError> {
    let shots = 8000;
    println!("Figure 12 — benchmark error (Hellinger distance), standard vs optimized");
    println!("(paper: mean reduction 1.55x; 5-qubit QAOA 2.32x, 33.7% → 14.5%)\n");
    println!(
        "{:<18} {:>10} {:>10} {:>9} {:>9}",
        "benchmark", "std err", "opt err", "err red.", "speedup"
    );

    let benchmarks: Vec<(&str, Circuit, usize)> = vec![
        ("H2 VQE", vqe_benchmark(&molecules::h2()), 2),
        ("LiH VQE", vqe_benchmark(&molecules::lih()), 2),
        ("QAOA-4 MAXCUT", qaoa_benchmark(4), 4),
        ("QAOA-5 MAXCUT", qaoa_benchmark(5), 5),
        ("CH4 dynamics", dynamics_benchmark(&molecules::methane()), 2),
        ("H2O dynamics", dynamics_benchmark(&molecules::water()), 2),
    ];

    // Each benchmark is seeded by its index, so fanning them across the
    // pool reproduces the serial results bit-for-bit.
    let pool = ShotPool::from_env();
    let comparisons = pool.map(&benchmarks, |i, (_, circuit, n)| {
        let setup = Setup::almaden(*n, 1000 + i as u64);
        let config = PipelineConfig {
            shots,
            seed: 2000 + i as u64,
            ..PipelineConfig::default()
        };
        compare_flows(&setup, circuit, &config, &ShotPool::serial())
    });
    let comparisons = comparisons.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut reductions = Vec::new();
    let mut speedups = Vec::new();
    let mut records = Vec::new();
    for ((name, _, _), cmp) in benchmarks.iter().zip(&comparisons) {
        reductions.push(cmp.error_reduction());
        speedups.push(cmp.speedup());
        records.push(ExperimentRecord {
            name: name.to_string(),
            comparison: cmp.clone(),
        });
        println!(
            "{:<18} {:>9.2}% {:>9.2}% {:>8.2}x {:>8.2}x",
            name,
            100.0 * cmp.error_standard,
            100.0 * cmp.error_optimized,
            cmp.error_reduction(),
            cmp.speedup()
        );
    }

    let geo_mean = reductions.iter().map(|r| r.ln()).sum::<f64>() / reductions.len() as f64;
    let mean_speedup = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!(
        "\nmean error reduction: {:.2}x (geometric)   mean speedup: {:.2}x",
        geo_mean.exp(),
        mean_speedup
    );
    println!("paper reference      : 1.55x                 ~2x");

    // Past the paper's 5-qubit ceiling: the same comparison on a 12-qubit
    // linear topology through the trajectory executor (the exact density
    // path stops at 6 qubits). Fixed angles keep the setup off the
    // exponential `solve_p1` search; the row is recorded alongside the
    // six density benchmarks but excluded from the paper-reference means.
    let name = "QAOA-12 MAXCUT (trajectory)";
    let setup = Setup::almaden(12, 1012);
    let circuit = qaoa_line_circuit(12, Some((0.7, 0.42)));
    let config = PipelineConfig {
        shots,
        seed: 2012,
        trajectories: TRAJECTORIES_12Q,
        ..PipelineConfig::default()
    };
    let cmp = compare_flows(&setup, &circuit, &config, &pool)?;
    records.push(ExperimentRecord {
        name: name.to_string(),
        comparison: cmp.clone(),
    });
    println!(
        "\n{:<27} {:>9.2}% {:>9.2}% {:>8.2}x {:>8.2}x",
        name,
        100.0 * cmp.error_standard,
        100.0 * cmp.error_optimized,
        cmp.error_reduction(),
        cmp.speedup()
    );
    if std::path::Path::new("results").is_dir()
        && write_json("results/fig12_benchmarks.json", &records).is_ok()
    {
        println!("(machine-readable copy: results/fig12_benchmarks.json)");
    }
    Ok(())
}
