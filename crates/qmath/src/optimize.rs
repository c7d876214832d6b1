//! Derivative-free optimization.
//!
//! The paper computes Table 2's parametrized-gate decompositions with SciPy's
//! COBYLA under a ≥99.9 % fidelity constraint. Our from-scratch stand-in is
//! [`nelder_mead`], the classic simplex method, run from random restarts by
//! the compiler's decomposition searches and the VQE/QAOA classical outer
//! loops.

/// Options controlling a [`nelder_mead`] run.
#[derive(Clone, Debug)]
pub struct NelderMeadOptions {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Terminate when the simplex's objective spread falls below this.
    pub f_tol: f64,
    /// Terminate when the simplex's diameter falls below this.
    pub x_tol: f64,
    /// Initial simplex edge length.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_evals: 4000,
            f_tol: 1e-12,
            x_tol: 1e-10,
            initial_step: 0.5,
        }
    }
}

/// Result of an optimization run.
#[derive(Clone, Debug)]
pub struct OptimizeResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
}

/// Minimizes `f` with the Nelder–Mead simplex method starting from `x0`.
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> OptimizeResult {
    let n = x0.len();
    assert!(n > 0, "cannot optimize a zero-dimensional problem");
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| {
        *evals += 1;
        f(x)
    };

    // Initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let f0 = eval(x0, &mut evals);
    simplex.push((x0.to_vec(), f0));
    for i in 0..n {
        let mut xi = x0.to_vec();
        xi[i] += opts.initial_step;
        let fi = eval(&xi, &mut evals);
        simplex.push((xi, fi));
    }

    while evals < opts.max_evals {
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let f_best = simplex[0].1;
        let f_worst = simplex[n].1;
        let diam = simplex
            .iter()
            .skip(1)
            .map(|(x, _)| {
                x.iter()
                    .zip(&simplex[0].0)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max);
        if (f_worst - f_best).abs() < opts.f_tol && diam < opts.x_tol {
            break;
        }

        // Centroid of all but the worst point.
        let mut centroid = vec![0.0; n];
        for (x, _) in simplex.iter().take(n) {
            for (ci, xi) in centroid.iter_mut().zip(x) {
                *ci += xi / n as f64;
            }
        }

        let worst = simplex[n].clone();
        let reflect: Vec<f64> = centroid
            .iter()
            .zip(&worst.0)
            .map(|(c, w)| c + alpha * (c - w))
            .collect();
        let f_reflect = eval(&reflect, &mut evals);

        if f_reflect < simplex[0].1 {
            // Try expanding.
            let expand: Vec<f64> = centroid
                .iter()
                .zip(&worst.0)
                .map(|(c, w)| c + gamma * (c - w))
                .collect();
            let f_expand = eval(&expand, &mut evals);
            simplex[n] = if f_expand < f_reflect {
                (expand, f_expand)
            } else {
                (reflect, f_reflect)
            };
        } else if f_reflect < simplex[n - 1].1 {
            simplex[n] = (reflect, f_reflect);
        } else {
            // Contract.
            let contract: Vec<f64> = centroid
                .iter()
                .zip(&worst.0)
                .map(|(c, w)| c + rho * (w - c))
                .collect();
            let f_contract = eval(&contract, &mut evals);
            if f_contract < worst.1 {
                simplex[n] = (contract, f_contract);
            } else {
                // Shrink towards the best point.
                let best = simplex[0].0.clone();
                for entry in simplex.iter_mut().skip(1) {
                    for (xi, bi) in entry.0.iter_mut().zip(&best) {
                        *xi = bi + sigma * (*xi - bi);
                    }
                    entry.1 = eval(&entry.0, &mut evals);
                }
            }
        }
    }

    simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
    OptimizeResult {
        x: simplex[0].0.clone(),
        fx: simplex[0].1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_quadratic_bowl() {
        let r = nelder_mead(
            |x| (x[0] - 1.0).powi(2) + 2.0 * (x[1] + 0.5).powi(2),
            &[5.0, 5.0],
            &NelderMeadOptions::default(),
        );
        assert!((r.x[0] - 1.0).abs() < 1e-5, "x0 = {}", r.x[0]);
        assert!((r.x[1] + 0.5).abs() < 1e-5, "x1 = {}", r.x[1]);
        assert!(r.fx < 1e-9);
    }

    #[test]
    fn nelder_mead_rosenbrock_2d() {
        let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let opts = NelderMeadOptions {
            max_evals: 20_000,
            ..Default::default()
        };
        let r = nelder_mead(rosen, &[-1.2, 1.0], &opts);
        assert!(r.fx < 1e-8, "rosenbrock fx = {}", r.fx);
    }

    #[test]
    fn eval_budget_respected() {
        let opts = NelderMeadOptions {
            max_evals: 50,
            ..Default::default()
        };
        let mut count = 0usize;
        let _ = nelder_mead(
            |x| {
                count += 1;
                x[0] * x[0]
            },
            &[1.0, 1.0, 1.0],
            &opts,
        );
        // A few extra evaluations are allowed for the move that crosses the
        // boundary, but it must stay in the same order of magnitude.
        assert!(count <= 60, "used {count} evaluations");
    }
}
