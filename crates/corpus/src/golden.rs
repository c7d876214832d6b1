//! Golden-summary rendering and ratchet comparison.
//!
//! The committed golden file (`crates/corpus/golden/corpus_smoke.txt`)
//! captures every deterministic metric of the smoke-tier corpus, one line
//! per circuit. Floats are stored as `f64::to_bits` hex so the comparison
//! is bit-exact — "close enough" drift is exactly what the ratchet exists
//! to catch. Wall-clock columns never appear here.
//!
//! The regression test renders the current run with [`render`] and diffs
//! it against the committed file with [`diff`]; any difference fails, and
//! each differing field is classified so the failure message says whether
//! the change is a **regression** (schedule got longer, fidelity dropped),
//! an improvement, or a neutral drift — all three require a deliberate
//! re-bless (`OPC_CORPUS_BLESS=1`).

use crate::report::CorpusReport;
use std::fmt::Write as _;

/// Renders a report as golden-summary text (one header line, then one
/// line per circuit, in generation order).
pub fn render(report: &CorpusReport) -> String {
    let mut out = String::new();
    let tier = report.tier.name();
    let _ = writeln!(
        out,
        "corpus tier={tier} shots={} seed={} device_seed={} checksum={:016x}",
        report.shots,
        report.seed,
        report.device_seed,
        report.checksum()
    );
    for c in &report.circuits {
        let _ = writeln!(
            out,
            "{} family={} width={} exec={} \
             std_swaps={} opt_swaps={} std_depth={} opt_depth={} \
             std_2q={} opt_2q={} std_dur={} opt_dur={} \
             std_pulses={} opt_pulses={} \
             std_fid_bits={:016x} opt_fid_bits={:016x} \
             std_counts={:016x} opt_counts={:016x} \
             std_verified={} opt_verified={}",
            c.name,
            c.family,
            c.width,
            c.optimized.executor.name(),
            c.standard.swaps,
            c.optimized.swaps,
            c.standard.depth,
            c.optimized.depth,
            c.standard.two_qubit_gates,
            c.optimized.two_qubit_gates,
            c.standard.duration_dt,
            c.optimized.duration_dt,
            c.standard.pulse_count,
            c.optimized.pulse_count,
            c.standard.fidelity.to_bits(),
            c.optimized.fidelity.to_bits(),
            c.standard.counts_checksum,
            c.optimized.counts_checksum,
            c.standard.verified,
            c.optimized.verified,
        );
    }
    out
}

/// One line parsed into `(key, fields)` where fields keep file order.
fn parse_line(line: &str) -> Option<(String, Vec<(String, String)>)> {
    let mut tokens = line.split_whitespace();
    let key = tokens.next()?.to_string();
    let mut fields = Vec::new();
    for tok in tokens {
        let (k, v) = tok.split_once('=')?;
        fields.push((k.to_string(), v.to_string()));
    }
    Some((key, fields))
}

fn lookup<'a>(fields: &'a [(String, String)], key: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Classifies a single changed field for the failure message.
fn classify(field: &str, golden: &str, current: &str) -> &'static str {
    let as_u64 = |s: &str, hex: bool| -> Option<u64> {
        if hex {
            u64::from_str_radix(s, 16).ok()
        } else {
            s.parse().ok()
        }
    };
    match field {
        "std_dur" | "opt_dur" => match (as_u64(golden, false), as_u64(current, false)) {
            (Some(g), Some(c)) if c > g => "REGRESSION (schedule longer)",
            (Some(g), Some(c)) if c < g => "improvement (schedule shorter)",
            _ => "changed",
        },
        "std_fid_bits" | "opt_fid_bits" => {
            let fid = |s: &str| as_u64(s, true).map(f64::from_bits);
            match (fid(golden), fid(current)) {
                (Some(g), Some(c)) if c < g => "REGRESSION (fidelity down)",
                (Some(g), Some(c)) if c > g => "improvement (fidelity up)",
                _ => "changed",
            }
        }
        "std_counts" | "opt_counts" => "changed (counts differ — determinism suspect)",
        "std_verified" | "opt_verified" => match (golden, current) {
            ("true", "false") => "REGRESSION (schedule no longer verifies)",
            ("false", "true") => "improvement (schedule now verifies)",
            _ => "changed",
        },
        _ => "changed",
    }
}

/// Field-level diff of two golden texts. Returns one human-readable line
/// per difference; empty means bit-identical.
pub fn diff(golden: &str, current: &str) -> Vec<String> {
    let mut out = Vec::new();
    let parse_all = |text: &str| -> Vec<(String, Vec<(String, String)>)> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(parse_line)
            .collect()
    };
    let g = parse_all(golden);
    let c = parse_all(current);

    for (key, gf) in &g {
        match c.iter().find(|(k, _)| k == key) {
            None => out.push(format!("{key}: missing from current run")),
            Some((_, cf)) => {
                for (field, gv) in gf {
                    match lookup(cf, field) {
                        None => out.push(format!("{key}: field {field} missing")),
                        Some(cv) if cv != gv => out.push(format!(
                            "{key}: {field} {gv} -> {cv} [{}]",
                            classify(field, gv, cv)
                        )),
                        Some(_) => {}
                    }
                }
                for (field, _) in cf {
                    if lookup(gf, field).is_none() {
                        out.push(format!("{key}: new field {field}"));
                    }
                }
            }
        }
    }
    for (key, _) in &c {
        if !g.iter().any(|(k, _)| k == key) {
            out.push(format!("{key}: not in golden (new circuit — re-bless)"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = "corpus tier=smoke shots=64 seed=7 device_seed=7 checksum=00000000000000aa\n\
                          qft_n2 family=qft std_dur=100 opt_dur=80 std_fid_bits=3fe0000000000000 std_counts=00000000000000bb\n";

    #[test]
    fn identical_text_has_no_diff() {
        assert!(diff(GOLDEN, GOLDEN).is_empty());
    }

    #[test]
    fn longer_schedule_is_a_regression() {
        let current = GOLDEN.replace("opt_dur=80", "opt_dur=90");
        let d = diff(GOLDEN, &current);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("REGRESSION (schedule longer)"), "{d:?}");
    }

    #[test]
    fn shorter_schedule_is_an_improvement_but_still_a_diff() {
        let current = GOLDEN.replace("opt_dur=80", "opt_dur=70");
        let d = diff(GOLDEN, &current);
        assert!(
            d.iter()
                .any(|l| l.contains("improvement (schedule shorter)")),
            "{d:?}"
        );
    }

    #[test]
    fn fidelity_drop_is_a_regression() {
        // 0.5 -> 0.25 (3fd0... < 3fe0... as f64).
        let current = GOLDEN.replace(
            "std_fid_bits=3fe0000000000000",
            "std_fid_bits=3fd0000000000000",
        );
        let d = diff(GOLDEN, &current);
        assert!(
            d.iter().any(|l| l.contains("REGRESSION (fidelity down)")),
            "{d:?}"
        );
    }

    #[test]
    fn count_divergence_points_at_determinism() {
        let current = GOLDEN.replace("std_counts=00000000000000bb", "std_counts=00000000000000bc");
        let d = diff(GOLDEN, &current);
        assert!(d.iter().any(|l| l.contains("determinism suspect")), "{d:?}");
    }

    #[test]
    fn missing_and_new_circuits_are_reported() {
        let current = GOLDEN.replace("qft_n2", "qft_n3");
        let d = diff(GOLDEN, &current);
        assert!(d.iter().any(|l| l.starts_with("qft_n2: missing")), "{d:?}");
        assert!(d.iter().any(|l| l.contains("not in golden")), "{d:?}");
    }
}
