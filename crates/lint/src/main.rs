//! The `opclint` command-line driver.
//!
//! ```text
//! cargo run -p opclint                  # report findings, exit 0
//! cargo run -p opclint -- --check       # CI gate: exit 1 on any finding
//! cargo run -p opclint -- --check --json   # same gate, machine-readable
//! cargo run -p opclint -- --update-baseline
//! cargo run -p opclint -- --check path/to/file.rs …   # lint files as
//!                                       # library code (fixture testing)
//! cargo run -p opclint -- --list-rules
//! ```
//!
//! `--json` emits a single object on stdout —
//! `{"findings": […], "notes": […], "files": N, "panic_sites": N}` —
//! so CI annotations and editor integrations don't have to scrape the
//! human format. Exit semantics are unchanged.

use opclint::{baseline, lint_file, lint_workspace, Finding};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    check: bool,
    json: bool,
    update_baseline: bool,
    list_rules: bool,
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        check: false,
        json: false,
        update_baseline: false,
        list_rules: false,
        root: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => args.check = true,
            "--json" => args.json = true,
            "--update-baseline" => args.update_baseline = true,
            "--list-rules" => args.list_rules = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a path")?;
                args.root = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "opclint — determinism & panic-safety lint\n\
                     usage: opclint [--check] [--json] [--update-baseline] [--root DIR] \
                     [--list-rules] [FILE.rs …]"
                );
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}` (see --help)"));
            }
            file => args.files.push(PathBuf::from(file)),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("opclint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.list_rules {
        for rule in opclint::RULES {
            println!("{rule}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Explicit-file mode: lint the named files as non-test library code.
    // This is how the fixture suite (and curious humans) probe single
    // snippets; the panic-budget ratchet needs crate attribution and is
    // skipped.
    if !args.files.is_empty() {
        let mut findings: Vec<Finding> = Vec::new();
        for f in &args.files {
            let text =
                fs::read_to_string(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
            findings.extend(lint_file(&f.to_string_lossy(), &text).findings);
        }
        if args.json {
            println!("{}", render_json(&findings, &[], args.files.len(), None));
        } else {
            for f in &findings {
                println!("{f}");
            }
            println!(
                "opclint: {} finding(s) in {} file(s) (explicit-file mode, no baseline)",
                findings.len(),
                args.files.len()
            );
        }
        return Ok(exit_for(args.check, findings.len()));
    }

    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let root = match &args.root {
        Some(r) => r.clone(),
        None => opclint::find_workspace_root(&cwd)?,
    };
    let report = lint_workspace(&root)?;
    let baseline_path = root.join(baseline::BASELINE_FILE);

    if args.update_baseline {
        fs::write(&baseline_path, baseline::render(&report.panic_counts))
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        println!(
            "opclint: wrote {} ({} crates, {} panic sites total)",
            baseline::BASELINE_FILE,
            report.panic_counts.len(),
            report.panic_counts.values().sum::<usize>()
        );
    }

    let mut findings = report.findings.clone();
    let mut notes: Vec<String> = Vec::new();
    match fs::read_to_string(&baseline_path) {
        Ok(text) => {
            let committed = baseline::parse(&text)?;
            let (ratchet, ratchet_notes) = baseline::compare(&committed, &report.panic_counts);
            findings.extend(ratchet);
            notes.extend(ratchet_notes);
        }
        Err(_) => {
            findings.push(Finding {
                rule: "panic-budget",
                file: baseline::BASELINE_FILE.to_string(),
                line: 0,
                message: "missing baseline file — run `cargo run -p opclint -- \
                          --update-baseline` and commit it"
                    .to_string(),
            });
        }
    }

    if args.json {
        println!(
            "{}",
            render_json(
                &findings,
                &notes,
                report.files,
                Some(report.panic_counts.values().sum::<usize>())
            )
        );
    } else {
        for f in &findings {
            println!("{f}");
        }
        for n in &notes {
            println!("note[panic-budget] {n}");
        }
        println!(
            "opclint: {} finding(s), {} note(s) across {} files ({} panic sites in budget)",
            findings.len(),
            notes.len(),
            report.files,
            report.panic_counts.values().sum::<usize>()
        );
    }
    Ok(exit_for(args.check, findings.len()))
}

/// Minimal JSON escaping (quotes, backslashes, control characters) — the
/// output is paths, rule ids and lint prose, so this covers everything a
/// finding can contain without pulling in a serializer.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report. `panic_sites` is `None` in
/// explicit-file mode, where the baseline ratchet does not run.
fn render_json(
    findings: &[Finding],
    notes: &[String],
    files: usize,
    panic_sites: Option<usize>,
) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push_str("],\"notes\":[");
    for (i, n) in notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", json_escape(n)));
    }
    out.push_str(&format!("],\"files\":{files}"));
    match panic_sites {
        Some(n) => out.push_str(&format!(",\"panic_sites\":{n}}}")),
        None => out.push('}'),
    }
    out
}

fn exit_for(check: bool, findings: usize) -> ExitCode {
    if check && findings > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
