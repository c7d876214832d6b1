//! Rule-engine tests over the committed fixtures plus targeted snippets:
//! known-bad code is flagged with the right rule at the right line,
//! waived code passes, literals never fire, and the baseline ratchet
//! rejects growth.

use opclint::rules::{lint_file, FileReport};
use opclint::{baseline, Finding};
use std::collections::BTreeMap;
use std::path::Path;

fn lint_fixture(name: &str) -> FileReport {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    lint_file(name, &src)
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn unordered_iter_fixture_flags_decls_and_iteration() {
    let report = lint_fixture("bad_unordered_iter.rs");
    let rules = rules_of(&report.findings);
    assert!(
        rules.iter().all(|&r| r == "unordered-iter"),
        "unexpected rules: {:?}",
        report.findings
    );
    // Two declarations (field + let), .keys(), for-loop, .drain().
    assert_eq!(rules.len(), 5, "{:#?}", report.findings);
    let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
    assert!(lines.contains(&7), "field decl line: {lines:?}");
    assert!(lines.contains(&12), ".keys() line: {lines:?}");
    assert!(lines.contains(&17), "for-loop line: {lines:?}");
    assert!(lines.contains(&26), ".drain() line: {lines:?}");
}

#[test]
fn nondeterminism_fixture_flags_every_source() {
    let report = lint_fixture("bad_nondeterminism.rs");
    let rules = rules_of(&report.findings);
    assert_eq!(rules, vec!["nondeterminism"; 4], "{:#?}", report.findings);
    let msgs: String = report
        .findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    for what in [
        "thread_rng",
        "from_entropy",
        "SystemTime::now",
        "Instant::now",
    ] {
        assert!(msgs.contains(what), "missing {what} in: {msgs}");
    }
}

#[test]
fn nondeterminism_applies_to_the_bench_crate() {
    let src = "pub fn t() -> std::time::Instant { std::time::Instant::now() }";
    assert_eq!(
        rules_of(&lint_file("crates/bench/src/bin/opc.rs", src).findings),
        vec!["nondeterminism"]
    );
}

#[test]
fn float_cmp_fixture_flags_unwrap_and_expect_but_not_unwrap_or() {
    let report = lint_fixture("bad_float_cmp.rs");
    assert_eq!(
        rules_of(&report.findings),
        vec!["float-cmp-unwrap"; 2],
        "{:#?}",
        report.findings
    );
    let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![7, 13]);
    // unwrap() + expect() count toward the panic budget; unwrap_or() not.
    assert_eq!(report.panic_count, 2);
}

#[test]
fn env_read_fixture_flags_opc_reads_outside_knobs() {
    let report = lint_fixture("bad_env_read.rs");
    assert_eq!(
        rules_of(&report.findings),
        vec!["env-read"; 3],
        "{:#?}",
        report.findings
    );
    let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![5, 10, 15], "{:#?}", report.findings);
    let msgs: String = report
        .findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    for knob in ["OPC_FUSION", "OPC_CAL_CACHE", "OPC_THREADS"] {
        assert!(msgs.contains(knob), "missing {knob} in: {msgs}");
    }
}

#[test]
fn env_reads_in_a_knobs_module_are_the_designated_home() {
    let src = r#"pub fn f() -> bool { std::env::var("OPC_FUSION").is_ok() }"#;
    assert!(lint_file("crates/device/src/knobs.rs", src)
        .findings
        .is_empty());
    assert_eq!(
        lint_file("crates/device/src/other.rs", src).findings.len(),
        1
    );
}

#[test]
fn float_literal_eq_fixture_flags_exact_comparisons_only() {
    let report = lint_fixture("bad_float_literal_eq.rs");
    assert_eq!(
        rules_of(&report.findings),
        vec!["float-literal-eq"; 4],
        "{:#?}",
        report.findings
    );
    let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![5, 10, 15, 20], "{:#?}", report.findings);
}

#[test]
fn justified_allows_waive_cleanly() {
    let report = lint_fixture("allowed_ok.rs");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}

#[test]
fn unjustified_or_unwaivable_allows_are_findings_and_do_not_waive() {
    let report = lint_fixture("bad_allow.rs");
    let mut rules = rules_of(&report.findings);
    rules.sort_unstable();
    assert_eq!(
        rules,
        vec![
            "allow-syntax",
            "allow-syntax",
            "float-cmp-unwrap",
            "unordered-iter"
        ],
        "{:#?}",
        report.findings
    );
}

#[test]
fn literals_comments_and_test_modules_never_fire() {
    let report = lint_fixture("clean_literals.rs");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert_eq!(report.panic_count, 0);
}

#[test]
fn cfg_test_module_boundaries_are_token_precise() {
    // Same banned call before, inside, and after the test module: the
    // inside one is exempt, the outer two are not.
    let src = "\
pub fn before() { rand::thread_rng(); }
#[cfg(test)]
mod tests {
    fn inside() { rand::thread_rng(); }
}
pub fn after() { rand::thread_rng(); }
";
    let report = lint_file("lib.rs", src);
    let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![1, 6], "{:#?}", report.findings);
}

#[test]
fn cfg_not_test_is_not_exempt() {
    let src = "#[cfg(not(test))]\npub fn f() { rand::thread_rng(); }";
    assert_eq!(lint_file("lib.rs", src).findings.len(), 1);
}

#[test]
fn multi_line_block_comment_waivers_bind_to_the_next_code_line() {
    let src = "\
pub fn f(x: f64) -> bool {
    /* opclint: allow(float-literal-eq): exact sentinel -- zero is the
       initialized accumulator value, never a computed result */
    x == 0.0
}
";
    let report = lint_file("lib.rs", src);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}

#[test]
fn prose_mentioning_opclint_in_a_block_comment_is_not_a_directive() {
    let src = "/* see the opclint: allow(...) docs */\npub fn f(x: f64) -> bool { x == 0.0 }";
    let report = lint_file("lib.rs", src);
    assert_eq!(
        rules_of(&report.findings),
        vec!["float-literal-eq"],
        "{:#?}",
        report.findings
    );
}

#[test]
fn crlf_line_endings_keep_line_numbers_and_waivers_accurate() {
    // Unwaived: the finding lands on the CRLF-terminated line 2.
    let bad = "pub fn f(x: f64) -> bool {\r\n    x == 0.0\r\n}\r\n";
    let report = lint_file("lib.rs", bad);
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert_eq!(report.findings[0].line, 2);

    // A trailing waiver's justification must survive the stray `\r`.
    let trailing =
        "pub fn f(x: f64) -> bool {\r\n    x == 0.0 // opclint: allow(float-literal-eq): exact sentinel\r\n}\r\n";
    assert!(lint_file("lib.rs", trailing).findings.is_empty());

    // And an own-line waiver still binds to the next code line.
    let own_line =
        "pub fn f(x: f64) -> bool {\r\n    // opclint: allow(float-literal-eq): exact sentinel\r\n    x == 0.0\r\n}\r\n";
    assert!(lint_file("lib.rs", own_line).findings.is_empty());
}

#[test]
fn waiver_on_the_last_line_without_a_newline_still_applies() {
    let src =
        "pub fn f(x: f64) -> bool { x == 0.0 } // opclint: allow(float-literal-eq): exact sentinel";
    let report = lint_file("lib.rs", src);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}

#[test]
fn unjustified_waivers_are_flagged_even_inside_test_modules() {
    // Rule findings are exempt inside `#[cfg(test)]`, but a malformed
    // directive is a lint-hygiene problem wherever it sits.
    let src = "\
#[cfg(test)]
mod tests {
    // opclint: allow(float-literal-eq)
    fn helper(x: f64) -> bool { x == 0.0 }
}
";
    let report = lint_file("lib.rs", src);
    assert_eq!(
        rules_of(&report.findings),
        vec!["allow-syntax"],
        "{:#?}",
        report.findings
    );
    assert_eq!(report.findings[0].line, 3);
}

#[test]
fn baseline_round_trips() {
    let mut counts = BTreeMap::new();
    counts.insert("quant-device".to_string(), 19);
    counts.insert("quant-math".to_string(), 1);
    let parsed = baseline::parse(&baseline::render(&counts)).unwrap();
    assert_eq!(parsed, counts);
}

#[test]
fn baseline_rejects_garbage() {
    assert!(baseline::parse("quant-device nineteen").is_err());
    assert!(baseline::parse("quant-device 1 2").is_err());
}

#[test]
fn ratchet_rejects_growth_tolerates_equality_notes_shrink() {
    let committed: BTreeMap<String, usize> = [("a".to_string(), 3), ("b".to_string(), 5)]
        .into_iter()
        .collect();

    let grown: BTreeMap<String, usize> = [("a".to_string(), 4), ("b".to_string(), 5)]
        .into_iter()
        .collect();
    let (violations, notes) = baseline::compare(&committed, &grown);
    assert_eq!(violations.len(), 1);
    assert!(violations[0].message.contains('a'), "{}", violations[0]);
    assert!(notes.is_empty());

    let equal = committed.clone();
    let (violations, notes) = baseline::compare(&committed, &equal);
    assert!(violations.is_empty() && notes.is_empty());

    let shrunk: BTreeMap<String, usize> = [("a".to_string(), 2), ("b".to_string(), 5)]
        .into_iter()
        .collect();
    let (violations, notes) = baseline::compare(&committed, &shrunk);
    assert!(violations.is_empty());
    assert_eq!(notes.len(), 1);
}

#[test]
fn ratchet_requires_new_crates_in_the_baseline() {
    let committed: BTreeMap<String, usize> = [("a".to_string(), 3)].into_iter().collect();
    let with_new: BTreeMap<String, usize> = [("a".to_string(), 3), ("newcrate".to_string(), 2)]
        .into_iter()
        .collect();
    let (violations, _) = baseline::compare(&committed, &with_new);
    assert_eq!(violations.len(), 1);
    assert!(violations[0].message.contains("newcrate"));

    // And flags stale entries the other way (as a note, not an error).
    let (violations, notes) = baseline::compare(&with_new, &committed);
    assert!(violations.is_empty());
    assert_eq!(notes.len(), 1);
    assert!(notes[0].contains("newcrate"));
}
