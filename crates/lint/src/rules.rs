//! The rule engine: token-pattern checks for the repo's determinism and
//! panic-safety invariants, plus the `opclint: allow` waiver mechanism.
//!
//! Rules (see `DESIGN.md` §7 for the rationale):
//!
//! * `unordered-iter` — no `HashMap`/`HashSet` in non-test library code
//!   without a justified waiver, and *never* iteration over one
//!   (`.iter()`, `.keys()`, `.values()`, `.drain()`, `for … in &map`).
//!   Iteration order is seeded per-process by `RandomState`, so any
//!   result that flows out of an unordered walk silently breaks the
//!   bit-identical-replay guarantee. Lookups are fine — hence a
//!   declaration can be waived as lookup-only — but the waiver must say
//!   why.
//! * `nondeterminism` — no ambient entropy or wall-clock in simulation
//!   paths: `thread_rng`, `from_entropy`, `SystemTime::now`,
//!   `Instant::now` are banned outside test code. All randomness must
//!   derive from caller seeds (`qmath::stream_seed`); a binary that
//!   reports wall-clock time (the `opc` corpus clock) reads it on one
//!   waived line and injects it.
//! * `float-cmp-unwrap` — `partial_cmp(…).unwrap()` panics on the first
//!   NaN; `f64::total_cmp` is the total order to sort/max by.
//! * `panic-budget` — `unwrap()` / `expect()` / `panic!` are counted per
//!   library crate and ratcheted against `lint-baseline.txt` (the count
//!   may only shrink). Not waivable: the budget *is* the waiver.
//! * `env-read` — `std::env::var("OPC_*")` reads must live in a
//!   designated `knobs` module (one file per crate) so the determinism
//!   surface — every environment knob that can change behaviour — stays
//!   auditable in one place.
//! * `float-literal-eq` — `==`/`!=` against a float literal: exact float
//!   equality is brittle under recompilation/optimization; compare via
//!   `total_cmp`, an epsilon, or `to_bits`. Exact-sentinel comparisons
//!   (e.g. "skip the frame change when the accumulated phase is exactly
//!   the 0.0 it was initialized to") are legitimate and take a waiver.
//!
//! Waivers: `// opclint: allow(<rule>): <justification>` on the offending
//! line, or on its own line directly above. The justification is
//! mandatory; an allow without one (or for an unknown/unwaivable rule) is
//! itself a finding (`allow-syntax`).

use crate::lexer::{lex, Comment, StrLit, TokKind, Token};
use std::collections::BTreeMap;
use std::fmt;

/// Rule identifiers, in the order they are documented.
pub const RULES: [&str; 6] = [
    "unordered-iter",
    "nondeterminism",
    "float-cmp-unwrap",
    "panic-budget",
    "env-read",
    "float-literal-eq",
];

/// Rules a waiver may silence (`panic-budget` is a counted ratchet, not a
/// per-site check).
const WAIVABLE: [&str; 5] = [
    "unordered-iter",
    "nondeterminism",
    "float-cmp-unwrap",
    "env-read",
    "float-literal-eq",
];

/// Iteration-shaped methods on unordered collections.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// One violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of [`RULES`] or `allow-syntax`).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description with the suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}] {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// Which crate a file belongs to; every rule applies to every library file.
#[derive(Clone, Debug, Default)]
pub struct FileCtx {
    /// Owning crate (baseline key for `panic-budget`).
    pub crate_name: String,
}

/// Per-file lint result.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Findings, in source order.
    pub findings: Vec<Finding>,
    /// `unwrap(`/`expect(`/`panic!` sites outside test scope (input to
    /// the `panic-budget` ratchet).
    pub panic_count: usize,
}

/// A parsed `opclint: allow` directive.
#[derive(Clone, Debug)]
struct Allow {
    rule: String,
    /// Code line the directive applies to.
    target: u32,
}

/// Lints one file's source text.
pub fn lint_file(path: &str, src: &str) -> FileReport {
    let lexed = lex(src);
    let mut report = FileReport::default();
    let test_lines = test_line_ranges(&lexed.tokens);
    let in_test = |line: u32| test_lines.iter().any(|&(a, b)| line >= a && line <= b);
    let allows = parse_allows(path, &lexed.tokens, &lexed.comments, &mut report.findings);
    let waived = |rule: &str, line: u32| allows.iter().any(|a| a.rule == rule && a.target == line);

    let toks = &lexed.tokens;
    rule_unordered_iter(path, toks, &in_test, &waived, &mut report.findings);
    rule_nondeterminism(path, toks, &in_test, &waived, &mut report.findings);
    rule_float_cmp_unwrap(path, toks, &in_test, &waived, &mut report.findings);
    rule_env_read(
        path,
        toks,
        &lexed.strings,
        &in_test,
        &waived,
        &mut report.findings,
    );
    rule_float_literal_eq(path, toks, &in_test, &waived, &mut report.findings);
    report.panic_count = count_panic_sites(toks, &in_test);
    report
}

/// Parses every `opclint: allow(<rule>): <justification>` comment,
/// reporting malformed ones, and resolves the code line each applies to.
fn parse_allows(
    path: &str,
    tokens: &[Token],
    comments: &[Comment],
    findings: &mut Vec<Finding>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        // A directive must *start* the comment (modulo doc-comment
        // markers), so prose that merely mentions `opclint:` — e.g. this
        // sentence — never parses as one.
        let body = c.text.trim_start_matches(['/', '!', '*']).trim_start();
        let Some(rest) = body.strip_prefix("opclint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let mut emit = |msg: String| {
            findings.push(Finding {
                rule: "allow-syntax",
                file: path.to_string(),
                line: c.line,
                message: msg,
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            emit(format!(
                "malformed opclint directive (expected `opclint: allow(<rule>): <justification>`): `{}`",
                c.text.trim()
            ));
            continue;
        };
        let Some((rule, tail)) = args.split_once(')') else {
            emit("unclosed `opclint: allow(` directive".to_string());
            continue;
        };
        let rule = rule.trim();
        if !WAIVABLE.contains(&rule) {
            emit(format!(
                "`{rule}` is not a waivable rule (waivable: {})",
                WAIVABLE.join(", ")
            ));
            continue;
        }
        let justification = tail.trim_start().strip_prefix(':').unwrap_or("").trim();
        if justification.len() < 3 {
            emit(format!(
                "allow({rule}) requires a justification: `// opclint: allow({rule}): <why this is safe>`"
            ));
            continue;
        }
        // A trailing comment waives its own line; an own-line comment
        // waives the next code line (stacked directives all bind to it).
        let target = if c.trailing {
            c.line
        } else {
            tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > c.line)
                .unwrap_or(c.line + 1)
        };
        allows.push(Allow {
            rule: rule.to_string(),
            target,
        });
    }
    allows
}

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items. Ranges are
/// found by brace-matching from the token after the attribute.
fn test_line_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut attr: Vec<&Token> = Vec::new();
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            attr.push(&tokens[j]);
            j += 1;
        }
        let is_test_attr = match attr.first() {
            // `cfg(test)` and friends — but not `cfg(not(test))`, which
            // marks code that is *absent* from test builds.
            Some(t) if t.is_ident("cfg") => {
                attr.iter().any(|t| t.is_ident("test")) && !attr.iter().any(|t| t.is_ident("not"))
            }
            Some(t) if t.is_ident("test") && attr.len() == 1 => true,
            _ => false,
        };
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip any further attributes, then brace-match the item body
        // (or stop at `;` for bodiless items).
        let mut k = j + 1;
        while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[') {
            let mut d = 1usize;
            k += 2;
            while k < tokens.len() && d > 0 {
                if tokens[k].is_punct('[') {
                    d += 1;
                } else if tokens[k].is_punct(']') {
                    d -= 1;
                }
                k += 1;
            }
        }
        let mut brace = 0usize;
        let mut end_line = start_line;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('{') {
                brace += 1;
            } else if t.is_punct('}') {
                brace = brace.saturating_sub(1);
                if brace == 0 {
                    end_line = t.line;
                    break;
                }
            } else if t.is_punct(';') && brace == 0 {
                end_line = t.line;
                break;
            }
            end_line = t.line;
            k += 1;
        }
        ranges.push((start_line, end_line));
        i = k + 1;
    }
    ranges
}

/// Rule 1: unordered collections.
fn rule_unordered_iter(
    path: &str,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    waived: &dyn Fn(&str, u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    // Pass 1: every HashMap/HashSet token outside a `use` declaration is
    // a declaration/constructor site needing a waiver; bindings get their
    // names tracked so pass 2 can catch iteration.
    let mut tracked: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        if in_statement_headed_by(tokens, i, "use") {
            continue;
        }
        if let Some(name) = bound_name(tokens, i) {
            if !tracked.contains(&name) {
                tracked.push(name);
            }
        }
        if in_test(t.line) || waived("unordered-iter", t.line) {
            continue;
        }
        findings.push(Finding {
            rule: "unordered-iter",
            file: path.to_string(),
            line: t.line,
            message: format!(
                "`{}` in library code: iteration order is nondeterministic — use \
                 `BTreeMap`/`BTreeSet` (or sort explicitly), or waive with \
                 `// opclint: allow(unordered-iter): <lookup-only justification>`",
                t.text
            ),
        });
    }

    // Pass 2: iteration over a tracked binding.
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || !tracked.contains(&t.text) {
            continue;
        }
        if in_test(t.line) {
            continue;
        }
        // `name.iter()` / `name.drain(..)` / …
        let method_iterates = tokens.get(i + 1).is_some_and(|d| d.is_punct('.'))
            && tokens
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.iter().any(|im| m.is_ident(im)))
            && tokens.get(i + 3).is_some_and(|p| p.is_punct('('));
        // `for x in &name {`, `for x in name {`, `for x in &self.name {`
        let for_iterates = {
            let mut j = i;
            loop {
                if j > 0 && (tokens[j - 1].is_punct('&') || tokens[j - 1].is_ident("mut")) {
                    j -= 1;
                } else if j >= 2
                    && tokens[j - 1].is_punct('.')
                    && tokens[j - 2].kind == TokKind::Ident
                {
                    j -= 2;
                } else {
                    break;
                }
            }
            j > 0
                && tokens[j - 1].is_ident("in")
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('{'))
        };
        if !(method_iterates || for_iterates) {
            continue;
        }
        if waived("unordered-iter", t.line) {
            continue;
        }
        findings.push(Finding {
            rule: "unordered-iter",
            file: path.to_string(),
            line: t.line,
            message: format!(
                "iteration over unordered collection `{}`: order varies per process — \
                 iterate a `BTreeMap`/`BTreeSet` or collect-and-sort first",
                t.text
            ),
        });
    }
}

/// True when the statement containing token `i` starts with keyword `kw`
/// (scanning back to the previous `;`, `{` or `}`).
fn in_statement_headed_by(tokens: &[Token], i: usize, kw: &str) -> bool {
    let mut j = i;
    while j > 0 {
        let t = &tokens[j - 1];
        if t.is_punct(';') || t.is_punct('}') {
            break;
        }
        if t.is_punct('{') {
            // A use-group brace (`use a::{B, C}`) follows `::` and is
            // transparent; any other brace ends the statement scan.
            if j >= 3 && tokens[j - 2].is_punct(':') && tokens[j - 3].is_punct(':') {
                j -= 1;
                continue;
            }
            break;
        }
        j -= 1;
    }
    tokens.get(j).is_some_and(|t| t.is_ident(kw))
}

/// The binding name a `HashMap`/`HashSet` token at `i` declares, if the
/// local pattern is recognizable: `name: [std::collections::]HashMap<…>`
/// (field or annotated let) or `[let [mut]] name = HashMap::new()`.
fn bound_name(tokens: &[Token], i: usize) -> Option<String> {
    let mut j = i;
    // Step over a `std::collections::` (or any) path prefix.
    while j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].is_punct(':') {
        j -= 2;
        if j > 0 && tokens[j - 1].kind == TokKind::Ident {
            j -= 1;
        }
    }
    if j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].kind == TokKind::Ident {
        return Some(tokens[j - 2].text.clone());
    }
    if j >= 2 && tokens[j - 1].is_punct('=') && tokens[j - 2].kind == TokKind::Ident {
        return Some(tokens[j - 2].text.clone());
    }
    None
}

/// Rule 2: ambient entropy / wall-clock.
fn rule_nondeterminism(
    path: &str,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    waived: &dyn Fn(&str, u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        let (what, fix) = if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            (
                t.text.clone(),
                "derive randomness from a caller seed via `qmath::seeded`/`qmath::stream_seed`",
            )
        } else if (t.is_ident("SystemTime") || t.is_ident("Instant"))
            && tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|b| b.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|n| n.is_ident("now"))
        {
            (
                format!("{}::now", t.text),
                "simulation results must be a pure function of seeds; inject a clock from a waived line in a binary",
            )
        } else {
            continue;
        };
        if in_test(t.line) || waived("nondeterminism", t.line) {
            continue;
        }
        findings.push(Finding {
            rule: "nondeterminism",
            file: path.to_string(),
            line: t.line,
            message: format!("`{what}` in a simulation path: {fix}"),
        });
    }
}

/// Rule 3: NaN-panicking float comparisons.
fn rule_float_cmp_unwrap(
    path: &str,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    waived: &dyn Fn(&str, u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("partial_cmp") {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|p| p.is_punct('(')) {
            continue;
        }
        // Skip the balanced argument list.
        let mut depth = 1usize;
        let mut j = i + 2;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
            }
            j += 1;
        }
        let chained_panic = tokens.get(j).is_some_and(|d| d.is_punct('.'))
            && tokens
                .get(j + 1)
                .is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"));
        if !chained_panic || in_test(t.line) || waived("float-cmp-unwrap", t.line) {
            continue;
        }
        findings.push(Finding {
            rule: "float-cmp-unwrap",
            file: path.to_string(),
            line: t.line,
            message: "`partial_cmp(…).unwrap()` panics on NaN — use `f64::total_cmp` \
                      (a total order) instead"
                .to_string(),
        });
    }
}

/// Rule 5: environment knobs outside the designated config module.
///
/// Matches `env :: var(…)` / `env :: var_os(…)` whose first string
/// argument starts with `OPC_`. Files named `knobs.rs` are the designated
/// per-crate home for these reads and are exempt.
fn rule_env_read(
    path: &str,
    tokens: &[Token],
    strings: &[StrLit],
    in_test: &dyn Fn(u32) -> bool,
    waived: &dyn Fn(&str, u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    let stem = path
        .rsplit(['/', '\\'])
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs");
    if stem == "knobs" {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("env") {
            continue;
        }
        let is_var_call = tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|b| b.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|m| m.is_ident("var") || m.is_ident("var_os"))
            && tokens.get(i + 4).is_some_and(|p| p.is_punct('('));
        if !is_var_call {
            continue;
        }
        // The argument string starts on the call's line or the next one
        // (rustfmt may wrap); the first literal at or after the call is it.
        let name = strings
            .iter()
            .find(|s| s.line >= t.line && s.line <= t.line + 1)
            .map(|s| s.text.as_str());
        let Some(name) = name.filter(|n| n.starts_with("OPC_")) else {
            continue;
        };
        if in_test(t.line) || waived("env-read", t.line) {
            continue;
        }
        findings.push(Finding {
            rule: "env-read",
            file: path.to_string(),
            line: t.line,
            message: format!(
                "`env::var(\"{name}\")` outside a `knobs` module: move the read into the \
                 crate's `knobs.rs` (the audited determinism surface) or waive with \
                 `// opclint: allow(env-read): <why this read cannot live there>`"
            ),
        });
    }
}

/// True when a numeric literal's spelling is a float (`1.0`, `2.5e3`,
/// `1f64`), not an integer or a non-decimal literal.
fn is_float_literal(text: &str) -> bool {
    if text.is_empty()
        || text.starts_with("0x")
        || text.starts_with("0X")
        || text.starts_with("0o")
        || text.starts_with("0b")
    {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        // The lexer splits `1e-3` at the sign, leaving a trailing `e`.
        || text.ends_with('e')
        || text.ends_with('E')
}

/// Rule 6: exact equality against a float literal.
fn rule_float_literal_eq(
    path: &str,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    waived: &dyn Fn(&str, u32) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..tokens.len() {
        // `==` is Punct('=') Punct('='); `!=` is Punct('!') Punct('=').
        // Compound operators (`<=`, `>>=`, `..=`, `=>`) never produce
        // either adjacency, so no look-behind is needed.
        let second_eq = tokens.get(i + 1).is_some_and(|t| t.is_punct('='));
        let op = if tokens[i].is_punct('=') && second_eq {
            "=="
        } else if tokens[i].is_punct('!') && second_eq {
            "!="
        } else {
            continue;
        };
        let float_operand = |t: Option<&Token>| {
            t.is_some_and(|t| t.kind == TokKind::Number && is_float_literal(&t.text))
        };
        let lhs = i.checked_sub(1).and_then(|j| tokens.get(j));
        let rhs = tokens.get(i + 2);
        if !(float_operand(lhs) || float_operand(rhs)) {
            continue;
        }
        let line = tokens[i].line;
        if in_test(line) || waived("float-literal-eq", line) {
            continue;
        }
        findings.push(Finding {
            rule: "float-literal-eq",
            file: path.to_string(),
            line,
            message: format!(
                "`{op}` against a float literal: exact float equality is brittle — compare \
                 via `total_cmp`/`to_bits` or an epsilon, or waive an exact-sentinel check \
                 with `// opclint: allow(float-literal-eq): <why exactness is intended>`"
            ),
        });
    }
}

/// `unwrap(` / `expect(` / `panic!` sites outside test scope.
fn count_panic_sites(tokens: &[Token], in_test: &dyn Fn(u32) -> bool) -> usize {
    let mut count = 0;
    for (i, t) in tokens.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        let call = tokens.get(i + 1).is_some_and(|p| p.is_punct('('));
        if ((t.is_ident("unwrap") || t.is_ident("expect")) && call)
            || (t.is_ident("panic") && tokens.get(i + 1).is_some_and(|p| p.is_punct('!')))
        {
            count += 1;
        }
    }
    count
}

/// Aggregates per-crate panic counts from file reports.
pub fn panic_counts<'a>(
    reports: impl IntoIterator<Item = (&'a FileCtx, &'a FileReport)>,
) -> BTreeMap<String, usize> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for (ctx, report) in reports {
        *counts.entry(ctx.crate_name.clone()).or_insert(0) += report.panic_count;
    }
    counts
}
