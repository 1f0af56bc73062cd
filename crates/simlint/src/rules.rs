//! The determinism & invariant rules, allow-directive parsing, and
//! suppression application — all token-level since simlint v2.
//!
//! Rules run over the [`crate::lexer`] token stream with scopes driven
//! by workspace path and by the [`crate::symbols`] item pass (which
//! also feeds the [`crate::callgraph`] panic-reachability rule). Every
//! rule can be suppressed per line with a `simlint::allow` comment
//! naming the rule plus a quoted reason — the reason string is
//! mandatory; a reasonless allow is itself a `deny` finding.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph;
use crate::keytable::KeyTable;
use crate::lexer::{lex, Tok, TokKind};
use crate::symbols::{analyze, FileSymbols};

/// Finding severity: `Deny` findings fail the run, `Warn` findings are
/// reported (and serialized) but do not affect the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported, never fails the run.
    Warn,
    /// Enforced: any deny finding makes `simlint` exit nonzero.
    Deny,
}

impl Severity {
    /// Stable lowercase tag used in output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (e.g. `nondet-iter`).
    pub rule: &'static str,
    /// Whether the finding fails the run.
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Rule registry: `(name, what it catches)`.
pub const RULES: &[(&str, &str)] = &[
    (
        "nondet-iter",
        "HashMap/HashSet in simulation crates: iteration order depends on the hash seed",
    ),
    (
        "wall-clock",
        "Instant::now/SystemTime outside bench: wall time must never reach sim state",
    ),
    (
        "ambient-random",
        "RNG construction not routed through simcore::rng seeded types",
    ),
    (
        "float-cmp",
        "sort via partial_cmp (use total_cmp) or nonzero-literal == on floats in accounting code",
    ),
    (
        "panic-path",
        "unwrap/expect/panic! (deny) or indexing (warn) in any fn reachable from the engine hot loop",
    ),
    (
        "unit-safety",
        "arithmetic mixing time-like and energy/power-like identifiers, or raw float literals fed to power accumulators",
    ),
    (
        "obs-key",
        "metric/event key literal not in the dmamem::obs registered key table",
    ),
    (
        "obs-key-live",
        "key registered in a dmamem::obs table but never emitted anywhere in the workspace",
    ),
    (
        "allow-syntax",
        "malformed simlint::allow directive (missing or empty justification, unknown rule)",
    ),
    (
        "unused-allow",
        "simlint::allow directive that suppressed nothing",
    ),
];

const LINT_RULE_NAMES: &[&str] = &[
    "nondet-iter",
    "wall-clock",
    "ambient-random",
    "float-cmp",
    "panic-path",
    "unit-safety",
    "obs-key",
    "obs-key-live",
];

fn canonical_rule(name: &str) -> Option<&'static str> {
    LINT_RULE_NAMES.iter().find(|r| **r == name).copied()
}

// ---------------------------------------------------------------------------
// Path scopes
// ---------------------------------------------------------------------------

/// Simulation-crate sources: everything that feeds simulated state.
/// `simcore`'s `par` (host thread pool) and `obs` (host-side export)
/// modules are excluded — they are deliberately allowed to touch
/// host-order constructs because nothing in them feeds back into sim
/// results.
pub fn is_sim_path(p: &str) -> bool {
    const SIM: &[&str] = &[
        "crates/dmamem/src/",
        "crates/mempower/src/",
        "crates/iobus/src/",
        "crates/disksim/src/",
        "crates/trace/src/",
    ];
    if SIM.iter().any(|pre| p.starts_with(pre)) {
        return true;
    }
    p.starts_with("crates/simcore/src/")
        && p != "crates/simcore/src/par.rs"
        && p != "crates/simcore/src/obs.rs"
        && !p.starts_with("crates/simcore/src/obs/")
}

/// Wall-clock reads are legitimate only in the bench harness.
pub fn is_wall_clock_scope(p: &str) -> bool {
    !p.starts_with("crates/bench/")
}

/// Accounting code (slack ledger, energy/metric accounting) where exact
/// float equality is almost always a latent bug.
pub fn is_float_eq_scope(p: &str) -> bool {
    p.starts_with("crates/dmamem/src/") || p.starts_with("crates/mempower/src/")
}

/// Test-only paths: integration tests, benches, examples, fixtures.
/// Only `obs-key` applies there.
pub fn is_test_path(p: &str) -> bool {
    p.split('/')
        .any(|c| matches!(c, "tests" | "benches" | "examples" | "fixtures"))
}

// ---------------------------------------------------------------------------
// Allow directives
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Allow {
    rule: String,
    line: usize, // 1-based
    used: bool,
    malformed: Option<&'static str>,
    snippet: String,
}

fn parse_allows(toks: &[Tok]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in toks.iter().filter(|t| t.is_comment()) {
        let mut rest = t.text.as_str();
        while let Some(at) = rest.find("simlint::allow(") {
            rest = &rest[at + "simlint::allow(".len()..];
            let rule: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            let after_rule = rest[rule.len()..].trim_start();
            let malformed = if canonical_rule(&rule).is_none() {
                Some("unknown rule name")
            } else if let Some(tail) = after_rule.strip_prefix(',') {
                let tail = tail.trim_start();
                match tail
                    .strip_prefix('"')
                    .and_then(|t| t.find('"').map(|e| &t[..e]))
                {
                    Some(reason) if reason.trim().is_empty() => {
                        Some("justification string is empty")
                    }
                    Some(_) => None,
                    None => Some("justification must be a quoted string"),
                }
            } else {
                Some("missing justification: write simlint::allow(rule, \"why\")")
            };
            allows.push(Allow {
                rule,
                line: t.line,
                used: false,
                malformed,
                snippet: t.text.trim().chars().take(120).collect(),
            });
        }
    }
    allows
}

// ---------------------------------------------------------------------------
// Unit classes (unit-safety rule)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitClass {
    Time,
    Energy,
    Power,
}

impl UnitClass {
    fn as_str(self) -> &'static str {
        match self {
            UnitClass::Time => "time-like",
            UnitClass::Energy => "energy-like",
            UnitClass::Power => "power-like",
        }
    }
}

/// Classifies an identifier by naming convention. Deliberately
/// conservative: only unit-suffixed names and the `simcore` typed-time
/// accessor methods classify, so ordinary counters stay unclassified.
fn classify_unit(name: &str) -> Option<UnitClass> {
    let n = name.to_ascii_lowercase();
    // Power-*mode* vocabulary is state, not wattage.
    if n.contains("powerdown") || n.contains("power_down") || n.contains("powermode") {
        return None;
    }
    let time_suffix = ["_ps", "_ns", "_us", "_ms", "_secs"]
        .iter()
        .any(|s| n.ends_with(s));
    let time_method = matches!(
        n.as_str(),
        "as_ps"
            | "as_ns_f64"
            | "as_us_f64"
            | "as_ms_f64"
            | "as_secs_f64"
            | "from_ps"
            | "from_ns"
            | "from_us"
            | "from_ms"
            | "from_secs"
    );
    if time_suffix || time_method || n.contains("epoch") || n == "ps" || n == "ns" {
        return Some(UnitClass::Time);
    }
    if n.ends_with("_mj") || n == "mj" || n.contains("energy") {
        return Some(UnitClass::Energy);
    }
    if n.ends_with("_mw") || n == "mw" || n.contains("power") {
        return Some(UnitClass::Power);
    }
    None
}

/// Operators where mixing unit classes between direct operands is a bug
/// (sums, differences, comparisons — unlike `*`/`/`, which legitimately
/// build derived quantities such as power × time = energy).
const UNIT_OPS: &[&str] = &["+", "-", "+=", "-=", "<", ">", "<=", ">=", "==", "!="];

/// Walks the operand chain ending just before code position `k` and
/// returns its classified unit (rightmost classified segment wins:
/// `self.energy_mj[i]` classifies by `energy_mj`). Returns `None` for
/// non-chain operands and for operands that are factors of a `*`/`/`
/// product.
fn left_unit(toks: &[Tok], code: &[usize], k: usize) -> Option<(UnitClass, String)> {
    let mut idents: Vec<&str> = Vec::new();
    let mut i = k.checked_sub(1)?;
    loop {
        let t = &toks[code[i]];
        match (&t.kind, t.text.as_str()) {
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => {
                // Balance back over a call-argument list or index.
                let (open, close) = if t.text == ")" {
                    ("(", ")")
                } else {
                    ("[", "]")
                };
                let mut depth = 1i32;
                loop {
                    i = i.checked_sub(1)?;
                    let u = &toks[code[i]];
                    if u.is_punct(close) {
                        depth += 1;
                    } else if u.is_punct(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                }
                i = i.checked_sub(1)?; // the ident (or chain tail) before the opener
            }
            (TokKind::Ident, name) => {
                idents.push(name);
                // The chain continues through `.`/`::` to the left.
                let cont =
                    i >= 2 && (toks[code[i - 1]].is_punct(".") || toks[code[i - 1]].is_punct("::"));
                if cont {
                    i -= 2;
                } else {
                    // Operand complete; a `*`/`/` to its left makes it a
                    // product factor — skip.
                    if i >= 1 {
                        let before = &toks[code[i - 1]];
                        if before.is_punct("*") || before.is_punct("/") {
                            return None;
                        }
                    }
                    break;
                }
            }
            (TokKind::NumInt, _) => {
                // Tuple-field access (`p.0`): unclassified chain segment.
                let cont = i >= 2 && toks[code[i - 1]].is_punct(".");
                if cont {
                    i -= 2;
                } else {
                    return None;
                }
            }
            _ => return None,
        }
    }
    idents
        .iter()
        .find_map(|n| classify_unit(n).map(|c| (c, n.to_string())))
}

/// Forward twin of [`left_unit`] for the operand after code position `k`.
fn right_unit(toks: &[Tok], code: &[usize], k: usize) -> Option<(UnitClass, String)> {
    let mut idents: Vec<&str> = Vec::new();
    let mut i = k + 1;
    // Operand must start with an identifier chain.
    match toks.get(*code.get(i)?)? {
        t if t.kind == TokKind::Ident => idents.push(&t.text),
        _ => return None,
    }
    i += 1;
    while i < code.len() {
        let t = &toks[code[i]];
        match (&t.kind, t.text.as_str()) {
            (TokKind::Punct, ".") | (TokKind::Punct, "::") => {
                match code.get(i + 1).map(|&x| &toks[x]) {
                    Some(n) if n.kind == TokKind::Ident => {
                        idents.push(&n.text);
                        i += 2;
                    }
                    Some(n) if n.kind == TokKind::NumInt => i += 2, // tuple field
                    _ => break,
                }
            }
            (TokKind::Punct, "(") | (TokKind::Punct, "[") => {
                let (open, close) = if t.text == "(" {
                    ("(", ")")
                } else {
                    ("[", "]")
                };
                let mut depth = 0i32;
                while i < code.len() {
                    let u = &toks[code[i]];
                    if u.is_punct(open) {
                        depth += 1;
                    } else if u.is_punct(close) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i += 1;
                }
                i += 1;
            }
            _ => break,
        }
    }
    // A `*`/`/` after the operand makes it a product factor — skip.
    if let Some(&x) = code.get(i) {
        if toks[x].is_punct("*") || toks[x].is_punct("/") {
            return None;
        }
    }
    idents
        .iter()
        .rev()
        .find_map(|n| classify_unit(n).map(|c| (c, n.to_string())))
}

// ---------------------------------------------------------------------------
// Pattern helpers
// ---------------------------------------------------------------------------

/// Nonzero float literal test: `x == 0.0` is the exact-zero sentinel /
/// division-guard idiom and deliberately exempt.
fn float_literal_nonzero(text: &str) -> bool {
    let t = text.replace('_', "");
    let t = t
        .strip_suffix("f64")
        .or_else(|| t.strip_suffix("f32"))
        .unwrap_or(&t);
    t.parse::<f64>().map(|v| v != 0.0).unwrap_or(true)
}

/// `dmamem.*` tokens inside a string literal that are not registered
/// metric keys (`dmamem.trace.*` tokens check against the trace-key
/// table, `dmamem.prof.*` against the engine self-profiling key table),
/// plus `"kind":"…"` tags not in the event-kind table.
fn bad_obs_keys(lit: &str, keys: &KeyTable) -> Vec<String> {
    let norm = lit.replace("\\\"", "\"");
    let mut bad = Vec::new();
    let mut rest = norm.as_str();
    while let Some(at) = rest.find("dmamem.") {
        let token: String = rest[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '_')
            .collect();
        rest = &rest[at + token.len().max(7)..];
        let token = token.trim_end_matches('.');
        // Bare namespace mentions ("dmamem", "dmamem.trace",
        // "dmamem.prof") are prose, not keys.
        if token == "dmamem" || token == "dmamem.trace" || token == "dmamem.prof" {
            continue;
        }
        let table = if token.starts_with("dmamem.trace.") {
            &keys.trace_keys
        } else if token.starts_with("dmamem.prof.") {
            &keys.prof_keys
        } else {
            &keys.metric_keys
        };
        if !table.contains(token) {
            bad.push(token.to_string());
        }
    }
    let mut rest = norm.as_str();
    while let Some(at) = rest.find("\"kind\":\"") {
        let tail = &rest[at + "\"kind\":\"".len()..];
        let kind: String = tail.chars().take_while(|c| *c != '"').collect();
        if !kind.is_empty() && !keys.event_kinds.contains(&kind) {
            bad.push(format!("kind:{kind}"));
        }
        rest = tail;
    }
    bad
}

// ---------------------------------------------------------------------------
// Per-file token rules
// ---------------------------------------------------------------------------

const RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "StdRng",
    "SmallRng",
    "fastrand",
    "RandomState",
];

const SORT_IDENTS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
];

fn file_findings(
    path: &str,
    toks: &[Tok],
    syms: &FileSymbols,
    keys: &KeyTable,
    out: &mut Vec<Finding>,
) {
    let test_file = is_test_path(path);
    let sim = is_sim_path(path);
    let wall = is_wall_clock_scope(path);
    let float_eq = is_float_eq_scope(path);
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let in_test = |line: usize| test_file || syms.line_in_test(line);

    // Lines with sort-family calls, for the partial_cmp proximity check.
    let sort_lines: BTreeSet<usize> = code
        .iter()
        .map(|&i| &toks[i])
        .filter(|t| t.kind == TokKind::Ident && SORT_IDENTS.contains(&t.text.as_str()))
        .map(|t| t.line)
        .collect();

    // One finding per (rule, line) even when a line repeats a pattern.
    let mut seen: BTreeSet<(&'static str, usize)> = BTreeSet::new();
    let mut push = |seen: &mut BTreeSet<(&'static str, usize)>,
                    rule: &'static str,
                    severity: Severity,
                    line: usize,
                    msg: String| {
        if seen.insert((rule, line)) {
            out.push(Finding {
                rule,
                severity,
                path: path.to_string(),
                line,
                message: msg,
                snippet: String::new(),
            });
        }
    };

    for (k, &raw) in code.iter().enumerate() {
        let t = &toks[raw];
        let line = t.line;
        let next = code.get(k + 1).map(|&i| &toks[i]);

        // obs-key applies everywhere, tests included: a typo'd key in a
        // test assertion silently weakens the slack audit replay.
        if t.kind == TokKind::StrLit {
            for bad in bad_obs_keys(&t.text, keys) {
                push(
                    &mut seen,
                    "obs-key",
                    Severity::Deny,
                    line,
                    format!(
                        "`{bad}` is not in the dmamem::obs registered key table \
                         (METRIC_KEYS/EVENT_KINDS); typo'd keys silently drop streams \
                         from the audit replay"
                    ),
                );
            }
        }

        if in_test(line) {
            continue;
        }

        if t.kind == TokKind::Ident {
            let name = t.text.as_str();
            if sim && (name == "HashMap" || name == "HashSet") && !syms.tok_in_use(raw) {
                push(
                    &mut seen,
                    "nondet-iter",
                    Severity::Deny,
                    line,
                    "HashMap/HashSet in simulation code: iteration order is nondeterministic \
                     across runs; use BTreeMap/BTreeSet or sort before iterating"
                        .into(),
                );
            }
            if wall {
                let instant_now = name == "Instant"
                    && next.is_some_and(|n| n.is_punct("::"))
                    && code.get(k + 2).is_some_and(|&i| toks[i].is_ident("now"));
                if instant_now || name == "SystemTime" {
                    push(
                        &mut seen,
                        "wall-clock",
                        Severity::Deny,
                        line,
                        "wall-clock read outside bench: host time must never reach \
                         simulation state"
                            .into(),
                    );
                }
            }
            if sim {
                let ambient = RNG_IDENTS.contains(&name)
                    || (name == "rand" && next.is_some_and(|n| n.is_punct("::")));
                if ambient {
                    push(
                        &mut seen,
                        "ambient-random",
                        Severity::Deny,
                        line,
                        format!(
                            "ambient RNG `{name}`: all randomness must flow through \
                             simcore::rng seeded types"
                        ),
                    );
                }
                if name == "partial_cmp"
                    && (line.saturating_sub(3)..=line).any(|l| sort_lines.contains(&l))
                {
                    push(
                        &mut seen,
                        "float-cmp",
                        Severity::Deny,
                        line,
                        "float ordering via partial_cmp: NaN breaks the comparator and the \
                         sort order; use f64::total_cmp"
                            .into(),
                    );
                }
                // Raw float literal as a direct argument of the power-model
                // accumulator: magic wattages bypass the named power tables.
                if name == "accrue" && next.is_some_and(|n| n.is_punct("(")) {
                    for lit_line in raw_float_args(toks, &code, k + 1) {
                        push(
                            &mut seen,
                            "unit-safety",
                            Severity::Deny,
                            lit_line,
                            "raw float literal fed into the power-model accumulator; name it \
                             via the power model's constants so the tables stay the single \
                             source of truth"
                                .into(),
                        );
                    }
                }
            }
        }

        if t.kind == TokKind::Punct {
            if float_eq && (t.text == "==" || t.text == "!=") {
                let prev = k.checked_sub(1).map(|p| &toks[code[p]]);
                let lit = [prev, next]
                    .into_iter()
                    .flatten()
                    .find(|u| u.kind == TokKind::NumFloat && float_literal_nonzero(&u.text));
                if lit.is_some() {
                    push(
                        &mut seen,
                        "float-cmp",
                        Severity::Deny,
                        line,
                        "direct equality against a nonzero float literal in accounting code; \
                         compare with an explicit tolerance (exact-zero sentinel guards are \
                         exempt)"
                            .into(),
                    );
                }
            }
            if sim && UNIT_OPS.contains(&t.text.as_str()) {
                if let (Some((lc, ln)), Some((rc, rn))) =
                    (left_unit(toks, &code, k), right_unit(toks, &code, k))
                {
                    if lc != rc {
                        push(
                            &mut seen,
                            "unit-safety",
                            Severity::Deny,
                            line,
                            format!(
                                "`{}` mixes {} `{ln}` with {} `{rn}`: dimensionally unsound \
                                 arithmetic; convert through the typed newtypes or rename one \
                                 side",
                                t.text,
                                lc.as_str(),
                                rc.as_str()
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Lines of top-level arguments of the call whose `(` is at code
/// position `open_k` that are bare float literals (optionally signed).
fn raw_float_args(toks: &[Tok], code: &[usize], open_k: usize) -> Vec<usize> {
    let mut lines = Vec::new();
    let mut depth = 0i32;
    let mut arg: Vec<&Tok> = Vec::new();
    let mut i = open_k;
    while i < code.len() {
        let t = &toks[code[i]];
        let d = match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokKind::Punct => 1,
            ")" | "]" | "}" if t.kind == TokKind::Punct => -1,
            _ => 0,
        };
        depth += d;
        let flush = (depth == 1 && t.is_punct(",")) || (depth == 0 && d == -1);
        if flush {
            let is_lit = match arg.as_slice() {
                [l] => l.kind == TokKind::NumFloat,
                [s, l] => s.is_punct("-") && l.kind == TokKind::NumFloat,
                _ => false,
            };
            if is_lit {
                lines.push(arg.last().unwrap().line);
            }
            arg.clear();
            if depth == 0 {
                break;
            }
        } else if d == 0 && depth >= 1 && !(depth == 1 && t.is_punct("(")) {
            arg.push(t);
        }
        i += 1;
    }
    lines
}

// ---------------------------------------------------------------------------
// Obs-key liveness (global pass)
// ---------------------------------------------------------------------------

/// A key registered in a `dmamem::obs` table is *live* when it occurs
/// (as a substring — keys are embedded in larger literals like CSV
/// headers and JSON fragments) in any string literal outside the table
/// declarations themselves. Dead keys are denied at their table line.
fn liveness_findings(
    lits: &[(String, usize, String)], // (path, line, normalized text)
    keys: &KeyTable,
    out: &mut Vec<Finding>,
) {
    for span in &keys.spans {
        for (key, key_line) in &span.entries {
            let live = lits.iter().any(|(path, line, text)| {
                let in_decl = path == crate::OBS_SOURCE
                    && keys
                        .spans
                        .iter()
                        .any(|s| s.start_line <= *line && *line <= s.end_line);
                !in_decl && text.contains(key.as_str())
            });
            if !live {
                out.push(Finding {
                    rule: "obs-key-live",
                    severity: Severity::Deny,
                    path: crate::OBS_SOURCE.to_string(),
                    line: *key_line,
                    message: format!(
                        "`{key}` is registered in {} but never emitted anywhere in the \
                         workspace; dead keys rot the audit schema — delete it or wire up \
                         the emission",
                        span.const_name
                    ),
                    snippet: String::new(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The lint pass
// ---------------------------------------------------------------------------

/// Lints a set of files as one unit: per-file token rules, the
/// workspace panic-reachability pass over all of them, obs-key liveness
/// (when `keys` carries table spans), then `simlint::allow` suppression
/// per file. Returns surviving findings sorted by path, line, rule.
pub fn lint_files(files: &[(String, String)], keys: &KeyTable) -> Vec<Finding> {
    let lexed: Vec<(Vec<Tok>, FileSymbols)> = files
        .iter()
        .map(|(path, source)| {
            let toks = lex(source);
            let syms = analyze(path, &toks);
            (toks, syms)
        })
        .collect();

    let mut raw: Vec<Finding> = Vec::new();
    for ((path, _), (toks, syms)) in files.iter().zip(&lexed) {
        file_findings(path, toks, syms, keys, &mut raw);
    }

    let symtabs: Vec<FileSymbols> = lexed.iter().map(|(_, s)| s.clone()).collect();
    raw.extend(callgraph::panic_findings(&symtabs));

    if !keys.spans.is_empty() {
        let lits: Vec<(String, usize, String)> = files
            .iter()
            .zip(&lexed)
            .flat_map(|((path, _), (toks, _))| {
                toks.iter()
                    .filter(|t| t.kind == TokKind::StrLit)
                    .map(|t| (path.clone(), t.line, t.text.replace("\\\"", "\"")))
                    .collect::<Vec<_>>()
            })
            .collect();
        liveness_findings(&lits, keys, &mut raw);
    }

    // Apply suppressions per file: an allow matches findings of its rule
    // on the same line or the line directly below it.
    let mut allows_by_path: BTreeMap<&str, Vec<Allow>> = files
        .iter()
        .zip(&lexed)
        .map(|((path, _), (toks, _))| (path.as_str(), parse_allows(toks)))
        .collect();
    raw.retain(|f| {
        if let Some(allows) = allows_by_path.get_mut(f.path.as_str()) {
            for a in allows.iter_mut() {
                if a.malformed.is_none()
                    && a.rule == f.rule
                    && (a.line == f.line || a.line + 1 == f.line)
                {
                    a.used = true;
                    return false;
                }
            }
        }
        true
    });

    let mut findings = raw;
    for (path, allows) in &allows_by_path {
        for a in allows {
            if let Some(why) = a.malformed {
                findings.push(Finding {
                    rule: "allow-syntax",
                    severity: Severity::Deny,
                    path: path.to_string(),
                    line: a.line,
                    message: format!(
                        "malformed simlint::allow({}, …): {why}; every suppression must carry \
                         a written justification",
                        a.rule
                    ),
                    snippet: a.snippet.clone(),
                });
            } else if !a.used {
                findings.push(Finding {
                    rule: "unused-allow",
                    severity: Severity::Warn,
                    path: path.to_string(),
                    line: a.line,
                    message: format!(
                        "simlint::allow({}) suppressed nothing on this or the next line; \
                         delete it or move it to the offending line",
                        a.rule
                    ),
                    snippet: a.snippet.clone(),
                });
            }
        }
    }

    // Fill snippets from the raw source lines.
    let lines_by_path: BTreeMap<&str, Vec<&str>> = files
        .iter()
        .map(|(path, source)| (path.as_str(), source.lines().collect()))
        .collect();
    for f in &mut findings {
        if f.snippet.is_empty() {
            if let Some(l) = lines_by_path
                .get(f.path.as_str())
                .and_then(|ls| ls.get(f.line.saturating_sub(1)))
            {
                f.snippet = l.trim().chars().take(120).collect();
            }
        }
    }

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> KeyTable {
        let mut t = KeyTable::default();
        t.metric_keys.insert("dmamem.wakes".into());
        t.prof_keys.insert("dmamem.prof.events".into());
        t.event_kinds.insert("epoch_tick".into());
        t.trace_keys.insert("dmamem.trace.wakeup".into());
        t
    }

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        lint_files(&[(path.to_string(), src.to_string())], &table())
    }

    #[test]
    fn nondet_iter_fires_in_sim_scope_only() {
        let src = "fn f() { let m = std::collections::HashMap::<u32, u32>::new(); }\n";
        assert!(lint("crates/dmamem/src/x.rs", src)
            .iter()
            .any(|f| f.rule == "nondet-iter"));
        assert!(lint("crates/bench/src/x.rs", src).is_empty());
        // par/obs export paths are exempt.
        assert!(lint("crates/simcore/src/par.rs", src).is_empty());
        assert!(lint("crates/simcore/src/obs/metrics.rs", src).is_empty());
        assert!(!lint("crates/simcore/src/time.rs", src).is_empty());
    }

    #[test]
    fn use_lines_and_tests_are_exempt() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n    fn t() { let m: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        assert!(lint("crates/dmamem/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_string_or_comment_is_not_code() {
        let src = "fn f() { let s = \"HashMap\"; } // HashMap in prose\n";
        assert!(lint("crates/dmamem/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let src = "\
// simlint::allow(nondet-iter, \"lookup-only map, never iterated\")\n\
fn f() { let m: std::collections::HashMap<u8, u8> = Default::default(); }\n\
fn g() { let s: std::collections::HashSet<u8> = Default::default(); } // simlint::allow(nondet-iter, \"also fine\")\n";
        assert!(lint("crates/dmamem/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_deny_finding() {
        let src = "// simlint::allow(nondet-iter)\nfn f() { let m: std::collections::HashMap<u8, u8> = Default::default(); }\n";
        let fs = lint("crates/dmamem/src/x.rs", src);
        assert!(fs
            .iter()
            .any(|f| f.rule == "allow-syntax" && f.severity == Severity::Deny));
        // The allow is malformed, so it does NOT suppress.
        assert!(fs.iter().any(|f| f.rule == "nondet-iter"));
    }

    #[test]
    fn unused_allow_is_a_warning() {
        let src = "// simlint::allow(wall-clock, \"no longer needed\")\nfn f() {}\n";
        let fs = lint("crates/dmamem/src/x.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "unused-allow");
        assert_eq!(fs[0].severity, Severity::Warn);
    }

    #[test]
    fn wall_clock_scope() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert!(lint("crates/simcore/src/time.rs", src)
            .iter()
            .any(|f| f.rule == "wall-clock"));
        assert!(lint("crates/bench/src/sweep.rs", src).is_empty());
        assert!(lint("crates/criterion/src/lib.rs", src)
            .iter()
            .any(|f| f.rule == "wall-clock"));
    }

    #[test]
    fn ambient_random_fires() {
        let src = "fn f() { let r = rand::thread_rng(); }\n";
        assert!(lint("crates/trace/src/x.rs", src)
            .iter()
            .any(|f| f.rule == "ambient-random"));
    }

    #[test]
    fn float_cmp_sort_and_literal_eq() {
        let sort = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert!(lint("crates/iobus/src/x.rs", sort)
            .iter()
            .any(|f| f.rule == "float-cmp"));
        let eq = "fn f(x: f64) -> bool { x == 0.5 }\n";
        assert!(lint("crates/dmamem/src/x.rs", eq)
            .iter()
            .any(|f| f.rule == "float-cmp"));
        // Integer equality is fine; tuple-field access is not a float.
        assert!(lint(
            "crates/dmamem/src/x.rs",
            "fn f(x: u64) -> bool { x == 0 }\n"
        )
        .is_empty());
        assert!(lint(
            "crates/dmamem/src/x.rs",
            "fn f(p: (u8, u8)) -> bool { p.0 == p.1 }\n"
        )
        .is_empty());
        // total_cmp is the fix.
        assert!(lint(
            "crates/iobus/src/x.rs",
            "fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }\n"
        )
        .is_empty());
    }

    #[test]
    fn float_eq_zero_sentinel_is_exempt() {
        // The exact-zero division-guard idiom no longer needs an allow.
        let src = "fn f(total: f64) -> f64 { if total == 0.0 { return 0.0; } 1.0 / total }\n";
        assert!(lint("crates/mempower/src/x.rs", src).is_empty());
        // Exponent and underscore forms of nonzero still fire.
        let src = "fn f(x: f64) -> bool { x != 1e-9 }\n";
        assert!(lint("crates/mempower/src/x.rs", src)
            .iter()
            .any(|f| f.rule == "float-cmp"));
    }

    #[test]
    fn panic_reachability_replaces_path_scoping() {
        // A panic in a root file fn is denied…
        let src = "fn f(v: &[u8]) -> u8 { let x = v.first().unwrap(); v[0] + x }\n";
        let fs = lint("crates/dmamem/src/system.rs", src);
        assert!(fs
            .iter()
            .any(|f| f.rule == "panic-path" && f.severity == Severity::Deny));
        assert!(fs
            .iter()
            .any(|f| f.rule == "panic-path" && f.severity == Severity::Warn));
        // …and in a non-root file it is denied exactly when reachable.
        let reached = lint_files(
            &[
                (
                    "crates/dmamem/src/system.rs".into(),
                    "fn run() { helper(); }\n".into(),
                ),
                (
                    "crates/dmamem/src/metrics.rs".into(),
                    "fn helper() { x.unwrap(); }\nfn orphan() { y.unwrap(); }\n".into(),
                ),
            ],
            &table(),
        );
        let denies: Vec<usize> = reached
            .iter()
            .filter(|f| f.rule == "panic-path" && f.severity == Severity::Deny)
            .map(|f| f.line)
            .collect();
        assert_eq!(denies, vec![1]);
    }

    #[test]
    fn unit_safety_mixing_and_guards() {
        // Sum of time and energy: deny.
        let bad = "fn f(a: u64, b: f64) -> f64 { self.idle_ns + self.used_mj }\n";
        assert!(lint("crates/dmamem/src/x.rs", bad)
            .iter()
            .any(|f| f.rule == "unit-safety"));
        // power × time is a legal derived quantity on either side.
        let ok = "fn f() { self.energy_mj += power_mw * dt.as_secs_f64(); }\n";
        assert!(lint("crates/mempower/src/x.rs", ok).is_empty());
        // Same class comparisons are fine.
        let ok = "fn f() -> bool { self.idle_ns >= self.limit_ns }\n";
        assert!(lint("crates/dmamem/src/x.rs", ok).is_empty());
        // Unclassified counters never fire.
        let ok = "fn f() -> bool { self.wakes > self.sleeps }\n";
        assert!(lint("crates/dmamem/src/x.rs", ok).is_empty());
    }

    #[test]
    fn unit_safety_accrue_literal() {
        let bad = "fn f(b: &mut B) { b.accrue(Cat::Active, 300.0, dt); }\n";
        assert!(lint("crates/mempower/src/x.rs", bad)
            .iter()
            .any(|f| f.rule == "unit-safety"));
        // A named constant is the fix; int literals (counts) are fine.
        let ok = "fn f(b: &mut B) { b.accrue(Cat::Active, ACTIVE_MW, dt); }\n";
        assert!(lint("crates/mempower/src/x.rs", ok).is_empty());
        // Tests may use literal wattages freely.
        let test = "#[cfg(test)]\nmod tests {\n    fn t(b: &mut B) { b.accrue(Cat::Active, 300.0, dt); }\n}\n";
        assert!(lint("crates/mempower/src/x.rs", test).is_empty());
    }

    #[test]
    fn obs_key_checks_literals_even_in_tests() {
        let good = "fn t() { assert!(reg.counter(\"dmamem.wakes\").is_some()); }\n";
        assert!(lint("crates/bench/tests/x.rs", good).is_empty());
        // simlint::allow(obs-key, "deliberately misspelled key: negative test input")
        let bad = "fn t() { assert!(reg.counter(\"dmamem.wakse\").is_some()); }\n";
        assert!(lint("crates/bench/tests/x.rs", bad)
            .iter()
            .any(|f| f.rule == "obs-key"));
        // simlint::allow(obs-key, "deliberately misspelled event kind: negative test input")
        let bad_kind = "fn t() { assert!(l.contains(r#\"\"kind\":\"epoch_tik\"\"#)); }\n";
        assert!(lint("crates/dmamem/src/obs.rs", bad_kind)
            .iter()
            .any(|f| f.rule == "obs-key"));
        let good_kind = "fn t() { assert!(l.contains(r#\"\"kind\":\"epoch_tick\"\"#)); }\n";
        assert!(lint("crates/dmamem/src/obs.rs", good_kind).is_empty());
    }

    #[test]
    fn obs_key_routes_trace_namespace_to_trace_table() {
        let good = "fn t() { assert!(json.contains(\"dmamem.trace.wakeup\")); }\n";
        assert!(lint("crates/bench/tests/x.rs", good).is_empty());
        // simlint::allow(obs-key, "deliberately unregistered trace key: negative test input")
        let bad = "fn t() { assert!(json.contains(\"dmamem.trace.wakeups\")); }\n";
        assert!(lint("crates/bench/tests/x.rs", bad)
            .iter()
            .any(|f| f.rule == "obs-key"));
        // The bare namespace is prose, not a key.
        let prose = "// spans live under the dmamem.trace namespace\nfn t() {}\n";
        assert!(lint("crates/bench/tests/x.rs", prose).is_empty());
    }

    #[test]
    fn obs_key_routes_prof_namespace_to_prof_table() {
        let good = "fn t() { assert!(reg.counter(\"dmamem.prof.events\").is_some()); }\n";
        assert!(lint("crates/bench/tests/x.rs", good).is_empty());
        // simlint::allow(obs-key, "deliberately misspelled prof key: negative test input")
        let bad = "fn t() { assert!(reg.counter(\"dmamem.prof.evnets\").is_some()); }\n";
        assert!(lint("crates/bench/tests/x.rs", bad)
            .iter()
            .any(|f| f.rule == "obs-key"));
    }

    #[test]
    fn trailing_punctuation_does_not_break_keys() {
        let src = "fn t() { assert!(csv.contains(\"dmamem.wakes,\")); }\n";
        assert!(lint("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn obs_key_liveness_denies_dead_keys() {
        // simlint::allow(obs-key, "deliberately unregistered key: liveness-test input")
        let obs = "\
pub const METRIC_KEYS: &[&str] = &[
    \"dmamem.wakes\",
    \"dmamem.dead_key\",
];
pub const PROF_KEYS: &[&str] = &[\"dmamem.prof.events\"];
pub const EVENT_KINDS: &[&str] = &[\"epoch_tick\"];
pub const TRACE_KEYS: &[&str] = &[\"dmamem.trace.wakeup\"];
fn reg(r: &mut R) {
    r.counter(\"dmamem.wakes\");
    r.counter(\"dmamem.prof.events\");
    r.kind(\"epoch_tick\");
    r.span(\"dmamem.trace.wakeup\");
}
";
        let keys = KeyTable::from_obs_source(obs).unwrap();
        let fs = lint_files(&[(crate::OBS_SOURCE.to_string(), obs.to_string())], &keys);
        let dead: Vec<&Finding> = fs.iter().filter(|f| f.rule == "obs-key-live").collect();
        assert_eq!(dead.len(), 1, "{fs:?}");
        assert_eq!(dead[0].line, 3);
        // simlint::allow(obs-key, "asserting on the deliberately dead key from the input above")
        assert!(dead[0].message.contains("dmamem.dead_key"));
        assert_eq!(dead[0].severity, Severity::Deny);
    }

    #[test]
    fn obs_key_liveness_counts_cross_file_emissions() {
        let obs = "\
pub const METRIC_KEYS: &[&str] = &[\"dmamem.wakes\"];
pub const PROF_KEYS: &[&str] = &[\"dmamem.prof.events\"];
pub const EVENT_KINDS: &[&str] = &[\"epoch_tick\"];
pub const TRACE_KEYS: &[&str] = &[\"dmamem.trace.wakeup\"];
";
        let emit = "fn e(r: &mut R) {\n\
            r.counter(\"dmamem.wakes\");\n\
            r.counter(\"dmamem.prof.events\");\n\
            r.line(\"{\\\"kind\\\":\\\"epoch_tick\\\"}\");\n\
            r.span(\"dmamem.trace.wakeup\");\n\
        }\n";
        let keys = KeyTable::from_obs_source(obs).unwrap();
        let fs = lint_files(
            &[
                (crate::OBS_SOURCE.to_string(), obs.to_string()),
                ("crates/dmamem/src/metrics.rs".to_string(), emit.to_string()),
            ],
            &keys,
        );
        assert!(
            !fs.iter().any(|f| f.rule == "obs-key-live"),
            "all keys are emitted: {fs:?}"
        );
    }
}
