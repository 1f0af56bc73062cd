//! The baseline gate: diffs a deterministic artifact against its
//! committed baseline.
//!
//! Two kinds of artifact are gated, each with a fixed per-field
//! [`Policy`]:
//!
//! * **Engine reports** — `BENCH_engine.json`, written by `experiments
//!   --prof-out` (a document with `"bench": "engine"`). Every counter is
//!   [`Policy::Exact`]: the counters derive purely from simulated
//!   behavior, so any drift means the engine did different work and the
//!   baseline must be re-recorded deliberately.
//! * **Attribution reports** — `crates/bench/baselines/attrib_quick.json`,
//!   written by `experiments trace-report --attrib-out` (a document with a
//!   top-level `runs` array). Each energy bucket is compared as its share
//!   of the run's total under [`Policy::AbsTol`]`(`[`ATTRIBUTION_TOLERANCE`]`)`,
//!   so a change that silently moves energy between buckets fails even
//!   when the totals still look plausible.
//!
//! [`diff`] refuses to compare documents of different kinds, engine
//! reports recorded with a different `queue_kind`, `trace_ms` or `seed`,
//! and documents whose rows or fields differ: those are incomparable, and
//! the gate says so instead of emitting a wall of mismatches.

use simcore::obs::json::{self, JsonValue};

/// Tolerated drift in an attribution bucket's share of run energy.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.02;

/// The largest counter the gate accepts: above 2^53 an `f64` (the JSON
/// number type) no longer represents every integer, so equality would lie.
const MAX_COUNTER: f64 = 9_007_199_254_740_992.0;

/// The queue kind of reports recorded before the `queue_kind` field
/// existed: they were all recorded on the binary-heap queue.
const LEGACY_QUEUE_KIND: &str = "binary-heap-v1";

/// Per-figure engine counters.
const FIGURE_FIELDS: &[&str] = &[
    "events",
    "heap_pushes",
    "heap_pops",
    "max_heap_depth",
    "transfers",
    "requests",
    "batched_requests",
    "deferred_events",
    "sims",
    "memo_hits",
    "memo_misses",
    "equiv_hits",
    "trace_hits",
    "trace_misses",
];

/// Whole-matrix engine counters.
const TOTALS_FIELDS: &[&str] = &[
    "events",
    "heap_pushes",
    "heap_pops",
    "max_heap_depth",
    "transfers",
    "requests",
    "batched_requests",
    "deferred_events",
    "sims",
];

/// How one field is compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Any difference fails.
    Exact,
    /// A difference larger than the bound fails.
    AbsTol(f64),
}

/// What a document is, with the settings that make two of them
/// comparable.
#[derive(Debug)]
enum Kind {
    Engine {
        queue_kind: String,
        trace_ms: f64,
        seed: u64,
    },
    Attribution,
}

impl Kind {
    fn name(&self) -> &'static str {
        match self {
            Kind::Engine { .. } => "an engine report",
            Kind::Attribution => "an attribution report",
        }
    }

    fn policy(&self) -> Policy {
        match self {
            Kind::Engine { .. } => Policy::Exact,
            Kind::Attribution => Policy::AbsTol(ATTRIBUTION_TOLERANCE),
        }
    }
}

/// One named row of compared fields (a figure, a run, the totals).
#[derive(Debug)]
struct Row {
    name: String,
    fields: Vec<(String, f64)>,
}

/// A parsed baseline document.
#[derive(Debug)]
pub struct Doc {
    label: String,
    kind: Kind,
    rows: Vec<Row>,
}

/// One field compared between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Row the field belongs to (`fig5`, `totals`, `OLTP-St / baseline`, ...).
    pub row: String,
    /// Field name within the row.
    pub field: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// How the two are compared.
    pub policy: Policy,
}

impl Entry {
    /// Whether the field fails its policy.
    pub fn failed(&self) -> bool {
        match self.policy {
            Policy::Exact => self.baseline != self.current,
            Policy::AbsTol(tol) => (self.current - self.baseline).abs() > tol,
        }
    }
}

/// A full comparison of two documents.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every field compared, document order.
    pub entries: Vec<Entry>,
}

impl Report {
    /// Fields that failed their policy; the gate passes when empty.
    pub fn failures(&self) -> Vec<&Entry> {
        self.entries.iter().filter(|e| e.failed()).collect()
    }

    /// Human-readable rendering: one line per failed field, then a
    /// one-line count of the rest.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.failures() {
            let (base, cur, rule) = match e.policy {
                Policy::Exact => (
                    format!("{}", e.baseline),
                    format!("{}", e.current),
                    "must match exactly".to_string(),
                ),
                Policy::AbsTol(tol) => (
                    format!("{:.4}", e.baseline),
                    format!("{:.4}", e.current),
                    format!("drift {:.4} > {tol}", (e.current - e.baseline).abs()),
                ),
            };
            out.push_str(&format!(
                "FAIL  {:<36} {:<16} {base:>14} -> {cur:>14} ({rule})\n",
                e.row, e.field
            ));
        }
        let failed = self.failures().len();
        out.push_str(&format!(
            "  ok  {} of {} fields within policy\n",
            self.entries.len() - failed,
            self.entries.len()
        ));
        out
    }
}

/// Parses a baseline document; `label` (usually the file path) prefixes
/// every error. Counters must be non-negative integers no larger than
/// 2^53; anything else is an error naming the row and field.
pub fn parse(label: &str, text: &str) -> Result<Doc, String> {
    let v = json::parse(text).map_err(|e| format!("{label}: {e}"))?;
    let (kind, rows) = if v.get("bench").and_then(JsonValue::as_str) == Some("engine") {
        parse_engine(label, &v)?
    } else if let Some(runs) = v.get("runs").and_then(JsonValue::as_array) {
        (Kind::Attribution, parse_attribution(label, runs)?)
    } else {
        return Err(format!(
            "{label}: not a baseline document (expected \"bench\": \"engine\" or a top-level \
             \"runs\" array)"
        ));
    };
    Ok(Doc {
        label: label.to_string(),
        kind,
        rows,
    })
}

/// Reads `obj[field]` as a counter.
fn counter(label: &str, row: &str, obj: &JsonValue, field: &str) -> Result<f64, String> {
    let bad = |why: String| format!("{label}: row `{row}` field `{field}`: {why}");
    let v = obj
        .get(field)
        .ok_or_else(|| bad("missing".into()))?
        .as_f64()
        .ok_or_else(|| bad("not a number".into()))?;
    if v < 0.0 || v.fract() != 0.0 || v > MAX_COUNTER {
        return Err(bad(format!(
            "{v} is not a counter (a non-negative integer no larger than 2^53)"
        )));
    }
    Ok(v)
}

fn counters(label: &str, name: &str, obj: &JsonValue, fields: &[&str]) -> Result<Row, String> {
    let fields = fields
        .iter()
        .map(|f| Ok((f.to_string(), counter(label, name, obj, f)?)))
        .collect::<Result<_, String>>()?;
    Ok(Row {
        name: name.to_string(),
        fields,
    })
}

fn parse_engine(label: &str, v: &JsonValue) -> Result<(Kind, Vec<Row>), String> {
    let array = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{label}: missing `{key}` array"))
    };
    let name = |item: &JsonValue, key: &str, i: usize| {
        item.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{label}: {key} {i} missing `{key}`"))
    };
    let queue_kind = v
        .get("queue_kind")
        .and_then(JsonValue::as_str)
        .unwrap_or(LEGACY_QUEUE_KIND)
        .to_string();
    let trace_ms = v
        .get("trace_ms")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{label}: missing `trace_ms`"))?;
    let seed = counter(label, "report", v, "seed")? as u64;
    let mut rows = Vec::new();
    for (i, fig) in array("figures")?.iter().enumerate() {
        rows.push(counters(
            label,
            &name(fig, "figure", i)?,
            fig,
            FIGURE_FIELDS,
        )?);
    }
    let totals = v
        .get("totals")
        .ok_or_else(|| format!("{label}: missing `totals`"))?;
    rows.push(counters(label, "totals", totals, TOTALS_FIELDS)?);
    for (i, phase) in array("phases")?.iter().enumerate() {
        let row = format!("phase {}", name(phase, "phase", i)?);
        rows.push(counters(label, &row, phase, &["calls"])?);
    }
    let kind = Kind::Engine {
        queue_kind,
        trace_ms,
        seed,
    };
    Ok((kind, rows))
}

fn parse_attribution(label: &str, runs: &[JsonValue]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let text = |key: &str| {
            run.get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{label}: run {i} missing `{key}`"))
        };
        let name = format!("{} / {}", text("workload")?, text("scheme")?);
        let number = |v: Option<&JsonValue>, field: &str| {
            v.and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{label}: row `{name}` field `{field}`: not a number"))
        };
        let total = number(run.get("total_mj"), "total_mj")?;
        let Some(JsonValue::Object(buckets)) = run.get("buckets") else {
            return Err(format!(
                "{label}: row `{name}` field `buckets`: not an object"
            ));
        };
        // Compare each bucket as its share of the run's energy.
        let mut fields = Vec::new();
        for (bucket, mj) in buckets {
            let mj = number(Some(mj), bucket)?;
            fields.push((bucket.clone(), if total > 0.0 { mj / total } else { 0.0 }));
        }
        rows.push(Row { name, fields });
    }
    Ok(rows)
}

/// Diffs `current` against `baseline`. Errors when the two are
/// incomparable (see the module docs); field differences are reported
/// through [`Report`].
pub fn diff(baseline: &Doc, current: &Doc) -> Result<Report, String> {
    let (b, c) = (&baseline.label, &current.label);
    match (&baseline.kind, &current.kind) {
        (
            Kind::Engine {
                queue_kind: bq,
                trace_ms: bt,
                seed: bs,
            },
            Kind::Engine {
                queue_kind: cq,
                trace_ms: ct,
                seed: cs,
            },
        ) => {
            // Comparing queue-shape counters across pop-order schemas
            // would fail every heap counter, so name the remedy instead.
            if bq != cq {
                return Err(format!(
                    "queue_kind mismatch: {b} `{bq}` vs {c} `{cq}` — the baseline was \
                     recorded under different queue semantics; re-record it (`experiments \
                     all --quick --threads 1 --prof-out FILE`) before diffing"
                ));
            }
            // trace_ms is a config literal, not a computed value, so any
            // difference at all makes the reports incomparable.
            if bt != ct {
                return Err(format!(
                    "trace_ms mismatch: {b} {bt} vs {c} {ct} — reports are incomparable"
                ));
            }
            if bs != cs {
                return Err(format!(
                    "seed mismatch: {b} {bs} vs {c} {cs} — reports are incomparable"
                ));
            }
        }
        (Kind::Attribution, Kind::Attribution) => {}
        (bk, ck) => {
            return Err(format!(
                "document kind mismatch: {b} is {}, {c} is {} — refusing to compare",
                bk.name(),
                ck.name()
            ));
        }
    }
    if baseline.rows.len() != current.rows.len() {
        return Err(format!(
            "row count mismatch: {b} has {}, {c} has {}",
            baseline.rows.len(),
            current.rows.len()
        ));
    }
    let policy = baseline.kind.policy();
    let mut entries = Vec::new();
    for (br, cr) in baseline.rows.iter().zip(&current.rows) {
        if br.name != cr.name {
            return Err(format!(
                "row mismatch at the same position: {b} `{}` vs {c} `{}`",
                br.name, cr.name
            ));
        }
        if br.fields.len() != cr.fields.len() {
            return Err(format!("row `{}`: field set changed", br.name));
        }
        for ((bf, bv), (cf, cv)) in br.fields.iter().zip(&cr.fields) {
            if bf != cf {
                return Err(format!(
                    "row `{}`: field `{bf}` vs `{cf}` at the same position",
                    br.name
                ));
            }
            entries.push(Entry {
                row: br.name.clone(),
                field: bf.clone(),
                baseline: *bv,
                current: *cv,
                policy,
            });
        }
    }
    Ok(Report { entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(events: &str, seed: u64) -> String {
        format!(
            "{{\"bench\": \"engine\", \"queue_kind\": \"{q}\", \"trace_ms\": 2, \
             \"seed\": {seed},\n\"figures\": [\n  {{\"figure\": \"fig5\", \"events\": {events}, \
             \"heap_pushes\": 1005, \"heap_pops\": 1000, \"max_heap_depth\": 17, \
             \"transfers\": 9, \"requests\": 640, \"batched_requests\": 600, \"deferred_events\": 300, \
             \"sims\": 2, \"memo_hits\": 3, \
             \"memo_misses\": 2, \"equiv_hits\": 1, \"trace_hits\": 1, \"trace_misses\": 1}}\n],\n\
             \"totals\": {{\"events\": {events}, \"heap_pushes\": 1005, \"heap_pops\": 1000, \
             \"max_heap_depth\": 17, \"transfers\": 9, \"requests\": 640, \"batched_requests\": 600, \
             \"deferred_events\": 300, \"sims\": 2}},\n\
             \"phases\": [\n  {{\"phase\": \"dispatch\", \"calls\": 1000}}\n]}}",
            q = dmamem::ENGINE_QUEUE_KIND
        )
    }

    fn attribution(idle: f64, serving: f64) -> String {
        format!(
            "{{\"runs\":[{{\"workload\":\"OLTP-St\",\"scheme\":\"baseline\",\
             \"total_mj\":{t},\"buckets\":{{\"useful_active\":{serving},\
             \"active_idle_dma\":{idle}}},\"per_chip\":[]}}]}}",
            t = idle + serving
        )
    }

    fn gate(base: &str, cur: &str) -> Result<Report, String> {
        diff(&parse("base.json", base)?, &parse("cur.json", cur)?)
    }

    #[test]
    fn identical_engine_reports_pass_exactly() {
        let r = engine("1000", 42);
        let d = gate(&r, &r).unwrap();
        assert!(d.failures().is_empty());
        // 14 per-figure fields + 9 totals + 1 phase.
        assert_eq!(d.entries.len(), 24);
        assert!(d.entries.iter().all(|e| e.policy == Policy::Exact));
        assert!(d.render().contains("24 of 24 fields within policy"));
    }

    #[test]
    fn a_doctored_counter_fails_the_gate() {
        let d = gate(&engine("1000", 42), &engine("1001", 42)).unwrap();
        // events drifted in the figure row and in the totals row.
        assert_eq!(d.failures().len(), 2);
        let out = d.render();
        assert!(out.contains("FAIL  fig5"), "{out}");
        assert!(out.contains("1000 ->"), "{out}");
    }

    #[test]
    fn counters_must_be_non_negative_integers_up_to_2_pow_53() {
        // A negative counter used to read as 0 and pass against a real 0.
        let err = gate(&engine("-1", 42), &engine("0", 42)).unwrap_err();
        assert!(
            err.starts_with("base.json: row `fig5` field `events`"),
            "{err}"
        );
        for bad in ["1.5", "1e30", "9007199254740994"] {
            let err = gate(&engine("0", 42), &engine(bad, 42)).unwrap_err();
            assert!(err.contains("cur.json: row `fig5` field `events`"), "{err}");
            assert!(err.contains("not a counter"), "{err}");
        }
        assert!(gate(&engine("9007199254740992", 42), &engine("0", 42)).is_ok());
        let err = gate(&engine("\"7\"", 42), &engine("0", 42)).unwrap_err();
        assert!(err.contains("`events`: not a number"), "{err}");
    }

    #[test]
    fn attribution_shares_gate_at_the_tolerance() {
        let base = attribution(60.0, 40.0);
        let d = gate(&base, &base).unwrap();
        assert!(d.failures().is_empty());
        assert_eq!(d.entries.len(), 2);
        assert_eq!(d.entries[0].policy, Policy::AbsTol(ATTRIBUTION_TOLERANCE));
        // A 1-point share shift passes; a 5-point one fails both buckets.
        assert!(gate(&base, &attribution(59.0, 41.0))
            .unwrap()
            .failures()
            .is_empty());
        let d = gate(&base, &attribution(55.0, 45.0)).unwrap();
        assert_eq!(d.failures().len(), 2);
        assert!(d.render().contains("drift 0.0500 > 0.02"));
    }

    #[test]
    fn different_kinds_are_refused() {
        let err = gate(&engine("1000", 42), &attribution(60.0, 40.0)).unwrap_err();
        assert!(err.contains("document kind mismatch"), "{err}");
        assert!(err.contains("base.json is an engine report"), "{err}");
        assert!(err.contains("cur.json is an attribution report"), "{err}");
        assert!(parse("x.json", "{\"bench\": \"sweep\"}").is_err());
    }

    #[test]
    fn queue_kind_mismatch_is_a_clear_rerecord_error() {
        let current = engine("1000", 42);
        let kind = format!(" \"queue_kind\": \"{}\",", dmamem::ENGINE_QUEUE_KIND);
        // A report without the field reads as the legacy heap kind; a
        // wheel-only report predates the request-train lane.
        for (old, old_kind) in [
            (current.replace(&kind, ""), LEGACY_QUEUE_KIND),
            (
                current.replace(
                    &kind,
                    &format!(" \"queue_kind\": \"{}\",", simcore::QUEUE_KIND),
                ),
                simcore::QUEUE_KIND,
            ),
        ] {
            assert_ne!(old, current);
            let err = gate(&old, &current).unwrap_err();
            assert!(err.contains("queue_kind mismatch"), "{err}");
            assert!(err.contains("different queue semantics"), "{err}");
            assert!(err.contains("re-record"), "{err}");
            assert!(err.contains(old_kind) && err.contains(dmamem::ENGINE_QUEUE_KIND));
        }
    }

    #[test]
    fn a_report_recorded_before_deferred_events_is_refused() {
        let current = engine("1000", 42);
        let kind = format!("\"queue_kind\": \"{}\"", dmamem::ENGINE_QUEUE_KIND);
        let old = current
            .replace(", \"deferred_events\": 300", "")
            .replace(&kind, "\"queue_kind\": \"calendar-wheel-v1+trains-v2\"");
        assert_ne!(old, current);
        let err = gate(&old, &current).unwrap_err();
        assert!(err.contains("deferred_events"), "{err}");
    }

    #[test]
    fn incomparable_documents_are_an_error() {
        let base = engine("1000", 42);
        assert!(gate(&base, &engine("1000", 43))
            .unwrap_err()
            .contains("seed mismatch"));
        let longer = base.replace("\"trace_ms\": 2", "\"trace_ms\": 4");
        assert!(gate(&base, &longer)
            .unwrap_err()
            .contains("trace_ms mismatch"));
        assert!(gate(&base, "not json").is_err());
        assert!(gate(&base, &base.replace("fig5", "fig6")).is_err());
        let att = attribution(60.0, 40.0);
        assert!(gate(&att, "{\"runs\":[]}").is_err());
        assert!(gate(&att, &att.replace("OLTP-St", "OLTP-Db")).is_err());
    }
}
