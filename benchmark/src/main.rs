//! Host-time benchmark of the DMA-aware memory simulator: end-to-end
//! metrics per workload, a stage split, and per-layer counts and replays.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--ms M]
//! benchmark run [--seed N] [--repeats R] [--ms M] [--workload W]... [--out FILE]
//! benchmark trace --workload W [--seed N] [--repeats R] [--ms M] [--trace-out FILE]
//! benchmark compare A.json B.json
//! ```
//!
//! The first form measures one workload for `S` seconds and ends with one
//! JSON line of end-to-end (`--trace 0`) or per-layer (`--trace 1`)
//! metrics. `run` measures workloads round-robin for `R` repetitions plus
//! one traced repetition each, prints medians and quartiles, and can save
//! them; `trace` does the same for one workload and can export the
//! benchmark's spans as Chrome trace JSON; `compare` judges two saved
//! results metric by metric. Every repetition is a fresh child process
//! running one sweep thread. README.md describes the workloads.

mod child;
mod replay;
mod stats;

use std::env;
use std::fs;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use simcore::obs::json::{self, JsonObject, JsonValue};

use child::{workload, WorkloadDef, WORKLOADS};
use stats::{
    median, per_layer, quartiles, Better, EndToEnd, Scaling, END_TO_END, REFERENCE_PROBE_S,
};

/// Result-file schema version.
const SCHEMA: u64 = 1;
/// Fewest untraced repetitions a timed measurement takes.
const MIN_REPS: usize = 3;

/// The input seed of untraced repetition `k` of a measurement seeded
/// with `seed`. The first two repeat `seed` itself, so every measurement
/// checks that equal inputs render equal exhibits; the rest flip high
/// bits, so a measurement's medians average over inputs that no other
/// small seed shares.
fn input_seed(seed: u64, k: usize) -> u64 {
    if k < 2 {
        seed
    } else {
        seed ^ ((k as u64 - 1) << 32)
    }
}

/// What one child process reported.
struct Rep {
    /// The seed the child generated its inputs from.
    input: u64,
    attempted: u64,
    failed: u64,
    digest: String,
    /// Seconds the host-speed probe took, averaged over its runs right
    /// before and right after the repetition.
    probe_s: f64,
    metrics: Vec<(String, f64)>,
}

impl Rep {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

fn is_known_metric(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name) || per_layer().any(|(n, _)| n == name)
}

/// Runs one repetition in a child process and parses its report.
fn spawn_rep(
    def: &WorkloadDef,
    seed: u64,
    ms: u64,
    traced: bool,
    trace_out: Option<&str>,
) -> Result<Rep, String> {
    let exe = env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", def.name])
        .args(["--seed", &seed.to_string(), "--ms", &ms.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--trace");
    }
    if let Some(path) = trace_out {
        cmd.args(["--trace-out", path]);
    }
    let out = cmd.output().map_err(|e| format!("cannot run child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} repetition exited with {}",
            def.name, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let v = json::parse(line).map_err(|e| format!("bad child report: {e}"))?;
    let count = |key: &str| v.get(key).and_then(JsonValue::as_f64).map(|x| x as u64);
    let (
        Some(attempted),
        Some(failed),
        Some(digest),
        Some(probe_s),
        Some(JsonValue::Object(pairs)),
    ) = (
        count("attempted"),
        count("failed"),
        v.get("digest").and_then(JsonValue::as_str),
        v.get("probe_s").and_then(JsonValue::as_f64),
        v.get("metrics"),
    )
    else {
        return Err(format!("incomplete child report: {line}"));
    };
    let mut metrics = Vec::new();
    for (name, value) in pairs {
        match value.as_f64() {
            Some(x) if is_known_metric(name) => metrics.push((name.clone(), x)),
            _ => {
                return Err(format!(
                    "child reported unknown or non-numeric metric {name}"
                ))
            }
        }
    }
    Ok(Rep {
        input: seed,
        attempted,
        failed,
        digest: digest.to_string(),
        probe_s,
        metrics,
    })
}

/// Every repetition of one workload.
struct Summary {
    def: &'static WorkloadDef,
    seed: u64,
    ms: u64,
    reps: Vec<Rep>,
    traced: Option<Rep>,
    /// Children that exited without a report.
    crashed: u64,
}

impl Summary {
    fn new(def: &'static WorkloadDef, seed: u64, ms: Option<u64>) -> Self {
        Summary {
            def,
            seed,
            ms: ms.unwrap_or(def.ms).max(1),
            reps: Vec::new(),
            traced: None,
            crashed: 0,
        }
    }

    /// Runs one repetition and files it; false if the child crashed. The
    /// traced repetition always uses the measurement's own seed.
    fn add(&mut self, traced: bool, trace_out: Option<&str>) -> bool {
        let seed = if traced {
            self.seed
        } else {
            input_seed(self.seed, self.reps.len())
        };
        match spawn_rep(self.def, seed, self.ms, traced, trace_out) {
            Ok(rep) if traced => self.traced = Some(rep),
            Ok(rep) => self.reps.push(rep),
            Err(e) => {
                eprintln!("benchmark: {e}");
                self.crashed += 1;
                return false;
            }
        }
        true
    }

    fn all(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().chain(&self.traced)
    }

    fn attempted(&self) -> u64 {
        self.all().map(|r| r.attempted).sum::<u64>() + self.crashed
    }

    fn failed(&self) -> u64 {
        self.all().map(|r| r.failed).sum::<u64>() + self.crashed
    }

    /// The digest of the measurement's own seed, if every pair of
    /// repetitions with the same input rendered the same exhibits.
    fn digest(&self) -> Option<&str> {
        let agree = self.all().all(|r| {
            self.all()
                .all(|o| o.input != r.input || o.digest == r.digest)
        });
        let own = self.all().find(|r| r.input == self.seed)?;
        agree.then_some(own.digest.as_str())
    }

    fn correct(&self) -> bool {
        self.failed() == 0 && self.digest().is_some() && !self.reps.is_empty()
    }

    /// The metric's values over the untraced repetitions.
    fn values(&self, name: &str) -> Vec<f64> {
        self.reps.iter().filter_map(|r| r.get(name)).collect()
    }

    /// An end-to-end metric's values over the untraced repetitions,
    /// rescaled to the reference host speed by the median probe time of
    /// the measurement.
    fn end_to_end(&self, m: &EndToEnd) -> Vec<f64> {
        let factor = match m.scaling {
            Scaling::None => 1.0,
            Scaling::Time => REFERENCE_PROBE_S / self.probe_median(),
            Scaling::Rate => self.probe_median() / REFERENCE_PROBE_S,
        };
        self.values(m.name).iter().map(|v| v * factor).collect()
    }

    /// Median host-speed probe time over the untraced repetitions (NaN
    /// when there are none, which leaves no values to rescale).
    fn probe_median(&self) -> f64 {
        let mut probes: Vec<f64> = self.reps.iter().map(|r| r.probe_s).collect();
        if probes.is_empty() {
            f64::NAN
        } else {
            median(&mut probes)
        }
    }

    /// Per-layer metrics of the traced repetition, with the tracing
    /// overhead against the untraced median wall time of the same input.
    fn per_layer(&self) -> Option<Vec<(String, &'static str, f64)>> {
        let traced = self.traced.as_ref()?;
        let mut walls: Vec<f64> = self
            .reps
            .iter()
            .filter(|r| r.input == self.seed)
            .filter_map(|r| r.get("wall_s"))
            .collect();
        let overhead = match (traced.get("wall_s"), walls.is_empty()) {
            (Some(wall), false) => wall / median(&mut walls) - 1.0,
            _ => 0.0,
        };
        per_layer()
            .map(|(name, unit)| {
                let v = if name == "bench.trace_overhead_frac" {
                    Some(overhead)
                } else {
                    traced.get(&name)
                };
                v.map(|v| (name, unit, v))
            })
            .collect()
    }

    fn print_header(&self) {
        println!(
            "== {}: seed {}, {} ms, {} repetition(s){}, host probe {:.4} s (reference {REFERENCE_PROBE_S} s)",
            self.def.name,
            self.seed,
            self.ms,
            self.reps.len(),
            if self.traced.is_some() { " + 1 traced" } else { "" },
            self.probe_median()
        );
    }

    fn print_end_to_end(&self) {
        for m in &END_TO_END {
            let mut v = self.end_to_end(m);
            if v.is_empty() {
                continue;
            }
            let [q1, med, q3] = quartiles(&v);
            println!(
                "metric {} {} better={} bound={} value {} median {med} q1 {q1} q3 {q3} spread {:.2}%",
                m.name,
                m.unit,
                m.better.label(),
                m.bound,
                (m.summary)(&mut v),
                spread(q1, med, q3) * 100.0
            );
        }
    }

    fn print_per_layer(&self) {
        for (name, unit, v) in self.per_layer().unwrap_or_default() {
            println!("layer {name} {unit} {v}");
        }
    }

    fn print_ops(&self) {
        let attempted = self.attempted();
        let failed = self.failed();
        println!(
            "ops attempted {attempted} failed {failed} failed_frac {} digest {} correct {}",
            failed as f64 / attempted.max(1) as f64,
            self.digest().unwrap_or("MISMATCH"),
            if self.correct() { "yes" } else { "NO" }
        );
    }
}

/// Interquartile distance as a share of the median.
fn spread(q1: f64, med: f64, q3: f64) -> f64 {
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// `--flag value` pairs of an argument list; anything else is an error.
struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !flags.contains(&a.as_str()) {
                return Err(format!("unexpected argument {a}"));
            }
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            pairs.push((a.clone(), v.clone()));
        }
        Ok(Args { pairs })
    }

    fn all(&self, flag: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn one(&self, flag: &str) -> Option<&str> {
        self.all(flag).last().copied()
    }

    fn num(&self, flag: &str) -> Result<Option<u64>, String> {
        self.one(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
            })
            .transpose()
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("benchmark: {msg}");
    ExitCode::FAILURE
}

/// `--workload W --seed N --seconds S --trace 0|1 [--ms M]`: repetitions
/// of one workload until `S` seconds are used, then one JSON result line.
fn timed_run(args: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--ms"],
    )?;
    let name = a.one("--workload").ok_or("--workload is required")?;
    let def = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = a.num("--seed")?.unwrap_or(42);
    let seconds = a.num("--seconds")?.ok_or("--seconds is required")? as f64;
    let trace = match a.one("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    let mut s = Summary::new(def, seed, a.num("--ms")?);
    // simlint::allow(wall-clock, "benchmark harness: host time is what it measures")
    let start = Instant::now();
    if trace && !s.add(true, None) {
        return Ok(ExitCode::FAILURE);
    }
    // A traced measurement needs untraced repetitions only as the
    // reference for the tracing overhead (the first two share its input).
    let min_reps = if trace { 2 } else { MIN_REPS };
    let mut longest = 0.0f64;
    loop {
        // simlint::allow(wall-clock, "benchmark harness: host time is what it measures")
        let rep_start = Instant::now();
        if !s.add(false, None) {
            break;
        }
        longest = longest.max(rep_start.elapsed().as_secs_f64());
        if s.reps.len() >= min_reps && start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    if s.reps.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
    s.print_header();
    let mut metrics = JsonObject::new();
    if trace {
        s.print_per_layer();
        let layers = s
            .per_layer()
            .ok_or("traced repetition lacks per-layer metrics")?;
        for (name, unit, v) in layers {
            metrics.field_raw(&name, &metric_json(v, unit));
        }
    } else {
        s.print_end_to_end();
        for m in &END_TO_END {
            let mut v = s.end_to_end(m);
            if v.is_empty() {
                return Err(format!("no repetition reported {}", m.name));
            }
            metrics.field_raw(m.name, &metric_json((m.summary)(&mut v), m.unit));
        }
    }
    s.print_ops();
    let mut out = JsonObject::new();
    out.field_bool("correct", s.correct())
        .field_u64("attempted", s.attempted())
        .field_u64("failed", s.failed())
        .field_raw("metrics", &metrics.finish());
    println!("{}", out.finish());
    Ok(ExitCode::SUCCESS)
}

fn metric_json(value: f64, unit: &str) -> String {
    let mut o = JsonObject::new();
    o.field_f64("value", value).field_str("unit", unit);
    o.finish()
}

fn number_array(values: &[f64]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|v| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            }
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// `run` and `trace`: round-robin repetitions plus one traced repetition
/// per workload, printed and optionally saved.
fn measure(args: &[String], trace_subcommand: bool) -> Result<ExitCode, String> {
    let a = Args::parse(
        args,
        &[
            "--workload",
            "--seed",
            "--repeats",
            "--ms",
            "--out",
            "--trace-out",
        ],
    )?;
    let seed = a.num("--seed")?.unwrap_or(42);
    let repeats = a
        .num("--repeats")?
        .unwrap_or(if trace_subcommand { 3 } else { 5 })
        .max(1);
    let ms = a.num("--ms")?;
    let mut summaries = Vec::new();
    for name in a.all("--workload") {
        let def = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        summaries.push(Summary::new(def, seed, ms));
    }
    if summaries.is_empty() {
        if trace_subcommand {
            return Err("trace needs --workload".into());
        }
        summaries = WORKLOADS
            .iter()
            .map(|d| Summary::new(d, seed, ms))
            .collect();
    }
    let trace_out = a.one("--trace-out");
    if trace_out.is_some() && summaries.len() > 1 {
        return Err("--trace-out takes a single --workload".into());
    }
    for _ in 0..repeats {
        for s in &mut summaries {
            s.add(false, None);
        }
    }
    for s in &mut summaries {
        s.add(true, trace_out);
    }
    for s in &summaries {
        s.print_header();
        s.print_end_to_end();
        s.print_per_layer();
        s.print_ops();
    }
    if let Some(path) = a.one("--out") {
        let text = result_json(args, seed, repeats, &summaries);
        fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("(results written to {path})");
    }
    Ok(if summaries.iter().all(Summary::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// A saved result: a manifest of how it was measured, then every
/// workload's end-to-end values and per-layer readings.
fn result_json(args: &[String], seed: u64, repeats: u64, summaries: &[Summary]) -> String {
    let argv: Vec<String> = args
        .iter()
        .map(|a| {
            let mut s = String::from("\"");
            json::escape_into(&mut s, a);
            s.push('"');
            s
        })
        .collect();
    let mut ms = JsonObject::new();
    for s in summaries {
        ms.field_u64(s.def.name, s.ms);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut manifest = JsonObject::new();
    manifest
        .field_u64("schema", SCHEMA)
        .field_raw("argv", &format!("[{}]", argv.join(",")))
        .field_u64("seed", seed)
        .field_u64("repeats", repeats)
        .field_raw("ms", &ms.finish())
        .field_u64("threads", 1)
        .field_u64("nproc", nproc as u64);
    let mut workloads = JsonObject::new();
    for s in summaries {
        let mut e2e = JsonObject::new();
        for m in &END_TO_END {
            let v = s.end_to_end(m);
            if v.is_empty() {
                continue;
            }
            let [q1, med, q3] = quartiles(&v);
            let mut o = JsonObject::new();
            o.field_str("unit", m.unit)
                .field_f64("value", (m.summary)(&mut v.clone()))
                .field_f64("median", med)
                .field_f64("q1", q1)
                .field_f64("q3", q3)
                .field_raw("values", &number_array(&v));
            e2e.field_raw(m.name, &o.finish());
        }
        let mut layers = JsonObject::new();
        for (name, unit, v) in s.per_layer().unwrap_or_default() {
            layers.field_raw(&name, &metric_json(v, unit));
        }
        let mut w = JsonObject::new();
        w.field_u64("attempted", s.attempted())
            .field_u64("failed", s.failed())
            .field_f64("probe_s", s.probe_median())
            .field_str("digest", s.digest().unwrap_or("MISMATCH"))
            .field_bool("correct", s.correct())
            .field_raw("end_to_end", &e2e.finish())
            .field_raw("per_layer", &layers.finish());
        workloads.field_raw(s.def.name, &w.finish());
    }
    let mut out = JsonObject::new();
    out.field_raw("manifest", &manifest.finish())
        .field_raw("workloads", &workloads.finish());
    out.finish() + "\n"
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judges `b` against the reference `a`. Where either side's spread
/// (interquartile distance over median) exceeds the bound the pair is
/// unresolved, unless every `b` value beats every `a` value.
fn verdict(m: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let [a1, am, a3] = quartiles(a);
    let [b1, bm, b3] = quartiles(b);
    let gain = match m.better {
        Better::Lower => (am - bm) / am,
        Better::Higher => (bm - am) / am,
    };
    let (amin, amax) = min_max(a);
    let (bmin, bmax) = min_max(b);
    let all_better = match m.better {
        Better::Lower => bmax < amin,
        Better::Higher => bmin > amax,
    };
    let verdict = if spread(a1, am, a3).max(spread(b1, bm, b3)) > m.bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if gain < -m.bound {
        Verdict::Worse
    } else if gain > spread(a1, am, a3) && gain > 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (gain, verdict)
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// `v` to five significant digits.
fn sig(v: f64) -> String {
    let decimals = 4 - v.abs().log10().floor().clamp(-10.0, 4.0) as i32;
    format!("{v:.*}", decimals.max(0) as usize)
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare A.json B.json`: every end-to-end metric of every workload
/// the two results share, B judged against A. Exits 1 if any is worse.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare needs two result files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["schema", "seed", "ms", "threads"] {
        let (x, y) = (
            a.get("manifest").and_then(|m| m.get(key)),
            b.get("manifest").and_then(|m| m.get(key)),
        );
        if x.is_none() || x != y {
            return Err(format!("manifests differ in {key}: {x:?} vs {y:?}"));
        }
    }
    let values = |doc: &JsonValue, w: &str, m: &str| -> Option<Vec<f64>> {
        let v = doc
            .get("workloads")?
            .get(w)?
            .get("end_to_end")?
            .get(m)?
            .get("values")?;
        v.as_array()?.iter().map(JsonValue::as_f64).collect()
    };
    println!(
        "{:<15} {:<19} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "gain"
    );
    let mut worse = false;
    for def in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (values(&a, def.name, m.name), values(&b, def.name, m.name))
            else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (gain, v) = verdict(m, &va, &vb);
            worse |= v == Verdict::Worse;
            let show = |v: &[f64]| {
                let [q1, med, q3] = quartiles(v);
                format!("{} [{}, {}] {}", sig(med), sig(q1), sig(q3), m.unit)
            };
            println!(
                "{:<15} {:<19} {:>34} {:>34} {:>+7.2}%  {v:?}",
                def.name,
                m.name,
                show(&va),
                show(&vb),
                gain * 100.0
            );
        }
    }
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => return child::main(&args[1..]),
        Some("run") => measure(&args[1..], false),
        Some("trace") => measure(&args[1..], true),
        Some("compare") => compare(&args[1..]),
        _ => timed_run(&args),
    };
    result.unwrap_or_else(|e| fail(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall() -> &'static EndToEnd {
        &END_TO_END[0]
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [10.0, 10.1, 10.2, 10.1, 10.0];
        assert_eq!(verdict(wall(), &a, &a).1, Verdict::Same);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(wall(), &a, &slower).1, Verdict::Worse);
        let faster: Vec<f64> = a.iter().map(|x| x * 0.7).collect();
        assert_eq!(verdict(wall(), &a, &faster).1, Verdict::Better);
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(verdict(wall(), &a, &noisy).1, Verdict::Unresolved);
    }
}
