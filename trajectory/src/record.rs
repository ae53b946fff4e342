//! `trajectory all` and `trajectory compare`: one record for the whole
//! benchmark, and the noise-aware comparison of two records.
//!
//! `all` runs every workload in a process of its own (so `peak_rss_mb`
//! is per workload): `--repeat k` end-to-end runs, then one traced run.
//! The record keeps every value plus min / quartiles / median, so the
//! spread travels with it and `compare` needs nothing but two records.

use crate::fixture::nproc;
use crate::json::{obj, Json};
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WRITER_ONLY};
use crate::stats::{median, quartiles, sorted, spread};
use crate::workloads::{Workload, WORKLOADS};
use std::path::Path;
use std::process::{Command, Stdio};

/// Per-layer metrics that are counts of a deterministic single-threaded
/// replay: two records of one commit and seed must agree on them exactly.
pub const EXACT: &[&str] = &[
    "serve.reply_bytes_per_op",
    "plan.misestimates",
    "paths.frontier_pops",
    "match.rows_examined_per_result",
    "store.bytes_written_per_cycle",
    "store.backend_ops_per_save",
];

/// What `all` was asked to do.
pub struct AllOptions {
    /// Seed handed to every run.
    pub seed: u64,
    /// `--seconds` handed to every run.
    pub seconds: f64,
    /// End-to-end runs per workload.
    pub repeat: usize,
    /// Output directory of the runs.
    pub out_dir: String,
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Run one workload in a child process; returns its contract line and
/// the run record it wrote.
fn child_run(o: &AllOptions, w: &Workload, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", &o.out_dir])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!(
            "{} (trace {trace}) exited with {}",
            w.name, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed nothing", w.name))?;
    let path = Path::new(&o.out_dir).join(format!("run_{}_t{}.json", w.name, u8::from(trace)));
    let detail = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((Json::parse(line)?, Json::parse(&detail)?))
}

fn def_json(def: &MetricDef) -> Vec<(String, Json)> {
    let mut pairs = vec![
        ("unit".to_owned(), def.unit.into()),
        ("better".to_owned(), def.better.as_str().into()),
    ];
    if let Some(bound) = def.bound {
        pairs.push(("bound".to_owned(), bound.into()));
    }
    pairs
}

fn summary(def: &MetricDef, values: &[f64]) -> Json {
    let s = sorted(values.to_vec());
    let mut pairs = def_json(def);
    pairs.push((
        "values".to_owned(),
        Json::Arr(values.iter().map(|&v| v.into()).collect()),
    ));
    pairs.push(("min".to_owned(), s[0].into()));
    pairs.push(("median".to_owned(), median(values).into()));
    pairs.push(("max".to_owned(), s[s.len() - 1].into()));
    if let Some((q1, q3)) = quartiles(values) {
        pairs.push(("q1".to_owned(), q1.into()));
        pairs.push(("q3".to_owned(), q3.into()));
    }
    Json::Obj(pairs)
}

/// `table.<name>.value` of a contract line (`metrics`) or a run record
/// (`end_to_end`).
fn metric_value(run: &Json, table: &str, name: &str) -> Option<f64> {
    run.get(table)?.get(name)?.get("value")?.as_f64()
}

/// Run the whole benchmark and build its record.
///
/// # Errors
///
/// A child run that fails, or whose output does not parse.
pub fn all(o: &AllOptions) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        eprintln!(
            "trajectory: {} ({} end-to-end + 1 traced)",
            w.name, o.repeat
        );
        let mut lines = Vec::new();
        let mut details = Vec::new();
        for _ in 0..o.repeat {
            let (line, detail) = child_run(o, w, false)?;
            lines.push(line);
            details.push(detail);
        }
        let (traced_line, traced_detail) = child_run(o, w, true)?;

        let mut e2e = Vec::new();
        for def in END_TO_END.iter().chain(WRITER_ONLY) {
            let values: Vec<f64> = details
                .iter()
                .filter_map(|d| metric_value(d, "end_to_end", def.name))
                .collect();
            if values.is_empty() && WRITER_ONLY.iter().any(|d| d.name == def.name) {
                continue; // not a metric of this workload
            }
            if values.len() != details.len() {
                return Err(format!("{}: a run lacks metric {}", w.name, def.name));
            }
            e2e.push((def.name.to_owned(), summary(def, &values)));
        }
        let mut layers = Vec::new();
        for def in PER_LAYER {
            let value = metric_value(&traced_line, "metrics", def.name)
                .ok_or_else(|| format!("{}: traced run lacks metric {}", w.name, def.name))?;
            let mut pairs = def_json(def);
            pairs.push(("value".to_owned(), value.into()));
            layers.push((def.name.to_owned(), Json::Obj(pairs)));
        }
        let count = |key: &str| -> f64 {
            lines
                .iter()
                .filter_map(|l| l.get(key).and_then(Json::as_f64))
                .sum()
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        let mut entry = vec![
            ("why".to_owned(), w.why.into()),
            ("attempted".to_owned(), attempted.into()),
            ("failed".to_owned(), failed.into()),
            ("failed_ratio".to_owned(), (failed / attempted).into()),
            ("end_to_end".to_owned(), Json::Obj(e2e)),
            ("per_layer".to_owned(), Json::Obj(layers)),
        ];
        // Run facts (scale, clients, distinct texts, per-class client
        // latencies, …) from the last end-to-end run; trip shares and
        // per-class parallel speed-ups from the traced one.
        let last_detail = details.last().expect("--repeat is at least 1");
        for (key, value) in last_detail.members() {
            if !matches!(key.as_str(), "workload" | "traced" | "end_to_end") {
                entry.push((key.clone(), value.clone()));
            }
        }
        for key in [
            "trip_share",
            "par_class_speedup",
            "par_base",
            "traced_passes",
        ] {
            if let Some(v) = traced_detail.get(key) {
                entry.push((key.to_owned(), v.clone()));
            }
        }
        workloads.push((w.name.to_owned(), Json::Obj(entry)));
    }
    Ok(obj([
        ("benchmark", "trajectory".into()),
        (
            "env",
            obj([
                ("git_sha", tool_line("git", &["rev-parse", "HEAD"]).into()),
                ("rustc", tool_line("rustc", &["--version"]).into()),
                ("nproc", nproc().into()),
                ("seed", o.seed.into()),
                ("seconds", o.seconds.into()),
                ("repeat", o.repeat.into()),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
    ]))
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

fn recorded(metric: &Json) -> Option<(f64, Option<f64>)> {
    let m = metric.get("median")?.as_f64()?;
    let values: Vec<f64> = metric
        .get("values")
        .map(|v| v.items().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some((m, spread(&values)))
}

/// Compare record `b` (the change) against record `a` (the parent):
/// one row per metric × workload; returns the rows and whether any
/// gated metric is worse.
///
/// # Errors
///
/// A record that lacks the `workloads` table, or two records made with
/// different `--seed` or `--seconds`: their inputs differ, not their code.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<String>, bool), String> {
    let wa = a.get("workloads").ok_or("first record has no workloads")?;
    let wb = b.get("workloads").ok_or("second record has no workloads")?;
    for key in ["seed", "seconds"] {
        let of = |r: &Json| r.get("env").and_then(|e| e.get(key)).and_then(Json::as_f64);
        if of(a) != of(b) {
            return Err(format!(
                "the records were made with different --{key} ({:?} and {:?})",
                of(a),
                of(b)
            ));
        }
    }
    let mut rows = Vec::new();
    let mut any_worse = false;
    for (name, ea) in wa.members() {
        let Some(eb) = wb.get(name) else {
            rows.push(format!("{name:16} (missing from the second record)"));
            any_worse = true;
            continue;
        };
        for def in END_TO_END.iter().chain(WRITER_ONLY) {
            let side = |e: &Json| {
                e.get("end_to_end")
                    .and_then(|t| t.get(def.name))
                    .and_then(recorded)
            };
            let ((ma, sa), (mb, sb)) = match (side(ea), side(eb)) {
                (Some(a), Some(b)) => (a, b),
                // Not a metric of this workload.
                (None, None) if WRITER_ONLY.iter().any(|d| d.name == def.name) => continue,
                _ => {
                    rows.push(format!("{name:16} {:24} missing", def.name));
                    any_worse = true;
                    continue;
                }
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let worse_by = match def.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            // The wider of the recorded spreads; unknown when neither
            // record holds two runs of the metric.
            let noise = sa.into_iter().chain(sb).reduce(f64::max);
            // A gated metric is never 0, so such a median (or NaN) is a
            // broken record, not a measurement to divide by.
            let verdict = if !(ma > 0.0 && mb.is_finite()) {
                "unresolved"
            } else {
                match noise {
                    None => "unresolved",
                    Some(n) if n > bound => "unresolved",
                    Some(_) if worse_by > bound => "worse",
                    Some(_) => "ok",
                }
            };
            any_worse |= verdict == "worse";
            rows.push(format!(
                "{name:16} {:24} {ma:>14.4} -> {mb:>14.4} {:<5} {:>+7.1}%  (bound {:.0}%, spread {})  {}",
                def.name,
                def.unit,
                (mb - ma) / ma * 100.0,
                bound * 100.0,
                noise.map_or_else(|| "unknown".to_owned(), |n| format!("{:.1}%", n * 100.0)),
                verdict,
            ));
        }
        // failed_ratio: any increase is a regression.
        let ratio = |e: &Json| e.get("failed_ratio").and_then(Json::as_f64).unwrap_or(1.0);
        let (fa, fb) = (ratio(ea), ratio(eb));
        any_worse |= fb > fa;
        rows.push(format!(
            "{name:16} {:24} {fa:>14.6} -> {fb:>14.6} {:<5}           (any increase)  {}",
            "failed_ratio",
            "ratio",
            if fb > fa { "worse" } else { "ok" },
        ));
        // Exact counts: informational, they compare one program with itself.
        for exact in EXACT {
            let value = |e: &Json| {
                e.get("per_layer")
                    .and_then(|t| t.get(exact))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            if let (Some(va), Some(vb)) = (value(ea), value(eb)) {
                rows.push(format!(
                    "{name:16} {exact:32} {va:>16.4} -> {vb:>16.4}  {}",
                    if va == vb { "same" } else { "differs" }
                ));
            }
        }
    }
    Ok((rows, any_worse))
}
