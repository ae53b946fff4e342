//! Smoke test of the benchmark itself: every workload at SNB-100 for a
//! fraction of a second, end to end and traced; `BENCHMARK.json` against
//! the metric and workload tables; `compare` on hand-made records.
//!
//! `cargo test --release --manifest-path trajectory/Cargo.toml`

use std::path::PathBuf;
use trajectory::json::{obj, Json};
use trajectory::metrics::{MetricDef, END_TO_END, PER_LAYER, WRITER_ONLY};
use trajectory::record::compare;
use trajectory::run::{run, Options};
use trajectory::workloads::{find, Kind, MESSAGE_VIEW, WORKLOADS};

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke_{tag}"))
}

fn names(table: &[MetricDef]) -> Vec<&str> {
    table.iter().map(|d| d.name).collect()
}

#[test]
fn every_workload_runs_clean_end_to_end_and_traced() {
    for w in WORKLOADS {
        let options = |trace| Options {
            workload: w,
            seed: 7,
            seconds: 0.3,
            trace,
            persons: 100,
            out_dir: out_dir(w.name),
        };
        let e2e = run(&options(false));
        assert_eq!(e2e.failed, 0, "{}: failed ops end to end", w.name);
        assert!(e2e.attempted >= 1, "{}: nothing attempted", w.name);
        let got: Vec<&str> = e2e.metrics.iter().map(|m| m.def.name).collect();
        assert_eq!(got, names(END_TO_END), "{}", w.name);
        let own: Vec<&str> = e2e.own_metrics.iter().map(|m| m.def.name).collect();
        if w.kind == Kind::ReadWrite {
            assert_eq!(own, names(WRITER_ONLY), "{}", w.name);
        } else {
            assert!(own.is_empty(), "{}: {own:?}", w.name);
        }
        for m in e2e.metrics.iter().chain(&e2e.own_metrics) {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name,
                m.def.name,
                m.value
            );
        }

        let traced = run(&options(true));
        assert_eq!(traced.failed, 0, "{}: failed ops traced", w.name);
        let got: Vec<&str> = traced.metrics.iter().map(|m| m.def.name).collect();
        assert_eq!(got, names(PER_LAYER), "{}", w.name);
        for m in &traced.metrics {
            // `serve.overhead_us` is a difference of two medians; on a
            // loaded box it can dip below 0 at this scale.
            let may_be_negative = m.def.name == "serve.overhead_us";
            assert!(
                m.value.is_finite() && (m.value >= 0.0 || may_be_negative),
                "{}: {} = {}",
                w.name,
                m.def.name,
                m.value
            );
        }

        // The trace file: parents resolve, and self times add up to no
        // more than the wall time of the trips they belong to.
        let path = out_dir(w.name).join(format!("trace_{}.json", w.name));
        let trace = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let spans = trace.get("spans").unwrap().items();
        assert!(!spans.is_empty());
        let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).unwrap();
        let mut child_ns = vec![0.0; spans.len()];
        let mut root_of = vec![0usize; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            assert!(field(s, "end_ns") >= field(s, "start_ns"));
            match s.get("parent").unwrap() {
                Json::Null => root_of[i] = i,
                p => {
                    let p = p.as_f64().unwrap() as usize;
                    assert!(p < i, "{}: span {i} names a later parent", w.name);
                    assert_eq!(field(s, "op_id"), field(&spans[p], "op_id"));
                    child_ns[p] += field(s, "end_ns") - field(s, "start_ns");
                    root_of[i] = root_of[p];
                }
            }
        }
        let (mut self_ns, mut wall_ns) = (0.0, 0.0);
        for (i, s) in spans.iter().enumerate() {
            let duration = field(s, "end_ns") - field(s, "start_ns");
            self_ns += (duration - child_ns[i]).max(0.0);
            if root_of[i] == i {
                wall_ns += duration;
            }
        }
        // 1 %: grafted children may exceed a parent by clock-read jitter.
        assert!(
            self_ns <= wall_ns * 1.01,
            "{}: Σ self {self_ns} > wall {wall_ns}",
            w.name
        );
    }
}

#[test]
fn benchmark_json_restates_the_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let b = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(b.get("paths").unwrap().items(), [Json::from("trajectory")]);
    let listed: Vec<(&str, &str)> = b
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| {
            (
                w.get("name").unwrap().as_str().unwrap(),
                w.get("why").unwrap().as_str().unwrap(),
            )
        })
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, ours);
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = b.get(key).unwrap().items();
        assert_eq!(listed.len(), table.len(), "{key}");
        for (got, def) in listed.iter().zip(table) {
            assert_eq!(got.get("name").unwrap().as_str(), Some(def.name));
            assert_eq!(
                got.get("unit").unwrap().as_str(),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                got.get("better").unwrap().as_str(),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(
                got.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }
}

/// A one-workload record: `ops_per_s` as given, `write_p50_ms` if given,
/// every other gated metric steady at 10.
fn record(ops_per_s: &[f64], write_p50_ms: Option<&[f64]>, failed_ratio: f64) -> Json {
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| x.into()).collect());
    let metric = |v: &[f64]| {
        obj([
            ("values", nums(v)),
            ("median", trajectory::stats::median(v).into()),
        ])
    };
    let steady = [10.0, 10.0, 10.0, 10.0];
    let mut e2e: Vec<(String, Json)> = END_TO_END
        .iter()
        .map(|d| {
            let v: &[f64] = if d.name == "ops_per_s" {
                ops_per_s
            } else {
                &steady
            };
            (d.name.to_owned(), metric(v))
        })
        .collect();
    if let Some(v) = write_p50_ms {
        e2e.push(("write_p50_ms".to_owned(), metric(v)));
    }
    obj([(
        "workloads",
        obj([(
            "w",
            obj([
                ("failed_ratio", failed_ratio.into()),
                ("end_to_end", Json::Obj(e2e)),
            ]),
        )]),
    )])
}

fn verdict(parent: &Json, change: &Json, metric: &str) -> (String, bool) {
    let (rows, worse) = compare(parent, change).unwrap();
    let row = rows.iter().find(|r| r.contains(metric)).unwrap().clone();
    (row, worse)
}

#[test]
fn compare_applies_direction_bound_and_spread() {
    let parent = record(&[100.0, 101.0, 99.0, 100.0], None, 0.0);
    // Higher is better: +50 % is fine, −50 % is past any bound ≤ 25 %.
    let change = record(&[150.0, 151.0, 149.0, 150.0], None, 0.0);
    let (row, worse) = verdict(&parent, &change, "ops_per_s");
    assert!(row.ends_with("ok") && !worse, "{row}");
    let change = record(&[50.0, 51.0, 49.0, 50.0], None, 0.0);
    let (row, worse) = verdict(&parent, &change, "ops_per_s");
    assert!(row.ends_with("worse") && worse, "{row}");
    // A spread wider than the bound resolves nothing.
    let change = record(&[60.0, 100.0, 80.0, 120.0], None, 0.0);
    let (row, worse) = verdict(&parent, &change, "ops_per_s");
    assert!(row.ends_with("unresolved") && !worse, "{row}");
    // Any increase of failed_ratio is a regression.
    let change = record(&[100.0, 101.0, 99.0, 100.0], None, 0.01);
    assert!(compare(&parent, &change).unwrap().1);
}

#[test]
fn compare_resolves_nothing_without_a_spread_or_a_parent_value() {
    // One run per side: the spread is unknown.
    let (row, worse) = verdict(
        &record(&[100.0], None, 0.0),
        &record(&[50.0], None, 0.0),
        "ops_per_s",
    );
    assert!(row.ends_with("unresolved") && !worse, "{row}");
    // One side's spread is enough to judge by.
    let (row, worse) = verdict(
        &record(&[100.0, 101.0, 99.0, 100.0], None, 0.0),
        &record(&[50.0], None, 0.0),
        "ops_per_s",
    );
    assert!(row.ends_with("worse") && worse, "{row}");
    // A parent median of 0 is a broken record, not a base to divide by.
    let (row, worse) = verdict(
        &record(&[0.0, 0.0, 0.0, 0.0], None, 0.0),
        &record(&[100.0, 101.0, 99.0, 100.0], None, 0.0),
        "ops_per_s",
    );
    assert!(row.ends_with("unresolved") && !worse, "{row}");
}

#[test]
fn compare_gates_the_writer_metric_where_it_is_recorded() {
    let fast = [0.8, 0.81, 0.79, 0.8];
    let slow = [1.6, 1.61, 1.59, 1.6];
    let ops = [100.0, 101.0, 99.0, 100.0];
    // Twice the commit latency is a regression …
    let (row, worse) = verdict(
        &record(&ops, Some(&fast), 0.0),
        &record(&ops, Some(&slow), 0.0),
        "write_p50_ms",
    );
    assert!(row.ends_with("worse") && worse, "{row}");
    // … a record that lost the metric too …
    let (row, worse) = verdict(
        &record(&ops, Some(&fast), 0.0),
        &record(&ops, None, 0.0),
        "write_p50_ms",
    );
    assert!(row.ends_with("missing") && worse, "{row}");
    // … and a workload without a writer has no such row.
    let (rows, worse) = compare(&record(&ops, None, 0.0), &record(&ops, None, 0.0)).unwrap();
    assert!(!worse && rows.iter().all(|r| !r.contains("write_p50_ms")));
}

#[test]
fn compare_refuses_records_of_different_inputs() {
    let made_with = |seed: u64| {
        obj([
            (
                "env",
                obj([("seed", seed.into()), ("seconds", 10.0.into())]),
            ),
            ("workloads", Json::Obj(Vec::new())),
        ])
    };
    assert!(compare(&made_with(1), &made_with(1)).is_ok());
    assert!(compare(&made_with(1), &made_with(2)).is_err());
}

/// `crates/bench` keeps its own copies of three statements this benchmark
/// runs (its files are outside this package's directory, so they cannot
/// import from here): `wide_par_1c` is only the 2-core answer to ROADMAP
/// item 4 while its statements are the ones `benches/plan.rs` measures,
/// and `path_mix_2c` needs `snb_engine_with_messages`' view under a seed
/// that function does not take.
#[test]
fn statements_shared_with_crates_bench_have_not_drifted() {
    let source = |rel: &str| {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
        // A `\` at a line end continues a Rust string literal and
        // swallows the next line's indentation.
        let text = std::fs::read_to_string(path).unwrap();
        text.split("\\\n")
            .map(str::trim_start)
            .collect::<Vec<_>>()
            .join("")
    };
    let plan = source("../crates/bench/benches/plan.rs");
    let wide = find("wide_par_1c").unwrap();
    let pool = wide.pool(1, wide.persons);
    assert_eq!(pool.len(), 2);
    for stmt in &pool {
        assert!(
            plan.contains(&format!("\"{}\"", stmt.text)),
            "benches/plan.rs no longer holds `{}`",
            stmt.text
        );
    }
    let lib = source("../crates/bench/src/lib.rs");
    assert!(
        lib.contains(&format!("\"{MESSAGE_VIEW}\"")),
        "gcore_bench::snb_engine_with_messages no longer builds this benchmark's msg_graph"
    );
}
