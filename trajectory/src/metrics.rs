//! The metric tables: the one place a metric's name, unit, direction
//! and bound are written down. `BENCHMARK.json` restates them for the
//! driver (a test checks the two agree); records carry them so that
//! `compare` needs nothing but two records.

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off, reported
/// by every workload.
///
/// The bounds come from the run-to-run spread measured on the 2-core
/// sandbox, not from a wish: over three series of ten seeds per workload
/// the worst interquartile spread was 13 % (`ops_per_s`), 19 %
/// (`op_p50_ms`), 12 % (`op_p95_ms`) and 15 % (`peak_rss_mb`), all on the
/// two workloads whose ops are a few thread hand-overs long
/// (`point_reads_1c`, `read_write_2c`); typical spreads are 2–7 %. A
/// bound below the spread would only produce `unresolved` verdicts.
/// `stored_bytes_per_element` is exact for a seed and moves 0.1–0.3 %
/// from seed to seed.
pub const END_TO_END: &[MetricDef] = &[
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_p95_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("stored_bytes_per_element", "B", Lower, 0.02),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Gated like [`END_TO_END`], but produced only by the workload with a
/// scheduled writer (`read_write_2c`): commit latency from the due time,
/// median. It is in the run record and the `all` record, and `compare`
/// applies its bound; it is not in `BENCHMARK.json`, whose contract has
/// every workload report every listed metric (there it is the ungated
/// `client.write_p50_ms` of the traced run).
pub const WRITER_ONLY: &[MetricDef] = &[e2e("write_p50_ms", "ms", Lower, 0.25)];

/// Single layers (layer = module name), from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("client.p99_ms", "ms", Lower),
    layer("client.write_p50_ms", "ms", Lower),
    layer("client.writer_lag_p95_ms", "ms", Lower),
    layer("serve.ping_us", "us", Lower),
    layer("serve.overhead_us", "us", Lower),
    layer("serve.request_decode_us", "us", Lower),
    layer("serve.frame_encode_us_per_mb", "us/MB", Lower),
    layer("serve.frame_decode_us_per_mb", "us/MB", Lower),
    layer("serve.reply_bytes_per_op", "B", Lower),
    layer("serve.queries_err", "count", Lower),
    layer("serve.busy_rejections", "count", Lower),
    layer("serve.statement_timeouts", "count", Lower),
    layer("snapshot.pin_us", "us", Lower),
    layer("snapshot.freeze_us", "us", Lower),
    layer("snapshot.scc_hit_ratio", "ratio", Higher),
    layer("snapshot.scc_hits", "count", Higher),
    layer("snapshot.scc_misses", "count", Lower),
    layer("parser.parse_us", "us", Lower),
    layer("parser.mb_per_s", "MB/s", Higher),
    layer("analyze.check_us", "us", Lower),
    layer("analyze.summary_us", "us", Lower),
    layer("plan.us", "us", Lower),
    layer("plan.misestimates", "count", Lower),
    layer("match.self_us", "us", Lower),
    layer("match.pattern_us", "us", Lower),
    layer("match.join_us", "us", Lower),
    layer("match.where_us", "us", Lower),
    layer("match.optional_us", "us", Lower),
    layer("match.rows_examined_per_result", "ratio", Lower),
    layer("paths.search_us", "us", Lower),
    layer("paths.frontier_pops", "count", Lower),
    layer("construct.us", "us", Lower),
    layer("select.us", "us", Lower),
    layer("eval.fixed_us", "us", Lower),
    layer("store.encode_result_us", "us", Lower),
    layer("store.decode_result_us", "us", Lower),
    layer("store.encode_graph_mb_per_s", "MB/s", Higher),
    layer("store.decode_graph_mb_per_s", "MB/s", Higher),
    layer("store.save_ms", "ms", Lower),
    layer("store.open_ms", "ms", Lower),
    layer("store.first_answer_ms", "ms", Lower),
    layer("store.bytes_written_per_cycle", "B", Lower),
    layer("store.backend_ops_per_save", "count", Lower),
    layer("par.stmt_speedup", "ratio", Higher),
    layer("par.batch_speedup", "ratio", Higher),
    layer("snb.generate_ms", "ms", Lower),
    layer("trace.op_us", "us", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// A measured value of a metric from one of the tables.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// The metric.
    pub def: &'static MetricDef,
    /// The value, as measured.
    pub value: f64,
}

/// Pair every metric of `table` with its value from `values`, in table
/// order.
///
/// # Panics
///
/// If a metric of the table has no value or a value names no metric —
/// every workload reports every metric of a table, so either is a bug.
pub fn fill(table: &'static [MetricDef], values: &[(&str, f64)]) -> Vec<Measurement> {
    for (name, _) in values {
        assert!(
            table.iter().any(|d| d.name == *name),
            "value for unknown metric {name}"
        );
    }
    table
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("no value for metric {}", def.name))
                .1;
            Measurement { def, value }
        })
        .collect()
}
