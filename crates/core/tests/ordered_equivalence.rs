//! The ordered path search (`k SHORTEST`, weighted) against itself on
//! SNB-200, in both planner modes:
//!
//! * **Unit levels ≡ the cost heap.** A view-free automaton is searched
//!   one hop per level, each level sorted once by the rank of the
//!   parent's walk; `PATH hop = (x)-[e:knows]->(y) COST 1` describes the
//!   same walks at the same costs but runs the heap of replayed walk
//!   sequences. Both must choose the same `k` walks per destination —
//!   the tie order is observable — at numerically equal costs.
//! * **Targets ≡ filtering afterwards.** `m.personId = k` on the far end
//!   becomes the target set of the search; `m.personId + 0 = k` keeps
//!   the same rows but is not a target shape, so it filters after an
//!   unrestricted search. Both must return the same rows.

use gcore::obs::{ProfileSpan, QueryProfile};
use gcore::Engine;
use gcore_ppg::Value;
use gcore_snb::{generate, SnbConfig};

fn snb(planner: bool) -> Engine {
    let mut engine = Engine::new();
    engine.set_planner(planner);
    let data = generate(&SnbConfig::scale(200), &engine.catalog().ids().clone());
    engine.register_graph("snb", data.graph);
    engine.set_default_graph("snb");
    engine
}

/// A k-shortest statement from a handful of sources, over `:knows` edges
/// or over the unit-cost view of them, with an optional far-end conjunct.
fn statement(k: u32, over_view: bool, far_end: Option<&str>) -> String {
    let (head, regex) = if over_view {
        ("PATH hop = (x)-[e:knows]->(y) COST 1 ", "~hop*")
    } else {
        ("", ":knows*")
    };
    let far_end = far_end.map_or(String::new(), |c| format!(" AND {c}"));
    format!(
        "{head}SELECT n.personId AS src, m.personId AS dst, nodes(p) AS ns, edges(p) AS es, c \
         MATCH (n:Person)-/{k} SHORTEST p <{regex}> COST c/->(m:Person) \
         WHERE n.personId < 6{far_end}"
    )
}

/// The rows as (src, dst, walk) text and a numeric cost, sorted.
fn rows(engine: &mut Engine, text: &str) -> Vec<(String, f64)> {
    let table = engine.query_table(text).expect("statement runs");
    let mut rows: Vec<(String, f64)> = table
        .rows()
        .iter()
        .map(|row| {
            let walk: Vec<String> = row[..4].iter().map(Value::to_string).collect();
            let cost = row[4].as_f64().expect("numeric cost");
            (walk.join(" | "), cost)
        })
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    rows
}

/// Whether any span of the profile carries the counter `name`.
fn has_counter(profile: &QueryProfile, name: &str) -> bool {
    fn walk(span: &ProfileSpan, name: &str) -> bool {
        span.counters.iter().any(|(k, _)| k == name) || span.children.iter().any(|c| walk(c, name))
    }
    profile.spans.iter().any(|s| walk(s, name))
}

const FAR_END: &str = "m.personId = 17";
const FAR_END_UNRESOLVED: &str = "m.personId + 0 = 17";

#[test]
fn unit_levels_order_walks_like_the_cost_heap() {
    for planner in [true, false] {
        let mut engine = snb(planner);
        for k in [1, 3] {
            for far_end in [None, Some(FAR_END)] {
                let by_rank = statement(k, false, far_end);
                let by_heap = statement(k, true, far_end);
                let want = rows(&mut engine, &by_heap);
                assert!(!want.is_empty(), "no rows for\n{by_heap}");
                assert_eq!(
                    rows(&mut engine, &by_rank),
                    want,
                    "planner={planner}: unit levels and the heap disagree on\n{by_rank}"
                );
                let (_, rank_profile) = engine.profile(&by_rank).expect("runs");
                let (_, heap_profile) = engine.profile(&by_heap).expect("runs");
                assert!(!has_counter(&rank_profile, "tie_keys"), "{by_rank}");
                assert!(has_counter(&heap_profile, "tie_keys"), "{by_heap}");
            }
        }
    }
}

#[test]
fn targets_answer_like_the_filter_after_the_search() {
    for planner in [true, false] {
        let mut engine = snb(planner);
        for k in [1, 3] {
            for over_view in [false, true] {
                let targeted = statement(k, over_view, Some(FAR_END));
                let filtered = statement(k, over_view, Some(FAR_END_UNRESOLVED));
                let want = rows(&mut engine, &filtered);
                assert!(!want.is_empty(), "no rows for\n{filtered}");
                assert_eq!(
                    rows(&mut engine, &targeted),
                    want,
                    "planner={planner}: targets change the answer of\n{targeted}"
                );
                let (_, profile) = engine.profile(&targeted).expect("runs");
                assert!(has_counter(&profile, "targets"), "{targeted}");
                let (_, profile) = engine.profile(&filtered).expect("runs");
                assert!(!has_counter(&profile, "targets"), "{filtered}");
            }
        }
    }
}
