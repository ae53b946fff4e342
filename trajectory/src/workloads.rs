//! The one statement list: every workload, its statement classes and
//! the seeded pool of concrete statement texts the server sees.
//!
//! Workload shapes follow the join-order-sensitive and path-heavy query
//! classes of *An analysis of the SIGMOD 2014 Programming Contest*
//! (PAPERS.md), over the `gcore-snb` Figure-3 generator. Each class is a
//! template with one integer parameter (a `personId`); a workload's
//! **pool** is `variants` distinct draws per class, made from `--seed`,
//! so the oracle can digest every distinct text once at set-up.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One statement template of a workload.
#[derive(Clone, Copy)]
pub struct Class {
    /// Class name, used for per-class client latencies in the record.
    pub name: &'static str,
    /// How many distinct parameter values the pool holds for it.
    pub variants: usize,
    /// Width of the `personId` window the template selects (1 for point
    /// templates); parameters are drawn so the window stays in range.
    pub window: usize,
    /// Renders the statement text for parameter `k`.
    pub render: fn(k: usize, window: usize, persons: usize) -> String,
}

/// How a workload drives the system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Closed-loop readers through the loopback socket.
    Socket,
    /// One closed-loop reader plus a writer on a 100 ms schedule.
    ReadWrite,
    /// save → open → first answer cycles against a `DirBackend`; no
    /// socket.
    StoreRestart,
}

/// One named workload.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// SNB scale (Person count) at full size.
    pub persons: usize,
    /// Closed-loop client connections (= server worker threads).
    pub clients: usize,
    /// Engine `set_parallelism(nproc)` instead of 1.
    pub parallel: bool,
    /// Also commit the `msg_graph` weighted view at set-up.
    pub message_view: bool,
    /// Materialized views committed at set-up (store_restart).
    pub views: usize,
    /// How the workload is driven.
    pub kind: Kind,
    /// The statement classes, visited round-robin.
    pub classes: &'static [Class],
}

/// A concrete statement of a pool.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// Index into the workload's `classes`.
    pub class: usize,
    /// The text sent to the server.
    pub text: String,
}

/// The writer's schedule on `read_write_2c`: one transact per period.
pub const WRITE_PERIOD_MS: u64 = 100;
/// View names the writer cycles through, so the catalog stays the same
/// size (redefinition overwrites).
pub const WRITE_VIEWS: usize = 8;

/// The writer's `i`-th statement.
pub fn write_stmt(i: usize) -> String {
    format!(
        "GRAPH VIEW w{} AS (CONSTRUCT (n) MATCH (n:Person) WHERE n.personId < 50)",
        i % WRITE_VIEWS
    )
}

/// The materialized views `store_restart` commits at set-up.
pub fn store_view_stmt(i: usize) -> String {
    let lo = i * 100;
    format!(
        "GRAPH VIEW mv{i} AS (CONSTRUCT (n)-[e]->(m) \
         MATCH (n:Person)-[e:knows]->(m:Person) \
         WHERE n.personId >= {lo} AND n.personId < {})",
        lo + 400
    )
}

/// The message-annotated view of the weighted-path class (the
/// `social_graph1` construction of the paper's guided tour at SNB
/// scale). Same text as `gcore_bench::snb_engine_with_messages`, which
/// cannot be called here because it takes no seed; `tests/smoke.rs` fails
/// when the two drift.
pub const MESSAGE_VIEW: &str = "GRAPH VIEW msg_graph AS ( \
     CONSTRUCT snb, (n)-[e]->(m) SET e.nr_messages := COUNT(*) \
     MATCH (n)-[e:knows]->(m) \
     WHERE (n:Person) AND (m:Person) \
     OPTIONAL (n)<-[c1]-(msg1:Post|Comment), \
              (msg1)-[:reply_of]-(msg2), \
              (msg2:Post|Comment)-[c2]->(m) \
     WHERE (c1:has_creator) AND (c2:has_creator) )";

fn range(k: usize, w: usize, var: &str) -> String {
    format!("{var}.personId >= {k} AND {var}.personId < {}", k + w)
}

// -- match_mix_2c -------------------------------------------------------

const MATCH_MIX: &[Class] = &[
    Class {
        name: "label_scan",
        variants: 16,
        window: 400,
        render: |k, w, _| format!("CONSTRUCT (n) MATCH (n:Person) WHERE {}", range(k, w, "n")),
    },
    Class {
        name: "edge_hop",
        variants: 16,
        window: 200,
        render: |k, w, _| {
            format!(
                "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE {}",
                range(k, w, "n")
            )
        },
    },
    Class {
        name: "two_hop",
        variants: 16,
        window: 40,
        render: |k, w, _| {
            format!(
                "CONSTRUCT (n)-[:fof]->(k) \
                 MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(k:Person) WHERE {}",
                range(k, w, "n")
            )
        },
    },
    Class {
        name: "value_join",
        variants: 16,
        window: 40,
        render: |k, w, _| {
            format!(
                "CONSTRUCT (a)-[:colleague]->(b) \
                 MATCH (a:Person {{employer = e}}), (b:Person) \
                 WHERE e IN b.employer AND {}",
                range(k, w, "a")
            )
        },
    },
    Class {
        name: "optional_count",
        variants: 16,
        window: 200,
        render: |k, w, _| {
            format!(
                "SELECT n.personId AS id, COUNT(*) AS posts \
                 MATCH (n:Person) WHERE {} \
                 OPTIONAL (n)<-[:has_creator]-(msg:Post) \
                 GROUP BY n.personId",
                range(k, w, "n")
            )
        },
    },
    Class {
        name: "exists_tag",
        variants: 16,
        window: 400,
        render: |k, w, _| {
            format!(
                "CONSTRUCT (n) MATCH (n:Person) \
                 WHERE (n)-[:hasInterest]->(:Tag {{name = 'Wagner'}}) AND {}",
                range(k, w, "n")
            )
        },
    },
    Class {
        name: "wide_select",
        variants: 16,
        window: 300,
        render: |k, w, _| {
            format!(
                "SELECT n.personId AS id, n.firstName AS first, n.lastName AS last, \
                        m.firstName AS friend, m.lastName AS friendLast \
                 MATCH (n:Person)-[:knows]->(m:Person) WHERE {}",
                range(k, w, "n")
            )
        },
    },
];

// -- path_mix_2c --------------------------------------------------------

const REACH: Class = Class {
    name: "reach",
    variants: 12,
    window: 1,
    render: |k, _, _| {
        format!("CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.personId = {k}")
    },
};

/// The far endpoint of the bound-pair classes: a fixed offset from the
/// source, so both ends move with the parameter.
fn pair_target(k: usize, persons: usize) -> usize {
    (k + 7) % persons
}

/// k-shortest, weighted and ALL classes bind both endpoints or the walk
/// length, so the search — not CONSTRUCT of a thousand stored paths or
/// the reply encode — is what they time; `shortest_1` keeps the full
/// one-path-per-destination output (paths as first-class results).
const PATH_MIX: &[Class] = &[
    REACH,
    Class {
        name: "shortest_1",
        variants: 12,
        window: 1,
        render: |k, _, _| {
            format!(
                "CONSTRUCT (n)-/@p:sp/->(m) \
                 MATCH (n:Person)-/p <:knows*>/->(m:Person) WHERE n.personId = {k}"
            )
        },
    },
    Class {
        name: "shortest_3",
        variants: 12,
        window: 1,
        render: |k, _, persons| {
            format!(
                "CONSTRUCT (n)-/@p:sp/->(m) \
                 MATCH (n:Person)-/3 SHORTEST p <:knows*>/->(m:Person) \
                 WHERE n.personId = {k} AND m.personId = {}",
                pair_target(k, persons)
            )
        },
    },
    Class {
        name: "weighted_shortest",
        variants: 12,
        window: 1,
        render: |k, _, persons| {
            format!(
                "PATH chatty = (x)-[e:knows]->(y) COST 1 / (1 + e.nr_messages) \
                 CONSTRUCT (n)-/@p:w/->(m) \
                 MATCH (n:Person)-/p <~chatty*>/->(m:Person) ON msg_graph \
                 WHERE n.personId = {k} AND m.personId = {}",
                pair_target(k, persons)
            )
        },
    },
    Class {
        name: "all_paths_3hop",
        variants: 12,
        window: 1,
        render: |k, _, _| {
            format!(
                "CONSTRUCT (n)-/p/->(m) \
                 MATCH (n:Person)-/ALL p <:knows :knows :knows>/->(m:Person) \
                 WHERE n.personId = {k}"
            )
        },
    },
];

// -- point_reads_1c / read_write_2c -------------------------------------

/// `k` is uniform over this many ids on the point templates, so the
/// distinct-text count is `8 × POINT_IDS` (stated in the record).
/// `point_reads_1c` runs at SNB-200 — every person is a parameter — because
/// `WHERE n.personId = k` is a label scan: at SNB-1000 the scan is 87 % of
/// the trip and the fixed per-statement cost the workload exists to show
/// is under a tenth of it.
const POINT_IDS: usize = 200;

macro_rules! point {
    ($name:literal, $fmt:literal) => {
        Class {
            name: $name,
            variants: POINT_IDS,
            window: 1,
            render: |k, _, _| format!($fmt, k = k),
        }
    };
}

const POINT_READS: &[Class] = &[
    point!(
        "node_by_id",
        "CONSTRUCT (n) MATCH (n:Person) WHERE n.personId = {k}"
    ),
    point!(
        "name_by_id",
        "SELECT n.firstName AS first, n.lastName AS last MATCH (n:Person) WHERE n.personId = {k}"
    ),
    point!(
        "friends_graph",
        "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE n.personId = {k}"
    ),
    point!(
        "friends_names",
        "SELECT m.firstName AS friend MATCH (n:Person)-[:knows]->(m:Person) WHERE n.personId = {k}"
    ),
    point!(
        "city_of",
        "CONSTRUCT (c) MATCH (n:Person)-[:isLocatedIn]->(c:City) WHERE n.personId = {k}"
    ),
    point!(
        "tags_of",
        "SELECT t.name AS tag MATCH (n:Person)-[:hasInterest]->(t:Tag) WHERE n.personId = {k}"
    ),
    point!(
        "friend_count",
        "SELECT COUNT(*) AS friends MATCH (n:Person)-[:knows]->(m:Person) WHERE n.personId = {k}"
    ),
    point!(
        "posts_of",
        "SELECT COUNT(*) AS posts MATCH (n:Person)<-[:has_creator]-(p:Post) WHERE n.personId = {k}"
    ),
];

const READ_WRITE: &[Class] = &[
    POINT_READS[0],
    POINT_READS[1],
    POINT_READS[2],
    POINT_READS[3],
    POINT_READS[4],
    POINT_READS[5],
    POINT_READS[6],
    POINT_READS[7],
    REACH,
];

// -- wide_par_1c --------------------------------------------------------

/// `two_hop_wide` and `reach_many` of `crates/bench/benches/plan.rs`
/// (constants of a bench target, so re-typed; `tests/smoke.rs` fails when
/// they drift): the probe side exceeds the parallel-join threshold (4096
/// rows) and the source set the partitioned-search threshold (64 sources).
const WIDE_PAR: &[Class] = &[
    Class {
        name: "two_hop_wide",
        variants: 1,
        window: 1,
        render: |_, _, _| {
            "CONSTRUCT (n)-[:fof]->(k) \
             MATCH (n:Person)-[:knows]->(m:Person), (m)-[:knows]->(k:Person)"
                .to_owned()
        },
    },
    Class {
        name: "reach_many",
        variants: 1,
        window: 1,
        render: |_, _, persons| {
            format!(
                "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.personId < {}",
                persons / 2
            )
        },
    },
];

// -- store_restart ------------------------------------------------------

/// The first answer after a restart; one cycle per op.
const STORE_RESTART: &[Class] = &[Class {
    name: "restart_cycle",
    variants: 32,
    ..REACH
}];

/// The six workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "match_mix_2c",
        why: "SNB-4000, 2 closed-loop clients, 7 join-order-sensitive read classes: matcher, binding, plan, construct and result encode do the work, paths none",
        persons: 4000,
        clients: 2,
        parallel: false,
        message_view: false,
        views: 0,
        kind: Kind::Socket,
        classes: MATCH_MIX,
    },
    Workload {
        name: "path_mix_2c",
        why: "SNB-1000 + weighted view, 2 closed-loop clients, reachability / k-shortest / weighted / ALL-paths: paths, regex and the SCC cache do the work, joins little",
        persons: 1000,
        clients: 2,
        parallel: false,
        message_view: true,
        views: 0,
        kind: Kind::Socket,
        classes: PATH_MIX,
    },
    Workload {
        name: "point_reads_1c",
        why: "SNB-200, 1 client, 8 point templates over all 200 ids: evaluation is tens of us, so fixed per-statement cost (frames, pin, parse, analyze, plan, context, encode) shows",
        persons: 200,
        clients: 1,
        parallel: false,
        message_view: false,
        views: 0,
        kind: Kind::Socket,
        classes: POINT_READS,
    },
    Workload {
        name: "read_write_2c",
        why: "SNB-1000, 1 closed-loop reader + 1 writer committing a view every 100 ms: commits take the engine mutex readers pin through and reset the snapshot and SCC cache",
        persons: 1000,
        clients: 2,
        parallel: false,
        message_view: false,
        views: 0,
        kind: Kind::ReadWrite,
        classes: READ_WRITE,
    },
    Workload {
        name: "wide_par_1c",
        why: "SNB-1000, 1 client, engine parallelism = nproc, wide two-hop join + 500-source reachability: the only place the parallel operators can help (one core idle)",
        persons: 1000,
        clients: 1,
        parallel: true,
        message_view: false,
        views: 0,
        kind: Kind::Socket,
        classes: WIDE_PAR,
    },
    Workload {
        name: "store_restart",
        why: "SNB-4000 + 4 views, no socket, save_to(DirBackend) then open_from then first reachability answer: store format and backend do the work, evaluation little",
        persons: 4000,
        clients: 1,
        parallel: false,
        message_view: false,
        views: 4,
        kind: Kind::StoreRestart,
        classes: STORE_RESTART,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The seeded statement pool at SNB scale `persons`: for each class,
    /// `variants` distinct parameter draws (fewer when the id range is
    /// smaller), in class order. Same seed ⇒ same pool.
    pub fn pool(&self, seed: u64, persons: usize) -> Vec<Stmt> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x706f_6f6c);
        let mut pool = Vec::new();
        for (ci, class) in self.classes.iter().enumerate() {
            // Windows `k..k + window` that stay inside `0..persons`.
            let span = (persons + 1).saturating_sub(class.window).max(1);
            let want = class.variants.min(span);
            let mut ks: Vec<usize> = Vec::with_capacity(want);
            while ks.len() < want {
                let k = rng.gen_range(0..span);
                if !ks.contains(&k) {
                    ks.push(k);
                }
            }
            pool.extend(ks.into_iter().map(|k| Stmt {
                class: ci,
                text: (class.render)(k, class.window.min(persons), persons),
            }));
        }
        pool
    }
}
