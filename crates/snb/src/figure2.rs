//! The toy Path Property Graph of **Figure 2** / Example 2.2.
//!
//! The paper fixes the identifier sets and part of the assignments:
//!
//! * `N = {101, …, 106}`, `E = {201, …, 207}`, `P = {301}`;
//! * `ρ(201) = (102, 101)`, `ρ(207) = (105, 103)`;
//! * `δ(301) = [105, 207, 103, 202, 102]`;
//! * `λ(101) = {Tag}`, `λ(102) = {Person, Manager}`,
//!   `λ(201) = {hasInterest}`, `λ(301) = {toWagner}`;
//! * `σ(101, name) = {Wagner}`, `σ(205, since) = {1/12/2014}`,
//!   `σ(301, trust) = {0.95}`.
//!
//! The remaining assignments are fixed by the worked example of §A.2: two
//! `locatedIn` edges (from 105 and from 102) point at node 106, whose
//! `name` is `Houston`, and the path 301 must conform to
//! `(knows + knows⁻)*`, so edges 207 = (105,103) and 202 = (103,102) are
//! `knows` edges. The elided parts (node 104 and edges 203–206) are
//! reconstructed consistently and documented here.

use gcore_ppg::{Attributes, GraphBuilder, IdGen, PathPropertyGraph};

/// Node identifiers of Figure 2, by role.
pub mod ids {
    /// The `:Tag {name: Wagner}` node.
    pub const TAG_WAGNER: u64 = 101;
    /// The `:Person :Manager` node (end of the stored path).
    pub const MANAGER: u64 = 102;
    /// A `:Person` node (middle of the stored path).
    pub const PERSON_MIDDLE: u64 = 103;
    /// A `:Person` node off the stored path.
    pub const PERSON_OTHER: u64 = 104;
    /// The `:Person` node that starts the stored path.
    pub const PERSON_START: u64 = 105;
    /// The `:Place {name: Houston}` node.
    pub const PLACE_HOUSTON: u64 = 106;
    /// The `:toWagner {trust: 0.95}` stored path.
    pub const PATH_TO_WAGNER: u64 = 301;
}

/// Build the Figure 2 graph with the paper's literal identifiers, drawing
/// nothing from `idgen` but reserving 101–301 in it.
pub fn figure2(idgen: &IdGen) -> PathPropertyGraph {
    let mut b = GraphBuilder::new(idgen.clone());

    let tag = b.node_with_id(
        ids::TAG_WAGNER,
        Attributes::labeled("Tag").with_prop("name", "Wagner"),
    );
    let manager = b.node_with_id(
        ids::MANAGER,
        Attributes::labeled("Person")
            .with_label("Manager")
            .with_prop("name", "Alice"),
    );
    let middle = b.node_with_id(
        ids::PERSON_MIDDLE,
        Attributes::labeled("Person").with_prop("name", "Celine"),
    );
    let other = b.node_with_id(
        ids::PERSON_OTHER,
        Attributes::labeled("Person").with_prop("name", "Dave"),
    );
    let start = b.node_with_id(
        ids::PERSON_START,
        Attributes::labeled("Person").with_prop("name", "Peter"),
    );
    let houston = b.node_with_id(
        ids::PLACE_HOUSTON,
        Attributes::labeled("Place").with_prop("name", "Houston"),
    );

    // ρ(201) = (102, 101), λ(201) = {hasInterest} — fixed by the paper.
    b.edge_with_id(201, manager, tag, Attributes::labeled("hasInterest"))
        .expect("endpoints exist");
    // ρ(202) = (103, 102) knows — required by δ(301) ∘ (knows+knows⁻)*.
    b.edge_with_id(202, middle, manager, Attributes::labeled("knows"))
        .expect("endpoints exist");
    // 203, 206: the two locatedIn edges of the §A.2 worked example
    // ({x→105, w→106} and {x→102, w→106}).
    b.edge_with_id(203, manager, houston, Attributes::labeled("locatedIn"))
        .expect("endpoints exist");
    b.edge_with_id(204, other, middle, Attributes::labeled("knows"))
        .expect("endpoints exist");
    // σ(205, since) = {1/12/2014} — fixed by the paper; the date literal
    // is kept verbatim as a string, exactly as printed.
    b.edge_with_id(
        205,
        other,
        start,
        Attributes::labeled("knows").with_prop("since", "1/12/2014"),
    )
    .expect("endpoints exist");
    b.edge_with_id(206, start, houston, Attributes::labeled("locatedIn"))
        .expect("endpoints exist");
    // ρ(207) = (105, 103) — fixed by the paper.
    b.edge_with_id(207, start, middle, Attributes::labeled("knows"))
        .expect("endpoints exist");

    // δ(301) = [105, 207, 103, 202, 102], λ(301) = {toWagner},
    // σ(301, trust) = {0.95}.
    b.path_with_id(
        ids::PATH_TO_WAGNER,
        vec![start, middle, manager],
        vec![gcore_ppg::EdgeId(207), gcore_ppg::EdgeId(202)],
        Attributes::labeled("toWagner").with_prop("trust", 0.95),
    )
    .expect("path is connected");

    b.build()
}

/// Convenience: the Figure 2 graph with a private generator.
pub fn figure2_standalone() -> PathPropertyGraph {
    figure2(&IdGen::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcore_ppg::{EdgeId, Key, Label, NodeId, PathId};

    #[test]
    fn identifier_sets_match_example_2_2() {
        let g = figure2_standalone();
        assert_eq!(
            g.node_ids_sorted(),
            (101..=106).map(NodeId).collect::<Vec<_>>()
        );
        assert_eq!(
            g.edge_ids_sorted(),
            (201..=207).map(EdgeId).collect::<Vec<_>>()
        );
        assert_eq!(g.path_ids_sorted(), vec![PathId(301)]);
    }

    #[test]
    fn fixed_assignments_match_the_paper() {
        let g = figure2_standalone();
        assert_eq!(g.endpoints(EdgeId(201)), Some((NodeId(102), NodeId(101))));
        assert_eq!(g.endpoints(EdgeId(207)), Some((NodeId(105), NodeId(103))));
        assert!(g.has_label(NodeId(101).into(), Label::new("Tag")));
        assert!(g.has_label(NodeId(102).into(), Label::new("Person")));
        assert!(g.has_label(NodeId(102).into(), Label::new("Manager")));
        assert!(g.has_label(EdgeId(201).into(), Label::new("hasInterest")));
        assert!(g.has_label(PathId(301).into(), Label::new("toWagner")));
        assert_eq!(
            g.prop(NodeId(101).into(), Key::new("name")),
            "Wagner".into()
        );
        assert_eq!(
            g.prop(EdgeId(205).into(), Key::new("since")),
            "1/12/2014".into()
        );
        assert_eq!(g.prop(PathId(301).into(), Key::new("trust")), 0.95.into());
    }

    #[test]
    fn path_301_shape() {
        let g = figure2_standalone();
        let p = g.path(PathId(301)).unwrap();
        assert_eq!(p.shape.nodes(), &[NodeId(105), NodeId(103), NodeId(102)]);
        assert_eq!(p.shape.edges(), &[EdgeId(207), EdgeId(202)]);
        // nodes(301) and edges(301) as sets match Example 2.2.
        let mut ns: Vec<u64> = p.shape.nodes().iter().map(|n| n.raw()).collect();
        ns.sort_unstable();
        assert_eq!(ns, vec![102, 103, 105]);
        let mut es: Vec<u64> = p.shape.edges().iter().map(|e| e.raw()).collect();
        es.sort_unstable();
        assert_eq!(es, vec![202, 207]);
    }

    #[test]
    fn graph_is_well_formed() {
        figure2_standalone().validate().unwrap();
    }
}
