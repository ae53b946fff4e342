//! Compilation of regular path expressions (§A.1) into NFAs.
//!
//! The alphabet has five symbol kinds: edge labels `ℓ` (forward), inverse
//! labels `ℓ⁻` (backward), node tests `!ℓ` (zero-width assertions on the
//! current node), the wildcard `_` (any edge, either direction), and path
//! view references `~name` (§A.4) — which, like labels, have a backward
//! form that no expression writes but mirroring produces.
//!
//! Construction is Thompson-style with ε-transitions; ε-closures are
//! precomputed. Node tests are treated as *conditional* ε-transitions
//! taken when the current node carries the label — equivalent to the
//! paper's interleaved node/edge strings with implicit `_` node symbols.

use gcore_parser::ast::{Direction, Regex};
use gcore_ppg::{ElementId, Label, PathPropertyGraph, PathShape};

/// One edge-consuming (or node-testing) NFA symbol.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Sym {
    /// Traverse an edge with this label forwards.
    Label(Label),
    /// Traverse an edge with this label backwards (ℓ⁻).
    LabelInv(Label),
    /// Zero-width: the current node must carry this label.
    NodeTest(Label),
    /// Traverse any edge in either direction.
    Wildcard,
    /// Traverse one segment of a PATH view (§A.4), by name.
    View(String),
    /// Traverse one segment of a PATH view from its end to its start.
    ViewInv(String),
}

impl Sym {
    /// The symbol that reads the same step from its other end.
    fn mirrored(&self) -> Sym {
        match self {
            Sym::Label(l) => Sym::LabelInv(*l),
            Sym::LabelInv(l) => Sym::Label(*l),
            Sym::View(v) => Sym::ViewInv(v.clone()),
            Sym::ViewInv(v) => Sym::View(v.clone()),
            Sym::NodeTest(_) | Sym::Wildcard => self.clone(),
        }
    }
}

/// A Thompson NFA with precomputed ε-closures.
#[derive(Clone, Debug)]
pub struct Nfa {
    /// Per-state symbol transitions.
    trans: Vec<Vec<(Sym, usize)>>,
    /// Per-state transitions grouped by symbol: each distinct symbol of a
    /// state appears exactly once, with every target state it leads to
    /// (sorted, deduplicated). This is the *outgoing symbol set* of the
    /// state — the product search iterates it so that each symbol's edge
    /// candidates (one label-index slice, one adjacency scan) are
    /// enumerated once per state, not once per transition.
    grouped: Vec<Vec<(Sym, Vec<usize>)>>,
    /// Per-state ε-closure (sorted, includes the state itself).
    closure: Vec<Vec<usize>>,
    /// Precomputed "any [`Sym::NodeTest`] anywhere?" — consulted per
    /// closure call on the search hot path.
    node_tests: bool,
    start: usize,
    accept: usize,
}

impl Nfa {
    /// Compile a parsed regular expression.
    pub fn compile(re: &Regex) -> Nfa {
        Nfa::compile_directed(re, Direction::Out)
    }

    /// Compile the expression of a path pattern for a search that starts
    /// at the pattern's left node: as written for `-/…/->`; mirrored for
    /// `<-/…/-`, whose walks run from the right node to the left one
    /// (concatenations in reverse order, every symbol read from its
    /// other end); either reading for `-/…/-`.
    pub fn compile_directed(re: &Regex, direction: Direction) -> Nfa {
        let mut b = Builder {
            trans: Vec::new(),
            eps: Vec::new(),
        };
        let start = b.state();
        let accept = b.state();
        if direction != Direction::In {
            b.build(re, start, accept, false);
        }
        if direction != Direction::Out {
            b.build(re, start, accept, true);
        }
        let closure = b.closures();
        let grouped = group_transitions(&b.trans);
        let node_tests = any_node_tests(&b.trans);
        Nfa {
            trans: b.trans,
            grouped,
            closure,
            node_tests,
            start,
            accept,
        }
    }

    /// The reversed automaton: accepts exactly the reversals of the walks
    /// this NFA accepts. Transitions are transposed with their symbols
    /// mirrored (`ℓ` ↔ `ℓ⁻`, `~v` ↔ its backward form; node tests and the
    /// wildcard are their own mirror images), ε-reachability is
    /// transposed, and start/accept swap roles.
    ///
    /// Running the *forward* product search with the reversed NFA from a
    /// node `d` therefore visits exactly the product states that are
    /// co-reachable to acceptance at `d` in this NFA — the basis of the
    /// bidirectional and cone-pruned searches in [`crate::paths`].
    pub fn reverse(&self) -> Nfa {
        let n = self.trans.len();
        let mut trans: Vec<Vec<(Sym, usize)>> = vec![Vec::new(); n];
        for (from, ts) in self.trans.iter().enumerate() {
            for (sym, to) in ts {
                trans[*to].push((sym.mirrored(), from));
            }
        }
        // Reversed ε-closure = transpose of the (transitively closed)
        // forward ε-reachability relation.
        let mut closure: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (from, cl) in self.closure.iter().enumerate() {
            for &to in cl {
                closure[to].push(from);
            }
        }
        for cl in &mut closure {
            cl.sort_unstable();
        }
        let grouped = group_transitions(&trans);
        Nfa {
            node_tests: any_node_tests(&trans),
            trans,
            grouped,
            closure,
            start: self.accept,
            accept: self.start,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// The start state.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Is `state`'s ε-closure accepting?
    pub fn accepts(&self, state: usize) -> bool {
        self.closure[state].binary_search(&self.accept).is_ok()
    }

    /// ε-closure of a state (sorted).
    pub fn closure(&self, state: usize) -> &[usize] {
        &self.closure[state]
    }

    /// Symbol transitions out of a state (no ε).
    pub fn transitions(&self, state: usize) -> &[(Sym, usize)] {
        &self.trans[state]
    }

    /// The outgoing symbol set of a state: its transitions grouped by
    /// symbol, each distinct symbol once with all its target states
    /// (sorted). Lets the product search enumerate a symbol's graph-edge
    /// candidates once and fan the results out to every target state.
    pub fn grouped_transitions(&self, state: usize) -> &[(Sym, Vec<usize>)] {
        &self.grouped[state]
    }

    /// All view names referenced anywhere in the automaton.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .trans
            .iter()
            .flatten()
            .filter_map(|(s, _)| match s {
                Sym::View(n) | Sym::ViewInv(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Does any transition consult node labels? (Used to decide whether
    /// closures depend on the current node.)
    pub fn has_node_tests(&self) -> bool {
        self.node_tests
    }

    /// A hashable structural identity for this automaton: the full
    /// transition table plus start/accept states. Compilation is
    /// deterministic, so two NFAs compiled from equal regexes have equal
    /// keys — which is what lets per-snapshot search caches recognize
    /// "the same path query again" across independently parsed
    /// statements. (ε-closures and symbol groups are derived from the
    /// transition table, so they carry no extra identity.)
    pub fn identity_key(&self) -> NfaKey {
        NfaKey {
            trans: self.trans.clone(),
            start: self.start,
            accept: self.accept,
        }
    }
}

/// Structural identity of an [`Nfa`] — see [`Nfa::identity_key`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NfaKey {
    trans: Vec<Vec<(Sym, usize)>>,
    start: usize,
    accept: usize,
}

fn any_node_tests(trans: &[Vec<(Sym, usize)>]) -> bool {
    trans
        .iter()
        .flatten()
        .any(|(s, _)| matches!(s, Sym::NodeTest(_)))
}

/// Group a transition table by symbol: per state, each distinct symbol
/// once with its (sorted, deduplicated) target states. Symbol order is
/// first-appearance order, which is deterministic per compilation.
fn group_transitions(trans: &[Vec<(Sym, usize)>]) -> Vec<Vec<(Sym, Vec<usize>)>> {
    trans
        .iter()
        .map(|ts| {
            let mut groups: Vec<(Sym, Vec<usize>)> = Vec::new();
            for (sym, to) in ts {
                match groups.iter_mut().find(|(s, _)| s == sym) {
                    Some((_, tos)) => tos.push(*to),
                    None => groups.push((sym.clone(), vec![*to])),
                }
            }
            for (_, tos) in &mut groups {
                tos.sort_unstable();
                tos.dedup();
            }
            groups
        })
        .collect()
}

struct Builder {
    trans: Vec<Vec<(Sym, usize)>>,
    eps: Vec<Vec<usize>>,
}

impl Builder {
    fn state(&mut self) -> usize {
        self.trans.push(Vec::new());
        self.eps.push(Vec::new());
        self.trans.len() - 1
    }

    fn eps_edge(&mut self, from: usize, to: usize) {
        self.eps[from].push(to);
    }

    fn sym_edge(&mut self, from: usize, sym: Sym, to: usize) {
        self.trans[from].push((sym, to));
    }

    /// Add `re` between `from` and `to`; `mirror` adds the expression
    /// that accepts its walks reversed instead.
    fn build(&mut self, re: &Regex, from: usize, to: usize, mirror: bool) {
        let sym = |s: Sym| if mirror { s.mirrored() } else { s };
        match re {
            Regex::Label(l) => self.sym_edge(from, sym(Sym::Label(Label::new(l))), to),
            Regex::LabelInv(l) => self.sym_edge(from, sym(Sym::LabelInv(Label::new(l))), to),
            Regex::NodeTest(l) => self.sym_edge(from, Sym::NodeTest(Label::new(l)), to),
            Regex::Wildcard => self.sym_edge(from, Sym::Wildcard, to),
            Regex::View(v) => self.sym_edge(from, sym(Sym::View(v.clone())), to),
            Regex::Concat(parts) => {
                let n = parts.len();
                let mut cur = from;
                for i in 0..n {
                    let part = &parts[if mirror { n - 1 - i } else { i }];
                    let next = if i + 1 == n { to } else { self.state() };
                    self.build(part, cur, next, mirror);
                    cur = next;
                }
                if parts.is_empty() {
                    self.eps_edge(from, to);
                }
            }
            Regex::Alt(parts) => {
                for part in parts {
                    self.build(part, from, to, mirror);
                }
                if parts.is_empty() {
                    self.eps_edge(from, to);
                }
            }
            Regex::Star(inner) => {
                let hub = self.state();
                self.eps_edge(from, hub);
                self.eps_edge(hub, to);
                let body_in = self.state();
                self.eps_edge(hub, body_in);
                self.build(inner, body_in, hub, mirror);
            }
            Regex::Plus(inner) => {
                // r+ = r r*
                let mid = self.state();
                self.build(inner, from, mid, mirror);
                self.build(&Regex::Star(inner.clone()), mid, to, mirror);
            }
            Regex::Opt(inner) => {
                self.eps_edge(from, to);
                self.build(inner, from, to, mirror);
            }
        }
    }

    fn closures(&self) -> Vec<Vec<usize>> {
        let n = self.trans.len();
        let mut out = Vec::with_capacity(n);
        for s in 0..n {
            let mut seen = vec![false; n];
            let mut stack = vec![s];
            seen[s] = true;
            while let Some(q) = stack.pop() {
                for &r in &self.eps[q] {
                    if !seen[r] {
                        seen[r] = true;
                        stack.push(r);
                    }
                }
            }
            out.push((0..n).filter(|&i| seen[i]).collect());
        }
        out
    }
}

/// Check a concrete walk in `graph` against an NFA.
pub fn conforms(graph: &PathPropertyGraph, shape: &PathShape, nfa: &Nfa) -> bool {
    let labels = |id: ElementId| graph.labels(id).iter().collect::<Vec<Label>>();
    let nodes: Vec<Vec<Label>> = shape.nodes().iter().map(|&n| labels(n.into())).collect();
    let forward = |e, from| graph.endpoints(e).is_some_and(|(src, _)| src == from);
    let steps: Vec<(Vec<Label>, bool)> = (shape.edges().iter().zip(shape.nodes()))
        .map(|(&e, &from)| (labels(e.into()), forward(e, from)))
        .collect();
    walk_conforms(nfa, &nodes, &steps)
}

/// Run the NFA over a concrete walk to test conformance — used for
/// matching stored paths against a regex (`@p <regex>` patterns).
///
/// `edges` yields, per step, the sets of labels usable forwards and
/// backwards (an edge traversed forward offers `Label`, backward offers
/// `LabelInv`, and both offer `Wildcard`); `node_labels` yields the label
/// set of the node *before* each step plus the final node.
pub fn walk_conforms(nfa: &Nfa, node_labels: &[Vec<Label>], steps: &[(Vec<Label>, bool)]) -> bool {
    debug_assert_eq!(node_labels.len(), steps.len() + 1);
    // Current set of NFA states, closed under ε and node tests at node i.
    let close = |states: &[usize], labels: &[Label]| -> Vec<usize> {
        let mut seen: Vec<bool> = vec![false; nfa.num_states()];
        let mut stack: Vec<usize> = Vec::new();
        for &s in states {
            for &c in nfa.closure(s) {
                if !seen[c] {
                    seen[c] = true;
                    stack.push(c);
                }
            }
        }
        while let Some(q) = stack.pop() {
            for (sym, to) in nfa.transitions(q) {
                if let Sym::NodeTest(l) = sym {
                    if labels.contains(l) {
                        for &c in nfa.closure(*to) {
                            if !seen[c] {
                                seen[c] = true;
                                stack.push(c);
                            }
                        }
                    }
                }
            }
        }
        (0..nfa.num_states()).filter(|&i| seen[i]).collect()
    };

    let mut states = close(&[nfa.start()], &node_labels[0]);
    for (i, (labels, forward)) in steps.iter().enumerate() {
        let mut next = Vec::new();
        for &q in &states {
            for (sym, to) in nfa.transitions(q) {
                let ok = match sym {
                    Sym::Wildcard => true,
                    Sym::Label(l) => *forward && labels.contains(l),
                    Sym::LabelInv(l) => !*forward && labels.contains(l),
                    Sym::NodeTest(_) | Sym::View(_) | Sym::ViewInv(_) => false,
                };
                if ok {
                    next.push(*to);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        if next.is_empty() {
            return false;
        }
        states = close(&next, &node_labels[i + 1]);
    }
    states.iter().any(|&q| nfa.accepts(q))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    #[test]
    fn star_accepts_empty() {
        let nfa = Nfa::compile(&Regex::Star(Box::new(Regex::Label("knows".into()))));
        assert!(nfa.accepts(nfa.start()));
    }

    #[test]
    fn single_label_needs_one_step() {
        let nfa = Nfa::compile(&Regex::Label("knows".into()));
        assert!(!nfa.accepts(nfa.start()));
        let ok = walk_conforms(&nfa, &[vec![], vec![]], &[(vec![l("knows")], true)]);
        assert!(ok);
        let bad_dir = walk_conforms(&nfa, &[vec![], vec![]], &[(vec![l("knows")], false)]);
        assert!(!bad_dir);
        let bad_label = walk_conforms(&nfa, &[vec![], vec![]], &[(vec![l("likes")], true)]);
        assert!(!bad_label);
    }

    #[test]
    fn inverse_label_matches_backward_steps() {
        let nfa = Nfa::compile(&Regex::LabelInv("knows".into()));
        assert!(walk_conforms(
            &nfa,
            &[vec![], vec![]],
            &[(vec![l("knows")], false)]
        ));
        assert!(!walk_conforms(
            &nfa,
            &[vec![], vec![]],
            &[(vec![l("knows")], true)]
        ));
    }

    #[test]
    fn wildcard_matches_any_direction() {
        let nfa = Nfa::compile(&Regex::Wildcard);
        assert!(walk_conforms(
            &nfa,
            &[vec![], vec![]],
            &[(vec![l("x")], true)]
        ));
        assert!(walk_conforms(
            &nfa,
            &[vec![], vec![]],
            &[(vec![l("x")], false)]
        ));
    }

    #[test]
    fn concat_and_alt() {
        // (:a + :b) :c
        let re = Regex::Concat(vec![
            Regex::Alt(vec![Regex::Label("a".into()), Regex::Label("b".into())]),
            Regex::Label("c".into()),
        ]);
        let nfa = Nfa::compile(&re);
        let n3 = vec![vec![], vec![], vec![]];
        assert!(walk_conforms(
            &nfa,
            &n3,
            &[(vec![l("b")], true), (vec![l("c")], true)]
        ));
        assert!(!walk_conforms(
            &nfa,
            &n3,
            &[(vec![l("c")], true), (vec![l("b")], true)]
        ));
        assert!(!walk_conforms(
            &nfa,
            &[vec![], vec![]],
            &[(vec![l("a")], true)]
        ));
    }

    #[test]
    fn node_tests_are_zero_width() {
        // :a !Stop :b — middle node must be labeled Stop
        let re = Regex::Concat(vec![
            Regex::Label("a".into()),
            Regex::NodeTest("Stop".into()),
            Regex::Label("b".into()),
        ]);
        let nfa = Nfa::compile(&re);
        assert!(nfa.has_node_tests());
        let good = walk_conforms(
            &nfa,
            &[vec![], vec![l("Stop")], vec![]],
            &[(vec![l("a")], true), (vec![l("b")], true)],
        );
        assert!(good);
        let bad = walk_conforms(
            &nfa,
            &[vec![], vec![l("Go")], vec![]],
            &[(vec![l("a")], true), (vec![l("b")], true)],
        );
        assert!(!bad);
    }

    #[test]
    fn node_test_at_endpoint() {
        // !Person :a — start node must be a Person
        let re = Regex::Concat(vec![
            Regex::NodeTest("Person".into()),
            Regex::Label("a".into()),
        ]);
        let nfa = Nfa::compile(&re);
        assert!(walk_conforms(
            &nfa,
            &[vec![l("Person")], vec![]],
            &[(vec![l("a")], true)]
        ));
        assert!(!walk_conforms(
            &nfa,
            &[Vec::new(), Vec::new()],
            &[(vec![l("a")], true)]
        ));
    }

    #[test]
    fn plus_and_opt_desugar() {
        let plus = Nfa::compile(&Regex::Plus(Box::new(Regex::Label("a".into()))));
        assert!(!plus.accepts(plus.start())); // needs at least one step
        let step = |n: usize| {
            let nodes = vec![vec![]; n + 1];
            let steps = vec![(vec![l("a")], true); n];
            walk_conforms(&plus, &nodes, &steps)
        };
        assert!(step(1) && step(3));

        let opt = Nfa::compile(&Regex::Opt(Box::new(Regex::Label("a".into()))));
        assert!(opt.accepts(opt.start()));
    }

    #[test]
    fn grouped_transitions_merge_equal_symbols() {
        // (:a + :a :b) — the start state has two `a` transitions that
        // grouping must merge into one symbol with two targets.
        let re = Regex::Alt(vec![
            Regex::Label("a".into()),
            Regex::Concat(vec![Regex::Label("a".into()), Regex::Label("b".into())]),
        ]);
        let nfa = Nfa::compile(&re);
        let groups = nfa.grouped_transitions(nfa.start());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, Sym::Label(l("a")));
        assert_eq!(groups[0].1.len(), 2);
        // The grouped view covers the same transitions.
        assert_eq!(nfa.transitions(nfa.start()).len(), 2);
    }

    #[test]
    fn reverse_accepts_reversed_walks() {
        // :a :b forwards ⟺ reversed automaton accepts the walk traversed
        // backwards (each step direction flips, order reverses).
        let re = Regex::Concat(vec![Regex::Label("a".into()), Regex::Label("b".into())]);
        let nfa = Nfa::compile(&re);
        let rev = nfa.reverse();
        let n3 = vec![vec![], vec![], vec![]];
        assert!(walk_conforms(
            &nfa,
            &n3,
            &[(vec![l("a")], true), (vec![l("b")], true)]
        ));
        assert!(walk_conforms(
            &rev,
            &n3,
            &[(vec![l("b")], false), (vec![l("a")], false)]
        ));
        // The unreversed order is *not* accepted by the reversal.
        assert!(!walk_conforms(
            &rev,
            &n3,
            &[(vec![l("a")], false), (vec![l("b")], false)]
        ));
    }

    #[test]
    fn reverse_keeps_node_tests_in_place() {
        // :a !Stop :b reversed: :b⁻ !Stop :a⁻ — the test still guards the
        // middle node.
        let re = Regex::Concat(vec![
            Regex::Label("a".into()),
            Regex::NodeTest("Stop".into()),
            Regex::Label("b".into()),
        ]);
        let rev = Nfa::compile(&re).reverse();
        assert!(rev.has_node_tests());
        assert!(walk_conforms(
            &rev,
            &[vec![], vec![l("Stop")], vec![]],
            &[(vec![l("b")], false), (vec![l("a")], false)]
        ));
        assert!(!walk_conforms(
            &rev,
            &[vec![], vec![], vec![]],
            &[(vec![l("b")], false), (vec![l("a")], false)]
        ));
    }

    #[test]
    fn reverse_of_star_accepts_empty() {
        let rev = Nfa::compile(&Regex::Star(Box::new(Regex::Label("a".into())))).reverse();
        assert!(rev.accepts(rev.start()));
    }

    #[test]
    fn views_reverse_to_their_backward_form() {
        // ~w :a reversed: :a⁻ then ~w read from its end.
        let re = Regex::Concat(vec![Regex::View("w".into()), Regex::Label("a".into())]);
        let rev = Nfa::compile(&re).reverse();
        let (first, mid) = &rev.transitions(rev.start())[0];
        assert_eq!(*first, Sym::LabelInv(l("a")));
        assert_eq!(rev.transitions(*mid)[0].0, Sym::ViewInv("w".into()));
        assert_eq!(rev.view_names(), vec!["w".to_string()]);
    }

    #[test]
    fn in_direction_compiles_the_mirror_image() {
        // The mirror of `r` is, state for state, the reversal-free way
        // to accept what `reverse` of `r` accepts: :a ~w mirrored reads
        // ~w from its end, then :a backwards.
        let re = Regex::Concat(vec![Regex::Label("a".into()), Regex::View("w".into())]);
        let nfa = Nfa::compile_directed(&re, Direction::In);
        let (first, mid) = &nfa.transitions(nfa.start())[0];
        assert_eq!(*first, Sym::ViewInv("w".into()));
        assert_eq!(nfa.transitions(*mid)[0].0, Sym::LabelInv(l("a")));
        // Undirected offers both readings from the start state.
        let both = Nfa::compile_directed(&re, Direction::Undirected);
        assert_eq!(both.transitions(both.start()).len(), 2);
    }

    #[test]
    fn view_names_collected() {
        let re = Regex::Star(Box::new(Regex::View("wKnows".into())));
        let nfa = Nfa::compile(&re);
        assert_eq!(nfa.view_names(), vec!["wKnows".to_string()]);
    }

    #[test]
    fn star_of_alt_loops() {
        // ((:knows + :knows-))* — the appendix's (knows+knows−)* example
        let re = Regex::Star(Box::new(Regex::Alt(vec![
            Regex::Label("knows".into()),
            Regex::LabelInv("knows".into()),
        ])));
        let nfa = Nfa::compile(&re);
        let nodes = vec![vec![]; 3];
        assert!(walk_conforms(
            &nfa,
            &nodes,
            &[(vec![l("knows")], false), (vec![l("knows")], true)]
        ));
    }
}
