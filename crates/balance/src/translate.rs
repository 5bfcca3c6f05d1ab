//! The automaton translation of Lemma 7.4: from a stepwise unranked TVA with states
//! `Q` to a binary TVA on forest-algebra terms.
//!
//! The binary automaton's states are (Figure 2 of the paper):
//!
//! * **forest states** `(q₁, q₂) ∈ Q²`: "there is a run of the stepwise automaton on
//!   this forest whose root sequence transforms horizontal state `q₁` into `q₂`";
//! * **context states** `((h₁, h₂), (o₁, o₂)) ∈ (Q²)²`: "if the hole is filled by a
//!   forest transforming `h₁` into `h₂`, then the context's root sequence transforms
//!   `o₁` into `o₂`".
//!
//! Acceptance uses the virtual-root normalization (fresh states `q₀`, `q_f` with
//! `(q₀, f, q_f)` for every original final state `f`): the term is accepted iff its
//! root forest state is `(q₀, q_f)`.
//!
//! The result is homogenized (Lemma 2.1) and trimmed, which is what the circuit
//! construction of Lemma 3.7 requires and what keeps the practical width small.

use crate::term::{TermAlphabet, TermOp};
use treenum_automata::{BinaryTva, State, StepwiseTva};
use treenum_trees::valuation::subsets;
use treenum_trees::Label;

/// The output of the Lemma 7.4 translation.
#[derive(Clone, Debug, PartialEq)]
pub struct TranslatedTva {
    /// The homogenized, trimmed binary TVA on forest-algebra terms.
    pub tva: BinaryTva,
    /// The term alphabet the TVA reads.
    pub alphabet: TermAlphabet,
    /// The number of states of the (virtual-root-augmented) stepwise automaton.
    pub stepwise_states: usize,
}

struct Encoder {
    n: usize,
}

impl Encoder {
    fn forest(&self, q1: usize, q2: usize) -> State {
        State((q1 * self.n + q2) as u32)
    }
    fn context(&self, h1: usize, h2: usize, o1: usize, o2: usize) -> State {
        let base = self.n * self.n;
        State((base + (((h1 * self.n + h2) * self.n + o1) * self.n + o2)) as u32)
    }
    fn total(&self) -> usize {
        self.n * self.n + self.n.pow(4)
    }
}

/// The bottom-up constructible forest pairs and context quadruples of the
/// translation — a saturation over the five operators, seeded by the leaf
/// rules.  Pairs are encoded as `q1 * n + q2`.
struct Reachable {
    n: usize,
    /// Constructible forest pairs `(q1, q2)`, as a dense membership bitmap and
    /// an insertion-ordered list.
    forest_set: Vec<bool>,
    forest: Vec<u32>,
    /// Constructible context pairs `(hole_pair, outer_pair)`.
    ctx_set: Vec<bool>,
    ctx: Vec<(u32, u32)>,
    /// `forest_by_first[q1] = [q2, …]`, `forest_by_second[q2] = [q1, …]`.
    forest_by_first: Vec<Vec<u32>>,
    forest_by_second: Vec<Vec<u32>>,
    /// `ctx_by_hole[h_pair] = [o_pair, …]`, `ctx_by_outer[o_pair] = [h_pair, …]`.
    ctx_by_hole: Vec<Vec<u32>>,
    ctx_by_outer: Vec<Vec<u32>>,
    /// `ctx_by_o1[o1] = [(h_pair, o2), …]`, `ctx_by_o2[o2] = [(h_pair, o1), …]`.
    ctx_by_o1: Vec<Vec<(u32, u32)>>,
    ctx_by_o2: Vec<Vec<(u32, u32)>>,
}

enum Item {
    Forest(u32),
    Context(u32, u32),
}

impl Reachable {
    fn new(n: usize) -> Self {
        Reachable {
            n,
            forest_set: vec![false; n * n],
            forest: Vec::new(),
            ctx_set: vec![false; n * n * n * n],
            ctx: Vec::new(),
            forest_by_first: vec![Vec::new(); n],
            forest_by_second: vec![Vec::new(); n],
            ctx_by_hole: vec![Vec::new(); n * n],
            ctx_by_outer: vec![Vec::new(); n * n],
            ctx_by_o1: vec![Vec::new(); n],
            ctx_by_o2: vec![Vec::new(); n],
        }
    }

    fn add_forest(&mut self, p: u32, work: &mut Vec<Item>) {
        if !self.forest_set[p as usize] {
            self.forest_set[p as usize] = true;
            self.forest.push(p);
            let (q1, q2) = (p / self.n as u32, p % self.n as u32);
            self.forest_by_first[q1 as usize].push(q2);
            self.forest_by_second[q2 as usize].push(q1);
            work.push(Item::Forest(p));
        }
    }

    fn add_ctx(&mut self, h: u32, o: u32, work: &mut Vec<Item>) {
        let key = h as usize * self.n * self.n + o as usize;
        if !self.ctx_set[key] {
            self.ctx_set[key] = true;
            self.ctx.push((h, o));
            self.ctx_by_hole[h as usize].push(o);
            self.ctx_by_outer[o as usize].push(h);
            let (o1, o2) = (o / self.n as u32, o % self.n as u32);
            self.ctx_by_o1[o1 as usize].push((h, o2));
            self.ctx_by_o2[o2 as usize].push((h, o1));
            work.push(Item::Context(h, o));
        }
    }

    /// Saturates under the five operators of Figure 2.
    ///
    /// The buckets are append-only, so each join iterates its bucket by index
    /// (entries appended mid-iteration are handled when their own work item is
    /// popped) — no temporary copies in the fixpoint loop.
    fn saturate(&mut self, work: &mut Vec<Item>) {
        // Index-based iteration over an append-only bucket of `self`, while
        // `self` is mutated through `add`.
        macro_rules! join {
            ($bucket:expr, $idx:expr, |$e:ident| $body:expr) => {{
                let mut i = 0;
                while i < $bucket[$idx as usize].len() {
                    let $e = $bucket[$idx as usize][i];
                    $body;
                    i += 1;
                }
            }};
        }
        let n = self.n as u32;
        while let Some(item) = work.pop() {
            match item {
                Item::Forest(p) => {
                    let (q1, q2) = (p / n, p % n);
                    // ⊕HH as left operand: (q1,q2) ⊕ (q2,q3) → (q1,q3).
                    join!(self.forest_by_first, q2, |q3| self
                        .add_forest(q1 * n + q3, work));
                    // ⊕HH as right operand: (q0,q1) ⊕ (q1,q2) → (q0,q2).
                    join!(self.forest_by_second, q1, |q0| self
                        .add_forest(q0 * n + q2, work));
                    // ⊕HV: (q1,q2) ⊕ ((h),(q2,q3)) → ((h),(q1,q3)).
                    join!(self.ctx_by_o1, q2, |e| {
                        let (h, o2) = e;
                        self.add_ctx(h, q1 * n + o2, work)
                    });
                    // ⊕VH: ((h),(q0,q1)) ⊕ (q1,q2) → ((h),(q0,q2)).
                    join!(self.ctx_by_o2, q1, |e| {
                        let (h, o1) = e;
                        self.add_ctx(h, o1 * n + q2, work)
                    });
                    // ⊙VH: ((p),(o)) ⊙ p → o.
                    join!(self.ctx_by_hole, p, |o| self.add_forest(o, work));
                }
                Item::Context(h, o) => {
                    let (o1, o2) = (o / n, o % n);
                    // ⊕HV: (q1,o1) ⊕ ((h),(o1,o2)) → ((h),(q1,o2)).
                    join!(self.forest_by_second, o1, |q1| self.add_ctx(
                        h,
                        q1 * n + o2,
                        work
                    ));
                    // ⊕VH: ((h),(o1,o2)) ⊕ (o2,q3) → ((h),(o1,q3)).
                    join!(self.forest_by_first, o2, |q3| self.add_ctx(
                        h,
                        o1 * n + q3,
                        work
                    ));
                    // ⊙VV as left operand: ((h),(o)) ⊙ ((h2),(h)) → ((h2),(o)).
                    join!(self.ctx_by_outer, h, |h2| self.add_ctx(h2, o, work));
                    // ⊙VV as right operand: ((o),(o1b)) ⊙ ((h),(o)) → ((h),(o1b)).
                    join!(self.ctx_by_hole, o, |o1b| self.add_ctx(h, o1b, work));
                    // ⊙VH: ((h),(o)) ⊙ h → o.
                    if self.forest_set[h as usize] {
                        self.add_forest(o, work);
                    }
                }
            }
        }
    }
}

/// Translates a stepwise unranked TVA into a binary TVA over forest-algebra terms
/// (Lemma 7.4), then homogenizes and trims it.
///
/// `base_alphabet_len` is the number of labels of the unranked trees the stepwise
/// automaton runs on.
///
/// Instead of materializing all `Θ(|Q|⁶)` operator transitions and letting
/// `trim` discard the dead ones, the construction first saturates the bottom-up
/// *constructible* forest pairs and context quadruples (seeded by the leaf
/// rules) and only emits transitions whose operand states are constructible —
/// exactly the transitions trimming would keep, so the final automaton is
/// identical, but the work is proportional to the useful part.
pub fn translate_stepwise(stepwise: &StepwiseTva, base_alphabet_len: usize) -> TranslatedTva {
    // Normalize acceptance with virtual root states.
    let mut a = stepwise.clone();
    let (q0, qf) = a.add_virtual_root_states();
    let n = a.num_states();
    let enc = Encoder { n };
    let alphabet = TermAlphabet::new(base_alphabet_len);
    let mut out = BinaryTva::new(enc.total(), alphabet.len(), a.vars());

    let var_subsets = subsets(a.vars());
    // Per-child and per-(label, Y) buckets replace the `transitions()` /
    // `initial_states` linear scans of the leaf-entry construction.
    let index = a.delta_index();

    // Leaf initial entries; they seed the reachability saturation.
    let mut reach = Reachable::new(n);
    let mut work: Vec<Item> = Vec::new();
    for base in 0..base_alphabet_len {
        let base_label = Label(base as u32);
        for &y in &var_subsets {
            let inits = index.initial_states(base_label, y);
            if inits.is_empty() {
                continue;
            }
            // a_t: forest (q1, q2) iff ∃p ∈ ι(a, Y): (q1, p, q2) ∈ δ.
            for &p in inits {
                for &(q1, q2) in index.by_child(p) {
                    out.add_initial(
                        alphabet.tree_leaf_label(base_label),
                        y,
                        enc.forest(q1.index(), q2.index()),
                    );
                    reach.add_forest((q1.index() * n + q2.index()) as u32, &mut work);
                }
            }
            // a_□: context ((h1, h2), (o1, o2)) iff h1 ∈ ι(a, Y) and (o1, h2, o2) ∈ δ.
            for &h1 in inits {
                for &(o1, h2, o2) in a.transitions() {
                    out.add_initial(
                        alphabet.context_leaf_label(base_label),
                        y,
                        enc.context(h1.index(), h2.index(), o1.index(), o2.index()),
                    );
                    reach.add_ctx(
                        (h1.index() * n + h2.index()) as u32,
                        (o1.index() * n + o2.index()) as u32,
                        &mut work,
                    );
                }
            }
        }
    }
    reach.saturate(&mut work);

    // Operator transitions (Figure 2), restricted to constructible operands.
    let nn = n as u32;
    let hh = alphabet.op_label(TermOp::OplusHH);
    let hv = alphabet.op_label(TermOp::OplusHV);
    let vh = alphabet.op_label(TermOp::OplusVH);
    let vv = alphabet.op_label(TermOp::OdotVV);
    let vhp = alphabet.op_label(TermOp::OdotVH);
    for &p in &reach.forest {
        let (q1, q2) = ((p / nn) as usize, (p % nn) as usize);
        // ⊕HH: (q1,q2) ⊕ (q2,q3) → (q1,q3).
        for &q3 in &reach.forest_by_first[q2] {
            out.add_transition(
                hh,
                enc.forest(q1, q2),
                enc.forest(q2, q3 as usize),
                enc.forest(q1, q3 as usize),
            );
        }
        // ⊕HV: (q1,q2) ⊕ ((h),(q2,q3)) → ((h),(q1,q3)).
        for &(h, o2) in &reach.ctx_by_o1[q2] {
            let (h1, h2) = ((h / nn) as usize, (h % nn) as usize);
            out.add_transition(
                hv,
                enc.forest(q1, q2),
                enc.context(h1, h2, q2, o2 as usize),
                enc.context(h1, h2, q1, o2 as usize),
            );
        }
    }
    for &(h, o) in &reach.ctx {
        let (h1, h2) = ((h / nn) as usize, (h % nn) as usize);
        let (o1, o2) = ((o / nn) as usize, (o % nn) as usize);
        // ⊕VH: ((h),(o1,o2)) ⊕ (o2,q3) → ((h),(o1,q3)).
        for &q3 in &reach.forest_by_first[o2] {
            out.add_transition(
                vh,
                enc.context(h1, h2, o1, o2),
                enc.forest(o2, q3 as usize),
                enc.context(h1, h2, o1, q3 as usize),
            );
        }
        // ⊙VV: ((h),(o)) ⊙ ((h2),(h)) → ((h2),(o)).
        for &hp2 in &reach.ctx_by_outer[h as usize] {
            let (h2a, h2b) = ((hp2 / nn) as usize, (hp2 % nn) as usize);
            out.add_transition(
                vv,
                enc.context(h1, h2, o1, o2),
                enc.context(h2a, h2b, h1, h2),
                enc.context(h2a, h2b, o1, o2),
            );
        }
        // ⊙VH: ((h),(o)) ⊙ h → o.
        if reach.forest_set[h as usize] {
            out.add_transition(
                vhp,
                enc.context(h1, h2, o1, o2),
                enc.forest(h1, h2),
                enc.forest(o1, o2),
            );
        }
    }

    // Acceptance: the root forest transforms q0 into qf.
    out.add_final(enc.forest(q0.index(), qf.index()));

    let tva = out.homogenize();
    TranslatedTva {
        tva,
        alphabet,
        stepwise_states: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_balanced_term;
    use crate::term::Term;
    use std::collections::{BTreeSet, HashMap, HashSet};
    use treenum_automata::binary::BinaryValuation;
    use treenum_automata::queries;
    use treenum_trees::binary::BinaryTree;
    use treenum_trees::generate::{random_tree, TreeShape};
    use treenum_trees::unranked::UnrankedTree;
    use treenum_trees::valuation::Var;
    use treenum_trees::Alphabet;

    /// Converts a term into the plain binary tree the TVA runs on, remembering which
    /// binary leaf encodes which unranked node.
    fn term_to_binary(
        term: &Term,
        alphabet: &TermAlphabet,
    ) -> (
        BinaryTree,
        HashMap<treenum_trees::binary::BinaryNodeId, treenum_trees::NodeId>,
    ) {
        use crate::term::TermNodeKind;
        let mut mapping = HashMap::new();
        fn go(
            term: &Term,
            n: crate::term::TermNodeId,
            alphabet: &TermAlphabet,
            out: &mut BinaryTree,
            mapping: &mut HashMap<treenum_trees::binary::BinaryNodeId, treenum_trees::NodeId>,
        ) -> treenum_trees::binary::BinaryNodeId {
            match term.kind(n) {
                TermNodeKind::Op(op) => {
                    let (l, r) = term.children(n).unwrap();
                    let bl = go(term, l, alphabet, out, mapping);
                    let br = go(term, r, alphabet, out, mapping);
                    out.add_internal(alphabet.op_label(op), bl, br)
                }
                kind => {
                    let id = out.add_leaf(alphabet.label_of(kind));
                    mapping.insert(id, term.leaf_tree_node(n).unwrap());
                    id
                }
            }
        }
        let mut out = BinaryTree::leaf(Label(0));
        let root = go(term, term.root(), alphabet, &mut out, &mut mapping);
        out.set_root(root);
        (out, mapping)
    }

    fn answers_via_translation(
        stepwise: &StepwiseTva,
        tree: &UnrankedTree,
        base_alphabet_len: usize,
    ) -> HashSet<BTreeSet<(Var, treenum_trees::NodeId)>> {
        let translated = translate_stepwise(stepwise, base_alphabet_len);
        let (term, _phi) = build_balanced_term(tree);
        let (binary, mapping) = term_to_binary(&term, &translated.alphabet);
        translated
            .tva
            .satisfying_assignments(&binary)
            .into_iter()
            .map(|ass| {
                ass.into_iter()
                    .map(|(v, leaf)| (v, mapping[&leaf]))
                    .collect()
            })
            .collect()
    }

    fn answers_direct(
        stepwise: &StepwiseTva,
        tree: &UnrankedTree,
    ) -> HashSet<BTreeSet<(Var, treenum_trees::NodeId)>> {
        stepwise
            .satisfying_assignments(tree)
            .into_iter()
            .map(|a| a.singletons().iter().map(|s| (s.var, s.node)).collect())
            .collect()
    }

    #[test]
    fn faithfulness_select_label() {
        let mut sigma = Alphabet::from_names(["a", "b", "c"]);
        let b = sigma.get("b").unwrap();
        let q = queries::select_label(sigma.len(), b, Var(0));
        for seed in 0..4u64 {
            let t = random_tree(&mut sigma, 12, TreeShape::Random, seed);
            assert_eq!(
                answers_via_translation(&q, &t, sigma.len()),
                answers_direct(&q, &t),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn faithfulness_marked_ancestor() {
        let mut sigma = Alphabet::from_names(["a", "m", "s"]);
        let m = sigma.get("m").unwrap();
        let s = sigma.get("s").unwrap();
        let q = queries::marked_ancestor(sigma.len(), m, s, Var(0));
        for seed in 0..3u64 {
            let t = random_tree(&mut sigma, 10, TreeShape::Deep, seed);
            assert_eq!(
                answers_via_translation(&q, &t, sigma.len()),
                answers_direct(&q, &t),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn faithfulness_ancestor_descendant_pairs() {
        let mut sigma = Alphabet::from_names(["a", "b"]);
        let a = sigma.get("a").unwrap();
        let b = sigma.get("b").unwrap();
        let q = queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1));
        let t = random_tree(&mut sigma, 9, TreeShape::Random, 5);
        assert_eq!(
            answers_via_translation(&q, &t, sigma.len()),
            answers_direct(&q, &t)
        );
    }

    #[test]
    fn faithfulness_boolean_query_empty_assignment() {
        let mut sigma = Alphabet::from_names(["a", "b"]);
        let b = sigma.get("b").unwrap();
        let q = queries::exists_label(sigma.len(), b);
        let t = random_tree(&mut sigma, 8, TreeShape::Random, 2);
        assert_eq!(
            answers_via_translation(&q, &t, sigma.len()),
            answers_direct(&q, &t)
        );
    }

    #[test]
    fn translated_automaton_is_homogenized_and_polynomial() {
        let sigma = Alphabet::from_names(["a", "b"]);
        let b = sigma.get("b").unwrap();
        let q = queries::select_label(sigma.len(), b, Var(0));
        let translated = translate_stepwise(&q, sigma.len());
        assert!(translated.tva.is_homogenized());
        let n = translated.stepwise_states;
        // After trimming, the state count must stay within the Q² + Q⁴ bound
        // (times 2 for homogenization).
        assert!(translated.tva.num_states() <= 2 * (n * n + n * n * n * n));
        // And in practice it should be drastically smaller.
        assert!(translated.tva.num_states() < n * n + n * n * n * n);
    }

    #[test]
    fn single_node_tree_is_handled() {
        let sigma = Alphabet::from_names(["a", "b"]);
        let a_lbl = sigma.get("a").unwrap();
        let q = queries::select_label(sigma.len(), a_lbl, Var(0));
        let t = UnrankedTree::new(a_lbl);
        let via = answers_via_translation(&q, &t, sigma.len());
        let direct = answers_direct(&q, &t);
        assert_eq!(via, direct);
        assert_eq!(via.len(), 1);
    }

    #[test]
    fn acceptance_on_hand_built_term_matches() {
        // Sanity-check the run semantics on a tiny hand-built term for a(b).
        let sigma = Alphabet::from_names(["a", "b"]);
        let a_lbl = sigma.get("a").unwrap();
        let b_lbl = sigma.get("b").unwrap();
        let q = queries::select_label(sigma.len(), b_lbl, Var(0));
        let translated = translate_stepwise(&q, sigma.len());
        let alphabet = translated.alphabet;
        // Term: a_□ ⊙VH b_t
        let mut bt = BinaryTree::leaf(alphabet.context_leaf_label(a_lbl));
        let ctx = bt.root();
        let leaf = bt.add_leaf(alphabet.tree_leaf_label(b_lbl));
        let root = bt.add_internal(alphabet.op_label(TermOp::OdotVH), ctx, leaf);
        bt.set_root(root);
        // Selecting the b leaf must be accepted; empty valuation must be rejected.
        let mut v: BinaryValuation = HashMap::new();
        v.insert(leaf, treenum_trees::VarSet::singleton(Var(0)));
        assert!(translated.tva.accepts(&bt, &v));
        assert!(!translated.tva.accepts(&bt, &HashMap::new()));
    }
}
