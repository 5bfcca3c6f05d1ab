//! Round trip of the circuit's content records: every box content the
//! query families produce decodes to what an independent builder of the
//! enum form (a `γ` entry per state, an input list per ∪-gate) produces
//! from the same automaton.
//!
//! The enum-form builder below follows the leaf and internal cases of the
//! appendix proof of Lemma 3.7 directly, with the numbering the records
//! promise: ∪-gates in state order, each gate's inputs sorted (×-gates by
//! `(left, right)`, then left wires, then right wires; var-gates by `Y`)
//! and deduplicated.  It is checked against
//!
//! * every leaf template of each query's plan ([`QueryPlan::leaf_content`]);
//! * internal contents over child `γ` pairs drawn from the boxes of
//!   circuits built on random binary trees with random term labels, so the
//!   pairs are ones the automaton can produce.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treenum::automata::{queries, BinaryTva, StepwiseTva};
use treenum::circuits::{
    build_assignment_circuit, internal_box_content, BoxContent, ContentStaging, Side, StateGate,
    UnionInput,
};
use treenum::core::QueryPlan;
use treenum::trees::{Alphabet, BinaryTree, Label, Var};

/// A box content in enum form: `γ` per state and the inputs per ∪-gate.
type EnumContent = (Vec<StateGate>, Vec<Vec<UnionInput>>);

const TOKEN: u32 = 7;

fn query_families(sigma: &Alphabet) -> Vec<(&'static str, StepwiseTva)> {
    let a = sigma.get("a").unwrap();
    let b = sigma.get("b").unwrap();
    let c = sigma.get("c").unwrap();
    vec![
        ("select_b", queries::select_label(sigma.len(), b, Var(0))),
        ("exists_c", queries::exists_label(sigma.len(), c)),
        (
            "ancestor_descendant",
            queries::ancestor_descendant(sigma.len(), a, Var(0), b, Var(1)),
        ),
        (
            "marked_ancestor",
            queries::marked_ancestor(sigma.len(), a, c, Var(0)),
        ),
        // Over 32 states: `γ` spans several words.
        (
            "kth_child_from_end",
            queries::kth_child_from_end(sigma.len(), 4, a, Var(0)),
        ),
    ]
}

/// Numbers a ∪-gate per state with inputs (in state order) unless the state
/// is `⊤`, sorting and deduplicating each gate's inputs by `key`.
fn number_gates(
    top: Vec<bool>,
    mut per_state: Vec<Vec<UnionInput>>,
    key: impl Fn(&UnionInput) -> (u8, u64, u64),
) -> EnumContent {
    let mut gamma = vec![StateGate::Bot; top.len()];
    let mut gates = Vec::new();
    for q in 0..top.len() {
        if top[q] {
            gamma[q] = StateGate::Top;
        } else if !per_state[q].is_empty() {
            let mut inputs = std::mem::take(&mut per_state[q]);
            inputs.sort_by_key(&key);
            inputs.dedup();
            gamma[q] = StateGate::Union(gates.len() as u32);
            gates.push(inputs);
        }
    }
    (gamma, gates)
}

fn enum_leaf(tva: &BinaryTva, label: Label) -> EnumContent {
    let n = tva.num_states();
    let (mut top, mut per_state) = (vec![false; n], vec![Vec::new(); n]);
    for &(y, q) in tva.initial_for(label) {
        if y.is_empty() {
            top[q.index()] = true;
        } else {
            per_state[q.index()].push(UnionInput::Var {
                vars: y,
                leaf_token: TOKEN,
            });
        }
    }
    number_gates(top, per_state, |i| match *i {
        UnionInput::Var { vars, .. } => (0, vars.0, 0),
        _ => unreachable!("a leaf has only var-gates"),
    })
}

fn enum_internal(tva: &BinaryTva, label: Label, l: &[StateGate], r: &[StateGate]) -> EnumContent {
    let n = tva.num_states();
    let (mut top, mut per_state) = (vec![false; n], vec![Vec::new(); n]);
    for &(q1, q2, q) in tva.transitions_for(label) {
        let input = match (l[q1.index()], r[q2.index()]) {
            (StateGate::Bot, _) | (_, StateGate::Bot) => continue,
            (StateGate::Top, StateGate::Top) => {
                top[q.index()] = true;
                continue;
            }
            (StateGate::Top, StateGate::Union(gate)) => UnionInput::Child {
                side: Side::Right,
                gate,
            },
            (StateGate::Union(gate), StateGate::Top) => UnionInput::Child {
                side: Side::Left,
                gate,
            },
            (StateGate::Union(left), StateGate::Union(right)) => UnionInput::Times { left, right },
        };
        per_state[q.index()].push(input);
    }
    number_gates(top, per_state, |i| match *i {
        UnionInput::Times { left, right } => (0, left.into(), right.into()),
        UnionInput::Child {
            side: Side::Left,
            gate,
        } => (1, gate.into(), 0),
        UnionInput::Child {
            side: Side::Right,
            gate,
        } => (2, gate.into(), 0),
        UnionInput::Var { .. } => unreachable!("an internal box has no var-gates"),
    })
}

fn decode(content: BoxContent<'_>) -> EnumContent {
    let gamma = content.gamma().iter().collect();
    let gates = (0..content.width())
        .map(|g| content.inputs(g, TOKEN).collect())
        .collect();
    (gamma, gates)
}

fn pick(rng: &mut StdRng, labels: &[Label]) -> Label {
    labels[rng.gen_range(0..labels.len())]
}

/// A random binary tree of `leaves` leaves, labelled at random: leaves
/// from `leaf_labels`, internal nodes from `inner_labels`.
fn random_binary_tree(
    rng: &mut StdRng,
    leaves: usize,
    leaf_labels: &[Label],
    inner_labels: &[Label],
) -> BinaryTree {
    let mut tree = BinaryTree::leaf(pick(rng, leaf_labels));
    let mut pool = vec![tree.root()];
    for _ in 1..leaves {
        pool.push(tree.add_leaf(pick(rng, leaf_labels)));
    }
    while pool.len() > 1 {
        let i = rng.gen_range(0..pool.len() - 1);
        let (l, r) = (pool[i], pool[i + 1]);
        pool[i] = tree.add_internal(pick(rng, inner_labels), l, r);
        pool.remove(i + 1);
    }
    tree.set_root(pool[0]);
    tree
}

#[test]
fn every_family_content_round_trips_through_its_record() {
    let sigma = Alphabet::from_names(["a", "b", "c"]);
    let mut rng = StdRng::seed_from_u64(26);
    let mut staging = ContentStaging::default();
    for (name, query) in query_families(&sigma) {
        let plan = QueryPlan::for_query(&query, sigma.len());
        let tva = plan.tva();
        let labels = plan.alphabet().len() as u32;
        for l in 0..labels {
            let label = Label(l);
            assert_eq!(
                decode(plan.leaf_content(label)),
                enum_leaf(tva, label),
                "{name}: leaf template of {label:?}"
            );
        }
        // Child γ pairs the automaton produces: boxes of circuits over
        // random binary trees, labelled with the labels the automaton
        // reads at leaves and at internal nodes.
        let all: Vec<Label> = (0..labels).map(Label).collect();
        let leaf_labels: Vec<Label> = all
            .iter()
            .copied()
            .filter(|&l| !tva.initial_for(l).is_empty())
            .collect();
        let inner_labels: Vec<Label> = all
            .iter()
            .copied()
            .filter(|&l| !tva.transitions_for(l).is_empty())
            .collect();
        let circuits: Vec<_> = (0..4)
            .map(|_| {
                let tree = random_binary_tree(&mut rng, 40, &leaf_labels, &inner_labels);
                let circuit = build_assignment_circuit(tva, &tree);
                circuit.validate(&tree);
                circuit
            })
            .collect();
        let boxes: Vec<_> = circuits
            .iter()
            .flat_map(|c| c.boxes().map(move |b| c.gamma(b)))
            .collect();
        let (mut gates, mut inputs) = (0, 0);
        for _ in 0..2000 {
            let (gl, gr) = (
                boxes[rng.gen_range(0..boxes.len())],
                boxes[rng.gen_range(0..boxes.len())],
            );
            let label = pick(&mut rng, &inner_labels);
            let (el, er): (Vec<_>, Vec<_>) = (gl.iter().collect(), gr.iter().collect());
            let expected = enum_internal(tva, label, &el, &er);
            let content = internal_box_content(tva, label, gl, gr, &mut staging);
            assert_eq!(
                decode(content),
                expected,
                "{name}: internal content of {label:?}"
            );
            gates += expected.1.len();
            inputs += expected.1.iter().map(Vec::len).sum::<usize>();
        }
        eprintln!(
            "{name}: {} states, {gates} gates and {inputs} inputs checked",
            tva.num_states()
        );
        assert!(
            gates > 0 || name == "exists_c",
            "{name}: the pairs exercise ∪-gates"
        );
    }
}
