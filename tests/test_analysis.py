from dataclasses import replace

import numpy as np
import pytest

from qformula import (
    NotAFormulaError,
    StructuralError,
    build_circuit,
    companion_set_of_path,
    computation_graph,
    constant,
    evaluate,
    has_unique_paths,
    intersection_gates,
    is_formula,
    path_segments,
    path_sets,
    restrict,
    squeeze_all,
    variable,
)
from qformula.circuit import InvalidCircuitError
from qformula.gates import CNOT, H, X, random_unitary
from qformula.samples import formula_corpus, formula_example, nonformula_example, two_path_example


def test_tree_reference_graph_has_three_gates():
    graph = computation_graph(formula_example())
    assert graph.gate_steps == (1, 2, 3)
    assert graph.root_step == 3
    assert graph.is_tree


def test_reconverging_reference_graph_is_not_a_tree():
    graph = computation_graph(nonformula_example())
    assert graph.gate_steps == (1, 2, 3, 4)
    assert not graph.is_tree


def test_reference_pair_classification():
    assert is_formula(formula_example())
    assert not is_formula(nonformula_example())
    assert has_unique_paths(formula_example())
    assert not has_unique_paths(nonformula_example())


def test_empty_circuit_is_a_bare_wire_formula():
    c = build_circuit(1, [constant(0)], [], output_qubit=0)
    graph = computation_graph(c)
    assert graph.gate_steps == () and graph.root_step is None
    assert is_formula(c)


def test_single_gate_circuit_is_a_formula():
    c = build_circuit(2, [variable(1), constant(0)], [((0, 1), CNOT)], output_qubit=1)
    assert is_formula(c)


def test_paths_of_reference_block():
    ps = path_sets(formula_example(), {1})
    assert ps.s_j == 2
    routes = sorted((p.wire, p.gate_steps) for p in ps.paths)
    assert routes == [(0, (2, 3)), (3, (1, 3))]


def test_two_wires_of_one_variable_give_two_paths():
    ps = path_sets(formula_example(), {1})
    assert len(ps.paths) == 2


def test_block_without_wires_gives_empty_path_set():
    ps = path_sets(formula_example(), {2}.difference({2}))
    assert ps.paths == () and ps.s_j == 0


def test_path_sets_reject_non_formulas():
    with pytest.raises(NotAFormulaError):
        path_sets(nonformula_example(), {1})


def test_intersection_at_final_gate_only():
    ps = path_sets(formula_example(), {1})
    merges = intersection_gates(ps)
    assert [g.step for g in merges] == [3]


def test_more_merges_than_block_wires_is_a_structural_error():
    ps = path_sets(formula_example(), {1})
    with pytest.raises(StructuralError, match="merge gates"):
        intersection_gates(replace(ps, wires=()))


def test_single_path_has_no_intersections():
    c = build_circuit(
        2, [variable(1), constant(0)], [((0, 1), CNOT), ((0, 1), CNOT)], output_qubit=0
    )
    ps = path_sets(c, {1})
    assert intersection_gates(ps) == ()


def _single_path_circuit(partners):
    """x1 carrier on line 0 with the given interior partner specs."""
    rng = np.random.default_rng(42)
    labels = [variable(1), constant(0)]
    specs = [((0, 1), random_unitary(4, rng))]
    for kind in partners:
        if kind == "fresh":
            labels.append(constant(0))
            specs.append(((0, len(labels) - 1), random_unitary(4, rng)))
        elif kind == "prepped":
            labels.extend([constant(0), constant(1)])
            specs.append(((len(labels) - 2, len(labels) - 1), random_unitary(4, rng)))
            specs.append(((0, len(labels) - 2), random_unitary(4, rng)))
        else:  # retouch
            specs.append(((0, 1), random_unitary(4, rng)))
    return build_circuit(len(labels), labels, specs, output_qubit=0)


def test_companion_set_fresh_constants():
    c = _single_path_circuit(["fresh", "fresh"])
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    cs = companion_set_of_path(c, ps, segment)
    assert cs.qubits == frozenset({2, 3})
    assert (cs.q0, cs.q1) == (0, 1)


def test_companion_set_pulls_in_prep_partner():
    c = _single_path_circuit(["prepped"])
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    cs = companion_set_of_path(c, ps, segment)
    # the line entangled with the consumed partner by the earlier gate counts too
    assert cs.qubits == frozenset({2, 3})


def test_companion_set_empty_for_retouch_only_path():
    c = _single_path_circuit(["retouch"])
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    assert segment.element_count == 4
    cs = companion_set_of_path(c, ps, segment)
    assert cs.qubits == frozenset()


def test_short_segments_are_rejected():
    # two block wires meet at the only gate: every segment has two elements
    c = build_circuit(2, [variable(1), variable(1)], [((0, 1), CNOT)], output_qubit=0)
    ps = path_sets(c, {1})
    segments = path_segments(c, ps)
    assert segments and all(not s.squeezable for s in segments)
    with pytest.raises(StructuralError, match="elements"):
        companion_set_of_path(c, ps, segments[0])


def test_variable_companion_is_a_structural_error():
    # the partner feeding the interior gate carries a live variable
    rng = np.random.default_rng(2)
    c = build_circuit(
        3,
        [variable(1), constant(0), variable(2)],
        [((0, 1), random_unitary(4, rng)), ((0, 2), random_unitary(4, rng))],
        output_qubit=0,
    )
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    with pytest.raises(StructuralError, match="constant"):
        companion_set_of_path(c, ps, segment)


def test_companion_set_rejects_a_prepared_second_input():
    # line 1 enters the leaf segment's first gate after a gate on (1, 2)
    rng = np.random.default_rng(3)
    c = build_circuit(
        4,
        [variable(1), constant(0), constant(0), constant(0)],
        [((1, 2), random_unitary(4, rng)), ((0, 1), random_unitary(4, rng)),
         ((0, 3), random_unitary(4, rng))],
        output_qubit=0,
    )
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    assert segment.head_wire == 0 and segment.squeezable
    with pytest.raises(StructuralError, match="line 1 is prepared by the gate at step 1"):
        companion_set_of_path(c, ps, segment)


def test_companion_set_rejects_a_path_that_changes_lines():
    rng = np.random.default_rng(4)
    # the path leaves its first gate on line 1
    c = build_circuit(
        3,
        [variable(1), constant(0), constant(0)],
        [((0, 1), random_unitary(4, rng)), ((1, 2), random_unitary(4, rng))],
        output_qubit=1,
    )
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    with pytest.raises(StructuralError, match="switches lines at step 1"):
        companion_set_of_path(c, ps, segment)
    # the path rides line 0 into its second gate and leaves it on line 2
    c = build_circuit(
        4,
        [variable(1), constant(0), constant(0), constant(0)],
        [((0, 1), random_unitary(4, rng)), ((0, 2), random_unitary(4, rng)),
         ((2, 3), random_unitary(4, rng))],
        output_qubit=2,
    )
    ps = path_sets(c, {1})
    (segment,) = path_segments(c, ps)
    with pytest.raises(StructuralError, match="leaves its carrier line 0 at step 2"):
        companion_set_of_path(c, ps, segment)


def test_two_path_example_segments():
    c = two_path_example()
    ps = path_sets(c, {1, 2})
    segments = path_segments(c, ps)
    shapes = [(s.head_wire, tuple(h.step for h in s.hops), s.ends_at_output) for s in segments]
    assert shapes == [(0, (1, 2, 3, 4), False), (4, (4,), False), (None, (4, 5, 7), True)]
    sizes = [
        companion_set_of_path(c, ps, s).size for s in segments if s.squeezable
    ]
    assert sizes == [2, 3]


def test_terminator_other_input_is_a_companion_of_the_carrier():
    c = two_path_example()
    ps = path_sets(c, {1, 2})
    leaf = path_segments(c, ps)[0]
    cs = companion_set_of_path(c, ps, leaf)
    assert cs.q2 is not None
    terminator = next(g for g in c.gates if g.step == cs.j1)
    assert {cs.q0, cs.q2} <= set(terminator.targets)


def test_merge_count_never_exceeds_wire_count(corpus):
    for member in corpus[:40]:
        ps = path_sets(member.formula, member.block)
        assert len(intersection_gates(ps)) <= ps.s_j


def test_paths_are_edge_disjoint_before_first_merge(corpus):
    for member in corpus[:40]:
        ps = path_sets(member.formula, member.block)
        for i, p1 in enumerate(ps.paths):
            for p2 in ps.paths[i + 1 :]:
                shared = set(p1.gate_steps) & set(p2.gate_steps)
                if not shared:
                    continue
                first = min(shared)
                before1 = [s for s in p1.gate_steps if s < first]
                before2 = [s for s in p2.gate_steps if s < first]
                assert not (set(before1) & set(before2))


def test_formula_tests_agree_on_corpus(corpus):
    for member in corpus:
        assert is_formula(member.formula)  # raises on disagreement


def test_gapless_wire_reaching_no_gate_counts_once():
    c = build_circuit(
        2, [variable(1), constant(1)], [((0,), H)], output_qubit=1
    )
    # line 1 is the untouched output: the bare wire itself is the path
    assert has_unique_paths(c)
    assert is_formula(c)


def test_dead_block_wire_is_reported():
    c = build_circuit(
        2, [variable(1), constant(0)], [((1,), X)], output_qubit=1
    )
    ps = path_sets(c, {1})
    assert ps.dead_wires == (0,)
    assert ps.paths == ()


# ---------------------------------------------------------------------------
# the one wiring pass


def test_computation_graph_is_derived_once_and_kept():
    c = formula_example()
    assert computation_graph(c) is computation_graph(c)


@pytest.fixture
def derivations(monkeypatch):
    import qformula.analysis

    calls = []
    real = qformula.analysis._line_maps

    def counting(circuit):
        calls.append(circuit)
        return real(circuit)

    monkeypatch.setattr(qformula.analysis, "_line_maps", counting)
    return calls


def test_formula_analyses_and_squeezing_share_one_derivation(derivations):
    c = two_path_example()
    assert is_formula(c)
    ps = path_sets(c, {1, 2})
    path_segments(c, ps)
    squeeze_all(c, {1, 2})
    assert derivations == [c]


@pytest.mark.usefixtures("fast_paths")
@pytest.mark.parametrize("make", [formula_example, nonformula_example])
def test_evaluate_derives_the_wiring_once(derivations, make):
    c = make()
    evaluate(c, [0, 0, 0, 0])
    assert derivations == [c]


def test_a_corpus_squeeze_pass_derives_the_wiring_once_per_formula(derivations):
    members = formula_corpus(110)  # fresh circuits: none has a kept graph yet
    for member in members:  # as ``qf squeeze`` runs one job
        f_rho = restrict(member.formula.check(), member.block, dict(member.rho))
        squeeze_all(f_rho, None)
    assert len(derivations) == 110  # restrict's relabelled circuit derives nothing


def test_relabel_carries_a_graph_equal_to_a_fresh_derivation(corpus):
    fields = ("gate_steps", "edges", "root_step", "prev_on", "next_on", "first_on",
              "up_lines", "path_counts")
    for member in corpus[:40]:
        f_rho = restrict(member.formula, member.block, dict(member.rho))
        carried, fresh = computation_graph(f_rho), computation_graph(replace(f_rho))
        assert carried is computation_graph(member.formula)
        assert all(getattr(carried, f) == getattr(fresh, f) for f in fields)


def test_relabel_does_not_carry_the_check_verdict():
    c = formula_example()
    computation_graph(c)
    bad = c.relabel([variable(2)] * c.num_qubits)  # x1 missing: not contiguous
    assert "_graph" in bad.__dict__ and "_valid" not in bad.__dict__
    with pytest.raises(InvalidCircuitError, match="not contiguous"):
        computation_graph(bad)


def test_root_up_lines_is_the_output_line():
    for c in (formula_example(), nonformula_example(), two_path_example()):
        graph = computation_graph(c)
        assert graph.up_lines[graph.root_step] == (c.output_qubit,)


def test_path_hops_chain_through_next_on_to_the_output(corpus):
    cases = [(m.formula, m.block) for m in corpus[:40]] + [(two_path_example(), {1, 2})]
    for c, block in cases:
        graph = computation_graph(c)
        for path in path_sets(c, block).paths:
            assert path.hops[0].in_line == path.wire
            assert path.hops[0].step == graph.first_on[path.wire]
            for hop, following in zip(path.hops, path.hops[1:]):
                assert graph.next_on[(hop.step, hop.out_line)] == following.step
                assert following.in_line == hop.out_line
            last = path.hops[-1]
            assert last.out_line == c.output_qubit
            assert graph.next_on[(last.step, last.out_line)] is None


def test_graph_equality_hash_and_repr_read_only_the_graph():
    graph = computation_graph(formula_example())
    other = computation_graph(formula_example())
    assert graph is not other and graph == other and hash(graph) == hash(other)
    bare = replace(graph, prev_on={}, next_on={}, first_on={}, up_lines={}, path_counts={})
    assert bare == graph and hash(bare) == hash(graph) and repr(bare) == repr(graph)
    assert repr(graph) == (
        f"ComputationGraph(gate_steps={graph.gate_steps!r}, edges={graph.edges!r}, "
        f"root_step={graph.root_step!r})"
    )
    assert replace(graph, root_step=None) != graph


def test_has_unique_paths_rejects_an_invalid_circuit():
    c = build_circuit(2, [variable(1), constant(0)], [((0, 2), CNOT)], output_qubit=1)
    with pytest.raises(InvalidCircuitError, match="out of range"):
        has_unique_paths(c)
