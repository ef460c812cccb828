import math

import numpy as np
import pytest

from qformula import (
    Partition,
    TruthTable,
    build_circuit,
    constant,
    ed_function,
    ed_partition,
    ed_sigma_check,
    nechiporuk_bound,
    probability_vector,
    restrict,
    subfunctions,
    variable,
)
from qformula.gates import CNOT
from qformula.nechiporuk import SigmaCheckError, bound_term, ed_parameters


def test_xor3_singleton_block_has_two_subfunctions():
    xor3 = TruthTable.from_function(3, lambda b: b[0] ^ b[1] ^ b[2])
    table = subfunctions(xor3, Partition.singletons(3), 0)
    assert table.sigma == 2  # x1 and its negation


def test_constant_function_has_one_subfunction():
    const0 = TruthTable(3, np.zeros(8, dtype=np.uint8))
    for j in range(3):
        assert subfunctions(const0, Partition.singletons(3), j).sigma == 1


def test_ed2_block_subfunctions_are_the_four_inequalities():
    f = ed_function(2)
    assert subfunctions(f, ed_partition(2), 0).sigma == 4


def test_sigma_never_exceeds_the_two_counting_caps():
    f = ed_function(2)
    partition = ed_partition(2)
    for j in range(2):
        n_j = len(partition.blocks[j])
        sigma = subfunctions(f, partition, j).sigma
        assert sigma <= min(2 ** (2 ** n_j), 2 ** (f.n - n_j))


def test_bound_term_clamps_small_sigmas():
    assert bound_term(1) == 0.0
    assert bound_term(2) == 1.0  # log2 2 / max(1, 0)
    assert bound_term(4) == 2.0  # log2 4 / max(1, 1)


def test_ed2_bound_is_four():
    report = nechiporuk_bound(ed_function(2), ed_partition(2))
    assert report.sigmas == (4, 4)
    assert report.total == pytest.approx(4.0)


def test_constant_function_bound_is_zero():
    const0 = TruthTable(2, np.zeros(4, dtype=np.uint8))
    assert nechiporuk_bound(const0, Partition.singletons(2)).total == 0.0


def test_xor_n_singleton_bound_equals_n():
    for n in (2, 3, 4):
        xor = TruthTable.from_function(n, lambda b: sum(b) % 2)
        report = nechiporuk_bound(xor, Partition.singletons(n))
        assert report.sigmas == tuple([2] * n)
        assert report.total == pytest.approx(float(n))


def test_ed_shapes():
    assert ed_parameters(2) == (2, 4)
    assert ed_parameters(3) == (4, 12)
    assert ed_partition(2).blocks == (frozenset({1, 2}), frozenset({3, 4}))


def test_ed2_values():
    f = ed_function(2)
    assert f.n == 4
    assert f.value((0, 0, 0, 0)) == 0  # z1 = z2 = 0
    assert f.value((0, 1, 1, 0)) == 1  # z1 = 1, z2 = 2
    assert f.value((1, 1, 1, 1)) == 0


def test_ed3_values():
    f = ed_function(3)
    assert f.n == 12

    def bits(z1, z2, z3):
        return tuple(int(b) for z in (z1, z2, z3) for b in format(z, "04b"))

    assert f.value(bits(1, 2, 3)) == 1
    assert f.value(bits(1, 1, 3)) == 0


def test_ed_rejects_tiny_ell():
    with pytest.raises(ValueError):
        ed_function(1)


def test_ed2_sigma_check_equality_case():
    report = ed_sigma_check(2)
    assert report.sigmas == (4, 4)
    assert report.binomial == math.comb(4, 1) == 4
    assert report.symmetric and report.bound_holds


def test_ed3_sigma_check():
    report = ed_sigma_check(3)
    assert report.binomial == math.comb(9, 2) == 36
    assert report.symmetric
    assert all(s >= 36 for s in report.sigmas)


def test_sigma_check_failures_are_typed_errors(monkeypatch):
    import types

    import qformula.nechiporuk

    sigmas = iter([4, 5])
    monkeypatch.setattr(
        qformula.nechiporuk, "subfunctions",
        lambda f, partition, j: types.SimpleNamespace(sigma=next(sigmas)),
    )
    with pytest.raises(SigmaCheckError, match="blocks disagree"):
        ed_sigma_check(2)
    monkeypatch.setattr(
        qformula.nechiporuk, "subfunctions",
        lambda f, partition, j: types.SimpleNamespace(sigma=1),
    )
    with pytest.raises(SigmaCheckError, match="< C"):
        ed_sigma_check(2)


def test_bound_invariant_under_block_and_variable_permutations():
    f = ed_function(2)
    base = nechiporuk_bound(f, ed_partition(2)).total
    swapped_blocks = Partition.of(4, [[3, 4], [1, 2]])
    assert nechiporuk_bound(f, swapped_blocks).total == pytest.approx(base)
    permuted_within = Partition.of(4, [[2, 1], [4, 3]])
    assert nechiporuk_bound(f, permuted_within).total == pytest.approx(base)


def test_restricted_circuit_tables_appear_in_subfunction_set():
    # the circuit computes x1 xor x2 exactly; restriction on block {1}
    circuit = build_circuit(
        2, [variable(1), variable(2)], [((0, 1), CNOT)], output_qubit=1
    )
    xor2 = TruthTable(2, probability_vector(circuit).round().astype(np.uint8))
    sub = subfunctions(xor2, Partition.of(2, [[1], [2]]), 0)
    for bit in (0, 1):
        fixed = restrict(circuit, {1}, {2: bit})
        induced = probability_vector(fixed).round().astype(np.uint8).tobytes()
        assert induced in sub.tables


def test_partition_validation():
    with pytest.raises(ValueError, match="overlap"):
        Partition.of(2, [[1], [1, 2]])
    with pytest.raises(ValueError, match="cover"):
        Partition.of(3, [[1], [2]])


def test_enumeration_cap_is_enforced():
    big = TruthTable(25, np.zeros(2 ** 25, dtype=np.uint8))
    with pytest.raises(ValueError, match="cap"):
        subfunctions(big, Partition.of(25, [range(1, 26)]), 0)
    with pytest.raises(ValueError, match="cap"):
        ed_function(5)  # needs 30 variables


def test_table_and_partition_must_agree_on_n():
    with pytest.raises(ValueError, match="partition covers"):
        subfunctions(
            TruthTable(2, np.zeros(4, dtype=np.uint8)),
            Partition.of(3, [[1], [2], [3]]),
            0,
        )
