import itertools
import math

import numpy as np
import pytest

from qformula import (
    CountingParams,
    GateNet,
    appendix_bound,
    enumerate_functions,
    equiv_class_bound,
    grid_sign_patterns,
    warren_bound,
    warren_bound_log2,
)
from qformula import counting, simulator
from qformula.circuit import Circuit, Gate, constant, variable
from qformula.counting import evaluate_poly, poly_degree, random_polynomial
from qformula.gates import CNOT, H, I2, X, random_unitary
from qformula.simulator import decide, final_states

E = math.e


def test_warren_smallest_case():
    assert warren_bound(1, 1, 1) == pytest.approx(4 * E, rel=1e-12)


def test_warren_direct_substitution():
    assert warren_bound(3, 2, 2) == pytest.approx((12 * E) ** 2, rel=1e-12)


def test_warren_log_form_matches_value():
    for m, t, deg in [(1, 1, 1), (3, 2, 2), (7, 5, 3)]:
        assert warren_bound_log2(m, t, deg) == pytest.approx(
            math.log2(warren_bound(m, t, deg)), rel=1e-12
        )


def test_warren_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        warren_bound(0, 1, 1)
    with pytest.raises(ValueError):
        warren_bound_log2(1, -2, 1)


def test_single_linear_polynomial_has_two_grid_patterns():
    poly = ((1.0, (1,)),)  # P(x) = x
    patterns = grid_sign_patterns([poly], 1)
    assert patterns == {(-1,), (1,)}
    assert len(patterns) <= warren_bound(1, 1, 1)


def test_grid_pattern_counts_never_exceed_warren():
    rng = np.random.default_rng(31)
    for _ in range(60):
        t = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        deg = int(rng.integers(1, 3))
        polys = [random_polynomial(rng, t, deg) for _ in range(m)]
        worst_deg = max(max(poly_degree(p) for p in polys), 1)
        assert len(grid_sign_patterns(polys, t)) <= warren_bound(m, t, worst_deg)


def test_poly_evaluation():
    poly = ((2.0, (1, 0)), (-1.0, (0, 2)), (0.5, (0, 0)))  # 2x - y^2 + 0.5
    points = np.array([[1.0, 2.0], [0.0, 0.0]])
    assert np.allclose(evaluate_poly(poly, points), [-1.5, 0.5])


def test_equiv_class_bound_values():
    assert equiv_class_bound(CountingParams(n=1, N=1, d=2, n_prime=2)).binomial_form == 1
    b = equiv_class_bound(CountingParams(n=2, N=3, d=2))
    assert b.binomial_form == pytest.approx(15 ** 3) == 3375
    assert b.power_form == pytest.approx(6 ** 6) == 46656
    assert b.power_form >= b.binomial_form


def test_bounds_past_the_float_range_are_none_beside_their_log2():
    assert warren_bound(300, 300, 2) is None
    assert warren_bound_log2(300, 300, 2) == pytest.approx(300 * math.log2(8 * E), rel=1e-12)
    classes = equiv_class_bound(CountingParams(n=16, N=128, d=2))
    assert (classes.binomial_form, classes.power_form) == (None, None)
    assert classes.log2_binomial_form == pytest.approx(128 * math.log2(math.comb(256, 2)))
    assert classes.log2_power_form == 2048
    bound = appendix_bound(CountingParams(n=4, N=16, d=2))
    assert (bound.sign_factor, bound.total) == (None, None)
    assert bound.log2_total == pytest.approx(bound.log2_sign_factor + bound.log2_class_count)


def test_a_log2_past_the_float_range_is_a_value_error_naming_the_sizes():
    # t = 2 mu = 2^1201 is past the float range, and so is t log2(...)
    with pytest.raises(ValueError, match=r"float range at log2 \(m, t, deg\) = \(2, 1201, 0\)"):
        appendix_bound(CountingParams(n=1, N=1, d=600))
    with pytest.raises(ValueError, match="past the float range"):
        warren_bound_log2(3, 10 ** 400, 2)
    assert appendix_bound(CountingParams(n=1, N=1, d=300)).log2_sign_factor > -math.inf


@pytest.mark.parametrize("n_prime, d", [(2100, 1023), (2100, 1024), (5000, 1500), (3000, 2000)])
def test_binomial_form_in_log2_past_1024_choices(n_prime, d):
    # past min(d, n' - d) = 1024 the binomial is summed in log2, never built
    classes = equiv_class_bound(CountingParams(n=1, N=3, d=d, n_prime=n_prime))
    assert classes.binomial_form is None
    assert classes.log2_binomial_form == pytest.approx(
        3 * math.log2(math.comb(n_prime, d)), rel=1e-14)


def test_binomial_form_at_a_million_choices_is_quick():
    # C(10^12, 10^6) has 6.4 million digits; its log2 from lgamma instead
    n, k = 10 ** 12, 10 ** 6
    log2_choose = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)
    classes = equiv_class_bound(CountingParams(n=1, N=10 ** 6, d=10 ** 6))
    assert classes.log2_binomial_form == pytest.approx(10 ** 6 * log2_choose, rel=1e-8)


@pytest.mark.parametrize("N, d", [(1, 10 ** 400), (2, 10 ** 400), (2, 10 ** 306)])
def test_wiring_classes_past_the_float_range_are_a_value_error(N, d):
    # (dN)^(dN) at dN = 10^400, and lgamma of n' = 2*10^306, overflow a float
    with pytest.raises(ValueError, match=r"float range at log2 \(n', d, N\)"):
        equiv_class_bound(CountingParams(n=1, N=N, d=d))


def test_counting_params_invariants():
    with pytest.raises(ValueError, match="n <= N"):
        CountingParams(n=3, N=2, d=2)
    assert CountingParams(n=1, N=2, d=2).mu == 32


def test_appendix_bound_smallest_case():
    bound = appendix_bound(CountingParams(n=1, N=1, d=1))
    assert bound.mu == 4
    assert bound.sign_factor == pytest.approx((2 * E) ** 8, rel=1e-9)
    # class count is trivial at this size: one wiring class
    assert bound.log2_class_count == 0.0


def test_appendix_log_space_matches_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    for n, N, d in [(1, 1, 1), (2, 2, 2), (3, 5, 2)]:
        params = CountingParams(n=n, N=N, d=d)
        bound = appendix_bound(params)
        mu = params.mu
        exact = (4 * mpmath.e * N ** 2 * mpmath.mpf(2) ** (n + 1) / (2 * mu)) ** (2 * mu)
        oracle = float(mpmath.log(exact, 2))
        assert bound.log2_sign_factor == pytest.approx(oracle, rel=1e-9)


def test_appendix_bound_monotone_in_n():
    values = [
        appendix_bound(CountingParams(n=n, N=4, d=2)).log2_sign_factor
        for n in (1, 2, 3, 4)
    ]
    assert values == sorted(values)


def test_enumerate_single_qubit_single_gate():
    result = enumerate_functions(1, 1, GateNet.default(), num_qubits=1)
    assert result.count == 2
    assert result.tables == ("01", "10")  # x1 and its negation
    assert result.undetermined_circuits == 1  # the Hadamard circuit


def test_enumerate_gateless_single_qubit():
    result = enumerate_functions(1, 0, GateNet.default(), num_qubits=1)
    # the lone line must carry x1, so only the identity function appears
    assert result.tables == ("01",)


def test_enumerate_with_ancilla_reaches_constants():
    result = enumerate_functions(1, 0, GateNet.default(), num_qubits=2)
    assert set(result.tables) == {"01", "00", "11"}


def test_enumerate_two_qubits_with_cnot():
    net = GateNet.of([("I", I2), ("X", X), ("CNOT", CNOT)])
    result = enumerate_functions(2, 1, net, num_qubits=2)
    # one two-qubit gate cannot make anything undetermined from basis inputs
    assert result.undetermined_circuits == 0
    assert "0110" in result.tables  # CNOT writes x1 xor x2
    assert all(t in {"0011", "0101", "1100", "1010", "0110", "1001"} for t in result.tables)


def test_enumerate_counts_stay_under_appendix_bound():
    result = enumerate_functions(1, 1, GateNet.default(), num_qubits=1)
    bound = appendix_bound(CountingParams(n=1, N=1, d=1))
    assert math.log2(result.count) <= bound.log2_total
    assert result.count <= 2 ** (2 ** 1)


def test_enumerate_caps():
    with pytest.raises(ValueError):
        enumerate_functions(4, 1, GateNet.default(), num_qubits=4)
    with pytest.raises(ValueError):
        enumerate_functions(1, 9, GateNet.default(), num_qubits=1)
    with pytest.raises(ValueError):
        enumerate_functions(2, 1, GateNet.default(), num_qubits=1)


def test_gate_net_rejects_non_unitaries():
    with pytest.raises(ValueError, match="unitary"):
        GateNet.of([("bad", np.array([[1, 0], [0, 2]]))])


def test_h_gate_on_undetermined_band_example():
    net = GateNet.of([("H", H)])
    result = enumerate_functions(1, 1, net, num_qubits=1)
    assert result.count == 0 and result.undetermined_circuits == 1


def _per_circuit_oracle(n, num_gates, net, num_qubits, arity_bound=2):
    """Every circuit simulated on its own, by ``final_states``, and decided by
    ``decide``: the tables, the counts, and p[labeling, sequence, output
    line, assignment] with labelings and gate sequences in
    ``itertools.product`` order."""
    labels_options = [variable(j) for j in range(1, n + 1)] + [constant(0), constant(1)]
    labelings = [
        labels for labels in itertools.product(labels_options, repeat=num_qubits)
        if {lb.var for lb in labels if lb.var is not None} == set(range(1, n + 1))
    ]
    placements = [
        (m, t) for _, m in net.entries
        for t in itertools.permutations(range(num_qubits), int(math.log2(m.shape[0])))
        if int(math.log2(m.shape[0])) <= min(arity_bound, num_qubits)
    ]
    sequences = list(itertools.product(placements, repeat=num_gates))
    p = np.empty((len(labelings), len(sequences), num_qubits, 2 ** n))
    found, scanned, undetermined = set(), 0, 0
    for l, labels in enumerate(labelings):
        for s, chosen in enumerate(sequences):
            gates = tuple(Gate(step=i + 1, targets=t, matrix=m) for i, (m, t) in enumerate(chosen))
            base = Circuit(num_qubits=num_qubits, labels=labels, gates=gates, output_qubit=0,
                           arity_bound=arity_bound)
            weights = np.abs(final_states(base, 0, 2 ** n)) ** 2
            for q in range(num_qubits):
                scanned += 1
                others = tuple(a for a in range(num_qubits) if a != q)
                p[l, s, q] = weights.sum(axis=others)[1]
                decided = decide(p[l, s, q])
                if np.any(decided < 0):
                    undetermined += 1
                    continue
                found.add("".join(map(str, decided)))
    return tuple(sorted(found)), scanned, undetermined, p


def _scanned_probabilities(shape, n, num_gates, net, num_qubits, arity_bound=2):
    """The scan's p, laid out as the oracle's; every entry is set exactly once."""
    p = np.full(shape, np.nan)
    for first, lo, chunk in counting._scan(n, num_gates, net, num_qubits, arity_bound):
        part = p[lo:lo + chunk.shape[2], first:first + chunk.shape[0]]
        assert np.isnan(part).all()
        part[...] = chunk.transpose(2, 0, 1, 3)
    assert not np.isnan(p).any()
    return p


def _assert_scan_equals_oracle(n, num_gates, net, num_qubits, arity_bound=2):
    tables, scanned, undetermined, p = _per_circuit_oracle(n, num_gates, net, num_qubits, arity_bound)
    result = enumerate_functions(n, num_gates, net, num_qubits=num_qubits, arity_bound=arity_bound)
    assert (result.tables, result.circuits_scanned, result.undetermined_circuits) == (
        tables, scanned, undetermined)
    got = _scanned_probabilities(p.shape, n, num_gates, net, num_qubits, arity_bound)
    assert np.all(np.abs(got - p) <= 1e-12)
    return result


@pytest.mark.parametrize("n, num_gates, num_qubits", [(1, 1, 1), (2, 2, 3), (2, 3, 2), (1, 0, 2)])
def test_batched_enumeration_equals_line_by_line_decisions(n, num_gates, num_qubits):
    net = GateNet.of([("I", I2), ("X", X), ("H", H), ("CNOT", CNOT)])
    _assert_scan_equals_oracle(n, num_gates, net, num_qubits)


@pytest.mark.parametrize("n, num_gates, num_qubits", [
    (n, num_gates, num_qubits)
    for n in (1, 2, 3) for num_gates in (0, 1, 2, 3) for num_qubits in range(n, 4)
])
def test_scan_equals_the_per_circuit_oracle_on_the_default_net(n, num_gates, num_qubits):
    _assert_scan_equals_oracle(n, num_gates, GateNet.default(), num_qubits)


@pytest.mark.parametrize("n, num_gates, num_qubits", [(1, 2, 2), (2, 2, 2), (2, 2, 3), (3, 2, 3)])
def test_scan_equals_the_per_circuit_oracle_with_cnot(n, num_gates, num_qubits):
    net = GateNet.of([("I", I2), ("X", X), ("CNOT", CNOT)])
    _assert_scan_equals_oracle(n, num_gates, net, num_qubits)


@pytest.mark.parametrize("n, num_gates, num_qubits", [(1, 2, 2), (2, 2, 3), (1, 3, 2)])
def test_scan_equals_the_per_circuit_oracle_on_random_unitaries(n, num_gates, num_qubits):
    rng = np.random.default_rng(14)
    net = GateNet.of([("u", random_unitary(2, rng)), ("v", random_unitary(2, rng)),
                      ("w", random_unitary(4, rng))])
    _, _, _, p = _per_circuit_oracle(n, num_gates, net, num_qubits)
    # p spreads over (0, 1), so some circuits compute functions and some do not
    assert p.min() < 0.05 and p.max() > 0.95 and np.mean((p > 1 / 3) & (p < 2 / 3)) > 0.1
    result = _assert_scan_equals_oracle(n, num_gates, net, num_qubits)
    assert 0 < result.undetermined_circuits < result.circuits_scanned


def test_scan_pins_two_variables_two_gates_three_lines():
    result = enumerate_functions(2, 2, GateNet.default(), num_qubits=3)
    assert (result.count, result.circuits_scanned, result.undetermined_circuits) == (6, 4374, 864)


def test_near_threshold_p_is_redecided_by_the_state_vector(monkeypatch):
    # a y-rotation taking |0> to p = 1/3 up to rounding; the scan's operators
    # are scaled so that its p lands on the other side of 1/3 from the
    # state vector's, yet every verdict must still be the state vector's
    c, s = math.sqrt(2 / 3), math.sqrt(1 / 3)
    net = GateNet.of([("R", np.array([[c, -s], [s, c]])), ("X", X), ("CNOT", CNOT)])
    scale = math.sqrt(1 + 1e-13) if s * s < 1 / 3 else math.sqrt(1 - 1e-13)
    calls, original_states, original_stacks = [], counting.final_states, counting._sequence_operators

    def counted(circuit, lo, hi):
        calls.append(circuit)
        return original_states(circuit, lo, hi)

    def scaled(*args):
        for first, ops in original_stacks(*args):
            yield first, ops * scale

    monkeypatch.setattr(counting, "final_states", counted)
    monkeypatch.setattr(counting, "_sequence_operators", scaled)
    assert decide(s * s * scale ** 2) != decide(s * s)
    _assert_scan_equals_oracle(1, 2, net, 2)
    assert calls  # the scan re-decided some circuits
    calls.clear()
    monkeypatch.setattr(counting, "_sequence_operators", original_stacks)
    enumerate_functions(2, 2, GateNet.default(), num_qubits=3)
    assert not calls  # p of 0, 1/2 or 1 is never near a threshold


@pytest.mark.parametrize("operators", [1, 3, 20], ids=["one", "three", "two-prefixes"])
def test_chunked_scan_equals_the_unchunked_one_within_the_budget(monkeypatch, operators):
    net = GateNet.of([("I", I2), ("X", X), ("H", H), ("CNOT", CNOT)])
    expected = enumerate_functions(2, 3, net, num_qubits=3)
    shape = (18, 15 ** 3, 3, 4)  # labelings, sequences, output lines, assignments
    unchunked = _scanned_probabilities(shape, 2, 3, net, 3)
    budget = operators * 64  # operators of 8 x 8
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", budget)
    sizes = []
    original_matmul, original_stacks = counting.capped_matmul, counting._sequence_operators

    def recorded_matmul(matrix, flat, out=None):
        sizes.extend((flat.size, out.base.size))  # out is one column of the stack built
        return original_matmul(matrix, flat, out=out)

    def recorded_stacks(*args):
        for first, ops in original_stacks(*args):
            sizes.append(ops.size)
            yield first, ops

    monkeypatch.setattr(counting, "capped_matmul", recorded_matmul)
    monkeypatch.setattr(counting, "_sequence_operators", recorded_stacks)
    assert enumerate_functions(2, 3, net, num_qubits=3) == expected
    assert sizes and max(sizes) <= budget
    chunks = list(counting._scan(2, 3, net, 3, 2))
    assert len(chunks) > 1 and max(p.size for _, _, p in chunks) <= budget
    assert np.max(np.abs(_scanned_probabilities(shape, 2, 3, net, 3) - unchunked)) <= 1e-12


def test_scan_below_one_operator_holds_one_at_a_time(monkeypatch):
    expected = enumerate_functions(2, 2, GateNet.default(), num_qubits=3)
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", 16)  # less than one 8 x 8 operator
    assert enumerate_functions(2, 2, GateNet.default(), num_qubits=3) == expected
    assert {len(ops) for _, ops in counting._sequence_operators(
        [np.eye(8)] * 9, 2, 8, 1)} == {1}


def test_warren_log2_from_log2_m_is_bit_identical():
    for n in (1, 15, 16, 1022, 1023, 5000, 10 ** 6):
        for t, deg in ((2, 1), (2048, 128 ** 2), (4 * 10 ** 8, 10 ** 16)):
            assert counting._warren_log2(n + 1, t, deg) == warren_bound_log2(2 ** (n + 1), t, deg)
