"""Every record class against a ``@dataclass(frozen=True)`` twin.

The records share one base, ``circuit.Record``, whose methods are
ordinary code; ``dataclasses`` only registers their fields.  Each record
class is compared, on sample instances, with a twin that
``dataclasses.make_dataclass(..., frozen=True)`` builds from the same
fields: the field list, repr, equality, hash, construction errors and
frozen attributes agree, and ``replace`` re-runs the record's checks.
"""
import copy
import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import qformula
from qformula import simulator
from qformula.analysis import (
    Hop,
    companion_set_of_path,
    computation_graph,
    path_segments,
    path_sets,
)
from qformula.circuit import Circuit, Gate, InputLabel, Record, ValidationReport, constant, variable
from qformula.counting import (
    CountingParams,
    EnumerationResult,
    GateNet,
    appendix_bound,
    equiv_class_bound,
)
from qformula.gates import CNOT, H, X
from qformula.nechiporuk import (
    Partition,
    TruthTable,
    ed_function,
    ed_partition,
    ed_sigma_check,
    nechiporuk_bound,
    subfunctions,
)
from qformula.rewrite import restrict, squeeze_all
from qformula.samples import (
    formula_example,
    nonformula_example,
    random_formula,
    toffoli_and_circuit,
    two_path_example,
)
from qformula.verification import SweepResult

for _module in pkgutil.iter_modules(qformula.__path__):
    importlib.import_module(f"qformula.{_module.name}")


def _pair(items):
    return items[0], items[1]


def _samples():
    """Two unequal instances of every record class, told apart before any
    array field is compared."""
    circuit = two_path_example()
    paths = path_sets(circuit, {1, 2})
    segments = path_segments(circuit, paths)
    squeezed, member = squeeze_all(circuit), random_formula(1)
    f, partition = ed_function(2), ed_partition(2)
    return [
        (variable(1), constant(0)),
        (Gate(1, (0, 1), CNOT), Gate(2, (1,), H)),
        (formula_example(), nonformula_example().relabel([variable(1)] * 4)),
        (ValidationReport(), ValidationReport(("bad",))),
        (computation_graph(formula_example()), computation_graph(circuit)),
        _pair(paths.paths[0].hops[::-1]),
        _pair(paths.paths),
        (paths, path_sets(circuit, {2})),
        (segments[0], segments[-1]),
        _pair([companion_set_of_path(circuit, paths, r.segment) for r in squeezed.records]),
        (CountingParams(2, 3, 1), CountingParams(1, 2, 2)),
        (equiv_class_bound(CountingParams(2, 3, 1)), equiv_class_bound(CountingParams(1, 2, 2))),
        (appendix_bound(CountingParams(2, 3, 1)), appendix_bound(CountingParams(1, 2, 2))),
        (GateNet.default(), GateNet.of([("X", X)])),
        (EnumerationResult(2, ("0001",), 5, 0), EnumerationResult(1, (), 0, 1)),
        (TruthTable(1, [0, 1]), f),
        (Partition.singletons(2), partition),
        (subfunctions(f, partition, 0), subfunctions(TruthTable(2, [0, 1, 1, 1]),
                                                     Partition.singletons(2), 1)),
        (nechiporuk_bound(TruthTable(2, [0, 1, 1, 1]), Partition.singletons(2)),
         nechiporuk_bound(f, partition)),
        (ed_sigma_check(2), ed_sigma_check(3)),
        _pair(squeezed.records),
        (squeezed, squeeze_all(restrict(member.formula, member.block, member.restriction))),
        (random_formula(0), member),
        (simulator.run(toffoli_and_circuit(), (1, 1))[1], simulator.run(toffoli_and_circuit(), (0, 1))[1]),
        _pair(simulator._schedule(two_path_example())),
        (simulator.FunctionVerdict("fails", (0, 1), 0.25), simulator.COMPUTES),
        (SweepResult("a", 1, 0.0, 1e-9), SweepResult("b", 2, 1.0, 1e-9)),
    ]


SAMPLES = _samples()


def _record_classes():
    seen, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def _twin(cls):
    specs = [
        (f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory,
                                           repr=f.repr, compare=f.compare, hash=f.hash))
        for f in dataclasses.fields(cls)
    ]
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def _as_twin(record):
    twin = _twin(type(record))
    return twin(**{f.name: getattr(record, f.name) for f in dataclasses.fields(record)})


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the same error class on both sides
        return type(exc)


@pytest.fixture(params=SAMPLES, ids=lambda pair: type(pair[0]).__name__)
def pair(request):
    return request.param


def test_every_record_class_has_samples_and_no_dataclass_is_left():
    classes = _record_classes()
    assert len(classes) == 27
    assert {type(a) for a, _ in SAMPLES} == set(classes)
    assert all(type(a) is type(b) for a, b in SAMPLES)
    for name in [m.name for m in pkgutil.iter_modules(qformula.__path__)]:
        module = importlib.import_module(f"qformula.{name}")
        for value in vars(module).values():
            if isinstance(value, type) and dataclasses.is_dataclass(value):
                assert issubclass(value, Record), value


def test_no_record_method_is_compiled_from_generated_source():
    for cls in _record_classes():
        for klass in cls.__mro__:
            for name, value in vars(klass).items():
                value = value.fget if isinstance(value, property) else value
                value = getattr(value, "__func__", value)
                code = getattr(value, "__code__", None)
                if code is not None:
                    assert code.co_filename != "<string>", f"{cls.__name__}.{name}"
                    assert inspect.getsourcefile(value).endswith(".py")


def test_fields_match_the_annotations_and_the_twin(pair):
    a, _ = pair
    cls, twin = type(a), _twin(type(a))
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(a)
    assert [f.name for f in dataclasses.fields(cls)] == list(cls.__annotations__)
    describe = lambda fs: [(f.name, f.type, f.default, f.default_factory, f.repr, f.compare, f.hash)
                           for f in fs]
    assert describe(dataclasses.fields(cls)) == describe(dataclasses.fields(twin))
    assert cls.__match_args__ == twin.__match_args__
    assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")


def test_repr_equality_and_hash_match_the_twin(pair):
    a, b = pair
    ta, tb = _as_twin(a), _as_twin(b)
    if "__repr__" not in type(a).__dict__:  # Gate and InputLabel print their own
        assert repr(a) == repr(ta) and repr(b) == repr(tb)
    same = copy.copy(a)
    assert same is not a
    assert (a == same) is (ta == copy.copy(ta)) is True
    assert (a == b) is (ta == tb) is False
    assert (a != b) is (ta != tb) is True
    assert (a == "other") is (ta == "other") is False
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(ta))
    assert _outcome(lambda: hash(b)) == _outcome(lambda: hash(tb))


def test_assignment_and_deletion_raise_frozen_instance_error(pair):
    a, _ = pair
    for name in [f.name for f in dataclasses.fields(a)] + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, name)


def _same(x, y):
    """Equal field by field, arrays by value (``replace`` copies them)."""
    if isinstance(x, Record):
        return type(x) is type(y) and all(
            _same(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and np.array_equal(x, y)
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same, x, y))
    return x is y or x == y


def test_replace_rebuilds_an_equal_record(pair):
    for record in pair:
        again = dataclasses.replace(record)
        assert again is not record and _same(record, again)


def test_construction_errors_match_the_twin(pair):
    a, _ = pair
    cls, twin = type(a), _twin(type(a))
    values = [getattr(a, f.name) for f in dataclasses.fields(a)]
    first = dataclasses.fields(a)[0].name
    cases = [(values + [None], {}), (values, {"unknown": 1}), (values, {first: values[0]}), ([], {})]
    for args, kwargs in cases:
        if _outcome(lambda: twin(*args, **kwargs)) is TypeError:
            assert _outcome(lambda: cls(*args, **kwargs)) is TypeError
    assert _same(cls(*values), a) and _same(cls(**dict(zip(cls.__match_args__, values))), a)


def test_defaults_and_factories_fill_missing_fields():
    assert ValidationReport().violations == ()
    assert ValidationReport() == ValidationReport(())
    verdict = simulator.FunctionVerdict("computes")
    assert (verdict.alpha, verdict.p) == (None, None) and verdict == simulator.COMPUTES
    assert CountingParams(2, 3, 1).n_prime == 3 == CountingParams(n=2, N=3, d=1).n_prime
    assert Circuit(1, [variable(1)], [], 0).arity_bound == 2


def test_replace_reruns_the_checks():
    with pytest.raises(ValueError, match="variable index must be >= 1"):
        dataclasses.replace(variable(1), var=0)
    with pytest.raises(ValueError, match="exactly one of var/const"):
        dataclasses.replace(variable(1), const=0)
    with pytest.raises(ValueError, match="must be positive"):
        dataclasses.replace(CountingParams(2, 3, 1), n=0)
    with pytest.raises(ValueError, match="table needs 4 bits"):
        dataclasses.replace(TruthTable(1, [0, 1]), n=2)
    circuit = two_path_example()
    segment = path_segments(circuit, path_sets(circuit, {1}))[0]
    with pytest.raises(ValueError, match="at least one gate"):
        dataclasses.replace(segment, hops=())
    gate = dataclasses.replace(Gate(1, (0, 1), CNOT), targets=[np.int64(1), 0])
    assert gate.targets == (1, 0) and type(gate.targets[0]) is int
    assert not gate.matrix.flags.writeable


def test_hot_records_take_positional_and_keyword_arguments():
    g = Gate(step=1, targets=(0,), matrix=H)
    assert (g.step, g.targets) == (1, (0,)) and np.array_equal(g.matrix, H)
    assert _same(Gate(1, (0,), H), g)
    assert InputLabel(2) == variable(2) and InputLabel(const=1) == constant(1)
    assert hash(variable(3)) == hash((3, None))
    hop = Hop(g, 0, 1)
    assert hop == Hop(gate=g, in_line=0, out_line=1) and hop.step == 1
    for cls, args in [(Gate, (1, (0,))), (InputLabel, (1, 0, 0)), (Hop, (g, 0))]:
        with pytest.raises(TypeError):
            cls(*args)


def test_circuit_takes_any_sequences_and_keeps_the_generic_type_errors():
    labels, gates = [variable(1), constant(0)], [Gate(1, (0, 1), CNOT)]
    circuit = Circuit(2, labels, gates, 0)
    assert type(circuit.labels) is tuple and circuit.labels == tuple(labels)
    assert type(circuit.gates) is tuple and circuit.gates[0] is gates[0]
    assert circuit == Circuit(num_qubits=2, labels=iter(labels), gates=iter(gates),
                              output_qubit=0, arity_bound=2)
    assert type(dataclasses.replace(circuit, gates=gates).gates) is tuple
    too_many, known = (2, labels, gates, 0, 2, None), (2, labels, gates, 0)
    for args, kwargs in [(too_many, {}), (known, {"unknown": 1}), (known, {"labels": labels}),
                         ((2, labels), {}), ((), {"num_qubits": 2, "gates": gates, "output_qubit": 0})]:
        with pytest.raises(TypeError):
            Circuit(*args, **kwargs)
