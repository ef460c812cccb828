"""Quantum-circuit analysis toolkit.

Circuit IR with Boolean acceptance semantics, formula detection, the
verified path-squeezing compiler pass, subfunction-counting lower
bounds, and the sign-assignment counting bounds, plus a CLI (``qf``).
"""
from .circuit import (
    Circuit,
    CircuitError,
    Gate,
    InputLabel,
    InvalidCircuitError,
    ValidationReport,
    build_circuit,
    constant,
    validate,
    variable,
)
from .tensor import inner_product, kron, orthonormalize
from .fileio import (
    FormatError,
    read_circuit,
    read_partition,
    read_truth_table,
    write_circuit,
    write_partition,
    write_truth_table,
)
from .simulator import (
    FunctionVerdict,
    Outcome,
    SimulationError,
    apply_gate,
    contract_formula,
    evaluate,
    probability_vector,
    run,
    to_unitary,
)
from .analysis import (
    CompanionSet,
    ComputationGraph,
    NotAFormulaError,
    Path,
    PathSegment,
    PathSet,
    StructuralError,
    companion_set_of_path,
    computation_graph,
    has_unique_paths,
    intersection_gates,
    is_formula,
    path_segments,
    path_sets,
)
from .rewrite import (
    NumericalError,
    SqueezeRecord,
    SqueezedCircuit,
    VerificationError,
    build_composite_gate,
    decompose_disjoint,
    postpone,
    restrict,
    squeeze_all,
    squeeze_path,
    verify_squeeze,
)
from .nechiporuk import (
    Partition,
    SubfunctionTable,
    TruthTable,
    ed_function,
    ed_partition,
    ed_sigma_check,
    nechiporuk_bound,
    subfunctions,
)
from .counting import (
    AppendixBound,
    CountingParams,
    GateNet,
    appendix_bound,
    enumerate_functions,
    equiv_class_bound,
    grid_sign_patterns,
    warren_bound,
    warren_bound_log2,
)

__version__ = "0.1.0"
