"""Matroid base-exchange algorithms.

The central operation is :func:`cyclic_exchange`: given bases B_1..B_k of a
matroid and a subset A_1 of B_1, it constructs A_2..A_k so that every
cyclically shifted set (B_i \\ A_i) u A_{i-1} is again a basis.  Around it
sit concrete matroid classes, a matroid partition solver, brute-force
oracles, and a counterexample search for the shift-by-two variant.
"""

from .core import (
    AXIOM_CHECK_CAP,
    ENUMERATION_CAP,
    AxiomViolation,
    BasisMatroid,
    ElementSet,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    SlotMatroid,
    UniformMatroid,
    canon,
    check_base_axiom,
    disjoint_copies,
)
from .errors import (
    FormatError,
    GenerationError,
    InternalVerificationError,
    MatrexError,
    SizeLimitError,
    ValidationError,
)
from .exchange import (
    ColorClasses,
    ExchangeInstance,
    ExchangeResult,
    RankInequalityCheck,
    build_color_classes,
    check_rank_inequality,
    cyclic_exchange,
    multiple_symmetric_exchange,
    symmetric_exchange_single,
)
from .union import (
    Arm,
    DeficiencyCertificate,
    Partition,
    PartitionProblem,
    matroid_partition,
    verify_partition,
)
from .verify import (
    BRUTE_FORCE_CAP,
    ExhaustionReport,
    InstanceGenSpec,
    Shift2Witness,
    brute_force_cyclic_exchange,
    random_instance,
    search_shift2_counterexample,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AXIOM_CHECK_CAP",
    "ENUMERATION_CAP",
    "BRUTE_FORCE_CAP",
    "AxiomViolation",
    "Arm",
    "BasisMatroid",
    "ColorClasses",
    "DeficiencyCertificate",
    "ElementSet",
    "ExchangeInstance",
    "ExchangeResult",
    "ExhaustionReport",
    "FormatError",
    "GenerationError",
    "GraphicMatroid",
    "InstanceGenSpec",
    "InternalVerificationError",
    "LinearMatroid",
    "Matroid",
    "MatrexError",
    "Partition",
    "PartitionProblem",
    "RankInequalityCheck",
    "Shift2Witness",
    "SizeLimitError",
    "SlotMatroid",
    "UniformMatroid",
    "ValidationError",
    "brute_force_cyclic_exchange",
    "build_color_classes",
    "canon",
    "check_base_axiom",
    "check_rank_inequality",
    "cyclic_exchange",
    "disjoint_copies",
    "matroid_partition",
    "multiple_symmetric_exchange",
    "random_instance",
    "search_shift2_counterexample",
    "symmetric_exchange_single",
    "verify_partition",
    "verify_witness",
]
