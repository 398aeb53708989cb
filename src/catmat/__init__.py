"""catmat: finite categories with prescribed hom-set sizes.

Given a square matrix of nonnegative integers, decide whether some finite
category has exactly those hom-set cardinalities, build an explicit witness
category when one exists, verify witnesses exhaustively, and cross-check the
decision procedure with an independent brute-force search.
"""

from .category import FiniteCategory
from .certificate import build_certificate, load_certificate
from .decider import Reason, Verdict, condition_report, decide, decide_by_submatrices
from .errors import (
    CardinalityError,
    CertificateError,
    CountError,
    NotAcceptable,
    NotComposable,
    ParseError,
    Rejected,
    ShapeError,
    TripleBudgetError,
)
from .matrix import HomMatrix, parse_matrix, permute, principal_submatrix, transpose
from .oracle import OracleResult, SearchBudget, oracle_decide
from .partition import (
    AcceptabilityCounterexample,
    Partition,
    build_partition,
    check_acceptable,
)
from .reduction import ReductionMap, duplicate_relation, inflate, reduce
from .verifier import (
    DEFAULT_FAILURE_CAP,
    DEFAULT_TRIPLE_BUDGET,
    VerificationReport,
    verify_category,
)
from .witness import (
    WitnessContext,
    a_of,
    b_of,
    build_hom_labels,
    build_witness,
    compose,
    cross_part_sizes,
)
from . import labels

__all__ = [
    "AcceptabilityCounterexample",
    "CardinalityError",
    "CertificateError",
    "CountError",
    "DEFAULT_FAILURE_CAP",
    "DEFAULT_TRIPLE_BUDGET",
    "FiniteCategory",
    "HomMatrix",
    "NotAcceptable",
    "NotComposable",
    "OracleResult",
    "ParseError",
    "Partition",
    "Reason",
    "ReductionMap",
    "Rejected",
    "SearchBudget",
    "ShapeError",
    "TripleBudgetError",
    "VerificationReport",
    "Verdict",
    "WitnessContext",
    "a_of",
    "b_of",
    "build_certificate",
    "build_hom_labels",
    "build_partition",
    "build_witness",
    "check_acceptable",
    "compose",
    "condition_report",
    "cross_part_sizes",
    "decide",
    "decide_by_submatrices",
    "duplicate_relation",
    "inflate",
    "labels",
    "load_certificate",
    "oracle_decide",
    "parse_matrix",
    "permute",
    "principal_submatrix",
    "reduce",
    "transpose",
    "verify_category",
]
