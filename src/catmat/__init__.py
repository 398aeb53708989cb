"""catmat: finite categories with prescribed hom-set sizes.

Given a square matrix of nonnegative integers, decide whether some finite
category has exactly those hom-set cardinalities, build an explicit witness
category when one exists, verify witnesses exhaustively, and cross-check the
decision procedure with an independent brute-force search.
"""

from .category import FiniteCategory
from .certificate import build_certificate, dump_certificate, load_certificate
from .decider import Reason, Verdict, condition_report, decide, decide_by_submatrices
from .errors import (
    CardinalityError,
    CertificateError,
    NotAcceptable,
    ParseError,
    Rejected,
    ShapeError,
    TripleBudgetError,
)
from .matrix import HomMatrix, parse_matrix
from .oracle import OracleResult, oracle_decide
from .partition import Partition
from .reduction import ReductionMap, inflate, reduce
from .verifier import VerificationReport, verify_category
from .witness import build_witness

__all__ = [
    "CardinalityError",
    "CertificateError",
    "FiniteCategory",
    "HomMatrix",
    "NotAcceptable",
    "OracleResult",
    "ParseError",
    "Partition",
    "Reason",
    "ReductionMap",
    "Rejected",
    "ShapeError",
    "TripleBudgetError",
    "VerificationReport",
    "Verdict",
    "build_certificate",
    "build_witness",
    "condition_report",
    "decide",
    "decide_by_submatrices",
    "dump_certificate",
    "inflate",
    "load_certificate",
    "oracle_decide",
    "parse_matrix",
    "reduce",
    "verify_category",
]
