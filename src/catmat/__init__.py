"""catmat: finite categories with prescribed hom-set sizes.

Given a square matrix of nonnegative integers, decide whether some finite
category has exactly those hom-set cardinalities, build an explicit witness
category when one exists, verify witnesses exhaustively, and cross-check the
decision procedure with an independent brute-force search.

Each exported name is imported from its module on first access, so
`import catmat` loads no submodule and a program loads only what it uses.
"""

import importlib

_NAMES = {  # module: the names exported from it
    "category": ("FiniteCategory",),
    "certificate": ("build_certificate", "dump_certificate", "load_certificate"),
    "decider": ("Reason", "Verdict", "condition_report", "decide", "decide_by_submatrices"),
    "errors": ("CardinalityError", "CertificateError", "NotAcceptable", "ParseError",
               "Rejected", "ShapeError", "TripleBudgetError"),
    "matrix": ("HomMatrix", "parse_matrix"),
    "oracle": ("OracleResult", "oracle_decide"),
    "partition": ("Partition",),
    "reduction": ("ReductionMap", "inflate", "reduce"),
    "verifier": ("VerificationReport", "verify_category"),
    "witness": ("build_witness",),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
