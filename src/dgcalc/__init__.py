"""dgcalc: exact calculus for linear constant-coefficient differential operators.

Operators are matrices over Q[d1..dn].  The package computes compatibility
conditions, formal adjoints, free resolutions, parametrizability verdicts,
minimal parametrizations and Ext invariants, all with exact rational
arithmetic, plus a zoo of classical operators to exercise them on.
"""

from importlib import import_module as _import_module

from .poly import Poly, ParseError, parse, serialize
from .engine import (
    FreeElem,
    GroebnerBasis,
    BudgetExceeded,
    Resolution,
    reduced_groebner,
    divide_with_cofactors,
    module_contains,
    module_equal,
    syzygies,
    minimize_generators,
    fraction_rank,
    resolve_module,
    clear_caches,
)
from .operators import (
    Bundle,
    LinDiffOp,
    ShapeMismatch,
    NotFactorable,
    OpFormatError,
    compose,
    adjoint,
    is_self_adjoint,
    cc,
    factor_through,
    order_profile,
    symbol_at,
    scale,
    operator_to_dict,
    operator_from_dict,
    save_operator,
    load_operator,
)

__version__ = "0.1.0"

# The upper layers load on first use (PEP 562 module __getattr__), so
# `import dgcalc` and the CLI commands that run only the core skip them.
_LAZY_MODULES = ("duality", "zoo", "report", "cli")
_LAZY_NAMES = dict.fromkeys(
    (
        "ParamReport",
        "TorsionGenerator",
        "TorsionWitnessError",
        "ExtReport",
        "param_test",
        "ext_module",
        "minimal_parametrization",
    ),
    "duality",
)


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        # the import binds the submodule here, so this runs once per module
        return _import_module(f"{__name__}.{name}")
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read from the defining module on every lookup and never stored here,
    # so a name rebound there, by a monkeypatch or by instrumentation, is
    # what callers get
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAZY_MODULES))


__all__ = [
    "Poly",
    "ParseError",
    "parse",
    "serialize",
    "FreeElem",
    "GroebnerBasis",
    "BudgetExceeded",
    "Resolution",
    "reduced_groebner",
    "divide_with_cofactors",
    "module_contains",
    "module_equal",
    "syzygies",
    "minimize_generators",
    "fraction_rank",
    "resolve_module",
    "clear_caches",
    "Bundle",
    "LinDiffOp",
    "ShapeMismatch",
    "NotFactorable",
    "OpFormatError",
    "compose",
    "adjoint",
    "is_self_adjoint",
    "cc",
    "factor_through",
    "order_profile",
    "symbol_at",
    "scale",
    "operator_to_dict",
    "operator_from_dict",
    "save_operator",
    "load_operator",
    "ParamReport",
    "TorsionGenerator",
    "TorsionWitnessError",
    "ExtReport",
    "param_test",
    "ext_module",
    "minimal_parametrization",
    "zoo",
    "__version__",
]
