"""Exact calculus of differential operators over the rational polynomial ring.

The law harness (weylcalc.laws) is imported on first use of one of its
names, so that a command that runs no law does not pay for it.
"""

from .poly import MultiIndex, Poly, monomials_up_to, reduce_by
from .operators import DiffOp, commutator
from .grothendieck import (
    grothendieck_order,
    is_derivation,
    is_order_at_most,
    split_order_one,
)
from .symbols import (
    SymbolElem,
    derivation_symbol,
    principal_symbol,
    quantize,
    symbol_mul,
)
from .jets import JetMap, d_basis, from_jet_map, restriction

_LAW_NAMES = frozenset(
    {"ACCEPTANCE_CONFIG", "GenConfig", "IdealSpec", "LawReport", "LAWS", "run_all", "run_law"}
)

__version__ = "0.1.0"

__all__ = [
    "MultiIndex",
    "Poly",
    "monomials_up_to",
    "reduce_by",
    "DiffOp",
    "commutator",
    "grothendieck_order",
    "is_derivation",
    "is_order_at_most",
    "split_order_one",
    "SymbolElem",
    "derivation_symbol",
    "principal_symbol",
    "quantize",
    "symbol_mul",
    "JetMap",
    "d_basis",
    "from_jet_map",
    "restriction",
    "ACCEPTANCE_CONFIG",
    "GenConfig",
    "IdealSpec",
    "LawReport",
    "LAWS",
    "run_all",
    "run_law",
]


def __getattr__(name: str):
    if name in _LAW_NAMES:
        from . import laws

        return getattr(laws, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAW_NAMES)
