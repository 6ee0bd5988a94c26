"""diagcalc: a calculator for partition diagrams.

Canonical forms and arithmetic for partition diagrams, the planar/cap
machinery, a Froidure-Pin closure that yields one indexed carrier
(:class:`FiniteMonoid`: elements, Cayley tables, and memoised products and
unary operations on indices), presentation verification by congruence
enumeration, and exhaustive checkers for the unary-operation laws and left
congruences of full-domain diagram monoids, all run on that carrier.

The names below load lazily (PEP 562): ``import diagcalc`` imports no
submodule, and ``diagcalc.<name>`` imports only the module that defines
``name``, so a command pays for the modules it uses and no others.
"""

from __future__ import annotations

import importlib

# each public name, grouped by the module that defines it
_EXPORTS = {
    "counting": ("bell", "catalan", "order_preserving_count"),
    "equivalences": (
        "Equivalence", "all_equivalences", "atom", "bricks", "cap_kernel", "cap_word",
        "diagonal", "join", "successor",
    ),
    "engine": (
        "BudgetExceeded", "CheckReport", "FiniteMonoid", "carrier", "closure", "from_elements",
    ),
    "laws": (
        "LeftCongruence", "check_action_pair", "check_ehresmann", "check_grrac",
        "check_restriction", "join_left_congruences", "left_congruence_closure",
        "principal_pair_congruence", "theta", "theta_battery",
    ),
    "partitions": (
        "FAMILY_NAMES", "SCHEMA_NAMES", "Diagram", "Membership", "Structure",
        "all_diagrams", "cap", "cap_atom", "collapse", "domain_projection", "embed",
        "family", "floor_map", "from_transformation", "identity", "merge", "multiply",
        "multiply_by", "multiply_rows", "range_cap", "range_projection", "transposition",
    ),
    "presentations": (
        "Presentation", "check_soundness", "derived_word", "enumerate_presented",
        "eval_word", "factor_product", "schema", "standard_assignment",
        "verify_presentation",
    ),
    "render": ("render_svg",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_OWNER), "__version__"]


def __getattr__(name: str):
    # not cached in the package globals, so a patched function is never
    # shadowed by a stale copy here
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
