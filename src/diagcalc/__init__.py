"""diagcalc: a calculator for partition diagrams.

Canonical forms and arithmetic for partition diagrams, the planar/cap
machinery, a Froidure-Pin closure that yields one indexed carrier
(:class:`FiniteMonoid`: elements, Cayley tables, and memoised products and
unary operations on indices), presentation verification by congruence
enumeration, and exhaustive checkers for the unary-operation laws and left
congruences of full-domain diagram monoids, all run on that carrier.
"""

from __future__ import annotations

from .counting import bell, catalan, order_preserving_count
from .equivalences import (
    Equivalence,
    all_equivalences,
    atom,
    bricks,
    cap_kernel,
    cap_word,
    diagonal,
    join,
    successor,
)
from .engine import (
    BudgetExceeded,
    FiniteMonoid,
    band_type,
    closure,
    from_elements,
    green,
    units_and_singular,
)
from .laws import (
    CheckReport,
    LeftCongruence,
    check_action_pair,
    check_ehresmann,
    check_grrac,
    check_restriction,
    join_left_congruences,
    left_congruence_closure,
    principal_pair_congruence,
    projection_split,
    theta,
    theta_battery,
)
from .partitions import (
    FAMILY_NAMES,
    Diagram,
    Membership,
    Structure,
    all_diagrams,
    cap,
    cap_atom,
    collapse,
    domain_projection,
    embed,
    family,
    floor_map,
    from_transformation,
    identity,
    merge,
    multiply,
    range_cap,
    range_projection,
    transposition,
)
from .presentations import (
    SCHEMA_NAMES,
    Presentation,
    check_soundness,
    derived_word,
    enumerate_presented,
    eval_word,
    factor_product,
    schema,
    standard_assignment,
    verify_presentation,
)
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CheckReport",
    "Diagram",
    "Equivalence",
    "FAMILY_NAMES",
    "FiniteMonoid",
    "LeftCongruence",
    "Membership",
    "Presentation",
    "SCHEMA_NAMES",
    "Structure",
    "all_diagrams",
    "all_equivalences",
    "atom",
    "band_type",
    "bell",
    "bricks",
    "cap",
    "cap_atom",
    "cap_kernel",
    "cap_word",
    "catalan",
    "check_action_pair",
    "check_ehresmann",
    "check_grrac",
    "check_restriction",
    "check_soundness",
    "closure",
    "collapse",
    "derived_word",
    "diagonal",
    "domain_projection",
    "embed",
    "enumerate_presented",
    "eval_word",
    "factor_product",
    "family",
    "floor_map",
    "from_elements",
    "from_transformation",
    "green",
    "identity",
    "join",
    "join_left_congruences",
    "left_congruence_closure",
    "merge",
    "multiply",
    "order_preserving_count",
    "principal_pair_congruence",
    "projection_split",
    "range_cap",
    "range_projection",
    "render_svg",
    "schema",
    "standard_assignment",
    "successor",
    "theta",
    "theta_battery",
    "transposition",
    "units_and_singular",
    "verify_presentation",
    "__version__",
]
