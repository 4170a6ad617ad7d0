"""ramval: exact computation with rank-1 valuations on two-dimensional regular
local rings over finite fields, via generating sequences and quadratic
transforms."""

from .algebra import Fq, LocalElem, Poly2, parse_poly
from .genseq import (
    GenSeq,
    build_tower_seq,
    expand,
    residue_of_quotient,
    semigroup,
    validate,
    value_of,
)
from .towers import build_tower
from .transforms import (
    ChartChain,
    StableForm,
    composite_transform,
    defect_from_stable,
    run_tower_ladder,
    stable_form,
)
from .values import fmt_value, group_join, order_in_quotient, tower_key_value

__version__ = "0.1.0"
