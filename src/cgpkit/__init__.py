"""cgpkit: Costantino-Geer-Patureau quantum invariants of decorated
3-manifolds, computed from surgery presentations over the ribbon category
of weight modules of unrolled quantum sl2 at even roots of unity."""

from .qscalars import NumericInstability, ScalarContext
from .weightcat import (
    CriticalDegree,
    Degree,
    FormalColorSum,
    InvariantConstants,
    NonTypicalColor,
    ObjectWord,
    Sigma,
    Typical,
    WeightModule,
    constants,
    hom_basis,
    index_set,
    kirby_color,
    modified_dimension,
    modified_trace,
    realize,
)

__version__ = "0.1.0"

__all__ = [
    "ScalarContext", "Degree", "Typical", "Sigma",
    "ObjectWord", "WeightModule", "FormalColorSum", "InvariantConstants",
    "NonTypicalColor", "CriticalDegree", "NumericInstability",
    "realize", "hom_basis", "index_set", "kirby_color", "constants",
    "modified_dimension", "modified_trace", "__version__",
]
