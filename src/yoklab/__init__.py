"""Exact computer algebra for Yokonuma-Hecke algebras at q = 0, their
Ariki-Koike-Shoji presentation, and the associated nil algebra."""

from .scalars import CyclotomicField, FieldSpec, PrimeField, make_field
from .algebra import SparseAlgebra, SparseElement
from .ycore import YAlgebra
from .aks import AKSAlgebra
from .nilalg import NilAlgebra
from . import algebra, exactla, modrep, structure, symgroup

__version__ = "0.1.0"

__all__ = [
    "CyclotomicField",
    "PrimeField",
    "FieldSpec",
    "make_field",
    "SparseAlgebra",
    "SparseElement",
    "YAlgebra",
    "AKSAlgebra",
    "NilAlgebra",
    "algebra",
    "exactla",
    "modrep",
    "structure",
    "symgroup",
    "__version__",
]
