"""Exact symbolic toolkit for the Jordanian quantum group SL_h(2)/GL_h(2).

Constructs the representation functions (D-matrices) of the h-deformed
SL(2)/GL(2) in several equivalent closed forms and machine-verifies the
structural identities they satisfy: PBW normal ordering, corepresentation
laws, the twisted product law, recurrence relations, orthogonality-like
relations, RTT relations and the boson-operator realizations.
"""

from ._rat import Q, RAT_BACKEND
from .scalar import H, ONE, ZERO, RadScalar, rational, sqrt_nat
from .ncalg import GL, SL, NCPoly, gen, normal_form, quantum_determinant
from .exprio import ParseError, parse, render

__version__ = "1.0.0"

__all__ = [
    "Q",
    "RAT_BACKEND",
    "RadScalar",
    "rational",
    "sqrt_nat",
    "ZERO",
    "ONE",
    "H",
    "GL",
    "SL",
    "NCPoly",
    "gen",
    "normal_form",
    "quantum_determinant",
    "parse",
    "render",
    "ParseError",
]
