"""Exact-arithmetic engine and batch verifier for the support structure of
Schubert and Grothendieck polynomials."""

from .perms import (
    Diagram,
    contains_pattern,
    diagram_precedes,
    grassmannian_shape,
    is_fireworks,
    is_zero_one,
    length,
    parse_perm,
    rajcode,
    rajcode_fireworks,
    rothe_diagram,
    upper_closure,
    weight,
)
from .poly import (
    Poly,
    PolynomialTable,
    build_table,
    divided_difference,
    grothendieck,
    isobaric_divided_difference,
    schubert,
)
from .posets import VectorPoset, build_Pw, componentwise_leq, mobius
from .verdicts import Verdict

__version__ = "0.1.0"
