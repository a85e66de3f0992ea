"""Exact computer algebra for operadic square-zero structures, weight-split
cyclic homology, and the homology / rational-homotopy tables of the dual
circle."""

from .abgroups import FGAbGroup, GradedGroup, GroupExpr
from .cyclic import GradedModule, thh_homology_square_zero
from .operads import OperadPoint, compose, is_member
from .qspaces import SymbolicQSpace, bousfield_pi_q, ext_pinf_q
from .tc import coassembly_conclusion, e_homology, table1, table2

__all__ = [
    "FGAbGroup",
    "GradedGroup",
    "GradedModule",
    "GroupExpr",
    "OperadPoint",
    "SymbolicQSpace",
    "bousfield_pi_q",
    "coassembly_conclusion",
    "compose",
    "e_homology",
    "ext_pinf_q",
    "is_member",
    "table1",
    "table2",
    "thh_homology_square_zero",
]

__version__ = "0.1.0"
