"""Finite representations of symmetric operation sequences on finite lattices.

The package computes with antitone maps from N^d into a finite lattice
through finite point sets: evaluation on the plain and the INF-extended
domain, canonical and complete representations, decision procedures for
the structural properties of the encoded operation sequences, exact
learning from evaluation queries, and translation to and from commutator
style equality sets.
"""

from .antitone import (
    ExtRep,
    Rep,
    check_complete,
    equal_fn,
    join_fn,
    le_pointwise,
    step,
)
from .commutator import (
    CommEquality,
    encode_args,
    eval_commutator,
    eval_extended,
    example,
    largest_from_equalities,
    reduced_equalities,
    satisfies,
    to_equalities,
    to_extended_equalities,
)
from .hc import (
    admissibility_report,
    check_hc1,
    check_hc2,
    check_hc7,
    check_hc8,
    is_admissible,
)
from .lattice import Lattice, LatticeError, chain, divisor_lattice
from .learn import Oracle, RoundLimitError, learn, oracle_from_rep
from .upset import UpSet, max_elements, min_elements
from .vectors import (
    INF,
    as_ext_vec,
    as_nat_vec,
    is_finite_vec,
    residual,
    unit,
    vadd,
    vinf,
    vleq,
    vsub,
    vsup,
    zero,
)

__version__ = "0.1.0"

__all__ = [
    "CommEquality",
    "ExtRep",
    "INF",
    "Lattice",
    "LatticeError",
    "Oracle",
    "Rep",
    "RoundLimitError",
    "UpSet",
    "admissibility_report",
    "as_ext_vec",
    "as_nat_vec",
    "chain",
    "check_complete",
    "check_hc1",
    "check_hc2",
    "check_hc7",
    "check_hc8",
    "divisor_lattice",
    "encode_args",
    "equal_fn",
    "eval_commutator",
    "eval_extended",
    "example",
    "is_admissible",
    "is_finite_vec",
    "join_fn",
    "largest_from_equalities",
    "le_pointwise",
    "learn",
    "max_elements",
    "min_elements",
    "oracle_from_rep",
    "reduced_equalities",
    "residual",
    "satisfies",
    "step",
    "to_equalities",
    "to_extended_equalities",
    "unit",
    "vadd",
    "vinf",
    "vleq",
    "vsub",
    "vsup",
    "zero",
]
