"""Coordinate vectors ordered componentwise.

Vectors are plain tuples.  A finite coordinate is always a nonnegative
``int``; the extended domain adds ``INF`` (``math.inf``) as the largest
coordinate value.  ``INF`` is a distinct value of its own type, so it can
never collide with a large counter, and ``INF + a == INF - a == INF`` for
finite ``a``.
"""

from __future__ import annotations

import math
import operator
from numbers import Integral

__all__ = [
    "INF",
    "Vec",
    "as_ext_vec",
    "as_nat_vec",
    "is_finite_vec",
    "residual",
    "unit",
    "vadd",
    "vinf",
    "vleq",
    "vsub",
    "vsup",
    "zero",
]

INF = math.inf

Vec = tuple  # coordinates: int or INF


def _coord(c, allow_inf: bool):
    if type(c) is int and c >= 0:
        return c
    if isinstance(c, Integral) and not isinstance(c, bool):
        c = int(c)
        if c < 0:
            raise ValueError(f"coordinates must be nonnegative, got {c}")
        return c
    if allow_inf and isinstance(c, float) and math.isinf(c) and c > 0:
        return INF
    raise ValueError(f"bad coordinate {c!r}")


def as_nat_vec(v, dim: int | None = None) -> Vec:
    """Coerce to a tuple of finite nonnegative ints, checking the dimension."""
    out = tuple(_coord(c, allow_inf=False) for c in v)
    if dim is not None and len(out) != dim:
        raise ValueError(f"expected dimension {dim}, got {len(out)}")
    return out


def as_ext_vec(v, dim: int | None = None) -> Vec:
    """Like :func:`as_nat_vec` but coordinates may be INF."""
    out = tuple(_coord(c, allow_inf=True) for c in v)
    if dim is not None and len(out) != dim:
        raise ValueError(f"expected dimension {dim}, got {len(out)}")
    return out


def is_finite_vec(v: Vec) -> bool:
    return all(not (isinstance(c, float) and math.isinf(c)) for c in v)


def _samedim(a: Vec, b: Vec) -> None:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")


def vleq(a: Vec, b: Vec) -> bool:
    """Componentwise order."""
    _samedim(a, b)
    return all(map(operator.le, a, b))


def vsup(a: Vec, b: Vec) -> Vec:
    _samedim(a, b)
    return tuple(max(x, y) for x, y in zip(a, b))


def vinf(a: Vec, b: Vec) -> Vec:
    _samedim(a, b)
    return tuple(min(x, y) for x, y in zip(a, b))


def vadd(a: Vec, b: Vec) -> Vec:
    _samedim(a, b)
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    """Componentwise difference; requires b <= a and leaves INF coordinates INF."""
    _samedim(a, b)
    out = []
    for x, y in zip(a, b):
        if isinstance(x, float) and math.isinf(x):  # ints may exceed any float
            out.append(INF)
        elif y > x:
            raise ValueError(f"cannot subtract: {b} is not below {a}")
        else:
            out.append(x - y)
    return tuple(out)


def residual(a: Vec, b: Vec) -> Vec:
    """a minus the componentwise minimum of a and b; always defined."""
    return vsub(a, vinf(a, b))


def unit(dim: int, i: int) -> Vec:
    if not 0 <= i < dim:
        raise ValueError(f"unit index {i} out of range for dimension {dim}")
    return tuple(1 if j == i else 0 for j in range(dim))


def zero(dim: int) -> Vec:
    return (0,) * dim
