"""2-D engine on a centered square index lattice.

Two polarization modes: an exact one restricted to the four grid-preserving
reflection families (axis and diagonal hyperplanes), which moves values
without recomputing them, and a bilinear-interpolated one for arbitrary
halfspaces with honest O(h) discretization error.  Rearrangement and Steiner
row symmetrization are exact sort-and-assign operations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

import numpy as np

from . import _textio
from .errors import ParseError
from .halfspace import Halfspace
from .lattice import spiral_sites
from .series import (ConvergenceRecord, ConvergenceSeries, _triangular_scheme,
                     finite_result)

_SNAP_TOL = 1e-9   # cells; interpolation snaps to centers this close


class GridFitError(Exception):
    """A positive value would reflect outside the array; enlarge m."""


class Axis(Enum):
    """Invariant subspace of a Steiner symmetrization."""

    X = "x"
    Y = "y"


class HyperplaneKind(Enum):
    """The four grid-preserving reflections; each value is the kind's
    ``dir=`` letter in the ``--by`` text."""

    X = "X"          # H = {i <= s},      reflection (i, j) -> (2s-i, j)
    Y = "Y"          # H = {j <= s},      reflection (i, j) -> (i, 2s-j)
    DIAG_UP = "U"    # H = {i+j <= s},    reflection (i, j) -> (s-j, s-i)
    DIAG_DOWN = "D"  # H = {i-j <= s},    reflection (i, j) -> (s+j, i-s)


@dataclass(frozen=True)
class LatticeHyperplane:
    """Grid-preserving reflection hyperplane in index units.

    X/Y offsets are half-integers, diagonal offsets integers, so the induced
    reflection maps integer index pairs to integer index pairs.
    """

    kind: HyperplaneKind
    s: float

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        if not math.isfinite(self.s):
            raise ValueError(f"offset must be finite, got {self.s}")
        if self.kind in (HyperplaneKind.X, HyperplaneKind.Y):
            # is_integer, not round: 2*s overflows to inf near the float max.
            if not (2 * self.s).is_integer():
                raise ValueError("X/Y offsets must be half-integers")
        else:
            if not self.s.is_integer():
                raise ValueError("diagonal offsets must be integers")

    def reflect_index(self, i: int, j: int) -> tuple[int, int]:
        """Image of cell (i, j); elementwise on index arrays too."""
        s2 = round(2 * self.s)
        s1 = round(self.s)
        if self.kind is HyperplaneKind.X:
            return s2 - i, j
        if self.kind is HyperplaneKind.Y:
            return i, s2 - j
        if self.kind is HyperplaneKind.DIAG_UP:
            return s1 - j, s1 - i
        return s1 + j, i - s1

    def contains_index(self, i: int, j: int) -> bool:
        """Whether cell (i, j) lies in H; elementwise on index arrays too."""
        if self.kind is HyperplaneKind.X:
            return i <= self.s
        if self.kind is HyperplaneKind.Y:
            return j <= self.s
        if self.kind is HyperplaneKind.DIAG_UP:
            return i + j <= self.s
        return i - j <= self.s

    def contains_origin(self) -> bool:
        return self.contains_index(0, 0)

    def as_halfspace(self, h: float) -> Halfspace:
        """The same halfspace in physical coordinates (cell size h)."""
        r = math.sqrt(0.5)
        if self.kind is HyperplaneKind.X:
            return Halfspace((1.0, 0.0), self.s * h)
        if self.kind is HyperplaneKind.Y:
            return Halfspace((0.0, 1.0), self.s * h)
        if self.kind is HyperplaneKind.DIAG_UP:
            return Halfspace((r, r), self.s * h * r)
        return Halfspace((r, -r), self.s * h * r)

    def encode(self) -> str:
        return f"dir={self.kind.value},s={format(self.s, '.17g')}"

    @classmethod
    def parse(cls, text: str) -> "LatticeHyperplane":
        kind, s = _textio.keyed(
            text, {"dir": lambda d: HyperplaneKind(d.upper()), "s": float},
            "dir=X|Y|U|D,s=<offset>")
        try:
            return cls(kind, s)
        except ValueError as exc:
            raise ParseError(f"bad hyperplane {text!r}: {exc}") from exc


class GridFunction:
    """Nonnegative values on the centered index lattice [-m..m]^2.

    Cell (i, j) has center (i*h, j*h); values[j+m, i+m] stores u(i, j) and
    everything outside the array is 0.
    """

    __slots__ = ("m", "h", "values")

    def __init__(self, m: int, h: float, values):
        m = int(m)
        h = float(h)
        if m < 0:
            raise ValueError("half-width m must be >= 0")
        if not 0 < h < math.inf:
            raise ValueError(f"cell size h must be positive and finite, got {h}")
        if h * h == math.inf:   # every mass and L^p error scales by h*h
            raise ValueError(f"cell size h={h} is too large: the cell area "
                             "h*h overflows the float range")
        if h * h < sys.float_info.min:   # h < 2**-511
            raise ValueError(f"cell size h={h} is too small: the cell area "
                             "h*h underflows below the smallest normal double")
        v = np.array(values, dtype=float)
        if v.shape != (2 * m + 1, 2 * m + 1):
            raise ValueError(f"values must be a {2*m+1}x{2*m+1} array")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("values must be finite and nonnegative")
        v.setflags(write=False)
        self.m = m
        self.h = h
        self.values = v

    @classmethod
    def _checked(cls, m: int, h: float, values: np.ndarray) -> "GridFunction":
        """Wrap a float array of valid values (moved from a GridFunction of
        the same m and h) as it is, read-only."""
        out = cls.__new__(cls)
        out.m, out.h, out.values = m, h, _read_only(values)
        return out

    @classmethod
    def zeros(cls, m: int, h: float = 1.0) -> "GridFunction":
        return cls(m, h, np.zeros((2 * m + 1, 2 * m + 1)))

    @classmethod
    def from_points(cls, m: int, h: float, points) -> "GridFunction":
        """Build from {(i, j): value} with everything else 0."""
        v = np.zeros((2 * m + 1, 2 * m + 1))
        for (i, j), value in points.items():
            v[j + m, i + m] = value
        return cls(m, h, v)

    def value(self, i: int, j: int) -> float:
        m = self.m
        if -m <= i <= m and -m <= j <= m:
            return float(self.values[j + m, i + m])
        return 0.0

    def sorted_values(self) -> np.ndarray:
        return np.sort(self.values, axis=None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridFunction):
            return NotImplemented
        return (self.m == other.m and self.h == other.h
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        # + 0.0 makes -0.0 into 0.0, as == does not tell them apart
        return hash((self.m, self.h, (self.values + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"GridFunction(m={self.m}, h={self.h})"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Arrays that depend only on the grid size are built once per size and
# shared by every caller, so they are read-only.
@lru_cache(maxsize=8)
def _index_grids(m: int):
    rng = np.arange(-m, m + 1)
    # I varies along columns
    return tuple(map(_read_only, np.meshgrid(rng, rng, indexing="xy")))


def polarize_grid_exact(u: GridFunction, hp: LatticeHyperplane) -> GridFunction:
    """Pairwise polarization along a grid-preserving reflection: within each
    orbit {p, sigma(p)} the larger value goes to the H side.  Raises
    GridFitError if a positive value would have to leave the array."""
    m = u.m
    # Past 2m+1 every cell is on one side and reflects off the array, as for
    # the original offset, whose round(2*s) may not fit numpy's int64.
    n = 2 * m + 1
    clamped = LatticeHyperplane(hp.kind, min(max(hp.s, -n), n))
    I, J = _index_grids(m)
    RI, RJ = clamped.reflect_index(I, J)
    inside = (np.abs(RI) <= m) & (np.abs(RJ) <= m)
    in_h = clamped.contains_index(I, J)
    if u.values[~(inside | in_h)].any():   # a positive value would escape
        raise GridFitError(
            f"support reflects outside the {n}x{n} array for {hp.encode()}")
    # Each cell reads its mirror image by flat index; an image off the
    # array reads the zero appended after the last cell.
    source = np.where(inside, (RJ + m) * n + (RI + m), n * n)
    mirrored = np.append(u.values, 0.0)[source]
    new = np.where(in_h, np.maximum(u.values, mirrored),
                   np.minimum(u.values, mirrored))
    return _moved(u, new)


def _moved(u: GridFunction, new: np.ndarray) -> GridFunction:
    """u itself when new holds its values unchanged, else new on u's grid."""
    return u if np.array_equal(new, u.values) else GridFunction._checked(
        u.m, u.h, new)


def _bilinear(u: GridFunction, fi: np.ndarray, fj: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at fractional indices, zero outside; indices
    within _SNAP_TOL of a cell center snap to it exactly."""
    ri = np.rint(fi)
    rj = np.rint(fj)
    fi = np.where(np.abs(fi - ri) < _SNAP_TOL, ri, fi)
    fj = np.where(np.abs(fj - rj) < _SNAP_TOL, rj, fj)
    i0 = np.floor(fi).astype(int)
    j0 = np.floor(fj).astype(int)
    ti = fi - i0
    tj = fj - j0
    m = u.m

    def sample(ii, jj):
        ok = (np.abs(ii) <= m) & (np.abs(jj) <= m)
        out = np.zeros(ii.shape)
        out[ok] = u.values[jj[ok] + m, ii[ok] + m]
        return out

    return ((1 - ti) * (1 - tj) * sample(i0, j0)
            + ti * (1 - tj) * sample(i0 + 1, j0)
            + (1 - ti) * tj * sample(i0, j0 + 1)
            + ti * tj * sample(i0 + 1, j0 + 1))


def polarize_grid_interp(u: GridFunction, h: Halfspace) -> GridFunction:
    """Pointwise polarization against a bilinear interpolant of u; exact when
    the halfspace coincides with a lattice hyperplane, O(h)-approximate
    otherwise."""
    if h.dimension != 2:
        raise ValueError("grid polarization needs a 2-D halfspace")
    m = u.m
    I, J = _index_grids(m)
    X = I * u.h
    Y = J * u.h
    nx, ny = h.normal
    t = nx * X + ny * Y - h.offset
    rx = X - 2.0 * t * nx
    ry = Y - 2.0 * t * ny
    mirrored = _bilinear(u, rx / u.h, ry / u.h)
    in_h = t <= 0
    new = np.where(in_h, np.maximum(u.values, mirrored),
                   np.minimum(u.values, mirrored))
    return GridFunction(m, u.h, new)


@lru_cache(maxsize=8)
def _canonical_cell_order(m: int) -> np.ndarray:
    """Flat (row-major) cell indices sorted by (i^2 + j^2, i, j)."""
    I, J = _index_grids(m)
    d2 = (I * I + J * J).ravel()
    return _read_only(np.lexsort((J.ravel(), I.ravel(), d2)))


def rearrange_grid(u: GridFunction) -> GridFunction:
    """Discrete Schwarz-like rearrangement: values sorted descending are
    assigned to cells in the canonical (distance^2, i, j) order."""
    order = _canonical_cell_order(u.m)
    new = np.empty(u.values.size)
    new[order] = np.sort(u.values, axis=None)[::-1]
    return _moved(u, new.reshape(u.values.shape))


@lru_cache(maxsize=8)
def _spiral_permutation(n: int) -> np.ndarray:
    """Permutation placing sorted-descending values on a length-n centered
    line in spiral order about the middle index."""
    return _read_only(np.array(spiral_sites(n)) + n // 2)


def steiner_rows(u: GridFunction, axis: Axis) -> GridFunction:
    """Steiner symmetrization with invariant subspace `axis`: every line
    orthogonal to the axis is replaced by its 1-D spiral rearrangement
    about index 0."""
    perm = _spiral_permutation(2 * u.m + 1)
    v = np.empty_like(u.values)
    if axis is Axis.X:
        # lines orthogonal to the X axis: fixed i, varying j (columns)
        v[perm, :] = np.sort(u.values, axis=0)[::-1, :]
    else:
        v[:, perm] = np.sort(u.values, axis=1)[:, ::-1]
    return _moved(u, v)


@lru_cache(maxsize=8)
def _gaussian_weights(m: int, h: float) -> np.ndarray:
    I, J = _index_grids(m)
    return _read_only(np.exp(-(I * I + J * J) * (h * h)))


def gaussian_cell_mass(u: GridFunction) -> float:
    """Sum of u(i, j) * exp(-(i^2+j^2) h^2) * h^2 in fixed cell order.
    ValueError when the mass leaves the float range."""
    w = _gaussian_weights(u.m, u.h)
    return finite_result(lambda: math.fsum((u.values * w).ravel()) * u.h * u.h,
                         "Gaussian cell mass")


def grid_lp_distance(u: GridFunction, v: GridFunction, p: float) -> float:
    """L^p distance of two grids with the same m and h; ValueError when it
    leaves the float range."""
    if u.m != v.m or u.h != v.h:
        raise ValueError("grids must share shape and cell size")
    return _lp_error(np.abs(u.values - v.values), u.h * u.h, p)


def _lp_error(diff: np.ndarray, cell: float, p: float) -> float:
    return finite_result(
        lambda: (math.fsum((diff ** p).ravel()) * cell) ** (1.0 / p), "L^p error")


def mixed_schedule(u: GridFunction, steps: Iterable, n_max: int,
                   p: float = 1.0, eps: float = 0.01) -> ConvergenceSeries:
    """Triangular scheme over a cyclic list of lattice hyperplanes and
    Steiner axes; records the distance to rearrange_grid(u) per outer step
    (row n=0 is the starting point)."""
    if not p > 0:
        raise ValueError("p must be > 0")
    steps = list(steps)
    if not steps:
        raise ValueError("need at least one step")
    target = rearrange_grid(u)
    return _triangular_scheme(
        u, steps, n_max,
        lambda state, step: (steiner_rows if isinstance(step, Axis)
                             else polarize_grid_exact)(state, step),
        lambda n, state, _: _grid_record(n, state, target, p, eps))


def _grid_record(n, current, target, p, eps):
    diff = np.abs(current.values - target.values)
    cell = current.h * current.h
    return ConvergenceRecord(
        n=n,
        lp_error=_lp_error(diff, cell, p),
        weighted_mass=gaussian_cell_mass(current),
        sup_error=float(diff.max()) if diff.size else 0.0,
        deviation_measure=float(np.count_nonzero(diff > eps)) * cell,
    )


# -- CSV format: first row "m,h"; then 2m+1 rows of 2m+1 values, row index
#    j from -m to m, column index i from -m to m. ---------------------------


def dumps(u: GridFunction) -> str:
    return _textio.dumps((u.m, u.h), float, u.values)


def loads(text: str) -> GridFunction:
    return _textio.loads(text, (int, float), float, GridFunction)


def write_csv(u: GridFunction, path) -> None:
    _textio.write_text(path, dumps(u))


def read_csv(path) -> GridFunction:
    return loads(_textio.read_text(path))
