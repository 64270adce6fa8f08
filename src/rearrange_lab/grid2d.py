"""2-D engine on a centered square index lattice.

Two polarization modes: an exact one restricted to the four grid-preserving
reflection families (axis and diagonal hyperplanes), which moves values
without recomputing them, and a bilinear-interpolated one for arbitrary
halfspaces with honest O(h) discretization error.  Rearrangement and Steiner
row symmetrization are exact sort-and-assign operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from . import _textio
from .errors import ParseError
from .halfspace import Halfspace
from .series import ConvergenceRecord, ConvergenceSeries, _triangular_scheme

_SNAP_TOL = 1e-9   # cells; interpolation snaps to centers this close


class GridFitError(Exception):
    """A positive value would reflect outside the array; enlarge m."""


class Axis(Enum):
    """Invariant subspace of a Steiner symmetrization."""

    X = "x"
    Y = "y"


class HyperplaneKind(Enum):
    X = "x"            # H = {i <= s},      reflection (i, j) -> (2s-i, j)
    Y = "y"            # H = {j <= s},      reflection (i, j) -> (i, 2s-j)
    DIAG_UP = "up"     # H = {i+j <= s},    reflection (i, j) -> (s-j, s-i)
    DIAG_DOWN = "down"  # H = {i-j <= s},   reflection (i, j) -> (s+j, i-s)


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
        name = {HyperplaneKind.X: "X", HyperplaneKind.Y: "Y",
                HyperplaneKind.DIAG_UP: "U", HyperplaneKind.DIAG_DOWN: "D"}
        return f"dir={name[self.kind]},s={format(self.s, '.17g')}"

    @classmethod
    def parse(cls, text: str) -> "LatticeHyperplane":
        try:
            fields = dict(part.split("=", 1) for part in text.strip().split(","))
            kind = {"X": HyperplaneKind.X, "Y": HyperplaneKind.Y,
                    "U": HyperplaneKind.DIAG_UP, "D": HyperplaneKind.DIAG_DOWN}[
                        fields["dir"].upper()]
            return cls(kind, float(fields["s"]))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad hyperplane encoding {text!r}") from exc


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
        return hash((self.m, self.h, self.values.tobytes()))

    def __repr__(self) -> str:
        return f"GridFunction(m={self.m}, h={self.h})"


def _index_grids(m: int):
    rng = np.arange(-m, m + 1)
    return np.meshgrid(rng, rng, indexing="xy")   # I varies along columns


def _reflect_arrays(hp: LatticeHyperplane, I, J):
    s2 = round(2 * hp.s)
    s1 = round(hp.s)
    if hp.kind is HyperplaneKind.X:
        return s2 - I, J
    if hp.kind is HyperplaneKind.Y:
        return I, s2 - J
    if hp.kind is HyperplaneKind.DIAG_UP:
        return s1 - J, s1 - I
    return s1 + J, I - s1


def _membership_arrays(hp: LatticeHyperplane, I, J):
    if hp.kind is HyperplaneKind.X:
        return I <= hp.s
    if hp.kind is HyperplaneKind.Y:
        return J <= hp.s
    if hp.kind is HyperplaneKind.DIAG_UP:
        return I + J <= hp.s
    return I - J <= hp.s


def polarize_grid_exact(u: GridFunction, hp: LatticeHyperplane) -> GridFunction:
    """Pairwise polarization along a grid-preserving reflection: within each
    orbit {p, sigma(p)} the larger value goes to the H side.  Raises
    GridFitError if a positive value would have to leave the array."""
    m = u.m
    I, J = _index_grids(m)
    RI, RJ = _reflect_arrays(hp, I, J)
    inside = (np.abs(RI) <= m) & (np.abs(RJ) <= m)
    in_h = _membership_arrays(hp, I, J)
    escapes = ~inside & ~in_h & (u.values > 0)
    if np.any(escapes):
        raise GridFitError(
            f"support reflects outside the {2*m+1}x{2*m+1} array for {hp}")
    mirrored = np.zeros_like(u.values)
    mirrored[inside] = u.values[RJ[inside] + m, RI[inside] + m]
    new = np.where(in_h, np.maximum(u.values, mirrored),
                   np.minimum(u.values, mirrored))
    out = GridFunction(m, u.h, new)
    return u if out == u else out


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


def _canonical_cell_order(m: int) -> np.ndarray:
    """Flat (row-major) cell indices sorted by (i^2 + j^2, i, j)."""
    I, J = _index_grids(m)
    d2 = (I * I + J * J).ravel()
    return np.lexsort((J.ravel(), I.ravel(), d2))


def rearrange_grid(u: GridFunction) -> GridFunction:
    """Discrete Schwarz-like rearrangement: values sorted descending are
    assigned to cells in the canonical (distance^2, i, j) order."""
    order = _canonical_cell_order(u.m)
    new = np.empty(u.values.size)
    new[order] = np.sort(u.values, axis=None)[::-1]
    out = GridFunction(u.m, u.h, new.reshape(u.values.shape))
    return u if out == u else out


def _spiral_permutation(n: int) -> np.ndarray:
    """Permutation placing sorted-descending values on a length-n centered
    line in spiral order about the middle index."""
    m = n // 2
    offsets = np.arange(-m, m + 1)
    ranks = np.where(offsets > 0, 2 * offsets - 1, -2 * offsets)
    return np.argsort(ranks, kind="stable")


def steiner_rows(u: GridFunction, axis: Axis) -> GridFunction:
    """Steiner symmetrization with invariant subspace `axis`: every line
    orthogonal to the axis is replaced by its 1-D spiral rearrangement
    about index 0."""
    n = 2 * u.m + 1
    perm = _spiral_permutation(n)
    v = u.values.copy()
    if axis is Axis.X:
        # lines orthogonal to the X axis: fixed i, varying j (columns)
        for col in range(n):
            line = np.sort(v[:, col])[::-1]
            v[perm, col] = line
    else:
        for row in range(n):
            line = np.sort(v[row, :])[::-1]
            v[row, perm] = line
    out = GridFunction(u.m, u.h, v)
    return u if out == u else out


def gaussian_cell_mass(u: GridFunction) -> float:
    """Sum of u(i, j) * exp(-(i^2+j^2) h^2) * h^2 in fixed cell order."""
    I, J = _index_grids(u.m)
    w = np.exp(-(I * I + J * J) * (u.h * u.h))
    return float(math.fsum((u.values * w).ravel()) * u.h * u.h)


def grid_lp_distance(u: GridFunction, v: GridFunction, p: float) -> float:
    if u.m != v.m or u.h != v.h:
        raise ValueError("grids must share shape and cell size")
    diff = np.abs(u.values - v.values)
    cell = u.h * u.h
    return float(math.fsum((diff ** p).ravel()) * cell) ** (1.0 / p)


def mixed_schedule(u: GridFunction, steps: Iterable, n_max: int,
                   p: float = 1.0, eps: float = 0.01) -> ConvergenceSeries:
    """Triangular scheme over a cyclic list of lattice hyperplanes and
    Steiner axes; records the distance to rearrange_grid(u) per outer step
    (row n=0 is the starting point)."""
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
        lp_error=float(math.fsum((diff ** p).ravel()) * cell) ** (1.0 / p),
        weighted_mass=gaussian_cell_mass(current),
        sup_error=float(diff.max()) if diff.size else 0.0,
        deviation_measure=float(np.count_nonzero(diff > eps)) * cell,
    )


# -- CSV format: first row "m,h"; then 2m+1 rows of 2m+1 values, row index
#    j from -m to m, column index i from -m to m. ---------------------------


def dumps(u: GridFunction) -> str:
    lines = [f"{u.m},{format(u.h, '.17g')}"]
    for row in u.values:
        lines.append(",".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"


def loads(text: str) -> GridFunction:
    lines = _textio.data_lines(text)
    if not lines:
        raise ParseError("empty grid file")
    head = lines[0].split(",")
    if len(head) != 2:
        raise ParseError("expected grid header 'm,h'")
    try:
        m = int(head[0])
        h = float(head[1])
    except ValueError as exc:
        raise ParseError(f"bad grid header {lines[0]!r}") from exc
    rows = []
    for line in lines[1:]:
        try:
            rows.append([float(x) for x in line.split(",")])
        except ValueError as exc:
            raise ParseError(f"bad grid row {line!r}") from exc
    try:
        return GridFunction(m, h, rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_csv(u: GridFunction, path) -> None:
    _textio.write_text(path, dumps(u))


def read_csv(path) -> GridFunction:
    return loads(_textio.read_text(path))
