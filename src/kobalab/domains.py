"""Model domains and convex bases.

Domain descriptors are small frozen dataclasses, safe to share across
workers.  Points are 1-d complex ndarrays (scalars are accepted at the API
edge and lifted).

Each model-domain kind is one class below (`_Kind` lists what it defines);
the module functions (`membership`, `escape_margin`, `domain_from_dict`,
...) validate their input and dispatch to it.  A kind's distance and
density engine is its entry in metric.py: adding a kind touches the two.

Each convex-base kind (EuclideanBall, Box, Polytope, LinearImage) is one
class too (`_Base` lists what it defines: membership, the support
function, chords, margins, facets, validation, ...); the `base_*`
functions, `chord_interval` and `to_polytope` dispatch to it.  Its tube
maths (affine-disc solver, product competitor) is its entry in tube.py.
Both kinds of class derive their codec from their dataclass fields.

The available kinds:

==================  =========================================================
UnitDisc            open unit disc in C
PuncturedDisc       unit disc minus the origin
Annulus(R)          1/R < |z| < R, R > 1
Strip(R)            -log R < Re z < log R (covers the annulus via exp)
LeftHalfPlane       Re z < 0 (covers the punctured disc via exp)
UnitBall(n)         Euclidean unit ball of C^n
Polydisc(n)         product of n unit discs
TubeOverBase(base)  {z : Re z in base}, base a bounded convex set in R^n
ReinhardtLog(base)  {z : z_j != 0, log|z| in base} = exp(TubeOverBase(base))
ScaledEllipsoid     A_t^{-1} of the perturbed ball {-1+|z|^2+eps|z-e_1|^4<0}
==================  =========================================================
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import get_args

import numpy as np

from ._sampling import ball_points, halton
from .mobius import ball_scaling_map

BOUNDARY_TOL = 1e-12


class DomainError(ValueError):
    """Dimension mismatches and malformed descriptors."""


class NonInteriorError(ValueError):
    """A point required to be interior is not."""


def as_point(z) -> np.ndarray:
    """Lift scalars/sequences to a 1-d complex ndarray and validate finiteness."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError("a point must be a scalar or a 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise DomainError("point has non-finite coordinates")
    return arr


def as_pairs(u, v) -> tuple[bool, np.ndarray, np.ndarray]:
    """(single, us, vs): one pair of points, or m pairs given as two (m, n)
    arrays, as two (m, n) complex arrays; `single` says it was one pair."""
    us = np.asarray(u, dtype=complex)
    single = us.ndim < 2
    us, vs = np.atleast_2d(us), np.atleast_2d(np.asarray(v, dtype=complex))
    if us.ndim != 2 or us.shape != vs.shape:
        raise ValueError("need two points of one dimension, or two (m, n) arrays of them")
    return single, us, vs


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (..., n) arrays (0 for n = 0), summed
    column by column, so a row's value never depends on how many rows are
    stacked."""
    out = a[..., 0] * b[..., 0] if a.shape[-1] else 0.0
    for j in range(1, a.shape[-1]):
        out = out + a[..., j] * b[..., j]
    return out


def distinct_rows(*arrays: np.ndarray):
    """Each distinct row of the arrays once, in order: pairs of a batch
    share their points, which are checked once each."""
    seen = set()
    for rows in arrays:
        for row in rows:
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                yield row


# ---------------------------------------------------------------------------
# the codec shared by base and model-domain kinds
# ---------------------------------------------------------------------------

class _Codec:
    """A descriptor is `kind` (the descriptor name) plus the dataclass
    fields, each mapped by the codec of its annotation; a field that is
    None is left out, and a field with a default may be missing."""

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name, _, encode, _ in _field_codecs(type(self)):
            value = getattr(self, name)
            if value is not None:
                out[name] = encode(value)
        return out

    @classmethod
    def from_dict(cls, data: dict):
        return cls(**{name: decode(data[name] if required else data.get(name))
                      for name, decode, _, required in _field_codecs(cls)})


# ---------------------------------------------------------------------------
# convex bases (log-images of Reinhardt domains, tube bases): one class per kind
# ---------------------------------------------------------------------------

class _Base(_Codec):
    """What a convex-base kind defines, with the shared defaults.

    `kind`, `dim`, `contains(x)`, `support(dirs)` (the support function
    h(d) = sup over the base of <d, x>, one value per row of an (m, n)
    array), `reference()` (an interior point), `facet_normals()` (outward
    normals when finitely many, else []), `margin(x)` (a slack no larger
    than the boundary distance), `chord(p, d)` (the interval of s with
    p + s d inside, p interior, as arrays of its ends over (m, n) rows p
    and d), `to_polytope(facets_per_pair)` (the facet
    export) and `linear_image(a)` (the exact image A(base), A invertible).
    `__post_init__` validates the fields; points reach the methods as
    float arrays of the right size.
    """

    def facet_normals(self) -> list[np.ndarray]:
        return []

    def to_polytope(self, facets_per_pair: int) -> Polytope:
        # tangent half-spaces: facets_per_pair directions per coordinate 2-plane
        n = self.dim
        dirs = [np.eye(n)[0], -np.eye(n)[0]] if n == 1 else []
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(facets_per_pair):
                    ang = 2.0 * math.pi * k / facets_per_pair
                    d = np.zeros(n)
                    d[i] = math.cos(ang)
                    d[j] = math.sin(ang)
                    dirs.append(d)
        offsets = self.support(np.vstack(dirs))
        return Polytope(tuple(tuple(d) for d in dirs), tuple(float(h) for h in offsets),
                        tuple(self.reference()))

    def linear_image(self, a: np.ndarray) -> ConvexBase:
        return LinearImage(tuple(tuple(float(x) for x in row) for row in a), self)


@dataclass(frozen=True)
class EuclideanBall(_Base):
    center: tuple[float, ...]
    radius: float
    kind = "ball"

    def __post_init__(self):
        if len(self.center) < 1:
            raise DomainError("ball center must have at least one coordinate")
        if self.radius <= 0:
            raise DomainError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, x):
        return float(np.linalg.norm(x - np.asarray(self.center))) < self.radius

    def support(self, dirs):
        return rowdot(dirs, np.asarray(self.center)) + self.radius * np.sqrt(rowdot(dirs, dirs))

    def reference(self):
        return np.asarray(self.center, dtype=float)

    def margin(self, x):
        return self.radius - float(np.linalg.norm(x - np.asarray(self.center)))

    def chord(self, p, d):
        q = p - np.asarray(self.center)
        aa = rowdot(d, d)
        bb = 2.0 * rowdot(q, d)
        cc = rowdot(q, q) - self.radius ** 2
        root = np.sqrt(np.maximum(bb * bb - 4.0 * aa * cc, 0.0))
        return (-bb - root) / (2.0 * aa), (-bb + root) / (2.0 * aa)

    def linear_image(self, a):
        # scalar multiples of a ball stay balls
        diag = a[0, 0]
        if np.allclose(a, diag * np.eye(len(a))) and diag != 0:
            center = diag * np.asarray(self.center)
            return EuclideanBall(tuple(float(c) for c in center), abs(float(diag)) * self.radius)
        return super().linear_image(a)


@dataclass(frozen=True)
class Box(_Base):
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    kind = "box"

    def __post_init__(self):
        if (len(self.lo) < 1 or len(self.lo) != len(self.hi)
                or any(l >= h for l, h in zip(self.lo, self.hi))):
            raise DomainError("box needs nonempty lo < hi coordinatewise")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x):
        return bool(np.all(x > np.asarray(self.lo)) and np.all(x < np.asarray(self.hi)))

    def support(self, dirs):
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.sum(np.where(dirs >= 0.0, dirs * hi, dirs * lo), axis=1)

    def reference(self):
        return 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))

    def facet_normals(self):
        eye = np.eye(self.dim)
        return [eye[j] for j in range(self.dim)] + [-eye[j] for j in range(self.dim)]

    def margin(self, x):
        return float(min(np.min(x - np.asarray(self.lo)), np.min(np.asarray(self.hi) - x)))

    def chord(self, p, d):
        moving = d != 0.0
        step = np.where(moving, d, 1.0)
        s1 = (np.asarray(self.lo) - p) / step
        s2 = (np.asarray(self.hi) - p) / step
        return (np.max(np.where(moving, np.minimum(s1, s2), -math.inf), axis=-1),
                np.min(np.where(moving, np.maximum(s1, s2), math.inf), axis=-1))

    def to_polytope(self, facets_per_pair):
        normals = tuple(tuple(row) for row in self.facet_normals())
        offsets = tuple(self.hi) + tuple(-l for l in self.lo)
        return Polytope(normals, offsets, tuple(self.reference()))


@dataclass(frozen=True)
class Polytope(_Base):
    """Open polytope {x : <n_i, x> < b_i}; an interior point may be supplied."""

    normals: tuple[tuple[float, ...], ...]
    offsets: tuple[float, ...]
    interior: tuple[float, ...] | None = None
    kind = "polytope"

    def __post_init__(self):
        n = len(self.normals[0]) if self.normals else 0
        if n < 1 or any(len(row) != n for row in self.normals):
            raise DomainError("polytope needs normals: nonempty rows of one length")
        if len(self.offsets) != len(self.normals):
            raise DomainError("polytope needs one offset per normal")
        if self.interior is not None and len(self.interior) != n:
            raise DomainError("polytope interior point has the wrong dimension")

    @property
    def dim(self) -> int:
        return len(self.normals[0])

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.normals, dtype=float), np.asarray(self.offsets, dtype=float)

    def contains(self, x):
        a, b = self._rows()
        return bool(np.all(a @ x < b))

    def support(self, dirs):
        return np.max(rowdot(dirs[:, None, :], _vertices(self)), axis=-1)

    def reference(self):
        if self.interior is not None:
            return np.asarray(self.interior, dtype=float)
        return _chebyshev_center(self).copy()

    def facet_normals(self):
        return [np.asarray(row, dtype=float) for row in self.normals]

    def margin(self, x):
        a, b = self._rows()
        return float(np.min((b - a @ x) / np.linalg.norm(a, axis=1)))

    def chord(self, p, d):
        a, b = self._rows()
        slack = b - rowdot(p[:, None, :], a)
        rate = rowdot(d[:, None, :], a)
        s = slack / np.where(rate == 0.0, 1.0, rate)
        return (np.max(np.where(rate < 0.0, s, -math.inf), axis=-1),
                np.min(np.where(rate > 0.0, s, math.inf), axis=-1))

    def to_polytope(self, facets_per_pair):
        return self


@functools.lru_cache(maxsize=64)
def _chebyshev_center(poly: Polytope) -> np.ndarray:
    """The polytope's Chebyshev center, solved once per descriptor:
    maximize r s.t. <n_i, x> + r |n_i| <= b_i."""
    from scipy.optimize import linprog

    a, b = poly._rows()
    n = a.shape[1]
    cols = np.hstack([a, np.linalg.norm(a, axis=1, keepdims=True)])
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=cols, b_ub=b, bounds=[(None, None)] * n + [(0, None)],
                  method="highs")
    if not res.success or res.x[-1] <= 0:
        raise DomainError("polytope has empty interior")
    center = res.x[:n]
    center.setflags(write=False)
    return center


@functools.lru_cache(maxsize=64)
def _vertices(poly: Polytope) -> np.ndarray:
    """The vertices of a bounded polytope as (k, n) rows, enumerated once
    per descriptor by intersecting its half-spaces about the Chebyshev
    center; an unbounded one raises DomainError."""
    from scipy.spatial import HalfspaceIntersection, QhullError

    a, b = poly._rows()
    center = _chebyshev_center(poly)
    if poly.dim == 1:
        # qhull needs two dimensions; a 1-d polytope with a center is the
        # bounded chord through it
        verts = center + np.stack(poly.chord(center[None], np.ones((1, 1))))
    else:
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                cut = HalfspaceIntersection(np.hstack([a, -b[:, None]]), center)
        except QhullError:
            # the dual points are too few or too flat to surround the center
            raise DomainError("polytope is unbounded") from None
        # bounded iff the center is strictly inside the hull of the dual points;
        # else some "vertices" are infinite
        if not np.all(cut.dual_equations[:, -1] < 0.0):
            raise DomainError("polytope is unbounded")
        verts = cut.intersections
    verts.setflags(write=False)
    return verts


@dataclass(frozen=True)
class LinearImage(_Base):
    """Exact linear image A(base) of another base, A invertible.

    Membership and support are delegated to the source through A^{-1} and
    A^T, so no facet approximation is involved.
    """

    matrix: tuple[tuple[float, ...], ...]
    base: ConvexBase
    inverse: np.ndarray = field(init=False, repr=False, compare=False)
    kind = "linear-image"

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix) or n != base_dim(self.base):
            raise DomainError("linear-image matrix must be square and match its base")
        try:
            inv = np.linalg.inv(np.asarray(self.matrix, dtype=float))
        except np.linalg.LinAlgError:
            raise DomainError("linear-image matrix must be invertible") from None
        inv.setflags(write=False)
        object.__setattr__(self, "inverse", inv)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def contains(self, x):
        return self.base.contains(self.inverse @ x)

    def support(self, dirs):
        # (dirs A)_kj = <dirs_k, column j of A>, one row at a time
        return self.base.support(rowdot(dirs[:, None, :],
                                        np.asarray(self.matrix, dtype=float).T[None, :, :]))

    def reference(self):
        return np.asarray(self.matrix, dtype=float) @ self.base.reference()

    def facet_normals(self):
        return [self.inverse.T @ d for d in self.base.facet_normals()]

    def margin(self, x):
        # |x - w| >= |A^{-1}x - A^{-1}w| / ||A^{-1}|| for boundary points w
        return self.base.margin(self.inverse @ x) / max(float(np.linalg.norm(self.inverse, 2)),
                                                         1e-300)

    def chord(self, p, d):
        return self.base.chord(rowdot(p[:, None, :], self.inverse),
                               rowdot(d[:, None, :], self.inverse))


ConvexBase = EuclideanBall | Box | Polytope | LinearImage
_BASES = {cls.kind: cls for cls in get_args(ConvexBase)}  # descriptor name -> kind
_BASE_TYPES = frozenset(_BASES.values())


def _known_base(base: ConvexBase) -> ConvexBase:
    if type(base) not in _BASE_TYPES:
        raise DomainError(f"unknown base {base!r}")
    return base


def base_dim(base: ConvexBase) -> int:
    return _known_base(base).dim


def base_membership(base: ConvexBase, x) -> bool:
    x = np.asarray(x, dtype=float)
    if x.shape != (base_dim(base),):
        raise DomainError("base point has wrong dimension")
    return base.contains(x)


def base_support(base: ConvexBase, d) -> float:
    """Support function h(d) = sup over the base of <d, x> (the one-row
    case of the kind's batch formula)."""
    return float(_known_base(base).support(np.asarray(d, dtype=float)[None, :])[0])


def base_reference(base: ConvexBase) -> np.ndarray:
    """A canonical interior point."""
    return _known_base(base).reference()


def base_facet_normals(base: ConvexBase) -> list[np.ndarray]:
    """Outward facet normals when the base has finitely many; else []."""
    return _known_base(base).facet_normals()


def base_margin(base: ConvexBase, x) -> float:
    """Distance-like slack of x inside the base (<= true boundary distance)."""
    return _known_base(base).margin(np.asarray(x, dtype=float))


def chord_interval(base: ConvexBase, p, direction) -> tuple[float, float]:
    """Parameter interval {s : p + s*direction in base}; p must be interior
    (the one-row case of the kind's `chord`)."""
    lo, hi = _known_base(base).chord(np.asarray(p, dtype=float)[None, :],
                                     np.asarray(direction, dtype=float)[None, :])
    return float(lo[0]), float(hi[0])


def to_polytope(base: ConvexBase, facets_per_pair: int = 64) -> Polytope:
    """Outer polytope approximation via tangent half-spaces.

    Exact for boxes/polytopes; smooth bases (balls, their linear images)
    get `facets_per_pair` tangent directions per coordinate 2-plane.  Kept
    for serialization/interop; internal computations use exact supports.
    """
    return _known_base(base).to_polytope(facets_per_pair)


# ---------------------------------------------------------------------------
# model domains: one class per kind
# ---------------------------------------------------------------------------

class _Kind(_Codec):
    """What a model-domain kind defines, with the shared defaults.

    `kind` (the descriptor name), `dim`, `contains(z)` (the membership
    formula), `reference()` (a canonical interior point) and `margin(z)`, a
    signed gauge of the boundary distance: positive inside, 0 on the
    boundary.  Unbounded kinds cap `escape_margin`.  Where a kind has them:
    `grid(count, skip, imag_window)`, quasi-random interior points, and
    `project(z)`, the boundary point an escaping z approaches.  The codec
    maps the dataclass fields.  Points reach these methods validated.
    """

    def reference(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=complex)

    def escape_margin(self, z: np.ndarray) -> float:
        return self.margin(z)


def _disc_grid(count: int, skip: int, inner: float) -> list[np.ndarray]:
    cube = halton(count, 2, skip=skip)
    pts = []
    for k in range(count):
        r = inner + (0.95 - inner) * cube[k, 0]
        th = 2.0 * math.pi * cube[k, 1]
        pts.append(np.array([r * complex(math.cos(th), math.sin(th))]))
    return pts


@dataclass(frozen=True)
class UnitDisc(_Kind):
    kind = "unit-disc"
    dim = 1

    def contains(self, z):
        return abs(z[0]) < 1.0

    def margin(self, z):
        return 1.0 - abs(z[0])

    def grid(self, count, skip, imag_window):
        return _disc_grid(count, skip, 0.0)

    def project(self, z):
        return z / float(np.linalg.norm(z))


@dataclass(frozen=True)
class PuncturedDisc(_Kind):
    kind = "punctured-disc"
    dim = 1

    def contains(self, z):
        return 0.0 < abs(z[0]) < 1.0

    def reference(self):
        return np.array([0.5 + 0.0j])

    def margin(self, z):
        return min(1.0 - abs(z[0]), abs(z[0]))

    def grid(self, count, skip, imag_window):
        return _disc_grid(count, skip, 0.05)

    def project(self, z):
        r = abs(z[0])
        if r < 0.5:
            return np.array([0.0 + 0.0j])
        return z / r


@dataclass(frozen=True)
class Annulus(_Kind):
    R: float
    kind = "annulus"
    dim = 1

    def __post_init__(self):
        if self.R <= 1.0:
            raise DomainError("annulus needs R > 1")

    def contains(self, z):
        return 1.0 / self.R < abs(z[0]) < self.R

    def reference(self):
        return np.array([1.0 + 0.0j])

    def margin(self, z):
        return min(self.R - abs(z[0]), abs(z[0]) - 1.0 / self.R)

    def grid(self, count, skip, imag_window):
        a = math.log(self.R)
        cube = halton(count, 2, skip=skip)
        return [np.array([math.exp(a * (2.0 * cube[k, 0] - 1.0) * 0.95)
                          * complex(math.cos(2.0 * math.pi * cube[k, 1]),
                                    math.sin(2.0 * math.pi * cube[k, 1]))])
                for k in range(count)]

    def project(self, z):
        r = abs(z[0])
        target = self.R if abs(r - self.R) <= abs(r - 1.0 / self.R) else 1.0 / self.R
        return z * (target / r)


@dataclass(frozen=True)
class Strip(_Kind):
    """H_R = {-log R < Re z < log R}."""

    R: float
    kind = "strip"
    dim = 1

    def __post_init__(self):
        if self.R <= 1.0:
            raise DomainError("strip needs R > 1")

    @property
    def halfwidth(self) -> float:
        return math.log(self.R)

    def contains(self, z):
        return abs(z[0].real) < self.halfwidth

    def margin(self, z):
        return self.halfwidth - abs(z[0].real)

    def escape_margin(self, z):
        return min(self.margin(z), 1.0 / (1.0 + abs(z[0].imag)))

    def grid(self, count, skip, imag_window):
        a = self.halfwidth
        cube = halton(count, 2, skip=skip)
        return [np.array([complex(a * (2.0 * cube[k, 0] - 1.0) * 0.95,
                                  imag_window * (2.0 * cube[k, 1] - 1.0))])
                for k in range(count)]


@dataclass(frozen=True)
class LeftHalfPlane(_Kind):
    """{Re z < 0}; the exp-cover of the punctured disc."""

    kind = "left-half-plane"
    dim = 1

    def contains(self, z):
        return z[0].real < 0.0

    def reference(self):
        return np.array([-1.0 + 0.0j])

    def margin(self, z):
        return -z[0].real

    def escape_margin(self, z):
        return min(self.margin(z), 1.0 / (1.0 + abs(z[0])))


@dataclass(frozen=True)
class UnitBall(_Kind):
    dim: int
    kind = "unit-ball"

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("ball dimension must be >= 1")

    def contains(self, z):
        return float(np.sum(np.abs(z) ** 2)) < 1.0

    def margin(self, z):
        return 1.0 - float(np.linalg.norm(z))

    def grid(self, count, skip, imag_window):
        return [np.asarray(p) for p in ball_points(count, self.dim, radius=0.9)]

    def project(self, z):
        return z / float(np.linalg.norm(z))


@dataclass(frozen=True)
class Polydisc(_Kind):
    dim: int
    kind = "polydisc"

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("polydisc dimension must be >= 1")

    def contains(self, z):
        return bool(np.all(np.abs(z) < 1.0))

    def margin(self, z):
        return float(np.min(1.0 - np.abs(z)))


@dataclass(frozen=True)
class TubeOverBase(_Kind):
    base: ConvexBase
    kind = "tube"

    @property
    def dim(self) -> int:
        return self.base.dim

    def contains(self, z):
        return self.base.contains(z.real)

    def reference(self):
        return self.base.reference().astype(complex)

    def margin(self, z):
        return self.base.margin(z.real)

    def escape_margin(self, z):
        return min(self.margin(z), 1.0 / (1.0 + float(np.linalg.norm(z.imag))))


@dataclass(frozen=True)
class ReinhardtLog(_Kind):
    base: ConvexBase
    kind = "reinhardt-log"

    @property
    def dim(self) -> int:
        return self.base.dim

    def contains(self, z):
        if np.any(np.abs(z) == 0.0):
            return False
        return self.base.contains(np.log(np.abs(z)))

    def reference(self):
        return np.exp(self.base.reference()).astype(complex)

    def margin(self, z):
        if np.any(np.abs(z) == 0.0):
            return 0.0
        return self.base.margin(np.log(np.abs(z)))

    def grid(self, count, skip, imag_window):
        n = self.dim
        ref = self.base.reference()
        cube = halton(count, 2 * n + 1, skip=skip)
        pts = []
        for k in range(count):
            direction = cube[k, :n] - 0.5
            norm = float(np.linalg.norm(direction))
            if norm < 1e-12:
                direction = np.eye(n)[0]
                norm = 1.0
            direction = direction / norm
            lo, hi = chord_interval(self.base, ref, direction)
            u = ref + (0.9 * cube[k, 2 * n] * hi) * direction
            phases = 2.0 * math.pi * cube[k, n:2 * n]
            pts.append(np.exp(u) * np.exp(1j * phases))
        return pts

    def project(self, z):
        u = np.log(np.abs(z))
        ref = self.base.reference()
        direction = u - ref
        norm = float(np.linalg.norm(direction))
        if norm < 1e-14:
            raise DomainError("cannot project the base reference point")
        lo, hi = chord_interval(self.base, ref, direction / norm)
        u_b = ref + hi * direction / norm
        return np.exp(u_b) * z / np.abs(z)


@dataclass(frozen=True)
class ScaledEllipsoid(_Kind):
    """A_t^{-1}(Omega_0) for Omega_0 = {-1 + |z|^2 + eps |z - e_1|^4 < 0}."""

    eps: float
    t: float
    dim: int = 2
    kind = "scaled-ellipsoid"

    def __post_init__(self):
        if self.eps < 0.0:
            raise DomainError("eps must be >= 0")
        if not 0.0 <= self.t < 1.0:
            raise DomainError("scaling parameter t must lie in [0, 1)")

    def _rho(self, z) -> float:
        return ellipsoid_defining_function(self.eps, ball_scaling_map(self.t, z))

    def contains(self, z):
        return self._rho(z) < 0.0

    def margin(self, z):
        # defining-function residual; gradient has modulus ~2 near the sphere
        return -self._rho(z) / 2.0

    def escape_margin(self, z):
        return max(0.0, self.margin(z))


ModelDomain = (UnitDisc | PuncturedDisc | Annulus | Strip | LeftHalfPlane | UnitBall
               | Polydisc | TubeOverBase | ReinhardtLog | ScaledEllipsoid)
_KINDS = {cls.kind: cls for cls in get_args(ModelDomain)}  # descriptor name -> kind
_KIND_TYPES = frozenset(_KINDS.values())


def _known(domain: ModelDomain) -> ModelDomain:
    if type(domain) not in _KIND_TYPES:
        raise DomainError(f"unknown domain {domain!r}")
    return domain


def dim(domain: ModelDomain) -> int:
    return _known(domain).dim


def log_coordinates(z) -> np.ndarray:
    """(log|z_1|, ..., log|z_n|); every coordinate must be nonzero."""
    z = as_point(z)
    mags = np.abs(z)
    if np.any(mags == 0.0):
        raise DomainError("log coordinates need all z_j != 0")
    return np.log(mags)


def ellipsoid_defining_function(eps: float, z) -> float:
    """rho(z) = -1 + |z|^2 + eps |z - e_1|^4; Omega_0 = {rho < 0}.

    The quartic term is the fixed perturbation vanishing to order 4 at e_1,
    so Omega_0 agrees with the unit ball to higher than second order there.
    """
    if eps < 0.0:
        raise DomainError("eps must be >= 0")
    z = as_point(z)
    e1 = np.zeros(z.size, dtype=complex)
    e1[0] = 1.0
    d2 = float(np.sum(np.abs(z - e1) ** 2))
    return -1.0 + float(np.sum(np.abs(z) ** 2)) + eps * d2 * d2


def _domain_point(domain: ModelDomain, z) -> np.ndarray:
    """z as a validated point of the domain's dimension."""
    z = as_point(z)
    if z.size != dim(domain):
        raise DomainError(f"point dimension {z.size} does not match domain {domain!r}")
    return z


def membership(domain: ModelDomain, z) -> bool:
    """True iff z is an interior point of the domain."""
    return domain.contains(_domain_point(domain, z))


def require_interior(domain: ModelDomain, z) -> np.ndarray:
    z = _domain_point(domain, z)
    if not domain.contains(z):
        raise NonInteriorError(f"point {z} is not interior to {domain!r}")
    return z


def reference_point(domain: ModelDomain) -> np.ndarray:
    """The canonical interior point used by grids and validity checks."""
    return _known(domain).reference()


def escape_margin(domain: ModelDomain, z) -> float:
    """Positive gauge of how far z sits from escaping the domain.

    For bounded kinds this is (an underestimate of) the Euclidean boundary
    distance; unbounded kinds also decay as |Im z| grows so that compactly
    divergent sequences are detected.
    """
    return _known(domain).escape_margin(as_point(z))


def boundary_residual(domain: ModelDomain, z) -> float:
    """How far z is from the topological boundary (0 = exactly on it)."""
    return abs(_known(domain).margin(as_point(z)))


@dataclass(frozen=True)
class BoundaryPoint:
    """A point certified to lie on the boundary of its domain."""

    domain: ModelDomain
    point: tuple[complex, ...]

    def __post_init__(self):
        res = boundary_residual(self.domain, np.asarray(self.point))
        if res > BOUNDARY_TOL:
            raise DomainError(f"point is {res:.3e} away from the boundary")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.point, dtype=complex)


def boundary_point(domain: ModelDomain, z) -> BoundaryPoint:
    z = as_point(z)
    return BoundaryPoint(domain, tuple(complex(c) for c in z))


# ---------------------------------------------------------------------------
# serialization (schemas/v1); round-trips are lossless
# ---------------------------------------------------------------------------

def _decoder(from_fields):
    """Wrap a descriptor decoder so that a non-object descriptor, or the
    built-in error of a missing or unconvertible field, raises DomainError;
    the package's own errors (subclasses) pass unchanged."""
    @functools.wraps(from_fields)
    def from_dict(data):
        if not isinstance(data, dict):
            raise DomainError(f"a descriptor must be a JSON object, not {data!r}")
        try:
            return from_fields(data)
        except (KeyError, TypeError, ValueError) as exc:
            if type(exc) not in (KeyError, TypeError, ValueError):
                raise
            raise DomainError(f"malformed descriptor {data!r}: {exc!r}") from exc
    return from_dict


def base_to_dict(base: ConvexBase) -> dict:
    return _known_base(base).to_dict()


@_decoder
def base_from_dict(data: dict) -> ConvexBase:
    kind = data.get("kind")
    if kind not in _BASES:
        raise DomainError(f"unknown base kind {kind!r}")
    return _BASES[kind].from_dict(data)


def _floats(values) -> tuple[float, ...]:
    return tuple(float(c) for c in values)


# (decode, encode) of a kind's field by its annotation, a string (PEP 563)
_CODEC_BY_ANNOTATION = {
    "float": (float, lambda x: x), "int": (int, lambda x: x),
    "tuple[float, ...]": (_floats, list),
    "tuple[float, ...] | None": (lambda v: None if v is None else _floats(v), list),
    "tuple[tuple[float, ...], ...]": (lambda rows: tuple(_floats(r) for r in rows),
                                      lambda rows: [list(r) for r in rows]),
    "ConvexBase": (base_from_dict, base_to_dict),
}


@functools.cache
def _field_codecs(cls: type) -> tuple:
    """(name, decode, encode, required) for each constructor field of a
    kind, in field order."""
    return tuple((f.name, *_CODEC_BY_ANNOTATION[f.type], f.default is MISSING)
                 for f in fields(cls) if f.init)


def domain_to_dict(domain: ModelDomain) -> dict:
    return _known(domain).to_dict()


@_decoder
def domain_from_dict(data: dict) -> ModelDomain:
    kind = data.get("kind")
    if kind not in _KINDS:
        raise DomainError(f"unknown domain kind {kind!r}")
    return _KINDS[kind].from_dict(data)
