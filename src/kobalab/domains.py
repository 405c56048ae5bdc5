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

Every descriptor kind (domain, base, map in coverings.py, and family and
geodesic in serialize.py) decodes the same way: `_kind_decoder` looks its
`kind` up in a registry of constructors (kind classes or functions) and
calls it with each parameter decoded from the field of that name by the
codec of its annotation; a missing field takes its default, and a field
that names no parameter is refused.  The number codecs are strict: int
fields take integral JSON numbers, float fields finite ones.

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
import inspect
import math
import numbers
from dataclasses import dataclass, field
from typing import get_args

import numpy as np

from ._sampling import ball_points, halton
from .mobius import POLE_TOL, ball_scaling_map

BOUNDARY_TOL = 1e-12


class DomainError(ValueError):
    """Dimension mismatches and malformed descriptors."""


class NonInteriorError(ValueError):
    """A point required to be interior is not."""


# a point of C^n, as `as_point` makes it (the codec annotation of point fields)
Point = np.ndarray


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


# ---------------------------------------------------------------------------
# the codec shared by base and model-domain kinds
# ---------------------------------------------------------------------------

class _Codec:
    """A descriptor is `kind` (the descriptor name) plus the constructor
    fields, each mapped by the codec of its annotation (`_field_codecs`);
    a field that is None is left out."""

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name, _, encode, _ in _field_codecs(type(self)):
            value = getattr(self, name)
            if value is not None:
                out[name] = encode(value)
        return out


# ---------------------------------------------------------------------------
# convex bases (log-images of Reinhardt domains, tube bases): one class per kind
# ---------------------------------------------------------------------------

class _Base(_Codec):
    """What a convex-base kind defines, with the shared defaults.

    `kind`, `dim`, `contains(xs)` (the membership verdict of each row of
    an (N, n) array), `support(dirs)` (the support function h(d) = sup
    over the base of <d, x>, one value per row of an (m, n) array),
    `reference()` (an interior point), `facet_normals()` (outward normals
    when finitely many, else []), `margin(x)` (a slack no larger than the
    boundary distance), `chord(p, d)` (the interval of s with p + s d
    inside, p interior, as arrays of its ends over (m, n) rows p and d;
    an unbounded polytope, whose chords can be infinite, raises
    DomainError), `to_polytope(facets_per_pair)` (the facet export) and
    `linear_image(a)` (the exact image A(base), A invertible).
    `__post_init__` validates the fields; points reach the methods as
    float arrays of the right size.  Row-wise methods sum column by column
    (`rowdot`), so a row's value never depends on the rest of its batch.
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

    def contains(self, xs):
        q = xs - np.asarray(self.center)
        return np.sqrt(rowdot(q, q)) < self.radius

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

    def contains(self, xs):
        return np.all(xs > np.asarray(self.lo), axis=-1) & np.all(xs < np.asarray(self.hi), axis=-1)

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

    def contains(self, xs):
        a, b = self._rows()
        return np.all(rowdot(xs[:, None, :], a) < b, axis=-1)

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
        ends = (np.max(np.where(rate < 0.0, s, -math.inf), axis=-1),
                np.min(np.where(rate > 0.0, s, math.inf), axis=-1))
        if not (np.isfinite(ends[0]).all() and np.isfinite(ends[1]).all()):
            # no facet stops the line through an interior point: a ray lies inside
            raise DomainError("polytope is unbounded")
        return ends

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
    if res.status == 3:
        # the inscribed radius grows without bound
        raise DomainError("polytope is unbounded")
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

    def contains(self, xs):
        return self.base.contains(rowdot(xs[:, None, :], self.inverse))

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
    """True iff x is an interior point of the base (the one-row case of the
    kind's `contains`)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (base_dim(base),):
        raise DomainError("base point has wrong dimension")
    return bool(base.contains(x[None])[0])


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

    `kind` (the descriptor name), `dim`, `contains(zs)` (the membership
    formula, one verdict per row of an (N, n) array, summed column by
    column so that a row's verdict never depends on its batch),
    `reference()` (a canonical interior point) and `margin(z)`, a signed
    gauge of the boundary distance: positive inside, 0 on the boundary.
    Unbounded kinds cap `escape_margin`.  Where a kind has them:
    `grid(count, skip)`, quasi-random interior points as the rows of a
    (count, n) array, built over the whole Halton cube at once, and
    `project(z)`, the boundary point an escaping z approaches.  The codec
    maps the constructor fields.  Points reach these methods validated and
    finite.
    """

    def reference(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=complex)

    def escape_margin(self, z: np.ndarray) -> float:
        return self.margin(z)


def _polar_rows(r: np.ndarray, th: np.ndarray) -> np.ndarray:
    """(N, 1) rows r e^{i th}, with the real and imaginary parts r cos th
    and r sin th of `r * complex(math.cos(th), math.sin(th))`."""
    pts = (r * np.cos(th)).astype(complex)
    pts.imag = r * np.sin(th)
    return pts[:, None]


def _disc_grid(count: int, skip: int, inner: float) -> np.ndarray:
    cube = halton(count, 2, skip=skip)
    return _polar_rows(inner + (0.95 - inner) * cube[:, 0], 2.0 * math.pi * cube[:, 1])


@dataclass(frozen=True)
class UnitDisc(_Kind):
    kind = "unit-disc"
    dim = 1

    def contains(self, zs):
        return np.abs(zs[:, 0]) < 1.0

    def margin(self, z):
        return 1.0 - abs(z[0])

    def grid(self, count, skip):
        return _disc_grid(count, skip, 0.0)

    def project(self, z):
        return z / float(np.linalg.norm(z))


@dataclass(frozen=True)
class PuncturedDisc(_Kind):
    kind = "punctured-disc"
    dim = 1

    def contains(self, zs):
        r = np.abs(zs[:, 0])
        return (0.0 < r) & (r < 1.0)

    def reference(self):
        return np.array([0.5 + 0.0j])

    def margin(self, z):
        return min(1.0 - abs(z[0]), abs(z[0]))

    def grid(self, count, skip):
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

    def contains(self, zs):
        r = np.abs(zs[:, 0])
        return (1.0 / self.R < r) & (r < self.R)

    def reference(self):
        return np.array([1.0 + 0.0j])

    def margin(self, z):
        return min(self.R - abs(z[0]), abs(z[0]) - 1.0 / self.R)

    def grid(self, count, skip):
        a = math.log(self.R)
        cube = halton(count, 2, skip=skip)
        # math.exp, not np.exp: the two differ in the last bit on some arguments
        radii = np.array([math.exp(x) for x in a * (2.0 * cube[:, 0] - 1.0) * 0.95])
        return _polar_rows(radii, 2.0 * math.pi * cube[:, 1])

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

    def contains(self, zs):
        return np.abs(zs[:, 0].real) < self.halfwidth

    def margin(self, z):
        return self.halfwidth - abs(z[0].real)

    def escape_margin(self, z):
        return min(self.margin(z), 1.0 / (1.0 + abs(z[0].imag)))

    def grid(self, count, skip):
        cube = halton(count, 2, skip=skip)
        pts = (self.halfwidth * (2.0 * cube[:, 0] - 1.0) * 0.95).astype(complex)
        # imaginary parts spread over [-4, 4]
        pts.imag = 4.0 * (2.0 * cube[:, 1] - 1.0)
        return pts[:, None]


@dataclass(frozen=True)
class LeftHalfPlane(_Kind):
    """{Re z < 0}; the exp-cover of the punctured disc."""

    kind = "left-half-plane"
    dim = 1

    def contains(self, zs):
        return zs[:, 0].real < 0.0

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

    def contains(self, zs):
        r = np.abs(zs)
        return rowdot(r, r) < 1.0

    def margin(self, z):
        return 1.0 - float(np.linalg.norm(z))

    def grid(self, count, skip):
        pts = ball_points(count, self.dim, radius=0.9)
        return np.array(pts, dtype=complex).reshape(count, self.dim)

    def project(self, z):
        return z / float(np.linalg.norm(z))


@dataclass(frozen=True)
class Polydisc(_Kind):
    dim: int
    kind = "polydisc"

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("polydisc dimension must be >= 1")

    def contains(self, zs):
        return np.all(np.abs(zs) < 1.0, axis=-1)

    def margin(self, z):
        return float(np.min(1.0 - np.abs(z)))


@dataclass(frozen=True)
class TubeOverBase(_Kind):
    base: ConvexBase
    kind = "tube"

    @property
    def dim(self) -> int:
        return self.base.dim

    def contains(self, zs):
        return self.base.contains(zs.real)

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

    def contains(self, zs):
        mags = np.abs(zs)
        nonzero = np.all(mags != 0.0, axis=-1)
        # a row with a zero coordinate is outside (its logs are taken of 1)
        return nonzero & self.base.contains(np.log(np.where(nonzero[:, None], mags, 1.0)))

    def reference(self):
        return np.exp(self.base.reference()).astype(complex)

    def margin(self, z):
        if np.any(np.abs(z) == 0.0):
            return 0.0
        return self.base.margin(np.log(np.abs(z)))

    def grid(self, count, skip):
        n = self.dim
        ref = self.base.reference()
        cube = halton(count, 2 * n + 1, skip=skip)
        direction = cube[:, :n] - 0.5
        norm = np.sqrt(rowdot(direction, direction))
        flat = norm < 1e-12
        direction[flat] = np.eye(n)[0]
        norm[flat] = 1.0
        direction /= norm[:, None]
        _, hi = self.base.chord(np.broadcast_to(ref, direction.shape), direction)
        u = ref + (0.9 * cube[:, 2 * n] * hi)[:, None] * direction
        phases = 2.0 * math.pi * cube[:, n:2 * n]
        return np.exp(u) * np.exp(1j * phases)

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
        check_eps(self.eps)
        if not 0.0 <= self.t < 1.0:
            raise DomainError("scaling parameter t must lie in [0, 1)")

    def _rho(self, zs) -> np.ndarray:
        return _ellipsoid_rho(self.eps, ball_scaling_map(self.t, zs))

    def contains(self, zs):
        # a row at the pole of A_t lies outside the ball, so outside Omega_t;
        # it is mapped as 0 instead, so that it cannot raise for its batch
        pole = np.abs(1.0 + self.t * zs[:, 0]) < POLE_TOL
        return ~pole & (self._rho(np.where(pole[:, None], 0.0, zs)) < 0.0)

    def margin(self, z):
        # defining-function residual; gradient has modulus ~2 near the sphere
        return -float(self._rho(z[None])[0]) / 2.0

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
    return float(_ellipsoid_rho(check_eps(eps), as_point(z)[None])[0])


def check_eps(eps: float) -> float:
    """eps, the quartic weight of Omega_0, once it is known finite and >= 0."""
    if not 0.0 <= eps < math.inf:
        raise DomainError(f"eps must be finite and >= 0, got {eps}")
    return eps


def _ellipsoid_rho(eps: float, zs: np.ndarray) -> np.ndarray:
    """rho of each row of an (N, n) array."""
    shifted = zs.copy()
    shifted[:, 0] -= 1.0
    d = np.abs(shifted)
    r = np.abs(zs)
    d2 = rowdot(d, d)
    return -1.0 + rowdot(r, r) + eps * d2 * d2


def _domain_point(domain: ModelDomain, z) -> np.ndarray:
    """z as a validated point of the domain's dimension."""
    z = as_point(z)
    if z.size != dim(domain):
        raise DomainError(f"point dimension {z.size} does not match domain {domain!r}")
    return z


def membership(domain: ModelDomain, z) -> bool:
    """True iff z is an interior point of the domain (the one-row case of
    the kind's `contains`)."""
    return bool(domain.contains(_domain_point(domain, z)[None])[0])


def require_interior(domain: ModelDomain, z) -> np.ndarray:
    """z as a checked interior point of the domain.

    z is one point (a scalar or 1-d sequence, returned as a 1-d complex
    array) or a batch of points as the rows of an (N, n) array (returned
    as an (N, n) complex array), checked with one `contains` call.  A bad
    batch raises the error its first bad row would raise on its own:
    DomainError for a malformed, non-finite or wrong-dimension point,
    NonInteriorError for one outside the domain.
    """
    arr = np.asarray(z, dtype=complex)
    if arr.ndim > 2:
        raise DomainError("a point must be a scalar or a 1-d sequence")
    single = arr.ndim < 2
    rows = arr.reshape(1, -1) if single else arr
    fits = rows.shape[1] == dim(domain)
    if fits and np.isfinite(rows).all():
        inside = domain.contains(rows)
    else:
        inside = np.isfinite(rows).all(axis=1) & fits
        if fits:
            inside[inside] = domain.contains(rows[inside])
    if not inside.all():
        # a malformed, non-finite or wrong-dimension row raises here
        point = _domain_point(domain, rows[int(inside.argmin())])
        raise NonInteriorError(f"point {point} is not interior to {domain!r}")
    return rows[0] if single else rows


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

def _kind_decoder(registry: dict, what: str):
    """The decoder of the `what` descriptors: registry[data["kind"]] called
    with each of its parameters decoded from the field of that name, or
    left to its default when the field is missing.  A non-object
    descriptor, an unknown kind, a field that names no parameter, or the
    built-in error of a missing or unconvertible field raises DomainError;
    the package's own errors (subclasses) pass unchanged."""
    def from_dict(data):
        if not isinstance(data, dict):
            raise DomainError(f"a descriptor must be a JSON object, not {data!r}")
        try:
            kind = data.get("kind")
            if kind not in registry:
                raise DomainError(f"unknown {what} kind {kind!r}")
            codecs = _field_codecs(registry[kind])
            unknown = data.keys() - {"kind", *(c[0] for c in codecs)}
            if unknown:
                raise DomainError(f"unknown fields {sorted(unknown)} in a {kind!r} {what} "
                                  f"descriptor")
            return registry[kind](**{name: decode(data[name]) for name, decode, _, required
                                     in codecs if required or name in data})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if type(exc) not in (KeyError, TypeError, ValueError, OverflowError):
                raise
            raise DomainError(f"malformed descriptor {data!r}: {exc!r}") from exc
    return from_dict


def _int(value) -> int:
    """An integral JSON number: 3 or 3.0, not 2.5, true or "3"."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _float(value) -> float:
    """A finite JSON number: not NaN, Infinity, true or "3"."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ValueError(f"expected a finite number, got {value!r}")


def _bool(value) -> bool:
    """A JSON boolean: not 0 or "false"."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"expected true or false, got {value!r}")


def _floats(values) -> tuple[float, ...]:
    return tuple(_float(c) for c in values)


def base_to_dict(base: ConvexBase) -> dict:
    return _known_base(base).to_dict()


def domain_to_dict(domain: ModelDomain) -> dict:
    return _known(domain).to_dict()


base_from_dict = _kind_decoder(_BASES, "base")
domain_from_dict = _kind_decoder(_KINDS, "domain")


# (decode, encode) of a constructor field by its annotation, a string (PEP
# 563); coverings.py adds the map fields' codecs; complex numbers (a JSON
# number or a string such as "1-2j") and the point fields that serialize.py
# adds are decoded only
_CODEC_BY_ANNOTATION = {
    "int": (_int, lambda x: x), "float": (_float, lambda x: x), "bool": (_bool, lambda x: x),
    "complex": (lambda v: complex(v if isinstance(v, str) else _float(v)), None),
    "tuple[float, ...]": (_floats, list),
    "tuple[float, ...] | None": (lambda v: None if v is None else _floats(v), list),
    "tuple[tuple[float, ...], ...]": (lambda rows: tuple(_floats(r) for r in rows),
                                      lambda rows: [list(r) for r in rows]),
    "ConvexBase": (base_from_dict, base_to_dict),
    "ModelDomain": (domain_from_dict, domain_to_dict),
}


@functools.cache
def _field_codecs(ctor) -> tuple:
    """(name, decode, encode, required) for each parameter of a kind's
    constructor (its class, or a function), in order."""
    return tuple((p.name, *_CODEC_BY_ANNOTATION[p.annotation], p.default is p.empty)
                 for p in inspect.signature(ctor).parameters.values())

