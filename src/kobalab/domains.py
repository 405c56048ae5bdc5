"""Model domains and convex bases.

Domain descriptors are small frozen dataclasses, safe to share across
workers.  Points are 1-d complex ndarrays (scalars are accepted at the API
edge and lifted).

Each model-domain kind is one class below (`_Kind` lists what it defines);
the module functions (`membership`, `escape_margin`, `domain_from_dict`,
...) validate their input and dispatch to it.  A kind's distance and
density engine is its entry in metric.py: adding a kind touches the two.

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
from dataclasses import dataclass, fields
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


# ---------------------------------------------------------------------------
# convex bases (log-images of Reinhardt domains, tube bases)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EuclideanBall:
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("ball radius must be positive")


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or any(l >= h for l, h in zip(self.lo, self.hi)):
            raise DomainError("box needs lo < hi coordinatewise")


@dataclass(frozen=True)
class Polytope:
    """Open polytope {x : <n_i, x> < b_i}; an interior point may be supplied."""

    normals: tuple[tuple[float, ...], ...]
    offsets: tuple[float, ...]
    interior: tuple[float, ...] | None = None


@dataclass(frozen=True)
class LinearImage:
    """Exact linear image A(base) of another base, A invertible.

    Membership and support are delegated to the source through A^{-1} and
    A^T, so no facet approximation is involved.
    """

    matrix: tuple[tuple[float, ...], ...]
    base: "ConvexBase"


ConvexBase = EuclideanBall | Box | Polytope | LinearImage


def base_dim(base: ConvexBase) -> int:
    if isinstance(base, EuclideanBall):
        return len(base.center)
    if isinstance(base, Box):
        return len(base.lo)
    if isinstance(base, Polytope):
        return len(base.normals[0])
    if isinstance(base, LinearImage):
        return len(base.matrix)
    raise DomainError(f"unknown base {base!r}")


def base_membership(base: ConvexBase, x) -> bool:
    x = np.asarray(x, dtype=float)
    if x.shape != (base_dim(base),):
        raise DomainError("base point has wrong dimension")
    if isinstance(base, EuclideanBall):
        return float(np.linalg.norm(x - np.asarray(base.center))) < base.radius
    if isinstance(base, Box):
        return bool(np.all(x > np.asarray(base.lo)) and np.all(x < np.asarray(base.hi)))
    if isinstance(base, Polytope):
        a = np.asarray(base.normals)
        b = np.asarray(base.offsets)
        return bool(np.all(a @ x < b))
    if isinstance(base, LinearImage):
        inv = np.linalg.inv(np.asarray(base.matrix, dtype=float))
        return base_membership(base.base, inv @ x)
    raise DomainError(f"unknown base {base!r}")


def base_support(base: ConvexBase, d) -> float:
    """Support function h(d) = sup over the base of <d, x>."""
    d = np.asarray(d, dtype=float)
    if isinstance(base, EuclideanBall):
        return float(np.dot(d, base.center) + base.radius * np.linalg.norm(d))
    if isinstance(base, Box):
        lo = np.asarray(base.lo)
        hi = np.asarray(base.hi)
        return float(np.sum(np.where(d >= 0.0, d * hi, d * lo)))
    if isinstance(base, Polytope):
        return _polytope_support(base, d)
    if isinstance(base, LinearImage):
        a = np.asarray(base.matrix, dtype=float)
        return base_support(base.base, a.T @ d)
    raise DomainError(f"unknown base {base!r}")


def _polytope_support(base: Polytope, d: np.ndarray) -> float:
    # H-representation support needs an LP; bounded polytopes only.
    from scipy.optimize import linprog

    a = np.asarray(base.normals, dtype=float)
    b = np.asarray(base.offsets, dtype=float)
    res = linprog(-d, A_ub=a, b_ub=b, bounds=[(None, None)] * a.shape[1], method="highs")
    if not res.success:
        raise DomainError("polytope support LP failed (unbounded or empty base?)")
    return float(-res.fun)


def base_reference(base: ConvexBase) -> np.ndarray:
    """A canonical interior point."""
    if isinstance(base, EuclideanBall):
        return np.asarray(base.center, dtype=float)
    if isinstance(base, Box):
        return 0.5 * (np.asarray(base.lo) + np.asarray(base.hi))
    if isinstance(base, Polytope):
        if base.interior is not None:
            return np.asarray(base.interior, dtype=float)
        return _polytope_interior(base)
    if isinstance(base, LinearImage):
        return np.asarray(base.matrix, dtype=float) @ base_reference(base.base)
    raise DomainError(f"unknown base {base!r}")


def _polytope_interior(base: Polytope) -> np.ndarray:
    # Chebyshev center: maximize r s.t. <n_i, x> + r |n_i| <= b_i.
    from scipy.optimize import linprog

    a = np.asarray(base.normals, dtype=float)
    b = np.asarray(base.offsets, dtype=float)
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    n = a.shape[1]
    cols = np.hstack([a, norms])
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=cols, b_ub=b, bounds=[(None, None)] * n + [(0, None)], method="highs")
    if not res.success or res.x[-1] <= 0:
        raise DomainError("polytope has empty interior")
    return res.x[:n]


def base_facet_normals(base: ConvexBase) -> list[np.ndarray]:
    """Outward facet normals when the base has finitely many; else []."""
    if isinstance(base, Box):
        n = len(base.lo)
        eye = np.eye(n)
        return [eye[j] for j in range(n)] + [-eye[j] for j in range(n)]
    if isinstance(base, Polytope):
        return [np.asarray(row, dtype=float) for row in base.normals]
    if isinstance(base, LinearImage):
        inv_t = np.linalg.inv(np.asarray(base.matrix, dtype=float)).T
        return [inv_t @ d for d in base_facet_normals(base.base)]
    return []


def base_margin(base: ConvexBase, x) -> float:
    """Distance-like slack of x inside the base (<= true boundary distance)."""
    x = np.asarray(x, dtype=float)
    if isinstance(base, EuclideanBall):
        return base.radius - float(np.linalg.norm(x - np.asarray(base.center)))
    if isinstance(base, Box):
        return float(min(np.min(x - np.asarray(base.lo)), np.min(np.asarray(base.hi) - x)))
    if isinstance(base, Polytope):
        a = np.asarray(base.normals, dtype=float)
        b = np.asarray(base.offsets, dtype=float)
        norms = np.linalg.norm(a, axis=1)
        return float(np.min((b - a @ x) / norms))
    if isinstance(base, LinearImage):
        a = np.asarray(base.matrix, dtype=float)
        inv = np.linalg.inv(a)
        # |x - w| >= |A^{-1}x - A^{-1}w| / ||A^{-1}|| for boundary points w
        return base_margin(base.base, inv @ x) / max(float(np.linalg.norm(inv, 2)), 1e-300)
    raise DomainError(f"unknown base {base!r}")


def chord_interval(base: ConvexBase, p, direction) -> tuple[float, float]:
    """Parameter interval {s : p + s*direction in base}; p must be interior."""
    p = np.asarray(p, dtype=float)
    d = np.asarray(direction, dtype=float)
    if isinstance(base, EuclideanBall):
        q = p - np.asarray(base.center)
        aa = float(np.dot(d, d))
        bb = 2.0 * float(np.dot(q, d))
        cc = float(np.dot(q, q)) - base.radius ** 2
        disc = bb * bb - 4.0 * aa * cc
        root = math.sqrt(max(disc, 0.0))
        return ((-bb - root) / (2.0 * aa), (-bb + root) / (2.0 * aa))
    if isinstance(base, Box):
        lo_s, hi_s = -math.inf, math.inf
        lo = np.asarray(base.lo)
        hi = np.asarray(base.hi)
        for j in range(len(d)):
            if d[j] == 0.0:
                continue
            s1 = (lo[j] - p[j]) / d[j]
            s2 = (hi[j] - p[j]) / d[j]
            lo_s = max(lo_s, min(s1, s2))
            hi_s = min(hi_s, max(s1, s2))
        return lo_s, hi_s
    if isinstance(base, Polytope):
        a = np.asarray(base.normals, dtype=float)
        b = np.asarray(base.offsets, dtype=float)
        lo_s, hi_s = -math.inf, math.inf
        ax = a @ p
        ad = a @ d
        for slack, rate in zip(b - ax, ad):
            if rate > 0.0:
                hi_s = min(hi_s, slack / rate)
            elif rate < 0.0:
                lo_s = max(lo_s, slack / rate)
        return lo_s, hi_s
    if isinstance(base, LinearImage):
        inv = np.linalg.inv(np.asarray(base.matrix, dtype=float))
        return chord_interval(base.base, inv @ p, inv @ d)
    raise DomainError(f"unknown base {base!r}")


def to_polytope(base: ConvexBase, facets_per_pair: int = 64) -> Polytope:
    """Outer polytope approximation via tangent half-spaces.

    Exact for boxes/polytopes; smooth bases (balls, their linear images)
    get `facets_per_pair` tangent directions per coordinate 2-plane.  Kept
    for serialization/interop; internal computations use exact supports.
    """
    if isinstance(base, Polytope):
        return base
    if isinstance(base, Box):
        n = len(base.lo)
        eye = np.eye(n)
        normals = [tuple(eye[j]) for j in range(n)] + [tuple(-eye[j]) for j in range(n)]
        offsets = list(base.hi) + [-l for l in base.lo]
        return Polytope(tuple(normals), tuple(offsets), tuple(base_reference(base)))
    n = base_dim(base)
    dirs: list[np.ndarray] = []
    if n == 1:
        dirs = [np.array([1.0]), np.array([-1.0])]
    else:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(facets_per_pair):
                    ang = 2.0 * math.pi * k / facets_per_pair
                    d = np.zeros(n)
                    d[i] = math.cos(ang)
                    d[j] = math.sin(ang)
                    dirs.append(d)
    normals = tuple(tuple(d) for d in dirs)
    offsets = tuple(base_support(base, d) for d in dirs)
    return Polytope(normals, offsets, tuple(base_reference(base)))


# ---------------------------------------------------------------------------
# model domains: one class per kind
# ---------------------------------------------------------------------------

class _Kind:
    """What a model-domain kind defines, with the shared defaults.

    `kind` (the descriptor name), `dim`, `contains(z)` (the membership
    formula), `reference()` (a canonical interior point) and `margin(z)`, a
    signed gauge of the boundary distance: positive inside, 0 on the
    boundary.  Unbounded kinds cap `escape_margin`.  Where a kind has them:
    `grid(count, skip, imag_window)`, quasi-random interior points, and
    `project(z)`, the boundary point an escaping z approaches.  The codec
    maps the dataclass fields.  Points reach these methods validated.
    """

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name, _, encode in _field_codecs(type(self)):
            out[name] = encode(getattr(self, name))
        return out

    @classmethod
    def from_dict(cls, data: dict):
        return cls(*[decode(data[name]) for name, decode, _ in _field_codecs(cls)])

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
        return base_dim(self.base)

    def contains(self, z):
        return base_membership(self.base, z.real)

    def reference(self):
        return base_reference(self.base).astype(complex)

    def margin(self, z):
        return base_margin(self.base, z.real)

    def escape_margin(self, z):
        return min(self.margin(z), 1.0 / (1.0 + float(np.linalg.norm(z.imag))))


@dataclass(frozen=True)
class ReinhardtLog(_Kind):
    base: ConvexBase
    kind = "reinhardt-log"

    @property
    def dim(self) -> int:
        return base_dim(self.base)

    def contains(self, z):
        if np.any(np.abs(z) == 0.0):
            return False
        return base_membership(self.base, np.log(np.abs(z)))

    def reference(self):
        return np.exp(base_reference(self.base)).astype(complex)

    def margin(self, z):
        if np.any(np.abs(z) == 0.0):
            return 0.0
        return base_margin(self.base, np.log(np.abs(z)))

    def grid(self, count, skip, imag_window):
        n = self.dim
        ref = base_reference(self.base)
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
        ref = base_reference(self.base)
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


def membership(domain: ModelDomain, z) -> bool:
    """True iff z is an interior point of the domain."""
    z = as_point(z)
    if z.size != dim(domain):
        raise DomainError(f"point dimension {z.size} does not match domain {domain!r}")
    return domain.contains(z)


def require_interior(domain: ModelDomain, z) -> np.ndarray:
    z = as_point(z)
    if not membership(domain, z):
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
    if isinstance(base, EuclideanBall):
        return {"kind": "ball", "center": list(base.center), "radius": base.radius}
    if isinstance(base, Box):
        return {"kind": "box", "lo": list(base.lo), "hi": list(base.hi)}
    if isinstance(base, Polytope):
        out = {"kind": "polytope", "normals": [list(r) for r in base.normals],
               "offsets": list(base.offsets)}
        if base.interior is not None:
            out["interior"] = list(base.interior)
        return out
    if isinstance(base, LinearImage):
        return {"kind": "linear-image", "matrix": [list(r) for r in base.matrix],
                "base": base_to_dict(base.base)}
    raise DomainError(f"unknown base {base!r}")


@_decoder
def base_from_dict(data: dict) -> ConvexBase:
    kind = data.get("kind")
    if kind == "ball":
        return EuclideanBall(tuple(float(c) for c in data["center"]), float(data["radius"]))
    if kind == "box":
        return Box(tuple(float(c) for c in data["lo"]), tuple(float(c) for c in data["hi"]))
    if kind == "polytope":
        interior = data.get("interior")
        return Polytope(tuple(tuple(float(c) for c in r) for r in data["normals"]),
                        tuple(float(c) for c in data["offsets"]),
                        None if interior is None else tuple(float(c) for c in interior))
    if kind == "linear-image":
        return LinearImage(tuple(tuple(float(c) for c in r) for r in data["matrix"]),
                           base_from_dict(data["base"]))
    raise DomainError(f"unknown base kind {kind!r}")


# (decode, encode) of a kind's field by its annotation, a string (PEP 563)
_CODEC_BY_ANNOTATION = {"float": (float, lambda x: x), "int": (int, lambda x: x),
                        "ConvexBase": (base_from_dict, base_to_dict)}


@functools.cache
def _field_codecs(cls: type) -> tuple:
    """(name, decode, encode) for each field of a kind, in field order."""
    return tuple((f.name, *_CODEC_BY_ANNOTATION[f.type]) for f in fields(cls))


def domain_to_dict(domain: ModelDomain) -> dict:
    return _known(domain).to_dict()


@_decoder
def domain_from_dict(data: dict) -> ModelDomain:
    kind = data.get("kind")
    if kind not in _KINDS:
        raise DomainError(f"unknown domain kind {kind!r}")
    return _KINDS[kind].from_dict(data)
