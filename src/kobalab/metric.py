"""Kobayashi distance, infinitesimal metric, and hyperbolic length for every
model-domain kind.

Each kind has one engine entry in `_ENGINES`, its distance and its density
(the rest of the kind is its class in domains.py):

* disc / strip / half-plane / ball / polydisc: closed forms;
* punctured disc / annulus: verified finite search over the deck lattice of
  the exponential covering from the half-plane / strip;
* tube over a convex base: certified sandwich (slab lower bound, analytic
  disc upper bound);
* Reinhardt-log domains: deck search over the exp covering from the tube;
* scaled ellipsoids: exact ball formula when eps = 0, inscribed/
  circumscribed ball sandwich otherwise.

Every function is pure; results for sandwich kinds carry their bracket gap
instead of pretending to be exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import closed_forms as cf
from .domains import (Annulus, LeftHalfPlane, ModelDomain, NonInteriorError, Polydisc,
                      PuncturedDisc, ReinhardtLog, ScaledEllipsoid, Strip, TubeOverBase,
                      UnitBall, UnitDisc, base_support, dim, require_interior)
from .quadrature import adaptive_simpson
from .tube import caratheodory_lower, lempert_upper, tube_distance_bounds, tube_metric_bounds

TWO_PI = 2.0 * math.pi
DECK_ENUM_CAP = 200_000


class DeckBoundError(RuntimeError):
    """The auto-bound rule could not certify the deck search."""


class SandwichGapError(RuntimeError):
    """A sandwich bracket exceeded the caller's gap tolerance."""


@dataclass(frozen=True)
class DistanceValue:
    """A distance together with how it was obtained.

    method is one of 'closed-form', 'deck-infimum', 'sandwich'; for
    sandwich results value is the midpoint of [lower, upper] and gap the
    bracket width (0 for the exact methods).
    """

    value: float
    method: str
    gap: float = 0.0
    deck_index: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.value < 0.0 or self.gap < 0.0:
            raise ValueError("distance and gap must be nonnegative")

    @property
    def lower(self) -> float:
        return self.value - 0.5 * self.gap

    @property
    def upper(self) -> float:
        return self.value + 0.5 * self.gap


# ---------------------------------------------------------------------------
# deck search over the exp covers
# ---------------------------------------------------------------------------

def _halfplane_cover(cover: LeftHalfPlane) -> tuple:
    # the half-plane bound is arcsinh of the vertical gap
    def evaluate(u, v, cap=None):
        d = cf.halfplane_distance(complex(u[0]), complex(v[0]))
        return d, d

    def scale(u, v):
        xu, xv = -u[0].real, -v[0].real
        return 2.0 * math.sqrt(xu * xv)

    return (evaluate,
            lambda u, v, dy: math.asinh(abs(dy[0]) / scale(u, v)),
            lambda u, v, best: np.array([scale(u, v) * math.sinh(best)]))


def _slab_cover(halfwidths: np.ndarray, evaluate) -> tuple:
    # each coordinate slab of half-width a_j gives pi * |dy_j| / (4 a_j)
    return (evaluate,
            lambda u, v, dy: float(np.max(math.pi * np.abs(dy) / (4.0 * halfwidths))),
            lambda u, v, best: 4.0 * halfwidths * best / math.pi)


def _strip_cover(cover: Strip) -> tuple:
    a = cover.halfwidth

    def evaluate(u, v, cap=None):
        d = cf.strip_distance(a, complex(u[0]), complex(v[0]))
        return d, d

    return _slab_cover(np.array([a]), evaluate)


def _tube_cover(cover: TubeOverBase) -> tuple:
    base = cover.base

    def evaluate(u, v, cap=None):
        lo = caratheodory_lower(base, u, v)
        if cap is not None and lo > cap:
            return lo, math.inf
        hi = lempert_upper(base, u, v, good_enough=lo * (1.0 + 1e-12) + 1e-14)
        return lo, max(lo, hi)

    eye = np.eye(cover.dim)
    halfwidths = np.array([0.5 * (base_support(base, e) + base_support(base, -e)) for e in eye])
    return _slab_cover(halfwidths, evaluate)


_COVERS = {LeftHalfPlane: _halfplane_cover, Strip: _strip_cover, TubeOverBase: _tube_cover}


@functools.lru_cache(maxsize=64)
def _cover(cover: ModelDomain) -> tuple:
    """What the deck search needs to know about one exp-cover, built once
    per cover descriptor: (evaluate, offset_lower, threshold).

    evaluate(u, v, cap) bounds the cover distance by a (lower, upper)
    pair.  `cap` is the best upper bound found so far: translates whose
    cheap lower bound already exceeds it skip the expensive disc
    competitors and report an infinite upper (they can never be the
    minimizer).  offset_lower(u, v, dy) is a cheap lower bound for the
    translate whose imaginary offset from u is dy, and threshold(u, v, best)
    the per-coordinate |dy_j| beyond which that bound exceeds best.
    """
    build = _COVERS.get(type(cover))
    if build is None:
        raise ValueError(f"{cover!r} is not a supported covering")
    return build(cover)


def deck_infimum(cover: ModelDomain, u, v, lattice_bound: int | None = None
                 ) -> tuple[DistanceValue, tuple[int, ...]]:
    """Minimum over deck translates v + 2*pi*i*nu of the cover distance.

    With lattice_bound=None the search radius is grown until the slab
    lower bound at the next shell provably exceeds the best value found,
    so the returned minimum is attained and certified.  An explicit
    lattice_bound is honored but still checked; failure to certify raises
    DeckBoundError with the remaining gap.
    """
    u = require_interior(cover, u)
    v = require_interior(cover, v)
    n = dim(cover)
    evaluate, offset_lower, threshold = _cover(cover)
    dy = u.imag - v.imag
    nu0 = np.round(dy / TWO_PI).astype(int)
    lo0, hi0 = evaluate(u, v + TWO_PI * 1j * nu0)
    best_hi = hi0
    best_lo = lo0
    best_nu = tuple(int(k) for k in nu0)
    if not math.isfinite(best_hi):
        raise DeckBoundError("initial deck translate has no finite upper bound")
    evaluated = {best_nu}

    def bounds_for(best: float) -> np.ndarray:
        thr = threshold(u, v, best)
        return np.floor((np.abs(dy) + thr) / TWO_PI).astype(int) + 1

    for _ in range(64):
        limit = bounds_for(best_hi) if lattice_bound is None else np.full(n, lattice_bound, dtype=int)
        total = int(np.prod(2 * limit + 1))
        if total > DECK_ENUM_CAP:
            raise DeckBoundError(f"deck enumeration needs {total} lattice points")
        improved = False
        for nu in _lattice_box(limit):
            if nu in evaluated:
                continue
            arr = np.asarray(nu)
            if offset_lower(u, v, dy - TWO_PI * arr) > best_hi:
                continue
            lo, hi = evaluate(u, v + TWO_PI * 1j * arr, cap=best_hi)
            evaluated.add(nu)
            best_lo = min(best_lo, lo)
            if hi < best_hi:
                best_hi = hi
                best_nu = nu
                improved = True
        if lattice_bound is not None:
            needed = bounds_for(best_hi)
            if np.any(needed > lattice_bound):
                gap = float(np.max(needed - lattice_bound))
                raise DeckBoundError(
                    f"lattice bound {lattice_bound} cannot certify the minimum "
                    f"(rule wants {needed.tolist()}; shortfall {gap})")
            break
        if not improved and np.all(bounds_for(best_hi) <= limit):
            break
    value = 0.5 * (best_lo + best_hi)
    gap = max(0.0, best_hi - best_lo)
    method = "deck-infimum" if gap == 0.0 else "sandwich"
    return DistanceValue(value, method, gap, best_nu), best_nu


def _lattice_box(limit: np.ndarray):
    """Lattice points of prod [-B_j, B_j], lexicographically sorted."""
    return itertools.product(*[range(-int(b), int(b) + 1) for b in limit])


def _canonical_order(z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # exact symmetry by construction: evaluate every pair in a fixed order
    # (vectorized complex arithmetic is not bitwise conjugation-symmetric)
    kz = tuple((c.real, c.imag) for c in z)
    kw = tuple((c.real, c.imag) for c in w)
    return (w, z) if kw < kz else (z, w)


def _principal_log(z: np.ndarray) -> np.ndarray:
    return np.log(np.abs(z)) + 1j * np.angle(z)


def _deck_distance(cover: ModelDomain, z, w, lattice_bound) -> DistanceValue:
    return deck_infimum(cover, _principal_log(z), _principal_log(w), lattice_bound)[0]


def _closed(value: float) -> DistanceValue:
    return DistanceValue(value, "closed-form")


def _sandwich(lo: float, hi: float) -> DistanceValue:
    return DistanceValue(0.5 * (lo + hi), "sandwich", hi - lo)


def _midpoint(bounds: tuple[float, float]) -> float:
    return 0.5 * (bounds[0] + bounds[1])


def _inscribed_radius(domain: ScaledEllipsoid, *points) -> float:
    """Radius of the ball inscribed in a perturbed ellipsoid; the ball
    sandwich brackets its metric only at points inside that ball."""
    from .scaling import inscribed_radius

    r_in = inscribed_radius(domain.eps, domain.t, domain.dim)
    if any(float(np.linalg.norm(p)) >= r_in for p in points):
        raise NonInteriorError(
            f"perturbed-ellipsoid values are bracketed only inside the "
            f"inscribed ball of radius {r_in:.6f}")
    return r_in


def _ellipsoid_distance(domain: ScaledEllipsoid, z, w, lattice_bound) -> DistanceValue:
    if domain.eps == 0.0:
        return _closed(cf.ball_distance(z, w))
    r_in = _inscribed_radius(domain, z, w)
    lo = cf.ball_distance(z, w)          # Omega_t inside the unit ball
    return _sandwich(lo, max(cf.ball_distance(z / r_in, w / r_in), lo))


def _ellipsoid_density(domain: ScaledEllipsoid, z, v) -> float:
    if domain.eps == 0.0:
        return cf.ball_density(z, v)
    r_in = _inscribed_radius(domain, z)
    lo = cf.ball_density(z, v)
    return 0.5 * (lo + max(lo, cf.ball_density(z / r_in, v / r_in)))


class _Engine(NamedTuple):
    distance: Callable    # (domain, z, w, lattice_bound) -> DistanceValue
    density: Callable     # (domain, z, v) -> float


# Kernels are looked up in `cf` at call time, so tracing wrappers see them.
_ENGINES: dict[type, _Engine] = {
    UnitDisc: _Engine(
        lambda d, z, w, nb: _closed(cf.disc_distance(complex(z[0]), complex(w[0]))),
        lambda d, z, v: cf.disc_density(complex(z[0]), complex(v[0]))),
    Strip: _Engine(
        lambda d, z, w, nb: _closed(cf.strip_distance(d.halfwidth, complex(z[0]), complex(w[0]))),
        lambda d, z, v: cf.strip_density(d.halfwidth, complex(z[0]), complex(v[0]))),
    LeftHalfPlane: _Engine(
        lambda d, z, w, nb: _closed(cf.halfplane_distance(complex(z[0]), complex(w[0]))),
        lambda d, z, v: cf.halfplane_density(complex(z[0]), complex(v[0]))),
    UnitBall: _Engine(
        lambda d, z, w, nb: _closed(cf.ball_distance(z, w)),
        lambda d, z, v: cf.ball_density(z, v)),
    Polydisc: _Engine(
        lambda d, z, w, nb: _closed(cf.polydisc_distance(z, w)),
        lambda d, z, v: cf.polydisc_density(z, v)),
    PuncturedDisc: _Engine(
        lambda d, z, w, nb: _deck_distance(LeftHalfPlane(), z, w, nb),
        lambda d, z, v: cf.punctured_density(complex(z[0]), complex(v[0]))),
    Annulus: _Engine(
        lambda d, z, w, nb: _deck_distance(Strip(d.R), z, w, nb),
        lambda d, z, v: cf.annulus_density(d.R, complex(z[0]), complex(v[0]))),
    TubeOverBase: _Engine(
        lambda d, z, w, nb: _sandwich(*tube_distance_bounds(d.base, z, w)),
        lambda d, z, v: _midpoint(tube_metric_bounds(d.base, z, v))),
    ReinhardtLog: _Engine(
        lambda d, z, w, nb: _deck_distance(TubeOverBase(d.base), z, w, nb),
        # exp: tube -> Reinhardt is a local isometry; pull back along it
        lambda d, z, v: _midpoint(tube_metric_bounds(d.base, _principal_log(z), v / z))),
    ScaledEllipsoid: _Engine(_ellipsoid_distance, _ellipsoid_density),
}


def distance(domain: ModelDomain, z, w, gap_tol: float | None = None,
             lattice_bound: int | None = None) -> DistanceValue:
    """Kobayashi distance between interior points of a model domain.

    Symmetric in (z, w) exactly: the pair is evaluated in a canonical
    order, so distance(D, z, w) and distance(D, w, z) are bit-identical.
    """
    z = require_interior(domain, z)
    w = require_interior(domain, w)
    z, w = _canonical_order(z, w)
    val = _ENGINES[type(domain)].distance(domain, z, w, lattice_bound)
    if gap_tol is not None and val.gap > gap_tol:
        raise SandwichGapError(f"sandwich gap {val.gap:.3e} exceeds tolerance {gap_tol:.3e}")
    return val


def infinitesimal_metric(domain: ModelDomain, z, v) -> float:
    """Infinitesimal Kobayashi metric k(z; v); degree-1 homogeneous in v.

    Exact for the closed-form and covered kinds; tube/Reinhardt/perturbed
    ellipsoid values are bracket midpoints (use `distance` when the gap
    matters).
    """
    z = require_interior(domain, z)
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    if v.size != dim(domain):
        raise ValueError("tangent vector dimension mismatch")
    return _ENGINES[type(domain)].density(domain, z, v)


def hyperbolic_length(domain: ModelDomain, curve, s: float, t: float,
                      tol: float = 1e-8, fd_step: float = 1e-6) -> float:
    """Length int_s^t k(curve(u); curve'(u)) du by adaptive Simpson.

    `curve` is a GeodesicCurve or a plain sampler u -> point; without an
    analytic derivative a central difference with step `fd_step` is used.
    Raises NonInteriorError if the curve leaves the domain on [s, t].
    """
    if s > t:
        raise ValueError("need s <= t")
    if s == t:
        return 0.0
    sample = getattr(curve, "sample", curve)
    deriv = getattr(curve, "derivative", None)
    if deriv is None:
        def deriv(u):
            return (np.asarray(sample(u + fd_step)) - np.asarray(sample(u - fd_step))) / (2.0 * fd_step)

    def integrand(u: float) -> float:
        p = sample(u)
        require_interior(domain, p)
        return infinitesimal_metric(domain, p, deriv(u))

    return adaptive_simpson(integrand, s, t, tol=tol)
