"""Geodesic segments, rays, and lines in the model domains.

Curves are immutable closures: a GeodesicCurve owns its domain, its
parameter interval, a parametrization tag ('arc-length' curves satisfy
K(c(s), c(t)) = |t - s|), and pure sample/derivative callables.  Families
bundle members with an optional `member_through` locator, so that a
completeness check can find the member through each point of a grid
exactly.  A locator takes the grid's (N, n) rows at once and returns, per
row, the parameter on the member through it and that member's point
there, in one array pass that builds no curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import closed_forms as cf
from .domains import (Annulus, BoundaryPoint, ConvexBase, ModelDomain, Point, PuncturedDisc,
                      ReinhardtLog, Strip, UnitBall, UnitDisc, _known_base, as_point, base_dim,
                      base_facet_normals, base_reference, boundary_point, dim,
                      require_interior, rowdot)
from .metric import distance
from .mobius import herm, mobius_differential, mobius_to_origin
from .quadrature import bisect_root


@dataclass(frozen=True)
class Segment:
    a: float
    b: float
    open_ends: bool = False


@dataclass(frozen=True)
class Ray:
    """[0, +infinity)."""


@dataclass(frozen=True)
class Line:
    """All of R."""


Interval = Segment | Ray | Line


def interval_window(interval: Interval, width: float = 8.0) -> tuple[float, float]:
    """A closed parameter window safely inside the interval, for sampling:
    a segment less 5 % of its span at each open end, a ray's [0, width],
    or a line's width centred on 0."""
    if isinstance(interval, Segment):
        span = interval.b - interval.a
        pad = 0.05 * span if interval.open_ends else 0.0
        return interval.a + pad, interval.b - pad
    if isinstance(interval, Ray):
        return 0.0, width
    return -0.5 * width, 0.5 * width


@dataclass(frozen=True)
class GeodesicCurve:
    domain: ModelDomain
    interval: Interval
    parametrization: str  # 'arc-length' | 'affine'
    sample: Callable[[float], np.ndarray]
    derivative: Callable[[float], np.ndarray] | None = None
    label: str = ""

    def window(self, width: float = 8.0) -> tuple[float, float]:
        return interval_window(self.interval, width)


@dataclass(frozen=True)
class GeodesicFamily:
    """A (possibly continuum) family of geodesics in one domain.

    `members` is a finite sample of the family; `member_through`, when
    given, maps the interior points given as the rows of an (N, n) array
    to (ts, hits): each row's parameter on the member of the family
    through it (an (N,) array), and that member's point at that parameter
    (an (N, n) array, the row itself up to rounding).  `anchor` is
    ('interior', point) or ('boundary-landing', point) when the family
    shares one, else None.
    """

    domain: ModelDomain
    members: tuple[GeodesicCurve, ...]
    member_through: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    anchor: tuple[str, tuple[complex, ...]] | None = None
    label: str = ""


class GeodesicError(ValueError):
    pass


# ---------------------------------------------------------------------------
# ball geodesics
# ---------------------------------------------------------------------------

def _ball_line(z: np.ndarray, u: np.ndarray, interval: Interval, label: str) -> GeodesicCurve:
    """The arc-length geodesic t -> phi_z(tanh(t) u) of the unit ball, for
    an interior z and a unit vector u; phi_z is the automorphism swapping
    z and the origin, which carries the radial line through u to z."""
    zc = z.copy()

    def sample(t: float) -> np.ndarray:
        return mobius_to_origin(zc, math.tanh(t) * u)

    def derivative(t: float) -> np.ndarray:
        c = math.tanh(t)
        return mobius_differential(zc, c * u, (1.0 - c * c) * u)

    return GeodesicCurve(UnitBall(len(z)), interval, "arc-length", sample, derivative, label)


def _mobius_rows(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """mobius_to_origin(a, z) row by row, for (N, n) arrays a and z; either
    may be one point, taken with each row of the other."""
    a, z = np.broadcast_arrays(a, z)
    a2 = rowdot(np.abs(a), np.abs(a))
    centre = a2 < 1e-28
    s = np.sqrt(np.maximum(0.0, 1.0 - a2))[:, None]
    za = rowdot(z, np.conj(a))
    proj = (za / np.where(centre, 1.0, a2))[:, None] * a
    return np.where(centre[:, None], -z, (a - proj - s * (z - proj)) / (1.0 - za)[:, None])


def _ball_line_points(z: np.ndarray, w: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Row by row, the point at parameter ts of the ball line `_ball_line`
    through z whose direction is the unit vector of phi_z(w) (any direction
    where that is 0); z or w may be one point."""
    head = _mobius_rows(z, w)
    size = np.sqrt(rowdot(np.abs(head), np.abs(head)))
    return _mobius_rows(z, np.tanh(ts)[:, None] * head / np.where(size > 0.0, size, 1.0)[:, None])


def ball_geodesic_segment(dim: int, z: Point, w: Point) -> GeodesicCurve:
    """Arc-length geodesic segment of the unit ball from z to w; it ends at
    parameter K(z, w)."""
    domain = UnitBall(dim)
    z = require_interior(domain, z)
    w = require_interior(domain, w)
    if np.array_equal(z, w):
        zc = z.copy()
        return GeodesicCurve(domain, Segment(0.0, 0.0), "arc-length",
                             lambda t: zc.copy(), lambda t: np.zeros(dim, dtype=complex),
                             label="constant")
    w_hat = mobius_to_origin(z, w)
    return _ball_line(z, w_hat / np.linalg.norm(w_hat), Segment(0.0, cf.ball_distance(z, w)),
                      f"ball-segment-{dim}d")


def ball_landing_ray(dim: int, z: Point, p: Point) -> GeodesicCurve:
    """Arc-length ray from interior z landing at the boundary point p."""
    z = require_interior(UnitBall(dim), z)
    p_arr = p.as_array() if isinstance(p, BoundaryPoint) else as_point(p)
    if abs(float(np.linalg.norm(p_arr)) - 1.0) > 1e-9:
        raise GeodesicError("landing point must lie on the unit sphere")
    p_hat = mobius_to_origin(z, p_arr)  # of unit norm, renormalized against rounding
    return _ball_line(z, p_hat / np.linalg.norm(p_hat), Ray(),
                      f"ball-ray-to-{np.round(p_arr, 6)}")


def ball_complex_geodesic(n: int, z, p) -> Callable[[complex], np.ndarray]:
    """Affine isometric disc map through z whose closure contains p.

    The image is the intersection of the complex affine line through z and
    p with the ball; the parametrizing disc is centered so the map is a
    complex geodesic (disc distance = ball distance of images).
    """
    domain = UnitBall(n)
    z = require_interior(domain, z)
    p_arr = p.as_array() if isinstance(p, BoundaryPoint) else as_point(p)
    d = p_arr - z
    d2 = float(np.sum(np.abs(d) ** 2))
    if d2 < 1e-28:
        raise GeodesicError("need distinct points")
    dz = herm(d, z)
    center = -np.conj(dz) / d2
    radius = math.sqrt(max(0.0, (1.0 - float(np.sum(np.abs(z) ** 2))) / d2 + abs(dz) ** 2 / d2 ** 2))
    zc = z.copy()

    def disc_map(zeta: complex) -> np.ndarray:
        return zc + (center + radius * zeta) * d

    return disc_map


# ---------------------------------------------------------------------------
# affine geodesics: strip, (punctured) disc and annulus lines
# ---------------------------------------------------------------------------

def _line(domain: ModelDomain, interval: Interval, label: str, c, d, rot=None) -> GeodesicCurve:
    """The affine curve t -> c + t d, or t -> exp(c + t d) rot given a phase
    rot; c, d and rot are numbers for a curve in C (exp is math.exp of a
    real), or arrays of one per coordinate (np.exp)."""
    if rot is None:
        def sample(t: float) -> np.ndarray:
            return np.array([c + t * d])
    elif isinstance(rot, np.ndarray):
        def sample(t: float) -> np.ndarray:
            return np.exp(c + t * d) * rot
    else:
        def sample(t: float) -> np.ndarray:
            return np.array([math.exp(c + t * d) * rot])

    def derivative(t: float) -> np.ndarray:
        return np.array([d]) if rot is None else sample(t) * d

    return GeodesicCurve(domain, interval, "affine", sample, derivative, label)


def strip_crossing_geodesic(R: float, height: float = 0.0) -> GeodesicCurve:
    """The geodesic line of H_R crossing the strip at Im = height.

    Affine parametrization t -> t + i*height on (-log R, log R); under the
    exp covering it maps onto the radial geodesic {e^t e^{i height}} of the
    annulus.
    """
    domain = Strip(R)
    a = domain.halfwidth
    h = float(height)
    return _line(domain, Segment(-a, a, open_ends=True), f"strip-crossing@{h:g}", 1j * h, 1 + 0j)


def strip_vertical_line(R: float, t0: float = 0.0) -> GeodesicCurve:
    """The vertical line s -> t0 + i s in H_R (affine parametrization).

    Only the midline t0 = 0 is a metric geodesic; off-midline verticals
    are equidistant curves whose length strictly exceeds the distance.
    They are kept for diagnostics and for the midline case.
    """
    domain = Strip(R)
    if abs(t0) >= domain.halfwidth:
        raise GeodesicError("t0 outside the base interval of the strip")
    x = float(t0)
    return _line(domain, Line(), f"strip-vertical@{x:g}", x, 1j)


def disc_radial_geodesic(omega: complex = 1.0, punctured: bool = True) -> GeodesicCurve:
    """The radial geodesic line (0,1) -> t*omega of the (punctured) disc."""
    w = complex(omega)
    r = abs(w)
    if not 0.0 < r < math.inf:
        raise GeodesicError(f"a radial direction needs a nonzero finite omega, got {omega!r}")
    w = w / r
    domain = PuncturedDisc() if punctured else UnitDisc()
    # -0j is the exact zero of addition: c + t*w is t*w to the bit
    return _line(domain, Segment(0.0, 1.0, open_ends=True), f"radial@{w:.4f}", -0j, w)


def annulus_radial_geodesic(R: float, phase: float = 0.0) -> GeodesicCurve:
    """Radial geodesic line t -> e^t e^{i phase} of A_R, t in (-log R, log R)."""
    a = math.log(R)
    rot = complex(math.cos(phase), math.sin(phase))
    return _line(Annulus(R), Segment(-a, a, open_ends=True), f"annulus-radial@{phase:g}",
                 0.0, 1.0, rot)


# ---------------------------------------------------------------------------
# antipodal geodesics of Reinhardt domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AntipodalPair:
    """Boundary points of a convex base with parallel distinct supporting
    hyperplanes; the open segment between them underlies a geodesic line."""

    base: ConvexBase
    x: tuple[float, ...]
    y: tuple[float, ...]
    normal: tuple[float, ...] = field(default=())

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)[None]
        y = np.asarray(self.y, dtype=float)[None]
        if not self.normal:
            d = _antipodal_normals(self.base, x, y)[0]
            object.__setattr__(self, "normal", tuple(float(c) for c in d))
            return
        _distinct(x, y)
        d = np.asarray(self.normal, dtype=float)
        missed, flat = _certificate_failures(_known_base(self.base), d[None] / np.linalg.norm(d),
                                             x, y)
        if missed[0]:
            raise GeodesicError("supporting-hyperplane certificate failed")
        if flat[0]:
            raise GeodesicError("supporting hyperplanes must be distinct")


def _distinct(x: np.ndarray, y: np.ndarray) -> None:
    if np.isclose(x, y).all(axis=1).any():
        raise GeodesicError("antipodal points must differ")


def _certificate_failures(base: ConvexBase, d: np.ndarray, x: np.ndarray,
                          y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, how the unit normal d fails to certify the boundary
    points x, y as antipodal (all (N, n) arrays), as two (N,) columns: a
    supporting hyperplane misses x or y by more than 1e-9, and the two
    hyperplanes lie within 1e-9 of each other."""
    hx = base.support(d)
    hy = -base.support(-d)
    missed = (np.abs(rowdot(d, x) - hx) > 1e-9) | (np.abs(rowdot(d, y) - hy) > 1e-9)
    return missed, hx - hy <= 1e-9


def _antipodal_normals(base: ConvexBase, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row by row, the first unit normal among x - y, the coordinate axes,
    their negatives and the base's facet normals that certifies the
    boundary points x, y ((N, n) arrays) as antipodal.  GeodesicError if
    the two points of a row coincide, or if no candidate certifies them."""
    _distinct(x, y)
    eye = np.eye(x.shape[1])
    normals = np.empty_like(x)
    rows = np.arange(len(x))  # the rows without a normal yet
    for cand in [x - y, *eye, *-eye, *base_facet_normals(base)]:
        c = np.broadcast_to(cand, x.shape)[rows]
        norm = np.sqrt(rowdot(c, c))
        usable = norm >= 1e-14
        d = c / np.where(usable, norm, 1.0)[:, None]
        missed, flat = _certificate_failures(base, d, x[rows], y[rows])
        found = usable & ~missed & ~flat
        normals[rows[found]] = d[found]
        rows = rows[~found]
        if not len(rows):
            return normals
    raise GeodesicError("no common supporting normal found; points are not antipodal")


def _antipodal_ends(base: ConvexBase, origin: np.ndarray,
                    dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ends origin + hi d and origin + lo d of the chord [lo, hi]
    through origin along each unit row d of dirs, as two (N, n) arrays."""
    lo, hi = base.chord(np.broadcast_to(origin, dirs.shape), dirs)
    return origin + hi[:, None] * dirs, origin + lo[:, None] * dirs


def antipodal_geodesic(base: ConvexBase, pair: AntipodalPair,
                       phases: tuple[float, ...] | None = None) -> GeodesicCurve:
    """Geodesic line t -> exp((x+y)/2) * exp(t (x-y)/2) of the Reinhardt
    domain over `base`, t in (-1, 1); its log-image is the open segment
    from y to x.  Optional coordinatewise phases rotate the line inside
    the domain (rotations are automorphisms).
    """
    x = np.asarray(pair.x, dtype=float)
    y = np.asarray(pair.y, dtype=float)
    rot = np.ones(len(x), dtype=complex)
    if phases is not None:
        rot = np.exp(1j * np.asarray(phases, dtype=float))
    return _line(ReinhardtLog(base), Segment(-1.0, 1.0, open_ends=True), "antipodal",
                 0.5 * (x + y), 0.5 * (x - y), rot)


# ---------------------------------------------------------------------------
# lifting through coverings
# ---------------------------------------------------------------------------

def lift_geodesic(covering, curve: GeodesicCurve, base_preimage) -> GeodesicCurve:
    """Lift `curve` through an implemented covering to the curve starting
    at `base_preimage`; the covering composed with the lift reproduces the
    original pointwise and the lift is again a geodesic.

    Supported coverings: exp (strip->annulus, tube->Reinhardt) and the
    power maps of the punctured disc; continuity of the argument tracks
    the branch, halving the step when the phase jumps too fast.
    """
    from .coverings import HolomorphicMap, apply_map

    if not isinstance(covering, HolomorphicMap):
        raise GeodesicError("covering must be a HolomorphicMap")
    pre = as_point(base_preimage)
    anchor_t = _anchor_parameter(curve.interval)
    base_pt = curve.sample(anchor_t)
    image = apply_map(covering, pre)
    if float(np.max(np.abs(image - base_pt))) > 1e-8:
        raise GeodesicError("base_preimage does not map to the curve's basepoint")

    local_lift = covering.local_inverse
    if local_lift is None:
        raise GeodesicError(f"lifting not implemented for {covering!r}")

    def sample(t: float) -> np.ndarray:
        # continue the branch from the anchor; restart with finer steps
        # whenever the downstairs phase jumps by more than pi/2
        if t == anchor_t:
            return pre.copy()
        steps = max(1, int(math.ceil(abs(t - anchor_t) / 0.25)))
        while True:
            cur = pre.copy()
            w_prev = base_pt
            ok = True
            for i in range(1, steps + 1):
                tt = anchor_t + (t - anchor_t) * i / steps
                w = curve.sample(tt)
                jump = float(np.max(np.abs(np.angle(w / w_prev))))
                if jump > 0.5 * math.pi:
                    ok = False
                    break
                cur = local_lift(w, cur)
                w_prev = w
            if ok:
                return cur
            steps *= 2
            if steps > 1 << 22:
                raise GeodesicError("branch tracking failed: step size too coarse")

    source = covering.source

    def derivative(t: float) -> np.ndarray:
        h = 1e-6
        return (sample(t + h) - sample(t - h)) / (2.0 * h)

    return GeodesicCurve(source, curve.interval, curve.parametrization, sample,
                         derivative, label=f"lift:{curve.label}")


def _anchor_parameter(interval: Interval) -> float:
    if isinstance(interval, Segment):
        return 0.5 * (interval.a + interval.b) if interval.open_ends else interval.a
    return 0.0


# ---------------------------------------------------------------------------
# landing, shadowing, reparametrization
# ---------------------------------------------------------------------------

def landing_point(curve: GeodesicCurve, horizon: float = 20.0):
    """Boundary projection of sample(horizon) plus a Cauchy residual.

    Returns (BoundaryPoint, residual).  The residual
    |sample(horizon) - sample(horizon/2)| is the convergence diagnostic;
    above 1e-4 no landing claim is made (the point is still returned).
    Kinds without a boundary projection (strip, tube, half-plane, polydisc,
    scaled ellipsoid) are rejected.
    """
    project = getattr(curve.domain, "project", None)
    if project is None:
        raise GeodesicError(f"no boundary projection for {curve.domain!r}")
    if horizon <= 0.0:
        raise GeodesicError("horizon must be positive")
    if isinstance(curve.interval, Segment):
        # affine curve reaching the boundary at the right endpoint
        span = curve.interval.b - curve.interval.a
        t_far = curve.interval.b - 1e-9 * span
        t_mid = curve.interval.b - 1e-6 * span
    else:
        t_far, t_mid = horizon, 0.5 * horizon
    far = curve.sample(t_far)
    mid = curve.sample(t_mid)
    residual = float(np.max(np.abs(far - mid)))
    return boundary_point(curve.domain, project(far)), residual


def shadowing_bound(domain: ModelDomain, gamma: GeodesicCurve, eta: GeodesicCurve,
                    horizon: float = 10.0, grid: int = 40) -> dict:
    """Empirical shadowing constant for two rays landing at the same point.

    Returns {'bound': max K(gamma(t), eta(t)) on a [0, horizon] grid,
    'tail_nonincreasing': whether the last quarter of the values does not
    increase}.  Raises if the landing points disagree beyond 1e-4.
    """
    p1, r1 = landing_point(gamma, 20.0)
    p2, r2 = landing_point(eta, 20.0)
    miss = float(np.max(np.abs(p1.as_array() - p2.as_array())))
    if miss > 1e-4:
        raise GeodesicError(f"rays land at distinct points (gap {miss:.3e})")
    ts = np.linspace(0.0, horizon, grid)
    vals = [distance(domain, gamma.sample(t), eta.sample(t)).value for t in ts]
    tail = vals[3 * grid // 4:]
    # 1e-6 slack: deep-tail evaluations sit close to the boundary where
    # the Moebius quotient loses ~8 digits to cancellation
    nonincreasing = all(tail[i + 1] <= tail[i] + 1e-6 for i in range(len(tail) - 1))
    return {"bound": max(vals), "tail_nonincreasing": nonincreasing,
            "landing_residuals": (r1, r2)}


def to_arc_length(curve: GeodesicCurve, anchor: float | None = None) -> GeodesicCurve:
    """Arc-length reparametrization of a geodesic.

    Valid for geodesics only: signed distance from the anchor is used as
    the cumulative length (the defining identity makes them equal), and
    the monotone reparametrization is inverted by bisection to 1e-10.
    """
    if curve.parametrization == "arc-length":
        return curve
    window = curve.window()
    t0 = anchor if anchor is not None else 0.5 * (window[0] + window[1])

    def ell(t: float) -> float:
        d = distance(curve.domain, curve.sample(t0), curve.sample(t)).value
        return d if t >= t0 else -d

    lo, hi = window

    def sample(u: float) -> np.ndarray:
        if u >= 0.0:
            if ell(hi) < u:
                raise GeodesicError("arc-length parameter beyond the curve window")
            t = bisect_root(lambda t_: ell(t_) - u, t0, hi, tol=1e-12)
        else:
            if ell(lo) > u:
                raise GeodesicError("arc-length parameter beyond the curve window")
            t = bisect_root(lambda t_: ell(t_) - u, lo, t0, tol=1e-12)
        return curve.sample(t)

    length_lo = ell(lo)
    length_hi = ell(hi)
    return GeodesicCurve(curve.domain, Segment(length_lo, length_hi, open_ends=True),
                         "arc-length", sample, None, label=f"arclen:{curve.label}")


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------

def _need_members(count: int) -> None:
    if count < 1:
        raise GeodesicError(f"a family needs count >= 1, got {count}")


def radial_family(count: int = 12, punctured: bool = True) -> GeodesicFamily:
    """Complete radial family of the (punctured) disc, anchored at the
    puncture (every ray t*omega converges to 0 as t -> 0+)."""
    _need_members(count)
    members = tuple(disc_radial_geodesic(complex(math.cos(a), math.sin(a)), punctured)
                    for a in (2.0 * math.pi * k / count for k in range(count)))
    domain = members[0].domain

    def member_through(zs: np.ndarray):
        ts = np.abs(zs[:, 0])
        # the unit disc's centre is every member's point at t = 0
        return ts, (ts * (zs[:, 0] / np.where(ts > 0.0, ts, 1.0)))[:, None]

    anchor = ("boundary-landing", (0.0 + 0.0j,)) if punctured else None
    return GeodesicFamily(domain, members, member_through, anchor, label="radial")


def strip_crossing_family(R: float, heights: tuple[float, ...] = ()) -> GeodesicFamily:
    """Complete family of crossing geodesic lines of H_R (one per height)."""
    if not heights:
        heights = tuple(np.linspace(-4.0, 4.0, 9))
    members = tuple(strip_crossing_geodesic(R, h) for h in heights)

    def member_through(zs: np.ndarray):
        ts = zs[:, 0].real
        return ts, (1j * zs[:, 0].imag + ts)[:, None]

    return GeodesicFamily(Strip(R), members, member_through, None, label="strip-crossing")


def ball_segment_family(dim: int, p: Point, targets: tuple[Point, ...] = ()) -> GeodesicFamily:
    """Geodesic segments of the ball starting from the interior point p.

    Complete by construction: the segment from p through z contains z at
    parameter K(p, z).
    """
    p_arr = require_interior(UnitBall(dim), p)
    if not targets:
        from ._sampling import ball_points

        targets = tuple(ball_points(8, dim, radius=0.7, seed=1))
    members = tuple(ball_geodesic_segment(dim, p_arr, w) for w in targets
                    if not np.array_equal(as_point(w), p_arr))

    def member_through(zs: np.ndarray):
        ts = cf.ball_distance(p_arr, zs)
        return ts, _ball_line_points(p_arr, zs, ts)

    return GeodesicFamily(UnitBall(dim), members, member_through,
                          ("interior", tuple(complex(c) for c in p_arr)),
                          label=f"segments@{np.round(p_arr, 4)}")


def ball_landing_family(dim: int, p: Point, starts: tuple[Point, ...] = ()) -> GeodesicFamily:
    """Rays of the ball landing at the boundary point p, anchored there."""
    p_arr = p.as_array() if isinstance(p, BoundaryPoint) else as_point(p)
    if not starts:
        from ._sampling import ball_points

        starts = tuple(ball_points(8, dim, radius=0.6))
    members = tuple(ball_landing_ray(dim, s, p_arr) for s in starts)

    def member_through(zs: np.ndarray):
        # the ray from z starts at z
        ts = np.zeros(len(zs))
        return ts, _ball_line_points(zs, p_arr, ts)

    return GeodesicFamily(UnitBall(dim), members, member_through,
                          ("boundary-landing", tuple(complex(c) for c in p_arr)),
                          label=f"landing@{np.round(p_arr, 4)}")


def antipodal_family(base: ConvexBase, count: int = 20,
                     with_phases: bool = False) -> GeodesicFamily:
    """Antipodal geodesic lines of the Reinhardt domain over a ball base.

    Members run through `count` diametral directions.  The member through
    an interior point z is the diametral line through log|z|, rotated by
    z's phases, which makes the family complete whenever every base point
    lies on a segment joining antipodal boundary points (true for balls);
    the locator certifies each row's ends as antipodal.
    """
    from ._sampling import sphere_directions

    _need_members(count)
    n = base_dim(base)
    ref = base_reference(base)
    xs, ys = _antipodal_ends(base, ref, sphere_directions(count, n))
    members = []
    for k, (x, y) in enumerate(zip(xs, ys)):
        pair = AntipodalPair(base, tuple(x), tuple(y))
        phases = None
        if with_phases:
            phases = tuple(2.0 * math.pi * ((k * 7 + j * 3) % 11) / 11.0 for j in range(n))
        members.append(antipodal_geodesic(base, pair, phases))

    def member_through(zs: np.ndarray):
        u = np.log(np.abs(zs))
        rel = u - ref
        norm = np.sqrt(rowdot(rel, rel))
        centre = norm < 1e-13
        rel[centre] = np.eye(n)[0]
        norm[centre] = 1.0
        xs, ys = _antipodal_ends(base, ref, rel / norm[:, None])
        _antipodal_normals(base, xs, ys)
        # u = mid + t half on the line t -> exp(mid + t half) rot
        mid = 0.5 * (xs + ys)
        half = 0.5 * (xs - ys)
        ts = rowdot(u - mid, half) / rowdot(half, half)
        return ts, np.exp(mid + ts[:, None] * half) * np.exp(1j * np.angle(zs))

    return GeodesicFamily(ReinhardtLog(base), tuple(members), member_through, None,
                          label="antipodal")


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def geodesic_samples_csv(curve: GeodesicCurve, ts, path=None) -> str:
    """Render (t, Re z_1, Im z_1, ...) sample rows as CSV text."""
    n = dim(curve.domain)
    header = ["t"]
    for j in range(n):
        header += [f"re_z{j + 1}", f"im_z{j + 1}"]
    lines = [",".join(header)]
    for t in ts:
        z = curve.sample(float(t))
        row = [f"{float(t):.17g}"]
        for c in z:
            row += [f"{c.real:.17g}", f"{c.imag:.17g}"]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
