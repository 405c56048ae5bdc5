"""Geodesic segments, rays, and lines in the model domains.

Curves are immutable closures: a GeodesicCurve owns its domain, its
parameter interval, a parametrization tag ('arc-length' curves satisfy
K(c(s), c(t)) = |t - s|), and pure sample/derivative callables.  Families
bundle members with an optional `member_through` locator so completeness
checks can query the member containing a given point exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import closed_forms as cf
from .domains import (Annulus, BoundaryPoint, ConvexBase, ModelDomain, PuncturedDisc,
                      ReinhardtLog, Strip, UnitBall, UnitDisc, as_point, base_reference,
                      base_support, boundary_point, chord_interval, dim, require_interior)
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


def interval_window(interval: Interval, width: float = 8.0, inset: float = 0.05
                    ) -> tuple[float, float]:
    """A closed parameter window safely inside the interval, for sampling."""
    if isinstance(interval, Segment):
        span = interval.b - interval.a
        pad = inset * span if interval.open_ends else 0.0
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
    given, maps an interior point to (member, parameter) with
    member.sample(parameter) at (or nearest to) the point.  `anchor` is
    ('interior', point) or ('boundary-landing', point) when the family
    shares one, else None.
    """

    domain: ModelDomain
    members: tuple[GeodesicCurve, ...]
    member_through: Callable[[np.ndarray], tuple[GeodesicCurve, float]] | None = None
    anchor: tuple[str, tuple[complex, ...]] | None = None
    label: str = ""


class GeodesicError(ValueError):
    pass


# ---------------------------------------------------------------------------
# ball geodesics
# ---------------------------------------------------------------------------

def ball_geodesic_segment(n: int, z, w) -> GeodesicCurve:
    """Arc-length geodesic segment of the unit ball from z to w.

    Transports the radial geodesic u -> tanh(u) e_1 by the automorphism
    sending z to the origin; the segment ends at parameter K(z, w).
    """
    domain = UnitBall(n)
    z = require_interior(domain, z)
    w = require_interior(domain, w)
    if np.array_equal(z, w):
        zc = z.copy()
        return GeodesicCurve(domain, Segment(0.0, 0.0), "arc-length",
                             lambda t: zc.copy(), lambda t: np.zeros(n, dtype=complex),
                             label="constant")
    w_hat = mobius_to_origin(z, w)
    direction = w_hat / np.linalg.norm(w_hat)
    total = cf.ball_distance(z, w)
    zc = z.copy()

    def sample(t: float) -> np.ndarray:
        return mobius_to_origin(zc, math.tanh(t) * direction)

    def derivative(t: float) -> np.ndarray:
        c = math.tanh(t)
        sech2 = 1.0 - c * c
        return mobius_differential(zc, c * direction, sech2 * direction)

    return GeodesicCurve(domain, Segment(0.0, total), "arc-length", sample, derivative,
                         label=f"ball-segment-{n}d")


def ball_landing_ray(n: int, z, p) -> GeodesicCurve:
    """Arc-length ray from interior z landing at the boundary point p."""
    domain = UnitBall(n)
    z = require_interior(domain, z)
    p_arr = p.as_array() if isinstance(p, BoundaryPoint) else as_point(p)
    if abs(float(np.linalg.norm(p_arr)) - 1.0) > 1e-9:
        raise GeodesicError("landing point must lie on the unit sphere")
    p_hat = mobius_to_origin(z, p_arr)
    p_hat = p_hat / np.linalg.norm(p_hat)  # renormalize against rounding
    zc = z.copy()

    def sample(t: float) -> np.ndarray:
        return mobius_to_origin(zc, math.tanh(t) * p_hat)

    def derivative(t: float) -> np.ndarray:
        c = math.tanh(t)
        return mobius_differential(zc, c * p_hat, (1.0 - c * c) * p_hat)

    return GeodesicCurve(domain, Ray(), "arc-length", sample, derivative,
                         label=f"ball-ray-to-{np.round(p_arr, 6)}")


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
# strip geodesics (cover of the annulus)
# ---------------------------------------------------------------------------

def strip_crossing_geodesic(R: float, height: float) -> GeodesicCurve:
    """The geodesic line of H_R crossing the strip at Im = height.

    Affine parametrization t -> t + i*height on (-log R, log R); under the
    exp covering it maps onto the radial geodesic {e^t e^{i height}} of the
    annulus.
    """
    domain = Strip(R)
    a = domain.halfwidth
    h = float(height)

    def sample(t: float) -> np.ndarray:
        return np.array([t + 1j * h])

    def derivative(t: float) -> np.ndarray:
        return np.array([1.0 + 0.0j])

    return GeodesicCurve(domain, Segment(-a, a, open_ends=True), "affine",
                         sample, derivative, label=f"strip-crossing@{h:g}")


def strip_vertical_line(R: float, t0: float) -> GeodesicCurve:
    """The vertical line s -> t0 + i s in H_R (affine parametrization).

    Only the midline t0 = 0 is a metric geodesic; off-midline verticals
    are equidistant curves whose length strictly exceeds the distance.
    They are kept for diagnostics and for the midline case.
    """
    domain = Strip(R)
    if abs(t0) >= domain.halfwidth:
        raise GeodesicError("t0 outside the base interval of the strip")
    x = float(t0)

    def sample(s: float) -> np.ndarray:
        return np.array([x + 1j * s])

    def derivative(s: float) -> np.ndarray:
        return np.array([1j])

    return GeodesicCurve(domain, Line(), "affine", sample, derivative,
                         label=f"strip-vertical@{x:g}")


def disc_radial_geodesic(omega: complex = 1.0, punctured: bool = True) -> GeodesicCurve:
    """The radial geodesic line (0,1) -> t*omega of the (punctured) disc."""
    w = complex(omega)
    w = w / abs(w)
    domain = PuncturedDisc() if punctured else UnitDisc()

    def sample(t: float) -> np.ndarray:
        return np.array([t * w])

    def derivative(t: float) -> np.ndarray:
        return np.array([w])

    return GeodesicCurve(domain, Segment(0.0, 1.0, open_ends=True), "affine",
                         sample, derivative, label=f"radial@{w:.4f}")


def annulus_radial_geodesic(R: float, phase: float = 0.0) -> GeodesicCurve:
    """Radial geodesic line t -> e^t e^{i phase} of A_R, t in (-log R, log R)."""
    domain = Annulus(R)
    a = math.log(R)
    rot = complex(math.cos(phase), math.sin(phase))

    def sample(t: float) -> np.ndarray:
        return np.array([math.exp(t) * rot])

    def derivative(t: float) -> np.ndarray:
        return np.array([math.exp(t) * rot])

    return GeodesicCurve(domain, Segment(-a, a, open_ends=True), "affine",
                         sample, derivative, label=f"annulus-radial@{phase:g}")


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
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if np.allclose(x, y):
            raise GeodesicError("antipodal points must differ")
        if self.normal:
            d = np.asarray(self.normal, dtype=float)
            d = d / np.linalg.norm(d)
        else:
            d = _antipodal_normal(self.base, x, y)
            object.__setattr__(self, "normal", tuple(float(c) for c in d))
        hx = base_support(self.base, d)
        hy = -base_support(self.base, -d)
        if abs(float(np.dot(d, x)) - hx) > 1e-9 or abs(float(np.dot(d, y)) - hy) > 1e-9:
            raise GeodesicError("supporting-hyperplane certificate failed")
        if hx - hy <= 1e-9:
            raise GeodesicError("supporting hyperplanes must be distinct")


def _antipodal_normal(base: ConvexBase, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    candidates = [x - y]
    n = len(x)
    eye = np.eye(n)
    candidates.extend(eye[j] for j in range(n))
    candidates.extend(-eye[j] for j in range(n))
    from .domains import base_facet_normals

    candidates.extend(base_facet_normals(base))
    for cand in candidates:
        norm = float(np.linalg.norm(cand))
        if norm < 1e-14:
            continue
        d = cand / norm
        hx = base_support(base, d)
        hy = -base_support(base, -d)
        if abs(float(np.dot(d, x)) - hx) <= 1e-9 and abs(float(np.dot(d, y)) - hy) <= 1e-9 \
                and hx - hy > 1e-9:
            return d
    raise GeodesicError("no common supporting normal found; points are not antipodal")


def antipodal_geodesic(base: ConvexBase, pair: AntipodalPair,
                       phases: tuple[float, ...] | None = None) -> GeodesicCurve:
    """Geodesic line t -> exp((x+y)/2) * exp(t (x-y)/2) of the Reinhardt
    domain over `base`, t in (-1, 1); its log-image is the open segment
    from y to x.  Optional coordinatewise phases rotate the line inside
    the domain (rotations are automorphisms).
    """
    x = np.asarray(pair.x, dtype=float)
    y = np.asarray(pair.y, dtype=float)
    mid = 0.5 * (x + y)
    half = 0.5 * (x - y)
    domain = ReinhardtLog(base)
    rot = np.ones(len(x), dtype=complex)
    if phases is not None:
        rot = np.exp(1j * np.asarray(phases, dtype=float))

    def sample(t: float) -> np.ndarray:
        return rot * np.exp(mid + t * half)

    def derivative(t: float) -> np.ndarray:
        return rot * np.exp(mid + t * half) * half

    return GeodesicCurve(domain, Segment(-1.0, 1.0, open_ends=True), "affine",
                         sample, derivative, label="antipodal")


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
    from .coverings import ExpCover, HolomorphicMap, Power, apply_map

    if not isinstance(covering, HolomorphicMap):
        raise GeodesicError("covering must be a HolomorphicMap")
    pre = as_point(base_preimage)
    anchor_t = _anchor_parameter(curve.interval)
    base_pt = curve.sample(anchor_t)
    image = apply_map(covering, pre)
    if float(np.max(np.abs(image - base_pt))) > 1e-8:
        raise GeodesicError("base_preimage does not map to the curve's basepoint")

    kind = covering.kind
    if isinstance(kind, ExpCover):
        def local_lift(w: np.ndarray, ref: np.ndarray) -> np.ndarray:
            raw = np.log(np.abs(w)) + 1j * np.angle(w)
            shift = np.round((ref.imag - raw.imag) / (2.0 * math.pi))
            return raw + 2.0 * math.pi * 1j * shift
    elif isinstance(kind, Power):
        n_pow = kind.n

        def local_lift(w: np.ndarray, ref: np.ndarray) -> np.ndarray:
            # continuous n-th root: pick the branch whose n-th power has
            # the argument nearest the reference's image
            raw_angle = np.angle(w)
            ref_angle = np.angle(ref) * n_pow
            k = np.round((ref_angle - raw_angle) / (2.0 * math.pi))
            ang = (raw_angle + 2.0 * math.pi * k) / n_pow
            return np.abs(w) ** (1.0 / n_pow) * np.exp(1j * ang)
    else:
        raise GeodesicError(f"lifting not implemented for {kind!r}")

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

def radial_family(n_members: int = 12, punctured: bool = True) -> GeodesicFamily:
    """Complete radial family of the (punctured) disc, anchored at the
    puncture (every ray t*omega converges to 0 as t -> 0+)."""
    members = tuple(disc_radial_geodesic(complex(math.cos(a), math.sin(a)), punctured)
                    for a in (2.0 * math.pi * k / n_members for k in range(n_members)))
    domain = members[0].domain

    def member_through(z: np.ndarray):
        z = as_point(z)
        w = complex(z[0])
        r = abs(w)
        return disc_radial_geodesic(w / r, punctured), r

    anchor = ("boundary-landing", (0.0 + 0.0j,)) if punctured else None
    return GeodesicFamily(domain, members, member_through, anchor, label="radial")


def strip_crossing_family(R: float, heights: tuple[float, ...] = ()) -> GeodesicFamily:
    """Complete family of crossing geodesic lines of H_R (one per height)."""
    if not heights:
        heights = tuple(np.linspace(-4.0, 4.0, 9))
    members = tuple(strip_crossing_geodesic(R, h) for h in heights)

    def member_through(z: np.ndarray):
        z = as_point(z)
        return strip_crossing_geodesic(R, z[0].imag), float(z[0].real)

    return GeodesicFamily(Strip(R), members, member_through, None, label="strip-crossing")


def ball_segment_family(n: int, p, targets: tuple = ()) -> GeodesicFamily:
    """Geodesic segments of the ball starting from the interior point p.

    Complete by construction: `member_through(z)` returns the segment from
    p through z, which contains z at parameter K(p, z).
    """
    p_arr = as_point(p)
    if not targets:
        from ._sampling import ball_points

        targets = tuple(ball_points(8, n, radius=0.7, seed=1))
    members = tuple(ball_geodesic_segment(n, p_arr, w) for w in targets
                    if not np.array_equal(as_point(w), p_arr))

    def member_through(z: np.ndarray):
        z = as_point(z)
        seg = ball_geodesic_segment(n, p_arr, z)
        return seg, seg.interval.b

    return GeodesicFamily(UnitBall(n), members, member_through,
                          ("interior", tuple(complex(c) for c in p_arr)),
                          label=f"segments@{np.round(p_arr, 4)}")


def ball_landing_family(n: int, p, starts: tuple = ()) -> GeodesicFamily:
    """Rays of the ball landing at the boundary point p, anchored there."""
    p_arr = p.as_array() if isinstance(p, BoundaryPoint) else as_point(p)
    if not starts:
        from ._sampling import ball_points

        starts = tuple(ball_points(8, n, radius=0.6))
    members = tuple(ball_landing_ray(n, s, p_arr) for s in starts)

    def member_through(z: np.ndarray):
        return ball_landing_ray(n, z, p_arr), 0.0

    return GeodesicFamily(UnitBall(n), members, member_through,
                          ("boundary-landing", tuple(complex(c) for c in p_arr)),
                          label=f"landing@{np.round(p_arr, 4)}")


def antipodal_family(base: ConvexBase, count: int = 20,
                     with_phases: bool = False) -> GeodesicFamily:
    """Antipodal geodesic lines of the Reinhardt domain over a ball base.

    Members run through `count` diametral directions; `member_through`
    returns the rotated diametral line through any interior point, which
    makes the family complete whenever every base point lies on a segment
    joining antipodal boundary points (true for balls).
    """
    from ._sampling import sphere_directions

    n = len(base_reference(base))
    dirs = sphere_directions(count, n)
    members = []
    for k, d in enumerate(dirs):
        x = _boundary_along(base, d)
        y = _boundary_along(base, -d)
        pair = AntipodalPair(base, tuple(x), tuple(y))
        phases = None
        if with_phases:
            phases = tuple(2.0 * math.pi * ((k * 7 + j * 3) % 11) / 11.0 for j in range(n))
        members.append(antipodal_geodesic(base, pair, phases))
    domain = ReinhardtLog(base)

    def member_through(z: np.ndarray):
        z = as_point(z)
        u = np.log(np.abs(z))
        ref = base_reference(base)
        rel = u - ref
        norm = float(np.linalg.norm(rel))
        if norm < 1e-13:
            rel = np.eye(n)[0]
            norm = 1.0
        d = rel / norm
        x = _boundary_along(base, d, ref)
        y = _boundary_along(base, -d, ref)
        pair = AntipodalPair(base, tuple(x), tuple(y))
        curve = antipodal_geodesic(base, pair, tuple(np.angle(z)))
        # u = mid + t*half with half = (x - y)/2
        half = 0.5 * (x - y)
        t = float(np.dot(u - 0.5 * (x + y), half) / np.dot(half, half))
        return curve, t

    return GeodesicFamily(domain, tuple(members), member_through, None, label="antipodal")


def _boundary_along(base: ConvexBase, direction: np.ndarray, origin=None) -> np.ndarray:
    ref = base_reference(base) if origin is None else np.asarray(origin, dtype=float)
    lo, hi = chord_interval(base, ref, direction)
    return ref + hi * direction


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
