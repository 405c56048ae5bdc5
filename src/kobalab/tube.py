"""Two-sided Kobayashi bounds for tube domains over bounded convex bases.

The lower bound projects the tube onto supporting slabs (strips) and takes
the best strip distance; every holomorphic projection contracts, so this
never exceeds the true distance.  The upper bound evaluates explicit
analytic-disc competitors: affine discs, the chord-slice disc for pairs
with equal imaginary parts, chained affine discs for far pairs, and the
exact product formula over box bases.  The pair (lower, upper) brackets
the true distance; on segments joining antipodal boundary points of the
base the two sides coincide up to rounding.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from ._sampling import sphere_directions
from .closed_forms import strip_density_offset, strip_distance_offset
from .domains import (Box, ConvexBase, EuclideanBall, LinearImage, Polytope, as_pairs,
                      base_dim, base_facet_normals, base_membership, chord_interval,
                      distinct_rows, rowdot)

DIRECTIONS_PER_DIM = 64


class TubeMetricError(RuntimeError):
    """No admissible competitor found; should not happen for convex tubes."""


def _unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unit, keep): the rows of a (..., n) array whose norm exceeds 1e-14,
    scaled to unit length and stacked as (k, n), and the mask of the rows
    kept.  Each row's arithmetic is independent of the other rows."""
    norms = np.sqrt(rowdot(rows, rows))
    keep = norms > 1e-14
    return rows[keep] / norms[keep, None], keep


@functools.lru_cache(maxsize=64)
def _base_direction_block(base: ConvexBase) -> tuple:
    """Cached (directions, supports+, supports-) for the base-only sweep: a
    deterministic spread of 64*dim unless the base is a polytope, the facet
    normals, the coordinate axes."""
    n = base_dim(base)
    eye = np.eye(n)
    blocks = [_unit_rows(np.array(base_facet_normals(base), dtype=float).reshape(-1, n))[0],
              eye, -eye]
    if _TUBE_KINDS[type(base)].spread:
        blocks.insert(0, sphere_directions(DIRECTIONS_PER_DIM * n, n))
    dirs = np.vstack(blocks)
    his = base.support(dirs)
    los = -base.support(-dirs)
    dirs.setflags(write=False)
    his.setflags(write=False)
    los.setflags(write=False)
    return dirs, his, los


def _extra_slabs(base: ConvexBase, rows: np.ndarray) -> tuple:
    """(directions, supports+, supports-, kept) for the per-pair extra
    directions: the rows of `rows` that are not ~0, normalised; `kept`
    marks which rows they came from."""
    dirs, keep = _unit_rows(rows)
    return dirs, base.support(dirs), -base.support(-dirs), keep


# cells per block of the (pairs, directions) slab table, which bounds memory
_SWEEP_CELLS = 1 << 12


def caratheodory_lower(base: ConvexBase, u, v):
    """Supporting-slab lower bound for the tube distance.

    u, v are one pair of points, or m pairs as (m, n) arrays (the result is
    then an (m,) array).  Sweeps the cached direction set plus each pair's
    real/imaginary parts of v - u and returns the largest strip distance
    among the slab projections.
    """
    single, us, vs = as_pairs(u, v)
    for x in distinct_rows(us.real, vs.real):
        if not base_membership(base, x):
            raise ValueError("points must lie in the open tube")
    step = max(1, _SWEEP_CELLS // (len(_base_direction_block(base)[0]) + 2))
    best = np.concatenate([_slab_sweep(base, us[i:i + step], vs[i:i + step])
                           for i in range(0, len(us), step)])
    return float(best[0]) if single else best


def _slab_sweep(base: ConvexBase, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The largest slab strip distance of each row pair, over the table of
    the cached block and each pair's extra slabs along Re(v - u) and
    Im(v - u); a dropped extra (that part ~0) is (-1, 1) with both points at 0."""
    m = len(us)
    dirs, his, los = _base_direction_block(base)
    d = len(dirs)
    w = vs - us
    ex, ex_his, ex_los, keep = _extra_slabs(base, np.array([w.real, w.imag]))
    owner = np.nonzero(keep)[1]
    lo, hi = np.full((m, d + 2), -1.0), np.full((m, d + 2), 1.0)
    pu, pv = np.zeros((m, d + 2), dtype=complex), np.zeros((m, d + 2), dtype=complex)
    lo[:, :d], hi[:, :d] = los, his
    # <dirs_d, p_k> as (pairs, directions)
    pu[:, :d], pv[:, :d] = (rowdot(p[:, None, :], dirs) for p in (us, vs))
    lo[:, d:].T[keep], hi[:, d:].T[keep] = ex_los, ex_his
    pu[:, d:].T[keep], pv[:, d:].T[keep] = rowdot(us[owner], ex), rowdot(vs[owner], ex)
    # interior points project strictly inside every slab
    return np.max(strip_distance_offset(lo, hi, pu, pv), axis=1)


def _ellipse_extent(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> float:
    """sup over alpha^2 + beta^2 <= 1 of <d, alpha a + beta b>."""
    return math.hypot(float(np.dot(d, a)), float(np.dot(d, b)))


def affine_disc_tau(base: ConvexBase, anchor: np.ndarray, w: np.ndarray) -> float:
    """Smallest tau with Re(anchor) + {Re(lam w)/tau : |lam| <= 1} inside base.

    The affine disc lam -> anchor + lam w / tau is then admissible; tau is
    exact for boxes, polytopes and their linear images, and Newton-solved
    (with a verified pad) for ball bases.
    """
    x = np.asarray(anchor, dtype=float)
    a = np.asarray(w, dtype=complex).real.astype(float)
    b = np.asarray(w, dtype=complex).imag.astype(float)
    return _TUBE_KINDS[type(base)].tau(base, x, a, b)


def _box_disc_tau(base: Box, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return max(math.hypot(aj, bj) / min(hj - xj, xj - lj)
               for aj, bj, lj, hj, xj in zip(a, b, base.lo, base.hi, x))


def _polytope_disc_tau(base: Polytope, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    taus = []
    for n_i, b_i in zip(base.normals, base.offsets):
        n_i = np.asarray(n_i, dtype=float)
        slack = b_i - float(np.dot(n_i, x))
        taus.append(_ellipse_extent(a, b, n_i) / slack)
    return max(taus)


def _linear_image_disc_tau(base: LinearImage, x: np.ndarray, a: np.ndarray,
                           b: np.ndarray) -> float:
    inv = base.inverse
    return affine_disc_tau(base.base, inv @ x, inv @ a + 1j * (inv @ b))


def _ellipse_farthest(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> tuple[float, np.ndarray]:
    """max over theta of |cos(th) a + sin(th) b + m| and the maximizer point.

    Writing x = (cos th, sin th), the square is x^T S x + 2 g^T x + |m|^2
    with S = [a b]^T [a b]; the circle-constrained maximizer solves the
    trust-region secular equation sum g_i^2/(lam - s_i)^2 = 1 for
    lam > s_max in the eigenbasis of S.  All scalar 2x2 arithmetic.
    """
    s11 = float(np.dot(a, a))
    s22 = float(np.dot(b, b))
    s12 = float(np.dot(a, b))
    g1 = float(np.dot(a, m))
    g2 = float(np.dot(b, m))
    m2 = float(np.dot(m, m))
    # eigendecomposition of [[s11, s12], [s12, s22]]
    half_tr = 0.5 * (s11 + s22)
    disc = math.sqrt(max(0.0, (0.5 * (s11 - s22)) ** 2 + s12 * s12))
    e_hi, e_lo = half_tr + disc, half_tr - disc
    # top eigenvector from whichever row gives the larger residual vector
    cand1 = (s12, e_hi - s11)
    cand2 = (e_hi - s22, s12)
    n1 = math.hypot(*cand1)
    n2 = math.hypot(*cand2)
    if max(n1, n2) < 1e-300:
        c, s = (1.0, 0.0) if s11 >= s22 else (0.0, 1.0)
    elif n1 >= n2:
        c, s = cand1[0] / n1, cand1[1] / n1
    else:
        c, s = cand2[0] / n2, cand2[1] / n2
    # eigvec for e_hi is (c, s); for e_lo it's (-s, c)
    gt1 = c * g1 + s * g2
    gt2 = -s * g1 + c * g2
    gnorm = math.hypot(gt1, gt2)
    if gnorm <= 1e-14 * max(1.0, abs(e_hi)):
        # linear term below rounding: quadratic-only maximizer
        xt1, xt2 = 1.0, 0.0
    elif abs(gt1) < 1e-14 * gnorm and abs(gt2) / max(e_hi - e_lo, 1e-300) <= 1.0:
        # hard case: free component along the top eigenvector
        xt2 = gt2 / max(e_hi - e_lo, 1e-300)
        xt1 = math.sqrt(max(0.0, 1.0 - xt2 * xt2))
    else:
        lo = e_hi + 0.5 * abs(gt1) if abs(gt1) > 0 else e_hi + 1e-18 * max(1.0, abs(e_hi))
        hi = e_hi + gnorm
        lam = hi
        for _ in range(60):
            d1 = lam - e_hi
            d2 = lam - e_lo
            phi = (gt1 / d1) ** 2 + (gt2 / d2) ** 2
            resid = phi - 1.0
            if abs(resid) < 1e-14:
                break
            if resid > 0.0:
                lo = lam
            else:
                hi = lam
            dphi = -2.0 * (gt1 * gt1 / d1 ** 3 + gt2 * gt2 / d2 ** 3)
            step = lam - resid / dphi if dphi != 0.0 else 0.5 * (lo + hi)
            lam = step if lo < step < hi else 0.5 * (lo + hi)
        xt1 = gt1 / (lam - e_hi)
        xt2 = gt2 / (lam - e_lo)
        nrm = math.hypot(xt1, xt2)
        if nrm > 0:
            xt1, xt2 = xt1 / nrm, xt2 / nrm
    x1 = c * xt1 - s * xt2
    x2 = s * xt1 + c * xt2
    val = (s11 * x1 * x1 + 2.0 * s12 * x1 * x2 + s22 * x2 * x2
           + 2.0 * (g1 * x1 + g2 * x2) + m2)
    # the antipode competes when the linear term is small
    val_neg = (s11 * x1 * x1 + 2.0 * s12 * x1 * x2 + s22 * x2 * x2
               - 2.0 * (g1 * x1 + g2 * x2) + m2)
    if val_neg > val:
        x1, x2, val = -x1, -x2, val_neg
    point = x1 * a + x2 * b + m
    return math.sqrt(max(val, 0.0)), point


def _ball_disc_tau(base: EuclideanBall, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Smallest tau with max_theta |cos(th) a + sin(th) b + tau m| = tau r.

    Solved by Newton on tau; the derivative of the max is <d*, m> for the
    farthest direction d* (envelope theorem), and |m| < r makes the fixed
    point unique.  The result is padded and verified so the affine disc it
    certifies genuinely stays in the tube.
    """
    m = x - np.asarray(base.center)
    r = base.radius
    if len(base.center) == 1:
        e = math.hypot(a[0], b[0])
        return max(e / (r - m[0]), e / (r + m[0]))
    e0, _ = _ellipse_farthest(a, b, 0.0 * m)
    if e0 == 0.0:
        return 0.0
    tau = e0 / r
    for _ in range(100):
        big_m, point = _ellipse_farthest(a, b, tau * m)
        if big_m <= tau * r * (1.0 + 5e-14):
            break
        norm_pt = float(np.linalg.norm(point))
        slope = float(np.dot(point, m)) / norm_pt if norm_pt > 0 else 0.0
        denom = r - slope
        tau_new = (big_m - tau * slope) / denom if denom > 1e-15 else big_m / r
        tau = max(tau_new, tau * (1.0 + 1e-16))
    tau *= 1.0 + 1e-10
    for _ in range(60):
        big_m, _ = _ellipse_farthest(a, b, tau * m)
        if big_m <= tau * r:
            break
        tau = big_m / r * (1.0 + 1e-12)
    return tau


def _chain_upper(base: ConvexBase, u: np.ndarray, v: np.ndarray,
                 tau_hint: float | None = None) -> float:
    """Upper bound by chaining affine discs along the Euclidean segment.

    Convexity keeps the segment inside the tube, and the Kobayashi
    distance satisfies the triangle inequality, so summing per-leg disc
    bounds is an upper bound for the whole pair.  The disc parameter
    scales roughly linearly in the leg length, so the leg count is chosen
    arithmetically from the whole-pair tau and doubled on failure.
    """
    tau0 = tau_hint if tau_hint is not None else affine_disc_tau(base, u.real, v - u)
    if tau0 < 0.7:
        return math.atanh(tau0)
    legs = max(2, int(math.ceil(tau0 / 0.5)))
    for _ in range(8):
        total = 0.0
        ok = True
        pts = [u + (v - u) * (i / legs) for i in range(legs + 1)]
        for p, q in zip(pts, pts[1:]):
            tau = affine_disc_tau(base, p.real, q - p)
            if tau >= 0.95:
                ok = False
                break
            total += math.atanh(tau)
        if ok:
            return total
        legs *= 2
    raise TubeMetricError("affine chain failed to refine")


def _vertical_cap(base: ConvexBase, x: np.ndarray, y: np.ndarray) -> float:
    """Upper bound for K(x, x + iy) by chained affine discs.

    Along a vertical segment every point has real part x, so the per-leg
    disc parameter is exactly tau0/legs and one tau evaluation covers the
    whole chain.
    """
    if float(np.linalg.norm(y)) < 1e-300:
        return 0.0
    tau0 = affine_disc_tau(base, x, 1j * y.astype(complex))
    legs = max(1, int(math.ceil(tau0 / 0.5)))
    return legs * math.atanh(tau0 / legs)


def chord_terms(base: ConvexBase, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The chord-slice term of each row pair: the strip distance from 0 to 1
    in the interval of s with Re u + s Re(v - u) in the base (0 where
    Re u = Re v).  Every deck translate of a pair shares it."""
    delta = (vs - us).real
    moved = np.sqrt(rowdot(delta, delta)) > 1e-15
    out = np.zeros(len(us))
    s_lo, s_hi = base.chord(us.real[moved], delta[moved])
    out[moved] = strip_distance_offset(s_lo, s_hi, 0.0, 1.0)
    return out


def _good_enough(lower):
    """An upper bound this close to the lower bound settles a pair."""
    return lower * (1.0 + 1e-12) + 1e-14


def _raised(upper, lower):
    """The upper bound, raised to the lower bound where rounding left it
    below; a bracket inverted beyond rounding is an error."""
    if np.any(upper < lower - 1e-9):
        raise TubeMetricError(f"bracket inverted: lower {lower} > upper {upper}")
    return np.maximum(upper, lower)


def closed_bounds(base: ConvexBase, us: np.ndarray, vs: np.ndarray, chord: np.ndarray) -> tuple:
    """(lower, upper, settled) of a batch of row pairs with chord terms
    `chord`: the slab lower bound, the best closed-form disc (the exact
    product disc over box bases, the chord slice for pairs with equal
    imaginary parts; inf if neither applies, 0 on equal pairs), and whether
    it is within rounding of the lower bound, i.e. final."""
    lower = caratheodory_lower(base, us, vs)
    if base_dim(base) == 1:
        # a 1-d tube IS a strip: the slab projection is a biholomorphism
        return lower, lower, np.ones(len(lower), dtype=bool)
    product = _TUBE_KINDS[type(base)].product
    best = (np.full(len(us), math.inf) if product is None
            else product(base, us, vs, strip_distance_offset))
    flat = np.max(np.abs(us.imag - vs.imag), axis=1) < 1e-13
    # the chord term is positive exactly when the real parts differ
    best = np.minimum(best, np.where(flat & (chord > 0.0), chord, math.inf))
    best = np.where(np.all(us == vs, axis=1), 0.0, best)
    return lower, _raised(best, lower), best <= _good_enough(lower)


def disc_upper(base: ConvexBase, u: np.ndarray, v: np.ndarray, lower: float, best: float,
               chord: float) -> float:
    """Upper end of the bracket of one pair that `closed_bounds` left open,
    given its lower bound, closed-form competitor and chord term."""
    return float(_raised(lempert_upper(base, u, v, _good_enough(lower), (best, chord)), lower))


def lempert_upper(base: ConvexBase, u, v, good_enough: float | None = None,
                  closed: tuple[float, float] | None = None) -> float:
    """Analytic-disc upper bound for the tube distance of one pair (family minimum).

    Competitors, cheapest first: the closed-form discs of `closed_bounds`,
    affine discs in both orders, the route through the real points below u
    and v, and chained affine discs as a convexity fallback.  When
    `good_enough` is given, evaluation stops once a candidate reaches it.
    `closed` is the pair's (closed-form disc, chord term) when a caller
    computed them for a whole batch; else they are computed here.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if not base_membership(base, u.real) or not base_membership(base, v.real):
        raise ValueError("points must lie in the open tube")
    if np.array_equal(u, v):
        return 0.0
    if closed is None:
        chord = chord_terms(base, u[None], v[None])
        closed = float(closed_bounds(base, u[None], v[None], chord)[1][0]), float(chord[0])
    best, chord = closed
    if good_enough is not None and best <= good_enough:
        return best
    taus = []
    for p, q in ((u, v), (v, u)):
        tau = affine_disc_tau(base, p.real, q - p)
        taus.append(tau)
        if tau < 1.0:
            best = min(best, math.atanh(tau))
            if good_enough is not None and best <= good_enough:
                return best
    had_disc = best < math.inf
    # through the real points: vertical descent, chord slice, vertical ascent
    best = min(best, _vertical_cap(base, u.real, u.imag) + _vertical_cap(base, v.real, v.imag)
               + chord)
    if not had_disc and min(taus) < 6.0:
        # mid-range pair with no admissible single disc: the short chain
        # is usually tighter than the via-real route
        best = min(best, _chain_upper(base, u, v, tau_hint=min(taus)))
    return best


def tube_distance_bounds(base: ConvexBase, u, v):
    """(lower, upper) bracket of the tube Kobayashi distance.

    u, v are one pair of points, or m pairs as (m, n) arrays (the bracket
    is then two (m,) arrays): `closed_bounds` over all pairs, then
    `disc_upper` for each pair it leaves open.
    """
    single, us, vs = as_pairs(u, v)
    chord = chord_terms(base, us, vs)
    lower, upper, settled = closed_bounds(base, us, vs, chord)
    upper = np.array([hi if done else disc_upper(base, a, b, lo, hi, c) for a, b, lo, hi, done, c
                      in zip(us, vs, lower.tolist(), upper.tolist(), settled.tolist(),
                             chord.tolist())])
    return (float(lower[0]), float(upper[0])) if single else (lower, upper)


def _parallel_scalar(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, complex] | None:
    """If v = zeta * delta for a real direction delta, return (delta, zeta)."""
    nr = float(np.linalg.norm(re))
    ni = float(np.linalg.norm(im))
    if nr < 1e-15 and ni < 1e-15:
        return None
    if ni < 1e-15:
        return re / nr, complex(nr)
    if nr < 1e-15:
        return im / ni, complex(0.0, ni)
    cross = re / nr - im / ni
    cross2 = re / nr + im / ni
    if float(np.linalg.norm(cross)) < 1e-12:
        return re / nr, complex(nr, ni)
    if float(np.linalg.norm(cross2)) < 1e-12:
        return re / nr, complex(nr, -ni)
    return None


def tube_metric_bounds(base: ConvexBase, z, v) -> tuple[float, float]:
    """(lower, upper) bracket of the infinitesimal tube metric at z along v."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if not base_membership(base, z.real):
        raise ValueError("base point must lie in the open tube")
    if float(np.linalg.norm(v)) == 0.0:
        return 0.0, 0.0
    extra = _extra_slabs(base, np.stack([v.real, v.imag]))
    dirs, his, los = (np.concatenate(parts) for parts in zip(_base_direction_block(base), extra))
    lower = float(np.max(strip_density_offset(los, his, rowdot(dirs, z), rowdot(dirs, v))))
    if base_dim(base) == 1:
        return lower, lower

    product = _TUBE_KINDS[type(base)].product
    uppers = [] if product is None else [float(product(base, z, v, strip_density_offset))]
    par = _parallel_scalar(v.real, v.imag)
    if par is not None:
        delta, zeta = par
        s_lo, s_hi = chord_interval(base, z.real, delta)
        uppers.append(abs(zeta) * strip_density_offset(s_lo, s_hi, 0.0 + 0.0j, 1.0 + 0.0j))
    if not uppers or min(uppers) > lower * (1.0 + 1e-12) + 1e-14:
        uppers.append(affine_disc_tau(base, z.real, v))
    upper = min(uppers)
    if upper < lower:
        if upper < lower - 1e-9 * max(1.0, lower):
            raise TubeMetricError("infinitesimal bracket inverted")
        upper = lower
    return lower, upper


def _box_product(base: Box, u: np.ndarray, v: np.ndarray, kernel):
    # product of strips: the coordinate-wise geodesic disc is exact
    return np.max(kernel(np.asarray(base.lo), np.asarray(base.hi), u, v), axis=-1)


class _TubeKind(NamedTuple):
    tau: Callable              # (base, x, a, b) -> affine_disc_tau's value
    product: Callable | None   # (base, us, vs, kernel) -> the product competitor per row
    spread: bool               # the slab sweep adds 64*dim sphere directions


_TUBE_KINDS = {
    EuclideanBall: _TubeKind(_ball_disc_tau, None, True),
    Box: _TubeKind(_box_disc_tau, _box_product, True),
    Polytope: _TubeKind(_polytope_disc_tau, None, False),
    LinearImage: _TubeKind(_linear_image_disc_tau, None, True),
}
