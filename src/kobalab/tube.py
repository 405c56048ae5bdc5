"""Two-sided Kobayashi bounds for tube domains over bounded convex bases.

The lower bound projects the tube onto supporting slabs (strips), each
held as (unit direction, centre, half-width), the base's cached once
with one direction per line (the slab of -e is the slab of e), and takes
the best strip distance, with one arcsinh per pair; every holomorphic
projection contracts, so this never exceeds the true distance.  The
upper bound evaluates explicit analytic-disc competitors: affine discs, the
chord-slice disc for pairs with equal imaginary parts, chained affine
discs for far pairs, and the exact product formula over box bases.  The
pair (lower, upper) brackets the true distance; on segments joining
antipodal boundary points of the base the two sides coincide up to
rounding.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from ._sampling import sphere_directions
from .closed_forms import (strip_centre, strip_density, strip_density_offset,
                           strip_distance_offset, strip_imag_max, strip_imag_stage,
                           strip_pair_stage, strip_point_stage, strip_real_stage)
from .domains import (Box, ConvexBase, DomainError, EuclideanBall, LinearImage, Polytope,
                      as_pairs, base_dim, base_facet_normals, base_membership, chord_interval,
                      rowdot)

DIRECTIONS_PER_DIM = 64


class TubeMetricError(RuntimeError):
    """No admissible competitor found; should not happen for convex tubes."""


def _unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unit, keep): the rows of a (..., n) array with norm > 1e-14, scaled to
    unit length as (k, n), and the mask of the rows kept.  Each row's norm is
    its own; one whose square overflows is divided by its largest entry first."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(rowdot(rows, rows))
    huge = np.isinf(norms)
    if huge.any():  # rare; an empty rescale would cost more than the norms themselves
        scale = np.max(np.abs(rows[huge]), axis=-1, keepdims=True)
        norms[huge] = scale[:, 0] * np.sqrt(rowdot(rows[huge] / scale, rows[huge] / scale))
    keep = norms > 1e-14
    return rows[keep] / norms[keep, None], keep


def _extra_slabs(base: ConvexBase, rows: np.ndarray) -> tuple:
    """(directions, mid, halfwidth, kept) of the per-pair extra slabs along
    the rows of `rows` that are not ~0, normalised; `kept` marks which rows
    they came from.  One support call serves both signs."""
    dirs, keep = _unit_rows(rows)
    both = base.support(np.concatenate([dirs, -dirs]))
    return (dirs, *strip_centre(-both[len(dirs):], both[:len(dirs)]), keep)


# cells per block of the (points or pairs, slabs) arrays of the slab table,
# which bounds the memory of the intermediate arrays.  Measured with
# perfbench on a 2-vCPU VM: blocks of 8192 cells ran `examples` about 3 %
# faster and 16384 no faster, and both raised peak RSS by 0.3 to 1 MB there
# and on `generic-pairs`
_SWEEP_CELLS = 1 << 12


class SlabTable(NamedTuple):
    """The real stage of the slab lower bound of m pairs of point rows.

    A deck translate v + i t of a pair changes only the imaginary parts of
    its projections, so the strip kernel's real stage is set up once per
    search and every translate pays only its pair stage and its imaginary
    stage.  The slabs are the cached direction block (d columns), the
    pair's slab along Re(v - u) (column d), which every translate shares,
    and the slab along Im(v - u) (column d + 1), which changes with the
    translate.  A dropped extra slab (that part ~0) is (-1, 1) with both
    points at 0, whose strip distance is 0.

    `x` and `cos` hold one row per point row: the direction block's centred
    real projections and their cosines (`strip_point_stage`), which depend
    on one point only, with 0 and 1 in the two extra columns.  A
    translate's sin^2(pi dx/4a) and c come from one `strip_pair_stage`
    call over the two rows of each that the pair's indices in `ends` give,
    so the table holds no (pair, slab) array: a deck search over all pairs
    of N points keeps N rows of each, not one per pair.  Per pair the table
    keeps only the slab along Re(v - u): its unit direction (n columns, 0
    where dropped), half-width, sin^2(pi dx/4a) and c, all taken from the
    pair's extra slabs (`_pair_slabs`), which the table's build sets up
    once for all its pairs.  The imaginary parts of the projections are not
    kept: a translate recomputes them with its own.
    """

    us: np.ndarray               # (m, n) the first points of the pairs
    ends: np.ndarray             # (2, m) the point rows of each pair
    x: np.ndarray                # (points, d + 2)
    cos: np.ndarray              # (points, d + 2)
    along: np.ndarray            # (m, n)
    along_halfwidth: np.ndarray  # (m,)
    along_sin2q: np.ndarray      # (m,)
    along_c: np.ndarray          # (m,)


def _one_per_line(rows: np.ndarray) -> np.ndarray:
    """The rows of `rows` that equal no earlier row and no earlier row
    negated, in their order.  Each row is signed so that its first nonzero
    entry is positive, which maps a row and its negation to one row; a
    stable sort puts equal signed rows next to each other, first the
    earliest, and every later one is dropped (exact comparisons)."""
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0.0, axis=1)]
    signed = np.where(lead[:, None] < 0.0, -rows, rows)
    order = np.lexsort(signed.T[::-1])
    ranked = signed[order]
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[order[1:]] = (ranked[1:] == ranked[:-1]).all(axis=1)
    return rows[~repeat]


@functools.lru_cache(maxsize=64)
def _slab_strips(base: ConvexBase) -> tuple:
    """(directions, mid, halfwidth) of the base's slabs, one direction per
    line: the strip of -e is the strip of e, with the same distances.  The
    directions are a spread of lines unless the base is a polytope (in 2-d
    the DIRECTIONS_PER_DIM angles pi k/64 of [0, pi), in n >= 3 dimensions
    64 n Halton directions), the facet normals and the axes, less every row
    that repeats an earlier one up to sign; then two zero rows with mid 0
    and half-width 1, the dropped extra slabs of a table row.  The
    directions are stored by column for `rowdot`."""
    n = base_dim(base)
    eye = np.eye(n)
    blocks = [_unit_rows(np.array(base_facet_normals(base), dtype=float).reshape(-1, n))[0],
              eye, -eye]
    if _TUBE_KINDS[type(base)].spread:
        spread = sphere_directions(DIRECTIONS_PER_DIM * n, n)
        # the angles of [pi, 2 pi) negate those of [0, pi) only up to rounding
        blocks.insert(0, spread[:DIRECTIONS_PER_DIM] if n == 2 else spread)
    dirs = _one_per_line(np.vstack(blocks))
    mid, halfwidth = strip_centre(-base.support(-dirs), base.support(dirs))
    out = (np.asfortranarray(np.vstack([dirs, np.zeros((2, n))])),
           np.concatenate([mid, [0.0, 0.0]]), np.concatenate([halfwidth, [1.0, 1.0]]))
    for a in out:
        a.setflags(write=False)
    return out


def _sweep_rows(base: ConvexBase) -> int:
    """Rows per block of _SWEEP_CELLS cells of the slab table."""
    return max(1, _SWEEP_CELLS // len(_slab_strips(base)[0]))


def _point_stage(points: np.ndarray, strips: tuple, step: int) -> tuple:
    """(x, cos) of the real points `points` in the slabs (dirs, mid,
    halfwidth) of `_slab_strips`, in blocks of `step` points: the centred
    projections and their `strip_point_stage`, which are 0 and 1 in the two
    dropped extra slabs."""
    dirs, mid, halfwidth = strips
    x, cos = np.empty((len(points), len(dirs))), np.empty((len(points), len(dirs)))
    for i in range(0, len(points), step):
        block = np.subtract(rowdot(points[i:i + step, None, :], dirs), mid, out=x[i:i + step])
        cos[i:i + step] = strip_point_stage(halfwidth, block)
    return x, cos


# the (x of u, x of v, dy, halfwidth) columns of a dropped extra slab
_DROPPED = np.array([0.0, 0.0, 0.0, 1.0])[:, None, None].repeat(2, axis=2)
_DROPPED.setflags(write=False)


def _pair_slabs(base: ConvexBase, uv: np.ndarray) -> tuple:
    """(x, dy, halfwidth, along) of the extra slabs of the m pairs whose
    (u, v) are uv[0], uv[1], along Re(v - u) (column 0) and Im(v - u)
    (column 1): the centred real parts of both ends' projections as
    (2, m, 2), the differences Im(u - v) of the projections and the
    half-widths as (m, 2), and the unit Re(v - u) directions as (m, n), 0
    where dropped.  A dropped slab gets the columns of `_DROPPED`.  One
    `_extra_slabs` call and one projection serve all m pairs."""
    w = uv[1] - uv[0]
    dirs, mid, halfwidth, keep = _extra_slabs(base, np.array([w.real, w.imag]))
    proj = rowdot(uv[:, np.nonzero(keep)[1]], dirs)
    cols = _DROPPED.repeat(len(w), axis=1)
    cols.swapaxes(1, 2)[:, keep] = np.array([*(proj.real - mid),
                                             proj.imag[0] - proj.imag[1], halfwidth])
    along = np.zeros(w.shape)
    along[keep[0]] = dirs[:np.count_nonzero(keep[0])]
    return cols[:2], cols[2], cols[3], along


def _slab_cells(dirs: np.ndarray, halfwidth: np.ndarray, xs: np.ndarray, cos: np.ndarray,
                ims: np.ndarray, dy_extra: np.ndarray) -> tuple:
    """(lower, sin2q) of the (pair, slab) cells of a block of pairs: their
    slab lower bound and the strip kernel's sin^2(pi dx/4a).  halfwidth is
    the block's (pairs, slabs) half-widths, xs and cos the centred real
    projections of the pairs' ends and their `strip_point_stage` as
    (2, pairs, slabs), all three with the pairs' extra slabs in the last two
    columns; ims holds the ends' imaginary parts as (2, pairs, n) and
    dy_extra the extra slabs' imaginary differences as (pairs, 2).  dirs is
    the direction block of `_slab_strips`."""
    d = len(dirs) - 2
    sin2q, c = strip_pair_stage(halfwidth, xs[0], xs[1], cos[0], cos[1])
    del xs, cos
    dy = np.subtract(*rowdot(ims[:, :, None, :], dirs))
    dy[:, d:] = dy_extra
    return strip_imag_max(halfwidth, dy, sin2q, c), sin2q


def slab_table(base: ConvexBase, rows: np.ndarray, pairs: np.ndarray, us: np.ndarray,
               vs: np.ndarray) -> tuple:
    """(table, lower): the `SlabTable` of the m pairs (us[k], vs[k]),
    where (i, j) is row k of the (m, 2) index pairs, us[k] is rows[i] (the
    caller's gather of the pairs' first points) and vs[k] has the real part
    of rows[j] (a deck translate of it), and each pair's slab lower bound:
    the largest strip distance over the cached direction block and the
    pair's extra slabs along Re(v - u) and Im(v - u).  The caller has
    checked the rows to lie in the open tube.
    The direction block's projections and cosines are taken once per point
    row and kept, and the extra slabs of all m pairs once (`_pair_slabs`);
    then each block of _SWEEP_CELLS cells gathers its pairs' rows, copies
    in their extra slabs and takes the rest of the real stage and the
    imaginary stage, one kernel call each, of which the table keeps the
    sin^2 q of the slab along Re(v - u).  For a pair matrix of N points the
    table holds O(N (d + 2) + m n) numbers."""
    strips = _slab_strips(base)
    m, step = len(vs), _sweep_rows(base)
    d = len(strips[0]) - 2
    x, cos = _point_stage(rows.real, strips, step)
    ends = pairs.T
    uv = np.array([us, vs])
    ex_x, ex_dy, ex_hw, along = _pair_slabs(base, uv)
    ex_cos = strip_point_stage(ex_hw, ex_x)
    table = SlabTable(us, ends, x, cos, along, ex_hw[:, 0], np.empty(m),
                      ex_cos[0, :, 0] * ex_cos[1, :, 0])
    lower = np.empty(m)
    for i in range(0, m, step):
        block = slice(i, min(i + step, m))
        pair = ends[:, block]
        xs, cs = x[pair], cos[pair]
        xs[..., d:], cs[..., d:] = ex_x[:, block], ex_cos[:, block]
        hw = strips[2][None].repeat(block.stop - i, axis=0)
        hw[:, d:] = ex_hw[block]
        lower[block], sin2q = _slab_cells(strips[0], hw, xs, cs, uv.imag[:, block], ex_dy[block])
        table.along_sin2q[block] = sin2q[:, d]
    return table, lower


def slab_lower(base: ConvexBase, table: SlabTable, owners: np.ndarray,
               vs: np.ndarray) -> np.ndarray:
    """The largest slab strip distance of each translate vs[k] of the pair
    owners[k] of the table, in blocks of _SWEEP_CELLS cells: the direction
    block's cells take their pair stage from the table's point rows and
    their imaginary stage, the slab along Re(v - u) only the imaginary
    stage, and the slab along Im(v - u) all three, in the same calls."""
    step = _sweep_rows(base)
    out = np.empty(len(vs))
    for i in range(0, len(vs), step):
        out[i:i + step] = _slab_block(base, table, owners[i:i + step], vs[i:i + step])
    return out


def _slab_block(base: ConvexBase, table: SlabTable, owners: np.ndarray,
                vs: np.ndarray) -> np.ndarray:
    dirs, _, halfwidths = _slab_strips(base)
    d = len(dirs) - 2
    # the translates' ends, stacked as (2, k, n): each projection below is
    # one call for both ends
    uv = np.array([table.us[owners], vs])
    ims = uv.imag
    ends = table.ends[:, owners]
    # the two extra columns read sin^2 0 and c = 1 here, since x is 0 there
    sin2q, c = strip_pair_stage(halfwidths, *table.x[ends], *table.cos[ends])
    sin2q[:, d], c[:, d] = table.along_sin2q[owners], table.along_c[owners]
    halfwidth = halfwidths[None].repeat(len(vs), axis=0)
    halfwidth[:, d] = table.along_halfwidth[owners]
    dy = np.subtract(*rowdot(ims[:, :, None, :], dirs))
    dy[:, d] = np.subtract(*rowdot(ims, table.along[owners]))
    across, ex_mid, ex_hw, keep = _extra_slabs(base, ims[1] - ims[0])
    proj = rowdot(uv[:, keep], across)
    xs = proj.real - ex_mid
    extra = strip_pair_stage(ex_hw, *xs, *strip_point_stage(ex_hw, xs))
    for column, kept in zip((halfwidth, sin2q, c, dy), (ex_hw, *extra, np.subtract(*proj.imag))):
        column[keep, d + 1] = kept
    return strip_imag_max(halfwidth, dy, sin2q, c)


def caratheodory_lower(base: ConvexBase, u, v):
    """Supporting-slab lower bound for the tube distance.

    u, v are one pair of points, or m pairs as (m, n) arrays (the result is
    then an (m,) array).  The largest strip distance over the cached slabs
    and each pair's slabs along Re(v - u) and Im(v - u).  The extra slabs
    of all pairs are set up once (`_pair_slabs`); then each block of
    _SWEEP_CELLS cells projects its pairs' ends on the direction block and
    takes both stages, with one `strip_point_stage` call over the direction
    block and the extra slabs together.  No table is kept.
    """
    single, us, vs = as_pairs(u, v)
    _require_in_tube(base, np.concatenate([us.real, vs.real]))
    dirs, mid, halfwidths = _slab_strips(base)
    step, d = _sweep_rows(base), len(dirs) - 2
    uv = np.array([us, vs])
    ex_x, ex_dy, ex_hw = _pair_slabs(base, uv)[:3]
    best = np.empty(len(us))
    for i in range(0, len(us), step):
        block = slice(i, min(i + step, len(us)))
        hw = halfwidths[None].repeat(block.stop - i, axis=0)
        hw[:, d:] = ex_hw[block]
        xs = rowdot(uv.real[:, block, None, :], dirs) - mid
        xs[..., d:] = ex_x[:, block]
        best[block] = _slab_cells(dirs, hw, xs, strip_point_stage(hw, xs), uv.imag[:, block],
                                  ex_dy[block])[0]
    return float(best[0]) if single else best


def _require_in_tube(base: ConvexBase, xs: np.ndarray):
    """Raise unless every row of xs, the real parts of tube points, lies in
    the open base (one row-wise `contains` call)."""
    if xs.shape[1] != base_dim(base):
        raise DomainError("base point has wrong dimension")
    if not base.contains(xs).all():
        raise ValueError("points must lie in the open tube")


def affine_disc_tau(base: ConvexBase, anchor, w) -> float:
    """Smallest tau with Re(anchor) + {Re(lam w)/tau : |lam| <= 1} inside base.

    The affine disc lam -> anchor + lam w / tau is then admissible; tau is
    exact for boxes, polytopes and their linear images, and for ball bases
    comes from one scalar equation plus an S-lemma certificate (with a pad).
    `anchor` holds n reals and `w` n complex numbers, as lists or arrays;
    the kinds take lists of Python numbers, since the vectors are short.
    """
    if isinstance(w, np.ndarray):
        w = w.astype(complex).tolist()
    if isinstance(anchor, np.ndarray):
        anchor = anchor.astype(float).tolist()
    return _TUBE_KINDS[type(base)].tau(base, anchor, [z.real for z in w], [z.imag for z in w])


def _box_disc_tau(base: Box, x: list, a: list, b: list) -> float:
    # each coordinate's ellipse half-width over its distance to the nearer face
    return float(np.max(np.hypot(a, b) / np.minimum(np.asarray(base.hi) - x,
                                                     x - np.asarray(base.lo))))


def _polytope_disc_tau(base: Polytope, x: list, a: list, b: list) -> float:
    # each facet's ellipse extent sup <n_i, alpha a + beta b> over its slack
    normals, offsets = np.asarray(base.normals, dtype=float), np.asarray(base.offsets, dtype=float)
    return float(np.max(np.hypot(normals @ a, normals @ b) / (offsets - normals @ x)))


def _linear_image_disc_tau(base: LinearImage, x: list, a: list, b: list) -> float:
    # A^-1 applied to the three vectors in one stacked product, which rounds
    # as three separate `inv @ vector` products do
    inner = base.base
    return _TUBE_KINDS[type(inner)].tau(inner, *np.matmul(base.inverse,
                                                          np.array([x, a, b])[:, :, None])
                                        [:, :, 0].tolist())


def _ball_disc_tau(base: EuclideanBall, x: list, a: list, b: list) -> float:
    """Smallest tau with x + {cos(th) a + sin(th) b}/tau inside the ball.

    One scalar equation plus an S-lemma certificate.  Let m = x - c,
    room = r^2 - |m|^2, S = [a b]^T [a b] with eigenvalues top >= top - gap
    and g = [a b]^T m in S's eigenbasis (gap_1 = 0, gap_2 = gap).  The
    S-lemma, lossless for one quadratic constraint, says the disc fits iff
    the Schur complement room - lam/tau^2 - sum_i g_i^2/(d + gap_i) is >= 0
    for some multiplier lam = top + d, d >= 0.  Each d thus certifies
    tau(d)^2 = lam / (room - sum_i g_i^2/(d + gap_i)); the smallest is at
    the root d* of the decreasing
        F(d) = sum_i g_i^2 (top + gap_i + 2 d) / (d + gap_i)^2 = room,
    or at d* = 0 when g_1 = 0 and F(0) <= room (the hard case).  tau(d) is
    stationary at d*, so an error in d* enters tau only to second order.
    The padded tau is checked against the certificate before it is returned.
    The arithmetic is on Python floats: the vectors are short and the
    Newton loop takes a few steps, so numpy's per-call cost would dominate.
    """
    mm = s11 = s12 = s22 = ga = gb = 0.0
    for xi, ci, ai, bi in zip(x, base.center, a, b):
        mi = xi - ci
        mm += mi * mi
        s11 += ai * ai
        s12 += ai * bi
        s22 += bi * bi
        ga += ai * mi
        gb += bi * mi
    dist, r = math.sqrt(mm), base.radius
    room = (r - dist) * (r + dist)
    if not room > 0.0:
        raise TubeMetricError("affine disc anchored outside the ball")
    gap = math.hypot(s11 - s22, 2.0 * s12)
    top = 0.5 * (s11 + s22 + gap)
    if top == 0.0:
        return 0.0
    # rotate g into S's eigenbasis; for S = top * I any basis is one, so align it with g
    th = 0.5 * math.atan2(2.0 * s12, s11 - s22) if gap > 0.0 else math.atan2(gb, ga)
    c, s = math.cos(th), math.sin(th)
    g1, g2 = c * ga + s * gb, c * gb - s * ga
    # the weights g_i^2 at the poles 0 and -gap; a zero weight drops its term
    p1, p2 = g1 * g1, g2 * g2
    d = 0.0
    if g1 != 0.0 or (p2 > 0.0 and p2 * (top + gap) / (gap * gap) > room):
        # F's bracket: its first term alone, and all of g on the first pole
        d = lo = _pole_root(p1, top, room)
        hi = _pole_root(p1 + p2, top + gap, room)
        for _ in range(100):
            # q_i = g_i^2 / (d + gap_i)^2, and F and F' from them
            e = d + gap
            q1 = p1 / (d * d) if p1 > 0.0 else 0.0
            q2 = p2 / (e * e) if p2 > 0.0 else 0.0
            f = q1 * (top + 2.0 * d) + q2 * (top + gap + 2.0 * d)
            df = -2.0 * (top + d) * ((q1 / d if p1 > 0.0 else 0.0) + q2 / e)
            lo, hi = (d, hi) if f > room else (lo, d)
            # Newton on F^(-1/2), nearly linear in d; bisect if it leaves the bracket
            step = 2.0 * f * (1.0 - math.sqrt(f / room)) / df
            if abs(step) <= 1e-13 * d:
                break
            d = d + step if lo < d + step < hi else 0.5 * (lo + hi)
    lam = top + d
    sigma = (p1 / d if p1 > 0.0 else 0.0) + (p2 / (d + gap) if p2 > 0.0 else 0.0)
    tau = math.sqrt(lam / (room - sigma)) * (1.0 + 1e-10) if room > sigma else math.nan
    # the certificate: Schur complement of the S-lemma matrix at multiplier lam/tau^2
    if not room - lam / (tau * tau) - sigma >= 0.0:
        raise TubeMetricError("affine disc failed its S-lemma certificate")
    return tau


def _pole_root(gg: float, k: float, room: float) -> float:
    """The d > 0 with gg (k + 2 d) / d^2 = room (0 when gg = 0)."""
    return (gg + math.sqrt(gg * gg + room * gg * k)) / room


def _chain_upper(base: ConvexBase, u: list, v: list, taus: list, cut: float) -> float:
    """Upper bound by chaining affine discs along the Euclidean segment.

    Convexity keeps the segment inside the tube, and the Kobayashi
    distance satisfies the triangle inequality, so summing per-leg disc
    bounds is an upper bound for the whole pair.  The disc parameter
    scales roughly linearly in the leg length, so the leg count is chosen
    arithmetically from the smaller whole-pair tau (`taus` holds the taus
    anchored at u and at v) and doubled on failure.  u and v are lists of
    complex numbers.

    A chain stops once its partial sum exceeds `cut` and no later leg can
    fail, and returns that sum: the whole chain is larger still.  Over a
    convex base the reciprocal of tau is concave in the anchor for a fixed
    disc direction, so no later leg's tau exceeds the larger of this leg's
    and the one anchored at v; a leg fails at 0.95, and below 0.9 there is
    room for rounding.
    """
    tau0 = min(taus)
    if tau0 < 0.7:
        return math.atanh(tau0)
    legs = max(2, int(math.ceil(tau0 / 0.5)))
    delta = [b - a for a, b in zip(u, v)]
    for _ in range(8):
        total = 0.0
        pts = [[a + e * (i / legs) for a, e in zip(u, delta)] for i in range(legs + 1)]
        for p, q in zip(pts, pts[1:]):
            tau = affine_disc_tau(base, [z.real for z in p], [b - a for a, b in zip(p, q)])
            if tau >= 0.95:
                break
            total += math.atanh(tau)
            if total > cut and max(tau, taus[1] / legs) < 0.9:
                return total
        else:
            return total
        legs *= 2
    raise TubeMetricError("affine chain failed to refine")


def _vertical_cap(base: ConvexBase, x: list, y: list) -> float:
    """Upper bound for K(x, x + iy) by chained affine discs, for lists of
    floats x and y.

    Along a vertical segment every point has real part x, so the per-leg
    disc parameter is exactly tau0/legs and one tau evaluation covers the
    whole chain.
    """
    if math.sqrt(sum(t * t for t in y)) < 1e-300:
        return 0.0
    tau0 = affine_disc_tau(base, x, [1j * t for t in y])
    legs = max(1, int(math.ceil(tau0 / 0.5)))
    return legs * math.atanh(tau0 / legs)


def chord_terms(base: ConvexBase, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The chord-slice term of each row pair: the strip distance from 0 to 1
    in the interval of s with Re u + s Re(v - u) in the base (0 where
    Re u = Re v).  Every deck translate of a pair shares it."""
    delta = (vs - us).real
    moved = np.sqrt(rowdot(delta, delta)) > 1e-15
    out = np.zeros(len(us))
    mid, halfwidth = strip_centre(*base.chord(us.real[moved], delta[moved]))
    out[moved] = strip_imag_stage(halfwidth, 0.0,
                                  *strip_real_stage(halfwidth, 0.0 - mid, 1.0 - mid))
    return out


def _good_enough(lower):
    """An upper bound this close to the lower bound settles a pair."""
    return lower * (1.0 + 1e-12) + 1e-14


def _raised(upper: float, lower: float) -> float:
    """The upper bound, raised to the lower bound where rounding left it
    below; a bracket inverted beyond rounding is an error."""
    if upper < lower - 1e-9:
        raise TubeMetricError(f"bracket inverted: lower {lower} > upper {upper}")
    return max(upper, lower)


def closed_bounds(base: ConvexBase, us: np.ndarray, vs: np.ndarray, chord: np.ndarray,
                  lower: np.ndarray) -> tuple:
    """(upper, settled) of a batch of row pairs with chord terms `chord` and
    slab lower bounds `lower`: the best closed-form disc (the exact product
    disc over box bases, the chord slice for pairs with equal imaginary
    parts; inf if neither applies, 0 on equal pairs), raised to the lower
    bound, and whether it is within rounding of the lower bound, i.e. final."""
    if base_dim(base) == 1:
        # a 1-d tube IS a strip: the slab projection is a biholomorphism
        return lower, np.ones(len(lower), dtype=bool)
    flat = np.max(np.abs(us.imag - vs.imag), axis=1) < 1e-13
    # the chord term is positive exactly when the real parts differ
    best = np.where(flat & (chord > 0.0), chord, math.inf)
    product = _TUBE_KINDS[type(base)].product
    if product is not None:
        best = np.minimum(product(base, us, vs, strip_distance_offset), best)
    best = np.where(np.all(us == vs, axis=1), 0.0, best)
    inverted = best < lower - 1e-9
    if inverted.any():
        k = int(inverted.argmax())
        raise TubeMetricError(f"bracket inverted: lower {lower[k]} > upper {best[k]}")
    return np.maximum(best, lower), best <= _good_enough(lower)


def translate_terms(base: ConvexBase, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The terms that every deck translate v + i*t of each row pair shares,
    as (m, 2) rows: the chord term (`chord_terms`) and the vertical cap at
    u, which is NaN until `disc_upper` first needs it and stores it."""
    return np.stack([chord_terms(base, us, vs), np.full(len(us), math.nan)], axis=1)


def disc_upper(base: ConvexBase, u: np.ndarray, v: np.ndarray, lower: float, best: float,
               terms: np.ndarray, cut: float) -> float:
    """Upper end of the bracket of one pair that `closed_bounds` left open,
    given its lower bound, closed-form competitor and its writable row of
    `translate_terms` (the vertical cap at u is computed into it if still
    NaN).  A value above `cut` may be any value above it (see
    `lempert_upper`)."""
    if math.isnan(terms[1]):
        terms[1] = _vertical_cap(base, u.real.tolist(), u.imag.tolist())
    closed = (best, float(terms[0]), float(terms[1]))
    return _raised(lempert_upper(base, u, v, _good_enough(lower), closed, cut), lower)


def lempert_upper(base: ConvexBase, u, v, good_enough: float | None = None,
                  closed: tuple[float, float, float] | None = None,
                  cut: float = math.inf) -> float:
    """Analytic-disc upper bound for the tube distance of one pair (family minimum).

    Competitors, cheapest first: the closed-form discs of `closed_bounds`,
    affine discs in both orders, the route through the real points below u
    and v, and chained affine discs as a convexity fallback.  When
    `good_enough` is given, evaluation stops once a candidate reaches it.
    `closed` is the pair's (closed-form disc, chord term, vertical cap at u)
    when a caller computed them with `closed_bounds`, which also checked
    both points; else the points are checked and the terms computed here.
    A caller that only needs to know whether the bound exceeds `cut` (a
    deck translate against its pair's best so far) gets, when it does, some
    value above `cut` that the chain reached before it was finished.  The
    competitors run on Python floats.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 1:
        raise DomainError("base point has wrong dimension")
    if closed is None:
        _require_in_tube(base, np.stack([u.real, v.real]))
        if np.array_equal(u, v):
            return 0.0
        chord = chord_terms(base, u[None], v[None])
        lower = caratheodory_lower(base, u[None], v[None])
        closed = (float(closed_bounds(base, u[None], v[None], chord, lower)[0][0]),
                  float(chord[0]), _vertical_cap(base, u.real.tolist(), u.imag.tolist()))
    best, chord, cap_u = closed
    if good_enough is not None and best <= good_enough:
        return best
    u, v = u.tolist(), v.tolist()
    taus = []
    for p, q in ((u, v), (v, u)):
        tau = affine_disc_tau(base, [z.real for z in p], [b - a for a, b in zip(p, q)])
        taus.append(tau)
        if tau < 1.0:
            best = min(best, math.atanh(tau))
            if good_enough is not None and best <= good_enough:
                return best
    had_disc = best < math.inf
    # through the real points: vertical descent, chord slice, vertical ascent
    best = min(best, cap_u + _vertical_cap(base, [z.real for z in v], [z.imag for z in v])
               + chord)
    if not had_disc and min(taus) < 6.0:
        # mid-range pair with no admissible single disc: the short chain
        # is usually tighter than the via-real route; a chain past the
        # best so far (or past cut) cannot matter
        best = min(best, _chain_upper(base, u, v, taus, min(best, cut)))
    return best


def tube_distance_bounds(base: ConvexBase, u, v):
    """(lower, upper) bracket of the tube Kobayashi distance.

    u, v are one pair of points, or m pairs as (m, n) arrays (the bracket
    is then two (m,) arrays): the slab lower bound and `closed_bounds`
    over all pairs, then `disc_upper` for each pair they leave open.
    """
    single, us, vs = as_pairs(u, v)
    terms = translate_terms(base, us, vs)
    lower = caratheodory_lower(base, us, vs)
    upper, settled = closed_bounds(base, us, vs, terms[:, 0], lower)
    upper = np.array([hi if done else disc_upper(base, a, b, lo, hi, t, math.inf)
                      for a, b, lo, hi, done, t
                      in zip(us, vs, lower.tolist(), upper.tolist(), settled.tolist(), terms)])
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
    # the two zero rows of the cached slabs have density 0
    extra = _extra_slabs(base, np.stack([v.real, v.imag]))[:3]
    dirs, mid, halfwidth = (np.concatenate(parts) for parts in zip(_slab_strips(base), extra))
    lower = float(np.max(strip_density(halfwidth, rowdot(dirs, z) - mid, rowdot(dirs, v))))
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
    spread: bool               # the slab block adds a spread of lines


_TUBE_KINDS = {
    EuclideanBall: _TubeKind(_ball_disc_tau, None, True),
    Box: _TubeKind(_box_disc_tau, _box_product, True),
    Polytope: _TubeKind(_polytope_disc_tau, None, False),
    LinearImage: _TubeKind(_linear_image_disc_tau, None, True),
}
