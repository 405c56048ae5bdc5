"""Kobayashi distance, infinitesimal metric, and hyperbolic length for every
model-domain kind.

Each kind has one engine entry in `_ENGINES`, its distance and its density
(the rest of the kind is its class in domains.py):

* disc / strip / half-plane / ball / polydisc: closed forms;
* punctured disc / annulus: the half-plane / strip closed form at the
  nearest deck translate of the exponential covering, which minimises over
  the deck lattice there;
* tube over a convex base: certified sandwich (slab lower bound, analytic
  disc upper bound);
* Reinhardt-log domains: verified finite search over the deck lattice of
  the exp covering from the tube (`deck_infimum`);
* scaled ellipsoids: exact ball formula when eps = 0, inscribed/
  circumscribed ball sandwich otherwise.

Distances are computed in batches: `distances` evaluates index pairs of a
point set, checking each point once, and `distance` is its one-pair case.
Engines return columns (value, gap, method, deck index), and a
`DistanceValue` is built only when one pair is looked at.  Every function
is pure; results for sandwich kinds carry their bracket gap instead of
pretending to be exact.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import closed_forms as cf
from .domains import (Annulus, LeftHalfPlane, ModelDomain, Polydisc,
                      PuncturedDisc, ReinhardtLog, ScaledEllipsoid, Strip, TubeOverBase,
                      UnitBall, UnitDisc, as_point, base_support, dim,
                      require_interior)
from .quadrature import adaptive_simpson
from .tube import (closed_bounds, disc_upper, slab_lower, slab_table, translate_terms,
                   tube_distance_bounds, tube_metric_bounds)

TWO_PI = 2.0 * math.pi
DECK_ENUM_CAP = 200_000


class DeckBoundError(RuntimeError):
    """The auto-bound rule could not certify the deck search."""


class SandwichGapError(RuntimeError):
    """A sandwich bracket exceeded the caller's gap tolerance."""


class SandwichRangeError(ValueError):
    """An interior point lies where the sandwich cannot bracket the metric."""


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


class DistanceColumns(Sequence):
    """The distances of a batch of pairs as read-only columns.

    `value`, `gap` and `method` are (m,) arrays and `deck_index` is an
    (m, n) integer array for the deck kinds, else None; `lower` and
    `upper` are the bracket ends.  As a sequence it holds one
    `DistanceValue` per pair, built when that pair is looked at, and it
    compares equal to a list of them.
    """

    __slots__ = ("value", "gap", "method", "deck_index")

    def __init__(self, value: np.ndarray, gap: np.ndarray, method: np.ndarray,
                 deck_index: np.ndarray | None = None):
        if value.min(initial=0.0) < 0.0 or gap.min(initial=0.0) < 0.0:
            raise ValueError("distance and gap must be nonnegative")
        for name, column in zip(self.__slots__, (value, gap, method, deck_index)):
            if column is not None:
                column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError("distance columns are read-only")

    @property
    def lower(self) -> np.ndarray:
        return self.value - 0.5 * self.gap

    @property
    def upper(self) -> np.ndarray:
        return self.value + 0.5 * self.gap

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return DistanceColumns(self.value[k], self.gap[k], self.method[k],
                                   None if self.deck_index is None else self.deck_index[k])
        value = self.value.item(k)      # an int k, negative counting from the end
        deck = None if self.deck_index is None else tuple(self.deck_index[k].tolist())
        return DistanceValue(value, self.method.item(k), self.gap.item(k), deck)

    def __iter__(self):
        decks = ([None] * len(self) if self.deck_index is None
                 else map(tuple, self.deck_index.tolist()))
        for value, method, gap, deck in zip(self.value.tolist(), self.method.tolist(),
                                            self.gap.tolist(), decks):
            yield DistanceValue(value, method, gap, deck)

    def __eq__(self, other):
        if isinstance(other, (DistanceColumns, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"DistanceColumns({list(self)!r})"


# ---------------------------------------------------------------------------
# deck search over the tube cover
# ---------------------------------------------------------------------------
#
# The punctured disc and the annulus need no search: on their covers, the
# half-plane and the strip, the distance at fixed real parts grows with
# |Im(u - v)|, so the nearest translate nu0 (|dy0| <= pi, every other
# translate at least pi away) minimises (`_nearest_translate`).  On a tube
# the slabs of other directions can make a farther translate nearer, so
# Reinhardt domains are searched.
#
# The tube's cover record bounds the cover distance of translates.
# start(rows, pairs, us, vs) is (shared, lower, upper, settled): what every
# translate of the pairs (rows[i], rows[j]) of the (m, 2) index pairs
# shares (the slab table, and the chord terms and vertical caps at the
# pairs' first points us, which the caller gathered as rows[pairs[:, 0]]),
# set up once per search, and the bounds of the translates vs of the
# second points (settled: upper is final).
# bounds(shared, owners, vs) is (lower, upper, settled) for the
# translates vs[k] of the pairs owners[k], many translates at once;
# finish(shared, k, v, lo, hi, cut) is the upper bound of one translate v of
# pair k left open (it may fill in the pair's shared terms), or any value
# above cut once the bound is known to exceed cut: such a translate cannot
# lower its pair's best.  offset_lower(us, vs, dys) is a cheap lower bound
# for the translate whose imaginary offset from u is dys[k, l], over an
# (m, L, n) array of offsets; threshold(us, vs, best) is the per-coordinate
# |dy_j| beyond which that bound exceeds best, as (m, n); it does not
# decrease as best grows.

@functools.lru_cache(maxsize=64)
def _cover(cover: ModelDomain) -> tuple:
    """(start, bounds, finish, offset_lower, threshold) of the exp-cover of
    a Reinhardt domain, the tube over its base, built once per base.  Each
    coordinate slab of half-width a_j gives the offset bound
    pi |dy_j| / (4 a_j)."""
    if type(cover) is not TubeOverBase:
        raise ValueError(f"{cover!r} is not a supported covering")
    base = cover.base
    eye = np.eye(cover.dim)
    halfwidths = np.array([0.5 * (base_support(base, e) + base_support(base, -e)) for e in eye])

    def start(rows, pairs, us, vs):
        table, lower = slab_table(base, rows, pairs, us, vs)
        terms = translate_terms(base, us, vs)
        return (table, terms), lower, *closed_bounds(base, us, vs, terms[:, 0], lower)

    def bounds(shared, owners, vs):
        table, terms = shared
        lower = slab_lower(base, table, owners, vs)
        return (lower, *closed_bounds(base, table.us[owners], vs, terms[owners, 0], lower))

    def finish(shared, k, v, lo, hi, cut):
        table, terms = shared
        return disc_upper(base, table.us[k], v, lo, hi, terms[k], cut)

    return (start, bounds, finish,
            lambda us, vs, dys: np.max(math.pi * np.abs(dys) / (4.0 * halfwidths), axis=-1),
            lambda us, vs, best: 4.0 * halfwidths * best[:, None] / math.pi)


# lattice points per block of the vectorised offset bound, which bounds
# the memory of its temporaries.  A search over a grouped audit's 1,984
# pairs enumerates up to about 16k points.  Measured with perfbench on a
# 2-vCPU VM, blocks of 1 << 16, which hold all of them, raised `examples`
# peak RSS by 1.3 MB over blocks of 1 << 12 and ran it 1 to 3 % faster
_SHELL_BLOCK = 1 << 12


def deck_infimum(cover: ModelDomain, points, pairs) -> DistanceColumns:
    """Minimum over deck translates v + 2*pi*i*nu of the tube-cover distance.

    `cover` is a `TubeOverBase`, the exp-cover of a Reinhardt domain; no
    other kind needs a search (ValueError).  `points` and `pairs` are as in
    `distances`: the cover points, checked
    with one `require_interior` call, and index pairs (i, j), each the pair
    (u, v) = (points[i], points[j]).  The result has one row per pair, and
    its `deck_index` holds each pair's nu.  Each pair's search box is
    centred on its nearest translate nu0 and sized from nu0's upper bound B:
    every translate outside it has an offset lower bound above B, which is
    at least the final best, so the one box holds every translate that can
    lower the minimum and the returned minimum is attained and certified.
    A pair whose nu0 leaves the int64 range, or
    whose box would enumerate more than DECK_ENUM_CAP lattice points,
    raises DeckBoundError.  Each pair is searched on its own; with several
    pairs, the error of the first failing pair is raised.
    The running bests, boxes and caps are arrays over the pairs; only the
    open survivors that may still lower their pair's best are taken one at
    a time.
    """
    rows = _point_rows(cover, points)
    pairs = _index_pairs(pairs, len(rows))
    us, vs = _ends(rows, pairs)
    m, n = us.shape
    start, bounds, finish, offset_lower, threshold = _cover(cover)
    dy, turns, wild = _nearest_turns(us, vs)
    if wild >= 0:
        # an earlier pair's error comes first, and pairs are searched
        # independently
        if wild:
            deck_infimum(cover, rows, pairs[:wild])
        raise _outside_int64(turns[wild])
    # the search runs over offsets from the nearest translate nu0 of each pair
    nu0 = turns.astype(int)
    dy0 = dy - TWO_PI * nu0
    # every pair's shared terms (the slab table) are built once, with
    # the bounds of its translate nu0, and serve its whole box
    v0 = vs + TWO_PI * 1j * nu0
    shared, lo0, hi0, settled = start(rows, pairs, us, v0)
    # the running bests, as copies of the start's columns
    best_lo, best_hi = np.array(lo0), np.array(hi0)
    for k in np.flatnonzero(~settled).tolist():
        best_hi[k] = finish(shared, k, v0[k], best_lo.item(k), best_hi.item(k), math.inf)
    best_nu = np.zeros((m, n), dtype=int)
    # the first failing pair of each cause -> its DeckBoundError; the first
    # of them is raised
    errors: dict[int, DeckBoundError] = {}
    finite = np.isfinite(best_hi)
    if not finite.all():
        errors[int(finite.argmin())] = DeckBoundError(
            "initial deck translate has no finite upper bound")
    active = np.flatnonzero(finite)
    thr = threshold(us[active], vs[active], best_hi[active])
    # a radius past the cap fails on the cap below; clipping first keeps the
    # cast in range
    radii = np.floor((np.abs(dy0[active]) + thr) / TWO_PI)
    for limit, ks in _boxes(np.minimum(radii, DECK_ENUM_CAP).astype(int) + 1, active):
        total = math.prod(2 * b + 1 for b in limit)
        if total > DECK_ENUM_CAP:
            errors[int(ks[0])] = DeckBoundError(f"deck enumeration needs {total} lattice points")
            continue
        # the box about nu0 in lexicographic order; nu0 itself, at its
        # centre, is no survivor
        box = np.indices([2 * b + 1 for b in limit]).reshape(n, -1).T - limit
        step = max(1, _SHELL_BLOCK // (total - 1))
        for begin in range(0, len(ks), step):
            block = ks[begin:begin + step]
            nus = nu0[block][:, None, :] + box
            bound = offset_lower(us[block], vs[block], dy[block][:, None, :] - TWO_PI * nus)
            # the translates whose offset bound does not exceed their pair's
            # best so far survive, in per-pair lexicographic order
            hit = ~(bound > best_hi[block][:, None])
            hit[:, total // 2] = False
            r, l = np.nonzero(hit)
            if not len(r):
                continue
            owners, bound = block[r], bound[r, l]
            moved = vs[owners] + TWO_PI * 1j * nus[r, l]
            # one batched bounds call for every survivor; the settled ones are
            # taken first in that order, then the open ones best-first (by
            # lower bound), each rechecked against its pair's running best
            # before its upper: a survivor whose lower bound exceeds the
            # running best cannot lower the final minimum
            lows, highs, done = bounds(shared, owners, moved)
            # pair -> position in the survivors of its best in this box; on
            # equal uppers the survivor earlier in the per-pair order wins
            found_at: dict[int, int] = {}
            left = np.flatnonzero(done)
            while len(left):
                # the first settled survivor left of each pair, all at once
                leading = np.ones(len(left), dtype=bool)
                leading[1:] = r[left[1:]] != r[left[:-1]]
                i, left = left[leading], left[~leading]
                k, lo, hi = owners[i], lows[i], highs[i]
                cut = best_hi[k]
                taken = ~(bound[i] > cut) & ~(lo > cut)
                best_lo[k] = np.where(taken & (lo < best_lo[k]), lo, best_lo[k])
                won = taken & (hi < cut)
                best_hi[k[won]], best_nu[k[won]] = hi[won], box[l[i[won]]]
                found_at.update(zip(k[won].tolist(), i[won].tolist()))
            # an open survivor whose offset or lower bound already exceeds
            # its pair's best would be skipped below; it is dropped here
            open_ = np.flatnonzero(~done & ~(np.maximum(bound, lows) > best_hi[owners]))
            for i in open_[np.argsort(lows[open_], kind="stable")].tolist():
                k, lo = owners.item(i), lows.item(i)
                cut = best_hi.item(k)
                if bound[i] > cut or lo > cut:
                    continue
                if lo < best_lo[k]:
                    best_lo[k] = lo
                hi = finish(shared, k, moved[i], lo, highs.item(i), cut)
                if hi < cut or (hi == cut and i < found_at.get(k, -1)):
                    best_hi[k], best_nu[k], found_at[k] = hi, box[l[i]], i
    if errors:
        raise errors[min(errors)]
    spread = best_hi - best_lo
    gap = np.where(spread > 0.0, spread, 0.0)
    return DistanceColumns(0.5 * (best_lo + best_hi), gap,
                           np.where(gap == 0.0, "deck-infimum", "sandwich"), nu0 + best_nu)


def _nearest_turns(us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(dy, turns, wild) of the pairs (us[k], vs[k]) of cover points:
    dy = Im(u - v), the turns round(dy / 2 pi) of each pair's nearest
    translate nu0 (as floats), and the first pair whose turns have no int64
    index (-1 if none)."""
    dy = us.imag - vs.imag
    turns = np.round(dy / TWO_PI)
    wild = ~(np.abs(turns) < 2.0 ** 63).all(axis=1)
    return dy, turns, int(wild.argmax()) if wild.any() else -1


def _outside_int64(turns: np.ndarray) -> DeckBoundError:
    return DeckBoundError(f"nearest deck translate {turns.tolist()} is outside the int64 range")


def _boxes(limits: np.ndarray, pairs: np.ndarray):
    """(limit, pairs) for each distinct row of the (a, n) box limits of the
    pairs, in the order of first appearance, with the pairs whose row it is
    (in their order)."""
    while len(pairs):
        same = (limits == limits[0]).all(axis=1)
        yield limits[0].tolist(), pairs[same]
        limits, pairs = limits[~same], pairs[~same]


def _point_rows(domain: ModelDomain, points) -> np.ndarray:
    """The points as the rows of a C-contiguous (N, n) complex array,
    checked with one `require_interior` call; points of differing shapes
    are checked one by one, so the first bad one raises its own error."""
    try:
        rows = np.ascontiguousarray(points, dtype=complex)
    except (TypeError, ValueError):
        rows = None
    if rows is not None and rows.ndim == 1:
        rows = rows[:, None]        # N scalar points
    if rows is None or rows.ndim != 2:
        return np.array([require_interior(domain, as_point(p)) for p in points])
    return require_interior(domain, rows)


def _index_pairs(pairs, count: int) -> np.ndarray:
    """The pairs as an (m, 2) integer array of indices into `count` points."""
    try:
        idx = np.asarray(pairs)
    except ValueError:
        idx = None
    if idx is not None and idx.shape == (0,):
        idx = np.zeros((0, 2), dtype=int)   # an empty list
    if idx is None or idx.ndim != 2 or idx.shape[1] != 2 or idx.dtype.kind not in "iu":
        raise ValueError("pairs must be a list of (i, j) index pairs or an (m, 2) integer array")
    if idx.size and (idx.min() < 0 or idx.max() >= count):
        raise ValueError(f"pair indices must lie in [0, {count}) for {count} points")
    return idx


def _canonical_order(rows: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Each pair (i, j) as (j, i) when point j precedes point i in the
    lexicographic order of (Re z_1, Im z_1, Re z_2, ...), with -0.0 equal to
    0.0: evaluating every pair in a fixed order makes the distance exactly
    symmetric (vectorized complex arithmetic is not bitwise
    conjugation-symmetric).  rows must be C-contiguous."""
    flat = rows.view(float)     # Re, Im of each coordinate in turn
    if len(pairs) == 1:
        # one pair (`distance`): Python's list order is the same order, at a
        # fraction of the fixed cost of the array calls below
        (i, j), = pairs.tolist()
        return pairs[:, ::-1] if flat[j].tolist() < flat[i].tolist() else pairs
    ends = flat[pairs.T]
    first = (ends[0] != ends[1]).argmax(axis=1)     # 0 where the points are equal
    a, b = ends[:, np.arange(len(pairs)), first]
    return np.where((b < a)[:, None], pairs[:, ::-1], pairs)


def _principal_log(z: np.ndarray) -> np.ndarray:
    return np.log(np.abs(z)) + 1j * np.angle(z)


def _ends(rows: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The first and the second point of every pair, stacked as (2, m, n)."""
    return rows[pairs.T]


def _deck(cover_of: Callable) -> Callable:
    """Engine distances for a kind measured on an exp cover: each point's
    principal log is taken once, and one `deck_infimum` call, looked up at
    call time so that tracing wrappers see it, covers all pairs."""
    def run(domain, rows, pairs):
        return deck_infimum(cover_of(domain), _principal_log(rows), pairs)
    return run


def _nearest(cover_of: Callable) -> Callable:
    """Engine distances for a kind whose exp cover is the strip or the
    half-plane: each point's principal log is taken once, and one
    `_nearest_translate` call covers all pairs."""
    def run(domain, rows, pairs):
        return _nearest_translate(cover_of(domain), _principal_log(rows), pairs)
    return run


def _nearest_translate(cover: ModelDomain, points, pairs: np.ndarray) -> DistanceColumns:
    """`deck_infimum` of the strip or half-plane `cover`, where the nearest
    translate nu0 minimises (see the note above the tube's cover record):
    the points are checked with one `require_interior` call, and one kernel
    call over the pairs (u, v + 2 pi i nu0) gives the values, exact (gap 0,
    method 'deck-infimum'), with deck index nu0.  `pairs` is a valid (m, 2)
    integer array.  A pair whose nu0 has no int64 index raises
    DeckBoundError, the first such pair's.

    Where |Im| reaches about 1e13, rounding v + 2 pi i nu can put nu0 -/+ 1
    strictly nearer u than nu0.  Such a pair also takes that neighbour and
    keeps the first of nu0, nu0 - 1, nu0 + 1 with a strictly smaller value,
    as a search in that order does; the kernel grows with the computed
    |Im(u - v)|, so no other translate can be smaller."""
    us, vs = _ends(_point_rows(cover, points), pairs)
    _, turns, wild = _nearest_turns(us, vs)
    if wild >= 0:
        raise _outside_int64(turns[wild])
    kernel = _NEAREST_KERNELS[type(cover)]
    nu0 = turns.astype(int)
    moved = vs + TWO_PI * 1j * nu0
    values = kernel(cover, us, moved)
    nu = nu0.copy()
    offset = np.abs(us.imag - moved.imag)[:, 0]
    for step in (-1, 1):
        beside = vs + TWO_PI * 1j * (nu0 + step)
        near = np.flatnonzero(np.abs(us.imag - beside.imag)[:, 0] < offset)
        if len(near):
            found = kernel(cover, us[near], beside[near])
            lower = found < values[near]
            won = near[lower]
            values[won], nu[won] = found[lower], nu0[won] + step
    return DistanceColumns(values, np.zeros(len(values)), np.full(len(values), "deck-infimum"), nu)


def _tube(domain: TubeOverBase, rows, pairs) -> DistanceColumns:
    return _sandwich(*tube_distance_bounds(domain.base, *_ends(rows, pairs)))


def _closed_form(kernel: Callable) -> Callable:
    """Engine distances of a closed-form kind: one kernel(domain, us, vs) call."""
    def run(domain, rows, pairs):
        return _closed(kernel(domain, *_ends(rows, pairs)))
    return run


def _closed(values: np.ndarray) -> DistanceColumns:
    return DistanceColumns(values, np.zeros(len(values)), np.full(len(values), "closed-form"))


def _sandwich(lower: np.ndarray, upper: np.ndarray) -> DistanceColumns:
    return DistanceColumns(0.5 * (lower + upper), upper - lower,
                           np.full(len(lower), "sandwich"))


def _midpoint(bounds: tuple[float, float]) -> float:
    return 0.5 * (bounds[0] + bounds[1])


def _inscribed_radius(domain: ScaledEllipsoid, points: np.ndarray) -> float:
    """Radius of the ball inscribed in a perturbed ellipsoid; the ball
    sandwich brackets its metric only at points inside that ball."""
    from .scaling import inscribed_radius

    r_in = inscribed_radius(domain.eps, domain.t, domain.dim)
    if any(float(np.linalg.norm(p)) >= r_in for p in points):
        raise SandwichRangeError(
            f"perturbed-ellipsoid values are bracketed only inside the "
            f"inscribed ball of radius {r_in:.6f}")
    return r_in


def _ellipsoid(domain: ScaledEllipsoid, rows, pairs) -> DistanceColumns:
    us, vs = _ends(rows, pairs)
    lower = cf.ball_distance(us, vs)          # Omega_t inside the unit ball
    if domain.eps == 0.0:
        return _closed(lower)
    r_in = _inscribed_radius(domain, np.concatenate([us, vs]))
    return _sandwich(lower, np.maximum(cf.ball_distance(us / r_in, vs / r_in), lower))


def _ellipsoid_density(domain: ScaledEllipsoid, z, v) -> float:
    if domain.eps == 0.0:
        return cf.ball_density(z, v)
    r_in = _inscribed_radius(domain, z[None])
    lo = cf.ball_density(z, v)
    return 0.5 * (lo + max(lo, cf.ball_density(z / r_in, v / r_in)))


class _Engine(NamedTuple):
    distances: Callable   # (domain, (N, n) rows, canonical (m, 2) pairs) -> DistanceColumns
    density: Callable     # (domain, z, v) -> float


# Kernels are looked up in `cf` at call time, so tracing wrappers see them.
def _strip_kernel(d: Strip, us, vs):
    return cf.strip_distance(d.halfwidth, us[:, 0], vs[:, 0])


def _halfplane_kernel(d: LeftHalfPlane, us, vs):
    return cf.halfplane_distance(us[:, 0], vs[:, 0])


# the exp covers on which the nearest deck translate minimises, and their kernels
_NEAREST_KERNELS = {Strip: _strip_kernel, LeftHalfPlane: _halfplane_kernel}

_ENGINES: dict[type, _Engine] = {
    UnitDisc: _Engine(
        _closed_form(lambda d, us, vs: cf.disc_distance(us[:, 0], vs[:, 0])),
        lambda d, z, v: cf.disc_density(complex(z[0]), complex(v[0]))),
    Strip: _Engine(
        _closed_form(_strip_kernel),
        lambda d, z, v: cf.strip_density(d.halfwidth, complex(z[0]), complex(v[0]))),
    LeftHalfPlane: _Engine(
        _closed_form(_halfplane_kernel),
        lambda d, z, v: cf.halfplane_density(complex(z[0]), complex(v[0]))),
    UnitBall: _Engine(
        _closed_form(lambda d, us, vs: cf.ball_distance(us, vs)),
        lambda d, z, v: cf.ball_density(z, v)),
    Polydisc: _Engine(
        _closed_form(lambda d, us, vs: cf.polydisc_distance(us, vs)),
        lambda d, z, v: cf.polydisc_density(z, v)),
    PuncturedDisc: _Engine(
        _nearest(lambda d: LeftHalfPlane()),
        lambda d, z, v: cf.punctured_density(complex(z[0]), complex(v[0]))),
    Annulus: _Engine(
        _nearest(lambda d: Strip(d.R)),
        lambda d, z, v: cf.annulus_density(d.R, complex(z[0]), complex(v[0]))),
    TubeOverBase: _Engine(
        _tube,
        lambda d, z, v: _midpoint(tube_metric_bounds(d.base, z, v))),
    ReinhardtLog: _Engine(
        _deck(lambda d: TubeOverBase(d.base)),
        # exp: tube -> Reinhardt is a local isometry; pull back along it
        lambda d, z, v: _midpoint(tube_metric_bounds(d.base, _principal_log(z), v / z))),
    ScaledEllipsoid: _Engine(_ellipsoid, _ellipsoid_density),
}


def _within_gap(gaps, gap_tol: float | None):
    """Raise SandwichGapError at the first of the gaps that exceeds gap_tol."""
    if gap_tol is not None:
        wide = np.asarray(gaps) > gap_tol
        if wide.any():
            gap = float(np.asarray(gaps)[wide.argmax()])
            raise SandwichGapError(f"sandwich gap {gap:.3e} exceeds tolerance {gap_tol:.3e}")


def distances(domain: ModelDomain, points, pairs,
              gap_tol: float | None = None) -> DistanceColumns:
    """Kobayashi distances between the listed index pairs of a point set.

    `points` is a sequence of points or an (N, n) array of them, one per
    row; they are stacked once and checked with one `require_interior`
    call, so the first bad point raises its error.  `pairs` is a list of
    index pairs (i, j) or an (m, 2) integer array; each gives the distance
    between points[i] and points[j], in the order of `pairs`.  Pairs are
    evaluated in a canonical order, so the distance of (i, j) and of (j, i)
    are bit-identical.  The annulus and the punctured disc take one
    closed-form call over all pairs, at each pair's nearest deck translate;
    a Reinhardt domain runs one deck search over all pairs, and the tube
    one slab sweep.

    The result is a read-only `DistanceColumns`: the `.value`, `.gap`,
    `.lower` and `.upper` arrays (plus `.method` and `.deck_index`) hold
    one entry per pair, and indexing or iterating it builds one
    `DistanceValue` per pair looked at.  With gap_tol, SandwichGapError is
    raised at the first pair whose bracket is wider; with several failing
    pairs, a deck kind raises the DeckBoundError of the first.
    """
    rows = _point_rows(domain, points)
    return _evaluate(domain, rows, _index_pairs(pairs, len(rows)), gap_tol)


def _evaluate(domain: ModelDomain, rows: np.ndarray, pairs: np.ndarray,
              gap_tol: float | None) -> DistanceColumns:
    """`distances` of checked point rows and valid (m, 2) index pairs."""
    if not len(pairs):
        return DistanceColumns(np.zeros(0), np.zeros(0), np.zeros(0, dtype=str))
    found = _ENGINES[type(domain)].distances(domain, rows, _canonical_order(rows, pairs))
    _within_gap(found.gap, gap_tol)
    return found


def distance(domain: ModelDomain, z, w, gap_tol: float | None = None) -> DistanceValue:
    """Kobayashi distance between interior points of a model domain: the
    one-pair case of `distances`.

    Symmetric in (z, w) exactly: distance(D, z, w) and distance(D, w, z)
    are bit-identical.
    """
    return _evaluate(domain, _point_rows(domain, [z, w]), _ONE_PAIR, gap_tol)[0]


_ONE_PAIR = np.array([[0, 1]])
_ONE_PAIR.setflags(write=False)


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


# step of the central difference that stands in for a missing curve derivative
_FD_STEP = 1e-6


def hyperbolic_length(domain: ModelDomain, curve, s: float, t: float,
                      tol: float = 1e-8) -> float:
    """Length int_s^t k(curve(u); curve'(u)) du by adaptive Simpson.

    `curve` is a GeodesicCurve or a plain sampler u -> point; without an
    analytic derivative a central difference with step 1e-6 is used.
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
            return ((np.asarray(sample(u + _FD_STEP)) - np.asarray(sample(u - _FD_STEP)))
                    / (2.0 * _FD_STEP))

    def integrand(u: float) -> float:
        p = sample(u)
        require_interior(domain, p)
        return infinitesimal_metric(domain, p, deriv(u))

    return adaptive_simpson(integrand, s, t, tol=tol)
