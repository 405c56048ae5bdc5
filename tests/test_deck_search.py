"""The best-first deck search against the sequential lexicographic search.

`reference_deck_columns` is the deck search as it ran before the open
survivors of a box were finished best-first and before its growth rounds
became one box: every survivor in per-pair lexicographic order, each
rechecked against its pair's running best, in rounds of boxes grown from
each pair's best so far.  The search in `metric` must give the same value,
gap and deck index bit for bit, while computing fewer upper bounds.  On
the strip and half-plane covers it runs on the closed-form cover records
the search had for them (`EXACT_COVERS`), and the nearest-translate
engines of the annulus and the punctured disc must equal it bit for bit.
"""

import cmath
import collections
import itertools
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kobalab import (Annulus, Box, EuclideanBall, LeftHalfPlane, LinearImage, PuncturedDisc,
                     ReinhardtLog, Strip, TubeOverBase, distance, distances)
from kobalab import closed_forms as cf
from kobalab import metric, tube
from kobalab.domains import chord_interval, domain_from_dict, require_interior, to_polytope

BALL = EuclideanBall((0.0, 0.0), 1.0)
# stretched along (1, -1): vertical offsets along (1, -1) are cheap, so the
# nearest deck translate is often not the best one
STRETCHED = LinearImage(((3.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
                         (-3.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))), BALL)
# each base with the radius of a disc about 0 that it holds
BASES = {
    "ball": (BALL, 0.85),
    "linear-image": (STRETCHED, 0.85),
    "box": (Box((-1.0, -0.5), (1.0, 0.5)), 0.45),
    "polytope": (to_polytope(BALL, 8), 0.8),
}


def exact_cover(kernel, offset_lower, threshold) -> tuple:
    """The cover record of a cover with a closed-form distance: one kernel
    call over all translates gives both bounds, and every translate is
    settled, so there is no finish and no floor."""
    def bounds(us, owners, vs):
        values = kernel(us[owners, 0], vs[:, 0])
        return values, values, np.ones(len(values), dtype=bool)

    def start(rows, pairs, us, vs):
        return (us, *bounds(us, slice(None), vs))
    return start, bounds, None, offset_lower, threshold, None


def halfplane_record(cover: LeftHalfPlane) -> tuple:
    # the half-plane bound is arcsinh of the vertical gap
    def scale(us, vs):
        return 2.0 * np.sqrt((-us[:, 0].real) * (-vs[:, 0].real))

    def offset_lower(us, vs, dys):
        return np.arcsinh(np.abs(dys) / scale(us, vs)[:, None, None])

    return exact_cover(lambda z, w: cf.halfplane_distance(z, w), offset_lower,
                       lambda us, vs, best: (scale(us, vs) * np.sinh(best))[:, None])


def strip_record(cover: Strip) -> tuple:
    # the slab of half-width a gives pi * |dy| / (4 a)
    a = cover.halfwidth
    return exact_cover(lambda z, w: cf.strip_distance(a, z, w),
                       lambda us, vs, dys: math.pi * np.abs(dys) / (4.0 * a),
                       lambda us, vs, best: 4.0 * a * best[:, None] / math.pi)


# the closed-form covers, which `metric` no longer searches
EXACT_COVERS = {Strip: strip_record, LeftHalfPlane: halfplane_record}


def cover_record(cover) -> tuple:
    """The search's record of the cover: the tube's from `metric`, looked
    up at call time, or a closed-form cover's from EXACT_COVERS."""
    build = EXACT_COVERS.get(type(cover))
    return metric._cover(cover) if build is None else build(cover)


class Reference(NamedTuple):
    value: np.ndarray
    gap: np.ndarray
    deck_index: np.ndarray
    survivors: list     # per growth round, the (pair, offset) survivors
    settled: list       # per growth round, those whose bounds call settled them


def reference_deck_columns(cover, points, pairs):
    """The sequential deck search: nu0, then round after round of boxes
    about nu0 grown from each pair's best so far, every survivor finished in
    per-pair lexicographic order.  It records each round's survivors."""
    rows = np.atleast_2d(np.asarray(points, dtype=complex))
    require_interior(cover, rows)
    pairs = np.asarray(pairs)
    us, vs = rows[pairs.T]
    m, n = us.shape
    start, bounds, finish, offset_lower, threshold, _ = cover_record(cover)
    dy = us.imag - vs.imag
    nu0 = np.round(dy / metric.TWO_PI).astype(int)
    dy0 = dy - metric.TWO_PI * nu0
    v0 = vs + metric.TWO_PI * 1j * nu0
    shared, *first = start(rows, pairs, us, v0)
    best_lo, highs, settled = (x.tolist() for x in first)
    best_hi = [hi if done else finish(shared, k, v, lo, hi, math.inf)
               for k, (v, lo, hi, done) in enumerate(zip(v0, best_lo, highs, settled))]
    best_nu = [tuple(row) for row in nu0.tolist()]
    evaluated = [{nu} for nu in best_nu]
    survivors, settled = [], []

    def bounds_for(rows):
        thr = threshold(us[rows], vs[rows], np.array([best_hi[k] for k in rows]))
        return np.floor((np.abs(dy0[rows]) + thr) / metric.TWO_PI).astype(int) + 1

    active = list(range(m))
    for _ in range(64):
        if not active:
            break
        improved = set()
        survivors.append([])
        settled.append([])
        for k, limit in zip(active, bounds_for(active).tolist()):
            box = list(itertools.product(*[range(c - b, c + b + 1)
                                           for c, b in zip(nu0[k].tolist(), limit)]))
            # the offset bound of a translate is the largest of its
            # coordinates' bounds, taken here over the (1, n, L) offsets
            offsets = metric.TWO_PI * np.array(box).T
            bound = offset_lower(us[[k]], vs[[k]], dy[[k]][:, :, None] - offsets)[0].max(axis=0)
            hits = [l for l in range(len(box))
                    if not bound[l] > best_hi[k] and box[l] not in evaluated[k]]
            survivors[-1] += [(k, box[l]) for l in hits]
            if not hits:
                continue
            moved = vs[[k] * len(hits)] + metric.TWO_PI * 1j * np.array([box[l] for l in hits])
            found = [x.tolist() for x in bounds(shared, np.full(len(hits), k), moved)]
            settled[-1] += [(k, box[l]) for l, done in zip(hits, found[2]) if done]
            for l, v, lo, hi, done in zip(hits, moved, *found):
                if bound[l] > best_hi[k]:
                    continue
                if lo > best_hi[k]:
                    hi = math.inf
                elif not done:
                    # the whole upper bound: no cut at the running best
                    hi = finish(shared, k, v, lo, hi, math.inf)
                evaluated[k].add(box[l])
                best_lo[k] = min(best_lo[k], lo)
                if hi < best_hi[k]:
                    best_hi[k] = hi
                    best_nu[k] = box[l]
                    improved.add(k)
        active = [k for k in active if k in improved]
    lo, hi = np.array(best_lo), np.array(best_hi)
    gap = np.where(hi - lo > 0.0, hi - lo, 0.0)
    return Reference(0.5 * (lo + hi), gap, np.array(best_nu, dtype=int).reshape(m, n), survivors,
                     settled)


def disjoint(us, vs):
    """The row pairs (us[k], vs[k]) as points and index pairs."""
    m = len(us)
    return np.concatenate([us, vs]), np.stack([np.arange(m), m + np.arange(m)], axis=1)


def reinhardt_points(count: int, seed: int, radius: float = 0.45) -> np.ndarray:
    """Points of a Reinhardt domain over a base that holds the disc of
    `radius` about 0: log moduli uniform in that disc, uniform phases."""
    gen = np.random.default_rng(seed)
    r, th = radius * np.sqrt(gen.random(count)), 2.0 * math.pi * gen.random(count)
    logs = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    return np.exp(logs) * np.exp(2j * math.pi * gen.random((count, 2)))


# the exp cover of each deck kind
COVERS = {
    ReinhardtLog: lambda d: TubeOverBase(d.base),
    Annulus: lambda d: Strip(d.R),
    PuncturedDisc: lambda d: LeftHalfPlane(),
}


def reference_distances(domain, points, pairs):
    """The reference search on the pairs as `distances` orders them."""
    pairs = metric._canonical_order(points, np.asarray(pairs))
    return reference_deck_columns(COVERS[type(domain)](domain), metric._principal_log(points),
                                  pairs)


def assert_same_columns(got, want):
    assert got.value.tolist() == want.value.tolist()
    assert got.gap.tolist() == want.gap.tolist()
    assert got.deck_index.tolist() == want.deck_index.tolist()


def assert_one_round(want):
    # the first round's box, sized from nu0's upper bound, holds every
    # survivor: each later round's box lies inside it, and its translates
    # were evaluated or pruned by a larger best
    assert want.survivors and not any(want.survivors[1:])


@pytest.mark.parametrize("name", list(BASES))
def test_best_first_search_equals_sequential_search(name):
    base, radius = BASES[name]
    domain = ReinhardtLog(base)
    points = reinhardt_points(7, seed=len(name), radius=radius)
    pairs = list(itertools.combinations(range(len(points)), 2))
    want = reference_distances(domain, points, pairs)
    assert_one_round(want)
    assert_same_columns(distances(domain, points, pairs), want)


def tied_pair() -> np.ndarray:
    """Two points of the Reinhardt domain over STRETCHED, in canonical
    order, whose deck translates (-1, 0) and (0, -1) tie exactly and beat
    the nearest translate (0, 0): equal log moduli, imaginary log offset
    (-pi, -pi)."""
    x = np.array([0.1, -0.05])
    return np.exp(x) * np.exp(np.array([[-0.5j * math.pi, -0.5j * math.pi],
                                        [0.5j * math.pi, 0.5j * math.pi]]))


def test_exact_tie_goes_to_the_first_translate_in_lexicographic_order():
    domain = ReinhardtLog(STRETCHED)
    points = tied_pair()
    logs = metric._principal_log(points)
    cover = TubeOverBase(STRETCHED)
    start, bounds, finish, *_ = metric._cover(cover)
    uppers = []
    for nu in ((-1, 0), (0, -1)):
        v = logs[1:] + metric.TWO_PI * 1j * np.array([nu])
        shared, lo, hi, done = start(logs, np.array([[0, 1]]), logs[:1], v)
        assert [x.tolist() for x in bounds(shared, np.array([0]), v)] == \
            [lo.tolist(), hi.tolist(), done.tolist()]
        assert not done[0]
        uppers.append(finish(shared, 0, v[0], lo[0], hi[0], math.inf))
    assert uppers[0] == uppers[1]
    got = distances(domain, points, [(0, 1)])
    assert got.deck_index.tolist() == [[-1, 0]]
    assert_same_columns(got, reference_distances(domain, points, [(0, 1)]))


def never_floor(shared, owners, vs):
    """A cover record's floor that never drops or skips a translate."""
    return np.full(len(vs), -math.inf)


def test_tie_rule_holds_when_later_translates_are_finished_first(monkeypatch):
    # a cover record on which every translate but nu0 has the same upper
    # bound and the lower bounds fall in lexicographic order, so the
    # best-first pass finishes the lexicographically last survivor first
    def start(rows, pairs, us, vs):
        return (us, *bounds(None, np.arange(len(vs)), vs))

    def bounds(pairs, owners, vs):
        nu = np.round((vs.imag - 0.5) / metric.TWO_PI)
        lows = 1.0 - 0.01 * (nu[:, 0] * 10 + nu[:, 1])
        highs = np.where(np.all(nu == 0.0, axis=1), 5.0, 2.0)
        return lows, highs, np.zeros(len(vs), dtype=bool)

    record = (start, bounds, lambda pairs, k, v, lo, hi, cut: hi,
              lambda us, vs, dys: np.zeros(dys.shape),
              lambda us, vs, best: np.full(us.shape, 3.0), never_floor)
    cover = TubeOverBase(BALL)
    monkeypatch.setattr(metric, "_cover", lambda c: record)
    us = np.array([[0.0 + 0.5j, 0.0 + 0.5j]])
    want = reference_deck_columns(cover, us, [(0, 0)])
    assert want.deck_index.tolist() == [[-1, -1]]
    assert_same_columns(metric.deck_infimum(cover, us, [(0, 0)]), want)


def test_settled_survivors_are_taken_in_order_before_the_open_ones(monkeypatch):
    # a cover record that settles all but one translate of a 3 x 3 box, as
    # (lower, upper, settled) per pair and offset.  Pair 0: its settled
    # translates lower the running best in lexicographic order, later ones
    # are skipped by it or lose to it, and the open one loses.  Pair 1: the
    # open translate ties with a settled one later in lexicographic order,
    # so it wins although it is finished after it.
    rest = (3.0, 6.0, True)
    tables = [
        {(0, 0): (4.5, 5.0, True), (-1, -1): (2.5, 3.0, True), (-1, 0): (3.5, 4.0, True),
         (-1, 1): (1.0, 1.5, False), (0, -1): (2.0, 2.5, True), (0, 1): (0.5, 1.2, True),
         (1, -1): (1.1, 2.0, True), (1, 0): (1.6, 1.8, True), (1, 1): (1.0, 1.8, True)},
        {(0, 0): (4.5, 5.0, True), (-1, 1): (1.0, 1.5, False), (0, 1): (0.5, 1.5, True)},
    ]

    def start(rows, pairs, us, vs):
        return (us, *bounds(None, np.arange(len(vs)), vs))

    def bounds(shared, owners, vs):
        nus = np.round((vs.imag - 0.5) / metric.TWO_PI).astype(int)
        found = [tables[k].get(tuple(nu), rest) for k, nu in zip(owners.tolist(), nus.tolist())]
        lows, highs, done = (np.array(column) for column in zip(*found))
        return lows, highs, done

    record = (start, bounds, lambda shared, k, v, lo, hi, cut: hi,
              lambda us, vs, dys: np.zeros(dys.shape),
              lambda us, vs, best: np.full(us.shape, 3.0), never_floor)
    cover = TubeOverBase(BALL)
    monkeypatch.setattr(metric, "_cover", lambda c: record)
    points, pairs = np.array([[0.0 + 0.5j, 0.0 + 0.5j]]), [(0, 0), (0, 0)]
    want = reference_deck_columns(cover, points, pairs)
    assert want.deck_index.tolist() == [[0, 1], [-1, 1]]
    assert want.value.tolist() == [0.5 * (0.5 + 1.2), 0.5 * (0.5 + 1.5)]
    assert_same_columns(metric.deck_infimum(cover, points, pairs), want)


def test_an_unfinished_translate_still_lowers_the_lower_end(monkeypatch):
    # a cover record whose translate (0, 1) has a floor above the best upper
    # end but the lowest lower bound of the box: it is neither dropped nor
    # finished, and the lower end is its lower bound, as in the sequential
    # search, which finishes it
    rest = (3.0, 6.0, True)
    table = {(0, 0): (4.5, 5.0, False), (0, 1): (1.0, 9.0, False)}

    def start(rows, pairs, us, vs):
        return (us, *bounds(None, np.arange(len(vs)), vs))

    def nus(vs):
        return [tuple(nu) for nu in np.round((vs.imag - 0.5) / metric.TWO_PI).astype(int).tolist()]

    def bounds(shared, owners, vs):
        return (np.array(column) for column in zip(*[table.get(nu, rest) for nu in nus(vs)]))

    def floor(shared, owners, vs):
        return np.array([8.0 if nu == (0, 1) else -math.inf for nu in nus(vs)])

    finished = []

    def finish(shared, k, v, lo, hi, cut):
        finished.append(nus(v[None])[0])
        return hi

    record = (start, bounds, finish, lambda us, vs, dys: np.zeros(dys.shape),
              lambda us, vs, best: np.full(us.shape, 3.0), floor)
    cover = TubeOverBase(BALL)
    monkeypatch.setattr(metric, "_cover", lambda c: record)
    points = np.array([[0.0 + 0.5j, 0.0 + 0.5j]])
    want = reference_deck_columns(cover, points, [(0, 0)])
    assert want.value.tolist() == [0.5 * (1.0 + 5.0)]
    finished.clear()
    assert_same_columns(metric.deck_infimum(cover, points, [(0, 0)]), want)
    assert finished == [(0, 0)]


def test_fewer_upper_bounds_than_the_sequential_search(monkeypatch):
    calls = []
    lempert_upper = tube.lempert_upper

    def counted(*args, **kwargs):
        calls.append(1)
        return lempert_upper(*args, **kwargs)

    monkeypatch.setattr(tube, "lempert_upper", counted)
    domain = ReinhardtLog(BALL)
    points = reinhardt_points(6, seed=3, radius=0.85)
    pairs = list(itertools.combinations(range(len(points)), 2))
    reference_distances(domain, points, pairs)
    sequential = len(calls)
    calls.clear()
    distances(domain, points, pairs)
    # pinned on this fixed pair set, as a guard against finishing
    # translates that cannot win
    assert (sequential, len(calls)) == (61, 19)


def counted_sweeps(monkeypatch) -> list:
    """The number of translates of each `slab_lower` call of the search."""
    swept = []
    slab_lower = tube.slab_lower

    def counted(base, table, owners, vs):
        swept.append(len(vs))
        return slab_lower(base, table, owners, vs)

    monkeypatch.setattr(tube, "slab_lower", counted)
    return swept


def test_translates_that_cannot_win_change_no_column(monkeypatch):
    # the search with the floor gives the columns of the search without
    # it, bit for bit, and sweeps fewer translates on the ball set
    cases = [(ReinhardtLog(base), reinhardt_points(7, seed=len(name), radius=radius))
             for name, (base, radius) in BASES.items()]
    cases.append((ReinhardtLog(STRETCHED), tied_pair()))
    swept = counted_sweeps(monkeypatch)
    with_floor = []
    for domain, points in cases:
        swept.clear()
        pairs = list(itertools.combinations(range(len(points)), 2))
        with_floor.append((distances(domain, points, pairs), sum(swept)))
    monkeypatch.setattr(tube, "upper_floor",
                        lambda base, us, vs, terms: np.full(len(us), -math.inf))
    for (domain, points), (got, count) in zip(cases, with_floor):
        swept.clear()
        want = distances(domain, points, list(itertools.combinations(range(len(points)), 2)))
        assert_same_columns(got, want)
        assert got.method.tolist() == want.method.tolist()
        if domain.base is BALL:
            assert count < sum(swept)


# an anchor as (angle, log10 of its inset): the point along that angle from
# the centre, the inset's fraction of the way short of the boundary.  The
# angles are any floats in [0, 2 pi], subnormal ones included
_ANGLES = st.floats(0.0, 2.0 * math.pi)
_ANCHORS = st.tuples(_ANGLES, st.floats(-9.0, 0.0))


def anchor(base, angle: float, inset: float) -> np.ndarray:
    direction = np.array([math.cos(angle), math.sin(angle)])
    return (1.0 - 10.0 ** inset) * chord_interval(base, np.zeros(2), direction)[1] * direction


@pytest.mark.parametrize("name", list(BASES))
@settings(max_examples=160)
@given(a=_ANCHORS, b=_ANCHORS, im_u=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
       turn=_ANGLES, size=st.floats(-3.0, 6.0), flat=st.booleans())
def test_upper_floor_bounds_what_finish_can_give(name, a, b, im_u, turn, size, flat):
    # anchors from the centre to 1e-9 of the boundary and |Im(v - u)| from
    # 1e-3 to 1e6, or 0: the floor is -inf where Im v = Im u, and elsewhere
    # finite and at most each competitor that finish evaluates (both single
    # discs where admissible, the route through the real points and the
    # whole chain where it runs) and their minimum, all exactly; the slab
    # bound is at least the offset bound that the search drops translates by
    base = BASES[name][0]
    u = anchor(base, *a) + 1j * np.array(im_u)
    rise = 0.0 if flat else 10.0 ** size * np.array([math.cos(turn), math.sin(turn)])
    v = anchor(base, *b) + 1j * (np.array(im_u) + rise)
    terms = tube.translate_terms(base, u[None], v[None])
    assert tube.upper_floor(base, u[None], v[None], terms).tolist() == [-math.inf]
    terms[0, 1] = tube._vertical_cap(base, u.real.tolist(), u.imag.tolist())
    floor = tube.upper_floor(base, u[None], v[None], terms)[0]
    if isinstance(base, Box) or flat:
        assert floor == -math.inf
        return
    assert math.isfinite(floor)
    assert floor <= tube.lempert_upper(base, u, v, cut=math.inf)
    taus = [tube.affine_disc_tau(base, p.real, q - p) for p, q in ((u, v), (v, u))]
    for tau in taus:
        if tau < 1.0:
            assert floor <= math.atanh(tau)
    via = terms[0, 1] + terms[0, 0] + tube._vertical_cap(base, v.real.tolist(), v.imag.tolist())
    assert floor <= via
    if min(taus) >= 1.0 and min(taus) < tube._CHAIN_TAU:
        assert floor <= tube._chain_upper(base, u.tolist(), v.tolist(), taus, math.inf)
    offset = np.max(math.pi * np.abs((u - v).imag) / (4.0 * tube.axis_halfwidths(base)))
    assert tube.caratheodory_lower(base, u, v) >= offset


@pytest.mark.parametrize("name", ["ball", "linear-image", "polytope"])
@settings(max_examples=160)
@given(a=_ANCHORS, b=_ANCHORS, turn=_ANGLES, size=st.floats(-1.0, 1.0))
def test_chain_floor_is_below_one_over_every_arm_where_its_centroid_lies(name, a, b, turn, size):
    # a chain's legs are anchored at Re u + (i/L) Re(v - u), i < L, L >= 2,
    # and its floor is 1/arm at their centroid, which lies 1/4 to 1/2 of the
    # way from Re u to Re v.  With the route through the real points out of
    # the way (a huge cap at u), a finite floor is at most 1/arm at each of
    # 65 points of that range along Im(v - u), from one call of `arms`
    base = BASES[name][0]
    rise = 10.0 ** size * np.array([math.cos(turn), math.sin(turn)])
    u, v = anchor(base, *a).astype(complex), anchor(base, *b) + 1j * rise
    terms = np.array([[0.0, 1e300]])
    floor = tube.upper_floor(base, u[None], v[None], terms)[0]
    if not floor < 1e299:
        return
    fractions = np.linspace(0.25, 0.5, 65)[:, None]
    points = u.real + fractions * (v.real - u.real)
    arm, _ = tube._TUBE_KINDS[type(base)].arms(base, points, np.tile(rise, (65, 1)))
    assert floor <= np.min(1.0 / arm)


@pytest.mark.parametrize("name", list(BASES))
def test_upper_floor_of_huge_imaginary_parts_raises_no_warning(name):
    # |Im v| = 1e200 in both coordinates: the squares of the norms would
    # overflow (any RuntimeWarning fails the test); reach is below 10
    base = BASES[name][0]
    u, v = np.array([[0.1 + 1j, 0.0]]), np.array([[0.0 + 1e200j, 0.0 - 1e200j]])
    terms = tube.translate_terms(base, u, v)
    terms[0, 1] = tube._vertical_cap(base, u[0].real.tolist(), u[0].imag.tolist())
    floor = tube.upper_floor(base, u, v, terms)[0]
    if isinstance(base, Box):
        assert floor == -math.inf
    else:
        assert 1e199 <= floor < math.inf


def test_search_still_improving_after_the_last_round_raises():
    domain = ReinhardtLog(STRETCHED)
    points = tied_pair()
    # the box sized from nu0's upper bound finds the better translate and
    # certifies the minimum in one pass
    assert distances(domain, points, [(0, 1)]).deck_index.tolist() == [[-1, 0]]


def cover_pairs(cover, count: int, seed: int):
    """`count` disjoint pairs of points of the strip or half-plane cover, as
    (points, pairs, ties, turns).  Real parts spread over the cover, a
    quarter of them within 1e-12 of its boundary (half-plane real parts
    within e^+-4 otherwise: the reference's box grows like |dx| over
    sqrt(x_u x_v)); imaginary parts in +-40, a third of them of modulus 1
    to 1e15.  `ties` marks the exact half-turn ties (Im u = 0 and Im v an
    odd multiple of pi) and `turns` the pairs whose Im(u - v) is near a
    half-turn at 6e13 to 6e14, where rounding v + 2 pi i nu can put a
    neighbour of nu0 strictly nearer u."""
    gen = np.random.default_rng(seed)
    halfplane = isinstance(cover, LeftHalfPlane)

    def reals():
        if halfplane:
            x = -np.exp(gen.uniform(-4.0, 4.0, count))
        else:
            x = gen.uniform(-cover.halfwidth, cover.halfwidth, count)
        edge = gen.random(count) < 0.25
        inset = gen.uniform(1e-13, 1e-12, count)
        rim = -inset if halfplane else np.where(x < 0.0, -1.0, 1.0) * (cover.halfwidth - inset)
        return np.where(edge, rim, x)

    def imags():
        y = gen.uniform(-40.0, 40.0, count)
        big = gen.random(count) < 1.0 / 3.0
        return np.where(big, np.where(gen.random(count) < 0.5, -1.0, 1.0)
                        * 10.0 ** gen.uniform(0.0, 15.0, count), y)

    ux, vx, uy, vy = reals(), reals(), imags(), imags()
    kind = gen.random(count)
    ties, turns = kind < 0.1, (0.1 <= kind) & (kind < 0.2)
    uy[ties] = 0.0
    vy[ties] = math.pi * gen.choice([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0], int(ties.sum()))
    half = np.floor(10.0 ** gen.uniform(13.0, 14.0, count)) + gen.uniform(0.48, 0.52, count)
    half *= np.where(gen.random(count) < 0.5, -1.0, 1.0) * metric.TWO_PI
    uy[turns] = (vy + half)[turns]
    return (*disjoint((ux + 1j * uy)[:, None], (vx + 1j * vy)[:, None]), ties, turns)


@pytest.mark.parametrize("cover", [Strip(4.0), LeftHalfPlane()], ids=repr)
def test_nearest_translate_equals_the_sequential_search(cover):
    # one kernel call at nu0 (and at a neighbour that rounds nearer) gives
    # the sequential search's value, gap and deck index bit for bit
    points, pairs, ties, turns = cover_pairs(cover, 2000, seed=11)
    got = metric._nearest_translate(cover, points, pairs)
    assert_same_columns(got, reference_deck_columns(cover, points, pairs))
    assert got.method.tolist() == ["deck-infimum"] * len(pairs)
    # exact ties keep nu0; some rounded half-turns take a neighbour
    us, vs = points[pairs.T]
    nu0 = np.round((us.imag - vs.imag) / metric.TWO_PI).astype(int)[:, 0]
    beside = got.deck_index[:, 0] != nu0
    assert not beside[ties].any()
    assert beside[turns].any()


@pytest.mark.parametrize("cover, x", [(Strip(4.0), 0.2), (LeftHalfPlane(), -0.2)], ids=repr)
def test_nearest_translate_beyond_int64_raises_the_first_pairs_error(cover, x):
    # the search's DeckBoundError text, for the first pair in `pairs` order
    # whose nearest translate has no int64 index
    points = np.array([[x + 0j], [x + 1e20j], [x - 3e20j], [x + 1j]])

    def message(dy):
        turns = [round(dy / metric.TWO_PI) * 1.0]
        return f"nearest deck translate {turns} is outside the int64 range"

    for pairs, dy in (([(0, 3), (0, 1), (0, 2)], -1e20), ([(0, 3), (0, 2), (0, 1)], 3e20)):
        with pytest.raises(metric.DeckBoundError) as caught:
            metric._nearest_translate(cover, points, np.array(pairs))
        assert str(caught.value) == message(dy)


GOLDEN = Path(__file__).parent / "data" / "deck_golden.json"


def _points(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def test_deck_golden():
    # value, gap, method and deck index of fixed Reinhardt and tube-cover
    # pairs over ball, box, polytope and linear-image bases, recorded before
    # the slab lower bound was split into a per-pair table and a
    # per-translate stage; the search must reproduce them bit for bit, and
    # the sequential reference must find no survivor after its first round
    for case in json.loads(GOLDEN.read_text()):
        if "domain" in case:
            domain = domain_from_dict(case["domain"])
            points = _points(case["points"])
            got = distances(domain, points, case["pairs"])
            want = reference_distances(domain, points, case["pairs"])
        else:
            cover = domain_from_dict(case["cover"])
            points, pairs = disjoint(_points(case["us"]), _points(case["vs"]))
            got = metric.deck_infimum(cover, points, pairs)
            want = reference_deck_columns(cover, points, pairs)
        assert_one_round(want)
        assert_same_columns(got, want)
        assert got.value.tolist() == case["value"], case["name"]
        assert got.gap.tolist() == case["gap"], case["name"]
        assert got.method.tolist() == case["method"], case["name"]
        assert got.deck_index.tolist() == case["deck_index"], case["name"]
        assert_golden_one_by_one(case)


def assert_golden_one_by_one(case):
    # each golden pair on its own: a `distance` call for the domain cases,
    # a one-pair search for the cover cases, with the batch's bits
    if "domain" in case:
        domain = domain_from_dict(case["domain"])
        points = _points(case["points"])
        singles = [distance(domain, points[i], points[j]) for i, j in case["pairs"]]
    else:
        cover = domain_from_dict(case["cover"])
        us, vs = _points(case["us"]), _points(case["vs"])
        singles = [metric.deck_infimum(cover, *disjoint(us[k:k + 1], vs[k:k + 1]))[0]
                   for k in range(len(us))]
    for k, got in enumerate(singles):
        want = (case["value"][k], case["gap"][k], case["method"][k], case["deck_index"][k])
        assert (got.value, got.gap, got.method, list(got.deck_index)) == want, (case["name"], k)


def test_search_builds_each_pair_slab_table_once(monkeypatch):
    # enough pairs to fill two blocks of the table; their boxes gather rows
    # of the one table, and the points' stage of the table runs once per
    # point row, not once per end of a pair
    built, evaluated, staged = [], [], []
    slab_table, slab_lower, point_stage = tube.slab_table, tube.slab_lower, tube._point_stage

    def counted_table(base, rows, pairs, us, vs):
        built.append(len(pairs))
        return slab_table(base, rows, pairs, us, vs)

    def counted_lower(base, table, owners, vs):
        evaluated.extend(np.asarray(owners).tolist())
        return slab_lower(base, table, owners, vs)

    def counted_stage(points, *args):
        staged.append(len(points))
        return point_stage(points, *args)

    monkeypatch.setattr(tube, "slab_table", counted_table)
    monkeypatch.setattr(tube, "slab_lower", counted_lower)
    monkeypatch.setattr(tube, "_point_stage", counted_stage)
    count = 2
    while count * (count - 1) // 2 <= tube._sweep_rows(BALL):
        count += 1
    points = reinhardt_points(count, seed=5, radius=0.85)
    pairs = list(itertools.combinations(range(len(points)), 2))
    distances(ReinhardtLog(BALL), points, pairs)
    assert built == [len(pairs)]
    assert staged == [count]
    # the boxes ran for pairs of both blocks
    assert min(evaluated) < tube._sweep_rows(BALL) <= max(evaluated)
    # disjoint pairs: one stage over both ends of every pair
    built.clear(), staged.clear()
    m = tube._sweep_rows(BALL) + 1
    distances(ReinhardtLog(BALL), reinhardt_points(2 * m, seed=7, radius=0.85),
              np.stack([np.arange(m), m + np.arange(m)], axis=1))
    assert built == [m] and staged == [2 * m]
    # one pair: its two points
    built.clear(), staged.clear()
    distance(ReinhardtLog(BALL), *points[:2])
    assert built == [1] and staged == [2]


# moduli near both edges of two Reinhardt domains searched on the tube
# cover: the annulus 1/4 < |z| < 4 as the one over (-log 4, log 4), and the
# one over a box.  At arguments -3.0 and 2.9 the nearest translate of a pair
# of them is often not 0, and some pairs have several settled survivors in
# their box (both covers settle every translate: the 1-d tube is a strip,
# and the box tube has its exact product disc)
EDGE_MODULI = {
    "annulus-log": (ReinhardtLog(Box((-math.log(4.0),), (math.log(4.0),))),
                    [[3.9], [0.26], [1.0], [3.5], [0.3]]),
    "box-log": (ReinhardtLog(Box((-1.0, -0.5), (1.0, 0.5))),
                [[2.7, 1.64], [0.37, 0.61], [1.0, 1.0], [2.71, 0.607], [0.368, 1.64]]),
}


@pytest.mark.parametrize("name", [*BASES, *EDGE_MODULI])
def test_small_shell_blocks_give_the_same_columns(name, monkeypatch):
    # with a small shell block each box's pairs run in several blocks of one
    # to three pairs: every pair's running best, cap and survivors carry
    # over from block to block bit for bit
    if name in BASES:
        base, radius = BASES[name]
        domain, points = ReinhardtLog(base), reinhardt_points(9, seed=40 + len(name),
                                                              radius=radius)
    else:
        domain, moduli = EDGE_MODULI[name]
        points = np.array([np.array(r) * cmath.exp(1j * t)
                           for r in moduli for t in (-3.0, 2.9)][:9])
    pairs = list(itertools.combinations(range(len(points)), 2))
    whole = distances(domain, points, pairs)
    monkeypatch.setattr(metric, "_SHELL_BLOCK", 24)
    got = distances(domain, points, pairs)
    assert got.method.tolist() == whole.method.tolist()
    assert_same_columns(got, whole)
    want = reference_distances(domain, points, pairs)
    assert_same_columns(got, want)
    if name in EDGE_MODULI:
        logs = metric._principal_log(points)
        us, vs = logs[np.array(pairs).T]
        assert np.round((us.imag - vs.imag) / metric.TWO_PI).any()
        assert max(collections.Counter(k for k, _ in want.settled[0]).values()) >= 2


# boxes with unequal half-widths in 1, 2 and 3 dimensions: the search
# boxes of pairs near their edges have unequal limits
SELECTION_BOXES = {1: Box((-0.7,), (0.7,)), 2: Box((-1.0, -0.3), (1.0, 0.3)),
                   3: Box((-1.0, -0.5, -0.25), (1.0, 0.5, 0.25))}


@pytest.mark.parametrize("n", list(SELECTION_BOXES))
def test_per_coordinate_selection_matches_the_enumerated_box(n, monkeypatch):
    # with boxes split over blocks by a small shell block, each block's
    # survivors, their per-pair lexicographic order and their offset bounds
    # are those of the box enumerated translate by translate: the largest
    # of each translate's coordinate bounds, kept where it does not exceed
    # its pair's best; and the search gives the sequential search's values
    # and deck indices, with its first round's survivors
    calls = []
    survivors = metric._survivors

    def recorded(terms, best, cells):
        got = survivors(terms, best, cells)
        calls.append((terms, best, cells, got))
        return got

    monkeypatch.setattr(metric, "_survivors", recorded)
    monkeypatch.setattr(metric, "_SHELL_BLOCK", 24)
    base = SELECTION_BOXES[n]
    gen = np.random.default_rng(50 + n)
    logs = gen.uniform(0.97 * np.array(base.lo), 0.97 * np.array(base.hi), (8, n))
    points = np.exp(logs) * np.exp(2j * math.pi * gen.random((8, n)))
    pairs = list(itertools.combinations(range(len(points)), 2))
    domain = ReinhardtLog(base)
    got = distances(domain, points, pairs)
    want = reference_distances(domain, points, pairs)
    assert_same_columns(got, want)
    assert_one_round(want)
    limits, found = collections.Counter(), 0
    for terms, best, cells, (r, l, bound) in calls:
        width = terms.shape[2]
        offsets = cells - width // 2 - width * np.arange(n)
        limit = tuple(offsets.max(axis=0).tolist())
        limits[limit] += 1
        box = [nu for nu in itertools.product(*[range(-b, b + 1) for b in limit]) if any(nu)]
        assert offsets.tolist() == [list(nu) for nu in box]
        enumerated = np.array([[max(terms[k, j, width // 2 + o] for j, o in enumerate(nu))
                                for nu in box] for k in range(len(terms))])
        keep_r, keep_l = np.nonzero(~(enumerated > best[:, None]))
        assert (r.tolist(), l.tolist()) == (keep_r.tolist(), keep_l.tolist())
        assert bound.tolist() == enumerated[keep_r, keep_l].tolist()
        found += len(r)
    assert found == len(want.survivors[0]) > 0
    # some box ran in several blocks, and in 2 and 3 dimensions some box
    # has unequal limits
    assert max(limits.values()) >= 2
    assert n == 1 or any(len(set(limit)) > 1 for limit in limits)


def test_empty_batches_give_empty_results():
    # zero pairs give zero rows, on the tube cover as on the strip and the
    # half-plane
    for search, cover, n in ((metric.deck_infimum, TubeOverBase(BALL), 2),
                             (metric._nearest_translate, Strip(4.0), 1),
                             (metric._nearest_translate, LeftHalfPlane(), 1)):
        none = np.empty((0, n), dtype=complex)
        got = search(cover, none, np.zeros((0, 2), dtype=int))
        assert len(got) == 0 and got.deck_index.shape == (0, n)
    none = np.empty((0, 2), dtype=complex)
    assert tube.caratheodory_lower(BALL, none, none).shape == (0,)
    lower, upper = tube.tube_distance_bounds(BALL, none, none)
    assert lower.shape == upper.shape == (0,)


def test_each_pair_is_searched_on_its_own():
    # a pair's result does not depend on the other pairs of its search
    points = reinhardt_points(9, seed=6, radius=0.85)
    pairs = list(itertools.combinations(range(len(points)), 2))
    together = distances(ReinhardtLog(STRETCHED), points, pairs)
    alone = [distances(ReinhardtLog(STRETCHED), points, [p])[0] for p in pairs]
    assert list(together) == alone


# ---------------------------------------------------------------------------
# the tube kind: the search's first round, on the tube itself
# ---------------------------------------------------------------------------

def tube_points(count: int, seed: int, radius: float, flat: bool) -> np.ndarray:
    """Tube points over a base that holds the disc of `radius` about 0: the
    logs of `reinhardt_points`, or their real parts plus one shared
    imaginary part when flat, so that every pair has Im u == Im v."""
    logs = metric._principal_log(reinhardt_points(count, seed, radius))
    return logs.real + 0.5j if flat else logs


@pytest.mark.parametrize("flat", [False, True], ids=["generic", "flat"])
@pytest.mark.parametrize("name", list(BASES))
def test_tube_kind_equals_tube_distance_bounds(name, flat):
    # the tube kind runs the first round on the N point rows and
    # `tube_distance_bounds` on the 2m stacked ends of its pairs: the same
    # brackets, bit for bit, on the pairs in their canonical order
    base, radius = BASES[name]
    points = tube_points(9, len(name), radius, flat)
    points[8] = points[3]
    pairs = np.array(list(itertools.permutations(range(len(points)), 2)))
    got = distances(TubeOverBase(base), points, pairs)
    i, j = metric._canonical_order(points, pairs).T
    lower, upper = tube.tube_distance_bounds(base, points[i], points[j])
    assert got.value.tobytes() == (0.5 * (lower + upper)).tobytes()
    assert got.gap.tobytes() == (upper - lower).tobytes()
    assert set(got.method.tolist()) == {"sandwich"}


def test_tube_kind_keeps_one_slab_table_row_per_point(monkeypatch):
    # a pair matrix of N points builds its slab table on the N point rows
    seen = []
    slab_table = tube.slab_table

    def counted(base, rows, pairs, us, vs):
        seen.append((len(rows), len(pairs)))
        return slab_table(base, rows, pairs, us, vs)

    monkeypatch.setattr(tube, "slab_table", counted)
    points = tube_points(12, 8, 0.85, False)
    distances(TubeOverBase(BALL), points, list(itertools.combinations(range(12), 2)))
    assert seen == [(12, 66)]


def test_tube_kind_memory_on_a_pair_matrix():
    # 40 points and their 780 pairs on the 2-d ball tube: the slab table
    # keeps 40 point rows, not 1,560 stacked ends (2.44 MB of traced peak
    # with the stacked ends, 0.76 MB with the point rows)
    import tracemalloc

    points = tube_points(40, 9, 0.85, False)
    pairs = list(itertools.combinations(range(40), 2))
    distances(TubeOverBase(BALL), points, pairs)     # fills the caches
    tracemalloc.start()
    try:
        distances(TubeOverBase(BALL), points, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2e6
