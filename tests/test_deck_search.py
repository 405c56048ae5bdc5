"""The best-first deck search against the sequential lexicographic search.

`reference_deck_columns` is the deck search as it ran before the open
survivors of a shell were finished best-first: every survivor in per-pair
lexicographic order, each rechecked against its pair's running best.  The
search in `metric` must give the same value, gap and deck index bit for
bit, while computing fewer upper bounds.
"""

import itertools
import math

import numpy as np
import pytest

from kobalab import (Box, DeckBoundError, EuclideanBall, LinearImage, ReinhardtLog, Strip,
                     TubeOverBase, distances)
from kobalab import metric, tube
from kobalab.domains import require_interior, to_polytope

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


def reference_deck_columns(cover, us, vs):
    """The sequential deck search: nu0, then shell after shell, every
    survivor finished in per-pair lexicographic order."""
    require_interior(cover, np.concatenate([us, vs]))
    m, n = us.shape
    pair_terms, bounds, finish, offset_lower, threshold = metric._cover(cover)
    terms = pair_terms(us, vs)
    dy = us.imag - vs.imag
    nu0 = np.round(dy / metric.TWO_PI).astype(int)
    v0 = vs + metric.TWO_PI * 1j * nu0
    best_lo, highs, settled = (x.tolist() for x in bounds(us, v0, terms))
    best_hi = [hi if done else finish(u, v, lo, hi, t) for u, v, lo, hi, done, t
               in zip(us, v0, best_lo, highs, settled, terms)]
    best_nu = [tuple(row) for row in nu0.tolist()]
    evaluated = [{nu} for nu in best_nu]

    def bounds_for(rows):
        thr = threshold(us[rows], vs[rows], np.array([best_hi[k] for k in rows]))
        return np.floor((np.abs(dy[rows]) + thr) / metric.TWO_PI).astype(int) + 1

    active = list(range(m))
    for _ in range(64):
        if not active:
            break
        improved = set()
        for k, limit in zip(active, bounds_for(active).tolist()):
            box = list(itertools.product(*[range(-b, b + 1) for b in limit]))
            offsets = metric.TWO_PI * np.array(box)
            bound = offset_lower(us[[k]], vs[[k]], dy[[k]][:, None, :] - offsets)[0]
            hits = [l for l in range(len(box))
                    if not bound[l] > best_hi[k] and box[l] not in evaluated[k]]
            if not hits:
                continue
            moved = vs[[k] * len(hits)] + metric.TWO_PI * 1j * np.array([box[l] for l in hits])
            found = (x.tolist() for x in bounds(us[[k] * len(hits)], moved, terms[[k] * len(hits)]))
            for l, v, lo, hi, done in zip(hits, moved, *found):
                if bound[l] > best_hi[k]:
                    continue
                if lo > best_hi[k]:
                    hi = math.inf
                elif not done:
                    hi = finish(us[k], v, lo, hi, terms[k])
                evaluated[k].add(box[l])
                best_lo[k] = min(best_lo[k], lo)
                if hi < best_hi[k]:
                    best_hi[k] = hi
                    best_nu[k] = box[l]
                    improved.add(k)
        active = [k for k in active if k in improved]
    lo, hi = np.array(best_lo), np.array(best_hi)
    gap = np.where(hi - lo > 0.0, hi - lo, 0.0)
    return 0.5 * (lo + hi), gap, np.array(best_nu, dtype=int).reshape(m, n)


def reinhardt_points(count: int, seed: int, radius: float = 0.45) -> np.ndarray:
    """Points of a Reinhardt domain over a base that holds the disc of
    `radius` about 0: log moduli uniform in that disc, uniform phases."""
    gen = np.random.default_rng(seed)
    r, th = radius * np.sqrt(gen.random(count)), 2.0 * math.pi * gen.random(count)
    logs = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    return np.exp(logs) * np.exp(2j * math.pi * gen.random((count, 2)))


def reference_distances(domain, points, pairs):
    """The reference search on the pairs as `distances` orders them."""
    pairs = metric._canonical_order(points, np.asarray(pairs))
    us, vs = metric._ends(metric._principal_log(points), pairs)
    return reference_deck_columns(TubeOverBase(domain.base), us, vs)


def assert_same_columns(got, want):
    value, gap, deck_index = want
    assert got.value.tolist() == value.tolist()
    assert got.gap.tolist() == gap.tolist()
    assert got.deck_index.tolist() == deck_index.tolist()


@pytest.mark.parametrize("name", list(BASES))
def test_best_first_search_equals_sequential_search(name):
    base, radius = BASES[name]
    domain = ReinhardtLog(base)
    points = reinhardt_points(7, seed=len(name), radius=radius)
    pairs = list(itertools.combinations(range(len(points)), 2))
    assert_same_columns(distances(domain, points, pairs),
                        reference_distances(domain, points, pairs))


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
    pair_terms, bounds, finish, _, _ = metric._cover(cover)
    uppers = []
    for nu in ((-1, 0), (0, -1)):
        u, v = logs[:1], logs[1:] + metric.TWO_PI * 1j * np.array([nu])
        lo, hi, done = bounds(u, v, pair_terms(u, v))
        assert not done[0]
        uppers.append(finish(u[0], v[0], lo[0], hi[0], pair_terms(u, v)[0]))
    assert uppers[0] == uppers[1]
    got = distances(domain, points, [(0, 1)])
    assert got.deck_index.tolist() == [[-1, 0]]
    assert_same_columns(got, reference_distances(domain, points, [(0, 1)]))


def test_tie_rule_holds_when_later_translates_are_finished_first(monkeypatch):
    # a cover record on which every translate but nu0 has the same upper
    # bound and the lower bounds fall in lexicographic order, so the
    # best-first pass finishes the lexicographically last survivor first
    def pair_terms(us, vs):
        return np.zeros(len(us))

    def bounds(us, vs, terms):
        nu = np.round((vs.imag - 0.5) / metric.TWO_PI)
        lows = 1.0 - 0.01 * (nu[:, 0] * 10 + nu[:, 1])
        highs = np.where(np.all(nu == 0.0, axis=1), 5.0, 2.0)
        return lows, highs, np.zeros(len(us), dtype=bool)

    record = (pair_terms, bounds, lambda u, v, lo, hi, term: hi,
              lambda us, vs, dys: np.zeros(dys.shape[:2]),
              lambda us, vs, best: np.full(us.shape, 3.0))
    cover = TubeOverBase(BALL)
    monkeypatch.setattr(metric, "_cover", lambda c: record)
    us = np.array([[0.0 + 0.5j, 0.0 + 0.5j]])
    want = reference_deck_columns(cover, us, us)
    assert want[2].tolist() == [[-1, -1]]
    assert_same_columns(metric.deck_infimum(cover, us, us), want)


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
    assert (sequential, len(calls)) == (61, 51)


def test_search_still_improving_after_the_last_round_raises(monkeypatch):
    domain = ReinhardtLog(STRETCHED)
    points = tied_pair()
    # one growth round improves on nu0; the second certifies the minimum
    assert distances(domain, points, [(0, 1)]).deck_index.tolist() == [[-1, 0]]
    monkeypatch.setattr(metric, "DECK_ROUNDS", 2)
    assert distances(domain, points, [(0, 1)]).deck_index.tolist() == [[-1, 0]]
    monkeypatch.setattr(metric, "DECK_ROUNDS", 1)
    with pytest.raises(DeckBoundError, match="still improving after 1 growth round"):
        distances(domain, points, [(0, 1)])


def test_exact_covers_settle_every_survivor_without_a_finish():
    # the strip cover's bounds are exact, so nothing is left open
    pair_terms, bounds, finish, _, _ = metric._cover(Strip(4.0))
    assert finish is None
    us = np.array([[0.3 + 1.0j], [-0.2 - 2.5j]])
    vs = np.array([[-0.1 - 4.0j], [0.4 + 6.0j]])
    got = metric.deck_infimum(Strip(4.0), us, vs)
    assert_same_columns(got, reference_deck_columns(Strip(4.0), us, vs))
