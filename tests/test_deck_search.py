"""The best-first deck search against the sequential lexicographic search.

`reference_deck_columns` is the deck search as it ran before the open
survivors of a shell were finished best-first: every survivor in per-pair
lexicographic order, each rechecked against its pair's running best.  The
search in `metric` must give the same value, gap and deck index bit for
bit, while computing fewer upper bounds.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from kobalab import (Box, DeckBoundError, EuclideanBall, LinearImage, ReinhardtLog, Strip,
                     TubeOverBase, distances)
from kobalab import metric, tube
from kobalab.domains import domain_from_dict, require_interior, to_polytope

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
    start, bounds, finish, offset_lower, threshold = metric._cover(cover)
    dy = us.imag - vs.imag
    nu0 = np.round(dy / metric.TWO_PI).astype(int)
    v0 = vs + metric.TWO_PI * 1j * nu0
    pairs, *first = start(us, v0)
    best_lo, highs, settled = (x.tolist() for x in first)
    best_hi = [hi if done else finish(pairs, k, v, lo, hi, math.inf)
               for k, (v, lo, hi, done) in enumerate(zip(v0, best_lo, highs, settled))]
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
            found = (x.tolist() for x in bounds(pairs, np.full(len(hits), k), moved))
            for l, v, lo, hi, done in zip(hits, moved, *found):
                if bound[l] > best_hi[k]:
                    continue
                if lo > best_hi[k]:
                    hi = math.inf
                elif not done:
                    # the whole upper bound: no cut at the running best
                    hi = finish(pairs, k, v, lo, hi, math.inf)
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
    start, bounds, finish, _, _ = metric._cover(cover)
    uppers = []
    for nu in ((-1, 0), (0, -1)):
        u, v = logs[:1], logs[1:] + metric.TWO_PI * 1j * np.array([nu])
        pairs, lo, hi, done = start(u, v)
        assert [x.tolist() for x in bounds(pairs, np.array([0]), v)] == \
            [lo.tolist(), hi.tolist(), done.tolist()]
        assert not done[0]
        uppers.append(finish(pairs, 0, v[0], lo[0], hi[0], math.inf))
    assert uppers[0] == uppers[1]
    got = distances(domain, points, [(0, 1)])
    assert got.deck_index.tolist() == [[-1, 0]]
    assert_same_columns(got, reference_distances(domain, points, [(0, 1)]))


def test_tie_rule_holds_when_later_translates_are_finished_first(monkeypatch):
    # a cover record on which every translate but nu0 has the same upper
    # bound and the lower bounds fall in lexicographic order, so the
    # best-first pass finishes the lexicographically last survivor first
    def start(us, vs):
        return (us, *bounds(us, np.arange(len(us)), vs))

    def bounds(pairs, owners, vs):
        nu = np.round((vs.imag - 0.5) / metric.TWO_PI)
        lows = 1.0 - 0.01 * (nu[:, 0] * 10 + nu[:, 1])
        highs = np.where(np.all(nu == 0.0, axis=1), 5.0, 2.0)
        return lows, highs, np.zeros(len(vs), dtype=bool)

    record = (start, bounds, lambda pairs, k, v, lo, hi, cut: hi,
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
    _, _, finish, _, _ = metric._cover(Strip(4.0))
    assert finish is None
    us = np.array([[0.3 + 1.0j], [-0.2 - 2.5j]])
    vs = np.array([[-0.1 - 4.0j], [0.4 + 6.0j]])
    got = metric.deck_infimum(Strip(4.0), us, vs)
    assert_same_columns(got, reference_deck_columns(Strip(4.0), us, vs))


GOLDEN = Path(__file__).parent / "data" / "deck_golden.json"


def _points(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def test_deck_golden():
    # value, gap, method and deck index of fixed Reinhardt and tube-cover
    # pairs over ball, box, polytope and linear-image bases, recorded before
    # the slab lower bound was split into a per-pair table and a
    # per-translate stage; the search must reproduce them bit for bit
    for case in json.loads(GOLDEN.read_text()):
        if "domain" in case:
            got = distances(domain_from_dict(case["domain"]), _points(case["points"]),
                            case["pairs"])
        else:
            got = metric.deck_infimum(domain_from_dict(case["cover"]), _points(case["us"]),
                                      _points(case["vs"]))
        assert got.value.tolist() == case["value"], case["name"]
        assert got.gap.tolist() == case["gap"], case["name"]
        assert got.method.tolist() == case["method"], case["name"]
        assert got.deck_index.tolist() == case["deck_index"], case["name"]


def test_search_builds_each_pair_slab_table_once(monkeypatch):
    # 36 pairs fill two blocks of the table; their shell rounds gather rows
    # of the one table
    built, evaluated = [], []
    slab_table, slab_lower = metric.slab_table, metric.slab_lower

    def counted_table(base, us, vs):
        built.append(len(us))
        return slab_table(base, us, vs)

    def counted_lower(base, table, owners, vs):
        evaluated.extend(np.asarray(owners).tolist())
        return slab_lower(base, table, owners, vs)

    monkeypatch.setattr(metric, "slab_table", counted_table)
    monkeypatch.setattr(metric, "slab_lower", counted_lower)
    monkeypatch.setattr(tube, "slab_table", counted_table)
    points = reinhardt_points(9, seed=5, radius=0.85)
    pairs = list(itertools.combinations(range(len(points)), 2))
    distances(ReinhardtLog(BALL), points, pairs)
    assert built == [len(pairs)]
    # shells ran for pairs of both blocks
    assert min(evaluated) < tube._sweep_rows(BALL) <= max(evaluated)


def test_each_pair_is_searched_on_its_own():
    # a pair's result does not depend on the other pairs of its search
    points = reinhardt_points(9, seed=6, radius=0.85)
    pairs = list(itertools.combinations(range(len(points)), 2))
    together = distances(ReinhardtLog(STRETCHED), points, pairs)
    alone = [distances(ReinhardtLog(STRETCHED), points, [p])[0] for p in pairs]
    assert list(together) == alone
