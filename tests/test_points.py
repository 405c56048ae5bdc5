"""The array-native point layer: row-wise `contains`, the batch form of
`require_interior`, the canonical pair order, and the points and index
pairs that `distances` accepts."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kobalab
from kobalab import (Annulus, EuclideanBall, LeftHalfPlane, Polydisc, ReinhardtLog,
                     ScaledEllipsoid, Strip, TubeOverBase, UnitBall, UnitDisc, deck_infimum,
                     distance, distances, membership)
from kobalab import metric
from kobalab.domains import (DomainError, NonInteriorError, base_membership, base_reference,
                             dim, reference_point, require_interior)
from kobalab.metric import _canonical_order
from test_domains import ALL_BASES, ALL_DOMAINS
from test_metric import _interior_points

# every model-domain kind, plus the kinds over polytope and linear-image bases
ROW_DOMAINS = ALL_DOMAINS + [TubeOverBase(ALL_BASES[3]), ReinhardtLog(ALL_BASES[5]),
                             TubeOverBase(ALL_BASES[6]), ScaledEllipsoid(0.0, 0.3, 3)]


def _crossing(inside, start, step):
    """(lo, hi), adjacent floats with start + lo*step inside and start +
    hi*step outside, by bisection along the ray; None if the ray stays
    inside up to 1e6."""
    lo, hi = 0.0, 1.0
    while inside(start + hi * step):
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        lo, hi = (mid, hi) if inside(start + mid * step) else (lo, mid)


def _probe_rows(inside, start, gen, directions, dtype):
    """Points along random rays from an interior start: the last float inside
    and the first outside (on the boundary in floating point), points 1e-12
    inside and outside of them, and points spread around the start."""
    n = len(start)
    rows = []
    for _ in range(directions):
        step = gen.normal(size=n)
        if dtype is complex:
            step = step + 1j * gen.normal(size=n)
        step = step / np.linalg.norm(step)
        rows += [start + t * step for t in gen.uniform(-3.0, 3.0, 3)]
        ends = _crossing(inside, start, step)
        if ends is not None:
            lo, hi = ends
            assert inside(start + lo * step) and not inside(start + hi * step)
            rows += [start + t * step for t in (lo, hi, lo - 1e-12, hi + 1e-12)]
    return np.array(rows, dtype=dtype)


def _assert_rows_match(contains, one, rows, gen):
    # the batch verdict, in a shuffled order and as a slice, is each row's own
    order = gen.permutation(len(rows))
    got = contains(rows[order])
    assert got.shape == (len(rows),) and got.dtype == bool
    assert got.tolist() == [one(rows[k]) for k in order]
    cut = len(rows) // 3
    assert contains(rows[order][cut:]).tolist() == got[cut:].tolist()


@pytest.mark.parametrize("domain", ROW_DOMAINS, ids=repr)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_row_contains_equals_per_point_membership(domain, seed):
    gen = np.random.default_rng(seed)
    rows = _probe_rows(lambda z: membership(domain, z), reference_point(domain), gen, 4, complex)
    if isinstance(domain, ReinhardtLog):
        # zero coordinates are outside, whatever the base says
        rows = np.vstack([rows, np.zeros((1, dim(domain))), [[0.0, 1.0]], [[1.0, 0.0]]])
    _assert_rows_match(domain.contains, lambda z: membership(domain, z), rows, gen)


@pytest.mark.parametrize("base", ALL_BASES, ids=repr)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_row_base_contains_equals_per_point_membership(base, seed):
    gen = np.random.default_rng(seed)
    rows = _probe_rows(lambda x: base_membership(base, x), base_reference(base), gen, 4, float)
    _assert_rows_match(base.contains, lambda x: base_membership(base, x), rows, gen)


def test_exact_boundary_points_are_outside():
    on = {UnitDisc(): [[1.0], [1j]], Annulus(4.0): [[4.0], [0.25j]],
          LeftHalfPlane(): [[0.0 + 3j], [-0.0 - 1j]], Polydisc(2): [[0.5, 1.0], [-1j, 0.0]],
          UnitBall(2): [[0.6, 0.8j], [0.0, -1.0]]}
    for domain, rows in on.items():
        rows = np.array(rows, dtype=complex)
        assert domain.contains(rows).tolist() == [False, False]
        assert [membership(domain, z) for z in rows] == [False, False]


def test_scaled_ellipsoid_pole_is_outside():
    # 1 + t z_1 = 0 is the pole of A_t, far outside the ball
    domain = ScaledEllipsoid(0.05, 0.5, 2)
    rows = np.array([[0.1, 0.2j], [-2.0, 0.0], [0.3, 0.0]])
    assert domain.contains(rows).tolist() == [True, False, True]
    assert not membership(domain, rows[1])


def test_require_interior_batch_raises_the_first_bad_rows_error():
    good = [0.1, 0.2j, -0.5 + 0.5j]
    bad = [1.5, complex("nan"), complex(0.0, float("inf")), 0.8 + 0.8j]
    for rows in itertools.permutations(good + bad, 4):
        first = next(z for z in rows if z not in good)
        with pytest.raises((DomainError, NonInteriorError)) as want:
            require_interior(UnitDisc(), first)
        with pytest.raises(type(want.value)) as got:
            require_interior(UnitDisc(), np.array(rows)[:, None])
        assert str(got.value) == str(want.value)
    batch = np.array(good)[:, None]
    assert require_interior(UnitDisc(), batch) is batch
    assert require_interior(UnitDisc(), 0.3).shape == (1,)
    # a row of the wrong dimension: a non-finite first row still says so first
    for rows, message in [([[0.1, 0.2]], "dimension 2"), ([[bad[1], 0.2]], "non-finite"),
                          (np.zeros((2, 0)), "scalar or a 1-d"),
                          (np.zeros((1, 1, 1)), "scalar or a 1-d")]:
        with pytest.raises(DomainError, match=message):
            require_interior(UnitDisc(), np.array(rows, dtype=complex))
    assert require_interior(UnitBall(2), np.zeros((0, 2))).shape == (0, 2)


def _tuple_order(rows, pairs):
    # the order rule as Python compares tuples of (Re, Im) per coordinate
    keys = [tuple(zip(p.real.tolist(), p.imag.tolist())) for p in rows]
    return [(j, i) if keys[j] < keys[i] else (i, j) for i, j in pairs]


@given(n=st.integers(1, 3),
       parts=st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-300, -5e-324, 3.0]),
                      min_size=6, max_size=24))
def test_canonical_order_is_the_tuple_order(n, parts):
    # few distinct values, so that pairs tie on leading coordinates, and
    # -0.0 ties with 0.0
    parts = parts[:len(parts) // (2 * n) * 2 * n]
    rows = np.array(parts).view(complex).reshape(-1, n)
    pairs = np.array(list(itertools.product(range(len(rows)), repeat=2)))
    want = _tuple_order(rows, pairs.tolist())
    assert _canonical_order(rows, pairs).tolist() == [list(p) for p in want]
    for k in range(len(pairs)):
        assert _canonical_order(rows, pairs[k:k + 1]).tolist() == [list(want[k])]


DISTANCE_DOMAINS = ALL_DOMAINS + [TubeOverBase(ALL_BASES[3]),
                                  ReinhardtLog(EuclideanBall((0.3, -0.2), 0.9))]


@pytest.mark.parametrize("domain", DISTANCE_DOMAINS, ids=repr)
@settings(max_examples=6)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_shuffled_distances_equal_per_pair_distance(domain, seed):
    gen = np.random.default_rng(seed)
    pts = np.array(_interior_points(domain, 4, gen))
    pairs = gen.integers(0, len(pts), (5, 2))
    perm = gen.permutation(len(pts))
    where = np.argsort(perm)                 # pts[i] is row where[i] of pts[perm]
    batch = distances(domain, pts[perm], where[pairs])
    single = [distance(domain, pts[i], pts[j]) for i, j in pairs.tolist()]
    assert [(b.value, b.gap, b.method, b.deck_index) for b in batch] == \
        [(s.value, s.gap, s.method, s.deck_index) for s in single]


def test_distances_accepts_index_arrays_and_rejects_bad_pairs():
    pts = np.array([[0.1], [0.2 + 0.3j], [-0.4j]])
    want = distances(UnitDisc(), pts, [(0, 1), (2, 0)])
    assert distances(UnitDisc(), pts, np.array([[0, 1], [2, 0]])) == want
    assert distances(UnitDisc(), list(pts), np.array([[0, 1], [2, 0]], dtype=np.uint8)) == want
    assert distances(UnitDisc(), [0.1, 0.2 + 0.3j, -0.4j], [(0, 1), (2, 0)]) == want
    assert distances(UnitDisc(), pts, np.zeros((0, 2), dtype=int)) == []
    for bad in [np.array([0, 1]), np.array([[0, 1, 2]]), np.array([[[0, 1]]]),
                np.array([[0.0, 1.0]]), [(0, 1), (2,)], [(True, False)]]:
        with pytest.raises(ValueError, match=r"pairs must be a list of \(i, j\) index pairs"):
            distances(UnitDisc(), pts, bad)
    for bad in [[(0, 3)], np.array([[-1, 0]]), [(0, 1), (1, 5)]]:
        with pytest.raises(ValueError, match=r"pair indices must lie in \[0, 3\) for 3 points"):
            distances(UnitDisc(), pts, bad)


def test_points_of_differing_shapes_raise_the_first_bad_points_error():
    with pytest.raises(DomainError, match="dimension 2"):
        distances(UnitDisc(), [np.array([0.1]), np.array([0.1, 0.2]), np.array([2.0])], [])
    with pytest.raises(NonInteriorError):
        distances(UnitDisc(), [np.array([0.1]), np.array([2.0]), np.array([0.1, 0.2])], [])
    with pytest.raises(DomainError, match="scalar or a 1-d"):
        distances(UnitDisc(), [np.array([0.1]), np.zeros((1, 1))], [])


def test_each_batch_is_checked_in_one_call(monkeypatch):
    calls = []

    def counting(domain, z):
        calls.append(np.shape(z))
        return require_interior(domain, z)

    monkeypatch.setattr(metric, "require_interior", counting)
    pts = np.array(_interior_points(Annulus(4.0), 12, np.random.default_rng(5)))
    pairs = [(i, j) for i in range(12) for j in range(i)]
    distances(Annulus(4.0), pts, pairs)
    # the annulus points once, and their logs once on the strip cover
    assert calls == [(12, 1), (12, 1)]
    calls.clear()
    ball = EuclideanBall((0.0, 0.0), 1.0)
    logs = np.log(np.array(_interior_points(ReinhardtLog(ball), 6, np.random.default_rng(5))))
    deck_infimum(TubeOverBase(ball), logs, [(0, 3), (1, 4), (2, 5)])
    assert calls == [(6, 2)]


def test_import_leaves_the_test_dependencies_unloaded():
    # jsonschema alone takes about 120 ms to import; kobalab never needs it
    code = ("import sys, kobalab, kobalab.cli; print(sorted(m for m in "
            "('jsonschema', 'referencing', 'hypothesis', 'mpmath', 'pytest') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(kobalab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_tube_bounds_check_their_base_rows():
    base = EuclideanBall((0.0, 0.0), 1.0)
    for bound in (kobalab.caratheodory_lower, kobalab.lempert_upper):
        with pytest.raises(DomainError, match="wrong dimension"):
            bound(base, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="open tube"):
            bound(base, [0.1, 0.0], [2.0, 0.0])
    with pytest.raises(ValueError, match="open tube"):
        kobalab.caratheodory_lower(base, [[0.1, 0.0], [2.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
