"""Distances as columns, and maps applied row-wise.

`distances` returns a read-only `DistanceColumns`; its arrays must hold
exactly the fields of the `DistanceValue` items it builds.  Every map kind
maps (N, n) rows, and each row's image must be bit-identical to the
one-point `apply_map`, which in turn follows Python's complex arithmetic.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kobalab import (DistanceColumns, DistanceValue, EuclideanBall, IntegerMatrix,
                     SandwichGapError, TubeOverBase, UnitDisc, apply_map, distance, distances,
                     monomial_apply, monomial_map, monomial_power)
from kobalab import coverings, metric
from test_coverings import ALL_MAPS
from test_metric import _interior_points
from test_points import DISTANCE_DOMAINS, ROW_DOMAINS


def _bits(x: float) -> str:
    return float(x).hex()


def _all_pairs(count):
    return [(i, j) for i in range(count) for j in range(count) if i != j][:12]


def test_every_engine_kind_is_covered():
    assert {type(d) for d in ROW_DOMAINS + DISTANCE_DOMAINS} == set(metric._ENGINES)


@pytest.mark.parametrize("domain", ROW_DOMAINS + DISTANCE_DOMAINS[-1:], ids=repr)
def test_columns_hold_the_fields_of_their_items(domain):
    pts = np.array(_interior_points(domain, 5, np.random.default_rng(17)))
    pairs = _all_pairs(len(pts))
    found = distances(domain, pts, pairs)
    assert isinstance(found, DistanceColumns) and len(found) == len(pairs)
    items = list(found)
    assert all(isinstance(val, DistanceValue) for val in items)
    for column, field in [("value", "value"), ("gap", "gap"),
                          ("lower", "lower"), ("upper", "upper")]:
        got = getattr(found, column)
        assert got.shape == (len(pairs),) and got.dtype == float
        assert [_bits(x) for x in got.tolist()] == [_bits(getattr(v, field)) for v in items]
    assert found.method.tolist() == [val.method for val in items]
    if found.deck_index is None:
        assert all(val.deck_index is None for val in items)
    else:
        assert [tuple(row) for row in found.deck_index.tolist()] == \
            [val.deck_index for val in items]
    # indexing (negative indices too) and slicing build the same values
    assert [found[k] for k in range(len(found))] == items
    assert [found[-k] for k in range(1, len(found) + 1)] == items[::-1]
    assert found[2:5] == items[2:5] and list(found[::-3]) == items[::-3]
    with pytest.raises(IndexError):
        found[len(found)]
    with pytest.raises(IndexError):
        found[-len(found) - 1]
    # one pair is `distance`, bit for bit
    i, j = pairs[-1]
    one = distance(domain, pts[i], pts[j])
    assert (_bits(one.value), _bits(one.gap), one.method, one.deck_index) == \
        (_bits(items[-1].value), _bits(items[-1].gap), items[-1].method,
         items[-1].deck_index)


def test_columns_are_read_only_and_compare_as_lists():
    pts = np.array([[0.1], [0.2 + 0.3j], [-0.4j]])
    found = distances(UnitDisc(), pts, [(0, 1), (2, 0)])
    assert found == list(found) and found == tuple(found) and found == found[:]
    assert found != [] and found != list(found)[:1]
    assert distances(UnitDisc(), pts, []) == []
    assert len(distances(UnitDisc(), pts, [])) == 0
    with pytest.raises(ValueError):
        found.value[0] = 1.0
    with pytest.raises(AttributeError):
        found.value = np.zeros(2)


def test_gap_tolerance_raises_at_the_first_failing_pair():
    domain = TubeOverBase(EuclideanBall((0.0, 0.0), 1.0))
    pts = np.array(_interior_points(domain, 6, np.random.default_rng(3)))
    pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
    gaps = distances(domain, pts, pairs).gap
    tol = float(np.median(gaps))
    failing = np.flatnonzero(gaps > tol)
    messages = [f"sandwich gap {gaps[k]:.3e} exceeds" for k in failing]
    # several pairs fail, and the first and last one's messages tell them apart
    assert len(set(messages)) == len(messages) >= 2
    with pytest.raises(SandwichGapError, match=re.escape(messages[0])):
        distances(domain, pts, pairs, gap_tol=tol)
    # reversing the pairs makes the last failing pair the first
    with pytest.raises(SandwichGapError, match=re.escape(messages[-1])):
        distances(domain, pts, pairs[::-1], gap_tol=tol)
    assert distances(domain, pts, pairs, gap_tol=float(np.max(gaps))) == \
        distances(domain, pts, pairs)


# maps applied row-wise ---------------------------------------------------------

def _source_rows(f, z0, gen, count=40):
    """Points of the map's source near z0 (radius 0.05), plus z0."""
    z0 = np.asarray(z0, dtype=complex)
    rows = z0 + 0.05 * (gen.uniform(-1, 1, (count, z0.size))
                        + 1j * gen.uniform(-1, 1, (count, z0.size)))
    return np.vstack([z0[None], rows])


@pytest.mark.parametrize("f,label,z", ALL_MAPS,
                         ids=[f"{label}-{f.source.kind}" for f, label, _ in ALL_MAPS])
def test_rowwise_apply_equals_apply_map(f, label, z):
    rows = _source_rows(f, z, np.random.default_rng(29))
    images = f.apply(rows)
    assert images.shape == rows.shape and images.dtype == complex
    one = np.array([apply_map(f, row) for row in rows])
    assert images.tobytes() == one.tobytes()
    # and a row's image does not depend on its batch
    assert f.apply(rows[5:9]).tobytes() == images[5:9].tobytes()


def test_rowwise_monomial_with_negative_exponents_and_zeros():
    matrix = IntegerMatrix(((3, -1), (-2, 1)))
    f = monomial_map(matrix, EuclideanBall((0.0, 0.0), 1.0))
    rows = _source_rows(f, [0.9 + 0.4j, -0.5 + 0.7j], np.random.default_rng(2))
    assert f.apply(rows).tobytes() == \
        np.array([monomial_apply(matrix, row) for row in rows]).tobytes()
    # Python's complex arithmetic on each point, factor by factor
    for row in rows[:8]:
        a, b = row.tolist()
        want = [complex(1.0) * a ** 3 * b ** -1, complex(1.0) * a ** -2 * b ** 1]
        assert monomial_apply(matrix, row).tolist() == want
    # a zero coordinate: 0 * the product so far (signed zeros as Python has them)
    for z, alpha in [([0.0, 2 + 1j], (2, 3)), ([-3 + 2j, 0.0], (2, 3)),
                     ([-0.0 - 0.0j, -2.0 + 1j], (1, 1))]:
        want = complex(1.0)
        for zj, aj in zip(z, alpha):
            want = 0.0 * want if zj == 0 else want * complex(zj) ** aj
        got = monomial_power(z, alpha)
        assert (_bits(got.real), _bits(got.imag)) == (_bits(want.real), _bits(want.imag))


_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@given(ar=_FINITE, ai=_FINITE, br=_FINITE, bi=_FINITE, k=st.integers(-12, 12))
def test_row_arithmetic_is_pythons_complex_arithmetic(ar, ai, br, bi, k):
    a, b = complex(ar, ai), complex(br, bi)
    rows = [np.array([x]) for x in (ar, ai, br, bi)]
    prod = coverings._complex(*coverings._mul(*rows))[0]
    assert (_bits(prod.real), _bits(prod.imag)) == (_bits((a * b).real), _bits((a * b).imag))
    if b != 0:
        quot = coverings._complex(*coverings._div(*rows))[0]
        assert (_bits(quot.real), _bits(quot.imag)) == \
            (_bits((a / b).real), _bits((a / b).imag))
    else:
        with pytest.raises(ZeroDivisionError):
            coverings._div(*rows)
    if a != 0 and abs(k * math.log(abs(a))) < 600.0:
        power = coverings._complex(*coverings._pow_rows(rows[0], rows[1], k))[0]
        want = a ** k
        assert (_bits(power.real), _bits(power.imag)) == (_bits(want.real), _bits(want.imag))


def test_row_division_takes_pythons_branches():
    # |Re b| = |Im b| takes the Re branch, as CPython's does; zero parts too
    gen = np.random.default_rng(11)
    a = gen.normal(size=200) + 1j * gen.normal(size=200)
    scale = np.exp(gen.uniform(-20, 20, 200))
    signs = gen.choice([-1.0, 1.0], (200, 2))
    for b in [scale * (signs[:, 0] + 1j * signs[:, 1]), scale + 0j, 1j * scale,
              scale * (1.0 + 1j * (1.0 + 2.0 ** -52))]:
        got = coverings._complex(*coverings._div(a.real, a.imag, b.real, b.imag))
        want = [x / y for x, y in zip(a.tolist(), b.tolist())]
        assert [(_bits(z.real), _bits(z.imag)) for z in got.tolist()] == \
            [(_bits(z.real), _bits(z.imag)) for z in want]


def test_power_rows_match_python_powers_on_the_unit_circle():
    gen = np.random.default_rng(7)
    z = np.exp(1j * gen.uniform(0, 2 * math.pi, 500)) * gen.uniform(0.1, 1.0, 500)
    for n in (1, 2, 3, 5, 8, 13):
        got = coverings._complex(*coverings._pow_rows(z.real, z.imag, n))
        assert got.tolist() == [complex(x) ** n for x in z.tolist()]
