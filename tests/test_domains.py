import json
import math
import typing

import numpy as np
import pytest

from kobalab import (Annulus, BoundaryPoint, Box, EuclideanBall, LeftHalfPlane, LinearImage,
                     Polydisc, Polytope, PuncturedDisc, ReinhardtLog, ScaledEllipsoid, Strip,
                     TubeOverBase, UnitBall, UnitDisc, boundary_point, distance,
                     domain_from_dict, domain_to_dict, ellipsoid_defining_function,
                     infinitesimal_metric, log_coordinates, membership)
from kobalab import domains
from kobalab.domains import (ConvexBase, DomainError, ModelDomain, base_dim, base_from_dict,
                             base_margin, base_membership, base_reference, base_support,
                             base_to_dict, boundary_residual, chord_interval, dim,
                             escape_margin, reference_point, to_polytope)
from kobalab.mobius import ball_scaling_map

ALL_DOMAINS = [
    UnitDisc(), PuncturedDisc(), Annulus(4.0), Strip(4.0), LeftHalfPlane(), UnitBall(2),
    UnitBall(3), Polydisc(2), TubeOverBase(EuclideanBall((0.0, 0.0), 1.0)),
    ReinhardtLog(EuclideanBall((0.0, 0.0), 1.0)), ScaledEllipsoid(0.05, 0.5, 2),
]

ALL_BASES = [
    EuclideanBall((0.5, -0.25), 2.0), EuclideanBall((0.25,), 0.75),
    Box((-1.0, 0.0), (1.0, 0.5)),
    Polytope(((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0), (1.0, -2.0)), (1.0, 1.0, 1.0, 2.0)),
    Polytope(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)), (1.0, 1.0, 2.0, 0.5),
             (0.0, 0.0)),
    LinearImage(((1.0, 1.0), (0.0, 2.0)), EuclideanBall((0.1, -0.2), 1.3)),
    LinearImage(((2.0, 0.5), (-0.3, 1.0)), Box((-1.0, -0.5), (1.2, 0.7))),
]


def test_every_kind_is_in_the_codec():
    kinds = set(typing.get_args(ModelDomain))
    assert set(domains._Kind.__subclasses__()) == kinds
    assert set(domains._KINDS.values()) == kinds
    assert len(domains._KINDS) == len(kinds)
    assert {type(d) for d in ALL_DOMAINS} == kinds


@pytest.mark.parametrize("domain", ALL_DOMAINS, ids=repr)
def test_kind_definition_is_complete(domain, validate_schema):
    data = domain_to_dict(domain)
    validate_schema("domain.json", data)
    assert domain_from_dict(data) == domain
    assert domain_to_dict(domain_from_dict(data)) == data
    ref = reference_point(domain)
    assert ref.shape == (dim(domain),)
    assert membership(domain, ref)
    assert escape_margin(domain, ref) > 0.0
    assert boundary_residual(domain, ref) > 0.0
    assert distance(domain, ref, ref).value == 0.0
    v = np.ones(dim(domain), dtype=complex)
    assert math.isfinite(infinitesimal_metric(domain, ref, v))


def test_every_base_kind_is_in_the_codec():
    kinds = set(typing.get_args(ConvexBase))
    assert set(domains._Base.__subclasses__()) == kinds
    assert set(domains._BASES.values()) == kinds
    assert len(domains._BASES) == len(kinds)
    assert {type(b) for b in ALL_BASES} == kinds


@pytest.mark.parametrize("base", ALL_BASES, ids=repr)
def test_base_kind_definition_is_complete(base, validate_schema):
    data = base_to_dict(base)
    validate_schema("base.json", data)
    assert base_from_dict(data) == base
    assert base_to_dict(base_from_dict(data)) == data
    ref = base_reference(base)
    assert ref.shape == (base_dim(base),)
    assert base_membership(base, ref)
    assert base_margin(base, ref) > 0.0
    dirs = np.random.default_rng(7).normal(size=(12, base_dim(base)))
    batch = base.support(dirs)
    for d, h in zip(dirs, batch):
        # the scalar support is the one-row case of the batch formula
        assert base_support(base, d) == h
        lo, hi = chord_interval(base, ref, d)
        assert lo < 0.0 < hi
        for s in (lo, hi):
            assert abs(base_margin(base, ref + s * d)) < 1e-9
        assert float(np.dot(d, ref + hi * d)) <= h + 1e-9


def test_malformed_bases_rejected():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    for build in [lambda: Polytope((), ()),
                  lambda: Polytope(((1.0, 0.0), (0.0,)), (1.0, 1.0)),
                  lambda: Polytope(((1.0, 0.0), (0.0, 1.0)), (1.0,)),
                  lambda: EuclideanBall((), 1.0),
                  lambda: Box((), ()),
                  lambda: LinearImage(((1.0, 0.0),), ball),
                  lambda: LinearImage(((2.0,),), ball),
                  lambda: LinearImage(((1.0, 1.0), (1.0, 1.0)), ball)]:
        with pytest.raises(DomainError):
            build()


def test_membership_trivia():
    assert membership(UnitDisc(), 0.0)
    assert not membership(PuncturedDisc(), 0.0)
    assert membership(PuncturedDisc(), 0.3)
    base = EuclideanBall((0.0, 0.0), 1.0)
    assert membership(ReinhardtLog(base), [math.exp(0.3), math.exp(0.4)])
    assert not membership(ReinhardtLog(base), [math.exp(0.8), math.exp(0.7)])


def test_membership_dimension_mismatch():
    with pytest.raises(DomainError):
        membership(UnitBall(2), [0.1])


def test_log_coordinates():
    assert np.allclose(log_coordinates([1.0, 1.0]), [0.0, 0.0])
    assert np.allclose(log_coordinates([math.e ** 2, math.e ** -1]), [2.0, -1.0])
    assert np.allclose(log_coordinates([1j * math.e, 1.0]), [1.0, 0.0])
    with pytest.raises(DomainError):
        log_coordinates([0.0, 1.0])


def test_ellipsoid_defining_function():
    e1 = [1.0, 0.0]
    assert ellipsoid_defining_function(0.0, e1) == pytest.approx(0.0, abs=1e-15)
    assert ellipsoid_defining_function(0.0, [0.0, 0.0]) == pytest.approx(-1.0)
    # |(-e1) - e1|^4 = 16
    assert ellipsoid_defining_function(0.1, [-1.0, 0.0]) == pytest.approx(1.6)
    with pytest.raises(DomainError):
        ellipsoid_defining_function(-0.1, e1)


def test_reference_points_are_interior():
    for domain in ALL_DOMAINS:
        assert membership(domain, reference_point(domain)), domain


def test_reinhardt_rotation_invariance():
    base = EuclideanBall((0.0, 0.0), 1.0)
    dom = ReinhardtLog(base)
    gen = np.random.default_rng(3)
    for _ in range(50):
        u = gen.uniform(-0.6, 0.6, size=2)
        z = np.exp(u) * np.exp(1j * gen.uniform(0, 2 * math.pi, size=2))
        theta = gen.uniform(0, 2 * math.pi, size=2)
        assert membership(dom, z) == membership(dom, z * np.exp(1j * theta))


def test_scaled_ellipsoid_eps0_is_ball_pullback():
    gen = np.random.default_rng(5)
    for t in (0.0, 0.4, 0.9):
        dom = ScaledEllipsoid(0.0, t, 2)
        for _ in range(30):
            z = gen.normal(size=2) * 0.6 + 1j * gen.normal(size=2) * 0.6
            want = float(np.sum(np.abs(ball_scaling_map(t, z)) ** 2)) < 1.0
            assert membership(dom, z) == want


def test_boundary_point_validation():
    boundary_point(UnitBall(2), [1.0, 0.0])
    boundary_point(Annulus(4.0), [4.0])
    boundary_point(PuncturedDisc(), [0.0])  # the puncture is boundary
    with pytest.raises(DomainError):
        BoundaryPoint(UnitDisc(), (0.5 + 0.0j,))


def test_escape_margin_positive_inside():
    for domain in ALL_DOMAINS:
        assert escape_margin(domain, reference_point(domain)) > 0.0


def test_serialization_round_trip():
    for domain in ALL_DOMAINS:
        data = domain_to_dict(domain)
        assert domain_to_dict(domain_from_dict(data)) == data


def test_base_serialization_round_trip():
    bases = [EuclideanBall((0.5, -0.25), 2.0), Box((-1.0, 0.0), (1.0, 0.5)),
             Polytope(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)),
                      (1.0, 1.0, 1.0, 1.0)),
             LinearImage(((1.0, 1.0), (0.0, 1.0)), Box((-1.0, -1.0), (1.0, 1.0)))]
    for base in bases:
        data = base_to_dict(base)
        assert base_to_dict(base_from_dict(data)) == data


def test_support_functions():
    ball = EuclideanBall((0.5, 0.0), 2.0)
    d = np.array([0.6, 0.8])
    assert base_support(ball, d) == pytest.approx(0.5 * 0.6 + 2.0)
    box = Box((-1.0, -2.0), (3.0, 4.0))
    assert base_support(box, [1.0, 0.0]) == pytest.approx(3.0)
    assert base_support(box, [-1.0, -1.0]) == pytest.approx(1.0 + 2.0)
    # polytope support (LP) against the same box as H-representation
    poly = to_polytope(box)
    gen = np.random.default_rng(0)
    for _ in range(10):
        d = gen.normal(size=2)
        assert base_support(poly, d) == pytest.approx(base_support(box, d), abs=1e-9)


def test_linear_image_base():
    box = Box((-1.0, -1.0), (1.0, 1.0))
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    sheared = LinearImage(((1.0, 1.0), (0.0, 1.0)), box)
    verts = [np.array([sx, sy]) for sx in (-1, 1) for sy in (-1, 1)]
    gen = np.random.default_rng(1)
    for _ in range(20):
        d = gen.normal(size=2)
        want = max(float(np.dot(d, a @ v)) for v in verts)
        assert base_support(sheared, d) == pytest.approx(want, abs=1e-12)
    assert base_membership(sheared, a @ np.array([0.3, -0.2]))
    assert not base_membership(sheared, a @ np.array([1.2, 0.0]))
    assert base_margin(sheared, a @ np.array([0.0, 0.0])) > 0.0


def test_support_rows_are_independent():
    # a batch's supports equal the one-row supports bit for bit, so a pair's
    # slab bound never depends on the other pairs of its batch
    bases = [EuclideanBall((0.3, -1.7, 0.9), 1.3),
             LinearImage(((1.0, 0.4, 0.0), (0.2, 1.5, -0.3), (0.0, 0.7, 0.9)),
                         EuclideanBall((0.1, 0.2, -0.4), 0.8)),
             LinearImage(((1.0, 1.0, 0.0), (0.0, 1.0, 0.0), (0.3, 0.0, 2.0)),
                         Box((-1.0, -1.0, 0.0), (1.0, 2.0, 0.5)))]
    dirs = np.random.default_rng(2).normal(size=(37, 3))
    for base in bases:
        stacked = base.support(dirs)
        assert [float(x) for x in stacked] == [base_support(base, d) for d in dirs]
        assert [float(x) for x in base.support(dirs[5:9])] == [float(x) for x in stacked[5:9]]


def test_chord_interval():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    lo, hi = chord_interval(ball, [0.0, 0.0], [1.0, 0.0])
    assert (lo, hi) == pytest.approx((-1.0, 1.0))
    box = Box((-1.0, -0.5), (1.0, 0.5))
    lo, hi = chord_interval(box, [0.0, 0.0], [1.0, 1.0])
    assert (lo, hi) == pytest.approx((-0.5, 0.5))


def test_to_polytope_outer_approximation():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    poly = to_polytope(ball, facets_per_pair=64)
    gen = np.random.default_rng(2)
    for _ in range(50):
        x = gen.normal(size=2)
        x = 0.99 * x / np.linalg.norm(x) * gen.uniform(0, 1) ** 0.5
        if base_membership(ball, x):
            assert base_membership(poly, x)


def test_dim():
    assert dim(UnitDisc()) == 1
    assert dim(UnitBall(3)) == 3
    assert dim(TubeOverBase(EuclideanBall((0.0, 0.0), 1.0))) == 2


def test_base_reference_interior():
    bases = [EuclideanBall((0.5, -0.25), 2.0), Box((-1.0, 0.0), (1.0, 0.5)),
             Polytope(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)),
                      (1.0, 1.0, 1.0, 1.0))]
    for base in bases:
        assert base_membership(base, base_reference(base))


def test_polytope_center_is_solved_once(monkeypatch):
    import scipy.optimize

    calls = []
    linprog = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    # offsets no other test uses, so the center is not cached yet
    poly = Polytope(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)), (0.7, 0.3, 0.9, 0.1))
    first = poly.reference()
    first[0] = 99.0    # a caller's copy: the cached center is unchanged
    assert poly.reference() == pytest.approx([0.2, 0.4])
    ReinhardtLog(poly).project(np.exp(np.array([0.5, 0.6])).astype(complex))
    assert len(calls) <= 1


def test_polytope_support_from_vertices(monkeypatch):
    import scipy.optimize

    # a hexagon no other test uses, so neither its center nor its vertices are cached yet
    angles = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False) + 0.3
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    offsets = np.array([1.0, 1.2, 0.9, 1.1, 1.3, 0.8])
    poly = Polytope(tuple(map(tuple, normals)), tuple(offsets))
    dirs = np.random.default_rng(3).normal(size=(20, 2))
    # the reference: one LP per direction
    want = [-scipy.optimize.linprog(-d, A_ub=normals, b_ub=offsets, bounds=[(None, None)] * 2,
                                    method="highs").fun for d in dirs]
    calls = []
    linprog = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    for _ in range(3):
        assert poly.support(dirs) == pytest.approx(want, abs=1e-12)
    assert [base_support(poly, d) for d in dirs] == [float(h) for h in poly.support(dirs)]
    assert len(calls) <= 1
    interval = Polytope(((2.0,), (-1.0,)), (1.0, 0.5))
    assert interval.support(np.array([[1.0], [-3.0]])) == pytest.approx([0.5, 1.5])


@pytest.mark.parametrize("normals,offsets", [
    (((1.0, 0.0), (-1.0, 0.0)), (1.0, 1.0)),                           # a strip
    (((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)), (1.0, 1.0, 1.0)),          # a half-strip
    (((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)), (1.0, 1.0, 1.5)),           # a cut quadrant
    (((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)),
     (1.0, 1.0, 1.0, 1.0, 1.0)),                                       # a half-prism
    (((1.0,),), (1.0,)),                                               # a 1-d half-line
    (((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)), (1.0, -2.0, 1.0, 1.0)),  # empty
])
def test_unbounded_or_empty_polytope_support_rejected(normals, offsets):
    with pytest.raises(DomainError):
        Polytope(normals, offsets).support(np.eye(len(normals[0])))


@pytest.mark.parametrize("normals,offsets,message", [
    (((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)), (1.0, 1.0, 1.5), "polytope is unbounded"),
    (((1.0,),), (1.0,), "polytope is unbounded"),
    (((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)), (1.0, -2.0, 1.0, 1.0),
     "polytope has empty interior"),
    (((1.0,), (-1.0,)), (0.0, 0.0), "polytope has empty interior"),
])
def test_polytope_without_a_bounded_interior_says_why(normals, offsets, message):
    # an unbounded inradius is told apart from an infeasible or flat polytope
    poly = Polytope(normals, offsets)
    for call in (poly.reference, lambda: poly.support(np.eye(poly.dim))):
        with pytest.raises(DomainError, match=message):
            call()


def test_unbounded_polytope_exits_2(capsys):
    from kobalab.cli import main

    base = {"kind": "polytope", "normals": [[1, 0], [0, 1], [1, 1]], "offsets": [1, 1, 1.5]}
    domain = json.dumps({"kind": "reinhardt-log", "base": base})
    assert main(["dist", "--domain", domain, "--z", "[[1, 0], [1, 0]]",
                 "--w", "[[0.5, 0], [1, 0]]"]) == 2
    assert capsys.readouterr().err == "config error: polytope is unbounded\n"


# grids built by columns against the per-point builders --------------------------

def _reference_halton(count, dim, skip):
    from kobalab._sampling import _PRIMES, halton_value

    return np.array([[halton_value(k + 1 + skip, _PRIMES[j]) for j in range(dim)]
                     for k in range(count)]).reshape(count, dim)


@pytest.mark.parametrize("skip", [0, 7, 20, 1020, 99_999])
def test_halton_columns_equal_the_per_value_loop(skip):
    from kobalab._sampling import halton

    for dim in range(1, 17):
        for count in (0, 1, 37):
            got = halton(count, dim, skip)
            assert got.shape == (count, dim)
            assert got.tobytes() == _reference_halton(count, dim, skip).tobytes()


def _reference_grid(domain, count, skip):
    """The kinds' grids as the per-point builders made them."""
    from kobalab._sampling import ball_points, halton

    if isinstance(domain, UnitBall):
        return [np.asarray(p) for p in ball_points(count, domain.dim, radius=0.9)]
    n = dim(domain)
    cube = halton(count, 2 * n + 1 if isinstance(domain, ReinhardtLog) else 2, skip=skip)
    pts = []
    for k in range(count):
        if isinstance(domain, (UnitDisc, PuncturedDisc)):
            inner = 0.05 if isinstance(domain, PuncturedDisc) else 0.0
            r = inner + (0.95 - inner) * cube[k, 0]
            th = 2.0 * math.pi * cube[k, 1]
            pts.append(np.array([r * complex(math.cos(th), math.sin(th))]))
        elif isinstance(domain, Annulus):
            a = math.log(domain.R)
            pts.append(np.array([math.exp(a * (2.0 * cube[k, 0] - 1.0) * 0.95)
                                 * complex(math.cos(2.0 * math.pi * cube[k, 1]),
                                           math.sin(2.0 * math.pi * cube[k, 1]))]))
        elif isinstance(domain, Strip):
            a = domain.halfwidth
            pts.append(np.array([complex(a * (2.0 * cube[k, 0] - 1.0) * 0.95,
                                         4.0 * (2.0 * cube[k, 1] - 1.0))]))
        else:
            ref = base_reference(domain.base)
            direction = cube[k, :n] - 0.5
            norm = float(np.linalg.norm(direction))
            if norm < 1e-12:
                direction, norm = np.eye(n)[0], 1.0
            direction = direction / norm
            lo, hi = chord_interval(domain.base, ref, direction)
            u = ref + (0.9 * cube[k, 2 * n] * hi) * direction
            pts.append(np.exp(u) * np.exp(1j * 2.0 * math.pi * cube[k, n:2 * n]))
    return pts


def _grid_rows(domain, count, skip):
    got = domain.grid(count, skip)
    assert isinstance(got, np.ndarray) and got.shape == (count, dim(domain))
    assert got.dtype == complex
    return got


@pytest.mark.parametrize("domain", [PuncturedDisc(), UnitDisc(), Strip(4.0), Strip(1.5),
                                    Annulus(4.0), Annulus(1.2), UnitBall(2), UnitBall(3)],
                         ids=repr)
def test_grid_columns_equal_the_per_point_builders(domain):
    for skip in (20, 1020, 2020, 3):
        for count in (1, 256):
            got = _grid_rows(domain, count, skip)
            assert got.tobytes() == np.array(_reference_grid(domain, count, skip)).tobytes()
    _grid_rows(domain, 0, 20)


@pytest.mark.parametrize("base", [EuclideanBall((0.0, 0.0), 1.0),
                                  EuclideanBall((0.1, 0.0, -0.2), 0.8),
                                  Box((-1.0, -0.5), (1.0, 0.5)), ALL_BASES[3], ALL_BASES[5]],
                         ids=repr)
def test_reinhardt_grid_moves_by_rounding_only(base):
    # the direction norms are summed column by column, where np.linalg.norm
    # takes a BLAS dot product: the two differ in the last bit on some rows
    domain = ReinhardtLog(base)
    for skip in (20, 1020, 2020):
        got = _grid_rows(domain, 256, skip)
        want = np.array(_reference_grid(domain, 256, skip))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15
        assert domain.contains(got).all()


def _rowdot_rows(gen, count: int, n: int, complex_a: bool) -> tuple:
    """count rows of n entries each for a and b: signed zeros, and signed
    magnitudes from 1e-150 to 1e150, so that the order of the sum shows in
    the last bit (and no product over- or underflows)."""
    def entries():
        mag = 10.0 ** gen.uniform(-150.0, 150.0, (count, n)) * gen.choice([-1.0, 1.0], (count, n))
        return np.where(gen.random((count, n)) < 0.2, gen.choice([-0.0, 0.0], (count, n)), mag)
    a = entries() + 1j * entries() if complex_a else entries()
    return a, entries()


@pytest.mark.parametrize("complex_a", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rowdot_is_the_sequential_sum_of_each_row(n, complex_a):
    # ((a_0 b_0 + a_1 b_1) + a_2 b_2) + ..., as Python's own arithmetic
    # rounds it (a real b multiplies a complex a as b + 0j), signed zeros
    # included; and a row's value, compared by its bytes, is the same alone,
    # beside one other row and among 200
    gen = np.random.default_rng(100 * n + complex_a)
    a, b = _rowdot_rows(gen, 201, n, complex_a)
    kind = complex if complex_a else float
    want = []
    for row_a, row_b in zip(a.tolist(), b.tolist()):
        total = kind(row_a[0]) * kind(row_b[0])
        for x, y in zip(row_a[1:], row_b[1:]):
            total = total + kind(x) * kind(y)
        want.append(total)
    got = domains.rowdot(a, b)
    assert np.array(want).tobytes() == got.tobytes()
    for k in (0, 100, 200):
        assert domains.rowdot(a[k:k + 1], b[k:k + 1]).tobytes() == got[k:k + 1].tobytes()
        assert domains.rowdot(a[k], b[k]).tobytes() == got[k].tobytes()
    assert domains.rowdot(a[:2], b[:2]).tobytes() == got[:2].tobytes()
