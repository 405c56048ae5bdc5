import cmath
import math
import typing

import numpy as np
import pytest

from kobalab import (Annulus, EuclideanBall, IntegerMatrix, PuncturedDisc, Strip,
                     antipodal_image_check, apply_map, ball_mobius_map, compose_maps,
                     deck_preimages, distance, exp_strip_cover,
                     exp_tube_cover, identity_map, infinitesimal_metric, log_image,
                     map_differential, monomial_apply, monomial_map, monomial_power,
                     monomial_preimages, power_map)
from kobalab import closed_forms as cf
from kobalab import coverings
from kobalab.coverings import CoveringError, HolomorphicMap, map_from_dict, map_to_dict
from kobalab.domains import Box, DomainError, LinearImage, base_support
from kobalab.geodesics import AntipodalPair
from kobalab.smith import smith_normal_form, snf_determinant

GEN = np.random.default_rng(41)
BALL = EuclideanBall((0.0, 0.0), 1.0)

# (map, audit label, an interior point of its source), one row per kind
ALL_MAPS = [
    (power_map(3), "power-3", [0.5 + 0.2j]),
    (exp_strip_cover(4.0), "exp-cover", [0.3 + 0.7j]),
    (exp_tube_cover(BALL), "exp-cover", [0.2 - 1.0j, -0.3 + 2.0j]),
    (monomial_map(((2, 1), (0, 1)), BALL), "monomial-det2", [0.8 + 0.3j, 0.5 - 0.6j]),
    (ball_mobius_map(0.4, 2), "ballmobius", [0.2 + 0.1j, -0.3j]),
    (identity_map(PuncturedDisc()), "identity", [0.4j]),
    (compose_maps(power_map(2), power_map(3)), "compose", [0.5 + 0.1j]),
]


def test_every_map_kind_is_in_the_codec():
    kinds = set(typing.get_args(HolomorphicMap))
    assert set(coverings._MapKind.__subclasses__()) == kinds
    assert set(coverings._MAP_KINDS.values()) == kinds
    assert len(coverings._MAP_KINDS) == len(kinds)
    assert {type(f) for f, _, _ in ALL_MAPS} == kinds


@pytest.mark.parametrize("f,label,z", ALL_MAPS,
                         ids=[f"{label}-{f.source.kind}" for f, label, _ in ALL_MAPS])
def test_map_kind_definition_is_complete(f, label, z, validate_schema):
    data = map_to_dict(f)
    validate_schema("map.json", data)
    assert map_from_dict(data) == f
    assert map_to_dict(map_from_dict(data)) == data
    assert f.label == label
    z = np.asarray(z, dtype=complex)
    v = np.linspace(1.0, 2.0, z.size) * (1.0 - 0.5j)
    h = 1e-6
    central = (apply_map(f, z + h * v) - apply_map(f, z - h * v)) / (2.0 * h)
    assert np.allclose(map_differential(f, z, v), central, rtol=1e-8, atol=1e-8)


def test_monomial_power_examples():
    assert monomial_power([2.0, 3.0], (1, 1)) == pytest.approx(6.0)
    assert monomial_power([2.0, 3.0], (0, 0)) == pytest.approx(1.0)
    assert monomial_power([1j, 2.0], (2, -1)) == pytest.approx(-0.5)
    with pytest.raises(CoveringError):
        monomial_power([0.0, 1.0], (-1, 0))


def test_monomial_apply():
    two_i = IntegerMatrix(((2, 0), (0, 2)))
    z = np.array([0.5 + 0.5j, -0.3 + 0.1j])
    assert np.allclose(monomial_apply(two_i, z), z ** 2)
    ident = IntegerMatrix(((1, 0), (0, 1)))
    assert np.allclose(monomial_apply(ident, z), z)


def test_log_moduli_linearity():
    a = IntegerMatrix(((1, 1), (0, 2)))
    for _ in range(20):
        z = np.exp(GEN.uniform(-1, 1, 2)) * np.exp(1j * GEN.uniform(0, 2 * math.pi, 2))
        img = monomial_apply(a, z)
        want = a.as_array() @ np.log(np.abs(z))
        assert np.allclose(np.log(np.abs(img)), want, atol=1e-12)


def test_monomial_preimages_examples():
    two_i = IntegerMatrix(((2, 0), (0, 2)))
    fiber = monomial_preimages(two_i, [1.0, 1.0])
    assert len(fiber) == 4
    got = sorted((round(p[0].real), round(p[1].real)) for p in fiber)
    assert got == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    ident = IntegerMatrix(((1, 0), (0, 1)))
    w = np.array([0.3 + 0.4j, -1.2 + 0.1j])
    fiber = monomial_preimages(ident, w)
    assert len(fiber) == 1 and np.allclose(fiber[0], w)

    a = IntegerMatrix(((1, 1), (0, 2)))
    w = np.exp(GEN.normal(size=2) * 0.3 + 1j * GEN.uniform(0, 2 * math.pi, 2))
    fiber = monomial_preimages(a, w)
    assert len(fiber) == abs(a.det) == 2
    for p in fiber:
        assert np.abs(monomial_apply(a, p) - w).max() < 1e-10


def test_preimage_cardinality_random_matrices():
    mats = [((2, 1), (1, 2)), ((3, 0), (1, 2)), ((1, -1), (2, 3)), ((-2, 0), (0, 1))]
    for rows in mats:
        a = IntegerMatrix(rows)
        w = np.exp(GEN.normal(size=2) * 0.2 + 1j * GEN.uniform(0, 2 * math.pi, 2))
        fiber = monomial_preimages(a, w)
        assert len(fiber) == abs(a.det)
        # distinct points
        for i in range(len(fiber)):
            for j in range(i + 1, len(fiber)):
                assert np.abs(fiber[i] - fiber[j]).max() > 1e-8


def test_preimage_errors():
    with pytest.raises(CoveringError):
        IntegerMatrix(((1, 1), (1, 1))) and monomial_preimages(IntegerMatrix(((1, 1), (1, 1))), [1.0, 1.0])
    with pytest.raises(CoveringError):
        monomial_preimages(IntegerMatrix(((2, 0), (0, 2))), [0.0, 1.0])


@pytest.mark.parametrize("rows", [((2,),), ((3,),), ((2, 0), (0, 2)), ((2, 1), (0, 2)),
                                  ((1, -1), (2, 3)), ((-2, 0), (0, 1)),
                                  ((2, 0, 0), (0, 2, 0), (1, 0, 2))], ids=str)
def test_preimage_rows_equal_one_point_fibers(rows):
    a = IntegerMatrix(rows)
    n, det = a.n, abs(a.det)
    ws = np.exp(GEN.normal(size=(20, n)) * 0.4 + 1j * GEN.uniform(0, 2 * math.pi, (20, n)))
    fibers = monomial_preimages(a, ws)
    assert fibers.shape == (20, det, n)
    for w, fiber in zip(ws, fibers):
        one = monomial_preimages(a, w)
        assert isinstance(one, list) and len(one) == det
        assert np.abs(fiber - np.array(one)).max() <= 1e-15
    assert monomial_preimages(a, np.empty((0, n))).shape == (0, det, n)


def test_preimage_rows_refuse_what_one_point_refuses():
    a = IntegerMatrix(((2, 0), (0, 2)))
    ws = np.array([[1.0, 1.0], [0.5j, 2.0]])
    for bad, error, message in [([0.0, 1.0], CoveringError, r"preimages need w in C_\*\^n"),
                                ([1.0, 2.0, 3.0], CoveringError, "dimension mismatch"),
                                ([np.nan, 1.0], DomainError, "non-finite")]:
        batch = np.vstack([ws, bad]) if len(bad) == a.n else np.array([bad, bad])
        for w in (bad, batch):
            with pytest.raises(error, match=message):
                monomial_preimages(a, w)


def test_apply_map_examples():
    f = exp_tube_cover(EuclideanBall((0.0, 0.0), 1.0))
    assert np.allclose(apply_map(f, [0.0, 0.0]), [1.0, 1.0])
    g = power_map(3)
    assert apply_map(g, [0.5])[0] == pytest.approx(0.125)
    h = exp_strip_cover(math.e)
    assert apply_map(h, [1j * math.pi])[0] == pytest.approx(-1.0, abs=1e-12)


def test_log_image():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    two_i = IntegerMatrix(((2, 0), (0, 2)))
    img = log_image(two_i, ball)
    assert isinstance(img, EuclideanBall) and img.radius == pytest.approx(2.0)
    ident = IntegerMatrix(((1, 0), (0, 1)))
    assert log_image(ident, ball) == EuclideanBall((0.0, 0.0), 1.0)
    shear = IntegerMatrix(((1, 1), (0, 1)))
    box = Box((-1.0, -1.0), (1.0, 1.0))
    img2 = log_image(shear, box)
    assert isinstance(img2, LinearImage)
    # support oracle = max over mapped vertices
    verts = [np.array([sx, sy]) for sx in (-1, 1) for sy in (-1, 1)]
    a = shear.as_array()
    for _ in range(20):
        d = GEN.normal(size=2)
        want = max(float(np.dot(d, a @ v)) for v in verts)
        assert base_support(img2, d) == pytest.approx(want, abs=1e-12)


def test_antipodal_image_check():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    pair = AntipodalPair(ball, (1.0, 0.0), (-1.0, 0.0))
    two_i = IntegerMatrix(((2, 0), (0, 2)))
    image_pair = antipodal_image_check(two_i, pair)
    assert image_pair.x == pytest.approx((2.0, 0.0))
    assert image_pair.y == pytest.approx((-2.0, 0.0))
    ident = IntegerMatrix(((1, 0), (0, 1)))
    same = antipodal_image_check(ident, pair)
    assert same.x == pair.x and same.y == pair.y
    # shear on a box pair transports the normal by the inverse transpose
    box = Box((-1.0, -1.0), (1.0, 1.0))
    box_pair = AntipodalPair(box, (1.0, 0.3), (-1.0, -0.2))
    shear = IntegerMatrix(((1, 1), (0, 1)))
    sheared = antipodal_image_check(shear, box_pair)
    d = np.asarray(sheared.normal)
    inv_t = np.linalg.inv(shear.as_array()).T @ np.asarray(box_pair.normal)
    assert np.allclose(d, inv_t / np.linalg.norm(inv_t), atol=1e-12)


def test_covering_relation_deck_scan():
    # annulus distance equals the brute-force nu-scan of strip distances
    R = 4.0
    a = math.log(R)
    for _ in range(40):
        z = math.exp(GEN.uniform(-0.9 * a, 0.9 * a)) * cmath.exp(1j * GEN.uniform(0, 2 * math.pi))
        w = math.exp(GEN.uniform(-0.9 * a, 0.9 * a)) * cmath.exp(1j * GEN.uniform(0, 2 * math.pi))
        got = distance(Annulus(R), z, w).value
        brute = min(cf.strip_distance(a, cmath.log(z), cmath.log(w) + 2j * math.pi * k)
                    for k in range(-10, 11))
        assert got == pytest.approx(brute, abs=1e-9)


def test_local_isometry_power():
    # k_target(F(z); dF v) = k_source(z; v) for the power covering
    for n in (2, 3, 5):
        f = power_map(n)
        for _ in range(20):
            r = GEN.uniform(0.1, 0.9)
            th = GEN.uniform(0, 2 * math.pi)
            z = np.array([r * cmath.exp(1j * th)])
            v = np.array([GEN.normal() + 1j * GEN.normal()])
            k_src = infinitesimal_metric(PuncturedDisc(), z, v)
            k_tgt = infinitesimal_metric(PuncturedDisc(), apply_map(f, z),
                                         map_differential(f, z, v))
            assert abs(k_src - k_tgt) < 1e-8 * max(1.0, k_src)


def test_local_isometry_exp_strip():
    R = 4.0
    f = exp_strip_cover(R)
    for _ in range(20):
        z = np.array([complex(GEN.uniform(-1.2, 1.2), GEN.uniform(-3, 3))])
        v = np.array([GEN.normal() + 1j * GEN.normal()])
        k_src = infinitesimal_metric(Strip(R), z, v)
        k_tgt = infinitesimal_metric(Annulus(R), apply_map(f, z), map_differential(f, z, v))
        assert abs(k_src - k_tgt) < 1e-8 * max(1.0, k_src)


def test_ball_mobius_metric_preservation():
    f = ball_mobius_map(0.6, 2)
    from kobalab import UnitBall

    for _ in range(20):
        g = GEN.normal(size=2) + 1j * GEN.normal(size=2)
        z = 0.8 * GEN.uniform() ** 0.25 * g / np.linalg.norm(g)
        v = GEN.normal(size=2) + 1j * GEN.normal(size=2)
        k_src = infinitesimal_metric(UnitBall(2), z, v)
        k_tgt = infinitesimal_metric(UnitBall(2), apply_map(f, z), map_differential(f, z, v))
        assert abs(k_src - k_tgt) < 1e-10 * max(1.0, k_src)


def test_schwarz_pick_contraction_sample():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    maps = [identity_map(PuncturedDisc()), power_map(2), exp_strip_cover(4.0),
            exp_tube_cover(ball), monomial_map(((2, 0), (0, 2)), ball), ball_mobius_map(0.4, 2)]
    for f in maps:
        for _ in range(25):
            z, w = _source_pair(f)
            d_src = distance(f.source, z, w)
            d_tgt = distance(f.target, apply_map(f, z), apply_map(f, w))
            assert d_tgt.lower <= d_src.upper + 1e-9


def _source_pair(f):
    from kobalab.domains import ReinhardtLog, TubeOverBase, UnitBall

    src = f.source
    if isinstance(src, PuncturedDisc):
        def pt():
            return np.array([GEN.uniform(0.05, 0.95) * cmath.exp(1j * GEN.uniform(0, 2 * math.pi))])
    elif isinstance(src, Strip):
        def pt():
            return np.array([complex(GEN.uniform(-1.2, 1.2), GEN.uniform(-3, 3))])
    elif isinstance(src, TubeOverBase):
        def pt():
            g = GEN.normal(size=2)
            g = 0.8 * GEN.uniform() ** 0.5 * g / np.linalg.norm(g)
            return g + 1j * GEN.uniform(-2, 2, 2)
    elif isinstance(src, ReinhardtLog):
        def pt():
            g = GEN.normal(size=2)
            g = 0.8 * GEN.uniform() ** 0.5 * g / np.linalg.norm(g)
            return np.exp(g) * np.exp(1j * GEN.uniform(0, 2 * math.pi, 2))
    elif isinstance(src, UnitBall):
        def pt():
            g = GEN.normal(size=src.dim) + 1j * GEN.normal(size=src.dim)
            return 0.85 * GEN.uniform() ** 0.25 * g / np.linalg.norm(g)
    else:
        raise AssertionError(src)
    return pt(), pt()


def test_compose_maps():
    f = compose_maps(power_map(2), power_map(3))
    assert apply_map(f, [0.5])[0] == pytest.approx(0.5 ** 6)
    v = map_differential(f, [0.5], [1.0])
    assert v[0] == pytest.approx(6 * 0.5 ** 5)
    with pytest.raises(CoveringError):
        compose_maps(power_map(2), exp_strip_cover(4.0))


def test_deck_preimages():
    f = power_map(3)
    w = np.array([0.3 + 0.4j])
    fiber = deck_preimages(f, w)
    assert len(fiber) == 3
    for p in fiber:
        assert abs(p[0] ** 3 - w[0]) < 1e-10
    g = exp_strip_cover(4.0)
    fiber2 = deck_preimages(g, np.array([1.5 + 0j]))
    assert len(fiber2) >= 3
    for p in fiber2:
        assert abs(np.exp(p[0]) - 1.5) < 1e-10


def test_smith_normal_form():
    mats = [((2, 0), (0, 2)), ((1, 1), (0, 2)), ((2, 1), (1, 2)), ((6, 4), (2, 8)),
            ((3,),), ((-2, 1), (4, -5))]
    for rows in mats:
        u, s, v = smith_normal_form([list(r) for r in rows])
        n = len(rows)
        a = np.asarray(rows, dtype=np.int64)
        u_arr = np.asarray(u, dtype=np.int64)
        v_arr = np.asarray(v, dtype=np.int64)
        s_arr = np.asarray(s, dtype=np.int64)
        assert np.array_equal(u_arr @ a @ v_arr, s_arr)
        assert abs(round(float(np.linalg.det(u_arr)))) == 1
        assert abs(round(float(np.linalg.det(v_arr)))) == 1
        # diagonal, nonnegative, divisibility chain
        assert np.array_equal(s_arr, np.diag(np.diag(s_arr)))
        diag = list(np.diag(s_arr))
        assert all(d >= 0 for d in diag)
        for d1, d2 in zip(diag, diag[1:]):
            if d1 != 0:
                assert d2 % d1 == 0
        assert abs(snf_determinant(s)) == abs(round(float(np.linalg.det(a))))


def test_map_serialization_round_trip():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    maps = [identity_map(PuncturedDisc()), power_map(4), exp_strip_cover(3.0),
            exp_tube_cover(ball), monomial_map(((2, 0), (0, 2)), ball),
            ball_mobius_map(0.25, 3), compose_maps(power_map(2), power_map(2))]
    for f in maps:
        data = map_to_dict(f)
        assert map_to_dict(map_from_dict(data)) == data


def test_map_constructors_check_their_fields():
    # each kind checks its descriptor's fields when it is built, not when
    # its source or target is first used
    for build in (lambda: power_map(0), lambda: ball_mobius_map(1.0, 2),
                  lambda: ball_mobius_map(0.5, 0), lambda: compose_maps(),
                  lambda: map_from_dict({"kind": "exp", "source": {"kind": "unit-disc"}})):
        with pytest.raises(CoveringError):
            build()


def test_monomial_rejects_singular():
    with pytest.raises(CoveringError):
        monomial_map(((1, 1), (1, 1)), EuclideanBall((0.0, 0.0), 1.0))


def test_monomial_rejects_malformed_exponents():
    # a fractional exponent is not truncated, a boolean is not an exponent,
    # and A must match the base dimension
    for matrix in (((1.5, 0), (0, 1)), ((True, 0), (0, 2)), ((2,),),
                   ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        with pytest.raises(CoveringError):
            monomial_map(matrix, BALL)


def test_images_that_leave_floating_point_raise():
    with pytest.raises(CoveringError, match="under- or overflows"):
        apply_map(power_map(10 ** 18), [0.5])
    with pytest.raises(CoveringError, match="under- or overflows"):
        apply_map(monomial_map(((1, 0), (0, 3000)), BALL), [0.5, 2.0])
    with pytest.raises(CoveringError, match="under- or overflows"):
        monomial_power([0.5, 1.0], (-2000, 1))
    # a zero coordinate keeps its exact zero image
    assert monomial_power([0.0, 2.0], (3000, 0)) == 0.0
    assert monomial_apply(IntegerMatrix(((2000, 0), (0, 1))), [0.0, 0.5]).tolist() == [0, 0.5]
