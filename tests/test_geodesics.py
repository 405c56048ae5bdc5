import math

import numpy as np
import pytest

from kobalab import (AntipodalPair, Box, EuclideanBall,
                     ReinhardtLog, Strip, UnitBall, UnitDisc, antipodal_family,
                     antipodal_geodesic, ball_complex_geodesic, ball_geodesic_segment,
                     ball_landing_family, ball_landing_ray, distance, exp_strip_cover,
                     exp_tube_cover, hyperbolic_length, landing_point, lift_geodesic,
                     power_map, radial_family, shadowing_bound, strip_crossing_family,
                     strip_crossing_geodesic, strip_vertical_line, to_arc_length)
from kobalab import closed_forms as cf
from kobalab.geodesics import GeodesicError, annulus_radial_geodesic, disc_radial_geodesic

GEN = np.random.default_rng(21)


def test_ball_segment_radial():
    g = ball_geodesic_segment(1, [0.0], [0.6])
    assert g.interval.b == pytest.approx(math.atanh(0.6), abs=1e-14)
    for t in (0.1, 0.3):
        assert g.sample(t)[0] == pytest.approx(math.tanh(t), abs=1e-14)


def test_ball_segment_degenerate():
    g = ball_geodesic_segment(2, [0.1, 0.2], [0.1, 0.2])
    assert g.interval.b == 0.0
    assert np.allclose(g.sample(0.0), [0.1, 0.2])


def test_ball_segment_slice_reduction():
    # both endpoints in {z_2 = 0}: the segment stays in the slice
    g = ball_geodesic_segment(2, [0.0, 0.0], [0.7, 0.0])
    for t in np.linspace(0.0, g.interval.b, 9):
        assert abs(g.sample(float(t))[1]) < 1e-14


def test_arc_length_law_ball():
    for _ in range(8):
        z = GEN.normal(size=2) * 0.4 + 1j * GEN.normal(size=2) * 0.3
        w = GEN.normal(size=2) * 0.4 + 1j * GEN.normal(size=2) * 0.3
        if np.sum(np.abs(z) ** 2) >= 1 or np.sum(np.abs(w) ** 2) >= 1 or np.allclose(z, w):
            continue
        g = ball_geodesic_segment(2, z, w)
        t_end = g.interval.b
        for _ in range(6):
            s, t = sorted(GEN.uniform(0.0, t_end, 2))
            d = distance(UnitBall(2), g.sample(s), g.sample(t)).value
            assert abs(d - (t - s)) < 1e-6


def test_geodesic_defining_identity():
    g = ball_geodesic_segment(3, [0.1, 0.2j, -0.1], [0.3, -0.2, 0.4j])
    length = hyperbolic_length(UnitBall(3), g, 0.1, 0.7)
    dist = distance(UnitBall(3), g.sample(0.1), g.sample(0.7)).value
    assert abs(length - dist) < 2e-6


def test_landing_ray_examples():
    g = ball_landing_ray(1, [0.0], [1.0])
    for t in (0.5, 2.0, 5.0):
        assert g.sample(t)[0] == pytest.approx(math.tanh(t), abs=1e-14)
    g2 = ball_landing_ray(2, [0.0, 0.0], [1.0, 0.0])
    assert np.allclose(g2.sample(3.0), [math.tanh(3.0), 0.0], atol=1e-14)
    g3 = ball_landing_ray(2, [0.0, 0.5], [1.0, 0.0])
    assert np.abs(g3.sample(20.0) - np.array([1.0, 0.0])).max() < 1e-6
    s, t = 0.7, 2.9
    d = distance(UnitBall(2), g3.sample(s), g3.sample(t)).value
    assert abs(d - (t - s)) < 1e-6


def test_complex_geodesic_slice():
    phi = ball_complex_geodesic(2, [0.0, 0.0], [1.0, 0.0])
    for zeta in (0.3 + 0.2j, -0.5j, 0.9):
        assert np.allclose(phi(zeta), [zeta, 0.0], atol=1e-14)


def test_complex_geodesic_isometry():
    phi = ball_complex_geodesic(2, [0.0, 0.5], [1.0, 0.0])
    for _ in range(20):
        z1 = GEN.uniform(-0.7, 0.7) + 1j * GEN.uniform(-0.7, 0.7)
        z2 = GEN.uniform(-0.7, 0.7) + 1j * GEN.uniform(-0.7, 0.7)
        if abs(z1) >= 1 or abs(z2) >= 1:
            continue
        d_disc = cf.disc_distance(z1, z2)
        d_ball = cf.ball_distance(phi(z1), phi(z2))
        assert abs(d_disc - d_ball) < 1e-9


def test_strip_crossing_is_geodesic():
    g = strip_crossing_geodesic(4.0, 0.7)
    dom = Strip(4.0)
    length = hyperbolic_length(dom, g, -0.5, 0.9)
    dist = distance(dom, g.sample(-0.5), g.sample(0.9)).value
    assert abs(length - dist) < 2e-6
    # arc-length law after reparametrization
    ga = to_arc_length(g)
    for s, t in [(-0.4, 0.9), (0.0, 1.1)]:
        d = distance(dom, ga.sample(s), ga.sample(t)).value
        assert abs(d - (t - s)) < 1e-6


def test_strip_vertical_line_midline_only():
    dom = Strip(math.e)
    mid = strip_vertical_line(math.e, 0.0)
    assert mid.sample(1.5)[0] == pytest.approx(1.5j)
    # the midline is a genuine geodesic
    length = hyperbolic_length(dom, mid, 0.0, 1.0)
    dist = distance(dom, mid.sample(0.0), mid.sample(1.0)).value
    assert abs(length - dist) < 2e-6
    # off the midline the vertical is an equidistant curve, not a geodesic
    off = strip_vertical_line(math.e, 0.5)
    length = hyperbolic_length(dom, off, 0.0, 1.0)
    dist = distance(dom, off.sample(0.0), off.sample(1.0)).value
    assert length > dist + 1e-3
    with pytest.raises(GeodesicError):
        strip_vertical_line(math.e, 1.5)


def test_crossing_maps_to_annulus_radial():
    g = strip_crossing_geodesic(4.0, 0.7)
    for t in np.linspace(-1.2, 1.2, 7):
        img = np.exp(g.sample(float(t)))
        want = annulus_radial_geodesic(4.0, 0.7).sample(float(t))
        assert np.allclose(img, want, atol=1e-14)


def test_antipodal_examples():
    # interval base (n = 1): t -> R^t, the positive radial geodesic of A_R
    R = 4.0
    a = math.log(R)
    interval = Box((-a,), (a,))
    pair = AntipodalPair(interval, (a,), (-a,))
    g = antipodal_geodesic(interval, pair)
    for t in (-0.5, 0.0, 0.8):
        assert g.sample(t)[0] == pytest.approx(R ** t, rel=1e-12)
    # log-midpoint at t = 0
    ball = EuclideanBall((0.0, 0.0), 1.0)
    pair2 = AntipodalPair(ball, (1.0, 0.0), (-1.0, 0.0))
    g2 = antipodal_geodesic(ball, pair2)
    assert np.allclose(g2.sample(0.0), np.exp([0.0, 0.0]), atol=1e-14)
    for t in (-0.3, 0.6):
        assert np.allclose(g2.sample(t), [math.exp(t), 1.0], atol=1e-12)


def test_antipodal_pair_validation():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    with pytest.raises(GeodesicError):
        AntipodalPair(ball, (1.0, 0.0), (0.0, -1.0))
    with pytest.raises(GeodesicError):
        AntipodalPair(ball, (1.0, 0.0), (1.0, 0.0))


def test_antipodal_geodesic_identity():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    pair = AntipodalPair(ball, (1.0, 0.0), (-1.0, 0.0))
    g = antipodal_geodesic(ball, pair)
    dom = ReinhardtLog(ball)
    d = distance(dom, g.sample(-0.5), g.sample(0.7))
    length = hyperbolic_length(dom, g, -0.5, 0.7)
    assert abs(length - d.value) < 2e-6 + d.gap


def test_lift_power_map_branch():
    f = power_map(2)
    curve = disc_radial_geodesic(1.0)
    lift = lift_geodesic(f, curve, [math.sqrt(0.5)])
    for t in (0.1, 0.25, 0.7, 0.9):
        assert abs(lift.sample(t)[0] - math.sqrt(t)) < 1e-10
        back = lift.sample(t)[0] ** 2
        assert abs(back - curve.sample(t)[0]) < 1e-10


def test_lift_exp_cover_horizontal():
    f = exp_strip_cover(4.0)
    curve = annulus_radial_geodesic(4.0, phase=0.9)
    lift = lift_geodesic(f, curve, [0.0 + 0.9j])
    for t in (-1.0, -0.2, 0.5, 1.2):
        assert np.abs(np.exp(lift.sample(t)) - curve.sample(t)).max() < 1e-10
    # the lift is a geodesic of the cover: defining identity holds
    dom = Strip(4.0)
    length = hyperbolic_length(dom, lift, -0.5, 0.8)
    dist = distance(dom, lift.sample(-0.5), lift.sample(0.8)).value
    assert abs(length - dist) < 2e-6


def test_lift_constant_curve():
    f = exp_tube_cover(EuclideanBall((0.0, 0.0), 1.0))
    from kobalab.geodesics import GeodesicCurve, Segment

    const = GeodesicCurve(ReinhardtLog(EuclideanBall((0.0, 0.0), 1.0)),
                          Segment(0.0, 1.0), "affine",
                          lambda t: np.array([1.1 + 0j, 0.9 + 0j]), None)
    pre = np.log(np.array([1.1, 0.9])).astype(complex)
    lift = lift_geodesic(f, const, pre)
    assert np.abs(lift.sample(0.7) - pre).max() < 1e-12


def test_lift_rejects_wrong_preimage():
    f = power_map(2)
    curve = disc_radial_geodesic(1.0)
    with pytest.raises(GeodesicError):
        lift_geodesic(f, curve, [0.9])


def test_landing_point_examples():
    ray = ball_landing_ray(1, [0.0], [1.0])
    bp, res = landing_point(ray, horizon=20.0)
    assert abs(bp.as_array()[0] - 1.0) < 1e-9
    assert res < 1e-8
    ray2 = ball_landing_ray(2, [0.0, 0.5], [1.0, 0.0])
    bp2, _ = landing_point(ray2, horizon=20.0)
    assert np.abs(bp2.as_array() - np.array([1.0, 0.0])).max() < 1e-6
    radial = annulus_radial_geodesic(4.0, phase=0.3)
    bp3, res3 = landing_point(radial)
    assert abs(abs(bp3.as_array()[0]) - 4.0) < 1e-9
    assert res3 < 1e-4
    with pytest.raises(GeodesicError):
        landing_point(strip_crossing_geodesic(4.0, 0.0))


def test_shadowing_bound():
    g1 = ball_landing_ray(1, [0.0], [1.0])
    sb = shadowing_bound(UnitDisc(), g1, g1)
    assert sb["bound"] == 0.0
    g2 = ball_landing_ray(1, [0.5j], [1.0])
    sb2 = shadowing_bound(UnitDisc(), g1, g2)
    assert 0.0 < sb2["bound"] < math.inf
    assert sb2["tail_nonincreasing"]
    g3 = ball_landing_ray(1, [0.0], [-1.0])
    with pytest.raises(GeodesicError):
        shadowing_bound(UnitDisc(), g1, g3)


def test_family_completeness_locators():
    # each locator takes (N, n) rows; here one row each
    fam = radial_family(8)
    z = np.array([[0.4 * np.exp(0.77j)]])
    ts, hits = fam.member_through(z)
    assert ts.shape == (1,) and np.abs(hits - z).max() < 1e-12

    fam2 = strip_crossing_family(4.0)
    z2 = np.array([[0.3 + 2.2j]])
    ts, hits = fam2.member_through(z2)
    assert ts.shape == (1,) and np.abs(hits - z2).max() < 1e-12

    ball = EuclideanBall((0.0, 0.0), 1.0)
    fam3 = antipodal_family(ball, 6)
    z3 = np.exp(np.array([0.2, -0.3])) * np.exp(1j * np.array([0.5, 1.1]))
    ts, hits = fam3.member_through(z3[None])
    assert ts.shape == (1,) and np.abs(hits - z3).max() < 1e-9

    fam4 = ball_landing_family(2, [1.0, 0.0])
    z4 = np.array([0.1 + 0.2j, -0.3 + 0.1j])
    ts, hits = fam4.member_through(z4[None])
    assert ts.shape == (1,) and np.abs(hits - z4).max() < 1e-9


def test_segment_family_anchor():
    fam = radial_family(4)
    assert fam.anchor == ("boundary-landing", (0.0 + 0.0j,))


def test_ball_segment_family_complete_from_interior_anchor():
    from kobalab import ball_segment_family

    p = np.array([0.2 + 0.1j, -0.1 + 0.0j])
    fam = ball_segment_family(2, p)
    assert fam.anchor[0] == "interior"
    for member in fam.members:
        assert np.abs(member.sample(0.0) - p).max() < 1e-12
    zs = np.array([[0.4 + 0.2j, 0.1 - 0.3j], [0.0 + 0.0j, 0.5 + 0.0j]])
    ts, hits = fam.member_through(zs)
    assert ts.shape == (2,) and np.abs(hits - zs).max() < 1e-9


# the row-wise locators against the per-point locators ----------------------------

def _old_radial(punctured):
    def locate(z):
        w = complex(z[0])
        return disc_radial_geodesic(w / abs(w), punctured), abs(w)
    return locate


def _old_strip_crossing(R):
    return lambda z: (strip_crossing_geodesic(R, z[0].imag), float(z[0].real))


def _old_antipodal(base):
    from kobalab.domains import base_reference, chord_interval

    def locate(z):
        u = np.log(np.abs(z))
        ref = base_reference(base)
        rel = u - ref
        norm = float(np.linalg.norm(rel))
        if norm < 1e-13:
            rel, norm = np.eye(len(z))[0], 1.0
        d = rel / norm
        x = ref + chord_interval(base, ref, d)[1] * d
        y = ref + chord_interval(base, ref, -d)[1] * -d
        curve = antipodal_geodesic(base, AntipodalPair(base, tuple(x), tuple(y)),
                                   tuple(np.angle(z)))
        half = 0.5 * (x - y)
        return curve, float(np.dot(u - 0.5 * (x + y), half) / np.dot(half, half))
    return locate


def _old_segment(dim, p):
    def locate(z):
        seg = ball_geodesic_segment(dim, p, z)
        return seg, seg.interval.b
    return locate


def _old_landing(dim, p):
    return lambda z: (ball_landing_ray(dim, z, p), 0.0)


def _locator_cases():
    from kobalab import PuncturedDisc, ball_segment_family
    from kobalab.checker import quasirandom_grid

    ball = EuclideanBall((0.0, 0.0), 1.0)
    ball3 = EuclideanBall((0.1, 0.0, -0.2), 0.8)
    box = Box((-1.0, -0.5), (1.0, 0.5))
    p = np.array([0.2 + 0.1j, -0.1 + 0.0j])
    landing3 = np.array([0.0, 1j, 0.0])
    return [
        (radial_family(8), _old_radial(True), quasirandom_grid(PuncturedDisc(), 64)),
        (radial_family(8, punctured=False), _old_radial(False), quasirandom_grid(UnitDisc(), 64)),
        (strip_crossing_family(4.0), _old_strip_crossing(4.0), quasirandom_grid(Strip(4.0), 64)),
        (antipodal_family(ball, 20), _old_antipodal(ball), quasirandom_grid(ReinhardtLog(ball), 64)),
        (antipodal_family(ball3, 20), _old_antipodal(ball3),
         quasirandom_grid(ReinhardtLog(ball3), 64)),
        (antipodal_family(box, 8), _old_antipodal(box), quasirandom_grid(ReinhardtLog(box), 64)),
        (ball_segment_family(2, p), _old_segment(2, p),
         np.vstack([quasirandom_grid(UnitBall(2), 64), p])),
        (ball_landing_family(2, [1.0, 0.0]), _old_landing(2, np.array([1.0, 0.0])),
         quasirandom_grid(UnitBall(2), 64)),
        (ball_landing_family(3, landing3), _old_landing(3, landing3),
         quasirandom_grid(UnitBall(3), 64)),
    ]


@pytest.mark.parametrize("k", range(len(_locator_cases())),
                         ids=["radial", "radial-unit-disc", "strip-crossing", "antipodal-ball",
                              "antipodal-ball-3d", "antipodal-box", "ball-segment",
                              "ball-landing", "ball-landing-3d"])
def test_row_locator_equals_the_per_point_locator(k):
    family, locate, rows = _locator_cases()[k]
    ts, hits = family.member_through(rows)
    assert ts.shape == (len(rows),) and hits.shape == rows.shape
    for z, t, hit in zip(rows, ts, hits):
        curve, want = locate(z)
        assert abs(t - want) <= 1e-12
        assert np.abs(hit - curve.sample(float(t))).max() <= 1e-12


def test_row_antipodal_certificate_equals_the_pairs_normals():
    from kobalab.geodesics import _antipodal_normals

    box = Box((-1.0, -0.5), (1.0, 0.5))
    xs = np.array([[1.0, 0.2], [0.4, 0.5], [1.0, -0.3], [-0.6, 0.5], [1.0, 0.5]])
    ys = np.array([[-1.0, -0.1], [-0.2, -0.5], [-1.0, 0.4], [0.1, -0.5], [-1.0, -0.5]])
    normals = _antipodal_normals(box, xs, ys)
    for x, y, d in zip(xs, ys, normals):
        assert np.abs(np.array(AntipodalPair(box, tuple(x), tuple(y)).normal) - d).max() <= 1e-15
    # one row that no candidate certifies, or one whose points coincide, fails the batch
    with pytest.raises(GeodesicError, match="no common supporting normal found"):
        _antipodal_normals(box, np.vstack([xs, [1.0, 0.2]]), np.vstack([ys, [0.0, -0.5]]))
    with pytest.raises(GeodesicError, match="antipodal points must differ"):
        _antipodal_normals(box, np.vstack([xs, [1.0, 0.2]]), np.vstack([ys, [1.0, 0.2]]))
