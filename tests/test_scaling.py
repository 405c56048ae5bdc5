import numpy as np
import pytest

from kobalab import (ScaledEllipsoid, compactly_divergent_probe, distance,
                     ellipsoid_defining_function, geodesic_persistence_probe,
                     inscribed_radius, membership, metric_convergence_probe,
                     scaled_domain_membership, scaling_automorphism, scaling_inverse)
from kobalab import closed_forms as cf
from kobalab.domains import DomainError
from kobalab.scaling import boundary_deviation_probe

GEN = np.random.default_rng(31)


def _ball_pt(n, radius=0.8):
    g = GEN.normal(size=n) + 1j * GEN.normal(size=n)
    return radius * GEN.uniform() ** (1 / (2 * n)) * g / np.linalg.norm(g)


def test_automorphism_trivia():
    t = 0.6
    assert np.allclose(scaling_automorphism(t, [0.0, 0.0]), [t, 0.0], atol=1e-15)
    assert np.allclose(scaling_automorphism(t, [1.0, 0.0]), [1.0, 0.0], atol=1e-15)
    assert np.allclose(scaling_automorphism(t, [-1.0, 0.0]), [-1.0, 0.0], atol=1e-15)


def test_inverse_round_trip():
    assert np.allclose(scaling_inverse(0.6, [0.6, 0.0]), [0.0, 0.0], atol=1e-15)
    assert np.allclose(scaling_inverse(0.6, [1.0, 0.0]), [1.0, 0.0], atol=1e-15)
    for _ in range(30):
        z = _ball_pt(2)
        t = GEN.uniform(0.0, 0.95)
        assert np.abs(scaling_automorphism(t, scaling_inverse(t, z)) - z).max() < 1e-12


def test_mobius_addition_on_axis():
    for s in (-0.4, 0.1, 0.7):
        for t in (0.0, 0.3, 0.9):
            got = scaling_automorphism(t, [s, 0.0])[0]
            assert got == pytest.approx((s + t) / (1 + s * t), abs=1e-15)


def test_automorphism_is_ball_isometry():
    for _ in range(30):
        z, w = _ball_pt(2), _ball_pt(2)
        t = GEN.uniform(0.0, 0.95)
        d1 = cf.ball_distance(z, w)
        d2 = cf.ball_distance(scaling_automorphism(t, z), scaling_automorphism(t, w))
        assert abs(d1 - d2) < 1e-12


def test_scaled_membership_examples():
    # eps = 0: membership equals unit-ball membership composed with A_t
    for t in (0.0, 0.5, 0.9):
        for _ in range(20):
            z = GEN.normal(size=2) * 0.7 + 1j * GEN.normal(size=2) * 0.7
            want = float(np.sum(np.abs(scaling_automorphism(t, z)) ** 2)) < 1.0
            assert scaled_domain_membership(0.0, t, z) == want
    # boundary fixed point is not interior
    assert not scaled_domain_membership(0.05, 0.7, [1.0, 0.0])
    # rho(A_0.9(0)) = rho((0.9, 0)) < 0
    assert scaled_domain_membership(0.1, 0.9, [0.0, 0.0])
    assert ellipsoid_defining_function(0.1, [0.9, 0.0]) < 0.0


def test_inscribed_radius_properties():
    assert inscribed_radius(0.0, 0.5, 2) == 1.0
    rads = [inscribed_radius(0.05, t, 2) for t in (0.5, 0.9, 0.99)]
    assert rads[0] < rads[1] < rads[2] < 1.0
    assert rads[2] > 0.99  # Hausdorff convergence to the ball
    # certificate: the inscribed ball really is inside Omega_t
    for t, r in zip((0.5, 0.9, 0.99), rads):
        for _ in range(40):
            z = _ball_pt(2, radius=1.0)
            z = z / np.linalg.norm(z) * (r * 0.999)
            assert scaled_domain_membership(0.05, t, z)


def test_metric_probe_eps_zero_is_exact():
    table = metric_convergence_probe(0.0, [0.5, 0.9, 0.99])
    assert table.summary()["max_deviation"] == 0.0
    for _t, _key, dev, gap in table.rows:
        assert dev == 0.0 and gap == 0.0


def test_metric_probe_single_coincident_pair():
    table = metric_convergence_probe(0.05, [0.5], grid=[np.zeros(2, complex), np.zeros(2, complex)])
    assert table.summary()["max_deviation"] == 0.0


def test_metric_probe_rows_are_distance_brackets():
    grid = [_ball_pt(2, radius=0.5) for _ in range(4)]
    table = metric_convergence_probe(0.05, [0.5, 0.9], grid=grid)
    assert len(table.rows) == 12
    for t, key, dev, gap in table.rows:
        i, j = (int(k) for k in key.split("-")[1:])
        want = distance(ScaledEllipsoid(0.05, t, 2), grid[i], grid[j]).gap
        assert gap == want and dev == 0.5 * want


def test_metric_probe_decreasing():
    table = metric_convergence_probe(0.05, [0.5, 0.9, 0.99])
    per_t = table.max_deviation_per_t()
    assert per_t[-1][1] < 1e-2
    assert table.monotone_decreasing()


def test_scaled_ellipsoid_distance_engine():
    dom = ScaledEllipsoid(0.0, 0.7, 2)
    z, w = _ball_pt(2, 0.5), _ball_pt(2, 0.5)
    exact = distance(dom, z, w)
    assert exact.method == "closed-form"
    assert exact.value == pytest.approx(cf.ball_distance(z, w), abs=1e-15)
    dom2 = ScaledEllipsoid(0.05, 0.9, 2)
    val = distance(dom2, z, w)
    assert val.method == "sandwich"
    assert val.lower <= val.upper
    assert val.lower == pytest.approx(cf.ball_distance(z, w), abs=1e-14)


def test_persistence_probe():
    table = geodesic_persistence_probe(0.0, [0.5, 0.9, 0.99], np.array([0.0, 0.5], dtype=complex))
    per_t = dict(table.max_deviation_per_t())
    # exact mode collapses to automorphism invariance: rounding-level only
    assert all(dev < 1e-10 for dev in per_t.values())
    # radial case is exactly the tanh ray for every t
    table2 = geodesic_persistence_probe(0.0, [0.5, 0.9], np.array([0.0], dtype=complex), n=1)
    assert all(dev < 1e-12 for _t, dev in table2.max_deviation_per_t())


def test_divergence_probe():
    # fixed point seed: A_t^{-1}(e1) = e1, band violated
    ts = [0.5, 0.9]
    seeds = [np.array([1.0, 0.0], dtype=complex)] * 2
    rep = compactly_divergent_probe(ts, seeds)
    assert all(r["re_pi1"] == pytest.approx(1.0) and not r["band_ok"] for r in rep["rows"])
    # round-trip seeds: constant pullback, not divergent
    x0 = np.array([0.3, 0.2], dtype=complex)
    ts = [0.5, 0.7, 0.9, 0.95]
    seeds = [scaling_automorphism(t, x0) for t in ts]
    rep = compactly_divergent_probe(ts, seeds)
    assert not rep["compactly_divergent"]
    assert all(r["re_pi1"] == pytest.approx(0.3, abs=1e-12) for r in rep["rows"])
    # escaping seeds: norms -> 1, divergent flag set
    ks = list(range(1, 41))
    ts = [1.0 - 1.0 / (10 * k + 10) for k in ks]
    seeds = [scaling_automorphism(t, np.array([0.0, 1.0 - 1.0 / k], dtype=complex))
             for k, t in zip(ks, ts)]
    rep = compactly_divergent_probe(ts, seeds)
    assert rep["compactly_divergent"]


def test_boundary_probe_decreasing():
    table = boundary_deviation_probe(0.05, [0.5, 0.9], samples=24)
    per_t = table.max_deviation_per_t()
    assert per_t[0][1] > per_t[1][1]


def test_scaled_domain_is_model_domain():
    dom = ScaledEllipsoid(0.05, 0.5, 2)
    assert membership(dom, [0.0, 0.0])
    assert not membership(dom, [1.0, 0.0])


def test_probe_rejects_escaping_grid():
    with pytest.raises(ValueError):
        metric_convergence_probe(0.05, [0.5], grid=[np.array([0.95 + 0j, 0j]),
                                                    np.zeros(2, complex)])


@pytest.mark.parametrize("probe", [
    lambda eps: metric_convergence_probe(eps, []),
    lambda eps: geodesic_persistence_probe(eps, [], np.zeros(2, complex)),
    lambda eps: geodesic_persistence_probe(eps, [0.5], np.zeros(2, complex), samples=0),
    lambda eps: boundary_deviation_probe(eps, []),
])
def test_probes_refuse_a_bad_eps_before_any_work(probe):
    # the check does not wait for a loop body that may never run
    for eps in (float("nan"), float("inf"), -0.5):
        with pytest.raises(DomainError, match="eps must be finite"):
            probe(eps)
