import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kobalab import Box, EuclideanBall, caratheodory_lower, lempert_upper, tube_distance_bounds
from kobalab import closed_forms as cf
from kobalab.domains import LinearImage, Polytope, to_polytope
from kobalab.tube import affine_disc_tau, tube_metric_bounds

BALL = EuclideanBall((0.0, 0.0), 1.0)
BOX = Box((-1.0, -0.5), (1.0, 0.5))


def test_trivial_coincident_points():
    u = np.array([0.2 + 0.4j, -0.1 + 0.3j])
    assert caratheodory_lower(BALL, u, u) == 0.0
    assert lempert_upper(BALL, u, u) == 0.0


def test_box_lower_matches_product_formula():
    gen = np.random.default_rng(2)
    for _ in range(25):
        u = gen.uniform(-0.9, 0.9, 2) * np.array([1.0, 0.5]) + 1j * gen.uniform(-2, 2, 2)
        v = gen.uniform(-0.9, 0.9, 2) * np.array([1.0, 0.5]) + 1j * gen.uniform(-2, 2, 2)
        want = max(cf.strip_distance_offset(-1.0, 1.0, complex(u[0]), complex(v[0])),
                   cf.strip_distance_offset(-0.5, 0.5, complex(u[1]), complex(v[1])))
        assert caratheodory_lower(BOX, u, v) == pytest.approx(want, abs=1e-12)
        assert lempert_upper(BOX, u, v) == pytest.approx(want, abs=1e-6)


def test_ball_diametral_pair_is_exact():
    # supporting slab with normal e_1 is optimal; the chord-slice disc
    # matches it, so the bracket collapses
    u = np.array([-0.5 + 0.0j, 0.0 + 0.0j])
    v = np.array([0.5 + 0.0j, 0.0 + 0.0j])
    want = cf.strip_distance(1.0, -0.5, 0.5)
    lo, hi = tube_distance_bounds(BALL, u, v)
    assert lo == pytest.approx(want, abs=1e-12)
    assert hi == pytest.approx(want, abs=1e-12)
    assert hi - lo < 1e-12


def test_ball_diametral_gap_small_generally():
    gen = np.random.default_rng(3)
    for _ in range(10):
        d = gen.normal(size=2)
        d /= np.linalg.norm(d)
        s, t = gen.uniform(-0.85, 0.85, 2)
        u = (s * d).astype(complex)
        v = (t * d).astype(complex)
        lo, hi = tube_distance_bounds(BALL, u, v)
        assert hi - lo < 1e-3


def test_sandwich_validity_random_pairs():
    gen = np.random.default_rng(4)
    for base in (BALL, BOX):
        for _ in range(30):
            if isinstance(base, Box):
                ur = gen.uniform(-0.9, 0.9, 2) * np.array([1.0, 0.5])
                vr = gen.uniform(-0.9, 0.9, 2) * np.array([1.0, 0.5])
            else:
                ur = gen.normal(size=2)
                ur *= 0.9 * gen.uniform() / np.linalg.norm(ur)
                vr = gen.normal(size=2)
                vr *= 0.9 * gen.uniform() / np.linalg.norm(vr)
            u = ur + 1j * gen.uniform(-2, 2, 2)
            v = vr + 1j * gen.uniform(-2, 2, 2)
            lo, hi = tube_distance_bounds(base, u, v)
            assert 0.0 <= lo <= hi


def test_affine_disc_tau_box_exact():
    # ellipse half-extents divided by the coordinate slacks
    x = np.array([0.2, 0.1])
    w = np.array([0.3 + 0.4j, 0.1 - 0.2j])
    want = max(abs(w[0]) / min(1.0 - 0.2, 0.2 + 1.0),
               abs(w[1]) / min(0.5 - 0.1, 0.1 + 0.5))
    assert affine_disc_tau(BOX, x, w) == pytest.approx(want, rel=1e-12)


def test_affine_disc_tau_admissible_on_ball():
    # the certified tau keeps the closed affine disc inside the tube
    gen = np.random.default_rng(5)
    for _ in range(20):
        x = gen.normal(size=2)
        x *= 0.7 * gen.uniform() / np.linalg.norm(x)
        w = gen.normal(size=2) + 1j * gen.normal(size=2)
        tau = affine_disc_tau(BALL, x, w)
        for th in np.linspace(0, 2 * math.pi, 40):
            pt = x + (math.cos(th) * w.real + math.sin(th) * w.imag) / tau
            assert np.linalg.norm(pt) <= 1.0 + 1e-8


def _ball_case(seed: int, n: int, kind: str, depth: float):
    """(ball, anchor, a, b): a seeded ball in R^n, an anchor `depth`*r inside
    its sphere, and an ellipse of the named kind."""
    gen = np.random.default_rng(seed)
    ball = EuclideanBall(tuple(gen.normal(size=n)), float(gen.uniform(0.5, 2.0)))
    frame = np.linalg.qr(gen.normal(size=(n, n)))[0]
    a, b, out = gen.normal(size=n), gen.normal(size=n), frame[:, -1]
    if kind == "b=0":
        b = 0.0 * b
    elif kind == "b||a":
        b = gen.normal() * a
    elif kind == "a=b=0":
        a, b = 0.0 * a, 0.0 * b
    elif kind == "hard" and n >= 2:
        # m along the lower eigenvector of S = diag(4, 1): g has no top component
        a, b, out = 2.0 * frame[:, 0], frame[:, 1], frame[:, 1]
    elif kind == "normal" and n >= 3:
        # m orthogonal to the ellipse plane: g = 0
        a, b, out = frame[:, 0], gen.normal() * frame[:, 0] + frame[:, 1], frame[:, 2]
    depth = 1.0 if kind == "centre" else depth
    return ball, np.asarray(ball.center) + (1.0 - depth) * ball.radius * out, a, b


def _brute_ball_tau(ball, x, a, b) -> float:
    """Bisection on tau: the farthest ellipse point over 20,001 sampled
    angles, refined on a grid 100 times finer about the sampled local maxima."""
    m = x - np.asarray(ball.center)
    coarse = np.linspace(0.0, 2.0 * math.pi, 20001)

    def farthest(tau):
        def norms(th):
            return np.linalg.norm(m + (np.outer(np.cos(th), a) + np.outer(np.sin(th), b)) / tau,
                                  axis=-1)
        v = norms(coarse)
        peaks = np.nonzero((v >= np.roll(v, 1)) & (v >= np.roll(v, -1)))[0]
        peaks = peaks[np.argsort(v[peaks])[-4:]]
        fine = (coarse[peaks, None] + (coarse[1] / 100.0) * np.arange(-100, 101)).ravel()
        return max(v.max(), norms(fine).max())

    lo, hi = 0.0, 1.0
    while farthest(hi) > ball.radius:
        lo, hi = hi, 2.0 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if farthest(mid) <= ball.radius else (mid, hi)
    return hi


_ELLIPSES = ["generic", "b=0", "b||a", "a=b=0", "centre", "hard", "normal"]


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), kind=st.sampled_from(_ELLIPSES),
       depth=st.floats(1e-3, 1.0))
def test_ball_tau_matches_brute_force(seed, n, kind, depth):
    # anchors at least 1e-3 r inside: the scalar equation's tau is the
    # smallest admissible one, up to the 1e-10 pad
    ball, x, a, b = _ball_case(seed, n, kind, depth)
    tau = affine_disc_tau(ball, x, a + 1j * b)
    if kind == "a=b=0":
        assert tau == 0.0
    else:
        assert tau == pytest.approx(_brute_ball_tau(ball, x, a, b), rel=1e-8)


@pytest.mark.parametrize("exponent", [5, 6, 7, 8, 9])
@pytest.mark.parametrize("n,kind", [(2, "generic"), (3, "generic"), (4, "b||a"), (2, "hard")])
def test_ball_tau_disc_stays_inside_near_the_sphere(exponent, n, kind):
    # the float disc, evaluated exactly (40 digits) about its farthest
    # point, overshoots the sphere by no more than rounding
    ball, x, a, b = _ball_case(100 * exponent + n, n, kind, 10.0 ** -exponent)
    tau = affine_disc_tau(ball, x, a + 1j * b)
    th = np.linspace(0.0, 2.0 * math.pi, 20001)
    pts = x + (np.outer(np.cos(th), a) + np.outer(np.sin(th), b)) / tau
    start = th[np.argmax(np.linalg.norm(pts - np.asarray(ball.center), axis=1))]
    with mpmath.workdps(40):
        m = [mpmath.mpf(float(xi)) - mpmath.mpf(float(ci)) for xi, ci in zip(x, ball.center)]
        ma, mb = [mpmath.mpf(float(t)) for t in a], [mpmath.mpf(float(t)) for t in b]
        inv = 1 / mpmath.mpf(tau)

        def point(t):
            return [mi + (mpmath.cos(t) * ai + mpmath.sin(t) * bi) * inv
                    for mi, ai, bi in zip(m, ma, mb)]

        def slope(t):
            tangent = [(mpmath.cos(t) * bi - mpmath.sin(t) * ai) * inv for ai, bi in zip(ma, mb)]
            return mpmath.fsum(p * q for p, q in zip(point(t), tangent))

        top = mpmath.findroot(slope, mpmath.mpf(float(start)))
        farthest = max(mpmath.norm(point(t)) for t in (top, mpmath.mpf(float(start))))
        assert farthest - mpmath.mpf(ball.radius) <= 1e-15 * ball.radius


def test_linear_image_base_bounds():
    sheared = LinearImage(((1.0, 1.0), (0.0, 1.0)), BOX)
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    u = (a @ np.array([0.3, -0.1])).astype(complex)
    v = (a @ np.array([-0.4, 0.2])).astype(complex)
    lo, hi = tube_distance_bounds(sheared, u, v)
    # the shear is a biholomorphism of tubes, so distances transport
    want_lo, want_hi = tube_distance_bounds(BOX, np.array([0.3, -0.1], dtype=complex),
                                            np.array([-0.4, 0.2], dtype=complex))
    assert lo <= want_hi + 1e-9 and want_lo <= hi + 1e-9


def test_tube_metric_bounds_exact_on_diameter():
    # direction along the diametral slice: slab and slice bounds coincide
    d = np.array([1.0, 0.0])
    z = (0.4 * d).astype(complex)
    lo, hi = tube_metric_bounds(BALL, z, d.astype(complex))
    want = cf.strip_density(1.0, 0.4 + 0j, 1.0)
    assert lo == pytest.approx(want, abs=1e-12)
    assert hi == pytest.approx(want, abs=1e-12)


def test_tube_metric_bounds_box_exact():
    z = np.array([0.2 + 1j, -0.1 - 0.5j])
    v = np.array([0.3 - 0.2j, 0.15 + 0.1j])
    want = max(cf.strip_density_offset(-1.0, 1.0, complex(z[0]), complex(v[0])),
               cf.strip_density_offset(-0.5, 0.5, complex(z[1]), complex(v[1])))
    lo, hi = tube_metric_bounds(BOX, z, v)
    assert lo == pytest.approx(want, abs=1e-12)
    assert hi == pytest.approx(want, abs=1e-12)


def test_polytope_base_bounds_match_box():
    # the polytope engine lacks the product-disc shortcut, so only the
    # lower bounds coincide; its bracket must still contain the exact
    # (product-formula) value computed through the Box kind
    poly = to_polytope(BOX)
    assert isinstance(poly, Polytope)
    u = np.array([0.2 + 0.3j, -0.1 + 0.1j])
    v = np.array([-0.5 - 0.2j, 0.3 + 0.4j])
    lo_p, hi_p = tube_distance_bounds(poly, u, v)
    lo_b, hi_b = tube_distance_bounds(BOX, u, v)
    exact = hi_b  # box upper equals the product formula
    assert lo_p == pytest.approx(lo_b, abs=1e-9)
    assert lo_p - 1e-9 <= exact <= hi_p + 1e-9


def test_degenerate_base_rejected():
    with pytest.raises(Exception):
        caratheodory_lower(BALL, np.array([1.5 + 0j, 0j]), np.array([0j, 0j]))


def test_one_dimensional_tube_is_a_strip():
    # the single slab projection is a biholomorphism, so the bracket is exact
    interval = EuclideanBall((0.25,), 0.75)  # tube {-0.5 < Re < 1}
    gen = np.random.default_rng(6)
    for _ in range(20):
        u = np.array([complex(gen.uniform(-0.45, 0.95), gen.uniform(-3, 3))])
        v = np.array([complex(gen.uniform(-0.45, 0.95), gen.uniform(-3, 3))])
        lo, hi = tube_distance_bounds(interval, u, v)
        want = cf.strip_distance_offset(-0.5, 1.0, complex(u[0]), complex(v[0]))
        assert hi == lo
        assert lo == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("base,radius", [
    (BOX, 0.45),
    (to_polytope(BALL, 8), 0.8),
    (LinearImage(((1.0, 0.3), (0.0, 0.7)), BALL), 0.5),
])
def test_batched_bounds_equal_per_pair_bounds(base, radius):
    # real parts in a ball of `radius` about 0 (inside each base); half the
    # pairs share their imaginary parts, the other half are generic
    gen = np.random.default_rng(7)
    m = 12
    dirs = gen.normal(size=(2, m, 2))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    reals = radius * gen.uniform(0.0, 1.0, (2, m, 1)) * dirs
    imag_u = gen.uniform(-2.0, 2.0, (m, 2))
    imag_v = np.where(np.arange(m)[:, None] < m // 2, imag_u, gen.uniform(-2.0, 2.0, (m, 2)))
    us, vs = reals[0] + 1j * imag_u, reals[1] + 1j * imag_v
    lower, upper = tube_distance_bounds(base, us, vs)
    for k in range(m):
        assert (lower[k], upper[k]) == tube_distance_bounds(base, us[k], vs[k])
