import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kobalab import (Box, EuclideanBall, TubeOverBase, caratheodory_lower, distance,
                     lempert_upper, tube_distance_bounds)
from kobalab import closed_forms as cf
from kobalab import tube
from kobalab._sampling import sphere_directions
from kobalab.domains import LinearImage, Polytope, base_dim, chord_interval, to_polytope
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


@pytest.mark.parametrize("scale", [1e-98, 1e-120, 1e-160])
def test_ball_tau_of_a_tiny_vector_is_scaled(scale):
    # tau is homogeneous of degree 1 in the disc vector: a vector whose
    # squares underflow gives the unit vector's tau times its size (it
    # divided by zero in the Newton loop), and so does the vertical cap of a
    # tube point with a tiny imaginary part inside `distance`
    for x, w in (([0.9, 0.0], [1j, 0.0]), ([0.9, 0.3], [1j, 0.3]), ([0.2, -0.5], [0.3 - 1j, 2j])):
        unit = affine_disc_tau(BALL, x, w)
        assert affine_disc_tau(BALL, x, [scale * z for z in w]) == pytest.approx(scale * unit,
                                                                                  rel=1e-14)
    lo, hi = tube_distance_bounds(BALL, np.array([0.9 + 1e-98j, 0.0]), np.array([0.0, 1j]))
    assert 0.0 < lo <= hi < math.inf


@pytest.mark.parametrize("power", [-900, -520, 520, 900])
def test_ball_tau_of_a_vector_outside_the_square_range_is_scaled_exactly(power):
    # a vector whose largest entry lies in [1/2, 1) keeps its bits, and its
    # multiples by powers of two whose squares leave the normal range are
    # scaled back to it exactly: the tau is the same multiple, to the bit
    for x, w in (([0.9, 0.0], [0.5j, 0.0]), ([0.2, -0.5], [0.3 - 0.75j, 0.5j])):
        assert affine_disc_tau(BALL, x, [math.ldexp(1.0, power) * z for z in w]) == \
            math.ldexp(affine_disc_tau(BALL, x, w), power)


def test_ball_tau_past_the_float_range_is_inf():
    # no affine disc is admissible, and the vertical cap is no competitor
    assert affine_disc_tau(BALL, [0.5, 0.0], [1.7e308j, 0.0]) == math.inf
    assert affine_disc_tau(BALL, [0.5, 0.0], [complex(math.inf, 0.0), 0.0]) == math.inf
    assert tube._vertical_cap(BALL, [0.5, 0.0], [1e308, 0.0]) == math.inf


def test_ball_tau_of_an_anchor_with_a_subnormal_coordinate():
    # g_1 = 1e-308 is not 0, but its square is: the hard case's test, on
    # that square, gives the tau of the anchor with that coordinate at 0
    assert affine_disc_tau(BALL, [0.9, 1e-308], [0.0, 1j]) == \
        affine_disc_tau(BALL, [0.9, 0.0], [0.0, 1j])


def _axis_case(seed: int, n: int, kind: str, depth: float):
    """(ball, anchor, a, b) with an ellipse on coordinate axes, so that the
    special cases hold exactly in floating point: "hard" (S = diag(4, 1),
    anchor offset along the lower eigenvector, so g has no top component),
    "isotropic" (S = 4 I, gap 0), "vertical" (a = 0, the affine disc of a
    vertical cap) and "generic"; the anchor is `depth`*r inside the sphere."""
    gen = np.random.default_rng(seed)
    ball = EuclideanBall(tuple(gen.normal(size=n)), float(gen.uniform(0.5, 2.0)))
    out = gen.normal(size=n)
    a, b = gen.normal(size=n), gen.normal(size=n)
    eye = np.eye(n)
    if kind == "hard":
        a, b, out = 2.0 * eye[0], eye[1], eye[1]
    elif kind == "isotropic":
        a, b = 2.0 * eye[0], 2.0 * eye[1]
    elif kind == "vertical":
        a = 0.0 * a
    out = out / np.linalg.norm(out)
    return ball, np.asarray(ball.center) + (1.0 - depth) * ball.radius * out, a, b


def _mp_ball_tau(ball, x, a, b):
    """(tau, room): the smallest admissible tau of the affine disc, unpadded,
    from the S-lemma equation solved by bisection at 40 digits, and
    room = r^2 - |x - c|^2."""
    with mpmath.workdps(40):
        mp = [mpmath.mpf(float(t)) for t in x]
        m = mpmath.matrix([xi - mpmath.mpf(float(ci)) for xi, ci in zip(mp, ball.center)])
        ab = mpmath.matrix([[mpmath.mpf(float(ai)), mpmath.mpf(float(bi))] for ai, bi in zip(a, b)])
        room = mpmath.mpf(ball.radius) ** 2 - sum(t * t for t in m)
        low_top, frame = mpmath.eigsy(ab.T * ab)
        low, top = low_top[0], low_top[1]
        if top == 0:
            return mpmath.mpf(0), room
        gap = top - low
        g = frame.T * (ab.T * m)
        w_low, w_top = g[0] ** 2, g[1] ** 2

        def schur(d):
            return room - w_top / d - (w_low / (d + gap) if w_low else 0)

        def excess(d):
            # F(d) - room, decreasing in d
            return (w_top * (top + 2 * d) / d ** 2
                    + (w_low * (top + gap + 2 * d) / (d + gap) ** 2 if w_low else 0) - room)

        if w_top == 0 and gap > 0 and w_low * (top + gap) / gap ** 2 <= room:
            d = mpmath.mpf(0)      # the hard case
            sigma = w_low / gap
        else:
            lo, hi = mpmath.mpf(0), mpmath.mpf(1)
            while excess(hi) > 0:
                lo, hi = hi, 2 * hi
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
            d = hi
            sigma = room - schur(d)
        return mpmath.sqrt((top + d) / (room - sigma)), room


_AXIS_KINDS = [(n, kind) for n in (1, 2, 3, 4)
               for kind in ("generic", "vertical", "hard", "isotropic") if n >= 2 or kind in
               ("generic", "vertical")]


@pytest.mark.parametrize("depth", [0.6, 0.3, 0.05])
@pytest.mark.parametrize("n,kind", _AXIS_KINDS)
def test_ball_tau_matches_a_40_digit_solve(n, kind, depth):
    # the float tau, unpadded, agrees with the 40-digit root to 1e-12, and
    # the padded tau is admissible: at least the exact smallest tau
    for seed in range(5):
        ball, x, a, b = _axis_case(seed, n, kind, depth)
        tau = affine_disc_tau(ball, x, a + 1j * b)
        want, _ = _mp_ball_tau(ball, x, a, b)
        assert tau / (1.0 + 1e-10) == pytest.approx(float(want), rel=1e-12)
        assert tau >= want


def test_ball_tau_hard_case_and_gap_zero_take_their_branches():
    # depth 0.6: |m| = 0.4 r <= 0.75 r, so the hard case has d* = 0, where
    # tau^2 = top / (room - g_2^2 / gap) in closed form
    ball, x, a, b = _axis_case(0, 2, "hard", 0.6)
    m = x - np.asarray(ball.center)
    room = ball.radius ** 2 - float(m @ m)
    want = math.sqrt(4.0 / (room - float(b @ m) ** 2 / 3.0))
    assert affine_disc_tau(ball, x, a + 1j * b) / (1.0 + 1e-10) == pytest.approx(want, rel=1e-14)
    # gap 0 at the centre: S = 4 I and g = 0, so tau = 2 / r
    ball, _, a, b = _axis_case(1, 3, "isotropic", 0.5)
    centre = np.asarray(ball.center)
    assert affine_disc_tau(ball, centre, a + 1j * b) / (1.0 + 1e-10) == pytest.approx(
        2.0 / ball.radius, rel=1e-14)


@given(seed=st.integers(0, 2 ** 32 - 1), case=st.sampled_from(_AXIS_KINDS),
       depth=st.floats(1e-9, 1e-2))
def test_ball_tau_near_the_sphere_matches_a_40_digit_solve(seed, case, depth):
    # near the sphere, room = r^2 - |m|^2 carries the rounding of |m|^2
    # (relative eps * r^2 / room), and the tau follows it; the call
    # returning at all means the float certificate passed
    ball, x, a, b = _axis_case(seed, *case, depth)
    tau = affine_disc_tau(ball, x, a + 1j * b)
    want, room = _mp_ball_tau(ball, x, a, b)
    cond = float(ball.radius ** 2 / room)
    assert tau / (1.0 + 1e-10) == pytest.approx(float(want), rel=1e-12 + 8e-16 * cond)


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


def _complex_route_tau(base, x, w):
    # a linear-image tau pulled back to its inner base with the direction
    # recombined as one complex vector, a base kind's tau on anything else
    w = np.asarray(w, dtype=complex)
    if isinstance(base, LinearImage):
        inv = base.inverse
        return _complex_route_tau(base.base, inv @ x, inv @ w.real + 1j * (inv @ w.imag))
    return tube._TUBE_KINDS[type(base)].tau(base, x, w)


@pytest.mark.parametrize("inner", [BALL, BOX, to_polytope(BALL, 8),
                                   LinearImage(((0.8, -0.3), (0.2, 1.1)), BALL)],
                         ids=["ball", "box", "polytope", "linear-image"])
def test_linear_image_tau_is_one_call_on_the_inner_base(inner, monkeypatch):
    calls = []
    tau = tube.affine_disc_tau

    def counted(*args):
        calls.append(1)
        return tau(*args)

    monkeypatch.setattr(tube, "affine_disc_tau", counted)
    base = LinearImage(((1.0, 0.5), (-0.25, 1.5)), inner)
    matrix = np.array(base.matrix)
    gen = np.random.default_rng(12)
    for k in range(60):
        x = matrix @ (0.3 * gen.uniform(-1.0, 1.0, 2))
        a, b = gen.normal(size=(2, 2))
        # exact zeros of either sign in some components
        a[k % 2] = (0.0, -0.0, a[0], a[0])[k % 4]
        b[(k // 2) % 2] = (-0.0, 0.0, b[1])[k % 3]
        calls.clear()
        got = tube.affine_disc_tau(base, x, a + 1j * b)
        assert len(calls) == 1
        assert got == _complex_route_tau(base, x, a + 1j * b)


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


# the lower end of the infinitesimal bracket as one strip_density_offset
# sweep over the slab directions and the unit Re v and Im v slabs, with the
# supports recomputed here
def _reference_density_lower(base, z, v):
    rows = np.array([v.real, v.imag])
    norms = np.sqrt(np.sum(rows * rows, axis=-1))
    dirs = np.concatenate([tube._slab_strips(base)[0][:-2],
                           rows[norms > 1e-14] / norms[norms > 1e-14, None]])
    his, los = base.support(dirs), -base.support(-dirs)
    return float(np.max(cf.strip_density_offset(los, his, tube.rowdot(dirs, z),
                                                tube.rowdot(dirs, v))))


@pytest.mark.parametrize("base,radius", [
    (BALL, 0.85), (BOX, 0.45), (to_polytope(BALL, 8), 0.8),
    (LinearImage(((1.0, 0.3), (0.0, 0.7)), BALL), 0.5), (Box((-0.5,), (1.0,)), 0.45)])
def test_density_lower_end_equals_the_one_formula_sweep(base, radius):
    gen = np.random.default_rng(31)
    n = base_dim(base)
    for k in range(24):
        z = radius * gen.uniform(-1.0, 1.0, n) / math.sqrt(n) + 1j * gen.uniform(-3.0, 3.0, n)
        v = gen.normal(size=n) + 1j * gen.normal(size=n)
        # generic, purely real and purely imaginary (the other slab dropped)
        v = (v, v.real + 0j, 1j * v.imag)[k % 3]
        lo, hi = tube_metric_bounds(base, z, v)
        assert lo == _reference_density_lower(base, z, v)
        if n == 1:
            assert hi == lo


def test_unit_rows_scale_only_the_rows_whose_square_overflows():
    gen = np.random.default_rng(3)
    rows = gen.normal(size=(2, 6, 2))
    rows[0, 1] = (1e200, -3e199)
    rows[1, 4] = (0.0, -1e300)
    rows[1, 5] = (1e-20, 0.0)
    unit, keep = tube._unit_rows(rows)
    assert keep.tolist() == [[True] * 6, [True] * 5 + [False]]
    got = np.zeros(rows.shape)
    got[keep] = unit
    ordinary = keep.copy()
    ordinary[0, 1] = ordinary[1, 4] = False
    plain = rows[ordinary]
    assert got[ordinary].tolist() == (plain / np.sqrt(tube.rowdot(plain, plain))[:, None]).tolist()
    assert got[0, 1] == pytest.approx(np.array([1e200, -3e199]) / math.hypot(1e200, 3e199),
                                      rel=1e-15)
    assert got[1, 4].tolist() == [0.0, -1.0]


@pytest.mark.parametrize("im", [1e80, 1e120, 1e200, 1e300])
def test_huge_imaginary_parts_keep_a_finite_bracket(im):
    # the slab along Im(v - u) of a pair 1e300 apart has a unit direction,
    # and the ball's tau scales its disc vector before it squares it
    u, v = np.array([0.5 + im * 1j, 0j]), np.zeros(2, dtype=complex)
    for base in (Box((-1.0, -1.0), (1.0, 1.0)), to_polytope(BALL, 8), BALL):
        lo, hi = tube_distance_bounds(base, u, v)
        assert 0.0 < lo <= hi < math.inf


def test_imaginary_parts_past_any_finite_bracket_raise():
    u, v = np.array([0.5 + 1.7e308j, 0j]), np.zeros(2, dtype=complex)
    for base in (Box((-1.0, -1.0), (1.0, 1.0)), BALL):
        with pytest.raises(tube.TubeMetricError, match="no finite bracket"):
            tube_distance_bounds(base, u, v)


@pytest.mark.parametrize("base", [BALL, to_polytope(BALL, 8)], ids=["ball", "polytope"])
def test_a_chain_that_cannot_refine_is_no_competitor(base):
    # Re v is 1e-3 from the boundary: no single disc is admissible, and 8
    # doublings of uniform legs still leave a leg at tau >= 0.95.  The
    # chain is then no competitor, and the route through the real points
    # gives the bracket's upper end (the chain raised before)
    u, v = np.zeros(2, dtype=complex), np.array([0.999 + 1j, 0j])
    taus = [affine_disc_tau(base, p.real, q - p) for p, q in ((u, v), (v, u))]
    assert 1.0 <= min(taus) < tube._CHAIN_TAU
    assert tube._chain_upper(base, u.tolist(), v.tolist(), taus, math.inf) == math.inf
    lo, hi = tube_distance_bounds(base, u, v)
    assert 0.0 < lo <= hi < math.inf


@pytest.mark.parametrize("base", [BOX, to_polytope(BOX)], ids=["box", "polytope"])
def test_chord_along_a_subnormal_direction_raises_no_warning(base):
    # Re(v - u) = (0.1, 5e-324): the chord's quotient by the subnormal
    # coordinate overflows to inf, its limit (any RuntimeWarning fails the
    # test); the distance is the one of the flat pair within rounding
    domain = TubeOverBase(base)
    got = distance(domain, [0.1, 0.0], [0.2, 5e-324])
    assert got.value == pytest.approx(distance(domain, [0.1, 0.0], [0.2, 0.0]).value, abs=1e-15)
    assert got.gap <= 1e-12


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


# the slab sweep as it ran before the slab table: every cell of the
# (pairs, directions) table through the one-formula strip kernel
def _reference_slab_sweep(base, us, vs):
    ap, q, c = _reference_cells(base, us, vs)
    out = np.arcsinh(np.sqrt(np.sinh(np.minimum(ap, 350.0)) ** 2 + np.sin(q) ** 2) / np.sqrt(c))
    return np.max(np.where(ap > 350.0, ap - 0.5 * np.log(c), out), axis=1)


def _reference_cells(base, us, vs):
    """(ap, q, c) of every cell of the reference sweep: |pi dy/4a|,
    pi dx/4a and the product of the cosines, the slab along Re(v - u) in
    column -2 and the one along Im(v - u) in column -1."""
    dirs = tube._slab_strips(base)[0][:-2]
    his, los = base.support(dirs), -base.support(-dirs)
    d = len(dirs)
    w = vs - us
    rows = np.array([w.real, w.imag])
    norms = np.sqrt(np.sum(rows * rows, axis=-1))
    keep = norms > 1e-14
    ex = rows[keep] / norms[keep, None]
    owner = np.nonzero(keep)[1]
    lo, hi = np.full((len(us), d + 2), -1.0), np.full((len(us), d + 2), 1.0)
    pu, pv = np.zeros((len(us), d + 2), complex), np.zeros((len(us), d + 2), complex)
    lo[:, :d], hi[:, :d] = los, his
    lo[:, d:].T[keep], hi[:, d:].T[keep] = -base.support(-ex), base.support(ex)
    pu[:, :d], pv[:, :d] = (tube.rowdot(p[:, None, :], dirs) for p in (us, vs))
    pu[:, d:].T[keep], pv[:, d:].T[keep] = tube.rowdot(us[owner], ex), tube.rowdot(vs[owner], ex)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    z, w = pu - mid, pv - mid
    ap = np.abs(math.pi * (z.imag - w.imag) / (4.0 * half))
    q = math.pi * (z.real - w.real) / (4.0 * half)
    c = np.cos(math.pi * z.real / (2.0 * half)) * np.cos(math.pi * w.real / (2.0 * half))
    return ap, q, c


def _tube_pairs(gen, m, radius, flat=0, vertical=0):
    """m row pairs with real parts in the disc of `radius`; the first `flat`
    pairs share their imaginary parts (the slab along Im(v - u) is dropped)
    and the next `vertical` share their real parts (the one along Re(v - u))."""
    dirs = gen.normal(size=(2, m, 2))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    reals = radius * gen.uniform(0.0, 1.0, (2, m, 1)) * dirs
    imags = gen.uniform(-3.0, 3.0, (2, m, 2))
    imags[1, :flat] = imags[0, :flat]
    reals[1, flat:flat + vertical] = reals[0, flat:flat + vertical]
    return reals[0] + 1j * imags[0], reals[1] + 1j * imags[1]


def _pair_matrix(gen, radius):
    """(points, pairs): all pairs i < j of 9 points with real parts in the
    disc of `radius`; point 8 repeats point 2, and the real parts of points
    0 and 1 are equal but for a first coordinate of 0.0 in one and -0.0 in
    the other."""
    points = _tube_pairs(gen, 9, radius)[0]
    points[8] = points[2]
    points[0, 0] = complex(0.0, points[0, 0].imag)
    points[1, 0] = complex(-0.0, points[1, 0].imag)
    points[1, 1] = complex(points[0, 1].real, points[1, 1].imag)
    return points, np.stack(np.triu_indices(9, 1), axis=1)


def _flat_pair_matrix(gen, radius, count):
    """(points, pairs): all pairs i < j of `count` points with real parts in
    the disc of `radius` and one imaginary part, so every pair is flat;
    point 1 has -0.0 where the others have 0.0, and the last point repeats
    point 2."""
    points = _tube_pairs(gen, count, radius)[0]
    points.imag = [0.0, gen.uniform(-3.0, 3.0)]
    points[1, 0] = complex(points[1, 0].real, -0.0)
    points[-1] = points[2]
    return points, np.stack(np.triu_indices(count, 1), axis=1)


def _check_translates(gen, base, us, vs, table, lower):
    """slab_lower of translates v + 2 pi i nu of the table's pairs, taken
    from every block in a scrambled order, against the reference sweep;
    and of every pair at its own translate (nu = 0), in order, against the
    table's lower bound to the bit."""
    assert tube.slab_lower(base, table, np.arange(len(us)), vs).tobytes() == lower.tobytes()
    owners = gen.permutation(np.repeat(np.arange(len(us)), 2))
    nus = gen.integers(-2, 3, (len(owners), 2))
    nus[:3] = 0                  # a translate that is the pair itself
    nus[3:6, 0] = nus[3:6, 1] = -1
    moved = vs[owners] + 2.0 * math.pi * 1j * nus
    got = tube.slab_lower(base, table, owners, moved)
    assert got.tolist() == _reference_slab_sweep(base, us[owners], moved).tolist()


def _check_table_rows(base, table, points):
    """The table keeps its projections and cosines by point row, and no
    per-pair field holds more than n numbers per pair: no (pair, slab)
    array."""
    m, n = table.us.shape
    slabs = len(tube._slab_strips(base)[0])
    assert table.x.shape == table.cos.shape == (points, slabs)
    for name, field in table._asdict().items():
        if name not in ("x", "cos"):
            assert field.size <= m * n, name


@pytest.mark.parametrize("base,radius", [
    (BALL, 0.85), (BOX, 0.45), (to_polytope(BALL, 8), 0.8),
    (LinearImage(((1.0, 0.3), (0.0, 0.7)), BALL), 0.5)])
def test_slab_table_equals_the_one_pass_sweep(base, radius, monkeypatch):
    # enough pairs to fill three blocks of the table over the ball
    gen = np.random.default_rng(23)
    # per row-max call, True for the pruned real stage (`strip_flat_max`)
    # and False for the imaginary stage (`strip_imag_max`)
    forms = []

    def recorded(kernel, flat):
        def run(*args):
            forms.append(flat)
            return kernel(*args)
        return run

    monkeypatch.setattr(tube, "strip_flat_max", recorded(tube.strip_flat_max, True))
    monkeypatch.setattr(tube, "strip_imag_max", recorded(tube.strip_imag_max, False))
    m = 2 * tube._sweep_rows(BALL) + 10
    us, vs = _tube_pairs(gen, m, radius, flat=5, vertical=5)
    want = _reference_slab_sweep(base, us, vs)
    assert caratheodory_lower(base, us, vs).tolist() == want.tolist()
    table, lower = tube.slab_table(base, np.concatenate([us, vs]),
                                   np.stack([np.arange(m), m + np.arange(m)], axis=1), us, vs)
    assert lower.tolist() == want.tolist()
    # disjoint pairs: the table keeps one row of each per point row
    _check_table_rows(base, table, 2 * m)
    _check_translates(gen, base, us, vs, table, lower)
    # a pair matrix: its points' stage runs once per point row (the
    # repeated point and the signed zeros included)
    points, pairs = _pair_matrix(gen, radius)
    us, vs = points[pairs.T]
    want = _reference_slab_sweep(base, us, vs)
    table, lower = tube.slab_table(base, points, pairs, us, vs)
    _check_table_rows(base, table, 9)
    assert lower.tolist() == want.tolist()
    assert caratheodory_lower(base, us, vs).tolist() == want.tolist()
    _check_translates(gen, base, us, vs, table, lower)
    # one pair, here with real parts that differ only in a signed zero
    for k in (0, 5):
        table, lower = tube.slab_table(base, np.array([us[k], vs[k]]), np.array([[0, 1]]),
                                       us[k:k + 1], vs[k:k + 1])
        assert lower.tolist() == want[k:k + 1].tolist()
        _check_table_rows(base, table, 2)
        _check_translates(gen, base, us[k:k + 1], vs[k:k + 1], table, lower)
    # every block so far holds a pair with Im u != Im v
    assert forms and not any(forms)
    # an all-flat pair matrix over at least three full blocks: every block
    # takes the pruned real stage alone, with the same bits
    count = 2
    while count * (count - 1) // 2 < 3 * tube._sweep_rows(base):
        count += 1
    points, pairs = _flat_pair_matrix(gen, radius, count)
    us, vs = points[pairs.T]
    want = _reference_slab_sweep(base, us, vs)
    forms.clear()
    table, lower = tube.slab_table(base, points, pairs, us, vs)
    assert lower.tolist() == want.tolist()
    assert caratheodory_lower(base, us, vs).tolist() == want.tolist()
    assert len(forms) >= 6 and all(forms)
    _check_table_rows(base, table, count)
    _check_translates(gen, base, us, vs, table, lower)


# the 2-d bases of the slab-table tests, each symmetric about 0, so that
# points with tiny coordinates project to tiny centred coordinates
CENTRED_BASES = [BALL, BOX, to_polytope(BALL, 8), LinearImage(((1.0, 0.3), (0.0, 0.7)), BALL)]


def _flat_edge_points(gen, base):
    """13 points of the tube over `base`, all with one imaginary part (-0.0
    in one of them, 0.0 in the others): six in the disc of radius 0.45;
    a repeat of point 0; (0.0, y) and (-0.0, y), whose pair drops the slab
    along Re(v - u); (1e-160, 0) and (3e-160, 0), whose cells have
    0 < |q| < 2^-500; point 1 moved by 1e-10, whose pair's sines round to
    q; and a point within 1e-12 of the base's boundary."""
    reals = np.empty((13, 2))
    dirs = gen.normal(size=(7, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    reals[:6] = 0.45 * gen.uniform(0.0, 1.0, (6, 1)) * dirs[:6]
    reals[6] = reals[0]
    reals[7:9] = [[0.0, reals[2, 1]], [-0.0, reals[2, 1]]]
    reals[9:11] = [[1e-160, 0.0], [3e-160, 0.0]]
    reals[11] = reals[1] + 1e-10 * dirs[6]
    edge = gen.normal(size=2)
    edge /= np.linalg.norm(edge)
    reach = chord_interval(base, np.zeros(2), edge)[1]
    inset = 1e-13
    while not base.contains((reach - inset) * edge[None])[0]:
        inset *= 2.0
    assert inset < 1e-12
    reals[12] = (reach - inset) * edge
    imags = np.full((13, 2), 0.0)
    imags[:, 1] = gen.uniform(-3.0, 3.0)
    imags[4, 0] = -0.0
    return reals + 1j * imags


@given(seed=st.integers(0, 2 ** 32 - 1), base=st.sampled_from(CENTRED_BASES))
def test_pruned_flat_row_max_equals_the_full_sweep(seed, base):
    # all pairs of flat points take the pruned real stage: the slab lower
    # bound, in the table and in `caratheodory_lower`, and the q and the
    # cosine product of the table's slab along Re(v - u) equal the full
    # sweep's to the bit, with a dropped slab along Re(v - u), cells with
    # |q| < 2^-500, signed zeros, repeated points and a point at the
    # boundary among them
    points = _flat_edge_points(np.random.default_rng(seed), base)
    pairs = np.stack(np.triu_indices(len(points), 1), axis=1)
    us, vs = points[pairs.T]
    _, q, c = _reference_cells(base, us, vs)
    assert ((0.0 < np.abs(q)) & (np.abs(q) < 2.0 ** -500)).any()
    assert (q[:, -2] == 0.0).any()
    want = _reference_slab_sweep(base, us, vs)
    table, lower = tube.slab_table(base, points, pairs, us, vs)
    assert lower.tobytes() == want.tobytes()
    along_q = math.pi * (table.along_x[0] - table.along_x[1]) / (4.0 * table.along_halfwidth)
    assert along_q.tobytes() == q[:, -2].tobytes()
    assert (table.along_cos[0] * table.along_cos[1]).tobytes() == c[:, -2].tobytes()
    assert caratheodory_lower(base, us, vs).tobytes() == want.tobytes()


def test_extra_slabs_are_set_up_once_per_call(monkeypatch):
    # a pair matrix over at least three blocks of the table: the slabs
    # along Re(v - u) and Im(v - u) of all its pairs come from one
    # `_extra_slabs` call, in `slab_table` as in `caratheodory_lower`
    calls = []
    extra_slabs = tube._extra_slabs

    def counted(base, rows):
        calls.append(rows.shape[:-1])
        return extra_slabs(base, rows)

    monkeypatch.setattr(tube, "_extra_slabs", counted)
    count = 2
    while count * (count - 1) // 2 <= 2 * tube._sweep_rows(BALL):
        count += 1
    points = _tube_pairs(np.random.default_rng(29), count, 0.85)[0]
    pairs = np.stack(np.triu_indices(count, 1), axis=1)
    us, vs = points[pairs.T]
    lower = tube.slab_table(BALL, points, pairs, us, vs)[1]
    assert calls == [(2, len(pairs))]
    calls.clear()
    assert caratheodory_lower(BALL, us, vs).tolist() == lower.tolist()
    assert calls == [(2, len(pairs))]


@given(seed=st.integers(0, 2 ** 32 - 1), cut=st.floats(0.0, 8.0))
def test_chain_cut_only_stops_chains_that_exceed_it(seed, cut):
    # a chain stopped at cut returns more than cut, and is whole otherwise
    gen = np.random.default_rng(seed)
    us, vs = _tube_pairs(gen, 1, 0.95)
    u, v = us[0].tolist(), vs[0].tolist()
    taus = [affine_disc_tau(BALL, [z.real for z in p], [b - a for a, b in zip(p, q)])
            for p, q in ((u, v), (v, u))]
    whole = tube._chain_upper(BALL, u, v, taus, math.inf)
    got = tube._chain_upper(BALL, u, v, taus, cut)
    assert got == whole if whole <= cut else cut < got <= whole


def _slab_bases():
    """A ball, box, polytope and linear-image base in each of 1-4 dimensions;
    each holds the ball of radius 0.45 about 0."""
    out = []
    for n in range(1, 5):
        ball = EuclideanBall(tuple(0.05 * (-1.0) ** j for j in range(n)), 1.0)
        matrix = 1.2 * np.eye(n) + 0.3 * np.eye(n, k=1)
        out += [ball, Box((-0.5,) * n, tuple(1.0 - 0.1 * j for j in range(n))),
                to_polytope(ball, 8), LinearImage(tuple(map(tuple, matrix.tolist())), ball)]
    return out


SLAB_BASES = _slab_bases()


def _two_sided_block(base):
    """The two-sided slab block, with both directions of most lines: the
    spread of 64*dim sphere directions (bases other than polytopes), the
    unit facet normals, the axes and the negated axes."""
    n = base_dim(base)
    normals = np.array(tube.base_facet_normals(base), dtype=float).reshape(-1, n)
    spread = [sphere_directions(tube.DIRECTIONS_PER_DIM * n, n)] \
        if tube._TUBE_KINDS[type(base)].spread else []
    return np.vstack(spread + [tube._unit_rows(normals)[0], np.eye(n), -np.eye(n)])


def _same_line(a, b):
    """(len(a), len(b)) mask: a row of a equals a row of b or its negation."""
    return (a[:, None] == b[None]).all(axis=-1) | (a[:, None] == -b[None]).all(axis=-1)


@pytest.mark.parametrize("base", SLAB_BASES, ids=repr)
def test_slab_block_keeps_one_direction_per_line(base):
    n = base_dim(base)
    dirs, mid, halfwidth = tube._slab_strips(base)
    assert (dirs[-2:] == 0.0).all() and mid[-2:].tolist() == [0.0, 0.0] \
        and halfwidth[-2:].tolist() == [1.0, 1.0]
    dirs = dirs[:-2]
    # no row equals another row or another row negated
    assert not (_same_line(dirs, dirs) & ~np.eye(len(dirs), dtype=bool)).any()
    # every line of the two-sided block is kept, but the 2-d spread's
    # angles of [pi, 2 pi) are kept only where they negate those of
    # [0, pi) exactly, not just up to rounding
    block = _two_sided_block(base)
    kept = _same_line(block, dirs).any(axis=1)
    if tube._TUBE_KINDS[type(base)].spread and n == 2:
        assert dirs[:64].tobytes() == sphere_directions(128, 2)[:64].tobytes()
        exact = (block[64:128] == -block[:64]).all(axis=1)
        assert kept[64:128].tolist() == exact.tolist() and exact.sum() == 1
        kept = np.delete(kept, np.s_[64:128])
    assert kept.all()


def _cells(base, dirs, us, vs):
    """The strip distance of every (pair, direction) cell of row pairs
    (us[k], vs[k]), through the strip kernel's stages."""
    mid, halfwidth = cf.strip_centre(-base.support(-dirs), base.support(dirs))
    xu, xv = (tube.rowdot(p.real[:, None, :], dirs) - mid for p in (us, vs))
    dy = tube.rowdot(us.imag[:, None, :], dirs) - tube.rowdot(vs.imag[:, None, :], dirs)
    return cf.strip_imag_stage(halfwidth, dy, *cf.strip_real_stage(halfwidth, xu, xv))


def _slab_pairs(gen, m, n):
    """m row pairs in the tube over a base of `SLAB_BASES` of dimension n."""
    dirs = gen.normal(size=(2, m, n))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    reals = 0.45 * gen.uniform(0.0, 1.0, (2, m, 1)) * dirs
    return reals + 1j * gen.uniform(-4.0, 4.0, (2, m, n))


@given(seed=st.integers(0, 2 ** 32 - 1))
def test_negated_direction_has_the_same_column(seed):
    # wherever a line's second direction is an exact negation (or repeat)
    # of its first, the two columns agree to the bit, so dropping it
    # changes no slab lower bound
    gen = np.random.default_rng(seed)
    for base in SLAB_BASES:
        block = _two_sided_block(base)
        us, vs = _slab_pairs(gen, 16, base_dim(base))
        cells = _cells(base, block, us, vs)
        twin = np.triu(_same_line(block, block), 1)
        first, second = np.nonzero(twin)
        assert len(first) > 0
        assert cells[:, first].tobytes() == cells[:, second].tobytes(), repr(base)


@pytest.mark.parametrize("base", SLAB_BASES, ids=repr)
def test_slab_lower_stays_within_rounding_of_the_two_sided_block(base, monkeypatch):
    # the one-per-line block drops only exact twins and, in 2-d, the
    # spread's rounded negations: its bound is never above the sweep over
    # every line's two directions and within 1e-13 of it
    gen = np.random.default_rng(41)
    us, vs = _slab_pairs(gen, 3000, base_dim(base))
    got = caratheodory_lower(base, us, vs)
    n = base_dim(base)
    block = np.vstack([_two_sided_block(base), np.zeros((2, n))])
    monkeypatch.setattr(tube, "_slab_strips", lambda _: (block,))
    want = _reference_slab_sweep(base, us, vs)
    assert (got <= want).all()
    assert (want - got <= 1e-13 * want).all()
