import cmath
import math
import warnings

import numpy as np
import pytest

from kobalab import (Annulus, DeckBoundError, LeftHalfPlane, Polydisc, PuncturedDisc,
                     ReinhardtLog, SandwichGapError, Strip, TubeOverBase, UnitBall, UnitDisc,
                     deck_infimum, distance, distances, hyperbolic_length,
                     infinitesimal_metric)
from kobalab import closed_forms as cf
from kobalab import metric
from kobalab.domains import (Box, DomainError, EuclideanBall, LinearImage, NonInteriorError,
                             to_polytope)
from kobalab.quadrature import adaptive_simpson
from kobalab.geodesics import ball_geodesic_segment
from test_domains import ALL_DOMAINS

GEN = np.random.default_rng(11)


def disc_pts(n, radius=0.9):
    out = []
    for _ in range(n):
        r = radius * math.sqrt(GEN.uniform())
        th = GEN.uniform(0, 2 * math.pi)
        out.append(r * cmath.exp(1j * th))
    return out


def test_distance_trivia():
    assert distance(UnitDisc(), 0.0, 0.0).value == 0.0
    for r in (0.2, 0.5, 0.8):
        # Schwarz-Pick equality on the linear slice: oracle is the
        # one-dimensional Poincare distance
        got = distance(UnitBall(2), [0.0, 0.0], [r, 0.0]).value
        assert got == pytest.approx(math.atanh(r), abs=1e-14)


def test_annulus_real_positive_reduces_to_strip():
    R = 4.0
    a = math.log(R)
    for t, s in [(0.5, 2.0), (0.3, 0.9), (1.1, 3.5)]:
        got = distance(Annulus(R), t, s)
        want = cf.strip_distance(a, math.log(t), math.log(s))
        assert got.value == pytest.approx(want, abs=1e-14)
        assert got.deck_index == (0,)


def test_strip_formula_against_tan_map():
    # independent oracle: the conformal map tan(pi z / 4a) onto the disc
    a = math.log(3.0)
    gen = np.random.default_rng(1)
    for _ in range(200):
        z = complex(gen.uniform(-0.95 * a, 0.95 * a), gen.uniform(-3, 3))
        w = complex(gen.uniform(-0.95 * a, 0.95 * a), gen.uniform(-3, 3))
        tz = cmath.tan(math.pi * z / (4 * a))
        tw = cmath.tan(math.pi * w / (4 * a))
        assert cf.strip_distance(a, z, w) == pytest.approx(
            cf.disc_distance(tz, tw), abs=1e-10)


def test_strip_distance_large_separation():
    # arcsinh form stays finite and linear where arctanh overflows
    a = math.log(4.0)
    d1 = cf.strip_distance(a, 0.0, 0.0 + 100j)
    assert d1 == pytest.approx(math.pi * 100 / (4 * a), rel=1e-10)
    d2 = cf.strip_distance(a, 0.0, 0.0 + 2000j)
    assert d2 == pytest.approx(math.pi * 2000 / (4 * a), rel=1e-10)


@pytest.mark.parametrize("domain,sampler", [
    (UnitDisc(), lambda: np.array([disc_pts(1)[0]])),
    (Strip(4.0), lambda: np.array([complex(GEN.uniform(-1.3, 1.3), GEN.uniform(-4, 4))])),
    (UnitBall(2), lambda: _ball_pt(2)),
    (Polydisc(2), lambda: np.array(disc_pts(2))),
    (PuncturedDisc(), lambda: np.array([disc_pts(1)[0] or 0.3])),
    (Annulus(4.0), lambda: np.array([math.exp(GEN.uniform(-1.3, 1.3))
                                     * cmath.exp(1j * GEN.uniform(0, 2 * math.pi))])),
])
def test_metric_axioms(domain, sampler):
    for _ in range(120):
        z, w, v = sampler(), sampler(), sampler()
        if isinstance(domain, PuncturedDisc) and (abs(z[0]) < 1e-3 or abs(w[0]) < 1e-3
                                                  or abs(v[0]) < 1e-3):
            continue
        dzw = distance(domain, z, w).value
        dwz = distance(domain, w, z).value
        assert dzw == dwz  # symmetry is exact, not approximate
        assert distance(domain, z, z).value == 0.0
        dzv = distance(domain, z, v).value
        dwv = distance(domain, w, v).value
        assert dzw <= dzv + dwv + 1e-9


def _ball_pt(n):
    g = GEN.normal(size=n) + 1j * GEN.normal(size=n)
    return 0.9 * GEN.uniform() ** (1 / (2 * n)) * g / np.linalg.norm(g)


def test_infinitesimal_trivia():
    assert infinitesimal_metric(UnitDisc(), 0.0, 1.0) == pytest.approx(1.0)
    assert infinitesimal_metric(UnitDisc(), 0.3 + 0.1j, 0.0) == 0.0
    # degree-1 homogeneity is exact
    k1 = infinitesimal_metric(UnitBall(2), [0.2, 0.1j], [0.3, -0.4j])
    k2 = infinitesimal_metric(UnitBall(2), [0.2, 0.1j], [0.75, -1.0j])
    assert k2 == pytest.approx(2.5 * k1, rel=1e-14)


def test_infinitesimal_metric_refuses_non_finite_tangents():
    cases = [(UnitDisc(), 0.3, math.nan), (UnitBall(2), [0.2, 0.1j], [math.nan, 0.0]),
             (TubeOverBase(EuclideanBall((0.0, 0.0), 1.0)), [0.1, 0.2j], [math.inf, 0.0]),
             (Annulus(4.0), 1.0, math.inf)]
    for domain, z, v in cases:
        with pytest.raises(DomainError, match="tangent vector has non-finite coordinates"):
            infinitesimal_metric(domain, z, v)


def test_punctured_density_against_finite_difference():
    # oracle: finite difference of the deck-infimum distance
    for t in (0.2, 0.5, 0.8):
        for v in (1.0, 1j, 0.6 - 0.8j):
            k = infinitesimal_metric(PuncturedDisc(), t, v)
            h = 1e-6
            fd = distance(PuncturedDisc(), t, t + h * v).value / h
            assert k == pytest.approx(fd, rel=1e-4)


def test_annulus_density_against_finite_difference():
    R = 4.0
    for z in (0.5, 1.5 + 0.5j, 3.0j):
        if not abs(1 / R) < abs(z) < R:
            continue
        k = infinitesimal_metric(Annulus(R), z, 1.0)
        fd = distance(Annulus(R), z, z + 1e-6).value / 1e-6
        assert k == pytest.approx(fd, rel=1e-4)


def test_hyperbolic_length_constant_curve():
    assert hyperbolic_length(UnitDisc(), lambda t: np.array([0.3 + 0j]), 0.0, 2.0) == 0.0


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, -0.0, math.inf])
def test_quadrature_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    def integrand(u):
        raise AssertionError("the integrand is never sampled")

    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        adaptive_simpson(integrand, 0.0, 1.0, tol=tol)
    # the disc's radial geodesic over [0, 0.5], and over an empty interval
    for t in (0.5, 0.0):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            hyperbolic_length(UnitDisc(), lambda u: np.array([complex(u)]), 0.0, t, tol=tol)
    assert hyperbolic_length(UnitDisc(), lambda u: np.array([complex(u)]), 0.3, 0.3) == 0.0


def test_hyperbolic_length_radial_segment():
    val = hyperbolic_length(UnitDisc(), lambda t: np.array([t + 0j]), 0.0, 0.5)
    assert val == pytest.approx(math.atanh(0.5), abs=1e-8)


def test_hyperbolic_length_reparametrization_invariance():
    g = ball_geodesic_segment(2, [0.1, 0.2j], [-0.3, 0.4])
    t_end = g.interval.b

    def repar(u):  # monotone smooth [0,1] -> [0, t_end]
        return t_end * (u ** 2 + u) / 2.0

    direct = hyperbolic_length(UnitBall(2), g, 0.0, t_end)
    warped = hyperbolic_length(UnitBall(2), lambda u: g.sample(repar(u)), 0.0, 1.0)
    assert warped == pytest.approx(direct, abs=1e-6)


def test_hyperbolic_length_rejects_exiting_curve():
    with pytest.raises(NonInteriorError):
        hyperbolic_length(UnitDisc(), lambda t: np.array([t + 0j]), 0.0, 1.5)


# the tube over the interval (-log 4, log 4): the strip of Annulus(4.0) as a
# tube, so its deck search runs on the strip's values (its Reinhardt domain
# is that annulus)
STRIP_TUBE = TubeOverBase(EuclideanBall((0.0,), math.log(4.0)))


def test_deck_infimum_identical_points():
    found = deck_infimum(STRIP_TUBE, [0.2 + 1j], [(0, 0)])
    assert found[0].value == 0.0 and found[0].deck_index == (0,)
    found = deck_infimum(TubeOverBase(EuclideanBall((0.0, 0.0), 1.0)),
                         [[0.2 + 1j, -0.1 + 0.5j]], [(0, 0)])
    assert found[0].value == 0.0 and found[0].deck_index == (0, 0)


def test_deck_infimum_shift_by_period():
    u = np.array([-0.4 + 0.3j, 0.1 - 0.2j])
    v = np.array([0.2 - 0.2j, -0.3 + 0.4j])
    cover = TubeOverBase(EuclideanBall((0.0, 0.0), 1.0))
    base = deck_infimum(cover, [u, v], [(0, 1)])[0]
    shifted = deck_infimum(cover, [u, v + [2j * math.pi, 0.0]], [(0, 1)])[0]
    assert shifted.value == pytest.approx(base.value, abs=1e-14)
    assert shifted.deck_index[0] == base.deck_index[0] - 1


def test_deck_infimum_real_tube_points_minimize_at_zero():
    base = EuclideanBall((0.0, 0.0), 1.0)
    gen = np.random.default_rng(4)
    for _ in range(20):
        u = gen.uniform(-0.5, 0.5, size=2).astype(complex)
        v = gen.uniform(-0.5, 0.5, size=2).astype(complex)
        assert deck_infimum(TubeOverBase(base), [u, v], [(0, 1)])[0].deck_index == (0, 0)


def _sorted_points(points):
    # in the lexicographic order of (Re z, Im z), so every pair (i, j) with
    # i < j is already in the order `distances` evaluates it in
    return sorted(points, key=lambda z: (z[0].real, z[0].imag))


# each deck kind, its exp cover and the search that `distances` runs on it
DECK_SEARCHES = [
    (Annulus(4.0), Strip(4.0), "_nearest_translate"),
    (PuncturedDisc(), LeftHalfPlane(), "_nearest_translate"),
    (ReinhardtLog(STRIP_TUBE.base), STRIP_TUBE, "deck_infimum"),
    (ReinhardtLog(EuclideanBall((0.0, 0.0), 1.0)), TubeOverBase(EuclideanBall((0.0, 0.0), 1.0)),
     "deck_infimum"),
]


DECK_SEARCH_IDS = ["annulus", "punctured-disc", "reinhardt-1d", "reinhardt-ball"]


@pytest.mark.parametrize("domain, cover, search", DECK_SEARCHES, ids=DECK_SEARCH_IDS)
def test_deck_kinds_are_their_search_on_principal_logs(domain, cover, search):
    pts = np.array(_sorted_points(_interior_points(domain, 7, np.random.default_rng(31))))
    i, j = np.triu_indices(len(pts), 1)
    logs = np.log(np.abs(pts)) + 1j * np.angle(pts)
    got = distances(domain, pts, np.stack([i, j], axis=1))
    want = getattr(metric, search)(cover, logs, np.stack([i, j], axis=1))
    for column in ("value", "gap", "method", "deck_index"):
        assert getattr(got, column).tolist() == getattr(want, column).tolist()


@pytest.mark.parametrize("domain, cover, search", DECK_SEARCHES, ids=DECK_SEARCH_IDS)
def test_each_deck_distances_call_runs_one_search(domain, cover, search, monkeypatch):
    # one call of the kind's search per `distances` call, and none of the
    # other: the annulus and the punctured disc run no deck search
    calls = {"deck_infimum": [], "_nearest_translate": []}
    for name in calls:
        def counted(cover, points, pairs, found=getattr(metric, name), name=name):
            calls[name].append(len(pairs))
            return found(cover, points, pairs)
        monkeypatch.setattr(metric, name, counted)
    pts = _interior_points(domain, 5, np.random.default_rng(32))
    distances(domain, pts, [(0, 1), (1, 2), (3, 4), (4, 0)])
    distance(domain, pts[0], pts[2])
    assert calls.pop(search) == [4, 1]
    assert calls == {name: [] for name in calls}


def test_deck_brute_force_oracle():
    gen = np.random.default_rng(9)
    for _ in range(60):
        r1, r2 = gen.uniform(0.05, 0.95, 2)
        t1, t2 = gen.uniform(0, 2 * math.pi, 2)
        z, w = r1 * cmath.exp(1j * t1), r2 * cmath.exp(1j * t2)
        got = distance(PuncturedDisc(), z, w).value
        brute = min(cf.halfplane_distance(cmath.log(z), cmath.log(w) + 2j * math.pi * k)
                    for k in range(-10, 11))
        assert got == pytest.approx(brute, abs=1e-12)


def test_deck_bound_certification_failure(monkeypatch):
    # vertical far pair near the strip's edge: the certifying shell around
    # its nearest translate holds more lattice points than a cap of 3 allows
    monkeypatch.setattr(metric, "DECK_ENUM_CAP", 3)
    with pytest.raises(DeckBoundError, match="needs 5 lattice points"):
        deck_infimum(STRIP_TUBE, [0.0 + 0j, 1.38 + 40j], [(0, 1)])


def test_deck_search_box_is_centred_on_the_nearest_translate(monkeypatch):
    strip, u = STRIP_TUBE, [0.1 + 0j]
    # nu0 = -15,915: the value and deck index that a box about 0 found
    near = deck_infimum(strip, u + [0.2 + 1e5j], [(0, 1)])
    assert near.value[0].hex() == "0x1.c668d00f2e30cp+0"
    assert near.deck_index.tolist() == [[-15915]]
    # nu0 = -103,451, where a box about 0 needs 206,905 lattice points: the
    # search on the reduced pair v + 2 pi i nu0, shifted by nu0
    v = 0.2 + 6.5e5j
    nu0 = round(-v.imag / (2.0 * math.pi))
    far = deck_infimum(strip, u + [v], [(0, 1)])
    reduced = deck_infimum(strip, u + [v + 2j * math.pi * nu0], [(0, 1)])
    assert far.value[0] == pytest.approx(reduced.value[0], abs=1e-12)
    assert far.deck_index.tolist() == [[nu0 + int(reduced.deck_index[0, 0])]]
    # a nearest translate beyond the int64 range raises, with no cast warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DeckBoundError, match="int64 range"):
            deck_infimum(strip, u + [0.2 + 1e20j], [(0, 1)])
        # with an earlier failing pair, that pair's error is raised
        monkeypatch.setattr(metric, "DECK_ENUM_CAP", 3)
        points, pairs = [0j, 0.1 + 0j, 1.38 + 40j, 0.2 + 1e20j], [(0, 2), (1, 3)]
        with pytest.raises(DeckBoundError, match="needs 5 lattice points"):
            deck_infimum(strip, points, pairs)
        with pytest.raises(DeckBoundError, match="int64 range"):
            deck_infimum(strip, points, pairs[::-1])
        # a certifying radius beyond the int64 range (about 8.9e19 here) is
        # over the cap too
        wide = TubeOverBase(EuclideanBall((0.0,), 1e21))
        with pytest.raises(DeckBoundError, match="lattice points"):
            deck_infimum(wide, [0j, 0.5e21 + 1j], [(0, 1)])


def test_sandwich_gap_tolerance():
    base = EuclideanBall((0.0, 0.0), 1.0)
    z = np.array([0.2 + 0.4j, -0.1 + 0.2j])
    w = np.array([-0.3 - 0.2j, 0.4 + 0.1j])
    val = distance(TubeOverBase(base), z, w)
    assert val.method == "sandwich" and val.gap > 0.0
    assert val.value == pytest.approx(0.5 * (val.lower + val.upper))
    with pytest.raises(SandwichGapError):
        distance(TubeOverBase(base), z, w, gap_tol=val.gap / 10.0)


def test_gap_tolerance_is_checked_at_the_library_edge():
    # NaN would switch the gap check off and a negative tolerance would
    # fail every pair, exact ones too; None, 0 and inf are valid
    for bad in (math.nan, -1.0, -math.inf):
        with pytest.raises(DomainError, match="gap_tol"):
            distance(UnitDisc(), 0.1, 0.2, gap_tol=bad)
        with pytest.raises(DomainError, match="gap_tol"):
            distances(UnitDisc(), [0.1, 0.2], [], gap_tol=bad)
    for good in (None, 0.0, math.inf):
        assert distance(UnitDisc(), 0.1, 0.2, gap_tol=good) == distance(UnitDisc(), 0.1, 0.2)


def test_non_interior_rejected():
    with pytest.raises(NonInteriorError):
        distance(UnitDisc(), 0.0, 1.5)


def _interior_points(domain, count, gen):
    """Points around the kind's reference point, kept if interior (for the
    perturbed ellipsoid, inside the ball its sandwich needs); the imaginary
    parts of the tube-like kinds spread over a few units."""
    from kobalab.domains import ScaledEllipsoid, membership, reference_point
    from kobalab.scaling import inscribed_radius

    ref = reference_point(domain)
    r_in = (inscribed_radius(domain.eps, domain.t, domain.dim)
            if isinstance(domain, ScaledEllipsoid) else math.inf)
    pts = []
    while len(pts) < count:
        p = ref + 0.6 * (gen.uniform(-1, 1, ref.size) + 1j * gen.uniform(-1, 1, ref.size))
        if membership(domain, p) and np.linalg.norm(p) < r_in:
            pts.append(p)
    return pts


def _generic_reinhardt_points(count, gen):
    # log moduli in the disc of radius 0.85, arguments (log imaginary parts)
    # spread over [-2, 2]: pairs that need several deck shells
    pts = []
    for _ in range(count):
        r, th = 0.85 * math.sqrt(gen.uniform()), gen.uniform(0, 2 * math.pi)
        log = np.array([r * math.cos(th), r * math.sin(th)]) + 1j * gen.uniform(-2, 2, 2)
        pts.append(np.exp(log))
    return pts


def _assert_same(batch, single):
    # each pair's arithmetic is independent of the other pairs of its batch
    assert [(b.value, b.gap, b.method, b.deck_index) for b in batch] == \
        [(s.value, s.gap, s.method, s.deck_index) for s in single]


# bases whose support takes a product with a centre or a matrix
OFF_CENTRE = [
    TubeOverBase(EuclideanBall((0.4, -0.3), 1.1)),
    ReinhardtLog(EuclideanBall((0.3, -0.2), 0.9)),
    TubeOverBase(LinearImage(((1.0, 0.5), (0.0, 1.5)), EuclideanBall((0.1, 0.0), 1.0))),
]


# every kind, and the tube over every base kind
EVERY_KIND = ALL_DOMAINS + OFF_CENTRE + [
    TubeOverBase(Box((-1.0, -0.5), (1.0, 0.5))),
    TubeOverBase(to_polytope(EuclideanBall((0.0, 0.0), 1.0), 8)),
]


@pytest.mark.parametrize("domain", EVERY_KIND,
                         ids=[f"{k}-{type(d).__name__}" for k, d in enumerate(EVERY_KIND)])
def test_infinitesimal_metric_is_homogeneous_to_the_bit(domain):
    # k(z; 2^k v) is 2^k k(z; v) exactly, out to scales where the kinds'
    # squared norms would over- or underflow and their absolute thresholds
    # would fire
    gen = np.random.default_rng(24)
    z = _interior_points(domain, 1, gen)[0]
    v = gen.uniform(-1.0, 1.0, z.size) + 1j * gen.uniform(-1.0, 1.0, z.size)
    k = infinitesimal_metric(domain, z, v)
    assert 0.0 < k < math.inf
    for power in (-1000, -300, -60, 0, 60, 300, 1000):
        assert infinitesimal_metric(domain, z, v * 2.0 ** power) == math.ldexp(k, power), power


@pytest.mark.parametrize("domain", [TubeOverBase(EuclideanBall((0.0, 0.0), 1.0)), UnitBall(2)],
                         ids=repr)
@pytest.mark.parametrize("scale", [1e100, 1e160, 1e-100, 1e-200])
def test_infinitesimal_metric_at_extreme_scales(domain, scale):
    # unscaled, the tube's S-lemma certificate failed at 1e100, its chord
    # gave nan at 1e160 and its absolute thresholds fired at 1e-100 and
    # 1e-200, and the ball's squared norms overflowed at 1e160 and
    # underflowed at 1e-200
    z = np.array([0.1, 0.2])
    want = scale * infinitesimal_metric(domain, z, [1.0, 0.0])
    got = infinitesimal_metric(domain, z, [scale, 0.0])
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("domain", ALL_DOMAINS + OFF_CENTRE, ids=repr)
def test_distances_equal_per_pair_distance(domain):
    gen = np.random.default_rng(21)
    pts = _interior_points(domain, 5, gen)
    pairs = [(i, j) for i in range(len(pts)) for j in range(len(pts))]
    single = [distance(domain, pts[i], pts[j]) for i, j in pairs]
    _assert_same(distances(domain, pts, pairs), single)


def test_distances_generic_reinhardt_pairs():
    domain = ReinhardtLog(EuclideanBall((0.0, 0.0), 1.0))
    pts = _generic_reinhardt_points(8, np.random.default_rng(22))
    pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
    single = [distance(domain, pts[i], pts[j]) for i, j in pairs]
    _assert_same(distances(domain, pts, pairs), single)
    assert any(v.deck_index != (0, 0) for v in single)


def test_reinhardt_log_over_an_interval_is_an_annulus():
    # over the base (c - r, c + r) the domain is e^(c-r) < |z| < e^(c+r), the
    # annulus of R = e^r scaled by e^c; its exp cover is a strip, so the deck
    # search over the 1-d tube is exact
    c, r = 0.4, 0.9
    domain = ReinhardtLog(EuclideanBall((c,), r))
    gen = np.random.default_rng(24)
    logs = c + 0.85 * r * gen.uniform(-1, 1, 6) + 1j * gen.uniform(-3, 3, 6)
    pts = [np.array([cmath.exp(x)]) for x in logs]
    pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
    values = distances(domain, pts, pairs)
    for (i, j), got in zip(pairs, values):
        assert (got.method, got.gap) == ("deck-infimum", 0.0)
        # brute force over the deck translates of the strip of half-width r
        want = min(cf.strip_distance(r, logs[i] - c, logs[j] - c + 2j * math.pi * k)
                   for k in range(-4, 5))
        assert got.value == pytest.approx(want, abs=1e-12)
        scaled = distance(Annulus(math.exp(r)), pts[i] * math.exp(-c), pts[j] * math.exp(-c))
        assert got.value == pytest.approx(scaled.value, abs=1e-12)
    assert any(v.deck_index != (0,) for v in values)


def test_distances_lattice_bound_raises_on_the_same_pair(monkeypatch):
    # a cap of 3 lattice points per shell leaves some pairs uncertified; the
    # domain is Annulus(4.0) as a Reinhardt domain, which is searched
    monkeypatch.setattr(metric, "DECK_ENUM_CAP", 3)
    domain = ReinhardtLog(STRIP_TUBE.base)
    pts = [np.array([0.3 + 0.05j]), np.array([3.5 - 1.0j]), np.array([-3.6 + 0.5j]),
           np.array([3.94 + 0j]), np.array([3.98 * cmath.exp(-2.5j)])]
    pairs = [(0, 1), (0, 2), (3, 4)]
    messages = []
    for i, j in pairs:
        try:
            distance(domain, pts[i], pts[j])
            messages.append(None)
        except DeckBoundError as exc:
            messages.append(str(exc))
    # the first pair certifies, the other two fail with different messages
    assert messages[0] is None and None not in messages[1:] and messages[1] != messages[2]
    with pytest.raises(DeckBoundError) as exc:
        distances(domain, pts, pairs)
    assert str(exc.value) == messages[1]
    with pytest.raises(DeckBoundError) as exc:
        distances(domain, pts, pairs[::-1])
    assert str(exc.value) == messages[2]


@pytest.mark.parametrize("case", [test_distances_lattice_bound_raises_on_the_same_pair,
                                  test_deck_search_box_is_centred_on_the_nearest_translate])
def test_first_failing_pair_error_holds_in_small_shell_blocks(case, monkeypatch):
    # every pair in a shell block of its own: the errors, and the results of
    # the pairs that certify, are those of one block
    monkeypatch.setattr(metric, "_SHELL_BLOCK", 1)
    case(monkeypatch)


def test_distances_is_symmetric_and_empty():
    domain = ReinhardtLog(EuclideanBall((0.0, 0.0), 1.0))
    pts = _generic_reinhardt_points(4, np.random.default_rng(23))
    forward = distances(domain, pts, [(0, 1), (2, 3)])
    backward = distances(domain, pts, [(1, 0), (3, 2)])
    assert forward == backward
    assert distances(domain, pts, []) == []
    with pytest.raises(NonInteriorError):
        distances(UnitDisc(), [0.0, 1.5], [])
