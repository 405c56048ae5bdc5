"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure next to its pinned tolerance.  Run with `pytest -s
tests/test_acceptance.py` to see the lines."""

import cmath
import json
import math
import time
from pathlib import Path

import numpy as np

import kobalab as kl
from kobalab import closed_forms as cf

SEED = 0


def _ok(name, detail):
    print(f"ACCEPT {name}: PASS ({detail})")


def _ball_pt(gen, n, radius=0.9):
    g = gen.normal(size=n) + 1j * gen.normal(size=n)
    return radius * gen.uniform() ** (1 / (2 * n)) * g / np.linalg.norm(g)


# -- 1 ----------------------------------------------------------------------

def test_01_metric_axioms():
    gen = np.random.default_rng(SEED)
    samplers = {
        "unit-disc": (kl.UnitDisc(), lambda: np.array([_disc(gen)])),
        "strip": (kl.Strip(4.0), lambda: np.array([complex(gen.uniform(-1.3, 1.3),
                                                           gen.uniform(-4, 4))])),
        "unit-ball-2": (kl.UnitBall(2), lambda: _ball_pt(gen, 2)),
        "polydisc-2": (kl.Polydisc(2), lambda: np.array([_disc(gen), _disc(gen)])),
    }
    start = time.perf_counter()
    worst_triangle = 0.0
    for name, (domain, sample) in samplers.items():
        for _ in range(1000):
            z, w, v = sample(), sample(), sample()
            dzw = kl.distance(domain, z, w).value
            assert kl.distance(domain, w, z).value == dzw  # exact symmetry
            assert kl.distance(domain, z, z).value == 0.0
            viol = dzw - kl.distance(domain, z, v).value - kl.distance(domain, v, w).value
            worst_triangle = max(worst_triangle, viol)
            assert viol < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _ok("01 metric-axioms", f"worst triangle violation {worst_triangle:.2e}, {elapsed:.2f}s")


def _disc(gen, radius=0.9):
    r = radius * math.sqrt(gen.uniform())
    return r * cmath.exp(1j * gen.uniform(0, 2 * math.pi))


# -- helpers shared by 2 and 3 ------------------------------------------------

def _fifty_geodesics():
    gen = np.random.default_rng(SEED + 1)
    out = []
    for _ in range(10):  # ball segments across dimensions
        n = int(gen.integers(1, 4))
        z, w = _ball_pt(gen, n, 0.7), _ball_pt(gen, n, 0.7)
        if np.allclose(z, w):
            continue
        out.append((kl.UnitBall(n), kl.ball_geodesic_segment(n, z, w)))
    for _ in range(8):  # landing rays
        n = int(gen.integers(1, 4))
        p = gen.normal(size=n) + 1j * gen.normal(size=n)
        p = p / np.linalg.norm(p)
        out.append((kl.UnitBall(n), kl.ball_landing_ray(n, _ball_pt(gen, n, 0.6), p)))
    for r_val, h in [(2.0, 0.0), (2.0, 1.0), (4.0, -2.0), (4.0, 0.5),
                     (math.e, 0.3), (4.0, 3.0), (2.0, -0.7), (math.e, -1.5)]:
        out.append((kl.Strip(r_val), kl.strip_crossing_geodesic(r_val, h)))
    from kobalab.geodesics import annulus_radial_geodesic, disc_radial_geodesic

    for r_val, ph in [(2.0, 0.0), (2.0, 1.2), (4.0, 2.5), (4.0, 4.0),
                      (2.0, 3.3), (4.0, 0.7), (2.0, 5.1), (4.0, 1.9)]:
        out.append((kl.Annulus(r_val), annulus_radial_geodesic(r_val, ph)))
    for k in range(8):
        omega = cmath.exp(2j * math.pi * k / 8)
        out.append((kl.PuncturedDisc(), disc_radial_geodesic(omega)))
    ball = kl.EuclideanBall((0.0, 0.0), 1.0)
    for k in range(4):  # antipodal lines over the ball base (diametral)
        th = math.pi * k / 4
        d = np.array([math.cos(th), math.sin(th)])
        pair = kl.AntipodalPair(ball, tuple(d), tuple(-d))
        out.append((kl.ReinhardtLog(ball), kl.antipodal_geodesic(ball, pair)))
    box = kl.Box((-1.0, -0.5), (1.0, 0.5))
    for x, y in [((1.0, 0.2), (-1.0, -0.1)), ((0.4, 0.5), (-0.2, -0.5)),
                 ((1.0, -0.3), (-1.0, 0.4)), ((-0.6, 0.5), (0.1, -0.5))]:
        pair = kl.AntipodalPair(box, x, y)
        out.append((kl.ReinhardtLog(box), kl.antipodal_geodesic(box, pair)))
    return out[:50]


# -- 2 ----------------------------------------------------------------------

def test_02_geodesic_defining_identity():
    gen = np.random.default_rng(SEED + 2)
    geos = _fifty_geodesics()
    assert len(geos) == 50
    worst = 0.0
    for domain, curve in geos:
        lo, hi = curve.window(6.0)
        s, t = sorted(gen.uniform(lo, hi, 2))
        if t - s < 1e-3:
            t = min(hi, s + 0.25 * (hi - lo))
        length = kl.hyperbolic_length(domain, curve, s, t)
        dist = kl.distance(domain, curve.sample(s), curve.sample(t)).value
        worst = max(worst, abs(length - dist))
        assert abs(length - dist) < 2e-6
    _ok("02 geodesic-defining-identity", f"50 geodesics, worst |length-dist| {worst:.2e}")


# -- 3 ----------------------------------------------------------------------

def test_03_arc_length_law():
    gen = np.random.default_rng(SEED + 3)
    curves = []
    for _ in range(6):
        n = int(gen.integers(1, 4))
        z, w = _ball_pt(gen, n, 0.7), _ball_pt(gen, n, 0.7)
        if np.allclose(z, w):
            continue
        curves.append((kl.UnitBall(n), kl.ball_geodesic_segment(n, z, w)))
    for _ in range(4):
        n = int(gen.integers(1, 4))
        p = gen.normal(size=n) + 1j * gen.normal(size=n)
        p = p / np.linalg.norm(p)
        curves.append((kl.UnitBall(n), kl.ball_landing_ray(n, _ball_pt(gen, n, 0.5), p)))
    curves.append((kl.Strip(4.0), kl.to_arc_length(kl.strip_crossing_geodesic(4.0, 0.8))))
    from kobalab.geodesics import annulus_radial_geodesic

    curves.append((kl.Annulus(4.0), kl.to_arc_length(annulus_radial_geodesic(4.0, 1.1))))
    worst = 0.0
    for domain, curve in curves:
        assert curve.parametrization == "arc-length"
        lo, hi = curve.window(5.0)
        ts = np.linspace(lo, hi, 32)
        pairs = [(ts[i], ts[j]) for i in range(0, 32, 4) for j in range(i + 1, 32, 4)]
        for s, t in pairs[:32]:
            d = kl.distance(domain, curve.sample(float(s)), curve.sample(float(t))).value
            worst = max(worst, abs(d - abs(t - s)))
            assert abs(d - abs(t - s)) < 1e-6
    _ok("03 arc-length-law", f"{len(curves)} arc-length geodesics, worst {worst:.2e}")


# -- 4 ----------------------------------------------------------------------

def test_04_deck_oracle_equivalence():
    gen = np.random.default_rng(SEED + 4)
    worst = 0.0
    a = math.log(4.0)
    for _ in range(200):
        z = _annulus_pt(gen, 4.0)
        w = _annulus_pt(gen, 4.0)
        got = kl.distance(kl.Annulus(4.0), z, w).value
        brute = min(cf.strip_distance(a, cmath.log(z[0]), cmath.log(w[0]) + 2j * math.pi * k)
                    for k in range(-10, 11))
        worst = max(worst, abs(got - brute))
        assert abs(got - brute) < 1e-12
    for _ in range(200):
        z = np.array([_disc(gen, 0.95)])
        w = np.array([_disc(gen, 0.95)])
        if abs(z[0]) < 0.02 or abs(w[0]) < 0.02:
            continue
        got = kl.distance(kl.PuncturedDisc(), z, w).value
        brute = min(cf.halfplane_distance(cmath.log(z[0]), cmath.log(w[0]) + 2j * math.pi * k)
                    for k in range(-10, 11))
        worst = max(worst, abs(got - brute))
        assert abs(got - brute) < 1e-12
    # real-positive pairs minimize at nu = 0
    for _ in range(50):
        t, s = gen.uniform(0.3, 3.5, 2)
        val = kl.distance(kl.Annulus(4.0), [t], [s])
        assert val.deck_index == (0,)
    _ok("04 deck-oracle", f"400 pairs vs brute-force scan, worst gap {worst:.2e}")


def _annulus_pt(gen, R):
    a = math.log(R)
    return np.array([math.exp(gen.uniform(-0.9 * a, 0.9 * a))
                     * cmath.exp(1j * gen.uniform(0, 2 * math.pi))])


# -- 5 ----------------------------------------------------------------------

def test_05_power_map_example():
    for n in (2, 3, 5):
        bundle = kl.reproduce_example("power-disc", n=n, seed=SEED)
        report = bundle["report"]
        assert report.verdict == "isometric-along-family"
        assert report.max_deviation < 1e-9
        assert report.completeness["complete"]
        if n >= 2:
            assert len(report.collisions) >= 1
        assert bundle["passed"]
    _ok("05 power-map-example", "n in {2,3,5}: isometric < 1e-9, collisions found")


# -- 6 ----------------------------------------------------------------------

def test_06_exp_annulus_example():
    bundle = kl.reproduce_example("exp-annulus", R=4.0, seed=SEED)
    report = bundle["report"]
    assert report.verdict == "isometric-along-family"
    assert report.max_deviation < 1e-9
    assert report.completeness["grid_size"] == 256
    assert report.completeness["complete"] and report.completeness["tol"] == 1e-6
    assert bundle["assertions"]["non_proper"]
    assert bundle["passed"]
    _ok("06 exp-annulus", f"max dev {report.max_deviation:.2e}, 256/256 covered, non-proper")


# -- 7 ----------------------------------------------------------------------

def test_07_monomial_tube_example():
    bundle = kl.reproduce_example("monomial-tube", n=2, seed=SEED)
    report = bundle["report"]
    assert len(report.per_geodesic) == 20
    max_gap = max(g.max_gap for g in report.per_geodesic)
    assert report.max_deviation < 1e-6  # bracket separation: gap-widened tolerance
    assert max_gap < 1e-3
    assert bundle["multiplicity"] == 4
    assert bundle["assertions"]["multiplicity_is_det"]
    assert bundle["passed"]
    _ok("07 monomial-tube", f"20 antipodal geodesics, dev {report.max_deviation:.2e}, "
                            f"gap {max_gap:.2e}, multiplicity 4 on 50 targets")


# -- 8 ----------------------------------------------------------------------

def test_08_schwarz_pick_contraction():
    gen = np.random.default_rng(SEED + 8)
    ball = kl.EuclideanBall((0.0, 0.0), 1.0)
    maps = [
        kl.identity_map(kl.PuncturedDisc()),
        kl.power_map(2), kl.power_map(3), kl.power_map(5),
        kl.exp_strip_cover(4.0),
        kl.exp_tube_cover(ball),
        kl.monomial_map(((2, 0), (0, 2)), ball),
        kl.monomial_map(((1, 1), (0, 2)), ball),
        kl.ball_mobius_map(0.3, 2),
        kl.ball_mobius_map(0.7, 3),
        kl.compose_maps(kl.power_map(2), kl.power_map(3)),
    ]
    worst = -math.inf
    for f in maps:
        for _ in range(500):
            z, w = _pair_for(f.source, gen)
            d_src = kl.distance(f.source, z, w)
            d_tgt = kl.distance(f.target, kl.apply_map(f, z), kl.apply_map(f, w))
            excess = d_tgt.lower - d_src.upper
            worst = max(worst, excess)
            assert excess <= 1e-9
    _ok("08 schwarz-pick", f"{len(maps)} maps x 500 pairs, worst certified excess {worst:.2e}")


def _pair_for(src, gen):
    if isinstance(src, kl.PuncturedDisc):
        def pt():
            return np.array([gen.uniform(0.05, 0.95) * cmath.exp(1j * gen.uniform(0, 2 * math.pi))])
    elif isinstance(src, kl.Strip):
        def pt():
            return np.array([complex(gen.uniform(-1.2, 1.2), gen.uniform(-3, 3))])
    elif isinstance(src, kl.TubeOverBase):
        def pt():
            g = gen.normal(size=2)
            g = 0.85 * gen.uniform() ** 0.5 * g / np.linalg.norm(g)
            return g + 1j * gen.uniform(-2, 2, 2)
    elif isinstance(src, kl.ReinhardtLog):
        def pt():
            g = gen.normal(size=2)
            g = 0.85 * gen.uniform() ** 0.5 * g / np.linalg.norm(g)
            return np.exp(g) * np.exp(1j * gen.uniform(0, 2 * math.pi, 2))
    elif isinstance(src, kl.UnitBall):
        def pt():
            return _ball_pt(gen, src.dim, 0.85)
    else:
        raise AssertionError(src)
    return pt(), pt()


# -- 9 ----------------------------------------------------------------------

def test_09_scaling_metric_convergence():
    start = time.perf_counter()
    exact = kl.metric_convergence_probe(0.0, [0.5, 0.9, 0.99])
    assert exact.summary()["max_deviation"] == 0.0
    table = kl.metric_convergence_probe(0.05, [0.5, 0.9, 0.99])
    per_t = table.max_deviation_per_t()
    devs = [d for _t, d in per_t]
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] < 1e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok("09 scaling-metric", f"eps=0 exact; eps=0.05 devs {devs[0]:.3f} > {devs[1]:.4f} > "
                             f"{devs[2]:.5f} < 1e-2, {elapsed:.1f}s")


# -- 10 ---------------------------------------------------------------------

def test_10_geodesic_persistence():
    table = kl.geodesic_persistence_probe(0.0, [0.5, 0.9, 0.99],
                                          np.array([0.0, 0.5], dtype=complex), window=5.0)
    per_t = table.max_deviation_per_t()
    final = dict(per_t)[0.99]
    assert final < 1e-3
    assert table.monotone_decreasing(slack=1e-9)
    _ok("10 geodesic-persistence", f"sup deviation at t=0.99 is {final:.2e} < 1e-3, monotone")


# -- 11 ---------------------------------------------------------------------

def test_11_positive_control_ball_mobius():
    from kobalab.checker import quasirandom_grid

    fam = kl.ball_landing_family(2, [1.0, 0.0])
    worst = 0.0
    for t in (0.3, 0.6, 0.9):
        f = kl.ball_mobius_map(t, 2)
        report = kl.audit_isometry(f, fam)
        assert report.verdict == "isometric-along-family"
        worst = max(worst, report.max_deviation)
        assert report.max_deviation < 1e-9
        assert kl.injectivity_probe(f, quasirandom_grid(kl.UnitBall(2), 64)) == []
    _ok("11 positive-control", f"A_t audits max deviation {worst:.2e}, no collisions")


# -- 12 ---------------------------------------------------------------------

def test_12_cli_determinism(tmp_path):
    from kobalab.cli import main

    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["examples", "--seed", "0", "--format", "json", "--out", str(out_a)]) == 0
    assert main(["examples", "--seed", "0", "--format", "json", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    golden = json.loads((Path(__file__).parent / "data" / "examples_seed0.json").read_text())
    worst = _golden_match(json.loads(out_a.read_text()), golden, "examples")
    _ok("12 determinism", f"two runs byte-identical ({out_a.stat().st_size} bytes); "
                          f"golden record matched, worst float difference {worst:.1e} <= 1e-12")


def _golden_match(got, want, path: str) -> float:
    """Compare a JSON value with its recorded golden copy: keys, strings,
    booleans and integers identical, floats within 1e-12 absolute.  Returns
    the largest float difference."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        return max((_golden_match(got[k], want[k], f"{path}.{k}") for k in want), default=0.0)
    if isinstance(want, list):
        assert len(got) == len(want), path
        return max((_golden_match(g, w, f"{path}[{i}]")
                    for i, (g, w) in enumerate(zip(got, want))), default=0.0)
    if isinstance(want, float):
        assert abs(got - want) <= 1e-12, (path, got, want)
        return abs(got - want)
    assert got == want, path
    return 0.0
