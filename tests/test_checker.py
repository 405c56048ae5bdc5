import math
import re

import numpy as np
import pytest

import kobalab
from kobalab import (EuclideanBall, PuncturedDisc, ReinhardtLog, Strip, UnitBall,
                     UnitDisc, audit_isometry, ball_landing_family, ball_mobius_map,
                     completeness_check, exp_strip_cover, identity_map,
                     injectivity_probe, monomial_map, power_map, properness_probe,
                     radial_family, reproduce_example, strip_crossing_family)
from kobalab.checker import polar_orbit_grid, quasirandom_grid, reinhardt_sign_grid, strip_lattice_grid
from kobalab.domains import DomainError
from kobalab.geodesics import ball_geodesic_segment, to_arc_length
from kobalab.serialize import corrupted_radial_family, family_from_dict


def test_identity_audit_is_exact():
    fam = radial_family(6, punctured=False)
    report = audit_isometry(identity_map(UnitDisc()), fam, samples=12)
    assert report.verdict == "isometric-along-family"
    assert report.max_deviation == 0.0


def test_power_map_audit():
    fam = radial_family(8)
    report = audit_isometry(power_map(2), fam, samples=16)
    assert report.verdict == "isometric-along-family"
    assert report.max_deviation < 1e-9


def test_corrupted_family_is_flagged():
    fam = corrupted_radial_family(4, wobble=2.0)
    report = audit_isometry(power_map(2), fam, samples=16)
    assert report.verdict == "violated"
    assert report.max_deviation > 1e-3


def test_exp_annulus_audit():
    fam = strip_crossing_family(4.0, tuple(np.linspace(-3, 3, 5)))
    report = audit_isometry(exp_strip_cover(4.0), fam, samples=16)
    assert report.verdict == "isometric-along-family"


def test_audit_parametrization_independence():
    fam = strip_crossing_family(4.0, (0.5,))
    f = exp_strip_cover(4.0)
    affine_report = audit_isometry(f, fam, samples=12)
    arc_member = to_arc_length(fam.members[0])
    from kobalab.geodesics import GeodesicFamily

    arc_fam = GeodesicFamily(fam.domain, (arc_member,), None, None, "arc")
    arc_report = audit_isometry(f, arc_fam, samples=12)
    # K-values depend on points only; both runs must stay at rounding level
    assert affine_report.max_deviation < 1e-9
    assert arc_report.max_deviation < 1e-9


def test_completeness_checks():
    fam = radial_family(8)
    rec = completeness_check(fam, quasirandom_grid(PuncturedDisc(), 64), tol=1e-6)
    assert rec["complete"]
    # a single ball geodesic cannot cover a 2-d grid
    seg = ball_geodesic_segment(2, [0.0, 0.0], [0.5, 0.0])
    from kobalab.geodesics import GeodesicFamily

    single = GeodesicFamily(UnitBall(2), (seg,), None, None, "single")
    grid = [np.array([0.2 + 0.2j, 0.4 + 0.1j]), np.array([0.0 + 0.5j, -0.2 + 0.0j])]
    rec2 = completeness_check(single, grid, tol=1e-6)
    assert not rec2["complete"]
    fam3 = strip_crossing_family(4.0)
    rec3 = completeness_check(fam3, quasirandom_grid(Strip(4.0), 64), tol=1e-6)
    assert rec3["complete"]


def test_completeness_empty_family_rejected():
    from kobalab.geodesics import GeodesicFamily

    with pytest.raises(ValueError):
        completeness_check(GeodesicFamily(UnitDisc(), ()), [np.array([0.0 + 0j])])


def test_completeness_of_an_empty_grid():
    want = {"grid_size": 0, "covered": 0, "max_miss": 0.0, "tol": 1e-6, "complete": True}
    assert completeness_check(radial_family(8), []) == want
    assert completeness_check(corrupted_radial_family(2), np.empty((0, 1))) == want


@pytest.mark.parametrize("family,point", [
    (radial_family(8), [1.5]),
    (strip_crossing_family(4.0), [5.0 + 1.0j]),
    (kobalab.antipodal_family(EuclideanBall((0.0, 0.0), 1.0), 20), [3.0, 1.0]),
    (radial_family(8), [0.0]),  # the puncture
    (corrupted_radial_family(2), [1.5]),
], ids=["radial", "strip-crossing", "antipodal", "radial-puncture", "scan"])
def test_completeness_refuses_points_outside_the_domain(family, point):
    # a locator would place them on a member's extension beyond its interval
    from kobalab.domains import NonInteriorError

    rows = quasirandom_grid(family.domain, 4)
    bad = np.array(point, dtype=complex)
    grid = [rows[0], rows[1], bad, 2.0 * bad + 3.0, rows[2]]
    with pytest.raises(NonInteriorError, match=re.escape(f"point {bad} is not interior to "
                                                         f"{family.domain!r}")):
        completeness_check(family, grid)


def _reference_scan(family, grid):
    """Each point's smallest miss over SCAN_SAMPLES samples per member, one
    point and one sample at a time."""
    from kobalab.checker import SCAN_SAMPLES

    misses = []
    for z in grid:
        miss = math.inf
        for member in family.members:
            for t in np.linspace(*member.window(), SCAN_SAMPLES):
                cand = float(np.max(np.abs(member.sample(float(t)) - z)))
                if cand < miss:
                    miss = cand
        misses.append(miss)
    return misses


def test_completeness_scan_equals_the_per_point_scan(monkeypatch):
    from kobalab import checker
    from kobalab.geodesics import GeodesicFamily

    seg = ball_geodesic_segment(2, [0.0, 0.0], [0.5, 0.0])
    single = GeodesicFamily(UnitBall(2), (seg,), None, None, "single")
    cases = [(corrupted_radial_family(3), quasirandom_grid(PuncturedDisc(), 12)),
             (single, np.array([[0.2 + 0.2j, 0.4 + 0.1j], [0.0 + 0.5j, -0.2 + 0.0j],
                                [0.25 + 0.0j, 0.0 + 0.0j]]))]
    for family, grid in cases:
        want = _reference_scan(family, grid)
        rec = completeness_check(family, grid, tol=1e-3)
        assert rec["max_miss"] == max(want)
        assert rec["covered"] == sum(m < 1e-3 for m in want)
        for block in (1, 399, 400, 401, 1 << 16):
            monkeypatch.setattr(checker, "_SCAN_BLOCK", block)
            assert checker._scan_misses(family, grid).tolist() == want


def test_completeness_locates_each_grid_in_one_call(monkeypatch):
    import dataclasses

    from kobalab import ball_segment_family, geodesics

    ball = EuclideanBall((0.0, 0.0), 1.0)
    cases = [(radial_family(12), PuncturedDisc()), (strip_crossing_family(4.0), Strip(4.0)),
             (kobalab.antipodal_family(ball, 20), ReinhardtLog(ball)),
             (ball_segment_family(2, [0.1, 0.2j]), UnitBall(2)),
             (ball_landing_family(2, [1.0, 0.0]), UnitBall(2))]
    built = []
    monkeypatch.setattr(geodesics, "GeodesicCurve", lambda *args, **kw: built.append(args))
    for family, domain in cases:
        calls = []

        def locate(rows, locate=family.member_through):
            calls.append(len(rows))
            return locate(rows)

        rec = completeness_check(dataclasses.replace(family, member_through=locate),
                                 quasirandom_grid(domain, 256))
        assert rec["complete"] and calls == [256]
    assert built == []


def test_injectivity_probe():
    f = power_map(2)
    grid = [np.array([0.5 + 0j]), np.array([-0.5 + 0j]), np.array([0.3 + 0j])]
    cols = injectivity_probe(f, grid)
    assert len(cols) == 1 and cols[0]["deck_pair"]
    assert injectivity_probe(identity_map(UnitDisc()), grid) == []
    # a power map's grid without collisions
    assert injectivity_probe(f, polar_orbit_grid(radii=(0.5,), angles=7)) == []


def test_injectivity_monomial_sign_classes():
    ball = EuclideanBall((0.0, 0.0), 1.0)
    f = monomial_map(((2, 0), (0, 2)), ball)
    grid = reinhardt_sign_grid(ball)
    cols = injectivity_probe(f, grid)
    # each modulus class contributes C(4,2) = 6 colliding pairs
    assert len(cols) >= 6
    assert all(c["deck_pair"] for c in cols)


def test_grids_are_rows_and_probes_convert_once(monkeypatch):
    ball = EuclideanBall((0.0, 0.0, 0.0), 1.0)
    for grid, n in ((polar_orbit_grid(), 1), (strip_lattice_grid(4.0), 1),
                    (reinhardt_sign_grid(ball), 3)):
        assert isinstance(grid, np.ndarray) and grid.dtype == complex and grid.shape[1] == n
    f = power_map(2)
    grid = polar_orbit_grid()
    want = injectivity_probe(f, grid)
    assert want and _exact(injectivity_probe(f, list(grid))) == _exact(want)
    assert injectivity_probe(f, [0.5, -0.5, 0.3]) == injectivity_probe(f, [[0.5], [-0.5], [0.3]])
    # malformed and non-finite points raise the errors of `as_point`
    for bad, message in (([[[0.5]], [[0.3]]], "a point must be"), ([[], []], "a point must be"),
                         ([0.5, complex(math.nan, 0.0)], "non-finite"),
                         ([[0.5, 0.1], [math.inf, 0.2]], "non-finite")):
        with pytest.raises(DomainError, match=message):
            injectivity_probe(f, bad)
        with pytest.raises(DomainError, match=message):
            properness_probe(f, [bad])
    # one row-wise `apply` per escaping sequence
    calls = []
    apply = type(f).apply
    monkeypatch.setattr(type(f), "apply", lambda self, zs: calls.append(zs.shape) or apply(self, zs))
    properness_probe(f, [[0.5, 0.9, 0.99], [[0.1], [0.01]]])
    assert calls == [(3, 1), (2, 1)]


def test_properness_probe():
    f = power_map(2)
    omega = np.exp(0.4j)
    to_circle = [[np.array([(1 - 2.0 ** -k) * omega])] for k in range(1, 11)]
    seqs = [[np.array([(1 - 2.0 ** -k) * omega]) for k in range(1, 11)],
            [np.array([2.0 ** -k * omega]) for k in range(1, 11)]]
    rep = properness_probe(f, seqs)
    assert rep["proper_compatible"]
    g = exp_strip_cover(4.0)
    rep2 = properness_probe(g, [[np.array([complex(0, 2.0 ** k)]) for k in range(1, 11)]])
    assert not rep2["proper_compatible"]
    rep3 = properness_probe(identity_map(UnitDisc()),
                            [[np.array([(1 - 2.0 ** -k) * omega]) for k in range(1, 11)]])
    assert rep3["proper_compatible"]


def test_positive_control_ball_mobius():
    fam = ball_landing_family(2, [1.0, 0.0])
    f = ball_mobius_map(0.5, 2)
    report = audit_isometry(f, fam, samples=16)
    assert report.verdict == "isometric-along-family"
    assert report.max_deviation < 1e-9
    grid = quasirandom_grid(UnitBall(2), 40)
    assert injectivity_probe(f, grid) == []


def test_polar_orbit_grid_closed_under_rotations():
    grid = polar_orbit_grid(radii=(0.5,), angles=30)
    zs = {complex(np.round(z[0], 12)) for z in grid}
    rot = np.exp(2j * math.pi / 3)
    for z in list(zs)[:10]:
        assert complex(np.round(z * rot, 12)) in zs or any(
            abs(z * rot - other) < 1e-9 for other in zs)


def test_strip_lattice_grid_has_period_pairs():
    grid = strip_lattice_grid(4.0)
    vals = [z[0] for z in grid]
    found = any(abs(a - b - 2j * math.pi) < 1e-12 for a in vals for b in vals)
    assert found


def test_reproduce_example_power():
    bundle = reproduce_example("power-disc", n=2, samples=12)
    assert bundle["passed"]
    assert bundle["report"].verdict == "isometric-along-family"
    assert len(bundle["report"].collisions) >= 1
    bundle_n1 = reproduce_example("power-disc", n=1, samples=8)
    # n = 1 is a biholomorphism: no collisions expected, still isometric
    assert bundle_n1["assertions"]["collisions_found"]
    assert bundle_n1["passed"]


def test_reproduce_example_exp():
    bundle = reproduce_example("exp-annulus", samples=12)
    assert bundle["passed"]
    assert bundle["assertions"]["non_proper"]


def test_reproduce_example_monomial():
    bundle = reproduce_example("monomial-tube", n=2, samples=8)
    assert bundle["passed"]
    assert bundle["multiplicity"] == 4


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        reproduce_example("no-such-example")


def test_family_from_dict():
    fam = family_from_dict({"kind": "radial", "count": 5})
    assert len(fam.members) == 5
    fam2 = family_from_dict({"kind": "antipodal",
                             "base": {"kind": "ball", "center": [0, 0], "radius": 1}})
    assert isinstance(fam2.domain, ReinhardtLog)
    fam3 = family_from_dict({"kind": "strip-crossing", "R": 3.0, "heights": [0.0, 1.0]})
    assert len(fam3.members) == 2


_BALL2_DESC = {"kind": "ball", "center": [0, 0], "radius": 1}


def _family_kinds():
    """(descriptor, the family built directly) for each family kind."""
    from kobalab.geodesics import antipodal_family, ball_segment_family

    ball = EuclideanBall((0.0, 0.0), 1.0)
    return [
        ({"kind": "radial", "count": 5, "punctured": False}, radial_family(5, False)),
        ({"kind": "radial"}, radial_family(12, True)),
        ({"kind": "strip-crossing", "R": 3, "heights": [0, 1.5]},
         strip_crossing_family(3.0, (0.0, 1.5))),
        ({"kind": "ball-segment", "dim": 2, "p": [[0.1, 0], [0, 0.2]],
          "targets": [[[0.3, 0], [0, 0]], "[[0,0],[0,-0.4]]"]},
         ball_segment_family(2, [0.1, 0.2j], ([0.3, 0.0], [0.0, -0.4j]))),
        ({"kind": "ball-segment", "dim": 2, "p": [[0, 0], [0.5, 0]]},
         ball_segment_family(2, [0.0, 0.5])),
        ({"kind": "ball-landing", "dim": 2, "p": [[0, 0], [1, 0]], "starts": ["[[0.1,0],[0,0]]"]},
         ball_landing_family(2, [0.0, 1.0], ([0.1, 0.0],))),
        ({"kind": "antipodal", "base": _BALL2_DESC, "count": 3, "with_phases": True},
         antipodal_family(ball, 3, True)),
        ({"kind": "corrupted-radial", "count": 4, "wobble": 1.0},
         corrupted_radial_family(4, 1.0)),
    ]


@pytest.mark.parametrize("k", range(len(_family_kinds())))
def test_family_descriptor_decodes_to_the_built_family(k, validate_schema):
    from kobalab import serialize

    assert {data["kind"] for data, _ in _family_kinds()} == set(serialize._FAMILIES)
    data, want = _family_kinds()[k]
    validate_schema("family.json", data)
    got = family_from_dict(data)
    assert (got.domain, got.anchor, got.label) == (want.domain, want.anchor, want.label)
    assert [m.label for m in got.members] == [m.label for m in want.members]
    assert (got.member_through is None) == (want.member_through is None)
    for mine, theirs in zip(got.members, want.members):
        assert mine.interval == theirs.interval
        for t in np.linspace(*mine.window(4.0), 5):
            assert np.array_equal(mine.sample(t), theirs.sample(t))


def test_family_count_must_be_positive():
    from kobalab.geodesics import GeodesicError

    for data in [{"kind": "radial", "count": 0}, {"kind": "corrupted-radial", "count": -1},
                 {"kind": "antipodal", "base": _BALL2_DESC, "count": 0}]:
        with pytest.raises(GeodesicError, match="count >= 1"):
            family_from_dict(data)


def test_ball_segment_family_audit_of_an_automorphism():
    # the first theorem's family: all segments from p, under a ball automorphism
    family = family_from_dict({"kind": "ball-segment", "dim": 2, "p": [[0.1, 0], [0, 0.2]]})
    report = audit_isometry(ball_mobius_map(0.5, 2), family, samples=8)
    assert report.verdict == "isometric-along-family"
    assert family.anchor[0] == "interior"


def test_report_serialization():
    fam = radial_family(3)
    report = audit_isometry(power_map(2), fam, samples=8)
    data = report.to_dict()
    assert data["verdict"] == "isometric-along-family"
    assert len(data["per_geodesic"]) == 3
    text = report.to_text()
    assert "verdict" in text


# the array passes against per-pair references ---------------------------------

def _reference_probe(f, grid, tol=1e-9):
    """The injectivity probe as one loop over the pairs i < j."""
    from kobalab import apply_map, monomial_preimages

    pts = [np.asarray(z, dtype=complex).reshape(-1) for z in grid]
    imgs = [apply_map(f, z) for z in pts]
    matrix = f.fiber_matrix
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if float(np.max(np.abs(pts[i] - pts[j]))) <= tol:
                continue
            gap = float(np.max(np.abs(imgs[i] - imgs[j])))
            if gap < tol:
                entry = {"i": i, "j": j, "z": [complex(c) for c in pts[i]],
                         "w": [complex(c) for c in pts[j]], "image_gap": gap}
                if matrix is not None:
                    entry["deck_pair"] = any(float(np.max(np.abs(p - pts[j]))) < 1e-7
                                             for p in monomial_preimages(matrix, imgs[i]))
                out.append(entry)
    return out


def _exact(collisions):
    # every field, with the image gap's bits
    return [{**c, "image_gap": c["image_gap"].hex()} for c in collisions]


_BALL2 = EuclideanBall((0.0, 0.0), 1.0)
_BALL3 = EuclideanBall((0.0, 0.0, 0.0), 1.0)


@pytest.mark.parametrize("f,grid", [
    (power_map(2), polar_orbit_grid()),
    (power_map(3), polar_orbit_grid()),
    (power_map(3), polar_orbit_grid(radii=(0.3, 0.7), angles=12)),
    (exp_strip_cover(4.0), strip_lattice_grid(4.0)),
    (monomial_map(((2, 0), (0, 2)), _BALL2), reinhardt_sign_grid(_BALL2)),
    (monomial_map(((2, 1), (0, 2)), _BALL2), reinhardt_sign_grid(_BALL2)),
    (monomial_map(((2, 0, 0), (0, 2, 0), (0, 0, 2)), _BALL3), reinhardt_sign_grid(_BALL3)),
    (identity_map(UnitDisc()), polar_orbit_grid(radii=(0.5,), angles=8)),
    # repeated points, and points within tol of each other, are no collision;
    # points 5e-9 apart near 0 are one, their squares lying 1e-10 apart
    (power_map(2), [*polar_orbit_grid(radii=(0.4,), angles=6),
                    np.array([0.4 + 0j]), np.array([0.4 + 1e-12j]), np.array([-0.4 + 2e-9j]),
                    np.array([0.01 + 0j]), np.array([0.01 + 5e-9j])]),
], ids=["power2", "power3", "power3-small", "exp", "monomial-2I", "monomial-sheared",
        "monomial-3d", "identity", "near-duplicates"])
def test_pairwise_probe_equals_per_pair_reference(f, grid):
    got = injectivity_probe(f, grid)
    assert _exact(got) == _exact(_reference_probe(f, grid))
    assert [(c["i"], c["j"]) for c in got] == sorted((c["i"], c["j"]) for c in got)


def test_pairwise_probe_in_blocks(monkeypatch):
    from kobalab import checker

    grid = polar_orbit_grid()
    want = injectivity_probe(power_map(2), grid)
    assert len(want) >= 1
    for block in (1, 7, 149, 150, 151):
        monkeypatch.setattr(checker, "_TRIANGLE_BLOCK", block)
        assert _exact(injectivity_probe(power_map(2), grid)) == _exact(want)


def _reference_audit(f, family, samples, window=6.0):
    """Per member: (max separation, max raw deviation, max gap, pair count)
    from one `distance` call per pair on each side and a loop over pairs."""
    from kobalab import apply_map, distance

    out = []
    for member in family.members:
        pts = [member.sample(float(t)) for t in np.linspace(*member.window(window), samples)]
        imgs = [apply_map(f, p) for p in pts]
        sep = raw = gap = 0.0
        count = 0
        for i in range(samples):
            for j in range(i + 1, samples):
                src, tgt = distance(f.source, pts[i], pts[j]), distance(f.target, imgs[i], imgs[j])
                sep = max(sep, max(0.0, src.lower - tgt.upper, tgt.lower - src.upper))
                raw = max(raw, abs(src.value - tgt.value))
                gap = max(gap, src.gap + tgt.gap)
                count += 1
        out.append((member.label or "geodesic", sep.hex(), raw.hex(), gap.hex(), count))
    return out


_AUDIT_CASES = {
    "power-disc": (power_map(2), radial_family(4), 9),
    "exp-annulus": (exp_strip_cover(4.0), strip_crossing_family(4.0, (-2.0, 0.0, 3.0)), 9),
    "monomial-tube": (monomial_map(((2, 0), (0, 2)), _BALL2),
                      kobalab.antipodal_family(_BALL2, 3), 6),
    "ball-mobius": (ball_mobius_map(0.5, 2), ball_landing_family(2, [1.0, 0.0]), 8),
}


def _audit_budgets():
    """Each case at the default _AUDIT_PAIRS (None), at one member per call
    and at groups of all but the last member (a short last group)."""
    out = []
    for name, (f, family, samples) in _AUDIT_CASES.items():
        count = samples * (samples - 1) // 2
        out += [pytest.param(f, family, samples, None, id=name),
                pytest.param(f, family, samples, 1, id=f"{name}-one"),
                pytest.param(f, family, samples, max(1, len(family.members) - 1) * count,
                             id=f"{name}-short")]
    return out


@pytest.mark.parametrize("f,family,samples,budget", _audit_budgets())
def test_audit_equals_per_pair_reference(f, family, samples, budget, monkeypatch):
    from kobalab import checker

    if budget is not None:
        monkeypatch.setattr(checker, "_AUDIT_PAIRS", budget)
    report = audit_isometry(f, family, samples=samples)
    got = [(g.label, g.max_deviation.hex(), g.max_raw_deviation.hex(), g.max_gap.hex(),
            g.samples) for g in report.per_geodesic]
    assert got == _reference_audit(f, family, samples)


def test_audit_names_the_point_that_leaves_the_source_or_the_target():
    from kobalab.coverings import Identity
    from kobalab.domains import NonInteriorError

    # the radial family reaches radius 1/4, which the annulus excludes
    with pytest.raises(NonInteriorError, match=r"point \[.*\] is not interior to Annulus"):
        audit_isometry(identity_map(kobalab.Annulus(4.0)), radial_family(2), samples=8)
    # the same points as images of a map into the annulus
    class Leaky(Identity):
        target = kobalab.Annulus(4.0)

    leaky = Leaky(PuncturedDisc())
    with pytest.raises(NonInteriorError, match=r"image point leaves the target domain: "
                                               r"point \[.*\] is not interior to Annulus"):
        audit_isometry(leaky, radial_family(2), samples=8)


@pytest.mark.parametrize("samples,calls", [(32, 5), (100, 20)])
def test_audit_runs_one_deck_search_per_group_and_side(samples, calls, monkeypatch):
    # 32 samples: 496 pairs a member, four members (1,984 pairs) a group;
    # 100 samples: 4,950 pairs a member, more than a group holds, so each
    # member goes alone.  The members are real segments, whose logs share
    # one imaginary part: every block of each search's slab table takes
    # the real stage alone (the zero-dy form of `strip_imag_max`)
    from kobalab import metric, tube

    searched, forms, inside = [], [], []
    deck_infimum, slab_cells, imag_max = metric.deck_infimum, tube._slab_cells, \
        tube.strip_imag_max

    def counted(cover, points, pairs):
        searched.append(len(pairs))
        forms.append([])
        return deck_infimum(cover, points, pairs)

    def cells(*args):
        inside.append(True)
        try:
            return slab_cells(*args)
        finally:
            inside.pop()

    def recorded(halfwidth, dy, sin2q, c):
        if inside:
            forms[-1].append(dy is None)
        return imag_max(halfwidth, dy, sin2q, c)

    monkeypatch.setattr(metric, "deck_infimum", counted)
    monkeypatch.setattr(tube, "_slab_cells", cells)
    monkeypatch.setattr(tube, "strip_imag_max", recorded)
    family = kobalab.antipodal_family(_BALL2, 20)
    report = audit_isometry(monomial_map(((2, 0), (0, 2)), _BALL2), family, samples=samples,
                            tol=1e-6)
    assert len(report.per_geodesic) == 20
    count = samples * (samples - 1) // 2
    assert searched == [count * 20 // calls] * (2 * calls)
    # source and target searches alike, each over all its blocks
    assert len(forms) == 2 * calls and all(blocks and all(blocks) for blocks in forms)


def test_audit_raises_the_first_members_image_error_inside_a_group(monkeypatch):
    import dataclasses

    from kobalab import checker
    from kobalab.coverings import Identity
    from kobalab.domains import NonInteriorError

    class Leaky(Identity):
        target = kobalab.Annulus(4.0)

    # member 0 reaches radius 1/4, which the annulus excludes; member 1's
    # samples, doubled, leave the punctured disc as well
    radial = radial_family(2)
    first, second = radial.members
    doubled = dataclasses.replace(second, rows=lambda ts: 2.0 * second.rows(ts))
    family = dataclasses.replace(radial, members=(first, doubled))
    leaky = Leaky(PuncturedDisc())
    with pytest.raises(NonInteriorError) as alone:
        audit_isometry(leaky, dataclasses.replace(radial, members=(first,)), samples=8)
    assert str(alone.value).startswith("an image point leaves the target domain: ")
    for budget in (1, 28, 56, checker._AUDIT_PAIRS):
        monkeypatch.setattr(checker, "_AUDIT_PAIRS", budget)
        with pytest.raises(NonInteriorError) as grouped:
            audit_isometry(leaky, family, samples=8)
        assert str(grouped.value) == str(alone.value)


def test_audit_memory_does_not_grow_with_the_family():
    # the traced peak of an audit is that of one group, whatever the
    # number of groups
    import tracemalloc

    f = monomial_map(((2, 0), (0, 2)), _BALL2)
    peaks = []
    for count in (20, 40):
        family = kobalab.antipodal_family(_BALL2, count)
        audit_isometry(f, family, tol=1e-6)       # fills the caches
        tracemalloc.start()
        try:
            audit_isometry(f, family, tol=1e-6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def _counted_members(family, calls):
    """The family with each member's row sampler wrapped to record the
    number of parameters of every call, as (member index, count)."""
    import dataclasses

    def wrap(k, member):
        def rows(ts, sampler=member.rows):
            calls.append((k, len(ts)))
            return sampler(ts)
        return dataclasses.replace(member, rows=rows)

    members = tuple(wrap(k, m) for k, m in enumerate(family.members))
    return dataclasses.replace(family, members=members)


@pytest.mark.parametrize("name", ["power-disc", "exp-annulus", "monomial-tube"])
def test_audit_samples_each_member_with_one_sampler_call(name):
    # the bundled examples' maps and families at their default sample count:
    # one row-sampler call per member, in member order, and the same report
    f, family, tol = {
        "power-disc": (power_map(2), radial_family(12), 1e-9),
        "exp-annulus": (exp_strip_cover(4.0), strip_crossing_family(4.0), 1e-9),
        "monomial-tube": (monomial_map(((2, 0), (0, 2)), _BALL2),
                          kobalab.antipodal_family(_BALL2, 20), 1e-6),
    }[name]
    calls = []
    report = audit_isometry(f, _counted_members(family, calls), tol=tol)
    assert calls == [(k, 32) for k in range(len(family.members))]
    assert report.to_dict() == audit_isometry(f, family, tol=tol).to_dict()


def test_audit_raises_the_first_failing_members_sample_error():
    # a NaN sample in the second member of a group raises the DomainError
    # that the per-point `as_point` check raised; a first member that leaves
    # the source still decides first
    import dataclasses

    from kobalab.domains import NonInteriorError

    radial = radial_family(4)
    first, second = radial.members[:2]

    def with_nan(ts):
        rows = second.rows(ts)
        rows[3, 0] = complex(math.nan, 0.0)
        return rows

    nan_member = dataclasses.replace(second, rows=with_nan)
    family = dataclasses.replace(radial, members=(first, nan_member, *radial.members[2:]))
    with pytest.raises(DomainError) as caught:
        audit_isometry(power_map(2), family, samples=8)
    assert type(caught.value) is DomainError
    assert str(caught.value) == "point has non-finite coordinates"
    doubled = dataclasses.replace(first, rows=lambda ts: 2.0 * first.rows(ts))
    family = dataclasses.replace(radial, members=(doubled, nan_member))
    with pytest.raises(NonInteriorError, match="is not interior to PuncturedDisc"):
        audit_isometry(power_map(2), family, samples=8)
