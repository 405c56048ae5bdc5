import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kobalab import serialize
from kobalab.cli import main


def run_cli(args):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_dist_unit_disc():
    code, out = run_cli(["dist", "--domain", '{"kind": "unit-disc"}', "--z", "0", "--w", "0.5"])
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(math.atanh(0.5), abs=1e-15)


def test_dist_bare_kind_shorthand():
    code, out = run_cli(["dist", "--domain", "unit-disc", "--z", "0", "--w", "0.5"])
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(math.atanh(0.5), abs=1e-15)
    code, out = run_cli(["dist", "--domain", "annulus", "--R", "4", "--z", "0.5", "--w", "2"])
    assert code == 0
    from kobalab import closed_forms as cf

    want = cf.strip_distance(math.log(4), math.log(0.5), math.log(2.0))
    assert float(out.split()[0]) == pytest.approx(want, abs=1e-14)


def test_audit_flag_form():
    code, out = run_cli(["audit", "--map", '{"kind": "power", "n": 2}',
                         "--family", '{"kind": "radial", "count": 4}',
                         "--expect", "isometric-along-family"])
    assert code == 0


def test_dist_annulus_matches_strip_of_logs():
    code, out = run_cli(["dist", "--domain", '{"kind": "annulus", "R": 4}',
                         "--z", "0.5", "--w", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    from kobalab import closed_forms as cf

    want = cf.strip_distance(math.log(4), math.log(0.5), math.log(2.0))
    assert payload["value"] == pytest.approx(want, abs=1e-14)


def test_dist_coincident_points():
    code, out = run_cli(["dist", "--domain", '{"kind": "unit-ball", "dim": 2}',
                         "--z", "[[0.1, 0.2], [0.0, 0.3]]", "--w", "[[0.1, 0.2], [0.0, 0.3]]"])
    assert code == 0
    assert float(out.split()[0]) == 0.0


def test_dist_schema_error_exit_2():
    ball = '{"kind": "ball", "center": [0, 0], "radius": 1}'
    bases = ['{"kind": "polytope", "normals": [], "offsets": []}',
             '{"kind": "polytope", "normals": [[1, 0], [0]], "offsets": [1, 1]}',
             '{"kind": "polytope", "normals": [[1, 0], [0, 1]], "offsets": [1]}',
             '{"kind": "ball", "center": [], "radius": 1}',
             '{"kind": "box", "lo": [], "hi": []}',
             '{"kind": "linear-image", "matrix": [[1, 0, 0], [0, 1, 0]], "base": %s}' % ball,
             '{"kind": "linear-image", "matrix": [[2]], "base": %s}' % ball,
             '{"kind": "linear-image", "matrix": [[1, 1], [1, 1]], "base": %s}' % ball]
    for domain in ['{"kind": "nope"}', '{"kind": "annulus", "R": "x"}', '[1, 2]',
                   '{"kind": "tube", "base": {"kind": "ball", "center": [0], "radius": "a"}}',
                   *['{"kind": "tube", "base": %s}' % base for base in bases]]:
        code, _ = run_cli(["dist", "--domain", domain, "--z", "0", "--w", "0.5"])
        assert code == 2, domain
    for batch in ['[[1, 2]]', '5']:
        code, _ = run_cli(["dist", "--batch", batch])
        assert code == 2, batch
    # malformed points
    for z in ["x", '[[1, "a"]]', '[{"a": 1}]', "[[1, 2, 3]]"]:
        code, _ = run_cli(["dist", "--domain", "unit-disc", "--z", z, "--w", "0.5"])
        assert code == 2, z
    # a negative or NaN sandwich-gap tolerance is a malformed option, for
    # one query and for a batch alike
    for tol in ("-1", "nan"):
        code, _ = run_cli(["dist", "--domain", "unit-disc", "--z", "0", "--w", "0.5",
                           "--gap-tol", tol])
        assert code == 2, tol
        code, _ = run_cli(["dist", "--batch", '[{"domain": {"kind": "unit-disc"}, "z": 0, '
                           '"w": 0.5}]', "--gap-tol", tol])
        assert code == 2, tol


def test_dist_non_interior_exit_3():
    code, _ = run_cli(["dist", "--domain", '{"kind": "unit-disc"}', "--z", "0", "--w", "1.5"])
    assert code == 3
    # the radial family leaves the annulus that the identity map targets
    code, _ = run_cli(["audit", "--map", '{"kind": "identity", "domain": {"kind": "annulus", "R": 4}}',
                       "--family", '{"kind": "radial", "count": 2}'])
    assert code == 3


def test_dist_csv_single_query_matches_batch(tmp_path):
    domain = '{"kind": "annulus", "R": 4}'
    code, out = run_cli(["dist", "--domain", domain, "--z", "0.5", "--w", "0.1-2j",
                         "--format", "csv"])
    assert code == 0
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"domain": json.loads(domain), "z": "0.5", "w": "0.1-2j"}]))
    code, want = run_cli(["dist", "--batch", f"@{batch}"])
    assert code == 0
    assert out == want
    assert out.splitlines()[0] == "domain,z,w,value,method,gap,deck_index"


BATCH_ROWS = [
    ({"kind": "unit-disc"}, "0.3-0.2j", "-0.5+0.1j"),
    ({"kind": "unit-ball", "dim": 2}, [[0.1, 0.2], [0.3, 0]], [[-0.2, 0], [0, 0.4]]),
    ({"kind": "punctured-disc"}, "0.3+0.4j", "-0.6-0.1j"),
    ({"kind": "annulus", "R": 4}, "0.5", "0.1-2j"),
    ({"kind": "annulus", "R": 4}, "-1.5+1j", "2j"),
    ({"kind": "tube", "base": {"kind": "ball", "center": [0, 0], "radius": 1}},
     [[0.2, 0.4], [-0.1, 0.2]], [[-0.3, -0.2], [0.4, 0.1]]),
    ({"kind": "reinhardt-log", "base": {"kind": "ball", "center": [0, 0], "radius": 1}},
     [[0.9, 0.5], [1.1, -0.4]], [[-0.7, 0.6], [0.2, 1.3]]),
    ({"kind": "reinhardt-log", "base": {"kind": "ball", "center": [0, 0], "radius": 1}},
     [[1.2, 0.1], [0.8, 0.3]], [[0.5, -0.9], [-1.1, 0.2]]),
    ({"kind": "punctured-disc"}, "0.05", "0.9j"),
    ({"kind": "unit-disc"}, "0.8j", "0.1"),
    # bases whose support takes a product with a centre or a matrix
    ({"kind": "reinhardt-log", "base": {"kind": "ball", "center": [0.3, -0.2], "radius": 0.9}},
     [[1.1, 0.2], [0.7, -0.5]], [[-0.9, 0.9], [0.3, 1.0]]),
    ({"kind": "tube", "base": {"kind": "linear-image", "matrix": [[1, 0.5], [0, 1.5]],
                               "base": {"kind": "ball", "center": [0.1, 0], "radius": 1}}},
     [[0.2, 0.4], [-0.1, 0.2]], [[-0.3, -0.2], [0.4, 2.1]]),
]


def _batch_file(tmp_path, rows, name="batch.json"):
    path = tmp_path / name
    path.write_text(json.dumps([{"domain": d, "z": z, "w": w} for d, z, w in rows]))
    return f"@{path}"


def test_dist_batch_matches_single_queries(tmp_path):
    order = [7, 2, 10, 0, 9, 4, 5, 11, 1, 8, 3, 6]
    rows = [BATCH_ROWS[k] for k in order]
    code, out = run_cli(["dist", "--batch", _batch_file(tmp_path, rows)])
    assert code == 0
    want = ["domain,z,w,value,method,gap,deck_index"]
    for domain, z, w in rows:
        z, w = (p if isinstance(p, str) else json.dumps(p) for p in (z, w))
        code, single = run_cli(["dist", "--domain", json.dumps(domain), f"--z={z}", f"--w={w}",
                                "--format", "csv"])
        assert code == 0
        want.append(single.splitlines()[1])
    assert out == "\n".join(want) + "\n"


def test_dist_batch_first_bad_row_decides(tmp_path, capsys):
    good = BATCH_ROWS[3]
    outside = ({"kind": "unit-disc"}, "0", "1.5")
    outside_later = ({"kind": "annulus", "R": 4}, "0.5", "5")
    malformed = [({"kind": "annulus", "R": "x"}, "0.5", "2"),      # descriptor
                 ({"kind": "annulus", "R": 4}, "0.5", "x"),        # point
                 ({"kind": "annulus", "R": 4}, "0.5", [[1, 0], [1, 0]]),  # dimension
                 ({"kind": "unit-disc"}, [["NaN", 0]], "0")]       # non-finite
    cases = [([good, outside, malformed[0]], 3, outside),
             ([good, malformed[0], outside], 2, malformed[0])]
    for bad in malformed:
        # a non-interior row before a malformed one, and the reverse, in the
        # same domain group and in another one
        cases += [([good, outside_later, bad], 3, outside_later),
                  ([good, bad, outside_later], 2, bad),
                  ([bad, outside], 2, bad), ([outside, good, bad], 3, outside)]
    for rows, code_wanted, bad in cases:
        capsys.readouterr()
        assert main(["dist", "--batch", _batch_file(tmp_path, rows)]) == code_wanted, rows
        err = capsys.readouterr().err
        assert main(["dist", "--batch", _batch_file(tmp_path, [bad], "one.json")]) == code_wanted
        assert err == capsys.readouterr().err
        assert err.startswith("non-interior point: " if code_wanted == 3 else "config error: ")


def test_dist_batch_keeps_each_rows_descriptor_text(tmp_path):
    # key order does not matter (the column sorts keys), but 4 and 4.0 are
    # different texts of the same annulus: each row keeps its own
    rows = [({"kind": "annulus", "R": 4}, "0.5", "0.1-2j"),
            ({"R": 4, "kind": "annulus"}, "-1.5+1j", "2j"),
            ({"kind": "annulus", "R": 4.0}, "0.5", "0.1-2j"),
            ({"kind": "tube", "base": {"radius": 1, "kind": "ball", "center": [0, 0]}},
             [[0.2, 0.4], [-0.1, 0.2]], [[-0.3, -0.2], [0.4, 0.1]]),
            ({"base": {"center": [0, 0], "kind": "ball", "radius": 1}, "kind": "tube"},
             [[0.2, 0.4], [-0.1, 0.2]], [[-0.3, -0.2], [0.4, 0.1]])]
    code, out = run_cli(["dist", "--batch", _batch_file(tmp_path, rows)])
    assert code == 0
    lines = out.splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == [
        '{"R": 4; "kind": "annulus"}', '{"R": 4; "kind": "annulus"}',
        '{"R": 4.0; "kind": "annulus"}',
        '{"base": {"center": [0; 0]; "kind": "ball"; "radius": 1}; "kind": "tube"}',
        '{"base": {"center": [0; 0]; "kind": "ball"; "radius": 1}; "kind": "tube"}']
    assert lines[0].split(",")[1:] == lines[2].split(",")[1:]
    assert lines[3].split(",")[1:] == lines[4].split(",")[1:]
    for (domain, z, w), line in zip(rows, lines):
        z, w = (p if isinstance(p, str) else json.dumps(p) for p in (z, w))
        code, single = run_cli(["dist", "--domain", json.dumps(domain), f"--z={z}", f"--w={w}",
                                "--format", "csv"])
        assert code == 0
        assert single.splitlines()[1] == line


def test_dist_batch_deterministic(tmp_path):
    rows = [{"domain": {"kind": "unit-disc"}, "z": "0", "w": "0.5"},
            {"domain": {"kind": "annulus", "R": 4}, "z": "0.5", "w": "2"}]
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps(rows))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["dist", "--batch", f"@{cfg}", "--out", str(out_a)]) == 0
    assert main(["dist", "--batch", f"@{cfg}", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().splitlines()
    assert lines[0] == "domain,z,w,value,method,gap,deck_index"
    assert len(lines) == 3


def test_audit_expectation_pass_and_fail():
    config = {"map": {"kind": "power", "n": 2}, "family": {"kind": "radial", "count": 4},
              "samples": 10, "expect": "isometric-along-family"}
    code, out = run_cli(["audit", "--config", json.dumps(config)])
    assert code == 0
    assert "isometric-along-family" in out
    config["expect"] = "violated"
    code, _ = run_cli(["audit", "--config", json.dumps(config)])
    assert code == 1


def test_audit_corrupted_family_violated():
    config = {"map": {"kind": "power", "n": 2},
              "family": {"kind": "corrupted-radial", "count": 3},
              "samples": 10, "expect": "violated"}
    code, out = run_cli(["audit", "--config", json.dumps(config)])
    assert code == 0
    assert "violated" in out


def test_audit_config_error_exit_2():
    for fmap in ['{"kind": "power"}', '{"kind": "power", "n": "x"}']:
        code, _ = run_cli(["audit", "--config", '{"map": %s}' % fmap])
        assert code == 2, fmap
    base = '{"kind": "ball", "center": [0, 0], "radius": 1}'
    antipodal = '{"kind": "antipodal", "count": 2, "base": %s}' % base
    for matrix in ['[[1.5, 0], [0, 1]]', '[[true, 0], [0, 2]]', '[[2]]']:
        fmap = '{"kind": "monomial", "matrix": %s, "base": %s}' % (matrix, base)
        code, _ = run_cli(["audit", "--map", fmap, "--family", antipodal])
        assert code == 2, matrix
    radial = {"map": {"kind": "power", "n": 2}, "family": {"kind": "corrupted-radial", "count": 3}}
    for config in ['[1]', json.dumps({**radial, "samples": "x"}),
                   json.dumps({**radial, "samples": 1}), json.dumps({**radial, "tol": -1}),
                   json.dumps({**radial, "tol": True}), json.dumps({**radial, "tol": "1e-9"}),
                   json.dumps({**radial, "samples": 2.7}), json.dumps({**radial, "samples": True}),
                   json.dumps({**radial, "seed": 1}), json.dumps({**radial, "sample": 10})]:
        code, _ = run_cli(["audit", "--config", config])
        assert code == 2, config
    for family in ['{"kind": "radial", "count": 0}', '{"kind": "corrupted-radial", "count": 0}',
                   '{"kind": "antipodal", "count": 0, "base": %s}' % base,
                   '{"kind": "radial", "count": "x"}']:
        code, _ = run_cli(["audit", "--map", '{"kind": "power", "n": 2}', "--family", family])
        assert code == 2, family


def test_audit_of_an_empty_family_exit_2(capsys):
    # the only target is p itself, so the family has no member to audit
    family = {"kind": "ball-segment", "dim": 2, "p": [[0.1, 0], [0, 0.2]],
              "targets": [[[0.1, 0], [0, 0.2]]]}
    code, out = run_cli(["audit", "--map", '{"kind": "ball-mobius", "t": 0.5, "dim": 2}',
                         "--family", json.dumps(family)])
    assert (code, out) == (2, "")
    assert "needs a family member" in capsys.readouterr().err


def test_scaling_probe_bad_ts_exit_2():
    for ts in ("1.5", "0.5,x"):
        code, _ = run_cli(["scaling-probe", "--probe", "metric", "--ts", ts])
        assert code == 2, ts


def test_scaling_probe_bad_n_exit_2():
    for probe in ("metric", "persistence", "boundary", "divergence"):
        code, _ = run_cli(["scaling-probe", "--probe", probe, "--n", "0"])
        assert code == 2, probe


@pytest.mark.parametrize("probe", ["metric", "persistence", "boundary", "divergence"])
def test_scaling_probe_non_finite_eps_exit_2(probe, capsys):
    for eps in ("nan", "inf", "-0.5"):
        code, out = run_cli(["scaling-probe", "--probe", probe, "--eps", eps, "--ts", "0.5"])
        assert (code, out) == (2, ""), eps
        assert capsys.readouterr().err.startswith("config error: eps must be finite")


def test_examples_single(tmp_path):
    code, out = run_cli(["examples", "--only", "power-disc", "--n", "3"])
    assert code == 0
    assert "power-disc" in out and "PASS" in out


def test_examples_monomial_multiplicity():
    code, out = run_cli(["examples", "--only", "monomial-tube", "--n", "2"])
    assert code == 0
    assert "multiplicity" in out and "4" in out


def test_examples_exp_non_proper():
    code, out = run_cli(["examples", "--only", "exp-annulus"])
    assert code == 0
    assert "non_proper" in out


def test_export_geodesic_csv(tmp_path):
    out = tmp_path / "geo.csv"
    code = main(["export-geodesic", "--geodesic",
                 '{"kind": "ball-segment", "dim": 2, "z": [[0,0],[0,0]], "w": [[0.5,0],[0,0]]}',
                 "--count", "9", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,re_z1,im_z1,re_z2,im_z2"
    assert len(lines) == 10


_BALL2 = {"kind": "ball", "center": [0, 0], "radius": 1}


def _geodesic_kinds():
    """(descriptor, the curve built directly) for each geodesic kind."""
    from kobalab import EuclideanBall
    from kobalab.geodesics import (AntipodalPair, annulus_radial_geodesic, antipodal_geodesic,
                                   ball_geodesic_segment, ball_landing_ray, disc_radial_geodesic,
                                   strip_crossing_geodesic, strip_vertical_line)

    ball = EuclideanBall((0.0, 0.0), 1.0)
    return [
        ({"kind": "ball-segment", "dim": 2, "z": [[0.1, 0.2], [0, -0.3]],
          "w": "[[0.3,0],[-0.2,0.1]]"},
         ball_geodesic_segment(2, [0.1 + 0.2j, complex(0, -0.3)], [0.3, -0.2 + 0.1j])),
        ({"kind": "ball-ray", "dim": 2, "z": [[0.1, 0.2], [0, 0.3]], "p": [[0, 0], [1, 0]]},
         ball_landing_ray(2, [0.1 + 0.2j, 0.3j], [0.0, 1.0])),
        ({"kind": "strip-crossing", "R": 3.5, "height": -1.25},
         strip_crossing_geodesic(3.5, -1.25)),
        ({"kind": "strip-vertical", "R": 4, "t0": -0.7}, strip_vertical_line(4.0, -0.7)),
        ({"kind": "radial", "omega": "0.3-0.8j", "punctured": False},
         disc_radial_geodesic(0.3 - 0.8j, False)),
        ({"kind": "annulus-radial", "R": 7.5, "phase": -2.1}, annulus_radial_geodesic(7.5, -2.1)),
        ({"kind": "antipodal", "base": _BALL2, "x": [0.6, 0.8], "y": [-0.6, -0.8]},
         antipodal_geodesic(ball, AntipodalPair(ball, (0.6, 0.8), (-0.6, -0.8)))),
        # defaulted fields left out
        ({"kind": "strip-crossing", "R": 4}, strip_crossing_geodesic(4.0, 0.0)),
        ({"kind": "strip-vertical", "R": 4}, strip_vertical_line(4.0, 0.0)),
        ({"kind": "radial"}, disc_radial_geodesic(1.0, True)),
        ({"kind": "annulus-radial", "R": 4}, annulus_radial_geodesic(4.0, 0.0)),
    ]


@pytest.mark.parametrize("count,window", [(65, 8.0), (9, 3.5)])
def test_export_geodesic_csv_of_every_kind(count, window, validate_schema):
    from kobalab.geodesics import geodesic_samples_csv

    kinds = _geodesic_kinds()
    assert {spec["kind"] for spec, _ in kinds} == set(serialize._GEODESICS)
    for spec, curve in kinds:
        validate_schema("geodesic.json", spec)
        code, out = run_cli(["export-geodesic", "--geodesic", json.dumps(spec),
                             "--count", str(count), "--window", str(window)])
        assert code == 0, spec
        assert out == geodesic_samples_csv(curve, np.linspace(*curve.window(window), count)), spec


@pytest.mark.parametrize("args", [
    ["--geodesic", "[1]"],
    ["--geodesic", '{"kind": "radial", "omega": "x"}'],
    ["--geodesic", '{"kind": "radial"}', "--count", "-1"],
    ["--geodesic", '{"kind": "radial", "omega": "0"}'],
    ["--geodesic", '{"kind": "radial", "omega": 0}'],
    ["--geodesic", '{"kind": "radial", "omega": "nan"}'],
    ["--geodesic", '{"kind": "radial", "omega": true}'],
    ["--geodesic", '{"kind": "radial", "punctured": "false"}'],
    ["--geodesic", '{"kind": "strip-crossing", "R": 4, "height": Infinity}'],
    ["--geodesic", '{"kind": "ball-segment", "dim": 2.5, "z": 0, "w": 0}'],
    ["--geodesic", '{"kind": "ball-segment", "dim": 1e400, "z": 0, "w": 0}'],
    ["--geodesic", '{"kind": "helix"}'],
    ["--geodesic", '{"kind": "radial"}', "--window", "nan"],
    ["--geodesic", '{"kind": "radial"}', "--window", "inf"],
    ["--geodesic", '{"kind": "radial"}', "--window", "-2"],
    ["--geodesic", '{"kind": "radial"}', "--window", "0"],
], ids=["not-an-object", "bad-field", "negative-count", "zero-omega", "zero-number-omega",
        "nan-omega", "bool-omega", "string-bool", "infinite-height", "fractional-dim",
        "overflowing-dim", "unknown-kind", "nan-window", "infinite-window", "negative-window",
        "zero-window"])
def test_export_geodesic_malformed_input_exit_2(args, capsys):
    code, out = run_cli(["export-geodesic", *args])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and "Traceback" not in err


def test_scaling_probe_csv(tmp_path):
    out = tmp_path / "probe.csv"
    code = main(["scaling-probe", "--probe", "metric", "--eps", "0", "--ts", "0.5,0.9",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,key,deviation,gap"
    assert all(line.split(",")[2] == "0" for line in lines[1:])


def test_scaling_probe_json():
    code, out = run_cli(["scaling-probe", "--probe", "persistence", "--eps", "0",
                         "--ts", "0.5,0.9", "--w0", "[[0,0],[0.5,0]]", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_deviation"] < 1e-9


@pytest.mark.parametrize("kind,z,w", [
    ("tube", [[0, 0], [0, 0]], [[-1, 0], [0, 0]]),        # real parts differ: a chord
    ("tube", [[0, 0], [0, 0]], [[0, 0], [0, 1]]),         # equal real parts: slabs only
    ("reinhardt-log", [[1, 0], [1, 0]], [[0.5, 0], [1, 0]]),
])
def test_unbounded_polytope_base_exits_2(kind, z, w, capsys):
    base = {"kind": "polytope", "normals": [[1, 0], [0, 1], [1, 1]], "offsets": [1, 1, 1.5]}
    domain = json.dumps({"kind": kind, "base": base})
    code, out = run_cli(["dist", "--domain", domain, "--z", json.dumps(z), "--w", json.dumps(w)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "config error: polytope is unbounded\n"


def test_audit_leaving_the_source_names_the_point(capsys):
    code, _ = run_cli(["audit", "--map", '{"kind": "identity", "domain": {"kind": "annulus", "R": 4}}',
                       "--family", '{"kind": "radial", "count": 2}'])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("non-interior point: point [") and "Annulus(R=4.0)" in err


DATA = Path(__file__).resolve().parent / "data"


def test_dist_batch_golden_csv(tmp_path):
    # every dist kind, pair- and string-form points, several dimensions and
    # several descriptor texts of one domain; the CSV was written by the
    # row-by-row edge that the columnar one replaced
    out = tmp_path / "golden.csv"
    assert main(["dist", "--batch", f"@{DATA / 'dist_batch_golden.json'}", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "dist_batch_golden.csv").read_bytes()


def test_export_geodesic_golden_csv():
    # every geodesic kind, defaulted and signed-zero fields among them; the
    # CSV was written by the per-kind closures that _ball_line and _line replaced
    got = []
    for spec in json.loads((DATA / "export_geodesic_golden.json").read_text()):
        code, out = run_cli(["export-geodesic", "--geodesic", json.dumps(spec),
                             "--count", "17", "--window", "5"])
        assert code == 0, spec
        got.append(out)
    assert "".join(got) == (DATA / "export_geodesic_golden.csv").read_text()


def test_dist_batch_edge_rows_keep_their_outputs(tmp_path, capsys):
    # bools and numeric strings inside pairs, NaN and infinity, integers
    # beyond int64, ragged and mixed-dimension groups, a missing key and an
    # empty batch: exit code, stderr and CSV as the row-by-row edge wrote them
    for case in json.loads((DATA / "dist_batch_edges.json").read_text()):
        batch = tmp_path / "edge.json"
        batch.write_text(case["batch"])
        capsys.readouterr()
        code = main(["dist", "--batch", f"@{batch}"])
        assert (code, *capsys.readouterr()) == (case["code"], case["stdout"], case["stderr"]), \
            case["batch"]


def _point_text(re: float, im: float) -> str:
    return f"{re!r}{im:+}j"


# (descriptor, dimension)
_FORM_DOMAINS = [({"kind": "unit-disc"}, 1), ({"kind": "strip", "R": 4}, 1),
                 ({"kind": "punctured-disc"}, 1), ({"kind": "annulus", "R": 4}, 1),
                 ({"kind": "unit-ball", "dim": 2}, 2), ({"kind": "polydisc", "dim": 2}, 2),
                 ({"kind": "tube", "base": {"kind": "ball", "center": [0, 0], "radius": 1}}, 2)]
_COORD = st.floats(-0.49, 0.49, allow_subnormal=False)


@given(st.lists(st.tuples(st.integers(0, len(_FORM_DOMAINS) - 1),
                          st.lists(_COORD, min_size=8, max_size=8)), min_size=1, max_size=6))
def test_dist_batch_pair_and_string_forms_agree(tmp_path_factory, rows):
    # the same rows written as [[re, im], ...] pairs (one array parse per
    # group) and as "a+bj" strings (parse_point per row) give the same output
    tmp = tmp_path_factory.mktemp("forms")
    outputs = []
    for as_text in (False, True):
        batch = []
        for kind, xs in rows:
            domain, n = _FORM_DOMAINS[kind]
            # annulus points need moduli in (1/4, 4)
            shift = 1.5 if domain["kind"] == "annulus" else 0.0
            z = [[xs[2 * j] + shift, xs[2 * j + 1]] for j in range(n)]
            w = [[xs[4 + 2 * j] + shift, xs[5 + 2 * j]] for j in range(n)]
            if as_text:
                z, w = ([_point_text(*c) for c in p] for p in (z, w))
            batch.append({"domain": domain, "z": z, "w": w})
        path = tmp / f"{as_text}.json"
        path.write_text(json.dumps(batch))
        outputs.append(run_cli(["dist", "--batch", f"@{path}"]))
    assert outputs[0] == outputs[1]


def test_dist_batch_parses_pairs_by_array_and_keys_descriptors_once(tmp_path, monkeypatch):
    from kobalab import cli

    descriptors = [{"kind": "unit-disc"}, {"kind": "annulus", "R": 4},
                   {"kind": "annulus", "R": 4.0}]
    rows = []
    for k in range(30):
        domain = descriptors[k % 3]
        shift = 1.0 if domain["kind"] == "annulus" else 0.0
        rows.append((domain, [[shift + 0.1 * (k % 5), -0.2]], [[shift + 0.3, 0.02 * k]]))
    path = _batch_file(tmp_path, rows)
    calls = {"parse_point": 0, "dumps": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "parse_point", counted("parse_point", cli.parse_point))
    monkeypatch.setattr(cli.json, "dumps", counted("dumps", cli.json.dumps))
    code, out = run_cli(["dist", "--batch", path])
    monkeypatch.undo()
    assert code == 0 and len(out.splitlines()) == 31
    assert calls == {"parse_point": 0, "dumps": 3}


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("args", [
    ["--domain", "unit-disc", "--z", f"[[{HUGE}, 0]]", "--w", "0"],
    ["--batch", f'[{{"domain": {{"kind": "unit-disc"}}, "z": [[{HUGE}, 0]], "w": 0}}]'],
    ["--batch", f'[{{"domain": {{"kind": "unit-disc"}}, "z": {HUGE}, "w": 0}}]'],
])
def test_dist_huge_integer_coordinate_exits_2(args, capsys):
    assert main(["dist", *args]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot parse point from ")


def test_perturbed_ellipsoid_refusal_is_a_certification_error(tmp_path, capsys):
    # (0.95, 0) lies in Omega_0.5 but outside the ball that its sandwich
    # brackets in: a certification failure (exit 1), not a non-interior point
    domain = {"kind": "scaled-ellipsoid", "eps": 0.05, "t": 0.5, "dim": 2}
    single = ["dist", "--domain", json.dumps(domain), "--z", "[0, 0]"]
    assert main([*single, "--w", "[0.95, 0]"]) == 1
    assert capsys.readouterr().err.startswith("certification error: ")
    rows = [(domain, "[0, 0]", "[0.1, 0]"), (domain, "[0, 0]", "[0.95, 0]")]
    assert main(["dist", "--batch", _batch_file(tmp_path, rows)]) == 1
    assert capsys.readouterr().err.startswith("certification error: ")
    # a point outside Omega_t is still a non-interior point
    assert main([*single, "--w", "[1.0, 0]"]) == 3
    assert capsys.readouterr().err.startswith("non-interior point: ")


BALL_DOMAIN = '{"kind": "tube", "base": {"kind": "ball", "center": [0, 0], "radius": %s}}'


def test_tube_points_with_huge_imaginary_parts(capsys):
    # over a box the slab along Im(v - u) gives the exact value; over the
    # ball the bracket is finite and ordered up to 1e300, and past any
    # finite bracket (near the largest float) one error line is printed
    box = '{"kind": "tube", "base": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]}}'

    def dist(domain, im):
        return run_cli(["dist", "--domain", domain, "--z", "[[0.5, %s], [0, 0]]" % im,
                        "--w", "[[0, 0], [0, 0]]"])

    code, out = dist(box, "1e200")
    assert code == 0
    assert out.startswith("7.8539816339744822e+199  method=sandwich")
    for im in ("1e80", "1e120", "1e160", "1e200", "1e300"):
        code, out = dist(BALL_DOMAIN % 1, im)
        value, method, gap = out.split()
        assert code == 0 and method == "method=sandwich"
        value, gap = float(value), float(gap.removeprefix("gap="))
        assert 0.0 <= gap <= 2.0 * value < math.inf
    for domain in (box, BALL_DOMAIN % 1):
        code, out = dist(domain, "1.7e308")
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.startswith("certification error: no finite bracket") and err.count("\n") == 1


def test_a_chain_that_cannot_refine_leaves_the_bracket_finite(capsys):
    # Re w is 1e-3 from the unit circle: the chain of affine discs cannot
    # refine, and the route through the real points bounds the distance
    code, out = run_cli(["dist", "--domain", BALL_DOMAIN % 1, "--z", "[[0, 0], [0, 0]]",
                         "--w", "[[0.999, 1], [0, 0]]"])
    assert code == 0 and capsys.readouterr().err == ""
    assert out.split()[1] == "method=sandwich"


@pytest.mark.parametrize("args", [
    # int fields take integral JSON numbers only
    ["dist", "--domain", '{"kind": "unit-ball", "dim": 1e400}', "--z", "0", "--w", "0"],
    ["dist", "--domain", '{"kind": "unit-ball", "dim": 2.5}', "--z", "[0, 0]", "--w", "[0, 0]"],
    ["dist", "--domain", '{"kind": "unit-ball", "dim": true}', "--z", "0", "--w", "0"],
    ["dist", "--domain", '{"kind": "polydisc", "dim": "2"}', "--z", "[0, 0]", "--w", "[0, 0]"],
    ["audit", "--map", '{"kind": "power", "n": 1e400}', "--family", '{"kind": "radial"}'],
    ["audit", "--map", '{"kind": "power", "n": 2.5}', "--family", '{"kind": "radial"}'],
    ["audit", "--map", '{"kind": "ball-mobius", "t": 0.5, "dim": true}',
     "--family", '{"kind": "ball-landing", "dim": 1, "p": 1}'],
    ["audit", "--map", '{"kind": "power", "n": 2}', "--family", '{"kind": "radial", "count": 1e400}'],
    ["audit", "--map", '{"kind": "power", "n": 2}', "--family", '{"kind": "radial", "count": 2.5}'],
    ["audit", "--config", '{"map": {"kind": "power", "n": 2}, "family": {"kind": "radial"}, '
                          '"samples": 1e400}'],
    # float fields take finite numbers only
    ["dist", "--domain", '{"kind": "strip", "R": Infinity}', "--z", "0", "--w", "0.5"],
    ["dist", "--domain", '{"kind": "strip", "R": NaN}', "--z", "0", "--w", "0.5"],
    ["dist", "--domain", '{"kind": "annulus", "R": "4"}', "--z", "1", "--w", "2"],
    ["dist", "--domain", '{"kind": "annulus", "R": 1%s}' % ("0" * 400), "--z", "1", "--w", "2"],
    ["dist", "--domain", BALL_DOMAIN % "true", "--z", "[0, 0]", "--w", "[0, 0]"],
    ["dist", "--domain", '{"kind": "scaled-ellipsoid", "eps": NaN, "t": 0.5}', "--z", "[0, 0]",
     "--w", "[0, 0]"],
    ["audit", "--map", '{"kind": "ball-mobius", "t": NaN, "dim": 1}',
     "--family", '{"kind": "ball-landing", "dim": 1, "p": 1}'],
    # bool fields take JSON booleans only
    ["audit", "--map", '{"kind": "power", "n": 2}', "--family", '{"kind": "radial", "punctured": 0}'],
])
def test_malformed_number_fields_exit_2(args, capsys):
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert (code, out) == (2, ""), args
    assert err.startswith("config error: ") and "Traceback" not in err


@pytest.mark.parametrize("args,kind,unknown", [
    (["dist", "--domain", '{"kind": "scaled-ellipsoid", "eps": 0.1, "t": 0.5, "Dim": 3}',
      "--z", "[0, 0]", "--w", "[0.1, 0]"], "scaled-ellipsoid", "['Dim']"),
    (["dist", "--domain", "unit-disc", "--R", "4", "--z", "0", "--w", "0.5"], "unit-disc", "['R']"),
    (["dist", "--domain", BALL_DOMAIN % '1, "centre": [0, 0]', "--z", "[0, 0]", "--w", "[0, 0]"],
     "ball", "['centre']"),
    (["audit", "--map", '{"kind": "power", "n": 2}',
      "--family", '{"kind": "radial", "count": 3, "puncture": false}'], "radial", "['puncture']"),
    (["audit", "--map", '{"kind": "power", "n": 2, "m": 1, "k": 0}', "--family", '{"kind": "radial"}'],
     "power", "['k', 'm']"),
    (["export-geodesic", "--geodesic", '{"kind": "radial", "omega": 1, "puncture": false}'],
     "radial", "['puncture']"),
])
def test_unknown_descriptor_fields_exit_2(args, kind, unknown, capsys):
    # a misspelled defaulted field is refused, not silently dropped
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert (code, out) == (2, ""), args
    assert err.startswith(f"config error: unknown fields {unknown} in a {kind!r} ")


def test_missing_defaulted_field_takes_its_default(validate_schema):
    # a scaled ellipsoid without "dim" is the default two-dimensional one
    data = {"kind": "scaled-ellipsoid", "eps": 0.1, "t": 0.5}
    validate_schema("domain.json", data)
    args = ["dist", "--domain", json.dumps(data), "--z", "[0, 0]", "--w", "[0.1, 0]"]
    assert run_cli(args) == run_cli(["dist", "--domain", json.dumps({**data, "dim": 2}),
                                     *args[3:]])
    assert run_cli(args)[0] == 0


@pytest.mark.parametrize("fmap,family", [
    ({"kind": "power", "n": 1e18}, {"kind": "radial", "count": 2}),
    ({"kind": "monomial", "matrix": [[1e20, 0], [0, 1]],
      "base": {"kind": "ball", "center": [0, 0], "radius": 1}},
     {"kind": "antipodal", "count": 2,
      "base": {"kind": "ball", "center": [0, 0], "radius": 1}}),
])
def test_audit_with_exponents_too_large_for_floats_exit_2(fmap, family, capsys):
    # the images of interior points under- or overflow floating point: a
    # config error, not a non-interior point, and no numpy warning (which
    # the test configuration turns into an error)
    code, out = run_cli(["audit", "--map", json.dumps(fmap), "--family", json.dumps(family)])
    assert (code, out) == (2, "")
    assert "under- or overflows floating point" in capsys.readouterr().err


def test_arctanh_rounding_near_the_boundary_is_a_one_line_error(tmp_path, capsys):
    # two disc points of modulus 1 - 1e-11, at angles 0.3 and 0.31: interior
    # in floating point, but the disc kernel's arctanh argument rounds above
    # 1.  The closed form raises ClosedFormError, and the CLI reports it on
    # one line of stderr with exit 1, not a traceback, alone or in a batch
    from kobalab import closed_forms as cf

    z, w = "0.9553364891160526+0.29552020665838435j", "0.95233356987619+0.30505863644039294j"
    with pytest.raises(cf.ClosedFormError, match="arctanh argument"):
        cf.disc_distance(complex(z), complex(w))
    for argv in (["dist", "--domain", "unit-disc", "--z", z, "--w", w],
                 ["dist", "--batch", _batch_file(tmp_path, [({"kind": "unit-disc"}, z, w)])]):
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.startswith("evaluation error: arctanh argument 1.0") and err.count("\n") == 1
        assert "Traceback" not in err
