import io
import json
import math
import sys

import pytest

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
    # a negative sandwich-gap tolerance is a malformed option
    code, _ = run_cli(["dist", "--domain", "unit-disc", "--z", "0", "--w", "0.5",
                       "--gap-tol", "-1"])
    assert code == 2


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
    for matrix in ['[[1.5, 0], [0, 1]]', '[[2]]']:
        fmap = '{"kind": "monomial", "matrix": %s, "base": %s}' % (matrix, base)
        code, _ = run_cli(["audit", "--map", fmap, "--family", antipodal])
        assert code == 2, matrix
    radial = {"map": {"kind": "power", "n": 2}, "family": {"kind": "corrupted-radial", "count": 3}}
    for config in ['[1]', json.dumps({**radial, "samples": "x"}),
                   json.dumps({**radial, "samples": 1}), json.dumps({**radial, "tol": -1}),
                   json.dumps({**radial, "samples": 2.7}), json.dumps({**radial, "samples": True}),
                   json.dumps({**radial, "seed": 1}), json.dumps({**radial, "sample": 10})]:
        code, _ = run_cli(["audit", "--config", config])
        assert code == 2, config
    for family in ['{"kind": "radial", "count": 0}', '{"kind": "corrupted-radial", "count": 0}',
                   '{"kind": "antipodal", "count": 0, "base": %s}' % base,
                   '{"kind": "radial", "count": "x"}']:
        code, _ = run_cli(["audit", "--map", '{"kind": "power", "n": 2}', "--family", family])
        assert code == 2, family


def test_scaling_probe_bad_ts_exit_2():
    for ts in ("1.5", "0.5,x"):
        code, _ = run_cli(["scaling-probe", "--probe", "metric", "--ts", ts])
        assert code == 2, ts


def test_scaling_probe_bad_n_exit_2():
    for probe in ("metric", "persistence", "boundary", "divergence"):
        code, _ = run_cli(["scaling-probe", "--probe", probe, "--n", "0"])
        assert code == 2, probe


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


@pytest.mark.parametrize("args", [
    ["--geodesic", "[1]"],
    ["--geodesic", '{"kind": "radial", "omega": "x"}'],
    ["--geodesic", '{"kind": "radial"}', "--count", "-1"],
], ids=["not-an-object", "bad-field", "negative-count"])
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
