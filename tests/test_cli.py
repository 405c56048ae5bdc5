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
    for domain in ['{"kind": "nope"}', '{"kind": "annulus", "R": "x"}', '[1, 2]',
                   '{"kind": "tube", "base": {"kind": "ball", "center": [0], "radius": "a"}}']:
        code, _ = run_cli(["dist", "--domain", domain, "--z", "0", "--w", "0.5"])
        assert code == 2, domain


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
    for family in ['{"kind": "radial", "count": 0}', '{"kind": "corrupted-radial", "count": 0}',
                   '{"kind": "antipodal", "count": 0, "base": %s}' % base,
                   '{"kind": "radial", "count": "x"}']:
        code, _ = run_cli(["audit", "--map", '{"kind": "power", "n": 2}', "--family", family])
        assert code == 2, family


def test_scaling_probe_bad_ts_exit_2():
    for ts in ("1.5", "0.5,x"):
        code, _ = run_cli(["scaling-probe", "--probe", "metric", "--ts", ts])
        assert code == 2, ts


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
