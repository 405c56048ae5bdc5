"""Command-line front door: distance queries, geodesic exports, scaling
probes, isometry audits, and one-shot reproduction of the bundled examples.

Exit codes: 0 success, 1 failed expectation/assertion, 2 malformed
descriptors or config, 3 non-interior points.  All sampling is seeded
(default 0), so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .checker import reproduce_example
from .coverings import CoveringError, map_from_dict
from .domains import DomainError, NonInteriorError, _decoder, domain_from_dict, require_interior
from .geodesics import GeodesicError, geodesic_samples_csv
from .metric import DeckBoundError, SandwichGapError, _within_gap, distance, distances
from .serialize import family_from_dict, jsonify, parse_point, point_to_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_NON_INTERIOR = 3

# the properties of schemas/v1/audit-config.json, which allows no others
AUDIT_CONFIG_KEYS = frozenset({"map", "family", "expect", "tol", "samples"})


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_json_arg(raw: str):
    if raw.startswith("@"):
        with open(raw[1:]) as fh:
            return json.load(fh)
    return json.loads(raw)


def _domain_arg(args) -> dict:
    """Domain descriptor from --domain: inline JSON, @file, or a bare kind
    name combined with --R / --dim."""
    raw = args.domain.strip()
    if raw.startswith("{") or raw.startswith("@"):
        return _load_json_arg(raw)
    data = {"kind": raw}
    if getattr(args, "R", None) is not None:
        data["R"] = args.R
    if getattr(args, "dim", None) is not None:
        data["dim"] = args.dim
    return data


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _point_csv(z) -> str:
    return ";".join(f"{c.real:.17g}{c.imag:+.17g}j" for c in np.atleast_1d(z).tolist())


_CSV_HEADER = "domain,z,w,value,method,gap,deck_index"


def _descriptor_text(domain: dict) -> str:
    """The descriptor as the CSV domain column writes it, and as --batch
    keys its decoded domains."""
    return json.dumps(domain, sort_keys=True)


def _csv_row(domain_text: str, z, w, val) -> str:
    deck = "" if val.deck_index is None else ";".join(str(k) for k in val.deck_index)
    return ",".join([domain_text.replace(",", ";"), _point_csv(z), _point_csv(w),
                     _fmt(val.value), val.method, _fmt(val.gap), deck])


def _dist_batch(rows, gap_tol) -> list[str]:
    """CSV lines of a --batch run, in input order.  Each distinct descriptor
    text is decoded once, and one `distances` call (which checks its points
    with one row-wise call) runs per distinct domain.  If anything raises,
    the first bad row in input order decides the error raised."""
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise DomainError("--batch needs a JSON list of {domain, z, w} objects")
    try:
        texts = [_descriptor_text(row["domain"]) for row in rows]
        domains: dict = {}
        for text, row in zip(texts, rows):
            if text not in domains:
                domains[text] = domain_from_dict(row["domain"])
        points = [(parse_point(row["z"]), parse_point(row["w"])) for row in rows]
        groups: dict = {}
        for k, text in enumerate(texts):
            groups.setdefault(domains[text], []).append(k)
        vals = [None] * len(rows)
        for dom, ks in groups.items():
            found = distances(dom, [p for k in ks for p in points[k]],
                              np.arange(2 * len(ks)).reshape(-1, 2))
            for k, val in zip(ks, found):
                vals[k] = val
    except (ValueError, KeyError, RuntimeError):
        for row in rows:
            dom = domain_from_dict(row["domain"])
            require_interior(dom, parse_point(row["z"]))
            require_interior(dom, parse_point(row["w"]))
        raise
    _within_gap([val.gap for val in vals], gap_tol)
    return [_csv_row(text, z, w, val) for text, (z, w), val in zip(texts, points, vals)]


def cmd_dist(args) -> int:
    if args.gap_tol is not None and not args.gap_tol >= 0.0:
        raise DomainError(f"--gap-tol must be >= 0, got {args.gap_tol}")
    if args.batch:
        lines = _dist_batch(_load_json_arg(args.batch), args.gap_tol)
        _emit("\n".join([_CSV_HEADER, *lines]) + "\n", args.out)
        return EXIT_OK
    if args.domain is None or args.z is None or args.w is None:
        raise DomainError("dist needs --domain, --z, --w (or --batch)")
    data = _domain_arg(args)
    dom = domain_from_dict(data)
    z = parse_point(args.z)
    w = parse_point(args.w)
    val = distance(dom, z, w, gap_tol=args.gap_tol)
    if args.format == "csv":
        _emit(f"{_CSV_HEADER}\n{_csv_row(_descriptor_text(data), z, w, val)}\n", args.out)
    elif args.format == "json":
        payload = {"value": val.value, "method": val.method, "gap": val.gap,
                   "deck_index": list(val.deck_index) if val.deck_index else None,
                   "z": point_to_json(z), "w": point_to_json(w)}
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        deck = "" if val.deck_index is None else f"  deck={val.deck_index}"
        _emit(f"{_fmt(val.value)}  method={val.method}  gap={_fmt(val.gap)}{deck}\n", args.out)
    return EXIT_OK


def cmd_audit(args) -> int:
    from .checker import audit_isometry

    config = _load_json_arg(args.config) if args.config else {}
    if not isinstance(config, dict) or not set(config) <= AUDIT_CONFIG_KEYS:
        raise DomainError(f"an audit config must be a JSON object with keys among "
                          f"{sorted(AUDIT_CONFIG_KEYS)}, not {config!r}")
    if args.map:
        config["map"] = _load_json_arg(args.map)
    if args.family:
        config["family"] = _load_json_arg(args.family)
    if args.expect:
        config["expect"] = args.expect
    fmap = map_from_dict(config["map"])
    family = family_from_dict(config["family"])
    try:
        tol = float(config.get("tol", args.tol))
    except (TypeError, ValueError):
        raise DomainError("audit tol must be a number") from None
    samples = config.get("samples", 32)
    if (isinstance(samples, bool) or not isinstance(samples, (int, float))
            or not float(samples).is_integer()):
        raise DomainError(f"audit samples must be an integer, got {samples!r}")
    samples = int(samples)
    report = audit_isometry(fmap, family, samples=samples, tol=tol)
    if args.format == "json":
        _emit(json.dumps(jsonify(report.to_dict()), sort_keys=True) + "\n", args.out)
    else:
        _emit(report.to_text() + "\n", args.out)
    expect = config.get("expect")
    if expect is not None and report.verdict != expect:
        sys.stderr.write(f"expectation failed: verdict {report.verdict} != {expect}\n")
        return EXIT_FAIL
    return EXIT_OK


def cmd_examples(args) -> int:
    names = [args.only] if args.only else ["power-disc", "exp-annulus", "monomial-tube"]
    bundles = []
    for name in names:
        bundle = reproduce_example(name, n=args.n, R=args.R, seed=args.seed)
        bundles.append(bundle)
    lines = []
    failed = []
    for b in bundles:
        status = "PASS" if b["passed"] else "FAIL"
        lines.append(f"{b['name']:<16} {status}")
        for key, ok in b["assertions"].items():
            lines.append(f"    {key:<28} {'ok' if ok else 'FAILED'}")
            if not ok:
                failed.append(f"{b['name']}:{key}")
        if b["name"] == "monomial-tube":
            lines.append(f"    multiplicity                 {b['multiplicity']}")
    text = "\n".join(lines) + "\n"
    if args.format == "json":
        _emit(json.dumps(jsonify(bundles), sort_keys=True) + "\n", args.out)
    else:
        _emit(text, args.out)
    if failed:
        sys.stderr.write(f"first failing assertion: {failed[0]}\n")
        return EXIT_FAIL
    return EXIT_OK


def cmd_export_geodesic(args) -> int:
    if args.count < 0:
        raise DomainError(f"--count must be >= 0, got {args.count}")
    spec = _load_json_arg(args.geodesic)
    curve = _geodesic_from_dict(spec)
    lo, hi = curve.window(args.window)
    ts = np.linspace(lo, hi, args.count)
    _emit(geodesic_samples_csv(curve, ts), args.out)
    return EXIT_OK


@_decoder
def _geodesic_from_dict(spec: dict):
    from .domains import base_from_dict
    from .geodesics import (AntipodalPair, annulus_radial_geodesic, antipodal_geodesic,
                            ball_geodesic_segment, ball_landing_ray, disc_radial_geodesic,
                            strip_crossing_geodesic, strip_vertical_line)

    kind = spec.get("kind")
    if kind == "ball-segment":
        return ball_geodesic_segment(int(spec["dim"]), parse_point(spec["z"]), parse_point(spec["w"]))
    if kind == "ball-ray":
        return ball_landing_ray(int(spec["dim"]), parse_point(spec["z"]), parse_point(spec["p"]))
    if kind == "strip-crossing":
        return strip_crossing_geodesic(float(spec["R"]), float(spec.get("height", 0.0)))
    if kind == "strip-vertical":
        return strip_vertical_line(float(spec["R"]), float(spec.get("t0", 0.0)))
    if kind == "radial":
        return disc_radial_geodesic(complex(spec.get("omega", "1")), bool(spec.get("punctured", True)))
    if kind == "annulus-radial":
        return annulus_radial_geodesic(float(spec["R"]), float(spec.get("phase", 0.0)))
    if kind == "antipodal":
        base = base_from_dict(spec["base"])
        pair = AntipodalPair(base, tuple(spec["x"]), tuple(spec["y"]))
        return antipodal_geodesic(base, pair)
    raise DomainError(f"unknown geodesic kind {kind!r}")


def cmd_scaling_probe(args) -> int:
    from .scaling import (boundary_deviation_probe, compactly_divergent_probe,
                          geodesic_persistence_probe, metric_convergence_probe,
                          scaling_automorphism)

    try:
        ts = [float(t) for t in args.ts.split(",")]
    except ValueError:
        raise DomainError(f"--ts needs comma-separated numbers, got {args.ts!r}") from None
    if args.n < 1:
        raise DomainError(f"--n must be >= 1, got {args.n}")
    if args.probe == "metric":
        table = metric_convergence_probe(args.eps, ts, n=args.n)
    elif args.probe == "persistence":
        w0 = parse_point(args.w0) if args.w0 else np.zeros(args.n, dtype=complex)
        table = geodesic_persistence_probe(args.eps, ts, w0, n=args.n)
    elif args.probe == "boundary":
        table = boundary_deviation_probe(args.eps, ts, n=args.n)
    elif args.probe == "divergence":
        seeds = []
        for k, t in enumerate(ts):
            p = np.zeros(args.n, dtype=complex)
            p[-1] = 1.0 - 1.0 / (k + 2)
            seeds.append(scaling_automorphism(t, p))
        report = compactly_divergent_probe(ts, seeds)
        _emit(json.dumps(jsonify(report), sort_keys=True) + "\n", args.out)
        return EXIT_OK
    else:
        raise DomainError(f"unknown probe {args.probe!r}")
    if args.format == "json":
        _emit(json.dumps(jsonify(table.summary()), sort_keys=True) + "\n", args.out)
    else:
        _emit(table.to_csv(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kobalab",
        description="Kobayashi-geometry laboratory: distances, geodesics, "
                    "scaling probes, and isometry audits on model domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="Kobayashi distance between two points")
    p_dist.add_argument("--domain", help="domain descriptor JSON, @file, or bare kind name")
    p_dist.add_argument("--R", type=float, default=None, help="R for bare annulus/strip names")
    p_dist.add_argument("--dim", type=int, default=None, help="dim for bare ball/polydisc names")
    p_dist.add_argument("--z", help="first point")
    p_dist.add_argument("--w", help="second point")
    p_dist.add_argument("--batch", help="JSON list of {domain, z, w} rows (or @file); CSV out")
    p_dist.add_argument("--gap-tol", type=float, default=None,
                        help="error out when a sandwich gap exceeds this")
    p_dist.add_argument("--out", default=None)
    p_dist.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_dist.set_defaults(func=cmd_dist)

    p_audit = sub.add_parser("audit", help="isometry audit of a map along a family")
    p_audit.add_argument("--config", help="audit config JSON (or @file)")
    p_audit.add_argument("--map", help="map descriptor JSON (overrides config)")
    p_audit.add_argument("--family", help="family descriptor JSON (overrides config)")
    p_audit.add_argument("--expect", choices=("isometric-along-family", "violated"))
    p_audit.add_argument("--tol", type=float, default=1e-9)
    p_audit.add_argument("--out", default=None)
    p_audit.add_argument("--format", choices=("text", "json"), default="text")
    p_audit.set_defaults(func=cmd_audit)

    p_ex = sub.add_parser("examples", help="run the bundled example audits")
    p_ex.add_argument("--only", choices=("power-disc", "exp-annulus", "monomial-tube"))
    p_ex.add_argument("--n", type=int, default=2)
    p_ex.add_argument("--R", type=float, default=4.0)
    p_ex.add_argument("--seed", type=int, default=0)
    p_ex.add_argument("--out", default=None)
    p_ex.add_argument("--format", choices=("text", "json"), default="text")
    p_ex.set_defaults(func=cmd_examples)

    p_geo = sub.add_parser("export-geodesic", help="sample a geodesic to CSV")
    p_geo.add_argument("--geodesic", required=True, help="geodesic descriptor JSON (or @file)")
    p_geo.add_argument("--count", type=int, default=65)
    p_geo.add_argument("--window", type=float, default=8.0)
    p_geo.add_argument("--out", default=None)
    p_geo.set_defaults(func=cmd_export_geodesic)

    p_probe = sub.add_parser("scaling-probe", help="run a scaling-method probe")
    p_probe.add_argument("--probe", choices=("metric", "persistence", "divergence", "boundary"),
                         required=True)
    p_probe.add_argument("--eps", type=float, default=0.05)
    p_probe.add_argument("--ts", default="0.5,0.9,0.99")
    p_probe.add_argument("--n", type=int, default=2)
    p_probe.add_argument("--w0", default=None)
    p_probe.add_argument("--out", default=None)
    p_probe.add_argument("--format", choices=("csv", "json"), default="csv")
    p_probe.set_defaults(func=cmd_scaling_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonInteriorError as exc:
        sys.stderr.write(f"non-interior point: {exc}\n")
        return EXIT_NON_INTERIOR
    except (DomainError, CoveringError, GeodesicError, json.JSONDecodeError, KeyError,
            FileNotFoundError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_SCHEMA
    except (DeckBoundError, SandwichGapError) as exc:
        sys.stderr.write(f"certification error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
