"""Command-line front door: distance queries, geodesic exports, scaling
probes, isometry audits, and one-shot reproduction of the bundled examples.

Exit codes: 0 success, 1 failed expectation/assertion or a value that
could not be certified or evaluated, 2 malformed descriptors or config, 3
non-interior points.  All sampling is seeded
(default 0), so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .checker import EXAMPLES, reproduce_example
from .closed_forms import ClosedFormError
from .coverings import CoveringError, map_from_dict
from .domains import (DomainError, ModelDomain, NonInteriorError, _float, _int, check_eps,
                      domain_from_dict, require_interior)
from .geodesics import GeodesicError, geodesic_samples_csv
from .metric import (DeckBoundError, DistanceColumns, SandwichGapError, SandwichRangeError,
                     _check_gap_tol, _within_gap, distances)
from .serialize import family_from_dict, geodesic_from_dict, jsonify, parse_point, point_to_json
from .tube import TubeMetricError

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


_CSV_HEADER = "domain,z,w,value,method,gap,deck_index"


def _csv_lines(columns: list[str], points: np.ndarray, found: DistanceColumns) -> list[str]:
    """CSV lines of the pairs (points[2i], points[2i + 1]) of one domain,
    whose distances are `found`; columns[i] is row i's domain column.
    points is a C-contiguous (2m, n) complex array.  One %-format, built
    once, fills each line from lists of the columns."""
    m, n = len(found), points.shape[1]
    point = ";".join(["%.17g%+.17gj"] * n)
    deck = found.deck_index
    fmt = (f"%s,{point},{point},%.17g,%s,%.17g,"
           + ";".join(["%d"] * (0 if deck is None else deck.shape[1])))
    # a row of points.view(float) is Re, Im of each coordinate in turn
    floats = np.column_stack([points.view(float).reshape(m, 4 * n), found.value]).tolist()
    decks = [()] * m if deck is None else deck.tolist()
    return [fmt % (column, *coords, method, gap, *nu) for column, coords, method, gap, nu
            in zip(columns, floats, found.method.tolist(), found.gap.tolist(), decks)]


def _csv_column(domain) -> str:
    """The descriptor as the CSV domain column writes it: its JSON text
    with sorted keys, commas turned into semicolons."""
    return json.dumps(domain, sort_keys=True).replace(",", ";")


def _domain_groups(rows) -> list[tuple[list[int], list[str], ModelDomain]]:
    """The --batch rows grouped by decoded domain, in order of first
    appearance, as (row indices in input order, their CSV domain columns,
    domain).  A descriptor's text is made once per distinct value, keyed
    by its repr (for decoded JSON, equal reprs mean equal texts, and 4 and
    4.0 stay two texts), and decoded once per distinct text."""
    entries: dict[str, tuple] = {}      # repr -> (group, column)
    by_column: dict[str, tuple] = {}    # column -> group
    groups: dict = {}                   # domain -> (row indices, columns)
    for k, row in enumerate(rows):
        desc = row["domain"]
        key = repr(desc)
        entry = entries.get(key)
        if entry is None:
            column = _csv_column(desc)
            if column not in by_column:
                by_column[column] = groups.setdefault(domain_from_dict(desc), ([], []))
            entry = entries[key] = (by_column[column], column)
        (ks, columns), column = entry
        ks.append(k)
        columns.append(column)
    return [(ks, columns, domain) for domain, (ks, columns) in groups.items()]


def _group_points(rows, ks: list[int]):
    """The points of the rows ks in the order z, w of each row: one (2k, n)
    complex array when every z and every w is a list of n [re, im] number
    pairs (one np.array call each), else the list of their parse_points."""
    coords = []
    for key in ("z", "w"):
        try:
            got = np.array([rows[k][key] for k in ks])
        except (TypeError, ValueError, OverflowError):
            break
        if got.dtype.kind not in "iuf" or got.ndim != 3 or got.shape[2] != 2:
            break
        coords.append(got)
    else:
        if coords[0].shape == coords[1].shape:
            pairs = np.stack(coords, axis=1).astype(float)      # (k, 2, n, 2)
            return pairs.view(complex).reshape(2 * len(ks), -1)
    return [parse_point(rows[k][key]) for k in ks for key in ("z", "w")]


def _dist_batch(rows, gap_tol) -> list[str]:
    """CSV lines of a --batch run, in input order.  One `distances` call
    runs per distinct domain (see `_domain_groups`, `_group_points`), and
    the lines are formatted from its columns.  If anything raises, the
    first bad row in input order decides the error raised."""
    _check_gap_tol(gap_tol)
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise DomainError("--batch needs a JSON list of {domain, z, w} objects")
    lines = [""] * len(rows)
    gaps = np.zeros(len(rows))
    try:
        for ks, columns, domain in _domain_groups(rows):
            points = _group_points(rows, ks)
            found = distances(domain, points, np.arange(2 * len(ks)).reshape(-1, 2))
            gaps[ks] = found.gap
            for k, line in zip(ks, _csv_lines(columns, np.asarray(points), found)):
                lines[k] = line
    except (ValueError, KeyError, RuntimeError):
        for row in rows:
            dom = domain_from_dict(row["domain"])
            require_interior(dom, parse_point(row["z"]))
            require_interior(dom, parse_point(row["w"]))
        raise
    _within_gap(gaps, gap_tol)
    return lines


def cmd_dist(args) -> int:
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
    found = distances(dom, [z, w], [(0, 1)], gap_tol=args.gap_tol)
    val = found[0]
    if args.format == "csv":
        line, = _csv_lines([_csv_column(data)], np.array([z, w]), found)
        _emit(f"{_CSV_HEADER}\n{line}\n", args.out)
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
        tol = _float(config.get("tol", args.tol))
        samples = _int(config.get("samples", 32))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"audit tol must be a number and samples an integer: {exc}") from None
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
    names = [args.only] if args.only else list(EXAMPLES)
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
    if not 0.0 < args.window < np.inf:
        raise DomainError(f"--window must be a finite number > 0, got {args.window}")
    spec = _load_json_arg(args.geodesic)
    curve = geodesic_from_dict(spec)
    lo, hi = curve.window(args.window)
    ts = np.linspace(lo, hi, args.count)
    _emit(geodesic_samples_csv(curve, ts), args.out)
    return EXIT_OK


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
    check_eps(args.eps)
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


@functools.lru_cache(maxsize=None)
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
    p_ex.add_argument("--only", choices=tuple(EXAMPLES))
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
    except (DeckBoundError, SandwichGapError, SandwichRangeError, TubeMetricError) as exc:
        sys.stderr.write(f"certification error: {exc}\n")
        return EXIT_FAIL
    except ClosedFormError as exc:
        sys.stderr.write(f"evaluation error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
