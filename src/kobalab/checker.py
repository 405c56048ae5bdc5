"""Audits whether a holomorphic map acts as a Kobayashi isometry along a
family of geodesics, whether the family is complete, and whether the map is
injective/proper at desk scale.

The audit compares source and target distances over sampled parameter
pairs.  Sandwich-valued metrics are compared by certified interval
separation, so a sandwich gap can never masquerade as a violation; the
reported per-geodesic deviation is the amount by which the two distance
brackets fail to overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._sampling import halton, rng
from .coverings import HolomorphicMap, monomial_preimages
from .domains import (DomainError, ModelDomain, NonInteriorError, PuncturedDisc, ReinhardtLog,
                      Strip, _polar_rows, base_dim, escape_margin,
                      require_interior)
from .geodesics import (GeodesicFamily, antipodal_family, radial_family,
                        strip_crossing_family)
from .metric import _evaluate, distances

DEFAULT_SAMPLES = 32
DEFAULT_TOL = 1e-9
# width of each ray/line window of an audit, in hyperbolic units: beyond it
# the sampled points sit so close to the boundary that closed-form arctanh
# evaluations carry more than the 1e-9 default tolerance in rounding
AUDIT_WINDOW = 6.0
# parameter samples per member when a finite family is scanned for coverage
SCAN_SAMPLES = 400
# (point, sample) pairs per block of that scan, which bounds memory
_SCAN_BLOCK = 1 << 16


@dataclass(frozen=True)
class GeodesicAudit:
    label: str
    max_deviation: float      # certified bracket separation
    max_raw_deviation: float  # |midpoint difference|, gap-unaware
    max_gap: float            # largest combined sandwich gap among pairs
    samples: int


@dataclass
class IsometryReport:
    map_label: str
    per_geodesic: list[GeodesicAudit]
    tol: float
    completeness: dict | None = None
    collisions: list[dict] = field(default_factory=list)

    @property
    def max_deviation(self) -> float:
        return max((g.max_deviation for g in self.per_geodesic), default=0.0)

    @property
    def verdict(self) -> str:
        return "isometric-along-family" if self.max_deviation < self.tol else "violated"

    def to_dict(self) -> dict:
        return {
            "map": self.map_label,
            "tol": self.tol,
            "verdict": self.verdict,
            "max_deviation": self.max_deviation,
            "per_geodesic": [{"label": g.label, "max_deviation": g.max_deviation,
                              "max_raw_deviation": g.max_raw_deviation,
                              "max_gap": g.max_gap, "samples": g.samples}
                             for g in self.per_geodesic],
            "completeness": self.completeness,
            "collisions": self.collisions,
        }

    def to_text(self) -> str:
        lines = [f"isometry audit: {self.map_label}",
                 f"  verdict: {self.verdict} (tol {self.tol:g}, "
                 f"max deviation {self.max_deviation:.3e})"]
        for g in self.per_geodesic:
            lines.append(f"  {g.label:<28} dev {g.max_deviation:.3e}  "
                         f"raw {g.max_raw_deviation:.3e}  gap {g.max_gap:.3e}")
        if self.completeness is not None:
            c = self.completeness
            lines.append(f"  completeness: {c['covered']}/{c['grid_size']} covered, "
                         f"max miss {c['max_miss']:.3e}")
        lines.append(f"  collisions: {len(self.collisions)}")
        return "\n".join(lines)


def audit_isometry(f: HolomorphicMap, family: GeodesicFamily,
                   samples: int = DEFAULT_SAMPLES,
                   tol: float = DEFAULT_TOL) -> IsometryReport:
    """Compare K_source(c(t), c(s)) with K_target(F c(t), F c(s)) over all
    parameter pairs from `samples` values per family member.

    The members are taken in groups of consecutive members with at most
    _AUDIT_PAIRS pairs together (a member with more goes alone).  Each
    member is sampled by one call of its row sampler (`GeodesicCurve.rows`)
    and its rows are checked at once; a group's samples are stacked as
    rows, `samples` per member, and its pairs are each member's pairs
    offset to its rows.  The source
    side's pair matrix is one batched `distances` call, which checks the
    rows on the source with one `require_interior` call; one row-wise
    `apply` then maps them, one more call checks the images on the target,
    and the target side is evaluated on those checked rows.  Each member's
    separation, raw deviation and gap are reduced over its slice of those
    columns.  A sample outside the source raises NonInteriorError naming
    it, and so does an image outside the target.  A group that raises is
    run again one member at a time, so the error raised is that of the
    first failing member, its source check before its images, as in a
    member-by-member audit.  Each member is sampled on its window of
    AUDIT_WINDOW hyperbolic units.
    """
    if samples < 2 or not tol > 0.0:
        raise DomainError(f"an audit needs samples >= 2 and tol > 0, got {samples} and {tol}")
    if not family.members:
        raise DomainError(f"an audit needs a family member, {family.label!r} has none")
    pairs = np.transpose(np.triu_indices(samples, 1))
    members = family.members
    size = max(1, _AUDIT_PAIRS // len(pairs))
    per = []
    for start in range(0, len(members), size):
        group = members[start:start + size]
        try:
            per += _audit_group(f, group, samples, pairs)
        except (ValueError, RuntimeError):
            # every error of the domain, map and distance layers is one of
            # these; run alone, the first failing member raises its own
            if len(group) == 1:
                raise
            for member in group:
                _audit_group(f, [member], samples, pairs)
            raise
    return IsometryReport(map_label=f.label, per_geodesic=per, tol=tol)


# sampled pairs per group of audited members: one `distances` call per
# side covers the group, and the audit's memory grows with the group.
# Measured with perfbench on a 2-vCPU VM against one call per member:
# groups of 2,048 pairs (four members at 32 samples) ran `examples` 25 %
# faster at +1.3 % peak RSS (ten pairs of 25 s runs); in 8 s runs, groups
# of 4,096 pairs were 22-28 % faster at +3.5-4.3 %, of 8,192 pairs 26-30 %
# faster at +10 %, and one call for the whole family 29-30 % at +14 %
_AUDIT_PAIRS = 1 << 11


def _audit_group(f: HolomorphicMap, members, samples: int,
                 pairs: np.ndarray) -> list[GeodesicAudit]:
    """The `GeodesicAudit` of each of the members, from one evaluation of
    each side over their stacked samples.  Each member is sampled by one
    call of its row sampler, and its rows are checked before the next
    member is sampled: a malformed or non-finite sample raises the
    DomainError of `_grid_rows` (that of `as_point`), the first failing
    member's."""
    pts = np.concatenate([_grid_rows(member.rows(np.linspace(*member.window(AUDIT_WINDOW),
                                                             samples)))
                          for member in members])
    stacked = (pairs + samples * np.arange(len(members))[:, None, None]).reshape(-1, 2)
    src = distances(f.source, pts, stacked)
    try:
        imgs = require_interior(f.target, np.ascontiguousarray(f.apply(pts)))
    except NonInteriorError as exc:
        raise NonInteriorError(f"an image point leaves the target domain: {exc}") from None
    tgt = _evaluate(f.target, imgs, stacked, None)
    below, above = src.lower - tgt.upper, tgt.lower - src.upper
    raw, gap = np.abs(src.value - tgt.value), src.gap + tgt.gap
    out = []
    for k, member in enumerate(members):
        cols = slice(k * len(pairs), (k + 1) * len(pairs))
        out.append(GeodesicAudit(member.label or "geodesic",
                                 _largest(below[cols], above[cols]), _largest(raw[cols]),
                                 _largest(gap[cols]), len(pairs)))
    return out


def _largest(*columns: np.ndarray) -> float:
    """The largest entry of the columns, or 0.0 if none is positive; NaN
    entries are skipped."""
    top = float(np.fmax.reduce(np.concatenate(columns), initial=0.0))
    return top if top > 0.0 else 0.0


def completeness_check(family: GeodesicFamily, grid, tol: float = 1e-6) -> dict:
    """Coverage of a point grid by the family.

    The grid's points are checked on the family's domain with one
    `require_interior` call (NonInteriorError names the first point
    outside it), and each point's miss is the largest coordinate modulus
    of its distance to the family.  A family with a `member_through`
    locator is queried once for the whole grid, and each miss is taken
    against the locator's hit.  A family without one is scanned:
    SCAN_SAMPLES parameters of each member's window are sampled once, and
    each point's miss is its smallest miss over those samples.
    """
    if not family.members and family.member_through is None:
        raise ValueError("empty family")
    rows = np.asarray(grid, dtype=complex)
    if rows.size == 0:
        misses = np.zeros(0)
    else:
        rows = require_interior(family.domain, rows.reshape(len(rows), -1))
        if family.member_through is not None:
            _, hits = family.member_through(rows)
            misses = np.max(np.abs(hits - rows), axis=1)
        else:
            misses = _scan_misses(family, rows)
    covered = int(np.count_nonzero(misses < tol))
    return {"grid_size": len(misses), "covered": covered,
            "max_miss": float(np.max(misses, initial=0.0)), "tol": tol,
            "complete": covered == len(misses)}


def _scan_misses(family: GeodesicFamily, rows: np.ndarray) -> np.ndarray:
    """Each row's smallest miss over SCAN_SAMPLES samples per member; the
    misses of samples with a NaN coordinate are skipped."""
    samples = np.concatenate([member.rows(np.linspace(*member.window(), SCAN_SAMPLES))
                              for member in family.members])
    misses = np.empty(len(rows))
    step = max(1, _SCAN_BLOCK // len(samples))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        gaps = np.max(np.abs(samples[None, :, :] - block[:, None, :]), axis=2)
        misses[start:start + step] = np.fmin.reduce(gaps, axis=1, initial=math.inf)
    return misses


def injectivity_probe(f: HolomorphicMap, grid, tol: float = 1e-9) -> list[dict]:
    """All grid pairs (i, j), i < j, whose points differ by more than tol
    but whose images differ by less, in (i, j) order.

    The grid (N points of one dimension, or their (N, n) rows) is mapped
    by one row-wise `apply`, and the point and image
    separations (the largest coordinate modulus of the difference) are
    taken over the upper triangle in array passes.  For power/monomial
    maps the collisions are cross-checked against the enumerated fibers of
    their first points' images, in one `monomial_preimages` call: the
    partner must be a deck sibling of the first point, so a collision that
    is not explained by the covering structure is flagged.
    """
    pts = _grid_rows(grid)
    imgs = f.apply(pts)
    found = _close_images(pts, imgs, tol)
    collisions = [{"i": i, "j": j, "z": [complex(c) for c in pts[i]],
                   "w": [complex(c) for c in pts[j]], "image_gap": gap}
                  for i, j, gap in found]
    if f.fiber_matrix is not None and found:
        firsts, partners, _ = zip(*found)
        fibers = monomial_preimages(f.fiber_matrix, imgs[list(firsts)])
        siblings = np.max(np.abs(fibers - pts[list(partners)][:, None, :]), axis=2) < 1e-7
        for entry, deck in zip(collisions, siblings.any(axis=1).tolist()):
            entry["deck_pair"] = deck
    return collisions


def _grid_rows(points) -> np.ndarray:
    """The (N, n) complex rows of N points given as scalars, 1-d sequences
    of one length, or rows, in one conversion; a malformed or non-finite
    point raises the DomainError of `as_point`."""
    rows = np.asarray(points, dtype=complex)
    rows = rows[:, None] if rows.ndim == 1 else rows
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise DomainError("a point must be a scalar or a 1-d sequence")
    if not np.isfinite(rows).all():
        raise DomainError("point has non-finite coordinates")
    return rows


# pairs per block of the injectivity probe's triangle, which bounds memory
_TRIANGLE_BLOCK = 1 << 16


def _close_images(pts: np.ndarray, imgs: np.ndarray, tol: float) -> list[tuple]:
    """(i, j, image separation) of each pair i < j, in (i, j) order, whose
    points are not within tol of each other and whose images are."""
    count = len(pts)
    found = []
    step = max(1, _TRIANGLE_BLOCK // max(count, 1))
    for start in range(0, count, step):
        i, j = np.nonzero(np.arange(start, min(start + step, count))[:, None]
                          < np.arange(count))
        i += start
        apart = ~(np.max(np.abs(pts[i] - pts[j]), axis=1) <= tol)
        i, j = i[apart], j[apart]
        gaps = np.max(np.abs(imgs[i] - imgs[j]), axis=1)
        hit = gaps < tol
        found += zip(i[hit].tolist(), j[hit].tolist(), gaps[hit].tolist())
    return found


def properness_probe(f: HolomorphicMap, sequences) -> dict:
    """Boundary behavior of images along escaping sequences.

    A sequence escapes when its source margins decay; the map is
    proper-compatible when every escaping sequence has image margins
    decaying to the boundary as well (final margin below 1e-2 or below 5%
    of the initial one).  Each sequence is mapped by one row-wise `apply`.
    """
    out = []
    for seq in sequences:
        pts = _grid_rows(seq)
        src = [float(escape_margin(f.source, z)) for z in pts]
        img = [float(escape_margin(f.target, w)) for w in f.apply(pts)]
        escapes = bool(src[-1] < max(1e-3, 0.05 * src[0]))
        to_boundary = bool(img[-1] < max(1e-2, 0.05 * img[0]))
        out.append({"source_margins": src, "image_margins": img,
                    "escapes_source": escapes, "image_to_boundary": to_boundary})
    proper = all(s["image_to_boundary"] for s in out if s["escapes_source"])
    return {"sequences": out, "proper_compatible": proper}


# ---------------------------------------------------------------------------
# deterministic grids
# ---------------------------------------------------------------------------

def quasirandom_grid(domain: ModelDomain, count: int = 256, seed: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy interior points for coverage grids, as
    the rows of a (count, n) array."""
    build = getattr(domain, "grid", None)
    if build is None:
        raise ValueError(f"no grid builder for {domain!r}")
    return build(count, 20 + 1000 * seed)


def polar_orbit_grid(radii=(0.2, 0.35, 0.5, 0.65, 0.8), angles: int = 30) -> np.ndarray:
    """Structured punctured-disc grid closed under rotation by 2 pi/k for
    every k dividing `angles` (so power-map collisions appear exactly): the
    (N, 1) rows r e^{2 pi i a/angles}, a = 0, ..., angles - 1, of each
    radius in turn."""
    th = 2.0 * math.pi * np.arange(angles) / angles
    return _polar_rows(np.repeat(np.asarray(radii, dtype=float), angles),
                       np.tile(th, len(radii)))


def strip_lattice_grid(R: float, re_count: int = 5, im_values=None) -> np.ndarray:
    """Strip grid containing exact 2*pi*i-translate pairs: the (N, 1) rows
    x + iy, each real part x with every y of `im_values` in turn."""
    a = math.log(R)
    if im_values is None:
        im_values = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi]
    res = np.linspace(-0.8 * a, 0.8 * a, re_count)
    pts = np.repeat(res, len(im_values)).astype(complex)
    pts.imag = np.tile(np.asarray(im_values, dtype=float), re_count)
    return pts[:, None]


def reinhardt_sign_grid(base, log_points=None) -> np.ndarray:
    """Reinhardt grid containing full sign-pattern orbits of each modulus:
    the (N, n) rows exp(u) s of each log point u, s over the 2^n sign
    patterns (coordinate j of pattern k is negative where bit j of k is
    set)."""
    n = base_dim(base)
    logs = 0.6 * (halton(6, n, skip=7) - 0.5) if log_points is None else log_points
    logs = np.asarray(logs, dtype=float).reshape(-1, n)
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    signs = np.where(bits == 1, -1.0, 1.0)
    return (np.exp(logs)[:, None, :] * signs).reshape(-1, n).astype(complex)


# ---------------------------------------------------------------------------
# the bundled counterexample audits
# ---------------------------------------------------------------------------

def reproduce_example(name: str, n: int = 2, R: float = 4.0, seed: int = 0,
                      samples: int = DEFAULT_SAMPLES) -> dict:
    """Run the bundled audit for one of the named constructions (EXAMPLES).

    power-disc      lambda -> lambda^n on the punctured disc, radial family
    exp-annulus     exp: H_R -> A_R along the crossing-line family
    monomial-tube   Phi_{2I} on the Reinhardt domain over the unit ball,
                    antipodal family, multiplicity 2^n

    Each bundle reports the isometry audit, completeness, injectivity,
    properness, and the assertions that make it a certified (counter)example.
    """
    if name not in EXAMPLES:
        raise ValueError(f"unknown example {name!r}; choose {', '.join(EXAMPLES)}")
    return EXAMPLES[name](n, R, seed, samples)


def _example_power_disc(n: int, R: float, seed: int, samples: int) -> dict:
    from .coverings import power_map

    f = power_map(n)
    family = radial_family(12)
    report = audit_isometry(f, family, samples=samples)
    report.completeness = completeness_check(family, quasirandom_grid(PuncturedDisc(), 256, seed))
    report.collisions = injectivity_probe(f, polar_orbit_grid())
    omega = complex(math.cos(0.3), math.sin(0.3))
    seqs = [[np.array([(1.0 - 2.0 ** -k) * omega]) for k in range(1, 13)],
            [np.array([2.0 ** -k * omega]) for k in range(1, 13)]]
    properness = properness_probe(f, seqs)
    assertions = {
        "isometric": report.verdict == "isometric-along-family",
        "complete": report.completeness["complete"],
        "collisions_found": (len(report.collisions) >= 1) == (n >= 2),
        "proper_compatible": properness["proper_compatible"],
    }
    return {"name": "power-disc", "n": n, "report": report, "properness": properness,
            "assertions": assertions, "passed": all(assertions.values())}


def _example_exp_annulus(n: int, R: float, seed: int, samples: int) -> dict:
    from .coverings import exp_strip_cover

    f = exp_strip_cover(R)
    family = strip_crossing_family(R, tuple(np.linspace(-4.0, 4.0, 9)))
    report = audit_isometry(f, family, samples=samples)
    report.completeness = completeness_check(family, quasirandom_grid(Strip(R), 256, seed))
    report.collisions = injectivity_probe(f, strip_lattice_grid(R))
    a = math.log(R)
    seqs = [[np.array([complex(0.0, float(2 ** k))]) for k in range(1, 13)],
            [np.array([complex(a - 2.0 ** -k, 0.0)]) for k in range(1, 13)]]
    properness = properness_probe(f, seqs)
    vertical = properness["sequences"][0]
    assertions = {
        "isometric": report.verdict == "isometric-along-family",
        "complete": report.completeness["complete"],
        "collisions_found": len(report.collisions) >= 1,
        "non_proper": not vertical["image_to_boundary"] and vertical["escapes_source"],
    }
    return {"name": "exp-annulus", "R": R, "report": report, "properness": properness,
            "assertions": assertions, "passed": all(assertions.values())}


def _example_monomial_tube(n: int, R: float, seed: int, samples: int) -> dict:
    from .coverings import IntegerMatrix, monomial_map
    from .domains import EuclideanBall

    base = EuclideanBall((0.0,) * n, 1.0)
    matrix = IntegerMatrix(tuple(tuple(2 if i == j else 0 for j in range(n)) for i in range(n)))
    f = monomial_map(matrix, base)
    family = antipodal_family(base, 20)
    report = audit_isometry(f, family, samples=samples, tol=1e-6)
    report.completeness = completeness_check(
        family, quasirandom_grid(ReinhardtLog(base), 256, seed))
    report.collisions = injectivity_probe(f, reinhardt_sign_grid(base))
    gen = rng(seed)
    ws = np.array([np.exp(gen.normal(size=n) * 0.4 + 1j * gen.uniform(0.0, 2.0 * math.pi, size=n))
                   for _ in range(50)])
    multiplicity_ok = monomial_preimages(matrix, ws).shape[1] == abs(matrix.det)
    direction = np.zeros(n)
    direction[0] = 1.0
    seqs = [[np.exp((1.0 - 2.0 ** -k) * direction).astype(complex) for k in range(1, 13)]]
    properness = properness_probe(f, seqs)
    max_gap = max((g.max_gap for g in report.per_geodesic), default=0.0)
    deck_checked = all(c.get("deck_pair", False) for c in report.collisions)
    assertions = {
        "isometric": report.verdict == "isometric-along-family",
        "complete": report.completeness["complete"],
        "collisions_found": len(report.collisions) >= 1,
        "collisions_are_deck_pairs": deck_checked,
        "multiplicity_is_det": multiplicity_ok,
        "gap_small_on_real_points": max_gap < 1e-3,
        "proper_compatible": properness["proper_compatible"],
    }
    return {"name": "monomial-tube", "n": n, "multiplicity": abs(matrix.det),
            "report": report, "properness": properness,
            "assertions": assertions, "passed": all(assertions.values())}


# the bundled examples, in the order `kobalab examples` runs them: name ->
# builder(n, R, seed, samples), each using the parameters its construction has
EXAMPLES = {"power-disc": _example_power_disc, "exp-annulus": _example_exp_annulus,
            "monomial-tube": _example_monomial_tube}
