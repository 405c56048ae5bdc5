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
from .coverings import (ExpCover, HolomorphicMap, Identity, Monomial, Power, apply_map,
                        monomial_preimages)
from .domains import (ModelDomain, NonInteriorError, PuncturedDisc, ReinhardtLog, Strip,
                      as_point, base_reference, escape_margin, membership)
from .geodesics import (GeodesicFamily, antipodal_family, radial_family,
                        strip_crossing_family)
from .metric import distance

DEFAULT_SAMPLES = 32
DEFAULT_TOL = 1e-9


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
                   samples: int = DEFAULT_SAMPLES, tol: float = DEFAULT_TOL,
                   window: float = 6.0) -> IsometryReport:
    """Compare K_source(c(t), c(s)) with K_target(F c(t), F c(s)) over all
    parameter pairs from `samples` values per family member.

    The default ray/line window spans 6 hyperbolic units: beyond that the
    sampled points sit so close to the boundary that closed-form arctanh
    evaluations carry more than the 1e-9 default tolerance in rounding.
    """
    per = []
    for member in family.members:
        w0, w1 = member.window(window)
        ts = np.linspace(w0, w1, samples)
        pts = [member.sample(float(t)) for t in ts]
        imgs = []
        for p in pts:
            q = apply_map(f, p)
            if not membership(f.target, q):
                raise NonInteriorError(f"image point {q} leaves the target domain")
            imgs.append(q)
        max_sep = 0.0
        max_raw = 0.0
        max_gap = 0.0
        count = 0
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                d_src = distance(f.source, pts[i], pts[j])
                d_tgt = distance(f.target, imgs[i], imgs[j])
                sep = max(0.0, d_src.lower - d_tgt.upper, d_tgt.lower - d_src.upper)
                max_sep = max(max_sep, sep)
                max_raw = max(max_raw, abs(d_src.value - d_tgt.value))
                max_gap = max(max_gap, d_src.gap + d_tgt.gap)
                count += 1
        per.append(GeodesicAudit(member.label or "geodesic", max_sep, max_raw, max_gap, count))
    return IsometryReport(map_label=_map_label(f), per_geodesic=per, tol=tol)


def _map_label(f: HolomorphicMap) -> str:
    kind = f.kind
    if isinstance(kind, Power):
        return f"power-{kind.n}"
    if isinstance(kind, ExpCover):
        return "exp-cover"
    if isinstance(kind, Monomial):
        return f"monomial-det{kind.matrix.det}"
    if isinstance(kind, Identity):
        return "identity"
    return type(kind).__name__.lower()


def completeness_check(family: GeodesicFamily, grid, tol: float = 1e-6,
                       scan_samples: int = 400) -> dict:
    """Coverage of a point grid by the family.

    Families with a `member_through` locator are queried exactly; finite
    families fall back to a dense parameter scan per member.
    """
    if not family.members and family.member_through is None:
        raise ValueError("empty family")
    misses = []
    for z in grid:
        z = as_point(z)
        if family.member_through is not None:
            member, t = family.member_through(z)
            hit = member.sample(t)
            miss = float(np.max(np.abs(hit - z)))
        else:
            miss = math.inf
            for member in family.members:
                w0, w1 = member.window()
                for t in np.linspace(w0, w1, scan_samples):
                    cand = float(np.max(np.abs(member.sample(float(t)) - z)))
                    if cand < miss:
                        miss = cand
        misses.append(miss)
    covered = sum(1 for m in misses if m < tol)
    return {"grid_size": len(misses), "covered": covered,
            "max_miss": max(misses, default=0.0), "tol": tol,
            "complete": covered == len(misses)}


def injectivity_probe(f: HolomorphicMap, grid, tol: float = 1e-9) -> list[dict]:
    """All grid pairs with nearly equal images.

    For power/monomial maps each collision is cross-checked against the
    enumerated fiber: the partner must be a deck sibling of the first
    point, so a collision that is not explained by the covering structure
    is flagged.
    """
    pts = [as_point(z) for z in grid]
    imgs = [apply_map(f, z) for z in pts]
    collisions = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if float(np.max(np.abs(pts[i] - pts[j]))) <= tol:
                continue
            gap = float(np.max(np.abs(imgs[i] - imgs[j])))
            if gap < tol:
                entry = {"i": i, "j": j,
                         "z": [complex(c) for c in pts[i]],
                         "w": [complex(c) for c in pts[j]],
                         "image_gap": gap}
                if isinstance(f.kind, (Power, Monomial)):
                    fiber = monomial_preimages(_as_matrix(f.kind), imgs[i])
                    entry["deck_pair"] = any(
                        float(np.max(np.abs(p - pts[j]))) < 1e-7 for p in fiber)
                collisions.append(entry)
    return collisions


def _as_matrix(kind):
    from .coverings import IntegerMatrix

    if isinstance(kind, Power):
        return IntegerMatrix(((kind.n,),))
    return kind.matrix


def properness_probe(f: HolomorphicMap, sequences) -> dict:
    """Boundary behavior of images along escaping sequences.

    A sequence escapes when its source margins decay; the map is
    proper-compatible when every escaping sequence has image margins
    decaying to the boundary as well (final margin below 1e-2 or below 5%
    of the initial one).
    """
    out = []
    for seq in sequences:
        pts = [as_point(z) for z in seq]
        src = [float(escape_margin(f.source, z)) for z in pts]
        img = [float(escape_margin(f.target, apply_map(f, z))) for z in pts]
        escapes = bool(src[-1] < max(1e-3, 0.05 * src[0]))
        to_boundary = bool(img[-1] < max(1e-2, 0.05 * img[0]))
        out.append({"source_margins": src, "image_margins": img,
                    "escapes_source": escapes, "image_to_boundary": to_boundary})
    proper = all(s["image_to_boundary"] for s in out if s["escapes_source"])
    return {"sequences": out, "proper_compatible": proper}


# ---------------------------------------------------------------------------
# deterministic grids
# ---------------------------------------------------------------------------

def quasirandom_grid(domain: ModelDomain, count: int = 256, seed: int = 0,
                     imag_window: float = 4.0) -> list[np.ndarray]:
    """Deterministic low-discrepancy interior points for coverage grids."""
    build = getattr(domain, "grid", None)
    if build is None:
        raise ValueError(f"no grid builder for {domain!r}")
    return build(count, 20 + 1000 * seed, imag_window)


def polar_orbit_grid(radii=(0.2, 0.35, 0.5, 0.65, 0.8), angles: int = 30) -> list[np.ndarray]:
    """Structured punctured-disc grid closed under rotation by 2 pi/k for
    every k dividing `angles` (so power-map collisions appear exactly)."""
    pts = []
    for r in radii:
        for a in range(angles):
            th = 2.0 * math.pi * a / angles
            pts.append(np.array([r * complex(math.cos(th), math.sin(th))]))
    return pts


def strip_lattice_grid(R: float, re_count: int = 5, im_values=None) -> list[np.ndarray]:
    """Strip grid containing exact 2*pi*i-translate pairs."""
    a = math.log(R)
    if im_values is None:
        im_values = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi]
    res = np.linspace(-0.8 * a, 0.8 * a, re_count)
    return [np.array([complex(x, y)]) for x in res for y in im_values]


def reinhardt_sign_grid(base, log_points=None) -> list[np.ndarray]:
    """Reinhardt grid containing full sign-pattern orbits of each modulus."""
    n = len(base_reference(base))
    if log_points is None:
        cube = halton(6, n, skip=7)
        log_points = [0.6 * (row - 0.5) for row in cube]
    pts = []
    for u in log_points:
        u = np.asarray(u, dtype=float)
        for mask in range(2 ** n):
            signs = np.array([(-1.0) ** ((mask >> j) & 1) for j in range(n)])
            pts.append(np.exp(u) * signs.astype(complex))
    return pts


# ---------------------------------------------------------------------------
# the bundled counterexample audits
# ---------------------------------------------------------------------------

def reproduce_example(name: str, n: int = 2, R: float = 4.0, seed: int = 0,
                      samples: int = DEFAULT_SAMPLES) -> dict:
    """Run the bundled audit for one of the named constructions.

    power-disc      lambda -> lambda^n on the punctured disc, radial family
    exp-annulus     exp: H_R -> A_R along the crossing-line family
    monomial-tube   Phi_{2I} on the Reinhardt domain over the unit ball,
                    antipodal family, multiplicity 2^n

    Each bundle reports the isometry audit, completeness, injectivity,
    properness, and the assertions that make it a certified (counter)example.
    """
    if name == "power-disc":
        return _example_power_disc(n, seed, samples)
    if name == "exp-annulus":
        return _example_exp_annulus(R, seed, samples)
    if name == "monomial-tube":
        return _example_monomial_tube(n, seed, samples)
    raise ValueError(f"unknown example {name!r}; choose power-disc, exp-annulus, monomial-tube")


def _example_power_disc(n: int, seed: int, samples: int) -> dict:
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


def _example_exp_annulus(R: float, seed: int, samples: int) -> dict:
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


def _example_monomial_tube(n: int, seed: int, samples: int) -> dict:
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
    multiplicity_ok = True
    for _ in range(50):
        w = np.exp(gen.normal(size=n) * 0.4 + 1j * gen.uniform(0.0, 2.0 * math.pi, size=n))
        fiber = monomial_preimages(matrix, w)
        if len(fiber) != abs(matrix.det):
            multiplicity_ok = False
            break
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
