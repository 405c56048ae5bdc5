"""The scaling method on ellipsoid models: first-axis ball automorphisms
A_t, the rescaled domains Omega_t = A_t^{-1}(Omega_0), and convergence
probes for their metrics and geodesic families.

Omega_0 is the quartic perturbation of the unit ball
{-1 + |z|^2 + eps |z - e_1|^4 < 0}; it sits inside the unit ball for every
eps >= 0 and touches the sphere at e_1, the fixed point of every A_t.  As
t -> 1 the rescaled domains fill the ball, which the probes quantify with
certified inscribed radii (the unit ball circumscribes every Omega_t).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._sampling import ball_points
from .domains import DomainError, ScaledEllipsoid, check_eps, ellipsoid_defining_function
from .geodesics import ball_landing_ray
from .metric import distances
from .mobius import ball_scaling_map
from .quadrature import bisect_root


def _check_t(t: float) -> float:
    if not 0.0 <= t < 1.0:
        raise DomainError(f"scaling parameter t must lie in [0, 1), got {t!r}")
    return float(t)


def scaling_automorphism(t: float, z) -> np.ndarray:
    """A_t(z); maps the ball onto itself and fixes +-e_1."""
    _check_t(abs(t))
    return ball_scaling_map(t, np.asarray(z, dtype=complex))


def scaling_inverse(t: float, z) -> np.ndarray:
    """A_t^{-1} = A_{-t}."""
    _check_t(abs(t))
    return ball_scaling_map(-t, np.asarray(z, dtype=complex))


def scaled_domain_membership(eps: float, t: float, z) -> bool:
    """z in Omega_t, i.e. the defining function is negative at A_t(z)."""
    _check_t(t)
    return ellipsoid_defining_function(eps, scaling_automorphism(t, z)) < 0.0


# samples per angle of the inscribed-radius scan
_RADIUS_MESH = 192


@functools.lru_cache(maxsize=256)
def inscribed_radius(eps: float, t: float, n: int) -> float:
    """Largest certified r with B(0, r) inside Omega_t.

    Membership of z = r*u in Omega_t depends only on (r, alpha, beta) with
    u_1 = e^{i beta} cos(alpha) and |u''| = sin(alpha); in these reduced
    coordinates the sign of rho(A_t z) equals the sign of

        f = eps (1-t)^2 Q^2 - (1-t^2)(1-r^2) |1 + t z_1|^2,
        Q = (1-t)|z_1 - 1|^2 + (1+t)|z''|^2.

    The first crossing f = 0 along each ray is found on a fine (alpha,
    beta) grid (vectorized scan plus bisection), and the minimum is shrunk
    by the largest neighbor variation, so the returned ball provably
    avoids the sampled boundary sheet.  eps = 0 is exactly the unit ball
    and returns 1.  r_in(t) -> 1 as t -> 1 for fixed small eps.
    """
    _check_t(t)
    if eps == 0.0:
        return 1.0
    if n < 1:
        raise ValueError("dimension must be >= 1")
    mesh = _RADIUS_MESH
    if n == 1:
        c = np.ones((1, mesh))
        s = np.zeros((1, mesh))
        cosb = np.cos(np.linspace(0.0, math.pi, mesh))[None, :]
    else:
        alphas = np.linspace(0.0, 0.5 * math.pi, mesh)[:, None]
        # f is even in beta around 0 and pi (depends on cos(beta) only)
        cosb = np.cos(np.linspace(0.0, math.pi, mesh))[None, :]
        c = np.cos(alphas)
        s = np.sin(alphas)

    def f(r):
        rc = r * c
        q1 = 1.0 - 2.0 * rc * cosb + rc * rc
        big_q = (1.0 - t) * q1 + (1.0 + t) * (r * s) ** 2
        h = 1.0 + 2.0 * t * rc * cosb + (t * rc) ** 2
        return eps * (1.0 - t) ** 2 * big_q ** 2 - (1.0 - t * t) * (1.0 - r * r) * h

    # scan for the first sign change along each ray (f(0) < 0, f(1) >= 0)
    steps = 256
    lo = np.zeros_like(c * cosb)
    hi = np.ones_like(lo)
    found = np.zeros(lo.shape, dtype=bool)
    prev_r = 0.0
    for k in range(1, steps + 1):
        r = k / steps
        newly = (f(r) >= 0.0) & ~found
        lo[newly] = prev_r
        hi[newly] = r
        found |= newly
        prev_r = r
        if np.all(found):
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        val = f(mid)
        neg = val < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    cross = 0.5 * (lo + hi)
    best = float(np.min(cross))
    var = 0.0
    if cross.shape[1] > 1:
        var = max(var, float(np.max(np.abs(np.diff(cross, axis=1)))))
    if cross.shape[0] > 1:
        var = max(var, float(np.max(np.abs(np.diff(cross, axis=0)))))
    return max(1e-6, min(best - var, best * (1.0 - 1e-9)))


@dataclass
class ConvergenceTable:
    """Rows (t, key, deviation, gap) plus a summary over the t-sweep."""

    rows: list[tuple[float, str, float, float]] = field(default_factory=list)

    def add(self, t: float, key: str, deviation: float, gap: float = 0.0):
        if deviation < -1e-15:
            raise ValueError("deviations must be nonnegative")
        self.rows.append((float(t), key, float(max(deviation, 0.0)), float(gap)))

    def max_deviation_per_t(self) -> list[tuple[float, float]]:
        out: dict[float, float] = {}
        for t, _key, dev, _gap in self.rows:
            out[t] = max(out.get(t, 0.0), dev)
        return sorted(out.items())

    def monotone_decreasing(self, slack: float = 1e-9) -> bool:
        seq = [d for _t, d in self.max_deviation_per_t()]
        return all(seq[i + 1] <= seq[i] + slack for i in range(len(seq) - 1))

    def summary(self) -> dict:
        per_t = self.max_deviation_per_t()
        return {"max_deviation": max((d for _t, d in per_t), default=0.0),
                "monotone": self.monotone_decreasing(),
                "per_t": [{"t": t, "deviation": d} for t, d in per_t]}

    def to_csv(self) -> str:
        lines = ["t,key,deviation,gap"]
        for t, key, dev, gap in self.rows:
            lines.append(f"{t:.17g},{key},{dev:.17g},{gap:.17g}")
        return "\n".join(lines) + "\n"


def default_probe_grid(n: int = 2, count: int = 8, radius: float = 0.5) -> list[np.ndarray]:
    """Deterministic point set in B(0, radius) used by the metric probe."""
    return ball_points(count, n, radius=radius)


def metric_convergence_probe(eps: float, ts, grid=None, n: int = 2) -> ConvergenceTable:
    """Deviation of the Omega_t metric from the ball metric on a compact grid.

    K_{Omega_t} is bracketed between the unit-ball distance (Omega_t lies in
    the ball) and the inscribed-ball distance by one `distances` call per t;
    a row's deviation |midpoint - K_ball| is half its gap, the bracket width.
    eps = 0 gives exact zeros (Omega_t is the ball).  A grid point outside
    Omega_t raises NonInteriorError, and one outside its inscribed ball
    SandwichRangeError; both are ValueErrors.
    """
    check_eps(eps)
    if grid is None:
        grid = default_probe_grid(n)
    pairs = [(i, j) for i in range(len(grid)) for j in range(i + 1, len(grid))]
    table = ConvergenceTable()
    for t in ts:
        for (i, j), val in zip(pairs, distances(ScaledEllipsoid(eps, t, n), grid, pairs)):
            table.add(t, f"pair-{i}-{j}", 0.5 * val.gap, val.gap)
    return table


def geodesic_persistence_probe(eps: float, ts, w0, n: int = 2,
                               window: float = 5.0, samples: int = 64) -> ConvergenceTable:
    """Rescaled landing rays against the fixed ball ray from w0 to e_1.

    For each t the ray from z_t = A_t(w0) to e_1 is rescaled by A_t^{-1}
    and compared on [0, window] with the ray eta from w0 to e_1.  With
    eps = 0 the two curves agree by automorphism invariance, so the
    deviations cross-validate the Moebius and geodesic code paths down at
    rounding level; with eps > 0 the probe additionally reports how deep
    the transported ray sits inside Omega_0 (diagnostic mode).
    """
    check_eps(eps)
    w0 = np.asarray(w0, dtype=complex)
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    eta = ball_landing_ray(n, w0, e1)
    ts_grid = np.linspace(0.0, window, samples)
    table = ConvergenceTable()
    for t in ts:
        _check_t(t)
        z_t = scaling_automorphism(t, w0)
        gamma = ball_landing_ray(n, z_t, e1)
        dev = 0.0
        defect = 0.0
        for u in ts_grid:
            rescaled = scaling_inverse(t, gamma.sample(float(u)))
            dev = max(dev, float(np.max(np.abs(rescaled - eta.sample(float(u))))))
            if eps > 0.0:
                defect = max(defect, ellipsoid_defining_function(eps, gamma.sample(float(u))))
        table.add(t, "sup-deviation", dev, gap=max(defect, 0.0))
    return table


def compactly_divergent_probe(ts, seeds, band_eps: float = 0.5) -> dict:
    """Per-(t, seed) report of Re pi_1(A_t^{-1}(seed)), the band condition
    0 < Re pi_1 < 1 - band_eps, and the norms used to flag compact
    divergence (norms increasing to 1)."""
    ts = [(_check_t(t)) for t in ts]
    seeds = [np.asarray(s, dtype=complex) for s in seeds]
    if len(ts) != len(seeds):
        raise ValueError("ts and seeds must pair up")
    rows = []
    norms = []
    for t, seed in zip(ts, seeds):
        back = scaling_inverse(t, seed)
        re_pi1 = float(back[0].real)
        norm = float(np.linalg.norm(back))
        norms.append(norm)
        rows.append({"t": t, "re_pi1": re_pi1,
                     "band_ok": 0.0 < re_pi1 < 1.0 - band_eps,
                     "norm": norm})
    tail = norms[len(norms) // 2:]
    divergent = bool(tail and tail[-1] > 0.95
                     and all(tail[i + 1] >= tail[i] - 1e-12 for i in range(len(tail) - 1)))
    return {"rows": rows, "compactly_divergent": divergent}


def boundary_deviation_probe(eps: float, ts, beta: float = -0.5, n: int = 2,
                             samples: int = 64) -> ConvergenceTable:
    """Hausdorff-style boundary diagnostic on the half-space {Re z_1 > beta}.

    Samples the boundary of Omega_t along rays from the origin whose
    first-crossing points satisfy Re z_1 > beta and records sup ||z| - 1|,
    the deviation of the boundary sheet from the unit sphere.
    """
    check_eps(eps)
    table = ConvergenceTable()
    for t in ts:
        _check_t(t)
        dev = 0.0
        for k in range(samples):
            alpha = 0.5 * math.pi * (k + 0.5) / samples
            for beta_ang in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
                u = np.zeros(n, dtype=complex)
                u[0] = complex(math.cos(beta_ang), math.sin(beta_ang)) * math.cos(alpha)
                if n > 1:
                    u[1] = math.sin(alpha)

                def rho_along(r: float) -> float:
                    return ellipsoid_defining_function(eps, ball_scaling_map(t, r * u))

                r_cross = None
                lo = 0.0
                r = 1.0 / 32.0
                while r <= 4.0:
                    if rho_along(r) >= 0.0:
                        r_cross = bisect_root(rho_along, lo, r, tol=1e-12)
                        break
                    lo = r
                    r += 1.0 / 32.0
                if r_cross is None:
                    continue
                z = r_cross * u
                if z[0].real > beta:
                    dev = max(dev, abs(float(np.linalg.norm(z)) - 1.0))
        table.add(t, "boundary", dev)
    return table
