"""Scalar numerical kernels: adaptive Simpson quadrature and bracketed root
finding."""

from __future__ import annotations

import math


class QuadratureError(RuntimeError):
    """Raised when the adaptive rule hits its depth cap before converging."""


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-8, max_depth: int = 40) -> float:
    """Integrate f over [a, b] to absolute tolerance tol, a positive finite
    number (else ValueError).

    The depth cap turns integrand blow-up (curves grazing the boundary)
    into a QuadratureError instead of a silent bad value.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError("adaptive Simpson depth exhausted; integrand too singular")
    half = 0.5 * tol
    return (_simpson_rec(f, a, m, fa, flm, fm, left, half, depth - 1)
            + _simpson_rec(f, m, b, fm, frm, fb, right, half, depth - 1))


def bisect_root(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of f on [lo, hi]; endpoints must bracket a sign change."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("root not bracketed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) < tol:
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
