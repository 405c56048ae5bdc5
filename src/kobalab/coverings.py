"""Holomorphic coverings and monomial proper maps between model domains.

Map kinds: the power maps of the punctured disc, exponential coverings
(strip -> annulus, tube -> Reinhardt), monomial maps Phi_A with an
invertible integer exponent matrix, ball scaling automorphisms, the
identity, and compositions.  Monomial preimage fibers are enumerated
exactly through the Smith normal form of A: the fiber over any point of
C_*^n has |det A| points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .domains import (Annulus, ConvexBase, LinearImage, ModelDomain, PuncturedDisc,
                      ReinhardtLog, Strip, TubeOverBase, UnitBall, _decoder, as_point, dim,
                      domain_from_dict, domain_to_dict, membership)
from .mobius import ball_scaling_differential, ball_scaling_map
from .smith import smith_normal_form, snf_determinant


class CoveringError(ValueError):
    pass


@dataclass(frozen=True)
class IntegerMatrix:
    """n x n integer exponent matrix; rows are the monomial exponents."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise CoveringError("exponent matrix must be square")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def det(self) -> int:
        return _int_det([list(r) for r in self.entries])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)


def _int_det(a: list[list[int]]) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    det = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        det += (-1) ** j * a[0][j] * _int_det(minor)
    return det


# map kind tags ---------------------------------------------------------------

@dataclass(frozen=True)
class Power:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise CoveringError("power exponent must be >= 1")


@dataclass(frozen=True)
class ExpCover:
    pass


@dataclass(frozen=True)
class Monomial:
    matrix: IntegerMatrix

    def __post_init__(self):
        if self.matrix.det == 0:
            raise CoveringError("monomial maps need det A != 0")


@dataclass(frozen=True)
class BallMobius:
    t: float

    def __post_init__(self):
        if not 0.0 <= self.t < 1.0:
            raise CoveringError("scaling parameter t must lie in [0, 1)")


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Compose:
    parts: tuple["HolomorphicMap", ...]


MapKind = Power | ExpCover | Monomial | BallMobius | Identity | Compose


@dataclass(frozen=True)
class HolomorphicMap:
    kind: MapKind
    source: ModelDomain
    target: ModelDomain


# constructors ----------------------------------------------------------------

def power_map(n: int) -> HolomorphicMap:
    """lambda -> lambda^n on the punctured disc (a holomorphic covering)."""
    return HolomorphicMap(Power(n), PuncturedDisc(), PuncturedDisc())


def exp_strip_cover(R: float) -> HolomorphicMap:
    return HolomorphicMap(ExpCover(), Strip(R), Annulus(R))


def exp_tube_cover(base: ConvexBase) -> HolomorphicMap:
    return HolomorphicMap(ExpCover(), TubeOverBase(base), ReinhardtLog(base))


def monomial_map(matrix, base: ConvexBase) -> HolomorphicMap:
    """Phi_A restricted to the Reinhardt domain over `base`.

    The target is the Reinhardt domain over the exact linear image A(base),
    matching log(Phi_A(D)) = A(log D).
    """
    mat = matrix if isinstance(matrix, IntegerMatrix) else IntegerMatrix(
        tuple(tuple(int(x) for x in row) for row in matrix))
    return HolomorphicMap(Monomial(mat), ReinhardtLog(base),
                          ReinhardtLog(log_image(mat, base)))


def ball_mobius_map(t: float, n: int) -> HolomorphicMap:
    return HolomorphicMap(BallMobius(t), UnitBall(n), UnitBall(n))


def identity_map(domain: ModelDomain) -> HolomorphicMap:
    return HolomorphicMap(Identity(), domain, domain)


def compose_maps(*maps: HolomorphicMap) -> HolomorphicMap:
    """Composition applying left-to-right: compose(f, g) sends z to g(f(z))."""
    if not maps:
        raise CoveringError("need at least one map")
    for f, g in zip(maps, maps[1:]):
        if domain_to_dict(f.target) != domain_to_dict(g.source):
            raise CoveringError("composition chain does not typecheck")
    return HolomorphicMap(Compose(tuple(maps)), maps[0].source, maps[-1].target)


# evaluation ------------------------------------------------------------------

def monomial_power(z, alpha) -> complex:
    """z^alpha = prod z_j^{alpha_j} for an integer exponent vector.

    Exact integer exponents via repeated squaring; a zero coordinate with a
    negative exponent is rejected.
    """
    z = as_point(z)
    out = complex(1.0)
    for zj, aj in zip(z, alpha):
        aj = int(aj)
        if aj == 0:
            continue
        if zj == 0:
            if aj < 0:
                raise CoveringError("zero coordinate with negative exponent")
            out = 0.0 * out
            continue
        out *= _int_pow(complex(zj), aj)
    return out


def _int_pow(z: complex, k: int) -> complex:
    if k < 0:
        return 1.0 / _int_pow(z, -k)
    result = complex(1.0)
    basepow = z
    while k:
        if k & 1:
            result *= basepow
        basepow *= basepow
        k >>= 1
    return result


def monomial_apply(matrix: IntegerMatrix, z) -> np.ndarray:
    """Phi_A(z): coordinate j is z^{A^j} (j-th row as exponent vector)."""
    z = as_point(z)
    if z.size != matrix.n:
        raise CoveringError("dimension mismatch")
    return np.array([monomial_power(z, row) for row in matrix.entries])


def apply_map(f: HolomorphicMap, z) -> np.ndarray:
    z = as_point(z)
    kind = f.kind
    if isinstance(kind, Identity):
        return z.copy()
    if isinstance(kind, Power):
        return np.array([_int_pow(complex(z[0]), kind.n)])
    if isinstance(kind, ExpCover):
        return np.exp(z)
    if isinstance(kind, Monomial):
        return monomial_apply(kind.matrix, z)
    if isinstance(kind, BallMobius):
        return ball_scaling_map(kind.t, z)
    if isinstance(kind, Compose):
        return reduce(lambda acc, part: apply_map(part, acc), kind.parts, z)
    raise CoveringError(f"unknown map kind {kind!r}")


def map_differential(f: HolomorphicMap, z, v) -> np.ndarray:
    """Complex differential dF_z applied to v."""
    z = as_point(z)
    v = as_point(v)
    kind = f.kind
    if isinstance(kind, Identity):
        return v.copy()
    if isinstance(kind, Power):
        return np.array([kind.n * _int_pow(complex(z[0]), kind.n - 1) * v[0]])
    if isinstance(kind, ExpCover):
        return np.exp(z) * v
    if isinstance(kind, Monomial):
        w = monomial_apply(kind.matrix, z)
        a = kind.matrix.as_array()
        return w * (a @ (v / z))
    if isinstance(kind, BallMobius):
        return ball_scaling_differential(kind.t, z, v)
    if isinstance(kind, Compose):
        cur, cur_v = z, v
        for part in kind.parts:
            cur_v = map_differential(part, cur, cur_v)
            cur = apply_map(part, cur)
        return cur_v
    raise CoveringError(f"unknown map kind {kind!r}")


# preimages and log geometry --------------------------------------------------

def monomial_preimages(matrix: IntegerMatrix, w) -> list[np.ndarray]:
    """The full Phi_A-fiber over w in C_*^n: exactly |det A| points.

    Writing z = exp(zeta), the equation becomes A zeta = Log w + 2 pi i nu;
    distinct solutions modulo 2 pi i Z^n correspond to the cosets of A Z^n,
    which the Smith form U A V = S enumerates as V S^{-1} k with
    0 <= k_j < s_j.  Every returned point is verified forward.
    """
    w = as_point(w)
    if w.size != matrix.n:
        raise CoveringError("dimension mismatch")
    if np.any(w == 0.0):
        raise CoveringError("preimages need w in C_*^n")
    u_mat, s_mat, v_mat = smith_normal_form([list(r) for r in matrix.entries])
    count = abs(snf_determinant(s_mat))
    if count == 0:
        raise CoveringError("singular exponent matrix")
    a = matrix.as_array()
    log_w = np.log(np.abs(w)) + 1j * np.angle(w)
    zeta0 = np.linalg.solve(a, log_w)
    v_arr = np.asarray(v_mat, dtype=float)
    s_diag = np.array([s_mat[i][i] for i in range(matrix.n)], dtype=float)
    out = []
    for k in _mixed_radix(np.abs(s_diag).astype(int)):
        frac = v_arr @ (np.asarray(k, dtype=float) / s_diag)
        zeta = zeta0 + 2.0 * math.pi * 1j * frac
        cand = np.exp(zeta)
        img = monomial_apply(matrix, cand)
        if float(np.max(np.abs(img - w))) > 1e-8 * max(1.0, float(np.max(np.abs(w)))):
            raise CoveringError("preimage verification failed")
        out.append(cand)
    return out


def _mixed_radix(sizes):
    idx = [0] * len(sizes)
    while True:
        yield tuple(idx)
        for j in range(len(sizes) - 1, -1, -1):
            idx[j] += 1
            if idx[j] < sizes[j]:
                break
            idx[j] = 0
        else:
            return


def log_image(matrix: IntegerMatrix, base: ConvexBase) -> ConvexBase:
    """The exact linear image A(base), honoring log(Phi_A(D)) = A(log D).

    Scalar multiples of Euclidean balls stay Euclidean balls; everything
    else is returned as an exact LinearImage wrapper (membership and
    support delegate through A^{-1} and A^T).  Use domains.to_polytope for
    a facet export.
    """
    if matrix.det == 0:
        raise CoveringError("singular exponent matrix")
    from .domains import Box, EuclideanBall, Polytope

    arr = matrix.as_array()
    if isinstance(base, EuclideanBall):
        diag = arr[0, 0]
        if np.allclose(arr, diag * np.eye(matrix.n)) and diag != 0:
            center = diag * np.asarray(base.center)
            return EuclideanBall(tuple(float(c) for c in center), abs(float(diag)) * base.radius)
    if isinstance(base, (Box, Polytope)) or isinstance(base, EuclideanBall) or isinstance(base, LinearImage):
        return LinearImage(tuple(tuple(float(x) for x in row) for row in matrix.entries), base)
    raise CoveringError(f"unsupported base {base!r}")


def antipodal_image_check(matrix: IntegerMatrix, pair):
    """Transport an antipodal pair through A: (x, y) -> (Ax, Ay).

    The supporting normal transports by the inverse transpose; the
    certificate is revalidated on the image base, so a failure (which
    would contradict the linear-image identity) surfaces as an error.
    """
    from .geodesics import AntipodalPair

    if not isinstance(pair, AntipodalPair):
        raise CoveringError("need an AntipodalPair")
    a = matrix.as_array()
    new_base = log_image(matrix, pair.base)
    x = a @ np.asarray(pair.x, dtype=float)
    y = a @ np.asarray(pair.y, dtype=float)
    d = np.linalg.inv(a).T @ np.asarray(pair.normal, dtype=float)
    d = d / np.linalg.norm(d)
    return AntipodalPair(new_base, tuple(float(c) for c in x), tuple(float(c) for c in y),
                         tuple(float(c) for c in d))


def deck_preimages(f: HolomorphicMap, w, imag_window: float = 12.0) -> list[np.ndarray]:
    """Preimage points of w under the implemented coverings.

    Power/monomial fibers are finite and complete; exp-covers return the
    lattice translates with imaginary parts within `imag_window`.
    """
    w = as_point(w)
    kind = f.kind
    if isinstance(kind, Identity):
        return [w.copy()]
    if isinstance(kind, Power):
        return monomial_preimages(IntegerMatrix(((kind.n,),)), w)
    if isinstance(kind, Monomial):
        return monomial_preimages(kind.matrix, w)
    if isinstance(kind, ExpCover):
        base_log = np.log(np.abs(w)) + 1j * np.angle(w)
        n = w.size
        k_max = int(imag_window / (2.0 * math.pi)) + 1
        out = []
        for k in _mixed_radix([2 * k_max + 1] * n):
            nu = np.asarray(k) - k_max
            cand = base_log + 2.0 * math.pi * 1j * nu
            if membership(f.source, cand):
                out.append(cand)
        return out
    raise CoveringError(f"no preimage enumeration for {kind!r}")


# serialization ---------------------------------------------------------------

def map_to_dict(f: HolomorphicMap) -> dict:
    kind = f.kind
    if isinstance(kind, Identity):
        return {"kind": "identity", "domain": domain_to_dict(f.source)}
    if isinstance(kind, Power):
        return {"kind": "power", "n": kind.n}
    if isinstance(kind, ExpCover):
        return {"kind": "exp", "source": domain_to_dict(f.source)}
    if isinstance(kind, Monomial):
        src = f.source
        return {"kind": "monomial", "matrix": [list(r) for r in kind.matrix.entries],
                "base": domain_to_dict(src)["base"]}
    if isinstance(kind, BallMobius):
        return {"kind": "ball-mobius", "t": kind.t, "dim": dim(f.source)}
    if isinstance(kind, Compose):
        return {"kind": "compose", "maps": [map_to_dict(p) for p in kind.parts]}
    raise CoveringError(f"unknown map kind {kind!r}")


@_decoder
def map_from_dict(data: dict) -> HolomorphicMap:
    kind = data.get("kind")
    if kind == "identity":
        return identity_map(domain_from_dict(data["domain"]))
    if kind == "power":
        return power_map(int(data["n"]))
    if kind == "exp":
        src = domain_from_dict(data["source"])
        if isinstance(src, Strip):
            return exp_strip_cover(src.R)
        if isinstance(src, TubeOverBase):
            return exp_tube_cover(src.base)
        raise CoveringError("exp cover needs a strip or tube source")
    if kind == "monomial":
        from .domains import base_from_dict

        return monomial_map(data["matrix"], base_from_dict(data["base"]))
    if kind == "ball-mobius":
        return ball_mobius_map(float(data["t"]), int(data["dim"]))
    if kind == "compose":
        return compose_maps(*[map_from_dict(d) for d in data["maps"]])
    raise CoveringError(f"unknown map kind {kind!r}")
