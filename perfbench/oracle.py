"""60-digit mpmath reference distances for the `dist-batch` workload.

Each formula is evaluated on the same float inputs the program receives,
and is written independently of kobalab's closed forms: the strip and the
half-plane go through their conformal maps onto the unit disc, and the
punctured disc and the annulus scan the deck translates of their
exponential covers, as the deck-oracle acceptance test does.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 60
DECK_SCAN = range(-10, 11)


def _c(z) -> mp.mpc:
    return mp.mpc(z.real, z.imag)


def _disc(z: mp.mpc, w: mp.mpc) -> mp.mpf:
    return mp.atanh(abs(z - w) / abs(1 - mp.conj(w) * z))


def _halfplane(z: mp.mpc, w: mp.mpc) -> mp.mpf:
    # Cayley map of {Re < 0} onto the unit disc
    return _disc((z + 1) / (z - 1), (w + 1) / (w - 1))


def _strip(a: mp.mpf, z: mp.mpc, w: mp.mpc) -> mp.mpf:
    # tan(pi z / 4a) maps {|Re| < a} onto the unit disc
    k = mp.pi / (4 * a)
    return _disc(mp.tan(k * z), mp.tan(k * w))


def _ball(z: list, w: list) -> mp.mpf:
    zz = mp.fsum(abs(c) ** 2 for c in z)
    ww = mp.fsum(abs(c) ** 2 for c in w)
    zw = mp.fsum(a * mp.conj(b) for a, b in zip(z, w))
    return mp.atanh(mp.sqrt(1 - (1 - zz) * (1 - ww) / abs(1 - zw) ** 2))


def distance(domain: dict, z, w) -> float:
    """Kobayashi distance for a descriptor dict and two float points
    (sequences of Python complex numbers), rounded to a float."""
    with mp.workdps(DIGITS):
        kind = domain["kind"]
        zc = [_c(c) for c in z]
        wc = [_c(c) for c in w]
        if kind == "unit-disc":
            val = _disc(zc[0], wc[0])
        elif kind == "left-half-plane":
            val = _halfplane(zc[0], wc[0])
        elif kind == "strip":
            val = _strip(mp.log(domain["R"]), zc[0], wc[0])
        elif kind == "unit-ball":
            val = _ball(zc, wc)
        elif kind == "polydisc":
            val = max(_disc(a, b) for a, b in zip(zc, wc))
        elif kind == "punctured-disc":
            lz, lw = mp.log(zc[0]), mp.log(wc[0])
            val = min(_halfplane(lz, lw + 2j * mp.pi * k) for k in DECK_SCAN)
        elif kind == "annulus":
            a = mp.log(domain["R"])
            lz, lw = mp.log(zc[0]), mp.log(wc[0])
            val = min(_strip(a, lz, lw + 2j * mp.pi * k) for k in DECK_SCAN)
        else:
            raise ValueError(f"no oracle for domain kind {kind!r}")
        return float(val)
