"""The benchmark's three workloads.

Each workload does its set-up (inputs from the seed, reference values, one
warm-up call per domain) in its constructor, and then runs numbered
blocks: `run_block(i)` times a fixed amount of program work that depends
only on the seed and on i, and checks every output after the clock stops.
`same_work` says whether every block repeats the same work (the run's
figure is then the median block) or each block takes new inputs (the mean).
Why each workload exists is written in perfbench/README.md.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import kobalab as kl
from kobalab import cli

import oracle

# tests/test_acceptance.py, test_08: certified excess d_tgt.lower - d_src.upper
CONTRACTION_TOL = 1e-9
# tests/test_acceptance.py, test_04: agreement with the brute-force deck oracle
ORACLE_TOL = 1e-12

clock = time.perf_counter


@dataclass
class Block:
    """Outcome of one timed block.

    `intervals` holds (label, start, end) of the timed program work; the
    runner fills `ref` with each interval's time at reference machine
    speed.  `failed` counts every failed operation; `wrong` is the part of
    it that returned an output which then failed its check (the rest
    raised).
    """

    pairs: int
    attempted: int
    failed: int = 0
    wrong: int = 0
    intervals: list = field(default_factory=list)
    ref: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(t1 - t0 for _, t0, t1 in self.intervals)

    @property
    def ref_wall(self) -> float:
        return sum(self.ref.values())


def _note_exception(where: str):
    sys.stderr.write(f"{where} raised:\n")
    traceback.print_exc()


# ---------------------------------------------------------------------------
# examples: the three bundled audits through the CLI
# ---------------------------------------------------------------------------

class Examples:
    name = "examples"
    NAMES = ("power-disc", "exp-annulus", "monomial-tube")
    # the JSON of every example must be byte-identical across blocks
    min_blocks = 2
    same_work = True

    def __init__(self, seed: int, outdir: Path, names=NAMES):
        self.seed = seed
        self.names = names
        self.out = outdir / f"examples-{os.getpid()}.json"
        self.first: dict[str, bytes] = {}
        ball = kl.EuclideanBall((0.0, 0.0), 1.0)
        kl.distance(kl.ReinhardtLog(ball), np.exp([0.1, -0.2]), np.exp([-0.3 + 1j, 0.2 - 2j]))

    def run_block(self, i: int) -> Block:
        blk = Block(pairs=0, attempted=0)
        for name in self.names:
            argv = ["examples", "--only", name, "--seed", str(self.seed),
                    "--format", "json", "--out", str(self.out)]
            self.out.unlink(missing_ok=True)
            blk.attempted += 1
            t0 = clock()
            try:
                code = cli.main(argv)
            except Exception:
                code = None
            blk.intervals.append((name, t0, clock()))
            if code is None:
                _note_exception(f"kobalab {' '.join(argv)}")
                blk.failed += 1
                continue
            data = self.out.read_bytes() if self.out.exists() else b""
            ok = code == 0 and data != b""
            if ok:
                bundles = json.loads(data)
                ok = all(b["passed"] for b in bundles)
                blk.pairs += 2 * sum(g["samples"] for b in bundles
                                     for g in b["report"]["per_geodesic"])
                ok = ok and self.first.setdefault(name, data) == data
            if not ok:
                sys.stderr.write(f"examples {name}: exit {code}, passed/identical check failed\n")
                blk.failed += 1
                blk.wrong += 1
        self.out.unlink(missing_ok=True)
        return blk

    def report(self, blocks: list[Block]) -> list[tuple]:
        rows = []
        for name in self.names:
            vals = [b.ref[name] for b in blocks]
            rows.append((name.replace("-", "_") + "_s", float(np.median(vals)), "s", len(vals)))
        return rows


# ---------------------------------------------------------------------------
# generic-pairs: Schwarz-Pick contraction on generic tube/Reinhardt pairs
# ---------------------------------------------------------------------------

def _kronecker_step(dims: int) -> np.ndarray:
    """Additive-recurrence step for a low-discrepancy sequence in dims
    dimensions (powers of the inverse generalized golden ratio)."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return (1.0 / phi) ** np.arange(1, dims + 1) % 1.0


WARM_U = np.array([0.3, 0.1, 0.4, 0.6, 0.5, 0.7, 0.5, 0.45])


class GenericPairs:
    name = "generic-pairs"
    PAIRS_PER_MAP = 16
    min_blocks = 1
    # each block holds other pairs, of heavy-tailed cost: the run's figure is
    # the mean over all its blocks, an average over the whole stretch of the
    # low-discrepancy sequence the run covered
    same_work = False

    def __init__(self, seed: int, outdir: Path, pairs_per_map: int = PAIRS_PER_MAP):
        ball = kl.EuclideanBall((0.0, 0.0), 1.0)
        self.maps = [kl.exp_tube_cover(ball),
                     kl.monomial_map(((2, 0), (0, 2)), ball),
                     kl.monomial_map(((1, 1), (0, 2)), ball)]
        self.n = pairs_per_map
        # a randomly shifted low-discrepancy sequence per map: the seed picks
        # the shift, and consecutive blocks fill the space evenly, which keeps
        # the heavy-tailed call cost from swinging with the seed
        self.step = _kronecker_step(8)
        self.shift = np.random.default_rng(seed).random((len(self.maps), 8))
        # warm-up on one fixed pair per map, so that its cost does not vary
        # with the seed
        for m, f in enumerate(self.maps):
            z, w = self._point(m, WARM_U[:4]), self._point(m, WARM_U[4:])
            kl.distance(f.source, z, w)
            kl.distance(f.target, kl.apply_map(f, z), kl.apply_map(f, w))

    def _pair(self, m: int, j: int):
        u = (self.shift[m] + (j + 1) * self.step) % 1.0
        return self._point(m, u[:4]), self._point(m, u[4:])

    def _point(self, m: int, u: np.ndarray) -> np.ndarray:
        # real (log) part uniform in the disc of radius 0.85; imaginary part
        # in [-2, 2] on the tube, uniform phases on the Reinhardt domains
        r, th = 0.85 * math.sqrt(u[0]), 2.0 * math.pi * u[1]
        x = np.array([r * math.cos(th), r * math.sin(th)])
        if isinstance(self.maps[m].source, kl.TubeOverBase):
            return x + 1j * (4.0 * u[2:4] - 2.0)
        return np.exp(x) * np.exp(2j * math.pi * u[2:4])

    def run_block(self, i: int) -> Block:
        work = [(f, *self._pair(m, j)) for j in range(i * self.n, (i + 1) * self.n)
                for m, f in enumerate(self.maps)]
        calls, results = [], []
        raised = 0
        t_block = clock()
        for f, z, w in work:
            try:
                t0 = clock()
                d_src = kl.distance(f.source, z, w)
                t1 = clock()
                zi, wi = kl.apply_map(f, z), kl.apply_map(f, w)
                t2 = clock()
                d_tgt = kl.distance(f.target, zi, wi)
                t3 = clock()
            except Exception:
                _note_exception("generic pair")
                raised += 1
                continue
            calls += (t1 - t0, t3 - t2)
            results.append((d_src, d_tgt))
        blk = Block(pairs=len(work), attempted=len(work), failed=raised,
                    intervals=[("block", t_block, clock())])
        gaps, rel_gaps = [], []
        for d_src, d_tgt in results:
            ok = (d_src.lower <= d_src.upper and d_tgt.lower <= d_tgt.upper
                  and d_tgt.lower - d_src.upper <= CONTRACTION_TOL)
            if not ok:
                blk.failed += 1
                blk.wrong += 1
            for d in (d_src, d_tgt):
                if d.method == "sandwich":
                    gaps.append(d.gap)
                    rel_gaps.append(d.gap / d.value)
        blk.samples = {"call_s": calls, "gap": gaps, "rel_gap": rel_gaps}
        return blk

    def report(self, blocks: list[Block]) -> list[tuple]:
        calls = np.concatenate([b.samples["call_s"] for b in blocks])
        gaps = np.concatenate([b.samples["gap"] for b in blocks])
        rel = np.concatenate([b.samples["rel_gap"] for b in blocks])
        p99 = float(np.percentile(calls, 99)) if calls.size else math.nan
        beyond = int(np.sum(calls > p99))
        return [
            ("call_p50_ms", 1e3 * float(np.median(calls)) if calls.size else math.nan,
             "ms", calls.size),
            ("call_p99_ms", 1e3 * p99, "ms", f"{calls.size}, {beyond} beyond p99"),
            ("gap_median", float(np.median(gaps)) if gaps.size else math.nan,
             "dist", gaps.size),
            ("rel_gap_median", float(np.median(rel)) if rel.size else math.nan,
             "ratio", rel.size),
        ]


# ---------------------------------------------------------------------------
# dist-batch: `kobalab dist --batch` plus a near-boundary stratum
# ---------------------------------------------------------------------------

def _disc_pt(gen, radius=0.9, inner=0.0) -> complex:
    while True:
        r = radius * math.sqrt(gen.uniform())
        if r >= inner:
            return r * cmath.exp(1j * gen.uniform(0.0, 2.0 * math.pi))


def _ball_pt(gen, n, radius=0.9) -> list[complex]:
    g = gen.normal(size=n) + 1j * gen.normal(size=n)
    return list(radius * gen.uniform() ** (1 / (2 * n)) * g / np.linalg.norm(g))


_LOG4 = math.log(4.0)
# descriptor and interior-point sampler per kind, with the sampling ranges
# of the acceptance tests
BATCH_KINDS = [
    ({"kind": "unit-disc"}, lambda g: [_disc_pt(g)]),
    ({"kind": "unit-ball", "dim": 2}, lambda g: _ball_pt(g, 2)),
    ({"kind": "polydisc", "dim": 2}, lambda g: [_disc_pt(g), _disc_pt(g)]),
    ({"kind": "strip", "R": 4.0},
     lambda g: [complex(g.uniform(-1.3, 1.3), g.uniform(-4.0, 4.0))]),
    ({"kind": "left-half-plane"},
     lambda g: [complex(-g.uniform(0.05, 3.0), g.uniform(-3.0, 3.0))]),
    ({"kind": "punctured-disc"}, lambda g: [_disc_pt(g, 0.95, 0.02)]),
    ({"kind": "annulus", "R": 4.0},
     lambda g: [math.exp(g.uniform(-0.9 * _LOG4, 0.9 * _LOG4))
                * cmath.exp(1j * g.uniform(0.0, 2.0 * math.pi))]),
]
# near-boundary moduli 1 - 10^-k
STRATUM_K = range(6, 12)


def _stratum_pairs(gen, per_k: int):
    """Disc and ball (dim 2) pairs at modulus 1 - 10^-k, angles 0.01-0.5 apart."""
    out = []
    for k in STRATUM_K:
        r = 1.0 - 10.0 ** -k
        for _ in range(per_k):
            th = gen.uniform(0.0, 2.0 * math.pi)
            d = 10.0 ** gen.uniform(-2.0, math.log10(0.5))
            out.append(({"kind": "unit-disc"},
                        [r * cmath.exp(1j * th)], [r * cmath.exp(1j * (th + d))]))
        for _ in range(per_k):
            u = np.array(_ball_pt(gen, 2, 1.0))
            u /= np.linalg.norm(u)
            h = gen.normal(size=2) + 1j * gen.normal(size=2)
            h -= np.vdot(u, h) * u
            h /= np.linalg.norm(h)
            d = 10.0 ** gen.uniform(-2.0, math.log10(0.5))
            out.append(({"kind": "unit-ball", "dim": 2},
                        list(r * u), list(r * (math.cos(d) * u + math.sin(d) * h))))
    return out


def _as_json_point(z) -> list:
    return [[c.real, c.imag] for c in z]


class DistBatch:
    name = "dist-batch"
    ROWS_PER_KIND = 200
    STRATUM_PER_K = 8
    min_blocks = 1
    same_work = True

    def __init__(self, seed: int, outdir: Path, rows_per_kind: int = ROWS_PER_KIND,
                 stratum_per_k: int = STRATUM_PER_K):
        gen = np.random.default_rng(seed)
        rows = [(desc, sample(gen), sample(gen))
                for desc, sample in BATCH_KINDS for _ in range(rows_per_kind)]
        rows = [rows[k] for k in gen.permutation(len(rows))]
        self.batch = outdir / f"batch-{os.getpid()}.json"
        self.csv = outdir / f"batch-{os.getpid()}.csv"
        self.batch.write_text(json.dumps([{"domain": d, "z": _as_json_point(z),
                                           "w": _as_json_point(w)} for d, z, w in rows]))
        self.expected = [oracle.distance(d, z, w) for d, z, w in rows]
        stratum = _stratum_pairs(gen, stratum_per_k)
        self.stratum = [(kl.domain_from_dict(d), np.array(z), np.array(w))
                        for d, z, w in stratum]
        self.stratum_expected = [oracle.distance(d, z, w) for d, z, w in stratum]
        # warm-up: one CLI batch holding the first row of each kind
        warm = outdir / f"warm-{os.getpid()}.json"
        firsts = {json.dumps(d, sort_keys=True): (d, z, w) for d, z, w in reversed(rows)}
        warm.write_text(json.dumps([{"domain": d, "z": _as_json_point(z), "w": _as_json_point(w)}
                                    for d, z, w in firsts.values()]))
        code = cli.main(["dist", "--batch", f"@{warm}", "--out", str(self.csv)])
        warm.unlink()
        if code != 0:
            raise RuntimeError(f"warm-up batch exited {code}")

    def run_block(self, i: int) -> Block:
        self.csv.unlink(missing_ok=True)
        argv = ["dist", "--batch", f"@{self.batch}", "--out", str(self.csv)]
        got = []
        t0 = clock()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
        for domain, z, w in self.stratum:
            try:
                got.append(kl.distance(domain, z, w).value)
            except Exception as exc:
                got.append(exc)
        t1 = clock()
        # the batch rows are the gated operations; the stratum is an accuracy
        # probe whose raises and errors are recorded beside them (report()),
        # so that `failed` does not depend on how many blocks fit in a run
        n_rows, n_strat = len(self.expected), len(self.stratum)
        blk = Block(pairs=n_rows + n_strat, attempted=n_rows,
                    intervals=[("block", t0, t1)])
        relerr = []
        raised: dict[str, int] = {}
        if code is None:
            _note_exception(f"kobalab {' '.join(argv)}")
        lines = self.csv.read_text().splitlines()[1:] if code == 0 else []
        for line, want in zip(lines, self.expected):
            value = float(line.split(",")[3])
            relerr.append(abs(value - want) / want)
            if not abs(value - want) <= ORACLE_TOL:
                blk.failed += 1
                blk.wrong += 1
        missing = n_rows - min(len(lines), n_rows)
        blk.failed += missing
        if code == 0:
            blk.wrong += missing
        for value, want in zip(got, self.stratum_expected):
            if isinstance(value, Exception):
                raised[type(value).__name__] = raised.get(type(value).__name__, 0) + 1
            else:
                relerr.append(abs(value - want) / want)
        blk.samples = {"relerr_max": max(relerr, default=math.nan), "relerr_n": len(relerr),
                       "raised": raised}
        return blk

    def report(self, blocks: list[Block]) -> list[tuple]:
        raised = blocks[0].samples["raised"]
        n_raised = sum(sum(b.samples["raised"].values()) for b in blocks)
        n_strat = len(self.stratum) * len(blocks)
        return [("relerr_max", max(b.samples["relerr_max"] for b in blocks), "ratio",
                 sum(b.samples["relerr_n"] for b in blocks)),
                ("stratum_raised_frac", n_raised / n_strat if n_strat else 0.0, "ratio",
                 f"{n_raised}/{n_strat}; per block {raised}")]

    def cleanup(self):
        self.batch.unlink(missing_ok=True)
        self.csv.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (Examples, GenericPairs, DistBatch)}
