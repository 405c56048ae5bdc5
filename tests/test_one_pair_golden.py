"""One-pair distances on the tube and Reinhardt shapes of the Schwarz-Pick
check, pinned bit for bit.

Each case draws 16 seeded pairs with the sampler below and evaluates them
one `distance` call at a time, the path of a single pair through the
tube's cover record and the deck search.  `tests/data/one_pair_golden.json`
holds their value, gap, method and deck index; a change that claims to
keep every output bit must reproduce the file exactly.  To record it
again (only for a change that means to move these numbers):

    PYTHONPATH=src python tests/test_one_pair_golden.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from kobalab import EuclideanBall, apply_map, distance, exp_tube_cover, monomial_map

GOLDEN = Path(__file__).parent / "data" / "one_pair_golden.json"
PAIRS = 16
BALL = EuclideanBall((0.0, 0.0), 1.0)
# name -> (map, side, seed): the pairs are drawn in the map's source and
# measured there (side "source") or at their images (side "target"): the
# tube over the unit ball, and the Reinhardt domains over the unit ball,
# the radius-2 ball and the linear image ((1, 1), (0, 2)) of the unit ball
CASES = {
    "tube-ball": (exp_tube_cover(BALL), "source", 11),
    "reinhardt-ball": (exp_tube_cover(BALL), "target", 12),
    "reinhardt-ball-radius-2": (monomial_map(((2, 0), (0, 2)), BALL), "target", 13),
    "reinhardt-linear-image": (monomial_map(((1, 1), (0, 2)), BALL), "target", 14),
}


def sample_pairs(f, seed: int) -> list:
    """PAIRS pairs of points of f's source: real (log) parts uniform in the
    disc of radius 0.85 about 0, imaginary parts uniform in [-2, 2] on a
    tube and uniform phases on a Reinhardt domain."""
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(PAIRS):
        pair = []
        for _ in range(2):
            r, th = 0.85 * math.sqrt(gen.random()), 2.0 * math.pi * gen.random()
            x = np.array([r * math.cos(th), r * math.sin(th)])
            turn = gen.random(2)
            if f.source.kind == "tube":
                pair.append(x + 1j * (4.0 * turn - 2.0))
            else:
                pair.append(np.exp(x) * np.exp(2j * math.pi * turn))
        out.append(pair)
    return out


def evaluate(name: str) -> dict:
    """The columns of the case's pairs, one `distance` call per pair."""
    f, side, seed = CASES[name]
    got = {"value": [], "gap": [], "method": [], "deck_index": []}
    for z, w in sample_pairs(f, seed):
        if side == "target":
            d = distance(f.target, apply_map(f, z), apply_map(f, w))
        else:
            d = distance(f.source, z, w)
        got["value"].append(d.value)
        got["gap"].append(d.gap)
        got["method"].append(d.method)
        got["deck_index"].append(None if d.deck_index is None else list(d.deck_index))
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_pair_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = evaluate(name)
    for column in ("value", "gap", "method", "deck_index"):
        assert got[column] == want[column], (name, column)


def test_golden_cases_are_generic():
    # every case holds bracketed pairs, with a deck search on the Reinhardt
    # cases: the golden covers the sandwich and deck paths, not only exact ones
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)
    for name, case in golden.items():
        assert len(case["value"]) == PAIRS
        assert "sandwich" in case["method"], name
        assert all((d is None) == (name == "tube-ball") for d in case["deck_index"]), name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: evaluate(name) for name in sorted(CASES)}, indent=1)
                      + "\n")
