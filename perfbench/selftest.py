"""Self-test of the benchmark itself; run from the checkout root:

    python3 perfbench/selftest.py

1. A reduced-size run of each workload, untraced and traced, prints every
   metric named in BENCHMARK.json with the unit given there, and its
   result line is well-formed, finite and correct.
2. The correctness gates bite: a corrupted oracle value (dist-batch), a
   corrupted contraction bound (generic-pairs) and a corrupted reference
   output (examples) each show up as a failed operation.

Exits 0 when every check passes.  Takes well under a minute.
"""

import contextlib
import io
import json
import math
import sys

import run
from speed import SpeedProbe

REDUCED = {
    "examples": {"names": ("exp-annulus",)},
    "generic-pairs": {"pairs_per_map": 2},
    "dist-batch": {"rows_per_kind": 4, "stratum_per_k": 1},
}
SEED = 7
PROBE = SpeedProbe()


def check(ok: bool, what: str, failures: list):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def reduced_run(name: str, trace: bool, spec: dict, failures: list):
    wl = run.build_workload(name, SEED, **REDUCED[name])
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            if trace:
                metrics, notes, blocks = run.traced(wl, SEED, PROBE)
                extra, wanted = [], run.per_layer_names()
                listed = spec["per_layer"]
            else:
                blocks = run.measure(wl, 0.0, PROBE)
                metrics, extra = run.end_to_end(wl, blocks, [0.0])
                notes, wanted = [], run.end_to_end_names()
                listed = spec["end_to_end"]
            run.print_report(name, SEED, metrics, extra, blocks, notes)
            line = run.result_line(metrics, wanted, blocks)
    finally:
        getattr(wl, "cleanup", lambda: None)()
    text = buf.getvalue()
    mode = "traced" if trace else "untraced"
    expected = {m["name"]: m["unit"] for m in listed}
    check(line["metrics"].keys() == expected.keys()
          and all(line["metrics"][k]["unit"] == u for k, u in expected.items()),
          f"{name} {mode}: result names and units match BENCHMARK.json", failures)
    report = [ln.split() for ln in text.splitlines() if ln.startswith("  ")]
    printed = {r[0]: r[2] for r in report if len(r) >= 4}
    named = list(expected) + [r[0] for r in extra] + ["failed_frac"]
    check(all(k in printed for k in named)
          and all(printed[k] == u for k, u in expected.items()),
          f"{name} {mode}: report prints {len(named)} metrics with units", failures)
    check(line["correct"] and line["attempted"] >= 1
          and all(math.isfinite(v["value"]) for v in line["metrics"].values()),
          f"{name} {mode}: result is correct and finite", failures)


def missing_name_is_reported(failures: list):
    import tracing

    kernels = tracing.LAYERS["closed_forms.kernels"]
    kernels.append("closed_forms.no_such_kernel")
    wl = run.build_workload("dist-batch", SEED, **REDUCED["dist-batch"])
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            metrics, notes, _ = run.traced(wl, SEED, PROBE)
    finally:
        kernels.remove("closed_forms.no_such_kernel")
        wl.cleanup()
    check(any("closed_forms.no_such_kernel" in n for n in notes)
          and metrics["closed_forms.kernels.calls"][0] > 0,
          "traced run: a wrapped name that no longer exists is reported as missing", failures)


def gates_bite(failures: list):
    import workloads

    wl = run.build_workload("dist-batch", SEED, **REDUCED["dist-batch"])
    try:
        base = wl.run_block(0)
        wl.expected[0] += 1e-9
        bad = wl.run_block(0)
    finally:
        wl.cleanup()
    check(base.failed == 0 and bad.failed == bad.wrong == 1,
          "dist-batch: an oracle value off by 1e-9 is one failed operation", failures)

    wl = run.build_workload("generic-pairs", SEED, **REDUCED["generic-pairs"])
    base = wl.run_block(0)
    saved = workloads.CONTRACTION_TOL
    workloads.CONTRACTION_TOL = -math.inf
    try:
        bad = wl.run_block(0)
    finally:
        workloads.CONTRACTION_TOL = saved
    check(base.failed == 0 and bad.failed == bad.attempted == base.attempted,
          "generic-pairs: a contraction bound of -inf fails every pair", failures)

    wl = run.build_workload("examples", SEED, **REDUCED["examples"])
    base = wl.run_block(0)
    wl.first["exp-annulus"] = b"corrupt"
    bad = wl.run_block(1)
    check(base.failed == 0 and bad.failed == bad.wrong == 1,
          "examples: output differing from the first run is a failed operation", failures)


def main() -> int:
    PROBE.start()
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures: list = []
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
          "BENCHMARK.json lists the three workloads", failures)
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            reduced_run(name, trace, spec, failures)
    missing_name_is_reported(failures)
    gates_bite(failures)
    print(f"{'all checks passed' if not failures else f'{len(failures)} check(s) failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
