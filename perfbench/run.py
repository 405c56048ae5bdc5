"""kobalab benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload {examples,generic-pairs,dist-batch}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src.  Set-up (import, inputs from the seed, reference values, warm-up)
is timed seven times, here and in six fresh child processes, and its
median is `setup_s`.  Times are rescaled to a reference core speed
(speed.py).  With --trace 0 the workload then runs timed blocks
for about S seconds (at least the workload's minimum count) and reports
the end-to-end metrics; with --trace 1 it runs its first blocks (at least
3 s) untraced and again under the span tracer and reports the per-layer
metrics.  Every output is
checked.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it list every
metric with its unit and sample count.  perfbench/README.md explains the
workloads and the metrics.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# numpy must not start BLAS threads: one caller, on a shared 2-core machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("examples", "generic-pairs", "dist-batch")
SETUP_CHILDREN = 6
TRACE_UNTRACED_S = 3.0
CHILD_TIMEOUT_S = 150


def end_to_end_names() -> list[tuple[str, str]]:
    return [("setup_s", "s"), ("wall_s", "s"), ("pairs_per_s", "1/s"), ("peak_rss_mb", "MB")]


def per_layer_names() -> list[tuple[str, str]]:
    from tracing import BUSY_LAYERS, LAYERS

    names = []
    for label in LAYERS:
        names += [(f"{label}.calls", "count"), (f"{label}.self_s", "s")]
        if label in BUSY_LAYERS:
            names.append((f"{label}.busy_s", "s"))
    names += [("metric.deck_infimum.evals_per_call", "ratio"),
              ("tube.affine_disc_tau.per_upper", "ratio"),
              ("trace.overhead", "ratio"), ("trace.unattributed_s", "s")]
    return names


def import_program():
    """Put ./src on sys.path and import the program from the checkout;
    refuse to fall back on an installed copy."""
    if not (SRC / "kobalab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no kobalab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kobalab

    if Path(kobalab.__file__).resolve().parent != SRC / "kobalab":
        raise ImportError(f"kobalab imported from {kobalab.__file__}, not from {SRC}")


def build_workload(name: str, seed: int, **sizes):
    import_program()
    from workloads import WORKLOADS

    OUTDIR.mkdir(exist_ok=True)
    return WORKLOADS[name](seed, OUTDIR, **sizes)


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def rescale(blocks, probe):
    """Fill each block's times at reference speed (speed.py)."""
    for blk in blocks:
        blk.ref = {label: probe.reference_seconds(t0, t1) for label, t0, t1 in blk.intervals}


def measure(wl, seconds: float, probe) -> list:
    """Run blocks until the next one would end past `seconds`."""
    blocks = []
    t0 = time.perf_counter()
    while True:
        blocks.append(wl.run_block(len(blocks)))
        typical = statistics.median(b.wall for b in blocks)
        if len(blocks) >= wl.min_blocks and time.perf_counter() - t0 + typical > seconds:
            rescale(blocks, probe)
            return blocks


def end_to_end(wl, blocks, setup_samples) -> tuple[dict, list]:
    """Times are at reference machine speed (speed.py); the raw ones and the
    slowdown factors go to the report lines.  Blocks of the same work give
    the median block; blocks of new inputs give the mean, which averages
    over all the inputs the run covered."""
    walls = [b.ref_wall for b in blocks]
    raw = [b.wall for b in blocks]
    average = statistics.median if wl.same_work else statistics.fmean
    wall = average(walls)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "wall_s": (wall, "s", len(walls)),
        "pairs_per_s": (average([b.pairs for b in blocks]) / wall, "1/s",
                        sum(b.pairs for b in blocks)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    extra = wl.report(blocks) + [
        ("raw_wall_s", statistics.median(raw), "s", len(raw)),
        ("slowdown", statistics.median(r / w for r, w in zip(raw, walls)), "ratio", len(raw)),
    ]
    return metrics, extra


def traced(wl, seed: int, probe) -> tuple[dict, list, list]:
    """Run blocks 0, 1, ... untraced for at least TRACE_UNTRACED_S, then the
    same blocks under the tracer."""
    from tracing import LAYERS, Tracer

    plain = []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < TRACE_UNTRACED_S:
        plain.append(wl.run_block(len(plain)))
    tracer = Tracer()
    with tracer:
        timed = [wl.run_block(i) for i in range(len(plain))]
    rescale(plain + timed, probe)
    plain_wall, plain_ref = sum(b.wall for b in plain), sum(b.ref_wall for b in plain)
    timed_wall, timed_ref = sum(b.wall for b in timed), sum(b.ref_wall for b in timed)
    summary = tracer.summary()
    spans_path = OUTDIR / f"spans-{wl.name}-seed{seed}.csv"
    tracer.write_spans(spans_path)
    metrics = {}
    for label in LAYERS:
        layer = summary["layers"][label]
        metrics[f"{label}.calls"] = (layer["calls"], "count", 1)
        metrics[f"{label}.self_s"] = (layer["self_s"], "s", layer["calls"])
        if "busy_s" in layer:
            metrics[f"{label}.busy_s"] = (layer["busy_s"], "s", layer["calls"])
    for name, (num, den) in summary["ratios"].items():
        metrics[name] = (num / den if den else 0.0, "ratio", f"{num}/{den}")
    overhead_s = timed_wall - plain_wall
    unattributed = timed_wall - summary["self_sum_s"]
    metrics["trace.overhead"] = (timed_ref / plain_ref, "ratio", len(plain))
    metrics["trace.unattributed_s"] = (unattributed, "s", summary["spans"])
    notes = [f"{len(plain)} block(s) traced {timed_ref:.4f} s, untraced {plain_ref:.4f} s "
             f"(raw {timed_wall:.4f} s, {plain_wall:.4f} s)",
             f"{summary['spans']} spans in {summary['queries']} top-level queries -> {spans_path}",
             "self times sum to the traced wall within the overhead: "
             + ("yes" if abs(unattributed) <= abs(overhead_s) else "NO"),
             f"missing names: {tracer.missing or 'none'}"]
    return metrics, notes, plain + timed


def print_report(workload: str, seed: int, metrics: dict, extra: list, blocks, notes):
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks)
    print(f"# {workload}  seed {seed}  blocks {len(blocks)}")
    rows = [(k, v, u, n) for k, (v, u, n) in metrics.items()] + list(extra)
    rows.append(("failed_frac", failed / attempted, "ratio", f"{failed}/{attempted}"))
    for name, value, unit, n in rows:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={n}")
    for line in notes:
        print(f"  {line}")


def result_line(metrics: dict, wanted: list, blocks) -> dict:
    """The result line: exactly the `wanted` metrics, with the counts.

    `correct` is false when an output the program returned failed its
    check; operations that raised count in `failed` only."""
    out = {k: {"value": metrics[k][0], "unit": u} for k, u in wanted}
    for k, entry in out.items():
        if not math.isfinite(entry["value"]):
            raise ValueError(f"metric {k} is not finite")
    return {
        "correct": all(b.wrong == 0 for b in blocks),
        "attempted": sum(b.attempted for b in blocks),
        "failed": sum(b.failed for b in blocks),
        "metrics": out,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for the set-up samples)")
    args = parser.parse_args(argv)

    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    wl = None
    try:
        wl = build_workload(args.workload, args.seed)
        setup_here = probe.reference_seconds(T_START, time.perf_counter())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        return run_workload(args, wl, setup_here, probe)
    finally:
        probe.stop()
        getattr(wl, "cleanup", lambda: None)()


def run_workload(args, wl, setup_here: float, probe) -> int:
    if args.trace:
        metrics, notes, blocks = traced(wl, args.seed, probe)
        extra = []
        wanted = per_layer_names()
    else:
        setup_samples = [setup_here] + [child_setup_seconds(args.workload, args.seed)
                                        for _ in range(SETUP_CHILDREN)]
        blocks = measure(wl, args.seconds, probe)
        metrics, extra = end_to_end(wl, blocks, setup_samples)
        walls = sorted(b.wall for b in blocks)
        notes = [f"setup samples (s): {[round(s, 4) for s in setup_samples]}",
                 f"raw block walls (s): min {walls[0]:.4f}, max {walls[-1]:.4f}"]
        wanted = end_to_end_names()
    print_report(args.workload, args.seed, metrics, extra, blocks, notes)
    print(json.dumps(result_line(metrics, wanted, blocks)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # no result line, and a non-zero exit
        import traceback

        traceback.print_exc()
        sys.exit(2)
