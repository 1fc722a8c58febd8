"""Benchmark of the preservers library: four seeded workloads.

    python3 bench/run.py --workload desk --seed 1 --seconds 12 --trace 0

Run from the root of a source tree (the library is imported from ``src/``).
Human-readable metric lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
Files written while running go to ``.bench_run/`` at the root.
"""

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
WORKLOADS = ("desk", "large", "verify", "cli")
SETUP_REPEATS = 5


def cap_blas_threads():
    """One BLAS thread per available core, fixed before numpy loads."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    return n


def import_library():
    """Import preservers from this tree's src/."""
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("preservers")
    if Path(lib.__file__).resolve().parent != (SRC / "preservers").resolve():
        raise ImportError(f"preservers was imported from {lib.__file__}, not from {SRC}")
    return lib


def fresh_import_s(module):
    """Median time for a fresh interpreter to import ``module``."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def run_rounds(wl, lib, state, run, tracer, seconds):
    """Whole rounds until ``seconds`` have passed (at least ``min_rounds``)."""
    t0 = perf_counter()
    first = run.rounds
    while run.rounds - first < wl.min_rounds or perf_counter() - t0 < seconds:
        wl.round(lib, state, run, tracer)
        run.rounds += 1


def untraced(wl, lib, seed, seconds):
    """Set-up is the import of the library plus input generation, each the
    median of SETUP_REPEATS tries."""
    from workloads import SPEED, Run

    SPEED.enabled = wl.normalized
    run = Run()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        state = wl.setup(lib, seed, None, run, OUT / "cli")
        setups.append(perf_counter() - t0)
    run_rounds(wl, lib, state, run, None, seconds)
    metrics, extra = wl.metrics(run)
    if SPEED.enabled:
        extra["speed_factor"] = (SPEED.ref_s / SPEED.wall_s, "ref/wall")
    metrics["setup_s"] = (fresh_import_s("preservers") + statistics.median(setups), "s")
    return run, metrics, extra


def traced(name, wl, lib, seed, seconds):
    """Two untraced rounds (warm-up, reference), then a traced set-up and
    traced rounds. The overhead compares timed work per round."""
    from layers import per_layer
    from tracer import Tracer
    from workloads import Run

    importlib.import_module("preservers.cli")
    wl.in_process = True
    run = Run()
    state = wl.setup(lib, seed, None, run, OUT / "cli")
    for _ in range(2):
        before = run.work_s
        wl.round(lib, state, run, None)
        run.rounds += 1
    ref = run.work_s - before
    tracer = Tracer()
    tracer.install()
    try:
        state = wl.setup(lib, seed, tracer, run, OUT / "cli")
        after_setup = tracer.snapshot()
        work0 = run.work_s
        run_rounds(wl, lib, state, run, tracer, seconds)
    finally:
        tracer.uninstall()
    rounds = run.rounds - 2
    overhead = (run.work_s - work0) / rounds / ref - 1.0
    metrics = per_layer(after_setup, tracer.snapshot(), rounds, fresh_import_s("preservers.cli"))
    path = OUT / f"trace-{name}-{seed}.json"
    tracer.dump(path, {"workload": name, "seed": seed, "traced_rounds": rounds,
                       "tracing_overhead": overhead})
    extra = {"tracing_overhead_pct": (100 * overhead, "%")}
    return run, metrics, extra, path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "preservers" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no library source at {SRC / 'preservers'}\n")
        return 2
    threads = cap_blas_threads()
    lib = import_library()

    import oracles
    from workloads import workloads

    oracles.self_check()
    OUT.mkdir(exist_ok=True)
    wl = workloads(SRC)[args.workload]
    if args.trace:
        run, metrics, extra, path = traced(args.workload, wl, lib, args.seed, args.seconds)
        print(f"{args.workload}: trace written to {path}")
    else:
        run, metrics, extra = untraced(wl, lib, args.seed, args.seconds)

    for note in run.notes:
        sys.stderr.write(f"failed: {note}\n")
    for msg in run.wrong:
        sys.stderr.write(f"WRONG: {msg}\n")
    print(f"{args.workload}: seed {args.seed}, {run.rounds} rounds, BLAS threads {threads}, "
          f"attempted {run.attempted}, failed {run.failed}, wrong {len(run.wrong)}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload}: {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
