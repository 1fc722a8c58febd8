"""The four workloads and their end-to-end metrics.

Each workload is closed-loop, one operation at a time: a set-up, then whole
rounds of the same operations until the run length has passed. Only the
library calls (or CLI commands) are timed; building inputs and checking
outputs are not.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict, deque
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import checks as C
import inputs as I

MC_SAMPLES = 1000
CLI_SAMPLES = 200
CLI_BULK_SAMPLES = 100
TAIL_PERCENTILE = 95      # desk has >= 272 classify calls a run, so >= 13 lie beyond


class Run:
    """Operations attempted and failed, wrong outputs, and timings in seconds.

    ``t`` holds timings by kind; ``per_op`` holds, for each operation of a
    round, its time in every round.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.notes = []
        self.t = defaultdict(list)
        self.per_op = defaultdict(list)
        self.maps = 0
        self.work_s = 0.0
        self.samples = 0
        self.rounds = 0

    def fail(self, note):
        self.failed += 1
        self.notes.append(note)

    def maps_per_s(self):
        """Maps in a round over the round's work, each operation's time taken
        as its median over the rounds, so a stall in one round (another
        process on the machine) does not move the figure."""
        work = sum(statistics.median(ts) for ts in self.per_op.values())
        return self.maps / self.rounds / work


class Speed:
    """Follows the speed of a shared machine, whose other tenants can slow
    this process by a third for seconds at a time.

    Before each timed in-process operation a fixed kernel (small eigensolves
    plus interpreter work, the library's own mix) is timed, and the
    operation's time is scaled by ``REF_S`` over the median of the last
    ``WINDOW`` kernel times. Scaled times are reference times: the time on a
    machine where the kernel takes ``REF_S``, about its time on an idle
    2-core Xeon virtual machine.
    """

    REF_S = 1e-3
    WINDOW = 9

    def __init__(self):
        g = np.random.default_rng(0).standard_normal((9, 9))
        self.h = g + g.T
        self.enabled = False
        self.recent = deque(maxlen=self.WINDOW)
        self.wall_s = 0.0
        self.ref_s = 0.0

    def kernel(self):
        s = 0.0
        for _ in range(50):
            s += np.linalg.eigvalsh(self.h)[0]
            for j in range(30):
                s += j * 0.5
        return s

    def scale(self):
        """Reference seconds per wall second now (1 when disabled)."""
        if not self.enabled:
            return 1.0
        t0 = perf_counter()
        self.kernel()
        self.recent.append(perf_counter() - t0)
        return self.REF_S / statistics.median(self.recent)


SPEED = Speed()


def timed(tracer, kind, fn, *args):
    """(result, reference seconds, exception) of one library call."""
    scale = SPEED.scale()
    result = exc = None
    with tracer.operation(kind) if tracer else nullcontext():
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # a failed operation is counted, not fatal
            exc = e
        wall = perf_counter() - t0
    SPEED.wall_s += wall
    SPEED.ref_s += wall * scale
    return result, wall * scale, exc


def median_ms(xs):
    return statistics.median(xs) * 1e3


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6   # ru_maxrss is in KiB


def end_to_end(run, rss_of=resource.RUSAGE_SELF):
    """The metrics every workload reports (set-up time is added by run.py)."""
    return {
        "maps_per_s": (run.maps_per_s(), "maps/s"),
        "build_ms_p50": (median_ms(run.t["build"]), "ms"),
        "positive_ms_p50": (median_ms(run.t["positive"]), "ms"),
        "negative_ms_p50": (median_ms(run.t["negative"]), "ms"),
        "peak_rss_mb": (peak_rss_mb(rss_of), "MB"),
    }


# ---------------------------------------------------------------------------
# desk and large: maps built, then classified

class MapsWorkload:
    def __init__(self, make_specs, min_rounds, tail, normalized):
        self.make_specs = make_specs
        self.min_rounds = min_rounds
        self.tail = tail
        self.normalized = normalized

    def setup(self, lib, seed, tracer, run, workdir):
        return self.make_specs(lib, seed)

    def round(self, lib, specs, run, tracer):
        rng = np.random.default_rng(run.rounds)
        for i, spec in enumerate(specs):
            run.attempted += 1
            run.maps += 1
            op, bt, exc = timed(tracer, "build", getattr(lib, spec.build[0]), *spec.build[1])
            run.t["build"].append(bt)
            if exc is not None:
                run.fail(f"{spec.label}: build raised {exc!r}")
                run.per_op[i].append(bt)
                continue
            op = I.perturb(lib, op, spec)
            classify = {1: lib.classify_pure_preserver, 2: lib.classify_sep_preserver}.get(
                len(op.in_dims), lib.classify_multi_preserver)
            c, ct, exc = timed(tracer, "classify", classify, op, C.TOL)
            run.t["classify"].append(ct)
            run.per_op[i].append(bt + ct)
            run.work_s += bt + ct
            if exc is not None:
                expected = spec.expect == "boundary" and isinstance(exc, lib.ClassificationError)
                run.fail(("" if expected else "UNEXPECTED ") + f"{spec.label}: {exc!r}")
                continue
            self._check(spec, c, op, run, rng, ct)

    @staticmethod
    def _check(spec, c, op, run, rng, ct):
        v = C.verdict(c)
        run.t[v].append(ct)
        if spec.expect not in (v, "boundary"):
            run.wrong.append(f"{spec.label}: expected {spec.expect}, got {c.kind}")
        elif v == "positive":
            err = C.check_positive(spec, c, op.coeff, rng)
            if err:
                run.wrong.append(err)
        elif v == "negative":
            if not C.certified(c, op.coeff, spec.out_dims):
                run.fail(("" if spec.expect == "boundary" else "UNEXPECTED ")
                         + f"{spec.label}: witness not certified")
        elif spec.family in ("multi", "replacer") and c.kind != "insufficient_richness":
            run.wrong.append(f"{spec.label}: indeterminate verdict {c.kind}")

    def metrics(self, run):
        extra = {}
        if self.tail:
            xs = run.t["classify"]
            extra[f"classify_ms_tail (p{TAIL_PERCENTILE} of {len(xs)})"] = (
                float(np.percentile(xs, TAIL_PERCENTILE)) * 1e3, "ms")
        return end_to_end(run), extra


# ---------------------------------------------------------------------------
# verify: Monte-Carlo verification of maps built in set-up

class VerifyWorkload:
    min_rounds = 1
    normalized = True
    negative_repeats = 3    # MC seeds per non-preserver, for a steadier median

    def setup(self, lib, seed, tracer, run, workdir):
        specs = I.verify_specs(lib, seed)
        rng = np.random.default_rng([seed, 2])
        maps = []
        for spec in specs:
            op, bt, exc = timed(tracer, "build", getattr(lib, spec.build[0]), *spec.build[1])
            if exc is not None:
                raise exc
            run.t["build"].append(bt)
            op = I.perturb(lib, op, spec)
            repeats = 1 if spec.expect == "positive" else self.negative_repeats
            maps += [(spec, op, int(rng.integers(2**31))) for _ in range(repeats)]
        return maps

    def round(self, lib, maps, run, tracer):
        for i, (spec, op, mc_seed) in enumerate(maps):
            run.attempted += 1
            fn = lib.mc_verify_pure if len(op.in_dims) == 1 else lib.mc_verify_product
            res, dt, exc = timed(tracer, "verify", fn, op, MC_SAMPLES, mc_seed, C.TOL)
            run.per_op[i].append(dt)
            run.work_s += dt
            run.maps += 1
            if exc is not None:
                run.fail(f"UNEXPECTED {spec.label}: {exc!r}")
                continue
            run.samples += res.samples
            if spec.expect == "positive":
                run.t["positive"].append(dt)
                if not res.passed or res.samples != MC_SAMPLES:
                    run.wrong.append(f"{spec.label}: MC failed on a canonical form")
            elif res.passed:
                run.wrong.append(f"{spec.label}: MC passed a non-preserver")
            else:
                run.t["negative"].append(dt)
                if not C.certified(res, op.coeff, spec.out_dims):
                    run.fail(f"UNEXPECTED {spec.label}: MC witness not certified")

    def metrics(self, run):
        return end_to_end(run), {"mc_samples_per_s": (run.samples / run.work_s, "samples/s")}


# ---------------------------------------------------------------------------
# cli: make / classify / verify as subprocesses, one at a time

def _matrix(obj):
    return np.array(obj["re"]) + 1j * np.array(obj["im"])


def _report_slots(report, request):
    p = report.get("params") or {}
    if request == "form7":
        u = lambda k: (_matrix(p[k]), p[k]["flag"])  # noqa: E731
        return I.sep_slots(7, None, None, u("U1"), u("U2"))
    if request == "multi":
        return [("C", pi - 1, _matrix(u), u["flag"]) for pi, u in zip(p["pi"], p["isometries"])]
    return [("C", 0, _matrix(report["V"]), report["flag"])]


def _load_map(path):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return np.array(obj["coeff"]), tuple(obj["in_dims"]), tuple(obj["out_dims"])


class CliRunner:
    """Runs one CLI command, as a subprocess or in-process through
    ``preservers.cli.main`` (traced runs, so the serialize layer is seen)."""

    def __init__(self, lib, src, tracer, in_process):
        self.lib, self.tracer, self.in_process = lib, tracer, in_process
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def __call__(self, argv, out_path):
        with self.tracer.operation(argv[0]) if self.tracer else nullcontext():
            if not self.in_process:
                with open(out_path, "wb") as fh:
                    t0 = perf_counter()
                    proc = subprocess.run([sys.executable, "-m", "preservers.cli", *argv],
                                          stdin=subprocess.DEVNULL, stdout=fh,
                                          stderr=subprocess.PIPE, env=self.env, timeout=170)
                    wall = perf_counter() - t0
                return proc.returncode, wall
            with open(out_path, "w", encoding="utf-8") as fh, redirect_stdout(fh):
                t0 = perf_counter()
                rc = self.lib.cli.main(list(argv))
                return rc, perf_counter() - t0


class CliWorkload:
    min_rounds = 1
    normalized = False      # the kernel does not follow subprocess start-up

    def __init__(self, src):
        self.src = src
        self.in_process = False

    def setup(self, lib, seed, tracer, run, workdir):
        """Seeds of the commands, plus two map files the CLI cannot make: a
        perturbed form 6 and a product replacer on three factors."""
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        seeds = [str(int(s)) for s in rng.integers(2**31, size=5)]
        pi = ",".join(str(int(p) + 1) for p in rng.permutation(3))
        small = [
            ("form7", ["--form", "7", "--dims", "2,2"]),
            ("multi", ["--multi", "--pi", pi, "--dims", "2,2,2"]),
            ("pure", ["--pure", "conjugation", "--dims", "3,4"]),
        ]
        files = {}
        for spec in (I.sep_spec(lib, rng, 6, 2, 2, "negative", I.NEGATIVE_NOISE),
                     I.replacer_spec(lib, rng, (2, 2, 2), False, "indeterminate")):
            op = I.perturb(lib, getattr(lib, spec.build[0])(*spec.build[1]), spec)
            path = workdir / f"{spec.expect}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"in_dims": list(op.in_dims), "out_dims": list(op.out_dims),
                           "basis": "gellmann-v1", "coeff": op.coeff.tolist()}, fh)
            files[spec.expect] = (path, op.coeff, spec.out_dims)
        return {"small": [(name, argv + ["--seed", s]) for (name, argv), s in zip(small, seeds)],
                "bulk": ["--form", "7", "--dims", "6,6", "--seed", seeds[3]],
                "verify_seed": seeds[4], "files": files, "dir": workdir,
                "runner": CliRunner(lib, self.src, tracer, self.in_process), "pi": pi}

    def round(self, lib, st, run, tracer):
        rng = np.random.default_rng(run.rounds)
        d = st["dir"]
        run_cmd = st["runner"]
        out = d / "out.json"

        first = run.attempted

        def cmd(argv, want_rc, path=out, kind=None, small=True):
            key = run.attempted - first
            run.attempted += 1
            rc, wall = run_cmd(argv, path)
            run.per_op[key].append(wall)
            run.work_s += wall
            if small:
                run.t["small"].append(wall)
            if kind:
                run.t[kind].append(wall)
            if rc != want_rc:
                run.wrong.append(f"cli {' '.join(argv)}: exit {rc}, expected {want_rc}")
                return None
            with open(path, encoding="utf-8") as fh:
                return json.load(fh) if argv[0] != "make" else True

        vs = ["--seed", st["verify_seed"]]
        for name, argv in st["small"]:
            path = d / f"{name}.json"
            if cmd(["make", *argv], 0, path, "build") is None:
                continue
            coeff, dims, out_dims = _load_map(path)
            rep = cmd(["classify", str(path)], 0, kind="positive")
            if rep is not None:
                self._check_positive(name, rep, st, coeff, dims, out_dims, rng, run)
            rep = cmd(["verify", str(path), "--samples", str(CLI_SAMPLES), *vs], 0)
            if rep is not None and not (rep["passed"] and rep["samples"] == CLI_SAMPLES):
                run.wrong.append(f"cli verify {name}: {rep['passed']} after {rep['samples']}")
            run.maps += 1
        path, coeff, out_dims = st["files"]["negative"]
        for argv in (["classify", str(path)], ["verify", str(path), "--samples", str(CLI_SAMPLES), *vs]):
            rep = cmd(argv, 1, kind="negative")
            if rep is not None:
                factors = [_matrix(f) for f in (rep["witness"] or {}).get("factors", [])]
                if not factors or C.witness_defect(coeff, factors, out_dims) <= C.TOL:
                    run.wrong.append(f"cli {argv[0]} on a non-preserver: witness not certified")
        rep = cmd(["classify", str(st["files"]["indeterminate"][0])], 3)
        if rep is not None and rep["form"] != "insufficient":
            run.wrong.append(f"cli classify of a product replacer: form {rep['form']}")
        run.maps += 2

        big = d / "bulk.json"
        t0 = run.work_s
        if cmd(["make", *st["bulk"]], 0, big, small=False) is not None:
            rep = cmd(["classify", str(big)], 0, small=False)
            cmd(["verify", str(big), "--samples", str(CLI_BULK_SAMPLES), *vs], 0, small=False)
            run.t["bulk"].append(run.work_s - t0)
            run.t["json_bytes"].append(big.stat().st_size)
            if rep is not None:
                coeff, dims, out_dims = _load_map(big)
                self._check_positive("form7", rep, st, coeff, dims, out_dims, rng, run)
        run.maps += 1

    @staticmethod
    def _check_positive(name, rep, st, coeff, dims, out_dims, rng, run):
        if name == "form7":
            ok = rep["form"] == 7 and rep["grid"] == list(C.EXPECTED_GRID[7])
        elif name == "multi":
            ok = rep["form"] == "multi" and rep["params"]["pi"] == [int(p) for p in st["pi"].split(",")]
        else:
            ok = rep["kind"] == "conjugation"
        if not ok:
            run.wrong.append(f"cli classify {name}: report names another construction")
            return
        dev = C.images_agree(_report_slots(rep, name), None, coeff, dims, int(np.prod(out_dims)), rng)
        if dev > C.IMAGE_TOL:
            run.wrong.append(f"cli classify {name}: reported parameters miss the map by {dev:.2e}")

    def metrics(self, run):
        extra = {
            "cli_startup_ms_p50": (median_ms(run.t["small"]), "ms"),
            "cli_bulk_s": (statistics.median(run.t["bulk"]), "s"),
            "map_json_mb": (run.t["json_bytes"][-1] / 1e6, "MB"),
        }
        return end_to_end(run, resource.RUSAGE_CHILDREN), extra


def workloads(src):
    return {
        "desk": MapsWorkload(I.desk_specs, min_rounds=2, tail=True, normalized=True),
        "large": MapsWorkload(I.large_specs, min_rounds=1, tail=False, normalized=False),
        "verify": VerifyWorkload(),
        "cli": CliWorkload(Path(src)),
    }
