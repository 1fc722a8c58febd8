"""Span tracing of the library, installed from outside it.

Every public function of the traced modules is wrapped, and the wrapper is
put in place of the original at every module binding that refers to it, so
``from .superop import apply`` inside ``sep_analysis`` is traced as well as
``superop.apply``. Calls of kernel functions (all of ``basis`` and ``linalg``,
``superop.apply``, ``sep_analysis.slice_phi``) are aggregated as a count plus
busy time; every other call is kept as a span (id, parent, operation, name,
start, end). Each benchmark operation opens a root span, so the spans of one
operation share its id. Self time is busy time minus the time of the child
calls, which never overlap in this single-threaded library.
"""

import inspect
import json
import sys
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("basis", "linalg", "superop", "pure_analysis", "sep_analysis", "serialize", "cli")
AGGREGATED_MODULES = ("basis", "linalg")
AGGREGATED = {"superop.apply", "sep_analysis.slice_phi", "superop.conjugate_operator"}
CLASSIFIERS = ("sep_analysis.classify_sep_preserver", "sep_analysis.classify_multi_preserver")


class Tracer:
    def __init__(self):
        self.stack = []                 # frames: [name, start, child_time, span_id]
        self.depth = Counter()          # open frames per name
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy s, self s
        self.counts = Counter()
        self.spans = []
        self.next_id = 1
        self.op_id = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, keep_span: bool):
        sid = None
        if keep_span:
            sid = self.next_id
            self.next_id += 1
        frame = [name, perf_counter(), 0.0, sid]
        self.stack.append(frame)
        self.depth[name] += 1
        return frame

    def _close(self, frame):
        end = perf_counter()
        self.stack.pop()
        name, start, child, sid = frame
        self.depth[name] -= 1
        dur = end - start
        st = self.stats[name]
        st[0] += 1
        st[2] += dur - child
        if self.depth[name] == 0:      # count busy time once under recursion
            st[1] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if sid is not None:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.spans.append((sid, parent, self.op_id, name, start, end))

    @contextmanager
    def operation(self, kind: str):
        """Root span of one benchmark operation."""
        self.op_id += 1
        frame = self._open(f"bench.{kind}", True)
        try:
            yield
        finally:
            self._close(frame)

    def _wrap(self, name: str, fn):
        keep = name not in AGGREGATED and name.split(".")[0] not in AGGREGATED_MODULES
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters at layer boundaries (bytes are computed from array sizes) --

    def _hook_superop_from_action(self, args, kwargs, result):
        self.counts["superop.from_action.columns"] += result.coeff.shape[1]
        if any(self.depth[c] for c in CLASSIFIERS):
            self.counts["sep_analysis.slice_maps"] += 1

    def _hook_superop_apply(self, args, kwargs, result):
        op = args[0]
        self.counts["superop.apply.bytes"] += op.coeff.nbytes + 8 * (op.in_dim ** 2 + op.out_dim ** 2)

    def _hook_superop_superop_equal(self, args, kwargs, result):
        self.counts["superop.superop_equal.bytes"] += args[0].coeff.nbytes + args[1].coeff.nbytes

    def _hook_linalg_is_product_pure(self, args, kwargs, result):
        if self.depth["sep_analysis.find_product_witness"]:
            self.counts["sep_analysis.find_product_witness.purity_tests"] += 1

    def _hook_sep_analysis_find_product_witness(self, args, kwargs, result):
        if result is not None:
            self.counts["sep_analysis.find_product_witness.found"] += 1

    def _hook_sep_analysis_mc_verify_product(self, args, kwargs, result):
        self.counts["sep_analysis.mc_verify_product.samples"] += result.samples

    def _hook_pure_analysis_mc_verify_pure(self, args, kwargs, result):
        self.counts["pure_analysis.mc_verify_pure.samples"] += result.samples

    def _hook_serialize_dumps(self, args, kwargs, result):
        self.counts["serialize.dumps.bytes"] += len(result.encode("utf-8"))

    # -- installation --------------------------------------------------------

    def install(self, pkg_name: str = "preservers"):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{pkg_name}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mname, mod in list(sys.modules.items()):
            if mname != pkg_name and not mname.startswith(pkg_name + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        # cli parses map files with json.loads; time it as the serialize layer
        cli = sys.modules[f"{pkg_name}.cli"]
        real_json = cli.json
        proxy = types.SimpleNamespace(**{k: getattr(real_json, k) for k in dir(real_json)
                                         if not k.startswith("__")})
        proxy.loads = self._wrap("serialize.parse", real_json.loads)
        self._restore.append((cli, "json", real_json))
        cli.json = proxy

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def snapshot(self):
        return {k: list(v) for k, v in self.stats.items()}, dict(self.counts)

    def dump(self, path, extra: dict):
        doc = {
            "span_fields": ["id", "parent", "operation", "name", "start", "end"],
            "spans": self.spans,
            "aggregates": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
