"""Spans around the calls into each layer, recorded from outside the library.

`Tracer.install` replaces each traced function by a wrapper wherever a
module of the package holds a reference to it, which covers both
`from .x import f` and `module.f` call sites, and the methods listed in
`TRACED_METHODS` on their classes.  A traced name that no longer exists
is skipped and reported as absent.  Spans are recorded only while a cell
or the set-up is open, so the correctness checks, which call the same
functions, leave no spans.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from time import perf_counter

from workloads import backtracks

LAYERS = ("census", "bsrep", "numerics", "kempfness", "compactify", "retraction")

#: Public functions traced per layer.
TRACED_FUNCTIONS = {
    "census": ("enumerate_orbits", "order_bound"),
    "bsrep": ("random_rep", "relation_residual", "conjugate", "direct_sum",
              "from_orbit_datum"),
    "numerics": ("eigvals", "snap_root_of_unity", "polar", "herm_power", "exp_herm"),
    "kempfness": ("flow", "kn_energy", "moment_map"),
    "compactify": ("detect_finite_order", "generated_group", "averaged_form",
                   "conjugate_into_unitary", "normality_exponent"),
    "retraction": ("full_pipeline", "certify_and_retract", "retract_a",
                   "verify_unitary_rep"),
}

#: (layer, class, method, span name).
TRACED_METHODS = (("retraction", "RetractionPath", "max_residual", "retraction.path_check"),)

#: The span of the benchmark's own code around the library calls.
ROOT = "bench"

PACKAGE = "bsretract"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, cell id)
        # Counts made at the boundaries, per cell id.
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._cell: str | None = None
        self._patches: list = []
        self._hooks = {
            "kempfness.flow": self._on_flow,
            "compactify.detect_finite_order": self._on_order,
            "retraction.path_check": self._on_path_check,
        }

    # ----------------------------------------------------------- recording

    def open(self, phase: str, cell_id: str) -> None:
        """Open the root span of a cell; library spans nest under it."""
        self._cell = f"{phase}/{cell_id}"
        self._stack.append(len(self.spans))
        self.spans.append((ROOT, perf_counter(), None, -1, self._cell))

    def close(self) -> None:
        idx = self._stack.pop()
        name, start, _, parent, cell = self.spans[idx]
        self.spans[idx] = (name, start, perf_counter(), parent, cell)
        self._cell = None

    def _wrap(self, name: str, fn):
        tracer = self
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            if tracer._cell is None:
                return fn(*args, **kwargs)
            stack, spans = tracer._stack, tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer._cell)
            if hook is not None:
                hook(tracer.counts[tracer._cell], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _on_flow(self, counts, args, kwargs, result) -> None:
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        if cfg is None:
            cfg = sys.modules[f"{PACKAGE}.kempfness"].FlowConfig()
        trace = result[1]
        counts["kempfness.flow.iterations"] += trace.iterations
        counts["kempfness.flow.backtracks"] += backtracks(trace, cfg)

    @staticmethod
    def _on_order(counts, args, kwargs, result) -> None:
        counts["compactify.order_sum"] += result
        counts["compactify.order_max"] = max(counts["compactify.order_max"], result)

    @staticmethod
    def _on_path_check(counts, args, kwargs, result) -> None:
        counts["retraction.path_samples"] += len(args[0].samples)

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every traced name in every loaded module of the package."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for layer, names in TRACED_FUNCTIONS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for attr in names:
                original = getattr(home, attr, None)
                if original is None:
                    self.absent.append(f"{layer}.{attr}")
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)
        for layer, cls_name, attr, name in TRACED_METHODS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.absent.append(name)
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -------------------------------------------------------------- results

    def cell_counts(self, phase: str) -> dict[str, dict[str, float]]:
        """Boundary counts and span counts of every cell of one phase, for
        the determinism check."""
        prefix = phase + "/"
        out: dict[str, dict[str, float]] = {
            cell[len(prefix):]: dict(counts)
            for cell, counts in self.counts.items() if cell.startswith(prefix)
        }
        for name, *_rest, cell in self.spans:
            if cell.startswith(prefix):
                counts = out.setdefault(cell[len(prefix):], {})
                counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
        return out

    def metrics(self, phases: tuple[str, ...], names: list[str],
                untraced_wall: float, traced_wall: float) -> dict[str, float]:
        """The per-layer metrics `names` over the spans of `phases`."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        prefixes = tuple(p + "/" for p in phases)
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        layer_self: dict[str, float] = defaultdict(float)
        for (name, start, end, _, cell), self_s in zip(self.spans, own):
            if cell.startswith(prefixes):
                total[name] += end - start
                calls[name] += 1
                layer_self[name.split(".")[0]] += self_s
        values: dict[str, float] = defaultdict(float)
        for cell, counts in self.counts.items():
            if cell.startswith(prefixes):
                for key, value in counts.items():
                    values[key] = max(values[key], value) if key.endswith("_max") else values[key] + value
        for name in total:
            values[f"{name}.s"] = total[name]
            values[f"{name}.calls"] = calls[name]
        for layer in LAYERS + (ROOT,):
            values[f"{layer}.self_s"] = layer_self[layer]
        iters = values["kempfness.flow.iterations"]
        values["kempfness.flow.s_per_iter"] = total["kempfness.flow"] / iters if iters else 0.0
        values["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
        values["trace.unaccounted_share"] = layer_self[ROOT] / total[ROOT]
        return {name: float(values[name]) for name in names}

    def write(self, path) -> None:
        """Spans as gzipped CSV: index, name, start and end in seconds from
        the first span, index of the parent span (-1 for a root), cell id."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent,cell\n")
            for i, (name, start, end, parent, cell) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{cell}\n")
