"""In-memory tracer that wraps cliffork's public entry points from outside.

The library is not modified.  `Tracer.install()` replaces each traced
function or method with a wrapper, in its defining module and in every
cliffork module that imported it by name, and `uninstall()` puts the
originals back.

Every wrapped call is a frame on one stack, so a layer's self time is its
duration minus the time of the traced calls nested in it.  Calls to the
coarse entry points are also kept as spans (name, start, end, parent span,
op id).  The hot leaves (matrix and multivector products, matrix equality
and unary maps) make hundreds of thousands of calls per pass, so they are
aggregated into calls, time and self time instead of stored one by one.
The Gaussian-scalar operations and `blade_product` run millions of times
and are only counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (layer, module, qualified name).  A class attribute is "Class.attr".
SPAN_LAYERS = (
    ("spinor_repr.build", "spinor_repr", "build_spinbasis"),
    ("spinor_repr.build", "spinor_repr", "sweep_spinbasis_variants"),
    ("spinor_repr.build", "spinor_repr", "load_spinbasis"),
    ("ext_automorphisms.ext_group_report", "ext_automorphisms", "ext_group_report"),
    ("ext_automorphisms.ext_matrices", "ext_automorphisms", "ext_matrices"),
    ("ext_automorphisms.commutation_profile", "ext_automorphisms", "commutation_profile"),
    ("finite_groups.closure", "finite_groups", "generate_group_from_matrices"),
    ("finite_groups.identify", "finite_groups", "identify_small_group"),
    ("finite_groups.vee", "finite_groups", "vee_group"),
    ("finite_groups.vee", "finite_groups", "vee_factor_check"),
    ("quotient.transfer_report", "quotient", "transfer_report"),
    ("quotient.quotient_group", "quotient", "quotient_group"),
    ("coverings.structure", "coverings", "pt_structure"),
    ("coverings.structure", "coverings", "cpt_structure"),
    ("classification.build_table", "classification", "build_table"),
    ("cli.run", "cli", "run"),
)
HOT_LAYERS = (
    ("spinor_repr.eq", "spinor_repr", "SpinMatrix.__eq__"),
    ("spinor_repr.unary", "spinor_repr", "SpinMatrix.__neg__"),
    ("spinor_repr.unary", "spinor_repr", "SpinMatrix.conj"),
    ("spinor_repr.unary", "spinor_repr", "SpinMatrix.transpose"),
    ("spinor_repr.classify_matrix", "spinor_repr", "classify_matrix"),
    ("core_algebra.mv_involutions", "core_algebra", "MultiVector.grade_involution"),
    ("core_algebra.mv_involutions", "core_algebra", "MultiVector.reversion"),
    ("core_algebra.mv_involutions", "core_algebra", "MultiVector.clifford_conjugation"),
    ("core_algebra.mv_involutions", "core_algebra", "MultiVector.pseudo_conjugation"),
    ("core_algebra.mv_involutions", "core_algebra", "MultiVector.complex_conjugation"),
    ("core_algebra.mv_involutions", "core_algebra", "MultiVector.involution_by_omega"),
    ("quotient.epsilon_map", "quotient", "epsilon_map"),
)
# products: (layer for a product of two such objects, layer for scaling)
PRODUCT_LAYERS = (
    ("spinor_repr.matmul", "spinor_repr.scale", "spinor_repr", "SpinMatrix"),
    ("core_algebra.mv_mul", "core_algebra.mv_scale", "core_algebra", "MultiVector"),
)
CENSUS_USERS = ("ext_automorphisms.ext_group_report", "ext_automorphisms.ext_matrices")
COUNTED = (
    ("core_algebra.scalar_mul", "core_algebra", "GaussianScalar.__mul__"),
    ("core_algebra.scalar_mul", "core_algebra", "GaussianScalar.__rmul__"),
    ("core_algebra.scalar_add", "core_algebra", "GaussianScalar.__add__"),
    ("core_algebra.scalar_add", "core_algebra", "GaussianScalar.__radd__"),
    ("core_algebra.blade_product", "core_algebra", "blade_product"),
)


class LayerStat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # outermost calls only, so recursion is not counted twice
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Spans, per-layer time and counts for one process, kept in memory."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.op_id = 0
        self.spans: list = []  # (name, start, end, parent span index or -1, op id)
        self.stack: list = []  # [layer, start, child time, span index or None]
        self.stats = defaultdict(LayerStat)
        self.counts = Counter()
        self.matmul_us = defaultdict(list)  # matrix dimension -> per-product microseconds
        self.census_units = 0  # units of the bases given to CENSUS_USERS
        self.census_classify = 0  # classify_matrix calls made inside them
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _enter(self, layer, keep_span):
        span = None
        if keep_span:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), -1)
            span = len(self.spans)
            self.spans.append([layer, 0.0, 0.0, parent, self.op_id])
        stat = self.stats[layer]
        stat.calls += 1
        stat.depth += 1
        frame = [layer, time.perf_counter(), 0.0, span]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        layer, start, child, span = frame
        duration = end - start
        stat = self.stats[layer]
        stat.depth -= 1
        if stat.depth == 0:
            stat.total += duration
        stat.self_time += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if span is not None:
            self.spans[span][1] = start - self.t0
            self.spans[span][2] = end - self.t0
        return duration

    def _timed(self, layer, fn, keep_span):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(layer, keep_span)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return wrapper

    def _product(self, layer, scale_layer, cls, fn):
        enter, leave = self._enter, self._exit
        per_dim = self.matmul_us if cls.__name__ == "SpinMatrix" else None

        @functools.wraps(fn)
        def wrapper(a, b):
            if not isinstance(b, cls):
                frame = enter(scale_layer, False)
                try:
                    return fn(a, b)
                finally:
                    leave(frame)
            frame = enter(layer, False)
            try:
                return fn(a, b)
            finally:
                duration = leave(frame)
                if per_dim is not None:
                    per_dim[len(a.rows)].append(duration * 1e6)

        return wrapper

    def _counted(self, layer, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _census_user(self, layer, fn):
        """ext_group_report and ext_matrices each need the class of every
        basis unit once; count those units against classify_matrix calls."""
        inner = self._timed(layer, fn, True)
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(basis, *args, **kwargs):
            if not any(stats[name].depth for name in CENSUS_USERS):
                self.census_units += len(basis.mats)
            return inner(basis, *args, **kwargs)

        return wrapper

    def _classify(self, fn):
        inner = self._timed("spinor_repr.classify_matrix", fn, False)
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(m):
            if any(stats[name].depth for name in CENSUS_USERS):
                self.census_classify += 1
            return inner(m)

        return wrapper

    def _suite(self, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(name, *args, **kwargs):
            frame = enter(f"cli.suite.{name}", True)
            try:
                return fn(name, *args, **kwargs)
            finally:
                leave(frame)

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, module_name, qualname, make):
        module = sys.modules[f"cliffork.{module_name}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, make(original))
            self._patches.append((owner, attr, original))
            return
        original = getattr(module, qualname)
        wrapped = make(original)
        # also replace copies bound by `from .module import name`
        for name, mod in list(sys.modules.items()):
            if (name == "cliffork" or name.startswith("cliffork.")) and \
                    getattr(mod, qualname, None) is original:
                setattr(mod, qualname, wrapped)
                self._patches.append((mod, qualname, original))

    def install(self) -> "Tracer":
        import cliffork.cli  # noqa: F401  (loads every module that gets patched)

        for layer, mod, name in SPAN_LAYERS:
            if layer in CENSUS_USERS:
                self._patch(mod, name, lambda f, layer=layer: self._census_user(layer, f))
            else:
                self._patch(mod, name, lambda f, layer=layer: self._timed(layer, f, True))
        for layer, mod, name in HOT_LAYERS:
            if name == "classify_matrix":
                self._patch(mod, name, self._classify)
            else:
                self._patch(mod, name, lambda f, layer=layer: self._timed(layer, f, False))
        for layer, scale_layer, mod, cls_name in PRODUCT_LAYERS:
            cls = getattr(sys.modules[f"cliffork.{mod}"], cls_name)
            self._patch(mod, f"{cls_name}.__mul__",
                        lambda f, a=layer, b=scale_layer, c=cls: self._product(a, b, c, f))
        for layer, mod, name in COUNTED:
            self._patch(mod, name, lambda f, layer=layer: self._counted(layer, f))
        self._patch("cli", "run_suite", self._suite)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def summary(self) -> dict:
        """Plain-data totals, mergeable across processes with `merge`."""
        return {
            "stats": {k: [s.calls, s.total, s.self_time]
                      for k, s in self.stats.items() if s.calls},
            "counts": dict(self.counts),
            "matmul_us": {str(d): v for d, v in self.matmul_us.items()},
            "census_units": self.census_units,
            "census_classify": self.census_classify,
        }

    def write(self, path) -> None:
        """Write the summary, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"summary": self.summary()}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def merge(summaries) -> dict:
    out = {"stats": defaultdict(lambda: [0, 0.0, 0.0]), "counts": Counter(),
           "matmul_us": defaultdict(list), "census_units": 0, "census_classify": 0}
    for s in summaries:
        for k, (calls, total, self_time) in s["stats"].items():
            row = out["stats"][k]
            row[0] += calls
            row[1] += total
            row[2] += self_time
        out["counts"].update(s["counts"])
        for d, v in s["matmul_us"].items():
            out["matmul_us"][d].extend(v)
        out["census_units"] += s["census_units"]
        out["census_classify"] += s["census_classify"]
    return out

