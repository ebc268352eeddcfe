"""Span tracing of bpcodes from outside the package.

``Tracer.install`` replaces selected public functions and methods with
wrappers that record one span per call: name, start, end and the index
of the enclosing span. Every ``bpcodes.*`` module attribute bound to a
wrapped function is rebound, so calls through names imported into other
modules are traced too. Spans stay in memory; ``layer_metrics`` derives
per-layer self times (span duration minus the time its child spans
cover), call counts and exact size counts from them, and ``write_spans``
dumps them as tab-separated text at the end of a run.

The source tree is not modified: the wrappers live only in the traced
process.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# metric group -> (module, qualified name) of every function it times.
# A group's self time is the sum of its spans' self times; its calls and
# sizes count only outermost calls (no enclosing span of the same group).
GROUPS: dict[str, list[tuple[str, str]]] = {
    "f2la.elim": [("f2la", n) for n in ("rank", "rref", "kernel_basis", "solve", "solve_matrix")],
    "f2la.convert": [
        ("f2la", "F2Matrix." + n)
        for n in (
            "from_dense", "to_dense", "transpose", "nonzeros", "permuted",
            "from_entries", "from_rows", "hstack", "matmul",
        )
    ],
    "f2la.io": [("f2la", "write_alist"), ("f2la", "read_alist")],
    "algebra.lift": [("algebra", "lift_group_algebra_matrix"), ("algebra", "circulant_lift")],
    "algebra.group": [("algebra", "build_pgl2"), ("algebra", "build_psl2")],
    "complexes.total_complex": [("complexes", "total_complex")],
    "complexes.tensor": [("complexes", "tensor_complex"), ("complexes", "tensor_double_complex")],
    "complexes.homology": [
        ("complexes", "ChainComplex." + n)
        for n in ("homology_dim", "homology_basis", "cycle_space", "boundary_space")
    ],
    "complexes.pages": [("complexes", "homology_2x2_via_pages")],
    "graphs.lps_graph": [("graphs", "lps_graph")],
    "graphs.action": [("graphs", "cayley_right_action")],
    "graphs.quotient": [("graphs", "quotient_graph"), ("graphs", "check_quotient_condition")],
    "graphs.eig": [("graphs", "second_eigenvalue")],
    "classical.distance": [("classical", "exact_distance")],
    "classical.search": [("classical", "gv_plus_search")],
    "tanner.build": [("tanner", "build_tanner")],
    "tanner.expansion": [("tanner", "check_expansion_theorem7"), ("tanner", "check_expansion_theorem8")],
    "products.balanced_product": [("products", "balanced_product")],
    "products.circle": [("products", "circle_balanced_product")],
    "products.align": [("products", "aligned_total")],
    "products.homology_split": [("products", "homology_split")],
    "quantum.css": [("quantum", "css_from_complex")],
    "quantum.ldpc_check": [("quantum", "ldpc_check")],
    "quantum.distance": [("quantum", "exact_css_distance"), ("quantum", "dressed_distance")],
    "pipeline.self": [("pipeline", "build_bundle"), ("pipeline", "load_and_validate_bundle")],
    **{
        f"verify.{s}": [("verify", f"{s}_suite")]
        for s in ("toric", "klein", "kunneth", "pages", "balanced", "bounds", "gv", "triple", "lps")
    },
}

# Per-layer metrics: self times in seconds, then exact counts by unit.
TIME_METRICS = [g + "_s" for g in GROUPS if g != "products.align"] + [
    "products.align_balanced_s",
    "products.align_bundle_s",
    "products.align_lifted_s",
]
COUNT_METRICS = {
    "f2la.elim_calls": "count",
    "f2la.elim_cells": "cells",
    "f2la.convert_calls": "count",
    "f2la.io_bytes": "bytes",
    "algebra.ga_elems": "count",
    "graphs.eig_dense_calls": "count",
    "graphs.eig_lanczos_calls": "count",
    "classical.distance_calls": "count",
    "classical.search_calls": "count",
    "classical.search_trials": "count",
    "tanner.expansion_chains": "count",
    "products.total_nnz": "count",
    "pipeline.bundle_bytes": "bytes",
}

# How each count is computed, printed with the traced results.
COUNT_DEFINITIONS = {
    "f2la.elim_cells": "sum of rows*cols of the matrix argument of outermost "
    "rank/rref/kernel_basis/solve/solve_matrix calls",
    "f2la.io_bytes": "file sizes written by write_alist and read by read_alist",
    "algebra.ga_elems": "GroupAlgebraElem instances constructed",
    "classical.search_trials": "trials used by gv_plus_search, out of "
    "classical.search_calls searches that each found one code",
    "tanner.expansion_chains": "n_enumerated + n_sampled of the expansion reports",
    "products.total_nnz": "nonzeros of d1 and d2 of each circle_balanced_product total complex",
    "pipeline.bundle_bytes": "bytes on disk of each bundle directory build_bundle wrote",
}


def _nnz(m) -> int:
    return int(np.bitwise_count(m.data).sum())


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _elim_cells(args, kwargs, out):
    m = _arg(args, kwargs, 0, "m")
    return {"f2la.elim_cells": m.rows * m.cols}


def _io_bytes(args, kwargs, out):
    path = args[-1] if args else kwargs["path"]
    return {"f2la.io_bytes": os.path.getsize(path)}


def _eig_branch(args, kwargs, out):
    from bpcodes import graphs

    x = _arg(args, kwargs, 0, "x")
    key = "graphs.eig_dense_calls" if x.n <= graphs.DENSE_EIG_CAP else "graphs.eig_lanczos_calls"
    return {key: 1}


def _search_trials(args, kwargs, out):
    return {"classical.search_trials": out.trials}


def _expansion_chains(args, kwargs, out):
    return {"tanner.expansion_chains": out.n_enumerated + out.n_sampled}


def _circle_nnz(args, kwargs, out):
    tot = out.product.total
    return {"products.total_nnz": _nnz(tot.differential(1)) + _nnz(tot.differential(2))}


def _bundle_bytes(args, kwargs, out):
    return {"pipeline.bundle_bytes": _dir_bytes(_arg(args, kwargs, 1, "out_dir"))}


# Span name -> exact sizes taken from a call's arguments or result. Their
# cost is recorded as a "trace.size" span so no layer's self time has it.
SIZES = {
    **{f"f2la.{n}": _elim_cells for _, n in GROUPS["f2la.elim"]},
    "f2la.write_alist": _io_bytes,
    "f2la.read_alist": _io_bytes,
    "graphs.second_eigenvalue": _eig_branch,
    "classical.gv_plus_search": _search_trials,
    "tanner.check_expansion_theorem7": _expansion_chains,
    "tanner.check_expansion_theorem8": _expansion_chains,
    "products.circle_balanced_product": _circle_nnz,
    "pipeline.build_bundle": _bundle_bytes,
}

CALL_COUNTS = {
    "f2la.elim": "f2la.elim_calls",
    "f2la.convert": "f2la.convert_calls",
    "classical.distance": "classical.distance_calls",
    "classical.search": "classical.search_calls",
}


class Tracer:
    """Wraps bpcodes functions and records spans in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every function in GROUPS and count GroupAlgebraElem objects."""
        for mod_name in {mod for targets in GROUPS.values() for mod, _ in targets}:
            importlib.import_module(f"bpcodes.{mod_name}")
        modules = [m for k, m in sys.modules.items() if k == "bpcodes" or k.startswith("bpcodes.")]
        for group, targets in GROUPS.items():
            for mod_name, qualname in targets:
                module = sys.modules[f"bpcodes.{mod_name}"]
                span_name = f"{mod_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        setattr(cls, attr, staticmethod(self._wrap(group, span_name, raw.__func__)))
                    else:
                        setattr(cls, attr, self._wrap(group, span_name, raw))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(group, span_name, original)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is original:
                            setattr(m, k, wrapper)
        elem = sys.modules["bpcodes.algebra"].GroupAlgebraElem
        init = elem.__init__
        counts = self.counts

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            counts["algebra.ga_elems"] += 1
            init(obj, *args, **kwargs)

        elem.__init__ = counted_init

    def _wrap(self, group: str, span_name: str, fn):
        spans, stack, depth, counts = self.spans, self._stack, self._depth, self.counts
        clock = time.perf_counter
        size_fn = SIZES.get(span_name)
        call_key = CALL_COUNTS.get(group)
        is_align = group == "products.align"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name
            if is_align:
                name = "products.align_" + _arg(args, kwargs, 1, "which")
            outermost = depth[group] == 0
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            depth[group] += 1
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[group] -= 1
                stack.pop()
            if outermost:
                if call_key:
                    counts[call_key] += 1
                if size_fn:
                    t0 = clock()
                    for k, v in size_fn(args, kwargs, out).items():
                        counts[k] += v
                    spans.append(["trace.size", t0, clock(), parent])
            return out

        return traced

    # -- results --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, covered):
            out[name] += end - start - c
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric, zero for layers the run did not call."""
        by_span = self.self_times()
        span_group = {
            f"{mod_name}.{qualname}": group + "_s"
            for group, targets in GROUPS.items()
            for mod_name, qualname in targets
        }
        metrics = {name: 0.0 for name in TIME_METRICS}
        for name, t in by_span.items():
            if name.startswith("products.align_"):
                metrics[name + "_s"] += t
            elif name in span_group:
                metrics[span_group[name]] += t
        for name in COUNT_METRICS:
            metrics[name] = self.counts.get(name, 0)
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                f.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
