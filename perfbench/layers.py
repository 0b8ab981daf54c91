"""Per-layer metrics of a traced run: observers on layer results plus the
metric table built from the tracer's statistics.

One layer per levelalg module.  Each metric below is reported on every
workload; README.md says which end-to-end metric it should move and where.
"""

from __future__ import annotations

import importlib

from .tracer import Tracer

# name -> unit, in report order.
METRICS = {
    "linalg.calls": "count",
    "linalg.self_s": "s",
    "linalg.cells": "count",
    "linalg.nonzero_ratio": "ratio",
    "linalg.pivot_row_ratio": "ratio",
    "linalg.max_entry_bits": "bits",
    "forms.span.calls": "count",
    "forms.span.self_s": "s",
    "forms.reduce.calls": "count",
    "forms.reduce.self_s": "s",
    "forms.intersect.self_s": "s",
    "forms.mul.calls": "count",
    "apolarity.self_s": "s",
    "apolarity.socle.total_s": "s",
    "apolarity.minimal_generators.total_s": "s",
    "apolarity.hilbert_function.calls": "count",
    "apolarity.hilbert_function.total_s": "s",
    "apolarity.inverse_system_slice.total_s": "s",
    "secant.secant_decompose.total_s": "s",
    "secant.secant_intersect.total_s": "s",
    "secant.plane_subspace.calls": "count",
    "tangent.tangent_space.total_s": "s",
    "tangent.tangent_space_dual.total_s": "s",
    "tangent.constraint_cells": "count",
    "levelhf.enumerate_level_hf.total_s": "s",
    "levelhf.dominates.calls": "count",
    "resolution.c1_c2_analysis.self_s": "s",
    "resolution.e1_vanishing_table.self_s": "s",
    "resolution.lascoux_ranks.total_s": "s",
    "schubert.porteous_class.total_s": "s",
    "schubert.lr_multiply.calls": "count",
    "schubert.lr_coefficient.calls": "count",
    "schubert.lr_coefficient.hit_ratio": "ratio",
    "kronecker.kronecker.calls": "count",
    "kronecker.kronecker.self_s": "s",
    "kronecker.kronecker.nonzero_ratio": "ratio",
    "kronecker.character.hit_ratio": "ratio",
    "bott.bott_cohomology.calls": "count",
    "bott.bott_cohomology.nonzero_ratio": "ratio",
    "partitions.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.build_parser.total_s": "s",
}

# Functions whose lru_cache hit ratio is reported: metric -> (module, name).
CACHES = {
    "schubert.lr_coefficient.hit_ratio": ("schubert", "lr_coefficient"),
    "kronecker.character.hit_ratio": ("kronecker", "character"),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _entry_bits(x) -> int:
    num = getattr(x, "numerator", x)
    den = getattr(x, "denominator", 1)
    return max(abs(num).bit_length(), den.bit_length())


class LayerCounters:
    """Counts taken from the arguments and results of layer calls."""

    def __init__(self):
        self.cells = 0
        self.nonzero = 0
        self.rows = 0
        self.rank = 0
        self.max_bits = 0
        self.constraint_cells = 0
        self.kronecker_nonzero = 0
        self.bott_nonzero = 0

    def _matrix(self, m):
        if not m:
            return 0
        self.cells += len(m) * len(m[0])
        for row in m:
            for x in row:
                if x:
                    self.nonzero += 1
                    bits = _entry_bits(x)
                    if bits > self.max_bits:
                        self.max_bits = bits
        return len(m)

    def on_rref(self, args, kwargs, result):
        self.rows += self._matrix(args[0])
        self.rank += len(result[1])

    def on_det(self, args, kwargs, result):
        self._matrix(args[0])

    def on_tangent(self, args, kwargs, result):
        rows, cols = result.constraint_shape
        self.constraint_cells += rows * cols

    def on_kronecker(self, args, kwargs, result):
        self.kronecker_nonzero += result != 0

    def on_bott(self, args, kwargs, result):
        self.bott_nonzero += not result.is_zero

    def observers(self) -> dict:
        return {
            "linalg.rref": self.on_rref,
            "linalg.det": self.on_det,
            "tangent.tangent_space": self.on_tangent,
            "tangent.tangent_space_dual": self.on_tangent,
            "kronecker.kronecker": self.on_kronecker,
            "bott.bott_cohomology": self.on_bott,
        }


def cache_counts() -> dict:
    out = {}
    for metric, (module, name) in CACHES.items():
        info = getattr(importlib.import_module(f"levelalg.{module}"), name).cache_info()
        out[metric] = (info.hits, info.misses)
    return out


def layer_metrics(tracer: Tracer, counters: LayerCounters, caches_before: dict,
                  caches_after: dict) -> dict:
    """Every metric of METRICS.  "<layer>.self_s" is the layer's self time;
    "<span>.calls", "<span>.self_s" and "<span>.total_s" read the tracer's
    statistics of that span name; the rest come from counters and caches."""
    st = tracer.stats
    layer_self = tracer.layer_self_times()

    def calls(name):
        return st[name].calls if name in st else 0

    values = {
        "linalg.calls": tracer.entries.get("linalg", 0),
        "linalg.cells": counters.cells,
        "linalg.nonzero_ratio": _ratio(counters.nonzero, counters.cells),
        "linalg.pivot_row_ratio": _ratio(counters.rank, counters.rows),
        "linalg.max_entry_bits": counters.max_bits,
        "tangent.constraint_cells": counters.constraint_cells,
        "kronecker.kronecker.nonzero_ratio": _ratio(counters.kronecker_nonzero,
                                                    calls("kronecker.kronecker")),
        "bott.bott_cohomology.nonzero_ratio": _ratio(counters.bott_nonzero,
                                                     calls("bott.bott_cohomology")),
    }
    for metric in CACHES:
        hits = caches_after[metric][0] - caches_before[metric][0]
        misses = caches_after[metric][1] - caches_before[metric][1]
        values[metric] = _ratio(hits, hits + misses)
    for metric in METRICS:
        if metric in values:
            continue
        name, kind = metric.rsplit(".", 1)
        if "." not in name:
            values[metric] = layer_self.get(name, 0.0)
        elif name not in st:
            values[metric] = 0
        else:
            values[metric] = {"calls": st[name].calls, "self_s": st[name].self_time,
                              "total_s": st[name].outer_total}[kind]
    return {name: values[name] for name in METRICS}
