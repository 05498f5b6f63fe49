"""Spans around the library's public functions, recorded from outside.

For the traced run only, each function below is replaced, in the module
where callers look it up, by a wrapper that records a span: name, start,
end, parent span and request id, plus counts taken from the call's
arguments and return value.  ``certificates`` and ``cli`` bind
``propagate`` (and a few other names) at import, so those bindings are
patched too; ``surfaces`` and ``cli`` import ``can_excise`` and
``validate_elementary_proof`` lazily, so patching the defining module
covers them.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter


def _count_minus(mat) -> int:
    return sum(row.count(-1) for row in mat.rows())


def _propagate_info(args, kwargs, result):
    """New -1 cells committed by scanning (the seeds themselves excluded)."""
    mat = args[0]
    seeds = args[1] if len(args) > 1 else kwargs.get("seeds", ())
    seeded = sum(1 for i, j, v in seeds if v == -1 and mat.entry(i, j) == 0)
    return _count_minus(result) - _count_minus(mat) - seeded


def _snf_info(args, kwargs, result):
    A = args[0]
    return (len(A), len(A[0]) if A else 0)


def _search_info(args, kwargs, verdict):
    stats = verdict.stats
    return (stats.nodes_expanded, stats.propagations_forced, verdict.outcome)


# (module, attribute path, span name, counts taken from the call)
PATCHES = (
    ("tilingcalc.cli", "main", "cli.main", None),
    ("tilingcalc.certificates", "Certificate.from_json", "certificates.parse", None),
    ("tilingcalc.certificates", "validate_certificate", "certificates.walk",
     lambda a, k, report: len(report.leaves)),
    ("tilingcalc.ternary", "propagate", "ternary.propagate", _propagate_info),
    ("tilingcalc.certificates", "propagate", "ternary.propagate", _propagate_info),
    ("tilingcalc.cli", "propagate", "ternary.propagate", _propagate_info),
    ("tilingcalc.ternary", "contradicts_incidence_axiom", "ternary.pattern", None),
    ("tilingcalc.certificates", "contradicts_incidence_axiom", "ternary.pattern", None),
    ("tilingcalc.surfaces", "validate_elementary_proof", "surfaces.validate", None),
    ("tilingcalc.certificates", "validate_elementary_proof", "surfaces.validate", None),
    ("tilingcalc.surfaces", "octahedral_subdivide", "surfaces.subdivide", None),
    ("tilingcalc.cli", "octahedral_subdivide", "surfaces.subdivide", None),
    ("tilingcalc.surfaces", "generate_theorem", "surfaces.generate", None),
    ("tilingcalc.cli", "generate_theorem", "surfaces.generate", None),
    ("tilingcalc.search", "check_theorem", "search.check", _search_info),
    ("tilingcalc.excision", "can_excise", "excision.decide", None),
    ("tilingcalc.excision", "smith_normal_form", "excision.snf", _snf_info),
    ("tilingcalc.excision", "failing_cochain", "excision.witness", None),
    ("tilingcalc.cli", "failing_cochain", "excision.witness", None),
    ("tilingcalc.gropes", "random_grope", "gropes.random_grope", None),
    ("tilingcalc.gropes", "random_closed_surface", "gropes.random_closed_surface", None),
    ("tilingcalc.gropes", "grope_base", "gropes.grope_base", None),
    ("tilingcalc.gropes", "fan_disc", "gropes.fan_disc", None),
    ("tilingcalc.gropes", "grope_glue", "gropes.grope_glue", None),
)

NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    """Records spans while ``enabled``; ``request`` tags new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.request, None]
            self.spans.append(span)
            self._stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module_name, path, name, info in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            wrapped = self.wrap(name, getattr(owner, attr), info)
            if isinstance(owner, type):  # a classmethod: keep it callable on the class
                wrapped = staticmethod(wrapped)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def layer_totals(spans) -> dict:
    """Sums over all spans: counts, busy and self times (seconds), and
    the counts read from arguments and return values."""
    child_time = [0.0] * len(spans)
    has_snf_child = [False] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_time[parent] += span[END] - span[START]
            if span[NAME] == "excision.snf":
                has_snf_child[parent] = True
    t: dict = {}

    def add(key, value):
        t[key] = t.get(key, 0) + value

    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        add(name + ".calls", 1)
        add(name + ".time", duration)
        add(name + ".self", duration - child_time[index])
        info = span[INFO]  # None when the call raised
        parent_name = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
        if name.startswith("gropes.") and not parent_name.startswith("gropes."):
            add("gropes.build", duration)
        if name == "ternary.pattern" and parent_name == "ternary.propagate":
            add("ternary.pattern_in_propagate", 1)
        elif name == "excision.decide" and not has_snf_child[index]:
            add("excision.cache_hits", 1)
        if info is None:
            continue
        if name == "certificates.walk":
            add("certificates.leaves", info)
        elif name == "ternary.propagate":
            add("ternary.committed", info)
        elif name == "search.check":
            nodes, forced, outcome = info
            add("search.nodes", nodes)
            add("search.forced", forced)
            add("search.undecided", outcome == "resource_exceeded")
        elif name == "excision.snf":
            t["excision.snf_max_rows"] = max(t.get("excision.snf_max_rows", 0), info[0])
            t["excision.snf_max_cols"] = max(t.get("excision.snf_max_cols", 0), info[1])
    return t


# (metric, unit, how it is computed from the totals); "/req" metrics are
# means over the requests of the traced run
PER_LAYER = (
    ("cli.self_ms", "ms/req", ("per_req_ms", "cli.main.self")),
    ("certificates.parse_ms", "ms/req", ("per_req_ms", "certificates.parse.time")),
    ("certificates.walk_self_ms", "ms/req", ("per_req_ms", "certificates.walk.self")),
    ("certificates.leaves", "count/req", ("per_req", "certificates.leaves")),
    ("ternary.propagate_calls", "count/req", ("per_req", "ternary.propagate.calls")),
    ("ternary.propagate_self_ms", "ms/req", ("per_req_ms", "ternary.propagate.self")),
    ("ternary.pattern_calls", "count/req", ("per_req", "ternary.pattern.calls")),
    ("ternary.pattern_ms", "ms/req", ("per_req_ms", "ternary.pattern.time")),
    ("ternary.commit_ratio", "ratio", ("ratio", "ternary.committed", "ternary.pattern_in_propagate")),
    ("surfaces.validate_self_ms", "ms/req", ("per_req_ms", "surfaces.validate.self")),
    ("surfaces.subdivide_ms", "ms/req", ("per_req_ms", "surfaces.subdivide.time")),
    ("surfaces.generate_ms", "ms/req", ("per_req_ms", "surfaces.generate.time")),
    ("search.nodes", "count/req", ("per_req", "search.nodes")),
    ("search.undecided", "count/req", ("per_req", "search.undecided")),
    ("search.nodes_per_s", "1/s", ("ratio", "search.nodes", "search.check.self")),
    ("search.forced", "count/req", ("per_req", "search.forced")),
    ("search.self_ms", "ms/req", ("per_req_ms", "search.check.self")),
    ("excision.decisions", "count/req", ("per_req", "excision.decide.calls")),
    ("excision.decide_ms", "ms/req", ("per_req_ms", "excision.decide.time")),
    ("excision.snf_calls", "count/req", ("per_req", "excision.snf.calls")),
    ("excision.snf_ms", "ms/req", ("per_req_ms", "excision.snf.time")),
    ("excision.snf_max_rows", "count", ("total", "excision.snf_max_rows")),
    ("excision.snf_max_cols", "count", ("total", "excision.snf_max_cols")),
    ("excision.cache_hit_ratio", "ratio", ("ratio", "excision.cache_hits", "excision.decide.calls")),
    ("excision.witness_calls", "count/req", ("per_req", "excision.witness.calls")),
    ("excision.witness_ms", "ms/req", ("per_req_ms", "excision.witness.time")),
    ("gropes.build_ms", "ms/req", ("per_req_ms", "gropes.build")),
    ("gropes.glue_calls", "count/req", ("per_req", "gropes.grope_glue.calls")),
)


def per_layer_metrics(totals: dict, requests: int, speed: float = 1.0) -> dict:
    """Metric name -> (value, unit) from layer_totals over a run of the
    given number of requests, with every time multiplied by `speed`; a
    layer the workload skips reads 0."""
    times = {
        key: value * speed
        for key, value in totals.items()
        if key.endswith((".time", ".self")) or key == "gropes.build"
    }
    totals = {**totals, **times}
    out = {}
    for metric, unit, (how, key, *rest) in PER_LAYER:
        value = totals.get(key, 0)
        if how == "per_req":
            value = value / requests
        elif how == "per_req_ms":
            value = 1000.0 * value / requests
        elif how == "ratio":
            base = totals.get(rest[0], 0)
            value = value / base if base else 0.0
        out[metric] = (value, unit)
    return out
