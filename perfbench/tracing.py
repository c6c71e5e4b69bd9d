"""Span tracing from outside the library, for the traced benchmark run.

``install`` wraps each named public function or method of ``hyperhom``
in every module namespace that binds it. A wrapper records one span
(layer, start, end, parent) in memory. ``layer_metrics`` turns the
spans into per-layer calls, self time and counters; a layer's self time
is its spans' time minus the time their child spans cover.

Work a wrapper does to fill a counter runs inside its own
``trace.counters`` span, so it is charged to tracing, not to the layer
that called the wrapped function.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# layer -> wrapped names, as "module:attribute" or "module:Class.method".
LAYERS: dict[str, tuple[str, ...]] = {
    "bench.op": (),
    "trace.counters": (),
    "cli.main": ("cli:main",),
    "cli.parse": ("cli:_build_parser", "cli:_config_from_args", "cli:_read_hypergraph"),
    "fuzz.check_pair": ("fuzz:check_pair",),
    "fuzz.shrink": ("fuzz:shrink_pair",),
    "hypergraph.parse": ("hypergraph:parse_hypergraph",),
    "hypergraph.construct": (
        "hypergraph:Hypergraph.__post_init__",
        "hypergraph:SimplicialComplex.__post_init__",
    ),
    "hypergraph.positions": ("hypergraph:SimplicialComplex.simplex_positions",),
    "hypergraph.closure": ("hypergraph:associated_complex",),
    "hypergraph.product": ("hypergraph:product_boxtimes",),
    "homology.boundary": ("homology:boundary_matrix",),
    "homology.inf": ("homology:inf_chain",),
    "homology.sup": ("homology:sup_chain",),
    "homology.restrict": ("homology:restricted_boundaries",),
    "homology.groups": ("homology:submodule_homology",),
    "homology.embedded": ("homology:embedded_homology",),
    "intlinalg.hnf": ("intlinalg:column_hnf", "intlinalg:lattice_sum_basis"),
    "intlinalg.kernel": ("intlinalg:kernel_basis",),
    "intlinalg.solver": ("intlinalg:LatticeSolver.__init__",),
    "intlinalg.solve": ("intlinalg:LatticeSolver.solve",),
    "intlinalg.snf": ("intlinalg:smith_normal_form", "intlinalg:invariant_factors"),
    "intlinalg.rank": ("intlinalg:rank", "intlinalg:rank_mod_p"),
    "abelian.presentation": ("abelian:from_presentation",),
    "abelian.ledger_ops": (
        "abelian:FGAbelianGroup.tensor",
        "abelian:FGAbelianGroup.tor",
        "abelian:FGAbelianGroup.direct_sum",
        "abelian:direct_sum",
    ),
    "kunneth.tensor_inf": ("kunneth:inf_tensor_basis",),
    "kunneth.chainmap": ("kunneth:restricted_chainmap_check",),
    "kunneth.maps": ("kunneth:ez_map", "kunneth:aw_map"),
    "kunneth.ledger": ("kunneth:kunneth_check", "kunneth:field_kunneth_check"),
}


class Recorder:
    """Spans of one process, kept in memory until ``write``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}  # keys seen in the current operation
        self.seen: dict[str, dict[int, object]] = {}
        self.absent: list[str] = []

    def span(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span of ``layer``."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (layer, start, end, parent)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def add_max(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def add_distinct(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    def end_op(self) -> None:
        """Count the distinct keys of the operation that just ended."""
        for key, items in self.distinct.items():
            self.add(f"{key}.distinct", len(items))
        self.distinct.clear()

    def add_once(self, key: str, obj, value: float) -> None:
        """Count ``value`` once per object: cached results come back many
        times. The object is kept so that its id is not reused."""
        seen = self.seen.setdefault(key, {})
        if id(obj) not in seen:
            seen[id(obj)] = obj
            self.add(key, value)

    def write(self, path: Path) -> None:
        """All spans, one JSON array per line: layer, start, end, parent."""
        with path.open("w") as f:
            for layer, start, end, parent in self.spans:
                f.write(json.dumps([layer, start, end, parent]) + "\n")


# ---------------------------------------------------------------- counters
# Each takes (recorder, args, result) and runs inside a trace.counters span.


def _matrix_stats(rec: Recorder, m) -> None:
    rec.add("intlinalg.nnz", m.nnz)
    rec.add("intlinalg.cells", m.nrows * m.ncols)
    bits = max(
        (abs(v).bit_length() for j in range(m.ncols) for v in m.column(j).values()),
        default=0,
    )
    rec.add_max("intlinalg.max_bits", bits)


def _closure_counter(rec, args, result):
    rec.add_once("hypergraph.closure.simplices", result, len(result.edges))


def _product_counter(rec, args, result):
    rec.add("hypergraph.product.edges", len(result.edges))


def _boundary_counter(rec, args, result):
    rec.add_once("homology.boundary.nnz", result, result.nnz)


def _embedded_counter(rec, args, result):
    h, rest = args[0], args[1:]
    rec.add_distinct("homology.embedded", (h, *rest))


def _ledger_counter(rec, args, result):
    rec.add_distinct("kunneth.ledger", tuple(args))


def _chainmap_counter(rec, args, result):
    rec.add(
        "kunneth.chainmap.columns",
        result.tensor_columns_checked + result.product_columns_checked,
    )


def _maps_counter(name):
    def count(rec, args, result):
        rec.add(f"kunneth.maps.{name}_calls", 1)

    return count


COUNTERS = {
    "intlinalg:column_hnf": lambda rec, args, result: _matrix_stats(rec, result),
    "intlinalg:kernel_basis": lambda rec, args, result: _matrix_stats(rec, result),
    "hypergraph:associated_complex": _closure_counter,
    "hypergraph:product_boxtimes": _product_counter,
    "homology:boundary_matrix": _boundary_counter,
    "homology:embedded_homology": _embedded_counter,
    "kunneth:kunneth_check": _ledger_counter,
    "kunneth:field_kunneth_check": _ledger_counter,
    "kunneth:restricted_chainmap_check": _chainmap_counter,
    "kunneth:ez_map": _maps_counter("ez"),
    "kunneth:aw_map": _maps_counter("aw"),
}


# ------------------------------------------------------------- installing


def _wrap(rec: Recorder, layer: str, fn, counter=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = rec.span(layer, fn, *args, **kwargs)
        if counter is not None:
            rec.span("trace.counters", counter, rec, args, result)
        return result

    return traced


_DESCRIPTORS = (staticmethod, classmethod, property, functools.cached_property)


def _trace_parse_args(rec: Recorder):
    """cli.main parses argv with the parser _build_parser returns."""

    def counter(rec_, args, parser):
        parser.parse_args = _wrap(rec, "cli.parse", parser.parse_args)

    return counter


def install(rec: Recorder, package: str = "hyperhom") -> None:
    """Wrap every name in LAYERS; names that do not resolve are absent."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    }
    for layer, targets in LAYERS.items():
        for target in targets:
            mod_name, _, attr = target.partition(":")
            owner = modules.get(f"{package}.{mod_name}")
            counter = COUNTERS.get(target)
            if target == "cli:_build_parser":
                counter = _trace_parse_args(rec)
            try:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    fn = cls.__dict__[meth]
                    # only plain methods bind like the wrapper does
                    if not callable(fn) or isinstance(fn, _DESCRIPTORS):
                        raise KeyError(meth)
                    setattr(cls, meth, _wrap(rec, layer, fn, counter))
                    continue
                fn = getattr(owner, attr)
            except (AttributeError, KeyError):
                rec.absent.append(target)
                continue
            traced = _wrap(rec, layer, fn, counter)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, traced)


# ---------------------------------------------------------------- metrics


def self_times(rec: Recorder) -> tuple[dict[str, float], dict[str, int]]:
    """Per layer: self time, and calls not nested in the same layer."""
    spans = rec.spans
    child = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (layer, start, end, parent) in enumerate(spans):
        self_s[layer] = self_s.get(layer, 0.0) + (end - start - child[i])
        p = parent
        while p >= 0 and spans[p][0] != layer:
            p = spans[p][3]
        if p < 0:
            calls[layer] = calls.get(layer, 0) + 1
    return self_s, calls


def _absent_layers(rec: Recorder) -> set[str]:
    """Layers none of whose names resolve any more."""
    return {
        layer
        for layer, targets in LAYERS.items()
        if targets and all(t in rec.absent for t in targets)
    }


def layer_metrics(rec: Recorder, wall_s: float) -> tuple[dict[str, float], list[str]]:
    """Named per-layer metrics of one round and the names marked absent.

    ``trace.leftover_s`` is traced wall time not covered by any span:
    the loop between operations.
    """
    self_s, calls = self_times(rec)
    counts = rec.counts
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.s"] = self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out["intlinalg.solver.s"] += out.pop("intlinalg.solve.s")
    out["intlinalg.solver.solves"] = out.pop("intlinalg.solve.calls")
    for key in (
        "hypergraph.closure.simplices",
        "hypergraph.product.edges",
        "homology.boundary.nnz",
        "intlinalg.nnz",
        "intlinalg.cells",
        "intlinalg.max_bits",
        "kunneth.chainmap.columns",
        "kunneth.maps.ez_calls",
        "kunneth.maps.aw_calls",
    ):
        out[key] = counts.get(key, 0)
    for layer in ("homology.embedded", "kunneth.ledger"):
        n = calls.get(layer, 0)
        out[f"{layer}.distinct_ratio"] = counts.get(f"{layer}.distinct", 0) / n if n else 0.0
    out["bench.own_s"] = out.pop("bench.op.s")
    out["trace.leftover_s"] = wall_s - sum(self_s.values())
    absent = _absent_layers(rec)
    missing = sorted(k for k in out if k.rsplit(".", 1)[0] in absent)
    if "intlinalg.solve" in absent:
        missing.append("intlinalg.solver.solves")
    return out, missing
