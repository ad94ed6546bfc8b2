"""Per-layer tracing from outside the program.

Each layer is a set of public functions of one ``spectra_forge`` module.
The tracer replaces every binding of those functions, in every
``spectra_forge`` module namespace, with a wrapper that records a span
(layer, start, end, parent, counts).  Spans stay in memory; ``aggregate``
turns them into per-layer calls, self time and the extra counts when the
run ends.  A listed name that does not exist at some commit is skipped,
so its layer reports zeros.
"""

from __future__ import annotations

import fnmatch
import functools
import sys
import time

# layer -> (home module, public names); "Class.method" names a staticmethod,
# a trailing "*" matches every public function with that prefix.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "algebra.groups": ("algebra", (
        "make_group", "cyclic", "direct_product", "dihedral", "dicyclic",
        "symmetric", "group_from_table")),
    "finring.rings": ("finring", (
        "parse_ring", "artin_product", "additive_group", "units", "power_residues")),
    "algebra.characters": ("algebra", (
        "character_sums_over", "character_exponents", "character_value_table",
        "characters", "character_sum")),
    "algebra.subsets": ("algebra", (
        "subset", "subset_predicates", "gcd_class", "is_union_of_gcd_classes",
        "boolean_algebra_member")),
    "graphs.build": ("graphs", ("cayley", "mirror_dicayley", "structure_report")),
    "products.build": ("products", ("named_product", "neps")),
    "spectra.character_route": ("spectra", ("spectrum_exact_abelian",)),
    "spectra.dense": ("spectra", ("spectrum_dense_symmetric", "jacobi_eigenvalues")),
    "spectra.merge": ("spectra", ("Spectrum.from_pairs", "Spectrum.from_values")),
    "spectra.compare": ("spectra", ("isospectral", "classify")),
    "spectra.formulas": ("spectra", (
        "mdcg_spectrum_formula", "product_spectrum_formula",
        "local_ring_unitary_spectrum", "mdcg_local_ring_spectrum", "moments",
        "moment_check")),
    "theorems.report": ("theorems", (
        "check_*", "run_suite", "build_even_odd_pair", "iterated_pairs",
        "mdcg_direct_spectrum", "base_spectrum", "spectrum_of")),
    "cli.io": ("cli", ("main",)),
}

GROUP_ORDER_SPLIT = 512   # exhaustive associativity check up to this order

LAYER_UNITS = {"calls": "count", "self_s": "s", "le512_s": "s", "gt512_s": "s",
               "distinct_per_build": "ratio", "cells": "cells", "vertices": "count",
               "ops_computed": "ops", "values_per_entry": "ratio", "reports": "count"}
RUN_UNITS = {"traced_wall_s": "s", "untraced_s": "s", "trace_overhead_s": "s"}


def _graph_n(obj) -> int:
    n = getattr(obj, "n", None)
    if n is None:
        shape = getattr(obj, "shape", None)
        n = shape[0] if shape else 0
    return int(n)


def _report_count(result) -> int:
    if isinstance(result, (list, tuple)):
        return len(result)
    if hasattr(result, "reports"):
        return len(result.reports)
    return 1 if hasattr(result, "claim_id") else 0


# per-layer span annotations, computed from the arguments and result after
# the span has closed (so their cost lands in the parent's self time)
def _note_groups(args, kwargs, result):
    return (int(result.order), result.label) if hasattr(result, "order") else None


def _note_graphs(args, kwargs, result):
    graph = result if hasattr(result, "adjacency") else (args[0] if args else None)
    return _graph_n(graph) ** 2 if graph is not None else 0


def _note_dense(args, kwargs, result):
    return _graph_n(args[0]) if args else 0


def _note_compare(args, kwargs, result):
    if len(args) >= 2 and hasattr(args[1], "entries"):    # isospectral(s1, s2)
        s1, s2 = args[0], args[1]
        return (s1.size + s2.size, len(s1.entries) + len(s2.entries))
    return None


def _note_reports(args, kwargs, result):
    return _report_count(result)


NOTES = {
    "algebra.groups": _note_groups,
    "graphs.build": _note_graphs,
    "spectra.dense": _note_dense,
    "spectra.compare": _note_compare,
    "theorems.report": _note_reports,
}


def _package_modules(package: str) -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def _resolve(module, name: str):
    """Return [(owner, attribute, function, is_static)] for one listed name."""
    if "." in name:
        cls_name, meth = name.split(".", 1)
        cls = getattr(module, cls_name, None)
        raw = getattr(cls, "__dict__", {}).get(meth) if cls is not None else None
        if isinstance(raw, staticmethod):
            return [(cls, meth, raw.__func__, True)]
        return []
    names = [name]
    if name.endswith("*"):
        names = sorted(n for n, v in vars(module).items()
                       if fnmatch.fnmatch(n, name) and callable(v)
                       and getattr(v, "__module__", None) == module.__name__)
    found = []
    for n in names:
        fn = getattr(module, n, None)
        if callable(fn):
            found.append((module, n, fn, False))
    return found


class Tracer:
    """Records spans for the layer functions while ``active`` is true."""

    def __init__(self, package: str = "spectra_forge"):
        self.package = package
        self.layers = list(LAYERS)
        self.spans: list = []        # (layer index, start, end, parent, note)
        self.stack: list[int] = []
        self.active = False
        self.wrapped: dict[str, list[str]] = {layer: [] for layer in self.layers}

    def install(self) -> None:
        """Wrap every listed function wherever a package module binds it."""
        import importlib

        for idx, layer in enumerate(self.layers):
            home, names = LAYERS[layer]
            try:
                module = importlib.import_module(f"{self.package}.{home}")
            except ImportError:
                continue
            for name in names:
                for owner, attr, fn, static in _resolve(module, name):
                    wrapper = self._wrap(idx, fn, NOTES.get(layer))
                    if static:
                        setattr(owner, attr, staticmethod(wrapper))
                    else:
                        for mod in _package_modules(self.package):
                            for key, value in list(vars(mod).items()):
                                if value is fn:
                                    setattr(mod, key, wrapper)
                    self.wrapped[layer].append(f"{home}.{attr}")

    def _wrap(self, layer_idx: int, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer_idx, start, end, parent,
                              note(args, kwargs, result) if note and result is not None
                              else None)

        return wrapper

    def aggregate(self, first: int = 0, last: int | None = None) -> dict:
        return aggregate(self.layers, self.spans[first:last], offset=first)


def self_times(spans, offset: int = 0) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``spans`` are (layer, start, end, parent, ...) tuples in start order;
    ``parent`` indexes the full span list, ``offset`` is the index of
    ``spans[0]`` in it, and a parent outside the slice counts as none.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        p = s[3] - offset
        if 0 <= p < len(spans):
            own[p] -= s[2] - s[1]
    return own


def aggregate(layers: list[str], spans, offset: int = 0) -> dict:
    """Per-layer calls, self time, extra counts, and the top-level time."""
    out = {name: {"calls": 0, "self_s": 0.0} for name in layers}
    out["algebra.groups"].update(le512_s=0.0, gt512_s=0.0)
    out["graphs.build"]["cells"] = 0
    out["spectra.dense"].update(vertices=0, ops_computed=0)
    out["theorems.report"]["reports"] = 0
    builds, labels, values, entries = 0, set(), 0, 0
    top_level_s = 0.0
    for s, own in zip(spans, self_times(spans, offset)):
        layer_i, start, end, parent, note = s
        name = layers[layer_i]
        p = parent - offset
        parent_layer = spans[p][0] if 0 <= p < len(spans) else None
        outermost = parent_layer != layer_i
        layer = out[name]
        layer["calls"] += 1
        layer["self_s"] += own
        if parent_layer is None:
            top_level_s += end - start
        if name == "algebra.groups":
            order = note[0] if note else 0
            layer["le512_s" if order <= GROUP_ORDER_SPLIT else "gt512_s"] += own
            if outermost:
                builds += 1
                labels.update([note[1]] if note else [])
        elif name == "graphs.build":
            layer["cells"] += note or 0
        elif name == "spectra.dense" and outermost:
            layer["vertices"] += note or 0
            layer["ops_computed"] += (note or 0) ** 3
        elif name == "spectra.compare" and note:
            values += note[0]
            entries += note[1]
        elif name == "theorems.report" and outermost:
            layer["reports"] += note or 0
    out["algebra.groups"]["distinct_per_build"] = len(labels) / builds if builds else 0.0
    out["spectra.compare"]["values_per_entry"] = values / entries if entries else 0.0
    return {"layers": out, "top_level_s": top_level_s}


def flatten(layers: dict) -> dict:
    """``{"layer": {"key": v}}`` to ``{"layer.key": v}``."""
    return {f"{layer}.{key}": value for layer, values in layers.items()
            for key, value in values.items()}


def metric_units() -> dict:
    """Unit of every per-layer metric a traced run reports, in report order."""
    names = flatten(aggregate(list(LAYERS), [])["layers"])
    units = {name: LAYER_UNITS[name.rsplit(".", 1)[1]] for name in names}
    units.update(RUN_UNITS)
    return units
