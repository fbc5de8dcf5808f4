"""Spans around the public functions of each homok layer, installed from
outside the package.

A function is patched under every name a caller looks it up by: ``from
.snf import cokernel_invariants`` copies the binding into ``homok.cocyclic``,
so each loaded ``homok`` module is searched for the original object.
Methods are patched on their class. Every patch is undone by ``remove``.

Each span records (function, start, end, parent span). A function's self
time is the sum of its spans minus the time of their direct child spans.
Counts are computed from arguments and results, so they repeat exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (layer, attribute path in homok.<layer>, metric name)
TRACED = (
    ("cli", "main", "main"),
    ("cli", "build_parser", "build_parser"),
    ("cli", "cmd_sk1", "cmd_sk1"),
    ("cli", "cmd_hmg", "cmd_hmg"),
    ("cli", "cmd_gd", "cmd_gd"),
    ("cli", "cmd_transfer", "cmd_transfer"),
    ("cli", "ResultCache.get", "cache_get"),
    ("cli", "ResultCache.put", "cache_put"),
    ("groups", "parse_group_spec", "parse_group_spec"),
    ("groups", "Group.__init__", "Group"),
    ("groups", "cyclic_subgroups", "cyclic_subgroups"),
    ("groups", "generated_record_index", "generated_record_index"),
    ("groups", "sylow_decompose", "sylow_decompose"),
    ("groups", "invariant_factors_from_orders", "invariant_factors_from_orders"),
    ("orders", "higher_order", "higher_order"),
    ("bracket", "graded_presentation", "graded_presentation"),
    ("bracket", "hom_invariants", "hom_invariants"),
    ("bracket", "project_element", "project_element"),
    ("cocyclic", "cocyclic_subgroups", "cocyclic_subgroups"),
    ("cocyclic", "sk1_invariants", "sk1_invariants"),
    ("snf", "cokernel_invariants", "cokernel_invariants"),
    ("snf", "subgroup_invariants", "subgroup_invariants"),
    ("snf", "smith_diagonal", "smith_diagonal"),
    ("snf", "subgroup_basis", "subgroup_basis"),
    ("snf", "invert_unimodular", "invert_unimodular"),
    ("functions", "is_homogeneous", "is_homogeneous"),
    ("transfer", "induced_graded_map", "induced_graded_map"),
    ("transfer", "transfer_apply", "transfer_apply"),
)

# metric name -> (unit, better)
COUNTS = {
    "groups.elements_scanned": ("count", "lower"),
    "cocyclic.char_pairs": ("count", "lower"),
    "cocyclic.kernels": ("count", "lower"),
    "snf.rows_in": ("count", "lower"),
    "snf.max_q": ("count", "lower"),
    "cli.cache_get.hits": ("count", "higher"),
    "cli.cache_hit_ratio": ("ratio", "higher"),
}


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    out = {}
    for layer, _, name in TRACED:
        out[f"{layer}.{name}.calls"] = ("count", "lower")
        out[f"{layer}.{name}.self_s"] = ("s", "lower")
    out.update(COUNTS)
    out["trace.overhead_s"] = ("s", "lower")
    out["failed_frac"] = ("ratio", "lower")
    return out


def _scan(counts, seen, args, result):
    group = args[0]
    if ("scan", group) not in seen:
        seen.add(("scan", group))
        counts["groups.elements_scanned"] += group.order


def _characters(counts, seen, args, result):
    group = args[0]
    if ("coc", group) not in seen:
        seen.add(("coc", group))
        counts["cocyclic.char_pairs"] += group.order**2
        counts["cocyclic.kernels"] += len(result)


def _lattice(counts, seen, args, result):
    rows, moduli = args[0], args[1]
    counts["snf.rows_in"] += len(rows)
    counts["snf.max_q"] = max(counts["snf.max_q"], len(moduli))


def _cache_get(counts, seen, args, result):
    counts["cli.cache_get.hits"] += result is not None


HOOKS = {
    "groups.cyclic_subgroups": (_scan, ("groups.elements_scanned",)),
    "groups.generated_record_index": (_scan, ("groups.elements_scanned",)),
    "cocyclic.cocyclic_subgroups": (_characters, ("cocyclic.char_pairs", "cocyclic.kernels")),
    "snf.cokernel_invariants": (_lattice, ("snf.rows_in", "snf.max_q")),
    "snf.subgroup_invariants": (_lattice, ("snf.rows_in", "snf.max_q")),
    "snf.subgroup_basis": (_lattice, ("snf.rows_in", "snf.max_q")),
    "cli.cache_get": (_cache_get, ("cli.cache_get.hits",)),
}


class Tracer:
    """Spans and counts of one pass."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []
        self._seen: set = set()
        self.counts: dict[str, int] = {}

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        hook, keys = HOOKS.get(name, (None, ()))
        for key in keys:
            self.counts.setdefault(key, 0)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span] = (idx, start, end, parent)
            if hook is not None:
                hook(self.counts, self._seen, args, result)
            return result

        return traced

    def install(self) -> None:
        loaded = [
            m for n, m in list(sys.modules.items()) if n == "homok" or n.startswith("homok.")
        ]
        for layer, path, metric in TRACED:
            name = f"{layer}.{metric}"
            module = importlib.import_module(f"homok.{layer}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            traced = self._wrap(name, original)
            for obj in [owner] if owner_name else loaded:
                for key, value in list(vars(obj).items()):
                    if value is original:
                        self._patches.append((obj, key, original))
                        setattr(obj, key, traced)

    def remove(self) -> None:
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    def summary(self) -> dict[str, float]:
        """Per-function calls and self time, plus the counts. Functions the
        code under test no longer has, and counts taken only inside them,
        are left out."""
        total = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        child = [0.0] * len(self.spans)
        for idx, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for span, (idx, start, end, _) in enumerate(self.spans):
            total[idx] += end - start - child[span]
            calls[idx] += 1
        out: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.self_s"] = total[idx]
        out.update(self.counts)
        gets = out.get("cli.cache_get.calls")
        if gets:
            out["cli.cache_hit_ratio"] = self.counts["cli.cache_get.hits"] / gets
        return out
