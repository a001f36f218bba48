"""Per-layer tracing for the benchmark's traced passes.

install() replaces each public entry point of domprod's modules with a
timing wrapper, in every domprod namespace that imported it by name
(for example domprod.cli.gamma_exact and domprod.theorems.is_dominating)
and in module-level dicts that hold it (cli's checker table).  The hot
helpers, iter_bits and the Graph methods, stay unwrapped.  Spans are kept
in memory; a layer's self time is its span's duration minus that of the
spans it caused.  uninstall() puts every original back.
"""

from __future__ import annotations

import sys
from time import perf_counter

# layer -> (module, {entry point: category}); "Class.method" names a method
TARGETS = {
    "cli": ("domprod.cli", {
        "main": "main",
        "ResultCache.get": "cache_get",
        "ResultCache.put": "cache_put",
    }),
    "graphs": ("domprod.graphs", {
        "Descriptor.build": "build",
        "unitary_cayley": "build",
        "product_spec_graph": "build",
        "multipartite": "build",
        "complete_graph": "build",
        "direct_product": "build",
        "disjoint_union": "build",
    }),
    "solvers": ("domprod.solvers", {
        "gamma_exact": "solve",
        "gamma_total_exact": "solve",
        "gamma_upper_exact": "solve",
        "bipartition": "bipartition",
        "is_dominating": "check",
        "is_total_dominating": "check",
        "is_minimal_dominating": "check",
        "classify": "check",
        "shrink_to_minimal": "check",
    }),
    "theorems": ("domprod.theorems", {
        "mt_witness": "certificate",
        "m_family_witness": "certificate",
        "consecutive_residue_set": "construct",
        "diagonal_set": "construct",
        "t_plus_two_set": "construct",
        "cube_corner_set": "construct",
        "partite_column_set": "construct",
        "gamma_bounds": "bounds",
        "ucg_gamma_bounds": "bounds",
        "upper_bounds": "bounds",
        "complete_product_gamma": "bounds",
        "small_first_factor_lower": "bounds",
        "repeated_factor_lower": "bounds",
        "squarefree_gamma_value": "bounds",
        "ucg_is_dominating": "ucg_check",
        "ucg_is_total_dominating": "ucg_check",
    }),
    "numbertheory": ("domprod.numbertheory", {
        "jacobsthal_run": "jacobsthal",
        "jacobsthal": "jacobsthal",
        "factorize": "arith",
        "radical": "arith",
        "omega": "arith",
        "euler_phi": "arith",
        "is_prime": "arith",
        "crt_solve": "arith",
    }),
}

# metric name -> (layer, category): summed self time of those spans
SELF_TIMES = {
    "solvers.solve_s": ("solvers", "solve"),
    "solvers.bipartition_s": ("solvers", "bipartition"),
    "solvers.check_s": ("solvers", "check"),
    "graphs.build_s": ("graphs", "build"),
    "cli.self_s": ("cli", "main"),
    "cli.cache_get_s": ("cli", "cache_get"),
    "cli.cache_put_s": ("cli", "cache_put"),
    "theorems.certificate_s": ("theorems", "certificate"),
    "theorems.construct_s": ("theorems", "construct"),
    "theorems.bounds_s": ("theorems", "bounds"),
    "theorems.ucg_check_s": ("theorems", "ucg_check"),
    "numbertheory.jacobsthal_s": ("numbertheory", "jacobsthal"),
    "numbertheory.arith_s": ("numbertheory", "arith"),
}

UNITS = {name: "s" for name in SELF_TIMES} | {
    "solvers.nodes": "count",
    "solvers.node_rate": "1/s",
    "solvers.optimal_frac": "ratio",
    "graphs.vertices": "count",
    "graphs.adj_bytes": "bytes",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    "cli.cache_hit_ratio": "ratio",
    "cli.cache_bytes": "bytes",
    "numbertheory.jacobsthal_calls": "count",
}


def _summary(category: str, out):
    """The part of a result the metrics need; results are not kept."""
    if category == "solve":
        return out.nodes, out.optimal
    if category == "build":
        return out.n
    if category == "cache_get":
        return out is not None
    return None


class Tracer:
    def __init__(self):
        # span: [layer, category, parent index or -1, start, end, summary]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, layer: str, category: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [layer, category, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            span[5] = _summary(category, out)
            return out

        return traced

    def install(self) -> None:
        namespaces = [
            vars(mod) for name, mod in list(sys.modules.items())
            if name == "domprod" or name.startswith("domprod.")
        ]
        for layer, (modname, entries) in TARGETS.items():
            for dotted, category in entries.items():
                owner = sys.modules[modname]
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr, None)
                if original is None:
                    print(f"trace: {modname}.{dotted} not found", file=sys.stderr)
                    continue
                wrapper = self._wrap(layer, category, original)
                if path:
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            self._undo.append((ns, key, original))
                            ns[key] = wrapper
                        elif isinstance(value, dict) and key != "__builtins__":
                            for k, v in list(value.items()):
                                if v is original:
                                    self._undo.append((value, k, original))
                                    value[k] = wrapper

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def metrics(self, cache_bytes: int) -> dict[str, float]:
        """Per-layer numbers for the spans of one pass."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, category, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[tuple[str, str], float] = {}
        for i, (layer, category, _, start, end, _) in enumerate(spans):
            key = (layer, category)
            self_time[key] = self_time.get(key, 0.0) + (end - start) - child[i]

        def outermost(layer, category):
            for layer_, category_, parent, _, _, summary in spans:
                if (layer_, category_) != (layer, category):
                    continue
                if parent >= 0 and spans[parent][:2] == [layer, category]:
                    continue
                yield summary

        out = {name: self_time.get(key, 0.0) for name, key in SELF_TIMES.items()}
        solves = [s[5] for s in spans if s[:2] == ["solvers", "solve"] and s[5] is not None]
        nodes = sum(n for n, _ in solves)
        out["solvers.nodes"] = nodes
        out["solvers.node_rate"] = nodes / out["solvers.solve_s"] if out["solvers.solve_s"] else 0.0
        out["solvers.optimal_frac"] = (
            sum(1 for _, optimal in solves if optimal) / len(solves) if solves else 0.0
        )
        sizes = [n for n in outermost("graphs", "build") if n is not None]
        out["graphs.vertices"] = sum(sizes)
        out["graphs.adj_bytes"] = sum(n * n // 8 for n in sizes)  # computed, not measured
        gets = [s[5] for s in spans if s[:2] == ["cli", "cache_get"] and s[5] is not None]
        out["cli.cache_hits"] = sum(gets)
        out["cli.cache_misses"] = len(gets) - sum(gets)
        out["cli.cache_hit_ratio"] = sum(gets) / len(gets) if gets else 0.0
        out["cli.cache_bytes"] = cache_bytes
        out["numbertheory.jacobsthal_calls"] = sum(1 for _ in outermost("numbertheory", "jacobsthal"))
        return out
