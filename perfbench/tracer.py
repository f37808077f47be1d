"""Outside-in layer trace for the benchmark.

Wraps the public entry points of each ctlab layer, in the module that
defines them and in every ctlab module that imported them with
``from .x import y``, so the program itself is unchanged.  Each call
records a span (layer, start, end, parent) in memory; a layer's self time
is the sum over its spans of the span's duration minus its child spans.
``pmul`` and ``pinv`` get count-only wrappers: a span per call would cost
more than the call.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from collections import Counter
from time import perf_counter

# layer -> (module, entry points); "Class.method" names patch the class.
SPANS = {
    "permgroup.chain": ("ctlab.permgroup", ["StabilizerChain.__init__"]),
    "permgroup.classes": ("ctlab.permgroup", ["PermGroup.conjugacy_classes"]),
    "permgroup.elements": ("ctlab.permgroup", ["PermGroup.elements"]),
    "permgroup.quotient": ("ctlab.permgroup", ["PermGroup.quotient"]),
    "homs.hom": ("ctlab.homs", [
        "GroupHom.__init__", "GroupHom.image", "GroupHom.image_group",
        "GroupHom.kernel", "GroupHom.then"]),
    "forge.construct": ("ctlab.forge", [
        "trivial_group", "cyclic", "elem_abelian", "dihedral", "quaternion",
        "extraspecial", "mat_group", "sl2", "psl2", "matrix_to_vector_perm",
        "semidirect", "semidirect_cyclic", "wreath", "kk_embedding",
        "central_product_power", "cyclic_extension_exists",
        "cyclic_extension_build", "cyclic_extension_exists_check"]),
    "builders.build": ("ctlab.builders", [
        "regular_module_matrices", "builder_plength", "ibr_action_permutation",
        "builder_nonsolvable", "stabilizer_inequality", "builder_unique_lift"]),
    "chartab.table": ("ctlab.chartab", [
        "character_table", "direct_product_table"]),
    "cyclo.lift": ("ctlab.cyclo", ["dixon_lift"]),
    "modrep.fong_swan": ("ctlab.modrep", ["ibr_fong_swan"]),
    "modrep.brauer": ("ctlab.modrep", [
        "brauer_data", "brauer_data_without_table", "brauer_data_for_product",
        "block_partition", "decomposition_matrix", "ibr_over_central",
        "fong_block", "lifts_of", "nilpotency_refute", "brauer_kernel_trivial",
        "brauer_induce"]),
    "gagola.step": ("ctlab.gagola", ["gagola_step"]),
    "gagola.certificate": ("ctlab.gagola", ["_verify_certificate"]),
    "centraltype.report": ("ctlab.centraltype", [
        "is_central_type", "is_p_central_type", "fully_ramified_search",
        "central_type_report", "humphreys_equal_degree",
        "over_count_vs_quotient"]),
    "grammar.spec": ("ctlab.grammar", ["parse_spec", "evaluate"]),
    "reports.json": ("ctlab.reports", [
        "canonical_json", "group_summary", "table_report", "block_report",
        "report_envelope"]),
}

# Per-layer metrics beyond self time, in report order, with their units.
COUNTERS = {
    "perms.pmul_calls": "count",
    "perms.pinv_calls": "count",
    "perms.points": "points",
    "permgroup.chains": "count",
    "permgroup.max_degree": "points",
    "permgroup.elements": "count",
    "homs.homs": "count",
    "forge.max_degree": "points",
    "chartab.tables": "count",
    "chartab.class_total": "count",
    "cyclo.lift_calls": "count",
    "modrep.ibr_total": "count",
    "gagola.steps": "count",
}


def _degree(result):
    group = getattr(result, "group", result)
    return getattr(group, "degree", 0)


class Tracer:
    def __init__(self):
        self.spans = []          # [layer, start, end, parent index]
        self._stack = []
        self.counts = Counter()
        self._patches = []       # (owner, attribute, original)

    # -- hooks that turn arguments or results into counters ---------------
    def _on_call(self, layer, args, kwargs, result):
        c = self.counts
        if layer == "permgroup.chain":
            c["permgroup.chains"] += 1
            degree = args[1] if len(args) > 1 else kwargs["degree"]
            c["permgroup.max_degree"] = max(c["permgroup.max_degree"], degree)
        elif layer == "forge.construct":
            c["forge.max_degree"] = max(c["forge.max_degree"], _degree(result))
        elif layer == "chartab.table":
            table = result[0] if isinstance(result, tuple) else result
            c["chartab.tables"] += 1
            c["chartab.class_total"] += len(table.classes)
        elif layer == "cyclo.lift":
            c["cyclo.lift_calls"] += 1
        elif layer == "gagola.step":
            c["gagola.steps"] += 1
        elif layer == "modrep.brauer" and hasattr(result, "ibr"):
            c["modrep.ibr_total"] += len(result.ibr)

    def _span(self, fn, layer, name):
        spans, stack, on_call = self.spans, self._stack, self._on_call
        counts = self.counts
        fresh_elements = name == "PermGroup.elements"
        new_hom = name == "GroupHom.__init__"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fresh = fresh_elements and args[0]._elements is None
            idx = len(spans)
            spans.append([layer, perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if fresh:
                counts["permgroup.elements"] += len(result)
            if new_hom:
                counts["homs.homs"] += 1
            on_call(layer, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, *rest):
            counts[key] += 1
            counts["perms.points"] += len(a)
            return fn(a, *rest)
        return wrapper

    # -- installation -------------------------------------------------------
    def _replace_everywhere(self, original, replacement):
        for mod in [m for n, m in sys.modules.items()
                    if n == "ctlab" or n.startswith("ctlab.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        import ctlab

        for info in pkgutil.iter_modules(ctlab.__path__):
            importlib.import_module(f"ctlab.{info.name}")
        for layer, (modname, names) in SPANS.items():
            mod = sys.modules[modname]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    original = vars(cls)[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._span(original, layer, name))
                else:
                    original = getattr(mod, name)
                    self._replace_everywhere(
                        original, self._span(original, layer, name))
        perms = sys.modules["ctlab.perms"]
        for name in ("pmul", "pinv"):
            original = getattr(perms, name)
            self._replace_everywhere(
                original, self._counted(original, f"perms.{name}_calls"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------
    def self_times(self):
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (layer, start, end, _), inner in zip(spans, child):
            out[layer] += end - start - inner
        return out

    def metrics(self):
        """Every per-layer metric: self time per layer, then the counters."""
        selfs = self.self_times()
        out = {f"{layer}_s": {"value": selfs[layer], "unit": "s"}
               for layer in SPANS}
        for key, unit in COUNTERS.items():
            out[key] = {"value": self.counts[key], "unit": unit}
        return out
