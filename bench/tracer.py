"""Spans and counts around the public functions of each helpzc layer.

The program is not edited: `Tracer.install` replaces each listed function by
a wrapper in every loaded helpzc module that holds it, so a call through any
import site (`helpzc.verify.build_system` as well as
`helpzc.constraints.build_system`) and any call inside the defining module
is recorded.  A span is (name, start, end, parent index); spans nest
strictly because the program is single-threaded.

A layer's self time is the summed duration of its spans minus the part of
each span covered by its child spans.  The per-layer metric for span name
`layer.part` is `layer.part_s`, its self time, except for the redundancy
sweep: almost all its time is spent in its own LPs, so `intsolve.redund_s`
includes them (they count in `intsolve.lp_s` as well).
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import wraps
from time import perf_counter


def _count_load(counts, args, result, parent):
    counts["chartables.load_calls"] += 1


def _count_system(counts, args, system, parent):
    counts["constraints.systems"] += 1
    counts["constraints.eq_rows"] += len(system.equalities)
    counts["constraints.vars"] += len(system.variables)


def _count_elim(counts, args, par, parent):
    if par is not None:
        counts["intsolve.lattice_dim"] += len(par.basis)
        counts["intsolve.ineq_rows"] += len(par.inequalities)


def _count_redund(counts, args, rows, parent):
    counts["intsolve.redund_calls"] += 1
    counts["intsolve.redund_rows_in"] += len(args[0])
    counts["intsolve.redund_rows_out"] += len(rows)


def _count_lp(counts, args, result, parent):
    counts["intsolve.lp_solves"] += 1
    if parent == "intsolve.redund":
        counts["intsolve.lp_solves_redund"] += 1


def _count_solve(counts, args, result, parent):
    kind = type(result).__name__.lower()  # finite, infinite or aborted
    counts[f"intsolve.{kind}"] += 1
    counts["intsolve.solutions"] += len(getattr(result, "solutions", ()))


def _count_wagner(counts, args, passed, parent):
    counts["wagner.tests"] += 1
    counts["wagner.rejections"] += not passed


# (span name, defining module, function, count hook or None)
WRAPPED = (
    ("chartables.load", "helpzc.chartables", "load_bundle", _count_load),
    ("chartables.load", "helpzc.chartables", "cyclic_table", _count_load),
    ("constraints.assembly", "helpzc.constraints", "char_rows", None),
    ("constraints.assembly", "helpzc.constraints", "build_system", _count_system),
    ("constraints.assembly", "helpzc.constraints", "build_system_p_constant", _count_system),
    ("intsolve.elim", "helpzc.intsolve", "diophantine_eliminate", _count_elim),
    ("intsolve.redund", "helpzc.intsolve", "remove_redundant", _count_redund),
    ("intsolve.lp", "helpzc.intsolve", "simplex_opt", _count_lp),
    ("intsolve.search", "helpzc.intsolve", "solve_all", _count_solve),
    ("wagner.test", "helpzc.wagner", "wagner_test", _count_wagner),
    ("verify.driver", "helpzc.verify", "check_zc", None),
    ("verify.driver", "helpzc.verify", "check_pq", None),
    ("verify.driver", "helpzc.verify", "solve_order", None),
    ("verify.driver", "helpzc.verify", "solve_order_report", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in WRAPPED))

# every count a traced command reports, zero when nothing was counted
COUNT_NAMES = (
    "chartables.load_calls",
    "constraints.systems",
    "constraints.eq_rows",
    "constraints.vars",
    "intsolve.lattice_dim",
    "intsolve.ineq_rows",
    "intsolve.lp_solves",
    "intsolve.lp_solves_redund",
    "intsolve.redund_calls",
    "intsolve.redund_rows_in",
    "intsolve.redund_rows_out",
    "intsolve.solutions",
    "intsolve.finite",
    "intsolve.infinite",
    "intsolve.aborted",
    "wagner.tests",
    "wagner.rejections",
    "verify.orders",
    "verify.obstructed",
)


class Tracer:
    """Records spans and counts in memory; `install` once per process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result, spans[parent][0] if parent >= 0 else None)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every helpzc module attribute bound to a listed function."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "helpzc"]
        for name, module, attr, hook in WRAPPED:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def self_times(spans) -> dict[str, float]:
    """Span name -> summed self time: duration minus child coverage.

    Children of one span never overlap (single thread, strict nesting), so
    their coverage of the parent is the sum of their durations.
    """
    out = dict.fromkeys(SPAN_NAMES, 0.0)
    for name, start, end, parent in spans:
        out[name] += end - start
        if parent >= 0:
            out[spans[parent][0]] -= end - start
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced command: `<span>_s` times plus every
    count in COUNT_NAMES."""
    metrics = {f"{name}_s": t for name, t in self_times(spans).items()}
    # sweeps never nest, so their durations add without overlap
    metrics["intsolve.redund_s"] = sum(
        end - start for name, start, end, _ in spans if name == "intsolve.redund"
    )
    metrics.update((name, counts.get(name, 0)) for name in COUNT_NAMES)
    return metrics
