"""The names the benchmark harness in bench/ reaches into must exist.

`bench/tracer.py` wraps the functions listed in its WRAPPED table, and its
count hooks read attributes of what they return; `bench/child.py` drives a
command through attributes of `helpzc.cli`.  A renamed or deleted name
would only surface as a failing `--trace 1` run.  The harness files are
read here, never edited.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from helpers import sign_rows
import helpzc
from helpzc import chartables
from helpzc.chartables import cyclic_table
from helpzc.intsolve import Finite, LinSystem, solve_all
from helpzc.verify import SolverOptions, check_zc

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_exist():
    wrapped = load_tracer().WRAPPED
    assert wrapped
    for span, module_name, function, _ in wrapped:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, function, None)), (
            f"{span}: {module_name}.{function} is gone"
        )


def test_cli_names_used_by_child_exist():
    tree = ast.parse((BENCH / "child.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cli"
    }
    assert "solve_order_report" in used
    cli = importlib.import_module("helpzc.cli")
    assert sorted(name for name in used if not hasattr(cli, name)) == []


def install_tracer(monkeypatch):
    """The tracer's own wrappers and hooks, installed as Tracer.install
    does but undone after the test."""
    tracer = load_tracer()
    trace = tracer.Tracer()
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "helpzc"]
    for name, module, attr, hook in tracer.WRAPPED:
        original = getattr(sys.modules[module], attr)
        wrapper = trace._wrap(name, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    return trace


def test_count_hooks_read_real_results(monkeypatch):
    # around a real zc cyclic:6 run
    trace = install_tracer(monkeypatch)
    check_zc(cyclic_table(6), SolverOptions(shortcuts=False))
    counts = trace.counts
    # LinSystem.variables and .equalities, the elimination's .basis and
    # .inequalities, and Finite.solutions
    for name in (
        "constraints.systems",
        "constraints.vars",
        "constraints.eq_rows",
        "intsolve.lattice_dim",
        "intsolve.ineq_rows",
        "intsolve.finite",
        "intsolve.solutions",
    ):
        assert counts[name] > 0, name
    assert counts["intsolve.finite"] == counts["constraints.systems"]


def test_load_span_covers_the_lazily_imported_reader(monkeypatch):
    # load_bundle imports helpzc.bundlefile on its first call; with the
    # reader unloaded again, that import runs inside the traced load
    monkeypatch.delitem(sys.modules, "helpzc.bundlefile", raising=False)
    monkeypatch.delattr(helpzc, "bundlefile", raising=False)
    trace = install_tracer(monkeypatch)
    bundle = chartables.load_bundle(chartables.resolve_bundle_path("s3"))
    assert "helpzc.bundlefile" in sys.modules
    assert bundle.ordinary.group_order == 6
    assert [span[0] for span in trace.spans] == ["chartables.load"]
    assert trace.counts["chartables.load_calls"] == 1


def test_every_lp_records_one_span(monkeypatch):
    # a system without a norm bound is bounded by LP; every simplex_opt
    # call must record one intsolve.lp span, also when the LP layer is
    # first imported while the tracer installs or after it
    monkeypatch.delitem(sys.modules, "helpzc.simplex", raising=False)
    monkeypatch.delattr(helpzc, "simplex", raising=False)
    trace = install_tracer(monkeypatch)
    simplex = importlib.import_module("helpzc.simplex")
    calls = []
    real = simplex._feasible_tableau

    def counting(*args):
        # simplex_opt builds or reuses one tableau per call
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simplex, "_feasible_tableau", counting)
    system = LinSystem(
        ("x0", "x1", "x2", "x3"), (((1, 1, 1, 1), 3),), congruences=sign_rows(4, range(4))
    )
    result = solve_all(system)
    assert isinstance(result, Finite) and len(result.solutions) == 20
    spans = [span for span in trace.spans if span[0] == "intsolve.lp"]
    assert len(spans) == len(calls) == trace.counts["intsolve.lp_solves"] > 0
