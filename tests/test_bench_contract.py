"""The names the benchmark harness in bench/ reaches into must exist.

`bench/tracer.py` wraps the functions listed in its WRAPPED table and
`bench/child.py` drives a command through attributes of `helpzc.cli`; a
renamed or deleted name would only surface as a failing `--trace 1` run.
The harness files are read here, never edited.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

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
