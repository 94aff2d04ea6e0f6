"""A command loads only the parts of helpzc, and of the standard library,
that it runs.

`chartables.load_bundle` imports the JSON bundle reader (`helpzc.bundlefile`)
on its first call, and the first LP imports the LP layer (`helpzc.simplex`),
so a command over a generated table, or over systems that all carry a norm
bound, never compiles either.  `cli` imports the store codec
(`helpzc.storefile`) only to read or write a store, a `--json-out` payload
or a `--tuple` file.  `helpzc`, `helpzc.cli` and `helpzc.intsolve` still
resolve the names that moved into these modules.  Table
values are cyclotomic integers, loaded and checked in integer arithmetic,
so `fractions` (and with it `decimal`) is imported only by
`intsolve.simplex_opt`, for an LP.  The command line is read by `cli`'s own
table-driven parser, so no command, help or usage error imports `argparse`
(nor, with it, `gettext` and `locale`), and only help or a usage error
imports the text of either (`helpzc.usage`).  Each case runs in a fresh
interpreter, since this test session has imported all of these modules
already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
LAZY = {"helpzc.bundlefile", "helpzc.simplex", "helpzc.storefile", "helpzc.usage"}
# what a solve over a generated table compiles: the solver and the CLI
SOLVER = {"helpzc"} | {
    f"helpzc.{name}"
    for name in (
        "arith", "records", "cyclotomics", "chartables", "intsolve",
        "constraints", "wagner", "verify", "cli",
    )
}

RATIONALS = {"fractions", "decimal"}
ARGPARSE = {"argparse", "gettext", "locale"}

REPORT = f"""
import json, sys
print(json.dumps(sorted(
    m for m in sys.modules if m.startswith("helpzc") or m in {sorted(RATIONALS | ARGPARSE)!r}
)))
"""


def loaded_after(code: str) -> set[str]:
    """The helpzc modules, and those of RATIONALS and ARGPARSE, that a fresh
    interpreter holds after `code`, run with src/ and tests/ on the path."""
    path = os.pathsep.join(
        filter(None, (str(SRC), str(TESTS), os.environ.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def helpzc_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m.split(".")[0] == "helpzc"}


def test_cyclic_command_loads_neither_reader_nor_simplex():
    loaded = loaded_after(
        "from helpzc import cli\n"
        "assert cli.main(['zc', '--no-shortcuts', 'cyclic:12']) == 0\n"
    )
    assert helpzc_modules(loaded) == SOLVER
    assert loaded & LAZY == set()


@pytest.mark.parametrize(
    "argv", [["zc", "m11"], ["pq", "m11"], ["order", "12", "m11"]], ids=" ".join
)
def test_bundle_solve_adds_the_reader_only(argv):
    loaded = loaded_after(f"from helpzc import cli\nassert cli.main({argv!r}) in (0, 2)\n")
    assert helpzc_modules(loaded) == SOLVER | {"helpzc.bundlefile"}


@pytest.mark.parametrize(
    "argv, codec",
    [
        pytest.param(argv, codec, id=" ".join(argv))
        for argv, codec in (
            (["zc", "a5", "--store", "OUT"], True),
            (["zc", "a5", "--json-out", "OUT"], True),
            (["order", "12", "m11", "--json-out", "OUT"], True),
            (["wagner", "6", "m11", "--tuple", "TUPLE"], True),
            (["zc", "a5"], False),
            (["pq", "a5"], False),
            (["order", "12", "m11"], False),
            (["info", "s3"], False),
        )
    ],
)
def test_store_codec_loads_only_for_a_file(tmp_path, argv, codec):
    tup = tmp_path / "t.json"
    tup.write_text(json.dumps({"2": {"2a": 1}, "3": {"3a": 1}, "6": {"6a": 1}}))
    files = {"OUT": str(tmp_path / "out.json"), "TUPLE": str(tup)}
    argv = [files.get(a, a) for a in argv]
    loaded = loaded_after(f"from helpzc import cli\nassert cli.main({argv!r}) == 0\n")
    assert ("helpzc.storefile" in loaded) == codec


def test_moved_names_resolve_at_their_old_places():
    import helpzc
    from helpzc import bundlefile, cli, intsolve, simplex, storefile

    moved = [
        (helpzc, storefile, ("store_from_json", "store_to_json")),
        (helpzc, bundlefile, ("cyc_from_json", "cyc_to_json")),
        (
            cli,
            storefile,
            ("pa_to_json", "patuple_from_json", "patuple_to_json", "store_from_json",
             "store_to_json"),
        ),
        (
            intsolve,
            simplex,
            ("Infeasible", "Optimal", "Unbounded", "lp_bounds", "remove_redundant",
             "_scale_ray"),
        ),
    ]
    for old, new, names in moved:
        for name in names:
            assert getattr(old, name) is getattr(new, name), (old.__name__, name)
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            getattr(old, "no_such_name")
    assert all(hasattr(helpzc, name) for name in helpzc.__all__)


def test_bundle_command_loads_the_reader_only():
    loaded = loaded_after("from helpzc import cli\nassert cli.main(['zc', 's3']) == 0\n")
    assert loaded & LAZY == {"helpzc.bundlefile"}


def test_system_without_norm_bound_loads_simplex_and_matches_reference():
    loaded = loaded_after(
        """
import sys
from helpers import box_solutions, reference_simplex, sign_rows
from helpzc.intsolve import (
    Finite, LinSystem, diophantine_eliminate, simplex_opt, solve_all,
)

s = LinSystem(
    ("x0", "x1", "x2", "x3"),
    (((1, 1, 1, 1), 3), ((1, -2, 0, 1), 0)),
    congruences=sign_rows(4, range(4)),
)
assert "helpzc.simplex" not in sys.modules
assert solve_all(s) == Finite(box_solutions(s, 3))
assert "helpzc.simplex" in sys.modules
rows = diophantine_eliminate(s).inequalities
d = len(rows[0][0])
for j in range(d):
    objective = tuple(int(i == j) for i in range(d))
    for maximize in (True, False):
        got = simplex_opt(rows, objective, maximize)
        want = reference_simplex(rows, objective, maximize)
        assert type(got) is type(want)
        assert got.value == want.value
"""
    )
    assert "helpzc.simplex" in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["zc", "m11"],
        ["pq", "m11"],
        ["order", "12", "m11"],
        ["zc", "--no-shortcuts", "cyclic:12"],
        *(["info", name] for name in ("s3", "s4", "a5", "sl23", "m11")),
    ],
    ids=" ".join,
)
def test_commands_over_valid_tables_never_import_fractions(argv):
    loaded = loaded_after(f"from helpzc import cli\nassert cli.main({argv!r}) in (0, 2)\n")
    assert "helpzc.cli" in loaded
    assert loaded & RATIONALS == set()


def test_a_rational_value_is_rejected_without_importing_fractions():
    loaded = loaded_after(
        """
import json, sys
from helpzc.chartables import BundleError, load_bundle, resolve_bundle_path

data = json.loads(resolve_bundle_path("m11").read_text())
data["ordinary"]["characters"][1][1] = "2/3"
try:
    load_bundle(data)
except BundleError as exc:
    assert str(exc) == (
        "M11: bad value in characters: not a cyclotomic integer encoding: '2/3'"
    ), exc
else:
    raise AssertionError("a bundle holding 2/3 loaded")
"""
    )
    assert "helpzc.bundlefile" in loaded
    assert loaded & RATIONALS == set()


def test_no_command_loads_argparse(tmp_path):
    # each command, help and a usage error, in one interpreter, checked
    # after each
    tup = tmp_path / "t.json"
    tup.write_text(json.dumps({"2": {"2a": 1}, "3": {"3a": 1}, "6": {"6a": 1}}))
    commands = [
        ["zc", "a5"],
        ["pq", "m11"],
        ["order", "12", "m11"],
        ["info", "s3"],
        ["wagner", "6", "m11", "--tuple", str(tup)],
        ["--help"],
        ["zc", "--no", "a5"],
    ]
    loaded = loaded_after(
        f"""
import sys
from helpzc import cli

for argv in {commands!r}:
    cli.main(argv)
    held = [m for m in {sorted(ARGPARSE)!r} if m in sys.modules]
    assert not held, (argv, held)
"""
    )
    assert {"helpzc.cli", "helpzc.usage"} <= loaded
    assert loaded & ARGPARSE == set()


class _Imports(ast.NodeVisitor):
    """The enclosing function (or None at module level) of every import of
    the top-level module `name` in one module."""

    def __init__(self, name):
        self.name, self.scope, self.found = name, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node):
        if any(a.name.split(".")[0] == self.name for a in node.names):
            self.found.append(self.scope[-1] if self.scope else None)

    def visit_ImportFrom(self, node):
        if node.level == 0 and (node.module or "").split(".")[0] == self.name:
            self.found.append(self.scope[-1] if self.scope else None)


def importers(name: str) -> set[tuple[str, str | None]]:
    """(module, enclosing function) of every import of `name` in helpzc."""
    found = set()
    for path in sorted((SRC / "helpzc").glob("*.py")):
        visitor = _Imports(name)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found |= {(path.stem, scope) for scope in visitor.found}
    return found


def test_only_the_lp_imports_fractions():
    # tables and assembly are integer-only; the LP's optimum is the one
    # rational result helpzc returns
    assert importers("fractions") == {("intsolve", "simplex_opt")}


def test_no_module_imports_argparse():
    # cli parses the command line from its own tables
    assert importers("argparse") == set()
