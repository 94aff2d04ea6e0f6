"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import BUNDLE_CORRUPTIONS, corrupted_bundle
from helpzc import cli, storefile
from helpzc.bundlefile import bundle_to_json
from helpzc.chartables import CYCLIC_LIMIT, cyclic_table, resolve_bundle_path
from helpzc.cli import build_parser, main, solver_options
from helpzc.intsolve import DEFAULT_MAX_NODES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zc_a5(capsys):
    code, out, _ = run(capsys, "zc", "a5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ZC: Proved"
    assert "  order 6: 0 admissible tuples" in lines


def test_pq_shortcut_line(capsys):
    code, out, _ = run(capsys, "pq", "s4")
    assert code == 0
    assert out.splitlines()[0] == "PQ: Proved (solvable shortcut)"


def test_zc_unknown_exit_code(capsys):
    code, out, _ = run(capsys, "zc", "m11")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "ZC: Unknown"
    for k in (4, 6, 8, 11):
        assert f"  order {k}: nontrivial solutions" in lines
    # S4 is proved by computation, not by a shortcut
    code, out, _ = run(capsys, "zc", "s4")
    assert code == 0
    assert out.splitlines()[0] == "ZC: Proved"


def test_cyclic_above_the_limit_is_refused_before_any_table(capsys, monkeypatch):
    # the table of cyclic:20000 would take over 3 GB; no class of it is made
    def built(*args):
        pytest.fail("a class was built for cyclic:20000")

    monkeypatch.setattr("helpzc.chartables.ClassInfo", built)
    code, out, err = run(capsys, "zc", "cyclic:20000")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: cyclic group order 20000 is above the limit of {CYCLIC_LIMIT}:"
        " its table would hold 20000² values"
    ]


def test_order_audit_names_candidates(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code, out, _ = run(capsys, "order", "12", "m11", "--json-out", str(out_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order 12: 3 candidate tuples, 0 admissible after the congruence test"
    assert "  rejected: 2a: -1, 4a: 1, 6a: 1" in lines
    assert "  rejected: 2a: 1, 4a: 1, 6a: -1" in lines
    assert "  rejected: 2a: 1, 4a: -1, 6a: 1" in lines
    assert not any(line.startswith("  admissible:") for line in lines)
    data = json.loads(out_path.read_text())
    assert data["order"] == 12
    assert len(data["candidates"]) == 3
    assert len(data["rejected"]) == 3
    assert len(data["survivors"]) == 0


def test_order_with_no_class_builds_no_trace_block(capsys, monkeypatch):
    # 100003 is a prime not dividing |M11|, so only the identity has an
    # order dividing it: no system is built, nor any table's rows x 100003
    # trace block
    loaded = []
    resolve = cli.resolve_bundle

    def keep(name):
        loaded.append(resolve(name))
        return loaded[-1]

    monkeypatch.setattr(cli, "resolve_bundle", keep)
    code, out, _ = run(capsys, "order", "100003", "m11")
    assert code == 0
    assert out == "order 100003: 0 candidate tuples, 0 admissible after the congruence test\n"
    (bundle,) = loaded
    assert 100003 not in bundle.ordinary.trace_blocks
    assert all(100003 not in t.trace_blocks for t in bundle.brauer)


def test_store_of_an_order_with_no_class_reloads(capsys, tmp_path):
    # order 7 is solved before order 49 is found empty, so the store holds
    # every divisor of 49 and reloads
    store = tmp_path / "store.json"
    code, out, _ = run(capsys, "order", "49", "a5", "--store", str(store))
    assert code == 0
    assert out.startswith("order 49: 0 candidate tuples")
    assert json.loads(store.read_text())["solutions"] == {"7": [], "49": []}
    code, again, _ = run(capsys, "order", "49", "a5", "--store", str(store))
    assert (code, again) == (0, out)


def test_order_obstructed(capsys):
    code, out, _ = run(
        capsys, "order", "12", "cyclic:12", "--max-nodes", "1"
    )
    assert code == 2
    assert out.splitlines()[0] == "order 12: Unknown (node budget)"


def test_wagner_subcommand(capsys, tmp_path):
    cand = tmp_path / "cand.json"
    cand.write_text(
        json.dumps(
            {
                "2": {"2a": 1},
                "3": {"3a": 1},
                "4": {"4a": 1},
                "6": {"3a": 3, "6a": -2},
                "12": {"2a": 1, "4a": 1, "6a": -1},
            }
        )
    )
    code, out, _ = run(capsys, "wagner", "12", "m11", "--tuple", str(cand))
    assert code == 0
    assert out.strip() == "Wagner: rejected"

    triv = tmp_path / "triv.json"
    triv.write_text(
        json.dumps({"2": {"2a": 1}, "3": {"3a": 1}, "6": {"6a": 1}})
    )
    code, out, _ = run(capsys, "wagner", "6", "m11", "--tuple", str(triv))
    assert code == 0
    assert out.strip() == "Wagner: passed"


def test_order_obstruction_overwrites_json_out(capsys, tmp_path):
    out_path = tmp_path / "o.json"
    code, _, _ = run(capsys, "order", "4", "m11", "--json-out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["candidates"]
    code, out, _ = run(
        capsys, "order", "4", "m11", "--max-nodes", "0", "--json-out", str(out_path)
    )
    assert code == 2
    assert out.splitlines()[0] == "order 4: Unknown (node budget)"
    assert json.loads(out_path.read_text()) == {
        "command": "order",
        "group": "M11",
        "order": 4,
        "obstruction": "node budget",
    }


@pytest.mark.parametrize(
    "argv, payload, message",
    [
        pytest.param(
            ("zc", "a5", "--store"),
            {"group": "A5", "solutions": {"5": [{"5": {"5a": 1.5, "5b": -0.5}}]}},
            "error: partial augmentation 5a = 1.5 at level 5 is not an integer",
            id="store-fraction",
        ),
        pytest.param(
            ("zc", "a5", "--store"),
            {"group": "A5", "solutions": {"2": [["2a", 1]]}},
            "error: an order-2 tuple must be a JSON object",
            id="store-tuple-list",
        ),
        pytest.param(
            ("zc", "a5", "--store"),
            {"group": "A5", "solutions": {"5": [{"5": {"5c": 1}}]}},
            "error: A5: no class named '5c'",
            id="store-unknown-class",
        ),
        pytest.param(
            ("wagner", "0", "m11", "--tuple"),
            {"2": {"2a": 1}},
            "error: orders start at 2",
            id="wagner-order-zero",
        ),
        pytest.param(
            ("wagner", "2", "m11", "--tuple"),
            {"2": {"2a": "1"}},
            "error: partial augmentation 2a = '1' at level 2 is not an integer",
            id="wagner-string",
        ),
        pytest.param(
            ("wagner", "2", "m11", "--tuple"),
            {"2": {"2b": 1}},
            "error: M11: no class named '2b'",
            id="wagner-unknown-class",
        ),
    ],
)
def test_malformed_json_input_is_an_error(capsys, tmp_path, argv, payload, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err == message + "\n"


def test_wagner_incomplete_tuple_is_an_error(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"6": {"6a": 1}}))
    code, _, err = run(capsys, "wagner", "6", "m11", "--tuple", str(broken))
    assert code == 1
    assert "error:" in err


def test_info_lines(capsys):
    code, out, _ = run(capsys, "info", "m11")
    assert code == 0
    assert out.splitlines() == [
        "group: M11 (order 7920)",
        "element orders: 1, 2, 3, 4, 5, 6, 8, 11",
        "exponent: 1320",
        "missing prime-graph orders: 10, 15, 22, 33, 55",
        "Brauer tables: 5, 11",
    ]


def test_info_cyclic(capsys):
    code, out, _ = run(capsys, "info", "cyclic:6")
    assert code == 0
    lines = out.splitlines()
    assert "group: C6 (order 6)" in lines
    assert "missing prime-graph orders: none" in lines
    assert "properties: nilpotent, solvable" in lines


def test_cyclic_bundle_spelling(capsys):
    code, out, _ = run(capsys, "zc", "cyclic:6", "--no-shortcuts")
    assert code == 0
    assert out.splitlines()[0] == "ZC: Proved"
    code, _, err = run(capsys, "zc", "cyclic:zero")
    assert code == 1 and "error:" in err


def test_nilpotent_shortcut_line(capsys):
    code, out, _ = run(capsys, "zc", "cyclic:12")
    assert code == 0
    assert out.strip() == "ZC: Proved (nilpotent shortcut)"


def test_undeclared_nilpotency_takes_the_shortcut(capsys, tmp_path):
    data = bundle_to_json(cyclic_table(8))
    bundle = tmp_path / "c8.json"
    bundle.write_text(json.dumps(data))
    code, out, _ = run(capsys, "info", str(bundle))
    assert code == 0 and "properties: nilpotent, solvable" in out.splitlines()
    code, out, _ = run(capsys, "zc", str(bundle))
    assert code == 0 and out.strip() == "ZC: Proved (nilpotent shortcut)"


def test_a_group_element_missing_from_an_order_is_an_error(capsys, tmp_path):
    # S4 with 4a^2 = 2a, a transposition: the element orders still agree,
    # but the group element of class 4a fails the order-4 constraints
    bundle = tmp_path / "s4.json"
    bundle.write_text(json.dumps(corrupted_bundle("s4", ("ordinary", "power_maps", "2", 4), 1)))
    store = tmp_path / "store.json"
    code, out, err = run(capsys, "zc", "--no-shortcuts", "--store", str(store), str(bundle))
    assert (code, out) == (1, "")
    assert err.startswith("error: order 4: the group elements of class 4a fail")
    assert not store.exists()


def test_node_budget_flag(capsys):
    code, out, _ = run(
        capsys, "zc", "cyclic:12", "--no-shortcuts", "--max-nodes", "1"
    )
    assert code == 2
    assert "node budget" in out


def test_order_below_two_is_rejected(capsys):
    for k in ("0", "1"):
        code, out, err = run(capsys, "order", k, "a5")
        assert code == 1
        assert out == ""
        assert err == "error: orders start at 2\n"


def test_negative_node_budget_is_rejected(capsys):
    code, out, err = run(capsys, "zc", "--max-nodes", "-5", "a5")
    assert code == 1
    assert out == ""
    assert "node budget must be non-negative" in err


def test_store_roundtrip(capsys, tmp_path):
    store = tmp_path / "store.json"
    code, first, _ = run(capsys, "pq", "m11", "--store", str(store))
    assert code == 0
    saved = json.loads(store.read_text())
    assert saved["group"] == "M11"
    assert set(saved["solutions"]) >= {"10", "15", "22", "33", "55"}
    code, second, _ = run(capsys, "pq", "m11", "--store", str(store))
    assert code == 0
    assert second == first
    assert json.loads(store.read_text()) == saved


def test_store_group_mismatch(capsys, tmp_path):
    store = tmp_path / "store.json"
    code, _, _ = run(capsys, "zc", "a5", "--store", str(store))
    assert code == 0
    code, _, err = run(capsys, "pq", "m11", "--store", str(store))
    assert code == 1
    assert "belongs to" in err


@pytest.mark.parametrize("option", ["--store", "--json-out"])
def test_output_path_that_is_no_file_is_refused_first(capsys, tmp_path, option):
    # refused before the bundle is resolved, so nothing is computed and not
    # even a missing bundle is looked for; a path in a missing directory
    # would fail only when written, after the verdict
    nowhere = tmp_path / "no" / "out.json"
    for path, message in (
        (tmp_path, f"error: output path {tmp_path} exists and is not a regular file\n"),
        (nowhere, f"error: output path {nowhere} is not in an existing directory\n"),
    ):
        for argv in (("zc", "m11"), ("pq", "m11"), ("order", "12", "m11"), ("zc", "nowhere")):
            assert run(capsys, *argv, option, str(path)) == (1, "", message)
    # a fresh path is written as before
    fresh = tmp_path / "fresh.json"
    assert run(capsys, "zc", "a5", option, str(fresh))[0] == 0
    assert json.loads(fresh.read_text())["group"] == "A5"


def test_store_that_is_also_the_json_out_is_refused_first(capsys, tmp_path, monkeypatch):
    # the verdict payload would overwrite the store and break every later
    # resume from it; refused before solving, whether or not the file exists
    store = tmp_path / "store.json"
    assert run(capsys, "zc", "a5", "--store", str(store))[0] == 0
    saved = store.read_bytes()
    monkeypatch.chdir(tmp_path)
    for path in (store, tmp_path / "absent.json"):
        # the same file, spelled once absolute and once relative
        for argv in (("zc", "a5"), ("pq", "a5"), ("order", "6", "a5"), ("zc", "nowhere")):
            code, out, err = run(
                capsys, *argv, "--store", str(path), "--json-out", path.name
            )
            assert (code, out) == (1, "")
            assert err == f"error: --store and --json-out both name {path.name}\n"
    assert store.read_bytes() == saved
    assert not (tmp_path / "absent.json").exists()


def test_an_output_that_is_the_bundle_file_is_refused_first(capsys, tmp_path, monkeypatch):
    # the verdict payload or the store would overwrite the bundle, and every
    # later run on it would fail to load it; refused before solving, for a
    # bundle given by path and for one found by name in the data directory
    data = tmp_path / "data"
    data.mkdir()
    bundle = data / "s3.json"
    bundle.write_bytes(resolve_bundle_path("s3").read_bytes())
    saved = bundle.read_bytes()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HELPZC_DATA", str(data))
    for name in (str(bundle), "data/s3.json", "s3"):
        for option in ("--store", "--json-out"):
            # the same file, spelled once absolute and once relative
            for path in (str(bundle), "data/s3.json"):
                for argv in (("zc", name), ("pq", name), ("order", "2", name)):
                    code, out, err = run(capsys, *argv, option, path)
                    assert (code, out) == (1, "")
                    assert err == f"error: {option} {path} is the bundle file\n"
    assert bundle.read_bytes() == saved
    # another output is written; cyclic:N names no file, even once a file
    # of that name exists, and a bundle that does not resolve reports its
    # own error
    assert run(capsys, "zc", "s3", "--json-out", "verdict.json")[0] == 0
    for _ in range(2):
        assert run(capsys, "zc", "cyclic:3", "--json-out", "cyclic:3")[0] == 0
    code, out, err = run(capsys, "zc", "nowhere", "--json-out", "nowhere")
    assert (code, out) == (1, "") and "no bundle found for 'nowhere'" in err
    assert bundle.read_bytes() == saved


def test_a_bare_name_resolves_in_the_data_directory_first(capsys, tmp_path, monkeypatch):
    # a store saved under the bundle's bare name, in the working directory
    # or in the data directory, used to shadow the bundle on the next run
    data = tmp_path / "data"
    data.mkdir()
    (data / "s3.json").write_bytes(resolve_bundle_path("s3").read_bytes())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HELPZC_DATA", str(data))
    for store in ("s3", "data/s3"):
        for _ in range(2):
            code, out, err = run(capsys, "zc", "s3", "--store", store)
            assert (code, err) == (0, "")
            assert out.startswith("ZC: Proved")
        assert resolve_bundle_path("s3") == data / "s3.json"
        assert run(capsys, "zc", "s3")[:2] == (0, out)
    # a path, or a name with a suffix, is still read as given
    assert resolve_bundle_path("s3.json") == data / "s3.json"
    assert resolve_bundle_path("./s3") == Path("./s3")


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--store", ("zc", "nowhere")),
        ("--json-out", ("order", "12", "nowhere")),
        ("--tuple", ("wagner", "6", "nowhere")),
    ],
)
def test_empty_path_is_a_usage_error(capsys, tmp_path, monkeypatch, option, argv):
    # an empty path used to read as no path: the run exited 0 and wrote
    # nothing; now it is refused before the bundle is resolved
    monkeypatch.chdir(tmp_path)
    for spelling in ((f"{option}=",), (option, "")):
        code, out, err = run(capsys, *argv, *spelling)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == (
            f"helpzc {argv[0]}: error: argument {option}: a path must not be empty"
        )
    assert list(tmp_path.iterdir()) == []


def test_json_out_verdict(capsys, tmp_path):
    out_path = tmp_path / "verdict.json"
    code, _, _ = run(capsys, "pq", "a5", "--json-out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["command"] == "pq"
    assert data["verdict"] == "Proved"
    assert data["store"]["solutions"]["10"] == []


def test_verdict_json_is_built_only_when_written(capsys, tmp_path, monkeypatch):
    calls = []
    real = cli.verdict_json

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(cli, "verdict_json", counting)
    assert run(capsys, "zc", "a5")[0] == 0
    assert calls == []
    out_path = tmp_path / "verdict.json"
    assert run(capsys, "zc", "a5", "--json-out", str(out_path))[0] == 0
    assert calls == ["zc"]
    assert json.loads(out_path.read_text())["verdict"] == "Proved"


M11_ORDER_12 = {
    "command": "order",
    "group": "M11",
    "order": 12,
    "candidates": [
        {"2": {"2a": 1}, "3": {"3a": 1}, "4": {"2a": 2, "4a": -1},
         "6": {"3a": 3, "6a": -2}, "12": {"2a": 1, "4a": -1, "6a": 1}},
        {"2": {"2a": 1}, "3": {"3a": 1}, "4": {"4a": 1},
         "6": {"3a": 3, "6a": -2}, "12": {"2a": -1, "4a": 1, "6a": 1}},
        {"2": {"2a": 1}, "3": {"3a": 1}, "4": {"4a": 1},
         "6": {"3a": 3, "6a": -2}, "12": {"2a": 1, "4a": 1, "6a": -1}},
    ],
    "rejected": [
        {"2a": 1, "4a": -1, "6a": 1},
        {"2a": -1, "4a": 1, "6a": 1},
        {"2a": 1, "4a": 1, "6a": -1},
    ],
    "survivors": [],
}


def test_order_payload_is_built_only_when_written(capsys, tmp_path, monkeypatch):
    calls = []
    for module, name in (
        (storefile, "patuple_to_json"),
        (storefile, "pa_to_json"),
        (storefile, "store_to_json"),
        (cli, "write_json"),
    ):
        real = getattr(module, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    assert run(capsys, "order", "12", "m11")[0] == 0
    assert calls == []
    out_path = tmp_path / "order.json"
    assert run(capsys, "order", "12", "m11", "--json-out", str(out_path))[0] == 0
    assert calls.count("write_json") == 1
    assert json.loads(out_path.read_text()) == M11_ORDER_12


@pytest.mark.parametrize(
    "base, path, value, message",
    [pytest.param(*case[1:], id=case[0]) for case in BUNDLE_CORRUPTIONS],
)
def test_info_on_a_malformed_bundle_prints_one_error_line(
    tmp_path, base, path, value, message
):
    bundle = tmp_path / "bad.json"
    data = corrupted_bundle(base, path, value)
    bundle.write_text(json.dumps(data))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-m", "helpzc.cli", "info", str(bundle)],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [("info", "cyclic:abc"), ("zc", "cyclic:")])
def test_bad_cyclic_order_prints_one_error_line(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-m", "helpzc.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    text = argv[1].split(":", 1)[1]
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.splitlines() == [
        f"error: bundle {argv[1]!r}: cyclic:N needs an integer N, got {text!r}"
    ]


def test_missing_bundle(capsys):
    code, _, err = run(capsys, "zc", "/no/such/bundle.json")
    assert code == 1
    assert "error:" in err


def test_usage_errors_and_help(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["zc"]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "zc" in out and "wagner" in out


def test_readme_shows_the_help_text(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for argv in (["--help"], ["zc", "-h"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert f"$ helpzc {' '.join(argv)}\n{out}```" in readme


ZC_OPTIONS = (
    "--help", "--no-shortcuts", "--no-brauer", "--p-constant", "--max-nodes",
    "--json-out", "--store",
)


@pytest.mark.parametrize(
    "argv, expect",
    [
        # a command line that parses, with the attributes it sets
        pytest.param(["zc", "--max-nodes=7", "--store=s.json", "a5"],
                     {"max_nodes": 7, "store": "s.json", "bundle": "a5"}, id="opt=value"),
        pytest.param(["order", "12", "cyclic:12", "--max-nodes", "1"],
                     {"k": 12, "bundle": "cyclic:12", "max_nodes": 1}, id="options-after"),
        pytest.param(["order", "--no-brauer", "12", "--p-constant", "cyclic:12", "--json-out", "o"],
                     {"k": 12, "bundle": "cyclic:12", "no_brauer": True, "p_constant": True,
                      "no_shortcuts": False, "json_out": "o"}, id="options-between"),
        pytest.param(["zc", "--no-s", "--max", "3", "a5"],
                     {"no_shortcuts": True, "no_brauer": False, "max_nodes": 3}, id="prefixes"),
        pytest.param(["zc", "--max-nodes", "5", "a5", "--max-nodes", "9"],
                     {"max_nodes": 9}, id="last-repeat-wins"),
        pytest.param(["zc", "--no-brauer", "--", "cyclic:4"],
                     {"no_brauer": True, "bundle": "cyclic:4"}, id="double-dash"),
        pytest.param(["info", "--", "-h"], {"bundle": "-h"}, id="double-dash-then-option"),
        pytest.param(["order", "-3", "a5"], {"k": -3}, id="negative-k"),
        pytest.param(["wagner", "6", "--tuple", "t.json", "m11"],
                     {"k": 6, "bundle": "m11", "tuple": "t.json"}, id="wagner"),
        # help, on stdout, naming every option
        pytest.param(["zc", "-h"], ZC_OPTIONS, id="zc-help"),
        # a usage error, with the end of its message
        pytest.param(["zc", "--no", "a5"], "ambiguous option: --no could match", id="ambiguous"),
        pytest.param(["zc", "--max-nodes", "-5", "a5"],
                     "node budget must be non-negative, got -5", id="negative-budget"),
        pytest.param(["zc", "--max-nodes", "x", "a5"], "--max-nodes: invalid", id="budget-not-int"),
        pytest.param(["order", "x", "a5"], "invalid int value: 'x'", id="k-not-int"),
        pytest.param(["zc", "--bogus", "a5"], "unrecognized arguments: --bogus", id="unknown-option"),
        pytest.param(["bogus", "a5"], "invalid choice: 'bogus'", id="unknown-command"),
        pytest.param(["wagner", "6", "m11"], "the following arguments are required: --tuple",
                     id="wagner-without-tuple"),
        pytest.param(["zc", "--no-brauer=1", "a5"], "ignored explicit argument '1'", id="flag=value"),
        pytest.param(["zc", "a5", "--json-out"], "--json-out: expected one argument",
                     id="missing-value"),
        pytest.param(["zc", "a5", "s4"], "unrecognized arguments: s4", id="extra-positional"),
        pytest.param(["info", "--", "s3", "--no-brauer"], "unrecognized arguments: --no-brauer",
                     id="double-dash-ends-options"),
    ],
)
def test_command_line_parses_as_argparse_did(capsys, argv, expect):
    # each case read the same under argparse, which the parser replaced
    if isinstance(expect, dict):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0] and callable(args.func)
        assert {name: getattr(args, name) for name in expect} == expect
        return
    code, out, err = run(capsys, *argv)
    if isinstance(expect, tuple):
        assert (code, err) == (0, "")
        assert all(name in out for name in expect)
        return
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert "error: " in err and expect in err.splitlines()[-1]


@pytest.mark.parametrize(
    "flags, field, value",
    [
        ((), "shortcuts", True),
        (("--no-shortcuts",), "shortcuts", False),
        ((), "use_brauer", True),
        (("--no-brauer",), "use_brauer", False),
        ((), "p_constant", False),
        (("--p-constant",), "p_constant", True),
        (("--no-brauer", "--p-constant"), "use_brauer", False),
        (("--no-brauer", "--p-constant"), "shortcuts", True),
        ((), "max_nodes", DEFAULT_MAX_NODES),
        (("--max-nodes", "123"), "max_nodes", 123),
        (("--max-nodes", "0"), "max_nodes", 0),
    ],
)
def test_solver_flag_mapping(flags, field, value):
    args = build_parser().parse_args(["zc", "a5", *flags])
    assert getattr(solver_options(args), field) == value
