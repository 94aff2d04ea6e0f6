"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import BUNDLE_CORRUPTIONS, corrupted_bundle
from helpzc import cli
from helpzc.bundlefile import bundle_to_json
from helpzc.chartables import cyclic_table
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
    # even a missing bundle is looked for
    message = f"error: output path {tmp_path} exists and is not a regular file\n"
    for argv in (("zc", "m11"), ("pq", "m11"), ("order", "12", "m11"), ("zc", "nowhere")):
        assert run(capsys, *argv, option, str(tmp_path)) == (1, "", message)
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
    for name in ("patuple_to_json", "pa_to_json", "store_to_json", "write_json"):
        real = getattr(cli, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cli, name, counting)
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
